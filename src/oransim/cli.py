"""Command-line entry point: generate, train, run, validate.

Exit codes: 0 success, 1 validation/configuration error, 2 runtime error.
All outputs are deterministic functions of the resolved config, so a rerun
with the same master seed is byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .config import ScenarioConfig, load_config
from .forecast import evaluate_heldout, save_model
from .network import SimulatedNetwork
from .ric import run_control_loop, train_cells, validate_events, validate_jsonl
from .splitting import default_bin_edges, export_histogram_csv, histogram_hours
from .traffic import IngestError, export_csv, generate_synthetic, ingest_csv

__all__ = ["main"]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_config_echo(cfg: ScenarioConfig, outdir: Path) -> None:
    _write_json(outdir / "config.json", cfg.to_resolved_dict())


def cmd_generate(cfg: ScenarioConfig, outdir: Path) -> int:
    if cfg.profile is None:
        raise ValueError("generate requires synthetic traffic in the config")
    outdir.mkdir(parents=True, exist_ok=True)
    series = generate_synthetic(cfg.profile)
    payload = export_csv(series, cfg.schema)
    (outdir / "dataset.csv").write_bytes(payload)
    _write_config_echo(cfg, outdir)
    _write_json(
        outdir / "manifest.json",
        {
            "n_cells": len(series),
            "n_hours": len(series[0]),
            "n_rows": sum(len(s) for s in series),
            "dataset_sha256": hashlib.sha256(payload).hexdigest(),
        },
    )
    print(f"wrote {len(series)} cells x {len(series[0])} hours to {outdir / 'dataset.csv'}")
    return 0


def cmd_train(cfg: ScenarioConfig, dataset: Path, outdir: Path) -> int:
    series_list = ingest_csv(dataset.read_bytes(), cfg.schema)
    if not series_list:
        raise ValueError(f"dataset {dataset} contains no cells")
    outdir.mkdir(parents=True, exist_ok=True)
    models_dir = outdir / "models"
    models_dir.mkdir(exist_ok=True)
    histories = {(s.cell.enb, s.cell.cell): s for s in series_list}
    models, failures = train_cells(histories, cfg.lstm, cfg.training)
    per_cell: dict[str, float] = {}
    for key, model in models.items():
        series = histories[key]
        save_model(model, models_dir / f"{series.cell.label()}.json")
        acc, _ = evaluate_heldout(model, series, cfg.training)
        per_cell[series.cell.label()] = acc
    skipped = [histories[key].cell.label() for key in failures]
    if not per_cell:
        raise ValueError("no cell had enough history to train")
    mean_acc = sum(per_cell.values()) / len(per_cell)
    _write_json(
        outdir / "accuracy_report.json",
        {
            "per_cell_accuracy": per_cell,
            "mean_accuracy": mean_acc,
            "n_cells_trained": len(per_cell),
            "skipped_cells": sorted(skipped),
        },
    )
    _write_config_echo(cfg, outdir)
    print(f"trained {len(per_cell)} cells, mean held-out accuracy {mean_acc:.2f}%")
    return 0


def _build_network(cfg: ScenarioConfig) -> SimulatedNetwork:
    if cfg.profile is not None:
        total = cfg.profile.n_hours
        base = generate_synthetic(cfg.profile)
        cap = cfg.profile.throughput_at_zero_load
    else:
        csv_path = Path(cfg.csv_path)
        if csv_path.is_dir():
            raise ValueError(f"traffic.csv.path {csv_path} is a directory, expected a file")
        base = ingest_csv(csv_path.read_bytes(), cfg.schema)
        if not base:
            raise ValueError(f"dataset {cfg.csv_path} contains no cells")
        total = max(series.start + len(series) for series in base)
        for series in base:
            if (series.start, len(series)) != (0, total):
                raise ValueError(
                    f"dataset {cfg.csv_path}: cell ({series.cell.enb},{series.cell.cell}) covers "
                    f"hours [{series.start}, {series.start + len(series)}), expected [0, {total})"
                )
        cap = max(float(series.to_array()[:, 1].max()) for series in base)
        if cap <= 0:
            raise ValueError(f"dataset {cfg.csv_path}: no ip_throughput is > 0")
    history = total - cfg.horizon_hours
    if history < 1:
        raise ValueError(
            f"traffic provides {total} hours, horizon_hours {cfg.horizon_hours} leaves no history"
        )
    return SimulatedNetwork(base, throughput_cap=cap, history_hours=history)


def cmd_run(cfg: ScenarioConfig, outdir: Path) -> int:
    result = run_control_loop(
        _build_network(cfg),
        rule=cfg.rule,
        lstm_cfg=cfg.lstm,
        train_cfg=cfg.training,
        loop_cfg=cfg.loop,
        split_policy=cfg.split,
        horizon_hours=cfg.horizon_hours,
    )
    check = validate_events(result.log)
    if not check.ok:
        raise RuntimeError(f"internal choreography violation: {check.violation}")

    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "events.jsonl").write_text(result.log.to_jsonl(), encoding="utf-8")
    (outdir / "a1_deployments.jsonl").write_text(
        "".join(line + "\n" for line in result.deployments), encoding="utf-8"
    )
    (outdir / "e2_requests.jsonl").write_text(
        "".join(line + "\n" for line in result.e2_requests), encoding="utf-8"
    )
    edges = default_bin_edges()
    (outdir / "histogram_baseline.csv").write_bytes(
        export_histogram_csv(histogram_hours(result.baseline, edges), edges)
    )
    (outdir / "histogram_after.csv").write_bytes(
        export_histogram_csv(histogram_hours(result.after, edges), edges)
    )
    _write_json(outdir / "summary.json", result.metrics)
    _write_config_echo(cfg, outdir)
    m = result.metrics
    print(
        f"simulated hours [{m['window_start']}, {m['end_hour']}): "
        f"congested hours {m['congested_hours_baseline']} -> {m['congested_hours_after']}, "
        f"{m['splits_issued']} splits, max factor {m['max_split_factor_reached']}"
    )
    return 0


def cmd_validate(events_path: Path) -> int:
    result = validate_jsonl(events_path.read_text(encoding="utf-8"))
    if result.ok:
        print("PASS: event log satisfies the control-loop choreography")
        return 0
    print(f"FAIL: {result.violation}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oransim",
        description="Deterministic O-RAN congestion prediction and cell-splitting simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", type=Path, default=None,
                        help="scenario config JSON (defaults reproduce the reference setup)")
    common.add_argument("-o", "--output", type=Path, default=Path("oransim_out"),
                        help="output directory (default: ./oransim_out)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the master seed")

    sub.add_parser("generate", parents=[common],
                   help="write the synthetic KPI dataset as CSV")
    p_train = sub.add_parser("train", parents=[common],
                             help="train per-cell forecasters on a dataset CSV")
    p_train.add_argument("-d", "--dataset", type=Path, required=True,
                         help="dataset CSV produced by generate (or external)")
    sub.add_parser("run", parents=[common],
                   help="execute the full control loop and emit evaluation outputs")
    p_val = sub.add_parser("validate", help="replay an event log against the choreography rules")
    p_val.add_argument("events", type=Path, help="events.jsonl produced by run")

    return parser


def _check_paths(args: argparse.Namespace) -> None:
    """Reject an input path that is a directory, or an output path that cannot be one."""
    for flag, name in (("-c/--config", "config"), ("-d/--dataset", "dataset"),
                       ("events", "events")):
        path = getattr(args, name, None)
        if path is not None and path.is_dir():
            raise ValueError(f"{flag} {path} is a directory, expected a file")
    out = getattr(args, "output", None)
    if out is not None:
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ValueError(f"-o/--output {out}: {existing} is not a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_paths(args)
        if args.command == "validate":
            return cmd_validate(args.events)
        cfg = load_config(args.config, master_seed_override=args.seed)
        if args.command == "generate":
            return cmd_generate(cfg, args.output)
        if args.command == "train":
            return cmd_train(cfg, args.dataset, args.output)
        if args.command == "run":
            return cmd_run(cfg, args.output)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, IngestError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
