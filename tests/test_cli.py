"""End-to-end tests of the command-line interface and scenario config."""

import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oransim
from oransim.cli import main
from oransim.config import config_from_dict, derive_seed, load_config
from oransim.forecast import load_model, model
from oransim.kpi import CellId, KpiSeries
from oransim.network import SimulatedNetwork
from oransim.ric import EventLog, EventTag, payload_digest, validate_jsonl
from oransim.traffic import SyntheticProfile, export_csv, generate_synthetic

TINY = {
    "master_seed": 5,
    "horizon_hours": 12,
    "traffic": {
        "synthetic": {
            "n_enb": 1,
            "cells_per_enb": 2,
            "n_days": 3,
            "peak_prb_util": 92.0,
            "congested_cell_fraction": 0.5,
        }
    },
    "lstm": {"n_layers": 1, "units_per_layer": 4},
    "training": {"epochs": 3, "lookback": 6},
    "loop": {"split_cooldown_hours": 6, "retrain_cooldown_hours": 6},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestPaths:
    @pytest.mark.parametrize("argv, flag, path", [
        (["generate", "-c", "{dir}", "-o", "{dir}/out"], "-c/--config", "{dir}"),
        (["train", "-c", "{cfg}", "-d", "{dir}", "-o", "{dir}/out"], "-d/--dataset", "{dir}"),
        (["validate", "{dir}"], "events", "{dir}"),
        (["generate", "-c", "{cfg}", "-o", "{cfg}"], "-o/--output", "{cfg}"),
        (["run", "-c", "{cfg}", "-o", "{cfg}/out"], "-o/--output", "{cfg}/out"),
        (["run", "-c", "{csv_cfg}", "-o", "{dir}/out"], "traffic.csv.path", "{dir}"),
    ], ids=["config-dir", "dataset-dir", "events-dir", "output-file", "output-under-file",
            "csv-path-dir"])
    def test_wrong_kind_of_path_exits_one_naming_flag_and_path(self, tmp_path, capsys, argv,
                                                               flag, path):
        csv_cfg = write_config(tmp_path, {"traffic": {"csv": {"path": str(tmp_path)}}}, "csv.json")
        names = {"dir": str(tmp_path), "cfg": str(write_config(tmp_path, TINY)),
                 "csv_cfg": str(csv_cfg)}
        assert main([arg.format(**names) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {path.format(**names)}")
        assert not (tmp_path / "out").exists()


def test_python_m_oransim_runs_the_cli(tmp_path):
    path = [str(Path(oransim.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    (tmp_path / "empty.jsonl").write_text("")
    (tmp_path / "bad.jsonl").write_text("not json\n")
    exits = {}
    for name in ("empty.jsonl", "bad.jsonl", "."):
        done = subprocess.run([sys.executable, "-m", "oransim", "validate", str(tmp_path / name)],
                              env=env, capture_output=True, text=True, timeout=60)
        exits[name] = (done.returncode, (done.stdout + done.stderr).split(":")[0])
    assert exits == {"empty.jsonl": (0, "PASS"), "bad.jsonl": (1, "FAIL"), ".": (1, "error")}


def blas_runtime_config() -> str:
    """``tools/output_digests.py``'s name for the OpenBLAS build and kernel this process runs."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.blas_runtime_config()


def cpu_flags() -> set[str]:
    try:
        lines = Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines()
    except OSError:
        return set()
    return {flag for line in lines if line.startswith("flags") for flag in line.split(":")[1].split()}


def test_loop_decisions_do_not_depend_on_the_blas_kernel(tmp_path):
    """Each OpenBLAS kernel repeats its own bytes, and the default kernel and
    Haswell's take the same decisions: every event's tag, hour and cells, and
    the summary's congestion and split counts."""
    config = blas_runtime_config()
    if "DYNAMIC_ARCH" not in config:
        pytest.skip(f"numpy's OpenBLAS does not pick its kernel at run time: {config}")
    if "avx2" not in cpu_flags():
        pytest.skip("/proc/cpuinfo lists no avx2, so OpenBLAS cannot run its Haswell kernel")
    # the sizes of test_properties.loop_logs (a congested, a clear and a noisy cell), but
    # 12 units, the default: at 3 units SkylakeX and Haswell write the same bytes
    n_hours, noisy = 64, np.random.default_rng(7)
    kpis = [([96.0] * n_hours, [0.4] * n_hours), ([30.0] * n_hours, [6.0] * n_hours),
            (noisy.uniform(0.0, 100.0, n_hours), noisy.uniform(0.0, 10.0, n_hours))]
    series = [KpiSeries.from_arrays(CellId(0, c), 0, *kpi) for c, kpi in enumerate(kpis)]
    (tmp_path / "dataset.csv").write_bytes(export_csv(series))
    write_config(tmp_path, {
        "master_seed": 3, "horizon_hours": 24, "traffic": {"csv": {"path": "dataset.csv"}},
        "lstm": {"n_layers": 1, "units_per_layer": 12},
        "training": {"batch_size": 64, "epochs": 1, "lookback": 4}, "split": {"max_factor": 4},
        # every inexact forecast mispredicts, so a retrain waits only for its cooldown
        "loop": {"retrain_accuracy_threshold": 100.0, "split_cooldown_hours": 6,
                 "retrain_cooldown_hours": 6},
    })
    path = [str(Path(oransim.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    runs: dict[str, list[tuple[bytes, dict]]] = {}
    for kernel in ("default", "default", "Haswell", "Haswell"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel != "default":
            env["OPENBLAS_CORETYPE"] = kernel
        out = tmp_path / f"{kernel}-{len(runs.get(kernel, []))}"
        subprocess.run([sys.executable, "-m", "oransim", "run", "-c", "config.json", "-o", out],
                       env=env, cwd=tmp_path, check=True, capture_output=True, timeout=300)
        runs.setdefault(kernel, []).append(((out / "events.jsonl").read_bytes(),
                                            json.loads((out / "summary.json").read_text())))

    def decisions(events: bytes, summary: dict):
        counts = ("congested_hours_baseline", "congested_hours_after", "splits_issued",
                  "max_split_factor_reached")
        return ([(e.tag, e.hour, e.cells) for e in EventLog.parse_jsonl(events.decode())],
                {key: summary[key] for key in counts})

    for kernel, ((events, _), (again, _)) in runs.items():
        assert events == again, f"{kernel} kernel did not repeat its event log"
    assert decisions(*runs["default"][0]) == decisions(*runs["Haswell"][0])


class TestConfig:
    def test_defaults_mirror_reference_setup(self):
        cfg = load_config(None)
        assert cfg.profile.n_enb == 17
        assert cfg.profile.cells_per_enb == 18
        assert cfg.profile.n_days == 25
        assert cfg.lstm.n_layers == 2
        assert cfg.lstm.units_per_layer == 12
        assert cfg.training.batch_size == 16
        assert cfg.training.epochs == 150
        assert cfg.rule.throughput_max == 1.0
        assert cfg.rule.prb_min == 80.0
        assert cfg.split.r_min == 60.0 and cfg.split.r_max == 75.0

    def test_master_seed_derives_component_seeds(self):
        a = config_from_dict({"master_seed": 1})
        b = config_from_dict({"master_seed": 2})
        assert a.profile.seed != b.profile.seed
        assert a.training.seed != b.training.seed
        assert a.split.seed != b.split.seed
        # derivation is stable
        assert a.profile.seed == derive_seed(1, 0)

    def test_explicit_component_seed_wins(self):
        cfg = config_from_dict(
            {"master_seed": 1, "traffic": {"synthetic": {"seed": 777}}}
        )
        assert cfg.profile.seed == 777

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            config_from_dict({"master_seed": 1, "bogus": 2})
        with pytest.raises(ValueError, match="unknown keys"):
            config_from_dict({"training": {"momentum": 0.9}})

    def test_factor_mismatch_rejected(self):
        with pytest.raises(ValueError, match="agree"):
            config_from_dict(
                {"split": {"max_factor": 4}, "loop": {"max_split_factor": 2}}
            )

    def test_split_factor_propagates_to_loop(self):
        cfg = config_from_dict({"split": {"max_factor": 8}})
        assert cfg.loop.max_split_factor == 8

    def test_resolved_dict_round_trips(self):
        cfg = config_from_dict(TINY)
        again = config_from_dict(cfg.to_resolved_dict())
        assert again == cfg

    def test_readme_config_is_the_defaults_with_its_seeds(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        cfg = config_from_dict(json.loads(block))
        default = config_from_dict({})
        assert cfg.master_seed == 42
        reseeded = dataclasses.replace(
            cfg,
            master_seed=default.master_seed,
            profile=dataclasses.replace(cfg.profile, seed=default.profile.seed),
            training=dataclasses.replace(cfg.training, seed=default.training.seed),
            split=dataclasses.replace(cfg.split, seed=default.split.seed),
        )
        assert reseeded == default


class TestGenerate:
    def test_writes_dataset_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out = tmp_path / "out"
        assert main(["generate", "-c", str(cfg), "-o", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_cells"] == 2
        assert manifest["n_hours"] == 72
        assert (out / "dataset.csv").exists()
        assert (out / "config.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "-c", str(cfg), "-o", str(out_a)]) == 0
        assert main(["generate", "-c", str(cfg), "-o", str(out_b)]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["generate", "-c", str(cfg), "-o", str(out_a)])
        main(["generate", "-c", str(cfg), "-o", str(out_b), "--seed", "99"])
        assert (out_a / "dataset.csv").read_bytes() != (out_b / "dataset.csv").read_bytes()

    def test_invalid_profile_exits_one(self, tmp_path, capsys):
        bad = dict(TINY, traffic={"synthetic": {"n_days": 1}})
        cfg = write_config(tmp_path, bad)
        assert main(["generate", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("section, message", [
        ({"lstm": {"n_layers": 0}}, "lstm: n_layers must be >= 1, got 0"),
        ({"schema": {"epoch": "noon"}},
         "schema: epoch must be ISO-8601 with no timezone, got 'noon'"),
    ])
    def test_invalid_section_exits_one_naming_it(self, tmp_path, capsys, section, message):
        cfg = write_config(tmp_path, {**TINY, **section})
        assert main(["generate", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 1
        assert f"error: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            ("training.batch_size", 2.5),
            ("master_seed", 1.7),
            ("loop.feedback_window_hours", True),
            ("horizon_hours", "5"),
            ("traffic.synthetic.n_enb", 1.5),
            ("rule.prb_min", "80"),
            ("master_seed", -1),
            ("traffic.synthetic.seed", -1),
            ("training.seed", -1),
            ("split.seed", -1),
        ],
    )
    def test_mistyped_value_exits_one_naming_key(self, tmp_path, capsys, path, value):
        doc = json.loads(json.dumps(TINY))
        *sections, key = path.split(".")
        node = doc
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["generate", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 1
        assert path in capsys.readouterr().err

    def test_repeated_key_exits_one_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"master_seed": 1, "traffic": {"synthetic": {"n_days": 3, "n_days": 4}}}')
        assert main(["generate", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 1
        assert "duplicate key 'n_days'" in capsys.readouterr().err

    def test_csv_traffic_cannot_generate(self, tmp_path):
        cfg = write_config(tmp_path, dict(TINY, traffic={"csv": {"path": "x.csv"}}))
        assert main(["generate", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 1

    def test_default_config_produces_reference_fleet(self, tmp_path):
        # no config file: 17 eNBs x 18 cells over 25 days
        out = tmp_path / "full"
        assert main(["generate", "-o", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_cells"] == 306
        assert manifest["n_hours"] == 600
        assert manifest["n_rows"] == 306 * 600


class TestTrain:
    def test_models_and_accuracy_report(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        gen = tmp_path / "gen"
        out = tmp_path / "train"
        main(["generate", "-c", str(cfg), "-o", str(gen)])
        assert main(["train", "-c", str(cfg), "-d", str(gen / "dataset.csv"),
                     "-o", str(out)]) == 0
        report = json.loads((out / "accuracy_report.json").read_text())
        assert report["n_cells_trained"] == 2
        assert set(report["per_cell_accuracy"]) == {"e0c0g0", "e0c1g0"}
        assert 0.0 <= report["mean_accuracy"] <= 100.0
        models = sorted(p.name for p in (out / "models").glob("*.json"))
        assert models == ["e0c0g0.json", "e0c1g0.json"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        gen = tmp_path / "gen"
        main(["generate", "-c", str(cfg), "-o", str(gen)])
        a, b = tmp_path / "a", tmp_path / "b"
        main(["train", "-c", str(cfg), "-d", str(gen / "dataset.csv"), "-o", str(a)])
        main(["train", "-c", str(cfg), "-d", str(gen / "dataset.csv"), "-o", str(b)])
        assert tree_bytes(a) == tree_bytes(b)

    def test_missing_dataset_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        assert main(["train", "-c", str(cfg), "-d", str(tmp_path / "nope.csv"),
                     "-o", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("timestamp_format, stamps, kpi, message", [
        ("hours", ["0", "1", "9" * 400], b"50.0", "row 4: hour offset out of range"),
        ("iso8601", ["2000-01-01T00:00", "2000-01-01T01:00", "2000-01-01T02:00"], b"5\xff.0",
         "row 4: invalid UTF-8 byte 0xff"),
        ("iso8601", ["2000-01-01T00:00", "2000-01-01T01:00", "2000-01-01T02:00"],
         b'"' + b"5" * 200_000 + b'"', "row 4: field larger than field limit (131072)"),
    ])
    def test_bad_dataset_row_exits_one_naming_row(self, tmp_path, capsys, timestamp_format,
                                                  stamps, kpi, message):
        cfg = write_config(tmp_path, {**TINY, "schema": {"timestamp_format": timestamp_format}})
        rows = [f"0,0,{stamp},".encode() for stamp in stamps]
        rows[-1] += kpi
        rows[:-1] = [row + b"50.0" for row in rows[:-1]]
        dataset = tmp_path / "dataset.csv"
        dataset.write_bytes(b"enb_id,cell_id,timestamp,prb_util,ip_throughput\n"
                            + b"".join(row + b",1.0\n" for row in rows))
        assert main(["train", "-c", str(cfg), "-d", str(dataset),
                     "-o", str(tmp_path / "x")]) == 1
        assert f"error: {message}" in capsys.readouterr().err


class TestRun:
    def run_outputs(self, tmp_path, doc, name="run"):
        cfg = write_config(tmp_path, doc, name=f"{name}.json")
        out = tmp_path / name
        assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0
        return out

    def test_outputs_and_valid_log(self, tmp_path):
        out = self.run_outputs(tmp_path, TINY)
        for fname in (
            "events.jsonl", "summary.json", "histogram_baseline.csv",
            "histogram_after.csv", "a1_deployments.jsonl", "e2_requests.jsonl",
            "config.json",
        ):
            assert (out / fname).exists(), fname
        assert validate_jsonl((out / "events.jsonl").read_text()).ok
        summary = json.loads((out / "summary.json").read_text())
        assert summary["window_hours"] == 12
        assert summary["n_cells_baseline"] == 2

    def test_run_builds_the_window_series_once(self, tmp_path, monkeypatch):
        calls = []
        for name in ("baseline_series", "realized_series"):
            original = getattr(SimulatedNetwork, name)

            def counting(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(SimulatedNetwork, name, counting)
        self.run_outputs(tmp_path, TINY)
        assert sorted(calls) == ["baseline_series", "realized_series"]

    def test_run_parses_no_model_file(self, tmp_path, monkeypatch):
        parsed = []
        original = model.model_from_json

        def counting(text):
            parsed.append(len(text))
            return original(text)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "oransim":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        cfg = write_config(tmp_path, TINY)
        main(["generate", "-c", str(cfg), "-o", str(tmp_path / "gen")])
        main(["train", "-c", str(cfg), "-d", str(tmp_path / "gen" / "dataset.csv"),
              "-o", str(tmp_path / "train")])
        self.run_outputs(tmp_path, TINY)
        assert parsed == []
        load_model(next((tmp_path / "train" / "models").iterdir()))
        assert len(parsed) == 1  # the counter sees a model file being read

    def test_cli_validate_accepts_run_log(self, tmp_path, capsys):
        out = self.run_outputs(tmp_path, TINY)
        assert main(["validate", str(out / "events.jsonl")]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_log_fails_validation(self, tmp_path, capsys):
        out = self.run_outputs(tmp_path, TINY)
        lines = (out / "events.jsonl").read_text().splitlines(keepends=True)
        # drop the first BusPublish record
        idx = next(i for i, l in enumerate(lines) if '"tag":"BusPublish"' in l)
        (out / "corrupt.jsonl").write_text("".join(lines[:idx] + lines[idx + 1:]))
        assert main(["validate", str(out / "corrupt.jsonl")]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_coerced_event_line_fails_validation_naming_line_and_field(self, tmp_path, capsys):
        # every value is one that int() or str() would coerce into a valid event
        log = tmp_path / "coerced.jsonl"
        log.write_text('{"seq": "0", "hour": 5.7, "tag": "O1Collect", '
                       '"cells": [["1", 2.9, true]], "digest": 12}\n')
        assert main(["validate", str(log)]) == 1
        err = capsys.readouterr().err
        assert "FAIL: line 1:" in err and "seq must be int" in err

    @pytest.mark.parametrize("line, reason", [
        ('{"seq":0,"seq":1,"hour":0,"tag":"O1Collect","cells":[],"digest":""}',
         "duplicate key 'seq'"),
        ('{"seq":0,"hour":0,"tag":"O1Collect","cells":[],"digest":""}',
         "digest must be 16 lowercase hex digits"),
    ])
    def test_repeated_key_or_malformed_digest_fails_validation_naming_line(
            self, tmp_path, capsys, line, reason):
        log = tmp_path / "events.jsonl"
        log.write_text(line + "\n")
        assert main(["validate", str(log)]) == 1
        err = capsys.readouterr().err
        assert "FAIL: line 1: malformed event record" in err and reason in err

    def test_empty_log_passes_validation(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["validate", str(empty)]) == 0

    def test_no_congestion_scenario_zero_splits(self, tmp_path):
        quiet = json.loads(json.dumps(TINY))
        quiet["traffic"]["synthetic"]["congested_cell_fraction"] = 0.0
        out = self.run_outputs(tmp_path, quiet, name="quiet")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["splits_issued"] == 0
        assert (out / "e2_requests.jsonl").read_text() == ""
        # identical traffic and no action: histograms match the baseline
        assert (out / "histogram_after.csv").read_bytes() == (
            out / "histogram_baseline.csv"
        ).read_bytes()

    def test_record_lines_are_the_payloads_their_events_digest(self, tmp_path):
        # cell 0 is congested every hour, so its exact forecast alarms and it splits
        series = [KpiSeries.from_arrays(CellId(0, c), 0, [util] * 72, [thr] * 72)
                  for c, (util, thr) in enumerate([(96.0, 0.4), (31.0, 6.0)])]
        dataset = tmp_path / "dataset.csv"
        dataset.write_bytes(export_csv(series))
        out = self.run_outputs(tmp_path, {**TINY, "traffic": {"csv": {"path": str(dataset)}}})
        events = EventLog.parse_jsonl((out / "events.jsonl").read_text())
        for fname, tag in (("a1_deployments.jsonl", EventTag.A1_DEPLOY),
                           ("e2_requests.jsonl", EventTag.E2_CONTROL)):
            lines = (out / fname).read_text().splitlines()
            assert lines
            assert [payload_digest(json.loads(line)) for line in lines] == [
                e.digest for e in events if e.tag == tag
            ]

    def test_full_pipeline_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        for sub in ("a", "b"):
            root = tmp_path / sub
            main(["generate", "-c", str(cfg), "-o", str(root / "gen")])
            main(["train", "-c", str(cfg), "-d", str(root / "gen" / "dataset.csv"),
                  "-o", str(root / "train")])
            main(["run", "-c", str(cfg), "-o", str(root / "run")])
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_horizon_leaving_too_little_history_exits_one(self, tmp_path, capsys):
        doc = {"horizon_hours": 20,
               "traffic": {"synthetic": {"n_enb": 1, "cells_per_enb": 2, "n_days": 2}}}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        for key in ("horizon_hours", "training.lookback", "training.train_fraction"):
            assert key in err
        assert not (tmp_path / "out").exists()

    def test_horizon_past_the_traffic_exits_one_naming_it(self, tmp_path, capsys):
        doc = {"horizon_hours": 60,
               "traffic": {"synthetic": {"n_enb": 1, "cells_per_enb": 2, "n_days": 2}}}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "traffic provides 48 hours, horizon_hours 60 leaves no history" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("horizon, period, named", [
        (4, 6, "horizon_hours 4 must cover at least one loop.collection_period (6 hours)"),
        (40, 40, "horizon_hours 40 leaves 8 hours of history, fewer than one "
                 "loop.collection_period (40 hours)"),
    ], ids=["over-horizon", "over-history"])
    def test_collection_period_longer_than_window_exits_one(self, tmp_path, capsys, horizon,
                                                            period, named):
        doc = {"horizon_hours": horizon, "loop": {"collection_period": period},
               "traffic": {"synthetic": {"n_enb": 1, "cells_per_enb": 2, "n_days": 2}}}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["input_dim", "output_dim"])
    @pytest.mark.parametrize("command", ["run", "train"])
    def test_lstm_width_other_than_the_kpi_pair_exits_one(self, tmp_path, capsys, command, key):
        doc = json.loads(json.dumps(TINY))
        doc["lstm"][key] = 3
        cfg = write_config(tmp_path, doc)
        args = [command, "-c", str(cfg), "-o", str(tmp_path / "out")]
        if command == "train":
            args += ["-d", str(tmp_path / "dataset.csv")]  # never read: the config fails first
        assert main(args) == 1
        assert f"lstm.{key} must be 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kept, message", [
        (lambda series: [series[0], KpiSeries(series[1].cell, 0, series[1].values[:-10])],
         "cell (0,1) covers hours [0, 62), expected [0, 72)"),
        (lambda series: [series[0], KpiSeries(series[1].cell, 5, series[1].values[5:])],
         "cell (0,1) covers hours [5, 72), expected [0, 72)"),
        (lambda series: [KpiSeries(s.cell, s.start, s.values * [1.0, 0.0]) for s in series],
         "no ip_throughput is > 0"),
    ], ids=["short", "late", "no-throughput"])
    def test_unusable_dataset_exits_one_naming_it(self, tmp_path, capsys, kept, message):
        series = generate_synthetic(SyntheticProfile(n_enb=1, cells_per_enb=2, n_days=3))
        dataset = tmp_path / "dataset.csv"
        dataset.write_bytes(export_csv(kept(series)))
        doc = {**TINY, "traffic": {"csv": {"path": str(dataset)}}}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 1
        assert f"error: dataset {dataset}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_csv_traffic_run(self, tmp_path):
        cfg_doc = json.loads(json.dumps(TINY))
        gen_cfg = write_config(tmp_path, TINY, name="gen.json")
        main(["generate", "-c", str(gen_cfg), "-o", str(tmp_path / "gen")])
        cfg_doc["traffic"] = {"csv": {"path": str(tmp_path / "gen" / "dataset.csv")}}
        out = self.run_outputs(tmp_path, cfg_doc, name="csvrun")
        assert validate_jsonl((out / "events.jsonl").read_text()).ok

    def test_config_echo_reproduces_run(self, tmp_path):
        out1 = self.run_outputs(tmp_path, TINY, name="first")
        echo = json.loads((out1 / "config.json").read_text())
        cfg2 = write_config(tmp_path, echo, name="echo.json")
        out2 = tmp_path / "second"
        assert main(["run", "-c", str(cfg2), "-o", str(out2)]) == 0
        assert (out1 / "events.jsonl").read_bytes() == (out2 / "events.jsonl").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
