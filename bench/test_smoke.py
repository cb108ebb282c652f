"""Smoke test of the benchmark itself, on tiny versions of the workloads.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric is emitted with its unit, that a tampered output
file fails its run, and that a traced run leaves no wrapper on oransim.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import child  # noqa: E402
import run  # noqa: E402
from spans import LAYER_UNITS, layer_metrics  # noqa: E402
from workloads import CONFIRM_SEED, WORKLOADS, config  # noqa: E402

# The tiny loop-retrain splits under this seed, so its output check can pass.
SEED = CONFIRM_SEED


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, traced):
    result, lines = run.run_workload(ROOT, workload, SEED, 0.1, traced, tiny=True)
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 2
    units = run.PER_LAYER_UNITS if traced else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert all(v["value"] > 0 for k, v in result["metrics"].items()
               if k in run.END_TO_END_UNITS)
    for name, unit in {**units, "error_rate": "ratio"}.items():
        assert any(line.startswith(f"  {name} ") and line.endswith(f" {unit}") for line in lines)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _one_run(workload: str):
    session = run.Session(ROOT, workload, SEED, traced=False, tiny=True)
    record = session.launch(False)
    assert record["failure"] is None, record["failure"]
    return session, record


def test_tampered_event_log_fails_the_run():
    session, record = _one_run("loop-serve")
    events = record["dir"] / "events.jsonl"
    lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
    events.write_text("".join(lines[:3] + lines[4:]), encoding="utf-8")
    assert "events.jsonl fails validation" in session.check(record)


def test_tampered_csv_fails_the_run():
    session, record = _one_run("dataset-io")
    csv_path = record["dir"] / "dataset.csv"
    data = bytearray(csv_path.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")  # last digit of the last value
    csv_path.write_bytes(bytes(data))
    assert session.check(record) is not None


def test_runs_with_differing_outputs_are_failed():
    assert run.mismatched_digests([{"a": "1"}, {"a": "1"}, {"a": "2"}]) == [False, False, True]


def test_layer_metrics_take_self_time_and_split_forward_by_parent():
    spans = [  # name, start, end, parent, counts, raised
        ["forecast.predict", 0.0, 1.0, -1, None, False],
        ["forecast.forward", 0.2, 0.6, 0, {"rows": 1}, False],
        ["forecast.train", 2.0, 4.0, -1, None, False],
        ["forecast.forward", 2.5, 3.0, 2, {"rows": 9}, False],
        ["forecast.train", 5.0, 5.5, -1, None, True],
    ]
    m = layer_metrics(spans)
    assert set(m) == set(LAYER_UNITS)
    assert m["forecast.predict.s"] == pytest.approx(0.6)
    assert m["forecast.train.s"] == pytest.approx(2.0)
    assert (m["forecast.forward.infer.s"], m["forecast.forward.val.s"]) == pytest.approx((0.4, 0.5))
    assert m["forecast.forward.s"] == pytest.approx(0.9)
    assert m["forecast.forward.rows_per_call"] == 5.0
    assert (m["forecast.forward.infer.rows_per_call"], m["forecast.forward.val.rows_per_call"]) == (1.0, 9.0)
    assert (m["forecast.train.calls"], m["forecast.train.failed"], m["forecast.train.ok_ratio"]) == (2, 1, 0.5)


def _bindings():
    """Every attribute of every oransim module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "oransim" or name.startswith("oransim."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("oransim"):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


@pytest.mark.parametrize("workload", ["loop-serve", "dataset-io"])
def test_traced_run_leaves_no_wrapper(workload, tmp_path):
    import oransim.cli  # noqa: F401  (load every module before the snapshot)

    before = _bindings()
    cfg = tmp_path / "input.json"
    cfg.write_text(json.dumps(config(workload, SEED, tiny=True)), encoding="utf-8")
    result = child.run(workload, cfg, tmp_path / "out", traced=True)
    assert result["layers"]["ric.events" if workload == "loop-serve" else "traffic.ingest_csv.rows"] > 0
    after = _bindings()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []
