"""oransim benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload loop-retrain --seed 20200518 --seconds 40 --trace 0

Run it from the root of an oransim checkout; it imports the program from
``./src`` and writes only under ``./.bench_out``. The benchmark is a closed
loop with one client: it starts a run (a fresh process executing the
workload once, see ``child.py``), waits for it to end, checks its outputs
and starts the next, until ``--seconds`` are spent. ``--trace 0`` reports
the end-to-end metrics (medians over the runs); ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics. The last line
of standard output is one JSON object. The exit code is 1 if any run failed
an output check and 2 if the program is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

# One BLAS thread, set before numpy is first imported here or in a run. The
# program is single-threaded Python on small matrices: BLAS worker threads buy
# it nothing, add scheduler noise on a shared host, and OpenBLAS ends the
# process when the host refuses to create them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from checks import check_dataset_run, check_loop_run, mismatched_digests  # noqa: E402
from spans import LAYER_UNITS  # noqa: E402
from workloads import DEFAULT_SEED, LOOPS, WORKLOADS, config  # noqa: E402

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
CYCLE_UNITS = {"serve_cycle_ms_p50": "ms", "serve_cycle_ms_p90": "ms", "train_cycle_s_p50": "s"}
PER_LAYER_UNITS = {**CYCLE_UNITS, **LAYER_UNITS, "trace_overhead": "ratio"}
CHILD_TIMEOUT_S = 150


def machine_facts() -> dict:
    """What the numbers depend on, read without changing anything."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def cycle_metrics(runs: list[dict]) -> dict[str, float]:
    serve = [1e3 * d for r in runs for d, trained in r["cycles"] if not trained]
    train = [d for r in runs for d, trained in r["cycles"] if trained]
    return {
        "serve_cycle_ms_p50": percentile(serve, 50) if serve else 0.0,
        "serve_cycle_ms_p90": percentile(serve, 90) if serve else 0.0,
        "train_cycle_s_p50": percentile(train, 50) if train else 0.0,
    }


class Session:
    """The runs of one workload under one seed, and their checks."""

    def __init__(self, root: Path, workload: str, seed: int, traced: bool, tiny: bool = False):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.dir = root / ".bench_out" / f"{workload}-seed{seed}-trace{int(traced)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.doc = config(workload, seed, tiny)
        self.config_path = self.dir / "input.json"
        self.config_path.write_text(json.dumps(self.doc, indent=2), encoding="utf-8")
        # A fixed hash seed gives every run the same dict and set layouts.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.runs: list[dict] = []

    def launch(self, traced: bool, warm_up: bool = False) -> dict:
        """Start one run, wait for it, check its outputs; return its record.

        A warm-up run is checked like any other but left out of every timing.
        """
        outdir = self.dir / f"run-{len(self.runs):03d}"
        outdir.mkdir()
        with open(outdir / "log.txt", "wb") as log:
            launched = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "child.py"), self.workload,
                 str(self.config_path), str(outdir), repr(launched), str(int(traced))],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.root)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            finally:  # also when the benchmark itself is being stopped
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        record = {"dir": outdir, "traced": traced, "warm_up": warm_up,
                  "wall_s": time.monotonic() - launched}
        try:
            record.update(json.loads((outdir / "result.json").read_text(encoding="utf-8")))
        except (FileNotFoundError, json.JSONDecodeError):
            record["failure"] = f"run exited with code {proc.returncode} and left no result"
            self.runs.append(record)
            return record
        if proc.returncode != 0 or record["rc"] != 0:
            record["failure"] = f"exit code {proc.returncode}, program returned {record['rc']}"
        else:
            record["failure"] = self.check(record)
        self.runs.append(record)
        return record

    def check(self, record: dict) -> str | None:
        if self.workload in LOOPS:
            return check_loop_run(record["dir"], record, self.workload)
        # Ingesting the file again is slow; once per session is enough because
        # every other run must have written the same bytes.
        deep = not any(r.get("deep_checked") for r in self.runs)
        record["deep_checked"] = deep
        schema = None
        if deep:
            from oransim.config import config_from_dict
            schema = config_from_dict(self.doc).schema
        return check_dataset_run(record["dir"], record, schema)

    def run_for(self, seconds: float) -> None:
        """Closed loop: the next run starts when the previous one has ended.

        The first run warms the host's caches up and is not timed.
        """
        kinds = (False, True) if self.traced else (False,)
        min_runs = 2 if self.traced else 3
        deadline = time.monotonic() + seconds
        timed = 0
        while True:
            if timed >= min_runs:
                typical = statistics.median(r["wall_s"] for r in self.runs)
                if time.monotonic() + typical > deadline:
                    break
            if self.runs:
                record = self.launch(kinds[timed % len(kinds)])
                timed += 1
            else:
                record = self.launch(False, warm_up=True)
            if record["failure"] is None and self.workload not in LOOPS:
                (record["dir"] / "dataset.csv").unlink()  # 10 MiB a run; its digest is kept
        checked = [r for r in self.runs if r["failure"] is None]
        for r, bad in zip(checked, mismatched_digests([r["digests"] for r in checked])):
            if bad:
                r["failure"] = "output digests differ from the other runs of this session"

    def ok(self, traced: bool) -> list[dict]:
        return [r for r in self.runs
                if r["failure"] is None and not r["warm_up"] and r["traced"] == traced]

    def end_to_end(self) -> dict[str, float]:
        runs = self.ok(False)
        if not runs:
            return {}
        return {name: statistics.median(r[name] for r in runs) for name in END_TO_END_UNITS}

    def per_layer(self) -> dict[str, float]:
        plain, traced = self.ok(False), self.ok(True)
        if not plain or not traced:
            return {}
        out = cycle_metrics(plain)
        out.update({name: statistics.median(r["layers"][name] for r in traced)
                    for name in LAYER_UNITS})
        out["trace_overhead"] = (statistics.median(r["run_s"] for r in traced)
                                 / statistics.median(r["run_s"] for r in plain))
        return out


def run_workload(root: Path, workload: str, seed: int, seconds: float, traced: bool,
                 tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the report lines."""
    facts = machine_facts()
    session = Session(root, workload, seed, traced, tiny)
    session.run_for(seconds)
    facts["loadavg_1m_end"] = os.getloadavg()[0]

    failed = sum(r["failure"] is not None for r in session.runs)
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    values = session.per_layer() if traced else session.end_to_end()
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": len(session.runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }

    lines = [f"workload {workload}  seed {seed}  trace {int(traced)}  "
             f"runs {len(session.runs)}  failed {failed}",
             "machine " + json.dumps(facts, sort_keys=True)]
    for i, r in enumerate(session.runs):
        status = "ok" if r["failure"] is None else f"FAILED: {r['failure']}"
        timing = (f"setup_s {r['setup_s']:.4f}  run_s {r['run_s']:.4f}  "
                  f"peak_rss_mb {r['peak_rss_mb']:.1f}  " if "run_s" in r else "")
        digests = " ".join(f"{k}:{v[:16]}" for k, v in sorted(r.get("digests", {}).items()))
        kind = "warmup" if r["warm_up"] else "traced" if r["traced"] else "plain "
        lines.append(f"  run {i:3d} {kind} {timing}"
                     f"{digests}  {status}")
        if r["failure"] is not None:
            # Standard error gets why, with the end of the run's own output.
            log = (r["dir"] / "log.txt").read_text(encoding="utf-8", errors="replace")
            print(f"{workload} seed {seed} run {i} failed: {r['failure']}\n"
                  + "".join(log.splitlines(keepends=True)[-20:]), file=sys.stderr)
    lines.append(f"  error_rate {failed / len(session.runs):.4f} ratio")
    if not traced and workload in LOOPS and session.ok(False):
        for name, value in cycle_metrics(session.ok(False)).items():
            lines.append(f"  {name} {value:.6g} {CYCLE_UNITS[name]}")
    for name, metric in result["metrics"].items():
        lines.append(f"  {name} {metric['value']:.6g} {metric['unit']}")

    summary = {"workload": workload, "seed": seed, "trace": int(traced), "machine": facts,
               "config": session.doc, "result": result,
               "runs": [{k: (str(v) if k == "dir" else v) for k, v in r.items() if k != "layers"}
                        for r in session.runs]}
    (session.dir / "session.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopping the benchmark unwinds it, so the run in progress is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "oransim" / "cli.py").is_file():
        print(f"error: no oransim sources under {src}; run from an oransim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import oransim

    if Path(oransim.__file__).resolve().parent != (src / "oransim").resolve():
        print(f"error: imported oransim from {oransim.__file__}, not {src}", file=sys.stderr)
        return 2

    exit_code = 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result, lines = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
