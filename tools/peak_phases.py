"""Print where in a workload's run its peak memory is reached.

Usage: python3 tools/peak_phases.py [CHECKOUT] WORKLOAD [SEED]

CHECKOUT is the root of an oransim checkout (default: the one holding this
script). Its ``src`` is the program that runs, and ``bench/workloads.py``
gives WORKLOAD's config at SEED (default: the benchmark's default seed),
which is only read. One fresh process runs the workload once, with one BLAS
thread as the benchmark's runs have, and reads its ``ru_maxrss``. A loop
workload (``oransim run``) is read as each control cycle starts (at
``DataCollector.collect``) and as each training round ends. Each cycle
prints as one line, except that consecutive cycles that train nothing and
read alike share one. ``dataset-io`` is read after each of its three steps,
generate, export and ingest, which hold what the benchmark's run holds. The
last line is the peak of the whole run. Run on two checkouts, the listings
show in which phase a change in the peak arises; repeated runs of one
checkout show how far a phase's reading moves with nothing changed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Runs in the fresh process: argv is CONFIG OUTDIR READINGS.
_LOOP_CHILD = """
import json, resource, sys
import oransim.cli
from oransim.ric.hosts import DataCollector, NonRtRic

readings = []  # (phase, hour or None, ru_maxrss KiB)
collect, train = DataCollector.collect, NonRtRic.train_and_update


def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def on_collect(self, network, *args, **kwargs):
    readings.append(("collect", network.hour, maxrss()))
    return collect(self, network, *args, **kwargs)


def on_train(self, *args, **kwargs):
    failures = train(self, *args, **kwargs)
    readings.append(("train", None, maxrss()))
    return failures


DataCollector.collect, NonRtRic.train_and_update = on_collect, on_train
rc = oransim.cli.main(["run", "-c", sys.argv[1], "-o", sys.argv[2]])
readings.append(("end", None, maxrss()))
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump({"rc": rc, "readings": readings}, fh)
"""

# The dataset-io run of ``bench/child.py``, read after each step; argv as above.
_DATASET_CHILD = """
import json, resource, sys
import oransim.config
from oransim.traffic import export_csv, generate_synthetic, ingest_csv


def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


cfg = oransim.config.load_config(sys.argv[1])
series = generate_synthetic(cfg.profile)
readings = [("generate", maxrss())]
payload = export_csv(series, cfg.schema)
readings.append(("export", maxrss()))
back = ingest_csv(payload, cfg.schema)
readings.append(("ingest", maxrss()))
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump({"rc": 0 if back == series else 1, "readings": readings}, fh)
"""


def _mib(kib: int) -> str:
    return f"{kib / 1024:.2f}"


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1]
    if argv and Path(argv[0]).is_dir():
        checkout, argv = Path(argv[0]).resolve(), argv[1:]
    else:
        checkout = default
    sys.path.insert(0, str(checkout / "bench"))
    from workloads import DEFAULT_SEED, LOOPS, WORKLOADS, config

    if not 1 <= len(argv) <= 2 or argv[0] not in WORKLOADS:
        print(f"usage: peak_phases.py [CHECKOUT] {{{','.join(WORKLOADS)}}} [SEED]",
              file=sys.stderr)
        return 2
    workload = argv[0]
    seed = int(argv[1]) if len(argv) == 2 else DEFAULT_SEED

    with tempfile.TemporaryDirectory(prefix="oransim-peaks-") as tmp:
        root = Path(tmp)
        cfg, readings = root / "config.json", root / "readings.json"
        cfg.write_text(json.dumps(config(workload, seed)), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        child = _LOOP_CHILD if workload in LOOPS else _DATASET_CHILD
        subprocess.run([sys.executable, "-c", child, str(cfg), str(root / "run"),
                        str(readings)], env=env, check=True, stdout=subprocess.DEVNULL)
        run = json.loads(readings.read_text(encoding="utf-8"))
    if run["rc"] != 0:
        print(f"oransim run exited {run['rc']}" if workload in LOOPS
              else "the ingested series differ from the generated ones", file=sys.stderr)
        return 1
    if workload not in LOOPS:
        print(f"{workload} seed {seed}: ru_maxrss in MiB")
        print("step      after")
        for phase, kib in run["readings"]:
            print(f"{phase:<8}  {_mib(kib):>5}")
        print(f"peak  {_mib(kib)}")  # ru_maxrss never falls, so the last reading is the peak
        return 0

    cycles: list[list] = []  # [hour, MiB at collect, MiB after training or "-"]
    for phase, hour, kib in run["readings"]:
        if phase == "collect":
            cycles.append([hour, _mib(kib), "-"])
        elif phase == "train":
            cycles[-1][2] = _mib(kib)
        else:
            peak = kib
    groups: list[list] = []  # [first cycle, last cycle, first hour, last hour, MiB, MiB]
    for cycle, (hour, at_collect, after_train) in enumerate(cycles):
        if after_train == "-" and groups and groups[-1][4:] == [at_collect, "-"]:
            groups[-1][1], groups[-1][3] = cycle, hour
        else:
            groups.append([cycle, cycle, hour, hour, at_collect, after_train])

    def span(first, last):
        return str(first) if first == last else f"{first}-{last}"

    print(f"{workload} seed {seed}: ru_maxrss in MiB")
    print("cycles  hours    at collect  after training")
    for first, last, lo, hi, at_collect, after_train in groups:
        print(f"{span(first, last):<6}  {span(lo, hi):<7}  {at_collect:>10}  {after_train:>14}")
    print(f"peak  {_mib(peak)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
