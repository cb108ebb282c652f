"""Print what one stacked training step costs at the benchmark loops' shapes.

Usage: python3 tools/step_probe.py [CHECKOUT ...]

Each CHECKOUT is the root of an oransim checkout (default: the one holding
this script); its ``src`` is the program that runs. Each checkout gets one
fresh process, with one BLAS thread as the benchmark's runs have, which
trains stacks through ``train_stack`` at two shapes: loop-retrain's (4
models, batch 16, 153-hour series: 7 steps an epoch, the last of 2
windows) and loop-serve's (8 models, batch 9, 42-hour series: 1 step an
epoch). Both use the default 2 x 12-unit LSTM at lookback 24 on fixed
synthetic series. A step is one stacked forward, BPTT and Adam update.

For each shape it prints, per step of a 30-epoch ``train_stack`` call:
the wall time of the best of 5 calls; the minor page faults and the system
time over those 5 calls, from ``getrusage``; and the tracemalloc peak of
one call, which counts what the step holds and what it allocates. Run on
two checkouts, the lines compare their steps; a call's set-up (windows,
initialization) is spread over its steps.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

# name, models, batch_size, hours
SHAPES = [("loop-retrain", 4, 16, 153), ("loop-serve", 8, 16, 42)]
EPOCHS, CALLS = 30, 5

# Runs in the fresh process: argv is the JSON of SHAPES, EPOCHS and CALLS.
_CHILD = """
import json, resource, sys, time, tracemalloc
import numpy as np
from oransim.forecast import LstmConfig, TrainingConfig, train_split, train_stack
from oransim.kpi import CellId, KpiSeries

shapes, epochs, calls = json.loads(sys.argv[1])
out = []
for name, width, batch_size, hours in shapes:
    rng = np.random.default_rng(20200518)
    day = np.sin(np.arange(hours) * 2 * np.pi / 24)
    series = [KpiSeries(CellId(0, m), 0, np.column_stack([
        50 + 30 * day + rng.uniform(0, 10, hours), 5 + 2 * day + rng.uniform(0, 1, hours)]))
        for m in range(width)]
    cfg = TrainingConfig(batch_size=batch_size, epochs=epochs, lookback=24)
    cfgs = [cfg.for_cell(0, m) for m in range(width)]
    n_train = train_split(hours, cfg) - cfg.lookback
    steps = epochs * -(-n_train // batch_size)
    train_stack(series, LstmConfig(), cfgs)  # numpy's first-call set-up
    before, walls = resource.getrusage(resource.RUSAGE_SELF), []
    for _ in range(calls):
        t0 = time.perf_counter()
        train_stack(series, LstmConfig(), cfgs)
        walls.append(time.perf_counter() - t0)
    after = resource.getrusage(resource.RUSAGE_SELF)
    tracemalloc.start()
    train_stack(series, LstmConfig(), cfgs)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out.append({"name": name, "width": width, "batch": min(batch_size, n_train), "hours": hours,
                "ms": 1e3 * min(walls) / steps,
                "minflt": (after.ru_minflt - before.ru_minflt) / (calls * steps),
                "sys_ms": 1e3 * (after.ru_stime - before.ru_stime) / (calls * steps),
                "traced": peak})
print(json.dumps(out))
"""


def main(argv: list[str]) -> int:
    checkouts = [Path(a).resolve() for a in argv] or [Path(__file__).resolve().parents[1]]
    for checkout in checkouts:
        if not (checkout / "src" / "oransim").is_dir():
            print(f"usage: step_probe.py [CHECKOUT ...]: {checkout} has no src/oransim",
                  file=sys.stderr)
            return 2
    print(f"one stacked step (forward, BPTT, Adam), per step of a {EPOCHS}-epoch train_stack call")
    print(f"{'checkout':<28} {'shape':<34} {'best ms':>8} {'minflt':>8} {'sys ms':>7} "
          f"{'traced peak':>12}")
    for checkout in checkouts:
        env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps([SHAPES, EPOCHS, CALLS])],
                              env=env, check=True, capture_output=True, text=True)
        for row in json.loads(done.stdout):
            shape = f"{row['name']}: {row['width']} x {row['batch']}, {row['hours']} h"
            print(f"{str(checkout)[-28:]:<28} {shape:<34} {row['ms']:>8.3f} {row['minflt']:>8.1f} "
                  f"{row['sys_ms']:>7.3f} {row['traced']:>12,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
