"""Print a sha256 for every file that oransim writes on the benchmark's loop configs.

Usage: python3 tools/output_digests.py [CHECKOUT [OTHER]]

CHECKOUT is the root of an oransim checkout (default: the one holding this
script). Its ``src`` is the program that runs, and ``bench/workloads.py``
gives the configs, which are only read. For each of the loop workloads at
the default and the confirming seed, ``oransim run`` writes its outputs.
On the loop-retrain config, ``oransim generate`` writes the dataset CSV,
``oransim train`` trains on it, ``oransim run`` runs on it through
``traffic.csv.path``, and ``oransim train`` trains on a copy of it whose
rows are shuffled by a fixed seed. So ingest runs on a file in order and
on one it must group and sort, and the shuffled copy's outputs equal the
in-order ones when it sorts the rows back into the same series. Commands
run in their workload's directory with relative paths, so no output holds
a temporary path. Each output file prints as one
``<sha256>  <workload>/<seed>/<command>/<file>`` line, so two checkouts
write the same bytes exactly when their listings are equal.

Given a second checkout OTHER, both run, and the script prints each
listing's sha256 (that of its text, as ``sha256sum`` reads it) and every
line that is in one listing only, marked ``-`` for CHECKOUT and ``+`` for
OTHER. It exits 1 if the listings differ.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path


def _oransim(checkout: Path, cwd: Path, *args: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    subprocess.run([sys.executable, "-m", "oransim", *args], env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)


def _listing(checkout: Path) -> list[str]:
    """Run the commands on ``checkout`` and list its output digests."""
    spec = importlib.util.spec_from_file_location("workloads", checkout / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = workloads.config
    lines = []
    with tempfile.TemporaryDirectory(prefix="oransim-digests-") as tmp:
        root = Path(tmp)
        for workload in workloads.LOOPS:
            for seed in (workloads.DEFAULT_SEED, workloads.CONFIRM_SEED):
                base = root / workload / str(seed)
                base.mkdir(parents=True)
                cfg = base / "config.json"
                cfg.write_text(json.dumps(config(workload, seed)), encoding="utf-8")
                _oransim(checkout, base, "run", "-c", "config.json", "-o", "run")
                if workload == "loop-retrain":
                    _oransim(checkout, base, "generate", "-c", "config.json", "-o", "generate")
                    dataset = Path("generate", "dataset.csv")
                    _oransim(checkout, base, "train", "-c", "config.json", "-d", str(dataset),
                             "-o", "train")
                    header, *rows = (base / dataset).read_bytes().splitlines(keepends=True)
                    random.Random(seed).shuffle(rows)
                    (base / "shuffled.csv").write_bytes(header + b"".join(rows))
                    _oransim(checkout, base, "train", "-c", "config.json", "-d", "shuffled.csv",
                             "-o", "train-shuffled")
                    # a path relative to the run's directory, so the config echo is the same
                    cfg.write_text(json.dumps({**config(workload, seed),
                                               "traffic": {"csv": {"path": str(dataset)}}}),
                                   encoding="utf-8")
                    _oransim(checkout, base, "run", "-c", "config.json", "-o", "run-csv")
                    (base / "shuffled.csv").unlink()
                cfg.unlink()
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(root).as_posix()}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    checkouts = [Path(a).resolve() for a in argv] or [Path(__file__).resolve().parents[1]]
    listings = [_listing(checkout) for checkout in checkouts]
    if len(listings) == 1:
        print("\n".join(listings[0]))
        return 0
    for checkout, listing in zip(checkouts, listings):
        text = "".join(line + "\n" for line in listing)
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  listing of {checkout}")
    a, b = listings
    for mark, lines, other in (("-", a, set(b)), ("+", b, set(a))):
        for line in lines:
            if line not in other:
                print(f"{mark} {line}")
    return int(a != b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
