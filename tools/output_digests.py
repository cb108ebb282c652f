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

The first line names the numeric platform the commands ran on, since the
bytes repeat only for one numpy build, BLAS library and BLAS kernel:
``# platform: numpy <version>, <BLAS name> <version>, <runtime config>``.
The name and version are those numpy was built with; the runtime config is
the string that the OpenBLAS numpy loaded reports, which names the kernel it
picked, or ``unknown`` where it cannot be read.

Given a second checkout OTHER, the script first names the platform each
checkout runs on; if the two lines differ, it prints both and exits 2
without running either. Otherwise both run, and the script prints each
listing's sha256 (that of its digest lines, as ``sha256sum`` reads them)
and every line that is in one listing only, marked ``-`` for CHECKOUT and
``+`` for OTHER. It exits 1 if the listings differ.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def blas_runtime_config() -> str:
    """The configuration string of the OpenBLAS this process's numpy loaded, or "unknown"."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return "unknown"
    paths = {fields[5] for fields in (line.split(None, 5) for line in maps.splitlines())
             if len(fields) == 6 and "openblas" in Path(fields[5]).name}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)  # already mapped, so this is numpy's own copy
        for name in ("scipy_openblas_get_config64_", "openblas_get_config"):
            get_config = getattr(lib, name, None)
            if get_config is not None:
                get_config.restype = ctypes.c_char_p
                return " ".join(get_config().decode().split())
    return "unknown"


def platform_line() -> str:
    """This process's numpy version, the BLAS numpy was built with, and its runtime config."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# platform: numpy {np.__version__}, {blas['name']} {blas['version']}, "
            f"{blas_runtime_config()}")


def _env(checkout: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def _platform(checkout: Path) -> str:
    """``platform_line`` in the environment that runs ``checkout``."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "import output_digests; print(output_digests.platform_line())")
    return subprocess.run([sys.executable, "-c", code], env=_env(checkout), check=True,
                          capture_output=True, text=True).stdout.strip()


def _oransim(checkout: Path, cwd: Path, *args: str) -> None:
    subprocess.run([sys.executable, "-m", "oransim", *args], env=_env(checkout), cwd=cwd,
                   check=True, stdout=subprocess.DEVNULL)


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
    platforms = [_platform(checkout) for checkout in checkouts]
    if len(set(platforms)) > 1:
        for checkout, platform in zip(checkouts, platforms):
            print(f"{platform}  ({checkout})")
        return 2
    print(platforms[0])
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
