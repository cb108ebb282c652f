"""One benchmark run: a fresh process that executes one workload once.

Usage: python3 bench/child.py WORKLOAD CONFIG OUTDIR LAUNCHED TRACE

LAUNCHED is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, ``import oransim`` and
config resolution. The run writes ``result.json`` (timings, peak memory,
control-cycle times and output digests) into OUTDIR and, when TRACE is 1,
its spans to ``spans.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from checks import loop_digests, series_digest
from spans import CycleClock, Tracer, layer_metrics
from workloads import LOOPS


def run(workload: str, config_path: Path, outdir: Path, traced: bool,
        launched: float | None = None) -> dict:
    """Execute ``workload`` once in this process and return its result record."""
    import oransim.cli
    import oransim.config
    import oransim.traffic

    outdir.mkdir(parents=True, exist_ok=True)
    clock = CycleClock()
    tracer = Tracer() if traced else None
    clock.install()
    if tracer is not None:
        tracer.install()
    try:
        cfg = oransim.config.load_config(config_path)
        start = time.monotonic()
        if workload in LOOPS:
            rc = oransim.cli.main(["run", "-c", str(config_path), "-o", str(outdir)])
            run_s = time.monotonic() - start
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            series = oransim.traffic.generate_synthetic(cfg.profile)
            payload = oransim.traffic.export_csv(series, cfg.schema)
            back = oransim.traffic.ingest_csv(payload, cfg.schema)
            run_s = time.monotonic() - start
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rc = 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.uninstall()

    result = {
        "rc": rc,
        "setup_s": None if launched is None else start - launched,
        "run_s": run_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "cycles": clock.cycles(),
    }
    if workload in LOOPS:
        if rc == 0:
            result["digests"] = loop_digests(outdir)
    else:
        (outdir / "dataset.csv").write_bytes(payload)
        result["digests"] = {"dataset.csv": hashlib.sha256(payload).hexdigest()}
        result["roundtrip_equal"] = back == series
        result["fleet_digest"] = series_digest(series)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
        with open(outdir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, counts, raised in tracer.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                     "counts": counts, "raised": raised}) + "\n")
    # Written whole and then renamed, so the benchmark never reads half a file.
    partial = outdir / "result.json.partial"
    partial.write_text(json.dumps(result), encoding="utf-8")
    os.replace(partial, outdir / "result.json")
    return result


if __name__ == "__main__":
    name, config, out, launched, trace = sys.argv[1:6]
    run(name, Path(config), Path(out), trace == "1", float(launched))
