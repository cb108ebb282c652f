"""Output checks of benchmark runs.

A run is one fresh process executing one workload into its own directory.
Each loop run must leave an event log that replays cleanly, a summary in
which the loop did not make congestion worse (and, on loop-retrain, split
at least one cell), and output files whose digests equal those of every
other run of the session. Each dataset-io run must round-trip the CSV
exactly and write the same CSV bytes as every other run.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

LOOP_DIGEST_FILES = ("events.jsonl", "summary.json", "e2_requests.jsonl")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def series_digest(series_list) -> str:
    """Digest of cell ids and sample values, to compare a fleet with its CSV round trip."""
    h = hashlib.sha256()
    for series in series_list:
        h.update(repr(tuple(series.cell.to_json()) + (series.start,)).encode())
        h.update(series.to_array().tobytes())
    return h.hexdigest()


def loop_digests(outdir: Path) -> dict[str, str]:
    return {name: sha256_file(outdir / name) for name in LOOP_DIGEST_FILES}


def check_loop_run(outdir: Path, result: dict, workload: str) -> str | None:
    """Failure reason of one loop run, or None if its outputs pass.

    The files on disk must still have the digests the run reported.
    """
    from oransim.ric import validate_jsonl

    check = validate_jsonl((outdir / "events.jsonl").read_text(encoding="utf-8"))
    if not check.ok:
        return f"events.jsonl fails validation: {check.violation}"
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    if summary["congested_hours_after"] > summary["congested_hours_baseline"]:
        return (f"congested hours rose: {summary['congested_hours_baseline']} -> "
                f"{summary['congested_hours_after']}")
    if workload == "loop-retrain" and summary["splits_issued"] < 1:
        return "loop-retrain issued no split"
    if loop_digests(outdir) != result["digests"]:
        return "output files differ from what the run wrote"
    return None


def check_dataset_run(outdir: Path, result: dict, deep_schema=None) -> str | None:
    """Failure reason of one dataset-io run, or None if its outputs pass.

    The run reports the digest of the CSV bytes it exported and whether
    ``ingest_csv(export_csv(x)) == x`` held in memory. The file on disk must
    still have that digest. Given the dataset schema, ``deep_schema`` also
    ingests the file again and compares it with the generated fleet's digest.
    """
    if not result["roundtrip_equal"]:
        return "ingest_csv(export_csv(x)) != x"
    csv_path = outdir / "dataset.csv"
    if sha256_file(csv_path) != result["digests"]["dataset.csv"]:
        return "dataset.csv differs from the bytes the run exported"
    if deep_schema is not None:
        from oransim.traffic import IngestError, ingest_csv

        try:
            back = ingest_csv(csv_path.read_bytes(), deep_schema)
        except IngestError as exc:
            return f"dataset.csv does not ingest: {exc}"
        if series_digest(back) != result["fleet_digest"]:
            return "dataset.csv does not ingest back to the generated fleet"
    return None


def mismatched_digests(digests: list[dict[str, str]]) -> list[bool]:
    """Which runs' output digests differ from the session's most common set."""
    keys = [json.dumps(d, sort_keys=True) for d in digests]
    if not keys:
        return []
    reference, _ = Counter(keys).most_common(1)[0]
    return [k != reference for k in keys]
