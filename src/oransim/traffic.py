"""KPI traffic sources: seeded synthetic fleet generator and CSV interchange.

The synthetic generator stands in for a real operator dataset. Each cell's
PRB utilization follows a diurnal waveform with mild weekly modulation and
Gaussian noise; user-perceived IP throughput decreases linearly with
utilization. A configurable fraction of cells is given an elevated peak so
that they become congested (under the default rule) during peak hours.

Determinism contract: the generator uses numpy's PCG64 bit generator with a
per-cell ``SeedSequence([seed, enb, cell])`` substream, so the same profile
always yields bit-identical output and changing the fleet size does not
perturb existing cells' waveforms.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .kpi import CellId, KpiSeries

__all__ = [
    "SyntheticProfile",
    "DatasetSchema",
    "IngestError",
    "generate_synthetic",
    "export_csv",
    "ingest_csv",
    "THROUGHPUT_FLOOR_MBPS",
]

# Throughput never drops to exactly zero: fully loaded cells still move a trickle.
THROUGHPUT_FLOOR_MBPS = 0.05

# Normal (non-congested) cells peak at this fraction of the base-to-peak swing.
_NORMAL_PEAK_RATIO = 0.55
# Relative amplitude of the weekly modulation applied to the diurnal swing.
_WEEKLY_AMPLITUDE = 0.05


@dataclass(frozen=True)
class SyntheticProfile:
    """Parameters of the synthetic KPI fleet.

    ``diurnal_amplitude`` scales the day/night swing as a fraction of the
    base-to-peak range; 0 yields constant series at the base values.
    ``congested_cell_fraction`` of the fleet (the first cells in (enb, cell)
    order) swing all the way to ``peak_prb_util``; the rest stop at a
    moderate fraction of the range and stay clear of the congestion rule.
    """

    n_enb: int = 17
    cells_per_enb: int = 18
    n_days: int = 25
    diurnal_amplitude: float = 1.0
    base_prb_util: float = 20.0
    peak_prb_util: float = 95.0
    throughput_at_zero_load: float = 10.0
    noise_std: float = 0.02
    congested_cell_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_enb < 1 or self.cells_per_enb < 1:
            raise ValueError("fleet must have at least one eNB and one cell per eNB")
        if self.n_days < 2:
            raise ValueError("n_days must be >= 2 (training plus held-out region)")
        if not (0.0 <= self.base_prb_util <= self.peak_prb_util <= 100.0):
            raise ValueError(
                "require 0 <= base_prb_util <= peak_prb_util <= 100, got "
                f"base={self.base_prb_util}, peak={self.peak_prb_util}"
            )
        if not (0.0 <= self.diurnal_amplitude <= 1.0):
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if not (0.0 <= self.congested_cell_fraction <= 1.0):
            raise ValueError("congested_cell_fraction must be in [0, 1]")
        if self.throughput_at_zero_load <= 0:
            raise ValueError("throughput_at_zero_load must be > 0")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")

    @property
    def n_cells(self) -> int:
        return self.n_enb * self.cells_per_enb

    @property
    def n_hours(self) -> int:
        return self.n_days * 24

    def is_congested_cell(self, enb: int, cell: int) -> bool:
        flat = enb * self.cells_per_enb + cell
        return flat < round(self.congested_cell_fraction * self.n_cells)


@dataclass(frozen=True)
class DatasetSchema:
    """Column mapping and timestamp convention for dataset CSV files.

    ``timestamp_format`` is either "iso8601" (hour-precision stamps, written
    relative to ``epoch``) or "hours" (plain integer hour offsets). On
    ingest, offsets are taken relative to the earliest timestamp in the
    file. Datasets describe physical measurement cells, so there is no
    generation column; ingested cells are generation 0.
    """

    enb_col: str = "enb_id"
    cell_col: str = "cell_id"
    time_col: str = "timestamp"
    prb_col: str = "prb_util"
    thr_col: str = "ip_throughput"
    timestamp_format: str = "iso8601"
    epoch: str = "2000-01-01T00:00"

    def __post_init__(self):
        cols = [self.enb_col, self.cell_col, self.time_col, self.prb_col, self.thr_col]
        if len(set(cols)) != len(cols):
            raise ValueError(f"schema columns must be distinct, got {cols}")
        if self.timestamp_format not in ("iso8601", "hours"):
            raise ValueError(
                f"timestamp_format must be 'iso8601' or 'hours', got "
                f"{self.timestamp_format!r}"
            )
        if datetime.fromisoformat(self.epoch).tzinfo is not None:
            raise ValueError(f"epoch must carry no timezone, got {self.epoch!r}")

    @property
    def columns(self) -> list[str]:
        return [self.enb_col, self.cell_col, self.time_col, self.prb_col, self.thr_col]


class IngestError(ValueError):
    """CSV ingest failure, carrying the offending row number (1-based, incl. header)."""

    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")


def _cell_waveforms(profile: SyntheticProfile, enb: int, cell: int) -> tuple[np.ndarray, np.ndarray]:
    """(prb_util, ip_throughput) arrays of length n_hours for one cell."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([profile.seed, enb, cell])))
    t = np.arange(profile.n_hours, dtype=np.float64)

    base = profile.base_prb_util
    if profile.is_congested_cell(enb, cell):
        peak = profile.peak_prb_util
    else:
        peak = base + _NORMAL_PEAK_RATIO * (profile.peak_prb_util - base)
    swing = peak - base

    diurnal = 0.5 * (1.0 - np.cos(2.0 * np.pi * t / 24.0))
    weekly = 1.0 + _WEEKLY_AMPLITUDE * np.sin(2.0 * np.pi * t / 168.0)
    util = base + profile.diurnal_amplitude * swing * diurnal * weekly
    util = util + rng.normal(0.0, profile.noise_std * swing, size=profile.n_hours)
    util = np.clip(util, 0.0, 100.0)

    thr = profile.throughput_at_zero_load * (1.0 - util / 100.0)
    thr = thr * (1.0 + rng.normal(0.0, profile.noise_std, size=profile.n_hours))
    thr = np.maximum(THROUGHPUT_FLOOR_MBPS, thr)
    return util, thr


def generate_synthetic(profile: SyntheticProfile) -> list[KpiSeries]:
    """Generate one KpiSeries per cell, ordered by (enb, cell)."""
    series = []
    for enb in range(profile.n_enb):
        for cell in range(profile.cells_per_enb):
            util, thr = _cell_waveforms(profile, enb, cell)
            series.append(KpiSeries.from_arrays(CellId(enb, cell), 0, util, thr))
    return series


def _format_timestamp(hour: int, schema: DatasetSchema) -> str:
    if schema.timestamp_format == "hours":
        return str(hour)
    stamp = datetime.fromisoformat(schema.epoch) + timedelta(hours=hour)
    return stamp.strftime("%Y-%m-%dT%H:%M")


def _parse_timestamp(text: str, schema: DatasetSchema, row: int) -> float:
    """Timestamp cell -> hours since schema epoch (possibly fractional)."""
    if schema.timestamp_format == "hours":
        try:
            return float(int(text))
        except ValueError:
            raise IngestError(row, f"unparsable hour offset {text!r}") from None
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise IngestError(row, f"unparsable ISO-8601 timestamp {text!r}") from None
    if stamp.tzinfo is not None:
        raise IngestError(row, f"timezone-qualified timestamp {text!r}")
    delta = stamp - datetime.fromisoformat(schema.epoch)
    return delta.total_seconds() / 3600.0


def export_csv(series_list: list[KpiSeries], schema: DatasetSchema = DatasetSchema()) -> bytes:
    """Serialize series to CSV, bit-exact: ``ingest_csv(export_csv(x)) == x``.

    Float cells use Python's shortest round-trip repr.
    """
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema.columns)
    for series in sorted(series_list, key=lambda s: s.cell):
        for i, (prb, thr) in enumerate(series.to_array().tolist()):
            writer.writerow(
                [
                    series.cell.enb,
                    series.cell.cell,
                    _format_timestamp(series.start + i, schema),
                    repr(prb),
                    repr(thr),
                ]
            )
    return buf.getvalue().encode("utf-8")


def ingest_csv(source, schema: DatasetSchema = DatasetSchema()) -> list[KpiSeries]:
    """Parse a dataset CSV into per-cell series.

    ``source`` is bytes or a binary/text file object. Rows are grouped by
    (enb, cell), sorted by time, and converted to integer hour offsets from
    the earliest timestamp in the file. Any malformed row, out-of-range
    value, duplicate hour, or gap in a cell's hourly grid raises IngestError
    naming the row.
    """
    if isinstance(source, (bytes, bytearray)):
        text = bytes(source).decode("utf-8")
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, (bytes, bytearray)) else raw

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError(1, "empty file (missing header)") from None
    col_idx = {}
    for name in schema.columns:
        if name not in header:
            raise IngestError(1, f"missing column {name!r} in header {header}")
        col_idx[name] = header.index(name)

    rows: dict[tuple[int, int], list[tuple[float, float, float, int]]] = {}
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < len(header):
            raise IngestError(row_no, f"expected {len(header)} fields, got {len(row)}")
        try:
            enb = int(row[col_idx[schema.enb_col]])
            cell = int(row[col_idx[schema.cell_col]])
        except ValueError:
            raise IngestError(row_no, "unparsable eNB/cell index") from None
        hours = _parse_timestamp(row[col_idx[schema.time_col]], schema, row_no)
        try:
            prb = float(row[col_idx[schema.prb_col]])
            thr = float(row[col_idx[schema.thr_col]])
        except ValueError:
            raise IngestError(row_no, "unparsable KPI value") from None
        rows.setdefault((enb, cell), []).append((hours, prb, thr, row_no))

    if not rows:
        return []

    earliest = min(r[0] for cell_rows in rows.values() for r in cell_rows)
    out = []
    for (enb, cell) in sorted(rows):
        cell_rows = sorted(rows[(enb, cell)], key=lambda r: r[0])
        samples_prb, samples_thr = [], []
        offsets = []
        for hours, prb, thr, row_no in cell_rows:
            rel = hours - earliest
            offset = round(rel)
            if abs(rel - offset) > 1e-9:
                raise IngestError(row_no, f"timestamp not on the hourly grid ({rel}h)")
            if offsets and offset == offsets[-1]:
                raise IngestError(
                    row_no, f"duplicate sample for cell ({enb},{cell}) at hour {offset}"
                )
            if offsets and offset != offsets[-1] + 1:
                raise IngestError(
                    row_no,
                    f"gap in hourly grid for cell ({enb},{cell}): "
                    f"hour {offsets[-1]} followed by {offset}",
                )
            if not (0.0 <= prb <= 100.0):
                raise IngestError(row_no, f"prb_util out of range [0, 100]: {prb}")
            if not (np.isfinite(thr) and thr >= 0.0):
                raise IngestError(row_no, f"ip_throughput must be finite and >= 0: {thr}")
            offsets.append(offset)
            samples_prb.append(prb)
            samples_thr.append(thr)
        out.append(
            KpiSeries.from_arrays(CellId(enb, cell), offsets[0], samples_prb, samples_thr)
        )
    return out
