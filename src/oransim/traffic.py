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
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import compress, islice
from operator import itemgetter

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

# Dataset CSV rows parsed per column-wise batch on ingest: bounds the rows held as
# Python strings at once, whatever the file size.
_INGEST_CHUNK_ROWS = 2048


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
    return stamp.isoformat(timespec="minutes")


def _parse_timestamp(text: str, schema: DatasetSchema, row: int) -> float:
    """Timestamp cell -> hours since schema epoch (possibly fractional)."""
    if schema.timestamp_format == "hours":
        try:
            return float(int(text))
        except ValueError:
            raise IngestError(row, f"unparsable hour offset {text!r}") from None
        except OverflowError:
            raise IngestError(row, f"hour offset out of range {text!r}") from None
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

    Float cells use Python's shortest round-trip repr. Each distinct hour's
    timestamp is formatted once. Data fields (ints, float reprs and stamps)
    never need quoting, so only the header goes through ``csv.writer``.
    """
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\n").writerow(schema.columns)
    stamps: dict[int, str] = {}
    for series in sorted(series_list, key=lambda s: s.cell):
        hours = range(series.start, series.start + len(series))
        for hour in sorted(set(hours).difference(stamps)):
            stamps[hour] = _format_timestamp(hour, schema)
        prb, thr = series.values.T.tolist()
        line = f"{series.cell.enb},{series.cell.cell},{{}},{{}},{{}}\n".format
        rows = map(line, map(stamps.__getitem__, hours), map(repr, prb), map(repr, thr))
        buf.write("".join(rows))
    return buf.getvalue().encode("utf-8")


def _decode(source) -> str:
    """CSV text of ``source``; undecodable bytes raise IngestError naming their row."""
    raw = source if isinstance(source, (bytes, bytearray)) else source.read()
    if not isinstance(raw, (bytes, bytearray)):
        return raw
    try:
        return bytes(raw).decode("utf-8")
    except UnicodeDecodeError as exc:
        reason = f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}"
        escaped = bytes(raw).decode("utf-8", "surrogateescape")
        try:
            for row_no, row in enumerate(csv.reader(io.StringIO(escaped)), start=1):
                # surrogateescape leaves each undecodable byte as U+DC80..U+DCFF
                if re.search("[\udc80-\udcff]", "".join(row)):
                    raise IngestError(row_no, reason) from None
        except csv.Error:
            pass
        raise IngestError(raw.count(b"\n", 0, exc.start) + 1, reason) from None


def _check_rows(chunk: list[list[str]], first_row: int, width: int, cols: list[int],
                schema: DatasetSchema) -> None:
    """Raise the IngestError of the first malformed row of ``chunk``, in file order."""
    enb_i, cell_i, time_i, prb_i, thr_i = cols
    for row_no, row in enumerate(chunk, start=first_row):
        if not row:
            continue
        if len(row) < width:
            raise IngestError(row_no, f"expected {width} fields, got {len(row)}")
        try:
            int(row[enb_i])
            int(row[cell_i])
        except ValueError:
            raise IngestError(row_no, "unparsable eNB/cell index") from None
        _parse_timestamp(row[time_i], schema, row_no)
        try:
            float(row[prb_i])
            float(row[thr_i])
        except ValueError:
            raise IngestError(row_no, "unparsable KPI value") from None


def _parse_chunk(chunk, first_row, width, cols, schema, cell_codes, stamp_hours):
    """Columns of one chunk of CSV rows: (cell codes, hours, (n, 2) KPIs, row numbers).

    ``cell_codes`` and ``stamp_hours`` map each distinct (enb, cell) and
    timestamp text seen so far to its code and its hours, so each distinct
    timestamp is parsed once per file. Returns None if any row is malformed.
    """
    lengths = np.fromiter(map(len, chunk), np.int64, len(chunk))
    filled = lengths > 0
    row_nos = first_row + np.flatnonzero(filled)
    if not filled.all():
        chunk = list(compress(chunk, filled))
    n = len(chunk)
    if n and lengths[filled].min() < width:
        return None
    enbs, cells, stamps, prbs, thrs = (list(map(itemgetter(i), chunk)) for i in cols)
    try:
        keys = list(zip(map(int, enbs), map(int, cells)))
        for key in set(keys).difference(cell_codes):
            cell_codes[key] = len(cell_codes)
        for text in set(stamps).difference(stamp_hours):
            stamp_hours[text] = _parse_timestamp(text, schema, 0)
        values = np.empty((n, 2))
        values[:, 0] = np.fromiter(map(float, prbs), np.float64, n)
        values[:, 1] = np.fromiter(map(float, thrs), np.float64, n)
    except ValueError:
        return None
    codes = np.fromiter(map(cell_codes.__getitem__, keys), np.int64, n)
    hours = np.fromiter(map(stamp_hours.__getitem__, stamps), np.float64, n)
    return codes, hours, values, row_nos


def ingest_csv(source, schema: DatasetSchema = DatasetSchema()) -> list[KpiSeries]:
    """Parse a dataset CSV into per-cell series.

    ``source`` is bytes or a binary/text file object. Rows are grouped by
    (enb, cell), sorted by time, and converted to integer hour offsets from
    the earliest timestamp in the file. Any malformed row, undecodable byte,
    out-of-range value, duplicate hour, or gap in a cell's hourly grid raises
    IngestError naming the row.

    Rows are parsed column-wise in chunks of ``_INGEST_CHUNK_ROWS``; a chunk
    holding a malformed row is rescanned row by row to name the first one.
    """
    reader = csv.reader(io.StringIO(_decode(source)))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError(1, "empty file (missing header)") from None
    for name in schema.columns:
        if name not in header:
            raise IngestError(1, f"missing column {name!r} in header {header}")
    width, cols = len(header), [header.index(name) for name in schema.columns]

    cell_codes: dict[tuple[int, int], int] = {}
    stamp_hours: dict[str, float] = {}
    parts = []
    next_row = 2
    while True:
        chunk: list[list[str]] = []
        try:
            chunk.extend(islice(reader, _INGEST_CHUNK_ROWS))
        except csv.Error:
            # rows before the one csv cannot read keep their own errors
            _check_rows(chunk, next_row, width, cols, schema)
            raise
        if not chunk:
            break
        part = _parse_chunk(chunk, next_row, width, cols, schema, cell_codes, stamp_hours)
        if part is None:
            _check_rows(chunk, next_row, width, cols, schema)
            raise AssertionError("chunk failed to parse but every row is well-formed")
        parts.append(part)
        next_row += len(chunk)
    if not cell_codes:
        return []
    return _series_from_columns(*(np.concatenate(c) for c in zip(*parts)), cell_codes)


def _series_from_columns(codes, hours, values, row_nos, cell_codes) -> list[KpiSeries]:
    """Validate the hourly grid and KPI bounds of every row, then cut per-cell series.

    One stable sort orders rows by (enb, cell) and then hours, with ties in
    file order, so the first violation found is the first one a row-by-row
    scan in that order would meet.
    """
    keys = sorted(cell_codes)
    rank = np.empty(len(keys), np.int64)
    rank[[cell_codes[key] for key in keys]] = np.arange(len(keys))
    cell_rank = rank[codes]
    order = np.lexsort((hours, cell_rank))
    cell_rank, values, row_nos = cell_rank[order], values[order], row_nos[order]
    bounds = np.append(np.flatnonzero(np.diff(cell_rank, prepend=-1)), len(order))
    prb, thr = values.T
    with np.errstate(over="ignore", invalid="ignore"):  # spans past the float range
        rel = hours[order] - hours.min()
        offset = np.rint(rel)
        step = np.diff(offset, prepend=np.nan)
        step[bounds[:-1]] = 1.0  # a cell's first row has no predecessor
        bad = (
            ~np.isfinite(rel)
            | (np.abs(rel - offset) > 1e-9)
            | (step != 1.0)
            | ~((prb >= 0.0) & (prb <= 100.0))
            | ~(np.isfinite(thr) & (thr >= 0.0))
        )
    first_bad = int(np.argmax(bad)) if bad.any() else len(rel)

    out = []
    for (enb, cell), lo, hi in zip(keys, bounds[:-1], bounds[1:]):
        if first_bad < hi:
            i = first_bad
            prev = None if i == lo else int(offset[i - 1])
            reason = _violation(enb, cell, float(rel[i]), prev, float(prb[i]), float(thr[i]))
            raise IngestError(int(row_nos[i]), reason)
        out.append(KpiSeries(CellId(enb, cell), int(offset[lo]), values[lo:hi]))
    return out


def _violation(enb, cell, rel, prev, prb, thr) -> str:
    """Reason for the first failing check of one row; ``prev`` is the cell's previous offset."""
    if not np.isfinite(rel):
        return f"hour offset out of range ({rel}h)"
    offset = round(rel)
    if abs(rel - offset) > 1e-9:
        return f"timestamp not on the hourly grid ({rel}h)"
    if prev is not None:
        if offset == prev:
            return f"duplicate sample for cell ({enb},{cell}) at hour {offset}"
        if offset != prev + 1:
            return f"gap in hourly grid for cell ({enb},{cell}): hour {prev} followed by {offset}"
    if not (0.0 <= prb <= 100.0):
        return f"prb_util out of range [0, 100]: {prb}"
    return f"ip_throughput must be finite and >= 0: {thr}"
