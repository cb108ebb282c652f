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
from bisect import bisect_right
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
# Python strings at once, whatever the file size. A batch's row objects set the traced
# peak of an in-order ingest; at 512 it is about 1 MB under that of 2,048 on the
# reference fleet. Below 512 the grid check's one bool per row would set it instead.
_INGEST_CHUNK_ROWS = 512
# ASCII characters that ``float`` skips around or between digits; KPI fields may hold none.
_FLOAT_SKIPS = "_ \t\n\r\v\f"


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
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"schema columns must be distinct, got {self.columns}")
        if self.timestamp_format not in ("iso8601", "hours"):
            raise ValueError(
                f"timestamp_format must be 'iso8601' or 'hours', got "
                f"{self.timestamp_format!r}"
            )
        try:
            naive = datetime.fromisoformat(self.epoch).tzinfo is None
        except ValueError:
            naive = False
        if not naive:
            raise ValueError(f"epoch must be ISO-8601 with no timezone, got {self.epoch!r}")

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


def _parse_timestamp(text: str, schema: DatasetSchema) -> float:
    """Timestamp text -> hours since schema epoch (possibly fractional).

    An hour offset must match ``-?[0-9]+``; ``fromisoformat`` already rejects
    padding and non-ASCII digits. A ValueError's message is the reason.
    """
    if schema.timestamp_format == "hours":
        digits = text[1:] if text[:1] == "-" else text
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"unparsable hour offset {text!r}")
        try:
            return float(int(text))
        except (OverflowError, ValueError):  # past the float range, or int()'s digit limit
            raise ValueError(f"hour offset out of range {text!r}") from None
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"unparsable ISO-8601 timestamp {text!r}") from None
    if stamp.tzinfo is not None:
        raise ValueError(f"timezone-qualified timestamp {text!r}")
    delta = stamp - datetime.fromisoformat(schema.epoch)
    return delta.total_seconds() / 3600.0


def export_csv(series_list: list[KpiSeries], schema: DatasetSchema = DatasetSchema()) -> bytes:
    """Serialize series to CSV, bit-exact: ``ingest_csv(export_csv(x)) == x``.

    Float cells use Python's shortest round-trip repr. Each distinct hour's
    timestamp is formatted once. Data fields (ints, float reprs and stamps)
    never need quoting, so only the header goes through ``csv.writer``. Each
    series' rows are joined and encoded in one pass into a single byte
    buffer, whose bytes are returned: the whole file never exists as text.
    """
    header = io.StringIO(newline="")
    csv.writer(header, lineterminator="\n").writerow(schema.columns)
    out = io.BytesIO()
    out.write(header.getvalue().encode("utf-8"))
    stamps: dict[int, str] = {}
    for series in sorted(series_list, key=lambda s: s.cell):
        hours = range(series.start, series.start + len(series))
        for hour in sorted(set(hours).difference(stamps)):
            stamps[hour] = _format_timestamp(hour, schema)
        prb, thr = series.values.T.tolist()
        line = f"{series.cell.enb},{series.cell.cell},{{}},{{}},{{}}\n".format
        rows = map(line, map(stamps.__getitem__, hours), map(repr, prb), map(repr, thr))
        out.write("".join(rows).encode("utf-8"))
    return out.getvalue()


def _lines(raw) -> io.TextIOWrapper:
    """Lazy line source over UTF-8 bytes: only ``\\n`` ends a line, as in ``io.StringIO``."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="\n")


def _check_utf8(raw) -> None:
    """Raise IngestError naming the CSV record that holds the first byte of ``raw`` not in UTF-8."""
    try:
        raw.decode("utf-8")
        return
    except UnicodeDecodeError as exc:
        bad = exc.start
    # the byte's record is the last one of the text before it plus one character
    try:
        row = sum(1 for _ in csv.reader(_lines(raw[:bad] + b"x")))
    except csv.Error:
        row = raw.count(b"\n", 0, bad) + 1
    raise IngestError(row, f"invalid UTF-8 byte 0x{raw[bad]:02x}") from None


def _parse_chunk(chunk, width, cols, schema, cell_codes, stamp_ids, stamp_hours):
    """Columns of one chunk of CSV rows: (cell codes, stamp ids, prb_util, ip_throughput, blanks).

    Blank records are skipped; for each, the last array holds how many of the
    chunk's other rows precede it. ``cell_codes`` maps each distinct (enb,
    cell) seen so far to its code, and ``stamp_ids`` each distinct timestamp
    text to its index in ``stamp_hours``, which holds its hours: each distinct
    text is parsed once per file, and a row keeps only two int32 codes. Fields
    must match one ASCII grammar: indices ``[0-9]+``, KPIs Python's float
    literal without padding or ``_``, stamps as ``_parse_timestamp`` reads
    them. A malformed chunk returns the reason of its first failing check;
    checks run in the order of a row's fields, so for a one-row chunk that is
    the row's own first fault.
    """
    lengths = np.fromiter(map(len, chunk), np.int64, len(chunk))
    filled = lengths > 0
    blanks = np.cumsum(filled)[~filled]
    if len(blanks):
        chunk = list(compress(chunk, filled))
    n = len(chunk)
    if n and lengths[filled].min() < width:
        return f"expected {width} fields, got {lengths[filled].min()}"
    enbs, cells, stamps, prbs, thrs = (list(map(itemgetter(i), chunk)) for i in cols)
    indices = "".join(enbs + cells)
    if indices and not (indices.isascii() and indices.isdigit()):
        return "unparsable eNB/cell index"
    try:
        keys = list(zip(map(int, enbs), map(int, cells)))
    except ValueError:  # an empty index, or more digits than int() converts
        return "unparsable eNB/cell index"
    for key in set(keys).difference(cell_codes):
        cell_codes[key] = len(cell_codes)
    try:
        for text in set(stamps).difference(stamp_ids):
            stamp_hours.append(_parse_timestamp(text, schema))
            stamp_ids[text] = len(stamp_ids)
    except ValueError as exc:
        return str(exc)
    kpis = "".join(prbs + thrs)
    if not kpis.isascii() or any(c in kpis for c in _FLOAT_SKIPS):
        return "unparsable KPI value"
    try:
        prb = np.fromiter(map(float, prbs), np.float64, n)
        thr = np.fromiter(map(float, thrs), np.float64, n)
    except ValueError:
        return "unparsable KPI value"
    codes = np.fromiter(map(cell_codes.__getitem__, keys), np.int32, n)
    ids = np.fromiter(map(stamp_ids.__getitem__, stamps), np.int32, n)
    return codes, ids, prb, thr, blanks


def ingest_csv(source, schema: DatasetSchema = DatasetSchema()) -> list[KpiSeries]:
    """Parse a dataset CSV into per-cell series.

    ``source`` is bytes, a bytearray or a binary file object; any other
    source, a text file among them, is a TypeError. Rows are grouped by
    (enb, cell), sorted by time, and converted to integer hour offsets from
    the earliest timestamp in the file. Any malformed row or CSV record,
    undecodable byte, out-of-range value, duplicate hour, or gap in a cell's
    hourly grid raises IngestError naming the row.

    ``csv.reader`` reads lines lazily from the bytes through a strict UTF-8
    decoder, so the bytes are decoded once and no decoded copy of the file is
    held. Only when ingest fails are they checked for a bad byte, which is
    then the error even if a malformed row came first. Rows are parsed
    column-wise in chunks of ``_INGEST_CHUNK_ROWS``, and each chunk writes its
    columns into place in one set of columns sized for one row per ``\\n``
    plus one: an int32 cell code, an int32 index into the file's table of
    distinct timestamp texts, and the two KPIs. A chunk holding a malformed
    row is parsed again one row at a time to name the first one.

    The series are read-only. If each cell's rows form one run of the file
    in hour order, as ``export_csv`` writes them, nothing is sorted and every
    series views one KPI array; a cell whose rows had to be grouped or sorted
    gets its own copy of them.
    """
    # a text file is not read, so its decoder cannot fail before the type check
    raw = source if isinstance(source, (bytes, bytearray, str, io.TextIOBase)) else source.read()
    if not isinstance(raw, (bytes, bytearray)):
        raise TypeError(f"ingest_csv reads bytes or a binary file, got {type(raw).__name__}")
    max_records = raw.count(b"\n") + 1  # only "\n" ends a record
    try:
        reader = csv.reader(_lines(raw))
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(1, "empty file (missing header)") from None
        except csv.Error as exc:
            raise IngestError(1, str(exc)) from None
        for name in schema.columns:
            if name not in header:
                raise IngestError(1, f"missing column {name!r} in header {header}")
        width, cols = len(header), [header.index(name) for name in schema.columns]

        cell_codes: dict[tuple[int, int], int] = {}
        stamp_ids: dict[str, int] = {}
        stamp_hours: list[float] = []  # by stamp id
        args = (width, cols, schema, cell_codes, stamp_ids, stamp_hours)
        codes = np.empty(max_records, np.int32)
        ids = np.empty(max_records, np.int32)
        values = np.empty((max_records, 2))  # prb_util, ip_throughput
        into = (codes, ids, *values.T)
        blanks: list[int] = []  # for each blank record, the rows before it in `into`
        n_rows = 0
        next_row = 2
        while True:
            chunk: list[list[str]] = []
            unread = None
            try:
                chunk.extend(islice(reader, _INGEST_CHUNK_ROWS))
            except csv.Error as exc:
                unread = IngestError(next_row + len(chunk), str(exc))
            if not chunk and unread is None:
                break
            part = _parse_chunk(chunk, *args)
            if isinstance(part, str) or unread is not None:
                # a chunk fails exactly when one of its rows does; rows before a
                # record csv cannot read keep their own errors
                for row_no, row in enumerate(chunk, start=next_row):
                    if isinstance(reason := _parse_chunk([row], *args), str):
                        raise IngestError(row_no, reason)
                raise unread
            for column, array in zip(into, part):
                column[n_rows:n_rows + len(array)] = array
            blanks.extend((n_rows + part[-1]).tolist())
            n_rows += len(part[0])
            next_row += len(chunk)
        values.flags.writeable = False  # so each series keeps a view of its rows
        columns = [codes[:n_rows], ids[:n_rows], values[:n_rows]]
        del codes, ids, values, into  # the grid check owns the columns from here
        return _series_from_columns(columns, blanks, cell_codes, stamp_hours)
    except (IngestError, UnicodeDecodeError):
        _check_utf8(raw)
        raise


def _series_from_columns(columns, blanks, cell_codes, stamp_hours) -> list[KpiSeries]:
    """Validate the hourly grid and KPI bounds of every row, then cut per-cell series.

    ``columns`` is a list of the int32 cell codes and stamp ids and the
    read-only KPIs of the file's non-blank rows, in file order. This takes
    the arrays over and empties the list, so the codes are freed once the
    rows are grouped: in place if each cell's rows form one run of the file,
    else by one stable sort of the codes. ``stamp_hours`` holds each stamp
    id's hours; each distinct hour's offset from the earliest, its distance
    from the grid and whether it is finite are computed once, on a table in
    which equal hours share a rank. Cells are checked one at a time in (enb,
    cell) order, each one's rows in hour order, ties in file order; a cell's
    rows are sorted only if they are not in that order already. So the first
    violation found is the one a row-by-row scan in that order would meet,
    and its row number comes from its place in the file and the ``blanks``
    before it. A cell whose rows stay in place gets a read-only view of the
    KPI array, any other a read-only copy of its rows.
    """
    codes, ids, values = columns
    columns.clear()
    new_run = codes[1:] != codes[:-1]
    if np.count_nonzero(new_run) == len(cell_codes) - 1:  # each cell's rows are one run
        edges = [0, *(np.flatnonzero(new_run) + 1).tolist(), len(codes)]
        groups = {int(codes[lo]): slice(lo, hi) for lo, hi in zip(edges, edges[1:])}
    else:  # by code, each cell's rows in file order
        ends = np.cumsum(np.bincount(codes))[:-1]
        groups = dict(enumerate(np.split(np.argsort(codes, kind="stable"), ends)))
    del codes, new_run
    hours, stamp_rank = np.unique(stamp_hours, return_inverse=True)
    series = []
    with np.errstate(over="ignore", invalid="ignore"):  # spans past the float range
        rel = hours - hours[:1]  # by hour rank, as are the three below; empty in an empty file
        offset = np.rint(rel)
        out_of_range = ~np.isfinite(rel)
        off_grid = np.abs(rel - offset) > 1e-9
        for key in sorted(cell_codes):
            rows = groups[cell_codes[key]]
            rank = stamp_rank[ids[rows]]
            if (rank[1:] < rank[:-1]).any():  # sort the cell's rows by hour, ties in file order
                by_hour = np.argsort(rank, kind="stable")
                rank = rank[by_hour]
                rows = by_hour + rows.start if isinstance(rows, slice) else rows[by_hour]
            kpis = values[rows]
            prb, thr = kpis.T
            hour = offset[rank]
            step = np.ediff1d(hour, to_begin=1.0)  # from the row before; the first row has none
            checks = (  # (rows failing it, reason), in the order a row-by-row scan checks a row
                (out_of_range[rank], "hour offset out of range ({rel}h)"),
                (off_grid[rank], "timestamp not on the hourly grid ({rel}h)"),
                (step == 0.0, "duplicate sample for cell ({enb},{cell}) at hour {offset:.0f}"),
                (step != 1.0, "gap in hourly grid for cell ({enb},{cell}): "
                              "hour {prev:.0f} followed by {offset:.0f}"),
                (~((prb >= 0.0) & (prb <= 100.0)), "prb_util out of range [0, 100]: {prb}"),
                (~(np.isfinite(thr) & (thr >= 0.0)), "ip_throughput must be finite and >= 0: {thr}"),
            )
            failed = np.array([bad for bad, _ in checks])
            i, check = divmod(int(failed.T.argmax()), len(checks))  # first failing row, its check
            if failed[check, i]:
                at = rows.start + i if isinstance(rows, slice) else int(rows[i])
                raise IngestError(at + 2 + bisect_right(blanks, at), checks[check][1].format(
                    enb=key[0], cell=key[1], rel=float(rel[rank[i]]), offset=hour[i],
                    prev=hour[i - 1], prb=float(prb[i]), thr=float(thr[i]),
                ))
            kpis.flags.writeable = False  # so the series keeps a copy without copying it again
            series.append(KpiSeries(CellId(*key), int(hour[0]), kpis))
    return series
