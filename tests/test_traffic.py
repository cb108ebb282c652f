"""Tests for the synthetic traffic generator and CSV interchange."""

import csv
import io
import re
import tracemalloc
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest

from oransim import traffic
from oransim.kpi import CellId, CongestionRule, KpiSeries, congested_hours
from oransim.traffic import (
    THROUGHPUT_FLOOR_MBPS,
    DatasetSchema,
    IngestError,
    SyntheticProfile,
    export_csv,
    generate_synthetic,
    ingest_csv,
)

SMALL = SyntheticProfile(n_enb=2, cells_per_enb=3, n_days=3, seed=7)


# -- the seed's per-row CSV code, kept as the reference for the column-wise path; its only
# change is the field grammar below, checked before each int or float conversion

INDEX = re.compile(r"[0-9]+")
HOURS = re.compile(r"-?[0-9]+")
KPI = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)",
                 re.IGNORECASE | re.ASCII)


def grammar(pattern, text):
    """``text`` if it matches ``pattern`` in full, else ValueError."""
    if not pattern.fullmatch(text):
        raise ValueError(f"{text!r} does not match {pattern.pattern}")
    return text


def seed_format_timestamp(hour, schema):
    if schema.timestamp_format == "hours":
        return str(hour)
    stamp = datetime.fromisoformat(schema.epoch) + timedelta(hours=hour)
    return stamp.strftime("%Y-%m-%dT%H:%M")


def seed_parse_timestamp(text, schema, row):
    if schema.timestamp_format == "hours":
        try:
            return float(int(grammar(HOURS, text)))
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


def seed_export_csv(series_list, schema=DatasetSchema()):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema.columns)
    for series in sorted(series_list, key=lambda s: s.cell):
        for i, (prb, thr) in enumerate(series.to_array().tolist()):
            writer.writerow(
                [
                    series.cell.enb,
                    series.cell.cell,
                    seed_format_timestamp(series.start + i, schema),
                    repr(prb),
                    repr(thr),
                ]
            )
    return buf.getvalue().encode("utf-8")


def seed_ingest_csv(source, schema=DatasetSchema()):
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

    rows = {}
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < len(header):
            raise IngestError(row_no, f"expected {len(header)} fields, got {len(row)}")
        try:
            enb = int(grammar(INDEX, row[col_idx[schema.enb_col]]))
            cell = int(grammar(INDEX, row[col_idx[schema.cell_col]]))
        except ValueError:
            raise IngestError(row_no, "unparsable eNB/cell index") from None
        hours = seed_parse_timestamp(row[col_idx[schema.time_col]], schema, row_no)
        try:
            prb = float(grammar(KPI, row[col_idx[schema.prb_col]]))
            thr = float(grammar(KPI, row[col_idx[schema.thr_col]]))
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


def set_field(text, row, col, value):
    """``text`` with field ``col`` of CSV line ``row`` (1-based, header included) replaced."""
    lines = text.split("\n")
    fields = lines[row - 1].split(",")
    fields[col] = value
    lines[row - 1] = ",".join(fields)
    return "\n".join(lines)


def unreadable_record(payload):
    """The number (1-based, header included) of the first record csv cannot read in ``payload``."""
    records = csv.reader(io.StringIO(payload.decode("utf-8")))
    count = 0
    try:
        for _ in records:
            count += 1
    except csv.Error:
        return count + 1
    raise AssertionError("every record is readable")


def byte_record(payload, at):
    """The number (1-based, header included) of the CSV record holding byte ``at`` of ``payload``.

    It is one past the records of the text before the byte, or the byte's
    line if csv cannot read that text.
    """
    text = payload[:at].decode("utf-8") + "x"
    try:
        return sum(1 for _ in csv.reader(io.StringIO(text)))
    except csv.Error:
        return text.count("\n") + 1


def in_hours(mutate):
    """``mutate``, marked to be applied to the file in the "hours" timestamp format."""
    mutate.timestamp_format = "hours"
    return mutate


def first_cell_last(text):
    """``text`` with the rows of cell (0,0) moved to the end of the file."""
    header, *rows = text.splitlines(keepends=True)
    moved = [row for row in rows if row.startswith("0,0,")]
    return header + "".join([row for row in rows if not row.startswith("0,0,")] + moved)


def ingest_outcome(ingest, payload, schema):
    """What an ingest function makes of ``payload``: its series, or its error's row and text.

    The seed lets a record that csv cannot read escape as csv.Error, and a
    byte that is not UTF-8 as UnicodeDecodeError, with no row; the outcome
    gives each the row of the record that holds it.
    """
    try:
        return ("ok", ingest(payload, schema))
    except IngestError as exc:
        return ("IngestError", exc.row, str(exc))
    except csv.Error as exc:
        row = unreadable_record(payload)
        return ("IngestError", row, f"row {row}: {exc}")
    except UnicodeDecodeError as exc:
        if ingest is not seed_ingest_csv:
            raise  # only the seed decodes the whole payload, so that exc.start is its offset
        row = byte_record(exc.object, exc.start)
        return ("IngestError", row, f"row {row}: invalid UTF-8 byte 0x{exc.object[exc.start]:02x}")


# (bytes that break UTF-8, the byte the error names); the last one also ends the file
BAD_UTF8 = [(b"\xff", 0xFF), (b"\xe2\x82A", 0xE2), (b"\xed\xa0\x80", 0xED),
            (b"\xc3", 0xC3), (b"\xe2\x82", 0xE2)]


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SMALL)
        assert a == b

    def test_seed_changes_output(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SyntheticProfile(n_enb=2, cells_per_enb=3, n_days=3, seed=8))
        assert a != b

    def test_degenerate_waveform_is_constant(self):
        profile = SyntheticProfile(
            n_enb=1, cells_per_enb=1, n_days=2, diurnal_amplitude=0.0,
            noise_std=0.0, congested_cell_fraction=0.0, seed=1,
        )
        series = generate_synthetic(profile)[0]
        arr = series.to_array()
        assert np.all(arr[:, 0] == profile.base_prb_util)
        expected_thr = profile.throughput_at_zero_load * (1 - profile.base_prb_util / 100)
        assert np.allclose(arr[:, 1], expected_thr)

    def test_default_fleet_dimensions(self):
        # 17 eNBs x 18 cells over 25 days
        series = generate_synthetic(SyntheticProfile(seed=7))
        assert len(series) == 17 * 18 == 306
        assert all(len(s) == 25 * 24 == 600 for s in series)

    def test_samples_satisfy_invariants(self):
        for seed in (0, 1, 2):
            profile = SyntheticProfile(
                n_enb=1, cells_per_enb=2, n_days=2, noise_std=0.5, seed=seed
            )
            for series in generate_synthetic(profile):
                arr = series.to_array()
                assert np.all((arr[:, 0] >= 0) & (arr[:, 0] <= 100))
                assert np.all(arr[:, 1] >= THROUGHPUT_FLOOR_MBPS)

    def test_congested_cells_exist_with_defaults(self):
        profile = SyntheticProfile(n_enb=2, cells_per_enb=5, n_days=3, seed=3)
        series = generate_synthetic(profile)
        rule = CongestionRule()
        congested = [s for s in series if congested_hours(s, rule) > 0]
        assert congested, "expected at least one congested cell at default settings"
        # the congested set is the deterministic head of the fleet
        assert congested[0].cell == CellId(0, 0)

    def test_zero_congested_fraction(self):
        profile = SyntheticProfile(
            n_enb=2, cells_per_enb=5, n_days=3, congested_cell_fraction=0.0, seed=3
        )
        rule = CongestionRule()
        assert all(congested_hours(s, rule) == 0 for s in generate_synthetic(profile))

    def test_substreams_stable_under_fleet_growth(self):
        base = SyntheticProfile(
            n_enb=1, cells_per_enb=2, n_days=2, congested_cell_fraction=0.0, seed=5
        )
        grown = SyntheticProfile(
            n_enb=3, cells_per_enb=2, n_days=2, congested_cell_fraction=0.0, seed=5
        )
        assert generate_synthetic(base)[0] == generate_synthetic(grown)[0]

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            SyntheticProfile(n_days=1)
        with pytest.raises(ValueError):
            SyntheticProfile(base_prb_util=50, peak_prb_util=40)
        with pytest.raises(ValueError):
            SyntheticProfile(diurnal_amplitude=1.5)
        with pytest.raises(ValueError):
            SyntheticProfile(congested_cell_fraction=-0.1)


class TestCsvRoundTrip:
    def test_round_trip_identity(self):
        series = generate_synthetic(SMALL)
        ingested = ingest_csv(export_csv(series))
        assert ingested == series
        # every series is a read-only view of one array of all rows, not a copy
        assert len({id(s.values.base) for s in ingested}) == 1
        assert not ingested[0].values.base.flags.writeable

    def test_round_trip_hours_format(self):
        schema = DatasetSchema(timestamp_format="hours")
        series = generate_synthetic(SMALL)
        assert ingest_csv(export_csv(series, schema), schema) == series

    @pytest.mark.parametrize("timestamp_format", ["iso8601", "hours"])
    def test_round_trip_epoch_before_year_1000(self, timestamp_format):
        schema = DatasetSchema(timestamp_format=timestamp_format, epoch="0999-12-31T23:00")
        series = generate_synthetic(SMALL)
        payload = export_csv(series, schema)
        assert ingest_csv(payload, schema) == series
        if timestamp_format == "iso8601":
            assert payload.splitlines()[1].split(b",")[2] == b"0999-12-31T23:00"

    def test_empty_set_exports_header_only(self):
        payload = export_csv([])
        assert payload.decode().strip() == "enb_id,cell_id,timestamp,prb_util,ip_throughput"
        assert ingest_csv(payload) == []

    def test_single_sample_two_lines(self):
        one = generate_synthetic(
            SyntheticProfile(n_enb=1, cells_per_enb=1, n_days=2, seed=1)
        )[0]
        single = type(one)(one.cell, one.start, one.to_array()[:1])
        payload = export_csv([single])
        assert len(payload.decode().strip().splitlines()) == 2

    def test_in_order_file_is_not_sorted(self):
        series = generate_synthetic(SMALL)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            assert ingest_csv(export_csv(series)) == series
        argsort.assert_not_called()

    @pytest.mark.parametrize("reorder, grouped, views", [
        (lambda rows: [rows[i] for i in np.random.default_rng(0).permutation(len(rows))],
         True, False),
        (lambda rows: rows[::-1], False, False),  # cells first seen out of order, hours descending
        (lambda rows: rows[1::2] + rows[::2], True, False),  # cells in order, not their hours
        # each cell's rows in one run, hours ascending, but not in (enb, cell) order
        (lambda rows: rows[len(rows) // 2:] + rows[:len(rows) // 2], False, True),
    ], ids=["shuffled", "reversed", "interleaved", "runs-out-of-order"])
    def test_out_of_order_file_is_sorted_to_equal_series(self, reorder, grouped, views):
        # rows are grouped by one sort of the cell codes only if a cell's rows are not one
        # run; a series views the KPI array unless its rows were grouped or sorted
        series = generate_synthetic(SMALL)
        header, *rows = export_csv(series).splitlines(keepends=True)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            ingested = ingest_csv(header + b"".join(reorder(rows)))
        assert ingested == series
        assert sum(len(call.args[0]) == len(rows) for call in argsort.call_args_list) == grouped
        assert [s.values.base is not None for s in ingested] == [views] * len(series)

    def test_accepts_file_object(self):
        series = generate_synthetic(SMALL)
        assert ingest_csv(io.BytesIO(export_csv(series))) == series
        assert ingest_csv(bytearray(export_csv(series))) == series

    @pytest.mark.parametrize("text, got", [
        (lambda payload: payload.decode(), "str"),
        (lambda payload: io.StringIO(payload.decode()), "StringIO"),
        (lambda payload: io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8"), "TextIOWrapper"),
        # not read, so its bad byte raises no UnicodeDecodeError first
        (lambda payload: io.TextIOWrapper(io.BytesIO(payload + b"\xff"), encoding="utf-8"),
         "TextIOWrapper"),
    ], ids=["str", "StringIO", "TextIOWrapper", "TextIOWrapper-bad-byte"])
    def test_text_source_is_rejected(self, text, got):
        with pytest.raises(TypeError, match=f"reads bytes or a binary file, got {got}$"):
            ingest_csv(text(export_csv(generate_synthetic(SMALL))))

    def test_minimal_two_row_file(self):
        payload = (
            "enb_id,cell_id,timestamp,prb_util,ip_throughput\n"
            "0,0,2000-01-01T00:00,50.0,5.0\n"
            "0,0,2000-01-01T01:00,60.0,4.0\n"
        ).encode()
        series = ingest_csv(payload)
        assert len(series) == 1
        assert len(series[0]) == 2
        assert series[0].start == 0
        assert series[0].to_array()[1].tolist() == [60.0, 4.0]


class TestIngestErrors:
    HEADER = "enb_id,cell_id,timestamp,prb_util,ip_throughput\n"

    def test_out_of_range_prb(self):
        payload = (self.HEADER + "0,0,2000-01-01T00:00,120.0,1.0\n").encode()
        with pytest.raises(IngestError, match="prb_util out of range"):
            ingest_csv(payload)

    def test_negative_throughput(self):
        payload = (self.HEADER + "0,0,2000-01-01T00:00,50.0,-1.0\n").encode()
        with pytest.raises(IngestError, match="ip_throughput"):
            ingest_csv(payload)

    def test_missing_column(self):
        payload = b"enb_id,cell_id,timestamp,prb_util\n0,0,2000-01-01T00:00,50.0\n"
        with pytest.raises(IngestError, match="missing column"):
            ingest_csv(payload)

    def test_unparsable_value(self):
        payload = (self.HEADER + "0,0,2000-01-01T00:00,abc,1.0\n").encode()
        with pytest.raises(IngestError, match="row 2"):
            ingest_csv(payload)

    def test_duplicate_hour(self):
        payload = (
            self.HEADER
            + "0,0,2000-01-01T00:00,50.0,1.0\n"
            + "0,0,2000-01-01T00:00,51.0,1.0\n"
        ).encode()
        with pytest.raises(IngestError, match="duplicate"):
            ingest_csv(payload)

    def test_gap_in_hours(self):
        payload = (
            self.HEADER
            + "0,0,2000-01-01T00:00,50.0,1.0\n"
            + "0,0,2000-01-01T02:00,51.0,1.0\n"
        ).encode()
        with pytest.raises(IngestError, match="gap"):
            ingest_csv(payload)

    def test_off_grid_timestamp(self):
        payload = (self.HEADER + "0,0,2000-01-01T00:30,50.0,1.0\n"
                   + "0,0,2000-01-01T01:30,50.0,1.0\n").encode()
        # offsets are taken from the earliest stamp, so a consistent half-hour
        # shift still lands on the hourly grid; a mixed file does not
        ingest_csv(payload)
        mixed = (self.HEADER + "0,0,2000-01-01T00:00,50.0,1.0\n"
                 + "0,0,2000-01-01T01:30,50.0,1.0\n").encode()
        with pytest.raises(IngestError, match="hourly grid"):
            ingest_csv(mixed)

    def test_timezone_qualified_timestamp(self):
        payload = (self.HEADER + "0,0,2000-01-01T00:00,50.0,1.0\n"
                   + "0,0,2000-01-01T00:00+01:00,50.0,1.0\n").encode()
        with pytest.raises(IngestError, match="timezone") as exc:
            ingest_csv(payload)
        assert exc.value.row == 3
        with pytest.raises(ValueError, match="timezone"):
            DatasetSchema(epoch="2000-01-01T00:00+01:00")

    def test_empty_file(self):
        with pytest.raises(IngestError, match="empty file"):
            ingest_csv(b"")

    def test_error_names_offending_row(self):
        payload = (
            self.HEADER
            + "0,0,2000-01-01T00:00,50.0,1.0\n"
            + "0,0,2000-01-01T01:00,50.0,1.0\n"
            + "0,0,2000-01-01T02:00,120.0,1.0\n"
        ).encode()
        with pytest.raises(IngestError) as exc:
            ingest_csv(payload)
        assert exc.value.row == 4


    @pytest.mark.parametrize("field, value, reason", [
        (0, "-1", "unparsable eNB/cell index"),
        (1, "\u0663", "unparsable eNB/cell index"),
        (1, "+1", "unparsable eNB/cell index"),
        (3, "1_0", "unparsable KPI value"),
        (4, " 5 ", "unparsable KPI value"),
        (3, "\u0663", "unparsable KPI value"),
    ])
    def test_numbers_outside_the_ascii_grammar_name_row(self, field, value, reason):
        rows = ["0,0,2000-01-01T00:00,50.0,1.0", "0,0,2000-01-01T01:00,50.0,1.0"]
        rows[1] = ",".join(value if i == field else f for i, f in enumerate(rows[1].split(",")))
        with pytest.raises(IngestError) as exc:
            ingest_csv((self.HEADER + "\n".join(rows) + "\n").encode())
        assert str(exc.value) == f"row 3: {reason}"

    def test_unreadable_record_names_row(self):
        huge = '"' + "5" * 200_000 + '"'
        rows = ["0,0,2000-01-01T00:00,50.0,1.0", f"0,0,2000-01-01T01:00,{huge},1.0"]
        for chunk_rows in (1, 2048):
            with mock.patch.object(traffic, "_INGEST_CHUNK_ROWS", chunk_rows):
                with pytest.raises(IngestError) as exc:
                    ingest_csv((self.HEADER + "\n".join(rows) + "\n").encode())
                assert str(exc.value) == "row 3: field larger than field limit (131072)"
                # a row before the unreadable record keeps its own error
                bad_first = "\n".join(["0,0,2000-01-01T00:00,x,1.0", rows[1]])
                with pytest.raises(IngestError, match="unparsable KPI") as exc:
                    ingest_csv((self.HEADER + bad_first + "\n").encode())
                assert exc.value.row == 2

    def test_unreadable_header_names_row_one(self):
        with pytest.raises(IngestError) as exc:
            ingest_csv(b"enb_id,cell\rx,timestamp\n")
        assert exc.value.row == 1
        assert exc.value.reason.startswith("new-line character seen in unquoted field")

    def test_huge_hour_offset_names_row(self):
        schema = DatasetSchema(timestamp_format="hours")
        payload = (self.HEADER + "0,0,0,50.0,1.0\n" + "0,0," + "9" * 400 + ",50.0,1.0\n").encode()
        with pytest.raises(IngestError, match="hour offset out of range") as exc:
            ingest_csv(payload, schema)
        assert exc.value.row == 3

    def test_hour_span_beyond_float_range_names_row(self):
        # each offset is a finite float, but their distance from the earliest is not
        schema = DatasetSchema(timestamp_format="hours")
        big = "9" * 308
        payload = (self.HEADER + f"0,0,-{big},50.0,1.0\n" + f"0,1,{big},50.0,1.0\n").encode()
        with pytest.raises(IngestError, match="hour offset out of range") as exc:
            ingest_csv(payload, schema)
        assert exc.value.row == 3

    def test_non_utf8_byte_names_row(self):
        payload = (
            self.HEADER.encode()
            + b"0,0,2000-01-01T00:00,50.0,1.0\n"
            + b"0,0,2000-01-01T01:00,50.0,1.0\n"
            + b"0,0,2000-01-01T02:00,5\xff.0,1.0\n"
            + b"0,0,2000-01-01T03:00,5\xfe.0,1.0\n"
        )
        with pytest.raises(IngestError, match="invalid UTF-8 byte 0xff") as exc:
            ingest_csv(payload)
        assert exc.value.row == 4
        with pytest.raises(IngestError) as exc:
            ingest_csv(io.BytesIO(payload))
        assert exc.value.row == 4

    def test_non_utf8_byte_after_multiline_field_counts_records(self):
        payload = (
            b"enb_id,cell_id,timestamp,prb_util,ip_throughput,note\n"
            b'0,0,2000-01-01T00:00,50.0,1.0,"two\nlines"\n'
            b"0,0,2000-01-01T01:00,50.0,1.0,\xff\n"
        )
        with pytest.raises(IngestError, match="0xff") as exc:
            ingest_csv(payload)
        assert exc.value.row == 3

    @pytest.mark.parametrize("bad, byte", BAD_UTF8)
    @pytest.mark.parametrize("rows", [1, 2, 3, 2048])
    @pytest.mark.parametrize("filler", [0, 400])
    def test_non_utf8_byte_wins_over_an_earlier_malformed_row(self, filler, rows, bad, byte):
        # without filler, the reader mostly meets the bad byte before a row is
        # parsed; past 400 filler rows (12 KiB), a one-row chunk fails on row 2
        # first. Characters of two to four bytes come before the bad one.
        payload = (
            b"enb_id,cell_id,timestamp,prb_util,ip_throughput,note\n"
            + "0,0,2000-01-01T00:00,x,1.0,\u00e9\u20ac\U0001f600\n".encode()
            + '0,0,2000-01-01T01:00,50.0,1.0,"two\nlines \u20ac"\n'.encode()
            + b"0,0,2000-01-01T02:00,50.0,1.0,\n" * filler
            + b"0,0,2000-01-01T02:00,50.0,1.0," + bad
        )
        with mock.patch.object(traffic, "_INGEST_CHUNK_ROWS", rows):
            with pytest.raises(IngestError) as exc:
                ingest_csv(payload)
            assert (exc.value.row, exc.value.reason) == (4 + filler,
                                                         f"invalid UTF-8 byte 0x{byte:02x}")
            # mended, the malformed row is the error again
            with pytest.raises(IngestError, match="unparsable KPI") as exc:
                ingest_csv(payload[: -len(bad)] + b"\xc3\xa9\n")
            assert exc.value.row == 2

    def test_valid_bytes_are_decoded_once(self):
        # only a failed ingest looks for a bad byte
        series = generate_synthetic(SMALL)
        payload = export_csv(series)
        with mock.patch.object(traffic, "_check_utf8", wraps=traffic._check_utf8) as check:
            assert ingest_csv(payload) == series
            assert ingest_csv(io.BytesIO(payload)) == series
            check.assert_not_called()
            header, row_2, rest = payload.split(b"\n", 2)
            with pytest.raises(IngestError) as exc:
                ingest_csv(b"\n".join([header, row_2, b"\xff" + rest]))
            assert str(exc.value) == "row 3: invalid UTF-8 byte 0xff"
            check.assert_called_once()

    def test_first_of_two_errors_in_different_chunks(self):
        payload = (
            self.HEADER
            + "0,0,2000-01-01T00:00,50.0,1.0\n"
            + "0,0,2000-01-01T01:00,x,1.0\n"
            + "\n"
            + "0,0,2000-01-01T02:00,50.0,1.0\n"
            + "0,0,2000-01-01T03:00,50.0,1.0,extra\n"
            + "0,y,2000-01-01T04:00,50.0,1.0\n"
        ).encode()
        for rows in (1, 2, 3, 2048):
            with mock.patch.object(traffic, "_INGEST_CHUNK_ROWS", rows):
                with pytest.raises(IngestError, match="unparsable KPI") as exc:
                    ingest_csv(payload)
                assert exc.value.row == 3
                # the later chunk's error once the first is mended
                with pytest.raises(IngestError, match="eNB/cell") as exc:
                    ingest_csv(payload.replace(b",x,", b",5,"))
                assert exc.value.row == 7

    def test_parse_error_in_later_chunk_precedes_grid_error(self):
        # rows are parsed before any cell's grid is checked, as in a single pass
        payload = (
            self.HEADER
            + "0,0,2000-01-01T00:00,50.0,1.0\n"
            + "0,0,2000-01-01T00:00,50.0,1.0\n"
            + "0,1,2000-01-01T00:00,50.0,1.0\n"
            + "0,1,2000-01-01T01:00,50.0,1.0\n"
            + "0,1,2000-01-01T02:00,abc,1.0\n"
        ).encode()
        with mock.patch.object(traffic, "_INGEST_CHUNK_ROWS", 2):
            with pytest.raises(IngestError, match="unparsable KPI") as exc:
                ingest_csv(payload)
        assert exc.value.row == 6

    def test_tied_timestamps_name_the_later_row(self):
        payload = (
            self.HEADER
            + "0,0,2000-01-01T01:00,50.0,1.0\n"
            + "0,1,2000-01-01T00:00,50.0,1.0\n"
            + "0,0,2000-01-01T00:00,50.0,1.0\n"
            + "0,0,2000-01-01T01:00,60.0,1.0\n"
        ).encode()
        with pytest.raises(IngestError) as exc:
            ingest_csv(payload)
        assert exc.value.row == 5
        assert exc.value.reason == "duplicate sample for cell (0,0) at hour 1"


class TestSeedReference:
    """The column-wise CSV path reproduces the seed's per-row code byte for byte."""

    @pytest.mark.parametrize("timestamp_format", ["iso8601", "hours"])
    def test_export_bytes_and_ingest_match(self, timestamp_format):
        schema = DatasetSchema(timestamp_format=timestamp_format)
        profile = SyntheticProfile(n_enb=3, cells_per_enb=4, n_days=4, seed=11)
        series = generate_synthetic(profile)[::-1]
        payload = export_csv(series, schema)
        assert payload == seed_export_csv(series, schema)
        assert ingest_csv(payload, schema) == seed_ingest_csv(payload, schema)

    def test_duplicate_cells_and_empty_series_export(self):
        a, b = generate_synthetic(SMALL)[:2]
        empty = KpiSeries(CellId(1, 0), 5, np.empty((0, 2)))
        fleet = [b, a, empty, KpiSeries(a.cell, 40, a.values[:3])]
        assert export_csv(fleet) == seed_export_csv(fleet)

    @pytest.mark.parametrize("mutate", [
        lambda t: t.replace("0,1,", "-1,1,"),
        lambda t: t.replace("0,0,", "0,-2,", 1),
        lambda t: t.replace("\n1,0,", "\n\n1,0,").replace("\n1,2,", '\n"1",2,'),
        lambda t: t.replace(",2000-01-02T", ",2000-01-02 "),
        lambda t: t.replace("T05:00,", "T05:00+00:00,"),
        lambda t: t.replace("T07:00,", "T07:30,"),
        lambda t: set_field(set_field(t, 5, 3, "nan"), 3, 4, "-1.5"),
        lambda t: set_field(t, 9, 4, "inf"),
        lambda t: set_field(t, 12, 3, "100.000001"),
        lambda t: "\n".join(t.split("\n")[:30] + t.split("\n")[31:]),
        # an hour written in a second text: distinct stamps that tie on the same hour
        lambda t: t.replace("T05:00,", "T05:00:00,", 3),
        in_hours(lambda t: t.replace(",7,", ",007,", 2)),
        lambda t: t.replace("\n", "\n0,0,2000-01-01T05:00:00,50.0,1.0\n", 1),
        # cells in runs out of (enb, cell) order, read in place; then a duplicate hour there
        first_cell_last,
        lambda t: first_cell_last(t.replace("T05:00,", "T04:00,", 1)),
    ])
    def test_mutated_ingest_matches(self, mutate):
        schema = DatasetSchema(timestamp_format=getattr(mutate, "timestamp_format", "iso8601"))
        text = seed_export_csv(generate_synthetic(SMALL), schema).decode()
        payload = mutate(text).encode()
        assert payload != text.encode()
        for rows in (1, 7, 2048):
            with mock.patch.object(traffic, "_INGEST_CHUNK_ROWS", rows):
                got = ingest_outcome(ingest_csv, payload, schema)
            assert got == ingest_outcome(seed_ingest_csv, payload, schema)


class TestMemory:
    """Ingest and export hold about one copy of the CSV, measured by tracemalloc.

    numpy registers its buffers with tracemalloc, so arrays count. The bounds
    are multiples of the CSV's size; the caller's own bytes are not counted.
    """

    PROFILE = SyntheticProfile(n_enb=5, cells_per_enb=12, n_days=25, seed=3)  # 36,000 rows
    LARGE = SyntheticProfile(n_enb=10, cells_per_enb=12, n_days=25, seed=3)  # 72,000 rows

    @staticmethod
    def traced_peak(fn, *args) -> int:
        """Bytes that ``fn(*args)`` allocates at its peak, beyond what was live before."""
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_ingest_peaks_at_three_times_the_csv(self):
        payload = export_csv(generate_synthetic(self.PROFILE))
        assert len(payload) > 2_000_000
        assert self.traced_peak(ingest_csv, payload) <= 3 * len(payload)

    def test_in_order_ingest_peaks_at_the_csv_size(self):
        # the grid check of an in-order file holds neither the cell codes nor a sort
        # permutation: about 0.87x here, and 1.12x when it held both
        payload = export_csv(generate_synthetic(self.LARGE))
        assert len(payload) > 4_000_000
        assert self.traced_peak(ingest_csv, payload) <= len(payload)

    def test_in_order_ingest_keeps_two_int32_codes_per_row(self):
        # a row holds an int32 cell code and stamp id, and the grid is checked once per
        # distinct timestamp: about 0.72x here, and 0.87x with int64 codes and float64 hours
        payload = export_csv(generate_synthetic(self.LARGE))
        assert self.traced_peak(ingest_csv, payload) <= 0.8 * len(payload)

    def test_in_order_grid_check_peaks_under_the_parse(self):
        # beyond the columns, the grid check of an in-order file holds one bool per row and
        # per-cell arrays: +5,295 bytes over the parse here, and +350,081 with a float64 step
        # per row; the reference default fleet, 183,600 rows
        payload = export_csv(generate_synthetic(SyntheticProfile(seed=3)))
        with mock.patch.object(traffic, "_series_from_columns", lambda *args: []):
            parse = self.traced_peak(ingest_csv, payload)
        assert self.traced_peak(ingest_csv, payload) <= parse + 64 * 1024

    def test_export_peaks_at_one_and_a_half_times_the_csv(self):
        series = generate_synthetic(self.PROFILE)
        size = len(export_csv(series))
        assert self.traced_peak(export_csv, series) <= 1.5 * size


class TestSchema:
    def test_custom_columns(self):
        schema = DatasetSchema(
            enb_col="site", cell_col="sector", time_col="ts",
            prb_col="util", thr_col="tput", timestamp_format="hours",
        )
        series = generate_synthetic(SMALL)
        assert ingest_csv(export_csv(series, schema), schema) == series

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            DatasetSchema(enb_col="x", cell_col="x")

    def test_bad_timestamp_format(self):
        with pytest.raises(ValueError):
            DatasetSchema(timestamp_format="unix")
