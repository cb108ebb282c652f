"""Tests for the synthetic traffic generator and CSV interchange."""

import io

import numpy as np
import pytest

from oransim.kpi import CellId, CongestionRule, congested_hours
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
        assert ingest_csv(export_csv(series)) == series

    def test_round_trip_hours_format(self):
        schema = DatasetSchema(timestamp_format="hours")
        series = generate_synthetic(SMALL)
        assert ingest_csv(export_csv(series, schema), schema) == series

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

    def test_accepts_file_object(self):
        series = generate_synthetic(SMALL)
        assert ingest_csv(io.BytesIO(export_csv(series))) == series

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
