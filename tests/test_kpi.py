"""Tests for the KPI vocabulary and the congestion rule."""

import numpy as np
import pytest

from oransim.kpi import (
    CellId,
    CongestionRule,
    KpiSample,
    KpiSeries,
    congested_hours,
    evaluate_congestion,
)


def series_from(values, cell=CellId(0, 0), start=0):
    return KpiSeries(cell, start, np.array(values, dtype=np.float64).reshape(-1, 2))


class TestCongestionRule:
    def test_both_conditions_hold(self):
        assert evaluate_congestion(KpiSample(0, 90.0, 0.5), CongestionRule()) is True

    def test_boundaries_excluded(self):
        # thresholds themselves are not congested: strict inequalities
        assert evaluate_congestion(KpiSample(0, 80.0, 1.0), CongestionRule()) is False
        assert evaluate_congestion(KpiSample(0, 80.0, 0.5), CongestionRule()) is False
        assert evaluate_congestion(KpiSample(0, 90.0, 1.0), CongestionRule()) is False

    def test_and_fails_on_low_utilization(self):
        assert evaluate_congestion(KpiSample(0, 50.0, 0.5), CongestionRule()) is False

    def test_matches_literal_conjunction_on_grid(self):
        rule = CongestionRule()
        for thr in (0.0, 0.5, 0.99, 1.0, 1.01, 5.0):
            for prb in (0.0, 79.0, 80.0, 81.0, 100.0):
                s = KpiSample(0, prb, thr)
                assert evaluate_congestion(s, rule) == ((thr < 1.0) and (prb > 80.0))

    def test_monotonicity(self):
        # raising throughput or lowering utilization never creates congestion
        rng = np.random.Generator(np.random.PCG64(1))
        rule = CongestionRule()
        for _ in range(200):
            prb = rng.uniform(0, 100)
            thr = rng.uniform(0, 5)
            base = evaluate_congestion(KpiSample(0, prb, thr), rule)
            higher_thr = evaluate_congestion(KpiSample(0, prb, thr + rng.uniform(0, 5)), rule)
            lower_prb = evaluate_congestion(
                KpiSample(0, prb * rng.uniform(0, 1), thr), rule
            )
            if not base:
                assert not higher_thr or thr + 5 < thr  # raising thr cannot flip to True
            assert not (higher_thr and not base)
            assert not (lower_prb and not base)

    def test_custom_thresholds(self):
        rule = CongestionRule(throughput_max=2.0, prb_min=50.0)
        assert evaluate_congestion(KpiSample(0, 60.0, 1.5), rule) is True
        assert evaluate_congestion(KpiSample(0, 40.0, 1.5), rule) is False

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            CongestionRule(throughput_max=0.0)
        with pytest.raises(ValueError):
            CongestionRule(prb_min=100.0)
        with pytest.raises(ValueError):
            CongestionRule(prb_min=0.0)


class TestCongestedHours:
    def test_all_hours_congested(self):
        s = series_from([(90.0, 0.5)] * 10)
        assert congested_hours(s, CongestionRule()) == 10

    def test_no_hours_congested(self):
        s = series_from([(10.0, 5.0)] * 10)
        assert congested_hours(s, CongestionRule()) == 0

    def test_alternating(self):
        values = [(90.0, 0.5) if i % 2 == 0 else (10.0, 5.0) for i in range(10)]
        assert congested_hours(series_from(values), CongestionRule()) == 5


class TestInvariants:
    def test_sample_validation(self):
        with pytest.raises(ValueError):
            KpiSample(0, -1.0, 1.0)
        with pytest.raises(ValueError):
            KpiSample(0, 101.0, 1.0)
        with pytest.raises(ValueError):
            KpiSample(0, 50.0, -0.1)
        with pytest.raises(ValueError):
            KpiSample(0, 50.0, float("inf"))

    def test_series_rejects_out_of_range_row(self):
        # row i is hour start + i, so the error names the first bad hour
        for bad in ((-1.0, 1.0), (101.0, 1.0), (50.0, -0.1), (50.0, float("inf")),
                    (float("nan"), 1.0)):
            with pytest.raises(ValueError, match="hour 12:"):
                series_from([(50.0, 1.0), (50.0, 1.0), bad, bad], start=10)
        with pytest.raises(ValueError, match="shape"):
            KpiSeries(CellId(0, 0), 0, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="shape"):
            KpiSeries(CellId(0, 0), 0, np.zeros(4))

    def test_cell_id_ordering_and_labels(self):
        a, b = CellId(0, 1, 0), CellId(0, 1, 1)
        assert a < b < CellId(1, 0, 0)
        assert a.label() == "e0c1g0"
        assert CellId.from_json(b.to_json()) == b
        for bad in (["0", 1, 1], [0, 1.0, 1], [0, 1, True], [0, 1], [0, 1, 1, 1], [0, -1, 0], "e0c1g1"):
            with pytest.raises(ValueError, match=r"^cell"):
                CellId.from_json(bad)
        assert CellId(0, 0, 3).split_factor == 8
        with pytest.raises(ValueError):
            CellId(-1, 0)

    def test_series_keeps_only_arrays_nothing_can_write(self):
        rows = np.array([(10.5, 1.25), (20.25, 2.5), (30.0, 0.5)])
        frozen = rows.copy()
        frozen.flags.writeable = False
        assert KpiSeries(CellId(0, 0), 0, frozen).values is frozen
        assert KpiSeries(CellId(0, 0), 0, frozen[1:]).values.base is frozen
        assert KpiSeries(CellId(0, 0), 0, frozen.astype(np.float32)).values.dtype == np.float64
        frozen_bad = np.array([(50.0, 1.0), (101.0, 1.0)])
        frozen_bad.flags.writeable = False
        with pytest.raises(ValueError, match="hour 1:"):
            KpiSeries(CellId(0, 0), 0, frozen_bad)
        read_only_view = rows[1:]
        read_only_view.flags.writeable = False
        for given, expected in ((rows, rows.copy()), (read_only_view, rows[1:].copy())):
            series = KpiSeries(CellId(0, 0), 0, given)
            rows[:] = 0.0  # the caller still writes through ``rows``
            assert np.array_equal(series.values, expected)
            rows[:] = [(10.5, 1.25), (20.25, 2.5), (30.0, 0.5)]

    def test_series_array_round_trip(self):
        s = series_from([(10.5, 1.25), (20.25, 2.5)], start=5)
        arr = s.to_array()
        back = KpiSeries.from_arrays(s.cell, 5, arr[:, 0], arr[:, 1])
        assert back == s
