"""Tests for the cell-splitting actuator and throughput histograms."""

import numpy as np
import pytest

from oransim.kpi import CellId, CongestionRule, KpiSample, KpiSeries, evaluate_congestion
from oransim.splitting import (
    CellLoadState,
    SplitPolicy,
    SplitRefusedError,
    default_bin_edges,
    draw_r,
    export_histogram_csv,
    histogram_hours,
    share_kpis,
    split_cell,
)


def state(load=100.0, util=90.0, thr=0.9, gen=0, cap=10.0):
    return CellLoadState(CellId(0, 0, gen), load, util, thr, cap)


class TestDrawR:
    def test_degenerate_interval(self):
        policy = SplitPolicy(r_min=70.0, r_max=70.0)
        assert draw_r(policy, policy.rng()) == 70.0

    def test_draws_stay_in_bounds(self):
        policy = SplitPolicy()
        rng = policy.rng()
        values = [draw_r(policy, rng) for _ in range(500)]
        assert all(60.0 <= v <= 75.0 for v in values)

    def test_deterministic_stream(self):
        policy = SplitPolicy(seed=1234)
        a = [draw_r(policy, policy.rng()) for _ in range(5)]
        b = [draw_r(policy, policy.rng()) for _ in range(5)]
        assert a == b

    def test_uniform_mean(self):
        policy = SplitPolicy(seed=99)
        rng = policy.rng()
        mean = np.mean([draw_r(policy, rng) for _ in range(1000)])
        assert abs(mean - 67.5) < 1.5

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SplitPolicy(r_min=0.0)
        with pytest.raises(ValueError):
            SplitPolicy(r_min=80.0, r_max=70.0)
        with pytest.raises(ValueError):
            SplitPolicy(max_factor=3)


class TestSplitCell:
    def test_migration_arithmetic(self):
        policy = SplitPolicy(r_min=70.0, r_max=70.0)
        parent, child, event = split_cell(state(load=100.0), policy, hour=5,
                                          rng=policy.rng(), child_cell_index=7)
        assert child.load == pytest.approx(70.0)
        assert parent.load == pytest.approx(30.0)
        assert event.r == 70.0
        assert event.hour == 5

    def test_identity_evolution(self):
        policy = SplitPolicy(r_min=60.0, r_max=75.0)
        parent, child, event = split_cell(state(gen=0), policy, hour=0,
                                          rng=policy.rng(), child_cell_index=18)
        assert event.parent == CellId(0, 0, 0)
        assert event.child == CellId(0, 18, 1)
        assert event.child.generation == event.parent.generation + 1
        assert parent.cell == CellId(0, 0, 1)  # parent advances a round too
        assert event.child.generation == 1

    def test_zero_load_split_is_legal(self):
        policy = SplitPolicy(r_min=60.0, r_max=75.0)
        parent, child, _ = split_cell(state(load=0.0), policy, hour=0,
                                      rng=policy.rng(), child_cell_index=1)
        assert parent.load == 0.0 and child.load == 0.0

    def test_load_conserved_exactly(self):
        policy = SplitPolicy(seed=5)
        rng = policy.rng()
        loads = np.random.Generator(np.random.PCG64(8)).uniform(0, 500, size=200)
        for i, load in enumerate(loads):
            parent, child, _ = split_cell(state(load=float(load)), policy, hour=0,
                                          rng=rng, child_cell_index=i + 1)
            assert parent.load + child.load == float(load)  # bit-exact

    def test_factor_cap_refusal(self):
        policy = SplitPolicy(max_factor=2)
        parent, _, _ = split_cell(state(gen=0), policy, hour=0,
                                  rng=policy.rng(), child_cell_index=1)
        # both halves are now at factor 2: a second round must be refused
        with pytest.raises(SplitRefusedError):
            split_cell(parent, policy, hour=1, rng=policy.rng(), child_cell_index=2)

    def test_factor_8_allows_three_rounds(self):
        policy = SplitPolicy(max_factor=8)
        rng = policy.rng()
        s = state(gen=0)
        for round_no in range(3):
            s, _, event = split_cell(s, policy, hour=round_no, rng=rng,
                                     child_cell_index=round_no + 1)
            assert event.child.generation == round_no + 1
        assert s.cell.split_factor == 8
        with pytest.raises(SplitRefusedError):
            split_cell(s, policy, hour=3, rng=rng, child_cell_index=9)


class TestApplySplitEffects:
    """The split law ``share_kpis`` applied to both halves of a ``split_cell``."""

    def split_with_r(self, r, util=90.0, thr=0.9, load=100.0):
        policy = SplitPolicy(r_min=r, r_max=r)
        pre = state(load=load, util=util, thr=thr)
        parent, child, _ = split_cell(pre, policy, hour=0, rng=policy.rng(), child_cell_index=1)
        return [share_kpis(util, thr, s.load / load, pre.throughput_cap) for s in (parent, child)]

    def test_utilization_shares(self):
        (parent_util, _), (child_util, _) = self.split_with_r(60.0, util=90.0)
        assert parent_util == pytest.approx(36.0)
        assert child_util == pytest.approx(54.0)

    def test_throughput_inverse_scaling(self):
        (_, parent_thr), (_, child_thr) = self.split_with_r(60.0, util=90.0, thr=0.9)
        assert parent_thr == pytest.approx(2.25)  # 0.9 * 90 / 36
        assert child_thr == pytest.approx(1.5)    # 0.9 * 90 / 54

    def test_relieved_cells_clear_default_rule(self):
        rule = CongestionRule()
        for util, thr in self.split_with_r(65.0, util=95.0, thr=0.9):
            assert not evaluate_congestion(KpiSample(0, util, thr), rule)

    def test_throughput_capped_at_zero_load_value(self):
        (_, parent_thr), (_, child_thr) = self.split_with_r(75.0, util=10.0, thr=9.0)
        assert parent_thr == 10.0  # 9 * 10 / 2.5 = 36, capped
        assert child_thr == pytest.approx(10.0)

    def test_post_split_utilization_never_exceeds_pre_split(self):
        rng = np.random.Generator(np.random.PCG64(77))
        policy = SplitPolicy(seed=3)
        policy_rng = policy.rng()
        for _ in range(100):
            util = float(rng.uniform(0, 100))
            thr = float(rng.uniform(0, 10))
            load = float(rng.uniform(1, 300))
            r = draw_r(policy, policy_rng)
            for new_util, _ in self.split_with_r(r, util, thr, load):
                assert new_util <= util + 1e-12


class TestHistogram:
    def series(self, thr_values, cell=CellId(0, 0)):
        return KpiSeries.from_arrays(cell, 0, [50.0] * len(thr_values), thr_values)

    def test_all_mass_in_first_bin(self):
        hist = histogram_hours([self.series([0.5] * 8)], [0.0, 1.0, 2.0])
        counts = hist[CellId(0, 0)]
        assert counts.tolist() == [8, 0, 0]

    def test_empty_series_all_zero(self):
        hist = histogram_hours([KpiSeries(CellId(0, 0))], [0.0, 1.0, 2.0])
        assert hist[CellId(0, 0)].tolist() == [0, 0, 0]

    def test_counts_partition_series_length(self):
        rng = np.random.Generator(np.random.PCG64(5))
        thr = rng.uniform(0, 12, size=100)  # exceeds the default top edge
        hist = histogram_hours([self.series(thr.tolist())])
        assert int(hist[CellId(0, 0)].sum()) == 100

    def test_half_open_bins_and_overflow(self):
        hist = histogram_hours([self.series([0.0, 0.5, 0.99, 1.0, 5.0, 7.3])],
                               [0.0, 0.5, 1.0, 5.0])
        # [0,0.5): 2 (0.0, ...), wait: 0.0 -> bin0, 0.5 -> bin1, 0.99 -> bin1,
        # 1.0 -> bin2, 5.0 -> overflow, 7.3 -> overflow
        assert hist[CellId(0, 0)].tolist() == [1, 2, 1, 2]

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            histogram_hours([self.series([1.0])], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            histogram_hours([self.series([1.0])], [2.0])

    def test_csv_export(self):
        edges = [0.0, 1.0]
        hist = histogram_hours([self.series([0.5, 1.5])], edges)
        text = export_histogram_csv(hist, edges).decode()
        lines = text.strip().splitlines()
        assert lines[0] == "cell,bin_low,bin_high,hours"
        assert lines[1] == "e0c0g0,0.0,1.0,1"
        assert lines[2] == "e0c0g0,1.0,inf,1"

    def test_default_edges(self):
        edges = default_bin_edges()
        assert edges[0] == 0.0 and edges[-1] == 5.0
        assert len(edges) == 11
