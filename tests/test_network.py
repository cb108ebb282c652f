"""Tests for the simulated network state machine."""

import pytest

from oransim.kpi import CellId, KpiSeries
from oransim.network import SimulatedNetwork
from oransim.splitting import SplitPolicy, SplitRefusedError
from oransim.traffic import SyntheticProfile


def flat_network(n_hours=48, util=80.0, thr=2.0, cells=2, cap=10.0, history=0):
    base = [
        KpiSeries.from_arrays(CellId(0, c), 0, [util] * n_hours, [thr] * n_hours)
        for c in range(cells)
    ]
    return SimulatedNetwork(base, throughput_cap=cap, history_hours=history)


class TestRealization:
    def test_unsplit_cells_realize_base_exactly(self):
        profile = SyntheticProfile(n_enb=1, cells_per_enb=2, n_days=2, seed=3)
        net = SimulatedNetwork.from_profile(profile, history_hours=48)
        for key in net.active_keys():
            series = net.window(key, 0, net.hour)
            base = net.baseline_series(0, 48)
            match = [b for b in base if (b.cell.enb, b.cell.cell) == key]
            assert series == match[0]

    def test_realize_hour_returns_rows_in_key_order(self):
        net = flat_network(n_hours=6, util=80.0, thr=2.0, cells=3, history=2)
        rows = net.realize_hour()
        assert rows.shape == (3, 2) and rows.tolist() == [[80.0, 2.0]] * 3
        assert all(net.realized(k)[-1].tolist() == [80.0, 2.0] for k in net.active_keys())
        assert net.hour == 3

    def test_zero_utilization_hours_realize_as_measured(self):
        # an unsplit cell at 0% PRB keeps its measured throughput, not the cap
        base = [KpiSeries(CellId(0, 0), 0, [[0.0, 0.0], [50.0, 4.0], [0.0, 2.5]])]
        net = SimulatedNetwork(base, throughput_cap=9.0, history_hours=3)
        assert net.realized((0, 0)).tolist() == [[0.0, 0.0], [50.0, 4.0], [0.0, 2.5]]

    def test_history_prerealized(self):
        net = flat_network(history=10)
        assert net.hour == 10
        assert all(
            len(net.realized(k)) == net.hour - net.cells[k].created_at == 10
            for k in net.active_keys()
        )

    def test_exhausting_base_traffic_raises(self):
        net = flat_network(n_hours=5, history=5)
        with pytest.raises(ValueError):
            net.realize_hour()

    @pytest.mark.parametrize("history, named", [
        (-5, "history_hours must be >= 0, got -5"),
        (7, "history_hours 7 exceeds base horizon 6"),
    ])
    def test_rejects_history_outside_the_base_traffic(self, history, named):
        with pytest.raises(ValueError, match=named):
            flat_network(n_hours=6, history=history)

    def test_rejects_mismatched_series(self):
        a = KpiSeries.from_arrays(CellId(0, 0), 0, [1.0, 2.0], [1.0, 1.0])
        b = KpiSeries.from_arrays(CellId(0, 1), 0, [1.0], [1.0])
        with pytest.raises(ValueError):
            SimulatedNetwork([a, b], throughput_cap=10.0)

    def test_rejects_two_series_for_one_cell(self):
        a = KpiSeries.from_arrays(CellId(0, 0), 0, [10.0, 10.0], [1.0, 1.0])
        b = KpiSeries.from_arrays(CellId(0, 0), 0, [90.0, 90.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="two base series for cell e0c0g0"):
            SimulatedNetwork([a, b], throughput_cap=10.0)


class TestSplitEffects:
    def test_split_scales_util_and_throughput(self):
        net = flat_network(util=90.0, thr=0.9, history=4)
        policy = SplitPolicy(r_min=60.0, r_max=60.0, max_factor=2)
        event = net.split((0, 0), policy, policy.rng())
        assert event.parent == CellId(0, 0, 0)
        assert event.child == CellId(0, 2, 1)  # next free index in the eNB
        rows = net.realize_hour()
        assert net.active_keys() == [(0, 0), (0, 1), (0, 2)]
        (parent_prb, parent_thr), _, (child_prb, child_thr) = rows.tolist()
        assert parent_prb == pytest.approx(90.0 * 0.4)
        assert child_prb == pytest.approx(90.0 * 0.6)
        assert parent_thr == pytest.approx(0.9 / 0.4)
        assert child_thr == pytest.approx(0.9 / 0.6)

    def test_throughput_capped_after_split(self):
        net = flat_network(util=20.0, thr=6.0, cap=10.0, history=4)
        policy = SplitPolicy(r_min=75.0, r_max=75.0, max_factor=2)
        net.split((0, 0), policy, policy.rng())
        rows = net.realize_hour()
        assert rows[0, 1] == 10.0  # 6/0.25 = 24, capped
        assert rows[2, 1] == pytest.approx(6.0 / 0.75)

    def test_generation_advances_for_both_halves(self):
        net = flat_network(history=4)
        policy = SplitPolicy(r_min=70.0, r_max=70.0, max_factor=4)
        net.split((0, 0), policy, policy.rng())
        assert net.cells[(0, 0)].generation == 1
        assert net.cells[(0, 2)].generation == 1
        assert net.max_factor_reached() == 2

    def test_composed_splits_multiply_fractions(self):
        net = flat_network(util=80.0, thr=1.0, history=2)
        policy = SplitPolicy(r_min=50.0, r_max=50.0, max_factor=4)
        rng = policy.rng()
        net.split((0, 0), policy, rng)
        net.split((0, 0), policy, rng)
        assert net.cells[(0, 0)].load_fraction == pytest.approx(0.25)
        prb, thr = net.realize_hour()[0]
        assert prb == pytest.approx(20.0)
        assert thr == pytest.approx(4.0)

    def test_split_past_cap_refused_and_network_unchanged(self):
        net = flat_network(history=4)
        policy = SplitPolicy(r_min=70.0, r_max=70.0, max_factor=2)
        net.split((0, 0), policy, policy.rng())
        parent = net.cells[(0, 0)]
        before = (sorted(net.cells), list(net.split_events), net.kpis.shape,
                  parent.cell_id, parent.load_fraction)
        with pytest.raises(SplitRefusedError, match=r"split factor 2 \(max 2\)"):
            net.split((0, 0), policy, policy.rng())
        assert (sorted(net.cells), net.split_events, net.kpis.shape,
                parent.cell_id, parent.load_fraction) == before
        # the next split in the eNB still takes the next free cell index
        event = net.split((0, 1), policy, policy.rng())
        assert event.child == CellId(0, 3, 1)

    def test_child_index_is_one_past_its_enbs_highest(self):
        base = [
            KpiSeries.from_arrays(CellId(enb, c), 0, [80.0] * 8, [2.0] * 8)
            for enb, c in [(0, 0), (0, 4), (1, 0)]
        ]
        net = SimulatedNetwork(base, throughput_cap=10.0, history_hours=2)
        policy = SplitPolicy(r_min=70.0, r_max=70.0, max_factor=4)
        rng = policy.rng()
        assert net.split((0, 0), policy, rng).child == CellId(0, 5, 1)
        assert net.split((1, 0), policy, rng).child == CellId(1, 1, 1)
        # a child split again takes the eNB's next index, not its parent's
        assert net.split((0, 5), policy, rng).child == CellId(0, 6, 2)

    def test_child_history_starts_at_split(self):
        net = flat_network(history=6)
        policy = SplitPolicy(r_min=70.0, r_max=70.0)
        net.split((0, 0), policy, policy.rng())
        net.realize_hour()
        child = net.cells[(0, 2)]
        assert child.created_at == 6
        assert len(net.realized((0, 2))) == net.hour - child.created_at == 1
        assert net.trailing_window((0, 2), 2) is None
        assert net.trailing_window((0, 0), 2).shape == (2, 2)

    def test_training_history_truncated_at_split(self):
        net = flat_network(history=6)
        policy = SplitPolicy(r_min=70.0, r_max=70.0)
        net.split((0, 0), policy, policy.rng())
        net.realize_hour()
        net.realize_hour()
        hist = net.training_history((0, 0))
        assert hist.start == 6 and len(hist) == 2
        untouched = net.training_history((0, 1))
        assert untouched.start == 0 and len(untouched) == 8

    def test_active_cells_after_split(self):
        net = flat_network(history=2)
        policy = SplitPolicy(r_min=70.0, r_max=70.0)
        net.split((0, 1), policy, policy.rng())
        ids = [net.cells[k].cell_id for k in net.active_keys()]
        assert ids == [CellId(0, 0, 0), CellId(0, 1, 1), CellId(0, 2, 1)]


class TestWindows:
    def test_realized_series_clipping(self):
        net = flat_network(history=4)
        policy = SplitPolicy(r_min=70.0, r_max=70.0)
        net.split((0, 0), policy, policy.rng())
        for _ in range(3):
            net.realize_hour()
        window = net.realized_series(2, 5)
        by_cell = {s.cell: s for s in window}
        assert len(by_cell[CellId(0, 1, 0)]) == 5
        assert len(by_cell[CellId(0, 2, 1)]) == 3  # born at hour 4

    def test_window_skips_hours_before_birth(self):
        net = flat_network(history=4)
        policy = SplitPolicy(r_min=70.0, r_max=70.0)
        net.split((0, 0), policy, policy.rng())
        net.realize_hour()
        window = net.window((0, 2), 3, 2)
        assert (window.cell, window.start, len(window)) == (CellId(0, 2, 1), 4, 1)
