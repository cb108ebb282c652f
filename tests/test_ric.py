"""Tests for the simulated control plane: hosts, messages, and the loop."""

import pytest

from oransim.forecast import LstmConfig, TrainingConfig, model_from_json, predict_from_window
from oransim.kpi import CellId, CongestionRule, KpiSample, KpiSeries
from oransim.network import SimulatedNetwork
from oransim.ric import (
    ControlLoopConfig,
    CpmXapp,
    DataCollector,
    EventLog,
    EventTag,
    NonRtRic,
    run_control_loop,
)
from oransim.ric.messages import A1Deployment, ModelPerformanceFeedback, O1Report
from oransim.splitting import SplitPolicy
from oransim.traffic import SyntheticProfile

LSTM_TINY = LstmConfig(n_layers=1, units_per_layer=4, input_dim=2, output_dim=2)
TRAIN_TINY = TrainingConfig(epochs=4, lookback=6, seed=3)


def flat_network(n_hours=60, util=50.0, thr=5.0, cells=2, history=24):
    base = [
        KpiSeries.from_arrays(CellId(0, c), 0, [util] * n_hours, [thr] * n_hours)
        for c in range(cells)
    ]
    return SimulatedNetwork(base, throughput_cap=10.0, history_hours=history)


def congested_network(n_hours=96, history=40, cells=3):
    """First cell persistently congested, others clear.

    Constant per-cell KPIs make the forecasts exact (degenerate min-max
    stats), so the alarm and split mechanics are exercised deterministically
    even with a tiny training budget.
    """
    base = []
    for c in range(cells):
        util, thr = (96.0, 0.4) if c == 0 else (30.0 + c, 6.0)
        base.append(
            KpiSeries.from_arrays(CellId(0, c), 0, [util] * n_hours, [thr] * n_hours)
        )
    return SimulatedNetwork(base, throughput_cap=10.0, history_hours=history)


def tiny_loop(network, horizon=12, factor=2, **loop_kwargs):
    loop_kwargs.setdefault("max_split_factor", factor)
    loop_kwargs.setdefault("split_cooldown_hours", 6)
    loop_kwargs.setdefault("retrain_cooldown_hours", 6)
    return run_control_loop(
        network,
        rule=CongestionRule(),
        lstm_cfg=LSTM_TINY,
        train_cfg=TRAIN_TINY,
        loop_cfg=ControlLoopConfig(**loop_kwargs),
        split_policy=SplitPolicy(max_factor=factor, seed=11),
        horizon_hours=horizon,
    )


class TestCollectorAndBus:
    def test_collect_covers_all_active_cells(self):
        net = flat_network(cells=3, history=24)
        log = EventLog()
        report = DataCollector(log).collect(net, 0, 24)
        assert len(report.payload) == 3
        assert report.n_samples == 72
        assert log[0].tag == EventTag.O1_COLLECT

    def test_future_window_rejected(self):
        net = flat_network(history=10)
        with pytest.raises(ValueError):
            DataCollector(EventLog()).collect(net, 0, 11)

    def test_report_window_invariant(self):
        with pytest.raises(ValueError):
            O1Report(0, 2, {CellId(0, 0): (5, 1)}, (CellId(0, 0),))
        with pytest.raises(ValueError):
            O1Report(0, 2, {CellId(0, 0): (1, 2)}, (CellId(0, 0),))
        O1Report(0, 2, {CellId(0, 0): (1, 1), CellId(0, 1): (0, 0)},
                 (CellId(0, 0), CellId(0, 1)))


class TestTrainingRound:
    def test_first_deployment_is_version_one(self):
        net = flat_network(history=40)
        log = EventLog()
        non_rt = NonRtRic(log)
        histories = {k: net.series(k) for k in net.active_keys()}
        failures = non_rt.train_and_update(histories, LSTM_TINY, TRAIN_TINY, hour=40)
        assert failures == []
        targets = {k: net.cells[k].cell_id for k in net.active_keys()}
        d1 = non_rt.build_deployment(CongestionRule(), targets, hour=40)
        d2 = non_rt.build_deployment(CongestionRule(), targets, hour=41)
        assert d1.version == 1 and d2.version == 2
        assert set(d1.models) == set(targets.values())

    def test_short_history_cell_excluded(self):
        net = flat_network(history=40)
        log = EventLog()
        non_rt = NonRtRic(log)
        histories = {k: net.series(k) for k in net.active_keys()}
        short = KpiSeries.from_arrays(CellId(0, 9), 0, [50.0] * 5, [5.0] * 5)
        histories[(0, 9)] = short
        failures = non_rt.train_and_update(histories, LSTM_TINY, TRAIN_TINY, hour=40)
        assert failures == [(0, 9)]
        assert not non_rt.has_model((0, 9))

    def test_deployment_requires_capability_negotiation(self):
        log = EventLog()
        non_rt = NonRtRic(log)
        with pytest.raises(RuntimeError):
            non_rt.build_deployment(CongestionRule(), {}, hour=0)


class TestXapp:
    def deployed_xapp(self, net):
        log = EventLog()
        non_rt = NonRtRic(log)
        histories = {k: net.series(k) for k in net.active_keys()}
        non_rt.train_and_update(histories, LSTM_TINY, TRAIN_TINY, hour=net.hour)
        targets = {k: net.cells[k].cell_id for k in net.active_keys()}
        deployment = non_rt.build_deployment(CongestionRule(), targets, hour=net.hour)
        xapp = CpmXapp(log)
        xapp.receive_deployment(deployment)
        return xapp, log

    def test_alarm_follows_rule_on_prediction(self):
        net = flat_network(history=40)
        xapp, _ = self.deployed_xapp(net)
        congested_pred = KpiSample(40, 90.0, 0.5)
        clear_pred = KpiSample(40, 20.0, 5.0)
        from oransim.kpi import evaluate_congestion
        assert evaluate_congestion(congested_pred, xapp.deployment.policy)
        assert not evaluate_congestion(clear_pred, xapp.deployment.policy)

    def test_infer_is_deterministic(self):
        net = flat_network(history=40)
        xapp, _ = self.deployed_xapp(net)
        windows = {
            k: (net.cells[k].cell_id, net.trailing_window(k, TRAIN_TINY.lookback))
            for k in net.active_keys()
        }
        a = xapp.infer(windows, hour=net.hour, lookback=TRAIN_TINY.lookback)
        b = xapp.infer(windows, hour=net.hour, lookback=TRAIN_TINY.lookback)
        assert a == b

    def test_fleet_cache_follows_redeployments(self):
        profile = SyntheticProfile(n_enb=1, cells_per_enb=3, n_days=4, seed=8)
        net = SimulatedNetwork.from_profile(profile, history_hours=48)
        log = EventLog()
        non_rt = NonRtRic(log)
        xapp = CpmXapp(log)
        rule = CongestionRule()
        lookback = TRAIN_TINY.lookback

        def deploy(keys):
            targets = {k: net.cells[k].cell_id for k in keys}
            deployment = non_rt.build_deployment(rule, targets, hour=net.hour)
            xapp.receive_deployment(deployment)
            return deployment

        def windows():
            out = {}
            for k in net.active_keys():
                window = net.trailing_window(k, lookback)
                if window is not None:
                    out[k] = (net.cells[k].cell_id, window)
            return out

        def check_infer(deployment, expected_keys):
            got = xapp.infer(windows(), hour=net.hour, lookback=lookback)
            assert sorted(got) == expected_keys
            for key, (cell_id, pred, alarm) in got.items():
                model = model_from_json(deployment.models[cell_id].decode("utf-8"))
                window = net.trailing_window(key, lookback)
                assert pred == predict_from_window(model, window, net.hour)
                assert cell_id == net.cells[key].cell_id

        histories = {k: net.series(k) for k in net.active_keys()}
        non_rt.train_and_update(histories, LSTM_TINY, TRAIN_TINY, hour=net.hour)
        check_infer(deploy(net.active_keys()), [(0, 0), (0, 1), (0, 2)])
        fleets = xapp._fleets
        deploy(net.active_keys())
        assert xapp._fleets is fleets  # nothing parsed, no cell dropped: no rebuild

        # retrain one cell, split another; the child gets its parent's blob
        retrain = TrainingConfig(epochs=2, lookback=lookback, seed=99)
        non_rt.train_and_update({(0, 1): net.series((0, 1))}, LSTM_TINY, retrain, hour=net.hour)
        policy = SplitPolicy(r_min=70.0, r_max=70.0)
        event = net.split((0, 2), policy, policy.rng(), net.hour)
        child = (event.child.enb, event.child.cell)
        non_rt.register_child((0, 2), child)
        deployment = deploy(net.active_keys())
        assert deployment.digests[event.child] == deployment.digests[net.cells[(0, 2)].cell_id]
        # the child has no trailing window yet: only the covered cells are predicted
        check_infer(deployment, [(0, 0), (0, 1), (0, 2)])
        for _ in range(lookback):
            net.realize_hour()
        deployment = deploy(net.active_keys())
        check_infer(deployment, [(0, 0), (0, 1), (0, 2), child])

        # a redeploy that drops a cell stops predicting it
        deployment = deploy([(0, 0), (0, 2), child])
        check_infer(deployment, [(0, 0), (0, 2), child])

    def test_stale_version_rejected(self):
        net = flat_network(history=40)
        xapp, log = self.deployed_xapp(net)
        with pytest.raises(ValueError):
            xapp.receive_deployment(xapp.deployment)

    def test_e2_for_non_alarmed_cell_rejected(self):
        net = flat_network(history=40)
        xapp, _ = self.deployed_xapp(net)
        with pytest.raises(ValueError, match="non-alarmed"):
            xapp.issue_e2(CellId(0, 0), alarmed=set(), policy=SplitPolicy(), hour=40)

    def test_e2_at_factor_cap_rejected(self):
        net = flat_network(history=40)
        xapp, _ = self.deployed_xapp(net)
        cell = CellId(0, 0, 1)
        with pytest.raises(ValueError, match="cap"):
            xapp.issue_e2(cell, alarmed={cell}, policy=SplitPolicy(max_factor=2), hour=40)

    def test_feedback_flags_below_threshold(self):
        net = flat_network(history=40)
        xapp, _ = self.deployed_xapp(net)
        evaluations = {
            (0, 0): (CellId(0, 0), 95.0),
            (0, 1): (CellId(0, 1), 50.0),
        }
        feedbacks = xapp.feedback(evaluations, threshold=90.0, hour=40)
        assert [f.misprediction for f in feedbacks] == [False, True]

    def test_feedback_accuracy_bounds(self):
        with pytest.raises(ValueError):
            ModelPerformanceFeedback(CellId(0, 0), 101.0, False)

    def test_empty_feedback_window_is_an_error(self):
        net = flat_network(history=40)
        xapp, _ = self.deployed_xapp(net)
        with pytest.raises(ValueError, match="empty feedback window"):
            xapp.feedback({}, threshold=90.0, hour=40)


class TestControlLoop:
    def test_no_congestion_means_no_e2(self):
        net = flat_network(n_hours=60, history=40)
        result = tiny_loop(net, horizon=10)
        tags = [e.tag for e in result.log]
        assert EventTag.E2_CONTROL not in tags
        assert EventTag.ALARM_RAISED not in tags
        assert result.metrics["splits_issued"] == 0

    def test_first_cycle_event_order(self):
        net = flat_network(n_hours=60, history=40)
        result = tiny_loop(net, horizon=4)
        first_cycle = [e.tag for e in result.log if e.hour == 40]
        assert first_cycle == [
            EventTag.O1_COLLECT,
            EventTag.BUS_PUBLISH,
            EventTag.CAPABILITY_QUERY,
            EventTag.TRAIN_REQUEST,
            EventTag.TRAINED_MODEL,
            EventTag.A1_DEPLOY,
            EventTag.INFERENCE,
            EventTag.FEEDBACK,
        ]

    def test_deterministic_event_log(self):
        a = tiny_loop(congested_network(), horizon=24)
        b = tiny_loop(congested_network(), horizon=24)
        assert a.log.events == b.log.events
        assert a.metrics == b.metrics

    def test_congested_scenario_splits_and_improves(self):
        result = tiny_loop(congested_network(), horizon=48)
        assert result.metrics["splits_issued"] >= 1
        assert (
            result.metrics["congested_hours_after"]
            < result.metrics["congested_hours_baseline"]
        )
        tags = [e.tag for e in result.log]
        assert tags.count(EventTag.E2_CONTROL) == result.metrics["splits_issued"]

    def test_e2_only_after_alarm_same_cell_same_cycle(self):
        result = tiny_loop(congested_network(), horizon=48)
        by_hour = {}
        for e in result.log:
            by_hour.setdefault(e.hour, []).append(e)
        for events in by_hour.values():
            alarmed = set()
            for e in events:
                if e.tag == EventTag.ALARM_RAISED:
                    alarmed.add(e.cells[0])
                elif e.tag == EventTag.E2_CONTROL:
                    assert e.cells[0] in alarmed

    def test_deployment_versions_strictly_increase(self):
        result = tiny_loop(congested_network(), horizon=24)
        versions = [d["version"] for d in result.deployments]
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)
        assert versions[0] == 1

    def test_split_cells_get_models_and_rejoin_inference(self):
        result = tiny_loop(congested_network(n_hours=120, history=40), horizon=72)
        assert result.metrics["splits_issued"] >= 1
        child_ids = {e.child for e in result.network.split_events}
        inferred = set()
        for e in result.log:
            if e.tag == EventTag.INFERENCE:
                inferred.update((c.enb, c.cell) for c in e.cells)
        assert all((c.enb, c.cell) in inferred for c in child_ids)

    def test_early_termination_on_target(self):
        net = flat_network(n_hours=80, history=40)
        result = tiny_loop(net, horizon=30, max_congested_hours=0, target_window_hours=4)
        assert result.terminated_early
        assert result.end_hour < 70
        assert result.metrics["terminated_early"] is True

    def test_liveness_always_congested_cell(self):
        # constant congestion and a strictly load-reducing split: the loop
        # must reach the factor cap (or the target) within the horizon
        n_hours, history = 120, 40
        base = [
            KpiSeries.from_arrays(
                CellId(0, 0), 0, [96.0] * n_hours, [0.4] * n_hours
            )
        ]
        net = SimulatedNetwork(base, throughput_cap=10.0, history_hours=history)
        result = tiny_loop(net, horizon=60, factor=8, split_cooldown_hours=2,
                           retrain_cooldown_hours=2)
        assert result.metrics["max_split_factor_reached"] == 8

    def test_horizon_validation(self):
        net = flat_network(history=30)
        with pytest.raises(ValueError):
            tiny_loop(net, horizon=0)
        with pytest.raises(ValueError):
            tiny_loop(net, horizon=500)

    def test_policy_factor_mismatch_rejected(self):
        net = flat_network(history=40)
        with pytest.raises(ValueError, match="max_factor"):
            run_control_loop(
                net,
                rule=CongestionRule(),
                lstm_cfg=LSTM_TINY,
                train_cfg=TRAIN_TINY,
                loop_cfg=ControlLoopConfig(max_split_factor=4),
                split_policy=SplitPolicy(max_factor=2),
                horizon_hours=8,
            )

    def test_collection_period_two(self):
        net = flat_network(n_hours=70, history=40)
        result = tiny_loop(net, horizon=10, collection_period=2)
        collects = [e for e in result.log if e.tag == EventTag.O1_COLLECT]
        assert [e.hour for e in collects] == [40, 42, 44, 46, 48]


class TestEventLog:
    def test_jsonl_round_trip(self):
        result = tiny_loop(congested_network(), horizon=24)
        text = result.log.to_jsonl()
        parsed = EventLog.parse_jsonl(text)
        assert parsed == list(result.log.events)

    def test_append_only_ordering(self):
        log = EventLog()
        log.append(EventTag.O1_COLLECT, hour=5)
        with pytest.raises(ValueError):
            log.append(EventTag.BUS_PUBLISH, hour=4)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            EventLog().append("Bogus", hour=0)

    def test_deployment_schema_dump(self):
        d = A1Deployment(
            1, CongestionRule(), {CellId(0, 1): b"{}"}, {CellId(0, 1): "abcd"}
        )
        doc = d.to_json_dict()
        assert doc == {
            "version": 1,
            "policy": {"throughput_max": 1.0, "prb_min": 80.0},
            "models": {"e0c1g0": "abcd"},
        }
