"""Tests for the simulated control plane: hosts, messages, and the loop."""

import json
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest

from oransim.forecast import (
    ForecastModel,
    LstmConfig,
    NormStats,
    TrainingConfig,
    accuracy,
    init_model,
    model_digest,
    param_arrays,
    predict_from_window,
)
from oransim.kpi import CellId, CongestionRule, KpiSample, KpiSeries, evaluate_congestion
from oransim.network import SimulatedNetwork
from oransim.ric import (
    ControlLoopConfig,
    CpmXapp,
    DataCollector,
    EventLog,
    EventTag,
    NonRtRic,
    payload_digest,
    run_control_loop,
)
from oransim.ric.messages import A1Deployment, ModelPerformanceFeedback
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
        assert report.source == (CellId(0, 0), CellId(0, 1), CellId(0, 2))
        assert report.n_samples == 72
        assert log[0].tag == EventTag.O1_COLLECT

    def test_collect_counts_child_hours_from_birth(self):
        net = flat_network(cells=2, history=24)
        policy = SplitPolicy(r_min=70.0, r_max=70.0)
        net.split((0, 0), policy, policy.rng())
        for _ in range(4):
            net.realize_hour()
        report = DataCollector(EventLog()).collect(net, 20, 8)
        assert report.source == (CellId(0, 0, 1), CellId(0, 1), CellId(0, 2, 1))
        assert report.n_samples == 8 + 8 + 4  # the child exists from hour 24 on

    def test_future_window_rejected(self):
        net = flat_network(history=10)
        with pytest.raises(ValueError):
            DataCollector(EventLog()).collect(net, 0, 11)


class TestTrainingRound:
    def test_first_deployment_is_version_one(self):
        net = flat_network(history=40)
        log = EventLog()
        non_rt = NonRtRic(log)
        histories = {k: net.training_history(k) for k in net.active_keys()}
        failures = non_rt.train_and_update(histories, LSTM_TINY, TRAIN_TINY, hour=40)
        assert failures == []
        d1, _ = non_rt.build_deployment(CongestionRule(), net)
        d2, _ = non_rt.build_deployment(CongestionRule(), net)
        assert d1.version == 1 and d2.version == 2
        assert set(d1.models) == {net.cells[k].cell_id for k in net.active_keys()}
        assert [e.hour for e in log if e.tag == EventTag.A1_DEPLOY] == [40, 40]

    def test_short_history_cell_excluded(self):
        net = flat_network(history=40)
        log = EventLog()
        non_rt = NonRtRic(log)
        histories = {k: net.training_history(k) for k in net.active_keys()}
        short = KpiSeries.from_arrays(CellId(0, 9), 0, [50.0] * 5, [5.0] * 5)
        histories[(0, 9)] = short
        failures = non_rt.train_and_update(histories, LSTM_TINY, TRAIN_TINY, hour=40)
        assert failures == [(0, 9)]
        trained = next(e for e in log if e.tag == EventTag.TRAINED_MODEL)
        assert trained.cells == (CellId(0, 0), CellId(0, 1))

    def test_models_are_held_and_deployed_by_reference(self):
        net = flat_network(history=40)
        non_rt = NonRtRic(EventLog())
        histories = {k: net.training_history(k) for k in net.active_keys()}
        non_rt.train_and_update(histories, LSTM_TINY, TRAIN_TINY, hour=40)
        targets = {k: net.cells[k].cell_id for k in net.active_keys()}
        deployment, _ = non_rt.build_deployment(CongestionRule(), net)
        held = [v for a in vars(non_rt).values() if isinstance(a, dict) for v in a.values()]
        assert not any(isinstance(v, (bytes, str)) and len(v) > 16 for v in held)
        for cell_id, model in deployment.models.items():
            assert isinstance(model, ForecastModel)
            assert deployment.digests[cell_id] == model_digest(model)
        xapp = CpmXapp(EventLog())
        xapp.receive_deployment(deployment)
        _, keys, stack = xapp._fleet
        assert keys == sorted(targets)
        for m, key in enumerate(keys):
            model = deployment.models[targets[key]]
            for stacked, own in zip(param_arrays(stack), param_arrays(model)):
                assert np.shares_memory(stacked[m], own)


class TestXapp:
    def deployed_xapp(self, net):
        log = EventLog()
        non_rt = NonRtRic(log)
        histories = {k: net.training_history(k) for k in net.active_keys()}
        non_rt.train_and_update(histories, LSTM_TINY, TRAIN_TINY, hour=net.hour)
        deployment, _ = non_rt.build_deployment(CongestionRule(), net)
        xapp = CpmXapp(log)
        xapp.receive_deployment(deployment)
        return xapp, log

    def test_alarm_follows_rule_on_prediction(self):
        net = flat_network(history=40)
        xapp, _ = self.deployed_xapp(net)
        congested_pred = KpiSample(40, 90.0, 0.5)
        clear_pred = KpiSample(40, 20.0, 5.0)
        assert evaluate_congestion(congested_pred, xapp.deployment.policy)
        assert not evaluate_congestion(clear_pred, xapp.deployment.policy)

    def test_infer_is_deterministic(self):
        net = flat_network(history=40)
        xapp, _ = self.deployed_xapp(net)
        a = xapp.infer(net, lookback=TRAIN_TINY.lookback)
        b = xapp.infer(net, lookback=TRAIN_TINY.lookback)
        assert list(a) == list(b) == net.active_keys()
        assert all(a[k][0].tolist() == b[k][0].tolist() and a[k][1] == b[k][1] for k in a)
        for k, (pred, _) in a.items():
            assert net.predictions[net.hour, net.cells[k].column].tolist() == pred.tolist()

    def test_e2_record_is_the_payload_it_logs(self):
        log = EventLog()
        policy = SplitPolicy(r_min=55.0, r_max=65.0, max_factor=4)
        line = CpmXapp(log).issue_e2(CellId(0, 2, 1), policy, hour=41)
        (event,) = log
        assert event.tag == EventTag.E2_CONTROL and event.cells == (CellId(0, 2, 1),)
        assert json.loads(line) == {
            "target": CellId(0, 2, 1).to_json(),
            "action": "CellSplit",
            "policy": {"r_min": 55.0, "r_max": 65.0, "max_factor": 4},
            "issued_at": 41,
        }
        assert payload_digest(json.loads(line)) == event.digest

    def test_non_finite_prediction_is_an_error(self):
        net = flat_network(history=40)
        xapp, _ = self.deployed_xapp(net)
        _, _, fleet = xapp._fleet
        fleet.head.b[0, 0, 0] = np.nan  # the stack's array, viewed by the first model
        with pytest.raises(ValueError, match="non-finite prediction"):
            xapp.infer(net, lookback=TRAIN_TINY.lookback)

    def test_fleet_cache_follows_redeployments(self):
        profile = SyntheticProfile(n_enb=1, cells_per_enb=3, n_days=4, seed=8)
        net = SimulatedNetwork.from_profile(profile, history_hours=48)
        log = EventLog()
        non_rt = NonRtRic(log)
        xapp = CpmXapp(log)
        rule = CongestionRule()
        lookback = TRAIN_TINY.lookback

        def deploy():
            deployment, _ = non_rt.build_deployment(rule, net)
            xapp.receive_deployment(deployment)
            return deployment

        def check_infer(deployment, expected_keys):
            got = xapp.infer(net, lookback=lookback)
            assert sorted(got) == expected_keys
            for key, (pred, alarm) in got.items():
                cell_id = net.cells[key].cell_id
                window = net.trailing_window(key, lookback)
                expected = predict_from_window(deployment.models[cell_id], window, net.hour)
                assert pred.tolist() == [expected.prb_util, expected.ip_throughput]
                assert alarm == evaluate_congestion(expected, rule)

        histories = {k: net.training_history(k) for k in net.active_keys()}
        non_rt.train_and_update(histories, LSTM_TINY, TRAIN_TINY, hour=net.hour)
        check_infer(deploy(), [(0, 0), (0, 1), (0, 2)])
        fleet = xapp._fleet
        deploy()
        assert xapp._fleet is fleet  # no model changed, no cell dropped: no rebuild

        # retrain one cell, split another; the child gets its parent's model
        retrain = TrainingConfig(epochs=2, lookback=lookback, seed=99)
        non_rt.train_and_update({(0, 1): net.training_history((0, 1))}, LSTM_TINY, retrain, hour=net.hour)
        policy = SplitPolicy(r_min=70.0, r_max=70.0)
        event = net.split((0, 2), policy, policy.rng())
        child = (event.child.enb, event.child.cell)
        non_rt.register_child((0, 2), child)
        deployment = deploy()
        assert deployment.digests[event.child] == deployment.digests[net.cells[(0, 2)].cell_id]
        # the child has no trailing window yet: only the covered cells are predicted
        check_infer(deployment, [(0, 0), (0, 1), (0, 2)])
        for _ in range(lookback):
            net.realize_hour()
        deployment = deploy()
        check_infer(deployment, [(0, 0), (0, 1), (0, 2), child])

        # a redeploy that drops a cell stops predicting it
        kept = [net.cells[k].cell_id for k in [(0, 0), (0, 2), child]]
        deployment = A1Deployment(
            deployment.version + 1,
            rule,
            {c: deployment.models[c] for c in kept},
            {c: deployment.digests[c] for c in kept},
        )
        xapp.receive_deployment(deployment)
        check_infer(deployment, [(0, 0), (0, 2), child])

    def test_stale_version_rejected(self):
        net = flat_network(history=40)
        xapp, log = self.deployed_xapp(net)
        with pytest.raises(ValueError):
            xapp.receive_deployment(xapp.deployment)

    def test_feedback_flags_below_threshold(self):
        net = flat_network(history=40)  # every realized hour is (50.0, 5.0)
        xapp, _ = self.deployed_xapp(net)
        net.predictions[40, 0] = [52.5, 5.25]  # 5% off: 95% accurate
        net.predictions[40, 1] = [75.0, 2.5]   # 50% off: 50% accurate
        net.realize_hour()
        feedbacks = xapp.feedback(net, hour=40, window_hours=24, threshold=90.0)
        assert [f.cell for f in feedbacks] == [CellId(0, 0), CellId(0, 1)]
        assert [f.window_accuracy for f in feedbacks] == pytest.approx([95.0, 50.0])
        assert [f.misprediction for f in feedbacks] == [False, True]

    def test_feedback_accuracy_bounds(self):
        with pytest.raises(ValueError):
            ModelPerformanceFeedback(CellId(0, 0), 101.0, False)

    def test_empty_feedback_window_is_an_error(self):
        net = flat_network(history=40)
        xapp, _ = self.deployed_xapp(net)
        with pytest.raises(ValueError, match="empty feedback window"):
            xapp.feedback(net, hour=40, window_hours=24, threshold=90.0)


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
        versions = [json.loads(line)["version"] for line in result.deployments]
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)
        assert versions[0] == 1

    def test_split_cells_get_models_and_rejoin_inference(self):
        net = congested_network(n_hours=120, history=40)
        result = tiny_loop(net, horizon=72)
        assert result.metrics["splits_issued"] >= 1
        child_ids = {e.child for e in net.split_events}
        inferred = set()
        for e in result.log:
            if e.tag == EventTag.INFERENCE:
                inferred.update((c.enb, c.cell) for c in e.cells)
        assert all((c.enb, c.cell) in inferred for c in child_ids)

    def test_early_termination_on_target(self):
        net = flat_network(n_hours=80, history=40)
        result = tiny_loop(net, horizon=30, max_congested_hours=0, target_window_hours=4)
        assert result.metrics["terminated_early"] is True
        assert result.metrics["end_hour"] < 70

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


def reference_evaluations(network, predictions, hour, feedback_window_hours):
    """The loop's former feedback pairing, from per-cell lists of (hour, KpiSample)."""
    evaluations = {}
    window_lo = hour + 1 - feedback_window_hours
    for key in network.active_keys():
        cell = network.cells[key]
        pairs = [
            (ph - cell.created_at, pred)
            for ph, pred in predictions[key]
            if ph >= window_lo and 0 <= ph - cell.created_at < network.hour - cell.created_at
        ]
        if not pairs:
            continue
        rows, preds = zip(*pairs)
        pred_arr = np.array([[p.prb_util, p.ip_throughput] for p in preds])
        act_arr = network.realized(key)[list(rows)]
        evaluations[key] = (cell.cell_id, accuracy(pred_arr, act_arr))
    return evaluations


def reference_retrain(evaluations, active_keys, has_model, last_train_attempt, hour,
                      threshold, cooldown):
    """The loop's former two-pass retrain flagging: cooled cells below the
    threshold, then cooled cells with no model yet."""
    flagged = []
    for key in sorted(evaluations):
        cell_id, acc = evaluations[key]
        cooled = key not in last_train_attempt or hour - last_train_attempt[key] >= cooldown
        if acc < threshold and cooled:
            flagged.append(key)
    for key in active_keys:
        if has_model(key) or key in flagged:
            continue
        if key not in last_train_attempt or hour - last_train_attempt[key] >= cooldown:
            flagged.append(key)
    flagged.sort()
    return flagged


FEEDBACK_LOOPS = pytest.mark.parametrize(
    "make_network, kwargs",
    [
        (lambda: congested_network(n_hours=120, history=40), dict(horizon=60, factor=4)),
        (lambda: congested_network(n_hours=120, history=40),
         dict(horizon=60, collection_period=3, feedback_window_hours=10)),
        (lambda: congested_network(n_hours=120, history=40),
         dict(horizon=60, collection_period=5, feedback_window_hours=12,
              split_cooldown_hours=0)),
        (lambda: congested_network(n_hours=120, history=40),
         dict(horizon=60, collection_period=2, max_congested_hours=0,
              target_window_hours=12)),
    ],
    ids=["splits", "period-3", "period-5", "early-stop"],
)


class TestFeedbackPairing:
    """Every cycle's feedback equals the list-based reference pairing, bit for
    bit, and every cycle's retrain flags equal the two-pass reference rule."""

    @FEEDBACK_LOOPS
    def test_matches_list_reference(self, make_network, kwargs):
        network = make_network()
        window = kwargs.get("feedback_window_hours", 24)
        predictions = defaultdict(list)
        checked = []
        infer, feedback = CpmXapp.infer, CpmXapp.feedback

        def recording_infer(self, net, lookback):
            hour = net.hour
            results = infer(self, net, lookback)
            for key, (pred, _) in results.items():
                predictions[key].append((hour, KpiSample(hour, *pred.tolist())))
            return results

        def checking_feedback(self, net, hour, window_hours, threshold):
            assert window_hours == window
            feedbacks = feedback(self, net, hour, window_hours, threshold)
            expected = reference_evaluations(network, predictions, hour, window)
            assert feedbacks == [
                ModelPerformanceFeedback(cell_id, acc, acc < threshold)
                for _, (cell_id, acc) in sorted(expected.items())
            ]
            checked.append(feedbacks)
            return feedbacks

        with mock.patch.object(CpmXapp, "infer", recording_infer), \
                mock.patch.object(CpmXapp, "feedback", checking_feedback):
            result = tiny_loop(network, **kwargs)
        assert result.final_feedback == checked[-1]
        assert len(checked) == sum(e.tag == EventTag.FEEDBACK for e in result.log) > 2
        assert result.metrics["splits_issued"] >= 1
        assert result.metrics["terminated_early"] == ("max_congested_hours" in kwargs)

    @FEEDBACK_LOOPS
    def test_retrain_matches_two_pass_reference(self, make_network, kwargs):
        network = make_network()
        cooldown = 6  # tiny_loop's retrain_cooldown_hours
        hosts, last_train_attempt, expected = {}, {}, {}
        train, feedback = NonRtRic.train_and_update, CpmXapp.feedback

        def recording_train(self, histories, lstm_cfg, train_cfg, hour):
            hosts["non_rt"] = self
            last_train_attempt.update(dict.fromkeys(histories, hour))
            return train(self, histories, lstm_cfg, train_cfg, hour)

        def recording_feedback(self, net, hour, window_hours, threshold):
            feedbacks = feedback(self, net, hour, window_hours, threshold)
            evaluations = {(f.cell.enb, f.cell.cell): (f.cell, f.window_accuracy)
                           for f in feedbacks}
            flagged = reference_retrain(
                evaluations, network.active_keys(), hosts["non_rt"]._models.__contains__,
                last_train_attempt, hour, threshold, cooldown,
            )
            if flagged:
                expected[hour] = [network.cells[k].cell_id for k in flagged]
            return feedbacks

        with mock.patch.object(NonRtRic, "train_and_update", recording_train), \
                mock.patch.object(CpmXapp, "feedback", recording_feedback):
            result = tiny_loop(network, **kwargs)
        got = {e.hour: list(e.cells) for e in result.log if e.tag == EventTag.RETRAIN}
        assert got == expected
        assert expected


class TestFirstRoundTrainsEveryCell:
    """The first round must train every active cell, so every cell, and every
    child split from one, has a model from the first cycle on."""

    def split_network(self, hours_since_split):
        profile = SyntheticProfile(n_enb=1, cells_per_enb=3, n_days=6, seed=8)
        network = SimulatedNetwork.from_profile(profile, history_hours=60 - hours_since_split)
        policy = SplitPolicy(max_factor=4, seed=11)
        network.split((0, 0), policy, policy.rng())
        for _ in range(hours_since_split):
            network.realize_hour()
        return network, policy

    def run(self, network, policy):
        return run_control_loop(
            network,
            rule=CongestionRule(),
            lstm_cfg=LSTM_TINY,
            train_cfg=TrainingConfig(batch_size=8, epochs=2, lookback=6, seed=3),
            loop_cfg=ControlLoopConfig(retrain_accuracy_threshold=95.0, max_split_factor=4),
            split_policy=policy,
            horizon_hours=24,
        )

    def test_halves_too_short_to_train_are_refused_before_any_event(self):
        network, policy = self.split_network(hours_since_split=3)
        with mock.patch.object(EventLog, "append") as append, \
                pytest.raises(ValueError, match="leaves 3 of the traffic's 144 hours"):
            self.run(network, policy)
        append.assert_not_called()

    def test_halves_with_history_train_in_the_first_round(self):
        network, policy = self.split_network(hours_since_split=30)
        active = [network.cells[k].cell_id for k in network.active_keys()]
        result = self.run(network, policy)
        rounds = [e for e in result.log if e.tag == EventTag.TRAINED_MODEL]
        assert rounds[0].hour == 60 and list(rounds[0].cells) == active
        inference = next(e for e in result.log if e.tag == EventTag.INFERENCE)
        assert list(inference.cells) == active


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
        norm = NormStats(np.zeros(2), np.ones(2))
        model = init_model(LSTM_TINY, norm, np.random.default_rng(0))
        d = A1Deployment(1, CongestionRule(), {CellId(0, 1): model}, {CellId(0, 1): "abcd"})
        doc = d.to_json_dict()
        assert doc == {
            "version": 1,
            "policy": {"throughput_max": 1.0, "prb_min": 80.0},
            "models": {"e0c1g0": "abcd"},
        }
