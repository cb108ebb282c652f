"""The hour-by-hour control loop. Each cycle calls the hosts in a fixed
order, which is exactly what the offline validator checks:

    O1Collect -> BusPublish -> (CapabilityQuery -> TrainRequest ->
    TrainedModel)? -> A1Deploy -> Inference -> (AlarmRaised E2Control?)* ->
    Feedback -> Retrain*

The hosts do each step's work on the network; the loop decides only which
alarmed cells split and which cells retrain, and logs those retrain flags
and the bus publish. The first cycle trains every active cell, and a split
child starts from its parent's model, so every cell has a model from then
on. A cell retrains when feedback flags it below the accuracy threshold and
its per-cell retrain cooldown has passed. The A1 policy/model push is
re-issued every cycle with a monotonically increasing version; unchanged
models are recognized by digest at the xApp. Splits actuate immediately, so
the hour being predicted is already served by the post-split cells (the
preemptive remedy).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..forecast import InsufficientDataError, LstmConfig, TrainingConfig, train_split
from ..kpi import CongestionRule, KpiSeries, congested_hours
from ..network import CellKey, SimulatedNetwork
from ..splitting import SplitPolicy
from .hosts import CpmXapp, DataCollector, NonRtRic
from .messages import EventLog, EventTag, ModelPerformanceFeedback

__all__ = ["ControlLoopConfig", "LoopResult", "run_control_loop", "summarize_run"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ControlLoopConfig:
    """Cadence, retrain policy, split eligibility, and optional KPI target.

    ``max_congested_hours`` enables early termination: once every active
    cell shows at most that many congested hours over the trailing
    ``target_window_hours``, the loop stops. None runs the full horizon
    (the default, so evaluation windows are comparable to a baseline).
    """

    collection_period: int = 1
    retrain_accuracy_threshold: float = 90.0
    feedback_window_hours: int = 24
    max_congested_hours: int | None = None
    target_window_hours: int = 24
    max_split_factor: int = 2
    split_cooldown_hours: int = 24
    retrain_cooldown_hours: int = 24

    def __post_init__(self):
        if self.collection_period < 1:
            raise ValueError("collection_period must be >= 1")
        if not (0.0 <= self.retrain_accuracy_threshold <= 100.0):
            raise ValueError("retrain_accuracy_threshold must be in [0, 100]")
        if self.feedback_window_hours < 1 or self.target_window_hours < 1:
            raise ValueError("feedback/target windows must be >= 1 hour")
        if self.max_split_factor not in (2, 4, 8):
            raise ValueError("max_split_factor must be one of 2, 4, 8")
        if self.max_congested_hours is not None and self.max_congested_hours < 0:
            raise ValueError("max_congested_hours must be >= 0 when set")
        if self.split_cooldown_hours < 0 or self.retrain_cooldown_hours < 0:
            raise ValueError("cooldowns must be >= 0")


@dataclass
class LoopResult:
    log: EventLog
    metrics: dict                # summary.json: the window, its totals, how the run ended
    baseline: list[KpiSeries]    # no-action series of the original cells over the window
    after: list[KpiSeries]       # realized series of the cells over the window
    deployments: list[str]       # canonical JSON per A1 push
    e2_requests: list[str]       # canonical JSON per E2 CellSplit request
    final_feedback: list[ModelPerformanceFeedback]


def _target_met(network: SimulatedNetwork, rule: CongestionRule, cfg: ControlLoopConfig) -> bool:
    for key in network.active_keys():
        recent = network.realized(key)[-cfg.target_window_hours :]
        if np.count_nonzero(rule.congested(recent[:, 0], recent[:, 1])) > cfg.max_congested_hours:
            return False
    return True


def summarize_run(
    rule: CongestionRule, baseline: list[KpiSeries], after: list[KpiSeries]
) -> dict:
    """Loop-window totals against the no-action baseline on identical traffic."""

    def below_threshold_hours(series_list):
        return int(
            sum(np.count_nonzero(s.to_array()[:, 1] < rule.throughput_max) for s in series_list)
        )

    return {
        "n_cells_baseline": len(baseline),
        "n_cells_after": len(after),
        "congested_hours_baseline": int(sum(congested_hours(s, rule) for s in baseline)),
        "congested_hours_after": int(sum(congested_hours(s, rule) for s in after)),
        "hours_below_threshold_baseline": below_threshold_hours(baseline),
        "hours_below_threshold_after": below_threshold_hours(after),
    }


def run_control_loop(
    network: SimulatedNetwork,
    *,
    rule: CongestionRule,
    lstm_cfg: LstmConfig,
    train_cfg: TrainingConfig,
    loop_cfg: ControlLoopConfig,
    split_policy: SplitPolicy,
    horizon_hours: int,
) -> LoopResult:
    """Advance the scenario ``horizon_hours`` past the pre-realized history.

    Deterministic: (network traffic, configs, seeds) fully determine the
    event log and final state.
    """
    if horizon_hours < loop_cfg.collection_period:
        raise ValueError(f"horizon_hours {horizon_hours} must cover at least one "
                         f"loop.collection_period ({loop_cfg.collection_period} hours)")
    if network.hour < loop_cfg.collection_period:
        raise ValueError(
            f"horizon_hours {horizon_hours} leaves {network.hour} hours of history, fewer "
            f"than one loop.collection_period ({loop_cfg.collection_period} hours)"
        )
    if network.hour + horizon_hours > network.total_hours:
        raise ValueError(
            f"horizon {horizon_hours} exceeds remaining base traffic "
            f"({network.total_hours - network.hour} hours)"
        )
    # the first round trains every active cell, so the shortest history must
    # train: then every cell, and every child split from one, has a model
    history = min(len(network.training_history(k)) for k in network.active_keys())
    try:
        train_split(history, train_cfg)
    except InsufficientDataError:
        raise ValueError(
            f"horizon_hours {horizon_hours} leaves {history} of the traffic's "
            f"{network.total_hours} hours as history, too few to train at training.lookback "
            f"{train_cfg.lookback} and training.train_fraction {train_cfg.train_fraction}"
        ) from None
    if split_policy.max_factor != loop_cfg.max_split_factor:
        raise ValueError(
            f"split policy max_factor {split_policy.max_factor} != loop "
            f"max_split_factor {loop_cfg.max_split_factor}"
        )

    log = EventLog()
    collector = DataCollector(log)
    non_rt = NonRtRic(log)
    xapp = CpmXapp(log)
    split_rng = split_policy.rng()

    deployments: list[str] = []
    e2_requests: list[str] = []
    feedbacks: list[ModelPerformanceFeedback] = []
    terminated_early = False
    due: set[CellKey] = set(network.active_keys())  # cells the next training round trains
    last_train_attempt: dict[CellKey, int] = {}

    start = network.hour
    end = start + horizon_hours
    hour = start
    while hour < end:
        period = loop_cfg.collection_period
        # (1)(2) collect the last fully elapsed window, publish to non-RT RIC
        report = collector.collect(network, hour - period, period)
        log.append(
            EventTag.BUS_PUBLISH,
            hour=hour,
            cells=report.source,
            payload={"window_start": report.window_start, "n_samples": report.n_samples},
        )

        # (3)(4) capability query + training when due
        if due:
            histories = {k: network.training_history(k) for k in sorted(due)}
            non_rt.train_and_update(histories, lstm_cfg, train_cfg, hour)
            last_train_attempt.update(dict.fromkeys(due, hour))
            due.clear()

        # (5) A1 policy/model push (hourly re-affirmation, new version)
        deployment, record = non_rt.build_deployment(rule, network)
        xapp.receive_deployment(deployment)
        deployments.append(record)

        # (6) inference for every deployed cell with enough history
        inferences = xapp.infer(network, train_cfg.lookback)

        # (7) alarms and the cell-split control action
        for key, (pred, alarm) in inferences.items():
            if not alarm:
                continue
            cell = network.cells[key]
            cell_id = cell.cell_id
            xapp.raise_alarm(cell_id, pred, hour)
            at_cap = cell_id.split_factor >= loop_cfg.max_split_factor
            cooling = (
                cell.last_split_hour is not None
                and hour - cell.last_split_hour < loop_cfg.split_cooldown_hours
            )
            if at_cap or cooling:
                logger.info(
                    "alarmed cell %s not split (%s)",
                    cell_id.label(),
                    "factor cap" if at_cap else "split cooldown",
                )
                continue
            e2_requests.append(xapp.issue_e2(cell_id, split_policy, hour))
            event = network.split(key, split_policy, split_rng)
            non_rt.register_child(key, (event.child.enb, event.child.cell))

        # realize this cycle's hours with the post-action topology
        realize_n = min(period, end - hour)
        for _ in range(realize_n):
            network.realize_hour()

        # feedback on the freshly realized actuals
        feedbacks = xapp.feedback(
            network, hour, loop_cfg.feedback_window_hours, loop_cfg.retrain_accuracy_threshold
        )

        # mispredicted cells retrain once cooled
        for f in feedbacks:
            key = (f.cell.enb, f.cell.cell)
            if f.misprediction and (
                key not in last_train_attempt
                or hour - last_train_attempt[key] >= loop_cfg.retrain_cooldown_hours
            ):
                due.add(key)
        if due:
            flagged = [network.cells[k].cell_id for k in sorted(due)]
            log.append(
                EventTag.RETRAIN,
                hour=hour,
                cells=flagged,
                payload={"cells": [cell_id.label() for cell_id in flagged]},
            )

        hour += realize_n
        if loop_cfg.max_congested_hours is not None and _target_met(network, rule, loop_cfg):
            terminated_early = True
            break

    baseline = network.baseline_series(start, hour - start)
    after = network.realized_series(start, hour - start)
    metrics = summarize_run(rule, baseline, after)
    metrics.update(
        window_start=start,
        window_hours=hour - start,
        end_hour=hour,
        terminated_early=terminated_early,
        splits_issued=len(network.split_events),
        max_split_factor_reached=network.max_factor_reached(),
        mean_final_accuracy=float(np.mean([f.window_accuracy for f in feedbacks])),
    )
    return LoopResult(log, metrics, baseline, after, deployments, e2_requests, feedbacks)
