"""Simulated control-plane hosts: SMO collector, AI-server training, RICs.

Each host is a small state machine invoked sequentially by the control
loop's scheduler. They share one EventLog and append their step's event
when they act, which is what gives the log its per-cycle choreography.
"""

from __future__ import annotations

import logging

import numpy as np

from ..forecast import (
    ForecastModel,
    InsufficientDataError,
    LstmConfig,
    TrainingConfig,
    accuracy,
    model_digest,
    predict_fleet,
    stack_models,
    stack_width,
    train_split,
    train_stack,
)
from ..kpi import CellId, CongestionRule, KpiSeries
from ..network import CellKey, SimulatedNetwork
from ..splitting import SplitPolicy
from .messages import (
    A1Deployment,
    EventLog,
    EventTag,
    ModelPerformanceFeedback,
    O1Report,
    canonical_json,
)

__all__ = ["DataCollector", "train_cells", "NonRtRic", "CpmXapp"]

logger = logging.getLogger(__name__)


class DataCollector:
    """SMO-side collector gathering RAN counters over O1."""

    def __init__(self, log: EventLog):
        self.log = log

    def collect(self, network: SimulatedNetwork, window_start: int, window_hours: int) -> O1Report:
        """Report the active cells and their realized hours in a fully elapsed window."""
        if window_start + window_hours > network.hour:
            raise ValueError(
                f"window [{window_start}, {window_start + window_hours}) not yet elapsed "
                f"(network at hour {network.hour})"
            )
        keys = network.active_keys()
        report = O1Report(
            window_start=window_start,
            window_hours=window_hours,
            source=tuple(network.cells[key].cell_id for key in keys),
            n_samples=sum(network.window_span(key, window_start, window_hours)[1] for key in keys),
        )
        self.log.append(
            EventTag.O1_COLLECT,
            hour=window_start + window_hours,
            cells=report.source,
            payload={"window_start": window_start, "window_hours": window_hours,
                     "n_samples": report.n_samples},
        )
        return report


def train_cells(
    histories: dict[CellKey, KpiSeries],
    lstm_cfg: LstmConfig,
    train_cfg: TrainingConfig,
) -> tuple[dict[CellKey, ForecastModel], list[CellKey]]:
    """The SMO's AI server: train one model per requested cell.

    Cells whose history cannot support training are excluded and returned
    as failures. The rest are grouped by history length, the only input
    that sets a model's batch schedule, and each group trains in key order
    as stacks of at most ``stack_width`` models. Per-cell seeds derive from
    the configured seed and the cell key, so every model equals the one its
    cell would get alone, and retrains are reproducible. Models are
    returned in key order.
    """
    groups: dict[int, list[CellKey]] = {}
    failures: list[CellKey] = []
    for key in sorted(histories):
        length = len(histories[key])
        try:
            train_split(length, train_cfg)
        except InsufficientDataError as exc:
            logger.warning("training skipped for cell %s: %s", key, exc)
            failures.append(key)
            continue
        groups.setdefault(length, []).append(key)
    models: dict[CellKey, ForecastModel] = {}
    for length, keys in groups.items():
        width = stack_width(lstm_cfg, train_cfg, length)
        for lo in range(0, len(keys), width):
            chunk = keys[lo : lo + width]
            trained = train_stack(
                [histories[k] for k in chunk], lstm_cfg, [train_cfg.for_cell(*k) for k in chunk]
            )
            models.update((k, model) for k, (model, _) in zip(chunk, trained))
    return dict(sorted(models.items())), failures


class NonRtRic:
    """Non-RT RIC: owns the model cache, versioning, and A1 deployments.

    Deployed models are shared with the xApp, which restacks their arrays,
    so no host writes into a model in place.
    """

    # What each training round asks of the AI server, which supports it.
    CAPABILITY_QUERY = {
        "required": ["float64", "recurrent-training"],
        "sources": ["ip_throughput", "prb_util"],
        "supported": True,
    }

    def __init__(self, log: EventLog):
        self.log = log
        self.version = 0
        self._models: dict[CellKey, ForecastModel] = {}
        self._digests: dict[CellKey, str] = {}

    def train_and_update(
        self,
        histories: dict[CellKey, KpiSeries],
        lstm_cfg: LstmConfig,
        train_cfg: TrainingConfig,
        hour: int,
    ) -> list[CellKey]:
        """Run the capability query plus training round; cache the results.

        Returns the cells whose training failed (they keep any prior model).
        """
        self.log.append(EventTag.CAPABILITY_QUERY, hour=hour, payload=self.CAPABILITY_QUERY)
        ids = [histories[k].cell for k in sorted(histories)]
        self.log.append(
            EventTag.TRAIN_REQUEST,
            hour=hour,
            cells=ids,
            payload={"cells": [c.label() for c in ids]},
        )
        models, failures = train_cells(histories, lstm_cfg, train_cfg)
        for key, model in models.items():
            self._models[key] = model
            self._digests[key] = model_digest(model)
        trained_ids = [histories[k].cell for k in sorted(models)]
        self.log.append(
            EventTag.TRAINED_MODEL,
            hour=hour,
            cells=trained_ids,
            payload={
                "digests": {histories[k].cell.label(): self._digests[k] for k in sorted(models)},
                "failed": [histories[k].cell.label() for k in sorted(failures)],
            },
        )
        return failures

    def register_child(self, parent_key: CellKey, child_key: CellKey) -> None:
        """Seed a freshly split cell with its parent's model."""
        if parent_key in self._models:
            self._models[child_key] = self._models[parent_key]
            self._digests[child_key] = self._digests[parent_key]

    def build_deployment(
        self, policy: CongestionRule, network: SimulatedNetwork
    ) -> tuple[A1Deployment, str]:
        """Package the models of the network's active cells that have one,
        at the network's hour; bump version.

        Returns the deployment and its record, the canonical JSON line that
        ``a1_deployments.jsonl`` holds.
        """
        self.version += 1
        deployed = [
            (network.cells[k].cell_id, k) for k in network.active_keys() if k in self._models
        ]
        models = {cell_id: self._models[key] for cell_id, key in deployed}
        digests = {cell_id: self._digests[key] for cell_id, key in deployed}
        deployment = A1Deployment(self.version, policy, models, digests)
        payload = deployment.to_json_dict()
        self.log.append(
            EventTag.A1_DEPLOY, hour=network.hour, cells=tuple(sorted(models)), payload=payload
        )
        return deployment, canonical_json(payload)


class CpmXapp:
    """Congestion prediction and mitigation xApp on the near-RT RIC."""

    def __init__(self, log: EventLog):
        self.log = log
        self.deployment: A1Deployment | None = None
        # the stack serving the deployment: (the digests by cell key it was
        # built from, their sorted keys, the stacked models or None if empty)
        self._fleet: tuple[dict[CellKey, str], list[CellKey], ForecastModel | None] = (
            {}, [], None
        )

    def receive_deployment(self, deployment: A1Deployment) -> None:
        """Activate a deployment; restack only when its digests differ from
        the stack's, that is when a model is new or changed or a cell left."""
        if self.deployment is not None and deployment.version <= self.deployment.version:
            raise ValueError(
                f"deployment version must increase: {deployment.version} after "
                f"{self.deployment.version}"
            )
        digests = {(c.enb, c.cell): digest for c, digest in deployment.digests.items()}
        if digests != self._fleet[0]:
            models = {(c.enb, c.cell): model for c, model in deployment.models.items()}
            keys = sorted(models)
            stack = stack_models([models[k] for k in keys]) if keys else None
            self._fleet = (digests, keys, stack)
        self.deployment = deployment

    def infer(
        self, network: SimulatedNetwork, lookback: int
    ) -> dict[CellKey, tuple[np.ndarray, bool]]:
        """Predict the network's current hour from each deployed cell's
        ``trailing_window``, write it into ``network.predictions`` and
        evaluate the alarm predicate.

        A cell whose history is shorter than ``lookback`` is skipped; every
        other deployed cell maps to its (prb_util, ip_throughput) prediction
        and alarm. The stacked models run one forward; a model whose cell
        has no window rides along on a zero window.
        """
        if self.deployment is None:
            raise RuntimeError("no active A1 deployment")
        _, keys, fleet = self._fleet
        hour = network.hour
        windows = {m: window for m, key in enumerate(keys)
                   if (window := network.trailing_window(key, lookback)) is not None}
        results: dict[CellKey, tuple[np.ndarray, bool]] = {}
        if windows:
            raw = np.zeros((len(keys), lookback, fleet.config.input_dim))
            for m, window in windows.items():
                raw[m] = window
            out = predict_fleet(fleet, raw)
            if not np.isfinite(out).all():
                raise ValueError(f"non-finite prediction for hour {hour}")
            policy = self.deployment.policy
            for m in windows:
                network.predictions[hour, network.cells[keys[m]].column] = out[m]
                results[keys[m]] = (out[m], bool(policy.congested(out[m, 0], out[m, 1])))
        ids = [network.cells[key].cell_id for key in results]
        self.log.append(
            EventTag.INFERENCE,
            hour=hour,
            cells=ids,
            payload={c.label(): results[key][0].tolist() for c, key in zip(ids, results)},
        )
        return results

    def raise_alarm(self, cell_id: CellId, prediction: np.ndarray, hour: int) -> None:
        self.log.append(
            EventTag.ALARM_RAISED,
            hour=hour,
            cells=(cell_id,),
            payload={"prediction": prediction.tolist()},
        )

    def issue_e2(self, cell_id: CellId, policy: SplitPolicy, hour: int) -> str:
        """Send and log one CellSplit request for ``cell_id`` toward the CU/DU.

        Returns its record, the canonical JSON line that ``e2_requests.jsonl``
        holds. The loop picks the cells to split (alarmed, under the factor
        cap, out of split cooldown); ``split_cell`` refuses a split past the
        cap, and ``validate_events`` an E2Control with no alarm before it.
        """
        payload = {
            "target": cell_id.to_json(),
            "action": "CellSplit",
            "policy": {"r_min": policy.r_min, "r_max": policy.r_max,
                       "max_factor": policy.max_factor},
            "issued_at": hour,
        }
        self.log.append(EventTag.E2_CONTROL, hour=hour, cells=(cell_id,), payload=payload)
        return canonical_json(payload)

    def feedback(
        self, network: SimulatedNetwork, hour: int, window_hours: int, threshold: float
    ) -> list[ModelPerformanceFeedback]:
        """Score each active cell's predictions for the ``window_hours`` hours
        that end at ``hour``; flag cells below the threshold.

        Cells are named by their current ids, so a cell split this cycle is
        scored under its new generation. An empty window has nothing to
        monitor: that is an error.
        """
        lo = max(0, hour + 1 - window_hours)
        preds, actuals = network.predictions[lo : hour + 1], network.kpis[lo : hour + 1]
        feedbacks = []
        for key in network.active_keys():
            cell = network.cells[key]
            made = ~np.isnan(preds[:, cell.column, 0])
            if made.any():
                acc = accuracy(preds[made, cell.column], actuals[made, cell.column])
                feedbacks.append(ModelPerformanceFeedback(cell.cell_id, acc, acc < threshold))
        if not feedbacks:
            raise ValueError("empty feedback window: no prediction/actual pairs")
        self.log.append(
            EventTag.FEEDBACK,
            hour=hour,
            cells=[f.cell for f in feedbacks],
            payload={f.cell.label(): f.window_accuracy for f in feedbacks},
        )
        return feedbacks
