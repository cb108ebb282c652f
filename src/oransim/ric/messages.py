"""Typed records exchanged between the simulated O-RAN components.

The O1 / A1 / E2 interfaces are modeled as in-process messages with
reliable, ordered, zero-loss delivery. Every control-plane action appends a
LoopEvent to the shared append-only EventLog; the log's JSON-lines export
is the replayable record the offline choreography validator consumes.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from ..forecast import ForecastModel
from ..kpi import CellId, CongestionRule
from ..typedjson import canonical_json, check_keys, check_type, check_unsigned, loads

__all__ = [
    "EventTag",
    "LoopEvent",
    "EventLog",
    "O1Report",
    "A1Deployment",
    "ModelPerformanceFeedback",
    "canonical_json",
    "payload_digest",
]


class EventTag:
    """Event vocabulary of one control cycle, in choreography order."""

    O1_COLLECT = "O1Collect"
    BUS_PUBLISH = "BusPublish"
    CAPABILITY_QUERY = "CapabilityQuery"
    TRAIN_REQUEST = "TrainRequest"
    TRAINED_MODEL = "TrainedModel"
    A1_DEPLOY = "A1Deploy"
    INFERENCE = "Inference"
    ALARM_RAISED = "AlarmRaised"
    E2_CONTROL = "E2Control"
    FEEDBACK = "Feedback"
    RETRAIN = "Retrain"

    # every tag above, in the order they are defined
    ALL = tuple(tag for name, tag in dict(locals()).items() if name.isupper())


# What ``payload_digest`` writes: the first 16 hex digits of a sha256, lower case.
_DIGEST = re.compile(r"[0-9a-f]{16}")


def payload_digest(payload) -> str:
    """Short stable digest of a JSON-able payload summary."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class LoopEvent:
    tag: str
    hour: int
    seq: int
    cells: tuple[CellId, ...]
    digest: str

    def to_json_dict(self) -> dict:
        return {
            "seq": self.seq,
            "hour": self.hour,
            "tag": self.tag,
            "cells": [c.to_json() for c in self.cells],
            "digest": self.digest,
        }

    @staticmethod
    def from_json_dict(obj) -> "LoopEvent":
        """Read ``to_json_dict`` back; a missing, unknown or mistyped key raises ValueError naming it."""
        check_keys("event", obj, {"seq", "hour", "tag", "cells", "digest"}, required=True)
        check_unsigned("seq", obj["seq"])
        check_unsigned("hour", obj["hour"])
        check_type("tag", obj["tag"], str)
        check_type("digest", obj["digest"], str)
        if not _DIGEST.fullmatch(obj["digest"]):
            raise ValueError(f"digest must be 16 lowercase hex digits, got {obj['digest']!r}")
        check_type("cells", obj["cells"], list)
        return LoopEvent(
            tag=obj["tag"],
            hour=obj["hour"],
            seq=obj["seq"],
            cells=tuple(CellId.from_json(c, f"cells[{k}]") for k, c in enumerate(obj["cells"])),
            digest=obj["digest"],
        )


class EventLog:
    """Append-only, totally ordered record of control-loop events."""

    def __init__(self):
        self._events: list[LoopEvent] = []

    def append(self, tag: str, hour: int, cells=(), payload=None) -> LoopEvent:
        if tag not in EventTag.ALL:
            raise ValueError(f"unknown event tag {tag!r}")
        if self._events and hour < self._events[-1].hour:
            raise ValueError(
                f"event hour {hour} precedes last logged hour {self._events[-1].hour}"
            )
        event = LoopEvent(
            tag=tag,
            hour=hour,
            seq=len(self._events),
            cells=tuple(cells),
            digest=payload_digest(payload if payload is not None else {}),
        )
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, idx):
        return self._events[idx]

    @property
    def events(self) -> tuple[LoopEvent, ...]:
        return tuple(self._events)

    def to_jsonl(self) -> str:
        return "".join(canonical_json(e.to_json_dict()) + "\n" for e in self._events)

    @staticmethod
    def parse_jsonl(text: str) -> list[LoopEvent]:
        events = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                events.append(LoopEvent.from_json_dict(loads(line)))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: malformed event record ({exc})") from None
        return events


@dataclass(frozen=True)
class O1Report:
    """What the active cells reported over one elapsed window: the cells,
    in ``active_keys`` order, and the number of realized hours they cover."""

    window_start: int
    window_hours: int
    source: tuple[CellId, ...]
    n_samples: int


@dataclass(frozen=True)
class A1Deployment:
    """Policy plus per-cell trained forecast models pushed over A1.

    Both RICs run in one process, so ``models`` maps the target cell to its
    trained model itself; ``digests`` carries each model's ``model_digest``,
    equal exactly when the model files are, so the receiving xApp can skip
    restacking unchanged models.
    """

    version: int
    policy: CongestionRule
    models: dict[CellId, ForecastModel]
    digests: dict[CellId, str]

    def __post_init__(self):
        if self.version < 1:
            raise ValueError("deployment version starts at 1")
        if set(self.models) != set(self.digests):
            raise ValueError("models and digests must cover the same cells")

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "policy": {
                "throughput_max": self.policy.throughput_max,
                "prb_min": self.policy.prb_min,
            },
            "models": {
                cell.label(): self.digests[cell] for cell in sorted(self.models)
            },
        }


@dataclass(frozen=True)
class ModelPerformanceFeedback:
    """Inference-host report of one cell's recent forecast accuracy."""

    cell: CellId
    window_accuracy: float
    misprediction: bool

    def __post_init__(self):
        if not (0.0 <= self.window_accuracy <= 100.0):
            raise ValueError(
                f"window_accuracy must be in [0, 100], got {self.window_accuracy}"
            )
