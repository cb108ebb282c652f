"""Simulated O-RAN control plane: hosts, message choreography, control loop."""

from .hosts import CpmXapp, DataCollector, NonRtRic, train_cells
from .loop import ControlLoopConfig, LoopResult, run_control_loop, summarize_run
from .messages import (
    A1Deployment,
    E2ControlRequest,
    EventLog,
    EventTag,
    LoopEvent,
    ModelPerformanceFeedback,
    O1Report,
)
from .validate import ValidationResult, validate_events, validate_jsonl

__all__ = [
    "A1Deployment",
    "ControlLoopConfig",
    "CpmXapp",
    "DataCollector",
    "E2ControlRequest",
    "EventLog",
    "EventTag",
    "LoopEvent",
    "LoopResult",
    "ModelPerformanceFeedback",
    "NonRtRic",
    "O1Report",
    "ValidationResult",
    "run_control_loop",
    "summarize_run",
    "train_cells",
    "validate_events",
    "validate_jsonl",
]
