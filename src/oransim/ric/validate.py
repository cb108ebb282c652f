"""Offline replay checker for control-loop event logs.

``_FOLLOWS`` is the one definition of the cycle grammar, the tags that may
follow each tag:

  O1Collect                          -> BusPublish
  BusPublish                         -> CapabilityQuery, A1Deploy
  CapabilityQuery                    -> TrainRequest
  TrainRequest                       -> TrainedModel
  TrainedModel                       -> A1Deploy
  A1Deploy                           -> Inference
  Inference, AlarmRaised, E2Control  -> AlarmRaised, E2Control, Feedback
  Feedback, Retrain                  -> Retrain, O1Collect

A log starts with O1Collect and ends after a Feedback or Retrain, and every
event carries its cycle's O1Collect hour. Sequence numbers strictly increase,
hours never go backwards, and no A1Deploy precedes the first TrainedModel.
AlarmRaised and E2Control each name exactly one cell, and an E2Control's cell
was alarmed earlier in its cycle. An empty log is vacuously valid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .messages import EventLog, EventTag, LoopEvent

__all__ = ["ValidationResult", "validate_events", "validate_jsonl"]

_AFTER_INFERENCE = (EventTag.ALARM_RAISED, EventTag.E2_CONTROL, EventTag.FEEDBACK)
_AFTER_FEEDBACK = (EventTag.RETRAIN, EventTag.O1_COLLECT)
_FOLLOWS = {
    EventTag.O1_COLLECT: (EventTag.BUS_PUBLISH,),
    EventTag.BUS_PUBLISH: (EventTag.CAPABILITY_QUERY, EventTag.A1_DEPLOY),
    EventTag.CAPABILITY_QUERY: (EventTag.TRAIN_REQUEST,),
    EventTag.TRAIN_REQUEST: (EventTag.TRAINED_MODEL,),
    EventTag.TRAINED_MODEL: (EventTag.A1_DEPLOY,),
    EventTag.A1_DEPLOY: (EventTag.INFERENCE,),
    EventTag.INFERENCE: _AFTER_INFERENCE,
    EventTag.ALARM_RAISED: _AFTER_INFERENCE,
    EventTag.E2_CONTROL: _AFTER_INFERENCE,
    EventTag.FEEDBACK: _AFTER_FEEDBACK,
    EventTag.RETRAIN: _AFTER_FEEDBACK,
}


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violation: str | None = None
    seq: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _fail(event: LoopEvent, reason: str) -> ValidationResult:
    return ValidationResult(False, f"event seq={event.seq} ({event.tag}): {reason}", event.seq)


def validate_events(events) -> ValidationResult:
    events = list(events)
    if not events:
        return ValidationResult(True)

    # this pass over the whole log first decides which violation is reported
    for prev, cur in zip(events, events[1:]):
        if cur.seq <= prev.seq:
            return _fail(cur, f"sequence number must exceed {prev.seq}")
        if cur.hour < prev.hour:
            return _fail(cur, f"hour {cur.hour} precedes previous hour {prev.hour}")

    allowed, trained = (EventTag.O1_COLLECT,), False
    for ev in events:
        if ev.tag not in allowed:
            return _fail(ev, f"expected {' or '.join(allowed)}")
        if ev.tag == EventTag.O1_COLLECT:
            cycle_hour, alarmed = ev.hour, set()
        elif ev.hour != cycle_hour:
            return _fail(ev, f"hour {ev.hour} differs from cycle hour {cycle_hour}")
        if ev.tag == EventTag.TRAINED_MODEL:
            trained = True
        elif ev.tag == EventTag.A1_DEPLOY and not trained:
            return _fail(ev, "A1Deploy precedes any TrainedModel")
        elif ev.tag in (EventTag.ALARM_RAISED, EventTag.E2_CONTROL):
            if len(ev.cells) != 1:
                return _fail(ev, "alarm/control events must name exactly one cell")
            if ev.tag == EventTag.ALARM_RAISED:
                alarmed.add(ev.cells[0])
            elif ev.cells[0] not in alarmed:
                return _fail(ev, f"E2Control for {ev.cells[0].label()} without a prior "
                                 f"AlarmRaised in this cycle")
        allowed = _FOLLOWS[ev.tag]
    if EventTag.O1_COLLECT not in allowed:  # a log ends only where a cycle may start
        return ValidationResult(
            False, f"log ends mid-cycle: expected {' or '.join(allowed)}", events[-1].seq)
    return ValidationResult(True)


def validate_jsonl(text: str) -> ValidationResult:
    """Validate an exported JSON-lines event log."""
    try:
        events = EventLog.parse_jsonl(text)
    except ValueError as exc:
        return ValidationResult(False, str(exc), None)
    return validate_events(events)
