"""Tests for the offline event-log choreography checker."""

import json

import pytest

from oransim.kpi import CellId
from oransim.ric import EventLog, EventTag, LoopEvent, validate_events, validate_jsonl
from oransim.ric.validate import _FOLLOWS, ValidationResult, _fail


# The recursive-descent validator that the table-driven one replaced, kept as
# the reference its verdicts are compared with.
def seed_validate_events(events) -> ValidationResult:
    events = list(events)
    if not events:
        return ValidationResult(True)

    for prev, cur in zip(events, events[1:]):
        if cur.seq <= prev.seq:
            return _fail(cur, f"sequence number must exceed {prev.seq}")
        if cur.hour < prev.hour:
            return _fail(cur, f"hour {cur.hour} precedes previous hour {prev.hour}")

    i = 0
    n = len(events)
    seen_trained_model = False
    while i < n:
        ev = events[i]
        if ev.tag != EventTag.O1_COLLECT:
            return _fail(ev, "cycle must start with O1Collect")
        cycle_hour = ev.hour
        i += 1

        def take(expected: str):
            nonlocal i
            if i >= n:
                return None, ValidationResult(
                    False, f"log ends mid-cycle: expected {expected}", events[-1].seq
                )
            ev = events[i]
            if ev.tag != expected:
                return None, _fail(ev, f"expected {expected}")
            if ev.hour != cycle_hour:
                return None, _fail(ev, f"hour {ev.hour} differs from cycle hour {cycle_hour}")
            i += 1
            return ev, None

        _, err = take(EventTag.BUS_PUBLISH)
        if err is not None:
            return err

        if i < n and events[i].tag == EventTag.CAPABILITY_QUERY:
            for tag in (EventTag.CAPABILITY_QUERY, EventTag.TRAIN_REQUEST, EventTag.TRAINED_MODEL):
                _, err = take(tag)
                if err is not None:
                    return err
            seen_trained_model = True

        deploy, err = take(EventTag.A1_DEPLOY)
        if err is not None:
            return err
        if not seen_trained_model:
            return _fail(deploy, "A1Deploy precedes any TrainedModel")

        _, err = take(EventTag.INFERENCE)
        if err is not None:
            return err

        alarmed: set = set()
        while i < n and events[i].tag in (EventTag.ALARM_RAISED, EventTag.E2_CONTROL):
            ev = events[i]
            if ev.hour != cycle_hour:
                return _fail(ev, f"hour {ev.hour} differs from cycle hour {cycle_hour}")
            if len(ev.cells) != 1:
                return _fail(ev, "alarm/control events must name exactly one cell")
            if ev.tag == EventTag.ALARM_RAISED:
                alarmed.add(ev.cells[0])
            else:
                if ev.cells[0] not in alarmed:
                    return _fail(
                        ev,
                        f"E2Control for {ev.cells[0].label()} without a prior "
                        f"AlarmRaised in this cycle",
                    )
            i += 1

        _, err = take(EventTag.FEEDBACK)
        if err is not None:
            return err

        while i < n and events[i].tag == EventTag.RETRAIN:
            if events[i].hour != cycle_hour:
                return _fail(events[i], "Retrain hour differs from cycle hour")
            i += 1

    return ValidationResult(True)


DIGEST = "0123456789abcdef"  # the form payload_digest writes


def ev(seq, hour, tag, cells=()):
    return LoopEvent(tag=tag, hour=hour, seq=seq, cells=tuple(cells), digest=DIGEST)


def cycle(hour, seq0=0, train=False, alarms=(), e2=(), retrain=False):
    """Build one well-formed cycle's worth of events."""
    events = [
        ev(seq0, hour, EventTag.O1_COLLECT),
        ev(seq0 + 1, hour, EventTag.BUS_PUBLISH),
    ]
    seq = seq0 + 2
    if train:
        for tag in (EventTag.CAPABILITY_QUERY, EventTag.TRAIN_REQUEST, EventTag.TRAINED_MODEL):
            events.append(ev(seq, hour, tag))
            seq += 1
    events.append(ev(seq, hour, EventTag.A1_DEPLOY))
    events.append(ev(seq + 1, hour, EventTag.INFERENCE))
    seq += 2
    for cell in alarms:
        events.append(ev(seq, hour, EventTag.ALARM_RAISED, [cell]))
        seq += 1
        if cell in e2:
            events.append(ev(seq, hour, EventTag.E2_CONTROL, [cell]))
            seq += 1
    events.append(ev(seq, hour, EventTag.FEEDBACK))
    seq += 1
    if retrain:
        events.append(ev(seq, hour, EventTag.RETRAIN))
        seq += 1
    return events, seq


class TestValidCases:
    def test_grammar_table_names_every_tag(self):
        assert set(_FOLLOWS) == set(EventTag.ALL)
        assert {t for follows in _FOLLOWS.values() for t in follows} == set(EventTag.ALL)

    def test_empty_log_passes(self):
        assert validate_events([]).ok

    def test_minimal_training_cycle(self):
        events, _ = cycle(0, train=True)
        assert validate_events(events).ok

    def test_multi_cycle_with_alarms(self):
        c = CellId(0, 3)
        events, seq = cycle(10, train=True)
        more, _ = cycle(11, seq0=seq, alarms=[c], e2=[c], retrain=True)
        assert validate_events(events + more).ok

    def test_alarm_without_e2_is_legal(self):
        events, _ = cycle(5, train=True, alarms=[CellId(0, 1)])
        assert validate_events(events).ok


class TestViolations:
    def test_first_cycle_without_training_fails(self):
        events, _ = cycle(0, train=False)
        result = validate_events(events)
        assert not result.ok
        assert "TrainedModel" in result.violation

    def test_e2_before_alarm_detected(self):
        c = CellId(0, 2)
        events, _ = cycle(0, train=True, alarms=[c], e2=[c])
        # swap the AlarmRaised and E2Control records
        idx = [i for i, e in enumerate(events) if e.tag == EventTag.ALARM_RAISED][0]
        events[idx], events[idx + 1] = (
            LoopEvent(events[idx + 1].tag, events[idx + 1].hour, events[idx].seq,
                      events[idx + 1].cells, events[idx + 1].digest),
            LoopEvent(events[idx].tag, events[idx].hour, events[idx + 1].seq,
                      events[idx].cells, events[idx].digest),
        )
        result = validate_events(events)
        assert not result.ok
        assert "E2Control" in result.violation
        assert result.seq == events[idx].seq

    def test_e2_for_different_cell_detected(self):
        events, _ = cycle(0, train=True, alarms=[CellId(0, 1)])
        feedback = events.pop()  # reinsert after the bogus E2
        events.append(ev(feedback.seq, 0, EventTag.E2_CONTROL, [CellId(0, 9)]))
        events.append(ev(feedback.seq + 1, 0, EventTag.FEEDBACK))
        result = validate_events(events)
        assert not result.ok
        assert "e0c9g0" in result.violation

    def test_missing_bus_publish(self):
        events, _ = cycle(0, train=True)
        del events[1]
        result = validate_events(events)
        assert not result.ok
        assert "BusPublish" in result.violation

    def test_cycle_not_starting_with_collect(self):
        events, _ = cycle(0, train=True)
        result = validate_events(events[1:])
        assert not result.ok
        assert "O1Collect" in result.violation

    def test_truncated_cycle(self):
        events, _ = cycle(0, train=True)
        result = validate_events(events[:-1])  # drop the Feedback
        assert not result.ok
        assert "mid-cycle" in result.violation or "Feedback" in result.violation

    def test_decreasing_hour(self):
        events, seq = cycle(5, train=True)
        more, _ = cycle(4, seq0=seq)
        result = validate_events(events + more)
        assert not result.ok
        assert "hour" in result.violation

    def test_non_increasing_seq(self):
        events, _ = cycle(0, train=True)
        bad = [LoopEvent(e.tag, e.hour, 0, e.cells, e.digest) for e in events]
        result = validate_events(bad)
        assert not result.ok

    def test_mixed_hours_within_cycle(self):
        # bump only the trailing Feedback so global monotonicity still holds
        events, _ = cycle(0, train=True)
        events[-1] = LoopEvent(EventTag.FEEDBACK, 1, events[-1].seq, (), "0" * 16)
        result = validate_events(events)
        assert not result.ok
        assert "cycle hour" in result.violation


class TestJsonl:
    def test_round_trip_validation(self):
        events, _ = cycle(0, train=True, alarms=[CellId(0, 1)], e2=[CellId(0, 1)])
        log = EventLog()
        for e in events:
            log.append(e.tag, e.hour, e.cells)
        assert validate_jsonl(log.to_jsonl()).ok

    def test_malformed_line_reported(self):
        result = validate_jsonl('{"seq": 0}\n')
        assert not result.ok
        assert "line 1" in result.violation

    def test_garbage_rejected(self):
        assert not validate_jsonl("not json\n").ok

    # (field, a value the loop cannot write there, the key path the error names)
    MISTYPED = [
        ("seq", "0", "seq"), ("seq", -1, "seq"), ("seq", True, "seq"),
        ("hour", 5.7, "hour"), ("hour", 5.0, "hour"), ("hour", None, "hour"),
        ("tag", 1, "tag"), ("digest", 12, "digest"),
        ("cells", "e0c1g0", "cells"), ("cells", [["1", 2, 0]], "cells[0][0]"),
        ("cells", [[0, 1, 0], [1, 2.9, 0]], "cells[1][1]"), ("cells", [[1, 2, True]], "cells[0][2]"),
        ("cells", [[1, 2]], "cells[0]"), ("cells", [[1, 2, 0, 0]], "cells[0]"),
        ("cells", [[0, -1, 0]], "cells[0][1]"), ("cells", [{"enb": 0}], "cells[0]"),
        ("digest", "", "digest"), ("digest", "0", "digest"), ("digest", "0" * 17, "digest"),
        ("digest", "0123456789ABCDEF", "digest"), ("digest", "0123456789abcdeg", "digest"),
        ("digest", "0123456789abcde\n", "digest"), ("digest", "\u0660" * 16, "digest"),
    ]

    @pytest.mark.parametrize("field, value, named", MISTYPED)
    def test_mistyped_field_names_line_and_field(self, field, value, named):
        record = {"seq": 1, "hour": 0, "tag": EventTag.BUS_PUBLISH, "cells": [], "digest": DIGEST}
        good = json.dumps({**record, "seq": 0, "tag": EventTag.O1_COLLECT})
        result = validate_jsonl(good + "\n" + json.dumps({**record, field: value}) + "\n")
        assert not result.ok
        assert result.violation.startswith(f"line 2: malformed event record ({named} must be ")

    def test_repeated_key_rejected_naming_it(self):
        # json.loads alone keeps the last value: this line would read as seq 1
        line = '{"seq": 0, "seq": 1, "hour": 0, "tag": "O1Collect", "cells": [], "digest": "%s"}'
        result = validate_jsonl(line % DIGEST + "\n")
        assert result.violation == (
            "line 1: malformed event record (duplicate key 'seq' in a JSON object)")

    def test_unknown_or_missing_key_rejected(self):
        record = {"seq": 0, "hour": 0, "tag": EventTag.O1_COLLECT, "cells": [], "digest": DIGEST}
        extra = validate_jsonl(json.dumps({**record, "extra": 1}) + "\n")
        assert "unknown keys in event: ['extra']" in extra.violation
        missing = validate_jsonl(json.dumps({k: v for k, v in record.items() if k != "digest"}) + "\n")
        assert "missing keys in event: ['digest']" in missing.violation
