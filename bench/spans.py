"""Wrappers the benchmark installs on oransim's public calls, and what they measure.

Two instruments live here. ``CycleClock`` wraps only the first call of each
control cycle (``DataCollector.collect``) and the call that trains
(``NonRtRic.train_and_update``); it is the one hook in untraced runs.
``Tracer`` wraps one call per layer and records a span per call: name,
start, end and parent. Spans stay in memory until the run ends.

A wrapper replaces a function everywhere oransim looks it up: every
``oransim.*`` module attribute bound to the original, or the class
attribute for a method. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (span name, target, measure). A target is "module:function" or
# "module:Class.method". A measure maps (args, kwargs, result) to counts
# kept on the span.
TRACE_TARGETS = (
    ("cli.run", "oransim.cli:cmd_run", None),
    ("ric.loop", "oransim.ric.loop:run_control_loop", None),
    ("ric.validate", "oransim.ric.validate:validate_jsonl", None),
    ("ric.collect", "oransim.ric.hosts:DataCollector.collect",
     lambda a, k, r: {"samples": r.n_samples}),
    ("ric.train_round", "oransim.ric.hosts:NonRtRic.train_and_update",
     lambda a, k, r: {"cells": len(a[1])}),
    ("ric.build_deployment", "oransim.ric.hosts:NonRtRic.build_deployment", None),
    ("ric.receive_deployment", "oransim.ric.hosts:CpmXapp.receive_deployment",
     lambda a, k, r: {"models": len(a[1].models)}),
    ("ric.infer", "oransim.ric.hosts:CpmXapp.infer", lambda a, k, r: {"cells": len(r)}),
    ("ric.alarm", "oransim.ric.hosts:CpmXapp.raise_alarm", None),
    ("ric.e2", "oransim.ric.hosts:CpmXapp.issue_e2", None),
    ("ric.feedback", "oransim.ric.hosts:CpmXapp.feedback", None),
    ("ric.eventlog.append", "oransim.ric.messages:EventLog.append",
     lambda a, k, r: {"retrain_cells": len(r.cells)} if r.tag == "Retrain" else None),
    ("ric.eventlog.to_jsonl", "oransim.ric.messages:EventLog.to_jsonl", None),
    ("forecast.train", "oransim.forecast.training:train", None),
    ("forecast.adam_step", "oransim.forecast.training:adam_step", None),
    ("forecast.forward", "oransim.forecast.model:forward",
     lambda a, k, r: {"rows": 1 if r.ndim == 1 else r.shape[0]}),
    ("forecast.predict", "oransim.forecast.training:predict_from_window", None),
    ("forecast.accuracy", "oransim.forecast.training:accuracy", None),
    ("forecast.model_to_json", "oransim.forecast.model:model_to_json",
     lambda a, k, r: {"bytes": len(r)}),
    ("forecast.model_from_json", "oransim.forecast.model:model_from_json", None),
    ("network.realize_hour", "oransim.network:SimulatedNetwork.realize_hour",
     lambda a, k, r: {"cells": len(r)}),
    ("network.training_history", "oransim.network:SimulatedNetwork.training_history", None),
    ("network.trailing_window", "oransim.network:SimulatedNetwork.trailing_window", None),
    ("splitting.split", "oransim.splitting:split_cell", None),
    ("splitting.histogram", "oransim.splitting:histogram_hours", None),
    ("traffic.generate", "oransim.traffic:generate_synthetic", None),
    ("traffic.export_csv", "oransim.traffic:export_csv", lambda a, k, r: {"bytes": len(r)}),
    ("traffic.ingest_csv", "oransim.traffic:ingest_csv",
     lambda a, k, r: {"rows": sum(len(s) for s in r)}),
    ("kpi.from_arrays", "oransim.kpi:KpiSeries.from_arrays",
     lambda a, k, r: {"samples": len(r)}),
)

# Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "forecast.train.s": "s",
    "forecast.train.calls": "count",
    "forecast.train.failed": "count",
    "forecast.train.ok_ratio": "ratio",
    "forecast.adam_step.s": "s",
    "forecast.adam_step.calls": "count",
    "forecast.step_ms": "ms",
    "forecast.predict.s": "s",
    "forecast.accuracy.s": "s",
    "forecast.forward.s": "s",
    "forecast.forward.calls": "count",
    "forecast.forward.rows_per_call": "rows",
    "forecast.forward.infer.s": "s",
    "forecast.forward.infer.calls": "count",
    "forecast.forward.infer.rows_per_call": "rows",
    "forecast.forward.val.s": "s",
    "forecast.forward.val.calls": "count",
    "forecast.forward.val.rows_per_call": "rows",
    "forecast.model_to_json.s": "s",
    "forecast.model_to_json.calls": "count",
    "forecast.model_to_json.bytes": "bytes",
    "forecast.model_from_json.s": "s",
    "forecast.model_from_json.calls": "count",
    "ric.collect.s": "s",
    "ric.collect.samples": "count",
    "ric.train_round.s": "s",
    "ric.train_rounds": "count",
    "ric.cells_per_round": "count",
    "ric.deploy.s": "s",
    "ric.deploy.models_parsed": "count",
    "ric.deploy.reuse_ratio": "ratio",
    "ric.infer.s": "s",
    "ric.infer.cells": "count",
    "ric.feedback.s": "s",
    "ric.loop.self_s": "s",
    "ric.loop.cycles": "count",
    "ric.loop.retrain_triggers": "count",
    "ric.loop.alarms": "count",
    "ric.loop.splits": "count",
    "ric.eventlog.append.s": "s",
    "ric.events": "count",
    "ric.eventlog.to_jsonl.s": "s",
    "ric.validate.s": "s",
    "splitting.histogram.s": "s",
    "splitting.splits": "count",
    "cli.run.self_s": "s",
    "network.realize_hour.s": "s",
    "network.cell_hours": "count",
    "network.training_history.s": "s",
    "network.trailing_window.s": "s",
    "traffic.generate.s": "s",
    "traffic.export_csv.s": "s",
    "traffic.export_csv.bytes": "bytes",
    "traffic.ingest_csv.s": "s",
    "traffic.ingest_csv.rows": "count",
    "kpi.from_arrays.s": "s",
    "kpi.samples_built": "count",
}


def _resolve(target: str):
    """(owner, attribute, original) for a "module:name" or "module:Class.name" target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = owner.__dict__[attr] if classes else getattr(owner, attr)
    return owner, attr, original


class Patches:
    """Replaces functions where oransim looks them up, and restores them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make_wrapper) -> None:
        owner, attr, original = _resolve(target)
        if isinstance(owner, type):
            if isinstance(original, staticmethod):
                replacement = staticmethod(make_wrapper(original.__func__))
            else:
                replacement = make_wrapper(original)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        replacement = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if name != "oransim" and not name.startswith("oransim."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class CycleClock:
    """Start time of every control cycle, and which cycles trained."""

    def __init__(self):
        self.starts: list[float] = []
        self.trained: set[int] = set()
        self._patches = Patches()

    def install(self) -> None:
        def on_collect(fn):
            def collect(*args, **kwargs):
                self.starts.append(time.perf_counter())
                return fn(*args, **kwargs)
            return collect

        def on_train(fn):
            def train_and_update(*args, **kwargs):
                self.trained.add(len(self.starts) - 1)
                return fn(*args, **kwargs)
            return train_and_update

        self._patches.wrap("oransim.ric.hosts:DataCollector.collect", on_collect)
        self._patches.wrap("oransim.ric.hosts:NonRtRic.train_and_update", on_train)

    def uninstall(self) -> None:
        self._patches.restore()

    def cycles(self) -> list[tuple[float, bool]]:
        """(duration s, trained) per cycle; a cycle ends when the next one starts,
        so the last cycle has no end and is left out."""
        return [
            (end - start, i in self.trained)
            for i, (start, end) in enumerate(zip(self.starts, self.starts[1:]))
        ]


class Tracer:
    """Records one span per call of every ``TRACE_TARGETS`` entry."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, counts or None, raised]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches = Patches()

    def _make(self, name, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make_wrapper(fn):
            def traced(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    rec[5] = True
                    raise
                finally:
                    rec[2] = clock()
                    stack.pop()
                if measure is not None:
                    rec[4] = measure(args, kwargs, result)
                return result
            traced.__wrapped__ = fn
            return traced
        return make_wrapper

    def install(self) -> None:
        for name, target, measure in TRACE_TARGETS:
            self._patches.wrap(target, self._make(name, measure))

    def uninstall(self) -> None:
        self._patches.restore()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times, counts and ratios from a run's spans.

    A span's self time is its duration minus the time its direct child
    spans cover; calls are strictly nested, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    raised: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, measured, err) in enumerate(spans):
        own = end - start - child_time[i]
        key = name
        if name == "forecast.forward":
            parent_name = spans[parent][0] if parent >= 0 else ""
            key = "forecast.forward.infer" if parent_name == "forecast.predict" else "forecast.forward.val"
            self_s[name] += own
            calls[name] += 1
            counts[key + ".rows"] += measured["rows"]
        self_s[key] += own
        calls[key] += 1
        raised[key] += err
        for field, value in (measured or {}).items():
            counts[f"{name}.{field}"] += value

    def ratio(num, den):
        return num / den if den else 0.0

    train_calls = calls["forecast.train"]
    models_sent = counts["ric.receive_deployment.models"]
    parsed = calls["forecast.model_from_json"]
    out = {
        "forecast.train.s": self_s["forecast.train"],
        "forecast.train.calls": train_calls,
        "forecast.train.failed": raised["forecast.train"],
        "forecast.train.ok_ratio": ratio(train_calls - raised["forecast.train"], train_calls),
        "forecast.adam_step.s": self_s["forecast.adam_step"],
        "forecast.adam_step.calls": calls["forecast.adam_step"],
        "forecast.step_ms": 1e3 * ratio(self_s["forecast.train"], calls["forecast.adam_step"]),
        "forecast.predict.s": self_s["forecast.predict"],
        "forecast.accuracy.s": self_s["forecast.accuracy"],
    }
    for key in ("forecast.forward", "forecast.forward.infer", "forecast.forward.val"):
        out[key + ".s"] = self_s[key]
        out[key + ".calls"] = calls[key]
        out[key + ".rows_per_call"] = ratio(counts[key + ".rows"], calls[key])
    out.update({
        "forecast.model_to_json.s": self_s["forecast.model_to_json"],
        "forecast.model_to_json.calls": calls["forecast.model_to_json"],
        "forecast.model_to_json.bytes": counts["forecast.model_to_json.bytes"],
        "forecast.model_from_json.s": self_s["forecast.model_from_json"],
        "forecast.model_from_json.calls": parsed,
        "ric.collect.s": self_s["ric.collect"],
        "ric.collect.samples": counts["ric.collect.samples"],
        "ric.train_round.s": self_s["ric.train_round"],
        "ric.train_rounds": calls["ric.train_round"],
        "ric.cells_per_round": ratio(counts["ric.train_round.cells"], calls["ric.train_round"]),
        "ric.deploy.s": self_s["ric.build_deployment"] + self_s["ric.receive_deployment"],
        "ric.deploy.models_parsed": parsed,
        "ric.deploy.reuse_ratio": ratio(models_sent - parsed, models_sent),
        "ric.infer.s": self_s["ric.infer"],
        "ric.infer.cells": counts["ric.infer.cells"],
        "ric.feedback.s": self_s["ric.feedback"],
        "ric.loop.self_s": self_s["ric.loop"],
        "ric.loop.cycles": calls["ric.collect"],
        "ric.loop.retrain_triggers": counts["ric.eventlog.append.retrain_cells"],
        "ric.loop.alarms": calls["ric.alarm"],
        "ric.loop.splits": calls["ric.e2"],
        "ric.eventlog.append.s": self_s["ric.eventlog.append"],
        "ric.events": calls["ric.eventlog.append"],
        "ric.eventlog.to_jsonl.s": self_s["ric.eventlog.to_jsonl"],
        "ric.validate.s": self_s["ric.validate"],
        "splitting.histogram.s": self_s["splitting.histogram"],
        "splitting.splits": calls["splitting.split"],
        "cli.run.self_s": self_s["cli.run"],
        "network.realize_hour.s": self_s["network.realize_hour"],
        "network.cell_hours": counts["network.realize_hour.cells"],
        "network.training_history.s": self_s["network.training_history"],
        "network.trailing_window.s": self_s["network.trailing_window"],
        "traffic.generate.s": self_s["traffic.generate"],
        "traffic.export_csv.s": self_s["traffic.export_csv"],
        "traffic.export_csv.bytes": counts["traffic.export_csv.bytes"],
        "traffic.ingest_csv.s": self_s["traffic.ingest_csv"],
        "traffic.ingest_csv.rows": counts["traffic.ingest_csv.rows"],
        "kpi.from_arrays.s": self_s["kpi.from_arrays"],
        "kpi.samples_built": counts["kpi.from_arrays.samples"],
    })
    return out

