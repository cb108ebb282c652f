"""The benchmark wraps oransim functions by name; every name must still resolve.

``bench/spans.py`` patches each ``"module:function"`` or
``"module:Class.method"`` target when a run starts, so a renamed or moved
function would first show up as a failed benchmark run.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_benchmark_wrapper_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    resolved = []

    def recording_resolve(target):
        found = resolve(target)  # raises if the module, class or attribute is gone
        resolved.append(target)
        return found

    resolve = spans._resolve
    monkeypatch.setattr(spans, "_resolve", recording_resolve)
    for _, target, _ in spans.TRACE_TARGETS:
        assert callable(recording_resolve(target)[2]), target
    clock = spans.CycleClock()
    try:
        clock.install()  # the hooks of untraced runs
    finally:
        clock.uninstall()
    assert len(resolved) == len(spans.TRACE_TARGETS) + 2  # CycleClock wraps two
