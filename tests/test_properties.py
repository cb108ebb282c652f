"""Property tests of the columnar KPI paths against per-row scalar references.

Hypothesis runs derandomized and without a deadline, so every run of the
suite draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oransim.kpi import (
    CellId,
    CongestionRule,
    KpiSample,
    KpiSeries,
    congested_hours,
    evaluate_congestion,
)
from oransim.splitting import default_bin_edges, histogram_hours
from oransim.traffic import DatasetSchema, export_csv, ingest_csv

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

ANY_PRB = st.floats(0.0, 100.0)
ANY_THR = st.floats(0.0, 1e6, allow_infinity=False)


@st.composite
def fleets(draw):
    """Generation-0 cells with gap-free series; the earliest one starts at hour 0."""
    keys = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                 min_size=1, max_size=4, unique=True)
    )
    starts = [0] + [draw(st.integers(0, 40)) for _ in keys[1:]]
    fleet = []
    for (enb, cell), start in zip(keys, starts):
        rows = draw(st.lists(st.tuples(ANY_PRB, ANY_THR), min_size=1, max_size=30))
        fleet.append(KpiSeries(CellId(enb, cell), start, np.array(rows)))
    return sorted(fleet, key=lambda s: s.cell)


def series_of(draw, prb_values, thr_values):
    rows = draw(st.lists(st.tuples(prb_values, thr_values), max_size=40))
    start = draw(st.integers(0, 1000))
    return KpiSeries(CellId(0, 0), start, np.array(rows).reshape(-1, 2))


@pytest.mark.parametrize("timestamp_format", ["iso8601", "hours"])
@PROPERTY
@given(fleet=fleets())
def test_export_ingest_identity(timestamp_format, fleet):
    schema = DatasetSchema(timestamp_format=timestamp_format)
    assert ingest_csv(export_csv(fleet, schema), schema) == fleet


@PROPERTY
@given(data=st.data())
def test_congested_hours_matches_scalar_rule(data):
    rule = CongestionRule(
        throughput_max=data.draw(st.floats(0.01, 10.0)),
        prb_min=data.draw(st.floats(0.01, 99.99)),
    )
    # the thresholds themselves are drawn often: both inequalities are strict
    prb = st.sampled_from([rule.prb_min, 0.0, 100.0]) | ANY_PRB
    thr = st.sampled_from([rule.throughput_max, 0.0]) | st.floats(0.0, 20.0)
    series = series_of(data.draw, prb, thr)
    reference = sum(
        evaluate_congestion(KpiSample(series.start + i, u, t), rule)
        for i, (u, t) in enumerate(series.to_array().tolist())
    )
    assert congested_hours(series, rule) == reference


@PROPERTY
@given(data=st.data())
def test_histogram_matches_per_sample_searchsorted(data):
    edges = data.draw(
        st.just(default_bin_edges())
        | st.lists(st.floats(0.0, 10.0), min_size=2, max_size=8, unique=True).map(sorted)
    )
    thr = st.sampled_from(edges) | st.floats(0.0, 12.0)
    series = series_of(data.draw, ANY_PRB, thr)
    reference = np.zeros(len(edges), dtype=np.int64)  # last slot = overflow
    for value in series.to_array()[:, 1]:
        idx = np.searchsorted(edges, value, side="right") - 1
        reference[idx if 0 <= idx < len(edges) - 1 else -1] += 1
    counts = histogram_hours([series], edges)[series.cell]
    assert counts.dtype == np.int64
    assert counts.tolist() == reference.tolist()
