"""Property tests of array paths against per-row or per-model references.

Hypothesis runs derandomized and without a deadline, so every run of the
suite draws the same examples.
"""

import dataclasses
import io
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oransim.forecast import (
    InsufficientDataError,
    LstmConfig,
    NormStats,
    TrainingConfig,
    clamp_prediction,
    forward,
    init_model,
    model_digest,
    model_from_json,
    model_to_json,
    param_arrays,
    predict_fleet,
    stack_models,
    train,
)
from oransim.forecast import training
from oransim.forecast.model import _lstm_stack, _Workspace, _write_params
from oransim.kpi import (
    CellId,
    CongestionRule,
    KpiSample,
    KpiSeries,
    congested_hours,
    evaluate_congestion,
)
from oransim.network import SimulatedNetwork
from oransim.ric import ControlLoopConfig, EventTag, hosts, run_control_loop, validate_events
from oransim.splitting import (
    CellLoadState,
    SplitPolicy,
    default_bin_edges,
    histogram_hours,
    split_cell,
)
from oransim import traffic
from oransim.traffic import DatasetSchema, export_csv, ingest_csv
from test_traffic import BAD_UTF8, ingest_outcome, seed_export_csv, seed_ingest_csv
from test_validate import seed_validate_events

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


@pytest.mark.parametrize("timestamp_format", ["iso8601", "hours"])
@PROPERTY
@given(fleet=fleets(), data=st.data())
def test_export_matches_seed_bytes(timestamp_format, fleet, data):
    # any input order, and a cell may appear twice
    fleet = data.draw(st.permutations(fleet + fleet[:data.draw(st.integers(0, 1))]))
    epochs = ["2000-01-01T00:00", "1999-12-31T23:00", "2024-02-28T22:00"]
    epoch = data.draw(st.sampled_from(epochs))
    schema = DatasetSchema(timestamp_format=timestamp_format, epoch=epoch)
    assert export_csv(fleet, schema) == seed_export_csv(fleet, schema)


# Field texts that break a row, a cell's grid or a KPI bound, or that parse despite looking odd.
ODD_TEXT = {
    "index": ["x", "", "-1", " 2", "1.5", "+1", "7" * 25, "\u0663", "1_0", " 5 "],
    "iso8601": ["noon", "", "2000-01-01T00:00+01:00", "2000-01-01T00:30", "2000-01-01T01:00:00.5",
                "1999-12-31T23:00", "2000-01-01 03:00", "2000-01-01", "2000-01-01T02"],
    "hours": ["x", "", "1.5", "-3", " 7", "+2", "100000"],
    "kpi": ["nan", "inf", "-inf", "-1", "100.5", "abc", "1e400", "", "-0.0", " 5 ", "1_0",
            "\u0663", "+1"],
}
MUTATIONS = ["shuffle", "blank", "blank", "quote", "extra_column", "extra_field", "reorder",
             "short", "field", "field", "field", "duplicate", "drop",
             "line_end", "quoted_char", "bare_char", "bare_char", "bom", "bad_byte", "bad_byte"]
# "\r" and "\n" end a line for csv; the others but NUL end one only for str.splitlines.
LINE_CHARS = ["\r", "\n", "\u2028", "\x85", "\x0b", "\x0c", "\x1c", "\x00"]


@st.composite
def mutated_csvs(draw):
    """A valid export of a random fleet after one to five row, field or byte mutations."""
    schema = DatasetSchema(timestamp_format=draw(st.sampled_from(["iso8601", "hours"])))
    text = seed_export_csv(draw(fleets()), schema).decode()
    header, *body = [line.split(",") for line in text.splitlines()]
    bom, bad_bytes = "", []
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=5)):
        if not body:
            break
        i = draw(st.integers(0, len(body) - 1))
        row = body[i]
        if kind == "shuffle":
            body = draw(st.permutations(body))
        elif kind == "blank":
            body.insert(i, [])
        elif kind == "quote" and row:
            j = draw(st.integers(0, len(row) - 1))
            row[j] = f'"{row[j]}"'
        elif kind == "extra_column":
            pos = draw(st.integers(0, len(header)))
            header.insert(pos, "note")
            for other in body:
                if len(other) >= pos:
                    other.insert(pos, '"a,b"')
        elif kind == "extra_field":
            row.append("x")
        elif kind == "reorder":
            perm = draw(st.permutations(range(len(header))))
            header = [header[k] for k in perm]
            body = [[r[k] for k in perm] + r[len(perm):] if len(r) >= len(perm) else r
                    for r in body]
        elif kind == "short" and row:
            row.pop()
        elif kind == "field":
            col = draw(st.sampled_from(schema.columns))
            k = header.index(col)
            if col == schema.time_col:
                odd = ODD_TEXT[schema.timestamp_format]
            else:
                odd = ODD_TEXT["index" if col in (schema.enb_col, schema.cell_col) else "kpi"]
            if len(row) > k:
                row[k] = draw(st.sampled_from(odd))
        elif kind == "duplicate":
            body.insert(draw(st.integers(0, len(body))), list(row))
        elif kind == "drop":
            del body[i]
        elif kind == "line_end" and row:
            # the row ends in "\r\n", or in a lone "\r" that the next row follows
            row[-1] += "\r"
            if i + 1 < len(body) and draw(st.booleans()):
                body[i:i + 2] = [row[:-1] + [row[-1] + ",".join(body[i + 1])]]
        elif kind in ("quoted_char", "bare_char") and row:
            j = draw(st.integers(0, len(row) - 1))
            at = draw(st.integers(0, len(row[j])))
            row[j] = row[j][:at] + draw(st.sampled_from(LINE_CHARS)) + row[j][at:]
            if kind == "quoted_char":
                row[j] = f'"{row[j]}"'
        elif kind == "bom":
            bom = "\ufeff"
        elif kind == "bad_byte":
            bad_bytes.append(draw(st.sampled_from(BAD_UTF8))[0])
    lines = [",".join(r) for r in [header] + body]
    payload = (bom + "\n".join(lines) + "\n").encode()
    for bad in bad_bytes:  # at any byte offset, the end included
        at = draw(st.integers(0, len(payload)))
        payload = payload[:at] + bad + payload[at:]
    return schema, payload


def lines_decoding(decode_bytes):
    """``traffic._lines``, but the text file it returns decodes ``decode_bytes`` bytes at a time."""
    lines = traffic._lines

    def lines_in_pieces(raw):
        text = lines(raw)
        text._CHUNK_SIZE = decode_bytes
        return text
    return lines_in_pieces


@settings(derandomize=True, deadline=None, max_examples=400)
@given(case=mutated_csvs(), chunk_rows=st.sampled_from([1, 2, 3, 5, 8, 2048]),
       decode_bytes=st.sampled_from([1, 8192]))
def test_ingest_matches_seed_on_mutated_csvs(case, chunk_rows, decode_bytes):
    # decoded a byte at a time, a bad byte is met after the rows before it
    schema, payload = case
    expected = ingest_outcome(seed_ingest_csv, payload, schema)
    # the same outcome from bytes, a bytearray and a binary file
    sources = [payload, bytearray(payload), io.BytesIO(payload)]
    with mock.patch.object(traffic, "_INGEST_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(traffic, "_lines", lines_decoding(decode_bytes)):
        for source in sources:
            assert ingest_outcome(ingest_csv, source, schema) == expected


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


def scalar_share_kpis(util, thr, share, cap):
    """The per-cell split law the network realized with before it realized the
    fleet in one array expression, with zero base utilization keeping the
    measured throughput."""
    new_util = min(100.0, max(0.0, util * share))
    if new_util > 0.0:
        return new_util, min(cap, thr * (util / new_util))
    if util == 0.0:
        return new_util, min(cap, thr)
    return new_util, cap


@st.composite
def split_runs(draw):
    """A network with pre-realized history, its base rows by cell, and the
    cells split before each later hour.

    A split names an active cell by its position in key order, modulo the
    number of active cells; a cell at the factor cap is not split.
    """
    n_hours = draw(st.integers(2, 16))
    rows = st.lists(st.tuples(ANY_PRB, st.floats(0.0, 20.0)), min_size=n_hours, max_size=n_hours)
    base = {(0, c): np.array(draw(rows)) for c in range(draw(st.integers(1, 3)))}
    cap = draw(st.floats(0.5, 20.0))
    history = draw(st.integers(0, n_hours - 1))
    picks = draw(st.lists(st.lists(st.integers(0, 15), max_size=2),
                          min_size=n_hours - history, max_size=n_hours - history))
    r_min, r_max = sorted(draw(st.lists(st.floats(0.5, 99.5), min_size=2, max_size=2)))
    policy = SplitPolicy(r_min=r_min, r_max=r_max, max_factor=8,
                         seed=draw(st.integers(0, 2**32)))
    fleet = [KpiSeries(CellId(*key), 0, values) for key, values in base.items()]
    return SimulatedNetwork(fleet, throughput_cap=cap, history_hours=history), base, picks, policy


def split_and_realize(net, picks, policy):
    """Apply each hour's splits, then realize it; yield (hour, rows) per hour."""
    rng = policy.rng()
    for picked in picks:
        for i in picked:
            keys = net.active_keys()
            key = keys[i % len(keys)]
            if net.cells[key].cell_id.split_factor < policy.max_factor:
                net.split(key, policy, rng)
        hour = net.hour
        yield hour, net.realize_hour()


@PROPERTY
@given(run=split_runs())
def test_realize_hour_matches_scalar_law(run):
    net, base, picks, policy = run
    cap = net.throughput_cap
    for key in net.active_keys():
        expected = [scalar_share_kpis(u, t, 1.0, cap) for u, t in base[key][: net.hour].tolist()]
        assert net.realized(key).tobytes() == np.array(expected).reshape(-1, 2).tobytes()
    for hour, rows in split_and_realize(net, picks, policy):
        cells = [net.cells[key] for key in net.active_keys()]
        expected = [scalar_share_kpis(*base[c.origin][hour].tolist(), c.load_fraction, cap)
                    for c in cells]
        assert rows.tobytes() == np.array(expected).tobytes()
        assert all(net.realized(c.key)[-1].tobytes() == row.tobytes()
                   for c, row in zip(cells, rows))


@PROPERTY
@given(load=st.floats(0.0, 1e6), run=split_runs())
def test_splits_conserve_load(load, run):
    net, base, picks, policy = run
    state = CellLoadState(CellId(0, 0), load, 50.0, 1.0, 10.0)
    parent, child, _ = split_cell(state, policy, 0, policy.rng(), child_cell_index=1)
    assert parent.load + child.load == load  # bit-exact
    for hour, rows in split_and_realize(net, picks, policy):
        children = {}  # each cell's split children, oldest first
        for event in net.split_events:
            children.setdefault((event.parent.enb, event.parent.cell), []).append(
                (event.child.enb, event.child.cell))

        def tree_sum(key):
            # a split's two parts are added before anything else: the parent's
            # fraction gets its child subtrees, most recent first
            total = net.cells[key].load_fraction
            for child_key in reversed(children.get(key, [])):
                total += tree_sum(child_key)
            return total

        by_origin = {}
        for cell, row in zip((net.cells[key] for key in net.active_keys()), rows):
            by_origin.setdefault(cell.origin, []).append(row[0])
        for origin, utils in by_origin.items():
            assert tree_sum(origin) == 1.0  # bit-exact
            assert sum(utils) == pytest.approx(base[origin][hour, 0], rel=1e-12, abs=1e-12)


@st.composite
def model_fleets(draw):
    """1-12 models of one config, each with a raw window; norm features may be degenerate."""
    config = LstmConfig(n_layers=draw(st.integers(1, 2)), units_per_layer=draw(st.integers(1, 6)))
    lookback = draw(st.integers(1, 8))
    models, windows = [], []
    for _ in range(draw(st.integers(1, 12))):
        lo = np.array([draw(ANY_PRB), draw(st.floats(0.0, 50.0))])
        hi = lo + [draw(st.sampled_from([0.0]) | st.floats(1e-3, 100.0)) for _ in lo]
        model = init_model(config, NormStats(lo, hi), np.random.default_rng(draw(st.integers(0, 999))))
        # a head bias beyond [0, 1] drives predictions past the KPI bounds
        model.head.b = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(config.output_dim)])
        models.append(model)
        prb = st.sampled_from([0.0, 100.0]) | ANY_PRB
        thr = st.sampled_from([0.0]) | st.floats(0.0, 60.0)
        windows.append([[draw(prb), draw(thr)] for _ in range(lookback)])
    return models, np.array(windows)


@PROPERTY
@given(fleet=model_fleets())
def test_fleet_forward_matches_each_model_alone(fleet):
    models, windows = fleet
    reference = [
        clamp_prediction(m.norm.denormalize(forward(m, m.norm.normalize(w))))
        for m, w in zip(models, windows)
    ]
    stacked = stack_models(models)
    assert np.shares_memory(stacked.layers[0].w_h, models[-1].layers[0].w_h)
    got = predict_fleet(stacked, windows)
    assert got.shape == (len(models), 2)
    for row, ref in zip(got, reference):
        assert np.array_equal(row, ref)


# the cache entries of ``_lstm_stack`` that lead with time; the others lead with the model
TIME_MAJOR_CACHE = {"i", "f", "g", "o", "c"}


@st.composite
def cached_stacks(draw):
    """2-5 models of one config, each with its own (T, B, D) input at batch B >= 2."""
    config = LstmConfig(n_layers=draw(st.integers(1, 3)), units_per_layer=draw(st.integers(1, 6)),
                        input_dim=draw(st.integers(1, 3)))
    norm = NormStats(np.zeros(config.input_dim), np.ones(config.input_dim))
    models = [init_model(config, norm, np.random.default_rng(draw(st.integers(0, 999))))
              for _ in range(draw(st.integers(2, 5)))]
    shape = (len(models), draw(st.integers(1, 8)), draw(st.integers(2, 17)), config.input_dim)
    return models, np.random.default_rng(draw(st.integers(0, 999))).uniform(0.0, 1.0, shape)


@PROPERTY
@given(stack=cached_stacks())
def test_stacked_cache_matches_each_model_alone(stack):
    models, inputs = stack
    solo = []
    for model, layer_in in zip(models, inputs):
        work = _Workspace(model.config, layer_in.shape)
        solo.append((_lstm_stack(model, layer_in, work), work.cache))
    work = _Workspace(models[0].config, inputs.shape)
    pred = _lstm_stack(stack_models(models), inputs, work)
    for m, (ref_pred, ref_cache) in enumerate(solo):
        assert np.array_equal(pred[m], ref_pred)
        assert len(work.cache) == len(ref_cache)
        for layer, ref_layer in zip(work.cache, ref_cache):
            assert layer.keys() == ref_layer.keys()
            for name, arr in layer.items():
                got = arr[:, m] if name in TIME_MAJOR_CACHE else arr[m]
                assert np.array_equal(got, ref_layer[name]), name


def rebuilt(model, arrays=None, epochs=None):
    """A copy of ``model`` with the given arrays (norm min, norm max, then
    ``param_arrays`` order) or trained epochs in place of its own."""
    arrays = arrays or [a.copy() for a in model_arrays(model)]
    fresh = init_model(model.config, NormStats(arrays[0], arrays[1]), np.random.default_rng(0))
    _write_params(fresh, arrays[2:])
    fresh.trained_epochs = model.trained_epochs if epochs is None else epochs
    return fresh


def model_arrays(model):
    return [model.norm.feature_min, model.norm.feature_max, *param_arrays(model)]


@st.composite
def perturbed_models(draw):
    """A model and a copy of it with at most one change: one ulp of one float,
    the sign of one zero, the trained epochs or one config field."""
    config = LstmConfig(
        n_layers=draw(st.integers(1, 2)), units_per_layer=draw(st.integers(1, 4)),
        input_dim=draw(st.integers(1, 3)), output_dim=draw(st.integers(1, 3)),
    )
    lo = np.array([draw(st.floats(-1e3, 1e3)) for _ in range(config.input_dim)])
    hi = lo + [draw(st.sampled_from([0.0]) | st.floats(1e-3, 1e3)) for _ in lo]
    model = init_model(config, NormStats(lo, hi), np.random.default_rng(draw(st.integers(0, 999))))
    model.trained_epochs = draw(st.integers(0, 50))
    arrays = [a.copy() for a in model_arrays(model)]
    kind = draw(st.sampled_from(["none", "ulp", "zero-sign", "epochs", "config"]))
    if kind in ("ulp", "zero-sign"):
        which = draw(st.integers(0, len(arrays) - 1))
        at = draw(st.integers(0, arrays[which].size - 1))
        if kind == "ulp":
            # the norm min only falls and the max only rises, so min <= max holds
            up = which == 1 or (which > 1 and draw(st.booleans()))
            flat = arrays[which].reshape(-1)
            flat[at] = np.nextafter(flat[at], np.inf if up else -np.inf)
        else:
            # both models get a zero there, of opposite signs; the other norm
            # stat of that feature makes room for it
            zero = draw(st.sampled_from([0.0, -0.0]))
            arrays[which].reshape(-1)[at] = zero
            if which == 0:
                arrays[1][at] = max(arrays[1][at], 0.0)
            elif which == 1:
                arrays[0][at] = min(arrays[0][at], 0.0)
            model = rebuilt(model, arrays=arrays)
            arrays = [a.copy() for a in arrays]
            arrays[which].reshape(-1)[at] = -zero
    changed = rebuilt(model, arrays=arrays)
    if kind == "epochs":
        changed = rebuilt(model, epochs=model.trained_epochs + 1)
    elif kind == "config":
        field = draw(st.sampled_from([f.name for f in dataclasses.fields(LstmConfig)]))
        other = dataclasses.replace(config, **{field: getattr(config, field) + 1})
        width = other.input_dim
        changed = init_model(
            other, NormStats(np.resize(lo, width), np.resize(hi, width)),
            np.random.default_rng(draw(st.integers(0, 999))),
        )
        changed.trained_epochs = model.trained_epochs
    return model, changed, kind


@PROPERTY
@given(pair=perturbed_models())
def test_model_digest_changes_exactly_when_the_model_file_does(pair):
    model, changed, kind = pair
    same_json = model_to_json(model) == model_to_json(changed)
    assert same_json == (kind == "none")
    assert (model_digest(model) == model_digest(changed)) == same_json
    assert model_digest(model_from_json(model_to_json(changed))) == model_digest(changed)


CONFIG_FIELDS = [f.name for f in dataclasses.fields(LstmConfig)]
# (key path of one model-file field, its edited value or DELETE, the key the error names)
DELETE = object()
MODEL_FILE_EDITS = (
    [(("trained_epochs",), v, "trained_epochs") for v in ["abc", -3, 2.5, True, None]]
    + [(("format_version",), True, "format_version")]
    + [(("config", f), v, f"config.{f}") for f in CONFIG_FIELDS for v in [1.0, "2"]]
    + [(("config", f), DELETE, f) for f in CONFIG_FIELDS]
    + [((k,), DELETE, k) for k in ["config", "norm", "trained_epochs", "layers", "head"]]
    + [((*parents, "extra"), 1, "extra") for parents in [(), ("config",), ("head",)]]
    + [(("head", "b"), v, "head.b") for v in [["0.0", False], 0.5, [[0.5]]]]
    + [(("norm", "feature_max"), v, "norm.feature_max") for v in [[True], ["1"], None]]
)


@pytest.mark.parametrize("edit", MODEL_FILE_EDITS,
                         ids=[".".join(path) + ("-deleted" if v is DELETE else f"={v!r}")
                              for path, v, _ in MODEL_FILE_EDITS])
@settings(derandomize=True, deadline=None, max_examples=5)
@given(pair=perturbed_models())
def test_model_file_with_a_mistyped_or_misnamed_key_is_rejected(pair, edit):
    # an integer field spelled 1.0 would load and give the same weights a second digest
    (*parents, key), value, named = edit
    doc = json.loads(model_to_json(pair[0]))
    node = doc
    for name in parents:
        node = node[name]
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    with pytest.raises(ValueError, match=re.escape(named)):
        model_from_json(json.dumps(doc))


@st.composite
def training_rounds(draw):
    """A round of cell histories drawn from a few lengths, some too short to train."""
    lstm = LstmConfig(n_layers=draw(st.integers(1, 2)), units_per_layer=draw(st.integers(1, 4)))
    cfg = TrainingConfig(
        batch_size=draw(st.integers(1, 6)),
        epochs=draw(st.integers(1, 3)),
        lookback=draw(st.integers(1, 5)),
        train_fraction=draw(st.sampled_from([0.5, 0.8])),
        seed=draw(st.integers(0, 2**32)),
    )
    lengths = draw(st.lists(st.integers(1, 24), min_size=1, max_size=3, unique=True))
    cell_keys = st.tuples(st.integers(0, 2), st.integers(0, 5))
    keys = draw(st.lists(cell_keys, min_size=1, max_size=8, unique=True))
    histories = {}
    for enb, cell in keys:
        rng = np.random.default_rng(draw(st.integers(0, 999)))
        n = draw(st.sampled_from(lengths))
        values = np.column_stack([rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 20.0, n)])
        histories[(enb, cell)] = KpiSeries(CellId(enb, cell), draw(st.integers(0, 50)), values)
    # from one model per stack to every model of a length in one stack
    stack_bytes = draw(st.sampled_from([1, 2_000, 20_000, 10**9]))
    return histories, lstm, cfg, stack_bytes


@PROPERTY
@given(round_=training_rounds())
def test_stacked_training_matches_each_cell_alone(round_):
    histories, lstm, cfg, stack_bytes = round_
    expected_models, expected_logs, expected_failures = {}, {}, []
    for key in sorted(histories):
        try:
            model, log = train(histories[key], lstm, cfg.for_cell(*key))
        except InsufficientDataError:
            expected_failures.append(key)
            continue
        expected_models[key], expected_logs[key] = model_to_json(model), log

    stacks = []

    def recording_train_stack(series_list, lstm_cfg, train_cfgs):
        trained = training.train_stack(series_list, lstm_cfg, train_cfgs)
        stacks.append(([(s.cell.enb, s.cell.cell) for s in series_list], trained))
        return trained

    with mock.patch.object(training, "STACK_BYTES", stack_bytes), \
            mock.patch.object(hosts, "train_stack", recording_train_stack):
        models, failures = hosts.train_cells(histories, lstm, cfg)

    assert failures == expected_failures
    assert {k: model_to_json(m) for k, m in models.items()} == expected_models
    logs = {}
    for keys, trained in stacks:
        width = training.stack_width(lstm, cfg, len(histories[keys[0]]))
        assert 1 <= len(keys) <= width
        logs.update((k, log) for k, (_, log) in zip(keys, trained))
    assert logs == expected_logs


@st.composite
def loop_logs(draw):
    """The event log of a small control loop with random cadence, windows and policy.

    A cell's KPIs are constant, congested or clear, or noisy. A constant
    history makes the forecast exact, so congested cells raise alarms and split.
    """
    horizon = draw(st.integers(4, 24))
    n_hours = draw(st.integers(30, 40)) + horizon
    base = []
    for c in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["congested", "clear", "noisy"]))
        if kind == "noisy":
            rng = np.random.default_rng(draw(st.integers(0, 999)))
            util, thr = rng.uniform(0.0, 100.0, n_hours), rng.uniform(0.0, 10.0, n_hours)
        else:
            util, thr = (96.0, 0.4) if kind == "congested" else (30.0, 6.0)
            util, thr = [util] * n_hours, [thr] * n_hours
        base.append(KpiSeries.from_arrays(CellId(0, c), 0, util, thr))
    factor = draw(st.sampled_from([2, 4, 8]))
    windows = st.integers(1, 24)
    cooldowns = st.integers(0, 12)
    loop_cfg = ControlLoopConfig(
        collection_period=draw(st.integers(1, 4)),
        retrain_accuracy_threshold=draw(st.sampled_from([0.0, 100.0]) | st.floats(0.0, 100.0)),
        feedback_window_hours=draw(windows),
        max_congested_hours=draw(st.none() | st.integers(0, 3)),
        target_window_hours=draw(windows),
        max_split_factor=factor,
        split_cooldown_hours=draw(cooldowns),
        retrain_cooldown_hours=draw(cooldowns),
    )
    result = run_control_loop(
        SimulatedNetwork(base, throughput_cap=10.0, history_hours=n_hours - horizon),
        rule=CongestionRule(),
        lstm_cfg=LstmConfig(n_layers=1, units_per_layer=3),
        train_cfg=TrainingConfig(batch_size=64, epochs=1, lookback=4,
                                 seed=draw(st.integers(0, 99))),
        loop_cfg=loop_cfg,
        split_policy=SplitPolicy(max_factor=factor, seed=draw(st.integers(0, 99))),
        horizon_hours=max(horizon, loop_cfg.collection_period),
    )
    return list(result.log)


def renumbered(events):
    return [dataclasses.replace(e, seq=i) for i, e in enumerate(events)]


# Events a cycle cannot do without; a Retrain, or an alarm without its E2, may be absent.
REQUIRED_TAGS = set(EventTag.ALL) - {EventTag.RETRAIN, EventTag.ALARM_RAISED, EventTag.E2_CONTROL}


@PROPERTY
@given(events=loop_logs(), data=st.data())
def test_validator_accepts_loop_logs_and_rejects_their_mutations(events, data):
    assert validate_events(events).ok

    def pick(choices):
        return data.draw(st.sampled_from(choices))

    i = pick([i for i, e in enumerate(events) if e.tag in REQUIRED_TAGS])
    assert not validate_events(renumbered(events[:i] + events[i + 1:])).ok, "drop"

    # swapping an E2Control with the next cell's AlarmRaised keeps the log valid
    valid_swap = (EventTag.E2_CONTROL, EventTag.ALARM_RAISED)
    i = pick([i for i, (a, b) in enumerate(zip(events, events[1:]))
              if a.tag != b.tag and (a.tag, b.tag) != valid_swap])
    swapped = events[:i] + [events[i + 1], events[i]] + events[i + 2:]
    assert not validate_events(renumbered(swapped)).ok, "swap"

    # an E2Control retagged AlarmRaised is an alarm that no split followed: valid
    i = pick(range(len(events)))
    tags = [t for t in EventTag.ALL if t != events[i].tag and
            (events[i].tag, t) != (EventTag.E2_CONTROL, EventTag.ALARM_RAISED)]
    retagged = dataclasses.replace(events[i], tag=pick(tags))
    assert not validate_events(events[:i] + [retagged] + events[i + 1:]).ok, "retag"

    i = pick(range(len(events)))
    shift = pick([-3, -2, -1, 1, 2, 3])
    shifted = dataclasses.replace(events[i], hour=events[i].hour + shift)
    assert not validate_events(events[:i] + [shifted] + events[i + 1:]).ok, "shifted hour"

    e2 = [i for i, e in enumerate(events) if e.tag == EventTag.E2_CONTROL]
    if e2:
        i = pick(e2)
        alarm = events[i - 1]
        assert (alarm.tag, alarm.cells) == (EventTag.ALARM_RAISED, events[i].cells)
        assert not validate_events(renumbered(events[: i - 1] + events[i:])).ok, "E2 alone"


def mutated_logs(events, i, data):
    """(name, log) for each kind of mutation of ``events`` at event ``i``."""
    e = events[i]
    yield "drop", events[:i] + events[i + 1:]
    yield "swap", events[:i] + events[i + 1:i + 2] + [e] + events[i + 2:]
    tag = data.draw(st.sampled_from(EventTag.ALL + ("Heartbeat",)))
    yield "retag", events[:i] + [dataclasses.replace(e, tag=tag)] + events[i + 1:]
    shifted = dataclasses.replace(e, hour=e.hour + data.draw(st.sampled_from([-3, -1, 1, 3])))
    yield "shifted hour", events[:i] + [shifted] + events[i + 1:]
    # an alarmed cell of another cycle makes an E2Control whose alarm is not in its own cycle
    alarmed = [a.cells for a in events if a.tag == EventTag.ALARM_RAISED]
    cells = data.draw(st.sampled_from([(), (CellId(9, 9),), e.cells + e.cells] + alarmed))
    yield "cells", events[:i] + [dataclasses.replace(e, cells=cells)] + events[i + 1:]
    yield "duplicate", events[:i + 1] + [e] + events[i + 1:]
    yield "truncate", events[:i]
    repeated = dataclasses.replace(e, seq=events[i - 1].seq)
    yield "repeated seq", events[:i] + [repeated] + events[i + 1:]


@PROPERTY
@given(events=loop_logs(), data=st.data())
def test_validator_verdicts_match_the_seed_validator(events, data):
    # one place in each context of (previous, own, next) tag that the log holds
    tags = [None] + [e.tag for e in events] + [None]
    contexts = {}
    for i in range(len(events)):
        contexts.setdefault(tuple(tags[i:i + 3]), []).append(i)
    places = [data.draw(st.sampled_from(at)) for at in contexts.values()]
    logs = [("loop", events)] + [
        (f"{name} at {i}{tail}", log)
        for i in places for name, mutated in mutated_logs(events, i, data)
        for tail, log in (("", mutated), (" renumbered", renumbered(mutated)))
    ]
    for name, log in logs:
        got, expected = validate_events(log), seed_validate_events(log)
        assert (got.ok, got.seq) == (expected.ok, expected.seq), name
