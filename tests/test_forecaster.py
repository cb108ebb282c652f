"""Tests for the LSTM forecaster: recurrence, gradients, Adam, training.

The recurrence oracle is a deliberately naive transcription of the textbook
LSTM equations evaluated with scalar loops, independent of the vectorized
implementation. Gradients are checked against central finite differences.
"""

import copy
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from oransim.kpi import CellId, KpiSeries
from oransim.forecast import (
    AdamHyper,
    AdamState,
    ForecastModel,
    HeadParams,
    InsufficientDataError,
    LayerParams,
    LstmConfig,
    NormStats,
    TrainingConfig,
    UndefinedMetricError,
    accuracy,
    adam_step,
    backward,
    compute_norm_stats,
    evaluate_heldout,
    forward,
    init_model,
    load_model,
    make_windows,
    model_digest,
    model_from_json,
    model_to_json,
    mse_loss,
    param_arrays,
    predict_from_window,
    save_model,
    stack_models,
    stack_width,
    train,
    train_stack,
)
from oransim.forecast import training
from oransim.forecast.model import _lstm_stack, _Workspace, _write_params, sigmoid


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))


def small_model(seed=0, n_layers=2, units=3, input_dim=2, output_dim=2):
    cfg = LstmConfig(n_layers, units, input_dim, output_dim)
    norm = NormStats(np.zeros(input_dim), np.ones(input_dim))
    return init_model(cfg, norm, rng_for(seed))


def series_from_arrays(prb, thr, cell=CellId(0, 0), start=0):
    return KpiSeries.from_arrays(cell, start, prb, thr)


def sine_series(n=200, seed=3, noise=0.0):
    rng = rng_for(seed)
    t = np.arange(n)
    prb = 50 + 30 * np.sin(2 * np.pi * t / 24) + rng.normal(0, noise, n)
    thr = 5 + 2 * np.cos(2 * np.pi * t / 24) + rng.normal(0, noise, n)
    return series_from_arrays(np.clip(prb, 0, 100), np.maximum(thr, 0.0))


# --- independent oracle: naive scalar transcription of the LSTM equations ---

def oracle_lstm_step(x, h_prev, c_prev, w_x, w_h, b, units):
    """One LSTM step computed element by element from the textbook equations."""
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h_new = np.zeros(units)
    c_new = np.zeros(units)
    for u in range(units):
        # gate rows: input u, forget units+u, output 2*units+u, candidate 3*units+u
        zi = b[u] + sum(w_x[u, k] * x[k] for k in range(len(x)))
        zi += sum(w_h[u, k] * h_prev[k] for k in range(units))
        zf = b[units + u] + sum(w_x[units + u, k] * x[k] for k in range(len(x)))
        zf += sum(w_h[units + u, k] * h_prev[k] for k in range(units))
        zo = b[2 * units + u] + sum(w_x[2 * units + u, k] * x[k] for k in range(len(x)))
        zo += sum(w_h[2 * units + u, k] * h_prev[k] for k in range(units))
        zg = b[3 * units + u] + sum(w_x[3 * units + u, k] * x[k] for k in range(len(x)))
        zg += sum(w_h[3 * units + u, k] * h_prev[k] for k in range(units))
        i, f, o, g = sig(zi), sig(zf), sig(zo), math.tanh(zg)
        c_new[u] = f * c_prev[u] + i * g
        h_new[u] = o * math.tanh(c_new[u])
    return h_new, c_new


def oracle_forward(model, window):
    units = model.config.units_per_layer
    h = [np.zeros(units) for _ in model.layers]
    c = [np.zeros(units) for _ in model.layers]
    for t in range(window.shape[0]):
        x = window[t]
        for l, layer in enumerate(model.layers):
            h[l], c[l] = oracle_lstm_step(x, h[l], c[l], layer.w_x, layer.w_h, layer.b, units)
            x = h[l]
    out = np.zeros(model.config.output_dim)
    for j in range(model.config.output_dim):
        out[j] = model.head.b[j] + sum(model.head.w[j, k] * h[-1][k] for k in range(units))
    return out


# --- seed references: the two vectorised loops the shared recurrence replaced ---

def seed_forward(model, window):
    """The vectorised inference loop of ``forward`` as it was before the fold."""
    window = np.asarray(window, dtype=np.float64)
    squeeze = window.ndim == 2
    if squeeze:
        window = window[np.newaxis, :, :]
    batch, steps, _ = window.shape
    h_units = model.config.units_per_layer
    layer_in = window.transpose(1, 0, 2)  # (T, B, D)
    for layer in model.layers:
        zx = layer_in @ layer.w_x.T + layer.b
        h = np.zeros((batch, h_units))
        c = np.zeros((batch, h_units))
        outputs = np.empty((steps, batch, h_units))
        for t in range(steps):
            z = zx[t] + h @ layer.w_h.T
            gates = sigmoid(z[:, : 3 * h_units])
            g = np.tanh(z[:, 3 * h_units :])
            c = gates[:, h_units : 2 * h_units] * c + gates[:, :h_units] * g
            h = gates[:, 2 * h_units : 3 * h_units] * np.tanh(c)
            outputs[t] = h
        layer_in = outputs
    pred = layer_in[-1] @ model.head.w.T + model.head.b
    return pred[0] if squeeze else pred


def seed_forward_cached(model, inputs):
    """The BPTT forward pass (``_forward_cached``) as it was before the fold."""
    batch, steps, _ = inputs.shape
    n_units = model.config.units_per_layer
    cache = []
    layer_in = np.ascontiguousarray(inputs.transpose(1, 0, 2))  # (T, B, D)
    for layer in model.layers:
        zx = layer_in @ layer.w_x.T + layer.b  # (T, B, 4H)
        gi = np.empty((steps, batch, n_units))
        gf = np.empty_like(gi)
        gg = np.empty_like(gi)
        go = np.empty_like(gi)
        cs = np.empty_like(gi)
        tc = np.empty_like(gi)
        hs = np.empty_like(gi)
        h = np.zeros((batch, n_units))
        c = np.zeros((batch, n_units))
        for t in range(steps):
            z = zx[t] + h @ layer.w_h.T
            gates = sigmoid(z[:, : 3 * n_units])
            gi[t] = gates[:, 0 * n_units : 1 * n_units]
            gf[t] = gates[:, 1 * n_units : 2 * n_units]
            go[t] = gates[:, 2 * n_units : 3 * n_units]
            gg[t] = np.tanh(z[:, 3 * n_units :])
            c = gf[t] * c + gi[t] * gg[t]
            cs[t] = c
            tc[t] = np.tanh(c)
            h = go[t] * tc[t]
            hs[t] = h
        cache.append(
            {"x": layer_in, "i": gi, "f": gf, "g": gg, "o": go, "c": cs, "tanh_c": tc, "h": hs}
        )
        layer_in = hs
    pred = cache[-1]["h"][-1] @ model.head.w.T + model.head.b
    return pred, cache


def seed_backward(model, inputs, targets):
    """BPTT (``_backward_from_cache``) as it was before stacking: time-major,
    with zero-shifted copies of the states."""
    pred, cache = seed_forward_cached(model, inputs)
    dpred = 2.0 * (pred - targets) / pred.size
    steps, batch, n_units = cache[0]["h"].shape

    def shift_back(arr):
        out = np.zeros_like(arr)
        out[1:] = arr[:-1]
        return out

    g_head_w = dpred.T @ cache[-1]["h"][-1]
    g_head_b = dpred.sum(axis=0)
    dh_seq = np.zeros((steps, batch, n_units))
    dh_seq[-1] = dpred @ model.head.w
    grads_layers = [None] * len(model.layers)
    for l in reversed(range(len(model.layers))):
        layer, lc = model.layers[l], cache[l]
        gi, gf, gg, go, tc = lc["i"], lc["f"], lc["g"], lc["o"], lc["tanh_c"]
        c_prev, h_prev = shift_back(lc["c"]), shift_back(lc["h"])
        dz = np.empty((steps, batch, 4 * n_units))
        dh_carry = np.zeros((batch, n_units))
        dc_carry = np.zeros((batch, n_units))
        for t in reversed(range(steps)):
            dh = dh_seq[t] + dh_carry
            do = dh * tc[t]
            dc = dc_carry + dh * go[t] * (1.0 - tc[t] * tc[t])
            dz[t][:, 0 * n_units : 1 * n_units] = dc * gg[t] * gi[t] * (1.0 - gi[t])
            dz[t][:, 1 * n_units : 2 * n_units] = dc * c_prev[t] * gf[t] * (1.0 - gf[t])
            dz[t][:, 2 * n_units : 3 * n_units] = do * go[t] * (1.0 - go[t])
            dz[t][:, 3 * n_units : 4 * n_units] = dc * gi[t] * (1.0 - gg[t] * gg[t])
            dh_carry = dz[t] @ layer.w_h
            dc_carry = dc * gf[t]
        dz_flat = dz.reshape(steps * batch, 4 * n_units)
        grads_layers[l] = (
            dz_flat.T @ lc["x"].reshape(steps * batch, -1),
            dz_flat.T @ h_prev.reshape(steps * batch, n_units),
            dz_flat.sum(axis=0),
        )
        if l > 0:
            dh_seq = dz @ layer.w_x
    grads = [g for layer_grads in grads_layers for g in layer_grads]
    return mse_loss(pred, targets), grads + [g_head_w, g_head_b]


def seed_train(series, lstm_cfg, cfg):
    """The per-cell training loop of ``train`` as it was before stacking,
    without its per-epoch validation forward, whose loss nothing read."""
    split = int(np.floor(cfg.train_fraction * len(series)))
    norm = compute_norm_stats(series.to_array()[:split])
    inputs, targets = make_windows(series, cfg, norm)
    n_train = split - cfg.lookback
    train_inputs, train_targets = inputs[:n_train], targets[:n_train]
    rng = rng_for(cfg.seed)
    model = init_model(lstm_cfg, norm, rng)
    params = param_arrays(model)
    state = AdamState.zeros_like(params)
    log = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_train)
        sq_sum = 0.0
        for lo in range(0, n_train, cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            loss, grads = seed_backward(model, train_inputs[batch], train_targets[batch])
            sq_sum += loss * len(batch)
            params, state = adam_step(params, grads, state, cfg.adam)
            _write_params(model, params)
        log.append((epoch, sq_sum / n_train))
    model.trained_epochs = cfg.epochs
    return model, log


class TestForward:
    def test_zero_parameters_give_zero_prediction(self):
        cfg = LstmConfig(2, 3, 2, 2)
        layers = [
            LayerParams(np.zeros((12, 2)), np.zeros((12, 3)), np.zeros(12)),
            LayerParams(np.zeros((12, 3)), np.zeros((12, 3)), np.zeros(12)),
        ]
        head = HeadParams(np.zeros((2, 3)), np.zeros(2))
        model = ForecastModel(cfg, layers, head, NormStats(np.zeros(2), np.ones(2)))
        assert np.all(forward(model, np.ones((8, 2))) == 0)

    def test_lookback_one_reduces_to_single_step(self):
        model = small_model(seed=5, n_layers=1, units=4)
        x = np.array([[0.3, -0.7]])
        layer = model.layers[0]
        h, _ = oracle_lstm_step(x[0], np.zeros(4), np.zeros(4), layer.w_x, layer.w_h, layer.b, 4)
        assert np.allclose(forward(model, x), h @ model.head.w.T + model.head.b, atol=1e-14)

    def test_matches_oracle_on_fixed_window(self):
        model = small_model(seed=9, n_layers=2, units=3)
        window = rng_for(10).uniform(-1, 1, size=(6, 2))
        assert np.allclose(forward(model, window), oracle_forward(model, window), atol=1e-12)

    def test_batched_forward_matches_loop(self):
        model = small_model(seed=6)
        windows = rng_for(8).uniform(0, 1, size=(5, 7, 2))
        batched = forward(model, windows)
        for i in range(5):
            assert np.allclose(batched[i], forward(model, windows[i]), atol=1e-14)

    def test_wrong_input_dim_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            forward(model, np.ones((4, 3)))


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("n_layers", [1, 2])
class TestSeedReference:
    """The shared recurrence reproduces both seed loops bit for bit."""

    def model_and_windows(self, n_layers, batch):
        model = small_model(seed=20 + n_layers, n_layers=n_layers, units=12)
        windows = rng_for(30 + batch).uniform(0, 1, size=(batch, 24, 2))
        return model, windows

    def test_forward_matches_seed_loop(self, n_layers, batch):
        model, windows = self.model_and_windows(n_layers, batch)
        assert np.array_equal(forward(model, windows), seed_forward(model, windows))
        assert np.array_equal(forward(model, windows[0]), seed_forward(model, windows[0]))

    def test_bptt_cache_matches_seed_forward_cached(self, n_layers, batch):
        model, windows = self.model_and_windows(n_layers, batch)
        layer_in = np.ascontiguousarray(windows.transpose(1, 0, 2))
        work = _Workspace(model.config, layer_in.shape)
        pred = _lstm_stack(model, layer_in, work)
        ref_pred, ref_cache = seed_forward_cached(model, windows)
        assert np.array_equal(pred, ref_pred)
        assert len(work.cache) == len(ref_cache) == n_layers
        for layer, ref_layer in zip(work.cache, ref_cache):
            # tanh_c is not cached: BPTT recomputes it from c
            assert layer.keys() == ref_layer.keys() - {"tanh_c"}
            for name, arr in layer.items():
                if name in ("c", "h"):
                    # slot 0 holds the zero state at t = -1
                    assert np.array_equal(arr[0], np.zeros_like(arr[0])), name
                    arr = arr[1:]
                assert np.array_equal(arr, ref_layer[name]), name
            assert np.array_equal(np.tanh(layer["c"][1:]), ref_layer["tanh_c"])

    def test_backward_matches_seed_bptt(self, n_layers, batch):
        model, windows = self.model_and_windows(n_layers, batch)
        targets = rng_for(40 + batch).uniform(0, 1, size=(batch, 2))
        _, ref_grads = seed_backward(model, windows, targets)
        grads = backward(model, windows, targets)
        assert len(grads) == len(ref_grads)
        for grad, ref in zip(grads, ref_grads):
            assert np.array_equal(grad, ref)

    def test_train_matches_seed_loop(self, n_layers, batch):
        # 41 windows: batch 16 leaves a remainder of 9 in every epoch
        series = sine_series(64, noise=0.2)
        cfg = TrainingConfig(batch_size=batch, epochs=2, lookback=10, seed=n_layers)
        lstm = LstmConfig(n_layers, 5, 2, 2)
        model, log = train(series, lstm, cfg)
        ref_model, ref_log = seed_train(series, lstm, cfg)
        assert model_to_json(model) == model_to_json(ref_model)
        assert [(e.epoch, e.train_loss) for e in log] == ref_log


class TestMseLoss:
    def test_zero_at_equality(self):
        x = rng_for(1).normal(size=(4, 2))
        assert mse_loss(x, x) == 0.0

    def test_unit_difference(self):
        assert mse_loss(np.array([2.0, 3.0]), np.array([1.0, 2.0])) == 1.0

    def test_matches_independent_summation(self):
        rng = rng_for(2)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        manual = sum((x - y) ** 2 for x, y in zip(a.ravel(), b.ravel())) / 12
        assert mse_loss(a, b) == pytest.approx(manual, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(2), np.zeros(3))


class TestBackward:
    def gradcheck(self, model, inputs, targets, step=1e-5, tol=1e-4):
        grads = backward(model, inputs, targets)
        worst = 0.0
        for arr, grad in zip(param_arrays(model), grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                up = mse_loss(forward(model, inputs), targets)
                arr[idx] = orig - step
                down = mse_loss(forward(model, inputs), targets)
                arr[idx] = orig
                fd = (up - down) / (2 * step)
                rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-5)
                worst = max(worst, rel)
        assert worst < tol, f"worst relative gradient error {worst}"

    def test_gradients_match_finite_differences(self):
        rng = rng_for(21)
        model = small_model(seed=21, n_layers=2, units=3)
        inputs = rng.uniform(0, 1, size=(4, 4, 2))
        targets = rng.uniform(0, 1, size=(4, 2))
        self.gradcheck(model, inputs, targets)

    def test_zero_gradients_at_exact_fit(self):
        model = small_model(seed=4, n_layers=1, units=3)
        inputs = rng_for(5).uniform(0, 1, size=(3, 4, 2))
        targets = forward(model, inputs)  # loss is exactly zero here
        grads = backward(model, inputs, targets)
        assert all(np.allclose(g, 0.0, atol=1e-15) for g in grads)

    def test_gradients_are_pure(self):
        model = small_model(seed=7)
        rng = rng_for(6)
        inputs = rng.uniform(0, 1, size=(4, 5, 2))
        targets = rng.uniform(0, 1, size=(4, 2))
        first = backward(model, inputs, targets)
        second = backward(model, inputs, targets)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_empty_batch_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            backward(model, np.zeros((0, 4, 2)), np.zeros((0, 2)))

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (3, 1), (3, 2, 1), (2, 2)])
    def test_targets_must_be_batch_by_output_dim(self, shape):
        # broadcasting any of these against the (3, 2) prediction would give a gradient
        model = small_model()
        with pytest.raises(ValueError, match=re.escape(f"{shape} != (3, 2)")):
            backward(model, np.zeros((3, 4, 2)), np.zeros(shape))


class TestAdam:
    def test_zero_gradients_fixed_point(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        grads = [np.zeros(2), np.zeros((1, 1))]
        state = AdamState.zeros_like(params)
        new_params, new_state = adam_step(params, grads, state, AdamHyper())
        assert all(np.array_equal(p, q) for p, q in zip(params, new_params))
        assert new_state.step == 1

    def test_first_step_moves_by_lr_times_sign(self):
        hyper = AdamHyper(learning_rate=0.01)
        params = [np.array([1.0, 1.0])]
        grads = [np.array([0.5, -2.0])]
        new_params, _ = adam_step(params, grads, AdamState.zeros_like(params), hyper)
        delta = new_params[0] - params[0]
        assert delta == pytest.approx([-0.01, 0.01], rel=1e-6)

    def test_quadratic_descent_matches_hand_iteration(self):
        # oracle: Adam iterated by hand on f(w) = w^2 from w = 1
        hyper = AdamHyper(learning_rate=0.1)
        w, m, v = 1.0, 0.0, 0.0
        expected = []
        for t in range(1, 4):
            g = 2.0 * w
            m = hyper.beta1 * m + (1 - hyper.beta1) * g
            v = hyper.beta2 * v + (1 - hyper.beta2) * g * g
            m_hat = m / (1 - hyper.beta1**t)
            v_hat = v / (1 - hyper.beta2**t)
            w = w - hyper.learning_rate * m_hat / (math.sqrt(v_hat) + hyper.epsilon)
            expected.append(w)

        params = [np.array([1.0])]
        state = AdamState.zeros_like(params)
        actual = []
        for _ in range(3):
            grads = [2.0 * params[0]]
            params, state = adam_step(params, grads, state, hyper)
            actual.append(float(params[0][0]))
        assert actual == pytest.approx(expected, rel=1e-12)
        assert abs(actual[-1]) < 1.0

    def test_shape_mismatch_rejected(self):
        params = [np.zeros(2)]
        state = AdamState.zeros_like(params)
        with pytest.raises(ValueError):
            adam_step(params, [np.zeros(3)], state, AdamHyper())


class TestWindows:
    def test_window_count_minimal(self):
        series = sine_series(25)
        cfg = TrainingConfig(lookback=24, seed=0)
        inputs, targets = make_windows(series, cfg, compute_norm_stats(series.to_array()))
        assert len(inputs) == len(targets) == 1

    def test_window_count_arithmetic(self):
        series = sine_series(600)
        cfg = TrainingConfig(lookback=24, seed=0)
        inputs, targets = make_windows(series, cfg, compute_norm_stats(series.to_array()))
        assert len(inputs) == len(targets) == 576

    def test_targets_are_next_hour(self):
        series = sine_series(30)
        cfg = TrainingConfig(lookback=4, seed=0)
        norm = compute_norm_stats(series.to_array())
        inputs, targets = make_windows(series, cfg, norm)
        values = norm.normalize(series.to_array())
        for i in range(len(inputs)):
            assert np.array_equal(inputs[i], values[i : i + 4])
            assert np.array_equal(targets[i], values[i + 4])

    def test_constant_series_normalizes_to_equal_inputs(self):
        series = series_from_arrays([50.0] * 30, [2.0] * 30)
        norm = NormStats(np.array([0.0, 0.0]), np.array([100.0, 4.0]))
        cfg = TrainingConfig(lookback=5, seed=0)
        inputs, _ = make_windows(series, cfg, norm)
        assert np.all(inputs == inputs[0, 0])

    def test_too_short_series_rejected(self):
        series = sine_series(10)
        with pytest.raises(InsufficientDataError):
            make_windows(series, TrainingConfig(lookback=24, seed=0),
                         compute_norm_stats(series.to_array()))


class TestNormStats:
    def test_round_trip(self):
        rng = rng_for(12)
        values = rng.uniform(-5, 50, size=(40, 2))
        norm = compute_norm_stats(values)
        assert np.allclose(norm.denormalize(norm.normalize(values)), values, atol=1e-12)

    def test_degenerate_feature_maps_to_zero(self):
        values = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        norm = compute_norm_stats(values)
        normalized = norm.normalize(values)
        assert np.all(normalized[:, 0] == 0.0)
        assert np.all(norm.denormalize(normalized)[:, 0] == 7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NormStats(np.array([1.0]), np.array([0.0]))


class TestTraining:
    def test_deterministic_given_seed(self):
        series = sine_series(80, noise=0.1)
        cfg = TrainingConfig(epochs=3, lookback=8, seed=42)
        lstm = LstmConfig(1, 4, 2, 2)
        model_a, log_a = train(series, lstm, cfg)
        model_b, log_b = train(series, lstm, cfg)
        assert all(
            np.array_equal(p, q)
            for p, q in zip(param_arrays(model_a), param_arrays(model_b))
        )
        assert log_a == log_b

    def test_loss_decreases_on_clean_sine(self):
        series = sine_series(200, noise=0.0)
        cfg = TrainingConfig(epochs=40, lookback=12, seed=1)
        model, log = train(series, LstmConfig(1, 8, 2, 2), cfg)
        assert log[-1].train_loss < 0.1 * log[0].train_loss
        assert model.trained_epochs == 40

    def test_insufficient_data_rejected(self):
        series = sine_series(25)
        with pytest.raises(InsufficientDataError):
            train(series, LstmConfig(1, 4, 2, 2), TrainingConfig(lookback=24, seed=0))

    def test_epochs_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(train_fraction=1.0)
        with pytest.raises(ValueError):
            TrainingConfig(horizon=2)

    def test_log_has_one_entry_per_epoch(self):
        series = sine_series(60)
        cfg = TrainingConfig(epochs=5, lookback=6, seed=2)
        _, log = train(series, LstmConfig(1, 3, 2, 2), cfg)
        assert [e.epoch for e in log] == [1, 2, 3, 4, 5]
        assert all(np.isfinite(e.train_loss) and e.train_loss >= 0.0 for e in log)


class TestStackedTraining:
    def test_each_step_runs_one_cached_forward_and_nothing_else(self, monkeypatch):
        calls = []

        def recording_lstm_stack(model, layer_in, work=None):
            calls.append(work is not None)
            return _lstm_stack(model, layer_in, work)

        monkeypatch.setattr(training, "_lstm_stack", recording_lstm_stack)
        # 64 hours at lookback 10 leave 41 training windows: 3 batches of 16
        series = [sine_series(64, seed=s, noise=0.2) for s in (1, 2)]
        cfg = TrainingConfig(batch_size=16, epochs=2, lookback=10)
        trained = train_stack(series, LstmConfig(2, 5, 2, 2), [cfg, cfg.for_cell(0, 1)])
        assert [len(log) for _, log in trained] == [2, 2]
        assert calls == [True] * (2 * 3)

    @pytest.mark.parametrize("batch_size, length, width", [
        (16, 138, 4), (16, 153, 4), (9, 42, 8),
    ])
    def test_stack_width_at_the_bench_shapes(self, batch_size, length, width):
        cfg = TrainingConfig(batch_size=batch_size, lookback=24)
        assert stack_width(LstmConfig(), cfg, length) == width

    def test_stacked_step_stays_within_its_model_bytes(self):
        # one width-4 step at loop-retrain's shapes traces 2,499,152 bytes; caching
        # tanh(c) as well took it to 2,787,424, over the 2,649,293 allowed here
        lstm, cfg = LstmConfig(), TrainingConfig(batch_size=16, lookback=24)
        norm = NormStats(np.zeros(2), np.ones(2))
        stack = stack_models([init_model(lstm, norm, rng_for(seed)) for seed in range(4)])
        data = rng_for(9)
        layer_in = data.uniform(0.0, 1.0, size=(4, 24, 16, 2))
        targets = data.uniform(0.0, 1.0, size=(4, 16, 2))
        training._loss_and_gradients(stack, layer_in, targets)  # numpy's first-call set-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            training._loss_and_gradients(stack, layer_in, targets)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 4 * training._model_bytes(lstm, cfg, 153)

    def stacked_step_inputs(self, batch, seed, lstm=LstmConfig(), width=4):
        data = rng_for(seed)
        return (data.uniform(0.0, 1.0, size=(width, 24, batch, lstm.input_dim)),
                data.uniform(0.0, 1.0, size=(width, batch, lstm.output_dim)))

    def test_held_workspace_step_allocates_almost_nothing(self):
        # a step that allocated its caches again would trace about 20 times this bound
        lstm, cfg = LstmConfig(), TrainingConfig(batch_size=16, lookback=24)
        norm = NormStats(np.zeros(2), np.ones(2))
        stack = stack_models([init_model(lstm, norm, rng_for(seed)) for seed in range(4)])
        layer_in, targets = self.stacked_step_inputs(16, 9)
        work = _Workspace(lstm, layer_in.shape)
        training._loss_and_gradients(stack, layer_in, targets, work)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            training._loss_and_gradients(stack, layer_in, targets, work)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 4 * training._model_bytes(lstm, cfg, 153)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_reused_workspace_keeps_no_state_between_steps(self, n_layers):
        # the short batch's buffers start inside the full batch's, where its t = -1
        # states and the carries of the step before were left
        lstm = LstmConfig(n_layers, 5, 2, 2)
        norm = NormStats(np.zeros(2), np.ones(2))
        stack = stack_models([init_model(lstm, norm, rng_for(seed)) for seed in range(3)])
        full_in, full_targets = self.stacked_step_inputs(16, 1, lstm, 3)
        short_in, short_targets = self.stacked_step_inputs(5, 2, lstm, 3)
        full = _Workspace(lstm, full_in.shape)
        short = _Workspace(lstm, short_in.shape, full=full)
        steps = [(full, full_in, full_targets), (short, short_in, short_targets),
                 (full, full_in, full_targets)]
        for work, layer_in, targets in steps:
            loss, grads = training._loss_and_gradients(stack, layer_in, targets, work)
            ref_loss, ref_grads = training._loss_and_gradients(stack, layer_in, targets)
            assert np.array_equal(loss, ref_loss)
            assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))


class TestPrediction:
    def test_constant_series_predicts_constant(self):
        # constant input is the MSE optimum; training should sit near it
        series = series_from_arrays([60.0] * 80, [3.0] * 80)
        cfg = TrainingConfig(epochs=60, lookback=8, seed=3)
        model, _ = train(series, LstmConfig(1, 4, 2, 2), cfg)
        pred = predict_from_window(model, series.to_array()[-8:], next_timestamp=80)
        assert pred.prb_util == pytest.approx(60.0, abs=1e-3)
        assert pred.ip_throughput == pytest.approx(3.0, abs=1e-3)

    def test_clamping_to_valid_kpi_range(self):
        model = small_model(seed=13)
        # force denormalization far outside the valid range
        object.__setattr__(model.norm, "feature_min", np.array([0.0, 0.0]))
        object.__setattr__(model.norm, "feature_max", np.array([1000.0, 10.0]))
        model.head.b[:] = [1.0, -5.0]
        model.head.w[:] = 0.0
        for layer in model.layers:
            layer.w_x[:] = 0.0
            layer.w_h[:] = 0.0
            layer.b[:] = 0.0
        pred = predict_from_window(model, np.ones((4, 2)), next_timestamp=4)
        assert pred.prb_util == 100.0  # raw 1000 clamped
        assert pred.ip_throughput == 0.0  # raw -50 floored

    def test_zero_model_predicts_feature_minimum(self):
        cfg = LstmConfig(1, 3, 2, 2)
        layers = [LayerParams(np.zeros((12, 2)), np.zeros((12, 3)), np.zeros(12))]
        head = HeadParams(np.zeros((2, 3)), np.zeros(2))
        norm = NormStats(np.array([10.0, 0.5]), np.array([90.0, 9.5]))
        model = ForecastModel(cfg, layers, head, norm)
        pred = predict_from_window(model, np.ones((4, 2)), next_timestamp=4)
        assert pred.prb_util == 10.0
        assert pred.ip_throughput == 0.5


class TestAccuracy:
    def test_perfect_prediction(self):
        assert accuracy([1.0, 2.0], [1.0, 2.0]) == 100.0

    def test_two_point_example(self):
        # APEs are 50% and 25%: accuracy = 100 - 37.5 = 62.5
        assert accuracy([1.0, 5.0], [2.0, 4.0]) == pytest.approx(62.5)

    def test_floor_at_zero(self):
        assert accuracy([2.0, 4.0], [1.0, 2.0]) == 0.0

    def test_scale_invariance(self):
        rng = rng_for(14)
        pred = rng.uniform(1, 10, size=20)
        act = rng.uniform(1, 10, size=20)
        assert accuracy(3.7 * pred, 3.7 * act) == pytest.approx(accuracy(pred, act), rel=1e-12)

    def test_near_zero_actuals_excluded(self):
        # the zero actual would blow up MAPE; it must be dropped from the mean
        assert accuracy([1.0, 2.0], [0.0, 2.0]) == 100.0

    def test_all_excluded_raises(self):
        with pytest.raises(UndefinedMetricError):
            accuracy([1.0], [0.0])

    def test_heldout_evaluation(self):
        series = sine_series(120, noise=0.0)
        cfg = TrainingConfig(epochs=60, lookback=12, seed=4)
        model, _ = train(series, LstmConfig(1, 8, 2, 2), cfg)
        acc, n_points = evaluate_heldout(model, series, cfg)
        assert n_points == 120 - 12 - (96 - 12)  # targets at hours >= 96
        assert acc > 90.0


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        series = sine_series(60, noise=0.05)
        cfg = TrainingConfig(epochs=2, lookback=6, seed=9)
        model, _ = train(series, LstmConfig(2, 4, 2, 2), cfg)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.trained_epochs == model.trained_epochs
        assert np.array_equal(loaded.norm.feature_min, model.norm.feature_min)
        assert np.array_equal(loaded.norm.feature_max, model.norm.feature_max)
        for a, b in zip(param_arrays(model), param_arrays(loaded)):
            assert np.array_equal(a, b)

    def test_serialization_is_deterministic(self):
        model = small_model(seed=17)
        assert model_to_json(model) == model_to_json(model)

    def test_rejects_foreign_files(self):
        with pytest.raises(ValueError):
            model_from_json('{"format": "something-else"}')

    @pytest.mark.parametrize("field, value", [
        ("feature_min", [0.0, float("nan")]),
        ("feature_max", [1.0, float("inf")]),
    ])
    def test_rejects_non_finite_norm_stats(self, field, value):
        doc = json.loads(model_to_json(small_model(seed=21)))
        doc["norm"][field] = value
        with pytest.raises(ValueError, match="finite"):
            model_from_json(json.dumps(doc))

    def test_rejects_norm_stats_of_the_wrong_width(self):
        doc = json.loads(model_to_json(small_model(seed=22)))
        doc["norm"] = {"feature_min": [0.0, 0.0, 0.0], "feature_max": [1.0, 1.0, 1.0]}
        with pytest.raises(ValueError, match="norm feature_min shape"):
            model_from_json(json.dumps(doc))

    def test_rejects_string_and_bool_array_elements(self):
        # np.array(..., float64) would read this as [0.0, 0.0], under the same digest
        doc = json.loads(model_to_json(small_model(seed=23)))
        doc["head"]["b"] = ["0.0", False]
        with pytest.raises(ValueError, match=re.escape("head.b[0] must be float, got '0.0'")):
            model_from_json(json.dumps(doc))
        doc["head"]["b"] = [0.0, False]
        with pytest.raises(ValueError, match=re.escape("head.b[1] must be float, got False")):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [True, "1", None, [0.5]])
    def test_layer_array_elements_must_be_json_numbers(self, value):
        doc = json.loads(model_to_json(small_model(seed=24)))
        doc["layers"][1]["w_h"][2][0] = value
        with pytest.raises(ValueError, match=re.escape("layers[1].w_h[2][0] must be float")):
            model_from_json(json.dumps(doc))
        doc["layers"][1]["w_h"][2][0] = 7  # an int is a JSON number
        assert model_from_json(json.dumps(doc)).layers[1].w_h[2, 0] == 7.0

    def test_rejects_ragged_arrays(self):
        doc = json.loads(model_to_json(small_model(seed=25)))
        doc["layers"][0]["w_x"][1] = doc["layers"][0]["w_x"][1][:1]
        with pytest.raises(ValueError, match=re.escape("layers[0].w_x rows")):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("before, after, key", [
        ('"trained_epochs":', '"trained_epochs":0,"trained_epochs":', "trained_epochs"),
        ('"config":{', '"config":{"n_layers":1,', "n_layers"),
    ])
    def test_rejects_a_repeated_key(self, before, after, key):
        # json.loads alone keeps the last value of a repeated key
        text = model_to_json(small_model(seed=26))
        assert before in text
        with pytest.raises(ValueError, match=re.escape(f"duplicate key '{key}'")):
            model_from_json(text.replace(before, after, 1))

    def test_save_load_preserves_predictions(self, tmp_path):
        model = small_model(seed=19)
        window = rng_for(20).uniform(0, 1, size=(6, 2))
        path = tmp_path / "m.json"
        save_model(model, path)
        assert np.array_equal(forward(model, window), forward(load_model(path), window))


class TestModelDigest:
    def test_views_into_a_stack_digest_as_copies(self):
        models = [small_model(seed=s) for s in (25, 26, 27)]
        copies = copy.deepcopy(models)
        stack = stack_models(models)
        assert np.shares_memory(stack.layers[1].w_x, models[1].layers[1].w_x)
        assert [model_digest(m) for m in models] == [model_digest(c) for c in copies]

    def test_validates_first(self):
        model = small_model(seed=28)
        model.layers[0].w_h = model.layers[0].w_h.copy()
        model.layers[0].w_h[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            model_digest(model)


class TestShapeInvariance:
    def test_init_shapes_match_config(self):
        cfg = LstmConfig(3, 5, 2, 2)
        model = init_model(cfg, NormStats(np.zeros(2), np.ones(2)), rng_for(1))
        model.validate_shapes()
        assert model.layers[0].w_x.shape == (20, 2)
        assert model.layers[1].w_x.shape == (20, 5)
        assert model.head.w.shape == (2, 5)

    def test_forget_gate_bias_initialized_to_one(self):
        model = small_model(seed=23, units=4)
        for layer in model.layers:
            assert np.all(layer.b[4:8] == 1.0)
            assert np.all(layer.b[:4] == 0.0)
            assert np.all(layer.b[8:] == 0.0)

    def test_validate_rejects_bad_shapes(self):
        model = small_model()
        model.head.b = np.zeros(5)
        with pytest.raises(ValueError):
            model.validate_shapes()
