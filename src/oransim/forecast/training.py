"""Training and inference for the KPI forecaster.

Supervised framing: sliding windows of ``lookback`` consecutive hours of
min-max-normalized (prb_util, ip_throughput) vectors, each labeled with the
following hour's vector. Loss is mean squared error over all prediction
components; gradients come from full backpropagation through time and are
applied with Adam.

Everything is float64 and fully seeded: (data, configs, seed) determine the
resulting parameters bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..kpi import KpiSample, KpiSeries
from .model import (
    ForecastModel,
    LstmConfig,
    NormStats,
    _lstm_stack,
    _Workspace,
    forward,
    init_model,
    param_arrays,
    stack_models,
)

__all__ = [
    "AdamHyper",
    "TrainingConfig",
    "derive_seed",
    "EpochStats",
    "AdamState",
    "InsufficientDataError",
    "UndefinedMetricError",
    "compute_norm_stats",
    "make_windows",
    "mse_loss",
    "backward",
    "adam_step",
    "train",
    "train_split",
    "train_stack",
    "stack_width",
    "clamp_prediction",
    "predict_from_window",
    "predict_fleet",
    "evaluate_heldout",
    "accuracy",
]

# Actuals smaller than this are excluded from the percentage-error mean.
ACCURACY_ACTUAL_EPS = 1e-6


class InsufficientDataError(ValueError):
    """Series too short for the requested windowing or split."""


class UndefinedMetricError(ValueError):
    """Accuracy undefined: every actual value was below the exclusion threshold."""


@dataclass(frozen=True)
class AdamHyper:
    """Adam optimizer hyperparameters (canonical defaults)."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1/beta2 must be in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")


def derive_seed(*keys: int) -> int:
    """Stable unsigned-64 seed derived from a sequence of integer keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one training run (loss is fixed to MSE)."""

    batch_size: int = 16
    epochs: int = 150
    adam: AdamHyper = field(default_factory=AdamHyper)
    lookback: int = 24
    horizon: int = 1
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lookback < 1:
            raise ValueError("lookback must be >= 1")
        if self.horizon != 1:
            raise ValueError("only horizon == 1 (next hour) is supported")
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must be in (0, 1)")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")

    def for_cell(self, enb: int, cell: int) -> "TrainingConfig":
        """This config with the seed of one cell's model, derived from the cell key."""
        return replace(self, seed=derive_seed(self.seed, enb, cell))


@dataclass(frozen=True)
class EpochStats:
    """One epoch's log entry: the mean of its batch losses, each weighted by batch size.

    No held-out loss is logged: ``evaluate_heldout`` scores the hours that
    ``train_split`` reserves, once, after training.
    """

    epoch: int
    train_loss: float


def compute_norm_stats(values: np.ndarray) -> NormStats:
    """Per-feature min/max over the given (N, D) raw value array."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 1:
        raise ValueError(f"expected a nonempty (N, D) array, got shape {values.shape}")
    return NormStats(values.min(axis=0), values.max(axis=0))


def make_windows(values: np.ndarray, lookback: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding windows over the hours axis of (..., L, D) normalized ``values``.

    Returns inputs (..., L - lookback, lookback, D), window i holding hours
    i to i + lookback - 1, and their targets (..., L - lookback, D), hour
    i + lookback. Both are read-only views of ``values``: no window is
    copied. Raises ``InsufficientDataError`` for L <= lookback.
    """
    if values.shape[-2] <= lookback:
        raise InsufficientDataError(
            f"series length {values.shape[-2]} yields no windows at lookback {lookback}"
        )
    inputs = sliding_window_view(values[..., :-1, :], lookback, axis=-2)  # (..., N, D, lookback)
    targets = values[..., lookback:, :]
    targets.flags.writeable = False
    return np.swapaxes(inputs, -1, -2), targets


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean of squared componentwise differences."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def _bptt_layer(layer, work: _Workspace, l: int, dh_seq) -> tuple[np.ndarray, ...]:
    """Fill ``dz`` with layer ``l``'s gate gradients; return its (w_x, w_h, b) gradients.

    ``dz`` is ``work.proj``, model-major, (..., T, B, 4H), as the weight-gradient gemms
    read it. ``dh_seq`` is dL/dh from the layer above, time-major
    (T, ..., B, H) like the cache, or None for the top layer, whose only
    such gradient is the carry that ``work.dh`` holds at the last step.

    Each step builds its gate gradients gate-major in ``work.dz_step``, one
    contiguous (4, ..., B, H) block in the memory of the forward's ``z``,
    copies it into its step of ``dz`` (the one strided op) and takes the
    carry's gemm from there. Every gradient is the product of the same
    operands in the same order as the expression per gate
    (``dc * g * i * (1 - i)`` and so on), so the bits are those; the calls
    are fewer because where the gates agree on an op a step does it once on
    a block of them: ``dc`` times (g, i), the first three gradients times
    (i, f, o), and all four times (1 - i, 1 - f, 1 - o, 1 - g * g). Those
    factors are built in the step's gate block, and ``tanh(c)`` and
    ``1 - tanh(c) ** 2`` in its ``c`` slot, each of which BPTT then reads
    for the last time: the cache is spent as BPTT goes, in seventeen numpy
    calls per step. ``tanh(c)`` is recomputed from the cached ``c``, the
    same ``np.tanh`` of the same array as in the forward, so the same bits.
    """
    gates, lc, dz, dz_t = work.gates[l], work.cache[l], work.proj, work.dz_step
    c, dh, dc = lc["c"], work.dh, work.dc  # ``dh`` enters holding the carry
    dz_t_to_dz = np.moveaxis(dz_t, 0, -2)  # (..., B, 4, H), as ``dz_gates`` lays a step out
    dz_at, dz_gates_at = np.moveaxis(dz, -3, 0), np.moveaxis(work.dz_gates, -4, 0)
    dc[...] = 0.0
    for t in reversed(range(dz.shape[-3])):
        # c[t] is c at t - 1: slot 0 holds the zero initial state
        g_t, tanh_c = gates[t], c[t + 1]
        f, o, g = g_t[1], g_t[2], g_t[3]
        np.tanh(tanh_c, out=tanh_c)
        np.add(dh, 0.0 if dh_seq is None else dh_seq[t], out=dh)
        np.multiply(dh, tanh_c, out=dz_t[2])  # do
        np.multiply(tanh_c, tanh_c, out=tanh_c)
        np.subtract(1.0, tanh_c, out=tanh_c)
        np.multiply(dh, o, out=dh)
        np.multiply(dh, tanh_c, out=dh)
        np.add(dc, dh, out=dc)
        np.multiply(dc, g_t[::-3], out=dz_t[::3])  # dc * g and dc * i
        np.multiply(dc, c[t], out=dz_t[1])
        np.multiply(dz_t[:3], g_t[:3], out=dz_t[:3])
        np.multiply(dc, f, out=dc)  # the carry
        np.multiply(g, g, out=g)
        np.subtract(1.0, g_t, out=g_t)
        np.multiply(dz_t, g_t, out=dz_t)
        np.copyto(dz_gates_at[t], dz_t_to_dz)
        np.matmul(dz_at[t], layer.w_h, out=dh)
    lead, rows, n = dz.shape[:-3], dz.shape[-3] * dz.shape[-2], dz.shape[-1] // 4
    dz_rows_t = np.swapaxes(work.proj_rows, -1, -2)
    gw_x = dz_rows_t @ lc["x"].reshape(lead + (rows, -1))
    gw_h = dz_rows_t @ lc["h"][..., :-1, :, :].reshape(lead + (rows, n))
    return gw_x, gw_h, work.proj_rows.sum(axis=-2).reshape(layer.b.shape)


def _backward_from_cache(model, work: _Workspace, dpred) -> list[np.ndarray]:
    """BPTT through the cache that ``_lstm_stack`` left in ``work``, which it spends.

    ``dpred`` is (..., B, output_dim) with the cache's leading model axes.
    Every buffer is the workspace's: ``proj`` serves each layer as ``dz``,
    and the gradient a layer passes down, dL/dh of the layer below, is
    written time-major into the top layer's gate block, whose cache is
    spent by then: one (B, 4H) @ (4H, D) gemm per model and step. Returns
    the gradients in ``param_arrays`` order and shapes.
    """
    hs = work.cache[-1]["h"]  # (..., T + 1, B, H)
    g_head_w = np.swapaxes(dpred, -1, -2) @ hs[..., -1, :, :]
    g_head_b = dpred.sum(axis=-2).reshape(model.head.b.shape)
    np.matmul(dpred, model.head.w, out=work.dh)
    grads: list[np.ndarray] = []
    dh_seq = None
    for l in reversed(range(len(model.layers))):
        grads[:0] = _bptt_layer(model.layers[l], work, l, dh_seq)
        if l > 0:
            dh_seq = np.matmul(np.moveaxis(work.proj, -3, 0), model.layers[l].w_x, out=work.dh_seq)
            work.dh[...] = 0.0
    return grads + [g_head_w, g_head_b]


def _loss_and_gradients(model, layer_in, targets, work: _Workspace | None = None
                        ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-model mean batch MSE and gradients for input (..., T, B, D).

    The step runs in ``work``, a training ``_Workspace`` for the input's
    shape, or in a fresh one.
    """
    if work is None:
        work = _Workspace(model.config, layer_in.shape)
    pred = _lstm_stack(model, layer_in, work)
    dpred = 2.0 * (pred - targets) / (pred.shape[-2] * pred.shape[-1])
    return _mse(pred, targets), _backward_from_cache(model, work, dpred)


def _mse(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``mse_loss`` of each model's (B, output_dim) block, bit for bit."""
    diff = pred - target
    return np.mean(diff * diff, axis=(-2, -1))


def backward(model: ForecastModel, inputs: np.ndarray, targets: np.ndarray) -> list[np.ndarray]:
    """Gradient of the mean batch MSE w.r.t. every parameter (BPTT).

    ``inputs`` is (B, T, D) normalized, ``targets`` (B, output_dim). The
    returned list matches ``param_arrays(model)`` order and shapes.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 3:
        raise ValueError(f"inputs must be (B, T, D), got shape {inputs.shape}")
    if inputs.shape[0] < 1 or inputs.shape[1] < 1:
        raise ValueError("batch and window length must be nonempty")
    if inputs.shape[2] != model.config.input_dim:
        raise ValueError(
            f"input dim {inputs.shape[2]} != configured {model.config.input_dim}"
        )
    expected = (inputs.shape[0], model.config.output_dim)
    if targets.shape != expected:
        raise ValueError(f"targets shape {targets.shape} != {expected} for inputs {inputs.shape}")
    _, grads = _loss_and_gradients(model, np.ascontiguousarray(inputs.transpose(1, 0, 2)), targets)
    return grads


@dataclass
class AdamState:
    """First/second moment estimates and step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @staticmethod
    def zeros_like(params: list[np.ndarray]) -> "AdamState":
        return AdamState([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    hyper: AdamHyper,
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update. Returns fresh arrays; inputs untouched."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must have the same structure")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    new_params = [p.copy() for p in params]
    new_state = AdamState([m.copy() for m in state.m], [v.copy() for v in state.v], state.step)
    _adam_update(new_params, [g.copy() for g in grads], new_state, hyper)
    return new_params, new_state


def _adam_update(params, grads, state: AdamState, hyper: AdamHyper) -> None:
    """``adam_step`` in place: ``params`` and ``state`` are updated, ``grads`` spent as scratch.

    Each op is one of the textbook expressions' ops, in their order,
    written through ``out=``, so the bits are theirs; only one parameter's
    ``g * g`` is allocated at a time.
    """
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        sq = g * g
        np.multiply(sq, 1.0 - hyper.beta2, out=sq)
        np.multiply(v, hyper.beta2, out=v)
        np.add(v, sq, out=v)  # v_t = beta2 * v + (1 - beta2) * (g * g)
        np.multiply(m, hyper.beta1, out=m)
        np.multiply(g, 1.0 - hyper.beta1, out=g)
        np.add(m, g, out=m)  # m_t = beta1 * m + (1 - beta1) * g
        np.divide(v, 1.0 - hyper.beta2**t, out=g)
        np.sqrt(g, out=g)
        np.add(g, hyper.epsilon, out=g)  # sqrt(v_hat) + epsilon
        np.divide(m, 1.0 - hyper.beta1**t, out=sq)
        np.multiply(sq, hyper.learning_rate, out=sq)
        np.divide(sq, g, out=sq)
        np.subtract(p, sq, out=p)  # p - learning_rate * m_hat / (sqrt(v_hat) + epsilon)


def train_split(length: int, cfg: TrainingConfig) -> int:
    """Hours of a ``length``-hour series that feed training (and its norm stats).

    The split is chronological; the remaining hours are validation. Raises
    ``InsufficientDataError`` unless the split leaves at least one training
    and one validation window: this is the one length test of training.
    """
    split = int(np.floor(cfg.train_fraction * length))
    if split <= cfg.lookback or split >= length:
        raise InsufficientDataError(
            f"series length {length} at train_fraction {cfg.train_fraction} "
            f"leaves no training window (lookback {cfg.lookback})"
        )
    return split


# Bound on one stack's BPTT working set, in bytes (see ``stack_width``).
# Width probe, one stacked step (forward, BPTT, in-place Adam) of 2 x 12-unit
# models at lookback 24 in a held workspace, on a 2-vCPU VM with one
# OpenBLAS thread, the least of three probes that each take the best of 3,
# per-model time at stack widths M = 1 / 2 / 4 / 8 / 16 / 32, and the
# traced peak of a step with a fresh workspace over its width at the width
# this bound gives:
#   batch 16: 1.63 / 1.08 / 0.79 / 0.66 / 0.58 / 0.55 ms, 0.60 MiB traced per model;
#   batch 9:  1.43 / 0.88 / 0.58 / 0.44 / 0.37 / 0.34 ms, 0.35 MiB traced per model.
# 2.75 MiB admits 4 models at batch 16 and 8 at batch 9, while a wide round
# (hundreds of cells) adds at most ~2.75 MiB to the peak. Without the page
# faults of a per-step working set, wider stacks keep gaining a little past
# width 8; widening has to come from fewer bytes per model, not a larger bound.
STACK_BYTES = 11 << 18


def _model_bytes(lstm_cfg: LstmConfig, cfg: TrainingConfig, length: int) -> int:
    """One model's share of a stack's training workspace, in bytes, for ``length``-hour series.

    It is the size of the buffers of that model's own ``_Workspace``,
    which is built at the stack's batch and never written.
    """
    batch = min(cfg.batch_size, train_split(length, cfg) - cfg.lookback)
    work = _Workspace(lstm_cfg, (cfg.lookback, batch, lstm_cfg.input_dim))
    return sum(buf.nbytes for buf in work.buffers)


def stack_width(lstm_cfg: LstmConfig, cfg: TrainingConfig, length: int) -> int:
    """How many models of ``length``-hour series one stack trains within ``STACK_BYTES``."""
    return max(1, STACK_BYTES // _model_bytes(lstm_cfg, cfg, length))


def train_stack(
    series_list: list[KpiSeries],
    lstm_cfg: LstmConfig,
    train_cfgs: list[TrainingConfig],
) -> list[tuple[ForecastModel, list[EpochStats]]]:
    """Train one forecaster per series, all as one stack (see ``stack_models``).

    The series must share one length and the configs may differ only in
    their seed: length alone sets the split, the window count and the batch
    schedule, so every model takes the same steps. Each step is one stacked
    forward with cache, one BPTT and one Adam update, and nothing else runs
    the network. Model m draws its initialization and its per-epoch batch
    order from its own generator, so its parameters and log equal, bit for
    bit, those of training series m alone.

    The split is chronological: the first ``train_fraction`` of hours feed
    training windows (and the normalization statistics). The remainder is
    held out (``train_split``) and never read here; ``evaluate_heldout``
    scores it.
    """
    cfg = train_cfgs[0]
    length = len(series_list[0])
    if any(len(s) != length for s in series_list):
        raise ValueError("stacked series must share one length")
    if any(replace(c, seed=cfg.seed) != cfg for c in train_cfgs):
        raise ValueError("stacked training configs may differ only in their seed")
    split = train_split(length, cfg)
    n_train = split - cfg.lookback  # window i has target hour i + lookback
    models, rngs, values = [], [], []
    for series, cell_cfg in zip(series_list, train_cfgs):
        hours = series.to_array()[:split]
        norm = compute_norm_stats(hours)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cell_cfg.seed])))
        models.append(init_model(lstm_cfg, norm, rng))
        rngs.append(rng)
        values.append(norm.normalize(hours))
    # (M, n_train, T, D) and (M, n_train, D) views of the (M, split, D) training hours
    train_inputs, train_targets = make_windows(np.stack(values), cfg.lookback)

    stack = stack_models(models)
    params = param_arrays(stack)
    state = AdamState.zeros_like(params)
    logs: list[list[EpochStats]] = [[] for _ in models]
    rows = np.arange(len(models))[:, np.newaxis]
    # one workspace at the full batch; the short last batch, if any, runs in leading views of it
    shape = (len(models), cfg.lookback, min(cfg.batch_size, n_train), lstm_cfg.input_dim)
    works = {shape[2]: _Workspace(lstm_cfg, shape)}
    if n_train % shape[2]:
        short = shape[:2] + (n_train % shape[2],) + shape[3:]
        works[short[2]] = _Workspace(lstm_cfg, short, full=works[shape[2]])
    for epoch in range(1, cfg.epochs + 1):
        order = np.stack([rng.permutation(n_train) for rng in rngs])
        sq_sum = np.zeros(len(models))
        for lo in range(0, n_train, cfg.batch_size):
            batch = order[:, lo : lo + cfg.batch_size]
            work = works[batch.shape[1]]
            work.x[...] = train_inputs[rows, batch].transpose(0, 2, 1, 3)
            losses, grads = _loss_and_gradients(stack, work.x, train_targets[rows, batch], work)
            sq_sum += losses * batch.shape[1]
            _adam_update(params, grads, state, cfg.adam)  # the models' views see it
        for m, log in enumerate(logs):
            log.append(EpochStats(epoch, float(sq_sum[m] / n_train)))
    for model in models:
        model.trained_epochs = cfg.epochs
    return list(zip(models, logs))


def train(
    series: KpiSeries,
    lstm_cfg: LstmConfig,
    train_cfg: TrainingConfig,
) -> tuple[ForecastModel, list[EpochStats]]:
    """Train one forecaster on one cell's series: a stack of one (``train_stack``).

    Fully deterministic given ``train_cfg.seed``.
    """
    return train_stack([series], lstm_cfg, [train_cfg])[0]


def clamp_prediction(pred: np.ndarray) -> np.ndarray:
    """Make denormalized (..., 2) predictions valid samples, in place.

    prb_util is clipped to [0, 100] and throughput floored at 0 (a NaN or
    -0.0 throughput becomes 0.0). Returns ``pred``.
    """
    pred[..., 0] = np.clip(pred[..., 0], 0.0, 100.0)
    pred[..., 1] = np.where(pred[..., 1] > 0.0, pred[..., 1], 0.0)
    return pred


def predict_from_window(model: ForecastModel, window: np.ndarray, next_timestamp: int) -> KpiSample:
    """Predict the next hour from a raw (unnormalized) trailing window.

    The raw prediction is denormalized and clamped (``clamp_prediction``)
    so the result is a valid sample.
    """
    window = np.asarray(window, dtype=np.float64)
    pred = clamp_prediction(model.norm.denormalize(forward(model, model.norm.normalize(window))))
    return KpiSample(next_timestamp, float(pred[0]), float(pred[1]))


def predict_fleet(fleet: ForecastModel, windows: np.ndarray) -> np.ndarray:
    """Clamped next-hour predictions (M, output_dim) of M stacked models.

    ``fleet`` comes from ``stack_models``; ``windows`` is (M, T, input_dim)
    raw, model m's trailing window in row m. Row m equals model m's
    ``predict_from_window`` bit for bit.
    """
    normalized = fleet.norm.normalize(windows)[:, :, np.newaxis]  # (M, T, 1, D)
    pred = _lstm_stack(fleet, normalized)  # (M, 1, output_dim)
    return clamp_prediction(fleet.norm.denormalize(pred)[:, 0])


def evaluate_heldout(
    model: ForecastModel, series: KpiSeries, cfg: TrainingConfig
) -> tuple[float, int]:
    """Held-out accuracy on the chronological validation tail of a series.

    The tail is the hours after ``train_split``, which raises
    ``InsufficientDataError`` for a series too short to split. Predictions
    go through the same clamping as live inference. Returns (accuracy
    percent, number of validation points).
    """
    split = train_split(len(series), cfg)
    values = model.norm.normalize(series.to_array())
    # the window whose target is hour ``split`` starts ``lookback`` hours earlier;
    # slicing the view copies no window
    inputs = make_windows(values, cfg.lookback)[0][split - cfg.lookback :]
    preds = clamp_prediction(model.norm.denormalize(forward(model, inputs)))
    return accuracy(preds, series.to_array()[split:]), len(inputs)


def accuracy(predictions, actuals) -> float:
    """Forecast accuracy in percent, defined as 100 - MAPE, floored at 0.

    MAPE is the mean over all points and features of the absolute
    percentage error. Actuals with magnitude below 1e-6 are excluded; if
    every actual is excluded the metric is undefined and raises.
    """
    pred = np.asarray(predictions, dtype=np.float64).ravel()
    act = np.asarray(actuals, dtype=np.float64).ravel()
    if pred.shape != act.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {act.shape}")
    if pred.size == 0:
        raise ValueError("accuracy needs at least one point")
    mask = np.abs(act) >= ACCURACY_ACTUAL_EPS
    if not np.any(mask):
        raise UndefinedMetricError("all actual values below exclusion threshold")
    mape = float(np.mean(100.0 * np.abs(pred[mask] - act[mask]) / np.abs(act[mask])))
    return max(0.0, 100.0 - mape)
