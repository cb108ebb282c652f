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

from ..kpi import CellId, KpiSample, KpiSeries
from .model import (
    ForecastModel,
    LstmConfig,
    NormStats,
    _lstm_stack,
    _write_params,
    forward,
    init_model,
    param_arrays,
)

__all__ = [
    "AdamHyper",
    "TrainingConfig",
    "derive_seed",
    "WindowedDataset",
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
    "clamp_prediction",
    "predict_from_window",
    "predict_fleet",
    "predict_next_hour",
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
class WindowedDataset:
    """Normalized supervised windows: inputs (N, lookback, D), targets (N, D)."""

    inputs: np.ndarray
    targets: np.ndarray
    provenance: tuple[tuple[CellId, int], ...]  # (cell, window start hour)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


def compute_norm_stats(values: np.ndarray) -> NormStats:
    """Per-feature min/max over the given (N, D) raw value array."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 1:
        raise ValueError(f"expected a nonempty (N, D) array, got shape {values.shape}")
    return NormStats(values.min(axis=0), values.max(axis=0))


def make_windows(series: KpiSeries, cfg: TrainingConfig, norm: NormStats) -> WindowedDataset:
    """All sliding windows of the series with 1-hour-ahead targets.

    A series of length L yields exactly L - lookback windows.
    """
    raw = series.to_array()
    n = len(series) - cfg.lookback
    if n < 1:
        raise InsufficientDataError(
            f"series length {len(series)} yields no windows at lookback {cfg.lookback}"
        )
    values = norm.normalize(raw)
    inputs = np.stack([values[i : i + cfg.lookback] for i in range(n)])
    targets = values[cfg.lookback :].copy()
    provenance = tuple((series.cell, series.start + i) for i in range(n))
    return WindowedDataset(inputs, targets, provenance)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean of squared componentwise differences."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def _shift_back(arr: np.ndarray) -> np.ndarray:
    """States at t-1: zeros at t=0, arr[t-1] elsewhere."""
    out = np.zeros_like(arr)
    out[1:] = arr[:-1]
    return out


def _backward_from_cache(model, cache, dpred) -> list[np.ndarray]:
    steps, batch, n_units = cache[0]["h"].shape
    h_top_last = cache[-1]["h"][-1]
    g_head_w = dpred.T @ h_top_last
    g_head_b = dpred.sum(axis=0)

    # dL/dh of the top layer per step: only the final step feeds the head
    dh_seq = np.zeros((steps, batch, n_units))
    dh_seq[-1] = dpred @ model.head.w

    grads_layers: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [None] * len(model.layers)
    for l in reversed(range(len(model.layers))):
        layer = model.layers[l]
        lc = cache[l]
        gi, gf, gg, go = lc["i"], lc["f"], lc["g"], lc["o"]
        tc = lc["tanh_c"]
        c_prev = _shift_back(lc["c"])
        h_prev = _shift_back(lc["h"])
        dz = np.empty((steps, batch, 4 * n_units))
        dh_carry = np.zeros((batch, n_units))
        dc_carry = np.zeros((batch, n_units))
        for t in reversed(range(steps)):
            dh = dh_seq[t] + dh_carry
            do = dh * tc[t]
            dc = dc_carry + dh * go[t] * (1.0 - tc[t] * tc[t])
            dz_t = dz[t]
            dz_t[:, 0 * n_units : 1 * n_units] = dc * gg[t] * gi[t] * (1.0 - gi[t])
            dz_t[:, 1 * n_units : 2 * n_units] = dc * c_prev[t] * gf[t] * (1.0 - gf[t])
            dz_t[:, 2 * n_units : 3 * n_units] = do * go[t] * (1.0 - go[t])
            dz_t[:, 3 * n_units : 4 * n_units] = dc * gi[t] * (1.0 - gg[t] * gg[t])
            dh_carry = dz_t @ layer.w_h
            dc_carry = dc * gf[t]
        x_seq = lc["x"]
        dz_flat = dz.reshape(steps * batch, 4 * n_units)
        gw_x = dz_flat.T @ x_seq.reshape(steps * batch, -1)
        gw_h = dz_flat.T @ h_prev.reshape(steps * batch, n_units)
        gb = dz_flat.sum(axis=0)
        grads_layers[l] = (gw_x, gw_h, gb)
        if l > 0:
            dh_seq = dz @ layer.w_x  # (T, B, D_l) feeds the layer below

    grads: list[np.ndarray] = []
    for gw_x, gw_h, gb in grads_layers:
        grads.extend([gw_x, gw_h, gb])
    grads.extend([g_head_w, g_head_b])
    return grads


def _loss_and_gradients(model, inputs, targets) -> tuple[float, list[np.ndarray]]:
    cache: list[dict] = []
    pred = _lstm_stack(model, np.ascontiguousarray(inputs.transpose(1, 0, 2)), cache)
    dpred = 2.0 * (pred - targets) / pred.size
    return mse_loss(pred, targets), _backward_from_cache(model, cache, dpred)


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
    _, grads = _loss_and_gradients(model, inputs, targets)
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
    t = state.step + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m_t = hyper.beta1 * m + (1.0 - hyper.beta1) * g
        v_t = hyper.beta2 * v + (1.0 - hyper.beta2) * (g * g)
        m_hat = m_t / (1.0 - hyper.beta1**t)
        v_hat = v_t / (1.0 - hyper.beta2**t)
        new_params.append(p - hyper.learning_rate * m_hat / (np.sqrt(v_hat) + hyper.epsilon))
        new_m.append(m_t)
        new_v.append(v_t)
    return new_params, AdamState(new_m, new_v, t)


def train(
    series: KpiSeries,
    lstm_cfg: LstmConfig,
    train_cfg: TrainingConfig,
) -> tuple[ForecastModel, list[EpochStats]]:
    """Train one forecaster on one cell's series.

    The split is chronological: the first ``train_fraction`` of hours feed
    training windows (and the normalization statistics), the remainder is
    validation. Fully deterministic given ``train_cfg.seed``.
    """
    raw = series.to_array()
    length = len(series)
    split = int(np.floor(train_cfg.train_fraction * length))
    if split <= train_cfg.lookback:
        raise InsufficientDataError(
            f"series length {length} at train_fraction {train_cfg.train_fraction} "
            f"leaves no training window (lookback {train_cfg.lookback})"
        )
    norm = compute_norm_stats(raw[:split])
    windows = make_windows(series, train_cfg, norm)
    # window i has target index i + lookback (relative to series start)
    target_idx = np.arange(len(windows)) + train_cfg.lookback
    train_mask = target_idx < split
    train_inputs = windows.inputs[train_mask]
    train_targets = windows.targets[train_mask]
    val_inputs = windows.inputs[~train_mask]
    val_targets = windows.targets[~train_mask]
    if len(train_inputs) < 1 or len(val_inputs) < 1:
        raise InsufficientDataError(
            f"need at least one training and one validation window, got "
            f"{len(train_inputs)}/{len(val_inputs)}"
        )

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([train_cfg.seed])))
    model = init_model(lstm_cfg, norm, rng)
    params = param_arrays(model)
    state = AdamState.zeros_like(params)
    log: list[EpochStats] = []
    n_train = len(train_inputs)
    for epoch in range(1, train_cfg.epochs + 1):
        order = rng.permutation(n_train)
        sq_sum = 0.0
        for lo in range(0, n_train, train_cfg.batch_size):
            batch = order[lo : lo + train_cfg.batch_size]
            loss, grads = _loss_and_gradients(model, train_inputs[batch], train_targets[batch])
            sq_sum += loss * len(batch)
            params, state = adam_step(params, grads, state, train_cfg.adam)
            _write_params(model, params)
        train_loss = sq_sum / n_train
        val_loss = mse_loss(forward(model, val_inputs), val_targets)
        log.append(EpochStats(epoch, train_loss, val_loss))
    model.trained_epochs = train_cfg.epochs
    return model, log


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
    normalized = fleet.norm.normalize(windows).transpose(1, 0, 2)[:, :, np.newaxis]
    pred = _lstm_stack(fleet, normalized)  # (M, 1, output_dim)
    return clamp_prediction(fleet.norm.denormalize(pred)[:, 0])


def predict_next_hour(model: ForecastModel, series: KpiSeries, lookback: int) -> KpiSample:
    """Predict the hour following the series from its trailing window."""
    if len(series) < lookback:
        raise InsufficientDataError(
            f"series length {len(series)} < lookback {lookback}"
        )
    window = series.to_array()[-lookback:]
    return predict_from_window(model, window, series.start + len(series))


def evaluate_heldout(
    model: ForecastModel, series: KpiSeries, cfg: TrainingConfig
) -> tuple[float, int]:
    """Held-out accuracy on the chronological validation tail of a series.

    Predictions go through the same clamping as live inference. Returns
    (accuracy percent, number of validation points).
    """
    raw = series.to_array()
    split = int(np.floor(cfg.train_fraction * len(series)))
    windows = make_windows(series, cfg, model.norm)
    target_idx = np.arange(len(windows)) + cfg.lookback
    val_mask = target_idx >= split
    if not np.any(val_mask):
        raise InsufficientDataError("no validation windows beyond the training split")
    preds = clamp_prediction(model.norm.denormalize(forward(model, windows.inputs[val_mask])))
    actuals = raw[target_idx[val_mask]]
    return accuracy(preds, actuals), int(val_mask.sum())


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
