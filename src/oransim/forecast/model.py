"""Stacked LSTM forecaster: configuration, parameters, forward pass, file format.

The network is a stack of LSTM layers followed by a dense head applied to
the final hidden state of the top layer. Gates use the logistic sigmoid,
cell/candidate activations use tanh. All tensors are float64.

Weight matrices pack the four gates row-wise in the order (input, forget,
output, candidate) so the three sigmoid gates form one contiguous block:
``w_x`` is (4H, D_in), ``w_h`` is (4H, H), ``b`` is (4H,). The recurrence
for one step is

    z = w_x @ x + w_h @ h_prev + b
    i, f, o = sigmoid(z_i), sigmoid(z_f), sigmoid(z_o)
    g = tanh(z_g)
    c = f * c_prev + i * g
    h = o * tanh(c)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from ..typedjson import build, check_keys, check_type, check_unsigned, loads, read_fields

__all__ = [
    "LstmConfig",
    "LayerParams",
    "HeadParams",
    "NormStats",
    "ForecastModel",
    "init_model",
    "stack_models",
    "forward",
    "sigmoid",
    "model_digest",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
    "param_arrays",
]

MODEL_FORMAT = "oransim-forecast-model"
MODEL_FORMAT_VERSION = 1
_MODEL_KEYS = {"format", "format_version", "config", "norm", "trained_epochs", "layers", "head"}
# how deep each parameter field's nested lists go in a model file
_ARRAY_DEPTH = {"w_x": 2, "w_h": 2, "w": 2, "b": 1, "feature_min": 1, "feature_max": 1}


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class LstmConfig:
    """Architecture of the forecaster (activations are fixed: sigmoid gates, tanh cell)."""

    n_layers: int = 2
    units_per_layer: int = 12
    input_dim: int = 2
    output_dim: int = 2

    def __post_init__(self):
        for name in ("n_layers", "units_per_layer", "input_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def layer_input_dim(self, layer: int) -> int:
        return self.input_dim if layer == 0 else self.units_per_layer


@dataclass
class LayerParams:
    w_x: np.ndarray  # (4H, D_in)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray    # (4H,)


@dataclass
class HeadParams:
    w: np.ndarray  # (output_dim, H)
    b: np.ndarray  # (output_dim,)


@dataclass(frozen=True)
class NormStats:
    """Per-feature min/max (over the training split) for min-max scaling.

    Degenerate features (max == min) normalize to 0 and denormalize to the
    shared min value.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.feature_min, dtype=np.float64)
        hi = np.asarray(self.feature_max, dtype=np.float64)
        object.__setattr__(self, "feature_min", lo)
        object.__setattr__(self, "feature_max", hi)
        if lo.shape != hi.shape:
            raise ValueError("feature_min and feature_max must have the same shape")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("feature_min and feature_max must be finite")
        if np.any(hi < lo):
            raise ValueError("feature_max must be >= feature_min per feature")

    @property
    def span(self) -> np.ndarray:
        return self.feature_max - self.feature_min

    def normalize(self, values: np.ndarray) -> np.ndarray:
        span = np.where(self.span > 0, self.span, 1.0)
        out = (np.asarray(values, dtype=np.float64) - self.feature_min) / span
        return np.where(self.span > 0, out, 0.0)

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return self.feature_min + np.asarray(values, dtype=np.float64) * self.span


@dataclass
class ForecastModel:
    """LSTM parameters plus the normalization statistics they were trained with."""

    config: LstmConfig
    layers: list[LayerParams]
    head: HeadParams
    norm: NormStats
    trained_epochs: int = 0

    def validate_shapes(self):
        """Check every array's shape against the config, and that all are finite."""
        cfg = self.config
        for name in ("feature_min", "feature_max"):
            shape = getattr(self.norm, name).shape
            if shape != (cfg.input_dim,):
                raise ValueError(f"norm {name} shape {shape} != {(cfg.input_dim,)}")
        if len(self.layers) != cfg.n_layers:
            raise ValueError(f"expected {cfg.n_layers} layers, got {len(self.layers)}")
        h = cfg.units_per_layer
        for l, layer in enumerate(self.layers):
            d = cfg.layer_input_dim(l)
            if layer.w_x.shape != (4 * h, d):
                raise ValueError(f"layer {l} w_x shape {layer.w_x.shape} != {(4 * h, d)}")
            if layer.w_h.shape != (4 * h, h):
                raise ValueError(f"layer {l} w_h shape {layer.w_h.shape} != {(4 * h, h)}")
            if layer.b.shape != (4 * h,):
                raise ValueError(f"layer {l} b shape {layer.b.shape} != {(4 * h,)}")
        if self.head.w.shape != (cfg.output_dim, h):
            raise ValueError(f"head w shape {self.head.w.shape} != {(cfg.output_dim, h)}")
        if self.head.b.shape != (cfg.output_dim,):
            raise ValueError(f"head b shape {self.head.b.shape} != {(cfg.output_dim,)}")
        for arr in [self.norm.feature_min, self.norm.feature_max, *param_arrays(self)]:
            if not np.all(np.isfinite(arr)):
                raise ValueError("model parameters and norm stats must all be finite")


def param_arrays(model: ForecastModel) -> list[np.ndarray]:
    """Flat, ordered view of all parameter tensors (shared references)."""
    arrays = []
    for layer in model.layers:
        arrays.extend([layer.w_x, layer.w_h, layer.b])
    arrays.extend([model.head.w, model.head.b])
    return arrays


def _write_params(model: ForecastModel, arrays: list[np.ndarray]) -> None:
    """Rebind the model's parameters to ``arrays``, given in ``param_arrays`` order."""
    idx = 0
    for layer in model.layers:
        layer.w_x, layer.w_h, layer.b = arrays[idx], arrays[idx + 1], arrays[idx + 2]
        idx += 3
    model.head.w, model.head.b = arrays[idx], arrays[idx + 1]


def stack_models(models: list[ForecastModel]) -> ForecastModel:
    """M models of one config as one model whose arrays lead with a model axis.

    Weights become (M, 4H, D_l), (M, 4H, H) and (M, output_dim, H); biases
    (M, 1, 4H) and (M, 1, output_dim) and the norm stats (M, 1, input_dim),
    so they broadcast over an (M, T, B, D) input to ``_lstm_stack`` and over
    (M, T, input_dim) raw windows. Each given model's parameters are rebound
    to views into the stack, so the models and the stack share one copy.
    """
    config = models[0].config
    if any(model.config != config for model in models):
        raise ValueError("stacked models must share one LstmConfig")
    arrays = [np.stack(group) for group in zip(*(param_arrays(m) for m in models))]
    for m, model in enumerate(models):
        _write_params(model, [a[m] for a in arrays])
    # biases gain a unit batch axis so they broadcast over (M, B, .)
    it = iter(a if a.ndim == 3 else a[:, np.newaxis] for a in arrays)
    layers = [LayerParams(next(it), next(it), next(it)) for _ in range(config.n_layers)]
    norm = NormStats(
        np.stack([m.norm.feature_min for m in models])[:, np.newaxis],
        np.stack([m.norm.feature_max for m in models])[:, np.newaxis],
    )
    return ForecastModel(config, layers, HeadParams(next(it), next(it)), norm)


def init_model(config: LstmConfig, norm: NormStats, rng: np.random.Generator) -> ForecastModel:
    """Seeded initialization: weights uniform in +-1/sqrt(fan_in), forget bias 1.

    Draw order is fixed (per layer: w_x then w_h; then head w) so a given
    generator state always produces the same model.
    """
    h = config.units_per_layer
    layers = []
    for l in range(config.n_layers):
        d = config.layer_input_dim(l)
        bound_x = 1.0 / np.sqrt(d)
        bound_h = 1.0 / np.sqrt(h)
        w_x = rng.uniform(-bound_x, bound_x, size=(4 * h, d))
        w_h = rng.uniform(-bound_h, bound_h, size=(4 * h, h))
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # forget gate bias
        layers.append(LayerParams(w_x, w_h, b))
    bound = 1.0 / np.sqrt(h)
    head = HeadParams(rng.uniform(-bound, bound, size=(config.output_dim, h)), np.zeros(config.output_dim))
    model = ForecastModel(config, layers, head, norm)
    model.validate_shapes()
    return model


class _Workspace:
    """Every buffer the recurrence (and, in training, BPTT) writes, for input (..., T, B, D).

    Each buffer is one flat allocation, viewed at the workspace's shapes. A
    workspace built on a ``full`` one at a smaller batch views the leading
    elements of the same buffers, so the short last batch of an epoch runs
    in the memory of the full ones. Nothing is assumed about what an
    earlier step left there: every element is written before it is read,
    and the t = -1 states and BPTT's carries are zeroed on every call.

    ``cache`` holds one dict per layer, what BPTT reads: the layer input
    ``x``, (..., T, B, D), and ``h``, (..., T + 1, B, H), are model-major,
    so the weight-gradient gemms see each model's (T*B, .) rows without a
    copy. ``gates[l]``, (T, 4, ..., B, H), is gate-major in the order
    (i, f, o, g), and ``c``, (T + 1, ..., B, H), is time-major: a step's
    gates are one contiguous block, its three sigmoid gates the first
    three quarters of it. The dict's ``i``, ``f``, ``o`` and ``g`` are
    views of that block. Slot 0 of ``c`` and ``h`` is the zero state at
    t = -1. ``proj``, (..., T, B, 4H), receives each layer's input
    projection ``x @ w_x + b`` for all steps in one matmul and is BPTT's
    ``dz`` afterwards; ``x`` is the batch input that ``train_stack``
    gathers. Beyond the caches, ``proj`` and ``x``, the workspace holds
    seven (..., B, H) blocks of per-step scratch: ``z``, (..., B, 4H), which
    holds a forward step's pre-activations and BPTT's gate gradients of one
    step, and ``tmp``, ``dh`` and ``dc``.

    Inference (``cached=False``) keeps no step it has passed: one time slot
    of ``proj`` and of the gates, two of ``c``, and one ``h`` sequence that
    each layer overwrites as it reads it, step by step.
    """

    def __init__(self, config: LstmConfig, shape: tuple, cached: bool = True,
                 full: "_Workspace | None" = None):
        lead, steps, batch = shape[:-3], shape[-3], shape[-2]
        n = config.units_per_layer
        block = lead + (batch, n)
        held = steps if cached else 1
        self.buffers: list[np.ndarray] = []

        def take(piece_shape: tuple) -> np.ndarray:
            size = int(np.prod(piece_shape))
            buf = np.empty(size) if full is None else full.buffers[len(self.buffers)]
            self.buffers.append(buf)
            return buf[:size].reshape(piece_shape)

        self.proj = take(lead + (held, batch, 4 * n))
        self.z, self.tmp = take(lead + (batch, 4 * n)), take(block)
        self.proj_rows = self.proj.reshape(lead + (-1, 4 * n))
        # the sigmoid gates and the candidate of ``z``, the first gate-major
        self.z_sig = np.moveaxis(self.z[..., : 3 * n].reshape(lead + (batch, 3, n)), -2, 0)
        self.z_g = self.z[..., 3 * n :]
        # (gates, c, h) per layer; inference's layers share one set
        h_shape = lead + (steps + 1, batch, n)
        layers = [(take((held, 4) + block), take((held + 1,) + block), take(h_shape))
                  for _ in range(config.n_layers if cached else 1)]
        if not cached:
            layers *= config.n_layers
        self.gates = [gates for gates, _, _ in layers]
        self.cache = [{"i": g[:, 0], "f": g[:, 1], "o": g[:, 2], "g": g[:, 3], "c": c, "h": h}
                      for g, c, h in layers]
        if cached:
            self.x, self.dh, self.dc = take(shape), take(block), take(block)
            # ``proj`` as (..., T, B, 4, H), where BPTT copies each step's ``dz_step``
            self.dz_gates = self.proj.reshape(lead + (steps, batch, 4, n))
            # BPTT's gate gradients of one step, gate-major in the memory of ``z``
            self.dz_step = self.z.reshape((4,) + block)
            # dL/dh for the layer below: the top layer's gates are spent once its BPTT is done
            self.dh_seq = self.gates[-1].reshape(-1)[: steps * int(np.prod(block))].reshape(
                (steps,) + block)


def _lstm_stack(
    model: ForecastModel, layer_in: np.ndarray, work: _Workspace | None = None
) -> np.ndarray:
    """The stacked recurrence over input (..., T, B, D), zero initial states.

    Returns the head's (..., B, output_dim) prediction from the top layer's
    last hidden state. Parameter arrays may carry a leading model axis that
    broadcasts against the input's ``...`` (see ``stack_models``), so one
    call runs M independent models, each with the arithmetic it has alone.

    Every step writes into the buffers of a ``_Workspace``, and inference
    and training differ only in the workspace they pass. ``work`` None runs
    in a fresh inference workspace, which projects the input one step at a
    time. A training workspace is written in place and keeps every layer's
    cache for BPTT; each layer's input is projected for all steps in one
    matmul before its recurrence. The projection is the same per-step
    (B, D) @ (D, 4H) gemm either way, batched over the steps, so its bits do
    not depend on the workspace. A step's sigmoid reads the i, f and o
    quarters of its pre-activations ``z`` and writes them straight into the
    gate-major cache, as its tanh does the candidate; every elementwise op
    writes through ``out=``. That is twelve numpy calls per layer and step
    in training and fourteen in inference, each the op of the textbook
    expression on the same operands.
    """
    if work is None:
        work = _Workspace(model.config, layer_in.shape, cached=False)
    steps, held = layer_in.shape[-3], work.proj.shape[-3]
    for layer, lc, gates in zip(model.layers, work.cache, work.gates):
        lc["x"] = layer_in
        c, h = lc["c"], lc["h"]
        w_x_t = np.swapaxes(layer.w_x, -1, -2)[..., np.newaxis, :, :]
        w_h_t = np.swapaxes(layer.w_h, -1, -2)
        # views that a step indexes on their first axis, the cheapest indexing
        h_at, proj_at = np.moveaxis(h, -3, 0), np.moveaxis(work.proj, -3, 0)
        c[0] = 0.0
        h_at[0] = 0.0
        for t in range(steps):
            k = t % held
            if k == 0:  # the input projection of the next ``held`` steps
                np.matmul(layer_in[..., t : t + held, :, :], w_x_t, out=work.proj)
                np.add(work.proj_rows, layer.b, out=work.proj_rows)
            g_t = gates[k]
            np.matmul(h_at[t], w_h_t, out=work.z)
            np.add(proj_at[k], work.z, out=work.z)  # z = (x @ w_x + b) + h @ w_h
            # the gates read z's (..., B, 4H) rows gate by gate, the only strided reads of a
            # step, and are written gate-major: sigmoid(z) = 1 / (1 + exp(-z)), op for op
            sig = g_t[:3]
            np.negative(work.z_sig, out=sig)
            np.exp(sig, out=sig)
            np.add(1.0, sig, out=sig)
            np.divide(1.0, sig, out=sig)
            i, f, o, g = g_t[0], g_t[1], g_t[2], g_t[3]
            np.tanh(work.z_g, out=g)
            c_prev, c_next = c[t % len(c)], c[(t + 1) % len(c)]
            np.multiply(f, c_prev, out=c_next)
            np.multiply(i, g, out=work.tmp)
            np.add(c_next, work.tmp, out=c_next)
            np.tanh(c_next, out=work.tmp)
            np.multiply(o, work.tmp, out=h_at[t + 1])
        layer_in = h[..., 1:, :, :]
    return layer_in[..., -1, :, :] @ np.swapaxes(model.head.w, -1, -2) + model.head.b


def forward(model: ForecastModel, window: np.ndarray) -> np.ndarray:
    """Run the stacked recurrence over a normalized input window.

    ``window`` is (T, input_dim) or (B, T, input_dim); initial states are
    zero. Returns the (normalized) prediction, shape (output_dim,) or
    (B, output_dim).
    """
    window = np.asarray(window, dtype=np.float64)
    squeeze = window.ndim == 2
    if squeeze:
        window = window[np.newaxis, :, :]
    if window.ndim != 3 or window.shape[2] != model.config.input_dim:
        raise ValueError(
            f"window must be (T, {model.config.input_dim}) or (B, T, {model.config.input_dim}), "
            f"got {window.shape}"
        )
    if window.shape[1] < 1:
        raise ValueError("window must cover at least one step")
    pred = _lstm_stack(model, window.transpose(1, 0, 2))
    return pred[0] if squeeze else pred


def model_to_json(model: ForecastModel) -> str:
    """Self-describing, deterministic JSON encoding (exact float round-trip)."""
    model.validate_shapes()
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(model.config),
        "norm": _lists(model.norm),
        "trained_epochs": model.trained_epochs,
        "layers": [_lists(layer) for layer in model.layers],
        "head": _lists(model.head),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def model_digest(model: ForecastModel) -> str:
    """Content digest of a model: 16 hex digits of the sha256 of its canonical bytes.

    The bytes are a JSON header (file format and version, the config fields
    and ``trained_epochs``) followed by the little-endian float64 bytes of
    the norm stats (min, then max) and of ``param_arrays``, in that order.
    The header fixes every array's shape, so for valid models two digests
    are equal exactly when the two ``model_to_json`` texts are, the sign of
    a zero included, without formatting a float.
    """
    model.validate_shapes()
    header = [MODEL_FORMAT, MODEL_FORMAT_VERSION, *astuple(model.config), model.trained_epochs]
    h = hashlib.sha256(json.dumps(header, separators=(",", ":")).encode("utf-8"))
    for arr in [model.norm.feature_min, model.norm.feature_max, *param_arrays(model)]:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def _lists(params) -> dict:
    """A ``LayerParams``, ``HeadParams`` or ``NormStats`` as nested lists, keyed by field."""
    return {f.name: getattr(params, f.name).tolist() for f in fields(params)}


def _params(cls, path: str, section):
    """The ``_lists`` form read back: each field a float64 array."""
    names = {f.name for f in fields(cls)}
    check_keys(path, section, names, required=True)
    return build(cls, path, {name: _float_array(f"{path}.{name}", section[name], _ARRAY_DEPTH[name])
                             for name in names})


def _float_array(path: str, value, depth: int) -> np.ndarray:
    """JSON lists nested ``depth`` deep around ints and floats (no bool or string), as float64."""
    items = [(path, value)]
    for _ in range(depth):
        for at, item in items:
            check_type(at, item, list)
        items = [(f"{at}[{k}]", x) for at, item in items for k, x in enumerate(item)]
    for at, item in items:
        check_type(at, item, float)
    try:
        return np.array(value, dtype=np.float64)
    except ValueError:
        raise ValueError(f"{path} rows must all have one length") from None


def model_from_json(text: str) -> ForecastModel:
    """Parse a ``model_to_json`` text; a mistyped, missing or unknown key raises ValueError."""
    doc = loads(text)
    check_type("model", doc, dict)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a forecast model file (format={doc.get('format')!r})")
    check_keys("model", doc, _MODEL_KEYS, required=True)
    check_type("format_version", doc["format_version"], int)
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc['format_version']!r}")
    config_fields = read_fields(LstmConfig, "config", doc["config"], required=True)
    config = build(LstmConfig, "config", config_fields)
    check_unsigned("trained_epochs", doc["trained_epochs"])
    check_type("layers", doc["layers"], list)
    layers = [_params(LayerParams, f"layers[{l}]", layer) for l, layer in enumerate(doc["layers"])]
    head = _params(HeadParams, "head", doc["head"])
    norm = _params(NormStats, "norm", doc["norm"])
    model = ForecastModel(config, layers, head, norm, trained_epochs=doc["trained_epochs"])
    model.validate_shapes()
    return model


def save_model(model: ForecastModel, path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path) -> ForecastModel:
    return model_from_json(Path(path).read_text(encoding="utf-8"))
