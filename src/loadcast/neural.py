"""From-scratch quantile LSTM: stacked gated cells, inter-layer relu and
dropout, a three-quantile dense head, pinball objective, Adam updates,
backpropagation through time and patience-based early stopping.

Gate internals are the standard sigmoid/tanh equations; relu applies to a
block's hidden states as they are handed to the next stage, not inside the
recurrence. Each layer stores its four gates fused, as one input matrix,
one recurrent matrix and one bias, so a step is one input and one recurrent
GEMM; ``parameters()`` exposes per-gate views of them. A training forward
projects every step's input before the recurrence; eval forwards that no
backward pass follows keep no BPTT caches and project one step at a time,
and the second layer keeps only its last hidden state.

The kernels are feature-major: every per-step array keeps the batch as its
last axis. A layer's input is (T, n_in, batch), its gate activations and
their gradients (T, 4H, batch), its H, C and tanh(C) (T, H, batch), so
gate k of step t is ``act[t, k*H:(k+1)*H]``, one contiguous (H, batch)
block, and a step's GEMMs are ``W.T @ x``, ``U.T @ h`` and ``U @ dz``.
With the batch first, a gate is a strided slice of its step's rows and the
step a slice strided by T*4H; elementwise work on such views runs two to
five times slower than on contiguous blocks and, more than the GEMMs, sets
a batch's time. Only ``forward``'s windows (batch, T,
features) and q (batch, 3) keep the batch first: layer 1 reads
``windows[:, t, :]`` through BLAS's transposed operand, so an eval
forward never copies the window tensor.

Every kernel runs in the dtype of the model's parameters. ``init_model``
defaults to float64, in which analytic gradients are checked against
central finite differences tightly; the pipeline trains and predicts in
float32, which halves the kernels' time. Dropout draws, the pinball loss
sum and the checkpoint body stay float64, and ``predict_quantiles``
returns float64 watts. A dropout mask is a bool keep-mask applied with one
1/keep rounded to the model dtype, which gives the bits of a float mask
``(u < keep) / keep`` cast to that dtype.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .features import WindowTensor
from .metrics import QUANTILE_LEVELS, pinball_grad, pinball_loss
from .series import ScalerParams, replace_on_success, unscale_array

logger = logging.getLogger(__name__)

GATES = ("i", "f", "o", "g")


class NeuralModelError(ValueError):
    """Raised on shape mismatches and invalid training configs."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp of a non-positive argument only, so neither branch overflows
    ex = np.exp(-np.abs(x))
    # numerator 1 where x >= 0, else ex: blended arithmetically, which gives
    # np.where's bits without its per-element branch
    pos = (x >= 0).astype(ex.dtype)
    num = (1.0 - pos) * ex
    num += pos
    ex += 1.0
    return np.divide(num, ex, out=out)


@dataclass
class LstmLayerParams:
    """One layer's weights with the gates fused in ``GATES`` order: an input
    matrix W (n_in x 4H), a recurrent matrix U (H x 4H) and a bias b (4H).
    Gate k owns columns k*H:(k+1)*H of each."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @property
    def n_in(self) -> int:
        return self.W.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.U.shape[0]


def _gate_views(tag: str, W: np.ndarray, U: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
    """Per-gate views ``{tag}.W_i``, ``{tag}.U_i``, ``{tag}.b_i``, ... of
    fused arrays; names both a layer's parameters and their gradients."""
    n = U.shape[0]
    views: dict[str, np.ndarray] = {}
    for k, gate in enumerate(GATES):
        cols = slice(k * n, (k + 1) * n)
        views[f"{tag}.W_{gate}"] = W[:, cols]
        views[f"{tag}.U_{gate}"] = U[:, cols]
        views[f"{tag}.b_{gate}"] = b[cols]
    return views


@dataclass
class QuantileLstmModel:
    layer1: LstmLayerParams
    layer2: LstmLayerParams
    head_W: np.ndarray  # (hidden2, len(QUANTILE_LEVELS))
    head_b: np.ndarray
    dropout_rate: float = 0.2
    seed: int = 0

    def parameters(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of every trainable tensor."""
        out: dict[str, np.ndarray] = {}
        for tag, layer in (("l1", self.layer1), ("l2", self.layer2)):
            out |= _gate_views(tag, layer.W, layer.U, layer.b)
        return out | {"head.W": self.head_W, "head.b": self.head_b}

    @property
    def n_features(self) -> int:
        return self.layer1.n_in

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter, and so of every kernel's arithmetic."""
        return self.head_W.dtype


def _init_layer(n_in: int, n_hidden: int, rng: np.random.Generator, dtype) -> LstmLayerParams:
    scale = 1.0 / np.sqrt(n_hidden)
    W = np.hstack([rng.uniform(-scale, scale, size=(n_in, n_hidden)) for _ in GATES])
    U = np.hstack([rng.uniform(-scale, scale, size=(n_hidden, n_hidden)) for _ in GATES])
    b = np.zeros(len(GATES) * n_hidden)
    b[n_hidden : 2 * n_hidden] = 1.0  # open forget gates at the start
    return LstmLayerParams(*(a.astype(dtype, copy=False) for a in (W, U, b)))


def init_model(
    n_features: int,
    hidden: tuple[int, int] = (100, 50),
    dropout_rate: float = 0.2,
    seed: int = 0,
    dtype=np.float64,
) -> QuantileLstmModel:
    """Fresh model, weights uniform in +-1/sqrt(n_hidden), forget bias +1.

    The draws are float64 whatever ``dtype`` is, so a float32 model holds
    the float64 model's weights rounded to float32."""
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise NeuralModelError(f"unsupported parameter dtype {dtype}")
    if not 0.0 <= dropout_rate < 1.0:
        raise NeuralModelError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    if len(hidden) != 2 or min(hidden) < 1:
        raise NeuralModelError(f"hidden must be two sizes >= 1, got {tuple(hidden)}")
    rng = np.random.default_rng(seed)
    layer1 = _init_layer(n_features, hidden[0], rng, dtype)
    layer2 = _init_layer(hidden[0], hidden[1], rng, dtype)
    scale = 1.0 / np.sqrt(hidden[1])
    head_W = rng.uniform(-scale, scale, size=(hidden[1], len(QUANTILE_LEVELS)))
    head_b = np.zeros(len(QUANTILE_LEVELS))
    return QuantileLstmModel(layer1, layer2, head_W.astype(dtype, copy=False),
                             head_b.astype(dtype, copy=False), dropout_rate, seed)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def _gates(act: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Views of the i, f, o, g blocks along the first axis of a fused
    (4H, ...) array; each is contiguous when ``act`` is."""
    return tuple(act[k * n : (k + 1) * n] for k in range(len(GATES)))


def _cell(
    act: np.ndarray, c_prev: np.ndarray | None, c: np.ndarray, tc: np.ndarray, h: np.ndarray
) -> None:
    """One step of the gated cell on (4H, batch) pre-activations, which are
    activated in place: [i f o g] = [sigmoid sigmoid sigmoid tanh](act);
    c = f*c_prev + i*g, tc = tanh(c) and h = o*tc are written into the
    given (H, batch) arrays. ``c_prev`` None stands for c_{-1} = 0; it may
    be ``c`` itself."""
    n = h.shape[0]
    _sigmoid(act[: 3 * n], out=act[: 3 * n])
    np.tanh(act[3 * n :], out=act[3 * n :])
    i, f, o, g = _gates(act, n)
    if c_prev is None:
        np.multiply(i, g, out=c)
    else:
        np.multiply(i, g, out=tc)  # tc is free until tanh(c) goes in
        np.multiply(f, c_prev, out=c)
        c += tc
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


def _layer_forward(
    layer: LstmLayerParams, X: np.ndarray, keep_caches: bool, all_states: bool = True
) -> tuple[np.ndarray | None, np.ndarray, dict | None]:
    """Run a layer over a (T, n_in, batch) sequence; X[t] may be a strided
    view, which BLAS reads as a transposed operand.

    Returns the hidden states H (T, H, batch), the last hidden state and,
    with ``keep_caches``, the BPTT caches: the input X, H, cell states C,
    tanh(C) and the gate activations act (T, 4H, batch). The caching pass
    projects every step's input into act before the recurrence, so a step
    adds only U.T h; a cache-free pass projects one step at a time and,
    with ``all_states`` false, keeps no H (None is returned)."""
    T, _, batch = X.shape
    n = layer.n_hidden
    dtype = layer.W.dtype
    WT, UT, b = layer.W.T, layer.U.T, layer.b[:, None]
    H = np.empty((T, n, batch), dtype) if keep_caches or all_states else None
    rec = np.empty((4 * n, batch), dtype)  # U.T h_{t-1}
    if keep_caches:
        # a training batch is small, and BLAS reads contiguous steps about twice as fast
        X = np.ascontiguousarray(X)
        acts = np.matmul(WT, X, out=np.empty((T, 4 * n, batch), dtype))
        acts += b
        C, TC = np.empty_like(H), np.empty_like(H)
    else:
        act = np.empty_like(rec)
        c, tc = np.empty((2, n, batch), dtype)
        h = np.empty_like(c) if H is None else None
    for t in range(T):
        if keep_caches:  # the step's input projection is already in act
            act = acts[t]
            c, tc = C[t], TC[t]
            c_prev = C[t - 1] if t else None
        else:
            np.matmul(WT, X[t], out=act)
            act += b
            c_prev = c if t else None
        if t:  # h is still h_{t-1}; h_{-1} = 0 adds nothing
            act += np.matmul(UT, h, out=rec)
        if H is not None:
            h = H[t]
        _cell(act, c_prev, c, tc, h)
    cache = {"X": X, "H": H, "C": C, "TC": TC, "act": acts} if keep_caches else None
    return H, h, cache


def _dropout_scale(model: QuantileLstmModel):
    """The inverted-dropout factor 1/keep, rounded once to the model dtype."""
    return model.dtype.type(1.0 / (1.0 - model.dropout_rate))


def forward(
    model: QuantileLstmModel,
    windows: np.ndarray,
    train_mode: bool = False,
    dropout_seed: int | None = None,
    keep_caches: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """Full forward pass on (batch, T, n_features) windows, in the model's
    dtype (windows of another dtype are cast); returns q as (batch, 3).

    Layer 1 runs over every step; its activated per-step outputs pass
    through dropout (train mode only, inverted scaling), then layer 2; the
    head reads layer 2's final activated (and, in train mode, dropped-out)
    hidden state. Eval mode is deterministic. With ``keep_caches=False``
    the caches for ``backward`` are not kept and None is returned in
    their place; q is unchanged.
    """
    if windows.ndim == 2:
        windows = windows[None, :, :]
    if windows.shape[2] != model.n_features:
        raise NeuralModelError(
            f"window has {windows.shape[2]} features, model expects {model.n_features}"
        )
    windows = windows.astype(model.dtype, copy=False)
    use_dropout = train_mode and model.dropout_rate > 0.0
    if use_dropout:
        if dropout_seed is None:
            raise NeuralModelError("train-mode forward needs a dropout seed")
        rng = np.random.default_rng(dropout_seed)
        keep = 1.0 - model.dropout_rate
        scale = _dropout_scale(model)

    def keep_mask(shape):
        # float64 draws in (batch, ...) order whatever the model dtype, so
        # both dtypes drop the same units; returned in the kernel's layout
        return np.moveaxis(rng.random(shape) < keep, 0, -1).copy()

    # step t's input is windows[:, t, :].T, a view: an eval forward copies no window
    H1, _, cache1 = _layer_forward(model.layer1, windows.transpose(1, 2, 0), keep_caches)
    # backward reads H1 from the cache; without one, relu and dropout go in place
    D1 = np.maximum(H1, 0.0, out=None if keep_caches else H1)
    mask1 = keep_mask(windows.shape[:2] + (model.layer1.n_hidden,)) if use_dropout else None
    if mask1 is not None:
        D1 *= scale
        D1 *= mask1

    _, h2_last, cache2 = _layer_forward(model.layer2, D1, keep_caches, all_states=False)
    D2 = np.maximum(h2_last, 0.0)
    mask2 = keep_mask((len(windows), model.layer2.n_hidden)) if use_dropout else None
    if mask2 is not None:
        D2 *= scale
        D2 *= mask2

    q = D2.T @ model.head_W + model.head_b
    if not keep_caches:
        return q, None
    return q, {"layer1": cache1, "mask1": mask1, "layer2": cache2,
               "h2_last": h2_last, "mask2": mask2, "D2": D2}


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def _layer_backward(
    layer: LstmLayerParams, cache: dict, dH: np.ndarray, input_grad: bool
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """BPTT through one layer. dH is the upstream gradient on every hidden
    state, (T, H, batch), or on the last one only, (H, batch); returns the
    (T, n_in, batch) gradient of the input (None unless ``input_grad``)
    and the fused parameter gradients (dW, dU, db).

    Each step works on contiguous (H, batch) gate blocks in buffers
    allocated once; dW and dU accumulate one step's GEMM at a time."""
    X, H, C, TC, acts = (cache[k] for k in ("X", "H", "C", "TC", "act"))
    T, n, batch = H.shape
    per_step = dH.ndim == 3
    dZ = np.empty_like(acts)
    dW, dU = np.zeros_like(layer.W), np.zeros_like(layer.U)
    step_dW, step_dU = np.empty_like(dW), np.empty_like(dU)
    dh_next, dc, dc_next = np.empty((3, n, batch), acts.dtype)
    for t in range(T - 1, -1, -1):
        act, dz, tc = acts[t], dZ[t], TC[t]
        i, f, o, g = _gates(act, n)
        dz_i, dz_f, dz_o, dz_g = _gates(dz, n)
        if t == T - 1:  # nothing flows back into the last step
            dh = dH[t] if per_step else dH
        else:
            dh = dh_next
            if per_step:
                dh += dH[t]
        # dc = dh o (1 - tc^2) + dc_{t+1}
        np.multiply(tc, tc, out=dc)
        np.subtract(1.0, dc, out=dc)
        dc *= o
        dc *= dh
        if t < T - 1:
            dc += dc_next
        # local derivatives: s(1 - s) of i, f, o in one pass, 1 - g^2 of g
        np.subtract(1.0, act[: 3 * n], out=dz[: 3 * n])
        dz[: 3 * n] *= act[: 3 * n]
        np.multiply(g, g, out=dz_g)
        np.subtract(1.0, dz_g, out=dz_g)
        dz_i *= g
        if t:
            dz_f *= C[t - 1]
        else:  # c_{-1} = 0
            dz_f[...] = 0.0
        dz_g *= i
        dz_o *= tc
        dz_o *= dh
        i_and_f = dz[: 2 * n].reshape(2, n, batch)
        i_and_f *= dc
        dz_g *= dc
        np.multiply(dc, f, out=dc_next)
        dW += np.matmul(X[t], dz.T, out=step_dW)
        if t:  # step t's recurrent input is h_{t-1}; h_{-1} = 0
            dU += np.matmul(H[t - 1], dz.T, out=step_dU)
            np.matmul(layer.U, dz, out=dh_next)
    db = dZ.sum(axis=0).sum(axis=1)  # a short last axis sums slowly first
    dX = np.matmul(layer.W, dZ) if input_grad else None
    return dX, dW, dU, db


def backward(
    model: QuantileLstmModel, caches: dict, dq: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of every parameter given d(loss)/d(head outputs).

    Replays the dropout masks and relu gating recorded by the
    matching forward pass; relu takes subgradient 0 at exactly zero.
    Gate gradients are per-gate views of fused arrays.
    """
    D2 = caches["D2"]
    grads = {"head.W": D2 @ dq, "head.b": dq.sum(axis=0)}
    dh2_last = model.head_W @ dq.T
    if caches["mask2"] is not None:
        dh2_last *= _dropout_scale(model)
        dh2_last *= caches["mask2"]
    dh2_last *= caches["h2_last"] > 0

    cache1, cache2 = caches["layer1"], caches["layer2"]
    # layer 2's input gradient; layer 1's own input gradient is never needed
    dH1, *fused2 = _layer_backward(model.layer2, cache2, dh2_last, input_grad=True)
    if caches["mask1"] is not None:
        dH1 *= _dropout_scale(model)
        dH1 *= caches["mask1"]
    dH1 *= cache1["H"] > 0
    _, *fused1 = _layer_backward(model.layer1, cache1, dH1, input_grad=False)
    return grads | _gate_views("l1", *fused1) | _gate_views("l2", *fused2)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def quantile_loss_and_grad(q: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean pinball loss over samples and the ``QUANTILE_LEVELS`` heads, and
    its gradient with respect to the head outputs. The loss is a float64
    sum; the gradient takes q's dtype."""
    if q.shape != (len(y), len(QUANTILE_LEVELS)):
        raise NeuralModelError(f"head outputs {q.shape} do not match {len(y)} targets")
    levels = tuple(enumerate(QUANTILE_LEVELS))
    losses = np.column_stack([pinball_loss(y, q[:, j], tau) for j, tau in levels])
    dq = np.column_stack([pinball_grad(y, q[:, j], tau) for j, tau in levels])
    n = q.size
    return float(losses.sum() / n), (dq / n).astype(q.dtype, copy=False)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState
) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter arrays."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for name, theta in params.items():
        g = grads[name]
        if theta.shape != g.shape:
            raise NeuralModelError(f"gradient shape mismatch for {name}")
        m = state.m.setdefault(name, np.zeros_like(theta))
        v = state.v.setdefault(name, np.zeros_like(theta))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g**2
        theta -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return state


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 50
    patience: int = 5
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_epochs", "patience", "batch_size"):
            if getattr(self, name) < 1:
                raise NeuralModelError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise NeuralModelError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class TrainHistory:
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    best_epoch: int  # 1-based


def _epoch_loss(model: QuantileLstmModel, tensors: WindowTensor) -> float:
    q, _ = forward(model, tensors.data, train_mode=False, keep_caches=False)
    loss, _ = quantile_loss_and_grad(q, tensors.target)
    return loss


def train(
    model: QuantileLstmModel,
    tensors: WindowTensor,
    val_tensors: WindowTensor,
    config: TrainConfig = TrainConfig(),
) -> tuple[QuantileLstmModel, TrainHistory]:
    """Minimise the averaged pinball loss with Adam and early stopping.

    Tracks validation loss per epoch, stops after ``patience`` epochs
    without improvement and restores the best epoch's parameters. A
    non-finite loss aborts with TrainingDiverged.
    """
    if tensors.n_samples == 0 or val_tensors.n_samples == 0:
        raise NeuralModelError("train and validation tensors must be non-empty")
    rng = np.random.default_rng(config.seed)
    state = AdamState(learning_rate=config.learning_rate)
    params = model.parameters()

    best_val = np.inf
    best_epoch = 0
    best_params: dict[str, np.ndarray] | None = None
    train_hist: list[float] = []
    val_hist: list[float] = []

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(tensors.n_samples)
        epoch_total = 0.0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            seed = int(rng.integers(0, 2**31 - 1))
            q, caches = forward(model, tensors.data[idx], train_mode=True, dropout_seed=seed)
            loss, dq = quantile_loss_and_grad(q, tensors.target[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite training loss at epoch {epoch}")
            epoch_total += loss * len(idx)
            grads = backward(model, caches, dq)
            adam_step(params, grads, state)

        train_loss = epoch_total / tensors.n_samples
        val_loss = _epoch_loss(model, val_tensors)
        if not np.isfinite(val_loss):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        train_hist.append(train_loss)
        val_hist.append(val_loss)
        logger.info("epoch %3d  train %.6f  val %.6f", epoch, train_loss, val_loss)

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
        elif epoch - best_epoch >= config.patience:
            logger.info("early stop at epoch %d (best %d)", epoch, best_epoch)
            break

    if best_params is not None:
        for name, arr in params.items():
            arr[...] = best_params[name]
    return model, TrainHistory(tuple(train_hist), tuple(val_hist), best_epoch)


def predict_quantiles(
    model: QuantileLstmModel, tensors: WindowTensor, scaler: ScalerParams | None = None
) -> np.ndarray:
    """Eval-mode forward, inverse min-max scaling of the target (channel 0
    of ``scaler``) back to watts, and non-crossing repair by per-row
    sorting: one (n_windows, len(QUANTILE_LEVELS)) array in
    ``QUANTILE_LEVELS`` order, float64 whatever the model dtype."""
    q, _ = forward(model, tensors.data, train_mode=False, keep_caches=False)
    q = q.astype(np.float64, copy=False)
    if scaler is not None:
        q = unscale_array(q, scaler.mins[0], scaler.maxs[0])
    return np.sort(q, axis=1)


# ---------------------------------------------------------------------------
# Checkpoints and history
# ---------------------------------------------------------------------------


def save_checkpoint(
    model: QuantileLstmModel, path_prefix: str, scaler: ScalerParams | None = None
) -> None:
    """JSON header with shapes/metadata (the model dtype and the scaler used
    in training) plus a flat float64 little-endian binary of all parameters
    in sorted name order; a float32 model widens to float64 exactly."""
    params = model.parameters()
    names = sorted(params)
    header = {
        "n_features": model.n_features,
        "hidden": [model.layer1.n_hidden, model.layer2.n_hidden],
        "dropout_rate": model.dropout_rate,
        "dtype": model.dtype.name,
        # the head is fixed; load_checkpoint refuses any other
        "quantiles": list(QUANTILE_LEVELS),
        "output_activation": "relu",
        "seed": model.seed,
        "scaler": None
        if scaler is None
        else {
            "channel_names": list(scaler.channel_names),
            "mins": scaler.mins.tolist(),
            "maxs": scaler.maxs.tolist(),
        },
        "param_order": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    flat = np.concatenate([params[n].ravel() for n in names])
    # neither file is replaced unless both are written
    with replace_on_success(f"{path_prefix}.json") as head, \
            replace_on_success(f"{path_prefix}.bin", "wb") as body:
        json.dump(header, head, sort_keys=True, indent=1)
        flat.astype("<f8").tofile(body)


def load_checkpoint(path_prefix: str) -> tuple[QuantileLstmModel, ScalerParams | None]:
    """The model and scaler ``save_checkpoint`` wrote; a header without a
    dtype (written before models had one) loads as float64."""
    with open(f"{path_prefix}.json", encoding="utf-8") as fh:
        header = json.load(fh)
    head = (header["quantiles"], header["output_activation"])
    if head != (list(QUANTILE_LEVELS), "relu"):
        raise NeuralModelError(f"unsupported checkpoint head (quantiles, activation) {head}")
    model = init_model(
        n_features=header["n_features"],
        hidden=tuple(header["hidden"]),
        dropout_rate=header["dropout_rate"],
        seed=header["seed"],
        dtype=header.get("dtype", "float64"),
    )
    flat = np.fromfile(f"{path_prefix}.bin", dtype="<f8")
    params = model.parameters()
    offset = 0
    for entry in header["param_order"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape))
        params[entry["name"]][...] = flat[offset : offset + size].reshape(shape)
        offset += size
    if offset != flat.size:
        raise NeuralModelError("checkpoint parameter count mismatch")
    scaler = None
    if header.get("scaler"):
        sc = header["scaler"]
        scaler = ScalerParams(
            np.asarray(sc["mins"], dtype=float),
            np.asarray(sc["maxs"], dtype=float),
            tuple(sc["channel_names"]),
        )
    return model, scaler


def history_to_csv(history: TrainHistory, path) -> None:
    with replace_on_success(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for i, (tr, vl) in enumerate(zip(history.train_loss, history.val_loss), start=1):
            writer.writerow([i, repr(tr), repr(vl)])
