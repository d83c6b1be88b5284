"""From-scratch quantile LSTM: stacked gated cells, inter-layer relu and
dropout, a three-quantile dense head, pinball objective, Adam updates,
backpropagation through time and patience-based early stopping.

Gate internals are the standard sigmoid/tanh equations; relu applies to a
block's hidden states as they are handed to the next stage, not inside the
recurrence. Each layer stores its four gates fused, as one input matrix,
one recurrent matrix and one bias, so a step is one input and one recurrent
GEMM; ``parameters()`` exposes per-gate views of them. ``forward`` runs
one time loop over chunks of steps, each chunk through layer 1, relu and
dropout, then layer 2, with one layer kernel that projects a chunk's
inputs before its recurrence. A training forward is one chunk of all T
steps; it keeps its BPTT caches in a ``BpttWorkspace``, which ``train``
reuses from batch to batch and ``backward`` writes its gradients over.
The caches hold only what backward cannot recompute bit for bit without a
GEMM: each layer's input and gate activations, its cell state after every
``C_EVERY``-th step, and the head's input. Each layer holds one step's h
and c; backward rebuilds a segment of ``C_EVERY`` cell states at a time
from the cached gates and the checkpoint before it, and recomputes
tanh(c) and h = o tanh(c) a step at a time (checkpointed BPTT, as in
Chen et al. 2016 and Gruslys et al. 2016, with a recompute that is only
elementwise). Dropout's float64 uniforms are drawn a few batch rows at a
time into one small buffer and applied as they are drawn, so no keep-mask
is kept: backward gates each unit by its dropped-out relu output. Eval
forwards that no backward pass follows keep no caches: they run T
one-step chunks in one-step buffers, so only the current step of either
layer is held and the peak does not grow with T. Validation and
prediction run them over blocks of at most ``EVAL_BLOCK`` windows, so the
one-step buffers do not grow with the number of windows either; ``train``'s
validation forwards take those buffers from the training workspace, whose
last caches they consume, and ``predict_quantiles`` takes them from a
fresh one.

The kernels are feature-major: every per-step array keeps the batch as its
last axis. A layer's input is (T, n_in, batch), its gate activations and
their gradients (T, 4H, batch), its checkpoints ((T-1) // C_EVERY, H,
batch), so gate k of step t is ``act[t, k*H:(k+1)*H]``, one contiguous
(H, batch) block, and a step's GEMMs are ``W.T @ x``, ``U.T @ h`` and
``U @ dz``. With the batch first, a gate is a strided slice of its step's
rows and the step a slice strided by T*4H; elementwise work on such views
runs two to five times slower than on contiguous blocks and, more than
the GEMMs, sets a batch's time. Only ``forward``'s windows (batch, T,
features) and q (batch, 3) keep the batch first: layer 1 copies a chunk's
steps ``windows[:, t, :].T`` into its workspace, so an eval forward holds
one step's copy, never the window tensor's.

Every kernel runs in the dtype of the model's parameters. ``init_model``
defaults to float64, in which analytic gradients are checked against
central finite differences tightly; the pipeline trains and predicts in
float32, which halves the kernels' time. Dropout draws, the pinball loss
sum and the checkpoint body stay float64, and ``predict_quantiles``
returns float64 watts. Dropout multiplies by one 1/keep rounded to the
model dtype and then by a bool keep-mask, which gives the bits of a float
mask ``(u < keep) / keep`` cast to that dtype.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .features import WindowTensor
from .metrics import QUANTILE_LEVELS, pinball_grad, pinball_loss
from .series import (
    ScalerParams,
    read_blob,
    read_header,
    replace_on_success,
    unscale_array,
    write_header_blob,
)

logger = logging.getLogger(__name__)

GATES = ("i", "f", "o", "g")
# Dropout's float64 uniforms are drawn this many at a time (256 KiB), in
# whole batch rows, rather than as one (batch, T, H) array: at paper size
# that array is 2.5 MB, held next to the BPTT caches, and a 64-window
# batch's layer-1 dropout takes 11 pieces.
DROPOUT_DRAW_PIECE = 32768
# A training forward keeps each layer's cell state after every C_EVERY-th
# step only; backward rebuilds the steps between from the cached gates,
# without a GEMM.
C_EVERY = 8
# Validation and prediction forwards run at most this many windows at once.
EVAL_BLOCK = 128


class NeuralModelError(ValueError):
    """Raised on shape mismatches and out-of-range hyperparameters."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class LstmParams:
    """The LSTM's hyperparameters, named as its ``model_params`` keys, at
    the paper's values. ``init_model`` checks ``hidden`` and ``dropout``,
    and ``windowize`` checks ``window``."""

    hidden: tuple[int, int] = (100, 50)
    dropout: float = 0.2
    window: int = 48
    batch_size: int = 64
    learning_rate: float = 1e-3
    max_epochs: int = 50
    patience: int = 5

    def __post_init__(self) -> None:
        for name in ("max_epochs", "patience", "batch_size"):
            if getattr(self, name) < 1:
                raise NeuralModelError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise NeuralModelError(f"learning_rate must be > 0, got {self.learning_rate}")


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp of a non-positive argument only, so neither branch overflows; each
    # pass writes over its own temporary, so at most three are held at once
    ex = np.abs(x)
    np.negative(ex, out=ex)
    np.exp(ex, out=ex)
    # numerator 1 where x >= 0, else ex: blended arithmetically, which gives
    # np.where's bits without its per-element branch
    pos = (x >= 0).astype(ex.dtype)
    num = np.subtract(1.0, pos)
    num *= ex
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
    dropout_rate: float
    seed: int

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
    hidden: tuple[int, int] = LstmParams.hidden,
    dropout_rate: float = LstmParams.dropout,
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


def _cell_state(
    i: np.ndarray, f: np.ndarray, g: np.ndarray, c_prev: np.ndarray | None, c: np.ndarray,
    ig: np.ndarray,
) -> None:
    """c = f*c_prev + i*g into ``c``, with ``ig`` as a work buffer; the one
    definition that both the forward and backward's rebuild of c run, so
    both get the same bits. ``c_prev`` None stands for c_{-1} = 0; it may
    be ``c`` itself."""
    if c_prev is None:
        np.multiply(i, g, out=c)
    else:
        np.multiply(i, g, out=ig)
        np.multiply(f, c_prev, out=c)
        c += ig


def _cell(
    act: np.ndarray, c_prev: np.ndarray | None, c: np.ndarray, tc: np.ndarray, h: np.ndarray
) -> None:
    """One step of the gated cell on (4H, batch) pre-activations, which are
    activated in place: [i f o g] = [sigmoid sigmoid sigmoid tanh](act);
    c = f*c_prev + i*g, tc = tanh(c) and h = o*tc are written into the
    given (H, batch) arrays, tc as a work buffer no caller keeps. ``c_prev``
    None stands for c_{-1} = 0; it may be ``c`` itself."""
    n = h.shape[0]
    _sigmoid(act[: 3 * n], out=act[: 3 * n])
    np.tanh(act[3 * n :], out=act[3 * n :])
    i, f, o, g = _gates(act, n)
    _cell_state(i, f, g, c_prev, c, tc)  # tc is free until tanh(c) goes in
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


class BpttWorkspace:
    """The buffers a ``forward`` and its ``backward`` work in. ``train``
    keeps one from one training batch to the next so that a batch neither
    allocates nor faults in fresh pages while the last batch's caches are
    still held. ``train``'s validation forwards take their one-step buffers
    from the same workspace, once the last batch's backward is done with
    them; ``predict_quantiles``'s take them from a fresh one, dropped on
    return.

    Each named buffer is flat and sized by the largest batch asked of it; a
    smaller batch takes a reshaped leading slice, so every (4H, batch) gate
    block of a step stays contiguous. Per layer the sequence-long buffers
    are the input copy, the gate activations and the cell-state
    checkpoints, plus the relu'd layer-1 output that is layer 2's input;
    h, c and tanh(c) are one step's (H, batch) each. The caches of a
    forward are views of these buffers: the next forward on the workspace,
    cache-free or not, marks them consumed, and ``backward`` refuses
    them."""

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}
        self._caches: dict | None = None

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Buffer ``name`` as a C-contiguous array of ``shape``."""
        size = math.prod(shape)
        buf = self._flat.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._flat[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def bind(self, caches: dict | None) -> None:
        """Hand the buffers to ``caches``, or to no one when None, consuming
        the previous ones."""
        if self._caches is not None:
            self._caches["consumed"] = True
        self._caches = caches


def _layer_forward(
    layer: LstmLayerParams, X: np.ndarray, ws: BpttWorkspace, tag: str, carry: bool = False,
    relu_out: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Run a layer over a (T, n_in, batch) sequence, in ``ws``'s buffers
    named after ``tag``, and return the BPTT cache: the input X as one
    contiguous array, the gate activations act (T, 4H, batch), the cell
    state after every ``C_EVERY``-th step but the last, ckpt
    ((T-1) // C_EVERY, H, batch), and the last step's hidden and cell
    states h and c (H, batch). No other step's h or c is kept: each step
    writes over one (H, batch) buffer of each, and ``_layer_backward``
    rebuilds them from act and ckpt. With ``relu_out`` each step also
    writes relu(h) into relu_out[t]. Every step's input is projected into
    act before the recurrence, so a step adds only U.T h. With ``carry``
    the sequence continues the previous call's on the same buffers, of the
    same batch: step 0 starts from the h and c that call left, not from
    zero; only a call that starts from zero can be backpropagated."""
    T, _, batch = X.shape
    n = layer.n_hidden
    dtype = layer.W.dtype
    if not X.flags.c_contiguous:
        # a training batch is small, and BLAS reads contiguous steps about twice as fast
        X_copy = ws.take(f"{tag}.X", X.shape, dtype)
        X_copy[...] = X
        X = X_copy
    acts = np.matmul(layer.W.T, X, out=ws.take(f"{tag}.act", (T, 4 * n, batch), dtype))
    acts += layer.b[:, None]
    h, c, tc = (ws.take(f"{tag}.{k}", (n, batch), dtype) for k in ("h", "c", "tc"))
    ckpt = ws.take(f"{tag}.ckpt", ((T - 1) // C_EVERY, n, batch), dtype)
    UT = layer.U.T
    rec = ws.take(f"{tag}.rec", (4 * n, batch), dtype)  # U.T h_{t-1}
    for t in range(T):
        act = acts[t]
        started = t or carry  # h_{-1} = c_{-1} = 0 add nothing
        if started:
            act += np.matmul(UT, h, out=rec)
        _cell(act, c if started else None, c, tc, h)
        if relu_out is not None:
            np.maximum(h, 0.0, out=relu_out[t])
        if t % C_EVERY == C_EVERY - 1 and t < T - 1:
            ckpt[t // C_EVERY] = c
    return {"X": X, "act": acts, "ckpt": ckpt, "h": h, "c": c}


def _dropout_scale(model: QuantileLstmModel):
    """The inverted-dropout factor 1/keep, rounded once to the model dtype."""
    return model.dtype.type(1.0 / (1.0 - model.dropout_rate))


def forward(
    model: QuantileLstmModel,
    windows: np.ndarray,
    train_mode: bool = False,
    dropout_seed: int | None = None,
    keep_caches: bool = True,
    workspace: BpttWorkspace | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Full forward pass on (batch, T, n_features) windows, in the model's
    dtype (windows of another dtype are cast); returns q as (batch, 3).

    Layer 1 runs over every step; its activated per-step outputs pass
    through dropout (train mode only, inverted scaling), then layer 2; the
    head reads layer 2's final activated (and, in train mode, dropped-out)
    hidden state. Eval mode is deterministic. Both layers run in one time
    loop over chunks of steps, in the buffers of ``workspace``, a fresh one
    when None is given; the caches of its previous forward are consumed.
    With ``keep_caches`` a chunk is all T steps and the caches for
    ``backward`` live in those buffers: each layer's input, gate
    activations and cell-state checkpoints, and the head's input. Dropout
    is applied to a whole chunk as its uniforms are drawn, so no keep-mask
    is kept; a train-mode forward with dropout therefore runs one chunk of
    all T steps whether it keeps caches or not. Otherwise
    ``keep_caches=False`` runs one-step chunks, so the buffers hold one
    step of either layer, and None is returned in the caches' place; q is
    unchanged.
    """
    if windows.shape[2] != model.n_features:
        raise NeuralModelError(
            f"window has {windows.shape[2]} features, model expects {model.n_features}"
        )
    windows = windows.astype(model.dtype, copy=False)
    batch, T, _ = windows.shape
    use_dropout = train_mode and model.dropout_rate > 0.0
    if use_dropout:
        if dropout_seed is None:
            raise NeuralModelError("train-mode forward needs a dropout seed")
        rng = np.random.default_rng(dropout_seed)
        keep = 1.0 - model.dropout_rate
        scale = _dropout_scale(model)
    ws = BpttWorkspace() if workspace is None else workspace
    ws.bind(None)  # this forward writes over the buffers the last one's caches view

    def drop(D):
        # inverted dropout on a (..., batch) array in the kernel's layout,
        # from float64 draws in (batch, ...) order whatever the model dtype,
        # so both dtypes drop the same units. Consecutive draws continue
        # one stream: pieces of whole batch rows, each applied as it is
        # drawn, give the bits of one draw of the full shape.
        D *= scale
        rows = max(1, DROPOUT_DRAW_PIECE // math.prod(D.shape[:-1]))
        for start in range(0, batch, rows):
            piece = (min(rows, batch - start), *D.shape[:-1])
            draws = rng.random(out=ws.take("draws", piece, np.float64))
            # the piece's batch rows of D, viewed in draw order: the mask
            # stays contiguous and the multiply's inner loop long
            rows_of_D = np.moveaxis(D[..., start : start + piece[0]], -1, 0)
            rows_of_D *= draws < keep

    # step t's input is windows[:, t, :].T, a view: the window tensor is never copied whole
    X = windows.transpose(1, 2, 0)
    chunk = T if keep_caches or use_dropout else 1
    D1 = ws.take("D1", (chunk, model.layer1.n_hidden, batch), model.dtype)
    for t in range(0, T, chunk):
        steps = slice(t, t + chunk)
        cache1 = _layer_forward(model.layer1, X[steps], ws, "l1", carry=t > 0, relu_out=D1)
        if use_dropout:
            drop(D1)
        cache2 = _layer_forward(model.layer2, D1, ws, "l2", carry=t > 0)
    D2 = np.maximum(cache2["h"], 0.0)
    if use_dropout:
        drop(D2)

    q = D2.T @ model.head_W + model.head_b
    if not keep_caches:
        return q, None
    caches = {"layer1": cache1, "layer2": cache2, "D2": D2, "dropout": use_dropout}
    ws.bind(caches)
    return q, caches


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

    Each step works on contiguous (H, batch) gate blocks. The steps run
    back in segments of ``C_EVERY``: entering one, backward rebuilds the
    segment's cell states from the cached i, f and g and the checkpoint
    before it, through ``_cell_state``, so with the forward's bits. Step t
    recomputes tanh(c_{t-1}) and h_{t-1} = o_{t-1} tanh(c_{t-1}) with the
    forward's ufuncs on arrays of the same shape, so with its bits too,
    and step t-1 reuses that tanh. Its gate gradients dz go over its
    activations in the cache, once they are copied to a (4H, batch)
    buffer, and the input gradient over the cached input, which no step
    reads after it; dW and dU accumulate one step's GEMM at a time."""
    X, acts, ckpt = (cache[k] for k in ("X", "act", "ckpt"))
    T, _, batch = acts.shape
    n = layer.n_hidden
    per_step = dH.ndim == 3
    dW, dU = np.zeros_like(layer.W), np.zeros_like(layer.U)
    step_dW, step_dU = np.empty_like(dW), np.empty_like(dU)
    act = np.empty_like(acts[0])  # one step's activations, once dz goes over them
    i, f, o, g = _gates(act, n)
    dh_next, dc, dc_next, tc, tc_prev, h_prev = np.empty((6, n, batch), acts.dtype)
    cells = np.empty((min(T, C_EVERY), n, batch), acts.dtype)  # one segment's c
    for t in range(T - 1, -1, -1):
        k = t % C_EVERY  # step t's place in its segment
        if t == T - 1 or k == C_EVERY - 1:  # entering a segment: rebuild its c
            for j, s in enumerate(range(t - k, t + 1)):
                a = acts[s]
                c_before = cells[j - 1] if j else ckpt[s // C_EVERY - 1] if s else None
                # the i, f and g of step s; dc is free until step t writes it
                _cell_state(a[:n], a[n : 2 * n], a[3 * n :], c_before, cells[j], dc)
        c_prev = cells[k - 1] if k else ckpt[t // C_EVERY - 1] if t else None
        if t == T - 1:
            np.tanh(cells[k], out=tc)
        else:  # step t + 1 left tanh(c_t) in tc_prev
            tc, tc_prev = tc_prev, tc
        dz = acts[t]
        np.copyto(act, dz)
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
            dz_f *= c_prev
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
            np.tanh(c_prev, out=tc_prev)
            np.multiply(acts[t - 1, 2 * n : 3 * n], tc_prev, out=h_prev)  # o_{t-1}
            dU += np.matmul(h_prev, dz.T, out=step_dU)
            np.matmul(layer.U, dz, out=dh_next)
    dZ = acts  # every step's dz is in place
    db = dZ.sum(axis=0).sum(axis=1)  # a short last axis sums slowly first
    dX = np.matmul(layer.W, dZ, out=X) if input_grad else None
    return dX, dW, dU, db


def backward(
    model: QuantileLstmModel, caches: dict, dq: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of every parameter given d(loss)/d(head outputs).

    Replays the dropout and relu gating of the matching forward pass from
    its outputs: a unit passes gradient where its dropped-out relu output
    is positive, scaled by 1/keep in train mode, so relu takes subgradient
    0 at exactly zero. Layer 1's gate is read from layer 2's input before
    layer 2's input gradient goes over it. Gate gradients are per-gate
    views of fused arrays. The pass writes over the caches, which it marks
    consumed; consumed caches raise.
    """
    if caches.get("consumed"):
        raise NeuralModelError("BPTT caches already consumed; run forward again")
    caches["consumed"] = True
    D2 = caches["D2"]
    grads = {"head.W": D2 @ dq, "head.b": dq.sum(axis=0)}
    dh2_last = model.head_W @ dq.T
    if caches["dropout"]:
        dh2_last *= _dropout_scale(model)
    dh2_last *= D2 > 0

    cache1, cache2 = caches["layer1"], caches["layer2"]
    alive1 = cache2["X"] > 0  # layer 2's input, D1
    # layer 2's input gradient; layer 1's own input gradient is never needed
    dH1, *fused2 = _layer_backward(model.layer2, cache2, dh2_last, input_grad=True)
    if caches["dropout"]:
        dH1 *= _dropout_scale(model)
    dH1 *= alive1
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
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState
) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter arrays,
    with the decay rates and denominator offset that Kingma & Ba (2015)
    recommend."""
    state.step += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
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
        theta -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return state


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainHistory:
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    best_epoch: int  # 1-based


def _eval_forward(
    model: QuantileLstmModel, windows: np.ndarray, workspace: BpttWorkspace | None = None
) -> np.ndarray:
    """Eval-mode q (n_windows, 3) from cache-free forwards over blocks of at
    most ``EVAL_BLOCK`` windows, all in ``workspace``, a fresh one when None
    is given, so the one-step buffers hold one block. The blocks are of
    near-equal size, so none holds a single window unless there is only
    one: numpy runs a one-column product as a matrix-vector product, which
    rounds differently from the matrix product of a wider block."""
    n = len(windows)
    q = np.empty((n, len(QUANTILE_LEVELS)), model.dtype)
    ws = BpttWorkspace() if workspace is None else workspace
    blocks = max(1, -(-n // EVAL_BLOCK))  # one, of no window, when n is 0
    bounds = [n * k // blocks for k in range(blocks + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        q[start:stop] = forward(model, windows[start:stop], keep_caches=False, workspace=ws)[0]
    return q


def _epoch_loss(
    model: QuantileLstmModel, tensors: WindowTensor, workspace: BpttWorkspace | None = None
) -> float:
    loss, _ = quantile_loss_and_grad(_eval_forward(model, tensors.data, workspace),
                                     tensors.target)
    return loss


def train(
    model: QuantileLstmModel,
    tensors: WindowTensor,
    val_tensors: WindowTensor,
    params: LstmParams,
    seed: int,
) -> tuple[QuantileLstmModel, TrainHistory]:
    """Minimise the averaged pinball loss with Adam and early stopping.

    ``seed`` drives the batch order and the dropout draws. Tracks
    validation loss per epoch, stops after ``patience`` epochs without
    improvement and restores the best epoch's parameters. A non-finite loss
    aborts with TrainingDiverged.
    """
    if tensors.n_samples == 0 or val_tensors.n_samples == 0:
        raise NeuralModelError("train and validation tensors must be non-empty")
    rng = np.random.default_rng(seed)
    state = AdamState(learning_rate=params.learning_rate)
    weights = model.parameters()
    # every epoch's first batch is the largest, so each buffer is allocated
    # once; the validation forwards reuse them, growing only the one-step
    # buffers that an eval block wider than a batch outgrows
    workspace = BpttWorkspace()

    best_val = np.inf
    best_epoch = 0
    best_weights: dict[str, np.ndarray] | None = None
    train_hist: list[float] = []
    val_hist: list[float] = []

    for epoch in range(1, params.max_epochs + 1):
        order = rng.permutation(tensors.n_samples)
        epoch_total = 0.0
        for start in range(0, len(order), params.batch_size):
            idx = order[start : start + params.batch_size]
            dropout_seed = int(rng.integers(0, 2**31 - 1))
            q, caches = forward(model, tensors.data[idx], train_mode=True,
                                dropout_seed=dropout_seed, workspace=workspace)
            loss, dq = quantile_loss_and_grad(q, tensors.target[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite training loss at epoch {epoch}")
            epoch_total += loss * len(idx)
            grads = backward(model, caches, dq)
            adam_step(weights, grads, state)

        train_loss = epoch_total / tensors.n_samples
        val_loss = _epoch_loss(model, val_tensors, workspace)
        if not np.isfinite(val_loss):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        train_hist.append(train_loss)
        val_hist.append(val_loss)
        logger.info("epoch %3d  train %.6f  val %.6f", epoch, train_loss, val_loss)

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_weights = {k: v.copy() for k, v in weights.items()}
        elif epoch - best_epoch >= params.patience:
            logger.info("early stop at epoch %d (best %d)", epoch, best_epoch)
            break

    if best_weights is not None:
        for name, arr in weights.items():
            arr[...] = best_weights[name]
    return model, TrainHistory(tuple(train_hist), tuple(val_hist), best_epoch)


def predict_quantiles(
    model: QuantileLstmModel, tensors: WindowTensor, scaler: ScalerParams | None = None
) -> np.ndarray:
    """Eval-mode forwards in blocks of at most ``EVAL_BLOCK`` windows,
    inverse min-max scaling of the target (channel 0 of ``scaler``) back to
    watts, and non-crossing repair by per-row sorting: one (n_windows,
    len(QUANTILE_LEVELS)) array in ``QUANTILE_LEVELS`` order, float64
    whatever the model dtype.

    A window's quantiles can differ in the last bits with the number of
    windows forwarded with it. numpy runs a one-window block's products as
    matrix-vector products, which round differently from a wider block's
    matrix products, and some BLAS builds round the trailing columns of a
    wide float64 product differently from a narrower one. So one window
    alone, or a float64 model on another number of windows, can give other
    bits for the same window; a fixed window set gives the same bits every
    run."""
    q = _eval_forward(model, tensors.data).astype(np.float64, copy=False)
    if scaler is not None:
        q = unscale_array(q, scaler.mins[0], scaler.maxs[0])
    return np.sort(q, axis=1)


# ---------------------------------------------------------------------------
# Checkpoints and history
# ---------------------------------------------------------------------------


def save_checkpoint(
    model: QuantileLstmModel, path_prefix: str, scaler: ScalerParams | None = None
) -> dict[str, str]:
    """JSON header with shapes/metadata (the model dtype and the scaler used
    in training) plus a flat float64 little-endian binary of all parameters
    in sorted name order; a float32 model widens to float64 exactly. Both
    go through ``write_header_blob``: neither is replaced unless both are
    written. Returns both file names with their sha256."""
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
    return write_header_blob(path_prefix, header, flat.astype(np.float64, copy=False))


def load_checkpoint(path_prefix: str) -> tuple[QuantileLstmModel, ScalerParams | None]:
    """The model and scaler ``save_checkpoint`` wrote; a header without a
    dtype (written before models had one) loads as float64."""
    header = read_header(path_prefix)
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
    params = model.parameters()
    order = [(entry["name"], tuple(entry["shape"])) for entry in header["param_order"]]
    want = sorted((name, arr.shape) for name, arr in params.items())
    if sorted(order) != want:
        raise NeuralModelError(f"{path_prefix}.json: param_order does not match its model's "
                               f"parameters, (name, shape) {sorted(set(order) ^ set(want))}")
    expected = sum(arr.size for arr in params.values())
    (flat,) = read_blob(path_prefix, [("<f8", (expected,))],
                        f"{expected} float64 parameters", NeuralModelError)
    offset = 0
    for name, shape in order:
        size = params[name].size
        params[name][...] = flat[offset : offset + size].reshape(shape)
        offset += size
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
