import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from loadcast.features import WindowTensor
from loadcast.metrics import pinball_loss
from loadcast.neural import (
    GATES,
    AdamState,
    NeuralModelError,
    TrainConfig,
    TrainHistory,
    TrainingDiverged,
    adam_step,
    backward,
    forward,
    history_to_csv,
    init_model,
    load_checkpoint,
    predict_quantiles,
    quantile_loss_and_grad,
    save_checkpoint,
    train,
)
from loadcast.series import ScalerParams

import loadcast.neural as neural_module


def tiny_model(seed=0, dropout=0.0):
    return init_model(n_features=3, hidden=(4, 3), dropout_rate=dropout, seed=seed)


def zeroed_model(**kwargs):
    model = tiny_model(**kwargs)
    for arr in model.parameters().values():
        arr[...] = 0.0
    return model


def cell_step(x, h_prev, c_prev, layer):
    """One step of the gated cell on a (batch, n_in) input through the
    kernel's ``_cell``, which works feature-major: its arrays are
    (features, batch); returns (h, c) as (batch, H)."""
    act = layer.W.T @ x.T + layer.b[:, None]
    act += layer.U.T @ h_prev.T
    h, c, tc = (np.empty(h_prev.shape[::-1]) for _ in range(3))
    neural_module._cell(act, np.ascontiguousarray(c_prev.T), c, tc, h)
    return h.T, c.T


def make_tensor(data, targets):
    data = np.asarray(data, dtype=float)
    return WindowTensor(data, np.asarray(targets, dtype=float), np.arange(len(data)))


def total_loss(model, windows, y, train_mode=False, seed=None):
    q, _ = forward(model, windows, train_mode=train_mode, dropout_seed=seed)
    loss, _ = quantile_loss_and_grad(q, y)
    return loss


def analytic_grads(model, windows, y, train_mode=False, seed=None):
    q, caches = forward(model, windows, train_mode=train_mode, dropout_seed=seed)
    _, dq = quantile_loss_and_grad(q, y)
    return backward(model, caches, dq)


def finite_diff_grad(model, windows, y, name, flat_idx, step=1e-5, train_mode=False, seed=None):
    arr = model.parameters()[name]
    orig = arr.flat[flat_idx]
    arr.flat[flat_idx] = orig + step
    up = total_loss(model, windows, y, train_mode, seed)
    arr.flat[flat_idx] = orig - step
    down = total_loss(model, windows, y, train_mode, seed)
    arr.flat[flat_idx] = orig
    return (up - down) / (2.0 * step), up, down


def max_relative_error(model, windows, y, train_mode=False, seed=None, step=1e-5):
    """Worst analytic-vs-central-difference relative error over all parameters.

    Two oracle-validity guards, both standard gradcheck practice: the
    relative-error denominator is floored at 1e-6 (below that both values
    sit at the difference's cancellation noise floor, ~1e-11 for an O(1)
    loss), and coordinates whose one-sided slopes disagree are skipped
    because the perturbation crossed a relu/pinball kink, where a central
    difference is not a derivative estimate.
    """
    grads = analytic_grads(model, windows, y, train_mode, seed)
    base = total_loss(model, windows, y, train_mode, seed)
    worst = 0.0
    kinks = 0
    total = 0
    for name, g in grads.items():
        for idx in range(g.size):
            total += 1
            fd, up, down = finite_diff_grad(model, windows, y, name, idx,
                                            step=step, train_mode=train_mode, seed=seed)
            left = (base - down) / step
            right = (up - base) / step
            if abs(left - right) > 1e-3 * max(abs(left) + abs(right), 1e-6):
                kinks += 1
                continue
            denom = max(abs(g.flat[idx]), abs(fd), 1e-6)
            worst = max(worst, abs(g.flat[idx] - fd) / denom)
    assert kinks <= max(1, total // 50), f"{kinks}/{total} kink crossings"
    return worst


# ---------------------------------------------------------------------------
# Per-gate reference: the cell and BPTT written one gate at a time, with one
# GEMM per gate and a cache dict per step, as they were before the gates were
# fused. The fused kernel must reproduce it to rounding.
# ---------------------------------------------------------------------------


def reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_init(n_features, hidden, seed):
    """init_model's draws made one gate at a time, in the same order."""
    rng = np.random.default_rng(seed)
    params = {}
    for tag, n_in, n in (("l1", n_features, hidden[0]), ("l2", hidden[0], hidden[1])):
        scale = 1.0 / np.sqrt(n)
        for kind, rows in (("W", n_in), ("U", n)):
            for gate in GATES:
                params[f"{tag}.{kind}_{gate}"] = rng.uniform(-scale, scale, size=(rows, n))
        for gate in GATES:
            params[f"{tag}.b_{gate}"] = np.full(n, 1.0 if gate == "f" else 0.0)
    scale = 1.0 / np.sqrt(hidden[1])
    params["head.W"] = rng.uniform(-scale, scale, size=(hidden[1], 3))
    params["head.b"] = np.zeros(3)
    return params


def reference_layer_forward(params, tag, X):
    W, U, b = ({g: params[f"{tag}.{kind}_{g}"] for g in GATES} for kind in "WUb")
    batch, T, _ = X.shape
    n = U["i"].shape[0]
    h = np.zeros((batch, n))
    c = np.zeros((batch, n))
    H = np.empty((batch, T, n))
    caches = []
    for t in range(T):
        x = X[:, t, :]
        z = {g: x @ W[g] + h @ U[g] + b[g] for g in GATES}
        i, f, o = (reference_sigmoid(z[g]) for g in "ifo")
        g = np.tanh(z["g"])
        cache = {"x": x, "h_prev": h, "c_prev": c, "i": i, "f": f, "o": o, "g": g}
        c = f * c + i * g
        cache["tanh_c"] = np.tanh(c)
        h = o * cache["tanh_c"]
        H[:, t, :] = h
        caches.append(cache)
    return H, caches


def reference_layer_backward(params, tag, caches, dH):
    W, U = ({g: params[f"{tag}.{kind}_{g}"] for g in GATES} for kind in "WU")
    batch, T, n = dH.shape
    grads = {f"{tag}.{kind}_{g}": np.zeros_like(params[f"{tag}.{kind}_{g}"])
             for kind in "WUb" for g in GATES}
    dX = np.empty((batch, T, W["i"].shape[0]))
    dh_next = np.zeros((batch, n))
    dc_next = np.zeros((batch, n))
    for t in range(T - 1, -1, -1):
        cache = caches[t]
        dh = dH[:, t, :] + dh_next
        i, f, o, g, tc = (cache[k] for k in ("i", "f", "o", "g", "tanh_c"))
        dc = dh * o * (1.0 - tc**2) + dc_next
        da = {
            "i": dc * g * i * (1.0 - i),
            "f": dc * cache["c_prev"] * f * (1.0 - f),
            "o": dh * tc * o * (1.0 - o),
            "g": dc * i * (1.0 - g**2),
        }
        dc_next = dc * f
        dX[:, t, :] = 0.0
        dh_next = np.zeros((batch, n))
        for gate in GATES:
            grads[f"{tag}.W_{gate}"] += cache["x"].T @ da[gate]
            grads[f"{tag}.U_{gate}"] += cache["h_prev"].T @ da[gate]
            grads[f"{tag}.b_{gate}"] += da[gate].sum(axis=0)
            dX[:, t, :] += da[gate] @ W[gate].T
            dh_next += da[gate] @ U[gate].T
    return dX, grads


def reference_forward_backward(model, windows, y, train_mode=False, seed=None):
    """(q, named gradients) of the per-gate kernel, with forward's dropout draws."""
    params = {k: v.copy() for k, v in model.parameters().items()}
    keep = 1.0 - model.dropout_rate
    rng = np.random.default_rng(seed)

    def mask(shape):
        return (rng.random(shape) < keep) / keep if train_mode else np.ones(shape)

    H1, caches1 = reference_layer_forward(params, "l1", windows)
    mask1 = mask(H1.shape)
    D1 = np.maximum(H1, 0.0) * mask1
    H2, caches2 = reference_layer_forward(params, "l2", D1)
    h2_last = H2[:, -1, :]
    mask2 = mask(h2_last.shape)
    D2 = np.maximum(h2_last, 0.0) * mask2
    q = D2 @ params["head.W"] + params["head.b"]
    _, dq = quantile_loss_and_grad(q, y)

    grads = {"head.W": D2.T @ dq, "head.b": dq.sum(axis=0)}
    dH2 = np.zeros_like(H2)
    dH2[:, -1, :] = dq @ params["head.W"].T * mask2 * (h2_last > 0)
    dD1, grads2 = reference_layer_backward(params, "l2", caches2, dH2)
    _, grads1 = reference_layer_backward(params, "l1", caches1, dD1 * mask1 * (H1 > 0))
    return q, grads | grads1 | grads2


class TestCellForward:
    def test_all_zero_parameters_hand_oracle(self):
        model = zeroed_model()
        c_prev = np.array([[0.4, -0.2, 0.1, 0.9]])
        h_prev = np.zeros((1, 4))
        x = np.array([[1.0, 2.0, 3.0]])
        h, c = cell_step(x, h_prev, c_prev, model.layer1)
        np.testing.assert_allclose(c, 0.5 * c_prev)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev))

    def test_gate_saturation_preserves_cell(self):
        model = zeroed_model()
        params = model.parameters()
        params["l1.b_f"][...] = 40.0   # forget gate ~ 1
        params["l1.b_i"][...] = -40.0  # input gate ~ 0
        c_prev = np.array([[0.7, -1.2, 0.3, 2.0]])
        _, c = cell_step(np.ones((1, 3)), np.zeros((1, 4)), c_prev, model.layer1)
        np.testing.assert_allclose(c, c_prev, rtol=1e-12)

    def test_zero_input_and_state(self):
        model = tiny_model(seed=3)
        h, _ = cell_step(
            np.zeros((1, 3)), np.zeros((1, 4)), np.zeros((1, 4)), model.layer1
        )
        # with zero input and state only biases act; zero biases give h = 0
        zero_bias = zeroed_model()
        h0, _ = cell_step(
            np.zeros((1, 3)), np.zeros((1, 4)), np.zeros((1, 4)), zero_bias.layer1
        )
        np.testing.assert_array_equal(h0, np.zeros((1, 4)))
        assert np.isfinite(h).all()


class TestForward:
    def test_eval_mode_deterministic(self):
        model = tiny_model(seed=1, dropout=0.2)
        windows = np.random.default_rng(0).uniform(size=(4, 5, 3))
        q1, _ = forward(model, windows, train_mode=False)
        q2, _ = forward(model, windows, train_mode=False)
        np.testing.assert_array_equal(q1, q2)

    def test_dropout_rate_zero_train_equals_eval(self):
        model = tiny_model(seed=2, dropout=0.0)
        windows = np.random.default_rng(1).uniform(size=(3, 5, 3))
        q_train, _ = forward(model, windows, train_mode=True, dropout_seed=7)
        q_eval, _ = forward(model, windows, train_mode=False)
        np.testing.assert_array_equal(q_train, q_eval)

    def test_zero_model_outputs_head_bias(self):
        model = zeroed_model()
        model.head_b[...] = np.array([0.1, 0.5, 0.9])
        windows = np.random.default_rng(2).uniform(size=(2, 5, 3))
        q, _ = forward(model, windows)
        np.testing.assert_allclose(q, np.tile([0.1, 0.5, 0.9], (2, 1)))

    def test_dropout_needs_seed(self):
        model = tiny_model(dropout=0.2)
        with pytest.raises(NeuralModelError, match="seed"):
            forward(model, np.zeros((1, 5, 3)), train_mode=True)

    def test_feature_count_checked(self):
        model = tiny_model()
        with pytest.raises(NeuralModelError, match="features"):
            forward(model, np.zeros((1, 5, 7)))


class TestBackward:
    def test_matches_finite_differences_eval_mode(self):
        rng = np.random.default_rng(10)
        model = tiny_model(seed=10)
        windows = rng.uniform(-1, 1, size=(2, 5, 3))
        y = 3.0 + rng.uniform(0, 1, 2)  # keep residuals away from the pinball kink
        assert max_relative_error(model, windows, y) < 1e-4

    def test_matches_finite_differences_with_dropout(self):
        rng = np.random.default_rng(11)
        model = tiny_model(seed=11, dropout=0.3)
        windows = rng.uniform(-1, 1, size=(2, 5, 3))
        y = 3.0 + rng.uniform(0, 1, 2)
        assert max_relative_error(model, windows, y, train_mode=True, seed=99) < 1e-4

    def test_zero_upstream_gradient(self):
        model = tiny_model(seed=12)
        windows = np.random.default_rng(12).uniform(size=(2, 5, 3))
        q, caches = forward(model, windows)
        grads = backward(model, caches, np.zeros_like(q))
        for g in grads.values():
            assert (g == 0.0).all()

    def test_excluded_quantile_head_column_gets_zero_grad(self):
        model = tiny_model(seed=13)
        windows = np.random.default_rng(13).uniform(size=(2, 5, 3))
        q, caches = forward(model, windows)
        _, dq = quantile_loss_and_grad(q, np.array([3.0, 4.0]))
        dq[:, 1] = 0.0  # exclude the median head from the loss
        grads = backward(model, caches, dq)
        assert (grads["head.W"][:, 1] == 0.0).all()
        assert grads["head.b"][1] == 0.0
        assert (grads["head.W"][:, 0] != 0.0).any()


def assert_close_to_rounding(got, want, name, rtol=1e-12):
    """Largest elementwise difference within ``rtol`` of the array's scale."""
    assert got.shape == want.shape, name
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= rtol * scale, name


PAPER = dict(n_features=17, hidden=(100, 50), dropout_rate=0.2)


def paper_batch(seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(64, 48, 17)), rng.uniform(size=64)


class TestFusedKernel:
    def test_init_draws_bitwise_per_gate_order(self):
        model = init_model(**PAPER, seed=40)
        want = reference_init(17, (100, 50), seed=40)
        got = model.parameters()
        assert sorted(got) == sorted(want)
        for name, arr in want.items():
            assert got[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "dropout"])
    def test_matches_per_gate_reference(self, train_mode):
        model = init_model(**PAPER, seed=41)
        windows, y = paper_batch(41)
        want_q, want_grads = reference_forward_backward(model, windows, y, train_mode, seed=7)
        q, caches = forward(model, windows, train_mode=train_mode, dropout_seed=7)
        _, dq = quantile_loss_and_grad(q, y)
        grads = backward(model, caches, dq)
        assert_close_to_rounding(q, want_q, "q")
        assert sorted(grads) == sorted(want_grads) == sorted(model.parameters())
        for name, g in grads.items():
            assert_close_to_rounding(g, want_grads[name], name)

    @pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "dropout"])
    def test_cache_free_forward_same_q(self, train_mode):
        """The cache-free forward runs T one-step chunks, each projecting its
        step's input on its own; the caching one runs one chunk of all T
        steps and projects them in one GEMM. Both give the same bits, in
        float64 and in float32."""
        windows, _ = paper_batch(42)
        for dtype in (np.float64, np.float32):
            model = init_model(**PAPER, seed=42, dtype=dtype)
            q, caches = forward(model, windows, train_mode=train_mode, dropout_seed=8)
            q_free, none = forward(model, windows, train_mode=train_mode, dropout_seed=8,
                                   keep_caches=False)
            assert caches is not None and none is None
            assert q_free.dtype == q.dtype == dtype
            assert q_free.tobytes() == q.tobytes(), dtype

    def test_cache_free_forward_peak_does_not_grow_with_T(self):
        """An eval forward runs both layers one step at a time and holds only
        the current step of each: at 256 windows its peak at T=96 is its
        peak at T=8. Holding layer 1's (T, H, batch) hidden sequence makes
        it 4.3x."""
        model = init_model(**PAPER, seed=47)
        peaks = {}
        for T in (8, 96):
            windows = np.random.default_rng(47).uniform(size=(256, T, 17))
            tracemalloc.start()
            try:
                forward(model, windows, keep_caches=False)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[96] < 1.05 * peaks[8], peaks

    def test_sigmoid_bitwise_equal_to_masked_form(self):
        x = np.concatenate([
            [-np.inf, -800.0, -40.0, -1e-300, -0.0, 0.0, 1e-300, 40.0, 800.0, np.inf, np.nan],
            np.random.default_rng(43).normal(0.0, 20.0, 10_000),
        ])
        got, want = neural_module._sigmoid(x), reference_sigmoid(x)
        assert np.isnan(got[10]) and np.isnan(want[10])  # a NaN's sign bit carries nothing
        assert np.delete(got, 10).tobytes() == np.delete(want, 10).tobytes()

    def test_gate_parameters_are_views_of_fused_arrays(self):
        model = tiny_model(seed=44)
        n = model.layer1.n_hidden
        before = model.layer1.b.copy()
        model.parameters()["l1.b_f"][...] = 7.0  # Adam updates these in place
        np.testing.assert_array_equal(model.layer1.b[n : 2 * n], 7.0)
        np.testing.assert_array_equal(np.delete(model.layer1.b, np.s_[n : 2 * n]),
                                      np.delete(before, np.s_[n : 2 * n]))
        layers = {"l1": model.layer1, "l2": model.layer2}
        for name, arr in model.parameters().items():
            tag, kind = name.split(".")
            if tag in layers:  # kind is W_i, U_f, b_o, ...
                assert np.shares_memory(arr, getattr(layers[tag], kind[0])), name


def dropped_out(model, windows, caches, seed):
    """Layer 2's input and the head's input that a train-mode forward with
    ``seed`` should hold: relu(h1) and relu(h2) times float masks
    ((u < keep) / keep) cast to the model dtype, drawn as one
    (batch, T, H1) then one (batch, H2) float64 array. relu(h1) is an eval
    forward's layer-2 input, since layer 1 runs alike in either mode; h2 is
    the train-mode forward's own."""
    batch, T, _ = windows.shape
    keep = 1.0 - model.dropout_rate
    rng = np.random.default_rng(seed)
    mask1 = ((rng.random((batch, T, model.layer1.n_hidden)) < keep) / keep).astype(model.dtype)
    mask2 = ((rng.random((batch, model.layer2.n_hidden)) < keep) / keep).astype(model.dtype)
    _, eval_caches = forward(model, windows)
    want_d1 = eval_caches["layer2"]["X"] * mask1.transpose(1, 2, 0)
    want_d2 = np.maximum(caches["layer2"]["h"], 0.0) * mask2.T
    return want_d1, want_d2


class TestFeatureMajorKernel:
    """The kernel keeps the batch as the last axis of every per-step array;
    odd shapes would show swapped axes or an off-by-one recurrent term."""

    @pytest.mark.parametrize("batch, T", [(5, 1), (1, 5), (5, 7)],
                             ids=["T1", "batch1", "batch5"])
    @pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "dropout"])
    def test_edge_shapes_match_per_gate_reference(self, batch, T, train_mode):
        model = init_model(3, hidden=(6, 4), dropout_rate=0.3, seed=52)
        rng = np.random.default_rng(52)
        windows = rng.uniform(-1, 1, size=(batch, T, 3))
        y = rng.uniform(size=batch)
        want_q, want_grads = reference_forward_backward(model, windows, y, train_mode, seed=11)
        q, caches = forward(model, windows, train_mode=train_mode, dropout_seed=11)
        _, dq = quantile_loss_and_grad(q, y)
        grads = backward(model, caches, dq)
        assert_close_to_rounding(q, want_q, "q")
        assert sorted(grads) == sorted(want_grads)
        for name, g in grads.items():
            assert_close_to_rounding(g, want_grads[name], name)
        q_free, _ = forward(model, windows, train_mode=train_mode, dropout_seed=11,
                            keep_caches=False)
        assert q_free.tobytes() == q.tobytes()

    @pytest.mark.parametrize("T", [1, 5, 17])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_carried_steps_bitwise_one_call(self, dtype, T):
        """T one-step calls that carry h and c on one workspace give the
        bits of one call over all T steps: every step's activations and
        relu(h), the h and c after every step, and so the cell states the
        one call checkpoints after every C_EVERY-th step but the last."""
        every = neural_module.C_EVERY
        layer = init_model(3, hidden=(6, 4), seed=55, dtype=dtype).layer1
        X = np.random.default_rng(55).uniform(-1, 1, size=(T, 3, 5)).astype(dtype)
        relu = np.empty((T, 6, 5), dtype)
        whole = neural_module._layer_forward(layer, X, neural_module.BpttWorkspace(), "l1",
                                             relu_out=relu)
        assert whole.keys() == {"X", "act", "ckpt", "h", "c"}
        assert whole["ckpt"].shape == ((T - 1) // every, 6, 5)
        ws = neural_module.BpttWorkspace()
        step_relu = np.empty((1, 6, 5), dtype)
        for t in range(T):
            step = neural_module._layer_forward(layer, X[t : t + 1], ws, "l1", carry=t > 0,
                                                relu_out=step_relu)
            assert step.keys() == whole.keys()
            assert step["act"].shape == (1, *whole["act"].shape[1:])
            assert step["act"].tobytes() == whole["act"][t : t + 1].tobytes(), t
            assert step_relu.tobytes() == relu[t : t + 1].tobytes(), t
            upto = neural_module._layer_forward(layer, X[: t + 1], neural_module.BpttWorkspace(),
                                                "l1")
            for key in ("h", "c"):
                assert step[key].tobytes() == upto[key].tobytes(), (t, key)
            if t % every == every - 1 and t < T - 1:
                assert step["c"].tobytes() == whole["ckpt"][t // every].tobytes(), t
        assert step["h"].tobytes() == whole["h"].tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dropout_products_bitwise_those_of_scaled_float_masks(self, dtype):
        """Bool keep-masks times one rounded 1/keep give the bits of a float
        mask ((u < keep) / keep) cast to the model dtype, from the same
        float64 draws in (batch, T, H) order: in layer 2's input, relu(h1)
        dropped out, and in the head's input, relu(h2) dropped out."""
        model = init_model(3, hidden=(6, 4), dropout_rate=0.3, seed=53, dtype=dtype)
        windows = np.random.default_rng(53).uniform(size=(5, 7, 3))
        _, caches = forward(model, windows, train_mode=True, dropout_seed=12)
        assert caches.keys() == {"layer1", "layer2", "D2", "dropout"}  # no keep-mask is kept
        want_d1, want_d2 = dropped_out(model, windows, caches, seed=12)
        assert caches["layer2"]["X"].dtype == caches["D2"].dtype == dtype
        assert caches["layer2"]["X"].tobytes() == want_d1.tobytes()
        assert caches["D2"].tobytes() == want_d2.tobytes()

    @pytest.mark.parametrize("piece", [9, 90])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dropout_drawn_in_pieces_equals_one_draw(self, monkeypatch, dtype, piece):
        """Drawing the uniforms a few batch rows at a time continues one
        stream. A batch of 5 splits 2 + 2 + 1 for layer 1's rows of 42
        draws at a piece of 90, and for layer 2's rows of 4 at a piece of 9;
        either way, each piece applied as it is drawn, layer 2's input and
        the head's input hold the bits of masks from one (batch, T, H) draw
        followed by one (batch, H2) draw."""
        monkeypatch.setattr(neural_module, "DROPOUT_DRAW_PIECE", piece)
        model = init_model(3, hidden=(6, 4), dropout_rate=0.3, seed=59, dtype=dtype)
        windows = np.random.default_rng(59).uniform(size=(5, 7, 3))
        _, caches = forward(model, windows, train_mode=True, dropout_seed=14)
        want_d1, want_d2 = dropped_out(model, windows, caches, seed=14)
        assert caches["layer2"]["X"].tobytes() == want_d1.tobytes()
        assert caches["D2"].tobytes() == want_d2.tobytes()

    def test_backward_holds_no_per_step_gradient_stack(self):
        """A paper-width float32 backward peaks at 0.28x layer 1's act
        cache: one 8-step segment's cell states and one step's buffers.
        Stacking every step's (H, 4H) recurrent gradient dU before summing
        it peaks at 3.46x with a float64 stack and at 1.86x with a float32
        one; the 1.0x bound fails both."""
        model = init_model(**PAPER, seed=54, dtype=np.float32)
        windows, y = paper_batch(54)
        q, caches = forward(model, windows, train_mode=True, dropout_seed=13)
        _, dq = quantile_loss_and_grad(q, y)
        act_bytes = caches["layer1"]["act"].nbytes
        tracemalloc.start()
        try:
            backward(model, caches, dq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * act_bytes, peak / act_bytes


class TestWorkspace:
    """train runs every batch's forward and backward in one BpttWorkspace."""

    @staticmethod
    def four_batches(seed):
        """Three batches of 64 paper-width windows and a ragged one of 20."""
        rng = np.random.default_rng(seed)
        return make_tensor(rng.uniform(size=(212, 48, 17)), rng.uniform(size=212))

    def test_train_peaks_within_one_batch_working_set(self):
        """One batch's working set is the caches of its forward. train adds
        the workspace's dropout draws, the Adam moments, a best-epoch copy
        and one step's gradients, about a quarter more (1.28x); holding the
        previous batch's caches while the next forward allocates its own
        reads 2.1x. Validated on the same 212 windows, the peak is 2.37x one
        batch's layer-1 act cache (23.3 MB). Caching every step's h and c
        and layer 1's bool keep-mask, with the validation set in one block,
        made it 3.09x (30.3 MB, 1.21x the then larger working set); with
        full-size dropout draws, tanh(C) caches and the validation forward
        in a fresh workspace beside the training one it was 3.90x
        (38.3 MB)."""
        tensors = self.four_batches(56)
        _, caches = forward(init_model(**PAPER, seed=56), tensors.data[:64], train_mode=True,
                            dropout_seed=0)
        working_set = sum(arr.nbytes for tag in ("layer1", "layer2")
                          for arr in caches[tag].values())
        act_bytes = caches["layer1"]["act"].nbytes
        del caches
        model = init_model(**PAPER, seed=56)
        tracemalloc.start()
        try:
            train(model, tensors, tensors, TrainConfig(max_epochs=1, batch_size=64, seed=56))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * working_set, peak / working_set
        assert peak < 2.7 * act_bytes, peak / act_bytes

    def test_training_forward_holds_no_full_size_draws(self):
        """A paper-width training forward peaks at 1.93x layer 1's act cache.
        Caching both layers' H and C sequences and layer 1's bool keep-mask
        made it 2.66x; drawing the dropout uniforms as one float64
        (batch, T, H) array and caching both layers' tanh(C) sequences as
        well, 3.26x."""
        model = init_model(**PAPER, seed=60)
        windows, _ = paper_batch(60)
        _, caches = forward(model, windows, train_mode=True, dropout_seed=0)
        act_bytes = caches["layer1"]["act"].nbytes
        del caches
        tracemalloc.start()
        try:
            forward(model, windows, train_mode=True, dropout_seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.3 * act_bytes, peak / act_bytes

    def test_validation_forward_in_the_training_workspace(self):
        """The validation forward takes its buffers from the training
        workspace, growing those a 64-window batch left too small for 212
        windows: it consumes the caches of the batch before it, and its
        loss is the float a fresh workspace gives."""
        model = init_model(**PAPER, seed=61)
        tensors = self.four_batches(61)
        ws = neural_module.BpttWorkspace()
        q, caches = forward(model, tensors.data[:64], train_mode=True, dropout_seed=4,
                            workspace=ws)
        _, dq = quantile_loss_and_grad(q, tensors.target[:64])
        fresh = neural_module._epoch_loss(model, tensors)
        assert neural_module._epoch_loss(model, tensors, ws) == fresh
        with pytest.raises(NeuralModelError, match="consumed"):
            backward(model, caches, dq)

    def test_batches_share_the_workspace(self, monkeypatch):
        """Every batch's caches, the ragged last one's included, are views of
        the first batch's buffers, each (4H, batch) gate block contiguous;
        each is consumed by its backward. The one-step h and c are views of
        the buffers of the epoch's first batch: the first validation block,
        106 windows wide, outgrows those of a 64-window batch."""
        seen = []

        def spy(*args, **kwargs):
            q, caches = real(*args, **kwargs)
            if caches is not None:
                seen.append(caches)
            return q, caches

        real = neural_module.forward
        monkeypatch.setattr(neural_module, "forward", spy)
        train(init_model(**PAPER, seed=57), self.four_batches(57), self.four_batches(58),
              TrainConfig(max_epochs=2, patience=5, batch_size=64, seed=57))
        assert [c["layer1"]["act"].shape[-1] for c in seen] == [64, 64, 64, 20] * 2
        for n, caches in enumerate(seen):
            assert caches["consumed"]
            for tag in ("layer1", "layer2"):
                assert caches[tag].keys() == {"X", "act", "ckpt", "h", "c"}
                for key, arr in caches[tag].items():
                    first = seen[0] if key in ("X", "act", "ckpt") else seen[n - n % 4]
                    assert arr.flags.c_contiguous, (tag, key)
                    assert np.shares_memory(arr, first[tag][key]), (tag, key)

    def test_consumed_caches_refused(self):
        """backward writes over the caches it reads; running it again on them,
        or on caches whose workspace a later forward took, raises."""
        model = tiny_model(seed=58, dropout=0.2)
        rng = np.random.default_rng(58)
        windows, y = rng.uniform(size=(5, 7, 3)), rng.uniform(size=5)
        ws = neural_module.BpttWorkspace()
        q, caches = forward(model, windows, train_mode=True, dropout_seed=1, workspace=ws)
        _, dq = quantile_loss_and_grad(q, y)
        backward(model, caches, dq)
        with pytest.raises(NeuralModelError, match="consumed"):
            backward(model, caches, dq)
        _, stale = forward(model, windows, train_mode=True, dropout_seed=2, workspace=ws)
        q, caches = forward(model, windows, train_mode=True, dropout_seed=3, workspace=ws)
        with pytest.raises(NeuralModelError, match="consumed"):
            backward(model, stale, dq)
        backward(model, caches, dq)


# ---------------------------------------------------------------------------
# Full-cache reference: the kernel as it was when BPTT kept every step's h
# and c and layer 1's bool keep-mask, written without a workspace. The
# checkpointed kernel must reproduce its bits.
# ---------------------------------------------------------------------------


def full_cache_layer_forward(layer, X):
    T, _, batch = X.shape
    n = layer.n_hidden
    X = np.ascontiguousarray(X)
    acts = np.matmul(layer.W.T, X)
    acts += layer.b[:, None]
    H, C = np.empty((2, T, n, batch), X.dtype)
    tc = np.empty((n, batch), X.dtype)
    for t in range(T):
        act = acts[t]
        if t:
            act += layer.U.T @ H[t - 1]
        neural_module._sigmoid(act[: 3 * n], out=act[: 3 * n])
        np.tanh(act[3 * n :], out=act[3 * n :])
        i, f, o, g = (act[k * n : (k + 1) * n] for k in range(4))
        if t:
            np.multiply(i, g, out=tc)
            np.multiply(f, C[t - 1], out=C[t])
            C[t] += tc
        else:
            np.multiply(i, g, out=C[t])
        np.tanh(C[t], out=tc)
        np.multiply(o, tc, out=H[t])
    return {"X": X, "H": H, "C": C, "act": acts}


def full_cache_forward(model, windows, train_mode=False, dropout_seed=None, keep_caches=True,
                       workspace=None):
    """``forward``'s signature; every forward keeps its caches, which only
    a ``keep_caches`` one returns."""
    windows = windows.astype(model.dtype, copy=False)
    batch, T, _ = windows.shape
    rng = np.random.default_rng(dropout_seed)
    keep = 1.0 - model.dropout_rate
    scale = neural_module._dropout_scale(model)
    masks = None
    if train_mode and model.dropout_rate > 0.0:
        masks = ((rng.random((batch, T, model.layer1.n_hidden)) < keep).transpose(1, 2, 0),
                 (rng.random((batch, model.layer2.n_hidden)) < keep).T)
    cache1 = full_cache_layer_forward(model.layer1, windows.transpose(1, 2, 0))
    D1 = np.maximum(cache1["H"], 0.0)
    if masks is not None:
        D1 *= scale
        D1 *= masks[0]
    cache2 = full_cache_layer_forward(model.layer2, D1)
    D2 = np.maximum(cache2["H"][-1], 0.0)
    if masks is not None:
        D2 *= scale
        D2 *= masks[1]
    q = D2.T @ model.head_W + model.head_b
    return q, {"layer1": cache1, "layer2": cache2, "masks": masks, "D2": D2} if keep_caches else None


def full_cache_layer_backward(layer, cache, dH, input_grad):
    X, H, C, acts = (cache[k] for k in ("X", "H", "C", "act"))
    T, n, batch = H.shape
    dW, dU = np.zeros_like(layer.W), np.zeros_like(layer.U)
    dh_next, dc, dc_next = np.empty((3, n, batch), acts.dtype)
    for t in range(T - 1, -1, -1):
        dz = acts[t]
        tc = np.tanh(C[t])
        i, f, o, g = (dz[k * n : (k + 1) * n].copy() for k in range(4))
        dz_i, dz_f, dz_o, dz_g = (dz[k * n : (k + 1) * n] for k in range(4))
        dh = (dH[t] if dH.ndim == 3 else dH) if t == T - 1 else dh_next
        if t < T - 1 and dH.ndim == 3:
            dh += dH[t]
        np.multiply(tc, tc, out=dc)
        np.subtract(1.0, dc, out=dc)
        dc *= o
        dc *= dh
        if t < T - 1:
            dc += dc_next
        for z, a in ((dz_i, i), (dz_f, f), (dz_o, o)):
            np.subtract(1.0, a, out=z)
            z *= a
        np.multiply(g, g, out=dz_g)
        np.subtract(1.0, dz_g, out=dz_g)
        dz_i *= g
        if t:
            dz_f *= C[t - 1]
        else:
            dz_f[...] = 0.0
        dz_g *= i
        dz_o *= tc
        dz_o *= dh
        dz_i *= dc
        dz_f *= dc
        dz_g *= dc
        np.multiply(dc, f, out=dc_next)
        dW += X[t] @ dz.T
        if t:
            dU += H[t - 1] @ dz.T
            dh_next = layer.U @ dz
    db = acts.sum(axis=0).sum(axis=1)
    return (layer.W @ acts if input_grad else None), dW, dU, db


def full_cache_backward(model, caches, dq):
    D2, masks = caches["D2"], caches["masks"]
    scale = neural_module._dropout_scale(model)
    grads = {"head.W": D2 @ dq, "head.b": dq.sum(axis=0)}
    dh2_last = model.head_W @ dq.T
    if masks is not None:
        dh2_last *= scale
        dh2_last *= masks[1]
    dh2_last *= caches["layer2"]["H"][-1] > 0
    dH1, *fused2 = full_cache_layer_backward(model.layer2, caches["layer2"], dh2_last, True)
    if masks is not None:
        dH1 *= scale
        dH1 *= masks[0]
    dH1 *= caches["layer1"]["H"] > 0
    _, *fused1 = full_cache_layer_backward(model.layer1, caches["layer1"], dH1, False)
    return grads | neural_module._gate_views("l1", *fused1) | neural_module._gate_views("l2", *fused2)


class TestCheckpointedBptt:
    """The kernel keeps one step's h and c and every C_EVERY-th cell state,
    and no keep-mask; q, every gradient and training equal the full-cache
    reference's bit for bit, over T around the checkpoint interval."""

    @pytest.mark.parametrize("T", [1, 7, 8, 9, 17, 48])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_q_and_gradients_bitwise_full_cache_kernel(self, dtype, T):
        for batch in (1, 5, 64):
            for rate in (0.0, 0.2):
                model = init_model(17, (100, 50), dropout_rate=rate, seed=T, dtype=dtype)
                rng = np.random.default_rng(batch)
                windows, y = rng.uniform(size=(batch, T, 17)), rng.uniform(size=batch)
                results = []
                for fwd, bwd in ((forward, backward), (full_cache_forward, full_cache_backward)):
                    q, caches = fwd(model, windows, train_mode=True, dropout_seed=batch + T)
                    _, dq = quantile_loss_and_grad(q, y)
                    results.append((q, bwd(model, caches, dq)))
                (q, grads), (want_q, want_grads) = results
                case = (batch, rate)
                assert q.tobytes() == want_q.tobytes(), case
                assert sorted(grads) == sorted(want_grads), case
                for name, g in grads.items():
                    assert g.dtype == dtype, (case, name)
                    assert g.tobytes() == want_grads[name].tobytes(), (case, name)

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_epoch_train_bitwise_full_cache_kernel(self, monkeypatch, dtype, rate):
        """Batches of 64, 64 and a ragged 22, validated on 389 windows."""
        rng = np.random.default_rng(63)
        tensors = make_tensor(rng.uniform(size=(150, 48, 17)), rng.uniform(size=150))
        val = make_tensor(rng.uniform(size=(389, 48, 17)), rng.uniform(size=389))
        config = TrainConfig(max_epochs=1, batch_size=64, seed=63)
        runs = []
        for kernel in ((forward, backward), (full_cache_forward, full_cache_backward)):
            monkeypatch.setattr(neural_module, "forward", kernel[0])
            monkeypatch.setattr(neural_module, "backward", kernel[1])
            model = init_model(17, (100, 50), dropout_rate=rate, seed=63, dtype=dtype)
            runs.append(train(model, tensors, val, config))
        (model, history), (want_model, want_history) = runs
        assert history == want_history
        for name, arr in want_model.parameters().items():
            assert model.parameters()[name].tobytes() == arr.tobytes(), name


class TestFloat32:
    @pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "dropout"])
    def test_matches_float64_at_paper_width(self, train_mode):
        """A float32 model (the float64 weights rounded) reproduces the float64
        head outputs and every gradient to within 1e-5 of each array's scale."""
        windows, y = paper_batch(48)
        results = {}
        for dtype in (np.float64, np.float32):
            model = init_model(**PAPER, seed=48, dtype=dtype)
            q, caches = forward(model, windows, train_mode=train_mode, dropout_seed=9)
            _, dq = quantile_loss_and_grad(q, y)
            results[dtype] = q, backward(model, caches, dq)
        (q64, grads64), (q32, grads32) = results[np.float64], results[np.float32]
        assert q32.dtype == np.float32
        assert_close_to_rounding(q32.astype(np.float64), q64, "q", rtol=1e-5)
        assert sorted(grads32) == sorted(grads64)
        for name, g in grads32.items():
            assert g.dtype == np.float32, name
            assert_close_to_rounding(g.astype(np.float64), grads64[name], name, rtol=1e-5)

    def test_train_step_stays_float32(self):
        """No cache, gradient, Adam moment or parameter is silently upcast."""
        model = init_model(**PAPER, seed=49, dtype=np.float32)
        windows, y = paper_batch(49)
        q, caches = forward(model, windows, train_mode=True, dropout_seed=10)
        loss, dq = quantile_loss_and_grad(q, y)
        assert isinstance(loss, float) and dq.dtype == np.float32
        grads = backward(model, caches, dq)
        state = adam_step(model.parameters(), grads, AdamState())

        def arrays(obj, path="caches"):
            if isinstance(obj, dict):
                for key, value in obj.items():
                    yield from arrays(value, f"{path}.{key}")
            elif isinstance(obj, np.ndarray):
                yield path, obj

        named = list(arrays(caches))
        assert {"caches.layer1.act", "caches.layer1.ckpt", "caches.layer2.X",
                "caches.layer2.act", "caches.D2"} <= dict(named).keys()
        # backward rebuilds every step's h, c and tanh(c), and gates by the
        # dropped-out relu outputs, so no H, C, tanh(C) or keep-mask is kept
        assert not {"caches.layer1.H", "caches.layer1.C", "caches.layer1.TC",
                    "caches.mask1", "caches.mask2"} & dict(named).keys()
        for kind, group in (("grad", grads), ("m", state.m), ("v", state.v),
                            ("param", model.parameters())):
            assert sorted(group) == sorted(grads), kind
            named += [(f"{kind}.{name}", arr) for name, arr in group.items()]
        for path, arr in named:
            assert arr.dtype == np.float32, path
        for layer in (model.layer1, model.layer2):
            assert layer.W.dtype == layer.U.dtype == layer.b.dtype == np.float32

    def test_train_and_predict_float32(self):
        rng = np.random.default_rng(50)
        tensors = make_tensor(rng.uniform(size=(16, 6, 3)), rng.uniform(size=16))
        tensors = dataclasses.replace(tensors, data=tensors.data.astype(np.float32))
        model = init_model(3, hidden=(5, 4), seed=50, dtype=np.float32)
        model, history = train(model, tensors, tensors,
                               TrainConfig(max_epochs=2, batch_size=8, seed=50))
        assert model.dtype == np.float32
        assert all(isinstance(v, float) for v in history.train_loss + history.val_loss)
        scaler = ScalerParams(np.array([0.0]), np.array([1000.0]), ("Aggregate",))
        for kwargs in ({}, {"scaler": scaler}):
            q = predict_quantiles(model, tensors, **kwargs)
            assert q.shape == (16, 3) and q.dtype == np.float64, kwargs

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(NeuralModelError, match="dtype"):
            init_model(3, hidden=(4, 3), dtype=np.float16)


class TestHyperparameterRanges:
    @pytest.mark.parametrize("field, value", [
        ("max_epochs", 0), ("patience", 0), ("batch_size", 0), ("batch_size", -64),
        ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", float("nan")),
    ])
    def test_train_config_rejects(self, field, value):
        with pytest.raises(NeuralModelError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("kwargs", [
        {"dropout_rate": 1.0}, {"dropout_rate": 1.5}, {"dropout_rate": -0.1},
        {"hidden": (0, 3)}, {"hidden": (4, 0)}, {"hidden": (4,)},
    ], ids=["dropout1", "dropout1.5", "dropout-0.1", "hidden0_3", "hidden4_0", "hidden4"])
    def test_init_model_rejects(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(NeuralModelError, match=name):
            init_model(3, **kwargs)

    def test_smallest_legal_values_train(self):
        rng = np.random.default_rng(55)
        tensors = make_tensor(rng.uniform(size=(4, 3, 3)), rng.uniform(size=4))
        model = init_model(3, hidden=(1, 1), dropout_rate=0.0, seed=55)
        _, history = train(model, tensors, tensors,
                           TrainConfig(max_epochs=1, patience=1, batch_size=1))
        assert len(history.train_loss) == 1


class TestAdam:
    def test_first_step_magnitude(self):
        theta = np.zeros(5)
        params = {"w": theta}
        state = AdamState(learning_rate=0.001)
        adam_step(params, {"w": np.ones(5)}, state)
        np.testing.assert_allclose(theta, -0.001, rtol=1e-6)

    def test_zero_gradient_leaves_parameters(self):
        theta = np.full(4, 2.5)
        state = AdamState(learning_rate=0.1)
        adam_step({"w": theta}, {"w": np.zeros(4)}, state)
        np.testing.assert_array_equal(theta, np.full(4, 2.5))

    def test_gradient_scale_invariance_at_t1(self):
        g = np.array([0.3, -2.0, 5.0])
        a = np.zeros(3)
        b = np.zeros(3)
        adam_step({"w": a}, {"w": g}, AdamState(learning_rate=0.01))
        adam_step({"w": b}, {"w": 10.0 * g}, AdamState(learning_rate=0.01))
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_state_accumulates(self):
        state = AdamState()
        params = {"w": np.zeros(2)}
        for _ in range(3):
            adam_step(params, {"w": np.ones(2)}, state)
        assert state.step == 3


class TestTrain:
    def test_constant_target_collapses_all_quantiles(self):
        rng = np.random.default_rng(20)
        data = np.broadcast_to(rng.uniform(size=(1, 4, 3)), (64, 4, 3)).copy()
        targets = np.full(64, 0.7)
        tensors = make_tensor(data, targets)
        model = init_model(3, hidden=(6, 4), dropout_rate=0.0, seed=20)
        model, _ = train(
            model, tensors, tensors,
            TrainConfig(max_epochs=40, patience=40, batch_size=16, learning_rate=0.02, seed=20),
        )
        q, _ = forward(model, data[:1])
        np.testing.assert_allclose(q[0], [0.7, 0.7, 0.7], atol=0.05)

    def test_early_stop_contract(self, monkeypatch):
        fake_losses = iter([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        monkeypatch.setattr(neural_module, "_epoch_loss", lambda m, t, ws: next(fake_losses))
        rng = np.random.default_rng(21)
        tensors = make_tensor(rng.uniform(size=(8, 4, 3)), rng.uniform(size=8))
        model = tiny_model(seed=21)
        _, history = train(
            model, tensors, tensors,
            TrainConfig(max_epochs=50, patience=3, batch_size=8, seed=21),
        )
        assert history.best_epoch == 1
        assert len(history.val_loss) == 1 + 3  # stopped after patience epochs

    def test_divergence_aborts(self):
        rng = np.random.default_rng(22)
        tensors = make_tensor(rng.uniform(size=(8, 4, 3)), np.full(8, np.nan))
        model = tiny_model(seed=22)
        with pytest.raises(TrainingDiverged):
            train(model, tensors, tensors, TrainConfig(max_epochs=2, batch_size=8))

    def test_full_batch_loss_non_increasing_first_epochs(self):
        rng = np.random.default_rng(23)
        data = rng.uniform(size=(32, 4, 3))
        targets = 0.4 * data[:, -1, 0] + 0.3
        tensors = make_tensor(data, targets)
        model = init_model(3, hidden=(6, 4), dropout_rate=0.0, seed=23)
        _, history = train(
            model, tensors, tensors,
            TrainConfig(max_epochs=5, patience=10, batch_size=32, learning_rate=1e-3, seed=23),
        )
        assert (np.diff(history.train_loss) <= 1e-12).all()

    def test_restores_best_epoch_parameters(self):
        rng = np.random.default_rng(24)
        tensors = make_tensor(rng.uniform(size=(16, 4, 3)), rng.uniform(size=16))
        model = tiny_model(seed=24)
        model, history = train(
            model, tensors, tensors,
            TrainConfig(max_epochs=6, patience=10, batch_size=8, seed=24),
        )
        val = neural_module._epoch_loss(model, tensors)
        assert val == pytest.approx(history.val_loss[history.best_epoch - 1], rel=1e-12)


class TestPredictQuantiles:
    def test_sorting_and_identity_scaler(self):
        model = zeroed_model()
        model.head_b[...] = np.array([0.3, 0.2, 0.9])  # deliberately crossed
        tensors = make_tensor(np.zeros((2, 5, 3)), np.zeros(2))
        q = predict_quantiles(model, tensors)
        assert q.tolist() == [[0.2, 0.3, 0.9], [0.2, 0.3, 0.9]]

    def test_inverse_scaling_to_watts(self):
        model = zeroed_model()
        model.head_b[...] = np.array([0.2, 0.5, 0.8])
        tensors = make_tensor(np.zeros((1, 5, 3)), np.zeros(1))
        # the target is channel 0; the other channel's range must not leak in
        scaler = ScalerParams(np.array([0.0, 5.0]), np.array([1000.0, 7.0]), ("Aggregate", "x"))
        q = predict_quantiles(model, tensors, scaler=scaler)
        assert q.tolist() == [[200.0, 500.0, 800.0]]


class TestBlockedEval:
    """Validation and prediction run the cache-free forward over blocks of
    at most EVAL_BLOCK windows, of near-equal size."""

    @pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 389])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_equal_one_whole_batch_forward(self, dtype, n):
        """In float32, the pipeline's dtype, q holds the bits of one
        forward over all n windows. In float64, OpenBLAS's dgemm (0.3.31 on
        an AVX-512 Xeon) rounds the trailing n % 8 columns of a product
        about 200 columns wide or wider otherwise than a narrower product
        does, so at n = 389 a block's q matches the whole batch's to
        rounding only. 0 windows give a (0, 3) float64 array and a NaN
        loss, as one forward does."""
        model = init_model(**PAPER, seed=64, dtype=dtype)
        rng = np.random.default_rng(64)
        tensors = make_tensor(rng.uniform(size=(n, 48, 17)), rng.uniform(size=n))
        whole, _ = forward(model, tensors.data, keep_caches=False)
        with np.errstate(invalid="ignore"):  # the mean loss of no window is 0/0
            want_loss, _ = quantile_loss_and_grad(whole, tensors.target)
            loss = neural_module._epoch_loss(model, tensors)
        q = predict_quantiles(model, tensors)
        want_q = np.sort(whole.astype(np.float64), axis=1)
        assert q.shape == (n, 3) and q.dtype == np.float64
        if dtype == np.float32:
            assert q.tobytes() == want_q.tobytes()
            assert loss == want_loss or (np.isnan(loss) and np.isnan(want_loss))
        else:
            np.testing.assert_allclose(q, want_q, rtol=1e-12, atol=0.0)
            assert loss == pytest.approx(want_loss, rel=1e-12, nan_ok=True)

    def test_blocks_of_near_equal_size_through_the_module_forward(self, monkeypatch):
        """Blocks go through the module's ``forward``, which the benchmark's
        tracer wraps: 389 windows as 97, 97, 97 and 98, 129 as 64 and 65,
        never one window alone; validation reuses one workspace."""
        sizes, spaces = [], []
        real = neural_module.forward

        def spy(model, windows, **kwargs):
            sizes.append(len(windows))
            spaces.append(kwargs["workspace"])
            return real(model, windows, **kwargs)

        monkeypatch.setattr(neural_module, "forward", spy)
        model = tiny_model(seed=65)
        rng = np.random.default_rng(65)
        for n, want in ((389, [97, 97, 97, 98]), (129, [64, 65]), (128, [128]), (0, [0])):
            sizes.clear()
            spaces.clear()
            tensors = make_tensor(rng.uniform(size=(n, 5, 3)), rng.uniform(size=n))
            predict_quantiles(model, tensors)
            assert sizes == want, n
            assert all(ws is spaces[0] for ws in spaces), n
        ws = neural_module.BpttWorkspace()
        spaces.clear()
        neural_module._epoch_loss(model, make_tensor(rng.uniform(size=(300, 5, 3)),
                                                     rng.uniform(size=300)), ws)
        assert spaces == [ws] * 3


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = tiny_model(seed=30, dropout=0.2)
        scaler = ScalerParams(np.array([1.0, 2.0]), np.array([10.0, 20.0]), ("a", "b"))
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(model, prefix, scaler=scaler)
        clone, loaded_scaler = load_checkpoint(prefix)
        for name, arr in model.parameters().items():
            np.testing.assert_array_equal(clone.parameters()[name], arr)
        assert loaded_scaler.channel_names == ("a", "b")
        windows = np.random.default_rng(30).uniform(size=(2, 5, 3))
        np.testing.assert_array_equal(forward(clone, windows)[0], forward(model, windows)[0])

    def test_layout_bytes_pinned(self, tmp_path):
        """The fused storage writes the per-gate checkpoint of earlier releases
        byte for byte; the header differs from theirs only by its dtype key,
        so without that key, dumped again as save_checkpoint dumps it, it
        has their digest."""
        save_checkpoint(init_model(17, (100, 50), seed=5), str(tmp_path / "lstm"))
        header = json.loads((tmp_path / "lstm.json").read_text())
        assert header.pop("dtype") == "float64"
        digests = {
            "bin": hashlib.sha256((tmp_path / "lstm.bin").read_bytes()).hexdigest(),
            "json": hashlib.sha256(
                json.dumps(header, sort_keys=True, indent=1).encode()).hexdigest(),
        }
        assert digests == {
            "bin": "ff67631ce0b568abbc36f9bfe7389fb9002ec3a4b528d547c43773658bf7694b",
            "json": "d92744c0a496b89d3e90a6468ae292758e3117fc66701749c9f3914e77132714",
        }

    def test_float32_round_trip(self, tmp_path):
        model = init_model(17, (100, 50), seed=34, dtype=np.float32)
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(model, prefix)
        assert json.loads((tmp_path / "ckpt.json").read_text())["dtype"] == "float32"
        assert (tmp_path / "ckpt.bin").stat().st_size == 8 * sum(
            a.size for a in model.parameters().values())  # the body stays <f8
        clone, _ = load_checkpoint(prefix)
        assert clone.dtype == np.float32
        for name, arr in model.parameters().items():
            assert clone.parameters()[name].dtype == np.float32, name
            assert clone.parameters()[name].tobytes() == arr.tobytes(), name
        windows = np.random.default_rng(34).uniform(size=(4, 48, 17))
        np.testing.assert_array_equal(forward(clone, windows)[0], forward(model, windows)[0])

    def test_header_without_dtype_loads_float64(self, tmp_path):
        prefix = str(tmp_path / "ckpt")
        model = tiny_model(seed=35)
        save_checkpoint(model, prefix)
        header_path = tmp_path / "ckpt.json"
        header = json.loads(header_path.read_text())
        del header["dtype"]
        header_path.write_text(json.dumps(header))
        clone, _ = load_checkpoint(prefix)
        assert clone.dtype == np.float64
        for name, arr in model.parameters().items():
            assert clone.parameters()[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("key, value", [("quantiles", [0.1, 0.5, 0.9]),
                                            ("output_activation", "linear")])
    def test_other_head_rejected(self, tmp_path, key, value):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(tiny_model(seed=31), prefix)
        header_path = tmp_path / "ckpt.json"
        header = json.loads(header_path.read_text())
        header_path.write_text(json.dumps(dict(header, **{key: value})))
        with pytest.raises(NeuralModelError, match="checkpoint head"):
            load_checkpoint(prefix)

    @pytest.mark.parametrize("change, want", [
        (lambda body: body[:8], r"ckpt\.bin: expected 236 float64 parameters \(1888 bytes\), "
                                r"found 8 bytes"),
        (lambda body: body + bytes(8), r"ckpt\.bin: expected 236 float64 parameters "
                                       r"\(1888 bytes\), found 1896 bytes"),
    ], ids=["truncated", "oversized"])
    def test_body_of_wrong_size_rejected(self, tmp_path, change, want):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(tiny_model(seed=36), prefix)
        body = tmp_path / "ckpt.bin"
        body.write_bytes(change(body.read_bytes()))
        with pytest.raises(NeuralModelError, match=want):
            load_checkpoint(prefix)

    def test_param_order_naming_other_parameters_rejected(self, tmp_path):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(tiny_model(seed=37), prefix)
        header_path = tmp_path / "ckpt.json"
        header = json.loads(header_path.read_text())
        header["param_order"][0]["name"] = "head.bias"
        header_path.write_text(json.dumps(header))
        with pytest.raises(NeuralModelError, match=r"ckpt\.json: param_order .*'head\.bias'"):
            load_checkpoint(prefix)

    def test_failed_write_keeps_previous_pair(self, tmp_path, monkeypatch):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(tiny_model(seed=32), prefix)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def torn_dump(obj, fh, **kwargs):
            text = json.dumps(obj, **kwargs)
            fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tiny_model(seed=33), prefix)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        clone, _ = load_checkpoint(prefix)
        for name, arr in tiny_model(seed=32).parameters().items():
            np.testing.assert_array_equal(clone.parameters()[name], arr)


class TestHistoryCsv:
    def test_failed_write_keeps_previous_file(self, tmp_path, tear_csv_writes):
        path = tmp_path / "lstm_history.csv"
        history_to_csv(TrainHistory((0.5, 0.4), (0.6, 0.5), 2), path)
        before = path.read_bytes()
        tear_csv_writes(2)
        with pytest.raises(OSError, match="disk full"):
            history_to_csv(TrainHistory((0.3, 0.2, 0.1), (0.4, 0.3, 0.2), 3), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["lstm_history.csv"]


class TestPinballViaLoss:
    def test_loss_and_grad_shapes(self):
        q = np.array([[1.0, 2.0, 3.0]])
        loss, dq = quantile_loss_and_grad(q, np.array([2.0]))
        per = (
            pinball_loss(2.0, 1.0, 0.05) + pinball_loss(2.0, 2.0, 0.5) + pinball_loss(2.0, 3.0, 0.95)
        ) / 3
        assert loss == pytest.approx(per)
        assert dq.shape == (1, 3)
