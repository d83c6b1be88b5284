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

    @pytest.mark.parametrize("T", [1, 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_carried_steps_bitwise_one_call(self, dtype, T):
        """T one-step calls that carry h and c on one workspace give the
        bits of one call over all T steps, for every step's cache."""
        layer = init_model(3, hidden=(6, 4), seed=55, dtype=dtype).layer1
        X = np.random.default_rng(55).uniform(-1, 1, size=(T, 3, 5)).astype(dtype)
        whole = neural_module._layer_forward(layer, X, neural_module.BpttWorkspace(), "l1")
        ws = neural_module.BpttWorkspace()
        for t in range(T):
            step = neural_module._layer_forward(layer, X[t : t + 1], ws, "l1", carry=t > 0)
            assert step.keys() == whole.keys() == {"X", "H", "C", "act"}
            for key in ("H", "C", "act"):
                assert step[key].shape == (1, *whole[key].shape[1:]), key
                assert step[key].tobytes() == whole[key][t : t + 1].tobytes(), (t, key)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dropout_products_bitwise_those_of_scaled_float_masks(self, dtype):
        """Bool keep-masks times one rounded 1/keep give the bits of a float
        mask ((u < keep) / keep) cast to the model dtype, from the same
        float64 draws in (batch, T, H) order."""
        model = init_model(3, hidden=(6, 4), dropout_rate=0.3, seed=53, dtype=dtype)
        windows = np.random.default_rng(53).uniform(size=(5, 7, 3))
        _, caches = forward(model, windows, train_mode=True, dropout_seed=12)
        keep = 1.0 - model.dropout_rate
        rng = np.random.default_rng(12)
        mask1 = ((rng.random((5, 7, 6)) < keep) / keep).astype(dtype)
        mask2 = ((rng.random((5, 4)) < keep) / keep).astype(dtype)
        assert caches["mask1"].dtype == caches["mask2"].dtype == np.bool_
        assert caches["mask1"].shape == (7, 6, 5) and caches["mask2"].shape == (4, 5)
        relu1 = np.maximum(caches["layer1"]["H"], 0.0).transpose(2, 0, 1)
        want_d1 = (relu1 * mask1).transpose(1, 2, 0)
        want_d2 = np.maximum(caches["h2_last"], 0.0) * mask2.T
        assert caches["layer2"]["X"].dtype == caches["D2"].dtype == dtype
        assert caches["layer2"]["X"].tobytes() == np.ascontiguousarray(want_d1).tobytes()
        assert caches["D2"].tobytes() == want_d2.tobytes()

    @pytest.mark.parametrize("piece", [9, 90])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dropout_drawn_in_pieces_equals_one_draw(self, monkeypatch, dtype, piece):
        """Drawing the uniforms a few batch rows at a time continues one
        stream. A batch of 5 splits 2 + 2 + 1 for layer 1's rows of 42
        draws at a piece of 90, and for layer 2's rows of 4 at a piece of 9;
        either way both keep-masks hold the bits of one (batch, T, H) draw
        followed by one (batch, H2) draw."""
        monkeypatch.setattr(neural_module, "DROPOUT_DRAW_PIECE", piece)
        model = init_model(3, hidden=(6, 4), dropout_rate=0.3, seed=59, dtype=dtype)
        windows = np.random.default_rng(59).uniform(size=(5, 7, 3))
        _, caches = forward(model, windows, train_mode=True, dropout_seed=14)
        keep = 1.0 - model.dropout_rate
        rng = np.random.default_rng(14)
        want1 = rng.random((5, 7, 6)) < keep
        want2 = rng.random((5, 4)) < keep
        for got, want in ((caches["mask1"], want1.transpose(1, 2, 0)), (caches["mask2"], want2.T)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_backward_holds_no_per_step_gradient_stack(self):
        """A paper-width backward peaks at 1.37x layer 1's act cache, a
        batch-major one at 1.92x; stacking a (T, H, 4H) recurrent gradient
        before summing it peaks at 2.93x, so the bound sits between."""
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
        assert peak < 2.4 * act_bytes, peak / act_bytes


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
        and one step's gradients, about a fifth more (1.21x); holding the
        previous batch's caches while the next forward allocates its own
        reads 2.1x. Validated on the same 212 windows, the peak is 3.09x one
        batch's layer-1 act cache (30.3 MB); with full-size dropout draws,
        tanh(C) caches and the validation forward in a fresh workspace
        beside the training one it was 3.90x (38.3 MB, 1.33x the then
        larger working set)."""
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
        assert peak < 3.5 * act_bytes, peak / act_bytes

    def test_training_forward_holds_no_full_size_draws(self):
        """A paper-width training forward peaks at 2.66x layer 1's act cache.
        Drawing the dropout uniforms as one float64 (batch, T, H) array and
        caching both layers' tanh(C) sequences made it 3.26x."""
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
        assert peak < 3.0 * act_bytes, peak / act_bytes

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
        each is consumed by its backward."""
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
        first = seen[0]
        for caches in seen:
            assert caches["consumed"]
            for tag in ("layer1", "layer2"):
                for key, arr in caches[tag].items():
                    assert arr.flags.c_contiguous, (tag, key)
                    assert np.shares_memory(arr, first[tag][key]), (tag, key)
            for key in ("mask1", "mask2"):
                assert np.shares_memory(caches[key], first[key]), key

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
        assert {"caches.mask1", "caches.layer1.H", "caches.layer1.C",
                "caches.layer2.act"} <= dict(named).keys()
        assert "caches.layer1.TC" not in dict(named)  # backward recomputes tanh(C)
        for kind, group in (("grad", grads), ("m", state.m), ("v", state.v),
                            ("param", model.parameters())):
            assert sorted(group) == sorted(grads), kind
            named += [(f"{kind}.{name}", arr) for name, arr in group.items()]
        for path, arr in named:
            # the dropout masks are bool keep-masks; every number is float32
            want = np.bool_ if path in ("caches.mask1", "caches.mask2") else np.float32
            assert arr.dtype == want, path
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
