import hashlib
import json
import re
import tracemalloc
from datetime import datetime, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from loadcast import boosted, pipeline
from loadcast.boosted import (
    _MIN_GAIN,
    BoostingError,
    GbdtParams,
    PinballLoss,
    RegressionTree,
    SquaredLoss,
    TreeWorkspace,
    fit_tree,
    gbdt_fit,
    gbdt_predict,
    gbdt_predict_quantiles,
    load_gbdt,
    load_gbdt_quantiles,
    save_gbdt,
    save_gbdt_quantiles,
)
from loadcast.config import config_from_dict
from loadcast.features import FeatureMatrix
from loadcast.series import read_blob, write_header_blob

# the blob's node arrays, in order, each of every tree end to end
NODE_ARRAYS = (("feature", "<i4"), ("left", "<i4"), ("right", "<i4"), ("threshold", "<f8"),
               ("value", "<f8"))


def n_leaves(tree: RegressionTree) -> int:
    """Leaves of a flat tree: the nodes that split on no feature."""
    return int(np.count_nonzero(tree.feature < 0))


def brute_force_best_gain(X, grad, min_samples_leaf=1):
    """Independent oracle: enumerate every (feature, midpoint) split, with
    the unit hessian summed explicitly."""
    hess = np.ones_like(grad)
    G, H = grad.sum(), hess.sum()
    parent = G * G / H
    best = 0.0
    for f in range(X.shape[1]):
        for thr in np.unique(X[:, f]):
            left = X[:, f] <= thr
            if left.all() or not left.any():
                continue
            if left.sum() < min_samples_leaf or (~left).sum() < min_samples_leaf:
                continue
            gl, hl = grad[left].sum(), hess[left].sum()
            gr, hr = G - gl, H - hl
            best = max(best, gl * gl / hl + gr * gr / hr - parent)
    return best


def tie_heavy_dataset(n=480, seed=21):
    """Calendar-like integer columns (2 to 24 distinct values) beside two
    continuous ones, so most split candidates sit inside runs of ties."""
    rng = np.random.default_rng(seed)
    hour = rng.integers(0, 24, n)
    dayofweek = rng.integers(0, 7, n)
    month = rng.integers(1, 13, n)
    weekend = (dayofweek >= 5).astype(int)
    load = rng.gamma(2.0, 300.0, n)
    lag = load + rng.normal(0.0, 50.0, n)
    X = np.column_stack([hour, dayofweek, month, weekend, load, lag]).astype(float)
    y = 400 * np.sin(2 * np.pi * hour / 24) + 150 * weekend + 0.5 * lag + rng.normal(0, 80, n)
    return X, y


def reference_tree(X, grad, max_depth, min_samples_leaf):
    """Tree growth with a stable argsort of every feature at every node, one
    feature at a time, and the unit hessian summed explicitly: the search
    that presorted blocks must reproduce exactly."""
    hess = np.ones_like(grad)

    def best_split(rows):
        g, h = grad[rows], hess[rows]
        G, H = g.sum(), h.sum()
        parent = G * G / H
        best = None
        for f in range(X.shape[1]):
            x = X[rows, f]
            order = np.argsort(x, kind="stable")
            xs = x[order]
            gl = np.cumsum(g[order])[:-1]
            hl = np.cumsum(h[order])[:-1]
            k = np.arange(1, len(xs))
            ok = (xs[:-1] != xs[1:]) & (k >= min_samples_leaf) & (len(xs) - k >= min_samples_leaf)
            if not ok.any():
                continue
            gain = gl**2 / hl + (G - gl) ** 2 / (H - hl) - parent
            gain[~ok] = -np.inf
            j = int(np.argmax(gain))
            if gain[j] > _MIN_GAIN * max(1.0, abs(parent)) and (best is None or gain[j] > best[0]):
                best = (float(gain[j]), f, float((xs[j] + xs[j + 1]) / 2))
        return best

    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        for arr, v in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (value, 0.0)):
            arr.append(v)
        return len(feature) - 1

    level = [(new_node(), np.arange(len(X)))]
    for depth in range(max_depth + 1):
        next_level = []
        for node, rows in level:
            split = None
            if depth < max_depth and len(rows) >= 2 * min_samples_leaf:
                split = best_split(rows)
            if split is None:
                value[node] = -grad[rows].sum() / hess[rows].sum()
                continue
            _, feature[node], threshold[node] = split
            mask = X[rows, feature[node]] <= threshold[node]
            left[node], right[node] = new_node(), new_node()
            next_level += [(left[node], rows[mask]), (right[node], rows[~mask])]
        level = next_level
    return (np.asarray(feature, dtype=np.int32), np.asarray(threshold, dtype=float),
            np.asarray(left, dtype=np.int32), np.asarray(right, dtype=np.int32),
            np.asarray(value, dtype=float))


def round_trip(model, tmp_path):
    save_gbdt(tmp_path / "gbdt", model)
    return load_gbdt(tmp_path / "gbdt")


def read_pair(prefix):
    """The header of a ``save_gbdt`` pair and its node arrays by name, read
    as the format is documented, not through ``load_gbdt``."""
    head = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
    n = sum(head["trees"])
    arrays = read_blob(prefix, [(dtype, (n,)) for _, dtype in NODE_ARRAYS], f"{n} nodes")
    return head, {name: arr.copy() for (name, _), arr in zip(NODE_ARRAYS, arrays)}


def tree_bytes(tree):
    return (tree.feature.tobytes(), tree.threshold.tobytes(), tree.left.tobytes(),
            tree.right.tobytes(), tree.value.tobytes())


class TestLossGradients:
    def test_squared(self):
        g = SquaredLoss().gradients(np.array([3.0]), np.array([5.0]))
        assert g[0] == 2.0

    def test_pinball_under_prediction(self):
        g = PinballLoss(0.9).gradients(np.array([10.0]), np.array([8.0]))
        assert g[0] == pytest.approx(-0.9)

    def test_pinball_median_is_half_sign(self):
        y = np.array([1.0, 5.0, 5.0])
        pred = np.array([3.0, 3.0, 5.0])
        g = PinballLoss(0.5).gradients(y, pred)
        expected = 0.5 * np.where(pred >= y, 1.0, -1.0)
        np.testing.assert_allclose(g, expected)


class TestFitTree:
    def test_root_splits_on_separating_feature(self):
        X = np.array([[1.0, 9.0], [2.0, 7.0], [8.0, 9.0], [9.0, 7.0]])
        grad = np.array([-1.0, -1.0, 1.0, 1.0])  # perfectly separated by x0 < 5
        tree = fit_tree(X, grad, max_depth=1)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 5.0  # midpoint of 2 and 8
        # hand-computed gain: GL=-2, GR=2 -> 4/2 + 4/2 - 0 = 4
        oracle = brute_force_best_gain(X, grad)
        assert oracle == pytest.approx(4.0)

    def test_constant_gradient_single_leaf(self):
        X = np.random.default_rng(0).uniform(size=(50, 3))
        grad = np.full(50, 0.7)
        tree = fit_tree(X, grad, max_depth=4)
        assert n_leaves(tree) == 1
        assert tree.value[0] == pytest.approx(-0.7)

    def test_xor_gradients_have_no_axis_split(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        grad = np.array([1.0, -1.0, -1.0, 1.0])
        assert brute_force_best_gain(X, grad) == pytest.approx(0.0)
        tree = fit_tree(X, grad, max_depth=1)
        assert n_leaves(tree) == 1

    def test_chosen_split_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            X = rng.uniform(size=(40, 4))
            grad = rng.standard_normal(40)
            hess = np.ones(40)
            tree = fit_tree(X, grad, max_depth=1, min_samples_leaf=2)
            oracle = brute_force_best_gain(X, grad, min_samples_leaf=2)
            if n_leaves(tree) == 1:
                assert oracle <= 1e-9
                continue
            f, thr = tree.feature[0], tree.threshold[0]
            left = X[:, f] <= thr
            gl, gr = grad[left].sum(), grad[~left].sum()
            hl, hr = hess[left].sum(), hess[~left].sum()
            gain = gl**2 / hl + gr**2 / hr - grad.sum() ** 2 / hess.sum()
            assert gain == pytest.approx(oracle, rel=1e-9)

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(200, 2))
        grad = rng.standard_normal(200)
        tree = fit_tree(X, grad, max_depth=3)
        assert n_leaves(tree) <= 8

    def test_min_rows_precondition(self):
        with pytest.raises(BoostingError):
            fit_tree(np.ones((3, 1)), np.ones(3), max_depth=1, min_samples_leaf=2)

    def test_out_receives_each_rows_leaf_value(self):
        X, y = tie_heavy_dataset()
        grad = SquaredLoss().gradients(y, np.full(len(y), y.mean()))
        out = np.full(len(y), np.nan)
        tree = fit_tree(X, grad, max_depth=4, out=out)
        assert out.tobytes() == tree.predict(X).tobytes()


class TestPresortedGrowth:
    @pytest.mark.parametrize("min_samples_leaf", [1, 5])
    @pytest.mark.parametrize("loss", [SquaredLoss(), PinballLoss(0.05), PinballLoss(0.5)],
                             ids=["squared", "pinball05", "pinball50"])
    def test_matches_per_node_argsort(self, loss, min_samples_leaf):
        X, y = tie_heavy_dataset()
        rng = np.random.default_rng(min_samples_leaf)
        for pred in (np.full(len(y), loss.base_score(y)), y + rng.normal(0.0, 200.0, len(y))):
            grad = loss.gradients(y, pred)
            tree = fit_tree(X, grad, max_depth=6, min_samples_leaf=min_samples_leaf)
            got = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
            want = reference_tree(X, grad, 6, min_samples_leaf)
            assert n_leaves(tree) > 8
            for name, a, b in zip(("feature", "threshold", "left", "right", "value"), got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_given_order_is_presort(self):
        X, y = tie_heavy_dataset()
        workspace = boosted.TreeWorkspace(X)
        order = workspace.order
        assert order.dtype == np.int64 and order.shape == (X.shape[1], len(X))
        np.testing.assert_array_equal(order, boosted.presort(X))
        grad = SquaredLoss().gradients(y, np.zeros(len(y)))
        a = fit_tree(X, grad, max_depth=5, workspace=workspace)
        b = fit_tree(X, grad, max_depth=5)
        assert tree_bytes(a) == tree_bytes(b)
        np.testing.assert_array_equal(order, boosted.presort(X))  # not mutated

    def test_one_workspace_grows_every_tree_alike(self):
        """Trees grown back to back through one workspace, deep after
        shallow and back, match a fresh workspace and the reference grower."""
        X, y = tie_heavy_dataset()
        workspace = TreeWorkspace(X)
        assert not workspace.order.flags.writeable
        rng = np.random.default_rng(11)
        noisy = y + rng.normal(0.0, 200.0, len(y))
        for loss in (SquaredLoss(), PinballLoss(0.05)):
            for pred in (np.full(len(y), loss.base_score(y)), noisy):
                grad = loss.gradients(y, pred)
                for max_depth, min_samples_leaf in ((6, 1), (3, 5), (6, 5), (3, 1)):
                    shared = fit_tree(X, grad, max_depth, min_samples_leaf, workspace=workspace)
                    fresh = fit_tree(X, grad, max_depth, min_samples_leaf)
                    want = reference_tree(X, grad, max_depth, min_samples_leaf)
                    assert tree_bytes(shared) == tree_bytes(fresh)
                    assert tree_bytes(shared) == tuple(a.tobytes() for a in want)
        np.testing.assert_array_equal(workspace.order, boosted.presort(X))

    def test_workspace_shape_checked(self):
        X, y = tie_heavy_dataset()
        with pytest.raises(BoostingError, match="workspace"):
            fit_tree(X[:-1], y[:-1], workspace=TreeWorkspace(X))

    def test_tree_growth_allocates_little_beyond_the_workspace(self):
        """One tree through a given workspace peaks below 1.8x the bytes of
        X (1.5x measured); a grower that allocates each node's column blocks
        peaks at 2.2-2.4x here."""
        X, y = tie_heavy_dataset(n=6000)
        workspace = TreeWorkspace(X)
        for loss in (SquaredLoss(), PinballLoss(0.05)):
            grad = loss.gradients(y, np.full(len(y), loss.base_score(y)))
            tracemalloc.start()
            try:
                tree = fit_tree(X, grad, max_depth=6, workspace=workspace)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert n_leaves(tree) > 16
            assert peak < 1.8 * X.nbytes, peak / X.nbytes


def leaf_sizes(tree, X):
    """Rows reaching each leaf."""
    node = np.zeros(len(X), dtype=np.int32)
    for _ in range(len(tree.feature)):  # more steps than any path is long
        inner = tree.feature[node] >= 0
        f = tree.feature[node[inner]]
        go_left = X[np.flatnonzero(inner), f] <= tree.threshold[node[inner]]
        node[inner] = np.where(go_left, tree.left[node[inner]], tree.right[node[inner]])
    return np.bincount(node, minlength=len(tree.feature))[tree.feature < 0]


class TestWholeNodeSearch:
    """Edge cases of scoring every feature of a node in one array."""

    def test_identical_columns_split_on_the_lower_index(self):
        X, y = tie_heavy_dataset()
        X = np.column_stack([X[:, :4], X[:, 5], X[:, 5]])  # columns 4 and 5 equal
        grad = SquaredLoss().gradients(y, np.full(len(y), y.mean()))
        tree = fit_tree(X, grad, max_depth=6)
        assert 4 in tree.feature and 5 not in tree.feature
        assert tree_bytes(tree) == tuple(a.tobytes() for a in reference_tree(X, grad, 6, 1))

    def test_constant_column_never_chosen(self):
        X, y = tie_heavy_dataset()
        X = np.column_stack([np.full(len(y), 3.0), X])
        grad = PinballLoss(0.05).gradients(y, np.full(len(y), y.mean()))
        tree = fit_tree(X, grad, max_depth=6)
        assert n_leaves(tree) > 8 and 0 not in tree.feature

    def test_node_without_candidates_is_a_leaf(self):
        # the root splits on column 0; each child holds identical rows, so
        # no feature has a boundary left although depth allows more
        X = np.array([[0.0, 5.0], [0.0, 5.0], [0.0, 5.0], [1.0, 7.0], [1.0, 7.0]])
        grad = np.array([-1.0, -2.0, -3.0, 4.0, 8.0])
        tree = fit_tree(X, grad, max_depth=4)
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.threshold[0] == 0.5
        assert tree.value[1:].tolist() == [2.0, -6.0]

    @pytest.mark.parametrize("min_samples_leaf", [0, 1])
    def test_last_position_is_never_a_boundary(self, min_samples_leaf):
        # the prefix sum over all rows (1.0) differs from the node sum (0.0),
        # so the position after the last row scores a gain of 1.0625
        X = np.ones((16, 1))
        grad = np.array([1e16, 1.0, -1e16, 1.0] * 4)
        tree = fit_tree(X, grad, max_depth=3, min_samples_leaf=min_samples_leaf)
        assert n_leaves(tree) == 1 and tree.value[0] == -grad.sum() / 16
        want = reference_tree(X, grad, 3, min_samples_leaf)
        assert tree_bytes(tree) == tuple(a.tobytes() for a in want)

    @pytest.mark.parametrize("loss", [SquaredLoss(), PinballLoss(0.05)],
                             ids=["squared", "pinball05"])
    def test_min_samples_leaf_zero_grows_single_row_nodes(self, loss):
        X, y = tie_heavy_dataset(n=60)
        grad = loss.gradients(y, y + np.random.default_rng(3).normal(0.0, 200.0, len(y)))
        tree = fit_tree(X, grad, max_depth=10, min_samples_leaf=0)
        assert (leaf_sizes(tree, X) == 1).any()  # single-row nodes were reached
        assert tree_bytes(tree) == tuple(a.tobytes() for a in reference_tree(X, grad, 10, 0))

    def test_min_samples_leaf_zero_model_pinned(self, tmp_path):
        # sha256 of the save_gbdt pair, whose node arrays are bit for bit those
        # of the per-node JSON pinned with the per-feature search: 57 leaves
        # per tree on 60 rows, most of them single rows
        X, y = tie_heavy_dataset(n=80)
        model = gbdt_fit(X[:60], y[:60], X[60:], y[60:],
                         params=GbdtParams(n_estimators=6, max_depth=10, min_samples_leaf=0,
                                           early_stopping_rounds=6))
        assert [n_leaves(t) for t in model.trees] == [57] * 6
        assert save_gbdt(tmp_path / "gbdt", model) == {
            "gbdt.json": "53dc5a42c666a06ca54906a52c8ccc0e1a258da28e3a3fac965c018be22de9a2",
            "gbdt.bin": "27fd57ca6b1a67cd56869379f148e077d2de780a353484e6c377e95ecb9735b5"}


def deterministic_dataset(n=512, seed=0):
    rng = np.random.default_rng(seed)
    x = np.tile(np.linspace(0.0, 1.0, 64), n // 64)
    rng.shuffle(x)
    X = x[:, None]
    y = np.sin(3.0 * x) + x  # deterministic function of the single feature
    return X, y


class TestGbdtParams:
    @pytest.mark.parametrize("field, value", [
        ("n_estimators", -5), ("max_depth", 0), ("max_depth", -1),
        ("min_samples_leaf", -2), ("early_stopping_rounds", 0),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(BoostingError, match=field):
            GbdtParams(**{field: value})

    def test_zero_trees_and_single_row_leaves_legal(self):
        params = GbdtParams(n_estimators=0, min_samples_leaf=0, max_depth=1,
                            early_stopping_rounds=1)
        assert (params.n_estimators, params.min_samples_leaf) == (0, 0)


class TestGbdtFit:
    def test_interpolates_deterministic_function(self):
        X, y = deterministic_dataset()
        model = gbdt_fit(
            X[:400], y[:400], X[400:], y[400:],
            params=GbdtParams(n_estimators=200, early_stopping_rounds=200, max_depth=6),
        )
        assert min(model.val_history) < 1e-3

    def test_pure_noise_stops_early(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(300, 3))
        y = rng.standard_normal(300)
        Xv = rng.uniform(size=(150, 3))
        yv = rng.standard_normal(150)
        model = gbdt_fit(X, y, Xv, yv, params=GbdtParams(n_estimators=500, max_depth=3))
        assert model.best_iteration < 50
        train_rmse = SquaredLoss().metric(y, gbdt_predict(model, X))
        val_rmse = SquaredLoss().metric(yv, gbdt_predict(model, Xv))
        # trees memorise train noise but cannot explain validation noise
        assert val_rmse / np.std(yv) >= train_rmse / np.std(y)

    def test_quantile_converges_to_empirical_quantile(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(4000)
        X = np.ones((4000, 1))  # constant features: no split possible
        model = gbdt_fit(
            X[:3000], y[:3000], X[3000:], y[3000:],
            params=GbdtParams(n_estimators=300, early_stopping_rounds=20),
            loss=PinballLoss(0.95),
        )
        pred = gbdt_predict(model, X[:1])[0]
        oracle = np.quantile(y[:3000], 0.95)  # brute-force empirical quantile
        assert pred == pytest.approx(oracle, abs=0.05)
        assert pred == pytest.approx(1.645, abs=0.08)

    def test_best_iteration_is_argmin(self):
        X, y = deterministic_dataset(seed=5)
        rng = np.random.default_rng(5)
        yn = y + 0.3 * rng.standard_normal(len(y))
        model = gbdt_fit(
            X[:400], yn[:400], X[400:], yn[400:],
            params=GbdtParams(n_estimators=120, max_depth=2, early_stopping_rounds=15),
        )
        assert model.best_iteration == int(np.argmin(model.val_history))

    def test_training_loss_weakly_decreases_squared(self):
        X, y = deterministic_dataset(seed=6)
        model = gbdt_fit(
            X, y, X, y, params=GbdtParams(n_estimators=40, early_stopping_rounds=40, max_depth=3)
        )
        # validation == training here, so the history is the training RMSE
        diffs = np.diff(model.val_history)
        assert (diffs <= 1e-12).all()

    def test_empty_inputs(self):
        with pytest.raises(BoostingError):
            gbdt_fit(np.empty((0, 1)), np.empty(0), np.ones((1, 1)), np.ones(1))

    def test_one_fit_tree_call_per_round(self, monkeypatch):
        # the benchmark counts trees by wrapping the module attribute fit_tree
        calls = []
        real = boosted.fit_tree

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(boosted, "fit_tree", counting)
        X, y = tie_heavy_dataset()
        model = gbdt_fit(X[:400], y[:400], X[400:], y[400:],
                         params=GbdtParams(n_estimators=7, max_depth=3, early_stopping_rounds=50))
        assert len(model.trees) == 7
        assert calls == [400] * 7

    # sha256 of the save_gbdt pair, whose node arrays are bit for bit those of
    # the per-node JSON pinned with a per-node argsort before column blocks
    # were presorted: any change to a split or a training prediction shows
    @pytest.mark.parametrize("loss, head, blob", [
        (SquaredLoss(), "1493101ab9f842288bb24e1f9634d7b7b9b50495e23156ef239d2e3cbe6d0672",
         "68a4132118c2947b29aaad647acc184cabd2771ab7d2c5ef3e94e17a0163f700"),
        (PinballLoss(0.05), "e60b366891b7d1b01cc0224bc82e0e8ebdb47c0f7f94ac94b2334a4d8fc05609",
         "48b3b04fc7a47cefd3c5f356a5ca200983fd1506de23dab32559b686369e6bd2"),
    ], ids=["squared", "pinball05"])
    def test_golden_model_json(self, loss, head, blob, tmp_path):
        X, y = tie_heavy_dataset()
        model = gbdt_fit(X[:400], y[:400], X[400:], y[400:], loss=loss,
                         params=GbdtParams(n_estimators=12, max_depth=4, early_stopping_rounds=12))
        assert len(model.trees) == 12
        assert save_gbdt(tmp_path / "gbdt", model) == {"gbdt.json": head, "gbdt.bin": blob}


class TestPredict:
    def test_zero_trees_predicts_base(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.ones((4, 1))
        model = gbdt_fit(X, y, X, y, params=GbdtParams(n_estimators=0))
        np.testing.assert_array_equal(gbdt_predict(model, X), np.full(4, 2.5))

    def test_single_tree_linear_composition(self):
        # one tree, all rows land in a single leaf of value -2
        y = np.full(8, 2.0)
        base_plus = np.full(8, 4.0)  # gradient = pred - y = 2 everywhere -> leaf -2
        X = np.ones((8, 1))
        model = gbdt_fit(X, base_plus, X, base_plus, params=GbdtParams(n_estimators=1))
        del y
        pred = gbdt_predict(model, X)
        assert model.base_score == 4.0
        np.testing.assert_allclose(pred, 4.0 + 0.05 * model.trees[0].value[0])

    def test_feature_order_mismatch(self):
        X = np.random.default_rng(0).uniform(size=(30, 2))
        y = X[:, 0]
        model = gbdt_fit(X, y, X, y, params=GbdtParams(n_estimators=5),
                         feature_order=("a", "b"))
        matrix = FeatureMatrix(np.arange(3), np.ones((3, 2)), ("b", "a"), np.ones(3))
        with pytest.raises(BoostingError, match="feature order"):
            gbdt_predict(model, matrix)

    def test_quantile_prediction_monotone(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(500, 2))
        y = X[:, 0] * 10 + rng.standard_normal(500)
        models = {}
        for tau in (0.05, 0.5, 0.95):
            models[tau] = gbdt_fit(
                X[:400], y[:400], X[400:], y[400:],
                params=GbdtParams(n_estimators=50, max_depth=3),
                loss=PinballLoss(tau),
            )
        q = gbdt_predict_quantiles(models, X[400:])
        assert q.shape == (100, 3) and q.dtype == np.float64
        assert (q[:, 0] <= q[:, 1]).all()
        assert (q[:, 1] <= q[:, 2]).all()

    def test_quantile_set_validated(self):
        with pytest.raises(BoostingError, match="quantile"):
            gbdt_predict_quantiles({0.1: None, 0.5: None, 0.9: None}, np.ones((1, 1)))


class TestSerialization:
    def test_round_trip_identical_json(self, tmp_path):
        """Saving a loaded model writes the same header and blob bytes."""
        X, y = deterministic_dataset(seed=8)
        model = gbdt_fit(
            X[:400], y[:400], X[400:], y[400:],
            params=GbdtParams(n_estimators=20, early_stopping_rounds=20, max_depth=3),
        )
        digests = save_gbdt(tmp_path / "gbdt", model)
        clone = load_gbdt(tmp_path / "gbdt")
        assert save_gbdt(tmp_path / "again", clone) == {
            name.replace("gbdt", "again"): digest for name, digest in digests.items()}
        assert gbdt_predict(clone, X).tobytes() == gbdt_predict(model, X).tobytes()

    def test_pair_layout(self, tmp_path):
        """The header holds everything but the node arrays, and each tree's
        node count; the blob holds the arrays of every tree end to end."""
        X, y = tie_heavy_dataset()
        model = gbdt_fit(X[:400], y[:400], X[400:], y[400:], loss=PinballLoss(0.95),
                         params=GbdtParams(n_estimators=5, max_depth=3))
        save_gbdt(tmp_path / "gbdt", model)
        head, arrays = read_pair(tmp_path / "gbdt")
        assert head == {
            "params": {"n_estimators": 5, "learning_rate": 0.05, "max_depth": 3,
                       "min_samples_leaf": 1, "early_stopping_rounds": 10},
            "loss": {"name": "pinball", "tau": 0.95}, "base_score": model.base_score,
            "best_iteration": model.best_iteration, "feature_order": list(model.feature_order),
            "val_history": list(model.val_history),
            "trees": [len(t.feature) for t in model.trees]}
        for name, arr in arrays.items():
            assert arr.tobytes() == b"".join(getattr(t, name).tobytes() for t in model.trees)
        clone = load_gbdt(tmp_path / "gbdt")
        assert all(tree_bytes(a) == tree_bytes(b)
                   for a, b in zip(clone.trees, model.trees, strict=True))

    def test_pinball_loss_survives_round_trip(self, tmp_path):
        X = np.ones((40, 1))
        y = np.arange(40.0)
        model = gbdt_fit(X, y, X, y, params=GbdtParams(n_estimators=3),
                         loss=PinballLoss(0.95))
        clone = round_trip(model, tmp_path)
        assert isinstance(clone.loss, PinballLoss)
        assert clone.loss.tau == 0.95
        assert read_pair(tmp_path / "gbdt")[0]["loss"] == {"name": "pinball", "tau": 0.95}

    def test_zero_trees_round_trip(self, tmp_path):
        X, y = np.ones((4, 1)), np.arange(4.0)
        model = gbdt_fit(X, y, X, y, params=GbdtParams(n_estimators=0))
        clone = round_trip(model, tmp_path)
        assert clone.trees == () and clone.val_history == model.val_history
        assert (tmp_path / "gbdt.bin").read_bytes() == b""
        assert gbdt_predict(clone, X).tolist() == [1.5] * 4

    def test_quantile_pair_round_trip(self, tmp_path):
        X, y = tie_heavy_dataset()
        models = {tau: gbdt_fit(X[:400], y[:400], X[400:], y[400:], loss=PinballLoss(tau),
                                params=GbdtParams(n_estimators=4, max_depth=3))
                  for tau in (0.05, 0.5, 0.95)}
        save_gbdt_quantiles(tmp_path / "q", models)
        heads = json.loads((tmp_path / "q.json").read_text())
        assert list(heads) == ["0.05", "0.5", "0.95"]
        sizes = [sum(heads[key]["trees"]) for key in heads]
        blob = (tmp_path / "q.bin").read_bytes()
        assert len(blob) == 28 * sum(sizes)
        # the 0.05 model's arrays come first, then the 0.5 model's
        assert blob[:4 * sizes[0]] == b"".join(t.feature.tobytes() for t in models[0.05].trees)
        clones = load_gbdt_quantiles(tmp_path / "q")
        assert list(clones) == [0.05, 0.5, 0.95]
        assert (gbdt_predict_quantiles(clones, X).tobytes()
                == gbdt_predict_quantiles(models, X).tobytes())

    def test_quantile_artifact_bytes_pinned(self, tmp_path):
        """The ``gbdt_quantile`` pair of a 3-tau fit; its node arrays are bit
        for bit those of the per-node JSON artifact pinned when it was still
        built by a JSON text round trip per tau."""
        X, y = tie_heavy_dataset()
        start = datetime(2014, 1, 1)
        stamps = tuple(start + timedelta(hours=i) for i in range(len(y)))
        order = ("hour", "dayofweek", "month", "weekend", "load", "lag")

        def part(lo, hi):
            return FeatureMatrix(stamps[lo:hi], X[lo:hi], order, y[lo:hi])

        parts = part(0, 320), part(320, 400), part(400, len(y))
        cfg = config_from_dict({
            "input_path": "meter.csv", "output_dir": "out",
            "model_params": {"gbdt_quantile": {"n_estimators": 8, "max_depth": 3,
                                               "early_stopping_rounds": 8}},
        })
        data = SimpleNamespace(cfg=cfg, tabular=parts)  # the split PreparedData gives
        names = ["gbdt_quantile.json", "gbdt_quantile.bin"]
        assert pipeline._fit_gbdt_quantile(data, tmp_path) == names
        assert [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names] == [
            "ba41cfec91f8d4a33c166a4df26da8dd0ad8e5552c75c75c38a77dc32f22fc2a",
            "3cfe56c23a487e121ed0e835ce7afb671fd96ed904d3908ec1a36e8173eb161e"]
        forecast = pipeline._predict_gbdt_quantile(data, tmp_path)
        models = {tau: gbdt_fit(parts[0].features, parts[0].target, parts[1].features,
                                parts[1].target, loss=PinballLoss(tau),
                                params=GbdtParams(**cfg.params_for("gbdt_quantile")),
                                feature_order=order)
                  for tau in (0.05, 0.5, 0.95)}
        want = gbdt_predict_quantiles(models, parts[2])
        assert forecast.tobytes() == want.tobytes()


def masked_walk(tree, X):
    """Reference prediction: the masked walk ``RegressionTree.predict`` ran
    before the fixed-depth one, which steers only the rows not yet at a
    leaf, one level at a time."""
    node = np.zeros(len(X), dtype=np.int32)
    active = tree.feature[node] >= 0
    while active.any():
        idx = np.flatnonzero(active)
        feats = tree.feature[node[idx]]
        thresh = tree.threshold[node[idx]]
        go_left = X[idx, feats] <= thresh
        node[idx] = np.where(go_left, tree.left[node[idx]], tree.right[node[idx]])
        active = tree.feature[node] >= 0
    return tree.value[node]


def masked_gbdt_predict(model, X):
    out = np.full(len(X), model.base_score)
    for tree in model.trees[: model.best_iteration]:
        out += model.params.learning_rate * masked_walk(tree, X)
    return out


def tree_depth(tree):
    """Longest root-to-leaf path, by recursion."""
    def below(i):
        return 0 if tree.feature[i] < 0 else 1 + max(below(tree.left[i]), below(tree.right[i]))
    return below(0)


def probe_rows(tree, X, seed=0):
    """Rows of ``X``, then copies set exactly at each split's threshold and
    copies with a NaN in each split's feature."""
    rng = np.random.default_rng(seed)
    rows = [X]
    for f, thr in zip(tree.feature, tree.threshold):
        if f >= 0:
            for cell in (thr, np.nan):
                extra = X[rng.integers(0, len(X), 8)].copy()
                extra[:, f] = cell
                rows.append(extra)
    return np.vstack(rows)


def fitted_trees(max_depth, n_trees=4, loss=SquaredLoss()):
    """Trees of ``max_depth`` grown on successive residuals."""
    X, y = tie_heavy_dataset()
    pred = np.full(len(y), loss.base_score(y))
    trees = []
    for _ in range(n_trees):
        leaf = np.empty(len(y))
        trees.append(fit_tree(X, loss.gradients(y, pred), max_depth, out=leaf))
        pred += 0.3 * leaf
    return X, trees


class TestFixedDepthWalk:
    """``RegressionTree.predict`` and ``gbdt_predict`` walk every row a
    fixed number of steps; they must equal the masked walk bit for bit."""

    @pytest.mark.parametrize("max_depth", [1, 2, 3, 4, 5, 6])
    def test_trees_match_masked_walk(self, max_depth):
        X, trees = fitted_trees(max_depth, loss=PinballLoss(0.05))
        for tree in trees:
            assert tree_depth(tree) == boosted._Walk((tree,)).depth <= max_depth
            Q = probe_rows(tree, X)
            assert tree.predict(Q).tobytes() == masked_walk(tree, Q).tobytes()

    def test_single_leaf_tree(self):
        X = np.random.default_rng(0).uniform(size=(50, 3))
        tree = fit_tree(X, np.full(50, 0.7), max_depth=4)
        assert n_leaves(tree) == 1 and boosted._Walk((tree,)).depth == 0
        Q = np.vstack([X, np.full((1, 3), np.nan)])
        assert tree.predict(Q).tobytes() == masked_walk(tree, Q).tobytes()
        assert (tree.predict(Q) == tree.value[0]).all()

    def test_tie_goes_left_and_nan_goes_right(self):
        X = np.array([[1.0], [2.0], [8.0], [9.0]])
        tree = fit_tree(X, np.array([-1.0, -1.0, 1.0, 1.0]), max_depth=1)
        assert tree.threshold[0] == 5.0
        left, right = tree.value[tree.left[0]], tree.value[tree.right[0]]
        got = tree.predict(np.array([[5.0], [np.nan], [np.nextafter(5.0, 9.0)]]))
        assert got.tolist() == [left, right, right]

    def test_empty_rows(self):
        X, trees = fitted_trees(3)
        assert trees[0].predict(np.empty((0, X.shape[1]))).shape == (0,)
        model = gbdt_fit(X[:400], X[:400, 5], X[400:], X[400:, 5],
                         params=GbdtParams(n_estimators=3, max_depth=3))
        assert gbdt_predict(model, np.empty((0, X.shape[1]))).shape == (0,)

    @pytest.mark.parametrize("block", [1, 7, 100, boosted._BLOCK_SLOTS])
    def test_model_matches_masked_walk_across_row_blocks(self, block, monkeypatch):
        monkeypatch.setattr(boosted, "_BLOCK_SLOTS", block)
        X, y = tie_heavy_dataset()
        for loss in (SquaredLoss(), PinballLoss(0.95)):
            model = gbdt_fit(X[:400], y[:400], X[400:], y[400:], loss=loss,
                             params=GbdtParams(n_estimators=12, max_depth=5,
                                               early_stopping_rounds=12))
            Q = np.vstack([probe_rows(t, X, seed=i) for i, t in enumerate(model.trees[:3])])
            assert gbdt_predict(model, Q).tobytes() == masked_gbdt_predict(model, Q).tobytes()

    def test_round_trip_trees_match_masked_walk(self, tmp_path):
        X, y = tie_heavy_dataset()
        model = gbdt_fit(X[:400], y[:400], X[400:], y[400:], loss=PinballLoss(0.5),
                         params=GbdtParams(n_estimators=10, max_depth=6,
                                           early_stopping_rounds=10))
        clone = round_trip(model, tmp_path)
        Q = probe_rows(clone.trees[-1], X)
        for tree in clone.trees:
            assert tree.predict(Q).tobytes() == masked_walk(tree, Q).tobytes()
        assert gbdt_predict(clone, Q).tobytes() == masked_gbdt_predict(model, Q).tobytes()

    def test_cyclic_tree_raises_instead_of_hanging(self):
        tree = RegressionTree(np.array([0, -1], dtype=np.int32), np.zeros(2),
                              np.array([0, -1], dtype=np.int32),
                              np.array([1, -1], dtype=np.int32), np.zeros(2))
        with pytest.raises(BoostingError, match="cycle"):
            tree.predict(np.zeros((3, 1)))


class TestColumnCount:
    @pytest.fixture(scope="class")
    def model(self):
        X = np.random.default_rng(0).uniform(size=(60, 3))
        return gbdt_fit(X, X @ [1.0, 2.0, 3.0], X, X @ [1.0, 2.0, 3.0],
                        params=GbdtParams(n_estimators=5, max_depth=3))

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (4,)])
    def test_wrong_column_count_rejected(self, model, shape):
        with pytest.raises(BoostingError, match="3 features"):
            gbdt_predict(model, np.ones(shape))

    def test_tree_rejects_rows_narrower_than_its_features(self, model):
        tree = next(t for t in model.trees if t.feature.max() == 2)
        with pytest.raises(BoostingError, match="3 features"):
            tree.predict(np.ones((4, 2)))


class TestMalformedDoc:
    """``load_gbdt`` rejects a header ``gbdt_fit`` could not have written
    and a tree ``fit_tree`` could not have grown, naming the file: the
    fixed-depth walk would return wrong numbers on such a tree, the masked
    walk looped forever on a child that points back, and a bad header
    predicted with the wrong trees or failed with a bare KeyError."""

    @pytest.fixture(scope="class")
    def model(self):
        X, y = tie_heavy_dataset()
        model = gbdt_fit(X[:400], y[:400], X[400:], y[400:],
                         params=GbdtParams(n_estimators=3, max_depth=3,
                                           early_stopping_rounds=3))
        assert all(t.feature[0] >= 0 and t.feature[-1] == -1 for t in model.trees)
        return model

    @pytest.fixture
    def pair(self, model, tmp_path):
        """The model's header and node arrays as the format documents them."""
        save_gbdt(tmp_path / "gbdt", model)
        return read_pair(tmp_path / "gbdt")

    @staticmethod
    def tree(head, arrays, i=1):
        """Views of tree ``i``'s node arrays, by name."""
        lo = sum(head["trees"][:i])
        return {name: arr[lo : lo + head["trees"][i]] for name, arr in arrays.items()}

    def load_with(self, pair, tmp_path, edit=None, edit_header=None):
        head, arrays = json.loads(json.dumps(pair[0])), {k: v.copy() for k, v in pair[1].items()}
        if edit is not None:
            edit(self.tree(head, arrays))
        if edit_header is not None:
            edit_header(head)
        write_header_blob(tmp_path / "gbdt", head, *arrays.values())
        return load_gbdt(tmp_path / "gbdt")

    def raises(self, tmp_path, what, suffix=".json"):
        return pytest.raises(
            BoostingError, match=re.escape(str(tmp_path / f"gbdt{suffix}")) + ": " + what)

    def test_well_formed_doc_loads(self, pair, tmp_path):
        assert len(self.load_with(pair, tmp_path).trees) == 3

    def test_unequal_node_arrays(self, pair, tmp_path):
        """One node array shorter than the header's node counts: the blob
        has 8 bytes too few."""
        head, arrays = pair
        n = sum(head["trees"])
        arrays = dict(arrays, threshold=np.delete(arrays["threshold"], head["trees"][0]))
        with self.raises(tmp_path, rf"expected the node arrays of {n} nodes \({28 * n} bytes\), "
                         rf"found {28 * n - 8} bytes", ".bin"):
            self.load_with((head, arrays), tmp_path)

    def test_truncated_blob(self, model, tmp_path):
        save_gbdt(tmp_path / "gbdt", model)
        blob = tmp_path / "gbdt.bin"
        blob.write_bytes(blob.read_bytes()[:-1])
        with self.raises(tmp_path, "expected .*, found .* bytes", ".bin"):
            load_gbdt(tmp_path / "gbdt")

    @pytest.mark.parametrize("key, child", [("left", 0), ("right", 0), ("left", -1),
                                            ("right", 10_000)])
    def test_child_not_after_node_or_out_of_range(self, pair, tmp_path, key, child):
        def edit(t):
            t[key][0] = child
        with self.raises(tmp_path, "tree 1, node 0:"):
            self.load_with(pair, tmp_path, edit)

    @pytest.mark.parametrize("key", ["left", "right"])
    def test_child_before_node_without_a_cycle(self, pair, tmp_path, key):
        # the last internal node points at the internal node before it, whose
        # children lie after both: no cycle, and max_depth leaves room
        k = int(np.flatnonzero(self.tree(*pair)["feature"] >= 0).max())

        def edit(t):
            t[key][k] = k - 1

        def deeper(head):
            head["params"]["max_depth"] = 10
        assert self.tree(*pair)["feature"][k - 1] >= 0
        with self.raises(tmp_path, f"tree 1, node {k}:"):
            self.load_with(pair, tmp_path, edit, deeper)

    def test_leaf_with_children(self, pair, tmp_path):
        def edit(t):
            leaf = int(np.flatnonzero(t["feature"] == -1)[0])
            t["left"][leaf] = len(t["feature"]) - 1
        with self.raises(tmp_path, "tree 1, node .*children"):
            self.load_with(pair, tmp_path, edit)

    @pytest.mark.parametrize("node, feature", [(0, 7), (-1, -2)], ids=["inner", "leaf"])
    def test_feature_out_of_range(self, pair, tmp_path, node, feature):
        n = pair[0]["trees"][1]

        def edit(t):
            t["feature"][node] = feature
        assert len(pair[0]["feature_order"]) == 6
        with self.raises(tmp_path, rf"tree 1, node {node % n}: feature {feature}, .*\[0, 6\)"):
            self.load_with(pair, tmp_path, edit)

    @pytest.mark.parametrize("name", ["threshold", "value"])
    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_or_value(self, pair, tmp_path, name, cell):
        node = 0 if name == "threshold" else -1  # the root splits, the last node is a leaf

        def edit(t):
            t[name][node] = cell
        with self.raises(tmp_path, f"tree 1, node {node % pair[0]['trees'][1]}: .*finite"):
            self.load_with(pair, tmp_path, edit)

    def test_path_longer_than_max_depth(self, pair, tmp_path):
        # every tree shares the model's max_depth: tree 0 is the first with
        # an internal node at depth 2
        def shallower(head):
            head["params"]["max_depth"] = 2
        t = self.tree(*pair, i=0)
        level = [0]
        for _ in range(2):
            level = [child for i in level if t["feature"][i] >= 0
                     for child in (t["left"][i], t["right"][i])]
        k = min(i for i in level if t["feature"][i] >= 0)
        with self.raises(tmp_path, f"tree 0, node {k}: internal at depth 2, max_depth 2"):
            self.load_with(pair, tmp_path, edit_header=shallower)

    @pytest.mark.parametrize("best", [-1, 4, 10**6, 2.0, "2"])
    def test_best_iteration_out_of_range(self, pair, tmp_path, best):
        with self.raises(tmp_path, re.escape(f"best_iteration {best!r} outside [0, 3]")):
            self.load_with(pair, tmp_path, edit_header=lambda h: h.update(best_iteration=best))

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_val_history_not_one_per_round(self, pair, tmp_path, length):
        def edit_header(head):
            head["val_history"] = head["val_history"][:1] * length
        with self.raises(tmp_path, f"{length} val_history entries for 3 trees, need 4"):
            self.load_with(pair, tmp_path, edit_header=edit_header)

    @pytest.mark.parametrize("loss", [{"name": "huber"}, {"name": "pinball"},
                                      {"name": "pinball", "tau": 1.5},
                                      {"name": "squared", "tau": 0.5}, "squared"])
    def test_unknown_loss(self, pair, tmp_path, loss):
        with self.raises(tmp_path, "unknown loss"):
            self.load_with(pair, tmp_path, edit_header=lambda h: h.update(loss=loss))

    def test_tree_without_nodes(self, pair, tmp_path):
        def edit_header(head):
            head["trees"] = [head["trees"][0] + head["trees"][1], 0, head["trees"][2]]
        with self.raises(tmp_path, "a tree of 0 nodes"):
            self.load_with(pair, tmp_path, edit_header=edit_header)

    @pytest.mark.parametrize("change", ["drop max_depth", "add depth"])
    def test_params_not_those_of_gbdt_params(self, pair, tmp_path, change):
        def edit_header(head):
            if change == "drop max_depth":
                del head["params"]["max_depth"]
            else:
                head["params"]["depth"] = 3
        with self.raises(tmp_path, "params {.*need the fields of GbdtParams"):
            self.load_with(pair, tmp_path, edit_header=edit_header)

    def test_header_from_before_the_blob(self, pair, tmp_path):
        """A ``gbdt.json`` of per-node lists, as models were written before
        the node blob, asks for `train` and reads no blob."""
        head, arrays = json.loads(json.dumps(pair[0])), pair[1]
        trees = [self.tree(head, arrays, i) for i in range(3)]
        head["trees"] = [{name: t[name].tolist() for name in t} | {"max_depth": 3} for t in trees]
        (tmp_path / "gbdt.json").write_text(json.dumps(head, sort_keys=True, indent=1))
        (tmp_path / "gbdt.bin").unlink()
        with self.raises(tmp_path, "not a GBDT header .*; run `train`$"):
            load_gbdt(tmp_path / "gbdt")

    @pytest.mark.parametrize("change", ["drop trees", "add tree_count"])
    def test_header_without_the_format_keys(self, pair, tmp_path, change):
        def edit_header(head):
            if change == "drop trees":
                del head["trees"]
            else:
                head["tree_count"] = 3
        with self.raises(tmp_path, "not a GBDT header .*; run `train`$"):
            self.load_with(pair, tmp_path, edit_header=edit_header)


class TestMalformedQuantilePair:
    @pytest.fixture(scope="class")
    def models(self):
        X, y = tie_heavy_dataset()
        return {tau: gbdt_fit(X[:400], y[:400], X[400:], y[400:], loss=PinballLoss(tau),
                              params=GbdtParams(n_estimators=2, max_depth=3))
                for tau in (0.05, 0.5, 0.95)}

    def test_edited_model_header_names_its_quantile(self, models, tmp_path):
        save_gbdt_quantiles(tmp_path / "q", models)
        heads = json.loads((tmp_path / "q.json").read_text())
        heads["0.5"]["best_iteration"] = -1
        (tmp_path / "q.json").write_text(json.dumps(heads))
        with pytest.raises(BoostingError, match=re.escape(f"{tmp_path / 'q.json'}: tau 0.5: "
                                                          "best_iteration -1 outside")):
            load_gbdt_quantiles(tmp_path / "q")

    @pytest.mark.parametrize("keys", [["0.05", "0.5"], ["0.05", "0.5", "0.95", "0.99"],
                                      ["0.05", "0.50", "0.95"]])
    def test_keys_other_than_the_quantile_levels(self, models, tmp_path, keys):
        save_gbdt_quantiles(tmp_path / "q", models)
        heads = json.loads((tmp_path / "q.json").read_text())
        head = heads["0.5"]
        (tmp_path / "q.json").write_text(json.dumps({key: head for key in keys}))
        with pytest.raises(BoostingError, match=re.escape(str(tmp_path / "q.json"))
                           + ": need one model per quantile.*; run `train`$"):
            load_gbdt_quantiles(tmp_path / "q")

    def test_truncated_blob(self, models, tmp_path):
        save_gbdt_quantiles(tmp_path / "q", models)
        blob = tmp_path / "q.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(BoostingError, match=re.escape(str(blob)) + ": expected"):
            load_gbdt_quantiles(tmp_path / "q")
