"""Gradient-boosted regression trees with Newton leaves.

One engine covers both point forecasting (squared loss) and quantile
forecasting (pinball loss). Squared loss has a hessian of 1; the pinball
hessian is 0 almost everywhere, so the pinball fit uses a unit-hessian
surrogate in its place (ROADMAP item 8 replaces its leaves with a
tau-quantile refit). Either way a node's hessian sum is its row count m:
split gain is G_L^2/k + G_R^2/(m-k) - G^2/m for k rows on the left, and
each leaf takes the value -G/m. These are bitwise the numbers a summed
unit hessian gives, since sums of 1.0 are exact integers.

Trees grow level-wise with exact greedy split search (Chen & Guestrin 2016,
§4.1). ``gbdt_fit`` builds one ``TreeWorkspace`` per fit: it sorts each
feature column once (``presort``), holds ``X.T`` contiguous, and holds the
buffers every node's search and partition write into, so growing a tree
allocates little beyond the tree itself. Every node carries its rows in
each feature's sorted order, handed down by stable partition when the node
splits; no node sorts again. Ties keep ascending row order throughout,
which is exactly the order a stable sort of the node's own values gives, so
split choices match a per-node sort bit for bit.

A node's search scores every (feature, boundary) pair at once in one
(n_features, m) array. Everything is deterministic: ties break on the
lowest feature index, then the lowest threshold.

Prediction walks all of a model's trees at once, a block of rows at a
time, in exactly ``depth`` gather-compare-select steps with no branch on
the data (Asadi, Lin & de Vries 2014): each leaf is its own child, so a
row that reaches a leaf stays there.

A saved model is a ``series.write_header_blob`` pair: a ``.json`` header
of all but the nodes, with each tree's node count, and a ``.bin`` blob of
the int32 feature, left and right and float64 threshold and value arrays
of every tree end to end (model after model for a quantile set).
"""

from __future__ import annotations

import logging
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import accumulate, pairwise

import numpy as np

from .features import FeatureMatrix
from .metrics import QUANTILE_LEVELS, pinball_grad, pinball_loss
from .series import read_blob, read_header, write_header_blob

logger = logging.getLogger(__name__)

# float guard: algebraically-zero gains come out as rounding dust
_MIN_GAIN = 1e-10


class BoostingError(ValueError):
    """Raised on invalid boosting inputs."""


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquaredLoss:
    name: str = "squared"

    def gradients(self, y: np.ndarray, pred: np.ndarray) -> np.ndarray:
        return pred - y

    def base_score(self, y: np.ndarray) -> float:
        return float(np.mean(y))

    def metric(self, y: np.ndarray, pred: np.ndarray) -> float:
        return float(np.sqrt(np.mean((y - pred) ** 2)))


@dataclass(frozen=True)
class PinballLoss:
    """Quantile objective. The pinball loss is piecewise linear, so its
    hessian is 0 almost everywhere; the leaves use a unit-hessian
    surrogate, -G/m, the mean gradient step. ROADMAP item 8 replaces it
    with each leaf's tau-quantile of the residuals."""

    tau: float
    name: str = "pinball"

    def gradients(self, y: np.ndarray, pred: np.ndarray) -> np.ndarray:
        return pinball_grad(y, pred, self.tau)

    def base_score(self, y: np.ndarray) -> float:
        return float(np.quantile(y, self.tau))

    def metric(self, y: np.ndarray, pred: np.ndarray) -> float:
        return float(np.mean(pinball_loss(y, pred, self.tau)))


Loss = SquaredLoss | PinballLoss


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionTree:
    """Flat node arrays; feature < 0 marks a leaf whose value is in ``value``.

    ``predict`` walks every row exactly ``depth`` steps, the tree's real
    depth, through a ``_Walk``: a leaf is its own child there, so a row
    that reaches one early stays put and no step masks the rows still
    moving.
    """

    feature: np.ndarray    # int32, -1 for leaves
    threshold: np.ndarray  # float64, 0 for leaves
    left: np.ndarray       # int32 child index, -1 for leaves
    right: np.ndarray
    value: np.ndarray      # float64 leaf value, 0 for internal nodes

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of each row of the 2-D ``X``."""
        X = np.ascontiguousarray(X, dtype=float)
        out = np.empty(len(X))
        for rows, leaves in _Walk((self,)).leaves(X):
            out[rows] = leaves[0]
        return out


def _inner_levels(inner: np.ndarray, left: np.ndarray, right: np.ndarray,
                  roots: np.ndarray) -> Iterator[np.ndarray]:
    """The internal nodes at depth 0, 1, ... below ``roots``, in flat node
    arrays whose children lie in range; stops with ``BoostingError`` on a
    path longer than the arrays, which only a cycle makes."""
    level = roots[inner.take(roots)]
    for _ in range(len(inner) + 1):
        if not level.size:
            return
        yield level
        level = np.concatenate((left.take(level), right.take(level)))
        level = level[inner.take(level)]
    raise BoostingError("tree has a cycle")


# Node slots one walk step gathers per row block, so the block's (trees,
# rows) node and value arrays stay at 128 KiB. The four 50-tree models of
# the gbdt_2y workload predicted its 3504 x 7 test rows in a median 61-63 ms
# of CPU at 16384 slots, 61-71 ms at 8192 to 65536, 79-84 ms with all rows
# in one block and 88-92 ms one tree at a time (2 vCPU, 21 runs, twice).
_BLOCK_SLOTS = 16384


def _joined(trees: Sequence[RegressionTree], name: str, dtype: type) -> np.ndarray:
    """One node array of every tree, end to end."""
    parts = [getattr(t, name) for t in trees]
    return np.concatenate(parts, dtype=dtype) if parts else np.empty(0, dtype)


class _Walk:
    """The fixed-depth walk over one or more trees: their node arrays end
    to end, with child indices shifted to match. Each leaf has feature 0
    and is its own left and right child, so after ``depth`` steps, the
    deepest tree's depth, every row sits on its leaf in every tree.

    A step is ``x = X.flat[row * F + feature[node]]`` and
    ``node = where(x <= threshold[node], left[node], right[node])``: a tie
    goes left and NaN goes right, as ``fit_tree`` partitions.
    """

    def __init__(self, trees: Sequence[RegressionTree]) -> None:
        sizes = np.array([len(t.feature) for t in trees], dtype=np.intp)
        self.roots = np.cumsum(sizes) - sizes
        shift = np.repeat(self.roots, sizes)
        feature = _joined(trees, "feature", np.intp)
        inner = feature >= 0
        node = np.arange(len(feature))
        self.left = np.where(inner, _joined(trees, "left", np.intp) + shift, node)
        self.right = np.where(inner, _joined(trees, "right", np.intp) + shift, node)
        self.depth = sum(1 for _ in _inner_levels(inner, self.left, self.right, self.roots))
        self.n_features = int(feature.max(initial=-1)) + 1
        self.feature = np.where(inner, feature, 0)
        self.threshold = _joined(trees, "threshold", np.float64)
        self.value = _joined(trees, "value", np.float64)

    def leaves(self, X: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """For each block of rows of the C-contiguous 2-D float ``X``, its
        slice and the (trees, rows) leaf values of those rows."""
        if X.ndim != 2 or X.shape[1] < self.n_features:
            raise BoostingError(f"X of shape {X.shape}: trees read {self.n_features} features")
        if not len(self.roots):
            return
        step = max(1, _BLOCK_SLOTS // len(self.roots))
        for r0 in range(0, len(X), step):
            block = X[r0 : r0 + step]
            flat = block.ravel()
            row = np.arange(0, block.size, X.shape[1])
            node = np.repeat(self.roots[:, None], len(block), axis=1)
            for _ in range(self.depth):
                x = flat.take(row + self.feature.take(node))
                node = np.where(x <= self.threshold.take(node),
                                self.left.take(node), self.right.take(node))
            yield slice(r0, r0 + len(block)), self.value.take(node)


def presort(X: np.ndarray) -> np.ndarray:
    """Row indices of each column of ``X`` in ascending order, ties by row
    index: the int64 (n_features, n_rows) block a ``TreeWorkspace`` holds."""
    return np.argsort(X.T, axis=1, kind="stable")


class TreeWorkspace:
    """Buffers that every tree grown on one ``X`` reuses.

    - ``order`` is ``presort(X)``, read-only. ``xt`` is ``X.T`` made
      contiguous, so one feature's values gather from one row.
    - ``levels`` are two ping-pong int64 buffers of n_features x n_rows
      entries. A node's (n_features, m) block of sorted row ids is
      contiguous in one of them; a split writes its children's blocks to
      the same offset in the other. The root's block is ``order``.
    - ``gain`` and ``right`` are the float buffers of one node's search,
      ``tied`` its bool mask and ``go_left`` the split's row mask.
    - ``hl[:m]`` holds 1..m and ``hr[n - m:]`` holds m-1..1: the row counts
      left and right of each boundary of an m-row node, which are the exact
      hessian sums of a unit-hessian loss. ``hr`` ends in a 1.0 stand-in
      for the masked last position, whose right side is empty.
    """

    def __init__(self, X: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        n, n_features = X.shape
        self.shape = X.shape
        self.xt = np.ascontiguousarray(X.T)
        self.order = presort(X)
        self.order.flags.writeable = False
        size = n_features * n
        self.levels = (np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64))
        self.gain = np.empty(size)
        self.right = np.empty(size)
        self.tied = np.empty(size, dtype=bool)
        self.go_left = np.empty(n, dtype=bool)
        self.hl = np.arange(1.0, n + 1)
        self.hr = np.arange(n - 1.0, -1.0, -1.0)
        self.hr[-1] = 1.0


def _best_split(ws: TreeWorkspace, grad: np.ndarray, G: float, blocks: np.ndarray,
                min_samples_leaf: int) -> tuple[int, float] | None:
    """Exact greedy search over all (feature, midpoint threshold) candidates.

    ``blocks[f]`` holds the node's rows in ascending order of feature f,
    ties by row index. That is the order a stable sort of the node's own
    values gives, so the prefix sums, gains and chosen split match a
    per-node sort bit for bit without sorting. ``G`` is the node's gradient
    sum over its rows in ascending order.

    All features are scored at once: boundary j of feature f (after sorted
    row j) gets gain[f, j], and the last position, which has no right side,
    is masked. The row-wise argmax takes the lowest threshold of each
    feature and the argmax over features the lowest feature among equal
    gains. Returns (feature, threshold) of the best split whose gain is
    strictly positive, or None.
    """
    n_features, m = blocks.shape
    size = n_features * m
    n = ws.shape[0]
    parent = G * G / m
    xs = ws.right[:size].reshape(n_features, m)
    for f in range(n_features):
        ws.xt[f].take(blocks[f], out=xs[f], mode="clip")
    flat = ws.right[:size]
    # equal consecutive values are no boundary; the comparison across the
    # end of a feature's row lands on its masked last position
    tied = np.equal(flat[:-1], flat[1:], out=ws.tied[: size - 1])
    gain = ws.gain[:size].reshape(n_features, m)
    grad.take(blocks, out=gain, mode="clip")
    np.cumsum(gain, axis=1, out=gain)  # G_L
    gr = np.subtract(G, gain, out=xs)
    np.square(gr, out=gr)
    np.divide(gr, ws.hr[n - m :], out=gr)
    np.square(gain, out=gain)
    np.divide(gain, ws.hl[:m], out=gain)
    gain += gr
    gain -= parent
    np.copyto(ws.gain[: size - 1], -np.inf, where=tied)
    # boundary j leaves j + 1 rows left and m - j - 1 right
    gain[:, m - max(min_samples_leaf, 1) :] = -np.inf
    if min_samples_leaf > 1:
        gain[:, : min_samples_leaf - 1] = -np.inf
    cols = gain.argmax(axis=1)
    best = gain[np.arange(n_features), cols]
    f = int(best.argmax())
    if not best[f] > _MIN_GAIN * max(1.0, abs(parent)):
        return None
    j = cols[f]
    lo, hi = ws.xt[f].take(blocks[f, j : j + 2])
    return f, float((lo + hi) / 2)


def fit_tree(
    X: np.ndarray,
    grad: np.ndarray,
    max_depth: int = 6,
    min_samples_leaf: int = 1,
    workspace: TreeWorkspace | None = None,
    out: np.ndarray | None = None,
) -> RegressionTree:
    """Grow one tree level-wise on the gradient of a unit-hessian loss.

    ``workspace`` is a ``TreeWorkspace(X)``, built here when not given. A
    node with no positive-gain split, too few rows or at max depth becomes
    a leaf valued -G/m (the Newton step, with the hessian sum equal to the
    node's row count m); ``out``, when given, receives each row's leaf value.
    """
    X = np.asarray(X, dtype=float)
    if len(X) < 2 * min_samples_leaf:
        raise BoostingError(f"{len(X)} rows < 2 x min_samples_leaf={min_samples_leaf}")
    ws = TreeWorkspace(X) if workspace is None else workspace
    if ws.shape != X.shape:
        raise BoostingError(f"workspace built for shape {ws.shape}, X has {X.shape}")
    n_features = X.shape[1]
    min_rows = max(2, 2 * min_samples_leaf)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    go_left = ws.go_left  # read only at the split node's rows
    # (node, rows ascending, offset of its block in src)
    level = [(new_node(), np.arange(len(X)), 0)]
    src, dst = ws.order.ravel(), ws.levels[0]
    depth = 0
    while level:
        next_level: list[tuple[int, np.ndarray, int]] = []
        for node, rows, off in level:
            m = len(rows)
            G = grad.take(rows).sum()
            split = None
            if depth < max_depth and m >= min_rows:
                blocks = src[off : off + n_features * m].reshape(n_features, m)
                split = _best_split(ws, grad, G, blocks, min_samples_leaf)
            if split is None:
                value[node] = -G / m
                if out is not None:
                    out[rows] = value[node]
                continue
            f, thr = split
            feature[node] = f
            threshold[node] = thr
            mask = ws.xt[f].take(rows) <= thr
            lid, rid = new_node(), new_node()
            left[node], right[node] = lid, rid
            lrows, rrows = rows[mask], rows[~mask]
            mid = off + n_features * len(lrows)
            if depth + 1 < max_depth:  # else the children are leaves and need no blocks
                # stable partition keeps each child's blocks in sorted order
                go_left[rows] = mask
                side = go_left.take(blocks).ravel()
                flat = blocks.ravel()
                flat.take(np.flatnonzero(side), out=dst[off:mid], mode="clip")
                flat.take(np.flatnonzero(~side), out=dst[mid : off + n_features * m], mode="clip")
            next_level.append((lid, lrows, off))
            next_level.append((rid, rrows, mid))
        level = next_level
        src, dst = dst, ws.levels[(depth + 1) % 2]
        depth += 1

    return RegressionTree(
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(value, dtype=float),
    )


# ---------------------------------------------------------------------------
# Boosting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GbdtParams:
    n_estimators: int = 1000
    learning_rate: float = 0.05
    max_depth: int = 6
    min_samples_leaf: int = 1
    early_stopping_rounds: int = 10

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate <= 1:
            raise BoostingError("learning_rate must be in (0, 1]")
        # zero trees (the base score alone) and single-row leaves are legal
        for name, low in (("n_estimators", 0), ("max_depth", 1), ("min_samples_leaf", 0),
                          ("early_stopping_rounds", 1)):
            if getattr(self, name) < low:
                raise BoostingError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass(frozen=True)
class GbdtModel:
    trees: tuple[RegressionTree, ...]
    params: GbdtParams
    base_score: float
    loss: Loss
    best_iteration: int            # prediction uses trees[:best_iteration]
    feature_order: tuple[str, ...]
    val_history: tuple[float, ...]  # validation metric per round, round 0 = base only

    @cached_property
    def _walk(self) -> _Walk:
        return _Walk(self.trees[: self.best_iteration])


def gbdt_fit(
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    params: GbdtParams = GbdtParams(),
    loss: Loss = SquaredLoss(),
    feature_order: tuple[str, ...] = (),
) -> GbdtModel:
    """Boost with validation-based early stopping.

    The validation metric (RMSE for squared loss, mean pinball for the
    quantile loss) is evaluated after every round, including round 0 with
    the base score alone; training stops once it has not improved for
    ``early_stopping_rounds`` consecutive rounds and best_iteration is the
    argmin round.
    """
    X_train = np.asarray(X_train, dtype=float)
    X_val = np.ascontiguousarray(X_val, dtype=float)  # every round's tree.predict reads it
    y_train = np.asarray(y_train, dtype=float)
    y_val = np.asarray(y_val, dtype=float)
    if len(X_train) == 0 or len(X_val) == 0:
        raise BoostingError("train and validation sets must be non-empty")
    if not feature_order:
        feature_order = tuple(f"f{j}" for j in range(X_train.shape[1]))

    base = loss.base_score(y_train)
    pred_train = np.full(len(y_train), base)
    pred_val = np.full(len(y_val), base)

    history = [loss.metric(y_val, pred_val)]
    best_metric = history[0]
    best_iteration = 0
    trees: list[RegressionTree] = []
    workspace = TreeWorkspace(X_train)  # X_train is fixed for every round
    leaf = np.empty(len(y_train))

    for t in range(1, params.n_estimators + 1):
        grad = loss.gradients(y_train, pred_train)
        tree = fit_tree(X_train, grad, params.max_depth, params.min_samples_leaf,
                        workspace=workspace, out=leaf)
        trees.append(tree)
        pred_train += params.learning_rate * leaf
        pred_val += params.learning_rate * tree.predict(X_val)
        metric = loss.metric(y_val, pred_val)
        history.append(metric)
        if metric < best_metric:
            best_metric = metric
            best_iteration = t
        elif t - best_iteration >= params.early_stopping_rounds:
            logger.info(
                "gbdt_fit: early stop at round %d (best %d, val %.6g)",
                t, best_iteration, best_metric,
            )
            break

    return GbdtModel(
        trees=tuple(trees),
        params=params,
        base_score=base,
        loss=loss,
        best_iteration=best_iteration,
        feature_order=feature_order,
        val_history=tuple(history),
    )


def _feature_array(model: GbdtModel, X) -> np.ndarray:
    """``X`` as a C-contiguous float array of the model's features, in
    their order."""
    if isinstance(X, FeatureMatrix):
        if X.feature_order != model.feature_order:
            raise BoostingError(
                f"feature order mismatch: trained on {model.feature_order}, got {X.feature_order}"
            )
        X = X.features
    arr = np.ascontiguousarray(X, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(model.feature_order):
        raise BoostingError(
            f"X of shape {arr.shape} for a model of {len(model.feature_order)} features"
        )
    return arr


def gbdt_predict(model: GbdtModel, X) -> np.ndarray:
    """base_score + learning_rate * sum of the first best_iteration trees,
    added one tree at a time in tree order."""
    arr = _feature_array(model, X)
    out = np.full(len(arr), model.base_score)
    for rows, leaves in model._walk.leaves(arr):
        acc = out[rows]  # a view: the sums land in out
        for leaf in leaves:
            acc += model.params.learning_rate * leaf
    return out


def gbdt_predict_quantiles(models: dict[float, GbdtModel], X) -> np.ndarray:
    """Evaluate one model per quantile and repair crossings by row sorting:
    an (n, len(QUANTILE_LEVELS)) float64 array in ``QUANTILE_LEVELS`` order."""
    if tuple(sorted(models)) != QUANTILE_LEVELS:
        raise BoostingError(f"need one model per quantile {QUANTILE_LEVELS}, got {sorted(models)}")
    preds = np.column_stack([gbdt_predict(models[tau], X) for tau in QUANTILE_LEVELS])
    preds.sort(axis=1)
    return preds


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# a model's part of the blob: these node arrays, each of every tree end to end
_NODE_ARRAYS = (("feature", "<i4"), ("left", "<i4"), ("right", "<i4"), ("threshold", "<f8"),
                ("value", "<f8"))


def _header(model: GbdtModel) -> dict:
    """All of ``model`` but its node arrays; ``trees`` holds each tree's node count."""
    return {"params": asdict(model.params), "loss": asdict(model.loss),
            "base_score": model.base_score, "best_iteration": model.best_iteration,
            "feature_order": list(model.feature_order), "val_history": list(model.val_history),
            "trees": [len(t.feature) for t in model.trees]}


def _node_arrays(*models: GbdtModel) -> list[np.ndarray]:
    return [_joined(m.trees, name, dtype) for m in models for name, dtype in _NODE_ARRAYS]


def save_gbdt(path_prefix, model: GbdtModel) -> dict[str, str]:
    """Write ``model`` as the ``<prefix>.json`` header and ``<prefix>.bin``
    node blob; returns both file names with their sha256."""
    return write_header_blob(path_prefix, _header(model), *_node_arrays(model))


def save_gbdt_quantiles(path_prefix, models: dict[float, GbdtModel]) -> dict[str, str]:
    """One pair for a model per quantile: the header maps ``repr(tau)`` to
    each model's header, the blob holds their node arrays in
    ``QUANTILE_LEVELS`` order."""
    ordered = [models[tau] for tau in QUANTILE_LEVELS]
    header = {repr(tau): _header(model) for tau, model in zip(QUANTILE_LEVELS, ordered)}
    return write_header_blob(path_prefix, header, *_node_arrays(*ordered))


def _check_header(head) -> int:
    """Raise ``BoostingError`` on a model header ``gbdt_fit`` could not
    have written; return the model's node count."""
    trees = head.get("trees") if isinstance(head, dict) else None
    if (not isinstance(trees, list) or any(type(n) is not int for n in trees)
            or sorted(head) != sorted(f.name for f in fields(GbdtModel))):
        raise BoostingError("not a GBDT header with node counts (a model saved before node "
                            "blobs?); run `train`")
    n, best, history, loss = len(trees), head["best_iteration"], head["val_history"], head["loss"]
    if min(trees, default=1) < 1:
        raise BoostingError(f"a tree of {min(trees)} nodes")
    if type(best) is not int or not 0 <= best <= n:
        raise BoostingError(f"best_iteration {best!r} outside [0, {n}]")
    if len(history) != n + 1:
        raise BoostingError(f"{len(history)} val_history entries for {n} trees, need {n + 1}")
    tau = loss.get("tau") if isinstance(loss, dict) else None
    if loss != {"name": "squared"} and not (
        loss == {"name": "pinball", "tau": tau} and isinstance(tau, float) and 0 < tau < 1
    ):
        raise BoostingError(f"unknown loss {loss!r}")
    if not isinstance(head["params"], dict) or sorted(head["params"]) != sorted(
            asdict(GbdtParams())):
        raise BoostingError(f"params {head['params']!r}, need the fields of GbdtParams")
    return sum(trees)


def _check_trees(sizes: list[int], feature: np.ndarray, left: np.ndarray, right: np.ndarray,
                 finite: np.ndarray, max_depth: int, n_features: int) -> None:
    """Raise ``BoostingError`` naming the first tree (of ``sizes`` nodes, end
    to end) and node that ``fit_tree`` could not have written: children out
    of range or not after their parent (which would let a walk cycle), a
    leaf with children, a feature outside ``[0, n_features)``, a threshold
    or value not ``finite``, or a path longer than ``max_depth``."""
    sizes = np.array(sizes, dtype=np.intp)
    roots = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(len(sizes)), sizes)
    node = np.arange(len(tree_of)) - roots.take(tree_of)
    size = sizes.take(tree_of)
    feature, left, right = (a.astype(np.intp) for a in (feature, left, right))
    inner = feature >= 0
    bad = np.where(inner,
                   (left <= node) | (left >= size) | (right <= node) | (right >= size),
                   (left != -1) | (right != -1))
    bad |= (feature < -1) | (feature >= n_features) | ~finite
    if bad.any():
        k = int(bad.argmax())
        raise BoostingError(
            f"tree {tree_of[k]}, node {node[k]}: feature {feature[k]}, children "
            f"{left[k]}, {right[k]}; an internal node needs a feature in [0, {n_features}) "
            "and children after it, a leaf feature and children -1, every node a finite "
            "threshold and value"
        )
    shift = roots.take(tree_of)
    for depth, level in enumerate(_inner_levels(inner, left + shift, right + shift, roots)):
        if depth >= max_depth:
            k = int(level.min())
            raise BoostingError(f"tree {tree_of[k]}, node {node[k]}: internal at depth "
                                f"{depth}, max_depth {max_depth}")


def _model(head: dict, feature, left, right, threshold, value) -> GbdtModel:
    """The model of a checked header and its node arrays."""
    params = GbdtParams(**head["params"])
    _check_trees(head["trees"], feature, left, right, np.isfinite(threshold) & np.isfinite(value),
                 params.max_depth, len(head["feature_order"]))
    nodes = (feature, threshold, left, right, value)  # in RegressionTree's field order
    trees = tuple(RegressionTree(*(a[lo:hi] for a in nodes))
                  for lo, hi in pairwise(accumulate(head["trees"], initial=0)))
    loss = PinballLoss(**head["loss"]) if "tau" in head["loss"] else SquaredLoss()
    return GbdtModel(trees=trees, params=params, base_score=float(head["base_score"]), loss=loss,
                     best_iteration=head["best_iteration"],
                     feature_order=tuple(head["feature_order"]),
                     val_history=tuple(head["val_history"]))


def _load(path_prefix, heads: dict[str, dict]) -> list[GbdtModel]:
    """The models of ``heads``, each model's header by a label for errors,
    with their node arrays read from ``<prefix>.bin`` in turn."""

    def checked(label, check, *args):
        try:
            return check(*args)
        except BoostingError as exc:
            raise BoostingError(f"{path_prefix}.json: {label}{exc}") from None

    counts = [checked(label, _check_header, head) for label, head in heads.items()]
    arrays = read_blob(path_prefix, [(dtype, (n,)) for n in counts for _, dtype in _NODE_ARRAYS],
                       f"the node arrays of {sum(counts)} nodes", BoostingError)
    k = len(_NODE_ARRAYS)
    return [checked(label, _model, head, *arrays[k * i : k * i + k])
            for i, (label, head) in enumerate(heads.items())]


def load_gbdt(path_prefix) -> GbdtModel:
    """The model ``save_gbdt`` wrote; a header or node it could not have
    written raises ``BoostingError`` naming the file."""
    return _load(path_prefix, {"": read_header(path_prefix)})[0]


def load_gbdt_quantiles(path_prefix) -> dict[float, GbdtModel]:
    """The models ``save_gbdt_quantiles`` wrote, by quantile."""
    heads, keys = read_header(path_prefix), [repr(tau) for tau in QUANTILE_LEVELS]
    if not isinstance(heads, dict) or sorted(heads) != sorted(keys):
        raise BoostingError(f"{path_prefix}.json: need one model per quantile, {keys}; "
                            "run `train`")
    return dict(zip(QUANTILE_LEVELS, _load(path_prefix, {f"tau {k}: ": heads[k] for k in keys})))
