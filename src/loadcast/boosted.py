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
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix
from .metrics import QUANTILE_LEVELS, pinball_grad, pinball_loss

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
    """Flat node arrays; feature < 0 marks a leaf whose value is in ``value``."""

    feature: np.ndarray    # int32, -1 for leaves
    threshold: np.ndarray  # float64, 0 for leaves
    left: np.ndarray       # int32 child index, -1 for leaves
    right: np.ndarray
    value: np.ndarray      # float64 leaf value, 0 for internal nodes
    max_depth: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(len(X), dtype=np.int32)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.flatnonzero(active)
            feats = self.feature[node[idx]]
            thresh = self.threshold[node[idx]]
            go_left = X[idx, feats] <= thresh
            node[idx] = np.where(go_left, self.left[node[idx]], self.right[node[idx]])
            active = self.feature[node] >= 0
        return self.value[node]

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))


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
        max_depth=max_depth,
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
    X_val = np.asarray(X_val, dtype=float)
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
    if isinstance(X, FeatureMatrix):
        if X.feature_order != model.feature_order:
            raise BoostingError(
                f"feature order mismatch: trained on {model.feature_order}, got {X.feature_order}"
            )
        return X.features
    return np.asarray(X, dtype=float)


def gbdt_predict(model: GbdtModel, X) -> np.ndarray:
    """base_score + learning_rate * sum of the first best_iteration trees."""
    arr = _feature_array(model, X)
    out = np.full(len(arr), model.base_score)
    for tree in model.trees[: model.best_iteration]:
        out += model.params.learning_rate * tree.predict(arr)
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


def gbdt_to_doc(model: GbdtModel) -> dict:
    """The model as plain JSON types; ``gbdt_from_doc`` inverts it."""
    return {
        "params": {
            "n_estimators": model.params.n_estimators,
            "learning_rate": model.params.learning_rate,
            "max_depth": model.params.max_depth,
            "min_samples_leaf": model.params.min_samples_leaf,
            "early_stopping_rounds": model.params.early_stopping_rounds,
        },
        "loss": {"name": model.loss.name}
        | ({"tau": model.loss.tau} if isinstance(model.loss, PinballLoss) else {}),
        "base_score": model.base_score,
        "best_iteration": model.best_iteration,
        "feature_order": list(model.feature_order),
        "val_history": list(model.val_history),
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "value": t.value.tolist(),
                "max_depth": t.max_depth,
            }
            for t in model.trees
        ],
    }


def gbdt_from_doc(doc: dict) -> GbdtModel:
    loss: Loss
    if doc["loss"]["name"] == "squared":
        loss = SquaredLoss()
    else:
        loss = PinballLoss(tau=float(doc["loss"]["tau"]))
    trees = tuple(
        RegressionTree(
            np.asarray(t["feature"], dtype=np.int32),
            np.asarray(t["threshold"], dtype=float),
            np.asarray(t["left"], dtype=np.int32),
            np.asarray(t["right"], dtype=np.int32),
            np.asarray(t["value"], dtype=float),
            max_depth=int(t["max_depth"]),
        )
        for t in doc["trees"]
    )
    return GbdtModel(
        trees=trees,
        params=GbdtParams(**doc["params"]),
        base_score=float(doc["base_score"]),
        loss=loss,
        best_iteration=int(doc["best_iteration"]),
        feature_order=tuple(doc["feature_order"]),
        val_history=tuple(doc["val_history"]),
    )


def gbdt_to_json(model: GbdtModel) -> str:
    return json.dumps(gbdt_to_doc(model), sort_keys=True, indent=1)


def gbdt_from_json(text: str) -> GbdtModel:
    return gbdt_from_doc(json.loads(text))
