"""Gradient-boosted regression trees with second-order leaf updates.

One engine covers both point forecasting (squared loss) and quantile
forecasting (pinball loss with a unit-hessian surrogate). Trees grow
level-wise with exact greedy split search (Chen & Guestrin 2016, §4.1):
``gbdt_fit`` sorts each feature column once per fit (``presort``), and
every node carries its rows in each feature's sorted order, handed down
by stable partition when the node splits. No node sorts again. Ties keep
ascending row order throughout, which is exactly the order a stable sort
of the node's own values gives, so split choices match a per-node sort bit
for bit. Split gain is G_L^2/H_L + G_R^2/H_R - G^2/H and each leaf takes
the Newton value -G/H. Everything is deterministic: ties break on the lowest
feature index, then the lowest threshold.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix
from .metrics import ForecastDistribution, QUANTILE_LEVELS, pinball_grad, pinball_loss

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

    def gradients(self, y: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return pred - y, np.ones_like(y)

    def base_score(self, y: np.ndarray) -> float:
        return float(np.mean(y))

    def metric(self, y: np.ndarray, pred: np.ndarray) -> float:
        return float(np.sqrt(np.mean((y - pred) ** 2)))


@dataclass(frozen=True)
class PinballLoss:
    """Quantile objective; the hessian is identically 1 (piecewise-linear
    loss), so the Newton leaf equals the mean gradient step."""

    tau: float
    name: str = "pinball"

    def gradients(self, y: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return pinball_grad(y, pred, self.tau), np.ones_like(y)

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
    index: an int64 (n_features, n_rows) block that ``fit_tree`` reuses."""
    return np.argsort(X.T, axis=1, kind="stable")


def _best_split(X: np.ndarray, grad: np.ndarray, hess: np.ndarray, rows: np.ndarray,
                blocks: np.ndarray, min_samples_leaf: int) -> tuple[float, int, float] | None:
    """Exact greedy search over all (feature, midpoint threshold) candidates.

    ``rows`` holds the node's rows ascending and ``blocks[f]`` the same rows
    in ascending order of feature f, ties by row index. That is the order a
    stable sort of the node's own values gives, so the prefix sums, gains
    and chosen split match a per-node sort bit for bit without sorting.

    Returns (gain, feature, threshold) of the best strictly-positive-gain
    split, or None. Scanning features then thresholds in ascending order
    with strict improvement gives the deterministic tie-break.
    """
    G, H = grad[rows].sum(), hess[rows].sum()
    parent = G * G / H
    n = len(rows)
    k = np.arange(1, n)
    # boundary after sorted row k leaves k rows on the left
    size_ok = (k >= min_samples_leaf) & (n - k >= min_samples_leaf)
    best: tuple[float, int, float] | None = None
    for f, order in enumerate(blocks):
        xs = X[order, f]
        gl = np.cumsum(grad[order])[:-1]
        hl = np.cumsum(hess[order])[:-1]
        # candidate boundaries between distinct consecutive values
        ok = (xs[:-1] != xs[1:]) & size_ok
        if not ok.any():
            continue
        gr = G - gl
        hr = H - hl
        gain = gl**2 / hl + gr**2 / hr - parent
        gain[~ok] = -np.inf
        j = int(np.argmax(gain))  # gain[j] splits between sorted rows j and j+1
        if gain[j] > _MIN_GAIN * max(1.0, abs(parent)) and (best is None or gain[j] > best[0]):
            best = (float(gain[j]), f, float((xs[j] + xs[j + 1]) / 2))
    return best


def fit_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    max_depth: int = 6,
    min_samples_leaf: int = 1,
    order: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> RegressionTree:
    """Grow one tree level-wise on (gradient, hessian) statistics.

    ``order`` is ``presort(X)``, computed here when not given. A node with
    no positive-gain split, too few rows or at max depth becomes a leaf
    valued -G/H; ``out``, when given, receives each row's leaf value.
    """
    X = np.asarray(X, dtype=float)
    if len(X) < 2 * min_samples_leaf:
        raise BoostingError(f"{len(X)} rows < 2 x min_samples_leaf={min_samples_leaf}")
    if order is None:
        order = presort(X)

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

    go_left = np.empty(len(X), dtype=bool)  # read only at the split node's rows
    level = deque([(new_node(), np.arange(len(X)), order)])
    depth = 0
    while level:
        next_level: deque[tuple[int, np.ndarray, np.ndarray | None]] = deque()
        while level:
            # popped, so a parent's blocks are freed once partitioned
            node, rows, blocks = level.popleft()
            split = None
            if depth < max_depth and len(rows) >= 2 * min_samples_leaf:
                split = _best_split(X, grad, hess, rows, blocks, min_samples_leaf)
            if split is None:
                value[node] = -grad[rows].sum() / hess[rows].sum()
                if out is not None:
                    out[rows] = value[node]
                continue
            _, f, thr = split
            feature[node] = f
            threshold[node] = thr
            mask = X[rows, f] <= thr
            lid, rid = new_node(), new_node()
            left[node], right[node] = lid, rid
            if depth + 1 < max_depth:
                # stable partition keeps each child's blocks in sorted order
                go_left[rows] = mask
                side = go_left[blocks].ravel()
                lblocks = blocks.compress(side).reshape(len(blocks), -1)
                rblocks = blocks.compress(~side).reshape(len(blocks), -1)
            else:
                lblocks = rblocks = None
            next_level.append((lid, rows[mask], lblocks))
            next_level.append((rid, rows[~mask], rblocks))
        level = next_level
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
    order = presort(X_train)  # X_train is fixed for every round
    leaf = np.empty(len(y_train))

    for t in range(1, params.n_estimators + 1):
        grad, hess = loss.gradients(y_train, pred_train)
        tree = fit_tree(X_train, grad, hess, params.max_depth, params.min_samples_leaf,
                        order=order, out=leaf)
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


def gbdt_predict_quantiles(models: dict[float, GbdtModel], X, timestamps=None) -> ForecastDistribution:
    """Evaluate one model per quantile and repair crossings by row sorting."""
    if tuple(sorted(models)) != QUANTILE_LEVELS:
        raise BoostingError(f"need one model per quantile {QUANTILE_LEVELS}, got {sorted(models)}")
    preds = np.column_stack([gbdt_predict(models[tau], X) for tau in QUANTILE_LEVELS])
    preds.sort(axis=1)
    if timestamps is None:
        timestamps = X.timestamps if isinstance(X, FeatureMatrix) else tuple(range(len(preds)))
    return ForecastDistribution(tuple(timestamps), preds[:, 0], preds[:, 1], preds[:, 2])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def gbdt_to_json(model: GbdtModel) -> str:
    doc = {
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
    return json.dumps(doc, sort_keys=True, indent=1)


def gbdt_from_json(text: str) -> GbdtModel:
    doc = json.loads(text)
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
