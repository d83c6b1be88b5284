"""Design-matrix construction on the series' hour grid: calendar columns,
lagged targets, and the sliding windows consumed by sequence models.

Every derived row is keyed by its integer hour index into the series it
was built from: ``hours[i] == j`` means row i describes the hour
``series.start + j`` hours. ``calendar_features`` computes the calendar of
such hours from ``(start, hours)`` in one vectorised pass; it serves the
feature columns, the seasonal imputer's week slots and SARIMAX's exogenous
regressors alike.

Rows whose lag values would reach before the start of the series are
dropped, so every emitted row is fully defined. Feature order is
deterministic: calendar columns, then raw channel columns, then lag
columns, each group alphabetical.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .series import HourlySeries


class FeatureError(ValueError):
    """Raised when a matrix or window tensor cannot be built."""


CALENDAR_COLUMNS = ("dayofweek", "hour", "is_weekend", "month")


@dataclass(frozen=True)
class FeatureMatrix:
    """Tabular design matrix aligned to target values.

    features[i] pairs with target[i], the label of hour ``hours[i]`` itself
    (never a future value); ``hours`` ascend.
    """

    hours: np.ndarray  # (n,) int, indices into the series' hour grid
    features: np.ndarray  # (n, n_features)
    feature_order: tuple[str, ...]
    target: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.features.shape[1] != len(self.feature_order):
            raise FeatureError("features shape does not match feature_order")
        if len(self.hours) != len(self.features) or len(self.target) != len(self.features):
            raise FeatureError("hours, features and target lengths differ")

    def __len__(self) -> int:
        return len(self.target)

    def rows(self, start: int, stop: int) -> "FeatureMatrix":
        return FeatureMatrix(
            self.hours[start:stop],
            self.features[start:stop],
            self.feature_order,
            self.target[start:stop],
        )


@dataclass(frozen=True)
class WindowTensor:
    """Sliding windows over a FeatureMatrix for sequence models.

    data: (samples, window, n_features); sample i covers matrix rows
    [i, i+window). target[i] is the target of the row after them and
    hours[i] that row's hour index.
    """

    data: np.ndarray
    target: np.ndarray
    hours: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    def samples(self, start: int, stop: int) -> "WindowTensor":
        return WindowTensor(self.data[start:stop], self.target[start:stop],
                            self.hours[start:stop])


def calendar_features(start: datetime, hours: np.ndarray) -> dict[str, np.ndarray]:
    """hour (0-23), dayofweek (Monday=0), month (1-12) and is_weekend (0/1)
    of each hour ``start + hours[i]``, as float columns on ``start``'s own
    wall clock."""
    if start.minute or start.second or start.microsecond:
        raise FeatureError(f"start {start.isoformat()} is not hour-aligned")
    t = np.datetime64(start.replace(tzinfo=None), "h") + np.asarray(hours, dtype=np.int64)
    days = t.astype("datetime64[D]")  # floors, also before 1970
    dow = ((days.astype(np.int64) + 3) % 7).astype(float)  # 1970-01-01 was a Thursday
    return {
        "hour": (t - days).astype(float),
        "dayofweek": dow,
        "month": (days.astype("datetime64[M]").astype(np.int64) % 12 + 1).astype(float),
        "is_weekend": (dow >= 5).astype(float),
    }


def lag_features(target: np.ndarray, lags: tuple[int, ...] = (1, 24, 168)) -> dict[str, np.ndarray]:
    """lag_khr column: value at t-k, NaN where t < k (dropped at assembly)."""
    target = np.asarray(target, dtype=float)
    if min(lags) < 1:
        raise FeatureError("lags must be >= 1")
    if len(target) <= max(lags):
        raise FeatureError(f"series of length {len(target)} is shorter than max lag {max(lags)}")
    cols = {}
    for k in lags:
        col = np.full(len(target), np.nan)
        col[k:] = target[:-k]
        cols[f"lag_{k}hr"] = col
    return cols


def assemble_matrix(
    series: HourlySeries,
    calendar: tuple[str, ...] = CALENDAR_COLUMNS,
    lags: tuple[int, ...] = (1, 24, 168),
    channels: tuple[str, ...] = (),
) -> FeatureMatrix:
    """Join calendar, optional raw channel columns and lags of channel 0,
    the target, on the series' hours.

    Rows with any undefined feature (lag warm-up, missing channel hours)
    are dropped; the result must be non-empty. ``channels`` injects raw
    channel values as features for the windowed sequence path.
    """
    target = series.channel(0).astype(float)

    columns: dict[str, np.ndarray] = {}
    cal = calendar_features(series.start, np.arange(len(series)))
    for name in sorted(calendar):
        if name not in cal:
            raise FeatureError(f"unknown calendar feature {name!r}")
        columns[name] = cal[name]
    for name in sorted(channels):
        columns[name] = series.channel(name).astype(float)
    if lags:
        columns.update(sorted(lag_features(target, tuple(lags)).items()))

    if not columns:
        raise FeatureError("no feature column: calendar, lags and channels are all empty")
    order = tuple(columns)
    stacked = np.column_stack([columns[name] for name in order])
    defined = ~np.isnan(stacked).any(axis=1) & ~np.isnan(target)
    if not defined.any():
        raise FeatureError("empty feature matrix after dropping undefined rows")
    keep = np.flatnonzero(defined)
    return FeatureMatrix(keep, stacked[keep], order, target[keep])


def windowize(matrix: FeatureMatrix, window: int = 48) -> WindowTensor:
    """Cut (window x n_features) read-only views of the rows, each with the
    target of the row after it.

    Sample count is rows - window; the rows must be contiguous hours.
    """
    n = len(matrix)
    if window < 1:
        raise FeatureError("window must be >= 1")
    if n <= window:
        raise FeatureError(f"{n} rows leave no target after a window of {window}")
    if (np.diff(matrix.hours) != 1).any():
        raise FeatureError("matrix rows must be contiguous hours")
    data = np.lib.stride_tricks.sliding_window_view(matrix.features, window, axis=0)
    return WindowTensor(np.swapaxes(data[: n - window], 1, 2), matrix.target[window:],
                        matrix.hours[window:])
