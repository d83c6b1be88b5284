"""Design-matrix construction: calendar columns, lagged targets, and the
sliding windows consumed by sequence models.

Rows whose lag values would reach before the start of the series are
dropped, so every emitted row is fully defined. Feature order is
deterministic: calendar columns, then raw channel columns, then lag
columns, each group alphabetical.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .series import HOUR, HourlySeries


class FeatureError(ValueError):
    """Raised when a matrix or window tensor cannot be built."""


CALENDAR_COLUMNS = ("dayofweek", "hour", "is_weekend", "month")


@dataclass(frozen=True)
class FeatureMatrix:
    """Tabular design matrix aligned to target values.

    Rows are contiguous hourly timestamps; features[i] pairs with target[i]
    (the label at that same hour, never a future value).
    """

    timestamps: tuple[datetime, ...]
    features: np.ndarray  # (n, n_features)
    feature_order: tuple[str, ...]
    target: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.features.shape[1] != len(self.feature_order):
            raise FeatureError("features shape does not match feature_order")
        if len(self.timestamps) != len(self.features) or len(self.target) != len(self.features):
            raise FeatureError("timestamps, features and target lengths differ")

    def __len__(self) -> int:
        return len(self.target)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.features[:, self.feature_order.index(name)]
        except ValueError:
            raise FeatureError(f"unknown feature {name!r}") from None

    def rows(self, start: int, stop: int) -> "FeatureMatrix":
        return FeatureMatrix(
            self.timestamps[start:stop],
            self.features[start:stop],
            self.feature_order,
            self.target[start:stop],
        )


@dataclass(frozen=True)
class WindowTensor:
    """Sliding windows over a FeatureMatrix for sequence models.

    data: (samples, window, n_features); sample i covers matrix rows
    [i, i+window). targets: (samples, horizon) covering rows
    [i+window, i+window+horizon). target_timestamps holds the timestamp of
    each sample's final target row.
    """

    data: np.ndarray
    targets: np.ndarray
    window: int
    horizon: int
    feature_order: tuple[str, ...]
    target_timestamps: tuple[datetime, ...]

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    def samples(self, start: int, stop: int) -> "WindowTensor":
        return WindowTensor(
            self.data[start:stop],
            self.targets[start:stop],
            self.window,
            self.horizon,
            self.feature_order,
            self.target_timestamps[start:stop],
        )


def calendar_features(timestamps: tuple[datetime, ...] | list[datetime]) -> dict[str, np.ndarray]:
    """hour (0-23), dayofweek (Monday=0), month (1-12) and is_weekend (0/1)."""
    for ts in timestamps:
        if ts.minute or ts.second or ts.microsecond:
            raise FeatureError(f"timestamp {ts.isoformat()} is not hour-aligned")
    hour = np.array([ts.hour for ts in timestamps], dtype=float)
    dow = np.array([ts.weekday() for ts in timestamps], dtype=float)
    month = np.array([ts.month for ts in timestamps], dtype=float)
    is_weekend = (dow >= 5).astype(float)
    return {"hour": hour, "dayofweek": dow, "month": month, "is_weekend": is_weekend}


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
    target_channel: str | int = 0,
) -> FeatureMatrix:
    """Join calendar, optional raw channel columns and target lags on timestamps.

    Rows with any undefined feature (lag warm-up, missing channel hours)
    are dropped; the result must be non-empty. ``channels`` injects raw
    channel values as features for the windowed sequence path.
    """
    target = series.channel(target_channel).astype(float)
    timestamps = series.timestamps()

    columns: dict[str, np.ndarray] = {}
    cal = calendar_features(timestamps)
    for name in sorted(calendar):
        if name not in cal:
            raise FeatureError(f"unknown calendar feature {name!r}")
        columns[name] = cal[name]
    for name in sorted(channels):
        columns[name] = series.channel(name).astype(float)
    if lags:
        columns.update(sorted(lag_features(target, tuple(lags)).items()))

    order = tuple(columns)
    stacked = np.column_stack([columns[name] for name in order])
    defined = ~np.isnan(stacked).any(axis=1) & ~np.isnan(target)
    if not defined.any():
        raise FeatureError("empty feature matrix after dropping undefined rows")
    keep = np.flatnonzero(defined)
    return FeatureMatrix(
        tuple(timestamps[i] for i in keep),
        stacked[keep],
        order,
        target[keep],
    )


def windowize(matrix: FeatureMatrix, window: int = 48, horizon: int = 1) -> WindowTensor:
    """Cut (window x n_features) read-only views of the rows, with the following targets.

    Sample count is rows - window - horizon + 1; sample i's first target
    hour is the hour after its last input row.
    """
    n = len(matrix)
    if window < 1 or horizon < 1:
        raise FeatureError("window and horizon must be >= 1")
    if n < window + horizon:
        raise FeatureError(f"{n} rows < window {window} + horizon {horizon}")
    for a, b in zip(matrix.timestamps[:-1], matrix.timestamps[1:]):
        if b - a != HOUR:
            raise FeatureError("matrix rows must be contiguous hourly timestamps")

    n_samples = n - window - horizon + 1
    data = np.lib.stride_tricks.sliding_window_view(matrix.features, window, axis=0)
    data = np.swapaxes(data[:n_samples], 1, 2)
    targets = np.lib.stride_tricks.sliding_window_view(matrix.target, horizon)[window:]
    targets = np.ascontiguousarray(targets[:n_samples])
    final_target_ts = tuple(
        matrix.timestamps[i + window + horizon - 1] for i in range(n_samples)
    )
    return WindowTensor(data, targets, window, horizon, matrix.feature_order, final_target_ts)
