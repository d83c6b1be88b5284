"""Gap repair: temporal kNN for scattered holes, linear and seasonal imputers
for long structural gaps, and the masked-holdout trial that picks between them.

The seasonal imputer fills a missing hour from the average of all observed
values sharing its (day-of-week, hour-of-day) slot, e.g. prior Mondays at
9 AM; the trial erases a known-good stretch, re-imputes it with both
imputers and scores pointwise error plus how well the value
distribution is preserved (earth-mover distance between histograms).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .features import calendar_features
from .series import HourlySeries, missing_runs

logger = logging.getLogger(__name__)

HOURS_PER_WEEK = 168

# how each cell of a prepared series got its value (``PreparedData.source``)
OBSERVED, KNN, LINEAR, SEASONAL, SEASONAL_FALLBACK = range(5)


class ImputationError(ValueError):
    """Raised when a gap cannot be filled under the requested method."""


@dataclass(frozen=True)
class SeasonalProfile:
    """Mean load per (day_of_week, hour_of_day) cell, one table per channel.

    means: (7, 24, n_channels), NaN where a cell has no observations.
    """

    means: np.ndarray
    channel_names: tuple[str, ...]

    def cell_means(self, series: HourlySeries) -> np.ndarray:
        """(hours, channels) mean of each slot's weekly cell, NaN where empty."""
        dow, hod = _week_positions(series)
        return self.means[dow, hod]


@dataclass(frozen=True)
class MethodResult:
    """Scores of one imputer on the masked holdout."""

    rmse: float
    mae: float
    distribution_distance: float
    histogram: np.ndarray  # counts per shared bin


@dataclass(frozen=True)
class ImputationTrial:
    masked_range: tuple[int, int]
    bin_edges: np.ndarray
    truth_histogram: np.ndarray
    method_results: dict[str, MethodResult]


def _week_positions(series: HourlySeries) -> tuple[np.ndarray, np.ndarray]:
    """(day_of_week, hour_of_day) index arrays for every slot, Monday=0."""
    cal = calendar_features(series.start, np.arange(len(series)))
    return cal["dayofweek"].astype(np.intp), cal["hour"].astype(np.intp)


# ---------------------------------------------------------------------------
# kNN repair for scattered holes
# ---------------------------------------------------------------------------


def knn_impute(series: HourlySeries, k: int = 5, max_gap: int = 6) -> HourlySeries:
    """Fill missing runs of length <= max_gap per channel.

    Each missing slot becomes the mean of the k temporally nearest present
    values in the same channel (ties between equidistant neighbours prefer
    the earlier one). Runs longer than max_gap are left untouched, so only a
    channel with a run to fill needs k present values.

    A channel's cells are filled together, in k array steps of the walk
    from each cell outwards: each step adds the nearer of the next left and
    right neighbours, nearest first, so every sum is rounded as a walk of
    one cell at a time would round it. Like that walk on Python floats, a
    sum that overflows is inf (or NaN) without a warning.
    """
    if k < 1:
        raise ImputationError("k must be >= 1")
    out = series.values.copy()
    for c in range(series.n_channels):
        col = out[:, c]
        runs = [(start, length) for start, length in missing_runs(np.isnan(col))
                if length <= max_gap]
        if not runs:
            continue
        present = np.flatnonzero(~np.isnan(col))
        if len(present) < k:
            raise ImputationError(
                f"channel {series.channel_names[c]!r} has fewer than k={k} present values"
            )
        cells = np.concatenate([np.arange(start, start + length) for start, length in runs])
        values = col[present]
        right = np.searchsorted(present, cells, side="left")
        left = right - 1
        total = np.zeros(len(cells))
        last = len(present) - 1
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(k):
                r = np.minimum(right, last)
                take_left = (right > last) | (
                    (left >= 0) & (cells - present[left] <= present[r] - cells))
                total += np.where(take_left, values[left], values[r])
                left -= take_left
                right += ~take_left
        col[cells] = total / k
    return series.with_values(out)


# ---------------------------------------------------------------------------
# Structural-gap imputers
# ---------------------------------------------------------------------------


def linear_impute(series: HourlySeries, runs: list[tuple[int, int]]) -> HourlySeries:
    """Fill missing slots in each [start, stop) run on the line between the
    values bounding it.

    Requires a present value immediately before and after each run in each
    channel that has anything to fill in it.
    """
    out = series.values.copy()
    for start, stop in runs:
        if not 0 < start <= stop < len(series):
            raise ImputationError(
                f"range ({start}, {stop}) must be interior to the series (anchors on both sides)"
            )
        for c in range(series.n_channels):
            col = out[start:stop, c]
            holes = np.isnan(col)
            if not holes.any():
                continue
            left = series.values[start - 1, c]
            right = series.values[stop, c]
            if np.isnan(left) or np.isnan(right):
                raise ImputationError(
                    f"channel {series.channel_names[c]!r}: no present anchor adjacent to the gap"
                )
            # line through (start-1, left) and (stop, right)
            t = np.arange(start, stop, dtype=float)
            line = left + (right - left) * (t - (start - 1)) / (stop - (start - 1))
            col[holes] = line[holes]
    return series.with_values(out)


def build_seasonal_profile(
    series: HourlySeries, exclude: tuple[int, int] | None = None
) -> SeasonalProfile:
    """Average present values per (day_of_week, hour_of_day) cell per channel.

    Slots inside the half-open ``exclude`` range do not contribute; cells
    with no observations keep mean NaN.
    """
    dow, hod = _week_positions(series)
    use = np.ones(len(series), dtype=bool)
    if exclude is not None:
        use[exclude[0] : exclude[1]] = False

    means = np.full((7, 24, series.n_channels), np.nan)
    flat = dow * 24 + hod
    for c in range(series.n_channels):
        col = series.values[:, c]
        valid = use & ~np.isnan(col)
        cnt = np.bincount(flat[valid], minlength=HOURS_PER_WEEK)
        tot = np.bincount(flat[valid], weights=col[valid], minlength=HOURS_PER_WEEK)
        cnt2 = cnt.reshape(7, 24)
        tot2 = tot.reshape(7, 24)
        has = cnt2 > 0
        means[has, c] = tot2[has] / cnt2[has]
    if np.isnan(means).all():
        raise ImputationError("no present values outside the excluded range")
    return SeasonalProfile(means, series.channel_names)


def seasonal_impute(
    series: HourlySeries, runs: list[tuple[int, int]], profile: SeasonalProfile
) -> HourlySeries:
    """Fill missing slots in each [start, stop) run from the weekly profile.

    Slots whose profile cell is empty fall back to the line between the
    present values around them, then to the channel's mean, both taken from
    ``series`` as given, so each run's fill is independent of the others.
    The imputer never emits missing values; it raises only when a channel
    with such a slot has no data at all.
    """
    inside = np.zeros(len(series), dtype=bool)
    for start, stop in runs:
        if not 0 <= start <= stop <= len(series):
            raise ImputationError(f"invalid range ({start}, {stop})")
        inside[start:stop] = True
    cells = profile.cell_means(series)
    out = series.values.copy()
    for c in range(series.n_channels):
        col = series.values[:, c]
        hole_idx = np.flatnonzero(inside & np.isnan(col))
        if hole_idx.size == 0:
            continue
        fills = cells[hole_idx, c]
        missing_cells = np.isnan(fills)
        if missing_cells.any():
            fills[missing_cells] = _linear_fallback(
                col, hole_idx[missing_cells], series.channel_names[c])
        out[hole_idx, c] = fills
    return series.with_values(out)


def _linear_fallback(col: np.ndarray, idx: np.ndarray, name: str) -> np.ndarray:
    """Fallback chain for empty profile cells: the line between the present
    values around each slot, else the channel's mean."""
    present = np.flatnonzero(~np.isnan(col))
    if present.size == 0:
        raise ImputationError(f"channel {name!r}: profile cell empty and no data for fallback")
    out = np.full(len(idx), float(np.mean(col[present])))
    pos = np.searchsorted(present, idx)
    inner = (pos > 0) & (pos < len(present))
    a, b = present[pos[inner] - 1], present[pos[inner]]
    va, vb = col[a], col[b]
    out[inner] = va + (vb - va) * (idx[inner] - a) / (b - a)
    return out


# ---------------------------------------------------------------------------
# Masked-holdout trial
# ---------------------------------------------------------------------------

def emd_1d(counts_a: np.ndarray, counts_b: np.ndarray, bin_width: float) -> float:
    """Earth-mover distance between two equal-binning histograms.

    Counts are normalised to probability mass, so the distance is in the
    bin-value unit (watts here). Symmetric, non-negative, zero iff the
    normalised histograms coincide.
    """
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("histograms must share binning")
    if a.sum() == 0 or b.sum() == 0:
        raise ValueError("histograms must be non-empty")
    p = a / a.sum()
    q = b / b.sum()
    return float(np.abs(np.cumsum(p - q)).sum() * bin_width)


def run_imputation_trial(series: HourlySeries, mask: tuple[int, int]) -> ImputationTrial:
    """Erase a fully observed interior range of channel 0 and score the
    linear and seasonal imputers against it.

    Both see the identical masked series and are scored on the identical
    truth vector: pointwise RMSE/MAE plus the earth-mover distance between
    the imputed-value histogram and the truth histogram over a shared
    binning (50 equal-width bins spanning the truth range).
    """
    start, stop = mask
    if not 0 < start < stop < len(series):
        raise ImputationError("mask must be interior to the series")
    truth = series.values[start:stop, 0].copy()
    if np.isnan(truth).any():
        raise ImputationError("mask overlaps existing missing data")

    masked_values = series.values.copy()
    masked_values[start:stop, 0] = np.nan
    masked = series.with_values(masked_values)

    t_lo, t_hi = float(truth.min()), float(truth.max())
    if t_hi == t_lo:
        t_hi = t_lo + 1.0  # degenerate truth range: a single shared bin span
    edges = np.linspace(t_lo, t_hi, 50 + 1)
    width = edges[1] - edges[0]
    truth_hist, _ = np.histogram(np.clip(truth, t_lo, t_hi), bins=edges)

    profile = build_seasonal_profile(masked, exclude=(start, stop))
    results: dict[str, MethodResult] = {}
    for name, filled in (("linear", linear_impute(masked, [(start, stop)])),
                         ("seasonal", seasonal_impute(masked, [(start, stop)], profile))):
        est = filled.values[start:stop, 0]
        err = est - truth
        hist, _ = np.histogram(np.clip(est, t_lo, t_hi), bins=edges)
        results[name] = MethodResult(
            rmse=float(np.sqrt(np.mean(err**2))),
            mae=float(np.mean(np.abs(err))),
            distribution_distance=emd_1d(hist, truth_hist, width),
            histogram=hist,
        )
        logger.info(
            "imputation trial %-8s rmse=%.3f mae=%.3f emd=%.3f",
            name, results[name].rmse, results[name].mae, results[name].distribution_distance,
        )
    return ImputationTrial((start, stop), edges, truth_hist, results)


def choose_imputer(trial: ImputationTrial) -> str:
    """Lower distribution distance wins; ties break on lower RMSE, then name."""
    return min(
        trial.method_results,
        key=lambda m: (
            trial.method_results[m].distribution_distance,
            trial.method_results[m].rmse,
            m,
        ),
    )
