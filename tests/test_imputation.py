import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadcast.imputation import (
    ImputationError,
    build_seasonal_profile,
    choose_imputer,
    emd_1d,
    knn_impute,
    linear_impute,
    run_imputation_trial,
    seasonal_impute,
)
from loadcast.series import missing_runs
from loadcast.synth import bimodal_weekly_series

from conftest import make_series


def weekly_signal(n_hours):
    """Pure function of (day_of_week, hour_of_day), deliberately irregular."""
    idx = np.arange(n_hours)
    hod = idx % 24
    dow = (idx // 24) % 7
    return 100.0 + 37.0 * dow + 11.0 * hod + 5.0 * ((dow * 24 + hod) % 13)


def knn_impute_numpy_scalars(values, k, max_gap):
    """``knn_impute`` as it walked numpy arrays with ``np.searchsorted``, one
    filled cell at a time: the list walk must match it bit for bit."""
    out = values.copy()
    for c in range(out.shape[1]):
        col = out[:, c]
        present = np.flatnonzero(~np.isnan(col))
        runs = [(start, length) for start, length in missing_runs(np.isnan(col))
                if length <= max_gap]
        if runs and len(present) < k:
            raise ImputationError("fewer than k")
        for start, length in runs:
            for i in range(start, start + length):
                pos = np.searchsorted(present, i)
                left, right = pos - 1, pos
                total = 0.0
                for _ in range(k):
                    d_left = i - present[left] if left >= 0 else np.inf
                    d_right = present[right] - i if right < len(present) else np.inf
                    if d_left <= d_right:
                        total += col[present[left]]
                        left -= 1
                    else:
                        total += col[present[right]]
                        right += 1
                col[i] = total / k
    return out


@st.composite
def holed_columns(draw):
    """(hours, channels) values of magnitudes 1e-8 to 1e16, some ±0 and
    ±1e308, with random holes and, per channel, optional missing runs at
    both ends of the series."""
    n, n_channels = draw(st.integers(1, 60)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, (n, n_channels)) * 10.0 ** rng.integers(-8, 17, (n, n_channels))
    special = rng.random((n, n_channels)) < 0.1
    values[special] = rng.choice([0.0, -0.0, 1e308, -1e308], special.sum())
    values[rng.random((n, n_channels)) < draw(st.floats(0.0, 0.9))] = np.nan
    for c in range(n_channels):
        values[: draw(st.integers(0, 4)), c] = np.nan
        values[n - draw(st.integers(0, 4)):, c] = np.nan
    return values


class TestKnn:
    def test_mean_of_two_neighbours(self):
        filled = knn_impute(make_series([10.0, np.nan, 20.0]), k=2, max_gap=6)
        assert filled.values[1, 0] == 15.0

    def test_identity_when_fully_observed(self):
        series = make_series([1.0, 2.0, 3.0])
        filled = knn_impute(series, k=2, max_gap=6)
        np.testing.assert_array_equal(filled.values, series.values)

    def test_long_run_untouched(self):
        values = np.ones(200)
        values[50:130] = np.nan
        filled = knn_impute(make_series(values), k=5, max_gap=24)
        assert np.isnan(filled.values[50:130, 0]).all()

    def test_tie_prefers_earlier_neighbour(self):
        filled = knn_impute(make_series([10.0, np.nan, 20.0]), k=1, max_gap=6)
        assert filled.values[1, 0] == 10.0

    def test_too_few_present_values(self):
        with pytest.raises(ImputationError, match="fewer than k"):
            knn_impute(make_series([1.0, np.nan, np.nan]), k=2, max_gap=6)
        # a channel whose runs are all too long for kNN has nothing it must fill
        filled = knn_impute(make_series([1.0] + [np.nan] * 8), k=2, max_gap=6)
        assert np.isnan(filled.values[1:, 0]).all()

    @settings(max_examples=300, deadline=None)
    @given(values=holed_columns(), k=st.integers(1, 6), max_gap=st.integers(1, 8))
    # equidistant neighbours of different magnitudes: the earlier one is summed first
    @example(values=np.array([[1e16], [np.nan], [1.0], [np.nan], [-1e16], [3.0]]),
             k=3, max_gap=2)
    # runs at both ends, filled from one side only
    @example(values=np.array([[np.nan], [np.nan], [0.1], [0.2], [0.3], [np.nan], [np.nan]]),
             k=2, max_gap=2)
    def test_bitwise_equal_to_numpy_scalar_walk(self, values, k, max_gap):
        series = make_series(values)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                want = knn_impute_numpy_scalars(series.values, k, max_gap)
        except ImputationError:
            with pytest.raises(ImputationError, match="fewer than k"):
                knn_impute(series, k=k, max_gap=max_gap)
            return
        got = knn_impute(series, k=k, max_gap=max_gap).values
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_present_values_never_modified(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 100, 50)
        holes = rng.choice(50, size=10, replace=False)
        values[holes] = np.nan
        series = make_series(values)
        filled = knn_impute(series, k=3, max_gap=6)
        present = ~np.isnan(values)
        np.testing.assert_array_equal(filled.values[present, 0], values[present])


class TestLinear:
    def test_midpoint(self):
        filled = linear_impute(make_series([100.0, np.nan, 200.0]), [(1, 2)])
        assert filled.values[1, 0] == 150.0

    def test_flat_anchors(self):
        filled = linear_impute(make_series([0.0, np.nan, np.nan, np.nan, 0.0]), [(1, 4)])
        assert filled.values[1:4, 0].tolist() == [0.0, 0.0, 0.0]

    def test_line_equation(self):
        # independent oracle: np.interp over the anchor points
        values = [0.0, np.nan, np.nan, np.nan, 400.0]
        expected = np.interp([1, 2, 3], [0, 4], [0.0, 400.0])
        filled = linear_impute(make_series(values), [(1, 4)])
        np.testing.assert_allclose(filled.values[1:4, 0], expected)
        assert filled.values[1:4, 0].tolist() == [100.0, 200.0, 300.0]

    def test_boundary_gap_errors(self):
        with pytest.raises(ImputationError):
            linear_impute(make_series([np.nan, 1.0, 2.0]), [(0, 1)])
        with pytest.raises(ImputationError, match="anchor"):
            linear_impute(make_series([1.0, np.nan, np.nan]), [(1, 2)])

    def test_exact_on_affine_signal(self):
        t = np.arange(300.0)
        values = 3.0 * t + 17.0
        masked = values.copy()
        masked[100:180] = np.nan
        filled = linear_impute(make_series(masked), [(100, 180)])
        np.testing.assert_allclose(filled.values[:, 0], values, rtol=1e-12)


class TestSeasonalProfile:
    def test_constant_mondays(self, monday_start):
        n = 21 * 24  # three weeks
        values = np.full(n, 100.0)
        mondays_9 = [i for i in range(n) if (i // 24) % 7 == 0 and i % 24 == 9]
        for i in mondays_9:
            values[i] = 500.0
        profile = build_seasonal_profile(make_series(values, start=monday_start))
        assert profile.means[0, 9, 0] == 500.0

    def test_cell_without_observations(self, monday_start):
        profile = build_seasonal_profile(make_series(np.ones(24), start=monday_start))
        # a Thursday never seen
        assert np.isnan(profile.means[3, 0, 0])

    def test_two_observations_average(self, monday_start):
        values = np.full(14 * 24, np.nan)
        values[9] = 100.0
        values[7 * 24 + 9] = 300.0
        profile = build_seasonal_profile(make_series(values, start=monday_start))
        assert profile.means[0, 9, 0] == 200.0

    def test_exclude_range(self, monday_start):
        values = np.full(14 * 24, 1.0)
        values[: 7 * 24] = 9.0
        profile = build_seasonal_profile(make_series(values, start=monday_start), exclude=(0, 7 * 24))
        assert profile.means[0, 0, 0] == 1.0


class TestSeasonalImpute:
    def test_weekly_periodic_fixed_point(self):
        truth = weekly_signal(12 * 168)
        masked = truth.copy()
        masked[400 : 400 + 720] = np.nan  # a month-long hole
        series = make_series(masked)
        profile = build_seasonal_profile(series)
        filled = seasonal_impute(series, [(400, 400 + 720)], profile)
        np.testing.assert_allclose(filled.values[:, 0], truth, rtol=1e-12)

    def test_constant_restored(self):
        masked = np.full(500, 42.0)
        masked[100:300] = np.nan
        series = make_series(masked)
        filled = seasonal_impute(series, [(100, 300)], build_seasonal_profile(series))
        assert (filled.values[:, 0] == 42.0).all()

    def test_empty_cell_falls_back_to_linear(self, monday_start):
        # only 12 hours observed: most weekly cells are empty
        values = np.full(48, np.nan)
        values[:10] = 100.0
        values[20:48] = 300.0
        series = make_series(values, start=monday_start)
        profile = build_seasonal_profile(series)
        filled = seasonal_impute(series, [(10, 20)], profile)
        oracle = linear_impute(series, [(10, 20)])
        # cells for hours 10..19 of this Monday were never observed elsewhere
        np.testing.assert_allclose(filled.values[10:20, 0], oracle.values[10:20, 0])

    def test_no_data_at_all_errors(self):
        series = make_series(np.full(48, np.nan))
        with pytest.raises(ImputationError):
            build_seasonal_profile(series)


class TestEmd:
    def test_zero_iff_identical(self):
        a = np.array([3, 1, 4, 1])
        assert emd_1d(a, a, 0.5) == 0.0
        b = np.array([1, 3, 4, 1])
        assert emd_1d(a, b, 0.5) > 0.0

    def test_unit_mass_shift(self):
        # moving all mass one bin over costs one bin width
        a = np.array([1, 0, 0])
        b = np.array([0, 1, 0])
        assert emd_1d(a, b, 2.5) == 2.5

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=20),
        st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_nonnegative(self, a, b):
        n = min(len(a), len(b))
        a, b = np.array(a[:n]), np.array(b[:n])
        if a.sum() == 0 or b.sum() == 0:
            return
        d_ab = emd_1d(a, b, 1.0)
        d_ba = emd_1d(b, a, 1.0)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(d_ba, rel=1e-12)


class TestTrial:
    def test_seasonal_exact_on_weekly_signal(self):
        series = make_series(weekly_signal(12 * 168))
        trial = run_imputation_trial(series, (800, 800 + 720))
        seasonal = trial.method_results["seasonal"]
        assert seasonal.rmse == pytest.approx(0.0, abs=1e-9)
        assert seasonal.distribution_distance == pytest.approx(0.0, abs=1e-9)

    def test_linear_fails_bimodal_distribution(self):
        series = bimodal_weekly_series(16 * 168)
        trial = run_imputation_trial(series, (1200, 1200 + 720))
        linear = trial.method_results["linear"]
        seasonal = trial.method_results["seasonal"]
        assert linear.distribution_distance > seasonal.distribution_distance
        assert choose_imputer(trial) == "seasonal"

    def test_linear_exact_on_trend(self):
        series = make_series(2.5 * np.arange(2000.0) + 3.0)
        trial = run_imputation_trial(series, (500, 1200))
        assert trial.method_results["linear"].rmse == pytest.approx(0.0, abs=1e-9)
        assert choose_imputer(trial) == "linear"

    def test_methods_share_mask_and_truth(self):
        series = make_series(weekly_signal(6 * 168))
        mask = (300, 500)
        trial = run_imputation_trial(series, mask)
        assert trial.masked_range == mask
        for result in trial.method_results.values():
            assert result.histogram.sum() == mask[1] - mask[0]

    def test_mask_overlapping_missing_data_errors(self):
        values = weekly_signal(6 * 168)
        values[350] = np.nan
        with pytest.raises(ImputationError, match="missing"):
            run_imputation_trial(make_series(values), (300, 500))

    def test_mask_must_be_interior(self):
        series = make_series(weekly_signal(1000))
        with pytest.raises(ImputationError):
            run_imputation_trial(series, (0, 100))

    def test_imputers_leave_values_outside_mask_alone(self):
        truth = weekly_signal(6 * 168)
        series = make_series(truth)
        mask = (300, 500)
        trial = run_imputation_trial(series, mask)
        assert set(trial.method_results) == {"linear", "seasonal"}
        np.testing.assert_array_equal(series.values[:, 0], truth)  # input untouched
