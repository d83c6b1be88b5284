from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast.features import (
    FeatureError,
    assemble_matrix,
    calendar_features,
    lag_features,
    windowize,
)

from loadcast.neural import forward, init_model

from conftest import make_series


def reference_calendar(start, hours):
    """The calendar of ``start + hours[i]``, field by field from datetime."""
    stamps = [start + timedelta(hours=int(h)) for h in hours]
    dow = np.array([ts.weekday() for ts in stamps], dtype=float)
    return {
        "hour": np.array([ts.hour for ts in stamps], dtype=float),
        "dayofweek": dow,
        "month": np.array([ts.month for ts in stamps], dtype=float),
        "is_weekend": (dow >= 5).astype(float),
    }


UTC = timezone.utc
FOUR_YEARS = 4 * 8766  # hours; any start's span holds a 29 February


class TestCalendar:
    @pytest.mark.parametrize("start, first", [
        pytest.param(datetime(2014, 3, 8, 14, tzinfo=UTC),
                     {"hour": 14, "dayofweek": 5, "month": 3, "is_weekend": 1},
                     id="saturday_afternoon"),
        pytest.param(datetime(2014, 3, 5, 9, tzinfo=UTC),
                     {"hour": 9, "dayofweek": 2, "month": 3, "is_weekend": 0},
                     id="wednesday_morning_in_march"),
        pytest.param(datetime(2014, 3, 9, 0, tzinfo=UTC),
                     {"hour": 0, "dayofweek": 6, "month": 3, "is_weekend": 1},
                     id="sunday_midnight"),
        pytest.param(datetime(1969, 12, 30, 5, tzinfo=UTC),
                     {"hour": 5, "dayofweek": 1, "month": 12, "is_weekend": 0},
                     id="before_1970_not_midnight"),
        pytest.param(datetime(2012, 2, 28, 23, tzinfo=UTC),
                     {"hour": 23, "dayofweek": 1, "month": 2, "is_weekend": 0},
                     id="eve_of_29_february"),
    ])
    def test_matches_datetime_reference(self, start, first):
        hours = np.arange(FOUR_YEARS)
        cols = calendar_features(start, hours)
        ref = reference_calendar(start, hours)
        assert {name: cols[name][0] for name in first} == first
        assert cols.keys() == ref.keys()
        for name in ref:
            assert cols[name].dtype == ref[name].dtype, name
            assert cols[name].tobytes() == ref[name].tobytes(), name
        # any hour indices, not only a range from 0
        some = hours[5::97][::-1]
        picked = calendar_features(start, some)
        for name in ref:
            assert picked[name].tobytes() == ref[name][some].tobytes(), name

    def test_span_holds_29_february(self):
        start = datetime(2013, 3, 1, tzinfo=UTC)
        cols = calendar_features(start, np.arange(FOUR_YEARS))
        feb = cols["month"] == 2
        days = np.unique(np.flatnonzero(feb) // 24)
        assert len(days) == 3 * 28 + 29  # 2014, 2015, 2016 (leap), 2017

    def test_misaligned_timestamp_rejected(self):
        with pytest.raises(FeatureError, match="hour-aligned"):
            calendar_features(datetime(2014, 3, 9, 0, 30, tzinfo=UTC), np.arange(3))


class TestLags:
    def test_shift_alignment(self):
        cols = lag_features(np.array([1.0, 2.0, 3.0, 4.0]), lags=(1,))
        lag1 = cols["lag_1hr"]
        assert np.isnan(lag1[0])
        assert lag1[1:].tolist() == [1.0, 2.0, 3.0]

    def test_series_equal_to_max_lag_errors(self):
        with pytest.raises(FeatureError, match="shorter than max lag"):
            lag_features(np.ones(168), lags=(1, 24, 168))

    def test_constant_series_constant_lags(self):
        cols = lag_features(np.full(200, 7.0), lags=(1, 24, 168))
        for col in cols.values():
            defined = col[~np.isnan(col)]
            assert (defined == 7.0).all()


class TestAssemble:
    def test_row_count_after_lag_warmup(self):
        series = make_series(np.arange(200.0))
        matrix = assemble_matrix(series, lags=(1, 24, 168))
        assert len(matrix) == 32  # N - max_lag
        np.testing.assert_array_equal(matrix.hours, np.arange(168, 200))

    def test_feature_order_is_deterministic(self):
        m1 = assemble_matrix(make_series(np.arange(200.0)), lags=(1, 24, 168))
        m2 = assemble_matrix(make_series(np.arange(300.0) ** 2), lags=(1, 24, 168))
        assert m1.feature_order == m2.feature_order
        assert m1.feature_order == (
            "dayofweek", "hour", "is_weekend", "month", "lag_168hr", "lag_1hr", "lag_24hr"
        )

    def test_row_carries_its_own_hour_target(self):
        target = np.arange(200.0)
        matrix = assemble_matrix(make_series(target), lags=(1,))
        # row at timestamp t has target(t), and lag_1hr = target(t-1)
        assert matrix.target[0] == 1.0
        assert matrix.features[0, matrix.feature_order.index("lag_1hr")] == 0.0

    def test_channels_included_for_window_path(self):
        values = np.column_stack([np.arange(200.0), np.arange(200.0) * 2])
        series = make_series(values, channel_names=("Aggregate", "Appliance1"))
        matrix = assemble_matrix(series, lags=(1,), channels=("Aggregate", "Appliance1"))
        assert "Aggregate" in matrix.feature_order
        column = matrix.feature_order.index
        np.testing.assert_array_equal(matrix.features[:, column("Appliance1")],
                                      matrix.features[:, column("Aggregate")] * 2)

    def test_anti_leakage_lag_shift(self):
        rng = np.random.default_rng(3)
        target = rng.uniform(0, 100, 250)
        matrix = assemble_matrix(make_series(target), lags=(1, 24))
        for k in (1, 24):
            np.testing.assert_array_equal(
                matrix.features[:, matrix.feature_order.index(f"lag_{k}hr")], target[24 - k : -k])

    def test_no_column_names_the_empty_inputs(self):
        with pytest.raises(FeatureError, match="calendar, lags and channels"):
            assemble_matrix(make_series(np.arange(50.0)), calendar=(), lags=())

    def test_empty_result_errors(self):
        with pytest.raises(FeatureError):
            assemble_matrix(make_series(np.full(200, np.nan)), lags=(1,))


class TestWindowize:
    def test_sample_count(self):
        matrix = assemble_matrix(make_series(np.arange(51.0)), lags=(1,))  # 50 rows
        tensor = windowize(matrix, window=48)
        assert tensor.n_samples == 2

    def test_too_few_rows(self):
        matrix = assemble_matrix(make_series(np.arange(49.0)), lags=(1,))  # 48 rows
        with pytest.raises(FeatureError):
            windowize(matrix, window=48)

    def test_tensor_shape_with_18_features(self):
        n = 120
        rng = np.random.default_rng(0)
        values = np.column_stack([np.arange(float(n))] + [rng.uniform(size=n) for _ in range(10)])
        names = ("Aggregate",) + tuple(f"Appliance{i}" for i in range(1, 11))
        series = make_series(values, channel_names=names)
        matrix = assemble_matrix(series, lags=(1, 24), channels=names)
        assert len(matrix.feature_order) == 17
        # one more channel column brings the window width to 18
        matrix2 = assemble_matrix(
            make_series(np.column_stack([values, values[:, -1]]),
                        channel_names=names + ("Appliance11",)),
            lags=(1, 24), channels=names + ("Appliance11",),
        )
        tensor = windowize(matrix2, window=48)
        assert tensor.data.shape == (len(matrix2) - 48, 48, 18)

    def test_window_rows_and_target_alignment(self):
        target = np.arange(60.0)
        matrix = assemble_matrix(make_series(target), lags=(1,))
        tensor = windowize(matrix, window=10)
        # sample 0 covers matrix rows [0, 10); its target is row 10's target
        np.testing.assert_array_equal(tensor.data[0], matrix.features[:10])
        assert tensor.target.shape == (tensor.n_samples,)
        np.testing.assert_array_equal(tensor.target, matrix.target[10:])
        np.testing.assert_array_equal(tensor.hours, matrix.hours[10:])
        assert tensor.hours[0] == 11  # the series' hour of that target

    def test_window_slices_are_contiguous(self):
        matrix = assemble_matrix(make_series(np.arange(30.0)), lags=(1,))
        hours = matrix.hours.copy()
        hours[5:] += 5
        broken = type(matrix)(hours, matrix.features, matrix.feature_order, matrix.target)
        with pytest.raises(FeatureError, match="contiguous"):
            windowize(broken, window=4)

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_formula_property(self, rows, window):
        series = make_series(np.arange(float(rows + 1)))
        matrix = assemble_matrix(series, lags=(1,))
        if rows <= window:
            with pytest.raises(FeatureError):
                windowize(matrix, window=window)
        else:
            tensor = windowize(matrix, window=window)
            assert tensor.n_samples == rows - window

    def test_windows_are_read_only_views_of_the_matrix(self):
        rng = np.random.default_rng(3)
        names = ("Aggregate", "Appliance1")
        series = make_series(rng.uniform(0.0, 1.0, (200, 2)), channel_names=names)
        matrix = assemble_matrix(series, lags=(1, 24), channels=names)
        matrix = type(matrix)(matrix.hours, matrix.features.astype(np.float32),
                              matrix.feature_order, matrix.target)
        tensor = windowize(matrix, window=24)
        assert np.shares_memory(tensor.data, matrix.features)
        assert not tensor.data.flags.writeable
        model = init_model(n_features=tensor.data.shape[2], hidden=(8, 4), seed=5, dtype=np.float32)
        q_view, _ = forward(model, tensor.data, keep_caches=False)
        q_copy, _ = forward(model, np.ascontiguousarray(tensor.data), keep_caches=False)
        assert q_view.tobytes() == q_copy.tobytes()
