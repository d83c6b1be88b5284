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


class TestCalendar:
    def test_saturday_afternoon_is_weekend(self):
        cols = calendar_features([datetime(2014, 3, 8, 14, tzinfo=timezone.utc)])  # Saturday
        assert cols["is_weekend"][0] == 1.0
        assert cols["hour"][0] == 14.0

    def test_wednesday_morning_in_march(self):
        cols = calendar_features([datetime(2014, 3, 5, 9, tzinfo=timezone.utc)])  # Wednesday
        assert cols["hour"][0] == 9.0
        assert cols["dayofweek"][0] == 2.0
        assert cols["month"][0] == 3.0
        assert cols["is_weekend"][0] == 0.0

    def test_sunday_midnight(self):
        cols = calendar_features([datetime(2014, 3, 9, 0, tzinfo=timezone.utc)])  # Sunday
        assert cols["is_weekend"][0] == 1.0
        assert cols["hour"][0] == 0.0

    def test_misaligned_timestamp_rejected(self):
        with pytest.raises(FeatureError, match="hour-aligned"):
            calendar_features([datetime(2014, 3, 9, 0, 30, tzinfo=timezone.utc)])


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
        assert matrix.column("lag_1hr")[0] == 0.0

    def test_channels_included_for_window_path(self):
        values = np.column_stack([np.arange(200.0), np.arange(200.0) * 2])
        series = make_series(values, channel_names=("Aggregate", "Appliance1"))
        matrix = assemble_matrix(series, lags=(1,), channels=("Aggregate", "Appliance1"))
        assert "Aggregate" in matrix.feature_order
        np.testing.assert_array_equal(matrix.column("Appliance1"), matrix.column("Aggregate") * 2)

    def test_anti_leakage_lag_shift(self):
        rng = np.random.default_rng(3)
        target = rng.uniform(0, 100, 250)
        matrix = assemble_matrix(make_series(target), lags=(1, 24))
        for k in (1, 24):
            np.testing.assert_array_equal(matrix.column(f"lag_{k}hr"), target[24 - k : -k])

    def test_empty_result_errors(self):
        with pytest.raises(FeatureError):
            assemble_matrix(make_series(np.full(200, np.nan)), lags=(1,))


class TestWindowize:
    def test_sample_count(self):
        matrix = assemble_matrix(make_series(np.arange(51.0)), lags=(1,))  # 50 rows
        tensor = windowize(matrix, window=48, horizon=1)
        assert tensor.n_samples == 2

    def test_too_few_rows(self):
        matrix = assemble_matrix(make_series(np.arange(49.0)), lags=(1,))  # 48 rows
        with pytest.raises(FeatureError):
            windowize(matrix, window=48, horizon=1)

    def test_tensor_shape_with_18_features(self):
        n = 120
        rng = np.random.default_rng(0)
        values = np.column_stack([np.arange(float(n))] + [rng.uniform(size=n) for _ in range(10)])
        names = ("Aggregate",) + tuple(f"Appliance{i}" for i in range(1, 11))
        series = make_series(values, channel_names=names)
        matrix = assemble_matrix(series, lags=(1, 24), channels=names, target_channel=0)
        assert len(matrix.feature_order) == 17
        # one more channel column brings the window width to 18
        matrix2 = assemble_matrix(
            make_series(np.column_stack([values, values[:, -1]]),
                        channel_names=names + ("Appliance11",)),
            lags=(1, 24), channels=names + ("Appliance11",), target_channel=0,
        )
        tensor = windowize(matrix2, window=48, horizon=1)
        assert tensor.data.shape == (len(matrix2) - 48, 48, 18)

    def test_window_rows_and_target_alignment(self):
        target = np.arange(60.0)
        matrix = assemble_matrix(make_series(target), lags=(1,))
        tensor = windowize(matrix, window=10, horizon=1)
        # sample 0 covers matrix rows [0, 10); its target is row 10's target
        np.testing.assert_array_equal(tensor.data[0], matrix.features[:10])
        assert tensor.targets[0, 0] == matrix.target[10]
        assert tensor.target_timestamps[0] == matrix.timestamps[10]

    def test_window_slices_are_contiguous(self):
        matrix = assemble_matrix(make_series(np.arange(30.0)), lags=(1,))
        ts = list(matrix.timestamps)
        ts[5] = ts[5] + timedelta(hours=5)
        broken = type(matrix)(tuple(ts), matrix.features, matrix.feature_order, matrix.target)
        with pytest.raises(FeatureError, match="contiguous"):
            windowize(broken, window=4, horizon=1)

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_formula_property(self, rows, window, horizon):
        series = make_series(np.arange(float(rows + 1)))
        matrix = assemble_matrix(series, lags=(1,))
        if rows < window + horizon:
            with pytest.raises(FeatureError):
                windowize(matrix, window=window, horizon=horizon)
        else:
            tensor = windowize(matrix, window=window, horizon=horizon)
            assert tensor.n_samples == rows - window - horizon + 1

    def test_windows_are_read_only_views_of_the_matrix(self):
        rng = np.random.default_rng(3)
        names = ("Aggregate", "Appliance1")
        series = make_series(rng.uniform(0.0, 1.0, (200, 2)), channel_names=names)
        matrix = assemble_matrix(series, lags=(1, 24), channels=names)
        matrix = type(matrix)(matrix.timestamps, matrix.features.astype(np.float32),
                              matrix.feature_order, matrix.target)
        tensor = windowize(matrix, window=24, horizon=1)
        assert np.shares_memory(tensor.data, matrix.features)
        assert not tensor.data.flags.writeable
        model = init_model(n_features=tensor.data.shape[2], hidden=(8, 4), seed=5, dtype=np.float32)
        q_view, _ = forward(model, tensor.data, keep_caches=False)
        q_copy, _ = forward(model, np.ascontiguousarray(tensor.data), keep_caches=False)
        assert q_view.tobytes() == q_copy.tobytes()

    def test_multi_step_targets(self):
        matrix = assemble_matrix(make_series(np.arange(30.0)), lags=(1,))
        tensor = windowize(matrix, window=5, horizon=3)
        np.testing.assert_array_equal(tensor.targets[0], matrix.target[5:8])
