import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast.series import (
    ColumnSchema,
    IngestError,
    SeriesError,
    chronological_split,
    detect_gaps,
    ingest_csv,
    minmax_fit,
    minmax_transform,
    resample_hourly,
    series_from_csv,
    series_to_csv,
    unscale_array,
)

from conftest import make_series

SCHEMA = ColumnSchema(timestamp="Unix", aggregate="Aggregate", appliances=())


def write_csv(tmp_path, text, name="meter.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestIngest:
    def test_three_line_csv_parsed_in_order(self, tmp_path):
        path = write_csv(tmp_path, "Unix,Aggregate\n0,100\n8,110\n16,120\n")
        raw = ingest_csv(path, SCHEMA)
        assert raw.timestamps.tolist() == [0, 8, 16]
        assert raw.values[:, 0].tolist() == [100.0, 110.0, 120.0]

    def test_header_only_is_empty_series(self, tmp_path):
        path = write_csv(tmp_path, "Unix,Aggregate\n")
        with pytest.raises(IngestError, match="empty series"):
            ingest_csv(path, SCHEMA)

    def test_out_of_order_rows_are_sorted(self, tmp_path):
        sorted_raw = ingest_csv(
            write_csv(tmp_path, "Unix,Aggregate\n0,100\n8,110\n16,120\n", "a.csv"), SCHEMA
        )
        shuffled_raw = ingest_csv(
            write_csv(tmp_path, "Unix,Aggregate\n16,120\n0,100\n8,110\n", "b.csv"), SCHEMA
        )
        assert shuffled_raw.timestamps.tolist() == sorted_raw.timestamps.tolist()
        assert shuffled_raw.values.tolist() == sorted_raw.values.tolist()

    def test_duplicate_timestamps_keep_last(self, tmp_path):
        raw = ingest_csv(
            write_csv(tmp_path, "Unix,Aggregate\n0,100\n8,110\n8,999\n"), SCHEMA
        )
        assert raw.timestamps.tolist() == [0, 8]
        assert raw.values[1, 0] == 999.0

    def test_bad_value_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path, "Unix,Aggregate\n0,100\n8,oops\n")
        with pytest.raises(IngestError, match="line 3"):
            ingest_csv(path, SCHEMA)

    def test_negative_power_becomes_invalid_reading(self, tmp_path):
        raw = ingest_csv(write_csv(tmp_path, "Unix,Aggregate\n0,-5\n8,100\n"), SCHEMA)
        assert math.isnan(raw.values[0, 0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            ingest_csv(tmp_path / "nope.csv", SCHEMA)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "Time,Watts\n0,1\n")
        with pytest.raises(IngestError, match="missing column"):
            ingest_csv(path, SCHEMA)


class TestResample:
    def test_mean_per_hour_with_missing_middle(self, tmp_path):
        # 100 and 200 W inside hour 0, nothing in hour 1, 50 W in hour 2
        path = write_csv(tmp_path, "Unix,Aggregate\n0,100\n1800,200\n7500,50\n")
        hourly = resample_hourly(ingest_csv(path, SCHEMA))
        assert hourly.values[0, 0] == 150.0
        assert math.isnan(hourly.values[1, 0])
        assert hourly.values[2, 0] == 50.0

    def test_single_reading(self, tmp_path):
        hourly = resample_hourly(ingest_csv(write_csv(tmp_path, "Unix,Aggregate\n30,42\n"), SCHEMA))
        assert len(hourly) == 1
        assert hourly.values[0, 0] == 42.0

    def test_constant_cadence_readings(self, tmp_path):
        lines = "".join(f"{t},300\n" for t in range(0, 3 * 3600, 8))
        hourly = resample_hourly(ingest_csv(write_csv(tmp_path, "Unix,Aggregate\n" + lines), SCHEMA))
        assert hourly.values[:, 0].tolist() == [300.0, 300.0, 300.0]

    def test_hour_bucketing_is_half_open(self, tmp_path):
        # a reading exactly on the boundary belongs to the later hour
        path = write_csv(tmp_path, "Unix,Aggregate\n0,100\n3600,300\n")
        hourly = resample_hourly(ingest_csv(path, SCHEMA))
        assert hourly.values[:, 0].tolist() == [100.0, 300.0]

    def test_mass_conservation(self, tmp_path):
        rng = np.random.default_rng(7)
        ts = np.sort(rng.choice(np.arange(0, 50 * 3600), size=400, replace=False))
        vals = rng.uniform(0, 3000, size=400)
        lines = "".join(f"{t},{v}\n" for t, v in zip(ts, vals))
        raw = ingest_csv(write_csv(tmp_path, "Unix,Aggregate\n" + lines), SCHEMA)
        hourly = resample_hourly(raw)
        counts = np.bincount(ts // 3600, minlength=len(hourly))
        recon = np.nansum(hourly.values[:, 0] * counts)
        assert recon == pytest.approx(vals.sum(), rel=1e-6)

    def test_start_aligned_to_hour(self, tmp_path):
        raw = ingest_csv(write_csv(tmp_path, "Unix,Aggregate\n7200,1\n"), SCHEMA)
        hourly = resample_hourly(raw)
        assert hourly.start == datetime(1970, 1, 1, 2, tzinfo=timezone.utc)


class TestDetectGaps:
    def test_threshold_filters_short_runs(self):
        values = np.ones(200)
        values[10:12] = np.nan  # length 2
        values[50:130] = np.nan  # length 80
        report = detect_gaps(make_series(values), structural_threshold=24)
        assert report.gaps == ((50, 80),)

    def test_fully_observed_series(self):
        assert detect_gaps(make_series(np.ones(48)), 24).gaps == ()

    def test_fully_missing_series(self):
        report = detect_gaps(make_series(np.full(50, np.nan)), 24)
        assert report.gaps == ((0, 50),)

    def test_runs_are_maximal(self):
        values = np.ones(100)
        values[20:60] = np.nan
        series = make_series(values)
        ((start, length),) = detect_gaps(series, 24).gaps
        assert not math.isnan(series.values[start - 1, 0])
        assert not math.isnan(series.values[start + length, 0])

    def test_threshold_must_be_positive(self):
        with pytest.raises(SeriesError):
            detect_gaps(make_series(np.ones(5)), 0)


class TestMinMax:
    def test_fit_bounds(self):
        params = minmax_fit(make_series([0.0, 500.0, 1000.0]), (0, 3))
        assert params.mins[0] == 0.0 and params.maxs[0] == 1000.0

    def test_constant_channel_maps_to_zero(self):
        series = make_series([5.0, 5.0, 5.0])
        params = minmax_fit(series, (0, 3))
        assert params.mins[0] == params.maxs[0] == 5.0
        scaled = minmax_transform(series, params)
        assert scaled.values[:, 0].tolist() == [0.0, 0.0, 0.0]
        back = unscale_array(scaled.values, params.mins, params.maxs)
        assert back[:, 0].tolist() == [5.0, 5.0, 5.0]

    def test_segment_only_no_leakage(self):
        series = make_series([1.0, 2.0, 3.0, 1000.0])
        params = minmax_fit(series, (0, 2))
        assert params.maxs[0] == 2.0

    def test_transform_midpoint(self):
        series = make_series([500.0])
        params = minmax_fit(make_series([0.0, 1000.0]), (0, 2))
        assert minmax_transform(series, params).values[0, 0] == 0.5

    def test_out_of_range_value_not_clamped(self):
        params = minmax_fit(make_series([0.0, 1000.0]), (0, 2))
        scaled = minmax_transform(make_series([1200.0]), params)
        assert scaled.values[0, 0] == pytest.approx(1.2)

    def test_round_trip_example(self):
        series = make_series([12.3, 999.9])
        params = minmax_fit(series, (0, 2))
        back = unscale_array(minmax_transform(series, params).values, params.mins, params.maxs)
        np.testing.assert_allclose(back, series.values, rtol=1e-9)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_identity_property(self, values):
        series = make_series(values)
        params = minmax_fit(series, (0, len(values)))
        back = unscale_array(minmax_transform(series, params).values, params.mins, params.maxs)
        np.testing.assert_allclose(back, series.values, rtol=1e-9, atol=1e-9)

    def test_nan_preserved_through_transform(self):
        series = make_series([1.0, np.nan, 3.0])
        params = minmax_fit(series, (0, 3))
        scaled = minmax_transform(series, params)
        assert math.isnan(scaled.values[1, 0])

    def test_all_missing_channel_errors(self):
        with pytest.raises(SeriesError, match="all-missing"):
            minmax_fit(make_series([np.nan, np.nan]), (0, 2))


class TestSplit:
    def test_eighty_twenty(self):
        train, test = chronological_split(make_series(np.arange(10.0)), 0.8)
        assert (len(train), len(test)) == (8, 2)

    def test_floor_rule(self):
        train, test = chronological_split(make_series(np.arange(5.0)), 0.5)
        assert (len(train), len(test)) == (2, 3)

    def test_tiny_test_side(self):
        train, test = chronological_split(make_series(np.arange(10.0)), 0.99)
        assert (len(train), len(test)) == (9, 1)

    def test_partition_and_boundary(self):
        series = make_series(np.arange(30.0))
        train, test = chronological_split(series, 0.8)
        rejoined = np.vstack([train.values, test.values])
        np.testing.assert_array_equal(rejoined, series.values)
        assert train.start + timedelta(hours=len(train)) == test.start

    @given(st.integers(min_value=2, max_value=200), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, n, fraction):
        series = make_series(np.arange(float(n)))
        try:
            train, test = chronological_split(series, fraction)
        except SeriesError:
            n_train = math.floor(fraction * n)
            assert n_train in (0, n)
            return
        assert len(train) == math.floor(fraction * n)
        assert len(train) + len(test) == n

    def test_empty_side_errors(self):
        with pytest.raises(SeriesError):
            chronological_split(make_series(np.arange(3.0)), 0.05)


class TestCsvCache:
    def test_round_trip_exact(self, tmp_path):
        values = np.array([[1.25, np.nan], [np.nan, 3.7], [0.1, 123456.789]])
        series = make_series(values, channel_names=("Aggregate", "Appliance1"))
        path = tmp_path / "cache.csv"
        series_to_csv(series, path)
        back = series_from_csv(path)
        assert back.start == series.start
        assert back.channel_names == series.channel_names
        np.testing.assert_array_equal(back.values, series.values)

    def test_failed_write_keeps_previous_cache(self, tmp_path, tear_csv_writes):
        path = tmp_path / "cache.csv"
        series_to_csv(make_series(np.arange(6.0)), path)
        before = path.read_bytes()
        tear_csv_writes(3)
        with pytest.raises(OSError, match="disk full"):
            series_to_csv(make_series(np.arange(100.0, 200.0)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.csv"]

    def test_empty_cell_is_missing(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text("hour,Aggregate\n2013-10-07T00:00:00+00:00,\n", encoding="utf-8")
        assert math.isnan(series_from_csv(path).values[0, 0])
