"""How ``prepare_data`` fills each segment, and the ``source`` codes it keeps.

The reference below is the per-run loop the pipeline used before it filled
all of a segment's structural runs in one call per imputer: one copy and
one calendar per run, linear tried first and seasonal on its failure.
"""

import sys
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast import imputation, pipeline
from loadcast.config import config_from_dict, load_config
from loadcast.features import calendar_features
from loadcast.series import HourlySeries, chronological_split, missing_runs
from loadcast.synth import regime_switching_series, write_meter_csv

from conftest import MONDAY, make_series
from test_pipeline import load_hourly

OBSERVED, KNN, LINEAR, SEASONAL, FALLBACK = range(5)


# ---------------------------------------------------------------------------
# the per-run loop, as a reference
# ---------------------------------------------------------------------------


def ref_linear_impute(series, index_range):
    start, stop = index_range
    if not 0 < start <= stop < len(series):
        raise imputation.ImputationError("range must be interior")
    out = series.values.copy()
    for c in range(series.n_channels):
        col = out[start:stop, c]
        holes = np.isnan(col)
        if not holes.any():
            continue
        left, right = out[start - 1, c], out[stop, c]
        if np.isnan(left) or np.isnan(right):
            raise imputation.ImputationError("no present anchor adjacent to the gap")
        t = np.arange(start, stop, dtype=float)
        line = left + (right - left) * (t - (start - 1)) / (stop - (start - 1))
        col[holes] = line[holes]
    return series.with_values(out)


def ref_linear_fallback(col, idx):
    present = np.flatnonzero(~np.isnan(col))
    if present.size == 0:
        raise imputation.ImputationError("profile cell empty and no data for fallback")
    out = np.empty(len(idx))
    global_mean = float(np.mean(col[present]))
    for j, i in enumerate(idx):
        pos = np.searchsorted(present, i)
        if 0 < pos < len(present):
            a, b = present[pos - 1], present[pos]
            va, vb = col[a], col[b]
            out[j] = va + (vb - va) * (i - a) / (b - a)
        else:
            out[j] = global_mean
    return out


def ref_seasonal_impute(series, index_range, profile):
    start, stop = index_range
    cal = calendar_features(series.start, np.arange(len(series)))
    dow, hod = cal["dayofweek"].astype(np.intp), cal["hour"].astype(np.intp)
    out = series.values.copy()
    for c in range(series.n_channels):
        col = out[:, c]
        hole_idx = np.flatnonzero(np.isnan(col[start:stop])) + start
        if hole_idx.size == 0:
            continue
        fills = profile.means[dow[hole_idx], hod[hole_idx], c]
        missing_cells = np.isnan(fills)
        if missing_cells.any():
            fills[missing_cells] = ref_linear_fallback(col, hole_idx[missing_cells])
        col[hole_idx] = fills
    return series.with_values(out)


def ref_fill_remaining_gaps(series, chosen, profile):
    any_missing = np.isnan(series.values).any(axis=1)
    for start, length in missing_runs(any_missing):
        rng = (start, start + length)
        if chosen == "linear":
            try:
                series = ref_linear_impute(series, rng)
                continue
            except imputation.ImputationError:
                pass
        series = ref_seasonal_impute(series, rng, profile)
    return series


def ref_impute_split(cfg, train, test, chosen):
    train = imputation.knn_impute(train, cfg.knn_k, cfg.knn_max_gap)
    if np.isnan(train.values).any():
        profile = imputation.build_seasonal_profile(train)
        train = ref_fill_remaining_gaps(train, chosen, profile)
    train_profile = imputation.build_seasonal_profile(train)
    if np.isnan(test.values).any():
        test = imputation.knn_impute(test, cfg.knn_k, cfg.knn_max_gap)
    if np.isnan(test.values).any():
        test = ref_fill_remaining_gaps(test, chosen, train_profile)
    return HourlySeries(train.start, np.vstack([train.values, test.values]), train.channel_names)


# ---------------------------------------------------------------------------
# one pass per imputer against the per-run loop
# ---------------------------------------------------------------------------


def trailing_mean_cells(source: np.ndarray) -> np.ndarray:
    """Fallback cells after the last reading of their channel that kNN left:
    the one case where the per-run loop's channel mean also averaged the
    fills of earlier runs."""
    after_last = np.zeros(source.shape, dtype=bool)
    for c in range(source.shape[1]):
        kept = np.flatnonzero(source[:, c] <= KNN)
        after_last[(kept[-1] + 1 if kept.size else 0):, c] = True
    return after_last & (source == FALLBACK)


def named_case_cells(series: HourlySeries, source: np.ndarray, split: int) -> np.ndarray:
    """``trailing_mean_cells`` of both segments, and the test segment's
    profile fills whose weekly cell averages one of the train segment's:
    the test profile is the imputed train segment's."""
    train_cells = trailing_mean_cells(source[:split])
    cal = calendar_features(series.start, np.arange(len(series)))
    week = cal["dayofweek"] * 24 + cal["hour"]
    via_profile = np.column_stack([
        np.isin(week[split:], week[:split][train_cells[:, c]]) for c in range(series.n_channels)
    ]) & (source[split:] == SEASONAL)
    return np.vstack([train_cells, trailing_mean_cells(source[split:]) | via_profile])


@st.composite
def households(draw):
    """Two to five weeks of a weekly signal on one to three channels, from
    any hour of the week, with scattered holes, structural runs on some or
    all channels (at both ends of both segments among them) and, at times,
    a sparse channel whose weekly profile cells go empty."""
    n = draw(st.integers(48, 5 * 168))
    n_channels = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hours = np.arange(n)[:, None]
    values = 200.0 + 50.0 * np.sin(hours * 2 * np.pi / 24 + np.arange(n_channels))
    values = values * rng.uniform(0.5, 1.5, (n, n_channels))
    values[rng.random((n, n_channels)) < draw(st.floats(0.0, 0.15))] = np.nan
    split_fraction = draw(st.floats(0.3, 0.8))
    split = int(np.floor(split_fraction * n))
    for _ in range(draw(st.integers(0, 8))):
        length = int(rng.integers(1, 40))
        # from or up to an edge of either segment, or anywhere
        start = max(0, int(rng.choice([0, split - length, split, n - length, rng.integers(n)])))
        channels = rng.random(n_channels) < 0.6
        if not channels.any():
            channels[rng.integers(n_channels)] = True
        values[start:start + length, channels] = np.nan
    if draw(st.booleans()):  # a sparse channel: most weekly cells never observed
        c = int(rng.integers(n_channels))
        values[rng.random(n) < 0.9, c] = np.nan
    start = MONDAY + timedelta(hours=draw(st.integers(0, 167)))
    cfg = config_from_dict({"input_path": "meter.csv", "output_dir": "out",
                            "split_fraction": split_fraction,
                            "knn_k": draw(st.integers(1, 3)),
                            "knn_max_gap": draw(st.integers(1, 6))})
    return cfg, make_series(values, start=start), draw(st.sampled_from(["linear", "seasonal"]))


@settings(max_examples=200, deadline=None)
@given(case=households())
def test_impute_split_bitwise_equal_to_per_run_loop(case):
    """Every filled value is the per-run loop's, bit for bit, but for the
    cells ``named_case_cells`` names; ``source`` says which cells were
    observed."""
    cfg, series, chosen = case
    train, test = chronological_split(series, cfg.split_fraction)
    try:
        want = ref_impute_split(cfg, train, test, chosen).values
    except imputation.ImputationError:
        with pytest.raises(imputation.ImputationError):
            pipeline._impute_split(cfg, train, test, chosen)
        return
    got, source = pipeline._impute_split(cfg, train, test, chosen)
    assert source.dtype == np.int8 and not source.flags.writeable
    np.testing.assert_array_equal(source == OBSERVED, ~np.isnan(series.values))
    assert not np.isnan(got.values).any()
    split = len(train)
    same = ~named_case_cells(series, source, split)
    assert got.values[same].tobytes() == want[same].tobytes()
    for lo, hi in ((0, split), (split, len(series))):
        part, values = source[lo:hi], got.values[lo:hi]
        cells = trailing_mean_cells(part)
        for c in range(series.n_channels):
            # the mean of the channel's readings in the segment as kNN left it
            mean = float(np.mean(values[part[:, c] <= KNN, c])) if cells[:, c].any() else None
            assert (values[cells[:, c], c] == mean).all()
    if chosen == "seasonal":
        assert not (source == LINEAR).any()


def test_trailing_edge_fallback_takes_the_mean_of_the_series_as_passed():
    """A trailing edge run's hole with an empty profile cell and no later
    reading takes its channel's mean over the segment as kNN left it; the
    per-run loop also averaged the fills of the earlier runs."""
    values = np.full(40, np.nan)
    values[:10] = 100.0
    values[18:23] = 400.0  # hours 23-29 stay missing: longer than knn_max_gap
    values[30:] = 7.0  # the test segment, fully observed
    cfg = config_from_dict({"input_path": "meter.csv", "output_dir": "out",
                            "split_fraction": 0.75})
    train, test = chronological_split(make_series(values), cfg.split_fraction)
    got, source = pipeline._impute_split(cfg, train, test, "seasonal")
    # 30 hours from Monday 00:00: no weekly cell is seen twice, so every hole falls back
    assert source[:30, 0].tolist() == [0] * 10 + [FALLBACK] * 8 + [0] * 5 + [FALLBACK] * 7
    observed_mean = float(np.mean(values[np.r_[0:10, 18:23]]))
    assert observed_mean == 200.0
    assert got.values[23:30, 0].tolist() == [observed_mean] * 7
    assert got.values[10:18, 0].tolist() == (100.0 + 300.0 * np.arange(1, 9) / 9).tolist()
    want = ref_impute_split(cfg, train, test, "seasonal").values
    assert want[23, 0] == float(np.mean(want[:23, 0])) != observed_mean


# ---------------------------------------------------------------------------
# source codes
# ---------------------------------------------------------------------------


def toy_household() -> HourlySeries:
    """Five weeks from a Monday on two channels, split 4 weeks / 1 week at
    the default fraction, with one gap for each way of filling it.

    Train segment (hours 0-671):
      - kNN: channel 0, hours 100-101 (2 cells);
      - an interior run on both channels, hours 300-309 (20 cells);
      - channel 1 at Tuesday 02:00-11:00 of all four weeks (40 cells), so
        those weekly cells are empty in the profile;
      - a trailing edge run on channel 0, hours 662-671 (10 cells).
    Test segment (hours 672-839):
      - a leading edge run on channel 0, its first 8 hours (8 cells);
      - kNN: channel 1, its hours 20-22 (3 cells);
      - an interior run on both channels, its hours 80-89 (20 cells).
    """
    series = regime_switching_series(5 * 168, noise=0.1, n_appliances=1, seed=5)
    values = series.values.copy()
    values[100:102, 0] = np.nan
    values[300:310, :] = np.nan
    for week in range(4):
        values[week * 168 + 50 : week * 168 + 60, 1] = np.nan
    values[662:672, 0] = np.nan
    values[672:680, 0] = np.nan
    values[692:695, 1] = np.nan
    values[752:762, :] = np.nan
    return series.with_values(values)


# cells per code (kNN, linear, seasonal, fallback) in (train, test)
TOY_COUNTS = {
    "seasonal": ([2, 0, 30, 40], [3, 0, 28, 0]),
    # the edge runs have an anchor on one side only: seasonal profile
    "linear": ([2, 60, 10, 0], [3, 20, 8, 0]),
}


@pytest.mark.parametrize("chosen", sorted(TOY_COUNTS))
def test_toy_household_counts_per_segment_and_method(chosen):
    hourly = toy_household()
    cfg = config_from_dict({"input_path": "meter.csv", "output_dir": "out"})
    data = pipeline.prepare_data(cfg, hourly, chosen)
    assert data.split_idx == 672
    assert data.source.dtype == np.int8 and not data.source.flags.writeable
    np.testing.assert_array_equal(data.source == OBSERVED, ~np.isnan(hourly.values))
    counts = tuple(np.bincount(part.ravel(), minlength=5)[1:].tolist()
                   for part in (data.source[:672], data.source[672:]))
    assert counts == TOY_COUNTS[chosen]
    assert (data.source[662:680, 0] == SEASONAL).all()
    assert not np.isnan(data.full.values).any()


def _observed_where_cached(cfg) -> None:
    pipeline.cmd_ingest(cfg)
    _, chosen = pipeline.cmd_impute_eval(cfg)
    hourly = load_hourly(cfg)
    data = pipeline.prepare_data(cfg, hourly, chosen)
    np.testing.assert_array_equal(data.source == OBSERVED, ~np.isnan(hourly.values))
    assert (data.source > OBSERVED).any()


def test_source_observed_exactly_where_c9_cache_has_a_value(tmp_path):
    from test_acceptance import _c9_inputs

    _observed_where_cached(_c9_inputs(tmp_path))


def test_source_observed_exactly_where_toy_prep_refit_cache_has_a_value(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)

    inputs = workloads.generate(workloads.toy(workloads.WORKLOADS["prep_refit"]), 501, tmp_path)
    _observed_where_cached(load_config(inputs / "config.json"))


def test_submeter_dying_in_the_test_segment_trains(tmp_path):
    """A channel with fewer than knn_k readings in a segment, and no run
    short enough for kNN, takes the train profile instead of failing."""
    series = regime_switching_series(20 * 168, noise=0.15, n_appliances=2, seed=8)
    split = int(np.floor(0.8 * len(series)))
    values = series.values.copy()
    values[split + 2:, 2] = np.nan
    write_meter_csv(tmp_path / "meter.csv", series.with_values(values), cadence_seconds=1800)
    cfg = config_from_dict({
        "input_path": str(tmp_path / "meter.csv"), "output_dir": str(tmp_path / "out"),
        "columns": {"appliances": list(series.channel_names[1:])},
        "roster": ["seasonal_naive"],
    })
    pipeline.cmd_ingest(cfg)
    _, chosen = pipeline.cmd_impute_eval(cfg)
    pipeline.cmd_train(cfg)
    assert pipeline.load_manifest(cfg)["models"]["seasonal_naive"]["status"] == "ok"
    data = pipeline.prepare_data(cfg, load_hourly(cfg), chosen)
    assert (data.source[split + 2:, 2] == SEASONAL).all()
    assert (data.source[:split + 2, 2] == OBSERVED).all()


def test_submeter_dead_in_the_train_segment_names_the_channel(tmp_path):
    """A channel with no reading in the train segment cannot be imputed
    there. impute-eval, and train's data preparation under either imputer,
    stop with a PipelineError that names it, the segment and its hours, and
    says how to drop it, not with an imputer's error."""
    series = regime_switching_series(20 * 168, noise=0.15, n_appliances=2, seed=9)
    split = int(np.floor(0.8 * len(series)))
    values = series.values.copy()
    values[:split, 2] = np.nan
    write_meter_csv(tmp_path / "meter.csv", series.with_values(values), cadence_seconds=1800)
    cfg = config_from_dict({
        "input_path": str(tmp_path / "meter.csv"), "output_dir": str(tmp_path / "out"),
        "columns": {"appliances": list(series.channel_names[1:])},
        "roster": ["seasonal_naive"],
    })
    pipeline.cmd_ingest(cfg)
    last = series.start + timedelta(hours=split - 1)
    want = (f"channel {series.channel_names[2]!r} has no reading in the train segment, "
            f"hours {series.start.isoformat()} to {last.isoformat()} ({split} hours); "
            "drop it from columns.appliances")
    with pytest.raises(pipeline.PipelineError) as err:
        pipeline.cmd_impute_eval(cfg)
    assert str(err.value) == want
    for chosen in ("linear", "seasonal"):
        with pytest.raises(pipeline.PipelineError) as err:
            pipeline.prepare_data(cfg, load_hourly(cfg), chosen)
        assert str(err.value) == want, chosen
