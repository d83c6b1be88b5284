import hashlib
import io
import json
import math
import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadcast import series as series_mod
from loadcast.series import (
    ColumnSchema,
    HourlySeries,
    HourlySums,
    IngestError,
    ScalerParams,
    SeriesError,
    chronological_split,
    detect_gaps,
    ingest_csv,
    missing_runs,
    minmax_fit,
    minmax_transform,
    read_blob,
    read_header,
    resample_hourly,
    series_from_csv,
    series_to_csv,
    unscale_array,
    write_header_blob,
)
from loadcast.synth import regime_switching_series, write_meter_csv

from conftest import MONDAY, make_series

SCHEMA = ColumnSchema(timestamp="Unix", aggregate="Aggregate", appliances=())


def write_csv(tmp_path, text, name="meter.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def line_rows(path, schema=SCHEMA):
    """The line parser's rows as Python lists: (timestamps, readings)."""
    ts, values = series_mod._line_rows(path, schema)
    return ts.tolist(), values.tolist()


class TestIngest:
    def test_three_line_csv_parsed_in_order(self, tmp_path):
        path = write_csv(tmp_path, "Unix,Aggregate\n0,100\n8,110\n3616,120\n")
        assert line_rows(path) == ([0, 8, 3616], [[100.0], [110.0], [120.0]])
        sums = ingest_csv(path, SCHEMA)
        assert (sums.first_hour, len(sums)) == (0, 3)
        assert sums.table.tolist() == [[210.0, 2.0], [120.0, 1.0]]

    def test_header_only_is_empty_series(self, tmp_path):
        path = write_csv(tmp_path, "Unix,Aggregate\n")
        with pytest.raises(IngestError, match="empty series"):
            ingest_csv(path, SCHEMA)

    def test_out_of_order_rows_are_sorted(self, tmp_path):
        ordered = write_csv(tmp_path, "Unix,Aggregate\n0,100\n8,110\n3616,120\n", "a.csv")
        shuffled = write_csv(tmp_path, "Unix,Aggregate\n3616,120\n0,100\n8,110\n", "b.csv")
        assert line_rows(shuffled) == line_rows(ordered)
        assert_same_outcome(ingest_csv(shuffled, SCHEMA), ingest_csv(ordered, SCHEMA))

    def test_duplicate_timestamps_keep_last(self, tmp_path):
        path = write_csv(tmp_path, "Unix,Aggregate\n0,100\n8,110\n8,999\n")
        assert line_rows(path) == ([0, 8], [[100.0], [999.0]])
        sums = ingest_csv(path, SCHEMA)
        assert (len(sums), sums.table.tolist()) == (2, [[1099.0, 2.0]])

    def test_bad_value_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path, "Unix,Aggregate\n0,100\n8,oops\n")
        with pytest.raises(IngestError, match="line 3"):
            ingest_csv(path, SCHEMA)

    def test_negative_power_becomes_invalid_reading(self, tmp_path):
        path = write_csv(tmp_path, "Unix,Aggregate\n0,-5\n8,100\n16,inf\n24,nan\n32,\n")
        assert len(line_rows(path)[0]) == 5
        sums = ingest_csv(path, SCHEMA)
        assert (len(sums), sums.table.tolist()) == (5, [[100.0, 1.0]])
        assert resample_hourly(sums).values.tolist() == [[100.0]]

    @pytest.mark.parametrize("ts", ["inf", "-inf", "1e30"])
    def test_timestamp_outside_int64_names_line(self, tmp_path, ts):
        path = write_csv(tmp_path, f"Unix,Aggregate\n0,5\n{ts},5\n")
        with pytest.raises(IngestError, match=f"meter.csv: line 3: bad timestamp '{ts}'"):
            ingest_csv(path, SCHEMA)

    def test_timestamps_further_apart_than_int64_holds(self, tmp_path):
        """The order check compares neighbours, where a difference of 2**63
        would wrap. Parsed in order, the two readings span far more hours
        than a table can hold: both parsers name the span."""
        path = write_csv(tmp_path, f"Unix,Aggregate\n{-(2**62)},1\n{2**62},2\n")
        assert line_rows(path)[0] == [-(2**62), 2**62]
        first, last = -(2**62) // 3600, 2**62 // 3600
        for parse in (ingest_csv, series_mod._ingest_lines):
            with pytest.raises(IngestError, match=f"meter.csv: readings span {last - first + 1} "
                               f"hours, from unix hour {first} to {last}"):
                parse(path, SCHEMA)

    def test_century_of_hours_is_the_most_a_table_holds(self, tmp_path):
        last = series_mod._MAX_HOURS * 3600 - 1
        sums = ingest_csv(write_csv(tmp_path, f"Unix,Aggregate\n0,1\n{last},2\n"), SCHEMA)
        assert len(sums.table) == series_mod._MAX_HOURS
        with pytest.raises(IngestError, match="more than"):
            ingest_csv(write_csv(tmp_path, f"Unix,Aggregate\n0,1\n{last + 1},2\n"), SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            ingest_csv(tmp_path / "nope.csv", SCHEMA)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "Time,Watts\n0,1\n")
        with pytest.raises(IngestError, match="missing column"):
            ingest_csv(path, SCHEMA)

    @pytest.mark.parametrize("case", ["header read", "first block", "past the first block",
                                      "line parser"])
    def test_non_utf8_byte_names_the_file_and_its_byte(self, tmp_path, case):
        """The byte is the file's own offset, not one within a decoded chunk."""
        lines = [b"Unix,Aggregate"] + [b"%d,%d.125" % (t * 8, t % 1000) for t in range(40_000)]
        bad = {"header read": 2, "first block": 9_000}.get(case, 30_000)
        lines[bad] += b"\xe9"
        if case == "line parser":
            lines[5] = b'40,"4.125"'  # a quoted cell: the block reader hands over at once
        data = b"\n".join(lines) + b"\n"
        path = tmp_path / "meter.csv"
        path.write_bytes(data)
        at = data.index(b"\xe9")
        assert (at > series_mod._BLOCK_CHARS) == (bad == 30_000)
        with pytest.raises(IngestError, match=rf"meter\.csv: not UTF-8 text at byte {at}$"):
            ingest_csv(path, SCHEMA)

    def test_non_utf8_byte_offset_counts_a_character_cut_between_reads(self, tmp_path):
        """A two-byte character straddles the first 1 MiB the search reads,
        and a file that ends inside a character points at its first byte."""
        head = b"x" * ((1 << 20) - 1) + "à".encode() + b"y" * 10
        for data, at in ((head + b"\xe9\n", len(head)), (b"Unix,Aggregate\n0,1\n\xc3", 19)):
            path = tmp_path / "meter.csv"
            path.write_bytes(data)
            assert str(series_mod._not_utf8(path, IngestError)) == \
                f"{path}: not UTF-8 text at byte {at}"


DIFF_SCHEMA = ColumnSchema("Unix", "Aggregate", ("Appliance1", "Appliance2"))

# Cells numpy's reader and Python's float() both parse, spelled as meter
# files and repr spell them.
TIMESTAMP_CELLS = st.one_of(
    st.integers(0, 40).map(str),  # few values: unsorted rows and duplicates
    st.integers(-(2**62), 2**62).map(str),
    st.floats(-1e12, 1e12).map(repr),
)
VALUE_CELLS = st.one_of(
    st.just(""),  # a quarter of the cells are blank
    st.floats(0, 5000).map(lambda v: f"{v:.3f}"),
    st.floats().map(repr),  # nan, inf, -inf, -0.0, 1e+300, ...
    st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "-5", "-0.0", "1e-5", "+7", ".5"]),
)
# an unparsed column: a multi-byte character there keeps the block on the fast path
TIME_CELLS = st.sampled_from(["2013-10-07 00:00:00", "7 oct. 2013 à 00:00", "x", ""])


@st.composite
def raw_csvs(draw):
    """A raw meter CSV that numpy's reader parses exactly as the csv module
    does, as (header, rows, line ending, trailing line ending)."""
    header = draw(st.permutations(["Unix", "Aggregate", "Appliance1", "Appliance2"]
                                  + (["Time"] if draw(st.booleans()) else [])))
    cells = {"Unix": TIMESTAMP_CELLS, "Time": TIME_CELLS}
    rows = draw(st.lists(st.tuples(*[cells.get(h, VALUE_CELLS) for h in header]).map(list),
                         min_size=1, max_size=25))
    return header, rows, draw(st.sampled_from(["\n", "\r\n", "\r"])), draw(st.booleans())


def csv_text(header, rows, eol, trailing):
    return eol.join(",".join(r) for r in [header, *rows]) + (eol if trailing else "")


def ingest_both(path, schema=DIFF_SCHEMA):
    """(ingest_csv's outcome, the line parser's outcome, whether ingest_csv
    fell back to it); an outcome is an HourlySums or an IngestError message."""

    def outcome(parse):
        try:
            return parse(path, schema)
        except IngestError as exc:
            return str(exc)

    reference = outcome(series_mod._ingest_lines)
    with mock.patch.object(series_mod, "_ingest_lines", wraps=series_mod._ingest_lines) as spy:
        got = outcome(ingest_csv)
    return got, reference, spy.called


def assert_same_outcome(got, reference):
    if isinstance(reference, str):
        assert got == reference
        return
    assert not isinstance(got, str), got
    a, b = got.table, reference.table
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert (got.first_hour, got.channel_names, len(got)) == (
        reference.first_hour, reference.channel_names, len(reference))


def resample_reference(timestamps, values):
    """The per-channel masked resample the fold replaced, kept as its
    reference: (start, hourly means) of rows sorted by timestamp."""
    idx = timestamps // 3600 - timestamps[0] // 3600
    out = np.full((idx[-1] + 1, values.shape[1]), np.nan)
    for c in range(values.shape[1]):
        col = values[:, c]
        valid = np.isfinite(col) & (col >= 0)
        counts = np.bincount(idx[valid], minlength=len(out))
        sums = np.bincount(idx[valid], weights=col[valid], minlength=len(out))
        present = counts > 0
        out[present, c] = sums[present] / counts[present]
    return series_mod._EPOCH + timedelta(hours=int(timestamps[0] // 3600)), out


def assert_hourly_is_the_reference(path, schema=None):
    """resample_hourly(ingest_csv(path)) is bitwise the reference resample
    of the line parser's rows."""
    schema = schema or ColumnSchema()
    hourly = resample_hourly(ingest_csv(path, schema))
    start, values = resample_reference(*series_mod._line_rows(path, schema))
    assert hourly.start == start
    assert (hourly.values.shape, hourly.values.tobytes()) == (values.shape, values.tobytes())
    return hourly


def meter_text(timestamps, values, eol="\n"):
    """A meter CSV with the default columns, one row per timestamp, a blank
    cell where a value is NaN."""
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack([timestamps, values]),
               fmt=["%d"] + ["%.1f"] * values.shape[1], delimiter=",", newline=eol,
               header=",".join(("Unix", *ColumnSchema().channels)), comments="")
    return buf.getvalue().replace("nan", "")


def block_timestamps(path):
    """The timestamp column of each block the fast path parses from ``path``."""
    with open(path, newline="", encoding="utf-8") as fh:
        cols, width = series_mod._raw_columns(fh, path, ColumnSchema())
        return [rows[:, 0] for rows in series_mod._numeric_blocks(fh, cols, width)]


def meter_readings(n, seed, step=8):
    """``n`` strictly increasing timestamps ``step`` s apart and their
    readings, a tenth of them blank and a few negative."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-50.0, 3000.0, (n, 10)).round(1)  # as written
    values[rng.random(values.shape) < 0.1] = np.nan
    return 1_380_000_000 + step * np.arange(n), values


class TestIngestFastPath:
    """ingest_csv folds numpy's parse block by block and hands what numpy
    could read differently, or rows out of order, to the line parser; both
    must agree bitwise."""

    @given(raw_csvs())
    @settings(max_examples=150, deadline=None)
    def test_fast_path_equals_line_parser(self, tmp_path_factory, table):
        header, rows, _, _ = table
        ts = [int(float(row[header.index("Unix")])) for row in rows]
        in_order = all(a < b for a, b in zip(ts, ts[1:]))
        path = tmp_path_factory.getbasetemp() / "fast.csv"
        path.write_text(csv_text(*table), encoding="utf-8", newline="")
        got, reference, fell_back = ingest_both(path)
        # rows out of order, and a span the line parser rejects, take the line parser
        assert fell_back == (not in_order or isinstance(reference, str))
        assert_same_outcome(got, reference)

    @given(raw_csvs(), st.sampled_from(["quote", "hash", "short", "underscore",
                                        "whitespace row", "blank row"]),
           st.integers(0, 24), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_fallback_equals_line_parser(self, tmp_path_factory, table, kind, at, col):
        header, rows, eol, trailing = table
        row = rows[at % len(rows)]
        col %= len(row)
        if kind == "quote":
            row[col] = f'"{row[col]}"'
        elif kind == "hash":
            row[col] += "#"
        elif kind == "short":
            row.pop()
        elif kind == "underscore":  # in a column numpy reads: Time is never parsed
            row[header.index("Aggregate") if header[col] == "Time" else col] = "1_000"
        else:
            rows.insert(at % len(rows), [" \t "] if kind == "whitespace row" else [""] * len(header))
        path = tmp_path_factory.getbasetemp() / "fallback.csv"
        path.write_text(csv_text(header, rows, eol, trailing), encoding="utf-8", newline="")
        got, reference, fell_back = ingest_both(path)
        assert fell_back
        assert_same_outcome(got, reference)

    def test_bad_value_past_the_first_block_names_its_line(self, tmp_path):
        lines = ["Unix,Aggregate"] + [f"{t * 8},{t % 1000}.125" for t in range(40_000)]
        lines[30_001] = "240000,1.5x"  # line 30002 of the file, past 512 KiB
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        assert path.stat().st_size > 2 * series_mod._BLOCK_CHARS
        with pytest.raises(IngestError, match="line 30002: bad value '1.5x'"):
            ingest_csv(path, SCHEMA)
        with pytest.raises(IngestError, match="line 30002: bad value '1.5x'"):
            series_mod._ingest_lines(path, SCHEMA)

    @pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"],
                             ids=["LF line ends", "bare CR line ends", "CRLF line ends"])
    def test_multi_block_file_stays_on_fast_path(self, tmp_path, eol):
        """Bare-CR and CRLF line ends must not leave the fast path, with
        blank cells before every kind of line end."""
        path = tmp_path / "meter.csv"
        path.write_text(meter_text(*meter_readings(12_000, 5), eol), encoding="utf-8", newline="")
        assert len(block_timestamps(path)) > 2
        got, reference, fell_back = ingest_both(path, ColumnSchema())
        assert not fell_back
        assert_same_outcome(got, reference)
        assert len(got) == 12_000
        assert_hourly_is_the_reference(path)

    @pytest.mark.parametrize("case", ["disorder across blocks", "duplicate across blocks"])
    def test_disorder_across_blocks_takes_the_line_parser(self, tmp_path, case):
        """Each block increases, but the second starts at or before the end
        of the first: the file goes to the line parser, which sorts and
        keeps the last duplicate, and the hourly means are today's."""
        timestamps, values = meter_readings(12_000, 5)
        path = tmp_path / "meter.csv"
        path.write_text(meter_text(timestamps, values), encoding="utf-8", newline="")
        b = len(block_timestamps(path)[0])  # the row that starts the second block
        if case == "disorder across blocks":
            timestamps[b:] -= 8 * 100 + 4
        else:
            timestamps[b] = timestamps[b - 1]
        path.write_text(meter_text(timestamps, values), encoding="utf-8", newline="")
        first, second, *_ = block_timestamps(path)
        assert len(first) == b and all(np.all(np.diff(t) > 0) for t in (first, second))
        got, reference, fell_back = ingest_both(path, ColumnSchema())
        assert fell_back
        assert_same_outcome(got, reference)
        if case == "duplicate across blocks":
            assert len(got) == 12_000 - 1
            ts, rows = series_mod._line_rows(path, ColumnSchema())
            np.testing.assert_array_equal(rows[b - 1], values[b])
        else:
            assert len(got) == 12_000
        assert_hourly_is_the_reference(path)

    def test_small_blocks_fold_bitwise(self, tmp_path, monkeypatch):
        """Blocks of a few lines: an hour split across blocks, blocks wholly
        inside one hour and empty hours between blocks all fold to the line
        parser's table, bit for bit."""
        timestamps, values = meter_readings(3_000, 8, step=7)
        timestamps[1_000:] += 5 * 3600  # five empty hours
        timestamps[2_000:] += 3600 * 3600  # and 150 days
        path = tmp_path / "meter.csv"
        path.write_text(meter_text(timestamps, values), encoding="utf-8", newline="")
        monkeypatch.setattr(series_mod, "_BLOCK_CHARS", 200)
        hours = [t // 3600 for t in block_timestamps(path)]
        spans = [(h[0], h[-1]) for h in hours]
        assert any(lo == hi for lo, hi in spans)  # a block inside one hour
        assert any(a[1] == b[0] for a, b in zip(spans, spans[1:]))  # an hour split across blocks
        assert any(b[0] > a[1] + 1 for a, b in zip(spans, spans[1:]))  # empty hours between
        got, reference, fell_back = ingest_both(path, ColumnSchema())
        assert not fell_back
        assert_same_outcome(got, reference)
        assert_hourly_is_the_reference(path)

    @given(st.lists(st.integers(1, 9000), min_size=1, max_size=120),
           st.integers(40, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_any_block_size_folds_bitwise(self, tmp_path_factory, steps, block_chars, seed):
        rng = np.random.default_rng(seed)
        timestamps = 1_380_000_000 + np.cumsum(steps)
        values = rng.uniform(-10.0, 1e4, (len(steps), 10))
        values[rng.random(values.shape) < 0.2] = np.nan
        path = tmp_path_factory.getbasetemp() / "blocks.csv"
        path.write_text(meter_text(timestamps, values), encoding="utf-8", newline="")
        with mock.patch.object(series_mod, "_BLOCK_CHARS", block_chars):
            got, reference, fell_back = ingest_both(path, ColumnSchema())
        assert not fell_back
        assert_same_outcome(got, reference)
        assert_hourly_is_the_reference(path)

    def test_ingest_peak_does_not_grow_with_raw_rows(self, tmp_path):
        """The same household at N and 4N raw rows: parse and resample hold
        the hour table and one block, not the rows."""
        peaks, hours = [], set()
        for step in (240, 60):
            timestamps, values = meter_readings(45 * 24 * 3600 // step, 11, step)
            path = tmp_path / f"meter-{step}.csv"
            path.write_text(meter_text(timestamps, values), encoding="utf-8", newline="")
            assert path.stat().st_size > 4 * series_mod._BLOCK_CHARS
            tracemalloc.start()
            try:
                hourly = resample_hourly(ingest_csv(path))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            hours.add(len(hourly))
        assert len(hours) == 1
        assert peaks[1] < 1.2 * peaks[0], peaks

    def test_meter_file_never_takes_the_line_parser(self, tmp_path, monkeypatch):
        """A silent fallback would lose the fast path without failing a test."""
        hourly = regime_switching_series(24 * 21, noise=0.2, n_appliances=3, seed=4)
        values = hourly.values.copy()
        values[100:130, -1] = np.nan  # sub-meter blanks on the last channel
        values[40:45, 2] = np.nan
        values[300:320, :] = np.nan  # whole-meter outage: no rows at all
        path = tmp_path / "meter.csv"
        write_meter_csv(path, hourly.with_values(values), cadence_seconds=600)
        schema = ColumnSchema(appliances=hourly.channel_names[1:])
        reference = series_mod._ingest_lines(path, schema)

        def no_line_parser(*args):
            raise AssertionError("fell back to the line parser")

        monkeypatch.setattr(series_mod, "_ingest_lines", no_line_parser)
        sums = ingest_csv(path, schema)
        assert_same_outcome(sums, reference)
        assert (sums.table[:, -1] == 0).any()  # hours without a last-channel reading

        resampled = resample_hourly(sums)
        assert np.isnan(resampled.values[:, -1]).any()
        cache = tmp_path / "cache.csv"
        series_to_csv(resampled, cache)
        back = series_from_csv(cache)
        assert np.isnan(back.values).any()
        assert back.start == resampled.start
        assert back.values.tobytes() == resampled.values.tobytes()


@pytest.mark.parametrize("build, fields", [
    (lambda b: HourlySums(0, b[:, 1:], ("a",), 4), ("table",)),
    (lambda b: HourlySeries(MONDAY, b[:, 1:], ("a", "b")), ("values",)),
    (lambda b: ScalerParams(b[:, 0], b[:, 1], ("a", "b", "c", "d")), ("mins", "maxs")),
], ids=["HourlySums", "HourlySeries", "ScalerParams"])
def test_array_fields_read_only_when_built_from_strided_views(build, fields):
    base = np.arange(12.0).reshape(4, 3)
    frozen = build(base)
    for name in fields:
        arr = getattr(frozen, name)
        assert arr.flags.c_contiguous and not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = -1
    np.testing.assert_array_equal(base, np.arange(12.0).reshape(4, 3))


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


def blanks_to_nan_chain(block: str) -> str:
    """The five replaces _blanks_to_nan replaced, kept as its reference."""
    block = block.replace(",,", ",nan,").replace(",,", ",nan,")  # twice: runs of blanks
    block = block.replace(",\n", ",nan\n").replace(",\r", ",nan\r").replace("\n,", "\nnan,")
    if block.startswith(","):
        block = "nan" + block
    if block.endswith(","):
        block += "nan"
    return block


# runs of pieces give runs of blank cells, leading and trailing commas and blank lines
CSV_PIECES = st.sampled_from([",", "\n", "\r\n", "\r", ".", "x", "é", *"0123456789"])


@given(st.lists(CSV_PIECES, max_size=80).map("".join))
@example("")
@example(",,,")
@example("\n,\r\n,\n")
@example("é,,x\r\n,")
@settings(max_examples=400, deadline=None)
def test_blanks_to_nan_matches_replace_chain(text):
    """The same text, and the comma count _numeric_blocks checks rows by."""
    assert series_mod._blanks_to_nan(text) == (blanks_to_nan_chain(text), text.count(","))


class TestDetectGaps:
    def test_threshold_filters_short_runs(self):
        values = np.ones(200)
        values[10:12] = np.nan  # length 2
        values[50:130] = np.nan  # length 80
        report = detect_gaps(make_series(values), structural_threshold=24)
        assert report == ((50, 80),)

    def test_fully_observed_series(self):
        assert detect_gaps(make_series(np.ones(48)), 24) == ()

    def test_fully_missing_series(self):
        report = detect_gaps(make_series(np.full(50, np.nan)), 24)
        assert report == ((0, 50),)

    def test_runs_are_maximal(self):
        values = np.ones(100)
        values[20:60] = np.nan
        series = make_series(values)
        ((start, length),) = detect_gaps(series, 24)
        assert not math.isnan(series.values[start - 1, 0])
        assert not math.isnan(series.values[start + length, 0])

    def test_threshold_must_be_positive(self):
        with pytest.raises(SeriesError):
            detect_gaps(make_series(np.ones(5)), 0)


def missing_runs_loop(mask) -> list[tuple[int, int]]:
    """The scan missing_runs replaced, kept as its reference."""
    runs: list[tuple[int, int]] = []
    n = len(mask)
    i = 0
    while i < n:
        if mask[i]:
            j = i
            while j < n and mask[j]:
                j += 1
            runs.append((i, j - i))
            i = j
        else:
            i += 1
    return runs


class TestMissingRuns:
    @pytest.mark.parametrize("mask", [[], [True] * 7, [False] * 7, [True, False, True],
                                      [True, True, False, False, True, True]])
    def test_edge_masks(self, mask):
        assert missing_runs(np.array(mask, dtype=bool)) == missing_runs_loop(mask)

    @given(st.lists(st.booleans(), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_matches_loop(self, mask):
        runs = missing_runs(np.array(mask, dtype=bool))
        assert runs == missing_runs_loop(mask)
        assert all(type(v) is int for run in runs for v in run)  # manifest gaps are JSON


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

    def test_header_only_is_empty_cache(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text("hour,Aggregate\n", encoding="utf-8")
        with pytest.raises(SeriesError, match="empty hourly cache"):
            series_from_csv(path)

    @pytest.mark.parametrize("row", ["2013-10-07T01:00:00+00:00,1.0",  # ragged
                                     "2013-10-07T01:00:00+00:00,abc,2.0",
                                     "2013-10-07T01:00:00+00:00,1.0,2.0,3.0"])
    def test_corrupt_cache_names_the_file(self, tmp_path, row):
        path = tmp_path / "cache.csv"
        path.write_text("hour,Aggregate,Appliance1\n2013-10-07T00:00:00+00:00,5.0,\n"
                        f"{row}\n", encoding="utf-8")
        with pytest.raises(SeriesError, match="cache.csv: corrupt hourly cache"):
            series_from_csv(path)

    @pytest.mark.parametrize("edit", ["delete a middle row", "edit the last hour"])
    def test_hour_column_must_step_by_one_hour(self, tmp_path, edit):
        """A lost middle row would shift every later hour one hour early:
        the last hour cell must be the first plus one hour per row."""
        path = tmp_path / "cache.csv"
        series_to_csv(make_series(np.arange(6.0)), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[-1].startswith("2013-10-07T05:00:00+00:00,")
        if edit == "delete a middle row":
            del lines[3]
        else:
            lines[-1] = lines[-1].replace("T05:", "T06:")
        path.write_text("".join(lines), encoding="utf-8", newline="")
        with pytest.raises(SeriesError, match="cache.csv: corrupt hourly cache: .* not one row per hour"):
            series_from_csv(path)

    def test_cache_bytes_pinned(self, tmp_path):
        """The writer's bytes, pinned before it moved to tolist/repr; the row
        of specials covers repr's exponent switch and 17-digit values."""
        rng = np.random.default_rng(20131007)
        values = rng.uniform(0.0, 3000.0, size=(48, 3))
        values[rng.random(values.shape) < 0.15] = np.nan
        values[0] = [-0.0, 1e-5, 1e17]
        values[1] = [0.1 + 0.2, 1e16, 9999999999999998.0]
        values[2] = np.nan
        series = make_series(values, channel_names=("Aggregate", "Appliance1", "Appliance2"))
        path = tmp_path / "cache.csv"
        digest = series_to_csv(series, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest() == (
            "7757796bf73ab1756e70bf9ea4c2b1e16bbbe0eb3cd1ab1022d5b5fcb198ecf5")
        assert series_from_csv(path).values.tobytes() == series.values.tobytes()

    def test_non_utf8_byte_names_the_file_and_its_byte(self, tmp_path):
        path = tmp_path / "cache.csv"
        series_to_csv(make_series(np.arange(600.0)), path)
        data = path.read_bytes()
        at = data.index(b"\r\n", len(data) // 2)
        path.write_bytes(data[:at] + b"\xe9" + data[at:])
        with pytest.raises(SeriesError, match=rf"cache\.csv: not UTF-8 text at byte {at}$"):
            series_from_csv(path)


def blob_parts(header):
    shape = (header["n"], header["c"])
    return [("<f8", shape), ("i1", shape)]


class TestHeaderBlob:
    def pair(self, tmp_path):
        values = np.array([[np.nan, -0.0, 1.5], [0.0, np.inf, -2.25e-308]])
        codes = np.array([[0, 1, 127], [-128, 4, 3]], dtype=np.int8)
        prefix = tmp_path / "pair"
        digests = write_header_blob(prefix, {"n": 2, "c": 3, "name": "toy"}, values, codes)
        return prefix, values, codes, digests

    def test_round_trip_is_bitwise(self, tmp_path):
        prefix, values, codes, _ = self.pair(tmp_path)
        header = read_header(prefix)
        assert header == {"n": 2, "c": 3, "name": "toy"}
        back, back_codes = read_blob(prefix, blob_parts(header), "a toy pair")
        assert back.dtype == np.float64 and back.shape == (2, 3)
        assert back.tobytes() == values.tobytes()  # NaN's bits and the sign of -0.0 kept
        assert back_codes.dtype == np.int8
        assert back_codes.tobytes() == codes.tobytes()
        assert (tmp_path / "pair.bin").read_bytes() == values.astype("<f8").tobytes() \
            + codes.tobytes()
        assert (tmp_path / "pair.json").read_text() == \
            json.dumps(header, sort_keys=True, indent=1)

    def test_digests_are_the_files_sha256(self, tmp_path):
        *_, digests = self.pair(tmp_path)
        assert digests == {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                           for name in ("pair.json", "pair.bin")}

    @pytest.mark.parametrize("change, found", [
        (lambda path: path.write_bytes(path.read_bytes()[:-1]), 53),
        (lambda path: path.write_bytes(path.read_bytes() + bytes(8)), 62),
    ], ids=["truncated", "oversized"])
    def test_blob_of_wrong_size_names_the_file(self, tmp_path, change, found):
        prefix, _, _, _ = self.pair(tmp_path)
        change(tmp_path / "pair.bin")
        with pytest.raises(SeriesError, match=rf"pair\.bin: expected a toy pair "
                                              rf"\(54 bytes\), found {found} bytes"):
            read_blob(prefix, blob_parts(read_header(prefix)), "a toy pair")

    def test_header_that_disagrees_with_the_blob_names_the_file(self, tmp_path):
        prefix, _, _, _ = self.pair(tmp_path)
        (tmp_path / "pair.json").write_text(json.dumps({"n": 3, "c": 3}))
        with pytest.raises(SeriesError, match=r"pair\.bin: expected 3 rows \(81 bytes\), "
                                              r"found 54 bytes"):
            read_blob(prefix, blob_parts(read_header(prefix)), "3 rows")
