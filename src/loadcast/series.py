"""Hourly load series: CSV ingestion, resampling, gap detection, scaling, splitting.

A raw meter file holds high-frequency readings (one aggregate channel plus
optional appliance channels). This module turns it into a regular hourly
grid with explicit missingness (NaN means "no data", never "zero load"),
fits and applies train-only min-max scalers and produces the chronological
train/test split used everywhere downstream.

Raw files and the hourly cache are parsed by numpy's C reader in blocks of
~256 KiB of text, each copied into arrays sized once from a count of the
file's line ends: reading holds the result plus one block. Python's csv
module stays the reference, and a raw file numpy could read differently
goes through a line parser built on it.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

HOUR = timedelta(hours=1)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class IngestError(ValueError):
    """Raised when a raw meter CSV cannot be parsed."""


class SeriesError(ValueError):
    """Raised on invalid series operations (bad split, empty segment, ...)."""


@contextmanager
def replace_on_success(path, mode: str = "w"):
    """Write through a temp file beside ``path`` that replaces it only once
    the block completes, so a failed or killed write leaves the old file.
    Text mode writes UTF-8 with newlines untranslated."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    text = {} if "b" in mode else {"newline": "", "encoding": "utf-8"}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _freeze(obj, *fields: str) -> None:
    """Store each named array field of a frozen dataclass as a read-only,
    C-contiguous array (a copy if the given array was not contiguous)."""
    for name in fields:
        arr = np.ascontiguousarray(getattr(obj, name))
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class ColumnSchema:
    """Column names of a raw meter CSV.

    Defaults match REFIT-style files: a "Unix" timestamp column, an
    "Aggregate" whole-home column and appliance sub-meter columns.
    """

    timestamp: str = "Unix"
    aggregate: str = "Aggregate"
    appliances: tuple[str, ...] = tuple(f"Appliance{i}" for i in range(1, 10))

    @property
    def channels(self) -> tuple[str, ...]:
        return (self.aggregate,) + tuple(self.appliances)


@dataclass(frozen=True)
class RawSeries:
    """Parsed raw readings, sorted by timestamp.

    Attributes:
        timestamps: unix seconds, int64, strictly increasing.
        values: (n, n_channels) float64 watts; NaN marks an invalid reading
            (empty cell, negative or non-finite power).
        channel_names: channel labels, aggregate first.
    """

    timestamps: np.ndarray
    values: np.ndarray
    channel_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] != len(self.channel_names):
            raise ValueError("values shape does not match channel_names")
        if len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and values length mismatch")
        if not np.all(self.timestamps[1:] > self.timestamps[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        _freeze(self, "timestamps", "values")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class HourlySeries:
    """Regular hourly grid with explicit missingness.

    Attributes:
        start: first hour, UTC, aligned to an hour boundary.
        values: (n_hours, n_channels) float64; a present value is the mean
            of that hour's raw readings, NaN marks a missing hour.
        channel_names: channel labels.
    """

    start: datetime
    values: np.ndarray
    channel_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.start.tzinfo is None or self.start.utcoffset() != timedelta(0):
            raise ValueError("start must be a UTC datetime")
        if self.start.minute or self.start.second or self.start.microsecond:
            raise ValueError("start must be aligned to an hour boundary")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.channel_names):
            raise ValueError("values shape does not match channel_names")
        _freeze(self, "values")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    def timestamps(self) -> tuple[datetime, ...]:
        return tuple(self.start + i * HOUR for i in range(len(self)))

    def channel_index(self, channel: str | int) -> int:
        if isinstance(channel, int):
            if not 0 <= channel < self.n_channels:
                raise SeriesError(f"channel index {channel} out of range")
            return channel
        try:
            return self.channel_names.index(channel)
        except ValueError:
            raise SeriesError(f"unknown channel {channel!r}") from None

    def channel(self, channel: str | int) -> np.ndarray:
        return self.values[:, self.channel_index(channel)]

    def with_values(self, values: np.ndarray) -> "HourlySeries":
        """Same grid, new values (used by imputers and scalers)."""
        return HourlySeries(self.start, values, self.channel_names)

    def slice_hours(self, start: int, stop: int) -> "HourlySeries":
        if not 0 <= start <= stop <= len(self):
            raise SeriesError(f"invalid slice [{start}, {stop}) for length {len(self)}")
        return HourlySeries(
            self.start + start * HOUR,
            self.values[start:stop].copy(),
            self.channel_names,
        )


@dataclass(frozen=True)
class ScalerParams:
    """Per-channel min-max bounds, fitted on a training segment only."""

    mins: np.ndarray
    maxs: np.ndarray
    channel_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if np.any(self.maxs < self.mins):
            raise ValueError("max must be >= min for every channel")
        _freeze(self, "mins", "maxs")


@dataclass(frozen=True)
class GapReport:
    """Runs of missing hours at least ``structural_threshold`` long.

    gaps: tuple of (start_index, length_hours), disjoint and sorted.
    """

    gaps: tuple[tuple[int, int], ...]
    structural_threshold: int


# ---------------------------------------------------------------------------
# Ingestion and resampling
# ---------------------------------------------------------------------------


# Text parsed per np.loadtxt call, and bytes per read when counting line
# ends. Larger blocks raise peak memory (a block is held as text, as its
# lines and as parsed rows at once) for no gain in speed.
_BLOCK_CHARS = 1 << 18


class _NotNumeric(Exception):
    """A block numpy's reader could parse differently from the csv module."""


def _blanks_to_nan(block: str) -> str:
    """Spell every blank cell of whole-line CSV text as ``nan``."""
    block = block.replace(",,", ",nan,").replace(",,", ",nan,")  # twice: runs of blanks
    block = block.replace(",\n", ",nan\n").replace(",\r", ",nan\r").replace("\n,", "\nnan,")
    if block.startswith(","):
        block = "nan" + block
    if block.endswith(","):  # only at end of file: every other block ends with a newline
        block += "nan"
    return block


def _max_rows(fh) -> int:
    """An upper bound on the data rows of the open CSV ``fh``: its lines
    (each ``\\n``, ``\\r`` or ``\\r\\n`` ends one, and a last line may have
    no end) less the header. Reads the file's bytes without moving ``fh``."""
    fd = fh.fileno()
    ends = offset = 0
    last = b"\n"
    while chunk := os.pread(fd, _BLOCK_CHARS, offset):
        offset += len(chunk)
        b = np.frombuffer(chunk, dtype=np.uint8)
        lf, cr = b == 10, b == 13
        # every \n ends a line, and every \r not followed by \n; a \r\n
        # split between two chunks counts twice, still an upper bound
        ends += np.count_nonzero(lf) + np.count_nonzero(cr[:-1] & ~lf[1:]) + int(cr[-1])
        last = chunk[-1:]
    return max(int(ends) + (last not in (b"\r", b"\n")) - 1, 0)


def _numeric_blocks(fh, usecols, width: int, lead: str = ""):
    """Parse the rest of ``fh`` as float64 columns ``usecols`` of a table
    ``width`` cells wide, with numpy's C reader, ~256 KiB of text at a time.

    Yields ``(rows, text)`` per block: a (k, len(usecols)) array and the
    whole lines it came from. ``lead`` is text already read from ``fh``
    that starts the table. Blank cells read as NaN; blank lines are skipped.
    Raises _NotNumeric on anything the csv module could read differently:
    a quote, a ``#``, a row that is not ``width`` cells wide, or text
    np.loadtxt rejects.
    """
    while text := lead + fh.read(_BLOCK_CHARS):
        lead = ""
        text += fh.readline()  # extend to a whole line
        if text.isspace():
            continue
        if '"' in text or "#" in text:
            raise _NotNumeric
        block = text
        cr = block.find("\r")
        if cr >= 0 and block[cr + 1:cr + 2] != "\n":
            # bare \r line ends, which np.loadtxt rejects; any \r\n becomes
            # an empty line, skipped as the csv module skips it
            block = block.replace("\r", "\n")
        try:
            rows = np.loadtxt(_blanks_to_nan(block).split("\n"), delimiter=",",
                              usecols=usecols, dtype=np.float64, ndmin=2, comments=None)
        except ValueError:
            raise _NotNumeric from None
        if block.count(",") != len(rows) * (width - 1):
            raise _NotNumeric
        yield rows, text


def _invalid_to_nan(values: np.ndarray) -> None:
    """Negative or non-finite power is an invalid reading, not data: NaN, in place."""
    values[~(np.isfinite(values) & (values >= 0))] = np.nan


def _open_raw(path):
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc


def _raw_columns(fh, path, schema: ColumnSchema) -> tuple[list[int], int]:
    """Read the header row: the timestamp column then each channel's column,
    and the number of header cells."""
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise IngestError(f"{path}: empty series") from None
    header = [h.strip() for h in header]
    try:
        cols = [header.index(name) for name in (schema.timestamp, *schema.channels)]
    except ValueError as exc:
        raise IngestError(f"{path}: missing column: {exc}") from None
    return cols, len(header)


def ingest_csv(path, schema: ColumnSchema | None = None) -> RawSeries:
    """Parse a raw meter CSV into a RawSeries.

    Rows are parsed in file order then sorted by timestamp; duplicate
    timestamps keep the last occurrence. Empty cells and negative or
    non-finite power values become NaN (invalid reading). A row whose
    timestamp or power cells cannot be parsed at all raises IngestError
    with its line number.

    numpy's C reader parses the numbers in blocks of ~256 KiB of text,
    each copied straight into arrays sized once from the file's line ends,
    so peak memory is the returned table plus one block; the sort and the
    duplicate pass run only when the timestamps do not already increase
    strictly. A file it cannot read exactly as the csv module would
    (quoted cells, ``#``, ragged rows, whitespace-only rows, ``1_000``, a
    timestamp outside int64, ...) goes through the line parser.
    """
    schema = schema or ColumnSchema()
    with _open_raw(path) as fh:
        cols, width = _raw_columns(fh, path, schema)
        table = _read_raw(fh, cols, width)
    if table is None:
        return _ingest_lines(path, schema)
    return _raw_series(path, schema, *table)


def _read_raw(fh, cols: list[int], width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """ingest_csv's block reader: the timestamps (int64) and the readings
    (C-contiguous, invalid ones NaN) of the rest of ``fh`` in file order,
    or None where the line parser must decide."""
    cap = _max_rows(fh)
    timestamps = np.empty(cap, dtype=np.int64)
    values = np.empty((cap, len(cols) - 1))
    n = 0
    try:
        for rows, _ in _numeric_blocks(fh, cols, width):
            end = n + len(rows)
            # more rows than line ends: the file grew while it was read;
            # |ts| < 2**63 also rejects NaN and infinite timestamps
            if end > cap or not np.all(np.abs(rows[:, 0]) < 2.0**63):
                return None
            timestamps[n:end] = rows[:, 0]  # truncates toward zero, as int(float(cell)) does
            values[n:end] = rows[:, 1:]
            _invalid_to_nan(values[n:end])
            n = end
    except _NotNumeric:
        return None
    return (timestamps[:n], values[:n]) if n else None


def _ingest_lines(path, schema: ColumnSchema) -> RawSeries:
    """The reference parser behind ingest_csv: one csv row at a time."""
    with _open_raw(path) as fh:
        (ts_col, *channel_cols), _ = _raw_columns(fh, path, schema)
        timestamps: list[int] = []
        rows: list[list[float]] = []
        for line_no, row in enumerate(csv.reader(fh), start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                ts = int(float(row[ts_col]))
                if not -(2**63) <= ts < 2**63:
                    raise OverflowError
            except (ValueError, OverflowError, IndexError):
                raise IngestError(
                    f"{path}: line {line_no}: bad timestamp {row[ts_col] if len(row) > ts_col else '<missing>'!r}"
                ) from None
            vals = []
            for col in channel_cols:
                cell = row[col].strip() if col < len(row) else ""
                if not cell:
                    vals.append(math.nan)
                    continue
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise IngestError(f"{path}: line {line_no}: bad value {cell!r}") from None
            timestamps.append(ts)
            rows.append(vals)
    values = np.asarray(rows, dtype=np.float64)
    _invalid_to_nan(values)
    return _raw_series(path, schema, np.asarray(timestamps, dtype=np.int64), values)


def _raw_series(path, schema: ColumnSchema, ts_arr: np.ndarray, val_arr: np.ndarray) -> RawSeries:
    """Both parsers' tail, given readings already cleaned of invalid values:
    a stable sort by timestamp and the last row of each duplicate
    timestamp, both skipped when the timestamps increase strictly."""
    if not len(ts_arr):
        raise IngestError(f"{path}: empty series")
    if not np.all(ts_arr[1:] > ts_arr[:-1]):
        order = np.argsort(ts_arr, kind="stable")
        ts_arr = ts_arr[order]
        val_arr = val_arr[order]
        # duplicates keep the last occurrence
        keep = np.append(ts_arr[1:] != ts_arr[:-1], True)
        if not keep.all():
            ts_arr = ts_arr[keep]
            val_arr = val_arr[keep]
    logger.info("ingested %d rows, %d channels from %s", len(ts_arr), val_arr.shape[1], path)
    return RawSeries(ts_arr, val_arr, schema.channels)


def resample_hourly(raw: RawSeries) -> HourlySeries:
    """Average raw readings into hourly buckets.

    Buckets are half-open UTC intervals [h, h+1h); an hour with no valid
    reading is missing. The grid spans floor(first ts) .. floor(last ts).
    """
    if len(raw) == 0:
        raise SeriesError("cannot resample an empty series")
    hours = raw.timestamps // 3600
    first, last = int(hours[0]), int(hours[-1])
    n_hours = last - first + 1
    idx = (hours - first).astype(np.intp)

    out = np.full((n_hours, len(raw.channel_names)), np.nan)
    for c in range(len(raw.channel_names)):
        col = raw.values[:, c]
        valid = np.isfinite(col)
        counts = np.bincount(idx[valid], minlength=n_hours)
        sums = np.bincount(idx[valid], weights=col[valid], minlength=n_hours)
        present = counts > 0
        out[present, c] = sums[present] / counts[present]

    start = _EPOCH + timedelta(hours=first)
    return HourlySeries(start, out, raw.channel_names)


def missing_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True in a boolean mask as (start, length) pairs."""
    edges = np.flatnonzero(np.diff(np.asarray(mask, dtype=bool), prepend=False, append=False))
    starts, stops = edges[::2].tolist(), edges[1::2].tolist()
    return [(start, stop - start) for start, stop in zip(starts, stops)]


def detect_gaps(
    series: HourlySeries, structural_threshold: int = 24, channel: str | int = 0
) -> GapReport:
    """Report maximal missing runs of at least ``structural_threshold`` hours."""
    if structural_threshold < 1:
        raise SeriesError("structural_threshold must be >= 1")
    mask = np.isnan(series.channel(channel))
    gaps = tuple(r for r in missing_runs(mask) if r[1] >= structural_threshold)
    return GapReport(gaps, structural_threshold)


# ---------------------------------------------------------------------------
# Min-max scaling
# ---------------------------------------------------------------------------


def minmax_fit(series: HourlySeries, segment: tuple[int, int]) -> ScalerParams:
    """Fit per-channel min/max over present values of ``segment`` only.

    ``segment`` is a half-open (start, stop) index range; fitting on the
    training segment alone is the leakage guard.
    """
    lo, hi = segment
    if not 0 <= lo < hi <= len(series):
        raise SeriesError(f"invalid segment ({lo}, {hi}) for length {len(series)}")
    window = series.values[lo:hi]
    if np.all(np.isnan(window), axis=0).any():
        bad = [series.channel_names[c] for c in np.flatnonzero(np.all(np.isnan(window), axis=0))]
        raise SeriesError(f"all-missing channel(s) in segment: {bad}")
    with np.errstate(all="ignore"):
        mins = np.nanmin(window, axis=0)
        maxs = np.nanmax(window, axis=0)
    return ScalerParams(mins, maxs, series.channel_names)


def scale_array(x: np.ndarray, lo: float | np.ndarray, hi: float | np.ndarray) -> np.ndarray:
    """(x - lo) / (hi - lo); a degenerate range (hi == lo) maps to 0, NaN stays NaN."""
    lo = np.asarray(lo, dtype=float)
    span = np.asarray(hi, dtype=float) - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = np.where(span == 0, 0.0, (x - lo) / np.where(span == 0, 1.0, span))
    return np.where(np.isnan(x), np.nan, scaled)


def unscale_array(x: np.ndarray, lo: float | np.ndarray, hi: float | np.ndarray) -> np.ndarray:
    """Inverse of scale_array: x * (hi - lo) + lo."""
    lo = np.asarray(lo, dtype=float)
    span = np.asarray(hi, dtype=float) - lo
    return x * span + lo


def minmax_transform(series: HourlySeries, params: ScalerParams) -> HourlySeries:
    if params.channel_names != series.channel_names:
        raise SeriesError("scaler channels do not match series channels")
    return series.with_values(scale_array(series.values, params.mins, params.maxs))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def chronological_split(
    series: HourlySeries, train_fraction: float
) -> tuple[HourlySeries, HourlySeries]:
    """Split into (first floor(fraction*N) hours, remainder) with no shuffling."""
    if not 0 < train_fraction < 1:
        raise SeriesError("train_fraction must be in (0, 1)")
    n = len(series)
    if n < 2:
        raise SeriesError("series too short to split")
    n_train = math.floor(train_fraction * n)
    if n_train == 0 or n_train == n:
        raise SeriesError(f"fraction {train_fraction} yields an empty train or test split")
    return series.slice_hours(0, n_train), series.slice_hours(n_train, n)


# ---------------------------------------------------------------------------
# Hourly cache CSV
# ---------------------------------------------------------------------------


def series_to_csv(series: HourlySeries, path) -> None:
    """Persist as CSV: ISO-8601 hour column, one column per channel, empty = missing."""
    with replace_on_success(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["hour", *series.channel_names])
        ts = series.start
        # 4096 rows of Python floats at a time, not the whole table
        for block in np.split(series.values, range(4096, len(series), 4096)):
            for row in block.tolist():
                writer.writerow([ts.isoformat(), *["" if v != v else repr(v) for v in row]])
                ts += HOUR


def series_from_csv(path) -> HourlySeries:
    """Read back a cache written by series_to_csv; a cache it could not
    have written raises SeriesError. Only the first and last hour cells
    are parsed: the last must be the first plus one hour per row."""
    with open(path, newline="", encoding="utf-8") as fh:
        channel_names = tuple(next(csv.reader(fh), ["hour"])[1:])
        first = fh.readline()
        if not first:
            raise SeriesError(f"{path}: empty hourly cache")
        start = _cache_hour(path, first, "line 2")
        n = len(channel_names)
        values = np.empty((_max_rows(fh), n))
        rows, last = 0, first
        try:
            for part, last in _numeric_blocks(fh, range(1, n + 1), n + 1, lead=first):
                if rows + len(part) > len(values):  # the file grew while it was read
                    raise _NotNumeric
                values[rows:rows + len(part)] = part
                rows += len(part)
        except _NotNumeric:
            raise SeriesError(f"{path}: corrupt hourly cache: not {n} numeric cells per hour") from None
    last = last.rstrip()
    last_hour = _cache_hour(path, last[max(last.rfind("\n"), last.rfind("\r")) + 1:], "its last row")
    if last_hour != start + (rows - 1) * HOUR:
        raise SeriesError(f"{path}: corrupt hourly cache: {rows} rows from {start.isoformat()} "
                          f"end at {last_hour.isoformat()}, not one row per hour")
    return HourlySeries(start, values[:rows], channel_names)


def _cache_hour(path, line: str, where: str) -> datetime:
    """The hour cell that starts a cache row."""
    try:
        return datetime.fromisoformat(line.split(",", 1)[0].rstrip("\r\n"))
    except ValueError:
        raise SeriesError(f"{path}: bad hour in {where}") from None
