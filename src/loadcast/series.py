"""Hourly load series: CSV ingestion, resampling, gap detection, scaling, splitting.

A raw meter file holds high-frequency readings (one aggregate channel plus
optional appliance channels). This module turns it into a regular hourly
grid with explicit missingness (NaN means "no data", never "zero load"),
fits and applies train-only min-max scalers and produces the chronological
train/test split used everywhere downstream.
"""

from __future__ import annotations

import csv
import io
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
        if len(self.timestamps) > 1 and not np.all(np.diff(self.timestamps) > 0):
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


# Text parsed per np.loadtxt call. Larger blocks raise peak memory (StringIO
# keeps four bytes per character) for no gain in speed.
_BLOCK_CHARS = 1 << 18


def _blanks_to_nan(block: str) -> str:
    """Spell every blank cell of whole-line CSV text as ``nan``."""
    block = block.replace(",,", ",nan,").replace(",,", ",nan,")  # twice: runs of blanks
    block = block.replace(",\n", ",nan\n").replace(",\r", ",nan\r").replace("\n,", "\nnan,")
    if block.startswith(","):
        block = "nan" + block
    if block.endswith(","):  # only at end of file: every other block ends with a newline
        block += "nan"
    return block


def _read_numeric(fh, usecols, width: int, lead: str = "") -> np.ndarray | None:
    """Parse the rest of ``fh`` as float64 columns ``usecols`` of a table
    ``width`` cells wide, with numpy's C reader, ~256 KiB of text at a time.

    ``lead`` is text already read from ``fh`` that starts the table. Blank
    cells read as NaN; blank lines are skipped. Returns None on anything the
    csv module could read differently: a quote, a ``#``, a row that is not
    ``width`` cells wide, or text np.loadtxt rejects.
    """
    parts = []
    while block := lead + fh.read(_BLOCK_CHARS):
        lead = ""
        block += fh.readline()  # extend to a whole line
        if block.isspace():
            continue
        if '"' in block or "#" in block:
            return None
        try:
            part = np.loadtxt(io.StringIO(_blanks_to_nan(block)), delimiter=",",
                              usecols=usecols, dtype=np.float64, ndmin=2, comments=None)
        except ValueError:
            return None
        if block.count(",") != len(part) * (width - 1):
            return None
        parts.append(part)
    return np.concatenate(parts) if parts else np.empty((0, len(usecols)))


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

    numpy's C reader parses the numbers in blocks; a file it cannot read
    exactly as the csv module would (quoted cells, ``#``, ragged rows,
    whitespace-only rows, ``1_000``, ...) goes through the line parser.
    """
    schema = schema or ColumnSchema()
    with _open_raw(path) as fh:
        cols, width = _raw_columns(fh, path, schema)
        body = _read_numeric(fh, cols, width)
    # |ts| < 2**63 also rejects NaN and infinite timestamps
    if body is None or not len(body) or not np.all(np.abs(body[:, 0]) < 2.0**63):
        return _ingest_lines(path, schema)
    # astype truncates toward zero, as int(float(cell)) does
    return _raw_series(path, schema, body[:, 0].astype(np.int64), body[:, 1:])


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
    return _raw_series(path, schema, np.asarray(timestamps, dtype=np.int64),
                       np.asarray(rows, dtype=np.float64))


def _raw_series(path, schema: ColumnSchema, ts_arr: np.ndarray, val_arr: np.ndarray) -> RawSeries:
    """Both parsers' tail: invalid readings to NaN, a stable sort by
    timestamp, and the last row of each duplicate timestamp."""
    if not len(ts_arr):
        raise IngestError(f"{path}: empty series")
    order = np.argsort(ts_arr, kind="stable")
    ts_arr = ts_arr[order]
    val_arr = val_arr[order]
    # negative or non-finite power is an invalid reading, not data
    val_arr[~(np.isfinite(val_arr) & (val_arr >= 0))] = np.nan
    # duplicates keep the last occurrence
    if len(ts_arr) > 1:
        keep = np.append(ts_arr[1:] != ts_arr[:-1], True)
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
        for row in series.values.tolist():
            writer.writerow([ts.isoformat(), *["" if v != v else repr(v) for v in row]])
            ts += HOUR


def series_from_csv(path) -> HourlySeries:
    """Read back a cache written by series_to_csv; a cache it could not
    have written raises SeriesError."""
    with open(path, newline="", encoding="utf-8") as fh:
        channel_names = tuple(next(csv.reader(fh), ["hour"])[1:])
        first = fh.readline()
        if not first:
            raise SeriesError(f"{path}: empty hourly cache")
        try:
            start = datetime.fromisoformat(first.split(",", 1)[0].rstrip("\r\n"))
        except ValueError:
            raise SeriesError(f"{path}: bad hour in line 2") from None
        n = len(channel_names)
        values = _read_numeric(fh, range(1, n + 1), n + 1, lead=first)
    if values is None:
        raise SeriesError(f"{path}: corrupt hourly cache: not {n} numeric cells per hour")
    return HourlySeries(start, values, channel_names)
