"""Hourly load series: CSV ingestion, resampling, gap detection, scaling, splitting.

A raw meter file holds high-frequency readings (one aggregate channel plus
optional appliance channels). This module turns it into a regular hourly
grid with explicit missingness (NaN means "no data", never "zero load"),
fits and applies train-only min-max scalers and produces the chronological
train/test split used everywhere downstream.

Raw files, and the hourly cache CSV that the pipeline exports but never
reads back, are parsed by numpy's C reader in blocks of ~256 KiB of text.
Blank cells reach the reader spelled ``nan``: one numpy pass over a
block's UTF-8 bytes finds them, and counts the commas that check each
row's width. A raw file's blocks are folded straight into
per-hour sums and counts, so ingest holds O(hours) memory, not the raw
rows. Python's csv module stays the reference: a raw file numpy could read
differently, or whose timestamps do not increase strictly, goes through a
line parser. A file that is not UTF-8 fails naming its first bad byte.

What only loadcast reads back (the LSTM checkpoint, the hourly series
``ingest`` keeps for ``impute-eval`` and ``train``, the imputed series
``train`` keeps) is a pair of files: a JSON header and one little-endian
blob, written by ``write_header_blob`` and read by ``read_header`` and
``read_blob``.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import json
import logging
import math
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import accumulate
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


class _Sha256Text:
    """A text file whose writes also feed a sha256 of their UTF-8 bytes."""

    def __init__(self, fh) -> None:
        self.fh, self.sha = fh, hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode("utf-8"))
        return self.fh.write(text)


def write_header_blob(path_prefix, header: dict, *parts: np.ndarray) -> dict[str, str]:
    """Write ``header`` to ``<prefix>.json`` (sorted keys, indent 1) and the
    bytes of each of ``parts`` in turn, little-endian, straight from memory
    to ``<prefix>.bin``. Neither file is replaced unless both are written.
    Returns each file's name and its sha256, hashed from what was written."""
    head_path, body_path = Path(f"{path_prefix}.json"), Path(f"{path_prefix}.bin")
    blob = hashlib.sha256()
    with replace_on_success(head_path) as head, replace_on_success(body_path, "wb") as body:
        text = _Sha256Text(head)
        json.dump(header, text, sort_keys=True, indent=1)
        for part in parts:
            part = np.ascontiguousarray(part, part.dtype.newbyteorder("<"))
            blob.update(part)
            body.write(part)
    return {head_path.name: text.sha.hexdigest(), body_path.name: blob.hexdigest()}


def read_header(path_prefix) -> dict:
    """The header ``write_header_blob`` wrote to ``<prefix>.json``."""
    with open(f"{path_prefix}.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_blob(path_prefix, parts, what: str,
              error: type[Exception] = SeriesError) -> list[np.ndarray]:
    """The arrays ``write_header_blob`` wrote to ``<prefix>.bin``, one per
    (dtype, shape) of ``parts``, as views of one buffer. A blob of another
    size raises ``error`` naming the file, ``what`` it should hold, and the
    expected and found byte counts."""
    path = f"{path_prefix}.bin"
    buf = np.fromfile(path, dtype=np.uint8)
    dtypes = [np.dtype(dtype).newbyteorder("<") for dtype, _ in parts]
    sizes = [dtype.itemsize * math.prod(shape) for dtype, (_, shape) in zip(dtypes, parts)]
    if len(buf) != sum(sizes):
        raise error(f"{path}: expected {what} ({sum(sizes)} bytes), found {len(buf)} bytes")
    offsets = list(accumulate(sizes, initial=0))
    return [buf[lo:hi].view(dtype).reshape(shape)
            for dtype, (_, shape), lo, hi in zip(dtypes, parts, offsets, offsets[1:])]


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


# ---------------------------------------------------------------------------
# Ingestion and resampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HourlySums:
    """A raw meter file folded into UTC hours, as ingest_csv returns it.

    Attributes:
        first_hour: unix hours (seconds // 3600) of the table's first row.
        table: (n_hours, 2 * n_channels) float64: each channel's sum of
            valid readings per hour, then their counts (exact below 2**53).
        channel_names: channel labels, aggregate first.
        n_readings: raw rows folded in, after duplicates; ``len()`` gives it.
    """

    first_hour: int
    table: np.ndarray
    channel_names: tuple[str, ...]
    n_readings: int

    def __post_init__(self) -> None:
        _freeze(self, "table")

    def __len__(self) -> int:
        return self.n_readings


# Text parsed per np.loadtxt call. Larger blocks raise peak memory (a block
# is held as text, as its lines and as parsed rows at once) for no gain in
# speed.
_BLOCK_CHARS = 1 << 18
_MAX_HOURS = 100 * 366 * 24  # a longer span is a timestamp error, not a household
_NAN = np.frombuffer(b"nan", np.uint8)


class _NotNumeric(Exception):
    """A block numpy's reader could parse differently from the csv module."""


def _blanks_to_nan(block: str) -> tuple[str, int]:
    """Spell every blank cell of whole-line CSV text as ``nan``; also give
    the text's number of commas.

    A cell is blank where a comma is followed by a comma, a line end or the
    end of the text, and where a comma starts the text or a line. One pass
    over the UTF-8 bytes marks those offsets, and one ``np.insert`` puts
    ``nan`` at each: no byte of a multi-byte character equals ``,``, ``\\n``
    or ``\\r``, so a byte offset never splits a character.
    """
    text = np.frombuffer(f"\n{block}\n".encode("utf-8"), np.uint8)  # each end reads as a line end
    comma = text == ord(",")
    commas = int(np.count_nonzero(comma))
    # blank[j]: a blank cell at byte j of the block, between text[j] and text[j + 1]
    blank = text[1:] == ord("\n")
    other = text[1:] == ord("\r")
    blank |= other
    blank |= comma[1:]
    blank &= comma[:-1]  # a comma, then a comma or a line end
    np.equal(text[:-1], ord("\n"), out=other)
    other &= comma[1:]  # a line end, then a comma
    blank |= other
    at = np.flatnonzero(blank)
    del comma, blank, other  # freed before the insert makes two block-sized arrays
    if len(at):
        # str() decodes the array's buffer in place, without a bytes copy
        block = str(np.insert(text[1:-1], np.repeat(at, 3), np.tile(_NAN, len(at))), "utf-8")
    return block, commas


def _last_line(fh) -> str:
    """The last line of the open file ``fh`` that is not blank, read from
    the file's end without moving ``fh``; "" if there is none."""
    fd = fh.fileno()
    tail, end = b"", os.fstat(fd).st_size
    while True:
        lines = tail.rstrip().splitlines()  # \n, \r and \r\n, as the csv module splits
        if len(lines) > 1 or not end:
            return lines[-1].decode("utf-8", "replace") if lines else ""
        start = max(end - 4096, 0)
        tail = os.pread(fd, end - start, start) + tail
        end = start


def _numeric_blocks(fh, usecols, width: int, lead: str = ""):
    """Parse the rest of ``fh`` as float64 columns ``usecols`` of a table
    ``width`` cells wide, with numpy's C reader, ~256 KiB of text at a time.

    Yields a (k, len(usecols)) array per block of whole lines. ``lead`` is
    text already read from ``fh`` that starts the table. Blank cells read
    as NaN; blank lines are skipped. Raises _NotNumeric on anything the csv
    module could read differently: a quote, a ``#``, a row that is not
    ``width`` cells wide, or text np.loadtxt rejects.
    """
    while text := lead + fh.read(_BLOCK_CHARS):
        lead = ""
        text += fh.readline()  # extend to a whole line
        if text.isspace():
            continue
        if '"' in text or "#" in text:
            raise _NotNumeric
        cr = text.find("\r")
        if cr >= 0 and text[cr + 1:cr + 2] != "\n":
            # bare \r line ends, which np.loadtxt rejects; any \r\n becomes
            # an empty line, skipped as the csv module skips it
            text = text.replace("\r", "\n")
        text, commas = _blanks_to_nan(text)
        try:
            rows = np.loadtxt(text.split("\n"), delimiter=",",
                              usecols=usecols, dtype=np.float64, ndmin=2, comments=None)
        except ValueError:
            raise _NotNumeric from None
        if commas != len(rows) * (width - 1):
            raise _NotNumeric
        yield rows


def _fold(table: np.ndarray, hours: np.ndarray, values: np.ndarray) -> None:
    """Add (k, n_channels) ``values`` at table rows ``hours`` (in order, none
    before a row earlier calls filled) to ``table``'s sums and counts.

    A negative or non-finite reading is invalid: it adds 0.0 to the sum,
    which leaves a sum of non-negative readings bitwise unchanged, and is
    not counted. The first hour's sum so far goes in as the first weight
    of one ``bincount``, so every hour adds its readings in file order, as
    one ``bincount`` over the whole column does, however the file is cut.
    """
    c = values.shape[1]
    lo, hi = int(hours[0]), int(hours[-1]) + 1
    valid = np.isfinite(values) & (values >= 0)
    weights = np.concatenate([table[lo:lo + 1, :c], np.where(valid, values, 0.0)])
    index = np.append(0, hours - lo)[:, None] * c + np.arange(c)
    # the last reading's hour is hi - 1: each bincount is (hi - lo) * c long
    table[lo:hi, :c] = np.bincount(index.ravel(), weights.ravel()).reshape(-1, c)
    table[lo:hi, c:] += np.bincount(index[1:].ravel(), valid.ravel()).reshape(-1, c)


def _not_utf8(path, error: type[Exception]) -> Exception:
    """``error`` naming the first byte of the file ``path`` that does not
    decode as UTF-8, found by reading the file again, 1 MiB at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            held = len(decoder.getstate()[0])  # bytes of a character the last chunk cut
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                return error(f"{path}: not UTF-8 text at byte {offset - held + exc.start}")
            if not chunk:
                return error(f"{path}: not UTF-8 text")
            offset += len(chunk)


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


def ingest_csv(path, schema: ColumnSchema | None = None) -> HourlySums:
    """Parse a raw meter CSV and fold it into per-hour sums and counts.

    Duplicate timestamps keep the last occurrence. Empty cells and negative
    or non-finite power values are invalid readings, not counted. A row
    whose timestamp or power cells cannot be parsed raises IngestError
    with its line number; a file that is not UTF-8, with the offset of
    its first bad byte.

    numpy's C reader parses ~256 KiB of text at a time, and each block is
    folded into an hour table sized from the first and last rows' hours,
    then dropped: memory is O(hours), whatever the number of raw rows.
    That needs timestamps that increase strictly down the file, as in
    REFIT's. A file whose timestamps go back or repeat, or that numpy
    could read differently from the csv module (quoted cells, ``#``, ragged
    or whitespace-only rows, ``1_000``, a timestamp outside int64, ...),
    goes through the line parser, which holds every row.
    """
    schema = schema or ColumnSchema()
    try:
        with _open_raw(path) as fh:
            cols, width = _raw_columns(fh, path, schema)
            sums = _fold_blocks(fh, cols, width, schema.channels)
        if sums is None:
            sums = _ingest_lines(path, schema)
    except UnicodeDecodeError:
        raise _not_utf8(path, IngestError) from None
    logger.info("ingested %d rows, %d channels from %s", len(sums), len(schema.channels), path)
    return sums


def _fold_blocks(fh, cols: list[int], width: int, channels) -> HourlySums | None:
    """ingest_csv's block reader: the rest of ``fh`` folded block by block,
    or None where the line parser must decide."""
    try:
        last_hour = int(float(_last_line(fh).split(",")[cols[0]])) // 3600
    except (ValueError, OverflowError, IndexError):
        return None
    table, prev, n = None, None, 0
    try:
        for rows in _numeric_blocks(fh, cols, width):
            if not np.all(np.abs(rows[:, 0]) < 2.0**63):  # also NaN and infinite ones
                return None
            ts = rows[:, 0].astype(np.int64)  # truncates toward zero, as int(float(cell)) does
            if (prev is not None and ts[0] <= prev) or not np.all(ts[1:] > ts[:-1]):
                return None
            if table is None:
                first = int(ts[0]) // 3600
                if not 0 <= last_hour - first < _MAX_HOURS:  # the line parser names the span
                    return None
                table = np.zeros((last_hour - first + 1, 2 * len(channels)))
            hours = ts // 3600 - first
            if hours[-1] >= len(table):  # past the last row's hour: not in order
                return None
            _fold(table, hours, rows[:, 1:])
            prev, n = ts[-1], n + len(ts)
    except _NotNumeric:
        return None
    return None if table is None else HourlySums(first, table[:hours[-1] + 1], tuple(channels), n)


def _line_rows(path, schema: ColumnSchema) -> tuple[np.ndarray, np.ndarray]:
    """The reference parser behind ingest_csv, one csv row at a time: the
    timestamps (int64) and readings of every data row, sorted by timestamp,
    the last row of each duplicate timestamp kept."""
    with _open_raw(path) as fh:
        (ts_col, *channel_cols), _ = _raw_columns(fh, path, schema)
        timestamps, readings = array("q"), array("d")  # 8 bytes a number, not a Python object
        for line_no, row in enumerate(csv.reader(fh), start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                ts = int(float(row[ts_col]))
                if not -(2**63) <= ts < 2**63:
                    raise OverflowError
            except (ValueError, OverflowError, IndexError):
                raise IngestError(f"{path}: line {line_no}: bad timestamp "
                                  f"{row[ts_col] if len(row) > ts_col else '<missing>'!r}") from None
            timestamps.append(ts)
            for col in channel_cols:
                cell = row[col].strip() if col < len(row) else ""
                if not cell:
                    readings.append(math.nan)
                    continue
                try:
                    readings.append(float(cell))
                except ValueError:
                    raise IngestError(f"{path}: line {line_no}: bad value {cell!r}") from None
    if not timestamps:
        raise IngestError(f"{path}: empty series")
    ts_arr = np.frombuffer(timestamps, dtype=np.int64)
    order = np.argsort(ts_arr, kind="stable")
    ts_arr = ts_arr[order]
    keep = np.append(ts_arr[1:] != ts_arr[:-1], True)  # duplicates keep the last occurrence
    values = np.frombuffer(readings).reshape(len(ts_arr), len(channel_cols))
    return ts_arr[keep], values[order[keep]]


def _ingest_lines(path, schema: ColumnSchema) -> HourlySums:
    """The line parser's rows, folded as the blocks of a file in order are."""
    ts, values = _line_rows(path, schema)
    first, last = int(ts[0]) // 3600, int(ts[-1]) // 3600
    if last - first >= _MAX_HOURS:
        raise IngestError(f"{path}: readings span {last - first + 1} hours, from unix hour "
                          f"{first} to {last}; more than {_MAX_HOURS} is a timestamp error")
    table = np.zeros((last - first + 1, 2 * values.shape[1]))
    hours = ts // 3600 - first
    for lo in range(0, len(ts), 1 << 16):  # in pieces: the fold's temporaries stay small
        _fold(table, hours[lo:lo + (1 << 16)], values[lo:lo + (1 << 16)])
    return HourlySums(first, table, schema.channels, len(ts))


def resample_hourly(sums: HourlySums) -> HourlySeries:
    """The hourly means of what ingest_csv folded, NaN for an hour with no
    valid reading: buckets are half-open UTC intervals [h, h+1h), and the
    grid spans floor(first ts) .. floor(last ts)."""
    c = len(sums.channel_names)
    counts = sums.table[:, c:]
    values = np.full(counts.shape, np.nan)
    np.divide(sums.table[:, :c], counts, out=values, where=counts > 0)
    return HourlySeries(_EPOCH + timedelta(hours=sums.first_hour), values, sums.channel_names)


def missing_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True in a boolean mask as (start, length) pairs."""
    edges = np.flatnonzero(np.diff(np.asarray(mask, dtype=bool), prepend=False, append=False))
    starts, stops = edges[::2].tolist(), edges[1::2].tolist()
    return [(start, stop - start) for start, stop in zip(starts, stops)]


def detect_gaps(series: HourlySeries, structural_threshold: int = 24) -> tuple[tuple[int, int], ...]:
    """The target's maximal missing runs of at least ``structural_threshold``
    hours, as (start_index, length_hours), disjoint and sorted."""
    if structural_threshold < 1:
        raise SeriesError("structural_threshold must be >= 1")
    mask = np.isnan(series.channel(0))
    return tuple(r for r in missing_runs(mask) if r[1] >= structural_threshold)


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


def series_to_csv(series: HourlySeries, path) -> str:
    """Persist as CSV: ISO-8601 hour column, one column per channel, empty =
    missing, ``\\r\\n`` line ends: the bytes csv.writer gives for these rows,
    built 512 rows of ``repr`` at a time (larger pieces raise peak RSS).
    Returns the file's sha256, hashed from what was written."""
    start = np.datetime64(int(series.start.timestamp()), "s")
    with replace_on_success(path) as out:
        fh = _Sha256Text(out)
        csv.writer(fh).writerow(["hour", *series.channel_names])
        for lo in range(0, len(series), 512):
            stop = min(lo + 512, len(series))
            hours = np.datetime_as_string(start + np.arange(lo, stop) * np.timedelta64(3600, "s"))
            rows = zip(hours, series.values[lo:stop].tolist())
            # repr spells a missing value "nan" and nothing else with those letters
            fh.write("".join(f"{hour}+00:00,{','.join(map(repr, row))}\r\n"
                             for hour, row in rows).replace("nan", ""))
    return fh.sha.hexdigest()


def series_from_csv(path) -> HourlySeries:
    """Read back a cache written by series_to_csv; a cache it could not
    have written raises SeriesError. Only the first and last hour cells
    are parsed: the last must be the first plus one hour per row."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            channel_names = tuple(next(csv.reader(fh), ["hour"])[1:])
            first = fh.readline()
            if not first:
                raise SeriesError(f"{path}: empty hourly cache")
            start = _cache_hour(path, first, "line 2")
            last = _cache_hour(path, _last_line(fh), "its last row")
            n = len(channel_names)
            # a row has n commas and a line end, so a bad last hour cannot size a huge table
            size = min((last - start) // HOUR + 1, os.fstat(fh.fileno()).st_size // (n + 2))
            values = np.empty((max(size, 0), n))
            rows = 0
            for part in _numeric_blocks(fh, range(1, n + 1), n + 1, lead=first):
                if rows + len(part) <= len(values):
                    values[rows:rows + len(part)] = part
                rows += len(part)
    except _NotNumeric:
        raise SeriesError(f"{path}: corrupt hourly cache: not {n} numeric cells per hour") from None
    except UnicodeDecodeError:
        raise _not_utf8(path, SeriesError) from None
    if rows != len(values) or last != start + (rows - 1) * HOUR:
        raise SeriesError(f"{path}: corrupt hourly cache: {rows} rows from {start.isoformat()} "
                          f"end at {last.isoformat()}, not one row per hour")
    return HourlySeries(start, values, channel_names)


def _cache_hour(path, line: str, where: str) -> datetime:
    """The hour cell that starts a cache row."""
    try:
        return datetime.fromisoformat(line.split(",", 1)[0].rstrip("\r\n"))
    except ValueError:
        raise SeriesError(f"{path}: bad hour in {where}") from None
