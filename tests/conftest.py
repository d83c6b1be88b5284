from datetime import datetime, timezone

import numpy as np
import pytest

from loadcast import series
from loadcast.series import HourlySeries

MONDAY = datetime(2013, 10, 7, tzinfo=timezone.utc)  # a Monday 00:00 UTC


def make_series(values, start=MONDAY, channel_names=None) -> HourlySeries:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if channel_names is None:
        channel_names = tuple(f"ch{i}" for i in range(arr.shape[1]))
        if arr.shape[1] == 1:
            channel_names = ("Aggregate",)
    return HourlySeries(start, arr, tuple(channel_names))


@pytest.fixture
def monday_start():
    return MONDAY


@pytest.fixture
def tear_csv_writes(monkeypatch):
    """``tear(n)`` makes every file written later through
    ``series.replace_on_success`` raise OSError("disk full") once it holds
    ``n`` lines: the write that would pass line ``n`` puts down the lines
    that fit and then fails, as a write that fails halfway."""

    class TornFile:
        def __init__(self, fh, n: int):
            self.fh, self.left = fh, n

        def write(self, data):
            newline = "\n" if isinstance(data, str) else b"\n"
            if data.count(newline) > self.left:
                cut = 0
                for _ in range(self.left):
                    cut = data.index(newline, cut) + 1
                self.fh.write(data[:cut])
                self.left = 0
                raise OSError("disk full")
            self.left -= data.count(newline)
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def tear(n: int) -> None:
        def torn_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return TornFile(fh, n) if "w" in mode else fh

        monkeypatch.setattr(series, "open", torn_open, raising=False)

    return tear
