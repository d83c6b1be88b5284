import csv
from datetime import datetime, timezone

import numpy as np
import pytest

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
    """``tear(n)`` makes every later ``csv.writer`` raise OSError("disk full")
    once it has written ``n`` rows: a write that fails halfway."""
    real_writer = csv.writer

    def tear(n: int) -> None:
        class TornWriter:
            def __init__(self, fh, *args, **kwargs):
                self.inner = real_writer(fh, *args, **kwargs)
                self.left = n

            def writerow(self, row):
                if self.left == 0:
                    raise OSError("disk full")
                self.left -= 1
                self.inner.writerow(row)

            def writerows(self, rows):
                for row in rows:
                    self.writerow(row)

        monkeypatch.setattr(csv, "writer", TornWriter)

    return tear
