"""Synthetic household load generators for desk-scale verification.

The regime-switching profile mimics the behaviour that defeats fixed
seasonal models: strong morning/evening double peaks on weekdays and
near-zero standby load on weekends.
"""

from __future__ import annotations

import csv
from datetime import datetime, timezone

import numpy as np

from .series import HourlySeries

# every synthetic series starts at midnight UTC on a Monday, in REFIT's era
START = datetime(2013, 10, 7, tzinfo=timezone.utc)


def weekly_profile_value(dow: np.ndarray, hour: np.ndarray) -> np.ndarray:
    """Deterministic weekday double-peak / near-zero weekend load in watts."""
    weekday = dow < 5
    morning = 800.0 * np.exp(-0.5 * ((hour - 8.0) / 1.5) ** 2)
    evening = 1400.0 * np.exp(-0.5 * ((hour - 19.0) / 2.0) ** 2)
    base = 120.0 + morning + evening
    return np.where(weekday, base, 40.0)


def regime_switching_series(
    n_hours: int,
    noise: float = 0.0,
    n_appliances: int = 0,
    seed: int = 0,
) -> HourlySeries:
    """Hourly aggregate (plus optional appliance shares) with the weekday/
    weekend regime switch; noise is a multiplicative gaussian jitter."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n_hours)
    hours = idx % 24
    dow = idx // 24 % 7
    agg = weekly_profile_value(dow, hours)
    if noise:
        agg = np.maximum(agg * (1.0 + noise * rng.standard_normal(n_hours)), 0.0)
    channels = [agg]
    names = ["Aggregate"]
    for a in range(n_appliances):
        share = rng.uniform(0.02, 0.15)
        channels.append(agg * share * (1.0 + 0.1 * rng.standard_normal(n_hours)))
        names.append(f"Appliance{a + 1}")
    return HourlySeries(START, np.column_stack(channels), tuple(names))


def bimodal_weekly_series(n_hours: int) -> HourlySeries:
    """Pure (day-of-week, hour) signal whose value distribution is bimodal:
    a low standby state and a high peak state, nothing in between."""
    idx = np.arange(n_hours)
    hours = idx % 24
    dow = idx // 24 % 7
    peak = ((dow < 5) & ((hours == 8) | (hours == 19) | (hours == 20))).astype(float)
    values = 100.0 + 1900.0 * peak
    return HourlySeries(START, values[:, None], ("Aggregate",))


def write_meter_csv(
    path,
    series: HourlySeries,
    cadence_seconds: int = 1800,
) -> None:
    """Write a raw REFIT-style CSV sampling each hour's value at the given
    cadence, so ingestion and hourly resampling have real work to do."""
    per_hour = max(3600 // cadence_seconds, 1)
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    base_ts = int((series.start - epoch).total_seconds())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Unix", *series.channel_names])
        for i in range(len(series)):
            row_vals = series.values[i]
            if np.isnan(row_vals).all():
                continue  # sensor outage: no readings at all this hour
            for j in range(per_hour):
                ts = base_ts + i * 3600 + j * cadence_seconds
                cells = ["" if np.isnan(v) else f"{max(v, 0.0):.3f}" for v in row_vals]
                writer.writerow([ts, *cells])
