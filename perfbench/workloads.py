"""Benchmark workloads: seeded synthetic households and their configs.

Each workload is one household built with ``loadcast.synth``, written as a
raw meter CSV plus a pipeline config. The program under test receives only
those two files. The generator also keeps the hourly truth it wrote, so
the benchmark can check the program's hourly cache against it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from loadcast.series import missing_runs
from loadcast.synth import regime_switching_series, write_meter_csv

# One month of hours; whole-meter dropouts start after month 4 so the
# imputer trial always finds its three-month gapless window in the train
# segment.
MONTH_HOURS = 730
OUTAGE_HOURS = 120  # a five-day outage: longer than every kNN gap, so a structural gap
TRIAL_WINDOW_HOURS = 2160  # the imputer trial's preferred gapless window: three months
# impute-eval exits 1 when a sub-meter channel is missing at an anchor hour
# of the trial's masked range: the trial runs its linear imputer on every
# channel, and that imputer needs a present value on each side of the range.
# The generator keeps those two hours observed on every channel; the
# self-check shows the defect on a toy household (test_known_defect_*).
# multiplicative jitter of the synthetic load: 20% keeps the regime pattern
# learnable while every hour still differs from its seasonal twin, so no
# forecaster scores zero error; every workload uses the same level
NOISE = 0.2
SPLIT_FRACTION = 0.8
VALIDATION_FRACTION = 0.1
MAX_LAG = 168  # the default lags are (1, 24, 168)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    hours: int
    appliances: int
    cadence_s: int
    roster: tuple[str, ...]
    headline: str  # the model whose quality the end-to-end metrics report
    model_params: dict[str, dict[str, Any]] = field(default_factory=dict)
    submeter_dropouts: int = 0  # single appliance channel, 1-6 h
    meter_dropouts: int = 0  # every channel, 1-6 h, after month 4
    outages: int = 0  # every channel, OUTAGE_HOURS; one each side of the split
    trial_min_window_hours: int | None = None  # config override, toy sizes only

    @property
    def expected_trees(self) -> int:
        """Trees grown per run: early stopping never fires, so every round runs."""
        n = 0
        if "gbdt" in self.roster:
            n += self.model_params["gbdt"]["n_estimators"]
        if "gbdt_quantile" in self.roster:
            n += 3 * self.model_params["gbdt_quantile"]["n_estimators"]
        return n

    @property
    def expected_epochs(self) -> int:
        return self.model_params["lstm"]["max_epochs"] if "lstm" in self.roster else 0

    @property
    def expected_batches(self) -> int:
        """Training batches of the LSTM on a fully observed household.

        Window targets start after the lag warm-up and the first window;
        the fit part is the head of the train windows, as in the pipeline.
        """
        if "lstm" not in self.roster:
            return 0
        p = self.model_params["lstm"]
        split_idx = math.floor(SPLIT_FRACTION * self.hours)
        n_train = split_idx - MAX_LAG - p["window"]
        n_fit = math.floor(n_train * (1.0 - VALIDATION_FRACTION))
        return p["max_epochs"] * math.ceil(n_fit / p["batch_size"])


_GBDT_50 = {
    "n_estimators": 50,
    "learning_rate": 0.05,
    "max_depth": 6,
    "min_samples_leaf": 1,
    "early_stopping_rounds": 51,
}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="prep_refit",
            why=(
                "Raw parsing dominates the pipeline; the only workload that exercises "
                "every imputation path and the hourly cache at scale. It never runs "
                "boosted or neural, so GBDT and LSTM kernel changes should show no "
                "effect here."
            ),
            hours=2 * 8760,
            appliances=9,
            cadence_s=240,
            roster=("seasonal_naive", "sarimax"),
            # the naive forecast replays imputed test actuals, so ingest and
            # imputation numerics show in its score; SARIMAX's multi-step
            # forecast over the whole test split swings by seed
            headline="seasonal_naive",
            # paper defaults, except that the simplex search stops at 250
            # iterations: seeds converge after 309 to 500 (or run to the
            # default cap of 500), so at 250 every seed fits with the same work
            model_params={"sarimax": {"max_iter": 250}},
            submeter_dropouts=400,
            meter_dropouts=60,
            outages=2,
        ),
        Workload(
            name="gbdt_2y",
            why=(
                "Tree growth dominates train and ingest is trivial; evaluate runs tree "
                "prediction, so a change that trades fit speed against predict speed "
                "shows in both."
            ),
            hours=2 * 8760,
            appliances=2,
            cadence_s=1800,
            roster=("seasonal_naive", "gbdt", "gbdt_quantile"),
            headline="gbdt_quantile",
            model_params={"gbdt": dict(_GBDT_50), "gbdt_quantile": dict(_GBDT_50)},
        ),
        Workload(
            name="lstm_paper",
            why=(
                "LSTM forward and backward dominate train and the window tensor sets "
                "peak memory; evaluate runs one large eval-mode batch, so a change tuned "
                "for the training batch that costs inference shows in evaluate."
            ),
            hours=26 * 168,
            appliances=9,
            cadence_s=1800,
            roster=("seasonal_naive", "lstm"),
            headline="lstm",
            model_params={
                "lstm": {
                    "hidden": [100, 50],
                    "dropout": 0.2,
                    "window": 48,
                    "batch_size": 64,
                    "learning_rate": 1e-3,
                    "max_epochs": 2,
                    "patience": 3,
                }
            },
        ),
    )
}


def toy(w: Workload) -> Workload:
    """The same workload shrunk until a whole run takes a few seconds."""
    params = {k: dict(v) for k, v in w.model_params.items()}
    for name in ("gbdt", "gbdt_quantile"):
        if name in params:
            params[name].update(n_estimators=3, early_stopping_rounds=4, max_depth=3)
    if "lstm" in params:
        params["lstm"].update(hidden=[8, 4], max_epochs=2, patience=3)
    return replace(
        w,
        hours=min(w.hours, 1200),
        cadence_s=max(w.cadence_s, 900),
        model_params=params,
        submeter_dropouts=w.submeter_dropouts // 20,
        meter_dropouts=w.meter_dropouts // 20,
        trial_min_window_hours=200,
    )


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def trial_anchor_hours(aggregate: np.ndarray, min_window_hours: int) -> tuple[int, int]:
    """The hours just before and just after the imputer trial's masked range.

    Mirrors how ``impute-eval`` picks the range: the middle third of the
    first window of at least three months in which the aggregate of the
    train segment is fully observed, else of its longest such window.
    """
    split = math.floor(SPLIT_FRACTION * len(aggregate))
    runs = missing_runs(~np.isnan(aggregate[:split]))
    full = [r for r in runs if r[1] >= TRIAL_WINDOW_HOURS]
    start, length = full[0] if full else max(runs, key=lambda r: r[1])
    if length < min_window_hours:
        raise ValueError("no trial window in the generated household")
    return start + length // 3 - 1, start + 2 * length // 3


def _drop(values: np.ndarray, w: Workload, rng: np.random.Generator) -> None:
    """Blank out the workload's dropout pattern in place.

    The first and last hour stay observed, so the program's hourly grid
    spans exactly the generated hours. Sub-meter dropouts never cover the
    imputer trial's two anchor hours (a known defect, see the note at the top).
    """
    n, n_ch = values.shape
    first_meter_hour = min(4 * MONTH_HOURS, n // 3)
    for _ in range(w.meter_dropouts):
        length = int(rng.integers(1, 7))
        start = int(rng.integers(first_meter_hour, n - 1 - length))
        values[start : start + length, :] = np.nan
    split = math.floor(SPLIT_FRACTION * n)
    # one outage inside the train segment after the trial window, one inside the test segment
    centres = [(first_meter_hour + split) // 2, (split + n) // 2][: w.outages]
    for c in centres:
        values[c - OUTAGE_HOURS // 2 : c + OUTAGE_HOURS // 2, :] = np.nan

    anchors = trial_anchor_hours(values[:, 0], w.trial_min_window_hours or TRIAL_WINDOW_HOURS)
    placed = 0
    while placed < w.submeter_dropouts:
        length = int(rng.integers(1, 7))
        start = int(rng.integers(1, n - 1 - length))
        channel = int(rng.integers(1, n_ch))
        if any(start <= a < start + length for a in anchors):
            continue
        values[start : start + length, channel] = np.nan
        placed += 1


def generate(w: Workload, seed: int, root: Path) -> Path:
    """Write the workload's inputs for ``seed`` under ``root`` once; reuse them after.

    The directory holds ``raw.csv`` and ``config.json`` (the program's only
    inputs), ``truth.npy`` (the hourly values written, NaN where dropped)
    and ``workload.json`` (the spec and why the workload exists). It is
    built in a temporary directory and renamed into place, so an
    interrupted generation never leaves a partial input behind.
    """
    final = root / f"{w.name}-s{seed}"
    if (final / "workload.json").exists():
        return final
    tmp = root / f".tmp-{w.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)

    series = regime_switching_series(w.hours, noise=NOISE, n_appliances=w.appliances, seed=seed)
    values = series.values.copy()
    _drop(values, w, np.random.default_rng([seed, len(w.name), w.hours]))
    series = series.with_values(values)
    write_meter_csv(tmp / "raw.csv", series, cadence_seconds=w.cadence_s)
    np.save(tmp / "truth.npy", values)

    # no "seed" key: model seeds stay at the config default, so what changes
    # from seed to seed is the household alone
    config = {
        "input_path": "raw.csv",
        "output_dir": "out",
        "columns": {"appliances": list(series.channel_names[1:])},
        "roster": list(w.roster),
        "model_params": w.model_params,
        "split_fraction": SPLIT_FRACTION,
        "validation_fraction": VALIDATION_FRACTION,
    }
    if w.trial_min_window_hours is not None:
        config["trial_min_window_hours"] = w.trial_min_window_hours
    (tmp / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    spec = {"seed": seed, **asdict(w)}
    (tmp / "workload.json").write_text(json.dumps(spec, indent=1), encoding="utf-8")

    if final.exists():
        shutil.rmtree(final)
    tmp.rename(final)
    return final
