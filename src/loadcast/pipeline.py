"""Pipeline orchestration behind the CLI: ingest and cache the hourly
series, run the imputer-selection trial, train the model roster on the
chronological split and emit the evaluation report plus plot-data CSVs.

Every model is one entry of ``MODELS``: a ``fit`` that writes artifacts
under ``models/``, a ``predict`` that reads them back into one array
forecasting the test hours, ``(n,)`` for a point model or ``(n, 3)``
quantiles whose middle column is the point, and a function giving its
default hyperparameters. Both take the ``PreparedData``, which carries the
config and cuts each model input into (fit, validation, test) parts once.
The kernel modules (``boosted``, ``neural``, ``classical``) are imported
by these functions, so a command loads only the kernels its models use.

Each command hands the next what it read, as files whose sha256 the
manifest records and the next command checks: ``ingest`` keeps the hourly
series as ``hourly_series.json`` + ``.bin`` (and exports it as the hourly
cache CSV, which no command reads back); ``cmd_impute_eval`` and
``cmd_train`` read that pair; ``cmd_train`` imputes the series once and
keeps it as ``imputed_series.json`` + ``.bin``; ``cmd_evaluate`` reads
that pair back, takes the test hours and their actual watts from it once
and scores every row, external predictions included, on them through one
``metrics.score``.

Leakage rules: the imputation trial window and all structural-gap profiles
come from the train segment only, scalers fit on the train segment only,
and every model's early-stopping validation set is the chronological tail
of the train split. Poisoning test-split values must leave training
artifacts byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from . import imputation, metrics
from .config import PipelineConfig
from .features import (
    FeatureMatrix,
    WindowTensor,
    assemble_matrix,
    calendar_features,
    windowize,
)
from .series import (
    HOUR,
    HourlySeries,
    IngestError,
    ScalerParams,
    chronological_split,
    detect_gaps,
    ingest_csv,
    minmax_fit,
    minmax_transform,
    missing_runs,
    read_blob,
    read_header,
    replace_on_success,
    resample_hourly,
    series_from_csv,  # no command reads the CSV back; the benchmark's tracer wraps this name
    series_to_csv,
    write_header_blob,
)

if TYPE_CHECKING:
    from . import boosted

logger = logging.getLogger(__name__)

CACHE_FILE = "hourly_cache.csv"
HOURLY_PREFIX = "hourly_series"  # the hourly series `ingest` keeps for `impute-eval` and `train`
IMPUTED_PREFIX = "imputed_series"  # the .json header + .bin blob `train` fits on
GAPS_FILE = "gap_report.csv"
TRIAL_FILE = "imputation_trial.csv"
MANIFEST_FILE = "manifest.json"
REPORT_CSV = "report.csv"
REPORT_TXT = "report.txt"

# fixed normalisation ranges for calendar columns on the neural path
_CALENDAR_RANGES = {"hour": (0.0, 23.0), "dayofweek": (0.0, 6.0),
                    "month": (1.0, 12.0), "is_weekend": (0.0, 1.0)}
# the LSTM's windows and parameters; float32 halves its training time
_LSTM_DTYPE = np.float32


class PipelineError(RuntimeError):
    """Raised when a command cannot run (missing cache, hash mismatch, ...)."""


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def _write_text(path: Path, text: str) -> None:
    with replace_on_success(path) as fh:
        fh.write(text)


def _manifest_path(cfg: PipelineConfig) -> Path:
    return cfg.resolved_output_dir() / MANIFEST_FILE


def load_manifest(cfg: PipelineConfig) -> dict:
    path = _manifest_path(cfg)
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_manifest(cfg: PipelineConfig, manifest: dict) -> None:
    manifest["manifest_hash"] = manifest_hash(manifest)
    with replace_on_success(_manifest_path(cfg)) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)


def manifest_hash(manifest: dict) -> str:
    """Hash of the deterministic manifest content (wall-clock stamps excluded)."""
    content = {k: v for k, v in manifest.items() if k not in ("timestamps", "manifest_hash")}
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode("utf-8")).hexdigest()


def _stamp(manifest: dict, command: str) -> None:
    manifest.setdefault("timestamps", {})[command] = datetime.now(timezone.utc).isoformat()


def _write_csv(path: Path, header: list[str], rows) -> None:
    with replace_on_success(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _check_sha256(path: Path, want: str | None, writer: str) -> None:
    """Refuse a file that is missing or whose bytes are not the ones the
    command ``writer`` recorded as ``want``."""
    try:
        found = _file_sha256(path)
    except OSError as exc:
        raise PipelineError(f"{path}: cannot read ({exc.strerror}); run `{writer}`") from None
    if found != want:
        raise PipelineError(f"{path}: changed since `{writer}` wrote it (sha256 {found[:12]}, "
                            f"manifest {want[:12] if want else 'none'}); run `{writer}`")


def _save_series(out_dir: Path, prefix: str, series: HourlySeries, *parts: np.ndarray,
                 **header) -> dict[str, str]:
    """Keep ``series``, then any ``parts`` of its shape, as ``<prefix>.json``
    + ``.bin``; return each file's sha256 for the manifest."""
    header.update(start=series.start.isoformat(), channels=list(series.channel_names),
                  n_hours=len(series))
    return write_header_blob(out_dir / prefix, header, series.values, *parts)


def _load_series(cfg: PipelineConfig, manifest: dict, prefix: str, writer: str,
                 what: str, *dtypes: str) -> tuple[dict, HourlySeries, list[np.ndarray]]:
    """The header, the series and any further parts of ``dtypes`` that
    ``_save_series`` kept as ``<prefix>.json`` + ``.bin``, once both files
    match the digests the command ``writer`` recorded in the manifest."""
    out_dir = cfg.resolved_output_dir()
    digests = manifest.get(prefix, {})
    for name in (f"{prefix}.json", f"{prefix}.bin"):
        _check_sha256(out_dir / name, digests.get(name), writer)
    header = read_header(out_dir / prefix)
    shape = (header["n_hours"], len(header["channels"]))
    values, *parts = read_blob(out_dir / prefix, [(dtype, shape) for dtype in ("<f8", *dtypes)],
                               f"{shape[0]} hours x {shape[1]} channels of {what}")
    series = HourlySeries(datetime.fromisoformat(header["start"]), values,
                          tuple(header["channels"]))
    return header, series, parts


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def cmd_ingest(cfg: PipelineConfig) -> tuple[HourlySeries, tuple[tuple[int, int], ...]]:
    """Parse, resample and keep the input as the hourly series pair, and
    export it as the hourly cache CSV. A cache hit reads the pair back and
    rewrites neither: the input file and the column schema must be
    unchanged, and the CSV and both pair files must match the manifest's
    digests. A missing or changed file, or a manifest with no pair entry,
    is a miss: everything is rebuilt under a fresh manifest, so
    `impute-eval` and `train` must run again.
    The gap report always follows the current threshold; the structural
    gaps are returned as (start_index, length_hours) runs."""
    out_dir = cfg.resolved_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        fingerprint = _file_sha256(Path(cfg.input_path))
    except OSError as exc:
        raise IngestError(f"cannot read {cfg.input_path}: {exc}") from exc
    schema = cfg.column_schema()
    columns = {"timestamp": schema.timestamp, "aggregate": schema.aggregate,
               "appliances": list(schema.appliances)}
    manifest = load_manifest(cfg)

    cache_path = out_dir / CACHE_FILE
    hourly = None
    if manifest.get("data_fingerprint") == fingerprint and manifest.get("columns") == columns:
        try:  # the checks `impute-eval` makes, so a hit is a directory it accepts
            _check_sha256(cache_path, manifest.get("cache_sha256"), "ingest")
            _, hourly, _ = _load_series(cfg, manifest, HOURLY_PREFIX, "ingest", "values")
        except PipelineError as exc:
            logger.info("ingest: not reusing the cache: %s", exc)
    if hourly is not None:
        logger.info("ingest: cache up to date (fingerprint %s), not rewriting", fingerprint[:12])
    else:
        hourly = resample_hourly(ingest_csv(cfg.input_path, schema))
        cache_sha256 = series_to_csv(hourly, cache_path)
        # Every other entry (imputer choice, models, config hash, metrics)
        # was derived from the old cache, so none of it carries over.
        manifest = {"data_fingerprint": fingerprint, "columns": columns,
                    "cache_sha256": cache_sha256,
                    HOURLY_PREFIX: _save_series(out_dir, HOURLY_PREFIX, hourly),
                    "n_hours": len(hourly), "channels": list(hourly.channel_names)}

    gaps = detect_gaps(hourly, cfg.structural_gap_threshold)
    _write_csv(out_dir / GAPS_FILE, ["start_index", "start_hour", "length_hours"], (
        [start, (hourly.start + start * HOUR).isoformat(), length] for start, length in gaps
    ))
    manifest["gaps"] = [[s, l] for s, l in gaps]
    _stamp(manifest, "ingest")
    save_manifest(cfg, manifest)
    logger.info("ingest: %d hours, %d channels, %d structural gap(s)",
                len(hourly), hourly.n_channels, len(gaps))
    return hourly, gaps


# ---------------------------------------------------------------------------
# impute-eval
# ---------------------------------------------------------------------------


def _trial_window(cfg: PipelineConfig, train: HourlySeries) -> tuple[int, int]:
    """First fully observed window of at least 3 months and the configured
    minimum inside the train segment, falling back to the longest one if it
    still meets the configured minimum."""
    present = ~np.isnan(train.channel(0))
    runs = missing_runs(present)  # the run finder is generic: runs of True
    full_months = [r for r in runs if r[1] >= max(2160, cfg.trial_min_window_hours)]
    if full_months:
        return full_months[0][0], full_months[0][0] + full_months[0][1]
    if runs:
        longest = max(runs, key=lambda r: r[1])
        if longest[1] >= cfg.trial_min_window_hours:
            return longest[0], longest[0] + longest[1]
    raise PipelineError(
        f"no gapless window of at least {cfg.trial_min_window_hours} hours in the train segment"
    )


def cmd_impute_eval(cfg: PipelineConfig) -> tuple[imputation.ImputationTrial, str]:
    """Mask the middle third of a gapless train-segment window, score the
    linear vs. seasonal imputers and record the winner in the manifest.
    Reads the hourly series pair `ingest` kept, never the cache CSV.

    The trial sees the train segment only, so the selection can never
    depend on test-split values."""
    out_dir = cfg.resolved_output_dir()
    manifest = load_manifest(cfg)
    _, hourly, _ = _load_series(cfg, manifest, HOURLY_PREFIX, "ingest", "values")
    train_segment, _ = chronological_split(hourly, cfg.split_fraction)
    _check_train_readings(train_segment)
    w_start, w_stop = _trial_window(cfg, train_segment)
    length = w_stop - w_start
    mask = (w_start + length // 3, w_start + 2 * length // 3)
    trial = imputation.run_imputation_trial(train_segment, mask)
    chosen = imputation.choose_imputer(trial)

    results = trial.method_results
    _write_csv(out_dir / TRIAL_FILE, ["method", "rmse", "mae", "emd"], (
        [name, repr(r.rmse), repr(r.mae), repr(r.distribution_distance)]
        for name, r in sorted(results.items())
    ))
    edges = trial.bin_edges
    for name, counts in [("truth", trial.truth_histogram)] + [
        (m, results[m].histogram) for m in sorted(results)
    ]:
        _write_csv(out_dir / f"hist_{name}.csv", ["bin_left", "bin_right", "count"], (
            [repr(float(edges[i])), repr(float(edges[i + 1])), int(c)]
            for i, c in enumerate(counts)
        ))

    manifest["chosen_imputer"] = chosen
    manifest["imputation_trial"] = {
        "masked_range": list(trial.masked_range),
        "results": {
            name: {"rmse": r.rmse, "mae": r.mae, "emd": r.distribution_distance}
            for name, r in results.items()
        },
    }
    _stamp(manifest, "impute-eval")
    save_manifest(cfg, manifest)
    logger.info("impute-eval: chose %s (mask %s)", chosen, mask)
    return trial, chosen


# ---------------------------------------------------------------------------
# data preparation shared by train and evaluate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedData:
    """What the models see of an imputed series. The scaler and each model
    input, already cut into (fit, validation, test) parts, are computed on
    first use, once, so a command builds only what its roster reads, and an
    input that cannot be built fails only the models that read it."""

    full: HourlySeries            # imputed, watts
    source: np.ndarray            # read-only int8 (hours, channels): imputation.OBSERVED ...
    split_idx: int
    cfg: PipelineConfig

    @cached_property
    def scaler(self) -> ScalerParams:
        """Min-max ranges fitted on the train segment."""
        return minmax_fit(self.full, (0, self.split_idx))

    @cached_property
    def tabular(self) -> tuple[FeatureMatrix, FeatureMatrix, FeatureMatrix]:
        """Rows of watts, calendar + lags."""
        matrix = assemble_matrix(self.full, calendar=self.cfg.calendar_features,
                                 lags=self.cfg.lags)
        return self._split(matrix.hours, matrix.rows)

    @cached_property
    def windows(self) -> tuple[WindowTensor, WindowTensor, WindowTensor]:
        """Windows over the train-scaled channels, the normalised calendar
        columns and the lags, in the LSTM's dtype; targets stay float64."""
        cfg = self.cfg
        scaled = minmax_transform(self.full, self.scaler)
        window_channels = (
            cfg.window_channels if cfg.window_channels is not None else self.full.channel_names
        )
        matrix = assemble_matrix(scaled, calendar=cfg.calendar_features, lags=cfg.lags,
                                 channels=tuple(window_channels))
        feats = matrix.features.copy()
        for j, name in enumerate(matrix.feature_order):
            if name in _CALENDAR_RANGES:
                lo, hi = _CALENDAR_RANGES[name]
                feats[:, j] = (feats[:, j] - lo) / (hi - lo)
        matrix = FeatureMatrix(matrix.hours, feats.astype(_LSTM_DTYPE), matrix.feature_order,
                               matrix.target)
        windows = windowize(matrix, window=cfg.params_for("lstm")["window"])
        return self._split(windows.hours, windows.samples)

    def _split(self, hours: np.ndarray, take):
        """(fit, validation, test) parts of rows keyed by ascending hours:
        rows before the split hour are the train part, its chronological
        tail the validation set. ``take(start, stop)`` cuts one part."""
        n_train = int(np.searchsorted(hours, self.split_idx))
        n_fit = int(np.floor(n_train * (1.0 - self.cfg.validation_fraction)))
        if n_fit == 0 or n_fit == n_train:
            raise PipelineError("validation_fraction leaves an empty fit or validation set")
        return take(0, n_fit), take(n_fit, n_train), take(n_train, len(hours))


def _fill(source: np.ndarray, code: int, impute, series: HourlySeries, *args) -> HourlySeries:
    """Run one imputer over ``series``; mark with ``code`` the cells it filled."""
    filled = impute(series, *args)
    source[np.isnan(series.values) & ~np.isnan(filled.values)] = code
    return filled


def _impute_segment(
    cfg: PipelineConfig, segment: HourlySeries, chosen: str,
    profile: imputation.SeasonalProfile | None = None,
) -> tuple[HourlySeries, np.ndarray]:
    """Fill one segment and say how each cell got its value: kNN for runs of
    at most ``knn_max_gap`` hours, then each remaining run of hours with any
    channel missing by the chosen imputer. A run at the segment's edge has
    no line anchor on one side, so it always takes the seasonal profile,
    which defaults to the segment's own after kNN."""
    source = np.zeros(segment.values.shape, dtype=np.int8)
    segment = _fill(source, imputation.KNN, imputation.knn_impute,
                    segment, cfg.knn_k, cfg.knn_max_gap)
    runs = [(start, start + length)
            for start, length in missing_runs(np.isnan(segment.values).any(axis=1))]
    if not runs:
        return segment, source
    if profile is None:
        profile = imputation.build_seasonal_profile(segment)
    linear = [(start, stop) for start, stop in runs
              if chosen == "linear" and 0 < start and stop < len(segment)]
    segment = _fill(source, imputation.SEASONAL, imputation.seasonal_impute,
                    segment, [run for run in runs if run not in linear], profile)
    source[(source == imputation.SEASONAL)
           & np.isnan(profile.cell_means(segment))] = imputation.SEASONAL_FALLBACK
    segment = _fill(source, imputation.LINEAR, imputation.linear_impute, segment, linear)
    return segment, source


def _impute_split(
    cfg: PipelineConfig, train: HourlySeries, test: HourlySeries, chosen: str
) -> tuple[HourlySeries, np.ndarray]:
    """Impute train and test segments without letting test values reach the
    train side: the test segment's profile is the imputed train segment's.
    Returns the imputed series and its read-only fill codes."""
    train, train_source = _impute_segment(cfg, train, chosen)
    test, test_source = _impute_segment(cfg, test, chosen, imputation.build_seasonal_profile(train))
    for name, part in (("train", train_source), ("test", test_source)):
        logger.info("imputed %s segment: %d kNN, %d linear, %d seasonal, "
                    "%d seasonal-fallback cells", name, *np.bincount(part.ravel(), minlength=5)[1:])
    source = np.vstack([train_source, test_source])
    source.flags.writeable = False
    return train.with_values(np.vstack([train.values, test.values])), source


def _check_train_readings(train: HourlySeries) -> None:
    """Refuse a channel with no reading in the train segment: no imputer can
    fill it, and its test hours would take an empty train profile."""
    dead = np.flatnonzero(np.isnan(train.values).all(axis=0))
    if len(dead):
        remedy = "the target needs readings there" if dead[0] == 0 \
            else "drop it from columns.appliances"
        last = train.start + (len(train) - 1) * HOUR
        raise PipelineError(
            f"channel {train.channel_names[dead[0]]!r} has no reading in the train segment, "
            f"hours {train.start.isoformat()} to {last.isoformat()} ({len(train)} hours); {remedy}"
        )


def prepare_data(cfg: PipelineConfig, hourly: HourlySeries, chosen: str) -> PreparedData:
    train, test = chronological_split(hourly, cfg.split_fraction)
    _check_train_readings(train)
    full, source = _impute_split(cfg, train, test, chosen)
    return PreparedData(full, source, len(train), cfg)


def _save_imputed(out_dir: Path, data: PreparedData, chosen: str) -> dict[str, str]:
    """Write the imputed series and its fill codes as ``imputed_series.json``
    + ``.bin``; return each file's sha256 for the manifest."""
    return _save_series(out_dir, IMPUTED_PREFIX, data.full, data.source,
                        split_idx=data.split_idx, imputer=chosen)


def _load_imputed(cfg: PipelineConfig, manifest: dict) -> PreparedData:
    """The PreparedData `train` fitted on, from the pair ``_save_imputed``
    wrote, once both files match the digests in the manifest."""
    header, full, (source,) = _load_series(cfg, manifest, IMPUTED_PREFIX, "train",
                                           "values and fill codes", "i1")
    source.flags.writeable = False
    return PreparedData(full, source, header["split_idx"], cfg)


def _chosen_imputer(manifest: dict) -> str:
    chosen = manifest.get("chosen_imputer")
    if not chosen:
        raise PipelineError("no imputer chosen; run `impute-eval` first")
    return chosen


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------


def _fit_seasonal_naive(data: PreparedData, models_dir: Path) -> list[str]:
    period = data.cfg.params_for("seasonal_naive")["period"]
    if period < 1:  # period 0 would forecast each hour by itself
        raise PipelineError(f"period must be >= 1, got {period}")
    if data.split_idx < period:
        raise PipelineError(f"train split shorter than the naive period {period}")
    tail = data.full.channel(0)[data.split_idx - period : data.split_idx]
    doc = {"period": period, "history_tail": tail.tolist()}
    _write_text(models_dir / "seasonal_naive.json", json.dumps(doc, sort_keys=True, indent=1))
    return ["seasonal_naive.json"]


def _predict_seasonal_naive(data: PreparedData, models_dir: Path) -> np.ndarray:
    doc = json.loads((models_dir / "seasonal_naive.json").read_text(encoding="utf-8"))
    period = int(doc["period"])
    history = np.asarray(doc["history_tail"], dtype=float)
    # rolling one-step forecast: the value one period earlier, test hours included
    combined = np.concatenate([history, data.full.channel(0)[data.split_idx :]])
    return combined[len(history) - period : len(combined) - period]


def _calendar_exog(series: HourlySeries, lo: int, hi: int, names: tuple[str, ...]) -> np.ndarray:
    cal = calendar_features(series.start, np.arange(lo, hi))
    # the (hours, 0) block keeps the shape when no names are given (plain SARIMA)
    return np.column_stack([np.empty((hi - lo, 0))] + [cal[name] for name in names])


def _fit_sarimax(data: PreparedData, models_dir: Path) -> list[str]:
    from . import classical
    params = data.cfg.params_for("sarimax")
    p, d, q = params["order"]
    P, D, Q, s = params["seasonal_order"]
    order = classical.SarimaxOrder(p, d, q, P, D, Q, s)
    tail_hours = params["train_tail_days"] * 24
    lo = max(data.split_idx - tail_hours, 0)
    endog = data.full.channel(0)[lo : data.split_idx]
    exog = _calendar_exog(data.full, lo, data.split_idx, params["exog"])
    model = classical.sarimax_fit(
        endog, exog, order, exog_names=params["exog"], max_iter=params["max_iter"]
    )
    _write_text(models_dir / "sarimax.json", classical.sarimax_to_json(model))
    return ["sarimax.json"]


def _predict_sarimax(data: PreparedData, models_dir: Path) -> np.ndarray:
    from . import classical
    model = classical.sarimax_from_json((models_dir / "sarimax.json").read_text(encoding="utf-8"))
    steps = len(data.full) - data.split_idx
    exog = _calendar_exog(data.full, data.split_idx, len(data.full), model.exog_names)
    return classical.sarimax_forecast(model, steps, exog)


def _fit_boosted(data: PreparedData, name: str, loss) -> boosted.GbdtModel:
    from . import boosted
    fit, val, _ = data.tabular
    return boosted.gbdt_fit(
        fit.features, fit.target, val.features, val.target,
        params=boosted.GbdtParams(**data.cfg.params_for(name)), loss=loss,
        feature_order=fit.feature_order,
    )


def _fit_gbdt(data: PreparedData, models_dir: Path) -> list[str]:
    from . import boosted
    model = _fit_boosted(data, "gbdt", boosted.SquaredLoss())
    return list(boosted.save_gbdt(models_dir / "gbdt", model))


def _predict_gbdt(data: PreparedData, models_dir: Path) -> np.ndarray:
    from . import boosted
    return boosted.gbdt_predict(boosted.load_gbdt(models_dir / "gbdt"), data.tabular[2])


def _fit_gbdt_quantile(data: PreparedData, models_dir: Path) -> list[str]:
    from . import boosted
    models = {tau: _fit_boosted(data, "gbdt_quantile", boosted.PinballLoss(tau=tau))
              for tau in metrics.QUANTILE_LEVELS}
    return list(boosted.save_gbdt_quantiles(models_dir / "gbdt_quantile", models))


def _predict_gbdt_quantile(data: PreparedData, models_dir: Path) -> np.ndarray:
    from . import boosted
    models = boosted.load_gbdt_quantiles(models_dir / "gbdt_quantile")
    return boosted.gbdt_predict_quantiles(models, data.tabular[2])


def _fit_lstm(data: PreparedData, models_dir: Path) -> list[str]:
    from . import neural
    params = neural.LstmParams(**data.cfg.params_for("lstm"))
    seed = data.cfg.model_seed("lstm")
    fit, val, _ = data.windows
    model = neural.init_model(
        n_features=fit.data.shape[2],
        hidden=params.hidden,
        dropout_rate=params.dropout,
        seed=seed,
        dtype=_LSTM_DTYPE,
    )
    model, history = neural.train(model, fit, val, params, seed)
    saved = neural.save_checkpoint(model, str(models_dir / "lstm"), scaler=data.scaler)
    neural.history_to_csv(history, models_dir / "lstm_history.csv")
    return [*saved, "lstm_history.csv"]


def _predict_lstm(data: PreparedData, models_dir: Path) -> np.ndarray:
    from . import neural
    model, scaler = neural.load_checkpoint(str(models_dir / "lstm"))
    return neural.predict_quantiles(model, data.windows[2], scaler=scaler)


class ModelSpec(NamedTuple):
    # fit writes the artifacts under models_dir and returns their file names;
    # predict returns the test hours' forecast in watts: (n,) for a point
    # model, or (n, 3) quantiles in metrics.QUANTILE_LEVELS order, whose
    # middle column is the point
    fit: Callable[[PreparedData, Path], list[str]]
    predict: Callable[[PreparedData, Path], np.ndarray]
    # every hyperparameter, typed by its default; a function, so that only
    # a model the config names has its kernel module imported
    defaults: Callable[[], dict[str, Any]]


def _gbdt_defaults() -> dict[str, Any]:
    from . import boosted
    return asdict(boosted.GbdtParams())


def _lstm_defaults() -> dict[str, Any]:
    from . import neural
    return asdict(neural.LstmParams())


MODELS: dict[str, ModelSpec] = {
    "seasonal_naive": ModelSpec(_fit_seasonal_naive, _predict_seasonal_naive,
                                lambda: {"period": 24}),
    "sarimax": ModelSpec(_fit_sarimax, _predict_sarimax, lambda: {
        "order": (1, 1, 1), "seasonal_order": (1, 1, 0, 24), "exog": ("hour", "dayofweek"),
        "train_tail_days": 30, "max_iter": 500}),
    "gbdt": ModelSpec(_fit_gbdt, _predict_gbdt, _gbdt_defaults),
    "gbdt_quantile": ModelSpec(_fit_gbdt_quantile, _predict_gbdt_quantile, _gbdt_defaults),
    "lstm": ModelSpec(_fit_lstm, _predict_lstm, _lstm_defaults),
}

DEFAULT_ROSTER = ("seasonal_naive", "sarimax", "gbdt", "lstm")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(cfg: PipelineConfig, models: tuple[str, ...] | None = None) -> dict:
    """Train every enabled model on the hourly series `ingest` kept,
    imputed; the imputed series is kept for `evaluate`. A failing model is
    recorded, not fatal."""
    roster = models if models is not None else cfg.roster
    for i, name in enumerate(roster):
        if name not in cfg.roster:
            raise PipelineError(f"model {name!r} is not in the configured roster {cfg.roster}")
        if name in roster[:i]:
            raise PipelineError(f"model {name!r} is named more than once in {roster}")
    out_dir = cfg.resolved_output_dir()
    manifest = load_manifest(cfg)
    chosen = _chosen_imputer(manifest)
    _, hourly, _ = _load_series(cfg, manifest, HOURLY_PREFIX, "ingest", "values")
    data = prepare_data(cfg, hourly, chosen)
    manifest[IMPUTED_PREFIX] = _save_imputed(out_dir, data, chosen)

    models_dir = out_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    entries = manifest.setdefault("models", {})
    for name in roster:
        try:
            artifacts = MODELS[name].fit(data, models_dir)
            hashes = {a: _file_sha256(models_dir / a) for a in artifacts}
            entries[name] = {
                "status": "ok",
                "artifacts": [f"models/{a}" for a in artifacts],
                "artifact_sha256": hashes,
                "seed": cfg.model_seed(name),
            }
            logger.info("train: %s ok (%s)", name, ", ".join(artifacts))
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            entries[name] = {"status": "failed", "artifacts": [], "error": str(exc)}
            logger.error("train: %s failed: %s", name, exc)

    manifest["config_hash"] = cfg.config_hash()
    _stamp(manifest, "train")
    save_manifest(cfg, manifest)
    return manifest


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _plot_axis(hours: tuple[datetime, ...], actual: np.ndarray) -> list[str]:
    """Each test hour's ``timestamp,actual,`` plot-CSV text, formatted once
    per evaluate and shared by every model's plot."""
    return [f"{ts.isoformat()},{a!r}," for ts, a in zip(hours, actual.tolist())]


def _write_plot_csv(path: Path, axis: list[str], forecast: np.ndarray) -> None:
    """Write one model's plot CSV: the ``_plot_axis`` text of each test
    hour, formatted once by ``cmd_evaluate``, then the point track and the
    outer quantiles (blank for a point forecast). The bytes are those
    csv.writer gives for these rows, built 512 rows at a time."""
    forecast = np.asarray(forecast, dtype=float)
    if forecast.ndim == 1:
        rows = (f"{pre}{p!r},,\r\n" for pre, p in zip(axis, forecast.tolist()))
    else:
        rows = (f"{pre}{p!r},{lo!r},{hi!r}\r\n"
                for pre, lo, p, hi in zip(axis, *forecast.T.tolist()))
    with replace_on_success(path) as fh:
        fh.write("timestamp,actual,point_or_q50,q05,q95\r\n")
        for _ in range(0, len(axis), 512):
            fh.write("".join(islice(rows, 512)))


def _external_cell(path: str, row: dict, key: str, parse=float):
    """One parsed cell of an external prediction row; a missing, blank,
    unparsable or non-finite cell raises MetricError naming the file and
    the row."""
    try:
        value = parse(row.get(key))
    except (TypeError, ValueError):
        value = np.nan
    if isinstance(value, float) and not np.isfinite(value):
        raise metrics.MetricError(f"external predictions {path}: cannot read the {key} cell "
                                  f"{row.get(key)!r} at timestamp {row.get('timestamp')!r}")
    return value


def _external_forecast(hours: tuple[datetime, ...], path: str) -> np.ndarray:
    """Read an externally produced plot-format CSV of the test hours.

    Every timestamp must carry a UTC offset. Rows off the test split are
    ignored. Every test hour must appear exactly once with a finite
    point_or_q50, and the q05/q95 cells must hold finite numbers on every
    row or be blank on all; anything else raises MetricError naming the
    file and the row's timestamp, as does a file that cannot be opened.
    A band that crosses its point is clamped to it: q05 110, point 100 and
    q95 120 are scored as (100, 100, 120)."""
    index = {ts: i for i, ts in enumerate(hours)}
    seen = np.zeros(len(hours), dtype=int)
    point, q05, q95 = (np.full(len(hours), np.nan) for _ in range(3))
    banded = None
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise metrics.MetricError(f"external predictions {path}: cannot read: {exc}") from exc
    with fh:
        for row in csv.DictReader(fh):
            ts = _external_cell(path, row, "timestamp", datetime.fromisoformat)
            if ts.tzinfo is None:  # would never equal a test hour
                raise metrics.MetricError(
                    f"external predictions {path}: timestamp {row['timestamp']!r} has no UTC "
                    "offset; write every timestamp with one, such as +00:00"
                )
            i = index.get(ts)
            if i is None:
                continue
            band = (row.get("q05") or "", row.get("q95") or "")
            # every row must match the first one: both cells filled or both blank
            if any(band) != all(band) or banded not in (None, all(band)):
                raise metrics.MetricError(
                    f"external predictions {path}: q05/q95 cells at {row['timestamp']} "
                    "differ from the rows before; fill both on every row or on none"
                )
            banded = all(band)
            seen[i] += 1
            point[i] = _external_cell(path, row, "point_or_q50")
            if banded:
                q05[i], q95[i] = _external_cell(path, row, "q05"), _external_cell(path, row, "q95")
    bad = np.flatnonzero(seen != 1)
    if len(bad):
        raise metrics.MetricError(
            f"external predictions {path}: {len(bad)} of {len(seen)} test hours missing or "
            f"repeated, first at {hours[bad[0]].isoformat()}; give every test hour once"
        )
    if not banded:
        return point
    return np.column_stack([np.minimum(q05, point), point, np.maximum(q95, point)])


def _write_report(out_dir: Path, rows: tuple[metrics.ReportRow, ...]) -> str:
    text = metrics.report_to_text(rows)
    _write_text(out_dir / REPORT_CSV, metrics.report_to_csv(rows))
    _write_text(out_dir / REPORT_TXT, text)
    return text


def cmd_evaluate(cfg: PipelineConfig) -> tuple[metrics.ReportRow, ...]:
    """Score every trained model on the test split in watts, write the
    report and per-model plot CSVs. Runs on whatever artifacts exist, on
    the imputed series `train` kept; that pair and each model's artifacts
    must have the sha256 the manifest recorded.

    The test axis (hours and actual watts) is built once, and so is its
    ``timestamp,actual,`` text, which every plot CSV shares. A model whose
    training did not succeed, or whose artifacts or forecast fail, gets no
    report row and loses any plot of an earlier run; a failed artifact
    check or forecast is also recorded in its manifest entry. Every other
    model is still scored and reported, and then PipelineError names each
    failure."""
    out_dir = cfg.resolved_output_dir()
    manifest = load_manifest(cfg)
    if not manifest.get("models"):
        raise PipelineError("no trained models in manifest; run `train` first")
    if manifest.get("config_hash") != cfg.config_hash():
        raise PipelineError("artifact/config hash mismatch: config changed since training")
    data = _load_imputed(cfg, manifest)
    # the one test axis: every row is checked against these hours and
    # scored on these actuals
    hours = tuple(data.full.start + i * HOUR for i in range(data.split_idx, len(data.full)))
    actual = data.full.channel(0)[data.split_idx :]
    axis = _plot_axis(hours, actual)

    plots_dir = out_dir / "plots"
    plots_dir.mkdir(parents=True, exist_ok=True)
    rows: list[metrics.ReportRow] = []
    failures: list[str] = []
    for name in cfg.roster:
        entry = manifest["models"].get(name)
        if not entry or entry.get("status") != "ok":
            logger.warning("evaluate: skipping %s (not trained)", name)
            (plots_dir / f"{name}.csv").unlink(missing_ok=True)
            continue
        entry.pop("evaluate", None)
        hashes = entry.get("artifact_sha256", {})
        try:
            for artifact in entry["artifacts"]:
                _check_sha256(out_dir / artifact, hashes.get(Path(artifact).name), "train")
            forecast = MODELS[name].predict(data, out_dir / "models")
            n = len(hours)
            if np.shape(forecast) not in ((n,), (n, len(metrics.QUANTILE_LEVELS))):
                raise PipelineError(f"forecast does not cover exactly the {n} "
                                    f"test hours from {hours[0]} to {hours[-1]}")
            # crossed quantiles fail the model here
            row = metrics.score(name, actual, forecast)
        except Exception as exc:  # noqa: BLE001 - isolated per model, as in train
            entry["evaluate"] = {"status": "failed", "error": str(exc)}
            failures.append(f"{name}: {exc}")
            (plots_dir / f"{name}.csv").unlink(missing_ok=True)
            logger.error("evaluate: %s failed: %s", name, exc)
            continue
        _write_plot_csv(plots_dir / f"{name}.csv", axis, forecast)
        rows.append(row)
    for name in sorted(cfg.external_predictions):
        rows.append(metrics.score(name, actual,
                                  _external_forecast(hours, cfg.external_predictions[name])))
    # no row is a MetricError, unless every model failed: then there is no report
    if rows or not failures:
        _write_report(out_dir, metrics.assemble_report(rows))

    manifest["metrics"] = {
        r.model: {k: v for k, v in asdict(r).items() if k != "model"} for r in rows
    }
    _stamp(manifest, "evaluate")
    save_manifest(cfg, manifest)
    logger.info("evaluate: %d model row(s) written", len(rows))
    if failures:
        raise PipelineError("; ".join(failures))
    return tuple(rows)


def cmd_report(cfg: PipelineConfig) -> str:
    """Re-render the report from manifest metrics without re-scoring."""
    manifest = load_manifest(cfg)
    stored = manifest.get("metrics")
    if not stored:
        raise PipelineError("no metrics in manifest; run `evaluate` first")
    rows = [metrics.ReportRow(name, **m) for name, m in stored.items()]
    order = {name: i for i, name in enumerate(cfg.roster)}
    rows.sort(key=lambda r: (order.get(r.model, len(order)), r.model))
    return _write_report(cfg.resolved_output_dir(), metrics.assemble_report(rows))
