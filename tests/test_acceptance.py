"""Acceptance criteria, one test per criterion, each printing a pass line
with its runtime. Run with `pytest tests/test_acceptance.py -v -s`."""

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from loadcast import boosted, classical, imputation, metrics, neural, pipeline
from loadcast.config import config_from_dict
from loadcast.features import assemble_matrix
from loadcast.synth import bimodal_weekly_series, regime_switching_series, write_meter_csv

from conftest import make_series
from test_neural import max_relative_error, make_tensor, tiny_model


class Timer:
    def __init__(self, criterion: str, limit_s: float):
        self.criterion = criterion
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            status = "PASS" if elapsed < self.limit else "FAIL (runtime)"
            print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s / limit {self.limit:.0f}s)")
            assert elapsed < self.limit, f"runtime {elapsed:.2f}s exceeds {self.limit}s"
        else:
            print(f"ACCEPTANCE {self.criterion}: FAIL ({elapsed:.2f}s)")
        return False


def test_c1_metric_identities():
    with Timer("1 metric identities", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            y = rng.uniform(-1000, 1000, n)
            yhat = rng.uniform(-1000, 1000, n)
            assert metrics.rmse(y, yhat) >= metrics.mae(y, yhat) - 1e-12
            # three tracks at yhat: AQS is MAE/2
            aqs_point = metrics.average_quantile_score(y, np.column_stack([yhat, yhat, yhat]))
            assert abs(aqs_point - metrics.mae(y, yhat) / 2) <= 1e-12
        assert metrics.pinball_loss(10.0, 8.0, 0.9) == 1.8


def test_c2_picp_calibration():
    with Timer("2 PICP calibration", 1.0):
        rng = np.random.default_rng(202)
        y = rng.uniform(0.0, 1.0, 5000)
        n = len(y)
        q = np.tile([0.05, 0.5, 0.95], (n, 1))
        coverage = metrics.picp(y, q)
        assert 87.0 <= coverage <= 93.0


def test_c3_imputer_exactness():
    with Timer("3 imputer exactness", 5.0):
        rng = np.random.default_rng(303)
        # seasonal imputer is exact on any pure (dow, hour) signal, any masked month
        for trial in range(3):
            table = rng.integers(0, 3000, size=168).astype(float)
            idx = np.arange(24 * 7 * 16)
            truth = table[(idx // 24 % 7) * 24 + idx % 24]
            mask_start = int(rng.integers(200, len(idx) - 1000))
            mask = (mask_start, mask_start + 720)
            result = imputation.run_imputation_trial(make_series(truth), mask)
            assert result.method_results["seasonal"].rmse == 0.0
        # linear imputer is exact on affine signals
        affine = 1.7 * np.arange(4000.0) + 11.0
        result = imputation.run_imputation_trial(make_series(affine), (1000, 1700))
        assert result.method_results["linear"].rmse < 1e-9
        # bimodal weekly data: the line cannot reproduce the two-peak histogram
        series = bimodal_weekly_series(24 * 7 * 16)
        result = imputation.run_imputation_trial(series, (1200, 1920))
        assert (
            result.method_results["seasonal"].distribution_distance
            < result.method_results["linear"].distribution_distance
        )


def test_c4_sarimax_consistency():
    with Timer("4 SARIMAX-lite consistency", 30.0):
        rng = np.random.default_rng(404)
        phi = 0.7
        x = np.empty(5000)
        x[0] = 0.0
        for t in range(1, 5000):
            x[t] = phi * x[t - 1] + rng.standard_normal()
        order = classical.SarimaxOrder(p=1, d=0, q=0, P=0, D=0, Q=0, s=1)
        model = classical.sarimax_fit(x, order=order)
        assert 0.6 <= model.ar[0] <= 0.8

        ints = rng.integers(0, 5000, 3000).astype(float)
        z, state = classical.difference(ints, d=1, D=1, s=24)
        np.testing.assert_array_equal(classical.integrate(z, state), ints)
        cont = rng.normal(0, 1000, 3000)
        z, state = classical.difference(cont, d=1, D=1, s=24)
        # atol 1e-6 on 1000-scale data = 1e-9 of scale; near-zero draws
        # make a pure relative bound meaningless
        np.testing.assert_allclose(classical.integrate(z, state), cont, rtol=1e-9, atol=1e-6)


def test_c5_gbdt():
    with Timer("5 GBDT", 60.0):
        # deterministic-function target is interpolated to < 1e-3 within 200 rounds
        rng = np.random.default_rng(505)
        x = np.tile(np.linspace(0.0, 1.0, 64), 8)
        rng.shuffle(x)
        y = np.sin(3.0 * x) + x
        model = boosted.gbdt_fit(
            x[:400, None], y[:400], x[400:, None], y[400:],
            params=boosted.GbdtParams(n_estimators=200, early_stopping_rounds=200, max_depth=6),
        )
        assert min(model.val_history) < 1e-3
        assert len(model.val_history) <= 201

        # quantile model with uninformative features finds the empirical quantile
        y_iid = rng.standard_normal(3000)
        X = rng.uniform(size=(3000, 3))  # independent of y
        qmodel = boosted.gbdt_fit(
            X[:2400], y_iid[:2400], X[2400:], y_iid[2400:],
            params=boosted.GbdtParams(n_estimators=300, max_depth=3, early_stopping_rounds=10),
            loss=boosted.PinballLoss(0.95),
        )
        preds = boosted.gbdt_predict(qmodel, X)
        oracle = np.quantile(y_iid[:2400], 0.95)
        assert abs(np.mean(preds) - oracle) <= 0.05

        # early stopping reports the argmin validation round
        y_noisy = y + 0.3 * rng.standard_normal(len(y))
        nmodel = boosted.gbdt_fit(
            x[:400, None], y_noisy[:400], x[400:, None], y_noisy[400:],
            params=boosted.GbdtParams(n_estimators=150, max_depth=2, early_stopping_rounds=12),
        )
        assert nmodel.best_iteration == int(np.argmin(nmodel.val_history))


def test_c6_lstm_gradient_check():
    with Timer("6 LSTM gradient check", 30.0):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = tiny_model(seed=seed)
            windows = rng.uniform(-1, 1, size=(2, 5, 3))
            y = 3.0 + rng.uniform(0, 1, 2)
            worst = max(worst, max_relative_error(model, windows, y))
        print(f"  max relative gradient error over 20 seeds: {worst:.3e}")
        assert worst < 1e-4


def test_c7_quantile_lstm_calibration():
    with Timer("7 quantile LSTM calibration", 300.0):
        rng = np.random.default_rng(707)
        data = rng.uniform(-1, 1, size=(2000, 8, 2))
        targets = rng.uniform(0.0, 1.0, 2000)
        tensors = make_tensor(data, targets)
        val = make_tensor(rng.uniform(-1, 1, size=(400, 8, 2)), rng.uniform(0.0, 1.0, 400))
        model = neural.init_model(2, hidden=(16, 8), dropout_rate=0.2, seed=707)
        model, _ = neural.train(
            model, tensors, val,
            neural.TrainConfig(max_epochs=50, patience=10, batch_size=64,
                               learning_rate=0.01, seed=707),
        )
        q = neural.predict_quantiles(model, val)
        means = q.mean(axis=0)
        assert np.all(np.abs(means - np.array([0.05, 0.50, 0.95])) <= 0.05)
        coverage = metrics.picp(val.target, q)
        print(f"  learned quantile means: {means[0]:.3f} "
              f"{means[1]:.3f} {means[2]:.3f}, PICP {coverage:.1f}%")
        assert 85.0 <= coverage <= 95.0


def test_c8_qualitative_table_ordering():
    with Timer("8 qualitative Table-1 ordering", 300.0):
        series = regime_switching_series(24 * 7 * 26, noise=0.1, seed=808)
        values = series.channel(0)
        n = len(values)
        split = int(0.8 * n)
        test = values[split:]

        # seasonal naive: rolling value from the same hour yesterday
        naive_pred = values[split - 24 : n - 24]
        naive_rmse = metrics.rmse(test, naive_pred)

        # SARIMAX-lite: fixed seasonal structure, open-loop over the test span
        order = classical.SarimaxOrder(1, 1, 1, 1, 1, 0, 24)
        sar = classical.sarimax_fit(values[split - 720 : split], order=order)
        sar_rmse = metrics.rmse(test, classical.sarimax_forecast(sar, len(test)))

        # GBDT: one-hour-ahead on calendar + lag features
        matrix = assemble_matrix(series, lags=(1, 24, 168))
        n_train = int(np.searchsorted(matrix.hours, split))
        n_fit = int(n_train * 0.9)
        model = boosted.gbdt_fit(
            matrix.features[:n_fit], matrix.target[:n_fit],
            matrix.features[n_fit:n_train], matrix.target[n_fit:n_train],
            params=boosted.GbdtParams(n_estimators=300, max_depth=6, early_stopping_rounds=10),
        )
        gbdt_pred = boosted.gbdt_predict(model, matrix.features[n_train:])
        gbdt_rmse = metrics.rmse(matrix.target[n_train:], gbdt_pred)

        print(f"  RMSE gbdt {gbdt_rmse:.1f} < naive {naive_rmse:.1f} < sarimax {sar_rmse:.1f}")
        assert gbdt_rmse < naive_rmse < sar_rmse


def _acceptance_config(root: Path, input_name: str, out_name: str) -> dict:
    return {
        "input_path": str(root / input_name),
        "output_dir": str(root / out_name),
        "columns": {"timestamp": "Unix", "aggregate": "Aggregate", "appliances": ["Appliance1"]},
        "roster": ["seasonal_naive", "sarimax", "gbdt", "lstm"],
        "model_params": {
            "sarimax": {"train_tail_days": 15, "max_iter": 120},
            "gbdt": {"n_estimators": 60, "max_depth": 4},
            "lstm": {"hidden": [8, 4], "window": 24, "max_epochs": 2, "patience": 2,
                     "batch_size": 128},
        },
        "seed": 909,
    }


def _run_chain(cfg):
    pipeline.cmd_ingest(cfg)
    pipeline.cmd_impute_eval(cfg)
    pipeline.cmd_train(cfg)
    return pipeline.cmd_evaluate(cfg)


C9_HOURS = 24 * 7 * 26


def _c9_inputs(root: Path):
    """Write c9's meter CSV and its twin with the test-split targets
    poisoned (x7) under ``root``; return the config that reads the first."""
    base = regime_switching_series(C9_HOURS, noise=0.15, n_appliances=1, seed=909)
    vals = base.values.copy()
    vals[1200:1300, :] = np.nan
    write_meter_csv(root / "meter.csv", base.with_values(vals.copy()), cadence_seconds=1800)
    cfg = config_from_dict(_acceptance_config(root, "meter.csv", "out_a"))
    split_idx = int(np.floor(cfg.split_fraction * C9_HOURS))
    vals[split_idx:, 0] *= 7.0
    write_meter_csv(root / "poisoned.csv", base.with_values(vals), cadence_seconds=1800)
    return cfg


def test_c9_pipeline_determinism_and_leakage(tmp_path):
    with Timer("9 pipeline determinism + leakage", 300.0):
        cfg = _c9_inputs(tmp_path)
        _run_chain(cfg)
        out_a = cfg.resolved_output_dir()
        report_first = (out_a / "report.csv").read_bytes()
        text_first = (out_a / "report.txt").read_bytes()
        hash_first = pipeline.load_manifest(cfg)["manifest_hash"]

        # identical rerun into the same directory: byte-identical reports
        _run_chain(cfg)
        assert (out_a / "report.csv").read_bytes() == report_first
        assert (out_a / "report.txt").read_bytes() == text_first
        assert pipeline.load_manifest(cfg)["manifest_hash"] == hash_first

        # poison the test-split targets; training artifacts must not move
        cfg_p = config_from_dict(_acceptance_config(tmp_path, "poisoned.csv", "out_b"))
        _run_chain(cfg_p)
        out_b = cfg_p.resolved_output_dir()

        artifact_names = [
            "models/seasonal_naive.json", "models/sarimax.json", "models/gbdt.json",
            "models/lstm.json", "models/lstm.bin", "models/lstm_history.csv",
        ]
        for name in artifact_names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        # the imputed series train kept: its train rows, values and fill codes
        # alike, are byte-identical; its test rows carry the poisoned targets
        kept_a = pipeline._load_imputed(cfg, pipeline.load_manifest(cfg))
        kept_b = pipeline._load_imputed(cfg_p, pipeline.load_manifest(cfg_p))
        split = kept_a.split_idx
        assert split == kept_b.split_idx == 3494
        for a, b in ((kept_a.full.values, kept_b.full.values), (kept_a.source, kept_b.source)):
            assert a[:split].tobytes() == b[:split].tobytes()
        assert kept_a.full.values[split:].tobytes() != kept_b.full.values[split:].tobytes()
        # the reports, by contrast, must differ: the test actuals changed
        assert (out_b / "report.csv").read_bytes() != report_first


GOLDEN_C9 = Path(__file__).parent / "golden" / "c9.json"
# Files computed through the float32 LSTM, whose last bits follow the BLAS
# kernel and numpy's SIMD paths; they are checked only on a host whose
# numeric_host() matches the one recorded with the digests.
HOST_DEPENDENT = (
    "out_a/manifest.json", "out_a/models/lstm.bin", "out_a/models/lstm_history.csv",
    "out_a/plots/lstm.csv", "out_a/report.csv", "out_a/report.txt",
)


def numeric_host() -> dict:
    """numpy version, BLAS build and the CPU features numpy dispatches to."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    build = ("name", "version", "openblas configuration")
    return {
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(key, "")) for key in build),
        "cpu_dispatch": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)],
    }


def c9_digests(root: Path) -> dict[str, str]:
    """sha256 of every file c9's first chain writes under ``root``: its two
    meter CSVs and the whole output directory. The manifest is hashed
    without its wall-clock ``timestamps``."""
    _run_chain(_c9_inputs(root))
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == pipeline.MANIFEST_FILE:
            doc = json.loads(data)
            doc.pop("timestamps", None)
            data = json.dumps(doc, sort_keys=True, indent=1).encode("utf-8")
        digests[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def test_c9_golden_digests(tmp_path):
    """c9's outputs are pinned; a change that moves one by design rewrites
    tests/golden/c9.json with tests/update_golden.py and names the moved
    files in CHANGES.md."""
    golden = json.loads(GOLDEN_C9.read_text(encoding="utf-8"))
    same_host = golden["host"] == numeric_host()
    digests = c9_digests(tmp_path)
    assert sorted(digests) == sorted(golden["files"])
    moved = [name for name, digest in golden["files"].items()
             if (same_host or name not in HOST_DEPENDENT) and digests[name] != digest]
    assert not moved, f"c9 outputs moved: {moved}"
    if not same_host:
        print(f"golden c9: host differs from {golden['host']}; skipped {HOST_DEPENDENT}")


SHIFT_DAYS = 10227  # 28 years: the same weekday, month and day from 1901 to 2099


def _rewrite_meter(src: Path, dst: Path, edit_row, edit_header=lambda cells: cells) -> None:
    """Write ``src``'s raw meter CSV to ``dst``, each reading row's cells
    passed through ``edit_row`` and the header's through ``edit_header``."""
    header, *rows = (line.split(",") for line in src.read_text(encoding="utf-8").splitlines())
    lines = [edit_header(header)] + [edit_row(row) for row in rows]
    dst.write_text("".join(",".join(cells) + "\n" for cells in lines), encoding="utf-8")


def _c11_chain(root: Path, input_name: str, out_name: str, roster=None):
    """Run c9's config on ``input_name``; return the report rows by model
    and the bytes of every model artifact and of report.csv."""
    doc = _acceptance_config(root, input_name, out_name)
    if roster is not None:
        doc["roster"] = list(roster)
    cfg = config_from_dict(doc)
    rows = {row.model: row for row in _run_chain(cfg)}
    out = cfg.resolved_output_dir()
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted((out / "models").iterdir())}
    files["report.csv"] = (out / "report.csv").read_bytes()
    return rows, files


def test_c11_metamorphic_invariance(tmp_path):
    """What the table says must not hang on the unit of the readings, the
    calendar era, the raw file's column order, or which models share a
    run."""
    with Timer("11 metamorphic invariance", 120.0):
        _c9_inputs(tmp_path)
        meter = tmp_path / "meter.csv"
        rows, files = _c11_chain(tmp_path, "meter.csv", "out_base")

        # raw readings x 2, exact in binary: every score x 2, the same coverage
        _rewrite_meter(meter, tmp_path / "double.csv", lambda row:
                       [row[0]] + [repr(2.0 * float(v)) if v else v for v in row[1:]])
        doubled, _ = _c11_chain(tmp_path, "double.csv", "out_double")
        assert doubled.keys() == rows.keys() and len(rows) == 4
        for name, row in rows.items():
            twin = doubled[name]
            assert (twin.rmse, twin.mae) == (2.0 * row.rmse, 2.0 * row.mae), name
            assert twin.aqs == (None if row.aqs is None else 2.0 * row.aqs), name
            assert twin.picp == row.picp, name

        # timestamps moved by whole weeks of 28 years: nothing moves
        _rewrite_meter(meter, tmp_path / "shifted.csv",
                       lambda row: [str(int(row[0]) + SHIFT_DAYS * 86400)] + row[1:])
        assert _c11_chain(tmp_path, "shifted.csv", "out_shifted")[1] == files

        # the raw file's columns in another order: nothing moves
        def permute(cells):
            return [cells[2], cells[0], cells[1]]

        _rewrite_meter(meter, tmp_path / "permuted.csv", permute, permute)
        assert _c11_chain(tmp_path, "permuted.csv", "out_permuted")[1] == files

        # the roster reversed, and each model alone: the same artifacts (the
        # report lists the rows in roster order)
        files.pop("report.csv")
        roster = list(rows)
        reversed_files = _c11_chain(tmp_path, "meter.csv", "out_reversed", roster[::-1])[1]
        reversed_files.pop("report.csv")
        assert reversed_files == files
        for name in roster:
            alone = _c11_chain(tmp_path, "meter.csv", f"out_{name}", [name])[1]
            alone.pop("report.csv")
            assert alone and all(files[path] == data for path, data in alone.items()), name


REFIT_ENV = "LOADCAST_REFIT_CSV"


@pytest.mark.skipif(REFIT_ENV not in os.environ, reason=f"set {REFIT_ENV} to a REFIT house CSV")
def test_c10_refit_end_to_end(tmp_path):
    with Timer("10 REFIT end-to-end", 3600.0):
        cfg = config_from_dict({
            "input_path": os.environ[REFIT_ENV],
            "output_dir": str(tmp_path / "refit_out"),
            "roster": ["seasonal_naive", "sarimax", "gbdt", "lstm"],
            "model_params": {
                "sarimax": {"train_tail_days": 30},
                "lstm": {"max_epochs": 10},
            },
        })
        report = _run_chain(cfg)
        rows = {r.model: r for r in report}
        naive_rmse = rows["seasonal_naive"].rmse
        # same order of magnitude as the published 623.27
        assert 62.3 < naive_rmse < 6232.7
        assert (tmp_path / "refit_out" / "report.txt").exists()
