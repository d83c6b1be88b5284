"""The benchmark's tracer (perfbench/tracing.py) wraps loadcast functions by
module attribute name. Renaming or moving one of them must fail here, in
the test suite, rather than in a benchmark run."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from run import _count_trees  # noqa: E402


def test_tracer_wraps_and_restores_every_hook():
    tracer = tracing.Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert patches
        for module, attr, original in patches:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for module, attr, original in patches:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_traced_lstm_run_keeps_eval_forwards_inside_the_wrapped_forward():
    """Validation and prediction forwards (the cache-free ones) must still go
    through the ``neural.forward`` the tracer wraps, or ``neural.val_forward.s``
    and ``neural.predict.s`` lose their time; in float64 and in float32, the
    dtype the pipeline trains in. ``neural.predict_windows_per_s`` divides
    the predict span's ``rows`` by its time, so ``rows`` must count the
    windows, one row of the returned (n, 3) quantile array each."""
    from loadcast import neural
    from test_neural import make_tensor

    rng = np.random.default_rng(0)
    tensors = make_tensor(rng.uniform(size=(8, 5, 3)), rng.uniform(size=8))
    for dtype in (np.float64, np.float32):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            model = neural.init_model(3, hidden=(4, 3), seed=0, dtype=dtype)
            model, _ = neural.train(model, tensors, tensors,
                                    neural.LstmParams(max_epochs=1, batch_size=4), 0)
            q = neural.predict_quantiles(model, tensors)
        finally:
            tracer.uninstall()
        assert model.dtype == dtype
        names = [span[0] for span in tracer.spans]
        for name in ("neural.forward_train", "neural.backward", "neural.val_forward",
                     "neural.predict"):
            assert name in names, (dtype, name)
        predict = names.index("neural.predict")
        assert q.shape == (len(tensors.data), 3)
        assert tracer.spans[predict][4] == {"rows": len(tensors.data)}, dtype
        assert any(name == "neural.forward_eval" and span[3] == predict
                   for name, span in zip(names, tracer.spans)), dtype


def test_traced_gbdt_fit_records_one_fit_tree_span_per_round():
    """``boosted.trees`` counts ``boosted.fit_tree`` spans and
    ``boosted.ms_per_tree`` divides their time by it: each round must call
    the ``fit_tree`` the tracer wraps, once, inside ``gbdt_fit``.
    ``boosted.predict_rows_per_s`` counts the ``rows`` of each
    ``boosted.predict`` span, one per quantile model of a quantile
    forecast."""
    from loadcast import boosted

    rng = np.random.default_rng(0)
    X = rng.uniform(size=(120, 3))
    y = X[:, 0] + rng.normal(0.0, 0.1, 120)
    params = boosted.GbdtParams(n_estimators=6, max_depth=3, early_stopping_rounds=7)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = boosted.gbdt_fit(X[:80], y[:80], X[80:], y[80:], params=params)
        q = boosted.gbdt_predict_quantiles(dict.fromkeys((0.05, 0.5, 0.95), model), X[80:])
    finally:
        tracer.uninstall()
    assert len(model.trees) == params.n_estimators
    names = [span[0] for span in tracer.spans]
    fit = names.index("boosted.gbdt_fit")
    trees = [span for span in tracer.spans if span[0] == "boosted.fit_tree"]
    assert len(trees) == params.n_estimators
    assert all(span[3] == fit for span in trees)
    assert q.shape == (40, 3)
    predicts = [span for span in tracer.spans if span[0] == "boosted.predict"]
    assert [span[4] for span in predicts] == [{"rows": 40}] * 3


def test_traced_ingest_records_one_parse_and_one_resample(tmp_path):
    """``series.ingest_csv.rows`` and ``rows_per_s`` come from the one
    ``ingest_csv`` call of an ``ingest``, whatever the reader does inside it."""
    from loadcast import pipeline
    from loadcast.config import config_from_dict
    from loadcast.synth import regime_switching_series, write_meter_csv

    hourly = regime_switching_series(72, noise=0.2, n_appliances=2, seed=3)
    write_meter_csv(tmp_path / "meter.csv", hourly, cadence_seconds=600)
    data_rows = len((tmp_path / "meter.csv").read_text(encoding="utf-8").splitlines()) - 1
    cfg = config_from_dict({"input_path": str(tmp_path / "meter.csv"),
                            "output_dir": str(tmp_path / "out"),
                            "columns": {"appliances": list(hourly.channel_names[1:])}})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline.cmd_ingest(cfg)
    finally:
        tracer.uninstall()
    parses = [span for span in tracer.spans if span[0] == "series.ingest_csv"]
    assert [span[4] for span in parses] == [{"rows": data_rows}]
    assert data_rows == 72 * 6
    assert [span[0] for span in tracer.spans].count("series.resample_hourly") == 1


def test_traced_prepare_and_window_split_record_window_bytes_and_calendar():
    """``features.window_mb`` reads the ``bytes`` of the one
    ``features.windowize`` span, which the tracer takes from the result's
    ``data.nbytes``; SARIMAX's calendar regressors go through the
    ``calendar_features`` name that ``pipeline`` imports."""
    from loadcast import pipeline
    from loadcast.config import config_from_dict
    from loadcast.synth import regime_switching_series

    hourly = regime_switching_series(24 * 21, noise=0.2, n_appliances=2, seed=4)
    cfg = config_from_dict({"input_path": "meter.csv", "output_dir": "out",
                            "model_params": {"lstm": {"window": 24}}})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        data = pipeline.prepare_data(cfg, hourly, "linear")
        parts = data.windows
        exog = pipeline._calendar_exog(data.full, 0, data.split_idx, ("hour", "dayofweek"))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("pipeline.prepare_data") == 1
    windows = [span for span in tracer.spans if span[0] == "features.windowize"]
    nbytes = sum(part.data.nbytes for part in parts)
    assert nbytes == (sum(map(len, data.tabular)) - 24) * 24 * parts[0].data.shape[2] * 4
    assert [span[4] for span in windows] == [{"bytes": nbytes}]
    metrics = tracing.layer_metrics(dict(tracer.dump(), wrapper_cost_s=0.0), simplex_iters=0)
    assert metrics["features.window_mb"] == nbytes / 1e6
    assert "features.calendar_features" in names
    assert exog.shape == (data.split_idx, 2)


def test_traced_sarimax_fit_counts_every_objective_call(monkeypatch):
    """``classical.css_evals`` counts the objective calls the tracer sees
    through the ``nelder_mead`` it wraps; the objective computes residuals
    once per call and the fit once more for the chosen coefficients, so the
    count is the residual calls less one."""
    from loadcast import classical

    calls = []
    residuals = classical._css_residuals

    def counted_residuals(*args):
        calls.append(1)
        return residuals(*args)

    monkeypatch.setattr(classical, "_css_residuals", counted_residuals)
    y = np.random.default_rng(0).normal(size=24 * 10) + np.tile(np.arange(24.0), 10)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = classical.sarimax_fit(y, max_iter=20)
    finally:
        tracer.uninstall()
    assert model.n_iterations == 20
    fits = [span for span in tracer.spans if span[0] == "classical.sarimax_fit"]
    assert len(fits) == 1
    evals = tracer.counts["classical.css_evals"]
    assert evals == len(calls) - 1 > 20
    metrics = tracing.layer_metrics(dict(tracer.dump(), wrapper_cost_s=0.0), simplex_iters=20)
    assert metrics["classical.css_evals"] == evals
    assert metrics["classical.simplex_iters"] == 20


def test_traced_prepare_data_counts_knn_cells_and_structural_fill():
    """``imputation.knn_cells_filled`` counts the cells kNN filled, which
    ``PreparedData.source`` marks 1, and ``imputation.structural.s`` takes
    the pipeline's structural fill: the pipeline calls the imputers the
    tracer wraps, outside the masked-holdout trial."""
    from loadcast import imputation, pipeline
    from loadcast.config import config_from_dict
    from test_impute_split import toy_household

    cfg = config_from_dict({"input_path": "meter.csv", "output_dir": "out"})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        data = pipeline.prepare_data(cfg, toy_household(), "linear")
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(dict(tracer.dump(), wrapper_cost_s=0.0), simplex_iters=0)
    assert metrics["imputation.knn_cells_filled"] == (data.source == imputation.KNN).sum() == 5
    names = {span[0] for span in tracer.spans}
    assert set(tracing._STRUCTURAL) <= names and "imputation.trial" not in names
    assert metrics["imputation.structural.s"] > 0


def test_count_trees_reads_the_gbdt_pairs_train_writes(tmp_path, monkeypatch):
    """The benchmark's ``work:trees`` check counts the trees of ``gbdt`` and
    ``gbdt_quantile`` from their ``models/`` headers with
    ``perfbench/run.py``'s ``_count_trees``: after a `train` of both it
    must give the trees grown, one ``fit_tree`` call each."""
    from loadcast import boosted, pipeline
    from loadcast.config import config_from_dict
    from test_impute_split import toy_household

    grown = []
    fit_tree = boosted.fit_tree

    def counted(*args, **kwargs):
        grown.append(1)
        return fit_tree(*args, **kwargs)

    monkeypatch.setattr(boosted, "fit_tree", counted)
    params = {"n_estimators": 7, "max_depth": 3, "early_stopping_rounds": 50}
    cfg = config_from_dict({"input_path": "meter.csv", "output_dir": str(tmp_path),
                            "roster": ["gbdt", "gbdt_quantile"],
                            "model_params": {"gbdt": params, "gbdt_quantile": params}})
    data = pipeline.prepare_data(cfg, toy_household(), "linear")
    models_dir = tmp_path / "models"
    models_dir.mkdir()
    for name in cfg.roster:
        pipeline.MODELS[name].fit(data, models_dir)
    assert len(grown) == 4 * 7
    assert _count_trees(models_dir) == len(grown)
    (models_dir / "gbdt_quantile.json").unlink()
    assert _count_trees(models_dir) == 7
