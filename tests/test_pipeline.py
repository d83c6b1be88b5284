import csv
import hashlib
import json
import re
import shutil
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast import metrics, pipeline
from loadcast.classical import sarimax_from_json
from loadcast.cli import main as cli_main
from loadcast.config import ConfigError, config_from_dict, load_config
from loadcast.features import CALENDAR_COLUMNS
from loadcast.metrics import MetricError
from loadcast.series import HOUR, ColumnSchema
from loadcast.synth import bimodal_weekly_series, regime_switching_series, write_meter_csv

N_HOURS = 24 * 7 * 26  # six months


def build_input_csv(path: Path, seed=0) -> None:
    series = regime_switching_series(N_HOURS, noise=0.15, n_appliances=2, seed=seed)
    values = series.values.copy()
    values[1200:1300, :] = np.nan   # structural sensor outage in the train region
    values[500:502, :] = np.nan     # small holes for the kNN repair
    values[700, :] = np.nan
    write_meter_csv(path, series.with_values(values), cadence_seconds=1800)


def base_config(root: Path, **overrides) -> dict:
    doc = {
        "input_path": str(root / "meter.csv"),
        "output_dir": str(root / "out"),
        "columns": {"timestamp": "Unix", "aggregate": "Aggregate",
                    "appliances": ["Appliance1", "Appliance2"]},
        "roster": ["seasonal_naive", "sarimax", "gbdt", "lstm"],
        "model_params": {
            "sarimax": {"train_tail_days": 15, "max_iter": 120},
            "gbdt": {"n_estimators": 60, "max_depth": 4, "early_stopping_rounds": 10},
            "lstm": {"hidden": [8, 4], "window": 24, "max_epochs": 2, "patience": 2,
                     "batch_size": 128},
        },
        "seed": 77,
    }
    doc.update(overrides)
    return doc


def load_hourly(cfg):
    """The hourly series `ingest` kept, as `impute-eval` and `train` read it."""
    return pipeline._load_series(cfg, pipeline.load_manifest(cfg), pipeline.HOURLY_PREFIX,
                                 "ingest", "values")[1]


def write_config(root: Path, doc: dict, name="config.json") -> Path:
    path = root / name
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One complete ingest -> impute-eval -> train -> evaluate run of every model."""
    root = tmp_path_factory.mktemp("e2e")
    build_input_csv(root / "meter.csv")
    doc = base_config(root, roster=list(pipeline.MODELS))
    doc["model_params"]["gbdt_quantile"] = {"n_estimators": 30, "max_depth": 3}
    cfg_path = write_config(root, doc)
    cfg = load_config(cfg_path)
    pipeline.cmd_ingest(cfg)
    trial, chosen = pipeline.cmd_impute_eval(cfg)
    pipeline.cmd_train(cfg)
    report = pipeline.cmd_evaluate(cfg)
    return {"root": root, "cfg": cfg, "cfg_path": cfg_path, "trial": trial,
            "chosen": chosen, "report": report}


class TestConfig:
    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="required"):
            config_from_dict({"input_path": "x"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"input_path": "a", "output_dir": "b", "bogus": 1})

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model"):
            config_from_dict({"input_path": "a", "output_dir": "b", "roster": ["prophet"]})

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ConfigError, match="hyperparameters"):
            config_from_dict({
                "input_path": "a", "output_dir": "b",
                "model_params": {"gbdt": {"learning_rte": 0.1}},
            })

    def test_model_seeds_are_stable_and_distinct(self):
        cfg = config_from_dict({"input_path": "a", "output_dir": "b"})
        seeds = {m: cfg.model_seed(m) for m in ("gbdt", "lstm", "sarimax")}
        cfg2 = config_from_dict({"input_path": "a", "output_dir": "b", "seed": cfg.seed})
        assert seeds == {m: cfg2.model_seed(m) for m in seeds}
        assert len(set(seeds.values())) == len(seeds)

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        cfg = config_from_dict({"input_path": "a", "output_dir": str(tmp_path / "a")})
        monkeypatch.setenv("LOADCAST_OUTPUT_DIR", str(tmp_path / "b"))
        assert cfg.resolved_output_dir() == tmp_path / "b"

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        path = write_config(tmp_path, {"input_path": "meter.csv", "output_dir": "out"})
        cfg = load_config(path)
        assert cfg.input_path == str(tmp_path / "meter.csv")

    def test_quantiles_key_rejected(self):
        # the levels are fixed at metrics.QUANTILE_LEVELS
        with pytest.raises(ConfigError, match="quantiles"):
            config_from_dict({"input_path": "a", "output_dir": "b",
                              "quantiles": [0.05, 0.5, 0.95]})

    def test_repeated_roster_model_rejected(self):
        with pytest.raises(ConfigError,
                           match="^roster: model 'seasonal_naive' is named more than once$"):
            config_from_dict({"input_path": "a", "output_dir": "b",
                              "roster": ["seasonal_naive", "gbdt", "seasonal_naive"]})

    def test_defaults_hash_pinned(self):
        """Every default of the five models, the LSTM's seven included,
        enters the hash; a moved default moves it."""
        cfg = config_from_dict({"input_path": "a", "output_dir": "b", "roster": [
            "seasonal_naive", "sarimax", "gbdt", "gbdt_quantile", "lstm"]})
        assert cfg.config_hash() == (
            "93ef8c98494c262dc05883c4bbc0926cb3a1eaa24cb19c89dab04c2ee1bf736b")

    @pytest.mark.parametrize("key", ["calendar_features", "lags", "roster"])
    def test_null_list_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"input_path": "a", "output_dir": "b", key: None})

    @pytest.mark.parametrize("doc, key, bad", [
        ({"calendar_features": ["hour", "weekday"]}, "calendar_features", "'weekday'"),
        ({"model_params": {"sarimax": {"exog": ["weekday"]}}}, "model_params.sarimax.exog",
         "'weekday'"),
        ({"lags": [1, 0]}, "lags", "0"),
        ({"lags": [1.5]}, "lags", "1.5"),
        ({"lags": ["24"]}, "lags", "'24'"),
        ({"knn_k": "5"}, "knn_k", "'5'"),
        ({"knn_k": 0}, "knn_k", "0"),
        ({"seed": "abc"}, "seed", "'abc'"),
        ({"seed": True}, "seed", "True"),
        ({"trial_min_window_hours": "x"}, "trial_min_window_hours", "'x'"),
        ({"knn_max_gap": -3}, "knn_max_gap", "-3"),
        ({"knn_max_gap": 2.5}, "knn_max_gap", "2.5"),
        ({"structural_gap_threshold": 0}, "structural_gap_threshold", "0"),
        ({"seed": -1}, "seed", "-1"),
        ({"window_channels": ["Aggregate", "Bogus"]}, "window_channels", "'Bogus'"),
        ({"input_path": 123}, "input_path", "123"),
        ({"output_dir": ["out"]}, "output_dir", "['out']"),
        ({"roster": ["seasonal_naive"], "external_predictions": {"seasonal_naive": "x.csv"}},
         "external_predictions", "'seasonal_naive' is also a roster model"),
    ], ids=["calendar_name", "sarimax_exog", "lag_0", "fractional_lag", "string_lag",
            "string_knn_k", "knn_k_0", "string_seed", "bool_seed", "string_trial_window",
            "negative_knn_max_gap", "fractional_knn_max_gap", "structural_threshold_0",
            "negative_seed", "unknown_window_channel", "number_input_path", "list_output_dir",
            "external_name_of_roster_model"])
    def test_bad_calendar_column_or_lag_fails_at_load(self, tmp_path, doc, key, bad):
        """Caught when the config loads, not as a bare KeyError, a TypeError
        or a FeatureError in `train` after `ingest` and `impute-eval` ran,
        nor as a setting that silently switches an imputer off, nor as two
        report rows of one name once `evaluate` predicted every model."""
        path = write_config(tmp_path, {"input_path": "a", "output_dir": "b", **doc})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        message = str(err.value)
        assert message.startswith(f"{key}: ") and bad in message
        if "calendar" in key or "exog" in key:
            assert all(name in message for name in CALENDAR_COLUMNS)
        if key == "window_channels":
            assert all(name in message for name in ColumnSchema().channels)
        assert cli_main(["ingest", "--config", str(path)]) == 1

    @pytest.mark.parametrize("external", [["tft.csv"], "tft.csv", {"TFT": 3}, {"TFT": None}],
                             ids=["list", "string", "number_path", "null_path"])
    def test_external_predictions_not_a_map_of_paths_fails_at_load(self, tmp_path, external):
        path = write_config(tmp_path, {"input_path": "a", "output_dir": "b",
                                       "external_predictions": external})
        with pytest.raises(ConfigError, match="^external_predictions: "):
            load_config(path)
        assert cli_main(["ingest", "--config", str(path)]) == 1

    @pytest.mark.parametrize("roster", [["gbdt"], ["gbdt_quantile"], ["lstm"],
                                        ["seasonal_naive", "sarimax"]])
    def test_no_features_fails_at_load(self, tmp_path, roster):
        """With both lists empty the tabular matrix has no column, and
        `prepare_data` builds it for every roster, so every `train` fails."""
        doc = {"input_path": "a", "output_dir": "b", "roster": roster,
               "calendar_features": [], "lags": []}
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        message = str(err.value)
        assert "calendar_features" in message and "lags" in message
        assert cli_main(["ingest", "--config", str(path)]) == 1
        for kept in ({"lags": [24]}, {"calendar_features": ["hour"]}):
            config_from_dict({**doc, **kept})

    def test_null_window_channels_means_all(self):
        cfg = config_from_dict({"input_path": "a", "output_dir": "b", "window_channels": None})
        assert cfg.window_channels is None

    @pytest.mark.parametrize("columns", [{"aggregat": "Appliance1"},
                                         {"appliances": "Appliance1"},
                                         {"appliances": ["Appliance1", 2]},
                                         ["Aggregate"]])
    def test_bad_columns_fail_at_load(self, tmp_path, columns):
        path = write_config(tmp_path, {"input_path": "a", "output_dir": "b", "columns": columns})
        with pytest.raises(ConfigError, match="columns"):
            load_config(path)
        assert cli_main(["ingest", "--config", str(path)]) == 1

    def test_columns_override_schema_defaults(self):
        cfg = config_from_dict({"input_path": "a", "output_dir": "b",
                                "columns": {"aggregate": "Appliance1", "appliances": []}})
        assert cfg.column_schema() == ColumnSchema("Unix", "Appliance1", ())
        bare = config_from_dict({"input_path": "a", "output_dir": "b"})
        assert bare.column_schema() == ColumnSchema()

    def test_hyperparameters_cast_to_default_type(self):
        cfg = config_from_dict({"input_path": "a", "output_dir": "b", "model_params": {
            "gbdt": {"n_estimators": 60.0, "learning_rate": 1},
            "lstm": {"hidden": [8, 4]},
        }})
        gbdt = cfg.params_for("gbdt")
        assert gbdt["n_estimators"] == 60 and type(gbdt["n_estimators"]) is int
        assert gbdt["learning_rate"] == 1.0 and type(gbdt["learning_rate"]) is float
        assert cfg.params_for("lstm")["hidden"] == (8, 4)

    def test_config_hash_sees_resolved_hyperparameters(self):
        def cfg(n):
            return config_from_dict({"input_path": "a", "output_dir": "b",
                                     "model_params": {"gbdt": {"n_estimators": n}}})

        assert cfg(60).config_hash() == cfg(60.0).config_hash()
        assert cfg(60).config_hash() != cfg(61).config_hash()

    def test_config_hash_follows_a_changed_default(self, monkeypatch):
        before = config_from_dict({"input_path": "a", "output_dir": "b"}).config_hash()
        spec = pipeline.MODELS["gbdt"]
        monkeypatch.setitem(pipeline.MODELS, "gbdt",
                            spec._replace(defaults=dict(spec.defaults, learning_rate=0.1)))
        after = config_from_dict({"input_path": "a", "output_dir": "b"}).config_hash()
        assert after != before

    @pytest.mark.parametrize("params", [{"gbdt": {"n_estimators": "many"}},
                                        {"lstm": {"hidden": "8,4"}},
                                        {"sarimax": {"max_iter": None}},
                                        # values the old cast let through
                                        {"gbdt": {"n_estimators": 50.7}},
                                        {"gbdt": {"n_estimators": "50"}},
                                        {"gbdt": {"n_estimators": True}},
                                        {"gbdt": {"learning_rate": "0.1"}},
                                        {"gbdt": {"learning_rate": 10**400}},
                                        {"seasonal_naive": {"period": 24.9}},
                                        {"lstm": {"dropout": True}},
                                        {"lstm": {"hidden": [100.5, 50]}},
                                        {"sarimax": {"order": [1, 1]}},
                                        {"sarimax": {"seasonal_order": [1, 1, 0, 24, 1]}},
                                        {"sarimax": {"exog": ["hour", 1]}}])
    def test_uncastable_hyperparameter_fails_at_load(self, tmp_path, params):
        path = write_config(tmp_path, {"input_path": "a", "output_dir": "b",
                                       "model_params": params})
        (model, given), = params.items()
        (key, value), = given.items()
        with pytest.raises(ConfigError, match=re.escape(f"{model}.{key} = {value!r} ")):
            load_config(path)
        assert cli_main(["train", "--config", str(path)]) == 1


class TestIngest:
    def test_refit_style_file_keeps_all_channels(self, full_run):
        hourly, _ = pipeline.cmd_ingest(full_run["cfg"])
        assert hourly.channel_names == ("Aggregate", "Appliance1", "Appliance2")
        assert len(hourly) == N_HOURS

    def test_idempotent_on_unchanged_input(self, full_run):
        cfg = full_run["cfg"]
        cache = cfg.resolved_output_dir() / "hourly_cache.csv"
        before = cache.stat().st_mtime_ns
        pipeline.cmd_ingest(cfg)
        assert cache.stat().st_mtime_ns == before  # no rewrite

    def test_structural_gap_reported(self, full_run):
        manifest = pipeline.load_manifest(full_run["cfg"])
        assert [1200, 100] in manifest["gaps"]

    def test_changed_columns_reingest(self, tmp_path):
        build_input_csv(tmp_path / "meter.csv", seed=6)
        cfg = config_from_dict(base_config(tmp_path))
        hourly, _ = pipeline.cmd_ingest(cfg)
        assert hourly.n_channels == 3
        cfg = config_from_dict(base_config(tmp_path, columns={"appliances": ["Appliance1"]}))
        pipeline.cmd_ingest(cfg)
        cache = pipeline.series_from_csv(cfg.resolved_output_dir() / "hourly_cache.csv")
        assert cache.channel_names == ("Aggregate", "Appliance1")

    @pytest.mark.parametrize("change", ["columns", "input"])
    def test_rebuilt_cache_drops_trained_models(self, tmp_path, change):
        build_input_csv(tmp_path / "meter.csv", seed=9)
        doc = base_config(tmp_path, roster=["seasonal_naive"])
        cfg = config_from_dict(doc)
        pipeline.cmd_ingest(cfg)
        pipeline.cmd_impute_eval(cfg)
        pipeline.cmd_train(cfg)
        if change == "columns":
            doc["columns"] = dict(doc["columns"], aggregate="Appliance1")
        else:
            build_input_csv(tmp_path / "meter.csv", seed=10)
        cfg = config_from_dict(doc)
        pipeline.cmd_ingest(cfg)
        manifest = pipeline.load_manifest(cfg)
        assert not {"models", "chosen_imputer", "config_hash", "imputed_series"} & set(manifest)
        out = cfg.resolved_output_dir()
        assert manifest["hourly_series"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("hourly_series.json", "hourly_series.bin")}
        assert load_hourly(cfg).values.tobytes() == pipeline.series_from_csv(
            out / "hourly_cache.csv").values.tobytes()
        with pytest.raises(pipeline.PipelineError, match="run `train` first"):
            pipeline.cmd_evaluate(cfg)

    def test_edited_cache_is_rebuilt_or_refused(self, tmp_path, caplog):
        """An edited cache is no cache hit: `ingest` rebuilds it with the
        bytes it wrote, and `impute-eval` refuses an hourly series pair, its
        input, edited after `ingest`."""
        build_input_csv(tmp_path / "meter.csv", seed=11)
        cfg_path = write_config(tmp_path, base_config(tmp_path, roster=["seasonal_naive"]))
        cfg = load_config(cfg_path)
        pipeline.cmd_ingest(cfg)
        cache = cfg.resolved_output_dir() / "hourly_cache.csv"
        written = cache.read_bytes()

        def edit():
            head, row, rest = cache.read_bytes().split(b"\r\n", 2)
            hour, _, cells = row.split(b",", 2)
            cache.write_bytes(b"\r\n".join([head, b",".join([hour, b"99999.0", cells]), rest]))

        edit()
        caplog.clear()
        with caplog.at_level("INFO"):
            pipeline.cmd_ingest(cfg)
        assert "cache up to date" not in caplog.text
        assert cache.read_bytes() == written
        assert pipeline.load_manifest(cfg)["cache_sha256"] == hashlib.sha256(written).hexdigest()
        pair = cfg.resolved_output_dir() / "hourly_series.bin"
        values = np.fromfile(pair)
        values[0] = 99999.0
        values.tofile(pair)
        with pytest.raises(pipeline.PipelineError, match=re.escape(str(pair))
                           + ": changed since `ingest`.*; run `ingest`"):
            pipeline.cmd_impute_eval(cfg)
        assert cli_main(["impute-eval", "--config", str(cfg_path)]) == 2

    def test_gap_report_follows_threshold_on_cache_hit(self, tmp_path):
        build_input_csv(tmp_path / "meter.csv", seed=7)
        pipeline.cmd_ingest(config_from_dict(base_config(tmp_path)))
        cfg = config_from_dict(base_config(tmp_path, structural_gap_threshold=200))
        cache = cfg.resolved_output_dir() / "hourly_cache.csv"
        before = cache.stat().st_mtime_ns
        _, gaps = pipeline.cmd_ingest(cfg)
        assert cache.stat().st_mtime_ns == before
        assert gaps == ()
        report = (cfg.resolved_output_dir() / "gap_report.csv").read_text().splitlines()
        assert report == ["start_index,start_hour,length_hours"]
        assert pipeline.load_manifest(cfg)["gaps"] == []

    def test_malformed_row_names_line_number(self, tmp_path):
        lines = ["Unix,Aggregate"] + [f"{t * 3600},100" for t in range(20)]
        lines[16] = "boom,xyz"  # line 17 of the file
        (tmp_path / "meter.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = config_from_dict({
            "input_path": str(tmp_path / "meter.csv"),
            "output_dir": str(tmp_path / "out"),
            "columns": {"appliances": []},
        })
        with pytest.raises(Exception, match="line 17"):
            pipeline.cmd_ingest(cfg)


class TestImputeEval:
    def test_chooses_seasonal_on_bimodal_weekly_data(self, tmp_path):
        series = bimodal_weekly_series(24 * 7 * 20)
        write_meter_csv(tmp_path / "meter.csv", series, cadence_seconds=3600)
        cfg = config_from_dict(base_config(tmp_path, columns={"appliances": []}))
        pipeline.cmd_ingest(cfg)
        _, chosen = pipeline.cmd_impute_eval(cfg)
        assert chosen == "seasonal"

    def test_chooses_linear_on_trend_data(self, tmp_path):
        from conftest import make_series

        series = make_series(10.0 + 0.5 * np.arange(24 * 7 * 20))
        write_meter_csv(tmp_path / "meter.csv", series, cadence_seconds=3600)
        cfg = config_from_dict(base_config(tmp_path, columns={"appliances": []}))
        pipeline.cmd_ingest(cfg)
        _, chosen = pipeline.cmd_impute_eval(cfg)
        assert chosen == "linear"

    def test_no_long_enough_window_errors(self, tmp_path):
        series = regime_switching_series(24 * 30, seed=1)  # one month only
        write_meter_csv(tmp_path / "meter.csv", series, cadence_seconds=3600)
        cfg = config_from_dict(base_config(tmp_path, columns={"appliances": []}))
        pipeline.cmd_ingest(cfg)
        with pytest.raises(pipeline.PipelineError, match="gapless window"):
            pipeline.cmd_impute_eval(cfg)

    @pytest.mark.parametrize("minimum, window", [
        (2500, (2250, 5300)), (2160, (0, 2200)), (200, (0, 2200)),
    ])
    def test_trial_window_meets_the_configured_minimum(self, tmp_path, minimum, window):
        """The first gapless run of 3 months is taken only if it also meets
        ``trial_min_window_hours``; a higher minimum passes it over for a
        later, longer run."""
        from conftest import make_series

        values = np.ones(5300)
        values[2200:2250] = np.nan
        cfg = config_from_dict(base_config(tmp_path, trial_min_window_hours=minimum))
        assert pipeline._trial_window(cfg, make_series(values)) == window

    def test_trial_artifacts_written(self, full_run):
        out = full_run["cfg"].resolved_output_dir()
        rows = list(csv.DictReader(open(out / "imputation_trial.csv")))
        assert {r["method"] for r in rows} == {"linear", "seasonal"}
        for name in ("truth", "linear", "seasonal"):
            hist_rows = list(csv.DictReader(open(out / f"hist_{name}.csv")))
            assert len(hist_rows) == 50
            assert set(hist_rows[0]) == {"bin_left", "bin_right", "count"}


class TestTrainEvaluate:
    def test_all_models_trained(self, full_run):
        manifest = pipeline.load_manifest(full_run["cfg"])
        for name in full_run["cfg"].roster:
            assert manifest["models"][name]["status"] == "ok"

    def test_report_columns_and_order(self, full_run):
        out = full_run["cfg"].resolved_output_dir()
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "Model,RMSE,MAE,PICP,AQS"
        models = [line.split(",")[0] for line in lines[1:]]
        assert models == list(full_run["cfg"].roster)

    def test_point_models_render_na(self, full_run):
        out = full_run["cfg"].resolved_output_dir()
        rows = {r["Model"]: r for r in csv.DictReader(open(out / "report.csv"))}
        assert rows["seasonal_naive"]["PICP"] == "N/A"
        assert rows["sarimax"]["AQS"] == "N/A"
        assert rows["lstm"]["PICP"] != "N/A"

    def test_point_plot_csv_has_empty_quantiles(self, full_run):
        out = full_run["cfg"].resolved_output_dir()
        rows = list(csv.DictReader(open(out / "plots" / "seasonal_naive.csv")))
        assert rows[0]["q05"] == "" and rows[0]["q95"] == ""
        assert float(rows[0]["point_or_q50"]) >= 0.0

    def test_probabilistic_plot_rows_monotone(self, full_run):
        out = full_run["cfg"].resolved_output_dir()
        for row in csv.DictReader(open(out / "plots" / "lstm.csv")):
            q05, q50, q95 = float(row["q05"]), float(row["point_or_q50"]), float(row["q95"])
            assert q05 <= q50 <= q95

    def test_lstm_trains_in_float32_on_float32_windows(self, full_run):
        cfg = full_run["cfg"]
        header = json.loads((cfg.resolved_output_dir() / "models" / "lstm.json").read_text())
        assert header["dtype"] == "float32"
        manifest = pipeline.load_manifest(cfg)
        data = pipeline.prepare_data(cfg, load_hourly(cfg), manifest["chosen_imputer"])
        for part in data.windows:
            assert part.data.dtype == np.float32 and part.target.dtype == np.float64

    def test_quantile_gbdt_scored_as_distribution(self, full_run):
        out = full_run["cfg"].resolved_output_dir()
        rows = {r["Model"]: r for r in csv.DictReader(open(out / "report.csv"))}
        assert rows["gbdt_quantile"]["PICP"] != "N/A"
        assert rows["gbdt_quantile"]["AQS"] != "N/A"
        plot = list(csv.DictReader(open(out / "plots" / "gbdt_quantile.csv")))
        assert plot
        for row in plot:
            q05, q50, q95 = float(row["q05"]), float(row["point_or_q50"]), float(row["q95"])
            assert q05 <= q50 <= q95

    def test_seasonal_naive_rolls_over_actuals(self, full_run):
        out = full_run["cfg"].resolved_output_dir()
        tail = json.loads((out / "models" / "seasonal_naive.json").read_text())["history_tail"]
        rows = list(csv.DictReader(open(out / "plots" / "seasonal_naive.csv")))
        actual = [float(r["actual"]) for r in rows]
        point = [float(r["point_or_q50"]) for r in rows]
        assert len(rows) > 48
        assert point[:24] == tail
        assert point[24:] == actual[:-24]

    def test_gbdt_beats_naive_and_sarimax_trails(self, full_run):
        rows = {r.model: r for r in full_run["report"]}
        assert rows["gbdt"].rmse < rows["seasonal_naive"].rmse < rows["sarimax"].rmse

    def test_evaluate_requires_matching_config(self, full_run, tmp_path):
        doc = base_config(full_run["root"], seed=999)
        cfg = config_from_dict(doc)
        with pytest.raises(pipeline.PipelineError, match="hash mismatch"):
            pipeline.cmd_evaluate(cfg)

    def test_seasonal_naive_artifact_has_no_training_loop(self, full_run):
        out = full_run["cfg"].resolved_output_dir()
        doc = json.loads((out / "models" / "seasonal_naive.json").read_text())
        assert doc["period"] == 24
        assert len(doc["history_tail"]) == 24

    def test_report_rerender_matches(self, full_run):
        """`report` rebuilds each row from the manifest and rewrites both
        tables byte for byte as `evaluate` wrote them."""
        out = full_run["cfg"].resolved_output_dir()
        before = {name: (out / name).read_bytes() for name in ("report.csv", "report.txt")}
        text = pipeline.cmd_report(full_run["cfg"])
        assert text.encode("utf-8") == before["report.txt"]
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_manifest_references_existing_files(self, full_run):
        out = full_run["cfg"].resolved_output_dir()
        manifest = pipeline.load_manifest(full_run["cfg"])
        for entry in manifest["models"].values():
            for rel in entry["artifacts"]:
                assert (out / rel).exists()


class TestCrashIsolation:
    def test_failing_model_does_not_abort_others(self, tmp_path):
        build_input_csv(tmp_path / "meter.csv", seed=3)
        doc = base_config(tmp_path)
        doc["model_params"]["lstm"]["window"] = 99999  # windowize cannot satisfy this
        cfg = config_from_dict(doc)
        pipeline.cmd_ingest(cfg)
        pipeline.cmd_impute_eval(cfg)
        manifest = pipeline.cmd_train(cfg)
        assert manifest["models"]["lstm"]["status"] == "failed"
        assert manifest["models"]["gbdt"]["status"] == "ok"
        assert manifest["models"]["seasonal_naive"]["status"] == "ok"
        # evaluate runs on the surviving subset
        report = pipeline.cmd_evaluate(cfg)
        assert {r.model for r in report} == {"seasonal_naive", "sarimax", "gbdt"}


    @pytest.mark.parametrize("period, gbdt, gbdt_key, lstm_key, errors", [
        (0, "gbdt", ("max_depth", -1), ("dropout", 1.5),
         ("period must be >= 1, got 0", "max_depth must be >= 1, got -1",
          "dropout_rate must be in [0, 1), got 1.5")),
        (-24, "gbdt_quantile", ("early_stopping_rounds", 0), ("batch_size", 0),
         ("period must be >= 1, got -24", "early_stopping_rounds must be >= 1, got 0",
          "batch_size must be >= 1, got 0")),
    ], ids=["gbdt", "gbdt_quantile"])
    def test_out_of_range_hyperparameters_fail_their_model(
        self, tmp_path, period, gbdt, gbdt_key, lstm_key, errors
    ):
        build_input_csv(tmp_path / "meter.csv", seed=4)
        doc = base_config(tmp_path, roster=["seasonal_naive", gbdt, "lstm"])
        doc["model_params"]["seasonal_naive"] = {"period": period}
        doc["model_params"][gbdt] = dict([gbdt_key])
        doc["model_params"]["lstm"].update([lstm_key])
        cfg = config_from_dict(doc)
        pipeline.cmd_ingest(cfg)
        pipeline.cmd_impute_eval(cfg)
        entries = pipeline.cmd_train(cfg)["models"]
        for name, error in zip(("seasonal_naive", gbdt, "lstm"), errors):
            assert entries[name] == {"status": "failed", "artifacts": [], "error": error}


def count_calls(monkeypatch, module, name: str) -> list:
    """Patch ``module.name`` to record the arguments of each call."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_plain_sarima_trains_and_scores(tmp_path):
    """``sarimax.exog: []`` is SARIMA with no calendar regressors."""
    build_input_csv(tmp_path / "meter.csv", seed=5)
    cfg = config_from_dict(base_config(tmp_path, roster=["sarimax"], model_params={
        "sarimax": {"exog": [], "train_tail_days": 15, "max_iter": 120}}))
    pipeline.cmd_ingest(cfg)
    pipeline.cmd_impute_eval(cfg)
    assert pipeline.cmd_train(cfg)["models"]["sarimax"]["status"] == "ok"
    text = (cfg.resolved_output_dir() / "models" / "sarimax.json").read_text(encoding="utf-8")
    model = sarimax_from_json(text)
    assert (model.exog_names, model.beta.shape, model.exog_tail.shape) == ((), (0,), (0, 0))
    [row] = pipeline.cmd_evaluate(cfg)
    assert row.model == "sarimax" and np.isfinite(row.rmse)


class TestInputsOnFirstUse:
    """The scaler, the tabular matrix and the windows are built when a model
    first reads them, so a roster builds only what it reads."""

    def imputed(self, tmp_path, roster, **overrides):
        build_input_csv(tmp_path / "meter.csv", seed=5)
        doc = base_config(tmp_path, roster=roster, **overrides)
        for name in ("gbdt", "gbdt_quantile"):
            doc["model_params"][name] = {"n_estimators": 10, "max_depth": 3}
        cfg = config_from_dict(doc)
        pipeline.cmd_ingest(cfg)
        pipeline.cmd_impute_eval(cfg)
        return cfg

    def test_classical_roster_builds_neither(self, tmp_path, monkeypatch):
        cfg = self.imputed(tmp_path, ["seasonal_naive", "sarimax"])
        built = [count_calls(monkeypatch, pipeline, name)
                 for name in ("assemble_matrix", "minmax_fit")]
        entries = pipeline.cmd_train(cfg)["models"]
        assert {name: e["status"] for name, e in entries.items()} == {
            "seasonal_naive": "ok", "sarimax": "ok"}
        assert len(pipeline.cmd_evaluate(cfg)) == 2
        assert built == [[], []]

    def test_boosted_roster_builds_the_matrix_once_per_command(self, tmp_path, monkeypatch):
        cfg = self.imputed(tmp_path, ["gbdt", "gbdt_quantile"])
        matrices, scalers, fits = (count_calls(monkeypatch, module, name) for module, name in (
            (pipeline, "assemble_matrix"), (pipeline, "minmax_fit"), (pipeline.boosted, "gbdt_fit")))
        entries = pipeline.cmd_train(cfg)["models"]
        assert [e["status"] for e in entries.values()] == ["ok", "ok"]
        assert (len(matrices), len(fits)) == (1, 4)
        # every fit's rows are a view of the one matrix
        assert all(np.shares_memory(args[0], fits[0][0]) for args in fits)
        pipeline.cmd_evaluate(cfg)
        assert len(matrices) == 2 and scalers == []

    def test_lstm_windows_are_built_once_per_command(self, tmp_path, monkeypatch):
        cfg = self.imputed(tmp_path, ["lstm"])
        windows = count_calls(monkeypatch, pipeline, "windowize")
        assert pipeline.cmd_train(cfg)["models"]["lstm"]["status"] == "ok"
        assert len(windows) == 1
        pipeline.cmd_evaluate(cfg)
        assert len(windows) == 2

    def test_empty_fit_set_fails_only_the_models_that_split(self, tmp_path):
        """``validation_fraction`` 0.9999 leaves no fit row: every model that
        reads the tabular matrix or the windows fails with that reason."""
        roster = ["seasonal_naive", "gbdt", "gbdt_quantile", "lstm"]
        cfg = self.imputed(tmp_path, roster, validation_fraction=0.9999)
        entries = pipeline.cmd_train(cfg)["models"]
        assert entries.pop("seasonal_naive")["status"] == "ok"
        assert entries == dict.fromkeys(roster[1:], {
            "status": "failed", "artifacts": [],
            "error": "validation_fraction leaves an empty fit or validation set"})
        assert [row.model for row in pipeline.cmd_evaluate(cfg)] == ["seasonal_naive"]

    def test_unbuildable_matrix_fails_only_its_models(self, tmp_path):
        lag = 10 * N_HOURS
        cfg = self.imputed(tmp_path, ["seasonal_naive", "gbdt"], lags=[lag])
        entries = pipeline.cmd_train(cfg)["models"]
        assert entries["seasonal_naive"]["status"] == "ok"
        assert entries["gbdt"] == {"status": "failed", "artifacts": [], "error":
                                   f"series of length {N_HOURS} is shorter than max lag {lag}"}
        assert [row.model for row in pipeline.cmd_evaluate(cfg)] == ["seasonal_naive"]


class TestExternalPredictions:
    def test_external_row_scored_from_plot_csv(self, full_run, tmp_path):
        out = full_run["cfg"].resolved_output_dir()
        src = list(csv.DictReader(open(out / "plots" / "lstm.csv")))
        ext_path = tmp_path / "tft.csv"
        with open(ext_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["timestamp", "actual", "point_or_q50", "q05", "q95"])
            writer.writeheader()
            for row in src:
                writer.writerow(row)
        doc = base_config(full_run["root"], external_predictions={"TFT": str(ext_path)})
        cfg = config_from_dict(doc)
        pipeline.cmd_ingest(cfg)
        pipeline.cmd_impute_eval(cfg)
        pipeline.cmd_train(cfg)
        report = pipeline.cmd_evaluate(cfg)
        tft = {r.model: r for r in report}["TFT"]
        lstm = {r.model: r for r in report}["lstm"]
        # one test axis: the same actuals, and tracks that round-trip through repr
        assert (tft.rmse, tft.mae, tft.picp, tft.aqs) == (lstm.rmse, lstm.mae, lstm.picp, lstm.aqs)

    def test_missing_file_exits_1_naming_it(self, trained, tmp_path, caplog):
        cfg_path, _, _ = trained
        missing = tmp_path / "absent.csv"
        doc = dict(json.loads(cfg_path.read_text()), external_predictions={"TFT": str(missing)})
        path = write_config(tmp_path, doc)
        assert cli_main(["evaluate", "--config", str(path)]) == 1
        assert f"external predictions {missing}: cannot read" in caplog.text

    def test_relative_path_scored_from_another_directory(self, trained, tmp_path, monkeypatch):
        cfg_path, ext_path, rows = trained
        write_rows(ext_path, rows)
        doc = dict(json.loads(cfg_path.read_text()), external_predictions={"TFT": ext_path.name})
        path = write_config(cfg_path.parent, doc, name="relative.json")
        monkeypatch.chdir(tmp_path)
        assert cli_main(["evaluate", "--config", str(path)]) == 0
        assert set(pipeline.load_manifest(load_config(path))["metrics"]) == {"seasonal_naive", "TFT"}

    def test_every_plot_has_the_same_hours_and_actuals(self, full_run):
        plots = full_run["cfg"].resolved_output_dir() / "plots"
        def axis(name):
            rows = csv.DictReader(open(plots / f"{name}.csv"))
            return [(row["timestamp"], row["actual"]) for row in rows]

        for name in pipeline.MODELS:
            assert axis(name) == axis("seasonal_naive"), name


@pytest.fixture(scope="module")
def trained(full_run, tmp_path_factory):
    """A seasonal-naive run trained without external predictions, and a
    config that adds one: the full run's LSTM plot rows, written by each
    test to ``ext_path``."""
    root = tmp_path_factory.mktemp("external")
    src = full_run["cfg"].resolved_output_dir() / "plots" / "lstm.csv"
    rows = list(csv.DictReader(open(src)))
    ext_path = root / "tft.csv"
    doc = base_config(root, input_path=str(full_run["root"] / "meter.csv"),
                      roster=["seasonal_naive"])
    cfg = load_config(write_config(root, doc, name="bare.json"))
    pipeline.cmd_ingest(cfg)
    pipeline.cmd_impute_eval(cfg)
    pipeline.cmd_train(cfg)
    cfg_path = write_config(root, dict(doc, external_predictions={"TFT": str(ext_path)}))
    return cfg_path, ext_path, rows


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


class TestExternalCoverage:
    def test_added_file_scored_without_retraining(self, trained):
        cfg_path, ext_path, rows = trained
        write_rows(ext_path, rows)
        assert cli_main(["evaluate", "--config", str(cfg_path)]) == 0
        report = pipeline.load_manifest(load_config(cfg_path))["metrics"]
        assert set(report) == {"seasonal_naive", "TFT"}

    @pytest.mark.parametrize("change", ["drop", "repeat"])
    def test_partial_or_repeated_hours_exit_1(self, trained, change):
        cfg_path, ext_path, rows = trained
        kept = rows[:5] + rows[6:] if change == "drop" else rows[:6] + rows[5:]
        write_rows(ext_path, kept)
        assert cli_main(["evaluate", "--config", str(cfg_path)]) == 1
        with pytest.raises(MetricError, match=f"1 of {len(rows)} test hours.*"
                           + re.escape(rows[5]["timestamp"])) as err:
            pipeline.cmd_evaluate(load_config(cfg_path))
        assert str(ext_path) in str(err.value)

    def test_timestamps_without_utc_offset_exit_1(self, trained):
        """A naive timestamp never equals a test hour; the error says so
        instead of counting every test hour as missing."""
        cfg_path, ext_path, rows = trained
        naive = [dict(row, timestamp=row["timestamp"].removesuffix("+00:00")) for row in rows]
        assert naive[0]["timestamp"] != rows[0]["timestamp"]
        write_rows(ext_path, naive)
        assert cli_main(["evaluate", "--config", str(cfg_path)]) == 1
        with pytest.raises(MetricError, match=re.escape(repr(naive[0]["timestamp"]))
                           + r" has no UTC offset.*\+00:00") as err:
            pipeline.cmd_evaluate(load_config(cfg_path))
        assert str(ext_path) in str(err.value)


class TestForecastCoverage:
    @pytest.mark.parametrize("fault", ["one hour short", "wrong-shape quantiles",
                                       "crossed quantiles", "predict raises"])
    def test_forecast_off_the_test_hours_fails_evaluate(self, trained, monkeypatch, fault):
        """The failing model gets no report row or plot and is recorded as
        failed; the other rows are still scored and reported, then exit 2."""
        cfg_path, ext_path, rows = trained
        write_rows(ext_path, rows)
        spec = pipeline.MODELS["seasonal_naive"]

        def predict(data, models_dir):
            point = spec.predict(data, models_dir)
            if fault == "one hour short":
                return point[:-1]
            if fault == "predict raises":
                raise RuntimeError("artifact unreadable")
            if fault == "crossed quantiles":
                return np.column_stack([point + 1.0, point, point])
            return np.column_stack([point, point])

        monkeypatch.setitem(pipeline.MODELS, "seasonal_naive", spec._replace(predict=predict))
        cfg = load_config(cfg_path)
        message = {"predict raises": "seasonal_naive: artifact unreadable",
                   "crossed quantiles": "seasonal_naive: quantile tracks must satisfy",
                   }.get(fault, "seasonal_naive: forecast does not cover exactly the")
        with pytest.raises(pipeline.PipelineError, match=message):
            pipeline.cmd_evaluate(cfg)
        assert cli_main(["evaluate", "--config", str(cfg_path)]) == 2

        out = cfg.resolved_output_dir()
        with open(out / "report.csv", newline="") as fh:
            assert [row["Model"] for row in csv.DictReader(fh)] == ["TFT"]
        assert not (out / "plots" / "seasonal_naive.csv").exists()
        manifest = pipeline.load_manifest(cfg)
        assert set(manifest["metrics"]) == {"TFT"}
        entry = manifest["models"]["seasonal_naive"]
        assert entry["status"] == "ok"  # its training stands
        assert entry["evaluate"]["status"] == "failed"
        assert re.search(message.split(": ")[1], entry["evaluate"]["error"])

        monkeypatch.undo()
        pipeline.cmd_evaluate(cfg)
        assert "evaluate" not in pipeline.load_manifest(cfg)["models"]["seasonal_naive"]

    def test_model_whose_retraining_failed_loses_its_old_plot(self, trained, tmp_path):
        """A roster model skipped because its latest `train` failed keeps no
        plot of an earlier run beside a report without its row."""
        cfg_path, _, rows = trained
        cfg = load_config(cfg_path.parent / "bare.json")
        moved = tmp_path / "moved"
        shutil.copytree(cfg.resolved_output_dir(), moved / "out")
        shutil.copy(cfg.input_path, moved / "meter.csv")
        write_rows(moved / "tft.csv", rows)
        doc = base_config(moved, roster=["seasonal_naive"],
                          external_predictions={"TFT": str(moved / "tft.csv")})
        path = write_config(moved, doc)
        assert cli_main(["evaluate", "--config", str(path)]) == 0
        plot = moved / "out" / "plots" / "seasonal_naive.csv"
        assert plot.exists()

        path = write_config(moved, dict(doc, model_params={"seasonal_naive": {"period": 0}}))
        pipeline.cmd_train(load_config(path))
        assert pipeline.load_manifest(load_config(path))["models"]["seasonal_naive"]["status"] \
            == "failed"
        assert cli_main(["evaluate", "--config", str(path)]) == 0
        with open(moved / "out" / "report.csv", newline="") as fh:
            assert [row["Model"] for row in csv.DictReader(fh)] == ["TFT"]
        assert not plot.exists()


class TestMovedOutput:
    def test_copied_output_directory_still_evaluates(self, trained, tmp_path):
        """Where the input and the outputs live is not part of the config
        hash: a trained output directory copied elsewhere evaluates there."""
        cfg_path, _, _ = trained
        cfg = load_config(cfg_path.parent / "bare.json")
        moved = tmp_path / "moved"
        shutil.copytree(cfg.resolved_output_dir(), moved / "out")
        shutil.copy(cfg.input_path, moved / "meter.csv")
        moved_cfg = load_config(write_config(moved, base_config(moved, roster=["seasonal_naive"])))
        assert moved_cfg.config_hash() == cfg.config_hash()
        report = pipeline.cmd_evaluate(moved_cfg)
        assert [row.model for row in report] == ["seasonal_naive"]
        assert (moved / "out" / "report.csv").exists()


KEPT_ROSTER = ("seasonal_naive", "gbdt", "gbdt_quantile", "lstm")


@pytest.fixture(scope="module")
def kept_run(tmp_path_factory):
    """A trained and evaluated run of seasonal_naive, gbdt, gbdt_quantile
    and lstm; tests change only a copy of it, made with ``copy_run``."""
    root = tmp_path_factory.mktemp("kept")
    build_input_csv(root / "meter.csv", seed=6)
    doc = base_config(root, roster=list(KEPT_ROSTER))
    doc["model_params"]["gbdt_quantile"] = {"n_estimators": 20, "max_depth": 3}
    cfg = load_config(write_config(root, doc))
    pipeline.cmd_ingest(cfg)
    pipeline.cmd_impute_eval(cfg)
    pipeline.cmd_train(cfg)
    pipeline.cmd_evaluate(cfg)
    return cfg, doc


def copy_run(run, dest: Path):
    """Copy ``run``'s meter file and output directory under ``dest``; return
    the config path that reads them, with the same config hash."""
    cfg, doc = run
    shutil.copytree(cfg.resolved_output_dir(), dest / "out")
    shutil.copy(cfg.input_path, dest / "meter.csv")
    path = write_config(dest, dict(doc, input_path=str(dest / "meter.csv"),
                                   output_dir=str(dest / "out")))
    assert load_config(path).config_hash() == cfg.config_hash()
    return path


def evaluate_outputs(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in [out / "report.csv", out / "report.txt", *sorted(out.glob("plots/*.csv"))]}


class TestImputedSeries:
    def test_evaluate_reads_what_prepare_data_gives(self, kept_run):
        """The pair `train` keeps reads back as the PreparedData that
        imputing the hourly cache again gives, bit for bit."""
        cfg, _ = kept_run
        manifest = pipeline.load_manifest(cfg)
        kept = pipeline._load_imputed(cfg, manifest)
        again = pipeline.prepare_data(cfg, load_hourly(cfg), manifest["chosen_imputer"])
        assert kept.split_idx == again.split_idx
        assert kept.full.start == again.full.start
        assert kept.full.channel_names == again.full.channel_names
        pairs = [(kept.full.values, again.full.values), (kept.source, again.source),
                 (kept.scaler.mins, again.scaler.mins), (kept.scaler.maxs, again.scaler.maxs)]
        for k, a in zip(kept.tabular, again.tabular, strict=True):
            pairs += [(k.features, a.features), (k.target, a.target), (k.hours, a.hours)]
        for a, b in pairs:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert not kept.source.flags.writeable
        out = cfg.resolved_output_dir()
        assert manifest["imputed_series"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("imputed_series.json", "imputed_series.bin")}
        assert json.loads((out / "imputed_series.json").read_text()) == {
            "channels": ["Aggregate", "Appliance1", "Appliance2"], "imputer": "seasonal",
            "n_hours": N_HOURS, "split_idx": kept.split_idx, "start": kept.full.start.isoformat()}

    def test_evaluate_needs_no_hourly_cache(self, kept_run, tmp_path):
        path = copy_run(kept_run, tmp_path)
        out = tmp_path / "out"
        before = evaluate_outputs(out)
        assert len(before) == 6
        (out / "hourly_cache.csv").unlink()
        assert cli_main(["evaluate", "--config", str(path)]) == 0
        assert evaluate_outputs(out) == before

    @pytest.mark.parametrize("change", [
        "delete imputed_series.json", "delete imputed_series.bin",
        "edit imputed_series.json", "edit imputed_series.bin", "trained before the pair"])
    def test_missing_or_changed_pair_fails_evaluate(self, kept_run, tmp_path, change):
        path = copy_run(kept_run, tmp_path)
        name = change_pair(path, "imputed_series", change)
        with pytest.raises(pipeline.PipelineError,
                           match=re.escape(str(tmp_path / "out" / name)) + ".*; run `train`"):
            pipeline.cmd_evaluate(load_config(path))
        assert cli_main(["evaluate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("name, artifact, change", [
        ("gbdt", "gbdt.json", "append a newline"), ("lstm", "lstm.bin", "delete"),
        ("gbdt", "gbdt.bin", "truncate"), ("gbdt_quantile", "gbdt_quantile.json", "edit")])
    def test_changed_artifact_fails_its_model_only(self, kept_run, tmp_path, name, artifact,
                                                   change):
        path = copy_run(kept_run, tmp_path)
        out = tmp_path / "out"
        target = out / "models" / artifact
        if change == "delete":
            target.unlink()
        elif change == "truncate":
            target.write_bytes(target.read_bytes()[:-8])
        elif change == "edit":  # a model's header no longer says what its blob holds
            heads = json.loads(target.read_text())
            heads["0.5"]["best_iteration"] = -1
            target.write_text(json.dumps(heads, sort_keys=True, indent=1))
        else:
            with open(target, "a") as fh:
                fh.write("\n")
        cfg = load_config(path)
        with pytest.raises(pipeline.PipelineError,
                           match=f"^{name}: " + re.escape(str(out / "models" / artifact))
                           + ".*; run `train`$"):
            pipeline.cmd_evaluate(cfg)
        assert cli_main(["evaluate", "--config", str(path)]) == 2
        kept = set(KEPT_ROSTER) - {name}
        with open(out / "report.csv", newline="") as fh:
            assert {row["Model"] for row in csv.DictReader(fh)} == kept
        assert sorted(p.stem for p in (out / "plots").glob("*.csv")) == sorted(kept)
        manifest = pipeline.load_manifest(cfg)
        assert set(manifest["metrics"]) == kept
        assert manifest["models"][name]["evaluate"]["status"] == "failed"
        assert artifact in manifest["models"][name]["evaluate"]["error"]


def test_gbdt_models_are_header_blob_pairs(kept_run):
    """Each GBDT model is kept as a ``.json`` header and a ``.bin`` node
    blob, and `train` records both files' sha256 for `evaluate`."""
    cfg, _ = kept_run
    out = cfg.resolved_output_dir()
    entries = pipeline.load_manifest(cfg)["models"]
    for name in ("gbdt", "gbdt_quantile"):
        files = [f"{name}.json", f"{name}.bin"]
        assert entries[name]["artifacts"] == [f"models/{f}" for f in files]
        assert entries[name]["artifact_sha256"] == {
            f: hashlib.sha256((out / "models" / f).read_bytes()).hexdigest() for f in files}


def change_pair(path: Path, prefix: str, change: str) -> str:
    """Delete or edit one file of the ``<prefix>.json`` + ``.bin`` pair in
    the output directory of the config at ``path``, or (any other change)
    make the directory one written before the pair existed: neither file,
    and no ``prefix`` entry in the manifest. Returns the file a refusal
    should name."""
    cfg = load_config(path)
    out = cfg.resolved_output_dir()
    verb, name = change.split(" ", 1)
    if verb == "delete":
        (out / name).unlink()
    elif verb == "edit":
        data = bytearray((out / name).read_bytes())
        data[len(data) // 2] ^= 1
        (out / name).write_bytes(bytes(data))
    else:
        name = f"{prefix}.json"
        for suffix in (".json", ".bin"):
            (out / f"{prefix}{suffix}").unlink()
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest[prefix]
        pipeline.save_manifest(cfg, manifest)
    return name


PAIR_CHANGES = ["delete hourly_series.json", "delete hourly_series.bin",
                "edit hourly_series.json", "edit hourly_series.bin", "chosen before the pair"]


def hourly_pair(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in ("hourly_series.json",
                                                         "hourly_series.bin")}


def assert_ingest_repairs(path: Path, kept: dict[str, bytes]) -> None:
    """One `ingest` (no cache hit) writes the ``kept`` pair again, and
    `impute-eval` and `train` then run."""
    assert cli_main(["ingest", "--config", str(path)]) == 0
    assert hourly_pair(load_config(path).resolved_output_dir()) == kept
    for command in ("impute-eval", "train"):
        assert cli_main([command, "--config", str(path)]) == 0, command


def trial_outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in [out / "imputation_trial.csv",
                                             *sorted(out.glob("hist_*.csv"))]}


def train_outputs(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in [out / "imputed_series.json", out / "imputed_series.bin",
                      *sorted(out.glob("models/*"))]}


class TestHourlySeries:
    def test_pair_holds_what_the_cache_parses_to(self, kept_run):
        cfg, _ = kept_run
        out = cfg.resolved_output_dir()
        manifest = pipeline.load_manifest(cfg)
        assert manifest["hourly_series"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("hourly_series.json", "hourly_series.bin")}
        cache = pipeline.series_from_csv(out / "hourly_cache.csv")
        assert json.loads((out / "hourly_series.json").read_text()) == {
            "channels": list(cache.channel_names), "n_hours": len(cache),
            "start": cache.start.isoformat()}
        assert (out / "hourly_series.bin").read_bytes() == cache.values.tobytes()

    def test_impute_eval_and_train_need_no_hourly_cache(self, kept_run, tmp_path):
        path = copy_run(kept_run, tmp_path)
        out = tmp_path / "out"
        before = trial_outputs(out), train_outputs(out)
        assert [len(part) for part in before] == [4, 10]
        (out / "hourly_cache.csv").unlink()
        for command in ("impute-eval", "train"):
            assert cli_main([command, "--config", str(path)]) == 0, command
        assert (trial_outputs(out), train_outputs(out)) == before

    @pytest.mark.parametrize("change", PAIR_CHANGES)
    def test_missing_or_changed_pair_fails_impute_eval(self, kept_run, tmp_path, change):
        path = copy_run(kept_run, tmp_path)
        kept = hourly_pair(tmp_path / "out")
        name = change_pair(path, "hourly_series", change)
        with pytest.raises(pipeline.PipelineError,
                           match=re.escape(str(tmp_path / "out" / name)) + ".*; run `ingest`"):
            pipeline.cmd_impute_eval(load_config(path))
        assert cli_main(["impute-eval", "--config", str(path)]) == 2
        assert_ingest_repairs(path, kept)

    @pytest.mark.parametrize("change", PAIR_CHANGES)
    def test_missing_or_changed_pair_fails_train(self, kept_run, tmp_path, change):
        path = copy_run(kept_run, tmp_path)
        kept = hourly_pair(tmp_path / "out")
        name = change_pair(path, "hourly_series", change)
        with pytest.raises(pipeline.PipelineError,
                           match=re.escape(str(tmp_path / "out" / name)) + ".*; run `ingest`"):
            pipeline.cmd_train(load_config(path))
        assert cli_main(["train", "--config", str(path)]) == 2
        assert_ingest_repairs(path, kept)

    def test_second_ingest_parses_no_text(self, kept_run, tmp_path, monkeypatch, caplog):
        """A cache hit reads the pair: neither the cache CSV nor the meter
        file is parsed, and no file of the cache is rewritten."""
        path = copy_run(kept_run, tmp_path)
        out = tmp_path / "out"
        files = [out / name for name in ("hourly_cache.csv", "hourly_series.json",
                                         "hourly_series.bin")]
        before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in files]

        def parse(*args):
            raise AssertionError("parsed text on a cache hit")

        for name in ("series_from_csv", "ingest_csv", "series_to_csv"):
            monkeypatch.setattr(pipeline, name, parse)
        with caplog.at_level("INFO"):
            hourly, _ = pipeline.cmd_ingest(load_config(path))
        assert "cache up to date" in caplog.text
        assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in files] == before
        assert hourly.values.tobytes() == before[2][0]


class TestAtomicCsv:
    def test_failed_plot_write_keeps_previous_file(self, trained, monkeypatch, tear_csv_writes):
        cfg_path, ext_path, rows = trained
        write_rows(ext_path, rows)
        cfg = load_config(cfg_path)
        pipeline.cmd_evaluate(cfg)
        plots = cfg.resolved_output_dir() / "plots"
        before = (plots / "seasonal_naive.csv").read_bytes()
        tear_csv_writes(11)  # the header and 10 rows
        with pytest.raises(OSError, match="disk full"):
            pipeline.cmd_evaluate(cfg)
        monkeypatch.undo()
        assert (plots / "seasonal_naive.csv").read_bytes() == before
        assert not list(plots.glob("*.tmp"))


def csv_writer_plot(path, hours, actual, forecast):
    """The plot CSV as csv.writer writes it, one cell list per test hour."""
    banded = forecast.ndim == 2
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "actual", "point_or_q50", "q05", "q95"])
        writer.writerows([
            ts.isoformat(),
            repr(float(actual[i])),
            repr(float(forecast[i, 1] if banded else forecast[i])),
            repr(float(forecast[i, 0])) if banded else "",
            repr(float(forecast[i, -1])) if banded else "",
        ] for i, ts in enumerate(hours))


# -0.0, subnormals, +-1e16 (repr "1e+16"), 1e-7 (repr "1e-07") and whole numbers
PLOT_CELLS = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e-7, -1e-7, 3.0, -120.0, 2.0**53])


class TestPlotCsvBytes:
    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([512, 1024, 1025]) | st.integers(1, 1100),
           first_hour=st.integers(-600_000, 1_200_000),  # years ~1901 to ~2106
           cells=st.lists(PLOT_CELLS, min_size=1, max_size=40),
           banded=st.booleans(), data=st.data())
    def test_same_bytes_as_csv_writer(self, n, first_hour, cells, banded, data):
        """Random float64 tracks, cycled to n test hours so that a run
        fills or crosses the 512-row pieces, written with and without a band."""
        tracks = [np.resize(np.roll(cells, data.draw(st.integers(0, len(cells) - 1))), n)
                  for _ in range(4)]
        actual, point, q05, q95 = tracks
        forecast = np.column_stack([q05, point, q95]) if banded else point
        start = datetime(1970, 1, 1, tzinfo=timezone.utc) + first_hour * HOUR
        hours = tuple(start + i * HOUR for i in range(n))
        with tempfile.TemporaryDirectory() as tmp:
            old, new = Path(tmp, "old.csv"), Path(tmp, "new.csv")
            csv_writer_plot(old, hours, actual, forecast)
            pipeline._write_plot_csv(new, pipeline._plot_axis(hours, actual), forecast)
            assert new.read_bytes() == old.read_bytes()


class TestExternalQuantileCells:
    def test_one_blank_q95_exits_1(self, trained):
        cfg_path, ext_path, rows = trained
        rows = [dict(r) for r in rows]
        rows[5]["q95"] = ""
        write_rows(ext_path, rows)
        assert cli_main(["evaluate", "--config", str(cfg_path)]) == 1

    def test_mixed_rows_name_file_and_timestamp(self, trained):
        cfg_path, ext_path, rows = trained
        rows = [dict(r, q05="", q95="") if i < 3 else dict(r) for i, r in enumerate(rows)]
        write_rows(ext_path, rows)
        with pytest.raises(MetricError, match=re.escape(rows[3]["timestamp"])) as err:
            pipeline.cmd_evaluate(load_config(cfg_path))
        assert str(ext_path) in str(err.value)

    @pytest.mark.parametrize("column, cell", [
        ("point_or_q50", ""), ("point_or_q50", "n/a"), ("q05", "low"), ("q95", " "),
        ("point_or_q50", "nan"),
    ])
    def test_bad_number_names_file_and_timestamp(self, trained, column, cell):
        cfg_path, ext_path, rows = trained
        rows = [dict(r) for r in rows]
        rows[7][column] = cell
        write_rows(ext_path, rows)
        assert cli_main(["evaluate", "--config", str(cfg_path)]) == 1
        with pytest.raises(MetricError, match=f"{column} cell {re.escape(repr(cell))} at "
                           f"timestamp '{re.escape(rows[7]['timestamp'])}'") as err:
            pipeline.cmd_evaluate(load_config(cfg_path))
        assert str(ext_path) in str(err.value)

    def test_unparsable_timestamp_names_file_and_cell(self, trained):
        cfg_path, ext_path, rows = trained
        rows = [dict(r) for r in rows]
        rows[7]["timestamp"] = "yesterday"
        write_rows(ext_path, rows)
        assert cli_main(["evaluate", "--config", str(cfg_path)]) == 1
        with pytest.raises(MetricError, match="timestamp cell 'yesterday'") as err:
            pipeline.cmd_evaluate(load_config(cfg_path))
        assert str(ext_path) in str(err.value)

    @pytest.mark.parametrize("column", ["timestamp", "point_or_q50"])
    def test_missing_column_exits_1(self, trained, column):
        cfg_path, ext_path, rows = trained
        write_rows(ext_path, [{k: v for k, v in r.items() if k != column} for r in rows])
        assert cli_main(["evaluate", "--config", str(cfg_path)]) == 1
        with pytest.raises(MetricError, match=f"cannot read the {column} cell None") as err:
            pipeline.cmd_evaluate(load_config(cfg_path))
        assert str(ext_path) in str(err.value)

    def test_all_blank_scores_as_point(self, trained):
        cfg_path, ext_path, rows = trained
        write_rows(ext_path, [dict(r, q05="", q95="") for r in rows])
        report = pipeline.cmd_evaluate(load_config(cfg_path))
        tft = {r.model: r for r in report}["TFT"]
        assert tft.picp is None and tft.aqs is None and tft.rmse > 0

    def test_band_crossing_its_point_is_clamped_to_it(self, trained):
        """q05 110, point 100 and q95 120 are scored as the band [100, 120];
        a q95 below its point is raised to the point the same way."""
        cfg_path, ext_path, rows = trained
        rows = [dict(r) for r in rows]
        rows[0].update(point_or_q50="100.0", q05="110.0", q95="120.0")
        rows[1].update(point_or_q50="100.0", q05="80.0", q95="90.0")
        write_rows(ext_path, rows)
        tft = {r.model: r for r in pipeline.cmd_evaluate(load_config(cfg_path))}["TFT"]
        band = np.array([[float(r[k]) for k in ("q05", "point_or_q50", "q95")] for r in rows])
        band[:2] = [[100.0, 100.0, 120.0], [80.0, 100.0, 100.0]]
        actual = [float(r["actual"]) for r in rows]
        assert tft == metrics.score("TFT", actual, band)


class TestAtomicManifest:
    def test_failed_write_keeps_previous_manifest(self, tmp_path, monkeypatch):
        cfg = config_from_dict({"input_path": "a", "output_dir": str(tmp_path)})
        pipeline.save_manifest(cfg, {"n_hours": 10})
        before = pipeline.load_manifest(cfg)

        def torn_dump(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:15])
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            pipeline.save_manifest(cfg, {"n_hours": 20})
        monkeypatch.undo()
        assert pipeline.load_manifest(cfg) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


class TestCli:
    def test_exit_codes(self, tmp_path):
        build_input_csv(tmp_path / "meter.csv", seed=4)
        doc = base_config(tmp_path, roster=["seasonal_naive"])
        cfg_path = write_config(tmp_path, doc)
        assert cli_main(["ingest", "--config", str(cfg_path)]) == 0
        # evaluate before train is a runtime failure
        assert cli_main(["evaluate", "--config", str(cfg_path)]) == 2
        # broken config is a validation failure
        bad = write_config(tmp_path, {"output_dir": "x"}, name="bad.json")
        assert cli_main(["ingest", "--config", str(bad)]) == 1
        missing = tmp_path / "nope.json"
        assert cli_main(["ingest", "--config", str(missing)]) == 1

    def test_missing_input_exits_1_naming_it(self, tmp_path, caplog):
        """An unreadable input is a validation failure, not a runtime one."""
        doc = base_config(tmp_path, roster=["seasonal_naive"], input_path="nope.csv")
        cfg_path = write_config(tmp_path, doc)
        assert cli_main(["ingest", "--config", str(cfg_path)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"cannot read {tmp_path / 'nope.csv'}: "
                          f"[Errno 2] No such file or directory: '{tmp_path / 'nope.csv'}'"]

    def test_non_utf8_input_exits_1_naming_it(self, tmp_path, caplog):
        data = b"Unix,Aggregate\n0,100\n8,11\xe9\n16,120\n"
        (tmp_path / "meter.csv").write_bytes(data)
        doc = base_config(tmp_path, roster=["seasonal_naive"], columns={"appliances": []})
        cfg_path = write_config(tmp_path, doc)
        assert cli_main(["ingest", "--config", str(cfg_path)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{tmp_path / 'meter.csv'}: not UTF-8 text at byte {data.index(0xe9)}"]

    def test_train_subset_and_report(self, tmp_path, capsys):
        build_input_csv(tmp_path / "meter.csv", seed=5)
        doc = base_config(tmp_path, roster=["seasonal_naive", "gbdt"])
        cfg_path = write_config(tmp_path, doc)
        assert cli_main(["ingest", "--config", str(cfg_path)]) == 0
        assert cli_main(["impute-eval", "--config", str(cfg_path)]) == 0
        assert cli_main(["train", "--config", str(cfg_path), "--models", "seasonal_naive"]) == 0
        out = capsys.readouterr().out
        assert "seasonal_naive" in out
        manifest = pipeline.load_manifest(load_config(cfg_path))
        assert list(manifest["models"]) == ["seasonal_naive"]

    def test_train_checks_model_names_before_reading_the_cache(self, tmp_path, caplog):
        doc = base_config(tmp_path, roster=["seasonal_naive"])
        cfg_path = write_config(tmp_path, doc)
        assert cli_main(["train", "--config", str(cfg_path), "--models", "bogus"]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["model 'bogus' is not in the configured roster ('seasonal_naive',)"]
        assert not (tmp_path / "out").exists()

    def test_train_refuses_a_model_named_twice(self, tmp_path, caplog):
        doc = base_config(tmp_path, roster=["seasonal_naive", "gbdt"])
        cfg_path = write_config(tmp_path, doc)
        assert cli_main(["train", "--config", str(cfg_path), "--models", "gbdt,gbdt"]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["model 'gbdt' is named more than once in ('gbdt', 'gbdt')"]
        assert not (tmp_path / "out").exists()

    def test_train_with_no_model_trained_exits_2(self, tmp_path):
        build_input_csv(tmp_path / "meter.csv", seed=8)
        doc = base_config(tmp_path, roster=["seasonal_naive"],
                          model_params={"seasonal_naive": {"period": 10 * N_HOURS}})
        cfg_path = write_config(tmp_path, doc)
        assert cli_main(["ingest", "--config", str(cfg_path)]) == 0
        assert cli_main(["impute-eval", "--config", str(cfg_path)]) == 0
        assert cli_main(["train", "--config", str(cfg_path)]) == 2
        manifest = pipeline.load_manifest(load_config(cfg_path))
        assert manifest["models"]["seasonal_naive"]["status"] == "failed"
