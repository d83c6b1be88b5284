"""Pipeline configuration: JSON schema, validation, hashing and seed fan-out.

One global seed derives a stable per-model seed (seed + CRC32 of the model
name), so adding or removing a model never perturbs the others.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from .features import CALENDAR_COLUMNS
from .series import ColumnSchema

OUTPUT_DIR_ENV = "LOADCAST_OUTPUT_DIR"


def _registry():
    from . import pipeline  # holds MODELS; imported on use as it imports this module
    return pipeline


class ConfigError(ValueError):
    """Raised when a pipeline config fails validation."""


@dataclass(frozen=True)
class PipelineConfig:
    """Validated pipeline settings; see README for the JSON schema.

    The default window-feature enumeration (aggregate + appliance channels
    + 4 calendar columns + 3 lags) is a documented reconstruction; the
    source material never lists the exact inputs.
    """

    input_path: str
    output_dir: str
    columns: dict[str, Any] = field(default_factory=dict)
    structural_gap_threshold: int = 24
    knn_k: int = 5
    knn_max_gap: int = 6
    trial_min_window_hours: int = 2160  # ~3 months
    calendar_features: tuple[str, ...] = ("hour", "dayofweek", "month", "is_weekend")
    lags: tuple[int, ...] = (1, 24, 168)
    window_channels: tuple[str, ...] | None = None  # None = all channels
    split_fraction: float = 0.8
    validation_fraction: float = 0.1  # tail of the train split, for early stopping
    roster: tuple[str, ...] = field(default_factory=lambda: _registry().DEFAULT_ROSTER)
    model_params: dict[str, dict[str, Any]] = field(default_factory=dict)
    external_predictions: dict[str, str] = field(default_factory=dict)
    seed: int = 1234

    def __post_init__(self) -> None:
        if not 0 < self.split_fraction < 1:
            raise ConfigError("split_fraction must be in (0, 1)")
        if not 0 < self.validation_fraction < 1:
            raise ConfigError("validation_fraction must be in (0, 1)")
        if not isinstance(self.model_params, dict):
            raise ConfigError(f"model_params must be an object, got {self.model_params!r}")
        for name, given in self.model_params.items():
            if not isinstance(given, dict):
                raise ConfigError(f"model_params.{name} must be an object of "
                                  f"hyperparameters, got {given!r}")
        known = tuple(_registry().MODELS)
        for name in (*self.roster, *self.model_params):
            if name not in known:
                raise ConfigError(f"unknown model {name!r}; known: {known}")
        for i, name in enumerate(self.roster):
            if name in self.roster[:i]:
                raise ConfigError(f"roster: model {name!r} is named more than once")
        for name in self.model_params:
            self.params_for(name)
        for name in self.external_predictions:
            if name in self.roster:
                raise ConfigError(f"external_predictions: {name!r} is also a roster model; "
                                  "give the external row another name")
        _check_names("calendar_features", self.calendar_features, CALENDAR_COLUMNS)
        if "sarimax" in self.model_params:
            exog = self.params_for("sarimax")["exog"]
            _check_names("model_params.sarimax.exog", exog, CALENDAR_COLUMNS)
        for key, floor in (("seed", 0), ("knn_k", 1), ("knn_max_gap", 0),
                           ("structural_gap_threshold", 1), ("trial_min_window_hours", 1)):
            _check_whole(key, getattr(self, key), floor)
        for k in self.lags:
            _check_whole("lags", k, 1)
        if not self.calendar_features and not self.lags:
            raise ConfigError("calendar_features and lags are both empty, which leaves "
                              "the tabular feature matrix no column")
        _check_names("window_channels", self.window_channels or (),
                     self.column_schema().channels, "channel")

    def params_for(self, model: str) -> dict[str, Any]:
        """The model's default hyperparameters overridden by ``model_params``,
        each value checked against and cast to its default's type
        (``_as_type_of``)."""
        params = _registry().MODELS[model].defaults()
        given = self.model_params.get(model, {})
        unknown = set(given) - set(params)
        if unknown:
            raise ConfigError(f"unknown hyperparameters for {model}: {sorted(unknown)}")
        for key, value in given.items():
            try:
                params[key] = _as_type_of(params[key], value)
            except (ValueError, OverflowError) as exc:  # overflow: an int past float's range
                raise ConfigError(f"{model}.{key} = {value!r} {exc} "
                                  f"(its default is {params[key]!r})") from None
        return params

    def column_schema(self) -> ColumnSchema:
        """``ColumnSchema`` defaults overridden by ``columns``."""
        if not isinstance(self.columns, dict):
            raise ConfigError(f"columns must be an object, got {self.columns!r}")
        names = dict(self.columns)
        unknown = set(names) - {f.name for f in fields(ColumnSchema)}
        if unknown:
            raise ConfigError(f"unknown columns keys: {sorted(unknown)}")
        if "appliances" in names:
            apps = names["appliances"]
            if not isinstance(apps, list) or not all(isinstance(a, str) for a in apps):
                raise ConfigError(f"columns.appliances must be a list of names, got {apps!r}")
            names["appliances"] = tuple(apps)
        return ColumnSchema(**names)

    def model_seed(self, model: str) -> int:
        return self.seed + zlib.crc32(model.encode("utf-8")) % 100_000

    def resolved_output_dir(self) -> Path:
        return Path(os.environ.get(OUTPUT_DIR_ENV) or self.output_dir)

    def to_canonical_json(self) -> str:
        # Paths and external predictions shape no artifact: the input's bytes
        # are the manifest's data_fingerprint, a copied output directory
        # still evaluates, and adding a prediction file needs no retraining.
        # Hyperparameters enter as resolved, so 60 and 60.0 hash alike and a
        # changed default changes the hash.
        doc = asdict(self)
        for key in ("input_path", "output_dir", "external_predictions"):
            del doc[key]
        doc["model_params"] = {name: self.params_for(name) for name in self.roster}
        return json.dumps(doc, sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_canonical_json().encode("utf-8")).hexdigest()


def _as_type_of(default: Any, value: Any) -> Any:
    """``value`` cast to the type of ``default``, or ValueError saying why it
    does not fit: an int takes a whole number (60.0 gives 60), a float any
    number but a bool, a str a string, and a tuple a list of its own length,
    each element checked against the default's element. A tuple of names
    (``sarimax.exog``) takes a list of strings of any length."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError("is not a list")
        if all(isinstance(d, str) for d in default):
            default = ("",) * len(value)
        if len(value) != len(default):
            raise ValueError(f"is not a list of {len(default)}")
        return tuple(_as_type_of(d, v) for d, v in zip(default, value))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, int):
        if not (number and (isinstance(value, int) or value.is_integer())):
            raise ValueError("is not a whole number")
        return int(value)
    if isinstance(default, float):
        if not number:
            raise ValueError("is not a number")
        return float(value)
    if not isinstance(value, str):
        raise ValueError("is not a string")
    return value


def _check_whole(key: str, value: Any, floor: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < floor:
        raise ConfigError(f"{key}: {value!r} is not a whole number >= {floor}")


def _check_names(key: str, names: tuple, known: tuple[str, ...],
                 kind: str = "calendar column") -> None:
    for name in names:
        if name not in known:
            raise ConfigError(f"{key}: unknown {kind} {name!r}; known: {', '.join(known)}")


def load_config(path) -> PipelineConfig:
    """Parse and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc, base_dir=Path(path).parent)


def config_from_dict(doc: dict[str, Any], base_dir: Path | None = None) -> PipelineConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    missing = {"input_path", "output_dir"} - set(doc)
    if missing:
        raise ConfigError(f"config missing required keys: {sorted(missing)}")
    unknown = set(doc) - {f.name for f in fields(PipelineConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    for key in ("input_path", "output_dir"):
        if not isinstance(doc[key], str):
            raise ConfigError(f"{key}: must be a path string, got {doc[key]!r}")

    def resolve(p: str) -> str:
        path = Path(p)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return str(path)

    external = doc.get("external_predictions", {})
    if not isinstance(external, dict) or not all(isinstance(p, str) for p in external.values()):
        raise ConfigError(f"external_predictions: must map row names to CSV paths, "
                          f"got {external!r}")
    kwargs = dict(doc, input_path=resolve(doc["input_path"]),
                  output_dir=resolve(doc["output_dir"]),
                  external_predictions={name: resolve(p) for name, p in external.items()})
    for key in ("calendar_features", "lags", "window_channels", "roster"):
        if key == "window_channels" and doc.get(key) is None:
            continue  # null means every channel
        if key in doc:
            if not isinstance(doc[key], (list, tuple)):
                raise ConfigError(f"{key} must be a list, got {doc[key]!r}")
            kwargs[key] = tuple(doc[key])
    try:
        return PipelineConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
