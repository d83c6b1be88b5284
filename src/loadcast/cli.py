"""Command-line surface: ingest, impute-eval, train, evaluate, report.

Exit codes: 0 success, 1 validation error (bad config, unreadable input),
2 runtime failure, including a `train` in which no model trained. The
LOADCAST_OUTPUT_DIR environment variable overrides the configured output
directory.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .classical import ClassicalModelError
from .config import ConfigError, load_config
from .features import FeatureError
from .imputation import ImputationError
from .metrics import MetricError, report_to_text
from .series import IngestError, SeriesError
from . import pipeline

logger = logging.getLogger(__name__)

_VALIDATION_ERRORS = (
    ConfigError, IngestError, SeriesError, ImputationError, FeatureError,
    MetricError, ClassicalModelError,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadcast",
        description="Probabilistic household load forecasting pipeline",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("ingest", "parse the raw CSV, resample hourly, cache and report gaps"),
        ("impute-eval", "run the masked-holdout imputer trial and pick a method"),
        ("train", "train every model in the roster on the train split"),
        ("evaluate", "score trained models on the test split, emit report + plot data"),
        ("report", "re-render the report from stored metrics"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config file")
        if name == "train":
            cmd.add_argument(
                "--models",
                help="comma-separated subset of the roster to train (default: all)",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config)
        if args.command == "ingest":
            _, gaps = pipeline.cmd_ingest(cfg)
            print(f"ingested; {len(gaps)} structural gap(s) >= {cfg.structural_gap_threshold}h")
        elif args.command == "impute-eval":
            trial, chosen = pipeline.cmd_impute_eval(cfg)
            for name in sorted(trial.method_results):
                r = trial.method_results[name]
                print(f"{name:10s} rmse={r.rmse:.3f} mae={r.mae:.3f} "
                      f"emd={r.distribution_distance:.3f}")
            print(f"chosen imputer: {chosen}")
        elif args.command == "train":
            models = tuple(args.models.split(",")) if args.models else None
            manifest = pipeline.cmd_train(cfg, models)
            for name, entry in manifest["models"].items():
                print(f"{name:16s} {entry['status']}"
                      + (f" ({entry['error']})" if entry["status"] != "ok" else ""))
            if all(manifest["models"][name]["status"] != "ok" for name in models or cfg.roster):
                logger.error("train: no model trained")
                return 2
        elif args.command == "evaluate":
            report = pipeline.cmd_evaluate(cfg)
            print(report_to_text(report), end="")
        elif args.command == "report":
            print(pipeline.cmd_report(cfg), end="")
    except _VALIDATION_ERRORS as exc:
        logger.error("%s", exc)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        logger.error("%s", exc, exc_info=args.verbose)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
