"""Forecast scoring: RMSE, MAE, pinball loss, average quantile score, PICP,
and the per-model report table.

All metrics are computed in original watt units. Probabilistic scores take
a forecast's quantiles as one float (n, len(QUANTILE_LEVELS)) array: row i
holds the 5th, 50th and 95th percentile forecasts of actual i, in
``QUANTILE_LEVELS`` order and ascending along the row.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

QUANTILE_LEVELS = (0.05, 0.50, 0.95)


class MetricError(ValueError):
    """Raised on misaligned or empty metric inputs."""


@dataclass(frozen=True)
class ReportRow:
    """One model's scores; picp/aqs are None for point-only models."""

    model: str
    rmse: float
    mae: float
    picp: float | None = None
    aqs: float | None = None


# each ReportRow field's (report.csv header, report.txt header, cell format)
_COLUMNS = {
    "model": ("Model", "Model", "%s"),
    "rmse": ("RMSE", "RMSE", "%.4f"),
    "mae": ("MAE", "MAE", "%.4f"),
    "picp": ("PICP", "PICP (90%)", "%.2f%%"),
    "aqs": ("AQS", "Avg. Quantile Score", "%.4f"),
}


def _check_aligned(y: np.ndarray, yhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape:
        raise MetricError(f"length mismatch: {y.shape} vs {yhat.shape}")
    if y.size == 0:
        raise MetricError("empty input")
    return y, yhat


def rmse(y, yhat) -> float:
    """Root mean squared error."""
    y, yhat = _check_aligned(y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def mae(y, yhat) -> float:
    """Mean absolute error."""
    y, yhat = _check_aligned(y, yhat)
    return float(np.mean(np.abs(y - yhat)))


def pinball_loss(y, yhat, tau: float):
    """Quantile loss: tau*(y-yhat) when y > yhat, else (1-tau)*(yhat-y).

    Under-prediction of the tau-quantile costs tau per unit, over-prediction
    1-tau; expectation is minimised by the true tau-quantile. Accepts
    scalars or aligned arrays (elementwise result).
    """
    if not 0 < tau < 1:
        raise MetricError(f"tau must be in (0, 1), got {tau}")
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    diff = y - yhat
    out = np.where(diff > 0, tau * diff, (tau - 1.0) * diff)
    return out if out.ndim else float(out)


def pinball_grad(y, yhat, tau: float):
    """d(pinball)/d(yhat): -tau when y > yhat, else 1-tau (ties take 1-tau)."""
    if not 0 < tau < 1:
        raise MetricError(f"tau must be in (0, 1), got {tau}")
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    out = np.where(y > yhat, -tau, 1.0 - tau)
    return out if out.ndim else float(out)


def _check_quantiles(y, q) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    if y.ndim != 1 or q.shape != (len(y), len(QUANTILE_LEVELS)):
        raise MetricError(f"quantiles of shape {q.shape} do not align with actuals of shape "
                          f"{y.shape} at the levels {QUANTILE_LEVELS}")
    if len(y) == 0:
        raise MetricError("empty input")
    if np.any(q[:, :-1] > q[:, 1:]):
        raise MetricError("quantile tracks must satisfy q05 <= q50 <= q95")
    return y, q


def average_quantile_score(y, q) -> float:
    """Mean pinball loss over all (forecast point, quantile level) pairs."""
    y, q = _check_quantiles(y, q)
    total = 0.0
    for j, tau in enumerate(QUANTILE_LEVELS):
        total += float(np.sum(pinball_loss(y, q[:, j], tau)))
    return total / q.size


def picp(y, q) -> float:
    """Prediction-interval coverage, percent of actuals with q05 <= y <= q95.

    Boundary hits count as covered.
    """
    y, q = _check_quantiles(y, q)
    covered = (q[:, 0] <= y) & (y <= q[:, -1])
    return float(100.0 * np.count_nonzero(covered) / len(y))


def score(model: str, y, forecast) -> ReportRow:
    """One model's report row. A point track of shape (n,) gets RMSE and MAE
    only; (n, 3) quantiles in ``QUANTILE_LEVELS`` order also get the
    interval scores, and their middle column is the point."""
    forecast = np.asarray(forecast, dtype=float)
    if forecast.ndim == 1:
        return ReportRow(model, rmse(y, forecast), mae(y, forecast))
    y, q = _check_quantiles(y, forecast)
    return ReportRow(model, rmse(y, q[:, 1]), mae(y, q[:, 1]),
                     picp=picp(y, q), aqs=average_quantile_score(y, q))


def assemble_report(entries: list[ReportRow] | tuple[ReportRow, ...]) -> tuple[ReportRow, ...]:
    """Validate and order report rows (input order is the pipeline's model order)."""
    if not entries:
        raise MetricError("report needs at least one entry")
    names = [e.model for e in entries]
    if len(set(names)) != len(names):
        raise MetricError(f"duplicate model names in report: {names}")
    for e in entries:
        if e.picp is not None and not 0.0 <= e.picp <= 100.0:
            raise MetricError(f"picp out of range for {e.model}: {e.picp}")
    return tuple(entries)


def _table(rows: tuple[ReportRow, ...], header: int) -> list[list[str]]:
    """The header row, entry ``header`` of each ``_COLUMNS`` value (0 for the
    CSV, 1 for the text table), then one row of cells per model; a None
    score reads N/A."""
    cells = [["N/A" if getattr(row, name) is None else fmt % getattr(row, name)
              for name, (_, _, fmt) in _COLUMNS.items()] for row in rows]
    return [[column[header] for column in _COLUMNS.values()], *cells]


def report_to_csv(rows: tuple[ReportRow, ...]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_table(rows, 0))
    return buf.getvalue()


def report_to_text(rows: tuple[ReportRow, ...]) -> str:
    """Aligned-column table, one row per model."""
    table = _table(rows, 1)
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
             for line in table]
    return "\n".join(lines) + "\n"
