"""Spans recorded from outside the program, and the per-layer metrics derived from them.

``Tracer.install`` wraps loadcast's public functions at the binding each
caller looks up: names that ``pipeline`` imports directly are patched on
``loadcast.pipeline``; functions that a module calls as its own globals
(``boosted.fit_tree``, ``neural.forward``/``backward``/``adam_step``) are
patched on that module. Spans (name, start, end, parent) stay in memory
and are written out once the client finishes. Their clock is the CPU time
of the client process, as for the end-to-end command times.
"""

from __future__ import annotations

import math
import time
import types
from collections import Counter, defaultdict

import numpy as np

CLOCK = time.process_time
COMMANDS = ("ingest", "impute-eval", "train", "evaluate")
_STRUCTURAL = ("imputation.linear_impute", "imputation.seasonal_impute",
               "imputation.build_seasonal_profile")
_CHECKPOINT = ("neural.save_checkpoint", "neural.load_checkpoint", "neural.history_to_csv")
_SCORING = ("rmse", "mae", "picp", "average_quantile_score", "assemble_report",
            "report_to_csv", "report_to_text")


class Tracer:
    """Span recorder for one client process."""

    def __init__(self) -> None:
        # each span is [name, start, end, parent index or None, attrs]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = CLOCK()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = CLOCK()
        self._stack.pop()

    def command(self, name: str, fn, *args):
        """Run one CLI command as a root span."""
        rec = self._open(f"cli.{name}")
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, module, attr: str, name, attrs=None) -> None:
        """Replace ``module.attr`` by a wrapper recording one span per call.

        ``name`` is a span name or a function of (args, kwargs) giving one;
        ``attrs(result, args, kwargs)`` adds counts to the finished span.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            rec = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[4].update(attrs(result, args, kwargs))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def install(self) -> None:
        from loadcast import boosted, classical, cli, imputation, metrics, neural, pipeline

        w = self.wrap
        # series and features: imported into pipeline by name
        w(pipeline, "ingest_csv", "series.ingest_csv", lambda r, a, k: {"rows": len(r)})
        w(pipeline, "resample_hourly", "series.resample_hourly")
        w(pipeline, "series_to_csv", "series.cache_write")
        w(pipeline, "series_from_csv", "series.cache_read")
        w(pipeline, "assemble_matrix", "features.assemble_matrix")
        w(pipeline, "windowize", "features.windowize",
          lambda r, a, k: {"bytes": r.data.nbytes})
        w(pipeline, "calendar_features", "features.calendar_features")
        w(pipeline, "prepare_data", "pipeline.prepare_data")

        # imputation: pipeline calls these through the module
        w(imputation, "knn_impute", "imputation.knn_impute",
          lambda r, a, k: {"filled": int(np.isnan(a[0].values).sum()
                                         - np.isnan(r.values).sum())})
        for fn in _STRUCTURAL:
            w(imputation, fn.split(".")[1], fn)
        w(imputation, "run_imputation_trial", "imputation.trial")

        # classical: count objective evaluations inside the simplex search
        search = classical.nelder_mead

        def counted_search(func, *args, **kwargs):
            def objective(x):
                self.counts["classical.css_evals"] += 1
                return func(x)
            return search(objective, *args, **kwargs)

        classical.nelder_mead = counted_search
        self._patches.append((classical, "nelder_mead", search))
        w(classical, "sarimax_fit", "classical.sarimax_fit")
        w(classical, "sarimax_forecast", "classical.sarimax_forecast")

        # boosted: gbdt_fit looks up fit_tree as a global; gbdt_predict_quantiles
        # looks up gbdt_predict the same way
        w(boosted, "gbdt_fit", "boosted.gbdt_fit")
        w(boosted, "fit_tree", "boosted.fit_tree")
        w(boosted, "gbdt_predict", "boosted.predict",
          lambda r, a, k: {"rows": len(r)})

        # neural: train looks up forward, backward and adam_step as globals
        def forward_name(args, kwargs):
            if kwargs.get("train_mode"):
                return "neural.forward_train"
            return "neural.val_forward" if self.parent_name() == "neural.train" \
                else "neural.forward_eval"

        w(neural, "train", "neural.train")
        w(neural, "forward", forward_name, lambda r, a, k: {"rows": len(r[0])})
        w(neural, "backward", "neural.backward")
        w(neural, "adam_step", "neural.adam_step")
        w(neural, "init_model", "neural.init_model")
        w(neural, "predict_quantiles", "neural.predict",
          lambda r, a, k: {"rows": len(r)})
        for fn in _CHECKPOINT:
            w(neural, fn.split(".")[1], fn)

        # metrics: pipeline scores through the module; cli prints the table itself
        for fn in _SCORING:
            w(metrics, fn, "metrics.score")
        w(cli, "report_to_text", "metrics.score")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def wrapper_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """CPU seconds that tracing adds to one call it wraps.

    A wrapped no-op is timed against the bare no-op, best of ``repeats``
    loops of ``calls`` each, so the figure is the tracer's own cost and not
    the host's noise.
    """
    ns = types.SimpleNamespace(noop=lambda: None)
    bare = ns.noop
    tracer = Tracer()
    tracer.wrap(ns, "noop", "noop")

    def best(fn) -> float:
        fastest = math.inf
        for _ in range(repeats):
            tracer.spans.clear()
            t0 = CLOCK()
            for _ in range(calls):
                fn()
            fastest = min(fastest, CLOCK() - t0)
        return fastest

    return max(best(ns.noop) - best(bare), 0.0) / calls


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


def layer_metrics(trace: dict, simplex_iters: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run.

    A span's self time is its duration minus its children's durations. A
    layer total counts only the outermost span of a name, so a function
    reached again below itself is not counted twice; the imputers that run
    inside the masked-holdout trial count only in ``imputation.trial.s``.
    """
    spans = trace["spans"]
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    ancestors: list[frozenset[str]] = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is None:
            ancestors.append(frozenset())
        else:
            child_time[parent] += dur[i]
            ancestors.append(ancestors[parent] | {names[parent]})
    self_time = [d - c for d, c in zip(dur, child_time)]

    totals: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    attr: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        if name in ancestors[i]:
            continue
        totals[name] += dur[i]
        calls[name] += 1
        for key, value in spans[i][4].items():
            attr[f"{name}.{key}"] += value

    def total(*span_names: str, outside: str | None = None) -> float:
        group = set(span_names)
        return sum(
            dur[i] for i, n in enumerate(names)
            if n in group and not (ancestors[i] & group) and outside not in ancestors[i]
        )

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    m["series.ingest_csv.s"] = totals["series.ingest_csv"]
    m["series.ingest_csv.rows"] = attr["series.ingest_csv.rows"]
    m["series.ingest_csv.rows_per_s"] = rate(m["series.ingest_csv.rows"], m["series.ingest_csv.s"])
    m["series.resample_hourly.s"] = totals["series.resample_hourly"]
    m["series.cache_write.s"] = totals["series.cache_write"]
    m["series.cache_read.s"] = totals["series.cache_read"]
    m["series.cache_read.calls"] = calls["series.cache_read"]

    m["imputation.knn_impute.s"] = totals["imputation.knn_impute"]
    m["imputation.knn_cells_filled"] = attr["imputation.knn_impute.filled"]
    m["imputation.structural.s"] = total(*_STRUCTURAL, outside="imputation.trial")
    m["imputation.trial.s"] = totals["imputation.trial"]

    m["features.assemble_matrix.s"] = totals["features.assemble_matrix"]
    m["features.windowize.s"] = totals["features.windowize"]
    m["features.window_mb"] = max(
        (s[4]["bytes"] for s in spans if s[0] == "features.windowize"), default=0
    ) / 1e6

    m["pipeline.prepare_data.s"] = totals["pipeline.prepare_data"]
    m["pipeline.prepare_data.calls"] = calls["pipeline.prepare_data"]
    m["pipeline.self.s"] = sum(self_time[i] for i, n in enumerate(names) if n.startswith("cli."))

    m["classical.sarimax_fit.s"] = totals["classical.sarimax_fit"]
    m["classical.css_evals"] = trace["counts"].get("classical.css_evals", 0)
    m["classical.simplex_iters"] = simplex_iters
    m["classical.sarimax_forecast.s"] = totals["classical.sarimax_forecast"]

    m["boosted.fit_tree.s"] = totals["boosted.fit_tree"]
    m["boosted.trees"] = calls["boosted.fit_tree"]
    m["boosted.ms_per_tree"] = 1e3 * m["boosted.fit_tree.s"] / max(m["boosted.trees"], 1)
    m["boosted.gbdt_fit.self.s"] = sum(
        self_time[i] for i, n in enumerate(names) if n == "boosted.gbdt_fit"
    )
    m["boosted.predict.s"] = totals["boosted.predict"]
    m["boosted.predict_rows_per_s"] = rate(attr["boosted.predict.rows"], m["boosted.predict.s"])

    m["neural.forward_train.s"] = totals["neural.forward_train"]
    m["neural.backward.s"] = totals["neural.backward"]
    m["neural.adam_step.s"] = totals["neural.adam_step"]
    m["neural.val_forward.s"] = totals["neural.val_forward"]
    m["neural.train.self.s"] = sum(
        self_time[i] for i, n in enumerate(names) if n == "neural.train"
    )
    m["neural.batches"] = calls["neural.forward_train"]
    m["neural.train_samples_per_s"] = rate(
        attr["neural.forward_train.rows"], totals["neural.train"]
    )
    m["neural.predict.s"] = totals["neural.predict"]
    m["neural.predict_windows_per_s"] = rate(attr["neural.predict.rows"], m["neural.predict.s"])
    m["neural.checkpoint.s"] = total(*_CHECKPOINT)

    m["metrics.score.s"] = totals["metrics.score"]

    # every span and every counted objective call went through one wrapper
    m["trace.overhead_s"] = (len(spans) + m["classical.css_evals"]) * trace["wrapper_cost_s"]
    for cmd in COMMANDS:
        cmd_spans = [i for i, n in enumerate(names) if n == f"cli.{cmd}"]
        cmd_s = sum(dur[i] for i in cmd_spans)
        covered = sum(child_time[i] for i in cmd_spans)
        m[f"trace.coverage.{cmd}"] = covered / cmd_s if cmd_s > 0 else 0.0
    return {k: float(v) for k, v in m.items()}
