"""loadcast benchmark: raw meter CSV to scored model table.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client at a time: each repetition is a fresh interpreter
(``client.py``) that runs ``ingest -> impute-eval -> train -> evaluate``
through ``loadcast.cli.main`` in a cold output directory. Repetitions run
until ``--seconds`` have been measured (at least two). Inputs are generated
from the seed once, outside every timed region, and reused by later runs.

With ``--trace 0`` the last line of output carries the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` every repetition is traced and it
carries the per-layer metrics. Every repetition's outputs
are checked; a failed check makes the run incorrect and the exit code 1.
The line before the result holds the environment record.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Times are CPU seconds of the client process, which leave out the time
# co-tenants hold the CPU. What co-tenants still cost (a busy sibling of the
# core, cache and memory bandwidth) makes a shared host's core slower, by up
# to 1.8x, switching within seconds, and CPU time slows with it. So the
# client times a fixed probe right before and after every sample, and each
# sample is scaled by REFERENCE_PROBE_S over the median of the probes that
# ran within one sample's length of it: CPU seconds at the reference speed.
# A short sample is scaled by the probes next to it; a long one, which
# lives through several switches, by the probes of most of its repetition.
# Every timing metric is the median of its scaled samples in the run.
REFERENCE_PROBE_S = 0.007  # the probe's usual CPU time on a 2-vCPU Xeon cloud host
PROBE_REACH_S = 0.05  # a sample shorter than this still takes the probes next to it
SETUP_SPAWNS = 3  # set-up-only interpreters before each repetition, besides its own
SAMPLE_S = 2.0  # each repetition times ingest, train and evaluate for at least this long
MIN_REPS = 2  # the manifest-hash check needs two runs of one seed
RUN_BUDGET_S = 150.0  # no repetition starts that could end after this
CLIENT_TIMEOUT_S = 120.0
PROBABILISTIC = ("gbdt_quantile", "lstm")
# The load is one thread. A second BLAS thread does not make the LSTM faster
# on two cores, but its spin-waits would count in the process's CPU time.
CLIENT_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS")}


class Checks:
    """Operations attempted and failed: CLI commands, model fits, output checks."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.attempted = 0

    def __call__(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok


# ---------------------------------------------------------------------------
# Client processes
# ---------------------------------------------------------------------------


def _client_env(out_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["LOADCAST_OUTPUT_DIR"] = str(out_dir)
    env.update(CLIENT_THREADS)
    return env


def spawn_client(job: dict, rep_dir: Path) -> dict | None:
    """Run one client to completion; None if it failed or timed out."""
    rep_dir.mkdir(parents=True)
    job = {**job, "result": str(rep_dir / "result.json")}
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    with open(rep_dir / "client.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "client.py"), str(job_path)],
            stdout=log, stderr=subprocess.STDOUT, cwd=rep_dir, env=_client_env(rep_dir / "out"),
        )
        try:
            code = proc.wait(timeout=CLIENT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None
    if code != 0:
        return None
    result = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
    setup_probe = statistics.median(p for _, p in result["probe_log"])
    result["setup_s"] = result["ready_cpu"] * REFERENCE_PROBE_S / setup_probe
    result["setup_wall_s"] = result["ready"] - t_spawn
    return result


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _read_cache(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(c) if c else math.nan for c in r[1:]] for r in rows])


def _report(path: Path) -> dict[str, dict[str, float | None]]:
    def num(cell: str) -> float | None:
        return None if cell == "N/A" else float(cell.rstrip("%"))

    with open(path, newline="", encoding="utf-8") as fh:
        return {
            r["Model"]: {k: num(r[k]) for k in ("RMSE", "MAE", "PICP", "AQS")}
            for r in csv.DictReader(fh)
        }


def _count_trees(models_dir: Path) -> int:
    n = 0
    if (models_dir / "gbdt.json").exists():
        n += len(json.loads((models_dir / "gbdt.json").read_text())["trees"])
    if (models_dir / "gbdt_quantile.json").exists():
        docs = json.loads((models_dir / "gbdt_quantile.json").read_text())
        n += sum(len(doc["trees"]) for doc in docs.values())
    return n


def check_rep(w, res: dict | None, out: Path, truth: np.ndarray, check: Checks) -> bool:
    """Check one repetition's outputs; every check is one operation.

    Returns False when the pipeline did not get through ``evaluate``.
    """
    if not check("client", res is not None):
        return False
    for cmd, codes in res["codes"].items():
        check(f"exit:{cmd}", codes != [] and not any(codes))
    if any(res["codes"]["evaluate"]) or not res["codes"]["evaluate"]:
        return False

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for name in w.roster:
        check(f"fit:{name}", manifest["models"].get(name, {}).get("status") == "ok")

    report = _report(out / "report.csv")
    finite_rows = list(report) == list(w.roster) and all(
        all(v is not None and math.isfinite(v) for k, v in row.items()
            if k in ("RMSE", "MAE") or name in PROBABILISTIC)
        for name, row in report.items()
    )
    check("report_rows", finite_rows)

    cache = _read_cache(out / "hourly_cache.csv")
    expected = np.round(np.maximum(truth, 0.0), 3)
    same_gaps = cache.shape == truth.shape and np.array_equal(np.isnan(cache), np.isnan(truth))
    check("cache_matches_truth", same_gaps and bool(
        np.all(np.abs(cache - expected)[~np.isnan(truth)] <= 5e-4 + 1e-9)))
    check("reingest_identical", None not in res["cache_sha256"]
          and res["cache_sha256"][0] == res["cache_sha256"][1])

    check("work:trees", _count_trees(out / "models") == w.expected_trees)
    history = out / "models" / "lstm_history.csv"
    n_epochs = len(history.read_text().splitlines()) - 1 if history.exists() else 0
    check("work:lstm_epochs", n_epochs == w.expected_epochs)
    if "trace" in res:
        batches = sum(1 for s in res["trace"]["spans"] if s[0] == "neural.forward_train")
        check("work:batches", batches == w.expected_batches)
    res["manifest_hash"] = manifest["manifest_hash"]
    res["report"] = report
    sarimax = out / "models" / "sarimax.json"
    res["simplex_iters"] = (
        json.loads(sarimax.read_text())["n_iterations"] if sarimax.exists() else 0
    )
    return True


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quality(w, report: dict) -> dict[str, float]:
    """Test-split quality of the headline model, as report.csv gives it.

    A point model's forecast counts as a distribution whose three quantiles
    all equal the point, so its average quantile score is MAE/2.
    """
    row = report[w.headline]
    aqs = row["AQS"] if w.headline in PROBABILISTIC else row["MAE"] / 2.0
    return {"test_rmse_w": row["RMSE"], "test_aqs_w": aqs}


def scaled(rep: dict, cmd: str) -> list[float]:
    """A command's CPU time samples at the reference speed."""
    out = []
    for t, (start, end) in zip(rep["times"][cmd], rep["spans"][cmd]):
        reach = max(end - start, PROBE_REACH_S)
        near = [p for at, p in rep["probe_log"] if start - reach <= at <= end + reach]
        out.append(t * REFERENCE_PROBE_S / statistics.median(near))
    return out


def pipeline_s(rep: dict) -> float:
    """The first, cold run of each command; later samples are not part of the pipeline."""
    return sum(scaled(rep, cmd)[0] for cmd in rep["times"])


def end_to_end(reps: list[dict], w) -> dict[str, float]:
    """Timing, memory and quality metrics of a run, from its repetitions."""

    def typical(cmd: str) -> float:
        return statistics.median(t for r in reps for t in scaled(r, cmd))

    m = {
        "setup_s": statistics.median(t for r in reps for t in r["setup_samples"]),
        "pipeline_s": statistics.median(pipeline_s(r) for r in reps),
        "ingest_s": typical("ingest"),
        "train_s": typical("train"),
        "evaluate_s": typical("evaluate"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    m.update(quality(w, reps[-1]["report"]))
    return m


def per_layer(traced: list[dict]) -> dict[str, float]:
    layers = [layer_metrics(r["trace"], r["simplex_iters"]) for r in traced]
    return {k: statistics.median(x[k] for x in layers) for k in layers[0]}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "loadcast").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "client_thread_env": CLIENT_THREADS,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(w, seed: int, seconds: float, trace: bool, work: Path = WORK) -> dict:
    """Generate inputs, measure repetitions for ``seconds``, check, and summarise."""
    from workloads import generate

    started = time.monotonic()
    work = work.resolve()
    data_dir = generate(w, seed, work / "data")
    truth = np.load(data_dir / "truth.npy")
    job = {"config": str(data_dir / "config.json")}
    run_dir = work / "runs" / f"{w.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    check = Checks()
    reps: list[dict] = []
    try:
        t_measure = time.monotonic()
        longest = 0.0
        i = 0
        while True:
            done = len(reps) >= MIN_REPS
            now = time.monotonic()
            if done and now - t_measure >= seconds:
                break
            if now - started + 1.2 * longest > RUN_BUDGET_S and (done or i > 0):
                break
            rep_dir = run_dir / f"rep{i}"
            t0 = time.monotonic()
            setup = []
            for k in range(0 if trace else SETUP_SPAWNS):
                res = spawn_client({**job, "setup_only": True}, run_dir / f"setup{i}-{k}")
                if check("setup", res is not None):
                    setup.append(res["setup_s"])
            sample_s = 0.0 if trace else SAMPLE_S
            res = spawn_client({**job, "trace": trace, "sample_s": sample_s}, rep_dir)
            longest = max(longest, time.monotonic() - t0)
            ran = check_rep(w, res, rep_dir / "out", truth, check)
            shutil.rmtree(rep_dir, ignore_errors=True)
            if not ran:
                break
            res["setup_samples"] = [res["setup_s"], *setup]
            reps.append(res)
            i += 1

        hashes = {r["manifest_hash"] for r in reps}
        check("manifest_hash_repeats", len(reps) >= 2 and len(hashes) == 1)
        check("quality_repeats", len({json.dumps(r["report"]) for r in reps}) == 1)
        metrics = {"success_rate": 1.0 - len(check.failures) / check.attempted}
        if reps:
            metrics.update(per_layer(reps) if trace else end_to_end(reps, w))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "reps": [
            {"setup": r["setup_samples"], "setup_wall": r["setup_wall_s"], "cpu": r["times"],
             "wall": r["walls"], "spans": r["spans"], "probe_log": r["probe_log"]}
            for r in reps
        ],
        "report": reps[-1]["report"] if reps else None,
        "failures": check.failures,
        "attempted": check.attempted,
        "metrics": metrics,
    }


def result_line(spec: dict, summary: dict, trace: bool) -> dict:
    """The result object printed last: the metrics BENCHMARK.json declares, with units."""
    declared = spec["per_layer" if trace else "end_to_end"]
    correct = not summary["failures"] and all(m["name"] in summary["metrics"] for m in declared)
    return {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": len(summary["failures"]),
        "metrics": {
            m["name"]: {"value": summary["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in summary["metrics"]
        },
    }


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "loadcast" / "__init__.py").is_file():
        print(f"loadcast sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    env = environment(args.seed)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (results / name).write_text(json.dumps({"env": env, **summary}, indent=1), encoding="utf-8")

    line = result_line(spec, summary, bool(args.trace))
    if summary["failures"]:
        print(f"failed checks: {summary['failures']}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
