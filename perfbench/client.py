"""One closed-loop client: a fresh interpreter that runs the pipeline once.

Usage: ``python3 client.py JOB.json``. The job names the config, the
result file and whether to trace. The client imports loadcast and loads
the config (set-up), then runs ``ingest``, ``impute-eval``, ``train`` and
``evaluate`` through ``loadcast.cli.main``, each after the previous one
returns. With ``"setup_only"`` it stops after set-up. The output directory
comes from ``LOADCAST_OUTPUT_DIR`` in the environment.

With ``"sample_s"`` set, the client then runs ``ingest`` (cold, in fresh
output directories), ``train`` and ``evaluate`` again, in turn, until each
command has run for that many seconds in total or 15 times, so commands
that take well under a second are timed more than once per repetition.

Times are CPU seconds of this process (all its threads), read with the
same clock as the tracer's spans; the wall time of each command is kept
beside it in the result. Right before and right after each command, and
three times after set-up, the client times a fixed probe (``probe_s``) and
logs when it ran, so the run can tell how fast the host's core ran around
each sample.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracing import CLOCK, COMMANDS, Tracer, wrapper_cost_s

OUTPUT_ENV = "LOADCAST_OUTPUT_DIR"
MAX_SAMPLES = 15
SETUP_PROBES = 3
PROBE_LOOPS = 40_000  # about 4 ms of interpreter loop on a 2-vCPU Xeon
PROBE_MATMULS = 32  # about as long again in single-threaded BLAS


def probe_s() -> float:
    """CPU seconds of a fixed piece of work, half interpreter loop and half BLAS.

    It does not touch loadcast, so a change to the program cannot move it;
    only the speed of the core it runs on can.
    """
    import numpy as np

    m = np.linspace(-1.0, 1.0, 120 * 120).reshape(120, 120)
    t0 = CLOCK()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    for _ in range(PROBE_MATMULS):
        m @ m
    return CLOCK() - t0


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    from loadcast import cli
    from loadcast.config import load_config

    load_config(job["config"])
    result: dict = {"ready": time.monotonic(), "ready_cpu": CLOCK()}
    probe_log = result["probe_log"] = []  # [monotonic time, probe CPU seconds]

    def probe() -> None:
        t = time.monotonic()
        probe_log.append([t, probe_s()])
        probe_log[-1][0] = (t + time.monotonic()) / 2

    for _ in range(SETUP_PROBES):
        probe()
    if job.get("setup_only"):
        Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
        return 0

    out = Path(os.environ[OUTPUT_ENV])
    times: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}
    walls: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}
    spans: dict[str, list[list[float]]] = {cmd: [] for cmd in COMMANDS}  # monotonic
    codes: dict[str, list[int]] = {cmd: [] for cmd in (*COMMANDS, "reingest")}
    tracer = Tracer() if job["trace"] else None

    def run(cmd: str, out_dir: Path = out) -> bool:
        os.environ[OUTPUT_ENV] = str(out_dir)
        argv = [cmd, "--config", job["config"]]
        probe()
        t0, c0 = time.monotonic(), CLOCK()
        code = tracer.command(cmd, cli.main, argv) if tracer else cli.main(argv)
        times[cmd].append(CLOCK() - c0)
        walls[cmd].append(time.monotonic() - t0)
        spans[cmd].append([t0, t0 + walls[cmd][-1]])
        probe()
        codes[cmd].append(code)
        return code == 0

    if tracer is not None:
        tracer.install()
    ok = all(run(cmd) for cmd in COMMANDS)  # stops at the first failure
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump()
        result["trace"]["wrapper_cost_s"] = wrapper_cost_s()
        tracer = None

    sample_s = job.get("sample_s", 0.0)

    def wanted(cmd: str) -> bool:
        return sum(times[cmd]) < sample_s and len(times[cmd]) < MAX_SAMPLES

    # one command after another in turn, so each command's samples spread over
    # the whole sampling time and a slow spell of the host cannot cover them all
    sampled = ("ingest", "train", "evaluate")
    while ok and any(wanted(cmd) for cmd in sampled):
        for cmd in filter(wanted, sampled):
            fresh = out.parent / f"cold-{cmd}{len(times[cmd])}"
            ok = ok and run(cmd, fresh if cmd == "ingest" else out)

    # untimed: ingest again must find its cache and leave it untouched
    os.environ[OUTPUT_ENV] = str(out)
    cache = out / "hourly_cache.csv"
    before = _sha256(cache)
    codes["reingest"].append(cli.main(["ingest", "--config", job["config"]]))
    result["cache_sha256"] = [before, _sha256(cache)]
    result["times"], result["walls"], result["codes"] = times, walls, codes
    result["spans"] = spans
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
