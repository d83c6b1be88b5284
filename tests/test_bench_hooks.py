"""The benchmark's tracer (perfbench/tracing.py) wraps loadcast functions by
module attribute name. Renaming or moving one of them must fail here, in
the test suite, rather than in a benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


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
