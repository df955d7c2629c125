"""The benchmark's traced run wraps library functions at named module attributes.

perfbench/layers.py lists them in WRAPS. Deleting or renaming one of those
attributes, or calling a function through another one, breaks only the
benchmark's own suite, which the default test run does not collect; these
tests catch it here. They read perfbench/ and change nothing there.
"""
import sys
from collections import Counter
from pathlib import Path

import rpcsp.solver
from rpcsp import BackendChoice, random_assignment, sample_planted_xor

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from layers import WRAPS  # noqa: E402
from tracer import Tracer, _resolve  # noqa: E402


def test_every_benchmark_wrap_resolves():
    assert WRAPS
    missing = []
    for module, path, _, _ in WRAPS:
        try:
            owner, attr = _resolve(module, path)
            ok = callable(getattr(owner, attr))
        except (ImportError, AttributeError):
            ok = False
        if not ok:
            missing.append(f"{module}.{path}")
    assert not missing, f"benchmark wraps with no target: {missing}"


def test_traced_solves_record_every_stage_and_score_once():
    cases = [
        (sample_planted_xor(random_assignment(20, 1), 400, 2, 0.4, 1), BackendChoice.sdp_basic()),
        (sample_planted_xor(random_assignment(12, 2), 120, 3, 0.5, 2), BackendChoice.brute()),
    ]
    for inst, backend in cases:
        tracer = Tracer()
        tracer.install()
        try:
            rpcsp.solver.solve_xor(inst, None, backend, 0)
        finally:
            tracer.uninstall()
        spans = Counter(s.name for s in tracer.spans)
        for name in ("solver.self_s", "approx_recovery.backend_s", "approx_recovery.round_s",
                     "exact_rounding.majority_s"):
            assert spans[name] >= 1, f"k={inst.k} {backend.kind}: no {name} span in {spans}"
        assert spans["instances.value_s"] == 1, f"k={inst.k} {backend.kind}: {spans}"
