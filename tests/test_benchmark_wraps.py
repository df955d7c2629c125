"""The benchmark's traced run wraps library functions at named module attributes.

perfbench/layers.py lists them in WRAPS. Deleting or renaming one of those
attributes, or calling a function through another one, breaks only the
benchmark's own suite, which the default test run does not collect; these
tests catch it here. They read perfbench/ and change nothing there.
"""
import sys
from collections import Counter
from pathlib import Path

import rpcsp.kikuchi
import rpcsp.solver
from rpcsp import (
    BackendChoice,
    CspPredicate,
    PlantingDistribution,
    random_assignment,
    sample_planted_csp,
    sample_planted_xor,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from layers import WRAPS  # noqa: E402
from tracer import Tracer, _resolve  # noqa: E402


def _traced(call):
    """(call's result, its span count per layer metric) under the benchmark's wraps."""
    tracer = Tracer()
    tracer.install()
    try:
        result = call()
    finally:
        tracer.uninstall()
    return result, Counter(s.name for s in tracer.spans)


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
        _, spans = _traced(lambda: rpcsp.solver.solve_xor(inst, None, backend, 0))
        for name in ("solver.self_s", "approx_recovery.backend_s", "approx_recovery.round_s",
                     "exact_rounding.majority_s"):
            assert spans[name] >= 1, f"k={inst.k} {backend.kind}: no {name} span in {spans}"
        assert spans["instances.value_s"] == 1, f"k={inst.k} {backend.kind}: {spans}"


def test_traced_csp_solve_records_one_side_span_per_task():
    # solve_csp looks build_xor_side up in rpcsp.reduction at call time, where
    # it is wrapped. It builds one side per subset, whose log entry holds both
    # signs' tasks. Parity carries no signal below the full subset, so the
    # solve goes through all 7 subsets and ends at the 13th task, (1, 2, 3)+.
    # Each stage-1 run, an even side's s- one too, is one backend span.
    pred = CspPredicate.k_xor(3)
    psi = sample_planted_csp(random_assignment(12, 3), 300, pred,
                             PlantingDistribution.uniform_satisfying(pred), 3)
    report, spans = _traced(lambda: rpcsp.solver.solve_csp(psi, None, BackendChoice.brute(), 0))
    tasks = [i for t in report.stats["tasks"] for i in t["task_index"]]
    assert (len(report.stats["tasks"]), len(tasks)) == (7, 13)
    assert spans["reduction.side_s"] == len(report.stats["tasks"]), spans
    stage1_runs = sum(len(t["stage1"]) for t in report.stats["tasks"])
    assert stage1_runs == 7 and spans["approx_recovery.backend_s"] == stage1_runs, spans
    for name in ("approx_recovery.backend_s", "approx_recovery.round_s",
                 "exact_rounding.majority_s"):
        assert spans[name] >= 1, f"no {name} span in {spans}"
    assert spans["exact_rounding.majority_s"] == len(tasks), spans


def test_traced_refute_records_one_build_and_one_norm():
    inst = sample_planted_xor(random_assignment(12, 4), 300, 4, 0.2, 4)
    _, spans = _traced(lambda: rpcsp.kikuchi.refute_report(inst, 2, seed=4))
    assert spans["kikuchi.build_s"] == 1 and spans["kikuchi.norm_s"] == 1, spans
