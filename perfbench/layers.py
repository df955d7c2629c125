"""Per-layer metrics of the traced run and the program functions they wrap.

A layer is one module of ``rpcsp``. The traced run replaces each function in
``WRAPS`` at the module attribute its callers look it up through (``from .x
import f`` binds a copy into the caller's namespace, so one function can need
several wraps). Every call then records a span whose self time is charged to
the layer metric named in the table. ``fourier``, ``rng`` and ``errors`` have
no layer metric: no workload passes a planting to ``solve_csp``, rng draws are
counted inside ``instances.sample_s``, and ``errors`` does no work.

``PER_LAYER`` also records, for each metric, which end-to-end metric it
should move and on which workload, so later performance changes can cite the
prediction by name.
"""
from __future__ import annotations

import os


def _calls(name):
    return lambda args, kwargs, result, parent_fn: {name: 1}


def _write_bytes(args, kwargs, result, parent_fn):
    return {"instances.write_bytes": os.path.getsize(args[1])}


def _read_bytes(args, kwargs, result, parent_fn):
    return {"instances.read_bytes": os.path.getsize(args[0])}


def _solve_counts(args, kwargs, result, parent_fn):
    if parent_fn == "solve_csp":
        return {"solver.subsolves": 1}
    return {"solver.candidates": len(result.candidates)}


def _pair_counts(args, kwargs, result, parent_fn):
    return {"solver.pair_out": 2 * result.m, "solver.pair_in": args[0].m}


def _backend_counts(args, kwargs, result, parent_fn):
    return {
        "approx_recovery.sdp_iters": result.info.get("iters", 0),
        "approx_recovery.brute_argmax_count": result.info.get("argmax_count", 0),
    }


def _kikuchi_counts(args, kwargs, result, parent_fn):
    return {"kikuchi.vertices": result.num_vertices, "kikuchi.nnz": int(result.matrix.nnz)}


def _vote_counts(args, kwargs, result, parent_fn):
    inst = args[0]
    used = inst.m - round(result[1]["dropped_fraction"] * inst.m)
    return {"exact_rounding.votes": inst.k * used}


# (module, attribute path, time metric charged with the span's self time,
#  counter of the call's work: (args, kwargs, result, parent function) -> dict)
WRAPS = [
    ("rpcsp.instances", "sample_planted_xor", "instances.sample_s", None),
    ("rpcsp.instances", "sample_planted_csp", "instances.sample_s", None),
    ("rpcsp.cli", "sample_planted_xor", "instances.sample_s", None),
    ("rpcsp.solver", "value", "instances.value_s", _calls("instances.value_calls")),
    ("rpcsp.solver", "clean", "instances.clean_s", _calls("instances.clean_calls")),
    ("rpcsp.exact_rounding", "clean", "instances.clean_s", _calls("instances.clean_calls")),
    ("rpcsp.kikuchi", "clean", "instances.clean_s", _calls("instances.clean_calls")),
    ("rpcsp.cli", "write_xor", "instances.write_s", _write_bytes),
    ("rpcsp.cli", "write_assignment", "instances.write_s", _write_bytes),
    ("rpcsp.cli", "read_xor", "instances.read_s", _read_bytes),
    ("rpcsp.cli", "read_assignment", "instances.read_s", _read_bytes),
    ("rpcsp.solver", "solve_xor", "solver.self_s", _solve_counts),
    ("rpcsp.solver", "solve_csp", "solver.self_s", _solve_counts),
    ("rpcsp.cli", "solve_xor", "solver.self_s", _solve_counts),
    ("rpcsp.solver", "pair_to_even", "solver.pair_s", _pair_counts),
    ("rpcsp.reduction", "build_xor_side", "reduction.side_s", _calls("reduction.sides")),
    ("rpcsp.solver", "solve_pseudo_expectation", "approx_recovery.backend_s", _backend_counts),
    ("rpcsp.approx_recovery", "PseudoExpectation.validate", "approx_recovery.validate_s", None),
    ("rpcsp.solver", "round_even_detail", "approx_recovery.round_s", None),
    ("rpcsp.solver", "round_odd", "approx_recovery.round_s", None),
    ("rpcsp.approx_recovery", "build_kikuchi", "kikuchi.build_s", _kikuchi_counts),
    ("rpcsp.kikuchi", "build_kikuchi", "kikuchi.build_s", _kikuchi_counts),
    ("rpcsp.kikuchi", "spectral_norm", "kikuchi.norm_s", None),
    ("rpcsp.solver", "majority_round_detail", "exact_rounding.majority_s", _vote_counts),
    ("rpcsp.cli", "cli_main", "cli.self_s", None),
]

# (name, unit, better, predicted moves: "end-to-end metric on workload")
PER_LAYER = [
    ("instances.sample_s", "s", "lower",
     "op_p50_s on cli-xor2, where sampling runs inside generate; elsewhere setup_s only"),
    ("instances.value_s", "s", "lower", "op_p50_s on cli-xor2 and csp3-parity"),
    ("instances.value_calls", "count", "lower", "op_p50_s on cli-xor2 and csp3-parity"),
    ("instances.clean_s", "s", "lower", "op_p50_s on cli-xor2 and csp3-parity"),
    ("instances.clean_calls", "count", "lower", "op_p50_s on cli-xor2 and csp3-parity"),
    ("instances.write_s", "s", "lower",
     "op_p50_s and peak_rss_mb on cli-xor2; no other workload"),
    ("instances.write_bytes", "bytes", "lower",
     "op_p50_s and peak_rss_mb on cli-xor2; no other workload"),
    ("instances.read_s", "s", "lower",
     "op_p50_s and peak_rss_mb on cli-xor2; no other workload"),
    ("instances.read_bytes", "bytes", "lower",
     "op_p50_s and peak_rss_mb on cli-xor2; no other workload"),
    ("solver.self_s", "s", "lower", "op_p50_s on csp3-parity"),
    ("solver.subsolves", "count", "lower", "op_p50_s on csp3-parity"),
    ("solver.candidates", "count", "lower", "op_p50_s on csp3-parity"),
    ("solver.pair_s", "s", "lower", "op_p50_s on csp3-parity"),
    ("solver.pair_yield", "ratio", "higher",
     "op_p50_s and failures on csp3-parity (2*paired_m / clauses offered)"),
    ("reduction.side_s", "s", "lower", "op_p50_s on csp3-parity (small predicted share)"),
    ("reduction.sides", "count", "lower", "op_p50_s on csp3-parity"),
    ("approx_recovery.backend_s", "s", "lower",
     "op_p50_s on xor3-brute (dominant), cli-xor2 and csp3-parity"),
    ("approx_recovery.sdp_iters", "count", "lower", "op_p50_s on cli-xor2"),
    ("approx_recovery.brute_argmax_count", "count", "lower", "failures on xor3-brute"),
    ("approx_recovery.validate_s", "s", "lower", "op_p50_s on cli-xor2"),
    ("approx_recovery.round_s", "s", "lower", "op_p50_s on cli-xor2"),
    ("kikuchi.build_s", "s", "lower",
     "op_p50_s and peak_rss_mb on xor4-kikuchi (padded path) and csp3-parity (ell=k/2 path)"),
    ("kikuchi.vertices", "count", "lower",
     "op_p50_s and peak_rss_mb on xor4-kikuchi and csp3-parity"),
    ("kikuchi.nnz", "count", "lower",
     "op_p50_s and peak_rss_mb on xor4-kikuchi and csp3-parity"),
    ("kikuchi.norm_s", "s", "lower", "op_p50_s on the diagnostic xor4-refute only"),
    ("kikuchi.norm_gap", "ratio", "higher",
     "failures and delta_hat_p50 on the diagnostic xor4-refute (norm implied by delta_hat / exact norm - 1;"
     " < 0 is unsound)"),
    ("exact_rounding.majority_s", "s", "lower", "op_p50_s on cli-xor2 and csp3-parity"),
    ("exact_rounding.votes", "count", "lower", "op_p50_s on cli-xor2 and csp3-parity"),
    ("cli.self_s", "s", "lower", "op_p50_s on cli-xor2"),
    ("op.wall_s", "s", "lower", "traced op wall time; the layer self times above plus op.unattributed_s"),
    ("op.unattributed_s", "s", "lower", "op time spent outside every wrapped call"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced op median in the same run"),
]

PER_LAYER_NAMES = [name for name, _, _, _ in PER_LAYER]
