"""End-to-end solvers for planted noisy XOR and planted CSP instances.

The XOR solver splits the clause list in half: the first half feeds a
pseudo-expectation backend whose rounding gives an approximate assignment
x_hat (up to a global sign), and one majority round on the second half
corrects x_hat. The round from -x_hat is not tried: for odd k it casts the
same votes, and for even k it is the negated round off tied variables, of
the same value, since negation leaves every even-arity XOR value unchanged.
Arity 1 is plain per-variable majority; for odd arities the non-brute
backends run on the first half's clauses paired into arity 2k.

The CSP solver projects the instance onto XOR instances over position
subsets (smallest subsets first), solves each side, and returns the first
candidate that satisfies every clause.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .approx_recovery import (
    BackendChoice,
    round_even_detail,
    round_odd,
    solve_pseudo_expectation,
)
from .errors import ParameterError
from .exact_rounding import majority_round_detail
from .fourier import distribution_complexity, fourier_table, subsets_by_size
from .instances import (
    Assignment,
    CspInstance,
    PlantingDistribution,
    XorInstance,
    clean,
    csp_values,
    validate_assignment,
    value,
)
from .kikuchi import check_level
from .rng import STREAM_PAIRING, cell_seed, check_seed, derived_rng


@dataclass
class SolveReport:
    output: Assignment
    candidates: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    matched_planted: bool | None = None


def pair_to_even(inst: XorInstance, seed: int) -> XorInstance:
    """Pair clauses with disjoint variable sets into arity-2k clauses.

    Clauses with repeated entries are dropped first (clean in build_kikuchi
    would drop their pairings anyway). Pairing then runs in rounds:
    each round shuffles the clauses still unpaired with the seeded stream,
    pairs the first half with the second half position by position, and
    keeps the pairs whose scopes share no variable. The clauses of rejected
    pairs, and the odd one out, go on to the next round. Pairing stops when
    a round keeps no pair or fewer than two clauses are left; the rest are
    dropped. The paired rhs is the product of the two rhs values, so a
    corruption rate of 1/2 - eps composes to 1/2 - 2*eps^2.
    """
    if 2 * inst.k > inst.n:
        raise ParameterError("pairing needs n >= 2k for disjoint scopes")
    base, _ = clean(inst)
    rng = derived_rng(check_seed(seed), STREAM_PAIRING)
    left = np.arange(base.m)
    firsts, seconds = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    while len(left) >= 2:
        left = rng.permutation(left)
        h = len(left) // 2
        a, b = left[:h], left[h:2 * h]
        sa, sb = base.scopes[a], base.scopes[b]
        ok = ~(sa[:, :, None] == sb[:, None, :]).any(axis=(1, 2))
        if not ok.any():
            break
        firsts.append(a[ok])
        seconds.append(b[ok])
        left = np.concatenate([a[~ok], b[~ok], left[2 * h:]])
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    scopes = np.concatenate([base.scopes[first], base.scopes[second]], axis=1)
    rhs = (base.rhs[first].astype(np.int64) * base.rhs[second]).astype(np.int8)
    return XorInstance(inst.n, 2 * inst.k, scopes, rhs)


def default_ell(k: int) -> int:
    """solve_xor's Kikuchi level when none is given: half the stage-1 arity (2k if k is odd)."""
    return k // 2 if k % 2 == 0 else k


def _slice(inst: XorInstance, lo: int, hi: int) -> XorInstance:
    return XorInstance(inst.n, inst.k, inst.scopes[lo:hi], inst.rhs[lo:hi])


def solve_xor(
    inst: XorInstance,
    ell: int | None,
    backend: BackendChoice,
    seed: int,
    planted: Assignment | None = None,
) -> SolveReport:
    """Two-stage recovery; see the module docstring.

    ell is the Kikuchi level for the kikuchi_spectral backend; None picks
    default_ell(k). For odd k with a non-brute backend the stage-1 instance
    is the paired arity-2k instance, and the backend preconditions apply to it.
    """
    if inst.m == 0:
        raise ParameterError("cannot solve an empty instance")
    if ell is not None and ell < 1:
        raise ParameterError("ell must be >= 1")
    seed = check_seed(seed)
    stats: dict = {"n": inst.n, "k": inst.k, "m": inst.m, "backend": backend.kind}

    if inst.k == 1:
        # An arity-1 vote is the clause's rhs whatever the assignment voted from.
        h2, x_hat = inst, np.ones(inst.n, dtype=np.int8)
    else:
        h1_size = (inst.m + 1) // 2
        h1 = _slice(inst, 0, h1_size)
        h2 = _slice(inst, h1_size, inst.m)
        stats["split"] = [h1.m, h2.m]

        stage1 = h1
        paired = inst.k % 2 == 1 and backend.kind != "brute"
        if paired:
            stage1 = pair_to_even(h1, seed)
            if stage1.m == 0:
                raise ParameterError("pairing produced no clauses; too few or overlapping scopes")
            stats["paired_m"] = stage1.m
        stats["paired"] = paired

        pe = solve_pseudo_expectation(stage1, backend, seed, ell)
        stats["backend_info"] = dict(pe.info)

        if backend.kind == "brute" and inst.k % 2 == 1:
            x_hat = round_odd(pe)
            stats["stage1_rounding"] = "first_moment_sign"
        else:
            x_hat, deltas, i_star = round_even_detail(pe)
            stats["stage1_rounding"] = "row_consensus"
            stats["delta_istar"] = float(deltas[i_star])
        stats["stage1_signs"] = x_hat.copy()

    # An empty h2 casts no vote, so the round returns x_hat unchanged.
    out, info = majority_round_detail(h2, x_hat)
    stats["majority"] = info
    stats["value"] = value(inst, out)
    report = SolveReport(out, candidates=[out], stats=stats)

    if planted is not None:
        planted = validate_assignment(planted, inst.n)
        exact = bool((report.output == planted).all())
        if inst.k % 2 == 0:
            exact = exact or bool((report.output == -planted).all())
        report.matched_planted = exact
    return report


def solve_csp(
    psi: CspInstance,
    ell: int | None,
    backend: BackendChoice,
    seed: int,
    q: PlantingDistribution | None = None,
    planted: Assignment | None = None,
) -> SolveReport:
    """Reduce to XOR over position subsets and return a satisfying assignment.

    Subsets are tried smallest-first (then lexicographically), positive sign
    before negative, and each sub-solve output is checked together with its
    negation; the first candidate of value 1 is returned. If none reaches
    value 1 the best candidate is returned with stats["no_perfect_candidate"]
    set. Passing the planting distribution q switches to the fast path that
    tries the distribution-complexity witness with its coefficient sign
    first; if neither of its candidates has value 1, the remaining tasks
    follow in the usual order. A kikuchi_spectral ell, which reaches only the
    full side, is checked against that side's lift before any side runs.
    """
    if psi.m == 0:
        raise ParameterError("cannot solve an empty instance")
    if ell is not None and ell < 1:
        raise ParameterError("ell must be >= 1")
    seed = check_seed(seed)
    if planted is not None:
        planted = validate_assignment(planted, psi.n)
    k = psi.k
    stats: dict = {"n": psi.n, "k": k, "m": psi.m, "backend": backend.kind}
    candidates: list[Assignment] = []

    if psi.predicate.trivial:
        stats["trivial_predicate"] = True
        best_val, best = 1.0, np.ones(psi.n, dtype=np.int8)
    else:
        if backend.kind == "kikuchi_spectral" and ell is not None and k >= 2:
            # ell reaches only the full side, lifted at arity 2k when k is odd;
            # a level that side cannot take fails here, before any side runs.
            lift_k = 2 * k if k % 2 else k
            try:
                check_level(psi.n, lift_k, ell)
            except ParameterError as e:
                how = f"paired to arity {lift_k}" if k % 2 else "unpaired"
                raise ParameterError(f"the full side of this arity-{k} CSP is {how}: {e}") from e
        tasks = [(s, sign) for s in subsets_by_size(k) for sign in (1, -1)]
        if q is not None:
            r, witness = distribution_complexity(q)
            stats["complexity"] = r
            stats["fast_path"] = witness is not None
            if witness is not None:
                coeff = fourier_table(q).coefficient(witness)
                first = (tuple(sorted(witness)), 1 if coeff >= 0 else -1)
                tasks = [first] + [t for t in tasks if t != first]

        from .reduction import build_xor_side

        # At most 2(2^k - 1) tasks of two candidates each: fewer than 2^(k+2).
        task_log: list[dict] = []
        best_val, best = -1.0, None
        for ti, (s, sign) in enumerate(tasks):
            side = build_xor_side(psi, s, sign)
            sub_ell = ell if len(s) == k else None
            rep = solve_xor(side, sub_ell, backend, cell_seed(seed, "csp_task", ti))
            # The level this side's Kikuchi backend ran at; None for other sides.
            entry = {"s": list(s), "sign": sign,
                     "ell": rep.stats.get("backend_info", {}).get("ell"), "values": []}
            task_log.append(entry)
            for cand, v in zip((rep.output, -rep.output), csp_values(psi, rep.output)):
                candidates.append(cand)
                entry["values"].append(v)
                if v > best_val:
                    best_val, best = v, cand
                if v == 1.0:
                    break
            if best_val == 1.0:
                break
        stats["tasks"] = task_log

    stats["value"] = best_val
    stats["no_perfect_candidate"] = best_val < 1.0
    report = SolveReport(best, candidates=candidates, stats=stats)
    if planted is not None:
        report.matched_planted = bool((best == planted).all())
    return report
