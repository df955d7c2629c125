"""Majority-vote correction of an approximate assignment.

Every distinct-entry clause C containing variable i casts one vote for x_i,
namely rhs(C) times the product of the approximate assignment over C minus i.
A variable with an approximately correct neighborhood therefore sees a
majority of votes equal to its planted value; ties resolve to +1.

A variable with no vote resolves to +1 in majority_round and
majority_round_detail. majority_round_signed, the second stage of
solve_xor, has a better guess for it: the sign the approximate assignment
gave it, which the vote would otherwise overwrite for no reason. Negating the
assignment multiplies every vote by (-1)^(k+1), so one tally serves both
signings. For even k the negated signing keeps -x_tilde on its unvoted
variables; for odd k the two signings coincide, unvoted variables included,
and both keep x_tilde.
"""
from __future__ import annotations

import numpy as np

from .instances import Assignment, XorInstance, clean, validate_assignment


def _tally(inst: XorInstance, x_tilde: Assignment):
    """Per-variable vote sums and vote counts, and the fraction of clauses dropped.

    A distinct-entry clause's vote rhs * prod_{j != i} x_j equals
    rhs * prod_j x_j * x_i, so x_i factors out of variable i's vote sum.
    At arity 1 the vote is the clause's rhs whatever x_tilde is. x_tilde
    must already be validated.
    """
    cleaned, dropped = clean(inst)
    flat = cleaned.scopes.ravel()
    full = np.repeat(cleaned.rhs * cleaned.clause_products(x_tilde), inst.k)
    # Sums of at most m*k unit weights: integers, exact in float64.
    sums = np.bincount(flat, weights=full, minlength=inst.n + 1)[1:].astype(np.int64)
    return x_tilde * sums, np.bincount(flat, minlength=inst.n + 1)[1:], dropped


def _round(sums: np.ndarray, counts: np.ndarray, dropped: float, unvoted=1):
    """Majority signs, with unvoted (a scalar or per-variable signs) where no vote was cast."""
    covered = counts > 0
    out = np.where(covered, np.where(sums >= 0, 1, -1), unvoted).astype(np.int8)
    return out, {
        "empty_votes": int((~covered).sum()),
        "tied_votes": int(((sums == 0) & covered).sum()),
        "min_margin": int(np.abs(sums[covered]).min()) if covered.any() else 0,
        "mean_agreement": float((sums[covered] * out[covered]).sum() / counts[covered].sum())
        if covered.any() else 0.0,
        "dropped_fraction": dropped,
    }


def majority_round_detail(inst: XorInstance, x_tilde: Assignment):
    """Vectorized majority vote; returns (assignment, diagnostics dict)."""
    return _round(*_tally(inst, validate_assignment(x_tilde, inst.n)))


def majority_round_signed(inst: XorInstance, x_tilde: Assignment):
    """Majority rounds from x_tilde and from -x_tilde; for odd k one pair twice.

    As majority_round_detail, except that a variable with no vote keeps its
    sign in the assignment voted from (x_tilde, or -x_tilde for even k).
    """
    x_tilde = validate_assignment(x_tilde, inst.n)
    sums, counts, dropped = _tally(inst, x_tilde)
    plus = _round(sums, counts, dropped, x_tilde)
    return plus, plus if inst.k % 2 else _round(-sums, counts, dropped, -x_tilde)


def majority_round(inst: XorInstance, x_tilde: Assignment) -> Assignment:
    return majority_round_detail(inst, x_tilde)[0]
