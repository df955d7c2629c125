"""Majority-vote correction of an approximate assignment.

Every distinct-entry clause C containing variable i casts one vote for x_i,
namely rhs(C) times the product of the approximate assignment over C minus i.
A variable with an approximately correct neighborhood therefore sees a
majority of votes equal to its planted value; ties and variables with no
votes resolve to +1. Negating the assignment multiplies every vote by
(-1)^(k+1), so one tally serves both signings, and for odd k they coincide.
"""
from __future__ import annotations

import numpy as np

from .instances import Assignment, XorInstance, clean, validate_assignment


def _tally(inst: XorInstance, x_tilde: Assignment):
    """Per-variable vote sums and vote counts, and the fraction of clauses dropped.

    A distinct-entry clause's vote rhs * prod_{j != i} x_j equals
    rhs * prod_j x_j * x_i, so x_i factors out of variable i's vote sum.
    At arity 1 the vote is the clause's rhs whatever x_tilde is.
    """
    x_tilde = validate_assignment(x_tilde, inst.n)
    cleaned, dropped = clean(inst)
    flat = cleaned.scopes.ravel()
    full = np.repeat(cleaned.rhs * cleaned.clause_products(x_tilde), inst.k)
    # Sums of at most m*k unit weights: integers, exact in float64.
    sums = np.bincount(flat, weights=full, minlength=inst.n + 1)[1:].astype(np.int64)
    return x_tilde * sums, np.bincount(flat, minlength=inst.n + 1)[1:], dropped


def _round(sums: np.ndarray, counts: np.ndarray, dropped: float):
    out = np.where(sums >= 0, 1, -1).astype(np.int8)
    covered = counts > 0
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
    return _round(*_tally(inst, x_tilde))


def majority_round_signed(inst: XorInstance, x_tilde: Assignment):
    """majority_round_detail from x_tilde and from -x_tilde; for odd k one pair twice."""
    sums, counts, dropped = _tally(inst, x_tilde)
    plus = _round(sums, counts, dropped)
    return plus, plus if inst.k % 2 else _round(-sums, counts, dropped)


def majority_round(inst: XorInstance, x_tilde: Assignment) -> Assignment:
    return majority_round_detail(inst, x_tilde)[0]
