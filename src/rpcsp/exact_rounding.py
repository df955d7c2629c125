"""Majority-vote correction of an approximate assignment.

Every distinct-entry clause C containing variable i casts one vote for x_i,
namely rhs(C) times the product of the approximate assignment over C minus i.
A variable with an approximately correct neighborhood therefore sees a
majority of votes equal to its planted value; ties resolve to +1, and a
variable with no vote keeps its sign in the assignment voted from, which
the vote would otherwise overwrite for no reason.

One round from x_tilde is all solve_xor needs; a second from -x_tilde would
add nothing. Negating the assignment multiplies every vote by (-1)^(k+1).
For odd k the two rounds are the same round. For even k the round from
-x_tilde is the round from x_tilde negated on every variable but the tied
ones (an unvoted variable keeps its sign, so it negates too), and negating
an assignment leaves every even-arity XOR value unchanged.
"""
from __future__ import annotations

import numpy as np

from .instances import Assignment, XorInstance, clean, validate_assignment


def majority_round_detail(inst: XorInstance, x_tilde: Assignment):
    """Vectorized majority vote; returns (assignment, diagnostics dict).

    A distinct-entry clause's vote rhs * prod_{j != i} x_j equals
    rhs * prod_j x_j * x_i, so x_i factors out of variable i's vote sum.
    At arity 1 the vote is the clause's rhs whatever x_tilde is.
    """
    x_tilde = validate_assignment(x_tilde, inst.n)
    cleaned, dropped = clean(inst)
    flat = cleaned.scopes.ravel()
    full = np.repeat(cleaned.rhs * cleaned.clause_products(x_tilde), inst.k)
    # Sums of at most m*k unit weights: integers, exact in float64.
    sums = x_tilde * np.bincount(flat, weights=full, minlength=inst.n + 1)[1:].astype(np.int64)
    counts = np.bincount(flat, minlength=inst.n + 1)[1:]
    covered = counts > 0
    out = np.where(covered, np.where(sums >= 0, 1, -1), x_tilde).astype(np.int8)
    return out, {
        "empty_votes": int((~covered).sum()),
        "tied_votes": int(((sums == 0) & covered).sum()),
        "min_margin": int(np.abs(sums[covered]).min()) if covered.any() else 0,
        "mean_agreement": float((sums[covered] * out[covered]).sum() / counts[covered].sum())
        if covered.any() else 0.0,
        "dropped_fraction": dropped,
    }


def majority_round(inst: XorInstance, x_tilde: Assignment) -> Assignment:
    return majority_round_detail(inst, x_tilde)[0]
