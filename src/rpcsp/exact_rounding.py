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
    votes = cleaned.rhs * cleaned.clause_products(x_tilde)
    # Sums of at most m*k unit weights: integers, exact in float64. They are
    # summed one scope column of 2^16 clauses at a time, so the copies
    # bincount makes of a column and its weights stay at 1 MB.
    total = np.zeros(inst.n + 1)
    step = 1 << 16
    for lo in range(0, cleaned.m, step):
        for col in cleaned.scopes[lo:lo + step].T:
            total += np.bincount(col, weights=votes[lo:lo + step], minlength=inst.n + 1)
    sums = x_tilde * total[1:].astype(np.int64)
    counts = np.bincount(cleaned.scopes.ravel(), minlength=inst.n + 1)[1:]
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
