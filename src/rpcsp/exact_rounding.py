"""Majority-vote correction of an approximate assignment.

Every distinct-entry clause C containing variable i casts one vote for x_i,
namely rhs(C) times the product of the approximate assignment over C minus i.
A variable with an approximately correct neighborhood therefore sees a
majority of votes equal to its planted value; ties and variables with no
votes resolve to +1.
"""
from __future__ import annotations

import numpy as np

from .instances import Assignment, XorInstance, clean, validate_assignment


def majority_round_detail(inst: XorInstance, x_tilde: Assignment):
    """Vectorized majority vote; returns (assignment, diagnostics dict).

    For a distinct-entry clause, the vote rhs * prod_{j != i} x_j equals
    rhs * prod_j x_j * x_i, so every vote comes from one clause product.
    At arity 1 the vote is the clause's rhs whatever x_tilde is.
    """
    x_tilde = validate_assignment(x_tilde, inst.n)
    cleaned, dropped = clean(inst)
    sums = np.zeros(inst.n, dtype=np.int64)
    counts = np.zeros(inst.n, dtype=np.int64)
    if cleaned.m > 0:
        full = (cleaned.rhs.astype(np.int64) * cleaned.clause_products(x_tilde))
        votes = full[:, None] * x_tilde[cleaned.scopes - 1]
        flat = (cleaned.scopes - 1).ravel()
        np.add.at(sums, flat, votes.ravel())
        counts += np.bincount(flat, minlength=inst.n)
    out = np.where(sums >= 0, 1, -1).astype(np.int8)
    covered = counts > 0
    info = {
        "empty_votes": int((~covered).sum()),
        "tied_votes": int(((sums == 0) & covered).sum()),
        "min_margin": int(np.abs(sums[covered]).min()) if covered.any() else 0,
        "mean_agreement": float((sums[covered] * out[covered]).sum() / counts[covered].sum())
        if covered.any() else 0.0,
        "dropped_fraction": dropped,
    }
    return out, info


def majority_round(inst: XorInstance, x_tilde: Assignment) -> Assignment:
    out, _ = majority_round_detail(inst, x_tilde)
    return out
