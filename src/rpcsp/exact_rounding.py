"""Majority-vote correction of an approximate assignment.

Every distinct-entry clause C containing variable i casts one vote for x_i,
namely rhs(C) times the product of the approximate assignment over C minus i.
A variable with an approximately correct neighborhood therefore sees a
majority of votes equal to its planted value; ties and variables with no
votes resolve to +1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .instances import Assignment, Scope, XorInstance, clean, validate_assignment


@dataclass
class CoHyperedgeIndex:
    """Per-variable vote lists: entries are (co-scope, rhs) pairs."""

    n: int
    k: int
    lists: list

    def votes(self, i: int, x_tilde: Assignment) -> np.ndarray:
        """Vote multiset for variable i under the approximate assignment."""
        x = np.asarray(x_tilde)
        out = np.empty(len(self.lists[i - 1]), dtype=np.int8)
        for t, (co, b) in enumerate(self.lists[i - 1]):
            prod = 1
            for j in co.indices:
                prod *= int(x[j - 1])
            out[t] = b * prod
        return out


def build_cohyperedges(inst: XorInstance) -> CoHyperedgeIndex:
    """Materialized index over the distinct-entry clauses of inst."""
    if inst.k < 2:
        raise ParameterError("co-hyperedges need arity >= 2")
    cleaned, _ = clean(inst)
    lists: list[list] = [[] for _ in range(inst.n)]
    for row, b in zip(cleaned.scopes, cleaned.rhs):
        indices = tuple(int(v) for v in row)
        for pos, i in enumerate(indices):
            co = Scope(indices[:pos] + indices[pos + 1 :])
            lists[i - 1].append((co, int(b)))
    return CoHyperedgeIndex(inst.n, inst.k, lists)


def majority_round_detail(inst: XorInstance, x_tilde: Assignment):
    """Vectorized majority vote; returns (assignment, diagnostics dict).

    Algebraically identical to voting through build_cohyperedges: for a
    distinct-entry clause, rhs * prod_{j != i} x_j = rhs * prod_j x_j * x_i.
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
