"""Correctness checks on op outputs, written apart from the program's code.

Each check recomputes what it needs from the op's input with its own numpy
code, so a wrong result from the program cannot also make its check pass.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# A certificate may sit below the exact one by float noise in eigvalsh, never
# by the power-iteration slack that refute_report claims to cover.
CERT_RTOL = 1e-9


def matches(output, x_star) -> bool:
    return np.array_equal(np.asarray(output), x_star)


def matches_up_to_sign(output, x_star) -> bool:
    return matches(output, x_star) or matches(output, -x_star)


def csp_value(scopes, negations, table, x) -> float:
    """Fraction of clauses whose literal pattern the truth table accepts."""
    lits = negations * np.asarray(x)[scopes - 1]
    idx = ((lits < 0).astype(np.int64) << np.arange(scopes.shape[1])).sum(axis=1)
    return float(np.asarray(table)[idx].mean())


def _colex_ranks(subsets: np.ndarray, n: int) -> np.ndarray:
    """Colex rank sum_j C(s_j, j) of sorted 0-based subsets on the last axis."""
    size = subsets.shape[-1]
    binom = np.array([[comb(v, r) for r in range(1, size + 1)] for v in range(n)], dtype=np.int64)
    return binom[subsets, np.arange(size)].sum(axis=-1)


def kikuchi_reference(n: int, scopes: np.ndarray, rhs: np.ndarray, ell: int):
    """Sparse level-ell Kikuchi matrix of an even-arity XOR instance.

    Rows and columns are the ell-subsets of [n] in colex order. Each clause
    with distinct entries, as a set C, adds its rhs at (S, T) for every split
    of C into halves A, B and every pad W outside C of size ell - k/2, with
    S = A + W and T = B + W. Returns (CSR matrix with int64 entries, clauses
    dropped for repeats).
    """
    k = scopes.shape[1]
    sets = np.sort(scopes - 1, axis=1)
    keep = np.all(sets[:, 1:] != sets[:, :-1], axis=1)
    sets, signs = sets[keep], rhs[keep].astype(np.int64)
    dim = comb(n, ell)
    dropped = int((~keep).sum())
    if len(sets) == 0:
        return sp.csr_matrix((dim, dim), dtype=np.int64), dropped
    outside = np.ones((len(sets), n), dtype=bool)
    np.put_along_axis(outside, sets, False, axis=1)
    complement = np.nonzero(outside)[1].reshape(len(sets), n - k)
    pads = np.array(list(combinations(range(n - k), ell - k // 2)), dtype=np.int64)
    pads = pads.reshape(len(pads), ell - k // 2)
    w = complement[:, pads]  # (clauses, pad choices, pad size)
    rows, cols = [], []
    for half in combinations(range(k), k // 2):
        rest = [j for j in range(k) if j not in half]
        a = np.broadcast_to(sets[:, None, list(half)], w.shape[:2] + (k // 2,))
        b = np.broadcast_to(sets[:, None, rest], w.shape[:2] + (k // 2,))
        s = _colex_ranks(np.sort(np.concatenate([a, w], axis=2), axis=2), n)
        t = _colex_ranks(np.sort(np.concatenate([b, w], axis=2), axis=2), n)
        rows.append(s.ravel())
        cols.append(t.ravel())
    data = np.tile(np.repeat(signs, w.shape[1]), len(rows))
    mat = sp.coo_matrix((data, (np.concatenate(rows), np.concatenate(cols))),
                        shape=(dim, dim)).tocsr()  # sums repeated entries
    mat.eliminate_zeros()
    return mat, dropped


def kikuchi_matches(kik, n: int, scopes: np.ndarray, rhs: np.ndarray, ell: int) -> bool:
    """True if a program-built KikuchiMatrix equals the reference, entry by entry."""
    ref, dropped = kikuchi_reference(n, scopes, rhs, ell)
    k = scopes.shape[1]
    return (kik.num_vertices == ref.shape[0]
            and kik.matrix.shape == ref.shape
            and kik.dropped_clauses == dropped
            and kik.used_clauses == len(rhs) - dropped
            and kik.pairs_per_clause == comb(k, k // 2) * comb(n - k, ell - k // 2)
            and (kik.matrix != ref).nnz == 0)


def exact_certificate(n: int, scopes: np.ndarray, rhs: np.ndarray, ell: int):
    """The refutation certificate computed from the exact ||A||.

    The certificate is ||A|| * C(n, ell) / (m * D) + dropped / m, with D the
    entries each clause adds. Returns (certificate, dropped / m, nonzero
    count of A).
    """
    k = scopes.shape[1]
    ref, dropped = kikuchi_reference(n, scopes, rhs, ell)
    nnz = ref.nnz
    vals = scipy.linalg.eigvalsh(ref.toarray().astype(np.float64), overwrite_a=True,
                                 check_finite=False, driver="evr")
    norm = float(max(abs(vals[0]), abs(vals[-1])))
    m = len(rhs)
    pairs = comb(k, k // 2) * comb(n - k, ell - k // 2)
    return norm * comb(n, ell) / (m * pairs) + dropped / m, dropped / m, nnz


def certificate_sound(delta_hat: float, exact: float) -> bool:
    return delta_hat >= exact * (1.0 - CERT_RTOL)


def norm_gap(delta_hat: float, exact: float, dropped: float) -> float:
    """Norm implied by delta_hat over the exact norm, minus 1; < 0 is unsound."""
    return (delta_hat - dropped) / (exact - dropped) - 1.0
