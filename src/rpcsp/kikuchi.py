"""Kikuchi lift of an even-arity XOR instance and the spectral certificate.

Vertices are the l-subsets of [n] in colex rank order. A clause with distinct
entries, flattened to a set C, connects S and T whenever S xor T = C; each
clause produces exactly

    D = C(k, k/2) * C(n-k, l-k/2)

stored entries of the full symmetric matrix (ordered pairs), all carrying the
clause's rhs. Duplicate clause-sets accumulate additively.

For z_S = prod_{i in S} x_i the quadratic form collapses to

    z^T A z = D * sum_{C in H'} b_C x_C,

so ||A|| * C(n,l) / (m * D), plus the fraction of dropped (repeated-entry)
clauses, upper-bounds max_x over the full instance of the mean signed clause
value. That bound is what refutation_certificate returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConvergenceError,
    FormatError,
    ParameterError,
    ResourceLimitError,
    UnsupportedConfigError,
)
from .instances import Assignment, XorInstance, atomic_write_bytes, clean, validate_assignment
from .rng import STREAM_SPECTRAL, check_seed, derived_rng

DEFAULT_VERTEX_CAP = 5_000_000


def _comb_table(n: int, ell: int) -> np.ndarray:
    """table[v, j] = C(v, j) for 0 <= v <= n, 0 <= j <= ell."""
    t = np.zeros((n + 1, ell + 1), dtype=np.int64)
    t[:, 0] = 1
    for v in range(1, n + 1):
        for j in range(1, ell + 1):
            t[v, j] = t[v - 1, j] + t[v - 1, j - 1]
    return t


def subset_rank(elems: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Colex rank of sorted 0-based subsets; elems is (..., l)."""
    ell = elems.shape[-1]
    j = np.arange(1, ell + 1)
    return table[elems, j].sum(axis=-1)


def _vertex_count(n: int, ell: int, cap: int) -> int:
    """C(n, ell), or ResourceLimitError if it exceeds cap.

    C(n, j) grows with j up to min(ell, n - ell), so the running product stops
    as soon as it passes cap and never builds a huge integer.
    """
    count = 1
    for j in range(min(ell, n - ell)):
        if count > cap:
            break
        count = count * (n - j) // (j + 1)
    if count > cap:
        raise ResourceLimitError(f"C({n},{ell}) vertices exceed cap {cap}")
    return count


def all_subsets(n: int, ell: int) -> np.ndarray:
    """All l-subsets of {0..n-1} as a (C(n,l), l) array in colex order.

    Row r therefore has colex rank r. Colex order is lex order run backwards
    on the complemented elements n-1-e.
    """
    lex = np.array(list(combinations(range(n), ell)), dtype=np.int64).reshape(comb(n, ell), ell)
    return np.ascontiguousarray((n - 1 - lex[::-1])[:, ::-1])


def _union_rank(a: list, w: list, table: np.ndarray) -> np.ndarray:
    """Colex rank of the union of disjoint sorted sets A and W.

    a and w list the sets' elements by position, as broadcastable arrays. An
    element's position in the sorted union is its own index plus the number
    of smaller elements in the other set, so no per-row sort is needed.
    """
    width = table.shape[1]
    flat = table.ravel()
    rank = 0
    for part, other in ((a, w), (w, a)):
        for i, e in enumerate(part):
            pos = i + 1 + sum(o < e for o in other)
            rank = rank + flat.take(e * width + pos)
    return rank


@dataclass
class KikuchiMatrix:
    n: int
    ell: int
    k: int
    matrix: sp.csr_matrix
    pairs_per_clause: int
    num_vertices: int
    used_clauses: int
    dropped_clauses: int

    def parity_vector(self, x: Assignment) -> np.ndarray:
        """z with z_S = prod_{i in S} x_i, indexed by colex rank."""
        x = validate_assignment(x, self.n)
        return np.prod(x[all_subsets(self.n, self.ell)], axis=1, dtype=np.int8)

    def quadratic_form(self, x: Assignment) -> int:
        z = self.parity_vector(x).astype(np.int64)
        return int(z @ (self.matrix @ z))


def build_kikuchi(inst: XorInstance, ell: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> KikuchiMatrix:
    """Assemble the level-l matrix from the distinct-entry clauses of inst."""
    k = inst.k
    if k % 2 != 0:
        raise UnsupportedConfigError(f"Kikuchi lift needs even arity, got k={k}")
    if not (k // 2 <= ell <= inst.n):
        raise ParameterError(f"need k/2 <= ell <= n, got ell={ell}")
    if ell - k // 2 > inst.n - k:
        raise ParameterError("ell too large: clause complements cannot fill a vertex")
    num_vertices = _vertex_count(inst.n, ell, vertex_cap)
    cleaned, _ = clean(inst)
    pairs_per_clause = comb(k, k // 2) * comb(inst.n - k, ell - k // 2)

    table = _comb_table(inst.n, ell)
    # 0-based and sorted; int32 halves the per-entry element arrays gathered below.
    sets = (np.sort(cleaned.scopes, axis=1) - 1).astype(np.int32)
    # Equal sets are adjacent once sorted lexicographically; each run's rhs
    # sum is its weight. A set of weight 0 contributes only zero entries,
    # since S xor T fixes the clause set, so it is dropped here.
    order = np.lexsort(sets.T[::-1])
    sets = sets[order]
    new = np.ones(len(sets), dtype=bool)
    new[1:] = (sets[1:] != sets[:-1]).any(axis=1)
    weights = np.bincount(np.cumsum(new) - 1, weights=cleaned.rhs[order]).astype(np.int64)
    keep = weights != 0
    uniq, weights = sets[new][keep], weights[keep]

    # Every entry at once: S = A + W, T = B + W for each half split (A, B) of
    # each clause set and each pad W outside it, shaped (clause, split, pad).
    half = k // 2
    splits = np.array(list(combinations(range(k), half)), dtype=np.int64).reshape(-1, half)
    # Complementing a half reverses lex order, so B's positions are the splits backwards.
    rests = splits[::-1]
    pads = np.array(list(combinations(range(inst.n - k), ell - half)),
                    dtype=np.int64).reshape(comb(inst.n - k, ell - half), ell - half)
    # The p-th element outside a sorted set c is p + #{j : c_j - j <= p}.
    shift = (uniq - np.arange(k)).T
    w = [(p + (shift[:, :, None] <= p).sum(axis=0))[:, None] for p in pads.T]
    rows = _union_rank([uniq[:, j, None] for j in splits.T], w, table).ravel()
    cols = _union_rank([uniq[:, j, None] for j in rests.T], w, table).ravel()
    data = np.repeat(weights, len(splits) * len(pads))
    mat = sp.coo_matrix((data, (rows, cols)), shape=(num_vertices, num_vertices),
                        dtype=np.int64).tocsr()
    return KikuchiMatrix(inst.n, ell, k, mat, pairs_per_clause, num_vertices,
                         cleaned.m, inst.m - cleaned.m)


def spectral_norm(kik: KikuchiMatrix | sp.spmatrix, tol: float = 1e-3,
                  max_iters: int = 20000, seed: int = 0) -> float:
    """Largest singular value estimate by power iteration on A^2.

    The Rayleigh estimate ||A v|| never exceeds ||A|| and is monotone along
    the iteration, so at convergence it lies in [(1-tol)||A||, ||A||].
    Raises ConvergenceError (carrying the best estimate) if the iteration
    budget runs out.
    """
    if not (1e-8 < tol < 0.5):
        raise ParameterError("tol must lie in (1e-8, 0.5)")
    if max_iters < 1:
        raise ParameterError("max_iters must be >= 1")
    a = kik.matrix if isinstance(kik, KikuchiMatrix) else kik
    a = a.tocsr().astype(np.float64)
    if a.nnz == 0:
        return 0.0
    rng = derived_rng(check_seed(seed), STREAM_SPECTRAL)
    dim = a.shape[0]
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    stable = 0
    for it in range(1, max_iters + 1):
        w = a @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            continue
        y = a @ w
        ny = np.linalg.norm(y)
        if ny == 0.0:
            # w is in the kernel of A but lam = ||w|| > 0 cannot happen for
            # symmetric A with A v = w != 0; restart defensively.
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            continue
        v = y / ny
        if it >= 30 and lam > 0 and (lam - lam_prev) <= (tol / 8.0) * lam:
            stable += 1
            if stable >= 3:
                return lam
        else:
            stable = 0
        lam_prev = lam
    raise ConvergenceError(
        f"spectral norm estimate did not settle in {max_iters} iterations",
        best_estimate=lam_prev, iterations=max_iters,
    )


@dataclass
class RefutationReport:
    delta_hat: float
    spectral_estimate: float
    num_vertices: int
    pairs_per_clause: int
    used_clauses: int
    dropped_clauses: int
    nnz: int


def refute_report(inst: XorInstance, ell: int, tol: float = 1e-3,
                  max_iters: int = 20000, seed: int = 0,
                  vertex_cap: int = DEFAULT_VERTEX_CAP) -> RefutationReport:
    if inst.m == 0:
        raise ParameterError("cannot certify an empty instance")
    kik = build_kikuchi(inst, ell, vertex_cap=vertex_cap)
    lam = 0.0 if kik.matrix.nnz == 0 else spectral_norm(kik, tol=tol, max_iters=max_iters, seed=seed)
    # lam / (1 - tol) upper-bounds ||A|| at convergence, keeping the bound sound.
    dropped_frac = kik.dropped_clauses / inst.m
    delta = (lam / (1.0 - tol)) * kik.num_vertices / (inst.m * kik.pairs_per_clause) + dropped_frac
    return RefutationReport(
        delta_hat=float(delta),
        spectral_estimate=float(lam),
        num_vertices=kik.num_vertices,
        pairs_per_clause=kik.pairs_per_clause,
        used_clauses=kik.used_clauses,
        dropped_clauses=kik.dropped_clauses,
        nnz=int(kik.matrix.nnz),
    )


def refutation_certificate(inst: XorInstance, ell: int, tol: float = 1e-3,
                           max_iters: int = 20000, seed: int = 0,
                           vertex_cap: int = DEFAULT_VERTEX_CAP) -> float:
    """Certified upper bound on max_x of the mean signed clause value."""
    return refute_report(inst, ell, tol=tol, max_iters=max_iters, seed=seed,
                         vertex_cap=vertex_cap).delta_hat


# ---------------------------------------------------------------------------
# binary dump

_TRIPLE = np.dtype([("row", "<i8"), ("col", "<i8"), ("val", "<i4")])


def write_kikuchi_dump(kik: KikuchiMatrix, path: str):
    coo = kik.matrix.tocoo()
    if coo.data.size and np.abs(coo.data).max() > np.iinfo(np.int32).max:
        raise ParameterError("entry magnitude exceeds the 32-bit dump format")
    out = np.empty(coo.nnz, dtype=_TRIPLE)
    out["row"] = coo.row
    out["col"] = coo.col
    out["val"] = coo.data
    header = f"kik {kik.n} {kik.ell} {coo.nnz}\n".encode()
    atomic_write_bytes(path, header + out.tobytes())


def read_kikuchi_dump(path: str) -> tuple[int, int, sp.csr_matrix]:
    """Returns (n, ell, matrix); arity is not recorded in the format.

    A header with more than DEFAULT_VERTEX_CAP vertices raises
    ResourceLimitError, as build_kikuchi does.
    """
    with open(path, "rb") as f:
        header = f.readline().split()
        body = f.read()
    if len(header) != 4 or header[0] != b"kik":
        raise FormatError("expected header 'kik <n> <ell> <nnz>'")
    try:
        n, ell, nnz = (int(t) for t in header[1:])
    except ValueError as e:
        raise FormatError("bad kik header") from e
    if not (1 <= ell <= n and nnz >= 0):
        raise FormatError("kik header needs 1 <= ell <= n and nnz >= 0")
    dim = _vertex_count(n, ell, DEFAULT_VERTEX_CAP)  # before any array is built
    if len(body) != nnz * _TRIPLE.itemsize:
        raise FormatError(f"expected {nnz} triples, found {len(body)} bytes")
    triples = np.frombuffer(body, dtype=_TRIPLE)
    if nnz and (triples["row"].min() < 0 or triples["row"].max() >= dim
                or triples["col"].min() < 0 or triples["col"].max() >= dim):
        raise FormatError("vertex rank out of range")
    mat = sp.coo_matrix(
        (triples["val"].astype(np.int64), (triples["row"], triples["col"])),
        shape=(dim, dim),
    ).tocsr()
    return n, ell, mat
