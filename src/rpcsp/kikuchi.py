"""Kikuchi lift of an even-arity XOR instance and the spectral certificate.

Vertices are the l-subsets of [n] in colex rank order. A clause with distinct
entries, flattened to a set C, connects S and T whenever S xor T = C; each
clause produces exactly

    D = C(k, k/2) * C(n-k, l-k/2)

stored entries of the full symmetric matrix (ordered pairs), all carrying the
clause's rhs. Duplicate clause-sets accumulate additively.

build_kikuchi sorts each clause set with a compare-exchange network and keys
it by one int64, its colex rank among the k-subsets, so one argsort groups
the copies of a set and one bincount sums their rhs. Each surviving set then
emits its D entries at once: row rank S = A + W and column rank T = B + W
for each half split (A, B) and pad W outside the set, both enumerated in
colex order. No (S, T) arises twice, because (set, split, pad) -> (S, T) is
injective: C = S xor T, then A = S & C and W = S - C. So nothing is summed
or sorted: one counting pass puts the entries in rows, with each row's
columns in emission order, and a counting transpose sorts them; A is
symmetric, so the transpose's arrays are the sorted CSR of A. Ranks are
int32, the CSR's index type, as C(n, l) <= DEFAULT_VERTEX_CAP < 2^31. Entries
are float64, the type Lanczos multiplies with, so no caller copies the
matrix; each is an integer rhs sum below DEFAULT_ENTRY_CAP in magnitude, exact
in float64. DEFAULT_ENTRY_CAP bounds used clauses times D before any
per-entry array exists.

For z_S = prod_{i in S} x_i the quadratic form collapses to

    z^T A z = D * sum_{C in H'} b_C x_C,

so ||A|| * C(n,l) / (m * D), plus the fraction of dropped (repeated-entry)
clauses, upper-bounds max_x over the full instance of the mean signed clause
value. refutation_certificate returns it with ||A|| bounded by randomized
Lanczos on A^2, so it holds except with probability FAILURE_PROB per call.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, log, sqrt

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .errors import ParameterError, ResourceLimitError, UnsupportedConfigError
from .instances import Assignment, XorInstance, clean, validate_assignment
from .rng import STREAM_SPECTRAL, check_seed, derived_rng

# The most vertices, C(n, l), that build_kikuchi accepts.
# It is below 2^31, so every vertex rank fits the int32 indices CSR keeps.
DEFAULT_VERTEX_CAP = 5_000_000
# build_kikuchi peaks at about 15.5 traced bytes per stored entry and returns
# 12 (int32 index, float64 value), so the cap keeps a build under about 800 MB.
DEFAULT_ENTRY_CAP = 50_000_000
# Bytes of _lanczos's steps x dim float64 basis: 2^30 admits 200 steps (the
# kikuchi_spectral default) to 671,088 vertices, the certificate to 571,139.
DEFAULT_BASIS_BYTES = 1 << 30
# Relative accuracy of spectral_norm's estimate of ||A||, and the chance, over
# the random Lanczos start, that it misses it: the two fix the step count.
CERT_TOL = 1e-3
FAILURE_PROB = 1e-6
# A residual-stopped _lanczos run tests its Ritz residual every this many steps.
RITZ_STRIDE = 4


def _comb_table(n: int, ell: int, dtype=np.int64) -> np.ndarray:
    """table[v, j] = C(v, j) for 0 <= v <= n, 0 <= j <= ell, capped at dtype's max.

    A colex rank reads only terms no larger than itself, so a rank that fits
    dtype never reads a capped entry.
    """
    top = np.iinfo(dtype).max
    return np.array([[min(comb(v, j), top) for j in range(ell + 1)] for v in range(n + 1)],
                    dtype=dtype)


def subset_rank(elems: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Colex rank of sorted 0-based subsets; elems is (..., l)."""
    ell = elems.shape[-1]
    j = np.arange(1, ell + 1)
    return table[elems, j].sum(axis=-1)


def _vertex_count(n: int, ell: int) -> int:
    """C(n, ell), or ResourceLimitError if it exceeds DEFAULT_VERTEX_CAP.

    C(n, j) grows with j up to min(ell, n - ell), so the running product stops
    as soon as it passes the cap and never builds a huge integer.
    """
    count = 1
    for j in range(min(ell, n - ell)):
        if count > DEFAULT_VERTEX_CAP:
            break
        count = count * (n - j) // (j + 1)
    if count > DEFAULT_VERTEX_CAP:
        raise ResourceLimitError(f"C({n},{ell}) vertices exceed cap {DEFAULT_VERTEX_CAP}")
    return count


def all_subsets(n: int, ell: int) -> np.ndarray:
    """All l-subsets of {0..n-1} as a (C(n,l), l) sorted-row array in colex order.

    Row r therefore has colex rank r. The table is built level by level from
    the empty set: the j-subsets with largest element e hold colex ranks
    C(e, j) .. C(e + 1, j) - 1, and they are the first C(e, j - 1) rows of the
    level-(j - 1) table with e appended. Above l = n/2 the levels would pass
    through C(n, n/2) rows, so the rows are instead the complements of the
    (n - l)-subsets, read backwards: complementing reverses colex order.
    """
    if 2 * ell > n:
        comp = all_subsets(n, n - ell)
        keep = np.ones((len(comp), n), dtype=bool)
        keep[np.arange(len(comp))[:, None], comp] = False
        return np.nonzero(keep[::-1])[1].reshape(-1, ell)
    subs = np.zeros((1, 0), dtype=np.int64)
    for j in range(1, ell + 1):
        top = np.arange(j - 1, n)
        counts = np.array([comb(int(e), j - 1) for e in top], dtype=np.int64)
        last = np.repeat(top, counts)
        prefix = np.arange(len(last)) - np.repeat(np.cumsum(counts) - counts, counts)
        subs = np.column_stack((subs[prefix], last))
    return subs


def _union_rank(a: list, w: list, table: np.ndarray) -> np.ndarray:
    """Colex rank of the union of disjoint sorted sets A and W, in table's dtype.

    a and w list the sets' elements by position, as broadcastable arrays of
    table's dtype. An element's position in the sorted union is its own index
    plus the number of smaller elements in the other set. W is sorted, so the
    W_t above A_i are a final run of t, and A_i's term telescopes over it:

        C(A_i, i+1+#{W_t < A_i}) = C(A_i, i+1+|W|)
            - sum_t [A_i < W_t] (C(A_i, i+2+t) - C(A_i, i+1+t)),

    and likewise W_t's term is C(W_t, t+1) plus, over the A_i below it, the
    steps C(W_t, t+2+i) - C(W_t, t+1+i). Every table read is on an operand's
    own shape; per (i, t) pair the full shape sees one comparison, one
    subtraction and one masked add into reused buffers. Some reads land on
    capped table cells. The telescoped identity holds whatever values the
    cells hold, so under the wrapping integer arithmetic such values cancel
    exactly modulo 2^32 (for int32); the true rank is below 2^31, so the
    wrapped sum is the rank.
    """
    rank = np.empty(np.broadcast_shapes(*(e.shape for e in a + w)), dtype=table.dtype)
    abase = sum(table[e, i + 1 + len(w)] for i, e in enumerate(a))
    wbase = sum(table[e, t + 1] for t, e in enumerate(w))
    np.add(abase, wbase, out=rank)
    if a and w:
        below, step = np.empty(rank.shape, dtype=bool), np.empty_like(rank)
        for i, ai in enumerate(a):
            for t, wt in enumerate(w):
                np.less(ai, wt, out=below)
                np.subtract(table[wt, t + 2 + i] - table[wt, t + 1 + i],
                            table[ai, i + 2 + t] - table[ai, i + 1 + t], out=step)
                np.add(rank, step, out=rank, where=below)
    return rank


def _network_sort(sets: np.ndarray) -> np.ndarray:
    """Sorts a (k, m) array along axis 0 in place, by compare-exchange.

    Odd-even transposition: k rounds of compare-exchanges between neighbouring
    rows sort any k values, one np.minimum and one np.maximum per pair.
    """
    k = len(sets)
    for r in range(k):
        for i in range(r % 2, k - 1, 2):
            lo = np.minimum(sets[i], sets[i + 1])
            np.maximum(sets[i], sets[i + 1], out=sets[i + 1])
            sets[i] = lo
    return sets


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

    def pair_gram(self, w: np.ndarray) -> np.ndarray:
        """U U^T as a dense n x n array, where U[i, R] = w_{R + i} for i outside R.

        Entry (i, j) sums w_S w_T over the C(n-2, l-1) vertex pairs with S - T = {i}
        and T - S = {j}; entry (i, i) sums w_S^2 over the S holding i. At l = 1 it is w w^T.
        U is a dense n x C(n, l-1) array, filled by one scatter per position p of
        the sorted subsets; (S, p) -> (S_p, S minus S_p) is one-to-one, so no cell
        is written twice. Dense, U takes fewer bytes than its l C(n, l) nonzeros
        would as (value, row, column) triples whenever l < 2n/3 + 1.
        """
        # Row r of all_subsets has colex rank r, so w is already indexed by subset.
        subs, table = all_subsets(self.n, self.ell), _comb_table(self.n, self.ell)
        u = np.zeros((self.n, comb(self.n, self.ell - 1)))
        for p in range(self.ell):
            u[subs[:, p], subset_rank(np.delete(subs, p, axis=1), table)] = w
        return u @ u.T

    def quadratic_form(self, x: Assignment) -> int:
        z = self.parity_vector(x)
        return int(z @ (self.matrix @ z))


def check_level(n: int, k: int, ell: int):
    """ParameterError unless ell is a level the arity-k lift over n variables has.

    UnsupportedConfigError first if k is odd: the lift needs even arity.
    """
    if k % 2 != 0:
        raise UnsupportedConfigError(f"Kikuchi lift needs even arity, got k={k}")
    if not (k // 2 <= ell <= n):
        raise ParameterError(f"need k/2 <= ell <= n, got ell={ell}")
    if ell - k // 2 > n - k:
        raise ParameterError("ell too large: clause complements cannot fill a vertex")


def build_kikuchi(inst: XorInstance, ell: int) -> KikuchiMatrix:
    """Assemble the level-l matrix from the distinct-entry clauses of inst."""
    k = inst.k
    check_level(inst.n, k, ell)
    num_vertices = _vertex_count(inst.n, ell)
    if comb(inst.n, k) > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"C({inst.n},{k}) clause-set keys exceed int64")
    cleaned, _ = clean(inst)
    pairs_per_clause = comb(k, k // 2) * comb(inst.n - k, ell - k // 2)
    if cleaned.m * pairs_per_clause > DEFAULT_ENTRY_CAP:
        raise ResourceLimitError(f"{cleaned.m} clauses x {pairs_per_clause} entries each "
                                 f"exceed the entry cap {DEFAULT_ENTRY_CAP}")

    # 0-based clause sets as the k rows of a (k, m) array, each column sorted.
    sets = _network_sort(np.array(cleaned.scopes.T, dtype=np.int32) - 1)
    # One int64 key per set, its colex rank among the k-subsets: equal keys
    # are equal sets, so one argsort puts each set's copies in one run, and
    # each run's rhs sum is its weight. A set of weight 0 contributes only
    # zero entries, since S xor T fixes the clause set, so it is dropped here.
    key = subset_rank(sets.T, _comb_table(inst.n, k))
    order = np.argsort(key)
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    weights = np.bincount(np.cumsum(new) - 1, weights=cleaned.rhs[order]).astype(np.int64)
    keep = weights != 0
    uniq, weights = sets[:, order[new][keep]], weights[keep]

    # Every entry at once: S = A + W, T = B + W for each half split (A, B) of
    # each clause set and each pad W outside it, shaped (clause, split, pad).
    half = k // 2
    splits = all_subsets(k, half)
    pads = all_subsets(inst.n - k, ell - half).astype(np.int32)
    # The p-th element outside a sorted set c is p + #{j : c_j - j <= p}.
    shift = uniq - np.arange(k, dtype=np.int32)[:, None]
    w = [(p + (shift[:, :, None] <= p).sum(axis=0, dtype=np.int32))[:, None] for p in pads.T]
    a = [uniq[j].T[:, :, None] for j in splits.T]
    ranks = _union_rank(a, w, _comb_table(inst.n, ell, np.int32))
    # Complementing a half reverses colex order, so B's split is A's read
    # backwards and the column ranks are the row ranks with the splits reversed.
    rows, cols = ranks.ravel(), ranks[:, ::-1].ravel()
    # Entries are stored in the narrowest signed type that holds every weight
    # and widened once the CSR exists.
    small = np.min_scalar_type(-1 - int(np.abs(weights).max(initial=0)))
    data = np.repeat(weights.astype(small), len(splits) * len(pads))
    # No entry repeats (see the module docstring), so the COO is marked
    # canonical and tocsr only counts the rows. tocsc, a counting transpose,
    # sorts each row's columns, and A is symmetric, so the CSC arrays are the
    # sorted CSR of A. A scipy that ignored the mark would sort in tocsr:
    # slower, but the same arrays.
    coo = sp.coo_matrix((data, (rows, cols)), shape=(num_vertices, num_vertices))
    coo.has_canonical_format = True
    mat = coo.tocsr()
    del coo, ranks, rows, cols, data  # freed before the transpose and the widening copy
    mat = mat.tocsc()
    mat = sp.csr_matrix((mat.data.astype(np.float64), mat.indices, mat.indptr),
                        shape=mat.shape)
    return KikuchiMatrix(inst.n, ell, k, mat, pairs_per_clause, num_vertices,
                         cleaned.m, inst.m - cleaned.m)


def _basis_rows(steps: int, dim: int) -> int:
    """Rows of _lanczos's basis, or ResourceLimitError if they exceed DEFAULT_BASIS_BYTES."""
    rows = min(steps, dim)
    if rows * dim * 8 > DEFAULT_BASIS_BYTES:
        raise ResourceLimitError(f"a {rows}-step Lanczos basis on {dim} vertices exceeds "
                                 f"the basis cap of {DEFAULT_BASIS_BYTES} bytes")
    return rows


def _lanczos(matvec, dim: int, v0: np.ndarray, steps: int, rtol: float):
    """Top eigenpair of a symmetric operator by Lanczos with full reorthogonalization.

    Returns (theta, y, steps_taken, residual): the largest Ritz value, its
    unit Ritz vector, the number of steps run and ||A y - theta y||. The run
    stops after min(steps, dim) steps, on breakdown (the Krylov space is
    invariant and theta is an eigenvalue), or once the residual is below
    rtol * |theta|; rtol = 0 runs every step. The residual needs the
    tridiagonal eigenproblem, so with rtol > 0 it is tested only every
    RITZ_STRIDE steps, at breakdown and at the cap: steps_taken is a multiple
    of RITZ_STRIDE, the cap or a breakdown, and a run that converges stops at
    most RITZ_STRIDE - 1 steps later than a test on every step would. A basis
    over DEFAULT_BASIS_BYTES raises ResourceLimitError before it is allocated.
    """
    basis = np.empty((_basis_rows(steps, dim), dim))
    alpha = np.zeros(len(basis))
    beta = np.zeros(len(basis))
    basis[0] = v0 / np.linalg.norm(v0)
    scale = 0.0
    for j in range(len(basis)):
        q = basis[: j + 1]
        w = matvec(q[j])
        alpha[j] = q[j] @ w
        for _ in range(2):  # Gram-Schmidt twice keeps q orthonormal to working precision
            w -= q.T @ (q @ w)
        beta[j] = np.linalg.norm(w)
        scale = max(scale, abs(alpha[j]) + beta[j])
        done = beta[j] <= 1e-12 * scale or j + 1 == len(basis)
        if done or (rtol > 0 and (j + 1) % RITZ_STRIDE == 0):
            theta, s = eigh_tridiagonal(alpha[: j + 1], beta[:j], select="i",
                                        select_range=(j, j))
            residual = float(beta[j] * abs(s[-1, 0]))
            if done or residual < rtol * abs(theta[0]):
                return float(theta[0]), q.T @ s[:, 0], j + 1, residual
        basis[j + 1] = w / beta[j]


def _certificate_steps(dim: int) -> int:
    """Lanczos steps on A^2 for accuracy CERT_TOL on dim vertices; see spectral_norm.

    Raises ResourceLimitError for a basis over DEFAULT_BASIS_BYTES.
    """
    eps = CERT_TOL * (2.0 - CERT_TOL)
    steps = ceil((log(1.648 * sqrt(dim) / FAILURE_PROB) / sqrt(eps) + 1) / 2)
    _basis_rows(steps, dim)
    return steps


def spectral_norm(a: sp.spmatrix, seed: int = 0) -> tuple[float, int, float]:
    """(||A|| estimate, Lanczos steps, residual on A^2) to relative accuracy CERT_TOL.

    Runs _lanczos on A^2 from a Gaussian start for a step count fixed in
    advance. By Kuczynski and Wozniakowski (SIAM J. Matrix
    Anal. Appl. 13(4), 1992), after j steps on a PSD matrix of order N the top
    Ritz value lies below (1 - eps) times the top eigenvalue with probability
    at most 1.648 sqrt(N) exp(-sqrt(eps) (2j - 1)). With tol = CERT_TOL and
    eps = tol (2 - tol) the returned sqrt(theta) is at least (1 - tol) ||A||;
    a Ritz value never exceeds the top eigenvalue. So with probability at
    least 1 - FAILURE_PROB the estimate lies in [(1 - tol) ||A||, ||A||] and
    estimate / (1 - tol) >= ||A||.
    """
    dim = a.shape[0]
    steps = _certificate_steps(dim)
    v0 = derived_rng(check_seed(seed), STREAM_SPECTRAL).standard_normal(dim)
    theta, _, taken, residual = _lanczos(lambda v: a @ (a @ v), dim, v0, steps, 0.0)
    return sqrt(max(theta, 0.0)), taken, residual


@dataclass
class RefutationReport:
    """The certificate and its inputs; lanczos_steps and residual describe the run on A^2."""

    delta_hat: float
    spectral_estimate: float
    num_vertices: int
    pairs_per_clause: int
    used_clauses: int
    dropped_clauses: int
    nnz: int
    failure_prob: float
    lanczos_steps: int
    residual: float


def refute_report(inst: XorInstance, ell: int, seed: int = 0) -> RefutationReport:
    """The level-ell certificate of inst over its m = used + dropped clauses.

    The arity, the level and the Lanczos basis cap, which depends only on
    C(n, ell), are checked before the build, in that order.
    """
    if inst.m == 0:
        raise ParameterError("cannot certify an empty instance")
    check_level(inst.n, inst.k, ell)
    _certificate_steps(_vertex_count(inst.n, ell))
    kik = build_kikuchi(inst, ell)
    lam, steps, residual = spectral_norm(kik.matrix, seed)
    # lam / (1 - CERT_TOL) upper-bounds ||A|| except with probability FAILURE_PROB.
    delta = ((lam / (1.0 - CERT_TOL)) * kik.num_vertices / (inst.m * kik.pairs_per_clause)
             + kik.dropped_clauses / inst.m)
    return RefutationReport(
        delta_hat=float(delta),
        spectral_estimate=float(lam),
        num_vertices=kik.num_vertices,
        pairs_per_clause=kik.pairs_per_clause,
        used_clauses=kik.used_clauses,
        dropped_clauses=kik.dropped_clauses,
        nnz=int(kik.matrix.nnz),
        failure_prob=FAILURE_PROB,
        lanczos_steps=steps,
        residual=residual,
    )


def refutation_certificate(inst: XorInstance, ell: int, seed: int = 0) -> float:
    """Upper bound on max_x of the mean signed clause value, except w.p. FAILURE_PROB."""
    return refute_report(inst, ell, seed=seed).delta_hat
