"""Degree-2 pseudo-expectation surrogates and their rounding.

A surrogate is a first-moment vector mu1 and a second-moment matrix m2 with
unit diagonal, entries in [-1,1], m2 PSD, and the bordered block
[[1, mu1^T], [mu1, m2]] PSD (all up to a -1e-8 eigenvalue tolerance). Three
backends build one that meets these by construction, and
PseudoExpectation.validate checks them after every solve:

- brute: exact moments of the uniform distribution over the argmax set of the
  signed clause objective, for small n. The objective of every assignment is
  one Walsh-Hadamard transform of the clause-mask histogram, and the moments
  are sums of sign products over the argmax set, read in one blocked pass;
- sdp_basic: low-rank coordinate ascent over unit vectors for arity 2,
  returning the Gram matrix normalized to unit diagonal, with mu1 = 0;
- kikuchi_spectral: top eigenvector of the level-l lift for even arity, by
  Lanczos with full reorthogonalization from a seeded random start on the
  float64 matrix build_kikuchi returns, multiplied as built with no copy,
  averaged back down to an n x n Gram matrix (KikuchiMatrix.pair_gram) and
  normalized to unit diagonal, so no projection, with mu1 = 0. Negating
  every rhs negates the matrix, so PseudoExpectation.negated(seed) runs a
  fresh, seeded Lanczos on -A over the same build: the surrogate of the
  instance with every rhs negated, bit for bit, without a second build.

The zero mu1 of the non-brute backends is deliberate: the global sign is
unidentifiable there and the solver resolves it in its second stage.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from . import fourier
from .errors import ConvergenceError, ParameterError, ResourceLimitError, UnsupportedConfigError
from .instances import Assignment, XorInstance, sign_round, validate_assignment
from .kikuchi import _lanczos, build_kikuchi
from .rng import STREAM_BACKEND, check_seed, derived_rng

PSD_TOL = 1e-8
AGREEMENT_FRACTION = 0.99
# kikuchi_spectral stops once its Ritz residual is below this share of the top eigenvalue.
RITZ_RTOL = 1e-8
# brute transforms a 2^n table of the narrowest type holding +-m: at n = 26,
# 128 MB of int16 for 128 <= m < 32,768. An n = 26 solve_xor (3-XOR,
# m = 400) takes 0.8-1.7 s and peaks at 194 MB RSS, 59 MB of it before the
# solve (2 cores, NumPy 2.4.6).
BRUTE_MAX_N = 26
# Bytes of one dense n x n float64 moment matrix for sdp_basic and
# kikuchi_spectral: 2^27 admits n <= 4,096. A solve holds a few such
# matrices at once; an n = 4,096 sdp_basic solve_xor (2-XOR, m = 20n) takes
# about 8 s and peaks at 606 MB RSS, 61 MB of it before the solve (2 cores).
DEFAULT_MOMENT_BYTES = 1 << 27

BACKEND_KINDS = ("brute", "sdp_basic", "kikuchi_spectral")


@dataclass(frozen=True)
class BackendChoice:
    kind: str
    iters: int = 200

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ParameterError(f"unknown backend {self.kind!r}")
        if self.iters < 1:
            raise ParameterError("iteration budget must be >= 1")

    @classmethod
    def brute(cls) -> "BackendChoice":
        return cls("brute")

    @classmethod
    def sdp_basic(cls, iters: int = 200) -> "BackendChoice":
        return cls("sdp_basic", iters=iters)

    @classmethod
    def kikuchi_spectral(cls, iters: int = 200) -> "BackendChoice":
        """Top eigenvector of the Kikuchi lift; iters caps its Lanczos steps."""
        return cls("kikuchi_spectral", iters=iters)


@dataclass
class PseudoExpectation:
    n: int
    mu1: np.ndarray
    m2: np.ndarray
    backend: str
    info: dict = field(default_factory=dict)
    # kikuchi_spectral only: a function of a seed that returns the validated
    # surrogate of the same instance with every rhs negated, run from that seed.
    negated: Callable[[int], PseudoExpectation] | None = field(default=None, repr=False,
                                                               compare=False)

    def validate(self):
        mu1 = np.asarray(self.mu1, dtype=np.float64)
        m2 = np.asarray(self.m2, dtype=np.float64)
        if mu1.shape != (self.n,) or m2.shape != (self.n, self.n):
            raise ParameterError("moment shapes do not match n")
        if np.abs(mu1).max(initial=0.0) > 1.0 + 1e-12:
            raise ParameterError("mu1 entries must lie in [-1, 1]")
        if np.abs(m2).max(initial=0.0) > 1.0 + 1e-12:
            raise ParameterError("m2 entries must lie in [-1, 1]")
        if np.abs(np.diag(m2) - 1.0).max() > 1e-9:
            raise ParameterError("m2 diagonal must be 1")
        if np.abs(m2 - m2.T).max() > 1e-9:
            raise ParameterError("m2 must be symmetric")
        # One eigensolve covers both PSD conditions: m2 is a principal
        # submatrix of the bordered block, so by Cauchy interlacing its
        # smallest eigenvalue is at least the block's.
        block = np.empty((self.n + 1, self.n + 1))
        block[0, 0] = 1.0
        block[0, 1:] = mu1
        block[1:, 0] = mu1
        block[1:, 1:] = m2
        if np.linalg.eigvalsh((block + block.T) / 2).min() < -PSD_TOL:
            raise ParameterError("bordered moment block is not PSD within tolerance")

    def expect_inner_product(self, x_star: Assignment) -> float:
        """Surrogate expectation of <x, x_star>."""
        x_star = validate_assignment(x_star, self.n)
        return float(self.mu1 @ x_star)

    def expect_inner_product_sq(self, x_star: Assignment) -> float:
        """Surrogate expectation of <x, x_star>^2."""
        x_star = validate_assignment(x_star, self.n)
        xf = x_star.astype(np.float64)
        return float(xf @ self.m2 @ xf)


def _pair_cells(inst: XorInstance) -> np.ndarray:
    """Flat index (i - 1) * n + (j - 1) of each arity-2 clause's (i, j) cell, in one array."""
    cell = inst.scopes[:, 0] * inst.n
    cell += inst.scopes[:, 1]
    cell -= inst.n + 1
    return cell


def clause_objective(inst: XorInstance, m2: np.ndarray) -> float:
    """sum over clauses of rhs * m2 entry (arity-2 instances)."""
    if inst.k != 2:
        raise ParameterError("clause_objective is defined for arity 2")
    terms = np.take(m2, _pair_cells(inst))
    terms *= inst.rhs
    return float(np.sum(terms))


# ---------------------------------------------------------------------------
# brute backend

def _clause_masks(inst: XorInstance) -> np.ndarray:
    """Per-clause parity bitmask; repeated indices cancel pairwise."""
    return np.bitwise_xor.reduce(1 << (inst.scopes - 1), axis=1)


def _brute_scan(inst: XorInstance) -> np.ndarray:
    """Signed clause objective of every assignment, as a table of the narrowest signed type.

    Assignment a encodes x_i = -1 iff bit i-1 of a is set. The objective is
    one Walsh-Hadamard transform of the clause-mask histogram weighted by
    rhs. The histogram's cells sum to at most m in absolute value, and every
    value the transform holds, after any stage, is a +-1-weighted sum of
    those cells, so a type that holds -m..m keeps it exact: int8 up to
    m = 127, int16 up to 32,767.
    """
    table = np.zeros(1 << inst.n, dtype=np.min_scalar_type(-1 - inst.m))
    np.add.at(table, _clause_masks(inst), inst.rhs)
    return fourier.walsh_hadamard(table)


def _sign_columns(bits: int) -> np.ndarray:
    """The 2^bits x (bits + 1) float64 matrix [1, (-1)^{bit j of row}] over j < bits."""
    rows = np.arange(1 << bits)[:, None]
    signs = np.ones((1 << bits, bits + 1))
    signs[:, 1:] -= 2 * ((rows >> np.arange(bits)) & 1)
    return signs


def check_brute_n(n: int):
    """UnsupportedConfigError if the brute backend cannot take n variables."""
    if n > BRUTE_MAX_N:
        raise UnsupportedConfigError(f"brute backend capped at n <= {BRUTE_MAX_N}, got n={n}")


def check_moment_n(n: int):
    """ResourceLimitError if a dense n x n float64 moment matrix exceeds DEFAULT_MOMENT_BYTES."""
    if n * n * 8 > DEFAULT_MOMENT_BYTES:
        raise ResourceLimitError(f"dense {n} x {n} moments exceed the moment cap of "
                                 f"{DEFAULT_MOMENT_BYTES} bytes")


def _brute_backend(inst: XorInstance) -> PseudoExpectation:
    """Exact moments of the uniform distribution over the argmax set.

    The moments are sums over the argmax set of 1, x_i and x_i x_j, divided
    by its size. With the table read as a 2^H x 2^L grid (L = n // 2 low
    bits index the columns, H = n - L high bits the rows) and X_L, X_H the
    _sign_columns of each half, one pass over the grid, _WHT_BLOCK entries
    at a time, accumulates G = 1[grid == best] X_L and the indicator's
    column sums c. Then X_L^T diag(c) X_L holds the count, the low bits'
    sums and the low-low pairs; X_H^T G the high bits' sums and the
    high-low pairs; X_H^T diag(G[:, 0]) X_H the high-high pairs. Every term
    and partial sum of these products is an integer of magnitude at most
    2^n <= 2^26, exact in float64 whatever order BLAS sums in, so each
    moment is that integer divided by the count, as a transform of the
    indicator would give it, in O(2^n n / 2) time whatever the count.
    """
    check_brute_n(inst.n)
    n = inst.n
    low = n // 2
    grid = _brute_scan(inst).reshape(-1, 1 << low)
    best = int(grid.max())
    x_low, x_high = _sign_columns(low), _sign_columns(n - low)
    g = np.empty((grid.shape[0], low + 1))
    cols = np.zeros(1 << low)
    step = max(1, fourier._WHT_BLOCK >> low)
    hits = np.empty((min(step, grid.shape[0]), 1 << low))
    for r in range(0, grid.shape[0], step):
        part = hits[: grid.shape[0] - r]
        np.equal(grid[r:r + step], best, out=part)
        np.matmul(part, x_low, out=g[r:r + step])
        cols += part.sum(axis=0)
    # sums[s, t] is the sum over the argmax set of y_s y_t, y = (1, x_1, ..., x_n).
    sums = np.empty((n + 1, n + 1))
    sums[: low + 1, : low + 1] = x_low.T @ (cols[:, None] * x_low)
    sums[low + 1:, : low + 1] = x_high[:, 1:].T @ g
    sums[: low + 1, low + 1:] = sums[low + 1:, : low + 1].T
    sums[low + 1:, low + 1:] = x_high[:, 1:].T @ (g[:, :1] * x_high[:, 1:])
    count = int(sums[0, 0])
    return PseudoExpectation(
        n, sums[0, 1:] / count, sums[1:, 1:] / count, backend="brute",
        info={"objective": best, "argmax_count": count},
    )


# ---------------------------------------------------------------------------
# sdp_basic backend (arity 2)


def _pair_weights(inst: XorInstance) -> np.ndarray:
    """Symmetric signed weight matrix; diagonal (i==j) clauses are constants.

    Entry (i, j) sums the rhs of the clauses on (i, j) and on (j, i). The
    matrix is dense: at most n^2 cells hold many more clauses, and the SDP
    that uses it already keeps dense n x n moments.
    """
    n = inst.n
    w = np.bincount(_pair_cells(inst), weights=inst.rhs, minlength=n * n).reshape(n, n)
    w += w.T
    np.fill_diagonal(w, 0.0)
    return w


def _unit_gram(g: np.ndarray) -> np.ndarray:
    """D^{-1/2} g D^{-1/2} with D = diag(g), in place, with diagonal exactly 1.

    A Gram g stays PSD with entries in [-1, 1] (Cauchy-Schwarz); a row with
    diagonal <= 0, a zero vector, becomes e_i.
    """
    d = np.diag(g)
    scale = np.divide(1.0, np.sqrt(np.maximum(d, 0.0)), out=np.zeros_like(d), where=d > 0)
    g *= scale[:, None]
    g *= scale
    np.fill_diagonal(g, 1.0)
    return g


def _sdp_backend(inst: XorInstance, backend: BackendChoice, seed: int) -> PseudoExpectation:
    if inst.k != 2:
        raise UnsupportedConfigError(f"sdp_basic handles arity 2, got k={inst.k}")
    n = inst.n
    rank = min(max(2, int(np.ceil(sqrt(2.0 * n)))), n)
    w = _pair_weights(inst)
    rng = derived_rng(check_seed(seed), STREAM_BACKEND)
    v = rng.standard_normal((n, rank))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    obj_prev = -np.inf
    iters_run = 0
    g = w @ v
    for it in range(backend.iters):
        norms = np.linalg.norm(g, axis=1)
        keep = norms <= 1e-300  # rows with no gradient keep their value
        norms[keep] = 1.0
        v = np.where(keep[:, None], v, g / norms[:, None])
        g = w @ v  # this iteration's objective and the next one's gradient
        obj = float(np.sum(v * g))
        iters_run = it + 1
        if obj - obj_prev <= 1e-12 * max(1.0, abs(obj)) and it >= 5:
            break
        obj_prev = obj
    m2 = _unit_gram(v @ v.T)
    return PseudoExpectation(
        n, np.zeros(n), m2, backend="sdp_basic",
        info={"objective": clause_objective(inst, m2), "rank": rank, "iters": iters_run},
    )


# ---------------------------------------------------------------------------
# kikuchi_spectral backend (even arity)


def _kikuchi_backend(inst: XorInstance, backend: BackendChoice, seed: int,
                     ell: int) -> PseudoExpectation:
    if inst.k % 2 != 0:
        raise UnsupportedConfigError(f"kikuchi_spectral needs even arity, got k={inst.k}")
    kik = build_kikuchi(inst, ell)
    n = inst.n
    dim = kik.num_vertices

    def surrogate(matvec, seed: int) -> PseudoExpectation:
        if kik.matrix.nnz == 0:
            # No usable clauses: the uninformative uniform-distribution surrogate.
            return PseudoExpectation(n, np.zeros(n), np.eye(n), backend="kikuchi_spectral",
                                     info={"top_eigenvalue": 0.0, "ell": ell})
        v0 = derived_rng(check_seed(seed), STREAM_BACKEND).standard_normal(dim)
        theta, v, steps, residual = _lanczos(matvec, dim, v0, backend.iters, RITZ_RTOL)
        if residual >= RITZ_RTOL * abs(theta):
            raise ConvergenceError(f"Kikuchi eigenvector did not converge in {steps} Lanczos steps",
                                   best_estimate=theta, iterations=steps)
        m2 = _unit_gram(kik.pair_gram(v))
        return PseudoExpectation(n, np.zeros(n), m2, backend="kikuchi_spectral",
                                 info={"top_eigenvalue": theta, "ell": ell,
                                       "lanczos_steps": steps, "residual": residual})

    def negated(seed: int) -> PseudoExpectation:
        # The negated instance's matrix is -A, and negation is exact, so this
        # run is bit for bit the run on a build of that instance.
        neg = surrogate(lambda v: -kik.matrix.dot(v), seed)
        neg.validate()
        return neg

    pe = surrogate(kik.matrix.dot, seed)
    pe.negated = negated
    return pe


def solve_pseudo_expectation(inst: XorInstance, backend: BackendChoice, seed: int,
                             ell: int | None = None) -> PseudoExpectation:
    """Run one backend and return its validated surrogate.

    ell is the kikuchi_spectral level, k/2 if None; the other backends ignore
    it. A kikuchi_spectral surrogate's negated(seed) is, bit for bit, this
    function's result on inst with every rhs negated and that seed: a fresh
    Lanczos run on -A over the same Kikuchi build, which it keeps alive.
    brute and sdp_basic set no negated. The dense moments of sdp_basic and
    kikuchi_spectral are checked against DEFAULT_MOMENT_BYTES before either
    allocates; brute has its own cap on n.
    """
    if inst.m == 0:
        raise ParameterError("cannot build a surrogate from an empty instance")
    if backend.kind == "brute":
        pe = _brute_backend(inst)
    else:
        check_moment_n(inst.n)
        if backend.kind == "sdp_basic":
            pe = _sdp_backend(inst, backend, seed)
        else:
            pe = _kikuchi_backend(inst, backend, seed, inst.k // 2 if ell is None else ell)
    pe.validate()
    return pe


# ---------------------------------------------------------------------------
# rounding


def round_odd(pe: PseudoExpectation) -> Assignment:
    """Entrywise sign of the first moments (sign(0) = +1)."""
    return sign_round(np.asarray(pe.mu1))


def round_even_detail(pe: PseudoExpectation):
    """Consensus row rounding.

    Rounds every row of m2 to signs, scores row i by how well its sign vector
    correlates with the others (delta_i = 1 minus the ceil(AGREEMENT_FRACTION * n)-th
    largest absolute correlation), and returns the row with the smallest delta
    (smallest index on ties) together with the per-row deltas.
    """
    if pe.n < 2:
        raise ParameterError("row consensus rounding needs n >= 2")
    x_rows = sign_round(np.asarray(pe.m2)).astype(np.float64)
    g = np.abs(x_rows @ x_rows.T) / pe.n
    t = int(np.ceil(AGREEMENT_FRACTION * pe.n))
    kth = np.partition(g, pe.n - t, axis=1)[:, pe.n - t]
    deltas = 1.0 - kth
    i_star = int(np.argmin(deltas))
    return x_rows[i_star].astype(np.int8), deltas, i_star


def round_even(pe: PseudoExpectation) -> Assignment:
    x, _, _ = round_even_detail(pe)
    return x
