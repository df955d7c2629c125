"""Degree-2 pseudo-expectation surrogates and their rounding.

A surrogate is a first-moment vector mu1 and a second-moment matrix m2 with
unit diagonal, entries in [-1,1], m2 PSD, and the bordered block
[[1, mu1^T], [mu1, m2]] PSD (all up to a -1e-8 eigenvalue tolerance). Three
backends build one that meets these by construction, and
PseudoExpectation.validate checks them after every solve:

- brute: exact moments of the uniform distribution over the argmax set of the
  signed clause objective, for small n. The objective of every assignment is
  one Walsh-Hadamard transform of the clause-mask histogram, and the moments
  are a second transform, of the argmax indicator;
- sdp_basic: low-rank coordinate ascent over unit vectors for arity 2,
  returning the Gram matrix normalized to unit diagonal, with mu1 = 0;
- kikuchi_spectral: top eigenvector of the level-l lift for even arity, by
  Lanczos with full reorthogonalization from a seeded random start on the
  float64 matrix build_kikuchi returns, multiplied as built with no copy,
  averaged back down to an n x n Gram matrix (KikuchiMatrix.pair_gram) and
  normalized to unit diagonal, so no projection, with mu1 = 0.

The zero mu1 of the non-brute backends is deliberate: the global sign is
unidentifiable there and the solver resolves it in its second stage.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .errors import ConvergenceError, ParameterError, UnsupportedConfigError
from .fourier import walsh_hadamard
from .instances import Assignment, XorInstance, sign_round, validate_assignment
from .kikuchi import _lanczos, build_kikuchi
from .rng import STREAM_BACKEND, check_seed, derived_rng

PSD_TOL = 1e-8
AGREEMENT_FRACTION = 0.99
# kikuchi_spectral stops once its Ritz residual is below this share of the top eigenvalue.
RITZ_RTOL = 1e-8
# brute transforms a 2^n int32 table, 256 MB at n = 26; an n = 26 solve_xor
# (3-XOR, m = 400) peaks at 571 MB RSS, 59 MB of it before the solve.
BRUTE_MAX_N = 26

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


def clause_objective(inst: XorInstance, m2: np.ndarray) -> float:
    """sum over clauses of rhs * m2 entry (arity-2 instances)."""
    if inst.k != 2:
        raise ParameterError("clause_objective is defined for arity 2")
    i = inst.scopes[:, 0] - 1
    j = inst.scopes[:, 1] - 1
    return float(np.sum(inst.rhs.astype(np.float64) * m2[i, j]))


# ---------------------------------------------------------------------------
# brute backend

def _clause_masks(inst: XorInstance) -> np.ndarray:
    """Per-clause parity bitmask; repeated indices cancel pairwise."""
    return np.bitwise_xor.reduce(1 << (inst.scopes - 1), axis=1)


def _brute_scan(inst: XorInstance) -> np.ndarray:
    """Signed clause objective of every assignment, as an int32 table.

    Assignment a encodes x_i = -1 iff bit i-1 of a is set. The objective is
    one Walsh-Hadamard transform of the clause-mask histogram weighted by
    rhs; |objective| <= m keeps it exact in int32.
    """
    table = np.zeros(1 << inst.n, dtype=np.int32)
    np.add.at(table, _clause_masks(inst), inst.rhs)
    return walsh_hadamard(table)


def check_brute_n(n: int):
    """UnsupportedConfigError if the brute backend cannot take n variables."""
    if n > BRUTE_MAX_N:
        raise UnsupportedConfigError(f"brute backend capped at n <= {BRUTE_MAX_N}, got n={n}")


def _brute_backend(inst: XorInstance) -> PseudoExpectation:
    check_brute_n(inst.n)
    table = _brute_scan(inst)
    best = int(table.max())
    # Moments of the uniform distribution over the argmax set are the Walsh
    # coefficients of its indicator at masks {i} and {i, j}; transforming the
    # indicator in place keeps memory at the table however large the set is.
    np.equal(table, best, out=table)
    walsh_hadamard(table)
    count = int(table[0])
    bits = 1 << np.arange(inst.n)
    mu1 = table[bits] / count
    m2 = table[bits[:, None] ^ bits] / count
    return PseudoExpectation(
        inst.n, mu1, m2, backend="brute",
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
    cell = (inst.scopes[:, 0] - 1) * n + (inst.scopes[:, 1] - 1)
    w = np.bincount(cell, weights=inst.rhs, minlength=n * n).reshape(n, n)
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
    if kik.matrix.nnz == 0:
        # No usable clauses: the uninformative uniform-distribution surrogate.
        return PseudoExpectation(n, np.zeros(n), np.eye(n), backend="kikuchi_spectral",
                                 info={"top_eigenvalue": 0.0, "ell": ell})
    v0 = derived_rng(check_seed(seed), STREAM_BACKEND).standard_normal(dim)
    top, v, steps, residual = _lanczos(kik.matrix.dot, dim, v0, backend.iters, RITZ_RTOL)
    if residual >= RITZ_RTOL * abs(top):
        raise ConvergenceError(f"Kikuchi eigenvector did not converge in {steps} Lanczos steps",
                               best_estimate=top, iterations=steps)
    m2 = _unit_gram(kik.pair_gram(v))
    return PseudoExpectation(n, np.zeros(n), m2, backend="kikuchi_spectral",
                             info={"top_eigenvalue": top, "ell": ell,
                                   "lanczos_steps": steps, "residual": residual})


def solve_pseudo_expectation(inst: XorInstance, backend: BackendChoice, seed: int,
                             ell: int | None = None) -> PseudoExpectation:
    """Run one backend and return its validated surrogate.

    ell is the kikuchi_spectral level, k/2 if None; the other backends ignore it.
    """
    if inst.m == 0:
        raise ParameterError("cannot build a surrogate from an empty instance")
    if backend.kind == "brute":
        pe = _brute_backend(inst)
    elif backend.kind == "sdp_basic":
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
