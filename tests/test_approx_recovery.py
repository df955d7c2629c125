"""Tests for relaxation backends, moment validation, and sign rounding."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_argmax_rows,
    clause_totals,
    enumerate_assignments,
    naive_pair_weights,
)
import rpcsp.approx_recovery
from rpcsp import (
    BackendChoice,
    ConvergenceError,
    ParameterError,
    PseudoExpectation,
    ResourceLimitError,
    UnsupportedConfigError,
    XorInstance,
    corr,
    random_assignment,
    round_even,
    round_odd,
    sample_planted_xor,
    solve_pseudo_expectation,
)
from rpcsp.approx_recovery import (
    BRUTE_MAX_N,
    DEFAULT_MOMENT_BYTES,
    RITZ_RTOL,
    _brute_scan,
    _pair_weights,
    _unit_gram,
    round_even_detail,
)
from rpcsp.kikuchi import RITZ_STRIDE, build_kikuchi
from rpcsp.rng import cell_seed, derived_rng


def _valid_pe(n, mu1=None, m2=None):
    return PseudoExpectation(
        n=n,
        mu1=np.zeros(n) if mu1 is None else mu1,
        m2=np.eye(n) if m2 is None else m2,
        backend="test",
        info={},
    )


def _random_signs_instance(n, m, k, seed):
    rng = derived_rng(seed, 0)
    scopes = rng.integers(1, n + 1, size=(m, k), dtype=np.int64)
    rhs = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
    return XorInstance(n, k, scopes, rhs)


# ------------------------------------------------------------------ validation

def test_validate_accepts_identity_moments():
    _valid_pe(5).validate()


def test_validate_rejects_off_diagonal_overflow():
    m2 = np.eye(3)
    m2[0, 1] = m2[1, 0] = 1.5
    with pytest.raises(ParameterError):
        _valid_pe(3, m2=m2).validate()


def test_validate_rejects_bad_diagonal():
    m2 = np.eye(4)
    m2[2, 2] = 0.9
    with pytest.raises(ParameterError):
        _valid_pe(4, m2=m2).validate()


def test_validate_rejects_indefinite_matrix():
    m2 = np.array([[1.0, 0.999, -0.999],
                   [0.999, 1.0, 0.999],
                   [-0.999, 0.999, 1.0]])
    with pytest.raises(ParameterError):
        _valid_pe(3, m2=m2).validate()


def test_validate_rejects_inconsistent_first_moment():
    # mu1 = all ones forces the distribution to be the point mass at ones,
    # whose second moment is all-ones, not the identity
    n = 6
    with pytest.raises(ParameterError):
        _valid_pe(n, mu1=np.ones(n)).validate()


def test_expectation_helpers():
    x = random_assignment(5, 1)
    pe = _valid_pe(5, m2=np.outer(x, x).astype(float))
    assert pe.expect_inner_product(x) == pytest.approx(0.0)
    assert pe.expect_inner_product_sq(x) == pytest.approx(25.0)


# ----------------------------------------------------------------- brute force

def test_brute_moments_match_enumeration():
    for trial, n in enumerate((1, 2, 3, 6, 7, 8, 9, 10, 11, 12)):
        seed = cell_seed(400, trial)
        k = min((2, 3, 4)[trial % 3], n)
        # Two clauses leave a large argmax set; 4n usually a small one.
        inst = _random_signs_instance(n, (4 * n, 2)[trial % 2], k, seed)
        pe = solve_pseudo_expectation(inst, BackendChoice.brute(), seed)
        rows = brute_argmax_rows(inst).astype(float)
        assert pe.info["argmax_count"] == len(rows)
        # Both sides divide the same integer sums by the same count.
        assert np.array_equal(pe.mu1, rows.mean(axis=0)), n
        assert np.array_equal(pe.m2, (rows[:, :, None] * rows[:, None, :]).mean(axis=0)), n


def test_brute_moments_match_enumeration_across_blocks(monkeypatch):
    # 16-entry blocks: tables above 2^4 cross blocks in the transform, and
    # the moment pass reads 16 entries, or one row of the grid, at a time.
    monkeypatch.setattr("rpcsp.fourier._WHT_BLOCK", 16)
    test_brute_moments_match_enumeration()


@pytest.mark.parametrize("m, dtype", [(127, np.int8), (128, np.int16),
                                      (32_767, np.int16), (32_768, np.int32)])
def test_brute_table_is_the_narrowest_type_holding_m(m, dtype):
    # m copies of one clause: the objective reaches m, which one step
    # narrower would wrap.
    inst = XorInstance(3, 3, np.tile(np.array([[1, 2, 3]], dtype=np.int64), (m, 1)),
                       np.ones(m, dtype=np.int8))
    assert _brute_scan(inst).dtype == dtype
    pe = solve_pseudo_expectation(inst, BackendChoice.brute(), 0)
    assert pe.info == {"objective": m, "argmax_count": 4}


def test_brute_objective_matches_enumeration():
    inst = _random_signs_instance(9, 50, 3, 7)
    pe = solve_pseudo_expectation(inst, BackendChoice.brute(), 7)
    totals = clause_totals(inst, enumerate_assignments(9))
    assert pe.info["objective"] == totals.max()


def test_brute_unique_planted_optimum():
    # clauses (i, i, i) pin every variable: objective uniquely maximized at x*
    x = random_assignment(8, 3)
    scopes = np.array([[i, i, i] for i in range(1, 9)], dtype=np.int64)
    inst = XorInstance(8, 3, scopes, x.copy())
    pe = solve_pseudo_expectation(inst, BackendChoice.brute(), 3)
    assert pe.info["argmax_count"] == 1
    assert np.array_equal(round_odd(pe), x)


def test_brute_respects_assignment_cap(monkeypatch):
    monkeypatch.setattr("rpcsp.approx_recovery.BRUTE_MAX_N", 10)
    assert solve_pseudo_expectation(_random_signs_instance(10, 10, 2, 0),
                                    BackendChoice.brute(), 0).n == 10
    with pytest.raises(UnsupportedConfigError, match="n <= 10"):
        solve_pseudo_expectation(_random_signs_instance(11, 10, 2, 0), BackendChoice.brute(), 0)


def test_brute_assignment_cap_ceiling(monkeypatch):
    # n = 27, one past the cap, raises before the 2^27 table is allocated.
    def no_scan(inst):
        raise AssertionError("scanned past the cap")

    monkeypatch.setattr("rpcsp.approx_recovery._brute_scan", no_scan)
    assert BRUTE_MAX_N == 26
    with pytest.raises(UnsupportedConfigError, match="n <= 26"):
        solve_pseudo_expectation(_random_signs_instance(27, 10, 3, 0), BackendChoice.brute(), 0)


@pytest.mark.parametrize("kind", ["sdp_basic", "kikuchi_spectral"])
def test_moment_cap_raises_before_the_dense_moments_exist(kind):
    # n = 60,000: one dense n x n float64 matrix would take 28.8 GB.
    inst = XorInstance(60_000, 2, np.array([[1, 2]]), np.array([1]))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="moment cap"):
            solve_pseudo_expectation(inst, BackendChoice(kind), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("kind", ["sdp_basic", "kikuchi_spectral"])
def test_moment_cap_admits_moments_of_exactly_its_size(monkeypatch, kind):
    assert DEFAULT_MOMENT_BYTES == 4096 * 4096 * 8
    monkeypatch.setattr("rpcsp.approx_recovery.DEFAULT_MOMENT_BYTES", 12 * 12 * 8)
    assert solve_pseudo_expectation(_random_signs_instance(12, 60, 2, 5),
                                    BackendChoice(kind), 5).n == 12
    with pytest.raises(ResourceLimitError, match="moment cap"):
        solve_pseudo_expectation(_random_signs_instance(13, 60, 2, 5), BackendChoice(kind), 5)


# ------------------------------------------------------------------------- sdp

def test_sdp_requires_pair_arity():
    inst = _random_signs_instance(10, 20, 3, 1)
    with pytest.raises(UnsupportedConfigError):
        solve_pseudo_expectation(inst, BackendChoice.sdp_basic(), 1)


def test_sdp_recovers_noisy_pair_plant():
    n, eps = 80, 0.35
    x = random_assignment(n, 21)
    m = int(np.ceil(40 / eps ** 2 * n * np.log(n)))
    inst = sample_planted_xor(x, m, 2, eps, 21)
    pe = solve_pseudo_expectation(inst, BackendChoice.sdp_basic(), 21)
    assert np.allclose(pe.mu1, 0.0)
    assert np.array_equal(np.diag(pe.m2), np.ones(n))
    out = round_even(pe)
    assert abs(corr(out, x)) == pytest.approx(1.0)


def _pairs(n, scopes, rhs):
    return XorInstance(n, 2, np.array(scopes, dtype=np.int64), np.array(rhs, dtype=np.int8))


@pytest.mark.parametrize("inst", [
    _pairs(2, [[1, 2], [2, 1], [1, 1], [2, 2], [1, 2]], [1, 1, -1, 1, -1]),
    _pairs(3, [[2, 2], [3, 3], [1, 1]], [1, -1, 1]),
    _pairs(5, [[1, 2], [2, 1], [3, 4], [4, 3], [3, 4], [5, 1], [1, 5]],
           [1, -1, 1, 1, -1, -1, -1]),
    _random_signs_instance(12, 3000, 2, 4),
], ids=["n2", "diagonal-only", "duplicates-and-cancellation", "random"])
def test_pair_weights_match_sparse_oracle(inst):
    w = _pair_weights(inst)
    assert w.dtype == np.float64
    assert np.array_equal(w, naive_pair_weights(inst).toarray())


# --------------------------------------------------------------- spectral pair

def test_spectral_backend_requires_even_arity():
    inst = _random_signs_instance(10, 30, 3, 2)
    with pytest.raises(UnsupportedConfigError):
        solve_pseudo_expectation(inst, BackendChoice.kikuchi_spectral(), 2)


def test_spectral_backend_recovers_quad_plant():
    n, eps = 40, 0.45
    x = random_assignment(n, 31)
    m = int(12 * n ** 1.5 * np.log(n))
    inst = sample_planted_xor(x, m, 4, eps, 31)
    pe = solve_pseudo_expectation(inst, BackendChoice.kikuchi_spectral(), 31, ell=2)
    out, deltas, i_star = round_even_detail(pe)
    assert abs(corr(out, x)) == pytest.approx(1.0)
    assert deltas[i_star] <= 0.02


def test_spectral_backend_step_cap_raises_with_best_estimate():
    inst = _random_signs_instance(12, 80, 2, 2)  # 12 vertices at ell = 1
    with pytest.raises(ConvergenceError) as info:
        solve_pseudo_expectation(inst, BackendChoice.kikuchi_spectral(iters=2), 2)
    assert info.value.best_estimate > 0
    assert info.value.iterations == 2


def test_spectral_backend_step_cap_keeps_its_verdict_under_the_residual_stride():
    inst = _random_signs_instance(30, 200, 2, 0)  # 30 vertices at ell = 1

    def solve(cap):
        try:
            return solve_pseudo_expectation(inst, BackendChoice.kikuchi_spectral(iters=cap), 0)
        except ConvergenceError as e:
            assert e.iterations == cap
            return None

    # The Lanczos state after j steps does not depend on the cap, so the
    # smallest cap that converges is the step a test on every step stops at.
    outcomes = [solve(cap) for cap in range(1, 31)]
    first = next(cap for cap, pe in enumerate(outcomes, 1) if pe is not None)
    assert first % RITZ_STRIDE != 0  # the case a stride could skip
    assert all(pe is None for pe in outcomes[:first - 1])
    stop = -(-first // RITZ_STRIDE) * RITZ_STRIDE
    for cap, pe in enumerate(outcomes[first - 1:], first):
        assert pe.info["lanczos_steps"] == min(cap, stop)
        assert pe.info["residual"] < RITZ_RTOL * abs(pe.info["top_eigenvalue"])


def test_spectral_backend_on_empty_matrix_is_uninformative():
    scopes = np.array([[1, 1], [2, 2]], dtype=np.int64)
    inst = XorInstance(6, 2, scopes, np.ones(2, dtype=np.int8))
    pe = solve_pseudo_expectation(inst, BackendChoice.kikuchi_spectral(), 0)
    neg = pe.negated(1)
    for got in (pe, neg):
        assert np.array_equal(got.m2, np.eye(6)) and not got.mu1.any()
        assert got.info == {"top_eigenvalue": 0.0, "ell": 1}


def _negated(inst):
    return XorInstance(inst.n, inst.k, inst.scopes, -inst.rhs)


@pytest.mark.parametrize("k,ell", [(2, 1), (2, 2), (2, 3), (4, 2), (4, 3)])
def test_spectral_negated_is_a_solve_of_the_negated_instance_bit_for_bit(monkeypatch, k, ell):
    builds = []

    def counting_build(*args):
        builds.append(args)
        return build_kikuchi(*args)

    monkeypatch.setattr(rpcsp.approx_recovery, "build_kikuchi", counting_build)
    inst = sample_planted_xor(random_assignment(12, k), 400, k, 0.3, k + ell)
    kik = BackendChoice.kikuchi_spectral()
    pe = solve_pseudo_expectation(inst, kik, 5, ell)
    for seed in (5, 6):
        before = len(builds)
        neg = pe.negated(seed)
        assert len(builds) == before  # the negated run multiplies by -A: it builds nothing
        apart = solve_pseudo_expectation(_negated(inst), kik, seed, ell)
        assert neg.info == apart.info and neg.backend == apart.backend
        assert np.array_equal(neg.m2, apart.m2) and np.array_equal(neg.mu1, apart.mu1)
    # -A's top eigenvalue is minus A's bottom one.
    eigs = np.linalg.eigvalsh(build_kikuchi(inst, ell).matrix.toarray())
    assert pe.info["top_eigenvalue"] == pytest.approx(eigs[-1], rel=1e-9)
    assert neg.info["top_eigenvalue"] == pytest.approx(-eigs[0], rel=1e-9)


@pytest.mark.parametrize("backend", [BackendChoice.brute(), BackendChoice.sdp_basic()])
def test_backends_without_a_spectrum_give_no_negated_surrogate(backend):
    inst = _random_signs_instance(10, 60, 2, 3)
    assert solve_pseudo_expectation(inst, backend, 3).negated is None


def test_spectral_negated_raises_when_its_own_run_misses(monkeypatch):
    lanczos = rpcsp.approx_recovery._lanczos
    runs = []

    def second_misses(*args):
        theta, y, steps, residual = lanczos(*args)
        runs.append(theta)
        return theta, y, steps, abs(theta) if len(runs) == 2 else residual

    monkeypatch.setattr(rpcsp.approx_recovery, "_lanczos", second_misses)
    inst = _random_signs_instance(12, 80, 2, 2)
    pe = solve_pseudo_expectation(inst, BackendChoice.kikuchi_spectral(), 2)
    with pytest.raises(ConvergenceError) as info:
        pe.negated(3)
    assert info.value.best_estimate == runs[1] > 0  # the negated matrix's top eigenvalue


def test_unit_gram_normalizes_and_maps_a_zero_row_to_a_unit_vector():
    v = derived_rng(cell_seed(41, "gram"), 0).standard_normal((6, 3)) * np.arange(1, 7)[:, None]
    v[2] = 0.0
    g = v @ v.T
    live = np.ix_(np.arange(6) != 2, np.arange(6) != 2)
    want = g[live] / np.sqrt(np.outer(np.diag(g[live]), np.diag(g[live])))
    m2 = _unit_gram(g)
    assert np.array_equal(np.diag(m2), np.ones(6))  # exactly 1, the zero row too
    assert np.array_equal(m2[2], np.eye(6)[2]) and np.array_equal(m2[:, 2], np.eye(6)[2])
    assert np.allclose(m2[live], want, rtol=1e-12)
    _valid_pe(6, m2=m2).validate()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_spectral_backend_output_is_valid_by_construction(data):
    k = data.draw(st.sampled_from([2, 4]))
    ell = data.draw(st.sampled_from([k // 2, k // 2 + 1]))
    n = data.draw(st.integers(k + 2, 10))
    # Clauses draw from the first `used` variables; the rest appear in none.
    used = data.draw(st.integers(k, n))
    seed = data.draw(st.integers(0, 2 ** 31 - 1))
    rng = derived_rng(seed, 0)
    m = data.draw(st.integers(1, 60))
    scopes = rng.integers(1, used + 1, size=(m, k), dtype=np.int64)
    if data.draw(st.booleans()):
        x = random_assignment(n, seed)
        rhs = np.prod(x[scopes - 1], axis=1).astype(np.int8)
    else:
        rhs = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
    inst = XorInstance(n, k, scopes, rhs)
    backend = BackendChoice.kikuchi_spectral()
    pe = solve_pseudo_expectation(inst, backend, seed, ell=ell)
    pe.validate()
    assert np.array_equal(np.diag(pe.m2), np.ones(n))
    if "lanczos_steps" in pe.info:
        # Converged, and stopped at a residual test: every RITZ_STRIDE steps,
        # at the cap, or at a breakdown, where the residual is below
        # 1e-12 * (|alpha| + beta) <= 2e-12 * ||A||.
        a = build_kikuchi(inst, ell).matrix.toarray()
        steps, residual = pe.info["lanczos_steps"], pe.info["residual"]
        assert residual < RITZ_RTOL * abs(pe.info["top_eigenvalue"])
        assert (steps % RITZ_STRIDE == 0 or steps == min(backend.iters, len(a))
                or residual <= 3e-12 * np.abs(np.linalg.eigvalsh(a)).max())


# -------------------------------------------------------------------- rounding

def test_round_odd_takes_signs():
    pe = _valid_pe(4, mu1=np.array([0.2, -0.1, 0.0, 0.4]) * 0.1)
    assert np.array_equal(round_odd(pe), np.array([1, -1, 1, 1]))


def test_round_odd_positive_scale_invariance():
    rng = derived_rng(17, 41)
    for _ in range(20):
        mu1 = rng.uniform(-1, 1, size=8)
        base = round_odd(_valid_pe(8, mu1=mu1))
        for c in (1e-6, 0.3, 7.0, 1e6):
            assert np.array_equal(round_odd(_valid_pe(8, mu1=c * mu1)), base)


def test_round_even_exact_outer_product():
    x = random_assignment(12, 9)
    pe = _valid_pe(12, m2=np.outer(x, x).astype(float))
    out, deltas, i_star = round_even_detail(pe)
    assert np.array_equal(out, x) or np.array_equal(out, -x)
    assert deltas[i_star] == pytest.approx(0.0, abs=1e-12)


def test_round_even_sign_conjugation_equivariance():
    # flipping variable signs in m2 flips them in the output; the anchor
    # choice is untouched because row agreements enter through abs
    rng = derived_rng(17, 40)
    for trial in range(10):
        g = rng.normal(size=(9, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        m2 = np.clip(g @ g.T, -1, 1)
        np.fill_diagonal(m2, 1.0)
        out = round_even(_valid_pe(9, m2=m2))
        s = rng.choice(np.array([-1, 1], dtype=np.int8), size=9)
        flipped = m2 * np.outer(s, s)
        out_f = round_even(_valid_pe(9, m2=flipped))
        assert (np.array_equal(out_f, out * s)
                or np.array_equal(out_f, -out * s))


def test_round_even_permutation_equivariance_off_ties():
    # one clean row against uniformly corrupted ones gives a strict anchor
    # gap (2/9 vs 4/9), so relabeling variables relabels the output
    rng = derived_rng(17, 42)
    for _ in range(10):
        x = rng.choice(np.array([-1, 1], dtype=np.int8), size=9)
        m2 = np.outer(x, x).astype(np.float64)
        for i in range(1, 9):
            m2[i, i] = -1.0
        out, deltas, i_star = round_even_detail(_valid_pe(9, m2=m2))
        assert i_star == 0 and (deltas == deltas.min()).sum() == 1
        p = rng.permutation(9)
        out_p, deltas_p, i_star_p = round_even_detail(
            _valid_pe(9, m2=m2[np.ix_(p, p)]))
        assert np.array_equal(out_p, out[p])
        assert i_star_p == int(np.flatnonzero(p == 0)[0])
        assert np.allclose(deltas_p, deltas[p])
