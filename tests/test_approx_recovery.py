"""Tests for relaxation backends, moment validation, and sign rounding."""
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
from rpcsp import (
    BackendChoice,
    ConvergenceError,
    ParameterError,
    PseudoExpectation,
    UnsupportedConfigError,
    XorInstance,
    corr,
    random_assignment,
    round_even,
    round_odd,
    sample_planted_xor,
    solve_pseudo_expectation,
)
from rpcsp.approx_recovery import _pair_weights, _unit_gram, round_even_detail
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
    for trial in range(10):
        seed = cell_seed(400, trial)
        k = (2, 3, 4)[trial % 3]
        n = 6 + trial % 5
        inst = _random_signs_instance(n, 4 * n, k, seed)
        pe = solve_pseudo_expectation(inst, BackendChoice.brute(), seed)
        rows = brute_argmax_rows(inst).astype(float)
        assert pe.info["argmax_count"] == len(rows)
        assert np.allclose(pe.mu1, rows.mean(axis=0), atol=1e-12)
        second = (rows[:, :, None] * rows[:, None, :]).mean(axis=0)
        assert np.allclose(pe.m2, second, atol=1e-12)


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


def test_brute_respects_assignment_cap():
    inst = _random_signs_instance(11, 10, 2, 0)
    with pytest.raises(UnsupportedConfigError):
        solve_pseudo_expectation(
            inst, BackendChoice.brute(assignment_cap=10), 0)


def test_brute_assignment_cap_ceiling():
    assert BackendChoice.brute(assignment_cap=26).assignment_cap == 26
    with pytest.raises(ParameterError):
        BackendChoice.brute(assignment_cap=27)


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


def test_spectral_backend_on_empty_matrix_is_uninformative():
    scopes = np.array([[1, 1], [2, 2]], dtype=np.int64)
    inst = XorInstance(6, 2, scopes, np.ones(2, dtype=np.int8))
    pe = solve_pseudo_expectation(inst, BackendChoice.kikuchi_spectral(), 0)
    assert np.allclose(pe.m2, np.eye(6))


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
    pe = solve_pseudo_expectation(inst, BackendChoice.kikuchi_spectral(), seed, ell=ell)
    pe.validate()
    assert np.array_equal(np.diag(pe.m2), np.ones(n))


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
