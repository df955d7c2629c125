"""Tests for the CSP-to-XOR projection."""
import numpy as np
import pytest

from rpcsp import (
    CspInstance,
    CspPredicate,
    ParameterError,
    PlantingDistribution,
    build_xor_side,
    fourier_table,
    random_assignment,
    sample_planted_csp,
    value,
)


def _hand_csp():
    pred = CspPredicate.k_sat(3)
    scopes = np.array([[2, 5, 1], [4, 4, 3]], dtype=np.int64)
    negations = np.array([[1, -1, 1], [-1, 1, 1]], dtype=np.int8)
    return CspInstance(5, pred, scopes, negations)


def _one_clause_csp(scope, negation):
    pred = CspPredicate.k_sat(len(scope))
    return CspInstance(
        9, pred, np.array([scope], dtype=np.int64), np.array([negation], dtype=np.int8)
    )


def test_restrict_picks_positions_in_order():
    psi = _one_clause_csp([7, 3, 9, 3], [1, -1, -1, 1])
    # positions are taken in increasing order, whatever order s lists them in
    side = build_xor_side(psi, (3, 1), 1)
    assert np.array_equal(side.scopes, [[7, 9]])
    assert np.array_equal(side.rhs, [-1])
    assert np.array_equal(build_xor_side(psi, {2}, 1).scopes, [[3]])


def test_restrict_rejects_bad_position_sets():
    psi = _one_clause_csp([7, 3, 9], [1, 1, 1])
    for bad in ((), (0, 1), (1, 4), (2, 2)):
        with pytest.raises(ParameterError):
            build_xor_side(psi, bad, 1)


def test_build_xor_side_exact_on_hand_instance():
    psi = _hand_csp()
    side = build_xor_side(psi, (1, 3), 1)
    assert side.k == 2
    assert np.array_equal(side.scopes, np.array([[2, 1], [4, 3]]))
    # rhs = sign * product of negations at kept positions
    assert np.array_equal(side.rhs, np.array([1 * 1, -1 * 1]))
    flipped = build_xor_side(psi, (1, 3), -1)
    assert np.array_equal(flipped.rhs, -side.rhs)
    assert np.array_equal(flipped.scopes, side.scopes)


def test_build_xor_side_preserves_clause_order():
    pred = CspPredicate.k_sat(3)
    q = PlantingDistribution.uniform_satisfying(pred)
    psi = sample_planted_csp(random_assignment(20, 3), 60, pred, q, 3)
    side = build_xor_side(psi, (2,), 1)
    assert np.array_equal(side.scopes[:, 0], psi.scopes[:, 1])
    assert np.array_equal(side.rhs, psi.negations[:, 1])


def test_parity_planting_gives_noiseless_full_side():
    pred = CspPredicate.k_xor(3)
    q = PlantingDistribution.uniform_satisfying(pred)
    x = random_assignment(30, 11)
    psi = sample_planted_csp(x, 400, pred, q, 11)
    side = build_xor_side(psi, (1, 2, 3), 1)
    assert value(side, x) == 1.0
    # the negated side is violated everywhere
    assert value(build_xor_side(psi, (1, 2, 3), -1), x) == 0.0


def test_sat3_singleton_bias_matches_coefficient():
    pred = CspPredicate.k_sat(3)
    q = PlantingDistribution.uniform_satisfying(pred)
    x = random_assignment(60, 2)
    m = 200000
    psi = sample_planted_csp(x, m, pred, q, 2)
    side = build_xor_side(psi, (1,), 1)
    predicted = 0.5 + 2 ** (3 - 1) * fourier_table(q).coefficient((1,))
    assert predicted == pytest.approx(4 / 7)
    se = np.sqrt(predicted * (1 - predicted) / m)
    assert abs(value(side, x) - predicted) < 4 * se
