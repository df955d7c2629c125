"""Tests for co-hyperedge majority voting."""
import numpy as np
import pytest

from _oracles import naive_majority, naive_vote_sums
from rpcsp import XorInstance, majority_round, random_assignment, sample_planted_xor
from rpcsp.exact_rounding import majority_round_detail
from rpcsp.rng import cell_seed, derived_rng


def _random_signs_instance(n, m, k, seed):
    rng = derived_rng(seed, 0)
    scopes = rng.integers(1, n + 1, size=(m, k), dtype=np.int64)
    rhs = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
    return XorInstance(n, k, scopes, rhs)


def test_majority_votes_on_hand_instance():
    scopes = np.array([[1, 2, 3], [2, 2, 4], [3, 1, 2]], dtype=np.int64)
    rhs = np.array([1, -1, 1], dtype=np.int8)
    inst = XorInstance(4, 3, scopes, rhs)
    x = random_assignment(4, 2)
    # clause 2 has a repeated entry and casts no votes, so variable 4 has none;
    # each vote is rhs times the co-scope product
    sums = naive_vote_sums(inst, x)
    assert sums[3] == 0
    assert sums[2] == rhs[0] * x[0] * x[1] + rhs[2] * x[0] * x[1]
    assert sums[0] == rhs[0] * x[1] * x[2] + rhs[2] * x[2] * x[1]
    out, info = majority_round_detail(inst, x)
    assert np.array_equal(out, np.where(sums >= 0, 1, -1))
    assert info["empty_votes"] == 1
    assert info["dropped_fraction"] == pytest.approx(1 / 3)


def test_majority_matches_naive_loop():
    for trial in range(12):
        seed = cell_seed(500, trial)
        k = (2, 3, 4, 5)[trial % 4]
        n = 7 + trial % 6
        inst = _random_signs_instance(n, 6 * n, k, seed)
        xt = random_assignment(n, cell_seed(501, trial))
        assert np.array_equal(majority_round(inst, xt), naive_majority(inst, xt))


def test_majority_recovers_plant_from_corrupted_guess():
    n, k, eps = 120, 3, 0.4
    x = random_assignment(n, 8)
    m = int(np.ceil(50 / eps ** 2 * n * np.log(n)))
    inst = sample_planted_xor(x, m, k, eps, 8)
    xt = x.copy()
    rng = derived_rng(8, 50)
    flips = rng.choice(n, size=max(1, n // 50), replace=False)
    xt[flips] *= -1
    assert np.array_equal(majority_round(inst, xt), x)


def test_majority_sign_invariance_for_odd_arity():
    inst = _random_signs_instance(10, 80, 3, 9)
    xt = random_assignment(10, 10)
    assert np.array_equal(majority_round(inst, xt), majority_round(inst, -xt))


def test_majority_sign_equivariance_for_even_arity_off_ties():
    inst = _random_signs_instance(10, 81, 4, 11)
    # Variables 11 and 12 get no vote: 11 is in no clause, 12 only in one with
    # a repeated entry. Each keeps its sign, so it negates with the assignment.
    unvoted = XorInstance(12, 4, np.vstack([inst.scopes, [[12, 12, 1, 2]]]),
                          np.append(inst.rhs, np.int8(1)))
    for inst, seed in ((inst, 12), (unvoted, 13)):
        xt = random_assignment(inst.n, seed)
        out, info = majority_round_detail(inst, xt)
        out_f, _ = majority_round_detail(inst, -xt)
        untied = naive_vote_sums(inst, xt) != 0
        assert untied.any()
        assert np.array_equal(out[untied], -out_f[untied])
    assert info["empty_votes"] == 2
    assert np.array_equal(out[10:], xt[10:]) and np.array_equal(out_f[10:], -xt[10:])


def test_majority_detail_reports_structure():
    scopes = np.array([[1, 2], [1, 2], [3, 3]], dtype=np.int64)
    rhs = np.array([1, -1, 1], dtype=np.int8)
    inst = XorInstance(4, 2, scopes, rhs)
    out, info = majority_round_detail(inst, np.ones(4, dtype=np.int8))
    # variables 1 and 2 receive one +1 and one -1 vote each: tied -> +1
    assert out[0] == 1 and out[1] == 1
    # variable 4 never appears: empty vote -> its sign in the assignment voted from
    assert out[3] == 1
    assert info["dropped_fraction"] == pytest.approx(1 / 3)
    x = np.array([1, 1, 1, -1], dtype=np.int8)
    assert np.array_equal(majority_round(inst, x), x)


def test_majority_on_noiseless_instance_fixes_everything():
    n = 40
    x = random_assignment(n, 13)
    inst = sample_planted_xor(x, 4000, 4, 0.5, 13)
    xt = x.copy()
    xt[:2] *= -1
    assert np.array_equal(majority_round(inst, xt), x)
