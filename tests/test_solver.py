"""Tests for the two-stage XOR solver, arity pairing, and the CSP driver."""
import numpy as np
import pytest
from _oracles import greedy_pair_to_even, naive_stage2
from hypothesis import given, settings
from hypothesis import strategies as st

import rpcsp.exact_rounding
import rpcsp.solver
from rpcsp import (
    BackendChoice,
    CspInstance,
    CspPredicate,
    ParameterError,
    PlantingDistribution,
    XorInstance,
    corr,
    pair_to_even,
    random_assignment,
    sample_planted_csp,
    sample_planted_xor,
    solve_csp,
    solve_xor,
    value,
)
from rpcsp.exact_rounding import majority_round_signed
from rpcsp.instances import clean
from rpcsp.reduction import build_xor_side
from rpcsp.rng import cell_seed, derived_rng


# --------------------------------------------------------------- arity pairing

def test_pair_to_even_shapes_and_determinism():
    inst = sample_planted_xor(random_assignment(30, 1), 501, 3, 0.4, 1)
    a = pair_to_even(inst, 1)
    b = pair_to_even(inst, 1)
    assert a.k == 6
    assert a.m <= inst.m // 2
    assert np.array_equal(a.scopes, b.scopes)
    assert np.array_equal(a.rhs, b.rhs)
    assert not np.array_equal(a.scopes, pair_to_even(inst, 2).scopes)


def test_pair_to_even_scopes_have_distinct_entries():
    inst = sample_planted_xor(random_assignment(25, 2), 400, 3, 0.4, 2)
    paired = pair_to_even(inst, 2)
    for row in paired.scopes:
        assert len(set(row.tolist())) == 6


def test_pair_to_even_preserves_noiseless_plant():
    x = random_assignment(30, 3)
    inst = sample_planted_xor(x, 600, 3, 0.5, 3)
    paired = pair_to_even(inst, 3)
    assert paired.m > 0
    assert value(paired, x) == 1.0


def test_pair_to_even_noise_rate_squares():
    x = random_assignment(40, 4)
    eps = 0.25
    inst = sample_planted_xor(x, 60000, 3, eps, 4)
    paired = pair_to_even(inst, 4)
    agree = value(paired, x)
    predicted = 0.5 + 2 * eps ** 2
    se = np.sqrt(0.25 / paired.m)
    assert abs(agree - predicted) < 4 * se


def test_pair_to_even_empty_input():
    inst = XorInstance(9, 3, np.zeros((0, 3), dtype=np.int64),
                       np.zeros(0, dtype=np.int8))
    paired = pair_to_even(inst, 0)
    assert paired.m == 0 and paired.k == 6


def test_pair_to_even_needs_room_for_disjoint_scopes():
    inst = sample_planted_xor(random_assignment(5, 0), 20, 3, 0.5, 0)
    with pytest.raises(ParameterError):
        pair_to_even(inst, 0)


def test_pair_to_even_drops_repeated_entry_clauses():
    scopes = np.array([[1, 1, 2], [3, 4, 5], [6, 7, 8]], dtype=np.int64)
    rhs = np.array([1, -1, 1], dtype=np.int8)
    paired = pair_to_even(XorInstance(9, 3, scopes, rhs), 1)
    assert paired.m == 1
    assert sorted(paired.scopes[0].tolist()) == [3, 4, 5, 6, 7, 8]
    assert paired.rhs[0] == -1


def _distinct_scope_instance(n, m, k, seed):
    """A k-XOR instance with no two equal scope rows, so a paired half names
    the clause it came from."""
    inst = sample_planted_xor(random_assignment(n, seed), m, k, 0.3, seed)
    keep = np.sort(np.unique(inst.scopes, axis=0, return_index=True)[1])
    return XorInstance(n, k, inst.scopes[keep], inst.rhs[keep])


@pytest.mark.parametrize("n,m,seed", [(12, 300, 1), (20, 2000, 2), (40, 5000, 3)])
def test_pair_to_even_pairs_disjoint_clauses_once(n, m, seed):
    inst = _distinct_scope_instance(n, m, 3, seed)
    index = {tuple(row): i for i, row in enumerate(inst.scopes.tolist())}
    paired = pair_to_even(inst, seed)
    assert paired.m > 0
    used = []
    for row, b in zip(paired.scopes.tolist(), paired.rhs.tolist()):
        assert not set(row[:3]) & set(row[3:])
        i, j = index[tuple(row[:3])], index[tuple(row[3:])]
        assert b == inst.rhs[i] * inst.rhs[j]
        used += [i, j]
    assert len(used) == len(set(used))


def test_pair_to_even_yield_matches_greedy_on_csp3_parity_side():
    # the first half of a 3-XOR side of a csp3-parity benchmark instance
    pred = CspPredicate.k_xor(3)
    q = PlantingDistribution.uniform_satisfying(pred)
    psi = sample_planted_csp(random_assignment(40, 9), 60_000, pred, q, 9)
    side = build_xor_side(psi, (1, 2, 3), 1)
    half = XorInstance(side.n, side.k, side.scopes[:30_000], side.rhs[:30_000])
    rounds = pair_to_even(half, 9).m
    greedy = greedy_pair_to_even(half, 9).m
    assert abs(rounds - greedy) <= 0.01 * greedy


# ------------------------------------------------------------------- solve_xor

def test_solve_xor_k1_majority():
    x = random_assignment(50, 5)
    inst = sample_planted_xor(x, 20000, 1, 0.3, 5)
    rep = solve_xor(inst, None, BackendChoice.brute(), 5, planted=x)
    assert rep.matched_planted is True
    assert np.array_equal(rep.output, x)


def test_solve_xor_odd_brute_recovers_exactly():
    x = random_assignment(12, 6)
    inst = sample_planted_xor(x, 120, 3, 0.5, 6)
    rep = solve_xor(inst, None, BackendChoice.brute(), 6, planted=x)
    assert np.array_equal(rep.output, x)
    assert rep.matched_planted is True
    assert rep.stats["stage1_signs"].shape == (12,)
    h1, h2 = rep.stats["split"]
    assert h1 + h2 == inst.m and h1 == -(-inst.m // 2)
    assert len(rep.stats["stage2_values"]) == 2


def test_solve_xor_even_reports_sign_match():
    x = random_assignment(60, 7)
    eps = 0.4
    m = int(np.ceil(40 / eps ** 2 * 60 * np.log(60)))
    inst = sample_planted_xor(x, m, 2, eps, 7)
    rep = solve_xor(inst, None, BackendChoice.sdp_basic(), 7, planted=x)
    assert rep.matched_planted is True
    assert np.array_equal(rep.output, x) or np.array_equal(rep.output, -x)


def test_solve_xor_odd_spectral_goes_through_pairing():
    x = random_assignment(36, 8)
    inst = sample_planted_xor(x, 90000, 3, 0.5, 8)
    rep = solve_xor(inst, 3, BackendChoice.kikuchi_spectral(), 8, planted=x)
    assert rep.stats["paired_m"] > 0
    assert np.array_equal(rep.output, x)


def test_solve_xor_single_clause_skips_stage_two():
    inst = XorInstance(6, 2, np.array([[1, 2]], dtype=np.int64),
                       np.array([1], dtype=np.int8))
    rep = solve_xor(inst, None, BackendChoice.brute(), 0)
    assert rep.output.shape == (6,)
    assert rep.stats["split"][1] == 0


def test_solve_xor_stage_two_corrects_stage_one():
    # count fixed coordinates: stage-2 majority must not lose accuracy
    x = random_assignment(80, 9)
    eps = 0.3
    m = int(np.ceil(40 / eps ** 2 * 80 * np.log(80)))
    inst = sample_planted_xor(x, m, 2, eps, 9)
    rep = solve_xor(inst, None, BackendChoice.sdp_basic(), 9, planted=x)
    stage1 = rep.stats["stage1_signs"]
    final_err = min(int((rep.output != x).sum()), int((rep.output != -x).sum()))
    stage1_err = min(int((stage1 != x).sum()), int((stage1 != -x).sum()))
    assert final_err <= stage1_err


def test_solver_ell_is_the_kikuchi_level_and_must_be_positive():
    quad = sample_planted_xor(random_assignment(10, 0), 40, 4, 0.5, 0)
    odd = sample_planted_xor(random_assignment(12, 0), 400, 3, 0.5, 0)
    for inst, ell, level in [(quad, None, 2), (quad, 2, 2), (quad, 3, 3), (odd, None, 3)]:
        rep = solve_xor(inst, ell, BackendChoice.kikuchi_spectral(), 0)
        assert rep.output.shape == (inst.n,)
        assert rep.stats["backend_info"]["ell"] == level
    pred = CspPredicate.k_xor(2)
    pair = sample_planted_xor(random_assignment(10, 0), 40, 2, 0.5, 0)
    psi = sample_planted_csp(random_assignment(10, 0), 40, pred,
                             PlantingDistribution.uniform_satisfying(pred), 0)
    for backend in (BackendChoice.brute(), BackendChoice.sdp_basic(),
                    BackendChoice.kikuchi_spectral()):
        with pytest.raises(ParameterError, match="ell"):
            solve_xor(pair, 0, backend, 0)
        with pytest.raises(ParameterError, match="ell"):
            solve_csp(psi, 0, backend, 0)


def test_solve_xor_stage_one_ignores_second_half_order():
    # the candidate comes from the first half only, the vote from the second
    inst = sample_planted_xor(random_assignment(10, 3), 61, 3, 0.3, 3)
    h1 = -(-inst.m // 2)
    perm = derived_rng(3, 99).permutation(inst.m - h1) + h1
    order = np.concatenate([np.arange(h1), perm])
    shuffled = XorInstance(inst.n, inst.k, inst.scopes[order], inst.rhs[order])
    a = solve_xor(inst, None, BackendChoice.brute(), 3)
    b = solve_xor(shuffled, None, BackendChoice.brute(), 3)
    assert np.array_equal(a.stats["stage1_signs"], b.stats["stage1_signs"])
    assert np.array_equal(a.output, b.output)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stage_two_matches_two_separate_rounds(data):
    k = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(k + 2, k + 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # Variables n - 1 and n are kept out of the random clauses. n - 1 gets
    # exactly two votes, from one scope with both signs, so its sum ties;
    # n appears only in a clause with a repeated entry, so it gets none.
    body = rng.integers(1, n - 1, size=(data.draw(st.integers(0, 20)), k))
    rows = np.flatnonzero(rng.random(len(body)) < 0.3)
    body[rows, 1] = body[rows, 0]
    tie = np.concatenate(([n - 1], rng.choice(np.arange(1, n - 1), size=k - 1, replace=False)))
    repeated = np.concatenate(([n, n], rng.integers(1, n + 1, size=k - 2)))
    h2_scopes = np.vstack([body, tie, tie, repeated])
    h2_rhs = np.concatenate([rng.choice(np.array([-1, 1], np.int8), size=len(body)), [1, -1, 1]])
    order = rng.permutation(len(h2_scopes))
    h2 = XorInstance(n, k, h2_scopes[order], h2_rhs[order])
    h1_m = h2.m + data.draw(st.integers(0, 1))
    inst = XorInstance(n, k, np.vstack([rng.integers(1, n + 1, size=(h1_m, k)), h2.scopes]),
                       np.concatenate([rng.choice(np.array([-1, 1], np.int8), size=h1_m), h2.rhs]))

    rep = solve_xor(inst, None, BackendChoice.brute(), 0)
    x_hat = rep.stats["stage1_signs"]
    plus, minus, info_plus, info_minus, values, sign = naive_stage2(h2, x_hat)
    assert info_plus["empty_votes"] >= 1 and info_plus["tied_votes"] >= 1
    assert info_plus["dropped_fraction"] > 0
    assert len(rep.candidates) == 2
    for got, want in zip(rep.candidates, (plus, minus)):
        assert got.dtype == np.int8 and np.array_equal(got, want)
    assert rep.stats["stage2_values"] == values
    assert rep.stats["stage2_sign"] == sign
    assert rep.stats["majority"] == (info_minus if sign == "minus" else info_plus)
    assert np.array_equal(rep.output, minus if sign == "minus" else plus)
    # Both info dicts, from the stage-1 signs and from an arbitrary assignment.
    x_any = rng.choice(np.array([-1, 1], np.int8), size=n)
    for x in (x_hat, x_any):
        want_plus, want_minus, want_ip, want_im, _, _ = naive_stage2(h2, x)
        (got_plus, got_ip), (got_minus, got_im) = majority_round_signed(h2, x)
        assert np.array_equal(got_plus, want_plus) and np.array_equal(got_minus, want_minus)
        assert got_ip == want_ip and got_im == want_im


def test_stage_two_keeps_the_stage_one_sign_of_a_variable_with_no_vote():
    # Noiseless 3-XOR drawn as the benchmark's tiny xor3-brute input of seed 3,
    # op 1492. Stage 1 finds x* exactly; one variable gets no vote from the
    # cleaned second half, and a +1 there would lose a fifth of the clauses.
    rng = np.random.default_rng(np.random.SeedSequence([3, 1492]))
    x_star = rng.choice(np.array([-1, 1], dtype=np.int8), size=10)
    seed = int(rng.integers(2 ** 63))
    rep = solve_xor(sample_planted_xor(x_star, 100, 3, 0.5, seed), None, BackendChoice.brute(), seed)
    assert np.array_equal(rep.stats["stage1_signs"], x_star)
    assert rep.stats["majority"]["empty_votes"] == 1
    assert np.array_equal(rep.output, x_star)
    assert rep.stats["value"] == 1.0


def test_solve_xor_cleans_the_second_half_once(monkeypatch):
    inst = sample_planted_xor(random_assignment(30, 4), 2000, 2, 0.3, 4)
    h2_m = inst.m - (inst.m + 1) // 2
    seen = []

    def counting_clean(arg):
        seen.append(arg)
        return clean(arg)

    monkeypatch.setattr(rpcsp.solver, "clean", counting_clean)
    monkeypatch.setattr(rpcsp.exact_rounding, "clean", counting_clean)
    solve_xor(inst, None, BackendChoice.sdp_basic(), 4)
    on_h2 = [a for a in seen if a.m == h2_m and np.array_equal(a.scopes, inst.scopes[-h2_m:])]
    assert len(on_h2) == 1


# ------------------------------------------------------------------- solve_csp

def _sat3_setup(n, m, seed):
    pred = CspPredicate.k_sat(3)
    q = PlantingDistribution.uniform_satisfying(pred)
    x = random_assignment(n, seed)
    psi = sample_planted_csp(x, m, pred, q, seed)
    return pred, q, x, psi


def test_solve_csp_trivial_predicate_short_circuits():
    pred = CspPredicate.always_true(2)
    q = PlantingDistribution.uniform(2)
    x = random_assignment(8, 1)
    psi = sample_planted_csp(x, 20, pred, q, 1)
    rep = solve_csp(psi, None, BackendChoice.brute(), 1)
    assert np.array_equal(rep.output, np.ones(8, dtype=np.int8))
    assert rep.candidates == []
    assert rep.stats["value"] == 1.0


def test_solve_csp_full_enumeration_finds_perfect_assignment():
    _, _, x, psi = _sat3_setup(40, 12000, 13)
    rep = solve_csp(psi, None, BackendChoice.sdp_basic(), 13, planted=x)
    assert rep.stats["value"] == 1.0
    assert len(rep.candidates) <= 2 ** (3 + 2)
    assert rep.stats["no_perfect_candidate"] is False


def test_solve_csp_fast_path_agrees_with_full_path():
    pred, q, x, psi = _sat3_setup(40, 12000, 14)
    fast = solve_csp(psi, None, BackendChoice.sdp_basic(), 14, q=q, planted=x)
    full = solve_csp(psi, None, BackendChoice.sdp_basic(), 14, planted=x)
    assert fast.stats["value"] == 1.0
    assert np.array_equal(fast.output, full.output)
    # fast path tries only the witness subset of the planting
    assert len(fast.candidates) < len(full.candidates) or len(full.candidates) == 1


def test_solve_csp_flags_unsatisfiable_projection():
    # two clauses with identical scopes but contradictory negations: no
    # assignment can satisfy both parity constraints
    pred = CspPredicate.k_xor(2)
    scopes = np.array([[1, 2], [1, 2]], dtype=np.int64)
    negations = np.array([[1, 1], [1, -1]], dtype=np.int8)
    psi = CspInstance(4, pred, scopes, negations)
    rep = solve_csp(psi, None, BackendChoice.brute(), 2)
    assert rep.stats["no_perfect_candidate"] is True
    assert rep.stats["value"] < 1.0
    assert len(rep.candidates) <= 2 ** (2 + 2)


def test_solve_csp_task_log_tracks_candidates():
    _, _, x, psi = _sat3_setup(30, 9000, 15)
    rep = solve_csp(psi, None, BackendChoice.sdp_basic(), 15, planted=x)
    logged = sum(len(t["values"]) for t in rep.stats["tasks"])
    assert logged == len(rep.candidates)
    assert max(v for t in rep.stats["tasks"] for v in t["values"]) == rep.stats["value"]


def test_solve_csp_value_dominates_all_logged_candidates():
    # mixing two plants leaves no perfect assignment, so every (S, sign)
    # task runs; the reported value must beat each logged candidate
    pred, q, xa, psa = _sat3_setup(14, 120, 21)
    psb = sample_planted_csp(random_assignment(14, 22), 120, pred, q, 22)
    mixed = CspInstance(14, pred, np.vstack([psa.scopes, psb.scopes]),
                        np.vstack([psa.negations, psb.negations]))
    rep = solve_csp(mixed, None, BackendChoice.brute(), 21)
    assert rep.stats["no_perfect_candidate"] is True
    for task in rep.stats["tasks"]:
        assert all(v <= rep.stats["value"] + 1e-12 for v in task["values"])
    assert value(mixed, rep.output) == rep.stats["value"]


def test_solve_csp_matched_planted_semantics():
    pred, q, x, psi = _sat3_setup(60, 20000, 16)
    rep = solve_csp(psi, None, BackendChoice.sdp_basic(), 16, q=q, planted=x)
    assert rep.matched_planted is True
    assert value(psi, rep.output) == 1.0
    # the witness task falls short of value 1 here, so the fast path goes on
    # to the other tasks, each tried once
    tasks = [(tuple(t["s"]), t["sign"]) for t in rep.stats["tasks"]]
    assert rep.stats["fast_path"] is True
    assert max(rep.stats["tasks"][0]["values"]) < 1.0
    assert len(tasks) > 1 and len(set(tasks)) == len(tasks)
