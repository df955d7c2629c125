"""Tests for the two-stage XOR solver, arity pairing, and the CSP driver."""
import numpy as np
import pytest
from _oracles import greedy_pair_to_even, naive_majority_detail, per_task_csp_solve
from hypothesis import given, settings
from hypothesis import strategies as st

import rpcsp.approx_recovery
import rpcsp.exact_rounding
import rpcsp.reduction
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
from rpcsp.approx_recovery import RITZ_RTOL
from rpcsp.exact_rounding import majority_round_detail
from rpcsp.instances import clean
from rpcsp.kikuchi import build_kikuchi
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
    assert len(rep.candidates) == 1 and rep.candidates[0] is rep.output


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
    # The round on the empty second half leaves every variable unvoted.
    assert np.array_equal(rep.output, rep.stats["stage1_signs"])
    assert rep.stats["majority"]["empty_votes"] == 6
    assert rep.stats["value"] == value(inst, rep.output)


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


@pytest.mark.parametrize("k,ell,lift", [(3, 1, "paired to arity 6"), (3, 17, "paired to arity 6"),
                                         (4, 1, "unpaired")])
def test_solve_csp_checks_the_full_side_level_before_any_side(monkeypatch, k, ell, lift):
    calls = []

    def counting_solve_xor(*args, **kwargs):
        calls.append(args)
        return solve_xor(*args, **kwargs)

    monkeypatch.setattr(rpcsp.solver, "solve_xor", counting_solve_xor)
    pred = CspPredicate.k_xor(k)
    psi = sample_planted_csp(random_assignment(16, 0), 600, pred,
                             PlantingDistribution.uniform_satisfying(pred), 0)
    with pytest.raises(ParameterError, match=f"arity-{k} CSP is {lift}: need k/2 <= ell"):
        solve_csp(psi, ell, BackendChoice.kikuchi_spectral(), 0)
    assert calls == []


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
def test_stage_two_is_one_majority_round_from_the_stage_one_signs(data):
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
    want, info = naive_majority_detail(h2, x_hat)
    assert info["empty_votes"] >= 1 and info["tied_votes"] >= 1
    assert info["dropped_fraction"] > 0
    assert rep.output.dtype == np.int8 and np.array_equal(rep.output, want)
    assert rep.output[n - 1] == x_hat[n - 1]
    assert rep.stats["majority"] == info
    assert len(rep.candidates) == 1 and rep.candidates[0] is rep.output
    assert rep.stats["value"] == value(inst, rep.output)
    # The same round from an arbitrary assignment.
    x_any = rng.choice(np.array([-1, 1], np.int8), size=n)
    got, got_info = majority_round_detail(h2, x_any)
    want, want_info = naive_majority_detail(h2, x_any)
    assert np.array_equal(got, want) and got_info == want_info


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
    logged = [v for t in rep.stats["tasks"] for values in t["values"] for v in values]
    assert len(logged) == len(rep.candidates)
    assert max(logged) == rep.stats["value"]


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
        assert all(v <= rep.stats["value"] + 1e-12 for values in task["values"] for v in values)
    assert value(mixed, rep.output) == rep.stats["value"]


def test_solve_csp_matched_planted_semantics():
    pred, q, x, psi = _sat3_setup(60, 20000, 16)
    rep = solve_csp(psi, None, BackendChoice.sdp_basic(), 16, q=q, planted=x)
    assert rep.matched_planted is True
    assert value(psi, rep.output) == 1.0
    # the witness task falls short of value 1 here, so the fast path goes on
    # to the other tasks, each tried once; the witness subset, logged first,
    # has its other sign at that sign's usual place
    subsets = [tuple(t["s"]) for t in rep.stats["tasks"]]
    tasks = [(tuple(t["s"]), sign) for t in rep.stats["tasks"] for sign in t["signs"]]
    indices = sorted(i for t in rep.stats["tasks"] for i in t["task_index"])
    assert rep.stats["fast_path"] is True
    assert max(rep.stats["tasks"][0]["values"][0]) < 1.0
    assert rep.stats["tasks"][0]["task_index"][0] == 0
    assert len(tasks) > 1 and len(set(tasks)) == len(tasks)
    assert len(set(subsets)) == len(subsets) and indices == list(range(len(tasks)))


def _mixed_csp(pred, n, m, seeds):
    """Planted CSPs of one predicate, one per seed, stacked into one instance."""
    q = PlantingDistribution.uniform_satisfying(pred)
    parts = [sample_planted_csp(random_assignment(n, s), m, pred, q, s) for s in seeds]
    return CspInstance(n, pred, np.vstack([p.scopes for p in parts]),
                       np.vstack([p.negations for p in parts]))


def _halves(side):
    h = (side.m + 1) // 2
    return (XorInstance(side.n, side.k, side.scopes[:h], side.rhs[:h]),
            XorInstance(side.n, side.k, side.scopes[h:], side.rhs[h:]))


@pytest.mark.parametrize("pred,backend", [
    (CspPredicate.k_sat(3), BackendChoice.brute()),
    (CspPredicate.k_xor(3), BackendChoice.brute()),
    (CspPredicate.k_sat(2), BackendChoice.sdp_basic()),
    (CspPredicate.k_xor(2), BackendChoice.sdp_basic()),
    (CspPredicate.k_sat(3), BackendChoice.kikuchi_spectral()),
    (CspPredicate.k_xor(2), BackendChoice.kikuchi_spectral()),
], ids=lambda v: getattr(v, "kind", None) or f"k{v.k}-{v.to_hex()}")
def test_solve_csp_candidates_match_one_solve_per_task(monkeypatch, pred, backend):
    # Two plants mixed: no candidate reaches value 1, so every task runs.
    psi = _mixed_csp(pred, 14, 150, (21, 22))
    sides = []

    def counting_side(*args):
        sides.append(args[1:])
        return build_xor_side(*args)

    monkeypatch.setattr(rpcsp.reduction, "build_xor_side", counting_side)
    rep = solve_csp(psi, None, backend, 21)
    want, runs = per_task_csp_solve(psi, None, backend, 21)
    assert rep.stats["no_perfect_candidate"] is True
    assert len(rep.candidates) == len(want) == 4 * (2 ** pred.k - 1)
    # One side build per subset, with the sign tried first.
    assert sides == [(s, 1) for s, sign, _, _ in runs if sign == 1]
    plus = {}
    for s, sign, i, task in runs:
        expected = task.output
        if len(s) > 1 and len(s) % 2 == 1 and s in plus:
            # The odd side's s- votes on its negated second half from the s+ stage-1 signs.
            _, h2 = _halves(build_xor_side(psi, s, sign))
            expected = majority_round_detail(h2, plus[s].stats["stage1_signs"])[0]
        plus.setdefault(s, task)
        assert np.array_equal(rep.candidates[2 * i], expected), (s, sign)
        assert np.array_equal(rep.candidates[2 * i + 1], -expected), (s, sign)
    logged = [(tuple(t["s"]), sign, i) for t in rep.stats["tasks"]
              for sign, i in zip(t["signs"], t["task_index"])]
    assert logged == [(s, sign, i) for s, sign, i, _ in runs]
    # Each stage-1 run is the one-solve-per-task run of its seed: an even
    # subset's two, an odd subset's s+ one, and none at arity 1.
    for t in rep.stats["tasks"]:
        infos = [task.stats["backend_info"] for s, _, _, task in runs
                 if s == tuple(t["s"]) and "backend_info" in task.stats]
        assert t["stage1"] == (infos if len(t["s"]) % 2 == 0 else infos[:1])


def test_solve_csp_builds_one_kikuchi_matrix_per_subset(monkeypatch):
    builds = []

    def counting_build(inst, ell):
        builds.append((inst.k, ell))
        return build_kikuchi(inst, ell)

    monkeypatch.setattr(rpcsp.approx_recovery, "build_kikuchi", counting_build)
    pred = CspPredicate.k_xor(3)
    psi = sample_planted_csp(random_assignment(16, 5), 6000, pred,
                             PlantingDistribution.uniform_satisfying(pred), 5)
    rep = solve_csp(psi, None, BackendChoice.kikuchi_spectral(), 5)
    # One build per subset past arity 1: three 2-XOR sides at ell = 1, then
    # the (1, 2, 3) side paired to arity 6 at ell = 3.
    assert builds == [(2, 1)] * 3 + [(6, 3)]
    want, runs = per_task_csp_solve(psi, None, BackendChoice.kikuchi_spectral(), 5)
    assert rep.stats["value"] == 1.0
    # Every candidate, the even sides' s- ones included, is the one a solve
    # per task gives, though s- runs on the matrix built for s+.
    assert len(rep.candidates) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(rep.candidates, want))
    even = [t for t in rep.stats["tasks"] if len(t["s"]) == 2]
    assert len(even) == 3
    for t in even:
        assert t["signs"] == [1, -1] and t["ell"] == 1
        top, neg = t["stage1"]
        h1, _ = _halves(build_xor_side(psi, tuple(t["s"]), 1))
        eigs = np.linalg.eigvalsh(build_kikuchi(h1, 1).matrix.toarray())
        assert top["top_eigenvalue"] == pytest.approx(eigs[-1], rel=1e-9)
        assert neg["top_eigenvalue"] == pytest.approx(-eigs[0], rel=1e-9)
        for info in (top, neg):
            assert info["residual"] < RITZ_RTOL * abs(info["top_eigenvalue"])


def test_solve_csp_runs_one_lanczos_for_an_even_side_that_wins(monkeypatch):
    # The 2-XOR side (1, 2)+ wins, so its s- task never runs: the subset's
    # one Lanczos run is the s+ one, and arity 1 runs none.
    lanczos = rpcsp.approx_recovery._lanczos
    runs_seen = []

    def counting_lanczos(*args):
        runs_seen.append(args[1])
        return lanczos(*args)

    monkeypatch.setattr(rpcsp.approx_recovery, "_lanczos", counting_lanczos)
    pred = CspPredicate.k_xor(2)
    psi = sample_planted_csp(random_assignment(16, 5), 3000, pred,
                             PlantingDistribution.uniform_satisfying(pred), 5)
    rep = solve_csp(psi, None, BackendChoice.kikuchi_spectral(), 5)
    assert runs_seen == [16]
    want, runs = per_task_csp_solve(psi, None, BackendChoice.kikuchi_spectral(), 5)
    assert rep.stats["value"] == 1.0 and runs[-1][:2] == ((1, 2), 1)
    assert len(rep.candidates) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(rep.candidates, want))
    last = rep.stats["tasks"][-1]
    assert (last["signs"], last["stage1"]) == ([1], [runs[-1][3].stats["backend_info"]])


def test_solve_csp_cleans_each_second_half_once(monkeypatch):
    # Two plants mixed: no candidate reaches value 1, so both signs of every
    # subset run. A subset's second half is cleaned once, and the rounds of
    # both signs get the cleaned copy, so neither cleans it again.
    psi = _mixed_csp(CspPredicate.k_xor(3), 14, 150, (21, 22))
    seen = []

    def counting_clean(arg):
        seen.append(arg)
        return clean(arg)

    monkeypatch.setattr(rpcsp.solver, "clean", counting_clean)
    monkeypatch.setattr(rpcsp.exact_rounding, "clean", counting_clean)
    rep = solve_csp(psi, None, BackendChoice.brute(), 21)
    assert rep.stats["no_perfect_candidate"] is True
    for t in rep.stats["tasks"]:
        if len(t["s"]) < 2:
            continue  # arity 1 has no repeated entries: clean copies nothing
        assert t["signs"] == [1, -1]
        _, h2 = _halves(build_xor_side(psi, tuple(t["s"]), 1))
        assert clean(h2)[0].m < h2.m  # there is something to clean
        on_h2 = [a for a in seen if a.m == h2.m and np.array_equal(a.scopes, h2.scopes)]
        assert len(on_h2) == 1, t["s"]


def test_solve_csp_even_side_wins_at_its_top_end_as_one_solve_per_task_does():
    # The 4-XOR side (1, 2, 3, 4)+ wins, its output that of solve_xor on that
    # side; every s+ task's candidates are those of one solve per task.
    pred = CspPredicate.k_xor(4)
    psi = sample_planted_csp(random_assignment(16, 5), 3000, pred,
                             PlantingDistribution.uniform_satisfying(pred), 5)
    rep = solve_csp(psi, None, BackendChoice.kikuchi_spectral(), 5)
    want, runs = per_task_csp_solve(psi, None, BackendChoice.kikuchi_spectral(), 5)
    assert rep.stats["value"] == 1.0 and runs[-1][:2] == ((1, 2, 3, 4), 1)
    assert np.array_equal(rep.output, want[-1])
    assert len(rep.candidates) == len(want)
    for s, sign, i, task in runs:
        if sign == 1:
            assert np.array_equal(rep.candidates[2 * i], task.output), s
    assert rep.stats["tasks"][-1]["stage1"] == [runs[-1][3].stats["backend_info"]]


@pytest.mark.parametrize("backend", [BackendChoice.brute(), BackendChoice.sdp_basic()],
                         ids=lambda b: b.kind)
def test_solve_csp_fast_path_candidates_match_one_solve_per_task(backend):
    # Literal 2 is true in every accepted pattern, so the witness is (2,)+.
    # Two plants mixed: no candidate reaches value 1 and every task runs, the
    # witness first and its other sign at its usual place, after (1,)+-.
    pred = CspPredicate(2, np.array([1, 1, 0, 0]))
    q = PlantingDistribution.uniform_satisfying(pred)
    psi = _mixed_csp(pred, 14, 150, (21, 22))
    rep = solve_csp(psi, None, backend, 21, q=q)
    want, runs = per_task_csp_solve(psi, None, backend, 21, q=q)
    order = [(s, sign) for s, sign, _, _ in runs][:4]
    assert order == [((2,), 1), ((1,), 1), ((1,), -1), ((2,), -1)]
    assert len(rep.candidates) == len(want) == 12
    assert all(np.array_equal(a, b) for a, b in zip(rep.candidates, want))
    assert [(t["s"], t["signs"], t["task_index"]) for t in rep.stats["tasks"]] == [
        ([2], [1, -1], [0, 3]), ([1], [1, -1], [1, 2]), ([1, 2], [1, -1], [4, 5])]
