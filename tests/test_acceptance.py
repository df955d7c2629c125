"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; each test also enforces its own wall-clock budget.
"""
import time

import numpy as np

from _oracles import (
    brute_argmax_rows,
    brute_max_advantage,
    naive_complexity,
    random_planting,
)
from rpcsp import (
    BackendChoice,
    CspPredicate,
    PlantingDistribution,
    XorInstance,
    build_kikuchi,
    build_xor_side,
    clean,
    fourier_table,
    distribution_complexity,
    majority_round,
    random_assignment,
    sample_planted_csp,
    sample_planted_xor,
    solve_csp,
    solve_pseudo_expectation,
    solve_xor,
    value,
)
from rpcsp.kikuchi import refute_report
from rpcsp.rng import cell_seed, derived_rng


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} "
          f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.1f}s"


def _random_signs_instance(n, m, k, seed):
    rng = derived_rng(seed, 0)
    scopes = rng.integers(1, n + 1, size=(m, k), dtype=np.int64)
    rhs = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
    return XorInstance(n, k, scopes, rhs)


def test_criterion_01_fourier_exactness():
    t0 = time.perf_counter()
    rng = derived_rng(cell_seed(0, "fourier"), 0)
    worst_plancherel = 0.0
    worst_mean = 0.0
    mismatches = 0
    for trial in range(500):
        k = (2, 3, 4, 5)[trial % 4]
        q = PlantingDistribution(k, mass=random_planting(rng, k))
        table = fourier_table(q)
        plancherel = abs(
            float(np.sum(table.values ** 2))
            - sum(w * w for w in q.mass.values()) / 2 ** k
        )
        mean_err = abs(table.coefficient(()) - 2.0 ** -k)
        worst_plancherel = max(worst_plancherel, plancherel)
        worst_mean = max(worst_mean, mean_err)
        if distribution_complexity(q) != naive_complexity(q):
            mismatches += 1
    ok = worst_plancherel <= 1e-12 and worst_mean <= 1e-12 and mismatches == 0
    _report(1, "fourier-exactness", ok,
            f"500 plantings, plancherel<={worst_plancherel:.1e}, "
            f"mean-coeff<={worst_mean:.1e}, {mismatches} scan mismatches",
            time.perf_counter() - t0, 10.0)


def test_criterion_02_reduction_distribution():
    t0 = time.perf_counter()
    pred = CspPredicate.k_xor(3)
    q = PlantingDistribution.uniform_satisfying(pred)
    clean_sides = 0
    for trial in range(200):
        seed = cell_seed(2, trial)
        x = random_assignment(60, seed)
        psi = sample_planted_csp(x, 5000, pred, q, seed)
        side = build_xor_side(psi, (1, 2, 3), 1)
        clean_sides += value(side, x) == 1.0

    sat = CspPredicate.k_sat(3)
    q_sat = PlantingDistribution.uniform_satisfying(sat)
    seed = cell_seed(2, "bias")
    x = random_assignment(60, seed)
    m = 200000
    psi = sample_planted_csp(x, m, sat, q_sat, seed)
    bias = value(build_xor_side(psi, (1,), 1), x)
    predicted = 0.5 + 4 * fourier_table(q_sat).coefficient((1,))
    se = np.sqrt(predicted * (1 - predicted) / m)
    bias_ok = abs(bias - predicted) < 4 * se
    ok = clean_sides == 200 and bias_ok
    _report(2, "csp-to-xor-reduction", ok,
            f"{clean_sides}/200 noiseless parity sides, singleton bias "
            f"{bias:.4f} vs {predicted:.4f} (4se={4 * se:.4f})",
            time.perf_counter() - t0, 60.0)


def test_criterion_03_certificate_soundness():
    t0 = time.perf_counter()
    sound = 0
    identity_ok = True
    for trial in range(100):
        seed = cell_seed(3, trial)
        k = 2 if trial % 2 == 0 else 4
        rng = derived_rng(seed, 7)
        n = int(rng.integers(8, 15))
        inst = _random_signs_instance(n, 6 * n, k, seed)
        rep = refute_report(inst, k // 2, seed=seed)
        if rep.delta_hat >= brute_max_advantage(inst):
            sound += 1
        kik = build_kikuchi(inst, k // 2)
        kept, _ = clean(inst)
        for j in range(50):
            x = random_assignment(n, cell_seed(3, trial, j))
            direct = kik.pairs_per_clause * int(
                np.sum(kept.clause_products(x).astype(np.int64) * kept.rhs))
            if kik.quadratic_form(x) != direct:
                identity_ok = False
    ok = sound == 100 and identity_ok
    _report(3, "certificate-soundness", ok,
            f"{sound}/100 certificates above brute max, "
            f"quadratic identity exact: {identity_ok}",
            time.perf_counter() - t0, 300.0)


def test_criterion_04_refutation_at_scale():
    t0 = time.perf_counter()
    n, k, ell = 60, 4, 2
    m = int(np.ceil(6 * n ** 1.5 * np.log(n)))
    hits = 0
    worst = 0.0
    for trial in range(20):
        seed = cell_seed(4, trial)
        inst = _random_signs_instance(n, m, k, seed)
        rep = refute_report(inst, ell, seed=seed)
        worst = max(worst, rep.delta_hat)
        hits += rep.delta_hat <= 0.5
    ok = hits >= 18
    _report(4, "refutation-at-scale", ok,
            f"{hits}/20 seeds with delta_hat<=0.5 at m={m} (max {worst:.3f})",
            time.perf_counter() - t0, 300.0)


def test_criterion_05_recovery_arity_one():
    t0 = time.perf_counter()
    n, eps = 200, 0.3
    m = int(np.ceil(30 / eps ** 2 * n * np.log(n)))
    hits = 0
    for trial in range(20):
        seed = cell_seed(5, trial)
        x = random_assignment(n, seed)
        inst = sample_planted_xor(x, m, 1, eps, seed)
        rep = solve_xor(inst, None, BackendChoice.brute(), seed, planted=x)
        hits += bool(np.array_equal(rep.output, x))
    ok = hits >= 19
    _report(5, "recovery-arity-1", ok, f"{hits}/20 exact at m={m}",
            time.perf_counter() - t0, 30.0)


def test_criterion_06_recovery_arity_two_sdp():
    t0 = time.perf_counter()
    n, eps = 300, 0.25
    m = int(np.ceil(40 / eps ** 2 * n * np.log(n)))
    hits = 0
    for trial in range(20):
        seed = cell_seed(6, trial)
        x = random_assignment(n, seed)
        inst = sample_planted_xor(x, m, 2, eps, seed)
        rep = solve_xor(inst, None, BackendChoice.sdp_basic(), seed, planted=x)
        hits += bool(np.array_equal(rep.output, x)
                     or np.array_equal(rep.output, -x))
    ok = hits >= 18
    _report(6, "recovery-arity-2-sdp", ok,
            f"{hits}/20 in {{x*, -x*}} at m={m}",
            time.perf_counter() - t0, 600.0)


def test_criterion_07_recovery_arity_three_brute():
    t0 = time.perf_counter()
    n, eps, m = 14, 0.5, 140
    hits = 0
    for trial in range(40):
        seed = cell_seed(7, trial)
        x = random_assignment(n, seed)
        inst = sample_planted_xor(x, m, 3, eps, seed)
        rep = solve_xor(inst, None, BackendChoice.brute(), seed, planted=x)
        hits += bool(np.array_equal(rep.output, x))
    ok = hits >= 38
    _report(7, "recovery-arity-3-brute", ok, f"{hits}/40 exact",
            time.perf_counter() - t0, 300.0)


def test_criterion_08_majority_rounding():
    t0 = time.perf_counter()
    n, k, eps = 500, 3, 0.3
    m = int(np.ceil(50 / eps ** 2 * n * np.log(n)))
    flips = int(0.02 * n)
    hits = 0
    for trial in range(20):
        seed = cell_seed(8, trial)
        x = random_assignment(n, seed)
        xt = x.copy()
        where = derived_rng(seed, 8).choice(n, size=flips, replace=False)
        xt[where] *= -1
        inst = sample_planted_xor(x, m, k, eps, seed)
        hits += bool(np.array_equal(majority_round(inst, xt), x))
    ok = hits >= 19
    _report(8, "majority-rounding", ok,
            f"{hits}/20 exact from 2% corrupted start at m={m}",
            time.perf_counter() - t0, 120.0)


def test_criterion_09_pseudo_expectation_validity():
    # solve_pseudo_expectation validates internally after every backend, so
    # any pass through criteria 5-8, 10, 11 already enforces the invariants;
    # this runs an explicit battery across all three backends.
    t0 = time.perf_counter()
    checked = 0
    for trial in range(20):
        seed = cell_seed(9, "brute", trial)
        k = (2, 3, 4)[trial % 3]
        n = 8 + trial % 5
        if trial % 2 == 0:
            inst = _random_signs_instance(n, 5 * n, k, seed)
        else:
            inst = sample_planted_xor(
                random_assignment(n, seed), 5 * n, k, 0.4, seed)
        solve_pseudo_expectation(inst, BackendChoice.brute(), seed).validate()
        checked += 1
    for trial in range(6):
        seed = cell_seed(9, "sdp", trial)
        x = random_assignment(80, seed)
        if trial % 3 == 2:
            inst = _random_signs_instance(80, 4000, 2, seed)
        else:
            inst = sample_planted_xor(x, 40000, 2, 0.3, seed)
        solve_pseudo_expectation(inst, BackendChoice.sdp_basic(), seed).validate()
        checked += 1
    for trial in range(6):
        seed = cell_seed(9, "spectral", trial)
        x = random_assignment(30, seed)
        if trial % 3 == 2:
            inst = _random_signs_instance(30, 4000, 4, seed)
        else:
            inst = sample_planted_xor(x, 8000, 4, 0.4, seed)
        solve_pseudo_expectation(inst, BackendChoice.kikuchi_spectral(), seed).validate()
        checked += 1
    _report(9, "pseudo-expectation-validity", True,
            f"{checked} explicit validations across 3 backends "
            "(plus implicit checks inside every solve)",
            time.perf_counter() - t0, 300.0)


def test_criterion_10_moment_transfer():
    t0 = time.perf_counter()
    holds = 0
    for trial in range(200):
        seed = cell_seed(10, trial)
        k = 3 if trial % 2 == 0 else 4
        rng = derived_rng(seed, 11)
        n = int(rng.integers(8, 13))
        if trial % 3 == 0:
            x_ref = random_assignment(n, seed)
            inst = _random_signs_instance(n, 5 * n, k, seed)
        else:
            x_ref = random_assignment(n, seed)
            eps = 0.3 if trial % 3 == 1 else 0.5
            inst = sample_planted_xor(x_ref, 5 * n, k, eps, seed)
        pe = solve_pseudo_expectation(inst, BackendChoice.brute(), seed)
        rows = brute_argmax_rows(inst).astype(np.float64)
        inner = rows @ x_ref.astype(np.float64)
        hypothesis_moment = float(np.mean(inner ** k))
        delta = 1.0 - hypothesis_moment / n ** k
        if k % 2 == 1:
            conclusion = pe.expect_inner_product(x_ref) >= n * (1 - 2 * delta) - 1e-9
        else:
            conclusion = pe.expect_inner_product_sq(x_ref) >= n ** 2 * (1 - 2 * delta) - 1e-9
        holds += bool(conclusion)
    ok = holds == 200
    _report(10, "moment-transfer", ok, f"{holds}/200 inequalities hold",
            time.perf_counter() - t0, 300.0)


def test_criterion_11_csp_candidates_and_end_to_end():
    t0 = time.perf_counter()
    pred = CspPredicate.k_sat(3)
    q = PlantingDistribution.uniform_satisfying(pred)
    n = 120
    m = int(np.ceil(400 * n * np.log(n)))
    hits = 0
    max_candidates = 0
    for trial in range(20):
        seed = cell_seed(11, trial)
        x = random_assignment(n, seed)
        psi = sample_planted_csp(x, m, pred, q, seed)
        rep = solve_csp(psi, None, BackendChoice.sdp_basic(), seed, planted=x)
        max_candidates = max(max_candidates, len(rep.candidates))
        assert len(rep.candidates) <= 2 ** (3 + 2)
        hits += rep.stats["value"] == 1.0

    # candidate bound under other predicates, including a fall-through
    # enumeration where the small subsets are pure noise
    par = CspPredicate.k_xor(2)
    q_par = PlantingDistribution.uniform_satisfying(par)
    for trial in range(3):
        seed = cell_seed(11, "pair", trial)
        x = random_assignment(60, seed)
        psi = sample_planted_csp(x, 40000, par, q_par, seed)
        rep = solve_csp(psi, None, BackendChoice.sdp_basic(), seed, planted=x)
        assert len(rep.candidates) <= 2 ** (2 + 2)
        assert rep.stats["value"] == 1.0
        max_candidates = max(max_candidates, len(rep.candidates))

    ok = hits >= 18
    _report(11, "csp-candidate-bound-and-recovery", ok,
            f"{hits}/20 value-1 assignments at m={m}, "
            f"max candidates {max_candidates} (cap 32)",
            time.perf_counter() - t0, 600.0)


def test_criterion_12_level_trade_off_recovery():
    # Planted 4-XOR below the level-2 threshold: raising the Kikuchi level
    # from k/2 = 2 to 3 must turn failures into exact recoveries.
    t0 = time.perf_counter()
    n, k, eps, m = 40, 4, 0.1, 6400
    hits = {2: 0, 3: 0}
    for s in (1, 2, 3, 4):
        x = random_assignment(n, s)
        inst = sample_planted_xor(x, m, k, eps, s)
        for ell in hits:
            rep = solve_xor(inst, ell, BackendChoice.kikuchi_spectral(), s, planted=x)
            hits[ell] += bool(rep.matched_planted)
    ok = hits[3] >= 3 and hits[2] <= 1
    _report(12, "level-trade-off-recovery", ok,
            f"exact at m={m}: ell=3 {hits[3]}/4, ell=2 {hits[2]}/4",
            time.perf_counter() - t0, 60.0)


def test_criterion_13_level_trade_off_refutation():
    # The same trade-off on random 4-XOR: the level-3 certificate must be
    # markedly tighter than the level-2 one on the same instance.
    t0 = time.perf_counter()
    ratios = []
    for s in (1, 2):
        inst = _random_signs_instance(30, 1000, 4, s)
        low = refute_report(inst, 2, seed=s).delta_hat
        high = refute_report(inst, 3, seed=s).delta_hat
        ratios.append(high / low)
    ok = max(ratios) <= 0.8
    _report(13, "level-trade-off-refutation", ok,
            "delta_hat(ell=3)/delta_hat(ell=2) = "
            + ", ".join(f"{r:.3f}" for r in ratios) + " (at most 0.8)",
            time.perf_counter() - t0, 60.0)
