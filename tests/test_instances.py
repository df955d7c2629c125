"""Tests for assignments, samplers, predicates, plantings, and file formats."""
import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from _oracles import (
    naive_clean,
    naive_csp_value,
    naive_read_assignment,
    naive_read_csp,
    naive_read_xor,
    naive_write_assignment,
    naive_write_csp,
    naive_write_xor,
    whole_draw_planted_xor,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rpcsp.instances
from rpcsp import (
    CspInstance,
    CspPredicate,
    FormatError,
    ParameterError,
    PlantingDistribution,
    XorInstance,
    clean,
    corr,
    random_assignment,
    sample_planted_csp,
    sample_planted_xor,
    sign_round,
    value,
)
from rpcsp.instances import (
    _INT64,
    _NOISE_BLOCK,
    _READ_BLOCK,
    _WRITE_CHUNK_ROWS,
    _all_pm1,
    _format_rows,
    all_patterns,
    atomic_write_text,
    csp_values,
    pattern_index,
    read_assignment,
    read_csp,
    read_xor,
    validate_assignment,
    write_assignment,
    write_csp,
    write_xor,
)
from rpcsp.rng import cell_seed, derived_rng


# ---------------------------------------------------------------- assignments

def test_random_assignment_is_deterministic_and_signed():
    a = random_assignment(50, 7)
    b = random_assignment(50, 7)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {-1, 1}
    assert not np.array_equal(a, random_assignment(50, 8))


def test_validate_assignment_rejects_bad_values():
    validate_assignment(np.array([1, -1, 1], dtype=np.int8))
    with pytest.raises(ParameterError):
        validate_assignment(np.array([1, 0, 1], dtype=np.int8))
    with pytest.raises(ParameterError):
        validate_assignment(np.array([[1, -1]], dtype=np.int8))
    with pytest.raises(ParameterError):
        validate_assignment(np.zeros(0, dtype=np.int8))


@pytest.mark.parametrize("a", [
    np.array([1.0, -1.0]),
    np.array([1.0, 0.5]),
    np.array([True]),
    np.array([True, False]),
    np.array([0]),
    np.array([2, 1]),
    np.array([np.nan, 1.0]),
    np.array([-np.inf]),
    np.array([]),
    np.zeros(0, dtype=np.int8),
    np.array([-1, 1, 1], dtype=np.int8),
    np.array([-128], dtype=np.int8),
    np.array([1, 255], dtype=np.uint8),
    np.array([[1, -1], [-1, 1]]),
], ids=repr)
def test_pm1_check_agrees_with_isin(a):
    want = bool(np.isin(a, (-1, 1)).all())
    assert _all_pm1(a) is want
    if a.ndim == 1 and a.size:
        rows = np.ones((a.size, 1), dtype=np.int64)
        for make in (lambda: validate_assignment(a), lambda: XorInstance(2, 1, rows, a)):
            if want:
                make()
            else:
                with pytest.raises(ParameterError):
                    make()


def test_sign_round_maps_zero_to_plus_one():
    out = sign_round(np.array([-0.5, 0.0, 2.0]))
    assert np.array_equal(out, np.array([-1, 1, 1]))


def test_corr_basic_cases():
    x = np.array([1, 1, -1, 1], dtype=np.int8)
    assert corr(x, x) == pytest.approx(1.0)
    assert corr(x, -x) == pytest.approx(-1.0)
    assert corr(x, np.zeros(4)) == 0.0


def test_sign_round_preserves_correlation_within_factor_four():
    # corr(x, x_star) = 1 - d with d <= 0.2 forces corr(sgn x, x_star) >= 1 - 4d
    rng = derived_rng(3, 1)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(5, 200))
        sigma = float(rng.uniform(0.05, 0.7))
        x_star = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
        x = x_star + sigma * rng.normal(size=n)
        d = 1.0 - corr(x, x_star)
        if d > 0.2:
            continue
        assert corr(sign_round(x), x_star) >= 1.0 - 4.0 * d - 1e-12
        checked += 1


@given(st.integers(1, 6), st.integers(0, 2 ** 31))
def test_pattern_index_round_trip(k, bits):
    idx = bits % 2 ** k
    y = all_patterns(k)[idx]
    assert pattern_index(y[None, :])[0] == idx


def test_pattern_index_bit_convention():
    # bit j-1 set exactly when y_j == -1
    y = np.array([-1, 1, 1], dtype=np.int8)
    assert pattern_index(y[None, :])[0] == 1
    y = np.array([1, 1, -1], dtype=np.int8)
    assert pattern_index(y[None, :])[0] == 4
    table = all_patterns(3)
    assert table.shape == (8, 3)
    assert np.array_equal(pattern_index(table), np.arange(8))


@given(st.lists(st.integers(1, 8), min_size=1, max_size=6))
def test_clause_products_square_cancellation(indices):
    x = random_assignment(12, 3)
    rhs = np.ones(2, dtype=np.int8)
    inst = XorInstance(12, 2 * len(indices), np.array([indices + indices] * 2), rhs)
    assert np.array_equal(inst.clause_products(x), [1, 1])
    direct = 1
    for i in indices:
        direct *= int(x[i - 1])
    single = XorInstance(12, len(indices), np.array([indices]), rhs[:1])
    assert single.clause_products(x)[0] == direct


# ------------------------------------------------------------- xor instances

def test_xor_instance_validates_index_range():
    with pytest.raises(ParameterError):
        XorInstance(5, 2, np.array([[1, 6]], dtype=np.int64),
                    np.array([1], dtype=np.int8))
    with pytest.raises(ParameterError):
        XorInstance(5, 2, np.array([[0, 3]], dtype=np.int64),
                    np.array([1], dtype=np.int8))


def test_clause_products_matches_loop():
    n = 9
    x = random_assignment(n, 2)
    for k in range(1, 9):
        scopes = derived_rng(k, 0).integers(1, n + 1, size=(60, k), dtype=np.int64)
        scopes[::3, -1] = scopes[::3, 0]  # a repeated entry in every third clause
        inst = XorInstance(n, k, scopes, np.ones(60, dtype=np.int8))
        fast = inst.clause_products(x)
        assert fast.dtype == np.int8 and fast.shape == (60,)
        for row, got in zip(scopes.tolist(), fast.tolist()):
            want = 1
            for i in row:
                want *= int(x[i - 1])
            assert got == want
    empty = XorInstance(n, 3, np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int8))
    got = empty.clause_products(x)
    assert got.dtype == np.int8 and got.shape == (0,)


def test_clean_drops_exactly_repeated_scopes():
    scopes = np.array([[1, 2], [3, 3], [2, 1], [4, 4]], dtype=np.int64)
    rhs = np.array([1, -1, 1, 1], dtype=np.int8)
    inst = XorInstance(4, 2, scopes, rhs)
    kept, frac = clean(inst)
    assert kept.m == 2
    assert frac == 0.5
    assert np.array_equal(kept.scopes, scopes[[0, 2]])


def test_clean_returns_an_instance_with_nothing_to_drop_itself():
    inst = XorInstance(5, 3, np.array([[1, 2, 3], [3, 4, 5]]), np.array([1, -1]))
    kept, frac = clean(inst)
    assert kept is inst and frac == 0.0
    empty = XorInstance(5, 3, np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int8))
    assert clean(empty)[0] is empty
    dirty = XorInstance(5, 3, np.array([[1, 2, 3], [2, 2, 5]]), np.array([1, -1]))
    kept, frac = clean(dirty)
    assert kept is not dirty and frac == 0.5
    assert np.array_equal(kept.scopes, [[1, 2, 3]]) and dirty.m == 2


def test_clean_fraction_on_full_pair_grid():
    # all n^2 ordered pairs: exactly n of them are diagonal
    n = 7
    grid = np.array([(i, j) for i in range(1, n + 1) for j in range(1, n + 1)],
                    dtype=np.int64)
    inst = XorInstance(n, 2, grid, np.ones(n * n, dtype=np.int8))
    _, frac = clean(inst)
    assert frac == pytest.approx(1.0 / n)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_clean_matches_sort_oracle(data):
    k = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(k, k + 4))
    m = data.draw(st.integers(0, 40))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    scopes = rng.integers(1, n + 1, size=(m, k), dtype=np.int64)
    # copy one entry over another in about half the rows, at any two positions
    if k > 1 and m:
        rows = np.flatnonzero(rng.random(m) < 0.5)
        src, dst = rng.integers(0, k, size=(2, rows.size))
        scopes[rows, dst] = scopes[rows, src]
    rhs = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
    inst = XorInstance(n, k, scopes, rhs)
    kept, frac = clean(inst)
    want, want_frac = naive_clean(inst)
    assert np.array_equal(kept.scopes, want.scopes)
    assert np.array_equal(kept.rhs, want.rhs)
    assert frac == want_frac
    if k == 1:
        assert kept.m == m


def test_sample_planted_xor_deterministic():
    x = random_assignment(20, 5)
    a = sample_planted_xor(x, 100, 3, 0.4, 5)
    b = sample_planted_xor(x, 100, 3, 0.4, 5)
    assert np.array_equal(a.scopes, b.scopes)
    assert np.array_equal(a.rhs, b.rhs)


def test_sample_planted_xor_scopes_independent_of_noise():
    # the scope stream must not move when eps changes
    x = random_assignment(20, 5)
    a = sample_planted_xor(x, 100, 3, 0.1, 5)
    b = sample_planted_xor(x, 100, 3, 0.5, 5)
    assert np.array_equal(a.scopes, b.scopes)
    assert not np.array_equal(a.rhs, b.rhs)


def test_sample_planted_xor_noiseless_satisfied_by_plant():
    x = random_assignment(15, 9)
    inst = sample_planted_xor(x, 500, 4, 0.5, 9)
    assert value(inst, x) == 1.0


def test_sample_planted_xor_flip_rate_matches_eps():
    x = random_assignment(30, 2)
    m, eps = 40000, 0.3
    inst = sample_planted_xor(x, m, 2, eps, 2)
    agree = (inst.clause_products(x) == inst.rhs).mean()
    se = np.sqrt(0.25 / m)
    assert abs(agree - (0.5 + eps)) < 4 * se


# Default-sized noise blocks, and 7-clause ones, which put most m through
# several blocks and a short last one.
@pytest.fixture(params=[None, 7], ids=["default-block", "block-7"])
def noise_block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr("rpcsp.instances._NOISE_BLOCK", request.param)


@pytest.mark.parametrize("m, k, eps, seed", [
    (1, 1, 0.5, 0),
    (1000, 3, 0.1, 4),
    (1 << 16, 4, 0.4, 7),
    ((3 << 16) + 5, 2, 0.25, 1),
])
def test_sample_planted_xor_matches_one_whole_noise_draw(noise_block, m, k, eps, seed):
    x = random_assignment(40, seed)
    got = sample_planted_xor(x, m, k, eps, seed)
    want = whole_draw_planted_xor(x, m, k, eps, seed)
    assert np.array_equal(got.scopes, want.scopes)
    assert got.rhs.dtype == np.int8 and got.rhs.tobytes() == want.rhs.tobytes()


def test_sample_planted_xor_holds_its_output_and_a_few_blocks():
    x = random_assignment(300, 1)
    inst, peak = _peak(lambda: sample_planted_xor(x, 1_000_000, 2, 0.25, 1))
    # Drawing the noise whole took the output plus 12 bytes a clause; now two
    # int8 products and a few noise blocks of float64 and int64 remain.
    assert peak <= inst.scopes.nbytes + inst.rhs.nbytes + 2 * inst.m + 4 * _NOISE_BLOCK * 8


def test_sample_planted_xor_rejects_bad_eps():
    x = random_assignment(10, 0)
    for eps in (0.0, -0.1, 0.51):
        with pytest.raises(ParameterError):
            sample_planted_xor(x, 10, 2, eps, 0)


def test_samplers_reject_an_unindexable_clause_count_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking m")

    monkeypatch.setattr(rpcsp.instances, "derived_rng", no_draw)
    x = np.ones(10, dtype=np.int8)
    pred = CspPredicate.k_xor(2)
    q = PlantingDistribution.uniform_satisfying(pred)
    for m in (10 ** 30, 2 ** 62, 10 ** 5000):  # the last has too many digits to format
        with pytest.raises(ParameterError, match="scope array"):
            sample_planted_xor(x, m, 2, 0.5, 0)
        with pytest.raises(ParameterError, match="scope array"):
            sample_planted_csp(x, m, pred, q, 0)


def test_value_on_empty_instance_raises():
    inst = XorInstance(4, 2, np.zeros((0, 2), dtype=np.int64),
                       np.zeros(0, dtype=np.int8))
    with pytest.raises(ParameterError):
        value(inst, random_assignment(4, 0))


# ----------------------------------------------------------------- predicates

def test_k_sat_truth_table():
    pred = CspPredicate.k_sat(3)
    pats = pred.satisfying_patterns()
    assert len(pats) == 7
    assert not pred.evaluate(np.array([-1, -1, -1], dtype=np.int8))
    assert pred.evaluate(np.array([1, -1, -1], dtype=np.int8))
    assert not pred.trivial


def test_k_xor_truth_table():
    pred = CspPredicate.k_xor(3)
    for y in all_patterns(3):
        assert pred.evaluate(y) == (np.prod(y) == 1)
    flipped = CspPredicate.k_xor(3, parity=-1)
    for y in all_patterns(3):
        assert flipped.evaluate(y) == (np.prod(y) == -1)


def test_always_true_is_trivial():
    assert CspPredicate.always_true(2).trivial
    assert len(CspPredicate.always_true(2).satisfying_patterns()) == 4


@given(st.integers(1, 8), st.integers(0, 2 ** 63 - 1))
def test_predicate_hex_round_trip(k, raw):
    table = np.array([(raw >> i) & 1 for i in range(2 ** k)], dtype=np.uint8)
    pred = CspPredicate(k=k, table=table)
    again = CspPredicate.from_hex(k, pred.to_hex())
    assert np.array_equal(again.table, table)


# ------------------------------------------------------------------ plantings

def test_planting_validation():
    with pytest.raises(ParameterError):
        PlantingDistribution(2, mass={(1, 1): 0.5, (1, -1): 0.4})  # sums to 0.9
    q = PlantingDistribution(2, mass={(1, 1): 0.5, (-1, -1): 0.5})
    assert q.prob((1, 1)) == 0.5
    assert q.prob((1, -1)) == 0.0


def test_planting_drops_zero_mass():
    q = PlantingDistribution(2, mass={(1, 1): 1.0, (1, -1): 0.0})
    assert (1, -1) not in q.mass


def test_uniform_satisfying_support():
    pred = CspPredicate.k_sat(2)
    q = PlantingDistribution.uniform_satisfying(pred)
    assert len(q.mass) == 3
    assert all(abs(w - 1 / 3) < 1e-15 for w in q.mass.values())
    assert q.supported_on(pred)
    assert not PlantingDistribution.uniform(2).supported_on(pred)


def test_support_arrays_sorted_by_pattern_index():
    q = PlantingDistribution.uniform_satisfying(CspPredicate.k_sat(3))
    pats, probs = q.support_arrays()
    assert np.array_equal(pattern_index(pats), np.sort(pattern_index(pats)))
    assert probs.sum() == pytest.approx(1.0)


# -------------------------------------------------------------- csp sampling

def test_sample_planted_csp_satisfies_plant_everywhere():
    pred = CspPredicate.k_sat(3)
    q = PlantingDistribution.uniform_satisfying(pred)
    x = random_assignment(25, 4)
    psi = sample_planted_csp(x, 300, pred, q, 4)
    assert value(psi, x) == 1.0


def test_sample_planted_csp_rejects_unsupported_planting():
    pred = CspPredicate.k_xor(2)
    q = PlantingDistribution.uniform(2)  # puts mass on violating patterns
    with pytest.raises(ParameterError):
        sample_planted_csp(random_assignment(10, 0), 10, pred, q, 0)


def test_sample_planted_csp_deterministic():
    pred = CspPredicate.k_sat(3)
    q = PlantingDistribution.uniform_satisfying(pred)
    x = random_assignment(12, 3)
    a = sample_planted_csp(x, 50, pred, q, 3)
    b = sample_planted_csp(x, 50, pred, q, 3)
    assert np.array_equal(a.scopes, b.scopes)
    assert np.array_equal(a.negations, b.negations)


def test_csp_value_matches_naive_predicate_loop():
    pred = CspPredicate.k_sat(3)
    q = PlantingDistribution.uniform_satisfying(pred)
    psi = sample_planted_csp(random_assignment(10, 6), 80, pred, q, 6)
    x = random_assignment(10, 7)
    hits = sum(
        pred.evaluate(neg * x[row - 1])
        for row, neg in zip(psi.scopes, psi.negations)
    )
    assert value(psi, x) == pytest.approx(hits / psi.m)


@pytest.mark.parametrize("pred", [
    CspPredicate.from_hex(1, "1"),
    CspPredicate.from_hex(2, "b"),
    CspPredicate.k_xor(3),
    CspPredicate.k_sat(3),
    CspPredicate.from_hex(3, "5c"),
    CspPredicate.from_hex(4, "e8d1"),
    # Pattern indices of arity 8 fill a uint8; those of arity 9 need a uint16.
    CspPredicate(8, np.arange(256) % 3 == 0),
    CspPredicate(9, np.arange(512) % 5 < 2),
], ids=lambda p: f"k{p.k}-{p.to_hex()[:8]}")
def test_csp_values_of_both_signs_match_the_per_clause_oracle(pred):
    rng = derived_rng(cell_seed(52, "csp_values", pred.to_hex()), pred.k)
    n, m = 9, 300
    signs = np.array([-1, 1], dtype=np.int8)
    psi = CspInstance(n, pred, rng.integers(1, n + 1, size=(m, pred.k)),
                      rng.choice(signs, size=(m, pred.k)))
    for _ in range(4):
        x = rng.choice(signs, size=n)
        plus, minus = csp_values(psi, x)
        assert plus == naive_csp_value(psi, x) == value(psi, x)
        assert minus == naive_csp_value(psi, -x) == value(psi, -x)


# ------------------------------------------------------------------------ rng

def test_cell_seed_stable_and_sensitive():
    a = cell_seed(42, "grid", 3, 0.25)
    assert a == cell_seed(42, "grid", 3, 0.25)
    assert a != cell_seed(42, "grid", 3, 0.5)
    assert a != cell_seed(43, "grid", 3, 0.25)
    assert 0 <= a < 2 ** 64


def test_derived_rng_streams_are_distinct():
    u = derived_rng(9, 0).integers(0, 2 ** 32, size=8)
    v = derived_rng(9, 1).integers(0, 2 ** 32, size=8)
    w = derived_rng(9, 0).integers(0, 2 ** 32, size=8)
    assert np.array_equal(u, w)
    assert not np.array_equal(u, v)


# ---------------------------------------------------------------- file formats

def test_xor_round_trip(tmp_path):
    inst = sample_planted_xor(random_assignment(11, 8), 30, 3, 0.4, 8)
    path = str(tmp_path / "a.xor")
    write_xor(inst, path)
    back = read_xor(path)
    assert back.n == inst.n and back.k == inst.k
    assert np.array_equal(back.scopes, inst.scopes)
    assert np.array_equal(back.rhs, inst.rhs)


def test_csp_round_trip(tmp_path):
    pred = CspPredicate.k_sat(3)
    q = PlantingDistribution.uniform_satisfying(pred)
    psi = sample_planted_csp(random_assignment(9, 2), 25, pred, q, 2)
    path = str(tmp_path / "a.csp")
    write_csp(psi, path)
    back = read_csp(path)
    assert np.array_equal(back.scopes, psi.scopes)
    assert np.array_equal(back.negations, psi.negations)
    assert np.array_equal(back.predicate.table, psi.predicate.table)


def test_assignment_round_trip(tmp_path):
    x = random_assignment(17, 12)
    path = str(tmp_path / "x.assign")
    write_assignment(x, path)
    assert np.array_equal(read_assignment(path), x)


def test_failed_write_leaves_no_temp_file(tmp_path):
    # A failed rename is covered by test_cli's sweep --out DIR case.
    with pytest.raises(TypeError):
        atomic_write_text(str(tmp_path / "a.txt"), 5)
    assert list(tmp_path.iterdir()) == []


def test_read_xor_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.xor"
    bad.write_text("xor 5 1 2\n+1 1\n")  # clause line too short
    with pytest.raises(FormatError):
        read_xor(str(bad))
    bad.write_text("csp 5 1 2\n")
    with pytest.raises(FormatError):
        read_xor(str(bad))
    bad.write_text("xor a 1 2\n+1 1 2\n")  # non-integer header count
    with pytest.raises(FormatError):
        read_xor(str(bad))
    bad.write_text("xor 5 1 -1\n")  # arity -1 asks for an empty body
    with pytest.raises(FormatError):
        read_xor(str(bad))


def test_read_csp_rejects_arity_before_allocating_truth_table(tmp_path):
    bad = tmp_path / "bad.csp"
    bad.write_text("csp 5 1 40 1\n" + "1 +1 " * 40 + "\n")  # 2^40 table bits
    with pytest.raises(FormatError, match="1..20"):
        read_csp(str(bad))


def test_read_assignment_rejects_zero(tmp_path):
    bad = tmp_path / "bad.assign"
    bad.write_text("1 0 -1\n")
    with pytest.raises(FormatError):
        read_assignment(str(bad))


@pytest.mark.parametrize("reader", [read_xor, read_csp, read_assignment])
@pytest.mark.parametrize("content", [
    b"\x89PNG\r\n\x1a\n\x00\x00\xff\xfe",
    b"xor 3 1 1\n+1 \xff\n",
    b"csp 3 1 1 2\n1 \xc3\xa9\n",
    "xor 3 1 1\n+1 \u0663\n".encode(),  # a non-ASCII digit, which int() accepts
    "xor\u00a03 1 1\n+1 1\n".encode(),  # a non-ASCII space, which split() skips
])
def test_readers_reject_non_ascii_files(tmp_path, reader, content):
    path = tmp_path / "bad"
    path.write_bytes(content)
    with pytest.raises(FormatError):
        reader(str(path))


# ------------------------------------------------ codec against the oracles

def _same_bytes(write, naive_write, obj, tmp_path):
    write(obj, str(tmp_path / "new"))
    naive_write(obj, str(tmp_path / "old"))
    return (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


@pytest.mark.parametrize("m,k", [(1, 1), (37, 3), (_WRITE_CHUNK_ROWS + 1, 2)])
def test_write_xor_matches_oracle_bytes(tmp_path, m, k):
    inst = sample_planted_xor(random_assignment(300, m), m, k, 0.3, m)
    assert _same_bytes(write_xor, naive_write_xor, inst, tmp_path)


def test_write_xor_wide_scopes_match_oracle_bytes(tmp_path):
    n = 10 ** 12
    scopes = derived_rng(12, 0).integers(1, n + 1, size=(500, 3), dtype=np.int64)
    scopes[:3] = [[1, n, 10 ** 6], [n - 1, 9, 10], [99, 100, 10 ** 11]]
    rhs = derived_rng(12, 1).choice(np.array([-1, 1], dtype=np.int8), size=500)
    assert _same_bytes(write_xor, naive_write_xor, XorInstance(n, 3, scopes, rhs), tmp_path)


def test_write_xor_empty_instance_matches_oracle_bytes(tmp_path):
    inst = XorInstance(5, 2, np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int8))
    assert _same_bytes(write_xor, naive_write_xor, inst, tmp_path)


@pytest.mark.parametrize("m,k", [(1, 1), (25, 3), (_WRITE_CHUNK_ROWS + 1, 2)])
def test_write_csp_matches_oracle_bytes(tmp_path, m, k):
    pred = CspPredicate.k_sat(k)
    q = PlantingDistribution.uniform_satisfying(pred)
    psi = sample_planted_csp(random_assignment(120, m), m, pred, q, m)
    assert _same_bytes(write_csp, naive_write_csp, psi, tmp_path)


@pytest.mark.parametrize("n", [1, 17, 300])
def test_write_assignment_matches_oracle_bytes(tmp_path, n):
    assert _same_bytes(write_assignment, naive_write_assignment, random_assignment(n, n), tmp_path)


_EDGE_INTS = sorted(
    {0, 1, -1, int(_INT64.min), int(_INT64.max)}
    | {s * v for d in range(1, 19) for v in (10 ** d - 1, 10 ** d) for s in (1, -1)}
)


@st.composite
def _rows_and_signed(draw):
    r, f = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    values = draw(st.lists(st.sampled_from(_EDGE_INTS), min_size=r * f, max_size=r * f))
    signed = draw(st.lists(st.booleans(), min_size=f, max_size=f))
    return np.array(values, dtype=np.int64).reshape(r, f), signed


@settings(max_examples=300, deadline=None)
@given(_rows_and_signed())
def test_format_rows_matches_percent_format(case):
    rows, signed = case
    line = " ".join("%+d" if s else "%d" for s in signed) + "\n"
    expected = (line * rows.shape[0]) % tuple(rows.ravel().tolist())
    assert _format_rows(rows, signed) == expected.encode("ascii")


@pytest.fixture(scope="module")
def codec_path(tmp_path_factory):
    """One file for the reader comparisons; module-scoped so @given can use it."""
    return tmp_path_factory.mktemp("codec") / "f"


def _outcome(reader, content, path):
    """What a reader makes of `content` in `path`: its arrays, or FormatError."""
    path.write_bytes(content.encode())
    try:
        got = reader(str(path))
    except FormatError:
        return "FormatError"
    if isinstance(got, np.ndarray):
        return got.tolist()
    extra = got.rhs if isinstance(got, XorInstance) else got.negations
    return got.n, got.k, got.scopes.tolist(), extra.tolist()


def _headed(kind, body):
    """A one-variable-per-clause file whose header m fits the body's token count."""
    m = max(1, len(body.split()) // 2)
    header = f"xor 9 {m} 1" if kind == "xor" else f"csp 9 {m} 1 2"
    return header + "\n" + body


_READERS = {
    "xor": (read_xor, naive_read_xor),
    "csp": (read_csp, naive_read_csp),
    "assign": (read_assignment, naive_read_assignment),
}
_FRAGMENTS = ["+1", "-1", "1", "2", "9", "0", "007", "+", "-", "--1", "+-1", "1-2",
              "1.5", "1e3", "0x1", "x", ".", "99999999999999999999",
              "9223372036854775807", "-9223372036854775808"]
_GAPS = ["", " ", "  ", "\t", "\n", " \n\t"]
_SIGNS = ["+1", "-1", "1", "+0001"]  # +-1 in every reader's every field


def _joined(gaps, fragments):
    return st.lists(st.tuples(st.sampled_from(gaps), st.sampled_from(fragments)), max_size=8).map(
        lambda parts: "".join(gap + frag for gap, frag in parts))


_BODIES = st.one_of(
    st.text(alphabet="0123456789+- \t\n.ex", max_size=30),
    _joined(_GAPS, _FRAGMENTS),
    _joined(_GAPS[1:], _SIGNS),
    _joined(_GAPS[1:] * 4 + _GAPS, _SIGNS * 4 + _FRAGMENTS),
)


_REAL_FROMSTRING = np.fromstring


def _assert_matches_oracle(kind, body, path):
    """The reader agrees with the split()/int() oracle and lets no warning out."""
    content = body if kind == "assign" else _headed(kind, body)
    new, old = _READERS[kind]
    expected = _outcome(old, content, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(new, content, path) == expected


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_READERS)), body=_BODIES)
def test_readers_match_split_int_oracle(codec_path, kind, body):
    _assert_matches_oracle(kind, body, codec_path)


_NAMED_BODIES = [
    "+1 + 1 2",  # a bare sign merges with the next token in np.fromstring
    " \n\t \n",  # all whitespace parses as [0] in np.fromstring
    "+1 99999999999999999999",  # overflow saturates in np.fromstring
    " 99999999999999999999 + +1",
    "+1 1.5",
    "--1 1",
    "+1 1 -",
    "+1 1-2",
    "+1 1x",
    "+1 3 -1 9",
]


@pytest.mark.parametrize("kind", sorted(_READERS))
@pytest.mark.parametrize("body", _NAMED_BODIES)
def test_readers_match_oracle_on_named_cases(codec_path, kind, body):
    _assert_matches_oracle(kind, body, codec_path)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_readers_match_oracle_on_line_endings(codec_path, eol):
    for kind, body in (("xor", "+1 3 -1 9"), ("csp", "3 +1 9 -1")):
        content = _headed(kind, body).replace("\n", eol) + eol
        new, old = _READERS[kind]
        expected = _outcome(old, content, codec_path)
        assert expected != "FormatError"
        assert _outcome(new, content, codec_path) == expected


def test_read_xor_keeps_integers_at_the_int64_limit(codec_path):
    top = np.iinfo(np.int64).max
    for token, expected in ((f"{top}", (top, 1, [[top]], [1])),
                            (f"{top + 1}", "FormatError"),
                            (f"-{top + 2}", "FormatError")):
        content = f"xor {top} 1 1\n+1 {token}\n"
        assert _outcome(read_xor, content, codec_path) == expected
        assert _outcome(naive_read_xor, content, codec_path) == expected


@pytest.mark.parametrize("token", ["0_1", "\u0663"])
def test_grammar_rejects_tokens_int_accepts(codec_path, token):
    content = _headed("xor", f"+1 {token}")
    assert _outcome(naive_read_xor, content, codec_path) != "FormatError"
    assert _outcome(read_xor, content, codec_path) == "FormatError"


def test_partial_parse_is_rejected_without_warning(tmp_path):
    """A fromstring that stops early is caught by the token count: a
    FormatError and no warning."""
    def truncating_fromstring(text, dtype, sep):
        return _REAL_FROMSTRING(text, dtype=dtype, sep=sep)[:-1]

    x = random_assignment(8, 1)
    write_xor(sample_planted_xor(x, 5, 2, 0.5, 1), str(tmp_path / "a.xor"))
    write_assignment(x, str(tmp_path / "a.assign"))
    with mock.patch.object(np, "fromstring", truncating_fromstring), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError):
            read_xor(str(tmp_path / "a.xor"))
        with pytest.raises(FormatError):
            read_assignment(str(tmp_path / "a.assign"))


def test_a_bare_sign_before_whitespace_is_a_non_integer_token(tmp_path):
    # np.fromstring reads "- " at the end of its text as 0.
    with pytest.raises(FormatError, match="non-integer token in x"):
        rpcsp.instances._parse_ints(b"1 2 - ", "x")
    path = tmp_path / "a.assign"
    path.write_text("+1 - \n")
    with pytest.raises(FormatError, match="non-integer token in assignment"):
        read_assignment(str(path))


def test_read_xor_takes_a_pipe():
    # A pipe has no size to check the header against, so it is read whole.
    r, w = os.pipe()
    try:
        os.write(w, b"xor 9 2 1\n+1 3\n-1 9\n")
        os.close(w)
        inst = read_xor(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert inst.scopes.tolist() == [[3], [9]] and inst.rhs.tolist() == [1, -1]


# ------------------------------------------------- the reader's blocks

@pytest.fixture(params=[1, 2, 3, 7])
def read_block(request, monkeypatch):
    """The readers' block patched down to a few bytes, so cuts fall everywhere."""
    monkeypatch.setattr("rpcsp.instances._READ_BLOCK", request.param)
    return request.param


def _message(reader, path):
    """The message of the FormatError reader raises on path, or None."""
    try:
        reader(str(path))
    except FormatError as e:
        return str(e)
    return None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(_READERS)), body=_BODIES)
def test_readers_match_split_int_oracle_in_small_blocks(codec_path, read_block, kind, body):
    _assert_matches_oracle(kind, body, codec_path)
    # Same message as a read in one block: the cuts change no verdict.
    message = _message(_READERS[kind][0], codec_path)
    with mock.patch.object(rpcsp.instances, "_READ_BLOCK", 1 << 20):
        assert _message(_READERS[kind][0], codec_path) == message


@pytest.mark.parametrize("kind", sorted(_READERS))
@pytest.mark.parametrize("body", _NAMED_BODIES)
def test_readers_match_oracle_on_named_cases_in_small_blocks(codec_path, read_block, kind, body):
    test_readers_match_oracle_on_named_cases(codec_path, kind, body)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_readers_match_oracle_on_line_endings_in_small_blocks(codec_path, read_block, eol):
    # Blocks of 1 to 7 bytes cut some "\r\n" between its two bytes.
    test_readers_match_oracle_on_line_endings(codec_path, eol)


def test_read_xor_keeps_integers_at_the_int64_limit_in_small_blocks(codec_path, read_block):
    test_read_xor_keeps_integers_at_the_int64_limit(codec_path)


def test_header_longer_than_a_block_reads_back(tmp_path, read_block):
    pred = CspPredicate.k_sat(10)  # a 256-digit truth table
    psi = sample_planted_csp(random_assignment(12, 4), 20, pred,
                             PlantingDistribution.uniform_satisfying(pred), 4)
    path = str(tmp_path / "a.csp")
    write_csp(psi, path)
    back = read_csp(path)
    assert np.array_equal(back.predicate.table, pred.table)
    assert np.array_equal(back.scopes, psi.scopes)
    assert np.array_equal(back.negations, psi.negations)


# 4,000 bytes, under the 4,300 digits int() takes, so the oracle reads them too.
@pytest.mark.parametrize("token", [
    "+" + "0" * 4_000 + "7",  # leading zeros: scope 7
    "-" + "0" * 4_000,  # zero: out of range
    "1" * 4_000,  # beyond int64
    "0" * 2_000 + "x" + "0" * 2_000,
    "0" * 4_000 + "+1",
], ids=["leading-zeros", "zero", "beyond-int64", "x-inside", "sign-inside"])
def test_a_token_spanning_many_blocks_parses_as_the_oracle_does(codec_path, monkeypatch, token):
    monkeypatch.setattr("rpcsp.instances._READ_BLOCK", 32)
    texts = []
    parse = rpcsp.instances._parse_ints

    def spy(text, what):
        texts.append(len(text))
        return parse(text, what)

    monkeypatch.setattr("rpcsp.instances._parse_ints", spy)
    content = f"xor 9 2 1\n+1 {token} -1 3\n"
    assert _outcome(read_xor, content, codec_path) == _outcome(naive_read_xor, content, codec_path)
    # The carried part of the token stays short, so no block outgrows _READ_BLOCK.
    assert max(texts) <= 32


def _peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def big_files(tmp_path_factory):
    """A 100,000-clause 3-XOR and 3-SAT instance and their files (1.5 and 2.1 MB)."""
    d = tmp_path_factory.mktemp("big")
    x = random_assignment(1000, 9)
    inst = sample_planted_xor(x, 100_000, 3, 0.3, 9)
    pred = CspPredicate.k_sat(3)
    psi = sample_planted_csp(x, 100_000, pred, PlantingDistribution.uniform_satisfying(pred), 9)
    write_xor(inst, str(d / "a.xor"))
    write_csp(psi, str(d / "a.csp"))
    return inst, psi, d


def test_readers_hold_their_output_and_a_few_blocks(big_files):
    inst, psi, d = big_files
    got, peak = _peak(lambda: read_xor(str(d / "a.xor")))
    assert np.array_equal(got.scopes, inst.scopes) and np.array_equal(got.rhs, inst.rhs)
    # Reading it whole took the output plus 6.6 MB, 25 blocks.
    assert peak <= got.scopes.nbytes + got.rhs.nbytes + 12 * _READ_BLOCK
    got, peak = _peak(lambda: read_csp(str(d / "a.csp")))
    assert np.array_equal(got.scopes, psi.scopes)
    assert np.array_equal(got.negations, psi.negations)
    assert peak <= got.scopes.nbytes + got.negations.nbytes + 12 * _READ_BLOCK


def test_writers_hold_a_few_chunks(big_files, tmp_path):
    inst, psi, _ = big_files
    # A chunk's rows as int64 fields: 4 per 3-XOR clause, 6 per 3-SAT clause.
    _, peak = _peak(lambda: write_xor(inst, str(tmp_path / "a.xor")))
    assert peak <= 5 * _WRITE_CHUNK_ROWS * 4 * 8
    _, peak = _peak(lambda: write_csp(psi, str(tmp_path / "a.csp")))
    assert peak <= 5 * _WRITE_CHUNK_ROWS * 6 * 8


def test_a_header_claiming_more_clauses_than_the_body_holds_allocates_nothing(tmp_path):
    path = tmp_path / "big.xor"
    path.write_text("xor 5 1000000000000000 2\n+1 1 2\n-1 2 3\n")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="expected 3000000000000000 body tokens, found 6"):
            read_xor(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
