"""Tests for the induced-subset matrix, its spectrum, and refutation."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_max_advantage,
    itertools_colex_subsets,
    lexsort_kikuchi,
    naive_kikuchi,
    naive_pair_gram,
)
from rpcsp import (
    BackendChoice,
    ParameterError,
    ResourceLimitError,
    UnsupportedConfigError,
    XorInstance,
    build_kikuchi,
    clean,
    random_assignment,
    refutation_certificate,
    sample_planted_xor,
    solve_xor,
    spectral_norm,
)
from rpcsp.kikuchi import (
    CERT_TOL,
    DEFAULT_BASIS_BYTES,
    DEFAULT_ENTRY_CAP,
    DEFAULT_VERTEX_CAP,
    KikuchiMatrix,
    all_subsets,
    refute_report,
    subset_rank,
    _comb_table,
    _union_rank,
)
from rpcsp.rng import cell_seed, derived_rng


def _random_signs_instance(n, m, k, seed):
    rng = derived_rng(seed, 0)
    scopes = rng.integers(1, n + 1, size=(m, k), dtype=np.int64)
    rhs = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
    return XorInstance(n, k, scopes, rhs)


# ------------------------------------------------------------- subset ranking

def test_subset_rank_is_colex_position():
    table = _comb_table(6, 3)
    subs = all_subsets(6, 3)
    ranks = subset_rank(subs, table)
    # ranks are a bijection onto 0..C(6,3)-1
    assert sorted(ranks.tolist()) == list(range(math.comb(6, 3)))
    # all_subsets enumerates in colex order, so row r has rank r
    assert np.array_equal(ranks, np.arange(math.comb(6, 3)))
    # colex rank = sum_j C(e_j, j+1) over sorted 0-based elements
    for row, r in zip(subs, ranks):
        expected = sum(math.comb(int(e), j + 1) for j, e in enumerate(sorted(row)))
        assert r == expected
    # smallest subset {0,1,2} sits at rank 0
    assert ranks[0] == 0 and subs[0].tolist() == [0, 1, 2]


def test_all_subsets_matches_the_itertools_oracle():
    for n in range(1, 13):
        for ell in range(1, n + 1):
            got = all_subsets(n, ell)
            assert got.dtype == np.int64
            assert np.array_equal(got, itertools_colex_subsets(n, ell)), (n, ell)


# ------------------------------------------------------------------ structure

def test_single_clause_matrix_golden():
    # one 4-clause on n=6 at level 2: C(4,2)*C(2,0)=6 symmetric pairs
    inst = XorInstance(6, 4, np.array([[1, 2, 3, 4]], dtype=np.int64),
                       np.array([-1], dtype=np.int8))
    kik = build_kikuchi(inst, 2)
    assert kik.num_vertices == math.comb(6, 2)
    assert kik.pairs_per_clause == 6
    assert kik.matrix.nnz == 6
    assert kik.used_clauses == 1 and kik.dropped_clauses == 0
    x = random_assignment(6, 1)
    x_c = int(np.prod(x[:4]))
    assert kik.quadratic_form(x) == 6 * (-1) * x_c


def test_pair_level_one_matrix_is_signed_adjacency():
    scopes = np.array([[1, 2], [3, 4]], dtype=np.int64)
    rhs = np.array([1, -1], dtype=np.int8)
    kik = build_kikuchi(XorInstance(4, 2, scopes, rhs), 1)
    dense = kik.matrix.toarray()
    assert dense[0, 1] == 1 and dense[1, 0] == 1
    assert dense[2, 3] == -1 and dense[3, 2] == -1
    assert kik.matrix.nnz == 4
    assert kik.pairs_per_clause == 2


def test_duplicate_clauses_accumulate_weight():
    scopes = np.array([[1, 2], [2, 1], [1, 2]], dtype=np.int64)
    rhs = np.array([1, 1, -1], dtype=np.int8)
    kik = build_kikuchi(XorInstance(3, 2, scopes, rhs), 1)
    assert kik.matrix[0, 1] == 1  # +1 +1 -1
    assert kik.used_clauses == 3


def test_heavy_clause_set_keeps_its_full_weight():
    # 300 copies of one set: a weight past int8, stored exactly as the lexsort builder does.
    scopes = np.array([[1, 2], [2, 1]] * 150 + [[3, 4]], dtype=np.int64)
    inst = XorInstance(4, 2, scopes, np.array([1] * 300 + [-1], dtype=np.int8))
    got, want = build_kikuchi(inst, 1).matrix, lexsort_kikuchi(inst, 1).matrix
    assert got[0, 1] == 300 and got.dtype == np.float64
    assert np.array_equal(got.data, want.data) and np.array_equal(got.indices, want.indices)


# (k, n, ell): pad ell - k/2 of 0, 1 and >= 2, and the boundary pad = n - k
NAIVE_CASES = [
    (2, 6, 1), (2, 6, 2), (2, 7, 3), (2, 5, 4),
    (4, 7, 2), (4, 7, 3), (4, 8, 4), (4, 6, 4),
    (6, 8, 3), (6, 8, 4), (6, 9, 5), (6, 8, 5),
]


@pytest.mark.parametrize("k,n,ell", NAIVE_CASES)
def test_build_kikuchi_matches_naive_oracle(k, n, ell):
    inst = _random_signs_instance(n, 3 * n, k, cell_seed(310, k, n, ell))
    # the clause set {1..k} twice in different orders, and a repeated-entry clause
    extra = np.array([range(1, k + 1), range(k, 0, -1), [1] * k], dtype=np.int64)
    scopes = np.concatenate([inst.scopes, extra])
    rhs = np.concatenate([inst.rhs, np.array([1, 1, -1], dtype=np.int8)])
    inst = XorInstance(n, k, scopes, rhs)
    kik = build_kikuchi(inst, ell)
    assert np.array_equal(kik.matrix.toarray(), naive_kikuchi(inst, ell))
    kept, _ = clean(inst)
    assert kik.used_clauses == kept.m and kik.dropped_clauses == inst.m - kept.m
    assert kik.dropped_clauses >= 1


@pytest.mark.parametrize("k", [2, 4, 6])
def test_build_kikuchi_duplicates_and_cancellation_match_oracle(k):
    n, ell = k + 3, k // 2 + 1
    rng = derived_rng(cell_seed(311, k), 0)
    bases = [rng.choice(np.arange(1, n + 1), size=k, replace=False) for _ in range(4)]
    rows, rhs = [], []
    # set 0 cancels exactly, set 1 nets +2, set 2 nets -1, set 3 cancels over six copies
    for base, signs in zip(bases, ([1, -1], [1, 1, -1, 1], [-1, -1, 1], [1, -1] * 3)):
        for b in signs:
            rows.append(rng.permutation(base))
            rhs.append(b)
    order = rng.permutation(len(rows))
    inst = XorInstance(n, k, np.array(rows, dtype=np.int64)[order],
                       np.array(rhs, dtype=np.int8)[order])
    kik = build_kikuchi(inst, ell)
    assert np.array_equal(kik.matrix.toarray(), naive_kikuchi(inst, ell))
    assert np.unique(np.abs(kik.matrix.data)).tolist() == [1, 2]
    assert kik.used_clauses == inst.m and kik.dropped_clauses == 0


@pytest.mark.parametrize("k", [2, 4, 6])
def test_build_kikuchi_all_clauses_dropped_matches_oracle(k):
    n = k + 2
    scopes = np.array([[1] * k, [2, 2] + list(range(3, k + 1))], dtype=np.int64)
    inst = XorInstance(n, k, scopes, np.array([1, -1], dtype=np.int8))
    kik = build_kikuchi(inst, k // 2 + 1)
    assert kik.matrix.nnz == 0
    assert np.array_equal(kik.matrix.toarray(), naive_kikuchi(inst, k // 2 + 1))
    assert kik.used_clauses == 0 and kik.dropped_clauses == 2


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_union_rank_is_the_rank_of_the_sorted_union(dtype):
    n, h, q = 12, 2, 3
    rng = derived_rng(cell_seed(312, h, q), 0)
    elems = np.array([rng.choice(n, size=h + q, replace=False) for _ in range(200)])
    a, w = np.sort(elems[:, :h], axis=1), np.sort(elems[:, h:], axis=1)
    got = _union_rank([c.astype(dtype) for c in a.T], [c.astype(dtype) for c in w.T],
                      _comb_table(n, h + q, dtype))
    assert got.dtype == dtype
    assert np.array_equal(got, subset_rank(np.sort(elems, axis=1), _comb_table(n, h + q)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_build_kikuchi_matches_the_lexsort_builder(data):
    k = data.draw(st.sampled_from([2, 4, 6, 8]))
    ell = data.draw(st.integers(k // 2, k // 2 + 2))
    n = data.draw(st.integers(k + ell - k // 2, k + 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rows = [rng.integers(1, n + 1, size=k) for _ in range(data.draw(st.integers(0, 20)))]
    rhs = list(rng.choice(np.array([-1, 1], np.int8), size=len(rows)))
    # A few sets, each in several orders; a set whose signs pair off cancels.
    for _ in range(data.draw(st.integers(0, 3))):
        base = rng.choice(np.arange(1, n + 1), size=k, replace=False)
        signs = [1, -1] * data.draw(st.integers(1, 2)) if data.draw(st.booleans()) \
            else list(rng.choice([-1, 1], size=data.draw(st.integers(1, 4))))
        rows += [rng.permutation(base) for _ in signs]
        rhs += signs
    rows.append(rng.integers(1, n + 1, size=k))
    rhs.append(1)
    scopes = np.array(rows, dtype=np.int64)
    if data.draw(st.booleans()):
        scopes[:, 1] = scopes[:, 0]  # every clause repeats an entry and is dropped
    else:
        some = rng.random(len(scopes)) < 0.2
        scopes[some, 1] = scopes[some, 0]  # these repeat an entry
    order = rng.permutation(len(scopes))
    inst = XorInstance(n, k, scopes[order], np.array(rhs, dtype=np.int8)[order])

    got, want = build_kikuchi(inst, ell), lexsort_kikuchi(inst, ell)
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got.matrix, name), getattr(want.matrix, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert got.matrix.data.dtype == np.float64 and got.matrix.indices.dtype == np.int32
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.has_canonical_format
    assert (got.used_clauses, got.dropped_clauses) == (want.used_clauses, want.dropped_clauses)


def test_quadratic_form_identity_random():
    for trial in range(12):
        seed = cell_seed(300, trial)
        k = 2 if trial % 2 == 0 else 4
        n = 8 + trial % 5
        inst = _random_signs_instance(n, 5 * n, k, seed)
        ell = k // 2 if trial % 3 else min(n // 2, k // 2 + 1)
        kik = build_kikuchi(inst, ell)
        kept, _ = clean(inst)
        for j in range(50):
            x = random_assignment(n, cell_seed(301, trial, j))
            lhs = kik.quadratic_form(x)
            rhs = kik.pairs_per_clause * int(
                np.sum(kept.clause_products(x).astype(np.int64) * kept.rhs))
            assert lhs == rhs  # exact integers


def test_parity_vector_entries():
    inst = XorInstance(5, 2, np.array([[1, 2]], dtype=np.int64),
                       np.array([1], dtype=np.int8))
    kik = build_kikuchi(inst, 2)
    x = random_assignment(5, 4)
    z = kik.parity_vector(x)
    subs = all_subsets(5, 2)
    ranks = subset_rank(subs, _comb_table(5, 2))
    for pair, r in zip(subs, ranks):
        assert z[r] == np.prod(x[pair])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_gram_matches_the_pairwise_oracle(data):
    ell = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(ell + 1, 9))
    dim = math.comb(n, ell)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.standard_normal(dim)
    w[rng.random(dim) < 0.3] = 0.0  # some vertices carry nothing
    kik = KikuchiMatrix(n, ell, 2, sp.csr_matrix((dim, dim)), 0, dim, 0, 0)
    got = kik.pair_gram(w)
    assert got.shape == (n, n)
    assert np.allclose(got, naive_pair_gram(w, n, ell), rtol=1e-12, atol=1e-12)
    if ell == 1:
        assert np.allclose(got, np.outer(w, w), rtol=1e-12, atol=1e-12)


# -------------------------------------------------------------------- spectrum

def test_star_spectral_norm_is_sqrt_degree(monkeypatch):
    # 4 disjoint +1 edges sharing vertex 1 => star; largest eigenvalue sqrt(4)
    monkeypatch.setattr("rpcsp.kikuchi.CERT_TOL", 1e-6)
    scopes = np.array([[1, j] for j in range(2, 6)], dtype=np.int64)
    inst = XorInstance(5, 2, scopes, np.ones(4, dtype=np.int8))
    kik = build_kikuchi(inst, 1)
    est, _, _ = spectral_norm(kik.matrix, seed=3)
    assert est == pytest.approx(2.0, rel=1e-5)


def test_power_iteration_matches_dense_eigensolver(monkeypatch):
    monkeypatch.setattr("rpcsp.kikuchi.CERT_TOL", 1e-4)
    for trial in range(8):
        seed = cell_seed(310, trial)
        k = 2 if trial % 2 == 0 else 4
        inst = _random_signs_instance(10 + trial % 4, 60, k, seed)
        kik = build_kikuchi(inst, k // 2)
        exact = np.max(np.abs(np.linalg.eigvalsh(kik.matrix.toarray())))
        est, _, _ = spectral_norm(kik.matrix, seed=seed)
        assert est <= exact + 1e-9 * max(1.0, exact)
        assert est >= (1 - 2e-4) * exact


def test_spectral_norm_bound_holds_when_the_top_of_the_spectrum_is_crowded():
    # One eigenvalue 1 above 1999 at 0.99: an estimate that stops once it
    # stalls reads about 0.991 here, below the norm even after the 1/(1 - tol).
    a = sp.diags([1.0] + [0.99] * 1999)
    assert CERT_TOL == 1e-3
    assert spectral_norm(a)[0] / (1 - CERT_TOL) >= 1.0


def test_spectral_solve_and_norm_multiply_the_built_matrix_without_a_copy(monkeypatch):
    # A csr astype that returns a new matrix copies it; the solve and the norm make none.
    astype, copies = sp.csr_matrix.astype, []

    def recording_astype(self, *args, **kwargs):
        out = astype(self, *args, **kwargs)
        if out is not self:
            copies.append((self.shape, out.dtype))
        return out

    monkeypatch.setattr(sp.csr_matrix, "astype", recording_astype)
    x = random_assignment(12, 4)
    inst = sample_planted_xor(x, 3000, 4, 0.1, 4)
    solve_xor(inst, 3, BackendChoice.kikuchi_spectral(), 4)
    kik = build_kikuchi(inst, 3)
    assert kik.matrix.dtype == np.float64
    spectral_norm(kik.matrix)
    assert copies == []
    kik.matrix.astype(np.int32)  # the recorder sees a real copy
    assert copies == [(kik.matrix.shape, np.int32)]


def test_lanczos_basis_cap_raises_before_the_basis_exists():
    # 600,000 vertices: the certificate's 235-step basis would take 1.13 GB.
    a = sp.csr_matrix((600_000, 600_000))
    assert 235 * 600_000 * 8 > DEFAULT_BASIS_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="basis cap"):
            spectral_norm(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def test_lanczos_basis_cap_admits_a_basis_of_exactly_its_size(monkeypatch):
    # 30 vertices cap the certificate's steps at 30: a 30 x 30 float64 basis of 7,200 bytes.
    a = sp.diags(np.arange(1.0, 31.0))
    monkeypatch.setattr("rpcsp.kikuchi.DEFAULT_BASIS_BYTES", 7200)
    assert spectral_norm(a)[0] == pytest.approx(30.0, rel=1e-3)
    monkeypatch.setattr("rpcsp.kikuchi.DEFAULT_BASIS_BYTES", 7199)
    with pytest.raises(ResourceLimitError, match="basis cap"):
        spectral_norm(a)


def test_refute_checks_the_basis_cap_before_it_builds(monkeypatch):
    def no_build(*args):
        raise AssertionError("build_kikuchi ran before the checks")

    monkeypatch.setattr("rpcsp.kikuchi.build_kikuchi", no_build)
    # 916,895 vertices at ell = 4: the certificate's 238-step basis would take 1.75 GB.
    rng = np.random.default_rng(5)
    inst = XorInstance(70, 4, rng.integers(1, 71, size=(100, 4)),
                       rng.choice(np.array([-1, 1], np.int8), size=100))
    with pytest.raises(ResourceLimitError, match="238-step Lanczos basis on 916895 vertices"):
        refute_report(inst, 4)


def test_certificate_runs_the_step_count_its_failure_probability_needs():
    # (ln(1.648 sqrt(2024) / 1e-6) / sqrt(eps) + 1) / 2 with eps = tol (2 - tol), tol = 1e-3
    rep = refute_report(_random_signs_instance(24, 2000, 4, 5), 3, seed=5)
    assert rep.num_vertices == 2024
    assert rep.lanczos_steps == 204
    assert rep.failure_prob == 1e-6


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("k,pad", [(2, 0), (2, 1), (4, 0), (4, 1)])
def test_spectral_norm_brackets_the_exact_norm(k, pad, planted):
    for trial in range(6):
        seed = cell_seed(330, k, pad, planted, trial)
        n = 7 + trial
        if planted:
            inst = sample_planted_xor(random_assignment(n, seed), 5 * n, k, 0.3, seed)
        else:
            inst = _random_signs_instance(n, 5 * n, k, seed)
        kik = build_kikuchi(inst, k // 2 + pad)
        exact = np.abs(np.linalg.eigvalsh(kik.matrix.toarray().astype(np.float64))).max()
        est, _, _ = spectral_norm(kik.matrix, seed=seed)
        assert exact <= est / (1 - CERT_TOL)
        assert est <= exact * (1 + 1e-9)


# ------------------------------------------------------------------ refutation

def test_certificate_dominates_brute_max():
    for trial in range(30):
        seed = cell_seed(320, trial)
        k = 2 if trial % 2 == 0 else 4
        rng = derived_rng(seed, 5)
        n = int(rng.integers(8, 13))
        inst = _random_signs_instance(n, 6 * n, k, seed)
        cert = refutation_certificate(inst, k // 2, seed=seed)
        assert cert >= brute_max_advantage(inst)


def test_report_fields_are_consistent():
    inst = _random_signs_instance(12, 100, 2, 9)
    rep = refute_report(inst, 1, seed=9)
    n_vert = rep.num_vertices
    recomputed = (rep.spectral_estimate / (1 - CERT_TOL)) * n_vert / (
        inst.m * rep.pairs_per_clause) + rep.dropped_clauses / inst.m
    assert rep.delta_hat == pytest.approx(recomputed, rel=1e-12)
    assert rep.used_clauses + rep.dropped_clauses == inst.m
    assert rep.nnz == build_kikuchi(inst, 1).matrix.nnz


def test_all_clauses_dropped_gives_trivial_certificate():
    scopes = np.array([[2, 2], [5, 5]], dtype=np.int64)
    inst = XorInstance(5, 2, scopes, np.ones(2, dtype=np.int8))
    rep = refute_report(inst, 1, seed=0)
    assert rep.used_clauses == 0
    assert rep.delta_hat == 1.0  # pure dropped-mass bound
    assert rep.spectral_estimate == 0.0 and rep.lanczos_steps == 1


def test_empty_instance_has_no_certificate():
    inst = XorInstance(6, 2, np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int8))
    with pytest.raises(ParameterError, match="empty"):
        refute_report(inst, 1)


def test_build_rejects_odd_arity():
    inst = sample_planted_xor(random_assignment(9, 0), 10, 3, 0.5, 0)
    with pytest.raises(UnsupportedConfigError):
        build_kikuchi(inst, 2)


def test_build_rejects_bad_level():
    inst = _random_signs_instance(10, 10, 4, 3)
    with pytest.raises(ParameterError):
        build_kikuchi(inst, 1)  # ell < k/2
    with pytest.raises(ParameterError):
        build_kikuchi(inst, 11)  # ell > n


def test_build_respects_vertex_cap():
    inst = _random_signs_instance(40, 10, 4, 4)
    assert math.comb(40, 7) == 18_643_560 > DEFAULT_VERTEX_CAP
    with pytest.raises(ResourceLimitError, match="vertices exceed cap"):
        build_kikuchi(inst, 7)


def test_entry_cap_raises_before_any_entry_array_exists():
    # n = 60, m = 20,000, l = 4: 6 C(56, 2) = 9,240 entries per clause, about 185M in all.
    inst = _random_signs_instance(60, 20_000, 4, 7)
    assert inst.m * 6 * math.comb(56, 2) > DEFAULT_ENTRY_CAP
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            build_kikuchi(inst, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000  # one byte per entry would be 185 MB


def test_clause_set_keys_must_fit_int64(monkeypatch):
    # C(70, 34) > 2^63; only a raised vertex cap lets C(70, 17) vertices through.
    monkeypatch.setattr("rpcsp.kikuchi.DEFAULT_VERTEX_CAP", 10 ** 18)
    inst = XorInstance(70, 34, np.arange(1, 35, dtype=np.int64)[None, :], np.ones(1, np.int8))
    with pytest.raises(ResourceLimitError, match="int64"):
        build_kikuchi(inst, 17)
