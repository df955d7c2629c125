"""Tests for pattern-distribution Fourier analysis and complexity."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    naive_complexity,
    naive_fourier_coefficient,
    random_planting,
    sylvester_hadamard,
    textbook_walsh_hadamard,
)
from rpcsp import (
    CspPredicate,
    FormatError,
    PlantingDistribution,
    distribution_complexity,
    fourier_table,
)
from rpcsp.fourier import (
    _WHT_BLOCK,
    read_planting,
    subsets_by_size,
    walsh_hadamard,
    write_planting,
)
from rpcsp.rng import derived_rng


def _sat3_uniform():
    return PlantingDistribution.uniform_satisfying(CspPredicate.k_sat(3))


# ------------------------------------------------------------------- goldens

def test_sat3_uniform_coefficients():
    # hand computation: 7 equal atoms, all-false excluded
    q = _sat3_uniform()
    table = fourier_table(q)
    assert table.coefficient(()) == pytest.approx(1 / 8, abs=1e-15)
    assert table.coefficient((1,)) == pytest.approx(1 / 56, abs=1e-15)
    assert table.coefficient((1, 2)) == pytest.approx(-1 / 56, abs=1e-15)
    assert table.coefficient((1, 2, 3)) == pytest.approx(1 / 56, abs=1e-15)
    r, witness = distribution_complexity(q)
    assert (r, witness) == (1, frozenset({1}))


def test_parity_uniform_planting_has_full_complexity():
    pred = CspPredicate.k_xor(3)
    q = PlantingDistribution.uniform_satisfying(pred)
    table = fourier_table(q)
    assert table.coefficient((1, 2, 3)) == pytest.approx(1 / 8, abs=1e-15)
    for s in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3)):
        assert table.coefficient(s) == pytest.approx(0.0, abs=1e-15)
    assert distribution_complexity(q) == (3, frozenset({1, 2, 3}))


def test_point_mass_has_complexity_one():
    q = PlantingDistribution.point_mass((1, 1, 1, 1))
    assert distribution_complexity(q) == (1, frozenset({1}))
    assert fourier_table(q).coefficient((1, 2)) == pytest.approx(1 / 16)


def test_uniform_planting_falls_back():
    q = PlantingDistribution.uniform(3)
    r, witness = distribution_complexity(q)
    assert (r, witness) == (1, None)


def test_threshold_boundary_counts_as_witness():
    # coeff({1}) = E[y1]/4 = 1/16 exactly, right at the 4^{-k} cut for k=2
    q = PlantingDistribution(2, mass={
        (1, 1): 5 / 16, (1, -1): 5 / 16, (-1, 1): 3 / 16, (-1, -1): 3 / 16,
    })
    assert fourier_table(q).coefficient((1,)) == pytest.approx(1 / 16, abs=1e-15)
    r, witness = distribution_complexity(q)
    assert (r, witness) == (1, frozenset({1}))


# ---------------------------------------------------------------- properties

@given(st.integers(2, 5), st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_table_matches_direct_definition(k, seed):
    rng = derived_rng(seed, 31)
    q = PlantingDistribution(k, mass=random_planting(rng, k))
    table = fourier_table(q)
    for s in subsets_by_size(k):
        direct = naive_fourier_coefficient(q, s)
        assert abs(table.coefficient(s) - direct) < 1e-12


@given(st.integers(1, 6), st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_plancherel(k, seed):
    rng = derived_rng(seed, 32)
    q = PlantingDistribution(k, mass=random_planting(rng, k))
    table = fourier_table(q)
    lhs = float(np.sum(table.values ** 2))
    rhs = sum(w * w for w in q.mass.values()) / 2 ** k
    assert abs(lhs - rhs) < 1e-12


@given(st.integers(2, 5), st.integers(0, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_complexity_matches_naive_scan(k, seed):
    rng = derived_rng(seed, 33)
    q = PlantingDistribution(k, mass=random_planting(rng, k))
    assert distribution_complexity(q) == naive_complexity(q)


@given(st.integers(2, 4), st.integers(0, 10 ** 9))
@settings(max_examples=30, deadline=None)
def test_complexity_size_invariant_under_position_relabeling(k, seed):
    rng = derived_rng(seed, 34)
    q = PlantingDistribution(k, mass=random_planting(rng, k))
    perm = rng.permutation(k)
    relabeled = PlantingDistribution(k, mass={
        tuple(pattern[perm[j]] for j in range(k)): w
        for pattern, w in q.mass.items()
    })
    assert distribution_complexity(q)[0] == distribution_complexity(relabeled)[0]


def test_mean_coefficient_is_normalization():
    for k in range(1, 6):
        q = PlantingDistribution.uniform(k)
        assert fourier_table(q).coefficient(()) == pytest.approx(2.0 ** -k, abs=1e-15)


def test_subsets_by_size_order():
    seen = list(subsets_by_size(3))
    assert seen == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


# ------------------------------------------------------------ the transform

# Default-sized blocks, and 16-entry ones, which put every size above 2^4
# through the cross-block stages and the piecewise scratch.
@pytest.fixture(params=[None, 16], ids=["default-block", "block-16"])
def wht_block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr("rpcsp.fourier._WHT_BLOCK", request.param)


def _random_table(k, dtype, seed):
    rng = np.random.default_rng(seed)
    if dtype == np.float64:
        return rng.standard_normal(1 << k)
    if dtype == np.int32:
        return rng.integers(-1000, 1001, size=1 << k).astype(np.int32)
    # A narrow type gets as many +-1 steps, at random cells, as its maximum:
    # the cells' absolute values sum to at most that, as a brute histogram's
    # do to m, so every value the transform holds fits.
    steps = np.iinfo(dtype).max
    f = np.zeros(1 << k, dtype=dtype)
    np.add.at(f, rng.integers(0, 1 << k, size=steps),
              rng.choice(np.array([-1, 1], dtype=dtype), size=steps))
    return f


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.float64])
def test_walsh_hadamard_gives_the_textbook_bits(wht_block, dtype):
    for k in range(17):
        f = _random_table(k, dtype, k)
        want = textbook_walsh_hadamard(f)
        got = walsh_hadamard(f)
        assert got is f
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.float64])
def test_walsh_hadamard_is_the_sylvester_product(wht_block, dtype):
    for k in range(11):
        f = _random_table(k, dtype, 100 + k)
        want = sylvester_hadamard(k) @ f
        got = walsh_hadamard(f.copy())
        if dtype != np.float64:
            assert got.dtype == dtype
            assert np.array_equal(got, want), k
        else:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-9), k


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_walsh_hadamard_scratch_is_one_and_a_half_blocks(dtype):
    f = _random_table(22, dtype, 7)
    tracemalloc.start()
    try:
        walsh_hadamard(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A 2^22 table transformed in 1.5 blocks of scratch, plus the ufunc buffers NumPy
    # takes on short runs (one per operand) and room for its views.
    assert peak <= 1.5 * _WHT_BLOCK * f.itemsize + 3 * np.getbufsize() * f.itemsize + 16384


# --------------------------------------------------------------- file format

def test_planting_round_trip(tmp_path):
    rng = derived_rng(5, 35)
    q = PlantingDistribution(4, mass=random_planting(rng, 4))
    path = str(tmp_path / "q.plant")
    write_planting(q, path)
    back = read_planting(path)
    assert back.k == 4
    assert set(back.mass) == set(q.mass)
    for pattern, w in q.mass.items():
        assert back.mass[pattern] == pytest.approx(w, abs=1e-16)


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00plant 1\n+1 1.0\n",  # not ASCII
    b"plant 1\n+1 nan\n-1 1.0\n",  # NaN fails both mass < 0 and mass > 0
    b"plant 1\n+1 inf\n-1 1.0\n",
    b"plant 1\n+1 1e400\n",
    b"plant 1\n+1 -0.5\n-1 1.5\n",
    b"plant 40\n",
])
def test_read_planting_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.plant"
    path.write_bytes(content)
    with pytest.raises(FormatError):
        read_planting(str(path))


def test_read_planting_keeps_text_mode_line_ends(tmp_path):
    path = tmp_path / "q.plant"
    path.write_bytes(b"plant 2\r\n+1 +1 0.25\r-1 -1 0.75\n")
    assert read_planting(str(path)).mass == {(1, 1): 0.25, (-1, -1): 0.75}


@pytest.fixture(scope="module")
def plant_path(tmp_path_factory):
    """One file for the fuzz test; module-scoped so @given can use it."""
    return tmp_path_factory.mktemp("plant") / "f.plant"


@st.composite
def _plant_files(draw):
    """Plant files whose rows mostly fit the header, with a few random bytes spliced in."""
    k = draw(st.integers(-1, 3))
    rows = draw(st.integers(0, 4))
    lines = [f"plant {k}"]
    for _ in range(rows):
        width = max(0, k + draw(st.sampled_from([0] * 6 + [-1, 1])))
        pattern = draw(st.lists(st.sampled_from(["+1", "-1"] * 4 + ["1", "0"]),
                                min_size=width, max_size=width))
        mass = draw(st.sampled_from([repr(1 / rows)] * 12 + [
            "0", "-0.5", "nan", "inf", "1e400", "x"]))
        lines.append(" ".join(pattern + [mass]))
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode()
    cut = draw(st.integers(0, len(text)))
    return text[:cut] + draw(st.just(b"") | st.binary(max_size=3)) + text[cut:]


@settings(max_examples=300, deadline=None)
@given(content=st.binary(max_size=64) | _plant_files())
def test_read_planting_gives_distribution_or_format_error(plant_path, content):
    plant_path.write_bytes(content)
    try:
        q = read_planting(str(plant_path))
    except FormatError:
        return
    assert all(len(y) == q.k and 0.0 < p < np.inf for y, p in q.mass.items())
    assert sum(q.mass.values()) == pytest.approx(1.0)
