"""Boolean Fourier analysis of planting distributions.

Coefficients are taken with respect to the parity characters: for S a subset
of coordinate positions 1..k,

    coeff(S) = 2^-k * sum_y q(y) * prod_{j in S} y_j.

The empty set always gets 2^-k for a probability distribution. The
distribution complexity of q is the smallest nonempty |S| whose coefficient
reaches 4^-k in absolute value; distributions with no such S report
complexity 1 with no witness.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import FormatError, ParameterError
from .instances import PlantingDistribution, atomic_write_text, pattern_index

# Guard band when comparing |coeff| against the 4^-k threshold, so that
# coefficients sitting exactly at the threshold are accepted despite float
# rounding in the transform.
THRESHOLD_GUARD = 1e-14
# walsh_hadamard works in blocks of this many entries: 512 KB of int16, 1 MB
# of int32 (2 MB of float64), whose 1.5-block working set fits a 2 MB per-core
# L2 up to int32. On one 2-core machine (NumPy 2.4.6), a 2^20 transform took,
# at blocks of 2^16, 2^17, 2^18, 2^19 and 2^20 entries:
#   int8     8.0   6.7   6.0   5.5   5.4 ms
#   int16   10.7   9.1   7.1   8.4  11.3 ms
#   int32   13.3  12.1  11.7  17.0  22.9 ms
#   float64 24.0  23.2  30.6  38.9  37.4 ms
# and a 2^24 one at 2^18 took 103 (int8), 152 (int16), 273 (int32) and
# 638 ms (float64).
_WHT_BLOCK = 1 << 18


def _subset_mask(s: Iterable[int], k: int) -> int:
    mask = 0
    for j in s:
        j = int(j)
        if not (1 <= j <= k):
            raise ParameterError(f"subset element {j} outside 1..{k}")
        if mask & (1 << (j - 1)):
            raise ParameterError("subset has a repeated element")
        mask |= 1 << (j - 1)
    return mask


@dataclass(frozen=True)
class FourierTable:
    """All 2^k coefficients, indexed by subset bitmask (bit j-1 <-> position j)."""

    k: int
    values: np.ndarray

    def coefficient(self, s: Iterable[int]) -> float:
        return float(self.values[_subset_mask(s, self.k)])

    def items(self):
        for mask in range(1 << self.k):
            subset = frozenset(j + 1 for j in range(self.k) if (mask >> j) & 1)
            yield subset, float(self.values[mask])


def _butterflies(x: np.ndarray, lo: int, hi: int, tmp: np.ndarray):
    """Stages h = 2^lo, ..., 2^(hi-1) of the transform on contiguous x, in order.

    tmp holds the saved a of each stage and needs x.size // 2 elements.
    """
    for j in range(lo, hi):
        pairs = x.reshape(-1, 2, 1 << j)
        a = tmp[: x.size // 2].reshape(pairs.shape[0], 1 << j)
        np.copyto(a, pairs[:, 0])
        pairs[:, 0] += pairs[:, 1]
        np.subtract(a, pairs[:, 1], out=pairs[:, 1])


def walsh_hadamard(f: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a contiguous length-2^k array, in place.

    Afterwards f[mask] = sum_idx f_old[idx] * (-1)^{popcount(mask & idx)}.
    Stage j writes a+b and a-b for each pair of entries that differ only in
    bit j. The array is walked in blocks of _WHT_BLOCK entries (the whole
    array if smaller). In each block, stages on the low half of the block's
    bits run on a transposed copy, where their runs are long; the block's
    other stages follow in place. The cross-block stages run last over the
    whole array, one block-sized piece at a time. Every entry thus sees
    stages 0, 1, ..., k-1 in that order, each computing a+b and a-b exactly
    as the textbook loop does, so float input gives the same bits. Scratch
    is one block for the transposed copy plus half a block for the saved
    a's: 1.5 blocks of f's dtype, whatever the size of f.
    """
    block = min(f.size, _WHT_BLOCK)
    bits = block.bit_length() - 1
    low = bits // 2
    scratch = np.empty(block + block // 2, dtype=f.dtype)
    turned, tmp = scratch[:block], scratch[block:]
    cols = turned.reshape(1 << low, -1)
    for x in f.reshape(-1, block):
        # x[r * 2^low + c] is grid[r, c] = cols[c, r]: in turned, c's bits lead.
        grid = x.reshape(-1, 1 << low)
        np.copyto(cols, grid.T)
        _butterflies(turned, bits - low, bits, tmp)
        np.copyto(grid, cols.T)
        _butterflies(x, low, bits, tmp)
    h = block
    while h < f.size:
        for a_rows, b_rows in f.reshape(-1, 2, h // block, block):
            for a, b in zip(a_rows, b_rows):
                np.copyto(turned, a)
                a += b
                np.subtract(turned, b, out=b)
        h *= 2
    return f


def fourier_table(q: PlantingDistribution) -> FourierTable:
    """All coefficients at once via the fast Walsh-Hadamard butterfly."""
    k = q.k
    f = np.zeros(1 << k, dtype=np.float64)
    for y, p in q.mass.items():
        f[int(pattern_index(np.array(y)))] += p
    # The sign pattern convention makes the transformed entries exactly the
    # character sums.
    return FourierTable(k, walsh_hadamard(f) / (1 << k))


def subsets_by_size(k: int):
    """Nonempty subsets of 1..k ordered by size, then lexicographically."""
    for r in range(1, k + 1):
        yield from combinations(range(1, k + 1), r)


def distribution_complexity(q: PlantingDistribution) -> tuple[int, frozenset | None]:
    """Smallest nonempty subset size reaching the 4^-k threshold.

    Returns (r, witness). Ties at the same size resolve to the
    lexicographically smallest subset. If no coefficient reaches the
    threshold, returns (1, None).
    """
    table = fourier_table(q)
    threshold = 4.0 ** (-q.k) - THRESHOLD_GUARD
    for s in subsets_by_size(q.k):
        if abs(table.coefficient(s)) >= threshold:
            return len(s), frozenset(s)
    return 1, None


# ---------------------------------------------------------------------------
# planting distribution file format


def write_planting(q: PlantingDistribution, path: str):
    lines = [f"plant {q.k}"]
    pats, probs = q.support_arrays()
    for y, p in zip(pats, probs):
        lines.append(" ".join(f"{int(v):+d}" for v in y) + f" {float(p)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_planting(path: str) -> PlantingDistribution:
    with open(path, "rb") as f:
        data = f.read()
    try:
        # Universal newlines, as a text-mode read of the file would split it.
        lines = io.StringIO(data.decode("ascii"), newline=None)
    except UnicodeDecodeError as e:
        raise FormatError("planting file is not ASCII text") from e
    header = lines.readline().split()
    rows = [line.split() for line in lines if line.strip()]
    if len(header) != 2 or header[0] != "plant":
        raise FormatError("expected header 'plant <k>'")
    try:
        k = int(header[1])
    except ValueError as e:
        raise FormatError("bad arity in plant header") from e
    mass: dict[tuple[int, ...], float] = {}
    for row in rows:
        if len(row) != k + 1:
            raise FormatError(f"expected {k} pattern entries plus a mass, got {len(row)} tokens")
        try:
            y = tuple(int(t) for t in row[:k])
            p = float(row[k])
        except ValueError as e:
            raise FormatError("bad token in planting line") from e
        if any(v not in (-1, 1) for v in y):
            raise FormatError("pattern entries must be +-1")
        if y in mass:
            raise FormatError(f"pattern {y} listed twice")
        mass[y] = p
    try:
        return PlantingDistribution(k, mass)
    except ParameterError as e:
        raise FormatError(str(e)) from e
