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


def walsh_hadamard(f: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a contiguous length-2^k array, in place.

    Afterwards f[mask] = sum_idx f_old[idx] * (-1)^{popcount(mask & idx)}.
    Each butterfly stage writes a+b and a-b exactly, so float input gives the
    same bits as the textbook loop; it needs one half-size temporary.
    """
    h = 1
    while h < f.size:
        pairs = f.reshape(-1, 2, h)
        a = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(a, pairs[:, 1], out=pairs[:, 1])
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
