"""Projection of a planted CSP onto XOR instances over position subsets.

For a nonempty set s of clause positions and a sign, each CSP clause C with
negations z contributes the XOR constraint

    prod_{j in s} x_{i_j} = sign * prod_{j in s} z_j.

Under a planting distribution q, the positive side is a planted |s|-XOR whose
rhs agrees with the planted product with probability
1/2 + 2^(k-1) * coeff_q(s); the negative side flips every rhs.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ParameterError
from .instances import CspInstance, XorInstance


def _positions(s: Iterable[int], k: int) -> tuple[int, ...]:
    pos = sorted(int(j) for j in s)
    if not pos:
        raise ParameterError("position subset must be nonempty")
    if pos[0] < 1 or pos[-1] > k:
        raise ParameterError(f"positions must lie in 1..{k}")
    if len(set(pos)) != len(pos):
        raise ParameterError("position subset has repeats")
    return tuple(pos)


def build_xor_side(psi: CspInstance, s: Iterable[int], sign: int) -> XorInstance:
    """XOR instance for one (subset, sign) pair; clause order is preserved."""
    if sign not in (-1, 1):
        raise ParameterError("sign must be +-1")
    pos = np.array(_positions(s, psi.k), dtype=np.int64) - 1
    scopes = psi.scopes[:, pos]
    rhs = sign * np.prod(psi.negations[:, pos], axis=1, dtype=np.int64)
    return XorInstance(psi.n, len(pos), scopes, rhs.astype(np.int8))
