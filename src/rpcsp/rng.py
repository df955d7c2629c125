"""Derived random streams.

All randomness in the package flows through Philox generators keyed by a
64-bit seed plus an integer stream path. Philox is counter-based, and distinct
spawn keys give statistically independent streams, so a sampler can draw its
hypergraph and its noise coins from different streams: changing the noise rate
re-thresholds the same uniforms and leaves the hypergraph untouched.
"""
from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import ParameterError

MASK64 = (1 << 64) - 1

# Stream ids. Samplers:
STREAM_SCOPES = 0
STREAM_NOISE = 1
STREAM_NEGATIONS = 2
STREAM_PLANTED = 3
# Solver internals:
STREAM_BACKEND = 16
STREAM_PAIRING = 17
STREAM_SPECTRAL = 18


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise ParameterError(f"seed must be an integer, got {type(seed).__name__}")
    if not (0 <= int(seed) <= MASK64):
        raise ParameterError(f"seed must fit in 64 bits, got {seed}")
    return int(seed)


def derived_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the given seed and stream path, deterministic across runs."""
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def cell_seed(base_seed: int, *coords) -> int:
    """Stable 64-bit seed for one sweep cell / trial.

    Hash of the base seed and the cell coordinates (ints, floats, or strings),
    so results do not depend on grid enumeration or scheduling order.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", check_seed(base_seed)))
    for c in coords:
        if isinstance(c, (int, np.integer)):
            h.update(b"i" + struct.pack("<q", int(c)))
        elif isinstance(c, float):
            h.update(b"f" + struct.pack("<d", c))
        else:
            h.update(b"s" + str(c).encode())
    return int.from_bytes(h.digest(), "little")
