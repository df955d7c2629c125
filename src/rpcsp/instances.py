"""Planted XOR and Boolean CSP instances.

Variables take values in {-1,+1} and are indexed 1..n. An XOR clause is an
ordered scope (i_1,...,i_k), possibly with repeats, together with a right-hand
side b in {-1,+1}; the clause asks prod_j x_{i_j} = b. A CSP clause applies a
fixed k-ary predicate to literal-negated variables.

Pattern indexing convention used everywhere (truth tables, planting
distributions): a sign pattern y in {-1,+1}^k maps to the bit index
sum_j 2^(j-1)*[y_j == -1], so the all-plus pattern is index 0.
"""
from __future__ import annotations

import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from .errors import FormatError, ParameterError
from .rng import (
    STREAM_NEGATIONS,
    STREAM_NOISE,
    STREAM_PLANTED,
    STREAM_SCOPES,
    check_seed,
    derived_rng,
)

Assignment = np.ndarray  # shape (n,), int8, entries +-1


# ---------------------------------------------------------------------------
# assignments and small shared helpers


def _all_pm1(a: np.ndarray) -> bool:
    """Whether every entry equals +1 or -1 (true when empty), as np.isin(a, (-1, 1)) decides."""
    return bool(((a == 1) | (a == -1)).all())


def validate_assignment(x: np.ndarray, n: int | None = None) -> Assignment:
    x = np.asarray(x)
    if x.ndim != 1 or x.size == 0:
        raise ParameterError("assignment must be a nonempty vector")
    if not _all_pm1(x):
        raise ParameterError("assignment entries must be +-1")
    if n is not None and x.size != n:
        raise ParameterError(f"assignment has {x.size} entries, expected {n}")
    return x.astype(np.int8)


def random_assignment(n: int, seed: int) -> Assignment:
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = derived_rng(check_seed(seed), STREAM_PLANTED)
    return (2 * rng.integers(0, 2, size=n) - 1).astype(np.int8)


def sign_round(v: np.ndarray) -> np.ndarray:
    """Entrywise sign with sign(0) = +1."""
    return np.where(np.asarray(v) >= 0, 1, -1).astype(np.int8)


def corr(x: np.ndarray, y: np.ndarray) -> float:
    """Normalized inner product <x,y>/(|x||y|); 0 if either vector is zero."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(x @ y / (nx * ny))


def pattern_index(y: np.ndarray) -> np.ndarray:
    """Bit index of sign pattern(s); last axis is the pattern axis."""
    y = np.asarray(y)
    k = y.shape[-1]
    weights = (1 << np.arange(k, dtype=np.int64))
    return ((y < 0).astype(np.int64) @ weights)


def all_patterns(k: int) -> np.ndarray:
    """All 2^k sign patterns as an array, row i = pattern with index i."""
    idx = np.arange(1 << k, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(k)) & 1
    return (1 - 2 * bits).astype(np.int8)


# ---------------------------------------------------------------------------
# XOR instances


def _check_scope_array(scopes: np.ndarray, n: int) -> np.ndarray:
    scopes = np.asarray(scopes, dtype=np.int64)
    if scopes.ndim != 2:
        raise ParameterError("scopes must be a (m, k) array")
    if scopes.size and (scopes.min() < 1 or scopes.max() > n):
        raise ParameterError("scope index out of range 1..n")
    return scopes


@dataclass
class XorInstance:
    """m XOR clauses of arity k over n variables.

    Scopes are stored as a (m, k) integer array, right-hand sides as a (m,)
    +-1 array. Clause order is significant (the solver splits on it) and
    duplicates are permitted. m = 0 is allowed for derived instances; the
    samplers and file readers enforce m >= 1.
    """

    n: int
    k: int
    scopes: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if self.k < 1 or self.k > self.n:
            raise ParameterError("need 1 <= k <= n")
        self.scopes = _check_scope_array(self.scopes, self.n)
        if self.scopes.shape[1] != self.k:
            raise ParameterError("scope arity does not match k")
        self.rhs = np.asarray(self.rhs)
        if self.rhs.shape != (self.scopes.shape[0],):
            raise ParameterError("rhs length does not match clause count")
        if not _all_pm1(self.rhs):
            raise ParameterError("rhs entries must be +-1")
        self.rhs = self.rhs.astype(np.int8)

    @property
    def m(self) -> int:
        return self.scopes.shape[0]

    def clause_products(self, x: Assignment) -> np.ndarray:
        """prod_j x_{i_j} per clause, as a (m,) +-1 array."""
        return _products(x, self.scopes)


def _products(x: Assignment, scopes: np.ndarray) -> np.ndarray:
    """prod_j x_{i_j} per row of a 1-based scope array, as an int8 (m,) array.

    x gets a zero prepended, so each column indexes it as it stands; the
    columns are gathered and multiplied one at a time in int8.
    """
    padded = np.concatenate(([0], np.asarray(x))).astype(np.int8)
    out = padded[scopes[:, 0]]
    for c in range(1, scopes.shape[1]):
        out *= padded[scopes[:, c]]
    return out


def clean(inst: XorInstance) -> tuple[XorInstance, float]:
    """Drop clauses with repeated scope entries.

    Returns the restricted instance (order and multiplicity preserved) and
    the fraction of clauses dropped; inst itself, uncopied, if none is.
    """
    distinct = np.ones(inst.m, dtype=bool)
    for i, j in combinations(range(inst.k), 2):
        distinct &= inst.scopes[:, i] != inst.scopes[:, j]
    if distinct.all():
        return inst, 0.0
    kept = XorInstance(inst.n, inst.k, inst.scopes[distinct], inst.rhs[distinct])
    return kept, float(1.0 - distinct.mean())


def _check_clause_count(m: int, k: int):
    """ParameterError unless m >= 1 and NumPy can index an (m, k) int64 scope array."""
    if m < 1:
        raise ParameterError("m must be >= 1")
    most = np.iinfo(np.intp).max // 8 // k
    if int(m) > most:
        # Not m itself: an m of over 4,300 digits cannot be formatted.
        raise ParameterError(
            f"more than {most} clauses of arity {k} exceed the largest scope array")


def check_eps(eps: float):
    """ParameterError unless eps, the planted bias of sample_planted_xor, lies in (0, 1/2]."""
    if not (0.0 < eps <= 0.5):
        raise ParameterError("eps must lie in (0, 1/2]")


def sample_planted_xor(x_star: Assignment, m: int, k: int, eps: float, seed: int) -> XorInstance:
    """Planted noisy k-XOR.

    Scopes are m i.i.d. uniform draws from [n]^k (with replacement, inside
    each tuple too). Each rhs equals the planted product with probability
    1/2 + eps, independently. eps = 1/2 is the noiseless case.

    The scope stream does not depend on eps: instances with the same seed and
    different eps share their hypergraph.
    """
    x_star = validate_assignment(x_star)
    n = x_star.size
    if not (1 <= k <= n):
        raise ParameterError("need 1 <= k <= n")
    _check_clause_count(m, k)
    check_eps(eps)
    seed = check_seed(seed)
    scopes = derived_rng(seed, STREAM_SCOPES).integers(1, n + 1, size=(m, k), dtype=np.int64)
    u = derived_rng(seed, STREAM_NOISE).random(m)
    planted = _products(x_star, scopes)
    flip = u >= 0.5 + eps
    rhs = np.where(flip, -planted, planted).astype(np.int8)
    return XorInstance(n, k, scopes, rhs)


def value(inst, x: Assignment) -> float:
    """Fraction of clauses satisfied by x (XOR or CSP instance).

    A CSP value comes from the histogram of clause sign patterns (csp_values).
    """
    if isinstance(inst, XorInstance):
        x = validate_assignment(x, inst.n)
        if inst.m == 0:
            raise ParameterError("value of an empty instance is undefined")
        return float(np.mean(inst.clause_products(x) == inst.rhs))
    if isinstance(inst, CspInstance):
        return csp_values(inst, x)[0]
    raise ParameterError(f"unsupported instance type {type(inst).__name__}")


# ---------------------------------------------------------------------------
# predicates, planting distributions, CSP instances


def _check_arity(k: int, what: str):
    if not (1 <= k <= 20):
        raise ParameterError(f"{what} arity must be in 1..20")


@dataclass(frozen=True)
class CspPredicate:
    """k-ary Boolean predicate as a dense truth table.

    table[i] is the value on the sign pattern with index i.
    """

    k: int
    table: np.ndarray

    def __post_init__(self):
        _check_arity(self.k, "predicate")
        t = np.asarray(self.table)
        if t.shape != (1 << self.k,) or not np.isin(t, (0, 1)).all():
            raise ParameterError("truth table must be 2^k entries of 0/1")
        object.__setattr__(self, "table", t.astype(np.uint8))

    @property
    def trivial(self) -> bool:
        return bool(self.table.all())

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        return self.table[pattern_index(y)]

    def satisfying_patterns(self) -> np.ndarray:
        return all_patterns(self.k)[self.table.astype(bool)]

    def to_hex(self) -> str:
        packed = np.packbits(self.table, bitorder="little")
        bits = int.from_bytes(packed.tobytes(), "little")
        width = max(1, ((1 << self.k) + 3) // 4)
        return format(bits, f"0{width}x")

    @classmethod
    def from_hex(cls, k: int, hex_str: str) -> "CspPredicate":
        _check_arity(k, "predicate")  # before the 2^k-bit table is allocated
        try:
            bits = int(hex_str, 16)
        except ValueError as e:
            raise FormatError(f"bad truth table hex {hex_str!r}") from e
        if bits < 0 or bits >> (1 << k):
            raise FormatError("truth table hex does not fit 2^k bits")
        raw = bits.to_bytes(((1 << k) + 7) // 8, "little")
        table = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[: 1 << k]
        return cls(k, table)

    @classmethod
    def k_sat(cls, k: int) -> "CspPredicate":
        """OR of k literals: false only on the all-minus pattern."""
        table = np.ones(1 << k, dtype=np.uint8)
        table[(1 << k) - 1] = 0
        return cls(k, table)

    @classmethod
    def k_xor(cls, k: int, parity: int = 1) -> "CspPredicate":
        """Product of the k literals equals `parity`."""
        if parity not in (-1, 1):
            raise ParameterError("parity must be +-1")
        prods = all_patterns(k).prod(axis=1)
        return cls(k, (prods == parity).astype(np.uint8))

    @classmethod
    def always_true(cls, k: int) -> "CspPredicate":
        return cls(k, np.ones(1 << k, dtype=np.uint8))


@dataclass(frozen=True)
class PlantingDistribution:
    """Distribution over sign patterns in {-1,+1}^k used to plant clauses."""

    k: int
    mass: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_arity(self.k, "planting")
        norm = {}
        for y, p in self.mass.items():
            y = tuple(int(v) for v in y)
            if len(y) != self.k or any(v not in (-1, 1) for v in y):
                raise ParameterError(f"bad pattern {y}")
            if y in norm:
                raise ParameterError(f"pattern {y} listed twice")
            p = float(p)
            if not (0.0 <= p < np.inf):
                raise ParameterError("masses must be finite and nonnegative")
            if p > 0.0:
                norm[y] = p
        object.__setattr__(self, "mass", norm)
        self.validate()

    def validate(self):
        total = sum(self.mass.values())
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"masses sum to {total!r}, not 1")

    def prob(self, y) -> float:
        return self.mass.get(tuple(int(v) for v in y), 0.0)

    def support_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Support patterns (sorted by pattern index) and their masses."""
        items = sorted(self.mass.items(), key=lambda kv: pattern_index(np.array(kv[0])))
        pats = np.array([y for y, _ in items], dtype=np.int8)
        probs = np.array([p for _, p in items], dtype=np.float64)
        return pats, probs

    def supported_on(self, pred: CspPredicate) -> bool:
        if pred.k != self.k:
            return False
        return all(pred.evaluate(np.array(y)) == 1 for y in self.mass)

    @classmethod
    def uniform_over(cls, patterns) -> "PlantingDistribution":
        pats = [tuple(int(v) for v in y) for y in patterns]
        if not pats:
            raise ParameterError("need at least one support pattern")
        return cls(len(pats[0]), {y: 1.0 / len(pats) for y in pats})

    @classmethod
    def uniform_satisfying(cls, pred: CspPredicate) -> "PlantingDistribution":
        return cls.uniform_over(pred.satisfying_patterns())

    @classmethod
    def point_mass(cls, y) -> "PlantingDistribution":
        y = tuple(int(v) for v in y)
        return cls(len(y), {y: 1.0})

    @classmethod
    def uniform(cls, k: int) -> "PlantingDistribution":
        return cls.uniform_over(all_patterns(k))


@dataclass
class CspInstance:
    """m applications of one predicate with per-clause literal negations."""

    n: int
    predicate: CspPredicate
    scopes: np.ndarray
    negations: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        k = self.predicate.k
        if k > self.n:
            raise ParameterError("need k <= n")
        self.scopes = _check_scope_array(self.scopes, self.n)
        if self.scopes.shape[1] != k:
            raise ParameterError("scope arity does not match predicate")
        neg = np.asarray(self.negations)
        if neg.shape != self.scopes.shape:
            raise ParameterError("negations shape must match scopes")
        if not _all_pm1(neg):
            raise ParameterError("negations must be +-1")
        self.negations = neg.astype(np.int8)

    @property
    def k(self) -> int:
        return self.predicate.k

    @property
    def m(self) -> int:
        return self.scopes.shape[0]


def csp_values(inst: CspInstance, x: Assignment) -> tuple[float, float]:
    """(value(inst, x), value(inst, -x)) from one histogram of clause patterns.

    Clause c's pattern bit j is [x_{i_j} < 0] xor [neg_j < 0], set where the
    variable and its negation sign differ. One bincount of the pattern
    indices gives counts, and value(x) = counts . table / m. Negating x
    flips every bit, sending index p to 2^k - 1 - p, so value(-x) is the
    reversed counts . table / m.
    """
    x = validate_assignment(x, inst.n)
    if inst.m == 0:
        raise ParameterError("value of an empty instance is undefined")
    padded = np.concatenate(([0], x)).astype(np.int8)
    index = np.zeros(inst.m, dtype=np.intp)
    for j in range(inst.k):
        index |= (padded[inst.scopes[:, j]] != inst.negations[:, j]).astype(np.intp) << j
    counts = np.bincount(index, minlength=1 << inst.k)
    table = inst.predicate.table
    return float(counts @ table) / inst.m, float(counts[::-1] @ table) / inst.m


def sample_planted_csp(
    x_star: Assignment,
    m: int,
    predicate: CspPredicate,
    q: PlantingDistribution,
    seed: int,
) -> CspInstance:
    """Planted CSP: scopes uniform from [n]^k, negations planted through q.

    Literal negations satisfy P[neg = y] = q(y * x_star_scope) per clause,
    so the planted-through pattern neg * x_star_scope is distributed as q.
    When q is supported on the predicate's satisfying set, x_star satisfies
    every clause.
    """
    x_star = validate_assignment(x_star)
    n = x_star.size
    k = predicate.k
    _check_clause_count(m, k)
    if k > n:
        raise ParameterError("need k <= n")
    if q.k != k:
        raise ParameterError("planting arity does not match predicate")
    q.validate()
    if not q.supported_on(predicate):
        raise ParameterError("planting distribution puts mass on falsifying patterns")
    seed = check_seed(seed)
    scopes = derived_rng(seed, STREAM_SCOPES).integers(1, n + 1, size=(m, k), dtype=np.int64)
    pats, probs = q.support_arrays()
    pick = derived_rng(seed, STREAM_NEGATIONS).choice(len(pats), size=m, p=probs)
    negations = (pats[pick] * x_star[scopes - 1]).astype(np.int8)
    return CspInstance(n, predicate, scopes, negations)


# ---------------------------------------------------------------------------
# file formats
#
# Instance and assignment files are ASCII text: an optional header line, then
# a body of decimal integers with an optional sign, separated by whitespace.
# One codec moves every body between a (rows, fields) int array and text, with
# no Python object per token. The writer lays each row chunk out as a uint8
# array of fixed-width cells, one decimal digit per integer division, and
# drops the unused bytes with one mask; the reader parses with np.fromstring.

_TMP_SUFFIX = ".tmp"
# Rows formatted per chunk; bounds the writer's digit buffer.
_WRITE_CHUNK_ROWS = 1 << 14
# Body bytes by class: whitespace (what str.split() skips on ASCII text) to
# b" ", digits and signs unchanged, anything else to b"x".
_NORMALIZE = bytes(
    c if chr(c) in "0123456789+-" else ord(" ") if c < 128 and chr(c).isspace() else ord("x")
    for c in range(256)
)
_FIRST_LINE = re.compile(rb"[^\r\n]*")
_INT64 = np.iinfo(np.int64)


@contextmanager
def _atomic_open(path: str, mode: str = "w"):
    """Write to path + ".tmp", then rename; a failed write or rename removes the temp file."""
    tmp = path + _TMP_SUFFIX
    f = open(tmp, mode)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def atomic_write_text(path: str, text: str):
    with _atomic_open(path) as f:
        f.write(text)


def _format_rows(rows: np.ndarray, signed) -> bytes:
    """Text lines for the rows of an int array, as `%+d` or `%d` per field.

    Field f is written with a sign where signed[f] is true, fields are joined
    by spaces and each row ends in a newline. Each value gets a cell of
    width + 2 bytes: a sign slot, `width` digit slots filled right to left and
    a separator. Slots the text leaves out (an omitted "+", leading zeros)
    hold 0, and one mask drops them.
    """
    top = max(int(rows.max()), -int(rows.min()))
    width = len(str(top))
    # np.abs leaves int64 min as it is, which reads as 2^63 in uint64.
    mag = np.abs(rows).astype(np.min_scalar_type(top))
    buf = np.empty(rows.shape + (width + 2,), dtype=np.uint8)
    plus = np.where(signed, ord("+"), 0).astype(np.uint8)
    buf[..., 0] = np.where(rows < 0, ord("-"), plus)
    for col in range(width, 0, -1):
        q = mag // 10
        digit = (mag - 10 * q).astype(np.uint8) + ord("0")
        if col < width:
            digit *= mag != 0
        buf[..., col] = digit
        mag = q
    buf[..., -1] = ord(" ")
    buf[:, -1, -1] = ord("\n")
    return buf[buf != 0].tobytes()


def _write_rows(path: str, header: str, rows: np.ndarray, signed):
    """Write `header`, then each row of an int array as one line (see _format_rows)."""
    with _atomic_open(path, "wb") as f:
        f.write(header.encode("ascii"))
        for start in range(0, rows.shape[0], _WRITE_CHUNK_ROWS):
            f.write(_format_rows(rows[start:start + _WRITE_CHUNK_ROWS], signed))


def _parse_ints(text: bytes, what: str) -> np.ndarray:
    """The whitespace-separated integers in `text`, as split() and int() read them.

    np.fromstring parses in C, and the checks around it close its gaps. It
    reads a bare sign as part of the next token, a trailing one as 0 and
    all-whitespace text as [0], and it saturates on overflow. The byte
    checks and the token count reject all of these.
    """
    text = text.translate(_NORMALIZE)
    c = np.frombuffer(text, dtype=np.uint8)
    space = c == ord(" ")
    sign = (c == ord("+")) | (c == ord("-"))
    if b"x" in text or sign[-1:].any() or (sign[1:] & ~space[:-1]).any():
        raise FormatError(f"non-integer token in {what}")
    tokens = int(np.count_nonzero(space[:-1] & ~space[1:])) + int(c.size > 0 and not space[0])
    if tokens == 0:
        return np.zeros(0, dtype=np.int64)
    try:
        values = np.fromstring(text, dtype=np.int64, sep=" ")
    except ValueError as e:
        raise FormatError(f"non-integer token in {what}") from e
    if values.size != tokens:
        raise FormatError(f"non-integer token in {what}")
    if values.max() == _INT64.max or values.min() == _INT64.min:
        # Saturation looks like a token at the limit; only an exact parse tells.
        try:
            values = np.array([int(t) for t in text.split()], dtype=np.int64)
        except OverflowError as e:
            raise FormatError(f"integer beyond int64 in {what}") from e
    return values


def _read_clauses(
    path: str, usage: str, width: Callable[[int], int]
) -> tuple[list[str], int, int, np.ndarray]:
    """Header tokens, n, k and the (m, width(k)) body of an instance file.

    The header is checked against `usage`, e.g. 'xor <n> <m> <k>'.
    """
    with open(path, "rb") as f:
        data = f.read()
    end = _FIRST_LINE.match(data).end()
    try:
        head = data[:end].decode("ascii").split()
    except UnicodeDecodeError:
        head = []
    expected = usage.split()
    if len(head) != len(expected) or head[0] != expected[0]:
        raise FormatError(f"expected header '{usage}'")
    n, m, k = _parse_ints(" ".join(head[1:4]).encode(), f"{head[0]} header").tolist()
    if m < 1 or k < 1:
        raise FormatError("instance must have m >= 1 clauses of arity k >= 1")
    flat = _parse_ints(data[end:], f"{head[0]} clause")
    if flat.size != m * width(k):
        raise FormatError(f"expected {m * width(k)} body tokens, found {flat.size}")
    return head, n, k, flat.reshape(m, width(k))


def write_xor(inst: XorInstance, path: str):
    rows = np.column_stack([inst.rhs, inst.scopes])
    _write_rows(path, f"xor {inst.n} {inst.m} {inst.k}\n", rows, [True] + [False] * inst.k)


def read_xor(path: str) -> XorInstance:
    _, n, k, rows = _read_clauses(path, "xor <n> <m> <k>", lambda k: k + 1)
    try:
        return XorInstance(n, k, rows[:, 1:], rows[:, 0])
    except ParameterError as e:
        raise FormatError(str(e)) from e


def write_csp(inst: CspInstance, path: str):
    rows = np.stack([inst.scopes, inst.negations], axis=2).reshape(inst.m, 2 * inst.k)
    header = f"csp {inst.n} {inst.m} {inst.k} {inst.predicate.to_hex()}\n"
    _write_rows(path, header, rows, [False, True] * inst.k)


def read_csp(path: str) -> CspInstance:
    head, n, k, rows = _read_clauses(path, "csp <n> <m> <k> <truth_table_hex>", lambda k: 2 * k)
    try:
        return CspInstance(n, CspPredicate.from_hex(k, head[4]), rows[:, 0::2], rows[:, 1::2])
    except ParameterError as e:
        raise FormatError(str(e)) from e


def write_assignment(x: Assignment, path: str):
    x = validate_assignment(x)
    _write_rows(path, "", x[None, :], [True] * x.size)


def read_assignment(path: str) -> Assignment:
    with open(path, "rb") as f:
        vals = _parse_ints(f.read(), "assignment")
    if vals.size == 0:
        raise FormatError("empty assignment file")
    if not _all_pm1(vals):
        raise FormatError("assignment entries must be +-1")
    return vals.astype(np.int8)
