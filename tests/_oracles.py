"""Independent reference implementations used as test oracles.

Everything here recomputes quantities through a different code path than the
package (dense enumeration, plain Python loops) so agreement is meaningful.
"""
import itertools
import math

import numpy as np
import scipy.sparse as sp

from rpcsp import CspInstance, CspPredicate, FormatError, ParameterError, XorInstance, clean
from rpcsp.kikuchi import KikuchiMatrix
from rpcsp.rng import STREAM_PAIRING, derived_rng


def enumerate_assignments(n):
    """All 2^n sign vectors, one per row; bit b of the row index gives x_{b+1}."""
    idx = np.arange(2 ** n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


def clause_totals(inst, assignments):
    """sum_C b_C prod_{j} x_{i_j} for each assignment row, by dense products."""
    prods = np.prod(assignments[:, inst.scopes - 1].astype(np.int64), axis=2)
    return prods @ inst.rhs.astype(np.int64)


def brute_max_advantage(inst):
    """max_x |(1/m) sum_C b_C x_C| over all assignments."""
    totals = clause_totals(inst, enumerate_assignments(inst.n))
    return np.abs(totals).max() / inst.m


def brute_argmax_rows(inst):
    """Rows of the full assignment table attaining max_x sum_C b_C x_C."""
    assignments = enumerate_assignments(inst.n)
    totals = clause_totals(inst, assignments)
    return assignments[totals == totals.max()]


def naive_fourier_coefficient(q, s):
    """2^{-k} sum_y q(y) prod_{j in s} y_j by direct summation."""
    k = len(next(iter(q.mass)))
    acc = 0.0
    for pattern, mass in q.mass.items():
        term = mass
        for j in s:
            term *= pattern[j - 1]
        acc += term
    return acc / 2 ** k


def naive_complexity(q):
    """Smallest nonempty subset clearing the 4^{-k} coefficient threshold."""
    k = len(next(iter(q.mass)))
    threshold = 4.0 ** (-k) - 1e-14
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(1, k + 1), size):
            if abs(naive_fourier_coefficient(q, combo)) >= threshold:
                return size, frozenset(combo)
    return 1, None


def naive_vote_sums(inst, x_tilde):
    """Per-variable sum of co-hyperedge votes, one clause and one vote at a time.

    Each distinct-entry clause containing i votes b * prod_{j != i} x_j for x_i;
    clauses with a repeated entry cast no votes.
    """
    sums = np.zeros(inst.n, dtype=np.int64)
    for row, b in zip(inst.scopes.tolist(), inst.rhs.tolist()):
        if len(set(row)) != len(row):
            continue
        for pos, i in enumerate(row):
            vote = b
            for j in row[:pos] + row[pos + 1:]:
                vote *= int(x_tilde[j - 1])
            sums[i - 1] += vote
    return sums


def naive_majority(inst, x_tilde):
    """Per-variable co-hyperedge majority vote; ties and empty votes give +1."""
    return np.where(naive_vote_sums(inst, x_tilde) >= 0, 1, -1).astype(np.int8)


def naive_clean(inst):
    """Drop clauses with a repeated entry, found by sorting each scope row."""
    if inst.m == 0:
        return inst, 0.0
    s = np.sort(inst.scopes, axis=1)
    distinct = np.all(s[:, 1:] != s[:, :-1], axis=1)
    kept = XorInstance(inst.n, inst.k, inst.scopes[distinct], inst.rhs[distinct])
    return kept, float(1.0 - distinct.mean())


def naive_majority_detail(inst, x_tilde, unvoted=1):
    """One majority round with its diagnostics, tallied by np.add.at over every vote.

    A variable with no vote gets unvoted: +1, or its entry of a sign vector.
    """
    x_tilde = np.asarray(x_tilde, dtype=np.int8)
    cleaned, dropped = naive_clean(inst)
    sums = np.zeros(inst.n, dtype=np.int64)
    counts = np.zeros(inst.n, dtype=np.int64)
    if cleaned.m:
        gathered = x_tilde[cleaned.scopes - 1].astype(np.int64)
        full = cleaned.rhs.astype(np.int64) * gathered.prod(axis=1)
        flat = (cleaned.scopes - 1).ravel()
        np.add.at(sums, flat, (full[:, None] * gathered).ravel())
        np.add.at(counts, flat, 1)
    covered = counts > 0
    out = np.where(sums >= 0, 1, -1).astype(np.int8)
    out[~covered] = np.broadcast_to(unvoted, out.shape)[~covered]
    info = {
        "empty_votes": int((~covered).sum()),
        "tied_votes": int(((sums == 0) & covered).sum()),
        "min_margin": int(np.abs(sums[covered]).min()) if covered.any() else 0,
        "mean_agreement": float((sums[covered] * out[covered]).sum() / counts[covered].sum())
        if covered.any() else 0.0,
        "dropped_fraction": dropped,
    }
    return out, info


def naive_stage2(h2, x_hat):
    """solve_xor's stage 2 as two separate rounds, from x_hat and from -x_hat.

    A variable with no vote keeps its sign in the assignment voted from; for
    odd k the round from -x_hat casts the same votes as the one from x_hat,
    and both keep x_hat there. Returns (cand_plus, cand_minus, info_plus,
    info_minus, [value_plus, value_minus], sign), where sign is "minus" only
    if that value is higher.
    """
    x_hat = np.asarray(x_hat, dtype=np.int8)
    plus, info_plus = naive_majority_detail(h2, x_hat, unvoted=x_hat)
    minus, info_minus = naive_majority_detail(h2, -x_hat, unvoted=x_hat if h2.k % 2 else -x_hat)
    values = [
        float(np.mean(np.prod(cand[h2.scopes - 1].astype(np.int64), axis=1) == h2.rhs))
        for cand in (plus, minus)
    ]
    sign = "minus" if values[1] > values[0] else "plus"
    return plus, minus, info_plus, info_minus, values, sign


def greedy_pair_to_even(inst, seed):
    """Greedy first-fit pairing of disjoint clauses over one seeded shuffle.

    Each clause, in shuffled order, pairs with the first pending clause whose
    variables it does not share, or else becomes pending itself.
    """
    base, _ = naive_clean(inst)
    order = derived_rng(seed, STREAM_PAIRING).permutation(base.m)
    pending, pairs = [], []
    for idx in order.tolist():
        vars_here = frozenset(base.scopes[idx].tolist())
        for t, (vars_pend, j) in enumerate(pending):
            if vars_here.isdisjoint(vars_pend):
                pairs.append((j, idx))
                pending.pop(t)
                break
        else:
            pending.append((vars_here, idx))
    first = np.array([a for a, _ in pairs], dtype=np.int64)
    second = np.array([b for _, b in pairs], dtype=np.int64)
    scopes = np.concatenate([base.scopes[first], base.scopes[second]], axis=1)
    rhs = (base.rhs[first].astype(np.int64) * base.rhs[second]).astype(np.int8)
    return XorInstance(inst.n, 2 * inst.k, scopes, rhs)


def itertools_colex_subsets(n, ell):
    """All ell-subsets of {0..n-1} as a (C(n, ell), ell) array in colex order.

    Colex order is lex order run backwards on the complemented elements n-1-e,
    so the itertools lex enumeration of the complements, reversed, gives it.
    """
    lex = np.array(list(itertools.combinations(range(n), ell)), dtype=np.int64)
    lex = lex.reshape(math.comb(n, ell), ell)
    return np.ascontiguousarray((n - 1 - lex[::-1])[:, ::-1])


def naive_csp_value(inst, x):
    """Fraction of clauses whose literal pattern the truth table accepts, one clause at a time."""
    x, hits = np.asarray(x).tolist(), 0
    for row, neg in zip(inst.scopes.tolist(), inst.negations.tolist()):
        index = sum(1 << j for j, (v, z) in enumerate(zip(row, neg)) if x[v - 1] * z < 0)
        hits += int(inst.predicate.table[index])
    return hits / inst.m


def naive_kikuchi(inst, ell):
    """Dense level-ell Kikuchi matrix, one vertex pair at a time.

    Vertices are the ell-subsets of {0..n-1} in colex order (compare largest
    elements first). Entry (S, T) sums the rhs of every clause with distinct
    entries whose 0-based index set equals S xor T.
    """
    verts = sorted(itertools.combinations(range(inst.n), ell), key=lambda s: s[::-1])
    weight = {}
    for row, b in zip(inst.scopes, inst.rhs):
        c = frozenset(int(v) - 1 for v in row)
        if len(c) == inst.k:
            weight[c] = weight.get(c, 0) + int(b)
    out = np.zeros((len(verts), len(verts)), dtype=np.int64)
    for r, s in enumerate(verts):
        for c, t in enumerate(verts):
            out[r, c] = weight.get(frozenset(s) ^ frozenset(t), 0)
    return out


def naive_pair_gram(w, n, ell):
    """Dense n x n pair Gram of a level-ell vertex vector w, one vertex pair at a time.

    Vertices are the ell-subsets of {0..n-1} in colex order. Off the diagonal,
    entry (i, j) sums w_S w_T over the pairs with S - T = {i} and T - S = {j};
    entry (i, i) sums w_S^2 over the S that contain i.
    """
    verts = sorted(itertools.combinations(range(n), ell), key=lambda s: s[::-1])
    out = np.zeros((n, n))
    for a, s in enumerate(verts):
        for i in s:
            out[i, i] += w[a] * w[a]
        for b, t in enumerate(verts):
            only_s, only_t = set(s) - set(t), set(t) - set(s)
            if len(only_s) == 1:
                out[only_s.pop(), only_t.pop()] += w[a] * w[b]
    return out


def _pairwise_union_rank(a, w, table):
    """Colex rank of the union of disjoint sorted sets A and W, one comparison per position."""
    width = table.shape[1]
    flat = table.ravel()
    rank = 0
    for part, other in ((a, w), (w, a)):
        for i, e in enumerate(part):
            pos = i + 1 + sum(o < e for o in other)
            rank = rank + flat.take(e * width + pos)
    return rank


def lexsort_kikuchi(inst, ell):
    """build_kikuchi through a row sort, a lexsort dedupe and int64 ranks.

    Sorts each scope row with np.sort, finds equal clause sets with
    np.lexsort and a k-column compare of neighbouring rows, ranks the rows
    and the columns separately in int64, and sums them into CSR through COO
    with float64 entries.
    """
    k, n = inst.k, inst.n
    dim = math.comb(n, ell)
    cleaned, _ = clean(inst)
    table = np.array([[math.comb(v, j) for j in range(ell + 1)] for v in range(n + 1)],
                     dtype=np.int64)
    sets = (np.sort(cleaned.scopes, axis=1) - 1).astype(np.int32)
    order = np.lexsort(sets.T[::-1])
    sets = sets[order]
    new = np.ones(len(sets), dtype=bool)
    new[1:] = (sets[1:] != sets[:-1]).any(axis=1)
    weights = np.bincount(np.cumsum(new) - 1, weights=cleaned.rhs[order]).astype(np.int64)
    keep = weights != 0
    uniq, weights = sets[new][keep], weights[keep]
    half = k // 2
    splits = np.array(list(itertools.combinations(range(k), half)), dtype=np.int64)
    splits = splits.reshape(-1, half)
    rests = splits[::-1]
    pads = np.array(list(itertools.combinations(range(n - k), ell - half)), dtype=np.int64)
    pads = pads.reshape(math.comb(n - k, ell - half), ell - half)
    shift = (uniq - np.arange(k)).T
    w = [(p + (shift[:, :, None] <= p).sum(axis=0))[:, None] for p in pads.T]
    rows = _pairwise_union_rank([uniq[:, j, None] for j in splits.T], w, table).ravel()
    cols = _pairwise_union_rank([uniq[:, j, None] for j in rests.T], w, table).ravel()
    data = np.repeat(weights, len(splits) * len(pads))
    mat = sp.coo_matrix((data, (rows, cols)), shape=(dim, dim), dtype=np.float64).tocsr()
    return KikuchiMatrix(n, ell, k, mat, math.comb(k, half) * math.comb(n - k, ell - half),
                         dim, cleaned.m, inst.m - cleaned.m)


def naive_pair_weights(inst):
    """Symmetric signed weights of an arity-2 instance as a COO -> CSR sum.

    Each off-diagonal clause adds its rhs at (i, j) and at (j, i); the CSR
    conversion sums the duplicates. Diagonal (i == i) clauses add nothing.
    """
    i = inst.scopes[:, 0] - 1
    j = inst.scopes[:, 1] - 1
    off = i != j
    i, j, b = i[off], j[off], inst.rhs[off].astype(np.float64)
    w = sp.coo_matrix(
        (np.concatenate([b, b]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(inst.n, inst.n),
    )
    return w.tocsr()


def random_planting(rng, k):
    """Random distribution over a random nonempty pattern subset."""
    patterns = list(itertools.product((-1, 1), repeat=k))
    size = int(rng.integers(1, len(patterns) + 1))
    chosen = rng.choice(len(patterns), size=size, replace=False)
    weights = rng.dirichlet(np.ones(size))
    return {patterns[int(c)]: float(w) for c, w in zip(chosen, weights)}


# ---------------------------------------------------------------------------
# text file formats, one Python str and int per token


def naive_write_xor(inst, path):
    lines = [f"xor {inst.n} {inst.m} {inst.k}"]
    for row, b in zip(inst.scopes, inst.rhs):
        lines.append(f"{int(b):+d} " + " ".join(str(int(i)) for i in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def naive_write_csp(inst, path):
    lines = [f"csp {inst.n} {inst.m} {inst.k} {inst.predicate.to_hex()}"]
    for row, neg in zip(inst.scopes, inst.negations):
        lines.append(" ".join(f"{int(i)} {int(s):+d}" for i, s in zip(row, neg)))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def naive_write_assignment(x, path):
    with open(path, "w") as f:
        f.write(" ".join(f"{int(v):+d}" for v in x) + "\n")


def _naive_ints(tokens, what):
    # OverflowError too: np.array raises it for an int beyond int64, where the
    # package reader (and the grammar) report a FormatError.
    try:
        return np.array([int(t) for t in tokens], dtype=np.int64)
    except (ValueError, OverflowError) as e:
        raise FormatError(f"non-integer token in {what}") from e


def naive_read_xor(path):
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        body = f.read().split()
    if len(header) != 4 or header[0] != "xor":
        raise FormatError("expected header 'xor <n> <m> <k>'")
    n, m, k = (int(t) for t in header[1:])
    if m < 1:
        raise FormatError("instance must have m >= 1 clauses")
    if len(body) != m * (k + 1):
        raise FormatError(f"expected {m * (k + 1)} body tokens, found {len(body)}")
    rows = _naive_ints(body, "xor clause").reshape(m, k + 1)
    rhs = rows[:, 0]
    if not np.isin(rhs, (-1, 1)).all():
        raise FormatError("clause rhs must be +-1")
    try:
        return XorInstance(n, k, rows[:, 1:], rhs)
    except ParameterError as e:
        raise FormatError(str(e)) from e


def naive_read_csp(path):
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        body = f.read().split()
    if len(header) != 5 or header[0] != "csp":
        raise FormatError("expected header 'csp <n> <m> <k> <truth_table_hex>'")
    n, m, k = (int(t) for t in header[1:4])
    if m < 1:
        raise FormatError("instance must have m >= 1 clauses")
    pred = CspPredicate.from_hex(k, header[4])
    if len(body) != m * 2 * k:
        raise FormatError(f"expected {m * 2 * k} body tokens, found {len(body)}")
    rows = _naive_ints(body, "csp clause").reshape(m, 2 * k)
    negs = rows[:, 1::2]
    if not np.isin(negs, (-1, 1)).all():
        raise FormatError("literal negations must be +-1")
    try:
        return CspInstance(n, pred, rows[:, 0::2], negs)
    except ParameterError as e:
        raise FormatError(str(e)) from e


def naive_read_assignment(path):
    with open(path, encoding="utf-8") as f:
        tokens = f.read().split()
    if not tokens:
        raise FormatError("empty assignment file")
    vals = _naive_ints(tokens, "assignment")
    if not np.isin(vals, (-1, 1)).all():
        raise FormatError("assignment entries must be +-1")
    return vals.astype(np.int8)
