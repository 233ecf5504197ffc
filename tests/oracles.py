"""Independent brute-force oracles the tests check the package against.

Everything here is deliberately naive (triple loops, permutation
expansions, subset sums).  It imports only public names of the package
and shares no algorithm with it, with one exception: `_aut_alive`, the
candidate-by-candidate support test that the sweep's level kernel
`affine._aut_level` replaced, and `aut_sweep_oracle`, the whole-table
GL(n,2) sweep that the level-pruned `autgroup._sweep` replaced, are kept
as their references.  `_aut_alive` reads the package's truth tables
(`_form_lut`), product supports (`_support`) and packed set (`_by_row`),
and tests check it against `is_affine_automorphism` and
`codeword_level_automorphism`; `aut_sweep_oracle` filters
`gl_table_oracle` through it.  `test_oracles.py` enforces the rule.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence

import numpy as np

from polaraut import BitMatrix, BitVec, MonomialSet
from polaraut.affine import _by_row, _form_lut, _support


def naive_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            s = 0
            for k in range(inner):
                s ^= a[i][k] & b[k][j]
            out[i][j] = s
    return out


def leibniz_det(rows: list[list[int]]) -> int:
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i in range(n):
            term &= rows[i][perm[i]]
        total ^= term
    return total


def span_set(masks: list[int]) -> set[int]:
    """Every xor-combination of the rows."""
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    return span


def span_rank(masks: list[int]) -> int:
    """log2 of the number of distinct xor-combinations of the rows."""
    return len(span_set(masks)).bit_length() - 1


def bruhat_cell_oracle(rows: list[int], n: int) -> tuple[int, ...]:
    """The permutation w of the Bruhat cell B w B (B lower triangular)
    of the invertible matrix with these row masks, read from the ranks of
    its top-right blocks: the block of rows 0..i and columns c..n-1 has
    rank #{k <= i : w(k) >= c}, so w(i) is the largest c at which adding
    row i raises that rank."""
    def rank(i: int, c: int) -> int:
        return span_rank([row >> c for row in rows[:i + 1]])

    return tuple(max(c for c in range(n) if rank(i, c) > rank(i - 1, c)) for i in range(n))


def outside_span_oracle(rows: np.ndarray, n: int) -> np.ndarray:
    """(P, 2^n) bools: entry (p, v) is set iff v is no xor-combination of
    the rows of prefix p, vector by vector against the set of them."""
    out = np.ones((len(rows), 1 << n), dtype=bool)
    for p, prefix in enumerate(rows.tolist()):
        for x in span_set(prefix):
            out[p, x] = False
    return out


def gl_row_masks_oracle(n: int):
    """Every invertible n x n matrix as a row-mask tuple, lexicographic:
    depth-first over rows 0..n-1, each row ascending over the vectors
    outside the span (kept as a set) of the rows before it."""

    def rec(prefix, span):
        if len(prefix) == n:
            yield prefix
            return
        for v in range(1, 1 << n):
            if v not in span:
                yield from rec(prefix + (v,), span | {s ^ v for s in span})

    return rec((), frozenset({0}))


@functools.lru_cache(maxsize=None)
def gl_table_oracle(n: int) -> np.ndarray:
    """`gl_row_masks_oracle(n)` as a read-only (|GL(n,2)|, n) uint8 array,
    built once per n (about 30 s at n = 5)."""
    masks = itertools.chain.from_iterable(gl_row_masks_oracle(n))
    table = np.fromiter(masks, dtype=np.uint8).reshape(-1, n)
    table.setflags(write=False)
    return table


def _aut_alive(rows: np.ndarray, ms: MonomialSet, masks: Sequence[int]) -> np.ndarray:
    """`is_affine_automorphism` for a batch of (partial) linear maps given
    as rows of row masks, on the monomials in masks: one bool per map.
    Every monomial may use only the variables of the columns given."""
    n = ms.n
    lut = _form_lut(n)
    tabs = [lut[col] for col in rows.T]
    not_m = ~_by_row(ms) & ((1 << (1 << n)) - 1)
    alive = np.ones(len(rows), dtype=bool)
    for mask in masks:
        alive &= (_support(tabs, mask, n) & not_m) == 0
        if not alive.any():
            break
    return alive


@functools.lru_cache(maxsize=1)
def _aut_columns(ms: MonomialSet) -> np.ndarray:
    """The automorphisms of ms as columns (entry (m, j): row mask m of the
    j-th automorphism in table order), filtered in blocks of table rows.
    Every member is tested, with no degree skip, so that the reference
    does not rest on the skip it checks."""
    rows = gl_table_oracle(ms.n)
    alive = np.concatenate([
        _aut_alive(rows[lo:lo + (1 << 16)], ms, sorted(ms.masks))
        for lo in range(0, len(rows), 1 << 16)
    ])
    return np.ascontiguousarray(rows[alive].T)


def aut_sweep_oracle(ms: MonomialSet, profile) -> tuple[int, tuple[int, ...] | None]:
    """The whole-table sweep: every member tested on every row of the
    GL(n,2) table.  Returns the automorphism count and the first
    automorphism, in table order, with a nonzero entry right of the
    block diagonal of profile (past the column where its row's block ends)."""
    cols = _aut_columns(ms)
    outside = np.zeros(cols.shape[1], dtype=bool)
    end = 0
    for size in profile:
        end += size
        for col in cols[end - size:end]:
            outside |= (col >> end) != 0
    idx = np.flatnonzero(outside)
    first = tuple(int(x) for x in cols[:, idx[0]]) if len(idx) else None
    return cols.shape[1], first


def compositions(n: int):
    """Every tuple of positive integers summing to n."""
    if n == 0:
        yield ()
    for head in range(1, n + 1):
        for tail in compositions(n - head):
            yield (head,) + tail


def kron_power(n: int) -> np.ndarray:
    h = np.array([[1]], dtype=np.uint8)
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    for _ in range(n):
        h = np.kron(h, f) % 2
    return h


def mobius_direct(truth: list[int]) -> list[int]:
    """ANF coefficients by direct subset sums over points."""
    size = len(truth)
    out = []
    for m in range(size):
        c = 0
        for x in range(size):
            if x & ~m == 0:
                c ^= truth[x]
        out.append(c)
    return out


def divisor_leq(g: int, f: int) -> bool:
    """The two-part order definition taken literally: same-degree rule by
    sorted indices, otherwise existence of a dominating equal-degree
    divisor (all divisors tried)."""

    def same_degree(a: int, b: int) -> bool:
        ia = [k for k in range(a.bit_length()) if (a >> k) & 1]
        ib = [k for k in range(b.bit_length()) if (b >> k) & 1]
        return all(x <= y for x, y in zip(ia, ib))

    if g.bit_count() == f.bit_count():
        return same_degree(g, f)
    if g.bit_count() > f.bit_count():
        return False
    subs = [f]
    k = f
    while True:  # enumerate submasks of f
        k = (k - 1) & f
        subs.append(k)
        if k == 0:
            break
    return any(
        s.bit_count() == g.bit_count() and same_degree(g, s) for s in subs
    )


def is_decreasing_oracle(ms: MonomialSet) -> bool:
    """Closure tested against every non-member: O(K 2^n) order checks."""
    for f in ms.masks:
        for g in range(1 << ms.n):
            if g not in ms.masks and divisor_leq(g, f):
                return False
    return True


def down_sets_oracle(n: int) -> list[MonomialSet]:
    """Every decreasing set of n-variable monomials, by a walk that
    decides each monomial in turn, fewest monomials below it first, and
    admits it only when every monomial below it is already in."""
    monos = range(1 << n)
    below = {f: [g for g in monos if g != f and divisor_leq(g, f)] for f in monos}
    order = sorted(monos, key=lambda f: len(below[f]))
    out = []

    def walk(k: int, members: frozenset[int]) -> None:
        if k == len(order):
            out.append(MonomialSet(n, members))
            return
        walk(k + 1, members)
        f = order[k]
        if all(g in members for g in below[f]):
            walk(k + 1, members | {f})

    walk(0, frozenset())
    return out


def decreasing_closure_oracle(gens: MonomialSet) -> MonomialSet:
    """Every monomial tested against every generator: O(2^n |gens|) order
    checks."""
    return MonomialSet(gens.n, frozenset(
        m for m in range(1 << gens.n) if any(divisor_leq(m, g) for g in gens.masks)
    ))


def minimal_generators_oracle(ms: MonomialSet) -> MonomialSet:
    """Members below no other member: O(K^2) order checks.  Members of
    higher degree are tried first, so that most non-maximal members stop
    after a few checks."""
    by_degree = sorted(ms.masks, key=int.bit_count, reverse=True)
    return MonomialSet(ms.n, frozenset(
        f for f in ms.masks if not any(h != f and divisor_leq(f, h) for h in by_degree)
    ))


def bec_z_oracle(n: int, eps: float) -> list[float]:
    """Hand recursion on explicit bit strings, most significant first."""
    out = []
    for i in range(1 << n):
        z = eps
        for pos in reversed(range(n)):
            if (i >> pos) & 1:
                z = z * z
            else:
                z = 2 * z - z * z
        out.append(z)
    return out


def pw_weight_oracle(i: int) -> float:
    beta = 2.0 ** 0.25
    w = 0.0
    k = 0
    while i:
        if i & 1:
            w += beta ** k
        i >>= 1
        k += 1
    return w


def evaluation_vector_oracle(mask: int, n: int) -> int:
    """A monomial's evaluation vector as bits, one position at a time:
    position i evaluates at the complemented point of i, so the entry is
    1 exactly when mask and i are disjoint."""
    bits = 0
    for i in range(1 << n):
        if mask & i == 0:
            bits |= 1 << i
    return bits


def codeword_level_automorphism(perm: list[int], ms: MonomialSet) -> bool:
    """Permute every generator row and test membership via ANF support."""
    from polaraut.monomial import anf_support

    for f in ms.masks:
        row = evaluation_vector_oracle(f, ms.n)
        permuted = BitVec.from_list([(row >> perm[i]) & 1 for i in range(len(perm))])
        if not anf_support(permuted).masks <= ms.masks:
            return False
    return True


def swap_preserves_set(ms: MonomialSet, i: int, j: int) -> bool:
    def swap(m: int) -> int:
        bi, bj = (m >> i) & 1, (m >> j) & 1
        if bi != bj:
            m ^= (1 << i) | (1 << j)
        return m

    return frozenset(swap(m) for m in ms.masks) == ms.masks


def brute_force_matrices(n: int, count: int, seed: int) -> list[BitMatrix]:
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = BitMatrix([rng.getrandbits(n) for _ in range(n)], n)
        if m.rank() == n:
            out.append(m)
    return out


def awgn_llrs_oracle(x: np.ndarray, rng: np.random.Generator, ebn0_db: float, rate: float) -> np.ndarray:
    """BPSK over AWGN, one formula: 2 ((1 - 2x) + normal(0, sigma)) / sigma^2
    with sigma^2 = 1 / (2 rate Eb/N0), the noise drawn in x's shape."""
    sigma = math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))
    return 2.0 * ((1.0 - 2.0 * x.astype(np.float64)) + rng.normal(0.0, sigma, x.shape)) / (sigma * sigma)


def bec_llrs_oracle(x: np.ndarray, rng: np.random.Generator, erasure_prob: float) -> np.ndarray:
    """Binary erasure channel, one formula: (1 - 2x) * 1000.0, then exactly
    0.0 wherever a uniform draw in x's shape falls below erasure_prob."""
    out = (1.0 - 2.0 * x.astype(np.float64)) * 1000.0
    out[rng.random(x.shape) < erasure_prob] = 0.0
    return out


def sc_oracle(llrs: np.ndarray, info_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain recursive min-sum SC over the full tree, one node per call.
    Decodes a (batch, size) LLR block; returns (codewords, u-vectors)."""
    size = llrs.shape[1]
    if size == 1:
        if info_mask[0]:
            u = (llrs < 0).astype(np.uint8)
        else:
            u = np.zeros(llrs.shape, dtype=np.uint8)
        return u, u
    h = size // 2
    a, b = llrs[:, :h], llrs[:, h:]
    l1 = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    x1, u1 = sc_oracle(l1, info_mask[:h])
    l2 = b + (1.0 - 2.0 * x1) * a
    x2, u2 = sc_oracle(l2, info_mask[h:])
    return np.hstack([x1 ^ x2, x2]), np.hstack([u1, u2])


def ae_oracle(
    llrs: np.ndarray, perms: np.ndarray, info_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ensemble SC with a fancy-index permute and a per-member scatter
    back; returns (best codewords (B, N), chosen (B,), scores (B, L))."""
    batch, n_pos = llrs.shape
    n_perm = len(perms)
    permuted = llrs[:, perms].reshape(batch * n_perm, n_pos)
    x, _ = sc_oracle(permuted, info_mask)
    x = x.reshape(batch, n_perm, n_pos)
    cand = np.empty_like(x)
    for l, pi in enumerate(perms):
        cand[:, l, pi] = x[:, l, :]
    scores = ((1.0 - 2.0 * cand) * llrs[:, None, :]).sum(axis=2)
    chosen = scores.argmax(axis=1)  # ties resolve to the lowest index
    best = cand[np.arange(batch), chosen]
    return best, chosen, scores
