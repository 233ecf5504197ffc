"""Affine transformations of evaluation points, induced codeword
permutations, the action on monomials, and the block lower-triangular
affine (BLTA) groups.

Permutations are forward maps over [0, 2^n) stored as lists: applying pi
to a vector c gives the vector with entry i equal to c[pi[i]].  The
direction of the point map is fixed by the consistency requirement that
permuting the evaluation vector of a monomial f by the permutation
induced from T yields the evaluation vector of f o T.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import random
import warnings
from dataclasses import dataclass
from collections.abc import Iterator, Sequence

import numpy as np

from .gf2 import BitMatrix, BitVec, _bruhat_cell, _pat_lo, _random_invertible, gl_order
from .monomial import (
    MonomialSet,
    _butterfly_int,
    _pack_bits,
    _row_support_set,
    degree,
    is_decreasing,
    minimal_generators,
)

__all__ = [
    "AffineMap",
    "apply_point",
    "induced_permutation",
    "compose_permutations",
    "invert_permutation",
    "transform_monomial_support",
    "substitution_coefficient",
    "is_affine_automorphism",
    "block_profile",
    "swap_variables",
    "blta_membership",
    "sample_blta",
    "blta_order",
]


@dataclass(frozen=True)
class AffineMap:
    """x -> a x + b with a invertible over GF(2)."""

    a: BitMatrix
    b: BitVec

    def __post_init__(self):
        if self.a.rows != self.a.cols:
            raise ValueError("linear part must be square")
        if self.b.n != self.a.rows:
            raise ValueError("translation length differs from matrix size")
        if self.a.det() != 1:
            raise ValueError("linear part is singular")

    @property
    def n(self) -> int:
        return self.a.rows

    @classmethod
    def identity(cls, n: int) -> "AffineMap":
        return cls(BitMatrix.identity(n), BitVec(n))

    @classmethod
    def from_linear(cls, a: BitMatrix) -> "AffineMap":
        return cls(a, BitVec(a.rows))

    @classmethod
    def translation(cls, b: BitVec) -> "AffineMap":
        return cls(BitMatrix.identity(b.n), b)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """The map x -> self(other(x))."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return AffineMap(self.a @ other.a, self.a.mul_vec(other.b) ^ self.b)

    def inverse(self) -> "AffineMap":
        ainv = self.a.inverse()
        return AffineMap(ainv, ainv.mul_vec(self.b))

    def to_json(self) -> dict:
        return {"A": list(self.a.row_masks), "b": self.b.bits}

    @classmethod
    def from_json(cls, obj: dict) -> "AffineMap":
        masks = obj["A"]
        n = len(masks)
        return cls(BitMatrix(masks, n), BitVec(n, obj.get("b", 0)))


def apply_point(t: AffineMap, x: BitVec) -> BitVec:
    """Image of an evaluation point: a x + b."""
    return t.a.mul_vec(x) ^ t.b


def induced_permutation(t: AffineMap) -> list[int]:
    """Forward position permutation of the affine point map.

    Position i holds the evaluation point whose coordinates are the
    complemented bits of i, so pi(i) = ~T(~i) bitwise.  Composition is a
    homomorphism: induced(t1.compose(t2)) == compose_permutations(
    induced(t1), induced(t2)).
    """
    # by linearity: after the columns of bits 0..c, images[x] = T(x), x < 2^(c+1)
    images = [t.b.bits]
    for col in t.a.transpose().row_masks:
        images += [y ^ col for y in images]
    full = (1 << t.n) - 1
    return [full ^ y for y in reversed(images)]


def compose_permutations(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """The permutation i -> p[q[i]]."""
    if len(p) != len(q):
        raise ValueError("permutation length mismatch")
    return [p[qi] for qi in q]


def invert_permutation(p: Sequence[int]) -> list[int]:
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = i
    return out


# ---------------------------------------------------------------------------
# action on monomials


def _form_table(row: int, n: int) -> int:
    """Truth table over codeword positions of the form x -> row . x."""
    tab = 0
    for k in range(n):
        if (row >> k) & 1:
            tab ^= _pat_lo(n, k)
    return tab


def _map_tables(rows: Sequence[int], b: int, n: int) -> list[int]:
    """Truth tables of the n output coordinates of x -> a x + b, with a
    given by its row masks and b by its bits."""
    full = (1 << (1 << n)) - 1
    return [_form_table(row, n) ^ (full if (b >> m) & 1 else 0) for m, row in enumerate(rows)]


def _support(tabs, mask: int, n: int):
    """ANF support of the product of the coordinate forms selected by
    mask, packed by row index: bit r = coefficient of the monomial
    (2^n - 1) ^ r.

    Uses only &, ^ and >>, so tabs may hold Python ints (one map, any n)
    or numpy unsigned arrays of at least 2^n bits (one entry per map).
    The first & makes a fresh array, so tabs is never written.
    """
    t = (1 << (1 << n)) - 1
    k = mask
    while k:
        t &= tabs[(k & -k).bit_length() - 1]
        k &= k - 1
    return _butterfly_int(t, n)


@functools.lru_cache(maxsize=4096)
def _by_row(ms: MonomialSet) -> int:
    """ms packed like a support: bit r set iff the monomial (2^n - 1) ^ r
    is a member."""
    full = (1 << ms.n) - 1
    return _pack_bits((full ^ m for m in ms.masks), 1 << ms.n)


@functools.lru_cache(maxsize=4096)
def _members_to_test(ms: MonomialSet) -> tuple[int, ...]:
    """Members an affine map could send outside ms, highest degree first.

    f o T is a product of deg f affine forms, so its support has degree
    at most deg f: a member of lower degree than every non-member cannot
    fail, for any affine T and any set, and is dropped."""
    least = min((degree(m) for m in range(1 << ms.n) if m not in ms.masks), default=ms.n + 1)
    return tuple(sorted((f for f in ms.masks if degree(f) >= least), key=lambda m: (-degree(m), m)))


def _preserves(rows: Sequence[int], b: int, ms: MonomialSet) -> bool:
    """`is_affine_automorphism` on the row masks of a and the bits of b,
    without the dimension check and warning, for callers that did both."""
    tabs = _map_tables(rows, b, ms.n)
    not_m = ~_by_row(ms)
    return not any(_support(tabs, mask, ms.n) & not_m for mask in _members_to_test(ms))


def transform_monomial_support(mask: int, t: AffineMap) -> MonomialSet:
    """Monomials appearing in the multilinear expansion of f o t.

    Computed from the truth table of f o t (degree never exceeds deg f,
    since the composition is a product of deg f affine forms).
    """
    n = t.n
    if mask < 0 or mask >> n:
        raise ValueError(f"mask 0x{mask:x} out of range for n={n}")
    return _row_support_set(_support(_map_tables(t.a.row_masks, t.b.bits, n), mask, n), n)


def substitution_coefficient(a: BitMatrix, rows: Sequence[int], cols: Sequence[int]) -> int:
    """Coefficient of prod_{j in cols} x_j in prod_{m in rows} (row_m . x).

    Substituting x_m -> sum_k a[m,k] x_k into a product of distinct
    variables makes the top-degree coefficient of any target product of
    equally many distinct variables equal to the determinant of the
    selected submatrix (signs vanish mod 2), so this simply evaluates
    that minor.
    """
    return a.minor_det(rows, cols)


def _rename(mask: int, w: Sequence[int]) -> int:
    """The monomial mask with each variable x_i replaced by x_w(i)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << w[low.bit_length() - 1]
        mask ^= low
    return out


def is_affine_automorphism(t: AffineMap, ms: MonomialSet) -> bool:
    """Whether the induced permutation of t preserves the code of ms.

    The code is spanned by the evaluation vectors of ms and t acts
    linearly on functions, so preservation is equivalent to
    transform_monomial_support(f, t) being a subset of ms for every
    member f.  A non-decreasing set is tested so, on monomial supports
    (`_preserves`).

    A decreasing set is decided by one permutation of variables.  Write
    C o T for the functions f o T with f in C, the span of ms.  A lower
    triangular L sends x_i to x_i plus variables x_j with j < i, and a
    translation sends x_i to x_i or x_i + 1, so f o L and f o (x + b)
    expand into monomials below f, which lie in ms: C o L = C and C o
    (x + b) = C.  With T x = A x + b, C o T = C o A.  By
    `gf2._bruhat_cell`, A = L1 P_w L2 with L1, L2 lower triangular and
    P_w the matrix with rows e_w(i), so C o A = ((C o L1) o P_w) o L2 =
    (C o P_w) o L2, which is C iff C o P_w = C.  P_w sends x_i to
    x_w(i), hence each member to one monomial, its renaming: t is an
    automorphism iff every member renames into ms.  Renaming keeps the
    degree, so the members `_members_to_test` skips rename into ms.
    """
    if t.n != ms.n:
        raise ValueError("dimension mismatch")
    if not is_decreasing(ms):
        warnings.warn("monomial set is not decreasing", stacklevel=2)
        return _preserves(t.a.row_masks, t.b.bits, ms)
    w = _bruhat_cell(t.a.row_masks)
    if w == tuple(range(ms.n)):
        return True
    return all(_rename(f, w) in ms.masks for f in _members_to_test(ms))


@functools.lru_cache(maxsize=None)
def _form_lut(n: int) -> np.ndarray:
    """Truth tables of all 2^n linear forms, indexed by row mask, in the
    narrowest unsigned dtype that holds 2^n bits."""
    if (1 << n) > 64:
        raise ValueError(f"batched truth tables need n <= 6 (2^n bits per word), got n={n}")
    lut = np.array([_form_table(r, n) for r in range(1 << n)], dtype=f"u{max(1, (1 << n) // 8)}")
    lut.setflags(write=False)
    return lut


def _level_words(rows: np.ndarray, ms: MonomialSet, masks: Sequence[int]) -> Iterator[np.ndarray]:
    """The (n, P) words of each monomial f in masks, in order.  With k
    the number of rows of each prefix, A its matrix and f = x_k g, row j
    of f's words, S_j, is the part outside ms of the image of (g o A) x_j.
    Each monomial must have x_k as its top variable.

    Once row v is appended, f o A = (g o A) (v . x), so the part of f's
    image outside ms is the XOR of S_j[p] over the bits j of v.  With c
    the ANF of g o A packed by row index, S_j = (c ^ (c >> 2^j)) &
    _pat_lo(n, j), cut to the non-members."""
    n = ms.n
    lut = _form_lut(n)
    tabs = [lut[col] for col in rows.T]
    not_m = ~_by_row(ms)
    shifts = np.array([1 << j for j in range(n)], dtype=lut.dtype)[:, None]
    outside = np.array([_pat_lo(n, j) & not_m for j in range(n)], dtype=lut.dtype)[:, None]
    top = 1 << rows.shape[1]
    for mask in masks:
        c = _support(tabs, mask ^ top, n)
        yield (c ^ (c >> shifts)) & outside


def _aut_level(rows: np.ndarray, ms: MonomialSet, masks: Sequence[int]) -> np.ndarray:
    """Which rows may follow each prefix: entry (p, v) of the (P, 2^n)
    bool result is set iff, with row v appended to the k rows of prefix
    p, every monomial in masks keeps its image inside ms.  Each monomial
    must have x_k as its top variable.

    The image of each monomial is linear in v (`_level_words`), so all
    2^n rows come from its n words by doubling.  v = 0 and the rows in a
    prefix's span are not excluded here."""
    n = ms.n
    # row v of image is the part of f's image outside ms, v-major so
    # that each doubling step writes one contiguous block
    image = np.empty((1 << n, len(rows)), dtype=_form_lut(n).dtype)
    image[0] = 0  # the doubling never writes row 0
    alive = np.ones(image.shape, dtype=bool)
    for s in _level_words(rows, ms, masks):
        for j in range(n):
            w = 1 << j
            np.bitwise_xor(image[:w], s[j], out=image[w:2 * w])
        alive &= image == 0
    return alive.T


def _aut_every_row(rows: np.ndarray, ms: MonomialSet, masks: Sequence[int]) -> np.ndarray:
    """(P,) bools: whether every row v may follow prefix p, that is,
    whether `_aut_level` sets all of row p.  The image is linear in v
    with the words S_j of `_level_words` as the images of the unit
    vectors, so this holds iff every word of every monomial is zero."""
    alive = np.ones(len(rows), dtype=bool)
    for s in _level_words(rows, ms, masks):
        alive &= ~s.any(axis=0)
    return alive


# ---------------------------------------------------------------------------
# block profiles and BLTA groups


def swap_variables(mask: int, i: int, j: int) -> int:
    """Monomial mask with variables x_i and x_j exchanged."""
    bi, bj = (mask >> i) & 1, (mask >> j) & 1
    if bi != bj:
        mask ^= (1 << i) | (1 << j)
    return mask


def block_profile(ms: MonomialSet) -> tuple[int, ...]:
    """Coarsest block sizes whose intra-block adjacent swaps preserve ms.

    Adjacent variables i, i+1 belong to one block iff exchanging them
    maps ms onto itself; maximal runs of mergeable pairs become blocks.
    Only the generators are swapped, which suffices for adjacent pairs.
    Proof: let sigma exchange x_i and x_{i+1}, and write c_s(h) for the
    number of variables x_k of h with k >= s, so that h <= g iff c_s(h)
    <= c_s(g) for every s.  sigma fixes a member with both or neither
    variable and moves one with x_{i+1} alone below itself.  A member f
    with x_i alone lies below a generator g, and c_s(sigma f) = c_s(f) +
    [s = i+1], so sigma f <= g unless c_{i+1}(f) = c_{i+1}(g).  Then
    c_{i+1}(g) = c_{i+2}(f) <= c_{i+2}(g) and c_i(g) >= c_i(f) =
    c_{i+1}(g) + 1: g holds x_i and not x_{i+1}, and sigma f <= sigma g.
    So sigma maps ms into itself, hence onto itself, iff it maps every
    generator into ms.  The argument needs adjacency: for j > i + 1 the
    generators do not decide the swap of x_i and x_j.
    """
    if not is_decreasing(ms):
        raise ValueError("block profile requires a decreasing monomial set")
    n = ms.n
    if n == 0:
        return ()
    gens = minimal_generators(ms).masks
    sizes = [1]
    for i in range(n - 1):
        if all(swap_variables(g, i, i + 1) in ms.masks for g in gens):
            sizes[-1] += 1
        else:
            sizes.append(1)
    return tuple(sizes)


def _blocks(profile: Sequence[int]) -> list[tuple[int, int]]:
    """(first row, size) of each diagonal block of a BLTA(profile) matrix;
    ValueError unless every entry is a positive integer."""
    if not all(isinstance(s, numbers.Integral) and s > 0 for s in profile):
        raise ValueError(f"profile entries must be positive integers, got {tuple(profile)}")
    sizes = [int(s) for s in profile]  # numpy integers would overflow below
    return list(zip(itertools.accumulate(sizes, initial=0), sizes))


def _blta_allowed(profile: Sequence[int]) -> list[int]:
    """Column mask each row of a BLTA(profile) linear part may use: the
    columns up to the end of the row's block."""
    return [(1 << (start + s)) - 1 for start, s in _blocks(profile) for _ in range(s)]


def blta_membership(t: AffineMap | BitMatrix, profile: Sequence[int]) -> bool:
    """Whether the linear part is zero above the block diagonal of profile.

    The translation is unconstrained; invertibility of the whole matrix
    then forces the diagonal blocks to be invertible.
    """
    a = t.a if isinstance(t, AffineMap) else t
    allowed = _blta_allowed(profile)
    n = len(allowed)
    if a.rows != n or a.cols != n:
        raise ValueError(f"profile {tuple(profile)} does not match a {a.rows}x{a.cols} matrix")
    return all(not a.row_mask(row) & ~cols for row, cols in enumerate(allowed))


def sample_blta(profile: Sequence[int], seed_or_rng: int | random.Random) -> AffineMap:
    """Uniform element of the BLTA group of the given profile.

    Diagonal blocks are uniform invertible matrices (rejection sampling),
    the entries below the block diagonal and the translation are uniform
    bits.  Deterministic for a given seed.
    """
    blocks = _blocks(profile)
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else random.Random(seed_or_rng)
    masks = []
    for start, s in blocks:
        block = _random_invertible(rng, s)
        for r in range(s):
            row = block.row_mask(r) << start
            if start:
                row |= rng.getrandbits(start)
            masks.append(row)
    n = len(masks)
    return AffineMap(BitMatrix(masks, n), BitVec(n, rng.getrandbits(n)))


def blta_order(profile: Sequence[int]) -> int:
    """Order of the linear part of the BLTA group (multiply by 2^n for
    the full group including translations)."""
    out = 1
    for start, s in _blocks(profile):
        out *= gl_order(s) << (start * s)  # each of the s rows has start free entries
    return out
