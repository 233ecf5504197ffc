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

import random
import warnings
from dataclasses import dataclass
from collections.abc import Sequence

from .gf2 import BitMatrix, BitVec, _random_invertible, gl_order
from .monomial import (
    MonomialSet,
    _mobius_int,
    _var_table,
    degree,
    is_decreasing,
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


def _apply_int(row_masks: Sequence[int], b_bits: int, x: int) -> int:
    y = b_bits
    for m, row in enumerate(row_masks):
        if (row & x).bit_count() & 1:
            y ^= 1 << m
    return y


def induced_permutation(t: AffineMap) -> list[int]:
    """Forward position permutation of the affine point map.

    Position i holds the evaluation point whose coordinates are the
    complemented bits of i, so pi(i) = ~T(~i) bitwise.  Composition is a
    homomorphism: induced(t1.compose(t2)) == compose_permutations(
    induced(t1), induced(t2)).
    """
    n = t.n
    full = (1 << n) - 1
    rows, b = t.a.row_masks, t.b.bits
    return [full ^ _apply_int(rows, b, full ^ i) for i in range(1 << n)]


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
    """Point-order truth table of the linear form x -> row . x."""
    tab = 0
    for k in range(n):
        if (row >> k) & 1:
            tab ^= _var_table(n, k)
    return tab


def _map_tables(t: AffineMap) -> list[int]:
    """Truth tables of the n output coordinates of t."""
    full = (1 << (1 << t.n)) - 1
    return [
        _form_table(row, t.n) ^ (full if (t.b.bits >> m) & 1 else 0)
        for m, row in enumerate(t.a.row_masks)
    ]


def _support(tabs, mask: int, n: int):
    """ANF support of the product of the coordinate forms selected by
    mask, with bit m = coefficient of the monomial mask m.

    Uses only &, ^ and <<, so tabs may hold Python ints (one map, any n)
    or numpy unsigned arrays of at least 2^n bits (one entry per map).
    The first & makes a fresh array, so tabs is never written.
    """
    t = (1 << (1 << n)) - 1
    k = mask
    while k:
        t &= tabs[(k & -k).bit_length() - 1]
        k &= k - 1
    return _mobius_int(t, n)


def _masks_desc(ms: MonomialSet) -> tuple[int, ...]:
    """Members, maximal degree first: the most discriminating tests lead."""
    return tuple(sorted(ms.masks, key=lambda m: (-degree(m), m)))


def transform_monomial_support(mask: int, t: AffineMap) -> MonomialSet:
    """Monomials appearing in the multilinear expansion of f o t.

    Computed from the truth table of f o t (degree never exceeds deg f,
    since the composition is a product of deg f affine forms).
    """
    n = t.n
    if mask < 0 or mask >> n:
        raise ValueError(f"mask 0x{mask:x} out of range for n={n}")
    supp = _support(_map_tables(t), mask, n)
    return MonomialSet(
        n, frozenset(m for m in range(1 << n) if (supp >> m) & 1)
    )


def substitution_coefficient(a: BitMatrix, rows: Sequence[int], cols: Sequence[int]) -> int:
    """Coefficient of prod_{j in cols} x_j in prod_{m in rows} (row_m . x).

    Substituting x_m -> sum_k a[m,k] x_k into a product of distinct
    variables makes the top-degree coefficient of any target product of
    equally many distinct variables equal to the determinant of the
    selected submatrix (signs vanish mod 2), so this simply evaluates
    that minor.
    """
    return a.minor_det(rows, cols)


def is_affine_automorphism(t: AffineMap, ms: MonomialSet) -> bool:
    """Whether the induced permutation of t preserves the code of ms.

    Tested on monomial supports: the code is spanned by the evaluation
    vectors of ms and t acts linearly on functions, so preservation is
    equivalent to transform_monomial_support(f, t) being a subset of ms
    for every member f.
    """
    if t.n != ms.n:
        raise ValueError("dimension mismatch")
    if not is_decreasing(ms):
        warnings.warn("monomial set is not decreasing", stacklevel=2)
    tabs = _map_tables(t)
    not_m = ~ms.as_int()
    return not any(_support(tabs, mask, ms.n) & not_m for mask in _masks_desc(ms))


# ---------------------------------------------------------------------------
# block profiles and BLTA groups


def swap_variables(mask: int, i: int, j: int) -> int:
    """Monomial mask with variables x_i and x_j exchanged."""
    bi, bj = (mask >> i) & 1, (mask >> j) & 1
    if bi != bj:
        mask ^= (1 << i) | (1 << j)
    return mask


def _swap_preserves(ms: MonomialSet, i: int, j: int) -> bool:
    return frozenset(swap_variables(m, i, j) for m in ms.masks) == ms.masks


def block_profile(ms: MonomialSet) -> tuple[int, ...]:
    """Coarsest block sizes whose intra-block adjacent swaps preserve ms.

    Adjacent variables i, i+1 belong to one block iff exchanging them
    maps ms onto itself; maximal runs of mergeable pairs become blocks.
    """
    if not is_decreasing(ms):
        raise ValueError("block profile requires a decreasing monomial set")
    n = ms.n
    if n == 0:
        return ()
    sizes = []
    size = 1
    for i in range(n - 1):
        if _swap_preserves(ms, i, i + 1):
            size += 1
        else:
            sizes.append(size)
            size = 1
    sizes.append(size)
    return tuple(sizes)


def _blta_allowed(profile: Sequence[int]) -> list[int]:
    """Column mask each row of a BLTA(profile) linear part may use: the
    columns up to the end of the row's block."""
    if any(s <= 0 for s in profile):
        raise ValueError("profile entries must be positive")
    allowed: list[int] = []
    for s in profile:
        allowed += [(1 << (len(allowed) + s)) - 1] * s
    return allowed


def blta_membership(t: AffineMap | BitMatrix, profile: Sequence[int]) -> bool:
    """Whether the linear part is zero above the block diagonal of profile.

    The translation is unconstrained; invertibility of the whole matrix
    then forces the diagonal blocks to be invertible.
    """
    a = t.a if isinstance(t, AffineMap) else t
    n = sum(profile)
    if a.rows != n or a.cols != n:
        raise ValueError(f"profile {tuple(profile)} does not match a {a.rows}x{a.cols} matrix")
    allowed = _blta_allowed(profile)
    return all(not a.row_mask(row) & ~cols for row, cols in enumerate(allowed))


def sample_blta(profile: Sequence[int], seed_or_rng: int | random.Random) -> AffineMap:
    """Uniform element of the BLTA group of the given profile.

    Diagonal blocks are uniform invertible matrices (rejection sampling),
    the entries below the block diagonal and the translation are uniform
    bits.  Deterministic for a given seed.
    """
    if any(s <= 0 for s in profile):
        raise ValueError("profile entries must be positive")
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else random.Random(seed_or_rng)
    n = sum(profile)
    masks = [0] * n
    start = 0
    for s in profile:
        block = _random_invertible(rng, s)
        for r in range(s):
            row = block.row_mask(r) << start
            if start:
                row |= rng.getrandbits(start)
            masks[start + r] = row
        start += s
    return AffineMap(BitMatrix(masks, n), BitVec(n, rng.getrandbits(n)))


def blta_order(profile: Sequence[int]) -> int:
    """Order of the linear part of the BLTA group (multiply by 2^n for
    the full group including translations)."""
    if any(s <= 0 for s in profile):
        raise ValueError("profile entries must be positive")
    out = 1
    for s in profile:
        out *= gl_order(s)
    total = 0
    below = 0
    for s in profile:
        below += total * s  # entries under the diagonal blocks
        total += s
    return out << below
