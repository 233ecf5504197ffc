"""Monomials in n boolean variables, the reliability partial order,
decreasing sets, and code construction.

A monomial is an int mask: bit k set <=> variable x_k is a factor (mask 0
is the constant 1).  Two indexing conventions are fixed here and used by
the whole package:

* Row index r of the 2^n x 2^n transform H = F^(x)n, F = [[1,0],[1,1]],
  corresponds to the monomial with mask = complement of r's n-bit digits
  (x_k present iff bit k of r is 0).  The last row (r = 2^n - 1) is the
  constant monomial / all-ones row; row 0 is the full product of weight 1.
* Codeword position i corresponds to the evaluation point whose
  coordinate x_k is the complement of bit k of i.

With these two choices the generator row of a monomial equals its
evaluation vector equals the matching row of the Kronecker power, and a
monomial's evaluation vector has 1 exactly at the positions disjoint from
its mask (weight 2^(n - degree)).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator

import numpy as np

from .gf2 import BitMatrix, BitVec, _pat_lo

__all__ = [
    "degree",
    "monomial_str",
    "leq",
    "MonomialSet",
    "decreasing_closure",
    "is_decreasing",
    "minimal_generators",
    "monomial_index",
    "index_monomial",
    "evaluation_vector",
    "generator_matrix",
    "anf",
    "anf_support",
    "reed_muller_set",
    "CodeSpec",
    "construct_bec",
    "construct_pw",
    "construct_explicit",
    "bec_z_parameters",
    "pw_weights",
]

PW_BETA = 2 ** 0.25  # standard polarization-weight expansion base
# code constructions loop over all 2^n monomials in Python, so their cost
# doubles with n: construct_pw takes about 0.08 s at n = 16 on a 2-core VM
_CONSTRUCT_MAX_N = 16


def _check_construct_n(n: int) -> None:
    if not 0 <= n <= _CONSTRUCT_MAX_N:
        raise ValueError(f"code construction needs 0 <= n <= {_CONSTRUCT_MAX_N}, got n={n}")


def degree(mask: int) -> int:
    """Number of variables in the monomial."""
    return mask.bit_count()


def monomial_str(mask: int) -> str:
    if mask == 0:
        return "1"
    return "*".join(f"x{k}" for k in range(mask.bit_length()) if (mask >> k) & 1)


def leq(g: int, f: int) -> bool:
    """The reliability partial order: g <= f means g is universally more
    reliable.

    For every s, g has at most as many variables x_k with k >= s as f
    has (s = 0 compares the degrees).  This is the two-part definition
    written as counts: same degree, the sorted variable indices of g are
    componentwise <= those of f; lower degree, g is so dominated by the
    deg(g) largest variables of f, the componentwise-largest divisor.
    """
    return all((g >> s).bit_count() <= (f >> s).bit_count() for s in range(g.bit_length()))


@dataclass(frozen=True)
class MonomialSet:
    """A set of monomial masks over a fixed variable count n."""

    n: int
    masks: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative variable count {self.n}")
        object.__setattr__(self, "masks", frozenset(self.masks))
        for m in self.masks:
            if m < 0:
                raise ValueError(f"negative monomial mask {m}")
            if m >> self.n:
                raise ValueError(f"mask 0x{m:x} uses variables beyond x{self.n - 1}")

    def __contains__(self, mask: int) -> bool:
        return mask in self.masks

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.masks))

    def __len__(self) -> int:
        return len(self.masks)

    def as_int(self) -> int:
        """The set packed as an int: bit m set iff mask m is a member."""
        return _pack_bits(self.masks, 1 << self.n)


def _pack_bits(positions: Iterable[int], size: int) -> int:
    """The int with bit p set for each p in positions, all below size:
    one numpy scatter and one byte conversion, so the cost does not grow
    with the width of the int per position."""
    bits = np.zeros(size, dtype=np.uint8)
    bits[np.fromiter(positions, dtype=np.intp)] = 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def all_monomials(n: int) -> MonomialSet:
    return MonomialSet(n, frozenset(range(1 << n)))


def _below(masks: Iterable[int]) -> set[int]:
    """The lower steps of each mask f: f without its lowest variable, and
    f with one variable x_k moved to an absent x_{k-1}.

    Every step is strictly below f, and every g < f is reached from f by
    a chain of steps, so a set is decreasing iff it holds its steps.
    """
    out: set[int] = set()
    for f in masks:
        if f:
            out.add(f & (f - 1))
        movable = f & ~(f << 1) & ~1  # x_k present, x_{k-1} absent, k >= 1
        while movable:
            b = movable & -movable
            out.add(f ^ b ^ (b >> 1))
            movable ^= b
    return out


def decreasing_closure(gens: MonomialSet) -> MonomialSet:
    """Union of the down-sets of all generators."""
    members = frontier = set(gens.masks)
    while frontier:
        frontier = _below(frontier) - members
        members |= frontier
    return MonomialSet(gens.n, frozenset(members))


@functools.lru_cache(maxsize=4096)
def is_decreasing(ms: MonomialSet) -> bool:
    """True iff ms is closed downward under the partial order: O(K n)."""
    return _below(ms.masks) <= ms.masks


@functools.lru_cache(maxsize=4096)
def minimal_generators(ms: MonomialSet) -> MonomialSet:
    """The maximal elements of a decreasing set (its generators): the
    members that are no lower step of another member."""
    if not is_decreasing(ms):
        raise ValueError("monomial set is not decreasing")
    return MonomialSet(ms.n, ms.masks - _below(ms.masks))


def monomial_index(mask: int, n: int) -> int:
    """Row index of a monomial in the 2^n x 2^n transform."""
    if mask < 0 or mask >> n:
        raise ValueError(f"mask 0x{mask:x} out of range for n={n}")
    return ((1 << n) - 1) ^ mask


def index_monomial(i: int, n: int) -> int:
    """Monomial mask of row index i (self-inverse with monomial_index)."""
    if not 0 <= i < (1 << n):
        raise ValueError(f"row index {i} out of range for n={n}")
    return ((1 << n) - 1) ^ i


def evaluation_vector(mask: int, n: int) -> BitVec:
    """Truth values of the monomial over all 2^n codeword positions.

    Position i evaluates the monomial at the complemented point of i, so
    the entry is 1 exactly when mask and i are disjoint.  Its ANF is the
    monomial alone and H is an involution, so it is H of a unit vector.
    """
    return BitVec(1 << n, _butterfly_int(1 << monomial_index(mask, n), n))


def generator_matrix(spec: "CodeSpec") -> BitMatrix:
    """K x 2^n generator matrix; rows ordered by ascending row index."""
    masks = [evaluation_vector(m, spec.n).bits for m in spec.row_monomials()]
    return BitMatrix(masks, 1 << spec.n)


# ---------------------------------------------------------------------------
# packed transforms on position- and row-indexed 2^n-bit ints (shared with affine)


def _butterfly_int(v: int, n: int) -> int:
    """Multiply a position-indexed 2^n-bit vector by H = F^(x)n."""
    for k in range(n):
        v ^= (v >> (1 << k)) & _pat_lo(n, k)
    return v


def anf(v: BitVec) -> BitVec:
    """Multilinear (algebraic normal form) coefficients of a bit vector.

    Input is a length-2^n vector in codeword-position order; the output
    holds the coefficient of the monomial of row index r at position r.
    Because H is self-inverse, this is exactly multiplication by H, and
    the transform is an involution: anf(anf(v)) == v.
    """
    n = (v.n - 1).bit_length()
    if v.n != 1 << n or v.n == 0:
        raise ValueError(f"length {v.n} is not a power of two")
    return BitVec(v.n, _butterfly_int(v.bits, n))


def anf_support(v: BitVec) -> MonomialSet:
    """Monomials with nonzero coefficient in the ANF of v."""
    return _row_support_set(anf(v).bits, (v.n - 1).bit_length())


def _row_support_set(bits: int, n: int) -> MonomialSet:
    """The monomials of a support packed by row index (bit r stands for
    the monomial (2^n - 1) ^ r), read off its set bits only."""
    masks = []
    while bits:
        masks.append(index_monomial((bits & -bits).bit_length() - 1, n))
        bits &= bits - 1
    return MonomialSet(n, frozenset(masks))


def reed_muller_set(n: int, r: int) -> MonomialSet:
    """All monomials of degree <= r (the RM(r, n) information set)."""
    _check_construct_n(n)
    return MonomialSet(n, frozenset(m for m in range(1 << n) if degree(m) <= r))


# ---------------------------------------------------------------------------
# code construction


@dataclass(frozen=True)
class CodeSpec:
    """A length-2^n code given by its information set of monomials."""

    n: int
    monomials: MonomialSet
    construction: str = "explicit"
    erasure_prob: float | None = None

    def __post_init__(self):
        if self.monomials.n != self.n:
            raise ValueError("monomial set has a different variable count")

    @property
    def K(self) -> int:
        return len(self.monomials)

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def rate(self) -> float:
        return self.K / self.N

    def row_indices(self) -> tuple[int, ...]:
        """Information-set row indices, ascending."""
        return tuple(sorted(monomial_index(m, self.n) for m in self.monomials.masks))

    def row_monomials(self) -> tuple[int, ...]:
        """Monomial masks ordered by their ascending row index."""
        return tuple(index_monomial(i, self.n) for i in self.row_indices())

    def frozen_indices(self) -> tuple[int, ...]:
        rows = set(self.row_indices())
        return tuple(i for i in range(self.N) if i not in rows)

    def is_decreasing(self) -> bool:
        return is_decreasing(self.monomials)

    def code_id(self) -> str:
        if self.construction == "bec":
            return f"bec(n={self.n},K={self.K},eps={self.erasure_prob})"
        if self.construction == "pw":
            return f"pw(n={self.n},K={self.K})"
        return f"explicit(n={self.n},mmin={self.to_json()['m_min_masks']})"

    def to_json(self) -> dict:
        out: dict = {"n": self.n, "K": self.K, "construction": self.construction}
        if self.construction == "bec":
            out["erasure_prob"] = self.erasure_prob
        if self.is_decreasing():
            out["m_min_masks"] = sorted(minimal_generators(self.monomials).masks)
        else:
            out["m_min_masks"] = sorted(self.monomials.masks)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "CodeSpec":
        kind = obj.get("construction", "explicit")
        if kind == "bec":
            spec = construct_bec(obj["n"], obj["K"], obj["erasure_prob"])
        elif kind == "pw":
            spec = construct_pw(obj["n"], obj["K"])
        elif kind == "explicit":
            spec = construct_explicit(obj["n"], obj["m_min_masks"])
            if "K" in obj and obj["K"] != spec.K:
                raise ValueError(
                    f"closure of m_min_masks has K={spec.K}, file says {obj['K']}"
                )
        else:
            raise ValueError(f"unknown construction {kind!r}")
        if "m_min_masks" in obj and kind != "explicit":
            want = frozenset(
                decreasing_closure(MonomialSet(spec.n, frozenset(obj["m_min_masks"]))).masks
            )
            if want != spec.monomials.masks:
                raise ValueError("m_min_masks disagree with the stated construction")
        return spec

    @classmethod
    def load(cls, path: str) -> "CodeSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def bec_z_parameters(n: int, erasure_prob: float) -> list[float]:
    """Bhattacharyya parameters of all 2^n synthetic BEC channels.

    One polarization step maps Z to 2Z - Z^2 (worse half, bit 0) and Z^2
    (better half, bit 1); bits of the channel index are consumed most
    significant first.
    """
    zs = [erasure_prob]
    for _ in range(n):
        nxt = []
        for z in zs:
            nxt.append(2 * z - z * z)
            nxt.append(z * z)
        zs = nxt
    return zs


def pw_weights(n: int) -> list[float]:
    """Polarization weights: W(i) = sum of beta^k over the set bits of i,
    by doubling: W(i + 2^k) = W(i) + beta^k for i < 2^k adds the terms in
    ascending k, as the sum does, so the floats are the sum's exactly."""
    ws = [0]
    for k in range(n):
        step = PW_BETA ** k
        ws += [w + step for w in ws]
    return ws


def _spec_from_rows(n: int, rows: Iterable[int], construction: str,
                    erasure_prob: float | None = None) -> CodeSpec:
    masks = frozenset(index_monomial(i, n) for i in rows)
    return CodeSpec(n, MonomialSet(n, masks), construction, erasure_prob)


def construct_bec(n: int, k: int, erasure_prob: float) -> CodeSpec:
    """Information set = the K channels with smallest BEC Z-parameter."""
    _check_construct_n(n)
    if not 0 < erasure_prob < 1:
        raise ValueError(f"erasure probability {erasure_prob} not in (0, 1)")
    if not 1 <= k <= (1 << n):
        raise ValueError(f"K={k} out of range for N={1 << n}")
    zs = bec_z_parameters(n, erasure_prob)
    # Z rounds to exactly equal values (0.0, 1.0) from n = 6 on; breaking
    # ties by descending row index (ascending monomial mask) follows a
    # linear extension of the partial order, so the set stays decreasing
    order = sorted(range(1 << n), key=lambda i: (zs[i], -i))
    return _spec_from_rows(n, order[:k], "bec", erasure_prob)


def construct_pw(n: int, k: int) -> CodeSpec:
    """Information set = the K channels with largest polarization weight."""
    _check_construct_n(n)
    if not 1 <= k <= (1 << n):
        raise ValueError(f"K={k} out of range for N={1 << n}")
    ws = pw_weights(n)
    order = sorted(range(1 << n), key=lambda i: (-ws[i], i))
    return _spec_from_rows(n, order[:k], "pw")


def construct_explicit(n: int, m_min_masks: Iterable[int]) -> CodeSpec:
    """Information set = downward closure of the given generators."""
    _check_construct_n(n)
    closure = decreasing_closure(MonomialSet(n, frozenset(m_min_masks)))
    return CodeSpec(n, closure, "explicit")
