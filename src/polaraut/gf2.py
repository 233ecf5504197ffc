"""Bit-packed linear algebra over GF(2).

Matrices are stored row-major as Python ints: bit j of row mask i is the
entry (i, j).  Python ints give arbitrary width, so the same code covers
everything from 2x2 kernels to 2^n-column generator matrices.  All values
are immutable after construction and safe to share across workers.

`enumerate_gl` and the level-pruned sweep in `autgroup` share one walk
over GL(n,2), `_walk`, on numpy arrays of row masks.  Its only state is
its rows: a prefix of k independent rows continues with the vectors
outside their span, which each chunk of prefixes derives from its rows.
`_outside_span` gives the continuations as a (P, 2^n) bool mask,
row-major, and `_gl_extend` appends the rows a mask selects: `np.nonzero`
lists them prefix-major, vector-ascending, which keeps every level in
lexicographic order.  The walk goes depth first, `_CHUNK` prefixes of a
level at a time, so it never holds a whole level, let alone the group.
The walk yields the chunks of its last row's prefixes: `enumerate_gl`
completes each with the vectors outside its span; the sweep ANDs its
automorphism test into every row before, so only survivors are built,
and counts its counted row, which is not always the last, without
building it.
"""

from __future__ import annotations

import functools
import random
from operator import index
from collections.abc import Iterator, Sequence

import numpy as np

__all__ = [
    "BitVec",
    "BitMatrix",
    "extend_minor",
    "random_invertible",
    "enumerate_gl",
    "gl_order",
]


class BitVec:
    """Packed bit vector of fixed length; bit k of `bits` is entry k."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError(f"negative length {n}")
        if bits < 0 or bits >> n:
            raise ValueError(f"bits 0x{bits:x} do not fit in {n} positions")
        self.n = n
        self.bits = bits

    @classmethod
    def from_list(cls, entries: Sequence[int]) -> "BitVec":
        bits = 0
        for k, e in enumerate(entries):
            if e & 1:
                bits |= 1 << k
        return cls(len(entries), bits)

    def to_list(self) -> list[int]:
        return [(self.bits >> k) & 1 for k in range(self.n)]

    def weight(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int) -> int:
        if not 0 <= k < self.n:
            raise IndexError(f"bit {k} out of range for length {self.n}")
        return (self.bits >> k) & 1

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVec(self.n, self.bits ^ other.bits)

    def __int__(self) -> int:
        return self.bits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVec) and self.n == other.n and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"BitVec({self.n}, 0b{self.bits:0{max(self.n, 1)}b})"


class BitMatrix:
    """Dense GF(2) matrix; `masks[i]` holds row i with bit j = entry (i, j)."""

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, masks: Sequence[int], cols: int):
        if cols < 0:
            raise ValueError(f"negative column count {cols}")
        for m in masks:
            if m < 0 or m >> cols:
                raise ValueError(f"row mask 0x{m:x} does not fit in {cols} columns")
        self.rows = len(masks)
        self.cols = cols
        self._r = tuple(masks)

    @classmethod
    def _unchecked(cls, masks: tuple[int, ...], cols: int) -> "BitMatrix":
        """A matrix of row masks that the caller knows fit in `cols`."""
        m = cls.__new__(cls)
        m.rows = len(masks)
        m.cols = cols
        m._r = masks
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls([0] * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BitMatrix":
        cols = len(rows[0]) if rows else 0
        masks = []
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows")
            mask = 0
            for j, e in enumerate(row):
                if e & 1:
                    mask |= 1 << j
            masks.append(mask)
        return cls(masks, cols)

    def to_rows(self) -> list[list[int]]:
        return [[(m >> j) & 1 for j in range(self.cols)] for m in self._r]

    def row_mask(self, i: int) -> int:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        return self._r[i]

    @property
    def row_masks(self) -> tuple[int, ...]:
        return self._r

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {(i, j)} out of range")
        return (self._r[i] >> j) & 1

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        bt = other.transpose()._r
        masks = []
        for a in self._r:
            m = 0
            for j, col in enumerate(bt):
                if (a & col).bit_count() & 1:
                    m |= 1 << j
            masks.append(m)
        return BitMatrix(masks, other.cols)

    def mul_vec(self, x: BitVec) -> BitVec:
        if self.cols != x.n:
            raise ValueError(f"dimension mismatch: {self.cols} cols vs length {x.n}")
        bits = 0
        for i, row in enumerate(self._r):
            if (row & x.bits).bit_count() & 1:
                bits |= 1 << i
        return BitVec(self.rows, bits)

    def transpose(self) -> "BitMatrix":
        masks = [0] * self.cols
        for i, row in enumerate(self._r):
            while row:
                j = (row & -row).bit_length() - 1
                masks[j] |= 1 << i
                row &= row - 1
        return BitMatrix(masks, self.rows)

    def rank(self) -> int:
        basis: list[int] = []
        return sum(1 for m in self._r if _reduce(basis, m))

    def det(self) -> int:
        """Determinant mod 2 (1 iff invertible)."""
        if self.rows != self.cols:
            raise ValueError(f"det of non-square {self.rows}x{self.cols} matrix")
        return 1 if self.rank() == self.rows else 0

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "BitMatrix":
        _check_indices(rows, self.rows, "row")
        _check_indices(cols, self.cols, "column")
        masks = []
        for i in rows:
            m = 0
            for jj, j in enumerate(cols):
                if (self._r[i] >> j) & 1:
                    m |= 1 << jj
            masks.append(m)
        return BitMatrix(masks, len(cols))

    def minor_det(self, rows: Sequence[int], cols: Sequence[int]) -> int:
        """Determinant of the selected square submatrix."""
        if len(rows) != len(cols):
            raise ValueError(f"index lists differ in size: {len(rows)} vs {len(cols)}")
        _check_indices(rows, self.rows, "row")
        _check_indices(cols, self.cols, "column")
        basis: list[int] = []
        for i in rows:
            row = self._r[i]
            m = 0
            for jj, j in enumerate(cols):
                m |= ((row >> j) & 1) << jj
            if not _reduce(basis, m):
                return 0
        return 1

    def add_column(self, src: int, dst: int) -> "BitMatrix":
        """New matrix with column dst replaced by dst xor src."""
        if src == dst:
            raise ValueError("src column equals dst column")
        _check_indices([src, dst], self.cols, "column")
        masks = [m ^ (1 << dst) if (m >> src) & 1 else m for m in self._r]
        return BitMatrix(masks, self.cols)

    def add_row(self, src: int, dst: int) -> "BitMatrix":
        """New matrix with row dst replaced by dst xor src."""
        if src == dst:
            raise ValueError("src row equals dst row")
        _check_indices([src, dst], self.rows, "row")
        masks = list(self._r)
        masks[dst] ^= masks[src]
        return BitMatrix(masks, self.cols)

    def inverse(self) -> "BitMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        # reduce each row of [A | I], A in the high bits: a row whose A part
        # vanishes depends on the rows before it
        basis: list[int] = []
        for i, row in enumerate(self._r):
            if not _reduce(basis, row << n | 1 << i) >> n:
                raise ValueError("matrix is singular")
        # against the vectors after it, each vector's A part becomes one e_c,
        # and its I part is then row c of the inverse
        inv = [0] * n
        for m, v in enumerate(basis):
            v = _reduce(basis[m + 1:], v)
            inv[(v >> n).bit_length() - 1] = v & ((1 << n) - 1)
        return BitMatrix(inv, n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.cols == other.cols
            and self._r == other._r
        )

    def __hash__(self) -> int:
        return hash((self.cols, self._r))

    def __repr__(self) -> str:
        body = ", ".join(f"0b{m:0{max(self.cols, 1)}b}" for m in self._r)
        return f"BitMatrix([{body}], cols={self.cols})"


def _check_indices(idx: Sequence[int], bound: int, kind: str) -> None:
    """ValueError unless every index lies in [0, bound) and none repeats.
    The indices seen are kept as the bits of one int, not in a set."""
    seen = 0
    for i in idx:
        if not 0 <= i < bound:
            raise ValueError(f"{kind} index {i} out of range [0, {bound})")
        bit = 1 << (i if type(i) is int else index(i))  # numpy shifts in fixed width
        if seen & bit:
            raise ValueError(f"duplicate {kind} index {i}")
        seen |= bit


def extend_minor(
    m: BitMatrix, rows: Sequence[int], cols: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Grow a nonsingular minor of `m` to size rank(m).

    Given index lists selecting a nonsingular r x r submatrix, returns
    supersets of both lists, of size t = rank(m), whose t x t submatrix is
    again nonsingular.  The input indices are kept first, in their given
    order; new indices are appended lowest-first (rows extended before
    columns, mirroring the two-step existence argument).
    """
    if m.minor_det(rows, cols) != 1:
        raise ValueError("starting minor is singular")
    t = m.rank()

    # Extend rows while the selected rows gain rank over all columns, then
    # the columns of the selected-row submatrix the same way.
    sel_rows = _extend_independent(list(rows), m.row_masks, t)
    cols_of_rows = m.submatrix(sel_rows, range(m.cols)).transpose().row_masks
    sel_cols = _extend_independent(list(cols), cols_of_rows, t)

    if len(sel_rows) != t or len(sel_cols) != t or m.minor_det(sel_rows, sel_cols) != 1:
        raise AssertionError("minor extension failed to reach full rank")
    return tuple(sel_rows), tuple(sel_cols)


def _extend_independent(sel: list[int], vecs: Sequence[int], t: int) -> list[int]:
    """Append to sel, lowest first, each index whose vector is independent
    of those already selected, until sel has t entries."""
    basis: list[int] = []
    for k in sel:
        _reduce(basis, vecs[k])
    for k in range(len(vecs)):
        if len(sel) == t:
            break
        if k not in sel and _reduce(basis, vecs[k]):
            sel.append(k)
    return sel


def _reduce(basis: list[int], v: int) -> int:
    """Reduce v against basis, append it when nonzero, and return it.

    Invariant: the basis vectors have distinct leading bits, and each
    lacks the leading bits of the vectors before it.  The result then
    lacks every leading bit of the basis, and is 0 iff v is in its span.
    """
    for b in basis:
        v = min(v, v ^ b)
    if v:
        basis.append(v)
    return v


def _bruhat_cell(rows: Sequence[int]) -> tuple[int, ...]:
    """The permutation w of the Bruhat cell B w B holding the invertible
    matrix with these row masks, B the invertible lower-triangular
    matrices: w(i) is the leading bit of row i reduced against rows
    0..i-1.

    Proof.  Multiplying by L1 in B on the left replaces rows 0..r by
    invertible combinations of themselves, and by L2 in B on the right
    replaces columns c..n-1 by invertible combinations of themselves, so
    neither changes the rank of any top-right block (rows 0..r, columns
    c..n-1).  On the permutation matrix with rows e_w(i) that rank is
    #{i <= r : w(i) >= c}, and these counts determine w, so a matrix
    lies in at most one cell.  The reduced rows span what rows 0..r
    span and have distinct leading bits (see `_reduce`); cut to columns
    c..n-1, those leading at c or above stay independent and the others
    vanish, so the block rank is #{i <= r : w(i) >= c} with w read as
    above.  It also lies in that cell: the reduction is L1 A = R, with
    L1 unit lower triangular, and R = P_w L2, where row w(i) of L2 is row
    i of R, lower triangular with a 1 on the diagonal."""
    basis: list[int] = []
    return tuple(_reduce(basis, row).bit_length() - 1 for row in rows)


def random_invertible(n: int, seed: int) -> BitMatrix:
    """Uniform invertible n x n matrix, deterministic per seed (rejection)."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    return _random_invertible(random.Random(seed), n)


def _random_invertible(rng: random.Random, n: int) -> BitMatrix:
    while True:
        m = BitMatrix([rng.getrandbits(n) for _ in range(n)], n)
        if m.rank() == n:
            return m


# |GL(6,2)| is already 2e10 matrices; exhaustive enumeration stops at 5.
_ENUM_MAX_N = 5
_CHUNK = 1 << 12  # prefixes per level that `_walk` works on at once


def _check_enum_n(n: int) -> None:
    """Refuse an exhaustive GL(n,2) sweep outside 1 <= n <= 5."""
    if not 1 <= n <= _ENUM_MAX_N:
        raise ValueError(f"exhaustive GL(n,2) enumeration needs 1 <= n <= {_ENUM_MAX_N}, got n={n}")


def enumerate_gl(n: int) -> Iterator[BitMatrix]:
    """Yield every invertible n x n matrix exactly once.

    Ordering is lexicographic by the row-mask tuple (row 0 most
    significant), so counts taken mid-stream are reproducible.  Refuses
    n > 5 (|GL(5,2)| = 9,999,360 is the largest practical sweep).
    """
    _check_enum_n(n)
    # every walk row is a nonzero n-bit mask, so nothing needs checking
    make = BitMatrix._unchecked
    for rows in _walk(n, n - 1):
        for masks in _gl_extend(rows, _outside_span(rows, n)).tolist():
            yield make(tuple(masks), n)


def _outside_span(rows: np.ndarray, n: int) -> np.ndarray:
    """(P, 2^n) bools: entry (p, v) is set iff vector v lies outside the
    span of prefix p, so `np.nonzero` lists the continuations
    prefix-major and vector-ascending.  The span is the XOR of every
    subset of the prefix's rows, doubled up one row at a time, as flat
    indices p * 2^n + x into the mask (one subset per row of `span`)."""
    span = np.arange(len(rows))[None, :] << n
    for row in rows.T:
        span = np.vstack([span, span ^ row])
    out = np.ones(len(rows) << n, dtype=bool)
    out[span] = False
    return out.reshape(len(rows), 1 << n)


def _gl_extend(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The one-row continuations (p, v) with keep[p, v]: prefix p with row
    v appended.  keep must lie inside `_outside_span(rows, n)`."""
    parent, v = np.nonzero(keep)
    grown = np.empty((len(v), rows.shape[1] + 1), dtype=np.uint8)
    grown[:, :-1] = rows[parent]
    grown[:, -1] = v
    return grown


def _walk(n: int, depth: int, test=lambda rows, k: None) -> Iterator[np.ndarray]:
    """The (P, depth) prefix rows of row `depth`, in chunks of at most
    `_CHUNK` prefixes, depth first, in table order.  A mask that
    `test(rows, k)` returns for a chunk of k-row prefixes, k < depth, is
    ANDed into their continuations, so the prefixes it drops are never
    built; row `depth` itself is left to the caller."""
    def level(rows: np.ndarray, k: int) -> Iterator[np.ndarray]:
        for lo in range(0, len(rows), _CHUNK):
            chunk = rows[lo:lo + _CHUNK]
            if k == depth:
                yield chunk
                continue
            keep = _outside_span(chunk, n)
            if (passed := test(chunk, k)) is not None:
                keep &= passed
            grown = _gl_extend(chunk, keep)
            del keep, passed  # neither is held while the rows below are walked
            yield from level(grown, k + 1)
    return level(np.zeros((1, 0), dtype=np.uint8), 0)


@functools.lru_cache(maxsize=None)
def _pat_lo(n: int, k: int) -> int:
    """{p < 2^n : bit k of p is 0}, k < n: over codeword positions the
    truth table of x_k, and the low half of each shift by 2^k in
    `monomial._butterfly_int` and `affine._aut_level`."""
    t = (1 << (1 << k)) - 1  # the run p < 2^k, doubled up to 2^n bits
    for s in range(k + 1, n):
        t |= t << (1 << s)
    return t


def gl_order(k: int) -> int:
    """|GL(k,2)| = prod_{i<k} (2^k - 2^i)."""
    if k < 0:
        raise ValueError(f"negative dimension {k}")
    out = 1
    for i in range(k):
        out *= (1 << k) - (1 << i)
    return out
