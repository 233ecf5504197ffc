"""Bit-packed linear algebra over GF(2).

Matrices are stored row-major as Python ints: bit j of row mask i is the
entry (i, j).  Python ints give arbitrary width, so the same code covers
everything from 2x2 kernels to 2^n-column generator matrices.  All values
are immutable after construction and safe to share across workers; so is
the GL(n,2) table behind `enumerate_gl`, a read-only numpy array built
once per n.
"""

from __future__ import annotations

import functools
import random
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
        work = list(self._r)
        r = 0
        for col in range(self.cols):
            piv = next((i for i in range(r, len(work)) if (work[i] >> col) & 1), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            for i in range(r + 1, len(work)):
                if (work[i] >> col) & 1:
                    work[i] ^= work[r]
            r += 1
            if r == len(work):
                break
        return r

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
        return self.submatrix(rows, cols).det()

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
        # Gauss-Jordan on the augmented [A | I].
        aug = [self._r[i] | (1 << (n + i)) for i in range(n)]
        r = 0
        for col in range(n):
            piv = next((i for i in range(r, n) if (aug[i] >> col) & 1), None)
            if piv is None:
                raise ValueError("matrix is singular")
            aug[r], aug[piv] = aug[piv], aug[r]
            for i in range(n):
                if i != r and (aug[i] >> col) & 1:
                    aug[i] ^= aug[r]
            r += 1
        return BitMatrix([m >> n for m in aug], n)

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
    seen = set()
    for i in idx:
        if not 0 <= i < bound:
            raise ValueError(f"{kind} index {i} out of range [0, {bound})")
        if i in seen:
            raise ValueError(f"duplicate {kind} index {i}")
        seen.add(i)


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

    sel_rows = list(rows)
    # Extend rows while the selected rows gain rank over all columns.
    basis: list[int] = []
    for i in sel_rows:
        _basis_add(basis, m.row_mask(i))
    for i in range(m.rows):
        if len(sel_rows) == t:
            break
        if i not in sel_rows and _basis_add(basis, m.row_mask(i)):
            sel_rows.append(i)

    # Extend columns of the selected-row submatrix the same way.
    sub = m.submatrix(sel_rows, range(m.cols))
    subt = sub.transpose()
    sel_cols = list(cols)
    basis = []
    for j in sel_cols:
        _basis_add(basis, subt.row_mask(j))
    for j in range(m.cols):
        if len(sel_cols) == t:
            break
        if j not in sel_cols and _basis_add(basis, subt.row_mask(j)):
            sel_cols.append(j)

    if len(sel_rows) != t or len(sel_cols) != t or m.minor_det(sel_rows, sel_cols) != 1:
        raise AssertionError("minor extension failed to reach full rank")
    return tuple(sel_rows), tuple(sel_cols)


def _basis_add(basis: list[int], v: int) -> bool:
    """Reduce v against basis; append and return True if independent."""
    for b in basis:
        v = min(v, v ^ b)
    if v:
        basis.append(v)
        return True
    return False


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
_TABLE_BLOCK = 1 << 14  # table rows produced (or yielded) per block


def enumerate_gl(n: int) -> Iterator[BitMatrix]:
    """Yield every invertible n x n matrix exactly once.

    Ordering is lexicographic by the row-mask tuple (row 0 most
    significant), so counts taken mid-stream are reproducible.  Refuses
    n > 5 (|GL(5,2)| = 9,999,360 is the largest practical sweep).
    """
    table = _gl_rows_array(n)
    for lo in range(0, len(table), _TABLE_BLOCK):
        for masks in table[lo:lo + _TABLE_BLOCK].tolist():
            yield BitMatrix(masks, n)


@functools.lru_cache(maxsize=None)
def _gl_rows_array(n: int) -> np.ndarray:
    """All GL(n,2) elements as a read-only (order, n) uint8 array of row
    masks, in the lexicographic order of `enumerate_gl`.

    Built one row level at a time.  A prefix of k independent rows
    carries its span as one word of 2^n bits (bit x set iff x is in the
    span); its continuations are the vectors outside the span, and
    `np.nonzero` on the row-major "outside" mask lists them prefix-major,
    vector-ascending, which keeps every level in lexicographic order.
    The first n - 2 levels are built whole.  The last two are filled one
    block of prefixes at a time straight into the output: every level-k
    prefix has exactly 2^n - 2^k continuations, so each block's offset is
    known, and the last level needs no spans.
    """
    if not 1 <= n <= _ENUM_MAX_N:
        raise ValueError(f"exhaustive GL(n,2) enumeration needs 1 <= n <= {_ENUM_MAX_N}, got n={n}")
    rows = np.zeros((1, 0), dtype=np.uint8)
    spans = np.ones(1, dtype=np.uint64)  # the empty prefix spans {0}
    whole = max(n - 2, 0)
    for _ in range(whole):
        rows, spans = _gl_extend(rows, spans, n)
    out = np.empty((gl_order(n), n), dtype=np.uint8)
    per_prefix = len(out) // len(rows)
    step = max(1, _TABLE_BLOCK // per_prefix)
    for lo in range(0, len(rows), step):
        r, s = rows[lo:lo + step], spans[lo:lo + step]
        for _ in range(whole, n - 1):
            r, s = _gl_extend(r, s, n)
        parent, v = _outside_span(s, n)
        dst = out[lo * per_prefix:lo * per_prefix + len(v)]
        dst[:, :-1] = r[parent]
        dst[:, -1] = v
    out.setflags(write=False)
    return out


def _outside_span(spans: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(prefix index, vector) for every vector outside each prefix's span,
    prefix-major and vector-ascending."""
    bits = (spans[:, None] >> np.arange(1 << n, dtype=np.uint64)) & np.uint64(1)
    return np.nonzero(bits == 0)


def _gl_extend(rows: np.ndarray, spans: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every one-row continuation of every prefix, with its span."""
    parent, v = _outside_span(spans, n)
    grown = np.empty((len(v), rows.shape[1] + 1), dtype=np.uint8)
    grown[:, :-1] = rows[parent]
    grown[:, -1] = v
    span = spans[parent]
    return grown, span | _xor_shift(span, v, n)


def _xor_shift(spans: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The bit sets {x ^ v : x in span}: the bit permutation x -> x ^ v,
    one masked swap of bit blocks per set bit of v."""
    for b in range(n):
        w = 1 << b
        low = np.uint64(sum(1 << x for x in range(1 << n) if not x & w))
        swapped = ((spans & low) << np.uint64(w)) | ((spans >> np.uint64(w)) & low)
        spans = np.where(((v >> b) & 1) == 1, swapped, spans)
    return spans


def gl_order(k: int) -> int:
    """|GL(k,2)| = prod_{i<k} (2^k - 2^i)."""
    if k < 0:
        raise ValueError(f"negative dimension {k}")
    out = 1
    for i in range(k):
        out *= (1 << k) - (1 << i)
    return out
