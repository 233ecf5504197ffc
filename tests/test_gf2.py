import itertools
import os
import random
import re

import numpy as np
import pytest

from polaraut import BitMatrix, enumerate_gl, extend_minor, gl_order, random_invertible
from polaraut import gf2
from polaraut.gf2 import BitVec, _bruhat_cell, _gl_extend, _outside_span, _pat_lo, _walk
from polaraut.monomial import evaluation_vector
from polaraut.selfcheck import _pivot_minor, check_independence_repair, check_minor_extension

from oracles import (
    bruhat_cell_oracle,
    brute_force_matrices,
    gl_table_oracle,
    leibniz_det,
    naive_mat_mul,
    outside_span_oracle,
    span_rank,
)

F = BitMatrix.from_rows([[1, 0], [1, 1]])


def random_matrix(rng, rows, cols):
    return BitMatrix([rng.getrandbits(cols) for _ in range(rows)], cols)


class TestBitVec:
    def test_roundtrip(self):
        v = BitVec.from_list([1, 0, 1, 1])
        assert v.to_list() == [1, 0, 1, 1]
        assert v.weight() == 3
        assert v[0] == 1 and v[1] == 0

    def test_xor_and_errors(self):
        a = BitVec(3, 0b101)
        assert (a ^ BitVec(3, 0b011)).bits == 0b110
        with pytest.raises(ValueError):
            a ^ BitVec(4, 0)
        with pytest.raises(ValueError):
            BitVec(2, 0b100)
        with pytest.raises(IndexError):
            a[3]


@pytest.mark.parametrize("call, error, message", [
    (lambda: BitVec(-1), ValueError, "negative length -1"),
    (lambda: BitMatrix([], -1), ValueError, "negative column count -1"),
    (lambda: BitMatrix([1, 4], 2), ValueError, "row mask 0x4 does not fit in 2 columns"),
    (lambda: BitMatrix.from_rows([[1, 0], [1]]), ValueError, "ragged rows"),
    (lambda: F.row_mask(2), IndexError, "row 2 out of range"),
    (lambda: F[0, 2], IndexError, "entry (0, 2) out of range"),
    (lambda: F.mul_vec(BitVec(3)), ValueError, "dimension mismatch: 2 cols vs length 3"),
    (lambda: random_invertible(0, 0), ValueError, "dimension must be positive, got 0"),
    (lambda: gl_order(-1), ValueError, "negative dimension -1"),
], ids=["bitvec-size", "bitmatrix-cols", "row-too-wide", "ragged", "row_mask", "getitem",
        "mul_vec", "random_invertible", "gl_order"])
def test_invalid_input_rejected(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestMatMul:
    def test_kernel_self_inverse(self):
        assert F @ F == BitMatrix.identity(2)

    def test_identity(self):
        rng = random.Random(0)
        a = random_matrix(rng, 4, 4)
        assert BitMatrix.identity(4) @ a == a

    def test_against_naive(self):
        rng = random.Random(1)
        for _ in range(30):
            a = random_matrix(rng, 4, 4)
            b = random_matrix(rng, 4, 4)
            assert (a @ b).to_rows() == naive_mat_mul(a.to_rows(), b.to_rows())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BitMatrix.zeros(2, 3) @ BitMatrix.zeros(2, 3)


class TestRankDet:
    def test_rank_trivial(self):
        assert BitMatrix.zeros(3, 3).rank() == 0
        assert F.rank() == 2

    def test_rank_against_span_enumeration(self):
        rng = random.Random(2)
        for rows, cols in [(5, 7), (0, 7), (3, 16), (16, 3)]:
            for _ in range(30):
                m = random_matrix(rng, rows, cols)
                assert m.rank() == span_rank(list(m.row_masks))

    def test_det_examples(self):
        assert F.det() == 1
        assert BitMatrix.from_rows([[1, 1], [1, 1]]).det() == 0
        with pytest.raises(ValueError):
            BitMatrix.zeros(2, 3).det()

    def test_det_against_leibniz(self):
        rng = random.Random(3)
        for _ in range(60):
            m = random_matrix(rng, 4, 4)
            assert m.det() == leibniz_det(m.to_rows())

    def test_det_iff_full_rank(self):
        # exhaustive for n <= 3, randomized up to 8
        for n in (1, 2, 3):
            for bits in range(1 << (n * n)):
                masks = [(bits >> (n * i)) & ((1 << n) - 1) for i in range(n)]
                m = BitMatrix(masks, n)
                assert (m.det() == 1) == (m.rank() == n)
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(4, 8)
            m = random_matrix(rng, n, n)
            assert (m.det() == 1) == (m.rank() == n)


class TestMinorDet:
    def test_full_and_single(self):
        rng = random.Random(5)
        m = random_matrix(rng, 4, 4)
        assert m.minor_det(range(4), range(4)) == m.det()
        for i in range(4):
            for j in range(4):
                assert m.minor_det([i], [j]) == m[i, j]

    def test_against_extract_then_det(self):
        # rectangular parents, every minor size, indices in shuffled order
        rng = random.Random(6)
        for p, q in [(5, 5), (5, 7), (7, 5)]:
            for k in range(min(p, q) + 1):
                for _ in range(40):
                    m = random_matrix(rng, p, q)
                    rows = rng.sample(range(p), k)
                    cols = rng.sample(range(q), k)
                    sub = [[m[i, j] for j in cols] for i in rows]
                    assert m.minor_det(rows, cols) == leibniz_det(sub)

    def test_index_validation(self):
        m = BitMatrix.identity(3)
        with pytest.raises(ValueError):
            m.minor_det([0, 0], [1, 2])
        with pytest.raises(ValueError):
            m.minor_det([0, 3], [1, 2])
        with pytest.raises(ValueError):
            m.minor_det([0, 1], [2])
        with pytest.raises(ValueError, match=r"^row index -1 out of range \[0, 3\)$"):
            m.minor_det([0, -1], [1, 2])
        with pytest.raises(ValueError, match=r"^duplicate column index 2$"):
            m.minor_det([0, 1, 2], [2, 0, 2])
        # numpy integers are exact too, at and beyond their own width
        wide = BitMatrix.identity(70)
        for dup in (np.uint8(9), np.int64(65)):
            with pytest.raises(ValueError, match=rf"^duplicate column index {int(dup)}$"):
                wide.minor_det([0, 1], [dup, dup])
        assert wide.minor_det([np.uint8(9), np.int64(65)], [9, 65]) == 1


class TestElementaryOps:
    def test_add_column_on_kernel(self):
        assert F.add_column(1, 0) == BitMatrix.identity(2)

    def test_involution(self):
        rng = random.Random(7)
        m = random_matrix(rng, 4, 5)
        assert m.add_column(3, 1).add_column(3, 1) == m
        assert m.add_row(0, 2).add_row(0, 2) == m

    def test_preserves_invertibility(self):
        rng = random.Random(8)
        for _ in range(40):
            m = random_invertible(4, rng.getrandbits(32))
            assert m.add_column(2, 0).det() == 1
            assert m.add_row(1, 3).det() == 1

    def test_src_equals_dst(self):
        with pytest.raises(ValueError):
            F.add_column(1, 1)
        with pytest.raises(ValueError):
            F.add_row(0, 0)


class TestInverse:
    def test_roundtrip(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 6)
            m = random_invertible(n, rng.getrandbits(32))
            assert m @ m.inverse() == BitMatrix.identity(n)

    def test_singular(self):
        with pytest.raises(ValueError):
            BitMatrix.from_rows([[1, 1], [1, 1]]).inverse()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_two_sided_on_all_of_gl(self, n):
        eye = BitMatrix.identity(n).to_rows()
        for m in enumerate_gl(n):
            rows, inv = m.to_rows(), m.inverse().to_rows()
            assert naive_mat_mul(rows, inv) == eye
            assert naive_mat_mul(inv, rows) == eye

    def test_seeded_singular_matrices_raise(self):
        rng = random.Random(13)
        seen = 0
        while seen < 200:
            n = rng.randint(1, 10)
            m = random_matrix(rng, n, n)
            if span_rank(list(m.row_masks)) == n:
                continue
            with pytest.raises(ValueError, match="matrix is singular"):
                m.inverse()
            seen += 1

    def test_non_square(self):
        with pytest.raises(ValueError, match="non-square"):
            BitMatrix.zeros(2, 3).inverse()


class TestExtendMinor:
    def test_full_size_start_is_identity_case(self):
        rng = random.Random(10)
        m = random_invertible(4, 11)
        rows, cols = extend_minor(m, (2, 0, 3, 1), (1, 3, 0, 2))
        assert rows == (2, 0, 3, 1) and cols == (1, 3, 0, 2)

    def test_identity_from_single_entry(self):
        rows, cols = extend_minor(BitMatrix.identity(4), [0], [0])
        assert len(rows) == len(cols) == 4
        assert BitMatrix.identity(4).minor_det(rows, cols) == 1

    def test_rank3_rectangular(self):
        rng = random.Random(12)
        found = 0
        while found < 25:
            m = random_matrix(rng, 4, 6)
            t = m.rank()
            if t < 2:
                continue
            ones = [(i, j) for i in range(4) for j in range(6) if m[i, j]]
            if not ones:
                continue
            i, j = ones[0]
            rows, cols = extend_minor(m, [i], [j])
            assert len(rows) == len(cols) == t
            assert rows[0] == i and cols[0] == j
            assert m.minor_det(rows, cols) == 1
            found += 1

    def test_singular_start_rejected(self):
        with pytest.raises(ValueError):
            extend_minor(BitMatrix.zeros(3, 3), [0], [0])

    def test_randomized_suite(self):
        res = check_minor_extension(random.Random(13), instances=500)
        assert res.failures == 0

    def test_pivot_minor_prefixes_are_nonsingular(self):
        # the fallback start of check_minor_extension, on uniform matrices
        # and on rank-deficient ones (k = 0 generators: the zero matrix)
        rng = random.Random(15)
        for trial in range(300):
            p, q = rng.randint(1, 8), rng.randint(1, 8)
            if trial % 2:
                m = random_matrix(rng, p, q)
            else:
                gens = [rng.getrandbits(q) for _ in range(rng.randint(0, min(p, q) - 1))]
                masks = [0] * p
                for i in range(p):
                    for g in gens:
                        masks[i] ^= g if rng.getrandbits(1) else 0
                m = BitMatrix(masks, q)
            rows, cols = _pivot_minor(m)
            assert len(rows) == len(cols) == span_rank(list(m.row_masks))
            for k in range(1, len(rows) + 1):
                sub = [[m[i, j] for j in cols[:k]] for i in rows[:k]]
                assert leibniz_det(sub) == 1


class TestRandomInvertible:
    def test_n1(self):
        assert random_invertible(1, 0) == BitMatrix.from_rows([[1]])

    def test_always_invertible(self):
        for seed in range(200):
            assert random_invertible(3, seed).det() == 1

    def test_uniform_over_gl2(self):
        counts = {}
        samples = 6000
        for seed in range(samples):
            m = random_invertible(2, seed)
            counts[m.row_masks] = counts.get(m.row_masks, 0) + 1
        assert len(counts) == 6
        expect = samples / 6
        sigma = (samples * (1 / 6) * (5 / 6)) ** 0.5
        for c in counts.values():
            assert abs(c - expect) < 5 * sigma


class TestEnumerateGl:
    def test_counts(self):
        assert sum(1 for _ in enumerate_gl(1)) == 1
        assert sum(1 for _ in enumerate_gl(2)) == 6 == gl_order(2)
        assert sum(1 for _ in enumerate_gl(3)) == 168 == gl_order(3)

    def test_count_n4(self):
        assert sum(1 for _ in enumerate_gl(4)) == 20160 == gl_order(4)

    def test_unique_and_invertible(self):
        seen = set()
        for m in enumerate_gl(3):
            assert m.det() == 1
            assert m.row_masks not in seen
            seen.add(m.row_masks)

    def test_lexicographic_order(self):
        masks = [m.row_masks for m in enumerate_gl(2)]
        assert masks == sorted(masks)
        assert masks[0] == (1, 2)  # smallest first row, then smallest valid second

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            next(enumerate_gl(6))


def _walk_table(n):
    """GL(n,2) from the walk itself: each of its chunks completed by the
    vectors outside their spans, concatenated."""
    return np.concatenate([_gl_extend(rows, _outside_span(rows, n)) for rows in _walk(n, n - 1)])


def _all_invertible(table):
    """Vectorized GF(2) elimination: reduce each row against the rows
    before it (every kept row lacks the leading bits of the earlier ones);
    a row reducing to 0 is dependent."""
    basis = []
    for row in table.T:  # row i of every matrix
        v = row.copy()
        for b in basis:
            np.minimum(v, v ^ b, out=v)
        if not v.all():
            return False
        basis.append(v)
    return True


class TestGlTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_oracle(self, n):
        masks = [m.row_masks for m in enumerate_gl(n)]
        assert np.array_equal(np.array(masks, dtype=np.uint8), gl_table_oracle(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_oracle_across_last_row_blocks(self, monkeypatch, n):
        # up to n=4 every level fits one chunk of 4096 prefixes; chunks of 7,
        # and of 1, split every level with more prefixes than that, so the
        # prefix index of every completed row is local to its chunk
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(gf2, "_CHUNK", chunk)
            masks = [m.row_masks for m in enumerate_gl(n)]
            assert np.array_equal(np.array(masks, dtype=np.uint8), gl_table_oracle(n)), chunk

    def test_n5_is_gl_in_lexicographic_order(self):
        # strictly increasing keys make the rows distinct and sorted; with
        # |GL(5,2)| invertible rows they are all of GL(5,2), in the
        # lexicographic order of the row-mask tuples
        table = _walk_table(5)
        assert table.shape == (gl_order(5), 5) and table.dtype == np.uint8
        keys = np.zeros(len(table), dtype=np.uint32)
        for row in table.T:  # row 0 most significant
            keys <<= np.uint32(5)
            keys |= row
        assert (keys[1:] > keys[:-1]).all()
        assert _all_invertible(table)

    def test_invertibility_check_sees_a_singular_row(self):
        table = _walk_table(3)
        assert _all_invertible(table)
        table[7, 2] = table[7, 0] ^ table[7, 1]
        assert not _all_invertible(table)

    @pytest.mark.skipif(
        not os.environ.get("POLARAUT_EXTENDED"),
        reason="full n=5 oracle comparison disabled (set POLARAUT_EXTENDED=1)",
    )
    def test_extended_n5_matches_oracle(self):
        masks = itertools.chain.from_iterable(m.row_masks for m in enumerate_gl(5))
        table = np.fromiter(masks, dtype=np.uint8, count=gl_order(5) * 5).reshape(-1, 5)
        assert np.array_equal(table, gl_table_oracle(5))


class TestOutsideSpan:
    """The walk's continuation mask, derived from the rows alone, against
    the vector-by-vector set oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_oracle_on_every_prefix_of_the_walk(self, n):
        rows = np.zeros((1, 0), dtype=np.uint8)
        while True:
            outside = _outside_span(rows, n)
            assert np.array_equal(outside, outside_span_oracle(rows, n)), rows.shape[1]
            if rows.shape[1] == n:
                break
            rows = _gl_extend(rows, outside)
        assert len(rows) == gl_order(n) and not outside.any()

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_oracle_on_seeded_prefixes(self, n):
        mats = brute_force_matrices(n, 48, 40 + n)
        full = np.array([a.row_masks for a in mats], dtype=np.uint8)
        for k in range(n + 1):
            assert np.array_equal(_outside_span(full[:, :k], n), outside_span_oracle(full[:, :k], n)), k

    def test_matches_oracle_on_blocks_past_offset_zero(self, monkeypatch):
        # chunks of 5 split both the 7 prefixes of row 1 and the 42 of row 2
        # of GL(3,2): each chunk's row-derived spans are indexed locally, and
        # the chunks of a level, in walk order, are that level in table order
        monkeypatch.setattr(gf2, "_CHUNK", 5)
        rows = np.zeros((1, 0), dtype=np.uint8)
        counts = []
        for depth in (0, 1, 2):
            chunks = list(_walk(3, depth))
            for part in chunks:
                assert len(part) <= 5
                assert np.array_equal(_outside_span(part, 3), outside_span_oracle(part, 3)), depth
            assert np.array_equal(np.concatenate(chunks), rows)
            counts.append(len(chunks))
            rows = _gl_extend(rows, _outside_span(rows, 3))
        assert counts[0] == 1 and counts[1] == 2 and counts[2] > 8


def _random_unit_lower(rng, n):
    return BitMatrix([(rng.getrandbits(i) if i else 0) | 1 << i for i in range(n)], n)


class TestBruhatCell:
    """The Bruhat cell read from one reduction, against the block-rank
    oracle and against matrices built in a known cell."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_oracle_on_all_of_gl(self, n):
        cells = set()
        for m in enumerate_gl(n):
            got = _bruhat_cell(m.row_masks)
            assert got == bruhat_cell_oracle(list(m.row_masks), n), m
            cells.add(got)
        assert cells == set(itertools.permutations(range(n)))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_oracle_on_seeded_matrices(self, n):
        for seed in range(60):
            m = random_invertible(n, 1000 * n + seed)
            assert _bruhat_cell(m.row_masks) == bruhat_cell_oracle(list(m.row_masks), n), m

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_reads_the_permutation_of_a_known_cell(self, n):
        # L1 P_w L2 with L1, L2 unit lower triangular lies in the cell of w
        rng = random.Random(40 + n)
        for _ in range(40):
            w = list(range(n))
            rng.shuffle(w)
            p = BitMatrix([1 << w[i] for i in range(n)], n)
            a = _random_unit_lower(rng, n) @ p @ _random_unit_lower(rng, n)
            assert _bruhat_cell(a.row_masks) == tuple(w)


def test_pat_lo_is_variable_table_and_swap_mask():
    # one mask serves the truth table of x_k over codeword positions and
    # the low half of the shifts by 2^k in the transforms and the level kernel
    for n in range(11):
        for k in range(n):
            low = sum(1 << x for x in range(1 << n) if not x & (1 << k))
            assert _pat_lo(n, k) == evaluation_vector(1 << k, n).bits == low


def test_gl_order_formula():
    assert gl_order(0) == 1
    assert gl_order(3) == 168
    assert gl_order(4) == 20160
    assert gl_order(5) == 9_999_360


def test_independence_repair_property():
    res = check_independence_repair(random.Random(14), instances=1000)
    assert res.failures == 0
