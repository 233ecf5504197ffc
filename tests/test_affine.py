import json
import os
import random
import re

import numpy as np
import pytest

from polaraut import (
    AffineMap,
    BitMatrix,
    MonomialSet,
    apply_point,
    block_profile,
    blta_membership,
    blta_order,
    compose_permutations,
    construct_bec,
    construct_pw,
    enumerate_gl,
    gl_order,
    induced_permutation,
    invert_permutation,
    is_affine_automorphism,
    reed_muller_set,
    sample_blta,
    substitution_coefficient,
    swap_variables,
    transform_monomial_support,
)
from polaraut.affine import _by_row, _map_tables, _members_to_test, _preserves, _support
from polaraut.gf2 import BitVec, _bruhat_cell
from polaraut.monomial import anf_support
from polaraut.autgroup import random_decreasing_set
from polaraut.selfcheck import check_substitution_coefficient

from oracles import (
    codeword_level_automorphism,
    down_sets_oracle,
    evaluation_vector_oracle,
    swap_preserves_set,
)

F = BitMatrix.from_rows([[1, 0], [1, 1]])


def profile_oracle(ms):
    """Block sizes from the all-member swap test on each adjacent pair."""
    sizes = [1] if ms.n else []
    for i in range(ms.n - 1):
        if swap_preserves_set(ms, i, i + 1):
            sizes[-1] += 1
        else:
            sizes.append(1)
    return tuple(sizes)


def random_affine(rng, n):
    return sample_blta((n,), rng)


class TestAffineMap:
    def test_invariants(self):
        with pytest.raises(ValueError):
            AffineMap(BitMatrix.from_rows([[1, 1], [1, 1]]), BitVec(2))
        with pytest.raises(ValueError):
            AffineMap(BitMatrix.identity(2), BitVec(3))
        with pytest.raises(ValueError, match="^linear part must be square$"):
            AffineMap(BitMatrix([1, 2], 3), BitVec(2))

    def test_compose_inverse(self):
        rng = random.Random(0)
        for _ in range(20):
            t = random_affine(rng, 4)
            u = random_affine(rng, 4)
            x = BitVec(4, rng.getrandbits(4))
            assert apply_point(t.compose(u), x) == apply_point(t, apply_point(u, x))
            assert apply_point(t.inverse(), apply_point(t, x)) == x

    def test_json_roundtrip(self):
        rng = random.Random(1)
        t = sample_blta((2, 2), rng)
        assert AffineMap.from_json(t.to_json()) == t


class TestApplyPoint:
    def test_identity_and_translation(self):
        t = AffineMap.identity(3)
        x = BitVec(3, 0b101)
        assert apply_point(t, x) == x
        tr = AffineMap.translation(BitVec(3, 0b010))
        assert apply_point(tr, x).bits == 0b111

    def test_kernel_on_point(self):
        t = AffineMap.from_linear(F)
        assert apply_point(t, BitVec(2, 0b01)).bits == 0b11  # (1,0) -> (1,1)


class TestInducedPermutation:
    def test_identity(self):
        assert induced_permutation(AffineMap.identity(3)) == list(range(8))

    def test_translation_by_e0(self):
        perm = induced_permutation(AffineMap.translation(BitVec(2, 0b01)))
        assert perm == [1, 0, 3, 2]

    def test_bijection_exhaustive_n3(self):
        for a in enumerate_gl(3):
            for b in range(8):
                perm = induced_permutation(AffineMap(a, BitVec(3, b)))
                assert sorted(perm) == list(range(8))

    def test_composition_homomorphism(self):
        rng = random.Random(2)
        for _ in range(100):
            t1, t2 = random_affine(rng, 3), random_affine(rng, 3)
            lhs = induced_permutation(t1.compose(t2))
            rhs = compose_permutations(induced_permutation(t1), induced_permutation(t2))
            assert lhs == rhs

    def test_matches_apply_point(self):
        rng = random.Random(15)
        for n in range(1, 11):
            full = (1 << n) - 1
            for _ in range(3):
                t = random_affine(rng, n)
                points = [apply_point(t, BitVec(n, full ^ i)).bits for i in range(1 << n)]
                assert induced_permutation(t) == [full ^ y for y in points]

    def test_inverse_permutation(self):
        rng = random.Random(3)
        t = random_affine(rng, 4)
        p = induced_permutation(t)
        assert compose_permutations(p, invert_permutation(p)) == list(range(16))
        assert induced_permutation(t.inverse()) == invert_permutation(p)


class TestEvaluationConsistency:
    @staticmethod
    def check(t, n):
        perm = induced_permutation(t)
        tabs = _map_tables(t.a.row_masks, t.b.bits, n)
        full = (1 << n) - 1
        for mask in range(1 << n):
            ev = evaluation_vector_oracle(mask, n)
            permuted = BitVec.from_list([(ev >> perm[i]) & 1 for i in range(1 << n)])
            supp = transform_monomial_support(mask, t).masks
            assert anf_support(permuted).masks == supp
            # the kernel packs by row index: bit r is the monomial full ^ r
            bits = _support(tabs, mask, n)
            assert {full ^ r for r in range(1 << n) if (bits >> r) & 1} == supp

    def test_exhaustive_n_le_3(self):
        for n in (1, 2, 3):
            for a in enumerate_gl(n):
                for b in range(1 << n):
                    self.check(AffineMap(a, BitVec(n, b)), n)

    def test_random_n4(self):
        rng = random.Random(4)
        for _ in range(100):
            self.check(sample_blta((4,), rng), 4)


class TestTransformSupport:
    def test_identity(self):
        assert transform_monomial_support(0b101, AffineMap.identity(3)).masks == {0b101}

    def test_kernel_product(self):
        # y0 = x0, y1 = x0 + x1: y0*y1 = x0 + x0*x1
        t = AffineMap.from_linear(F)
        assert transform_monomial_support(0b11, t).masks == {0b01, 0b11}

    def test_degree_bound(self):
        rng = random.Random(5)
        for _ in range(50):
            t = sample_blta((4,), rng)
            mask = rng.randrange(16)
            supp = transform_monomial_support(mask, t)
            assert all(m.bit_count() <= mask.bit_count() for m in supp.masks)


class TestSubstitutionCoefficient:
    def test_kernel(self):
        assert substitution_coefficient(F, [0, 1], [0, 1]) == 1

    def test_identity_off_support(self):
        assert substitution_coefficient(BitMatrix.identity(3), [0, 2], [0, 1]) == 0

    def test_exhaustive_n3_against_anf(self):
        res = check_substitution_coefficient(3, matrices=list(enumerate_gl(3)))
        assert res.failures == 0 and res.checked == 168 * 19

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            substitution_coefficient(BitMatrix.identity(3), [0, 0], [1, 2])


class TestIsAffineAutomorphism:
    def test_identity_and_translations(self):
        rng = random.Random(6)
        for _ in range(20):
            ms = random_decreasing_set(4, rng)
            assert is_affine_automorphism(AffineMap.identity(4), ms)
            b = BitVec(4, rng.getrandbits(4))
            assert is_affine_automorphism(AffineMap.translation(b), ms)

    def test_matches_codeword_level_oracle(self):
        rng = random.Random(7)
        agree = 0
        for _ in range(1000):
            n = rng.choice([2, 3, 4])
            ms = random_decreasing_set(n, rng)
            t = sample_blta((n,), rng)
            lhs = is_affine_automorphism(t, ms)
            rhs = codeword_level_automorphism(induced_permutation(t), ms)
            assert lhs == rhs
            agree += 1
        assert agree == 1000

    def test_matches_oracle_where_the_degree_skip_drops_members(self):
        # RM(r, n), the full set and the empty set leave no member to test;
        # the non-decreasing sets {1, x1} and RM(1, n) + x_{n-2} x_{n-1}
        # leave some members but not all
        rng = random.Random(14)
        verdicts = set()
        for n in (2, 3, 4):
            closed = [reed_muller_set(n, r) for r in range(n + 1)] + [MonomialSet(n)]
            assert all(_members_to_test(ms) == () for ms in closed)
            odd = MonomialSet(n, {0, 2} if n == 2 else reed_muller_set(n, 1).masks | {3 << (n - 2)})
            assert 0 < len(_members_to_test(odd)) < len(odd)
            for _ in range(40):
                t = random_affine(rng, n)
                perm = induced_permutation(t)
                for ms in closed:
                    assert is_affine_automorphism(t, ms) == codeword_level_automorphism(perm, ms)
                with pytest.warns(UserWarning):
                    got = is_affine_automorphism(t, odd)
                assert got == codeword_level_automorphism(perm, odd)
                verdicts.add(got)
        assert verdicts == {True, False}

    def test_matches_support_route_on_every_n3_map(self):
        # every decreasing set, every linear part and every translation
        verdicts = {True: 0, False: 0}
        for ms in down_sets_oracle(3):
            for a in enumerate_gl(3):
                for b in range(8):
                    got = is_affine_automorphism(AffineMap(a, BitVec(3, b)), ms)
                    assert got == _preserves(a.row_masks, b, ms), (sorted(ms.masks), a, b)
                    verdicts[got] += 1
        assert min(verdicts.values()) > 1000

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_matches_support_route_on_seeded_maps(self, n):
        # half BLTA maps of the set's profile, half uniform affine maps
        rng = random.Random(30 + n)
        verdicts, moved = set(), 0
        for k in range(120):
            ms = random_decreasing_set(n, rng)
            t = sample_blta(block_profile(ms) if k % 2 else (n,), rng)
            got = is_affine_automorphism(t, ms)
            assert got == _preserves(t.a.row_masks, t.b.bits, ms), (sorted(ms.masks), t)
            verdicts.add(got)
            moved += got and _bruhat_cell(t.a.row_masks) != tuple(range(n))
        assert verdicts == {True, False} and moved > 5

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_matches_support_route_on_a_split_profile(self, n):
        # a code whose profile has blocks of several sizes, so the BLTA
        # maps of its profile lie outside the identity cell, and maps of
        # the profile with its first two blocks merged mostly fail
        rng = random.Random(n)
        ms = random_decreasing_set(n, rng)
        prof = block_profile(ms)
        assert len(prof) > 1 and max(prof) > 1
        merged = (prof[0] + prof[1],) + prof[2:]
        verdicts = []
        for profile in (prof, merged):
            for _ in range(6):
                t = sample_blta(profile, rng)
                assert _bruhat_cell(t.a.row_masks) != tuple(range(n))
                got = is_affine_automorphism(t, ms)
                assert got == _preserves(t.a.row_masks, t.b.bits, ms)
                verdicts.append(got)
        assert verdicts[:6] == [True] * 6 and False in verdicts[6:]

    @pytest.mark.skipif(
        not os.environ.get("POLARAUT_EXTENDED"),
        reason="every n=4 map against the support route disabled (set POLARAUT_EXTENDED=1)",
    )
    def test_extended_n4_matches_support_route(self):
        sets = down_sets_oracle(4)
        assert len(sets) == 27
        for a in enumerate_gl(4):
            t = AffineMap.from_linear(a)
            for ms in sets:
                assert is_affine_automorphism(t, ms) == _preserves(a.row_masks, 0, ms), (sorted(ms.masks), a)

    def test_warns_on_non_decreasing(self):
        ms = MonomialSet(2, frozenset({2}))
        with pytest.warns(UserWarning):
            is_affine_automorphism(AffineMap.identity(2), ms)

    def test_row_packing_is_the_reversed_member_bits(self):
        # bit r of _by_row(ms) is the monomial (2^n - 1) ^ r: the 2^n-bit
        # reversal of the set packed one member at a time
        rng = random.Random(15)
        for n in range(13):
            sets = [MonomialSet(n), MonomialSet(n, frozenset(range(1 << n)))]
            sets += [MonomialSet(n, frozenset(m for m in range(1 << n) if rng.random() < p))
                     for p in (0.1, 0.5, 0.9)]
            for ms in sets:
                naive = 0
                for m in ms.masks:
                    naive |= 1 << m
                assert ms.as_int() == naive
                assert _by_row(ms) == int(format(naive, f"0{1 << n}b")[::-1], 2)
        hits = _by_row.cache_info().hits
        assert _by_row(ms) == _by_row(ms)
        assert _by_row.cache_info().hits == hits + 2


class TestBlockProfile:
    def test_rm_is_single_block(self):
        for n, r in ((3, 1), (4, 2)):
            assert block_profile(reed_muller_set(n, r)) == (n,)

    def test_split_profile(self):
        ms = MonomialSet(2, frozenset({0, 1}))  # {1, x0}
        assert block_profile(ms) == (1, 1)

    def test_partition(self):
        rng = random.Random(8)
        for _ in range(30):
            ms = random_decreasing_set(5, rng)
            prof = block_profile(ms)
            assert sum(prof) == 5 and all(s >= 1 for s in prof)

    def test_requires_decreasing(self):
        with pytest.raises(ValueError):
            block_profile(MonomialSet(2, frozenset({2})))

    def test_matches_all_member_swaps_on_every_down_set(self):
        for n in range(6):
            for ms in down_sets_oracle(n):
                assert block_profile(ms) == profile_oracle(ms), sorted(ms.masks)

    def test_matches_all_member_swaps_on_random_sets(self):
        rng = random.Random(17)
        for k in range(300):
            ms = random_decreasing_set(6 + k % 5, rng)
            assert block_profile(ms) == profile_oracle(ms), (ms.n, sorted(ms.masks))

    def test_matches_all_member_swaps_on_constructed_codes(self):
        for n in range(11):
            big = 1 << n
            for k in sorted({1, big // 4, big // 2, 3 * big // 4, big - 1, big} - {0}):
                for spec in (construct_pw(n, k), construct_bec(n, k, 0.5)):
                    ms = spec.monomials
                    assert block_profile(ms) == profile_oracle(ms), spec.code_id()

    def test_no_variables_no_blocks(self):
        # the block sizes sum to n, so a code of length 1 has none
        for masks in (frozenset(), frozenset({0})):
            assert block_profile(MonomialSet(0, masks)) == ()


class TestBltaMembership:
    def test_lower_triangular_in_every_profile(self):
        rng = random.Random(9)
        t = sample_blta((1, 1, 1, 1), rng)
        for prof in ((1, 1, 1, 1), (2, 2), (1, 3), (4,)):
            assert blta_membership(t, prof)

    def test_zero_pattern_violation(self):
        masks = list(BitMatrix.identity(4).row_masks)
        masks[0] |= 1 << 2  # a 1 above the first 2-block boundary
        assert not blta_membership(BitMatrix(masks, 4), (2, 2))

    def test_samples_satisfy_membership(self):
        rng = random.Random(10)
        for prof in ((1, 2, 1), (3, 1), (2, 2)):
            for _ in range(20):
                assert blta_membership(sample_blta(prof, rng), prof)


class TestSampleBlta:
    def test_all_ones_profile_is_lta(self):
        rng = random.Random(11)
        for _ in range(20):
            t = sample_blta((1,) * 5, rng)
            for i in range(5):
                row = t.a.row_mask(i)
                assert (row >> i) & 1 == 1 and row >> (i + 1) == 0

    def test_samples_are_automorphisms_of_matching_code(self):
        rng = random.Random(12)
        for _ in range(20):
            ms = random_decreasing_set(5, rng)
            prof = block_profile(ms)
            t = sample_blta(prof, rng)
            assert is_affine_automorphism(t, ms)

    def test_deterministic_per_seed(self):
        assert sample_blta((2, 2), 42) == sample_blta((2, 2), 42)

    def test_numpy_integer_profile(self):
        got = sample_blta((np.int64(2), np.int64(3)), 0)
        assert json.dumps(got.to_json()) == json.dumps(sample_blta((2, 3), 0).to_json())

    def test_identity_reachable_by_seed(self):
        hit = None
        for seed in range(500):
            t = sample_blta((1, 1), seed)
            if induced_permutation(t) == list(range(4)):
                hit = seed
                break
        assert hit is not None


class TestBltaOrder:
    def test_gl_cross_check(self):
        assert gl_order(3) == 168
        assert blta_order((3,)) == 168
        assert blta_order((4,)) == gl_order(4)

    def test_numpy_integer_profiles(self):
        # exact int orders: fixed-width arithmetic would wrap (8, 8) to 0
        for prof in ((8, 8), (2, 30), (1,) * 20):
            assert blta_order(tuple(np.int64(s) for s in prof)) == blta_order(prof)

    def test_two_singleton_blocks(self):
        assert blta_order((1, 1)) == 2

    def test_formula(self):
        # (1,2,2,1): 6 * 6 diagonal choices, 13 free cells below the blocks
        assert blta_order((1, 2, 2, 1)) == 36 << 13

    def test_coarser_profile_contains_failures(self):
        # merging two adjacent blocks must admit a non-automorphism
        rng = random.Random(13)
        checked = 0
        for _ in range(50):
            ms = random_decreasing_set(4, rng)
            prof = block_profile(ms)
            if len(prof) < 2:
                continue
            merged = (prof[0] + prof[1],) + prof[2:]
            found = any(
                not is_affine_automorphism(sample_blta(merged, rng), ms)
                for _ in range(400)
            )
            assert found, (sorted(ms.masks), prof, merged)
            checked += 1
        assert checked > 5


@pytest.mark.parametrize("profile", [(0,), (-1, 2), (1.5,), ("1",)])
@pytest.mark.parametrize("call", ["sample_blta", "blta_order", "blta_membership"])
def test_invalid_profile_rejected(call, profile):
    run = {
        "sample_blta": lambda: sample_blta(profile, 0),
        "blta_order": lambda: blta_order(profile),
        "blta_membership": lambda: blta_membership(BitMatrix.identity(1), profile),
    }[call]
    with pytest.raises(ValueError, match="profile entries must be positive integers"):
        run()


@pytest.mark.parametrize("call, message", [
    (lambda: AffineMap.identity(2).compose(AffineMap.identity(3)), "dimension mismatch"),
    (lambda: is_affine_automorphism(AffineMap.identity(2), reed_muller_set(3, 1)),
     "dimension mismatch"),
    (lambda: compose_permutations([0, 1], [0, 1, 2]), "permutation length mismatch"),
    (lambda: transform_monomial_support(8, AffineMap.identity(3)), "mask 0x8 out of range for n=3"),
    (lambda: blta_membership(BitMatrix.identity(3), (1, 1)),
     "profile (1, 1) does not match a 3x3 matrix"),
], ids=["compose", "is_affine_automorphism", "compose_permutations",
        "transform_monomial_support", "blta_membership"])
def test_mismatched_input_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_swap_variables():
    assert swap_variables(0b001, 0, 1) == 0b010
    assert swap_variables(0b011, 0, 1) == 0b011
    assert swap_variables(0b100, 0, 2) == 0b001
