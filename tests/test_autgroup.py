import random

import numpy as np
import pytest

from polaraut import (
    AffineMap,
    BitMatrix,
    MonomialSet,
    all_decreasing_sets,
    block_profile,
    blta_membership,
    blta_order,
    enumerate_gl,
    gl_order,
    induced_permutation,
    is_affine_automorphism,
    random_decreasing_set,
    random_witness_instance,
    reed_muller_set,
    sample_blta,
    transposition_witness,
    verify_blta_completeness,
)
from polaraut.affine import _masks_desc
from polaraut.autgroup import (
    FalsificationError,
    _aut_alive,
    _blta_alive,
    _require,
    transposition_reduction_trace,
)
from polaraut.gf2 import _gl_rows_array
from polaraut.monomial import all_monomials

from oracles import brute_force_matrices, codeword_level_automorphism, swap_preserves_set


def _aut_rows(ms: MonomialSet) -> np.ndarray:
    """Row masks of every automorphism linear part, in table order."""
    rows = _gl_rows_array(ms.n)
    return rows[_aut_alive(rows, _masks_desc(ms), ms.as_int(), ms.n)]


def _aut_count(ms: MonomialSet) -> int:
    return verify_blta_completeness(ms).aut_count


class TestEnumeration:
    def test_rm13_count_is_full_gl(self):
        report = verify_blta_completeness(reed_muller_set(3, 1), code_id="rm(1,3)")
        assert report.aut_count == gl_order(3) == 168

    def test_rate1_counts(self):
        for n in (2, 3):
            assert _aut_count(all_monomials(n)) == gl_order(n)

    def test_pw48_regression(self):
        # frozen from the first enumeration run; profile (3, 1)
        from polaraut import construct_pw

        ms = construct_pw(4, 8).monomials
        assert block_profile(ms) == (3, 1)
        assert _aut_count(ms) == 1344 == blta_order((3, 1))

    def test_matches_scalar_filter_on_all_n3_downsets(self):
        gl3 = list(enumerate_gl(3))
        perms = [induced_permutation(AffineMap.from_linear(a)) for a in gl3]
        for ms in all_decreasing_sets(3):
            scalar = sum(
                1 for a in gl3
                if is_affine_automorphism(AffineMap.from_linear(a), ms)
            )
            # the batch and the single-map path share one kernel; the
            # codeword-level oracle shares none of it
            oracle = sum(1 for p in perms if codeword_level_automorphism(p, ms))
            assert _aut_count(ms) == scalar == oracle

    def test_batch_path_at_n6_matches_single_map(self):
        rng = random.Random(12)
        verdicts = []
        for _ in range(8):
            ms = random_decreasing_set(6, rng)
            mats = [sample_blta(block_profile(ms), rng).a for _ in range(16)]
            mats += brute_force_matrices(6, 16, rng.randrange(1 << 30))
            rows = np.array([a.row_masks for a in mats], dtype=np.uint8)
            alive = _aut_alive(rows, _masks_desc(ms), ms.as_int(), 6)
            single = [is_affine_automorphism(AffineMap.from_linear(a), ms) for a in mats]
            assert alive.tolist() == single
            verdicts += single
        assert True in verdicts and False in verdicts

    def test_batch_path_refuses_n7(self):
        rows = np.array([BitMatrix.identity(7).row_masks], dtype=np.uint8)
        with pytest.raises(ValueError):
            _aut_alive(rows, (0,), 1, 7)

    def test_stored_elements_are_automorphisms(self):
        ms = reed_muller_set(3, 1)
        mats = [BitMatrix(r, 3) for r in _aut_rows(ms).tolist()]
        assert len(mats) == _aut_count(ms)
        for a in mats[:32]:
            assert is_affine_automorphism(AffineMap.from_linear(a), ms)

    def test_group_closure(self):
        rng = random.Random(0)
        ms = random_decreasing_set(3, rng)
        rows = _aut_rows(ms).tolist()
        members = set(map(tuple, rows))
        mats = [BitMatrix(r, 3) for r in rows]
        for _ in range(1000):
            a, b = rng.choice(mats), rng.choice(mats)
            assert (a @ b).row_masks in members
        for a in mats:
            assert a.inverse().row_masks in members

    def test_blta_samples_are_enumerated(self):
        rng = random.Random(1)
        for _ in range(5):
            ms = random_decreasing_set(4, rng)
            members = {tuple(r) for r in _aut_rows(ms).tolist()}
            prof = block_profile(ms)
            for _ in range(50):
                assert sample_blta(prof, rng).a.row_masks in members

    def test_guards(self):
        for n in (0, 6):
            with pytest.raises(ValueError, match=r"1 <= n <= 5"):
                verify_blta_completeness(MonomialSet(n, frozenset({0})))
        with pytest.raises(ValueError, match="decreasing"):
            verify_blta_completeness(MonomialSet(2, frozenset({2})))

    def test_batch_zero_pattern_matches_blta_membership(self):
        cases = ((3, [(3,), (1, 2), (2, 1), (1, 1, 1)]), (4, [(4,), (1, 3), (2, 1, 1)]))
        for n, profiles in cases:
            rows = _gl_rows_array(n)
            mats = [BitMatrix([int(x) for x in r], n) for r in rows]
            for prof in profiles:
                alive = _blta_alive(rows, prof)
                assert alive.tolist() == [blta_membership(m, prof) for m in mats]
                assert alive.sum() == blta_order(prof)

    def test_jobs_do_not_change_result(self):
        ms = reed_muller_set(4, 1)
        one, two = (verify_blta_completeness(ms, jobs=j).to_json() for j in (1, 2))
        assert one == two


class TestVerification:
    def test_n3_battery(self):
        for ms in all_decreasing_sets(3):
            report = verify_blta_completeness(ms)
            assert report.passed, report.to_json()

    def test_rm_codes(self):
        for n in (3, 4):
            for r in range(n + 1):
                report = verify_blta_completeness(reed_muller_set(n, r))
                assert report.passed
                assert report.profile == (n,)
                assert report.aut_count == gl_order(n)

    def test_report_json_keys(self):
        report = verify_blta_completeness(reed_muller_set(3, 1), code_id="rm(1,3)")
        obj = report.to_json()
        assert obj["code"] == "rm(1,3)"
        assert set(obj) == {"code", "n", "K", "profile", "aut_count", "blta_count", "pass"}
        assert obj["pass"] is True

    def test_refuses_non_decreasing(self):
        with pytest.raises(ValueError):
            verify_blta_completeness(MonomialSet(3, frozenset({4})))

    def test_profile_is_coarsest_exhaustively(self):
        # merging any two adjacent blocks makes the block group strictly
        # larger than the exhaustively counted automorphism group, so the
        # merged group must contain non-automorphisms
        rng = random.Random(9)
        sets = all_decreasing_sets(3) + [random_decreasing_set(4, rng) for _ in range(10)]
        checked = 0
        for ms in sets:
            rep = verify_blta_completeness(ms)
            assert rep.passed
            prof = rep.profile
            for b in range(len(prof) - 1):
                merged = prof[:b] + (prof[b] + prof[b + 1],) + prof[b + 2:]
                assert blta_order(merged) > rep.aut_count
                checked += 1
        assert checked > 5


class TestWitness:
    def test_rm_code_with_permutation_matrix(self):
        ms = reed_muller_set(4, 2)
        masks = list(BitMatrix.identity(4).row_masks)
        masks[1], masks[2] = masks[2], masks[1]  # swap rows 1,2: a_{1,2} = 1
        trace = transposition_witness(BitMatrix(masks, 4), ms, 1)
        assert trace.swap_preserves_set
        assert len(trace.entries) == len(ms)

    def test_random_instances_agree_with_mask_swap(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.choice([4, 5, 6])
            ms, a, i = random_witness_instance(n, rng)
            trace = transposition_witness(a, ms, i)
            assert trace.swap_preserves_set == swap_preserves_set(ms, i, i + 1)
            assert trace.swap_preserves_set

    def test_case_tags_cover_hard_cases(self):
        rng = random.Random(3)
        seen = set()
        for _ in range(40):
            ms, a, i = random_witness_instance(5, rng)
            trace = transposition_witness(a, ms, i)
            seen |= {e.case for e in trace.entries}
            if {1, 2, 3} <= seen:
                break
        assert {1, 2, 3} <= seen

    def test_steps_record_operations(self):
        rng = random.Random(4)
        for _ in range(40):
            ms, a, i = random_witness_instance(5, rng)
            trace = transposition_witness(a, ms, i)
            for op in trace.operations():
                assert op["op"] == "addcol" and 0 <= op["dst"] < op["src"] < 5
            obj = trace.to_json()
            assert obj["i"] == i and obj["matrix"] == list(a.row_masks)
            if trace.operations():
                break

    def test_precondition_upper_entry(self):
        ms = reed_muller_set(3, 1)
        lower = BitMatrix.identity(3)  # a_{i,i+1} = 0 for every i
        with pytest.raises(ValueError):
            transposition_witness(lower, ms, 0)

    def test_precondition_not_automorphism(self):
        # {1, x0} is preserved by no matrix with a 1 at (0, 1)
        ms = MonomialSet(2, frozenset({0, 1}))
        a = BitMatrix.from_rows([[1, 1], [0, 1]])
        with pytest.raises(ValueError):
            transposition_witness(a, ms, 0)

    def test_precondition_not_decreasing(self):
        with pytest.raises(ValueError):
            transposition_witness(BitMatrix.identity(2), MonomialSet(2, frozenset({2})), 0)


class TestReduction:
    def test_degenerate_chain_is_single_witness(self):
        rng = random.Random(5)
        ms, a, i = random_witness_instance(4, rng)
        assert transposition_reduction_trace(
            AffineMap.from_linear(a), ms, i, i + 1).swap_preserves_set

    def test_rm_code_far_entry(self):
        ms = reed_muller_set(4, 1)
        masks = list(BitMatrix.identity(4).row_masks)
        masks[0], masks[3] = masks[3], masks[0]  # a_{0,3} = 1
        t = AffineMap.from_linear(BitMatrix(masks, 4))
        assert transposition_reduction_trace(t, ms, 0, 3).swap_preserves_set

    def test_random_cross_entries(self):
        rng = random.Random(6)
        done = 0
        while done < 15:
            n = rng.choice([4, 5])
            ms = random_decreasing_set(n, rng)
            prof = block_profile(ms)
            if max(prof) < 2:
                continue
            t = sample_blta(prof, rng)
            pairs = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if t.a[i, j] == 1
            ]
            if not pairs:
                continue
            i, j = rng.choice(pairs)
            assert transposition_reduction_trace(t, ms, i, j).swap_preserves_set
            assert swap_preserves_set(ms, i, j)
            done += 1

    def test_trace_contents(self):
        ms = reed_muller_set(4, 1)
        masks = list(BitMatrix.identity(4).row_masks)
        masks[0], masks[3] = masks[3], masks[0]
        t = AffineMap.from_linear(BitMatrix(masks, 4))
        trace = transposition_reduction_trace(t, ms, 0, 3)
        assert trace.swap_preserves_set
        assert len(trace.witnesses) == 3
        filled = BitMatrix(list(trace.filled_matrix), 4)
        for k in range(0, 3):
            assert filled[k, k + 1] == 1
        for op in trace.fill_ops:
            assert op["op"] in ("addcol", "addrow")

    def test_precondition_zero_entry(self):
        ms = reed_muller_set(3, 1)
        with pytest.raises(ValueError):
            transposition_reduction_trace(AffineMap.identity(3), ms, 0, 2)


class TestBatteries:
    def test_all_decreasing_sets_n2(self):
        sets = all_decreasing_sets(2)
        # chains in the 4-element poset 1 < x0 < x1 < x0x1: 5 down-sets
        assert len(sets) == 5

    def test_all_decreasing_sets_refuses_large(self):
        with pytest.raises(ValueError):
            all_decreasing_sets(4)

    def test_random_decreasing_set(self):
        rng = random.Random(7)
        for _ in range(30):
            ms = random_decreasing_set(5, rng)
            assert ms.n == 5

    def test_witness_instance_properties(self):
        rng = random.Random(8)
        ms, a, i = random_witness_instance(4, rng)
        assert a[i, i + 1] == 1
        prof = block_profile(ms)
        ends, start = [], 0
        for s in prof:
            ends.append((start, start + s))
            start += s
        assert any(lo <= i and i + 1 < hi for lo, hi in ends)

    def test_witness_instance_needs_two_variables(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match="n >= 2"):
                random_witness_instance(n, random.Random(0))


def test_falsification_error_carries_context():
    with pytest.raises(FalsificationError) as exc:
        _require(False, "boom", detail=42)
    assert exc.value.context == {"detail": 42}
