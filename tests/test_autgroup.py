import os
import random
import tracemalloc

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
    construct_bec,
    construct_pw,
    enumerate_gl,
    gl_order,
    induced_permutation,
    is_affine_automorphism,
    is_decreasing,
    random_decreasing_set,
    random_witness_instance,
    reed_muller_set,
    sample_blta,
    transposition_witness,
    verify_blta_completeness,
)
from polaraut import autgroup, gf2
from polaraut.affine import (
    _aut_every_row,
    _aut_level,
    _form_lut,
    _members_to_test,
    _preserves,
    _support,
)
from polaraut.autgroup import (
    FalsificationError,
    _blta_alive,
    _check_entry,
    _require,
    _sweep,
    transposition_reduction_trace,
)
from polaraut.cli import main as cli_main
from polaraut.gf2 import _gl_extend, _outside_span
from polaraut.monomial import all_monomials, construct_explicit, degree, monomial_index

from oracles import (
    _aut_alive,
    aut_sweep_oracle,
    brute_force_matrices,
    codeword_level_automorphism,
    compositions,
    down_sets_oracle,
    gl_table_oracle,
    swap_preserves_set,
)


def _aut_rows(ms: MonomialSet) -> np.ndarray:
    """Row masks of every automorphism linear part, in table order."""
    rows = gl_table_oracle(ms.n)
    return rows[_aut_alive(rows, ms, _members_to_test(ms))]


def _aut_count(ms: MonomialSet) -> int:
    return verify_blta_completeness(ms).aut_count


def _entry_points(t: AffineMap, ms: MonomialSet, i: int):
    """Both witness entry points, on the adjacent pair (i, i + 1)."""
    return [lambda: transposition_witness(t.a, ms, i),
            lambda: transposition_reduction_trace(t, ms, i, i + 1)]


def _seeded_reductions(seed: int, draws: int):
    """(ms, t, i, j) per draw: a random decreasing set with n in 4..7, a
    sampled BLTA map of its profile, and a random (i, j) with entry 1.
    Draws whose map has no 1 above the diagonal are skipped."""
    rng = random.Random(seed)
    for _ in range(draws):
        n = rng.choice([4, 5, 6, 7])
        ms = random_decreasing_set(n, rng)
        t = sample_blta(block_profile(ms), rng)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if t.a[i, j] == 1]
        if pairs:
            yield (ms, t) + rng.choice(pairs)


def _replay(masks, ops):
    """Apply recorded row/column additions to row masks, bit by bit."""
    rows = list(masks)
    for op in ops:
        src, dst = op["src"], op["dst"]
        if op["op"] == "addrow":
            rows[dst] ^= rows[src]
        else:
            rows = [r ^ (((r >> src) & 1) << dst) for r in rows]
    return tuple(rows)


class TestEnumeration:
    def test_rm13_count_is_full_gl(self):
        report = verify_blta_completeness(reed_muller_set(3, 1), code_id="rm(1,3)")
        assert report.aut_count == gl_order(3) == 168

    def test_rate1_counts(self):
        for n in (2, 3):
            assert _aut_count(all_monomials(n)) == gl_order(n)

    def test_pw48_regression(self):
        # frozen from the first enumeration run; profile (3, 1)
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
            alive = _aut_alive(rows, ms, _members_to_test(ms))
            single = [is_affine_automorphism(AffineMap.from_linear(a), ms) for a in mats]
            assert alive.tolist() == single
            verdicts += single
        assert True in verdicts and False in verdicts

    def test_batch_path_refuses_n7(self):
        rows = np.array([BitMatrix.identity(7).row_masks[:1]], dtype=np.uint8)
        with pytest.raises(ValueError):
            _aut_level(rows, MonomialSet(7, frozenset({0, 1, 2})), (2,))

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
            rows = gl_table_oracle(n)
            mats = [BitMatrix([int(x) for x in r], n) for r in rows]
            for prof in profiles:
                alive = _blta_alive(rows, prof)
                assert alive.tolist() == [blta_membership(m, prof) for m in mats]
                assert alive.sum() == blta_order(prof)

    def test_jobs_do_not_change_result(self, capsys):
        # only simulate reads --jobs; PW(10,512) has BLTA = LTA, so its AE-8
        # ensemble is all LTA and each of the two batches decodes as SC
        outs = []
        for jobs in ("1", "2"):
            assert cli_main(["simulate", "--n", "10", "--K", "512", "--pw", "--decoder", "ae",
                             "--frames", "2048", "--snr", "2.0", "--seed", "4", "--jobs", jobs]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].endswith(",2,ae,8,4\n")


def _check_sweep_against_oracle(codes) -> int:
    """Compare the level-pruned sweep with the whole-table oracle under
    every profile of each code's n; returns how many comparisons had a
    counterexample.  A forced profile finer than the code's own puts
    automorphisms outside BLTA, which exercises the counterexample path."""
    with_counterexample = 0
    for ms in codes:
        for prof in compositions(ms.n):
            got = _sweep(ms, prof)
            assert got == aut_sweep_oracle(ms, prof), (sorted(ms.masks), prof)
            with_counterexample += got[1] is not None
    return with_counterexample


def _check_level_against_oracle(ms: MonomialSet, rows: np.ndarray) -> tuple[int, int]:
    """The level kernel on the prefixes given, restricted to the vectors
    outside each prefix's span, against the candidate-by-candidate oracle
    on every continuation.  Every member whose top variable is the next
    row is tested (no degree skip); the constant has no row.  Returns the
    (passing, failing) continuation counts."""
    n, k = ms.n, rows.shape[1]
    members = [f for f in sorted(ms.masks) if f.bit_length() - 1 == k]
    outside = _outside_span(rows, n)
    parent, v = np.nonzero(outside)
    grown = np.column_stack([rows[parent], v]).astype(np.uint8)
    expected = np.zeros_like(outside)
    expected[parent, v] = _aut_alive(grown, ms, members)
    got = _aut_level(rows, ms, members)
    assert got.shape == outside.shape
    assert np.array_equal(got & outside, expected), (sorted(ms.masks), k)
    return int(expected.sum()), int(outside.sum() - expected.sum())


class TestLevelSweep:
    def test_level_kernel_matches_oracle_on_the_whole_walk(self):
        codes = [ms for n in (1, 2, 3) for ms in all_decreasing_sets(n)]
        codes += [reed_muller_set(4, r) for r in range(5)]
        codes += [construct_pw(4, k).monomials for k in range(1, 16)]
        codes += [construct_bec(4, k, 0.5).monomials for k in range(1, 16)]
        passing = failing = 0
        for ms in {ms.masks: ms for ms in codes}.values():
            n = ms.n
            rows = np.zeros((1, 0), dtype=np.uint8)
            for _ in range(n):
                ok, bad = _check_level_against_oracle(ms, rows)
                passing, failing = passing + ok, failing + bad
                rows = _gl_extend(rows, _outside_span(rows, n))
            assert len(rows) == gl_order(n)
        assert passing > 0 and failing > 0

    @pytest.mark.parametrize("n", [5, 6])
    def test_level_kernel_matches_oracle_on_seeded_prefixes(self, n):
        # n = 6 is the widest word (uint64) the truth tables allow
        rng = random.Random(20 + n)
        codes = [random_decreasing_set(n, rng) for _ in range(12)]
        codes += [MonomialSet(n, frozenset({0, 1})), construct_pw(n, 1 << (n - 1)).monomials]
        mats = brute_force_matrices(n, 48, rng.randrange(1 << 30))
        full = np.array([a.row_masks for a in mats], dtype=np.uint8)
        passing = failing = 0
        for ms in codes:
            for k in range(n):
                ok, bad = _check_level_against_oracle(ms, full[:, :k])
                passing, failing = passing + ok, failing + bad
        assert passing > 0 and failing > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_span_passes_every_row_test(self, monkeypatch, n):
        # the lemma behind the counted row (`_sweep`'s docstring): on every
        # prefix the sweep walks, every row in the prefix's span passes the
        # test of the next row, so at row n - 1 a prefix keeps every
        # continuation or none, and the zero test says which
        zero_tests = []  # per prefix at row n - 1 with a test: the verdict

        def check(rows, ms, levels):
            k = rows.shape[1]
            level = _aut_level(rows, ms, levels[k])
            outside = _outside_span(rows, n)
            assert level[~outside].all(), (sorted(ms.masks), k)
            if k == n - 1 and levels[k]:
                got = _aut_every_row(rows, ms, levels[k])
                assert np.array_equal(got, (level | ~outside).all(axis=1)), sorted(ms.masks)
                zero_tests.extend(got.tolist())

        def walk_spy(ms, levels):
            def walk(n, depth, test):
                def checked_test(rows, k):
                    check(rows, ms, levels)
                    return test(rows, k)
                for rows in gf2._walk(n, depth, checked_test):
                    check(rows, ms, levels)
                    yield rows
            return walk

        for ms in down_sets_oracle(n):
            levels = [[] for _ in range(n)]
            for f in _members_to_test(ms):
                levels[f.bit_length() - 1].append(f)
            monkeypatch.setattr(autgroup, "_walk", walk_spy(ms, levels))
            for profile in {block_profile(ms), (1,) * n}:
                _sweep(ms, profile)
        if n > 2:
            assert True in zero_tests and False in zero_tests

    def test_matches_oracle_under_forced_profiles(self):
        rng = random.Random(8)
        codes = [ms for n in (1, 2, 3) for ms in all_decreasing_sets(n)]
        codes += [reed_muller_set(4, r) for r in range(5)]
        codes += [random_decreasing_set(4, rng) for _ in range(40)]
        assert _check_sweep_against_oracle(codes) > 100

    def test_matches_oracle_across_completion_blocks(self, monkeypatch):
        # up to n=4 every level fits one chunk of 4096 prefixes; chunks of 7
        # split the larger levels, and chunks of one split every level, so
        # each chunk's prefix indices are local to it.  Chunks of one prefix
        # are needed to put a counterexample past the first chunk with two
        # free rows after the counted row: at n=4 that row is row 1, and the
        # first prefix, row 0 = x0, lies inside BLTA(1, 3) (the Reed-Muller
        # codes test no member, so none of their prefixes is pruned)
        calls = []  # per sweep: n, counted row, its chunks, rows tested, chunk of the hit
        state = {"call": None}

        def walk_spy(n, depth, test):
            state["call"] = call = {"n": n, "depth": depth, "chunks": 0, "tested": [], "hit": None}
            calls.append(call)
            for rows in gf2._walk(n, depth, test):
                call["chunks"] += 1
                yield rows

        def level_spy(rows, ms, masks):
            state["call"]["tested"].append(rows.shape[1])
            return _aut_level(rows, ms, masks)

        def every_row_spy(rows, ms, masks):  # the counted row's zero test
            state["call"]["tested"].append(rows.shape[1])
            return _aut_every_row(rows, ms, masks)

        def extend_spy(rows, keep):  # the sweep extends rows only to complete its hit
            if state["call"]["hit"] is None:
                state["call"]["hit"] = state["call"]["chunks"]
            return _gl_extend(rows, keep)

        monkeypatch.setattr(autgroup, "_walk", walk_spy)
        monkeypatch.setattr(autgroup, "_aut_level", level_spy)
        monkeypatch.setattr(autgroup, "_aut_every_row", every_row_spy)
        monkeypatch.setattr(autgroup, "_gl_extend", extend_spy)
        codes = all_decreasing_sets(3) + [reed_muller_set(4, r) for r in range(5)]
        codes += [construct_pw(4, k).monomials for k in (4, 8, 9, 10, 12, 13, 14)]
        codes += [construct_bec(4, k, 0.5).monomials for k in (9, 10, 13, 14)]
        monkeypatch.setattr(gf2, "_CHUNK", 7)
        assert _check_sweep_against_oracle(codes) > 20
        monkeypatch.setattr(gf2, "_CHUNK", 1)
        assert _check_sweep_against_oracle([reed_muller_set(4, r) for r in range(5)]) > 20
        many = [c for c in calls if c["chunks"] > 1]
        # a row tested twice in one sweep was tested in a chunk past its first
        assert sum(len(c["tested"]) > len(set(c["tested"])) for c in many) > 20
        assert sum(not c["tested"] for c in many) > 20
        assert any(c["hit"] and c["hit"] > 1 and c["n"] - 1 - c["depth"] >= 2 for c in many)

    def test_memory_is_bounded_by_the_chunk(self):
        # the heaviest n=5 sweep, all monomials but x1x2x3x4 and x0x1x2x3x4,
        # tests its last row on 302 400 prefixes.  Built a whole level at a
        # time it peaked at 7.5 MB traced; in chunks the largest arrays are
        # the level kernel's (2^n, _CHUNK) words, 1 MB, and the sweep stays
        # within four of them.  `verify_blta_completeness` sweeps its dual,
        # {1, x0}, so the walk is run on the code side directly
        ms = construct_explicit(5, [29]).monomials
        bound = 4 * (1 << ms.n) * gf2._CHUNK * 8
        tracemalloc.start()
        try:
            count, first = _sweep(ms, block_profile(ms))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = verify_blta_completeness(ms)
        assert report.passed and report.aut_count == 322560
        assert (count, first) == (report.aut_count, report.counterexample)
        assert peak < bound, (peak, bound)

    @pytest.mark.skipif(
        not os.environ.get("POLARAUT_EXTENDED"),
        reason="n=5 oracle comparison disabled (set POLARAUT_EXTENDED=1)",
    )
    def test_extended_n5_matches_oracle_under_forced_profiles(self):
        codes = [
            reed_muller_set(5, 1),
            reed_muller_set(5, 2),
            construct_pw(5, 12).monomials,
            construct_bec(5, 16, 0.5).monomials,
            random_decreasing_set(5, random.Random(1)),
        ]
        assert _check_sweep_against_oracle(codes) > 20

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_degree_skip_premise(self, n):
        # the automorphism test skips members of degree below every
        # non-member's, because no image support under any affine map has
        # a monomial of higher degree: every linear part, every translation
        # (supports are packed by row index: bit r is the monomial r ^ (2^n - 1))
        rows = gl_table_oracle(n)
        full = (1 << (1 << n)) - 1
        linear = [_form_lut(n)[col] for col in rows.T]
        for b in range(1 << n):
            tabs = [tab ^ full if (b >> m) & 1 else tab for m, tab in enumerate(linear)]
            for f in range(1 << n):
                higher = sum(1 << monomial_index(m, n) for m in range(1 << n) if degree(m) > degree(f))
                assert not np.any(_support(tabs, f, n) & higher)


def _dual(ms: MonomialSet) -> MonomialSet:
    """The complements of the non-members: the monomial set of the dual code."""
    full = (1 << ms.n) - 1
    return MonomialSet(ms.n, frozenset(full ^ m for m in range(1 << ms.n) if m not in ms))


def _check_dual(ms: MonomialSet, profile) -> tuple[int, tuple[int, ...] | None]:
    """The dual is decreasing, has ms's profile, and sweeps as ms does under
    the profile given; returns the code side's sweep."""
    dual = _dual(ms)
    assert is_decreasing(dual), sorted(ms.masks)
    assert block_profile(dual) == block_profile(ms), sorted(ms.masks)
    got = _sweep(ms, profile)
    assert _sweep(dual, profile) == got, (sorted(ms.masks), profile)
    return got


class TestDualSide:
    def test_dual_sweeps_as_the_code_on_every_down_set(self):
        # under the true profile the verdict is read from whichever side
        # the sweep picks, so it must equal the code side's sweep
        duals = 0
        for n in range(1, 6):
            for ms in down_sets_oracle(n):
                profile = block_profile(ms)
                got = _check_dual(ms, profile)
                report = verify_blta_completeness(ms)
                assert (report.aut_count, report.counterexample) == got, sorted(ms.masks)
                side = autgroup._cheaper_side(ms)
                assert side in (ms, _dual(ms))
                duals += side != ms
        assert duals == 64  # of the 164 down-sets at n <= 5

    def test_dual_sweeps_as_the_code_under_the_finest_profile(self):
        # the profile (1,)*n puts every off-diagonal automorphism outside
        # BLTA, so both sides must also agree on the first counterexample
        hits = sum(_check_dual(ms, (1,) * n)[1] is not None
                   for n in range(1, 5) for ms in down_sets_oracle(n))
        assert hits == 41  # of the 45 down-sets at n <= 4

    @pytest.mark.skipif(
        not os.environ.get("POLARAUT_EXTENDED"),
        reason="n=5 forced-profile dual sweeps disabled (set POLARAUT_EXTENDED=1)",
    )
    def test_extended_n5_dual_sweeps_as_the_code_under_the_finest_profile(self):
        hits = sum(_check_dual(ms, (1,) * 5)[1] is not None for ms in down_sets_oracle(5))
        assert hits == 117  # of the 119 down-sets at n = 5

    def test_chosen_side(self):
        # all monomials but x1x2x3x4 and x0x1x2x3x4 (`--mmin 29`) tests x0x1x2x3
        # on row 3; its dual {1, x0} tests nothing
        near_full = construct_explicit(5, [29]).monomials
        assert near_full == MonomialSet(5, frozenset(range(30)))
        assert autgroup._cheaper_side(near_full) == MonomialSet(5, frozenset({0, 1}))
        # perfbench's rand5-0: fewer members to test on the dual, but deeper
        rand5 = random_decreasing_set(5, random.Random(1))
        assert autgroup._cheaper_side(rand5) == rand5
        # RM(1,5) and its dual RM(3,5) test no member: a tie keeps the code
        rm = reed_muller_set(5, 1)
        assert _dual(rm) == reed_muller_set(5, 3)
        assert autgroup._cheaper_side(rm) == rm


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

    def test_near_full_n5_code(self):
        # every monomial but x1x2x3x4 (30) and x0x1x2x3x4 (31): the member
        # x0x1x2x3 keeps 302,400 level-3 prefixes, so the last level runs
        # in many blocks.  The verdict comes from the dual, {1, x0}, so the
        # code side is swept directly and must agree with it
        ms = MonomialSet(5, frozenset(range(30)))
        report = verify_blta_completeness(ms)
        assert report.passed and report.counterexample is None
        assert report.profile == (1, 4)
        assert report.aut_count == report.blta_count == 322_560
        assert _sweep(ms, block_profile(ms)) == (report.aut_count, report.counterexample)

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
        lower = AffineMap.identity(3)  # a_{i,i+1} = 0 for every i
        for call in _entry_points(lower, ms, 0):
            with pytest.raises(ValueError, match=r"entry \(0, 1\) must be 1"):
                call()

    def test_precondition_not_automorphism(self):
        # {1, x0} is preserved by no matrix with a 1 at (0, 1)
        ms = MonomialSet(2, frozenset({0, 1}))
        t = AffineMap.from_linear(BitMatrix.from_rows([[1, 1], [0, 1]]))
        for call in _entry_points(t, ms, 0):
            with pytest.raises(ValueError, match="not an automorphism"):
                call()

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_precondition_not_automorphism_at_larger_n(self, n):
        # uniform matrices with a 1 at (i, i+1), kept where the support
        # test finds that they move the set
        rng = random.Random(50 + n)
        rejected = 0
        while rejected < 4:
            ms = random_decreasing_set(n, rng)
            a = sample_blta((n,), rng).a
            i = rng.randrange(n - 1)
            if a[i, i + 1] != 1 or _preserves(a.row_masks, 0, ms):
                continue
            for call in _entry_points(AffineMap.from_linear(a), ms, i):
                with pytest.raises(ValueError, match="not an automorphism"):
                    call()
            rejected += 1

    def test_precondition_not_decreasing(self):
        ms = MonomialSet(2, frozenset({2}))
        for call in _entry_points(AffineMap.identity(2), ms, 0):
            with pytest.raises(ValueError, match="not decreasing"):
                call()

    @pytest.mark.parametrize("i", [-1, 2])
    def test_precondition_index_out_of_range(self, i):
        ms = reed_muller_set(3, 1)
        for call in _entry_points(AffineMap.identity(3), ms, i):
            with pytest.raises(ValueError, match=r"need 0 <= i < j < 3"):
                call()

    def test_precondition_wrong_dimension(self):
        ms = reed_muller_set(3, 1)
        t = AffineMap.from_linear(BitMatrix([3, 2, 4, 8], 4))  # a_{0,1} = 1
        for call in _entry_points(t, ms, 0):
            with pytest.raises(ValueError, match="4x4 but the code has n=3"):
                call()


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
            trace = transposition_reduction_trace(t, ms, i, j)
            assert trace.swap_preserves_set == swap_preserves_set(ms, i, j)
            assert trace.swap_preserves_set
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
        with pytest.raises(ValueError, match=r"entry \(0, 2\) must be 1"):
            transposition_reduction_trace(AffineMap.identity(3), ms, 0, 2)

    def test_seeded_reductions_fill_the_superdiagonal(self):
        # draws 118, 153 and 164 put a 1 at (k, j) where the column
        # addition for (k, k+1) already fills it; an unconditional row
        # addition then emptied it again
        done = 0
        for ms, t, i, j in _seeded_reductions(6, 200):
            trace = transposition_reduction_trace(t, ms, i, j)
            assert trace.swap_preserves_set == swap_preserves_set(ms, i, j)
            assert _replay(t.a.row_masks, trace.fill_ops) == trace.filled_matrix
            filled = BitMatrix(list(trace.filled_matrix), ms.n)
            assert all(filled[k, k + 1] == 1 for k in range(i, j))
            assert filled[i, j] == 1
            done += 1
        assert done > 180

    def test_witnesses_equal_the_adjacent_entry_point(self):
        for ms, t, i, j in _seeded_reductions(16, 40):
            trace = transposition_reduction_trace(t, ms, i, j)
            filled = BitMatrix(list(trace.filled_matrix), ms.n)
            assert len(trace.witnesses) == j - i
            for k, w in enumerate(trace.witnesses):
                assert w.to_json() == transposition_witness(filled, ms, i + k).to_json()


class TestBatteries:
    def test_all_decreasing_sets_n2(self):
        sets = all_decreasing_sets(2)
        # chains in the 4-element poset 1 < x0 < x1 < x0x1: 5 down-sets
        assert len(sets) == 5

    def test_all_decreasing_sets_match_oracle_walk(self):
        for n in range(4):
            assert set(all_decreasing_sets(n)) == set(down_sets_oracle(n))

    def test_all_decreasing_sets_refuses_large(self):
        with pytest.raises(ValueError):
            all_decreasing_sets(4)

    def test_random_decreasing_set(self):
        rng = random.Random(7)
        for _ in range(30):
            ms = random_decreasing_set(5, rng)
            assert ms.n == 5

    def test_witness_instance_properties(self):
        # Random(3)'s first set at n=2 is {1, x0}, profile (1, 1): no pair
        # merges, so the instance comes from the redraw
        assert block_profile(random_decreasing_set(2, random.Random(3))) == (1, 1)
        for n, seed in ((4, 8), (2, 3)):
            ms, a, i = random_witness_instance(n, random.Random(seed))
            _check_entry(AffineMap.from_linear(a), ms, i, i + 1)
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
