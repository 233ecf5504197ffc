import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import polaraut
from polaraut import (
    AffineMap,
    AwgnBpskChannel,
    BecChannel,
    CodeSpec,
    ae_decode,
    construct_explicit,
    construct_pw,
    extract_info,
    induced_permutation,
    is_codeword,
    polar_encode,
    polar_transform,
    reed_muller_set,
    sample_blta,
    sc_decode,
    sc_invariance_check,
    simulate_bler,
    wilson_interval,
)
from polaraut import decode
from polaraut.affine import block_profile, blta_membership
from polaraut.decode import _F, _G0, CERTAIN_LLR, _ae_block, _plan, _sc_batch, correlation_score
from polaraut.monomial import all_monomials, construct_bec

from oracles import ae_oracle, awgn_llrs_oracle, bec_llrs_oracle, down_sets_oracle, kron_power, sc_oracle


def noiseless_llrs(codeword):
    return (1.0 - 2.0 * codeword.astype(np.float64)) * CERTAIN_LLR


@pytest.fixture(scope="module")
def pw6():
    return construct_pw(6, 32)


class TestEncode:
    def test_zero_maps_to_zero(self):
        spec = construct_pw(4, 7)
        assert not polar_encode(np.zeros(7, dtype=np.uint8), spec).any()

    def test_unit_vectors_give_transform_rows(self):
        spec = CodeSpec(3, all_monomials(3))
        h = kron_power(3)
        for i in range(8):
            u = np.zeros(8, dtype=np.uint8)
            u[i] = 1
            assert (polar_encode(u, spec) == h[i]).all()

    def test_random_codewords_are_members(self):
        rng = np.random.default_rng(0)
        spec = construct_pw(4, 9)
        for _ in range(20):
            x = polar_encode(rng.integers(0, 2, spec.K, dtype=np.uint8), spec)
            assert is_codeword(x, spec)

    def test_length_checked(self):
        for shape in ((3,), (5, 3), (2, 5, 3), ()):
            with pytest.raises(ValueError):
                polar_encode(np.zeros(shape, dtype=np.uint8), construct_pw(3, 4))

    def test_batch_equals_single_frames(self):
        rng = np.random.default_rng(24)
        spec = construct_pw(5, 12)
        u = rng.integers(0, 2, (9, spec.K), dtype=np.uint8)
        x = polar_encode(u, spec)
        assert x.shape == (9, spec.N)
        assert all((x[b] == polar_encode(u[b], spec)).all() for b in range(9))
        assert (polar_encode(u.reshape(3, 3, spec.K), spec) == x.reshape(3, 3, spec.N)).all()

    def test_info_mask_is_cached_and_read_only(self):
        spec = construct_pw(4, 7)
        mask = decode._info_mask(spec)
        assert mask is decode._info_mask(construct_pw(4, 7))
        assert mask.dtype == bool and mask.sum() == 7
        with pytest.raises(ValueError):
            mask[0] = not mask[0]

    def test_transform_is_involution(self):
        rng = np.random.default_rng(1)
        v = rng.integers(0, 2, (5, 16), dtype=np.uint8)
        assert (polar_transform(polar_transform(v)) == v).all()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_positions_major_passes_match_kron_power(self, n):
        # columns are frames: column b becomes u_b H, the XOR of the rows
        # of H that u_b selects
        rng = np.random.default_rng(200 + n)
        h = kron_power(n)
        u = rng.integers(0, 2, (1 << n, 5), dtype=np.uint8)
        x = decode._transform(u.copy())
        for b in range(5):
            assert (x[:, b] == np.bitwise_xor.reduce(h[u[:, b] == 1], axis=0)).all()

    @pytest.mark.parametrize("shape", [(16,), (7, 16), (2, 3, 16), (0, 16), (1,), (3, 1)])
    def test_public_transform_keeps_the_last_axis(self, shape):
        rng = np.random.default_rng(26)
        u = rng.integers(0, 2, shape, dtype=np.uint8)
        expected = (u.astype(np.int64) @ kron_power(shape[-1].bit_length() - 1)) % 2
        for given in (u, np.asfortranarray(u)):
            x = polar_transform(given)
            assert x.shape == shape and x.dtype == np.uint8 and x.flags.c_contiguous
            assert (x == expected).all()

    def test_transform_length_checked(self):
        for shape in ((), (0,), (6,), (3, 12)):
            with pytest.raises(ValueError, match="not a power of two"):
                polar_transform(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("bad", [2, 0.5, -1])
    @pytest.mark.parametrize("helper", ["polar_transform", "polar_encode", "extract_info", "is_codeword"])
    def test_helpers_reject_non_bits(self, helper, bad):
        # these were cast to uint8: 2 read as 0, 0.5 as 0 and -1 as 255
        spec = construct_pw(3, 4)
        word = np.zeros(spec.K if helper == "polar_encode" else spec.N, dtype=type(bad))
        word[1] = bad
        args = (word,) if helper == "polar_transform" else (word, spec)
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            getattr(polaraut, helper)(*args)

    def test_helpers_accept_bools_and_float_bits(self):
        spec = construct_pw(3, 4)
        u = np.array([1, 0, 1, 1], dtype=np.uint8)
        x = polar_encode(u, spec)
        for given in (x.astype(bool), x.astype(np.float64)):
            assert is_codeword(given, spec)
            assert (extract_info(given, spec) == u).all()
            assert (polar_transform(given) == polar_transform(x)).all()
        assert (polar_encode(u.astype(bool), spec) == x).all()
        assert (polar_encode(u.astype(np.float64), spec) == x).all()

    def test_transposed_is_a_contiguous_transpose(self):
        rng = np.random.default_rng(27)
        for shape in ((0, 5), (1, 3), (63, 7), (64, 2), (130, 9), (5, 0)):
            for a in (rng.integers(0, 2, shape, dtype=np.uint8), rng.normal(size=shape)):
                t = decode._transposed(a)
                assert t.flags.c_contiguous and t.dtype == a.dtype
                assert t.shape == shape[::-1] and (t == a.T).all()
                # into a column stripe of a wider array, as a slab of frames
                # goes into an LLR block
                wide = np.full((shape[1], shape[0] + 9), 7, dtype=a.dtype)
                assert decode._transposed(a, wide[:, 4:4 + shape[0]]).base is wide
                assert (wide[:, 4:4 + shape[0]] == a.T).all()
                assert (wide[:, :4] == 7).all() and (wide[:, 4 + shape[0]:] == 7).all()


class TestScDecode:
    def test_noiseless_all_zero(self):
        spec = construct_pw(4, 8)
        res = sc_decode(np.full(16, CERTAIN_LLR), spec)
        assert not res.info_bits.any() and not res.codeword.any()

    def test_exhaustive_codeword_sweep(self):
        rng = np.random.default_rng(2)
        for spec in (
            CodeSpec(3, reed_muller_set(3, 1)),
            CodeSpec(4, reed_muller_set(4, 1)),
            construct_pw(4, 8),
        ):
            for w in range(1 << spec.K):
                u = np.array([(w >> k) & 1 for k in range(spec.K)], dtype=np.uint8)
                x = polar_encode(u, spec)
                res = sc_decode(noiseless_llrs(x), spec)
                assert (res.info_bits == u).all()
                assert (res.codeword == x).all()

    def test_rate1_roundtrip(self):
        rng = np.random.default_rng(3)
        spec = CodeSpec(4, all_monomials(4))
        for _ in range(30):
            u = rng.integers(0, 2, 16, dtype=np.uint8)
            res = sc_decode(noiseless_llrs(polar_encode(u, spec)), spec)
            assert (res.info_bits == u).all()

    def test_output_is_reencoding(self):
        rng = np.random.default_rng(4)
        spec = construct_pw(5, 12)
        chan = AwgnBpskChannel(0.0)
        for _ in range(20):
            x = polar_encode(rng.integers(0, 2, spec.K, dtype=np.uint8), spec)
            llr = chan.llrs(x[None, :], rng, spec.rate)[0]
            res = sc_decode(llr, spec)
            assert (polar_encode(res.info_bits, spec) == res.codeword).all()

    def test_tie_breaks_to_zero(self):
        spec = CodeSpec(1, all_monomials(1))
        res = sc_decode(np.zeros(2), spec)
        assert not res.info_bits.any()

    def test_rate1_zero_llr_is_not_a_hard_decision(self):
        # SC decides u1 = 0 on the tie, then u2 from b + a: the codeword
        # is [1, 1], where the hard decision of the LLRs is [0, 1]
        res = sc_decode([0.0, -1.0], construct_pw(1, 2))
        assert res.codeword.tolist() == [1, 1]
        assert res.info_bits.tolist() == [0, 1]

    def test_rate1_zero_llr_rows_on_bec(self):
        # erasures put exact zeros into the rate-1 nodes: decoded by hard
        # decision alone, 325, 492 and 500 of the 500 frames would differ
        rng = np.random.default_rng(18)
        for k in (40, 56, 64):
            spec = construct_pw(6, k)
            llrs = BecChannel(0.4).llrs(_codewords(spec, 500, rng), rng, spec.rate)
            x = _sc_batch(llrs.T, _plan(spec)).T
            assert (x == sc_oracle(llrs, _mask(spec))[0]).all()


def _mask(spec):
    mask = np.zeros(spec.N, dtype=np.uint8)
    mask[list(spec.row_indices())] = 1
    return mask


def _codewords(spec, count, rng):
    u = np.zeros((count, spec.N), dtype=np.uint8)
    u[:, list(spec.row_indices())] = rng.integers(0, 2, (count, spec.K), dtype=np.uint8)
    return polar_transform(u)


_TIE_LLRS = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, CERTAIN_LLR, -CERTAIN_LLR])


def _llr_blocks(spec, rng, frames):
    """AWGN at 1 and 3 dB, BEC at 0.3 and 0.6, and LLRs drawn from a small
    set so that exact ties and g-sums to zero occur."""
    blocks = [
        chan.llrs(_codewords(spec, frames, rng), rng, spec.rate)
        for chan in (AwgnBpskChannel(1.0), AwgnBpskChannel(3.0), BecChannel(0.3), BecChannel(0.6))
    ]
    blocks.append(rng.choice(_TIE_LLRS, size=(frames, spec.N)))
    return np.vstack(blocks)


@pytest.mark.parametrize("n", range(1, 11))
def test_sc_kernel_matches_oracle(n):
    rng = np.random.default_rng(100 + n)
    big = 1 << n
    g0_codes = 0
    for k in sorted({1, big // 4, big // 2, 3 * big // 4, big - 1, big} - {0}):
        for spec in (construct_pw(n, k), construct_bec(n, k, 0.5)):
            g0_codes += any(op == _G0 for op, _, _, _ in _plan(spec))
            llrs = _llr_blocks(spec, rng, 24)
            x = _sc_batch(llrs.T, _plan(spec)).T
            x_ref, u_ref = sc_oracle(llrs, _mask(spec))
            assert (x == x_ref).all(), (n, k, spec.construction)
            assert is_codeword(x, spec), (n, k, spec.construction)  # every row
            assert (polar_transform(x) == u_ref).all(), (n, k, spec.construction)
    # the step that replaces f over a rate-0 left child is checked too
    assert g0_codes > 0 or n == 1


_EXTREME_LLRS = np.array([0.0, -0.0, 1e-200, -1e-200, 1.0, -1.0, 1e200, -1e200, 1e300, -1e300])


@pytest.mark.parametrize("n", range(1, 9))
def test_sc_kernel_extreme_llrs_match_oracle(n):
    # a check node that formed a * b would over- and underflow here
    # (1e200 * 1e300, 1e-200 * 1e-200), and the suite turns numpy's
    # overflow warning into an error
    rng = np.random.default_rng(300 + n)
    big = 1 << n
    for k in sorted({1, big // 4, big // 2, 3 * big // 4, big - 1, big} - {0}):
        spec = construct_pw(n, k)
        llrs = rng.choice(_EXTREME_LLRS, size=(200, spec.N))
        x = _sc_batch(llrs.T, _plan(spec)).T
        assert (x == sc_oracle(llrs, _mask(spec))[0]).all(), (n, k)


def test_sc_kernel_near_float_max_llrs():
    # noiseless LLRs of +-1.5e308, bounded as they enter the decoders: no
    # g or repetition sum overflows, and every decision is the sent bit
    rng = np.random.default_rng(400)
    for n in range(1, 9):
        for k in sorted({1, 1 << (n - 1), 1 << n}):
            spec = construct_pw(n, k)
            sent = _codewords(spec, 50, rng)
            x = _sc_batch(decode._bounded((1.0 - 2.0 * sent) * 1.5e308).T, _plan(spec)).T
            assert (x == sent).all(), (n, k)


def test_sc_kernel_flags_decisions_without_a_sign():
    # the flag marks exactly the columns in which a repetition or rate-1
    # decision reads an exact 0.0: a repetition sum that cancels, near the
    # float maximum too once bounded; a +-0.0 in a rate-1 node
    big = 1.5e308
    cases = [
        (construct_pw(2, 1), decode._REP, 4,  # the sum (c + a) + (d + b), certified over node(4)
         [[1.0, 2.0, -3.0, 4.0], [big, -big, big, -big], [1.0, -1.0, 2.0, -2.0], [big, big, big, 1.0]],
         [False, True, True, False]),
        (construct_pw(2, 4), decode._RATE1, 0,
         [[1.0, -2.0, 3.0, -4.0], [1.0, 2.0, -0.0, 4.0], [big, -big, big, -big]],
         [False, True, False]),
    ]
    for spec, op, cert, columns, want in cases:
        assert _plan(spec) == ((op, 0, 4, cert),)
        undecided = np.zeros(len(columns), dtype=bool)
        _sc_batch(decode._bounded(np.array(columns)).T, _plan(spec), undecided)
        assert undecided.tolist() == want, op


def _sum_in_halves(terms, rng=None):
    """terms summed along axis 0 in halves, as the kernel sums a repetition
    node, down to one row; given rng, the rows of each level are shuffled
    per column first, which gives another tree of the same depth."""
    while len(terms) > 1:
        if rng is not None:
            terms = np.take_along_axis(terms, rng.random(terms.shape).argsort(axis=0), axis=0)
        h = len(terms) // 2
        terms = terms[h:] + terms[:h]
    return terms[0]


@pytest.mark.parametrize("size", [2, 4, 8, 16, 32, 64])
def test_certificate_holds_under_other_orders_of_additions(size):
    # _flag over terms of shape (S/c, c, B), the node(S) input of c class
    # sums, leaves a column unmarked only when every class sum keeps its
    # sign, which is not 0, under 20 random trees of the same depth.  The
    # terms are AWGN values and the cancelling alphabet (+-2^53, +-1, 0.5,
    # +-3), whose order decides the rounding, so some columns are marked;
    # columns whose terms have one sign, near the bound of _bounded, are not
    rng = np.random.default_rng(1300 + size)
    batch, big = 512, 2.0 ** 53
    marked = 0
    for c in (1, 2, 4):
        if c > size:
            continue
        shape = (size // c, c, batch)
        awgn = 2.0 * (1.0 - 2.0 * rng.integers(0, 2, shape)) + rng.normal(0.0, 2.0, shape)
        cancel = rng.choice([big, -big, 1.0, -1.0, 0.5, 3.0, -3.0], size=shape)
        # the values of a node of size S are below 2^1019 / S (_bounded)
        one_sign = np.where(rng.random((1, c, batch)) < 0.5, -1.0, 1.0) * rng.uniform(0.5, 1.0, shape) * 2.0 ** 1019 / size
        for name, terms in ("awgn", awgn), ("cancel", cancel), ("one-sign", one_sign):
            s = _sum_in_halves(terms)
            undecided = np.zeros(batch, dtype=bool)
            assert not decode._flag(undecided, s, terms) or not undecided.any(), (c, name)
            kept = ~undecided
            assert (np.sign(s[:, kept]) != 0).all(), (c, name)
            for _ in range(20):
                other = _sum_in_halves(terms, rng)
                assert (np.sign(other[:, kept]) == np.sign(s[:, kept])).all(), (c, name)
            assert name != "one-sign" or not undecided.any(), c
            marked += int(undecided.sum())
    assert marked


def test_scores_overflow_to_inf_without_a_warning():
    # the public score of any LLRs overflows to +-inf, with no warning for
    # the suite to turn into an error; the decoders score the frame they
    # decode, which _bounded has scaled by 2^-6 at n = 1, and no score
    # overflows
    spec = construct_pw(1, 1)
    assert correlation_score([0, 0], [1.5e308, 1.5e308]) == np.inf
    assert correlation_score([[0, 0], [1, 1]], [1.5e308, 1.5e308]).tolist() == [np.inf, -np.inf]
    assert sc_decode([1.5e308, 1.5e308], spec).scores == (1.5e308 / 32,)
    assert ae_decode([1.5e308, 1.5e308], [[0, 1], [1, 0]], spec).scores == (1.5e308 / 32,) * 2


@pytest.mark.parametrize("tile", [1, 7, 100])
@pytest.mark.parametrize("n", [3, 6, 9])
def test_tiled_sc_kernel_matches_oracle(monkeypatch, n, tile):
    # blocks of 1, 2, 33 and 28 frames: slabs of 100, 50, 7, 3 and 1 rows,
    # most of which divide no node size, so the last slab is short
    monkeypatch.setattr(decode, "_TILE", tile)
    rng = np.random.default_rng(500 + n)
    big = 1 << n
    for k in sorted({1, big // 4, big // 2, 3 * big // 4, big - 1, big} - {0}):
        for spec in (construct_pw(n, k), construct_bec(n, k, 0.5)):
            llrs = np.vstack([_llr_blocks(spec, rng, 8), rng.choice(_EXTREME_LLRS, size=(24, spec.N))])
            x_ref = sc_oracle(llrs, _mask(spec))[0]
            for lo, hi in ((0, 1), (1, 3), (3, 36), (36, 64)):
                x = _sc_batch(np.ascontiguousarray(llrs[lo:hi].T), _plan(spec)).T
                assert (x == x_ref[lo:hi]).all(), (n, k, spec.construction, hi - lo)


def _left_child_rate0(mask, lo, size):
    return not mask[lo:lo + size].any()


def test_plan_has_no_f_over_rate0_left_children():
    spec = construct_pw(12, 2048)
    mask = _mask(spec)
    plan = _plan(spec)
    ops = [op for op, _, _, _ in plan]
    assert not any(op == _F and _left_child_rate0(mask, lo, h) for op, lo, h, _ in plan)
    assert all(_left_child_rate0(mask, lo, h) for op, lo, h, _ in plan if op == _G0)
    # a plan that took f over every split had 356 f steps, 55 of them
    # over rate-0 left children, and the same XOR, repetition and rate-1
    # steps
    assert ops.count(_F) == 301 and ops.count(_G0) == 55
    assert [ops.count(op) for op in (decode._XOR, decode._REP, decode._RATE1)] == [356, 128, 174]


def test_equal_specs_share_one_plan():
    # the plan cache is keyed by the spec, so an equal spec built again
    # finds the plan of the first
    a, b = construct_pw(8, 100), construct_pw(8, 100)
    assert a is not b and a == b
    assert _plan(a) is _plan(b)


def _dirty_workspace():
    work = getattr(decode._local, "work", None)
    if work is not None:
        work.fill(np.nan)


def test_sc_kernel_workspace_reuse_matches_oracle(monkeypatch):
    # back-to-back calls of mixed shapes on one thread, each on a workspace
    # that an earlier call left full of NaN; BEC blocks put exact 0.0 LLRs
    # on rate-1 nodes, which takes the nested rate-1 re-decode
    rng = np.random.default_rng(600)
    calls = [(construct_pw(8, 128), 9), (construct_pw(3, 4), 1), (construct_bec(6, 40, 0.5), 13),
             (construct_pw(10, 700), 2), (construct_pw(1, 1), 5), (construct_pw(8, 128), 9)]
    for spec, frames in calls:
        llrs = _llr_blocks(spec, rng, frames)
        decode._workspace(spec.N - 1, len(llrs))  # grown now, so the call reuses it
        _dirty_workspace()
        x = _sc_batch(np.ascontiguousarray(llrs.T), _plan(spec))
        assert (x.T == sc_oracle(llrs, _mask(spec))[0]).all(), (spec.n, spec.K)
        assert not np.shares_memory(x, decode._local.work)
    # a call above the retention cap decodes in a buffer of its own; the
    # re-decode of a rate-1 node below the root (at most N/2 rows) runs in
    # a prefix of the retained buffer, at most (N/2 - 1) * frames LLRs, and
    # leaves the rest of it as it was
    monkeypatch.setattr(decode, "_BLOCK_LLRS", 4096)
    kept = decode._local.work
    size = len(kept)
    spec = construct_bec(8, 100, 0.5)
    llrs = _llr_blocks(spec, rng, 12)
    assert (spec.N - 1) * len(llrs) > decode._BLOCK_LLRS
    _dirty_workspace()
    x = _sc_batch(np.ascontiguousarray(llrs.T), _plan(spec))
    assert (x.T == sc_oracle(llrs, _mask(spec))[0]).all()
    assert decode._local.work is kept and len(kept) == size
    assert not np.isnan(kept).all()  # a nested re-decode ran in it
    assert np.isnan(kept[(spec.N // 2 - 1) * len(llrs):]).all()


@pytest.mark.parametrize("n", range(1, 11))
def test_sc_kernel_bec_matches_oracle(monkeypatch, n):
    # erasures put exact 0.0 LLRs on rate-1 nodes, whose re-decode shares
    # the workspace of the call that holds the node; each block decodes on
    # a workspace left full of NaN.  The kernel calls itself through the
    # module, so the recorder sees the nested calls alone
    rng = np.random.default_rng(800 + n)
    nested = []

    def counted(llrs, plan):
        nested.append(llrs.shape)
        return _sc_batch(llrs, plan)

    monkeypatch.setattr(decode, "_sc_batch", counted)
    big = 1 << n
    for k in sorted({1, big // 4, big // 2, 3 * big // 4, big - 1, big} - {0}):
        for spec in (construct_pw(n, k), construct_bec(n, k, 0.5)):
            for eps in (0.1, 0.5, 0.9):
                llrs = BecChannel(eps).llrs(_codewords(spec, 24, rng), rng, spec.rate)
                block = np.ascontiguousarray(llrs.T)
                decode._workspace(spec.N - 1, len(llrs))
                _dirty_workspace()
                x = _sc_batch(block, _plan(spec)).T
                assert (x == sc_oracle(llrs, _mask(spec))[0]).all(), (n, k, spec.construction, eps)
                # the root's LLRs are the caller's: the kernel only reads them
                assert block.tobytes() == np.ascontiguousarray(llrs.T).tobytes()
    assert nested


def test_sc_kernel_threads_match_serial():
    # four threads on two cores, two codes of different lengths: each thread
    # decodes in its own workspace, so the results equal a serial run
    rng = np.random.default_rng(700)
    jobs = []
    for spec in (construct_pw(9, 256), construct_bec(7, 80, 0.5)) * 2:
        jobs.append((np.ascontiguousarray(_llr_blocks(spec, rng, 16).T), _plan(spec)))
    serial = [_sc_batch(llrs, plan) for llrs, plan in jobs]
    results = [[] for _ in jobs]

    def run(i):
        llrs, plan = jobs[i]
        for _ in range(8):
            results[i].append(_sc_batch(llrs, plan))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for ref, got in zip(serial, results):
        assert len(got) == 8 and all((x == ref).all() for x in got)


class TestAeDecode:
    def test_identity_only_matches_sc(self, pw6):
        rng = np.random.default_rng(5)
        chan = AwgnBpskChannel(1.0)
        ident = [list(range(64))]
        for _ in range(25):
            x = polar_encode(rng.integers(0, 2, pw6.K, dtype=np.uint8), pw6)
            llr = chan.llrs(x[None, :], rng, pw6.rate)[0]
            a = sc_decode(llr, pw6)
            b = ae_decode(llr, ident, pw6)
            assert (a.codeword == b.codeword).all()
            assert (a.info_bits == b.info_bits).all()

    def test_lta_ensemble_matches_sc(self, pw6):
        # lower-triangular maps are SC-invariant, so the ensemble output
        # is bit-identical to plain SC
        rng = random.Random(6)
        nrng = np.random.default_rng(7)
        perms = [induced_permutation(sample_blta((1,) * 6, rng)) for _ in range(4)]
        chan = AwgnBpskChannel(1.0)
        for _ in range(25):
            x = polar_encode(nrng.integers(0, 2, pw6.K, dtype=np.uint8), pw6)
            llr = chan.llrs(x[None, :], nrng, pw6.rate)[0]
            assert (ae_decode(llr, perms, pw6).codeword == sc_decode(llr, pw6).codeword).all()

    def test_noiseless_recovers_transmission(self, pw6):
        rng = random.Random(8)
        nrng = np.random.default_rng(9)
        from polaraut.affine import block_profile

        perms = [
            induced_permutation(sample_blta(block_profile(pw6.monomials), rng))
            for _ in range(6)
        ]
        for _ in range(10):
            u = nrng.integers(0, 2, pw6.K, dtype=np.uint8)
            x = polar_encode(u, pw6)
            res = ae_decode(noiseless_llrs(x), perms, pw6)
            assert (res.codeword == x).all()
            assert (res.info_bits == u).all()
            assert res.scores[res.chosen] == max(res.scores)

    def test_candidates_are_codewords(self, pw6):
        rng = random.Random(10)
        nrng = np.random.default_rng(11)
        from polaraut.affine import block_profile

        perms = [
            induced_permutation(sample_blta(block_profile(pw6.monomials), rng))
            for _ in range(4)
        ]
        chan = AwgnBpskChannel(0.0)
        for _ in range(10):
            x = polar_encode(nrng.integers(0, 2, pw6.K, dtype=np.uint8), pw6)
            llr = chan.llrs(x[None, :], nrng, pw6.rate)[0]
            res = ae_decode(llr, perms, pw6)
            assert is_codeword(res.codeword, pw6)
            assert (polar_encode(res.info_bits, pw6) == res.codeword).all()

    def test_empty_ensemble_rejected(self, pw6):
        with pytest.raises(ValueError):
            ae_decode(np.zeros(64), [], pw6)


_NOT_PERMUTATIONS = {
    "constant": [[0] * 64],
    "repeated-half": [list(range(32)) * 2],
    "out-of-range": [list(range(1, 65))],
    "ragged": [[0]],
    "scalar-entry": [5],
}


@pytest.mark.parametrize("name", sorted(_NOT_PERMUTATIONS))
def test_ae_decode_rejects_non_permutation(pw6, name):
    perms = [list(range(64))] + _NOT_PERMUTATIONS[name]
    with pytest.raises(ValueError, match="permutation of range"):
        ae_decode(np.zeros(64), perms, pw6)


@pytest.mark.parametrize("name", sorted(_NOT_PERMUTATIONS))
def test_simulate_ae_rejects_non_permutation(pw6, name):
    perms = [list(range(64))] + _NOT_PERMUTATIONS[name]
    with pytest.raises(ValueError, match="permutation of range"):
        simulate_bler(pw6, AwgnBpskChannel(3.0), 10, seed=0, decoder="ae", perms=perms)


@pytest.mark.parametrize("perms", [[[1.9, 0.2]], [[True, False]], [["1", "0"]]], ids=["float", "bool", "str"])
@pytest.mark.parametrize("entry", ["ae_decode", "simulate"])
def test_ae_rejects_non_integer_ensemble(perms, entry):
    # these were cast to intp: [[1.9, 0.2]] decoded under [1, 0]
    spec = construct_pw(1, 1)
    with pytest.raises(ValueError, match="permutation of range"):
        if entry == "ae_decode":
            ae_decode([1.0, -2.0], perms, spec)
        else:
            simulate_bler(spec, AwgnBpskChannel(3.0), 10, seed=0, decoder="ae", perms=perms)


@pytest.mark.parametrize("call, message", [
    (lambda: BecChannel(1.0), "erasure probability 1.0 not in [0, 1)"),
    (lambda: sc_decode([1.0, 1.0, 1.0], construct_pw(2, 2)), "expected 4 LLRs, got shape (3,)"),
], ids=["bec-certain-erasure", "sc-llr-length"])
def test_invalid_input_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("decoder", ["sc", "ae"])
def test_decoders_reject_non_finite_llrs(bad, decoder):
    # a NaN decided as bit 0 with score nan, and +-inf gave score inf
    spec = construct_pw(2, 2)
    llr = [bad, 1.0, 1.0, 1.0]
    with pytest.raises(ValueError, match="LLRs must be finite"):
        if decoder == "sc":
            sc_decode(llr, spec)
        else:
            ae_decode(llr, [list(range(4))], spec)


class _NonFiniteChannel:
    """AWGN at 2 dB with one LLR of a given value in each slab, as a
    channel that could give a NaN or +-inf would."""

    param_value = 2.0

    def __init__(self, bad):
        self.bad = bad

    def llrs(self, x, rng, rate):
        out = AwgnBpskChannel(2.0).llrs(x, rng, rate)
        out[-1, -1] = self.bad
        return out


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_monte_carlo_rejects_non_finite_llrs(bad):
    # the frames of the Monte Carlo loop and of the invariance check enter
    # the decoders through the same check as the public decoders'
    spec = construct_pw(4, 8)
    channel = _NonFiniteChannel(bad)
    with pytest.raises(ValueError, match="LLRs must be finite"):
        simulate_bler(spec, channel, 10, seed=0)
    with pytest.raises(ValueError, match="LLRs must be finite"):
        simulate_bler(spec, channel, 10, seed=0, decoder="ae", perms=[list(range(spec.N))])
    with pytest.raises(ValueError, match="LLRs must be finite"):
        sc_invariance_check(AffineMap.identity(4), spec, trials=10, channel=channel)


@pytest.mark.parametrize("n", range(0, 13))
def test_bounded_scales_each_frame_by_the_least_power_of_two(n):
    # a frame whose largest |LLR| is below 2^(1019 - n) is kept as it is,
    # and one at 2^(1019 - n) or above is scaled by the power of two that
    # brings its largest |LLR| into [2^(1018 - n), 2^(1019 - n)): the
    # bytes of np.ldexp of the frame by a negative exponent.  With no frame
    # to scale, the array itself comes back; otherwise a new one, and the
    # input is left as it was
    n_pos = 1 << n
    top = 1019 - n
    rng = np.random.default_rng(1600 + n)
    peaks = [0.0, 1.0, 2.0 ** top * (1 - 2.0 ** -53), 2.0 ** top, 2.0 ** top * 1.5, 2.0 ** (top + 1),
             np.nextafter(2.0 ** 1022, 0.0), 1.5e308, sys.float_info.max]
    frames = rng.uniform(-1.0, 1.0, (len(peaks), n_pos)) * np.array(peaks)[:, None]
    frames[np.arange(len(peaks)), rng.integers(0, n_pos, len(peaks))] = np.where(rng.random(len(peaks)) < 0.5, -1.0, 1.0) * peaks
    given = frames.copy()
    kept = frames[:3]
    assert decode._bounded(kept) is kept
    got = decode._bounded(frames)
    assert got is not frames and frames.tobytes() == given.tobytes()
    for frame, peak, out in zip(frames, peaks, got):
        if peak < 2.0 ** top:
            assert out.tobytes() == frame.tobytes(), peak
        else:
            shift = next(k for k in range(1, 2048) if peak * 2.0 ** -k < 2.0 ** top)
            assert out.tobytes() == np.ldexp(frame, -shift).tobytes(), peak
            assert 2.0 ** (top - 1) <= np.abs(out).max() < 2.0 ** top, peak
    # one frame, as _llr_frame passes it
    assert decode._bounded(frames[4]).tobytes() == got[4].tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_near_max_frames_decode_as_the_oracle_on_the_frame_scaled(n):
    # 200 random-sign +-1.5e308 U(0.5, 1) frames of PW(n, N/2), where the
    # kernel once formed inf - inf: sc_decode and ae_decode warn nothing
    # and give the oracle's codewords (and ensemble winner) on the frames
    # scaled by 2^-(n + 2), in which nothing overflows.  So does SC on the
    # blocks of _frames at 3075 dB, on the channel's frames so scaled
    spec = construct_pw(n, 1 << (n - 1))
    mask = _mask(spec)
    rng = np.random.default_rng(1700 + n)
    shape = (200, spec.N)
    llrs = np.where(rng.random(shape) < 0.5, -1.0, 1.0) * rng.uniform(0.5, 1.0, shape) * 1.5e308
    scaled = llrs * 2.0 ** -(n + 2)
    perms = _blta_perms(spec, 4, 1700 + n)
    sc_want = sc_oracle(scaled, mask)[0]
    ae_want, chosen, _ = ae_oracle(scaled, np.array(perms, dtype=np.intp), mask)
    channel, count = AwgnBpskChannel(3075.0), 300
    ref = np.random.default_rng([n, 0])
    sent = polar_encode(ref.integers(0, 2, size=(count, spec.K), dtype=np.uint8), spec)
    frames_want = sc_oracle(channel.llrs(sent, ref, spec.rate) * 2.0 ** -(n + 2), mask)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, llr in enumerate(llrs):
            assert (sc_decode(llr, spec).codeword == sc_want[f]).all(), f
            res = ae_decode(llr, perms, spec)
            assert (res.codeword == ae_want[f]).all() and res.chosen == chosen[f], f
        blocks = decode._frames(spec, channel, np.random.default_rng([n, 0]), count, 1, 1)
        got = np.vstack([_sc_batch(block, _plan(spec)).T for _, block in blocks])
    assert (got == frames_want).all() and (got == sent).all()


def _blta_perms(spec, count, seed):
    rng = random.Random(seed)
    profile = block_profile(spec.monomials)
    return [induced_permutation(sample_blta(profile, rng)) for _ in range(count)]


def _ae_cases():
    pw6, pw8 = construct_pw(6, 32), construct_pw(8, 128)
    p6 = _blta_perms(pw6, 4, 19)
    cases = [
        ("blta-n6", pw6, _blta_perms(pw6, 8, 20)),
        ("blta-n8", pw8, _blta_perms(pw8, 8, 21)),
        ("identity", pw6, [list(range(64))]),
        ("repeated", pw6, p6 + p6),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name,spec,perms", _ae_cases())
def test_ae_matches_oracle(name, spec, perms):
    rng = np.random.default_rng(22)
    llrs = _llr_blocks(spec, rng, 8)
    perm_arr = np.array(perms, dtype=np.intp)
    best_ref, chosen_ref, scores_ref = ae_oracle(llrs, perm_arr, _mask(spec))
    # the decoder reads positions-major (N, B) blocks, as _frames yields them
    best, chosen, scores = _ae_block(llrs.T.copy(), perm_arr, np.argsort(perm_arr, axis=1), _plan(spec))
    assert (best.T == best_ref).all() and (chosen == chosen_ref).all()
    assert scores.T.tobytes() == scores_ref.tobytes()
    for f, llr in enumerate(llrs):
        res = ae_decode(llr, perms, spec)
        assert (res.codeword == best_ref[f]).all()
        assert (res.info_bits == extract_info(best_ref[f], spec)).all()
        assert np.array(res.scores).tobytes() == scores_ref[f].tobytes()
        assert res.chosen == chosen_ref[f]
    if name == "repeated":  # equal scores: the lower copy wins
        assert (chosen_ref < len(perms) // 2).all()
    if name.startswith("blta"):
        # some frames have top-scoring members with different candidates,
        # so the lowest-index rule picks the codeword, not just the index
        cand = np.empty((len(perms),) + llrs.shape, dtype=np.uint8)
        for member, pi in zip(cand, perm_arr):
            member[:, pi] = sc_oracle(llrs[:, pi], _mask(spec))[0]
        top = scores_ref == scores_ref.max(axis=1, keepdims=True)
        assert any(len({cand[l, f].tobytes() for l in np.flatnonzero(top[f])}) > 1
                   for f in range(len(llrs)))


def _coset_ensemble(spec, rng, bases=4, right=None):
    """8 maps: `bases` draws from the code's BLTA group (LTA for a code
    that is not decreasing), and others that are one of them times a map
    of BLTA(right) on the right (by default LTA), so that right cosets of
    that group hold two members or more, in shuffled order."""
    lta = (1,) * spec.n
    profile = block_profile(spec.monomials) if spec.is_decreasing() else lta
    maps = [sample_blta(profile, rng) for _ in range(bases)]
    maps += [maps[i % bases].compose(sample_blta(right or lta, rng)) for i in range(8 - bases)]
    rng.shuffle(maps)
    return maps


def _shared_blocks(spec, rng):
    """(name, frames-major LLRs): AWGN, AWGN with exact zeros in 5 % of the
    LLRs, BEC at 0.4, and noisy +-1.5e308 LLRs, bounded as they enter the
    decoders (_bounded): all of one magnitude, so that sums cancel
    exactly."""
    frames = 24
    awgn, bec = AwgnBpskChannel(1.0), BecChannel(0.4)
    zeros = awgn.llrs(_codewords(spec, frames, rng), rng, spec.rate)
    zeros[rng.random(zeros.shape) < 0.05] = 0.0
    near_max = (1.0 - 2.0 * _codewords(spec, frames, rng)) * 1.5e308
    near_max[rng.random(near_max.shape) < 0.2] *= -1.0
    near_max = decode._bounded(near_max)
    return [("awgn", awgn.llrs(_codewords(spec, frames, rng), rng, spec.rate)), ("zeros", zeros),
            ("bec", bec.llrs(_codewords(spec, frames, rng), rng, spec.rate)), ("near-max", near_max)]


def _lta_perms(spec, count, rng):
    lta = (1,) * spec.n
    return np.array([induced_permutation(sample_blta(lta, rng)) for _ in range(count)], dtype=np.intp)


def _not_lta(n, rng):
    """A map of GL(n, 2) whose linear part is not lower triangular."""
    while True:
        t = sample_blta((n,), rng)
        if not blta_membership(t, (1,) * n):
            return t


def _flagged(block, perms, spec, decoded):
    """The frames _shared_block decodes again: those in which a decision of
    a member `decoded` marks (of SC on the block, with none marked) reads
    an exact 0.0, or an absorbed sum that the bound cannot certify; none
    when every member is decoded, as in the empty ensemble."""
    undecided = np.zeros(block.shape[1], dtype=bool)
    if not decoded.all():  # some member is left to decode again
        for pi in perms[decoded] if decoded.any() else [slice(None)]:
            _sc_batch(block[pi], _plan(spec), undecided)
    return np.flatnonzero(undecided)


@pytest.mark.parametrize("n", range(3, 13))
def test_shared_ensemble_matches_full_ensemble(monkeypatch, n):
    # one SC decode per right LTA coset gives the full ensemble's codewords
    # and the oracle's, for ensembles whose cosets hold several members, on
    # AWGN, AWGN with exact zeros, BEC and near-max LLRs.  The codes are PW
    # and BEC-constructed at three rates (PW at rate 1/2 alone at n > 10,
    # where the oracle is slow), and a Reed-Muller code, whose BLTA group is
    # GL(n, 2), for ensembles of several cosets at every n (from n = 10 on
    # the others all have BLTA = LTA).  The frames re-decoded are exactly
    # those the kernel flags, in chunks of at most the first decode's
    # columns; exact zeros and the near-max blocks' exact cancellations flag
    # some.  Two more ensembles leave no member to decode again: the empty
    # one, plain SC, whose codewords are SC's on the block, and the
    # Reed-Muller ensemble's first member of each coset, all decoded, the
    # full ensemble's.  Every decode of members, the first pass's and each
    # re-decode's through _ae_block, goes through _candidates
    full, candidates = decode._ae_block, decode._candidates
    calls = []

    def counted(llrs, perms, inverses, plan, undecided=None):
        calls.append((len(perms), llrs))
        return candidates(llrs, perms, inverses, plan, undecided)

    monkeypatch.setattr(decode, "_candidates", counted)
    rng = np.random.default_rng(700 + n)
    r = random.Random(700 + n)
    big = 1 << n
    if n <= 10:
        codes = [code for k in (big // 4, big // 2, 3 * big // 4)
                 for code in (construct_pw(n, k), construct_bec(n, k, 0.5))]
    else:
        codes = [construct_pw(n, big // 2)]
    cases = [(spec, np.array([induced_permutation(t) for t in _coset_ensemble(spec, r)], dtype=np.intp))
             for spec in codes + [CodeSpec(n, reed_muller_set(n, (n - 1) // 2))]
             if block_profile(spec.monomials) != (1,) * n]
    rm, several = cases[-1]
    reps = several[decode._coset_reps(several, rm)]
    assert len(reps) > 1 and decode._coset_reps(reps, rm).all()
    cases += [(codes[0], several[:0]), (rm, reps)]
    shared = zero_redecodes = near_max_redecodes = 0
    for spec, perms in cases:
        inverses = np.argsort(perms, axis=1)
        decoded = decode._coset_reps(perms, spec)
        shared += decoded.any() and not decoded.all()
        # the first decode's columns a frame, and its call
        width, first = (1, []) if not decoded.any() else (decoded.sum(), [(decoded.sum(), 24)])
        for name, llrs in _shared_blocks(spec, rng):
            block = np.ascontiguousarray(llrs.T)
            if len(perms):
                want = full(block, perms, inverses, _plan(spec))[0]
                ref = ae_oracle(llrs, perms, _mask(spec))[0]
            else:
                want = _sc_batch(block, _plan(spec))
                ref = sc_oracle(llrs, _mask(spec))[0]
            calls.clear()
            got = decode._shared_block(block, perms, inverses, _plan(spec), decoded)
            flagged = _flagged(block, perms, spec, decoded)
            case = (spec.code_id(), decoded.tolist(), name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), case
            assert (got.T == ref).all(), case
            assert [(members, f.shape[1]) for members, f in calls[:len(first)]] == first, case
            redecodes = calls[len(first):]
            assert all(members * f.shape[1] <= width * len(llrs) for members, f in redecodes), case
            again = np.hstack([f for _, f in redecodes] or [block[:, :0]])
            assert again.tobytes() == block[:, flagged].tobytes(), case
            zero_redecodes += name in ("zeros", "bec") and bool(redecodes)
            near_max_redecodes += name == "near-max" and bool(redecodes)
    assert shared
    assert zero_redecodes  # decisions on exact zeros flagged some frames
    assert near_max_redecodes  # and so did exact cancellations near the bound


@pytest.mark.parametrize("n", range(3, 13))
def test_lta_block_matches_full_ensemble_and_oracle(monkeypatch, n):
    # an all-LTA ensemble of a PW code decodes as one SC pass over the block,
    # plus a full-ensemble re-decode of each flagged frame: its codewords are
    # the full ensemble's and the oracle's, at three rates (rate 1/2 alone at
    # n > 10, where the oracle is slow), on AWGN, AWGN with exact zeros, BEC
    # and near-max LLRs.  The frames re-decoded are exactly those the kernel
    # flags, in chunks of at most the block's columns over the ensemble's
    # size
    full = decode._ae_block
    chunks = []

    def counted(llrs, perms, inverses, plan, undecided=None):
        chunks.append(llrs)
        return full(llrs, perms, inverses, plan, undecided)

    monkeypatch.setattr(decode, "_ae_block", counted)
    rng = np.random.default_rng(900 + n)
    r = random.Random(900 + n)
    zero_redecodes = near_max_redecodes = sc_differs = 0
    big = 1 << n
    for k in (big // 4, big // 2, 3 * big // 4) if n <= 10 else (big // 2,):
        spec = construct_pw(n, k)
        perms = _lta_perms(spec, 8, r)
        inverses = np.argsort(perms, axis=1)
        decoded = decode._coset_reps(perms, spec)
        assert decoded.tolist() == [False] * len(perms)
        for name, llrs in _shared_blocks(spec, rng):
            block = np.ascontiguousarray(llrs.T)
            want = full(block, perms, inverses, _plan(spec))[0]
            ref = ae_oracle(llrs, perms, _mask(spec))[0]
            chunks.clear()
            got = decode._shared_block(block, perms, inverses, _plan(spec), decoded)
            sc = _sc_batch(block, _plan(spec))
            flagged = _flagged(block, perms, spec, decoded)
            case = (k, name)
            assert (got == want).all() and (got.T == ref).all(), case
            assert all(c.shape[1] <= len(llrs) // len(perms) for c in chunks), case
            again = np.hstack(chunks or [block[:, :0]])
            assert again.tobytes() == block[:, flagged].tobytes(), case
            zero_redecodes += len(flagged) if name in ("zeros", "bec") else 0
            near_max_redecodes += len(flagged) if name == "near-max" else 0
            sc_differs += (sc != want).any(axis=0).sum()
    assert zero_redecodes  # decisions on exact zeros flagged some frames
    assert near_max_redecodes  # and so did exact cancellations near the bound
    # where SC alone is not the full ensemble; at n = 3 no frame of these
    # blocks tells them apart
    assert sc_differs or n == 3


@pytest.mark.parametrize("n", range(3, 13))
def test_noiseless_near_max_blocks_decode_once(monkeypatch, n):
    # noiseless +-1.5e308 LLRs, bounded as they enter the decoders: every
    # sum has its true sign, so no decision reads an exact 0.0 and no frame
    # decodes again, under all-LTA ensembles (SC in place, no _candidates
    # call) and one of several cosets (the first pass's _candidates call
    # alone, whose scores are finite)
    candidates = decode._candidates
    calls = []

    def counted(llrs, perms, inverses, plan, undecided=None):
        calls.append(len(perms))
        return candidates(llrs, perms, inverses, plan, undecided)

    monkeypatch.setattr(decode, "_candidates", counted)
    rng = np.random.default_rng(1100 + n)
    r = random.Random(1100 + n)
    pw, rm = construct_pw(n, 1 << (n - 1)), CodeSpec(n, reed_muller_set(n, (n - 1) // 2))
    several = np.array([induced_permutation(t) for t in _coset_ensemble(rm, r)], dtype=np.intp)
    for spec, perms in (pw, _lta_perms(pw, 8, r)), (rm, _lta_perms(rm, 8, r)), (rm, several):
        sent = _codewords(spec, 64, rng)
        block = np.ascontiguousarray(decode._bounded((1.0 - 2.0 * sent) * 1.5e308).T)
        sent = sent.T
        decoded = decode._coset_reps(perms, spec)
        assert (not decoded.any()) == (perms is not several)
        assert not decoded.any() or 1 < decoded.sum() < len(perms)
        calls.clear()
        got = decode._shared_block(block, perms, np.argsort(perms, axis=1), _plan(spec), decoded)
        assert (got == sent).all(), spec.code_id()
        assert calls == ([] if not decoded.any() else [decoded.sum()]), spec.code_id()
        assert not len(_flagged(block, perms, spec, decoded)), spec.code_id()


@pytest.mark.parametrize("n, k, shared", [(6, 32, True), (10, 512, False)])
def test_ensemble_at_overflowing_snr_warns_nothing(n, k, shared):
    # at 3075 dB the LLRs are about +-6.3e307, all of the right sign, and
    # _frames bounds them, so no sum nor score overflows, and nothing warns
    # (the suite turns warnings into errors).  PW(6,32)'s ensemble spans
    # several cosets, so its members are scored; PW(10,512)'s is all LTA, so
    # it decodes as SC
    spec = construct_pw(n, k)
    perms = _blta_perms(spec, 8, 40)
    decoded = decode._coset_reps(np.array(perms, dtype=np.intp), spec)
    assert (decoded.any() and not decoded.all()) == shared
    assert simulate_bler(spec, AwgnBpskChannel(3075.0), 256, seed=1, decoder="ae", perms=perms).errors == 0


@pytest.mark.parametrize("n", [4, 6, 10])
def test_flags_and_first_pass_only_where_a_member_needs_them(monkeypatch, n):
    # one path for four ensembles of a Reed-Muller code, on a BEC block
    # whose erasures flag frames: the kernel gets a flag array only when
    # some member is left to decode again (not for SC, the empty ensemble,
    # nor when every member is decoded), and _candidates makes a first
    # pass only when some member is marked (not for SC nor for an all-LTA
    # ensemble, which SC decodes in place); each re-decode, through
    # _ae_block, decodes through _candidates too.  simulate_bler's SC
    # decodes the same way
    events = []
    kernel, candidates = decode._sc_batch, decode._candidates

    def spy_kernel(llrs, plan, undecided=None):
        events.append(("sc", undecided is not None))
        return kernel(llrs, plan, undecided)

    def spy_ensemble(llrs, perms, inverses, plan, undecided=None):
        events.append(("ae", len(perms), undecided is not None))
        return candidates(llrs, perms, inverses, plan, undecided)

    rng = np.random.default_rng(1200 + n)
    r = random.Random(1200 + n)
    spec = CodeSpec(n, reed_muller_set(n, (n - 1) // 2))
    mixed = np.array([induced_permutation(t) for t in _coset_ensemble(spec, r)], dtype=np.intp)
    reps = mixed[decode._coset_reps(mixed, spec)]
    block = np.ascontiguousarray(BecChannel(0.4).llrs(_codewords(spec, 64, rng), rng, spec.rate).T)
    monkeypatch.setattr(decode, "_sc_batch", spy_kernel)
    monkeypatch.setattr(decode, "_candidates", spy_ensemble)
    for name, perms in ("empty", mixed[:0]), ("lta", _lta_perms(spec, 8, r)), ("mixed", mixed), ("reps", reps):
        decoded = decode._coset_reps(perms, spec)
        k = int(decoded.sum())
        events.clear()
        decode._shared_block(block, perms, np.argsort(perms, axis=1), _plan(spec), decoded)
        # the first call is the first pass: SC on the block, or _candidates
        # on the marked members
        if name in ("empty", "lta"):
            assert k == 0 and events[0] == ("sc", name == "lta"), name
        else:
            assert 0 < k and events[0] == ("ae", k, name == "mixed"), name
            assert (k == len(perms)) == (name == "reps"), name
        if name in ("empty", "reps"):  # no member to decode again: no flag, no re-decode
            assert not any(e[-1] for e in events) and sum(e[0] == "ae" for e in events) == (k > 0), name
        else:  # the block's erasures flag frames, which decode again
            assert any(e == ("ae", len(perms) - k, False) for e in events), name
    events.clear()
    simulate_bler(spec, BecChannel(0.4), 300, seed=1)
    assert events and all(e == ("sc", False) for e in events)


def _member_candidates(block, perms, inverses, plan):
    """Each member's candidate (members, N, B), by SC on its own input."""
    return np.array([_sc_batch(np.ascontiguousarray(block[pi]), plan)[inv] for pi, inv in zip(perms, inverses)])


def _classes(spec, r, count):
    """8 permutations in `count` right H-cosets, H of _absorption(spec), not
    all in H: `count` draws from the code's BLTA group, each in a coset of
    its own, and others that are one of them times a map of H on the
    right, in shuffled order."""
    h = decode._absorption(spec)
    profile = block_profile(spec.monomials)
    bases = []
    while len(bases) < count or all(blta_membership(t, h) for t in bases):
        t = sample_blta(profile, r)
        if all(not blta_membership(b.inverse().compose(t), h) for b in bases):
            bases = bases[:count - 1] + [t]
    maps = bases + [bases[i % count].compose(sample_blta(h, r)) for i in range(8 - count)]
    r.shuffle(maps)
    return np.array([induced_permutation(t) for t in maps], dtype=np.intp)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_first_pass_scores_only_contested_and_flagged_frames(monkeypatch, n):
    # the first pass scores exactly the contested frames, in which the
    # decoded members' candidates (each by SC on its own input) are not
    # all one array, and the flagged ones, whose scores the re-decode
    # reads; it hands _scores their LLRs and candidates, and _scores gives
    # _ae_block's score bytes for them.  The blocks are AWGN at 3.5 dB and
    # every kind of _class_blocks; the codes are a PW code of rate 1/2 and
    # a Reed-Muller code; the ensembles are one of several classes, its
    # decoded members alone (none is flagged) and one of a single class
    # (none is contested).  Some frames are contested only by a third
    # class, and some are flagged but not contested
    scores = decode._scores
    calls = []

    def spy(llrs, cand):
        out = scores(llrs, cand)
        calls.append((llrs.copy(), cand.copy(), out))
        return out

    monkeypatch.setattr(decode, "_scores", spy)
    rng = np.random.default_rng(1500 + n)
    r = random.Random(1500 + n)
    third_only = flagged_only = contested_frames = 0
    for spec in construct_pw(n, 1 << (n - 1)), CodeSpec(n, reed_muller_set(n, (n - 1) // 2)):
        plan = _plan(spec)
        mixed, one = _classes(spec, r, 3), _classes(spec, r, 1)
        assert decode._coset_reps(mixed, spec).sum() == 3 and decode._coset_reps(one, spec).sum() == 1
        awgn = AwgnBpskChannel(3.5).llrs(_codewords(spec, 256, rng), rng, spec.rate)
        blocks = [("awgn3.5", awgn)] + _class_blocks(spec, rng)
        for ensemble, perms in ("mixed", mixed), ("reps", mixed[decode._coset_reps(mixed, spec)]), ("one", one):
            inverses = np.argsort(perms, axis=1)
            decoded = decode._coset_reps(perms, spec)
            for name, llrs in blocks:
                block = np.ascontiguousarray(llrs.T)
                cand = _member_candidates(block, perms[decoded], inverses[decoded], plan)
                flagged = np.isin(np.arange(block.shape[1]), _flagged(block, perms, spec, decoded))
                want = decode._ae_block(block, perms[decoded], inverses[decoded], plan)
                calls.clear()
                got = decode._shared_block(block, perms, inverses, plan, decoded)
                case = (spec.code_id(), ensemble, name)
                contested = (cand != cand[:1]).any(axis=(0, 1))
                frames = np.flatnonzero(contested | flagged)
                # the first call is the first pass's; the others re-decode
                (first, given, out), *_ = calls
                assert first.shape == (spec.N, len(frames)) and first.tobytes() == block[:, frames].tobytes(), case
                assert given.tobytes() == cand.transpose(1, 0, 2)[:, :, frames].tobytes(), case
                assert out.tobytes() == want[2][:, frames].tobytes(), case
                assert ensemble != "reps" or not flagged.any(), case
                assert ensemble != "one" or not contested.any(), case
                if ensemble == "reps":  # nothing to decode again: the winners are _ae_block's
                    assert got.tobytes() == want[0].tobytes(), case
                contested_frames += int(contested.sum())
                third_only += int((contested & ~flagged & (cand[1:2] == cand[:1]).all(axis=(0, 1))).sum())
                flagged_only += int((flagged & ~contested).sum())
    assert contested_frames and third_only and flagged_only


def _first_of_coset(maps, profile):
    """Whether each map is the lowest-index one of its right coset of
    BLTA(profile), by membership of A_r^-1 A_t over every pair."""
    return [next(q for q, m in enumerate(maps) if blta_membership(m.inverse().compose(t), profile)) == i
            for i, t in enumerate(maps)]


@pytest.mark.parametrize("n", range(3, 9))
def test_coset_reps_match_blta_membership(n):
    # the decoded members are the lowest-index member of each right
    # H-coset (A_r^-1 A_t in BLTA of H's profile), on maps drawn from all
    # of GL(n, 2), some of them times H or LTA maps on the right; none
    # marked, to decode as SC, exactly when every member is in H.  The
    # codes are PW, BEC and Reed-Muller codes; H is LTA for some and
    # absorbs a block for others: GL(n) for RM(n-1, n), a single parity
    # check code, and a block of PW(3,2), PW(4,8), PW(5,8), PW(6,32) and
    # BEC(7,64)
    big = 1 << n
    codes = [construct_pw(n, big // 4), construct_pw(n, big // 2), construct_pw(n, 3 * big // 4),
             construct_bec(n, big // 2, 0.5), CodeSpec(n, reed_muller_set(n, (n - 1) // 2)),
             CodeSpec(n, reed_muller_set(n, n - 1))]
    r = random.Random(800 + n)
    lta, gl = (1,) * n, (n,)
    profiles = set()
    for spec in codes:
        h = decode._absorption(spec)
        profiles.add(h)
        for trial in range(30):
            if trial % 3:
                maps = [sample_blta(gl, r) for _ in range(3)]
                maps += [maps[r.randrange(3)].compose(sample_blta(h if trial % 2 else lta, r)) for _ in range(3)]
                maps.append(sample_blta(gl, r))
                r.shuffle(maps)
            else:  # mostly maps of H, often all of them
                maps = [sample_blta(h, r) if r.random() < 0.9 else _not_lta(n, r) for _ in range(1 + trial % 8)]
            decoded = decode._coset_reps(np.array([induced_permutation(t) for t in maps], dtype=np.intp), spec)
            if all(blta_membership(t, h) for t in maps):
                assert decoded.tolist() == [False] * len(maps), spec.code_id()
            else:
                assert decoded.tolist() == _first_of_coset(maps, h), spec.code_id()
    assert lta in profiles and (n,) in profiles and len(profiles) == 2 + (n in (3, 4, 5, 6, 7))


def test_absorbed_blocks_of_the_benchmark_codes():
    # PW(6,32), profile (1, 2, 2, 1): the nodes of size 8 are 0, REP8,
    # 00000011, 00111111, SPC8 and 1, so {x1, x2} is absorbed; {x3, x4} is
    # not (its nodes of size 32 include others).  PW(12,2048) has BLTA =
    # LTA, and so H = LTA
    pw6, pw12 = construct_pw(6, 32), construct_pw(12, 2048)
    assert block_profile(pw6.monomials) == (1, 2, 2, 1)
    profile = decode._absorption(pw6)
    assert profile == (1, 2, 1, 1, 1)
    nodes = {bytes(node) for node in _mask(pw6).reshape(-1, 8)}
    assert nodes == {bytes(b) for b in ([0] * 8, [0] * 7 + [1], [0] * 6 + [1] * 2, [0] * 2 + [1] * 6,
                                         [0] + [1] * 7, [1] * 8)}
    # the repetition steps of size 8 or more and the rate-1 ends of the
    # interleaved repetition nodes certify their sums over node(8)
    plan = _plan(pw6)
    sums = {(op, lo, size): cert for op, lo, size, cert in plan if cert}
    assert set(sums) == (
        {step[:3] for step in plan if step[0] == decode._REP and step[2] >= 8}
        | {(decode._RATE1, lo + 6, 2) for lo in range(0, 64, 8) if bytes(_mask(pw6)[lo:lo + 8]) == bytes([0] * 6 + [1] * 2)})
    assert set(sums.values()) == {8}
    assert decode._absorption(pw12) == (1,) * 12 and not any(cert for *_, cert in _plan(pw12))


def _class_blocks(spec, rng, frames=24):
    """_shared_blocks, and two more: small-integer LLRs, whose min-sum ties
    make members of one class disagree, and 256 frames of sums that
    cancel, of terms so far apart in magnitude (+-2^53, at which the
    float spacing is 2, and +-1, +-0.5, +-3) that the order of the
    additions decides the rounding, and so the sign."""
    ints = rng.integers(-3, 4, size=(frames, spec.N)).astype(np.float64)
    big = 2.0 ** 53
    cancel = rng.choice([big, -big, big, -big, 1.0, -1.0, 0.5, 3.0, -3.0], size=(256, spec.N))
    return _shared_blocks(spec, rng) + [("ints", ints), ("cancel", cancel)]


def _check_class_sharing(spec, rng, r, seen):
    """On an ensemble whose right H-cosets hold members of several right
    LTA cosets, _shared_block under _coset_reps' classes gives _ae_block's
    codeword bytes on every block of _class_blocks; `seen` counts, per
    block name, the frames in which some member's candidate (by SC on its
    own input) differs from its class's, which must all be flagged, and
    the frames flagged."""
    h = decode._absorption(spec)
    maps = _coset_ensemble(spec, r, 3, h)
    perms = np.array([induced_permutation(t) for t in maps], dtype=np.intp)
    # the lowest-index member of each class, by brute force, or the
    # identity (-1) when every member is in H
    first = [next(q for q, m in enumerate(maps) if blta_membership(m.inverse().compose(t), h)) for t in maps]
    if all(blta_membership(t, h) for t in maps):
        first = [-1] * len(maps)
    inverses = np.argsort(perms, axis=1)
    decoded = decode._coset_reps(perms, spec)
    plan = _plan(spec)
    for name, llrs in _class_blocks(spec, rng):
        block = np.ascontiguousarray(llrs.T)
        want = decode._ae_block(block, perms, inverses, plan)[0]
        got = decode._shared_block(block, perms, inverses, plan, decoded)
        flagged = _flagged(block, perms, spec, decoded)
        # each member's candidate, through its inverse permutation
        cand = np.array([_sc_batch(np.ascontiguousarray(block[pi]), plan)[inv] for pi, inv in zip(perms, inverses)]
                        + [_sc_batch(block, plan)])
        case = (spec.code_id(), decoded.tolist(), name)
        assert got.tobytes() == want.tobytes(), case
        assert decoded.tolist() == [q == t for t, q in enumerate(first)], case
        differs = (cand[:-1] != cand[first]).any(axis=1).any(axis=0)
        # a member of a class decodes otherwise only in a flagged frame
        assert not (differs & ~np.isin(np.arange(block.shape[1]), flagged)).any(), case
        counts = seen.setdefault(name, [0, 0])
        counts[0] += int(differs.sum())
        counts[1] += len(flagged)


@pytest.mark.parametrize("n", range(3, 11))
def test_class_shared_block_matches_full_ensemble(n):
    # one SC decode per right H-coset gives the full ensemble's codeword
    # bytes on AWGN, AWGN with exact zeros, small-integer LLRs, cancelling
    # sums, BEC and near-max LLRs, for PW and BEC-constructed codes at
    # three rates and Reed-Muller codes: RM(0, n) and RM(n-1, n), whose H
    # is GL(n) (a repetition and a single parity check code), and
    # RM((n-1)/2, n), whose H is LTA.  Members of one class do disagree,
    # on ties, on cancelling sums and on near-max LLRs, but only in the
    # frames the kernel flags
    rng = np.random.default_rng(1300 + n)
    r = random.Random(1300 + n)
    big = 1 << n
    codes = [code for k in (big // 4, big // 2, 3 * big // 4)
             for code in (construct_pw(n, k), construct_bec(n, k, 0.5))]
    codes += [CodeSpec(n, reed_muller_set(n, d)) for d in (0, (n - 1) // 2, n - 1)]
    seen = {}
    for spec in codes:
        _check_class_sharing(spec, rng, r, seen)
    for name in ("ints", "cancel", "near-max"):
        assert seen[name][0] and seen[name][1] >= seen[name][0], (name, seen)


@pytest.mark.parametrize("n", range(1, 6))
def test_class_shared_block_matches_full_ensemble_on_every_down_set(n):
    # the same on every decreasing code at n <= 5 (3, 5, 10, 27 and 119
    # down-sets), including the codes whose BLTA group is LTA, but the
    # empty one, which decodes every frame to the zero word and has no
    # AWGN noise sigma
    rng = np.random.default_rng(1400 + n)
    r = random.Random(1400 + n)
    seen = {}
    absorbing = 0
    for ms in down_sets_oracle(n)[1:]:
        spec = CodeSpec(n, ms)
        absorbing += decode._absorption(spec) != (1,) * n
        _check_class_sharing(spec, rng, r, seen)
    assert absorbing or n == 1


def test_coset_reps_share_only_affine_members_of_decreasing_codes():
    n = 5
    spec = construct_pw(n, 16)
    code = CodeSpec(n, polaraut.MonomialSet(n, [0, 1, 2, 4, 8, 24]))
    assert spec.is_decreasing() and not code.is_decreasing()
    r = random.Random(810)
    base = sample_blta((n,), r)
    maps = [base] + [base.compose(sample_blta((1,) * n, r)) for _ in range(3)]
    perms = np.array([induced_permutation(t) for t in maps], dtype=np.intp)
    assert decode._coset_reps(perms, spec).tolist() == [True, False, False, False]
    # member 2 agrees with its affine map at 0 and at every unit point, so
    # it reads back the same columns, but two other positions are swapped;
    # likewise member 1 of an all-LTA ensemble, which then is not SC
    full = spec.N - 1
    read = {full} | {full ^ (1 << c) for c in range(n)}
    i, j = [pos for pos in range(spec.N) if pos not in read][:2]
    bent = perms.copy()
    bent[2, [i, j]] = bent[2, [j, i]]
    assert decode._coset_reps(bent, spec).tolist() == [True, False, True, False]
    lta = _lta_perms(spec, 4, r)
    assert decode._coset_reps(lta, spec).tolist() == [False] * 4
    assert decode._coset_reps(lta[:1], spec).tolist() == [False]
    lta[1, [i, j]] = lta[1, [j, i]]
    assert decode._coset_reps(lta, spec).tolist() == [True, True, False, False]
    # no affine map induces a random permutation, not even beside a copy
    # of itself: nothing is shared
    rng = np.random.default_rng(811)
    scrambled = np.array([rng.permutation(spec.N) for _ in range(5)] + [perms[0], perms[1]])
    scrambled[1] = scrambled[0]
    assert decode._coset_reps(scrambled, spec).tolist() == [True] * 6 + [False]
    # off the decreasing codes LTA need not commute with SC: every member
    # is decoded, even one LTA map alone
    assert decode._coset_reps(perms, code).all()
    assert decode._coset_reps(lta[:1], code).tolist() == [True]
    # the empty ensemble, plain SC, marks no member, on either code
    assert decode._coset_reps(lta[:0], spec).shape == decode._coset_reps(lta[:0], code).shape == (0,)


def test_coset_reps_memory_is_per_member():
    # classifying 1500 members holds arrays of one row per member, not one
    # entry per pair of members: an (L, L, n + 1) index array alone is
    # 126 MB at L = 1500.  PW(6,32)'s BLTA group has 9 right LTA cosets,
    # which fall in 3 right H-cosets
    spec = construct_pw(6, 32)
    perms = np.array(_blta_perms(spec, 1500, 840), dtype=np.intp)
    spec.is_decreasing()  # cached, so its work is not traced
    tracemalloc.start()
    try:
        decoded = decode._coset_reps(perms, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert decoded.sum() == 3


def test_lta_path_counts_equal_oracle(monkeypatch):
    # simulate_bler's codeword errors are the full ensemble's (the oracle's)
    # on BEC and AWGN for an all-LTA ensemble of PW(6,32), which decodes as
    # SC plus the flagged re-decode, in blocks sized as SC's; the same maps
    # on a code that is not decreasing, and PW(6,32)'s ensemble with one map
    # that is not LTA, which do not
    sizes = []
    frames_of = decode._frames

    def recorded(spec, channel, rng, count, columns, copies):
        sizes.append((columns, copies))
        return frames_of(spec, channel, rng, count, columns, copies)

    monkeypatch.setattr(decode, "_frames", recorded)
    n = 6
    pw = construct_pw(n, 32)
    code = CodeSpec(n, polaraut.MonomialSet(n, [0, 1, 2, 4, 8, 16, 32, 24, 40, 48, 7, 56, 3]))
    assert not code.is_decreasing()
    r = random.Random(830)
    lta = _lta_perms(pw, 8, r)
    mixed = lta.copy()
    mixed[5] = induced_permutation(_not_lta(n, r))
    frames, seed = 300, 11
    for spec, perms, sharing in ((pw, lta, True), (code, lta, False), (pw, mixed, False)):
        assert (not decode._coset_reps(perms, spec).any()) == sharing
        generator = kron_power(n)[list(spec.row_indices())]
        for channel in AwgnBpskChannel(1.5), BecChannel(0.45):
            sizes.clear()
            res = simulate_bler(spec, channel, frames, seed=seed, decoder="ae", perms=perms)
            assert (sizes == [(1, 1)]) == sharing
            rng = np.random.default_rng([seed, 0])
            sent = (rng.integers(0, 2, (frames, spec.K), dtype=np.uint8) @ generator) % 2
            if isinstance(channel, AwgnBpskChannel):
                llrs = awgn_llrs_oracle(sent, rng, channel.ebn0_db, spec.rate)
            else:
                llrs = bec_llrs_oracle(sent, rng, channel.erasure_prob)
            best = ae_oracle(llrs, perms, _mask(spec))[0]
            assert res.errors == int((best != sent).any(axis=1).sum()), (spec.code_id(), channel)


_G_LLRS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.5, 1.5e308, -1.5e308,
                    sys.float_info.max, -sys.float_info.max, np.inf, -np.inf, np.nan])


def test_g_matches_the_four_pass_form():
    # the sign-bit g is byte-equal to b + (1 - 2u) a formed by a multiply,
    # on +-0, subnormals, +-inf and sums that overflow; a NaN (an input, or
    # inf - inf) may differ only in its sign, which no decision reads
    a, b = (col.ravel() for col in np.meshgrid(_G_LLRS, _G_LLRS))
    for bit in 0, 1:
        u = np.full(len(a), bit, dtype=np.uint8)
        want, got = np.empty(len(a)), np.empty(len(a))
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(u, 2.0, out=want)
            np.subtract(1.0, want, out=want)
            want *= a
            want += b
            decode._g(a, b, u, got)
        nan = np.isnan(want)
        assert (np.isnan(got) == nan).all() and nan.any()
        assert got[~nan].tobytes() == want[~nan].tobytes()
        assert ((got < 0) == (want < 0)).all() and ((got == 0) == (want == 0)).all()


def test_ae_scores_are_correlation_scores_on_special_llrs():
    # the ensemble's sign-bit score terms give correlation_score's bytes for
    # each member's candidate, on LLRs with +-0, subnormals, +-inf and sums
    # that overflow, and NaN exactly where it does
    spec = construct_pw(5, 16)
    perms = np.array(_blta_perms(spec, 4, 30), dtype=np.intp)
    inverses = np.argsort(perms, axis=1)
    rng = np.random.default_rng(31)
    llrs = rng.normal(size=(spec.N, 300))
    special = rng.random(llrs.shape) < 0.05
    llrs[special] = rng.choice(_G_LLRS[:-1], size=special.sum())
    llrs[rng.random(llrs.shape) < 0.002] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, scores = _ae_block(llrs, perms, inverses, _plan(spec))
        for member, (pi, inv) in enumerate(zip(perms, inverses)):
            cand = _sc_batch(llrs[pi], _plan(spec))[inv]
            want = correlation_score(cand.T, llrs.T)
            nan = np.isnan(want)
            assert (np.isnan(scores[member]) == nan).all() and 0 < nan.sum() < len(want)
            assert scores[member][~nan].tobytes() == want[~nan].tobytes()
            assert np.isinf(want).any()


class TestScoring:
    def test_permutation_consistency(self):
        rng = np.random.default_rng(12)
        r = random.Random(13)
        for _ in range(50):
            x = rng.integers(0, 2, 16, dtype=np.uint8).astype(np.float64)
            llr = rng.normal(size=16)
            perm = np.array(induced_permutation(sample_blta((4,), r)))
            assert correlation_score(x, llr) == pytest.approx(
                correlation_score(x[perm], llr[perm])
            )

    def test_broadcasting_matches_the_formula(self):
        rng = np.random.default_rng(28)
        bits = rng.integers(0, 2, (3, 1, 16), dtype=np.uint8)
        llr = rng.normal(size=(4, 16))
        for x, y in ((bits, llr), (bits[0, 0], llr), (bits, llr[0])):
            expected = ((1.0 - 2.0 * x) * y).sum(axis=-1)
            assert correlation_score(x, y).tobytes() == expected.tobytes()
        assert correlation_score([0, 1, 1], [1.5, 2.0, -0.25]) == -0.25


class TestInvariance:
    def test_lta_maps_invariant(self, pw6):
        rng = random.Random(14)
        for k in range(30):
            t = sample_blta((1,) * 6, rng)
            rep = sc_invariance_check(t, pw6, trials=50, seed=k)
            assert rep.fraction == 1.0

    def test_identity_invariant(self, pw6):
        rep = sc_invariance_check(AffineMap.identity(6), pw6, trials=50, seed=0)
        assert rep.fraction == 1.0

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected(self, pw6, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            sc_invariance_check(AffineMap.identity(6), pw6, trials=trials)

    @pytest.mark.parametrize("n", [5, 3])
    def test_map_of_other_dimension_rejected(self, n):
        with pytest.raises(ValueError, match="dimension mismatch"):
            sc_invariance_check(AffineMap.identity(n), construct_pw(4, 8), trials=5)

    @pytest.mark.parametrize("channel", [AwgnBpskChannel(1.0), BecChannel(0.4)], ids=["awgn", "bec"])
    def test_blocks_match_oracle_on_the_whole_stream(self, channel):
        # the check decodes its frames in blocks of at most 512 at N = 1024,
        # each in place and then its permuted copy: two copies a frame.  The
        # reference draws the same stream in one piece and decodes it with
        # the plain recursive SC oracle
        spec = construct_pw(10, 512)
        trials, seed = 2500, 7
        step = min(decode._BLOCK_LLRS // (2 * spec.N), decode._BLOCK_COLUMNS)
        assert trials > 2 * step  # three blocks or more
        t = sample_blta(block_profile(spec.monomials), 3)
        perm = induced_permutation(t)
        rng = np.random.default_rng([seed, 0])
        u = rng.integers(0, 2, size=(trials, spec.K), dtype=np.uint8)
        llrs = channel.llrs(polar_encode(u, spec), rng, spec.rate)
        decoded_then_permuted = sc_oracle(llrs, _mask(spec))[0][:, perm]
        permuted_then_decoded = sc_oracle(llrs[:, perm], _mask(spec))[0]
        equal = int((decoded_then_permuted == permuted_then_decoded).all(axis=1).sum())
        rep = sc_invariance_check(t, spec, trials=trials, seed=seed, channel=channel)
        assert (rep.trials, rep.equal) == (trials, equal)

    @pytest.mark.parametrize("n, k", [(6, 32), (10, 512)])
    def test_blocks_hold_two_copies_within_both_caps(self, monkeypatch, n, k):
        # each block holds the channel's frames, which SC decodes in place,
        # and their permuted copies: two copies of N a frame within the LLR
        # cap, and one decoder column a frame within the column cap, each
        # block but the last as wide as both allow.  The column cap sets
        # PW(6,32)'s blocks, the LLR cap PW(10,512)'s
        spec = construct_pw(n, k)
        frames, widths = decode._frames, []

        def recorded(spec, channel, rng, count, columns, copies):
            for sent, llrs in frames(spec, channel, rng, count, columns, copies):
                widths.append(llrs.shape[1])
                yield sent, llrs

        monkeypatch.setattr(decode, "_frames", recorded)
        t = sample_blta(block_profile(spec.monomials), 3)
        assert sc_invariance_check(t, spec, trials=4500).trials == 4500
        assert sum(widths) == 4500 and len(widths) > 2
        assert all(2 * b * spec.N <= decode._BLOCK_LLRS and b <= decode._BLOCK_COLUMNS for b in widths)
        assert widths[0] == min(decode._BLOCK_LLRS // (2 * spec.N), decode._BLOCK_COLUMNS)

    def test_memory_bounded_by_blocks(self):
        # 4096 frames of N = 1024 held at once are 32 MB per float64 copy
        spec = construct_pw(10, 512)
        t = sample_blta(block_profile(spec.monomials), 3)
        tracemalloc.start()
        try:
            sc_invariance_check(t, spec, trials=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

    def test_blta_reported_not_asserted(self, pw6):
        from polaraut.affine import block_profile

        rng = random.Random(15)
        fracs = [
            sc_invariance_check(
                sample_blta(block_profile(pw6.monomials), rng), pw6, trials=40, seed=k
            ).fraction
            for k in range(20)
        ]
        assert all(0.0 <= f <= 1.0 for f in fracs)
        assert any(f < 1.0 for f in fracs)  # the profile admits SC-variant maps


class TestSimulate:
    def test_zero_erasure_bec(self):
        spec = construct_pw(4, 8)
        res = simulate_bler(spec, BecChannel(0.0), 500, seed=0)
        assert res.errors == 0 and res.bler == 0.0

    def test_rate1_high_snr(self):
        spec = CodeSpec(3, all_monomials(3))
        res = simulate_bler(spec, AwgnBpskChannel(20.0), 500, seed=1)
        assert res.errors == 0

    def test_jobs_do_not_change_counts(self):
        spec = construct_pw(5, 16)
        a = simulate_bler(spec, AwgnBpskChannel(2.0), 3000, seed=2, jobs=1)
        b = simulate_bler(spec, AwgnBpskChannel(2.0), 3000, seed=2, jobs=2)
        assert a == b

    # the pool is min(jobs, batches, usable CPUs) workers, and no pool at
    # all when that is 1; the last case has no affinity call and counts
    # the machine's CPUs
    @pytest.mark.parametrize("frames,jobs,cpus,affinity,workers", [
        (2048, 32, 64, True, [2]),
        (5000, 3, 64, True, [3]),
        (5000, 10000, 3, True, [3]),
        (5000, 8, 1, True, []),
        (5000, 8, 4, False, [4]),
    ], ids=["2048-32-2", "5000-3-3", "5000-10000-3", "5000-8-serial", "5000-8-4-cpu_count"])
    def test_pool_no_larger_than_the_batches(self, monkeypatch, frames, jobs, cpus, affinity, workers):
        # a recorder stands in for the pool and maps serially, so no
        # process is started whatever the number of jobs or CPUs
        import multiprocessing

        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)

        sizes = []

        class Recorder:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return list(map(func, items))

        spec = construct_pw(3, 4)
        serial = simulate_bler(spec, AwgnBpskChannel(2.0), frames, seed=5)
        monkeypatch.setattr(multiprocessing, "Pool", Recorder)
        assert simulate_bler(spec, AwgnBpskChannel(2.0), frames, seed=5, jobs=jobs) == serial
        assert sizes == workers

    def test_import_leaves_multiprocessing_out(self):
        # only simulate_bler with jobs > 1 starts a pool, so only it
        # imports multiprocessing; a fresh interpreter shows what import costs
        src = os.path.dirname(os.path.dirname(polaraut.__file__))
        code = "import sys, polaraut, polaraut.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout == "False\n"

    def test_ae_beats_noise_floor_sanity(self, pw6):
        rng = random.Random(16)
        from polaraut.affine import block_profile

        perms = [
            induced_permutation(sample_blta(block_profile(pw6.monomials), rng))
            for _ in range(4)
        ]
        res = simulate_bler(
            pw6, AwgnBpskChannel(3.5), 2000, seed=3, decoder="ae", perms=perms
        )
        assert 0.0 <= res.bler < 0.2

    def test_block_size_changes_no_count(self, monkeypatch, pw6):
        perms = _blta_perms(pw6, 4, 23)
        runs = [
            (chan, dec, perms if dec == "ae" else None)
            for chan in (AwgnBpskChannel(2.0), BecChannel(0.4))
            for dec in ("sc", "ae")
        ]

        def counts():
            return [
                simulate_bler(pw6, chan, 1500, seed=4, decoder=dec, perms=p).errors
                for chan, dec, p in runs
            ]

        whole = counts()
        monkeypatch.setattr(decode, "_BLOCK_LLRS", 3000)  # 46 and 11 frames a block
        assert counts() == whole

    @pytest.mark.parametrize("cap", [8, 100, 2048, 1 << 20])
    def test_column_cap_changes_no_count(self, monkeypatch, cap):
        # SC and AE-8 error counts and an SC invariance count are those of
        # blocks cut by the LLR cap alone, and no decoder input is wider
        # than the cap: at cap 8, AE-8 on RM(2,6), whose 8 members fall in
        # 8 cosets, decodes one frame (8 columns) a block, and on PW(6,32)
        # and PW(8,128), 3 classes each, two frames; the invariance check,
        # which decodes its block in place and then the permuted copy, eight
        # frames a block.  Each AE block and each invariance block also
        # holds the channel's LLRs, so the LLR cap counts one copy more than
        # the columns
        specs = [construct_pw(6, 32), construct_pw(8, 128), CodeSpec(6, reed_muller_set(6, 2))]
        runs = [
            (spec, chan, dec, _blta_perms(spec, 8, 29) if dec == "ae" else None)
            for spec in specs
            for chan in (AwgnBpskChannel(2.0), BecChannel(0.4))
            for dec in ("sc", "ae")
        ]
        cosets = [int(decode._coset_reps(np.array(p), spec).sum()) for spec, _, dec, p in runs if dec == "ae"]
        assert sorted(set(cosets)) == [3, 8]
        t = sample_blta(block_profile(specs[0].monomials), 5)

        def counts():
            return [
                simulate_bler(spec, chan, 400, seed=8, decoder=dec, perms=p).errors
                for spec, chan, dec, p in runs
            ] + [sc_invariance_check(t, specs[0], trials=300, seed=3).equal]

        monkeypatch.setattr(decode, "_BLOCK_COLUMNS", 1 << 62)
        whole = counts()
        monkeypatch.setattr(decode, "_BLOCK_COLUMNS", cap)
        calls = []
        frames = decode._frames

        def recorded(spec, channel, rng, count, columns, copies):
            widths = []
            calls.append((spec.N, count, columns, copies, widths))
            for sent, llrs in frames(spec, channel, rng, count, columns, copies):
                widths.append(llrs.shape[1])
                yield sent, llrs

        monkeypatch.setattr(decode, "_frames", recorded)
        assert counts() == whole
        assert {(columns, copies) for _, _, columns, copies, _ in calls} == (
            {(1, 1), (1, 2)} | {(k, k + 1) for k in cosets})
        for n_pos, count, columns, copies, widths in calls:
            assert sum(widths) == count and set(widths[:-1]) <= {widths[0]} and widths[-1] <= widths[0]
            # each block but the last is as wide as both caps allow
            assert widths[0] * columns <= cap and widths[0] * copies * n_pos <= decode._BLOCK_LLRS
            assert (widths[0] == count or (widths[0] + 1) * columns > cap
                    or (widths[0] + 1) * copies * n_pos > decode._BLOCK_LLRS)

    @staticmethod
    def _one_draw(pw6, channel, seed, batch_idx, count):
        rng = np.random.default_rng([seed, batch_idx])
        u = rng.integers(0, 2, (count, pw6.K), dtype=np.uint8)
        sent = (u @ kron_power(pw6.n)[list(pw6.row_indices())]) % 2
        if isinstance(channel, AwgnBpskChannel):
            ref = awgn_llrs_oracle(sent, rng, channel.ebn0_db, pw6.rate)
        else:
            ref = bec_llrs_oracle(sent, rng, channel.erasure_prob)
        return sent, ref, rng

    # _TILE = 16384 puts a whole block (at most 256 frames of N = 64) in one
    # slab; 9 * 64 gives slabs of 9 frames, and 3 * 64 is rounded up to the
    # 8 frames of one cache line per row segment.  Neither divides a block
    @pytest.mark.parametrize("decoder,channel,tile,rows", [
        pytest.param(dec, chan, tile, rows, id=f"{dec}-{chan_id}{tile_id}")
        for dec in ("sc", "ae")
        for chan_id, chan in (("awgn", AwgnBpskChannel(2.0)), ("bec", BecChannel(0.4)))
        for tile, rows, tile_id in ((decode._TILE, 256, ""), (9 * 64, 9, "-tile9"), (3 * 64, 8, "-tile8"))
    ])
    def test_block_draws_join_to_one_draw(self, monkeypatch, pw6, decoder, channel, tile, rows):
        # the decode blocks are 70 frames (SC) or 17 (AE-4, whose 4 members
        # are 3 classes: the block holds the channel's LLRs and 3 copies),
        # neither of which divides the 1000-frame batch, and the channel's
        # llrs is called once per slab of each block; joined in order, the
        # slabs are the oracle's one draw over the batch, and the generator
        # ends where that draw leaves it
        perms = np.array(_blta_perms(pw6, 4, 23) if decoder == "ae" else np.empty((0, pw6.N)), dtype=np.intp)
        decoded = decode._coset_reps(perms, pw6)
        assert decoded.sum() == (3 if decoder == "ae" else 0)
        monkeypatch.setattr(decode, "_BLOCK_LLRS", 70 * pw6.N)
        monkeypatch.setattr(decode, "_TILE", tile)
        calls = []

        class Recorder:
            def llrs(self, x, rng, rate):
                out = channel.llrs(x, rng, rate)
                calls.append((x.copy(), out.copy(), rng))
                return out

        inverses = np.argsort(perms, axis=1)
        decode._sim_batch((pw6, Recorder(), perms, inverses, decoded, 31, 2, 1000))
        sent, ref, rng = self._one_draw(pw6, channel, 31, 2, 1000)
        step = 70 if decoder == "sc" else 17
        blocks = [min(step, 1000 - start) for start in range(0, 1000, step)]
        assert [len(x) for x, _, _ in calls] == [min(rows, b - lo) for b in blocks for lo in range(0, b, rows)]
        assert (np.vstack([x for x, _, _ in calls]) == sent).all()
        assert np.vstack([llrs for _, llrs, _ in calls]).tobytes() == ref.tobytes()
        assert calls[-1][2].bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("tile", [decode._TILE, 9 * 64, 3 * 64], ids=["whole", "tile9", "tile8"])
    @pytest.mark.parametrize("channel", [AwgnBpskChannel(2.0), BecChannel(0.4)], ids=["awgn", "bec"])
    def test_frames_yield_the_draw_positions_major(self, monkeypatch, pw6, channel, tile):
        # each block is a contiguous (N, b) view of one reused buffer: the
        # blocks, copied as they come and joined along the frames, are the
        # transposed one draw
        monkeypatch.setattr(decode, "_BLOCK_LLRS", 70 * pw6.N)
        monkeypatch.setattr(decode, "_TILE", tile)
        rng = np.random.default_rng([31, 2])
        blocks = [(sent.copy(), llrs.copy(), llrs)
                  for sent, llrs in decode._frames(pw6, channel, rng, 1000, 1, 1)]
        sent, ref, ref_rng = self._one_draw(pw6, channel, 31, 2, 1000)
        assert [llrs.shape for _, llrs, _ in blocks] == [(pw6.N, 70)] * 14 + [(pw6.N, 20)]
        assert all(view.flags.c_contiguous for _, _, view in blocks)
        assert np.shares_memory(blocks[0][2], blocks[-1][2])
        assert (np.hstack([x for x, _, _ in blocks]) == sent.T).all()
        assert np.hstack([llrs for _, llrs, _ in blocks]).tobytes() == np.ascontiguousarray(ref.T).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_batch_memory_bounded_by_its_buffers(self, monkeypatch):
        # one 1024-frame SC batch at N = 4096 decodes 4 blocks of 256
        # frames; it may hold the kernel's workspace and one LLR block
        # (8 MB of float64 each), the batch's codewords and info bits (4 and
        # 2 MB of uint8) and 4 MB of slack for the decoded codewords of two
        # blocks, the block's frames-major bits and the slab buffers.  A
        # frames-major draw transposed into a fresh block adds another
        # 8 MB or more
        spec = construct_pw(12, 2048)
        step = min(decode._BLOCK_LLRS // spec.N, decode._BLOCK_COLUMNS)
        bound = 8 * (2 * spec.N - 1) * step + spec.N * 1024 + spec.K * 1024 + (4 << 20)
        empty = np.empty((0, spec.N), dtype=np.intp)  # SC is the empty ensemble
        monkeypatch.delattr(decode._local, "work", raising=False)
        tracemalloc.start()
        try:
            decode._sim_batch((spec, AwgnBpskChannel(2.5), empty, empty, np.zeros(0, dtype=bool), 1, 0, 1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_ensemble_batch_memory_bounded_by_its_columns(self, monkeypatch):
        # one 1024-frame AE-8 batch at N = 64, whose 8 members fall in 3
        # classes, decodes 1 block of 682 frames, 2046 columns, and a
        # last one; it may hold the kernel's workspace and the
        # permuted input, (N - 1) and N float64 LLRs a column, the block's
        # decoded candidates (N uint8 a column) and 1 MB of slack for the
        # LLR block, the batch's codewords and info bits, the member scores
        # and their (frames, N) float64 terms.  One block of all 8192
        # columns peaks at 9.3 MB
        spec = construct_pw(6, 32)
        perms = np.array(_blta_perms(spec, 8, 29), dtype=np.intp)
        inverses = np.argsort(perms, axis=1)
        decoded = decode._coset_reps(perms, spec)
        assert decoded.sum() == 3
        columns = min(decode._BLOCK_LLRS // spec.N, decode._BLOCK_COLUMNS)
        assert columns < len(perms) * 1024
        bound = 8 * (2 * spec.N - 1) * columns + spec.N * columns + (1 << 20)
        decode._sim_batch((spec, AwgnBpskChannel(3.5), perms, inverses, decoded, 1, 0, 8))  # the plan is cached
        monkeypatch.delattr(decode._local, "work", raising=False)
        tracemalloc.start()
        try:
            decode._sim_batch((spec, AwgnBpskChannel(3.5), perms, inverses, decoded, 1, 0, 1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("tile", [1, 7, 100, decode._TILE])
    def test_tile_changes_no_count(self, monkeypatch, pw6, tile):
        perms = _blta_perms(pw6, 4, 23)
        runs = [(AwgnBpskChannel(2.0), "sc", None), (AwgnBpskChannel(3.0), "ae", perms)]

        def counts():
            return [
                simulate_bler(pw6, chan, 1500, seed=4, decoder=dec, perms=p).errors
                for chan, dec, p in runs
            ]

        monkeypatch.setattr(decode, "_TILE", 1 << 62)  # every step whole
        whole = counts()
        monkeypatch.setattr(decode, "_TILE", tile)
        assert counts() == whole

    @pytest.mark.parametrize("spec,channel", [
        (construct_pw(6, 32), AwgnBpskChannel(3.0)),
        (construct_pw(8, 128), BecChannel(0.4)),
        (construct_pw(10, 512), AwgnBpskChannel(2.0)),
    ], ids=["pw6-awgn3", "pw8-bec0.4", "pw10-awgn2"])
    @pytest.mark.parametrize("decoder", ["sc", "ae"])
    def test_counts_equal_oracle_info_bit_errors(self, spec, channel, decoder):
        # 1100 frames: one full batch of 1024 and a partial one; at n=10
        # AE-8, whose members are all LTA, decodes each batch in one block
        frames, seed = 1100, 25
        perms = _blta_perms(spec, 8, 26) if decoder == "ae" else None
        res = simulate_bler(spec, channel, frames, seed=seed, decoder=decoder, perms=perms)
        # float64 sums of at most K ones are exact, and numpy multiplies
        # float64 matrices much faster than int64 ones
        generator = kron_power(spec.n)[list(spec.row_indices())].astype(np.float64)
        errors = 0
        for idx, start in enumerate(range(0, frames, decode._SIM_BATCH)):
            rng = np.random.default_rng([seed, idx])
            u = rng.integers(0, 2, (min(decode._SIM_BATCH, frames - start), spec.K), dtype=np.uint8)
            sent = (u @ generator) % 2
            if isinstance(channel, AwgnBpskChannel):
                llrs = awgn_llrs_oracle(sent, rng, channel.ebn0_db, spec.rate)
            else:
                llrs = bec_llrs_oracle(sent, rng, channel.erasure_prob)
            if perms is None:
                x = sc_oracle(llrs, _mask(spec))[0]
            else:
                x = ae_oracle(llrs, np.array(perms, dtype=np.intp), _mask(spec))[0]
            errors += int((extract_info(x, spec) != u).any(axis=1).sum())
        assert res.errors == errors
        assert 0 < errors < frames

    def test_validation(self):
        spec = construct_pw(3, 4)
        with pytest.raises(ValueError):
            simulate_bler(spec, BecChannel(0.1), 0, seed=0)
        with pytest.raises(ValueError):
            simulate_bler(spec, BecChannel(0.1), 10, seed=0, decoder="ae", perms=[])
        with pytest.raises(ValueError):
            simulate_bler(spec, BecChannel(0.1), 10, seed=0, decoder="bogus")
        # an ensemble beside the SC decoder would be ignored
        with pytest.raises(ValueError, match="SC decoder takes no ensemble"):
            simulate_bler(spec, BecChannel(0.1), 10, seed=0, decoder="sc", perms=[[0, 1, 2, 3, 4, 5, 6, 7]])

    @pytest.mark.parametrize("kwargs", [
        {"num_frames": 10.5}, {"num_frames": 10.0}, {"num_frames": True}, {"num_frames": "10"},
        {"num_frames": -3}, {"jobs": 0}, {"jobs": -3}, {"jobs": 1.5}, {"jobs": True},
    ], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
    def test_counts_must_be_integers_of_at_least_one(self, kwargs):
        # a float frame count once died with a TypeError inside range, a
        # bool one ran and reported frames=True, and jobs below 1 ran
        # serially without a word
        args = {"num_frames": 10, "jobs": 1, **kwargs}
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be an integer of at least 1"):
            simulate_bler(construct_pw(3, 4), BecChannel(0.1), seed=0, **args)

    def test_counts_accept_numpy_integers(self):
        res = simulate_bler(construct_pw(3, 4), BecChannel(0.1), np.int64(10), seed=0, jobs=np.int32(1))
        assert res.frames == 10 and type(res.bler) is float

    def test_decodes_per_frame(self):
        # the first-pass SC decodes a frame: one for SC and an all-LTA
        # ensemble, which SC decodes in place, else one per class: PW(6,32)'s
        # ensemble of 6 right LTA cosets falls in 3 right H-cosets.  It is
        # no CSV column: the golden bytes of test_cli pin every column
        pw6 = construct_pw(6, 32)
        rng = random.Random(29)  # the ensemble of _blta_perms(pw6, 8, 29)
        maps = [sample_blta(block_profile(pw6.monomials), rng) for _ in range(8)]
        lta = {tuple(blta_membership(m.inverse().compose(t), (1,) * 6) for m in maps) for t in maps}
        assert len(lta) == 6
        perms = [induced_permutation(t) for t in maps]
        chan = AwgnBpskChannel(3.5)
        assert simulate_bler(pw6, chan, 100, seed=1).decodes_per_frame == 1
        assert simulate_bler(pw6, chan, 100, seed=1, decoder="ae", perms=_lta_perms(pw6, 8, random.Random(2))).decodes_per_frame == 1
        res = simulate_bler(pw6, chan, 100, seed=1, decoder="ae", perms=perms)
        assert res.decodes_per_frame == 3 and res.ensemble_size == 8

    @pytest.mark.parametrize("channel", [AwgnBpskChannel(1.0), AwgnBpskChannel(3.5), BecChannel(0.3)],
                             ids=["awgn1", "awgn3.5", "bec0.3"])
    def test_contested_and_flagged_frames(self, pw6, channel):
        # the counters equal a brute-force count over the same frames (two
        # batches of (seed, batch index) draws), with one SC decode per
        # decoded member: contested frames, in which their candidates are
        # not all one array, and flagged frames (_flagged), when some member
        # is left to decode again.  Both are 0 for SC; an all-LTA ensemble
        # contests nothing and an ensemble of one member per class flags
        # nothing.  A pool of two gives the same counts.  No CSV column
        # holds them: the golden bytes of test_cli pin every column
        mixed = np.array(_blta_perms(pw6, 8, 29), dtype=np.intp)
        ensembles = {"sc": mixed[:0], "lta": _lta_perms(pw6, 8, random.Random(2)), "mixed": mixed,
                     "reps": mixed[decode._coset_reps(mixed, pw6)]}
        plan = _plan(pw6)
        counts = {}
        for name, perms in ensembles.items():
            args = {} if name == "sc" else {"decoder": "ae", "perms": perms}
            res = simulate_bler(pw6, channel, 1500, seed=3, **args)
            inverses = np.argsort(perms, axis=1)
            decoded = decode._coset_reps(perms, pw6)
            contested = flagged = 0
            for idx, count in enumerate((1024, 476)):
                for _, block in decode._frames(pw6, channel, np.random.default_rng([3, idx]), count, 1, 1):
                    if decoded.any():
                        cand = _member_candidates(block, perms[decoded], inverses[decoded], plan)
                        contested += int((cand != cand[:1]).any(axis=(0, 1)).sum())
                    flagged += len(_flagged(block, perms, pw6, decoded))
            assert (res.contested_frames, res.flagged_frames) == (contested, flagged), name
            counts[name] = contested, flagged
            if name == "mixed":
                assert simulate_bler(pw6, channel, 1500, seed=3, jobs=2, **args) == res
        assert counts["sc"] == (0, 0) and counts["lta"][0] == 0 and counts["reps"][1] == 0
        assert counts["mixed"][0] and counts["reps"][0] == counts["mixed"][0]
        if isinstance(channel, BecChannel):  # erasures flag frames
            assert counts["lta"][1] and counts["mixed"][1]

    @pytest.mark.parametrize("db, rate", [
        (float("nan"), 0.5), (float("inf"), 0.5), (float("-inf"), 0.5),
        (4000.0, 0.5), (-4000.0, 0.5), (3080.0, 0.5), (1.0, 0.0),
    ])
    def test_awgn_without_a_usable_sigma_rejected(self, db, rate):
        with pytest.raises(ValueError):
            AwgnBpskChannel(db).noise_sigma(rate)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("shape", [(1, 64), (1024, 64), (7, 4096)])
    @pytest.mark.parametrize("db", [-1.0, 2.5, 6.0])
    @pytest.mark.parametrize("rate", [0.25, 0.75])
    def test_awgn_llrs_match_oracle(self, dtype, shape, db, rate):
        x = np.random.default_rng(41).integers(0, 2, shape).astype(dtype)
        got_rng, ref_rng = np.random.default_rng(42), np.random.default_rng(42)
        got = AwgnBpskChannel(db).llrs(x, got_rng, rate)
        ref = awgn_llrs_oracle(x, ref_rng, db, rate)
        assert got.dtype == np.float64 and got.shape == shape
        assert (got.view(np.uint64) == ref.view(np.uint64)).all()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64])
    @pytest.mark.parametrize("shape", [(1, 64), (1024, 64), (7, 4096)])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.9])
    def test_bec_llrs_match_oracle(self, dtype, shape, p):
        x = np.random.default_rng(43).integers(0, 2, shape).astype(dtype)
        got_rng, ref_rng = np.random.default_rng(44), np.random.default_rng(44)
        got = BecChannel(p).llrs(x, got_rng, 0.5)
        ref = bec_llrs_oracle(x, ref_rng, p)
        assert got.dtype == np.float64 and got.shape == shape
        assert (got.view(np.uint64) == ref.view(np.uint64)).all()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    # a 0-d bit, a transposed (non-contiguous) block and bool bits: llrs
    # returns a new C-contiguous float64 array of x's shape, equal bit for
    # bit to the oracle's one draw in x's element order (the oracles take
    # the bits flattened, since a 0-d array would come back a scalar)
    @pytest.mark.parametrize("layout", ["0-d", "transposed", "bool"])
    @pytest.mark.parametrize("channel", [AwgnBpskChannel(2.0), BecChannel(0.4)], ids=["awgn", "bec"])
    def test_llrs_return_a_new_c_contiguous_array(self, channel, layout):
        bits = np.random.default_rng(45).integers(0, 2, (64, 24), dtype=np.uint8)
        x = {"0-d": bits[0, 0].reshape(()), "transposed": bits.T, "bool": bits.astype(np.bool_)}[layout]
        got_rng, ref_rng = np.random.default_rng(46), np.random.default_rng(46)
        got = channel.llrs(x, got_rng, 0.5)
        if isinstance(channel, AwgnBpskChannel):
            ref = awgn_llrs_oracle(x.reshape(-1), ref_rng, channel.ebn0_db, 0.5)
        else:
            ref = bec_llrs_oracle(x.reshape(-1), ref_rng, channel.erasure_prob)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == x.shape
        assert got.flags.c_contiguous and not np.shares_memory(got, x)
        assert got.tobytes() == ref.tobytes()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_awgn_extreme_but_usable_sigma(self):
        for db in (3000.0, -3000.0):  # sigma and 2 / sigma^2 are still finite
            assert 0.0 < AwgnBpskChannel(db).noise_sigma(0.5) < float("inf")

    def test_rate0_code(self):
        # AWGN has no noise sigma at rate 0, so simulate_bler refuses it; an
        # SC invariance check needs none: with no information row SC decodes
        # every frame and its permuted copy to the zero word, so every trial
        # is equal, under the default channel or any other, and nothing is
        # drawn
        spec = construct_explicit(3, [])
        with pytest.raises(ValueError, match="noise sigma"):
            simulate_bler(spec, AwgnBpskChannel(1.0), 10, seed=0)
        for t in AffineMap.identity(3), sample_blta((3,), random.Random(7)):
            for channel in None, AwgnBpskChannel(1.0), BecChannel(0.5):
                report = sc_invariance_check(t, spec, trials=5, channel=channel)
                assert (report.trials, report.equal, report.fraction) == (5, 5, 1.0)
        with pytest.raises(ValueError, match="at least one trial"):
            sc_invariance_check(AffineMap.identity(3), spec, trials=0)
        assert simulate_bler(spec, BecChannel(0.5), 10, seed=0).errors == 0


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(10, 1000)
        assert 0.0 < lo < 0.01 < hi < 0.02
        assert wilson_interval(0, 100)[0] == 0.0
        assert wilson_interval(100, 100)[1] == pytest.approx(1.0)

    def test_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    # no count outside 0 <= k <= n has an interval; the error names both
    @pytest.mark.parametrize("k, n", [(5, 3), (-1, 10), (3, 0), (-1, 0), (1, -1)])
    def test_impossible_counts_rejected(self, k, n):
        with pytest.raises(ValueError, match=rf"^{k} successes in {n} trials"):
            wilson_interval(k, n)


def test_extract_info_roundtrip():
    rng = np.random.default_rng(17)
    spec = construct_pw(5, 20)
    u = rng.integers(0, 2, spec.K, dtype=np.uint8)
    assert (extract_info(polar_encode(u, spec), spec) == u).all()


# a word whose last axis is not N is refused by name, as polar_encode
# refuses a wrong K, and not with numpy's IndexError of a boolean index
@pytest.mark.parametrize("shape", [(4,), (16,), (2, 16)], ids=["half", "double", "double-batch"])
@pytest.mark.parametrize("check", [extract_info, is_codeword], ids=["extract_info", "is_codeword"])
def test_wrong_word_length_rejected(check, shape):
    spec = construct_pw(3, 4)
    with pytest.raises(ValueError, match=rf"expected 8 code bits, got shape \({shape[0]}"):
        check(np.zeros(shape, dtype=np.uint8), spec)
