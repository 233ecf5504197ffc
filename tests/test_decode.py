import random

import numpy as np
import pytest

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
from polaraut.affine import block_profile
from polaraut.decode import CERTAIN_LLR, _ae_batch, _plan, _sc_batch, correlation_score
from polaraut.monomial import all_monomials, construct_bec

from oracles import ae_oracle, kron_power, sc_oracle


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

    def test_transposed_is_a_contiguous_transpose(self):
        rng = np.random.default_rng(27)
        for shape in ((0, 5), (1, 3), (63, 7), (64, 2), (130, 9), (5, 0)):
            for a in (rng.integers(0, 2, shape, dtype=np.uint8), rng.normal(size=shape)):
                t = decode._transposed(a)
                assert t.flags.c_contiguous and t.dtype == a.dtype
                assert t.shape == shape[::-1] and (t == a.T).all()


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
    for k in sorted({1, big // 4, big // 2, 3 * big // 4, big - 1, big} - {0}):
        for spec in (construct_pw(n, k), construct_bec(n, k, 0.5)):
            llrs = _llr_blocks(spec, rng, 24)
            x = _sc_batch(llrs.T, _plan(spec)).T
            x_ref, u_ref = sc_oracle(llrs, _mask(spec))
            assert (x == x_ref).all(), (n, k, spec.construction)
            assert is_codeword(x, spec), (n, k, spec.construction)  # every row
            assert (polar_transform(x) == u_ref).all(), (n, k, spec.construction)


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
    best, chosen, scores = _ae_batch(llrs.T, perm_arr, _plan(spec))
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
        runs = [(AwgnBpskChannel(2.0), "sc", None), (BecChannel(0.4), "ae", perms)]

        def counts():
            return [
                simulate_bler(pw6, chan, 1500, seed=4, decoder=dec, perms=p).errors
                for chan, dec, p in runs
            ]

        whole = counts()
        monkeypatch.setattr(decode, "_BLOCK_LLRS", 3000)  # 46 and 11 frames a block
        assert counts() == whole

    @pytest.mark.parametrize("spec,channel", [
        (construct_pw(6, 32), AwgnBpskChannel(3.0)),
        (construct_pw(8, 128), BecChannel(0.4)),
        (construct_pw(10, 512), AwgnBpskChannel(2.0)),
    ], ids=["pw6-awgn3", "pw8-bec0.4", "pw10-awgn2"])
    @pytest.mark.parametrize("decoder", ["sc", "ae"])
    def test_counts_equal_oracle_info_bit_errors(self, spec, channel, decoder):
        # 1100 frames: one full batch of 1024 and a partial one; at n=10
        # AE-8 decodes them in blocks of 128 frames and a partial block
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
            llrs = channel.llrs((u @ generator) % 2, rng, spec.rate)
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

    @pytest.mark.parametrize("db, rate", [
        (float("nan"), 0.5), (float("inf"), 0.5), (float("-inf"), 0.5),
        (4000.0, 0.5), (-4000.0, 0.5), (3080.0, 0.5), (1.0, 0.0),
    ])
    def test_awgn_without_a_usable_sigma_rejected(self, db, rate):
        with pytest.raises(ValueError):
            AwgnBpskChannel(db).noise_sigma(rate)

    def test_awgn_extreme_but_usable_sigma(self):
        for db in (3000.0, -3000.0):  # sigma and 2 / sigma^2 are still finite
            assert 0.0 < AwgnBpskChannel(db).noise_sigma(0.5) < float("inf")

    def test_rate0_code(self):
        spec = construct_explicit(3, [])
        with pytest.raises(ValueError, match="noise sigma"):
            simulate_bler(spec, AwgnBpskChannel(1.0), 10, seed=0)
        with pytest.raises(ValueError, match="noise sigma"):
            sc_invariance_check(AffineMap.identity(3), spec, trials=5)
        assert simulate_bler(spec, BecChannel(0.5), 10, seed=0).errors == 0


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(10, 1000)
        assert 0.0 < lo < 0.01 < hi < 0.02
        assert wilson_interval(0, 100)[0] == 0.0
        assert wilson_interval(100, 100)[1] == pytest.approx(1.0)

    def test_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


def test_extract_info_roundtrip():
    rng = np.random.default_rng(17)
    spec = construct_pw(5, 20)
    u = rng.integers(0, 2, spec.K, dtype=np.uint8)
    assert (extract_info(polar_encode(u, spec), spec) == u).all()
