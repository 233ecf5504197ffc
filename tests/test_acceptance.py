"""Acceptance run: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  All tolerances are
exact except the decoding-gain criterion, which compares seeded Monte
Carlo estimates through their 95% Wilson intervals.  The optional n=5
extended sweep is enabled with POLARAUT_EXTENDED=1.
"""

import os
import random

import pytest

from polaraut import (
    construct_bec,
    construct_pw,
    enumerate_gl,
    induced_permutation,
    random_decreasing_set,
    random_witness_instance,
    reed_muller_set,
    sample_blta,
    transposition_witness,
    verify_blta_completeness,
)
from polaraut.affine import block_profile, substitution_coefficient
from polaraut.autgroup import all_decreasing_sets
from polaraut.cli import main as cli_main
from polaraut.decode import (
    AwgnBpskChannel,
    sc_invariance_check,
    simulate_bler,
)
from polaraut.gf2 import BitVec
from polaraut.monomial import CodeSpec, all_monomials, anf, evaluation_vector, degree
from polaraut.selfcheck import (
    check_independence_repair,
    check_minor_extension,
    check_order_axioms,
    check_substitution_coefficient,
)

from oracles import kron_power, mobius_direct, swap_preserves_set


def report(num: int, name: str) -> None:
    print(f"\nACCEPTANCE {num} ({name}): PASS")


@pytest.fixture(scope="module")
def pw6():
    return construct_pw(6, 32)


def test_criterion_1_group_equality_battery():
    # every down-closed set at n=3
    for ms in all_decreasing_sets(3):
        rep = verify_blta_completeness(ms)
        assert rep.passed, rep.to_json()

    # fixed battery at n=4
    battery = [(f"rm({r},4)", reed_muller_set(4, r)) for r in range(5)]
    rng = random.Random(0)
    battery += [(f"rand4-{k}", random_decreasing_set(4, rng)) for k in range(100)]
    for k in (4, 8, 12):
        battery.append((f"pw(4,{k})", construct_pw(4, k).monomials))
        battery.append((f"bec(4,{k})", construct_bec(4, k, 0.5).monomials))
    for code_id, ms in battery:
        rep = verify_blta_completeness(ms, code_id=code_id)
        assert rep.passed, rep.to_json()
        assert rep.aut_count == rep.blta_count
        assert rep.counterexample is None
    report(1, f"BLTA = affine automorphisms, exact, n=3 all + n=4 battery of {len(battery)}")


@pytest.mark.skipif(
    not os.environ.get("POLARAUT_EXTENDED"),
    reason="extended n=5 sweep disabled (set POLARAUT_EXTENDED=1)",
)
def test_criterion_1_extended_n5():
    rng = random.Random(1)
    battery = [
        ("rm(1,5)", reed_muller_set(5, 1)),
        ("rm(2,5)", reed_muller_set(5, 2)),
        ("pw(5,12)", construct_pw(5, 12).monomials),
        ("bec(5,16)", construct_bec(5, 16, 0.5).monomials),
        ("rand5-0", random_decreasing_set(5, rng)),
    ]
    for code_id, ms in battery:
        rep = verify_blta_completeness(ms, code_id=code_id)
        assert rep.passed, rep.to_json()
    report(1, "extended n=5 battery (9,999,360 matrices per code)")


def test_criterion_2_coefficient_rule_exhaustive():
    # the package's two routes (minor determinant vs truth-table support)
    # agree for every invertible matrix and every equal-size index pair
    for n in (1, 2, 3, 4):
        res = check_substitution_coefficient(n, matrices=enumerate_gl(n))
        assert res.failures == 0, res.line()
        assert res.checked > 0

    # independent oracle: direct subset-sum expansion of the product
    rng = random.Random(2)
    n = 4
    for _ in range(300):
        a = sample_blta((n,), rng).a
        r = rng.randint(1, n)
        rows = rng.sample(range(n), r)
        cols = rng.sample(range(n), r)
        truth = []
        for point in range(1 << n):
            val = 1
            for m in rows:
                val &= (a.row_mask(m) & point).bit_count() & 1
            truth.append(val)
        coeff = mobius_direct(truth)[sum(1 << c for c in cols)]
        assert coeff == substitution_coefficient(a, rows, cols)
    report(2, "coefficient rule == expansion, exhaustive n<=4, zero mismatches")


def test_criterion_3_minor_extension_and_repair_suites():
    res1 = check_minor_extension(random.Random(3), instances=10_000, max_dim=8)
    assert res1.failures == 0 and res1.checked == 10_000
    res2 = check_independence_repair(random.Random(4), instances=10_000, max_dim=8)
    assert res2.failures == 0 and res2.checked == 10_000
    report(3, "minor extension + independence repair, 10^4 instances each, exact")


def test_criterion_4_witness_procedure_200_instances():
    rng = random.Random(5)
    dims = []
    for k in range(200):
        n = rng.choice([4, 5, 6])
        ms, a, i = random_witness_instance(n, rng)
        trace = transposition_witness(a, ms, i)  # raises on any broken invariant
        assert trace.swap_preserves_set
        # independent oracle: swap the two variables in every mask
        assert swap_preserves_set(ms, i, i + 1)
        dims.append(n)
    assert {4, 5, 6} <= set(dims)
    report(4, "200 witness traces, all step invariants held, swap oracle agreed")


def test_criterion_5_lta_sc_invariance(pw6):
    rng = random.Random(6)
    lta = (1,) * 6
    invariant = 0
    for k in range(1000):
        t = sample_blta(lta, rng)
        rep = sc_invariance_check(t, pw6, trials=100, seed=k)
        invariant += rep.equal == rep.trials
    assert invariant == 1000
    report(5, "SC invariance of 10^3 lower-triangular maps x 10^2 frames, 100%")


def test_criterion_6_structural_invariants():
    rng = random.Random(7)
    for n in range(1, 7):
        lastrow = (1 << n) - 1
        spec = CodeSpec(n, all_monomials(n))
        from polaraut.monomial import generator_matrix

        assert generator_matrix(spec).to_rows() == kron_power(n).tolist()
        for mask in range(1 << n):
            ev = evaluation_vector(mask, n)
            assert ev.weight() == 1 << (n - degree(mask))
            coeffs = anf(ev)
            assert coeffs.bits == 1 << (lastrow ^ mask)
        for _ in range(100):
            v = BitVec(1 << n, rng.getrandbits(1 << n))
            assert anf(anf(v)) == v
    for n in (3, 4, 5):
        res = check_order_axioms(n)
        assert res.failures == 0
    report(6, "generator=Kronecker n<=6, anf involution, weights, order axioms")


def _screened_ensemble(spec, size: int, seed: int) -> list[list[int]]:
    """Identity plus SC-variant, pairwise distinct sampled permutations."""
    profile = block_profile(spec.monomials)
    rng = random.Random(seed)
    perms = [list(range(spec.N))]
    seen = {tuple(perms[0])}
    k = 0
    while len(perms) < size:
        t = sample_blta(profile, rng)
        k += 1
        p = tuple(induced_permutation(t))
        if p in seen:
            continue
        if sc_invariance_check(t, spec, trials=32, seed=7000 + k).fraction == 1.0:
            continue
        seen.add(p)
        perms.append(list(p))
    return perms


def test_criterion_7_ensemble_gain(pw6):
    perms = _screened_ensemble(pw6, 8, seed=11)

    # deterministic calibration: first grid point whose short-run SC
    # estimate falls well inside the required window
    operating = None
    for snr10 in range(15, 46):
        snr = snr10 / 10.0
        est = simulate_bler(pw6, AwgnBpskChannel(snr), 30_000, seed=1, decoder="sc")
        if 8e-3 <= est.bler <= 3e-2:
            operating = snr
            break
    assert operating is not None, "no SNR grid point reached the target window"

    chan = AwgnBpskChannel(operating)
    sc = simulate_bler(pw6, chan, 100_000, seed=2, decoder="sc")
    ae = simulate_bler(pw6, chan, 100_000, seed=2, decoder="ae", perms=perms)
    assert 5e-3 <= sc.bler <= 5e-2, f"operating point drifted: {sc.bler}"
    assert ae.bler <= sc.bler
    assert ae.wilson()[1] < sc.wilson()[0], (
        f"intervals overlap: ae={ae.wilson()} sc={sc.wilson()}"
    )
    report(
        7,
        f"AE-8 {ae.bler:.4g} < SC {sc.bler:.4g} at {operating} dB, "
        f"non-overlapping Wilson intervals, 10^5 frames",
    )


def test_criterion_8_determinism_across_jobs(tmp_path):
    sim = ["simulate", "--n", "6", "--K", "32", "--pw", "--decoder", "ae", "--L", "4",
           "--frames", "4000", "--snr", "3.5", "--seed", "9"]
    # BEC AE-8 at n=8: 3 LTA cosets, whose members disagree where a decision
    # reads an erasure, so those frames decode every member
    bec = ["simulate", "--n", "8", "--K", "128", "--pw", "--decoder", "ae", "--L", "8",
           "--frames", "2048", "--epsilon", "0.4", "--seed", "9"]
    for name, args in (("sim", sim), ("bec", bec)):
        outs = []
        for jobs in ("1", "2"):
            path = tmp_path / f"{name}-{jobs}"
            code = cli_main(args + ["--jobs", jobs, "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1], f"{name} output changed with --jobs"
    report(8, "byte-identical outputs for --jobs 1 vs 2 (simulate AE on AWGN and BEC)")
