import json
import random
import re

import pytest

from polaraut import (
    CodeSpec,
    MonomialSet,
    anf,
    anf_support,
    construct_bec,
    construct_explicit,
    construct_pw,
    decreasing_closure,
    degree,
    evaluation_vector,
    generator_matrix,
    index_monomial,
    is_decreasing,
    leq,
    minimal_generators,
    monomial_index,
    reed_muller_set,
)
from polaraut.gf2 import BitVec
from polaraut.monomial import all_monomials, bec_z_parameters, monomial_str, pw_weights
from polaraut.selfcheck import check_order_axioms

from oracles import (
    bec_z_oracle,
    decreasing_closure_oracle,
    divisor_leq,
    evaluation_vector_oracle,
    is_decreasing_oracle,
    kron_power,
    minimal_generators_oracle,
    mobius_direct,
    pw_weight_oracle,
)

X0, X1, X2, X3 = 1, 2, 4, 8


def test_degree():
    assert degree(0) == 0
    assert degree(X0 | X1 | X2) == 3
    assert degree(X1 | X3) == 2


def test_monomial_str():
    assert monomial_str(0) == "1"
    assert monomial_str(X0 | X2) == "x0*x2"


class TestOrder:
    def test_same_degree_instance(self):
        assert leq(X0 | X2, X1 | X2)       # indices (0,2) <= (1,2)
        assert not leq(X1 | X2, X0 | X2)

    def test_cross_degree_divisor(self):
        assert leq(X1, X0 | X1)

    def test_no_dominating_divisor(self):
        # divisors of x0*x1*x2 of degree 1 are x0, x1, x2; none dominates x3
        assert not leq(X3, X0 | X1 | X2)

    def test_matches_divisor_definition(self):
        for n in (2, 3, 4):
            for g in range(1 << n):
                for f in range(1 << n):
                    assert leq(g, f) == divisor_leq(g, f), (g, f)

    def test_matches_divisor_definition_on_seeded_pairs(self):
        rng = random.Random(16)
        answers = set()
        for n in range(5, 11):
            for _ in range(200):
                f = rng.randrange(1 << n)
                g = rng.randrange(1 << n)
                near = f
                for k in rng.sample(range(n), rng.randint(0, n)):
                    if (near >> k) & 1:
                        if rng.random() < 0.5:
                            near ^= 1 << k  # drop x_k
                        elif k and not (near >> (k - 1)) & 1:
                            near ^= 3 << (k - 1)  # move x_k to x_{k-1}
                for h in (g, near):
                    answers.add(leq(h, f))
                    assert leq(h, f) == divisor_leq(h, f), (n, h, f)
                    assert leq(f, h) == divisor_leq(f, h), (n, f, h)
        assert answers == {True, False}

    def test_constant_monomial_edges(self):
        for n in (0, 3, 10):
            for m in range(0, 1 << n, max(1, (1 << n) // 64)):
                assert leq(0, m)
                assert leq(m, 0) == (m == 0) == divisor_leq(m, 0)

    def test_axioms_exhaustive(self):
        for n in (3, 4, 5):
            res = check_order_axioms(n)
            assert res.failures == 0


class TestDecreasingSets:
    def test_closure_of_top(self):
        out = decreasing_closure(MonomialSet(2, frozenset({X0 | X1})))
        assert out.masks == {0, X0, X1, X0 | X1}

    def test_closure_empty(self):
        assert decreasing_closure(MonomialSet(3)).masks == frozenset()

    def test_closure_idempotent(self):
        rng = random.Random(0)
        for _ in range(20):
            gens = MonomialSet(4, frozenset(rng.randrange(16) for _ in range(2)))
            once = decreasing_closure(gens)
            assert decreasing_closure(once).masks == once.masks
            assert is_decreasing(once)

    def test_is_decreasing(self):
        assert is_decreasing(all_monomials(3))
        assert not is_decreasing(MonomialSet(2, frozenset({X1})))

    def test_is_decreasing_matches_oracle(self):
        for bits in range(1 << 8):
            ms = MonomialSet(3, frozenset(m for m in range(8) if (bits >> m) & 1))
            assert is_decreasing(ms) == is_decreasing_oracle(ms)
        rng = random.Random(11)
        for n in range(4, 9):
            for _ in range(12):
                gens = MonomialSet(n, frozenset(rng.randrange(1 << n) for _ in range(3)))
                closed = decreasing_closure_oracle(gens)
                sets = [closed, MonomialSet(n, frozenset(
                    m for m in range(1 << n) if rng.random() < 0.7))]
                if closed.masks:  # drop one member or add one non-member
                    sets.append(MonomialSet(n, closed.masks - {rng.choice(sorted(closed.masks))}))
                sets.append(MonomialSet(n, closed.masks | {rng.randrange(1 << n)}))
                for ms in sets:
                    assert is_decreasing(ms) == is_decreasing_oracle(ms), (n, sorted(ms.masks))

    def test_minimal_generators(self):
        rm = reed_muller_set(3, 1)
        assert minimal_generators(rm).masks == {X2}
        assert minimal_generators(all_monomials(3)).masks == {X0 | X1 | X2}
        assert minimal_generators(MonomialSet(2, frozenset({0}))).masks == {0}

    def test_closure_and_generators_match_oracles(self):
        sets = [MonomialSet(n, frozenset(m for m in range(1 << n) if (bits >> m) & 1))
                for n in range(4) for bits in range(1 << (1 << n))]
        rng = random.Random(13)
        for n, count in zip(range(4, 11), (20, 20, 10, 6, 4, 2, 1)):
            sets += [MonomialSet(n, frozenset(rng.randrange(1 << n) for _ in range(rng.randint(1, 4))))
                     for _ in range(count)]
        for gens in sets:
            closed = decreasing_closure(gens)
            assert closed == decreasing_closure_oracle(gens), (gens.n, sorted(gens.masks))
            assert minimal_generators(closed) == minimal_generators_oracle(closed), (gens.n, sorted(gens.masks))

    def test_generators_roundtrip(self):
        rng = random.Random(1)
        sets = [decreasing_closure(MonomialSet(5, frozenset(rng.randrange(32) for _ in range(3))))
                for _ in range(20)]
        specs = [build(n, 1 << (n - 1)) for n in (10, 12, 14)
                 for build in (construct_pw, lambda n, k: construct_bec(n, k, 0.5))]
        for ms in sets + [spec.monomials for spec in specs]:
            assert decreasing_closure(minimal_generators(ms)).masks == ms.masks
        for spec in specs:
            assert CodeSpec.from_json(spec.to_json()) == spec

    def test_minimal_generators_requires_decreasing(self):
        with pytest.raises(ValueError):
            minimal_generators(MonomialSet(2, frozenset({X1})))


@pytest.mark.parametrize("call, message", [
    (lambda: MonomialSet(-1), "negative variable count -1"),
    (lambda: MonomialSet(2, frozenset({4})), "mask 0x4 uses variables beyond x1"),
    (lambda: CodeSpec(3, reed_muller_set(2, 1)), "monomial set has a different variable count"),
    (lambda: CodeSpec.from_json({"n": 3, "K": 4, "construction": "rm"}),
     "unknown construction 'rm'"),
], ids=["negative-n", "mask-too-wide", "codespec-n", "unknown-construction"])
def test_invalid_input_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestIndexBijection:
    def test_extremes(self):
        n = 4
        assert index_monomial((1 << n) - 1, n) == 0      # last row = constant
        assert index_monomial(0, n) == (1 << n) - 1      # first row = full product
        ev = evaluation_vector(index_monomial((1 << n) - 1, n), n)
        assert ev.weight() == 1 << n                     # all-ones row

    def test_roundtrip(self):
        for n in range(1, 7):
            for mask in range(1 << n):
                assert index_monomial(monomial_index(mask, n), n) == mask

    def test_range_errors(self):
        with pytest.raises(ValueError):
            monomial_index(16, 4)
        with pytest.raises(ValueError):
            index_monomial(-1, 4)


class TestEvaluationVector:
    def test_constant(self):
        assert evaluation_vector(0, 3).to_list() == [1] * 8

    def test_single_variable(self):
        # with complemented point unpacking, x_k is 1 where bit k of the
        # position is 0
        ev = evaluation_vector(X1, 3)
        assert ev.weight() == 4
        assert ev.to_list() == [1 if not (i >> 1) & 1 else 0 for i in range(8)]

    def test_weight(self):
        for n in range(1, 7):
            for mask in range(1 << n):
                assert evaluation_vector(mask, n).weight() == 1 << (n - degree(mask))

    def test_matches_position_loop(self):
        for n in range(11):
            for mask in range(1 << n):
                assert evaluation_vector(mask, n).bits == evaluation_vector_oracle(mask, n)


class TestGeneratorMatrix:
    def test_n1_full(self):
        g = generator_matrix(CodeSpec(1, all_monomials(1)))
        assert g.to_rows() == [[1, 0], [1, 1]]

    def test_single_constant_row(self):
        g = generator_matrix(CodeSpec(2, MonomialSet(2, frozenset({0}))))
        assert g.to_rows() == [[1, 1, 1, 1]]

    def test_full_rank(self):
        g = generator_matrix(CodeSpec(3, all_monomials(3)))
        assert g.rank() == 8

    def test_matches_kronecker_power(self):
        for n in range(1, 7):
            g = generator_matrix(CodeSpec(n, all_monomials(n)))
            h = kron_power(n)
            assert g.to_rows() == h.tolist()


class TestAnf:
    def test_zero(self):
        assert anf_support(BitVec(8, 0)).masks == frozenset()

    def test_monomial_roundtrip(self):
        for n in range(1, 7):
            for mask in range(1 << n):
                supp = anf_support(evaluation_vector(mask, n))
                assert supp.masks == {mask}

    def test_involution(self):
        rng = random.Random(2)
        for n in (2, 3, 5):
            for _ in range(50):
                v = BitVec(1 << n, rng.getrandbits(1 << n))
                assert anf(anf(v)) == v

    def test_against_direct_subset_sums(self):
        rng = random.Random(3)
        n = 4
        for _ in range(25):
            v = BitVec(1 << n, rng.getrandbits(1 << n))
            # direct route works on point-indexed truth tables
            truth = [v[((1 << n) - 1) ^ p] for p in range(1 << n)]
            coeffs = mobius_direct(truth)
            got = anf(v)
            for mask in range(1 << n):
                assert got[monomial_index(mask, n)] == coeffs[mask]

    def test_bad_length(self):
        with pytest.raises(ValueError):
            anf(BitVec(6, 0))


class TestConstructions:
    def test_bec_full(self):
        assert construct_bec(3, 8, 0.5).monomials.masks == frozenset(range(8))

    def test_bec_hand_recursion(self):
        zs = bec_z_parameters(2, 0.5)
        assert zs == pytest.approx([0.9375, 0.5625, 0.4375, 0.0625])
        spec = construct_bec(2, 1, 0.5)
        assert spec.monomials.masks == {0}  # the plus-plus channel
        assert zs == pytest.approx(bec_z_oracle(2, 0.5))

    def test_bec_decreasing_sweep(self):
        # from n = 6 on, exactly tied Z values must not break the order
        for n in range(1, 9):
            for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
                for k in range(1, (1 << n) + 1):
                    assert construct_bec(n, k, eps).is_decreasing(), (n, k, eps)

    def test_bec_validation(self):
        with pytest.raises(ValueError):
            construct_bec(3, 0, 0.5)
        with pytest.raises(ValueError):
            construct_bec(3, 9, 0.5)
        with pytest.raises(ValueError):
            construct_bec(3, 4, 1.5)

    def test_pw_full_and_single(self):
        assert construct_pw(3, 8).monomials.masks == frozenset(range(8))
        assert construct_pw(4, 1).monomials.masks == {0}

    def test_pw_weights_oracle(self):
        # both add beta^k in ascending k, so the floats agree exactly
        want = [pw_weight_oracle(i) for i in range(1 << 16)]
        for n in range(17):
            assert pw_weights(n) == want[:1 << n]

    def test_pw_sets_follow_oracle_weights(self):
        # ties in weight go to the lower row index
        for n in range(11):
            order = sorted(range(1 << n), key=lambda i: (-pw_weight_oracle(i), i))
            for k in range(1, (1 << n) + 1):
                want = {index_monomial(i, n) for i in order[:k]}
                assert construct_pw(n, k).monomials.masks == want, (n, k)

    def test_pw_decreasing_sweep(self):
        for n in range(1, 7):
            for k in range(1, (1 << n) + 1):
                assert construct_pw(n, k).is_decreasing()

    def test_explicit(self):
        spec = construct_explicit(2, [X0 | X1])
        assert spec.K == 4

    @pytest.mark.parametrize("n", [-1, 17, 40])
    def test_scale_limit(self, n):
        for build in (lambda: reed_muller_set(n, 1), lambda: construct_pw(n, 1),
                      lambda: construct_bec(n, 1, 0.5), lambda: construct_explicit(n, [0])):
            with pytest.raises(ValueError, match=rf"0 <= n <= 16, got n={n}$"):
                build()

    def test_scale_limit_admits_16(self):
        assert reed_muller_set(16, 1).masks == {0} | {1 << k for k in range(16)}
        assert construct_explicit(16, [1 << 15]).K == 17


class TestCodeSpecJson:
    def test_roundtrip_constructions(self):
        for spec in (construct_pw(4, 8), construct_bec(4, 6, 0.3),
                     construct_explicit(3, [X0 | X1])):
            again = CodeSpec.from_json(json.loads(json.dumps(spec.to_json())))
            assert again.monomials.masks == spec.monomials.masks
            assert again.construction == spec.construction

    def test_mismatch_rejected(self):
        obj = construct_pw(4, 8).to_json()
        obj["m_min_masks"] = [0]
        with pytest.raises(ValueError):
            CodeSpec.from_json(obj)

    def test_explicit_k_checked(self):
        obj = construct_explicit(2, [X0 | X1]).to_json()
        obj["K"] = 3
        # a set that is not decreasing has no generators, so every mask is
        # listed, and their closure is larger than the set
        odd = CodeSpec(2, MonomialSet(2, frozenset({0, X0, X0 | X1}))).to_json()
        assert odd == {"n": 2, "K": 3, "construction": "explicit", "m_min_masks": [0, X0, X0 | X1]}
        for bad in (obj, odd):
            with pytest.raises(ValueError, match="^closure of m_min_masks has K=4, file says 3$"):
                CodeSpec.from_json(bad)

    def test_row_indices(self):
        spec = construct_pw(3, 4)
        rows = spec.row_indices()
        assert len(rows) == 4 and list(rows) == sorted(rows)
        assert set(rows) | set(spec.frozen_indices()) == set(range(8))
