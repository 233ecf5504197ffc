"""Randomized and exhaustive property suites for the algebraic kernels.

These back the CLI selftest and the acceptance run.  Each check returns
a CheckResult; a failure count of zero is the only passing outcome.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable
from dataclasses import dataclass

from .gf2 import BitMatrix, BitVec, _random_invertible, extend_minor
from .affine import AffineMap, substitution_coefficient, transform_monomial_support
from .monomial import anf, evaluation_vector, leq

__all__ = [
    "CheckResult",
    "check_substitution_coefficient",
    "check_minor_extension",
    "check_independence_repair",
    "check_order_axioms",
    "check_anf_involution",
    "run_all",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    checked: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0 and self.checked > 0

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.checked} checks, {self.failures} failures"


def _index_sets(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    pairs = []
    for r in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), r))
        pairs.extend((rows, cols) for rows in subsets for cols in subsets)
    return pairs


def check_substitution_coefficient(n: int, matrices: Iterable[BitMatrix]) -> CheckResult:
    """The minor-determinant coefficient rule against the truth-table route.

    For each matrix and each pair of equal-size index sets, the claimed
    coefficient of the column product inside the expanded row product
    must match membership in the support computed by composing and
    re-expanding the boolean function.
    """
    pairs = _index_sets(n)
    checked = failures = 0
    for a in matrices:
        t = AffineMap.from_linear(a)
        supports = {}
        for rows, cols in pairs:
            mask_rows = sum(1 << r for r in rows)
            if mask_rows not in supports:
                supports[mask_rows] = transform_monomial_support(mask_rows, t).masks
            mask_cols = sum(1 << c for c in cols)
            via_anf = 1 if mask_cols in supports[mask_rows] else 0
            via_minor = substitution_coefficient(a, rows, cols)
            checked += 1
            failures += via_anf != via_minor
    return CheckResult(f"substitution coefficient = minor det (n={n})", checked, failures)


def _pivot_minor(m: BitMatrix) -> tuple[list[int], list[int]]:
    """Row/column pivot indices of an elimination; every prefix selects a
    nonsingular minor."""
    work = list(m.row_masks)
    order = list(range(m.rows))
    rows, cols = [], []
    r = 0
    for col in range(m.cols):
        piv = next((i for i in range(r, len(work)) if (work[i] >> col) & 1), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        order[r], order[piv] = order[piv], order[r]
        for i in range(r + 1, len(work)):
            if (work[i] >> col) & 1:
                work[i] ^= work[r]
        rows.append(order[r])
        cols.append(col)
        r += 1
    return rows, cols


def check_minor_extension(
    rng: random.Random, instances: int, max_dim: int = 8
) -> CheckResult:
    """extend_minor must reach rank size, keep the starting indices in
    order, and end on a nonsingular minor."""
    checked = failures = 0
    while checked < instances:
        p = rng.randint(1, max_dim)
        q = rng.randint(1, max_dim)
        m = BitMatrix([rng.getrandbits(q) for _ in range(p)], q)
        t = m.rank()
        if t == 0:
            continue
        r = rng.randint(1, t)
        start = None
        for _ in range(50):  # favor varied minors; fall back to pivots
            rows = rng.sample(range(p), r)
            cols = rng.sample(range(q), r)
            if m.minor_det(rows, cols) == 1:
                start = (rows, cols)
                break
        if start is None:
            prow, pcol = _pivot_minor(m)
            start = (prow[:r], pcol[:r])
        rows, cols = extend_minor(m, *start)
        ok = (
            len(rows) == t
            and len(cols) == t
            and list(rows[: len(start[0])]) == list(start[0])
            and list(cols[: len(start[1])]) == list(start[1])
            and m.minor_det(rows, cols) == 1
        )
        if r == t:
            ok = ok and rows == tuple(start[0]) and cols == tuple(start[1])
        checked += 1
        failures += not ok
    return CheckResult("minor extension to full rank", checked, failures)


def check_independence_repair(
    rng: random.Random, instances: int, max_dim: int = 8
) -> CheckResult:
    """Adding the last independent vector to a dependent one restores
    independence: {a_1..a_{m-1}, a_n + a_m} is independent whenever
    {a_1..a_m} is independent and a_n depends on a_1..a_{m-1}."""
    checked = failures = 0
    for _ in range(instances):
        dim = rng.randint(1, max_dim)
        m = rng.randint(1, dim)
        basis_cols = _random_invertible(rng, dim).transpose().row_masks[:m]
        a_n = 0
        for c in basis_cols[: m - 1]:
            if rng.getrandbits(1):
                a_n ^= c
        repaired = list(basis_cols[: m - 1]) + [a_n ^ basis_cols[m - 1]]
        rank = BitMatrix(repaired, dim).rank()
        checked += 1
        failures += rank != m
    return CheckResult("independence repair by column addition", checked, failures)


def check_order_axioms(n: int) -> CheckResult:
    """Reflexivity, antisymmetry, transitivity of the reliability order,
    exhaustively over all monomial pairs/triples in n variables."""
    masks = range(1 << n)
    checked = failures = 0
    for f in masks:
        checked += 1
        failures += not leq(f, f)
    rel = {(g, f) for g in masks for f in masks if leq(g, f)}
    for g, f in rel:
        checked += 1
        failures += (f, g) in rel and f != g
    for g, f in rel:
        for h in masks:
            if (f, h) in rel:
                checked += 1
                failures += (g, h) not in rel
    return CheckResult(f"partial order axioms (n={n})", checked, failures)


def check_anf_involution(n: int, rng: random.Random, samples: int) -> CheckResult:
    """anf is self-inverse, and the ANF of a monomial's evaluation vector
    is that monomial alone."""
    checked = failures = 0
    for _ in range(samples):
        v = BitVec(1 << n, rng.getrandbits(1 << n))
        checked += 1
        failures += anf(anf(v)) != v
    for mask in range(1 << n):
        ev = evaluation_vector(mask, n)
        coeffs = anf(ev)
        want = 1 << (((1 << n) - 1) ^ mask)  # row index of the monomial
        checked += 1
        failures += coeffs.bits != want
    return CheckResult(f"anf involution and support (n={n})", checked, failures)


def run_all(seed: int = 0, quick: bool = True) -> list[CheckResult]:
    rng = random.Random(seed)
    sub_n = 3 if quick else 4
    instances = 2000 if quick else 10_000
    results = [
        check_substitution_coefficient(sub_n, [_random_invertible(rng, sub_n) for _ in range(100)]),
        check_minor_extension(rng, instances),
        check_independence_repair(rng, instances),
        check_order_axioms(4),
        check_anf_involution(4, rng, 200),
    ]
    return results
