"""Exhaustive affine automorphism groups of decreasing monomial codes.

`verify_blta_completeness` is the one exhaustive sweep: it runs over all
of GL(n,2) (n <= 5), filters it down to the affine automorphisms of a
code, and checks the central claim of this package: the group equals the
block lower-triangular affine group of the code's profile.  The adjacent
transposition argument behind that equality is implemented as a witness
procedure that performs and re-verifies every elementary step, so a
violated invariant surfaces as a falsification candidate instead of a
wrong answer.

Only linear parts (b = 0) are enumerated: every translation is an
automorphism of a decreasing code, so (A, b) is an automorphism exactly
when (A, 0) is, and all counts below are counts of linear parts.

The sweep builds matrices one row at a time and prunes as it goes:

* Level split.  Substituting x_m -> row_m . x sends a member monomial f
  to a product of the forms of the rows in f, so its image depends only
  on rows 0..k, k = f.bit_length() - 1.  Each member is tested once, on
  the partial matrices of k + 1 rows, and a partial matrix that fails is
  dropped with all of its continuations.
* Linear in the newest row.  With f = x_k g, the image of f is the image
  of g, fixed by the prefix, times the form of row k, so its part outside
  the set is linear in that row: the rows that pass form a subspace.
  `affine._aut_level` decides all 2^n candidate rows of every prefix at
  once, from n words per member and prefix, and only the survivors are
  built.
* Degree skip.  f o A is a product of deg f linear forms, so its support
  has degree <= deg f; when every monomial of degree <= r is in the set,
  no member of degree <= r can fail and none is tested.  The rule lives in
  `affine._members_to_test`, which `is_affine_automorphism` reads too.
* One counted row.  The rows of the last block are never constrained by
  BLTA, since their block ends at column n - 1.  The sweep stops building
  at the counted row: the first row from which on no row meets a test or
  a BLTA constraint, or row n - 1 if that row has a test.  Its prefixes
  are counted one chunk at a time (`gf2._walk` holds no level whole),
  and none of their continuations is built.  Every row in a prefix's
  span passes the next row's test (the lemma in `_sweep`), so a prefix
  keeps all of the rows outside its span or none: all when the counted
  row has no test, and on row n - 1 when every word of its test is zero.
  Each counted prefix stands for every completion of the rows from the
  counted row on, which all survive and share its BLTA verdict.  The
  first counterexample is the first counted prefix outside BLTA,
  completed by the least free rows.
* Dual side.  The sweep walks ms or its dual D = {(2^n - 1) ^ m : m not
  in ms}, whichever `_cheaper_side` picks, and both give the same count
  and the same first counterexample:
  1. ev(a) ev(b) = ev(a | b), of weight 2^(n - |a | b|), so the two are
     orthogonal unless a | b covers every variable.  For a down-closed
     ms, ev(b) is orthogonal to C(ms) iff ~b is not in ms, and dim C(D)
     = 2^n - |ms|; hence C(D) is the dual code of C(ms).
  2. f -> f o A permutes the points, which preserves the inner product,
     so C o A = C iff C^perp o A = C^perp.  Both sides keep the same
     set of A: the same count, and the same first survivor outside BLTA
     in table order.
  3. An adjacent swap renames variables, and renaming commutes with
     complement, so the two sides have equal profiles; D is decreasing,
     because complement reverses the order.
  Each side's cost is read from the members it would test: the key
  (highest level with a tested member, lowest such level, their number)
  ranks as cheaper a walk whose tests end on an earlier row, then one
  that starts pruning on an earlier row, then one with fewer tests, and
  D is swept only when its key is smaller.  Counting tested members
  alone is worse: a side with fewer members but deeper ones can walk
  far more prefixes.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass
from collections.abc import Sequence

import numpy as np

from .gf2 import BitMatrix, _check_enum_n, _gl_extend, _outside_span, _walk
from .affine import (
    AffineMap,
    _aut_every_row,
    _aut_level,
    _blta_allowed,
    _by_row,
    _map_tables,
    _members_to_test,
    _preserves,
    _support,
    block_profile,
    blta_order,
    is_affine_automorphism,
    sample_blta,
    substitution_coefficient,
    swap_variables,
)
from .monomial import (
    MonomialSet,
    decreasing_closure,
    is_decreasing,
    leq,
    monomial_index,
)

__all__ = [
    "FalsificationError",
    "TheoremReport",
    "verify_blta_completeness",
    "WitnessStep",
    "MonomialWitness",
    "WitnessTrace",
    "transposition_witness",
    "all_decreasing_sets",
    "random_decreasing_set",
    "random_witness_instance",
]

class FalsificationError(RuntimeError):
    """An invariant of the proof machinery failed.

    This is the scientific failure mode: if it ever triggers on a
    decreasing code, the input is a counterexample candidate for the
    group-equality claim and `context` holds the serialized evidence.
    """

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}


def _require(cond: bool, message: str, **context) -> None:
    if not cond:
        raise FalsificationError(message, context)


# ---------------------------------------------------------------------------
# the exhaustive GL(n,2) sweep


def _blta_alive(rows: np.ndarray, profile: Sequence[int]) -> np.ndarray:
    """Zero-pattern test of BLTA(profile) on the leading rows given."""
    ok = np.ones(len(rows), dtype=bool)
    for col, allowed in zip(rows.T, _blta_allowed(profile)):
        ok &= (col & ~np.uint8(allowed & 0xFF)) == 0
    return ok


def _sweep(ms: MonomialSet, profile: Sequence[int]) -> tuple[int, tuple[int, ...] | None]:
    """Automorphism count of ms over GL(n,2), and its first automorphism
    outside BLTA(profile) in the lexicographic order of `enumerate_gl`.
    ms must be decreasing.

    `gf2._walk`, the walk behind `enumerate_gl`, runs up to the counted
    row d with each row's test (`affine._aut_level`), and each prefix of
    row d that it yields counts every continuation of its rows d..n-1 or
    none of them, in table order.  See the module docstring for the
    pruning.

    Lemma: every row v in the span of a prefix that passed the tests of
    rows 0..k-1 passes the test of row k.  Write f = x_k g for a member
    tested on row k, r_i for the prefix's rows and v = sum a_i r_i.  The
    image of f is (g o A) (v . x) = sum a_i (g o A) (r_i . x) = sum a_i
    (g x_i) o A.  g x_i is g when x_i divides g, else f with x_k moved
    down to x_i; either way g x_i <= f, so it is a member of ms, and its
    top variable is below k: its image was tested on its own row, which
    the prefix passed, or the degree skip shows that it cannot leave ms.
    So every term, and their sum, lies in ms.

    The rows that pass a test form a subspace (module docstring), which
    holds the prefix's span, of dimension d, by the lemma.  Row d has a
    test only when d = n - 1 (a test on any row below n - 1 puts the
    counted row after it), and then the subspace is either the span,
    and no continuation passes, or every vector, when all of the test's
    words are zero (`affine._aut_every_row`), and the 2^(n-1) vectors
    outside the span pass.  A row d with no test passes all 2^n - 2^d of
    them, and the rows after it are free.
    """
    n = ms.n
    _check_enum_n(n)
    levels: list[list[int]] = [[] for _ in range(n)]
    for f in _members_to_test(ms):
        levels[f.bit_length() - 1].append(f)

    last = max((k for k in range(n) if levels[k]), default=-1)
    # the counted row: rows after it meet neither a test nor a BLTA constraint
    depth = min(max(last + 1, n - profile[-1]), n - 1)
    # the continuations of rows depth..n-1 that a counted prefix stands for
    per = math.prod((1 << n) - (1 << k) for k in range(depth, n))

    def test(rows: np.ndarray, k: int) -> np.ndarray | None:
        return _aut_level(rows, ms, levels[k]) if levels[k] else None

    count = 0
    first = None
    for rows in _walk(n, depth, test):
        if levels[depth]:
            counted = _aut_every_row(rows, ms, levels[depth])
        else:
            counted = np.ones(len(rows), dtype=bool)
        count += int(np.count_nonzero(counted)) * per
        if first is None and len(hit := np.flatnonzero(counted & ~_blta_alive(rows, profile))):
            # the first counted prefix outside BLTA, completed by the least
            # row outside the span at each step
            r = rows[hit[:1]]
            for _ in range(depth, n):
                r = _gl_extend(r, _outside_span(r, n))[:1]
            first = tuple(r[0].tolist())
    return count, first


def _sweep_key(ms: MonomialSet) -> tuple[int, int, int]:
    """(highest level, lowest level, count) of the members `_sweep` tests
    on ms; (-1, n, 0) when it tests none."""
    levels = [f.bit_length() - 1 for f in _members_to_test(ms)]
    return max(levels, default=-1), min(levels, default=ms.n), len(levels)


@functools.lru_cache(maxsize=4096)
def _cheaper_side(ms: MonomialSet) -> MonomialSet:
    """The side `verify_blta_completeness` sweeps for a decreasing ms:
    its dual if that side's key is smaller, else ms itself (a tie keeps
    ms).  See "Dual side" in the module docstring."""
    full = (1 << ms.n) - 1
    dual = MonomialSet(ms.n, frozenset(full ^ m for m in range(1 << ms.n) if m not in ms.masks))
    return dual if _sweep_key(dual) < _sweep_key(ms) else ms


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking that the enumerated group is exactly BLTA."""

    code: str
    n: int
    K: int
    profile: tuple[int, ...]
    aut_count: int
    blta_count: int
    passed: bool
    counterexample: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        out = {
            "code": self.code,
            "n": self.n,
            "K": self.K,
            "profile": list(self.profile),
            "aut_count": self.aut_count,
            "blta_count": self.blta_count,
            "pass": self.passed,
        }
        if self.counterexample is not None:
            out["counterexample"] = list(self.counterexample)
        return out


def verify_blta_completeness(ms: MonomialSet, code_id: str = "") -> TheoremReport:
    """Exhaustively verify BLTA(profile) == affine automorphisms of ms.

    Sweeps all of GL(n,2), pruned level by level, and checks both
    directions at once: every automorphism found must lie in the block
    group (zero pattern), and their count must equal the block group's
    linear order.  The sweep walks the cheaper of ms and its dual code
    (`_cheaper_side`), whose automorphism group, and so whose count and
    first counterexample, are those of ms.  Raises ValueError if ms is
    not decreasing (`block_profile`, checked before the side is chosen)
    or n is outside 1..5 (`gf2._check_enum_n`).
    """
    n = ms.n
    profile = block_profile(ms)
    count, counterexample = _sweep(_cheaper_side(ms), profile)
    expected = blta_order(profile)
    return TheoremReport(
        code=code_id or f"n={n},K={len(ms)}",
        n=n,
        K=len(ms),
        profile=profile,
        aut_count=count,
        blta_count=expected,
        passed=(counterexample is None and count == expected),
        counterexample=counterexample,
    )


# ---------------------------------------------------------------------------
# witness procedures


@dataclass(frozen=True)
class WitnessStep:
    """One extension of the tracked nonsingular minor."""

    target_col: int
    new_row: int
    helper_col: int
    op: dict | None
    minor_rows: tuple[int, ...]
    minor_cols: tuple[int, ...]


@dataclass(frozen=True)
class MonomialWitness:
    """Why the transposed image of one member monomial stays a member."""

    monomial: int
    case: int | str
    target: int
    source: int | None = None
    steps: tuple[WitnessStep, ...] = ()


@dataclass(frozen=True)
class WitnessTrace:
    n: int
    i: int
    matrix: tuple[int, ...]
    entries: tuple[MonomialWitness, ...]
    swap_preserves_set: bool

    def operations(self) -> list[dict]:
        return [s.op for e in self.entries for s in e.steps if s.op is not None]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "i": self.i,
            "matrix": list(self.matrix),
            "entries": [asdict(e) for e in self.entries],
            "operations": self.operations(),
            "swap_preserves_set": self.swap_preserves_set,
        }


def _bits(mask: int) -> list[int]:
    return [k for k in range(mask.bit_length()) if (mask >> k) & 1]


def _witness_chain(a: BitMatrix, ms: MonomialSet, i: int, f: int):
    """Grow a nonsingular minor pairing rows {s_*, i} with columns
    {vars(f) minus i, i+1}, applying column additions when needed.

    Processes the other variables of f in ascending order; for each
    target column v the new row comes from [0, v] and the helper column
    from [v, n-1], exactly the ranges the rank bound guarantees.  Every
    elementary operation is re-verified to keep the matrix inside the
    automorphism group, and every claimed rank bound is recomputed.
    """
    n = ms.n
    work = a
    rows = [i]
    cols = [i + 1]
    steps: list[WitnessStep] = []
    ctx = {"monomial": f, "i": i, "matrix": list(a.row_masks)}

    for v in sorted(k for k in _bits(f) if k != i):
        d_rows = sorted(set(range(v + 1)) | {i})
        d_cols = sorted(set(cols) | set(range(v, n)))
        bound = len(rows) + 1
        got = work.submatrix(d_rows, d_cols).rank()
        _require(got >= bound, "rank bound violated",
                 **ctx, target_col=v, rank=got, needed=bound)

        # the direct pivots (s, v) first, then (s, t) reached by adding t to v
        row_pool = [s for s in range(v + 1) if s not in rows]
        col_pool = [t for t in range(v + 1, n) if t not in cols]
        candidates = [(s, v) for s in row_pool] + [(s, t) for s in row_pool for t in col_pool]
        chosen = next(((s, c) for s, c in candidates
                       if work.minor_det(rows + [s], cols + [c]) == 1), None)
        _require(chosen is not None, "no admissible minor extension exists",
                 **ctx, target_col=v)
        s, helper = chosen
        op = None
        if helper != v:
            op = {"op": "addcol", "src": helper, "dst": v}
            work = work.add_column(helper, v)
            _require(
                work.minor_det(rows + [s], cols + [v]) == 1,
                "column addition did not restore independence",
                **ctx, target_col=v, helper_col=helper,
            )
            _require(_preserves(work.row_masks, 0, ms),
                     "column addition left the automorphism group", **ctx, op=op)
        rows.append(s)
        cols.append(v)
        steps.append(WitnessStep(v, s, helper, op, tuple(rows), tuple(cols)))

    return steps, work, rows, cols


def _check_entry(t: AffineMap, ms: MonomialSet, i: int, j: int) -> None:
    """Both witness entry points' preconditions: ms is decreasing and t is
    an automorphism of it with a 1 at (i, j), 0 <= i < j < n."""
    n = ms.n
    if not is_decreasing(ms):
        raise ValueError("monomial set is not decreasing")
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < {n}, got ({i}, {j})")
    if t.n != n:
        raise ValueError(f"matrix is {t.n}x{t.n} but the code has n={n}")
    if t.a[i, j] != 1:
        raise ValueError(f"entry ({i}, {j}) must be 1")
    if not is_affine_automorphism(t, ms):
        raise ValueError("map is not an automorphism of the code")


def transposition_witness(a: BitMatrix, ms: MonomialSet, i: int) -> WitnessTrace:
    """Constructive check that the swap of x_i and x_{i+1} preserves ms,
    given an automorphism whose matrix has a 1 at (i, i+1).

    Each member monomial is handled the way the divide-and-conquer proof
    does: unchanged monomials and downward moves need only the partial
    order; monomials containing x_i but not x_{i+1} get a minor-growing
    chain whose final nonsingular minor certifies, via the substitution
    coefficient, that the swapped monomial appears in the image of a
    dominated member.  Raises FalsificationError if any step invariant
    fails, ValueError on precondition violations.
    """
    _check_entry(AffineMap.from_linear(a), ms, i, i + 1)
    return _adjacent_witness(a, ms, i)


def _adjacent_witness(a: BitMatrix, ms: MonomialSet, i: int) -> WitnessTrace:
    """`transposition_witness` on inputs that already meet `_check_entry`."""
    n = ms.n
    entries = []
    for f in sorted(ms.masks):
        has_i = (f >> i) & 1
        has_next = (f >> (i + 1)) & 1
        target = swap_variables(f, i, i + 1)
        if has_i == has_next:
            entries.append(MonomialWitness(f, "fixed", target))
            continue
        if has_next:
            # x_{i+1} -> x_i moves an index down; decreasingness suffices
            _require(leq(target, f), "downward swap is not dominated",
                     monomial=f, i=i)
            _require(target in ms.masks, "downward swap left the set",
                     monomial=f, i=i)
            entries.append(MonomialWitness(f, "decreasing", target))
            continue

        vars_f = _bits(f)
        pos = vars_f.index(i)
        case = 1 if pos == len(vars_f) - 1 else (2 if pos == 0 else 3)
        steps, work, rows, cols = _witness_chain(a, ms, i, f)

        source = 0
        for r in rows:
            source |= 1 << r
        built = 0
        for c in cols:
            built |= 1 << c
        ctx = {"monomial": f, "i": i, "case": case}
        _require(built == target, "chain columns do not form the swapped monomial", **ctx)
        _require(leq(source, f), "source monomial is not dominated", **ctx, source=source)
        _require(source in ms.masks, "source monomial left the set", **ctx, source=source)
        _require(
            substitution_coefficient(work, rows, cols) == 1,
            "target coefficient vanishes", **ctx,
        )
        image = _support(_map_tables(work.row_masks, 0, n), source, n)  # by row index
        _require((image >> monomial_index(target, n)) & 1,
                 "target missing from the image support", **ctx)
        _require(not image & ~_by_row(ms),
                 "image support escapes the set despite group membership", **ctx)
        _require(target in ms.masks, "swapped monomial is not a member", **ctx)
        entries.append(MonomialWitness(f, case, target, source, tuple(steps)))

    # the swap renames each monomial, so it preserves ms iff it maps ms into ms
    swap_ok = all(swap_variables(f, i, i + 1) in ms.masks for f in ms.masks)
    _require(swap_ok, "per-monomial results contradict the set-level swap", i=i)
    return WitnessTrace(n, i, a.row_masks, tuple(entries), swap_ok)


@dataclass(frozen=True)
class ReductionTrace:
    i: int
    j: int
    fill_ops: tuple[dict, ...]
    filled_matrix: tuple[int, ...]
    witnesses: tuple[WitnessTrace, ...]
    swap_preserves_set: bool

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "fill_ops": list(self.fill_ops),
            "filled_matrix": list(self.filled_matrix),
            "witnesses": [w.to_json() for w in self.witnesses],
            "swap_preserves_set": self.swap_preserves_set,
        }


def transposition_reduction_trace(
    t: AffineMap, ms: MonomialSet, i: int, j: int
) -> ReductionTrace:
    """Reduce "entry (i, j) is 1 in some automorphism" to adjacent swaps.

    Strips the translation, fills every superdiagonal entry between i and
    j with row/column additions by lower-triangular elementaries (staying
    inside the group, re-verified per operation), runs the adjacent swap
    witness for each k in [i, j), and finally checks the (i, j) variable
    swap itself.
    """
    _check_entry(t, ms, i, j)
    work = t.a  # composing with the translation (I, b) removes b
    _require(_preserves(work.row_masks, 0, ms),
             "linear part alone is not an automorphism", matrix=list(work.row_masks))
    ops: list[dict] = []

    def apply(new: BitMatrix, op: dict) -> BitMatrix:
        _require(_preserves(new.row_masks, 0, ms),
                 "elementary operation left the automorphism group",
                 op=op, matrix=list(new.row_masks))
        ops.append(op)
        return new

    # step k writes only column k+1 < j and row k > i, so (i, j) and earlier fills stay 1
    for k in range(i, j):
        if work[k, k + 1] == 0 and work[i, k + 1] == 0:
            work = apply(work.add_column(j, k + 1), {"op": "addcol", "src": j, "dst": k + 1})
        if work[k, k + 1] == 0:
            work = apply(work.add_row(i, k), {"op": "addrow", "src": i, "dst": k})
        _require(work[k, k + 1] == 1, "superdiagonal fill failed", k=k)

    # the fill and `apply` have proved the core's inputs: no `_check_entry`
    witnesses = tuple(_adjacent_witness(work, ms, k) for k in range(i, j))

    # adjacent swaps generate the symmetric group on [i, j], so (i, j)
    # itself must preserve the set; check it directly
    swap_ok = all(swap_variables(f, i, j) in ms.masks for f in ms.masks)
    _require(swap_ok, "variable swap (i, j) does not preserve the set", i=i, j=j)
    return ReductionTrace(i, j, tuple(ops), work.row_masks, witnesses, swap_ok)


# ---------------------------------------------------------------------------
# batteries of test codes


def all_decreasing_sets(n: int) -> list[MonomialSet]:
    """Every down-closed monomial set, by brute force (n <= 3)."""
    if n > 3:
        raise ValueError(f"full down-set enumeration refused for n={n}")
    out = []
    for bits in range(1 << (1 << n)):
        ms = MonomialSet(
            n, frozenset(m for m in range(1 << n) if (bits >> m) & 1)
        )
        if is_decreasing(ms):
            out.append(ms)
    return out


def random_decreasing_set(n: int, rng: random.Random) -> MonomialSet:
    """Downward closure of one to three uniform generator monomials."""
    gens = frozenset(rng.randrange(1 << n) for _ in range(rng.randint(1, 3)))
    return decreasing_closure(MonomialSet(n, gens))


def random_witness_instance(
    n: int, rng: random.Random
) -> tuple[MonomialSet, BitMatrix, int]:
    """A decreasing set, a sampled automorphism linear part, and an index
    i such that the block profile merges i with i+1 and the sampled
    matrix has a 1 at (i, i+1).  Needs n >= 2, so that such an i exists."""
    if n < 2:
        raise ValueError(f"a witness instance needs n >= 2, got n={n}")
    while True:
        ms = random_decreasing_set(n, rng)
        profile = block_profile(ms)
        pairs = [i for i, cols in enumerate(_blta_allowed(profile)) if cols >> (i + 1) & 1]
        if not pairs:
            continue
        i = rng.choice(pairs)
        for _ in range(64):
            a = sample_blta(profile, rng).a
            if a[i, i + 1] == 1:
                return ms, a, i
