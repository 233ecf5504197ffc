"""Exhaustive affine automorphism groups of decreasing monomial codes.

`verify_blta_completeness` is the one exhaustive sweep: it scans all of
GL(n,2) (n <= 5), filters it down to the affine automorphisms of a code,
and checks the central claim of this package: the group equals the block
lower-triangular affine group of the code's profile.  The adjacent
transposition argument behind that equality is implemented as a witness
procedure that performs and re-verifies every elementary step, so a
violated invariant surfaces as a falsification candidate instead of a
wrong answer.

Only linear parts (b = 0) are enumerated: every translation is an
automorphism of a decreasing code, so (A, b) is an automorphism exactly
when (A, 0) is, and all counts below are counts of linear parts.
"""

from __future__ import annotations

import functools
import random
from dataclasses import asdict, dataclass
from multiprocessing import Pool
from collections.abc import Sequence

import numpy as np

from .gf2 import BitMatrix, _gl_rows_array
from .affine import (
    AffineMap,
    _blta_allowed,
    _form_table,
    _masks_desc,
    _support,
    _swap_preserves,
    block_profile,
    blta_order,
    is_affine_automorphism,
    sample_blta,
    substitution_coefficient,
    swap_variables,
    transform_monomial_support,
)
from .monomial import (
    MonomialSet,
    decreasing_closure,
    is_decreasing,
    leq,
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

_CHUNK = 1 << 12  # fixed chunk boundaries keep results independent of --jobs


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


@functools.lru_cache(maxsize=None)
def _form_lut(n: int) -> np.ndarray:
    """Truth tables of all 2^n linear forms, indexed by row mask, in the
    narrowest unsigned dtype that holds 2^n bits."""
    if (1 << n) > 64:
        raise ValueError(f"batched truth tables need n <= 6 (2^n bits per word), got n={n}")
    lut = np.array([_form_table(r, n) for r in range(1 << n)], dtype=f"u{max(1, (1 << n) // 8)}")
    lut.setflags(write=False)
    return lut


def _aut_alive(rows: np.ndarray, masks_desc: Sequence[int], m_int: int, n: int) -> np.ndarray:
    """Boolean mask of the matrices (rows of row masks) whose action
    keeps every monomial's support inside the set m_int."""
    lut = _form_lut(n)
    tabs = [lut[rows[:, m]] for m in range(n)]
    not_m = ~m_int & ((1 << (1 << n)) - 1)
    alive = np.ones(len(rows), dtype=bool)
    for mask in masks_desc:
        alive &= (_support(tabs, mask, n) & not_m) == 0
        if not alive.any():
            break
    return alive


def _blta_alive(rows: np.ndarray, profile: Sequence[int]) -> np.ndarray:
    ok = np.ones(len(rows), dtype=bool)
    for m, allowed in enumerate(_blta_allowed(profile)):
        ok &= (rows[:, m] & ~np.uint8(allowed & 0xFF)) == 0
    return ok


def _sweep_chunk(args) -> tuple[int, tuple[int, ...] | None]:
    """Automorphism count of one chunk of the GL(n,2) table, and the
    chunk's first automorphism outside BLTA(profile), if any."""
    n, lo, hi, masks_desc, m_int, profile = args
    rows = _gl_rows_array(n)[lo:hi]
    alive = _aut_alive(rows, masks_desc, m_int, n)
    count = int(alive.sum())
    if count:
        idx = np.nonzero(alive & ~_blta_alive(rows, profile))[0]
        if len(idx):
            return count, tuple(int(x) for x in rows[idx[0]])
    return count, None


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


def verify_blta_completeness(
    ms: MonomialSet, code_id: str = "", jobs: int = 1
) -> TheoremReport:
    """Exhaustively verify BLTA(profile) == affine automorphisms of ms.

    Scans all of GL(n,2) in fixed chunks and checks both directions at
    once: every automorphism found must lie in the block group (zero
    pattern), and their count must equal the block group's linear order.
    Raises ValueError if ms is not decreasing (`block_profile`) or n is
    outside 1..5 (`gf2._gl_rows_array`).
    """
    n = ms.n
    profile = block_profile(ms)
    order = len(_gl_rows_array(n))  # built before forking so workers share it
    masks_desc = _masks_desc(ms)
    m_int = ms.as_int()
    args = [
        (n, lo, min(lo + _CHUNK, order), masks_desc, m_int, profile)
        for lo in range(0, order, _CHUNK)
    ]
    if jobs > 1 and len(args) > 1:
        with Pool(jobs) as pool:
            results = pool.map(_sweep_chunk, args)
    else:
        results = [_sweep_chunk(a) for a in args]
    count = sum(r[0] for r in results)
    counterexample = next((r[1] for r in results if r[1] is not None), None)
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

        row_pool = [s for s in range(v + 1) if s not in rows]
        chosen = None
        for s in row_pool:
            if work.minor_det(rows + [s], cols + [v]) == 1:
                chosen = (s, v, None)
                break
        if chosen is None:
            col_pool = [t for t in range(v + 1, n) if t not in cols]
            for s in row_pool:
                for t in col_pool:
                    if work.minor_det(rows + [s], cols + [t]) == 1:
                        new = work.add_column(t, v)
                        _require(
                            new.minor_det(rows + [s], cols + [v]) == 1,
                            "column addition did not restore independence",
                            **ctx, target_col=v, helper_col=t,
                        )
                        _require(
                            is_affine_automorphism(AffineMap.from_linear(new), ms),
                            "column addition left the automorphism group",
                            **ctx, op={"op": "addcol", "src": t, "dst": v},
                        )
                        work = new
                        chosen = (s, t, {"op": "addcol", "src": t, "dst": v})
                        break
                if chosen is not None:
                    break
        _require(chosen is not None, "no admissible minor extension exists",
                 **ctx, target_col=v)
        s, helper, op = chosen
        rows.append(s)
        cols.append(v)
        steps.append(WitnessStep(v, s, helper, op, tuple(rows), tuple(cols)))

    return steps, work, rows, cols


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
    n = ms.n
    if not is_decreasing(ms):
        raise ValueError("monomial set is not decreasing")
    if not 0 <= i < n - 1:
        raise ValueError(f"need 0 <= i < {n - 1}, got {i}")
    if a.rows != n or a.cols != n:
        raise ValueError(f"matrix is {a.rows}x{a.cols} but the code has n={n}")
    if a[i, i + 1] != 1:
        raise ValueError(f"entry ({i}, {i + 1}) must be 1")
    if not is_affine_automorphism(AffineMap.from_linear(a), ms):
        raise ValueError("matrix is not an automorphism of the code")

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
        _require(work.minor_det(rows, cols) == 1, "final minor is singular", **ctx)
        _require(
            substitution_coefficient(work, rows, cols) == 1,
            "target coefficient vanishes", **ctx,
        )
        image = transform_monomial_support(source, AffineMap.from_linear(work))
        _require(target in image.masks, "target missing from the image support", **ctx)
        _require(
            image.masks <= ms.masks,
            "image support escapes the set despite group membership", **ctx,
        )
        _require(target in ms.masks, "swapped monomial is not a member", **ctx)
        entries.append(MonomialWitness(f, case, target, source, tuple(steps)))

    swap_ok = _swap_preserves(ms, i, i + 1)
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

    work = t.a  # composing with the translation (I, b) removes b
    _require(
        is_affine_automorphism(AffineMap.from_linear(work), ms),
        "linear part alone is not an automorphism",
        matrix=list(work.row_masks),
    )
    ops: list[dict] = []

    def apply(new: BitMatrix, op: dict) -> BitMatrix:
        _require(
            is_affine_automorphism(AffineMap.from_linear(new), ms),
            "elementary operation left the automorphism group",
            op=op, matrix=list(new.row_masks),
        )
        ops.append(op)
        return new

    for k in range(i, j):
        if work[k, k + 1] == 1:
            continue
        if work[i, k + 1] == 0:
            # k + 1 < j here: at k = j - 1 the entry (i, j) is already 1
            _require(k + 1 < j, "column fill would target its own source", k=k)
            work = apply(work.add_column(j, k + 1), {"op": "addcol", "src": j, "dst": k + 1})
        if k > i:
            work = apply(work.add_row(i, k), {"op": "addrow", "src": i, "dst": k})
        _require(work[k, k + 1] == 1, "superdiagonal fill failed", k=k)

    witnesses = tuple(transposition_witness(work, ms, k) for k in range(i, j))

    # adjacent swaps generate the symmetric group on [i, j], so (i, j)
    # itself must preserve the set; check it directly
    swap_ok = _swap_preserves(ms, i, j)
    _require(swap_ok, "variable swap (i, j) does not preserve the set", i=i, j=j)
    perm_rows = list(BitMatrix.identity(n).row_masks)
    perm_rows[i], perm_rows[j] = perm_rows[j], perm_rows[i]
    _require(
        is_affine_automorphism(AffineMap.from_linear(BitMatrix(perm_rows, n)), ms),
        "swap permutation matrix fails the membership test", i=i, j=j,
    )
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
