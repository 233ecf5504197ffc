"""Successive cancellation decoding, the permuted-ensemble decoder, and
the Monte Carlo channel harness.

LLR sign convention: positive means bit 0 is more likely.  The check
node uses the min-sum rule (bit-exact and platform independent), the
variable node uses g(a, b, u) = b + (1 - 2u) a, and an LLR of exactly 0
decodes to bit 0, so every decoding path is deterministic.  Erasure
channels use +-1000.0 as the certainty sentinel and exactly 0.0 for an
erasure.  Every frame enters the decoders through _bounded, which
rejects a NaN or +-inf and scales a frame of LLRs near the float maximum
by a power of two, so that no value the decoders form overflows.

Internally everything is positions-major: codewords and LLR blocks are
(N, frames) arrays, so that the encoder's XOR passes and the decoder's
f/g steps work on contiguous row blocks.  The Monte Carlo frames call
each channel's public `llrs` on a slab of whole frames at a time, so
the noise is drawn frames-major in the order one (frames, N) draw makes,
and write each slab transposed into the decoder's block.  The ensemble
decoder gathers every member's candidate from the SC output, through the
members' inverse permutations, into one (N, members, frames) array, and
scores them frames-major in slabs of frames.  The Monte Carlo loop runs
SC once per right H-coset of the members, which decode alike: H is the
lower-triangular affine (LTA) group widened by GL on each block of the
code's BLTA profile whose nodes min-sum SC decodes symmetrically
(_absorption), so one decode serves a class of LTA cosets.  It decodes
again under the other members only the frames in which that argument
fails: those in which the SC kernel saw a decision read an exact 0.0,
or an absorbed sum whose sign another order of its additions could
change.  It scores only those frames and the ones whose decoded
candidates differ.  Each step of the decoding plan names the sum its
decision certifies: the size of the node whose input it sums inside an
absorbed block, or 0 (_plan).  Plain SC is the empty ensemble; with no
coset but the identity's, SC decodes the channel's block in place.  The decoders work on batches; the public single-frame
entry points wrap a batch of one, and the public channel and encoding
helpers keep frames-major (..., N) arrays.  The encoding helpers take
only entries equal to 0 or 1.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass
from collections.abc import Iterator, Sequence

import numpy as np

from .affine import AffineMap, _blocks, block_profile, induced_permutation
from .monomial import CodeSpec

__all__ = [
    "CERTAIN_LLR",
    "BecChannel",
    "AwgnBpskChannel",
    "DecodeResult",
    "polar_transform",
    "polar_encode",
    "extract_info",
    "is_codeword",
    "sc_decode",
    "ae_decode",
    "correlation_score",
    "InvarianceReport",
    "sc_invariance_check",
    "SimulationResult",
    "simulate_bler",
    "wilson_interval",
]

CERTAIN_LLR = 1000.0


@dataclass(frozen=True)
class BecChannel:
    """Binary erasure channel; erased positions get LLR exactly 0."""

    erasure_prob: float

    def __post_init__(self):
        if not 0.0 <= self.erasure_prob < 1.0:
            raise ValueError(f"erasure probability {self.erasure_prob} not in [0, 1)")

    @property
    def param_value(self) -> float:
        return self.erasure_prob

    def llrs(self, x: np.ndarray, rng: np.random.Generator, rate: float) -> np.ndarray:
        """Float64 LLRs of the bits x, in a new C-contiguous array of x's shape."""
        # (1 - 2x) * CERTAIN_LLR built in place as CERTAIN_LLR - 2x *
        # CERTAIN_LLR, which is exact for bits; the erasures are one draw
        out = np.empty(x.shape)
        np.multiply(x, -2.0 * CERTAIN_LLR, out=out, dtype=np.float64)
        out += CERTAIN_LLR
        np.copyto(out, 0.0, where=rng.random(x.shape) < self.erasure_prob)
        return out


@dataclass(frozen=True)
class AwgnBpskChannel:
    """BPSK over AWGN at a given Eb/N0; LLR = 2y / sigma^2."""

    ebn0_db: float

    def __post_init__(self):
        if not math.isfinite(self.ebn0_db):
            raise ValueError(f"Eb/N0 must be finite, got {self.ebn0_db} dB")

    @property
    def param_value(self) -> float:
        return self.ebn0_db

    def noise_sigma(self, rate: float) -> float:
        """Noise standard deviation at code rate `rate`.  Raises ValueError
        unless sigma and the LLR scale 2 / sigma^2 are finite and positive
        (a rate-0 code or an extreme Eb/N0 has no such sigma)."""
        try:
            esn0 = rate * 10.0 ** (self.ebn0_db / 10.0)
            sigma = math.sqrt(1.0 / (2.0 * esn0))
            scale = 2.0 / (sigma * sigma)
        except (OverflowError, ZeroDivisionError):
            scale = math.nan
        if not 0.0 < scale < math.inf:
            raise ValueError(f"Eb/N0 {self.ebn0_db} dB at rate {rate} gives no finite, positive noise sigma")
        return sigma

    def llrs(self, x: np.ndarray, rng: np.random.Generator, rate: float) -> np.ndarray:
        """Float64 LLRs of the bits x, in a new C-contiguous array of x's shape."""
        sigma = self.noise_sigma(rate)
        # 2 ((1 - 2x) + rng.normal(0, sigma)) / sigma^2 in place: normal(0, s)
        # is 0 + s * standard_normal, so the draws and every LLR are the same
        out = np.empty(x.shape)
        rng.standard_normal(out=out)
        out *= sigma
        symbols = np.multiply(x, -2.0, dtype=np.float64)
        symbols += 1.0
        out += symbols
        out *= 2.0
        out /= sigma * sigma
        return out


# ---------------------------------------------------------------------------
# encoding


def _transform(c: np.ndarray) -> np.ndarray:
    """Multiply by H = F^(x)n along axis 0 of a C-contiguous (N, ...) uint8
    array, in place: each XOR pass adds whole row blocks."""
    n_pos = len(c)
    d = 1
    while d < n_pos:
        view = c.reshape((n_pos // (2 * d), 2, d) + c.shape[1:])
        view[:, 0] ^= view[:, 1]
        d *= 2
    return c


def _transposed(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a.T for a 2-D array, copied into out (of a.T's shape) or into a new
    C-contiguous array, in slabs of 64 rows: a whole-array copy that reads
    a with a stride of one row per element runs several times slower once
    the rows are a few kB long."""
    if out is None:
        out = np.empty(a.shape[::-1], dtype=a.dtype)
    for lo in range(0, len(a), 64):
        out[:, lo:lo + 64] = a[lo:lo + 64].T
    return out


def _bits(u: Sequence[int] | np.ndarray) -> np.ndarray:
    """u as a uint8 array; ValueError unless every entry equals 0 or 1 (a
    cast alone would turn 2 into a 0 bit, 0.5 into 0 and -1 into 255)."""
    u = np.asarray(u)
    if not ((u == 0) | (u == 1)).all():
        raise ValueError("bits must be 0 or 1")
    return u.astype(np.uint8, copy=False)


def polar_transform(u: np.ndarray) -> np.ndarray:
    """Multiply bit rows by H = F^(x)n along the last axis (self-inverse);
    returns a new C-contiguous uint8 array."""
    u = _bits(u)
    n_pos = u.shape[-1] if u.ndim else 0
    if n_pos < 1 or n_pos & (n_pos - 1):
        raise ValueError(f"bit rows of shape {u.shape}: the length is not a power of two")
    rows = u.reshape(-1, n_pos)
    return _transposed(_transform(_transposed(rows))).reshape(u.shape)


@functools.lru_cache(maxsize=32)
def _info_mask(spec: CodeSpec) -> np.ndarray:
    """Read-only boolean mask of the information rows of a code."""
    mask = np.zeros(spec.N, dtype=bool)
    mask[list(spec.row_indices())] = True
    mask.flags.writeable = False
    return mask


def _encode(u: np.ndarray, spec: CodeSpec) -> np.ndarray:
    """Positions-major codewords (N, ...) of (..., K) info bits: scatter
    into the information rows, then apply the transform."""
    u = np.asarray(u, dtype=np.uint8)
    if u.shape[-1:] != (spec.K,):
        raise ValueError(f"expected {spec.K} info bits, got shape {u.shape}")
    x = np.zeros((spec.N,) + u.shape[:-1], dtype=np.uint8)
    x[_info_mask(spec)] = np.moveaxis(u, -1, 0)
    return _transform(x)


def polar_encode(u: Sequence[int] | np.ndarray, spec: CodeSpec) -> np.ndarray:
    """Codewords (..., N) of (..., K) info bits."""
    x = _encode(_bits(u), spec)
    return _transposed(x.reshape(spec.N, -1)).reshape(x.shape[1:] + (spec.N,))


def _inverse(x: np.ndarray, spec: CodeSpec) -> np.ndarray:
    """u (..., N) with u H = x, for words x (..., N) of spec's length N."""
    if np.shape(x)[-1:] != (spec.N,):
        raise ValueError(f"expected {spec.N} code bits, got shape {np.shape(x)}")
    return polar_transform(x)


def extract_info(codeword: np.ndarray, spec: CodeSpec) -> np.ndarray:
    """Info bits of a codeword (the transform is its own inverse)."""
    return _inverse(codeword, spec)[..., _info_mask(spec)]


def is_codeword(x: np.ndarray, spec: CodeSpec) -> bool:
    return not _inverse(x, spec)[..., ~_info_mask(spec)].any()


# ---------------------------------------------------------------------------
# successive cancellation
#
# The kernel walks a plan of the code tree that decodes whole subtrees in
# one step (Alamdar-Yazdi & Kschischang, IEEE Comm. Letters 2011; Sarkis
# et al., IEEE JSAC 2014): a rate-0 node is all zeros, a repetition node
# (only its last leaf carries information) sums its LLRs in SC's own order
# and repeats the sign, a rate-1 node takes the hard decision.  Each gives
# bit for bit what min-sum SC gives, rate-1 only on rows without an exact
# 0.0 LLR, so those rows are decoded again as two rate-1 halves.  A node
# whose left child is rate-0 skips f, whose LLRs nothing would read, and
# takes g with u = 0 at once.  SPC nodes are left out: their usual decoder
# is ML, which is not SC.

_F, _G, _G0, _XOR, _REP, _RATE1 = range(6)
_Plan = tuple[tuple[int, int, int, int], ...]


@functools.lru_cache(maxsize=32)
def _plan(spec: CodeSpec) -> _Plan:
    """Steps (op, lo, size, cert) over the pruned tree of the code's
    information mask, in decoding order.  Rate-0 nodes have none: the
    codeword starts at 0.  cert is the size S of the node whose input a
    repetition or rate-1 decision sums inside an absorbed block, whose
    sign _sc_batch certifies when it flags frames, and 0 for every other
    step.

    An absorbed block x_a..x_c of _absorption(spec) has nodes of size
    S = 2^(c+1) and 2^a classes of the low bits.  A repetition step of
    size S or more gets the largest such S, and the rate-1 step that ends
    an interleaved repetition node, the node's last 2^a positions
    (size = 2^a > 1 and lo % S = S - 2^a), gets S.  Those are the sums
    whose additions a G step of _shared_block reorders.  A repetition step
    first adds, down to node(S), rows that differ in a higher bit,
    elementwise, which G permutes alike, and then sums node(S)'s S rows
    in a tree log2(S) deep whose leaves G permutes.  An interleaved
    repetition node sums each class of node(S)'s input in G0 steps, a
    tree log2(S) - a deep, and the rate-1 step decides each class sum.
    G of a smaller absorbed block permutes node(S)'s rows too, so the
    largest S covers every block.  _shared_block's G step shows that the
    other kinds of _absorbed need no certificate."""
    mask = _info_mask(spec).tobytes()
    # (S, 2^a) of each absorbed block x_a..x_c, S = 2^(c+1), S ascending
    absorbed = [(2 << (a + s - 1), 1 << a) for a, s in _blocks(_absorption(spec)) if s > 1]
    plan = []

    def walk(lo: int, size: int) -> None:
        node = mask[lo:lo + size]
        if not any(node):
            return
        if all(node):
            cert = next((S for S, low in absorbed if size == low > 1 and lo % S == S - low), 0)
            plan.append((_RATE1, lo, size, cert))
        elif not any(node[:-1]):
            plan.append((_REP, lo, size, max((S for S, _ in absorbed if S <= size), default=0)))
        else:
            h = size // 2
            if any(node[:h]):
                plan.append((_F, lo, h, 0))
                walk(lo, h)
                plan.append((_G, lo, h, 0))
            else:
                plan.append((_G0, lo, h, 0))
            walk(lo + h, h)
            plan.append((_XOR, lo, h, 0))

    walk(0, len(mask))
    return tuple(plan)


def _absorbed(mask: np.ndarray, size: int, low: int) -> bool:
    """Whether every node of this size of an information mask is rate-0,
    rate-1, repetition, single parity check, or a repetition or single
    parity check interleaved over the `low` classes of the low bits
    (positions with equal bits below log2(low)): the nodes on which
    min-sum SC is symmetric under a permutation that keeps each class."""
    i = np.arange(size)
    kinds = np.array([i < 0, i >= 0, i == size - 1, i >= 1, i >= size - low, i >= low])
    return bool((mask.reshape(-1, 1, size) == kinds).all(axis=2).any(axis=1).all())


@functools.lru_cache(maxsize=32)
def _absorption(spec: CodeSpec) -> tuple[int, ...]:
    """The block profile of H, the group whose right cosets decode alike
    (_shared_block).  A block x_a..x_c of the code's BLTA profile, two
    variables or more, is absorbed when _absorbed holds for its nodes, of
    size 2^(c+1), with 2^a classes; H is BLTA of the profile split into
    single variables except at the absorbed blocks.  So H = LTA when no
    block is absorbed, as for a code whose profile is all 1s, or one that
    is not decreasing."""
    if not spec.is_decreasing():
        return (1,) * spec.n
    mask = _info_mask(spec)
    profile = []
    for a, s in _blocks(block_profile(spec.monomials)):
        profile += [s] if s > 1 and _absorbed(mask, 2 << (a + s - 1), 1 << a) else [1] * s
    return tuple(profile)


# f and g steps run over slabs of whole rows holding at most this many
# LLRs (128 kB of float64), so that each slab goes through all of its
# passes while it is in cache; a step no larger than one slab is one slab
_TILE = 1 << 14

# Each thread keeps one grow-only float64 buffer for the kernel's LLRs, so
# that steady-state decoding maps no fresh pages: freeing and re-allocating
# megabytes of temporaries at every step makes the allocator hand pages
# back to the system and fault them in again.  A buffer above _BLOCK_LLRS
# LLRs is not kept, so a thread retains at most 8 MB.
_local = threading.local()


def _workspace(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) float64 buffer: a view of this thread's retained
    buffer, or a fresh array when it would exceed _BLOCK_LLRS LLRs."""
    need = rows * cols
    if need > _BLOCK_LLRS:
        return np.empty((rows, cols))
    buf = getattr(_local, "work", None)
    if buf is None or len(buf) < need:
        buf = _local.work = np.empty(need)
    return buf[:need].reshape(rows, cols)


def _g(a: np.ndarray, b: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """g = b + (1 - 2u) a into out, in three passes: a with its sign bit
    flipped where the bit u is 1 is (1 - 2u) a exactly."""
    bits = out.view(np.uint64)
    np.left_shift(u, 63, out=bits, dtype=np.uint64)
    np.bitwise_xor(bits, a.view(np.uint64), out=bits)
    out += b


def _sum_bound(terms: np.ndarray) -> np.ndarray:
    """A bound b, one per column (or per column and class, for terms of
    shape (rows, classes, batch)), such that a sum s of the terms computed
    by any tree of additions depth = log2(rows) deep, as the kernel's sum
    in halves is, with |s| > b has the sign of the exact sum, and so does
    every other such sum of the same terms.

    Proof.  Let T be the exact sum of |terms| and u = 2^-53.  Each addition
    rounds its result by a factor within 1 +- u (exactly, where the result
    is subnormal), so a sum `depth` additions deep is within g T of the
    exact sum, g = depth u / (1 - depth u) (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., sec. 4.2).  If |s| > 2 g T, the exact
    sum is nonzero with s's sign and exceeds g T in magnitude, so every
    other such sum has its sign too.  b is the float sum T' of |terms|
    times k = 2^(ceil(log2 depth) - 50) >= 4 depth 2^-52, at least twice
    2 g T, as T' >= T (1 - 2^-20) for up to 2^33 rows; the power
    of two k makes the product exact unless it is subnormal, where it
    loses at most 2^-1075, less than the margin once T' >= 2^-1024, and
    below that every partial sum is subnormal and exact.  No sum of the
    terms overflows: T' < 2^1020 (_bounded)."""
    depth = len(terms).bit_length() - 1
    return np.abs(terms).sum(axis=0) * 2.0 ** ((depth - 1).bit_length() - 50)


def _flag(undecided: np.ndarray, s: np.ndarray, terms: np.ndarray | None) -> bool:
    """Mark in `undecided` each column of s, rows of decided values, with
    an entry whose sign a decision cannot trust: with no `terms`, an exact
    0.0; given the (rows, len(s), batch) terms that s sums along axis 0, a
    sum no larger in magnitude than their _sum_bound, which another order
    of the same additions could give another sign.  Returns whether no
    column was marked."""
    if terms is None:
        if s.all():
            return True
        ok = s != 0
    else:
        ok = np.abs(s) > _sum_bound(terms)
        if ok.all():
            return True
    undecided |= ~ok.reshape(-1, len(undecided)).all(axis=0)
    return False


def _bounded(llrs: np.ndarray) -> np.ndarray:
    """Frames-major (..., N) float64 LLRs with each frame whose largest
    |LLR| is 2^(1019 - n) or more scaled by a power of two to below that,
    and the others as they are: llrs itself when no frame needs scaling,
    else a new array.  ValueError on a NaN or +-inf.  The common case
    costs one max and one min over the array.  Every frame enters the
    decoders through here (_llr_frame, _frames), and the decoders decode
    and score the scaled frame.  A power of two commutes with every float
    step of min-sum SC while the values stay normal, so the scaled frame
    decides as the frame would in floats of unbounded exponent, unless
    the scaling rounds an LLR that it takes below 2^-1022.

    Proof that then no node value, certified total (_sum_bound) or score
    reaches 2^1020: nothing overflows, and, with finite inputs, nothing
    is a NaN.  Let P = 2^(1019 - n), so every |LLR| < P.  Rounding is
    monotone, so a float sum of j values of magnitude at most B, in any
    order, is at most j B whenever j B is a float, as it is for B a power
    of two times P and j <= N.  The values of a node of size N / 2^d are
    at most 2^d P: f keeps the smaller magnitude of two values of the node
    above it, and g and G0 add two.  A repetition step sums the S values
    of a node of size S, at most (N / S) P each, and _sum_bound sums their
    magnitudes; the re-decode of a rate-1 node of size s runs the same
    steps on its values, at most (N / s) P each; a score sums N terms
    +-llr_i.  Each is at most N P = 2^1019."""
    top = 1019 - (llrs.shape[-1].bit_length() - 1)
    limit = 2.0 ** top
    if llrs.max() < limit and llrs.min() > -limit:  # both are False on a NaN
        return llrs
    peak = np.abs(llrs).max(axis=-1, keepdims=True)
    if not np.isfinite(peak).all():
        raise ValueError("LLRs must be finite (no NaN or +-inf)")
    # peak < 2^e for e = frexp(peak)[1]: scale by 2^(top - e) where e > top
    return np.ldexp(llrs, np.minimum(top - np.frexp(peak)[1], 0))


def _sc_batch(llrs: np.ndarray, plan: _Plan, undecided: np.ndarray | None = None) -> np.ndarray:
    """SC-decode a positions-major (size, batch) LLR block along a plan;
    returns the (size, batch) codewords (their u-vectors are the
    transform of them) in a fresh array.  Given a (batch,) boolean array
    `undecided`, also sets its entry for each column in which a repetition
    or rate-1 decision reads a value _flag cannot trust: an exact 0.0, or,
    for a step whose cert (_plan) is a node size S, a sum of node(S)'s
    input that _flag cannot certify, over all of node(S) for a repetition
    step, over each class of the low bits for the rate-1 end of an
    interleaved repetition node.  The LLRs are finite and bounded
    (_bounded), so nothing overflows.

    Every LLR the kernel computes goes to this thread's (size - 1, batch)
    workspace, addressed by node size alone: node(s), the node of size s,
    owns rows [s - 1, 2s - 1), so sizes ascend from row 0, and the root's
    LLRs are the input.  Writing node(s) overwrites nothing still needed,
    as the nodes on the path to it are all larger.  So at a decision,
    node(cert) still holds the certified sums' terms: a repetition step's
    sums, and the G0 steps before an interleaved rate-1 end, write only
    smaller nodes.

    The re-decode of a rate-1 node of size s with an exact 0.0 LLR shares
    the workspace.  It decodes a copy of k <= batch of the node's columns
    in the first (s - 1) k entries of this thread's buffer.  If this call
    runs in that buffer too, they lie inside rows [0, s - 1), which hold
    only nodes smaller than s, and none of those is live at a leaf."""
    n_pos, batch = llrs.shape
    work = _workspace(n_pos - 1, batch)
    node = {1 << i: work[(1 << i) - 1:(2 << i) - 1] for i in range(n_pos.bit_length() - 1)}
    node[n_pos] = llrs
    x = np.zeros(llrs.shape, dtype=np.uint8)
    rows = max(1, _TILE // batch)  # rows in a slab
    scratch = np.empty((min(rows, n_pos // 2), batch))
    for op, lo, size, cert in plan:
        # F, G and G0 read node(2 size) to write node(size); REP, RATE1 node(size)
        v = node[2 * size] if op <= _G0 else node[size]
        if op == _F:
            # f = max(min(a, b), -max(a, b)): min(|a|, |b|) with the sign
            # of a * b, and no product.  This is sign(a) sign(b) min(|a|, |b|)
            # up to the sign of a zero, which no step reads: decisions test
            # < 0 and == 0, and a zero term in a sum or in g leaves the
            # other term as it is
            a, b, f = v[:size], v[size:], node[size]
            for r in range(0, size, rows):
                fs = f[r:r + rows]
                t = scratch[:len(fs)]
                np.minimum(a[r:r + rows], b[r:r + rows], out=fs)
                np.maximum(a[r:r + rows], b[r:r + rows], out=t)
                np.negative(t, out=t)
                np.maximum(fs, t, out=fs)
        elif op == _G:
            a, b, u, g = v[:size], v[size:], x[lo:lo + size], node[size]
            for r in range(0, size, rows):
                _g(a[r:r + rows], b[r:r + rows], u[r:r + rows], g[r:r + rows])
        elif op == _G0:
            # g after a rate-0 left child, whose u is 0: b + a, exactly
            # what b + 1.0 * a gives; one pass, so nothing to tile
            np.add(v[size:], v[:size], out=node[size])
        elif op == _XOR:
            x[lo:lo + size] ^= x[lo + size:lo + 2 * size]
        else:  # REP and RATE1 decide v; a repetition node first sums to one row
            if op == _REP:  # each partial sum of h rows goes to node(h)
                while len(v) > 1:
                    h = len(v) // 2
                    v = np.add(v[h:], v[:h], out=node[h])
            np.less(v, 0, out=x[lo:lo + size])
            if undecided is None:
                signed = len(v) == 1 or v.all()
            else:
                signed = _flag(undecided, v, node[cert].reshape(-1, len(v), batch) if cert else None)
            if len(v) > 1 and not signed:
                cols = np.flatnonzero((v == 0).any(axis=0))
                if len(cols):
                    h = size // 2
                    halves = ((_F, 0, h, 0), (_RATE1, 0, h, 0), (_G, 0, h, 0), (_RATE1, h, h, 0), (_XOR, 0, h, 0))
                    x[lo:lo + size, cols] = _sc_batch(v[:, cols], halves)
    return x


@dataclass(frozen=True)
class DecodeResult:
    info_bits: np.ndarray
    codeword: np.ndarray
    scores: tuple[float, ...]
    chosen: int


@np.errstate(over="ignore")
def correlation_score(codeword: np.ndarray, llr: np.ndarray) -> float | np.ndarray:
    """sum (1 - 2 x_i) llr_i over the last axis; the ML metric for BPSK and
    permutation consistent up to rounding: score(pi(x), pi(llr)) equals
    score(x, llr) in exact arithmetic, but the permuted terms are summed in
    another order, so the floats can differ in the last bits.  A single
    frame gives a float, leading axes give an array of scores.  Any finite
    or infinite LLRs are scored: a sum that overflows is +-inf, without a
    warning."""
    terms = np.empty(np.broadcast_shapes(np.shape(codeword), np.shape(llr)))
    np.multiply(codeword, 2.0, out=terms)
    np.subtract(1.0, terms, out=terms)
    terms *= llr
    score = terms.sum(axis=-1)
    return float(score) if score.ndim == 0 else score


def _llr_frame(llr: Sequence[float] | np.ndarray, spec: CodeSpec) -> np.ndarray:
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (spec.N,):
        raise ValueError(f"expected {spec.N} LLRs, got shape {llr.shape}")
    return _bounded(llr)


def sc_decode(llr: Sequence[float] | np.ndarray, spec: CodeSpec) -> DecodeResult:
    """Plain successive cancellation decoding of one frame.  ValueError
    unless the LLRs are finite.  A frame whose largest |LLR| is
    2^(1019 - n) or more is decoded scaled by a power of two that brings
    it below (_bounded), and its score is the scaled frame's."""
    llr = _llr_frame(llr, spec)
    x = _sc_batch(llr[:, None], _plan(spec))[:, 0]
    return DecodeResult(extract_info(x, spec), x, (correlation_score(x, llr),), 0)


def _candidates(llrs: np.ndarray, perms: np.ndarray, inverses: np.ndarray, plan: _Plan,
                undecided: np.ndarray | None = None) -> np.ndarray:
    """The (N, k, B) candidates of k members, a (k, N) permutation array
    and its inverses (argsort along axis 1), on a positions-major (N, B)
    block of LLRs: member l decodes frame b permuted by pi_l,
    llrs[perms[l], b], and its candidate [:, l, b] is SC's codeword
    through inverses[l], all k de-interleaved in one gather.  Given a (B,)
    boolean array `undecided`, also sets its entry for each frame in which
    a decision of some member reads an exact 0.0, or a sum that the plan
    certifies and _sum_bound cannot (_sc_batch)."""
    n_perm, n_pos = perms.shape
    batch = llrs.shape[1]
    columns = None if undecided is None else np.zeros(n_perm * batch, dtype=bool)
    # column l*B + b of the decoder input is frame b permuted by pi_l
    x = _sc_batch(llrs[perms.T].reshape(n_pos, -1), plan, columns)
    if undecided is not None:
        undecided |= columns.reshape(n_perm, batch).any(axis=0)
    return x.reshape(n_pos, n_perm, batch)[inverses.T, np.arange(n_perm)]


def _scores(llrs: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The (k, B) scores of (N, k, B) candidates (_candidates) against the
    positions-major (N, B) LLRs of their frames.  Candidates are scored
    frames-major, one row per frame, in slabs of frames: numpy sums a
    contiguous axis pairwise, so no score depends on the slab, nor on
    which other frames are scored.  A score is correlation_score's sum
    (1 - 2 x_i) llr_i over one frames-major row, with each term built as
    llr_i with its sign bit flipped where x_i = 1, which is the product
    exactly, so the score bytes are the same."""
    n_pos, n_perm, batch = cand.shape
    scores = np.empty((n_perm, batch))
    # frames in a slab: a wider slab transposes faster, a narrower one
    # holds less.  On perfbench's sim-long (n = 12, a 2-core VM), 8-frame
    # slabs ran AE-8 about 3 % slower than 16-frame ones, and 32-frame
    # slabs raised its peak RSS by about 0.5 MB
    rows = max(_TILE // n_pos, 16)
    terms = np.empty((min(rows, batch), n_pos))
    for lo in range(0, batch, rows):
        hi = min(lo + rows, batch)
        received = _transposed(llrs[:, lo:hi]).view(np.uint64)
        t = terms[:hi - lo]
        bits = t.view(np.uint64)
        for s in range(n_perm):
            np.left_shift(cand[:, s, lo:hi].T, 63, out=bits, dtype=np.uint64)
            bits ^= received
            scores[s, lo:hi] = t.sum(axis=-1)
    return scores


def _ae_block(llrs: np.ndarray, perms: np.ndarray, inverses: np.ndarray, plan: _Plan,
              undecided: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ensemble-decode a positions-major (N, B) block of LLRs under an
    (L, N) permutation array and its inverses (argsort along axis 1),
    running SC for every member and scoring every frame: _candidates,
    then _scores.  Returns (codewords (N, B), chosen (B,), scores (L, B));
    the winner of a frame is its lowest-index member of highest score
    (numpy's argmax).  Given a (B,) boolean array `undecided`, also sets
    its entry for each flagged frame, as _candidates does.  This is ae_decode's decoder, the re-decode of
    _shared_block, and the full ensemble its tests compare against."""
    cand = _candidates(llrs, perms, inverses, plan, undecided)
    scores = _scores(llrs, cand)
    chosen = scores.argmax(axis=0)
    best = cand[:, chosen, np.arange(len(chosen))]
    return best, chosen, scores


def _shared_block(llrs: np.ndarray, perms: np.ndarray, inverses: np.ndarray, plan: _Plan,
                  decoded: np.ndarray, tally: np.ndarray | None = None) -> np.ndarray:
    """The codewords (N, B) that _ae_block decodes from a positions-major
    (N, B) block of LLRs under an (L, N) ensemble and its inverses, from
    one SC decode per right H-coset of the members, H being
    _absorption(spec) of the plan's code (see _coset_reps); the plan
    names the sums to certify (_plan).  `decoded` marks the lowest-index
    member of each coset, whose candidates _candidates decodes; with none
    marked, as for SC, the empty ensemble, or a decreasing code whose
    every member is induced by an affine map in H, SC decodes the block
    itself, in place.  Given a (2,) integer array `tally`, adds to it the
    block's contested frames, in which the decoded members' candidates
    are not all one array, and its flagged frames, which decode again.

    Proof.  Say member t is induced by T_t(x) = A_t x + b_t and shares the
    coset of member r: h = T_r^-1 o T_t is in H, and the code is
    decreasing.  t's input is r's permuted by h's permutation.  Write
    h = l o G, where G is linear and block diagonal, a GL(s) on each
    absorbed block x_a..x_c and 1 elsewhere, and l = h o G^-1 is lower-
    triangular affine (LTA): the linear part A_r^-1 A_t of h is block
    lower triangular with G's blocks on its diagonal and 1s off the
    absorbed blocks, so A_r^-1 A_t G^-1 is lower triangular.  Let r' be
    the member T_r o l, which no one decodes: r' is r after the LTA step
    below, and t is r' after the G step.  Each step's exceptions are
    conditions on the values a decision reads up to sign and order (an
    exact 0.0; a sum that an order of its additions could give another
    sign), which the LTA step keeps, so r's flags cover both steps.

    The LTA step.  Under an LTA map, every f, g, G0 and repetition sum of
    one decoding is the same float operation on the same operands as one
    of the other's, up to operand order and a sign flip: f is min/max,
    which is symmetric; g's two forms are exact negations; sums commute.
    So both give the same candidate, the same array, except where a
    decision reads an exact 0.0: it gives bit 0 in both, where the sign
    flip calls for complementary bits.

    The G step, for one absorbed block x_a..x_c, whose nodes have size
    S = 2^(c+1).  G permutes the positions of each node of size S alike,
    keeping the 2^a classes of the low bits, and moves no higher bit.
    f, g, G0 and XOR steps above node(S) pair rows that differ in a
    higher bit, elementwise, and g reads the left child's codeword: if
    each node of size S decodes to its permuted codeword, they commute
    with G exactly.  Each node of size S is one of _absorbed's kinds:
      - rate-0 and rate-1: all zeros, and the sign of each LLR.
      - repetition: the sign of the sum of the node's S inputs, in a tree
        log2(S) deep whose leaves G permutes.  Another order may round
        the sum to the other sign; the plan gives its step cert S, and
        _sum_bound certifies the sum.
      - interleaved repetition: G0 steps sum each class, in a tree
        log2(S) - a deep, and a rate-1 step, of cert S, decides each
        class sum; the same bound, per class.
      - single parity check, alone or interleaved (per class, where the
        sum of two f values at the bottom is a G0 step and a rate-1 step
        decides it): min-sum SC is Wagner decoding (take the signs; if
        their parity is odd, flip the least reliable bit), which is
        symmetric, whenever no decision in the node reads 0.0.
        By induction over the node's halves: with f exact on magnitudes
        and signs, the left half decodes the f values by Wagner, each g
        of an unflipped pair adds two terms of one sign, and the flipped
        pair's g is the difference of its two magnitudes, which decides
        the flip for the smaller.  So a tie for the least reliable bit
        under odd parity, or two zeros, makes some g or the bottom sum an
        exact 0.0, and no decision reads one exactly when the input has
        either a unique least magnitude or no zero and even parity, a
        condition every permutation keeps.  Ties therefore need no flag
        of their own.  (Wagner is a proof device: no SPC step enters the
        kernel.)
    So t's candidate is r's, the same array, and its score is the same
    float, unless r's decoding reads an exact 0.0, or an absorbed sum
    that _sum_bound cannot certify; _sc_batch flags those frames in
    the decoded members.  As r is the lowest index of its coset, the
    lowest-index member of highest score among all L is a decoded one,
    and it is the one the decoded members choose.  With no member marked,
    r is the identity, whose input is the block and whose candidate is
    SC's codeword: every member's candidate is SC's, whichever wins.

    The first pass scores only the contested frames and the flagged
    ones.  In an unflagged frame every member's candidate is its decoded
    member's, so in one that is not contested all L candidates are one
    array, and an argmax over members whose candidates are one array
    returns that array whatever their scores: the frame takes it
    unscored.  A contested frame takes the candidate of the argmax of the
    decoded members' scores, as above, and so does a flagged one, whose
    decoded scores the re-decode below needs.  So
    with one decoded member, or every member decoded, only flagged or
    only contested frames are scored.

    Each flagged frame is decoded again under every member not decoded,
    in chunks of frames no wider than the first decode's columns (or of
    one frame), and given the candidate of the argmax of all L scores.
    When no member is left to decode again, as in SC, the kernel is asked
    for no flags."""
    batch = llrs.shape[1]
    k = int(decoded.sum())
    undecided = np.zeros(batch, dtype=bool) if k < len(decoded) else None
    contested = 0
    if k:
        cand = _candidates(llrs, perms[decoded], inverses[decoded], plan, undecided)
        scored = (cand[:, 1:] != cand[:, :1]).reshape(-1, batch).any(axis=0)
        contested = int(scored.sum())
        if undecided is not None:
            scored |= undecided
        frames = np.flatnonzero(scored)
        picked = _scores(llrs[:, frames], cand[:, :, frames])
        x = cand[:, 0].copy()
        x[:, frames] = cand[:, picked.argmax(axis=0), frames]
        scores = np.empty((k, batch))
        scores[:, frames] = picked
    else:
        x, scores = _sc_batch(llrs, plan, undecided), np.empty((0, batch))
    if tally is not None:
        tally += (contested, 0 if undecided is None else int(undecided.sum()))
    if undecided is None:  # every member is decoded, if any
        return x
    flagged = np.flatnonzero(undecided)
    others = ~decoded
    perms, inverses = perms[others], inverses[others]
    step = max(1, max(k, 1) * batch // len(perms))
    for lo in range(0, len(flagged), step):
        f = flagged[lo:lo + step]
        best, _, rest = _ae_block(llrs[:, f], perms, inverses, plan)
        every = np.empty((len(decoded), len(f)))
        every[decoded], every[others] = scores[:, f], rest
        take = others[every.argmax(axis=0)]
        x[:, f[take]] = best[:, take]
    return x


def _coset_reps(perms: np.ndarray, spec: CodeSpec) -> np.ndarray:
    """The members _shared_block decodes, as an (L,) boolean mask: the
    lowest-index member of each right H-coset, H from _absorption(spec),
    read from the (L, N) permutations alone.  A member whose permutation
    no affine map induces, and every member when the code is not
    decreasing, is decoded.  No member is marked when the code is
    decreasing and every member is induced by an affine map in H: the
    identity's coset then holds them all, and SC decodes it.  The empty
    ensemble, plain SC, marks none.

    Position i holds the point ~i, so member l's point map is T_l(x) =
    ~pi_l(~x), with T_l(0) = b_l and column c of A_l T_l(e_c) ^ b_l.  The
    columns give all N images by doubling; a member is affine when they
    match.  A linear part is in H when its column c has no bit below the
    first row of c's block of H's profile (`below`).  Affine member t
    shares the coset of r when the linear part of T_r^-1 o T_t, whose
    column c is T_r^-1(T_t(e_c)) ^ T_r^-1(T_t(0)), is in H: each member is
    tested against the lowest-index member of each coset found before it,
    through that member's inverse point map.  Cost O(L N), and O(N + L n)
    per coset."""
    n_perm, n_pos = perms.shape
    if not (n_perm and spec.is_decreasing()):  # none to share
        return np.ones(n_perm, dtype=bool)
    units = 1 << np.arange(spec.n)
    maps = (n_pos - 1) ^ perms[:, ::-1]  # position ~x is N - 1 - x
    cols = maps[:, units] ^ maps[:, :1]
    images = maps[:, :1].copy()
    for c in range(spec.n):
        images = np.hstack((images, images ^ cols[:, c:c + 1]))
    affine = (images == maps).all(axis=1)
    decoded = ~affine
    starts = {a for a, _ in _blocks(_absorption(spec))}
    below = np.array([(1 << max(a for a in starts if a <= c)) - 1 for c in range(spec.n)])
    if affine.all() and not (cols & below).any():
        return decoded
    left, inverse = affine.copy(), np.empty(n_pos, dtype=maps.dtype)
    while left.any():
        r = int(np.argmax(left))
        decoded[r] = True
        inverse[maps[r]] = np.arange(n_pos)
        linear = inverse[maps[:, units]] ^ inverse[maps[:, :1]]
        left &= (linear & below).any(axis=1)
    return decoded


def _perm_array(perms: Sequence[Sequence[int]] | None, n_pos: int) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble as an (L, N) index array and its inverses (argsort
    along axis 1); ValueError unless it is nonempty and each entry is an
    integer permutation of range(N): each row read in its argsort order
    is then range(N)."""
    not_perms = ValueError(f"every ensemble entry must be a permutation of range({n_pos})")
    try:
        arr = np.array([] if perms is None else list(perms))
    except ValueError:  # ragged: entries of different lengths, or a scalar entry
        raise not_perms from None
    if len(arr) == 0:
        raise ValueError("empty permutation ensemble")
    if not np.issubdtype(arr.dtype, np.integer) or arr.ndim != 2 or arr.shape[1] != n_pos:
        raise not_perms
    inverses = np.argsort(arr, axis=1)
    if (np.take_along_axis(arr, inverses, axis=1) != np.arange(n_pos)).any():
        raise not_perms
    return arr.astype(np.intp, copy=False), inverses


def ae_decode(
    llr: Sequence[float] | np.ndarray,
    perms: Sequence[Sequence[int]],
    spec: CodeSpec,
) -> DecodeResult:
    """Ensemble SC decoding under a list of automorphism permutations.

    Each permutation is applied to the received LLRs, the permuted frame
    is SC decoded, the candidate is de-interleaved and scored by
    correlation with the original LLRs; the best candidate wins.  Each
    entry must be a permutation of range(N) (ValueError otherwise) and
    should be induced by an automorphism of the code (not verified here).
    The LLRs must be finite (ValueError otherwise); a frame whose largest
    |LLR| is 2^(1019 - n) or more is decoded scaled by a power of two that
    brings it below (_bounded), and its scores are the scaled frame's.
    """
    llr = _llr_frame(llr, spec)
    best, chosen, scores = _ae_block(llr[:, None], *_perm_array(perms, spec.N), _plan(spec))
    x = best[:, 0]
    scores = tuple(float(s) for s in scores[:, 0])
    return DecodeResult(extract_info(x, spec), x, scores, int(chosen[0]))


# ---------------------------------------------------------------------------
# SC invariance


@dataclass(frozen=True)
class InvarianceReport:
    trials: int
    equal: int

    @property
    def fraction(self) -> float:
        return self.equal / self.trials if self.trials else 1.0


def sc_invariance_check(
    t: AffineMap,
    spec: CodeSpec,
    trials: int = 100,
    seed: int = 0,
    channel: BecChannel | AwgnBpskChannel | None = None,
) -> InvarianceReport:
    """Fraction of noisy frames with SC(pi(L)) == pi(SC(L)) bit-exactly,
    for the permutation induced by t (hard-decision codeword equality).
    SC decodes each block of frames in place, and then its permuted copy,
    so a block holds two copies of each frame."""
    if t.n != spec.n:
        raise ValueError("dimension mismatch")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not spec.K:  # SC decodes every frame, and its permuted copy, to the zero word
        return InvarianceReport(trials, trials)
    if channel is None:
        channel = AwgnBpskChannel(1.0)
    perm = np.array(induced_permutation(t), dtype=np.intp)
    rng = np.random.default_rng([seed, 0])
    plan = _plan(spec)
    equal = 0
    for _, llrs in _frames(spec, channel, rng, trials, 1, 2):
        x = _sc_batch(llrs, plan)
        equal += int((x[perm] == _sc_batch(llrs[perm], plan)).all(axis=0).sum())
    return InvarianceReport(trials, equal)


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class SimulationResult:
    frames: int
    errors: int
    channel_param: float
    decoder: str
    ensemble_size: int
    seed: int
    # first-pass SC decodes a frame: 1 for SC and when every member shares
    # the identity's coset, else the members _coset_reps marks (one per
    # class).  Frames whose decoded classes gave more than one candidate,
    # and frames the first pass flagged to decode again under the other
    # members; both 0 for SC (_shared_block).  Diagnostics, not written to
    # the CSV
    decodes_per_frame: int = 1
    contested_frames: int = 0
    flagged_frames: int = 0

    @property
    def bler(self) -> float:
        return self.errors / self.frames

    def wilson(self) -> tuple[float, float]:
        return wilson_interval(self.errors, self.frames)


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) Wilson score interval for k successes in n trials;
    ValueError unless 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"{k} successes in {n} trials: need 0 <= k <= n")
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


_SIM_BATCH = 1024  # fixed so results never depend on the worker count
# _frames cuts a batch, like the frames of an SC invariance check, into
# blocks of frames that take at most _BLOCK_COLUMNS decoder columns, a
# column being one copy of one frame, and hold at most _BLOCK_LLRS LLRs,
# 8 MB of float64, in the block's copies of its frames.  An ensemble
# decodes k permuted copies, one per class it decodes, and keeps the
# channel's block beside them: k columns and k + 1 copies a frame, so that
# the channel block, permuted input and workspace stay within the cap.
# With k = 0 (SC, the empty ensemble, or members all in H, as in AE-8 on
# PW(12,2048) at 256 frames a block), SC decodes the channel's block in
# place: one column and one copy a frame.  Either way the flagged frames
# decode again in chunks of at most the block's columns (_shared_block).
# An SC invariance check decodes the channel's block in place, and then
# its permuted copy: one column and two copies a frame.
# The LLR cap bounds the one LLR buffer the channel writes for all of a
# batch's blocks, and the kernel's workspace, which each thread retains up
# to this size; it sets the block at n >= 10, and at n = 9 every block
# but SC's (one copy a frame).  Below that the column cap does: an SC
# batch is at most 1024 columns, but an ensemble multiplies them by k.
# One block of AE-8's 8192 columns at n <= 9 holds a 4 MB
# workspace and a 4 MB permuted input, both larger than a 2 MB L2, and
# four blocks of 2048 columns decode within 3 % of its speed (blocks of
# 1024 are about 9 % slower).  Cache locality comes from the kernel's row
# slabs and the channel's frame slabs (both _TILE), so the block can stay
# wide and spread each plan step's Python cost over many frames.  Frames
# decode independently and the slabs draw their noise in frame order, so
# the block size changes no output.
_BLOCK_LLRS = 1 << 20
_BLOCK_COLUMNS = 1 << 11


def _frames(spec: CodeSpec, channel: BecChannel | AwgnBpskChannel, rng: np.random.Generator,
            count: int, columns: int, copies: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """`count` random frames of spec as (sent codewords (N, b), positions-major
    LLRs (N, b)) in blocks of the most frames b (b >= 1) that take at most
    _BLOCK_COLUMNS decoder columns, `columns` a frame, and hold at most
    _BLOCK_LLRS LLRs, `copies` copies of N a frame
    (see _BLOCK_COLUMNS).  Every block's LLRs are written to one buffer,
    so a block is valid only until the next one is yielded.  Each frame
    is bounded (_bounded) as its slab is written.

    The info bits are drawn at once.  Each block calls the channel's
    public `llrs` on a slab of whole frames at a time and writes the
    frames-major result transposed into the block; each slab draws its
    noise where the previous slab's ended, so the blocks draw what one
    (count, N) draw would."""
    n_pos = spec.N
    sent = _encode(rng.integers(0, 2, size=(count, spec.K), dtype=np.uint8), spec)
    step = min(max(1, min(_BLOCK_LLRS // (n_pos * copies), _BLOCK_COLUMNS // columns)), count)
    buf = np.empty(n_pos * step)
    # frames in a slab: about _TILE LLRs, and at least 8 so that each row
    # segment written into the block fills a 64-byte cache line
    rows = max(_TILE // n_pos, 8)
    for start in range(0, count, step):
        block = sent[:, start:start + step]
        bits = _transposed(block)
        llrs = buf[:block.size].reshape(block.shape)
        for lo in range(0, len(bits), rows):
            _transposed(_bounded(channel.llrs(bits[lo:lo + rows], rng, spec.rate)), llrs[:, lo:lo + rows])
        yield block, llrs


def _sim_batch(args) -> tuple[int, int, int]:
    """One batch's (errors, contested frames, flagged frames)."""
    spec, channel, perms, inverses, decoded, seed, batch_idx, count = args
    rng = np.random.default_rng([seed, batch_idx])
    plan = _plan(spec)
    k = int(decoded.sum())  # with k = 0, SC decodes the channel's block in place
    errors = 0
    tally = np.zeros(2, dtype=np.int64)
    for sent, llrs in _frames(spec, channel, rng, count, max(k, 1), k + 1):
        x = _shared_block(llrs, perms, inverses, plan, decoded, tally)
        errors += int((x != sent).any(axis=0).sum())
    return errors, int(tally[0]), int(tally[1])


def simulate_bler(
    spec: CodeSpec,
    channel: BecChannel | AwgnBpskChannel,
    num_frames: int,
    seed: int,
    decoder: str = "sc",
    perms: Sequence[Sequence[int]] | None = None,
    jobs: int = 1,
) -> SimulationResult:
    """Monte Carlo block error rate of SC or ensemble-SC decoding.

    Frames are processed in fixed-size batches whose randomness derives
    only from (seed, batch index), so the result is independent of the
    worker count.  A block error is a decoded codeword that differs from
    the sent one.  SC and automorphism-ensemble decoding return codewords
    only, so this equals an info-bit mismatch; an ensemble entry that is
    not an automorphism of the code can make the two counts differ.
    ValueError unless num_frames and jobs are integers (not bools) of at
    least 1.
    """
    for name, value in ("num_frames", num_frames), ("jobs", jobs):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    num_frames, jobs = int(num_frames), int(jobs)
    if decoder == "sc":
        if perms is not None:
            raise ValueError("the SC decoder takes no ensemble")
        perm_arr = inverses = np.empty((0, spec.N), dtype=np.intp)  # the empty ensemble
    elif decoder == "ae":
        perm_arr, inverses = _perm_array(perms, spec.N)
    else:
        raise ValueError(f"unknown decoder {decoder!r}")

    # classified once, here, so that every worker decodes the same members
    decoded = _coset_reps(perm_arr, spec)
    batches = [
        (spec, channel, perm_arr, inverses, decoded, seed, idx, min(_SIM_BATCH, num_frames - start))
        for idx, start in enumerate(range(0, num_frames, _SIM_BATCH))
    ]

    # no more workers than batches, nor than the CPUs this process may use
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(batches), cpus)
    if workers > 1:
        from multiprocessing import Pool  # only a pool pays for importing it

        with Pool(workers) as pool:
            counts = pool.map(_sim_batch, batches)
    else:
        counts = [_sim_batch(b) for b in batches]
    errors, contested, flagged = (sum(c) for c in zip(*counts))
    return SimulationResult(
        frames=num_frames,
        errors=errors,
        channel_param=channel.param_value,
        decoder=decoder,
        ensemble_size=len(perm_arr) or 1,
        seed=seed,
        decodes_per_frame=max(int(decoded.sum()), 1),
        contested_frames=contested,
        flagged_frames=flagged,
    )
