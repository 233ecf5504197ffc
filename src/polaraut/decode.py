"""Successive cancellation decoding, the permuted-ensemble decoder, and
the Monte Carlo channel harness.

LLR sign convention: positive means bit 0 is more likely.  The check
node uses the min-sum rule (bit-exact and platform independent), the
variable node uses g(a, b, u) = b + (1 - 2u) a, and an LLR of exactly 0
decodes to bit 0, so every decoding path is deterministic.  Erasure
channels use +-1000.0 as the certainty sentinel and exactly 0.0 for an
erasure.

Internally everything is positions-major: codewords and LLR blocks are
(N, frames) arrays, so that the encoder's XOR passes and the decoder's
f/g steps work on contiguous row blocks.  The decoders work on batches;
the public single-frame entry points wrap a batch of one, and the public
encoding helpers keep frames-major (..., N) arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from multiprocessing import Pool
from collections.abc import Sequence

import numpy as np

from .affine import AffineMap, induced_permutation
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
        out = (1.0 - 2.0 * x.astype(np.float64)) * CERTAIN_LLR
        out[rng.random(x.shape) < self.erasure_prob] = 0.0
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
        sigma = self.noise_sigma(rate)
        y = (1.0 - 2.0 * x.astype(np.float64)) + rng.normal(0.0, sigma, x.shape)
        return 2.0 * y / (sigma * sigma)


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


def _transposed(a: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of a.T for a 2-D array, copied in slabs of 64
    rows: a whole-array copy that reads a with a stride of one row per
    element runs several times slower once the rows are a few kB long."""
    out = np.empty(a.shape[::-1], dtype=a.dtype)
    for lo in range(0, len(a), 64):
        out[:, lo:lo + 64] = a[lo:lo + 64].T
    return out


def polar_transform(u: np.ndarray) -> np.ndarray:
    """Multiply bit rows by H = F^(x)n along the last axis (self-inverse);
    returns a new C-contiguous uint8 array."""
    u = np.asarray(u, dtype=np.uint8)
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
    x = _encode(u, spec)
    return _transposed(x.reshape(spec.N, -1)).reshape(x.shape[1:] + (spec.N,))


def extract_info(codeword: np.ndarray, spec: CodeSpec) -> np.ndarray:
    """Info bits of a codeword (the transform is its own inverse)."""
    return polar_transform(codeword)[..., _info_mask(spec)]


def is_codeword(x: np.ndarray, spec: CodeSpec) -> bool:
    return not polar_transform(x)[..., ~_info_mask(spec)].any()


# ---------------------------------------------------------------------------
# successive cancellation
#
# The kernel walks a plan of the code tree that decodes whole subtrees in
# one step (Alamdar-Yazdi & Kschischang, IEEE Comm. Letters 2011; Sarkis
# et al., IEEE JSAC 2014): a rate-0 node is all zeros, a repetition node
# (only its last leaf carries information) sums its LLRs in SC's own order
# and repeats the sign, a rate-1 node takes the hard decision.  Each gives
# bit for bit what min-sum SC gives, rate-1 only on rows without an exact
# 0.0 LLR, so those rows are decoded again as two rate-1 halves.  SPC nodes
# are left out: their usual decoder is ML, which is not SC.

_F, _G, _XOR, _REP, _RATE1 = range(5)
_Plan = tuple[tuple[int, int, int], ...]


@functools.lru_cache(maxsize=32)
def _sc_plan(mask: bytes) -> _Plan:
    """Steps (op, lo, size) over the pruned tree of an information mask,
    in decoding order.  Rate-0 nodes have none: the codeword starts at 0."""
    plan = []

    def walk(lo: int, size: int) -> None:
        node = mask[lo:lo + size]
        if not any(node):
            return
        if all(node):
            plan.append((_RATE1, lo, size))
        elif not any(node[:-1]):
            plan.append((_REP, lo, size))
        else:
            h = size // 2
            plan.append((_F, lo, h))
            walk(lo, h)
            plan.append((_G, lo, h))
            walk(lo + h, h)
            plan.append((_XOR, lo, h))

    walk(0, len(mask))
    return tuple(plan)


def _plan(spec: CodeSpec) -> _Plan:
    return _sc_plan(_info_mask(spec).tobytes())


def _sc_batch(llrs: np.ndarray, plan: _Plan) -> np.ndarray:
    """SC-decode a positions-major (size, batch) LLR block along a plan;
    returns the (size, batch) codewords (their u-vectors are the
    transform of them)."""
    x = np.zeros(llrs.shape, dtype=np.uint8)
    # LLRs of the nodes on the path to the current one; after g a node's
    # entry holds its right child's LLRs, as the node's own are spent
    stack = [llrs]
    for op, lo, size in plan:
        v = stack[-1]
        if op == _F:
            # sign(a) * sign(b) * min(|a|, |b|): the same operations in
            # the same order, written into two buffers
            a, b = v[:size], v[size:]
            f = np.sign(a)
            f *= np.sign(b)
            m = np.abs(a)
            np.minimum(m, np.abs(b), out=m)
            f *= m
            stack.append(f)
        elif op == _G:
            # b + (1 - 2 u) a, the same way, in one buffer
            stack.pop()
            a, b = stack[-1][:size], stack[-1][size:]
            g = np.multiply(x[lo:lo + size], 2.0)
            np.subtract(1.0, g, out=g)
            g *= a
            g += b
            stack[-1] = g
        elif op == _XOR:
            x[lo:lo + size] ^= x[lo + size:lo + 2 * size]
        elif op == _REP:
            while len(v) > 1:
                h = len(v) // 2
                v = v[h:] + v[:h]
            np.less(v, 0, out=x[lo:lo + size])
        else:  # _RATE1
            np.less(v, 0, out=x[lo:lo + size])
            if size > 1 and not v.all():
                h = size // 2
                halves = ((_F, 0, h), (_RATE1, 0, h), (_G, 0, h), (_RATE1, h, h), (_XOR, 0, h))
                cols = np.flatnonzero((v == 0).any(axis=0))
                x[lo:lo + size, cols] = _sc_batch(v[:, cols], halves)
    return x


@dataclass(frozen=True)
class DecodeResult:
    info_bits: np.ndarray
    codeword: np.ndarray
    scores: tuple[float, ...]
    chosen: int


def correlation_score(codeword: np.ndarray, llr: np.ndarray) -> float | np.ndarray:
    """sum (1 - 2 x_i) llr_i over the last axis; the ML metric for BPSK and
    permutation consistent: score(pi(x), pi(llr)) == score(x, llr).  A
    single frame gives a float, leading axes give an array of scores."""
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
    return llr


def sc_decode(llr: Sequence[float] | np.ndarray, spec: CodeSpec) -> DecodeResult:
    """Plain successive cancellation decoding of one frame."""
    llr = _llr_frame(llr, spec)
    x = _sc_batch(llr[:, None], _plan(spec))[:, 0]
    return DecodeResult(extract_info(x, spec), x, (correlation_score(x, llr),), 0)


def _ae_batch(
    llrs: np.ndarray, perms: np.ndarray, plan: _Plan
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ensemble decoding of a positions-major (N, B) batch: permute,
    decode, de-interleave, keep the best-correlating candidate per frame.

    Returns (codewords (N, B), chosen (B,), scores (L, B))."""
    n_pos, batch = llrs.shape
    n_perm = len(perms)
    # column l*B + b of the decoder input is frame b permuted by pi_l
    x = _sc_batch(llrs[perms.T].reshape(n_pos, n_perm * batch), plan)
    # candidate l at position pi_l[j] is x[j, l*B + b]: gather the rows of
    # the (N*L, B) view through the inverses
    inverse = np.argsort(perms, axis=1).T * n_perm + np.arange(n_perm)
    cand = np.take(x.reshape(n_pos * n_perm, batch), inverse.reshape(-1), axis=0)
    # score frames-major: numpy sums a contiguous axis pairwise, and a sum
    # over axis 0 would round differently
    frames = _transposed(cand.reshape(n_pos, n_perm * batch)).reshape(n_perm, batch, n_pos)
    scores = correlation_score(frames, _transposed(llrs))
    chosen = scores.argmax(axis=0)  # ties resolve to the lowest index
    best = cand.reshape(n_pos, n_perm, batch)[:, chosen, np.arange(batch)]
    return best, chosen, scores


def _perm_array(perms: Sequence[Sequence[int]] | None, n_pos: int) -> np.ndarray:
    """The ensemble as an (L, N) index array; ValueError unless it is
    nonempty and each entry is a permutation of range(N) (one sort)."""
    arr = np.array([] if perms is None else list(perms), dtype=np.intp)
    if len(arr) == 0:
        raise ValueError("empty permutation ensemble")
    if arr.ndim != 2 or arr.shape[1] != n_pos or (np.sort(arr, axis=1) != np.arange(n_pos)).any():
        raise ValueError(f"every ensemble entry must be a permutation of range({n_pos})")
    return arr


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
    """
    llr = _llr_frame(llr, spec)
    best, chosen, scores = _ae_batch(llr[:, None], _perm_array(perms, spec.N), _plan(spec))
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
    for the permutation induced by t (hard-decision codeword equality)."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if channel is None:
        channel = AwgnBpskChannel(1.0)
    perm = np.array(induced_permutation(t), dtype=np.intp)
    rng = np.random.default_rng([seed, 0])
    u = rng.integers(0, 2, size=(trials, spec.K), dtype=np.uint8)
    llrs = _transposed(channel.llrs(polar_encode(u, spec), rng, spec.rate))
    plan = _plan(spec)
    decoded_then_permuted = _sc_batch(llrs, plan)[perm]
    permuted_then_decoded = _sc_batch(llrs[perm], plan)
    equal = int((decoded_then_permuted == permuted_then_decoded).all(axis=0).sum())
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

    @property
    def bler(self) -> float:
        return self.errors / self.frames

    def wilson(self) -> tuple[float, float]:
        return wilson_interval(self.errors, self.frames)


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) Wilson score interval for k successes in n trials."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


_SIM_BATCH = 1024  # fixed so results never depend on the worker count
# A batch is decoded in blocks of frames whose decoder input (L permuted
# copies of each frame for the ensemble) holds about this many LLRs, 8 MB
# of float64, so that a block's temporaries stay in cache and the allocator
# reuses them instead of mapping fresh pages at every step.  Frames decode
# independently, so the block size changes no output.
_BLOCK_LLRS = 1 << 20


def _sim_batch(args) -> int:
    spec, channel, perms, seed, batch_idx, count = args
    rng = np.random.default_rng([seed, batch_idx])
    u = rng.integers(0, 2, size=(count, spec.K), dtype=np.uint8)
    # the channel draws its noise frames-major, (count, N), as it always
    # has, so the codewords are handed to it frames-major; each block is
    # turned positions-major on its own
    sent = _transposed(_encode(u, spec))
    llrs = channel.llrs(sent, rng, spec.rate)
    plan = _plan(spec)
    step = max(1, _BLOCK_LLRS // (spec.N * (1 if perms is None else len(perms))))
    errors = 0
    for start in range(0, count, step):
        block = _transposed(llrs[start:start + step])
        x = _sc_batch(block, plan) if perms is None else _ae_batch(block, perms, plan)[0]
        errors += int((x != _transposed(sent[start:start + step])).any(axis=0).sum())
    return errors


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
    """
    if num_frames < 1:
        raise ValueError("need at least one frame")
    if decoder == "sc":
        perm_arr = None
    elif decoder == "ae":
        perm_arr = _perm_array(perms, spec.N)
    else:
        raise ValueError(f"unknown decoder {decoder!r}")

    batches = [
        (spec, channel, perm_arr, seed, idx, min(_SIM_BATCH, num_frames - start))
        for idx, start in enumerate(range(0, num_frames, _SIM_BATCH))
    ]

    if jobs > 1 and len(batches) > 1:
        with Pool(jobs) as pool:
            errors = sum(pool.map(_sim_batch, batches))
    else:
        errors = sum(_sim_batch(b) for b in batches)
    return SimulationResult(
        frames=num_frames,
        errors=errors,
        channel_param=channel.param_value,
        decoder=decoder,
        ensemble_size=1 if perm_arr is None else len(perm_arr),
        seed=seed,
    )
