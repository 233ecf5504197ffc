"""One workload process of the polaraut benchmark.

Started by run.py in a fresh interpreter with numpy limited to one
thread.  It sets the workload up, prints ``READY <monotonic time>`` and
then, as the measuring process, waits for ``GO`` on stdin before the
timed phase, so that the set-up of a second process started beside it
has ended first.  A set-up-only process (``--setup-only``) exits after
READY.  The measuring process prints one JSON object as its last line.

Only names exported by ``polaraut`` are used (see test_perfbench.py):
the package's internals are what later changes rewrite.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from polaraut import (
    AffineMap,
    AwgnBpskChannel,
    ae_decode,
    block_profile,
    blta_order,
    construct_bec,
    construct_pw,
    induced_permutation,
    is_affine_automorphism,
    is_codeword,
    is_decreasing,
    polar_encode,
    polar_transform,
    random_decreasing_set,
    random_witness_instance,
    reed_muller_set,
    sample_blta,
    simulate_bler,
    transposition_witness,
    verify_blta_completeness,
)

from hostspeed import probe, scaled
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

ENSEMBLE_L = 8  # `polaraut simulate --decoder ae --L 8`
SIM_BATCH = 1024  # simulate_bler's fixed batch; timed frame counts are whole multiples
DEFAULT_SEED = 0  # the seed the pinned counts in spec.json belong to
SINGLE_MIN = 100  # single-call samples, so that p90 has at least 10 beyond it
WITNESS_DIMS = (6, 7, 8)
WITNESS_REF_INSTANCES = 600


@dataclass(frozen=True)
class SimParams:
    n: int
    k: int
    snr_db: float
    ref_sc_frames: int  # frames of the pinned default-seed check
    ref_ae_frames: int


SIM = {
    "sim-short": SimParams(6, 32, 3.5, 8192, 4096),
    "sim-long": SimParams(12, 2048, 2.5, 1024, 256),
}

# Each part of the timed phase gets a share of --seconds and a minimum
# number of calls.  A timed simulate_bler call is one batch.
SIM_PARTS = {"sc": (0.3, 6), "ae": (0.4, 2), "single": (0.3, SINGLE_MIN)}

PROOF_SHARES = {"n4": 0.35, "n5": 0.3, "witness": 0.35}  # each battery code is one call

# The probe (hostspeed.py) is read between the calls, after every
# PROBE_ROUND_S of calls, and each call is scaled by the readings around
# it.  The gated rates are medians of scaled times; wall times are
# printed too.
PROBE_ROUND_S = 0.25


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Checks:
    """Counts checked operations; a failed one is recorded and the run
    goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextlib.contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # any failure of the program under test is counted
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {exc!r}")


@dataclass(frozen=True)
class Sample:
    key: str  # what was called (a battery code, a decoder)
    start_s: float  # from the start of the timed phase
    wall_s: float
    scaled_s: float  # wall_s at the probe's nominal host speed


def run_parts(seconds: float, parts: dict) -> tuple[dict[str, list[Sample]], list]:
    """Interleave the parts of a timed phase: parts maps a name to (share,
    minimum count, step), and a step returns (key, seconds) of its call,
    or None if the call failed.  The next call goes to the part furthest
    below its share of the time used so far, so that every part samples
    the whole phase.  Stops once `seconds` are used and every part has
    its minimum.

    The probe is read before the first call and after every
    PROBE_ROUND_S of calls.  A call is scaled by the readings taken
    within one call length before or after it, and at least the last
    before and the first after it: a long call is scaled by the host's
    speed over as long a time on either side of it, a short one by the
    speed around its round.  Returns the samples of every part and the
    probe readings as (time, seconds)."""
    used = {name: 0.0 for name in parts}
    count = {name: 0 for name in parts}
    calls: list[tuple[str, str, float, float, float]] = []
    probes: list[tuple[float, float]] = []
    t0 = time.perf_counter()

    def read_probe() -> None:
        t = time.perf_counter()
        reading = probe()
        probes.append(((t + time.perf_counter()) / 2 - t0, reading))

    read_probe()
    since = 0.0
    while True:
        short = [name for name, (_, minimum, _) in parts.items() if count[name] < minimum]
        if sum(used.values()) >= seconds:
            if not short:
                break
            candidates = short
        else:
            candidates = list(parts)
        name = min(candidates, key=lambda k: used[k] / parts[k][0])
        t = time.perf_counter()
        got = parts[name][2]()
        dt = time.perf_counter() - t
        used[name] += dt
        count[name] += 1
        since += dt
        if got is not None:
            calls.append((name, got[0], t - t0, t + dt - t0, got[1]))
        if since >= PROBE_ROUND_S:
            read_probe()
            since = 0.0
    if since > 0:
        read_probe()

    out: dict[str, list[Sample]] = {name: [] for name in parts}
    times = [t for t, _ in probes]
    for name, key, start, end, wall in calls:
        length = end - start
        lo = min(bisect.bisect_right(times, start) - 1, bisect.bisect_left(times, start - length))
        hi = max(bisect.bisect_left(times, end), bisect.bisect_right(times, end + length) - 1)
        readings = [r for _, r in probes[lo:hi + 1]]
        out[name].append(Sample(key, start, wall, scaled(wall, readings)))
    return out, probes


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def load_pins(workload: str) -> dict:
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        return json.load(fh)["pins"][workload]


# ---------------------------------------------------------------------------
# sim-short, sim-long


class SimWorkload:
    reference_every_run = True  # about a second on sim-long

    def __init__(self, name: str, seed: int, tr: Tracer, checks: Checks):
        self.p = SIM[name]
        self.seed = seed
        self.tr = tr
        self.checks = checks

    def ensemble(self, seed: int) -> list[list[int]]:
        """The ensemble `polaraut simulate --decoder ae` builds."""
        tr, spec = self.tr, self.spec
        profile = tr.call("block_profile", block_profile, spec.monomials)
        with tr.span("ensemble"):
            rng = random.Random(seed)
            maps = [tr.call("sample_blta", sample_blta, profile, rng) for _ in range(ENSEMBLE_L)]
            for t in maps:
                with self.checks.op("ensemble member check"):
                    ok = tr.call("is_affine_automorphism", is_affine_automorphism, t, spec.monomials)
                    require(ok, "sampled map is not an automorphism")
            return [tr.call("induced_permutation", induced_permutation, t) for t in maps]

    def setup(self) -> None:
        p, tr = self.p, self.tr
        with tr.span("setup"):
            self.spec = tr.call("construct", construct_pw, p.n, p.k)
            require(tr.call("is_decreasing", is_decreasing, self.spec.monomials),
                    "PW code is not decreasing")
            self.channel = AwgnBpskChannel(p.snr_db)
            self.perms = self.ensemble(self.seed)
            self.frame_rng = np.random.default_rng([self.seed, 1])
            # one warm-up call per entry point
            tr.call("simulate_bler.sc", simulate_bler, self.spec, self.channel, 16,
                    seed=self.seed, decoder="sc")
            tr.call("simulate_bler.ae", simulate_bler, self.spec, self.channel, 16,
                    seed=self.seed, decoder="ae", perms=self.perms)
            self.single_once()

    def frame(self):
        u = self.frame_rng.integers(0, 2, size=self.spec.K, dtype=np.uint8)
        x = polar_encode(u, self.spec)
        return self.channel.llrs(x, self.frame_rng, self.spec.rate)

    def single_once(self) -> float | None:
        llr = self.frame()
        with self.checks.op("ae_decode"):
            t = time.perf_counter()
            res = self.tr.call("ae_decode", ae_decode, llr, self.perms, self.spec)
            dt = time.perf_counter() - t
            require(is_codeword(res.codeword, self.spec), "ae_decode result is not a codeword")
            require(np.array_equal(polar_encode(res.info_bits, self.spec), res.codeword),
                    "info bits do not re-encode to the decoded codeword")
            return dt
        return None

    def simulate(self, decoder: str, call_seed: int) -> float | None:
        perms = self.perms if decoder == "ae" else None
        with self.checks.op(f"simulate_bler {decoder}"):
            t = time.perf_counter()
            res = self.tr.call(f"simulate_bler.{decoder}", simulate_bler, self.spec, self.channel,
                               SIM_BATCH, seed=call_seed, decoder=decoder, perms=perms)
            dt = time.perf_counter() - t
            require(res.frames == SIM_BATCH and 0 <= res.errors <= SIM_BATCH,
                    f"implausible result {res.frames} frames, {res.errors} errors")
            return dt
        return None

    def timed(self, seconds: float) -> dict:
        calls = {"sc": 0, "ae": 0}

        def step(part):
            def run():
                if part == "single":
                    dt = self.single_once()
                else:
                    call_seed = self.seed * 1_000_000 + (part == "ae") * 100_000 + calls[part]
                    calls[part] += 1
                    dt = self.simulate(part, call_seed)
                return None if dt is None else (part, dt)
            return run

        with self.tr.span("timed"):
            samples, probes = run_parts(seconds, {k: (share, minimum, step(k))
                                                  for k, (share, minimum) in SIM_PARTS.items()})
        self.samples = {k: [vars(x) for x in v] for k, v in samples.items()}
        self.samples["probe"] = probes

        def per_s(part, field):
            return SIM_BATCH / p50([getattr(x, field) for x in samples[part]])

        return summarize({f: (per_s("sc", f), per_s("ae", f)) for f in FIELDS},
                         samples["single"])

    def replay(self) -> tuple[float, float]:
        """Seconds per frame of the encoder and the channel steps of a
        simulate_bler batch, replayed on batches of the same shape through
        public calls."""
        spec, tr = self.spec, self.tr
        rows = list(spec.row_indices())
        enc, chan = [], []
        with tr.span("replay"):
            for r in range(7):
                rng = np.random.default_rng([self.seed, 2, r])
                u = rng.integers(0, 2, size=(SIM_BATCH, spec.K), dtype=np.uint8)
                t0 = time.perf_counter()
                with tr.span("encode", "decode"):
                    full = np.zeros((SIM_BATCH, spec.N), dtype=np.uint8)
                    full[:, rows] = u
                    x = polar_transform(full)
                t1 = time.perf_counter()
                tr.call("channel", self.channel.llrs, x, rng, spec.rate)
                t2 = time.perf_counter()
                enc.append((t1 - t0) / SIM_BATCH)
                chan.append((t2 - t1) / SIM_BATCH)
        return p50(enc), p50(chan)

    def reference(self, pins: dict) -> dict:
        """Frame-error counts at the default seed, which are pinned."""
        p = self.p
        with self.tr.span("reference"):
            perms = self.perms if self.seed == DEFAULT_SEED else self.ensemble(DEFAULT_SEED)
            sc = simulate_bler(self.spec, self.channel, p.ref_sc_frames, seed=DEFAULT_SEED)
            ae = simulate_bler(self.spec, self.channel, p.ref_ae_frames, seed=DEFAULT_SEED,
                               decoder="ae", perms=perms)
        counts = {"decode.frame_errors.sc": sc.errors, "decode.frame_errors.ae8": ae.errors}
        for key, value in counts.items():
            with self.checks.op(f"pinned {key}"):
                require(value == pins[key], f"{key} = {value}, pinned {pins[key]}")
        return counts

    def layer_metrics(self, traced: dict) -> dict:
        tr, spec = self.tr, self.spec
        enc, chan = self.replay()
        sc_s = 1.0 / traced["wall_bulk_light_per_s"] - enc - chan
        ae_s = 1.0 / traced["wall_bulk_heavy_per_s"] - enc - chan
        return {
            "monomial.construct_s": sum(tr.durations("construct", ("setup",))),
            "monomial.is_decreasing_s": sum(tr.durations("is_decreasing", ("setup",))),
            "affine.block_profile_s": sum(tr.durations("block_profile", ("setup",))),
            "affine.ensemble_s": sum(tr.durations("ensemble", ("setup",))),
            "affine.is_aut_ms.p50": 1e3 * p50(tr.durations("is_affine_automorphism", ("setup",))),
            "decode.encode_us_per_frame": 1e6 * enc,
            "decode.channel_us_per_frame": 1e6 * chan,
            "decode.sc_us_per_frame": 1e6 * sc_s,
            "decode.ae_member_ratio": ae_s / (ENSEMBLE_L * sc_s),
            "decode.sc_mbit_per_s": spec.N * traced["wall_bulk_light_per_s"] / 1e6,
        }


# ---------------------------------------------------------------------------
# proof


class ProofWorkload:
    reference_every_run = False  # 600 witnesses take several seconds

    def __init__(self, name: str, seed: int, tr: Tracer, checks: Checks):
        self.seed = seed
        self.tr = tr
        self.checks = checks

    def setup(self) -> None:
        tr = self.tr
        with tr.span("setup"):
            # criterion 1's n=4 battery and the n=5 extended battery are
            # fixed, so that the cost mix is the same on every seed; the
            # seed orders the calls
            b4 = [(f"rm({r},4)", tr.call("construct", reed_muller_set, 4, r)) for r in range(5)]
            rng = random.Random(0)
            b4 += [(f"rand4-{k}", tr.call("construct", random_decreasing_set, 4, rng))
                   for k in range(100)]
            for k in (4, 8, 12):
                b4.append((f"pw(4,{k})", tr.call("construct", construct_pw, 4, k).monomials))
                b4.append((f"bec(4,{k})", tr.call("construct", construct_bec, 4, k, 0.5).monomials))
            rng5 = random.Random(1)
            b5 = [
                ("rm(1,5)", tr.call("construct", reed_muller_set, 5, 1)),
                ("rm(2,5)", tr.call("construct", reed_muller_set, 5, 2)),
                ("pw(5,12)", tr.call("construct", construct_pw, 5, 12).monomials),
                ("bec(5,16)", tr.call("construct", construct_bec, 5, 16, 0.5).monomials),
                ("rand5-0", tr.call("construct", random_decreasing_set, 5, rng5)),
            ]
            self.expected = {}
            for cid, ms in b4 + b5:
                require(tr.call("is_decreasing", is_decreasing, ms), f"{cid} is not decreasing")
                profile = tr.call("block_profile", block_profile, ms)
                self.expected[cid] = tr.call("blta_order", blta_order, profile)
            self.b4, self.b5 = b4, b5
            # warm-ups: fill the GL(4,2) and GL(5,2) tables, run one witness
            self.verify("verify.n4", *b4[0])
            self.verify("verify.n5", *b5[0])
            self.witness_rng = random.Random(self.seed + 5)
            self.witness_once(random.Random(5), WITNESS_DIMS[0])

    def verify(self, name: str, cid: str, ms) -> float | None:
        with self.checks.op(f"verify {cid}"):
            t = time.perf_counter()
            rep = self.tr.call(name, verify_blta_completeness, ms, code_id=cid, tag=cid)
            dt = time.perf_counter() - t
            require(rep.passed and rep.counterexample is None, f"{cid}: {rep.to_json()}")
            require(rep.aut_count == rep.blta_count == self.expected[cid],
                    f"{cid}: |Aut| {rep.aut_count}, |BLTA| {rep.blta_count}")
            return dt
        return None

    def witness_once(self, rng: random.Random, n: int):
        """Instance plus trace, as criterion 4; returns (latency, addcol ops)."""
        tr = self.tr
        with self.checks.op(f"witness n={n}"):
            t0 = time.perf_counter()
            ms, a, i = tr.call("random_witness_instance", random_witness_instance, n, rng)
            t1 = time.perf_counter()
            entry_ok = tr.call("is_affine_automorphism", is_affine_automorphism,
                               AffineMap.from_linear(a), ms)
            t2 = time.perf_counter()
            trace = tr.call("transposition_witness", transposition_witness, a, ms, i)
            t3 = time.perf_counter()
            require(entry_ok, "sampled instance matrix is not an automorphism")
            require(trace.swap_preserves_set, "witness does not preserve the set")
            addcol = sum(1 for op in trace.operations() if op["op"] == "addcol")
            return (t1 - t0) + (t3 - t2), addcol
        return None

    def timed(self, seconds: float) -> dict:
        order = random.Random(self.seed)
        batteries = {"n4": order.sample(self.b4, len(self.b4)),
                     "n5": order.sample(self.b5, len(self.b5))}
        next_code = {"n4": 0, "n5": 0}
        witnesses = [0]

        def step(part):
            def run():
                if part == "witness":
                    # n cycles through 6, 7, 8 so that every run has the same mix
                    n = WITNESS_DIMS[witnesses[0] % len(WITNESS_DIMS)]
                    witnesses[0] += 1
                    got = self.witness_once(self.witness_rng, n)
                    return None if got is None else (f"n={n}", got[0])
                codes = batteries[part]
                cid, ms = codes[next_code[part] % len(codes)]
                next_code[part] += 1
                dt = self.verify(f"verify.{part}", cid, ms)
                return None if dt is None else (cid, dt)
            return run

        with self.tr.span("timed"):
            samples, probes = run_parts(seconds, {
                "n4": (PROOF_SHARES["n4"], 3 * len(self.b4), step("n4")),
                "n5": (PROOF_SHARES["n5"], 2 * len(self.b5), step("n5")),
                "witness": (PROOF_SHARES["witness"], SINGLE_MIN, step("witness")),
            })
        self.samples = {k: [vars(x) for x in v] for k, v in samples.items()}
        self.samples["probe"] = probes

        def codes_per_s(part, field):
            """Codes over the sum of each code's median time."""
            per_code: dict[str, list[float]] = {}
            for x in samples[part]:
                per_code.setdefault(x.key, []).append(getattr(x, field))
            return len(per_code) / sum(p50(ts) for ts in per_code.values())

        return summarize({f: (codes_per_s("n4", f), codes_per_s("n5", f)) for f in FIELDS},
                         samples["witness"])

    def reference(self, pins: dict) -> dict:
        """Column additions over criterion 4's stream at n = 6, 7, 8."""
        key = "autgroup.witness_addcol_ops"
        total = 0
        rng = random.Random(5)
        with self.tr.span("reference"):
            for _ in range(WITNESS_REF_INSTANCES):
                got = self.witness_once(rng, rng.choice(WITNESS_DIMS))
                total += got[1] if got is not None else 0
        with self.checks.op(f"pinned {key}"):
            require(total == pins[key], f"{key} = {total}, pinned {pins[key]}")
        return {key: total}

    def layer_metrics(self, traced: dict) -> dict:
        tr = self.tr
        first5 = self.b5[0][0]
        cold = tr.durations("verify.n5", ("setup",), tag=first5)[0]
        warm = p50(tr.durations("verify.n5", ("timed",), tag=first5))
        n5 = tr.durations("verify.n5", ("timed",))
        trace_s = tr.durations("transposition_witness", ("timed",))
        return {
            "monomial.construct_s": sum(tr.durations("construct", ("setup",))),
            "monomial.is_decreasing_s": sum(tr.durations("is_decreasing", ("setup",))),
            "affine.block_profile_s": sum(tr.durations("block_profile", ("setup",))),
            "affine.is_aut_ms.p50": 1e3 * p50(tr.durations("is_affine_automorphism", ("timed",))),
            "autgroup.gl_table_s": cold - warm,
            "autgroup.verify_n4_ms.p50": 1e3 * p50(tr.durations("verify.n4", ("timed",))),
            "autgroup.verify_n5_s.p50": p50(n5),
            "autgroup.verify_n5_s.max": max(n5),
            "autgroup.witness_instance_ms.p50":
                1e3 * p50(tr.durations("random_witness_instance", ("timed",))),
            "autgroup.witness_trace_ms.p50": 1e3 * p50(trace_s),
            "autgroup.witness_trace_ms.p90": 1e3 * p90(trace_s),
        }


# ---------------------------------------------------------------------------


FIELDS = ("scaled_s", "wall_s")


def summarize(bulk: dict, single: list[Sample]) -> dict:
    """End-to-end values of one timed phase: bulk maps a Sample field to
    the (light, heavy) rates from it.  Scaled values carry the gated
    names, wall-time values a `wall_` prefix."""
    out = {}
    for field, prefix in zip(FIELDS, ("", "wall_")):
        lat = [getattr(x, field) for x in single]
        out.update({
            f"{prefix}bulk_light_per_s": bulk[field][0],
            f"{prefix}bulk_heavy_per_s": bulk[field][1],
            f"{prefix}single_per_s": len(lat) / sum(lat),
            f"{prefix}single_p50_ms": 1e3 * p50(lat),
            f"{prefix}single_p90_ms": 1e3 * p90(lat),
        })
    out["single_samples"] = len(single)
    return out


WORKLOADS = {"sim-short": SimWorkload, "sim-long": SimWorkload, "proof": ProofWorkload}
RATES = ("bulk_light_per_s", "bulk_heavy_per_s", "single_per_s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="file for the spans of a traced run")
    args = ap.parse_args(argv)

    checks = Checks()
    tr = Tracer(enabled=bool(args.trace) and not args.setup_only)
    wl = WORKLOADS[args.workload](args.workload, args.seed, tr, checks)
    wl.setup()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0
    if sys.stdin.readline().strip() != "GO":
        return 3

    tr.enabled = False
    untraced = wl.timed(args.seconds)
    out = {"e2e": dict(untraced), "samples": wl.samples,
           "probe_s_p50": p50([r for _, r in wl.samples["probe"]])}
    out["e2e"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layer = {k: untraced[k] for k in ("single_p50_ms", "single_p90_ms")}
    if args.trace:
        tr.enabled = True
        traced = wl.timed(args.seconds)
        layer.update(wl.layer_metrics(traced))
        layer["trace.overhead_frac"] = statistics.median(
            untraced[k] / traced[k] - 1.0 for k in RATES
        )
        for lay, secs in tr.self_time_by_layer(("setup", "timed")).items():
            layer[f"{lay}.self_s"] = secs
    if args.trace or wl.reference_every_run:
        layer.update(wl.reference(load_pins(args.workload)))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": tr.to_json()}, fh)
    out.update(
        layer=layer,
        attempted=checks.attempted,
        failed=checks.failed,
        errors=checks.errors,
        versions={"python": sys.version.split()[0], "numpy": np.__version__},
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
