"""Command line interface.

Exit codes: 0 success (and verification passed), 1 verification failure
or falsification candidate, 2 usage error, including any argument value
the library rejects with ValueError and a --code or --matrix file that
cannot be read.  `simulate` and `sample-perms` echo their seed; given
the same arguments and seed the structured outputs are byte-identical
regardless of --jobs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .gf2 import BitMatrix
from .monomial import CodeSpec, construct_bec, construct_explicit, construct_pw
from .affine import (
    AffineMap,
    block_profile,
    blta_order,
    induced_permutation,
    is_affine_automorphism,
    sample_blta,
)
from .autgroup import (
    FalsificationError,
    all_decreasing_sets,
    transposition_reduction_trace,
    transposition_witness,
    verify_blta_completeness,
)
from .decode import (
    AwgnBpskChannel,
    BecChannel,
    sc_invariance_check,
    simulate_bler,
)
from .selfcheck import run_all


def _add_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--code", metavar="FILE", help="code spec JSON file")
    p.add_argument("--n", type=int, help="log2 of the block length")
    p.add_argument("--K", type=int, help="code dimension")
    p.add_argument("--pw", action="store_true", help="polarization-weight construction")
    p.add_argument("--bec", type=float, metavar="EPS", help="BEC construction at erasure probability EPS")
    p.add_argument("--mmin", metavar="MASKS", help="comma-separated generator monomial masks")


# what a missing file, malformed JSON or a JSON value of the wrong shape
# raises while a --code or --matrix file is read
_READ_ERRORS = (OSError, json.JSONDecodeError, KeyError, TypeError, AttributeError)


def _unreadable(path: str, exc: Exception) -> ValueError:
    return ValueError(f"cannot read {path}: {type(exc).__name__}: {exc}")


def _resolve_code(args, parser: argparse.ArgumentParser) -> CodeSpec:
    if args.code:
        try:
            return CodeSpec.load(args.code)
        except _READ_ERRORS as exc:
            raise _unreadable(args.code, exc) from exc
    if args.n is None:
        parser.error("need --code or --n with a construction")
    if args.mmin is not None:
        masks = [int(m) for m in args.mmin.split(",") if m != ""]
        return construct_explicit(args.n, masks)
    if args.K is None:
        parser.error("need --K with --pw or --bec")
    if args.bec is not None:
        return construct_bec(args.n, args.K, args.bec)
    if args.pw:
        return construct_pw(args.n, args.K)
    parser.error("choose a construction: --pw, --bec EPS, or --mmin MASKS")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj: dict | list, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out_path)


def _code_report(spec: CodeSpec) -> dict:
    report = spec.to_json()
    report["masks"] = sorted(spec.monomials.masks)
    report["is_decreasing"] = spec.is_decreasing()
    if spec.is_decreasing():
        profile = block_profile(spec.monomials)
        report["profile"] = list(profile)
        report["blta_order_linear"] = blta_order(profile)
    return report


def cmd_construct(args, parser) -> int:
    spec = _resolve_code(args, parser)
    _dump(_code_report(spec), args.out)
    return 0


def cmd_profile(args, parser) -> int:
    spec = _resolve_code(args, parser)
    profile = block_profile(spec.monomials)
    _dump(
        {
            "code": spec.code_id(),
            "n": spec.n,
            "K": spec.K,
            "profile": list(profile),
            "blta_order_linear": blta_order(profile),
            "blta_order_full": blta_order(profile) << spec.n,
        },
        args.out,
    )
    return 0


def cmd_verify_theorem(args, parser) -> int:
    if args.battery:
        if args.battery != "n3":
            parser.error("only the n3 battery is built in")
        reports = [
            verify_blta_completeness(ms, code_id=f"n3-downset-{i}", jobs=args.jobs)
            for i, ms in enumerate(all_decreasing_sets(3))
        ]
        ok = all(r.passed for r in reports)
        _dump(
            {"battery": "n3", "pass": ok, "reports": [r.to_json() for r in reports]},
            args.out,
        )
        return 0 if ok else 1
    spec = _resolve_code(args, parser)
    report = verify_blta_completeness(spec.monomials, code_id=spec.code_id(), jobs=args.jobs)
    _dump(report.to_json(), args.out)
    return 0 if report.passed else 1


def cmd_enumerate_aut(args, parser) -> int:
    spec = _resolve_code(args, parser)
    obj = verify_blta_completeness(spec.monomials, code_id=spec.code_id(), jobs=args.jobs).to_json()
    out = {k: obj[k] for k in ("code", "n", "K", "aut_count", "profile", "blta_count")}
    out["translations_note"] = "counts are linear parts; multiply by 2^n for (A, b) pairs"
    _dump(out, args.out)
    return 0


def _load_affine(args, parser) -> AffineMap:
    if args.matrix:
        try:
            with open(args.matrix, "r", encoding="utf-8") as fh:
                return AffineMap.from_json(json.load(fh))
        except _READ_ERRORS as exc:
            raise _unreadable(args.matrix, exc) from exc
    if args.matrix_masks:
        masks = [int(m) for m in args.matrix_masks.split(",")]
        return AffineMap.from_linear(BitMatrix(masks, len(masks)))
    parser.error("need --matrix FILE or --matrix-masks MASKS")


def cmd_witness(args, parser) -> int:
    spec = _resolve_code(args, parser)
    t = _load_affine(args, parser)
    try:
        if args.j is not None:
            trace = transposition_reduction_trace(t, spec.monomials, args.i, args.j)
        else:
            trace = transposition_witness(t.a, spec.monomials, args.i)
    except FalsificationError as exc:
        _dump({"falsification_candidate": str(exc), "context": exc.context}, args.out)
        return 1
    _dump(trace.to_json(), args.out)
    return 0


def cmd_sample_perms(args, parser) -> int:
    spec = _resolve_code(args, parser)
    profile = (1,) * spec.n if args.lta_only else block_profile(spec.monomials)
    rng = random.Random(args.seed)
    out = []
    for _ in range(args.L):
        t = sample_blta(profile, rng)
        ok = is_affine_automorphism(t, spec.monomials)
        report = sc_invariance_check(t, spec, trials=args.trials, seed=args.seed)
        out.append(
            {
                "matrix": t.to_json(),
                "permutation": induced_permutation(t),
                "is_automorphism": ok,
                "sc_invariant_fraction": report.fraction,
            }
        )
    _dump({"profile": list(profile), "seed": args.seed, "perms": out}, args.out)
    return 0 if all(e["is_automorphism"] for e in out) else 1


def _csv_line(res, param: float) -> str:
    lo, hi = res.wilson()
    return (
        f"{res.frames},{res.errors},{res.bler:.8e},{lo:.8e},{hi:.8e},"
        f"{param:g},{res.decoder},{res.ensemble_size},{res.seed}"
    )


def cmd_simulate(args, parser) -> int:
    spec = _resolve_code(args, parser)
    if args.snr is not None:
        points = [AwgnBpskChannel(float(s)) for s in args.snr.split(",")]
    elif args.epsilon is not None:
        points = [BecChannel(float(e)) for e in args.epsilon.split(",")]
    else:
        parser.error("need --snr DB[,DB...] or --epsilon EPS[,EPS...]")

    perms = None
    if args.decoder == "ae":
        profile = block_profile(spec.monomials)
        rng = random.Random(args.seed)
        maps = [sample_blta(profile, rng) for _ in range(args.L)]
        for t in maps:
            if not is_affine_automorphism(t, spec.monomials):
                print("error: sampled map failed the automorphism check", file=sys.stderr)
                return 1
        perms = [induced_permutation(t) for t in maps]

    lines = ["frame_count,errors,bler,wilson_lo,wilson_hi,snr_db_or_epsilon,decoder,L,seed"]
    for channel in points:
        res = simulate_bler(
            spec,
            channel,
            num_frames=args.frames,
            seed=args.seed,
            decoder=args.decoder,
            perms=perms,
            jobs=args.jobs,
        )
        lines.append(_csv_line(res, channel.param_value))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_selftest(args, parser) -> int:
    results = run_all(seed=args.seed, quick=not args.full)
    _emit("".join(r.line() + "\n" for r in results), args.out)
    return 0 if all(r.passed for r in results) else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polaraut",
        description="Decreasing monomial codes: construction, affine automorphism "
        "groups, exhaustive group verification, and ensemble SC decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, code=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (results are independent of this)")
        p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
        if code:
            _add_code_args(p)

    p = sub.add_parser("construct", help="build a code and report set, generators, profile")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("profile", help="block profile and group orders of a code")
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify-theorem", help="exhaustively check BLTA == affine automorphism group")
    common(p)
    p.add_argument("--battery", choices=["n3"], help="run every decreasing set at n=3")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("enumerate-aut", help="the verify-theorem sweep's counts, without the verdict")
    common(p)
    p.set_defaults(func=cmd_enumerate_aut)

    p = sub.add_parser("witness", help="run the adjacent-swap witness (or the (i,j) reduction)")
    common(p)
    p.add_argument("--matrix", metavar="FILE", help="affine map JSON {A: [row masks], b: int}")
    p.add_argument("--matrix-masks", metavar="MASKS", help="comma-separated row masks, b = 0")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("sample-perms", help="sample ensemble permutations with screening report")
    common(p)
    p.add_argument("--L", type=_positive_int, default=8, help="ensemble size")
    p.add_argument("--lta-only", action="store_true", help="sample from the lower-triangular subgroup")
    p.add_argument("--trials", type=_positive_int, default=50, help="SC-invariance screening frames")
    p.set_defaults(func=cmd_sample_perms)

    p = sub.add_parser("simulate", help="Monte Carlo block error rate (CSV)")
    common(p)
    p.add_argument("--decoder", choices=["sc", "ae"], default="sc")
    p.add_argument("--L", type=int, default=8, help="ensemble size for ae")
    p.add_argument("--frames", type=int, default=10000)
    p.add_argument("--snr", metavar="DB[,DB...]", help="AWGN Eb/N0 sweep")
    p.add_argument("--epsilon", metavar="E[,E...]", help="BEC erasure sweep")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("selftest", help="run the algebraic property suites")
    common(p, code=False)
    p.add_argument("--full", action="store_true", help="10^4 randomized instances per suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except FalsificationError as exc:
        json.dump({"falsification_candidate": str(exc), "context": exc.context},
                  sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
