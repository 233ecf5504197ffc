"""Run one workload of the polaraut benchmark and print its metrics.

    python3 perfbench/run.py --workload sim-short --seed 1 --seconds 8 --trace 0

Run it from the root of a checkout: the package is imported from
``src/`` there.  The workload runs in fresh interpreters started from
here, a set-up-only process and a measuring process (two processes at
most, numpy limited to one thread each, ``jobs=1``), so that
``setup_s`` includes every lazy table the package builds and
``peak_rss_mb`` belongs to one workload process.  ``setup_s`` is the
median over both processes of the time from start to the end of
set-up.  The set-ups run one after the other, except on the workloads
spec.json lists in ``setups_side_by_side``.

The gated rates are medians of call times scaled to a nominal host
speed by a probe loop timed between the calls (hostspeed.py); the
wall-time rates are printed beside them.

Metric names, units and directions come from BENCHMARK.json; spec.json
holds the pinned counts and the meaning of every metric on every
workload.  The last line of stdout is the result object; the lines
before it give each metric under the name it has on the workload
(``sc_frames_per_s`` for ``bulk_light_per_s`` on sim-short) and the
run's metadata.  A record of the run, and for a traced run its
spans, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time


HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
REF_LOOP_N = 2_000_000
DEADLINE_S = 170.0  # a run must end within 180 s


class RunError(Exception):
    pass


def ref_loop() -> float:
    """A fixed pure-Python loop; its time tells machine drift apart from a
    change in the program."""
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_N):
        acc += i & 7
    return time.perf_counter() - t


def git_sha(root: str) -> str:
    """HEAD of the checkout read from .git without running git, or
    "unknown" outside a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """One line of a child's stdout, or RunError on end of file or when
    the deadline passes."""
    buf = b""
    fd = proc.stdout.fileno()
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise RunError("workload process timed out")
        chunk = os.read(fd, 4096)
        if not chunk:
            raise RunError(f"workload process ended early (exit {proc.wait()})")
        buf += chunk
    return buf.decode()


def wait_ready(proc: subprocess.Popen, started: float, deadline: float) -> float:
    """Set-up seconds of a workload process."""
    line = read_line(proc, deadline)
    if not line.startswith("READY "):
        raise RunError(f"unexpected line from workload process: {line!r}")
    return float(line.split()[1]) - started


def run_workload(root: str, args, side_by_side: bool) -> tuple[dict, float]:
    """Run the set-up-only and the measuring process, their set-ups one
    after the other or side by side; return the measuring process's
    result and the median set-up time."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(
        # bytecode is cached as Python does by default; only the first
        # run in a checkout compiles
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")]
    deadline = time.monotonic() + DEADLINE_S
    procs = []
    setups = []

    def finish_helper():
        setups.append(wait_ready(helper, t_helper, deadline))
        if helper.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
            raise RunError("set-up-only process failed")

    try:
        t_helper = time.monotonic()
        helper = subprocess.Popen(cmd + ["--setup-only"], stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, env=env, cwd=root, bufsize=0)
        procs.append(helper)
        if not side_by_side:
            finish_helper()
        t_main = time.monotonic()
        main = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=env, cwd=root, bufsize=0)
        procs.append(main)
        if side_by_side:
            finish_helper()
        setups.append(wait_ready(main, t_main, deadline))
        out, _ = main.communicate(b"GO\n", timeout=max(1.0, deadline - time.monotonic()))
        if main.returncode != 0:
            raise RunError(f"measuring process failed (exit {main.returncode})")
    except subprocess.TimeoutExpired as exc:
        raise RunError("workload process timed out") from exc
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
            p.stdout.close()
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = setups
    return result, statistics.median(setups)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the polaraut benchmark.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    # a terminated run still stops its workload processes (see run_workload)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polaraut", "__init__.py")):
        print("error: no src/polaraut here; run from the root of a polaraut checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    os.makedirs(OUT_DIR, exist_ok=True)

    ref_before = ref_loop()
    try:
        child, setup_s = run_workload(root, args, args.workload in spec["setups_side_by_side"])
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ref_after = ref_loop()

    if args.trace:
        values = dict(child["layer"])
        values["host.ref_loop_s"] = statistics.median([ref_before, ref_after])
        wanted = bench["per_layer"]
    else:
        values = dict(child["e2e"], setup_s=setup_s)
        wanted = bench["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in values:
            value = values[name]
        elif args.workload not in spec["per_layer"].get(name, {}).get("workloads", [args.workload]):
            value = 0.0  # the workload makes no call into this metric's layer
        else:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": m["unit"]}

    aliases = spec["end_to_end"]
    shown = dict(metrics)
    if not args.trace:
        aliases = dict(aliases, **spec["printed_not_gated"])
        for name, info in spec["printed_not_gated"].items():
            shown[name] = {"value": child["e2e"][name], "unit": info["unit"]}
    for name, m in shown.items():
        alias = aliases.get(name, {}).get(args.workload, name)
        extra = f" (n={child['e2e']['single_samples']})" if name.startswith("single_") else ""
        print(f"{args.workload} {alias} = {m['value']:.6g} {m['unit']}{extra}  [{name}]")
        wall = child["e2e"].get(f"wall_{name}")
        if wall is not None and not args.trace:
            print(f"{args.workload} {alias} = {wall:.6g} {m['unit']} in wall time  [wall_{name}]")
    attempted, failed = child["attempted"], child["failed"]
    for err in child["errors"]:
        print(f"{args.workload} failed: {err}")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "versions": child["versions"],
        "git_sha": git_sha(root),
        "host.ref_loop_s": {"before": ref_before, "after": ref_after},
        "probe_s_p50": child["probe_s_p50"],
        "setup_s": child["setup_s"],
        "failed_ops_frac": failed / attempted,
    }
    print(json.dumps({"meta": meta}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "child": child}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
