"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import ast
import glob
import json
import os
import shutil
import subprocess
import sys

from tracing import Span, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import polaraut  # noqa: E402

# Slated for deletion; a benchmark that used it would break on that change.
NOT_FOR_BENCHMARK = {"transposition_reduction"}


def bad_imports(source: str) -> list[str]:
    """Imports of polaraut other than public names of the package itself."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bad += [a.name for a in node.names if a.name.split(".")[0] == "polaraut"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "polaraut":
            if node.module != "polaraut":
                bad.append(node.module)
                continue
            for a in node.names:
                if (a.name.startswith("_") or a.name in NOT_FOR_BENCHMARK
                        or not hasattr(polaraut, a.name)):
                    bad.append(a.name)
    return bad


def test_benchmark_imports_only_public_names():
    files = [f for f in glob.glob(os.path.join(HERE, "*.py")) if not f.endswith("test_perfbench.py")]
    assert files
    for path in files:
        with open(path, encoding="utf-8") as fh:
            assert bad_imports(fh.read()) == [], path


def test_import_check_rejects_internals():
    assert bad_imports("from polaraut.autgroup import _aut_alive") == ["polaraut.autgroup"]
    assert bad_imports("import polaraut.decode") == ["polaraut.decode"]
    assert bad_imports("from polaraut import _x, transposition_reduction, simulate_bler") == [
        "_x", "transposition_reduction"]


def test_self_time_subtracts_direct_children():
    tr = Tracer(enabled=True)
    tr.spans = [
        Span("timed", "bench", 0.0, 10.0, None),
        Span("simulate_bler.sc", "decode", 1.0, 4.0, 0),
        Span("verify.n4", "autgroup", 5.0, 9.0, 0),
        Span("setup", "bench", 10.0, 12.0, None),
        Span("construct", "monomial", 10.0, 11.0, 3),
    ]
    assert tr.self_time_by_layer(("timed",)) == {"bench": 3.0, "decode": 3.0, "autgroup": 4.0}
    assert tr.durations("construct", ("setup",)) == [1.0]
    assert tr.durations("construct", ("timed",)) == []


def test_disabled_tracer_records_nothing():
    tr = Tracer(enabled=False)
    with tr.span("timed"):
        assert tr.call("x", polaraut.construct_pw, 3, 4).K == 4
    assert tr.spans == []


def test_run_parts_scales_each_call_by_the_probes_near_it(monkeypatch):
    import time

    import worker

    readings = iter([0.01, 0.03, 0.02])
    monkeypatch.setattr(worker, "probe", lambda: next(readings))
    monkeypatch.setattr(worker, "PROBE_ROUND_S", 0.0)  # a reading after every call
    lengths = iter([0.2, 0.01])

    def step():
        time.sleep(next(lengths))
        return "k", 0.3

    samples, probes = worker.run_parts(0.0, {"a": (1.0, 2, step)})
    assert [r for _, r in probes] == [0.01, 0.03, 0.02]
    assert [(x.key, x.wall_s) for x in samples["a"]] == [("k", 0.3), ("k", 0.3)]
    # the long first call is within its length of all three readings,
    # the short second one only of the two around it; nominal is 0.02 s
    assert [round(x.scaled_s, 12) for x in samples["a"]] == [0.3, 0.24]


def test_every_metric_is_documented():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = {w["name"] for w in bench["workloads"]}
    assert set(spec["pins"]) == workloads
    assert set(spec["setups_side_by_side"]) <= workloads
    assert {m["name"] for m in bench["per_layer"]} == set(spec["per_layer"])
    for m in spec["per_layer"].values():
        assert set(m["workloads"]) <= workloads
    assert {m["name"] for m in bench["end_to_end"]} == set(spec["end_to_end"])
    for aliases in spec["end_to_end"].values():
        assert set(aliases) == workloads


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""
