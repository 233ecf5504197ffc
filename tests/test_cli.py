import enum
import json
from pathlib import Path

import pytest

from polaraut import autgroup, cli, gl_order
from polaraut.autgroup import FalsificationError
from polaraut.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_pw_json(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "3", "--K", "4", "--pw")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 3 and obj["K"] == 4 and obj["construction"] == "pw"
        assert obj["is_decreasing"] is True
        assert "masks" in obj and "profile" in obj

    def test_full_code_profile(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "2", "--K", "4", "--pw")
        obj = json.loads(out)
        assert obj["profile"] == [2]

    def test_explicit_closure_echoed(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "2", "--mmin", "3")
        obj = json.loads(out)
        assert sorted(obj["masks"]) == [0, 1, 2, 3]
        assert obj["m_min_masks"] == [3]

    def test_output_file_loadable(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        code, _, _ = run(capsys, "construct", "--n", "4", "--K", "8", "--bec", "0.5",
                         "--out", str(path))
        assert code == 0
        code2, out2, _ = run(capsys, "profile", "--code", str(path))
        assert code2 == 0
        assert json.loads(out2)["n"] == 4

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "construct", "--n", "3", "--K", "4")
        assert exc.value.code == 2


class TestProfile:
    def test_rm13(self, capsys):
        code, out, _ = run(capsys, "profile", "--n", "3", "--mmin", "4")
        obj = json.loads(out)
        assert obj["profile"] == [3]
        assert obj["blta_order_linear"] == gl_order(3)
        assert obj["blta_order_full"] == gl_order(3) * 8


class TestVerifyTheorem:
    def test_battery_n3(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--battery", "n3")
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert len(obj["reports"]) == 10

    def test_single_code(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--n", "4", "--K", "8", "--pw")
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert obj["aut_count"] == obj["blta_count"]

    def test_rm14_count(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--n", "4", "--mmin", "8")
        obj = json.loads(out)
        assert code == 0 and obj["aut_count"] == 20160

    def test_n5_passes(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--n", "5", "--K", "12", "--pw")
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True and obj["aut_count"] == obj["blta_count"]

    def test_counterexample_exits_1(self, capsys, monkeypatch):
        # a wrong profile for RM(1,3) (true profile (3,)) shrinks BLTA to the
        # lower-triangular group, so the sweep finds automorphisms outside it
        monkeypatch.setattr(autgroup, "block_profile", lambda ms: (1, 1, 1))
        code, out, _ = run(capsys, "verify-theorem", "--n", "3", "--mmin", "4")
        obj = json.loads(out)
        assert code == 1
        assert obj["pass"] is False
        assert obj["aut_count"] == gl_order(3) and obj["blta_count"] == 8
        rows = obj["counterexample"]
        assert len(rows) == 3 and any(row >> (k + 1) for k, row in enumerate(rows))

    def test_refuses_n6(self, capsys):
        code, _, err = run(capsys, "verify-theorem", "--n", "6", "--K", "32", "--pw")
        assert code == 2
        assert "n <= 5" in err


class TestEnumerateAut:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate-aut", "--n", "3", "--mmin", "4")
        obj = json.loads(out)
        assert code == 0
        assert obj["aut_count"] == 168 and obj["blta_count"] == 168

    def test_counts_are_verify_theorems(self, capsys):
        code_args = ["--n", "4", "--K", "8", "--bec", "0.5"]
        code, out, _ = run(capsys, "enumerate-aut", *code_args)
        assert code == 0
        enum = json.loads(out)
        code, out, _ = run(capsys, "verify-theorem", *code_args)
        assert code == 0
        verify = json.loads(out)
        keys = ["code", "n", "K", "aut_count", "profile", "blta_count"]
        assert list(enum) == keys + ["translations_note"]
        assert {k: enum[k] for k in keys} == {k: verify[k] for k in keys}


class TestWitness:
    def test_adjacent_swap(self, capsys, tmp_path):
        mat = tmp_path / "map.json"
        # permutation matrix swapping x1, x2 on RM(1,4): rows 1,2 exchanged
        mat.write_text(json.dumps({"A": [1, 4, 2, 8], "b": 0}))
        code, out, _ = run(capsys, "witness", "--n", "4", "--mmin", "8",
                           "--matrix", str(mat), "--i", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["swap_preserves_set"] is True
        assert obj["i"] == 1

    def test_reduction_i_j(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "4", "--mmin", "8",
                           "--matrix-masks", "8,2,4,1", "--i", "0", "--j", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["swap_preserves_set"] is True
        assert len(obj["witnesses"]) == 3

    def test_reduction_where_the_column_fill_sets_the_superdiagonal(self, capsys):
        # all monomials but x0x1x2x3; at k = 1 adding column 3 to column 2
        # already sets (1, 2), so no row addition may follow
        code, out, _ = run(capsys, "witness", "--n", "4", "--mmin", "14",
                           "--matrix-masks", "11,10,9,7", "--i", "0", "--j", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["swap_preserves_set"] is True
        assert len(obj["witnesses"]) == 3

    def test_bad_precondition_is_usage_error(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "3", "--mmin", "4",
                           "--matrix-masks", "1,2,4", "--i", "0")
        assert code == 2
        assert "must be 1" in err

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_falsification_candidate_exits_1(self, capsys, monkeypatch, tmp_path, to_file):
        def refuted(a, ms, i):
            raise FalsificationError("rank bound violated", {"monomial": 3, "i": i})

        monkeypatch.setattr(cli, "transposition_witness", refuted)
        path = tmp_path / "evidence.json"
        extra = ["--out", str(path)] if to_file else []
        code, out, err = run(capsys, "witness", "--n", "3", "--mmin", "4",
                             "--matrix-masks", "3,2,4", "--i", "0", *extra)
        assert code == 1 and err == ""
        if to_file:
            assert out == ""
            out = path.read_text()
        assert json.loads(out) == {"falsification_candidate": "rank bound violated",
                                   "context": {"monomial": 3, "i": 0}}

    def test_dimension_mismatch(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "3", "--mmin", "4",
                           "--matrix-masks", "1,2,4,8", "--i", "0")
        assert code == 2


class TestSamplePerms:
    def test_rm13_all_valid(self, capsys):
        code, out, _ = run(capsys, "sample-perms", "--n", "3", "--mmin", "4",
                           "--L", "8", "--seed", "5", "--trials", "20")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["perms"]) == 8
        assert all(e["is_automorphism"] for e in obj["perms"])
        for e in obj["perms"]:
            assert sorted(e["permutation"]) == list(range(8))

    def test_lta_only_all_invariant(self, capsys):
        code, out, _ = run(capsys, "sample-perms", "--n", "4", "--K", "8", "--pw",
                           "--L", "4", "--lta-only", "--trials", "30")
        assert code == 0
        obj = json.loads(out)
        assert obj["profile"] == [1, 1, 1, 1]
        assert all(e["sc_invariant_fraction"] == 1.0 for e in obj["perms"])

    def test_rate0_code_all_invariant(self, capsys):
        # with no information row SC decodes every frame and its permuted
        # copy to the zero word, so the screen needs no noise sigma, which
        # AWGN lacks at rate 0
        code, out, err = run(capsys, "sample-perms", "--n", "3", "--mmin", "", "--L", "2", "--trials", "4")
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert len(obj["perms"]) == 2
        assert all(e["is_automorphism"] and e["sc_invariant_fraction"] == 1.0 for e in obj["perms"])


class TestSimulate:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "4", "--K", "8", "--pw",
                           "--frames", "200", "--snr", "2.0,3.0", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "frame_count,errors,bler,wilson_lo,wilson_hi,snr_db_or_epsilon,decoder,L,seed"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "200" and first[6] == "sc" and first[8] == "1"

    def test_bec_sweep(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "3", "--K", "4", "--pw",
                           "--frames", "100", "--epsilon", "0.0", "--seed", "0")
        lines = out.strip().splitlines()
        assert lines[1].split(",")[1] == "0"  # no errors without erasures

    def test_ae_runs(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "4", "--K", "8", "--pw",
                           "--decoder", "ae", "--L", "4", "--frames", "200",
                           "--snr", "2.0", "--seed", "3")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[6] == "ae"

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_failed_ensemble_check_exits_1(self, capsys, monkeypatch, tmp_path, to_file):
        # a sampled map that fails the check stops the run before any frame
        monkeypatch.setattr(cli, "is_affine_automorphism", lambda t, ms: False)
        path = tmp_path / "bler.csv"
        extra = ["--out", str(path)] if to_file else []
        code, out, err = run(capsys, "simulate", "--n", "4", "--K", "8", "--pw",
                             "--decoder", "ae", "--L", "2", "--frames", "10",
                             "--snr", "1", *extra)
        assert code == 1
        assert err == "error: sampled map failed the automorphism check\n"
        assert out == "" and not path.exists()

    def test_jobs_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--n", "4", "--K", "8", "--pw", "--frames", "3000",
                "--snr", "2.0", "--seed", "7"]
        assert main(args + ["--jobs", "1", "--out", str(f1)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_golden_bytes(self, capsys):
        # tests/data/simulate_golden.csv holds each command's output, after
        # a "# argv" line, as written by commit 51882c5, before the pruned
        # f steps and the in-place channel; the next two by commit c31bee3,
        # before the ensemble decoded each LTA coset once; the next by commit
        # e66e40f, before an all-LTA ensemble decoded as one SC pass;
        # the last three by commit d84e7c3, before the ensemble decoded once
        # per class of LTA cosets that SC cannot tell apart
        golden = (Path(__file__).parent / "data" / "simulate_golden.csv").read_text()
        blocks = []
        for argv in GOLDEN_SIMULATE:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            blocks.append("# " + " ".join(argv) + "\n" + out)
        assert "".join(blocks) == golden

    def test_needs_channel(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "simulate", "--n", "3", "--K", "4", "--pw")
        assert exc.value.code == 2


PW6 = ["--n", "6", "--K", "32", "--pw"]
PW8 = ["--n", "8", "--K", "128", "--pw"]
GOLDEN_SIMULATE = [
    ["simulate", *PW6, "--decoder", "sc", "--snr", "3.0,3.5", "--frames", "3000", "--seed", "5"],
    ["simulate", *PW6, "--decoder", "ae", "--L", "8", "--snr", "3.0,3.5", "--frames", "3000", "--seed", "5"],
    ["simulate", *PW6, "--decoder", "sc", "--epsilon", "0.4", "--frames", "4000", "--seed", "6"],
    ["simulate", *PW6, "--decoder", "ae", "--L", "8", "--epsilon", "0.4", "--frames", "4000", "--seed", "6"],
    ["simulate", *PW8, "--decoder", "sc", "--snr", "2.5", "--frames", "2000", "--seed", "7"],
    ["simulate", *PW8, "--decoder", "ae", "--L", "8", "--snr", "2.5", "--frames", "2000", "--seed", "7"],
    # PW(10,512) has BLTA = LTA, so its AE-8 ensemble is all LTA and decodes
    # as SC
    ["simulate", "--n", "10", "--K", "512", "--pw", "--decoder", "ae", "--L", "8", "--snr", "2.0,2.5",
     "--frames", "2000", "--seed", "8"],
    # PW(8,128)'s AE-8 ensemble spans 3 cosets, whose members disagree on
    # frames where a decision reads an erasure's exact 0.0
    ["simulate", *PW8, "--decoder", "ae", "--L", "8", "--epsilon", "0.35,0.4", "--frames", "3000", "--seed", "9"],
    # PW(10,512)'s all-LTA ensemble on BEC: the frames whose decisions read
    # an erasure's exact 0.0 are decoded again under every member
    ["simulate", "--n", "10", "--K", "512", "--pw", "--decoder", "ae", "--L", "8", "--frames", "2048",
     "--epsilon", "0.35,0.4", "--seed", "3"],
    # PW(6,32)'s AE-8 ensembles fall in 3 classes of right LTA cosets that
    # SC cannot tell apart: on BEC, whose erasures flag frames, and at low
    # SNR, where repetition sums in the absorbed nodes come close to 0
    ["simulate", *PW6, "--decoder", "ae", "--L", "8", "--epsilon", "0.3,0.4", "--frames", "3000", "--seed", "10"],
    ["simulate", *PW6, "--decoder", "ae", "--L", "8", "--snr", "0,1", "--frames", "3000", "--seed", "11"],
    # RM(2,6), whose BLTA group is GL(6, 2) and whose H is LTA: 8 cosets
    ["simulate", "--n", "6", "--mmin", "48", "--decoder", "ae", "--L", "8", "--snr", "2.0", "--frames", "2000",
     "--seed", "12"],
]
SIM = ["simulate", "--n", "3", "--K", "4", "--pw", "--snr", "1"]
AWGN = ["simulate", "--n", "3", "--K", "4", "--pw", "--frames", "10"]


# the whole error message, for the argv of the test below that pin one
_REJECTION_MESSAGES = {
    ("construct", "--K", "4", "--pw"): "error: need --code or --n with a construction\n",
    ("construct", "--n", "3", "--pw"): "error: need --K with --pw or --bec\n",
    ("witness", "--n", "3", "--mmin", "4", "--i", "0"):
        "error: need --matrix FILE or --matrix-masks MASKS\n",
    ("construct", "--n", "3", "--mmin", "-1"): "error: negative monomial mask -1\n",
    ("construct", "--n", "3", "--K", "99", "--mmin", "3"): "error: --mmin takes no --K\n",
    ("construct", "--code", "{tmp}/code.json", "--n", "5", "--K", "7"): "error: --code takes no --n or --K\n",
    (*SIM, "--decoder", "sc", "--L", "3"): "error: --L takes --decoder ae\n",
    (*SIM, "--L", "8"): "error: --L takes --decoder ae\n",
}


@pytest.mark.parametrize("argv", [
    pytest.param(["construct", "--n", "3", "--K", "99", "--pw"], id="argv0"),
    pytest.param(["construct", "--n", "3", "--K", "4", "--bec", "1.5"], id="argv1"),
    pytest.param(["construct", "--n", "40", "--K", "1", "--pw"], id="argv2"),
    pytest.param(["construct", "--n", "40", "--K", "1", "--bec", "0.5"], id="argv3"),
    pytest.param(["construct", "--n", "40", "--mmin", "3"], id="argv4"),
    pytest.param(["construct", "--n", "-1", "--K", "0", "--pw"], id="argv5"),
    pytest.param(["construct", "--n", "3", "--mmin", "-1"], id="argv6"),
    pytest.param(["construct", "--K", "4", "--pw"], id="argv7"),
    pytest.param(["construct", "--n", "3", "--pw"], id="argv8"),
    pytest.param(["witness", "--n", "3", "--mmin", "4", "--i", "0"], id="argv9"),
    pytest.param(SIM + ["--frames", "0"], id="argv10"),
    pytest.param(SIM + ["--decoder", "ae", "--L", "0"], id="argv11"),
    pytest.param(SIM + ["--decoder", "ae", "--L", "-1"], id="argv12"),
    pytest.param(SIM + ["--decoder", "sc", "--L", "-5"], id="argv13"),
    pytest.param(SIM + ["--jobs", "0"], id="argv14"),
    pytest.param(SIM + ["--jobs", "-3"], id="argv15"),
    pytest.param(["witness", "--n", "3", "--mmin", "4", "--matrix-masks", "1,1,4", "--i", "0"],
                 id="argv16"),
    pytest.param(["witness", "--n", "4", "--mmin", "8", "--matrix-masks", "1,2,4", "--i", "0"],
                 id="argv17"),
    pytest.param(["witness", "--n", "4", "--mmin", "8", "--matrix-masks", "1,2,4", "--i", "0", "--j", "3"],
                 id="argv18"),
    pytest.param(["profile", "--code", "{tmp}/missing.json"], id="argv19"),
    pytest.param(["profile", "--code", "{tmp}/list.json"], id="argv20"),
    pytest.param(["profile", "--code", "{tmp}/cut.json"], id="argv21"),
    pytest.param(["witness", "--n", "4", "--mmin", "8", "--matrix", "{tmp}/missing.json", "--i", "0"],
                 id="argv22"),
    pytest.param(["witness", "--n", "4", "--mmin", "8", "--matrix", "{tmp}/no_a.json", "--i", "0"],
                 id="argv23"),
    pytest.param(["witness", "--n", "4", "--mmin", "8", "--matrix", "{tmp}/list.json", "--i", "0"],
                 id="argv24"),
    pytest.param(["sample-perms", "--n", "3", "--mmin", "4", "--L", "0"], id="argv25"),
    pytest.param(["sample-perms", "--n", "3", "--mmin", "4", "--L", "-2"], id="argv26"),
    pytest.param(["sample-perms", "--n", "3", "--mmin", "4", "--trials", "0"], id="argv27"),
    pytest.param(AWGN + ["--snr=-inf"], id="argv28"),
    pytest.param(AWGN + ["--snr=-4000"], id="argv29"),
    pytest.param(AWGN + ["--snr=4000"], id="argv30"),
    pytest.param(AWGN + ["--snr", "nan"], id="argv31"),
    pytest.param(AWGN + ["--snr", "inf"], id="argv32"),
    pytest.param(["simulate", "--n", "3", "--mmin=", "--snr", "1"], id="argv33"),
    # the K = 0 code screens without a draw and fails only on its --out
    pytest.param(["sample-perms", "--n", "3", "--mmin=", "--out", "{tmp}/missing/x.json"],
                 id="argv34"),
    pytest.param(["verify-theorem", "--battery", "n4"], id="argv35"),
    pytest.param(["construct", "--n", "3", "--K", "4", "--pw", "--out", "{tmp}/missing/x.json"],
                 id="argv36"),
    pytest.param(["construct", "--n", "3", "--K", "4", "--pw", "--out", "{tmp}"], id="argv37"),
    pytest.param(["profile", "--n", "3", "--K", "4", "--pw", "--out", "{tmp}/missing/x.json"],
                 id="argv38"),
    pytest.param(["verify-theorem", "--n", "3", "--K", "4", "--pw", "--out", "{tmp}"], id="argv39"),
    pytest.param(["enumerate-aut", "--n", "3", "--K", "4", "--pw", "--out", "{tmp}/missing/x.json"],
                 id="argv40"),
    pytest.param(["witness", "--n", "4", "--mmin", "8", "--matrix-masks", "8,2,4,1", "--i", "0", "--j", "3",
                  "--out", "{tmp}"], id="argv41"),
    pytest.param(["sample-perms", "--n", "3", "--mmin", "4", "--L", "2", "--out", "{tmp}/missing/x.json"],
                 id="argv42"),
    pytest.param(SIM + ["--frames", "10", "--out", "{tmp}"], id="argv43"),
    pytest.param(["selftest", "--out", "{tmp}/missing/x.txt"], id="argv44"),
    pytest.param(["construct", "--code", "{tmp}/deep.json"], id="argv45"),
    pytest.param(["construct", "--code", "{tmp}/deep_masks.json"], id="argv46"),
    pytest.param(["witness", "--n", "3", "--mmin", "1", "--matrix", "{tmp}/deep.json", "--i", "0"],
                 id="argv47"),
    pytest.param(["construct", "--n", "3", "--K", "4", "--pw", "--mmin", "1,,2"], id="argv48"),
    pytest.param(["construct", "--n", "3", "--K", "4", "--pw", "--bec", "0.5"], id="argv49"),
    pytest.param(["construct", "--code", "{tmp}/code.json", "--pw"], id="argv50"),
    pytest.param(["construct", "--n", "3", "--K", "99", "--mmin", "3"], id="argv51"),
    pytest.param(["construct", "--code", "{tmp}/code.json", "--n", "5", "--K", "7"], id="argv52"),
    pytest.param(["profile", "--code", "{tmp}/code.json", "--K", "4"], id="argv53"),
    pytest.param(["simulate", "--code", "{tmp}/code.json", "--n", "3", "--snr", "1"], id="argv54"),
    pytest.param(SIM + ["--decoder", "sc", "--L", "3"], id="argv55"),
    pytest.param(SIM + ["--L", "8"], id="argv56"),
    # --jobs only where it is read (simulate), --seed only in simulate,
    # sample-perms and selftest
    pytest.param(["construct", "--n", "3", "--K", "4", "--pw", "--jobs", "5"], id="argv57"),
    pytest.param(["construct", "--n", "3", "--K", "4", "--pw", "--seed", "9"], id="argv58"),
    pytest.param(["profile", "--n", "3", "--K", "4", "--pw", "--seed", "1"], id="argv59"),
    pytest.param(["verify-theorem", "--n", "4", "--mmin", "8", "--jobs", "2"], id="argv60"),
    pytest.param(["verify-theorem", "--battery", "n3", "--seed", "2"], id="argv61"),
    pytest.param(["enumerate-aut", "--n", "3", "--mmin", "4", "--jobs", "2"], id="argv62"),
    pytest.param(["witness", "--n", "4", "--mmin", "8", "--matrix-masks", "8,2,4,1", "--i", "0", "--seed", "3"],
                 id="argv63"),
    pytest.param(["sample-perms", "--n", "3", "--mmin", "4", "--jobs", "7"], id="argv64"),
    pytest.param(["selftest", "--jobs", "2"], id="argv65"),
])
def test_rejected_argument_exits_2(capsys, tmp_path, argv):
    (tmp_path / "code.json").write_text('{"n": 3, "m_min_masks": [3]}')
    (tmp_path / "no_a.json").write_text('{"B": 1}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "cut.json").write_text('{"n": 3, "K": 2')
    # nested deeper than the JSON decoder recurses: a RecursionError
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "deep_masks.json").write_text('{"n": 3, "m_min_masks": ' + "[" * 5000 + "]" * 5000 + "}")
    message = _REJECTION_MESSAGES.get(tuple(argv), "")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    try:
        code = main(argv)
        parsed = True
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
        parsed = False
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.count("error: ") == 1
    if parsed:  # the program names the file it could not use; argparse's own errors do not
        assert err.startswith("error: ") and err.count("\n") == 1
        for path in (a for a in argv if a.startswith(str(tmp_path))):
            assert path in err
    assert message in err


class _Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [1], {"b": [[]]}],
    [True, False], [1, True, 0], [0, -5, 10**30], [_Level.LOW, 2], (1, 2), [(3,), ()],
    [1, 2.0], [1.5, float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324],
    ["é", "a\nb", '"q"', "\\", "\u2028", "\x00\t", "\ud83d\ude00", ""],
    {"ключ": [1, 2], "k\n": None, "": [None, "x"]},
    {1: [2, 3], "a": {"b": [4]}}, {None: 1, 1.5: [True]},
    {"a": [{"b": [1, 2]}, [3, [4, []]], {"c": {"d": [[5, 6], [-7]]}}]},
    None, 3, True, "s", 2.5,
], ids=lambda obj: repr(obj)[:30])
def test_dumps_is_json_indent_2(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


class TestSelftest:
    def test_passes(self, capsys):
        for extra in ([], ["--full"]):
            code, out, _ = run(capsys, "selftest", "--seed", "0", *extra)
            assert code == 0
            assert "[ok]" in out and "[FAIL]" not in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "selftest.txt"
        code, out, _ = run(capsys, "selftest", "--seed", "0", "--out", str(path))
        assert code == 0 and out == ""
        lines = path.read_text().splitlines()
        assert lines and all(line.startswith("[ok] ") for line in lines)
