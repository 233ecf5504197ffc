import json

import pytest

from polaraut.cli import main
from polaraut import gl_order


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

    def test_n5_passes_and_is_independent_of_jobs(self, capsys):
        outs = []
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "verify-theorem", "--n", "5", "--K", "12", "--pw",
                               "--jobs", jobs)
            assert code == 0
            outs.append(out)
        obj = json.loads(outs[0])
        assert obj["pass"] is True and obj["aut_count"] == obj["blta_count"]
        assert outs[0] == outs[1]

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_counts_are_verify_theorems(self, capsys, jobs):
        code_args = ["--n", "4", "--K", "8", "--bec", "0.5", "--jobs", jobs]
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

    def test_bad_precondition_is_usage_error(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "3", "--mmin", "4",
                           "--matrix-masks", "1,2,4", "--i", "0")
        assert code == 2
        assert "must be 1" in err

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

    def test_jobs_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--n", "4", "--K", "8", "--pw", "--frames", "3000",
                "--snr", "2.0", "--seed", "7"]
        assert main(args + ["--jobs", "1", "--out", str(f1)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_needs_channel(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "simulate", "--n", "3", "--K", "4", "--pw")
        assert exc.value.code == 2


SIM = ["simulate", "--n", "3", "--K", "4", "--pw", "--snr", "1"]
AWGN = ["simulate", "--n", "3", "--K", "4", "--pw", "--frames", "10"]


@pytest.mark.parametrize("argv", [
    ["construct", "--n", "3", "--K", "99", "--pw"],
    ["construct", "--n", "3", "--K", "4", "--bec", "1.5"],
    SIM + ["--frames", "0"],
    SIM + ["--decoder", "ae", "--L", "0"],
    SIM + ["--jobs", "0"],
    SIM + ["--jobs", "-3"],
    ["witness", "--n", "3", "--mmin", "4", "--matrix-masks", "1,1,4", "--i", "0"],
    ["witness", "--n", "4", "--mmin", "8", "--matrix-masks", "1,2,4", "--i", "0"],
    ["witness", "--n", "4", "--mmin", "8", "--matrix-masks", "1,2,4", "--i", "0", "--j", "3"],
    ["profile", "--code", "{tmp}/missing.json"],
    ["profile", "--code", "{tmp}/list.json"],
    ["profile", "--code", "{tmp}/cut.json"],
    ["witness", "--n", "4", "--mmin", "8", "--matrix", "{tmp}/missing.json", "--i", "0"],
    ["witness", "--n", "4", "--mmin", "8", "--matrix", "{tmp}/no_a.json", "--i", "0"],
    ["witness", "--n", "4", "--mmin", "8", "--matrix", "{tmp}/list.json", "--i", "0"],
    ["sample-perms", "--n", "3", "--mmin", "4", "--L", "0"],
    ["sample-perms", "--n", "3", "--mmin", "4", "--L", "-2"],
    ["sample-perms", "--n", "3", "--mmin", "4", "--trials", "0"],
    AWGN + ["--snr=-inf"],
    AWGN + ["--snr=-4000"],
    AWGN + ["--snr=4000"],
    AWGN + ["--snr", "nan"],
    AWGN + ["--snr", "inf"],
    ["simulate", "--n", "3", "--mmin=", "--snr", "1"],
    ["sample-perms", "--n", "3", "--mmin="],
])
def test_rejected_argument_exits_2(capsys, tmp_path, argv):
    (tmp_path / "no_a.json").write_text('{"B": 1}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "cut.json").write_text('{"n": 3, "K": 2')
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    try:
        code = main(argv)
        parsed = True
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
        parsed = False
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    if parsed:
        assert err.startswith("error: ") and err.count("\n") == 1
    for path in (a for a in argv if a.startswith(str(tmp_path))):
        assert path in err


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "0")
        assert code == 0
        assert "[ok]" in out and "[FAIL]" not in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "selftest.txt"
        code, out, _ = run(capsys, "selftest", "--seed", "0", "--out", str(path))
        assert code == 0 and out == ""
        lines = path.read_text().splitlines()
        assert lines and all(line.startswith("[ok] ") for line in lines)
