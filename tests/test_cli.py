import json

import pytest

from epsym.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_show_eps_text(capsys):
    code, out, _ = run_cli(capsys, "show-eps", "--preset", "ex-f")
    assert code == 0
    assert out.splitlines()[0] == "5"
    assert out.splitlines()[1] == "0 0 1 1 0"


def test_show_eps_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "show-eps", "--preset", "ex-d", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["entries"][0] == [0, 1, 0, 0]


def test_partitions_verb(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--k", "4", "--cat", "pair",
                           "--noncrossing")
    assert code == 0
    assert "{1,2}{3,4}" in out and "{1,4}{2,3}" in out
    assert "total: 2" in out


def test_ncset_verb(capsys):
    code, out, _ = run_cli(capsys, "ncset", "--preset", "comm", "--n", "2",
                           "--index", "1,2,1,2", "--cat", "pair")
    assert code == 0
    assert out.splitlines()[0] == "{1,3}{2,4}"


def test_moment_verb_free(capsys):
    code, out, _ = run_cli(capsys, "moment", "--preset", "free", "--n", "2",
                           "--index", "1,2,1,2", "--kappa", "semicircle")
    assert code == 0
    assert out.strip() == "0"


def test_moment_verb_comm(capsys):
    code, out, _ = run_cli(capsys, "moment", "--preset", "comm", "--n", "2",
                           "--index", "1,2,1,2")
    assert code == 0
    assert out.strip() == "1"


def test_tneps_prints_order_and_elements(capsys):
    code, out, _ = run_cli(capsys, "tneps", "--preset", "ex-d")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order: 8"
    assert len(lines) == 9


def test_tneps_json(capsys):
    code, out, _ = run_cli(capsys, "tneps", "--preset", "trivial6", "--json")
    data = json.loads(out)
    assert data["order"] == 1 and data["generators"] == []


def test_exchangeability_verb(capsys):
    code, out, _ = run_cli(capsys, "exchangeability", "--preset", "ex-d",
                           "--kappa", "semicircle", "--max-k", "3")
    assert code == 0
    assert out.startswith("PASS")


def test_coxeter_check_verb(capsys):
    code, out, _ = run_cli(capsys, "coxeter-check", "--preset", "ex-f")
    assert code == 0
    assert "FAIL" not in out


def test_word_verb(capsys):
    code, out, _ = run_cli(capsys, "word", "--preset", "ex-d", "--word", "1,2,1")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "word", "--preset", "ex-d",
                           "--word", "1,2", "--word2", "2,1")
    assert code == 0 and out.strip() == "EQUAL"


def test_rep_check_verb(capsys):
    code, out, _ = run_cli(capsys, "rep-check", "--preset", "ex-d",
                           "--relations", "magic,Rring_eps", "--witness")
    assert code == 0
    assert "do not commute" in out


def test_intertwiner_suite_verb(capsys):
    code, out, _ = run_cli(capsys, "intertwiner-suite", "--preset", "ex-f")
    assert code == 0
    assert "loop count" in out


def test_mpi_run_verb(capsys):
    code, out, _ = run_cli(capsys, "mpi", "run", "--preset", "ex-d",
                           "--partition", "{1,3}{2,4}", "--cat", "pair", "--n", "2")
    assert code == 0
    assert "case 2: swap legs 2,3" in out


def test_mpi_verify_verb(capsys):
    code, out, _ = run_cli(capsys, "mpi", "verify", "--preset", "ex-f",
                           "--cat", "pair", "--k", "4", "--n", "3")
    assert code == 0
    assert out.startswith("PASS")


def test_mpi_verify_single_partition_json(capsys):
    code, out, _ = run_cli(capsys, "mpi", "verify", "--preset", "comm",
                           "--size", "16", "--n", "2", "--partition",
                           "{1,7,15}{2,5}{3,4}{6,10,16}{8,9}{11,13}{12,14}",
                           "--sample", "100", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_definetti_verb(capsys):
    code, out, _ = run_cli(capsys, "definetti", "--preset", "free", "--n", "2",
                           "--cat", "all", "--kappa", "semicircle", "--max-k", "3")
    assert code == 0
    assert out.startswith("PASS")


def test_eps_file_and_kappa_file(tmp_path, capsys):
    eps_path = tmp_path / "pattern.txt"
    eps_path.write_text("2\n0 1\n1 0\n")
    kappa_path = tmp_path / "kappa.json"
    kappa_path.write_text(json.dumps({"n": 2, "kappas": [["1", "1"], ["1", "1"]]}))
    code, out, _ = run_cli(capsys, "moment", "--eps-file", str(eps_path),
                           "--index", "1,2", "--kappa", f"file:{kappa_path}")
    assert code == 0
    assert out.strip() == "1"


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "moment", "--preset", "nope", "--index", "1")
    assert code == 2 and "unknown preset" in err
    code, _, err = run_cli(capsys, "moment", "--preset", "comm", "--index", "1")
    assert code == 2  # missing --n
    with pytest.raises(SystemExit) as exc:
        main(["not-a-verb"])
    assert exc.value.code == 2


def test_malformed_eps_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 x\n1 0\n")
    code, _, err = run_cli(capsys, "show-eps", "--eps-file", str(bad))
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize(
    "table", [{"n": 2}, [], {"n": 2, "kappas": 5},
              {"n": 2, "kappas": [["1/0"], ["1"]]}],
    ids=["no-kappas", "not-an-object", "rows-not-lists", "zero-denominator"])
def test_malformed_kappa_file_exit_2(tmp_path, capsys, table):
    bad = tmp_path / "kappa.json"
    bad.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "moment", "--preset", "comm", "--n", "2",
                             "--index", "1,2,1", "--kappa", f"file:{bad}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_determinism_byte_identical(capsys):
    args = ("tneps", "--preset", "ex-e", "--json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    args = ("ncset", "--preset", "ex-f", "--index", "1,2,1,2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_paper_examples_battery(capsys):
    code, out, _ = run_cli(capsys, "paper-examples")
    assert code == 0
    assert "FAIL" not in out
    assert "order ex-d" in out or "pattern-automorphism" in out
