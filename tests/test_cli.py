import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from epsym.cli import build_parser, main


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


WORD_TEXT = st.text(alphabet="0123456789, +-aex", max_size=24)


@given(WORD_TEXT, st.none() | WORD_TEXT, st.sampled_from(["ex-d", "ex-f", "trivial6"]),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_word_verb_fuzz(word, word2, preset_name, as_json):
    # the --opt=value form keeps a text starting with '-' a value
    argv = ["word", "--preset", preset_name, f"--word={word}"]
    if word2 is not None:
        argv.append(f"--word2={word2}")
    if as_json:
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code)
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert (code == 2) == bool(err.getvalue()), (argv, err.getvalue())


# a valid command line for every verb; each value option is then set to
# '--' in turn, replacing the base value (and the other pattern source)
DASH_BASE = {
    ("show-eps",): {"--preset": "ex-d"},
    ("partitions",): {"--k": "3"},
    ("ncset",): {"--preset": "ex-d", "--index": "1,2"},
    ("moment",): {"--preset": "ex-d", "--index": "1,2"},
    ("exchangeability",): {"--preset": "ex-d", "--max-k": "1"},
    ("tneps",): {"--preset": "ex-d"},
    ("coxeter-check",): {"--preset": "ex-d"},
    ("word",): {"--preset": "ex-d", "--word": "1,2"},
    ("rep-check",): {"--preset": "ex-d"},
    ("intertwiner-suite",): {"--preset": "ex-d"},
    ("mpi", "run"): {"--preset": "ex-d", "--partition": "{1,2}"},
    ("mpi", "verify"): {"--preset": "ex-d", "--partition": "{1,2}"},
    ("definetti",): {"--preset": "ex-d", "--max-k": "1"},
    ("paper-examples",): {},
}
EPS_SOURCE = {"--preset", "--eps-file"}


def _verbs(parser, path=()):
    """(verb path, parser) for every leaf verb."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, sub in subs[0].choices.items():
        yield from _verbs(sub, path + (name,))


VERBS = dict(_verbs(build_parser()))
DASH_CASES = [(path, a.option_strings[-1]) for path, p in VERBS.items()
              for a in p._actions if a.option_strings and a.nargs != 0]


def test_dash_cases_cover_every_verb():
    assert set(VERBS) == set(DASH_BASE)
    assert {path for path, _ in DASH_CASES} == set(DASH_BASE) - {("paper-examples",)}


@pytest.mark.parametrize("path,option", DASH_CASES,
                         ids=[" ".join(path) + " " + opt for path, opt in DASH_CASES])
def test_double_dash_value_exits_cleanly(path, option):
    base = {k: v for k, v in DASH_BASE[path].items()
            if k != option and not (option in EPS_SOURCE and k in EPS_SOURCE)}
    argv = [*path, *(t for kv in base.items() for t in kv), f"{option}=--"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # newer argparse reads the value as '--' and rejects it itself
            # for a typed option
            code = exc.code
            lines = err.getvalue().splitlines()
            assert len(lines) <= 1 and f"argument {option}" in lines[-1], argv
        else:
            assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    assert code == 2, (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()


def test_rep_check_verb(capsys):
    code, out, _ = run_cli(capsys, "rep-check", "--preset", "ex-d",
                           "--relations", "magic,Rring_eps", "--witness")
    assert code == 0
    assert "do not commute" in out


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_rep_check_witness_outside_the_matrix_exits_2(capsys, as_json):
    # the witness reads u[3,3], which a 2x2 matrix lacks; the report used to
    # print first and a traceback follow, and --json ignored the witness
    code, out, err = run_cli(capsys, "rep-check", "--preset", "comm", "--n", "2",
                             "--rep", "perm:2,1", "--relations", "magic", "--witness",
                             *(["--json"] if as_json else []))
    assert (code, out, err) == (2, "", "error: row index must lie in 1..2\n")


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


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_mpi_verify_exits_1_on_a_wrong_map(monkeypatch, capsys, as_json):
    from epsym import indicator
    real = indicator._composed

    def composed(trace, n):
        built = real(trace, n)  # (0 -> k): one row keyed by word
        built.rows[()].pop((1, 3, 1, 3))  # an admissible word under ex-f
        return built

    monkeypatch.setattr(indicator, "_composed", composed)
    code, out, err = run_cli(capsys, "mpi", "verify", "--preset", "ex-f", "--n", "3",
                             "--partition", "{1,3}{2,4}", *(["--json"] if as_json else []))
    # (1, 3, 1, 3) is the 21st of the 3**4 words in lexicographic order
    detail = "pi={1,3}{2,4}, i=(1, 3, 1, 3): map gives 0, membership gives 1"
    assert (code, err) == (1, "")
    if as_json:
        assert json.loads(out) == {"passed": False, "checked": 21,
                                   "counterexample": detail, "notes": []}
    else:
        assert out == f"FAIL after 21 cases: {detail}\n"


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
    code, out, err = run_cli(capsys, "show-eps", "--eps-file", str(eps_path), "--n", "2")
    assert code == 2 and out == "" and err == "error: a pattern file takes no size options\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_kappa_file_moments_print_exactly(tmp_path, capsys, as_json):
    kappa_path = tmp_path / "kappa.json"
    kappa_path.write_text(json.dumps({"n": 2, "kappas": [["1/2", "1/3"], ["1/2", "3/4"]]}))
    for index, want in (("1,1", "7/12"), ("2,2", "1")):
        code, out, _ = run_cli(capsys, "moment", "--preset", "free", "--n", "2",
                               "--index", index, "--kappa", f"file:{kappa_path}",
                               *(["--json"] if as_json else []))
        got = json.loads(out)["moment"] if as_json else out.removesuffix("\n")
        assert code == 0 and got == want


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "moment", "--preset", "nope", "--index", "1")
    assert code == 2 and "unknown preset" in err
    code, _, err = run_cli(capsys, "moment", "--preset", "comm", "--index", "1")
    assert code == 2  # missing --n
    with pytest.raises(SystemExit) as exc:
        main(["not-a-verb"])
    assert exc.value.code == 2
    capsys.readouterr()
    # argparse's own errors: one line, no usage block
    for argv in (["partitions", "--json=--"], ["partitions"],
                 ["partitions", "--k", "x"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2, argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


@pytest.mark.parametrize("argv", [
    ["mpi", "verify", "--preset", "ex-f", "--partition", "{1,3}{2,4}", "--sample", "-5"],
    ["mpi", "verify", "--preset", "ex-f", "--partition", "{1,3}{2,4}", "--sample", "0",
     "--json"],
    ["partitions", "--k", "12"],
    ["partitions", "--k", "12", "--cat", "pair", "--noncrossing"],
    ["mpi", "verify", "--preset", "ex-f", "--k", "12"],
    # no pairing of 3 points, so the sample floor is checked before the loop
    ["mpi", "verify", "--preset", "ex-f", "--cat", "pair", "--k", "3", "--sample", "0"],
    ["exchangeability", "--preset", "ex-d", "--max-k", "-1"],
    ["definetti", "--preset", "ex-d", "--max-k", "-1"],
    # 5**9 words per length exceed the materialisation limit
    ["definetti", "--preset", "ex-f", "--max-k", "9"],
    # the same limit on words, refused before the automorphism group is listed
    ["exchangeability", "--preset", "ex-f", "--max-k", "9"],
    # 120 automorphisms x 488,281 words exceed the comparison limit
    ["exchangeability", "--preset", "comm", "--n", "5", "--max-k", "8"],
    ["show-eps", "--preset", "block", "--n", "-1", "--m", "3"],
    # a size option the pattern does not take
    ["show-eps", "--preset", "ex-d", "--n", "7", "--m", "2"],
    ["show-eps", "--preset", "ex-d", "--m", "2"],
    ["show-eps", "--preset", "comm", "--n", "2", "--m", "9"],
    ["show-eps", "--preset", "free", "--n", "2", "--m", "1"],
    ["mpi", "verify", "--preset", "ex-d", "--size", "9", "--partition", "{1,2}"],
], ids=["sample-negative", "sample-zero-json", "partitions-k12", "partitions-k12-pair-nc",
        "mpi-verify-k12", "sample-zero-empty-family", "exchangeability-max-k-negative",
        "definetti-max-k-negative", "definetti-max-k-large",
        "exchangeability-max-k-large", "exchangeability-comparisons",
        "block-size-negative",
        "fixed-preset-sizes", "fixed-preset-m", "comm-given-m", "free-given-m",
        "mpi-fixed-preset-size"])
def test_out_of_range_work_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_malformed_eps_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 x\n1 0\n")
    code, _, err = run_cli(capsys, "show-eps", "--eps-file", str(bad))
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize(
    "table", [{"n": 2}, [], {"n": 2, "kappas": 5},
              {"n": 2, "kappas": [["1/0"], ["1"]]},
              {"n": 2, "kappas": [[True], ["1"]]}],
    ids=["no-kappas", "not-an-object", "rows-not-lists", "zero-denominator",
         "boolean"])
def test_malformed_kappa_file_exit_2(tmp_path, capsys, table):
    bad = tmp_path / "kappa.json"
    bad.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "moment", "--preset", "comm", "--n", "2",
                             "--index", "1,2,1", "--kappa", f"file:{bad}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# (argv, text of the file written for FILE or None, the one stderr line)
REFUSALS = [
    (["show-eps", "--preset", "block", "--n", "2"], None,
     "preset block needs a first size (--n or --size) and --m"),
    (["moment", "--preset", "free", "--n", "2", "--index", "1", "--kappa", "foo"], None,
     "--kappa must be 'semicircle' or 'file:PATH'"),
    (["rep-check", "--preset", "ex-d", "--rep", "bogus"], None,
     "--rep must be 'projection-pair' or 'perm:IMAGES'"),
    (["mpi", "verify", "--preset", "ex-d"], None, "pass --partition or --k"),
    (["coxeter-check", "--preset", "comm", "--n", "1"], None,
     "the representation needs at least two coordinates"),
    (["partitions", "--k", "3", "--cat", "foo"], None,
     "unknown category 'foo'; use all, pair, onetwo or even"),
    (["mpi", "run", "--preset", "ex-d", "--partition", "{1}{}"], None,
     "empty block at position 4"),
    (["mpi", "run", "--preset", "ex-d", "--partition", "{1,a}"], None,
     "bad block contents at position 1: '1,a'"),
    # 3**13 basis vectors exceed the materialisation limit
    (["mpi", "verify", "--preset", "ex-f", "--n", "3", "--partition",
      "{1,2}{3,4}{5,6}{7,8}{9,10}{11,12}{13}"], None,
     "space too large to enumerate; pass sample="),
    (["show-eps", "--eps-file", "FILE"], "", "line 1, column 1: missing size line"),
    (["show-eps", "--eps-file", "FILE"], "0\n", "line 1, column 1: size must be positive"),
    (["show-eps", "--eps-file", "FILE"], "2\n0 1 1\n1 0\n",
     "line 2, column 5: more than 2 entries"),
    (["show-eps", "--eps-file", "FILE"], "2\n0 1\n1\n",
     "line 3, column 2: expected 2 entries, got 1"),
    (["moment", "--preset", "free", "--n", "2", "--index", "1", "--kappa", "file:FILE"],
     '{"n": 3, "kappas": [["1"]]}', "row count does not match n"),
]


@pytest.mark.parametrize("argv,text,message", REFUSALS, ids=[
    "block-without-m", "kappa-unknown", "rep-unknown", "mpi-verify-no-target",
    "coxeter-one-coordinate", "category-unknown", "partition-empty-block",
    "partition-bad-contents", "mpi-verify-space-too-large", "eps-file-empty",
    "eps-file-size-zero", "eps-file-long-row", "eps-file-short-row",
    "kappa-file-row-count"])
def test_refusal_prints_its_one_line(tmp_path, capsys, argv, text, message):
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = [a.replace("FILE", str(path)) for a in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_kappa_file_size_follows_the_integer_rule(tmp_path, capsys):
    # JSON true used to pass as a one-row table and print 7/12
    path = tmp_path / "kappa.json"
    path.write_text('{"n": true, "kappas": [["1/2", "1/3"]]}')
    assert run_cli(capsys, "moment", "--preset", "free", "--n", "1", "--index", "1,1",
                   "--kappa", f"file:{path}") == \
        (2, "", "error: n must be an integer, got True\n")


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
