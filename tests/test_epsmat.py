import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from epsym.epsmat import (EpsilonMatrix, Permutation, format_eps_text,
                          make_epsilon, parse_eps_text, preset, validate_index)
from epsym.partitions import SetPartition, kernel


def test_make_epsilon_smallest_commuting():
    eps = make_epsilon(2, [[0, 1], [1, 0]])
    assert eps[1, 2] == 1 and eps[2, 1] == 1 and eps[1, 1] == 0


def test_make_epsilon_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        make_epsilon(2, [[0, 1], [0, 0]])


def test_make_epsilon_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        make_epsilon(2, [[1, 1], [1, 0]])


def test_make_epsilon_rejects_non_bits():
    with pytest.raises(ValueError, match="must be 0 or 1"):
        make_epsilon(2, [[0, 2], [2, 0]])


def test_make_epsilon_rejects_bad_shape():
    with pytest.raises(ValueError, match="2x2"):
        make_epsilon(2, [[0, 1, 0], [1, 0, 0]])


@pytest.mark.parametrize("size,message", [
    pytest.param(True, "size must be an integer, got True", id="True"),
    pytest.param(1.0, "size must be an integer, got 1.0", id="1.0"),
    pytest.param(0, "size must be a positive integer", id="0"),
])
def test_make_epsilon_size_is_a_positive_integer(size, message):
    # a boolean size used to build n=True, written "True\n0\n" as text
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        make_epsilon(size, [[0]])


@pytest.mark.parametrize("n,rows,message", [
    pytest.param(True, ((0,),), "size must be an integer, got True", id="size-True"),
    pytest.param(0, (), "size must be a positive integer", id="size-0"),
    pytest.param(3, ((1,),), "expected a 3x3 array of entries", id="shape"),
    # the first bit check runs over every entry before the diagonal check
    pytest.param(2, ((1, 2), (2, 0)), "entry (1,2) must be 0 or 1, got 2", id="non-bit"),
    # entries equal to a bit but not ints used to pass, then print as
    # text that parse_eps_text refuses
    pytest.param(2, ((0, True), (1.0, 0)), "entry (1,2) must be 0 or 1, got True",
                 id="bit-True"),
    pytest.param(2, ((0, 1.0), (1.0, 0)), "entry (1,2) must be 0 or 1, got 1.0",
                 id="bit-1.0"),
    pytest.param(2, ((0, Fraction(1)), (1, 0)),
                 "entry (1,2) must be 0 or 1, got Fraction(1, 1)", id="bit-Fraction"),
    pytest.param(2, ((1, 1), (0, 0)), "diagonal entry (1,1) must be 0", id="diagonal"),
    pytest.param(2, ((0, 1), (0, 0)), "matrix is not symmetric at (1,2)", id="asymmetric"),
])
def test_epsilon_matrix_checks_itself(n, rows, message):
    for build in (EpsilonMatrix, make_epsilon):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            build(n, rows)


def test_list_rows_give_a_hashable_pattern_that_cannot_change():
    # list rows used to pass every check, then fail hash() and stay mutable
    rows = [[0, 1], [1, 0]]
    for build in (EpsilonMatrix, make_epsilon):
        eps = build(2, rows)
        assert eps.entries == ((0, 1), (1, 0))
        assert hash(eps) == hash(preset("comm", 2)) and eps == preset("comm", 2)
        rows[0][1] = 0
        assert eps[1, 2] == 1
        rows[0][1] = 1


@pytest.mark.parametrize("entries,message", [
    pytest.param(5, "entries must be a sequence of rows, got 5", id="no-rows"),
    pytest.param([1, 2], "row 1 must be a sequence of entries, got 1", id="int-rows"),
    pytest.param([(0, 1), None], "row 2 must be a sequence of entries, got None",
                 id="second-row"),
])
def test_rows_that_are_not_sequences_get_one_line(entries, message):
    # these used to raise a bare TypeError: 'int' object is not iterable
    for build in (EpsilonMatrix, make_epsilon):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            build(2, entries)


def test_ex_d_matrix_verbatim():
    eps = preset("ex-d")
    assert eps.entries == (
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
    )
    assert make_epsilon(4, eps.entries) == eps


def test_ex_e_matrix_verbatim():
    assert preset("ex-e").entries == (
        (0, 0, 1, 1),
        (0, 0, 1, 1),
        (1, 1, 0, 0),
        (1, 1, 0, 0),
    )


def test_ex_f_matrix_verbatim():
    assert preset("ex-f").entries == (
        (0, 0, 1, 1, 0),
        (0, 0, 0, 1, 1),
        (1, 0, 0, 0, 1),
        (1, 1, 0, 0, 0),
        (0, 1, 1, 0, 0),
    )


def test_trivial6_first_row():
    eps = preset("trivial6")
    assert eps.n == 6
    assert eps.row(1) == (0, 0, 1, 0, 0, 0)


def test_free_preset_is_zero():
    assert preset("free", 3).entries == ((0, 0, 0),) * 3


def test_comm_preset():
    eps = preset("comm", 3)
    assert all(eps[i, j] == (0 if i == j else 1)
               for i in range(1, 4) for j in range(1, 4))


def test_block_preset():
    eps = preset("block", 2, 2)
    assert eps.n == 4
    assert eps[1, 2] == 1
    assert eps[1, 3] == eps[3, 4] == eps[2, 4] == 0


@pytest.mark.parametrize("sizes", [(2, -1), (-1, 3), (-2, -2)])
def test_block_rejects_negative_sizes(sizes):
    with pytest.raises(ValueError, match=r"^block sizes must be nonnegative, got "):
        preset("block", *sizes)


@pytest.mark.parametrize("params,message", [
    pytest.param(("comm", 2.5), "size must be an integer, got 2.5", id="comm-2.5"),
    pytest.param(("free", True), "size must be an integer, got True", id="free-True"),
    pytest.param(("block", True, 0), "block size must be an integer, got True",
                 id="block-True-0"),
    pytest.param(("block", -1, 2.5), "block size must be an integer, got 2.5",
                 id="block-neg-2.5"),
    pytest.param(("comm", 0), "size must be a positive integer", id="comm-0"),
    pytest.param(("comm",), "preset comm takes one size parameter", id="comm-arity"),
    pytest.param(("block", 2), "preset block takes two size parameters",
                 id="block-arity"),
    pytest.param(("ex-d", 4), "preset ex-d takes no parameters", id="ex-d-arity"),
])
def test_preset_sizes_follow_the_integer_rule(params, message):
    # comm(2.5) used to raise TypeError from range, block(True, 0) to build
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        preset(*params)


def test_block_with_an_empty_part():
    assert preset("block", 0, 3) == preset("free", 3)
    assert preset("block", 3, 0) == preset("comm", 3)


def test_preset_aliases():
    assert preset("pairs-indep") == preset("ex-d")
    assert preset("pairs-free") == preset("ex-e")
    assert preset("cycle5") == preset("ex-f")


def test_preset_unknown_name():
    with pytest.raises(ValueError, match="unknown preset"):
        preset("nope")


@pytest.mark.parametrize("n", range(1, 11))
def test_comm_free_fixed_points_of_validation(n):
    for name in ("comm", "free"):
        eps = preset(name, n)
        assert make_epsilon(n, eps.entries) == eps


@pytest.mark.parametrize("name,params", [
    ("comm", (4,)), ("free", (4,)), ("block", (2, 3)),
    ("ex-d", ()), ("ex-e", ()), ("ex-f", ()), ("trivial6", ()),
])
def test_presets_satisfy_invariants(name, params):
    eps = preset(name, *params)
    for i in range(1, eps.n + 1):
        assert eps[i, i] == 0
        for j in range(1, eps.n + 1):
            assert eps[i, j] in (0, 1)
            assert eps[i, j] == eps[j, i]


# --- kernels ---------------------------------------------------------------

def test_kernel_examples():
    assert kernel((3, 1, 3)) == SetPartition.of(3, [(1, 3), (2,)])
    assert kernel((1, 1, 1, 1)) == SetPartition.of(4, [(1, 2, 3, 4)])
    assert kernel((1, 2, 1, 2)) == SetPartition.of(4, [(1, 3), (2, 4)])
    assert kernel(()) == SetPartition.of(0, [])


@given(st.lists(st.integers(1, 5), max_size=8),
       st.lists(st.integers(1, 3), min_size=5, max_size=5))
def test_kernel_refines_under_value_merging(values, merge_to):
    # j = f(i) for a value map f can only coarsen the kernel
    i = tuple(values)
    j = tuple(merge_to[v - 1] for v in i)
    assert kernel(i).refines(kernel(j))


# --- text format -----------------------------------------------------------

def test_eps_text_round_trip():
    for name, params in [("ex-f", ()), ("comm", (4,)), ("trivial6", ())]:
        eps = preset(name, *params)
        assert parse_eps_text(format_eps_text(eps)) == eps


def test_eps_text_parse_error_reports_line_and_column():
    with pytest.raises(ValueError, match=r"line 2, column 3"):
        parse_eps_text("2\n0 x\n0 0\n")
    with pytest.raises(ValueError, match=r"line 3"):
        parse_eps_text("2\n0 1\n")
    with pytest.raises(ValueError, match=r"line 1"):
        parse_eps_text("two\n")


# separators str.isspace accepts, \x1c-\x1e also splitting lines; tokens
# that are no bit, or run several characters
_SEPARATORS = (" ", "  ", "\t", " \t", "\x1c", "\x1f", "\x0b", "\u3000")
_TOKENS = ("x", "10", "01", "1.0", "-", "0x1", "\u00e9")


def _fuzzed_eps_text(rng: random.Random) -> str:
    """A pattern's text, mutated: odd separators, bad or multi-character
    tokens, short and long rows, missing rows, a bad size line."""
    n = rng.randint(1, 4)
    bits = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bits[i][j] = bits[j][i] = rng.randint(0, 1)
    lines = [rng.choice((f" {n}\t", "", "x", "0", "-2", str(n + 1)))
             if rng.random() < 0.2 else str(n)]
    for row in bits:
        tokens = [str(b) for b in row]
        if rng.random() < 0.2:
            tokens[rng.randrange(n)] = rng.choice(_TOKENS)
        if rng.random() < 0.15:
            del tokens[rng.randrange(len(tokens))]
        if rng.random() < 0.15:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice("01"))
        sep = rng.choice(_SEPARATORS)
        lines.append(rng.choice(("", " ", "\t")) + sep.join(tokens) + rng.choice(("", " ")))
    if rng.random() < 0.15:
        del lines[rng.randint(1, len(lines)):]
    return "\n".join(lines) + rng.choice(("", "\n", "\r\n"))


def _parse_outcome(parse, text: str):
    try:
        return parse(text)
    except ValueError as e:
        return f"ValueError: {e}"


def test_eps_text_parse_matches_the_scanner_oracle():
    shapes = set()
    rng = random.Random(1603)
    for _ in range(3000):
        text = _fuzzed_eps_text(rng)
        got = _parse_outcome(parse_eps_text, text)
        want = _parse_outcome(lambda t: make_epsilon(*oracles.scanned_eps_rows(t)), text)
        assert got == want, repr(text)
        shapes.add(re.sub(r"\d+|'.*'", "#", got) if isinstance(got, str) else "pattern")
    # every outcome of the format occurs among the fuzzed texts
    assert shapes >= {
        "pattern", "ValueError: line #, column #: missing size line",
        "ValueError: line #, column #: size must be an integer",
        "ValueError: line #, column #: size must be positive",
        "ValueError: line #, column #: missing row # of #",
        "ValueError: line #, column #: expected # or #, got #",
        "ValueError: line #, column #: more than # entries",
        "ValueError: line #, column #: expected # entries, got #",
        "ValueError: matrix is not symmetric at (#,#)"}, sorted(shapes)


def test_validate_index():
    assert validate_index((1, 2, 3), 3) == (1, 2, 3)
    with pytest.raises(ValueError):
        validate_index((0,), 3)
    with pytest.raises(ValueError):
        validate_index((4,), 3)


# --- permutations ----------------------------------------------------------

def test_permutation_basics():
    s = Permutation(3, (2, 3, 1))
    assert s(1) == 2 and s(3) == 1
    assert s.compose(s.inverse()) == Permutation.identity(3)
    assert s.inverse().compose(s) == Permutation.identity(3)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation(3, (1, 1, 2))


@pytest.mark.parametrize("n,images,message", [
    pytest.param(True, (1,), "n must be an integer, got True", id="n-True"),
    pytest.param(2, (1.0, 2), "images must be a bijection of 1..n", id="image-1.0"),
    pytest.param(2, (True, 2), "images must be a bijection of 1..n", id="image-True"),
    pytest.param(3, (1, 1, 2), "images must be a bijection of 1..n", id="repeated"),
])
def test_permutation_follows_the_integer_rule(n, images, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        Permutation(n, images)


def test_permutation_stores_its_images_as_a_tuple():
    # a stored list would make hash() raise TypeError; a generator is read once
    s = Permutation(2, [2, 1])
    assert s.images == (2, 1) and hash(s) == hash(Permutation(2, (2, 1)))
    assert Permutation(3, (p for p in (3, 1, 2))).images == (3, 1, 2)
    with pytest.raises(ValueError, match=r"^images must be a sequence of integers, got 5$"):
        Permutation(1, 5)
    with pytest.raises(ValueError, match=r"^images must be a bijection of 1\.\.n$"):
        Permutation(2, ("a", 1))
