import json
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from strategies import eps_with_index
from epsym import groups, indicator
from epsym.cumulants import CumulantSpec, kappa_pi, moment, parse_fraction
from epsym.epsmat import preset
from epsym.groups import check_eps_exchangeability
from epsym.indicator import definetti_identity_report
from epsym.report import CheckReport
from epsym.partitions import (Category, SetPartition, enumerate_partitions,
                              nc_eps_set, parse_partition)

SEMI = CumulantSpec.semicircle


def test_kappa_pi_single_pair():
    spec = CumulantSpec.of([(0, 1)])
    assert kappa_pi(parse_partition("{1,2}"), (1, 1), spec) == 1


def test_kappa_pi_centered_singletons():
    spec = CumulantSpec.of([(0,), (0,)])
    assert kappa_pi(parse_partition("{1}{2}"), (1, 2), spec) == 0


def test_kappa_pi_crossing_pairs():
    spec = SEMI(2)
    assert kappa_pi(parse_partition("{1,3}{2,4}"), (1, 2, 1, 2), spec) == 1


def test_kappa_pi_rejects_mixed_blocks():
    with pytest.raises(ValueError, match="refine"):
        kappa_pi(parse_partition("{1,2}"), (1, 2), SEMI(2))


def test_kappa_pi_rational_values():
    spec = CumulantSpec.of([(Fraction(1, 2), Fraction(3, 4))])
    assert kappa_pi(parse_partition("{1,2}{3}"), (1, 1, 1), spec) == \
        Fraction(3, 4) * Fraction(1, 2)


def test_kappa_pi_reads_its_word_with_validate_index():
    spec = SEMI(2)
    with pytest.raises(ValueError, match=r"^index entry 1 is True, not an integer$"):
        kappa_pi(parse_partition("{1,2}"), (True, True), spec)
    with pytest.raises(ValueError, match=r"^index entry 1 is 3, must lie in 1\.\.2$"):
        kappa_pi(parse_partition("{1,2}"), (3, 3), spec)
    # a bad label is reported before a length mismatch, as in in_nc_eps
    with pytest.raises(ValueError, match=r"^index entry 3 is 0, must lie in 1\.\.2$"):
        kappa_pi(parse_partition("{1,2}"), (1, 1, 0), spec)
    with pytest.raises(ValueError, match=r"^index length 3 != point count 2$"):
        kappa_pi(parse_partition("{1,2}"), (1, 1, 1), spec)


@given(eps_with_index(max_n=4, max_k=8), st.sampled_from(list(Category)))
@settings(max_examples=150, deadline=None)
def test_admissible_partitions_refine_the_kernel(ei, cat):
    # moment skips kappa_pi's one-coordinate-per-block check on this guarantee
    eps, i = ei
    for pi in nc_eps_set(i, eps, cat):
        assert pi.k == len(i)
        assert all(len({i[p - 1] for p in b}) == 1 for b in pi.blocks), (i, pi.blocks)


def test_moment_is_the_sum_of_kappa_pi():
    eps, spec = preset("ex-f"), CumulantSpec.of([(v, 2 * v, 3, 1) for v in range(1, 6)])
    for i in [(1, 2, 1, 2), (3, 3, 4, 3, 4, 3), (5, 1, 5, 1, 2, 2), ()]:
        for cat in Category:
            assert moment(i, eps, spec, cat) == sum(
                (kappa_pi(pi, i, spec) for pi in nc_eps_set(i, eps, cat)), Fraction(0))


# --- moments -----------------------------------------------------------------

def test_moment_alternating_commuting():
    assert moment((1, 2, 1, 2), preset("comm", 2), SEMI(2)) == 1


def test_moment_alternating_free():
    assert moment((1, 2, 1, 2), preset("free", 2), SEMI(2)) == 0


def test_moment_fourth_is_catalan2():
    for eps in (preset("comm", 2), preset("free", 2), preset("ex-f")):
        assert moment((1, 1, 1, 1), eps, SEMI(eps.n)) == 2


def test_moment_empty_word_is_one():
    assert moment((), preset("free", 2), SEMI(2)) == 1


def test_moment_matches_classical_factorisation():
    # all-commuting pattern against the independent-variables oracle
    spec3 = CumulantSpec.of([(1, 1), (Fraction(1, 2), 2), (0, 1, 1)])
    for n in (1, 2, 3):
        eps = preset("comm", n)
        for k in range(6):
            for i in product(range(1, n + 1), repeat=k):
                assert moment(i, eps, spec3) == \
                    oracles.classical_moment(i, spec3), i


def test_moment_matches_free_oracle():
    spec3 = CumulantSpec.of([(1, 1, 1), (Fraction(2, 3), 1), (0, 1)])
    for n in (1, 2, 3):
        eps = preset("free", n)
        for k in range(7):
            for i in product(range(1, n + 1), repeat=k):
                assert moment(i, eps, spec3) == \
                    oracles.free_moment(i, spec3), i


def test_moment_distinct_labels_factorise_into_means():
    spec = CumulantSpec.of([(2,), (3,), (Fraction(1, 2),)])
    eps = preset("comm", 3)
    assert moment((1, 2, 3), eps, spec) == 2 * 3 * Fraction(1, 2)
    assert moment((2, 1), eps, spec) == 6


def test_moment_commuting_pair_word():
    # two distinct commuting labels: only the all-singleton refinement
    # survives the kernel condition
    spec = CumulantSpec.of([(2, 5), (3, 7)])
    eps = preset("comm", 2)
    assert moment((1, 2), eps, spec) == 6


def test_single_variable_moments_do_not_depend_on_pattern():
    spec_rows = [(1, 1, 1), (0, 1), (Fraction(1, 3), Fraction(1, 2), 1, 1)]
    for n in (2, 3, 4):
        pats = [preset("comm", n), preset("free", n), preset("block", 1, n - 1)]
        if n == 4:
            pats += [preset("ex-d"), preset("ex-e")]
        spec = CumulantSpec.of([spec_rows[0]] * n)
        for v in range(1, n + 1):
            for k in range(1, 9):
                i = (v,) * k
                vals = {moment(i, eps, spec) for eps in pats}
                assert len(vals) == 1


def test_semicircle_even_moments_are_catalan():
    eps = preset("free", 2)
    for m in range(5):  # words up to length 8
        assert moment((1,) * (2 * m), eps, SEMI(2)) == oracles.catalan(m)
        if m:
            assert moment((1,) * (2 * m - 1), eps, SEMI(2)) == 0


def test_moment_restricted_families():
    # restricting the family drops the partitions outside it
    eps = preset("comm", 2)
    spec = CumulantSpec.constant(2, (1, 1))
    full = moment((1, 1), eps, spec)
    pair_only = moment((1, 1), eps, spec, Category.PAIR)
    assert full == 2 and pair_only == 1


def _random_table(rng, n):
    # coprime denominators, negative entries, zero middle orders, trailing zeros
    rows = []
    for _ in range(n):
        row = [Fraction(rng.randint(-30, 30), rng.choice((1, 7, 9, 11, 13)))
               for _ in range(rng.randint(0, 6))]
        if len(row) > 2:
            row[rng.randrange(1, len(row) - 1)] = 0
        rows.append(row + [0] * rng.randint(0, 2))
    return rows


def test_kappa_pi_matches_fraction_product():
    rng = random.Random("kappa_pi")
    for _ in range(12):
        n = rng.randint(2, 4)
        rows = _random_table(rng, n)
        rows[0] = []  # an empty row: every order of label 1 is 0
        rows[1] = [0] + rows[1][1:]  # kappa_1 = 0
        for spec in (CumulantSpec.of(rows),
                     CumulantSpec.of([[rng.randint(-5, 5) for _ in range(5)]
                                      for _ in range(n)])):
            for k in range(8):
                word = tuple(rng.choices(range(1, n + 1), k=k))
                for pi in enumerate_partitions(k):
                    if any(word[p - 1] != word[b[0] - 1] for b in pi.blocks for p in b):
                        continue
                    want = Fraction(1)
                    for b in pi.blocks:
                        want *= spec.kappa(word[b[0] - 1], len(b))
                    got = kappa_pi(pi, word, spec)
                    assert got == want, (spec, word, pi)
                    assert type(got) is (int if want.denominator == 1 else Fraction)


@pytest.mark.parametrize("cat", list(Category), ids=lambda c: c.value)
@pytest.mark.parametrize("pattern", [("ex-d",), ("ex-f",), ("comm", 4), ("free", 3),
                                     ("block", 2, 2)], ids=lambda p: "".join(map(str, p)))
def test_moment_matches_fraction_sum(pattern, cat):
    eps = preset(*pattern)
    rng = random.Random(f"{pattern}-{cat.value}")
    for _ in range(6):
        rows = _random_table(rng, eps.n)
        spec = CumulantSpec.of(rows)
        for _ in range(8):
            word = tuple(rng.choices(range(1, eps.n + 1), k=rng.randint(0, 6)))
            want = oracles.naive_moment(word, eps, rows, cat)
            got = moment(word, eps, spec, cat)
            assert got == want, (rows, word)
            assert type(got) is (int if want.denominator == 1 else Fraction)
    ints = CumulantSpec.of([[rng.randint(-5, 5) for _ in range(4)] for _ in range(eps.n)])
    for k in range(7):
        word = tuple(rng.choices(range(1, eps.n + 1), k=k))
        assert type(moment(word, eps, ints, cat)) is int
    assert moment((), eps, spec, cat) == 1 and type(moment((), eps, spec, cat)) is int


@pytest.mark.parametrize("cat", list(Category), ids=lambda c: c.value)
@pytest.mark.parametrize("pattern", [("ex-d",), ("ex-f",), ("comm", 4), ("free", 3),
                                     ("block", 2, 2)], ids=lambda p: "".join(map(str, p)))
def test_moment_with_labels_that_occur_once_matches_fraction_sum(pattern, cat):
    eps = preset(*pattern)
    rng = random.Random(f"once-{pattern}-{cat.value}")
    for _ in range(3):
        rows = _random_table(rng, eps.n)
        rows[0] = []  # an empty row: every order of label 1 is 0
        rows[1] = [0] + [rng.randint(-9, 9) for _ in range(3)]  # kappa_1 = 0
        spec = CumulantSpec.of(rows)
        for v in range(1, eps.n + 1):
            # v once, among letters drawn from the other labels
            rest = rng.choices([u for u in range(1, eps.n + 1) if u != v],
                               k=rng.randint(6, 7))
            rest.insert(rng.randint(0, len(rest)), v)
            word = tuple(rest)
            want = oracles.naive_moment(word, eps, rows, cat)
            got = moment(word, eps, spec, cat)
            assert got == want, (rows, word)
            assert type(got) is (int if want.denominator == 1 else Fraction)
            if cat in (Category.PAIR, Category.EVEN):
                assert got == 0 and type(got) is int


@pytest.mark.parametrize("cat", list(Category), ids=lambda c: c.value)
@pytest.mark.parametrize("pattern", [("ex-d",), ("ex-f",), ("comm", 4), ("free", 3),
                                     ("block", 2, 2)], ids=lambda p: "".join(map(str, p)))
def test_moment_with_a_label_three_times_among_labels_once(pattern, cat):
    # the three-times label stays in the sum; its neighbours factor out
    eps = preset(*pattern)
    rows = [[v, 2, -v, 3] for v in range(1, eps.n + 1)]
    spec = CumulantSpec.of(rows)
    for a in range(1, eps.n + 1):
        b, c = [v for v in range(1, eps.n + 1) if v != a][:2]
        for word in [(b, a, a, c, a), (a, b, a, a, c), (a, a, b, c, a), (b, a, c, a, a, b)]:
            want = oracles.naive_moment(word, eps, rows, cat)
            assert moment(word, eps, spec, cat) == want, word
            assert want != 0 or cat is not Category.ALL, word


def test_moment_errors_survive_the_singleton_factor():
    # the whole word is checked before any label is factored out
    spec = CumulantSpec.semicircle(4)
    with pytest.raises(ValueError, match=r"^index entry 2 is 9, must lie in 1\.\.4$"):
        moment((1, 9), preset("ex-d"), spec)
    with pytest.raises(ValueError, match=r"^index entry 2 is True, not an integer$"):
        moment((1, True), preset("ex-d"), spec)
    with pytest.raises(ValueError, match=r"^index entry 3 is 0, must lie in 1\.\.4$"):
        moment((2, 2, 0), preset("ex-d"), spec, Category.PAIR)
    # the table's size is checked before the word
    with pytest.raises(ValueError, match=r"^cumulant table is smaller than the pattern$"):
        moment((1, 9), preset("ex-d"), CumulantSpec.semicircle(3))


def test_integer_table_keeps_spec_equality():
    rows = [("1/7", "2/9"), ("-3/11", "1/13", "5/2"), (0, 0)]
    spec = CumulantSpec.of(rows)
    d, scaled = spec.integer_table
    assert d == 7 * 9 * 11 * 13 * 2
    assert scaled[0] == (d // 7, 2 * d * d // 9) and scaled[2] == ()
    assert spec == CumulantSpec.of(rows) and CumulantSpec.of(rows) == spec
    assert hash(spec) == hash(CumulantSpec.of(rows))
    assert CumulantSpec.semicircle(3).integer_table == (1, ((0, 1),) * 3)


# --- exchangeability ----------------------------------------------------------

def test_exchangeability_ex_d_semicircle():
    assert check_eps_exchangeability(preset("ex-d"), SEMI(4), 4).passed


def test_exchangeability_free_is_full():
    spec = CumulantSpec.constant(3, (1, Fraction(1, 2), 3))
    assert check_eps_exchangeability(preset("free", 3), spec, 4).passed


def test_exchangeability_comm():
    spec = CumulantSpec.constant(3, (1, 1))
    assert check_eps_exchangeability(preset("comm", 3), spec, 3).passed


def test_exchangeability_requires_identical_rows():
    spec = CumulantSpec.of([(1,), (2,)])
    with pytest.raises(ValueError, match="identically"):
        check_eps_exchangeability(preset("free", 2), spec, 2)


def test_exchangeability_names_the_first_pair_a_wrong_moment_splits(monkeypatch):
    real = groups.moment
    monkeypatch.setattr(groups, "moment",
                        lambda i, *args: real(i, *args) + (i == (1, 2)))
    rep = check_eps_exchangeability(preset("ex-d"), SEMI(4), 2)
    # 8 automorphisms x 5 shorter words, 16 words under the identity and
    # 16 under (1, 2, 4, 3), which fixes (1, 2); (2, 1, 3, 4) fails at its
    # second word
    assert rep == CheckReport(False, 74, "sigma=(2, 1, 3, 4), i=(1, 2): 1 != 0")
    assert rep.line() == "FAIL after 74 cases: sigma=(2, 1, 3, 4), i=(1, 2): 1 != 0"

def test_exchangeability_rejects_negative_max_k():
    with pytest.raises(ValueError, match=r"^max_k must be at least 0, got -1$"):
        check_eps_exchangeability(preset("ex-d"), SEMI(4), -1)
    # max_k = 0 still checks the empty word once per automorphism
    assert check_eps_exchangeability(preset("ex-d"), SEMI(4), 0).checked == 8


def test_exchangeability_caps_its_comparisons(monkeypatch):
    # |G| * sum_k n**k comparisons, counted once the group is listed and
    # before any moment; comm(9) at max_k 6 would need about 2.2e11
    def no_work(*args, **kwargs):
        raise AssertionError("a moment was computed")
    monkeypatch.setattr(groups, "moment", no_work)
    message = "58593720 comparisons (120 automorphisms x 488281 words) exceed the limit 10000000"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        check_eps_exchangeability(preset("comm", 5), SEMI(5), 8)
    # ex-f at max_k 8 (10 x 488,281) stays within the limit and starts work
    with pytest.raises(AssertionError, match="a moment was computed"):
        check_eps_exchangeability(preset("ex-f"), SEMI(5), 8)


# both word-loop reports share one input check, run before any work
REPORTS = {
    "exchangeability": check_eps_exchangeability,
    "definetti": lambda eps, spec, max_k: definetti_identity_report(
        eps, Category.ALL, spec, max_k),
}


@pytest.mark.parametrize("max_k,message", [
    pytest.param(True, "max_k must be an integer, got True", id="True"),
    pytest.param(2.5, "max_k must be an integer, got 2.5", id="2.5"),
])
@pytest.mark.parametrize("report", list(REPORTS))
def test_reports_need_an_integer_max_k(report, max_k, message):
    # True used to pass as max_k = 1 (checked=40 and 5 on ex-d)
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        REPORTS[report](preset("ex-d"), SEMI(4), max_k)


@pytest.mark.parametrize("report,eps,spec,max_k,message", [
    # at max_k 8 exchangeability on ex-f used to take about 20 s
    pytest.param("exchangeability", preset("ex-f"), SEMI(5), 9,
                 "max_k = 9 is too large: 5**9 words exceed the limit 1000000",
                 id="exchangeability-words-past-the-limit"),
    pytest.param("exchangeability", preset("ex-d"), SEMI(3), 2,
                 "cumulant table is smaller than the pattern",
                 id="exchangeability-table-smaller-than-pattern"),
    pytest.param("definetti", preset("ex-d"), SEMI(3), 2,
                 "cumulant table is smaller than the pattern",
                 id="definetti-table-smaller-than-pattern"),
])
def test_reports_refuse_before_any_work(monkeypatch, report, eps, spec, max_k, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the refusal")
    for module, name in [(groups, "automorphism_group"), (groups, "moment"),
                         (indicator, "run_algorithm"), (indicator, "_run"),
                         (indicator, "_composed"), (indicator, "moment")]:
        monkeypatch.setattr(module, name, no_work)
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        REPORTS[report](eps, spec, max_k)


def test_exchangeability_other_presets():
    assert check_eps_exchangeability(preset("ex-e"), SEMI(4), 3).passed
    assert check_eps_exchangeability(preset("ex-f"), SEMI(5), 3).passed
    assert check_eps_exchangeability(
        preset("block", 2, 1), CumulantSpec.constant(3, (1, 1)), 3).passed


# --- the spec table -----------------------------------------------------------

def test_spec_normalises_trailing_zeros():
    spec = CumulantSpec.of([(1, 0), (1,)])
    assert spec.identically_distributed
    assert spec.kappa(1, 2) == 0
    assert spec.kappa(1, 99) == 0


def test_spec_json_round_trip():
    spec = CumulantSpec.of([(Fraction(1, 2), 1), (0, Fraction(-2, 3))])
    data = json.loads(json.dumps(spec.to_json()))
    assert CumulantSpec.from_json(data) == spec
    assert data["kappas"][0] == ["1/2", "1"]


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: CumulantSpec.of([]), "need at least one coordinate", id="of-empty"),
    pytest.param(lambda: SEMI(2).kappa(0, 2), "coordinate 0 outside 1..2", id="kappa-0"),
    pytest.param(lambda: SEMI(2).kappa(3, 2), "coordinate 3 outside 1..2", id="kappa-3"),
])
def test_spec_refusals(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("v,m,message", [
    pytest.param(1, 0, "order must be at least 1, got 0", id="order-0"),
    pytest.param(1, -1, "order must be at least 1, got -1", id="order-negative"),
    pytest.param(True, 2, "coordinate must be an integer, got True", id="coordinate-True"),
    pytest.param(1, True, "order must be an integer, got True", id="order-True"),
])
def test_kappa_refuses_orders_below_one_and_booleans(v, m, message):
    # order 0 used to read kappa_2 from the end of the row, order -1 kappa_1
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        SEMI(2).kappa(v, m)


@pytest.mark.parametrize("data,message", [
    pytest.param({"n": True, "kappas": [["1/2", "1/3"]]},
                 "n must be an integer, got True", id="n-True"),
    pytest.param({"n": 2.0, "kappas": [["1/2", "1/3"], ["1/2", "3/4"]]},
                 "n must be an integer, got 2.0", id="n-2.0"),
    pytest.param({"n": 3, "kappas": [["1/2", "1/3"]]}, "row count does not match n",
                 id="n-3-one-row"),
])
def test_spec_json_size_follows_the_integer_rule(data, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        CumulantSpec.from_json(data)


def test_parse_fraction():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("5") == 5
    assert parse_fraction(7) == 7
    assert parse_fraction(0.1) == Fraction(1, 10)
    for value in ("4/2", 2.0, Fraction(6, 3), 2):
        assert parse_fraction(value) == 2 and type(parse_fraction(value)) is int
    with pytest.raises(ValueError, match="boolean"):
        parse_fraction(True)
