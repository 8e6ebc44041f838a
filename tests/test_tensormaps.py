import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from epsym import tensormaps
from epsym.cumulants import CumulantSpec, kappa_pi, moment
from epsym.epsmat import PRESET_NAMES, make_epsilon, preset
from epsym.groups import projection_pair_representation
from epsym.indicator import evaluate_trace, run_algorithm
from epsym.partitions import (Category, SetPartition, TwoRowPartition,
                              enumerate_partitions)
from epsym.report import CheckResult
from epsym.tensormaps import (BAAR, CROSS, DREIPARTROT, IDID, PAAR, PAARBAAR,
                              VIERPARTROT, TensorMap, box_calculus_suite,
                              eps_as_map, free_neighbors_map,
                              intertwiner_identity_suite, r_map, s_box, t_pi)

ALL_PRESETS = [
    ("comm2", preset("comm", 2)), ("comm3", preset("comm", 3)),
    ("comm4", preset("comm", 4)), ("comm5", preset("comm", 5)),
    ("free2", preset("free", 2)), ("free3", preset("free", 3)),
    ("free5", preset("free", 5)), ("block-2-2", preset("block", 2, 2)),
    ("ex-d", preset("ex-d")), ("ex-e", preset("ex-e")),
    ("ex-f", preset("ex-f")),
]


def basis(n, k):
    return product(range(1, n + 1), repeat=k)


def table(m):
    """A map's coefficients as {(input label, output label): coefficient}."""
    return {(i, j): c for i, j, c in m.entries()}


# every preset of size <= 5: comm/free at each size, block at each split,
# and the fixed patterns
SMALL_PRESETS = [
    *((f"{name}{s}", preset(name, s)) for name in ("comm", "free")
      for s in range(1, 6)),
    *((f"block-{a}-{b}", preset("block", a, b))
      for a in range(1, 5) for b in range(1, 6 - a)),
    *((name, preset(name)) for name in PRESET_NAMES
      if name not in ("comm", "free", "block") and preset(name).n <= 5),
]


# --- the spreading maps ------------------------------------------------------

def test_t_pi_pair_spread():
    m = t_pi(PAAR, 2)
    assert m.rows.get((), {}) == {(1, 1): 1, (2, 2): 1}


def test_t_pi_flip():
    m = t_pi(CROSS, 2)
    for i, j in basis(2, 2):
        assert m.rows.get((i, j), {}) == {(j, i): 1}


def test_t_pi_four_block():
    m = t_pi(VIERPARTROT, 3)
    for i, j in basis(3, 2):
        want = {(i, i): 1} if i == j else {}
        assert m.rows.get((i, j), {}) == want


def test_t_pi_identity_partition():
    assert t_pi(IDID, 3) == TensorMap.identity(3, 2)


def test_t_pi_free_lower_blocks_spread():
    # one upper point joined to nothing, one lower-only block
    pi = TwoRowPartition.of(1, 2, [(1, 2), (3,)])
    m = t_pi(pi, 2)
    assert m.rows.get((1,), {}) == {(1, 1): 1, (1, 2): 1}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_t_pi_matches_brute_force(n):
    for total in range(6):
        for pi in enumerate_partitions(total):
            for k in range(total + 1):
                two = TwoRowPartition(k, total - k, pi)
                m = t_pi(two, n)
                assert (m.n, m.k_in, m.k_out) == (n, k, total - k)
                assert table(m) == oracles.naive_t_pi(two, n), (two, n)


@pytest.mark.parametrize("name,eps", SMALL_PRESETS, ids=[p[0] for p in SMALL_PRESETS])
def test_gated_maps_match_their_formulas(name, eps):
    for n in range(1, eps.n + 1):
        for kind in ("cross1", "idid1", "idid0", "paarbaar0"):
            m = r_map(kind, eps, n)
            assert (m.n, m.k_in, m.k_out) == (n, 2, 2)
            assert table(m) == oracles.naive_r_map(kind, eps, n), (kind, n)
        # the one-leg maps take no base dimension: build them on the pattern
        # restricted to 1..n, against the oracle on the full pattern
        sub = make_epsilon(n, [row[:n] for row in eps.entries[:n]])
        for build, gate in ((eps_as_map, 1), (free_neighbors_map, 0)):
            m = build(sub)
            assert (m.n, m.k_in, m.k_out) == (n, 1, 1)
            assert table(m) == oracles.naive_one_leg(eps, n, gate), (build, n)


def test_adjoint_is_reflection():
    assert t_pi(PAAR, 3).adjoint() == t_pi(BAAR, 3)
    assert t_pi(DREIPARTROT, 2).adjoint() == \
        t_pi(TwoRowPartition.of(1, 2, [(1, 2, 3)]), 2)


@pytest.mark.parametrize("total", range(1, 7))
def test_adjoint_matches_reflection_for_all_two_row_partitions(total):
    n = 2
    for k in range(total + 1):
        l = total - k
        for pi in enumerate_partitions(total):
            two = TwoRowPartition(k, l, pi)
            assert t_pi(two, n).adjoint() == t_pi(oracles.reflected(two), n)


def test_builders_emit_only_unit_coefficients():
    for name, eps in ALL_PRESETS[:6]:
        for kind in ("cross1", "idid1", "idid0", "paarbaar0"):
            for _, _, c in r_map(kind, eps).entries():
                assert c == 1 and type(c) is int
    for pi in (PAAR, BAAR, IDID, CROSS, PAARBAAR, DREIPARTROT, VIERPARTROT):
        for _, _, c in t_pi(pi, 3).entries():
            assert c == 1 and type(c) is int
    for _, _, c in TensorMap.identity(3, 2).entries():
        assert c == 1 and type(c) is int


# --- the gated maps ----------------------------------------------------------

def test_cross1_on_comm():
    m = r_map("cross1", preset("comm", 2))
    assert m.rows.get((1, 2), {}) == {(2, 1): 1}
    assert m.rows.get((1, 1), {}) == {}


def test_idid0_on_free_is_identity():
    for n in (2, 3):
        assert r_map("idid0", preset("free", n)) == TensorMap.identity(n, 2)


def test_paarbaar0_on_comm():
    m = r_map("paarbaar0", preset("comm", 2))
    assert m.rows.get((1, 1), {}) == {(1, 1): 1}
    assert m.rows.get((2, 2), {}) == {(2, 2): 1}
    assert m.rows.get((1, 2), {}) == {}


def test_unknown_kinds_rejected():
    with pytest.raises(ValueError):
        r_map("nope", preset("free", 2))
    with pytest.raises(ValueError, match=r"known: cross-id, cross-paar, id-paar$"):
        s_box("nope", preset("free", 2))


# --- the mixed boxes ----------------------------------------------------------

def test_cross_id_box_on_comm_is_the_flip():
    eps = preset("comm", 3)
    m = s_box("cross-id", eps)
    for i, j in basis(3, 2):
        if i != j:
            assert m.rows.get((i, j), {}) == {(j, i): 1}
        else:
            assert m.rows.get((i, i), {}) == {(i, i): 1}
    assert m == t_pi(CROSS, 3)


def test_cross_id_box_on_free_is_identity():
    for n in (2, 4):
        assert s_box("cross-id", preset("free", n)) == t_pi(IDID, n)


def test_id_paar_box_on_free():
    n = 3
    m = s_box("id-paar", preset("free", n))
    for i, j in basis(n, 2):
        want = {(k, k): 1 for k in range(1, n + 1)} if i == j else {}
        assert m.rows.get((i, j), {}) == want


def test_degenerate_box_identities():
    # at the two extreme patterns the boxes collapse into plain
    # partition maps
    for n in (2, 3, 4):
        assert s_box("cross-paar", preset("comm", n)) == t_pi(CROSS, n)
        assert s_box("cross-id", preset("comm", n)) == t_pi(CROSS, n)
        assert s_box("cross-id", preset("free", n)) == t_pi(IDID, n)
        assert s_box("cross-paar", preset("free", n)) == t_pi(PAARBAAR, n)


# --- algebra ------------------------------------------------------------------

def test_loop_composition_counts_dimension():
    for n in (2, 3, 5):
        loop = t_pi(BAAR, n) @ t_pi(PAAR, n)
        assert loop.rows.get((), {}) == {(): n}


def test_cross1_squares_to_idid1():
    for name, eps in ALL_PRESETS:
        c = r_map("cross1", eps)
        assert c @ c == r_map("idid1", eps), name


def test_identity_is_neutral():
    rng = random.Random(7)
    n = 3
    f = TensorMap(n, 2, 1)
    for _ in range(6):
        f.add_entry((rng.randint(1, n), rng.randint(1, n)),
                    (rng.randint(1, n),), Fraction(rng.randint(-3, 3)))
    assert TensorMap.identity(n, 1) @ f == f
    assert f @ TensorMap.identity(n, 2) == f


def test_add_scale_cancel():
    f = t_pi(PAAR, 3)
    assert not (f + (-1 * f)).rows
    assert (2 * f).rows.get((), {}) == {(1, 1): 2, (2, 2): 2, (3, 3): 2}
    assert (Fraction(1, 2) * (2 * f)) == f


def _random_map(rng, n, k_in, k_out, entries=5):
    f = TensorMap(n, k_in, k_out)
    for _ in range(entries):
        i = tuple(rng.randint(1, n) for _ in range(k_in))
        j = tuple(rng.randint(1, n) for _ in range(k_out))
        f.add_entry(i, j, Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    return f


def test_compose_is_associative():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(2, 3)
        f = _random_map(rng, n, 1, 2)
        g = _random_map(rng, n, 2, 1)
        h = _random_map(rng, n, 1, 2)
        assert (f @ g) @ h == f @ (g @ h)


def test_tensor_is_functorial_over_compose():
    rng = random.Random(13)
    for _ in range(10):
        n = 2
        f1 = _random_map(rng, n, 1, 1)
        g1 = _random_map(rng, n, 2, 1)
        f2 = _random_map(rng, n, 1, 2)
        g2 = _random_map(rng, n, 1, 1)
        lhs = (f1 @ g1).tensor(f2 @ g2)
        rhs = f1.tensor(f2) @ g1.tensor(g2)
        assert lhs == rhs


def test_adjoint_reverses_composition():
    rng = random.Random(17)
    f = _random_map(rng, 2, 2, 1)
    g = _random_map(rng, 2, 1, 2)
    assert (f @ g).adjoint() == g.adjoint() @ f.adjoint()


def test_shape_errors():
    f = TensorMap(2, 1, 2)
    g = TensorMap(2, 1, 1)
    with pytest.raises(ValueError):
        f @ f
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f.add_entry((1,), (3, 1), Fraction(1))


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: TensorMap(0, 1, 1), "need n >= 1 and nonnegative degrees", id="n-0"),
    pytest.param(lambda: TensorMap(2, -1, 1), "need n >= 1 and nonnegative degrees",
                 id="k_in-negative"),
    pytest.param(lambda: TensorMap(2, 1, -1), "need n >= 1 and nonnegative degrees",
                 id="k_out-negative"),
    pytest.param(lambda: TensorMap(2, 1, 1).add_entry((1, 1), (1,), 1),
                 "label length does not match the degree", id="add_entry-long-input"),
    pytest.param(lambda: TensorMap(2, 1, 1).add_entry((1,), (), 1),
                 "label length does not match the degree", id="add_entry-short-output"),
    pytest.param(lambda: TensorMap.identity(2, 1) @ TensorMap.identity(3, 1),
                 "base dimensions differ", id="matmul"),
    pytest.param(lambda: TensorMap.identity(2, 1).tensor(TensorMap.identity(3, 1)),
                 "base dimensions differ", id="tensor"),
])
def test_map_refusals(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("sizes,message", [
    pytest.param((True, 1, 1), "n must be an integer, got True", id="n-True"),
    pytest.param((2.0, 1, 1), "n must be an integer, got 2.0", id="n-2.0"),
    pytest.param((2, 1.0, 1), "k_in must be an integer, got 1.0", id="k_in-1.0"),
    pytest.param((2, 1, False), "k_out must be an integer, got False", id="k_out-False"),
])
def test_map_sizes_follow_the_integer_rule(sizes, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        TensorMap(*sizes)


@pytest.mark.parametrize("entry", [((1,), (2.0,), 1), ((True,), (2,), 1), ((1,), (3,), 1),
                                   ((0,), (1,), 1)],
                         ids=["label-2.0", "label-True", "label-3", "label-0"])
def test_labels_are_integers_in_range(entry):
    # 2.0 and True pass a range test, as they equal labels 2 and 1
    with pytest.raises(ValueError, match=r"^label entries must be integers in 1\.\.n$"):
        TensorMap(2, 1, 1, [entry])
    with pytest.raises(ValueError, match=r"^label entries must be integers in 1\.\.n$"):
        TensorMap(2, 1, 1).add_entry(*entry)


def test_maps_are_unhashable():
    # a class that defines __eq__ alone gets __hash__ = None
    with pytest.raises(TypeError, match=r"^unhashable type: 'TensorMap'$"):
        hash(TensorMap.identity(2, 1))


def test_json_round_trip_and_ordering():
    f = t_pi(CROSS, 2) + r_map("paarbaar0", preset("comm", 2))
    outs = [j for _, j, _ in f.entries()]
    assert outs == sorted(outs, key=lambda o: (o,))


def test_sparse_form_never_stores_zeros():
    f = t_pi(PAAR, 2)
    g = f + (-1 * f)
    assert g.rows == {}
    h = TensorMap(2, 0, 2)
    h.add_entry((), (1, 1), Fraction(1))
    h.add_entry((), (1, 1), Fraction(-1))
    assert h.rows == {}


def _stored_form(values):
    """Every value (every coefficient, for a map) is an int, or a Fraction
    that is not integral."""
    if isinstance(values, TensorMap):
        values = [c for row in values.rows.values() for c in row.values()]
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in values)


def test_coefficients_are_ints_unless_fractional():
    f = TensorMap(2, 1, 1, [((1,), (1,), Fraction(4, 2)), ((2,), (2,), 1),
                            ((1,), (2,), Fraction(1, 3))])
    assert _stored_form(f) and f.scalar_at((1,), (1,)) == 2
    assert type(f.scalar_at((2,), (2,))) is int
    f.add_entry((1,), (2,), Fraction(2, 3))
    assert f.scalar_at((1,), (2,)) == 1 and _stored_form(f)
    assert f.scalar_at((2,), (1,)) == 0
    assert (Fraction(1, 2) * (2 * f)) == f and _stored_form(Fraction(1, 2) * f)
    with pytest.raises(ValueError, match="not a boolean"):
        f.add_entry((2,), (2,), True)
    assert f.scalar_at((2,), (2,)) == 1


def test_exact_results_are_stored():
    eps = preset("ex-d")
    spec = CumulantSpec.of([(0, "1"), (Fraction(4, 2), Fraction(4, 3)),
                            ("1/2", 2, 1.0), (0.5, "3/4")])
    pi = SetPartition.of(4, [(1, 3), (2, 4)])
    trace, _ = run_algorithm(pi, eps, Category.ALL, 4)
    words = [(1, 1, 1, 1), (4, 4), (3, 4, 3, 4), (1, 2, 1, 2), (3, 3, 3)]
    values = [moment(w, eps, spec) for w in words]
    assert values == [2, 1, Fraction(9, 4), Fraction(16, 3), Fraction(33, 8)]
    products = [kappa_pi(pi, w, spec) for w in [(2, 4, 2, 4), (3, 4, 3, 4)]]
    assert products == [1, Fraction(3, 2)]
    values += products + [spec.kappa(v, m) for v in range(1, 5) for m in range(1, 5)]
    values += [evaluate_trace(trace, w) for w in product(range(1, 5), repeat=4)]
    assert _stored_form(values)
    assert _stored_form(v for row in spec.kappas for v in row)
    u = projection_pair_representation()
    assert _stored_form(c for row in u.blocks for m in row for _, _, c in m.entries())


def test_from_json_reads_like_the_cumulant_table():
    want = CumulantSpec.from_json({"n": 1, "kappas": [[0.1]]}).kappa(1, 1)
    assert want == Fraction(1, 10)
    assert (0.1 * TensorMap.identity(1, 1)).scalar_at((1,), (1,)) == want
    with pytest.raises(ValueError, match="boolean"):
        True * TensorMap.identity(1, 1)


# --- applying a map to a window of legs ----------------------------------------

COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2))


def sparse_maps(n, k_in, k_out):
    def labels(k):
        return st.tuples(*[st.integers(1, n)] * k)
    entries = st.lists(st.tuples(labels(k_in), labels(k_out),
                                 st.sampled_from(COEFFS)), max_size=8)
    return entries.map(lambda es: TensorMap(n, k_in, k_out, es))


@st.composite
def window_cases(draw):
    n = draw(st.integers(1, 3))
    k_in, k_out = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    other = draw(sparse_maps(n, draw(st.integers(0, 2)),
                             draw(st.integers(k_in, k_in + 2))))
    return draw(sparse_maps(n, k_in, k_out)), other


def padded(core, left, other):
    """``(identity ⊗ core ⊗ identity) @ other`` with the identities built."""
    n, right = core.n, other.k_out - left - core.k_in
    return TensorMap.identity(n, left).tensor(core).tensor(
        TensorMap.identity(n, right)) @ other


@st.composite
def composable_pairs(draw):
    n, mid = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    return (draw(sparse_maps(n, mid, draw(st.integers(0, 2)))),
            draw(sparse_maps(n, draw(st.integers(0, 2)), mid)))


@given(composable_pairs())
@settings(max_examples=150, deadline=None)
def test_compose_matches_brute_force(pair):
    after, before = pair
    got = after @ before
    assert (got.k_in, got.k_out) == (before.k_in, after.k_out)
    assert table(got) == oracles.naive_compose(table(after), table(before))
    assert _stored_form(got)


@given(window_cases())
@settings(max_examples=150, deadline=None)
def test_on_legs_equals_padded_composition(case):
    core, other = case
    for left in range(other.k_out - core.k_in + 1):
        got = core.on_legs(left, other)
        assert got == padded(core, left, other)
        assert _stored_form(got)
        assert (got.n, got.k_in, got.k_out) == \
            (core.n, other.k_in, other.k_out - core.k_in + core.k_out)


@pytest.mark.parametrize("cap", ["paar", "baar"])
def test_on_legs_caps_at_every_offset(cap):
    rng = random.Random(5)
    n = 2
    core = t_pi(PAAR if cap == "paar" else BAAR, n)
    other = _random_map(rng, n, 2, 3, entries=12)
    for left in range(other.k_out - core.k_in + 1):
        assert core.on_legs(left, other) == padded(core, left, other)


def test_on_legs_cancels_to_zero():
    # two outputs differing only inside the window meet in one image label
    # with opposite coefficients: 2/3 * 1/2 + 1 * (-1/3) = 0
    core = TensorMap(2, 1, 1, [((1,), (1,), Fraction(1, 2)),
                               ((2,), (1,), Fraction(-1, 3))])
    other = TensorMap(2, 1, 2, [((1,), (2, 1), Fraction(2, 3)),
                                ((1,), (2, 2), 1)])
    assert not core.on_legs(1, other).rows
    assert not padded(core, 1, other).rows
    whole = TensorMap(2, 1, 1, [((1,), (1,), 2)])
    halved = TensorMap(2, 1, 1, [((1,), (1,), Fraction(1, 2))]).on_legs(0, whole)
    assert type(halved.scalar_at((1,), (1,))) is int


def test_on_legs_shape_errors():
    core = r_map("cross1", preset("comm", 2))
    with pytest.raises(ValueError):
        core.on_legs(2, TensorMap.identity(2, 3))
    with pytest.raises(ValueError):
        core.on_legs(-1, TensorMap.identity(2, 3))
    with pytest.raises(ValueError):
        core.on_legs(0, TensorMap.identity(3, 3))


# --- identity suites -----------------------------------------------------------

@pytest.mark.parametrize("name,eps", ALL_PRESETS)
def test_intertwiner_identity_suite_passes(name, eps):
    report = intertwiner_identity_suite(eps)
    assert report.passed, "\n".join(report.lines())


@pytest.mark.parametrize("wrong,detail", [
    # one entry lost
    (lambda f: TensorMap(f.n, 1, 1, [e for e in f.entries() if e[:2] != ((2,), (3,))]),
     "first difference at in=(2,) out=(3,): 1 != 0"),
    # the same entries over one more coordinate
    (lambda f: TensorMap(f.n + 1, 1, 1, f.entries()), "shape mismatch"),
], ids=["entry-lost", "base-dimension"])
def test_intertwiner_suite_names_how_a_wrong_map_differs(monkeypatch, wrong, detail):
    real = tensormaps.free_neighbors_map
    monkeypatch.setattr(tensormaps, "free_neighbors_map", lambda eps: wrong(real(eps)))
    report = intertwiner_identity_suite(preset("ex-d"))
    name = "three-block . paarbaar0 . three-block* = free-neighbour map"
    assert [c.passed for c in report.checks] == [True] * 4 + [False]
    assert next(c for c in report.checks if not c.passed) == CheckResult(name, False, detail)
    assert report.lines()[-1] == f"[FAIL] {name}  ({detail})"


@pytest.mark.parametrize("name,eps", ALL_PRESETS)
def test_box_calculus_suite_passes(name, eps):
    report = box_calculus_suite(eps)
    assert report.passed, "\n".join(report.lines())


def test_box_calculus_covers_cycle5_loop_counts():
    report = box_calculus_suite(preset("ex-f"))
    names = [c.name for c in report.checks]
    assert any("loop count" in s for s in names)
    assert any("cross-paar^2" in s for s in names)


def test_box_calculus_runs_loop_checks_on_a_relabelled_cycle5():
    # relabel ex-f by the permutation 1->2, 2->4, 3->1, 4->5, 5->3
    cyc = preset("ex-f")
    perm = {1: 2, 2: 4, 3: 1, 4: 5, 5: 3}
    rows = [[0] * 5 for _ in range(5)]
    for i, k in product(range(1, 6), repeat=2):
        rows[perm[i] - 1][perm[k] - 1] = cyc[i, k]
    relabelled = make_epsilon(5, rows)
    assert relabelled.entries != cyc.entries
    report = box_calculus_suite(relabelled)
    assert len(report.checks) == 5 and report.passed, "\n".join(report.lines())
    # five vertices that are not all of degree 2 get the three product rules
    assert len(box_calculus_suite(preset("comm", 5)).checks) == 3
    assert len(box_calculus_suite(preset("free", 5)).checks) == 3


def test_cycle5_loop_counts_row_one():
    eps = preset("ex-f")
    # row scans of the pattern: partners of 1 with entry 0 are {1, 2, 5}
    def loops(i, k):
        return sum(1 for m in range(1, 6) if eps[i, m] == 0 and eps[m, k] == 0)
    assert loops(1, 1) == 3 == 1 + 1 + 1
    assert loops(1, 2) == 2 == 1 + 0 + 1
    assert loops(1, 3) == 1 == 0 + 0 + 1


@pytest.mark.parametrize("name,eps", ALL_PRESETS)
def test_free_neighbour_square_counts_loops(name, eps):
    # the loop-count check compares F . F with a map sum; entry (i -> k)
    # of F . F must be the number of m with eps_im = eps_mk = 0
    f = free_neighbors_map(eps)
    square = f @ f
    for i, k in basis(eps.n, 2):
        want = sum(1 for m in range(1, eps.n + 1) if eps[i, m] == 0 and eps[m, k] == 0)
        assert square.scalar_at((i,), (k,)) == want


def test_cross_paar_square_general_decomposition():
    # for every pattern the square is the gated identity plus the
    # loop-count weighted pair spread
    for name, eps in ALL_PRESETS:
        n = eps.n
        sq = s_box("cross-paar", eps) @ s_box("cross-paar", eps)
        expect = r_map("idid1", eps)
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                c = sum(1 for m in range(1, n + 1)
                        if eps[i, m] == 0 and eps[m, k] == 0)
                expect.add_entry((i, i), (k, k), Fraction(c))
        assert sq == expect, name


def test_rotated_pair_spread_discrepancy():
    # the rotated pair spread differs from the pattern map by
    # identity-minus-all-ones; they are not equal on the nose
    for name, eps in [("ex-d", preset("ex-d")), ("ex-f", preset("ex-f"))]:
        n = eps.n
        drei = t_pi(DREIPARTROT, n)
        rotated = drei @ r_map("paarbaar0", eps) @ drei.adjoint()
        ones = TensorMap(n, 1, 1)
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                ones.add_entry((i,), (k,), Fraction(1))
        ident = TensorMap.identity(n, 1)
        assert ident - rotated != eps_as_map(eps)
        assert ident - rotated == eps_as_map(eps) + ident - ones
        assert rotated == free_neighbors_map(eps)
