import pytest
from hypothesis import given, settings, strategies as st

import oracles
from strategies import eps_matrices, eps_with_index, rgs_partitions
from epsym.epsmat import preset
from epsym.partitions import (Category, SetPartition, TwoRowPartition,
                              enumerate_partitions, find_case2_index,
                              find_noncrossing_subpartition, format_partition,
                              in_nc_eps, is_eps_noncrossing, is_refinement,
                              kernel, nc_eps_set, parse_partition)

FIGURE_BLOCKS = [(1, 7, 15), (2, 5), (3, 4), (6, 10, 16), (8, 9), (11, 13), (12, 14)]


def P(text: str) -> SetPartition:
    return parse_partition(text)


# --- canonical form and enumeration ----------------------------------------

def test_canonical_form():
    pi = SetPartition.of(4, [(4, 2), (3, 1)])
    assert pi.blocks == ((1, 3), (2, 4))


def test_of_rejects_bad_partitions():
    with pytest.raises(ValueError, match="two blocks"):
        SetPartition.of(2, [(1, 2), (2,)])
    with pytest.raises(ValueError, match="not covered"):
        SetPartition.of(3, [(1, 2)])
    with pytest.raises(ValueError, match="outside"):
        SetPartition.of(2, [(1, 2, 3)])


def test_enumeration_spot_values_k4():
    assert len(enumerate_partitions(4)) == 15
    assert len(enumerate_partitions(4, noncrossing_only=True)) == 14
    pairs = enumerate_partitions(4, Category.PAIR, noncrossing_only=True)
    assert pairs == [P("{1,2}{3,4}"), P("{1,4}{2,3}")]


def test_k0_conventions():
    empty = SetPartition.of(0, [])
    assert enumerate_partitions(0) == [empty]
    assert empty.is_noncrossing
    for cat in Category:
        assert cat.contains(empty)


@pytest.mark.parametrize("k", range(9))
def test_counts_against_recurrences(k):
    assert len(enumerate_partitions(k)) == oracles.bell(k)
    assert len(enumerate_partitions(k, Category.PAIR)) == \
        oracles.double_factorial_pairs(k)
    assert len(enumerate_partitions(k, Category.ONETWO)) == oracles.telephone(k)
    nc = enumerate_partitions(k, noncrossing_only=True)
    assert len(nc) == oracles.catalan(k)
    if k % 2 == 0:
        assert len(enumerate_partitions(k, Category.PAIR, noncrossing_only=True)) \
            == oracles.catalan(k // 2)
    even_count = sum(1 for part in oracles.insertion_partitions(k)
                     if all(len(b) % 2 == 0 for b in part))
    assert len(enumerate_partitions(k, Category.EVEN)) == even_count


@pytest.mark.parametrize("k", range(8))
def test_enumeration_matches_insertion_oracle(k):
    ours = {oracles.as_set_of_sets(p) for p in enumerate_partitions(k)}
    theirs = set(oracles.insertion_partitions(k))
    assert ours == theirs
    assert len(ours) == len(enumerate_partitions(k))  # no duplicates


@pytest.mark.parametrize("k", range(8))
def test_noncrossing_enumeration_matches_gap_recursion(k):
    ours = {oracles.as_set_of_sets(p)
            for p in enumerate_partitions(k, noncrossing_only=True)}
    theirs = set(oracles.noncrossing_partitions(range(1, k + 1)))
    assert ours == theirs


def test_enumeration_is_deterministic():
    assert enumerate_partitions(5) == enumerate_partitions(5)
    texts = [format_partition(p) for p in enumerate_partitions(4)]
    assert texts[0] == "{1,2,3,4}" and texts[-1] == "{1}{2}{3}{4}"


# --- refinement --------------------------------------------------------------

def test_refinement_examples():
    assert is_refinement(P("{1}{2}"), P("{1,2}"))
    assert not is_refinement(P("{1,2}"), P("{1}{2}"))
    with pytest.raises(ValueError):
        is_refinement(P("{1}{2}"), P("{1,2,3}"))


@pytest.mark.parametrize("k", range(7))
def test_refinement_is_reflexive(k):
    for pi in enumerate_partitions(k):
        assert is_refinement(pi, pi)


# --- the pattern-aware crossing predicate ------------------------------------

def test_noncrossing_matches_naive():
    for k in range(8):
        for pi in enumerate_partitions(k):
            assert pi.is_noncrossing == oracles.naive_is_noncrossing(pi)


@given(rgs_partitions(max_k=7))
def test_crossing_pairs_match_naive(pi):
    assert set(pi.crossing_pairs) == oracles.naive_crossing_pairs(pi)


def test_eps_noncrossing_examples():
    pi = P("{1,3}{2,4}")
    i = (1, 2, 1, 2)
    assert is_eps_noncrossing(pi, i, preset("comm", 2))
    assert not is_eps_noncrossing(pi, i, preset("free", 2))


def test_eps_noncrossing_trivial_when_noncrossing():
    eps = preset("free", 3)
    for pi in enumerate_partitions(4, noncrossing_only=True):
        assert is_eps_noncrossing(pi, (1, 2, 3, 1), eps)


def test_eps_noncrossing_dimension_mismatch():
    with pytest.raises(ValueError):
        is_eps_noncrossing(P("{1,2}"), (1, 2, 3), preset("free", 3))
    with pytest.raises(ValueError):
        is_eps_noncrossing(P("{1,2}"), (1, 7), preset("free", 3))


def test_eps_noncrossing_does_not_require_refinement():
    # mixed labels inside a block are fine for the predicate itself
    pi = P("{1,3}{2,4}")
    eps = preset("ex-f")
    assert is_eps_noncrossing(pi, (1, 3, 2, 4), eps) == \
        oracles.naive_is_eps_noncrossing(pi, (1, 3, 2, 4), eps)


@given(eps_with_index(max_n=4, max_k=6), rgs_partitions(max_k=6))
@settings(max_examples=150)
def test_eps_noncrossing_matches_naive(ei, pi):
    eps, i = ei
    if len(i) != pi.k:
        return
    assert is_eps_noncrossing(pi, i, eps) == \
        oracles.naive_is_eps_noncrossing(pi, i, eps)


# --- admissible refinement sets ----------------------------------------------

def test_nc_eps_set_constant_word():
    eps = preset("ex-f")
    got = nc_eps_set((1, 1, 1, 1), eps)
    assert got == enumerate_partitions(4, noncrossing_only=True)
    assert len(got) == 14


def test_nc_eps_set_alternating_pairs():
    got = nc_eps_set((1, 2, 1, 2), preset("comm", 2), Category.PAIR)
    assert got == [P("{1,3}{2,4}")]


def test_nc_eps_set_free_is_noncrossing_refinements():
    eps = preset("free", 3)
    for i in [(1, 2, 1, 2), (1, 1, 2, 2), (1, 2, 3, 1), (2, 2, 2)]:
        want = [p for p in enumerate_partitions(len(i), noncrossing_only=True)
                if p.refines(kernel(i))]
        assert nc_eps_set(i, eps) == want


def _comm_product_construction(i):
    """Independent product construction for the all-commuting pattern:
    choose a noncrossing partition inside every kernel class and take
    unions."""
    classes = kernel(i).blocks
    parts = [frozenset()]
    for cls in classes:
        choices = oracles.noncrossing_partitions(cls)
        parts = [p | q for p in parts for q in choices]
    return set(parts)


def test_nc_eps_set_comm_factorises():
    import itertools
    for n in (1, 2, 3):
        eps = preset("comm", n)
        for k in range(7):
            for i in itertools.product(range(1, n + 1), repeat=k):
                got = {oracles.as_set_of_sets(p) for p in nc_eps_set(i, eps)}
                assert got == _comm_product_construction(i), i


ORACLE_PATTERNS = [("comm", 1), ("comm", 2), ("comm", 3), ("free", 1),
                   ("free", 2), ("free", 3), ("ex-d",), ("ex-e",), ("block", 2, 2)]


@pytest.mark.parametrize("cat", list(Category), ids=lambda c: c.value)
@pytest.mark.parametrize("name", ORACLE_PATTERNS,
                         ids=lambda p: "-".join(map(str, p)))
def test_nc_eps_set_matches_filter_oracle(name, cat):
    import itertools
    eps = preset(*name)
    for k in range(7):
        for i in itertools.product(range(1, eps.n + 1), repeat=k):
            got = [pi.blocks for pi in nc_eps_set(i, eps, cat)]
            assert got == oracles.naive_nc_eps_set(i, eps, cat), i


@st.composite
def _long_words(draw):
    name = draw(st.sampled_from(["ex-f", "cycle5", "trivial6"]))
    eps = preset(name)
    return eps, tuple(draw(st.lists(st.integers(1, eps.n), max_size=8)))


@given(_long_words(), st.sampled_from(list(Category)))
@settings(max_examples=150, deadline=None)
def test_nc_eps_set_matches_filter_oracle_long_words(ei, cat):
    eps, i = ei
    got = [pi.blocks for pi in nc_eps_set(i, eps, cat)]
    assert got == oracles.naive_nc_eps_set(i, eps, cat)


def test_in_nc_eps_matches_definition():
    eps = preset("ex-d")
    i = (1, 2, 1, 2)
    for pi in enumerate_partitions(4):
        want = pi.refines(kernel(i)) and is_eps_noncrossing(pi, i, eps)
        assert in_nc_eps(pi, i, eps) == want


# --- subpartition search ------------------------------------------------------

def test_subpartition_fully_crossing_absent():
    assert find_noncrossing_subpartition(P("{1,3}{2,4}")) is None


def test_subpartition_nested_interval():
    sigma, p, q = find_noncrossing_subpartition(P("{1,4}{2,3}"))
    assert (p, q) == (2, 3)
    assert sigma == P("{1,2}")


def test_subpartition_figure_partition():
    pi = SetPartition.of(16, FIGURE_BLOCKS)
    sigma, p, q = find_noncrossing_subpartition(pi)
    assert (p, q) == (2, 5)
    # {2,5}{3,4} relabelled to the interval
    assert sigma == P("{1,4}{2,3}")


def test_subpartition_whole_when_noncrossing():
    sigma, p, q = find_noncrossing_subpartition(P("{1,2}{3,4}"))
    assert (p, q) == (1, 2)
    assert sigma == P("{1,2}")


@given(rgs_partitions(max_k=7, min_k=1))
def test_subpartition_postconditions(pi):
    found = find_noncrossing_subpartition(pi)
    if found is None:
        # then in particular the whole partition must cross
        assert not pi.is_noncrossing
        return
    sigma, p, q = found
    assert 1 <= p <= q <= pi.k
    assert sigma.is_noncrossing
    assert sigma == pi.restrict(p, q)
    # proper intervals first, leftmost then shortest
    whole = (q - p + 1) == pi.k
    for p2 in range(1, pi.k + 1):
        for q2 in range(p2, pi.k + 1):
            if q2 - p2 + 1 == pi.k:
                continue
            if not whole and (p2, q2) >= (p, q):
                continue
            try:
                s2 = pi.restrict(p2, q2)
            except ValueError:
                continue
            assert not s2.is_noncrossing


@given(rgs_partitions(max_k=7, min_k=1))
def test_removal_preserves_families(pi):
    found = find_noncrossing_subpartition(pi)
    if found is None:
        return
    sigma, p, q = found
    rest = pi.remove_interval(p, q)
    for cat in Category:
        if cat.contains(pi):
            assert cat.contains(sigma)
            assert cat.contains(rest)


# --- the swap index -----------------------------------------------------------

def test_case2_index_crossing_pair():
    # exhaustive over l in {1, 2, 3}: only l = 2 satisfies all conditions
    pi = P("{1,3}{2,4}")
    for l in (1, 2, 3):
        a = pi.block_containing(l)
        b = pi.block_containing(l + 1)
        ok = (a != b and b[0] < a[0] and oracles.blocks_cross_naive(a, b))
        assert ok == (l == 2)
    assert find_case2_index(pi) == 2


def test_case2_index_single_block():
    assert find_case2_index(P("{1,2}")) is None


@given(rgs_partitions(max_k=7, min_k=2))
def test_case2_exists_without_subpartitions(pi):
    # partitions with >= 2 blocks, no singletons and no proper
    # block-closed interval always admit a swap index
    if len(pi.blocks) < 2 or any(len(b) == 1 for b in pi.blocks):
        return
    has_proper_interval = any(
        _closed_interval(pi, p, q)
        for p in range(1, pi.k + 1)
        for q in range(p, pi.k + 1)
        if (q - p + 1) < pi.k)
    if has_proper_interval:
        return
    assert find_case2_index(pi) is not None


def _closed_interval(pi, p, q):
    try:
        pi.restrict(p, q)
    except ValueError:
        return False
    return True


@given(rgs_partitions(max_k=7, min_k=2))
def test_case2_postconditions(pi):
    l = find_case2_index(pi)
    if l is None:
        return
    a, b = pi.block_containing(l), pi.block_containing(l + 1)
    assert a != b and b[0] < a[0]
    assert oracles.blocks_cross_naive(a, b)
    swapped = pi.swap_points(l)
    assert sorted(len(x) for x in swapped.blocks) == \
        sorted(len(x) for x in pi.blocks)


# --- relabelling invariance (joint with the groups module) --------------------

def test_eps_noncrossing_invariant_under_pattern_automorphisms():
    from epsym.groups import automorphism_group
    eps = preset("ex-d")
    group = automorphism_group(eps)
    import itertools
    for pi in enumerate_partitions(4):
        for i in itertools.product(range(1, 5), repeat=4):
            base = is_eps_noncrossing(pi, i, eps)
            for sigma in group.elements:
                moved = tuple(sigma(v) for v in i)
                assert is_eps_noncrossing(pi, moved, eps) == base


# --- text and JSON forms -------------------------------------------------------

def test_partition_text_round_trip():
    for k in range(6):
        for pi in enumerate_partitions(k):
            assert parse_partition(format_partition(pi)) == pi


def test_partition_parse_errors():
    with pytest.raises(ValueError):
        parse_partition("{1,3}{2")
    with pytest.raises(ValueError):
        parse_partition("1,3")
    with pytest.raises(ValueError):
        parse_partition("{1,3}{2,5}")  # gap: 4 missing


def test_two_row_reflection():
    pi = TwoRowPartition.of(2, 1, [(1, 2, 3)])
    r = pi.reflected()
    assert (r.k, r.l) == (1, 2)
    assert r.underlying == SetPartition.of(3, [(1, 2, 3)])
    cross = TwoRowPartition.of(2, 2, [(1, 4), (2, 3)])
    assert cross.reflected().underlying == cross.underlying
