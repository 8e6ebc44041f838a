import itertools
import random
import re
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from strategies import eps_matrices, eps_with_index, rgs_partitions
from epsym.epsmat import preset, validate_index
from epsym.partitions import (Category, SetPartition, TwoRowPartition,
                              enumerate_partitions, find_case2_index,
                              find_noncrossing_subpartition, format_partition,
                              in_nc_eps, is_eps_noncrossing, kernel,
                              nc_eps_set, parse_partition)

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
    with pytest.raises(ValueError, match="^blocks must be nonempty$"):
        SetPartition.of(2, [(1, 2), ()])
    with pytest.raises(ValueError, match=r"^point 1\.5 is not an integer$"):
        SetPartition.of(2, [(1.5,), (2,)])
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.0$"):
        SetPartition.of(2.0, [(1, 2)])
    # points and blocks are checked as given, before any sorting compares them
    with pytest.raises(ValueError, match=r"^point '2' is not an integer$"):
        SetPartition.of(2, [(1, "2")])
    with pytest.raises(ValueError, match=r"^point None is not an integer$"):
        SetPartition.of(2, [(1, None), (2,)])
    with pytest.raises(ValueError, match=r"^block 1 is not a collection of points$"):
        SetPartition.of(1, [1])


@pytest.mark.parametrize("k, blocks, message", [
    pytest.param(3, ((1,), (1, 2)), "point 1 appears in two blocks", id="repeated-point"),
    pytest.param(3, ((1, 2), (), (3,)), "blocks must be nonempty", id="empty-block"),
    pytest.param(3, ((1, 2),), r"points \[3\] not covered", id="uncovered-point"),
    pytest.param(2, ((1, 2, 3),), r"point 3 outside 1\.\.2", id="point-above-k"),
    pytest.param(2, ((0, 1, 2),), r"point 0 outside 1\.\.2", id="point-below-1"),
    pytest.param(3, ((2, 3), (1,)), r"blocks \(\(2, 3\), \(1,\)\) are not in canonical "
                 "order: by least point, ascending inside each", id="blocks-out-of-order"),
    pytest.param(3, ((1, 3, 2),), r"blocks \(\(1, 3, 2\),\) are not in canonical order",
                 id="points-out-of-order"),
    pytest.param(2.0, ((1, 2),), r"k must be an integer, got 2\.0", id="float-k"),
    pytest.param(True, ((1,),), "k must be an integer, got True", id="bool-k"),
    pytest.param("2", ((1, 2),), "k must be an integer, got '2'", id="str-k"),
    pytest.param(-1, (), "k must be >= 0, got -1", id="negative-k"),
    pytest.param(2, [(1, 2)], "blocks must be a tuple of tuples", id="list-of-blocks"),
    pytest.param(2, ([1, 2],), "blocks must be a tuple of tuples", id="list-block"),
    pytest.param(2, ((1.0, 2),), r"point 1\.0 is not an integer", id="float-point"),
    pytest.param(1, ((True,),), "point True is not an integer", id="bool-point"),
])
def test_constructor_refuses_what_is_not_a_canonical_partition(k, blocks, message):
    with pytest.raises(ValueError, match=rf"^{message}") as info:
        SetPartition(k, blocks)
    assert "\n" not in str(info.value)


def test_unchecked_builders_return_what_the_constructor_accepts():
    # the walk, restrict/remove_interval and the empty parse skip the
    # constructor's check, so their outputs must pass it
    built = [parse_partition("")]
    for k in range(7):
        built += enumerate_partitions(k)
    eps = preset("ex-f")
    for i in itertools.product(range(1, 6), repeat=5):
        if len(set(i)) < 4:
            built += nc_eps_set(i, eps)
    for pi in enumerate_partitions(6):
        for b in pi.blocks:
            try:
                built += [pi.restrict(b[0], b[-1]), pi.remove_interval(b[0], b[-1])]
            except ValueError:
                pass  # the span is not block-closed
    for pi in built:
        assert SetPartition(pi.k, pi.blocks) == pi


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


@pytest.mark.parametrize("noncrossing_only", [False, True])
@pytest.mark.parametrize("cat", list(Category), ids=lambda c: c.value)
def test_enumeration_matches_growth_string_oracle(cat, noncrossing_only):
    for k in range(10):
        got = [p.blocks for p in enumerate_partitions(k, cat, noncrossing_only)]
        assert got == oracles.naive_enumerate_partitions(k, cat, noncrossing_only), k


def test_contains_is_the_block_size_rule():
    rules = {Category.ALL: lambda s: True, Category.PAIR: lambda s: s == 2,
             Category.ONETWO: lambda s: s in (1, 2), Category.EVEN: lambda s: s % 2 == 0}
    for cat, rule in rules.items():
        assert [cat.allows(s) for s in range(9)] == [rule(s) for s in range(9)]
    for k in range(8):
        for part in oracles.insertion_partitions(k):
            pi = SetPartition.of(k, part)
            for cat, rule in rules.items():
                assert cat.contains(pi) == all(rule(len(b)) for b in part), (cat, pi)


def test_enumeration_is_capped():
    for cat in Category:
        with pytest.raises(ValueError, match=r"^k = 12 is too large to enumerate; "
                                             r"the limit is 11$"):
            enumerate_partitions(12, cat, noncrossing_only=True)
    with pytest.raises(ValueError, match="must be >= 0"):
        enumerate_partitions(-1)


@pytest.mark.parametrize("k", [True, 2.5, 2.0, "3", None], ids=repr)
def test_enumeration_needs_an_integer_k(k):
    with pytest.raises(ValueError, match=rf"^k must be an integer, got {re.escape(repr(k))}$"):
        enumerate_partitions(k)


# --- refinement --------------------------------------------------------------

def test_refinement_examples():
    assert P("{1}{2}").refines(P("{1,2}"))
    assert not P("{1,2}").refines(P("{1}{2}"))
    with pytest.raises(ValueError):
        P("{1}{2}").refines(P("{1,2,3}"))


@pytest.mark.parametrize("k", range(7))
def test_refinement_is_reflexive(k):
    for pi in enumerate_partitions(k):
        assert pi.refines(pi)


@pytest.mark.parametrize("k", range(7))
def test_mixed_block_matches_the_literal_label_test(k):
    # every partition of k points, by point insertion, against every word
    # over three labels: the first block with more than one label, or None
    parts = [SetPartition.of(k, part) for part in oracles.insertion_partitions(k)]
    for i in itertools.product(range(1, 4), repeat=k):
        for pi in parts:
            want = next((b for b in pi.blocks if len({i[p - 1] for p in b}) > 1), None)
            assert pi.mixed_block(i) == want, (pi, i)
            assert pi.refines(kernel(i)) == (want is None)


# --- the pattern-aware crossing predicate ------------------------------------

def test_noncrossing_matches_naive():
    for k in range(8):
        for pi in enumerate_partitions(k):
            assert pi.is_noncrossing == oracles.naive_is_noncrossing(pi)


@given(rgs_partitions(max_k=7))
def test_crossing_pairs_match_naive(pi):
    assert set(pi.crossing_pairs) == oracles.naive_crossing_pairs(pi)


def test_crossing_pairs_are_the_sorted_naive_pairs():
    # the exact tuple: sorted, and each pair once
    partitions = [pi for k in range(8) for pi in enumerate_partitions(k)]
    assert len(partitions) == 1156
    for pi in partitions:
        assert pi.crossing_pairs == tuple(sorted(oracles.naive_crossing_pairs(pi))), pi


def test_crossing_blocks_are_the_naively_crossing_block_pairs():
    # the exact tuple: sorted index pairs (a, b) with a < b, each pair once
    partitions = [pi for k in range(9) for pi in enumerate_partitions(k)]
    assert len(partitions) == 5296
    for pi in partitions:
        bs = pi.blocks
        want = tuple((a, b) for a, b in itertools.combinations(range(len(bs)), 2)
                     if oracles.blocks_cross_naive(bs[a], bs[b]))
        assert pi.crossing_blocks == want, pi
        assert pi.is_noncrossing == (not pi.crossing_blocks), pi
        assert pi.crossing_pairs == tuple(sorted(oracles.naive_crossing_pairs(pi))), pi


def test_memoised_properties_stay_invisible():
    read, fresh = P("{1,3}{2,4}{5}"), SetPartition.of(5, [(5,), (4, 2), (3, 1)])
    before = (hash(fresh), repr(fresh), fresh.to_json())
    assert (read.owner, read.crossing_blocks, read.crossing_pairs) == \
        ((0, 1, 0, 1, 2), ((0, 1),), ((1, 2),))
    assert read.owner is read.owner and read.crossing_pairs is read.crossing_pairs
    assert read.crossing_blocks is read.crossing_blocks
    assert read == fresh and fresh == read
    assert (hash(read), repr(read), read.to_json()) == before
    assert (hash(fresh), repr(fresh), fresh.to_json()) == before
    for name in ("k", "blocks", "owner", "crossing_blocks", "crossing_pairs"):
        with pytest.raises(FrozenInstanceError):
            setattr(read, name, None)
    assert "crossing" in SetPartition.crossing_pairs.__doc__
    assert "crossing blocks" in SetPartition.crossing_blocks.__doc__


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


BFS_PATTERNS = [("ex-f",), ("trivial6",), ("cycle5",), ("comm", 3), ("free", 2)]


@pytest.mark.parametrize("name", BFS_PATTERNS, ids=lambda p: "-".join(map(str, p)))
def test_nc_eps_set_matches_the_breadth_first_loop_on_long_words(name):
    # lengths 9-11 are past the Bell(k) filter oracle; the breadth-first
    # placement loop must give the same lists in the same order
    eps = preset(*name)
    rng = random.Random(f"bfs-{name}")
    for k in (9, 10, 11):
        for _ in range(20):
            i = tuple(rng.choices(range(1, eps.n + 1), k=k))
            for cat in Category:
                got = [pi.blocks for pi in nc_eps_set(i, eps, cat)]
                assert got == oracles.bfs_placements(i, eps.entries, cat), (i, cat)


def test_enumeration_matches_the_breadth_first_loop_at_k10():
    for cat in Category:
        for noncrossing_only in (False, True):
            got = [pi.blocks for pi in enumerate_partitions(10, cat, noncrossing_only)]
            rows = ((0 if noncrossing_only else 1,),)
            assert got == oracles.bfs_placements((1,) * 10, rows, cat), (cat, noncrossing_only)


def test_walk_depth_follows_the_repeats_not_the_length():
    # 1,200 first occurrences are placed without a choice, so a word far
    # longer than the recursion limit needs no deep recursion
    n = 1200
    eps = preset("free", n)
    word = tuple(range(1, n + 1))
    assert sys.getrecursionlimit() < n
    assert [pi.blocks for pi in nc_eps_set(word, eps)] == [tuple((p,) for p in word)]
    # label 1 again at points 1201 and 1202: three choices' worth of
    # placements of {1, 1201, 1202}, every other point a singleton
    got = nc_eps_set(word + (1, 1), eps)
    assert [[b for b in pi.blocks if len(b) > 1 or b[0] in (1, 1201, 1202)]
            for pi in got] == [
        [(1, 1201, 1202)], [(1, 1201), (1202,)], [(1, 1202), (1201,)],
        [(1,), (1201, 1202)], [(1,), (1201,), (1202,)]]


def test_in_nc_eps_matches_definition():
    eps = preset("ex-d")
    i = (1, 2, 1, 2)
    for pi in enumerate_partitions(4):
        want = pi.refines(kernel(i)) and is_eps_noncrossing(pi, i, eps)
        assert in_nc_eps(pi, i, eps) == want


# every label check goes through validate_index; two singletons pass the
# kernel test, so in_nc_eps reaches the labels too
LABEL_CHECKS = {
    "validate_index": lambda w: validate_index(w, 2),
    "nc_eps_set": lambda w: nc_eps_set(w, preset("comm", 2)),
    "is_eps_noncrossing": lambda w: is_eps_noncrossing(P("{1}{2}"), w, preset("comm", 2)),
    "in_nc_eps": lambda w: in_nc_eps(P("{1}{2}"), w, preset("comm", 2)),
    # one block: the kernel test alone would refuse most bad words
    "in_nc_eps_one_block": lambda w: in_nc_eps(P("{1,2}"), w, preset("comm", 2)),
}


@pytest.mark.parametrize("letter", [2.5, 1.0, "1", True, False, None, Fraction(1)],
                         ids=repr)
@pytest.mark.parametrize("name", list(LABEL_CHECKS))
def test_label_checks_reject_non_integers(name, letter):
    with pytest.raises(ValueError, match="not an integer") as info:
        LABEL_CHECKS[name]((1, letter))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("word", [(0, 5), (1, 3), (0, 2)], ids=repr)
@pytest.mark.parametrize("name", list(LABEL_CHECKS))
def test_label_checks_reject_labels_outside_range(name, word):
    with pytest.raises(ValueError, match=r"must lie in 1\.\.2") as info:
        LABEL_CHECKS[name](word)
    assert "\n" not in str(info.value)


# the word rule: labels first, then one label per point
@pytest.mark.parametrize("word,message", [
    pytest.param((1,), "index length 1 != point count 2", id="(1,)"),
    pytest.param((1, 1, 1), "index length 3 != point count 2", id="(1, 1, 1)"),
    pytest.param((), "index length 0 != point count 2", id="()"),
    pytest.param((1, 1, 0), "index entry 3 is 0, must lie in 1..2", id="(1, 1, 0)"),
])
@pytest.mark.parametrize("name", ["is_eps_noncrossing", "in_nc_eps", "in_nc_eps_one_block"])
def test_word_checks_reject_a_length_other_than_the_point_count(name, word, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        LABEL_CHECKS[name](word)


def test_in_nc_eps_rejects_crossing_labels_outside_range():
    with pytest.raises(ValueError, match=r"must lie in 1\.\.2"):
        in_nc_eps(P("{1,3}{2,4}"), (0, 3, 0, 3), preset("comm", 2))


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


def test_subpartition_matches_the_restrict_and_test_oracle():
    partitions = [pi for k in range(9) for pi in enumerate_partitions(k)]
    assert len(partitions) == 5296
    for pi in partitions:
        assert find_noncrossing_subpartition(pi) == \
            oracles.naive_find_noncrossing_subpartition(pi), pi


def test_restrict_and_remove_interval_share_one_split():
    pi = P("{1,3}{2}{4,5}")
    assert pi.restrict(1, 3) == P("{1,3}{2}")
    assert pi.remove_interval(1, 3) == P("{1,2}")
    assert pi.restrict(4, 5) == P("{1,2}")
    assert pi.remove_interval(4, 5) == P("{1,3}{2}")
    for cut in (pi.restrict, pi.remove_interval):
        with pytest.raises(ValueError, match=r"^block \(1, 3\) crosses the interval 2\.\.4$"):
            cut(2, 4)


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
        a = pi.blocks[pi.owner[l - 1]]
        b = pi.blocks[pi.owner[l]]
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
    a, b = pi.blocks[pi.owner[l - 1]], pi.blocks[pi.owner[l]]
    assert a != b and b[0] < a[0]
    assert oracles.blocks_cross_naive(a, b)
    swapped = pi.swap_points(l)
    assert sorted(len(x) for x in swapped.blocks) == \
        sorted(len(x) for x in pi.blocks)


@pytest.mark.parametrize("l,message", [
    pytest.param(0, "l must lie in 1..2", id="0"),
    pytest.param(3, "l must lie in 1..2", id="3"),
    pytest.param(True, "l must be an integer, got True", id="True"),
    pytest.param(1.5, "l must be an integer, got 1.5", id="1.5"),
])
def test_swap_points_needs_a_leg_index(l, message):
    # True used to swap legs 1 and 2 and store the point as True
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        P("{1,2}{3}").swap_points(l)


def test_swap_points_matches_relabelling_through_the_constructor():
    for k in range(2, 8):
        for pi in enumerate_partitions(k):
            for l in range(1, k):
                mv = {l: l + 1, l + 1: l}
                want = SetPartition.of(k, [[mv.get(x, x) for x in b] for b in pi.blocks])
                assert pi.swap_points(l) == want, (pi, l)


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


def test_whitespace_between_blocks_is_skipped():
    pi = parse_partition("{1} {2}")
    assert pi == SetPartition.of(2, [(1,), (2,)]) and format_partition(pi) == "{1}{2}"


def test_two_row_reflection():
    pi = TwoRowPartition.of(2, 1, [(1, 2, 3)])
    r = oracles.reflected(pi)
    assert (r.k, r.l) == (1, 2)
    assert r.underlying == SetPartition.of(3, [(1, 2, 3)])
    cross = TwoRowPartition.of(2, 2, [(1, 4), (2, 3)])
    assert oracles.reflected(cross).underlying == cross.underlying


@pytest.mark.parametrize("k,l,text", [(1, 1, "{1,2}{3}"), (2, 2, "{1,2,3}"),
                                      (0, 0, "{1}"), (-1, 3, "{1,2}"),
                                      (3, -1, "{1,2}")])
def test_two_row_partition_checks_its_shape(k, l, text):
    with pytest.raises(ValueError) as info:
        TwoRowPartition(k, l, P(text))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("k,l,message", [
    pytest.param(True, 1, "k must be an integer, got True", id="k-True"),
    pytest.param(1, True, "l must be an integer, got True", id="l-True"),
    pytest.param(1.0, 1.0, "k must be an integer, got 1.0", id="floats"),
    pytest.param(1, 1.0, "l must be an integer, got 1.0", id="l-float"),
])
def test_two_row_partition_sizes_follow_the_integer_rule(k, l, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        TwoRowPartition(k, l, P("{1,2}"))
