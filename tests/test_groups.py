import random
import re
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from strategies import eps_matrices, eps_with_word
from epsym.epsmat import EpsilonMatrix, Permutation, make_epsilon, preset
from epsym.groups import (_I2, _mmul, Representation, automorphism_group,
                          check_coxeter_rep, coxeter_rep, entries_commute,
                          perm_representation,
                          permutation_satisfies_R_eps,
                          projection_pair_representation, rep_check,
                          word_equal, word_reduce)

PRESETS_N6 = [
    ("comm2", preset("comm", 2)), ("comm4", preset("comm", 4)),
    ("comm6", preset("comm", 6)), ("free3", preset("free", 3)),
    ("free6", preset("free", 6)), ("block-2-2", preset("block", 2, 2)),
    ("block-3-3", preset("block", 3, 3)), ("ex-d", preset("ex-d")),
    ("ex-e", preset("ex-e")), ("ex-f", preset("ex-f")),
    ("trivial6", preset("trivial6")),
]


# --- the automorphism group ----------------------------------------------------

def test_group_orders_from_fixed_patterns():
    assert automorphism_group(preset("ex-d")).order == 8
    assert automorphism_group(preset("ex-e")).order == 8
    assert automorphism_group(preset("trivial6")).order == 1
    assert automorphism_group(preset("comm", 4)).order == 24
    assert automorphism_group(preset("free", 4)).order == 24


def test_ex_d_group_is_the_dihedral_one():
    group = automorphism_group(preset("ex-d"))
    images = {g.images for g in group.elements}
    assert (2, 1, 3, 4) in images          # swap inside the first pair
    assert (1, 2, 4, 3) in images          # swap inside the second pair
    assert (3, 4, 1, 2) in images          # swap the two pairs
    assert (2, 3, 4, 1) not in images      # a plain 4-cycle breaks the pattern


def test_group_structure_validates():
    for name, eps in [("ex-d", preset("ex-d")), ("ex-f", preset("ex-f")),
                      ("trivial6", preset("trivial6"))]:
        oracles.check_group_closure(automorphism_group(eps))


def test_group_bound():
    with pytest.raises(ValueError, match="bound"):
        automorphism_group(preset("free", 10))
    # a ten-vertex path: only the identity and the end-to-end flip
    rows = [[0] * 10 for _ in range(10)]
    for i in range(9):
        rows[i][i + 1] = rows[i + 1][i] = 1
    path = make_epsilon(10, rows)
    assert automorphism_group(path).order == 2


def _path(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = rows[i + 1][i] = 1
    return make_epsilon(n, rows)


def _cycle(n):
    return make_epsilon(n, [[int((i - j) % n in (1, n - 1)) for j in range(n)]
                            for i in range(n)])


def _disjoint(eps, copies):
    # block-diagonal copies of one pattern: no entry links two copies
    n = eps.n
    return make_epsilon(n * copies, [
        [eps[i % n + 1, j % n + 1] if i // n == j // n else 0
         for j in range(n * copies)] for i in range(n * copies)])


def test_group_limit_counts_degree_preserving_maps():
    # an 11-point path: refined by neighbours, five pairs and the middle
    # point give 2**5 candidates, not the 2!*9! of its degree classes
    assert automorphism_group(_path(11)).order == 2
    # two copies of trivial6: three degree classes of four, 4!**3 candidates
    twice = _disjoint(preset("trivial6"), 2)
    assert twice.n == 12
    group = automorphism_group(twice)
    assert group.order == 2
    oracles.check_group_closure(group)
    # a 9-cycle sits at the limit (9! candidates), a 10-cycle above it
    assert automorphism_group(_cycle(9)).order == 18
    with pytest.raises(ValueError, match="bound"):
        automorphism_group(_cycle(10))


def test_group_limit_counts_refined_classes():
    group = automorphism_group(_path(12))  # six pairs: 2**6 candidates
    assert group.order == 2
    oracles.check_group_closure(group)
    # a 20-point path comes under the limit only once refinement has split
    # off seven pairs (2**7 * 6! candidates); fully refined it has 2**10
    assert automorphism_group(_path(20)).order == 2
    # a regular pattern does not refine: the 10-cycle keeps one class of ten
    with pytest.raises(ValueError, match=r"^3628800 .*brute-force bound 362880$"):
        automorphism_group(_cycle(10))


def _preserving(eps):
    """Every permutation that keeps the pattern, by trying all of them."""
    points = range(1, eps.n + 1)
    return [images for images in permutations(points)
            if all(eps[images[i - 1], images[j - 1]] == eps[i, j]
                   for i in points for j in points)]


def test_refined_search_finds_every_automorphism():
    # every pattern on at most five points, then random seven-point ones
    patterns = []
    for n in range(1, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pairs)):
            patterns.append(make_epsilon(n, [
                [int(i != j and mask >> pairs.index((min(i, j), max(i, j))) & 1)
                 for j in range(n)] for i in range(n)]))
    rng = random.Random(7)
    for _ in range(12):
        rows = [[0] * 7 for _ in range(7)]
        for i in range(7):
            for j in range(i + 1, 7):
                rows[i][j] = rows[j][i] = int(rng.random() < 0.3)
        patterns.append(make_epsilon(7, rows))
    for eps in patterns:
        got = [g.images for g in automorphism_group(eps).elements]
        assert got == _preserving(eps), eps.entries


GENERATOR_PATTERNS = {
    **{name: preset(name) for name in
       ("ex-d", "pairs-indep", "ex-e", "pairs-free", "ex-f", "cycle5", "trivial6")},
    **{f"{name}{n}": preset(name, n) for name in ("comm", "free") for n in range(1, 7)},
    **{f"block-{a}-{b}": preset("block", a, b)
       for a in range(7) for b in range(7) if 1 <= a + b <= 6},
    "path10": _path(10),
}


@pytest.mark.parametrize("eps", GENERATOR_PATTERNS.values(), ids=GENERATOR_PATTERNS)
def test_generators_match_the_regrowth_oracle(eps):
    group = automorphism_group(eps)
    assert group.generators() == oracles.naive_generators(group)


def test_generators_generate():
    group = automorphism_group(preset("ex-e"))
    gens = group.generators()
    span = {Permutation.identity(4)}
    frontier = list(span)
    while frontier:
        x = frontier.pop()
        for h in gens:
            y = x.compose(h)
            if y not in span:
                span.add(y)
                frontier.append(y)
    assert span == set(group.elements)


def test_group_json():
    data = automorphism_group(preset("ex-d")).to_json()
    assert data["order"] == 8 and len(data["elements"]) == 8
    assert data["elements"] == sorted(data["elements"])


def test_full_symmetric_group_iff_constant_pattern():
    # exhaustive over all patterns with n <= 5
    import math
    for n in range(2, 6):
        pair_positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pair_positions)):
            rows = [[0] * n for _ in range(n)]
            for b, (i, j) in enumerate(pair_positions):
                if mask >> b & 1:
                    rows[i][j] = rows[j][i] = 1
            eps = make_epsilon(n, rows)
            full = automorphism_group(eps).order == math.factorial(n)
            constant = mask == 0 or mask == (1 << len(pair_positions)) - 1
            assert full == constant, (n, mask)


# --- the permutation-matrix relation route --------------------------------------

def test_identity_satisfies_relations():
    for name, eps in PRESETS_N6:
        assert permutation_satisfies_R_eps(Permutation.identity(eps.n), eps)


def test_swap_of_commuting_pair_on_ex_d():
    assert permutation_satisfies_R_eps(Permutation(4, (2, 1, 3, 4)), preset("ex-d"))


def test_edge_to_nonedge_fails_with_delta_contradiction():
    # sends the commuting pair {1,2} onto the free pair {1,3}
    sigma = Permutation(4, (1, 3, 2, 4))
    assert not permutation_satisfies_R_eps(sigma, preset("ex-d"))


def test_relation_route_equals_membership():
    for name, eps in PRESETS_N6:
        group = {g.images for g in automorphism_group(eps).elements}
        for images in permutations(range(1, eps.n + 1)):
            sigma = Permutation(eps.n, images)
            assert permutation_satisfies_R_eps(sigma, eps) == (images in group), \
                (name, images)


# --- the reflection representation ----------------------------------------------

def test_two_free_generators_do_not_commute():
    rep = coxeter_rep(preset("free", 2))
    a = rep.generator(1)[0]
    b = rep.generator(2)[0]
    assert _mmul(a, b) == ((0, -1), (1, 0))
    assert _mmul(a, b) != _mmul(b, a)


def test_comm_pattern_generators_all_commute():
    rep = coxeter_rep(preset("comm", 3))
    for i in range(1, 4):
        for j in range(i + 1, 4):
            for gi, gj in zip(rep.generator(i), rep.generator(j)):
                assert _mmul(gi, gj) == _mmul(gj, gi)


def test_cycle5_commutations_match_pattern():
    eps = preset("ex-f")
    rep = coxeter_rep(eps)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            commute = all(_mmul(a, b) == _mmul(b, a)
                          for a, b in zip(rep.generator(i), rep.generator(j)))
            assert commute == (eps[i, j] == 1)


@pytest.mark.parametrize("name,eps", PRESETS_N6)
def test_coxeter_check_passes_on_presets(name, eps):
    report = check_coxeter_rep(eps)
    assert report.passed, "\n".join(report.lines())


@pytest.mark.parametrize("word", [(0,), (1, 6), (2, True), (1.0,)], ids=repr)
def test_word_blocks_validates_letters(word):
    with pytest.raises(ValueError, match="index entry") as info:
        coxeter_rep(preset("free", 5)).word_blocks(word)
    assert "\n" not in str(info.value)


def test_word_blocks_moves_only_moved_planes():
    rep = coxeter_rep(preset("ex-f"))
    for k, moved in enumerate(rep.moves, start=1):
        assert [pi for pi, _ in moved] == [
            pi for pi, (i, j) in enumerate(rep.pairs)
            if k in (i, j) and preset("ex-f")[i, j] == 0]


# --- the word problem -------------------------------------------------------------

def test_word_reduce_examples():
    eps = preset("ex-d")
    assert word_reduce((1, 1), eps) == ()
    assert word_reduce((1, 2, 1), eps) == (2,)
    assert word_reduce((1, 3, 1), eps) == (1, 3, 1)


def test_word_reduce_picks_lex_least():
    eps = preset("comm", 3)
    assert word_reduce((3, 2, 1), eps) == (1, 2, 3)
    eps0 = preset("free", 3)
    assert word_reduce((3, 2, 1), eps0) == (3, 2, 1)


def test_word_equal_examples():
    eps = preset("ex-d")
    assert word_equal((1, 2), (2, 1), eps)
    assert not word_equal((1, 3), (3, 1), eps)
    assert word_equal((1, 2, 2, 1), (), eps)


def test_word_letters_validated():
    with pytest.raises(ValueError):
        word_reduce((0,), preset("free", 2))
    with pytest.raises(ValueError):
        word_reduce((3,), preset("free", 2))


@pytest.mark.parametrize("letter", [2.5, 1.0, "1", True, False, None, Fraction(1)],
                         ids=repr)
def test_word_rejects_non_integer_letters(letter):
    with pytest.raises(ValueError, match="not an integer") as info:
        word_reduce((1, letter), preset("ex-d"))
    assert "\n" not in str(info.value)
    with pytest.raises(ValueError, match="not an integer"):
        word_equal((), (letter,), preset("ex-d"))


# --- the one-pass reducer against the rescanning oracle ---------------------------

EXHAUSTIVE_WORDS = [
    ("comm3", preset("comm", 3), 7), ("free3", preset("free", 3), 7),
    ("ex-d", preset("ex-d"), 6), ("ex-e", preset("ex-e"), 6),
    ("block-2-2", preset("block", 2, 2), 6),
]


@pytest.mark.parametrize("name,eps,max_len", EXHAUSTIVE_WORDS,
                         ids=[case[0] for case in EXHAUSTIVE_WORDS])
def test_word_reduce_matches_oracle_exhaustively(name, eps, max_len):
    for length in range(max_len + 1):
        for w in product(range(1, eps.n + 1), repeat=length):
            assert word_reduce(w, eps) == oracles.naive_word_reduce(w, eps), (name, w)


ORACLE_PATTERNS = [preset("ex-f"), preset("cycle5"), preset("trivial6"),
                   preset("block", 2, 3), preset("free", 5)]


@st.composite
def long_pattern_words(draw, max_len: int = 80):
    eps = draw(st.sampled_from(ORACLE_PATTERNS))
    length = draw(st.integers(0, max_len))
    w = draw(st.lists(st.integers(1, eps.n), min_size=length, max_size=length))
    return eps, tuple(w)


@given(long_pattern_words())
@settings(max_examples=150, deadline=None)
def test_word_reduce_matches_oracle_on_long_words(ew):
    eps, w = ew
    assert word_reduce(w, eps) == oracles.naive_word_reduce(w, eps)


def _odd_letters(word):
    return {a for a in set(word) if word.count(a) % 2}


LONG_WORD_PATTERNS = [
    ("ex-f", preset("ex-f")), ("trivial6", preset("trivial6")),
    ("block-2-3", preset("block", 2, 3)), ("comm5", preset("comm", 5)),
    ("free5", preset("free", 5)),
]


@pytest.mark.parametrize("name,eps", LONG_WORD_PATTERNS,
                         ids=[case[0] for case in LONG_WORD_PATTERNS])
def test_five_thousand_letter_words(name, eps):
    rng = random.Random(name)
    w = tuple(rng.randint(1, eps.n) for _ in range(5_000))
    nf = word_reduce(w, eps)
    assert word_reduce(w + w[::-1], eps) == ()
    assert word_reduce(nf, eps) == nf
    rep = coxeter_rep(eps)
    assert rep.word_blocks(nf) == rep.word_blocks(w)
    assert rep.word_blocks(w) == oracles.naive_word_blocks(rep, w)
    assert _odd_letters(nf) == _odd_letters(w)


def _random_legal_move(rng, w, eps):
    """Insert a square, delete an adjacent square, or swap an adjacent
    commuting pair; all preserve the group element."""
    w = list(w)
    choices = ["insert"]
    squares = [p for p in range(len(w) - 1) if w[p] == w[p + 1]]
    swaps = [p for p in range(len(w) - 1)
             if w[p] != w[p + 1] and eps[w[p], w[p + 1]] == 1]
    if squares:
        choices.append("delete")
    if swaps:
        choices.append("swap")
    move = rng.choice(choices)
    if move == "insert":
        pos = rng.randint(0, len(w))
        a = rng.randint(1, eps.n)
        w[pos:pos] = [a, a]
    elif move == "delete":
        p = rng.choice(squares)
        del w[p:p + 2]
    else:
        p = rng.choice(swaps)
        w[p], w[p + 1] = w[p + 1], w[p]
    return tuple(w)


@given(eps_with_word())
@settings(max_examples=120, deadline=None)
def test_word_equal_is_move_invariant(ew):
    eps, w = ew
    rng = random.Random(hash((eps.entries, w)) & 0xFFFF)
    moved = w
    for _ in range(4):
        moved = _random_legal_move(rng, moved, eps)
    assert word_equal(w, moved, eps)
    assert word_reduce(w, eps) == word_reduce(moved, eps)


@given(eps_with_word())
@settings(max_examples=120, deadline=None)
def test_normal_form_sound_against_reflection_rep(ew):
    eps, w = ew
    rep = coxeter_rep(eps)
    assert rep.word_blocks(w) == rep.word_blocks(word_reduce(w, eps))
    assert rep.word_blocks(w) == oracles.naive_word_blocks(rep, w)


def test_normal_form_idempotent():
    eps = preset("ex-f")
    rng = random.Random(5)
    for _ in range(200):
        w = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 12)))
        nf = word_reduce(w, eps)
        assert word_reduce(nf, eps) == nf


# --- relation checking on block matrices -----------------------------------------

def test_projection_pair_representation_passes():
    u = projection_pair_representation()
    report = rep_check(u, preset("ex-d"), ["magic", "Rring_eps"])
    assert report.passed, "\n".join(report.lines())


def test_projection_pair_noncommutativity_witness():
    u = projection_pair_representation()
    assert not entries_commute(u, 1, 1, 3, 3)


def test_projection_pair_fails_against_wrong_pattern():
    u = projection_pair_representation()
    report = rep_check(u, preset("ex-e"), ["Rring_eps"])
    assert not report.passed


def test_representations_compare_by_value_but_are_unhashable():
    u = projection_pair_representation()
    assert u == projection_pair_representation() and u != perm_representation(
        Permutation(4, (2, 1, 4, 3)))
    assert Representation.__hash__ is None
    with pytest.raises(TypeError, match=r"^unhashable type: 'Representation'$"):
        hash(u)


def test_permutation_matrices_pass_relations():
    for name, eps in [("ex-d", preset("ex-d")), ("ex-f", preset("ex-f")),
                      ("comm4", preset("comm", 4))]:
        for sigma in automorphism_group(eps).elements:
            u = perm_representation(sigma)
            report = rep_check(u, eps, ["magic", "R_eps", "R_aut", "orthogonal"])
            assert report.passed, (name, sigma.images, "\n".join(report.lines()))


def test_non_member_fails_R_eps():
    eps = preset("ex-d")
    sigma = Permutation(4, (1, 3, 2, 4))
    report = rep_check(perm_representation(sigma), eps, ["R_eps"])
    assert not report.passed


def test_summed_exchange_relations_on_automorphisms():
    # the refined vanishing products: for eps_ij = 1, eps_kl = 0, k != l
    # the product u[i,k]u[j,l] vanishes on every pattern automorphism
    eps = preset("ex-d")
    for sigma in automorphism_group(eps).elements:
        u = perm_representation(sigma)
        report = rep_check(u, eps, ["Rprime_eps"])
        assert report.passed
        for i, j, k, l in product(range(1, 5), repeat=4):
            if eps[i, j] == 1 and eps[k, l] == 0 and k != l:
                prod_val = (u.entry(i, k) @ u.entry(j, l)).scalar_at((1,), (1,))
                assert prod_val == 0


def test_blocks_hold_row_r_column_c_at_c_to_r():
    # non-symmetric blocks, so a transposed kernel would multiply wrongly
    h = Fraction(1, 2)
    dense = [[((1, 2), (0, h)), ((0, -1), (3, 0))],
             [((h, 0), (Fraction(-2, 3), 1)), ((0, 0), (1, 4))]]
    u = Representation.of(dense)
    for i, j, r, c in product((1, 2), repeat=4):
        assert u.entry(i, j).scalar_at((c,), (r,)) == dense[i - 1][j - 1][r - 1][c - 1]
    for i, j, k, l in product((1, 2), repeat=4):
        want = oracles.naive_block_product(dense[i - 1][k - 1], dense[j - 1][l - 1])
        got = u.entry(i, k) @ u.entry(j, l)
        assert tuple(tuple(got.scalar_at((c,), (r,)) for c in (1, 2))
                     for r in (1, 2)) == want, (i, j, k, l)


def test_rep_check_unknown_tag():
    with pytest.raises(ValueError, match="unknown relation"):
        rep_check(projection_pair_representation(), preset("ex-d"), ["bogus"])


def test_rep_check_size_mismatch():
    with pytest.raises(ValueError, match="size"):
        rep_check(projection_pair_representation(), preset("free", 3), ["magic"])


@pytest.mark.parametrize("i,j,message", [
    (0, 0, "row index must lie in 1..4"), (5, 1, "row index must lie in 1..4"),
    (1, -1, "column index must lie in 1..4"), (1, 5, "column index must lie in 1..4"),
    (True, 1, "row index must be an integer, got True"),
])
def test_entry_indices_are_checked(i, j, message):
    # a negative index used to read a block from the far end: u[0,0] was u[4,4]
    u = projection_pair_representation()
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        u.entry(i, j)
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        entries_commute(u, 1, 1, i, j)
    assert u.entry(4, 4) == u.blocks[3][3]


@pytest.mark.parametrize("images", [(2, 1, 3, 4, 5), (1, 2, 3)], ids=["5-on-4", "3-on-4"])
def test_relation_route_needs_the_pattern_size(images):
    # a 5-point permutation used to pass after only a 4x4 corner was checked,
    # and a 3-point one raised IndexError
    with pytest.raises(ValueError, match=r"^permutation size differs from pattern size$"):
        permutation_satisfies_R_eps(Permutation(len(images), images), preset("ex-d"))


def test_representation_rejects_empty_input():
    with pytest.raises(ValueError, match=r"^block matrix must have at least one row$"):
        Representation.of([])
    with pytest.raises(ValueError, match=r"^blocks must be at least 1x1$"):
        Representation.of([[[]]])
    assert Representation.of([[[[1]]]]).d == 1


@pytest.mark.parametrize("blocks,message", [
    pytest.param([[[[1]], [[0]]]], "block matrix must be square", id="one-row-two-columns"),
    pytest.param([[[[1]], [[0]]], [[[0]]]], "block matrix must be square", id="short-row"),
    pytest.param([[[[1]], [[0, 0], [0, 0]]], [[[0]], [[1]]]],
                 "all blocks must share one dimension", id="1x1-and-2x2"),
    pytest.param([[[[1, 0], [0]]]], "all blocks must share one dimension", id="ragged-block"),
])
def test_representation_rejects_misshapen_blocks(blocks, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        Representation.of(blocks)


@pytest.mark.parametrize("blocks,message", [
    pytest.param(5, "block matrix must be a sequence, got 5", id="number"),
    pytest.param([5], "block-matrix row must be a sequence, got 5", id="row-number"),
    pytest.param([[1]], "block must be a sequence, got 1", id="block-number"),
    pytest.param([[[1, 2]]], "block row must be a sequence, got 1", id="block-row-number"),
    pytest.param(["1"], "block-matrix row must be a sequence, got '1'", id="row-string"),
    pytest.param([[["1/2"]]], "block row must be a sequence, got '1/2'", id="block-row-string"),
])
def test_representation_rejects_non_sequences(blocks, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        Representation.of(blocks)


def test_permutations_compose_only_at_one_size():
    with pytest.raises(ValueError, match=r"^size mismatch$"):
        Permutation.identity(2).compose(Permutation.identity(3))
