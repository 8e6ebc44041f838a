"""Finite symmetry groups of a commutation pattern and exact relation checks.

Three independent views of the same pattern live here:

* the subgroup of S_n preserving the pattern under conjugation (the
  automorphism group of the associated graph), found by backtracking
  over the maps that keep each point's refined colour, with a generating
  set grown by cosets, and the check that mixed moments are invariant
  under it;
* the reflection representation on a direct sum of planes, one per
  coordinate pair, whose generators commute exactly where the pattern
  says so; a word's action multiplies only the planes each letter moves;
* the word problem for the group generated by n involutions subject to
  the pattern's commutations (the right-angled Coxeter group of the
  pattern graph), solved in one pass: a per-letter stack cancels by
  Tits' criterion, and a min-heap emits the lexicographically least
  commutation representative, in O(L*n + L log n) for L letters.

A relation checker evaluates families of quadratic relations on a
candidate fundamental matrix whose entries are exact-rational blocks.
The quadratic families share one loop over quadruples (i, j, k, l) and
differ only in the block that u[i,k]u[j,l] must equal.  The checker
runs on the package's exact kernel: each block is a one-leg
``TensorMap``.  The reflection planes stay 2x2 tuples with their own
small product, because the benchmark's words check reads them as tuples.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import factorial, prod

from .cumulants import CumulantSpec, check_word_loop, moment
from .epsmat import (EpsilonMatrix, Permutation, check_in_range, memo, parse_fraction,
                     record, validate_index)
from .report import CheckReport, CheckResult, SuiteReport
from .tensormaps import TensorMap

Mat = tuple[tuple[int | Fraction, ...], ...]

RELATION_TAGS = ("orthogonal", "magic", "R_eps", "Rring_eps", "Rprime_eps",
                 "R_aut", "selfadjoint-projections")


# ---------------------------------------------------------------------------
# pattern automorphisms

AUTOMORPHISM_LIMIT = factorial(9)  # comm(9): every pattern on nine points
EXCHANGEABILITY_LIMIT = 10 ** 7  # ex-f at max_k 8: 10 x 488,281 comparisons


def automorphism_group(eps: EpsilonMatrix) -> "PermGroup":
    """All permutations with eps[s(k), s(l)] == eps[k, l] for all k, l.

    Colour refinement starts from the degrees and recolours each point by
    its colour and the multiset of its neighbours' colours until no class
    splits; every automorphism keeps these colours.  Backtracking sends
    each point only to points of its own colour, so it tries at most the
    product over colour classes of (class size)! maps; that count is
    refused above :data:`AUTOMORPHISM_LIMIT` before any search, and a
    sparse pattern on more than nine points, such as a path, runs.
    """
    n = eps.n
    rng = range(1, n + 1)
    colour = [0] + [sum(eps.row(i)) for i in rng]  # 1-based like the points
    while True:
        keys = [(colour[i], tuple(sorted(colour[j] for j in rng if eps[i, j] == 1)))
                for i in rng]
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        if len(rank) == len(set(colour[1:])):
            break
        colour = [0] + [rank[key] for key in keys]
    if (work := prod(map(factorial, Counter(colour[1:]).values()))) > AUTOMORPHISM_LIMIT:
        raise ValueError(f"{work} colour-preserving maps exceed the brute-force "
                         f"bound {AUTOMORPHISM_LIMIT}")
    image = [0] * (n + 1)  # image[p] = s(p), 1-based
    used = [False] * (n + 1)
    found: list[Permutation] = []

    def extend(p: int):
        if p > n:
            found.append(Permutation(n, tuple(image[1:])))
            return
        for w in range(1, n + 1):
            if used[w] or colour[w] != colour[p]:
                continue
            if any(eps[p, u] != eps[w, image[u]] for u in range(1, p)):
                continue
            image[p] = w
            used[w] = True
            extend(p + 1)
            used[w] = False
        image[p] = 0

    extend(1)  # tries images in increasing order: found is in lexicographic order
    return PermGroup(n, tuple(found))


@record
class PermGroup:
    """A group of permutations of {1..n}, listed in full."""

    def __init__(self, n: int, elements: tuple[Permutation, ...]):
        self.__dict__.update(n=n, elements=elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def generators(self) -> tuple[Permutation, ...]:
        """A generating subset, chosen greedily in element order.  The span
        H of the earlier generators grows to <H, g> by whole right cosets
        H·r until r·s lies in it for every representative r and generator
        s (Dimino): one product per new element and one per (r, s) pair."""
        identity = Permutation.identity(self.n)
        gens: list[Permutation] = []
        span = {identity}
        for g in self.elements:
            if g in span:
                continue
            gens.append(g)
            subgroup, reps = tuple(span), [identity]
            for r in reps:  # grows as cosets are found
                for s in gens:
                    x = r.compose(s)
                    if x not in span:
                        span.update(h.compose(x) for h in subgroup)
                        reps.append(x)
            if len(span) == len(self.elements):
                break
        return tuple(gens)

    def to_json(self) -> dict:
        return {"n": self.n, "order": self.order,
                "elements": [list(g.images) for g in self.elements],
                "generators": [list(g.images) for g in self.generators()]}


def check_eps_exchangeability(eps: EpsilonMatrix, spec: CumulantSpec,
                              max_k: int) -> CheckReport:
    """Moments must be invariant under every pattern automorphism.

    Verifies moment(i) == moment(s o i) for all automorphisms s and all
    words of length up to ``max_k``.  The cumulant rows must be
    identical, matching the identically-distributed hypothesis; the
    inputs are checked by :func:`epsym.cumulants.check_word_loop`.  The
    |G| * sum_k n**k comparisons are refused above
    :data:`EXCHANGEABILITY_LIMIT` before any moment is computed.
    """
    check_word_loop(eps, spec, max_k)
    n = eps.n
    group = automorphism_group(eps)
    words = sum(n ** k for k in range(max_k + 1))
    if (work := group.order * words) > EXCHANGEABILITY_LIMIT:
        raise ValueError(f"{work} comparisons ({group.order} automorphisms x {words} "
                         f"words) exceed the limit {EXCHANGEABILITY_LIMIT}")
    checked = 0
    for k in range(max_k + 1):
        table = {i: moment(i, eps, spec) for i in product(range(1, n + 1), repeat=k)}
        for sigma in group.elements:
            for i, m in table.items():
                moved = tuple(sigma(v) for v in i)
                checked += 1
                if table[moved] != m:
                    return CheckReport(
                        False, checked,
                        f"sigma={sigma.images}, i={i}: {m} != {table[moved]}")
    return CheckReport(True, checked)


def permutation_satisfies_R_eps(sigma: Permutation, eps: EpsilonMatrix) -> bool:
    """Evaluate the mixed exchange relations on the permutation matrix.

    The matrix is a(p, q) = [p == sigma(q)].  The commuting family is
    vacuous for scalars; the two exchange families are checked literally
    as delta identities.
    """
    if sigma.n != eps.n:
        raise ValueError("permutation size differs from pattern size")
    n = eps.n

    def a(p: int, q: int) -> int:
        return 1 if p == sigma(q) else 0

    for i, j, k, l in product(range(1, n + 1), repeat=4):
        eij, ekl = eps[i, j], eps[k, l]
        if eij == 1 and ekl == 0:
            if a(i, k) * a(j, l) != a(j, k) * a(i, l):
                return False
        elif eij == 0 and ekl == 1:
            if a(i, k) * a(j, l) != a(i, l) * a(j, k):
                return False
    return True


# ---------------------------------------------------------------------------
# the reflection representation

# the two 2x2 seeds: a reflection and a swap; they do not commute
_A = ((-1, 0), (0, 1))
_B = ((0, 1), (1, 0))
_I2 = ((1, 0), (0, 1))


def _mmul(x: Mat, y: Mat) -> Mat:
    d = len(x)
    return tuple(tuple(sum(x[r][t] * y[t][c] for t in range(d)) for c in range(d))
                 for r in range(d))


@record
class CoxeterRep:
    """Generators acting block-diagonally on one plane per coordinate pair:
    ``gens[k-1][i]`` is generator k's 2x2 block on plane ``pairs[i]``."""

    def __init__(self, n: int, pairs: tuple[tuple[int, int], ...],
                 gens: tuple[tuple[Mat, ...], ...]):
        self.__dict__.update(n=n, pairs=pairs, gens=gens)

    def generator(self, k: int) -> tuple[Mat, ...]:
        return self.gens[k - 1]

    @memo
    def moves(self) -> tuple[tuple[tuple[int, Mat], ...], ...]:
        """For each generator, the (pair index, block) of every plane it moves."""
        return tuple(tuple((pi, g) for pi, g in enumerate(row) if g != _I2)
                     for row in self.gens)

    def word_blocks(self, word: Sequence[int]) -> tuple[Mat, ...]:
        """Product of generator actions, one 2x2 block per plane."""
        out = [_I2] * len(self.pairs)
        for letter in validate_index(word, self.n):
            for pi, g in self.moves[letter - 1]:
                out[pi] = _mmul(out[pi], g)
        return tuple(out)


def coxeter_rep(eps: EpsilonMatrix) -> CoxeterRep:
    """Generator k acts on the plane of pair (i, j) as the reflection if
    k == i, as the swap if k == j (both only when the pair is free),
    and as the identity otherwise."""
    n = eps.n
    if n < 2:
        raise ValueError("the representation needs at least two coordinates")
    pairs = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    gens = []
    for k in range(1, n + 1):
        row = []
        for (i, j) in pairs:
            if eps[i, j] == 0 and k == i:
                row.append(_A)
            elif eps[i, j] == 0 and k == j:
                row.append(_B)
            else:
                row.append(_I2)
        gens.append(tuple(row))
    return CoxeterRep(n, pairs, tuple(gens))


def check_coxeter_rep(eps: EpsilonMatrix) -> SuiteReport:
    """Generators square to the identity; two generators commute exactly
    when their pattern entry is 1."""
    rep = coxeter_rep(eps)
    checks = []
    for k in range(1, eps.n + 1):
        ok = all(_mmul(g, g) == _I2 for g in rep.generator(k))
        checks.append(CheckResult(f"generator {k} squares to identity", ok))
    for i in range(1, eps.n + 1):
        for j in range(i + 1, eps.n + 1):
            commute = all(
                _mmul(gi, gj) == _mmul(gj, gi)
                for gi, gj in zip(rep.generator(i), rep.generator(j)))
            want = eps[i, j] == 1
            checks.append(CheckResult(
                f"generators {i},{j} {'commute' if want else 'do not commute'}",
                commute == want,
                f"commute={commute}, pattern entry={eps[i, j]}"))
    return SuiteReport(tuple(checks))


# ---------------------------------------------------------------------------
# word problem

def word_reduce(word: Sequence[int], eps: EpsilonMatrix) -> tuple[int, ...]:
    """Canonical normal form of a word in the pattern's involution group.

    One pass cancels: each letter ``a`` looks at the latest surviving
    occurrence among the letters that do not commute with it (``a``
    among them).  If that occurrence is an ``a``, everything after it
    commutes with ``a`` and the two cancel (Tits' criterion); otherwise
    ``a`` survives.  The survivors form a reduced word, and its heap is
    emitted by Kahn's algorithm taking the least available letter each
    time.  No two available pieces share a letter, so this is the
    lexicographically least representative under adjacent commuting
    swaps (the Anisimov-Knuth normal form).  Two words name the same
    group element iff their normal forms coincide.  Cost: O(L*n) for a
    word of L letters over n generators, plus O(L log n) for the heap.
    """
    w = validate_index(word, eps.n)
    n = eps.n
    # the letters each letter does not commute with; the diagonal is 0,
    # so every letter blocks itself
    blockers = [()] + [tuple(b for b in range(1, n + 1) if eps[a, b] != 1)
                       for a in range(1, n + 1)]
    # cancellation: kept[p] is None once cancelled; stacks[a] holds the
    # positions of the surviving occurrences of a, latest last
    kept: list = []
    stacks: list[list[int]] = [[] for _ in range(n + 1)]
    for a in w:
        top, owner = -1, 0
        for b in blockers[a]:
            s = stacks[b]
            if s and s[-1] > top:
                top, owner = s[-1], b
        if owner == a:
            kept[stacks[a].pop()] = None
        else:
            stacks[a].append(len(kept))
            kept.append(a)
    reduced = [a for a in kept if a is not None]
    # the heap: each piece waits for the latest earlier piece of every
    # letter it does not commute with
    waits = [0] * len(reduced)
    after: list[list[int]] = [[] for _ in reduced]
    last = [-1] * (n + 1)
    for p, a in enumerate(reduced):
        for b in blockers[a]:
            q = last[b]
            if q >= 0:
                after[q].append(p)
                waits[p] += 1
        last[a] = p
    ready = [(a, p) for p, a in enumerate(reduced) if not waits[p]]
    heapify(ready)
    out = []
    while ready:
        a, p = heappop(ready)
        out.append(a)
        for q in after[p]:
            waits[q] -= 1
            if not waits[q]:
                heappush(ready, (reduced[q], q))
    return tuple(out)


def word_equal(w1: Sequence[int], w2: Sequence[int], eps: EpsilonMatrix) -> bool:
    return word_reduce(w1, eps) == word_reduce(w2, eps)


# ---------------------------------------------------------------------------
# relation checking on concrete fundamental matrices

def _seq(what: str, value) -> Iterable:
    if not isinstance(value, Iterable) or isinstance(value, str):  # "1/2" is one entry
        raise ValueError(f"{what} must be a sequence, got {value!r}")
    return value


@record
class Representation:
    """An n-by-n candidate fundamental matrix of d-by-d rational blocks.

    Each block is a ``TensorMap(d, 1, 1)`` whose entry ``(c,) -> (r,)``
    holds row r, column c, so ``a @ b`` is the matrix product ab.
    Representations compare by value but are unhashable: their blocks
    are mutable maps.
    """

    __hash__ = None

    def __init__(self, n: int, d: int, blocks: tuple[tuple[TensorMap, ...], ...]):
        self.__dict__.update(n=n, d=d, blocks=blocks)

    @classmethod
    def of(cls, blocks) -> "Representation":
        rows = tuple(tuple(tuple(tuple(map(parse_fraction, _seq("block row", r)))
                                 for r in _seq("block", m))
                           for m in _seq("block-matrix row", row))
                     for row in _seq("block matrix", blocks))
        n = len(rows)
        if not n:
            raise ValueError("block matrix must have at least one row")
        if any(len(r) != n for r in rows):
            raise ValueError("block matrix must be square")
        d = len(rows[0][0])
        if not d:
            raise ValueError("blocks must be at least 1x1")
        for row in rows:
            for m in row:
                if len(m) != d or any(len(mr) != d for mr in m):
                    raise ValueError("all blocks must share one dimension")
        return cls(n, d, tuple(tuple(
            TensorMap(d, 1, 1, (((c,), (r,), v) for r, mr in enumerate(m, 1)
                                for c, v in enumerate(mr, 1)))
            for m in row) for row in rows))

    def entry(self, i: int, j: int) -> TensorMap:
        """The block u[i,j]; both indices must lie in 1..n."""
        check_in_range("row index", i, 1, self.n)
        check_in_range("column index", j, 1, self.n)
        return self.blocks[i - 1][j - 1]


def perm_representation(sigma: Permutation) -> Representation:
    """The permutation matrix a(p, q) = [p == sigma(q)] as 1x1 blocks."""
    n = sigma.n
    return Representation.of([[[ [1 if p == sigma(q) else 0] ] for q in range(1, n + 1)]
                              for p in range(1, n + 1)])


def projection_pair_representation() -> Representation:
    """A 4x4 fundamental matrix over one pair of noncommuting projections.

    p and q are the spectral projections of the reflection and the swap;
    the matrix is block diagonal with one magic 2x2 block per projection.
    Against the two-commuting-pairs pattern it satisfies the vanishing
    exchange relations while u[1,1] and u[3,3] do not commute.
    """
    h = Fraction(1, 2)
    p = ((0, 0), (0, 1))
    one_m_p = ((1, 0), (0, 0))
    q = ((h, h), (h, h))
    one_m_q = ((h, -h), (-h, h))
    z = ((0, 0), (0, 0))
    return Representation.of([
        [p, one_m_p, z, z],
        [one_m_p, p, z, z],
        [z, z, q, one_m_q],
        [z, z, one_m_q, q],
    ])


def rep_check(u: Representation, eps: EpsilonMatrix,
              relations: Iterable[str]) -> SuiteReport:
    """Evaluate the requested relation families as exact block identities.

    Tags: orthogonal, magic, R_eps, Rring_eps, Rprime_eps, R_aut,
    selfadjoint-projections.  Each result carries the first violated
    instance (i, j, k, l).
    """
    if u.n != eps.n:
        raise ValueError("matrix size differs from pattern size")
    n, rows = u.n, u.blocks
    I, Z = TensorMap.identity(u.d, 1), TensorMap(u.d, 1, 1)
    rng = range(1, n + 1)

    def e(i: int, j: int) -> TensorMap:  # the loops' indices lie in 1..n
        return rows[i - 1][j - 1]

    def total(blocks) -> TensorMap:
        return sum(blocks, Z)

    def symmetric() -> str:
        for i, j in product(rng, rng):
            if e(i, j) != e(i, j).adjoint():
                return f"u[{i},{j}] is not symmetric"
        return ""

    def idempotent() -> str:
        for i, j in product(rng, rng):
            if e(i, j) @ e(i, j) != e(i, j):
                return f"u[{i},{j}] is not idempotent"
        return ""

    def stochastic() -> str:
        for i in rng:
            if total(e(i, k) for k in rng) != I:
                return f"row {i} does not sum to the identity"
            if total(e(k, i) for k in rng) != I:
                return f"column {i} does not sum to the identity"
        return ""

    def orthonormal() -> str:
        for i, j in product(rng, rng):
            want = I if i == j else Z
            if total(e(i, k) @ e(j, k) for k in rng) != want:
                return f"sum_k u[{i},k]u[{j},k] wrong"
            if total(e(k, i) @ e(k, j) for k in rng) != want:
                return f"sum_k u[k,{i}]u[k,{j}] wrong"
        return ""

    def weighted_sums() -> str:
        for i, l in product(rng, rng):
            if total(e(i, k) for k in rng if eps[k, l] == 1) != \
                    total(e(j, l) for j in rng if eps[i, j] == 1):
                return f"pattern-weighted row/column sums differ at ({i},{l})"
        return ""

    def quads(rhs, message: str):
        """The check that u[i,k]u[j,l] == rhs(i, j, k, l) wherever the
        family applies; ``rhs`` returns None where it does not."""
        def check() -> str:
            for i, j, k, l in product(rng, repeat=4):
                want = rhs(i, j, k, l)
                if want is not None and e(i, k) @ e(j, l) != want:
                    return message.format(i=i, j=j, k=k, l=l)
            return ""
        return check

    def exchanged(i, j, k, l):
        if eps[i, j] != eps[k, l]:
            return e(j, k) @ e(i, l) if eps[i, j] else e(i, l) @ e(j, k)

    def summed(i, j, k, l):
        if eps[i, j] == eps[k, l]:
            return None
        if eps[i, j]:
            return total(e(j, m) @ e(i, m) for m in rng
                         if eps[k, m] == 0) if k == l else Z
        return total(e(m, l) @ e(m, k) for m in rng
                     if eps[i, m] == 0) if i == j else Z

    commuting = quads(lambda i, j, k, l: e(j, l) @ e(i, k)
                      if eps[i, j] == eps[k, l] == 1 else None,
                      "u[{i},{k}] and u[{j},{l}] do not commute")
    # tag -> its prerequisite checks, then its own; the first message wins
    table = {
        "orthogonal": (symmetric, orthonormal),
        "magic": (symmetric, idempotent, stochastic),
        "R_eps": (commuting, quads(exchanged, "exchange fails at ({i},{j},{k},{l})")),
        "Rring_eps": (commuting, quads(
            lambda i, j, k, l: Z if eps[i, j] != eps[k, l] else None,
            "u[{i},{k}]u[{j},{l}] nonzero at ({i},{j},{k},{l})")),
        "Rprime_eps": (commuting,
                       quads(summed, "summed exchange fails at ({i},{j},{k},{l})")),
        "R_aut": (weighted_sums,),
        "selfadjoint-projections": (symmetric, idempotent),
    }
    checks = []
    for tag in relations:
        if tag not in table:
            raise ValueError(f"unknown relation tag {tag!r}; known: {', '.join(RELATION_TAGS)}")
        detail = next(filter(None, (check() for check in table[tag])), "")
        checks.append(CheckResult(tag, not detail, detail))
    return SuiteReport(tuple(checks))


def entries_commute(u: Representation, i: int, k: int, j: int, l: int) -> bool:
    """Do u[i,k] and u[j,l] commute?  Handy for noncommutativity witnesses.
    Every index must lie in 1..n."""
    a, b = u.entry(i, k), u.entry(j, l)
    return a @ b == b @ a
