"""Finite symmetry groups of a commutation pattern and exact relation checks.

Three independent views of the same pattern live here:

* the subgroup of S_n preserving the pattern under conjugation (the
  automorphism group of the associated graph), found by pruned
  backtracking;
* the reflection representation on a direct sum of planes, one per
  coordinate pair, whose generators commute exactly where the pattern
  says so;
* the word problem for the group generated by n involutions subject to
  the pattern's commutations (the right-angled Coxeter group of the
  pattern graph), solved in one pass: a per-letter stack cancels by
  Tits' criterion, and a min-heap emits the lexicographically least
  commutation representative, in O(L*n + L log n) for L letters.

A relation checker evaluates families of quadratic relations on a
candidate fundamental matrix whose entries are exact-rational blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import product
from typing import Iterable, Sequence

from .epsmat import EpsilonMatrix, Permutation
from .report import CheckResult, SuiteReport

Mat = tuple[tuple[Fraction, ...], ...]

RELATION_TAGS = ("orthogonal", "magic", "R_eps", "Rring_eps", "Rprime_eps",
                 "R_aut", "selfadjoint-projections")


# ---------------------------------------------------------------------------
# pattern automorphisms

def automorphism_group(eps: EpsilonMatrix, bound: int = 9) -> "PermGroup":
    """All permutations with eps[s(k), s(l)] == eps[k, l] for all k, l.

    Exhaustive backtracking with a degree pre-filter; refuses sizes
    beyond ``bound``.
    """
    n = eps.n
    if n > bound:
        raise ValueError(f"size {n} exceeds the brute-force bound {bound}")
    deg = [sum(eps.row(i)) for i in range(1, n + 1)]
    image = [0] * (n + 1)  # image[p] = s(p), 1-based
    used = [False] * (n + 1)
    found: list[Permutation] = []

    def extend(p: int):
        if p > n:
            found.append(Permutation(n, tuple(image[1:])))
            return
        for w in range(1, n + 1):
            if used[w] or deg[w - 1] != deg[p - 1]:
                continue
            if any(eps[p, u] != eps[w, image[u]] for u in range(1, p)):
                continue
            image[p] = w
            used[w] = True
            extend(p + 1)
            used[w] = False
        image[p] = 0

    extend(1)
    found.sort(key=lambda s: s.images)
    return PermGroup(n, tuple(found))


@dataclass(frozen=True)
class PermGroup:
    n: int
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def validate(self) -> None:
        """Assert closure, identity and inverses by iteration."""
        elems = set(self.elements)
        if Permutation.identity(self.n) not in elems:
            raise AssertionError("identity missing")
        for g in self.elements:
            if g.inverse() not in elems:
                raise AssertionError(f"inverse of {g.images} missing")
            for h in self.elements:
                if g.compose(h) not in elems:
                    raise AssertionError(f"product {g.images}*{h.images} missing")

    def generators(self) -> tuple[Permutation, ...]:
        """A generating subset, grown greedily in element order."""
        gens: list[Permutation] = []
        span = {Permutation.identity(self.n)}
        for g in self.elements:
            if g in span:
                continue
            gens.append(g)
            frontier = list(span)
            while frontier:
                x = frontier.pop()
                for h in gens:
                    for y in (x.compose(h), h.compose(x)):
                        if y not in span:
                            span.add(y)
                            frontier.append(y)
            if len(span) == len(self.elements):
                break
        return tuple(gens)

    def to_json(self) -> dict:
        return {"n": self.n, "order": self.order,
                "elements": [list(g.images) for g in self.elements],
                "generators": [list(g.images) for g in self.generators()]}


def permutation_satisfies_R_eps(sigma: Permutation, eps: EpsilonMatrix) -> bool:
    """Evaluate the mixed exchange relations on the permutation matrix.

    The matrix is a(p, q) = [p == sigma(q)].  The commuting family is
    vacuous for scalars; the two exchange families are checked literally
    as delta identities.
    """
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

Mat2 = tuple[tuple[int, int], tuple[int, int]]


def _m2mul(x: Mat2, y: Mat2) -> Mat2:
    return tuple(tuple(sum(x[r][t] * y[t][c] for t in range(2)) for c in range(2))
                 for r in range(2))  # type: ignore[return-value]


@dataclass(frozen=True)
class CoxeterRep:
    """Generators acting block-diagonally on one plane per coordinate pair."""

    n: int
    pairs: tuple[tuple[int, int], ...]
    gens: tuple[tuple[Mat2, ...], ...]  # gens[k-1][pair index]

    def generator(self, k: int) -> tuple[Mat2, ...]:
        return self.gens[k - 1]

    def word_blocks(self, word: Sequence[int]) -> tuple[Mat2, ...]:
        """Product of generator actions, one 2x2 block per plane."""
        out = []
        for pi in range(len(self.pairs)):
            m: Mat2 = _I2
            for letter in word:
                g = self.gens[letter - 1][pi]
                if g is not _I2:
                    m = _m2mul(m, g)
            out.append(m)
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
        ok = all(_m2mul(g, g) == _I2 for g in rep.generator(k))
        checks.append(CheckResult(f"generator {k} squares to identity", ok))
    for i in range(1, eps.n + 1):
        for j in range(i + 1, eps.n + 1):
            commute = all(
                _m2mul(gi, gj) == _m2mul(gj, gi)
                for gi, gj in zip(rep.generator(i), rep.generator(j)))
            want = eps[i, j] == 1
            checks.append(CheckResult(
                f"generators {i},{j} {'commute' if want else 'do not commute'}",
                commute == want,
                f"commute={commute}, pattern entry={eps[i, j]}"))
    return SuiteReport(tuple(checks))


# ---------------------------------------------------------------------------
# word problem

def _check_word(word: Sequence[int], n: int) -> tuple[int, ...]:
    w = tuple(word)
    for x in w:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"letter {x!r} is not an integer")
        if not 1 <= x <= n:
            raise ValueError(f"letter {x} outside 1..{n}")
    return w


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
    w = _check_word(word, eps.n)
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

def _frac_rows(rows) -> Mat:
    return tuple(tuple(Fraction(v) for v in r) for r in rows)


@dataclass(frozen=True)
class Representation:
    """An n-by-n candidate fundamental matrix of d-by-d rational blocks."""

    n: int
    d: int
    blocks: tuple[tuple[Mat, ...], ...]

    @classmethod
    def of(cls, blocks) -> "Representation":
        rows = tuple(tuple(_frac_rows(m) for m in row) for row in blocks)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("block matrix must be square")
        d = len(rows[0][0])
        for row in rows:
            for m in row:
                if len(m) != d or any(len(mr) != d for mr in m):
                    raise ValueError("all blocks must share one dimension")
        return cls(n, d, rows)

    def entry(self, i: int, j: int) -> Mat:
        return self.blocks[i - 1][j - 1]

    @cached_property
    def _id(self) -> Mat:
        d = self.d
        return tuple(tuple(Fraction(1 if r == c else 0) for c in range(d))
                     for r in range(d))

    @cached_property
    def _zero(self) -> Mat:
        d = self.d
        return tuple((Fraction(0),) * d for _ in range(d))


def _mmul(x: Mat, y: Mat) -> Mat:
    d = len(x)
    return tuple(tuple(sum(x[r][t] * y[t][c] for t in range(d)) for c in range(d))
                 for r in range(d))


def _madd(x: Mat, y: Mat) -> Mat:
    return tuple(tuple(a + b for a, b in zip(xr, yr)) for xr, yr in zip(x, y))


def _mT(x: Mat) -> Mat:
    d = len(x)
    return tuple(tuple(x[c][r] for c in range(d)) for r in range(d))


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
    n, I, Z = u.n, u._id, u._zero
    rng = range(1, n + 1)

    def selfadjoint_ok():
        for i, j in product(rng, rng):
            if u.entry(i, j) != _mT(u.entry(i, j)):
                return False, f"u[{i},{j}] is not symmetric"
        return True, ""

    def projections_ok():
        ok, why = selfadjoint_ok()
        if not ok:
            return ok, why
        for i, j in product(rng, rng):
            e = u.entry(i, j)
            if _mmul(e, e) != e:
                return False, f"u[{i},{j}] is not idempotent"
        return True, ""

    def magic_ok():
        ok, why = projections_ok()
        if not ok:
            return ok, why
        for i in rng:
            row = Z
            col = Z
            for k in rng:
                row = _madd(row, u.entry(i, k))
                col = _madd(col, u.entry(k, i))
            if row != I:
                return False, f"row {i} does not sum to the identity"
            if col != I:
                return False, f"column {i} does not sum to the identity"
        return True, ""

    def orthogonal_ok():
        ok, why = selfadjoint_ok()
        if not ok:
            return ok, why
        for i, j in product(rng, rng):
            want = I if i == j else Z
            s1 = Z
            s2 = Z
            for k in rng:
                s1 = _madd(s1, _mmul(u.entry(i, k), u.entry(j, k)))
                s2 = _madd(s2, _mmul(u.entry(k, i), u.entry(k, j)))
            if s1 != want:
                return False, f"sum_k u[{i},k]u[{j},k] wrong"
            if s2 != want:
                return False, f"sum_k u[k,{i}]u[k,{j}] wrong"
        return True, ""

    def commuting_family_ok():
        for i, j, k, l in product(rng, repeat=4):
            if eps[i, j] == 1 and eps[k, l] == 1:
                a, b = u.entry(i, k), u.entry(j, l)
                if _mmul(a, b) != _mmul(b, a):
                    return False, f"u[{i},{k}] and u[{j},{l}] do not commute"
        return True, ""

    def r_eps_ok():
        ok, why = commuting_family_ok()
        if not ok:
            return ok, why
        for i, j, k, l in product(rng, repeat=4):
            eij, ekl = eps[i, j], eps[k, l]
            if eij == 1 and ekl == 0:
                if _mmul(u.entry(i, k), u.entry(j, l)) != \
                        _mmul(u.entry(j, k), u.entry(i, l)):
                    return False, f"exchange fails at ({i},{j},{k},{l})"
            elif eij == 0 and ekl == 1:
                if _mmul(u.entry(i, k), u.entry(j, l)) != \
                        _mmul(u.entry(i, l), u.entry(j, k)):
                    return False, f"exchange fails at ({i},{j},{k},{l})"
        return True, ""

    def rring_eps_ok():
        ok, why = commuting_family_ok()
        if not ok:
            return ok, why
        for i, j, k, l in product(rng, repeat=4):
            if eps[i, j] != eps[k, l]:
                if _mmul(u.entry(i, k), u.entry(j, l)) != Z:
                    return False, f"u[{i},{k}]u[{j},{l}] nonzero at ({i},{j},{k},{l})"
        return True, ""

    def rprime_eps_ok():
        ok, why = commuting_family_ok()
        if not ok:
            return ok, why
        for i, j, k, l in product(rng, repeat=4):
            eij, ekl = eps[i, j], eps[k, l]
            if eij == 1 and ekl == 0:
                rhs = Z
                if k == l:
                    for m in rng:
                        if eps[k, m] == 0:
                            rhs = _madd(rhs, _mmul(u.entry(j, m), u.entry(i, m)))
                if _mmul(u.entry(i, k), u.entry(j, l)) != rhs:
                    return False, f"summed exchange fails at ({i},{j},{k},{l})"
            elif eij == 0 and ekl == 1:
                rhs = Z
                if i == j:
                    for m in rng:
                        if eps[i, m] == 0:
                            rhs = _madd(rhs, _mmul(u.entry(m, l), u.entry(m, k)))
                if _mmul(u.entry(i, k), u.entry(j, l)) != rhs:
                    return False, f"summed exchange fails at ({i},{j},{k},{l})"
        return True, ""

    def r_aut_ok():
        for i, l in product(rng, rng):
            s1 = Z
            s2 = Z
            for k in rng:
                if eps[k, l] == 1:
                    s1 = _madd(s1, u.entry(i, k))
            for j in rng:
                if eps[i, j] == 1:
                    s2 = _madd(s2, u.entry(j, l))
            if s1 != s2:
                return False, f"pattern-weighted row/column sums differ at ({i},{l})"
        return True, ""

    table = {
        "orthogonal": orthogonal_ok,
        "magic": magic_ok,
        "R_eps": r_eps_ok,
        "Rring_eps": rring_eps_ok,
        "Rprime_eps": rprime_eps_ok,
        "R_aut": r_aut_ok,
        "selfadjoint-projections": projections_ok,
    }
    checks = []
    for tag in relations:
        if tag not in table:
            raise ValueError(f"unknown relation tag {tag!r}; known: {', '.join(RELATION_TAGS)}")
        ok, detail = table[tag]()
        checks.append(CheckResult(tag, ok, detail))
    return SuiteReport(tuple(checks))


def entries_commute(u: Representation, i: int, k: int, j: int, l: int) -> bool:
    """Do u[i,k] and u[j,l] commute?  Handy for noncommutativity witnesses."""
    a, b = u.entry(i, k), u.entry(j, l)
    return _mmul(a, b) == _mmul(b, a)
