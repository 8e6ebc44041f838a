"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own algorithms:
partitions are enumerated by point insertion instead of growth strings,
noncrossing partitions by the first-block gap recursion, crossing
predicates by literal quadruple loops, and counting sequences by their
classical recurrences.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import comb


# ---------------------------------------------------------------------------
# counting sequences

def bell(k: int) -> int:
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def telephone(k: int) -> int:
    a, b = 1, 1  # t(0), t(1)
    if k == 0:
        return 1
    for n in range(2, k + 1):
        a, b = b, b + (n - 1) * a
    return b


def double_factorial_pairs(k: int) -> int:
    if k % 2:
        return 0
    out = 1
    for v in range(k - 1, 0, -2):
        out *= v
    return out


# ---------------------------------------------------------------------------
# independent partition enumeration (insertion order, set-of-sets form)

def insertion_partitions(k: int) -> list[frozenset[frozenset[int]]]:
    if k == 0:
        return [frozenset()]
    cur = [frozenset([frozenset([1])])]
    for p in range(2, k + 1):
        nxt = []
        for part in cur:
            for b in part:
                nxt.append(frozenset((part - {b}) | {b | {p}}))
            nxt.append(frozenset(part | {frozenset([p])}))
        cur = nxt
    return cur


def as_set_of_sets(pi) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(b) for b in pi.blocks)


# ---------------------------------------------------------------------------
# literal quadruple-loop crossing predicates

def naive_is_noncrossing(pi) -> bool:
    own = pi.owner
    k = pi.k
    for p1 in range(1, k + 1):
        for q1 in range(p1 + 1, k + 1):
            if own[p1 - 1] == own[q1 - 1]:
                continue
            for p2 in range(q1 + 1, k + 1):
                if own[p2 - 1] != own[p1 - 1]:
                    continue
                for q2 in range(p2 + 1, k + 1):
                    if own[q2 - 1] == own[q1 - 1]:
                        return False
    return True


def naive_is_eps_noncrossing(pi, i, eps) -> bool:
    own = pi.owner
    k = pi.k
    for p1 in range(1, k + 1):
        for q1 in range(p1 + 1, k + 1):
            if own[p1 - 1] == own[q1 - 1]:
                continue
            completes = False
            for p2 in range(q1 + 1, k + 1):
                if own[p2 - 1] != own[p1 - 1]:
                    continue
                for q2 in range(p2 + 1, k + 1):
                    if own[q2 - 1] == own[q1 - 1]:
                        completes = True
                        break
                if completes:
                    break
            if completes and eps[i[p1 - 1], i[q1 - 1]] != 1:
                return False
    return True


def naive_crossing_pairs(pi) -> set[tuple[int, int]]:
    own = pi.owner
    k = pi.k
    pairs = set()
    for p1 in range(1, k + 1):
        for q1 in range(p1 + 1, k + 1):
            if own[p1 - 1] == own[q1 - 1]:
                continue
            for p2 in range(q1 + 1, k + 1):
                if own[p2 - 1] != own[p1 - 1]:
                    continue
                for q2 in range(p2 + 1, k + 1):
                    if own[q2 - 1] == own[q1 - 1]:
                        pairs.add((p1, q1))
    return pairs


def blocks_cross_naive(a, b) -> bool:
    for p1 in a:
        for q1 in b:
            for p2 in a:
                for q2 in b:
                    if p1 < q1 < p2 < q2 or q1 < p1 < q2 < p2:
                        return True
    return False


# ---------------------------------------------------------------------------
# admissible partitions by enumerate-and-filter over all Bell(k) partitions

class _Owned:
    """The two fields the literal crossing predicates read."""

    def __init__(self, k, blocks):
        self.k = k
        own = [0] * k
        for bi, b in enumerate(blocks):
            for p in b:
                own[p - 1] = bi
        self.owner = tuple(own)


_FAMILY_SIZES = {
    "all": lambda s: True,
    "pair": lambda s: s == 2,
    "onetwo": lambda s: s in (1, 2),
    "even": lambda s: s % 2 == 0,
}


@lru_cache(maxsize=None)
def _rgs_ordered_partitions(k: int):
    """Every partition of 1..k as canonical blocks (sorted by minimum,
    ascending inside), sorted by restricted-growth string."""
    canon = [tuple(sorted(tuple(sorted(b)) for b in part))
             for part in insertion_partitions(k)]

    def rgs(blocks):
        word = [0] * k
        for bi, b in enumerate(blocks):
            for p in b:
                word[p - 1] = bi
        return tuple(word)

    return tuple(sorted(canon, key=rgs))


def naive_nc_eps_set(i, eps, cat) -> list[tuple[tuple[int, ...], ...]]:
    """Blocks of every partition in family ``cat`` that refines ker i and
    crosses only at pattern entry 1, in restricted-growth order."""
    i = tuple(i)
    size_ok = _FAMILY_SIZES[cat.value]
    out = []
    for blocks in _rgs_ordered_partitions(len(i)):
        if any(len({i[p - 1] for p in b}) > 1 for b in blocks):
            continue
        if not all(size_ok(len(b)) for b in blocks):
            continue
        if naive_is_eps_noncrossing(_Owned(len(i), blocks), i, eps):
            out.append(blocks)
    return out


# ---------------------------------------------------------------------------
# independent noncrossing enumeration by the first-block gap recursion

def _subsets(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    for rest in _subsets(items[1:]):
        yield rest
        yield (items[0],) + rest


def noncrossing_partitions(points) -> list[frozenset[frozenset[int]]]:
    pts = tuple(sorted(points))
    if not pts:
        return [frozenset()]
    s0, rest = pts[0], pts[1:]
    out = []
    for sub in _subsets(rest):
        block = (s0,) + tuple(sorted(sub))
        chosen = set(sub)
        buckets: list[list[int]] = [[] for _ in block]
        for x in rest:
            if x in chosen:
                continue
            t = bisect_left(block, x) - 1
            buckets[t].append(x)
        partials = [frozenset([frozenset(block)])]
        for bucket in buckets:
            if not bucket:
                continue
            partials = [p | q for p in partials for q in noncrossing_partitions(bucket)]
        out.extend(partials)
    return out


# ---------------------------------------------------------------------------
# moment oracles

def _single_variable_moment(order: int, v: int, spec) -> Fraction:
    total = Fraction(0)
    for part in noncrossing_partitions(range(1, order + 1)):
        term = Fraction(1)
        for b in part:
            term *= spec.kappa(v, len(b))
        total += term
    return total


def classical_moment(i, spec) -> Fraction:
    """Independent-commuting-variables factorisation: the moment is the
    product of single-variable moments of the multiplicities."""
    counts: dict[int, int] = {}
    for v in i:
        counts[v] = counts.get(v, 0) + 1
    out = Fraction(1)
    for v, c in counts.items():
        out *= _single_variable_moment(c, v, spec)
    return out


def free_moment(i, spec) -> Fraction:
    """Free moment-cumulant sum over noncrossing refinements of the kernel."""
    k = len(i)
    total = Fraction(0)
    for part in noncrossing_partitions(range(1, k + 1)):
        term = Fraction(1)
        ok = True
        for b in part:
            vals = {i[p - 1] for p in b}
            if len(vals) > 1:
                ok = False
                break
            term *= spec.kappa(vals.pop(), len(b))
        if ok:
            total += term
    return total


@lru_cache(maxsize=None)
def _cached_nc_count(k: int) -> int:
    return len(noncrossing_partitions(range(1, k + 1)))
