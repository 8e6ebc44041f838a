"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own algorithms:
partitions are enumerated by point insertion or by walking every
growth string instead of by placement with crossing pruning (the one
exception, :func:`bfs_placements`, is the breadth-first form of the
library's placement loop, kept to check its order on long words),
noncrossing partitions by the first-block gap recursion, crossing
predicates by literal quadruple loops, the reduction's interval search
by restricting every candidate interval, counting sequences by their
classical recurrences, word normal forms by rescanning cancellation
and a quadratic lex-least selection, a word's reflection-representation
action by a plane-by-plane product, a two-row partition's row swap by
relabelling its points, the tensor maps as coefficient tables by brute
force over all label pairs, the indicator check vector by vector, a
group's closure by iterating over all pairs, its greedy generating
set by regrowing the whole span on both sides after every new
generator, and the pattern text format by a character-by-character
scanner.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import product
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


def naive_find_noncrossing_subpartition(pi):
    """The interval search of ``find_noncrossing_subpartition`` with every
    candidate restricted and its crossings listed by the quadruple loop:
    block-closed p..q, proper intervals leftmost then shortest, the full
    interval only when no proper one qualifies.  Reads only ``pi.k`` and
    ``pi.blocks``; the restriction is relabelled here."""
    k = pi.k
    if k == 0:
        return None
    bmin, bmax = [0] * k, [0] * k
    for b in pi.blocks:
        for x in b:
            bmin[x - 1], bmax[x - 1] = b[0], b[-1]
    for p in range(1, k + 1):
        mn, mx = k + 1, 0
        for q in range(p, k + 1):
            mn = min(mn, bmin[q - 1])
            mx = max(mx, bmax[q - 1])
            if mn < p:
                break
            if mx > q:
                continue
            if q - p + 1 == k:
                break
            inside = [[x - p + 1 for x in b] for b in pi.blocks if p <= b[0] <= q]
            if not naive_crossing_pairs(_Owned(q - p + 1, inside)):
                return type(pi).of(q - p + 1, inside), p, q
            break
    if not naive_crossing_pairs(_Owned(k, pi.blocks)):
        return pi, 1, k
    return None


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


def bfs_placements(vals, rows, cat) -> list[tuple[tuple[int, ...], ...]]:
    """Blocks of every partition in family ``cat`` admissible for the
    labels ``vals`` under the pattern ``rows``, in restricted-growth order.

    The library's placement loop as it was before its depth-first walk,
    kept as a differential oracle for lengths that the Bell(k) filter of
    :func:`naive_nc_eps_set` cannot reach: it keeps every admissible
    placement of points 1..p-1 and extends each, level by level, trying
    the joins in block order and then a new block.
    """
    # admissible placements of points 1..p-1; each state's extensions are
    # appended in choice order, so the list stays in restricted-growth order
    states = [()]
    cap = cat.largest_block or len(vals)
    for p, v in enumerate(vals, start=1):
        row = rows[v - 1]
        grown = []
        for blocks in states:
            for bi, b in enumerate(blocks):
                if len(b) < cap and vals[b[0] - 1] == v and not any(
                        row[vals[a[0] - 1] - 1] == 0 and a[0] < b[-1] < a[-1]
                        for a in blocks):
                    grown.append(blocks[:bi] + (b + (p,),) + blocks[bi + 1:])
            grown.append(blocks + ((p,),))
        states = grown
    k = len(vals)
    if not all(map(cat.allows, range(1, min(cap, k) + 1))):
        allowed = [cat.allows(size) for size in range(k + 1)]
        states = [blocks for blocks in states
                  if all(allowed[len(b)] for b in blocks)]
    return states


# ---------------------------------------------------------------------------
# all partitions by walking every restricted-growth string, then filtering

def _rgs_words(k: int):
    if k == 0:
        yield ()
        return
    word = [0] * k

    def rec(pos: int, mx: int):
        if pos == k:
            yield tuple(word)
            return
        for v in range(mx + 2):
            word[pos] = v
            yield from rec(pos + 1, max(mx, v))

    yield from rec(1, 0)


def _from_rgs(k: int, rgs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    nblocks = max(rgs) + 1 if k else 0
    blocks: list[list[int]] = [[] for _ in range(nblocks)]
    for pos, v in enumerate(rgs, start=1):
        blocks[v].append(pos)
    return tuple(tuple(b) for b in blocks)


def naive_enumerate_partitions(k: int, cat, noncrossing_only: bool = False):
    """Blocks of every partition of 1..k in family ``cat`` (noncrossing
    ones only, if asked), in restricted-growth order."""
    size_ok = _FAMILY_SIZES[cat.value]
    out = []
    for rgs in _rgs_words(k):
        blocks = _from_rgs(k, rgs)
        if not all(size_ok(len(b)) for b in blocks):
            continue
        if noncrossing_only and not naive_is_noncrossing(_Owned(k, blocks)):
            continue
        out.append(blocks)
    return out


# ---------------------------------------------------------------------------
# the word problem by repeated cancellation and quadratic lex-least selection

def _first_cancellable(word: tuple[int, ...], eps):
    # equal letters cancel once everything strictly between commutes with
    # them; the diagonal entry 0 makes an equal letter in between a blocker
    for p in range(len(word)):
        a = word[p]
        for q in range(p + 1, len(word)):
            if word[q] == a:
                return p, q
            if eps[word[q], a] != 1:
                break
    return None


def _lex_least(word: tuple[int, ...], eps) -> tuple[int, ...]:
    rest = list(word)
    out = []
    while rest:
        best_pos = None
        for pos, a in enumerate(rest):
            if all(eps[x, a] == 1 for x in rest[:pos]):
                if best_pos is None or a < rest[best_pos]:
                    best_pos = pos
        out.append(rest.pop(best_pos))
    return tuple(out)


def naive_word_reduce(word, eps) -> tuple[int, ...]:
    """Cancel the first cancellable pair, rescanning from the start, until
    none is left; then repeatedly take the least letter that commutes with
    everything before it."""
    w = tuple(word)
    while True:
        hit = _first_cancellable(w, eps)
        if hit is None:
            break
        p, q = hit
        w = w[:p] + w[p + 1:q] + w[q + 1:]
    return _lex_least(w, eps)


def naive_word_blocks(rep, word) -> tuple:
    """The reflection representation's action of a word, plane by plane:
    every letter's 2x2 block is multiplied in, identities included."""
    def mul(x, y):
        return tuple(tuple(x[r][0] * y[0][c] + x[r][1] * y[1][c] for c in range(2))
                     for r in range(2))

    out = []
    for plane in range(len(rep.pairs)):
        m = ((1, 0), (0, 1))
        for letter in word:
            m = mul(m, rep.gens[letter - 1][plane])
        out.append(m)
    return tuple(out)


# ---------------------------------------------------------------------------
# group closure by iteration, and a greedy generating set by regrowing
# the whole span for every generator

def check_group_closure(group) -> None:
    """Assert that a permutation group's elements contain the identity
    and every inverse and product, by iterating over all pairs."""
    elems = set(group.elements)
    if tuple(range(1, group.n + 1)) not in {g.images for g in elems}:
        raise AssertionError("identity missing")
    for g in group.elements:
        if g.inverse() not in elems:
            raise AssertionError(f"inverse of {g.images} missing")
        for h in group.elements:
            if g.compose(h) not in elems:
                raise AssertionError(f"product {g.images}*{h.images} missing")


def naive_generators(group) -> tuple:
    """A generating subset of a permutation group, grown greedily in
    element order; after each new generator the span is closed again
    under left and right products with every generator so far."""
    gens: list = []
    span = {group.elements[0]}  # the identity sorts first
    for g in group.elements:
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
        if len(span) == len(group.elements):
            break
    return tuple(gens)


# ---------------------------------------------------------------------------
# the row swap of a two-row partition (the adjoint on the diagrammatic side)

def reflected(two):
    """The two-row partition with its k upper and l lower points swapped:
    upper point x becomes lower point l + x, lower point k + y upper y."""
    k, l = two.k, two.l
    return type(two).of(l, k, [[l + x if x <= k else x - k for x in b]
                                for b in two.underlying.blocks])


# ---------------------------------------------------------------------------
# tensor maps as {(input label, output label): coefficient} tables

def naive_t_pi(pi, n) -> dict:
    """T_pi by brute force over all n^(k+l) label pairs: (i, j) has entry 1
    when the combined word is constant on every block."""
    k, l = pi.k, pi.l
    out = {}
    for word in product(range(1, n + 1), repeat=k + l):
        if all(len({word[p - 1] for p in b}) == 1 for b in pi.underlying.blocks):
            out[word[:k], word[k:]] = 1
    return out


def naive_r_map(kind, eps, n) -> dict:
    """The gated two-leg maps, written from their defining formulas."""
    if kind not in ("cross1", "idid1", "idid0", "paarbaar0"):
        raise ValueError(kind)
    out = {}
    for i, j in product(range(1, n + 1), repeat=2):
        if kind == "cross1" and eps[i, j] == 1:
            out[(i, j), (j, i)] = 1
        elif kind == "idid1" and eps[i, j] == 1:
            out[(i, j), (i, j)] = 1
        elif kind == "idid0" and eps[i, j] == 0:
            out[(i, j), (i, j)] = 1
        elif kind == "paarbaar0" and i == j:
            for m in range(1, n + 1):
                if eps[i, m] == 0:
                    out[(i, i), (m, m)] = 1
    return out


def naive_one_leg(eps, n, gate) -> dict:
    """e_i -> sum_k [eps_ik = gate] e_k: the pattern (gate 1) or its
    free-neighbour complement (gate 0) as a one-leg map."""
    return {((i,), (k,)): 1 for i in range(1, n + 1) for k in range(1, n + 1)
            if eps[i, k] == gate}


def naive_compose(after, before) -> dict:
    """``after`` following ``before``, summed over every middle label."""
    out = {}
    for (i, mid), c in before.items():
        for (mid2, j), c2 in after.items():
            if mid == mid2:
                out[i, j] = out.get((i, j), 0) + c * c2
    return {key: c for key, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# the indicator check, one basis vector at a time

def naive_verify_oracle(pi, eps, n, mp) -> tuple:
    """The full oracle check as a loop over all n^k basis vectors in
    lexicographic order: membership is the kernel test plus the literal
    crossing pairs.  Returns (passed, checked, counterexample) and stops
    at the first vector where the (k -> 0) map ``mp`` disagrees."""
    pairs = naive_crossing_pairs(pi)
    checked = 0
    for i in product(range(1, n + 1), repeat=pi.k):
        member = all(len({i[p - 1] for p in b}) == 1 for b in pi.blocks) and \
            all(eps[i[p - 1], i[q - 1]] == 1 for p, q in pairs)
        got, want = mp.scalar_at(i, ()), 1 if member else 0
        checked += 1
        if got != want:
            return False, checked, (f"pi={pi}, i={i}: map gives {got}, "
                                    f"membership gives {want}")
    return True, checked, None


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


def naive_moment(i, eps, rows, cat) -> Fraction:
    """Fraction sum of block-cumulant products over ``naive_nc_eps_set``;
    ``rows[v - 1][m - 1]`` is kappa_m(v), and an order past the row is 0."""
    total = Fraction(0)
    for blocks in naive_nc_eps_set(i, eps, cat):
        term = Fraction(1)
        for b in blocks:
            row = rows[i[b[0] - 1] - 1]
            term *= Fraction(row[len(b) - 1]) if len(b) <= len(row) else 0
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


# ---------------------------------------------------------------------------
# the pattern text format, scanned character by character

def scanned_eps_rows(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The size and bit rows of the plain text pattern format, read by a
    hand-written scanner: a token runs between ``str.isspace``
    characters.  Raises ``parse_eps_text``'s ValueError messages, with
    1-based line and column; the rows are not checked as a pattern."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError("line 1, column 1: missing size line")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ValueError("line 1, column 1: size must be an integer") from None
    if n < 1:
        raise ValueError("line 1, column 1: size must be positive")
    rows = []
    for r in range(n):
        lineno = r + 2
        if r + 1 >= len(lines):
            raise ValueError(f"line {lineno}, column 1: missing row {r + 1} of {n}")
        line = lines[r + 1]
        row = []
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            col = pos + 1
            end = pos
            while end < len(line) and not line[end].isspace():
                end += 1
            tok = line[pos:end]
            if tok not in ("0", "1"):
                raise ValueError(f"line {lineno}, column {col}: expected 0 or 1, got {tok!r}")
            if len(row) == n:
                raise ValueError(f"line {lineno}, column {col}: more than {n} entries")
            row.append(int(tok))
            pos = end
        if len(row) != n:
            raise ValueError(f"line {lineno}, column {len(line) + 1}: "
                             f"expected {n} entries, got {len(row)}")
        rows.append(tuple(row))
    return n, tuple(rows)
