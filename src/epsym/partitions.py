"""Set partitions and the mixed-commutation crossing analysis.

Partitions of {1..k} are kept in a canonical form (blocks sorted by their
minimum, elements ascending inside each block) so that structural
equality and enumeration order are stable.  Enumeration follows
restricted-growth-string lexicographic order.

The central predicate is pattern-aware noncrossingness: a partition may
cross itself only where the commutation pattern allows it.  Writing
``i`` for a word of coordinate labels, a partition is admissible for
``i`` when every crossing p1 < q1 < p2 < q2 between two distinct blocks
happens at labels with pattern entry 1.  The admissible refinements of
the kernel of ``i`` are the summation domain of the mixed
moment-cumulant formula and the support of the indicator functional
built in :mod:`epsym.indicator`.

:func:`nc_eps_set` generates them directly rather than filtering all
partitions: points are placed left to right, a point may join only an
earlier block with its own label, and a join that would complete a
crossing at pattern entry 0 is refused on the spot.  Trying joins in
block order before opening a new block keeps restricted-growth order,
so its list is exactly the admissible part of
:func:`enumerate_partitions`, in the same order, at a cost that grows
with the admitted set rather than with Bell(k).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # only for annotations; no runtime dependency
    from .epsmat import EpsilonMatrix

Block = tuple[int, ...]


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..k} in canonical order.  Build through ``of``."""

    k: int
    blocks: tuple[Block, ...]

    @classmethod
    def of(cls, k: int, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks),
                             key=lambda b: b[0] if b else 0))
        seen: set[int] = set()
        for b in canon:
            if not b:
                raise ValueError("blocks must be nonempty")
            for p in b:
                if not 1 <= p <= k:
                    raise ValueError(f"point {p} outside 1..{k}")
                if p in seen:
                    raise ValueError(f"point {p} appears in two blocks")
                seen.add(p)
        if len(seen) != k:
            missing = sorted(set(range(1, k + 1)) - seen)
            raise ValueError(f"points {missing} not covered")
        return cls(k, canon)

    @cached_property
    def owner(self) -> tuple[int, ...]:
        """For each point (0-based slot), the index of its block."""
        own = [0] * self.k
        for bi, b in enumerate(self.blocks):
            for p in b:
                own[p - 1] = bi
        return tuple(own)

    def block_containing(self, p: int) -> Block:
        return self.blocks[self.owner[p - 1]]

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @cached_property
    def crossing_pairs(self) -> tuple[tuple[int, int], ...]:
        """All point pairs (p1, q1) that open a crossing.

        (p1, q1) is listed when p1 < q1 lie in distinct blocks A and B
        and the crossing completes, i.e. A returns between q1 and the
        last point of B.  A partition is noncrossing exactly when this
        list is empty, and it is admissible for a word exactly when all
        listed pairs carry pattern entry 1.
        """
        pairs: list[tuple[int, int]] = []
        bs = self.blocks
        for ai, a in enumerate(bs):
            for bi, b in enumerate(bs):
                if ai == bi:
                    continue
                bmax = b[-1]
                for q1 in b:
                    lo = bisect_right(a, q1)
                    if lo < len(a) and a[lo] < bmax:
                        # crossing completes; every earlier point of A opens it
                        for p1 in a:
                            if p1 >= q1:
                                break
                            pairs.append((p1, q1))
        return tuple(sorted(set(pairs)))

    @cached_property
    def is_noncrossing(self) -> bool:
        return not self.crossing_pairs

    def refines(self, other: "SetPartition") -> bool:
        if self.k != other.k:
            raise ValueError("point counts differ")
        own = other.owner
        return all(own[b[0] - 1] == own[p - 1] for b in self.blocks for p in b)

    def restrict(self, p: int, q: int) -> "SetPartition":
        """Restriction to the interval p..q, relabelled to 1..(q-p+1).

        The interval must be closed under blocks.
        """
        sub = []
        for b in self.blocks:
            if b[0] >= p and b[-1] <= q:
                sub.append(tuple(x - p + 1 for x in b))
            elif any(p <= x <= q for x in b):
                raise ValueError(f"block {b} crosses the interval {p}..{q}")
        return SetPartition(q - p + 1, tuple(sub))

    def remove_interval(self, p: int, q: int) -> "SetPartition":
        """Drop a block-closed interval p..q and relabel the remainder."""
        width = q - p + 1
        keep = []
        for b in self.blocks:
            if b[0] >= p and b[-1] <= q:
                continue
            if any(p <= x <= q for x in b):
                raise ValueError(f"block {b} crosses the interval {p}..{q}")
            keep.append(tuple(x if x < p else x - width for x in b))
        return SetPartition(self.k - width, tuple(keep))

    def swap_points(self, l: int) -> "SetPartition":
        """Exchange the legs sitting on points l and l+1."""
        if not 1 <= l < self.k:
            raise ValueError(f"l must lie in 1..{self.k - 1}")

        def mv(x: int) -> int:
            if x == l:
                return l + 1
            if x == l + 1:
                return l
            return x

        blocks = tuple(tuple(sorted(mv(x) for x in b)) for b in self.blocks)
        return SetPartition(self.k, tuple(sorted(blocks, key=lambda b: b[0])))

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __str__(self) -> str:
        return format_partition(self)


@dataclass(frozen=True)
class TwoRowPartition:
    """A partition of k upper and l lower points.

    Points 1..k are the upper row read left to right, points k+1..k+l
    the lower row.
    """

    k: int
    l: int
    underlying: SetPartition

    @classmethod
    def of(cls, k: int, l: int, blocks: Iterable[Iterable[int]]) -> "TwoRowPartition":
        return cls(k, l, SetPartition.of(k + l, blocks))

    def reflected(self) -> "TwoRowPartition":
        """Swap the rows (the adjoint on the diagrammatic side)."""
        k, l = self.k, self.l

        def mv(x: int) -> int:
            return l + x if x <= k else x - k

        blocks = [tuple(sorted(mv(x) for x in b)) for b in self.underlying.blocks]
        return TwoRowPartition(l, k, SetPartition.of(l + k, blocks))


class Category(enum.Enum):
    """Block-size families closed under removing subpartitions."""

    ALL = "all"
    PAIR = "pair"
    ONETWO = "onetwo"
    EVEN = "even"

    def contains(self, pi: SetPartition) -> bool:
        if self is Category.ALL:
            return True
        if self is Category.PAIR:
            return all(s == 2 for s in pi.block_sizes)
        if self is Category.ONETWO:
            return all(s in (1, 2) for s in pi.block_sizes)
        return all(s % 2 == 0 for s in pi.block_sizes)

    @classmethod
    def parse(cls, name: str) -> "Category":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown category {name!r}; "
                             "use all, pair, onetwo or even") from None


def kernel(values: Sequence[int]) -> SetPartition:
    """The partition grouping equal entries of a word."""
    groups: dict[int, list[int]] = {}
    for pos, v in enumerate(values, start=1):
        groups.setdefault(v, []).append(pos)
    blocks = sorted((tuple(g) for g in groups.values()), key=lambda b: b[0])
    return SetPartition(len(values), tuple(blocks))


# ker is the traditional name for the kernel of a word
ker = kernel


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


def _from_rgs(k: int, rgs: tuple[int, ...]) -> SetPartition:
    nblocks = max(rgs) + 1 if k else 0
    blocks: list[list[int]] = [[] for _ in range(nblocks)]
    for pos, v in enumerate(rgs, start=1):
        blocks[v].append(pos)
    return SetPartition(k, tuple(tuple(b) for b in blocks))


def enumerate_partitions(k: int, cat: Category = Category.ALL,
                         noncrossing_only: bool = False) -> list[SetPartition]:
    """All partitions of {1..k} in the family, restricted-growth order."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = []
    for rgs in _rgs_words(k):
        pi = _from_rgs(k, rgs)
        if cat is not Category.ALL and not cat.contains(pi):
            continue
        if noncrossing_only and not pi.is_noncrossing:
            continue
        out.append(pi)
    return out


def is_refinement(pi: SetPartition, sigma: SetPartition) -> bool:
    return pi.refines(sigma)


def is_eps_noncrossing(pi: SetPartition, i: Sequence[int],
                       eps: "EpsilonMatrix") -> bool:
    """Does every crossing of ``pi`` carry pattern entry 1 on ``i``?

    Evaluated literally on all crossing quadruples; ``pi`` need not
    refine the kernel of ``i``.
    """
    vals = tuple(i)
    if len(vals) != pi.k:
        raise ValueError(f"index length {len(vals)} != point count {pi.k}")
    for v in vals:
        if not 1 <= v <= eps.n:
            raise ValueError(f"index value {v} outside 1..{eps.n}")
    return all(eps[vals[p - 1], vals[q - 1]] == 1 for p, q in pi.crossing_pairs)


def in_nc_eps(pi: SetPartition, i: Sequence[int], eps: "EpsilonMatrix") -> bool:
    """Membership of ``pi`` in the admissible refinements of ker i."""
    vals = tuple(i)
    if len(vals) != pi.k:
        raise ValueError(f"index length {len(vals)} != point count {pi.k}")
    for b in pi.blocks:
        v0 = vals[b[0] - 1]
        if any(vals[p - 1] != v0 for p in b):
            return False
    return all(eps[vals[p - 1], vals[q - 1]] == 1 for p, q in pi.crossing_pairs)


def nc_eps_set(i: Sequence[int], eps: "EpsilonMatrix",
               cat: Category = Category.ALL) -> list[SetPartition]:
    """All partitions in the family admissible for the word ``i``.

    Generated point by point: point p joins an earlier block carrying
    the label ``i[p]``, so every candidate refines ker i, and a join is
    refused as soon as it completes a crossing between two blocks whose
    labels have pattern entry 0 (two blocks with one label never cross,
    since the diagonal is 0).  Joins are tried in block order before a
    new block is opened, so the list comes out in restricted-growth
    order.  The block-size rule of ``cat`` is applied to each finished
    candidate.  The cost grows with the number of admissible refinements
    of ker i, not with the Bell number of ``len(i)``.
    """
    vals = tuple(i)
    for v in vals:
        if not 1 <= v <= eps.n:
            raise ValueError(f"index value {v} outside 1..{eps.n}")
    # admissible placements of points 1..p-1; each state's extensions are
    # appended in choice order, so the list stays in restricted-growth order
    states: list[tuple[Block, ...]] = [()]
    for p, v in enumerate(vals, start=1):
        row = eps.row(v)
        grown = []
        for blocks in states:
            for bi, b in enumerate(blocks):
                if vals[b[0] - 1] == v and not any(
                        row[vals[a[0] - 1] - 1] == 0 and _encloses(a, b)
                        for a in blocks if a is not b):
                    grown.append(blocks[:bi] + (b + (p,),) + blocks[bi + 1:])
            grown.append(blocks + ((p,),))
        states = grown
    out = (SetPartition(len(vals), blocks) for blocks in states)
    return [pi for pi in out if cat.contains(pi)]


def _encloses(a: Block, b: Block) -> bool:
    # some point of b lies strictly between the first and last points of
    # a; adding a point after both to b then completes a crossing of a
    j = bisect_right(b, a[0])
    return j < len(b) and b[j] < a[-1]


def find_noncrossing_subpartition(
        pi: SetPartition) -> Optional[tuple[SetPartition, int, int]]:
    """Block-closed interval p..q whose restriction is noncrossing.

    Proper intervals are preferred, leftmost then shortest, so removal
    eats nested structure from the left; the full interval is returned
    only when no proper one exists and the whole partition is
    noncrossing.  Returns (sigma, p, q) with sigma relabelled to
    1..(q-p+1), or None if nothing qualifies.
    """
    k = pi.k
    if k == 0:
        return None
    bmin = [pi.block_containing(p)[0] for p in range(1, k + 1)]
    bmax = [pi.block_containing(p)[-1] for p in range(1, k + 1)]
    for p in range(1, k + 1):
        mn, mx = k + 1, 0
        for q in range(p, k + 1):
            mn = min(mn, bmin[q - 1])
            mx = max(mx, bmax[q - 1])
            if mn < p:
                break  # a block escapes left; longer intervals keep it
            if mx > q:
                continue  # a block escapes right; extend
            if q - p + 1 == k:
                break  # the full interval is handled below
            sigma = pi.restrict(p, q)
            if sigma.is_noncrossing:
                return sigma, p, q
            break  # crossing stays inside every longer interval at this p
    if pi.is_noncrossing:
        return pi, 1, k
    return None


def _blocks_cross(a: Block, b: Block) -> bool:
    # two disjoint sorted blocks cross iff their merge alternates
    # membership at least four times
    runs, last = 0, None
    ia = ib = 0
    while ia < len(a) or ib < len(b):
        if ib == len(b) or (ia < len(a) and a[ia] < b[ib]):
            tag = 0
            ia += 1
        else:
            tag = 1
            ib += 1
        if tag != last:
            runs += 1
            last = tag
    return runs >= 4


def find_case2_index(pi: SetPartition) -> Optional[int]:
    """Smallest l whose legs l, l+1 sit on crossing blocks V, V' with
    min(V') < min(V).  Swapping such legs pulls the earlier block left."""
    for l in range(1, pi.k):
        ai, bi = pi.owner[l - 1], pi.owner[l]
        if ai == bi:
            continue
        a, b = pi.blocks[ai], pi.blocks[bi]
        if b[0] >= a[0]:
            continue
        if _blocks_cross(a, b):
            return l
    return None


def format_partition(pi: SetPartition) -> str:
    """Brace text form, e.g. ``{1,3}{2,4}``; the empty partition is ``""``."""
    return "".join("{" + ",".join(str(p) for p in b) + "}" for b in pi.blocks)


def parse_partition(text: str) -> SetPartition:
    """Inverse of :func:`format_partition`."""
    s = text.strip()
    if not s:
        return SetPartition(0, ())
    blocks: list[tuple[int, ...]] = []
    pos = 0
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        if s[pos] != "{":
            raise ValueError(f"expected '{{' at position {pos + 1}")
        end = s.find("}", pos)
        if end < 0:
            raise ValueError(f"unterminated block at position {pos + 1}")
        body = s[pos + 1:end].strip()
        if not body:
            raise ValueError(f"empty block at position {pos + 1}")
        try:
            blocks.append(tuple(int(t.strip()) for t in body.split(",")))
        except ValueError:
            raise ValueError(f"bad block contents at position {pos + 1}: {body!r}") from None
        pos = end + 1
    k = max(max(b) for b in blocks)
    return SetPartition.of(k, blocks)
