"""Set partitions and the mixed-commutation crossing analysis.

Partitions of {1..k} are kept in a canonical form (points ascending in
each block, blocks in tuple order: by minimum, as blocks are disjoint) so
that structural equality and enumeration order are stable.
:meth:`SetPartition.of` checks and sorts what it is given; the constructor
refuses anything not canonical in one line, and the module's own builders,
whose blocks are canonical by construction, skip that check.  Enumeration
follows restricted-growth-string lexicographic order.

The central predicate is pattern-aware noncrossingness: a partition may
cross itself only where the commutation pattern allows it.  Writing
``i`` for a word of coordinate labels, a partition is admissible for
``i`` when every crossing p1 < q1 < p2 < q2 between two distinct blocks
happens at labels with pattern entry 1.  The admissible refinements of
the kernel of ``i`` are the summation domain of the mixed
moment-cumulant formula and the support of the indicator functional
built in :mod:`epsym.indicator`.  The test lives in one place, behind
:func:`is_eps_noncrossing`; :func:`in_nc_eps` puts the kernel test,
:meth:`SetPartition.mixed_block`, in front of it.  Each checks its word
once, first, by :func:`epsym.epsmat.validate_word`.

Both partition lists come from one depth-first placement walk: points
are placed left to right on one list of blocks, a point may join only an
earlier block with its own label, and a join that would complete a
crossing at pattern entry 0 is refused on the spot.  :func:`nc_eps_set`
runs it on a word and its pattern; :func:`enumerate_partitions` runs it
on one label whose single pattern entry admits every crossing or none.
Trying joins in block order before opening a new block keeps
restricted-growth order, at a cost that grows with the admitted set
rather than with Bell(k).  A label's first occurrence has no block to
join, so it is placed without a choice, and the walk recurses only on
repeated occurrences.  A join's crossing test looks only at the joining
block's last point, which suffices because every placement on the way is
itself admissible (see :func:`_grow`); the reduction's searches, which
meet arbitrary partitions, read which blocks cross,
:attr:`SetPartition.crossing_blocks`.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Sequence

from .epsmat import (EpsilonMatrix, check_in_range, check_int, memo, record,
                     validate_index, validate_word)

Block = tuple[int, ...]


@record
class SetPartition:
    """A partition of {1..k} in canonical order.  Build through ``of``,
    which sorts; the constructor itself only checks."""

    k: int
    blocks: tuple[Block, ...]

    def __init__(self, k: int, blocks: tuple[Block, ...]):
        if type(blocks) is not tuple or not all(type(b) is tuple for b in blocks):
            raise ValueError("blocks must be a tuple of tuples")
        _check_points(k, blocks)
        if blocks != tuple(sorted(tuple(sorted(b)) for b in blocks)):
            raise ValueError(f"blocks {blocks} are not in canonical order: "
                             "by least point, ascending inside each")
        self.__dict__.update(k=k, blocks=blocks)

    @classmethod
    def of(cls, k: int, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        raw = []
        for b in blocks:
            if not isinstance(b, Iterable):
                raise ValueError(f"block {b!r} is not a collection of points")
            raw.append(tuple(b))
        _check_points(k, raw)
        return _trusted(k, tuple(sorted(tuple(sorted(b)) for b in raw)))

    @memo
    def owner(self) -> tuple[int, ...]:
        """For each point (0-based slot), the index of its block."""
        own = [0] * self.k
        for bi, b in enumerate(self.blocks):
            for p in b:
                own[p - 1] = bi
        return tuple(own)

    @memo
    def crossing_blocks(self) -> tuple[tuple[int, int], ...]:
        """The index pairs (a, b), a < b, of crossing blocks, sorted.

        Block a starts first, so the two cross exactly when a has a
        point strictly inside the span of b: its first point after the
        start of b comes before the end of b.
        """
        pairs: list[tuple[int, int]] = []
        bs = self.blocks
        for ai, a in enumerate(bs):
            for bi in range(ai + 1, len(bs)):
                b = bs[bi]
                if b[0] > a[-1]:
                    break  # b and every later block start after a ends
                if a[bisect_right(a, b[0])] < b[-1]:
                    pairs.append((ai, bi))  # else b lies in one gap of a
        return tuple(pairs)

    @memo
    def crossing_pairs(self) -> tuple[tuple[int, int], ...]:
        """All point pairs (p1, q1) that open a crossing, sorted.

        (p1, q1) is listed when p1 < q1 lie in distinct blocks A and B
        and the crossing completes, i.e. A returns between q1 and the
        last point of B.  A partition is admissible for a word exactly
        when all listed pairs carry pattern entry 1.  Each pair arises
        once, from the two blocks of a :attr:`crossing_blocks` entry.
        """
        pairs: list[tuple[int, int]] = []
        bs = self.blocks
        for ai, bi in self.crossing_blocks:
            for opener, other in ((bs[ai], bs[bi]), (bs[bi], bs[ai])):
                last = other[-1]
                for q1 in other:
                    lo = bisect_right(opener, q1)
                    if lo < len(opener) and opener[lo] < last:
                        # the crossing completes; every earlier opener point opens it
                        pairs += [(p1, q1) for p1 in opener[:lo]]
        pairs.sort()
        return tuple(pairs)

    @property
    def is_noncrossing(self) -> bool:
        return not self.crossing_blocks

    def mixed_block(self, vals: Sequence[int]) -> Block | None:
        """The first block whose points carry more than one label of
        ``vals`` (one per point), or None when the partition refines ker vals."""
        return next((b for b in self.blocks
                     if any(vals[p - 1] != vals[b[0] - 1] for p in b)), None)

    def refines(self, other: "SetPartition") -> bool:
        if self.k != other.k:
            raise ValueError("point counts differ")
        return self.mixed_block(other.owner) is None

    def _split(self, p: int, q: int) -> tuple[list[Block], list[Block]]:
        """The blocks inside and outside the block-closed interval p..q."""
        inside, outside = [], []
        for b in self.blocks:
            if b[0] >= p and b[-1] <= q:
                inside.append(b)
            elif (i := bisect_left(b, p)) < len(b) and b[i] <= q:
                raise ValueError(f"block {b} crosses the interval {p}..{q}")
            else:
                outside.append(b)
        return inside, outside

    def restrict(self, p: int, q: int) -> "SetPartition":
        """Restriction to the block-closed interval p..q, relabelled to 1..(q-p+1)."""
        return _relabelled(p, q, self._split(p, q)[0])

    def remove_interval(self, p: int, q: int) -> "SetPartition":
        """Drop a block-closed interval p..q and relabel the remainder."""
        width = q - p + 1
        _, outside = self._split(p, q)
        return _trusted(self.k - width,
                        tuple(tuple(x if x < p else x - width for x in b) for b in outside))

    def swap_points(self, l: int) -> "SetPartition":
        """Exchange the legs sitting on points l and l+1.

        Two legs of one block swap onto themselves.  Legs of two blocks
        keep each block ascending, as no point lies between l and l+1,
        so only the order of the blocks can change."""
        check_in_range("l", l, 1, self.k - 1)
        if self.owner[l - 1] == self.owner[l]:
            return self
        mv = {l: l + 1, l + 1: l}
        return _trusted(self.k, tuple(sorted(tuple(mv.get(x, x) for x in b)
                                             for b in self.blocks)))

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __str__(self) -> str:
        return format_partition(self)


def _check_points(k: int, blocks: Sequence[Block]) -> None:
    """Check that k is an integer >= 0 and that the nonempty ``blocks``
    hold each of the integer points 1..k exactly once; each refusal is a
    one-line ``ValueError``."""
    if check_int("k", k) < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    seen: set[int] = set()
    for b in blocks:
        if not b:
            raise ValueError("blocks must be nonempty")
        for p in b:
            if type(p) is not int:
                raise ValueError(f"point {p!r} is not an integer")
            if not 1 <= p <= k:
                raise ValueError(f"point {p} outside 1..{k}")
            if p in seen:
                raise ValueError(f"point {p} appears in two blocks")
            seen.add(p)
    if len(seen) != k:
        missing = sorted(set(range(1, k + 1)) - seen)
        raise ValueError(f"points {missing} not covered")


_new, _set = object.__new__, object.__setattr__


def _trusted(k: int, blocks: tuple[Block, ...]) -> SetPartition:
    """A partition from blocks already known to be canonical, unchecked."""
    pi = _new(SetPartition)
    _set(pi, "k", k)
    _set(pi, "blocks", blocks)
    return pi


@record
class TwoRowPartition:
    """A partition of k upper and l lower points.

    Points 1..k are the upper row read left to right, points k+1..k+l
    the lower row.
    """

    k: int
    l: int
    underlying: SetPartition

    def __init__(self, k: int, l: int, underlying: SetPartition):
        if check_int("k", k) < 0 or check_int("l", l) < 0:
            raise ValueError(f"row sizes {k} and {l} must be nonnegative")
        if k + l != underlying.k:
            raise ValueError(f"rows of {k} and {l} points need a partition "
                             f"of {k + l} points, not {underlying.k}")
        self.__dict__.update(k=k, l=l, underlying=underlying)

    @classmethod
    def of(cls, k: int, l: int, blocks: Iterable[Iterable[int]]) -> "TwoRowPartition":
        return cls(k, l, SetPartition.of(k + l, blocks))


class Category(enum.Enum):
    """Block-size families closed under removing subpartitions, valued
    by name.  ``allows(size)`` says whether a block may have ``size``
    points; ``largest_block`` is the largest size allowed, or None."""

    ALL = ("all", lambda size: True, None)
    PAIR = ("pair", lambda size: size == 2, 2)
    ONETWO = ("onetwo", lambda size: size in (1, 2), 2)
    EVEN = ("even", lambda size: size % 2 == 0, None)

    def __new__(cls, name: str, allows: Callable[[int], bool], largest: int | None):
        member = object.__new__(cls)
        member._value_, member.allows, member.largest_block = name, allows, largest
        return member

    def contains(self, pi: SetPartition) -> bool:
        return self is Category.ALL or all(map(self.allows, map(len, pi.blocks)))

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
    return SetPartition.of(len(values), groups.values())


ENUMERATE_LIMIT = 11  # Bell(11) = 678,570 partitions; Bell(12) = 4,213,597


def enumerate_partitions(k: int, cat: Category = Category.ALL,
                         noncrossing_only: bool = False) -> list[SetPartition]:
    """All partitions of {1..k} in the family, restricted-growth order.

    One label and a one-entry pattern: every join is allowed, and the
    entry admits every crossing (1) or none (0).
    """
    if check_int("k", k) < 0:
        raise ValueError("k must be >= 0")
    if k > ENUMERATE_LIMIT:
        raise ValueError(f"k = {k} is too large to enumerate; the limit is {ENUMERATE_LIMIT}")
    return _grow((1,) * k, ((0 if noncrossing_only else 1,),), cat)


def is_eps_noncrossing(pi: SetPartition, i: Sequence[int],
                       eps: EpsilonMatrix) -> bool:
    """Does every crossing of ``pi`` carry pattern entry 1 on ``i``?

    Evaluated literally on all crossing quadruples; ``pi`` need not
    refine the kernel of ``i``.
    """
    return _crossings_commute(pi, validate_word(i, eps.n, pi.k), eps)


def in_nc_eps(pi: SetPartition, i: Sequence[int], eps: EpsilonMatrix) -> bool:
    """Membership of ``pi`` in the admissible refinements of ker i.  The
    word is checked before the kernel test, so a bad word raises even
    when it splits a block."""
    vals = validate_word(i, eps.n, pi.k)
    return pi.mixed_block(vals) is None and _crossings_commute(pi, vals, eps)


def _crossings_commute(pi: SetPartition, vals: Sequence[int], eps: EpsilonMatrix) -> bool:
    # every crossing of pi carries pattern entry 1 on the checked word
    return all(eps[vals[p - 1], vals[q - 1]] == 1 for p, q in pi.crossing_pairs)


def nc_eps_set(i: Sequence[int], eps: EpsilonMatrix,
               cat: Category = Category.ALL) -> list[SetPartition]:
    """All partitions in the family admissible for the word ``i``."""
    return _grow(validate_index(i, eps.n), eps.entries, cat)


def _grow(vals: Sequence[int], rows: Sequence[Sequence[int]],
          cat: Category) -> list[SetPartition]:
    """Partitions in ``cat`` admissible for the labels ``vals`` under the
    pattern ``rows`` (row v holds label v's entries), in restricted-growth
    order.

    A depth-first walk (:func:`_walk`) places the points left to right.
    Point p joins an earlier block carrying the label ``vals[p]``, so
    every candidate refines ker vals, and a join is refused as soon as
    it completes a crossing between two blocks whose labels have
    pattern entry 0.  The joins are tried in block order and a new block
    last, so the placements come out in restricted-growth order.  A
    label's first occurrence has no earlier block to join: it is placed
    as a new block without a choice, so only repeated occurrences are
    choices, and the walk's depth is their number, not k.  A block
    already at ``cat``'s largest size takes no further point, and a
    family that refuses some size up to that cap (pair, even) filters
    the finished placements by its block-size rule.

    Joining p to b completes a crossing with a block a exactly when a
    point of b lies strictly inside a's span, since p lies after both.
    The last point of b is enough to test: no placement on the way holds
    two crossing blocks at pattern entry 0, so b lies wholly inside or
    wholly outside the span of each such block a.  The test is false for
    a = b, which needs no separate clause.
    """
    k = len(vals)
    cap = cat.largest_block or k
    label = (0, *vals)  # label[q] is the label of point q
    # each repeated occurrence p is a choice, made after placing the first
    # occurrences since the previous one; the first occurrences after the
    # last choice close every placement
    choices: list[tuple[tuple[Block, ...], int, int, Sequence[int]]] = []
    fresh: list[Block] = []
    for p, v in enumerate(vals, start=1):
        if label.index(v) < p:
            choices.append((tuple(fresh), p, v, rows[v - 1]))
            fresh = []
        else:
            fresh.append((p,))
    tail = tuple(fresh)
    if choices:
        placed: list[tuple[Block, ...]] = []
        _walk(choices, 0, [], placed, tail, label, cap)
    else:
        placed = [tail]
    if cat is not Category.ALL and not all(map(cat.allows, range(1, min(cap, k) + 1))):
        allowed = [cat.allows(size) for size in range(k + 1)]
        placed = [bs for bs in placed if all(allowed[len(b)] for b in bs)]
    out = []
    for bs in placed:  # _trusted, inlined: this loop runs once per partition
        pi = _new(SetPartition)
        _set(pi, "k", k)
        _set(pi, "blocks", bs)
        out.append(pi)
    return out


def _walk(choices: Sequence[tuple[tuple[Block, ...], int, int, Sequence[int]]], j: int,
          blocks: list[Block], placed: list[tuple[Block, ...]],
          tail: tuple[Block, ...], label: Sequence[int], cap: int) -> None:
    """Make choice j of :func:`_grow` and every later one on ``blocks``,
    the placement of the points before it, and append each finished
    placement to ``placed``.

    The choice places its first occurrences, then puts its point p into
    every block that passes the join test, in block order, and last into
    a new block; each option is undone before the next.  The last
    choice's options, with ``tail`` appended, are finished placements,
    so the recursion is one call deep per choice but the last.  The
    walk's state travels as arguments: a nested function reading it
    from its closure was slower on the short words of a moment.
    """
    new, p, v, row = choices[j]
    blocks.extend(new)
    j += 1
    last = j == len(choices)
    for bi, b in enumerate(blocks):
        if len(b) < cap and label[b[0]] == v:
            end = b[-1]
            for a in blocks:
                if a[0] < end < a[-1] and row[label[a[0]] - 1] == 0:
                    break
            else:
                blocks[bi] = b + (p,)
                if last:
                    placed.append((*blocks, *tail))
                else:
                    _walk(choices, j, blocks, placed, tail, label, cap)
                blocks[bi] = b
    if last:
        placed.append((*blocks, (p,), *tail))
        del blocks[len(blocks) - len(new):]
    else:
        blocks.append((p,))
        _walk(choices, j, blocks, placed, tail, label, cap)
        del blocks[len(blocks) - len(new) - 1:]


def _relabelled(p: int, q: int, inside: Iterable[Block]) -> SetPartition:
    """The blocks ``inside`` the block-closed interval p..q, relabelled
    to 1..(q-p+1)."""
    return _trusted(q - p + 1, tuple(tuple(x - p + 1 for x in b) for b in inside))


def find_noncrossing_subpartition(
        pi: SetPartition) -> tuple[SetPartition, int, int] | None:
    """Block-closed interval p..q whose restriction is noncrossing.

    Proper intervals are preferred, leftmost then shortest, so removal
    eats nested structure from the left; the full interval is returned
    only when no proper one exists and the whole partition is
    noncrossing.  Returns (sigma, p, q) with sigma relabelled to
    1..(q-p+1), or None if nothing qualifies.

    Only a block's span p..q can qualify, and only if the block s
    crosses no later block: a block starting inside the span and ending
    after it would cross s.  The span qualifies when no earlier block
    reaches in (the least owner in p..q is s) and no block of its run
    s..m of ``pi.blocks``, s included, crosses a later block.
    """
    k = pi.k
    if k == 0:
        return None
    crossers = {a for a, _ in pi.crossing_blocks}  # blocks crossing a later one
    own, blocks = pi.owner, pi.blocks
    for s, b in enumerate(blocks):
        p, q = b[0], b[-1]
        if q - p + 1 == k:
            continue  # the full interval is handled below
        run = own[p - 1:q]
        m = max(run)
        if min(run) == s and crossers.isdisjoint(range(s, m + 1)):
            return _relabelled(p, q, blocks[s:m + 1]), p, q
    return None if crossers else (pi, 1, k)


def find_case2_index(pi: SetPartition) -> int | None:
    """Smallest l whose legs l, l+1 sit on crossing blocks V, V' with
    min(V') < min(V).  Swapping such legs pulls the earlier block left."""
    own = pi.owner
    crossing = set(pi.crossing_blocks)  # index pairs (earlier, later)
    return next((l for l in range(1, pi.k) if (own[l], own[l - 1]) in crossing), None)


def format_partition(pi: SetPartition) -> str:
    """Brace text form, e.g. ``{1,3}{2,4}``; the empty partition is ``""``."""
    return "".join("{" + ",".join(str(p) for p in b) + "}" for b in pi.blocks)


def parse_partition(text: str) -> SetPartition:
    """Inverse of :func:`format_partition`."""
    s = text.strip()
    if not s:
        return _trusted(0, ())
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
