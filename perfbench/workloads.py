"""The four perfbench workloads: seeded inputs, the timed call, output checks.

Every workload is a closed loop with one caller.  ``items(seed)`` yields
small plain-data descriptors forever; ``prepare`` turns one into fresh
library objects outside any timing, so no cached property of an earlier
call survives into the next; ``call`` is the one top-level library call
that is timed; ``digest`` reduces its result to plain data; ``check``
recomputes the expected output from the descriptor with references that
do not reuse the timed code path.

Library functions are looked up as module attributes at call time, so
the traced run's rebinding (see ``tracing.py``) takes effect.
``pass_items`` is how many of the seed's first items make the fixed set
that both the timed and the traced run pass over repeatedly: enough
balanced cycles that the set's mix of costs is the workload's, and a pass
short enough that the timed run makes many.

Inputs are drawn in balanced cycles: every cycle covers each combination
of size class and pattern once, in a seeded order.  A run of any length
then sees the same mix of cheap and expensive items, which keeps
throughput steady from seed to seed; the seed picks the letters, the
partitions and the order.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from epsym import cumulants, epsmat, groups, indicator  # noqa: E402
from epsym.partitions import Category, SetPartition  # noqa: E402

FAMILIES = (Category.ALL, Category.PAIR, Category.ONETWO, Category.EVEN)

# The reference family test, by block sizes, independent of Category.contains.
FAMILY_SIZES = {
    Category.ALL: lambda sizes: True,
    Category.PAIR: lambda sizes: all(s == 2 for s in sizes),
    Category.ONETWO: lambda sizes: all(s in (1, 2) for s in sizes),
    Category.EVEN: lambda sizes: all(s % 2 == 0 for s in sizes),
}


@cache
def oracles():
    """The repository's independent test oracles, ``tests/oracles.py``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class _Pi(NamedTuple):
    """The two fields the oracle predicates read from a partition."""

    k: int
    owner: tuple[int, ...]


def _blocks_of(labels) -> list[list[int]]:
    """Blocks (1-based points) of the partition grouping equal labels."""
    blocks: dict[int, list[int]] = {}
    for p, v in enumerate(labels, start=1):
        blocks.setdefault(v, []).append(p)
    return list(blocks.values())


def _owner(k: int, blocks) -> tuple[int, ...]:
    own = [0] * k
    for bi, b in enumerate(blocks):
        for p in b:
            own[p - 1] = bi
    return tuple(own)


@cache
def _partitions(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every partition of 1..k as sorted blocks, from the oracle's insertion
    enumeration."""
    return tuple(tuple(sorted(tuple(sorted(b)) for b in part))
                 for part in oracles().insertion_partitions(k))


def _reference(k: int, blocks) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """What the membership reference needs of a partition: each point's
    block's first point, and the oracle's crossing-opening point pairs from
    its literal quadruple loop, all 0-based."""
    firsts = [0] * k
    for b in blocks:
        for p in b:
            firsts[p - 1] = b[0] - 1
    pairs = oracles().naive_crossing_pairs(_Pi(k, _owner(k, blocks)))
    return tuple(firsts), tuple(sorted((p - 1, q - 1) for p, q in pairs))


def _eps_member(reference, vals: tuple, eps) -> bool:
    """Reference membership of a partition among the admissible refinements
    of ker(vals): the kernel-refinement test, then every crossing must carry
    pattern entry 1.  This is ``oracles.naive_is_eps_noncrossing`` with its
    quadruple loop hoisted out, since one partition meets many words."""
    firsts, crossings = reference
    if tuple(map(vals.__getitem__, firsts)) != vals:
        return False
    return all(eps[vals[p], vals[q]] == 1 for p, q in crossings)


def _balanced(rng: random.Random, combos: list):
    """Cycle through ``combos`` forever, reshuffling every cycle."""
    combos = list(combos)
    while True:
        rng.shuffle(combos)
        yield from combos


# ---------------------------------------------------------------------------

# distinct rationals kappa_m(v) = (10 v + m) / (m + 1), orders 1..4
KAPPAS = tuple(tuple(Fraction(10 * v + m, m + 1) for m in range(1, 5))
               for v in range(1, 7))


class Moments:
    """One ``cumulants.moment(word, pattern, spec, family)`` per item."""

    name = "moments"
    pass_items = 100
    PATTERNS = (("ex-f",), ("block", 2, 3), ("comm", 5), ("free", 5),
                ("trivial6",))
    # length 7 twice, so the median item sits inside one size class rather
    # than on the gap between the length-6 and length-7 costs
    LENGTHS = (5, 6, 7, 7, 8)
    warmup = ((1, 2, 1, 3, 2, 1, 4), 0, 0)

    def __init__(self):
        self.patterns = [epsmat.preset(*p) for p in self.PATTERNS]
        self.spec = cumulants.CumulantSpec.of(KAPPAS)

    def items(self, seed: int):
        rng = random.Random(seed)
        combos = [(k, p, f) for k in self.LENGTHS
                  for p in range(len(self.PATTERNS)) for f in range(len(FAMILIES))]
        for k, p, f in _balanced(rng, combos):
            n = self.patterns[p].n
            yield tuple(rng.choices(range(1, n + 1), k=k)), p, f

    def prepare(self, item):
        word, p, f = item
        return word, self.patterns[p], self.spec, FAMILIES[f]

    @staticmethod
    def call(args):
        return cumulants.moment(*args)

    @staticmethod
    def digest(result):
        return result

    def check(self, item, value) -> bool:
        word, p, f = item
        eps, family = self.patterns[p], FAMILY_SIZES[FAMILIES[f]]
        want = Fraction(0)
        for blocks, reference in _all_partitions(len(word)):
            if not family([len(b) for b in blocks]):
                continue
            if not _eps_member(reference, word, eps):
                continue
            term = Fraction(1)
            for b in blocks:
                row = KAPPAS[word[b[0] - 1] - 1]
                term *= row[len(b) - 1] if len(b) <= len(row) else 0
            want += term
        return value == want


@cache
def _all_partitions(k: int):
    """Every partition of 1..k with what the membership reference needs."""
    return tuple((blocks, _reference(k, blocks)) for blocks in _partitions(k))


class IndicatorDense:
    """One full ``indicator.verify_oracle(pi, pattern, family, 3)`` per item:
    the composed (k -> 0) map, checked on all 3**k basis vectors."""

    name = "indicator_dense"
    pass_items = 279  # one cycle
    PATTERNS = (("comm", 3), ("free", 3), ("ex-d",), ("ex-e",), ("ex-f",))
    MAX_K = 6
    N = 3
    warmup = (5, ((1, 3), (2, 5), (4,)), 4, 0)

    def __init__(self):
        self.patterns = [epsmat.preset(*p) for p in self.PATTERNS]

    def items(self, seed: int):
        """Every partition with k <= 6 (279 items) per cycle, each under one
        pattern: within each size class the partitions are shuffled once
        and take the patterns in turn from a seeded offset that advances
        every cycle, so five cycles cover every partition under every
        pattern (1,395 items).  Every cycle then holds the same partitions,
        and only their patterns, families and order depend on the seed.
        The size classes are interleaved in proportion, so every stretch
        of items has the cycle's mix of k."""
        rng = random.Random(seed)
        classes = [list(_partitions(k)) for k in range(self.MAX_K + 1)]
        keyed = []
        for group in classes:
            rng.shuffle(group)
            keyed += [((j + 0.5) / len(group), j, blocks)
                      for j, blocks in enumerate(group)]
        keyed.sort(key=lambda e: e[0])
        npat = len(self.PATTERNS)
        offset = rng.randrange(npat)
        while True:
            for _, j, blocks in keyed:
                sizes = [len(b) for b in blocks]
                fams = [f for f, fam in enumerate(FAMILIES)
                        if FAMILY_SIZES[fam](sizes)]
                yield sum(sizes), blocks, (j + offset) % npat, rng.choice(fams)
            offset += 1

    def prepare(self, item):
        k, blocks, p, f = item
        return SetPartition.of(k, blocks), self.patterns[p], FAMILIES[f]

    @classmethod
    def call(cls, args):
        pi, eps, cat = args
        return indicator.verify_oracle(pi, eps, cat, cls.N)

    @staticmethod
    def digest(report):
        return report.passed, report.checked

    def check(self, item, digest) -> bool:
        return digest == (True, self.N ** item[0])


class IndicatorWalk:
    """``indicator.run_algorithm`` on a 12-16 point partition at base
    dimension 5 (beyond the materialisation limit), then
    ``indicator.evaluate_trace`` on 256 generated basis vectors: half are
    constant on the blocks, so the walk reaches the gated swaps, half are
    uniform."""

    name = "indicator_walk"
    pass_items = 500  # twenty balanced cycles; its tail is a 98th percentile
    PATTERNS = (("ex-f",), ("block", 2, 3), ("comm", 5), ("free", 5),
                ("trivial6",))
    SIZES = (12, 13, 14, 15, 16)
    N = 5
    VECTORS = 256
    warmup = (14, 4, 0)

    def __init__(self):
        self.patterns = [epsmat.preset(*p) for p in self.PATTERNS]

    def items(self, seed: int):
        rng = random.Random(seed)
        combos = [(k, p) for k in self.SIZES for p in range(len(self.PATTERNS))]
        for k, p in _balanced(rng, combos):
            yield k, p, rng.getrandbits(64)

    def _inputs(self, item):
        """Plain-data inputs of an item, regenerated from its own seed."""
        k, p, item_seed = item
        rng = random.Random(item_seed)
        nblocks = rng.randint(2, k // 2)
        labels = rng.choices(range(nblocks), k=k)
        blocks = _blocks_of(labels)
        sizes = [len(b) for b in blocks]
        fams = [f for f in FAMILIES if FAMILY_SIZES[f](sizes)]
        # random bytes mapped onto labels 1..N by one table lookup each
        to_label = bytes(b % self.N + 1 for b in range(256))
        half = self.VECTORS // 2
        block_of = bytes(labels)
        values = rng.randbytes(nblocks * half).translate(to_label)
        vectors = [tuple(block_of.translate(
            values[j * nblocks:(j + 1) * nblocks].ljust(256, b"\0")))
            for j in range(half)]
        flat = rng.randbytes(k * half).translate(to_label)
        vectors += [tuple(flat[j * k:(j + 1) * k]) for j in range(half)]
        return k, blocks, self.patterns[p], rng.choice(fams), vectors

    def prepare(self, item):
        k, blocks, eps, cat, vectors = self._inputs(item)
        return SetPartition.of(k, blocks), eps, cat, vectors

    @classmethod
    def call(cls, args):
        pi, eps, cat, vectors = args
        trace, _ = indicator.run_algorithm(pi, eps, cat, cls.N)
        return [indicator.evaluate_trace(trace, v) for v in vectors]

    @staticmethod
    def digest(values):
        # 0 and 1 are the only legal values; anything else reads as 2
        return bytes(0 if v == 0 else 1 if v == 1 else 2 for v in values)

    def check(self, item, digest) -> bool:
        k, blocks, eps, _, vectors = self._inputs(item)
        reference = _reference(k, blocks)
        want = bytes(1 if _eps_member(reference, v, eps) else 0 for v in vectors)
        return digest == want


class Words:
    """One ``groups.word_reduce(word, pattern)`` per item, 20-400 letters."""

    name = "words"
    pass_items = 240  # two balanced cycles
    PATTERNS = (("ex-d",), ("ex-f",), ("block", 2, 3), ("trivial6",),
                ("comm", 5), ("free", 5))
    LENGTHS = tuple(range(20, 401, 20))
    warmup = ((1, 2, 3, 1, 4, 2, 5, 1, 3, 5) * 10, 1)

    def __init__(self):
        self.patterns = [epsmat.preset(*p) for p in self.PATTERNS]
        self.reps = [groups.coxeter_rep(eps) for eps in self.patterns]

    def items(self, seed: int):
        rng = random.Random(seed)
        combos = [(n, p) for n in self.LENGTHS for p in range(len(self.PATTERNS))]
        for length, p in _balanced(rng, combos):
            n = self.patterns[p].n
            yield tuple(rng.choices(range(1, n + 1), k=length)), p

    def prepare(self, item):
        word, p = item
        return word, self.patterns[p]

    @staticmethod
    def call(args):
        return groups.word_reduce(*args)

    @staticmethod
    def digest(normal_form):
        return tuple(normal_form)

    def check(self, item, normal_form) -> bool:
        word, p = item
        rep = self.reps[p]
        return (_letter_parity(word) == _letter_parity(normal_form)
                and _rep_blocks(rep, word) == _rep_blocks(rep, normal_form)
                and _is_normal_form(normal_form, self.patterns[p]))


def _letter_parity(word) -> frozenset:
    """The letters that occur an odd number of times.

    Every relation of a right-angled Coxeter group keeps each letter's
    count mod 2, so the word and its normal form must agree on it.  The
    representation cannot tell commuting letters apart (``comm`` maps every
    generator to the identity), and this can: for ``comm`` it fixes the
    element.
    """
    odd: set[int] = set()
    for letter in word:
        odd ^= {letter}
    return frozenset(odd)


def _rep_blocks(rep, word) -> list:
    """``rep.word_blocks(word)``, visiting only the planes each letter moves.

    The library's version scans every plane for every letter; this one
    computes the same 2x2 products from the same generators faster, which
    keeps the check of a 400-letter word cheaper than the reduction.
    """
    ident = ((1, 0), (0, 1))
    moves = [[(plane, g) for plane, g in enumerate(gens) if g != ident]
             for gens in rep.gens]
    out = [ident] * len(rep.pairs)
    for letter in word:
        for plane, ((e, f), (g, h)) in moves[letter - 1]:
            (a, b), (c, d) = out[plane]
            out[plane] = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    return out


def _is_normal_form(word, eps) -> bool:
    """Is ``word`` reduced and the lexicographically least of its
    commutation class?  It is unless some factor ``b u a`` has ``a``
    commuting with every letter of ``u`` and either ``b == a`` (the pair
    cancels; Tits' criterion for right-angled Coxeter groups) or ``b > a``
    commuting with ``a`` (``a`` moves left past ``b``; the Anisimov-Knuth
    lexicographic normal form).  Checked without the library's reducer.
    """
    for j, a in enumerate(word):
        i = j - 1
        while i >= 0 and eps[word[i], a] == 1:
            if word[i] > a:
                return False
            i -= 1
        if i >= 0 and word[i] == a:
            return False
    return True


WORKLOADS = {w.name: w for w in (Moments, IndicatorDense, IndicatorWalk, Words)}
