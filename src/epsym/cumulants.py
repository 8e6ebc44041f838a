"""Free-cumulant data and the mixed moment-cumulant formula.

A cumulant table assigns each coordinate a finite sequence of exact
rational free cumulants; absent orders are zero.  The joint moment of a
word of coordinates is the sum, over all admissible refinements of the
word's kernel, of the product of block cumulants.  With the all-ones
off-diagonal pattern this collapses to classical independence, with the
zero pattern to free independence.

Every block product runs in Python ints on one integer table: with d
the least common denominator of the table, a block of size m on
coordinate v contributes the integer kappa_m(v)·d^m, so a product over a
word of length k is d^k times the block-cumulant product, which
:func:`kappa_pi` divides out, and :func:`moment` once for its whole sum.

A label that occurs once in the word is a singleton block of every
admissible refinement, and a singleton crosses nothing.  Its
kappa_1(v)·d is therefore a common factor of every term: the moment
multiplies these factors (stopping at 0, or returning 0 at once for a
family without blocks of size 1) and sums only over the word's
repeated labels.

Everything is exact, in the number format of :mod:`epsym.epsmat`
(``parse_fraction`` reads, ``stored`` stores).  This module also owns
the input check that both reports over every word up to a length
(moment invariance, the de Finetti identity) run first,
:func:`check_word_loop`, against the word limit ``MATERIALIZE_LIMIT``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .epsmat import (MATERIALIZE_LIMIT, EpsilonMatrix, check_at_least, check_int,
                     memo, parse_fraction, record, stored, validate_index, validate_word)
from .partitions import Category, SetPartition, nc_eps_set


def _norm_row(row) -> tuple[int | Fraction, ...]:
    vals = [parse_fraction(v) for v in row]
    while vals and vals[-1] == 0:
        vals.pop()
    return tuple(vals)


@record
class CumulantSpec:
    """Per-coordinate free cumulants kappa_1, kappa_2, ... in stored form."""

    n: int
    kappas: tuple[tuple[int | Fraction, ...], ...]

    def __init__(self, n: int, kappas: tuple[tuple[int | Fraction, ...], ...]):
        self.__dict__.update(n=n, kappas=kappas)

    @classmethod
    def of(cls, rows) -> "CumulantSpec":
        table = tuple(_norm_row(r) for r in rows)
        if not table:
            raise ValueError("need at least one coordinate")
        return cls(len(table), table)

    @classmethod
    def semicircle(cls, n: int) -> "CumulantSpec":
        """Centred semicircular coordinates: kappa_2 = 1, all else 0."""
        return cls.of([(0, 1)] * n)

    @classmethod
    def constant(cls, n: int, row) -> "CumulantSpec":
        return cls.of([tuple(row)] * n)

    def kappa(self, v: int, m: int) -> int | Fraction:
        if not 1 <= check_int("coordinate", v) <= self.n:
            raise ValueError(f"coordinate {v} outside 1..{self.n}")
        row = self.kappas[v - 1]
        return row[m - 1] if check_at_least("order", m, 1) <= len(row) else 0

    @memo
    def integer_table(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(d, rows): d is the least common denominator of the table and
        ``rows[v-1][m-1]`` the integer kappa_m(v)·d^m."""
        d = lcm(*(c.denominator for row in self.kappas for c in row))
        return d, tuple(tuple(c.numerator * (d ** m // c.denominator)
                              for m, c in enumerate(row, start=1))
                        for row in self.kappas)

    @property
    def identically_distributed(self) -> bool:
        return all(row == self.kappas[0] for row in self.kappas)

    def to_json(self) -> dict:
        return {"n": self.n,
                "kappas": [[str(v) for v in row] for row in self.kappas]}

    @classmethod
    def from_json(cls, data: dict) -> "CumulantSpec":
        if not isinstance(data, dict):
            raise ValueError("cumulant table must be a JSON object")
        for key in ("n", "kappas"):
            if key not in data:
                raise ValueError(f"cumulant table has no {key!r} key")
        if not isinstance(data["kappas"], list) or not all(
                isinstance(row, list) for row in data["kappas"]):
            raise ValueError("'kappas' must be a list of rows, each a list")
        spec = cls.of(data["kappas"])
        if spec.n != check_int("n", data["n"]):
            raise ValueError("row count does not match n")
        return spec


def _scaled_block_product(blocks: Sequence[Sequence[int]], vals: tuple[int, ...],
                          rows: tuple[tuple[int, ...], ...]) -> int:
    # d^k times the block product over the integer table: each block's
    # coordinate is read at its first point, a block longer than its row
    # contributes 0, and a zero factor ends the product
    term = 1
    for b in blocks:
        row = rows[vals[b[0] - 1] - 1]
        term = term * row[len(b) - 1] if len(b) <= len(row) else 0
        if not term:
            return 0
    return term


def kappa_pi(pi: SetPartition, i: Sequence[int], spec: CumulantSpec) -> int | Fraction:
    """Product over blocks of kappa_{block size}(block coordinate).

    Requires the partition to refine the kernel of ``i`` so every block
    carries a single coordinate.  Labels are checked before the length.
    """
    vals = validate_word(i, spec.n, pi.k)
    d, rows = spec.integer_table
    return stored(Fraction(_scaled_kappa(pi, vals, rows), d ** pi.k))


def _scaled_kappa(pi: SetPartition, vals: tuple[int, ...],
                  rows: tuple[tuple[int, ...], ...]) -> int:
    # d^k times kappa_pi on a checked word; a block of mixed labels is an error
    if (b := pi.mixed_block(vals)) is not None:
        raise ValueError(f"block {b} carries mixed coordinates; "
                         "partition must refine the kernel")
    return _scaled_block_product(pi.blocks, vals, rows)


def _check_table(eps: EpsilonMatrix, spec: CumulantSpec) -> None:
    if spec.n < eps.n:
        raise ValueError("cumulant table is smaller than the pattern")


def moment(i: Sequence[int], eps: EpsilonMatrix, spec: CumulantSpec,
           cat: Category = Category.ALL) -> int | Fraction:
    """Joint moment of the word ``i`` under the mixed independence rule."""
    _check_table(eps, spec)
    vals = validate_index(i, eps.n)
    k = len(vals)
    d, rows = spec.integer_table
    # each label that occurs once gives every term the factor kappa_1·d
    factor = 1
    again: dict[int, bool] = {}  # label -> does it occur more than once
    for v in vals:
        again[v] = v in again
    once = [v for v, more in again.items() if not more]
    if once:
        if not cat.allows(1):
            return 0
        for v in once:
            factor *= rows[v - 1][0] if rows[v - 1] else 0
            if not factor:
                return 0
        vals = tuple(v for v in vals if again[v])
    # nc_eps_set yields only refinements of ker i, so kappa_pi's check is
    # skipped; each term times the factor is d^k times the block product
    total = 0
    for pi in nc_eps_set(vals, eps, cat):
        total += _scaled_block_product(pi.blocks, vals, rows)
    total *= factor
    return total if d == 1 else stored(Fraction(total, d ** k))


def check_word_loop(eps: EpsilonMatrix, spec: CumulantSpec, max_k: int) -> None:
    """Check a report over every word up to length ``max_k`` before any work:
    max_k >= 0, identical rows, a table as large as the pattern, n**max_k
    words within MATERIALIZE_LIMIT."""
    check_at_least("max_k", max_k, 0)
    if not spec.identically_distributed:
        raise ValueError("coordinates must be identically distributed")
    _check_table(eps, spec)
    n = eps.n
    if n ** max_k > MATERIALIZE_LIMIT:
        raise ValueError(f"max_k = {max_k} is too large: {n}**{max_k} words "
                         f"exceed the limit {MATERIALIZE_LIMIT}")
