"""Free-cumulant data and the mixed moment-cumulant formula.

A cumulant table assigns each coordinate a finite sequence of exact
rational free cumulants; absent orders are zero.  The joint moment of a
word of coordinates is the sum, over all admissible refinements of the
word's kernel, of the product of block cumulants.  With the all-ones
off-diagonal pattern this collapses to classical independence, with the
zero pattern to free independence.

Everything is exact; no floats appear anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .epsmat import EpsilonMatrix
from .groups import automorphism_group
from .partitions import Category, SetPartition, nc_eps_set
from .report import CheckReport


def _norm_row(row) -> tuple[Fraction, ...]:
    vals = [Fraction(v) for v in row]
    while vals and vals[-1] == 0:
        vals.pop()
    return tuple(vals)


@dataclass(frozen=True)
class CumulantSpec:
    """Per-coordinate free cumulants kappa_1, kappa_2, ... as rationals."""

    n: int
    kappas: tuple[tuple[Fraction, ...], ...]

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

    def kappa(self, v: int, m: int) -> Fraction:
        if not 1 <= v <= self.n:
            raise ValueError(f"coordinate {v} outside 1..{self.n}")
        row = self.kappas[v - 1]
        return row[m - 1] if m - 1 < len(row) else Fraction(0)

    @property
    def identically_distributed(self) -> bool:
        return all(row == self.kappas[0] for row in self.kappas)

    def to_json(self) -> dict:
        return {"n": self.n,
                "kappas": [[_format_fraction(v) for v in row] for row in self.kappas]}

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
        rows = [[parse_fraction(v) for v in row] for row in data["kappas"]]
        spec = cls.of(rows)
        if spec.n != data["n"]:
            raise ValueError("row count does not match n")
        return spec


def parse_fraction(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError(f"fraction {text!r} has a zero denominator") from None


def _format_fraction(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


format_fraction = _format_fraction


def kappa_pi(pi: SetPartition, i: Sequence[int], spec: CumulantSpec) -> Fraction:
    """Product over blocks of kappa_{block size}(block coordinate).

    Requires the partition to refine the kernel of ``i`` so every block
    carries a single coordinate.
    """
    vals = tuple(i)
    if len(vals) != pi.k:
        raise ValueError(f"index length {len(vals)} != point count {pi.k}")
    out = Fraction(1)
    for b in pi.blocks:
        v = vals[b[0] - 1]
        if any(vals[p - 1] != v for p in b):
            raise ValueError(f"block {b} carries mixed coordinates; "
                             "partition must refine the kernel")
        out *= spec.kappa(v, len(b))
    return out


def moment(i: Sequence[int], eps: EpsilonMatrix, spec: CumulantSpec,
           cat: Category = Category.ALL) -> Fraction:
    """Joint moment of the word ``i`` under the mixed independence rule."""
    vals = tuple(i)
    if spec.n < eps.n:
        raise ValueError("cumulant table is smaller than the pattern")
    total = Fraction(0)
    for pi in nc_eps_set(vals, eps, cat):
        total += kappa_pi(pi, vals, spec)
    return total


def check_eps_exchangeability(eps: EpsilonMatrix, spec: CumulantSpec,
                              max_k: int) -> CheckReport:
    """Moments must be invariant under every pattern automorphism.

    Verifies moment(i) == moment(s o i) for all automorphisms s and all
    words of length up to ``max_k``.  The cumulant rows must be
    identical, matching the identically-distributed hypothesis.
    """
    if not spec.identically_distributed:
        raise ValueError("coordinates must be identically distributed")
    n = eps.n
    group = automorphism_group(eps)
    checked = 0
    for k in range(max_k + 1):
        table = {}
        for i in product(range(1, n + 1), repeat=k):
            table[i] = moment(i, eps, spec)
        for sigma in group.elements:
            for i, m in table.items():
                moved = tuple(sigma(v) for v in i)
                checked += 1
                if table[moved] != m:
                    return CheckReport(
                        False, checked,
                        f"sigma={sigma.images}, i={i}: "
                        f"{_format_fraction(m)} != {_format_fraction(table[moved])}")
    return CheckReport(True, checked)
