"""Commutation-pattern matrices: validation, named presets, text format.

A pattern is a symmetric 0/1 matrix with zero diagonal.  Entry 1 at
(i, j) declares coordinates i and j commuting (classically independent),
entry 0 leaves them free.  The two constant patterns ``comm`` (all
off-diagonal ones) and ``free`` (all zeros) mark the classical and the
maximally noncommutative ends of the family; everything in between mixes
the two regimes.

All indices on the public surface are 1-based.  The rules every layer
shares live here, each applied once per public entry point: words and
integer arguments, the word limit :data:`MATERIALIZE_LIMIT`, the
exact-number format (:func:`parse_fraction` reads values from outside,
:func:`stored` keeps an ``int`` when integral, a ``Fraction`` only when
not), the memoised property :class:`memo` and the frozen value type
:func:`record`, whose fields are its constructor's parameters, in order.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import partial
from operator import attrgetter

Bits = tuple[tuple[int, ...], ...]


class memo:
    """``functools.cached_property`` without the lock that it takes on
    every first read before Python 3.12: the first read stores the value
    in the instance ``__dict__``, where later reads find it first."""

    def __init__(self, compute: Callable):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


def record(cls: type) -> type:
    """A frozen value type whose fields are its constructor's parameters,
    in order.

    The class writes its own ``__init__``, which checks its arguments and
    stores them with one ``self.__dict__.update``; the field names are
    read from it once, here.  It gives ``==`` between instances of one
    class, the hash of the field tuple (unless the class body sets
    ``__hash__``, ``None`` included), a ``Name(field=value, ...)`` repr
    and ``__match_args__``; assigning or deleting any attribute raises
    ``dataclasses.FrozenInstanceError``.  Unlike ``dataclass(frozen=True)``
    it compiles no code and needs no ``dataclasses`` import, which
    together took half of ``import epsym``.
    """
    init = cls.__init__.__code__
    names = init.co_varnames[1:init.co_argcount]
    fields = attrgetter(*names)
    key = fields if len(names) > 1 else lambda obj: (fields(obj),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        _frozen("assign to", name)

    def __delattr__(self, name):
        _frozen("delete", name)

    cls.__eq__, cls.__repr__, cls.__match_args__ = __eq__, __repr__, names
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    if "__hash__" not in cls.__dict__:
        cls.__hash__ = __hash__
    return cls


def _frozen(verb: str, name: str):
    from dataclasses import FrozenInstanceError  # imported on this error path only
    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


@record
class EpsilonMatrix:
    """A commutation pattern.  Rows may come as any iterables; they are
    stored as tuples, so a pattern is hashable and cannot change.

    Raises ValueError with a distinct message for each violation: wrong
    shape, non-bit entry, nonzero diagonal, broken symmetry.
    """

    def __init__(self, n: int, entries: Bits):
        if check_int("size", n) < 1:
            raise ValueError("size must be a positive integer")
        if not isinstance(entries, Iterable):
            raise ValueError(f"entries must be a sequence of rows, got {entries!r}")
        rows = tuple(entries)
        for i, r in enumerate(rows, 1):
            if not isinstance(r, Iterable):
                raise ValueError(f"row {i} must be a sequence of entries, got {r!r}")
        rows = tuple(map(tuple, rows))  # hashable, and fixed once checked
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected a {n}x{n} array of entries")
        for i in range(n):
            for j in range(n):
                v = rows[i][j]
                if type(v) is not int or v not in (0, 1):
                    raise ValueError(f"entry ({i + 1},{j + 1}) must be 0 or 1, got {v!r}")
        for i in range(n):
            if rows[i][i] != 0:
                raise ValueError(f"diagonal entry ({i + 1},{i + 1}) must be 0")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i + 1},{j + 1})")
        self.__dict__.update(n=n, entries=rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i - 1][j - 1]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i - 1]

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [list(r) for r in self.entries]}


def make_epsilon(n: int, entries) -> EpsilonMatrix:
    """The n-by-n commutation pattern with these rows; the pattern stores
    them as tuples and checks itself."""
    return EpsilonMatrix(n, entries)


# Fixed patterns are embedded verbatim as data, never generated, so the
# fixtures cannot drift.  ``pairs-indep``: two classically independent
# pairs, free from each other.  ``pairs-free``: two free pairs, the
# pairs independent of each other.  ``cycle5``: five coordinates, each
# free from its two cyclic neighbours and independent of the rest (the
# smallest pattern not obtainable by iterated grouping).  ``trivial6``:
# a six-vertex pattern whose automorphism group is trivial.

_EX_D: Bits = (
    (0, 1, 0, 0),
    (1, 0, 0, 0),
    (0, 0, 0, 1),
    (0, 0, 1, 0),
)

_EX_E: Bits = (
    (0, 0, 1, 1),
    (0, 0, 1, 1),
    (1, 1, 0, 0),
    (1, 1, 0, 0),
)

_EX_F: Bits = (
    (0, 0, 1, 1, 0),
    (0, 0, 0, 1, 1),
    (1, 0, 0, 0, 1),
    (1, 1, 0, 0, 0),
    (0, 1, 1, 0, 0),
)

_TRIVIAL6: Bits = (
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (1, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 1),
    (0, 1, 0, 1, 0, 1),
    (0, 0, 1, 1, 1, 0),
)

def comm(n: int) -> EpsilonMatrix:
    """All off-diagonal entries 1: fully classical."""
    points = range(check_int("size", n))
    return make_epsilon(n, tuple(tuple(0 if i == j else 1 for j in points) for i in points))


def free(n: int) -> EpsilonMatrix:
    """All entries 0: fully free."""
    return make_epsilon(n, tuple((0,) * n for _ in range(check_int("size", n))))


def block(n: int, m: int) -> EpsilonMatrix:
    """First n coordinates mutually commuting, remaining m free of everything."""
    if min(check_int("block size", n), check_int("block size", m)) < 0:
        raise ValueError(f"block sizes must be nonnegative, got {n} and {m}")
    size = n + m
    return make_epsilon(size, tuple(
        tuple(1 if i < n and j < n and i != j else 0 for j in range(size))
        for i in range(size)))


# every named pattern: its builder and the number of sizes it takes
_PRESETS = {"comm": (comm, 1), "free": (free, 1), "block": (block, 2)} | {
    name: (partial(make_epsilon, len(rows), rows), 0) for name, rows in [
        ("ex-d", _EX_D), ("pairs-indep", _EX_D), ("ex-e", _EX_E),
        ("pairs-free", _EX_E), ("ex-f", _EX_F), ("cycle5", _EX_F),
        ("trivial6", _TRIVIAL6)]}
_TAKES = ("no parameters", "one size parameter", "two size parameters")

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, *params: int) -> EpsilonMatrix:
    """Look up a named pattern; ``comm``/``free`` take a size, ``block`` two."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    build, arity = _PRESETS[name]
    if len(params) != arity:
        raise ValueError(f"preset {name} takes {_TAKES[arity]}")
    return build(*params)


def parse_eps_text(text: str) -> EpsilonMatrix:
    """Parse the plain text format: a size line, then n rows of n bits.

    Errors report the 1-based line and column of the offending token.
    """
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
        for token in re.finditer(r"\S+", line):
            tok, col = token.group(), token.start() + 1
            if tok not in ("0", "1"):
                raise ValueError(f"line {lineno}, column {col}: expected 0 or 1, got {tok!r}")
            if len(row) == n:
                raise ValueError(f"line {lineno}, column {col}: more than {n} entries")
            row.append(int(tok))
        if len(row) != n:
            raise ValueError(f"line {lineno}, column {len(line) + 1}: "
                             f"expected {n} entries, got {len(row)}")
        rows.append(tuple(row))
    return make_epsilon(n, tuple(rows))


def format_eps_text(eps: EpsilonMatrix) -> str:
    lines = [str(eps.n)]
    lines += [" ".join(str(v) for v in row) for row in eps.entries]
    return "\n".join(lines) + "\n"


def validate_index(values, n: int) -> tuple[int, ...]:
    """Check a multi-index: every entry must be an integer in 1..n."""
    vals = tuple(values)
    for pos, v in enumerate(vals):
        if type(v) is not int:  # rejects bool and every other int subclass
            raise ValueError(f"index entry {pos + 1} is {v!r}, not an integer")
        if not 1 <= v <= n:
            raise ValueError(f"index entry {pos + 1} is {v!r}, must lie in 1..{n}")
    return vals


def validate_word(values, n: int, k: int) -> tuple[int, ...]:
    """Check a word on k points: its labels first, then one per point."""
    vals = validate_index(values, n)
    if len(vals) != k:
        raise ValueError(f"index length {len(vals)} != point count {k}")
    return vals


# Keyed on n**k, the words walked; keyed on n**#blocks map entries, the
# benchmark's walk-route items (up to 8 blocks at n = 5) would be materialised.
MATERIALIZE_LIMIT = 10 ** 6


def check_int(name: str, value) -> int:
    """The rule for integer arguments: an int, never a bool or a float."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_at_least(name: str, value, low: int) -> int:
    if check_int(name, value) < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def check_in_range(name: str, value, low: int, high: int) -> int:
    if not low <= check_int(name, value) <= high:
        raise ValueError(f"{name} must lie in {low}..{high}")
    return value


def stored(c: int | Fraction) -> int | Fraction:
    """An exact value in stored form: an int when integral."""
    return c.numerator if c.denominator == 1 else c


def parse_fraction(value) -> int | Fraction:
    """Read an exact value in stored form: an int, a Fraction, a float by
    its decimal text (0.1 is 1/10) or a 'p/q' string."""
    if isinstance(value, bool):  # bool is an int subclass; JSON true is no number
        raise ValueError("an exact value must be a number or a 'p/q' string, not a boolean")
    if not isinstance(value, (int, Fraction)):
        try:
            value = Fraction(str(value).strip())
        except ZeroDivisionError:
            raise ValueError(f"fraction {value!r} has a zero denominator") from None
    return stored(value)


@record
class Permutation:
    """A bijection of {1..n}, stored as the image sequence."""

    def __init__(self, n: int, images: Iterable[int]):
        if not isinstance(images, Iterable):
            raise ValueError(f"images must be a sequence of integers, got {images!r}")
        images = tuple(images)  # hashable, and a generator is read once
        # ints, as True and 1.0 equal 1, and equal to 1..n once sorted
        if not set(map(type, images)) <= {int} or \
                sorted(images) != list(range(1, check_int("n", n) + 1)):
            raise ValueError("images must be a bijection of 1..n")
        self.__dict__.update(n=n, images=images)

    def __call__(self, p: int) -> int:
        return self.images[p - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self.n, tuple(self(other(p)) for p in range(1, self.n + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for p in range(1, self.n + 1):
            inv[self(p) - 1] = p
        return Permutation(self.n, tuple(inv))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(n, tuple(range(1, n + 1)))
