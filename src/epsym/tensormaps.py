"""Exact sparse linear maps between tensor powers of an n-dimensional space.

Basis vectors of the k-th tensor power are labelled by k-tuples over
{1..n}; the 0-th power is the scalars with the empty tuple as its basis
label.  A map stores only its nonzero rational coefficients, keyed by
(input label, output label), so compositions at sixteen tensor legs with
small n stay cheap.  Coefficients follow :mod:`epsym.epsmat`'s number
format (``stored``, read by ``parse_fraction``); ``add_entry``
normalises every value it stores, so equal maps have equal tables.

``core.on_legs(left, other)`` applies ``core`` to the window of legs
``left .. left + core.k_in - 1`` of ``other``'s outputs.  It equals
``(identity(n, left) ⊗ core ⊗ identity(n, rest)) @ other`` but builds no
identity blocks: it slices each output label of ``other``, looks the
slice up in ``core`` and splices the image back in; ``a @ b`` is
``a.on_legs(0, b)``.  Chains of such window steps are how the indicator
route and the bridge identities compose their elementary maps; the
indicator route builds each distinct core once per trace.

Every builder writes entry 1 (upper word -> lower word) per labelling of
a two-row partition's blocks by 1..n, unless a pattern gate rejects it:

* ``t_pi`` turns a two-row partition into its 0/1 spreading map: an
  input basis vector goes to the sum of all output basis vectors whose
  combined labelling is constant on every block.
* ``r_map`` builds the four pattern-gated maps on two legs: the gated
  swap, the gated identity and its complement, and the pair-to-pair
  spread over pattern-zero partners; ``eps_as_map`` and
  ``free_neighbors_map`` gate {1}{2} on one leg.
* ``s_box`` superposes those into the three mixed boxes (swap where the
  pattern is 1, something else where it is 0).

Two suites verify the identities that make the boxes a calculus: the
bridge identities relating them through rotations, and the product
rules, including the loop-count decomposition special to the five-cycle
pattern.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import product

from .epsmat import EpsilonMatrix, check_in_range, check_int, parse_fraction, stored
from .partitions import TwoRowPartition
from .report import CheckResult, SuiteReport

Label = tuple[int, ...]


class TensorMap:
    """Sparse exact-rational map from the k_in-th to the k_out-th power."""

    __slots__ = ("n", "k_in", "k_out", "rows")

    def __init__(self, n: int, k_in: int, k_out: int,
                 entries: Iterable[tuple[Sequence[int], Sequence[int], Fraction]] = ()):
        if check_int("n", n) < 1 or \
                min(check_int("k_in", k_in), check_int("k_out", k_out)) < 0:
            raise ValueError("need n >= 1 and nonnegative degrees")
        self.n = n
        self.k_in = k_in
        self.k_out = k_out
        self.rows: dict[Label, dict[Label, int | Fraction]] = {}
        for i, j, c in entries:
            self.add_entry(tuple(i), tuple(j), c)

    def add_entry(self, i: Label, j: Label, c: int | Fraction) -> None:
        """Add ``c``, read by ``parse_fraction``, to the coefficient at (i, j)."""
        if len(i) != self.k_in or len(j) != self.k_out:
            raise ValueError("label length does not match the degree")
        if any(type(v) is not int or not 1 <= v <= self.n for v in i + j):
            raise ValueError("label entries must be integers in 1..n")
        c = parse_fraction(c)
        if c == 0:
            return
        row = self.rows.setdefault(i, {})
        new = row.get(j, 0) + c
        if new == 0:
            del row[j]
            if not row:
                del self.rows[i]
        else:
            row[j] = stored(new)

    # -- queries ----------------------------------------------------------

    def scalar_at(self, i: Sequence[int], j: Sequence[int]) -> int | Fraction:
        return self.rows.get(tuple(i), {}).get(tuple(j), 0)

    def entries(self) -> list[tuple[Label, Label, int | Fraction]]:
        """All nonzero entries sorted by (output, input)."""
        out = [(i, j, c) for i, row in self.rows.items() for j, c in row.items()]
        out.sort(key=lambda e: (e[1], e[0]))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorMap):
            return NotImplemented
        return (self.n, self.k_in, self.k_out) == (other.n, other.k_in, other.k_out) \
            and self.rows == other.rows

    def __repr__(self):
        return (f"TensorMap(n={self.n}, {self.k_in}->{self.k_out}, "
                f"{sum(len(r) for r in self.rows.values())} entries)")

    # -- algebra ----------------------------------------------------------

    def __matmul__(self, other: "TensorMap") -> "TensorMap":
        """Composition self after other."""
        if self.n != other.n:
            raise ValueError("base dimensions differ")
        if other.k_out != self.k_in:
            raise ValueError(f"cannot compose {self.k_in}->{self.k_out} "
                             f"after {other.k_in}->{other.k_out}")
        return self.on_legs(0, other)

    def on_legs(self, left: int, other: "TensorMap") -> "TensorMap":
        """``(identity(n, left) ⊗ self ⊗ identity(n, rest)) @ other``.

        Applies self to output legs ``left .. left + k_in - 1`` of other
        without building the identities.  Every label written is spliced
        from labels both maps already hold, so no label is re-validated.
        """
        if self.n != other.n:
            raise ValueError("base dimensions differ")
        if not 0 <= left <= other.k_out - self.k_in:
            raise ValueError(f"cannot apply {self.k_in}->{self.k_out} at leg "
                             f"{left} of {other.k_in}->{other.k_out}")
        stop = left + self.k_in
        out = TensorMap(self.n, other.k_in, other.k_out - self.k_in + self.k_out)
        core = self.rows
        for i, mids in other.rows.items():
            row: dict[Label, int | Fraction] = {}
            for mid, c in mids.items():
                image = core.get(mid[left:stop])
                if not image:
                    continue
                head, tail = mid[:left], mid[stop:]
                for j, c2 in image.items():
                    key = head + j + tail
                    new = row.get(key, 0) + c * c2
                    if new == 0:
                        del row[key]
                    else:
                        row[key] = new if new.__class__ is int else stored(new)
            if row:
                out.rows[i] = row
        return out

    def tensor(self, other: "TensorMap") -> "TensorMap":
        if self.n != other.n:
            raise ValueError("base dimensions differ")
        out = TensorMap(self.n, self.k_in + other.k_in, self.k_out + other.k_out)
        for i1, row1 in self.rows.items():
            for i2, row2 in other.rows.items():
                key = i1 + i2
                for j1, c1 in row1.items():
                    for j2, c2 in row2.items():
                        out.add_entry(key, j1 + j2, c1 * c2)
        return out

    def adjoint(self) -> "TensorMap":
        """Transpose of the coefficient table (entries are rational, so
        conjugation is trivial).  Every entry is already stored and
        validated, so the transposed table is written directly."""
        out = TensorMap(self.n, self.k_out, self.k_in)
        rows = out.rows
        for i, row in self.rows.items():
            for j, c in row.items():
                rows.setdefault(j, {})[i] = c
        return out

    def __add__(self, other: "TensorMap") -> "TensorMap":
        if (self.n, self.k_in, self.k_out) != (other.n, other.k_in, other.k_out):
            raise ValueError("shapes differ")
        out = TensorMap(self.n, self.k_in, self.k_out)
        for src in (self, other):
            for i, row in src.rows.items():
                for j, c in row.items():
                    out.add_entry(i, j, c)
        return out

    def __neg__(self) -> "TensorMap":
        return -1 * self

    def __sub__(self, other: "TensorMap") -> "TensorMap":
        return self + (-other)

    def __rmul__(self, c) -> "TensorMap":
        c = parse_fraction(c)
        out = TensorMap(self.n, self.k_in, self.k_out)
        for i, row in self.rows.items():
            for j, v in row.items():
                out.add_entry(i, j, c * v)
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, n: int, k: int) -> "TensorMap":
        out = cls(n, k, k)
        out.rows = {i: {i: 1} for i in product(range(1, n + 1), repeat=k)}
        return out


# ---------------------------------------------------------------------------
# named small two-row partitions

PAAR = TwoRowPartition.of(0, 2, [(1, 2)])            # 1 -> sum_k e_k x e_k
BAAR = TwoRowPartition.of(2, 0, [(1, 2)])            # e_i x e_j -> [i == j]
IDID = TwoRowPartition.of(2, 2, [(1, 3), (2, 4)])    # identity on two legs
CROSS = TwoRowPartition.of(2, 2, [(1, 4), (2, 3)])   # the flip
PAARBAAR = TwoRowPartition.of(2, 2, [(1, 2), (3, 4)])
DREIPARTROT = TwoRowPartition.of(2, 1, [(1, 2, 3)])  # e_i x e_j -> [i == j] e_i
VIERPARTROT = TwoRowPartition.of(2, 2, [(1, 2, 3, 4)])


def _labellings(pi: TwoRowPartition, n: int, keep=None) -> TensorMap:
    """Entry (upper word -> lower word) = 1 for every labelling of the
    blocks of ``pi`` by 1..n whose block values ``keep`` accepts."""
    owner, k = pi.underlying.owner, pi.k
    out = TensorMap(n, k, pi.l)
    for vals in product(range(1, n + 1), repeat=len(pi.underlying.blocks)):
        if keep is None or keep(vals):
            word = tuple(map(vals.__getitem__, owner))
            out.rows.setdefault(word[:k], {})[word[k:]] = 1
    return out


def t_pi(pi: TwoRowPartition, n: int) -> TensorMap:
    """The 0/1 spreading map of a two-row partition.

    e_i goes to the sum of e_j over all lower labellings j such that the
    combined word (i, j) is constant on every block.  Blocks with no
    upper point range freely over {1..n}.
    """
    return _labellings(pi, n)


# kind -> (two-row partition, pattern entry its two block values must carry)
_GATED = {"cross1": (CROSS, 1), "idid1": (IDID, 1), "idid0": (IDID, 0),
          "paarbaar0": (PAARBAAR, 0)}
_ONE_LEG = TwoRowPartition.of(1, 1, [(1,), (2,)])


def r_map(kind: str, eps: EpsilonMatrix, n: int | None = None) -> TensorMap:
    """One of the four pattern-gated maps on two tensor legs.

    cross1:    e_i x e_j -> [eps_ij = 1] e_j x e_i
    idid1:     e_i x e_j -> [eps_ij = 1] e_i x e_j
    idid0:     e_i x e_j -> [eps_ij = 0] e_i x e_j
    paarbaar0: e_i x e_j -> [i = j] sum_k [eps_ik = 0] e_k x e_k
    """
    n = eps.n if n is None else check_in_range("base dimension", n, 1, eps.n)
    if kind not in _GATED:
        raise ValueError(f"unknown map kind {kind!r}; known: {', '.join(_GATED)}")
    pi, gate = _GATED[kind]
    return _labellings(pi, n, lambda v: eps[v] == gate)


# box kind -> (gated map where the pattern is 1, gated map where it is 0)
_BOXES = {"cross-id": ("cross1", "idid0"), "cross-paar": ("cross1", "paarbaar0"),
          "id-paar": ("idid1", "paarbaar0")}


def s_box(kind: str, eps: EpsilonMatrix) -> TensorMap:
    """The mixed boxes: swap where the pattern is 1, plus a pattern-zero part."""
    if kind not in _BOXES:
        raise ValueError(f"unknown box kind {kind!r}; known: {', '.join(_BOXES)}")
    one, zero = _BOXES[kind]
    return r_map(one, eps) + r_map(zero, eps)


def eps_as_map(eps: EpsilonMatrix) -> TensorMap:
    """The pattern itself as a map: e_i -> sum_k [eps_ik = 1] e_k."""
    return _labellings(_ONE_LEG, eps.n, lambda v: eps[v] == 1)


def free_neighbors_map(eps: EpsilonMatrix) -> TensorMap:
    """e_i -> sum over the pattern-zero partners of i (including i itself)."""
    return _labellings(_ONE_LEG, eps.n, lambda v: eps[v] == 0)


# ---------------------------------------------------------------------------
# identity suites

def _compare(name: str, left: TensorMap, right: TensorMap) -> CheckResult:
    if left == right:
        return CheckResult(name, True)
    keys = {(i, j) for m in (left, right) for i, row in m.rows.items() for j in row}
    for i, j in sorted(keys):
        a, b = left.scalar_at(i, j), right.scalar_at(i, j)
        if a != b:
            return CheckResult(name, False,
                               f"first difference at in={i} out={j}: {a} != {b}")
    return CheckResult(name, False, "shape mismatch")


def _bridge(middle: TensorMap) -> TensorMap:
    """Rotate a two-leg map by capping with a pair above and below:
    (baar x id x id) o (id x middle x id) o (id x id x paar)."""
    n = middle.n
    opened = t_pi(PAAR, n).on_legs(2, TensorMap.identity(n, 2))
    return t_pi(BAAR, n).on_legs(0, middle.on_legs(1, opened))


def intertwiner_identity_suite(eps: EpsilonMatrix) -> SuiteReport:
    """The equivalence identities between the pattern-gated maps.

    (a) the gated identity complement equals id - (gated swap)^2;
    (b) bridging the cross-id box yields the cross-paar box;
    (c) bridging the gated identity complement yields the pair spread;
    (d) the cross-paar box absorbs the four-point block map into the
        pair spread;
    (e) rotating the pair spread with the three-point block map gives
        the free-neighbour map on one leg.

    All compared as exact coefficient tables.
    """
    n = eps.n
    id2 = TensorMap.identity(n, 2)
    cross1 = r_map("cross1", eps)
    idid0 = r_map("idid0", eps)
    paarbaar0 = r_map("paarbaar0", eps)
    s_ci = s_box("cross-id", eps)
    s_cp = s_box("cross-paar", eps)
    drei = t_pi(DREIPARTROT, n)
    checks = (
        _compare("idid0 = id - cross1 . cross1", idid0, id2 - (cross1 @ cross1)),
        _compare("bridge(cross-id) = cross-paar", _bridge(s_ci), s_cp),
        _compare("bridge(idid0) = paarbaar0", _bridge(idid0), paarbaar0),
        _compare("cross-paar . four-block = paarbaar0",
                 s_cp @ t_pi(VIERPARTROT, n), paarbaar0),
        _compare("three-block . paarbaar0 . three-block* = free-neighbour map",
                 drei @ paarbaar0 @ drei.adjoint(), free_neighbors_map(eps)),
    )
    return SuiteReport(checks)


def box_calculus_suite(eps: EpsilonMatrix) -> SuiteReport:
    """Product rules for the mixed boxes.

    The cross-id box is an involution; cross-id and cross-paar commute
    and multiply to id-paar.  The square of the cross-paar box produces
    a loop count: with F the free-neighbour map, F . F counts the m with
    eps_im = eps_mk = 0.  For a five-cycle pattern that count collapses
    to [eps_ik = 0] + [i = k] + 1, so the square lands back in the span
    of the named maps.
    """
    n = eps.n
    s_ci = s_box("cross-id", eps)
    s_cp = s_box("cross-paar", eps)
    s_ip = s_box("id-paar", eps)
    checks = [
        _compare("cross-id . cross-id = idid", s_ci @ s_ci, t_pi(IDID, n)),
        _compare("cross-id . cross-paar = id-paar", s_ci @ s_cp, s_ip),
        _compare("cross-paar . cross-id = id-paar", s_cp @ s_ci, s_ip),
    ]
    # every vertex of degree 2 on five vertices leaves room for one cycle
    # only (a cycle needs three), so this is the five-cycle up to relabelling
    if n == 5 and all(sum(row) == 2 for row in eps.entries):
        f = free_neighbors_map(eps)
        checks.append(_compare("loop count = [eps_ik=0] + [i=k] + 1", f @ f,
                               f + TensorMap.identity(5, 1) + t_pi(_ONE_LEG, 5)))
        checks.append(_compare(
            "cross-paar^2 = id-paar + four-block + pair-over-pair",
            s_cp @ s_cp,
            s_ip + t_pi(VIERPARTROT, 5) + t_pi(PAARBAAR, 5)))
    return SuiteReport(tuple(checks))
