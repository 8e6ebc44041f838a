"""Building the membership indicator of a partition as a tensor map.

Given a partition of k points and a commutation pattern, the functional
sending a basis vector e_i of the k-th tensor power to 1 when the
partition is an admissible refinement of ker i (and to 0 otherwise) can
be assembled from elementary maps by a two-move reduction:

* interval removal: if a block-closed interval restricts to a
  noncrossing partition, contract those legs with the adjoint spreading
  map of the restriction;
* leg swap: otherwise, swap two adjacent legs of crossing blocks whose
  left leg belongs to the later-starting block, through the
  pattern-gated swap on those legs.

The reduction strictly shrinks or untangles the partition and ends when
one removal consumes everything.  Each step acts on a window of adjacent
legs, so the composition applies each step's core to that window of the
running map's outputs (``TensorMap.on_legs``) instead of padding it with
identities, from the scalar end: adjoint cores in reverse step order, so
every intermediate map is a transposed indicator of at most n^{#blocks}
entries.  Each distinct core is built once per trace: a trace repeats
the gated swap and often a removed sigma.

The oracle check decides all n^k basis vectors without visiting them:
the indicator's support is the set of labellings of the partition's
blocks by 1..n under which every pair of crossing blocks carries
pattern entry 1, built point by point and compared in one step with
the one row of the (0 -> k) map as built: every support word must
carry 1, and no other word may be stored.  Only the public maps are
transposed.  A sampled check instead walks its drawn vectors one by
one through the membership test.

The move choices depend only on the partition, never on the pattern or
the family, so a trace can be reused across patterns; the pattern enters
through the gated swaps when the maps are materialised.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from itertools import product

from .cumulants import CumulantSpec, _scaled_kappa, check_word_loop, moment
from .epsmat import (MATERIALIZE_LIMIT, EpsilonMatrix, check_at_least, check_in_range,
                     record, validate_word)
from .partitions import (Category, SetPartition, TwoRowPartition, enumerate_partitions,
                         find_case2_index, find_noncrossing_subpartition, in_nc_eps)
from .report import CheckReport
from .tensormaps import Label, TensorMap, r_map, t_pi


@record
class Step:
    """One reduction move and the partition it produced.

    case 1 removes the noncrossing restriction ``sigma`` of the interval
    p..q; case 2 swaps the legs on l and l+1.
    """

    def __init__(self, case: int, result: SetPartition, p: int | None = None,
                 q: int | None = None, sigma: SetPartition | None = None,
                 l: int | None = None):
        self.__dict__.update(case=case, result=result, p=p, q=q, sigma=sigma, l=l)

    def to_json(self) -> dict:
        if self.case == 1:
            return {"case": 1, "p": self.p, "q": self.q,
                    "sigma": self.sigma.to_json(),
                    "result": self.result.to_json(), "points": self.result.k}
        return {"case": 2, "l": self.l,
                "result": self.result.to_json(), "points": self.result.k}


@record
class AlgorithmTrace:
    """The reduction of ``initial`` under a pattern and a family, step by step."""

    def __init__(self, initial: SetPartition, eps: EpsilonMatrix, category: Category,
                 steps: tuple[Step, ...]):
        self.__dict__.update(initial=initial, eps=eps, category=category, steps=steps)

    def to_json(self) -> dict:
        return {"initial": self.initial.to_json(),
                "category": self.category.value,
                "eps": self.eps.to_json(),
                "steps": [s.to_json() for s in self.steps]}


def _reduction_steps(pi: SetPartition) -> tuple[Step, ...]:
    # A swap lowers by one the count of point pairs p < q whose block starts
    # after q's, and a removal only drops points: at most k(k-1)/2 swaps and
    # k removals.  The cap turns a nontermination bug into a diagnosable error.
    cap = pi.k * (pi.k + 1) // 2
    steps: list[Step] = []
    cur = pi
    while cur.k > 0:
        if len(steps) > cap:
            raise RuntimeError(f"step cap {cap} exceeded; reduction logic bug")
        found = find_noncrossing_subpartition(cur)
        if found is not None:
            sigma, p, q = found
            cur = cur.remove_interval(p, q)
            steps.append(Step(1, cur, p, q, sigma))
            continue
        l = find_case2_index(cur)
        if l is None:
            raise RuntimeError("no applicable move; violates the "
                               "crossing-structure guarantee")
        cur = cur.swap_points(l)
        steps.append(Step(2, cur, l=l))
    return tuple(steps)


def _composed(trace: AlgorithmTrace, n: int) -> TensorMap:
    # compose_trace_map before its transpose: the (end -> k) map as built
    end = trace.steps[-1].result.k if trace.steps else trace.initial.k
    composed = TensorMap.identity(n, end)
    cores: dict[SetPartition | None, TensorMap] = {}  # sigma, or None: the swap
    for step in reversed(trace.steps):
        sigma = step.sigma
        core = cores.get(sigma)
        if core is None:
            core = cores[sigma] = r_map("cross1", trace.eps, n) if sigma is None \
                else t_pi(TwoRowPartition(0, sigma.k, sigma), n)
        composed = core.on_legs((step.l if sigma is None else step.p) - 1, composed)
    return composed


def compose_trace_map(trace: AlgorithmTrace, n: int) -> TensorMap:
    """Materialise the composed step maps as one sparse (k -> end) map,
    end = 0 for a complete trace.

    Composes the adjoint from the end: each step's adjoint core (the
    spreading map of ``sigma`` into legs p..q, or the self-adjoint gated
    swap on legs l, l+1), in reverse step order, each distinct core built
    once; then transposes, which only this public map needs."""
    return _composed(trace, n).adjoint()


def evaluate_trace(trace: AlgorithmTrace, i: Sequence[int]) -> int:
    """Value of the composed map on one basis vector, without
    materialising anything.  Every step sends a basis vector to at most
    one basis vector with coefficient 1, so a single walk suffices.
    The labels must lie in 1..n of the trace's pattern, one per point."""
    return _walk(trace, validate_word(i, trace.eps.n, trace.initial.k))


def _walk(trace: AlgorithmTrace, cur: tuple[int, ...]) -> int:
    # evaluate_trace on a word already known to fit the trace
    eps = trace.eps
    for step in trace.steps:
        if step.case == 1:
            if step.sigma.mixed_block(cur[step.p - 1:step.q]) is not None:
                return 0
            cur = cur[:step.p - 1] + cur[step.q:]
        else:
            a, b = cur[step.l - 1], cur[step.l]
            if eps[a, b] != 1:
                return 0
            cur = cur[:step.l - 1] + (b, a) + cur[step.l + 1:]
    return 1


def run_algorithm(pi: SetPartition, eps: EpsilonMatrix, cat: Category,
                  n: int) -> tuple[AlgorithmTrace, TensorMap | None]:
    """Reduce ``pi`` and compose the step maps.

    Returns the trace and the materialised map when n**k stays within
    the materialisation limit, else None (use :func:`evaluate_trace`).
    The family must contain ``pi``.  No move splits a block (a removal
    takes whole blocks, a swap keeps every block's size), so every
    intermediate partition and every removed ``sigma`` is in it too.
    """
    trace, built = _run(pi, eps, cat, n)
    return trace, None if built is None else built.adjoint()


def _run(pi: SetPartition, eps: EpsilonMatrix, cat: Category,
         n: int) -> tuple[AlgorithmTrace, TensorMap | None]:
    # run_algorithm with its map as built, (0 -> k); the reports share it
    check_in_range("base dimension", n, 1, eps.n)
    if not cat.contains(pi):
        raise ValueError("partition is not in the requested family")
    trace = AlgorithmTrace(pi, eps, cat, _reduction_steps(pi))
    return trace, _composed(trace, n) if n ** pi.k <= MATERIALIZE_LIMIT else None


def _support(pi: SetPartition, eps: EpsilonMatrix, n: int) -> list[Label]:
    """The words on which the indicator of ``pi`` is 1: the labellings of
    its blocks by 1..n under which every pair of crossing blocks carries
    pattern entry 1 (:attr:`SetPartition.crossing_blocks`).  Built point
    by point: a block's first point takes every label when the block
    crosses no earlier block, else each label whose pattern row has entry
    1 at the labels of the earlier blocks it crosses; its later points
    repeat that label."""
    own = pi.owner
    first = [b[0] - 1 for b in pi.blocks]
    crossed: list[list[int]] = [[] for _ in pi.blocks]
    for a, b in pi.crossing_blocks:
        crossed[b].append(first[a])
    labels = range(1, n + 1)
    rows = tuple(enumerate(eps.entries[:n], start=1))
    words: list[Label] = [()]
    for p, b in enumerate(own):
        f = first[b]
        if f < p:
            words = [w + (w[f],) for w in words]
        elif not crossed[b]:
            words = [w + (v,) for w in words for v in labels]
        else:
            words = [w + (v,) for w in words for v, row in rows
                     if all(row[w[a] - 1] == 1 for a in crossed[b])]
    return words


def _mismatch(pi: SetPartition, i: Label, checked: int, got, want: int) -> CheckReport:
    return CheckReport(False, checked, f"pi={pi}, i={i}: map gives {got}, "
                                       f"membership gives {want}")


def check_sample(sample: int | None) -> None:
    """Refuse a sample that is not an integer of at least 1; None asks for all."""
    if sample is not None:
        check_at_least("sample", sample, 1)


def verify_oracle(pi: SetPartition, eps: EpsilonMatrix, cat: Category, n: int,
                  sample: int | None = None) -> CheckReport:
    """Compare the composed map against the combinatorial membership test.

    The map is read as built, (0 -> k), and never transposed.  With
    ``sample`` unset, all n**k basis vectors are decided at once: its
    one row must be 1 on each admissible block labelling
    (:func:`_support`) and hold nothing else.  A failure names the least
    wrong vector, with its rank in lexicographic order as the number
    checked.  Otherwise ``sample`` (at least 1) vectors are drawn from a
    fixed seed and each is checked against :func:`in_nc_eps`.
    """
    check_sample(sample)
    trace, built = _run(pi, eps, cat, n)
    k = pi.k
    row = None if built is None else built.rows.get((), {})
    if sample is None:
        if row is None:
            raise ValueError("space too large to enumerate; pass sample=")
        support = dict.fromkeys(_support(pi, eps, n), 1)
        if row == support:
            return CheckReport(True, n ** k)
        # support words the map misses or weights wrongly, then its words
        # outside the support (a stored value is never zero)
        wrong = [i for i in support if row.get(i) != 1]
        wrong += row.keys() - support.keys()
        bad = min(wrong)
        rank = 1 + sum((v - 1) * n ** (k - 1 - p) for p, v in enumerate(bad))
        return _mismatch(pi, bad, rank, row.get(bad, 0), support.get(bad, 0))
    rng = random.Random(0)
    for checked in range(1, sample + 1):
        i = tuple(rng.randint(1, n) for _ in range(k))
        got = row.get(i, 0) if row is not None else _walk(trace, i)
        want = 1 if in_nc_eps(pi, i, eps) else 0
        if got != want:
            return _mismatch(pi, i, checked, got, want)
    return CheckReport(True, checked)


def definetti_identity_report(eps: EpsilonMatrix, cat: Category,
                              spec: CumulantSpec, max_k: int) -> CheckReport:
    """Moments must equal the indicator-weighted cumulant sums.

    For every word j up to length max_k, the sum over partitions in the
    family of (value of the composed map at e_j) times the block-cumulant
    product must reproduce the moment of j restricted to the family.
    The weights come from the tensor route: each partition's (0 -> k)
    map, as built, lists its support in its one row, and a word the
    partition does not refine raises in :func:`kappa_pi`'s kernel test;
    the sums run in ints, times d**k.  Every map is materialised, so
    n**max_k above the materialisation limit is refused.
    """
    check_word_loop(eps, spec, max_k)
    n = eps.n
    d, rows = spec.integer_table
    checked = 0
    for k in range(max_k + 1):
        sums: dict[Label, int] = {}
        for pi in enumerate_partitions(k, cat):
            for j, c in _run(pi, eps, cat, n)[1].rows.get((), {}).items():
                sums[j] = sums.get(j, 0) + c * _scaled_kappa(pi, j, rows)
        for j in product(range(1, n + 1), repeat=k):
            lhs, rhs = Fraction(sums.get(j, 0), d ** k), moment(j, eps, spec, cat)
            checked += 1
            if lhs != rhs:
                return CheckReport(False, checked,
                                   f"j={j}: indicator sum {lhs} != moment {rhs}")
    return CheckReport(True, checked)
