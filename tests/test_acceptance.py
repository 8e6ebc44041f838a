"""Acceptance criteria, one test per criterion.

Every check is exact (rational or integer equality); there are no
tolerances anywhere.  Each test prints a single pass/fail line on the
real stdout so the battery reads as a checklist even under output
capture.
"""

import math
import random
import sys
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

import oracles
from epsym.cumulants import CumulantSpec, moment
from epsym.epsmat import Permutation, preset
from epsym.groups import (automorphism_group, check_coxeter_rep,
                          check_eps_exchangeability, coxeter_rep,
                          entries_commute, permutation_satisfies_R_eps,
                          projection_pair_representation, rep_check,
                          word_reduce)
from epsym.indicator import (definetti_identity_report, run_algorithm,
                             verify_oracle)
from epsym.partitions import (Category, SetPartition, enumerate_partitions,
                              parse_partition)
from epsym.tensormaps import box_calculus_suite, intertwiner_identity_suite

FIGURE = parse_partition("{1,7,15}{2,5}{3,4}{6,10,16}{8,9}{11,13}{12,14}")

CATS = (Category.ALL, Category.PAIR, Category.ONETWO, Category.EVEN)


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_indicator_oracle_equivalence():
    eps_list = [("comm3", preset("comm", 3)), ("free3", preset("free", 3)),
                ("ex-d", preset("ex-d")), ("ex-e", preset("ex-e")),
                ("ex-f", preset("ex-f"))]
    n = 3
    t0 = time.time()
    checked = 0
    try:
        for k in range(7):
            for pi in enumerate_partitions(k):
                cats = [c for c in CATS if c.contains(pi)]
                for name, eps in eps_list:
                    trace, mp = run_algorithm(pi, eps, Category.ALL, n)
                    for cat in cats:
                        for st in trace.steps:
                            assert cat.contains(st.result), (name, cat, pi)
                            if st.case == 1:
                                assert cat.contains(st.sigma), (name, cat, pi)
                    # every one of the n**k vectors against the independent membership
                    passed, count, counterexample = oracles.naive_verify_oracle(pi, eps, n, mp)
                    assert passed, (name, counterexample)
                    checked += count
        ok, detail = True, f"{checked} map values, {time.time() - t0:.0f}s"
    except AssertionError as exc:
        ok, detail = False, str(exc.args[0] if exc.args else exc)
    report(1, "indicator map equals the membership test (k <= 6, n = 3)",
           ok, detail)


def test_criterion_02_sixteen_point_reduction():
    t0 = time.time()
    ok, detail = True, ""
    for name in ("comm", "free"):
        eps = preset(name, 16)
        trace, _ = run_algorithm(FIGURE, eps, Category.ALL, 2)
        cap = 16 * 16 * len(FIGURE.crossing_pairs) + 16
        if len(trace.steps) > cap or trace.steps[-1].result.k != 0:
            ok, detail = False, f"{name}: bad trace"
            break
        rep = verify_oracle(FIGURE, eps, Category.ALL, 2, sample=1000)
        if not rep.passed:
            ok, detail = False, f"{name}: {rep.counterexample}"
            break
    if ok:
        detail = f"2 x 1000 samples, {time.time() - t0:.1f}s"
    report(2, "16-point reduction terminates and matches on samples", ok, detail)


def test_criterion_03_group_orders():
    ok = True
    detail = ""
    if automorphism_group(preset("ex-d")).order != 8:
        ok, detail = False, "ex-d order"
    if automorphism_group(preset("ex-e")).order != 8:
        ok, detail = False, "ex-e order"
    if automorphism_group(preset("trivial6")).order != 1:
        ok, detail = False, "trivial6 order"
    for n in range(2, 6):
        for name in ("comm", "free"):
            if automorphism_group(preset(name, n)).order != math.factorial(n):
                ok, detail = False, f"{name}({n})"
    report(3, "automorphism-group orders (8 / 8 / trivial / full)", ok, detail)


def test_criterion_04_intertwiner_identity_suites():
    battery = [("comm2", preset("comm", 2)), ("comm3", preset("comm", 3)),
               ("comm4", preset("comm", 4)), ("comm5", preset("comm", 5)),
               ("free2", preset("free", 2)), ("free3", preset("free", 3)),
               ("free4", preset("free", 4)), ("free5", preset("free", 5)),
               ("block-2-2", preset("block", 2, 2)),
               ("block-2-3", preset("block", 2, 3)),
               ("ex-d", preset("ex-d")), ("ex-e", preset("ex-e")),
               ("ex-f", preset("ex-f"))]
    ok, detail = True, ""
    for name, eps in battery:
        first = intertwiner_identity_suite(eps)
        second = box_calculus_suite(eps)
        if not (first.passed and second.passed):
            bad = next(c for c in first.checks + second.checks if not c.passed)
            ok, detail = False, f"{name}: {bad.name}"
            break
    if ok:
        # the five-cycle loop count, entrywise
        eps = preset("ex-f")
        for i, k in product(range(1, 6), repeat=2):
            lhs = sum(1 for m in range(1, 6)
                      if eps[i, m] == 0 and eps[m, k] == 0)
            rhs = (1 if eps[i, k] == 0 else 0) + (1 if i == k else 0) + 1
            if lhs != rhs:
                ok, detail = False, f"loop count at ({i},{k})"
                break
    report(4, "identity and product suites for the gated maps", ok, detail)


def test_criterion_05_reflection_representation():
    battery = [preset("comm", n) for n in range(2, 6)] + \
        [preset("free", n) for n in range(2, 6)] + \
        [preset("block", 2, 2), preset("ex-d"), preset("ex-e"),
         preset("ex-f"), preset("trivial6")]
    ok, detail = True, ""
    for eps in battery:
        rep_report = check_coxeter_rep(eps)
        if not rep_report.passed:
            ok, detail = False, next(c for c in rep_report.checks if not c.passed).name
            break
    report(5, "reflection generators: squares and pattern commutations",
           ok, detail)


def test_criterion_06_projection_representation():
    u = projection_pair_representation()
    suite = rep_check(u, preset("ex-d"), ["magic", "Rring_eps"])
    witness = not entries_commute(u, 1, 1, 3, 3)
    ok = suite.passed and witness
    detail = "" if ok else "relations or witness failed"
    report(6, "4x4 projection matrix: magic + vanishing exchange + "
              "noncommuting witness", ok, detail)


def test_criterion_07_moment_cross_checks():
    ok, detail = True, ""
    spec3 = CumulantSpec.of([(1, 1), (Fraction(1, 2), 2), (0, 1, 1)])
    try:
        for n in (1, 2, 3):
            eps = preset("comm", n)
            for k in range(6):
                for i in product(range(1, n + 1), repeat=k):
                    assert moment(i, eps, spec3) == \
                        oracles.classical_moment(i, spec3), ("comm", i)
        for n in (1, 2, 3):
            eps = preset("free", n)
            for k in range(7):
                for i in product(range(1, n + 1), repeat=k):
                    assert moment(i, eps, spec3) == \
                        oracles.free_moment(i, spec3), ("free", i)
        pats4 = [preset("comm", 4), preset("free", 4), preset("ex-d"),
                 preset("ex-e"), preset("block", 2, 2)]
        spec4 = CumulantSpec.constant(4, (1, Fraction(1, 3), 1))
        for v in range(1, 5):
            for k in range(1, 9):
                vals = {moment((v,) * k, eps, spec4) for eps in pats4}
                assert len(vals) == 1, ("single-variable", v, k)
        semi = CumulantSpec.semicircle(2)
        for m in range(5):
            assert moment((1,) * (2 * m), preset("free", 2), semi) == \
                oracles.catalan(m), ("catalan", m)
    except AssertionError as exc:
        ok, detail = False, str(exc.args[0] if exc.args else exc)
    report(7, "moment formula against classical / free / single-variable "
              "oracles", ok, detail)


def test_criterion_08_exchangeability_and_definetti():
    semicircle = (0, 1)
    shifted = (1, 1)
    even = (0, 1, 0, 1)
    battery = [("comm2", preset("comm", 2), 5), ("comm3", preset("comm", 3), 5),
               ("free2", preset("free", 2), 5), ("free3", preset("free", 3), 5),
               ("block-2-2", preset("block", 2, 2), 4),
               ("ex-d", preset("ex-d"), 4), ("ex-e", preset("ex-e"), 4),
               ("ex-f", preset("ex-f"), 4), ("trivial6", preset("trivial6"), 4)]
    t0 = time.time()
    ok, detail = True, ""
    for name, eps, max_k in battery:
        for row in (semicircle, shifted, even):
            spec = CumulantSpec.constant(eps.n, row)
            r = check_eps_exchangeability(eps, spec, max_k)
            if not r.passed:
                ok, detail = False, f"exchangeability {name} {row}: {r.counterexample}"
                break
            for cat in CATS:
                r = definetti_identity_report(eps, cat, spec, max_k)
                if not r.passed:
                    ok, detail = False, \
                        f"definetti {name} {cat.value} {row}: {r.counterexample}"
                    break
            if not ok:
                break
        if not ok:
            break
    if ok:
        detail = f"{time.time() - t0:.0f}s"
    report(8, "pattern exchangeability and indicator-weighted moment sums",
           ok, detail)


def test_criterion_09_membership_equals_relation_route():
    battery = [("comm4", preset("comm", 4)), ("comm6", preset("comm", 6)),
               ("free4", preset("free", 4)), ("free6", preset("free", 6)),
               ("block-2-2", preset("block", 2, 2)),
               ("block-3-3", preset("block", 3, 3)),
               ("ex-d", preset("ex-d")), ("ex-e", preset("ex-e")),
               ("ex-f", preset("ex-f")), ("trivial6", preset("trivial6"))]
    ok, detail = True, ""
    for name, eps in battery:
        members = {g.images for g in automorphism_group(eps).elements}
        for images in permutations(range(1, eps.n + 1)):
            sigma = Permutation(eps.n, images)
            if permutation_satisfies_R_eps(sigma, eps) != (images in members):
                ok, detail = False, f"{name}: {images}"
                break
        if not ok:
            break
    report(9, "group membership coincides with the delta-relation check "
              "(n <= 6)", ok, detail)


def test_criterion_10_word_problem_consistency():
    battery = [preset("comm", 3), preset("comm", 5), preset("free", 3),
               preset("free", 5), preset("block", 2, 2), preset("block", 2, 3),
               preset("ex-d"), preset("ex-e"), preset("ex-f")]
    rng = random.Random(20240808)
    t0 = time.time()
    total = 10_000
    per_pattern = total // len(battery) + 1
    ok, detail = True, ""
    count = 0
    try:
        for eps in battery:
            rep = coxeter_rep(eps)
            for _ in range(per_pattern):
                if count >= total:
                    break
                count += 1
                w = tuple(rng.randint(1, eps.n)
                          for _ in range(rng.randint(0, 12)))
                nf = word_reduce(w, eps)
                # soundness against the reflection representation
                assert rep.word_blocks(w) == rep.word_blocks(nf), (w, nf)
                # congruence under a random legal rewriting move
                moved = _legal_move(rng, w, eps)
                assert word_reduce(moved, eps) == nf, (w, moved)
    except AssertionError as exc:
        ok, detail = False, str(exc.args[0] if exc.args else exc)
    if ok:
        detail = f"{count} words, {time.time() - t0:.0f}s"
    report(10, "word-problem normal form: congruence and soundness", ok, detail)


def _legal_move(rng, w, eps):
    w = list(w)
    choices = ["insert"]
    squares = [p for p in range(len(w) - 1) if w[p] == w[p + 1]]
    swaps = [p for p in range(len(w) - 1)
             if w[p] != w[p + 1] and eps[w[p], w[p + 1]] == 1]
    if squares:
        choices.append("delete")
    if swaps:
        choices.append("swap")
    move = rng.choice(choices)
    if move == "insert":
        pos = rng.randint(0, len(w))
        a = rng.randint(1, eps.n)
        w[pos:pos] = [a, a]
    elif move == "delete":
        p = rng.choice(squares)
        del w[p:p + 2]
    else:
        p = rng.choice(swaps)
        w[p], w[p + 1] = w[p + 1], w[p]
    return tuple(w)
