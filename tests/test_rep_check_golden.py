"""`rep_check` gives its recorded (passed, detail) for every relation tag
on a fixed grid of patterns and candidate fundamental matrices.

The grid is six size-4 patterns against the projection pair, all 24
permutation matrices, seeded random 1x1 and 2x2 rational block matrices
and hand-made matrices that break one condition each.  The recordings
live in ``tests/golden/rep_check.json``.  After an intended change of
output, rewrite them with

    PYTHONPATH=src python tests/test_rep_check_golden.py
"""

import json
import random
import re
from fractions import Fraction
from itertools import permutations
from pathlib import Path

from epsym.epsmat import Permutation, preset
from epsym.groups import (RELATION_TAGS, Representation, perm_representation,
                          projection_pair_representation, rep_check)

GOLDEN = Path(__file__).resolve().parent / "golden" / "rep_check.json"

PATTERNS = [("comm4", preset("comm", 4)), ("free4", preset("free", 4)),
            ("block-2-2", preset("block", 2, 2)), ("block-3-1", preset("block", 3, 1)),
            ("ex-d", preset("ex-d")), ("ex-e", preset("ex-e"))]

H = Fraction(1, 2)
# symmetric 2x2 projections, so random picks get past the first checks
PROJECTIONS = [((0, 0), (0, 0)), ((1, 0), (0, 1)), ((0, 0), (0, 1)),
               ((1, 0), (0, 0)), ((H, H), (H, H)), ((H, -H), (-H, H))]


def _scalars(rows):
    return Representation.of([[[[v]] for v in row] for row in rows])


def _random_reps(seed: int):
    rng = random.Random(seed)
    out = []
    for r in range(8):
        # 1x1: 0/1 entries, some of them permutation-like
        rows = [[rng.choice((0, 0, 1)) for _ in range(4)] for _ in range(4)]
        if r % 2:
            rows[rng.randrange(4)][rng.randrange(4)] = Fraction(rng.randint(-3, 3), 2)
        out.append((f"random1x1-{r}", _scalars(rows)))
    for r in range(8):
        # 2x2: projections, with an arbitrary rational block in half of them
        blocks = [[rng.choice(PROJECTIONS) for _ in range(4)] for _ in range(4)]
        if r % 2:
            blocks[rng.randrange(4)][rng.randrange(4)] = tuple(
                tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(2))
                for _ in range(2))
        out.append((f"random2x2-{r}", Representation.of(blocks)))
    return out


def representations():
    """(name, matrix) pairs: the fixed ones, then the random and hand-made."""
    proj, other, zero = PROJECTIONS[2], PROJECTIONS[4], PROJECTIONS[0]
    reps = [("projection-pair", projection_pair_representation())]
    for images in permutations(range(1, 5)):
        reps.append(("perm:" + ",".join(map(str, images)),
                     perm_representation(Permutation(4, images))))
    reps += _random_reps(2016)
    reps += [
        ("doubled-identity", _scalars([[2 if p == q else 0 for q in range(4)]
                                       for p in range(4)])),
        ("zero", _scalars([[0] * 4 for _ in range(4)])),
        ("first-column", _scalars([[1, 0, 0, 0] for _ in range(4)])),
        ("first-row", _scalars([[1] * 4] + [[0] * 4 for _ in range(3)])),
        # u[1,1]u[2,3] equals u[2,1]u[1,3] but not u[1,3]u[2,1], so the
        # order of the exchanged product shows
        ("exchange-order", Representation.of(
            [[proj, zero, other, zero], [proj, zero, other, zero],
             [zero] * 4, [zero] * 4])),
    ]
    return reps


def run_grid() -> dict[str, list]:
    out = {}
    reps = representations()
    for pname, eps in PATTERNS:
        for rname, u in reps:
            suite = rep_check(u, eps, RELATION_TAGS)
            out[f"{pname} {rname}"] = [[c.name, c.passed, c.detail] for c in suite.checks]
    return out


def _shape(detail: str) -> str:
    return re.sub(r"\d", "#", detail)


def test_rep_check_matches_golden():
    want = json.loads(GOLDEN.read_text())
    got = run_grid()
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


def test_golden_fails_every_reachable_message():
    # sum_k u[k,i]u[k,j] is unreachable: the blocks are symmetric by then,
    # so the row condition says U U^T = I for the square matrix U, which
    # forces U^T U = I
    shapes = {_shape(d) for rows in json.loads(GOLDEN.read_text()).values()
              for _, passed, d in rows if not passed}
    assert shapes >= {
        "u[#,#] is not symmetric", "u[#,#] is not idempotent",
        "row # does not sum to the identity",
        "column # does not sum to the identity",
        "sum_k u[#,k]u[#,k] wrong",
        "u[#,#] and u[#,#] do not commute", "exchange fails at (#,#,#,#)",
        "u[#,#]u[#,#] nonzero at (#,#,#,#)",
        "summed exchange fails at (#,#,#,#)",
        "pattern-weighted row/column sums differ at (#,#)"}
    tags = {tag: set() for tag in RELATION_TAGS}
    for rows in json.loads(GOLDEN.read_text()).values():
        for tag, passed, _ in rows:
            tags[tag].add(passed)
    assert all(seen == {True, False} for seen in tags.values()), tags


if __name__ == "__main__":
    grid = run_grid()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                         for k, v in grid.items()) + "\n}\n")
