"""Command-line front end.  One verb per library capability.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import epsmat
from .cumulants import CumulantSpec, format_fraction, moment
from .epsmat import EpsilonMatrix, Permutation, format_eps_text, parse_eps_text
from .groups import (automorphism_group, check_coxeter_rep,
                     check_eps_exchangeability, entries_commute,
                     perm_representation, projection_pair_representation,
                     rep_check, word_reduce)
from .indicator import definetti_identity_report, run_algorithm, verify_oracle
from .partitions import (Category, enumerate_partitions, format_partition,
                         nc_eps_set, parse_partition)
from .report import CheckResult, SuiteReport
from .tensormaps import box_calculus_suite, intertwiner_identity_suite


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _add_eps_args(p: argparse.ArgumentParser, n_is_dim: bool = False) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", help="named pattern (comm, free, block, ex-d, "
                                    "ex-e, ex-f, trivial6, ...)")
    g.add_argument("--eps-file", help="path to a pattern in the text format")
    if n_is_dim:
        p.add_argument("--size", type=int,
                       help="size for comm/free, first size for block "
                            "(defaults to --n)")
    else:
        p.add_argument("--n", type=int,
                       help="size for comm/free, first size for block")
    p.add_argument("--m", type=int, help="second size for the block preset")


def _load_eps(args) -> EpsilonMatrix:
    if args.eps_file:
        with open(args.eps_file) as fh:
            return parse_eps_text(fh.read())
    name = args.preset
    size = getattr(args, "size", None)
    if size is None:
        size = args.n
    if name in ("comm", "free"):
        if size is None:
            raise ValueError(f"preset {name} needs a size (--n or --size)")
        return epsmat.preset(name, size)
    if name == "block":
        if size is None or args.m is None:
            raise ValueError("preset block needs a first size (--n or --size) and --m")
        return epsmat.preset(name, size, args.m)
    return epsmat.preset(name)


def _parse_csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(t.strip()) for t in text.split(","))


def _load_kappa(args, eps: EpsilonMatrix) -> CumulantSpec:
    spec_arg = args.kappa
    if spec_arg == "semicircle":
        return CumulantSpec.semicircle(eps.n)
    if spec_arg.startswith("file:"):
        with open(spec_arg[5:]) as fh:
            return CumulantSpec.from_json(json.load(fh))
    raise ValueError("--kappa must be 'semicircle' or 'file:PATH'")


def _print_report(report, as_json: bool) -> int:
    if as_json:
        _emit_json(report.to_json())
    else:
        print(report.line())
    return 0 if report.passed else 1


def _print_suite(suite, as_json: bool) -> int:
    if as_json:
        _emit_json(suite.to_json())
    else:
        for line in suite.lines():
            print(line)
    return 0 if suite.passed else 1


def _cmd_show_eps(args) -> int:
    eps = _load_eps(args)
    if args.json:
        _emit_json(eps.to_json())
    else:
        print(format_eps_text(eps), end="")
    return 0


def _print_partitions(parts, as_json: bool) -> int:
    if as_json:
        _emit_json([p.to_json() for p in parts])
    else:
        for p in parts:
            print(format_partition(p))
        print(f"total: {len(parts)}")
    return 0


def _cmd_partitions(args) -> int:
    cat = Category.parse(args.cat)
    return _print_partitions(
        enumerate_partitions(args.k, cat, noncrossing_only=args.noncrossing), args.json)


def _cmd_ncset(args) -> int:
    eps = _load_eps(args)
    i = _parse_csv_ints(args.index)
    return _print_partitions(nc_eps_set(i, eps, Category.parse(args.cat)), args.json)


def _cmd_moment(args) -> int:
    eps = _load_eps(args)
    spec = _load_kappa(args, eps)
    i = _parse_csv_ints(args.index)
    value = moment(i, eps, spec, Category.parse(args.cat))
    if args.json:
        _emit_json({"index": list(i), "moment": format_fraction(value)})
    else:
        print(format_fraction(value))
    return 0


def _cmd_exchangeability(args) -> int:
    eps = _load_eps(args)
    spec = _load_kappa(args, eps)
    return _print_report(check_eps_exchangeability(eps, spec, args.max_k), args.json)


def _cmd_tneps(args) -> int:
    eps = _load_eps(args)
    group = automorphism_group(eps)
    if args.json:
        _emit_json(group.to_json())
    else:
        print(f"order: {group.order}")
        for g in group.elements:
            print(",".join(str(v) for v in g.images))
    return 0


def _cmd_coxeter_check(args) -> int:
    return _print_suite(check_coxeter_rep(_load_eps(args)), args.json)


def _cmd_word(args) -> int:
    eps = _load_eps(args)
    w1 = _parse_csv_ints(args.word)
    nf1 = word_reduce(w1, eps)
    if args.word2 is None:
        if args.json:
            _emit_json({"word": list(w1), "normal_form": list(nf1)})
        else:
            print(",".join(str(x) for x in nf1) if nf1 else "(empty)")
        return 0
    w2 = _parse_csv_ints(args.word2)
    nf2 = word_reduce(w2, eps)
    equal = nf1 == nf2
    if args.json:
        _emit_json({"word": list(w1), "word2": list(w2),
                    "normal_form": list(nf1), "normal_form2": list(nf2),
                    "equal": equal})
    else:
        print("EQUAL" if equal else "DIFFERENT")
    return 0


def _cmd_rep_check(args) -> int:
    eps = _load_eps(args)
    if args.rep == "projection-pair":
        u = projection_pair_representation()
    elif args.rep.startswith("perm:"):
        images = _parse_csv_ints(args.rep[5:])
        u = perm_representation(Permutation(len(images), images))
    else:
        raise ValueError("--rep must be 'projection-pair' or 'perm:IMAGES'")
    tags = [t.strip() for t in args.relations.split(",") if t.strip()]
    suite = rep_check(u, eps, tags)
    code = _print_suite(suite, args.json)
    if args.witness and not args.json:
        c = entries_commute(u, 1, 1, 3, 3)
        print(f"u[1,1] and u[3,3] {'commute' if c else 'do not commute'}")
    return code


def _cmd_intertwiner_suite(args) -> int:
    eps = _load_eps(args)
    first = intertwiner_identity_suite(eps)
    second = box_calculus_suite(eps)
    if args.json:
        _emit_json({"identities": first.to_json(), "products": second.to_json()})
        return 0 if first.passed and second.passed else 1
    for line in first.lines() + second.lines():
        print(line)
    return 0 if first.passed and second.passed else 1


def _cmd_mpi_run(args) -> int:
    eps = _load_eps(args)
    pi = parse_partition(args.partition)
    dim = args.n if args.n is not None else eps.n
    trace, _ = run_algorithm(pi, eps, Category.parse(args.cat), dim)
    if args.json:
        _emit_json(trace.to_json())
    else:
        print(f"initial: {format_partition(pi) or '(empty)'}")
        for idx, st in enumerate(trace.steps):
            if st.case == 1:
                move = f"remove {format_partition(st.sigma)} at {st.p}..{st.q}"
            else:
                move = f"swap legs {st.l},{st.l + 1}"
            print(f"step {idx}: case {st.case}: {move} -> "
                  f"{format_partition(st.result) or '(empty)'} [{st.points} points]")
        print(f"steps: {len(trace.steps)}")
    return 0


def _cmd_mpi_verify(args) -> int:
    eps = _load_eps(args)
    cat = Category.parse(args.cat)
    dim = args.n if args.n is not None else eps.n
    if args.partition is not None:
        pis = [parse_partition(args.partition)]
    elif args.k is not None:
        pis = enumerate_partitions(args.k, cat)
    else:
        raise ValueError("pass --partition or --k")
    total = 0
    for pi in pis:
        report = verify_oracle(pi, eps, cat, dim, sample=args.sample)
        total += report.checked
        if not report.passed:
            if args.json:
                _emit_json(report.to_json())
            else:
                print(report.line())
            return 1
    if args.json:
        _emit_json({"passed": True, "checked": total, "partitions": len(pis)})
    else:
        print(f"PASS ({len(pis)} partitions, {total} basis vectors)")
    return 0


def _cmd_definetti(args) -> int:
    eps = _load_eps(args)
    spec = _load_kappa(args, eps)
    report = definetti_identity_report(eps, Category.parse(args.cat), spec, args.max_k)
    return _print_report(report, args.json)


def _battery() -> SuiteReport:
    """The bundled example battery: fixed patterns, group orders, the
    representation checks, the identity suites and the indicator oracle."""
    from .epsmat import preset
    results: list[CheckResult] = []

    def check(label: str, ok: bool):
        results.append(CheckResult(label, bool(ok)))

    for name in ("ex-d", "ex-e", "ex-f", "trivial6"):
        eps = preset(name)
        check(f"preset {name} validates", True)
    check("pattern-automorphism order ex-d",
          automorphism_group(preset("ex-d")).order == 8)
    check("pattern-automorphism order ex-e",
          automorphism_group(preset("ex-e")).order == 8)
    check("pattern-automorphism order trivial6",
          automorphism_group(preset("trivial6")).order == 1)
    check("comm(4)/free(4) give the full symmetric group",
          automorphism_group(preset("comm", 4)).order == 24
          and automorphism_group(preset("free", 4)).order == 24)
    for name, eps in [("comm(4)", preset("comm", 4)), ("free(3)", preset("free", 3)),
                      ("ex-d", preset("ex-d")), ("ex-e", preset("ex-e")),
                      ("ex-f", preset("ex-f"))]:
        check(f"reflection representation {name}", check_coxeter_rep(eps).passed)
        check(f"intertwiner identities {name}",
              intertwiner_identity_suite(eps).passed)
        check(f"box products {name}", box_calculus_suite(eps).passed)
    u = projection_pair_representation()
    suite = rep_check(u, preset("ex-d"), ["magic", "Rring_eps"])
    check("projection representation satisfies magic + vanishing exchange",
          suite.passed)
    check("projection representation is noncommutative",
          not entries_commute(u, 1, 1, 3, 3))
    semi = CumulantSpec.semicircle(2)
    check("alternating word, commuting pattern: moment 1",
          moment((1, 2, 1, 2), preset("comm", 2), semi) == 1)
    check("alternating word, free pattern: moment 0",
          moment((1, 2, 1, 2), preset("free", 2), semi) == 0)
    check("single coordinate, fourth moment 2",
          moment((1, 1, 1, 1), preset("free", 2), semi) == 2)
    check("moment invariance under pattern automorphisms (ex-d)",
          check_eps_exchangeability(preset("ex-d"), CumulantSpec.semicircle(4), 3).passed)
    pi = parse_partition("{1,3}{2,4}")
    check("indicator oracle for the crossing pair, n=3 (ex-f)",
          verify_oracle(pi, preset("ex-f"), Category.PAIR, 3).passed)
    big = parse_partition("{1,7,15}{2,5}{3,4}{6,10,16}{8,9}{11,13}{12,14}")
    for name, eps in [("comm(16)", preset("comm", 16)), ("free(16)", preset("free", 16))]:
        report = verify_oracle(big, eps, Category.ALL, 2, sample=200)
        check(f"16-point reduction terminates and matches, {name}", report.passed)
    eps = preset("ex-d")
    check("word problem: squares cancel",
          word_reduce((1, 1), eps) == ())
    check("word problem: commuting cancellation",
          word_reduce((1, 2, 1), eps) == (2,))
    check("word problem: blocked word stays",
          word_reduce((1, 3, 1), eps) == (1, 3, 1))
    return SuiteReport(tuple(results))


def _cmd_paper_examples(args) -> int:
    suite = _battery()
    if args.json:
        _emit_json(suite.to_json()["checks"])
    else:
        _print_suite(suite, False)
        print(f"{sum(c.passed for c in suite.checks)}/{len(suite.checks)} passed")
    return 0 if suite.passed else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, no usage block; subparsers inherit it
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="eps",
        description="exact calculus for partial-commutation symmetries")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(name, fn, eps_args=True, **kw):
        p = sub.add_parser(name, **kw)
        if eps_args:
            _add_eps_args(p)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    add("show-eps", _cmd_show_eps, help="print a pattern")

    p = add("partitions", _cmd_partitions, eps_args=False,
            help="enumerate set partitions")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cat", default="all")
    p.add_argument("--noncrossing", action="store_true")

    p = add("ncset", _cmd_ncset, help="admissible refinements of a word's kernel")
    p.add_argument("--index", required=True, help="comma-separated word, e.g. 1,2,1,2")
    p.add_argument("--cat", default="all")

    p = add("moment", _cmd_moment, help="mixed moment of a word")
    p.add_argument("--index", required=True)
    p.add_argument("--kappa", default="semicircle")
    p.add_argument("--cat", default="all")

    p = add("exchangeability", _cmd_exchangeability,
            help="moment invariance under pattern automorphisms")
    p.add_argument("--kappa", default="semicircle")
    p.add_argument("--max-k", type=int, default=4, dest="max_k")

    add("tneps", _cmd_tneps, help="the pattern's automorphism group")

    add("coxeter-check", _cmd_coxeter_check,
        help="reflection representation: squares and commutations")

    p = add("word", _cmd_word, help="normal form / equality of involution words")
    p.add_argument("--word", required=True)
    p.add_argument("--word2")

    p = add("rep-check", _cmd_rep_check,
            help="relation families on a candidate fundamental matrix")
    p.add_argument("--rep", default="projection-pair",
                   help="'projection-pair' or 'perm:IMAGES'")
    p.add_argument("--relations", default="magic,Rring_eps")
    p.add_argument("--witness", action="store_true",
                   help="also report whether u[1,1] and u[3,3] commute")

    add("intertwiner-suite", _cmd_intertwiner_suite,
        help="identity and product suites for the gated maps")

    mpi = sub.add_parser("mpi", help="indicator-map reduction")
    mpi_sub = mpi.add_subparsers(dest="mpi_verb", required=True)

    p = mpi_sub.add_parser("run", help="print the reduction trace")
    _add_eps_args(p, n_is_dim=True)
    p.add_argument("--partition", required=True, help="e.g. '{1,3}{2,4}'")
    p.add_argument("--cat", default="all")
    p.add_argument("--n", type=int,
                   help="base dimension of the tensor legs (default: pattern size)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_mpi_run)

    p = mpi_sub.add_parser("verify", help="oracle check of the composed map")
    _add_eps_args(p, n_is_dim=True)
    p.add_argument("--partition")
    p.add_argument("--k", type=int, help="verify every family partition of k points")
    p.add_argument("--cat", default="all")
    p.add_argument("--n", type=int,
                   help="base dimension of the tensor legs (default: pattern size)")
    p.add_argument("--sample", type=int, help="sample this many basis vectors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_mpi_verify)

    p = add("definetti", _cmd_definetti,
            help="indicator-weighted cumulant sums reproduce moments")
    p.add_argument("--kappa", default="semicircle")
    p.add_argument("--cat", default="all")
    p.add_argument("--max-k", type=int, default=4, dest="max_k")

    add("paper-examples", _cmd_paper_examples, eps_args=False,
        help="run the bundled example battery")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse up to 3.12 reads "--opt=--" as []
            print(f"error: --{name.replace('_', '-')} needs a value, got '--'",
                  file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
