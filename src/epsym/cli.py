"""Command-line front end.  One verb per library capability.

:func:`main` loads the pattern of every verb that takes ``--preset`` or
``--eps-file`` and passes it to the verb with the parsed arguments.
Each verb returns its exit code, a builder for its JSON and its text
lines; only :func:`main` prints one of the two, so a form is built only
when it is printed.  Exit codes: 0 success / verification passed,
1 verification failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

from .cumulants import CumulantSpec, moment
from .epsmat import (EpsilonMatrix, Permutation, format_eps_text, parse_eps_text,
                     preset)
from .groups import (automorphism_group, check_coxeter_rep,
                     check_eps_exchangeability, entries_commute,
                     perm_representation, projection_pair_representation,
                     rep_check, word_reduce)
from .indicator import (check_sample, definetti_identity_report, run_algorithm,
                        verify_oracle)
from .partitions import (Category, enumerate_partitions, format_partition,
                         nc_eps_set, parse_partition)
from .report import CheckResult, SuiteReport
from .tensormaps import box_calculus_suite, intertwiner_identity_suite


def _load_eps(args) -> EpsilonMatrix:
    # in the mpi verbs --n is the base dimension and --size the pattern's
    size = getattr(args, "size", args.n)
    if args.eps_file:
        if size is not None or args.m is not None:
            raise ValueError("a pattern file takes no size options")
        with open(args.eps_file) as fh:
            return parse_eps_text(fh.read())
    name = args.preset
    if name in ("comm", "free", "block") and size is None:
        size = args.n  # an mpi verb's pattern size defaults to --n
    if name in ("comm", "free") and size is None:
        raise ValueError(f"preset {name} needs a size (--n or --size)")
    if name == "block" and (size is None or args.m is None):
        raise ValueError("preset block needs a first size (--n or --size) and --m")
    # preset's own arity check refuses the sizes a pattern does not take
    return preset(name, *(v for v in (size, args.m) if v is not None))


def _parse_csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(t.strip()) for t in text.split(","))


def _load_kappa(args, eps: EpsilonMatrix) -> CumulantSpec:
    if args.kappa == "semicircle":
        return CumulantSpec.semicircle(eps.n)
    if args.kappa.startswith("file:"):
        with open(args.kappa[5:]) as fh:
            return CumulantSpec.from_json(json.load(fh))
    raise ValueError("--kappa must be 'semicircle' or 'file:PATH'")


def _report(report):
    """A CheckReport or SuiteReport as a verb's result; exit code 1 unless it passed."""
    return 0 if report.passed else 1, report.to_json, report.lines()


def _cmd_show_eps(args, eps):
    return 0, eps.to_json, format_eps_text(eps).splitlines()


def _partitions(parts):
    return 0, lambda: [p.to_json() for p in parts], \
        chain(map(format_partition, parts), (f"total: {len(parts)}",))


def _cmd_partitions(args, _):
    cat = Category.parse(args.cat)
    return _partitions(enumerate_partitions(args.k, cat, noncrossing_only=args.noncrossing))


def _cmd_ncset(args, eps):
    i = _parse_csv_ints(args.index)
    return _partitions(nc_eps_set(i, eps, Category.parse(args.cat)))


def _cmd_moment(args, eps):
    spec = _load_kappa(args, eps)
    i = _parse_csv_ints(args.index)
    value = moment(i, eps, spec, Category.parse(args.cat))
    return 0, lambda: {"index": list(i), "moment": str(value)}, (str(value),)


def _cmd_exchangeability(args, eps):
    spec = _load_kappa(args, eps)
    return _report(check_eps_exchangeability(eps, spec, args.max_k))


def _cmd_tneps(args, eps):
    group = automorphism_group(eps)
    return 0, group.to_json, chain((f"order: {group.order}",),
                                   (",".join(map(str, g.images)) for g in group.elements))


def _cmd_coxeter_check(args, eps):
    return _report(check_coxeter_rep(eps))


def _cmd_word(args, eps):
    w1 = _parse_csv_ints(args.word)
    nf1 = word_reduce(w1, eps)
    if args.word2 is None:
        return 0, lambda: {"word": list(w1), "normal_form": list(nf1)}, \
            (",".join(map(str, nf1)) if nf1 else "(empty)",)
    w2 = _parse_csv_ints(args.word2)
    nf2 = word_reduce(w2, eps)
    equal = nf1 == nf2
    return 0, lambda: {"word": list(w1), "word2": list(w2), "normal_form": list(nf1),
                       "normal_form2": list(nf2), "equal": equal}, \
        ("EQUAL" if equal else "DIFFERENT",)


def _cmd_rep_check(args, eps):
    if args.rep == "projection-pair":
        u = projection_pair_representation()
    elif args.rep.startswith("perm:"):
        images = _parse_csv_ints(args.rep[5:])
        u = perm_representation(Permutation(len(images), images))
    else:
        raise ValueError("--rep must be 'projection-pair' or 'perm:IMAGES'")
    tags = [t.strip() for t in args.relations.split(",") if t.strip()]
    code, as_json, lines = _report(rep_check(u, eps, tags))
    if args.witness:
        c = entries_commute(u, 1, 1, 3, 3)
        lines.append(f"u[1,1] and u[3,3] {'commute' if c else 'do not commute'}")
    return code, as_json, lines


def _cmd_intertwiner_suite(args, eps):
    first, second = intertwiner_identity_suite(eps), box_calculus_suite(eps)
    code, _, lines = _report(SuiteReport(first.checks + second.checks))
    return code, lambda: {"identities": first.to_json(), "products": second.to_json()}, lines


def _trace_lines(pi, trace):
    yield f"initial: {format_partition(pi) or '(empty)'}"
    for idx, st in enumerate(trace.steps):
        move = (f"remove {format_partition(st.sigma)} at {st.p}..{st.q}" if st.case == 1
                else f"swap legs {st.l},{st.l + 1}")
        yield (f"step {idx}: case {st.case}: {move} -> "
               f"{format_partition(st.result) or '(empty)'} [{st.result.k} points]")
    yield f"steps: {len(trace.steps)}"


def _cmd_mpi_run(args, eps):
    pi = parse_partition(args.partition)
    dim = args.n if args.n is not None else eps.n
    trace, _ = run_algorithm(pi, eps, Category.parse(args.cat), dim)
    return 0, trace.to_json, _trace_lines(pi, trace)


def _cmd_mpi_verify(args, eps):
    cat = Category.parse(args.cat)
    dim = args.n if args.n is not None else eps.n
    check_sample(args.sample)
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
            return _report(report)
    return 0, lambda: {"passed": True, "checked": total, "partitions": len(pis)}, \
        (f"PASS ({len(pis)} partitions, {total} basis vectors)",)


def _cmd_definetti(args, eps):
    spec = _load_kappa(args, eps)
    return _report(definetti_identity_report(eps, Category.parse(args.cat), spec,
                                             args.max_k))


def _order(*pattern) -> int:
    return automorphism_group(preset(*pattern)).order


# The bundled example battery as (label, check) rows, run in order: fixed
# patterns, group orders, three suites on each of five patterns, the
# representation checks, moments, the indicator oracle and the word problem.
_PAPER_EXAMPLES = (
    *((f"preset {name} validates", lambda name=name: preset(name) is not None)
      for name in ("ex-d", "ex-e", "ex-f", "trivial6")),
    ("pattern-automorphism order ex-d", lambda: _order("ex-d") == 8),
    ("pattern-automorphism order ex-e", lambda: _order("ex-e") == 8),
    ("pattern-automorphism order trivial6", lambda: _order("trivial6") == 1),
    ("comm(4)/free(4) give the full symmetric group",
     lambda: _order("comm", 4) == 24 and _order("free", 4) == 24),
    *((f"{label} {name}", lambda suite=suite, args=args: suite(preset(*args)).passed)
      for name, args in (("comm(4)", ("comm", 4)), ("free(3)", ("free", 3)),
                         ("ex-d", ("ex-d",)), ("ex-e", ("ex-e",)), ("ex-f", ("ex-f",)))
      for label, suite in (("reflection representation", check_coxeter_rep),
                           ("intertwiner identities", intertwiner_identity_suite),
                           ("box products", box_calculus_suite))),
    ("projection representation satisfies magic + vanishing exchange",
     lambda: rep_check(projection_pair_representation(), preset("ex-d"),
                       ["magic", "Rring_eps"]).passed),
    ("projection representation is noncommutative",
     lambda: not entries_commute(projection_pair_representation(), 1, 1, 3, 3)),
    ("alternating word, commuting pattern: moment 1",
     lambda: moment((1, 2, 1, 2), preset("comm", 2), CumulantSpec.semicircle(2)) == 1),
    ("alternating word, free pattern: moment 0",
     lambda: moment((1, 2, 1, 2), preset("free", 2), CumulantSpec.semicircle(2)) == 0),
    ("single coordinate, fourth moment 2",
     lambda: moment((1, 1, 1, 1), preset("free", 2), CumulantSpec.semicircle(2)) == 2),
    ("moment invariance under pattern automorphisms (ex-d)",
     lambda: check_eps_exchangeability(preset("ex-d"), CumulantSpec.semicircle(4),
                                       3).passed),
    ("indicator oracle for the crossing pair, n=3 (ex-f)",
     lambda: verify_oracle(parse_partition("{1,3}{2,4}"), preset("ex-f"),
                           Category.PAIR, 3).passed),
    *((f"16-point reduction terminates and matches, {name}(16)",
       lambda name=name: verify_oracle(
           parse_partition("{1,7,15}{2,5}{3,4}{6,10,16}{8,9}{11,13}{12,14}"),
           preset(name, 16), Category.ALL, 2, sample=200).passed)
      for name in ("comm", "free")),
    ("word problem: squares cancel", lambda: word_reduce((1, 1), preset("ex-d")) == ()),
    ("word problem: commuting cancellation",
     lambda: word_reduce((1, 2, 1), preset("ex-d")) == (2,)),
    ("word problem: blocked word stays",
     lambda: word_reduce((1, 3, 1), preset("ex-d")) == (1, 3, 1)),
)


def _cmd_paper_examples(args, _):
    suite = SuiteReport(tuple(CheckResult(label, bool(check()))
                              for label, check in _PAPER_EXAMPLES))
    code, _, lines = _report(suite)
    return code, lambda: suite.to_json()["checks"], \
        lines + [f"{sum(c.passed for c in suite.checks)}/{len(suite.checks)} passed"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, no usage block; subparsers inherit it
        self.exit(2, f"error: {message}\n")


# Options that several verbs share, each declared once.  A verb lists its
# options in --help order, each a name from this table or an _opt(...).
_SHARED = {
    "--json": {"action": "store_true", "help": "machine-readable output"},
    "--cat": {"default": "all"},
    "--kappa": {"default": "semicircle"},
    "--max-k": {"type": int, "default": 4, "dest": "max_k"},
    # the mpi verbs' base dimension; a pattern's own size is then --size
    "--n": {"type": int,
            "help": "base dimension of the tensor legs (default: pattern size)"},
}


def _opt(flag: str, **settings) -> tuple[str, dict]:
    """A verb's own option, or a shared one with some settings replaced."""
    return flag, settings


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="eps",
        description="exact calculus for partial-commutation symmetries")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(name, fn, *options, under=sub, eps_args=True, **kw):
        p = under.add_parser(name, **kw)
        if eps_args:  # under mpi, --n is the base dimension (see _SHARED)
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--preset", help="named pattern (comm, free, block, ex-d, "
                                            "ex-e, ex-f, trivial6, ...)")
            g.add_argument("--eps-file", help="path to a pattern in the text format")
            size, note = ("--n", "") if under is sub else ("--size", " (defaults to --n)")
            p.add_argument(size, type=int,
                           help=f"size for comm/free, first size for block{note}")
            p.add_argument("--m", type=int, help="second size for the block preset")
        for option in options:
            flag, own = (option, {}) if isinstance(option, str) else option
            p.add_argument(flag, **{**_SHARED.get(flag, {}), **own})
        p.set_defaults(fn=fn)

    add("show-eps", _cmd_show_eps, "--json", help="print a pattern")
    add("partitions", _cmd_partitions, "--json", _opt("--k", type=int, required=True),
        "--cat", _opt("--noncrossing", action="store_true"), eps_args=False,
        help="enumerate set partitions")
    add("ncset", _cmd_ncset, "--json",
        _opt("--index", required=True, help="comma-separated word, e.g. 1,2,1,2"),
        "--cat", help="admissible refinements of a word's kernel")
    add("moment", _cmd_moment, "--json", _opt("--index", required=True), "--kappa",
        "--cat", help="mixed moment of a word")
    add("exchangeability", _cmd_exchangeability, "--json", "--kappa", "--max-k",
        help="moment invariance under pattern automorphisms")
    add("tneps", _cmd_tneps, "--json", help="the pattern's automorphism group")
    add("coxeter-check", _cmd_coxeter_check, "--json",
        help="reflection representation: squares and commutations")
    add("word", _cmd_word, "--json", _opt("--word", required=True), _opt("--word2"),
        help="normal form / equality of involution words")
    add("rep-check", _cmd_rep_check, "--json",
        _opt("--rep", default="projection-pair",
             help="'projection-pair' or 'perm:IMAGES'"),
        _opt("--relations", default="magic,Rring_eps"),
        _opt("--witness", action="store_true",
             help="also report whether u[1,1] and u[3,3] commute"),
        help="relation families on a candidate fundamental matrix")
    add("intertwiner-suite", _cmd_intertwiner_suite, "--json",
        help="identity and product suites for the gated maps")

    mpi = sub.add_parser("mpi", help="indicator-map reduction")
    mpi_sub = mpi.add_subparsers(dest="mpi_verb", required=True)
    plain_json = _opt("--json", help=None)
    add("run", _cmd_mpi_run, _opt("--partition", required=True, help="e.g. '{1,3}{2,4}'"),
        "--cat", "--n", plain_json, under=mpi_sub, help="print the reduction trace")
    add("verify", _cmd_mpi_verify, _opt("--partition"),
        _opt("--k", type=int, help="verify every family partition of k points"),
        "--cat", "--n", _opt("--sample", type=int, help="sample this many basis vectors"),
        plain_json, under=mpi_sub, help="oracle check of the composed map")

    add("definetti", _cmd_definetti, "--json", "--kappa", "--cat", "--max-k",
        help="indicator-weighted cumulant sums reproduce moments")
    add("paper-examples", _cmd_paper_examples, "--json", eps_args=False,
        help="run the bundled example battery")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse up to 3.12 reads "--opt=--" as []
            print(f"error: --{name.replace('_', '-')} needs a value, got '--'",
                  file=sys.stderr)
            return 2
    try:  # a verb gets the pattern loaded here; only this prints
        code, as_json, lines = args.fn(args, _load_eps(args) if "preset" in args else None)
        if args.json:
            print(json.dumps(as_json(), indent=2, sort_keys=True))
        else:
            sys.stdout.writelines(f"{line}\n" for line in lines)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
