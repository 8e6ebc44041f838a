"""perfbench: end-to-end and per-layer benchmark of epsym.

    python3 perfbench/run.py --workload moments --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
and the reference oracles from ``tests/oracles.py``.  One process, one
caller, closed loop.  Inputs come from ``--seed``; every output is
checked outside the measured time.  The last stdout line is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it print each metric by name and unit, ``failed_frac``, and the run's
seed, Python version, git sha and processor count.

Both modes pass repeatedly over one fixed set of the seed's first items.
``--trace 0`` measures the end-to-end metrics with no tracing installed,
taking each item's fastest pass.  ``--trace 1`` measures the per-layer
metrics: it alternates untraced and traced passes until ``--seconds``
have passed; self times are medians over the traced passes, work counts
must repeat exactly in every pass, and the spans are written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("moments", "indicator_dense", "indicator_walk", "words")
SETUP_PROBES = 9

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"))

# per-layer metrics; names as in the issue that defined the benchmark
SELF_TIMED = ("partitions.enumerate_partitions", "partitions.nc_eps_set",
              "partitions.in_nc_eps", "partitions.find_noncrossing_subpartition",
              "partitions.find_case2_index", "cumulants.moment",
              "cumulants.kappa_pi", "tensormaps.t_pi", "tensormaps.r_map",
              "tensormaps.identity", "tensormaps.tensor", "tensormaps.matmul",
              "indicator.run_algorithm", "indicator.compose_trace_map",
              "indicator.evaluate_trace", "indicator.verify_oracle",
              "groups.word_reduce")
CALLED = ("partitions.in_nc_eps", "cumulants.moment", "tensormaps.scalar_at",
          "indicator.run_algorithm", "indicator.evaluate_trace",
          "groups.word_reduce")
COUNTED = ("partitions.generated", "partitions.admitted",
           "tensormaps.entries_built", "tensormaps.peak_rows",
           "indicator.steps_case1", "indicator.steps_case2",
           "indicator.materialised", "indicator.walked",
           "groups.letters_in", "groups.letters_cancelled")
MODULES = ("partitions", "cumulants", "tensormaps", "indicator", "groups")
PER_LAYER = (tuple((f"{f}.self_s", "s") for f in SELF_TIMED)
             + tuple((f"{f}.calls", "count") for f in CALLED)
             + tuple((c, "count") for c in COUNTED)
             + (("partitions.admit_ratio", "ratio"),)
             + tuple((f"{m}.self_s", "s") for m in MODULES)
             + (("epsmat.self_s", "s"), ("trace.overhead_frac", "ratio")))


def attempt(workload, call, args):
    """Time one call; returns (seconds, digest), digest None on an exception."""
    clock = time.perf_counter
    t0 = clock()
    try:
        out = call(args)
    except Exception:
        elapsed = clock() - t0
        traceback.print_exc(file=sys.stderr)
        return elapsed, None
    elapsed = clock() - t0
    try:
        return elapsed, workload.digest(out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return elapsed, None


def failed_positions(workload, done) -> list[int]:
    """Positions of the items whose call raised or whose output fails the
    reference check."""
    failed = []
    for pos, (item, digest) in enumerate(done):
        try:
            ok = digest is not None and workload.check(item, digest)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed.append(pos)
            if len(failed) <= 3:
                print(f"perfbench: check failed on item {item!r}", file=sys.stderr)
    return failed


def count_failures(workload, done) -> int:
    return len(failed_positions(workload, done))


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten items beyond it:
    (value, percentile, items beyond), or the maximum when there are
    fewer than eleven items."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def setup_seconds(name: str) -> float:
    """Set-up time measured inside a fresh interpreter (setup_probe.py)."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def timed_run(cls, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """Passes over one fixed set of items until ``seconds`` have passed;
    each item's time is the fastest of its passes.

    The host these figures were first taken on is shared, and a neighbour
    slows every instruction by up to 2x for seconds at a time.  An item's
    fastest pass is its time when nothing else slowed it, and the passes
    are short enough that every item meets a quiet moment in some pass.
    The outputs of the first pass are checked against the references,
    outside the measured time; every later pass must give the same
    outputs.  Peak memory is read after the first pass, before the
    references build their tables.  The ``setup_s`` probes run between
    passes, spread evenly over the run, since a probe's time follows the
    host's load at the moment it runs.
    """
    from tracing import assert_untraced

    workload = cls()
    workload.call(workload.prepare(workload.warmup))
    assert_untraced()
    items = list(islice(workload.items(seed), workload.pass_items))
    best = [float("inf")] * len(items)
    setups: list[float] = []
    first: list | None = None
    bad: set[int] = set()
    failed = npass = 0
    measured = checking = 0.0
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    while first is None or clock() < deadline:
        while (len(setups) < SETUP_PROBES
               and clock() >= start + len(setups) * seconds / SETUP_PROBES):
            setups.append(setup_seconds(cls.name))
        digests = []
        for pos, item in enumerate(items):
            elapsed, digest = attempt(workload, workload.call, workload.prepare(item))
            measured += elapsed
            best[pos] = min(best[pos], elapsed)
            digests.append(digest)
        if first is None:
            rss = peak_rss_mb()
            t0 = clock()
            first = digests
            bad = set(failed_positions(workload, list(zip(items, digests))))
            checking = clock() - t0
        failed += sum(1 for pos, digest in enumerate(digests)
                      if pos in bad or digest != first[pos])
        npass += 1
    assert_untraced()
    setups += [setup_seconds(cls.name) for _ in range(SETUP_PROBES - len(setups))]
    tail_s, tail_pct, beyond = tail(best)
    metrics = {"setup_s": statistics.median(setups),
               "items_per_s": len(best) / sum(best),
               "item_p50_ms": statistics.median(best) * 1e3,
               "item_tail_ms": tail_s * 1e3,
               "peak_rss_mb": rss}
    notes = {"setup_s": f"median of {SETUP_PROBES} fresh interpreters",
             "items_per_s": f"{len(items)} items, each its fastest of {npass} "
                            f"passes; all passes {npass * len(items) / measured:.4g}/s",
             "item_tail_ms": f"p{tail_pct:.2f}, {beyond} of {len(best)} items beyond",
             "peak_rss_mb": f"after the first pass; its outputs checked in "
                            f"{checking:.1f} s"}
    return metrics, npass * len(items), failed, notes


def traced_run(cls, seed: int, seconds: float, header: str):
    from tracing import Recorder, assert_untraced

    rec = Recorder()
    rec.install()
    rec.current = -1  # the fixture build is the set-up pseudo-item
    try:
        workload = cls()
    finally:
        rec.current = None
        rec.uninstall()
    workload.call(workload.prepare(workload.warmup))
    items = list(islice(workload.items(seed), workload.pass_items))
    size = len(items)
    item_call = rec.wrap("item", workload.call)
    untraced_walls, traced_walls, pass_counts = [], [], []
    done = []
    reference_digests = None
    repeat_failures = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    npass = 0
    while npass < 2 or clock() < deadline:
        assert_untraced()
        wall, digests = 0.0, []
        for item in items:
            elapsed, digest = attempt(workload, workload.call, workload.prepare(item))
            wall += elapsed
            digests.append(digest)
        untraced_walls.append(wall)
        rec.install()
        try:
            wall, traced_digests = 0.0, []
            for pos, item in enumerate(items):
                args = workload.prepare(item)
                elapsed, digest = attempt(
                    workload, lambda a: rec.record(npass * size + pos, item_call, a), args)
                wall += elapsed
                traced_digests.append(digest)
        finally:
            rec.uninstall()
        traced_walls.append(wall)
        pass_counts.append(rec.take_counts())
        if reference_digests is None:
            reference_digests = digests
            done = list(zip(items, digests))
        for pos, (a, b) in enumerate(zip(digests, traced_digests)):
            if a != reference_digests[pos] or b != reference_digests[pos]:
                repeat_failures += 1
        npass += 1
    assert_untraced()

    failed = count_failures(workload, done) + repeat_failures
    # a pass whose work counts differ from the first did not repeat its work
    unrepeated = sum(1 for c in pass_counts if c != pass_counts[0])
    if unrepeated:
        print(f"perfbench: work counts of {unrepeated} passes differ from the "
              "first pass's", file=sys.stderr)
    failed += unrepeated * size

    summary = rec.summarise(lambda item: item // size if item >= 0 else -1)
    passes = [summary.get(p, {}) for p in range(npass)]
    metrics: dict[str, float] = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = statistics.median(
            s.get(name, (0.0, 0))[0] for s in passes)
    for name in CALLED:
        metrics[f"{name}.calls"] = passes[0].get(name, (0.0, 0))[1]
    for name in COUNTED:
        metrics[name] = pass_counts[0].get(name, 0)
    generated = metrics["partitions.generated"]
    metrics["partitions.admit_ratio"] = (
        metrics["partitions.admitted"] / generated if generated else 0.0)
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = statistics.median(
            sum(v[0] for k, v in s.items() if k.startswith(mod + "."))
            for s in passes)
    metrics["epsmat.self_s"] = sum(
        v[0] for k, v in summary.get(-1, {}).items() if k.startswith("epsmat."))
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(untraced_walls) - 1)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{cls.name}-seed{seed}.tsv.gz"
    rec.write(spans, header)
    print(f"# {npass} passes of the first {size} items, untraced then traced; "
          "self times are medians over traced passes, calls and counts are "
          f"one pass's; spans in {spans.relative_to(ROOT)}")
    notes = {"epsmat.self_s": "once, building the workload's fixtures"}
    return metrics, 2 * npass * size, failed, notes


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    needed = (ROOT / "src" / "epsym" / "__init__.py", ROOT / "tests" / "oracles.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "git_sha": git_sha(), "nproc": os.cpu_count()}
    header = json.dumps(meta)
    print(f"# perfbench {header}")
    cls = WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, failed, notes = traced_run(cls, args.seed, args.seconds,
                                                       header)
        units = PER_LAYER
    else:
        metrics, attempted, failed, notes = timed_run(cls, args.seed, args.seconds)
        units = END_TO_END
    for name, unit in units:
        print(f"{name:48s} {metrics[name]!r:>24} {unit:6s} {notes.get(name, '')}")
    print(f"{'failed_frac':48s} {failed / attempted!r:>24} {'':6s} "
          f"{failed} of {attempted} items")
    result = {"correct": failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
