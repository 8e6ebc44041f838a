"""Self-test of the benchmark itself (not of epsym).

    python3 perfbench/selftest.py

Checks that every workload passes its output check at a tiny size, that
a result corrupted inside the test is counted as failed, that the words
reference agrees with the library's reducer, that the self time
arithmetic is right on synthetic nested spans, that the tracer rebinds
every alias and restores it, that work counts repeat exactly for the same
seed, and that the metric names agree with BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import unittest
from itertools import islice
from unittest import mock

from workloads import ROOT, WORKLOADS, _is_normal_form  # first: puts src/ on the path

import run
import tracing
from epsym import cumulants, groups, indicator, partitions, tensormaps
from epsym.report import CheckReport
from epsym.tensormaps import TensorMap

TINY = 4


def tiny_items(cls, seed=7):
    return list(islice(cls().items(seed), TINY))


def failures(workload, items) -> int:
    done = [(item, run.attempt(workload, workload.call, workload.prepare(item))[1])
            for item in items]
    with contextlib.redirect_stderr(io.StringIO()):
        return run.count_failures(workload, done)


class WorkloadChecks(unittest.TestCase):

    def test_every_workload_passes_at_tiny_size(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(failures(cls(), tiny_items(cls)), 0)

    def test_corrupted_results_count_as_failed(self):
        moment, verify = cumulants.moment, indicator.verify_oracle
        evaluate = indicator.evaluate_trace
        seen = []

        def flipped_once(trace, i):
            seen.append(i)
            return 1 - evaluate(trace, i) if len(seen) == 1 else evaluate(trace, i)

        stubs = {
            "moments": (cumulants, "moment", lambda *a: moment(*a) + 1),
            "indicator_dense": (indicator, "verify_oracle", lambda *a: CheckReport(
                True, verify(*a).checked - 1)),
            "indicator_walk": (indicator, "evaluate_trace", flipped_once),
            "words": (groups, "word_reduce", lambda w, eps: tuple(w) + (1, 1)),
        }
        for name, (module, attr, stub) in stubs.items():
            with self.subTest(workload=name):
                cls = WORKLOADS[name]
                items = tiny_items(cls)
                with mock.patch.object(module, attr, stub):
                    bad = failures(cls(), items)
                # walk: only the first vector of the first item is corrupted
                self.assertEqual(bad, 1 if name == "indicator_walk" else TINY)

    def test_words_check_catches_letters_dropped_under_comm(self):
        # comm(5) maps every generator to the identity in the representation
        cls = WORKLOADS["words"]
        comm = cls.PATTERNS.index(("comm", 5))
        items = [it for it in islice(cls().items(7), 200) if it[1] == comm][:TINY]
        self.assertEqual(len(items), TINY)
        reduce = groups.word_reduce
        for stub in (lambda w, eps: (), lambda w, eps: reduce(w, eps)[1:]):
            with mock.patch.object(groups, "word_reduce", stub):
                self.assertEqual(failures(cls(), items), TINY)

    def test_exception_counts_as_attempted_and_failed(self):
        cls = WORKLOADS["moments"]
        with mock.patch.object(cumulants, "moment", side_effect=ValueError("stub")), \
                contextlib.redirect_stderr(io.StringIO()):
            elapsed, digest = run.attempt(cls(), cls.call, cls().prepare(tiny_items(cls)[0]))
        self.assertIsNone(digest)
        self.assertGreaterEqual(elapsed, 0.0)

    def test_normal_form_reference_agrees_with_the_reducer(self):
        rng = random.Random(0)
        for eps in WORKLOADS["words"]().patterns:
            for length in range(7):
                for _ in range(100):
                    word = tuple(rng.randint(1, eps.n) for _ in range(length))
                    self.assertEqual(_is_normal_form(word, eps),
                                     groups.word_reduce(word, eps) == word, word)

    def test_tail_has_ten_items_beyond(self):
        value, pct, beyond = run.tail([float(v) for v in range(100, 0, -1)])
        self.assertEqual((value, pct, beyond), (90.0, 90.0, 10))
        self.assertEqual(run.tail([3.0, 1.0])[0], 1.0)


class Tracing(unittest.TestCase):

    def test_self_time_on_nested_spans(self):
        # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
        parent = [-1, 0, 1, 0]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        self.assertEqual(tracing.self_durations(parent, start, end),
                         [3.0, 2.0, 1.0, 4.0])
        rec = tracing.Recorder()
        for name, par, s, e, item in zip(["root", "a", "g", "b"], parent, start,
                                          end, [0, 0, 0, 0]):
            rec.name.append(rec.name_id(name))
            rec.parent.append(par)
            rec.start.append(s)
            rec.end.append(e)
            rec.item.append(item)
        self.assertEqual(rec.summarise(lambda item: item),
                         {0: {"root": [3.0, 1], "a": [2.0, 1], "g": [1.0, 1],
                              "b": [4.0, 1]}})

    def test_install_rebinds_every_alias_and_restores(self):
        originals = (partitions.nc_eps_set, tensormaps.t_pi,
                     TensorMap.__dict__["identity"], TensorMap.__matmul__)
        rec = tracing.Recorder()
        rec.install()
        try:
            self.assertIs(cumulants.nc_eps_set, partitions.nc_eps_set)
            self.assertIs(indicator.t_pi, tensormaps.t_pi)
            self.assertIs(indicator.in_nc_eps, partitions.in_nc_eps)
            for fn in (partitions.nc_eps_set, tensormaps.t_pi,
                       TensorMap.identity.__func__, TensorMap.__matmul__):
                self.assertTrue(hasattr(fn, tracing.MARK))
            with self.assertRaises(RuntimeError):
                tracing.assert_untraced()
        finally:
            rec.uninstall()
        self.assertEqual((partitions.nc_eps_set, tensormaps.t_pi,
                          TensorMap.__dict__["identity"], TensorMap.__matmul__),
                         originals)
        self.assertIs(cumulants.nc_eps_set, partitions.nc_eps_set)
        tracing.assert_untraced()

    def test_counts_repeat_for_the_same_seed(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                first, second = (traced_counts(cls, seed=11) for _ in range(2))
                self.assertEqual(first, second)
                self.assertTrue(first)

    def test_counts_read_from_return_values(self):
        counts = traced_counts(WORKLOADS["words"], seed=5)
        self.assertEqual(counts["groups.letters_in"],
                         sum(len(w) for w, _ in tiny_items(WORKLOADS["words"], 5)))
        counts = traced_counts(WORKLOADS["indicator_walk"], seed=5)
        self.assertEqual(counts["indicator.walked"], TINY)
        self.assertNotIn("indicator.materialised", counts)


def traced_counts(cls, seed):
    workload = cls()
    rec = tracing.Recorder()
    call = rec.wrap("item", workload.call)
    rec.install()
    try:
        for pos, item in enumerate(tiny_items(cls, seed)):
            rec.record(pos, call, workload.prepare(item))
    finally:
        rec.uninstall()
    return rec.take_counts()


class Contract(unittest.TestCase):

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        # indicator_walk runs by name but is not among the driver's workloads
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [n for n in run.WORKLOAD_NAMES if n != "indicator_walk"])
        self.assertEqual(sorted(WORKLOADS), sorted(run.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_timed_run_prints_every_end_to_end_metric(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "words", "--seed", "3",
                             "--seconds", "0.1", "--trace", "0"])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], WORKLOADS["words"].pass_items)
        self.assertEqual(list(result["metrics"]), [n for n, _ in run.END_TO_END])
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_prints_every_per_layer_metric(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "words", "--seed", "3",
                             "--seconds", "0.1", "--trace", "1"])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]), [n for n, _ in run.PER_LAYER])
        self.assertGreater(result["metrics"]["groups.word_reduce.self_s"]["value"], 0)
        self.assertEqual(result["metrics"]["tensormaps.matmul.self_s"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
