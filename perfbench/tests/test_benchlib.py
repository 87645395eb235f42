"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests

`PERFBENCH_E2E=1` also runs every workload end to end for one second
(builds the workspace first; takes a few minutes).
"""

import argparse
import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import benchlib  # noqa: E402
import run  # noqa: E402


def load_benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def span(name, start, end, parent=None):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent}


def random_forest(rng, depth=3, names=("layer0", "layer1", "layer2", "layer3")):
    """A sequential span forest like the tracer writes: children laid out
    one after another inside their parent, with gaps."""
    spans = []

    def fill(parent, start, end, level):
        t = start
        while level < depth and rng.random() < 0.7:
            a = t + rng.randrange(0, 50)
            b = a + rng.randrange(1, 400)
            if b > end:
                break
            spans.append(span(rng.choice(names), a, b, parent))
            fill(len(spans) - 1, a, b, level + 1)
            t = b

    fill(None, 10, 5000, 0)
    return spans


class MetricNames(unittest.TestCase):
    def test_names_match_the_allowed_alphabet_and_are_unique(self):
        names = [n for n, _ in benchlib.END_TO_END + benchlib.PER_LAYER]
        for name in names:
            self.assertRegex(name, benchlib.METRIC_NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_exactly_the_emitted_metrics(self):
        spec = load_benchmark_json()
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], benchlib.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], benchlib.PER_LAYER
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(benchlib.WORKLOADS))

    def test_every_workload_emits_every_listed_metric(self):
        spec = load_benchmark_json()
        listed = {
            0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]},
        }
        for workload in benchlib.WORKLOADS:
            for trace in (0, 1):
                line = measure(workload, trace)
                self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
                self.assertEqual(set(line["metrics"]), listed[trace], (workload, trace))
                self.assertTrue(line["correct"], (workload, trace))

    def test_layer_metrics_cover_every_per_layer_name(self):
        doc = {"spans": [span("trace.decode", 0, 10)], "counters": {}}
        metrics = benchlib.layer_metrics(doc, doc, 1.0)
        for name, _ in benchlib.PER_LAYER:
            self.assertIn(name, metrics)


class Selection(unittest.TestCase):
    ROSTER = [{"name": "%s%d" % (s, i), "suite": s} for s in "ABC" for i in range(5)]

    def test_a_fixed_share_of_every_suite_in_roster_order(self):
        chosen = benchlib.select(self.ROSTER, 3, fraction=0.5)
        for suite in "ABC":
            self.assertEqual(sum(n.startswith(suite) for n in chosen), 3)
        order = [e["name"] for e in self.ROSTER]
        self.assertEqual(chosen, sorted(chosen, key=order.index))

    def test_seed_decides_the_selection(self):
        self.assertEqual(benchlib.select(self.ROSTER, 5), benchlib.select(self.ROSTER, 5))
        draws = {tuple(benchlib.select(self.ROSTER, seed)) for seed in range(10)}
        self.assertGreater(len(draws), 1)

    def test_children_never_inherit_the_replay_knobs(self):
        base = {k: "1" for k in benchlib.SCRUBBED_ENV}
        base["PATH"] = "/bin"
        env = benchlib.child_env(base, "tmp")
        self.assertEqual(env, {"PATH": "/bin", "TMPDIR": "tmp"})
        self.assertEqual(benchlib.child_env(base, "tmp", metrics=True)["REBALANCE_METRICS"], "1")


class OutputCheck(unittest.TestCase):
    SWEEP = {
        "sweep.json": {
            "scale": "quick",
            "configs": ["a", "b"],
            "rows": [
                {"workload": "CG", "suite": "Npb", "mpki": [6.7375, 2.825]},
                {"workload": "FT", "suite": "Npb", "mpki": [3.5875, 1.3875]},
            ],
        }
    }

    def test_identical_rows_pass(self):
        self.assertEqual(
            benchlib.failed_traces(copy.deepcopy(self.SWEEP), self.SWEEP, ["CG", "FT"]), set()
        )

    def test_a_perturbed_row_fails_its_trace(self):
        got = copy.deepcopy(self.SWEEP)
        got["sweep.json"]["rows"][1]["mpki"][0] += 1e-12
        self.assertEqual(benchlib.failed_traces(got, self.SWEEP, ["CG", "FT"]), {"FT"})

    def test_a_missing_row_fails_every_trace(self):
        got = copy.deepcopy(self.SWEEP)
        del got["sweep.json"]["rows"][0]
        self.assertEqual(benchlib.failed_traces(got, self.SWEEP, ["CG", "FT"]), {"CG", "FT"})

    def test_a_perturbed_exhibit_fails_every_trace(self):
        want = {"fig5.json": {"series": [1.0, 2.0]}, "table3.json": {"rows": [{"key": "x"}]}}
        got = copy.deepcopy(want)
        got["fig5.json"]["series"][1] = 2.5
        self.assertEqual(benchlib.failed_traces(got, want, ["CG", "FT"]), {"CG", "FT"})

    def test_digest_changes_with_any_row(self):
        got = copy.deepcopy(self.SWEEP)
        self.assertEqual(benchlib.digest(got), benchlib.digest(self.SWEEP))
        got["sweep.json"]["rows"][0]["suite"] = "Kernels"
        self.assertNotEqual(benchlib.digest(got), benchlib.digest(self.SWEEP))

    def test_a_pass_that_generates_or_misses_measured_the_wrong_path(self):
        self.assertFalse(benchlib.wrong_path({"hits": 3, "misses": 0, "generations": 0}))
        self.assertTrue(benchlib.wrong_path({"hits": 2, "misses": 1, "generations": 0}))
        self.assertTrue(benchlib.wrong_path({"hits": 3, "misses": 0, "generations": 1}))

    def test_cache_counters_parse_from_the_printed_report(self):
        line = (
            "replays: 306 | generations: 0 | cache: 648 hits / 2 misses (0 generated, "
            "100.0% hit rate, 8.7 MB read, 0.0 MB written) | degraded: 0 rejected"
        )
        self.assertEqual(
            benchlib.cache_report_from_text("table\n" + line + "\n"),
            {"generations": 0, "hits": 648, "misses": 2},
        )
        self.assertIsNone(benchlib.cache_report_from_text("no report"))

    def test_mpki_error_is_the_worst_relative_gap(self):
        sampled = copy.deepcopy(self.SWEEP)
        sampled["sweep.json"]["rows"][0]["mpki"] = [6.7375 * 1.1, 2.825]
        self.assertAlmostEqual(benchlib.mpki_err_pct(sampled, self.SWEEP), 10.0)
        self.assertEqual(benchlib.mpki_err_pct(self.SWEEP, self.SWEEP), 0.0)


class SpanForest(unittest.TestCase):
    def test_children_never_exceed_their_parent(self):
        rng = random.Random(7)
        for _ in range(50):
            benchlib.check_forest(random_forest(rng))
        with self.assertRaises(ValueError):
            benchlib.check_forest([span("a", 0, 10), span("b", 5, 11, 0)])
        with self.assertRaises(ValueError):
            benchlib.check_forest([span("a", 0, 10), span("b", 0, 6, 0), span("c", 5, 9, 0)])

    def test_layer_metrics_plus_unattributed_sum_to_the_wall(self):
        rng = random.Random(11)
        setup_doc = {"spans": [], "counters": {}}
        names = sorted(benchlib.PASS_SPAN_METRICS)
        for _ in range(50):
            pass_doc = {"spans": random_forest(rng, names=names), "counters": {}}
            wall_ms = 6000 / 1e6
            metrics = benchlib.layer_metrics(setup_doc, pass_doc, wall_ms)
            benchlib.check_attribution(metrics, wall_ms)
            for value in benchlib.self_times_ms(pass_doc["spans"]).values():
                self.assertGreaterEqual(value, 0)

    def test_a_span_without_a_metric_leaves_a_gap(self):
        setup_doc = {"spans": [], "counters": {}}
        pass_doc = {
            "spans": [span("trace.decode", 0, 2_000_000), span("stray", 2_000_000, 3_000_000)],
            "counters": {},
        }
        metrics = benchlib.layer_metrics(setup_doc, pass_doc, 5.0)
        with self.assertRaises(ValueError):
            benchlib.check_attribution(metrics, 5.0)

    def test_self_time_subtracts_children(self):
        spans = [span("a", 0, 100), span("b", 10, 30, 0), span("b", 40, 50, 0)]
        self.assertEqual(benchlib.self_times_ms(spans), {"a": 70 / 1e6, "b": 30 / 1e6})


# Span names the tracer writes on each workload's traced pass.
PASS_SPANS = {
    "sweep-sampled": [
        "trace.cache.read",
        "trace.decode",
        "trace.sampling.plan",
        "trace.sampling.replay",
        "trace.sweep",
    ],
    "paper": ["trace.cache.read", "trace.decode"]
    + ["experiments.%s" % name for name in benchlib.REGENERATORS]
    + ["trace.sweep", "pintools.replay", "coresim.measure", "coresim.cmp", "mcpat.eval"],
}
SETUP_SPANS = ["workloads.synth", "trace.interp", "trace.encode", "trace.cache.record"]


def sequential_spans(names, rng):
    spans, t = [], 1000
    for name in names:
        start = t + rng.randrange(0, 10_000)
        t = start + rng.randrange(1, 5_000_000)
        spans.append(span(name, start, t))
    return spans


class FakeBench:
    """Stands in for run.Bench with canned passes and span documents
    shaped like the tracer's, so that run.measure assembles the result
    exactly as it does for a real run."""

    def __init__(self, workload):
        self.workload = workload
        self.scale = benchlib.WORKLOADS[workload]["scale"]
        self.rng = random.Random(workload)
        self.digest_ok = True

    def choose(self):
        self.selection = ["CG", "FT"]

    def setup(self, repeats, seconds=0.0):
        self.instructions = 4_000_000
        return [0.5 + 0.01 * i for i in range(repeats)]

    def reference(self):
        pass

    def mpki_err(self):
        return 0.0

    def warm_passes(self, seconds, minimum):
        return [run.Pass(0, 0.8 + 0.01 * i, 1.5, 20.0, "") for i in range(minimum)], 0

    def traced(self):
        spans = sequential_spans(PASS_SPANS[self.workload], self.rng)
        wall_s = (spans[-1]["end_ns"] + 2_000_000) / 1e9
        setup_doc = {
            "spans": sequential_spans(SETUP_SPANS, self.rng),
            "counters": {"trace.encode_ms": 1.0, "trace.cache.write_ms": 0.5},
        }
        return setup_doc, {"spans": spans, "counters": {}}, wall_s, 0

    def telemetry_overhead(self):
        return 0.5


def measure(workload, trace):
    """The result line run.measure prints for `workload` on a FakeBench."""
    args = argparse.Namespace(workload=workload, seed=1, seconds=0.0, trace=trace)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out):
            run.measure(args, FakeBench(workload))
    finally:
        os.chdir(cwd)
    return json.loads(out.getvalue().strip().splitlines()[-1])


@unittest.skipUnless(os.environ.get("PERFBENCH_E2E") == "1", "set PERFBENCH_E2E=1")
class EndToEnd(unittest.TestCase):
    def run_bench(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=REPO, capture_output=True, text=True, timeout=900,
        )
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_every_workload_emits_every_metric_and_passes_its_check(self):
        for workload in benchlib.WORKLOADS:
            for trace, names in ((0, benchlib.END_TO_END), (1, benchlib.PER_LAYER)):
                result = self.run_bench(workload, trace)
                self.assertTrue(result["correct"], (workload, trace))
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), {n for n, _ in names})


if __name__ == "__main__":
    unittest.main()
