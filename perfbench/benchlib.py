"""Pure helpers of the repository benchmark: workload table, input
selection, output checks, span analysis and metric assembly.

`run.py` drives processes; everything here is side-effect free apart
from reading result files, so `perfbench/tests` can test it directly.
"""

import hashlib
import json
import math
import os
import random
import re
import statistics

DEFAULT_SEED = 1

# Flags of the phase-sampled sweep; perfbench-tracer uses the same pair.
SAMPLE_FLAGS = ["--sample", "160", "--sample-k", "8"]

# File extension of the snapshots in a trace cache directory.
SNAPSHOT_EXT = "rbts"

# Each workload: the `rebalance` command of one warm pass, the scale its
# traces are recorded at, and the result files whose rows are checked.
# `roster` workloads always run all registered workloads; the others run
# a seed-drawn three quarters of every suite.
WORKLOADS = {
    "sweep-sampled": {
        "command": ["sweep"] + SAMPLE_FLAGS,
        "scale": "quick",
        "files": ["sweep.json"],
        "roster": False,
    },
    "paper": {
        "command": ["paper", "all"],
        "scale": "smoke",
        "files": None,  # every exhibit dump
        "roster": True,
    },
}

# Share of each suite a seed draws for the non-roster workloads. Costs
# per trace differ by workload, so a larger share keeps the work of one
# pass closer across seeds.
SELECT_FRACTION = 0.75

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "Minst/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

PREDICTOR_LABELS = [
    "gshare-big",
    "tournament-big",
    "tage-big",
    "gshare-small",
    "tournament-small",
    "tage-small",
    "L-gshare-small",
    "L-tournament-small",
    "L-tage-small",
]
PINTOOLS = ["mix", "direction", "bias", "footprint", "basic_block", "bbv"]
REGENERATORS = [
    "characterization",
    "run_cmps",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table3",
    "fig10_from_runs",
    "fig11",
    "ablations",
    "detail",
    "kernels_characterization",
    "kernels_sweep",
    "fetchsim",
    "sampling",
]

PER_LAYER = (
    [
        ("workloads.synth_ms", "ms"),
        ("trace.interp_ms", "ms"),
        ("trace.encode_ms", "ms"),
        ("trace.bytes_per_event", "B/event"),
        ("trace.cache.write_ms", "ms"),
        ("trace.cache.write_mb", "MB"),
        ("trace.cache.read_ms", "ms"),
        ("trace.cache.read_mb", "MB"),
        ("trace.cache.hits", "count"),
        ("trace.cache.misses", "count"),
        ("trace.cache.generations", "count"),
        ("trace.decode_ms", "ms"),
        ("trace.sweep_ms", "ms"),
    ]
    + [("frontend.predictor.%s_ms" % label, "ms") for label in PREDICTOR_LABELS]
    + [
        ("trace.sampling.plan_ms", "ms"),
        ("trace.sampling.replay_ms", "ms"),
        ("trace.sampling.delivered_frac", "ratio"),
        ("fetchsim.grid_ms", "ms"),
        ("fetchsim.points", "count"),
        ("pintools.replay_ms", "ms"),
    ]
    + [("pintools.%s_ms" % tool, "ms") for tool in PINTOOLS]
    + [
        ("coresim.measure_ms", "ms"),
        ("coresim.cmp_ms", "ms"),
        ("mcpat.eval_ms", "ms"),
    ]
    + [
        item
        for name in REGENERATORS
        for item in (
            ("experiments.%s_ms" % name, "ms"),
            ("experiments.%s.replays" % name, "count"),
        )
    ]
    + [
        ("trace.sweep.replays_per_trace", "ratio"),
        ("trace.executor.parallel_eff", "ratio"),
        ("telemetry.overhead_pct", "%"),
        ("unattributed_ms", "ms"),
        ("bench.trace_overhead_pct", "%"),
        ("error_rate", "ratio"),
        ("mpki_err_pct", "%"),
    ]
)

# Per-layer metrics read from a span's self time; the rest are counters
# the tracer reports or values run.py derives. Every span name the
# traced pass writes maps to a metric, so these metrics plus
# `unattributed_ms` account for the whole traced wall (check_attribution).
SETUP_SPAN_METRICS = {
    "workloads.synth": "workloads.synth_ms",
    "trace.interp": "trace.interp_ms",
}
PASS_SPAN_METRICS = dict(
    [
        ("trace.cache.read", "trace.cache.read_ms"),
        ("trace.decode", "trace.decode_ms"),
        ("trace.sweep", "trace.sweep_ms"),
        ("pintools.replay", "pintools.replay_ms"),
        ("trace.sampling.plan", "trace.sampling.plan_ms"),
        ("trace.sampling.replay", "trace.sampling.replay_ms"),
        ("coresim.measure", "coresim.measure_ms"),
        ("coresim.cmp", "coresim.cmp_ms"),
        ("mcpat.eval", "mcpat.eval_ms"),
    ]
    + [("experiments.%s" % n, "experiments.%s_ms" % n) for n in REGENERATORS]
)

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Environment knobs that change what a pass measures; children never
# inherit them (the telemetry A/B sets REBALANCE_METRICS on purpose).
SCRUBBED_ENV = [
    "REBALANCE_BATCH",
    "REBALANCE_BACKEND",
    "REBALANCE_METRICS",
    "REBALANCE_TRACE_CACHE",
]


def select(roster, seed, fraction=SELECT_FRACTION):
    """Draws `ceil(fraction * n)` workloads from every suite of `roster`
    (a list of {"name", "suite"}), keeping roster order."""
    rng = random.Random(seed)
    suites = []
    for entry in roster:
        if entry["suite"] not in suites:
            suites.append(entry["suite"])
    chosen = set()
    for suite in suites:
        names = [e["name"] for e in roster if e["suite"] == suite]
        chosen.update(rng.sample(names, math.ceil(fraction * len(names))))
    return [e["name"] for e in roster if e["name"] in chosen]


def child_env(base, tmpdir, metrics=False):
    """`base` without the scrubbed knobs, temp files kept in `tmpdir`."""
    env = {k: v for k, v in base.items() if k not in SCRUBBED_ENV}
    env["TMPDIR"] = tmpdir
    if metrics:
        env["REBALANCE_METRICS"] = "1"
    return env


# ------------------------------------------------------------ outputs


def load_results(json_dir, files):
    """The checked result files of one pass as {file name: parsed JSON};
    `files=None` takes every `.json` file except the cache report."""
    if files is None:
        files = sorted(
            f for f in os.listdir(json_dir) if f.endswith(".json") and f != "report.json"
        )
    return {f: _load(os.path.join(json_dir, f)) for f in files}


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def digest(results):
    """Stable digest of a pass's checked results."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _rows_by_workload(results):
    """Per-trace rows when every file is a {"rows": [{"workload"...}]}
    table, else None (exhibit dumps aggregate over traces)."""
    by_workload = {}
    for name, doc in results.items():
        if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
            return None
        for row in doc["rows"]:
            if not isinstance(row, dict) or "workload" not in row:
                return None
            by_workload[(name, row["workload"])] = row
        rest = {k: v for k, v in doc.items() if k != "rows"}
        by_workload[(name, None)] = rest
    return by_workload


def failed_traces(results, reference, traces):
    """The traces whose rows differ from `reference`. A difference that
    cannot be pinned to one trace fails them all."""
    if results == reference:
        return set()
    got, want = _rows_by_workload(results), _rows_by_workload(reference)
    if got is None or want is None or set(got) != set(want):
        return set(traces)
    bad = {key for key in want if got[key] != want[key]}
    if any(workload is None for _, workload in bad):
        return set(traces)
    return {workload for _, workload in bad}


def wrong_path(cache_report):
    """True if a warm pass generated or missed: it did not measure the
    cached read path."""
    return cache_report.get("misses", 0) > 0 or cache_report.get("generations", 0) > 0


_REPORT_LINE = re.compile(
    r"generations: (\d+) \| cache: (\d+) hits / (\d+) misses"
)


def cache_report_from_text(stdout):
    """Cache counters from the report line a command prints last."""
    matches = _REPORT_LINE.findall(stdout)
    if not matches:
        return None
    generations, hits, misses = (int(x) for x in matches[-1])
    return {"generations": generations, "hits": hits, "misses": misses}


def mpki_err_pct(sampled, full):
    """Largest |sampled - full| / full MPKI over every trace and
    predictor config, in percent. A pair whose full MPKI is 0 has no
    relative error and is skipped."""
    full_rows = {r["workload"]: r["mpki"] for r in full["sweep.json"]["rows"]}
    worst = 0.0
    for row in sampled["sweep.json"]["rows"]:
        for s, f in zip(row["mpki"], full_rows[row["workload"]]):
            if f != 0:
                worst = max(worst, abs(s - f) / f * 100.0)
    return worst


# -------------------------------------------------------------- spans


def check_forest(spans):
    """Raises ValueError unless every span lies inside its parent and the
    children of one parent do not overlap (the traced run is sequential,
    so children can never sum to more than their parent)."""
    children = {}
    for i, s in enumerate(spans):
        if s["end_ns"] < s["start_ns"]:
            raise ValueError("span %d (%s) ends before it starts" % (i, s["name"]))
        p = s["parent"]
        if p is not None:
            parent = spans[p]
            if s["start_ns"] < parent["start_ns"] or s["end_ns"] > parent["end_ns"]:
                raise ValueError("span %s exceeds its parent %s" % (s["name"], parent["name"]))
        children.setdefault(p, []).append(s)
    for p, kids in children.items():
        kids = sorted(kids, key=lambda s: s["start_ns"])
        for a, b in zip(kids, kids[1:]):
            if b["start_ns"] < a["end_ns"]:
                raise ValueError("spans %s and %s overlap" % (a["name"], b["name"]))
        if p is not None:
            total = sum(k["end_ns"] - k["start_ns"] for k in kids)
            if total > spans[p]["end_ns"] - spans[p]["start_ns"]:
                raise ValueError("children of %s exceed it" % spans[p]["name"])


def self_times_ms(spans):
    """Self time per span name (its duration minus its children's),
    summed over every span of that name, in ms."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    own_ns = {}
    for s, kids in zip(spans, child_ns):
        own_ns[s["name"]] = own_ns.get(s["name"], 0) + s["end_ns"] - s["start_ns"] - kids
    return {name: ns / 1e6 for name, ns in own_ns.items()}


def top_level_ms(spans):
    return sum(s["end_ns"] - s["start_ns"] for s in spans if s["parent"] is None) / 1e6


def unattributed_ms(spans, wall_ms):
    """Process wall time outside every top-level span: process start,
    argument parsing, output."""
    return wall_ms - top_level_ms(spans)


def layer_metrics(setup_doc, pass_doc, pass_wall_ms):
    """Per-layer metrics of one traced run, every name in PER_LAYER
    present (0 where the layer does not run on this workload) except the
    ones run.py derives from untraced passes."""
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for doc, span_names in ((setup_doc, SETUP_SPAN_METRICS), (pass_doc, PASS_SPAN_METRICS)):
        selfs = self_times_ms(doc["spans"])
        for span_name, metric in span_names.items():
            metrics[metric] = selfs.get(span_name, 0.0)
        for name, value in doc["counters"].items():
            if name in metrics:
                metrics[name] = value
    metrics["unattributed_ms"] = unattributed_ms(pass_doc["spans"], pass_wall_ms)
    return metrics


def check_attribution(metrics, wall_ms, tolerance_ms=1e-3):
    """Raises ValueError unless the pass's span metrics plus
    `unattributed_ms` sum to the traced wall: a span the traced pass
    writes under a name with no metric leaves a gap."""
    attributed = metrics["unattributed_ms"] + sum(
        metrics[name] for name in PASS_SPAN_METRICS.values()
    )
    if abs(attributed - wall_ms) > tolerance_ms:
        raise ValueError(
            "span metrics plus unattributed_ms are %.6f ms, the traced wall %.6f ms"
            % (attributed, wall_ms)
        )


def end_to_end_values(setup_walls, passes, instructions):
    """The end-to-end metrics of one run: medians over its `trace record`
    walls and over its warm passes (objects with wall_s, cpu_s, rss_mb);
    `instructions` is what one pass covers."""
    wall = statistics.median(p.wall_s for p in passes)
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": wall,
        "sim_mips": instructions / wall / 1e6,
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }


def distribution(samples):
    """Sample count, quartiles, and the highest of p90/p95/p99 that has at
    least ten samples above it."""
    n = len(samples)
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    text = "n=%d p25=%.6g p50=%.6g p75=%.6g" % (n, cuts[24], cuts[49], cuts[74])
    tail = [p for p in (90, 95, 99) if n * (100 - p) >= 1000]
    if tail:
        text += " p%d=%.6g" % (tail[-1], cuts[tail[-1] - 1])
    return text


def result_line(correct, attempted, failed, values, units):
    """The benchmark's last output line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": values[name], "unit": units[name]} for name in units
            },
        }
    )
