#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep-sampled --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout. It builds the `rebalance` CLI and
`perfbench/tracer` with cargo (into $CARGO_TARGET_DIR, default
`.bench_build`), records the workload's traces into a private cache, and
then times warm passes of one `rebalance` command in a closed loop with a
single client: each pass is a fresh process that starts after the
previous one exits. `--trace 1` instead runs the traced pipeline and
reports per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
MIN_PASSES = 5
TRACE_PASSES = 3
TELEMETRY_PAIRS = 5
CHILD_TIMEOUT_S = 120


def log(message):
    print(message, file=sys.stderr, flush=True)


class Pass:
    """One finished child process."""

    def __init__(self, returncode, wall_s, cpu_s, rss_mb, stdout):
        self.returncode = returncode
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.stdout = stdout

    @property
    def ok(self):
        return self.returncode == 0


def run_child(argv, env, stdout_path, timeout=CHILD_TIMEOUT_S):
    """Runs `argv` to completion, timing it and reading its rusage; kills
    it after `timeout` seconds (reported as a failure)."""
    stderr_path = stdout_path + ".err"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        # Reaped here, so Popen must not wait for it again.
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, errors="replace") as fh:
        stdout = fh.read()
    if proc.returncode != 0:
        with open(stderr_path, errors="replace") as fh:
            log("failed (%d): %s\n%s" % (proc.returncode, " ".join(argv), fh.read()[-2000:]))
    return Pass(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        stdout,
    )


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "rebalance-cli"],
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "-q",
            "--manifest-path",
            os.path.join("perfbench", "tracer", "Cargo.toml"),
        ],
    ):
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if proc.returncode != 0:
            raise SystemExit("build failed: %s" % " ".join(cmd))


def provenance(args, scale, selection, passes):
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            return out.stdout.strip().splitlines()[0] if out.returncode == 0 else None
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return None

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "host_cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "revision": (os.path.isdir(".git") and first_line(["git", "rev-parse", "HEAD"]))
        or source_digest(),
        "rustc": first_line(["rustc", "--version"]),
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "selection": selection,
        "passes": passes,
        "trace": args.trace,
    }


def source_digest():
    """Content digest of the sources, for checkouts without git data."""
    paths = ["Cargo.toml", "Cargo.lock"]
    for root in ("crates", "perfbench"):
        for d, dirs, files in os.walk(root):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
            paths.extend(os.path.join(d, f) for f in sorted(files))
    h = hashlib.sha256()
    for path in paths:
        h.update(path.encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()


class Bench:
    def __init__(self, args, bins, work):
        self.args = args
        self.spec = benchlib.WORKLOADS[args.workload]
        self.cli, self.tracer = bins
        self.work = work
        self.tmp = os.path.join(work, "tmp")
        os.makedirs(self.tmp)
        self.env = benchlib.child_env(os.environ, self.tmp)
        self.scale = self.spec["scale"]
        self.counter = 0

    def path(self, name):
        self.counter += 1
        return os.path.join(self.work, "%03d-%s" % (self.counter, name))

    def child(self, argv, name, env=None):
        return run_child(argv, env or self.env, self.path(name + ".out"))

    # --------------------------------------------------------- inputs

    def choose(self):
        p = self.child([self.tracer, "roster"], "roster")
        if not p.ok:
            raise SystemExit("cannot list the roster")
        roster = json.loads(p.stdout)
        if self.spec["roster"]:
            self.selection = [e["name"] for e in roster]
        else:
            self.selection = benchlib.select(roster, self.args.seed)
        self.select_args = ["--workloads", ",".join(self.selection)]

    def record(self, cache):
        return self.child(
            [self.cli, "trace", "record"]
            + self.select_args
            + ["--scale", self.scale, "--cache", cache],
            "record",
        )

    def setup(self, repeats, seconds=0.0):
        """Fills a fresh private cache at least `repeats` times and until
        `seconds` have elapsed; the last cache stays as the warm cache.
        Returns the record wall times."""
        walls = []
        start = time.perf_counter()
        while len(walls) < repeats or time.perf_counter() - start < seconds:
            if walls:
                shutil.rmtree(cache)
            cache = os.path.join(self.work, "cache-%d" % len(walls))
            p = self.record(cache)
            if not p.ok:
                raise SystemExit("trace record failed")
            walls.append(p.wall_s)
        self.cache = cache
        self.instructions = self.count_instructions(cache)
        return walls

    def count_instructions(self, cache):
        """Instructions over every snapshot in `cache`, from the totals
        `rebalance trace info --json` writes."""
        files = sorted(
            os.path.join(cache, f)
            for f in os.listdir(cache)
            if f.endswith("." + benchlib.SNAPSHOT_EXT)
        )
        json_dir = self.path("info-json")
        p = self.child([self.cli, "trace", "info", "--json", json_dir] + files, "info")
        if not p.ok:
            raise SystemExit("trace info failed")
        with open(os.path.join(json_dir, "trace_info.json")) as fh:
            return json.load(fh)["total"]["events"]

    # --------------------------------------------------------- passes

    def command(self, command, cache_args, json_dir):
        if self.spec["roster"]:
            selection = []
        else:
            selection = self.select_args
        return (
            [self.cli]
            + command
            + selection
            + ["--scale", self.scale, "--json", json_dir]
            + cache_args
        )

    def run_pass(self, name, cache_args=None, command=None):
        """One pass of the workload's command (or `command`); returns
        (Pass, results, cache report)."""
        json_dir = self.path(name + "-json")
        cache_args = ["--cache", self.cache] if cache_args is None else cache_args
        p = self.child(self.command(command or self.spec["command"], cache_args, json_dir), name)
        if not p.ok:
            return p, None, None
        try:
            results = benchlib.load_results(json_dir, self.spec["files"])
            if os.path.exists(os.path.join(json_dir, "report.json")):
                with open(os.path.join(json_dir, "report.json")) as fh:
                    report = json.load(fh)["cache"]
            else:
                report = benchlib.cache_report_from_text(p.stdout)
        except (OSError, ValueError, KeyError) as e:
            log("unreadable results of %s: %s" % (name, e))
            return p, None, None
        finally:
            shutil.rmtree(json_dir, ignore_errors=True)
        return p, results, report

    def reference(self):
        """The cold live-replay pass every warm pass must match."""
        p, results, _ = self.run_pass("cold", cache_args=["--no-cache"])
        if results is None:
            raise SystemExit("cold live-replay pass failed")
        self.expected = results
        self.digest_ok = True
        if self.args.seed == benchlib.DEFAULT_SEED:
            ref = load_digests().get(self.args.workload)
            got = benchlib.digest(results)
            if ref != got:
                log("reference digest mismatch: %s != %s" % (got, ref))
                self.digest_ok = False
        return results

    def check(self, p, results, report):
        """Traces this pass failed."""
        if not p.ok or results is None or report is None or benchlib.wrong_path(report):
            return set(self.selection)
        return benchlib.failed_traces(results, self.expected, self.selection)

    def warm_passes(self, seconds, minimum):
        """Closed loop: discards one warm-up pass, then runs passes until
        `seconds` have elapsed and at least `minimum` have run."""
        self.run_pass("warmup")
        passes, failed = [], 0
        start = time.perf_counter()
        while len(passes) < minimum or time.perf_counter() - start < seconds:
            p, results, report = self.run_pass("pass")
            failed += len(self.check(p, results, report))
            passes.append(p)
        return passes, failed

    def mpki_err(self):
        if self.args.workload != "sweep-sampled":
            return 0.0
        # A full replay of the same traces, served by the warm cache.
        _, full_results, _ = self.run_pass("full", command=["sweep"])
        if full_results is None:
            raise SystemExit("full-replay reference pass failed")
        return benchlib.mpki_err_pct(self.expected, full_results)

    # ------------------------------------------------------- traced run

    def telemetry_overhead(self):
        """Interleaved pairs of warm `sweep` passes over the selection with
        and without REBALANCE_METRICS=1; median paired ratio, in percent."""
        on_env = benchlib.child_env(os.environ, self.tmp, metrics=True)
        argv = (
            [self.cli, "sweep"]
            + (["--all"] if self.spec["roster"] else self.select_args)
            + ["--scale", self.scale, "--cache", self.cache]
        )
        ratios = []
        for i in range(TELEMETRY_PAIRS):
            order = [False, True] if i % 2 == 0 else [True, False]
            wall = {}
            for metrics in order:
                p = self.child(argv, "telemetry", env=on_env if metrics else None)
                if not p.ok:
                    raise SystemExit("telemetry pass failed")
                wall[metrics] = p.wall_s
            ratios.append(wall[True] / wall[False])
        return (statistics.median(ratios) - 1.0) * 100.0

    def traced(self):
        """Runs the traced setup and pass; returns the two span documents,
        the traced pass's wall in seconds, and the traces whose traced
        rows differ from the untraced ones."""
        setup_out = self.path("setup.json")
        p = self.child(
            [self.tracer, "setup"]
            + self.select_args
            + ["--scale", self.scale, "--cache", self.path("traced-cache"), "--out", setup_out],
            "traced-setup",
        )
        if not p.ok:
            raise SystemExit("traced setup failed")
        pass_out = self.path("pass.json")
        json_dir = self.path("traced-json")
        p = self.child(
            [self.tracer, "pass", self.args.workload]
            + self.select_args
            + ["--scale", self.scale, "--cache", self.cache, "--json", json_dir, "--out", pass_out],
            "traced-pass",
        )
        if not p.ok:
            raise SystemExit("traced pass failed")
        with open(setup_out) as fh:
            setup_doc = json.load(fh)
        with open(pass_out) as fh:
            pass_doc = json.load(fh)
        for doc in (setup_doc, pass_doc):
            benchlib.check_forest(doc["spans"])
        results = benchlib.load_results(json_dir, self.spec["files"])
        failed = benchlib.failed_traces(results, self.expected, self.selection)
        if failed:
            log("traced rows differ from the untraced rows: %s" % sorted(failed))
        counters = pass_doc["counters"]
        if benchlib.wrong_path(
            {
                "misses": counters["trace.cache.misses"],
                "generations": counters["trace.cache.generations"],
            }
        ):
            failed = set(self.selection)
        return setup_doc, pass_doc, p.wall_s, len(failed)


def load_digests():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_digests.json")
    with open(path) as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(benchlib.WORKLOADS))
    parser.add_argument("--seed", type=int, default=benchlib.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "cli"))):
        log("run from the root of a source checkout (no Cargo.toml / crates/cli here)")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    bins = (
        os.path.join(target, "release", "rebalance"),
        os.path.join(target, "release", "perfbench-tracer"),
    )
    work = os.path.abspath(
        os.path.join(".bench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    )
    os.makedirs(work)
    try:
        return measure(args, Bench(args, bins, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, bench):
    bench.choose()
    traces = len(bench.selection)
    if args.trace == 0:
        setup_walls = bench.setup(SETUP_REPEATS, SETUP_SECONDS)
    else:
        bench.setup(1)
    bench.reference()
    mpki_err = bench.mpki_err()

    if args.trace == 0:
        passes, failed = bench.warm_passes(args.seconds, MIN_PASSES)
        values = benchlib.end_to_end_values(setup_walls, passes, bench.instructions)
        units = dict(benchlib.END_TO_END)
    else:
        passes, failed = bench.warm_passes(0, TRACE_PASSES)
        wall = statistics.median(p.wall_s for p in passes)
        setup_doc, pass_doc, traced_wall, traced_failed = bench.traced()
        failed += traced_failed
        values = benchlib.layer_metrics(setup_doc, pass_doc, traced_wall * 1000.0)
        benchlib.check_attribution(values, traced_wall * 1000.0)
        values["bench.trace_overhead_pct"] = (traced_wall / wall - 1.0) * 100.0
        values["telemetry.overhead_pct"] = bench.telemetry_overhead()
        units = dict(benchlib.PER_LAYER)

    attempted = traces * (len(passes) + args.trace)
    values["error_rate"] = failed / attempted
    values["mpki_err_pct"] = mpki_err
    info = provenance(args, bench.scale, bench.selection, len(passes))
    print("provenance " + json.dumps(info, sort_keys=True))
    shown = dict(units, error_rate="ratio", mpki_err_pct="%")
    for name, unit in shown.items():
        print("%-40s %.6g %s" % (name, values[name], unit))
    for name, samples in (("wall_s", [p.wall_s for p in passes]), ("cpu_s", [p.cpu_s for p in passes])):
        print("%-40s %s" % (name + " per pass", benchlib.distribution(samples)))
    correct = failed == 0 and bench.digest_ok
    print(benchlib.result_line(correct, attempted, failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
