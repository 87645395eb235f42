//! `rebalance bench` — the telemetry-overhead gate.
//!
//! Times the warm batched nine-predictor sweep over pre-validated
//! in-memory snapshots (so the timed region is purely the delivery
//! spine and the tools) in interleaved collection-off/on pairs whose
//! sides each run for at least [`MIN_PASS`], and records the median and
//! upper confidence bound of the paired overhead plus the per-stage
//! span breakdown from the enabled runs. The bench *fails* if the upper
//! bound exceeds [`TELEMETRY_OVERHEAD_BUDGET_PCT`], which bounds
//! disabled-mode overhead too (disabled spans are strictly cheaper: one
//! atomic load, no clock read).
//!
//! End-to-end and per-layer timings of every command come from the
//! repository benchmark (`perfbench/`), not from here.
//!
//! A passing run writes `BENCH_replay.json` — into `--json DIR` when
//! given, else the current directory.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rebalance_experiments::util::{f2, TextTable};
use rebalance_frontend::predictor::{DirectionPredictor, PredictorSim};
use rebalance_frontend::PredictorChoice;
use rebalance_telemetry::{self as telemetry, SpanNode};
use rebalance_trace::{snapshot, Snapshot, ToolSet, BATCH_CAPACITY};
use serde::Serialize;

use crate::args;

/// Workloads measured when no selection is given.
const DEFAULT_ROSTER: [&str; 6] = ["CG", "FT", "MG", "gcc", "CoMD", "swim"];

/// Hard ceiling on the upper confidence bound of the telemetry
/// group's enabled-mode overhead; the bench errors beyond it.
const TELEMETRY_OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// Minimum timed wall time per side of one telemetry pair: shorter
/// passes let scheduler noise swamp a 2% effect.
const MIN_PASS: Duration = Duration::from_millis(100);

/// Interleaved collection-off/on pairs the telemetry group times.
const TELEMETRY_PAIRS: usize = 21;

/// One-sided confidence of the telemetry group's upper bound.
const TELEMETRY_CONFIDENCE: f64 = 0.95;

/// The whole dump, `BENCH_replay.json`.
#[derive(Debug, Serialize)]
struct BenchJson {
    host: HostJson,
    scale: String,
    batch_capacity: usize,
    workloads: Vec<String>,
    total_instructions: u64,
    /// Telemetry on/off timing plus the per-stage span breakdown.
    telemetry: TelemetryJson,
}

/// Where the numbers came from.
#[derive(Debug, Serialize)]
struct HostJson {
    cpu: String,
    logical_cores: usize,
    os: String,
    arch: String,
}

/// The telemetry group: the warm batched nine-predictor sweep timed
/// in interleaved collection-off/on pairs, and where the enabled
/// runs' time went, stage by stage.
#[derive(Debug, Serialize)]
struct TelemetryJson {
    /// Off/on pairs timed.
    pairs: usize,
    /// Fewest sweeps per side of any pair (each side runs until it has
    /// summed [`MIN_PASS`]).
    sweeps_per_pass: u32,
    /// Median seconds per sweep, collection off.
    disabled_secs: f64,
    /// Median seconds per sweep, collection on.
    enabled_secs: f64,
    /// Median over pairs of each pair's overhead percentage (see
    /// `pair_overheads_pct`); negative values are measurement noise.
    overhead_pct: f64,
    /// Distribution-free upper confidence bound on that median, at
    /// `confidence`. Must stay within
    /// [`TELEMETRY_OVERHEAD_BUDGET_PCT`].
    overhead_ucb_pct: f64,
    /// One-sided confidence of `overhead_ucb_pct`.
    confidence: f64,
    /// Every pair's overhead: the median over its adjacent off/on runs
    /// of `(enabled/disabled - 1) * 100`, in run order.
    pair_overheads_pct: Vec<f64>,
    /// Every span path recorded by the enabled runs, depth-first.
    breakdown: Vec<BreakdownRow>,
}

/// One span path of the telemetry breakdown.
#[derive(Debug, Serialize)]
struct BreakdownRow {
    /// Dot-joined path from the root, e.g. `decode.batch.tools`.
    span: String,
    /// Inclusive milliseconds across all passes.
    total_ms: f64,
    /// Inclusive minus children: this stage's own code.
    self_ms: f64,
    /// Completed spans at this path.
    count: u64,
}

/// Flattens a span tree into dot-joined-path rows, depth-first.
fn flatten_spans(node: &SpanNode, prefix: &str, out: &mut Vec<BreakdownRow>) {
    for (name, child) in &node.children {
        let span = if prefix.is_empty() {
            name.clone()
        } else {
            format!("{prefix}.{name}")
        };
        out.push(BreakdownRow {
            total_ms: child.total_ns as f64 / 1e6,
            self_ms: child.self_ns() as f64 / 1e6,
            count: child.count,
            span: span.clone(),
        });
        flatten_spans(child, &span, out);
    }
}

/// First `model name` from `/proc/cpuinfo`, or a placeholder off Linux.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host() -> HostJson {
    HostJson {
        cpu: cpu_model(),
        logical_cores: std::thread::available_parallelism().map_or(1, usize::from),
        os: std::env::consts::OS.to_owned(),
        arch: std::env::consts::ARCH.to_owned(),
    }
}

/// One interleaved collection-off/on pair: timed runs of `routine`
/// alternating sides (the side that goes first alternates with
/// `pair`), each over a fresh input from the untimed `setup(on)`, which
/// also switches collection for its side, until both sides have summed
/// at least [`MIN_PASS`]. Runs go in off/on twos, so both sides hold the
/// same count however the host speed drifts. Returns
/// the pair's overhead in percent — the median of `on/off - 1` over
/// adjacent runs, which sit milliseconds apart, so host speed drift
/// cancels — plus every run's seconds per side.
fn telemetry_pair<T>(
    pair: usize,
    setup: &mut impl FnMut(bool) -> T,
    routine: &mut impl FnMut(&mut T),
) -> (f64, [Vec<f64>; 2]) {
    let mut runs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    while runs
        .iter()
        .any(|side| side.iter().sum::<f64>() < MIN_PASS.as_secs_f64())
    {
        for on in [pair % 2 == 1, pair.is_multiple_of(2)] {
            let mut input = setup(on);
            let start = Instant::now();
            routine(&mut input);
            runs[usize::from(on)].push(start.elapsed().as_secs_f64());
        }
    }
    let [off, on] = &runs;
    let ratios: Vec<f64> = on.iter().zip(off).map(|(on, off)| on / off).collect();
    ((median(&ratios) - 1.0) * 100.0, runs)
}

/// `P(X <= k)` for `X ~ Binomial(n, 1/2)`.
fn binomial_half_cdf(n: usize, k: usize) -> f64 {
    let mut term = 0.5f64.powi(n as i32); // P(X = 0)
    let mut cdf = term;
    for i in 1..=k.min(n) {
        term *= (n - i + 1) as f64 / i as f64;
        cdf += term;
    }
    cdf
}

/// Distribution-free upper confidence bound on the median of `samples`:
/// the smallest order statistic `x_(r)` with
/// `P(Binomial(n, 1/2) <= r - 1) >= confidence`, since the median
/// exceeds `x_(r)` only if at most `r - 1` samples fall below it. Falls
/// back to the maximum when `n` is too small for the confidence.
fn median_upper_bound(samples: &[f64], confidence: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (1..=n)
        .find(|&r| binomial_half_cdf(n, r - 1) >= confidence)
        .unwrap_or(n);
    sorted[rank - 1]
}

/// The median of `samples` (mean of the middle two for even counts).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Runs the telemetry gate and, when it passes, writes
/// `BENCH_replay.json`.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = args::parse(argv)?;
    args::forbid(&[
        (parsed.force, "--force"),
        (parsed.model.is_some(), "--model"),
        // Snapshots are encoded in memory; the on-disk cache never
        // participates.
        (parsed.cache_dir.is_some(), "--cache"),
        (parsed.no_cache, "--no-cache"),
    ])?;
    args::forbid(&args::sampling_flags(&parsed))?;
    args::configure_metrics(&parsed);

    let workloads = if parsed.positional.is_empty() && !parsed.all && parsed.suite.is_none() {
        let names: Vec<String> = DEFAULT_ROSTER.iter().map(|s| (*s).to_owned()).collect();
        args::resolve_workloads(&names, false, None)?
    } else {
        args::resolve_workloads(&parsed.positional, parsed.all, parsed.suite)?
    };

    // Synthesize + encode once; parse (framing, checksum) once. Every
    // timed pass below replays identical pre-validated snapshots.
    let mut names = Vec::new();
    let mut encoded = Vec::new();
    for w in &workloads {
        let trace = w.trace(parsed.scale)?;
        let (bytes, _info) = snapshot::snapshot_bytes(&trace, 0).map_err(|e| e.to_string())?;
        names.push(w.name().to_owned());
        encoded.push(bytes);
    }
    let snaps: Vec<Snapshot<'_>> = encoded
        .iter()
        .map(|b| Snapshot::parse(b).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let insts: u64 = snaps.iter().map(|s| s.info().summary.instructions).sum();
    if insts == 0 {
        return Err("selection replays zero instructions".into());
    }

    let configs = PredictorChoice::figure5_set();
    let fresh_sims = || -> Vec<ToolSet<PredictorSim<Box<dyn DirectionPredictor>>>> {
        snaps
            .iter()
            .map(|_| ToolSet::from_tools(PredictorChoice::build_sims(&configs)))
            .collect()
    };

    // Telemetry overhead: the warm batched sweep in interleaved
    // collection-off/on pairs (see `telemetry_pair`), after one untimed
    // warmup; each side of every pair runs for at least `MIN_PASS`,
    // however the host speed drifts within the pair. The gate is the upper
    // confidence bound on the median pair overhead, so a noisy host
    // widens the bound instead of flipping the verdict at random. The
    // enabled runs also feed the per-stage breakdown below.
    let was_enabled = telemetry::enabled();
    let mut setup = |on| {
        telemetry::set_enabled(on);
        fresh_sims()
    };
    let mut routine = |sims: &mut Vec<_>| {
        for (snap, set) in snaps.iter().zip(sims) {
            snap.replay(set).expect("validated snapshot replays");
        }
    };
    routine(&mut setup(false));
    let mut sweeps_per_pass = u32::MAX;
    let mut overheads = Vec::with_capacity(TELEMETRY_PAIRS);
    let (mut disabled, mut enabled) = (Vec::new(), Vec::new());
    for pair in 0..TELEMETRY_PAIRS {
        let (overhead, [off, on]) = telemetry_pair(pair, &mut setup, &mut routine);
        sweeps_per_pass = sweeps_per_pass.min(off.len() as u32);
        overheads.push(overhead);
        disabled.extend(off);
        enabled.extend(on);
    }
    telemetry::set_enabled(true);
    let mut breakdown = Vec::new();
    flatten_spans(&telemetry::snapshot().spans, "", &mut breakdown);
    telemetry::set_enabled(was_enabled);
    let overhead_pct = median(&overheads);
    let overhead_ucb_pct = median_upper_bound(&overheads, TELEMETRY_CONFIDENCE);
    let (disabled_secs, enabled_secs) = (median(&disabled), median(&enabled));
    if overhead_ucb_pct > TELEMETRY_OVERHEAD_BUDGET_PCT {
        return Err(format!(
            "telemetry overhead upper bound {overhead_ucb_pct:.2}% (median {overhead_pct:.2}%, \
             {TELEMETRY_PAIRS} pairs) exceeds the {TELEMETRY_OVERHEAD_BUDGET_PCT}% budget \
             (disabled {disabled_secs:.4}s vs enabled {enabled_secs:.4}s per sweep; \
             per-pair overheads {overheads:.2?}%)"
        ));
    }
    let telemetry_group = TelemetryJson {
        pairs: TELEMETRY_PAIRS,
        sweeps_per_pass,
        disabled_secs,
        enabled_secs,
        overhead_pct,
        overhead_ucb_pct,
        confidence: TELEMETRY_CONFIDENCE,
        pair_overheads_pct: overheads,
        breakdown,
    };

    let json = BenchJson {
        host: host(),
        scale: parsed.scale.to_string(),
        batch_capacity: BATCH_CAPACITY,
        workloads: names,
        total_instructions: insts,
        telemetry: telemetry_group,
    };
    let dir = parsed.json_dir.as_deref().unwrap_or(".");
    crate::write_json(dir, "BENCH_replay", &json)?;

    let mut t = TextTable::new(vec!["telemetry", "Melem/s", "vs disabled"]);
    t.row(vec![
        "disabled".to_owned(),
        f2(insts as f64 / json.telemetry.disabled_secs / 1e6),
        "baseline".to_owned(),
    ]);
    t.row(vec![
        "enabled".to_owned(),
        f2(insts as f64 / json.telemetry.enabled_secs / 1e6),
        format!(
            "{:+.2}% overhead (<= {:+.2}%)",
            json.telemetry.overhead_pct, json.telemetry.overhead_ucb_pct
        ),
    ]);
    crate::print_ignoring_pipe(&format!(
        "telemetry overhead gate ({} events over {} workload(s), scale {}, batch {})\n{}wrote {}/BENCH_replay.json\n",
        insts,
        json.workloads.len(),
        json.scale,
        json.batch_capacity,
        t.render(),
        dir,
    ));
    crate::metrics::emit(&parsed)?;
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_flags_are_rejected_before_any_work() {
        for flag in ["--sample", "--sample-k"] {
            let argv = [flag.to_owned(), "4".to_owned()];
            let err = run(&argv).expect_err("sampling flags are not supported");
            assert_eq!(err, format!("{flag} is not supported by this subcommand"));
        }
    }

    #[test]
    fn pair_sides_reach_min_pass_when_the_host_speeds_up() {
        // The first runs are slow, the rest ten times faster: a run
        // count fixed from the slow runs would leave both sides short.
        let mut runs = 0u32;
        let mut setup = |_| ();
        let mut routine = |_: &mut ()| {
            runs += 1;
            let ms = if runs <= 4 { 20 } else { 2 };
            std::thread::sleep(Duration::from_millis(ms));
        };
        for pair in 0..2 {
            let (_, [off, on]) = telemetry_pair(pair, &mut setup, &mut routine);
            assert_eq!(off.len(), on.len(), "pair {pair}: runs pair up");
            for side in [&off, &on] {
                let total: f64 = side.iter().sum();
                assert!(
                    total >= MIN_PASS.as_secs_f64(),
                    "pair {pair}: a side ran {total:.3}s, under MIN_PASS"
                );
            }
        }
    }

    #[test]
    fn binomial_half_cdf_matches_closed_forms() {
        assert_eq!(binomial_half_cdf(1, 0), 0.5);
        assert_eq!(binomial_half_cdf(2, 1), 0.75);
        assert!((binomial_half_cdf(11, 11) - 1.0).abs() < 1e-12);
        // P(Binomial(11, 1/2) <= 8) = 1981 / 2048.
        assert!((binomial_half_cdf(11, 8) - 1981.0 / 2048.0).abs() < 1e-12);
    }

    #[test]
    fn median_upper_bound_picks_the_confidence_order_statistic() {
        // 11 pairs at 95%: P(X <= 7) = 0.887 falls short, P(X <= 8) =
        // 0.967 clears it, so the bound is the 9th smallest sample.
        let samples: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(median_upper_bound(&samples, 0.95), 9.0);
        assert_eq!(median(&samples), 6.0);
        // Two outliers above the bound do not move it.
        let mut noisy = samples.clone();
        noisy[0] = 1e9;
        noisy[1] = 1e9;
        assert_eq!(median_upper_bound(&noisy, 0.95), 9.0);
        // Too few samples for the confidence: fall back to the maximum.
        assert_eq!(median_upper_bound(&[1.0, 3.0, 2.0], 0.95), 3.0);
        assert_eq!(median(&[1.0, 3.0, 2.0, 4.0]), 2.5);
    }
}
