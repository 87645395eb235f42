//! The benchmark's traced pipeline.
//!
//! Runs one workload's pipeline through the workspace crates' public
//! functions, recording an in-memory span (name, start, end, parent)
//! around each call and per-tool `on_batch` time through a wrapper this
//! file owns. Everything is written out as one JSON document at the end;
//! `perfbench/run.py` turns it into per-layer metrics.
//!
//! ```text
//! perfbench-tracer roster
//! perfbench-tracer setup --workloads A,B --scale S --cache EMPTY_DIR --out FILE
//! perfbench-tracer pass WORKLOAD --workloads A,B --scale S --cache WARM_DIR --json DIR --out FILE
//! ```
//!
//! `pass` workloads: `sweep-sampled`, `paper`.
//! The result files it writes into `--json DIR` carry the same rows as
//! the matching `rebalance` command's `--json` output.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rebalance_coresim::{simulate_floorplans_cached, CmpSim, CoreModel};
use rebalance_experiments::{
    ablations, caches, characterization, cmp, detail, driver, fetchsim, predictors, sampling, util,
};
use rebalance_fetchsim::FetchSim;
use rebalance_frontend::{CoreKind, PredictorChoice};
use rebalance_mcpat::{CmpFloorplan, CoreEstimate};
use rebalance_pintools::{
    BasicBlockTool, BbvTool, BranchBiasTool, BranchMixTool, DirectionTool, FootprintTool,
};
use rebalance_trace::{
    EventBatch, Executor, Fingerprinter, MultiTool, NullTool, Pintool, SamplePlan, SamplingConfig,
    Section, Snapshot, SnapshotWriter, TraceCache, TraceEvent,
};
use rebalance_workloads::{Scale, Workload};
use serde::{Serialize, Value};

/// The sampling flags of the `sweep-sampled` workload
/// (`--sample 160 --sample-k 8`).
const SAMPLE_INTERVALS: usize = 160;
const SAMPLE_K: usize = 8;

// ---------------------------------------------------------------- spans

/// One closed span; `parent` indexes into the same list.
struct SpanRecord {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Default)]
struct SpanLog {
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
static LOG: Mutex<SpanLog> = Mutex::new(SpanLog {
    spans: Vec::new(),
    open: Vec::new(),
});

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Closes its span on drop. Spans are opened and closed on the main
/// thread only, so the log is a properly nested forest.
struct SpanGuard(usize);

fn span(name: &str) -> SpanGuard {
    let mut log = LOG.lock().expect("span log");
    let parent = log.open.last().copied();
    let id = log.spans.len();
    log.spans.push(SpanRecord {
        name: name.to_owned(),
        start_ns: now_ns(),
        end_ns: 0,
        parent,
    });
    log.open.push(id);
    SpanGuard(id)
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let mut log = LOG.lock().expect("span log");
        log.spans[self.0].end_ns = now_ns();
        let popped = log.open.pop();
        debug_assert_eq!(popped, Some(self.0));
    }
}

fn spans_value() -> Value {
    let log = LOG.lock().expect("span log");
    Value::Seq(
        log.spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                ])
            })
            .collect(),
    )
}

// ------------------------------------------------------- timed wrapper

/// Accumulated `on_batch` nanoseconds of one tool label, shared by every
/// instance of that label across sweep items and executor threads.
type Ns = Arc<AtomicU64>;

/// Forwards the whole `Pintool` surface to `inner`, adding `on_batch`
/// wall time to `ns`.
struct Probe<T> {
    inner: T,
    ns: Ns,
}

impl<T> Probe<T> {
    fn new(inner: T, ns: &Ns) -> Self {
        Probe {
            inner,
            ns: Arc::clone(ns),
        }
    }
}

impl<T: Pintool> Pintool for Probe<T> {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.inner.on_inst(ev);
    }

    fn on_section_start(&mut self, section: Section) {
        self.inner.on_section_start(section);
    }

    fn on_batch(&mut self, batch: &EventBatch) {
        let start = Instant::now();
        self.inner.on_batch(batch);
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn on_sample_weight(&mut self, weight: u64) {
        self.inner.on_sample_weight(weight);
    }

    fn on_sample_gap(&mut self) {
        self.inner.on_sample_gap();
    }

    fn supports_sampled_replay(&self) -> bool {
        self.inner.supports_sampled_replay()
    }

    fn wants_event_lanes(&self) -> bool {
        self.inner.wants_event_lanes()
    }
}

// -------------------------------------------------------------- output

/// A prebuilt value tree, serializable as is.
struct Doc(Value);

impl Serialize for Doc {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Metrics the traced run reports beside its spans.
#[derive(Default)]
struct Counters(BTreeMap<String, f64>);

impl Counters {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    fn add_ms(&mut self, name: &str, ns: u64) {
        *self.0.entry(name.to_owned()).or_insert(0.0) += ns as f64 / 1e6;
    }

    fn value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                .collect(),
        )
    }
}

fn write_json(dir: &Path, name: &str, value: &impl Serialize) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let text = serde_json::to_string_pretty(value).map_err(|e| format!("{name}: {e}"))?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Metric-name form of a tool label (`L-tage-small` stays as is; any
/// character outside `[A-Za-z0-9_.-]` becomes `_`).
fn metric_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// User+system CPU seconds of this process so far, from
/// `/proc/self/stat` (clock ticks at the Linux USER_HZ of 100).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

// ----------------------------------------------------------- arguments

struct Args {
    positional: Vec<String>,
    workloads: Vec<Workload>,
    scale: Scale,
    cache: Option<PathBuf>,
    json: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        workloads: Vec::new(),
        scale: Scale::Smoke,
        cache: None,
        json: None,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workloads" => {
                for name in value()?.split(',').filter(|n| !n.is_empty()) {
                    args.workloads.push(
                        rebalance_workloads::find(name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
            }
            "--scale" => {
                let v = value()?;
                args.scale =
                    driver::parse_scale(&v).ok_or_else(|| format!("invalid scale `{v}`"))?;
            }
            "--cache" => args.cache = Some(value()?.into()),
            "--json" => args.json = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            other => args.positional.push(other.to_owned()),
        }
    }
    Ok(args)
}

fn required<'a, T>(value: &'a Option<T>, flag: &str) -> Result<&'a T, String> {
    value.as_ref().ok_or_else(|| format!("{flag} is required"))
}

fn main() -> ExitCode {
    ORIGIN.get_or_init(Instant::now);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "roster" => roster(),
            "setup" => parse_args(rest).and_then(|a| setup(&a)),
            "pass" => parse_args(rest).and_then(|a| pass(&a)),
            other => Err(format!("unknown command `{other}`")),
        },
        None => Err("usage: perfbench-tracer roster|setup|pass ...".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-tracer: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the registered roster as `[{"name", "suite"}]`.
fn roster() -> Result<(), String> {
    let rows: Vec<Value> = rebalance_workloads::all()
        .iter()
        .map(|w| {
            Value::Map(vec![
                ("name".into(), Value::Str(w.name().to_owned())),
                ("suite".into(), w.suite().to_value()),
            ])
        })
        .collect();
    println!(
        "{}",
        serde_json::to_string(&Doc(Value::Seq(rows))).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn emit(args: &Args, counters: &Counters) -> Result<(), String> {
    let doc = Value::Map(vec![
        ("spans".into(), spans_value()),
        ("counters".into(), counters.value()),
    ]);
    let text = serde_json::to_string(&Doc(doc)).map_err(|e| e.to_string())?;
    let out = required(&args.out, "--out")?;
    std::fs::write(out, text).map_err(|e| format!("cannot write {}: {e}", out.display()))
}

// --------------------------------------------------------------- setup

/// The write path `rebalance trace record` takes, one layer at a time:
/// synthesis, interpretation, snapshot encoding, and the cache's own
/// record-and-commit.
fn setup(args: &Args) -> Result<(), String> {
    let cache = TraceCache::new(required(&args.cache, "--cache")?).map_err(|e| e.to_string())?;
    let mut counters = Counters::default();
    let (mut interp_ns, mut encode_ns, mut record_ns) = (0u64, 0u64, 0u64);
    let mut events = 0u64;
    for w in &args.workloads {
        let trace = {
            let _span = span("workloads.synth");
            w.trace(args.scale)?
        };
        let start = now_ns();
        {
            let _span = span("trace.interp");
            trace.replay(&mut NullTool);
        }
        let key = w.trace_key(args.scale);
        let encoded = now_ns();
        {
            let _span = span("trace.encode");
            let mut writer = SnapshotWriter::new(Vec::new(), key.seed(), key.fingerprint());
            trace.replay(&mut writer);
            writer.finish().map_err(|e| e.to_string())?;
        }
        let recorded = now_ns();
        {
            let _span = span("trace.cache.record");
            let info = cache.record(&key, &trace).map_err(|e| e.to_string())?;
            events += info.summary.instructions;
        }
        interp_ns += encoded - start;
        encode_ns += recorded - encoded;
        record_ns += now_ns() - recorded;
    }
    // Encoding replays the trace through the interpreter as well, so the
    // encoder's share is its span minus the interpreter's; the cache's
    // record streams the same encoding into its file and commits it, so
    // the write's share is the record span minus the encoding span.
    counters.set(
        "trace.encode_ms",
        (encode_ns as f64 - interp_ns as f64) / 1e6,
    );
    counters.set(
        "trace.cache.write_ms",
        (record_ns as f64 - encode_ns as f64) / 1e6,
    );
    let written = cache.stats().bytes_written;
    counters.set(
        "trace.bytes_per_event",
        written as f64 / events.max(1) as f64,
    );
    counters.set("trace.cache.write_mb", written as f64 / 1e6);
    emit(args, &counters)
}

// ---------------------------------------------------------------- pass

fn sampling_config() -> SamplingConfig {
    SamplingConfig::default()
        .with_intervals(SAMPLE_INTERVALS)
        .with_k(SAMPLE_K)
}

fn pass(args: &Args) -> Result<(), String> {
    let workload = args
        .positional
        .first()
        .ok_or("pass needs a workload name")?
        .clone();
    let cache_dir = required(&args.cache, "--cache")?;
    let json_dir = required(&args.json, "--json")?.clone();
    // The experiments crate opens its process-wide cache from this
    // variable on first use, exactly as `rebalance --cache DIR` does.
    std::env::set_var(util::TRACE_CACHE_ENV, cache_dir);
    let cache = util::shared_cache().ok_or("cannot open the trace cache")?;
    let mut counters = Counters::default();
    let sampled = workload == "sweep-sampled";
    let workloads: Vec<Workload> = if workload == "paper" {
        util::roster()
    } else {
        args.workloads.clone()
    };
    if workloads.is_empty() {
        return Err("no workloads selected".into());
    }

    read_and_decode(cache, &workloads, args.scale, sampled, &mut counters)?;

    match workload.as_str() {
        "sweep-sampled" => {
            util::set_sampling(Some(sampling_config()));
            predictor_sweep(&workloads, args.scale, &json_dir, &mut counters)?;
        }
        "paper" => {
            paper(args.scale, &json_dir, &mut counters)?;
            layer_probes(cache, &workloads, args.scale, &mut counters)?;
        }
        other => return Err(format!("unknown workload `{other}`")),
    }

    let stats = cache.stats();
    counters.set("trace.cache.hits", stats.hits as f64);
    counters.set("trace.cache.misses", stats.misses as f64);
    counters.set("trace.cache.generations", stats.generations as f64);
    emit(args, &counters)
}

/// Reads every selected snapshot through the cache and decodes it into
/// a tool that ignores it; with `sampled`, also builds each sampling
/// plan and runs the sampled replay into the null tool.
fn read_and_decode(
    cache: &TraceCache,
    workloads: &[Workload],
    scale: Scale,
    sampled: bool,
    counters: &mut Counters,
) -> Result<(), String> {
    let before = cache.stats();
    let cfg = sampling_config();
    let (mut delivered, mut total) = (0u64, 0u64);
    for w in workloads {
        let key = w.trace_key(scale);
        let bytes = {
            let _span = span("trace.cache.read");
            cache
                .snapshot_bytes(&key, || w.trace(scale))
                .map_err(|e| e.to_string())?
        };
        let snapshot = {
            let _span = span("trace.decode");
            let snapshot = Snapshot::parse(&bytes).map_err(|e| e.to_string())?;
            snapshot.replay(&mut NullTool).map_err(|e| e.to_string())?;
            snapshot
        };
        if sampled {
            let plan = {
                let _span = span("trace.sampling.plan");
                let mut fp = BbvTool::new(cfg.dims);
                SamplePlan::from_snapshot(&snapshot, &mut fp, &cfg).map_err(|e| e.to_string())?
            };
            let replay = {
                let _span = span("trace.sampling.replay");
                snapshot
                    .replay_sampled(&mut NullTool, &plan)
                    .map_err(|e| e.to_string())?
            };
            delivered += replay.delivered_instructions;
            total += replay.summary.instructions;
        }
    }
    if sampled {
        counters.set(
            "trace.sampling.delivered_frac",
            delivered as f64 / total.max(1) as f64,
        );
    }
    counters.set(
        "trace.cache.read_mb",
        cache.stats().since(&before).bytes_read as f64 / 1e6,
    );
    Ok(())
}

/// Records the executor's parallel efficiency (CPU time busy on the
/// phase's items over wall time times executor threads) and the
/// replays-per-trace ratio of one phase spanning `wall_ns`.
fn engine_counters(counters: &mut Counters, cpu_s: f64, wall_ns: u64, replays: u64, traces: usize) {
    let threads = Executor::new().threads() as f64;
    counters.set(
        "trace.executor.parallel_eff",
        cpu_s / (wall_ns.max(1) as f64 / 1e9 * threads),
    );
    counters.set(
        "trace.sweep.replays_per_trace",
        replays as f64 / traces.max(1) as f64,
    );
}

/// The nine-predictor sweep exactly as `rebalance sweep` computes it,
/// every predictor wrapped in a [`Probe`].
fn predictor_sweep(
    workloads: &[Workload],
    scale: Scale,
    json_dir: &Path,
    counters: &mut Counters,
) -> Result<(), String> {
    let configs = PredictorChoice::figure5_set();
    let labels: Vec<String> = configs.iter().map(PredictorChoice::label).collect();
    let ns: Vec<Ns> = labels.iter().map(|_| Ns::default()).collect();
    let replays = util::engine().replays();
    let start = now_ns();
    let cpu = process_cpu_s();
    let outcomes = {
        let _span = span("trace.sweep");
        util::sweep_weighted(workloads.to_vec(), scale, |_| {
            PredictorChoice::build_sims(&configs)
                .into_iter()
                .zip(&ns)
                .map(|(sim, ns)| Probe::new(sim, ns))
                .collect()
        })
    };
    let wall_ns = now_ns() - start;
    engine_counters(
        counters,
        process_cpu_s() - cpu,
        wall_ns,
        util::engine().replays() - replays,
        workloads.len(),
    );
    for (label, ns) in labels.iter().zip(&ns) {
        counters.add_ms(
            &format!("frontend.predictor.{}_ms", metric_label(label)),
            ns.load(Ordering::Relaxed),
        );
    }
    let rows: Vec<Value> = outcomes
        .iter()
        .map(|o| {
            Value::Map(vec![
                ("workload".into(), Value::Str(o.item.name().to_owned())),
                ("suite".into(), o.item.suite().to_value()),
                (
                    "mpki".into(),
                    o.tools
                        .iter()
                        .map(|p| p.inner.report().total().mpki())
                        .collect::<Vec<f64>>()
                        .to_value(),
                ),
            ])
        })
        .collect();
    let doc = Value::Map(vec![
        ("scale".into(), Value::Str(scale.to_string())),
        ("configs".into(), labels.to_value()),
        ("rows".into(), Value::Seq(rows)),
    ]);
    write_json(json_dir, "sweep", &Doc(doc))
}

/// The 16-point FTQ/FDIP grid as `rebalance fetch` computes it, over
/// `workloads`, every `FetchSim` wrapped in one shared [`Probe`] counter.
/// `paper` runs the same grid inside its `fetchsim` regenerator.
fn fetch_grid(workloads: &[Workload], scale: Scale, counters: &mut Counters) {
    let grid = fetchsim::default_grid();
    let ns = Ns::default();
    {
        let _span = span("trace.sweep");
        std::hint::black_box(util::sweep_weighted(workloads.to_vec(), scale, |_| {
            grid.iter()
                .copied()
                .map(|config| Probe::new(FetchSim::new(config), &ns))
                .collect()
        }));
    }
    counters.add_ms("fetchsim.grid_ms", ns.load(Ordering::Relaxed));
    counters.set("fetchsim.points", grid.len() as f64);
}

/// Every exhibit `rebalance paper all` produces, each public regenerator
/// the exhibit driver dispatches to called under its own span, with its
/// JSON dump written as the exhibit driver writes it.
fn paper(scale: Scale, json_dir: &Path, counters: &mut Counters) -> Result<(), String> {
    let cpu_before = process_cpu_s();
    let start = now_ns();
    let total_replays = util::engine().replays();
    let regen = |name: &str, counters: &mut Counters, f: &mut dyn FnMut() -> String| {
        let replays = util::engine().replays();
        let _span = span(&format!("experiments.{name}"));
        // Rendering is part of what the command does; the text itself
        // is not needed.
        std::hint::black_box(f());
        counters.set(
            &format!("experiments.{name}.replays"),
            (util::engine().replays() - replays) as f64,
        );
    };
    let dump = |name: &str, value: Value| write_json(json_dir, name, &Doc(value)).expect("dump");

    regen("characterization", counters, &mut || {
        let s = characterization::run(scale);
        let text = [
            s.fig1.render(),
            s.fig2.render(),
            s.table1.render(),
            s.fig3.render(),
            s.fig4.render(),
        ]
        .concat();
        dump("fig1", s.fig1.to_value());
        dump("fig2", s.fig2.to_value());
        dump("table1", s.table1.to_value());
        dump("fig3", s.fig3.to_value());
        dump("fig4", s.fig4.to_value());
        text
    });
    let mut runs = None;
    regen("run_cmps", counters, &mut || {
        runs = Some(cmp::run_cmps(scale));
        String::new()
    });
    for exhibit in driver::EXHIBITS {
        match exhibit {
            "fig1" | "fig2" | "table1" | "fig3" | "fig4" => {}
            "table2" => regen("table2", counters, &mut || {
                let t = predictors::table2();
                dump("table2", t.to_value());
                t.render()
            }),
            "fig5" => regen("fig5", counters, &mut || {
                let f = predictors::fig5(scale);
                dump("fig5", f.to_value());
                f.render()
            }),
            "fig6" => regen("fig6", counters, &mut || {
                let f = predictors::fig6(scale);
                dump("fig6", f.to_value());
                f.render()
            }),
            "fig7" => regen("fig7", counters, &mut || {
                let f = caches::fig7(scale);
                dump("fig7", f.to_value());
                f.render()
            }),
            "fig8" => regen("fig8", counters, &mut || {
                let f = caches::fig8(scale);
                dump("fig8", f.to_value());
                f.render()
            }),
            "fig9" => regen("fig9", counters, &mut || {
                let f = caches::fig9(scale);
                dump("fig9", f.to_value());
                f.render()
            }),
            "table3" => regen("table3", counters, &mut || {
                let t = cmp::table3();
                dump("table3", t.to_value());
                t.render()
            }),
            "fig10" => regen("fig10_from_runs", counters, &mut || {
                let runs = runs.as_ref().expect("cmp runs");
                let f = cmp::fig10_from_runs(runs);
                dump("fig10", f.to_value());
                dump("fig10_raw", runs.to_value());
                f.render()
            }),
            "fig11" => regen("fig11", counters, &mut || {
                let f = cmp::fig11(scale);
                dump("fig11", f.to_value());
                f.render()
            }),
            "ablations" => regen("ablations", counters, &mut || {
                let all = ablations::run_all(scale);
                dump("ablations", all.to_value());
                all.iter()
                    .map(|a| a.render())
                    .collect::<Vec<_>>()
                    .join("\n")
            }),
            "detail" => regen("detail", counters, &mut || {
                let d = detail::run(scale);
                dump("detail", d.to_value());
                d.render()
            }),
            "kernels" => {
                regen("kernels_characterization", counters, &mut || {
                    let c = characterization::kernels(scale);
                    dump("kernels_characterization", c.to_value());
                    c.render()
                });
                regen("kernels_sweep", counters, &mut || {
                    let p = predictors::kernels_sweep(scale);
                    dump("kernels_predictors", p.to_value());
                    p.render()
                });
            }
            "fetchsim" => regen("fetchsim", counters, &mut || {
                let f = fetchsim::run(scale);
                dump("fetchsim", f.to_value());
                f.render()
            }),
            "sampling" => regen("sampling", counters, &mut || {
                let s = sampling::run(scale);
                dump("sampling", s.to_value());
                s.render()
            }),
            other => return Err(format!("exhibit `{other}` has no traced regenerator")),
        }
    }
    engine_counters(
        counters,
        process_cpu_s() - cpu_before,
        now_ns() - start,
        util::engine().replays() - total_replays,
        util::roster().len(),
    );
    Ok(())
}

/// The layers `paper` reaches only from inside its regenerators, each
/// called directly over the roster: the FTQ/FDIP grid, the six
/// characterization pintools on one shared replay, both paper cores'
/// timing, the Figure 10 CMP simulation, and the McPAT estimates.
fn layer_probes(
    cache: &TraceCache,
    workloads: &[Workload],
    scale: Scale,
    counters: &mut Counters,
) -> Result<(), String> {
    let names = [
        "mix",
        "direction",
        "bias",
        "footprint",
        "basic_block",
        "bbv",
    ];
    fetch_grid(workloads, scale, counters);
    let ns: Vec<Ns> = names.iter().map(|_| Ns::default()).collect();
    let dims = SamplingConfig::default().dims;
    {
        let _span = span("pintools.replay");
        for w in workloads {
            let bytes = cache
                .snapshot_bytes(&w.trace_key(scale), || w.trace(scale))
                .map_err(|e| e.to_string())?;
            let snapshot = Snapshot::parse(&bytes).map_err(|e| e.to_string())?;
            let mut bbv = BbvTool::new(dims);
            bbv.set_interval_insts(
                sampling_config().interval_insts(snapshot.info().summary.instructions),
            );
            let mut mix = Probe::new(BranchMixTool::new(), &ns[0]);
            let mut direction = Probe::new(DirectionTool::new(), &ns[1]);
            let mut bias = Probe::new(BranchBiasTool::new(), &ns[2]);
            let mut footprint = Probe::new(FootprintTool::new(), &ns[3]);
            let mut basic_block = Probe::new(BasicBlockTool::new(), &ns[4]);
            let mut bbv = Probe::new(bbv, &ns[5]);
            let mut tools = MultiTool::new()
                .with(&mut mix)
                .with(&mut direction)
                .with(&mut bias)
                .with(&mut footprint)
                .with(&mut basic_block)
                .with(&mut bbv);
            snapshot.replay(&mut tools).map_err(|e| e.to_string())?;
        }
    }
    for (name, ns) in names.iter().zip(&ns) {
        counters.add_ms(&format!("pintools.{name}_ms"), ns.load(Ordering::Relaxed));
    }
    {
        let _span = span("coresim.measure");
        let models = [
            CoreModel::new(CoreKind::Baseline),
            CoreModel::new(CoreKind::Tailored),
        ];
        for w in workloads {
            CoreModel::measure_many_cached(
                &models,
                cache,
                &w.trace_key(scale),
                || w.trace(scale),
                &w.profile().backend,
            )
            .map_err(|e| e.to_string())?;
        }
    }
    {
        let _span = span("coresim.cmp");
        let sims: Vec<CmpSim> = CmpFloorplan::figure10_set()
            .into_iter()
            .map(CmpSim::new)
            .collect();
        for w in workloads {
            simulate_floorplans_cached(&sims, w, scale, cache)?;
        }
    }
    {
        let _span = span("mcpat.eval");
        let mut area = 0.0;
        for floorplan in CmpFloorplan::figure10_set() {
            area += floorplan.estimate().area_mm2();
        }
        for kind in [CoreKind::Baseline, CoreKind::Tailored] {
            area += CoreEstimate::for_core(kind).area_mm2();
        }
        std::hint::black_box(area);
    }
    Ok(())
}
