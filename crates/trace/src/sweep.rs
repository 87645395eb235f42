//! The sweep engine: replay each trace **once**, feed every tool.
//!
//! The naive way to sweep N hardware configurations over a trace is N
//! replays — the cost the HPM-engineering literature warns about when
//! one instruction stream is measured with many counter sets. The
//! engine inverts that: a [`ToolSet`] fans a single replay out to all N
//! tools, and independent `(workload, scale)` items run in parallel on
//! a shared [`Executor`]. Sweep cost drops from
//! `O(tools × replays)` to `O(replays)`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rebalance_telemetry as telemetry;

use crate::by_section::BySection;
use crate::cache::{CacheError, CachedReplay, TraceCache, TraceKey};
use crate::exec::RunSummary;
use crate::executor::Executor;
use crate::observer::Pintool;
use crate::report::Report;
use crate::sampling::{Fingerprinter, SamplePlan, SamplingConfig};
use crate::schedule::SyntheticTrace;
use crate::section::Section;
use crate::snapshot::{self, Snapshot};
use crate::toolset::ToolSet;

/// The result of sweeping one item: the item itself, its tools (now
/// holding their accumulated measurements), and the replay summary.
#[derive(Debug)]
pub struct SweepOutcome<I, T> {
    /// The swept item (typically a workload).
    pub item: I,
    /// The tools after observing the item's full trace, in the order
    /// the tool factory produced them.
    pub tools: Vec<T>,
    /// Interpreter summary of the single shared replay.
    pub summary: RunSummary,
    /// Instructions per section of the replayed stream.
    pub sections: BySection<u64>,
}

/// The result of sampling one item: like [`SweepOutcome`], plus the
/// sampling plan and how many instructions were actually delivered.
#[derive(Debug)]
pub struct SampledOutcome<I, T> {
    /// The swept item (typically a workload).
    pub item: I,
    /// The tools after observing the weighted representative replay.
    pub tools: Vec<T>,
    /// Summary of the **full** decoded stream (sampling skips delivery,
    /// not decoding — see [`Snapshot::replay_sampled`]).
    pub summary: RunSummary,
    /// Instructions per section of the full stream.
    pub sections: BySection<u64>,
    /// Instructions delivered to the tools (representatives only).
    pub delivered_instructions: u64,
    /// The plan the replay followed (shared via the engine's plan
    /// cache).
    pub plan: Arc<SamplePlan>,
}

/// Replays traces once per item through fan-out tool sets, in parallel
/// across items — and is the one place that decides where a replay's
/// events come from.
///
/// An engine is built **live** ([`SweepEngine::new`]: every replay
/// generates its trace and interprets it) or **cached**
/// ([`SweepEngine::with_cache`]: every replay goes through the engine's
/// [`TraceCache`], decoding a snapshot on a hit and recording one on a
/// miss). Callers name each trace by its [`TraceKey`] plus a generator,
/// and never branch on which kind of engine they hold; the event
/// stream the tools observe is bit-identical either way.
///
/// The engine counts every replay it performs ([`SweepEngine::replays`]),
/// which is how tests assert the one-replay-per-item guarantee.
///
/// # Examples
///
/// Sweep two cache geometries over one synthetic trace in a single
/// pass (a `Vec` of tools of one concrete type forms the fan-out):
///
/// ```
/// use rebalance_trace::{
///     CondBehavior, IterCount, Phase, Pintool, ProgramBuilder, Schedule, Section,
///     SweepEngine, SyntheticTrace, Terminator, TraceEvent, TraceKey,
/// };
///
/// #[derive(Default)]
/// struct Counter(u64);
/// impl Pintool for Counter {
///     fn on_inst(&mut self, _ev: &TraceEvent) {
///         self.0 += 1;
///     }
/// }
///
/// let mut b = ProgramBuilder::new();
/// let region = b.region("hot");
/// let body = b.reserve_block();
/// let exit = b.reserve_block();
/// b.define_block(body, region, 3, Terminator::Cond {
///     taken: body,
///     fall: exit,
///     behavior: CondBehavior::Loop { count: IterCount::Fixed(10) },
/// });
/// b.define_block(exit, region, 1, Terminator::Exit);
/// let program = b.build().unwrap();
/// let schedule = Schedule::new(vec![Phase::new(Section::Parallel, body, 1_000)]);
/// let trace = SyntheticTrace::new(program, schedule, 1);
///
/// let engine = SweepEngine::new();
/// let outcomes = engine
///     .sweep(
///         vec![trace],
///         |t| TraceKey::new("loop", "doc", t.seed(), 0),
///         |t| Ok(t.clone()),
///         |_| vec![Counter::default(), Counter::default()],
///     )
///     .unwrap();
/// assert_eq!(engine.replays(), 1, "two tools, one replay");
/// assert_eq!(outcomes[0].tools[0].0, 1_000);
/// assert_eq!(outcomes[0].tools[1].0, 1_000);
/// ```
#[derive(Debug, Default)]
pub struct SweepEngine {
    executor: Executor,
    /// Where replays' events come from: `None` generates every trace
    /// live, `Some` serves each through this cache.
    cache: Option<TraceCache>,
    replays: AtomicU64,
    /// Sampled-replay plans, keyed by `(trace fingerprint, sampling
    /// config)` — building one costs a fingerprinting replay plus a
    /// clustering, so a warm sampled sweep pays it zero times.
    plans: Mutex<HashMap<(u64, SamplingConfig), Arc<SamplePlan>>>,
}

impl SweepEngine {
    /// A live engine on a machine-sized [`Executor`].
    pub fn new() -> Self {
        SweepEngine::with_executor(Executor::new())
    }

    /// A live engine on an explicit executor (e.g. single-threaded for
    /// deterministic ordering in tests).
    pub fn with_executor(executor: Executor) -> Self {
        SweepEngine {
            executor,
            cache: None,
            replays: AtomicU64::new(0),
            plans: Mutex::new(HashMap::new()),
        }
    }

    /// This engine, serving every replay through `cache` from now on.
    pub fn with_cache(mut self, cache: TraceCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The cache this engine replays through (`None` for a live
    /// engine).
    pub fn cache(&self) -> Option<&TraceCache> {
        self.cache.as_ref()
    }

    /// The executor items are scheduled on.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Total trace replays this engine has performed.
    ///
    /// Scoped to this engine instance, so replays elsewhere in the
    /// process never show up here: the engine keeps its own tally at
    /// its replay choke points ([`SweepEngine::fan_out`] and
    /// [`SweepEngine::sweep_sampled`]).
    pub fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// Replays the trace addressed by `key` once, feeding all `tools`;
    /// returns the tools and the replay's accounting (summary and
    /// per-section instruction counts). A live engine runs
    /// `make_trace` and interprets it; a cached engine runs it only on
    /// a miss, teeing the live replay to disk for next time. This is
    /// the single choke point every full replay goes through, so
    /// [`SweepEngine::replays`] is authoritative.
    ///
    /// # Errors
    ///
    /// Generation failures ([`CacheError::Generate`]), and for a cached
    /// engine a decode failure on a checksum-valid snapshot (a writer
    /// bug). Corrupt files and unwritable cache directories do **not**
    /// error — see [`TraceCache::replay_with`].
    pub fn fan_out<T: Pintool>(
        &self,
        key: &TraceKey,
        make_trace: impl FnOnce() -> Result<SyntheticTrace, String>,
        tools: Vec<T>,
    ) -> Result<(Vec<T>, CachedReplay), CacheError> {
        let _replay_span = telemetry::span("replay");
        let mut set = ToolSet::from_tools(tools);
        let replay = match &self.cache {
            Some(cache) => cache.replay_with(key, make_trace, &mut set)?,
            None => {
                let trace = make_trace().map_err(CacheError::Generate)?;
                CachedReplay {
                    summary: trace.replay(&mut set),
                    sections: BySection::new(
                        trace.schedule().section_instructions(Section::Serial),
                        trace.schedule().section_instructions(Section::Parallel),
                    ),
                    from_cache: false,
                }
            }
        };
        self.replays.fetch_add(1, Ordering::Relaxed);
        Ok((set.into_inner(), replay))
    }

    /// Sweeps every item: builds its tools and replays its trace
    /// (addressed by `key_of`, generated by `trace_of` when the engine
    /// needs it) exactly once through all of them. Items run in
    /// parallel on the shared executor; outcomes keep item order. On a
    /// cached engine a fully warm sweep performs **zero** trace
    /// generations.
    ///
    /// # Errors
    ///
    /// The first [`CacheError`] any item hits.
    pub fn sweep<I, T, KeyFn, TraceFn, ToolsFn>(
        &self,
        items: Vec<I>,
        key_of: KeyFn,
        trace_of: TraceFn,
        tools_for: ToolsFn,
    ) -> Result<Vec<SweepOutcome<I, T>>, CacheError>
    where
        I: Send + Sync,
        T: Pintool + Send,
        KeyFn: Fn(&I) -> TraceKey + Sync,
        TraceFn: Fn(&I) -> Result<SyntheticTrace, String> + Sync,
        ToolsFn: Fn(&I) -> Vec<T> + Sync,
    {
        let measured = self.executor.map(&items, |item| {
            self.fan_out(&key_of(item), || trace_of(item), tools_for(item))
        });
        items
            .into_iter()
            .zip(measured)
            .map(|(item, measured)| {
                let (tools, replay) = measured?;
                Ok(SweepOutcome {
                    item,
                    tools,
                    summary: replay.summary,
                    sections: replay.sections,
                })
            })
            .collect()
    }

    /// The snapshot bytes of `key`'s trace: through the cache
    /// ([`TraceCache::snapshot_bytes`]), or for a live engine encoded in
    /// memory from one generation and dropped after use.
    fn snapshot_bytes(
        &self,
        key: &TraceKey,
        generate: impl FnOnce() -> Result<SyntheticTrace, String>,
    ) -> Result<Vec<u8>, CacheError> {
        match &self.cache {
            Some(cache) => cache.snapshot_bytes(key, generate),
            None => {
                let trace = generate().map_err(CacheError::Generate)?;
                Ok(snapshot::snapshot_bytes(&trace, key.fingerprint())?.0)
            }
        }
    }

    /// Returns (building on first use) the sampling plan for `key`'s
    /// snapshot under `config`. Plans are cached per engine, so
    /// re-sweeping the same roster re-pays neither the fingerprinting
    /// replay nor the clustering.
    fn plan_for<FP, FpFn>(
        &self,
        key: &TraceKey,
        config: &SamplingConfig,
        snapshot: &Snapshot<'_>,
        fingerprinter: &FpFn,
    ) -> Result<Arc<SamplePlan>, CacheError>
    where
        FP: Fingerprinter,
        FpFn: Fn() -> FP,
    {
        let cache_key = (key.fingerprint(), *config);
        if let Some(plan) = self.plans.lock().expect("plan cache lock").get(&cache_key) {
            return Ok(Arc::clone(plan));
        }
        // Built outside the lock: a concurrent duplicate build is
        // deterministic, so last-writer-wins is harmless.
        let _plan_span = telemetry::span("sampling.plan");
        let mut fp = fingerprinter();
        let plan = Arc::new(SamplePlan::from_snapshot(snapshot, &mut fp, config)?);
        self.plans
            .lock()
            .expect("plan cache lock")
            .insert(cache_key, Arc::clone(&plan));
        Ok(plan)
    }

    /// [`SweepEngine::sweep`]'s phase-sampled sibling: each item
    /// obtains its snapshot bytes once (from the cache, or encoded in
    /// memory by a live engine), fingerprints them into a
    /// [`SamplePlan`] (cached per engine), and replays only the plan's
    /// weighted representatives through the tools
    /// ([`Snapshot::replay_sampled`]). Tools must be weight-aware
    /// ([`Pintool::supports_sampled_replay`]).
    ///
    /// # Errors
    ///
    /// The first [`CacheError`] any item hits.
    pub fn sweep_sampled<I, T, FP, KeyFn, TraceFn, ToolsFn, FpFn>(
        &self,
        config: &SamplingConfig,
        items: Vec<I>,
        key_of: KeyFn,
        trace_of: TraceFn,
        tools_for: ToolsFn,
        fingerprinter: FpFn,
    ) -> Result<Vec<SampledOutcome<I, T>>, CacheError>
    where
        I: Send + Sync,
        T: Pintool + Send,
        FP: Fingerprinter,
        KeyFn: Fn(&I) -> TraceKey + Sync,
        TraceFn: Fn(&I) -> Result<SyntheticTrace, String> + Sync,
        ToolsFn: Fn(&I) -> Vec<T> + Sync,
        FpFn: Fn() -> FP + Sync,
    {
        let measured = self.executor.map(&items, |item| {
            let _replay_span = telemetry::span("replay");
            let key = key_of(item);
            let bytes = self.snapshot_bytes(&key, || trace_of(item))?;
            let snapshot = Snapshot::parse(&bytes)?;
            let plan = self.plan_for(&key, config, &snapshot, &fingerprinter)?;
            let mut set = ToolSet::from_tools(tools_for(item));
            let replay = snapshot.replay_sampled(&mut set, &plan)?;
            self.replays.fetch_add(1, Ordering::Relaxed);
            Ok::<_, CacheError>((set.into_inner(), replay, snapshot.info().sections, plan))
        });
        items
            .into_iter()
            .zip(measured)
            .map(|(item, measured)| {
                let (tools, replay, sections, plan) = measured?;
                Ok(SampledOutcome {
                    item,
                    tools,
                    summary: replay.summary,
                    sections,
                    delivered_instructions: replay.delivered_instructions,
                    plan,
                })
            })
            .collect()
    }

    /// This engine's accounting — its replay ledger and, for a cached
    /// engine, its cache's counters — as a printable [`Report`].
    pub fn report(&self) -> Report {
        Report {
            replays: self.replays(),
            cache: self.cache().map(TraceCache::stats),
        }
    }

    /// Parallel map over independent items on the engine's executor —
    /// for work that is not a plain fan-out replay (e.g. full CMP
    /// simulations) but should share the sweep's scheduling.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.executor.map(items, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{CondBehavior, IterCount, Program, Terminator};
    use crate::schedule::{Phase, Schedule};
    use crate::section::Section;
    use crate::ProgramBuilder;
    use crate::TraceEvent;

    fn tiny_trace(budget: u64, seed: u64) -> SyntheticTrace {
        let mut b = ProgramBuilder::new();
        let region = b.region("hot");
        let body = b.reserve_block();
        let exit = b.reserve_block();
        b.define_block(
            body,
            region,
            5,
            Terminator::Cond {
                taken: body,
                fall: exit,
                behavior: CondBehavior::Loop {
                    count: IterCount::Fixed(9),
                },
            },
        );
        b.define_block(exit, region, 1, Terminator::Exit);
        let program: Program = b.build().unwrap();
        let schedule = Schedule::new(vec![Phase::new(Section::Parallel, body, budget)]);
        SyntheticTrace::new(program, schedule, seed)
    }

    #[derive(Default, Clone)]
    struct PcSum(u64);

    impl Pintool for PcSum {
        fn on_inst(&mut self, ev: &TraceEvent) {
            self.0 = self.0.wrapping_add(ev.pc.as_u64());
        }
    }

    fn key(i: u64) -> TraceKey {
        TraceKey::new(format!("w{i}"), "t", i, 0)
    }

    fn cached_engine() -> SweepEngine {
        SweepEngine::new().with_cache(TraceCache::scratch().unwrap())
    }

    #[test]
    fn fan_out_feeds_every_tool_identically() {
        let engine = SweepEngine::new();
        let (tools, replay) = engine
            .fan_out(
                &key(3),
                || Ok(tiny_trace(2_000, 3)),
                vec![PcSum::default(); 3],
            )
            .unwrap();
        assert_eq!(replay.summary.instructions, 2_000);
        assert_eq!(replay.sections, BySection::new(0, 2_000));
        assert!(!replay.from_cache);
        assert_eq!(engine.replays(), 1);
        assert!(tools[0].0 > 0);
        assert!(tools.iter().all(|t| t.0 == tools[0].0));
    }

    #[test]
    fn sweep_replays_once_per_item_not_per_tool() {
        let engine = SweepEngine::new();
        let items: Vec<u64> = (0..7).collect();
        let outcomes = engine
            .sweep(
                items,
                |&seed| key(seed),
                |&seed| Ok(tiny_trace(500, seed)),
                |_| (0..11).map(|_| PcSum::default()).collect(),
            )
            .unwrap();
        assert_eq!(outcomes.len(), 7);
        assert_eq!(engine.replays(), 7, "7 items x 11 tools = 7 replays");
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.item, i as u64, "item order preserved");
            assert_eq!(o.tools.len(), 11);
            assert_eq!(o.summary.instructions, 500);
        }
    }

    #[test]
    fn sweep_matches_sequential_single_tool_replays() {
        let engine = SweepEngine::with_executor(Executor::with_threads(1));
        let outcomes = engine
            .sweep(
                vec![1u64, 2],
                |&seed| key(seed),
                |&seed| Ok(tiny_trace(800, seed)),
                |_| vec![PcSum::default(), PcSum::default()],
            )
            .unwrap();
        for (seed, outcome) in [1u64, 2].into_iter().zip(&outcomes) {
            let mut alone = PcSum::default();
            tiny_trace(800, seed).replay(&mut alone);
            for t in &outcome.tools {
                assert_eq!(t.0, alone.0, "fan-out must be bit-identical");
            }
        }
    }

    #[test]
    fn cached_sweep_generates_once_then_serves_hits() {
        let engine = cached_engine();
        let run = |engine: &SweepEngine| {
            engine
                .sweep(
                    (0..3u64).collect(),
                    |&i| key(i),
                    |&i| Ok(tiny_trace(300, i)),
                    |_| vec![PcSum::default(); 2],
                )
                .unwrap()
        };
        let cache = engine.cache().unwrap();
        let cold = run(&engine);
        assert_eq!(cache.stats().generations, 3, "cold run generates each item");
        let warm = run(&engine);
        let stats = cache.stats();
        assert_eq!(stats.generations, 3, "warm run generates nothing new");
        assert_eq!(stats.hits, 3);
        assert_eq!(
            engine.replays(),
            6,
            "replays tick for hits and misses alike"
        );
        let live = run(&SweepEngine::new());
        for ((a, b), c) in cold.iter().zip(&warm).zip(&live) {
            assert_eq!(a.tools[0].0, b.tools[0].0, "cached stream is identical");
            assert_eq!(a.tools[0].0, c.tools[0].0, "live stream is identical");
            assert_eq!(a.summary, b.summary);
            assert_eq!(a.sections, c.sections, "footer and schedule agree");
        }
        let report = engine.report();
        assert_eq!(report.replays, 6);
        assert_eq!(report.generations(), 3);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    /// Weight-aware instruction counter (mark/delta scaling).
    #[derive(Default, Clone)]
    struct WeightedCount {
        insts: u64,
        mark: u64,
        weight_calls: u64,
    }

    impl Pintool for WeightedCount {
        fn on_inst(&mut self, _ev: &TraceEvent) {
            self.insts += 1;
        }

        fn on_sample_weight(&mut self, weight: u64) {
            self.insts = crate::weighted_add(self.mark, self.insts - self.mark, weight);
            self.mark = self.insts;
            self.weight_calls += 1;
        }

        fn supports_sampled_replay(&self) -> bool {
            true
        }
    }

    /// A fingerprinter that gives every interval the same vector, so
    /// all intervals collapse into one cluster.
    #[derive(Default)]
    struct ConstFp {
        interval: u64,
        seen: u64,
        vectors: Vec<Vec<f64>>,
    }

    impl Pintool for ConstFp {
        fn on_inst(&mut self, _ev: &TraceEvent) {
            self.seen += 1;
            if self.seen == self.interval {
                self.vectors.push(vec![1.0]);
                self.seen = 0;
            }
        }
    }

    impl crate::Fingerprinter for ConstFp {
        fn set_interval_insts(&mut self, insts: u64) {
            self.interval = insts;
        }

        fn finish(&mut self) -> Vec<Vec<f64>> {
            if self.seen > 0 {
                self.vectors.push(vec![1.0]);
            }
            std::mem::take(&mut self.vectors)
        }
    }

    fn sample(
        engine: &SweepEngine,
        config: &crate::SamplingConfig,
        items: Vec<u64>,
        budget: u64,
    ) -> Vec<SampledOutcome<u64, WeightedCount>> {
        engine
            .sweep_sampled(
                config,
                items,
                |&i| key(i),
                |&i| Ok(tiny_trace(budget, i)),
                |_| vec![WeightedCount::default(); 2],
                ConstFp::default,
            )
            .unwrap()
    }

    #[test]
    fn sweep_sampled_reproduces_totals_from_one_representative() {
        let engine = cached_engine();
        let config = crate::SamplingConfig::default()
            .with_intervals(10)
            .with_k(2);
        let cold = sample(&engine, &config, vec![1, 2], 2_000);
        for o in &cold {
            assert_eq!(o.summary.instructions, 2_000, "full stream still decoded");
            assert_eq!(o.sections, BySection::new(0, 2_000));
            // Identical fingerprints: the pinned startup interval
            // (weight 1) plus one weight-9 cluster whose representative
            // is interval 1 — adjacent to the pin, so no warmup window.
            assert_eq!(o.plan.clusters().len(), 2);
            assert_eq!(o.plan.clusters()[0].weight, 1);
            assert_eq!(o.plan.clusters()[1].weight, 9);
            assert_eq!(o.delivered_instructions, 400);
            for t in &o.tools {
                assert_eq!(t.insts, 2_000, "weighted counts match the full replay");
                assert_eq!(t.weight_calls, 2);
            }
        }
        let cache = engine.cache().unwrap();
        assert_eq!(cache.stats().generations, 2, "one snapshot pass per item");

        let warm = sample(&engine, &config, vec![1, 2], 2_000);
        assert_eq!(
            cache.stats().generations,
            2,
            "warm sweep regenerates nothing"
        );
        // A live engine encodes the same snapshots in memory.
        let live = sample(&SweepEngine::new(), &config, vec![1, 2], 2_000);
        for ((a, b), c) in cold.iter().zip(&warm).zip(&live) {
            assert_eq!(a.tools[0].insts, b.tools[0].insts);
            assert!(Arc::ptr_eq(&a.plan, &b.plan), "plans come from the cache");
            assert_eq!((a.plan.as_ref(), a.summary), (c.plan.as_ref(), c.summary));
            assert_eq!(a.delivered_instructions, c.delivered_instructions);
        }
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn sweep_sampled_degenerates_to_full_replay_for_large_k() {
        let engine = SweepEngine::new();
        let config = crate::SamplingConfig::default()
            .with_intervals(4)
            .with_k(64);
        let out = sample(&engine, &config, vec![5], 1_000);
        assert!(out[0].plan.is_full_replay());
        assert_eq!(out[0].delivered_instructions, 1_000);
        assert_eq!(out[0].tools[0].insts, 1_000);
        assert_eq!(
            out[0].tools[0].weight_calls, 0,
            "degenerate plans take the unsampled path"
        );
    }

    #[test]
    fn map_shares_the_executor() {
        let engine = SweepEngine::new();
        let out = engine.map(&[1u64, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!(engine.replays(), 0, "map alone does not replay");
        assert!(engine.executor().threads() >= 1);
    }
}
