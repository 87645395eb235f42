//! End-to-end guarantees of the snapshot + trace-cache layer on real
//! synthesized workloads:
//!
//! 1. a recorded snapshot replays **bit-identically** to the live
//!    replay it captured,
//! 2. a cache-warm sweep performs **zero trace generations** (asserted
//!    via the cache's hit/miss/generation accounting) while producing
//!    results identical to an uncached sweep, and
//! 3. the cached CMP and characterization paths match their live
//!    counterparts exactly.

use rebalance::frontend::predictor::{DirectionPredictor, PredictorReport, PredictorSim};
use rebalance::frontend::PredictorChoice;
use std::path::Path;

use rebalance::pintools::{
    characterization_from_tools, characterization_tools, characterize, Characterization,
};
use rebalance::trace::{FnTool, Snapshot, SweepEngine, SweepOutcome, TraceCache, TraceEvent};
use rebalance::workloads::{find, Workload};
use rebalance::Scale;

fn workloads(names: &[&str]) -> Vec<Workload> {
    names.iter().map(|n| find(n).unwrap()).collect()
}

fn predictor_sims() -> Vec<PredictorSim<Box<dyn DirectionPredictor>>> {
    PredictorChoice::build_sims(&PredictorChoice::figure5_set())
}

fn reports(
    outcomes: &[SweepOutcome<Workload, PredictorSim<Box<dyn DirectionPredictor>>>],
) -> Vec<Vec<PredictorReport>> {
    outcomes
        .iter()
        .map(|o| o.tools.iter().map(PredictorSim::report).collect())
        .collect()
}

#[test]
fn recorded_snapshot_replays_bit_identically() {
    let trace = find("CoMD").unwrap().trace(Scale::Smoke).unwrap();
    let collect_live = || {
        let mut events = Vec::new();
        let mut tool = FnTool::new(|ev: &TraceEvent| events.push(*ev));
        let summary = trace.replay(&mut tool);
        (events, summary)
    };
    let (live_events, live_summary) = collect_live();

    let (bytes, info) = rebalance::trace::snapshot::snapshot_bytes(&trace, 0).unwrap();
    assert_eq!(info.summary, live_summary);
    assert_eq!(info.seed, trace.seed());

    let snapshot = Snapshot::parse(&bytes).unwrap();
    let mut decoded_events = Vec::new();
    let mut tool = FnTool::new(|ev: &TraceEvent| decoded_events.push(*ev));
    let decoded_summary = snapshot.replay(&mut tool).unwrap();
    assert_eq!(decoded_summary, live_summary);
    assert_eq!(
        decoded_events, live_events,
        "decode must reproduce the live event stream bit-identically"
    );
    assert!(
        (bytes.len() as f64) < live_events.len() as f64 * 3.0,
        "encoding stays compact: {} bytes for {} events",
        bytes.len(),
        live_events.len()
    );
}

/// An engine caching into `dir` (opened afresh, so each engine's
/// cache counters start at zero).
fn cached_engine(dir: &Path) -> SweepEngine {
    SweepEngine::new().with_cache(TraceCache::new(dir).unwrap())
}

fn predictor_sweep(
    engine: &SweepEngine,
    workloads: Vec<Workload>,
) -> Vec<SweepOutcome<Workload, PredictorSim<Box<dyn DirectionPredictor>>>> {
    engine
        .sweep(
            workloads,
            |w| w.trace_key(Scale::Smoke),
            |w| w.trace(Scale::Smoke),
            |_| predictor_sims(),
        )
        .expect("replay")
}

/// Characterizes `w` through `engine`, one replay of all five tools.
fn characterize_through(engine: &SweepEngine, w: &Workload) -> Characterization {
    let static_bytes = w.trace(Scale::Smoke).unwrap().program().static_bytes();
    let (mut tools, replay) = engine
        .fan_out(
            &w.trace_key(Scale::Smoke),
            || w.trace(Scale::Smoke),
            vec![characterization_tools()],
        )
        .unwrap();
    characterization_from_tools(tools.remove(0), static_bytes, replay.summary)
}

#[test]
fn cache_warm_sweep_performs_zero_generations() {
    let dir = TraceCache::scratch().unwrap().dir().to_path_buf();
    let names = ["CG", "FT", "gcc", "swim"];
    let n = names.len() as u64;

    // Cold: every workload is generated once and recorded.
    let cold_engine = cached_engine(&dir);
    let cold = predictor_sweep(&cold_engine, workloads(&names));
    let after_cold = cold_engine.cache().unwrap().stats();
    assert_eq!(after_cold.generations, n);
    assert_eq!(after_cold.misses, n);
    assert_eq!(after_cold.hits, 0);
    assert_eq!(cold_engine.replays(), n);

    // Warm: zero generations, all hits — the acceptance criterion.
    let warm_engine = cached_engine(&dir);
    let warm = predictor_sweep(&warm_engine, workloads(&names));
    let stats = warm_engine.cache().unwrap().stats();
    assert_eq!(
        stats.generations, 0,
        "a cache-warm sweep must not generate any trace"
    );
    assert_eq!(stats.hits, n);
    assert_eq!(stats.misses, 0);
    assert_eq!(warm_engine.replays(), n);

    // Both cached runs match an uncached sweep bit-identically.
    let live = predictor_sweep(&SweepEngine::new(), workloads(&names));
    assert_eq!(reports(&cold), reports(&live), "recording replay != live");
    assert_eq!(reports(&warm), reports(&live), "decoded replay != live");

    // The engine's report surfaces the same accounting.
    let report = warm_engine.report();
    assert_eq!(report.replays, n);
    assert_eq!(report.generations(), 0);
    assert_eq!(report.cache.map(|c| c.hits), Some(n));
    assert!(report.to_string().contains("hits"));

    let _ = std::fs::remove_dir_all(dir);
}

/// Differential oracle over the kernel-archetype suite: cached-snapshot
/// replay (recording pass and decoded pass alike) must produce tool
/// reports bit-identical to fresh generation, and a warm kernels sweep
/// must perform zero generations — the drift-window/ramped-epoch
/// schedules survive the snapshot encoding exactly.
#[test]
fn kernel_archetypes_cached_replay_matches_fresh() {
    let engine = SweepEngine::new().with_cache(TraceCache::scratch().unwrap());
    let cache = engine.cache().unwrap();
    let kernels = rebalance::workloads::kernels();
    assert!(kernels.len() >= 6, "six archetypes minimum");

    for w in &kernels {
        let live = characterize(&w.trace(Scale::Smoke).unwrap());
        assert_eq!(
            characterize_through(&engine, w),
            live,
            "{}: recording pass",
            w.name()
        );
        assert_eq!(
            characterize_through(&engine, w),
            live,
            "{}: decoded pass",
            w.name()
        );
    }
    assert_eq!(
        cache.stats().generations,
        kernels.len() as u64,
        "one generation per kernel, then pure cache hits"
    );

    // The full sweep path: cold (recording) and warm (decoding) engine
    // sweeps over the kernels suite match an uncached sweep, and the
    // warm sweep generates nothing.
    let before = cache.stats();
    let cold = predictor_sweep(&engine, rebalance::workloads::kernels());
    let warm = predictor_sweep(&engine, rebalance::workloads::kernels());
    let delta = cache.stats().since(&before);
    assert_eq!(delta.generations, 0, "kernels were already recorded");
    let live = predictor_sweep(&SweepEngine::new(), rebalance::workloads::kernels());
    assert_eq!(reports(&cold), reports(&live));
    assert_eq!(reports(&warm), reports(&live));

    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn cached_cmp_simulation_matches_live() {
    use rebalance::coresim::{simulate_floorplans, simulate_floorplans_cached, CmpSim};
    use rebalance::mcpat::CmpFloorplan;

    let cache = TraceCache::scratch().unwrap();
    let w = find("CoEVP").unwrap();
    let sims: Vec<CmpSim> = CmpFloorplan::figure10_set()
        .into_iter()
        .map(CmpSim::new)
        .collect();
    let live = simulate_floorplans(&SweepEngine::new(), &sims, &w, Scale::Smoke).unwrap();
    let cold = simulate_floorplans_cached(&sims, &w, Scale::Smoke, &cache).unwrap();
    let warm = simulate_floorplans_cached(&sims, &w, Scale::Smoke, &cache).unwrap();
    assert_eq!(cold, live);
    assert_eq!(warm, live);
    assert_eq!(
        cache.stats().generations,
        1,
        "four floorplans, one generation"
    );

    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn cached_characterization_matches_live() {
    let engine = SweepEngine::new().with_cache(TraceCache::scratch().unwrap());
    let w = find("LULESH").unwrap();
    let live = characterize(&w.trace(Scale::Smoke).unwrap());

    assert_eq!(characterize_through(&engine, &w), live, "recording pass");
    assert_eq!(characterize_through(&engine, &w), live, "decoded pass");
    assert_eq!(
        characterize_through(&SweepEngine::new(), &w),
        live,
        "live engine"
    );
    let cache = engine.cache().unwrap();
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(
        engine.replays(),
        2,
        "every characterization is a counted replay"
    );

    let _ = std::fs::remove_dir_all(cache.dir());
}
