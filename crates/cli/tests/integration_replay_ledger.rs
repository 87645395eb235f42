//! The replay ledger `rebalance paper` prints is exact: every replay an
//! exhibit performs goes through the one sweep engine, so on a cached
//! run the engine's replay count equals the cache's hits plus misses.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_rebalance");

fn rebalance(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .env_remove("REBALANCE_TRACE_CACHE")
        .env_remove("REBALANCE_METRICS")
        .output()
        .expect("spawn rebalance")
}

/// The first number after `label` in `line`.
fn count_after(line: &str, label: &str) -> u64 {
    let rest = line.split_once(label).map_or("", |(_, rest)| rest);
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no count after {label:?} in {line}"))
}

#[test]
fn warm_paper_counts_every_cached_replay() {
    let dir = std::env::temp_dir().join(format!("rebalance-ledger-test-{}", std::process::id()));
    let cache = dir.to_str().expect("utf-8 temp dir");
    let _ = std::fs::remove_dir_all(&dir);
    let record = rebalance(&["trace", "record", "--suite", "kernels", "--cache", cache]);
    let paper = rebalance(&[
        "paper", "fig1", "fig10", "detail", "--suite", "kernels", "--scale", "smoke", "--cache",
        cache,
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(record.status.success() && paper.status.success());

    let stdout = String::from_utf8(paper.stdout).expect("utf-8 stdout");
    let report = stdout.lines().last().expect("a report line");
    let (replays, hits) = (
        count_after(report, "replays:"),
        count_after(report, "cache:"),
    );
    let misses = count_after(report, "hits /");
    assert_eq!(misses, 0, "the kernels suite was recorded: {report}");
    assert!(replays > 0, "the exhibits replayed nothing: {report}");
    assert_eq!(replays, hits + misses, "uncounted cache reads: {report}");
}

#[test]
fn paper_rejects_the_model_flag() {
    let out = rebalance(&["paper", "table2", "--model", "ftq"]);
    assert!(!out.status.success(), "paper --model must be refused");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--model"));
}
