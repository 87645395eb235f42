//! A sampled sweep without a persistent cache slices snapshots it
//! records into a temporary cache; the process must leave nothing of it
//! behind in the temp directory.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rebalance");

#[test]
fn uncached_sampled_sweep_leaves_temp_dir_empty() {
    let tmp = std::env::temp_dir().join(format!(
        "rebalance-scratch-leak-test-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();

    let out = Command::new(BIN)
        .args("sweep --workloads CG,FT --no-cache --sample 40 --sample-k 4".split(' '))
        .env("TMPDIR", &tmp)
        .env_remove("REBALANCE_TRACE_CACHE")
        .output()
        .expect("spawn rebalance");
    assert!(
        out.status.success(),
        "sampled sweep failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let left: Vec<_> = std::fs::read_dir(&tmp)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    std::fs::remove_dir_all(&tmp).unwrap();
    assert!(left.is_empty(), "left behind in TMPDIR: {left:?}");
}
