//! The committed `BENCH_*.json` baselines against the specs their bins
//! write from: same keys, same order, and every gate reading a real key.

use csod_bench::specs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_committed_baseline_matches_its_spec() {
    for spec in specs::ALL {
        let path = repo_root().join(spec.file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} is committed: {e}", spec.file));
        // Exactly the spec's keys, in its order.
        assert_eq!(spec.validate(&text), Ok(spec.metrics.len()), "{}", spec.file);
    }
}

#[test]
fn every_baseline_file_has_a_spec() {
    let mut committed: Vec<String> = std::fs::read_dir(repo_root())
        .expect("repo root is readable")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    committed.sort();
    let mut declared: Vec<String> = specs::ALL.iter().map(|s| s.file.to_string()).collect();
    declared.sort();
    assert_eq!(committed, declared);
}

#[test]
fn every_gate_reads_a_spec_key() {
    for spec in specs::ALL {
        for gate in spec.gates.iter().chain(spec.invariants) {
            for key in gate.keys() {
                assert!(
                    spec.keys().any(|k| k == key),
                    "{}: {gate:?} reads {key}, which the bench does not write",
                    spec.file
                );
            }
        }
    }
}
