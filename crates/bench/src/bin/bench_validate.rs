//! Baseline validator: fails fast on malformed or incomplete
//! `BENCH_*.json` files *before* CI's diff and `--check` steps consume
//! them, so a truncated commit or a hand-edited baseline produces one
//! clear error instead of a confusing downstream comparison.
//!
//! ```bash
//! cargo run --release -p csod-bench --bin bench_validate   # every spec's ./BENCH_*.json
//! cargo run --release -p csod-bench --bin bench_validate -- a.json b.json
//! ```
//!
//! A baseline is valid when a bench declares it in
//! `csod_bench::specs`, it parses as flat JSON of finite numbers, and it
//! carries exactly its spec's keys in the spec's order — the same table
//! the bench binaries write from.

use csod_bench::specs;
use std::path::Path;

fn validate(path: &str) -> Result<usize, String> {
    let file = Path::new(path)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or(path);
    let spec = specs::ALL
        .into_iter()
        .find(|s| s.file == file)
        .ok_or_else(|| format!("no bench in csod_bench::specs writes {file}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    spec.validate(&text)
}

fn main() {
    let mut paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        // Default: every spec's committed baseline in the working directory.
        paths = specs::ALL.iter().map(|s| s.file.to_string()).collect();
    }
    let mut failed = false;
    for path in &paths {
        match validate(path) {
            Ok(n) => println!("{path}: ok ({n} metrics)"),
            Err(e) => {
                failed = true;
                eprintln!("{path}: INVALID — {e}");
            }
        }
    }
    if failed {
        eprintln!("bench_validate FAILED");
        std::process::exit(1);
    }
    println!("all baselines valid");
}
