//! # csod-bench — experiment harnesses
//!
//! One binary per table and figure of the paper's evaluation (Section V),
//! plus ablation studies and Criterion microbenchmarks. The gated perf
//! bins run through [`harness`], declared in [`specs`]. See DESIGN.md for
//! the per-experiment index and EXPERIMENTS.md for paper-vs-measured
//! results.

#![warn(missing_docs)]
#![warn(clippy::perf)]

pub mod harness;
pub mod specs;

use std::num::NonZeroUsize;
use std::thread;

/// Formats a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (i, cell) in cells.iter().enumerate() {
        let width = widths.get(i).copied().unwrap_or(12);
        if i == 0 {
            out.push_str(&format!("{cell:<width$}"));
        } else {
            out.push_str(&format!("  {cell:>width$}"));
        }
    }
    out
}

/// Prints a titled rule line.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Parses `--runs N` (or the `CSOD_RUNS` env var), defaulting to
/// `default`.
pub fn runs_arg(default: usize) -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--runs" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        }
    }
    std::env::var("CSOD_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Worker threads for the per-seed fan-outs: every available core.
pub fn cores() -> usize {
    thread::available_parallelism().map_or(4, NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_is_aligned() {
        let r = row(&["a".into(), "1".into()], &[8, 4]);
        assert!(r.starts_with("a       "));
        assert!(r.ends_with("   1"));
    }
}
