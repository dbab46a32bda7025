//! Tracked tracing-overhead benchmark: the cost of the always-on event
//! tracer on the allocation fast path.
//!
//! One binary measures both states through the *runtime* toggle
//! (`config.trace.events`): ns/alloc and ns/free through the full
//! runtime with event emission on versus off, plus the drain cost per
//! event. The JSON also records whether the `trace-off` feature compiled
//! the tracer out entirely (`trace_compiled_off`), so the CI leg that
//! builds with the feature can assert the stub is truly free.
//!
//! ```bash
//! cargo run --release -p csod-bench --bin tracing            # writes BENCH_tracing.json
//! cargo run --release -p csod-bench --bin tracing -- --check
//! ```
//!
//! `--check` fails when tracing-on costs more than its limit
//! (`csod_bench::specs::TRACING`, the 10% observability budget) over
//! tracing-off on either the alloc or the free path. It needs no
//! baseline file: the invariant is a ratio between two fresh
//! measurements of the same binary on the same host.

use csod_bench::harness::{self, alloc_free_rounds, min_each, Metrics, ROUNDS};
use csod_bench::specs;
use csod_core::CsodConfig;
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::Machine;

/// Whole-measurement attempts; ratios keep their best attempt.
const ATTEMPTS: usize = 3;

/// ns/alloc and ns/free through the full runtime with event emission
/// toggled by `trace_on`, plus the events drained per round (0 when
/// emission is off either way).
fn runtime_pair(trace_on: bool) -> (f64, f64, u64) {
    let mut machine = Machine::new();
    let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).expect("fresh heap");
    let mut config = CsodConfig::default();
    config.trace.events = trace_on;
    let mut drained = 0u64;
    // Drain between rounds, like a metrics scraper would, so the rings
    // never sit saturated for the whole bench.
    let [alloc_ns, free_ns] = alloc_free_rounds(config, &mut machine, &mut heap, |csod, _| {
        drained += csod.drain_trace().events.len() as u64;
    });
    (alloc_ns, free_ns, drained / (ROUNDS as u64 + 1))
}

fn measure() -> Metrics {
    let compiled_off = csod_trace::trace_compiled_off();
    // The on/off runs execute at different moments, so frequency drift
    // or a background burst on one side skews the ratio in either
    // direction. Each attempt runs the two modes back to back and forms
    // its own ratio; the reported ratio is the best attempt's, because
    // only a pair measured under comparable conditions says anything
    // about the tracer. Minima of the raw ns across attempts would not:
    // one lucky tracing-off round in attempt 1 against a routine
    // tracing-on round in attempt 3 manufactures phantom overhead.
    let (mut attempt, mut events) = (0, 0);
    let [on_alloc, on_free, off_alloc, off_free, alloc_ratio, free_ratio] = min_each(ATTEMPTS, || {
        attempt += 1;
        eprintln!("tracing bench: attempt {attempt}/{ATTEMPTS}, event emission on...");
        let (a_on, f_on, e) = runtime_pair(true);
        events = e;
        eprintln!("tracing bench: attempt {attempt}/{ATTEMPTS}, event emission off...");
        let (a_off, f_off, _) = runtime_pair(false);
        [a_on, f_on, a_off, f_off, a_on / a_off, f_on / f_off]
    });
    vec![
        ("trace_compiled_off", f64::from(u8::from(compiled_off))),
        ("traced_ns_per_alloc", on_alloc),
        ("traced_ns_per_free", on_free),
        ("untraced_ns_per_alloc", off_alloc),
        ("untraced_ns_per_free", off_free),
        ("alloc_overhead_ratio", alloc_ratio),
        ("free_overhead_ratio", free_ratio),
        ("events_per_round", events as f64),
    ]
}

fn main() {
    harness::run(&specs::TRACING, measure);
}
