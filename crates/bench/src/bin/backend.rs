//! Backend ceiling benchmark: the full `Csod` runtime driven over the
//! [`NullBackend`] — every arm/disarm accepted instantly, no traps, the
//! clock frozen, tool costs zero — versus the same loop on the
//! simulator. The null numbers are the detector's *own* ceiling: pure
//! sampling/decision/canary/bookkeeping cost with the substrate priced
//! at zero, so any future regression here is a regression in CSOD's
//! decision path itself, not in a backend.
//!
//! ```bash
//! cargo run --release -p csod-bench --bin backend            # writes BENCH_backend.json
//! cargo run --release -p csod-bench --bin backend -- --check BENCH_backend.json
//! ```
//!
//! `--check` fails when a null-backend metric regressed past its
//! ceiling (`csod_bench::specs::BACKEND`) — the CI backend gate.

use csod_bench::harness::{self, alloc_free_rounds, Metrics, ROUND_ALLOCS};
use csod_bench::specs;
use csod_core::{CsodConfig, NullBackend, NullHeap};
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::Machine;

/// Both substrates run the identical driving code, polling between
/// rounds — that is the point: the difference between the two results
/// *is* the substrate.
fn measure() -> Metrics {
    eprintln!("backend bench: runtime over the null backend (ceiling)...");
    let mut null = NullBackend::new();
    let mut null_heap = NullHeap::new();
    let [na, nf] =
        alloc_free_rounds(CsodConfig::default(), &mut null, &mut null_heap, |c, b| c.poll(b));

    eprintln!("backend bench: runtime over the simulator...");
    let mut machine = Machine::new();
    let mut sim_heap = SimHeap::new(&mut machine, HeapConfig::default()).expect("fresh heap");
    let [sa, sf] =
        alloc_free_rounds(CsodConfig::default(), &mut machine, &mut sim_heap, |c, m| c.poll(m));

    vec![
        ("round_allocs", ROUND_ALLOCS as f64),
        ("null_ns_per_alloc", na),
        ("null_ns_per_free", nf),
        ("sim_ns_per_alloc", sa),
        ("sim_ns_per_free", sf),
        // How much the simulated substrate costs on top of the pure
        // decision path — the headroom a real backend has to play
        // with before it, not CSOD, dominates.
        ("sim_over_null_alloc", sa / na),
        ("sim_over_null_free", sf / nf),
    ]
}

fn main() {
    harness::run(&specs::BACKEND, measure);
}
