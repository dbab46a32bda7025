//! Tracked fast-path benchmark: ns/alloc and ns/free through the full
//! runtime, plus a 16-thread contended run against the shared sampling
//! unit, comparing the per-thread decision cache (the default,
//! `refresh = 64`) against the pre-cache behaviour (`refresh = 1`, every
//! decision goes to the striped context table).
//!
//! ```bash
//! cargo run --release -p csod-bench --bin fastpath            # writes BENCH_fastpath.json
//! cargo run --release -p csod-bench --bin fastpath -- --check BENCH_fastpath.json
//! ```
//!
//! `--check` fails when a cached-mode metric regressed past its ceiling
//! (`csod_bench::specs::FASTPATH`) — the CI perf-smoke gate.

use csod_bench::harness::{self, alloc_free_rounds, contexts, Metrics, CONTEXTS};
use csod_bench::specs;
use csod_core::{ContextJudgment, CsodConfig, DecisionCache, SamplingUnit};
use csod_ctx::FrameTable;
use csod_rng::Arc4Random;
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::{Machine, VirtInstant};
use std::time::Instant;

/// OS threads in the contended scenario.
const THREADS: usize = 16;
/// Sampling decisions per thread in the contended scenario.
const CONTENDED_OPS: usize = 200_000;

/// ns/alloc and ns/free through the full `Csod` runtime (malloc
/// interposition, canary layout, sampling, watch installs).
fn runtime_pair(refresh: u32) -> [f64; 2] {
    let mut machine = Machine::new();
    let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).expect("fresh heap");
    let mut config = CsodConfig::default();
    config.fast_path.decision_cache_refresh = refresh;
    alloc_free_rounds(config, &mut machine, &mut heap, |_, _| {})
}

/// ns per sampling decision with 16 threads hammering one shared
/// `SamplingUnit`, each through its own per-thread decision cache.
fn contended_ns(refresh: u32) -> f64 {
    let frames = FrameTable::new();
    let unit = SamplingUnit::new(CsodConfig::default().sampling);
    let sites = contexts(&frames);
    // Untimed warm-up drives every context past first sight and into a
    // steady probability so the timed section measures the fast path.
    {
        let mut rng = Arc4Random::from_seed(7, u64::MAX);
        let mut cache = DecisionCache::new(refresh);
        for _ in 0..200 {
            for (key, ctx) in &sites {
                cache.on_allocation(&unit, *key, VirtInstant::BOOT, &mut rng, ctx, |_| ContextJudgment::clear());
            }
        }
    }
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let unit = &unit;
            let sites = &sites;
            scope.spawn(move || {
                let mut rng = Arc4Random::from_seed(7, t as u64);
                let mut cache = DecisionCache::new(refresh);
                for i in 0..CONTENDED_OPS {
                    let (key, ctx) = &sites[(i + t) % CONTEXTS];
                    let d = cache.on_allocation(
                        unit,
                        *key,
                        VirtInstant::BOOT,
                        &mut rng,
                        ctx,
                        |_| ContextJudgment::clear(),
                    );
                    std::hint::black_box(d.wants_watch);
                }
                cache.flush(unit);
            });
        }
    });
    start.elapsed().as_nanos() as f64 / (THREADS * CONTENDED_OPS) as f64
}

fn measure() -> Metrics {
    let cached = CsodConfig::default().fast_path.decision_cache_refresh;
    eprintln!("fastpath bench: runtime malloc/free, cached (refresh={cached})...");
    let [ca, cf] = runtime_pair(cached);
    eprintln!("fastpath bench: runtime malloc/free, uncached (refresh=1)...");
    let [ua, uf] = runtime_pair(1);
    eprintln!("fastpath bench: contended {THREADS}-thread sampling, cached...");
    let cc = contended_ns(cached);
    eprintln!("fastpath bench: contended {THREADS}-thread sampling, uncached...");
    let uc = contended_ns(1);
    vec![
        ("threads_contended", THREADS as f64),
        ("cached_refresh", f64::from(cached)),
        ("uncontended_cached_ns_per_alloc", ca),
        ("uncontended_cached_ns_per_free", cf),
        ("uncontended_uncached_ns_per_alloc", ua),
        ("uncontended_uncached_ns_per_free", uf),
        ("contended_cached_ns_per_alloc", cc),
        ("contended_uncached_ns_per_alloc", uc),
        ("contended_speedup", uc / cc),
    ]
}

fn main() {
    harness::run(&specs::FASTPATH, measure);
}
