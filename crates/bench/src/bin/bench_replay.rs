//! Trace-cached replay benchmark: what batched segment replay buys over
//! the paper-faithful per-access interpreter (DESIGN.md §14).
//!
//! Two layers are measured:
//!
//! 1. **Execution layer** (`exec_*`): a compiled 64-access segment
//!    replayed via [`Machine::replay_segment`] — one generation check,
//!    one armed-hull check, one batched cost charge and memory apply —
//!    against the same 64 accesses walked one
//!    [`Machine::app_access`] at a time. This is the raw speedup of the
//!    replay engine and the headline ≥10× claim.
//! 2. **Workload layer** (`workload_*`): a server-style event trace
//!    (long-lived buffers, hot in-bounds access loops) executed through
//!    the full [`TraceRunner`] with the cache armed vs.
//!    `ReplayParams::interpreted()`. This includes all event-stream
//!    dispatch both modes share, so the ratio is smaller — it is the
//!    end-to-end win a workload actually sees. The two outcomes are
//!    asserted bit-for-bit identical (modulo the replay counters
//!    themselves) on every measurement.
//!
//! ```bash
//! cargo run --release -p csod-bench --bin bench_replay             # writes BENCH_replay.json
//! cargo run --release -p csod-bench --bin bench_replay -- --check BENCH_replay.json
//! ```
//!
//! `--check` fails when a tracked metric regressed past its ceiling or
//! the execution-layer speedup fell below its floor
//! (`csod_bench::specs::REPLAY`) — the CI perf-smoke gate.

use csod_bench::harness::{self, best_of, fastest, Metrics};
use csod_bench::specs;
use csod_core::CsodConfig;
use csod_ctx::FrameTable;
use sim_machine::{
    AccessKind, Machine, SegmentStep, SiteToken, ThreadId, TraceSegment, VirtAddr,
};
use std::sync::Arc;
use std::time::Instant;
use workloads::{Event, ReplayParams, RunOutcome, SiteRegistry, ToolSpec, TraceRunner};

/// Accesses per segment in the execution-layer measurement (the cap a
/// compiled segment can hold).
const SEGMENT_LEN: usize = 64;
/// Segment replays (and equivalent interpreted runs) per timed round.
const EXEC_RUNS: usize = 20_000;
/// Long-lived buffers of the workload trace. Kept small enough that no
/// two buffer bases alias in the direct-mapped slot table (the key is
/// address bits 3..15, so a round-robin working set wider than 32 KiB
/// of heap would evict itself — the documented ckb-vm-style tradeoff).
const WORKLOAD_OBJECTS: usize = 4;
/// Hot-loop iterations of the workload trace; each touches one buffer
/// with [`SEGMENT_LEN`] in-bounds accesses.
const WORKLOAD_ITERATIONS: usize = 2_000;
/// Timed rounds per scenario; see [`fastest`].
const ROUNDS: usize = 8;
/// Attempts per scenario; see [`best_of`].
const ATTEMPTS: usize = 3;

/// Builds the 64-step read run the execution layer measures, over a
/// mapped scratch region.
fn exec_steps(base: VirtAddr) -> Vec<SegmentStep> {
    (0..SEGMENT_LEN as u64)
        .map(|i| SegmentStep {
            addr: base + i * 64,
            len: 8,
            kind: AccessKind::Read,
            site: SiteToken(1),
        })
        .collect()
}

/// `(interpreted_ns_per_access, replay_ns_per_access)` for the same run
/// of [`SEGMENT_LEN`] in-bounds reads, with identical virtual-machine
/// accounting asserted between the two modes.
fn exec_pair() -> (f64, f64) {
    let base = VirtAddr::new(0x10_0000);
    let steps = exec_steps(base);

    // Interpreted: the paper-faithful walk, one app_access per step.
    let mut m = Machine::new();
    m.map_region(base, 1 << 16, "scratch").expect("mapped");
    let [interp_ns] = fastest(ROUNDS, || {
        let start = Instant::now();
        for _ in 0..EXEC_RUNS {
            for step in &steps {
                m.set_current_site(ThreadId::MAIN, step.site);
                m.app_access(ThreadId::MAIN, step.addr, step.len, step.kind)
                    .expect("in-bounds access");
            }
        }
        [start.elapsed().as_nanos() as f64 / (EXEC_RUNS * SEGMENT_LEN) as f64]
    });
    let interp_counter = m.counter().accesses();

    // Replay: the same runs as compiled-segment applies.
    let mut m = Machine::new();
    m.map_region(base, 1 << 16, "scratch").expect("mapped");
    let seg = TraceSegment::compile(ThreadId::MAIN, m.watch_generation(), steps.clone())
        .expect("non-empty run");
    let [replay_ns] = fastest(ROUNDS, || {
        let start = Instant::now();
        for _ in 0..EXEC_RUNS {
            assert!(m.replay_segment(&seg), "segment stays replayable");
        }
        [start.elapsed().as_nanos() as f64 / (EXEC_RUNS * SEGMENT_LEN) as f64]
    });
    assert_eq!(
        m.counter().accesses(),
        interp_counter,
        "replay must account the same accesses as interpretation"
    );
    (interp_ns, replay_ns)
}

/// The server-style workload trace: hot in-bounds loops over long-lived
/// buffers, Compute breaks, and a final teardown.
fn workload_trace() -> Vec<Event> {
    let mut t = Vec::new();
    for obj in 0..WORKLOAD_OBJECTS {
        t.push(Event::malloc(obj, 4096, obj));
    }
    for i in 0..WORKLOAD_ITERATIONS {
        let obj = i % WORKLOAD_OBJECTS;
        for w in 0..SEGMENT_LEN as u64 {
            t.push(Event::access(obj, w * 64, 8, AccessKind::Read, SiteToken(1)));
        }
        if i % 64 == 63 {
            t.push(Event::compute(256));
        }
    }
    for obj in 0..WORKLOAD_OBJECTS {
        t.push(Event::free(obj));
    }
    t
}

fn registry() -> SiteRegistry {
    let mut reg = SiteRegistry::new("replaybench", Arc::new(FrameTable::new()));
    reg.add_alloc_sites(WORKLOAD_OBJECTS);
    reg.add_access_site("replaybench", "loop.c:10");
    reg.add_access_site("replaybench", "loop.c:11");
    reg
}

/// Zeroes the replay counters so cached and interpreted outcomes can be
/// compared field-for-field.
fn normalized(mut o: RunOutcome) -> RunOutcome {
    o.replay_cache_hits = 0;
    o.replay_cache_misses = 0;
    o.replay_cache_invalidations = 0;
    o.replay_segments_compiled = 0;
    o.replay_accesses = 0;
    o
}

/// `(interpreted_ms, cached_ms, hit_rate)` for the full workload under
/// `tool`, parity-checked on every round.
fn workload_pair(tool: &ToolSpec) -> (f64, f64, f64) {
    let reg = registry();
    let trace = workload_trace();
    let mut hit_rate = 0.0;
    let [interp_ms, cached_ms] = fastest(ROUNDS, || {
        let start = Instant::now();
        let interpreted = TraceRunner::with_replay(&reg, tool.clone(), ReplayParams::interpreted())
            .run(trace.iter().cloned());
        let interp_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let cached = TraceRunner::with_replay(&reg, tool.clone(), ReplayParams::default())
            .run(trace.iter().cloned());
        let cached_ms = start.elapsed().as_secs_f64() * 1e3;
        let runs = cached.replay_cache_hits + cached.replay_cache_misses;
        assert!(
            cached.replay_cache_hits > 0,
            "the hot loop must replay ({}: {} hits / {} misses / {} compiled / {} invalidations)",
            tool.label(),
            cached.replay_cache_hits,
            cached.replay_cache_misses,
            cached.replay_segments_compiled,
            cached.replay_cache_invalidations
        );
        hit_rate = cached.replay_cache_hits as f64 / runs as f64;
        assert_eq!(
            normalized(cached),
            normalized(interpreted),
            "replay must be observationally invisible ({})",
            tool.label()
        );
        [interp_ms, cached_ms]
    });
    (interp_ms, cached_ms, hit_rate)
}

fn measure() -> Metrics {
    eprintln!("replay bench: execution layer, {SEGMENT_LEN}-access segments x {EXEC_RUNS} runs...");
    // Minimise the replay leg; its paired interpreter time rides along.
    let (exec_interp, exec_replay) = best_of(ATTEMPTS, exec_pair, |r| r.1);
    eprintln!(
        "replay bench: csod workload, {WORKLOAD_ITERATIONS} iterations x {SEGMENT_LEN} accesses..."
    );
    let csod = ToolSpec::Csod(CsodConfig::default());
    let (csod_interp, csod_cached, csod_hits) = best_of(ATTEMPTS, || workload_pair(&csod), |r| r.1);
    eprintln!("replay bench: baseline workload...");
    let (base_interp, base_cached, _) =
        best_of(ATTEMPTS, || workload_pair(&ToolSpec::Baseline), |r| r.1);
    vec![
        ("exec_interpreted_ns_per_access", exec_interp),
        ("exec_replay_ns_per_access", exec_replay),
        ("exec_replay_speedup", exec_interp / exec_replay),
        ("csod_interpreted_ms", csod_interp),
        ("csod_cached_ms", csod_cached),
        ("csod_replay_speedup", csod_interp / csod_cached),
        ("csod_hit_rate", csod_hits),
        ("baseline_interpreted_ms", base_interp),
        ("baseline_cached_ms", base_cached),
        ("baseline_replay_speedup", base_interp / base_cached),
    ]
}

fn main() {
    harness::run(&specs::REPLAY, measure);
}
