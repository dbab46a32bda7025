//! The [`Spec`] of every gated bench binary: what each writes, in which
//! order, and which gates judge it. The bins, `bench_validate` and
//! `tests/baselines.rs` all read this one table.

use crate::harness::Dir::{Higher, Info, Lower};
use crate::harness::Gate::{Below, Ceiling, Floor, Limit};
use crate::harness::Spec;

/// `fastpath`: ns/alloc and ns/free through the runtime, cached vs
/// uncached decisions, uncontended and 16-thread contended.
pub const FASTPATH: Spec = Spec {
    file: "BENCH_fastpath.json",
    metrics: &[
        ("threads_contended", Info),
        ("cached_refresh", Info),
        ("uncontended_cached_ns_per_alloc", Lower),
        ("uncontended_cached_ns_per_free", Lower),
        ("uncontended_uncached_ns_per_alloc", Lower),
        ("uncontended_uncached_ns_per_free", Lower),
        ("contended_cached_ns_per_alloc", Lower),
        ("contended_uncached_ns_per_alloc", Lower),
        ("contended_speedup", Higher),
    ],
    gates: &[
        Ceiling("uncontended_cached_ns_per_alloc"),
        Ceiling("uncontended_cached_ns_per_free"),
        Ceiling("contended_cached_ns_per_alloc"),
    ],
    invariants: &[],
    remeasures: 0,
};

/// `freepath`: unwatched and watched frees, trap dispatch, and the
/// parallel scenario driver.
pub const FREEPATH: Spec = Spec {
    file: "BENCH_freepath.json",
    metrics: &[
        ("unwatched_ns_per_free", Lower),
        ("watched_deferred_ns_per_free", Lower),
        ("watched_synchronous_ns_per_free", Lower),
        ("deferred_free_speedup", Higher),
        ("teardown_batch_avg", Info),
        ("dispatch_threads", Info),
        ("trap_dispatch_fd_index_ns", Lower),
        ("trap_dispatch_scan_ns", Lower),
        ("dispatch_speedup", Higher),
        ("parallel_trace_threads", Info),
        ("parallel_serial_ms", Lower),
        ("parallel_fanned_ms", Lower),
        ("parallel_trace_speedup", Higher),
    ],
    gates: &[
        Ceiling("unwatched_ns_per_free"),
        Ceiling("watched_deferred_ns_per_free"),
        Ceiling("trap_dispatch_fd_index_ns"),
    ],
    invariants: &[],
    remeasures: 2,
};

/// `tracing`: tracing-on vs tracing-off through the runtime. The gate
/// is a ratio of two fresh measurements, so no baseline is read.
pub const TRACING: Spec = Spec {
    file: "BENCH_tracing.json",
    metrics: &[
        ("trace_compiled_off", Info),
        ("traced_ns_per_alloc", Lower),
        ("traced_ns_per_free", Lower),
        ("untraced_ns_per_alloc", Lower),
        ("untraced_ns_per_free", Lower),
        ("alloc_overhead_ratio", Lower),
        ("free_overhead_ratio", Lower),
        ("events_per_round", Info),
    ],
    // The 10% observability budget.
    gates: &[
        Limit("alloc_overhead_ratio", 1.10),
        Limit("free_overhead_ratio", 1.10),
    ],
    invariants: &[],
    remeasures: 2,
};

/// `bench_replay`: batched segment replay vs the per-access
/// interpreter, at the execution and workload layers.
pub const REPLAY: Spec = Spec {
    file: "BENCH_replay.json",
    metrics: &[
        ("exec_interpreted_ns_per_access", Lower),
        ("exec_replay_ns_per_access", Lower),
        ("exec_replay_speedup", Higher),
        ("csod_interpreted_ms", Lower),
        ("csod_cached_ms", Lower),
        ("csod_replay_speedup", Higher),
        ("csod_hit_rate", Higher),
        ("baseline_interpreted_ms", Lower),
        ("baseline_cached_ms", Lower),
        ("baseline_replay_speedup", Higher),
    ],
    // The whole point of the engine is a ≥10× batched replay.
    gates: &[
        Ceiling("exec_replay_ns_per_access"),
        Ceiling("csod_cached_ms"),
        Floor("exec_replay_speedup", 10.0),
    ],
    invariants: &[],
    remeasures: 2,
};

/// `bench_fleet`: sharded parallel ingest vs naive serial ingest, and a
/// full fleet round.
pub const FLEET: Spec = Spec {
    file: "BENCH_fleet.json",
    metrics: &[
        ("merge_records", Info),
        ("merge_serial_ms", Lower),
        ("merge_parallel_ms", Lower),
        ("merge_parallel_speedup", Higher),
        ("merge_mem_serial_ms", Lower),
        ("merge_mem_parallel_ms", Lower),
        ("merge_records_per_sec", Higher),
        ("fleet_round_ms", Lower),
        ("fleet_round_processes", Info),
        ("fleet_budget_ppm", Info),
        ("fleet_avg_overhead", Info),
        ("fleet_detections", Info),
    ],
    // Group-commit + fan-out must stay worth ≥4× over naive ingest.
    gates: &[
        Ceiling("merge_parallel_ms"),
        Ceiling("fleet_round_ms"),
        Floor("merge_parallel_speedup", 4.0),
    ],
    invariants: &[],
    remeasures: 2,
};

/// `backend`: the runtime over the null backend (CSOD's own ceiling)
/// vs over the simulator.
pub const BACKEND: Spec = Spec {
    file: "BENCH_backend.json",
    metrics: &[
        ("round_allocs", Info),
        ("null_ns_per_alloc", Lower),
        ("null_ns_per_free", Lower),
        ("sim_ns_per_alloc", Lower),
        ("sim_ns_per_free", Lower),
        ("sim_over_null_alloc", Info),
        ("sim_over_null_free", Info),
    ],
    gates: &[Ceiling("null_ns_per_alloc"), Ceiling("null_ns_per_free")],
    invariants: &[],
    remeasures: 0,
};

/// `bench_analyze`: analyzer precision and sweep time, context-blind
/// (`k = 0`) vs the default call-string limit (`k = 2`).
pub const ANALYZE: Spec = Spec {
    file: "BENCH_analyze.json",
    metrics: &[
        ("corpus_analyses", Info),
        ("k_default", Info),
        ("verdict_rows_k0", Info),
        ("unknown_rows_k0", Info),
        ("unknown_pct_k0", Info),
        ("suspicious_rows_k0", Info),
        ("verdict_rows_k2", Info),
        ("unknown_rows_k2", Info),
        ("unknown_pct_k2", Info),
        ("suspicious_rows_k2", Info),
        ("contexts_k2", Info),
        ("summary_reuses_k2", Info),
        ("certificates_k2", Info),
        ("certified_accesses_k2", Info),
        ("certificate_violations", Info),
        ("analyze_ms_k0", Lower),
        ("analyze_ms_k2", Lower),
    ],
    gates: &[Ceiling("analyze_ms_k2")],
    // Deterministic, baseline or not: context sensitivity strictly
    // reduces unknowns, certifies something (a count, so ≥ 1 is > 0),
    // and the oracle refutes no certificate.
    invariants: &[
        Below("unknown_rows_k2", "unknown_rows_k0"),
        Floor("certificates_k2", 1.0),
        Limit("certificate_violations", 0.0),
    ],
    remeasures: 0,
};

/// Every gated bench, in CI order.
pub const ALL: [&Spec; 7] = [
    &FASTPATH, &FREEPATH, &TRACING, &REPLAY, &FLEET, &BACKEND, &ANALYZE,
];
