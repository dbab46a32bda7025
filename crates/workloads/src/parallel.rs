//! Parallel scenario driver: fans independent scenarios across OS
//! threads.
//!
//! Every simulated execution in this workspace is self-contained — one
//! [`sim_machine::Machine`], one heap, one runtime — so a batch of
//! scenarios is embarrassingly parallel as long as each job builds its
//! own world. The generic work-stealing driver lives in
//! `csod_fleet::par` (the fleet ingest pipeline fans out over the same
//! engine, and `workloads` already sits above `csod-fleet` in the crate
//! stack); this module keeps the scenario-shaped entry points over it.

use crate::chaos::{run_chaos_soak, ChaosConfig, ChaosOutcome};
use crate::driver::{RunOutcome, ToolSpec, TraceRunner};
use crate::sites::SiteRegistry;
use crate::trace::Event;
use csod_fleet::par::{run_parallel, run_parallel_chunked};

/// Runs one chaos soak per config, in parallel. Each soak owns its own
/// machine, heap and runtime, so the fleet's outcomes are bit-identical
/// to running the same configs serially.
pub fn run_chaos_fleet(configs: &[ChaosConfig], threads: usize) -> Vec<ChaosOutcome> {
    run_parallel(configs, threads, run_chaos_soak)
}

/// Below this many traces per would-be worker, fanning out costs more
/// than it saves (thread spawn + counter contention dwarf the work), so
/// [`run_traces_parallel`] sheds workers until each one has at least
/// this much to do — down to a plain serial loop for tiny batches.
const MIN_TRACES_PER_WORKER: usize = 2;

/// Runs one [`TraceRunner`] execution per trace against a shared site
/// registry, in parallel — the scaling path for the benchmark and
/// effectiveness suites.
///
/// Small batches fall back to a serial in-line loop (see
/// [`MIN_TRACES_PER_WORKER`]); larger ones claim a few traces per
/// counter increment so the steal overhead amortises without starving
/// the tail.
pub fn run_traces_parallel(
    registry: &SiteRegistry,
    tool: &ToolSpec,
    traces: &[Vec<Event>],
    threads: usize,
) -> Vec<RunOutcome> {
    let workers = threads.min(traces.len() / MIN_TRACES_PER_WORKER).max(1);
    // ~4 steals per worker keeps chunks coarse but the tail balanced.
    let chunk = traces.len().div_ceil(workers * 4).max(1);
    run_parallel_chunked(traces, workers, chunk, |trace| {
        TraceRunner::new(registry, tool.clone()).run(trace.iter().cloned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csod_core::CsodConfig;
    use csod_ctx::FrameTable;
    use sim_machine::AccessKind;
    use sim_machine::SiteToken;
    use std::sync::Arc;

    #[test]
    fn small_trace_batches_run_serially() {
        // Indirect but observable: a 1-trace batch must produce the same
        // outcome whatever thread count is requested, and must not panic
        // on a worker count larger than the batch.
        let mut reg = SiteRegistry::new("tiny", Arc::new(FrameTable::new()));
        reg.add_alloc_sites(1);
        let traces = vec![vec![
            Event::malloc(0, 64, 0),
            Event::access(0, 0, 8, AccessKind::Write, SiteToken(0)),
            Event::free(0),
        ]];
        let tool = ToolSpec::Csod(CsodConfig::default());
        let serial = run_traces_parallel(&reg, &tool, &traces, 1);
        let fanned = run_traces_parallel(&reg, &tool, &traces, 64);
        assert_eq!(serial, fanned);
    }

    fn small_soak(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            allocations: 2_000,
            sites: 8,
            ring: 16,
            thread_churn: 1,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn fleet_member_matches_serial_soak_exactly() {
        let configs: Vec<ChaosConfig> = (0..4).map(|i| small_soak(0xFEE7 + i)).collect();
        let fleet = run_chaos_fleet(&configs, 4);
        assert_eq!(fleet.len(), configs.len());
        for (cfg, parallel) in configs.iter().zip(&fleet) {
            let serial = run_chaos_soak(cfg);
            assert_eq!(
                serial.summary, parallel.summary,
                "a soak's outcome must not depend on scheduling"
            );
            assert_eq!(serial.detected, parallel.detected);
            assert!(parallel.leak_free());
        }
    }

    #[test]
    fn parallel_traces_detect_like_serial_ones() {
        let mut reg = SiteRegistry::new("par", Arc::new(FrameTable::new()));
        reg.add_alloc_sites(4);
        let bug = reg.add_access_site("par", "bug.c:1");
        let traces: Vec<Vec<Event>> = (0..6)
            .map(|i| {
                let mut t = vec![Event::malloc(0, 64, 0)];
                if i % 2 == 0 {
                    t.push(Event::overflow(0, AccessKind::Write, bug));
                } else {
                    t.push(Event::access(0, 0, 8, AccessKind::Write, SiteToken(0)));
                }
                t.push(Event::free(0));
                t
            })
            .collect();
        let tool = ToolSpec::Csod(CsodConfig::default());
        let outcomes = run_traces_parallel(&reg, &tool, &traces, 3);
        assert_eq!(outcomes.len(), 6);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.detected, i % 2 == 0, "trace {i}");
        }
    }
}
