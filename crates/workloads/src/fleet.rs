//! Fleet round driver: a generation of simulated processes, aggregated.
//!
//! One *round* is the full fleet loop from the csod-fleet crate driven
//! end to end on simulated processes:
//!
//! 1. **Launch** — `processes` independent runtimes execute a small
//!    deterministic churn workload in parallel (one WAL each). Buggy
//!    processes plant an 8-byte overwrite just past one context's
//!    requested size — invisible to watchpoints, deterministically
//!    caught by the canary at free, deterministically absorbed once the
//!    context is mitigated. The buggy *context signature is shared
//!    fleet-wide* (same code everywhere), which is exactly what makes
//!    cross-process aggregation pay.
//! 2. **Ingest** — every WAL is merged into a [`FleetStore`] through
//!    the chunked parallel pipeline.
//! 3. **Budget** — a [`SamplingBudget`] converts the fleet size into
//!    the next generation's per-process probability and a
//!    [`FleetPlan`] carrying the strongest evidence as seed records.
//!
//! Passing that plan into the next round's launch closes the loop: the
//! driver writes each new process's seed WAL before construction, so a
//! context confirmed on process A in round N is enrolled in process
//! B's `MitigationPolicy` from its first allocation in round N+1.

use csod_core::{Csod, CsodConfig, RunSummary};
use csod_ctx::{CallingContext, ContextKey, FrameTable};
use csod_fleet::par::run_parallel;
use csod_fleet::{ingest_parallel, FleetPlan, FleetStore, IngestOptions, IngestStats, SamplingBudget};
use csod_rng::Arc4Random;
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::{Machine, ThreadId, VirtAddr, VirtDuration};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The calling-context signature of the fleet's planted bug — the same
/// code ships to every process, so every buggy process confirms the
/// *same* signature and the fleet store concentrates their evidence.
pub const FLEET_BUG_SIGNATURE: &str = "fleetbug.c:7|main.c:1";

/// Parameters of one fleet round.
#[derive(Debug, Clone)]
pub struct FleetRoundConfig {
    /// Processes launched this round.
    pub processes: usize,
    /// Process `i` plants the bug iff `i % buggy_every == buggy_offset`
    /// (`buggy_every = 0` disables the bug entirely).
    pub buggy_every: usize,
    /// See [`FleetRoundConfig::buggy_every`]; varying the offset across
    /// rounds makes *different* processes hit the same fleet-wide bug.
    pub buggy_offset: usize,
    /// Allocations per process.
    pub allocations: u64,
    /// Distinct allocation contexts per process (site 0 is the bug).
    pub sites: usize,
    /// Worker threads for both the launch fan-out and the ingest.
    pub threads: usize,
    /// Processes per ingest chunk (group-commit granularity).
    pub chunk: usize,
    /// Base seed; process `i` churns with `seed + i`.
    pub seed: u64,
    /// The fleet-wide budget controller.
    pub budget: SamplingBudget,
    /// Base runtime configuration (the driver points `persist_path` at
    /// each process's own WAL).
    pub csod: CsodConfig,
}

impl Default for FleetRoundConfig {
    fn default() -> Self {
        FleetRoundConfig {
            processes: 32,
            buggy_every: 8,
            buggy_offset: 0,
            allocations: 300,
            sites: 6,
            threads: 8,
            chunk: 32,
            seed: 0xF1EE7,
            budget: SamplingBudget::default(),
            csod: CsodConfig::default(),
        }
    }
}

/// What one process observed during the round.
#[derive(Debug, Clone)]
struct ProcessResult {
    buggy: bool,
    detected: bool,
    summary: RunSummary,
}

/// One round's aggregate verdict, plus the store and next-round plan.
#[derive(Debug)]
pub struct FleetRoundOutcome {
    /// Processes launched.
    pub processes: u64,
    /// Processes that planted the bug this round.
    pub buggy: u64,
    /// Buggy processes that detected their overflow themselves.
    pub detections: u64,
    /// Processes that started already mitigated (seed WAL recovered).
    pub mitigated_at_start: u64,
    /// Buggy processes whose run stayed corruption-free — the planted
    /// overwrite landed in mitigation slack.
    pub clean_buggy: u64,
    /// Mean normalized overhead across the fleet (Figure 7 metric).
    pub avg_overhead: f64,
    /// What the ingest pipeline did.
    pub ingest: IngestStats,
    /// The merged fleet knowledge after this round.
    pub store: FleetStore,
    /// The budgeted launch plan for the *next* round.
    pub plan: FleetPlan,
}

impl FleetRoundOutcome {
    /// Every buggy process was protected: either it started mitigated
    /// and ran clean, or it detected the bug itself.
    pub fn all_buggy_accounted(&self) -> bool {
        self.detections + self.clean_buggy >= self.buggy
    }
}

/// Runs one process of the round: seed (optional), churn, finish.
fn run_process(cfg: &FleetRoundConfig, index: usize, wal: &Path, plan: Option<&FleetPlan>) -> ProcessResult {
    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    let mut heap =
        SimHeap::new(&mut machine, HeapConfig::default()).expect("fresh machine has a heap region");
    let mut config = cfg.csod.clone();
    config.persist_path = Some(wal.to_owned());
    if let Some(plan) = plan {
        // Fleet fan-out: the seed WAL is written *before* construction,
        // so startup recovery pins and mitigates every fleet-confirmed
        // context; the budget's probability applies to everything else.
        plan.seed_wal(wal).expect("seed WAL is writable");
        plan.apply(&mut config);
    }
    let mut csod = Csod::new(config, Arc::clone(&frames));

    let buggy = cfg.buggy_every > 0 && index % cfg.buggy_every == cfg.buggy_offset % cfg.buggy_every;
    let contexts: Vec<(ContextKey, CallingContext)> = (0..cfg.sites.max(2))
        .map(|s| {
            // Site 0 is the fleet-wide bug; the rest are per-process.
            let loc = if s == 0 {
                "fleetbug.c:7".to_owned()
            } else {
                format!("fleet-{index}.c:{}", 10 + s)
            };
            let ctx = CallingContext::from_locations(&frames, [loc.as_str(), "main.c:1"]);
            (ContextKey::new(frames.intern(&loc), 0x40), ctx)
        })
        .collect();

    let mut rng = Arc4Random::from_seed(cfg.seed + index as u64, 11);
    let mut ring: Vec<Option<VirtAddr>> = vec![None; 24];
    for i in 0..cfg.allocations {
        let slot = rng.next_u64() as usize % ring.len();
        if let Some(addr) = ring[slot].take() {
            csod.free(&mut machine, &mut heap, ThreadId::MAIN, addr)
                .expect("freeing a live fleet object");
        }
        // Allocation 0 always exercises the bug context, so even the
        // shortest buggy process plants the bug at least once.
        let site = if i == 0 {
            0
        } else {
            rng.next_u64() as usize % contexts.len()
        };
        let (key, ctx) = &contexts[site];
        let size = 16 + u64::from(rng.uniform(8)) * 8;
        let p = csod
            .malloc(&mut machine, &mut heap, ThreadId::MAIN, size, *key, ctx)
            .expect("fleet workload fits in the heap");
        ring[slot] = Some(p);
        if buggy && site == 0 {
            machine
                .raw_store_u64(p + size.div_ceil(8) * 8, 0xF1EE_7B06)
                .expect("boundary word is mapped");
        }
        if i % 64 == 63 {
            machine.skip_time(VirtDuration::from_millis(1));
            csod.poll(&mut machine);
        }
    }
    for slot in &mut ring {
        if let Some(addr) = slot.take() {
            csod.free(&mut machine, &mut heap, ThreadId::MAIN, addr)
                .expect("freeing a live fleet object");
        }
    }
    csod.poll(&mut machine);
    csod.drain_quarantine(&mut machine, &mut heap)
        .expect("quarantined objects are live");
    csod.finish(&mut machine);
    ProcessResult {
        buggy,
        detected: csod.detected(),
        summary: RunSummary::collect(&csod, &machine),
    }
}

/// Runs one fleet round in `dir` (per-process WALs are left in place so
/// callers can chain or inspect; remove the directory when done).
/// `plan`, when present, is the previous round's output and seeds every
/// process before launch.
pub fn run_fleet_round(cfg: &FleetRoundConfig, dir: &Path, plan: Option<&FleetPlan>) -> FleetRoundOutcome {
    std::fs::create_dir_all(dir).expect("fleet scratch dir is creatable");
    let wals: Vec<PathBuf> = (0..cfg.processes)
        .map(|i| dir.join(format!("proc-{i}.wal")))
        .collect();
    let idx: Vec<usize> = (0..cfg.processes).collect();

    // Launch: one simulated process per WAL, fanned out.
    let results: Vec<ProcessResult> =
        run_parallel(&idx, cfg.threads, |&i| run_process(cfg, i, &wals[i], plan));

    // Ingest: chunked parallel merge with a durable fleet checkpoint.
    let store = FleetStore::new();
    let ingest = ingest_parallel(
        &store,
        &wals,
        &IngestOptions {
            threads: cfg.threads,
            chunk: cfg.chunk,
            checkpoint: Some(dir.join("fleet-checkpoint.wal")),
        },
    );

    // Budget: the next generation's launch plan.
    let plan = cfg.budget.plan(&store, cfg.processes as u64, &cfg.csod.sampling);

    let buggy = results.iter().filter(|r| r.buggy).count() as u64;
    let detections = results.iter().filter(|r| r.buggy && r.detected).count() as u64;
    let mitigated_at_start = results
        .iter()
        .filter(|r| r.summary.wal_records_recovered > 0)
        .count() as u64;
    let clean_buggy = results
        .iter()
        .filter(|r| {
            r.buggy
                && r.summary.canary_free_hits == 0
                && r.summary.canary_exit_hits == 0
                && r.summary.traps == 0
        })
        .count() as u64;
    let avg_overhead = if results.is_empty() {
        0.0
    } else {
        results.iter().map(|r| r.summary.overhead).sum::<f64>() / results.len() as f64
    };
    FleetRoundOutcome {
        processes: cfg.processes as u64,
        buggy,
        detections,
        mitigated_at_start,
        clean_buggy,
        avg_overhead,
        ingest,
        store,
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("csod-fleet-round-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn two_rounds_close_the_fleet_mitigation_loop() {
        let dir = scratch("loop");
        let cfg = FleetRoundConfig {
            processes: 8,
            buggy_every: 4,
            buggy_offset: 0,
            allocations: 200,
            threads: 4,
            chunk: 4,
            ..FleetRoundConfig::default()
        };
        // Round 1: unseeded; the buggy processes detect via canaries and
        // their confirmations reach the fleet store.
        let round1 = run_fleet_round(&cfg, &dir, None);
        assert_eq!(round1.buggy, 2);
        assert_eq!(round1.detections, 2, "canary detection is deterministic");
        assert!(round1.store.get(FLEET_BUG_SIGNATURE).is_some(), "bug signature merged");
        assert_eq!(round1.mitigated_at_start, 0);
        assert!(round1.plan.initial_ppm < cfg.csod.sampling.initial_ppm);

        // Round 2: seeded from round 1's plan, *different* processes
        // buggy — mitigated from their first allocation, they run clean.
        let cfg2 = FleetRoundConfig {
            buggy_offset: 1,
            ..cfg.clone()
        };
        let round2 = run_fleet_round(&cfg2, &dir, Some(&round1.plan));
        assert_eq!(round2.mitigated_at_start, round2.processes, "every process was seeded");
        assert_eq!(round2.clean_buggy, round2.buggy, "fan-out absorbed the bug everywhere");
        assert!(round2.all_buggy_accounted());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
