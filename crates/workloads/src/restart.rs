//! Kill→recover→rerun: the crash-safety acceptance harness.
//!
//! Each scenario drives the same deterministic buggy workload through
//! three executions sharing one on-disk WAL, reproducing the paper's
//! "always detected by the second execution" claim (Section V-A2) under
//! process-kill chaos:
//!
//! 1. **First execution, under fire** — a [`FaultPlan`] kill checkpoint
//!    fires at an arbitrary allocation and the run is abandoned on the
//!    spot: no `finish()`, no flushes, no WAL compaction — the runtime
//!    and its report sink simply drop, as under `SIGKILL`. Optionally a
//!    torn record is appended to the WAL afterwards, simulating death
//!    *mid-append*.
//! 2. **Second execution** — recovers whatever the WAL holds and reruns
//!    the workload to completion. Between what the first run confirmed
//!    (appended and synced *before* its report was sinked) and this
//!    run's own deterministic canary checks, the planted bug is known by
//!    the end of this execution — the gate the kill-chaos CI job holds.
//! 3. **Third execution** — recovers the compacted WAL, so the buggy
//!    context is hardened from its first allocation: the same overwrite
//!    lands in mitigation slack and corrupts nothing.
//!
//! The workload plants its bug with raw stores just past the requested
//! size — invisible to watchpoints, deterministically caught by canary
//! checks, and deterministically absorbed once mitigation moves the
//! canary out of reach. Detection therefore never depends on sampling
//! luck, which is what lets the fleet gate on **100 %** of scenarios.

use csod_core::{Csod, CsodConfig, RunSummary};
use csod_ctx::{CallingContext, ContextKey, FrameTable};
use csod_fleet::par::run_parallel;
use csod_fleet::recover_states;
use csod_persist::{RecordKind, RecoveredState, Wal, WalRecord};
use csod_rng::Arc4Random;
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::{FaultPlan, Machine, ThreadId, VirtAddr, VirtDuration};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Parameters of one kill→recover→rerun scenario.
#[derive(Debug, Clone)]
pub struct RestartConfig {
    /// Seed for the workload churn and the kill plan.
    pub seed: u64,
    /// Allocations per execution.
    pub allocations: u64,
    /// Distinct allocation contexts; context 0 is the planted bug.
    pub sites: usize,
    /// Live-object ring size.
    pub ring: usize,
    /// Kill-checkpoint probability per allocation (first execution
    /// only), in parts per million.
    pub kill_ppm: u32,
    /// After a kill, also append a torn record to the WAL — the
    /// mid-append death the recovery path must skip without resurrecting.
    pub torn_tail: bool,
    /// Base runtime configuration; the harness points `persist_path`
    /// and the trap-report sink into the scenario's own directory.
    pub csod: CsodConfig,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            seed: 0x2E57A27,
            allocations: 2_000,
            sites: 8,
            ring: 32,
            kill_ppm: 2_000,
            torn_tail: false,
            csod: CsodConfig::default(),
        }
    }
}

/// What one execution of the workload observed.
#[derive(Debug, Clone)]
struct Execution {
    /// `Some(i)`: the kill checkpoint fired before allocation `i` and
    /// the run was abandoned without `finish()`.
    killed_at: Option<u64>,
    /// Whether any overflow was detected before the run ended (or died).
    detected: bool,
    /// End-of-run summary. For killed runs this is collected at the
    /// point of death — counters the process would have reported had it
    /// been able to.
    summary: RunSummary,
    /// Report lines the sink's drop path salvaged (killed runs only;
    /// clean runs flush explicitly and count zero).
    salvaged_reports: u64,
}

/// Verdict of one three-execution scenario.
#[derive(Debug, Clone)]
pub struct RestartOutcome {
    /// The scenario's seed, for reproduction.
    pub seed: u64,
    /// Where the first execution died (`None`: the kill plan never
    /// fired and it ran to completion).
    pub killed_at: Option<u64>,
    /// Whether a torn mid-append tail was planted after the kill.
    pub torn_tail_planted: bool,
    /// First execution detected the bug before dying.
    pub first_detected: bool,
    /// Second execution detected the bug itself.
    pub second_detected: bool,
    /// WAL records the second execution recovered at startup.
    pub second_recovered: u64,
    /// Corrupt records skipped across the second and third recoveries.
    pub skipped_corrupt: u64,
    /// Report lines salvaged by the sink's drop path in the first
    /// (killed) execution.
    pub reports_salvaged_on_drop: u64,
    /// Startup WAL reads (second + third executions) satisfied by the
    /// fleet's batched parallel recovery instead of a per-process
    /// re-open + re-scan — the read syscalls the fleet driver saved.
    /// Zero when the scenario ran standalone ([`run_restart_scenario`]).
    pub wal_reads_batched: u64,
    /// Full summary of the third (mitigated) execution.
    pub third: RunSummary,
}

impl RestartOutcome {
    /// The paper's §V-A2 gate: the bug is known no later than the end
    /// of the second execution.
    pub fn detected_by_second(&self) -> bool {
        self.first_detected || self.second_detected
    }

    /// The third execution started from recovered state and enrolled
    /// the buggy context in the mitigation policy.
    pub fn mitigated_on_third(&self) -> bool {
        self.third.wal_records_recovered > 0 && self.third.contexts_mitigated > 0
    }

    /// The third execution saw no corruption at all: every planted
    /// overwrite landed in mitigation slack.
    pub fn third_run_clean(&self) -> bool {
        self.third.canary_free_hits == 0 && self.third.canary_exit_hits == 0 && self.third.traps == 0
    }

    /// The full closed loop held for this scenario.
    pub fn passed(&self) -> bool {
        self.detected_by_second() && self.mitigated_on_third() && self.third_run_clean()
    }
}

/// Runs the workload once against the scenario's WAL. `kill` installs
/// the kill plan (first execution); killed runs are abandoned with no
/// termination path at all. `recovered` is a WAL state the fleet driver
/// already read through batched parallel recovery — when present, the
/// runtime starts from it instead of re-reading its own log.
fn run_once(
    cfg: &RestartConfig,
    wal_path: &Path,
    report_path: &Path,
    kill: bool,
    recovered: Option<RecoveredState>,
) -> Execution {
    let frames = Arc::new(FrameTable::new());
    let mut machine = Machine::new();
    if kill {
        machine.install_fault_plan(FaultPlan::new(cfg.seed ^ 0x0DEAD).process_kills_ppm(cfg.kill_ppm));
    }
    let mut heap =
        SimHeap::new(&mut machine, HeapConfig::default()).expect("fresh machine has a heap region");
    let mut config = cfg.csod.clone();
    config.persist_path = Some(wal_path.to_owned());
    config.trace.trap_report_path = Some(report_path.to_owned());
    let mut csod = match recovered {
        Some(state) => Csod::with_recovered(config, Arc::clone(&frames), state),
        None => Csod::new(config, Arc::clone(&frames)),
    };
    let salvage = csod.flushed_on_drop_handle();

    let contexts: Vec<(ContextKey, CallingContext)> = (0..cfg.sites.max(1))
        .map(|i| {
            let loc = format!("restart.c:{}", 10 + i);
            let ctx = CallingContext::from_locations(&frames, [loc.as_str(), "main.c:1"]);
            (ContextKey::new(frames.intern(&loc), 0x40), ctx)
        })
        .collect();

    // The workload stream is seeded independently of the kill plan, so
    // all three executions replay the same allocations and overwrites.
    let mut rng = Arc4Random::from_seed(cfg.seed ^ 0x5E57A27, 7);
    let mut ring: Vec<Option<VirtAddr>> = vec![None; cfg.ring.max(1)];
    let mut killed_at = None;

    for i in 0..cfg.allocations {
        if kill && machine.fault_kill_now() {
            killed_at = Some(i);
            break;
        }
        let slot = rng.next_u64() as usize % ring.len();
        if let Some(addr) = ring[slot].take() {
            csod.free(&mut machine, &mut heap, ThreadId::MAIN, addr)
                .expect("freeing a live restart object");
        }
        // Allocation 0 always comes from the buggy context, so even the
        // shortest execution plants the bug at least once.
        let site = if i == 0 {
            0
        } else {
            rng.next_u64() as usize % contexts.len()
        };
        let (key, ctx) = &contexts[site];
        let size = 16 + u64::from(rng.uniform(8)) * 8;
        let p = csod
            .malloc(&mut machine, &mut heap, ThreadId::MAIN, size, *key, ctx)
            .expect("restart workload fits in the heap");
        ring[slot] = Some(p);
        if site == 0 {
            // The planted bug: an 8-byte overwrite just past the
            // requested size. Unmitigated, that word is the canary —
            // caught deterministically at free or exit. Mitigated, it is
            // slack — absorbed.
            machine
                .raw_store_u64(p + size.div_ceil(8) * 8, 0xDEAD_BEEF)
                .expect("boundary word is mapped");
        }
        if i % 64 == 63 {
            machine.skip_time(VirtDuration::from_millis(1));
            csod.poll(&mut machine);
        }
    }

    if let Some(at) = killed_at {
        // SIGKILL semantics: collect what the dying process knew, then
        // drop everything mid-flight. The WAL keeps only what append()
        // already synced; the report sink salvages its pending lines in
        // its Drop impl (counted through the shared handle).
        let execution = Execution {
            killed_at: Some(at),
            detected: csod.detected(),
            summary: RunSummary::collect(&csod, &machine),
            salvaged_reports: 0,
        };
        drop(csod);
        return Execution {
            salvaged_reports: salvage.load(Ordering::Relaxed),
            ..execution
        };
    }

    for slot in &mut ring {
        if let Some(addr) = slot.take() {
            csod.free(&mut machine, &mut heap, ThreadId::MAIN, addr)
                .expect("freeing a live restart object");
        }
    }
    csod.poll(&mut machine);
    csod.drain_quarantine(&mut machine, &mut heap)
        .expect("quarantined objects are live");
    csod.finish(&mut machine);
    Execution {
        killed_at: None,
        detected: csod.detected(),
        summary: RunSummary::collect(&csod, &machine),
        salvaged_reports: 0,
    }
}

/// Plants a mid-append death on the scenario's WAL: a record whose tail
/// never reached the disk. Recovery must skip it — and must not
/// resurrect its signature.
fn plant_torn_tail(wal: &Path, seed: u64) {
    let torn = WalRecord::new(RecordKind::TrapSignature, 999_999, "torn.c:1|main.c:1");
    let keep = 4 + (seed as usize % 8);
    let mut handle = Wal::open(wal);
    handle.append_partial(&torn, keep);
    handle.sync();
}

/// Folds three executions into the scenario verdict.
fn outcome_of(
    seed: u64,
    torn_tail_planted: bool,
    first: &Execution,
    second: &Execution,
    third: Execution,
) -> RestartOutcome {
    RestartOutcome {
        seed,
        killed_at: first.killed_at,
        torn_tail_planted,
        first_detected: first.detected,
        second_detected: second.detected,
        second_recovered: second.summary.wal_records_recovered,
        skipped_corrupt: second.summary.wal_records_skipped_corrupt
            + third.summary.wal_records_skipped_corrupt,
        reports_salvaged_on_drop: first.salvaged_reports,
        wal_reads_batched: second.summary.wal_reads_batched + third.summary.wal_reads_batched,
        third: third.summary,
    }
}

/// Runs one full kill→recover→rerun scenario in its own scratch
/// directory (removed on return).
pub fn run_restart_scenario(cfg: &RestartConfig) -> RestartOutcome {
    let dir = scenario_dir(cfg.seed);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scenario scratch dir is creatable");
    let wal = dir.join("contexts.wal");
    let reports = dir.join("traps.jsonl");

    let first = run_once(cfg, &wal, &reports, true, None);
    let torn_tail_planted = cfg.torn_tail && first.killed_at.is_some();
    if torn_tail_planted {
        plant_torn_tail(&wal, cfg.seed);
    }

    let second = run_once(cfg, &wal, &reports, false, None);
    let third = run_once(cfg, &wal, &reports, false, None);

    let outcome = outcome_of(cfg.seed, torn_tail_planted, &first, &second, third);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Runs a fleet of restart scenarios across OS threads. Scenario `i`
/// gets seed `base_seed + i` and plants a torn WAL tail on every other
/// kill, so a fleet of any size covers both recovery shapes.
///
/// Unlike [`run_restart_scenario`] standalone — where each of the three
/// executions re-opens and re-scans its own WAL — the fleet runs in
/// *phases*: all first (killed) executions, then **one batched parallel
/// recovery pass** over every scenario's WAL
/// ([`csod_fleet::recover_states`]), then all second executions seeded
/// from the pre-read states, and the same again for the third
/// executions. Each WAL is read exactly once per generation by the
/// fan-out instead of once per process; the saved re-open/read syscalls
/// are counted in [`RestartOutcome::wal_reads_batched`] (surfaced from
/// `RunSummary::wal_reads_batched`). Per-scenario outcomes are
/// unchanged: recovery consumes the identical bytes either way.
pub fn run_restart_fleet(base: &RestartConfig, scenarios: u64, threads: usize) -> Vec<RestartOutcome> {
    let configs: Vec<RestartConfig> = (0..scenarios)
        .map(|i| RestartConfig {
            seed: base.seed + i,
            torn_tail: i % 2 == 0,
            ..base.clone()
        })
        .collect();
    let dirs: Vec<PathBuf> = configs.iter().map(|c| scenario_dir(c.seed)).collect();
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("scenario scratch dir is creatable");
    }
    let wals: Vec<PathBuf> = dirs.iter().map(|d| d.join("contexts.wal")).collect();
    let reports: Vec<PathBuf> = dirs.iter().map(|d| d.join("traps.jsonl")).collect();
    let idx: Vec<usize> = (0..configs.len()).collect();

    // Phase 1: every first execution dies (or completes) in parallel.
    let firsts: Vec<(Execution, bool)> = run_parallel(&idx, threads, |&i| {
        let first = run_once(&configs[i], &wals[i], &reports[i], true, None);
        let torn = configs[i].torn_tail && first.killed_at.is_some();
        if torn {
            plant_torn_tail(&wals[i], configs[i].seed);
        }
        (first, torn)
    });

    // Phase 2+3: one batched recovery pass, then every second execution
    // starts from its pre-read state. Likewise for the third generation.
    let pre_second = recover_states(&wals, threads);
    let seconds: Vec<Execution> = run_parallel(&idx, threads, |&i| {
        run_once(&configs[i], &wals[i], &reports[i], false, Some(pre_second[i].clone()))
    });
    let pre_third = recover_states(&wals, threads);
    let thirds: Vec<Execution> = run_parallel(&idx, threads, |&i| {
        run_once(&configs[i], &wals[i], &reports[i], false, Some(pre_third[i].clone()))
    });

    let mut outcomes = Vec::with_capacity(configs.len());
    for (i, third) in thirds.into_iter().enumerate() {
        let (first, torn) = &firsts[i];
        outcomes.push(outcome_of(configs[i].seed, *torn, first, &seconds[i], third));
        let _ = std::fs::remove_dir_all(&dirs[i]);
    }
    outcomes
}

fn scenario_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "csod-restart-{}-{seed:x}",
        std::process::id()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unkilled_scenario_still_closes_the_loop() {
        // kill_ppm 0: the first execution completes, detects, compacts.
        let cfg = RestartConfig {
            seed: 0xA11A,
            allocations: 600,
            kill_ppm: 0,
            ..RestartConfig::default()
        };
        let out = run_restart_scenario(&cfg);
        assert_eq!(out.killed_at, None);
        assert!(out.first_detected);
        assert!(out.second_recovered > 0, "compacted WAL was empty");
        assert!(out.passed(), "loop failed: {out:?}");
        // Mitigated from the first allocation: the second and third
        // executions never see corruption.
        assert!(!out.second_detected);
    }

    #[test]
    fn fleet_batches_recovery_reads_without_changing_outcomes() {
        let base = RestartConfig {
            seed: 0xF1EE7,
            allocations: 400,
            kill_ppm: 10_000,
            ..RestartConfig::default()
        };
        let fleet = run_restart_fleet(&base, 3, 2);
        assert_eq!(fleet.len(), 3);
        for (i, out) in fleet.iter().enumerate() {
            assert!(out.passed(), "scenario {i} failed: {out:?}");
            assert_eq!(
                out.wal_reads_batched, 2,
                "second and third executions each saved one WAL re-read"
            );
            // The batched recovery consumed the identical bytes: verdicts
            // match the standalone serial scenario field for field.
            let solo = run_restart_scenario(&RestartConfig {
                seed: base.seed + i as u64,
                torn_tail: i % 2 == 0,
                ..base.clone()
            });
            assert_eq!(solo.killed_at, out.killed_at, "scenario {i}");
            assert_eq!(solo.second_detected, out.second_detected, "scenario {i}");
            assert_eq!(solo.second_recovered, out.second_recovered, "scenario {i}");
            assert_eq!(solo.skipped_corrupt, out.skipped_corrupt, "scenario {i}");
            assert_eq!(solo.third.contexts_mitigated, out.third.contexts_mitigated);
            assert_eq!(solo.wal_reads_batched, 0, "standalone path never batches");
        }
    }

    #[test]
    fn killed_scenario_detects_by_the_second_execution() {
        // A kill rate high enough that the first execution reliably
        // dies within the first few hundred allocations.
        let cfg = RestartConfig {
            seed: 0x4B31,
            allocations: 1_000,
            kill_ppm: 20_000,
            torn_tail: true,
            ..RestartConfig::default()
        };
        let out = run_restart_scenario(&cfg);
        assert!(out.killed_at.is_some(), "kill plan never fired");
        assert!(out.passed(), "loop failed: {out:?}");
        if out.torn_tail_planted {
            assert!(out.skipped_corrupt > 0, "torn tail was not skipped");
        }
    }
}
