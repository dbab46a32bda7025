//! The `fleet` workload: generations of the fleet loop.
//!
//! Each generation launches `processes` simulated processes (each with
//! its own WAL), ingests their WALs into the sharded fleet store, and
//! plans the next generation under the global sampling budget. A pass
//! runs an unseeded bootstrap generation, which is its set-up, and then
//! two measured generations: the first is seeded from the bootstrap's
//! plan, the second from the first one's. One process per generation
//! plants the fleet-wide bug. WALs go in a directory under the working
//! directory.
//!
//! Host metrics are process CPU time, not wall time: every process
//! compacts its WAL with an fsync, and on a journaling disk those waits
//! are longer than the work and vary from run to run.
//!
//! The rounds run inside `run_fleet_round`, which the benchmark cannot
//! time piece by piece. The traced run therefore replays the
//! persistence and merge calls on each round's own WALs, timing each:
//! `Wal::recover` per WAL, `Wal::compact` of the merged evidence,
//! `ingest_parallel`, and `SamplingBudget::plan`.

use crate::report::{median, peak_rss_mb, process_cpu_time, splitmix, PassLatencies, RunResult};
use crate::spans::{self, span, LayerTime};
use csod_fleet::{ingest_parallel, FleetStore, IngestOptions};
use csod_persist::Wal;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{run_fleet_round, FleetRoundConfig, FleetRoundOutcome};

/// Generations per pass: the unseeded bootstrap generation, then the
/// measured ones, each seeded from the plan of the one before.
const GENERATIONS: usize = 3;

/// Worker threads for launch and ingest. On a two-vCPU host, two
/// workers made the process CPU time itself vary about twice as much
/// from run to run as one.
const THREADS: usize = 1;

/// Size of one generation.
#[derive(Debug, Clone)]
pub struct Params {
    /// Processes per generation.
    pub processes: usize,
    /// Allocations each process makes.
    pub allocations: u64,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            processes: 4,
            allocations: 200_000,
        }
    }
}

/// Deterministic outcome of a pass: identical for a given seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Per generation, bootstrap first: (buggy, detected, clean buggy,
    /// started mitigated).
    pub generations: Vec<(u64, u64, u64, u64)>,
    /// Per generation: mean normalized overhead.
    pub overheads: Vec<f64>,
    /// Per generation: the plan's per-process probability, ppm.
    pub planned_ppm: Vec<u32>,
}

/// Per-generation counters read from the round outcome.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    records_merged: u64,
    shard_commits: u64,
    syncs: u64,
}

struct Pass {
    /// Process CPU time of the set-up: the WAL directories and the
    /// bootstrap generation.
    setup: Duration,
    /// Process CPU time of each measured generation, every worker
    /// thread included.
    cpu_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    sim: SimOutcome,
    counts: Vec<Counts>,
    /// Traced passes only: wall time of each `run_fleet_round`.
    round_ns: Vec<u64>,
}

fn config(seed: u64, params: &Params, generation: usize) -> FleetRoundConfig {
    FleetRoundConfig {
        processes: params.processes,
        // One process per generation is buggy, a different one each time.
        buggy_every: params.processes,
        buggy_offset: generation,
        threads: THREADS,
        // One group commit per generation.
        chunk: params.processes,
        allocations: params.allocations,
        seed: splitmix(seed) >> 16,
        ..FleetRoundConfig::default()
    }
}

fn wal_paths(dir: &Path, processes: usize) -> Vec<PathBuf> {
    (0..processes)
        .map(|i| dir.join(format!("proc-{i}.wal")))
        .collect()
}

/// Replays the round's persistence and merge calls on its own WALs.
fn replay_layers(dir: &Path, cfg: &FleetRoundConfig) {
    let wals = wal_paths(dir, cfg.processes);
    for wal in &wals {
        span("persist.recover", || Wal::recover(wal));
    }
    let store = FleetStore::new();
    let options = IngestOptions {
        threads: cfg.threads,
        chunk: cfg.chunk,
        checkpoint: Some(dir.join("replay-checkpoint.wal")),
    };
    span("fleet.ingest", || ingest_parallel(&store, &wals, &options));
    let records = store.strongest_records();
    span("persist.compact", || {
        Wal::compact(&dir.join("replay-compact.wal"), &records)
    })
    .expect("replay compaction is writable");
    span("fleet.plan", || {
        cfg.budget
            .plan(&store, cfg.processes as u64, &cfg.csod.sampling)
    });
}

fn pass(seed: u64, params: &Params, dir: &Path, traced: bool) -> Pass {
    // Each generation is a fresh set of processes with WALs of its own.
    let setup_start = process_cpu_time();
    let dirs: Vec<PathBuf> = (0..GENERATIONS)
        .map(|g| dir.join(format!("gen{g}")))
        .collect();
    for d in &dirs {
        std::fs::create_dir_all(d).expect("WAL directory is creatable");
    }

    let mut p = Pass {
        setup: Duration::ZERO,
        cpu_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        sim: SimOutcome {
            generations: Vec::new(),
            overheads: Vec::new(),
            planned_ppm: Vec::new(),
        },
        counts: Vec::new(),
        round_ns: Vec::new(),
    };
    let mut plan = None;
    for (generation, dir) in dirs.iter().enumerate() {
        let cfg = config(seed, params, generation);
        let (start, cpu_start) = (Instant::now(), process_cpu_time());
        let outcome: Option<FleetRoundOutcome> = catch_unwind(AssertUnwindSafe(|| {
            run_fleet_round(&cfg, dir, plan.as_ref())
        }))
        .ok();
        let cpu_end = process_cpu_time();
        if generation == 0 {
            p.setup = cpu_end - setup_start;
        } else {
            p.cpu_ns
                .push(u64::try_from((cpu_end - cpu_start).as_nanos()).unwrap_or(u64::MAX));
        }
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        p.attempted += cfg.processes as u64;
        let Some(round) = outcome else {
            p.failed += cfg.processes as u64;
            p.problems.push(format!(
                "fleet: generation {} did not finish",
                generation + 1
            ));
            break;
        };
        p.attempted += round.ingest.records;
        p.failed += round.ingest.corrupt_skipped + (round.processes - round.ingest.processes);
        if !round.all_buggy_accounted() {
            p.problems.push(format!(
                "fleet: generation {} left buggy processes unprotected",
                generation + 1
            ));
        }
        if plan.is_some() && round.mitigated_at_start != round.processes {
            p.problems.push(format!(
                "fleet: {} of {} processes of generation {} started unmitigated",
                round.processes - round.mitigated_at_start,
                round.processes,
                generation + 1
            ));
        }
        p.sim.generations.push((
            round.buggy,
            round.detections,
            round.clean_buggy,
            round.mitigated_at_start,
        ));
        p.sim.overheads.push(round.avg_overhead);
        p.sim.planned_ppm.push(round.plan.initial_ppm);
        let merge = round.store.stats();
        p.counts.push(Counts {
            records_merged: merge.records_merged,
            shard_commits: merge.shard_commits,
            // Ingest group commits, plus one seed-WAL compaction per
            // process launched from a plan.
            syncs: round.ingest.checkpoint_syncs + if plan.is_some() { round.processes } else { 0 },
        });
        if traced {
            p.round_ns.push(ns);
            replay_layers(dir, &cfg);
        }
        plan = Some(round.plan);
    }
    let _ = std::fs::remove_dir_all(dir);
    p
}

/// The simulated outcome of one untraced pass with WALs under `dir`.
pub fn simulate(seed: u64, params: &Params, dir: &Path) -> SimOutcome {
    pass(seed, params, dir, false).sim
}

fn account(result: &mut RunResult, p: &mut Pass, reference: &SimOutcome) {
    result.attempted += p.attempted;
    result.failed += p.failed;
    result.problems.append(&mut p.problems);
    result.check(p.sim == *reference, || {
        "fleet: simulated outcome changed between passes".into()
    });
}

fn sim_metrics(result: &mut RunResult, sim: &SimOutcome) {
    let buggy: u64 = sim.generations.iter().map(|g| g.0).sum();
    let protected: u64 = sim.generations.iter().map(|g| (g.1 + g.2).min(g.0)).sum();
    result
        .metrics
        .insert("caught_pct", 100.0 * protected as f64 / buggy.max(1) as f64);
    let n = sim.overheads.len().max(1) as f64;
    result.metrics.insert(
        "sim_overhead_pct",
        (sim.overheads.iter().sum::<f64>() / n - 1.0) * 100.0,
    );
}

/// The untraced run: passes until `seconds` elapse. Throughput is the
/// median of the passes' rates over the measured generations. Latency
/// is a measured generation's CPU time: per pass, the faster of the two
/// is its p50 and the slower its tail, and the run reports the medians.
pub fn run(seed: u64, seconds: f64, params: &Params, wal_dir: &Path) -> RunResult {
    let mut result = RunResult::default();
    let dir = wal_dir.join("fleet");
    let start = Instant::now();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let mut latency = PassLatencies::default();
    let mut reference: Option<SimOutcome> = None;
    while reference.is_none() || start.elapsed().as_secs_f64() < seconds {
        let mut p = pass(seed, params, &dir, false);
        if reference.is_none() {
            result.metrics.insert("peak_rss_mb", peak_rss_mb());
        }
        let sim = reference.get_or_insert_with(|| p.sim.clone()).clone();
        account(&mut result, &mut p, &sim);
        setups.push(p.setup.as_secs_f64());
        if p.cpu_ns.is_empty() {
            // A generation failed; the check above already fails the run.
            break;
        }
        let cpu_ns = p.cpu_ns.iter().sum::<u64>();
        rates.push((p.cpu_ns.len() * params.processes) as f64 * 1e9 / cpu_ns as f64);
        latency.add(&mut p.cpu_ns);
    }
    let _ = std::fs::remove_dir_all(&dir);
    sim_metrics(&mut result, reference.as_ref().expect("one pass ran"));
    let m = &mut result.metrics;
    m.insert("setup_s", median(&setups));
    m.insert("ops_per_s", median(&rates));
    latency.report(&mut result);
    result
}

/// The traced run: untraced and traced passes alternate until
/// `seconds` elapse; layer times come from the traced passes' replays.
pub fn run_traced(seed: u64, seconds: f64, params: &Params, wal_dir: &Path) -> RunResult {
    let mut result = RunResult::default();
    let dir = wal_dir.join("fleet");
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut counts = Vec::new();
    let mut round_ns = Vec::new();
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut reference: Option<SimOutcome> = None;
    let _ = spans::take();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut p = pass(seed, params, &dir, false);
        let sim = reference.get_or_insert_with(|| p.sim.clone()).clone();
        account(&mut result, &mut p, &sim);
        plain.push(p.cpu_ns.iter().sum::<u64>() as f64);

        let mut t = pass(seed, params, &dir, true);
        account(&mut result, &mut t, &sim);
        traced.push(t.cpu_ns.iter().sum::<u64>() as f64);
        counts.extend(t.counts);
        round_ns.extend(t.round_ns);
        spans::merge(&mut layers, spans::take().0);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let ms = |name: &str| layers.get(name).map_or(0.0, |t| t.ns_per_call() / 1e6);
    let rounds = round_ns.len().max(1) as f64;
    let round_ms = round_ns.iter().sum::<u64>() as f64 / 1e6 / rounds;
    let launch_ms = (round_ms - ms("fleet.ingest") - ms("fleet.plan")).max(0.0);
    let per_round = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64 / rounds;
    let fail_ratio = result.fail_ratio();
    let m = &mut result.metrics;
    m.insert("persist.compact_ms", ms("persist.compact"));
    m.insert("persist.recover_ms", ms("persist.recover"));
    m.insert("persist.syncs", per_round(|c| c.syncs));
    m.insert("fleet.round_ms", round_ms);
    m.insert("fleet.ingest_ms", ms("fleet.ingest"));
    m.insert("fleet.plan_ms", ms("fleet.plan"));
    m.insert("fleet.launch_ms", launch_ms);
    m.insert("fleet.records_merged", per_round(|c| c.records_merged));
    m.insert("fleet.shard_commits", per_round(|c| c.shard_commits));
    m.insert("fail_ratio", fail_ratio);
    // Launch runs inside the round with no span of its own: it is the
    // unattributed remainder.
    m.insert(
        "unattributed_share",
        if round_ms > 0.0 {
            launch_ms / round_ms
        } else {
            0.0
        },
    );
    m.insert("trace_overhead", median(&traced) / median(&plain));
    result
}
