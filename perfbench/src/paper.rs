//! The `paper` workload: Table II and Figure 7 replayed through the
//! execution driver, as many short executions from a cold start.
//!
//! One round runs the nine buggy applications under all three
//! watchpoint-replacement policies on `seeds` inputs each
//! (Table II), then the nineteen performance applications under the
//! baseline and under CSOD (Figure 7). Rounds repeat the same inputs
//! until the time is up.

use crate::report::{median, peak_rss_mb, splitmix, PassLatencies, RunResult};
use crate::spans::{self, span};
use csod_core::{CsodConfig, ReplacementPolicy};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workloads::{BuggyApp, PerfApp, RunOutcome, SiteRegistry, ToolSpec, TraceRunner};

/// Applications Table II detects in every execution under every policy.
const ALWAYS_DETECTED: [&str; 4] = ["Gzip", "LibHX", "Libtiff", "Polymorph"];

/// Size of one round.
#[derive(Debug, Clone)]
pub struct Params {
    /// Inputs (trace plus sampling seed) per buggy application and
    /// policy.
    pub seeds: u64,
    /// Performance applications run, in Table IV order.
    pub perf_apps: usize,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            seeds: 16,
            perf_apps: 19,
        }
    }
}

/// The applications of a round, with their site registries. Buggy
/// traces are generated one at a time during the round (see [`round`]).
struct Inputs {
    buggy: Vec<(BuggyApp, SiteRegistry)>,
    perf: Vec<(PerfApp, SiteRegistry)>,
}

fn setup(params: &Params) -> Inputs {
    let buggy = BuggyApp::all()
        .into_iter()
        .map(|app| {
            let registry = app.registry();
            (app, registry)
        })
        .collect();
    let perf = PerfApp::all()
        .into_iter()
        .take(params.perf_apps)
        .map(|app| {
            let registry = app.registry();
            (app, registry)
        })
        .collect();
    Inputs { buggy, perf }
}

/// Deterministic outcome of a round: identical for a given seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Watchpoint detection of every Table-II execution, in run order.
    pub detected: Vec<bool>,
    /// CSOD's normalized overhead on every Figure-7 application.
    pub overheads: Vec<f64>,
    /// CSOD's simulated peak heap on every Figure-7 application, KiB.
    pub heap_peak_kb: Vec<u64>,
}

/// The counters of one execution the traced run reports.
#[derive(Debug, Clone, Copy)]
struct ExecCounts {
    contexts: u64,
    syscalls: u64,
    replay_hits: u64,
    replay_misses: u64,
    trace_events: u64,
    installs: u64,
}

impl ExecCounts {
    fn of(o: &RunOutcome) -> ExecCounts {
        ExecCounts {
            contexts: o.distinct_contexts as u64,
            syscalls: o.syscalls,
            replay_hits: o.replay_cache_hits,
            replay_misses: o.replay_cache_misses,
            trace_events: o.trace_events,
            installs: o.watched_times,
        }
    }
}

/// What one round measured.
struct Round {
    /// Registries plus trace generation.
    setup: Duration,
    /// Wall time inside executions.
    exec_time: Duration,
    /// Wall time of each Table-II execution.
    latencies_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    sim: SimOutcome,
    /// Table-II executions that missed an always-detected application.
    missed: Vec<String>,
    /// Traced rounds only: counts of each Table-II execution.
    counts: Vec<ExecCounts>,
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one execution; a panic counts as an execution that did not finish.
fn execute(f: impl FnOnce() -> RunOutcome) -> Option<RunOutcome> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

fn round(seed: u64, params: &Params, traced: bool) -> Round {
    let setup_start = Instant::now();
    let inputs = setup(params);
    let mut r = Round {
        setup: setup_start.elapsed(),
        exec_time: Duration::ZERO,
        latencies_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        sim: SimOutcome {
            detected: Vec::new(),
            overheads: Vec::new(),
            heap_peak_kb: Vec::new(),
        },
        missed: Vec::new(),
        counts: Vec::new(),
    };
    let _ = spans::take();
    for (app, registry) in &inputs.buggy {
        // Execution k of every policy replays input k: a trace and a
        // sampling seed, both drawn from the run's seed.
        for k in 0..params.seeds {
            let input_seed = splitmix(seed ^ (k << 32));
            let generated = Instant::now();
            let trace = app.trace(input_seed);
            r.setup += generated.elapsed();
            for policy in ReplacementPolicy::ALL {
                let config = CsodConfig {
                    seed: input_seed,
                    ..CsodConfig::with_policy(policy)
                };
                let start = Instant::now();
                let outcome = execute(|| {
                    let tool = ToolSpec::Csod(config);
                    if !traced {
                        return TraceRunner::new(registry, tool).run(trace.iter().copied());
                    }
                    let mut runner = span("driver.new", || TraceRunner::new(registry, tool));
                    span("driver.run", || trace.iter().for_each(|e| runner.step(e)));
                    span("driver.finish", || runner.finish())
                });
                let ns = elapsed_ns(start);
                r.exec_time += Duration::from_nanos(ns);
                r.latencies_ns.push(ns);
                r.attempted += 1;
                let detected = outcome.as_ref().is_some_and(|o| o.watchpoint_detected);
                if ALWAYS_DETECTED.iter().any(|n| app.name.starts_with(n)) && !detected {
                    r.missed
                        .push(format!("{} under {policy:?} on input {k}", app.name));
                }
                r.sim.detected.push(detected);
                match outcome {
                    Some(o) if traced => r.counts.push(ExecCounts::of(&o)),
                    Some(_) => {}
                    None => r.failed += 1,
                }
            }
        }
    }
    for (i, (app, registry)) in inputs.perf.iter().enumerate() {
        let run_seed = splitmix(seed ^ i as u64);
        for tool in [ToolSpec::Baseline, ToolSpec::Csod(CsodConfig::default())] {
            let csod = matches!(tool, ToolSpec::Csod(_));
            let start = Instant::now();
            let outcome = execute(|| {
                if traced {
                    span("driver.perf_app", || app.run(registry, tool, run_seed))
                } else {
                    app.run(registry, tool, run_seed)
                }
            });
            r.exec_time += start.elapsed();
            r.attempted += 1;
            match outcome {
                Some(o) if csod => {
                    r.sim.overheads.push(o.overhead);
                    r.sim.heap_peak_kb.push(o.peak_heap_kb);
                }
                Some(_) => {}
                None => r.failed += 1,
            }
        }
    }
    r
}

/// The simulated outcome of one untraced round.
pub fn simulate(seed: u64, params: &Params) -> SimOutcome {
    round(seed, params, false).sim
}

fn account(result: &mut RunResult, r: &Round, reference: &SimOutcome) {
    result.attempted += r.attempted;
    result.failed += r.failed;
    result.check(r.missed.is_empty(), || {
        format!("paper: Table-II 100% rows missed: {:?}", r.missed)
    });
    result.check(r.sim == *reference, || {
        "paper: simulated outcome changed between rounds".into()
    });
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0u64), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The simulated end-to-end metrics of a round.
fn sim_metrics(result: &mut RunResult, sim: &SimOutcome) {
    let detections = sim.detected.iter().filter(|d| **d).count();
    result.metrics.insert(
        "caught_pct",
        100.0 * detections as f64 / sim.detected.len().max(1) as f64,
    );
    result.metrics.insert(
        "sim_overhead_pct",
        (mean(sim.overheads.iter().copied()) - 1.0) * 100.0,
    );
}

/// The untraced run: rounds until `seconds` elapse. Throughput and
/// latency percentiles are taken per round; the run reports their
/// medians.
pub fn run(seed: u64, seconds: f64, params: &Params) -> RunResult {
    let mut result = RunResult::default();
    let start = Instant::now();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let mut latency = PassLatencies::default();
    let mut reference: Option<SimOutcome> = None;
    while reference.is_none() || start.elapsed().as_secs_f64() < seconds {
        let mut r = round(seed, params, false);
        if reference.is_none() {
            result.metrics.insert("peak_rss_mb", peak_rss_mb());
        }
        let sim = reference.get_or_insert_with(|| r.sim.clone()).clone();
        account(&mut result, &r, &sim);
        setups.push(r.setup.as_secs_f64());
        rates.push(r.attempted as f64 / r.exec_time.as_secs_f64());
        latency.add(&mut r.latencies_ns);
    }
    sim_metrics(&mut result, reference.as_ref().expect("one round ran"));
    result.metrics.insert("setup_s", median(&setups));
    result.metrics.insert("ops_per_s", median(&rates));
    latency.report(&mut result);
    result
}

/// The traced run: untraced and traced rounds alternate until
/// `seconds` elapse; driver spans come from the traced ones.
pub fn run_traced(seed: u64, seconds: f64, params: &Params) -> RunResult {
    let mut result = RunResult::default();
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut counts = Vec::new();
    let mut layers = BTreeMap::new();
    let mut covered_ns = 0u64;
    let mut reference: Option<SimOutcome> = None;
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let p = round(seed, params, false);
        let sim = reference.get_or_insert_with(|| p.sim.clone()).clone();
        account(&mut result, &p, &sim);
        plain.push(p.exec_time.as_secs_f64());

        let t = round(seed, params, true);
        account(&mut result, &t, &sim);
        traced.push(t.exec_time.as_secs_f64());
        let (round_layers, covered) = spans::take();
        covered_ns += covered;
        spans::merge(&mut layers, round_layers);
        counts.extend(t.counts);
    }
    let sim = reference.expect("one round ran");
    let per_call =
        |name: &str, unit_ns: f64| layers.get(name).map_or(0.0, |t| t.ns_per_call() / unit_ns);
    let per_exec = |f: fn(&ExecCounts) -> u64| mean(counts.iter().map(|c| f(c) as f64));
    let hits: u64 = counts.iter().map(|c| c.replay_hits).sum();
    let lookups: u64 = counts.iter().map(|c| c.replay_hits + c.replay_misses).sum();
    let traced_ns = traced.iter().sum::<f64>() * 1e9;
    let fail_ratio = result.fail_ratio();
    let m = &mut result.metrics;
    m.insert("driver.new_us", per_call("driver.new", 1e3));
    m.insert("driver.run_ms", per_call("driver.run", 1e6));
    m.insert("driver.finish_us", per_call("driver.finish", 1e3));
    m.insert("driver.perf_app_ms", per_call("driver.perf_app", 1e6));
    m.insert("ctx.first_sight_per_exec", per_exec(|c| c.contexts));
    m.insert("machine.syscalls_per_exec", per_exec(|c| c.syscalls));
    m.insert(
        "replay.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    m.insert("trace.events_per_exec", per_exec(|c| c.trace_events));
    m.insert("watch.installs", per_exec(|c| c.installs));
    m.insert(
        "heap.sim_peak_kb",
        mean(sim.heap_peak_kb.iter().map(|kb| *kb as f64)),
    );
    m.insert("fail_ratio", fail_ratio);
    m.insert(
        "unattributed_share",
        (1.0 - covered_ns as f64 / traced_ns).max(0.0),
    );
    m.insert("trace_overhead", median(&traced) / median(&plain));
    result
}
