//! Static-analysis precision bench: what context sensitivity buys.
//!
//! Runs the whole analyzer over the repo's workload corpora — the buggy
//! apps, the call-sensitive server scenarios and a band of fuzz
//! workloads — once context-blind (`k = 0`) and once at the default
//! call-string limit, and reports the precision and cost delta:
//!
//! * verdict rows and the % classified *unknown* before/after (the
//!   headline: k = 2 must strictly reduce unknowns);
//! * safe-segment certificates emitted and the accesses they cover,
//!   with every certificate checked against the reference interpreter
//!   (`certificate_violations` must be 0);
//! * wall-clock time of the full corpus sweep at each k.
//!
//! ```bash
//! cargo run --release -p csod-bench --bin bench_analyze            # writes BENCH_analyze.json
//! cargo run --release -p csod-bench --bin bench_analyze -- --check BENCH_analyze.json
//! ```
//!
//! Every run fails when a precision invariant breaks (no unknown
//! reduction, no certificate, a certificate violation); `--check` also
//! fails when the sweep slowed past its ceiling
//! (`csod_bench::specs::ANALYZE`).

use csod_analyze::{analyze_detailed, verify_certificates, DEFAULT_K};
use csod_bench::harness::{self, best_of, Metrics};
use csod_bench::specs;
use csod_core::RiskClass;
use std::time::Instant;
use workloads::{BuggyApp, CallSensitiveApp, Event, FuzzWorkload, SiteRegistry};

/// Fuzz seeds swept (each analyzed with and without an injected bug).
const FUZZ_SEEDS: u64 = 32;
/// Timed sweeps per k; the fastest is reported (see [`best_of`]).
const ROUNDS: usize = 3;

/// One corpus entry: a registry and a trace to analyze.
struct Workload {
    registry: SiteRegistry,
    trace: Vec<Event>,
}

fn corpus() -> Vec<Workload> {
    let mut all = Vec::new();
    for app in BuggyApp::all() {
        all.push(Workload {
            registry: app.registry(),
            trace: app.trace(1),
        });
    }
    for app in CallSensitiveApp::all() {
        for seed in 1..=3 {
            all.push(Workload {
                registry: app.registry(),
                trace: app.trace(seed),
            });
        }
    }
    for seed in 0..FUZZ_SEEDS {
        for inject in [false, true] {
            let w = FuzzWorkload::generate(seed, inject);
            all.push(Workload {
                registry: w.registry,
                trace: w.trace,
            });
        }
    }
    all
}

/// Aggregate of one timed full-corpus sweep at a fixed k.
#[derive(Default)]
struct Sweep {
    rows: u64,
    unknown: u64,
    suspicious: u64,
    contexts: u64,
    certificates: u64,
    certified_accesses: u64,
    summary_reuses: u64,
    certificate_violations: u64,
    ms: f64,
}

/// The fastest of [`ROUNDS`] full-corpus sweeps at `k`, which must all
/// agree.
fn sweep(corpus: &[Workload], k: usize) -> Sweep {
    let mut rows = None;
    let once = || {
        let mut fresh = Sweep::default();
        let start = Instant::now();
        for w in corpus {
            let analysis = analyze_detailed(&w.registry, &w.trace, k);
            for v in &analysis.report.verdicts {
                fresh.rows += 1;
                match v.class {
                    RiskClass::Unknown => fresh.unknown += 1,
                    RiskClass::Suspicious => fresh.suspicious += 1,
                    RiskClass::ProvenSafe => {}
                }
            }
            fresh.contexts += analysis.stats.contexts as u64;
            fresh.certificates += analysis.stats.certificates as u64;
            fresh.certified_accesses += analysis.stats.certified_accesses;
            fresh.summary_reuses += analysis.stats.summary_reuses;
            fresh.certificate_violations +=
                verify_certificates(&w.trace, &analysis.certificates).len() as u64;
        }
        fresh.ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(*rows.get_or_insert(fresh.rows), fresh.rows, "analysis must be deterministic");
        fresh
    };
    best_of(ROUNDS, once, |s| s.ms)
}

fn measure() -> Metrics {
    let corpus = corpus();
    eprintln!(
        "analyze bench: {} workloads, context-blind sweep (k = 0)...",
        corpus.len()
    );
    let k0 = sweep(&corpus, 0);
    eprintln!("analyze bench: context-sensitive sweep (k = {DEFAULT_K})...");
    let kd = sweep(&corpus, DEFAULT_K);
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 * 100.0 / whole as f64
        }
    };
    vec![
        ("corpus_analyses", corpus.len() as f64),
        ("k_default", DEFAULT_K as f64),
        ("verdict_rows_k0", k0.rows as f64),
        ("unknown_rows_k0", k0.unknown as f64),
        ("unknown_pct_k0", pct(k0.unknown, k0.rows)),
        ("suspicious_rows_k0", k0.suspicious as f64),
        ("verdict_rows_k2", kd.rows as f64),
        ("unknown_rows_k2", kd.unknown as f64),
        ("unknown_pct_k2", pct(kd.unknown, kd.rows)),
        ("suspicious_rows_k2", kd.suspicious as f64),
        ("contexts_k2", kd.contexts as f64),
        ("summary_reuses_k2", kd.summary_reuses as f64),
        ("certificates_k2", kd.certificates as f64),
        ("certified_accesses_k2", kd.certified_accesses as f64),
        (
            "certificate_violations",
            (k0.certificate_violations + kd.certificate_violations) as f64,
        ),
        ("analyze_ms_k0", k0.ms),
        ("analyze_ms_k2", kd.ms),
    ]
}

fn main() {
    harness::run(&specs::ANALYZE, measure);
}
