//! Baseline shoot-out: CSOD vs Sampler (MICRO'18) vs ASan on the nine
//! buggy applications.
//!
//! The paper's related-work discussion (Section VII) positions CSOD
//! against its closest relative: "Sampler utilizes PMU-based memory
//! access sampling to detect buffer overflows and use-after-frees, with
//! similar overhead to that of CSOD. However, Sampler requires a custom
//! memory allocator, and change of the underlying OS." This harness
//! measures both detection and cost so the sampling-philosophy
//! difference is visible: CSOD samples *objects* (and is then certain),
//! Sampler samples *accesses* (and needs the overflow to be long or
//! repeated).

use asan_sim::AsanConfig;
use csod_bench::{cores, header, row, runs_arg};
use csod_core::CsodConfig;
use csod_fleet::par::run_parallel;
use sampler_sim::SamplerConfig;
use workloads::{BuggyApp, PerfApp, ToolSpec, TraceRunner};

fn main() {
    let runs = runs_arg(200);
    let seeds: Vec<u64> = (0..runs as u64).collect();
    header(&format!(
        "Baselines: detection rate over {runs} executions (+ mean overhead)"
    ));
    let widths = [18, 12, 14, 12, 12];
    println!(
        "{}",
        row(
            &[
                "Application".into(),
                "CSOD".into(),
                "Sampler".into(),
                "ASan".into(),
                "extent(w)".into(),
            ],
            &widths
        )
    );
    for app in BuggyApp::all() {
        let registry = app.registry();
        let trace = app.trace(42);

        let csod_hits: usize = run_parallel(&seeds, cores(), |&seed| {
            let outcome = TraceRunner::new(
                &registry,
                ToolSpec::Csod(CsodConfig::with_seed(seed)),
            )
            .run(trace.iter().copied());
            usize::from(outcome.watchpoint_detected)
        })
        .into_iter()
        .sum();

        let sampler_hits: usize = run_parallel(&seeds, cores(), |&seed| {
            let outcome = TraceRunner::new(
                &registry,
                ToolSpec::Sampler(SamplerConfig {
                    phase: seed * 97,
                    ..SamplerConfig::default()
                }),
            )
            .run(trace.iter().copied());
            usize::from(outcome.detected)
        })
        .into_iter()
        .sum();

        // ASan is deterministic: one run decides.
        let asan = TraceRunner::new(
            &registry,
            ToolSpec::Asan {
                config: AsanConfig::default(),
                instrumented: app.asan_instrumented(),
            },
        )
        .run(trace.iter().copied());

        println!(
            "{}",
            row(
                &[
                    app.name.into(),
                    format!("{:.0}%", 100.0 * csod_hits as f64 / runs as f64),
                    format!("{:.0}%", 100.0 * sampler_hits as f64 / runs as f64),
                    if asan.detected { "yes".into() } else { "MISS".into() },
                    app.overflow_extent.to_string(),
                ],
                &widths
            )
        );
    }
    // Overhead comparison on the performance workloads — the claim is
    // "similar overhead to that of CSOD" (Section VII).
    header("Overhead on the performance workloads (normalized)");
    let widths = [14, 10, 10, 10];
    println!(
        "{}",
        row(
            &["Application".into(), "CSOD".into(), "Sampler".into(), "ASan".into()],
            &widths
        )
    );
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;
    for app in PerfApp::all() {
        if app.name == "Freqmine" {
            continue; // omitted for ASan in the paper
        }
        let registry = app.registry();
        let mut cells = vec![app.name.to_string()];
        for (i, spec) in [
            ToolSpec::Csod(CsodConfig::default()),
            ToolSpec::Sampler(SamplerConfig::default()),
            ToolSpec::Asan {
                config: AsanConfig::default(),
                instrumented: app.asan_instrumented(),
            },
        ]
        .into_iter()
        .enumerate()
        {
            let outcome = app.run(&registry, spec, 1);
            sums[i] += outcome.overhead;
            cells.push(format!("{:.3}", outcome.overhead));
        }
        count += 1;
        println!("{}", row(&cells, &widths));
    }
    println!(
        "{}",
        row(
            &[
                "Average".into(),
                format!("{:.3}", sums[0] / count as f64),
                format!("{:.3}", sums[1] / count as f64),
                format!("{:.3}", sums[2] / count as f64),
            ],
            &widths
        )
    );
    println!("\nreading: Sampler shines when the overflow touches many words");
    println!("(Heartbleed's 64KB over-read) but misses short overflows that CSOD");
    println!("catches per-object; it also needs a custom allocator + OS change.");
}
