//! Determinism and failure accounting of the benchmark drivers, on
//! inputs small enough for a debug build.

use perfbench::server::{self, Op, Trace};
use perfbench::{fleet, paper};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()))
}

#[test]
fn server_simulated_outcome_repeats_for_a_seed() {
    let trace = Trace::generate(7, 1_300);
    let a = server::pass(7, &trace);
    let b = server::pass(7, &trace);
    assert_eq!(a.sim, b.sim);
    assert_eq!(a.failed, 0);
    assert!(
        a.sim.first_detect_req > 0,
        "the planted overflow is reported"
    );
    assert!(a.foreign_reports.is_empty());
}

#[test]
fn a_different_seed_changes_the_server_trace() {
    assert_eq!(Trace::generate(3, 200), Trace::generate(3, 200));
    assert_ne!(Trace::generate(3, 200), Trace::generate(4, 200));
}

#[test]
fn paper_simulated_outcome_repeats_for_a_seed() {
    let params = paper::Params {
        seeds: 1,
        perf_apps: 2,
    };
    let a = paper::simulate(5, &params);
    assert_eq!(a, paper::simulate(5, &params));
    assert_eq!(
        a.detected.len(),
        27,
        "nine applications under three policies"
    );
    assert_eq!(a.overheads.len(), 2);
}

#[test]
fn fleet_simulated_outcome_repeats_for_a_seed() {
    let params = fleet::Params {
        processes: 2,
        allocations: 300,
    };
    let dir = scratch("fleet-determinism");
    let a = fleet::simulate(9, &params, &dir);
    let b = fleet::simulate(9, &params, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(a, b);
    assert_eq!(
        a.generations.len(),
        3,
        "bootstrap and two seeded generations"
    );
}

#[test]
fn a_free_of_an_unknown_pointer_counts_as_a_failure() {
    // Slot 0 was never allocated: the runtime sees a pointer it never
    // handed out.
    let result = server::replay_ops(1, &[Op::Free { slot: 0 }]);
    assert_eq!((result.attempted, result.failed), (1, 1));
    assert_eq!(result.fail_ratio(), 1.0);

    // A double free is the same error, after one good free.
    let ops = [
        Op::Malloc {
            slot: 0,
            size: 32,
            ctx: 0,
        },
        Op::Free { slot: 0 },
        Op::Free { slot: 0 },
    ];
    let result = server::replay_ops(1, &ops);
    assert_eq!((result.attempted, result.failed), (3, 1));
}

/// Every `"name"` value of a section of `BENCHMARK.json`, in order.
fn names_in(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_owned())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    use perfbench::report::{END_TO_END, PER_LAYER};
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    for (section, list) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let names: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in(&json, section), names, "{section}");
        for (name, unit) in list {
            let at = json.find(&format!("\"name\": \"{name}\"")).expect("listed");
            let unit_at = json[at..].find("\"unit\": \"").expect("unit follows") + at + 9;
            assert!(
                json[unit_at..].starts_with(&format!("{unit}\"")),
                "unit of {name}"
            );
        }
    }
    assert_eq!(names_in(&json, "workloads"), ["server", "paper", "fleet"]);
}
