//! The one harness behind every gated bench binary.
//!
//! A gated bin declares a [`Spec`] in [`crate::specs`] — its output
//! file, its ordered metric keys with a [`Dir`] each, its [`Gate`]s and
//! its re-measure count — and hands [`run`] a `measure` closure. The
//! harness owns everything else: the `--check [PATH]` / `--out PATH`
//! command line, gate evaluation and the `check <key>: …` lines,
//! re-measuring a failed run and keeping each metric's best value, and
//! the flat JSON the baselines are committed in. `bench_validate` and
//! `tests/baselines.rs` read the same specs, so a committed baseline
//! cannot drift from what its bin writes.
//!
//! The shared alloc/free round loop ([`alloc_free_rounds`]), [`fastest`]
//! and [`best_of`] live here too, for the bins' timed scenarios.

use csod_core::{Backend, Csod, CsodConfig, HeapBackend};
use csod_ctx::{CallingContext, ContextKey, FrameTable};
use sim_machine::ThreadId;
use std::sync::Arc;
use std::time::Instant;

/// Allowed slowdown versus the committed baseline before a
/// [`Gate::Ceiling`] fails.
pub const CEILING_FACTOR: f64 = 2.0;

/// One measurement: `(key, value)` pairs in the spec's key order.
pub type Metrics = Vec<(&'static str, f64)>;
/// Borrowed `(key, value)` pairs: a measurement or baseline values.
pub type Values<'a> = [(&'a str, f64)];

/// Which way a metric improves; re-measuring keeps the better value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Lower is better (times); a re-measure keeps the minimum.
    Lower,
    /// Higher is better (speedups); a re-measure keeps the maximum.
    Higher,
    /// Context, not a score (counts, settings); the first value stays.
    Info,
}

/// One pass/fail rule over a fresh measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// At most [`CEILING_FACTOR`] × the committed baseline's value.
    Ceiling(&'static str),
    /// At least this constant.
    Floor(&'static str, f64),
    /// At most this constant.
    Limit(&'static str, f64),
    /// Strictly below another metric of the same measurement.
    Below(&'static str, &'static str),
}

impl Gate {
    /// The metric keys this gate reads.
    pub fn keys(self) -> impl Iterator<Item = &'static str> {
        let (key, other) = match self {
            Gate::Ceiling(k) | Gate::Floor(k, _) | Gate::Limit(k, _) => (k, None),
            Gate::Below(k, other) => (k, Some(other)),
        };
        std::iter::once(key).chain(other)
    }

    /// Whether the gate holds, and its `check <key>: …` line.
    fn verdict(self, metrics: &Values, baseline: &Values) -> (bool, String) {
        let key = self.keys().next().expect("every gate reads a key");
        let v = value(metrics, key);
        let (pass, against) = match self {
            Gate::Ceiling(_) => {
                let base = value(baseline, key);
                (v <= base * CEILING_FACTOR, format!("{v:.2} vs baseline {base:.2}"))
            }
            Gate::Floor(_, min) => (v >= min, format!("{v:.2} vs floor {min:.2}")),
            Gate::Limit(_, max) => (v <= max, format!("{v:.3} vs limit {max:.2}")),
            Gate::Below(_, other) => {
                let o = value(metrics, other);
                (v < o, format!("{v:.2} vs {other} {o:.2}"))
            }
        };
        let word = if pass { "ok" } else { "FAILED" };
        (pass, format!("check {key}: {against} ({word})"))
    }
}

/// A gated bench's declaration: what it writes and how it is judged.
#[derive(Debug)]
pub struct Spec {
    /// Output (and default baseline) file name; also heads the printed
    /// metric table.
    pub file: &'static str,
    /// Every metric key, in output order, with its direction.
    pub metrics: &'static [(&'static str, Dir)],
    /// Gates evaluated under `--check`.
    pub gates: &'static [Gate],
    /// Gates evaluated on every run, `--check` or not.
    pub invariants: &'static [Gate],
    /// Extra measurements allowed while a gate fails.
    pub remeasures: usize,
}

/// The outcome of [`Spec::gate`].
#[derive(Debug)]
pub struct Gated {
    /// Each metric's best value over every measurement.
    pub metrics: Metrics,
    /// Each evaluated gate: whether it held, and its `check` line.
    pub verdicts: Vec<(bool, String)>,
}

impl Gated {
    /// Whether every evaluated gate held.
    pub fn passed(&self) -> bool {
        self.verdicts.iter().all(|&(pass, _)| pass)
    }
}

impl Spec {
    /// The metric keys, in output order.
    pub fn keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.metrics.iter().map(|&(k, _)| k)
    }

    /// Reads the baseline values the ceiling gates compare against.
    /// `path` only names the source in errors.
    ///
    /// # Errors
    ///
    /// When `text` is not flat JSON or lacks a ceiling key; the message
    /// names `path` and the key.
    pub fn baseline(&self, path: &str, text: &str) -> Result<Metrics, String> {
        let parsed = parse(text).map_err(|e| format!("baseline {path}: {e}"))?;
        self.gates
            .iter()
            .filter_map(|g| match *g {
                Gate::Ceiling(key) => Some(key),
                _ => None,
            })
            .map(|key| {
                parsed
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|&(_, v)| (key, v))
                    .ok_or_else(|| format!("baseline {path} lacks {key}"))
            })
            .collect()
    }

    /// Checks a committed baseline: flat JSON carrying exactly this
    /// spec's keys, in order. Returns the metric count.
    ///
    /// # Errors
    ///
    /// Describes the first malformed field, missing, unexpected or
    /// misordered key.
    pub fn validate(&self, text: &str) -> Result<usize, String> {
        let parsed = parse(text)?;
        let keys: Vec<&str> = parsed.iter().map(|(k, _)| k.as_str()).collect();
        if let Some(missing) = self.keys().find(|k| !keys.contains(k)) {
            return Err(format!("missing {missing:?} (its bench writes it)"));
        }
        if let Some(extra) = keys.iter().find(|k| !self.keys().any(|s| s == **k)) {
            return Err(format!("unexpected {extra:?} (its bench does not write it)"));
        }
        if !keys.iter().copied().eq(self.keys()) {
            return Err("keys are not in the order its bench writes them".into());
        }
        Ok(keys.len())
    }

    /// Measures, evaluates the invariants (and, given a `check`
    /// baseline, the gates), and re-measures up to
    /// [`remeasures`](Self::remeasures) times while any fails, keeping
    /// each metric's best value by its [`Dir`]: interference only makes
    /// a wall-clock number worse, so one good observation is proof.
    ///
    /// # Panics
    ///
    /// When `measure` returns keys other than the spec's, in order.
    pub fn gate(&self, check: Option<&Values>, mut measure: impl FnMut() -> Metrics) -> Gated {
        let mut best = self.conforming(measure());
        let mut verdicts = self.verdicts(&best, check);
        for _ in 0..self.remeasures {
            if verdicts.iter().all(|&(pass, _)| pass) {
                break;
            }
            eprintln!("{}: a gate failed, re-measuring (noisy host?)...", self.file);
            let again = self.conforming(measure());
            for ((_, kept), (&(_, dir), &(_, fresh))) in
                best.iter_mut().zip(self.metrics.iter().zip(&again))
            {
                *kept = match dir {
                    Dir::Lower => kept.min(fresh),
                    Dir::Higher => kept.max(fresh),
                    Dir::Info => *kept,
                };
            }
            verdicts = self.verdicts(&best, check);
        }
        Gated {
            metrics: best,
            verdicts,
        }
    }

    fn conforming(&self, metrics: Metrics) -> Metrics {
        assert!(
            metrics.iter().map(|&(k, _)| k).eq(self.keys()),
            "{}: measured keys differ from the spec's",
            self.file
        );
        metrics
    }

    fn verdicts(&self, metrics: &Values, check: Option<&Values>) -> Vec<(bool, String)> {
        let gates = check.map_or(&[][..], |_| self.gates);
        let baseline = check.unwrap_or_default();
        self.invariants
            .iter()
            .chain(gates)
            .map(|g| g.verdict(metrics, baseline))
            .collect()
    }
}

/// The entry point of a gated bin: parses `--check [PATH]` and
/// `--out PATH`, measures and gates, prints the table and the check
/// lines, and writes the results — to `--out`'s path, or to the spec's
/// file when `--check` is absent. Exits 1 when a gate fails or the
/// baseline cannot be read.
pub fn run(spec: &Spec, measure: impl FnMut() -> Metrics) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = flag(&args, "--check").map(|path| path.unwrap_or(spec.file));
    let out = flag(&args, "--out");
    let baseline = check.map(|path| {
        let has_ceilings = spec.gates.iter().any(|g| matches!(g, Gate::Ceiling(_)));
        let loaded = if has_ceilings {
            std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))
                .and_then(|text| spec.baseline(path, &text))
        } else {
            Ok(Vec::new())
        };
        loaded.unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        })
    });

    let gated = spec.gate(baseline.as_deref(), measure);
    println!("\n=== {} ===", spec.file);
    let width = spec.keys().map(str::len).max().unwrap_or(0);
    for (k, v) in &gated.metrics {
        println!("{k:>width$}  {v:12.2}");
    }
    for (_, line) in &gated.verdicts {
        println!("{line}");
    }
    if check.is_none() || out.is_some() {
        let path = out.flatten().unwrap_or(spec.file);
        std::fs::write(path, emit(&gated.metrics)).expect("results written");
        println!("wrote {path}");
    }
    if !gated.passed() {
        eprintln!("{} FAILED: a gate tripped", spec.file);
        std::process::exit(1);
    }
}

/// `Some(value)` for `name VALUE`, `Some(None)` for a bare `name` (or
/// one followed by another flag), `None` when `name` is absent.
fn flag<'a>(args: &'a [String], name: &str) -> Option<Option<&'a str>> {
    let pos = args.iter().position(|a| a == name)?;
    Some(args.get(pos + 1).map(String::as_str).filter(|v| !v.starts_with("--")))
}

fn value(metrics: &Values, key: &str) -> f64 {
    metrics
        .iter()
        .find(|(k, _)| *k == key)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("metric {key} missing"))
}

/// Renders metrics as the flat, two-decimal JSON object the baselines
/// are committed in.
pub fn emit<K: AsRef<str>>(metrics: &[(K, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("  \"{}\": {v:.2}{comma}\n", k.as_ref()));
    }
    out.push_str("}\n");
    out
}

/// Parses the flat `{"key": number, ...}` shape [`emit`] writes,
/// keeping key order.
///
/// # Errors
///
/// Describes the first malformed field or non-finite number.
pub fn parse(json: &str) -> Result<Vec<(String, f64)>, String> {
    let body = json
        .trim()
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("not a JSON object (missing braces)")?;
    let mut metrics = Vec::new();
    for (field, entry) in body.split(',').enumerate() {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err(format!("empty entry (trailing comma?) at field {field}"));
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("field {field}: no `:` in {entry:?}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .filter(|k| !k.is_empty())
            .ok_or_else(|| format!("field {field}: key not a quoted name in {entry:?}"))?;
        let number: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("field {key:?}: value {:?} is not a number", value.trim()))?;
        if !number.is_finite() {
            return Err(format!("field {key:?}: value {number} is not finite"));
        }
        metrics.push((key.to_string(), number));
    }
    Ok(metrics)
}

/// The run of `scenario`, out of `attempts`, with the lowest `by`; the
/// rest of the winning run rides along. Each scenario already keeps its
/// fastest round, so interference has to last the whole bench to
/// inflate a metric.
pub fn best_of<T>(attempts: usize, mut scenario: impl FnMut() -> T, by: impl Fn(&T) -> f64) -> T {
    let mut best = scenario();
    for _ in 1..attempts {
        let next = scenario();
        if by(&next) < by(&best) {
            best = next;
        }
    }
    best
}

/// Each of `run`'s `N` timings' minimum over `runs` calls.
pub fn min_each<const N: usize>(runs: usize, mut run: impl FnMut() -> [f64; N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..runs {
        for (kept, t) in best.iter_mut().zip(run()) {
            *kept = kept.min(t);
        }
    }
    best
}

/// Runs one untimed warm-up `round`, then keeps each timing's fastest
/// of `rounds` timed ones (Criterion-style).
pub fn fastest<const N: usize>(rounds: usize, mut round: impl FnMut() -> [f64; N]) -> [f64; N] {
    round();
    min_each(rounds, round)
}

/// Contexts cycled through by [`alloc_free_rounds`]: enough to exercise
/// the probe sequences, few enough that each stays hot.
pub const CONTEXTS: usize = 64;
/// Live objects per timed round.
pub const ROUND_ALLOCS: usize = 8_192;
/// Timed rounds (the fastest is reported, Criterion-style).
pub const ROUNDS: usize = 12;

/// The [`CONTEXTS`] hot allocation contexts, interned in `frames`.
pub fn contexts(frames: &FrameTable) -> Vec<(ContextKey, CallingContext)> {
    (0..CONTEXTS)
        .map(|i| {
            let ctx = CallingContext::from_locations(
                frames,
                [format!("hot_{i}.c:1").as_str(), "driver.c:7", "main.c:1"],
            );
            (ContextKey::new(ctx.first_level().expect("non-empty"), 0x40), ctx)
        })
        .collect()
}

/// `[ns/alloc, ns/free]` through a fresh `Csod` runtime over any
/// backend/heap pair: [`ROUND_ALLOCS`] mallocs cycling [`contexts`],
/// then their frees, timed separately over [`fastest`] [`ROUNDS`]. The
/// warm-up round settles first-sight interning, the initial flurry of
/// watch installs, and burst throttling. `between_rounds` runs after
/// every round, outside the timing.
pub fn alloc_free_rounds<B: Backend>(
    config: CsodConfig,
    backend: &mut B,
    heap: &mut impl HeapBackend<B>,
    mut between_rounds: impl FnMut(&mut Csod, &mut B),
) -> [f64; 2] {
    let frames = Arc::new(FrameTable::new());
    let mut csod = Csod::new(config, Arc::clone(&frames));
    let sites = contexts(&frames);

    let mut ptrs = Vec::with_capacity(ROUND_ALLOCS);
    fastest(ROUNDS, || {
        let start = Instant::now();
        for i in 0..ROUND_ALLOCS {
            let (key, ctx) = &sites[i % CONTEXTS];
            let p = csod
                .malloc(backend, heap, ThreadId::MAIN, 16, *key, ctx)
                .expect("heap has room");
            ptrs.push(p);
        }
        let alloc_ns = start.elapsed().as_nanos() as f64 / ROUND_ALLOCS as f64;
        let start = Instant::now();
        for p in ptrs.drain(..) {
            csod.free(backend, heap, ThreadId::MAIN, p)
                .expect("was allocated");
        }
        let free_ns = start.elapsed().as_nanos() as f64 / ROUND_ALLOCS as f64;
        between_rounds(&mut csod, backend);
        [alloc_ns, free_ns]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        file: "BENCH_test.json",
        metrics: &[("ns", Dir::Lower), ("speedup", Dir::Higher), ("count", Dir::Info)],
        gates: &[Gate::Ceiling("ns"), Gate::Floor("speedup", 4.0)],
        invariants: &[],
        remeasures: 2,
    };
    const BASELINE: &Values = &[("ns", 50.0)];

    /// A `measure` that returns one scripted `[ns, speedup, count]` per call.
    fn scripted(script: &[[f64; 3]]) -> impl FnMut() -> Metrics + '_ {
        let mut next = script.iter();
        move || {
            let [ns, speedup, count] = *next.next().expect("script has another attempt");
            vec![("ns", ns), ("speedup", speedup), ("count", count)]
        }
    }

    #[test]
    fn remeasure_keeps_each_metric_best_by_direction() {
        // Attempt 1 fails the floor; attempt 2 is slower on ns but
        // faster on speedup: keep min ns, max speedup, first count.
        let gated = SPEC.gate(Some(BASELINE), scripted(&[[40.0, 3.0, 7.0], [45.0, 5.0, 9.0]]));
        assert_eq!(gated.metrics, vec![("ns", 40.0), ("speedup", 5.0), ("count", 7.0)]);
        assert!(gated.passed());
    }

    #[test]
    fn ceiling_passes_at_exactly_the_factor_and_fails_above() {
        let spec = Spec { remeasures: 0, ..SPEC };
        let at = spec.gate(Some(BASELINE), scripted(&[[100.0, 9.0, 0.0]]));
        let above = spec.gate(Some(BASELINE), scripted(&[[100.01, 9.0, 0.0]]));
        assert!(at.passed() && !above.passed());
        assert_eq!(at.verdicts[0].1, "check ns: 100.00 vs baseline 50.00 (ok)");
        assert_eq!(above.verdicts[0].1, "check ns: 100.01 vs baseline 50.00 (FAILED)");
    }

    #[test]
    fn floors_limits_and_below_gates() {
        let spec = Spec {
            metrics: &[("a", Dir::Higher), ("b", Dir::Lower), ("c", Dir::Info)],
            gates: &[Gate::Floor("a", 4.0), Gate::Limit("b", 1.10)],
            invariants: &[Gate::Below("c", "a")],
            remeasures: 0,
            ..SPEC
        };
        let run = |a: f64, b: f64, c: f64, check: bool| {
            spec.gate(check.then_some(&[][..]), move || vec![("a", a), ("b", b), ("c", c)])
        };
        assert!(run(4.0, 1.10, 3.9, true).passed(), "both bounds are inclusive");
        assert!(!run(3.99, 1.0, 0.0, true).passed(), "under the floor");
        assert!(!run(5.0, 1.11, 0.0, true).passed(), "over the limit");
        assert!(!run(5.0, 1.0, 5.0, true).passed(), "Below is strict");
        // Without --check only the invariants run.
        let unchecked = run(0.0, 9.0, -1.0, false);
        assert_eq!(unchecked.verdicts.len(), 1);
        assert!(unchecked.passed());
        assert!(!run(9.0, 0.0, 9.0, false).passed(), "invariants run without --check");
    }

    #[test]
    fn remeasuring_stops_after_the_spec_count() {
        let count_calls = |spec: &Spec, ns: f64| {
            let mut calls = 0;
            let gated = spec.gate(Some(BASELINE), || {
                calls += 1;
                vec![("ns", ns), ("speedup", 9.0), ("count", 0.0)]
            });
            (calls, gated.passed())
        };
        assert_eq!(count_calls(&SPEC, 500.0), (1 + SPEC.remeasures, false));
        let once = Spec { remeasures: 0, ..SPEC };
        assert_eq!(count_calls(&once, 500.0), (1, false), "0 re-measures measures once");
        assert_eq!(count_calls(&SPEC, 10.0), (1, true), "a pass never re-measures");
    }

    #[test]
    fn baseline_missing_a_gate_key_names_file_and_key() {
        let err = SPEC.baseline("BENCH_old.json", "{\"speedup\": 5.00}").unwrap_err();
        assert!(err.contains("BENCH_old.json") && err.contains("ns"), "{err}");
        assert_eq!(SPEC.baseline("b.json", "{\"ns\": 12.5, \"x\": 1}"), Ok(vec![("ns", 12.5)]));
        assert!(SPEC.baseline("b.json", "not json").unwrap_err().contains("b.json"));
    }

    #[test]
    fn emit_parse_round_trips_at_two_decimals() {
        let json = emit(&[("ns", 12.345), ("speedup", 3.0), ("count", 2_461_839.526)]);
        assert_eq!(json, "{\n  \"ns\": 12.35,\n  \"speedup\": 3.00,\n  \"count\": 2461839.53\n}\n");
        let parsed = parse(&json).expect("emitted JSON parses");
        assert_eq!(
            parsed,
            vec![("ns".into(), 12.35), ("speedup".into(), 3.0), ("count".into(), 2_461_839.53)]
        );
        assert_eq!(emit(&parsed), json);
    }

    #[test]
    fn validate_wants_exactly_the_spec_keys_in_order() {
        assert_eq!(SPEC.validate("{\"ns\": 1, \"speedup\": 2, \"count\": 3}"), Ok(3));
        let missing = SPEC.validate("{\"ns\": 1, \"speedup\": 2}").unwrap_err();
        assert!(missing.contains("count"), "{missing}");
        let extra = SPEC.validate("{\"ns\": 1, \"speedup\": 2, \"count\": 3, \"x\": 4}");
        assert!(extra.unwrap_err().contains("\"x\""));
        assert!(SPEC.validate("{\"speedup\": 2, \"ns\": 1, \"count\": 3}").is_err());
        assert!(SPEC.validate("{\"ns\": 1,}").is_err());
        assert!(SPEC.validate("{\"ns\": NaN, \"speedup\": 2, \"count\": 3}").is_err());
    }
}
