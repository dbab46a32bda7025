//! Metric names, summary statistics, the host fingerprint, and the
//! result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every workload's untraced run:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("latency_us_tail", "us"),
    ("sim_overhead_pct", "%"),
    ("caught_pct", "%"),
];

/// Per-layer metrics, printed by every workload's traced run:
/// `(name, unit)`. A layer the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("runtime.self_ns_per_op", "ns"),
    ("dcache.hit_ratio", "ratio"),
    ("ctx.distinct", "count"),
    ("trace.events_per_op", "count"),
    ("trace.dropped", "count"),
    ("heap.ns_per_op", "ns"),
    ("canary.ns_per_op", "ns"),
    ("watch.arm_ns", "ns"),
    ("watch.disarm_ns", "ns"),
    ("watch.installs", "count"),
    ("watch.replacements", "count"),
    ("watch.install_ratio", "ratio"),
    ("signals.poll_ns", "ns"),
    ("machine.access_ns", "ns"),
    ("detect.first_req", "count"),
    ("heap.sim_peak_kb", "KiB"),
    ("driver.new_us", "us"),
    ("driver.run_ms", "ms"),
    ("driver.finish_us", "us"),
    ("driver.perf_app_ms", "ms"),
    ("ctx.first_sight_per_exec", "count"),
    ("machine.syscalls_per_exec", "count"),
    ("replay.hit_ratio", "ratio"),
    ("trace.events_per_exec", "count"),
    ("persist.compact_ms", "ms"),
    ("persist.recover_ms", "ms"),
    ("persist.syncs", "count"),
    ("fleet.round_ms", "ms"),
    ("fleet.ingest_ms", "ms"),
    ("fleet.plan_ms", "ms"),
    ("fleet.launch_ms", "ms"),
    ("fleet.records_merged", "count"),
    ("fleet.shard_commits", "count"),
    ("fail_ratio", "ratio"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "x"),
];

/// What one benchmark run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (requests' runtime calls, executions, or
    /// processes plus WAL records).
    pub attempted: u64,
    /// Operations that failed: runtime errors, executions that did not
    /// finish, corrupt-skipped WAL records.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// `failed ÷ attempted` (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and the
    /// metrics of `names`. Metrics a workload did not set read 0.
    pub fn json_line(&self, names: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let correct = self.problems.is_empty() && self.attempted > 0;
        write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        )
        .expect("writing to a String");
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

/// The `q`-quantile (0..=1) of `sorted` by nearest rank.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail percentile a sample of `n` supports with at least ten
/// samples beyond it: p99 from 1,000 samples, p90 below that.
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else {
        0.90
    }
}

// `process_cpu_time` declares `struct timespec` with 64-bit fields.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the process CPU clock of 64-bit Linux");

/// CPU time consumed so far by every thread of this process, ended
/// threads included.
pub fn process_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux targets, and the clock id is a constant the kernel
    // always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    Duration::new(
        u64::try_from(ts.tv_sec).unwrap_or(0),
        u32::try_from(ts.tv_nsec).unwrap_or(0),
    )
}

/// Per-pass latency percentiles. A run reports their medians, so a
/// burst of interference from outside the process moves one pass's
/// figures and not the run's.
#[derive(Debug, Default)]
pub struct PassLatencies {
    p50_us: Vec<f64>,
    tail_us: Vec<f64>,
}

impl PassLatencies {
    /// Adds one pass's nanosecond samples.
    pub fn add(&mut self, samples_ns: &mut [u64]) {
        samples_ns.sort_unstable();
        self.p50_us.push(quantile_sorted(samples_ns, 0.5) / 1000.0);
        self.tail_us
            .push(quantile_sorted(samples_ns, tail_quantile(samples_ns.len())) / 1000.0);
    }

    /// Sets `latency_us_p50` and `latency_us_tail` to the medians.
    pub fn report(&self, result: &mut RunResult) {
        result
            .metrics
            .insert("latency_us_p50", median(&self.p50_us));
        result
            .metrics
            .insert("latency_us_tail", median(&self.tail_us));
    }
}

/// The process's peak resident set (VmHWM) in MB, 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts printed beside every run so numbers from different hosts
/// can be told apart: core count, CPU model, the filesystem holding the
/// WAL directory, and the time of a fixed calibration loop.
pub fn host_fingerprint(wal_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "host: {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"wal_fs\": \"{}\", \"calibration_ms\": {:.3}}}",
        cpu.replace('"', "'"),
        filesystem_of(wal_dir),
        calibration_ms()
    )
}

/// Filesystem type of the mount holding `path`, from /proc/self/mountinfo.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_owned());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fs).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// Wall milliseconds of a fixed integer-hash loop (2^25 rounds).
fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..1u32 << 25 {
        x = std::hint::black_box(splitmix(x));
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1000.0
}

/// One SplitMix64 step: derives per-input seeds and drives the
/// calibration loop.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn json_line_lists_every_name() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.metrics.insert("setup_s", 0.25);
        let line = r.json_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}
