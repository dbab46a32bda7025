//! `perfbench --workload <server|paper|fleet> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a host fingerprint line, then one JSON result line with every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). Exits 1 when an output check fails, 2 on bad
//! arguments.

use perfbench::report::{self, RunResult, END_TO_END, PER_LAYER};
use perfbench::{fleet, paper, server};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["server", "paper", "fleet"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be server, paper or fleet, not {:?}",
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Pins glibc's mmap and trim thresholds at the values its dynamic
/// adjustment converges to. Left dynamic, the mmap threshold rises after
/// the first large free, and whether later large buffers land on the
/// heap or in their own mappings then depends on free order, which makes
/// peak RSS bimodal from run to run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only adjusts allocator parameters; it is called
    // before this process starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

/// Maps in every page of the process's file-backed mappings (its own
/// code and the shared libraries). Left to demand paging, how many of
/// those pages are resident depends on which code ran and on the page
/// cache's fault-around, which moved VmHWM by up to 0.2 MB from run to
/// run: about 6% of the fleet workload's whole footprint.
fn populate_file_mappings() {
    extern "C" {
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }
    const MADV_POPULATE_READ: i32 = 22;
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
    for line in maps.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(range), Some(perms), Some(path)) = (fields.first(), fields.get(1), fields.get(5))
        else {
            continue;
        };
        if !path.starts_with('/') || !perms.starts_with('r') {
            continue;
        }
        let Some((start, end)) = range.split_once('-') else {
            continue;
        };
        let (Ok(start), Ok(end)) = (
            usize::from_str_radix(start, 16),
            usize::from_str_radix(end, 16),
        ) else {
            continue;
        };
        // SAFETY: the range is a whole, readable mapping of this
        // process; MADV_POPULATE_READ only faults its pages in, and
        // reports failure (old kernels, pages past the end of the file)
        // through its return value, which is ignored.
        unsafe {
            madvise(start as *mut u8, end - start, MADV_POPULATE_READ);
        }
    }
}

fn main() -> ExitCode {
    pin_mmap_threshold();
    populate_file_mappings();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Fleet WALs live in the working directory, one directory per run.
    let wal_dir = PathBuf::from(".perfbench-wal").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&wal_dir) {
        eprintln!("perfbench: cannot create {}: {e}", wal_dir.display());
        return ExitCode::from(2);
    }
    println!("{}", report::host_fingerprint(&wal_dir));

    let (seed, secs) = (args.seed, args.seconds);
    let result: RunResult = match (args.workload.as_str(), args.trace) {
        ("server", false) => server::run(seed, secs, server::REQUESTS),
        ("server", true) => server::run_traced(seed, secs, server::REQUESTS),
        ("paper", false) => paper::run(seed, secs, &paper::Params::default()),
        ("paper", true) => paper::run_traced(seed, secs, &paper::Params::default()),
        ("fleet", false) => fleet::run(seed, secs, &fleet::Params::default(), &wal_dir),
        _ => fleet::run_traced(seed, secs, &fleet::Params::default(), &wal_dir),
    };
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir(".perfbench-wal");

    for problem in &result.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result.json_line(names));
    if result.problems.is_empty() && result.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
