//! The `server` workload: a closed loop with one client driving the
//! interposed allocator directly, as a request-serving process would.
//!
//! Each request runs on one of two simulated threads and touches its
//! connection's read buffer, grown by `realloc`; 4–12 short-lived parse
//! objects; a slot of a long-lived 8,192-object cache; and a response
//! buffer. Allocation contexts are drawn from 1,024 with Zipf-skewed
//! use. One planted context, used on a fixed schedule, writes one word
//! past its object. The object sizes and the shares of requests that
//! grow a buffer or replace a cache entry are assumed values, not
//! figures taken from a measured heap trace (see `METRICS.md`).

use crate::report::{median, peak_rss_mb, PassLatencies, RunResult};
use crate::spans::{self, call, LayerTime, Substrate, Timed, TimedHeap};
use csod_core::{sim_heap, Csod, CsodConfig, CsodError, HeapBackend};
use csod_ctx::{CallingContext, ContextKey, FrameTable};
use csod_rng::Arc4Random;
use sim_heap::SimHeap;
use sim_machine::{Machine, SiteToken, ThreadId, VirtAddr};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Allocation contexts, the planted one included.
pub const CONTEXTS: usize = 1024;
/// Open connections, each with a read buffer.
pub const CONNECTIONS: usize = 64;
/// Objects in the long-lived cache.
pub const CACHE: usize = 8192;
/// Requests replayed by one pass.
pub const REQUESTS: usize = 20_000;

/// The planted context: the last one, never drawn by the Zipf sampler.
const PLANTED: u16 = (CONTEXTS - 1) as u16;
/// The planted context first runs on this request (0-based) and then
/// every `PLANTED_EVERY` requests, whatever the seed.
const PLANTED_FIRST: usize = 1000;
const PLANTED_EVERY: usize = 256;
const PLANTED_SIZE: u32 = 64;

/// Slots: connection buffers, then the cache, then per-request objects.
const CACHE_BASE: u32 = CONNECTIONS as u32;
const TEMP_BASE: u32 = CACHE_BASE + CACHE as u32;
const RESPONSE: u32 = TEMP_BASE + 12;
const PLANTED_SLOT: u32 = TEMP_BASE + 13;
const SLOTS: usize = TEMP_BASE as usize + 14;

const READ_BUF_MIN: u32 = 512;
const READ_BUF_MAX: u32 = 16_384;

/// Statement tokens: ordinary request code, and the overflowing copy.
const APP_SITE: SiteToken = SiteToken(0);
const BUG_SITE: SiteToken = SiteToken(1);

/// One operation of the generated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `malloc(size)` from context `ctx`, stored in `slot`.
    Malloc { slot: u32, size: u32, ctx: u16 },
    /// `realloc(slot, size)` from context `ctx`.
    Realloc { slot: u32, size: u32, ctx: u16 },
    /// `free(slot)`.
    Free { slot: u32 },
    /// The application writes `len` bytes at the start of `slot`.
    Write { slot: u32, len: u32 },
    /// The planted bug: one word written `size` bytes past `slot`.
    Overflow { slot: u32, size: u32 },
}

/// A generated request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Fills the connection buffers and the cache before timing.
    pub warmup: Vec<Op>,
    /// Every request's operations, back to back.
    pub ops: Vec<Op>,
    /// End offset into `ops` of each request.
    pub request_ends: Vec<u32>,
}

impl Trace {
    /// The request stream for `seed`, `requests` long.
    pub fn generate(seed: u64, requests: usize) -> Trace {
        let mut rng = Arc4Random::from_seed(seed, 0x5E_5E);
        let zipf = Zipf::new(CONTEXTS - 1);
        let mut warmup = Vec::with_capacity(2 * (CONNECTIONS + CACHE));
        let mut read_buf = vec![READ_BUF_MIN; CONNECTIONS];
        for slot in 0..CONNECTIONS as u32 {
            warmup.push(Op::Malloc {
                slot,
                size: READ_BUF_MIN,
                ctx: zipf.draw(&mut rng),
            });
            warmup.push(Op::Write {
                slot,
                len: READ_BUF_MIN,
            });
        }
        for i in 0..CACHE as u32 {
            let size = cache_size(&mut rng);
            warmup.push(Op::Malloc {
                slot: CACHE_BASE + i,
                size,
                ctx: zipf.draw(&mut rng),
            });
            warmup.push(Op::Write {
                slot: CACHE_BASE + i,
                len: size,
            });
        }

        let mut ops = Vec::with_capacity(requests * 24);
        let mut request_ends = Vec::with_capacity(requests);
        for r in 0..requests {
            let conn = rng.uniform(CONNECTIONS as u32) as usize;
            let slot = conn as u32;
            if rng.uniform(4) == 0 {
                let grown = if read_buf[conn] >= READ_BUF_MAX {
                    READ_BUF_MIN
                } else {
                    read_buf[conn] * 2
                };
                read_buf[conn] = grown;
                ops.push(Op::Realloc {
                    slot,
                    size: grown,
                    ctx: zipf.draw(&mut rng),
                });
            }
            let read = (64 + rng.uniform(448)).min(read_buf[conn]);
            ops.push(Op::Write { slot, len: read });

            let parsed = 4 + rng.uniform(9);
            for j in 0..parsed {
                let size = parse_size(&mut rng);
                ops.push(Op::Malloc {
                    slot: TEMP_BASE + j,
                    size,
                    ctx: zipf.draw(&mut rng),
                });
                ops.push(Op::Write {
                    slot: TEMP_BASE + j,
                    len: size,
                });
            }
            let planted = is_planted(r);
            if planted {
                ops.push(Op::Malloc {
                    slot: PLANTED_SLOT,
                    size: PLANTED_SIZE,
                    ctx: PLANTED,
                });
                ops.push(Op::Write {
                    slot: PLANTED_SLOT,
                    len: PLANTED_SIZE,
                });
                ops.push(Op::Overflow {
                    slot: PLANTED_SLOT,
                    size: PLANTED_SIZE,
                });
            }
            if rng.uniform(2) == 0 {
                let slot = CACHE_BASE + rng.uniform(CACHE as u32);
                let size = cache_size(&mut rng);
                ops.push(Op::Free { slot });
                ops.push(Op::Malloc {
                    slot,
                    size,
                    ctx: zipf.draw(&mut rng),
                });
                ops.push(Op::Write { slot, len: size });
            }
            let size = (256u32 << rng.uniform(5)) + 8 * rng.uniform(32);
            ops.push(Op::Malloc {
                slot: RESPONSE,
                size,
                ctx: zipf.draw(&mut rng),
            });
            ops.push(Op::Write {
                slot: RESPONSE,
                len: size,
            });

            for j in (0..parsed).rev() {
                ops.push(Op::Free {
                    slot: TEMP_BASE + j,
                });
            }
            ops.push(Op::Free { slot: RESPONSE });
            if planted {
                ops.push(Op::Free { slot: PLANTED_SLOT });
            }
            request_ends.push(u32::try_from(ops.len()).expect("trace fits u32 offsets"));
        }
        Trace {
            warmup,
            ops,
            request_ends,
        }
    }

    /// The operations of request `r`.
    pub fn request(&self, r: usize) -> &[Op] {
        let start = if r == 0 {
            0
        } else {
            self.request_ends[r - 1] as usize
        };
        &self.ops[start..self.request_ends[r] as usize]
    }
}

/// Whether request `r` (0-based) runs the planted context.
fn is_planted(r: usize) -> bool {
    r >= PLANTED_FIRST && (r - PLANTED_FIRST).is_multiple_of(PLANTED_EVERY)
}

/// Parse-object sizes, 16–256 bytes with smaller sizes more likely.
/// The weights are assumed, not measured.
fn parse_size(rng: &mut Arc4Random) -> u32 {
    const SIZES: [u32; 8] = [16, 24, 32, 48, 64, 96, 128, 256];
    const WEIGHTS: [u32; 8] = [20, 18, 16, 12, 10, 8, 6, 4];
    let mut pick = rng.uniform(WEIGHTS.iter().sum());
    for (size, w) in SIZES.iter().zip(WEIGHTS) {
        if pick < w {
            return *size;
        }
        pick -= w;
    }
    SIZES[0]
}

/// Cache-object sizes, uniform over 32–1,016 bytes in steps of 8.
fn cache_size(rng: &mut Arc4Random) -> u32 {
    32 + 8 * rng.uniform(124)
}

/// Zipf(1) over context ranks.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn draw(&self, rng: &mut Arc4Random) -> u16 {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let i = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        u16::try_from(i).expect("context index fits u16")
    }
}

/// Deterministic outcome of one pass: identical for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// 1-based request index of the first report (0: none).
    pub first_detect_req: u64,
    /// Simulated heap peak, header and canary included, KiB.
    pub heap_peak_kb: u64,
    /// Virtual time with the tool ÷ virtual time without.
    pub overhead_x: f64,
    /// Planted overflows reported in their request, or absorbed because
    /// the context was already mitigated.
    pub planted_caught: u64,
    /// Planted overflows executed.
    pub planted: u64,
    /// Reports issued.
    pub reports: u64,
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct PassOutcome {
    /// Wall time to build the runtime and warm up.
    pub setup: Duration,
    /// Wall time of the request loop.
    pub serve: Duration,
    /// Wall nanoseconds of each request.
    pub latencies_ns: Vec<u64>,
    /// Operations executed, and those that returned an error.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// The simulated outcome.
    pub sim: SimOutcome,
    /// Reports whose allocation context is not the planted one.
    pub foreign_reports: Vec<String>,
    /// Runtime counters read at the end of the pass.
    pub counters: Counters,
    /// Traced passes only: layer times of the request loop.
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Traced passes only: loop time covered by outermost spans, ns.
    pub covered_ns: u64,
}

/// Runtime counters of a pass (read from the public API).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Runtime calls (malloc, realloc, free).
    pub runtime_calls: u64,
    /// Decision-cache hits and misses.
    pub dcache_hits: u64,
    /// See `dcache_hits`.
    pub dcache_misses: u64,
    /// Distinct allocation contexts seen.
    pub contexts: u64,
    /// Trace events drained, and events the rings dropped.
    pub trace_events: u64,
    /// See `trace_events`.
    pub trace_dropped: u64,
    /// Watchpoint installs, replacements among them, and attempts.
    pub installs: u64,
    /// See `installs`.
    pub replacements: u64,
    /// See `installs`.
    pub install_attempts: u64,
}

/// The runtime, its substrate, and the live objects of one pass.
struct Server<S, H> {
    csod: Csod,
    machine: S,
    heap: H,
    contexts: Vec<(ContextKey, CallingContext)>,
    planted_signature: String,
    slots: Vec<VirtAddr>,
    threads: [ThreadId; 2],
    attempted: u64,
    failed: u64,
}

impl<S: Substrate, H: HeapBackend<S>> Server<S, H> {
    fn new(seed: u64, mut machine: S, heap: H) -> Self {
        let frames = Arc::new(FrameTable::new());
        let contexts: Vec<(ContextKey, CallingContext)> = (0..CONTEXTS)
            .map(|i| {
                let loc = format!("handler_{}.c:{}", i / 16, 100 + i % 16);
                let ctx = CallingContext::from_locations(
                    &frames,
                    [loc.as_str(), "conn.c:40", "main.c:12"],
                );
                (ContextKey::new(frames.intern(&loc), 0x40), ctx)
            })
            .collect();
        let planted_signature = contexts[PLANTED as usize].1.signature(&frames);
        let config = CsodConfig {
            seed,
            ..CsodConfig::default()
        };
        let mut csod = Csod::new(config, Arc::clone(&frames));
        csod.register_site(
            APP_SITE,
            CallingContext::from_locations(&frames, ["conn.c:52", "main.c:12"]),
        );
        csod.register_site(
            BUG_SITE,
            CallingContext::from_locations(&frames, ["parse.c:81", "conn.c:44"]),
        );
        let worker = csod.spawn_thread(&mut machine);
        for tid in [ThreadId::MAIN, worker] {
            machine.machine().set_current_site(tid, APP_SITE);
        }
        Server {
            csod,
            machine,
            heap,
            contexts,
            planted_signature,
            slots: vec![VirtAddr::NULL; SLOTS],
            threads: [ThreadId::MAIN, worker],
            attempted: 0,
            failed: 0,
        }
    }

    /// Executes one operation; an error is counted, never raised.
    fn exec(&mut self, tid: ThreadId, op: Op) {
        self.attempted += 1;
        if self.try_exec(tid, op).is_err() {
            self.failed += 1;
            // A failed malloc leaves the slot empty, so later uses of it
            // fail (and count) too. A failed realloc keeps the old object.
            if let Op::Malloc { slot, .. } = op {
                self.slots[slot as usize] = VirtAddr::NULL;
            }
        }
    }

    fn try_exec(&mut self, tid: ThreadId, op: Op) -> Result<(), CsodError> {
        let Server {
            csod,
            machine,
            heap,
            contexts,
            slots,
            ..
        } = self;
        match op {
            Op::Malloc { slot, size, ctx } => {
                let (key, context) = &contexts[ctx as usize];
                let p = call::<S, _>("runtime", || {
                    csod.malloc(machine, heap, tid, u64::from(size), *key, context)
                })?;
                slots[slot as usize] = p;
            }
            Op::Realloc { slot, size, ctx } => {
                let (key, context) = &contexts[ctx as usize];
                let old = slots[slot as usize];
                let p = call::<S, _>("runtime", || {
                    csod.realloc(machine, heap, tid, old, u64::from(size), *key, context)
                })?;
                slots[slot as usize] = p;
            }
            Op::Free { slot } => {
                let p = slots[slot as usize];
                call::<S, _>("runtime", || csod.free(machine, heap, tid, p))?;
            }
            Op::Write { slot, len } => {
                let p = slots[slot as usize];
                call::<S, _>("machine.access", || {
                    machine.machine().app_write(tid, p, u64::from(len))
                })?;
            }
            Op::Overflow { slot, size } => {
                let p = slots[slot as usize] + u64::from(size);
                let m = machine.machine();
                m.set_current_site(tid, BUG_SITE);
                let written = call::<S, _>("machine.access", || m.app_write(tid, p, 8));
                m.set_current_site(tid, APP_SITE);
                written?;
            }
        }
        Ok(())
    }

    fn poll(&mut self) {
        let Server { csod, machine, .. } = self;
        call::<S, _>("signals.poll", || csod.poll(machine));
    }

    fn caught_so_far(&self) -> u64 {
        let s = self.csod.stats();
        s.traps + s.canary_free_hits + s.canary_exit_hits
    }
}

/// Runs one pass of `trace`: set-up (runtime construction over the
/// substrate and allocator `build` returns, warm-up), then every
/// request.
fn run_pass<S: Substrate, H: HeapBackend<S>>(
    seed: u64,
    trace: &Trace,
    build: impl FnOnce() -> (S, H),
    heap_peak_kb: impl Fn(&H) -> u64,
) -> PassOutcome {
    let setup_start = Instant::now();
    let (machine, heap) = build();
    let mut server = Server::new(seed, machine, heap);
    for op in &trace.warmup {
        server.exec(ThreadId::MAIN, *op);
    }
    server.poll();
    let setup = setup_start.elapsed();
    // Layer times cover the request loop only.
    let _ = spans::take();

    let mut latencies_ns = Vec::with_capacity(trace.request_ends.len());
    let mut first_detect_req = 0;
    let (mut planted, mut planted_caught) = (0, 0);
    let serve_start = Instant::now();
    let mut last = serve_start;
    for r in 0..trace.request_ends.len() {
        let tid = server.threads[r % 2];
        let planted_here = is_planted(r);
        let before = if planted_here {
            let mitigated = server
                .csod
                .mitigation()
                .should_mitigate(&server.planted_signature);
            Some((mitigated, server.caught_so_far()))
        } else {
            None
        };
        for op in trace.request(r) {
            server.exec(tid, *op);
        }
        server.poll();
        if let Some((mitigated, caught)) = before {
            planted += 1;
            if mitigated || server.caught_so_far() > caught {
                planted_caught += 1;
            }
        }
        if first_detect_req == 0 && !server.csod.reports().is_empty() {
            first_detect_req = r as u64 + 1;
        }
        let now = Instant::now();
        latencies_ns.push(u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX));
        last = now;
    }
    let serve = serve_start.elapsed();
    let (layers, covered_ns) = spans::take();

    let Server {
        csod,
        machine,
        heap,
        ..
    } = &mut server;
    let drained = csod.drain_quarantine(machine, heap);
    server.attempted += 1;
    server.failed += u64::from(drained.is_err());
    server.csod.finish(&mut server.machine);
    let frames = Arc::clone(server.csod.frames());
    let foreign_reports = server
        .csod
        .reports()
        .iter()
        .map(|r| r.alloc_context.signature(&frames))
        .filter(|sig| *sig != server.planted_signature)
        .collect();
    let cache = server.csod.decision_cache_stats();
    let watch = server.csod.watchpoint_stats();
    let stream = server.csod.drain_trace();
    let counters = Counters {
        runtime_calls: server.csod.stats().allocations + server.csod.stats().frees,
        dcache_hits: cache.hits,
        dcache_misses: cache.misses,
        contexts: server.csod.distinct_contexts() as u64,
        trace_events: stream.events.len() as u64,
        trace_dropped: stream.dropped,
        installs: watch.installs,
        replacements: watch.replacements,
        install_attempts: watch.installs + watch.rejected + watch.install_failures,
    };
    PassOutcome {
        setup,
        serve,
        latencies_ns,
        attempted: server.attempted,
        failed: server.failed,
        sim: SimOutcome {
            first_detect_req,
            heap_peak_kb: heap_peak_kb(&server.heap),
            overhead_x: server.machine.machine().counter().normalized_overhead(),
            planted_caught,
            planted,
            reports: server.csod.reports().len() as u64,
        },
        foreign_reports,
        counters,
        layers,
        covered_ns,
    }
}

/// One untraced pass of `trace` on the simulated machine.
pub fn pass(seed: u64, trace: &Trace) -> PassOutcome {
    run_pass(
        seed,
        trace,
        || {
            let mut machine = Machine::new();
            let heap = sim_heap(&mut machine);
            (machine, heap)
        },
        |heap: &SimHeap| heap.stats().peak_in_use_bytes / 1024,
    )
}

/// One pass with every runtime, heap, canary, watch and poll call timed.
pub fn traced_pass(seed: u64, trace: &Trace) -> PassOutcome {
    run_pass(
        seed,
        trace,
        || {
            let mut machine = Machine::new();
            let heap = sim_heap(&mut machine);
            (Timed(machine), TimedHeap(heap))
        },
        |heap: &TimedHeap<SimHeap>| heap.0.stats().peak_in_use_bytes / 1024,
    )
}

/// Replays `ops` as one request on a fresh runtime, with the request
/// loop's failure accounting.
pub fn replay_ops(seed: u64, ops: &[Op]) -> RunResult {
    let mut machine = Machine::new();
    let heap = sim_heap(&mut machine);
    let mut server = Server::new(seed, machine, heap);
    for op in ops {
        server.exec(ThreadId::MAIN, *op);
    }
    server.poll();
    RunResult {
        attempted: server.attempted,
        failed: server.failed,
        ..RunResult::default()
    }
}

/// Checks one pass's outputs and folds its counts into `result`.
fn account(result: &mut RunResult, pass: &PassOutcome, reference: &SimOutcome) {
    result.attempted += pass.attempted;
    result.failed += pass.failed;
    result.check(pass.foreign_reports.is_empty(), || {
        format!(
            "server: report outside the planted context: {:?}",
            pass.foreign_reports
        )
    });
    result.check(pass.sim.first_detect_req > 0, || {
        "server: the planted overflow was never reported".into()
    });
    result.check(pass.sim == *reference, || {
        format!(
            "server: simulated outcome changed between passes: {:?} vs {reference:?}",
            pass.sim
        )
    });
}

/// The untraced run: passes until `seconds` elapse. The trace depends
/// only on the seed, so it is generated once, before the clock starts.
/// Throughput and latency percentiles are taken per pass; the run
/// reports their medians.
pub fn run(seed: u64, seconds: f64, requests: usize) -> RunResult {
    let mut result = RunResult::default();
    let trace = Trace::generate(seed, requests);
    let start = Instant::now();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let mut latency = PassLatencies::default();
    let mut reference = None;
    while reference.is_none() || start.elapsed().as_secs_f64() < seconds {
        let mut pass = pass(seed, &trace);
        if reference.is_none() {
            result.metrics.insert("peak_rss_mb", peak_rss_mb());
        }
        let sim = *reference.get_or_insert(pass.sim);
        account(&mut result, &pass, &sim);
        setups.push(pass.setup.as_secs_f64());
        rates.push(pass.latencies_ns.len() as f64 / pass.serve.as_secs_f64());
        latency.add(&mut pass.latencies_ns);
    }
    let sim = reference.expect("at least one pass ran");
    let m = &mut result.metrics;
    m.insert("setup_s", median(&setups));
    m.insert("ops_per_s", median(&rates));
    m.insert("sim_overhead_pct", (sim.overhead_x - 1.0) * 100.0);
    m.insert(
        "caught_pct",
        100.0 * sim.planted_caught as f64 / sim.planted.max(1) as f64,
    );
    latency.report(&mut result);
    result
}

/// The traced run: untraced and traced passes alternate until
/// `seconds` elapse; layer times come from the traced ones.
pub fn run_traced(seed: u64, seconds: f64, requests: usize) -> RunResult {
    let mut result = RunResult::default();
    let trace = Trace::generate(seed, requests);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut counters = Vec::new();
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut covered_ns = 0u64;
    let mut reference = None;
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let p = pass(seed, &trace);
        let sim = *reference.get_or_insert(p.sim);
        account(&mut result, &p, &sim);
        plain.push(p.serve.as_secs_f64());

        let t = traced_pass(seed, &trace);
        account(&mut result, &t, &sim);
        traced.push(t.serve.as_secs_f64());
        counters.push(t.counters);
        covered_ns += t.covered_ns;
        spans::merge(&mut layers, t.layers);
    }
    let sim = reference.expect("at least one pass ran");
    let lt = |name: &str| layers.get(name).copied().unwrap_or_default();
    let runtime = lt("runtime");
    let n = counters.len() as f64;
    let sum = |f: fn(&Counters) -> u64| counters.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let traced_ns = traced.iter().sum::<f64>() * 1e9;
    let fail_ratio = result.fail_ratio();
    let m = &mut result.metrics;
    m.insert(
        "runtime.self_ns_per_op",
        ratio(runtime.self_ns as f64, runtime.calls as f64),
    );
    m.insert(
        "dcache.hit_ratio",
        ratio(
            sum(|c| c.dcache_hits),
            sum(|c| c.dcache_hits + c.dcache_misses),
        ),
    );
    m.insert("ctx.distinct", sum(|c| c.contexts) / n);
    m.insert(
        "trace.events_per_op",
        ratio(sum(|c| c.trace_events), sum(|c| c.runtime_calls)),
    );
    m.insert("trace.dropped", sum(|c| c.trace_dropped) / n);
    m.insert("heap.ns_per_op", lt("heap").ns_per_call());
    m.insert("canary.ns_per_op", lt("canary").ns_per_call());
    m.insert("watch.arm_ns", lt("watch.arm").ns_per_call());
    m.insert("watch.disarm_ns", lt("watch.disarm").ns_per_call());
    m.insert("watch.installs", sum(|c| c.installs) / n);
    m.insert("watch.replacements", sum(|c| c.replacements) / n);
    m.insert(
        "watch.install_ratio",
        ratio(sum(|c| c.installs), sum(|c| c.install_attempts)),
    );
    m.insert("signals.poll_ns", lt("signals.poll").ns_per_call());
    m.insert("machine.access_ns", lt("machine.access").ns_per_call());
    m.insert("detect.first_req", sim.first_detect_req as f64);
    m.insert("heap.sim_peak_kb", sim.heap_peak_kb as f64);
    m.insert("fail_ratio", fail_ratio);
    m.insert(
        "unattributed_share",
        (1.0 - ratio(covered_ns as f64, traced_ns)).max(0.0),
    );
    m.insert("trace_overhead", median(&traced) / median(&plain));
    result
}
