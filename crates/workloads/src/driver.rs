//! The trace runner: executes an event stream under a detection tool.

use crate::sites::SiteRegistry;
use crate::trace::Event;
use asan_sim::{Asan, AsanConfig};
use csod_core::{Csod, CsodConfig};
use csod_ctx::ContextKey;
use csod_trace::TraceEventKind;
use sampler_sim::{Sampler, SamplerConfig};
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::{
    AccessKind, AddrRange, Machine, SegmentStep, SiteToken, ThreadId, TraceCache, TraceCacheStats,
    TraceSegment, VirtAddr, MAX_SEGMENT_LEN,
};
use std::fmt;
use std::sync::Arc;

/// Knobs for the trace-cached replay engine of [`TraceRunner`].
///
/// The default is cache-on; `trace_cache: false` is the paper-faithful
/// interpret-every-access mode (every access pays the full machine walk),
/// kept for parity testing and for measuring what the cache buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayParams {
    /// Whether in-bounds access runs may be compiled to and replayed from
    /// a [`TraceCache`]. Only the baseline and CSOD execute cached: ASan
    /// keeps per-access shadow checks and the Sampler a per-access PMU
    /// countdown, so neither can skip interpretation.
    pub trace_cache: bool,
    /// Longest buffered run compiled into one segment (clamped to
    /// [`MAX_SEGMENT_LEN`]).
    pub max_segment_len: usize,
    /// Shortest run worth cache accounting; shorter runs are interpreted
    /// without a lookup (matching a 2-access run costs more than walking
    /// it).
    pub min_segment_len: usize,
}

impl Default for ReplayParams {
    fn default() -> Self {
        ReplayParams {
            trace_cache: true,
            max_segment_len: MAX_SEGMENT_LEN,
            min_segment_len: 4,
        }
    }
}

impl ReplayParams {
    /// The interpret-every-access configuration.
    #[must_use]
    pub fn interpreted() -> Self {
        ReplayParams {
            trace_cache: false,
            ..ReplayParams::default()
        }
    }
}

/// Which tool (if any) a run executes under.
// A handful of `ToolSpec`s exist per comparison run, so the size gap
// between `Csod(CsodConfig)` and `Baseline` costs nothing; boxing the
// config would only add a hop to every accessor.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ToolSpec {
    /// The unprotected program — the normalization baseline of Figure 7
    /// and the "Original" column of Table V.
    Baseline,
    /// CSOD with the given configuration.
    Csod(CsodConfig),
    /// The ASan model; `instrumented` lists the modules compiled with
    /// instrumentation (the application itself, but typically not
    /// external libraries).
    Asan {
        /// Tool configuration.
        config: AsanConfig,
        /// Instrumented module names.
        instrumented: Vec<String>,
    },
    /// The Sampler model (MICRO'18): PMU access sampling over a
    /// guard-zone allocator.
    Sampler(SamplerConfig),
}

impl ToolSpec {
    /// Short label used in table output.
    pub fn label(&self) -> &'static str {
        match self {
            ToolSpec::Baseline => "baseline",
            ToolSpec::Csod(c) if c.evidence => "csod",
            ToolSpec::Csod(_) => "csod-no-evidence",
            ToolSpec::Asan { .. } => "asan",
            ToolSpec::Sampler(_) => "sampler",
        }
    }
}

enum ToolState {
    Baseline,
    Csod(Box<Csod>),
    Asan(Box<Asan>),
    Sampler(Box<Sampler>),
}

impl fmt::Debug for ToolState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ToolState::Baseline => "Baseline",
            ToolState::Csod(_) => "Csod",
            ToolState::Asan(_) => "Asan",
            ToolState::Sampler(_) => "Sampler",
        };
        f.debug_struct(name).finish_non_exhaustive()
    }
}

/// Everything a finished run reports back to the experiment harnesses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutcome {
    /// Tool label (see [`ToolSpec::label`]).
    pub tool: String,
    /// Any overflow detected (by any mechanism the tool has).
    pub detected: bool,
    /// CSOD: a hardware watchpoint fired (precise detection).
    pub watchpoint_detected: bool,
    /// CSOD: canary evidence found at free or exit.
    pub evidence_detected: bool,
    /// Normalized overhead versus the tool-free execution of the same
    /// work (Figure 7).
    pub overhead: f64,
    /// Total virtual run time in nanoseconds.
    pub total_ns: u64,
    /// Application CPU nanoseconds.
    pub app_ns: u64,
    /// Tool CPU nanoseconds.
    pub tool_ns: u64,
    /// I/O wait nanoseconds.
    pub io_ns: u64,
    /// Peak heap residency in KiB (Table V).
    pub peak_heap_kb: u64,
    /// Tool memory outside the heap blocks (ASan shadow), KiB.
    pub tool_extra_kb: u64,
    /// Allocations performed.
    pub allocations: u64,
    /// Distinct allocation contexts CSOD observed (Table IV "CC").
    pub distinct_contexts: usize,
    /// Objects CSOD ever watched (Table IV "WT").
    pub watched_times: u64,
    /// Watchpoint traps delivered.
    pub traps: u64,
    /// CSOD with priors: allocations from proven-safe contexts.
    pub proven_safe_allocs: u64,
    /// CSOD with priors: watchpoint installs spent on proven-safe
    /// contexts (the waste the static analysis is meant to cut).
    pub proven_safe_installs: u64,
    /// CSOD with priors: installs on statically suspicious contexts.
    pub suspicious_installs: u64,
    /// CSOD with priors: availability bypasses denied on proven-safe
    /// contexts — watch slots the priors saved outright.
    pub prior_availability_skips: u64,
    /// CSOD with priors: overflows from proven-safe contexts. Any
    /// nonzero value is an analyzer soundness bug.
    pub proven_safe_overflows: u64,
    /// The falsified `proven-safe` context signatures behind
    /// [`proven_safe_overflows`](RunOutcome::proven_safe_overflows),
    /// for the soundness gate to print.
    pub proven_safe_overflow_signatures: Vec<String>,
    /// CSOD: frees the watched-address filter proved unwatched.
    pub frees_fast_filtered: u64,
    /// CSOD: Figure-4 teardowns paid through batched drains.
    pub teardowns_batched: u64,
    /// CSOD: stale traps drained after logical removal (counted, never
    /// reported).
    pub stale_traps_suppressed: u64,
    /// System calls issued.
    pub syscalls: u64,
    /// Rendered bug reports.
    pub reports: Vec<String>,
    /// CSOD: distinct allocation-context signatures among the reports —
    /// the deduplicated bug count a fleet aggregates on.
    pub unique_report_contexts: usize,
    /// CSOD: reports beyond the first for their allocation-context
    /// signature (same bug rediscovered via another site or thread).
    pub duplicate_reports: u64,
    /// CSOD: per-context watch counts at exit, for attributing install
    /// spending to risk classes regardless of whether priors were on.
    pub context_watch_counts: Vec<(ContextKey, u64)>,
    /// CSOD: trace events drained from the per-thread rings at exit
    /// (zero when tracing is off at run time or compiled out).
    pub trace_events: u64,
    /// CSOD: trace events lost to ring wrap-around.
    pub trace_dropped: u64,
    /// CSOD: per-kind trace event counts, kinds never seen omitted.
    pub trace_counts: Vec<(TraceEventKind, u64)>,
    /// Replay engine: runs replayed from a cached segment.
    pub replay_cache_hits: u64,
    /// Replay engine: runs interpreted because no cached segment matched.
    pub replay_cache_misses: u64,
    /// Replay engine: cached segments discarded (stale generation,
    /// collision, or overlapping out-of-model write).
    pub replay_cache_invalidations: u64,
    /// Replay engine: segments compiled from clean interpreted runs.
    pub replay_segments_compiled: u64,
    /// Replay engine: accesses applied through batched replay instead of
    /// per-access interpretation.
    pub replay_accesses: u64,
}

/// Executes [`Event`]s against a machine, heap and tool.
///
/// # Examples
///
/// ```
/// use csod_core::CsodConfig;
/// use csod_ctx::FrameTable;
/// use sim_machine::AccessKind;
/// use std::sync::Arc;
/// use workloads::{Event, SiteRegistry, ToolSpec, TraceRunner};
///
/// let mut reg = SiteRegistry::new("demo", Arc::new(FrameTable::new()));
/// reg.add_alloc_sites(1);
/// let bug_site = reg.add_access_site("demo", "copy.c:12");
///
/// let trace = vec![
///     Event::malloc(0, 64, 0),
///     Event::access(0, 0, 8, AccessKind::Write, bug_site),
///     Event::overflow(0, AccessKind::Write, bug_site),
/// ];
/// let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(trace);
/// assert!(outcome.detected);
/// ```
#[derive(Debug)]
pub struct TraceRunner<'r> {
    registry: &'r SiteRegistry,
    machine: Machine,
    heap: SimHeap,
    tool: ToolState,
    tool_label: String,
    threads: Vec<ThreadId>,
    slots: Vec<Option<(VirtAddr, u64)>>,
    /// Last freed occupant of each slot (address, size) for
    /// use-after-free events, indexed like `slots`.
    ghosts: Vec<Option<(VirtAddr, u64)>>,
    replay: ReplayParams,
    /// The segment cache; `None` when replay is off or the tool cannot
    /// execute cached (ASan, Sampler).
    cache: Option<Box<TraceCache>>,
    /// In-bounds accesses buffered since the last flush, awaiting replay
    /// or compilation as one run.
    pending: Vec<SegmentStep>,
    /// Trace-thread index the pending run belongs to.
    pending_thread: u8,
    /// Slot (object) the pending run belongs to. Runs break at object
    /// switches so a segment's hull stays inside one object — a hull
    /// spanning several objects would swallow the armed canary words
    /// *between* them and could never pass the armed-overlap check.
    pending_slot: usize,
}

impl<'r> TraceRunner<'r> {
    /// Creates a runner for one execution under `tool` with the default
    /// [`ReplayParams`] (trace cache on).
    pub fn new(registry: &'r SiteRegistry, tool: ToolSpec) -> Self {
        TraceRunner::with_replay(registry, tool, ReplayParams::default())
    }

    /// Creates a runner with explicit replay-engine knobs.
    pub fn with_replay(registry: &'r SiteRegistry, tool: ToolSpec, replay: ReplayParams) -> Self {
        // Hypothetical-hardware runs (the register-count ablation) need
        // a machine with matching debug registers.
        let mut machine = match &tool {
            ToolSpec::Csod(config) if config.watchpoint_slots > 4 => {
                Machine::with_debug_registers(config.watchpoint_slots)
            }
            _ => Machine::new(),
        };
        let heap = SimHeap::new(&mut machine, HeapConfig::default())
            .expect("fresh machine has a free heap region");
        let tool_label = tool.label().to_owned();
        let tool = match tool {
            ToolSpec::Baseline => ToolState::Baseline,
            ToolSpec::Csod(config) => {
                let mut csod = Csod::new(config, Arc::clone(registry.frames()));
                for site in registry.access_sites() {
                    csod.register_site(site.token, site.context.clone());
                }
                ToolState::Csod(Box::new(csod))
            }
            ToolSpec::Asan {
                config,
                instrumented,
            } => {
                let mut asan = Asan::new(config);
                for module in &instrumented {
                    asan.instrument_module(module);
                }
                ToolState::Asan(Box::new(asan))
            }
            ToolSpec::Sampler(config) => {
                ToolState::Sampler(Box::new(Sampler::new(&mut machine, config)))
            }
        };
        // One-time runtime start-up cost (Section V-B: visible in short
        // runs such as Ferret).
        match &tool {
            ToolState::Baseline => {}
            ToolState::Csod(_) => {
                let init = machine.costs().csod_init;
                machine.charge(sim_machine::CostDomain::Tool, init);
            }
            ToolState::Asan(_) => {
                let init = machine.costs().asan_init;
                machine.charge(sim_machine::CostDomain::Tool, init);
            }
            ToolState::Sampler(_) => {
                // Sampler's kernel driver + allocator swap: model like
                // the CSOD runtime's init.
                let init = machine.costs().csod_init;
                machine.charge(sim_machine::CostDomain::Tool, init);
            }
        }
        // Only tools whose access path is a plain machine walk can skip
        // interpretation: ASan checks shadow per access and the Sampler
        // decrements a PMU period per access, so caching either would
        // change what they observe.
        let cache = match (&tool, replay.trace_cache) {
            (ToolState::Baseline | ToolState::Csod(_), true) => Some(Box::new(TraceCache::new())),
            _ => None,
        };
        let replay = ReplayParams {
            max_segment_len: replay.max_segment_len.clamp(1, MAX_SEGMENT_LEN),
            min_segment_len: replay.min_segment_len.max(1),
            ..replay
        };
        TraceRunner {
            registry,
            machine,
            heap,
            tool,
            tool_label,
            threads: vec![ThreadId::MAIN],
            slots: Vec::new(),
            ghosts: Vec::new(),
            replay,
            cache,
            pending: Vec::new(),
            pending_thread: 0,
            pending_slot: 0,
        }
    }

    /// Executes one event.
    ///
    /// With the trace cache armed, in-bounds accesses are buffered into
    /// runs and replayed or compiled in batches; every other event first
    /// flushes the buffered run so program order is preserved exactly.
    pub fn step(&mut self, event: &Event) {
        if self.cache.is_none() {
            self.step_uncached(event);
            return;
        }
        match *event {
            Event::Access {
                thread,
                slot,
                offset,
                len,
                kind,
                site,
            } => {
                let Some((addr, size)) = self.slot(slot) else {
                    return;
                };
                // Same clamp as the interpreted path below.
                let offset = offset.min(size.saturating_sub(1));
                let len = len.max(1).min(size - offset);
                self.buffer_access(thread, slot, addr + offset, len, kind, site);
            }
            // Control markers have no machine effect, so they must not
            // break a buffered run in half.
            Event::Call { .. } | Event::Return { .. } => {}
            // Out-of-model stores corrupt memory near cached footprints:
            // drop overlapping segments (the ckb-vm overlapping-write
            // rule), then execute interpreted.
            Event::OverflowAccess { slot, .. } | Event::OverflowBurst { slot, .. } => {
                self.flush_pending();
                if let Some((addr, size)) = self.slot(slot) {
                    let boundary = addr + size.max(1).div_ceil(8) * 8;
                    self.cache_mut()
                        .invalidate_overlapping(AddrRange::new(boundary, 8));
                }
                self.step_uncached(event);
            }
            Event::DanglingAccess { slot, kind, .. } => {
                self.flush_pending();
                if kind == AccessKind::Write {
                    if let Some((addr, size)) = self.ghost(slot) {
                        self.cache_mut()
                            .invalidate_overlapping(AddrRange::new(addr, size.max(1)));
                    }
                }
                self.step_uncached(event);
            }
            _ => {
                self.flush_pending();
                self.step_uncached(event);
            }
        }
    }

    /// Executes one event through the interpreted (per-access) path.
    fn step_uncached(&mut self, event: &Event) {
        match *event {
            Event::SpawnThread => {
                let tid = match &mut self.tool {
                    ToolState::Csod(csod) => csod.spawn_thread(&mut self.machine),
                    _ => self.machine.spawn_thread(),
                };
                self.threads.push(tid);
            }
            Event::Malloc {
                thread,
                site,
                size,
                slot,
            } => {
                let tid = self.thread(thread);
                let addr = match &mut self.tool {
                    ToolState::Baseline => self
                        .heap
                        .malloc(&mut self.machine, size)
                        .expect("trace fits in the heap"),
                    ToolState::Csod(csod) => {
                        let alloc_site = self.registry.alloc_site(site);
                        csod.malloc(
                            &mut self.machine,
                            &mut self.heap,
                            tid,
                            size,
                            alloc_site.key,
                            &alloc_site.context,
                        )
                        .expect("trace fits in the heap")
                    }
                    ToolState::Asan(asan) => asan
                        .malloc(&mut self.machine, &mut self.heap, size)
                        .expect("trace fits in the heap"),
                    ToolState::Sampler(sampler) => sampler
                        .malloc(&mut self.machine, &mut self.heap, size)
                        .expect("trace fits in the heap"),
                };
                set_slot(&mut self.slots, slot, (addr, size));
            }
            Event::Free { thread, slot } => {
                let tid = self.thread(thread);
                let Some((addr, size)) = self.slot(slot) else {
                    return;
                };
                self.slots[slot] = None;
                set_slot(&mut self.ghosts, slot, (addr, size));
                match &mut self.tool {
                    ToolState::Baseline => {
                        self.heap
                            .free(&mut self.machine, addr)
                            .expect("slot holds a live object");
                    }
                    ToolState::Csod(csod) => {
                        csod.free(&mut self.machine, &mut self.heap, tid, addr)
                            .expect("slot holds a live object");
                    }
                    ToolState::Asan(asan) => {
                        asan.free(&mut self.machine, &mut self.heap, addr)
                            .expect("slot holds a live object");
                    }
                    ToolState::Sampler(sampler) => {
                        sampler
                            .free(&mut self.machine, &mut self.heap, addr)
                            .expect("slot holds a live object");
                    }
                }
            }
            Event::Access {
                thread,
                slot,
                offset,
                len,
                kind,
                site,
            } => {
                let Some((addr, size)) = self.slot(slot) else {
                    return;
                };
                // Clamp to stay in bounds: traces express intent, the
                // runner enforces it (only OverflowAccess goes out).
                let offset = offset.min(size.saturating_sub(1));
                let len = len.max(1).min(size - offset);
                self.do_access(thread, addr + offset, len, kind, site);
            }
            Event::OverflowAccess {
                thread,
                slot,
                kind,
                site,
            } => {
                let Some((addr, size)) = self.slot(slot) else {
                    return;
                };
                // The next word beyond the object's boundary: continuous
                // overflows always touch it (paper Section VI).
                let boundary = addr + size.max(1).div_ceil(8) * 8;
                self.do_access(thread, boundary, 8, kind, site);
            }
            Event::OverflowBurst {
                thread,
                slot,
                count,
                kind,
                site,
            } => {
                let Some((addr, size)) = self.slot(slot) else {
                    return;
                };
                let boundary = addr + size.max(1).div_ceil(8) * 8;
                self.do_access_burst(thread, boundary, 8, kind, site, count);
            }
            Event::AccessBurst {
                thread,
                slot,
                count,
                kind,
                site,
            } => {
                let Some((addr, size)) = self.slot(slot) else {
                    return;
                };
                // Representative word: the first aligned word (always
                // in-bounds for the >=8-byte objects traces allocate).
                let len = size.min(8);
                self.do_access_burst(thread, addr, len, kind, site, count);
            }
            Event::DanglingAccess {
                thread,
                slot,
                offset,
                kind,
                site,
            } => {
                let Some((addr, size)) = self.ghost(slot) else {
                    return;
                };
                let offset = offset.min(size.saturating_sub(1));
                let len = (size - offset).clamp(1, 8);
                self.do_access(thread, addr + offset, len, kind, site);
            }
            Event::Call { .. } | Event::Return { .. } => {
                // Control markers for the static analyzer's call-string
                // domain; a real call costs nothing the trace's Compute
                // events don't already model.
            }
            Event::Compute { thread, ops } => {
                let _ = thread;
                self.machine.app_compute(ops);
            }
            Event::IoWait { ns } => {
                self.machine.wait_io(sim_machine::VirtDuration::from_nanos(ns));
            }
        }
    }

    fn do_access(
        &mut self,
        thread: u8,
        addr: VirtAddr,
        len: u64,
        kind: AccessKind,
        site: SiteToken,
    ) {
        let tid = self.thread(thread);
        self.machine.set_current_site(tid, site);
        match &mut self.tool {
            ToolState::Baseline => {
                let _ = self.machine.app_access(tid, addr, len, kind);
            }
            ToolState::Csod(csod) => {
                let _ = self.machine.app_access(tid, addr, len, kind);
                if self.machine.has_pending_signals() {
                    csod.poll(&mut self.machine);
                }
            }
            ToolState::Asan(asan) => {
                let module = &self.registry.access_site(site).module;
                let _ = asan.access(&mut self.machine, tid, addr, len, kind, module, site);
            }
            ToolState::Sampler(sampler) => {
                let _ = self.machine.app_access(tid, addr, len, kind);
                sampler.poll(&mut self.machine);
            }
        }
    }

    fn do_access_burst(
        &mut self,
        thread: u8,
        addr: VirtAddr,
        len: u64,
        kind: AccessKind,
        site: SiteToken,
        count: u64,
    ) {
        let tid = self.thread(thread);
        self.machine.set_current_site(tid, site);
        match &mut self.tool {
            ToolState::Baseline => {
                let _ = self.machine.app_access_bulk(tid, addr, len, kind, count);
            }
            ToolState::Csod(csod) => {
                let _ = self.machine.app_access_bulk(tid, addr, len, kind, count);
                if self.machine.has_pending_signals() {
                    csod.poll(&mut self.machine);
                }
            }
            ToolState::Asan(asan) => {
                let module = &self.registry.access_site(site).module;
                let _ = asan.access_burst(
                    &mut self.machine,
                    tid,
                    addr,
                    len,
                    kind,
                    module,
                    site,
                    count,
                );
            }
            ToolState::Sampler(sampler) => {
                let _ = self.machine.app_access_bulk(tid, addr, len, kind, count);
                sampler.poll(&mut self.machine);
            }
        }
    }

    fn cache_mut(&mut self) -> &mut TraceCache {
        self.cache.as_mut().expect("caller checked the cache is armed")
    }

    /// Buffers one clamped in-bounds access into the pending run,
    /// flushing when the run reaches its length cap, switches thread
    /// (segments are per-thread: watchpoints are per-thread state), or
    /// switches object (see [`TraceRunner::pending_slot`]).
    fn buffer_access(
        &mut self,
        thread: u8,
        slot: usize,
        addr: VirtAddr,
        len: u64,
        kind: AccessKind,
        site: SiteToken,
    ) {
        if !self.pending.is_empty() && (self.pending_thread != thread || self.pending_slot != slot)
        {
            self.flush_pending();
        }
        self.pending_thread = thread;
        self.pending_slot = slot;
        self.pending.push(SegmentStep {
            addr,
            len,
            kind,
            site,
        });
        if self.pending.len() >= self.replay.max_segment_len {
            self.flush_pending();
        }
    }

    /// Retires the pending run: replays it from the cache when a valid
    /// segment matches (one hull check + one batched apply), otherwise
    /// interprets it access by access and — if the run was provably
    /// clean — compiles it for next time.
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let tid = self.thread(self.pending_thread);
        // Short runs interpret without cache accounting: the lookup and
        // step-for-step match cost more than the walks they would save.
        if self.pending.len() < self.replay.min_segment_len {
            self.interpret_pending(tid);
            self.pending.clear();
            return;
        }
        let key = self.pending[0].addr;
        let cache = self.cache.as_mut().expect("flush only runs with a cache");
        let hit = cache
            .lookup(key)
            .is_some_and(|seg| seg.matches(tid, &self.pending) && self.machine.replay_segment(seg));
        if hit {
            cache.note_hit(self.pending.len());
            self.pending.clear();
            return;
        }
        // Whatever the slot held was stale, colliding, or blocked by an
        // armed range — evict it (counted only if occupied) and go
        // interpreted.
        cache.invalidate_key(key);
        cache.note_miss();
        let gen0 = self.machine.watch_generation();
        let clean = self.interpret_pending(tid);
        // Compile only runs that provably touched no armed watchpoint and
        // left the machine as they found it: every access succeeded
        // signal-free, no watch/map/fault mutation happened underneath
        // (generation), and the machine is in a replayable state at all.
        if clean && self.machine.watch_generation() == gen0 && self.machine.replay_ready() {
            // The segment keeps the buffer; the next run starts a new one.
            let steps = std::mem::take(&mut self.pending);
            if let Some(seg) = TraceSegment::compile(tid, gen0, steps) {
                if !self.machine.armed_overlaps(tid, &seg.hull) {
                    self.cache_mut().insert(seg);
                }
            }
        } else {
            self.pending.clear();
        }
    }

    /// Interprets the pending run in place, step by step. Returns
    /// whether every step was clean (see [`TraceRunner::exec_step`]).
    fn interpret_pending(&mut self, tid: ThreadId) -> bool {
        let mut clean = true;
        for i in 0..self.pending.len() {
            let step = self.pending[i];
            clean &= self.exec_step(tid, &step);
        }
        clean
    }

    /// Interprets one buffered step. Returns whether the access was
    /// clean — it succeeded and raised no signal — which is the compile
    /// precondition for the run it belongs to.
    fn exec_step(&mut self, tid: ThreadId, step: &SegmentStep) -> bool {
        self.machine.set_current_site(tid, step.site);
        match &mut self.tool {
            ToolState::Baseline => self
                .machine
                .app_access(tid, step.addr, step.len, step.kind)
                .is_ok(),
            ToolState::Csod(csod) => {
                let ok = self
                    .machine
                    .app_access(tid, step.addr, step.len, step.kind)
                    .is_ok();
                if self.machine.has_pending_signals() {
                    csod.poll(&mut self.machine);
                    return false;
                }
                ok
            }
            ToolState::Asan(_) | ToolState::Sampler(_) => {
                unreachable!("the cache is never armed for asan/sampler")
            }
        }
    }

    /// Runs `f` against the underlying machine, flushing any buffered
    /// run first so the mutation is ordered after it (and so a watch
    /// generation bump lands before any later compile).
    pub fn with_machine<R>(&mut self, f: impl FnOnce(&mut Machine) -> R) -> R {
        self.flush_pending();
        f(&mut self.machine)
    }

    fn thread(&self, index: u8) -> ThreadId {
        self.threads
            .get(index as usize)
            .copied()
            .unwrap_or(ThreadId::MAIN)
    }

    fn slot(&self, slot: usize) -> Option<(VirtAddr, u64)> {
        self.slots.get(slot).copied().flatten()
    }

    fn ghost(&self, slot: usize) -> Option<(VirtAddr, u64)> {
        self.ghosts.get(slot).copied().flatten()
    }

    /// Executes every event of `trace` and finishes the run.
    pub fn run(mut self, trace: impl IntoIterator<Item = Event>) -> RunOutcome {
        for event in trace {
            self.step(&event);
        }
        self.finish()
    }

    /// Ends the execution: runs the tool's termination path and collects
    /// the outcome.
    pub fn finish(mut self) -> RunOutcome {
        self.flush_pending();
        let replay_stats = self
            .cache
            .as_ref()
            .map_or_else(TraceCacheStats::default, |c| c.stats());
        let replay_len_counts: Vec<u64> = self
            .cache
            .as_ref()
            .map(|c| c.segment_length_counts().to_vec())
            .unwrap_or_default();
        let mut outcome = RunOutcome {
            tool: self.tool_label.clone(),
            ..RunOutcome::default()
        };
        match &mut self.tool {
            ToolState::Baseline => {}
            ToolState::Csod(csod) => {
                csod.note_replay_cache(replay_stats, &replay_len_counts);
                csod.finish(&mut self.machine);
                let stats = csod.stats();
                outcome.detected = csod.detected();
                outcome.watchpoint_detected = csod.detected_by_watchpoint();
                outcome.evidence_detected =
                    stats.canary_free_hits + stats.canary_exit_hits > 0;
                outcome.allocations = stats.allocations;
                outcome.distinct_contexts = csod.distinct_contexts();
                outcome.watched_times = csod.watchpoint_stats().installs;
                outcome.traps = stats.traps;
                outcome.proven_safe_allocs = stats.proven_safe_allocs;
                outcome.proven_safe_installs = stats.proven_safe_installs;
                outcome.suspicious_installs = stats.suspicious_installs;
                outcome.prior_availability_skips = stats.prior_availability_skips;
                outcome.proven_safe_overflows = stats.proven_safe_overflows;
                outcome.proven_safe_overflow_signatures =
                    csod.proven_safe_overflow_signatures().to_vec();
                outcome.frees_fast_filtered = stats.frees_fast_filtered;
                outcome.teardowns_batched = stats.teardowns_batched;
                outcome.stale_traps_suppressed = stats.stale_traps_suppressed;
                outcome.context_watch_counts = csod
                    .sampling()
                    .snapshot()
                    .into_iter()
                    .map(|(key, state)| (key, state.watch_count))
                    .collect();
                outcome.reports = csod
                    .reports()
                    .iter()
                    .map(|r| r.render(csod.frames()))
                    .collect();
                // Deduplicate by the overflowed object's allocation
                // context: the same bug rediscovered through another
                // overflow site or thread counts once for the fleet.
                let mut signatures = std::collections::BTreeSet::new();
                for report in csod.reports() {
                    signatures.insert(report.alloc_context.signature(csod.frames()));
                }
                outcome.unique_report_contexts = signatures.len();
                outcome.duplicate_reports =
                    (csod.reports().len() - signatures.len()) as u64;
                let trace = csod.drain_trace();
                outcome.trace_events = trace.events.len() as u64;
                outcome.trace_dropped = trace.dropped;
                outcome.trace_counts = trace.counts();
            }
            ToolState::Asan(asan) => {
                asan.finish(&mut self.machine, &mut self.heap);
                outcome.detected = asan.detected();
                outcome.allocations = asan.stats().allocations;
                outcome.tool_extra_kb = asan.peak_shadow_bytes() / 1024;
                outcome.reports = asan.reports().iter().map(ToString::to_string).collect();
            }
            ToolState::Sampler(sampler) => {
                sampler.finish(&mut self.machine);
                outcome.detected = sampler.detected();
                outcome.allocations = sampler.stats().allocations;
                outcome.reports = sampler.reports().iter().map(ToString::to_string).collect();
            }
        }
        outcome.replay_cache_hits = replay_stats.hits;
        outcome.replay_cache_misses = replay_stats.misses;
        outcome.replay_cache_invalidations = replay_stats.invalidations;
        outcome.replay_segments_compiled = replay_stats.compiled;
        outcome.replay_accesses = replay_stats.replayed_accesses;
        if outcome.allocations == 0 {
            outcome.allocations = self.heap.stats().allocs;
        }
        let counter = self.machine.counter();
        outcome.overhead = counter.normalized_overhead();
        outcome.total_ns = counter.total_ns();
        outcome.app_ns = counter.app_ns();
        outcome.tool_ns = counter.tool_ns();
        outcome.io_ns = counter.io_ns();
        outcome.syscalls = counter.syscalls();
        outcome.peak_heap_kb = self.heap.stats().peak_in_use_bytes / 1024;
        outcome
    }
}

/// Stores `value` at `slot`, growing the table to reach it. Trace
/// slots are handed out in order, so growth is almost always a `push`.
fn set_slot(table: &mut Vec<Option<(VirtAddr, u64)>>, slot: usize, value: (VirtAddr, u64)) {
    if slot == table.len() {
        table.push(Some(value));
        return;
    }
    if slot > table.len() {
        table.resize(slot + 1, None);
    }
    table[slot] = Some(value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use csod_ctx::FrameTable;

    fn registry() -> SiteRegistry {
        let mut reg = SiteRegistry::new("demo", Arc::new(FrameTable::new()));
        reg.add_alloc_sites(4);
        reg.add_access_site("demo", "use.c:10");
        reg.add_access_site("libfoo.so", "foo.c:99");
        reg
    }

    fn bug_trace(site: SiteToken, kind: AccessKind) -> Vec<Event> {
        vec![
            Event::malloc(0, 64, 0),
            Event::access(0, 0, 8, AccessKind::Write, site),
            Event::overflow(0, kind, site),
            Event::free(0),
        ]
    }

    #[test]
    fn baseline_detects_nothing_and_has_unit_overhead() {
        let reg = registry();
        let outcome =
            TraceRunner::new(&reg, ToolSpec::Baseline).run(bug_trace(SiteToken(0), AccessKind::Write));
        assert!(!outcome.detected);
        assert_eq!(outcome.overhead, 1.0);
        assert_eq!(outcome.tool_ns, 0);
        assert_eq!(outcome.allocations, 1);
    }

    #[test]
    fn csod_detects_the_watched_overflow() {
        let reg = registry();
        let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default()))
            .run(bug_trace(SiteToken(0), AccessKind::Read));
        assert!(outcome.detected);
        assert!(outcome.watchpoint_detected);
        assert_eq!(outcome.watched_times, 1);
        assert!(outcome.overhead > 1.0);
        assert!(outcome.reports[0].contains("over-read"));
        assert!(outcome.reports[0].contains("use.c:10"));
    }

    #[test]
    fn asan_detects_only_in_instrumented_modules() {
        let reg = registry();
        let spec = || ToolSpec::Asan {
            config: AsanConfig::default(),
            instrumented: vec!["demo".into()],
        };
        // Overflow from instrumented module: detected.
        let outcome = TraceRunner::new(&reg, spec()).run(bug_trace(SiteToken(0), AccessKind::Write));
        assert!(outcome.detected);
        // Same overflow performed inside libfoo.so: missed.
        let outcome = TraceRunner::new(&reg, spec()).run(bug_trace(SiteToken(1), AccessKind::Write));
        assert!(!outcome.detected);
    }

    #[test]
    fn evidence_detects_unwatched_overwrite() {
        let reg = registry();
        // Fill all four watchpoints with other contexts first, then
        // overflow an unwatched object; the canary catches it at free.
        let mut trace = Vec::new();
        for i in 0..4 {
            trace.push(Event::malloc(i, 32, i));
        }
        // Use a distinct context? Only 4 sites; reuse site 3 so its
        // probability halves and the new object is likely unwatched.
        trace.push(Event::malloc(3, 32, 5));
        trace.push(Event::overflow(5, AccessKind::Write, SiteToken(0)));
        trace.push(Event::free(5));
        let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(trace);
        assert!(outcome.detected);
    }

    #[test]
    fn accesses_are_clamped_in_bounds() {
        let reg = registry();
        let trace = vec![
            Event::malloc(0, 16, 0),
            // Deliberately out-of-range intent: clamped, so no report.
            Event::access(0, 120, 64, AccessKind::Read, SiteToken(0)),
        ];
        let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(trace);
        assert!(!outcome.detected);
    }

    #[test]
    fn empty_slots_are_ignored() {
        let reg = registry();
        let trace = vec![
            Event::free(3),
            Event::access(9, 0, 8, AccessKind::Read, SiteToken(0)),
            Event::overflow(2, AccessKind::Write, SiteToken(0)),
        ];
        let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(trace);
        assert!(!outcome.detected);
        assert_eq!(outcome.allocations, 0);
    }

    #[test]
    fn dangling_access_hits_the_last_freed_occupant() {
        let reg = registry();
        let mut runner = TraceRunner::new(
            &reg,
            ToolSpec::Asan {
                config: AsanConfig::default(),
                instrumented: vec!["demo".into()],
            },
        );
        runner.step(&Event::malloc(0, 64, 0));
        let (first, _) = runner.slot(0).expect("slot 0 allocated");
        runner.step(&Event::free(0));
        runner.step(&Event::malloc(1, 64, 0));
        let (second, _) = runner.slot(0).expect("slot 0 re-allocated");
        assert_ne!(
            first, second,
            "the quarantine keeps the first block out of reuse"
        );
        runner.step(&Event::free(0));
        assert_eq!(runner.ghost(0), Some((second, 64)));
        let outcome = runner.run([Event::DanglingAccess {
            thread: 0,
            slot: 0,
            offset: 8,
            kind: AccessKind::Read,
            site: SiteToken(0),
        }]);
        assert_eq!(outcome.reports.len(), 1);
        assert!(
            outcome.reports[0].contains(&(second + 8).to_string()),
            "report {} names the second occupant {second}",
            outcome.reports[0]
        );
    }

    #[test]
    fn slots_far_beyond_any_seen_are_ignored() {
        let reg = registry();
        let far = 1 << 40;
        let mut runner = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default()));
        for event in [
            Event::malloc(0, 64, 0),
            Event::free(0),
            Event::free(far),
            Event::DanglingAccess {
                thread: 0,
                slot: far,
                offset: 0,
                kind: AccessKind::Write,
                site: SiteToken(0),
            },
            Event::overflow(far, AccessKind::Write, SiteToken(0)),
        ] {
            runner.step(&event);
        }
        assert_eq!(runner.ghosts.len(), 1, "a miss never grows the ghost table");
        let outcome = runner.run([]);
        assert!(!outcome.detected);
        assert_eq!(outcome.allocations, 1);
    }

    #[test]
    fn threads_round_trip() {
        let reg = registry();
        let trace = vec![
            Event::SpawnThread,
            Event::Malloc {
                thread: 1,
                site: 0,
                size: 64,
                slot: 0,
            },
            Event::OverflowAccess {
                thread: 1,
                slot: 0,
                kind: AccessKind::Write,
                site: SiteToken(0),
            },
        ];
        let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(trace);
        assert!(outcome.detected);
    }

    #[test]
    fn io_wait_dilutes_overhead() {
        let reg = registry();
        let cpu_trace = vec![Event::malloc(0, 64, 0), Event::free(0)];
        let io_trace = vec![
            Event::malloc(0, 64, 0),
            Event::free(0),
            Event::IoWait { ns: 100_000_000 },
        ];
        let cpu = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(cpu_trace);
        let io = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default())).run(io_trace);
        assert!(io.overhead < cpu.overhead);
    }

    #[test]
    fn use_after_free_visibility_per_tool() {
        use sampler_sim::SamplerConfig;
        let reg = registry();
        let uaf_trace = || {
            vec![
                Event::malloc(0, 64, 0),
                Event::free(0),
                Event::DanglingAccess {
                    thread: 0,
                    slot: 0,
                    offset: 8,
                    kind: AccessKind::Read,
                    site: SiteToken(0),
                },
            ]
        };
        // ASan: quarantined memory stays poisoned -> detected.
        let asan = TraceRunner::new(
            &reg,
            ToolSpec::Asan {
                config: AsanConfig::default(),
                instrumented: vec!["demo".into()],
            },
        )
        .run(uaf_trace());
        assert!(asan.detected, "ASan sees the UAF");
        assert!(asan.reports[0].contains("use-after-free"));
        // Sampler (period 1): freed-object tracking -> detected.
        let sampler = TraceRunner::new(
            &reg,
            ToolSpec::Sampler(SamplerConfig {
                sample_period: 1,
                ..SamplerConfig::default()
            }),
        )
        .run(uaf_trace());
        assert!(sampler.detected, "Sampler sees the UAF");
        // CSOD: watchpoint removed at free; UAF is out of scope.
        let csod = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default()))
            .run(uaf_trace());
        assert!(!csod.detected, "UAF is outside CSOD's scope (paper Section I)");
    }

    #[test]
    fn run_outcome_carries_trace_summary() {
        let reg = registry();
        let outcome = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default()))
            .run(bug_trace(SiteToken(0), AccessKind::Write));
        if csod_trace::trace_compiled_off() {
            assert_eq!(outcome.trace_events, 0);
            assert!(outcome.trace_counts.is_empty());
        } else {
            assert!(outcome.trace_events > 0);
            let kinds: Vec<_> = outcome.trace_counts.iter().map(|(k, _)| *k).collect();
            assert!(kinds.contains(&TraceEventKind::AllocSampled));
            assert!(kinds.contains(&TraceEventKind::WatchInstalled));
            assert!(kinds.contains(&TraceEventKind::TrapFired));
        }
    }

    #[test]
    fn labels_distinguish_configurations() {
        assert_eq!(ToolSpec::Baseline.label(), "baseline");
        assert_eq!(ToolSpec::Csod(CsodConfig::default()).label(), "csod");
        assert_eq!(
            ToolSpec::Csod(CsodConfig::without_evidence()).label(),
            "csod-no-evidence"
        );
    }
}
