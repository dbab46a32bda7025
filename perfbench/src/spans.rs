//! Layer spans recorded from outside the program.
//!
//! The traced run wraps the substrate in [`Timed`] (a `Backend`
//! decorator) and the allocator in [`TimedHeap`], and the drivers wrap
//! each public call in [`span`]. Nothing inside the program is
//! instrumented, so every span is a call boundary between the benchmark,
//! the runtime, and the substrate the runtime drives.
//!
//! Spans nest: a span's *self* time is its duration minus the time its
//! child spans cover. Each layer keeps its total, self time and call
//! count in a thread-local table, read out with [`take`].

use csod_core::{Backend, HeapBackend, ToolCosts, WatchBackend};
use sim_heap::HeapError;
use sim_machine::{
    Fd, Machine, MemoryError, PerfError, SignalInfo, ThreadError, ThreadId, VirtAddr, VirtInstant,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Time and calls attributed to one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Wall nanoseconds inside the layer's spans.
    pub total_ns: u64,
    /// `total_ns` minus the part covered by child spans.
    pub self_ns: u64,
    /// Spans closed.
    pub calls: u64,
}

impl LayerTime {
    /// Mean wall nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

#[derive(Default)]
struct Recorder {
    /// Child time accumulated by each open span, innermost last.
    open: Vec<u64>,
    layers: BTreeMap<&'static str, LayerTime>,
    /// Time covered by outermost spans.
    top_level_ns: u64,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Runs `f` inside a span of `layer`.
pub fn span<R>(layer: &'static str, f: impl FnOnce() -> R) -> R {
    RECORDER.with(|r| r.borrow_mut().open.push(0));
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let children = r.open.pop().expect("span stack is balanced");
        match r.open.last_mut() {
            Some(parent) => *parent += ns,
            None => r.top_level_ns += ns,
        }
        let acc = r.layers.entry(layer).or_default();
        acc.total_ns += ns;
        acc.self_ns += ns.saturating_sub(children);
        acc.calls += 1;
    });
    out
}

/// Every layer's totals since the last call, plus the time covered by
/// outermost spans; resets the table.
pub fn take() -> (BTreeMap<&'static str, LayerTime>, u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "spans still open");
        (
            std::mem::take(&mut r.layers),
            std::mem::take(&mut r.top_level_ns),
        )
    })
}

/// Adds every layer of `from` into `into`.
pub fn merge(
    into: &mut BTreeMap<&'static str, LayerTime>,
    from: BTreeMap<&'static str, LayerTime>,
) {
    for (name, time) in from {
        let acc = into.entry(name).or_default();
        acc.total_ns += time.total_ns;
        acc.self_ns += time.self_ns;
        acc.calls += time.calls;
    }
}

/// What the server driver needs beyond [`Backend`]: the application's
/// own accesses, which go straight to the simulated machine.
pub trait Substrate: Backend {
    /// Whether calls should be wrapped in spans (false compiles the
    /// untraced path down to the bare calls).
    const TRACED: bool;

    /// The simulated machine under the backend.
    fn machine(&mut self) -> &mut Machine;
}

impl Substrate for Machine {
    const TRACED: bool = false;

    fn machine(&mut self) -> &mut Machine {
        self
    }
}

/// Runs `f` in a span of `layer` when `S` is traced, bare otherwise.
#[inline]
pub fn call<S: Substrate, R>(layer: &'static str, f: impl FnOnce() -> R) -> R {
    if S::TRACED {
        span(layer, f)
    } else {
        f()
    }
}

/// A timing decorator over the simulated machine: every watchpoint,
/// trap and canary-memory call the runtime makes is a span.
#[derive(Debug)]
pub struct Timed(pub Machine);

impl Substrate for Timed {
    const TRACED: bool = true;

    fn machine(&mut self) -> &mut Machine {
        &mut self.0
    }
}

impl Backend for Timed {
    fn now(&self) -> VirtInstant {
        self.0.now()
    }
    fn tool_costs(&self) -> ToolCosts {
        Backend::tool_costs(&self.0)
    }
    fn charge_tool(&mut self, ns: u64) {
        self.0.charge_tool(ns);
    }
    fn take_signals(&mut self) -> Vec<SignalInfo> {
        span("signals.take", || Backend::take_signals(&mut self.0))
    }
    fn spawn_thread(&mut self) -> ThreadId {
        Backend::spawn_thread(&mut self.0)
    }
    fn exit_thread(&mut self, tid: ThreadId) -> Result<(), ThreadError> {
        Backend::exit_thread(&mut self.0, tid)
    }
    fn alive_threads(&self) -> Vec<ThreadId> {
        Backend::alive_threads(&self.0)
    }
    fn arm_watch(
        &mut self,
        route: WatchBackend,
        canary_addr: VirtAddr,
        tid: ThreadId,
    ) -> Result<Fd, PerfError> {
        span("watch.arm", || self.0.arm_watch(route, canary_addr, tid))
    }
    fn disarm_watch(&mut self, route: WatchBackend, fd: Fd) {
        span("watch.disarm", || self.0.disarm_watch(route, fd));
    }
    fn arm_watch_all_threads(
        &mut self,
        canary_addr: VirtAddr,
    ) -> Result<Vec<(ThreadId, Fd)>, PerfError> {
        span("watch.arm", || self.0.arm_watch_all_threads(canary_addr))
    }
    fn disarm_batch(&mut self, route: WatchBackend, fds: &[Fd]) {
        span("watch.disarm", || self.0.disarm_batch(route, fds));
    }
    fn store_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), MemoryError> {
        span("canary", || Backend::store_u64(&mut self.0, addr, value))
    }
    fn load_u64(&self, addr: VirtAddr) -> Result<u64, MemoryError> {
        span("canary", || Backend::load_u64(&self.0, addr))
    }
    fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<(), MemoryError> {
        span("canary", || Backend::write_bytes(&mut self.0, addr, data))
    }
    fn read_bytes(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MemoryError> {
        Backend::read_bytes(&self.0, addr, buf)
    }
    fn fill(&mut self, addr: VirtAddr, len: u64, byte: u8) -> Result<(), MemoryError> {
        span("canary", || Backend::fill(&mut self.0, addr, len, byte))
    }
}

/// A timing decorator over an allocator driven through [`Timed`].
#[derive(Debug)]
pub struct TimedHeap<H>(pub H);

impl<H: HeapBackend<Machine>> HeapBackend<Timed> for TimedHeap<H> {
    fn malloc(&mut self, backend: &mut Timed, size: u64) -> Result<VirtAddr, HeapError> {
        span("heap", || self.0.malloc(&mut backend.0, size))
    }
    fn memalign(
        &mut self,
        backend: &mut Timed,
        align: u64,
        size: u64,
    ) -> Result<VirtAddr, HeapError> {
        span("heap", || self.0.memalign(&mut backend.0, align, size))
    }
    fn free(&mut self, backend: &mut Timed, addr: VirtAddr) -> Result<u64, HeapError> {
        span("heap", || self.0.free(&mut backend.0, addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let _ = take();
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let (layers, top) = take();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(top, outer.total_ns);
    }
}
