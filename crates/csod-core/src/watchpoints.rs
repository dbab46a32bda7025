//! The Watchpoint Management Unit (paper Section III-C).
//!
//! At most four heap objects are watched at a time — one hardware debug
//! register each, installed on *every* alive thread through the
//! `perf_event_open` sequence of Figure 3 and removed with the
//! `ioctl(DISABLE)` + `close` sequence of Figure 4.
//!
//! When all four slots are busy, the [replacement
//! policy](crate::ReplacementPolicy) decides whether a new candidate
//! preempts an installed watchpoint. A replacement happens only when the
//! candidate's probability exceeds the victim's *effective* probability,
//! which decays by halving for every 10 seconds the watchpoint has been
//! installed — "an object without overflows for an extended period will
//! likely have a lower chance of experiencing overflows in the future".

use crate::backend::Backend;
use crate::config::WatchBackend;
use crate::fastmap::FastMap;
use crate::policy::ReplacementPolicy;
use crate::sampling::CtxId;
use csod_ctx::ContextKey;
use csod_rng::Arc4Random;
use csod_trace::{Histogram, HistogramSnapshot};
use sim_machine::{
    Fd, PerfError, ThreadId, VirtAddr, VirtDuration, VirtInstant, NUM_WATCHPOINT_REGISTERS,
};

/// Compact mirror of the live watched object addresses — at most one
/// `u64` per watchpoint slot, so four words on real hardware.
///
/// The deallocation fast path reads this (a handful of integer compares)
/// instead of scanning the slot array, so the overwhelming majority of
/// frees — those of unwatched objects — skip the Watchpoint Management
/// Unit entirely. The manager keeps the filter exact: an address is
/// present if and only if a slot currently guards it, so a miss is a
/// guaranteed "not watched".
#[derive(Debug, Clone, Default)]
pub struct WatchFilter {
    addrs: Vec<u64>,
}

/// A slot index as the `u32` stored in the fd index. Slot counts are
/// bounded by the debug-register count (a handful), so the cast is
/// lossless.
#[allow(clippy::cast_possible_truncation)]
fn slot_u32(idx: usize) -> u32 {
    idx as u32
}

impl WatchFilter {
    /// Whether `addr` is the start of a currently watched object.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        self.addrs.contains(&addr.as_u64())
    }

    /// Number of watched addresses in the filter.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether nothing is watched.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    fn insert(&mut self, addr: VirtAddr) {
        self.addrs.push(addr.as_u64());
    }

    fn remove(&mut self, addr: VirtAddr) {
        let raw = addr.as_u64();
        if let Some(i) = self.addrs.iter().position(|&a| a == raw) {
            self.addrs.swap_remove(i);
        }
    }

    fn clear(&mut self) {
        self.addrs.clear();
    }
}

/// One fd-index entry: which slot the descriptor belongs to and the
/// slot's generation at insertion time. A lookup is valid only while the
/// generation still matches — a recycled slot (or a kernel-recycled fd
/// number) can never resolve to the wrong watchpoint.
#[derive(Debug, Clone, Copy)]
struct FdEntry {
    slot: u32,
    generation: u64,
}

/// A request to watch one freshly allocated object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchCandidate {
    /// User-visible start of the object.
    pub object_start: VirtAddr,
    /// The boundary word to watch (the canary slot).
    pub canary_addr: VirtAddr,
    /// The object's allocation-context key.
    pub key: ContextKey,
    /// The context's dense id.
    pub ctx_id: CtxId,
    /// The context's probability at allocation time, in ppm.
    pub probability_ppm: u32,
}

/// One installed watchpoint.
#[derive(Debug, Clone)]
pub struct WatchedObject {
    /// User-visible start of the watched object.
    pub object_start: VirtAddr,
    /// The watched boundary word.
    pub canary_addr: VirtAddr,
    /// Allocation-context key of the object.
    pub key: ContextKey,
    /// Dense id of the allocation context.
    pub ctx_id: CtxId,
    /// Probability at install time, in ppm.
    pub probability_ppm: u32,
    /// Virtual time of installation.
    pub installed_at: VirtInstant,
    /// One perf event per alive thread.
    fds: Vec<(ThreadId, Fd)>,
}

impl WatchedObject {
    /// The probability this watchpoint defends with when a candidate
    /// wants its slot: the owning context's *current* probability (which
    /// degradation and watch-halving keep pushing down), additionally
    /// halved once per elapsed decay period — "the probability of an
    /// existing object will be reduced when it has been installed for a
    /// long period of time".
    ///
    /// The decay is clamped at 31 periods: a `u32` shift by ≥ 32 would
    /// panic in debug builds and wrap on release (`base >> (n % 32)`),
    /// resurrecting a long-dead probability. The clamp is lossless —
    /// any ppm value is below 2³¹, so 31 halvings already take it to 0.
    pub fn effective_probability_ppm(
        &self,
        current_ctx_ppm: Option<u32>,
        now: VirtInstant,
        decay: VirtDuration,
    ) -> u32 {
        let base = current_ctx_ppm.unwrap_or(self.probability_ppm);
        let elapsed = now.saturating_duration_since(self.installed_at).as_nanos();
        let periods = if decay.as_nanos() == 0 {
            0
        } else {
            (elapsed / decay.as_nanos()).min(31) as u32
        };
        base >> periods
    }

    /// The perf descriptors (one per thread) backing this watchpoint.
    pub fn descriptors(&self) -> impl Iterator<Item = (ThreadId, Fd)> + '_ {
        self.fds.iter().copied()
    }
}

/// Outcome of [`WatchpointManager::consider`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallOutcome {
    /// A free debug register was available ("installation due to
    /// availability").
    InstalledFree,
    /// An existing watchpoint was preempted.
    Replaced,
    /// The candidate lost: all slots busy and no victim had a lower
    /// effective probability (or the policy never preempts).
    Rejected,
    /// The backend refused the install (`EBUSY`/`ENOSPC`/`EINTR` from the
    /// perf syscalls). The slot is left free; the degradation manager
    /// decides whether to retry, quarantine, or fall back to canaries.
    Failed,
}

/// Counters the manager maintains (Table IV's "WT" column and the
/// overhead discussion of Section V-B).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchpointStats {
    /// Objects ever watched (free-slot installs + replacements).
    pub installs: u64,
    /// Installs that preempted an existing watchpoint.
    pub replacements: u64,
    /// Watchpoints removed because their object was freed.
    pub removals_on_free: u64,
    /// Candidates rejected by the policy.
    pub rejected: u64,
    /// Installs the backend refused (fault injection or a co-resident
    /// debugger holding the registers).
    pub install_failures: u64,
    /// Descriptors torn down through deferred batched drains (as opposed
    /// to the synchronous per-fd Figure-4 sequence).
    pub teardowns_batched: u64,
    /// Batched drains performed; `teardowns_batched / teardown_batches`
    /// is the average batch size.
    pub teardown_batches: u64,
}

/// The Watchpoint Management Unit.
#[derive(Debug)]
pub struct WatchpointManager {
    policy: ReplacementPolicy,
    backend: WatchBackend,
    age_decay: VirtDuration,
    slots: Vec<Option<WatchedObject>>,
    /// Near-FIFO circular cursor: next victim position.
    fifo_cursor: usize,
    /// Exact mirror of the occupied slots' object addresses; the free
    /// fast path reads it instead of scanning `slots`.
    filter: WatchFilter,
    /// Per-slot install generation; bumped on every install and logical
    /// removal so stale fd-index entries can never resolve.
    generations: Vec<u64>,
    /// fd → (slot, generation) for O(1) trap dispatch.
    fd_index: FastMap<u64, FdEntry>,
    /// Descriptors of logically removed watchpoints awaiting their
    /// batched Figure-4 teardown.
    pending_teardown: Vec<Fd>,
    /// Whether `remove_by_object` defers the physical teardown to the
    /// next drain point instead of paying it synchronously on the free.
    deferred_teardown: bool,
    /// Whether `find_by_fd` uses the fd index (`true`) or the paper's
    /// one-by-one descriptor comparison (`false`).
    use_fd_index: bool,
    stats: WatchpointStats,
    /// Observability: install-to-removal lifetime of every watchpoint
    /// that was ever taken down, in virtual nanoseconds.
    watch_lifetime: Histogram,
    /// Observability: occupied slots immediately after each install.
    slot_occupancy: Histogram,
}

impl WatchpointManager {
    /// Creates a manager with the given policy and age-decay period,
    /// installing through `perf_event_open`.
    pub fn new(policy: ReplacementPolicy, age_decay: VirtDuration) -> Self {
        WatchpointManager::with_backend(policy, WatchBackend::PerfEvent, age_decay)
    }

    /// Creates a manager with an explicit installation backend.
    pub fn with_backend(
        policy: ReplacementPolicy,
        backend: WatchBackend,
        age_decay: VirtDuration,
    ) -> Self {
        WatchpointManager::with_slots(policy, backend, age_decay, NUM_WATCHPOINT_REGISTERS)
    }

    /// Creates a manager for hypothetical hardware with `slots` debug
    /// registers (the register-count ablation); the machine must be
    /// built with at least as many via
    /// [`Machine::with_debug_registers`].
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn with_slots(
        policy: ReplacementPolicy,
        backend: WatchBackend,
        age_decay: VirtDuration,
        slots: usize,
    ) -> Self {
        assert!(slots > 0, "at least one watchpoint slot");
        WatchpointManager {
            policy,
            backend,
            age_decay,
            slots: (0..slots).map(|_| None).collect(),
            fifo_cursor: 0,
            filter: WatchFilter::default(),
            generations: vec![0; slots],
            fd_index: FastMap::new(),
            pending_teardown: Vec::new(),
            deferred_teardown: false,
            use_fd_index: false,
            stats: WatchpointStats::default(),
            watch_lifetime: Histogram::new(),
            slot_occupancy: Histogram::new(),
        }
    }

    /// Configures the free-path optimizations: deferred batched teardown
    /// and fd-indexed trap dispatch. Both default to off (the
    /// paper-faithful behaviour); the runtime switches them on from
    /// [`crate::FastPathParams`].
    pub fn configure_fast_path(&mut self, deferred_teardown: bool, fd_index: bool) {
        self.deferred_teardown = deferred_teardown;
        self.use_fd_index = fd_index;
    }

    /// The compact watched-address filter. Reading it costs a few
    /// integer compares and never touches the slot array.
    pub fn filter(&self) -> &WatchFilter {
        &self.filter
    }

    /// Descriptors queued for batched teardown and not yet drained.
    pub fn pending_teardowns(&self) -> usize {
        self.pending_teardown.len()
    }

    /// Physically tears down every queued descriptor in one batch: a
    /// single kernel entry for the perf and combined backends, per-fd
    /// round trips for `ptrace` (which cannot batch). Called at the
    /// drain points — `poll()`, before any install, thread exit, and
    /// the end of the run.
    pub fn drain_teardowns<B: Backend>(&mut self, machine: &mut B) {
        if self.pending_teardown.is_empty() {
            return;
        }
        let fds = std::mem::take(&mut self.pending_teardown);
        self.stats.teardowns_batched += fds.len() as u64;
        self.stats.teardown_batches += 1;
        machine.disarm_batch(self.backend, &fds);
    }

    /// Number of watchpoint slots this manager drives.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The policy in effect.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// The installation backend in effect.
    pub fn backend(&self) -> WatchBackend {
        self.backend
    }

    /// Whether at least one of the four slots is free.
    pub fn has_free_slot(&self) -> bool {
        self.slots.iter().any(Option::is_none)
    }

    /// Number of objects currently watched.
    pub fn watched_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Counters.
    pub fn stats(&self) -> WatchpointStats {
        self.stats
    }

    /// Distribution of install-to-removal watchpoint lifetimes, in
    /// virtual nanoseconds (one observation per removed watchpoint).
    pub fn watch_lifetime_histogram(&self) -> HistogramSnapshot {
        self.watch_lifetime.snapshot()
    }

    /// Distribution of occupied slot counts sampled right after each
    /// install — how hard the four registers are being contended.
    pub fn slot_occupancy_histogram(&self) -> HistogramSnapshot {
        self.slot_occupancy.snapshot()
    }

    /// Offers `candidate` to the manager.
    ///
    /// A free slot is always used regardless of probability; otherwise
    /// the replacement policy picks a victim whose effective probability
    /// is lower than the candidate's, or rejects the candidate.
    pub fn consider<B: Backend>(
        &mut self,
        machine: &mut B,
        candidate: WatchCandidate,
        rng: &mut Arc4Random,
        current_ctx_ppm: impl Fn(ContextKey) -> Option<u32>,
    ) -> InstallOutcome {
        // Deferred teardowns still hold debug registers; release them
        // before claiming one for the candidate.
        self.drain_teardowns(machine);
        if let Some(free) = self.slots.iter().position(Option::is_none) {
            return match self.install_into(machine, free, candidate) {
                Ok(()) => {
                    self.stats.installs += 1;
                    InstallOutcome::InstalledFree
                }
                Err(_) => {
                    self.stats.install_failures += 1;
                    InstallOutcome::Failed
                }
            };
        }
        let now = machine.now();
        let victim = match self.policy {
            ReplacementPolicy::Naive => None,
            ReplacementPolicy::Random => {
                // Start at a random slot, then scan forward until a
                // lower-probability victim is found (Section III-C2).
                let n = self.slots.len();
                // At most a handful of debug registers, so the
                // conversion never saturates in practice.
                let start = rng.uniform(u32::try_from(n).unwrap_or(u32::MAX)) as usize;
                (0..n)
                    .map(|i| (start + i) % n)
                    .find(|&idx| self.loses_to(idx, &candidate, now, &current_ctx_ppm))
            }
            ReplacementPolicy::NearFifo => {
                // Check only the first-installed position; the cursor
                // advances when a replacement happens.
                let idx = self.fifo_cursor;
                if self.loses_to(idx, &candidate, now, &current_ctx_ppm) {
                    self.fifo_cursor = (idx + 1) % self.slots.len();
                    Some(idx)
                } else {
                    None
                }
            }
        };
        match victim {
            Some(idx) => {
                self.remove_slot(machine, idx);
                match self.install_into(machine, idx, candidate) {
                    Ok(()) => {
                        self.stats.installs += 1;
                        self.stats.replacements += 1;
                        InstallOutcome::Replaced
                    }
                    // The victim is gone and the candidate did not make
                    // it in: the slot stays free for the next attempt.
                    Err(_) => {
                        self.stats.install_failures += 1;
                        InstallOutcome::Failed
                    }
                }
            }
            None => {
                self.stats.rejected += 1;
                InstallOutcome::Rejected
            }
        }
    }

    fn loses_to(
        &self,
        idx: usize,
        candidate: &WatchCandidate,
        now: VirtInstant,
        current_ctx_ppm: impl Fn(ContextKey) -> Option<u32>,
    ) -> bool {
        self.slots[idx].as_ref().is_some_and(|w| {
            let defense = w.effective_probability_ppm(current_ctx_ppm(w.key), now, self.age_decay);
            // Same-context candidates win ties: the newer object of an
            // equally suspicious context is the better target, since the
            // installed sibling has demonstrably not overflowed yet.
            // This is also what makes evidence-pinned contexts (100 %)
            // always migrate the watch to their latest allocation.
            candidate.probability_ppm > defense
                || (candidate.key == w.key && candidate.probability_ppm >= defense)
        })
    }

    /// Removes the watchpoint guarding `object_start`, if any — called on
    /// deallocation. Returns whether one was removed.
    ///
    /// With deferred teardown enabled the removal is *logical*: the slot
    /// is vacated, the filter and fd index are purged (so a later trap
    /// from the still-armed hardware watchpoint is recognized as stale),
    /// and the Figure-4 syscalls are queued for the next batched drain.
    pub fn remove_by_object<B: Backend>(&mut self, machine: &mut B, object_start: VirtAddr) -> bool {
        let Some(idx) = self
            .slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|w| w.object_start == object_start))
        else {
            return false;
        };
        if self.deferred_teardown {
            self.unlink_slot(idx, machine.now());
        } else {
            self.remove_slot(machine, idx);
        }
        self.stats.removals_on_free += 1;
        true
    }

    /// The watched object owning `fd`, if any — how the signal handler
    /// identifies which watchpoint fired. With the fd index enabled this
    /// is one hash probe plus a generation check; otherwise it falls
    /// back to [`WatchpointManager::find_by_fd_scan`].
    pub fn find_by_fd(&self, fd: Fd) -> Option<&WatchedObject> {
        if self.use_fd_index {
            let entry = self.fd_index.get(fd.as_raw())?;
            let idx = entry.slot as usize;
            if self.generations.get(idx).copied() == Some(entry.generation) {
                return self.slots[idx].as_ref();
            }
            return None;
        }
        self.find_by_fd_scan(fd)
    }

    /// The paper-faithful dispatch of Section III-D1: "CSOD compares the
    /// current file descriptor with each of these saved file descriptors
    /// one-by-one". Kept behind the config flag and as the parity oracle
    /// for the fd index.
    pub fn find_by_fd_scan(&self, fd: Fd) -> Option<&WatchedObject> {
        self.slots
            .iter()
            .flatten()
            .find(|w| w.fds.iter().any(|&(_, f)| f == fd))
    }

    /// The watched object guarding `object_start`, if any.
    pub fn find_by_object(&self, object_start: VirtAddr) -> Option<&WatchedObject> {
        self.slots
            .iter()
            .flatten()
            .find(|w| w.object_start == object_start)
    }

    /// Whether `object_start` is currently watched.
    pub fn is_watched(&self, object_start: VirtAddr) -> bool {
        self.find_by_object(object_start).is_some()
    }

    /// Iterates over the currently watched objects.
    pub fn watched(&self) -> impl Iterator<Item = &WatchedObject> {
        self.slots.iter().flatten()
    }

    /// Extends every installed watchpoint onto a newly spawned thread —
    /// CSOD's `pthread_create` interception. Thread creation is rare, so
    /// even the combined-syscall backend uses the per-thread route here.
    ///
    /// A slot that cannot be extended to the new thread is torn down
    /// entirely: partial coverage would let the unwatched thread overflow
    /// silently while the tool believes the object is guarded. The canary
    /// fallback still covers the object.
    pub fn install_on_thread<B: Backend>(&mut self, machine: &mut B, tid: ThreadId) {
        let backend = match self.backend {
            WatchBackend::CombinedSyscall => WatchBackend::PerfEvent,
            other => other,
        };
        for idx in 0..self.slots.len() {
            let Some(slot) = self.slots[idx].as_mut() else {
                continue;
            };
            match machine.arm_watch(backend, slot.canary_addr, tid) {
                Ok(fd) => {
                    slot.fds.push((tid, fd));
                    self.fd_index.insert(
                        fd.as_raw(),
                        FdEntry {
                            slot: slot_u32(idx),
                            generation: self.generations[idx],
                        },
                    );
                }
                Err(_) => {
                    self.stats.install_failures += 1;
                    self.remove_slot(machine, idx);
                }
            }
        }
    }

    /// Forgets descriptors pinned to an exited thread (the kernel closes
    /// them with the thread; see [`Machine::exit_thread`]).
    pub fn forget_thread(&mut self, tid: ThreadId) {
        let fd_index = &mut self.fd_index;
        for slot in self.slots.iter_mut().flatten() {
            slot.fds.retain(|&(t, fd)| {
                if t == tid {
                    fd_index.remove(fd.as_raw());
                    false
                } else {
                    true
                }
            });
        }
    }

    /// Removes every watchpoint (end of execution), including any
    /// teardowns still queued from deferred removals.
    pub fn remove_all<B: Backend>(&mut self, machine: &mut B) {
        for idx in 0..self.slots.len() {
            if self.slots[idx].is_some() {
                self.remove_slot(machine, idx);
            }
        }
        self.drain_teardowns(machine);
        self.filter.clear();
        self.fd_index.clear();
    }

    fn install_into<B: Backend>(
        &mut self,
        machine: &mut B,
        idx: usize,
        candidate: WatchCandidate,
    ) -> Result<(), PerfError> {
        debug_assert!(self.slots[idx].is_none());
        // Figure 3: install the watchpoint on ALL alive threads, "since
        // there is no way to know which thread will cause an overflow".
        // Any per-thread failure rolls back the threads already armed so
        // a failed install never leaks a descriptor or register.
        let fds = match self.backend {
            WatchBackend::CombinedSyscall => {
                machine.arm_watch_all_threads(candidate.canary_addr)?
            }
            _ => {
                let threads: Vec<ThreadId> = machine.alive_threads();
                let mut fds: Vec<(ThreadId, Fd)> = Vec::with_capacity(threads.len());
                for tid in threads {
                    match machine.arm_watch(self.backend, candidate.canary_addr, tid) {
                        Ok(fd) => fds.push((tid, fd)),
                        Err(e) => {
                            for (_tid, fd) in fds {
                                machine.disarm_watch(self.backend, fd);
                            }
                            return Err(e);
                        }
                    }
                }
                fds
            }
        };
        self.generations[idx] = self.generations[idx].wrapping_add(1);
        let generation = self.generations[idx];
        for &(_tid, fd) in &fds {
            self.fd_index.insert(
                fd.as_raw(),
                FdEntry {
                    slot: slot_u32(idx),
                    generation,
                },
            );
        }
        self.filter.insert(candidate.object_start);
        self.slots[idx] = Some(WatchedObject {
            object_start: candidate.object_start,
            canary_addr: candidate.canary_addr,
            key: candidate.key,
            ctx_id: candidate.ctx_id,
            probability_ppm: candidate.probability_ppm,
            installed_at: machine.now(),
            fds,
        });
        self.slot_occupancy.record(self.watched_count() as u64);
        Ok(())
    }

    /// Logically removes the watchpoint in slot `idx` without issuing any
    /// syscalls: the slot, the watched-address filter, and the fd index
    /// forget it immediately — so a trap from the still-armed hardware
    /// watchpoint is *stale* (counted, never reported) — while the
    /// Figure-4 `ioctl`/`close` sequence is queued for the next batched
    /// drain. The generation bump guarantees a recycled slot never
    /// resolves through a stale fd-index entry.
    fn unlink_slot(&mut self, idx: usize, now: VirtInstant) {
        let watched = self.slots[idx].take().expect("slot occupied");
        self.watch_lifetime
            .record(now.saturating_duration_since(watched.installed_at).as_nanos());
        self.filter.remove(watched.object_start);
        self.generations[idx] = self.generations[idx].wrapping_add(1);
        for (_tid, fd) in watched.fds {
            self.fd_index.remove(fd.as_raw());
            self.pending_teardown.push(fd);
        }
    }

    fn remove_slot<B: Backend>(&mut self, machine: &mut B, idx: usize) {
        let watched = self.slots[idx].take().expect("slot occupied");
        self.watch_lifetime.record(
            machine
                .now()
                .saturating_duration_since(watched.installed_at)
                .as_nanos(),
        );
        self.filter.remove(watched.object_start);
        self.generations[idx] = self.generations[idx].wrapping_add(1);
        for &(_tid, fd) in &watched.fds {
            self.fd_index.remove(fd.as_raw());
        }
        match self.backend {
            // Figure 4: disable the event and close the descriptor on
            // every thread that still holds one.
            WatchBackend::CombinedSyscall => {
                let fds: Vec<Fd> = watched.fds.iter().map(|&(_, fd)| fd).collect();
                machine.disarm_batch(WatchBackend::CombinedSyscall, &fds);
            }
            route => {
                for (_tid, fd) in watched.fds {
                    machine.disarm_watch(route, fd);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csod_ctx::FrameTable;
    use sim_machine::Machine;

    fn machine_with_heap() -> (Machine, VirtAddr) {
        let mut m = Machine::new();
        let base = VirtAddr::new(0x10_0000);
        m.map_region(base, 1 << 16, "heap").unwrap();
        (m, base)
    }

    fn candidate(frames: &FrameTable, base: VirtAddr, n: u64, prob: u32) -> WatchCandidate {
        WatchCandidate {
            object_start: base + n * 64,
            canary_addr: base + n * 64 + 56,
            key: ContextKey::new(frames.intern(&format!("site{n}")), 0),
            ctx_id: CtxId::from_index(u32::try_from(n).expect("few candidates")),
            probability_ppm: prob,
        }
    }

    fn manager(policy: ReplacementPolicy) -> WatchpointManager {
        WatchpointManager::new(policy, VirtDuration::from_secs(10))
    }

    #[test]
    fn free_slots_always_accept() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        for i in 0..4 {
            // Probability zero — availability still wins.
            let out = w.consider(&mut m, candidate(&frames, base, i, 0), &mut rng, |_| None);
            assert_eq!(out, InstallOutcome::InstalledFree);
        }
        assert_eq!(w.watched_count(), 4);
        assert!(!w.has_free_slot());
        assert_eq!(w.stats().installs, 4);
    }

    #[test]
    fn naive_never_preempts() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        for i in 0..4 {
            w.consider(&mut m, candidate(&frames, base, i, 10), &mut rng, |_| None);
        }
        let out = w.consider(&mut m, candidate(&frames, base, 9, 1_000_000), &mut rng, |_| None);
        assert_eq!(out, InstallOutcome::Rejected);
        assert_eq!(w.stats().rejected, 1);
    }

    #[test]
    fn random_replaces_lower_probability_victim() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Random);
        for i in 0..4 {
            w.consider(&mut m, candidate(&frames, base, i, 100), &mut rng, |_| None);
        }
        let strong = candidate(&frames, base, 9, 500_000);
        assert_eq!(w.consider(&mut m, strong, &mut rng, |_| None), InstallOutcome::Replaced);
        assert!(w.is_watched(strong.object_start));
        // A weaker candidate loses everywhere.
        let weak = candidate(&frames, base, 10, 50);
        assert_eq!(w.consider(&mut m, weak, &mut rng, |_| None), InstallOutcome::Rejected);
    }

    #[test]
    fn near_fifo_checks_cursor_only() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::NearFifo);
        // Slot 0 holds a strong watchpoint; slots 1..3 weak ones.
        w.consider(&mut m, candidate(&frames, base, 0, 900_000), &mut rng, |_| None);
        for i in 1..4 {
            w.consider(&mut m, candidate(&frames, base, i, 10), &mut rng, |_| None);
        }
        // Candidate beats slots 1..3 but not slot 0 — the cursor points
        // at slot 0, so near-FIFO rejects.
        let mid = candidate(&frames, base, 9, 100_000);
        assert_eq!(w.consider(&mut m, mid, &mut rng, |_| None), InstallOutcome::Rejected);
        // A candidate that beats slot 0 replaces it and advances the cursor.
        let strong = candidate(&frames, base, 10, 950_000);
        assert_eq!(w.consider(&mut m, strong, &mut rng, |_| None), InstallOutcome::Replaced);
        // Now the cursor is at slot 1 (weak): mid-strength wins.
        assert_eq!(w.consider(&mut m, mid, &mut rng, |_| None), InstallOutcome::Replaced);
    }

    #[test]
    fn effective_probability_decays_with_age() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::NearFifo);
        for i in 0..4 {
            w.consider(&mut m, candidate(&frames, base, i, 400_000), &mut rng, |_| None);
        }
        // A 300k candidate loses against fresh 400k watchpoints...
        let c = candidate(&frames, base, 9, 300_000);
        assert_eq!(w.consider(&mut m, c, &mut rng, |_| None), InstallOutcome::Rejected);
        // ...but wins once they are 10+ seconds old (400k -> 200k).
        m.skip_time(VirtDuration::from_secs(10));
        assert_eq!(w.consider(&mut m, c, &mut rng, |_| None), InstallOutcome::Replaced);
    }

    #[test]
    fn removal_on_free_releases_slot_and_registers() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        let c = candidate(&frames, base, 0, 10);
        w.consider(&mut m, c, &mut rng, |_| None);
        assert_eq!(m.free_registers(ThreadId::MAIN), 3);
        assert!(w.remove_by_object(&mut m, c.object_start));
        assert!(!w.remove_by_object(&mut m, c.object_start));
        assert_eq!(m.free_registers(ThreadId::MAIN), 4);
        assert_eq!(w.stats().removals_on_free, 1);
        assert!(w.has_free_slot());
    }

    #[test]
    fn installs_cover_all_alive_threads() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let worker = m.spawn_thread();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        let c = candidate(&frames, base, 0, 10);
        w.consider(&mut m, c, &mut rng, |_| None);
        let obj = w.find_by_object(c.object_start).unwrap();
        let tids: Vec<ThreadId> = obj.descriptors().map(|(t, _)| t).collect();
        assert_eq!(tids, vec![ThreadId::MAIN, worker]);
        // The worker touching the canary fires on the worker.
        m.app_write(worker, c.canary_addr, 8).unwrap();
        let sigs = m.take_signals();
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].thread, worker);
    }

    #[test]
    fn new_thread_inherits_watchpoints() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        let c = candidate(&frames, base, 0, 10);
        w.consider(&mut m, c, &mut rng, |_| None);
        let late = m.spawn_thread();
        w.install_on_thread(&mut m, late);
        m.app_read(late, c.canary_addr, 8).unwrap();
        assert_eq!(m.take_signals().len(), 1);
    }

    #[test]
    fn find_by_fd_resolves_the_firing_watchpoint() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        let c0 = candidate(&frames, base, 0, 10);
        let c1 = candidate(&frames, base, 1, 10);
        w.consider(&mut m, c0, &mut rng, |_| None);
        w.consider(&mut m, c1, &mut rng, |_| None);
        m.app_write(ThreadId::MAIN, c1.canary_addr, 8).unwrap();
        let sig = m.take_signals().pop().unwrap();
        let hit = w.find_by_fd(sig.fd.unwrap()).unwrap();
        assert_eq!(hit.object_start, c1.object_start);
        assert!(w.find_by_fd(Fd::from_raw(9999)).is_none());
    }

    #[test]
    fn thread_exit_is_forgotten() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let worker = m.spawn_thread();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        let c = candidate(&frames, base, 0, 10);
        w.consider(&mut m, c, &mut rng, |_| None);
        w.forget_thread(worker);
        m.exit_thread(worker).unwrap();
        // Removing the object must not try to close the dead thread's fd.
        assert!(w.remove_by_object(&mut m, c.object_start));
    }

    #[test]
    fn ptrace_backend_installs_working_watchpoints_at_higher_cost() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = WatchpointManager::with_backend(
            ReplacementPolicy::Naive,
            WatchBackend::Ptrace,
            VirtDuration::from_secs(10),
        );
        let c = candidate(&frames, base, 0, 10);
        w.consider(&mut m, c, &mut rng, |_| None);
        let ptrace_cost = m.counter().tool_ns();
        m.app_write(ThreadId::MAIN, c.canary_addr, 8).unwrap();
        assert_eq!(m.take_signals().len(), 1, "ptrace watch traps too");
        assert!(w.remove_by_object(&mut m, c.object_start));
        assert_eq!(m.open_events(), 0);

        let (mut m2, base2) = machine_with_heap();
        let mut w2 = manager(ReplacementPolicy::Naive);
        w2.consider(&mut m2, candidate(&frames, base2, 0, 10), &mut rng, |_| None);
        assert!(ptrace_cost > 3 * m2.counter().tool_ns());
    }

    #[test]
    fn combined_backend_uses_one_syscall_per_install() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let worker = m.spawn_thread();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = WatchpointManager::with_backend(
            ReplacementPolicy::Naive,
            WatchBackend::CombinedSyscall,
            VirtDuration::from_secs(10),
        );
        let c = candidate(&frames, base, 0, 10);
        w.consider(&mut m, c, &mut rng, |_| None);
        assert_eq!(m.counter().syscalls(), 1, "one kernel entry for both threads");
        m.app_write(worker, c.canary_addr, 8).unwrap();
        assert_eq!(m.take_signals().len(), 1);
        assert!(w.remove_by_object(&mut m, c.object_start));
        assert_eq!(m.counter().syscalls(), 2);
        assert_eq!(m.open_events(), 0);
        // Late threads still get covered via the per-thread fallback.
        w.consider(&mut m, c, &mut rng, |_| None);
        let late = m.spawn_thread();
        w.install_on_thread(&mut m, late);
        m.app_read(late, c.canary_addr, 8).unwrap();
        assert_eq!(m.take_signals().len(), 1);
    }

    #[test]
    fn remove_all_clears_every_slot() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Random);
        for i in 0..4 {
            w.consider(&mut m, candidate(&frames, base, i, 10), &mut rng, |_| None);
        }
        w.remove_all(&mut m);
        assert_eq!(w.watched_count(), 0);
        assert_eq!(m.open_events(), 0);
    }

    #[test]
    fn decay_saturates_instead_of_wrapping() {
        // Installed for far more than 31 decay periods: the shift clamp
        // must take the probability to 0, not wrap around to a large
        // value (u32 >> 32 would).
        let (mut m, base) = machine_with_heap();
        let frames = FrameTable::new();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        let c = candidate(&frames, base, 0, 1_000_000);
        w.consider(&mut m, c, &mut rng, |_| None);
        let decay = VirtDuration::from_secs(10);
        let watched = w.find_by_fd_scan(w.slots[0].as_ref().unwrap().fds[0].1).unwrap();
        for secs in [320u64, 400, 100_000] {
            let now = m.now() + VirtDuration::from_secs(secs);
            assert_eq!(watched.effective_probability_ppm(Some(1_000_000), now, decay), 0);
        }
        // Right at the clamp boundary: 31 periods of a full-scale ppm.
        let now = m.now() + VirtDuration::from_secs(310);
        assert_eq!(watched.effective_probability_ppm(Some(1_000_000), now, decay), 0);
    }

    #[test]
    fn filter_tracks_watched_addresses_exactly() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        assert!(w.filter().is_empty());
        let a = candidate(&frames, base, 0, 10);
        let b = candidate(&frames, base, 1, 10);
        w.consider(&mut m, a, &mut rng, |_| None);
        w.consider(&mut m, b, &mut rng, |_| None);
        assert!(w.filter().contains(a.object_start));
        assert!(w.filter().contains(b.object_start));
        assert!(!w.filter().contains(base + 9 * 64));
        w.remove_by_object(&mut m, a.object_start);
        assert!(!w.filter().contains(a.object_start));
        assert!(w.filter().contains(b.object_start));
        w.remove_all(&mut m);
        assert!(w.filter().is_empty());
    }

    #[test]
    fn deferred_unlink_queues_teardown_until_drain() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        w.configure_fast_path(true, true);
        let c = candidate(&frames, base, 0, 10);
        w.consider(&mut m, c, &mut rng, |_| None);
        let before = m.counter().syscalls();
        assert!(w.remove_by_object(&mut m, c.object_start));
        // Logical removal: no syscalls yet, register still held, but the
        // filter and slot no longer know the object.
        assert_eq!(m.counter().syscalls(), before);
        assert_eq!(m.free_registers(ThreadId::MAIN), 3);
        assert!(!w.is_watched(c.object_start));
        assert!(!w.filter().contains(c.object_start));
        assert_eq!(w.pending_teardowns(), 1);
        w.drain_teardowns(&mut m);
        assert_eq!(m.counter().syscalls(), before + 1);
        assert_eq!(m.free_registers(ThreadId::MAIN), 4);
        assert_eq!(w.pending_teardowns(), 0);
        assert_eq!(w.stats().teardowns_batched, 1);
        assert_eq!(w.stats().teardown_batches, 1);
    }

    #[test]
    fn consider_drains_pending_teardowns_first() {
        // All four registers are tied up in deferred teardowns; a new
        // install must drain them first instead of failing with EBUSY.
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        w.configure_fast_path(true, true);
        let cs: Vec<WatchCandidate> = (0..4).map(|i| candidate(&frames, base, i, 10)).collect();
        for c in &cs {
            w.consider(&mut m, *c, &mut rng, |_| None);
        }
        for c in &cs {
            w.remove_by_object(&mut m, c.object_start);
        }
        assert_eq!(w.pending_teardowns(), 4);
        assert_eq!(m.free_registers(ThreadId::MAIN), 0);
        let out = w.consider(&mut m, candidate(&frames, base, 9, 10), &mut rng, |_| None);
        assert_eq!(out, InstallOutcome::InstalledFree);
        assert_eq!(w.pending_teardowns(), 0);
    }

    #[test]
    fn fd_index_agrees_with_paper_scan() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let worker = m.spawn_thread();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        w.configure_fast_path(true, true);
        for i in 0..4 {
            w.consider(&mut m, candidate(&frames, base, i, 10), &mut rng, |_| None);
        }
        // Every live descriptor resolves identically through the index
        // and through the Section III-D1 linear scan.
        let fds: Vec<Fd> = w
            .slots
            .iter()
            .flatten()
            .flat_map(|s| s.fds.iter().map(|&(_, fd)| fd))
            .collect();
        assert_eq!(fds.len(), 8); // 4 slots × 2 threads
        for fd in fds {
            let via_index = w.find_by_fd(fd).map(|o| o.object_start);
            let via_scan = w.find_by_fd_scan(fd).map(|o| o.object_start);
            assert_eq!(via_index, via_scan);
            assert!(via_index.is_some());
        }
        // A descriptor that never belonged to a watchpoint misses both ways.
        let bogus = Fd::from_raw(u64::MAX);
        assert!(w.find_by_fd(bogus).is_none());
        assert!(w.find_by_fd_scan(bogus).is_none());
        m.exit_thread(worker).unwrap();
    }

    #[test]
    fn generation_counter_rejects_stale_index_entries() {
        let frames = FrameTable::new();
        let (mut m, base) = machine_with_heap();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut w = manager(ReplacementPolicy::Naive);
        w.configure_fast_path(true, true);
        let c = candidate(&frames, base, 0, 10);
        w.consider(&mut m, c, &mut rng, |_| None);
        let stale_fd = w.slots[0].as_ref().unwrap().fds[0].1;
        w.remove_by_object(&mut m, c.object_start);
        // The old fd must not resolve — neither before nor after the slot
        // is recycled for a different object.
        assert!(w.find_by_fd(stale_fd).is_none());
        let fresh = candidate(&frames, base, 1, 10);
        w.consider(&mut m, fresh, &mut rng, |_| None);
        assert!(w.find_by_fd(stale_fd).is_none());
        let fresh_fd = w.slots[0].as_ref().unwrap().fds[0].1;
        assert_eq!(w.find_by_fd(fresh_fd).unwrap().object_start, fresh.object_start);
    }
}
