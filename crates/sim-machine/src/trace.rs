//! Trace cache: compiled segments of watchpoint-free access runs.
//!
//! The machine interprets one application access at a time; every access
//! pays the full walk (cost charge, PMU countdown, mapping check, store
//! imprint, watchpoint scan). Workload replay is dominated by hot
//! straight-line runs of in-bounds accesses that provably touch no armed
//! watchpoint — the same observation ckb-vm exploits with its fixed-size
//! trace cache of direct-threaded basic blocks. This module is the data
//! half of that design: [`TraceSegment`]s compiled from clean runs, kept
//! in a power-of-two slot table ([`TraceCache`]) keyed by the run's first
//! effective address via [`calculate_slot`], and invalidated by the
//! machine's watch-generation counter (see
//! [`Machine::watch_generation`](crate::Machine::watch_generation)).
//!
//! Replaying a cached segment performs one armed-range hull check and one
//! batched memory apply ([`Machine::replay_segment`](crate::Machine::replay_segment))
//! instead of N full per-access walks.

use crate::addr::{AccessKind, AddrRange, VirtAddr};
use crate::signal::SiteToken;
use crate::thread::ThreadId;

/// Number of slots in a [`TraceCache`]. Power of two so the slot index is
/// a mask, as in ckb-vm's `TRACE_SIZE`.
pub const TRACE_CACHE_SLOTS: usize = 4096;

/// Longest run of accesses a single segment may hold. Runs longer than
/// this are compiled as several consecutive segments.
pub const MAX_SEGMENT_LEN: usize = 64;

const _: () = assert!(TRACE_CACHE_SLOTS.is_power_of_two());

/// Maps a run's first effective address to its cache slot.
///
/// The low bits below the word granularity carry no entropy (runs start
/// on object offsets), so they are shifted out before masking — the same
/// shape as ckb-vm's `calculate_slot(addr)`.
#[inline]
#[must_use]
pub fn calculate_slot(addr: VirtAddr) -> usize {
    ((addr.as_u64() >> 3) as usize) & (TRACE_CACHE_SLOTS - 1)
}

/// One access of a compiled run: everything the interpreter would have
/// needed, including the per-access site so an uncached fallback (or a
/// post-replay trap attribution) sees exactly the sites interpret mode
/// would have set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStep {
    /// Effective address of the access.
    pub addr: VirtAddr,
    /// Access length in bytes.
    pub len: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// The statement performing the access.
    pub site: SiteToken,
}

impl SegmentStep {
    /// The address range this step touches.
    #[inline]
    #[must_use]
    pub fn range(&self) -> AddrRange {
        AddrRange::new(self.addr, self.len)
    }
}

/// A compiled run of accesses proven clean at compile time: it executed
/// with no trap, no signal, and no armed-range overlap, under the watch
/// generation recorded here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSegment {
    /// Thread the run executed on. Watchpoints are per-thread, so the
    /// segment is only valid for this thread's register file.
    pub thread: ThreadId,
    /// [`Machine::watch_generation`](crate::Machine::watch_generation) at
    /// compile time; any watch/map/fault mutation since invalidates the
    /// segment.
    pub generation: u64,
    /// The accesses of the run, in program order.
    pub steps: Vec<SegmentStep>,
    /// Bounding hull over every step — one overlap comparison against the
    /// armed-range hull replaces N per-access walks.
    pub hull: AddrRange,
    /// The store footprint, coalesced into maximal disjoint spans so the
    /// batched apply performs one fill per span instead of one per store.
    pub write_spans: Vec<AddrRange>,
}

impl TraceSegment {
    /// Compiles `steps` (a run executed clean under `generation`) into a
    /// segment. Returns `None` for an empty run.
    #[must_use]
    pub fn compile(thread: ThreadId, generation: u64, steps: Vec<SegmentStep>) -> Option<Self> {
        let first = steps.first()?;
        let mut hull = first.range();
        for step in &steps[1..] {
            hull = hull_of(hull, step.range());
        }
        let write_spans = coalesce_writes(&steps);
        Some(TraceSegment {
            thread,
            generation,
            steps,
            hull,
            write_spans,
        })
    }

    /// The cache key: the run's first effective address.
    #[inline]
    #[must_use]
    pub fn key(&self) -> VirtAddr {
        self.steps[0].addr
    }

    /// Number of accesses in the run.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the segment holds no accesses (never true for compiled
    /// segments; present for API completeness).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Whether this segment replays exactly the pending run `steps` on
    /// `thread`. Sites are part of the match: a run with the same
    /// addresses from different statements must not inherit this
    /// segment's trap attribution.
    #[inline]
    #[must_use]
    pub fn matches(&self, thread: ThreadId, steps: &[SegmentStep]) -> bool {
        self.thread == thread && self.steps == steps
    }
}

fn hull_of(a: AddrRange, b: AddrRange) -> AddrRange {
    let start = a.start().as_u64().min(b.start().as_u64());
    let end = a.end().as_u64().max(b.end().as_u64());
    AddrRange::new(VirtAddr::new(start), end - start)
}

/// Coalesces the write steps of a run into maximal disjoint spans,
/// sorted by address. Adjacent and overlapping stores merge; the batched
/// apply then performs one fill per span.
fn coalesce_writes(steps: &[SegmentStep]) -> Vec<AddrRange> {
    let mut spans: Vec<AddrRange> = steps
        .iter()
        .filter(|s| s.kind == AccessKind::Write && s.len > 0)
        .map(SegmentStep::range)
        .collect();
    spans.sort_by_key(|r| r.start().as_u64());
    let mut merged: Vec<AddrRange> = Vec::with_capacity(spans.len());
    for span in spans {
        match merged.last_mut() {
            Some(last) if span.start().as_u64() <= last.end().as_u64() => {
                let end = last.end().as_u64().max(span.end().as_u64());
                *last = AddrRange::new(last.start(), end - last.start().as_u64());
            }
            _ => merged.push(span),
        }
    }
    merged
}

/// Hit/miss/invalidation accounting for one [`TraceCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Runs replayed from a cached segment.
    pub hits: u64,
    /// Runs that found no matching segment and executed interpreted.
    pub misses: u64,
    /// Cached segments discarded because their generation went stale or
    /// an overlapping write clobbered their footprint.
    pub invalidations: u64,
    /// Segments compiled from clean interpreted runs.
    pub compiled: u64,
    /// Individual accesses applied through batched replay (the walks the
    /// cache saved).
    pub replayed_accesses: u64,
}

/// A fixed-size, slot-indexed cache of compiled [`TraceSegment`]s.
///
/// Collisions evict: like ckb-vm's trace table, the cache is a hash table
/// without chains, so a new segment simply overwrites whatever its slot
/// held. Generation staleness is checked at replay time, not eagerly.
///
/// The slot table is allocated by the first [`insert`](Self::insert), so
/// an execution that never compiles a segment pays neither for the table
/// nor for scanning it on [`invalidate_overlapping`](Self::invalidate_overlapping).
#[derive(Debug)]
pub struct TraceCache {
    /// Empty until the first insert, then [`TRACE_CACHE_SLOTS`] long.
    slots: Vec<Option<TraceSegment>>,
    /// Number of `Some` slots, kept in step with every store and take.
    occupied: usize,
    stats: TraceCacheStats,
    /// Compiled-segment length distribution, indexed by access count
    /// (clamped to [`MAX_SEGMENT_LEN`]).
    len_counts: Vec<u64>,
}

impl Default for TraceCache {
    fn default() -> Self {
        TraceCache::new()
    }
}

impl TraceCache {
    /// Creates an empty cache. The [`TRACE_CACHE_SLOTS`]-slot table is
    /// allocated by the first [`insert`](Self::insert); until then every
    /// lookup misses and every invalidation is a no-op.
    #[must_use]
    pub fn new() -> Self {
        TraceCache {
            slots: Vec::new(),
            occupied: 0,
            stats: TraceCacheStats::default(),
            len_counts: vec![0; MAX_SEGMENT_LEN + 1],
        }
    }

    /// The segment cached for `key`'s slot, if any.
    #[inline]
    #[must_use]
    pub fn lookup(&self, key: VirtAddr) -> Option<&TraceSegment> {
        self.slots.get(calculate_slot(key))?.as_ref()
    }

    /// Caches `segment` in its key's slot, evicting any previous
    /// occupant, and counts the compile.
    pub fn insert(&mut self, segment: TraceSegment) {
        self.stats.compiled += 1;
        let len = segment.len().min(MAX_SEGMENT_LEN);
        self.len_counts[len] += 1;
        if self.slots.is_empty() {
            self.slots.resize_with(TRACE_CACHE_SLOTS, || None);
        }
        let slot = &mut self.slots[calculate_slot(segment.key())];
        if slot.replace(segment).is_none() {
            self.occupied += 1;
        }
    }

    /// Drops the segment cached for `key`'s slot and counts the
    /// invalidation. Used when a lookup finds a stale or blocked segment.
    pub fn invalidate_key(&mut self, key: VirtAddr) {
        if let Some(slot) = self.slots.get_mut(calculate_slot(key)) {
            if slot.take().is_some() {
                self.occupied -= 1;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Drops every cached segment whose hull overlaps `range` — the
    /// ckb-vm "overlapping write" rule, applied when out-of-model stores
    /// (overflows, dangling writes) corrupt memory near cached footprints.
    pub fn invalidate_overlapping(&mut self, range: AddrRange) {
        if self.occupied == 0 {
            return;
        }
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|seg| seg.hull.overlaps(&range)) {
                *slot = None;
                self.occupied -= 1;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Counts a replayed run of `accesses` steps.
    #[inline]
    pub fn note_hit(&mut self, accesses: usize) {
        self.stats.hits += 1;
        self.stats.replayed_accesses += accesses as u64;
    }

    /// Counts an interpreted (uncached) run.
    #[inline]
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// The accumulated counters.
    #[inline]
    #[must_use]
    pub fn stats(&self) -> TraceCacheStats {
        self.stats
    }

    /// Compiled-segment length distribution: `counts()[n]` is the number
    /// of segments compiled with exactly `n` accesses (lengths beyond
    /// [`MAX_SEGMENT_LEN`] clamp into the last bucket).
    #[inline]
    #[must_use]
    pub fn segment_length_counts(&self) -> &[u64] {
        &self.len_counts
    }

    /// Occupied slots (for tests and diagnostics).
    #[inline]
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.occupied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(addr: u64, len: u64, kind: AccessKind) -> SegmentStep {
        SegmentStep {
            addr: VirtAddr::new(addr),
            len,
            kind,
            site: SiteToken(7),
        }
    }

    #[test]
    fn slots_are_masked_and_word_granular() {
        assert_eq!(calculate_slot(VirtAddr::new(0)), 0);
        assert_eq!(calculate_slot(VirtAddr::new(8)), 1);
        assert_eq!(
            calculate_slot(VirtAddr::new(8 * TRACE_CACHE_SLOTS as u64)),
            0,
            "wraps at the table size"
        );
    }

    #[test]
    fn compile_builds_hull_and_coalesced_write_spans() {
        let steps = vec![
            step(0x1000, 8, AccessKind::Write),
            step(0x1008, 8, AccessKind::Write),
            step(0x1100, 16, AccessKind::Read),
            step(0x1040, 8, AccessKind::Write),
        ];
        let seg = TraceSegment::compile(ThreadId::MAIN, 3, steps).unwrap();
        assert_eq!(seg.hull, AddrRange::new(VirtAddr::new(0x1000), 0x110));
        assert_eq!(
            seg.write_spans,
            vec![
                AddrRange::new(VirtAddr::new(0x1000), 16),
                AddrRange::new(VirtAddr::new(0x1040), 8),
            ],
            "adjacent stores merge, the read contributes nothing"
        );
        assert_eq!(seg.key(), VirtAddr::new(0x1000));
        assert_eq!(seg.len(), 4);
        assert!(!seg.is_empty());
        assert!(TraceSegment::compile(ThreadId::MAIN, 0, Vec::new()).is_none());
    }

    #[test]
    fn matching_compares_thread_steps_and_sites() {
        let steps = vec![step(0x2000, 8, AccessKind::Read)];
        let seg = TraceSegment::compile(ThreadId::MAIN, 0, steps.clone()).unwrap();
        assert!(seg.matches(ThreadId::MAIN, &steps));
        let other_thread = ThreadId::from_u32(1);
        assert!(!seg.matches(other_thread, &steps));
        let mut resited = steps;
        resited[0].site = SiteToken(99);
        assert!(
            !seg.matches(ThreadId::MAIN, &resited),
            "same addresses from another statement must not match"
        );
    }

    #[test]
    fn cache_insert_lookup_invalidate_round_trip() {
        let mut cache = TraceCache::new();
        let seg =
            TraceSegment::compile(ThreadId::MAIN, 0, vec![step(0x3000, 8, AccessKind::Read)])
                .unwrap();
        let key = seg.key();
        cache.insert(seg);
        assert!(cache.lookup(key).is_some());
        assert_eq!(cache.occupied(), 1);
        assert_eq!(cache.stats().compiled, 1);
        assert_eq!(cache.segment_length_counts()[1], 1);

        cache.invalidate_key(key);
        assert!(cache.lookup(key).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        // Invalidating an empty slot counts nothing.
        cache.invalidate_key(key);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn overlapping_write_invalidation_is_range_based() {
        let mut cache = TraceCache::new();
        let near =
            TraceSegment::compile(ThreadId::MAIN, 0, vec![step(0x4000, 8, AccessKind::Read)])
                .unwrap();
        let far =
            TraceSegment::compile(ThreadId::MAIN, 0, vec![step(0x9000, 8, AccessKind::Read)])
                .unwrap();
        let (near_key, far_key) = (near.key(), far.key());
        cache.insert(near);
        cache.insert(far);
        cache.invalidate_overlapping(AddrRange::new(VirtAddr::new(0x4004), 16));
        assert!(cache.lookup(near_key).is_none(), "overlapped: dropped");
        assert!(cache.lookup(far_key).is_some(), "disjoint: kept");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn colliding_keys_evict() {
        let mut cache = TraceCache::new();
        let a = TraceSegment::compile(ThreadId::MAIN, 0, vec![step(0x8, 8, AccessKind::Read)])
            .unwrap();
        let colliding = 0x8 + 8 * TRACE_CACHE_SLOTS as u64;
        let b = TraceSegment::compile(
            ThreadId::MAIN,
            0,
            vec![step(colliding, 8, AccessKind::Read)],
        )
        .unwrap();
        cache.insert(a);
        cache.insert(b);
        assert_eq!(cache.occupied(), 1, "same slot: the newer segment wins");
        assert_eq!(
            cache.lookup(VirtAddr::new(0x8)).unwrap().key(),
            VirtAddr::new(colliding)
        );
    }

    #[test]
    fn fresh_cache_misses_and_invalidates_nothing() {
        let mut cache = TraceCache::new();
        for addr in [0, 0x8, 0x3000, 8 * TRACE_CACHE_SLOTS as u64 - 8] {
            assert!(cache.lookup(VirtAddr::new(addr)).is_none());
            cache.invalidate_key(VirtAddr::new(addr));
        }
        cache.invalidate_overlapping(AddrRange::new(VirtAddr::new(0), u64::MAX / 2));
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.occupied(), 0);
    }

    #[test]
    fn occupied_tracks_a_full_slot_count() {
        let full_count = |cache: &TraceCache| cache.slots.iter().filter(|s| s.is_some()).count();
        let mut cache = TraceCache::new();
        let seg = |addr: u64| {
            TraceSegment::compile(ThreadId::MAIN, 0, vec![step(addr, 8, AccessKind::Read)])
                .unwrap()
        };
        let wrap = 8 * TRACE_CACHE_SLOTS as u64;
        for addr in [0x10, 0x20, 0x30, 0x10 + wrap, 0x20 + 2 * wrap, 0x5000] {
            cache.insert(seg(addr));
            assert_eq!(cache.occupied(), full_count(&cache), "after insert {addr:#x}");
        }
        assert_eq!(cache.occupied(), 4, "two inserts evicted a colliding slot");
        cache.invalidate_key(VirtAddr::new(0x30));
        cache.invalidate_key(VirtAddr::new(0x30));
        assert_eq!(cache.occupied(), full_count(&cache));
        // The colliding inserts replaced the originals, so a range over
        // the evicted footprints drops nothing.
        cache.invalidate_overlapping(AddrRange::new(VirtAddr::new(0x10), 0x18));
        assert_eq!(cache.occupied(), 3);
        cache.invalidate_overlapping(AddrRange::new(VirtAddr::new(0x10 + wrap), 2 * wrap));
        assert_eq!(cache.occupied(), full_count(&cache));
        assert_eq!(cache.occupied(), 1, "only the 0x5000 segment survives");
        cache.invalidate_overlapping(AddrRange::new(VirtAddr::new(0x5000), 8));
        assert_eq!(cache.occupied(), 0);
        assert_eq!(full_count(&cache), 0);
        cache.insert(seg(0x40));
        assert_eq!(cache.occupied(), 1);
        assert_eq!(cache.occupied(), full_count(&cache));
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut cache = TraceCache::new();
        cache.note_miss();
        cache.note_hit(64);
        cache.note_hit(3);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.replayed_accesses, 67);
    }
}
