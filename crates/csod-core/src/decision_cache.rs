//! Per-thread memoization of sampling verdicts.
//!
//! The sampling unit's context table is striped, but a probability
//! lookup still costs a lock acquisition plus open-addressed probe on
//! *every* allocation — the single hottest path in the tool. A context's
//! probability, however, barely moves between consecutive allocations
//! (plain degradation is −10 ppm per allocation out of an initial
//! 500,000); the only *step changes* are discrete events: a watch
//! install, evidence pinning, quarantine, burst-throttle entry or exit,
//! reviving, and a priors update.
//!
//! [`DecisionCache`] exploits that: each thread memoizes the last
//! verdict per context and re-draws against the *cached* probability
//! for up to `refresh − 1` subsequent allocations, touching the shared
//! table only every `refresh` allocations. Correctness is anchored by
//! the sampling unit's probability epoch ([`crate::SamplingUnit::epoch`]):
//! every step-change event bumps it, each memoized verdict carries the
//! epoch it was filled at, and a verdict from an older epoch is served
//! as a miss. Time-driven transitions the epoch cannot see coming —
//! burst-throttle exit, revive eligibility — are covered by an entry
//! time-to-live of one burst window. Allocations that were decided from the cache are counted
//! as `pending` per entry and absorbed into the sampler (allocation
//! counts, burst windows, degradation) at the next refresh or flush, so
//! the probability schedule converges to the uncached one with an error
//! bounded by `refresh × degrade_per_alloc_ppm`. An epoch change
//! absorbs the pending counts right away, but it does not walk the
//! table: the cache lists every entry whose `pending` count became
//! non-zero, and the invalidation visits only those. Watch installs
//! bump the epoch, so a whole-table sweep per bump would cost the
//! allocation path in proportion to the number of live contexts.
//!
//! With `refresh == 1` every decision goes to the shared table — the
//! pre-cache behaviour, kept as a comparison mode for the fast-path
//! bench and the parity tests.

use crate::fastmap::FastMap;
use crate::sampling::{AllocDecision, ContextJudgment, SamplingUnit};
use csod_ctx::{CallingContext, ContextKey};
use csod_rng::Arc4Random;
use sim_machine::VirtInstant;

/// A memoized sampling verdict for one context.
#[derive(Debug, Clone, Copy)]
struct CachedVerdict {
    /// The last authoritative decision (carries ctx id, probability,
    /// prior watches, static prior).
    decision: AllocDecision,
    /// When the authoritative decision was taken. Entries expire after
    /// one burst window: burst-throttle exit and revive eligibility are
    /// *time*-driven, invisible to the allocation-count epoch, so a
    /// verdict must never be reused across a window boundary.
    filled_at: VirtInstant,
    /// The sampler epoch the verdict was filled at; any other epoch
    /// makes the entry a miss.
    epoch: u64,
    /// Cache-hit allocations not yet absorbed into the sampler.
    pending: u32,
    /// Hits remaining before the next forced refresh.
    uses_left: u32,
    /// The key is on the dirty list. Keeps the list no longer than the
    /// table however many hit/refresh cycles pass between two epochs.
    listed: bool,
}

/// Counters describing how a [`DecisionCache`] behaved.
///
/// Every miss is counted under exactly one cause, so the four cause
/// counters sum to `misses`. A miss with several causes counts under the
/// first that applies, in the order the fields are listed; with
/// `refresh == 1` every miss on an existing entry is a refresh miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCacheStats {
    /// Decisions served from the cache (no shared-table access).
    pub hits: u64,
    /// Decisions that went to the sampling unit.
    pub misses: u64,
    /// Misses with no entry: the context's first allocation on this
    /// thread (or its first since a flush).
    pub cold_misses: u64,
    /// Misses on an entry filled before the sampler's probability epoch
    /// last moved.
    pub stale_epoch_misses: u64,
    /// Misses on an entry whose refresh budget was spent, and every
    /// non-cold decision when `refresh == 1` disables memoization.
    pub refresh_misses: u64,
    /// Misses on an entry filled more than one burst window ago.
    pub ttl_misses: u64,
    /// Whole-cache invalidations: probability-epoch changes and flushes.
    pub invalidations: u64,
}

impl std::ops::AddAssign for DecisionCacheStats {
    fn add_assign(&mut self, other: DecisionCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.cold_misses += other.cold_misses;
        self.stale_epoch_misses += other.stale_epoch_misses;
        self.refresh_misses += other.refresh_misses;
        self.ttl_misses += other.ttl_misses;
        self.invalidations += other.invalidations;
    }
}

/// A per-thread cache of sampling verdicts keyed by calling context.
///
/// Owned by exactly one thread; all methods take `&mut self` and the
/// only shared state touched is the sampling unit passed in, so the
/// fast path (a cache hit) acquires no lock at all.
#[derive(Debug)]
pub struct DecisionCache {
    map: FastMap<ContextKey, CachedVerdict>,
    /// Keys whose entry may hold a non-zero `pending` count — every
    /// entry with one is listed. Emptied by each invalidation.
    dirty: Vec<ContextKey>,
    /// The sampler epoch of the last invalidation; only entries
    /// stamped with it are served.
    epoch: u64,
    /// Decisions per context between authoritative refreshes; `1`
    /// disables memoization entirely.
    refresh: u32,
    stats: DecisionCacheStats,
}

impl DecisionCache {
    /// Creates a cache that consults the shared table every `refresh`
    /// allocations per context.
    ///
    /// # Panics
    ///
    /// Panics if `refresh` is zero (the config layer rejects it first).
    pub fn new(refresh: u32) -> Self {
        assert!(refresh > 0, "decision-cache refresh must be at least 1");
        DecisionCache {
            map: FastMap::new(),
            dirty: Vec::new(),
            epoch: 0,
            refresh,
            stats: DecisionCacheStats::default(),
        }
    }

    /// Decides one allocation, from the cache when the memoized verdict
    /// is still inside its refresh budget and the sampler's probability
    /// epoch has not moved, from the sampling unit otherwise.
    ///
    /// Cache hits still draw the thread's generator once, so runs stay
    /// deterministic per seed regardless of hit pattern.
    pub fn on_allocation(
        &mut self,
        sampler: &SamplingUnit,
        key: ContextKey,
        now: VirtInstant,
        rng: &mut Arc4Random,
        ctx: &CallingContext,
        judge: impl FnOnce(&CallingContext) -> ContextJudgment,
    ) -> AllocDecision {
        let current = sampler.epoch();
        if current != self.epoch {
            self.invalidate(sampler, current);
        }
        let ttl = sampler.params().burst_window;
        // One probe serves both outcomes: a fresh entry is a hit, and
        // any other entry hands over its pending batch for the miss.
        let mut pending = 0;
        if let Some(entry) = self.map.get_mut(key) {
            if self.refresh > 1
                && entry.epoch == self.epoch
                && entry.uses_left > 0
                && now.saturating_duration_since(entry.filled_at) <= ttl
            {
                entry.uses_left -= 1;
                entry.pending += 1;
                if !entry.listed {
                    entry.listed = true;
                    self.dirty.push(key);
                }
                self.stats.hits += 1;
                let mut d = entry.decision;
                d.first_seen = false;
                // One-shot event flags must not replay on every hit.
                d.revived = false;
                d.entered_burst = false;
                d.wants_watch = rng.chance_ppm(d.probability_ppm);
                return d;
            }
            let cause = if self.refresh == 1 {
                &mut self.stats.refresh_misses
            } else if entry.epoch != self.epoch {
                &mut self.stats.stale_epoch_misses
            } else if entry.uses_left == 0 {
                &mut self.stats.refresh_misses
            } else {
                &mut self.stats.ttl_misses
            };
            *cause += 1;
            // The count is moved out of the entry, not copied — if the
            // fresh decision bumps the epoch (burst, revive) the
            // invalidation below must not absorb the same allocations
            // twice. A stale entry's count was absorbed by the
            // invalidation that outdated it, so it reads 0 here.
            pending = std::mem::take(&mut entry.pending);
        } else {
            self.stats.cold_misses += 1;
        }
        // Take the pending batch to the sampling unit and memoize the
        // fresh verdict.
        let decision = sampler.on_allocation_batched(key, now, rng, ctx, judge, pending);
        self.stats.misses += 1;
        // The decision itself may have stepped a probability (burst
        // entry/exit, revive) and bumped the epoch; re-sync so the next
        // allocation does not immediately invalidate the fresh entry.
        let post = sampler.epoch();
        if post != self.epoch {
            self.invalidate(sampler, post);
        }
        // One upsert. The entry keeps its `listed` flag: the key stays
        // on the dirty list until the next invalidation visits it. Read
        // only now, as the invalidation above may just have emptied the
        // list.
        let fresh = CachedVerdict {
            decision,
            filled_at: now,
            epoch: self.epoch,
            pending: 0,
            uses_left: self.refresh - 1,
            listed: false,
        };
        let entry = self.map.get_or_insert_with(key, || fresh);
        *entry = CachedVerdict {
            listed: entry.listed,
            ..fresh
        };
        decision
    }

    /// Outdates every memoized verdict, first absorbing all pending
    /// allocation counts into the sampler. Only the dirty keys are
    /// visited; the stale entries stay in the table and miss on their
    /// next use. Absorbs are per key and commute, so the sampler ends
    /// in the same state as after a sweep of the whole table.
    fn invalidate(&mut self, sampler: &SamplingUnit, new_epoch: u64) {
        self.stats.invalidations += 1;
        for key in self.dirty.drain(..) {
            if let Some(entry) = self.map.get_mut(key) {
                entry.listed = false;
                let pending = std::mem::take(&mut entry.pending);
                sampler.absorb_allocations(key, pending);
            }
        }
        self.epoch = new_epoch;
    }

    /// Absorbs all pending allocation counts into the sampler and
    /// empties the cache. Called at thread exit and run end so no
    /// allocation goes unaccounted.
    pub fn flush(&mut self, sampler: &SamplingUnit) {
        if self.map.is_empty() {
            return;
        }
        self.invalidate(sampler, sampler.epoch());
        self.map.clear();
    }

    /// The refresh interval this cache was built with.
    pub fn refresh(&self) -> u32 {
        self.refresh
    }

    /// Number of memoized contexts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no memoized verdicts.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Behaviour counters since construction.
    pub fn stats(&self) -> DecisionCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplingParams;
    use csod_ctx::FrameTable;
    use sim_machine::VirtDuration;

    fn sampler() -> SamplingUnit {
        SamplingUnit::new(SamplingParams::default())
    }

    fn fixtures(frames: &FrameTable, name: &str) -> (ContextKey, CallingContext) {
        (
            ContextKey::new(frames.intern(name), 0x40),
            CallingContext::from_locations(frames, [name, "main.c:1"]),
        )
    }

    #[test]
    fn hits_between_refreshes_misses_on_schedule() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(4);
        let (k, c) = fixtures(&frames, "a");
        for _ in 0..12 {
            cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| ContextJudgment::clear());
        }
        let stats = cache.stats();
        // Misses at allocations 1, 5, 9; hits in between.
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 9);
        // Every allocation is accounted for in the sampler, cached or not.
        cache.flush(&u);
        assert_eq!(u.state(k).unwrap().alloc_count, 12);
    }

    #[test]
    fn refresh_one_disables_memoization() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(1);
        let (k, c) = fixtures(&frames, "a");
        for _ in 0..10 {
            cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| ContextJudgment::clear());
        }
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 10);
        assert_eq!(u.state(k).unwrap().alloc_count, 10);
    }

    #[test]
    fn epoch_change_invalidates_everything() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(64);
        let (ka, ca) = fixtures(&frames, "a");
        let (kb, cb) = fixtures(&frames, "b");
        cache.on_allocation(&u, ka, VirtInstant::BOOT, &mut rng, &ca, |_| ContextJudgment::clear());
        cache.on_allocation(&u, kb, VirtInstant::BOOT, &mut rng, &cb, |_| ContextJudgment::clear());
        cache.on_allocation(&u, ka, VirtInstant::BOOT, &mut rng, &ca, |_| ContextJudgment::clear());
        assert_eq!(cache.len(), 2);
        let inv_before = cache.stats().invalidations;
        // A watch on `a` bumps the epoch: the next use of *either* key
        // flushes the whole cache and re-reads the table.
        u.on_watched(ka);
        let d = cache.on_allocation(&u, kb, VirtInstant::BOOT, &mut rng, &cb, |_| ContextJudgment::clear());
        assert!(!d.first_seen);
        assert_eq!(cache.stats().invalidations, inv_before + 1);
        // The pending hit on `a` was absorbed during the invalidation.
        assert_eq!(u.state(ka).unwrap().alloc_count, 2);
    }

    #[test]
    fn epoch_bump_absorbs_each_pending_count_once_and_serves_stale_as_miss() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(2);
        let (k, c) = fixtures(&frames, "a");
        let (kb, cb) = fixtures(&frames, "b");
        let mut alloc = |cache: &mut DecisionCache, key, ctx: &CallingContext| {
            cache.on_allocation(&u, key, VirtInstant::BOOT, &mut rng, ctx, |_| {
                ContextJudgment::clear()
            })
        };
        // Miss, hit (pending 0 -> 1, key listed), refresh miss (takes
        // the pending hit to the sampler), hit (pending 0 -> 1 again).
        alloc(&mut cache, k, &c);
        alloc(&mut cache, k, &c);
        alloc(&mut cache, k, &c);
        assert_eq!(u.state(k).unwrap().alloc_count, 3);
        alloc(&mut cache, k, &c);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(
            cache.dirty,
            vec![k],
            "one listing however often pending restarts"
        );
        // The bump is seen on another key's allocation: the second
        // pending hit is absorbed, and only once.
        u.on_watched(k);
        alloc(&mut cache, kb, &cb);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(u.state(k).unwrap().alloc_count, 4);
        assert!(cache.dirty.is_empty());
        // The outdated entry is still in the table but is a miss.
        assert_eq!(cache.len(), 2);
        let misses = cache.stats().misses;
        let halved = u.probability_ppm(k).unwrap();
        let d = alloc(&mut cache, k, &c);
        assert_eq!(cache.stats().misses, misses + 1);
        assert_eq!(
            d.probability_ppm, halved,
            "served from the table, not the stale entry"
        );
        assert_eq!(u.state(k).unwrap().alloc_count, 5);
        // A hit on the fresh entry, then flush: everything accounted
        // for, table empty.
        alloc(&mut cache, k, &c);
        cache.flush(&u);
        assert!(cache.is_empty());
        assert!(cache.dirty.is_empty());
        assert_eq!(u.state(k).unwrap().alloc_count, 6);
        assert_eq!(u.state(kb).unwrap().alloc_count, 1);
    }

    #[test]
    fn burst_entry_on_a_refresh_miss_keeps_later_hits_accounted() {
        let frames = FrameTable::new();
        let u = SamplingUnit::new(SamplingParams {
            burst_threshold: 3,
            ..SamplingParams::default()
        });
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(2);
        let (k, c) = fixtures(&frames, "bursty");
        // Miss, hit, miss, hit, then the refresh miss at allocation 5
        // carries the window past the threshold: burst entry bumps the
        // epoch inside the miss, and the invalidation empties the list.
        let mut entered = false;
        for _ in 0..5 {
            let d = cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
                ContextJudgment::clear()
            });
            entered |= d.entered_burst;
        }
        assert!(entered, "the fifth allocation enters the burst");
        assert!(cache.dirty.is_empty());
        assert_eq!(u.state(k).unwrap().alloc_count, 5);
        // The next hit must list the key again, so flush absorbs it.
        let hits = cache.stats().hits;
        cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
            ContextJudgment::clear()
        });
        assert_eq!(cache.stats().hits, hits + 1);
        assert_eq!(cache.dirty, vec![k]);
        cache.flush(&u);
        assert!(cache.is_empty());
        assert!(cache.dirty.is_empty());
        assert_eq!(u.state(k).unwrap().alloc_count, 6);
    }

    fn assert_causes_sum(stats: DecisionCacheStats) {
        let causes =
            stats.cold_misses + stats.stale_epoch_misses + stats.refresh_misses + stats.ttl_misses;
        assert_eq!(causes, stats.misses, "the causes partition the misses");
    }

    /// One allocation from `(key, ctx)` at `now`, judged clear.
    fn decide(
        cache: &mut DecisionCache,
        u: &SamplingUnit,
        rng: &mut Arc4Random,
        (key, ctx): &(ContextKey, CallingContext),
        now: VirtInstant,
    ) -> AllocDecision {
        cache.on_allocation(u, *key, now, rng, ctx, |_| ContextJudgment::clear())
    }

    #[test]
    fn first_sight_is_a_cold_miss() {
        let frames = FrameTable::new();
        let (u, mut rng) = (sampler(), Arc4Random::from_seed(1, 0));
        let (a, b) = (fixtures(&frames, "a"), fixtures(&frames, "b"));
        let mut cache = DecisionCache::new(64);
        for ctx in [&a, &b, &a] {
            decide(&mut cache, &u, &mut rng, ctx, VirtInstant::BOOT);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.cold_misses), (1, 2, 2));
        assert_causes_sum(stats);
        // A flush empties the table: the next use is cold again.
        cache.flush(&u);
        decide(&mut cache, &u, &mut rng, &a, VirtInstant::BOOT);
        assert_eq!(cache.stats().cold_misses, 3);
        assert_causes_sum(cache.stats());
    }

    #[test]
    fn an_epoch_bump_makes_a_stale_epoch_miss() {
        let frames = FrameTable::new();
        let (u, mut rng) = (sampler(), Arc4Random::from_seed(1, 0));
        let a = fixtures(&frames, "a");
        let mut cache = DecisionCache::new(64);
        decide(&mut cache, &u, &mut rng, &a, VirtInstant::BOOT);
        u.on_watched(a.0);
        decide(&mut cache, &u, &mut rng, &a, VirtInstant::BOOT);
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.cold_misses, stats.stale_epoch_misses),
            (2, 1, 1)
        );
        assert_causes_sum(stats);
    }

    #[test]
    fn a_spent_budget_makes_a_refresh_miss() {
        let frames = FrameTable::new();
        let (u, mut rng) = (sampler(), Arc4Random::from_seed(1, 0));
        let a = fixtures(&frames, "a");
        // refresh 3: miss, hit, hit, then the budget is spent.
        let mut cache = DecisionCache::new(3);
        for _ in 0..4 {
            decide(&mut cache, &u, &mut rng, &a, VirtInstant::BOOT);
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.cold_misses, stats.refresh_misses),
            (2, 1, 1)
        );
        assert_causes_sum(stats);
        // With memoization off, every later decision is a refresh miss,
        // an epoch bump in between included.
        let mut off = DecisionCache::new(1);
        decide(&mut off, &u, &mut rng, &a, VirtInstant::BOOT);
        u.on_watched(a.0);
        for _ in 0..3 {
            decide(&mut off, &u, &mut rng, &a, VirtInstant::BOOT);
        }
        let stats = off.stats();
        assert_eq!(
            (
                stats.cold_misses,
                stats.refresh_misses,
                stats.stale_epoch_misses
            ),
            (1, 3, 0)
        );
        assert_causes_sum(stats);
    }

    #[test]
    fn an_entry_older_than_the_burst_window_makes_a_ttl_miss() {
        let frames = FrameTable::new();
        let (u, mut rng) = (sampler(), Arc4Random::from_seed(1, 0));
        let a = fixtures(&frames, "a");
        let mut cache = DecisionCache::new(64);
        decide(&mut cache, &u, &mut rng, &a, VirtInstant::BOOT);
        // Exactly one window later the entry still serves.
        let edge = VirtInstant::BOOT + u.params().burst_window;
        decide(&mut cache, &u, &mut rng, &a, edge);
        assert_eq!(cache.stats().hits, 1);
        let late = edge + VirtDuration::from_nanos(1);
        decide(&mut cache, &u, &mut rng, &a, late);
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.cold_misses, stats.ttl_misses),
            (2, 1, 1)
        );
        assert_causes_sum(stats);
    }

    #[test]
    fn stats_add_field_by_field() {
        let one = DecisionCacheStats {
            hits: 1,
            misses: 2,
            cold_misses: 3,
            stale_epoch_misses: 4,
            refresh_misses: 5,
            ttl_misses: 6,
            invalidations: 7,
        };
        let mut total = DecisionCacheStats::default();
        total += one;
        total += one;
        assert_eq!(
            total,
            DecisionCacheStats {
                hits: 2,
                misses: 4,
                cold_misses: 6,
                stale_epoch_misses: 8,
                refresh_misses: 10,
                ttl_misses: 12,
                invalidations: 14,
            }
        );
    }

    #[test]
    fn cached_decisions_see_pinned_probability() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(64);
        let (k, c) = fixtures(&frames, "a");
        cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| ContextJudgment::clear());
        u.pin_certain(k); // bumps epoch → next decision refreshes
        for _ in 0..64 {
            let d = cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| ContextJudgment::clear());
            assert!(d.wants_watch, "pinned context always watched, cached or not");
            assert_eq!(d.probability_ppm, csod_rng::PPM_SCALE);
        }
    }

    #[test]
    fn cached_decisions_replay_the_mitigate_flag() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(64);
        let (k, c) = fixtures(&frames, "a");
        let d = cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
            ContextJudgment::clear()
        });
        assert!(!d.mitigate);
        // Confirming the context bumps the epoch, so the stale
        // un-mitigated verdict is dropped; unlike the one-shot event
        // flags, `mitigate` then replays on every cache hit.
        u.mark_mitigated(k);
        for _ in 0..64 {
            let d = cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| {
                ContextJudgment::clear()
            });
            assert!(d.mitigate, "hardening must hold on cache hits");
        }
        assert!(cache.stats().hits > 0, "the loop did hit the cache");
    }

    #[test]
    fn flush_absorbs_pending_and_empties() {
        let frames = FrameTable::new();
        let u = sampler();
        let mut rng = Arc4Random::from_seed(1, 0);
        let mut cache = DecisionCache::new(100);
        let (k, c) = fixtures(&frames, "a");
        for _ in 0..7 {
            cache.on_allocation(&u, k, VirtInstant::BOOT, &mut rng, &c, |_| ContextJudgment::clear());
        }
        // Only the miss reached the sampler so far.
        assert_eq!(u.state(k).unwrap().alloc_count, 1);
        cache.flush(&u);
        assert!(cache.is_empty());
        assert_eq!(u.state(k).unwrap().alloc_count, 7);
        // Flushing an empty cache is a no-op (no spurious invalidation).
        let inv = cache.stats().invalidations;
        cache.flush(&u);
        assert_eq!(cache.stats().invalidations, inv);
    }
}
