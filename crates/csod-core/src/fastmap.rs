//! FxHash-style open-addressed maps for the allocation fast path.
//!
//! `std::collections::HashMap` pays SipHash plus a control-byte probe on
//! every access — fine for general code, wasteful for the two lookups
//! CSOD performs on *every* `malloc`/`free` (the live-object record and
//! the per-thread decision cache). [`FastMap`] is the hot-path
//! replacement: linear probing over a power-of-two slot array, one
//! multiply-and-shift hash ([`FastKey::fast_hash`], the `fxhash`
//! recipe), and backward-shift deletion so heavy insert/remove churn
//! (one per allocation lifetime) never accumulates tombstones. The
//! table grows before it is half full, which keeps probe runs short.
//!
//! Keys live in their own dense array and values in a parallel one. An
//! empty slot holds the key type's reserved sentinel ([`FastKey::EMPTY`]),
//! so a probe reads nothing but keys: eight bytes per slot for the
//! runtime's pointer-keyed index instead of a whole `(key, value)` pair.
//! Callers with large values still keep them out of line (the runtime's
//! live-object records are a slab behind a `FastMap<u64, u32>` index).
//!
//! The map is deliberately minimal: `Copy + Eq` keys, no incremental
//! shrinking. Iteration visits slots in table order, which depends only
//! on the sequence of inserts and removes — the exit canary sweep walks
//! the live-record index, so the report order it produces is pinned by
//! this placement and must not change with the layout.

/// Keys usable in a [`FastMap`]: cheap to copy, cheap to hash, with one
/// value reserved to mark empty slots.
pub trait FastKey: Copy + Eq {
    /// The reserved key that marks an empty slot. It can never be
    /// stored: lookups and removes of it miss, inserts of it panic.
    const EMPTY: Self;

    /// A well-mixed 64-bit hash of the key. Quality matters more than
    /// it would for a chained table: linear probing clusters badly on
    /// low-entropy hashes.
    fn fast_hash(&self) -> u64;
}

/// The 64-bit `fxhash` multiplier (golden-ratio based, as used by the
/// Firefox and rustc hashers this module is named after).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Addresses, descriptors and site tokens. `u64::MAX` is never a
/// word-aligned address or an issued descriptor; it is
/// [`sim_machine::SiteToken::UNKNOWN`], which is looked up but never
/// registered.
impl FastKey for u64 {
    const EMPTY: Self = u64::MAX;

    fn fast_hash(&self) -> u64 {
        // One fxhash round, then a xor-fold so the high bits (which
        // pick the slot via the mask below) depend on every input bit.
        let h = (self.rotate_left(5) ^ FX_SEED).wrapping_mul(FX_SEED);
        h ^ (h >> 32)
    }
}

impl FastKey for csod_ctx::ContextKey {
    const EMPTY: Self = csod_ctx::ContextKey::RESERVED;

    fn fast_hash(&self) -> u64 {
        self.hash64()
    }
}

/// An open-addressed hash map with linear probing.
///
/// # Examples
///
/// ```
/// use csod_core::FastMap;
///
/// let mut live: FastMap<u64, &str> = FastMap::new();
/// live.insert(0x4000, "object A");
/// live.insert(0x4040, "object B");
/// assert_eq!(live.get(0x4000), Some(&"object A"));
/// assert_eq!(live.remove(0x4000), Some("object A"));
/// assert_eq!(live.get(0x4000), None);
/// assert_eq!(live.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FastMap<K: FastKey, V> {
    /// Slot keys; [`FastKey::EMPTY`] marks a free slot.
    keys: Vec<K>,
    /// Slot values, `Some` exactly where `keys` holds a real key.
    values: Vec<Option<V>>,
    len: usize,
}

impl<K: FastKey, V> Default for FastMap<K, V> {
    fn default() -> Self {
        FastMap::new()
    }
}

impl<K: FastKey, V> FastMap<K, V> {
    /// Smallest non-empty slot count.
    const MIN_CAPACITY: usize = 8;

    /// Creates an empty map (no allocation until the first insert).
    pub fn new() -> Self {
        FastMap {
            keys: Vec::new(),
            values: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    /// Slot index for a hash: masking down to the (power-of-two) table
    /// size first makes the 64-to-pointer-width cast lossless.
    #[allow(clippy::cast_possible_truncation)]
    fn slot(hash: u64, mask: usize) -> usize {
        (hash & mask as u64) as usize
    }

    /// Index of `key` if present, else the empty slot where a probe for
    /// it ends. Caller must ensure the table is non-empty and `key` is
    /// not the sentinel (which would "find" the first empty slot).
    fn probe(&self, key: K) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = Self::slot(key.fast_hash(), mask);
        loop {
            let k = self.keys[i];
            if k == key {
                return Ok(i);
            }
            if k == K::EMPTY {
                return Err(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot holding `key`, or `None` — also for an unallocated
    /// table and for the sentinel, which is never stored.
    fn find(&self, key: K) -> Option<usize> {
        if self.keys.is_empty() || key == K::EMPTY {
            return None;
        }
        self.probe(key).ok()
    }

    fn rebuild(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two());
        let old_keys = std::mem::replace(&mut self.keys, vec![K::EMPTY; new_cap]);
        let old_values = std::mem::take(&mut self.values);
        self.values.resize_with(new_cap, || None);
        for (k, v) in old_keys.into_iter().zip(old_values) {
            if k == K::EMPTY {
                continue;
            }
            let at = self
                .probe(k)
                .expect_err("rehash of distinct keys finds a free slot");
            self.keys[at] = k;
            self.values[at] = v;
        }
    }

    /// Doubles the table before an insert could fill more than half of
    /// it: at load 1/2 a linear-probe miss inspects ~2.5 slots on
    /// average, at 7/8 it inspects ~32.
    fn grow_if_needed(&mut self) {
        if self.keys.is_empty() {
            self.rebuild(Self::MIN_CAPACITY);
        } else if (self.len + 1) * 2 > self.keys.len() {
            self.rebuild(self.keys.len() * 2);
        }
    }

    /// Grows if needed and returns the slot of `key`: `Ok` when present,
    /// `Err` for the free slot it goes into.
    fn probe_for_insert(&mut self, key: K) -> Result<usize, usize> {
        assert!(
            key != K::EMPTY,
            "the reserved empty-slot key cannot be stored in a FastMap"
        );
        self.grow_if_needed();
        self.probe(key)
    }

    /// Inserts or replaces the value for `key`; returns the previous
    /// value if the key was present.
    ///
    /// # Panics
    ///
    /// Panics if `key` is [`FastKey::EMPTY`].
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.probe_for_insert(key) {
            Ok(at) => self.values[at].replace(value),
            Err(at) => {
                self.keys[at] = key;
                self.values[at] = Some(value);
                self.len += 1;
                None
            }
        }
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: K) -> Option<&V> {
        self.values[self.find(key)?].as_ref()
    }

    /// Mutable access to the value for `key`, if present.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let at = self.find(key)?;
        self.values[at].as_mut()
    }

    /// Whether `key` has an entry.
    pub fn contains(&self, key: K) -> bool {
        self.find(key).is_some()
    }

    /// The value for `key`, inserting `init()` first when absent.
    ///
    /// # Panics
    ///
    /// Panics if `key` is [`FastKey::EMPTY`].
    pub fn get_or_insert_with(&mut self, key: K, init: impl FnOnce() -> V) -> &mut V {
        let at = match self.probe_for_insert(key) {
            Ok(at) => at,
            Err(at) => {
                self.keys[at] = key;
                self.len += 1;
                at
            }
        };
        self.values[at].get_or_insert_with(init)
    }

    /// Removes the entry for `key`, returning its value.
    ///
    /// Uses backward-shift deletion: subsequent entries of the probe
    /// cluster are moved back over the hole, so lookups never traverse
    /// tombstones no matter how many allocate/free cycles the map sees.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let mut hole = self.find(key)?;
        let removed = self.values[hole].take();
        self.keys[hole] = K::EMPTY;
        self.len -= 1;
        // Backward shift: walk the cluster after the hole; any entry
        // whose home position does not lie strictly between the hole
        // and itself (cyclically) is moved into the hole.
        let mask = self.mask();
        let mut i = (hole + 1) & mask;
        loop {
            let k = self.keys[i];
            if k == K::EMPTY {
                break;
            }
            let home = Self::slot(k.fast_hash(), mask);
            // `home` is outside the half-open cyclic interval (hole, i]
            // exactly when the entry may be moved back to `hole`.
            let distance_home = i.wrapping_sub(home) & mask;
            let distance_hole = i.wrapping_sub(hole) & mask;
            if distance_home >= distance_hole {
                self.keys[hole] = k;
                self.keys[i] = K::EMPTY;
                self.values[hole] = self.values[i].take();
                hole = i;
            }
            i = (i + 1) & mask;
        }
        removed
    }

    /// Visits every entry in slot order.
    pub fn for_each(&self, mut f: impl FnMut(K, &V)) {
        for (k, v) in self.keys.iter().zip(&self.values) {
            if let Some(v) = v {
                f(*k, v);
            }
        }
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.len = 0;
        self.keys.fill(K::EMPTY);
        self.values.fill_with(|| None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csod_ctx::{ContextKey, FrameTable};
    use csod_rng::Arc4Random;

    /// The map's previous layout, `(key, value)` pairs in `Option`
    /// slots, kept as the reference the split layout must match slot for
    /// slot: same hash, probe sequence, growth point and backward shift.
    struct ReferenceMap<K: FastKey, V> {
        slots: Vec<Option<(K, V)>>,
        len: usize,
    }

    impl<K: FastKey, V> ReferenceMap<K, V> {
        fn new() -> Self {
            ReferenceMap {
                slots: Vec::new(),
                len: 0,
            }
        }

        fn probe(&self, key: K) -> Result<usize, usize> {
            let mask = self.slots.len() - 1;
            let mut i = FastMap::<K, V>::slot(key.fast_hash(), mask);
            loop {
                match &self.slots[i] {
                    Some((k, _)) if *k == key => return Ok(i),
                    Some(_) => i = (i + 1) & mask,
                    None => return Err(i),
                }
            }
        }

        fn grow_if_needed(&mut self) {
            let new_cap = if self.slots.is_empty() {
                8
            } else if (self.len + 1) * 2 > self.slots.len() {
                self.slots.len() * 2
            } else {
                return;
            };
            let old = std::mem::take(&mut self.slots);
            self.slots.resize_with(new_cap, || None);
            for (k, v) in old.into_iter().flatten() {
                let at = self.probe(k).unwrap_err();
                self.slots[at] = Some((k, v));
            }
        }

        fn insert(&mut self, key: K, value: V) -> Option<V> {
            self.grow_if_needed();
            match self.probe(key) {
                Ok(at) => self.slots[at].replace((key, value)).map(|(_, old)| old),
                Err(at) => {
                    self.slots[at] = Some((key, value));
                    self.len += 1;
                    None
                }
            }
        }

        fn get_or_insert_with(&mut self, key: K, init: impl FnOnce() -> V) -> &mut V {
            self.grow_if_needed();
            let at = match self.probe(key) {
                Ok(at) => at,
                Err(at) => {
                    self.slots[at] = Some((key, init()));
                    self.len += 1;
                    at
                }
            };
            &mut self.slots[at].as_mut().unwrap().1
        }

        fn remove(&mut self, key: K) -> Option<V> {
            if self.slots.is_empty() {
                return None;
            }
            let mut hole = self.probe(key).ok()?;
            let (_, removed) = self.slots[hole].take()?;
            self.len -= 1;
            let mask = self.slots.len() - 1;
            let mut i = (hole + 1) & mask;
            while let Some((k, _)) = &self.slots[i] {
                let home = FastMap::<K, V>::slot(k.fast_hash(), mask);
                if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                    self.slots[hole] = self.slots[i].take();
                    hole = i;
                }
                i = (i + 1) & mask;
            }
            Some(removed)
        }

        fn clear(&mut self) {
            self.len = 0;
            for slot in &mut self.slots {
                *slot = None;
            }
        }
    }

    /// Drives both layouts through the same random churn and asserts,
    /// after every step, the same results, `len` and `for_each` order.
    fn assert_same_slot_order<K: FastKey + std::fmt::Debug>(
        seed: u64,
        steps: usize,
        key_of: impl Fn(u32) -> K,
        key_space: u32,
    ) {
        let mut rng = Arc4Random::from_seed(seed, 0);
        let mut map: FastMap<K, u64> = FastMap::new();
        let mut reference: ReferenceMap<K, u64> = ReferenceMap::new();
        for step in 0..steps as u64 {
            let key = key_of(rng.uniform(key_space));
            match rng.uniform(100) {
                0..=49 => assert_eq!(map.insert(key, step), reference.insert(key, step)),
                50..=79 => assert_eq!(map.remove(key), reference.remove(key)),
                80..=98 => {
                    let a = *map.get_or_insert_with(key, || step);
                    let b = *reference.get_or_insert_with(key, || step);
                    assert_eq!(a, b);
                }
                _ => {
                    map.clear();
                    reference.clear();
                }
            }
            assert_eq!(map.len(), reference.len, "step {step}");
            let mut order = Vec::with_capacity(map.len());
            map.for_each(|k, v| order.push((k, *v)));
            let expected: Vec<(K, u64)> = reference.slots.iter().flatten().copied().collect();
            assert_eq!(order, expected, "slot order diverged at step {step}");
        }
    }

    #[test]
    fn slot_order_matches_the_pair_layout_for_heap_addresses() {
        // 16-byte aligned addresses in a 1 MiB heap window, as the
        // live-record index sees them.
        assert_same_slot_order(0x51_07, 20_000, |i| 0x10_0000 + u64::from(i) * 16, 4_096);
    }

    #[test]
    fn slot_order_matches_the_pair_layout_for_context_keys() {
        let frames = FrameTable::new();
        let sites: Vec<_> = (0..64)
            .map(|i| frames.intern(&format!("s{i}.c:1")))
            .collect();
        assert_same_slot_order(
            0xC0_47,
            20_000,
            |i| ContextKey::new(sites[(i % 64) as usize], u64::from(i / 64) * 0x40),
            1_024,
        );
    }

    #[test]
    fn the_sentinel_key_misses_without_touching_len() {
        let mut m: FastMap<u64, u64> = FastMap::new();
        assert_eq!(m.get(u64::MAX), None, "unallocated table");
        assert_eq!(m.remove(u64::MAX), None);
        for i in 0..5 {
            m.insert(i * 8, i);
        }
        assert_eq!(m.get(u64::MAX), None);
        assert_eq!(m.get_mut(u64::MAX), None);
        assert!(!m.contains(u64::MAX));
        assert_eq!(m.remove(u64::MAX), None);
        assert_eq!(m.len(), 5);
        for i in 0..5 {
            assert_eq!(m.get(i * 8), Some(&i));
        }
        let mut c: FastMap<ContextKey, u32> = FastMap::new();
        c.insert(ContextKey::new(FrameTable::new().intern("a.c:1"), 0x40), 1);
        assert_eq!(c.get(ContextKey::RESERVED), None);
        assert_eq!(c.remove(ContextKey::RESERVED), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "reserved empty-slot key")]
    fn inserting_the_sentinel_panics() {
        FastMap::<u64, u64>::new().insert(u64::MAX, 1);
    }

    #[test]
    #[should_panic(expected = "reserved empty-slot key")]
    fn get_or_insert_with_the_sentinel_panics() {
        FastMap::<ContextKey, u64>::new().get_or_insert_with(ContextKey::RESERVED, || 1);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: FastMap<u64, u64> = FastMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(1), None);
        assert_eq!(m.remove(1), None);
        for i in 0..1000u64 {
            assert_eq!(m.insert(i * 64, i), None);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(i * 64), Some(&i));
        }
        assert_eq!(m.insert(0, 999), Some(0), "replace returns old value");
        for i in 0..1000u64 {
            assert!(m.remove(i * 64).is_some());
        }
        assert!(m.is_empty());
    }

    #[test]
    fn churn_does_not_degrade() {
        // Allocation-like churn: every insert is eventually removed.
        // With tombstones this would degenerate; backward shift keeps
        // clusters tight, which we can only observe functionally here.
        let mut m: FastMap<u64, u32> = FastMap::new();
        for round in 0..50u64 {
            for i in 0..64u32 {
                m.insert(round * 6400 + u64::from(i) * 8, i);
            }
            for i in 0..64u32 {
                assert_eq!(m.remove(round * 6400 + u64::from(i) * 8), Some(i));
            }
        }
        assert!(m.is_empty());
        // The map still behaves after the churn.
        m.insert(42, 7);
        assert_eq!(m.get(42), Some(&7));
    }

    #[test]
    fn backward_shift_preserves_colliding_clusters() {
        // Force collisions by using keys that hash near each other: with
        // a tiny map every key shares one cluster.
        let mut m: FastMap<u64, u64> = FastMap::new();
        let keys: Vec<u64> = (0..7).collect();
        for &k in &keys {
            m.insert(k, k + 100);
        }
        // Remove from the middle of the cluster and verify the rest.
        m.remove(3);
        for &k in &keys {
            if k == 3 {
                assert_eq!(m.get(k), None);
            } else {
                assert_eq!(m.get(k), Some(&(k + 100)), "key {k} lost after shift");
            }
        }
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut m: FastMap<u64, Vec<u8>> = FastMap::new();
        m.get_or_insert_with(5, || vec![1]).push(2);
        m.get_or_insert_with(5, || panic!("must not re-init")).push(3);
        assert_eq!(m.get(5), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn for_each_visits_every_entry_and_clear_empties() {
        let mut m: FastMap<u64, u64> = FastMap::new();
        for i in 0..100 {
            m.insert(i, i);
        }
        let mut sum = 0;
        m.for_each(|k, v| {
            assert_eq!(k, *v);
            sum += *v;
        });
        assert_eq!(sum, (0..100).sum::<u64>());
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(1), None);
        m.insert(1, 1);
        assert_eq!(m.get(1), Some(&1));
    }

    #[test]
    fn matches_std_hashmap_under_churn_and_stays_half_loaded() {
        use std::collections::HashMap;
        let mut rng = Arc4Random::from_seed(0xFA57, 0);
        let mut m: FastMap<u64, u64> = FastMap::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut peak_slots = 0;
        // Keys from a small range so removes and replaces hit live
        // entries; the insert bias grows the map through several
        // doublings, the removes exercise backward shift in between.
        for step in 0..40_000u64 {
            let key = u64::from(rng.uniform(8_192)) * 16;
            match rng.uniform(10) {
                0..=5 => {
                    assert_eq!(m.insert(key, step), model.insert(key, step));
                    assert!(
                        m.len() * 2 <= m.keys.len(),
                        "{} entries in {} slots",
                        m.len(),
                        m.keys.len()
                    );
                }
                6..=8 => assert_eq!(m.remove(key), model.remove(&key)),
                _ => assert_eq!(m.get(key), model.get(&key)),
            }
            assert_eq!(m.len(), model.len());
            peak_slots = peak_slots.max(m.keys.len());
        }
        assert!(
            peak_slots >= 8_192,
            "churn grew the table through several steps"
        );
        for (&k, v) in &model {
            assert_eq!(m.get(k), Some(v), "key {k:#x} lost");
        }
        let mut seen = 0;
        m.for_each(|k, v| {
            assert_eq!(model.get(&k), Some(v));
            seen += 1;
        });
        assert_eq!(seen, model.len());
    }

    #[test]
    fn context_keys_work_as_keys() {
        let frames = FrameTable::new();
        let mut m: FastMap<ContextKey, u32> = FastMap::new();
        for i in 0..100u32 {
            let k = ContextKey::new(frames.intern(&format!("s{i}")), u64::from(i) * 16);
            m.insert(k, i);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100u32 {
            let k = ContextKey::new(frames.intern(&format!("s{i}")), u64::from(i) * 16);
            assert_eq!(m.get(k), Some(&i));
        }
    }
}
