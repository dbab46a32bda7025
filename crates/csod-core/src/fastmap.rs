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
//! table grows before it is half full, which keeps probe runs short;
//! callers with large values keep them out of line (the runtime's
//! live-object records are a slab behind a `FastMap<u64, u32>` index),
//! so an empty slot stays small.
//!
//! The map is deliberately minimal: `Copy + Eq` keys, no iteration
//! order guarantees, no incremental shrinking. That is exactly what the
//! runtime's pointer-keyed bookkeeping needs and nothing more.

/// Keys usable in a [`FastMap`]: cheap to copy, cheap to hash.
pub trait FastKey: Copy + Eq {
    /// A well-mixed 64-bit hash of the key. Quality matters more than
    /// it would for a chained table: linear probing clusters badly on
    /// low-entropy hashes.
    fn fast_hash(&self) -> u64;
}

/// The 64-bit `fxhash` multiplier (golden-ratio based, as used by the
/// Firefox and rustc hashers this module is named after).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastKey for u64 {
    fn fast_hash(&self) -> u64 {
        // One fxhash round, then a xor-fold so the high bits (which
        // pick the slot via the mask below) depend on every input bit.
        let h = (self.rotate_left(5) ^ FX_SEED).wrapping_mul(FX_SEED);
        h ^ (h >> 32)
    }
}

impl FastKey for csod_ctx::ContextKey {
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
    slots: Vec<Option<(K, V)>>,
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
            slots: Vec::new(),
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
        self.slots.len() - 1
    }

    /// Slot index for a hash: masking down to the (power-of-two) table
    /// size first makes the 64-to-pointer-width cast lossless.
    #[allow(clippy::cast_possible_truncation)]
    fn slot(hash: u64, mask: usize) -> usize {
        (hash & mask as u64) as usize
    }

    /// Index of `key` if present, else the empty slot where a probe for
    /// it ends. Caller must ensure `slots` is non-empty.
    fn probe(&self, key: K) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = Self::slot(key.fast_hash(), mask);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return Ok(i),
                Some(_) => i = (i + 1) & mask,
                None => return Err(i),
            }
        }
    }

    fn rebuild(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two());
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(new_cap, || None);
        for (k, v) in old.into_iter().flatten() {
            let at = self
                .probe(k)
                .expect_err("rehash of distinct keys finds a free slot");
            self.slots[at] = Some((k, v));
        }
    }

    /// Doubles the table before an insert could fill more than half of
    /// it: at load 1/2 a linear-probe miss inspects ~2.5 slots on
    /// average, at 7/8 it inspects ~32.
    fn grow_if_needed(&mut self) {
        if self.slots.is_empty() {
            self.rebuild(Self::MIN_CAPACITY);
        } else if (self.len + 1) * 2 > self.slots.len() {
            self.rebuild(self.slots.len() * 2);
        }
    }

    /// Inserts or replaces the value for `key`; returns the previous
    /// value if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
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

    /// The value for `key`, if present.
    pub fn get(&self, key: K) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        match self.probe(key) {
            Ok(at) => self.slots[at].as_ref().map(|(_, v)| v),
            Err(_) => None,
        }
    }

    /// Mutable access to the value for `key`, if present.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        if self.slots.is_empty() {
            return None;
        }
        match self.probe(key) {
            Ok(at) => self.slots[at].as_mut().map(|(_, v)| v),
            Err(_) => None,
        }
    }

    /// Whether `key` has an entry.
    pub fn contains(&self, key: K) -> bool {
        !self.slots.is_empty() && self.probe(key).is_ok()
    }

    /// The value for `key`, inserting `init()` first when absent.
    // The `expect` re-reads the slot `probe` just reported (or this call
    // just filled) as occupied — an internal invariant, not a
    // caller-reachable panic.
    #[allow(clippy::missing_panics_doc)]
    pub fn get_or_insert_with(&mut self, key: K, init: impl FnOnce() -> V) -> &mut V {
        self.grow_if_needed();
        let at = match self.probe(key) {
            Ok(at) => at,
            Err(at) => {
                self.slots[at] = Some((key, init()));
                self.len += 1;
                at
            }
        };
        self.slots[at].as_mut().map(|(_, v)| v).expect("occupied")
    }

    /// Removes the entry for `key`, returning its value.
    ///
    /// Uses backward-shift deletion: subsequent entries of the probe
    /// cluster are moved back over the hole, so lookups never traverse
    /// tombstones no matter how many allocate/free cycles the map sees.
    pub fn remove(&mut self, key: K) -> Option<V> {
        if self.slots.is_empty() {
            return None;
        }
        let mut hole = match self.probe(key) {
            Ok(at) => at,
            Err(_) => return None,
        };
        let (_, removed) = self.slots[hole].take()?;
        self.len -= 1;
        // Backward shift: walk the cluster after the hole; any entry
        // whose home position does not lie strictly between the hole
        // and itself (cyclically) is moved into the hole.
        let mask = self.mask();
        let mut i = (hole + 1) & mask;
        while let Some((k, _)) = &self.slots[i] {
            let home = Self::slot(k.fast_hash(), mask);
            // `home` is outside the half-open cyclic interval (hole, i]
            // exactly when the entry may be moved back to `hole`.
            let distance_home = i.wrapping_sub(home) & mask;
            let distance_hole = i.wrapping_sub(hole) & mask;
            if distance_home >= distance_hole {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
            i = (i + 1) & mask;
        }
        Some(removed)
    }

    /// Visits every entry in unspecified order.
    pub fn for_each(&self, mut f: impl FnMut(K, &V)) {
        for (k, v) in self.slots.iter().flatten() {
            f(*k, v);
        }
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.len = 0;
        for slot in &mut self.slots {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use csod_rng::Arc4Random;
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
                        m.len() * 2 <= m.slots.len(),
                        "{} entries in {} slots",
                        m.len(),
                        m.slots.len()
                    );
                }
                6..=8 => assert_eq!(m.remove(key), model.remove(&key)),
                _ => assert_eq!(m.get(key), model.get(&key)),
            }
            assert_eq!(m.len(), model.len());
            peak_slots = peak_slots.max(m.slots.len());
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
        use csod_ctx::{ContextKey, FrameTable};
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
