//! Stack-frame interning.
//!
//! A calling context is a chain of code locations ("frames"). Frames are
//! interned once into a [`FrameTable`] and referenced by compact
//! [`FrameId`]s, so contexts can be compared and hashed in O(depth) word
//! operations and the human-readable strings ("OPENSSL/ssl/t1_lib.c:2588")
//! are stored exactly once — the same reason CSOD captures the full
//! `backtrace` only the first time a context key is seen.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;

/// Compact identifier of an interned frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(u32);

impl FrameId {
    /// An id no [`FrameTable`] ever hands out. Hash tables keyed by
    /// context use it (through [`crate::ContextKey::RESERVED`]) to mark
    /// an empty slot.
    pub const RESERVED: FrameId = FrameId(u32::MAX);

    /// The id of the frame interned at position `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` would collide with [`FrameId::RESERVED`] or
    /// does not fit in 32 bits.
    fn for_index(index: usize) -> FrameId {
        let id = FrameId(u32::try_from(index).expect("frame table overflow"));
        assert!(
            id != FrameId::RESERVED,
            "frame table overflow: the last id is reserved"
        );
        id
    }

    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame{}", self.0)
    }
}

/// Thread-safe interner mapping frame location strings to [`FrameId`]s.
///
/// # Examples
///
/// ```
/// use csod_ctx::FrameTable;
///
/// let frames = FrameTable::new();
/// let a = frames.intern("mysql/sql/item.cc:512");
/// let b = frames.intern("mysql/sql/item.cc:512");
/// assert_eq!(a, b);
/// assert_eq!(frames.resolve(a), "mysql/sql/item.cc:512");
/// ```
#[derive(Debug, Default)]
pub struct FrameTable {
    inner: RwLock<FrameTableInner>,
}

#[derive(Debug, Default)]
struct FrameTableInner {
    by_name: HashMap<String, FrameId>,
    names: Vec<String>,
}

impl FrameTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FrameTable::default()
    }

    /// Interns `location`, returning its stable id.
    pub fn intern(&self, location: &str) -> FrameId {
        if let Some(&id) = self.inner.read().by_name.get(location) {
            return id;
        }
        let mut inner = self.inner.write();
        // Re-check: another thread may have interned between the locks.
        if let Some(&id) = inner.by_name.get(location) {
            return id;
        }
        let id = FrameId::for_index(inner.names.len());
        inner.names.push(location.to_owned());
        inner.by_name.insert(location.to_owned(), id);
        id
    }

    /// Returns the location string of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    pub fn resolve(&self, id: FrameId) -> String {
        self.inner.read().names[id.0 as usize].clone()
    }

    /// Looks up an already-interned location.
    pub fn find(&self, location: &str) -> Option<FrameId> {
        self.inner.read().by_name.get(location).copied()
    }

    /// Number of interned frames.
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let t = FrameTable::new();
        let a = t.intern("a.c:1");
        let b = t.intern("b.c:2");
        assert_ne!(a, b);
        assert_eq!(t.intern("a.c:1"), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let t = FrameTable::new();
        let id = t.intern("lib/ssl/t1_lib.c:2588");
        assert_eq!(t.resolve(id), "lib/ssl/t1_lib.c:2588");
        assert_eq!(t.find("lib/ssl/t1_lib.c:2588"), Some(id));
        assert_eq!(t.find("missing"), None);
    }

    #[test]
    fn ids_stop_short_of_the_reserved_one() {
        let last = FrameId::for_index(u32::MAX as usize - 1);
        assert_eq!(last.as_u32(), u32::MAX - 1);
        assert_ne!(last, FrameId::RESERVED);
    }

    #[test]
    #[should_panic(expected = "the last id is reserved")]
    fn interning_never_hands_out_the_reserved_id() {
        FrameId::for_index(u32::MAX as usize);
    }

    #[test]
    fn empty_checks() {
        let t = FrameTable::new();
        assert!(t.is_empty());
        t.intern("x");
        assert!(!t.is_empty());
    }

    #[test]
    fn concurrent_interning_agrees() {
        let t = FrameTable::new();
        crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|_| (0..100).map(|i| t.intern(&format!("f{i}"))).collect::<Vec<_>>()))
                .collect();
            let results: Vec<Vec<FrameId>> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results[1..] {
                assert_eq!(r, &results[0]);
            }
        })
        .unwrap();
        assert_eq!(t.len(), 100);
    }
}
