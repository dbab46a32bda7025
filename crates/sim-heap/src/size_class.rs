//! Size classes for the segregated-freelist allocator.
//!
//! Requests are rounded up to one of a fixed set of block sizes so freed
//! blocks can be recycled exactly, glibc-style:
//!
//! * 16-byte granularity up to 512 bytes (32 small classes),
//! * power-of-two classes from 1 KiB to 32 KiB (6 medium classes),
//! * anything larger is a *large* allocation carved directly from the
//!   wilderness at page granularity.

/// Minimum alignment (and granularity) of every allocation, matching the
/// 16-byte alignment `malloc` guarantees on x86-64.
pub const MIN_ALIGN: u64 = 16;

/// Largest small-class block (16-byte steps up to here).
pub const SMALL_MAX: u64 = 512;

/// Largest medium-class block (power-of-two classes up to here);
/// anything bigger goes to page-rounded large allocations, like the
/// mmap threshold of real allocators.
pub const MEDIUM_MAX: u64 = 32 << 10;

/// Page size used to round large allocations.
pub const PAGE: u64 = 4096;

/// Number of distinct recycled size classes.
pub const NUM_CLASSES: usize = 32 + 6;

/// The block size class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// Recycled through per-class free lists; payload is the class index.
    Classed(usize),
    /// Carved from the wilderness at page granularity; payload is the
    /// rounded byte size.
    Large(u64),
}

impl SizeClass {
    /// Classifies a request of `size` bytes (zero behaves like 1, as
    /// `malloc(0)` returns a unique pointer on glibc).
    ///
    /// # Examples
    ///
    /// ```
    /// use sim_heap::SizeClass;
    ///
    /// assert_eq!(SizeClass::for_request(1).block_size(), 16);
    /// assert_eq!(SizeClass::for_request(512).block_size(), 512);
    /// assert_eq!(SizeClass::for_request(513).block_size(), 1024);
    /// assert_eq!(SizeClass::for_request(3 << 20).block_size(), 3 << 20);
    /// ```
    #[inline]
    pub fn for_request(size: u64) -> SizeClass {
        let size = size.max(1);
        if size <= SMALL_MAX {
            let rounded = size.div_ceil(MIN_ALIGN) * MIN_ALIGN;
            SizeClass::Classed((rounded / MIN_ALIGN - 1) as usize)
        } else if size <= MEDIUM_MAX {
            let rounded = size.next_power_of_two();
            // 1 KiB is class 32; each doubling adds one.
            let index = 32 + (rounded.trailing_zeros() as usize - 10);
            SizeClass::Classed(index)
        } else {
            SizeClass::Large(size.div_ceil(PAGE) * PAGE)
        }
    }

    /// The actual block size backing this class.
    pub fn block_size(self) -> u64 {
        match self {
            SizeClass::Classed(i) if i < 32 => (i as u64 + 1) * MIN_ALIGN,
            SizeClass::Classed(i) => 1u64 << (i - 32 + 10),
            SizeClass::Large(bytes) => bytes,
        }
    }

    /// The free-list index for recycled classes, `None` for large blocks.
    pub fn index(self) -> Option<usize> {
        match self {
            SizeClass::Classed(i) => Some(i),
            SizeClass::Large(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_classes_are_16_byte_steps() {
        assert_eq!(SizeClass::for_request(0).block_size(), 16);
        assert_eq!(SizeClass::for_request(16).block_size(), 16);
        assert_eq!(SizeClass::for_request(17).block_size(), 32);
        assert_eq!(SizeClass::for_request(500).block_size(), 512);
    }

    #[test]
    fn medium_classes_are_powers_of_two() {
        assert_eq!(SizeClass::for_request(513).block_size(), 1024);
        assert_eq!(SizeClass::for_request(1024).block_size(), 1024);
        assert_eq!(SizeClass::for_request(1025).block_size(), 2048);
        assert_eq!(SizeClass::for_request(32 << 10).block_size(), 32 << 10);
    }

    #[test]
    fn large_is_page_rounded() {
        let c = SizeClass::for_request((32 << 10) + 1);
        assert_eq!(c.block_size(), (32 << 10) + PAGE);
        assert_eq!(c.index(), None);
        // Page rounding keeps big objects tight: a 153 KiB object wastes
        // less than one page instead of doubling to 256 KiB.
        let big = SizeClass::for_request(153 * 1024);
        assert!(big.block_size() < 153 * 1024 + PAGE);
    }

    #[test]
    fn block_size_always_covers_request() {
        for size in (1..5000).chain([1 << 14, (32 << 10) - 1, (1 << 22) + 7]) {
            let c = SizeClass::for_request(size);
            assert!(c.block_size() >= size, "class too small for {size}");
            assert_eq!(c.block_size() % MIN_ALIGN, 0);
        }
    }

    #[test]
    fn class_indices_are_dense_and_stable() {
        // The largest classed index must fit NUM_CLASSES.
        let top = SizeClass::for_request(MEDIUM_MAX);
        assert_eq!(top.index(), Some(NUM_CLASSES - 1));
        // Round-tripping through the index preserves block size.
        for size in [1, 16, 17, 512, 513, 4096, 32 << 10] {
            let c = SizeClass::for_request(size);
            let i = c.index().unwrap();
            assert_eq!(SizeClass::Classed(i).block_size(), c.block_size());
        }
    }
}
