//! The sparse virtual address space.
//!
//! Memory is organized as a set of non-overlapping mapped *regions*
//! (analogous to `mmap`ed areas). All loads and stores must fall entirely
//! within one mapped region; anything else is a fault, which the
//! [`Machine`](crate::Machine) turns into a SIGSEGV-style signal exactly
//! like an out-of-range pointer dereference on a real machine.
//!
//! Region backing is demand-paged in 64 KiB chunks: mapping a 256 MiB
//! heap costs nothing until pages are touched, exactly like anonymous
//! `mmap` memory. Untouched chunks read as zeroes.

use crate::addr::{AddrRange, VirtAddr};
use std::fmt;

/// Size of one lazily-allocated backing chunk.
const CHUNK: u64 = 64 * 1024;

/// Errors produced by address-space operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// The access touched at least one unmapped byte.
    Unmapped {
        /// The first faulting address.
        addr: VirtAddr,
        /// How many bytes the access covered.
        len: u64,
    },
    /// A new mapping collided with an existing region.
    MappingOverlap {
        /// The requested range.
        requested: AddrRange,
        /// The name of the region it collided with.
        existing: String,
    },
    /// A mapping request was degenerate (zero length or address wrap).
    InvalidMapping {
        /// The requested range start.
        addr: VirtAddr,
        /// The requested length.
        len: u64,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::Unmapped { addr, len } => {
                write!(f, "access to unmapped memory at {addr} (len {len})")
            }
            MemoryError::MappingOverlap { requested, existing } => {
                write!(f, "mapping {requested} overlaps existing region `{existing}`")
            }
            MemoryError::InvalidMapping { addr, len } => {
                write!(f, "invalid mapping request at {addr} (len {len})")
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// One mapped region of memory, demand-paged in [`CHUNK`]-byte pieces.
#[derive(Debug, Clone)]
struct Region {
    range: AddrRange,
    name: String,
    /// Backing chunks, indexed by chunk number within the region; `None`
    /// chunks are all-zero. The index grows to cover the highest chunk
    /// written so far, so a fresh mapping holds no index at all and
    /// chunks past the end of the index read as zero.
    chunks: Vec<Option<Box<[u8]>>>,
    resident: u64,
}

impl Region {
    fn new(range: AddrRange, name: &str) -> Self {
        Region {
            range,
            name: name.to_owned(),
            chunks: Vec::new(),
            resident: 0,
        }
    }

    /// The backing of `chunk`, or `None` when it was never written.
    #[inline]
    fn chunk(&self, chunk: u64) -> Option<&[u8]> {
        self.chunks.get(chunk as usize)?.as_deref()
    }

    /// Runs `f` over the chunk-relative pieces of `[offset, offset+len)`.
    fn for_pieces(
        offset: u64,
        len: u64,
        mut f: impl FnMut(u64 /*chunk*/, usize /*start in chunk*/, usize /*len*/, usize /*progress*/),
    ) {
        let mut done = 0u64;
        while done < len {
            let pos = offset + done;
            let chunk = pos / CHUNK;
            let start = (pos % CHUNK) as usize;
            let take = ((CHUNK as usize) - start).min((len - done) as usize);
            f(chunk, start, take, done as usize);
            done += take as u64;
        }
    }

    fn read(&self, offset: u64, buf: &mut [u8]) {
        Region::for_pieces(offset, buf.len() as u64, |chunk, start, take, progress| {
            match self.chunk(chunk) {
                Some(bytes) => buf[progress..progress + take]
                    .copy_from_slice(&bytes[start..start + take]),
                None => buf[progress..progress + take].fill(0),
            }
        });
    }

    #[inline]
    fn chunk_mut<'a>(
        chunks: &'a mut Vec<Option<Box<[u8]>>>,
        resident: &mut u64,
        chunk: u64,
    ) -> &'a mut [u8] {
        let chunk = chunk as usize;
        if !matches!(chunks.get(chunk), Some(Some(_))) {
            Region::back_chunk(chunks, resident, chunk);
        }
        chunks[chunk].as_deref_mut().expect("chunk is backed")
    }

    /// Allocates the backing of a chunk on its first write: once per
    /// 64 KiB, kept out of line so `chunk_mut` inlines.
    #[cold]
    fn back_chunk(chunks: &mut Vec<Option<Box<[u8]>>>, resident: &mut u64, chunk: usize) {
        if chunk >= chunks.len() {
            chunks.resize(chunk + 1, None);
        }
        chunks[chunk] = Some(vec![0u8; CHUNK as usize].into_boxed_slice());
        *resident += CHUNK;
    }

    #[inline]
    fn write(&mut self, offset: u64, data: &[u8]) {
        let start = (offset % CHUNK) as usize;
        if data.is_empty() || start + data.len() > CHUNK as usize {
            self.write_pieces(offset, data);
            return;
        }
        // The write lies inside one chunk: the common case (a header or
        // a word), done without the piece loop.
        Region::chunk_mut(&mut self.chunks, &mut self.resident, offset / CHUNK)
            [start..start + data.len()]
            .copy_from_slice(data);
    }

    /// A write that is empty or crosses a chunk boundary, kept out of
    /// line so `write` inlines.
    #[cold]
    fn write_pieces(&mut self, offset: u64, data: &[u8]) {
        let chunks = &mut self.chunks;
        let resident = &mut self.resident;
        Region::for_pieces(offset, data.len() as u64, |chunk, start, take, progress| {
            Region::chunk_mut(chunks, resident, chunk)[start..start + take]
                .copy_from_slice(&data[progress..progress + take]);
        });
    }

    fn fill(&mut self, offset: u64, len: u64, byte: u8) {
        let chunks = &mut self.chunks;
        let resident = &mut self.resident;
        Region::for_pieces(offset, len, |chunk, start, take, _| {
            if byte == 0 && chunks.get(chunk as usize).is_none_or(Option::is_none) {
                return; // untouched chunks are already zero
            }
            Region::chunk_mut(chunks, resident, chunk)[start..start + take].fill(byte);
        });
    }

    /// Bytes actually backed by allocated chunks (the RSS analogue).
    fn resident_bytes(&self) -> u64 {
        self.resident
    }
}

/// A sparse 64-bit address space built from non-overlapping regions.
///
/// # Examples
///
/// ```
/// use sim_machine::{AddressSpace, VirtAddr};
///
/// # fn main() -> Result<(), sim_machine::MemoryError> {
/// let mut mem = AddressSpace::new();
/// let base = VirtAddr::new(0x10_0000);
/// mem.map_region(base, 4096, "heap")?;
/// mem.store_u64(base, 0xdead_beef)?;
/// assert_eq!(mem.load_u64(base)?, 0xdead_beef);
/// assert!(mem.load_u64(VirtAddr::new(0x20_0000)).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct AddressSpace {
    /// Non-overlapping regions sorted by base address. An address space
    /// holds a handful of regions (the simulator maps one heap), so a
    /// binary search over this flat list finds the region of an access
    /// in a comparison or two.
    regions: Vec<Region>,
}

impl AddressSpace {
    /// Creates an empty address space with no mappings.
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// Maps `len` zeroed bytes at `base`. Backing memory is allocated
    /// lazily, so mapping a huge region is O(1).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::InvalidMapping`] for zero-length or wrapping
    /// requests and [`MemoryError::MappingOverlap`] if the range intersects
    /// an existing region.
    pub fn map_region(
        &mut self,
        base: VirtAddr,
        len: u64,
        name: &str,
    ) -> Result<(), MemoryError> {
        if len == 0 || base.checked_add(len).is_none() || base.is_null() {
            return Err(MemoryError::InvalidMapping { addr: base, len });
        }
        let range = AddrRange::new(base, len);
        if let Some(existing) = self.find_overlap(&range) {
            return Err(MemoryError::MappingOverlap {
                requested: range,
                existing: existing.name.clone(),
            });
        }
        let at = self.regions.partition_point(|r| r.range.start() < base);
        self.regions.insert(at, Region::new(range, name));
        Ok(())
    }

    /// Removes the region based exactly at `base`, returning whether a
    /// region was removed.
    pub fn unmap_region(&mut self, base: VirtAddr) -> bool {
        match self
            .regions
            .binary_search_by_key(&base, |r| r.range.start())
        {
            Ok(at) => {
                self.regions.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Returns `true` if every byte of `[addr, addr + len)` is mapped.
    #[inline]
    pub fn is_mapped(&self, addr: VirtAddr, len: u64) -> bool {
        self.region_containing(addr, len).is_some()
    }

    /// Total mapped bytes across all regions (virtual size).
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.range.len()).sum()
    }

    /// Total bytes actually backed by touched chunks (resident size).
    pub fn resident_bytes(&self) -> u64 {
        self.regions.iter().map(Region::resident_bytes).sum()
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the access is not fully inside
    /// one mapped region.
    #[inline]
    pub fn read_bytes(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MemoryError> {
        let region = self.region_or_fault(addr, buf.len() as u64)?;
        region.read(addr - region.range.start(), buf);
        Ok(())
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the access is not fully inside
    /// one mapped region.
    #[inline]
    pub fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<(), MemoryError> {
        let len = data.len() as u64;
        let region = self
            .region_containing_mut(addr, len)
            .ok_or(MemoryError::Unmapped { addr, len })?;
        region.write(addr - region.range.start(), data);
        Ok(())
    }

    /// Fills `[addr, addr + len)` with `byte`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the range is not fully mapped.
    #[inline]
    pub fn fill(&mut self, addr: VirtAddr, len: u64, byte: u8) -> Result<(), MemoryError> {
        let region = self
            .region_containing_mut(addr, len)
            .ok_or(MemoryError::Unmapped { addr, len })?;
        region.fill(addr - region.range.start(), len, byte);
        Ok(())
    }

    /// Fills each span with `byte` — the batched apply of trace replay,
    /// where a compiled segment's coalesced store footprint lands in one
    /// call instead of one [`AddressSpace::fill`] per store.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] on the first span that is not
    /// fully mapped; earlier spans stay applied (callers pre-check with
    /// [`AddressSpace::is_mapped`] when partial application matters).
    pub fn fill_spans(
        &mut self,
        spans: &[crate::addr::AddrRange],
        byte: u8,
    ) -> Result<(), MemoryError> {
        for span in spans {
            self.fill(span.start(), span.len(), byte)?;
        }
        Ok(())
    }

    /// Loads a little-endian `u64` from `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the eight bytes are not mapped.
    #[inline]
    pub fn load_u64(&self, addr: VirtAddr) -> Result<u64, MemoryError> {
        let region = self.region_or_fault(addr, 8)?;
        let offset = addr - region.range.start();
        let start = (offset % CHUNK) as usize;
        if start <= CHUNK as usize - 8 {
            // Word lies inside one chunk — the overwhelmingly common case
            // (allocator headers and canaries are 8-byte aligned).
            return Ok(match region.chunk(offset / CHUNK) {
                Some(bytes) => {
                    u64::from_le_bytes(bytes[start..start + 8].try_into().expect("8 bytes"))
                }
                None => 0,
            });
        }
        let mut buf = [0u8; 8];
        region.read(offset, &mut buf);
        Ok(u64::from_le_bytes(buf))
    }

    /// Stores a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the eight bytes are not mapped.
    #[inline]
    pub fn store_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), MemoryError> {
        let region = self
            .region_containing_mut(addr, 8)
            .ok_or(MemoryError::Unmapped { addr, len: 8 })?;
        let offset = addr - region.range.start();
        let start = (offset % CHUNK) as usize;
        if start <= CHUNK as usize - 8 {
            let chunk = Region::chunk_mut(&mut region.chunks, &mut region.resident, offset / CHUNK);
            chunk[start..start + 8].copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        region.write(offset, &value.to_le_bytes());
        Ok(())
    }

    /// The lowest-based region overlapping `range`.
    fn find_overlap(&self, range: &AddrRange) -> Option<&Region> {
        let below_end = self
            .regions
            .partition_point(|r| r.range.start() <= range.end());
        self.regions[..below_end]
            .iter()
            .find(|r| r.range.overlaps(range))
    }

    /// Position of the one region holding all of `[addr, addr + len)`:
    /// the last region based at or below `addr`, if the access ends
    /// inside it. An access spanning two adjacent regions has none.
    #[inline]
    fn index_containing(&self, addr: VirtAddr, len: u64) -> Option<usize> {
        let end = addr.checked_add(len)?;
        let at = self
            .regions
            .partition_point(|r| r.range.start() <= addr)
            .checked_sub(1)?;
        let range = &self.regions[at].range;
        (range.contains(addr) && end <= range.end() && len > 0).then_some(at)
    }

    #[inline]
    fn region_containing(&self, addr: VirtAddr, len: u64) -> Option<&Region> {
        self.index_containing(addr, len).map(|at| &self.regions[at])
    }

    #[inline]
    fn region_containing_mut(&mut self, addr: VirtAddr, len: u64) -> Option<&mut Region> {
        self.index_containing(addr, len)
            .map(|at| &mut self.regions[at])
    }

    #[inline]
    fn region_or_fault(&self, addr: VirtAddr, len: u64) -> Result<&Region, MemoryError> {
        self.region_containing(addr, len)
            .ok_or(MemoryError::Unmapped { addr, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with_heap() -> (AddressSpace, VirtAddr) {
        let mut mem = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        mem.map_region(base, 4096, "heap").unwrap();
        (mem, base)
    }

    #[test]
    fn round_trip_bytes() {
        let (mut mem, base) = space_with_heap();
        mem.write_bytes(base + 10, b"hello").unwrap();
        let mut buf = [0u8; 5];
        mem.read_bytes(base + 10, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn round_trip_u64() {
        let (mut mem, base) = space_with_heap();
        mem.store_u64(base + 8, u64::MAX - 1).unwrap();
        assert_eq!(mem.load_u64(base + 8).unwrap(), u64::MAX - 1);
    }

    #[test]
    fn fill_overwrites_range() {
        let (mut mem, base) = space_with_heap();
        mem.fill(base, 16, 0xAA).unwrap();
        let mut buf = [0u8; 16];
        mem.read_bytes(base, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn new_mapping_is_zeroed() {
        let (mem, base) = space_with_heap();
        assert_eq!(mem.load_u64(base).unwrap(), 0);
    }

    #[test]
    fn mapping_is_lazy_until_touched() {
        let mut mem = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        mem.map_region(base, 1 << 30, "huge").unwrap(); // 1 GiB
        assert_eq!(mem.resident_bytes(), 0, "no chunk allocated yet");
        mem.store_u64(base + (512 << 20), 7).unwrap();
        assert_eq!(mem.resident_bytes(), CHUNK, "one chunk after one touch");
        // Filling with zero over untouched chunks stays lazy.
        mem.fill(base, 1 << 20, 0).unwrap();
        assert_eq!(mem.resident_bytes(), CHUNK);
    }

    #[test]
    fn fresh_mapping_reads_zero_at_both_ends_without_residency() {
        let mut mem = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        let len = 256 << 20; // 256 MiB
        mem.map_region(base, len, "heap").unwrap();
        let last = base + (len - 8);
        assert_eq!(mem.load_u64(base).unwrap(), 0);
        assert_eq!(mem.load_u64(last).unwrap(), 0);
        let mut buf = [0xFFu8; 16];
        mem.read_bytes(last - 8, &mut buf).unwrap();
        assert_eq!(buf, [0; 16], "a read past the chunk index is zero");
        assert_eq!(mem.resident_bytes(), 0, "reads allocate nothing");
    }

    #[test]
    fn write_to_the_last_chunk_reads_back() {
        let mut mem = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        let len = 256 << 20;
        mem.map_region(base, len, "heap").unwrap();
        let last = base + (len - 8);
        mem.store_u64(last, 0xfeed_f00d).unwrap();
        assert_eq!(mem.load_u64(last).unwrap(), 0xfeed_f00d);
        assert_eq!(mem.resident_bytes(), CHUNK, "only the written chunk");
        // Chunks below the written one stay zero and unallocated.
        assert_eq!(mem.load_u64(base + (len / 2)).unwrap(), 0);
        mem.write_bytes(last - 4, &[9, 9, 9, 9]).unwrap();
        let mut buf = [0u8; 12];
        mem.read_bytes(last - 4, &mut buf).unwrap();
        assert_eq!(buf, [9, 9, 9, 9, 0x0d, 0xf0, 0xed, 0xfe, 0, 0, 0, 0]);
        assert_eq!(mem.resident_bytes(), CHUNK);
    }

    #[test]
    fn accesses_spanning_chunk_boundaries() {
        let mut mem = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        mem.map_region(base, 4 * CHUNK, "heap").unwrap();
        // A write straddling the first chunk boundary.
        let at = base + CHUNK - 4;
        mem.write_bytes(at, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut buf = [0u8; 8];
        mem.read_bytes(at, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        // A fill spanning three chunks.
        mem.fill(base + CHUNK - 10, 2 * CHUNK + 20, 0x5A).unwrap();
        let mut probe = [0u8; 1];
        for offset in [CHUNK - 10, CHUNK, 2 * CHUNK, 3 * CHUNK + 9] {
            mem.read_bytes(base + offset, &mut probe).unwrap();
            assert_eq!(probe[0], 0x5A, "offset {offset}");
        }
        mem.read_bytes(base + 3 * CHUNK + 10, &mut probe).unwrap();
        assert_eq!(probe[0], 0, "one past the fill");
    }

    #[test]
    fn unmapped_access_faults() {
        let (mem, base) = space_with_heap();
        let err = mem.load_u64(base + 4096).unwrap_err();
        assert!(matches!(err, MemoryError::Unmapped { .. }));
    }

    #[test]
    fn access_straddling_region_end_faults() {
        let (mut mem, base) = space_with_heap();
        // Last 4 bytes are mapped; the next 4 are not.
        let addr = base + 4092;
        assert!(mem.store_u64(addr, 1).is_err());
        // But a 4-byte write at the same spot succeeds.
        assert!(mem.write_bytes(addr, &[1, 2, 3, 4]).is_ok());
    }

    #[test]
    fn zero_length_mapping_rejected() {
        let mut mem = AddressSpace::new();
        let err = mem.map_region(VirtAddr::new(0x1000), 0, "bad").unwrap_err();
        assert!(matches!(err, MemoryError::InvalidMapping { .. }));
    }

    #[test]
    fn null_mapping_rejected() {
        let mut mem = AddressSpace::new();
        let err = mem.map_region(VirtAddr::NULL, 4096, "bad").unwrap_err();
        assert!(matches!(err, MemoryError::InvalidMapping { .. }));
    }

    #[test]
    fn wrapping_mapping_rejected() {
        let mut mem = AddressSpace::new();
        let err = mem
            .map_region(VirtAddr::new(u64::MAX - 10), 100, "bad")
            .unwrap_err();
        assert!(matches!(err, MemoryError::InvalidMapping { .. }));
    }

    #[test]
    fn overlapping_mapping_rejected() {
        let (mut mem, base) = space_with_heap();
        let err = mem.map_region(base + 100, 10, "overlay").unwrap_err();
        match err {
            MemoryError::MappingOverlap { existing, .. } => assert_eq!(existing, "heap"),
            other => panic!("unexpected error {other:?}"),
        }
        // Overlap reaching into the region from below is also rejected.
        assert!(mem.map_region(base - 10, 20, "below").is_err());
        // Adjacent mapping is fine.
        assert!(mem.map_region(base + 4096, 4096, "heap2").is_ok());
    }

    #[test]
    fn unmap_then_remap() {
        let (mut mem, base) = space_with_heap();
        assert!(mem.unmap_region(base));
        assert!(!mem.unmap_region(base));
        assert!(!mem.is_mapped(base, 1));
        mem.map_region(base, 64, "heap-again").unwrap();
        assert!(mem.is_mapped(base, 64));
    }

    #[test]
    fn several_regions_resolve_each_access_to_its_own_region() {
        let mut mem = AddressSpace::new();
        let low = VirtAddr::new(0x10_0000);
        let mid = VirtAddr::new(0x20_0000);
        // Adjacent to `mid`; the three are mapped out of order.
        let high = mid + 0x1000;
        mem.map_region(high, 0x1000, "high").unwrap();
        mem.map_region(low, 0x800, "low").unwrap();
        mem.map_region(mid, 0x1000, "mid").unwrap();
        let regions = [(low, 0x800, 1u64), (mid, 0x1000, 2), (high, 0x1000, 3)];
        for &(base, len, tag) in &regions {
            mem.store_u64(base, tag).unwrap();
            mem.store_u64(base + (len - 8), tag << 8).unwrap();
        }
        for &(base, len, tag) in &regions {
            assert_eq!(mem.load_u64(base).unwrap(), tag, "first word of {base}");
            assert_eq!(
                mem.load_u64(base + (len - 8)).unwrap(),
                tag << 8,
                "last word of {base}"
            );
        }
        // Each region got exactly its own chunk.
        assert_eq!(mem.resident_bytes(), 3 * CHUNK);
        assert_eq!(mem.mapped_bytes(), 0x2800);
        // One access may not span the boundary between adjacent regions.
        let boundary = high - 4;
        assert!(matches!(
            mem.load_u64(boundary),
            Err(MemoryError::Unmapped { addr, len: 8 }) if addr == boundary
        ));
        assert!(matches!(
            mem.store_u64(boundary, 1),
            Err(MemoryError::Unmapped { .. })
        ));
        assert!(mem.fill(mid, 0x1001, 0xAA).is_err());
        assert!(!mem.is_mapped(boundary, 8));
        // Unmapping the middle region makes its whole range fault and
        // leaves its neighbours alone.
        assert!(mem.unmap_region(mid));
        assert!(mem.load_u64(mid).is_err());
        assert!(mem.load_u64(mid + 0xFF8).is_err());
        assert_eq!(mem.load_u64(high).unwrap(), 3);
        assert_eq!(mem.load_u64(low + 0x7F8).unwrap(), 1 << 8);
        // An overlapping request is still rejected, naming the region
        // it collides with first.
        match mem.map_region(low + 0x400, 0x20_0000, "wide").unwrap_err() {
            MemoryError::MappingOverlap { existing, .. } => assert_eq!(existing, "low"),
            other => panic!("unexpected error {other:?}"),
        }
        match mem.map_region(mid + 0x800, 0x1000, "straddle").unwrap_err() {
            MemoryError::MappingOverlap { existing, .. } => assert_eq!(existing, "high"),
            other => panic!("unexpected error {other:?}"),
        }
        // The hole left by `mid` maps again.
        mem.map_region(mid, 0x1000, "mid-again").unwrap();
        assert_eq!(mem.load_u64(mid).unwrap(), 0, "a remapped region is fresh");
    }

    #[test]
    fn mapped_bytes_sums_regions() {
        let (mut mem, base) = space_with_heap();
        mem.map_region(base + 0x10_0000, 100, "aux").unwrap();
        assert_eq!(mem.mapped_bytes(), 4196);
    }

    #[test]
    fn error_messages_are_informative() {
        let err = MemoryError::Unmapped {
            addr: VirtAddr::new(0x42),
            len: 8,
        };
        assert!(err.to_string().contains("0x42"));
    }
}
