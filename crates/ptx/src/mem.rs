//! Flat device virtual-address space and functional global memory.
//!
//! Allocations (`cudaMalloc` equivalents) are carved out of a single 64-bit
//! address space with generous alignment, so launch-time analysis can work
//! with plain byte intervals and map any address back to its allocation.

use std::fmt;
use std::sync::Arc;

/// Identifier of a device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(pub u32);

impl fmt::Display for AllocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alloc#{}", self.0)
    }
}

/// Metadata for one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocInfo {
    /// The allocation id.
    pub id: AllocId,
    /// Base virtual address.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

impl AllocInfo {
    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// Whether `addr` falls inside the allocation.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Bump allocator over the flat device address space.
///
/// The base address starts away from zero (as on real GPUs) and each
/// allocation is aligned to 256 bytes so that range analysis and coalescing
/// see realistic addresses.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    allocs: Vec<AllocInfo>,
    next: u64,
}

/// Alignment of every allocation, matching CUDA's `cudaMalloc` guarantee.
pub const ALLOC_ALIGN: u64 = 256;
/// First device virtual address handed out.
pub const DEVICE_BASE: u64 = 0x7f00_0000_0000;

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> Self {
        AddressSpace {
            allocs: Vec::new(),
            next: DEVICE_BASE,
        }
    }

    /// Reserves `size` bytes and returns the new allocation's metadata.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn alloc(&mut self, size: u64) -> AllocInfo {
        assert!(size > 0, "zero-sized device allocation");
        let base = self.next;
        let id = AllocId(self.allocs.len() as u32);
        let info = AllocInfo { id, base, size };
        self.allocs.push(info);
        self.next = (base + size).next_multiple_of(ALLOC_ALIGN);
        info
    }

    /// All allocations in creation order.
    pub fn allocs(&self) -> &[AllocInfo] {
        &self.allocs
    }

    /// Looks up an allocation by id.
    pub fn info(&self, id: AllocId) -> AllocInfo {
        self.allocs[id.0 as usize]
    }

    /// Finds the allocation containing `addr`, if any.
    pub fn find(&self, addr: u64) -> Option<AllocInfo> {
        let i = self.allocs.partition_point(|a| a.base <= addr);
        if i == 0 {
            return None;
        }
        let a = self.allocs[i - 1];
        a.contains(addr).then_some(a)
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        AddressSpace::new()
    }
}

/// Copy-on-write granule of a backing region. 4 KiB balances clone cost
/// (one `Arc` pointer per chunk) against the bytes duplicated by the first
/// write into a shared chunk.
pub const COW_CHUNK_BYTES: usize = 1 << 12;

/// Byte-addressable functional device memory backing the interpreter.
///
/// Backed by one sorted list of regions, each a list of chunks created
/// lazily; reads of never-written memory return zeroes (deterministic,
/// like `cudaMemset` 0). Each chunk is one `Arc<[u8]>`, so a byte is one
/// pointer hop from its region's chunk list.
///
/// Chunks are reference-counted and shared between clones, so `clone()` is
/// a pointer copy per chunk rather than a deep copy of device memory, and
/// only chunks a clone actually writes are duplicated (copy-on-write).
#[derive(Debug, Clone, Default)]
pub struct GlobalMem {
    regions: Vec<Region>, // sorted by base
}

/// One backing region.
#[derive(Debug, Clone)]
struct Region {
    base: u64,
    /// One past the last byte.
    end: u64,
    chunks: Vec<Arc<[u8]>>,
}

/// Unique access to one chunk, duplicating it first when it is shared with
/// another clone. Chunks never have weak references, so a strong count of
/// one (a plain load) makes the one `Arc::get_mut` succeed.
#[inline]
fn chunk_mut(chunk: &mut Arc<[u8]>) -> &mut [u8] {
    if Arc::strong_count(chunk) != 1 {
        unshare(chunk);
    }
    Arc::get_mut(chunk).expect("a chunk with one strong reference is unique")
}

/// Replaces `chunk` by a private copy.
#[cold]
#[inline(never)]
fn unshare(chunk: &mut Arc<[u8]>) {
    *chunk = Arc::from(&chunk[..]);
}

/// The chunk list backing a `size`-byte region: full chunks share one
/// zeroed block (copied lazily on first write), the tail is exact-length so
/// concatenating chunk bytes reproduces the region byte-for-byte.
fn zero_chunks(size: u64) -> Vec<Arc<[u8]>> {
    let full = size as usize / COW_CHUNK_BYTES;
    let tail = size as usize % COW_CHUNK_BYTES;
    let mut chunks = Vec::with_capacity(full + usize::from(tail > 0));
    if full > 0 {
        let zero: Arc<[u8]> = Arc::from(vec![0u8; COW_CHUNK_BYTES]);
        chunks.extend(std::iter::repeat_with(|| zero.clone()).take(full));
    }
    if tail > 0 {
        chunks.push(Arc::from(vec![0u8; tail]));
    }
    chunks
}

impl GlobalMem {
    /// Creates memory with backing for every allocation in `space`.
    pub fn for_space(space: &AddressSpace) -> Self {
        let mut m = GlobalMem::default();
        for a in space.allocs() {
            m.add_region(a.base, a.size);
        }
        m
    }

    /// Registers a backing region (idempotent for the same base).
    pub fn add_region(&mut self, base: u64, size: u64) {
        let Err(i) = self.regions.binary_search_by_key(&base, |r| r.base) else {
            return;
        };
        self.regions.insert(
            i,
            Region {
                base,
                end: base + size,
                chunks: zero_chunks(size),
            },
        );
    }

    /// The region holding the `len` bytes at `addr` (the last region
    /// starting at or below `addr`, if they fit in it) and `addr`'s offset
    /// in it.
    #[inline]
    fn locate(&self, addr: u64, len: u64) -> Option<(usize, usize)> {
        let i = self
            .regions
            .partition_point(|r| r.base <= addr)
            .checked_sub(1)?;
        let r = &self.regions[i];
        (addr.checked_add(len)? <= r.end).then(|| (i, (addr - r.base) as usize))
    }

    /// [`GlobalMem::locate`], trying region `*near` before the search and
    /// leaving in it the region found. Region `*near` is the one `locate`
    /// finds when it holds the bytes and the next region starts above
    /// `addr`, so the answer is the same for any `*near`.
    #[inline(always)]
    fn locate_near(&self, near: &mut usize, addr: u64, len: u64) -> Option<(usize, usize)> {
        if let Some(r) = self.regions.get(*near) {
            let next = self.regions.get(*near + 1).map_or(u64::MAX, |n| n.base);
            if r.base <= addr && addr < next && addr.checked_add(len)? <= r.end {
                return Some((*near, (addr - r.base) as usize));
            }
        }
        let found = self.locate(addr, len)?;
        *near = found.0;
        Some(found)
    }

    /// Reads a 32-bit little-endian word, or `None` when any of its bytes
    /// falls outside every backing region.
    #[inline]
    pub fn try_read_u32(&self, addr: u64) -> Option<u32> {
        let mut anywhere = usize::MAX;
        self.read_u32_near(&mut anywhere, addr)
    }

    /// [`GlobalMem::try_read_u32`], trying region `*near` first.
    #[inline(always)]
    pub(crate) fn read_u32_near(&self, near: &mut usize, addr: u64) -> Option<u32> {
        let (r, off) = self.locate_near(near, addr, 4)?;
        let chunk = &self.regions[r].chunks[off / COW_CHUNK_BYTES];
        let co = off % COW_CHUNK_BYTES;
        Some(match chunk.get(co..co + 4) {
            Some(bytes) => u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            None => self.read_straddling(r, off),
        })
    }

    /// The word at offset `off` of region `r`, which straddles a chunk
    /// boundary: gathered byte-wise.
    #[cold]
    #[inline(never)]
    fn read_straddling(&self, r: usize, off: usize) -> u32 {
        let chunks = &self.regions[r].chunks;
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            let o = off + i;
            *b = chunks[o / COW_CHUNK_BYTES][o % COW_CHUNK_BYTES];
        }
        u32::from_le_bytes(bytes)
    }

    /// Reads a 32-bit little-endian word.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds device address (a functional-model bug in
    /// the kernel under test — surfaced loudly on purpose). The interpreter
    /// uses [`GlobalMem::try_read_u32`] and reports a typed error instead.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.try_read_u32(addr)
            .unwrap_or_else(|| panic!("device read of unmapped address {addr:#x}"))
    }

    /// Writes a 32-bit little-endian word; `None` (and no write) when any
    /// of its bytes falls outside every backing region.
    #[must_use]
    #[inline(always)]
    pub fn try_write_u32(&mut self, addr: u64, value: u32) -> Option<()> {
        let (r, off) = self.locate(addr, 4)?;
        let chunk = &mut self.regions[r].chunks[off / COW_CHUNK_BYTES];
        let co = off % COW_CHUNK_BYTES;
        if co + 4 <= chunk.len() {
            chunk_mut(chunk)[co..co + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            self.write_straddling(r, off, value);
        }
        Some(())
    }

    /// Writes the word at offset `off` of region `r`, which straddles a
    /// chunk boundary, byte-wise.
    #[cold]
    #[inline(never)]
    fn write_straddling(&mut self, r: usize, off: usize, value: u32) {
        let chunks = &mut self.regions[r].chunks;
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            let o = off + i;
            let c = chunk_mut(&mut chunks[o / COW_CHUNK_BYTES]);
            c[o % COW_CHUNK_BYTES] = b;
        }
    }

    /// Writes a 32-bit little-endian word and returns the word it replaced;
    /// `None` (and no write) when any of its bytes is unmapped. Tries
    /// region `*near` first.
    #[inline]
    pub(crate) fn swap_u32_near(&mut self, near: &mut usize, addr: u64, value: u32) -> Option<u32> {
        let (r, off) = self.locate_near(near, addr, 4)?;
        let chunk = &mut self.regions[r].chunks[off / COW_CHUNK_BYTES];
        let co = off % COW_CHUNK_BYTES;
        if co + 4 <= chunk.len() {
            let bytes = &mut chunk_mut(chunk)[co..co + 4];
            let old = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            bytes.copy_from_slice(&value.to_le_bytes());
            Some(old)
        } else {
            let old = self.read_straddling(r, off);
            self.write_straddling(r, off, value);
            Some(old)
        }
    }

    /// The `len` bytes at `addr`, when they lie inside one chunk. Tries
    /// region `*near` first.
    #[inline]
    pub(crate) fn chunk_bytes(&self, near: &mut usize, addr: u64, len: usize) -> Option<&[u8]> {
        let (r, off) = self.locate_near(near, addr, len as u64)?;
        let co = off % COW_CHUNK_BYTES;
        self.regions[r].chunks[off / COW_CHUNK_BYTES].get(co..co + len)
    }

    /// [`GlobalMem::chunk_bytes`] for writing, unsharing the chunk first.
    #[inline]
    pub(crate) fn chunk_bytes_mut(
        &mut self,
        near: &mut usize,
        addr: u64,
        len: usize,
    ) -> Option<&mut [u8]> {
        let (r, off) = self.locate_near(near, addr, len as u64)?;
        let chunk = &mut self.regions[r].chunks[off / COW_CHUNK_BYTES];
        let co = off % COW_CHUNK_BYTES;
        if co + len > chunk.len() {
            return None;
        }
        Some(&mut chunk_mut(chunk)[co..co + len])
    }

    /// Writes a 32-bit little-endian word.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds device address.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.try_write_u32(addr, value)
            .unwrap_or_else(|| panic!("device write of unmapped address {addr:#x}"));
    }

    /// Reads an `f32`.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32`.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Copies a slice of `f32`s to device memory (host-to-device memcpy).
    ///
    /// Locates the destination region once and writes chunk-contiguous
    /// spans, so large host copies (the dominant cost of building analysis
    /// scratch memory) avoid a per-word address search.
    pub fn copy_from_host_f32(&mut self, addr: u64, data: &[f32]) {
        if data.is_empty() {
            return;
        }
        let (r, start) = self
            .locate(addr, 4 * data.len() as u64)
            .unwrap_or_else(|| panic!("device write of unmapped address {addr:#x}"));
        let chunks = &mut self.regions[r].chunks;
        let mut off = start;
        let mut words = data.iter();
        'outer: while let Some(first) = words.next() {
            let (ci, co) = (off / COW_CHUNK_BYTES, off % COW_CHUNK_BYTES);
            let c = chunk_mut(&mut chunks[ci]);
            if co + 4 > c.len() {
                // Word straddles the chunk boundary: byte-wise slow path.
                for (i, b) in first.to_bits().to_le_bytes().into_iter().enumerate() {
                    let o = off + i;
                    let cc = chunk_mut(&mut chunks[o / COW_CHUNK_BYTES]);
                    cc[o % COW_CHUNK_BYTES] = b;
                }
                off += 4;
                continue;
            }
            // Fill as much of this chunk as the remaining words allow.
            c[co..co + 4].copy_from_slice(&first.to_bits().to_le_bytes());
            off += 4;
            let mut co = co + 4;
            while co + 4 <= c.len() {
                match words.next() {
                    Some(v) => {
                        c[co..co + 4].copy_from_slice(&v.to_bits().to_le_bytes());
                        co += 4;
                        off += 4;
                    }
                    None => break 'outer,
                }
            }
        }
    }

    /// Copies device memory into a vector of `f32`s (device-to-host memcpy).
    pub fn copy_to_host_f32(&self, addr: u64, count: usize) -> Vec<f32> {
        (0..count)
            .map(|i| self.read_f32(addr + 4 * i as u64))
            .collect()
    }

    /// A stable fingerprint of all memory contents, for equivalence tests.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over all regions in address order; chunk boundaries are
        // invisible (the hashed byte stream is base bytes then region bytes).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &self.regions {
            let bytes = r
                .base
                .to_le_bytes()
                .into_iter()
                .chain(r.chunks.iter().flat_map(|c| c.iter().copied()));
            for b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut sp = AddressSpace::new();
        let a = sp.alloc(100);
        let b = sp.alloc(1000);
        assert_eq!(a.base % ALLOC_ALIGN, 0);
        assert_eq!(b.base % ALLOC_ALIGN, 0);
        assert!(a.end() <= b.base);
        assert_eq!(sp.find(a.base + 50), Some(a));
        assert_eq!(sp.find(b.base + 999), Some(b));
        assert_eq!(sp.find(b.end()), None);
        assert_eq!(sp.find(0), None);
        assert_eq!(sp.info(a.id), a);
    }

    #[test]
    fn mem_round_trip() {
        let mut sp = AddressSpace::new();
        let a = sp.alloc(64);
        let mut m = GlobalMem::for_space(&sp);
        m.write_f32(a.base + 8, 3.5);
        assert_eq!(m.read_f32(a.base + 8), 3.5);
        assert_eq!(m.read_f32(a.base), 0.0); // untouched memory reads zero
        m.write_u32(a.base + 60, u32::MAX);
        assert_eq!(m.read_u32(a.base + 60), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn oob_read_panics() {
        let mut sp = AddressSpace::new();
        let a = sp.alloc(8);
        let m = GlobalMem::for_space(&sp);
        m.read_u32(a.base + 6); // crosses the end
    }

    #[test]
    fn fallible_accessors_reject_unmapped_words() {
        let mut sp = AddressSpace::new();
        let a = sp.alloc(8);
        let mut m = GlobalMem::for_space(&sp);
        assert_eq!(m.try_write_u32(a.base + 4, 7), Some(()));
        assert_eq!(m.try_read_u32(a.base + 4), Some(7));
        assert_eq!(m.try_read_u32(a.base + 6), None); // crosses the end
        assert_eq!(m.try_write_u32(a.base - 4, 1), None);
        assert_eq!(m.try_read_u32(u64::MAX - 1), None);
        assert_eq!(
            m.read_u32(a.base),
            0,
            "a rejected write leaves memory alone"
        );
    }

    #[test]
    fn host_copies() {
        let mut sp = AddressSpace::new();
        let a = sp.alloc(16);
        let mut m = GlobalMem::for_space(&sp);
        m.copy_from_host_f32(a.base, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.copy_to_host_f32(a.base, 4), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn fingerprint_changes_with_contents() {
        let mut sp = AddressSpace::new();
        let a = sp.alloc(16);
        let mut m = GlobalMem::for_space(&sp);
        let f0 = m.fingerprint();
        m.write_u32(a.base, 1);
        assert_ne!(m.fingerprint(), f0);
    }

    #[test]
    fn chunk_boundary_round_trip() {
        let mut sp = AddressSpace::new();
        let a = sp.alloc(2 * COW_CHUNK_BYTES as u64 + 10);
        let mut m = GlobalMem::for_space(&sp);
        // A word straddling the first chunk boundary.
        let straddle = a.base + COW_CHUNK_BYTES as u64 - 2;
        m.write_u32(straddle, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(straddle), 0xDEAD_BEEF);
        // Last word of the short tail chunk.
        m.write_u32(a.base + 2 * COW_CHUNK_BYTES as u64 + 6, 7);
        assert_eq!(m.read_u32(a.base + 2 * COW_CHUNK_BYTES as u64 + 6), 7);
        // Neighbors on both sides of the straddle stay intact.
        assert_eq!(m.read_u32(straddle - 4), 0);
        assert_eq!(m.read_u32(straddle + 4), 0);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut sp = AddressSpace::new();
        let a = sp.alloc(4 * COW_CHUNK_BYTES as u64);
        let mut m = GlobalMem::for_space(&sp);
        m.copy_from_host_f32(a.base, &vec![1.5f32; COW_CHUNK_BYTES / 4]);
        let mut clone = m.clone();
        let shared = |m: &GlobalMem, clone: &GlobalMem| -> Vec<bool> {
            let pair = m.regions[0].chunks.iter().zip(&clone.regions[0].chunks);
            pair.map(|(a, b)| Arc::ptr_eq(a, b)).collect()
        };
        // Cloning itself duplicates nothing.
        assert_eq!(shared(&m, &clone), [true; 4]);
        // Writing one word in the clone duplicates exactly one chunk, and
        // the original is unaffected.
        clone.write_f32(a.base, 9.0);
        assert_eq!(shared(&m, &clone), [false, true, true, true]);
        assert_eq!(clone.read_f32(a.base), 9.0);
        assert_eq!(m.read_f32(a.base), 1.5);
    }

    #[test]
    fn bulk_host_copy_matches_word_writes() {
        let mut sp = AddressSpace::new();
        let n = COW_CHUNK_BYTES / 4 + 37;
        let a = sp.alloc(4 * n as u64 + 8);
        let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let mut bulk = GlobalMem::for_space(&sp);
        bulk.copy_from_host_f32(a.base + 8, &data);
        let mut word = GlobalMem::for_space(&sp);
        for (i, v) in data.iter().enumerate() {
            word.write_f32(a.base + 8 + 4 * i as u64, *v);
        }
        assert_eq!(bulk.fingerprint(), word.fingerprint());
        assert_eq!(bulk.copy_to_host_f32(a.base + 8, n), data);
    }
}
