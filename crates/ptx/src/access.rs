//! Byte-address range sets describing what a thread block reads and writes.
//!
//! Ranges are half-open `[start, end)` byte intervals in the flat device
//! address space, kept sorted and coalesced. These are the "read and write
//! sets per TB" of the paper's value-range analysis (§III-B2).
//!
//! [`AccessLog`] records the ranges a block actually touches when it
//! runs on the interpreter's engine, for checking them against the
//! analysed ones: in warps, or one lane at a time for a block that falls
//! back or that follows an unfinished one.

use crate::interp::{ExecError, ExecObserver, ExecStats, Lockstep, Program, Sink, ThreadId};
use crate::mem::{AddressSpace, GlobalMem};
use std::fmt;

/// A sorted, coalesced set of half-open byte ranges `[start, end)`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct RangeSet {
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// The empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// A set with a single range `[start, end)`. Empty if `start >= end`.
    pub fn single(start: u64, end: u64) -> Self {
        let mut s = RangeSet::new();
        s.insert(start, end);
        s
    }

    /// Builds a set from an arbitrary list of ranges in one
    /// `O(k log k)` sort + linear coalescing pass — the bulk-union
    /// counterpart of repeated [`RangeSet::insert`], which costs
    /// `O(k)` per call against an already-large set.
    pub fn from_unsorted(mut ranges: Vec<(u64, u64)>) -> Self {
        ranges.retain(|&(s, e)| s < e);
        ranges.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
        for (s, e) in ranges {
            match out.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => out.push((s, e)),
            }
        }
        RangeSet { ranges: out }
    }

    /// Whether the set contains no bytes.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of maximal disjoint ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// The ranges, sorted and disjoint.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Total number of bytes covered.
    pub fn total_bytes(&self) -> u64 {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    /// Smallest range covering the whole set, if non-empty.
    pub fn bounds(&self) -> Option<(u64, u64)> {
        if self.ranges.is_empty() {
            None
        } else {
            Some((self.ranges[0].0, self.ranges.last().unwrap().1))
        }
    }

    /// Inserts `[start, end)`, merging with touching/overlapping ranges.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Find insertion window: all ranges with r.start <= end and
        // r.end >= start merge with the new range.
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = self.ranges.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
        } else {
            let new_start = start.min(self.ranges[lo].0);
            let new_end = end.max(self.ranges[hi - 1].1);
            self.ranges.drain(lo..hi);
            self.ranges.insert(lo, (new_start, new_end));
        }
    }

    /// Unions another set into this one.
    pub fn union_with(&mut self, other: &RangeSet) {
        for &(s, e) in &other.ranges {
            self.insert(s, e);
        }
    }

    /// Whether any byte is shared with `other`.
    ///
    /// Hot in dependency-graph construction: screened first by the overall
    /// bounds, then resolved by a binary-search merge when one side is much
    /// smaller than the other (each small range locates its overlap
    /// candidate in `O(log n)`), falling back to the linear two-pointer
    /// sweep for comparably-sized sets.
    pub fn intersects(&self, other: &RangeSet) -> bool {
        let (n, m) = (self.ranges.len(), other.ranges.len());
        if n == 0 || m == 0 {
            return false;
        }
        // Bounds screen: disjoint hulls cannot share a byte.
        if self.ranges[0].0 >= other.ranges[m - 1].1 || other.ranges[0].0 >= self.ranges[n - 1].1 {
            return false;
        }
        // Galloping path: probe each range of the smaller set into the
        // larger one when the size disparity makes log(m) probes cheaper
        // than the m-step sweep.
        const GALLOP_FACTOR: usize = 16;
        if n * GALLOP_FACTOR < m {
            return Self::gallop_intersects(&self.ranges, &other.ranges);
        }
        if m * GALLOP_FACTOR < n {
            return Self::gallop_intersects(&other.ranges, &self.ranges);
        }
        let (mut i, mut j) = (0, 0);
        while i < n && j < m {
            let (s1, e1) = self.ranges[i];
            let (s2, e2) = other.ranges[j];
            if s1 < e2 && s2 < e1 {
                return true;
            }
            if e1 <= e2 {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// For each range of `small`, binary-search the first range of `big`
    /// ending after its start and test that one candidate for overlap.
    fn gallop_intersects(small: &[(u64, u64)], big: &[(u64, u64)]) -> bool {
        for &(s, e) in small {
            let i = big.partition_point(|&(_, be)| be <= s);
            if i < big.len() && big[i].0 < e {
                return true;
            }
        }
        false
    }

    /// Whether every byte of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &RangeSet) -> bool {
        other.covers(&self.ranges)
    }

    /// Whether every byte of `ranges` — sorted, disjoint and coalesced, as
    /// [`RangeSet::ranges`] returns them — is in the set. Because both
    /// sides are canonical, each range must lie inside a *single* range of
    /// the set, so one merge pass decides it.
    pub fn covers(&self, ranges: &[(u64, u64)]) -> bool {
        let mut j = 0usize;
        for &(s, e) in ranges {
            while j < self.ranges.len() && self.ranges[j].1 < e {
                j += 1;
            }
            match self.ranges.get(j) {
                Some(&(os, oe)) if os <= s && e <= oe => {}
                _ => return false,
            }
        }
        true
    }

    /// The intersection with another set.
    pub fn intersection(&self, other: &RangeSet) -> RangeSet {
        let mut out = RangeSet::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (s1, e1) = self.ranges[i];
            let (s2, e2) = other.ranges[j];
            let s = s1.max(s2);
            let e = e1.min(e2);
            if s < e {
                out.insert(s, e);
            }
            if e1 <= e2 {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }

    /// Whether `addr` is covered.
    pub fn contains(&self, addr: u64) -> bool {
        let i = self.ranges.partition_point(|&(_, e)| e <= addr);
        i < self.ranges.len() && self.ranges[i].0 <= addr
    }
}

impl FromIterator<(u64, u64)> for RangeSet {
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(iter: T) -> Self {
        let mut s = RangeSet::new();
        for (a, b) in iter {
            s.insert(a, b);
        }
        s
    }
}

impl Extend<(u64, u64)> for RangeSet {
    fn extend<T: IntoIterator<Item = (u64, u64)>>(&mut self, iter: T) {
        for (a, b) in iter {
            self.insert(a, b);
        }
    }
}

impl fmt::Display for RangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (s, e)) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "[{s:#x}, {e:#x})")?;
        }
        write!(f, "}}")
    }
}

/// The read and write sets of one thread block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TbAccess {
    /// Global-memory bytes the block may read.
    pub reads: RangeSet,
    /// Global-memory bytes the block may write.
    pub writes: RangeSet,
}

/// Result of launch-time analysis for one kernel launch: per-TB access sets
/// plus kernel-level unions, or the conservative "non-static" verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelAccess {
    /// Per-thread-block access sets, indexed by linear block id.
    pub per_tb: Vec<TbAccess>,
    /// Union of all TB read sets.
    pub kernel_reads: RangeSet,
    /// Union of all TB write sets.
    pub kernel_writes: RangeSet,
    /// Set when Algorithm 1 bails out (address derived from a loaded value):
    /// the kernel must be treated as fully dependent on its predecessor.
    pub non_static: bool,
}

impl KernelAccess {
    /// Builds the kernel-level unions from per-TB sets.
    ///
    /// The unions are built by one pre-sized sort-and-coalesce pass over
    /// all per-TB ranges ([`RangeSet::from_unsorted`]) rather than
    /// per-range insertion, which is quadratic when thousands of TB
    /// ranges land in a large union.
    pub fn from_per_tb(per_tb: Vec<TbAccess>, non_static: bool) -> Self {
        let n_reads: usize = per_tb.iter().map(|t| t.reads.len()).sum();
        let n_writes: usize = per_tb.iter().map(|t| t.writes.len()).sum();
        let mut all_reads = Vec::with_capacity(n_reads);
        let mut all_writes = Vec::with_capacity(n_writes);
        for tb in &per_tb {
            all_reads.extend_from_slice(tb.reads.ranges());
            all_writes.extend_from_slice(tb.writes.ranges());
        }
        KernelAccess {
            per_tb,
            kernel_reads: RangeSet::from_unsorted(all_reads),
            kernel_writes: RangeSet::from_unsorted(all_writes),
            non_static,
        }
    }

    /// Number of thread blocks analyzed.
    pub fn num_blocks(&self) -> usize {
        self.per_tb.len()
    }
}

/// Aligned 4-byte words one page of an [`AccessLog`] covers: 64 bitmap
/// words of 64 bits.
const PAGE_WORDS: u64 = 64 * 64;

/// One page of a [`WordBits`].
struct Page {
    /// Bit `k` of `bits[w]` stands for the page's aligned word `64 w + k`.
    bits: [u64; 64],
    /// Bit `w` is set when `bits[w]` is nonzero.
    nonzero: u64,
}

/// The bytes one kind of access touched over `[lo, lo + len)`: one bit per
/// aligned 4-byte word, in pages allocated on first touch, plus the
/// addresses of unaligned words, which no suite kernel makes.
///
/// A bit per dirty page, and per page a bit per nonzero bitmap word, let
/// one scan in address order visit exactly the set words, so draining
/// yields canonical ranges without a sort (unaligned words, when there
/// are any, are merged in with one).
struct WordBits {
    lo: u64,
    len: u64,
    pages: Vec<Option<Box<Page>>>,
    /// Bit `p % 64` of `dirty[p / 64]` is set when page `p` holds bits.
    dirty: Vec<u64>,
    /// The lowest and highest dirty page since the last drain.
    dirty_span: (usize, usize),
    /// Unaligned words since the last drain, by address.
    unaligned: Vec<u64>,
}

impl WordBits {
    fn new(lo: u64, len: u64) -> Self {
        let pages = (len / 4).div_ceil(PAGE_WORDS) as usize;
        WordBits {
            lo,
            len,
            pages: (0..pages).map(|_| None).collect(),
            dirty: vec![0; pages.div_ceil(64)],
            dirty_span: (usize::MAX, 0),
            unaligned: Vec::new(),
        }
    }

    /// Logs the word at byte `addr`. The interpreter calls this on every
    /// global access, so only an aligned word in an allocated page whose
    /// bitmap word was already nonzero stays on this path.
    #[inline(always)]
    fn insert(&mut self, addr: u64) {
        let off = addr.wrapping_sub(self.lo);
        // An aligned word is mapped when it starts below the last whole
        // word's end.
        if off.is_multiple_of(4) && off < self.len & !3 {
            self.or_bits(off / 4, 1 << (off / 4 % 64));
        } else {
            self.insert_slow(addr);
        }
    }

    /// Logs the 32 aligned words from byte `addr`, a warp's contiguous
    /// access: one or two bitmap-word ORs.
    #[inline(always)]
    fn insert_run(&mut self, addr: u64) {
        let off = addr.wrapping_sub(self.lo);
        if !off.is_multiple_of(4) || off >= self.len || self.len - off < 128 {
            for w in 0..32 {
                self.insert(addr + 4 * w);
            }
            return;
        }
        let word = off / 4;
        let here = (64 - word % 64).min(32);
        self.or_bits(word, (u64::MAX >> (64 - here)) << (word % 64));
        if here < 32 {
            self.or_bits(word + here, u64::MAX >> (32 + here));
        }
    }

    /// ORs `mask` into the bitmap word holding aligned word `word`; a new
    /// page or a bitmap word that was zero takes a cold call.
    #[inline(always)]
    fn or_bits(&mut self, word: u64, mask: u64) {
        if let Some(Some(page)) = self.pages.get_mut((word / PAGE_WORDS) as usize) {
            let bits = &mut page.bits[(word / 64 % 64) as usize];
            let was = *bits;
            *bits = was | mask;
            if was != 0 {
                return;
            }
        }
        self.or_bits_slow(word, mask);
    }

    /// [`WordBits::insert`] off its fast path: an unaligned word, or one
    /// not inside `[lo, lo + len)`, which is unmapped, fails its access and
    /// is not logged.
    #[cold]
    #[inline(never)]
    fn insert_slow(&mut self, addr: u64) {
        let off = addr.wrapping_sub(self.lo);
        if off >= self.len || self.len - off < 4 {
            return;
        }
        self.unaligned.push(addr);
    }

    /// [`WordBits::or_bits`] in full: allocates the page, and marks the
    /// bitmap word nonzero and the page dirty.
    #[cold]
    #[inline(never)]
    fn or_bits_slow(&mut self, word: u64, mask: u64) {
        let p = (word / PAGE_WORDS) as usize;
        let page = self.pages[p].get_or_insert_with(|| {
            Box::new(Page {
                bits: [0; 64],
                nonzero: 0,
            })
        });
        let w = (word / 64 % 64) as usize;
        page.bits[w] |= mask;
        if page.nonzero == 0 {
            self.dirty[p / 64] |= 1 << (p % 64);
            self.dirty_span = (self.dirty_span.0.min(p), self.dirty_span.1.max(p));
        }
        page.nonzero |= 1 << w;
    }

    /// Whether nothing was logged since the last drain.
    fn is_empty(&self) -> bool {
        self.dirty_span.0 == usize::MAX && self.unaligned.is_empty()
    }

    /// Appends the logged bytes to `out` as canonical ranges, never merging
    /// into what `out` held before, and clears the log.
    fn drain(&mut self, out: &mut Vec<(u64, u64)>) {
        let first = out.len();
        let (lowest, highest) = std::mem::replace(&mut self.dirty_span, (usize::MAX, 0));
        for d in lowest / 64..=highest / 64 {
            let mut dirty = std::mem::take(&mut self.dirty[d]);
            while dirty != 0 {
                let p = 64 * d + dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                let Some(page) = self.pages[p].as_mut() else {
                    continue;
                };
                let mut nonzero = std::mem::take(&mut page.nonzero);
                while nonzero != 0 {
                    let w = nonzero.trailing_zeros() as usize;
                    nonzero &= nonzero - 1;
                    let mut bits = std::mem::take(&mut page.bits[w]);
                    let base = self.lo + 4 * (PAGE_WORDS * p as u64 + 64 * w as u64);
                    while bits != 0 {
                        let at = bits.trailing_zeros();
                        let run = (bits >> at).trailing_ones();
                        let s = base + 4 * u64::from(at);
                        let e = s + 4 * u64::from(run);
                        match out[first..].last_mut() {
                            Some(last) if last.1 == s => last.1 = e,
                            _ => out.push((s, e)),
                        }
                        bits &= !((u64::MAX >> (64 - run)) << at);
                    }
                }
            }
        }
        if !self.unaligned.is_empty() {
            out.extend(self.unaligned.drain(..).map(|a| (a, a + 4)));
            let mut block = out.split_off(first);
            block.sort_unstable();
            for (s, e) in block {
                match out[first..].last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => out.push((s, e)),
                }
            }
        }
    }
}

/// Read words, then written words.
struct Bits([WordBits; 2]);

impl Sink for Bits {
    #[inline(always)]
    fn on_warp_access(&mut self, addr: u64, store: bool) {
        self.0[usize::from(store)].insert_run(addr);
    }

    #[inline(always)]
    fn on_lane_access(&mut self, _w: usize, _l: usize, _pc: usize, addr: u64, store: bool) {
        self.0[usize::from(store)].insert(addr);
    }

    fn discard(&mut self) {
        let mut dropped = Vec::new();
        for bits in &mut self.0 {
            bits.drain(&mut dropped);
        }
    }
}

/// An exact log of the bytes each thread block reads and writes, apart,
/// over an address space's allocations. The soundness guard's serialized
/// pass and replay log every block through it, and the race detector
/// builds its access sets from it.
pub struct AccessLog {
    bits: Bits,
    /// The engine [`AccessLog::execute_block`] runs blocks on.
    warps: Lockstep,
}

impl AccessLog {
    /// An empty log over the span of `space`'s allocations.
    pub fn new(space: &AddressSpace) -> Self {
        let allocs = space.allocs();
        let lo = allocs.first().map_or(0, |a| a.base);
        let hi = allocs.last().map_or(0, |a| a.end());
        AccessLog {
            bits: Bits([WordBits::new(lo, hi - lo), WordBits::new(lo, hi - lo)]),
            warps: Lockstep::default(),
        }
    }

    /// Appends the block logged since the last call to `ranges`: its
    /// canonical reads, then its canonical writes, pushing the end of each
    /// to `bounds`, and clears the log.
    pub fn finish_block(&mut self, ranges: &mut Vec<(u64, u64)>, bounds: &mut Vec<usize>) {
        for bits in &mut self.bits.0 {
            bits.drain(ranges);
            bounds.push(ranges.len());
        }
    }

    /// Runs block `tb` of `program` on the warp-lockstep engine (see
    /// [`Lockstep`]), logging its global accesses: memory, statistics,
    /// errors and the logged words are those of
    /// [`Program::execute_block`]. The engine is instantiated for the log
    /// here, in `bm-ptx`, next to the plain pass's. A log holding an
    /// unfinished block runs the block one lane at a time, since a
    /// fallback drops everything logged and a one-lane run never falls
    /// back.
    ///
    /// # Errors
    ///
    /// As [`Program::execute_block`].
    pub fn execute_block(
        &mut self,
        program: &Program,
        tb: u32,
        mem: &mut GlobalMem,
        max_steps: u64,
    ) -> Result<ExecStats, ExecError> {
        if !self.bits.0.iter().all(WordBits::is_empty) {
            return program.serial(&mut self.warps, &mut self.bits, tb, mem, max_steps, None);
        }
        program.lockstep(&mut self.warps, &mut self.bits, tb, mem, max_steps)
    }

    /// Blocks [`AccessLog::execute_block`] reran one lane at a time.
    pub fn fallback_blocks(&self) -> u64 {
        self.warps.fallback_blocks()
    }

    /// Bitmap pages allocated so far, over both kinds.
    #[cfg(test)]
    fn pages(&self) -> usize {
        self.bits
            .0
            .iter()
            .map(|b| b.pages.iter().flatten().count())
            .sum()
    }
}

impl ExecObserver for AccessLog {
    #[inline(always)]
    fn on_global_access(&mut self, _t: ThreadId, _i: usize, addr: u64, store: bool) {
        self.bits.0[usize::from(store)].insert(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_merges_overlaps_and_touching() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        assert_eq!(s.len(), 2);
        s.insert(20, 30); // touches both
        assert_eq!(s.ranges(), &[(10, 40)]);
        s.insert(5, 12);
        assert_eq!(s.ranges(), &[(5, 40)]);
        s.insert(100, 100); // empty no-op
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn insert_keeps_disjoint_sorted() {
        let mut s = RangeSet::new();
        for (a, b) in [(50u64, 60u64), (10, 20), (30, 40), (0, 5)] {
            s.insert(a, b);
        }
        assert_eq!(s.ranges(), &[(0, 5), (10, 20), (30, 40), (50, 60)]);
        assert_eq!(s.total_bytes(), 5 + 10 + 10 + 10);
        assert_eq!(s.bounds(), Some((0, 60)));
    }

    #[test]
    fn intersection_and_intersects_agree() {
        let a: RangeSet = [(0u64, 10u64), (20, 30)].into_iter().collect();
        let b: RangeSet = [(5u64, 25u64)].into_iter().collect();
        assert!(a.intersects(&b));
        let i = a.intersection(&b);
        assert_eq!(i.ranges(), &[(5, 10), (20, 25)]);
        let c: RangeSet = [(10u64, 20u64)].into_iter().collect();
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_empty());
    }

    #[test]
    fn contains_points() {
        let s: RangeSet = [(10u64, 20u64), (30, 40)].into_iter().collect();
        assert!(s.contains(10));
        assert!(s.contains(19));
        assert!(!s.contains(20));
        assert!(!s.contains(25));
        assert!(s.contains(39));
        assert!(!s.contains(9));
    }

    #[test]
    fn from_unsorted_matches_insertion() {
        let cases: Vec<Vec<(u64, u64)>> = vec![
            vec![],
            vec![(5, 5)],
            vec![(10, 20), (30, 40), (20, 30)],
            vec![(50, 60), (10, 20), (0, 5), (12, 55), (60, 60)],
            vec![(0, 1), (2, 3), (4, 5), (1, 2)],
        ];
        for ranges in cases {
            let mut by_insert = RangeSet::new();
            for &(s, e) in &ranges {
                by_insert.insert(s, e);
            }
            let bulk = RangeSet::from_unsorted(ranges.clone());
            assert_eq!(bulk, by_insert, "for {ranges:?}");
        }
    }

    #[test]
    fn gallop_intersects_matches_sweep() {
        // A large set vs a small one exercises the galloping path in both
        // argument orders; a same-size pair exercises the sweep.
        let big: RangeSet = (0..200u64).map(|i| (10 * i, 10 * i + 4)).collect();
        for (small_ranges, want) in [
            (vec![(1995u64, 1999u64)], false), // gap between [1990,1994) and [2000,..)
            (vec![(1992, 1996)], true),
            (vec![(5, 8), (7000, 7001)], false),
            (vec![(5, 11)], true),
        ] {
            let small: RangeSet = small_ranges.iter().copied().collect();
            assert_eq!(small.intersects(&big), want, "{small_ranges:?}");
            assert_eq!(big.intersects(&small), want, "{small_ranges:?} flipped");
        }
        let other: RangeSet = (0..200u64).map(|i| (10 * i + 4, 10 * i + 10)).collect();
        assert!(!big.intersects(&other));
        assert!(big.intersects(&RangeSet::single(0, 1)));
        assert!(!big.intersects(&RangeSet::new()));
    }

    #[test]
    fn subset_relation() {
        let a: RangeSet = [(10u64, 20u64), (30, 40)].into_iter().collect();
        let hull: RangeSet = [(0u64, 50u64)].into_iter().collect();
        assert!(a.is_subset_of(&hull));
        assert!(a.is_subset_of(&a));
        assert!(!hull.is_subset_of(&a));
        assert!(RangeSet::new().is_subset_of(&a));
        assert!(!RangeSet::single(15, 35).is_subset_of(&a), "gap 20..30");
        assert!(!RangeSet::single(39, 41).is_subset_of(&a));
        let exact: RangeSet = [(10u64, 20u64)].into_iter().collect();
        assert!(exact.is_subset_of(&a));
        assert!(a.covers(&[(12, 18), (30, 40)]));
        assert!(a.covers(&[]));
        assert!(!a.covers(&[(18, 22)]));
    }

    #[test]
    fn kernel_access_unions() {
        let per_tb = vec![
            TbAccess {
                reads: RangeSet::single(0, 8),
                writes: RangeSet::single(100, 108),
            },
            TbAccess {
                reads: RangeSet::single(8, 16),
                writes: RangeSet::single(108, 116),
            },
        ];
        let ka = KernelAccess::from_per_tb(per_tb, false);
        assert_eq!(ka.kernel_reads.ranges(), &[(0, 16)]);
        assert_eq!(ka.kernel_writes.ranges(), &[(100, 116)]);
        assert_eq!(ka.num_blocks(), 2);
        assert!(!ka.non_static);
    }

    #[test]
    fn an_unfinished_log_runs_the_next_block_one_lane_at_a_time() {
        use crate::interp::{Program, MAX_STEPS_PER_THREAD};
        use crate::kernel::{ArgValue, Dim3, Launch};
        use std::sync::Arc;
        // Each block works in its own 256 bytes of `A`. In block 0 every
        // lane stores its own word; in block 1 every lane stores word 0,
        // which lane 0 then loads. A warp loads it after the higher lanes'
        // stores, which breaks the lane-order rule.
        let src = ".entry k(.param .u64 A) {
            ld.param.u64 %rd1, [A];
            mov.u32 %r1, %tid.x;
            mov.u32 %r2, %ctaid.x;
            mul.wide.u32 %rd2, %r2, 256;
            add.u64 %rd1, %rd1, %rd2;
            setp.eq.u32 %p1, %r2, 0;
            selp.u32 %r3, %r1, 0, %p1;
            mul.wide.u32 %rd3, %r3, 4;
            add.u64 %rd4, %rd1, %rd3;
            st.global.u32 [%rd4], %r1;
            mul.wide.u32 %rd5, %r1, 4;
            add.u64 %rd6, %rd1, %rd5;
            ld.global.u32 %r4, [%rd6];
            st.global.u32 [%rd6+128], %r4;
            ret;
        }";
        let kernel = Arc::new(crate::parser::parse_kernel(src).unwrap());
        let mut space = AddressSpace::new();
        let a = space.alloc(512);
        let launch = Launch::new(kernel, Dim3::x(2), Dim3::x(32), vec![ArgValue::Ptr(a.base)]);
        let program = Program::new(&launch);
        let mem = GlobalMem::for_space(&space);
        // Each block's thread-serial ranges, finished apart.
        let (mut want_mem, mut want) = (mem.clone(), [RangeSet::new(), RangeSet::new()]);
        let mut serial = AccessLog::new(&space);
        for tb in 0..2 {
            program
                .execute_block(tb, &mut want_mem, &mut serial, MAX_STEPS_PER_THREAD)
                .unwrap();
            let (mut ranges, mut bounds) = (Vec::new(), Vec::new());
            serial.finish_block(&mut ranges, &mut bounds);
            want[0].extend(ranges[..bounds[0]].iter().copied());
            want[1].extend(ranges[bounds[0]..].iter().copied());
        }
        let mut alone = AccessLog::new(&space);
        alone
            .execute_block(&program, 1, &mut mem.clone(), MAX_STEPS_PER_THREAD)
            .unwrap();
        assert_eq!(alone.fallback_blocks(), 1, "block 1 breaks the lane order");
        // Both blocks logged before one finish.
        let (mut log, mut got_mem) = (AccessLog::new(&space), mem.clone());
        for tb in 0..2 {
            log.execute_block(&program, tb, &mut got_mem, MAX_STEPS_PER_THREAD)
                .unwrap();
        }
        let (mut ranges, mut bounds) = (Vec::new(), Vec::new());
        log.finish_block(&mut ranges, &mut bounds);
        assert_eq!(ranges[..bounds[0]], *want[0].ranges());
        assert_eq!(ranges[bounds[0]..], *want[1].ranges());
        assert_eq!(got_mem.fingerprint(), want_mem.fingerprint());
        assert_eq!(log.fallback_blocks(), 0);
    }

    #[test]
    fn log_pages_follow_the_bytes_touched() {
        let mut space = crate::mem::AddressSpace::new();
        let a = space.alloc(256 << 20);
        let mut log = AccessLog::new(&space);
        assert_eq!(log.pages(), 0);
        let t = ThreadId { tb: 0, tid: 0 };
        // Two words in the first page, an unaligned word, which takes no
        // page, and the last word.
        let reads = [a.base + 4, a.base, a.base + (100 << 20) + 62, a.end() - 4];
        for &w in &reads {
            log.on_global_access(t, 0, w, false);
        }
        log.on_global_access(t, 0, a.base + (200 << 20), true);
        assert_eq!(log.pages(), 3);
        let (mut ranges, mut bounds) = (Vec::new(), Vec::new());
        log.finish_block(&mut ranges, &mut bounds);
        assert_eq!(
            ranges,
            [
                (a.base, a.base + 8),
                (a.base + (100 << 20) + 62, a.base + (100 << 20) + 66),
                (a.end() - 4, a.end()),
                (a.base + (200 << 20), a.base + (200 << 20) + 4),
            ]
        );
        assert_eq!(bounds, [3, 4]);
        // A drained log is empty, and touching the same pages again
        // allocates nothing.
        for &w in &reads {
            log.on_global_access(t, 0, w, false);
        }
        assert_eq!(log.pages(), 3);
        log.finish_block(&mut ranges, &mut bounds);
        assert_eq!(ranges[4..], ranges[..3]);
        assert_eq!(bounds, [3, 4, 7, 7]);
    }
}
