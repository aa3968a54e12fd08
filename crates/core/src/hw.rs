//! Architectural support in the thread-block scheduler (paper §III-D1,
//! Fig. 7): the *dependency list buffer* and *parent counter buffer*, sized
//! per §IV-C (one entry per concurrently-resident TB, 28 × 32 = 896; four
//! child ids per dependency-list entry; 6-bit parent counters).
//!
//! Dependency lists and initial parent counters live in global memory; the
//! buffers cache the entries for actively-executing TBs and count the
//! global-memory traffic they generate (the overhead of Fig. 13).

#![deny(clippy::unwrap_used)]

use bm_simt::des::TbKey;
use bm_trace::{NullTracer, TbId, TraceEvent, Tracer};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

fn tb_id(key: TbKey) -> TbId {
    TbId {
        kernel: key.kernel_seq,
        tb: key.tb,
    }
}

/// The buffers' map hasher: a [`TbKey`]'s two `u32` fields packed into
/// one word, mixed by a folded 128-bit multiply. Every block start and
/// completion looks the buffers up, and the keys come from the
/// simulation itself, so SipHash's flooding resistance buys nothing
/// there. Lookups only: `view` sorts, so no output depends on the order
/// this hasher gives the maps.
#[derive(Default)]
struct TbKeyHasher(u64);

impl Hasher for TbKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 << 32) | u64::from(n);
    }

    fn finish(&self) -> u64 {
        let m = u128::from(self.0) * 0x9e37_79b9_7f4a_7c15;
        (m as u64) ^ ((m >> 64) as u64)
    }
}

/// A map keyed by thread block, hashed with [`TbKeyHasher`].
type TbMap<V> = HashMap<TbKey, V, BuildHasherDefault<TbKeyHasher>>;

/// Number of buffer entries: 28 SMs × 32 resident TBs.
pub const BUFFER_ENTRIES: usize = 896;
/// Child TB ids stored per dependency-list entry (§IV-C).
pub const CHILDREN_PER_ENTRY: usize = 4;
/// Parent-counter width in bits; degrees above `2^6 - 1 = 63` force the
/// fully-connected fallback encoding.
pub const COUNTER_BITS: u32 = 6;
/// Maximum representable parent count.
pub const MAX_COUNTER: u32 = (1 << COUNTER_BITS) - 1;
/// Bytes per global-memory transaction.
const TXN_BYTES: u64 = 128;
/// Bytes per dependency-list entry in global memory
/// (TB id + 4 child ids, 32 bits each).
const DLB_ENTRY_BYTES: u64 = 4 * (1 + CHILDREN_PER_ENTRY as u64);
/// Bytes per parent-counter record in global memory.
const PCB_ENTRY_BYTES: u64 = 4;

/// A hardware-level fault observed by the scheduler buffers.
///
/// These surface when the dependency metadata handed to the hardware is
/// inconsistent with the execution it is tracking — a completed parent
/// decrementing a child that was never initialized, or a counter that was
/// already released. The engine maps them into
/// [`crate::error::EngineError::Hw`] instead of panicking mid-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwError {
    /// A parent completed against a child whose counter is not resident and
    /// for which no refetch value was supplied.
    CounterNotResident {
        /// The child TB whose counter was missing.
        key: TbKey,
    },
    /// A parent decremented a counter that already reached zero — more
    /// parents completed than the recorded degree.
    CounterUnderflow {
        /// The child TB whose counter underflowed.
        key: TbKey,
    },
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::CounterNotResident { key } => {
                write!(
                    f,
                    "parent counter for {key:?} not resident and no refetch value supplied"
                )
            }
            HwError::CounterUnderflow { key } => {
                write!(f, "decrementing zero parent counter for {key:?}")
            }
        }
    }
}

impl std::error::Error for HwError {}

/// Global-memory traffic generated by the scheduler hardware.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwTraffic {
    /// Transactions spent fetching dependency-list entries.
    pub dep_list_fetches: u64,
    /// Transactions spent fetching parent-counter values.
    pub counter_fetches: u64,
    /// Transactions spent writing counter updates back on eviction.
    pub counter_writebacks: u64,
}

impl HwTraffic {
    /// Total overhead transactions.
    pub fn total(&self) -> u64 {
        self.dep_list_fetches + self.counter_fetches + self.counter_writebacks
    }
}

/// Dependency-list buffer: caches the child list of each actively-executing
/// thread block. Entries are allocated when a TB is scheduled (off the
/// critical path) and deallocated when it completes.
#[derive(Debug, Default)]
pub struct DepListBuffer {
    entries: TbMap<Vec<u32>>,
    /// Pattern-encoded graphs derive child ids instead of storing them; an
    /// encoded insert occupies an entry but fetches nothing.
    traffic: HwTraffic,
    high_water: usize,
}

impl DepListBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        DepListBuffer::default()
    }

    /// Buffers the child list for a newly-scheduled TB.
    ///
    /// `encoded` graphs (Table I patterns) derive children on the fly and
    /// cost no fetch traffic; plain lists are fetched from global memory at
    /// one entry per [`CHILDREN_PER_ENTRY`] children, packed into 128 B
    /// transactions.
    ///
    /// # Panics
    ///
    /// Panics if the same TB is inserted twice — the scheduler allocates
    /// exactly one entry per resident TB.
    pub fn insert(&mut self, key: TbKey, children: Vec<u32>, encoded: bool) {
        self.insert_traced(key, children, encoded, 0, &NullTracer);
    }

    /// [`Self::insert`] with a trace sink: emits one
    /// [`TraceEvent::DlbInsert`] stamped with `now`, carrying the fetch
    /// traffic this insert cost. Pure observation — buffer state and
    /// traffic counters evolve exactly as with [`Self::insert`].
    ///
    /// # Panics
    ///
    /// As [`Self::insert`].
    pub fn insert_traced<T: Tracer>(
        &mut self,
        key: TbKey,
        children: Vec<u32>,
        encoded: bool,
        now: u64,
        tracer: &T,
    ) {
        let mut fetch_txns = 0u64;
        if !encoded && !children.is_empty() {
            let entries = children.len().div_ceil(CHILDREN_PER_ENTRY) as u64;
            let bytes = entries * DLB_ENTRY_BYTES;
            fetch_txns = bytes.div_ceil(TXN_BYTES);
            self.traffic.dep_list_fetches += fetch_txns;
        }
        if T::ENABLED {
            tracer.emit(TraceEvent::DlbInsert {
                cycle: now,
                id: tb_id(key),
                children: children.len() as u32,
                fetch_txns,
                encoded,
            });
        }
        let prev = self.entries.insert(key, children);
        assert!(
            prev.is_none(),
            "dependency-list entry for {key:?} already allocated"
        );
        self.high_water = self.high_water.max(self.entries.len());
    }

    /// Current occupancy (entries in use).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are allocated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes and returns the child list when the TB completes.
    pub fn take(&mut self, key: TbKey) -> Vec<u32> {
        self.entries.remove(&key).unwrap_or_default()
    }

    /// Maximum simultaneous occupancy observed. The engine asserts this
    /// never exceeds [`BUFFER_ENTRIES`] — by construction it cannot, since
    /// at most 896 TBs are resident.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Traffic counters.
    pub fn traffic(&self) -> HwTraffic {
        self.traffic
    }

    /// Checkpoint view: `(entries sorted by key, traffic, high water)`,
    /// borrowing each entry's child list. Sorting gives the snapshot a
    /// canonical byte representation despite the `HashMap` backing store.
    pub fn view(&self) -> (Vec<(TbKey, &[u32])>, HwTraffic, usize) {
        let mut entries: Vec<_> = self.entries.iter().map(|(k, v)| (*k, &v[..])).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        (entries, self.traffic, self.high_water)
    }

    /// Rebuilds a buffer from a checkpoint view.
    pub fn restore(entries: Vec<(TbKey, Vec<u32>)>, traffic: HwTraffic, high_water: usize) -> Self {
        DepListBuffer {
            entries: entries.into_iter().collect(),
            traffic,
            high_water,
        }
    }
}

/// Parent-counter buffer: tracks pending unresolved dependencies of child
/// TBs. Backed by global memory; a bounded number of counters is cached.
#[derive(Debug)]
pub struct ParentCounterBuffer {
    counters: TbMap<u32>,
    /// Insertion order for deterministic FIFO eviction. May hold stale keys
    /// (released or already-evicted entries); eviction skips those lazily.
    fifo: VecDeque<TbKey>,
    capacity: usize,
    traffic: HwTraffic,
    high_water: usize,
}

impl Default for ParentCounterBuffer {
    fn default() -> Self {
        ParentCounterBuffer::new(BUFFER_ENTRIES)
    }
}

impl ParentCounterBuffer {
    /// Creates a buffer caching at most `capacity` counters; overflow spills
    /// to global memory (counted as writeback + refetch traffic).
    pub fn new(capacity: usize) -> Self {
        ParentCounterBuffer {
            counters: TbMap::default(),
            fifo: VecDeque::new(),
            capacity,
            traffic: HwTraffic::default(),
            high_water: 0,
        }
    }

    /// Initializes the counter for a child TB (fetch from global memory on
    /// first touch).
    ///
    /// When the buffer is full, the *oldest* resident entry is spilled back
    /// to global memory (FIFO). Eviction order is a pure function of the
    /// insertion sequence, so two identical runs spill identical victims —
    /// a prerequisite for cycle-reproducible simulation.
    pub fn init(&mut self, key: TbKey, count: u32) {
        self.init_traced(key, count, 0, &NullTracer, false);
    }

    /// [`Self::init`] with a trace sink: emits one
    /// [`TraceEvent::PcbSpill`] per evicted victim and one
    /// [`TraceEvent::PcbInit`] for the fetch itself, stamped with `now`.
    /// `refetch` marks re-seeding of a previously-spilled counter (set by
    /// the decrement-with-refetch path). Pure observation.
    pub fn init_traced<T: Tracer>(
        &mut self,
        key: TbKey,
        count: u32,
        now: u64,
        tracer: &T,
        refetch: bool,
    ) {
        debug_assert!(
            count <= MAX_COUNTER,
            "degree must be clamped by encoding fallback"
        );
        while self.counters.len() >= self.capacity {
            match self.fifo.pop_front() {
                Some(victim) => {
                    if self.counters.remove(&victim).is_some() {
                        self.traffic.counter_writebacks += 1;
                        if T::ENABLED {
                            tracer.emit(TraceEvent::PcbSpill {
                                cycle: now,
                                victim: tb_id(victim),
                            });
                        }
                    }
                    // Stale entry (released or re-initialized): keep popping.
                }
                None => break,
            }
        }
        self.traffic.counter_fetches += PCB_ENTRY_BYTES.div_ceil(TXN_BYTES).max(1);
        if T::ENABLED {
            tracer.emit(TraceEvent::PcbInit {
                cycle: now,
                id: tb_id(key),
                count,
                refetch,
            });
        }
        if self.counters.insert(key, count).is_none() {
            self.fifo.push_back(key);
        }
        self.high_water = self.high_water.max(self.counters.len());
    }

    /// Current occupancy (resident counters).
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no counters are resident.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Decrements a child's counter; returns `true` when it reaches zero
    /// (the child becomes ready). A miss refetches from global memory.
    ///
    /// # Panics
    ///
    /// Panics on decrementing a counter that is already zero — that means
    /// the dependency graph handed to the hardware was inconsistent.
    pub fn decrement(&mut self, key: TbKey) -> bool {
        self.try_decrement(key).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible decrement: returns `Ok(true)` when the counter reaches zero
    /// (the child becomes ready).
    ///
    /// # Errors
    ///
    /// [`HwError::CounterNotResident`] when the counter was spilled (or
    /// never initialized) and no refetch value is available;
    /// [`HwError::CounterUnderflow`] when the counter is already zero.
    pub fn try_decrement(&mut self, key: TbKey) -> Result<bool, HwError> {
        match self.counters.get_mut(&key) {
            None => Err(HwError::CounterNotResident { key }),
            Some(0) => Err(HwError::CounterUnderflow { key }),
            Some(c) => {
                *c -= 1;
                Ok(*c == 0)
            }
        }
    }

    /// Decrement with a refetch fallback: if the counter was spilled, it is
    /// refetched (traffic) and re-seeded from `stored`, which the caller
    /// reads from its in-memory copy of the counter array.
    pub fn decrement_with_refetch(&mut self, key: TbKey, stored: u32) -> bool {
        self.try_decrement_with_refetch(key, stored)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`Self::decrement_with_refetch`].
    ///
    /// # Errors
    ///
    /// [`HwError::CounterUnderflow`] when the (possibly refetched) counter
    /// is already zero.
    pub fn try_decrement_with_refetch(&mut self, key: TbKey, stored: u32) -> Result<bool, HwError> {
        self.try_decrement_with_refetch_traced(key, stored, 0, &NullTracer)
    }

    /// [`Self::try_decrement_with_refetch`] with a trace sink: when the
    /// counter must be refetched, the [`TraceEvent::PcbInit`] is emitted
    /// with its `refetch` flag set (plus any eviction spills), stamped
    /// with `now`.
    ///
    /// # Errors
    ///
    /// As [`Self::try_decrement_with_refetch`].
    pub fn try_decrement_with_refetch_traced<T: Tracer>(
        &mut self,
        key: TbKey,
        stored: u32,
        now: u64,
        tracer: &T,
    ) -> Result<bool, HwError> {
        if !self.counters.contains_key(&key) {
            self.init_traced(key, stored, now, tracer, true);
        }
        self.try_decrement(key)
    }

    /// Deallocates the entry when the child TB is selected for execution.
    pub fn release(&mut self, key: TbKey) {
        self.counters.remove(&key);
    }

    /// Current counter value, if resident.
    pub fn get(&self, key: TbKey) -> Option<u32> {
        self.counters.get(&key).copied()
    }

    /// Traffic counters.
    pub fn traffic(&self) -> HwTraffic {
        self.traffic
    }

    /// Maximum simultaneous occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Checkpoint view: `(counters sorted by key, fifo verbatim as the two
    /// halves of its ring buffer, capacity, traffic, high water)`. Counters
    /// are sorted for canonical bytes; the FIFO is preserved verbatim —
    /// including stale keys — because future eviction victims are a pure
    /// function of that exact sequence.
    #[allow(clippy::type_complexity)]
    pub fn view(
        &self,
    ) -> (
        Vec<(TbKey, u32)>,
        (&[TbKey], &[TbKey]),
        usize,
        HwTraffic,
        usize,
    ) {
        let mut counters: Vec<_> = self.counters.iter().map(|(k, v)| (*k, *v)).collect();
        counters.sort_unstable_by_key(|(k, _)| *k);
        (
            counters,
            self.fifo.as_slices(),
            self.capacity,
            self.traffic,
            self.high_water,
        )
    }

    /// Rebuilds a buffer from a checkpoint view.
    pub fn restore(
        counters: Vec<(TbKey, u32)>,
        fifo: Vec<TbKey>,
        capacity: usize,
        traffic: HwTraffic,
        high_water: usize,
    ) -> Self {
        ParentCounterBuffer {
            counters: counters.into_iter().collect(),
            fifo: fifo.into(),
            capacity,
            traffic,
            high_water,
        }
    }
}

/// Total scheduler storage in bytes (the §IV-C "~22 KB" figure):
/// 896 dependency-list entries × (34-bit TB id + 4 × 32-bit child ids) plus
/// 896 parent-counter entries × (34-bit TB id + 6-bit counter).
pub fn area_bytes() -> u64 {
    let id_bits = 32 + 2; // TB id + 2-bit kernel identifier
    let dlb_bits = BUFFER_ENTRIES as u64 * (id_bits + 32 * CHILDREN_PER_ENTRY as u64);
    let pcb_bits = BUFFER_ENTRIES as u64 * (id_bits + COUNTER_BITS as u64);
    (dlb_bits + pcb_bits).div_ceil(8)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn key(k: u32, tb: u32) -> TbKey {
        TbKey { kernel_seq: k, tb }
    }

    #[test]
    fn area_is_about_22_kb() {
        let kb = area_bytes() as f64 / 1024.0;
        assert!(
            (19.0..25.0).contains(&kb),
            "area {kb:.1} KB should be ~22 KB as in §IV-C"
        );
    }

    #[test]
    fn dep_list_traffic_only_for_plain_lists() {
        let mut dlb = DepListBuffer::new();
        dlb.insert(key(0, 0), vec![1, 2, 3], true); // encoded: free
        assert_eq!(dlb.traffic().dep_list_fetches, 0);
        dlb.insert(key(0, 1), (0..9).collect(), false); // 9 children = 3 entries
        assert!(dlb.traffic().dep_list_fetches >= 1);
        assert_eq!(dlb.take(key(0, 0)), vec![1, 2, 3]);
        assert_eq!(dlb.take(key(0, 0)), Vec::<u32>::new()); // already taken
        assert_eq!(dlb.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_insert_panics() {
        let mut dlb = DepListBuffer::new();
        dlb.insert(key(0, 0), vec![], true);
        dlb.insert(key(0, 0), vec![], true);
    }

    #[test]
    fn counters_reach_zero_exactly_once() {
        let mut pcb = ParentCounterBuffer::default();
        pcb.init(key(1, 0), 2);
        assert!(!pcb.decrement(key(1, 0)));
        assert!(pcb.decrement(key(1, 0)));
        assert_eq!(pcb.get(key(1, 0)), Some(0));
        pcb.release(key(1, 0));
        assert_eq!(pcb.get(key(1, 0)), None);
    }

    #[test]
    #[should_panic(expected = "zero parent counter")]
    fn over_decrement_panics() {
        let mut pcb = ParentCounterBuffer::default();
        pcb.init(key(1, 0), 1);
        pcb.decrement(key(1, 0));
        pcb.decrement(key(1, 0));
    }

    #[test]
    fn spill_and_refetch_counts_traffic() {
        let mut pcb = ParentCounterBuffer::new(2);
        pcb.init(key(1, 0), 1);
        pcb.init(key(1, 1), 1);
        pcb.init(key(1, 2), 1); // evicts someone
        assert_eq!(pcb.traffic().counter_writebacks, 1);
        // Whichever was evicted can still be decremented via refetch.
        for tb in 0..3 {
            let _ = pcb.decrement_with_refetch(key(1, tb), 1);
        }
        assert!(pcb.traffic().counter_fetches >= 4);
        assert!(pcb.high_water() <= 2);
    }

    #[test]
    fn eviction_is_fifo() {
        let mut pcb = ParentCounterBuffer::new(2);
        pcb.init(key(1, 0), 3);
        pcb.init(key(1, 1), 3);
        pcb.init(key(1, 2), 3); // must evict (1,0), the oldest
        assert_eq!(pcb.get(key(1, 0)), None);
        assert_eq!(pcb.get(key(1, 1)), Some(3));
        assert_eq!(pcb.get(key(1, 2)), Some(3));
        pcb.init(key(1, 3), 3); // must evict (1,1)
        assert_eq!(pcb.get(key(1, 1)), None);
        assert_eq!(pcb.get(key(1, 2)), Some(3));
    }

    #[test]
    fn eviction_skips_released_entries() {
        let mut pcb = ParentCounterBuffer::new(2);
        pcb.init(key(1, 0), 1);
        pcb.init(key(1, 1), 1);
        pcb.release(key(1, 0)); // stale FIFO entry for (1,0) remains
        pcb.init(key(1, 2), 1); // fits: released slot reused, no writeback
        assert_eq!(pcb.traffic().counter_writebacks, 0);
        pcb.init(key(1, 3), 1); // evicts (1,1), skipping the stale (1,0)
        assert_eq!(pcb.get(key(1, 1)), None);
        assert_eq!(pcb.get(key(1, 2)), Some(1));
        assert_eq!(pcb.traffic().counter_writebacks, 1);
    }

    #[test]
    fn eviction_sequence_is_reproducible() {
        // Two identical insertion sequences must spill identical victims
        // and generate identical traffic — the HashMap iteration order of
        // the old implementation violated this.
        let run = || {
            let mut pcb = ParentCounterBuffer::new(4);
            for tb in 0..32u32 {
                pcb.init(key(tb % 3, tb), 1 + tb % MAX_COUNTER);
                if tb % 5 == 0 {
                    pcb.release(key(tb % 3, tb));
                }
            }
            let mut resident: Vec<(TbKey, u32)> = (0..32u32)
                .filter_map(|tb| pcb.get(key(tb % 3, tb)).map(|c| (key(tb % 3, tb), c)))
                .collect();
            resident.sort();
            (pcb.traffic(), resident)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spilled_then_decremented_is_typed_not_resident() {
        let mut pcb = ParentCounterBuffer::new(1);
        pcb.init(key(1, 0), 2);
        pcb.init(key(1, 1), 2); // spills (1,0)
        assert_eq!(
            pcb.try_decrement(key(1, 0)),
            Err(HwError::CounterNotResident { key: key(1, 0) })
        );
        // The refetch path recovers it.
        assert_eq!(pcb.try_decrement_with_refetch(key(1, 0), 2), Ok(false));
    }

    #[test]
    fn underflow_is_typed_error() {
        let mut pcb = ParentCounterBuffer::default();
        pcb.init(key(1, 0), 1);
        assert_eq!(pcb.try_decrement(key(1, 0)), Ok(true));
        let err = pcb.try_decrement(key(1, 0)).unwrap_err();
        assert_eq!(err, HwError::CounterUnderflow { key: key(1, 0) });
        assert!(err.to_string().contains("zero parent counter"));
    }
}
