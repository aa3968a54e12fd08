//! The graceful-degradation ladder.
//!
//! BlockMaestro's launch-time analysis must finish under the ~5 µs launch
//! overhead it is masked by; when it cannot — or when the scheduler buffers
//! saturate — the system must *degrade*, never die. This module defines the
//! per-kernel ladder the JIT pipeline walks down, the fuel budgets that
//! trigger each step, the bounded LRU cache that lets repeated launches
//! skip re-analysis entirely, and the pressure events recorded when
//! admission backpressure shrinks the pre-launch window.
//!
//! The rungs, in order of decreasing precision:
//!
//! 1. [`DegradationRung::Precise`] — per-TB access sets, per-TB bipartite
//!    graph (the paper's full mechanism);
//! 2. [`DegradationRung::Coarse`] — group-level access sets: `ctaid` spans
//!    a block group, yielding pattern-level graphs at a fraction of the
//!    analysis cost;
//! 3. [`DegradationRung::Barrier`] — fully-connected whole-kernel barrier,
//!    bypassing the parent-counter hardware (the paper's conservative
//!    bail-out, also the quarantine target of the soundness guard);
//! 4. [`DegradationRung::PrelaunchOff`] — the kernel is excluded from
//!    pre-launching altogether and admitted only once every predecessor
//!    has retired.
//!
//! Every rung preserves architectural invisibility: degradation only ever
//! *adds* ordering constraints, and the soundness guard replays accepted
//! schedules at every rung, not just full precision.

use crate::jit::LaunchProfile;
use bm_ptx::access::KernelAccess;
use bm_ptx::kernel::{ArgValue, Kernel, Launch};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Fuel and size budgets for one launch-time analysis pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisBudget {
    /// Worklist pops granted to the precise per-TB abstract interpretation
    /// of one kernel (shared across its thread blocks).
    pub absint_fuel: u64,
    /// Worklist pops granted to the coarse retry after the precise pass
    /// runs out of fuel.
    pub coarse_fuel: u64,
    /// Block groups the coarse rung partitions the grid into.
    pub coarse_groups: u32,
    /// Per-thread interpreter steps granted to the representative-TB trace.
    pub trace_steps: u64,
    /// Explicit dependency-graph edges tolerated before the graph degrades
    /// to the fully-connected barrier encoding.
    pub max_graph_edges: u64,
    /// Entries retained by the bounded analysis cache.
    pub cache_capacity: usize,
}

impl Default for AnalysisBudget {
    fn default() -> Self {
        AnalysisBudget {
            // Generous: every evaluation workload analyzes precisely well
            // within these; the budgets exist for adversarial kernels.
            absint_fuel: 1 << 20,
            coarse_fuel: 1 << 20,
            coarse_groups: 8,
            trace_steps: bm_ptx::interp::MAX_STEPS_PER_THREAD,
            max_graph_edges: 1 << 22,
            cache_capacity: 128,
        }
    }
}

impl AnalysisBudget {
    /// A deliberately tiny budget that forces every analysis onto the
    /// barrier rung — used by robustness tests and as a load-shedding
    /// setting.
    pub fn exhausted() -> Self {
        AnalysisBudget {
            absint_fuel: 0,
            coarse_fuel: 0,
            ..AnalysisBudget::default()
        }
    }
}

/// The ladder rung a kernel's analysis landed on, ordered from full
/// precision to pre-launch disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationRung {
    /// Per-TB access sets and graph — no degradation.
    Precise,
    /// Group-level access sets; pattern-level (coarser) graph.
    Coarse,
    /// Fully-connected whole-kernel barrier.
    Barrier,
    /// Barrier semantics *and* excluded from kernel pre-launching.
    PrelaunchOff,
}

impl fmt::Display for DegradationRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradationRung::Precise => "precise",
            DegradationRung::Coarse => "coarse",
            DegradationRung::Barrier => "barrier",
            DegradationRung::PrelaunchOff => "prelaunch-off",
        })
    }
}

/// Why a kernel left the precise rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationReason {
    /// No degradation occurred.
    None,
    /// The precise per-TB analysis ran out of fuel; the coarse group-level
    /// result is in use.
    AnalysisOverBudget,
    /// Both the precise and the coarse analysis ran out of fuel.
    CoarseOverBudget,
    /// The analysis returned the non-static verdict (tainted address or
    /// fixpoint divergence) — the paper's Algorithm 1 bail-out.
    NonStatic,
    /// The dependency graph exceeded the explicit-edge budget.
    GraphOverBudget,
    /// A child degree overflowed the 6-bit parent counters (§IV-C).
    DegreeOverflow,
    /// Tracing the representative thread block exceeded its step budget.
    TraceOverBudget,
    /// Tracing the representative thread block failed outright.
    TraceFailed,
    /// The launch is structurally invalid (bad argument binding); it is
    /// carried as an opaque barrier so the rest of the app still runs.
    InvalidLaunch,
    /// The runtime soundness guard quarantined the kernel after detecting
    /// a violation or hardware fault.
    Quarantined,
    /// The launch-time analysis of this kernel panicked; the panic was
    /// contained and the kernel carries an opaque barrier instead.
    AnalysisPanicked,
    /// A cross-device transfer was dropped or corrupted; the multi-device
    /// run fell back to single-device execution.
    LinkFault,
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradationReason::None => "none",
            DegradationReason::AnalysisOverBudget => "precise analysis over budget",
            DegradationReason::CoarseOverBudget => "coarse analysis over budget",
            DegradationReason::NonStatic => "non-static access pattern",
            DegradationReason::GraphOverBudget => "dependency graph over edge budget",
            DegradationReason::DegreeOverflow => "child degree exceeds 6-bit counter",
            DegradationReason::TraceOverBudget => "representative trace over step budget",
            DegradationReason::TraceFailed => "representative trace failed",
            DegradationReason::InvalidLaunch => "structurally invalid launch",
            DegradationReason::Quarantined => "quarantined by soundness guard",
            DegradationReason::AnalysisPanicked => "analysis worker panicked",
            DegradationReason::LinkFault => "cross-device link fault",
        })
    }
}

/// A kernel's position on the ladder: the rung plus the reason it got
/// there. `worsen` keeps the *lowest* rung seen with its first cause, so a
/// kernel that degrades twice reports the more severe step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degradation {
    /// The rung in effect.
    pub rung: DegradationRung,
    /// What pushed the kernel onto it.
    pub reason: DegradationReason,
    /// The simulation cycle at which the degraded analysis took effect:
    /// the kernel's issue cycle, stamped by the engine when the report is
    /// assembled. Zero until then (analysis runs before simulated time
    /// exists) and zero for non-degraded kernels.
    pub at_cycle: u64,
}

impl Default for Degradation {
    fn default() -> Self {
        Degradation::none()
    }
}

impl Degradation {
    /// Full precision, no degradation.
    pub fn none() -> Self {
        Degradation {
            rung: DegradationRung::Precise,
            reason: DegradationReason::None,
            at_cycle: 0,
        }
    }

    /// Whether any rung below precise is in effect.
    pub fn is_degraded(&self) -> bool {
        self.rung != DegradationRung::Precise
    }

    /// Moves to `rung` for `reason` if it is strictly worse than the
    /// current rung; no-op otherwise.
    pub fn worsen(&mut self, rung: DegradationRung, reason: DegradationReason) {
        if rung > self.rung {
            self.rung = rung;
            self.reason = reason;
        }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_degraded() {
            write!(f, "{} ({})", self.rung, self.reason)
        } else {
            f.write_str("precise")
        }
    }
}

/// Hit/miss/eviction counters of the bounded analysis cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Launches whose analysis was served from the cache.
    pub hits: u64,
    /// Launches analyzed from scratch.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Kernel pairs whose dependency graph was served from the cache.
    pub graph_hits: u64,
    /// Kernel pairs whose dependency graph was built from scratch.
    pub graph_misses: u64,
    /// Graph entries displaced by the capacity bound.
    pub graph_evictions: u64,
}

/// What the cache retains per distinct launch shape: everything the JIT
/// pipeline derives from the launch alone (the graph depends on the
/// *predecessor* too and is rebuilt per position).
#[derive(Debug, Clone)]
pub struct CachedAnalysis {
    /// Per-TB (or per-group) access sets.
    pub access: KernelAccess,
    /// Timing/resource profile from the representative trace.
    pub profile: LaunchProfile,
    /// The ladder rung the analysis landed on.
    pub degradation: Degradation,
}

/// Cache key: kernel body (hashed from its canonical printed form),
/// grid/block dimensions, and the full argument signature — pointer args
/// included, since access sets embed absolute addresses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    body_hash: u64,
    grid: bm_ptx::kernel::Dim3,
    block: bm_ptx::kernel::Dim3,
    /// `(discriminant, bits)` per argument.
    args: Vec<(u8, u64)>,
}

/// Key of one cached dependency graph: the (parent, child) launch pair
/// plus everything else the build depends on — the hazard mode and the
/// edge budget (which decides barrier degradation).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct GraphKey {
    pub(crate) parent: CacheKey,
    pub(crate) child: CacheKey,
    pub(crate) mode: bm_depgraph::HazardMode,
    pub(crate) max_edges: u64,
}

/// A memoized dependency graph together with the degradation flags its
/// construction produced, so replayed kernel pairs (e.g. the iterated
/// kernel sequences of fdtd2d or hotspot) skip graph construction without
/// losing the ladder bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct CachedGraph {
    pub(crate) graph: bm_depgraph::BipartiteGraph,
    /// The explicit edge count exceeded the budget (graph degraded).
    pub(crate) over_budget: bool,
    /// A child degree overflowed the 6-bit counters (graph degraded).
    pub(crate) degree_overflow: bool,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a of the kernel's canonical `Display` form, which round-trips
/// through the parser, so two kernels printing identically are
/// semantically identical.
fn body_hash(kernel: &Kernel) -> u64 {
    fnv1a(kernel.to_string().as_bytes())
}

pub(crate) fn key_of(launch: &Launch) -> CacheKey {
    key_with_body(launch, body_hash(&launch.kernel))
}

/// [`key_of`] for every launch of one analysis run, printing and hashing
/// each kernel body once: launches of one kernel share its `Arc`.
pub(crate) fn keys_of(launches: &[&Launch]) -> Vec<CacheKey> {
    let mut bodies: HashMap<*const Kernel, u64> = HashMap::new();
    launches
        .iter()
        .map(|launch| {
            let hash = *bodies
                .entry(Arc::as_ptr(&launch.kernel))
                .or_insert_with(|| body_hash(&launch.kernel));
            key_with_body(launch, hash)
        })
        .collect()
}

fn key_with_body(launch: &Launch, body_hash: u64) -> CacheKey {
    let args = launch
        .args
        .iter()
        .map(|a| match a {
            ArgValue::U32(v) => (0u8, *v as u64),
            ArgValue::U64(v) => (1u8, *v),
            ArgValue::F32(v) => (2u8, v.to_bits() as u64),
            ArgValue::Ptr(v) => (3u8, *v),
        })
        .collect();
    CacheKey {
        body_hash,
        grid: launch.grid,
        block: launch.block,
        args,
    }
}

impl CacheKey {
    /// The trace-memo key: this key with pointer argument *values* replaced
    /// by their argument position. Launches that differ only in which
    /// buffers they address then share one trace-memo key, which is what
    /// lets the representative-TB trace law amortize across a kernel's
    /// repeated launches. Synthesized traces are still validated
    /// bit-for-bit before the key is trusted, so collapsing pointer
    /// identity is safe: a launch whose trace genuinely depends on the
    /// buffer contents fails validation and pins the key to
    /// interpretation.
    pub(crate) fn for_trace(&self) -> CacheKey {
        let mut key = self.clone();
        for (i, slot) in key.args.iter_mut().enumerate() {
            if slot.0 == 3 {
                slot.1 = i as u64;
            }
        }
        key
    }
}

/// Bounded LRU cache over launch-time analysis results.
///
/// Keyed by (kernel body hash, grid/block dims, argument signature);
/// eviction is least-recently-used and fully deterministic, so cached and
/// uncached runs of the same application produce identical schedules.
#[derive(Debug)]
pub struct AnalysisCache {
    capacity: usize,
    map: HashMap<CacheKey, CachedAnalysis>,
    /// LRU order, least-recent first. Linear scans are fine at the bounded
    /// capacities this cache runs at.
    order: Vec<CacheKey>,
    /// Dependency graphs per (parent, child, mode, edge budget), bounded by
    /// the same capacity with its own LRU order.
    graphs: HashMap<GraphKey, CachedGraph>,
    graph_order: Vec<GraphKey>,
    stats: CacheStats,
}

impl AnalysisCache {
    /// Creates a cache retaining at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        AnalysisCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: Vec::new(),
            graphs: HashMap::new(),
            graph_order: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// A cache sized by `budget.cache_capacity`.
    pub fn for_budget(budget: &AnalysisBudget) -> Self {
        AnalysisCache::new(budget.cache_capacity)
    }

    /// Looks up the analysis for `launch`, refreshing its LRU position.
    pub fn lookup(&mut self, launch: &Launch) -> Option<CachedAnalysis> {
        self.lookup_key(&key_of(launch))
    }

    /// [`AnalysisCache::lookup`] by a precomputed [`key_of`].
    pub(crate) fn lookup_key(&mut self, key: &CacheKey) -> Option<CachedAnalysis> {
        match self.map.get(key) {
            Some(hit) => {
                let hit = hit.clone();
                self.touch(key);
                self.stats.hits += 1;
                Some(hit)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts the analysis result for `launch`, evicting the
    /// least-recently-used entry if the cache is full.
    pub fn insert(&mut self, launch: &Launch, value: CachedAnalysis) {
        self.insert_key(key_of(launch), value);
    }

    /// [`AnalysisCache::insert`] under a precomputed [`key_of`].
    pub(crate) fn insert_key(&mut self, key: CacheKey, value: CachedAnalysis) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push(key);
            while self.map.len() > self.capacity {
                let victim = self.order.remove(0);
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
        } else {
            self.touch(&key);
        }
    }

    fn touch(&mut self, key: &CacheKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }

    /// Looks up the dependency graph for a kernel pair, refreshing its LRU
    /// position.
    pub(crate) fn lookup_graph(&mut self, key: &GraphKey) -> Option<CachedGraph> {
        match self.graphs.get(key) {
            Some(hit) => {
                let hit = hit.clone();
                if let Some(pos) = self.graph_order.iter().position(|k| k == key) {
                    let k = self.graph_order.remove(pos);
                    self.graph_order.push(k);
                }
                self.stats.graph_hits += 1;
                Some(hit)
            }
            None => {
                self.stats.graph_misses += 1;
                None
            }
        }
    }

    /// Inserts a built graph, evicting the least-recently-used pair when
    /// the capacity bound is hit.
    pub(crate) fn insert_graph(&mut self, key: GraphKey, value: CachedGraph) {
        if self.graphs.insert(key.clone(), value).is_none() {
            self.graph_order.push(key);
            while self.graphs.len() > self.capacity {
                let victim = self.graph_order.remove(0);
                self.graphs.remove(&victim);
                self.stats.graph_evictions += 1;
            }
        } else if let Some(pos) = self.graph_order.iter().position(|k| k == &key) {
            let k = self.graph_order.remove(pos);
            self.graph_order.push(k);
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit/miss/eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// One admission-backpressure step: the scheduler observed spill traffic
/// crossing the configured threshold and shrank the pre-launch window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureEvent {
    /// Simulation cycle at which the window shrank.
    pub cycle: u64,
    /// Spill transactions (counter writebacks + dependency-list fetches)
    /// observed so far.
    pub spill_traffic: u64,
    /// Window before the step.
    pub window_before: u32,
    /// Window after the step.
    pub window_after: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_ptx::kernel::{Dim3, Launch};
    use bm_ptx::parser::parse_kernel;
    use std::sync::Arc;

    fn launch(ptr: u64, grid: u32) -> Launch {
        let k = Arc::new(
            parse_kernel(
                ".entry w(.param .u64 A) {
                   ld.param.u64 %rd1, [A];
                   mov.u32 %r1, %tid.x;
                   mad.wide.u32 %rd2, %r1, 4, %rd1;
                   st.global.f32 [%rd2], 0f00000000;
                   ret;
                 }",
            )
            .unwrap(),
        );
        Launch::new(k, Dim3::x(grid), Dim3::x(32), vec![ArgValue::Ptr(ptr)])
    }

    fn dummy(deg: Degradation) -> CachedAnalysis {
        CachedAnalysis {
            access: KernelAccess::from_per_tb(Vec::new(), false),
            profile: LaunchProfile {
                n_tbs: 0,
                threads: 32,
                shared_bytes: 0,
                duration: 1,
                txns_per_tb: 0,
            },
            degradation: deg,
        }
    }

    #[test]
    fn worsen_is_monotone() {
        let mut d = Degradation::none();
        assert!(!d.is_degraded());
        d.worsen(
            DegradationRung::Coarse,
            DegradationReason::AnalysisOverBudget,
        );
        assert_eq!(d.rung, DegradationRung::Coarse);
        // A better rung cannot undo a worse one.
        d.worsen(DegradationRung::Precise, DegradationReason::None);
        assert_eq!(d.rung, DegradationRung::Coarse);
        d.worsen(
            DegradationRung::PrelaunchOff,
            DegradationReason::TraceFailed,
        );
        assert_eq!(d.reason, DegradationReason::TraceFailed);
        assert!(d.to_string().contains("prelaunch-off"));
    }

    #[test]
    fn cache_distinguishes_args_and_dims() {
        let mut cache = AnalysisCache::new(8);
        assert!(cache.lookup(&launch(0x1000, 4)).is_none());
        cache.insert(&launch(0x1000, 4), dummy(Degradation::none()));
        assert!(cache.lookup(&launch(0x1000, 4)).is_some());
        assert!(cache.lookup(&launch(0x2000, 4)).is_none(), "different ptr");
        assert!(cache.lookup(&launch(0x1000, 8)).is_none(), "different grid");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 0));
    }

    #[test]
    fn trace_key_masks_pointer_values_only() {
        let trace_key_of = |l: &Launch| key_of(l).for_trace();
        let a = trace_key_of(&launch(0x1000, 4));
        let b = trace_key_of(&launch(0x2000, 4));
        assert_eq!(a, b, "pointer value must not split trace-memo keys");
        assert_ne!(
            trace_key_of(&launch(0x1000, 4)),
            trace_key_of(&launch(0x1000, 8)),
            "grid dims still distinguish"
        );
        assert_ne!(
            key_of(&launch(0x1000, 4)),
            key_of(&launch(0x2000, 4)),
            "analysis keys keep pointer identity"
        );
    }

    #[test]
    fn run_keys_equal_per_launch_keys() {
        // Two launches share one kernel `Arc`, a third has its own copy of
        // the same body, a fourth another body.
        let other = Arc::new(
            parse_kernel(".entry k(.param .u64 A) { ld.param.u64 %rd1, [A]; ret; }").unwrap(),
        );
        let (a, c) = (launch(0x1000, 4), launch(0x1000, 4));
        let b = Launch::new(
            Arc::clone(&a.kernel),
            Dim3::x(8),
            Dim3::x(32),
            vec![ArgValue::Ptr(0x2000)],
        );
        let d = Launch::new(other, Dim3::x(4), Dim3::x(32), vec![ArgValue::Ptr(0x1000)]);
        let launches = [&a, &b, &c, &d];
        let keys = keys_of(&launches);
        for (launch, key) in launches.iter().zip(&keys) {
            assert_eq!(*key, key_of(launch));
        }
        assert_eq!(keys[0], keys[2], "equal bodies hash equally");
        assert_ne!(keys[0].body_hash, keys[3].body_hash);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut cache = AnalysisCache::new(2);
        cache.insert(&launch(0x1000, 4), dummy(Degradation::none()));
        cache.insert(&launch(0x2000, 4), dummy(Degradation::none()));
        // Touch the first entry so the second becomes the LRU victim.
        assert!(cache.lookup(&launch(0x1000, 4)).is_some());
        cache.insert(&launch(0x3000, 4), dummy(Degradation::none()));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&launch(0x1000, 4)).is_some(), "recently used");
        assert!(cache.lookup(&launch(0x2000, 4)).is_none(), "evicted");
    }
}
