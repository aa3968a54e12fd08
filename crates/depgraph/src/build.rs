//! Builds bipartite dependency graphs from per-TB read/write sets
//! (the intersection step of Algorithm 1, line 23).

use crate::graph::BipartiteGraph;
use crate::interval_index::IntervalIndex;
use bm_ptx::access::KernelAccess;
use bm_ptx::par::ParallelConfig;

/// Which inter-kernel hazards create dependency edges.
///
/// The paper tracks read-after-write only (§III-B2); `All` additionally
/// tracks WAR and WAW, an extension used by the strictest correctness tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HazardMode {
    /// Read-after-write only (paper default).
    #[default]
    Raw,
    /// RAW + WAR + WAW.
    All,
}

/// Builds the dependency graph between a parent and a child kernel launch.
///
/// A non-static kernel on either side degrades the graph to fully connected
/// — the paper's conservative bail-out — unless the kernels provably share
/// no bytes at all, in which case they are independent.
pub fn build_graph(
    parent: &KernelAccess,
    child: &KernelAccess,
    mode: HazardMode,
) -> BipartiteGraph {
    let np = parent.num_blocks() as u32;
    let nc = child.num_blocks() as u32;
    if parent.non_static || child.non_static {
        return BipartiteGraph::fully_connected(np, nc);
    }
    // Kernel-level screen: if the unions don't intersect there is no edge.
    let raw = child.kernel_reads.intersects(&parent.kernel_writes);
    let (war, waw) = match mode {
        HazardMode::Raw => (false, false),
        HazardMode::All => (
            child.kernel_writes.intersects(&parent.kernel_reads),
            child.kernel_writes.intersects(&parent.kernel_writes),
        ),
    };
    if !raw && !war && !waw {
        return BipartiteGraph::independent(np, nc);
    }
    // Index parent ranges once, query per child TB.
    let mut write_items = Vec::new();
    let mut read_items = Vec::new();
    for (p, acc) in parent.per_tb.iter().enumerate() {
        for &(s, e) in acc.writes.ranges() {
            write_items.push((s, e, p as u32));
        }
        if mode == HazardMode::All {
            for &(s, e) in acc.reads.ranges() {
                read_items.push((s, e, p as u32));
            }
        }
    }
    let writes_idx = IntervalIndex::build(write_items);
    let reads_idx = IntervalIndex::build(read_items);
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); np as usize];
    let mut seen = vec![u32::MAX; np as usize];
    for (c, acc) in child.per_tb.iter().enumerate() {
        let c = c as u32;
        let mut hit = |p: u32| {
            if seen[p as usize] != c {
                seen[p as usize] = c;
                children[p as usize].push(c);
            }
        };
        for &(s, e) in acc.reads.ranges() {
            writes_idx.query(s, e, &mut hit);
        }
        if mode == HazardMode::All {
            for &(s, e) in acc.writes.ranges() {
                writes_idx.query(s, e, &mut hit);
                reads_idx.query(s, e, &mut hit);
            }
        }
    }
    BipartiteGraph::from_children(np, nc, children)
}

/// [`build_graph`] under an explicit edge budget: graphs whose explicit
/// edge count exceeds `max_edges` degrade to the fully-connected barrier
/// encoding. This bounds both the dependency-list storage the hardware
/// would have to stream and the worst-case graph-construction cost on the
/// launch path — the graph-layer rung of the degradation ladder. Returns
/// the (possibly degraded) graph and whether degradation fired.
///
/// The graph does not depend on `_par`: the builder has no fast path to
/// switch. The argument stays for callers that pass one configuration to
/// every analysis phase.
pub fn build_graph_bounded_par(
    parent: &KernelAccess,
    child: &KernelAccess,
    mode: HazardMode,
    max_edges: u64,
    _par: &ParallelConfig,
) -> (BipartiteGraph, bool) {
    let mut g = build_graph(parent, child, mode);
    let over =
        matches!(g.kind(), crate::graph::GraphKind::Explicit(_)) && g.num_edges() > max_edges;
    if over {
        g.degrade_to_fully_connected();
    }
    (g, over)
}

/// Reference O(N·M) builder used to validate [`build_graph`] in tests.
pub fn build_graph_naive(
    parent: &KernelAccess,
    child: &KernelAccess,
    mode: HazardMode,
) -> BipartiteGraph {
    let np = parent.num_blocks() as u32;
    let nc = child.num_blocks() as u32;
    if parent.non_static || child.non_static {
        return BipartiteGraph::fully_connected(np, nc);
    }
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); np as usize];
    for (p, pa) in parent.per_tb.iter().enumerate() {
        for (c, ca) in child.per_tb.iter().enumerate() {
            let dep = ca.reads.intersects(&pa.writes)
                || (mode == HazardMode::All
                    && (ca.writes.intersects(&pa.writes) || ca.writes.intersects(&pa.reads)));
            if dep {
                children[p].push(c as u32);
            }
        }
    }
    BipartiteGraph::from_children(np, nc, children)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_ptx::access::{KernelAccess, RangeSet, TbAccess};
    use bm_testkit::{check_cases, Rng};

    fn ka(per_tb: Vec<TbAccess>, non_static: bool) -> KernelAccess {
        KernelAccess::from_per_tb(per_tb, non_static)
    }

    fn tb(reads: &[(u64, u64)], writes: &[(u64, u64)]) -> TbAccess {
        TbAccess {
            reads: reads.iter().copied().collect(),
            writes: writes.iter().copied().collect(),
        }
    }

    #[test]
    fn one_to_one_chain() {
        // Parent TB i writes [100i, 100i+100); child TB i reads the same.
        let parent = ka(
            (0..4)
                .map(|i| tb(&[], &[(100 * i, 100 * i + 100)]))
                .collect(),
            false,
        );
        let child = ka(
            (0..4)
                .map(|i| tb(&[(100 * i, 100 * i + 100)], &[]))
                .collect(),
            false,
        );
        let g = build_graph(&parent, &child, HazardMode::Raw);
        assert_eq!(g.num_edges(), 4);
        for p in 0..4 {
            assert_eq!(g.children_of(p), vec![p]);
        }
    }

    #[test]
    fn non_static_is_fully_connected() {
        let parent = ka(vec![tb(&[], &[(0, 10)]); 3], true);
        let child = ka(vec![tb(&[(0, 10)], &[]); 5], false);
        let g = build_graph(&parent, &child, HazardMode::Raw);
        assert!(g.is_fully_connected());
        assert_eq!(g.num_edges(), 15);
    }

    #[test]
    fn disjoint_buffers_are_independent() {
        let parent = ka(vec![tb(&[], &[(0, 100)])], false);
        let child = ka(vec![tb(&[(1000, 1100)], &[])], false);
        assert!(build_graph(&parent, &child, HazardMode::Raw).is_independent());
    }

    #[test]
    fn war_only_visible_in_all_mode() {
        // Child writes what parent reads.
        let parent = ka(vec![tb(&[(0, 100)], &[(500, 600)])], false);
        let child = ka(vec![tb(&[], &[(0, 100)])], false);
        assert!(build_graph(&parent, &child, HazardMode::Raw).is_independent());
        let g = build_graph(&parent, &child, HazardMode::All);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn stencil_overlap_produces_window_edges() {
        // Parent TB i writes [64i, 64i+64); child TB i reads [64i-4, 64i+68).
        let parent = ka(
            (0..8).map(|i| tb(&[], &[(64 * i, 64 * i + 64)])).collect(),
            false,
        );
        let child = ka(
            (0..8u64)
                .map(|i| tb(&[(64 * i - (i > 0) as u64 * 4, 64 * i + 68)], &[]))
                .collect(),
            false,
        );
        let g = build_graph(&parent, &child, HazardMode::Raw);
        // Interior child i depends on parents i-1, i, i+1.
        let parents = g.parents_of_children();
        assert_eq!(parents[3], vec![2, 3, 4]);
        assert_eq!(parents[0], vec![0, 1]);
        assert_eq!(parents[7], vec![6, 7]);
    }

    #[test]
    fn fast_matches_naive() {
        // Random access-set pairs: the sweep builder must agree with the
        // O(N·M) reference on every one.
        let gen_ranges = |rng: &mut Rng| -> Vec<Vec<(u64, u64)>> {
            let n_tbs = rng.range_usize(1, 12);
            (0..n_tbs)
                .map(|_| {
                    let n = rng.range_usize(0, 3);
                    (0..n)
                        .map(|_| (rng.range_u64(0, 400), rng.range_u64(1, 60)))
                        .collect()
                })
                .collect()
        };
        check_cases(0xB01D, 256, move |rng| {
            let pranges = gen_ranges(rng);
            let cranges = gen_ranges(rng);
            let mode = *rng.pick(&[HazardMode::Raw, HazardMode::All]);
            // Alternate ranges between reads and writes for variety.
            let mk = |spec: &Vec<Vec<(u64, u64)>>| -> KernelAccess {
                ka(
                    spec.iter()
                        .map(|rs| {
                            let mut reads = RangeSet::new();
                            let mut writes = RangeSet::new();
                            for (i, &(s, l)) in rs.iter().enumerate() {
                                if i % 2 == 0 {
                                    writes.insert(s, s + l);
                                } else {
                                    reads.insert(s, s + l);
                                }
                            }
                            TbAccess { reads, writes }
                        })
                        .collect(),
                    false,
                )
            };
            let parent = mk(&pranges);
            let child = mk(&cranges);
            let fast = build_graph(&parent, &child, mode);
            let naive = build_graph_naive(&parent, &child, mode);
            bm_testkit::prop_ensure!(
                fast == naive,
                "fast {fast:?} != naive {naive:?} for p={pranges:?} c={cranges:?} {mode:?}"
            );
            Ok(())
        });
    }
}
