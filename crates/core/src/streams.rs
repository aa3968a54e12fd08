//! CUDA Streams execution model (extension).
//!
//! §III-C notes that BlockMaestro generalizes to stream-based applications
//! and §IV-B observes that BICG/MVT's gains are "reflective of CUDA
//! Streams benefits", while *dependent* kernels cannot overlap under
//! streams. This module makes that comparison concrete: it executes an
//! application under classic multi-stream semantics — kernels in the same
//! stream serialize (with full launch overhead), kernels in different
//! streams may overlap, and cross-stream data dependencies are enforced
//! with kernel-granularity events (`cudaStreamWaitEvent` style).
//!
//! The result is the strongest software-only baseline: everything a
//! programmer could get from streams without BlockMaestro's TB-level
//! hardware resolution.

use crate::jit::JitKernel;
use bm_simt::config::GpuConfig;
use bm_simt::des::{self, DesStats, TbDescriptor, TbKey, TbSource};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Assigns each kernel (by sequence number) to a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamAssignment {
    streams: Vec<u32>,
}

impl StreamAssignment {
    /// Everything on the default stream (fully serialized).
    pub fn single(num_kernels: usize) -> Self {
        StreamAssignment {
            streams: vec![0; num_kernels],
        }
    }

    /// Explicit per-kernel stream ids.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty.
    pub fn new(streams: Vec<u32>) -> Self {
        assert!(!streams.is_empty(), "assignment must cover the kernels");
        StreamAssignment { streams }
    }

    /// Greedy automatic assignment: a kernel joins the stream of the
    /// latest kernel it depends on; fully independent kernels open a new
    /// stream (up to `max_streams`). This is what a careful programmer
    /// does by hand.
    pub fn auto(jit: &[JitKernel], max_streams: u32) -> Self {
        let mut streams = Vec::with_capacity(jit.len());
        let mut next_free = 0u32;
        for k in jit.iter() {
            let seq = k.seq as usize;
            // Dependencies: the consecutive graph plus skip gates.
            let mut dep_stream: Option<u32> = None;
            if seq > 0 && !k.graph.is_independent() {
                dep_stream = Some(streams[seq - 1]);
            }
            for &g in &k.skip_gates {
                dep_stream = Some(streams[g as usize]);
            }
            let s = match dep_stream {
                Some(s) => s,
                None => {
                    let s = next_free % max_streams.max(1);
                    next_free += 1;
                    s
                }
            };
            streams.push(s);
        }
        StreamAssignment { streams }
    }

    /// Stream of kernel `seq`.
    pub fn stream_of(&self, seq: usize) -> u32 {
        self.streams[seq]
    }

    /// Number of distinct streams used.
    pub fn num_streams(&self) -> usize {
        let mut s: Vec<u32> = self.streams.clone();
        s.sort_unstable();
        s.dedup();
        s.len()
    }
}

struct StreamSource<'a> {
    jit: &'a [JitKernel],
    assignment: &'a StreamAssignment,
    /// Kernels, in order, per stream.
    stream_queues: Vec<VecDeque<usize>>,
    /// Cross-stream waits: kernel -> kernels that must fully complete.
    waits: Vec<Vec<usize>>,
    completed: Vec<bool>,
    done_tbs: Vec<u32>,
    arrival: Vec<Option<u64>>,
    ready: Vec<VecDeque<u32>>,
    pending: BinaryHeap<Reverse<(u64, usize)>>,
    launch_cycles: u64,
    outstanding: u64,
}

impl<'a> StreamSource<'a> {
    fn new(cfg: &GpuConfig, jit: &'a [JitKernel], assignment: &'a StreamAssignment) -> Self {
        let nstreams = jit
            .iter()
            .map(|k| assignment.stream_of(k.seq as usize) as usize + 1)
            .max()
            .unwrap_or(1);
        let mut stream_queues = vec![VecDeque::new(); nstreams];
        let mut waits = vec![Vec::new(); jit.len()];
        for k in jit {
            let seq = k.seq as usize;
            let s = assignment.stream_of(seq) as usize;
            stream_queues[s].push_back(seq);
            // Cross-stream data deps become stream-wait events.
            if seq > 0 && !k.graph.is_independent() {
                let p = seq - 1;
                if assignment.stream_of(p) != assignment.stream_of(seq) {
                    waits[seq].push(p);
                }
            }
            for &g in &k.skip_gates {
                if assignment.stream_of(g as usize) != assignment.stream_of(seq) {
                    waits[seq].push(g as usize);
                }
            }
        }
        let mut src = StreamSource {
            jit,
            assignment,
            stream_queues,
            waits,
            completed: vec![false; jit.len()],
            done_tbs: vec![0; jit.len()],
            arrival: vec![None; jit.len()],
            ready: jit.iter().map(|_| VecDeque::new()).collect(),
            pending: BinaryHeap::new(),
            launch_cycles: cfg.kernel_launch_cycles,
            outstanding: jit.iter().map(|k| k.profile.n_tbs as u64).sum(),
        };
        src.launch_stream_heads(0);
        src
    }

    /// Each stream launches its head kernel when the head's cross-stream
    /// waits are satisfied and the previous kernel in the stream is done.
    fn launch_stream_heads(&mut self, now: u64) {
        for q in &mut self.stream_queues {
            if let Some(&seq) = q.front() {
                let waits_ok = self.waits[seq].iter().all(|&w| self.completed[w]);
                if waits_ok && self.arrival[seq].is_none() {
                    self.pending.push(Reverse((now + self.launch_cycles, seq)));
                    self.arrival[seq] = Some(u64::MAX); // issued marker
                }
            }
        }
    }

    fn kernel_complete(&mut self, seq: usize, now: u64) {
        self.completed[seq] = true;
        let s = self.assignment.stream_of(seq) as usize;
        debug_assert_eq!(self.stream_queues[s].front(), Some(&seq));
        self.stream_queues[s].pop_front();
        self.launch_stream_heads(now);
    }
}

impl TbSource for StreamSource<'_> {
    fn pop_ready(&mut self, _now: u64, fits: &dyn Fn(u32, u32) -> bool) -> Option<TbDescriptor> {
        for seq in 0..self.jit.len() {
            if self.ready[seq].is_empty() {
                continue;
            }
            let p = &self.jit[seq].profile;
            if !fits(p.threads, p.shared_bytes) {
                continue;
            }
            let tb = self.ready[seq].pop_front().expect("non-empty");
            return Some(TbDescriptor {
                key: TbKey {
                    kernel_seq: seq as u32,
                    tb,
                },
                threads: p.threads,
                shared_bytes: p.shared_bytes,
                duration: p.duration,
            });
        }
        None
    }

    fn on_tb_complete(&mut self, key: TbKey, now: u64) {
        let seq = key.kernel_seq as usize;
        self.done_tbs[seq] += 1;
        self.outstanding -= 1;
        if self.done_tbs[seq] == self.jit[seq].profile.n_tbs {
            self.kernel_complete(seq, now);
        }
    }

    fn next_event_at(&self, _now: u64) -> Option<u64> {
        self.pending.peek().map(|Reverse((t, _))| *t)
    }

    fn on_time_advance(&mut self, now: u64) {
        while let Some(Reverse((t, seq))) = self.pending.peek().copied() {
            if t > now {
                break;
            }
            self.pending.pop();
            self.arrival[seq] = Some(t);
            for tb in 0..self.jit[seq].profile.n_tbs {
                self.ready[seq].push_back(tb);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.outstanding == 0
    }
}

/// Executes the analyzed application under multi-stream semantics.
pub fn run_streams(cfg: &GpuConfig, jit: &[JitKernel], assignment: &StreamAssignment) -> DesStats {
    let mut src = StreamSource::new(cfg, jit, assignment);
    des::run(cfg, &mut src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jit::jit_analyze_app;
    use bm_depgraph::HazardMode;
    use bm_workloads::{bicg, hotspot, Scale};

    #[test]
    fn auto_assignment_splits_independent_kernels() {
        let cfg = GpuConfig::titan_x_pascal();
        let app = bicg::build(Scale::Small);
        let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        let a = StreamAssignment::auto(&jit, 4);
        assert_eq!(a.num_streams(), 2, "BICG's kernels go to separate streams");
    }

    #[test]
    fn streams_overlap_independent_kernels_only() {
        let cfg = GpuConfig::titan_x_pascal();
        // BICG (independent): two streams beat one.
        let app = bicg::build(Scale::Small);
        let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        let single = run_streams(&cfg, &jit, &StreamAssignment::single(jit.len()));
        let multi = run_streams(&cfg, &jit, &StreamAssignment::auto(&jit, 4));
        assert!(multi.total_cycles < single.total_cycles);
        // Hotspot (a strict chain): streams cannot help.
        let app = hotspot::build(Scale::Small);
        let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        let auto = StreamAssignment::auto(&jit, 4);
        assert_eq!(auto.num_streams(), 1, "a chain stays on one stream");
        let single = run_streams(&cfg, &jit, &StreamAssignment::single(jit.len()));
        let multi = run_streams(&cfg, &jit, &auto);
        assert_eq!(single.total_cycles, multi.total_cycles);
    }

    #[test]
    fn blockmaestro_dominates_streams_on_dependent_chains() {
        use crate::engine::try_run_analyzed;
        use crate::modes::ExecMode;
        let cfg = GpuConfig::titan_x_pascal();
        let app = hotspot::build(Scale::Small);
        let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        let streams = run_streams(&cfg, &jit, &StreamAssignment::auto(&jit, 4));
        let bm =
            try_run_analyzed(&cfg, &app, &jit, ExecMode::ProducerPriority { window: 2 }).unwrap();
        assert!(
            bm.kernel_region_cycles < streams.total_cycles,
            "TB-level resolution must beat stream-level overlap on chains: {} vs {}",
            bm.kernel_region_cycles,
            streams.total_cycles
        );
    }
}
