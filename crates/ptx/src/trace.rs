//! Dynamic warp traces: the interface between functional execution and the
//! timing model.
//!
//! A [`TbTrace`] summarizes one thread block's execution as per-warp event
//! streams (compute bursts, coalesced global-memory transactions, barriers).
//! The SM timing model in `bm-simt` replays these streams under GTO warp
//! scheduling to derive thread-block durations and memory-request counts.

use crate::interp::{ExecError, ExecObserver, Program, ThreadId, MAX_STEPS_PER_THREAD};
use crate::isa::{MemSpace, Op};
use crate::kernel::Launch;
use crate::mem::GlobalMem;
use std::collections::HashMap;

/// Size of a coalesced memory transaction in bytes (one cache sector line).
pub const SEGMENT_BYTES: u64 = 128;

/// One event in a warp's dynamic execution stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEv {
    /// `n` back-to-back non-memory instructions.
    Compute(u32),
    /// A global-memory instruction generating `segments` transactions.
    Mem {
        /// Number of 128-byte segments touched by the warp.
        segments: u32,
        /// Whether the access is a store.
        store: bool,
    },
    /// A block-wide barrier.
    Bar,
}

/// Dynamic event stream of one warp.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct WarpTrace {
    /// Events in execution order.
    pub events: Vec<TraceEv>,
}

impl WarpTrace {
    /// Total dynamic instructions represented.
    pub fn dyn_instrs(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEv::Compute(n) => *n as u64,
                TraceEv::Mem { .. } => 1,
                TraceEv::Bar => 1,
            })
            .sum()
    }
}

/// Trace of one thread block: per-warp streams plus summary counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct TbTrace {
    /// Per-warp event streams.
    pub warps: Vec<WarpTrace>,
    /// Dynamic instructions across all threads.
    pub dyn_instrs: u64,
    /// Coalesced global-memory transactions across all warps.
    pub global_transactions: u64,
    /// Raw global accesses (per thread).
    pub global_accesses: u64,
}

#[derive(Default)]
struct TraceObserver {
    // Per-thread event streams: (inst_idx, is_mem, is_store).
    streams: Vec<Vec<(u32, bool, bool)>>,
    // (warp, inst_idx, occurrence) -> segment set for the current access.
    segs: HashMap<(u32, u32, u32), Vec<u64>>,
    // Per-thread per-inst occurrence counters for grouping lanes.
    occ: Vec<HashMap<u32, u32>>,
    accesses: u64,
}

impl TraceObserver {
    fn ensure(&mut self, tid: usize) {
        if self.streams.len() <= tid {
            self.streams.resize_with(tid + 1, Vec::new);
            self.occ.resize_with(tid + 1, HashMap::new);
        }
    }
}

impl ExecObserver for TraceObserver {
    fn on_inst(&mut self, t: ThreadId, inst_idx: usize, op: &Op) {
        let tid = t.tid as usize;
        self.ensure(tid);
        let is_mem = matches!(
            op,
            Op::Ld {
                space: MemSpace::Global,
                ..
            } | Op::St {
                space: MemSpace::Global,
                ..
            }
        );
        let is_store = matches!(
            op,
            Op::St {
                space: MemSpace::Global,
                ..
            }
        );
        let kind_bar = matches!(op, Op::Bar);
        // Encode barriers as inst_idx with is_mem=false; the rebuild pass
        // re-detects them by index, so we only need the ordered stream.
        let _ = kind_bar;
        self.streams[tid].push((inst_idx as u32, is_mem, is_store));
    }

    fn on_global_access(&mut self, t: ThreadId, inst_idx: usize, addr: u64, _store: bool) {
        self.accesses += 1;
        let tid = t.tid as usize;
        self.ensure(tid);
        let occ = self.occ[tid].entry(inst_idx as u32).or_insert(0);
        let key = (t.warp(), inst_idx as u32, *occ);
        *occ += 1;
        let seg = addr / SEGMENT_BYTES;
        let v = self.segs.entry(key).or_default();
        if !v.contains(&seg) {
            v.push(seg);
        }
    }
}

/// Functionally executes block `tb` of `launch`, producing its trace.
///
/// Memory *is* mutated (the trace run is a real execution); callers that
/// only want timing typically pass a scratch [`GlobalMem`].
///
/// # Errors
///
/// Propagates [`ExecError`] from the underlying execution.
pub fn trace_block(launch: &Launch, tb: u32, mem: &mut GlobalMem) -> Result<TbTrace, ExecError> {
    trace_block_limited(launch, tb, mem, MAX_STEPS_PER_THREAD)
}

/// [`trace_block`] under an explicit per-thread step budget. The launch-time
/// profiler uses this so a pathological kernel cannot stall the launch path:
/// exceeding the budget surfaces as [`ExecError::StepLimit`] and the caller
/// degrades to an estimated profile.
///
/// # Errors
///
/// As [`trace_block`], plus [`ExecError::StepLimit`] once `max_steps` is
/// exceeded by any thread.
pub fn trace_block_limited(
    launch: &Launch,
    tb: u32,
    mem: &mut GlobalMem,
    max_steps: u64,
) -> Result<TbTrace, ExecError> {
    let mut obs = TraceObserver::default();
    let stats = Program::new(launch).execute_block(tb, mem, &mut obs, max_steps)?;
    let nthreads = launch.threads_per_block();
    let nwarps = launch.warps_per_block();
    let body = &launch.kernel.body;
    let mut warps = Vec::with_capacity(nwarps as usize);
    let mut total_segments = 0u64;
    for w in 0..nwarps {
        // Representative lane: the one with the longest stream (divergent
        // warps are approximated by their longest path).
        let lanes = (w * 32)..((w * 32 + 32).min(nthreads));
        let rep = lanes
            .clone()
            .filter(|&t| (t as usize) < obs.streams.len())
            .max_by_key(|&t| obs.streams[t as usize].len());
        let mut wt = WarpTrace::default();
        let Some(rep) = rep else {
            warps.push(wt);
            continue;
        };
        let mut occ_count: HashMap<u32, u32> = HashMap::new();
        let mut run = 0u32;
        for &(inst_idx, is_mem, is_store) in &obs.streams[rep as usize] {
            let is_bar = matches!(body[inst_idx as usize].op, Op::Bar);
            if is_mem {
                if run > 0 {
                    wt.events.push(TraceEv::Compute(run));
                    run = 0;
                }
                let occ = occ_count.entry(inst_idx).or_insert(0);
                let key = (w, inst_idx, *occ);
                *occ += 1;
                let segments = obs.segs.get(&key).map_or(1, |v| v.len() as u32);
                total_segments += segments as u64;
                wt.events.push(TraceEv::Mem {
                    segments,
                    store: is_store,
                });
            } else if is_bar {
                if run > 0 {
                    wt.events.push(TraceEv::Compute(run));
                    run = 0;
                }
                wt.events.push(TraceEv::Bar);
            } else {
                run += 1;
            }
        }
        if run > 0 {
            wt.events.push(TraceEv::Compute(run));
        }
        warps.push(wt);
    }
    Ok(TbTrace {
        warps,
        dyn_instrs: stats.instructions,
        global_transactions: total_segments,
        global_accesses: obs.accesses,
    })
}

/// Counters from one [`trace_block_law`] call: how much of the block was
/// synthesized from the lane law versus functionally interpreted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceLawStats {
    /// Full-width warps whose lane law validated (interior lanes synthesized).
    pub law_warps: u32,
    /// Full-width warps that failed validation and were fully interpreted.
    pub rejected_warps: u32,
    /// Partial-width boundary warps, always fully interpreted.
    pub boundary_warps: u32,
    /// Lanes functionally executed.
    pub lanes_interpreted: u64,
    /// Lanes reconstructed from the affine law instead of being executed.
    pub lanes_synthesized: u64,
}

impl TraceLawStats {
    /// Accumulates another call's counters into this one.
    pub fn merge(&mut self, o: &TraceLawStats) {
        self.law_warps += o.law_warps;
        self.rejected_warps += o.rejected_warps;
        self.boundary_warps += o.boundary_warps;
        self.lanes_interpreted += o.lanes_interpreted;
        self.lanes_synthesized += o.lanes_synthesized;
    }
}

/// Anchor and validation lanes of a full-width warp: lanes 0–2 derive the
/// law (two equal deltas), powers of two sample the interior, and lane 31
/// is the always-interpreted boundary that catches guard-masked tails.
const LAW_LANES: [u32; 7] = [0, 1, 2, 4, 8, 16, 31];

/// Whether `launch`'s kernel may use the lane-law fast path at all: the law
/// executes a lane *subset* per warp, which is only faithful when threads
/// cannot communicate within the block — no barriers, no shared memory.
pub fn law_admissible(launch: &Launch) -> bool {
    launch.kernel.shared_bytes == 0
        && !launch.kernel.body.iter().any(|i| {
            matches!(
                i.op,
                Op::Bar
                    | Op::Ld {
                        space: MemSpace::Shared,
                        ..
                    }
                    | Op::St {
                        space: MemSpace::Shared,
                        ..
                    }
            )
        })
}

/// Per-lane observer for one warp: event stream and global-access address
/// stream per lane, indexed by lane id relative to the warp start.
struct LaneObs {
    start: u32,
    streams: Vec<Vec<(u32, bool, bool)>>,
    addrs: Vec<Vec<u64>>,
}

impl LaneObs {
    fn new(start: u32, width: usize) -> Self {
        LaneObs {
            start,
            streams: vec![Vec::new(); width],
            addrs: vec![Vec::new(); width],
        }
    }
}

impl ExecObserver for LaneObs {
    fn on_inst(&mut self, t: ThreadId, inst_idx: usize, op: &Op) {
        let is_mem = matches!(
            op,
            Op::Ld {
                space: MemSpace::Global,
                ..
            } | Op::St {
                space: MemSpace::Global,
                ..
            }
        );
        let is_store = matches!(
            op,
            Op::St {
                space: MemSpace::Global,
                ..
            }
        );
        self.streams[(t.tid - self.start) as usize].push((inst_idx as u32, is_mem, is_store));
    }

    fn on_global_access(&mut self, t: ThreadId, _inst_idx: usize, addr: u64, _store: bool) {
        self.addrs[(t.tid - self.start) as usize].push(addr);
    }
}

/// Rebuilds one warp's trace from explicit per-lane streams with the exact
/// semantics of [`trace_block_limited`]'s rebuild: segment sets are
/// accumulated over lanes in tid order under per-lane occurrence counters,
/// the representative lane is the *last* longest stream, and missing
/// segment sets default to one transaction.
fn rebuild_warp(
    body: &[crate::isa::Inst],
    streams: &[Vec<(u32, bool, bool)>],
    addrs: &[Vec<u64>],
) -> (WarpTrace, u64) {
    let mut segs: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
    for (lane, stream) in streams.iter().enumerate() {
        let mut occ: HashMap<u32, u32> = HashMap::new();
        let mut next_addr = 0usize;
        for &(inst_idx, is_mem, _) in stream {
            if !is_mem {
                continue;
            }
            let o = occ.entry(inst_idx).or_insert(0);
            let key = (inst_idx, *o);
            *o += 1;
            let seg = addrs[lane][next_addr] / SEGMENT_BYTES;
            next_addr += 1;
            let v = segs.entry(key).or_default();
            if !v.contains(&seg) {
                v.push(seg);
            }
        }
    }
    let rep = (0..streams.len()).max_by_key(|&l| streams[l].len());
    let mut wt = WarpTrace::default();
    let mut total_segments = 0u64;
    let Some(rep) = rep else {
        return (wt, 0);
    };
    let mut occ_count: HashMap<u32, u32> = HashMap::new();
    let mut run = 0u32;
    for &(inst_idx, is_mem, is_store) in &streams[rep] {
        let is_bar = matches!(body[inst_idx as usize].op, Op::Bar);
        if is_mem {
            if run > 0 {
                wt.events.push(TraceEv::Compute(run));
                run = 0;
            }
            let occ = occ_count.entry(inst_idx).or_insert(0);
            let key = (inst_idx, *occ);
            *occ += 1;
            let segments = segs.get(&key).map_or(1, |v| v.len() as u32);
            total_segments += segments as u64;
            wt.events.push(TraceEv::Mem {
                segments,
                store: is_store,
            });
        } else if is_bar {
            if run > 0 {
                wt.events.push(TraceEv::Compute(run));
                run = 0;
            }
            wt.events.push(TraceEv::Bar);
        } else {
            run += 1;
        }
    }
    if run > 0 {
        wt.events.push(TraceEv::Compute(run));
    }
    (wt, total_segments)
}

/// Traces one warp of `tb` as a pure function of the incoming memory: the
/// warp's lanes (a 7-lane law subset for full warps, every lane otherwise)
/// execute on a private copy-on-write clone of `base`, so the result does
/// not depend on which other warps or launches ran before it.
fn trace_warp_law(
    program: &Program<'_>,
    tb: u32,
    base: &GlobalMem,
    max_steps: u64,
    w: u32,
) -> Result<(WarpTrace, u64, ExecStatsLite, TraceLawStats), ExecError> {
    let launch = program.launch();
    let nthreads = launch.threads_per_block();
    let lo = w * 32;
    let hi = (lo + 32).min(nthreads);
    let width = (hi - lo) as usize;
    let mut law = TraceLawStats::default();
    if width == 0 {
        return Ok((WarpTrace::default(), 0, ExecStatsLite::default(), law));
    }
    let body = &launch.kernel.body;
    let full = width == 32;
    let tids: Vec<u32> = if full {
        LAW_LANES.iter().map(|&l| lo + l).collect()
    } else {
        (lo..hi).collect()
    };
    let mut mem = base.clone();
    let mut obs = LaneObs::new(lo, width);
    program.execute_subset(tb, &mut mem, &mut obs, max_steps, &tids)?;

    if full {
        let anchor = &obs.streams[0];
        let uniform = LAW_LANES[1..]
            .iter()
            .all(|&l| &obs.streams[l as usize] == anchor);
        let affine = uniform
            && (0..obs.addrs[0].len()).all(|k| {
                let a0 = obs.addrs[0][k];
                let s = obs.addrs[1][k].wrapping_sub(a0);
                LAW_LANES[2..]
                    .iter()
                    .all(|&l| obs.addrs[l as usize][k] == a0.wrapping_add(s.wrapping_mul(l as u64)))
            });
        if affine {
            // Law accepted: all 32 lanes share the anchor's event stream
            // and their k-th access address is `a0 + s·lane`, so the warp
            // trace is computed directly from the anchor stream — O(stream
            // + accesses) with no per-lane stream materialization. Each
            // mem event in one lane's stream is a distinct (inst,
            // occurrence) key of the reference rebuild, and its segment
            // set accumulates the 32 lanes' addresses in lane order —
            // [`affine_segment_count`] reproduces that distinct count
            // exactly. Barriers cannot appear here ([`law_admissible`]
            // excluded them).
            let mut wt = WarpTrace::default();
            let mut total_segments = 0u64;
            let mut run = 0u32;
            let mut k = 0usize;
            for &(_, is_mem, is_store) in anchor {
                if !is_mem {
                    run += 1;
                    continue;
                }
                if run > 0 {
                    wt.events.push(TraceEv::Compute(run));
                    run = 0;
                }
                let a0 = obs.addrs[0][k];
                let s = obs.addrs[1][k].wrapping_sub(a0);
                k += 1;
                let nseg = affine_segment_count(a0, s);
                total_segments += u64::from(nseg);
                wt.events.push(TraceEv::Mem {
                    segments: nseg,
                    store: is_store,
                });
            }
            if run > 0 {
                wt.events.push(TraceEv::Compute(run));
            }
            law.law_warps = 1;
            law.lanes_interpreted = LAW_LANES.len() as u64;
            law.lanes_synthesized = 32 - LAW_LANES.len() as u64;
            let lite = ExecStatsLite {
                instructions: anchor.len() as u64 * 32,
                accesses: obs.addrs[0].len() as u64 * 32,
            };
            return Ok((wt, total_segments, lite, law));
        }
        // Rejected: execute the remaining lanes on a fresh clone and
        // rebuild from all 32 real streams.
        let rest: Vec<u32> = (0..32u32)
            .filter(|l| !LAW_LANES.contains(l))
            .map(|l| lo + l)
            .collect();
        let mut mem2 = base.clone();
        let mut obs2 = LaneObs::new(lo, width);
        program.execute_subset(tb, &mut mem2, &mut obs2, max_steps, &rest)?;
        for l in 0..32u32 {
            if !LAW_LANES.contains(&l) {
                obs.streams[l as usize] = std::mem::take(&mut obs2.streams[l as usize]);
                obs.addrs[l as usize] = std::mem::take(&mut obs2.addrs[l as usize]);
            }
        }
        law.rejected_warps = 1;
        law.lanes_interpreted = 32;
    } else {
        law.boundary_warps = 1;
        law.lanes_interpreted = width as u64;
    }
    let lite = ExecStatsLite {
        instructions: obs.streams.iter().map(|s| s.len() as u64).sum(),
        accesses: obs.addrs.iter().map(|a| a.len() as u64).sum(),
    };
    let (wt, segments) = rebuild_warp(body, &obs.streams, &obs.addrs);
    Ok((wt, segments, lite, law))
}

/// Per-warp instruction/access tallies reconstructed by the law path
/// (equal, under a validated law, to the interpreter's `ExecStats`).
#[derive(Debug, Clone, Copy, Default)]
struct ExecStatsLite {
    instructions: u64,
    accesses: u64,
}

/// Number of distinct `SEGMENT_BYTES` segments touched by the 32 affine
/// lane addresses `a0 + s·l` (`l = 0..32`, wrapping arithmetic) — the
/// closed form of the in-order dedup the reference rebuild performs per
/// access. A monotone non-wrapping stride covers every segment between
/// the first and last lane when `|s| < SEGMENT_BYTES`, and hits 32
/// distinct segments when `|s| >= SEGMENT_BYTES`; strides that wrap the
/// address space fall back to the literal 32-lane dedup.
fn affine_segment_count(a0: u64, s: u64) -> u32 {
    if s == 0 {
        return 1;
    }
    let si = s as i64;
    let mag = si.unsigned_abs();
    if mag <= u64::MAX / 31 {
        // `31·|s|` cannot overflow, so a wrapped endpoint shows up as an
        // inverted comparison against `a0`.
        let a_last = a0.wrapping_add(s.wrapping_mul(31));
        if si > 0 && a_last > a0 {
            return if mag >= SEGMENT_BYTES {
                32
            } else {
                (a_last / SEGMENT_BYTES - a0 / SEGMENT_BYTES + 1) as u32
            };
        }
        if si < 0 && a_last < a0 {
            return if mag >= SEGMENT_BYTES {
                32
            } else {
                (a0 / SEGMENT_BYTES - a_last / SEGMENT_BYTES + 1) as u32
            };
        }
    }
    let mut segset: Vec<u64> = Vec::with_capacity(32);
    for l in 0..32u64 {
        let seg = a0.wrapping_add(s.wrapping_mul(l)) / SEGMENT_BYTES;
        if !segset.contains(&seg) {
            segset.push(seg);
        }
    }
    segset.len() as u32
}

/// The lane-law trace fast path: [`trace_block_limited`] semantics at a
/// fraction of the interpretation cost.
///
/// For every full 32-lane warp, only the anchor lanes (0–2), sampled
/// validation lanes (4, 8, 16) and the boundary lane (31) execute; if all
/// seven observe identical event streams and per-access addresses affine in
/// the lane id, the interior lanes are synthesized from that law. Any
/// mismatch rejects the warp, which is then fully interpreted — so a
/// rejection only costs time, never fidelity. Partial-width boundary warps
/// are always fully interpreted.
///
/// For admissible launches each warp is traced as a pure function of the
/// *incoming* `mem` (on a private copy-on-write clone), and `mem` is not
/// mutated. This differs from [`trace_block_limited`], whose lanes observe
/// earlier lanes' global stores while tracing — a visibility difference
/// that can only reach the trace through loaded *values* steering control
/// flow or addressing, the same residual gap cross-launch trace
/// memoization accepts (see `bm-core`'s jit module).
///
/// Law-*inadmissible* launches (barriers / shared memory) take the exact
/// [`trace_block_limited`] path directly on `mem`, mutating it like the
/// reference pipeline does. Cloning a large memory per launch just to
/// discard it costs O(resident chunks) in `Arc` bumps — for barrier-heavy
/// apps (NW: 255 launches over two ~16 MiB arrays) that clone tax was the
/// whole fast-path deficit.
///
/// # Errors
///
/// As [`trace_block_limited`]; the first failing warp in warp order wins.
pub fn trace_block_law(
    launch: &Launch,
    tb: u32,
    mem: &mut GlobalMem,
    max_steps: u64,
) -> Result<(TbTrace, TraceLawStats), ExecError> {
    if !law_admissible(launch) {
        // Threads may communicate through barriers/shared memory: the lane
        // subset would not be faithful. Interpret every lane directly on
        // `mem` — the reference path, with no per-launch clone.
        let trace = trace_block_limited(launch, tb, mem, max_steps)?;
        return Ok((trace, TraceLawStats::default()));
    }
    let mem = &*mem;
    // Decoded once: every warp's lane subsets run from this program.
    let program = Program::new(launch);
    let nwarps = launch.warps_per_block();
    let mut warps = Vec::with_capacity(nwarps as usize);
    let mut stats = TraceLawStats::default();
    let mut dyn_instrs = 0u64;
    let mut total_segments = 0u64;
    let mut accesses = 0u64;
    for w in 0..nwarps {
        let (wt, segments, lite, law) = trace_warp_law(&program, tb, mem, max_steps, w)?;
        warps.push(wt);
        total_segments += segments;
        dyn_instrs += lite.instructions;
        accesses += lite.accesses;
        stats.merge(&law);
    }
    Ok((
        TbTrace {
            warps,
            dyn_instrs,
            global_transactions: total_segments,
            global_accesses: accesses,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArgValue, Dim3, Launch};
    use crate::mem::AddressSpace;
    use crate::parser::parse_kernel;
    use std::sync::Arc;

    fn copy_kernel() -> Arc<crate::kernel::Kernel> {
        Arc::new(
            parse_kernel(
                r#".entry copy(.param .u64 A, .param .u64 B) {
                     ld.param.u64 %rd1, [A];
                     ld.param.u64 %rd2, [B];
                     mov.u32 %r1, %ctaid.x;
                     mov.u32 %r2, %ntid.x;
                     mov.u32 %r3, %tid.x;
                     mad.lo.u32 %r4, %r1, %r2, %r3;
                     mul.wide.u32 %rd3, %r4, 4;
                     add.u64 %rd4, %rd1, %rd3;
                     ld.global.f32 %f1, [%rd4];
                     add.u64 %rd5, %rd2, %rd3;
                     st.global.f32 [%rd5], %f1;
                     ret;
                   }"#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn coalesced_copy_one_segment_per_warp_access() {
        let mut sp = AddressSpace::new();
        let a = sp.alloc(4 * 128);
        let b = sp.alloc(4 * 128);
        let mut mem = GlobalMem::for_space(&sp);
        let launch = Launch::new(
            copy_kernel(),
            Dim3::x(2),
            Dim3::x(64),
            vec![ArgValue::Ptr(a.base), ArgValue::Ptr(b.base)],
        );
        let tr = trace_block(&launch, 0, &mut mem).unwrap();
        assert_eq!(tr.warps.len(), 2);
        // 32 consecutive f32 = 128 bytes = exactly 1 segment per warp access.
        for w in &tr.warps {
            let mems: Vec<_> = w
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEv::Mem { segments, store } => Some((*segments, *store)),
                    _ => None,
                })
                .collect();
            assert_eq!(mems.len(), 2); // one load + one store
            assert_eq!(mems[0], (1, false));
            assert_eq!(mems[1], (1, true));
        }
        // 2 warps x (1 load + 1 store) = 4 transactions.
        assert_eq!(tr.global_transactions, 4);
        assert_eq!(tr.global_accesses, 64 * 2);
        assert!(tr.dyn_instrs > 0);
    }

    #[test]
    fn strided_access_generates_many_segments() {
        // Each thread accesses A[tid * 32] — 32 lanes hit 32 segments.
        let src = r#"
.entry strided(.param .u64 A) {
  ld.param.u64 %rd1, [A];
  mov.u32 %r1, %tid.x;
  shl.b32 %r2, %r1, 5;
  mul.wide.u32 %rd2, %r2, 4;
  add.u64 %rd3, %rd1, %rd2;
  st.global.f32 [%rd3], 0f00000000;
  ret;
}
"#;
        let k = Arc::new(parse_kernel(src).unwrap());
        let mut sp = AddressSpace::new();
        let a = sp.alloc(4 * 32 * 32);
        let mut mem = GlobalMem::for_space(&sp);
        let launch = Launch::new(k, Dim3::x(1), Dim3::x(32), vec![ArgValue::Ptr(a.base)]);
        let tr = trace_block(&launch, 0, &mut mem).unwrap();
        assert_eq!(tr.global_transactions, 32);
    }

    #[test]
    fn barrier_appears_in_stream() {
        let src = r#"
.entry b(.param .u64 A) {
  .shared 256;
  ld.param.u64 %rd1, [A];
  mov.u32 %r1, %tid.x;
  shl.b32 %r2, %r1, 2;
  st.shared.f32 [%r2], 0f00000000;
  bar.sync 0;
  ld.shared.f32 %f1, [%r2];
  mul.wide.u32 %rd2, %r1, 4;
  add.u64 %rd3, %rd1, %rd2;
  st.global.f32 [%rd3], %f1;
  ret;
}
"#;
        let k = Arc::new(parse_kernel(src).unwrap());
        let mut sp = AddressSpace::new();
        let a = sp.alloc(4 * 64);
        let mut mem = GlobalMem::for_space(&sp);
        let launch = Launch::new(k, Dim3::x(1), Dim3::x(64), vec![ArgValue::Ptr(a.base)]);
        let tr = trace_block(&launch, 0, &mut mem).unwrap();
        for w in &tr.warps {
            assert!(w.events.contains(&TraceEv::Bar));
        }
    }

    #[test]
    fn lane_law_matches_full_interpretation() {
        let mut sp = AddressSpace::new();
        let a = sp.alloc(4 * 256);
        let b = sp.alloc(4 * 256);
        let launch = Launch::new(
            copy_kernel(),
            Dim3::x(4),
            Dim3::x(64),
            vec![ArgValue::Ptr(a.base), ArgValue::Ptr(b.base)],
        );
        assert!(law_admissible(&launch));
        for tb in 0..4 {
            let mut mem = GlobalMem::for_space(&sp);
            let want = trace_block(&launch, tb, &mut mem).unwrap();
            let mut base = GlobalMem::for_space(&sp);
            let (got, stats) =
                trace_block_law(&launch, tb, &mut base, MAX_STEPS_PER_THREAD).unwrap();
            assert_eq!(got, want, "tb {tb}");
            assert_eq!(stats.law_warps, 2);
            assert_eq!(stats.rejected_warps, 0);
            assert_eq!(stats.lanes_interpreted, 14);
            assert_eq!(stats.lanes_synthesized, 50);
        }
    }

    #[test]
    fn lane_law_leaves_the_callers_memory_untouched() {
        let mut sp = AddressSpace::new();
        let a = sp.alloc(4 * 512);
        let b = sp.alloc(4 * 512);
        let launch = Launch::new(
            copy_kernel(),
            Dim3::x(2),
            Dim3::x(256),
            vec![ArgValue::Ptr(a.base), ArgValue::Ptr(b.base)],
        );
        let mut mem = GlobalMem::for_space(&sp);
        let want = trace_block(&launch, 1, &mut mem).unwrap();
        let mut base = GlobalMem::for_space(&sp);
        let (got, _) = trace_block_law(&launch, 1, &mut base, MAX_STEPS_PER_THREAD).unwrap();
        assert_eq!(got, want);
        // The caller's memory is never mutated by the law path.
        assert_eq!(base.fingerprint(), GlobalMem::for_space(&sp).fingerprint());
    }

    #[test]
    fn non_affine_lanes_reject_and_fall_back_exactly() {
        // addr = A + 4*(tid & 7): lanes 0,1,2 and 4 look affine (stride 4),
        // but lane 8 wraps back to offset 0 — the sampled check must catch
        // it and the fully-interpreted fallback must match the reference.
        let src = r#"
.entry wrap(.param .u64 A) {
  ld.param.u64 %rd1, [A];
  mov.u32 %r1, %tid.x;
  and.b32 %r2, %r1, 7;
  mul.wide.u32 %rd2, %r2, 4;
  add.u64 %rd3, %rd1, %rd2;
  st.global.f32 [%rd3], 0f40400000;
  ret;
}
"#;
        let k = Arc::new(parse_kernel(src).unwrap());
        let mut sp = AddressSpace::new();
        let a = sp.alloc(4 * 64);
        let launch = Launch::new(k, Dim3::x(1), Dim3::x(64), vec![ArgValue::Ptr(a.base)]);
        let mut mem = GlobalMem::for_space(&sp);
        let want = trace_block(&launch, 0, &mut mem).unwrap();
        let mut base = GlobalMem::for_space(&sp);
        let (got, stats) = trace_block_law(&launch, 0, &mut base, MAX_STEPS_PER_THREAD).unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.law_warps, 0);
        assert_eq!(stats.rejected_warps, 2);
        assert_eq!(stats.lanes_interpreted, 64);
    }

    #[test]
    fn barrier_kernels_are_inadmissible_but_exact() {
        let src = r#"
.entry b(.param .u64 A) {
  .shared 256;
  ld.param.u64 %rd1, [A];
  mov.u32 %r1, %tid.x;
  shl.b32 %r2, %r1, 2;
  st.shared.f32 [%r2], 0f00000000;
  bar.sync 0;
  ld.shared.f32 %f1, [%r2];
  mul.wide.u32 %rd2, %r1, 4;
  add.u64 %rd3, %rd1, %rd2;
  st.global.f32 [%rd3], %f1;
  ret;
}
"#;
        let k = Arc::new(parse_kernel(src).unwrap());
        let mut sp = AddressSpace::new();
        let a = sp.alloc(4 * 64);
        let launch = Launch::new(k, Dim3::x(1), Dim3::x(64), vec![ArgValue::Ptr(a.base)]);
        assert!(!law_admissible(&launch));
        let mut mem = GlobalMem::for_space(&sp);
        let want = trace_block(&launch, 0, &mut mem).unwrap();
        let mut base = GlobalMem::for_space(&sp);
        let (got, stats) = trace_block_law(&launch, 0, &mut base, MAX_STEPS_PER_THREAD).unwrap();
        assert_eq!(got, want);
        assert_eq!(stats, TraceLawStats::default());
    }

    #[test]
    fn guard_masked_tail_warp_rejects_safely() {
        // Guard `gid < 40` kills lanes 8..32 of warp 1: the boundary lane
        // (31) sees a shorter stream than the anchors, rejecting the law.
        let src = r#"
.entry g(.param .u64 A, .param .u32 n) {
  ld.param.u64 %rd1, [A];
  ld.param.u32 %r9, [n];
  mov.u32 %r1, %tid.x;
  setp.ge.u32 %p1, %r1, %r9;
  @%p1 bra $DONE;
  mul.wide.u32 %rd2, %r1, 4;
  add.u64 %rd3, %rd1, %rd2;
  st.global.f32 [%rd3], 0f3F800000;
$DONE:
  ret;
}
"#;
        let k = Arc::new(parse_kernel(src).unwrap());
        let mut sp = AddressSpace::new();
        let a = sp.alloc(4 * 64);
        let launch = Launch::new(
            k,
            Dim3::x(1),
            Dim3::x(64),
            vec![ArgValue::Ptr(a.base), ArgValue::U32(40)],
        );
        let mut mem = GlobalMem::for_space(&sp);
        let want = trace_block(&launch, 0, &mut mem).unwrap();
        let mut base = GlobalMem::for_space(&sp);
        let (got, stats) = trace_block_law(&launch, 0, &mut base, MAX_STEPS_PER_THREAD).unwrap();
        assert_eq!(got, want);
        // Warp 0 is uniform (all lanes pass the guard); warp 1 diverges.
        assert_eq!(stats.law_warps, 1);
        assert_eq!(stats.rejected_warps, 1);
    }

    #[test]
    fn affine_segment_count_matches_literal_dedup() {
        let brute = |a0: u64, s: u64| {
            let mut segset: Vec<u64> = Vec::new();
            for l in 0..32u64 {
                let seg = a0.wrapping_add(s.wrapping_mul(l)) / SEGMENT_BYTES;
                if !segset.contains(&seg) {
                    segset.push(seg);
                }
            }
            segset.len() as u32
        };
        let mut cases: Vec<(u64, u64)> = vec![
            (0, 0),
            (4096, 0),
            (3, 4),
            (4095, 4),
            (0, SEGMENT_BYTES),
            (7, SEGMENT_BYTES - 1),
            (1, SEGMENT_BYTES + 1),
            (u64::MAX - 100, 4),
            (50, (-4i64) as u64),
            (u64::MAX / 2, (-(129i64)) as u64),
            (10, (-1i64) as u64),
            (0, u64::MAX),
            (123, i64::MIN as u64),
            (1 << 40, 1 << 40),
            (u64::MAX - 5, u64::MAX / 31),
        ];
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..4000 {
            let a0 = rnd();
            let s = match rnd() % 4 {
                0 => rnd() % (SEGMENT_BYTES * 2),
                1 => (-((rnd() % (SEGMENT_BYTES * 2)) as i64)) as u64,
                2 => rnd(),
                _ => rnd() % 8,
            };
            cases.push((a0, s));
        }
        for (a0, s) in cases {
            assert_eq!(
                affine_segment_count(a0, s),
                brute(a0, s),
                "a0={a0:#x} s={s:#x}"
            );
        }
    }
}
