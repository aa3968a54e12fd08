//! Dynamic warp traces: the interface between functional execution and the
//! timing model.
//!
//! A [`TbTrace`] summarizes one thread block's execution as per-warp event
//! streams (compute bursts, coalesced global-memory transactions, barriers).
//! The SM timing model in `bm-simt` replays these streams under GTO warp
//! scheduling to derive thread-block durations and memory-request counts.
//! A block is traced from the interpreter engine's dispatches, in warps or,
//! for a block that falls back, one lane at a time through the same hooks.

use crate::interp::{ExecError, Lockstep, Program, Sink, MAX_STEPS_PER_THREAD, WARP};
use crate::isa::{MemSpace, Op};
use crate::kernel::Launch;
use crate::mem::GlobalMem;

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
/// The block runs on the warp-lockstep engine ([`Lockstep`]), so memory,
/// statistics and errors are those of [`Program::execute_block`]. Each
/// warp's trace follows its *representative* lane, the last of its longest
/// instruction streams: a run of non-memory instructions is one compute
/// burst, a barrier one event, and a global load or store one transaction
/// per distinct 128-byte segment that the warp's lanes touch at the same
/// occurrence of that instruction (each lane counting its own).
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
    let mut rec = Recorder::new(launch);
    let stats =
        Program::new(launch).lockstep(&mut Lockstep::new(), &mut rec, tb, mem, max_steps)?;
    let mut global_transactions = 0;
    let warps = rec
        .warps
        .iter_mut()
        .map(|log| {
            let (wt, segments) = log.rebuild(&rec.kinds);
            global_transactions += segments;
            wt
        })
        .collect();
    Ok(TbTrace {
        warps,
        dyn_instrs: stats.instructions,
        global_transactions,
        global_accesses: stats.global_loads + stats.global_stores,
    })
}

/// What an instruction contributes to a warp trace.
#[derive(Clone, Copy)]
enum Kind {
    Compute,
    Bar,
    /// The `ord`-th global load or store of the kernel body.
    Mem {
        ord: usize,
        store: bool,
    },
}

/// The record of one warp, from which its trace is rebuilt.
#[derive(Clone)]
struct WarpLog {
    /// Every dispatch: its pc and the lanes whose guard passed.
    dispatches: Vec<(u32, u32)>,
    /// Per global memory instruction, each lane's accesses so far.
    occ: Vec<[u32; WARP]>,
    /// Per global memory instruction, the (occurrence, segment) of every
    /// access, a repeat of the previous lane's in one dispatch left out.
    segs: Vec<Vec<(u32, u64)>>,
}

/// Records a block's warp traces from the engine's dispatches. A block
/// that falls back reruns one lane at a time through the same hooks, each
/// dispatch then of one lane, which keeps every lane's stream and accesses
/// in its program order, all the rebuild reads.
struct Recorder {
    kinds: Vec<Kind>,
    warps: Vec<WarpLog>,
}

impl Recorder {
    fn new(launch: &Launch) -> Self {
        let mut mems = 0;
        let kinds = launch
            .kernel
            .body
            .iter()
            .map(|i| match i.op {
                Op::Ld {
                    space: MemSpace::Global,
                    ..
                }
                | Op::St {
                    space: MemSpace::Global,
                    ..
                } => {
                    mems += 1;
                    Kind::Mem {
                        ord: mems - 1,
                        store: matches!(i.op, Op::St { .. }),
                    }
                }
                Op::Bar => Kind::Bar,
                _ => Kind::Compute,
            })
            .collect();
        let log = WarpLog {
            dispatches: Vec::new(),
            occ: vec![[0; WARP]; mems],
            segs: vec![Vec::new(); mems],
        };
        Recorder {
            kinds,
            warps: vec![log; launch.warps_per_block() as usize],
        }
    }
}

impl Sink for Recorder {
    #[inline]
    fn on_dispatch(&mut self, w: usize, pc: usize, exec: u32) {
        if exec != 0 {
            self.warps[w].dispatches.push((pc as u32, exec));
        }
    }

    fn on_global(&mut self, w: usize, pc: usize, exec: u32, addr: &[u64; WARP]) {
        let Kind::Mem { ord, .. } = self.kinds[pc] else {
            unreachable!("only global loads and stores access global memory")
        };
        let log = &mut self.warps[w];
        let (occ, segs) = (&mut log.occ[ord], &mut log.segs[ord]);
        let mut lanes = exec;
        while lanes != 0 {
            let l = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            let access = (occ[l], addr[l] / SEGMENT_BYTES);
            occ[l] += 1;
            if segs.last() != Some(&access) {
                segs.push(access);
            }
        }
    }

    fn discard(&mut self) {
        for log in &mut self.warps {
            log.dispatches.clear();
            log.occ.fill([0; WARP]);
            log.segs.iter_mut().for_each(Vec::clear);
        }
    }
}

impl WarpLog {
    /// The warp's trace and its transactions: the representative lane's
    /// dispatches in order, each memory instruction counting the distinct
    /// segments of its (instruction, occurrence), or one if it has none.
    fn rebuild(&mut self, kinds: &[Kind]) -> (WarpTrace, u64) {
        let (mut len, mut full) = ([0u64; WARP], 0u64);
        for &(_, exec) in &self.dispatches {
            if exec == u32::MAX {
                full += 1;
                continue;
            }
            let mut lanes = exec;
            while lanes != 0 {
                len[lanes.trailing_zeros() as usize] += 1;
                lanes &= lanes - 1;
            }
        }
        len.iter_mut().for_each(|n| *n += full);
        let rep = (0..WARP).max_by_key(|&l| len[l]).expect("a warp has lanes");
        let segments: Vec<Vec<u32>> = self
            .segs
            .iter_mut()
            .map(|segs| {
                segs.sort_unstable();
                segs.dedup();
                let mut per_occ = Vec::new();
                for &(occ, _) in segs.iter() {
                    let occ = occ as usize;
                    if per_occ.len() <= occ {
                        per_occ.resize(occ + 1, 0);
                    }
                    per_occ[occ] += 1;
                }
                per_occ
            })
            .collect();
        let mut wt = WarpTrace::default();
        let (mut total, mut run) = (0u64, 0u32);
        let mut occ = vec![0usize; segments.len()];
        for &(pc, exec) in &self.dispatches {
            if exec >> rep & 1 == 0 {
                continue;
            }
            let kind = kinds[pc as usize];
            if !matches!(kind, Kind::Compute) && run > 0 {
                wt.events.push(TraceEv::Compute(run));
                run = 0;
            }
            match kind {
                Kind::Compute => run += 1,
                Kind::Bar => wt.events.push(TraceEv::Bar),
                Kind::Mem { ord, store } => {
                    let n = segments[ord].get(occ[ord]).copied().unwrap_or(0).max(1);
                    occ[ord] += 1;
                    total += u64::from(n);
                    wt.events.push(TraceEv::Mem { segments: n, store });
                }
            }
        }
        if run > 0 {
            wt.events.push(TraceEv::Compute(run));
        }
        (wt, total)
    }
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
}
