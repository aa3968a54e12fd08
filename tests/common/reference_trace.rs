//! The thread-serial trace recorder that preceded the lockstep one in
//! `bm_ptx::trace`, kept verbatim as the oracle `trace_block_limited` is
//! checked against (`tests/interp_lockstep.rs`). It records every
//! thread's instruction stream and every global access through
//! [`ExecObserver`] callbacks, driven here by the reference interpreter
//! of `tests/common/reference_interp.rs`.

#![allow(dead_code)]

use super::reference;
use bm_ptx::interp::{ExecError, ExecObserver, ExecStats, ThreadId};
use bm_ptx::isa::{MemSpace, Op};
use bm_ptx::kernel::Launch;
use bm_ptx::mem::GlobalMem;
use bm_ptx::trace::{TbTrace, TraceEv, WarpTrace, SEGMENT_BYTES};
use std::collections::HashMap;

#[derive(Default)]
pub struct TraceObserver {
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

/// Traces block `tb` of `launch` on the reference interpreter.
///
/// # Errors
///
/// The reference interpreter's [`ExecError`].
pub fn trace_block_limited(
    launch: &Launch,
    tb: u32,
    mem: &mut GlobalMem,
    max_steps: u64,
) -> Result<TbTrace, ExecError> {
    let mut obs = TraceObserver::default();
    let stats = reference::execute_block_limited(launch, tb, mem, &mut obs, max_steps)?;
    Ok(rebuild(launch, &obs, &stats))
}

/// Forwards every callback to a trace observer and to another observer.
pub struct Both<'a, O>(pub TraceObserver, pub &'a mut O);

impl<O: ExecObserver> ExecObserver for Both<'_, O> {
    fn on_inst(&mut self, t: ThreadId, inst_idx: usize, op: &Op) {
        self.0.on_inst(t, inst_idx, op);
        self.1.on_inst(t, inst_idx, op);
    }

    fn on_global_access(&mut self, t: ThreadId, inst_idx: usize, addr: u64, store: bool) {
        self.0.on_global_access(t, inst_idx, addr, store);
        self.1.on_global_access(t, inst_idx, addr, store);
    }
}

/// The block's trace from what `obs` recorded.
pub fn rebuild(launch: &Launch, obs: &TraceObserver, stats: &ExecStats) -> TbTrace {
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
    TbTrace {
        warps,
        dyn_instrs: stats.instructions,
        global_transactions: total_segments,
        global_accesses: obs.accesses,
    }
}
