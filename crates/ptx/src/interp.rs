//! Functional (architecturally-correct) interpreter for mini-PTX kernels.
//!
//! Used for three things: validating workload kernels, producing dynamic
//! traces for the timing model (via [`ExecObserver`]), and the end-to-end
//! correctness check that BlockMaestro's overlapped schedules compute the
//! same memory state as serialized execution.

use crate::isa::*;
use crate::kernel::Launch;
use crate::mem::GlobalMem;
use std::fmt;

/// Error produced during functional execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A thread exceeded the per-thread step limit (runaway loop).
    StepLimit {
        /// Linear block id.
        tb: u32,
        /// Linear thread id within the block.
        tid: u32,
    },
    /// Shared-memory access out of the declared `.shared` size.
    SharedOutOfBounds {
        /// Byte address within shared memory.
        addr: u64,
        /// Declared shared size.
        size: u32,
    },
    /// Threads did not all reach the same barrier.
    BarrierDivergence {
        /// Linear block id.
        tb: u32,
    },
    /// A global load or store touched a word outside every allocation.
    Unmapped {
        /// Linear block id.
        tb: u32,
        /// Byte address of the offending word.
        addr: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::StepLimit { tb, tid } => {
                write!(f, "step limit exceeded in block {tb}, thread {tid}")
            }
            ExecError::SharedOutOfBounds { addr, size } => {
                write!(
                    f,
                    "shared-memory access at {addr} out of bounds ({size} bytes)"
                )
            }
            ExecError::BarrierDivergence { tb } => {
                write!(f, "barrier divergence in block {tb}")
            }
            ExecError::Unmapped { tb, addr } => {
                write!(f, "block {tb} accessed unmapped device address {addr:#x}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Identifies a thread during observed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadId {
    /// Linear block id.
    pub tb: u32,
    /// Linear thread id within the block (`tid.y * ntid.x + tid.x`).
    pub tid: u32,
}

impl ThreadId {
    /// Warp index of this thread (32 threads per warp).
    pub fn warp(&self) -> u32 {
        self.tid / 32
    }

    /// Lane within the warp.
    pub fn lane(&self) -> u32 {
        self.tid % 32
    }
}

/// Observation hooks for dynamic traces. All methods default to no-ops.
pub trait ExecObserver {
    /// Called for every instruction a thread actually executes
    /// (guard-failing instructions are *not* reported).
    fn on_inst(&mut self, _thread: ThreadId, _inst_idx: usize, _op: &Op) {}

    /// Called for every global-memory access with its byte address.
    fn on_global_access(&mut self, _thread: ThreadId, _inst_idx: usize, _addr: u64, _store: bool) {}
}

/// Observer that does nothing (for plain functional runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl ExecObserver for NullObserver {}

/// Execution statistics for a block or launch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Dynamic instructions executed (guard-passing).
    pub instructions: u64,
    /// Global loads executed.
    pub global_loads: u64,
    /// Global stores executed.
    pub global_stores: u64,
}

impl ExecStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, other: &ExecStats) {
        self.instructions += other.instructions;
        self.global_loads += other.global_loads;
        self.global_stores += other.global_stores;
    }
}

/// Per-thread step limit; generous enough for all evaluation kernels while
/// still catching accidental infinite loops quickly.
pub const MAX_STEPS_PER_THREAD: u64 = 4_000_000;

#[derive(Clone)]
struct Thread {
    r32: Vec<u32>,
    r64: Vec<u64>,
    f32: Vec<f32>,
    pred: Vec<bool>,
    pc: usize,
    steps: u64,
    status: Status,
    tid_x: u32,
    tid_y: u32,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Running,
    AtBarrier,
    Done,
}

fn reg_file_sizes(launch: &Launch) -> (usize, usize, usize, usize) {
    let [a, b, c, d] = max_reg_counts(&launch.kernel.body);
    (a, b, c, d)
}

/// Executes a single thread block functionally.
///
/// # Errors
///
/// Returns [`ExecError`] on runaway loops, shared-memory overflow, barrier
/// divergence, or a global access to an unmapped device address.
pub fn execute_block<O: ExecObserver>(
    launch: &Launch,
    tb: u32,
    mem: &mut GlobalMem,
    obs: &mut O,
) -> Result<ExecStats, ExecError> {
    execute_block_limited(launch, tb, mem, obs, MAX_STEPS_PER_THREAD)
}

/// [`execute_block`] with an explicit per-thread step budget instead of the
/// default [`MAX_STEPS_PER_THREAD`] — the representative-TB trace of the
/// degradation ladder uses this to bound how long launch-time profiling may
/// run before falling back to an estimated profile.
///
/// # Errors
///
/// As [`execute_block`]; exceeding `max_steps` surfaces as
/// [`ExecError::StepLimit`].
pub fn execute_block_limited<O: ExecObserver>(
    launch: &Launch,
    tb: u32,
    mem: &mut GlobalMem,
    obs: &mut O,
    max_steps: u64,
) -> Result<ExecStats, ExecError> {
    let kernel = &launch.kernel;
    let (bx, by) = launch.block_coords(tb);
    let nthreads = launch.threads_per_block();
    let (n32, n64, nf, np) = reg_file_sizes(launch);
    let mut shared = vec![0u8; kernel.shared_bytes as usize];
    let mut threads: Vec<Thread> = (0..nthreads)
        .map(|t| Thread {
            r32: vec![0; n32],
            r64: vec![0; n64],
            f32: vec![0.0; nf],
            pred: vec![false; np],
            pc: 0,
            steps: 0,
            status: Status::Running,
            tid_x: t % launch.block.x,
            tid_y: t / launch.block.x,
        })
        .collect();
    let mut stats = ExecStats::default();
    loop {
        let mut any_running = false;
        for (t_idx, th) in threads.iter_mut().enumerate() {
            if th.status != Status::Running {
                continue;
            }
            any_running = true;
            let id = ThreadId {
                tb,
                tid: t_idx as u32,
            };
            run_thread(
                launch,
                bx,
                by,
                th,
                id,
                mem,
                &mut shared,
                obs,
                &mut stats,
                max_steps,
            )?;
        }
        if !any_running {
            // Everyone is Done or AtBarrier.
            let waiting = threads
                .iter()
                .filter(|t| t.status == Status::AtBarrier)
                .count();
            if waiting == 0 {
                return Ok(stats);
            }
            // Release the barrier for all waiters.
            for th in &mut threads {
                if th.status == Status::AtBarrier {
                    th.status = Status::Running;
                }
            }
        }
    }
}

/// [`execute_block_limited`] restricted to an explicit ascending list of
/// thread ids — the lane-law trace fast path executes only a block's anchor
/// and validation lanes and synthesizes the rest (see `crate::trace`).
///
/// The scheduling discipline is identical to the full executor (round-robin
/// over the listed threads, block-wide barrier release among them), so for
/// any subset the listed threads run in the same relative order as in a
/// full execution; only the memory/shared-state writes of unlisted threads
/// are absent.
///
/// # Errors
///
/// As [`execute_block_limited`].
pub fn execute_block_subset<O: ExecObserver>(
    launch: &Launch,
    tb: u32,
    mem: &mut GlobalMem,
    obs: &mut O,
    max_steps: u64,
    tids: &[u32],
) -> Result<ExecStats, ExecError> {
    let kernel = &launch.kernel;
    let (bx, by) = launch.block_coords(tb);
    let (n32, n64, nf, np) = reg_file_sizes(launch);
    let mut shared = vec![0u8; kernel.shared_bytes as usize];
    let mut threads: Vec<(u32, Thread)> = tids
        .iter()
        .map(|&t| {
            (
                t,
                Thread {
                    r32: vec![0; n32],
                    r64: vec![0; n64],
                    f32: vec![0.0; nf],
                    pred: vec![false; np],
                    pc: 0,
                    steps: 0,
                    status: Status::Running,
                    tid_x: t % launch.block.x,
                    tid_y: t / launch.block.x,
                },
            )
        })
        .collect();
    let mut stats = ExecStats::default();
    loop {
        let mut any_running = false;
        for (tid, th) in threads.iter_mut() {
            if th.status != Status::Running {
                continue;
            }
            any_running = true;
            let id = ThreadId { tb, tid: *tid };
            run_thread(
                launch,
                bx,
                by,
                th,
                id,
                mem,
                &mut shared,
                obs,
                &mut stats,
                max_steps,
            )?;
        }
        if !any_running {
            let waiting = threads
                .iter()
                .filter(|(_, t)| t.status == Status::AtBarrier)
                .count();
            if waiting == 0 {
                return Ok(stats);
            }
            for (_, th) in &mut threads {
                if th.status == Status::AtBarrier {
                    th.status = Status::Running;
                }
            }
        }
    }
}

/// Fallible pipeline entry point: validates the launch structure, then
/// executes every block, folding both launch and execution failures into
/// the crate-level [`crate::error::PtxError`].
///
/// # Errors
///
/// [`crate::error::PtxError::BadLaunch`] for malformed launches,
/// [`crate::error::PtxError::Exec`] for functional-execution failures.
pub fn try_execute_launch(
    launch: &Launch,
    mem: &mut GlobalMem,
) -> Result<ExecStats, crate::error::PtxError> {
    crate::error::validate_launch(launch)?;
    execute_launch(launch, mem).map_err(crate::error::PtxError::Exec)
}

/// Executes every block of a launch in linear block-id order.
///
/// # Errors
///
/// Propagates the first [`ExecError`] from any block.
pub fn execute_launch(launch: &Launch, mem: &mut GlobalMem) -> Result<ExecStats, ExecError> {
    let mut stats = ExecStats::default();
    for tb in 0..launch.num_blocks() {
        stats.merge(&execute_block(launch, tb, mem, &mut NullObserver)?);
    }
    Ok(stats)
}

#[allow(clippy::too_many_arguments)]
fn run_thread<O: ExecObserver>(
    launch: &Launch,
    bx: u32,
    by: u32,
    th: &mut Thread,
    id: ThreadId,
    mem: &mut GlobalMem,
    shared: &mut [u8],
    obs: &mut O,
    stats: &mut ExecStats,
    max_steps: u64,
) -> Result<(), ExecError> {
    let body = &launch.kernel.body;
    loop {
        if th.pc >= body.len() {
            th.status = Status::Done;
            return Ok(());
        }
        th.steps += 1;
        if th.steps > max_steps {
            return Err(ExecError::StepLimit {
                tb: id.tb,
                tid: id.tid,
            });
        }
        let inst = &body[th.pc];
        if let Some(g) = inst.guard {
            let p = th.pred[g.pred.idx as usize];
            if p == g.negated {
                th.pc += 1;
                continue;
            }
        }
        stats.instructions += 1;
        obs.on_inst(id, th.pc, &inst.op);
        let special = |s: Special| -> u32 {
            match s {
                Special::TidX => th.tid_x,
                Special::TidY => th.tid_y,
                Special::NtidX => launch.block.x,
                Special::NtidY => launch.block.y,
                Special::CtaidX => bx,
                Special::CtaidY => by,
                Special::NctaidX => launch.grid.x,
                Special::NctaidY => launch.grid.y,
            }
        };
        macro_rules! val32 {
            ($o:expr) => {
                match $o {
                    Operand::Reg(r) => th.r32[r.idx as usize],
                    Operand::ImmI(v) => v as u32,
                    Operand::ImmF(v) => v.to_bits(),
                    Operand::Special(s) => special(s),
                }
            };
        }
        macro_rules! val64 {
            ($o:expr) => {
                match $o {
                    Operand::Reg(r) => match r.class {
                        RegClass::R64 => th.r64[r.idx as usize],
                        RegClass::R32 => th.r32[r.idx as usize] as u64,
                        _ => 0,
                    },
                    Operand::ImmI(v) => v as u64,
                    Operand::ImmF(v) => v.to_bits() as u64,
                    Operand::Special(s) => special(s) as u64,
                }
            };
        }
        macro_rules! valf {
            ($o:expr) => {
                match $o {
                    Operand::Reg(r) => th.f32[r.idx as usize],
                    Operand::ImmF(v) => v,
                    Operand::ImmI(v) => v as f32,
                    Operand::Special(s) => special(s) as f32,
                }
            };
        }
        let mut next_pc = th.pc + 1;
        match &inst.op {
            Op::Mov { dst, src } => match dst.class {
                RegClass::R32 => th.r32[dst.idx as usize] = val32!(*src),
                RegClass::R64 => th.r64[dst.idx as usize] = val64!(*src),
                RegClass::F32 => th.f32[dst.idx as usize] = valf!(*src),
                RegClass::Pred => {
                    if let Operand::Reg(r) = src {
                        th.pred[dst.idx as usize] = th.pred[r.idx as usize];
                    }
                }
            },
            Op::Cvt { dst, src } => {
                let src_class = match src {
                    Operand::Reg(r) => r.class,
                    Operand::ImmF(_) => RegClass::F32,
                    _ => RegClass::R32,
                };
                match (dst.class, src_class) {
                    (RegClass::R64, _) => th.r64[dst.idx as usize] = val64!(*src),
                    (RegClass::R32, RegClass::F32) => th.r32[dst.idx as usize] = valf!(*src) as u32,
                    (RegClass::R32, _) => th.r32[dst.idx as usize] = val64!(*src) as u32,
                    (RegClass::F32, RegClass::F32) => th.f32[dst.idx as usize] = valf!(*src),
                    (RegClass::F32, _) => th.f32[dst.idx as usize] = val64!(*src) as f32,
                    (RegClass::Pred, _) => {}
                }
            }
            Op::Int { op, ty, dst, a, b } => match ty {
                IntTy::U32 => {
                    let (x, y) = (val32!(*a), val32!(*b));
                    th.r32[dst.idx as usize] = int_op_u32(*op, x, y);
                }
                IntTy::S32 => {
                    let (x, y) = (val32!(*a) as i32, val32!(*b) as i32);
                    th.r32[dst.idx as usize] = int_op_s32(*op, x, y) as u32;
                }
                IntTy::U64 => {
                    let (x, y) = (val64!(*a), val64!(*b));
                    th.r64[dst.idx as usize] = int_op_u64(*op, x, y);
                }
            },
            Op::Mad { ty, dst, a, b, c } => match ty {
                IntTy::U32 | IntTy::S32 => {
                    let v = val32!(*a).wrapping_mul(val32!(*b)).wrapping_add(val32!(*c));
                    th.r32[dst.idx as usize] = v;
                }
                IntTy::U64 => {
                    let v = val64!(*a).wrapping_mul(val64!(*b)).wrapping_add(val64!(*c));
                    th.r64[dst.idx as usize] = v;
                }
            },
            Op::MulWide { dst, a, b } => {
                th.r64[dst.idx as usize] = val32!(*a) as u64 * val32!(*b) as u64;
            }
            Op::MadWide { dst, a, b, c } => {
                th.r64[dst.idx as usize] =
                    (val32!(*a) as u64 * val32!(*b) as u64).wrapping_add(val64!(*c));
            }
            Op::Float { op, dst, a, b } => {
                let (x, y) = (valf!(*a), valf!(*b));
                th.f32[dst.idx as usize] = match op {
                    FloatOp::Add => x + y,
                    FloatOp::Sub => x - y,
                    FloatOp::Mul => x * y,
                    FloatOp::Div => x / y,
                    FloatOp::Min => x.min(y),
                    FloatOp::Max => x.max(y),
                };
            }
            Op::Fma { dst, a, b, c } => {
                th.f32[dst.idx as usize] = valf!(*a).mul_add(valf!(*b), valf!(*c));
            }
            Op::Sqrt { dst, a } => {
                th.f32[dst.idx as usize] = valf!(*a).sqrt();
            }
            Op::Setp { cmp, ty, dst, a, b } => {
                let r = match ty {
                    IntTy::U32 => cmp_int(*cmp, val32!(*a) as u64, val32!(*b) as u64),
                    IntTy::S32 => {
                        cmp_sint(*cmp, val32!(*a) as i32 as i64, val32!(*b) as i32 as i64)
                    }
                    IntTy::U64 => cmp_int(*cmp, val64!(*a), val64!(*b)),
                };
                th.pred[dst.idx as usize] = r;
            }
            Op::SetpF { cmp, dst, a, b } => {
                let (x, y) = (valf!(*a), valf!(*b));
                th.pred[dst.idx as usize] = match cmp {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                };
            }
            Op::Selp { dst, a, b, p } => {
                let take_a = th.pred[p.idx as usize];
                match dst.class {
                    RegClass::R32 => {
                        th.r32[dst.idx as usize] = if take_a { val32!(*a) } else { val32!(*b) }
                    }
                    RegClass::R64 => {
                        th.r64[dst.idx as usize] = if take_a { val64!(*a) } else { val64!(*b) }
                    }
                    RegClass::F32 => {
                        th.f32[dst.idx as usize] = if take_a { valf!(*a) } else { valf!(*b) }
                    }
                    RegClass::Pred => {}
                }
            }
            Op::Ld {
                space,
                ty,
                dst,
                addr,
            } => match space {
                MemSpace::Global => {
                    let a = th.r64[addr.base.idx as usize].wrapping_add(addr.offset as u64);
                    stats.global_loads += 1;
                    obs.on_global_access(id, th.pc, a, false);
                    let v = mem
                        .try_read_u32(a)
                        .ok_or(ExecError::Unmapped { tb: id.tb, addr: a })?;
                    match ty {
                        MemTy::U32 => th.r32[dst.idx as usize] = v,
                        MemTy::F32 => th.f32[dst.idx as usize] = f32::from_bits(v),
                    }
                }
                MemSpace::Shared => {
                    let a = (th.r32[addr.base.idx as usize] as i64 + addr.offset) as u64;
                    let end = a + 4;
                    if end > shared.len() as u64 {
                        return Err(ExecError::SharedOutOfBounds {
                            addr: a,
                            size: launch.kernel.shared_bytes,
                        });
                    }
                    let bytes: [u8; 4] = shared[a as usize..a as usize + 4].try_into().unwrap();
                    let v = u32::from_le_bytes(bytes);
                    match ty {
                        MemTy::U32 => th.r32[dst.idx as usize] = v,
                        MemTy::F32 => th.f32[dst.idx as usize] = f32::from_bits(v),
                    }
                }
            },
            Op::St {
                space,
                ty,
                src,
                addr,
            } => {
                let v = match ty {
                    MemTy::U32 => val32!(*src),
                    MemTy::F32 => valf!(*src).to_bits(),
                };
                match space {
                    MemSpace::Global => {
                        let a = th.r64[addr.base.idx as usize].wrapping_add(addr.offset as u64);
                        stats.global_stores += 1;
                        obs.on_global_access(id, th.pc, a, true);
                        mem.try_write_u32(a, v)
                            .ok_or(ExecError::Unmapped { tb: id.tb, addr: a })?;
                    }
                    MemSpace::Shared => {
                        let a = (th.r32[addr.base.idx as usize] as i64 + addr.offset) as u64;
                        let end = a + 4;
                        if end > shared.len() as u64 {
                            return Err(ExecError::SharedOutOfBounds {
                                addr: a,
                                size: launch.kernel.shared_bytes,
                            });
                        }
                        shared[a as usize..a as usize + 4].copy_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Op::LdParam { dst, param } => {
                let raw = launch.args[*param as usize].as_u64();
                match dst.class {
                    RegClass::R64 => th.r64[dst.idx as usize] = raw,
                    RegClass::R32 => th.r32[dst.idx as usize] = raw as u32,
                    RegClass::F32 => th.f32[dst.idx as usize] = f32::from_bits(raw as u32),
                    RegClass::Pred => {}
                }
            }
            Op::Bra { target } => {
                next_pc = *target;
            }
            Op::Bar => {
                th.pc += 1;
                th.status = Status::AtBarrier;
                return Ok(());
            }
            Op::Ret => {
                th.status = Status::Done;
                return Ok(());
            }
        }
        th.pc = next_pc;
    }
}

fn int_op_u32(op: IntOp, x: u32, y: u32) -> u32 {
    match op {
        IntOp::Add => x.wrapping_add(y),
        IntOp::Sub => x.wrapping_sub(y),
        IntOp::Mul => x.wrapping_mul(y),
        IntOp::Div => x.checked_div(y).unwrap_or(u32::MAX),
        IntOp::Rem => {
            if y == 0 {
                x
            } else {
                x % y
            }
        }
        IntOp::Min => x.min(y),
        IntOp::Max => x.max(y),
        IntOp::And => x & y,
        IntOp::Or => x | y,
        IntOp::Xor => x ^ y,
        IntOp::Shl => x.wrapping_shl(y),
        IntOp::Shr => x.wrapping_shr(y),
    }
}

fn int_op_s32(op: IntOp, x: i32, y: i32) -> i32 {
    match op {
        IntOp::Add => x.wrapping_add(y),
        IntOp::Sub => x.wrapping_sub(y),
        IntOp::Mul => x.wrapping_mul(y),
        IntOp::Div => {
            if y == 0 {
                -1
            } else {
                x.wrapping_div(y)
            }
        }
        IntOp::Rem => {
            if y == 0 {
                x
            } else {
                x.wrapping_rem(y)
            }
        }
        IntOp::Min => x.min(y),
        IntOp::Max => x.max(y),
        IntOp::And => x & y,
        IntOp::Or => x | y,
        IntOp::Xor => x ^ y,
        IntOp::Shl => x.wrapping_shl(y as u32),
        IntOp::Shr => x.wrapping_shr(y as u32),
    }
}

fn int_op_u64(op: IntOp, x: u64, y: u64) -> u64 {
    match op {
        IntOp::Add => x.wrapping_add(y),
        IntOp::Sub => x.wrapping_sub(y),
        IntOp::Mul => x.wrapping_mul(y),
        IntOp::Div => x.checked_div(y).unwrap_or(u64::MAX),
        IntOp::Rem => {
            if y == 0 {
                x
            } else {
                x % y
            }
        }
        IntOp::Min => x.min(y),
        IntOp::Max => x.max(y),
        IntOp::And => x & y,
        IntOp::Or => x | y,
        IntOp::Xor => x ^ y,
        IntOp::Shl => x.wrapping_shl(y as u32),
        IntOp::Shr => x.wrapping_shr(y as u32),
    }
}

fn cmp_int(cmp: CmpOp, x: u64, y: u64) -> bool {
    match cmp {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

fn cmp_sint(cmp: CmpOp, x: i64, y: i64) -> bool {
    match cmp {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArgValue, Dim3, Launch};
    use crate::mem::{AddressSpace, GlobalMem};
    use crate::parser::parse_kernel;
    use std::sync::Arc;

    fn vecadd_launch(n: u32, a: u64, b: u64, c: u64) -> Launch {
        let src = r#"
.entry vecadd(.param .u64 A, .param .u64 B, .param .u64 C, .param .u32 n)
{
  ld.param.u64 %rd1, [A];
  ld.param.u64 %rd2, [B];
  ld.param.u64 %rd3, [C];
  ld.param.u32 %r4, [n];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mad.lo.u32 %r5, %r1, %r2, %r3;
  setp.ge.u32 %p1, %r5, %r4;
  @%p1 bra $DONE;
  mul.wide.u32 %rd4, %r5, 4;
  add.u64 %rd5, %rd1, %rd4;
  ld.global.f32 %f1, [%rd5];
  add.u64 %rd6, %rd2, %rd4;
  ld.global.f32 %f2, [%rd6];
  add.f32 %f3, %f1, %f2;
  add.u64 %rd7, %rd3, %rd4;
  st.global.f32 [%rd7], %f3;
$DONE:
  ret;
}
"#;
        let k = Arc::new(parse_kernel(src).unwrap());
        Launch::new(
            k,
            Dim3::x(n.div_ceil(64)),
            Dim3::x(64),
            vec![
                ArgValue::Ptr(a),
                ArgValue::Ptr(b),
                ArgValue::Ptr(c),
                ArgValue::U32(n),
            ],
        )
    }

    #[test]
    fn vecadd_computes_sum() {
        let n = 100u32;
        let mut sp = AddressSpace::new();
        let (a, b, c) = (
            sp.alloc(4 * n as u64),
            sp.alloc(4 * n as u64),
            sp.alloc(4 * n as u64),
        );
        let mut mem = GlobalMem::for_space(&sp);
        let av: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let bv: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        mem.copy_from_host_f32(a.base, &av);
        mem.copy_from_host_f32(b.base, &bv);
        let launch = vecadd_launch(n, a.base, b.base, c.base);
        let stats = execute_launch(&launch, &mut mem).unwrap();
        let cv = mem.copy_to_host_f32(c.base, n as usize);
        for (i, v) in cv.iter().enumerate().take(n as usize) {
            assert_eq!(*v, 3.0 * i as f32);
        }
        // 100 active threads, 2 loads + 1 store each.
        assert_eq!(stats.global_loads, 200);
        assert_eq!(stats.global_stores, 100);
    }

    #[test]
    fn guard_masks_out_of_range_threads() {
        // n=10 with 64-thread blocks: threads 10..63 take the guard and do
        // no memory traffic.
        let n = 10u32;
        let mut sp = AddressSpace::new();
        let (a, b, c) = (sp.alloc(64), sp.alloc(64), sp.alloc(64));
        let mut mem = GlobalMem::for_space(&sp);
        let launch = vecadd_launch(n, a.base, b.base, c.base);
        let stats = execute_launch(&launch, &mut mem).unwrap();
        assert_eq!(stats.global_stores, 10);
    }

    #[test]
    fn loop_kernel_and_step_limit() {
        // A kernel summing n elements in a loop per thread.
        let src = r#"
.entry sum(.param .u64 A, .param .u64 O, .param .u32 n)
{
  ld.param.u64 %rd1, [A];
  ld.param.u64 %rd2, [O];
  ld.param.u32 %r9, [n];
  mov.u32 %r1, 0;
  mov.f32 %f1, 0f00000000;
$TOP:
  setp.ge.u32 %p1, %r1, %r9;
  @%p1 bra $OUT;
  mul.wide.u32 %rd3, %r1, 4;
  add.u64 %rd4, %rd1, %rd3;
  ld.global.f32 %f2, [%rd4];
  add.f32 %f1, %f1, %f2;
  add.u32 %r1, %r1, 1;
  bra $TOP;
$OUT:
  st.global.f32 [%rd2], %f1;
  ret;
}
"#;
        let k = Arc::new(parse_kernel(src).unwrap());
        let mut sp = AddressSpace::new();
        let a = sp.alloc(4 * 16);
        let o = sp.alloc(4);
        let mut mem = GlobalMem::for_space(&sp);
        mem.copy_from_host_f32(a.base, &[1.0; 16]);
        let launch = Launch::new(
            k,
            Dim3::x(1),
            Dim3::x(1),
            vec![
                ArgValue::Ptr(a.base),
                ArgValue::Ptr(o.base),
                ArgValue::U32(16),
            ],
        );
        execute_launch(&launch, &mut mem).unwrap();
        assert_eq!(mem.read_f32(o.base), 16.0);
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let src = r#"
.entry spin(.param .u64 A)
{
$TOP:
  bra $TOP;
}
"#;
        let k = Arc::new(parse_kernel(src).unwrap());
        let mut sp = AddressSpace::new();
        let a = sp.alloc(4);
        let mut mem = GlobalMem::for_space(&sp);
        let launch = Launch::new(k, Dim3::x(1), Dim3::x(1), vec![ArgValue::Ptr(a.base)]);
        let err = execute_launch(&launch, &mut mem).unwrap_err();
        assert!(matches!(err, ExecError::StepLimit { .. }));
    }

    #[test]
    fn shared_memory_reverse_with_barrier() {
        // Each thread writes shared[tid], barrier, reads shared[ntid-1-tid].
        let src = r#"
.entry rev(.param .u64 A, .param .u64 B)
{
  .shared 256;
  ld.param.u64 %rd1, [A];
  ld.param.u64 %rd2, [B];
  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mul.wide.u32 %rd3, %r1, 4;
  add.u64 %rd4, %rd1, %rd3;
  ld.global.f32 %f1, [%rd4];
  shl.b32 %r3, %r1, 2;
  st.shared.f32 [%r3], %f1;
  bar.sync 0;
  sub.u32 %r4, %r2, 1;
  sub.u32 %r5, %r4, %r1;
  shl.b32 %r6, %r5, 2;
  ld.shared.f32 %f2, [%r6];
  add.u64 %rd5, %rd2, %rd3;
  st.global.f32 [%rd5], %f2;
  ret;
}
"#;
        let k = Arc::new(parse_kernel(src).unwrap());
        let mut sp = AddressSpace::new();
        let a = sp.alloc(4 * 64);
        let b = sp.alloc(4 * 64);
        let mut mem = GlobalMem::for_space(&sp);
        let av: Vec<f32> = (0..64).map(|i| i as f32).collect();
        mem.copy_from_host_f32(a.base, &av);
        let launch = Launch::new(
            k,
            Dim3::x(1),
            Dim3::x(64),
            vec![ArgValue::Ptr(a.base), ArgValue::Ptr(b.base)],
        );
        execute_launch(&launch, &mut mem).unwrap();
        let bv = mem.copy_to_host_f32(b.base, 64);
        for (i, v) in bv.iter().enumerate().take(64) {
            assert_eq!(*v, (63 - i) as f32);
        }
    }

    #[test]
    fn wild_global_access_is_a_typed_error() {
        // Each block reads and writes A[ctaid * 64]; only block 0 stays
        // inside A's 64 bytes.
        let src = r#"
.entry wild(.param .u64 A)
{
  ld.param.u64 %rd1, [A];
  mov.u32 %r1, %ctaid.x;
  mul.wide.u32 %rd2, %r1, 256;
  add.u64 %rd3, %rd1, %rd2;
  ld.global.f32 %f1, [%rd3];
  st.global.f32 [%rd3], %f1;
  ret;
}
"#;
        let k = Arc::new(parse_kernel(src).unwrap());
        let mut sp = AddressSpace::new();
        let a = sp.alloc(64);
        let mut mem = GlobalMem::for_space(&sp);
        let launch = Launch::new(k, Dim3::x(3), Dim3::x(1), vec![ArgValue::Ptr(a.base)]);
        assert!(execute_block(&launch, 0, &mut mem, &mut NullObserver).is_ok());
        let err = execute_block(&launch, 1, &mut mem, &mut NullObserver).unwrap_err();
        assert_eq!(
            err,
            ExecError::Unmapped {
                tb: 1,
                addr: a.base + 256
            }
        );
        assert!(err.to_string().contains("unmapped"));
        assert!(matches!(
            execute_launch(&launch, &mut mem),
            Err(ExecError::Unmapped { tb: 1, .. })
        ));
    }

    #[test]
    fn observer_sees_accesses() {
        struct Count(u64);
        impl ExecObserver for Count {
            fn on_global_access(&mut self, _t: ThreadId, _i: usize, _a: u64, _s: bool) {
                self.0 += 1;
            }
        }
        let n = 64u32;
        let mut sp = AddressSpace::new();
        let (a, b, c) = (sp.alloc(256), sp.alloc(256), sp.alloc(256));
        let mut mem = GlobalMem::for_space(&sp);
        let launch = vecadd_launch(n, a.base, b.base, c.base);
        let mut obs = Count(0);
        execute_block(&launch, 0, &mut mem, &mut obs).unwrap();
        assert_eq!(obs.0, 64 * 3);
    }
}
