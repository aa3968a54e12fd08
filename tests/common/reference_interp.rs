//! The thread-serial interpreter that preceded `bm_ptx::interp::Program`,
//! kept verbatim as the oracle the decoded engine is checked against
//! (`tests/interp_oracle.rs`). It walks the `Op` tree per instruction with
//! one `Vec` per register class and thread.

#![allow(dead_code)]

use bm_ptx::interp::{ExecError, ExecObserver, ExecStats, ThreadId};
use bm_ptx::isa::*;
use bm_ptx::kernel::Launch;
use bm_ptx::mem::GlobalMem;

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
/// thread ids, the oracle of `Program::execute_subset`.
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
