//! Functional (architecturally-correct) interpreter for mini-PTX kernels.
//!
//! Used for three things: validating workload kernels, producing dynamic
//! traces for the timing model (via [`ExecObserver`]), and the end-to-end
//! correctness check that BlockMaestro's overlapped schedules compute the
//! same memory state as serialized execution.
//!
//! A launch is decoded once into a [`Program`] of register-indexed
//! micro-ops, which then executes any number of its blocks. Every operand
//! resolves at decode time to a slot of one flat per-thread register row
//! of `u64`s: the register files (one section per view an operand can
//! take: 32-bit, 64-bit, float, predicate), the thread and block indices,
//! and constant slots holding the launch dimensions, parameters and
//! immediates already converted to the view that reads them. The decode
//! then specialises the micro-ops to the launch: a register that always
//! holds one launch constant is read from its constant slot, and a 32-bit
//! unsigned division by a constant becomes a shift, a mask or a multiply.
//!
//! One engine executes the micro-ops ([`Lockstep`], `interp/lockstep.rs`),
//! in groups of 32 lanes or of one. The plain and logged serialized passes
//! and the launch-time trace run warps, 32 lanes per dispatch.
//! [`Program::execute_block`] runs one lane at a time: threads in id
//! order, each until it exits or reaches a barrier, with the same observer
//! callbacks, statistics, step limit and error points as a direct walk
//! over the [`Op`] tree. A warp run gives the same memory, statistics and
//! errors, and a block it cannot keep in that order reruns one lane at a
//! time.

use crate::isa::*;
use crate::kernel::Launch;
use crate::mem::GlobalMem;
use std::collections::HashMap;
use std::fmt;

mod lockstep;

pub use lockstep::Lockstep;
pub(crate) use lockstep::{Sink, WARP};

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
    /// A block past the launch's grid, or a thread list that is not
    /// strictly ascending below the block's thread count.
    OutsideLaunch {
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
            ExecError::OutsideLaunch { tb } => {
                write!(f, "block {tb} or a thread it lists is outside the launch")
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

/// Executes a single thread block functionally.
///
/// Decodes the launch for this one block; callers running many blocks of
/// a launch, or wanting another step budget than
/// [`MAX_STEPS_PER_THREAD`], decode it once with [`Program::new`].
///
/// # Errors
///
/// Returns [`ExecError`] on runaway loops, shared-memory overflow, a
/// global access to an unmapped device address, or a block outside the
/// launch.
pub fn execute_block<O: ExecObserver>(
    launch: &Launch,
    tb: u32,
    mem: &mut GlobalMem,
    obs: &mut O,
) -> Result<ExecStats, ExecError> {
    Program::new(launch).execute_block(tb, mem, obs, MAX_STEPS_PER_THREAD)
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

/// Executes every block of a launch in linear block-id order, on the
/// warp-lockstep engine ([`Lockstep`]).
///
/// # Errors
///
/// Propagates the first [`ExecError`] from any block.
pub fn execute_launch(launch: &Launch, mem: &mut GlobalMem) -> Result<ExecStats, ExecError> {
    let program = Program::new(launch);
    let mut warps = Lockstep::new();
    let mut stats = ExecStats::default();
    for tb in 0..launch.num_blocks() {
        stats.merge(&warps.execute_block(&program, tb, mem, MAX_STEPS_PER_THREAD)?);
    }
    Ok(stats)
}

/// Index of a slot in a thread's register row.
type Slot = u32;

/// Always 0: the 64-bit view of float and predicate registers.
const ZERO: Slot = 0;
/// Always 1: the guard slot of an unguarded instruction.
const ONE: Slot = 1;
/// `%tid.x` / `%tid.y` as integers, then as floats.
const TID: [Slot; 4] = [2, 3, 4, 5];
/// `%ctaid.x` / `%ctaid.y` as integers, then as floats.
const CTAID: [Slot; 4] = [6, 7, 8, 9];
/// Slots before the first constant.
const FIXED: usize = 10;

/// Register-file sections of a row, one per operand view.
#[derive(Clone, Copy)]
enum Sec {
    R32 = 0,
    R64 = 1,
    F32 = 2,
    Pred = 3,
}

/// Decoded operations, on the slots of their [`MicroInst`]: `d` is
/// written, `a`, `b` and `c` are read. Integer slots hold zero-extended
/// values, float slots `f32` bits and predicate slots 0 or 1, so a 32-bit
/// value read through its 64-bit view needs no conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UOp {
    /// Changes nothing: a write through a view with no predicate form.
    Nop,
    Copy,
    /// Low 32 bits of a 64-bit value.
    Trunc32,
    /// Float to 32-bit integer (`as` conversion).
    F2U,
    /// 64-bit integer to float.
    U2F,
    IntU32(IntOp),
    IntS32(IntOp),
    IntU64(IntOp),
    /// `a / d` and `a % d` of 32-bit values by a launch constant `d`, a
    /// power of two: `a >> imm` and `a & imm`.
    DivShr,
    RemAnd,
    /// The same by any other constant `d > 2`, held in slot `b`, with
    /// `imm` = ⌈2^64 / d⌉ (see [`div_by`]).
    DivMul,
    RemMul,
    /// Low bits of `a * b + c`.
    Mad32,
    Mad64,
    /// `a * b` of zero-extended 32-bit values, plus `c` for `MadWide`.
    MulWide,
    MadWide,
    Float(FloatOp),
    Fma,
    Sqrt,
    /// Unsigned compare of two zero-extended integer views.
    SetpU(CmpOp),
    SetpS32(CmpOp),
    SetpF(CmpOp),
    /// `c != 0 ? a : b`.
    Selp,
    /// Global load of `[a + imm]` into `d`, store of `a` to `[b + imm]`.
    LdG,
    StG,
    /// Shared load and store, as the global ones with a 32-bit base and a
    /// signed offset.
    LdS,
    StS,
    /// Jump to instruction `imm`.
    Bra,
    Bar,
    Ret,
}

/// A decoded instruction: it executes unless `row[guard] == skip`.
#[derive(Debug, Clone, Copy)]
struct MicroInst {
    op: UOp,
    d: Slot,
    a: Slot,
    b: Slot,
    c: Slot,
    /// Memory offset (bits of an `i64`) or branch target.
    imm: u64,
    guard: Slot,
    skip: u64,
}

impl MicroInst {
    /// Whether the micro-op writes slot `d`.
    fn writes(&self) -> bool {
        !matches!(
            self.op,
            UOp::Nop | UOp::StG | UOp::StS | UOp::Bra | UOp::Bar | UOp::Ret
        )
    }
}

/// An unguarded micro-op.
fn mi(op: UOp, d: Slot, a: Slot, b: Slot, c: Slot) -> MicroInst {
    MicroInst {
        op,
        d,
        a,
        b,
        c,
        imm: 0,
        guard: ONE,
        skip: 0,
    }
}

/// Builds a [`Program`]'s slots. Register sections follow the constants,
/// so decoding runs twice: the first pass sizes every section by the
/// highest index any operand view touches, the second lays them out.
struct Decoder<'l> {
    launch: &'l Launch,
    /// Constant slot values; the fixed slots come first.
    consts: Vec<u64>,
    const_slot: HashMap<u64, Slot>,
    /// Registers per section, and each section's first slot.
    size: [u32; 4],
    base: [u32; 4],
}

impl<'l> Decoder<'l> {
    fn new(launch: &'l Launch) -> Self {
        let mut consts = vec![0; FIXED];
        consts[ONE as usize] = 1;
        Decoder {
            launch,
            consts,
            const_slot: HashMap::from([(0, ZERO), (1, ONE)]),
            size: [0; 4],
            base: [0; 4],
        }
    }

    fn konst(&mut self, v: u64) -> Slot {
        *self.const_slot.entry(v).or_insert_with(|| {
            self.consts.push(v);
            (self.consts.len() - 1) as Slot
        })
    }

    fn reg(&mut self, sec: Sec, idx: u16) -> Slot {
        let s = sec as usize;
        self.size[s] = self.size[s].max(u32::from(idx) + 1);
        self.base[s] + u32::from(idx)
    }

    /// Slot of a special register read as an integer (`float` false) or as
    /// a float.
    fn special(&mut self, s: Special, float: bool) -> Slot {
        let f = 2 * usize::from(float);
        let l = self.launch;
        let v = match s {
            Special::TidX => return TID[f],
            Special::TidY => return TID[f + 1],
            Special::CtaidX => return CTAID[f],
            Special::CtaidY => return CTAID[f + 1],
            Special::NtidX => l.block.x,
            Special::NtidY => l.block.y,
            Special::NctaidX => l.grid.x,
            Special::NctaidY => l.grid.y,
        };
        self.konst(if float {
            u64::from((v as f32).to_bits())
        } else {
            u64::from(v)
        })
    }

    /// The 32-bit integer view of an operand.
    fn v32(&mut self, o: Operand) -> Slot {
        match o {
            Operand::Reg(r) => self.reg(Sec::R32, r.idx),
            Operand::ImmI(v) => self.konst(u64::from(v as u32)),
            Operand::ImmF(v) => self.konst(u64::from(v.to_bits())),
            Operand::Special(s) => self.special(s, false),
        }
    }

    /// The 64-bit integer view of an operand.
    fn v64(&mut self, o: Operand) -> Slot {
        match o {
            Operand::Reg(r) => match r.class {
                RegClass::R64 => self.reg(Sec::R64, r.idx),
                RegClass::R32 => self.reg(Sec::R32, r.idx),
                RegClass::F32 | RegClass::Pred => ZERO,
            },
            Operand::ImmI(v) => self.konst(v as u64),
            Operand::ImmF(v) => self.konst(u64::from(v.to_bits())),
            Operand::Special(s) => self.special(s, false),
        }
    }

    /// The float view of an operand.
    fn vf(&mut self, o: Operand) -> Slot {
        match o {
            Operand::Reg(r) => self.reg(Sec::F32, r.idx),
            Operand::ImmF(v) => self.konst(u64::from(v.to_bits())),
            Operand::ImmI(v) => self.konst(u64::from((v as f32).to_bits())),
            Operand::Special(s) => self.special(s, true),
        }
    }

    /// The view of `o` that a register of `class` is written from (a
    /// predicate destination is decoded apart; it takes the float view).
    fn view(&mut self, class: RegClass, o: Operand) -> Slot {
        match class {
            RegClass::R32 => self.v32(o),
            RegClass::R64 => self.v64(o),
            RegClass::F32 | RegClass::Pred => self.vf(o),
        }
    }

    /// The slot of `dst` in the section of its own class.
    fn dst(&mut self, dst: Reg) -> Slot {
        let sec = match dst.class {
            RegClass::R32 => Sec::R32,
            RegClass::R64 => Sec::R64,
            RegClass::F32 => Sec::F32,
            RegClass::Pred => Sec::Pred,
        };
        self.reg(sec, dst.idx)
    }

    fn pred(&mut self, r: Reg) -> Slot {
        self.reg(Sec::Pred, r.idx)
    }

    fn op(&mut self, op: &Op) -> MicroInst {
        const Z: Slot = ZERO;
        match *op {
            Op::Mov { dst, src } => match (dst.class, src) {
                (RegClass::Pred, Operand::Reg(r)) => {
                    mi(UOp::Copy, self.pred(dst), self.pred(r), Z, Z)
                }
                (RegClass::Pred, _) => mi(UOp::Nop, Z, Z, Z, Z),
                (class, src) => mi(UOp::Copy, self.dst(dst), self.view(class, src), Z, Z),
            },
            Op::Cvt { dst, src } => {
                let src_class = match src {
                    Operand::Reg(r) => r.class,
                    Operand::ImmF(_) => RegClass::F32,
                    _ => RegClass::R32,
                };
                let (op, a) = match (dst.class, src_class) {
                    (RegClass::R64, _) => (UOp::Copy, self.v64(src)),
                    (RegClass::R32, RegClass::F32) => (UOp::F2U, self.vf(src)),
                    (RegClass::R32, _) => (UOp::Trunc32, self.v64(src)),
                    (RegClass::F32, RegClass::F32) => (UOp::Copy, self.vf(src)),
                    (RegClass::F32, _) => (UOp::U2F, self.v64(src)),
                    (RegClass::Pred, _) => (UOp::Nop, Z),
                };
                mi(op, self.dst(dst), a, Z, Z)
            }
            Op::Int { op, ty, dst, a, b } => {
                let (op, a, b, d) = match ty {
                    IntTy::U32 => (
                        UOp::IntU32(op),
                        self.v32(a),
                        self.v32(b),
                        self.reg(Sec::R32, dst.idx),
                    ),
                    IntTy::S32 => (
                        UOp::IntS32(op),
                        self.v32(a),
                        self.v32(b),
                        self.reg(Sec::R32, dst.idx),
                    ),
                    IntTy::U64 => (
                        UOp::IntU64(op),
                        self.v64(a),
                        self.v64(b),
                        self.reg(Sec::R64, dst.idx),
                    ),
                };
                mi(op, d, a, b, Z)
            }
            Op::Mad { ty, dst, a, b, c } => match ty {
                IntTy::U32 | IntTy::S32 => {
                    let (a, b, c) = (self.v32(a), self.v32(b), self.v32(c));
                    mi(UOp::Mad32, self.reg(Sec::R32, dst.idx), a, b, c)
                }
                IntTy::U64 => {
                    let (a, b, c) = (self.v64(a), self.v64(b), self.v64(c));
                    mi(UOp::Mad64, self.reg(Sec::R64, dst.idx), a, b, c)
                }
            },
            Op::MulWide { dst, a, b } => {
                let (a, b) = (self.v32(a), self.v32(b));
                mi(UOp::MulWide, self.reg(Sec::R64, dst.idx), a, b, Z)
            }
            Op::MadWide { dst, a, b, c } => {
                let (a, b, c) = (self.v32(a), self.v32(b), self.v64(c));
                mi(UOp::MadWide, self.reg(Sec::R64, dst.idx), a, b, c)
            }
            Op::Float { op, dst, a, b } => {
                let (a, b) = (self.vf(a), self.vf(b));
                mi(UOp::Float(op), self.reg(Sec::F32, dst.idx), a, b, Z)
            }
            Op::Fma { dst, a, b, c } => {
                let (a, b, c) = (self.vf(a), self.vf(b), self.vf(c));
                mi(UOp::Fma, self.reg(Sec::F32, dst.idx), a, b, c)
            }
            Op::Sqrt { dst, a } => mi(UOp::Sqrt, self.reg(Sec::F32, dst.idx), self.vf(a), Z, Z),
            Op::Setp { cmp, ty, dst, a, b } => {
                let (a, b) = match ty {
                    IntTy::U32 | IntTy::S32 => (self.v32(a), self.v32(b)),
                    IntTy::U64 => (self.v64(a), self.v64(b)),
                };
                let op = match ty {
                    IntTy::S32 => UOp::SetpS32(cmp),
                    IntTy::U32 | IntTy::U64 => UOp::SetpU(cmp),
                };
                mi(op, self.pred(dst), a, b, Z)
            }
            Op::SetpF { cmp, dst, a, b } => {
                let (a, b) = (self.vf(a), self.vf(b));
                mi(UOp::SetpF(cmp), self.pred(dst), a, b, Z)
            }
            Op::Selp { dst, a, b, p } => {
                let p = self.pred(p);
                if dst.class == RegClass::Pred {
                    return mi(UOp::Nop, Z, Z, Z, Z);
                }
                let (a, b) = (self.view(dst.class, a), self.view(dst.class, b));
                mi(UOp::Selp, self.dst(dst), a, b, p)
            }
            Op::Ld {
                space,
                ty,
                dst,
                addr,
            } => {
                let d = match ty {
                    MemTy::U32 => self.reg(Sec::R32, dst.idx),
                    MemTy::F32 => self.reg(Sec::F32, dst.idx),
                };
                let m = match space {
                    MemSpace::Global => mi(UOp::LdG, d, self.reg(Sec::R64, addr.base.idx), Z, Z),
                    MemSpace::Shared => mi(UOp::LdS, d, self.reg(Sec::R32, addr.base.idx), Z, Z),
                };
                MicroInst {
                    imm: addr.offset as u64,
                    ..m
                }
            }
            Op::St {
                space,
                ty,
                src,
                addr,
            } => {
                let a = match ty {
                    MemTy::U32 => self.v32(src),
                    MemTy::F32 => self.vf(src),
                };
                let m = match space {
                    MemSpace::Global => mi(UOp::StG, Z, a, self.reg(Sec::R64, addr.base.idx), Z),
                    MemSpace::Shared => mi(UOp::StS, Z, a, self.reg(Sec::R32, addr.base.idx), Z),
                };
                MicroInst {
                    imm: addr.offset as u64,
                    ..m
                }
            }
            Op::LdParam { dst, param } => {
                // A parameter without an argument cannot pass
                // `validate_launch`; it reads as zero.
                let raw = self
                    .launch
                    .args
                    .get(usize::from(param))
                    .map_or(0, |a| a.as_u64());
                let v = match dst.class {
                    RegClass::R64 => raw,
                    RegClass::R32 | RegClass::F32 => u64::from(raw as u32),
                    RegClass::Pred => return mi(UOp::Nop, Z, Z, Z, Z),
                };
                mi(UOp::Copy, self.dst(dst), self.konst(v), Z, Z)
            }
            Op::Bra { target } => MicroInst {
                // Every target past the body exits the thread.
                imm: target.min(self.launch.kernel.body.len()) as u64,
                ..mi(UOp::Bra, Z, Z, Z, Z)
            },
            Op::Bar => mi(UOp::Bar, Z, Z, Z, Z),
            Op::Ret => mi(UOp::Ret, Z, Z, Z, Z),
        }
    }

    fn inst(&mut self, inst: &Inst) -> MicroInst {
        let mut m = self.op(&inst.op);
        if let Some(g) = inst.guard {
            m.guard = self.pred(g.pred);
            m.skip = u64::from(g.negated);
        }
        m
    }

    fn body(&mut self) -> Vec<MicroInst> {
        self.launch
            .kernel
            .body
            .iter()
            .map(|inst| self.inst(inst))
            .collect()
    }
}

/// Specialises decoded micro-ops to their launch's constants. A register
/// slot resolves to constant slot `k` when every write to it is an
/// unguarded copy of `k` and no thread can read it before writing it (it
/// is not in `zero`): wherever it is read, it holds `k`'s value, so its
/// reads take `k` itself. A 32-bit unsigned `div`/`rem` by a constant
/// `d ≠ 0` then becomes a shift or a mask when `d` is a power of two, and
/// a multiply by ⌈2^64 / d⌉ otherwise. Every rewrite computes the same
/// value for every input, and each instruction keeps its one micro-op.
fn specialise(ops: &mut [MicroInst], row: &[u64], regs: usize, zero: &[Slot]) {
    let constant = |s: Slot| (s as usize) < regs && !TID.contains(&s) && !CTAID.contains(&s);
    // Per slot, the constant every write so far copies: `UNSEEN` before
    // any write, `MIXED` once two writes differ or one copies anything else.
    const UNSEEN: Slot = Slot::MAX;
    const MIXED: Slot = Slot::MAX - 1;
    let mut from = vec![UNSEEN; row.len()];
    for i in ops.iter().filter(|i| i.writes()) {
        let k = if i.op == UOp::Copy && i.guard == ONE && constant(i.a) {
            i.a
        } else {
            MIXED
        };
        let f = &mut from[i.d as usize];
        *f = if *f == UNSEEN || *f == k { k } else { MIXED };
    }
    for &s in zero {
        from[s as usize] = MIXED;
    }
    let resolve = |s: Slot| match from[s as usize] {
        k if k < MIXED => k,
        _ => s,
    };
    for i in ops.iter_mut() {
        (i.a, i.b, i.c) = (resolve(i.a), resolve(i.b), resolve(i.c));
        let UOp::IntU32(op @ (IntOp::Div | IntOp::Rem)) = i.op else {
            continue;
        };
        let d = row[i.b as usize] as u32;
        if d == 0 || !constant(i.b) {
            continue;
        }
        (i.op, i.imm) = match (op, d.is_power_of_two()) {
            (IntOp::Div, true) => (UOp::DivShr, u64::from(d.trailing_zeros())),
            (_, true) => (UOp::RemAnd, u64::from(d - 1)),
            (IntOp::Div, false) => (UOp::DivMul, u64::MAX / u64::from(d) + 1),
            (_, false) => (UOp::RemMul, u64::MAX / u64::from(d) + 1),
        };
    }
}

/// `x / d` for `m` = ⌈2^64 / d⌉ and any `d` in `3..2^32` that is not a
/// power of two: the high half of `m · x`, exact for every `u32` `x`
/// ("Faster remainder by direct computation", Lemire, Kaser & Kurz 2019).
#[inline(always)]
fn div_by(m: u64, x: u32) -> u32 {
    ((u128::from(m) * u128::from(x)) >> 64) as u32
}

/// `x % d` for the same `m` and `d`: the high half of `(m · x mod 2^64) · d`.
#[inline(always)]
fn rem_by(m: u64, d: u32, x: u32) -> u32 {
    ((u128::from(m.wrapping_mul(u64::from(x))) * u128::from(d)) >> 64) as u32
}

/// A launch decoded for execution: its micro-ops and the register row
/// every thread starts from. Decoding is linear in the kernel body, so
/// callers decode once per launch and run any number of blocks (or lane
/// subsets of one block) from the same program, concurrently if they like.
#[derive(Debug, Clone)]
pub struct Program<'l> {
    launch: &'l Launch,
    /// One micro-op per instruction, specialised to the launch: reads of
    /// a register that always holds one launch constant read the constant
    /// slot, and a 32-bit `div`/`rem` by a constant is strength-reduced
    /// (`specialise`).
    ops: Vec<MicroInst>,
    /// Fixed and constant slots; the register sections after them are zero.
    row: Vec<u64>,
    /// First register slot: everything from here on is per thread.
    regs: usize,
    /// Whether any thread can stop at a barrier. Without one, every warp
    /// runs to completion in turn, so one register file serves them all.
    barrier: bool,
    /// The registers a thread can read before writing them, which the
    /// lockstep engine zeroes per warp.
    zero: Vec<Slot>,
}

impl<'l> Program<'l> {
    /// Decodes `launch`.
    pub fn new(launch: &'l Launch) -> Self {
        let mut dec = Decoder::new(launch);
        dec.body(); // sizes the register sections
        let mut next = dec.consts.len() as u32;
        for s in 0..4 {
            dec.base[s] = next;
            next += dec.size[s];
        }
        let mut ops = dec.body();
        let regs = dec.consts.len();
        let mut row = dec.consts;
        row.resize(next as usize, 0);
        let zero = lockstep::read_before_write(&ops, regs, row.len());
        specialise(&mut ops, &row, regs, &zero);
        Program {
            launch,
            barrier: ops.iter().any(|i| matches!(i.op, UOp::Bar)),
            zero,
            ops,
            row,
            regs,
        }
    }

    /// The decoded launch.
    pub fn launch(&self) -> &'l Launch {
        self.launch
    }

    /// Executes block `tb` one lane at a time: every thread, round-robin
    /// in thread-id order, each until it exits or reaches a barrier, which
    /// releases once no thread can run. `obs` sees each thread's
    /// instructions and global accesses in that order.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on runaway loops (more than `max_steps`
    /// instructions fetched by one thread), shared-memory overflow, a
    /// global access to an unmapped device address, or a block past the
    /// grid. Memory keeps the writes made before the failing instruction.
    pub fn execute_block<O: ExecObserver>(
        &self,
        tb: u32,
        mem: &mut GlobalMem,
        obs: &mut O,
        max_steps: u64,
    ) -> Result<ExecStats, ExecError> {
        self.observed(tb, mem, obs, max_steps, None)
    }

    /// [`Program::execute_block`] restricted to an explicit strictly
    /// ascending list of thread ids. No pipeline path runs a subset; the
    /// step-limit tests run single lanes through it, so a sweep over every
    /// budget need not repeat the whole block at each one.
    ///
    /// The scheduling discipline is identical to the full block
    /// (round-robin over the listed threads, block-wide barrier release
    /// among them), so for any subset the listed threads run in the same
    /// relative order as in a full execution; only the memory/shared-state
    /// writes of unlisted threads are absent.
    ///
    /// # Errors
    ///
    /// As [`Program::execute_block`], and [`ExecError::OutsideLaunch`] for
    /// a list that is not strictly ascending below the block's thread
    /// count.
    pub fn execute_subset<O: ExecObserver>(
        &self,
        tb: u32,
        mem: &mut GlobalMem,
        obs: &mut O,
        max_steps: u64,
        tids: &[u32],
    ) -> Result<ExecStats, ExecError> {
        self.observed(tb, mem, obs, max_steps, Some(tids))
    }

    fn observed<O: ExecObserver>(
        &self,
        tb: u32,
        mem: &mut GlobalMem,
        obs: &mut O,
        max_steps: u64,
        subset: Option<&[u32]>,
    ) -> Result<ExecStats, ExecError> {
        let mut sink = lockstep::Observed {
            obs,
            tb,
            body: &self.launch.kernel.body,
        };
        self.serial(&mut Lockstep::new(), &mut sink, tb, mem, max_steps, subset)
    }
}

#[inline]
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

#[inline]
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

#[inline]
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

#[inline]
fn float_op(op: FloatOp, x: f32, y: f32) -> f32 {
    match op {
        FloatOp::Add => x + y,
        FloatOp::Sub => x - y,
        FloatOp::Mul => x * y,
        FloatOp::Div => x / y,
        FloatOp::Min => x.min(y),
        FloatOp::Max => x.max(y),
    }
}

#[inline]
fn compare<T: PartialOrd>(cmp: CmpOp, x: T, y: T) -> bool {
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
