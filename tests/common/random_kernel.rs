//! The seeded random kernels of the interpreter suites (`interp_oracle`,
//! `interp_lockstep`): every `Op` over every register class and operand
//! kind, guards, forward branches, counted loops, `bar.sync` and shared
//! memory, each ending in a dump of every register to the thread's slice
//! of an output buffer.

#![allow(dead_code)]

use bm_ptx::isa::*;
use bm_ptx::kernel::{Kernel, Param};
use bm_testkit::Rng;

/// Register indices random operations use; higher indices are reserved for
/// addressing and loop control.
const N: u16 = 6;
/// `%r` index of the address scratch, `%r` index of the loop counter.
const R_ADDR: u16 = 6;
const R_LOOP: u16 = 7;
/// `%rd` index of the buffer base, `%rd` index of the address scratch,
/// then the output base and a scratch of the epilogue.
const RD_BASE: u16 = 6;
const RD_ADDR: u16 = 7;
const RD_OUT: u16 = 8;
const RD_TMP: u16 = 9;
/// Words of the epilogue's register dump per thread: every `%r`, the low
/// and high halves of every `%rd`, every `%f` and every `%p`.
pub const DUMP: u64 = 5 * N as u64;
/// Predicate of the loop branch.
const P_LOOP: u16 = 6;
/// Words in the global buffer a random kernel addresses.
pub const WORDS: u64 = 64;
/// Shared bytes of a random kernel.
const SHARED: u32 = 256;

const CLASSES: [RegClass; 4] = [RegClass::R32, RegClass::R64, RegClass::F32, RegClass::Pred];
const INT_OPS: [IntOp; 12] = [
    IntOp::Add,
    IntOp::Sub,
    IntOp::Mul,
    IntOp::Div,
    IntOp::Rem,
    IntOp::Min,
    IntOp::Max,
    IntOp::And,
    IntOp::Or,
    IntOp::Xor,
    IntOp::Shl,
    IntOp::Shr,
];
const INT_TYS: [IntTy; 3] = [IntTy::U32, IntTy::S32, IntTy::U64];
const FLOAT_OPS: [FloatOp; 6] = [
    FloatOp::Add,
    FloatOp::Sub,
    FloatOp::Mul,
    FloatOp::Div,
    FloatOp::Min,
    FloatOp::Max,
];
const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn any_reg(rng: &mut Rng) -> Reg {
    Reg::new(*rng.pick(&CLASSES), rng.below(u64::from(N)) as u16)
}

/// Any operand kind: a register of any class, an integer or float
/// immediate, or any special register.
fn any_operand(rng: &mut Rng) -> Operand {
    match rng.below(4) {
        0 | 1 => Operand::Reg(any_reg(rng)),
        2 => Operand::ImmI(match rng.below(4) {
            0 => rng.range_i64(-3, 40),
            1 => rng.next_u64() as i64,
            2 => i64::from(rng.next_u64() as u32),
            _ => -(rng.below(1 << 40) as i64),
        }),
        _ => match rng.below(3) {
            0 => Operand::ImmF(*rng.pick(&[0.0, -0.0, 1.5, -2.25, 1e30, f32::NAN, f32::INFINITY])),
            1 => Operand::ImmF(f32::from_bits(rng.next_u64() as u32)),
            _ => Operand::Special(*rng.pick(&Special::ALL)),
        },
    }
}

/// `%r{R_ADDR}` ← a word index below `mask + 1` derived from `src`.
fn index_into(body: &mut Vec<Inst>, src: Operand, mask: i64) {
    body.push(Inst::new(Op::Int {
        op: IntOp::And,
        ty: IntTy::U32,
        dst: Reg::r32(R_ADDR),
        a: src,
        b: Operand::ImmI(mask),
    }));
}

/// One random instruction (or a short addressing sequence ending in a
/// memory access), guarded at random.
fn random_inst(rng: &mut Rng, body: &mut Vec<Inst>, len_hint: usize) {
    let dst = any_reg(rng);
    let (a, b, c) = (any_operand(rng), any_operand(rng), any_operand(rng));
    let op = match rng.below(17) {
        0 => Op::Mov { dst, src: a },
        1 => Op::Cvt { dst, src: a },
        2 => Op::Int {
            op: *rng.pick(&INT_OPS),
            ty: *rng.pick(&INT_TYS),
            dst,
            a,
            b,
        },
        3 => Op::Mad {
            ty: *rng.pick(&INT_TYS),
            dst,
            a,
            b,
            c,
        },
        4 => Op::MulWide { dst, a, b },
        5 => Op::MadWide { dst, a, b, c },
        6 => Op::Float {
            op: *rng.pick(&FLOAT_OPS),
            dst,
            a,
            b,
        },
        7 => Op::Fma { dst, a, b, c },
        8 => Op::Sqrt { dst, a },
        9 => Op::Setp {
            cmp: *rng.pick(&CMPS),
            ty: *rng.pick(&INT_TYS),
            dst,
            a,
            b,
        },
        10 => Op::SetpF {
            cmp: *rng.pick(&CMPS),
            dst,
            a,
            b,
        },
        11 => Op::Selp {
            dst,
            a,
            b,
            p: any_reg(rng),
        },
        12 => Op::LdParam {
            dst,
            param: rng.below(3) as u16,
        },
        13 | 14 => {
            // Global access inside the buffer.
            index_into(body, a, WORDS as i64 - 4);
            body.push(Inst::new(Op::MulWide {
                dst: Reg::r64(RD_ADDR),
                a: Operand::Reg(Reg::r32(R_ADDR)),
                b: Operand::ImmI(4),
            }));
            body.push(Inst::new(Op::Int {
                op: IntOp::Add,
                ty: IntTy::U64,
                dst: Reg::r64(RD_ADDR),
                a: Operand::Reg(Reg::r64(RD_ADDR)),
                b: Operand::Reg(Reg::r64(RD_BASE)),
            }));
            let addr = Addr {
                base: Reg::r64(RD_ADDR),
                offset: 4 * rng.below(4) as i64,
            };
            let ty = *rng.pick(&[MemTy::U32, MemTy::F32]);
            if rng.flip() {
                Op::Ld {
                    space: MemSpace::Global,
                    ty,
                    dst,
                    addr,
                }
            } else {
                Op::St {
                    space: MemSpace::Global,
                    ty,
                    src: b,
                    addr,
                }
            }
        }
        15 => {
            // Shared access; the last word plus offset 4 overflows, and an
            // unmasked index almost always does.
            index_into(body, a, if rng.chance(1, 8) { -1 } else { 63 });
            body.push(Inst::new(Op::Int {
                op: IntOp::Shl,
                ty: IntTy::U32,
                dst: Reg::r32(R_ADDR),
                a: Operand::Reg(Reg::r32(R_ADDR)),
                b: Operand::ImmI(2),
            }));
            let addr = Addr {
                base: Reg::r32(R_ADDR),
                offset: 4 * rng.below(2) as i64,
            };
            let ty = *rng.pick(&[MemTy::U32, MemTy::F32]);
            if rng.flip() {
                Op::Ld {
                    space: MemSpace::Shared,
                    ty,
                    dst,
                    addr,
                }
            } else {
                Op::St {
                    space: MemSpace::Shared,
                    ty,
                    src: b,
                    addr,
                }
            }
        }
        _ => match rng.below(4) {
            0 => Op::Bar,
            1 => Op::Ret,
            // Forward only: loops come from `random_kernel`.
            _ => Op::Bra {
                target: body.len() + 1 + rng.below(len_hint as u64 / 4 + 2) as usize,
            },
        },
    };
    let inst = if rng.chance(1, 3) {
        Inst::guarded(any_reg(rng), rng.flip(), op)
    } else {
        Inst::new(op)
    };
    body.push(inst);
}

/// Stores every register, through its own view, to the thread's slice of
/// the output buffer, so a wrong value anywhere shows in memory.
fn dump_registers(body: &mut Vec<Inst>) {
    let r = |i| Operand::Reg(Reg::r32(i));
    let sp = Operand::Special;
    let int = |op, ty, dst, a, b| Inst::new(Op::Int { op, ty, dst, a, b });
    let mad = |dst, a, b, c| {
        Inst::new(Op::Mad {
            ty: IntTy::U32,
            dst,
            a,
            b,
            c,
        })
    };
    // Linear thread id across the grid.
    body.push(mad(
        Reg::r32(R_LOOP),
        sp(Special::CtaidY),
        sp(Special::NctaidX),
        sp(Special::CtaidX),
    ));
    body.push(int(
        IntOp::Mul,
        IntTy::U32,
        Reg::r32(R_ADDR),
        sp(Special::NtidX),
        sp(Special::NtidY),
    ));
    body.push(int(
        IntOp::Mul,
        IntTy::U32,
        Reg::r32(R_LOOP),
        r(R_LOOP),
        r(R_ADDR),
    ));
    body.push(mad(
        Reg::r32(R_ADDR),
        sp(Special::TidY),
        sp(Special::NtidX),
        sp(Special::TidX),
    ));
    body.push(int(
        IntOp::Add,
        IntTy::U32,
        Reg::r32(R_LOOP),
        r(R_LOOP),
        r(R_ADDR),
    ));
    body.push(Inst::new(Op::MadWide {
        dst: Reg::r64(RD_ADDR),
        a: r(R_LOOP),
        b: Operand::ImmI(4 * DUMP as i64),
        c: Operand::Reg(Reg::r64(RD_OUT)),
    }));
    let mut word = 0i64;
    let mut store = |body: &mut Vec<Inst>, ty, src| {
        body.push(Inst::new(Op::St {
            space: MemSpace::Global,
            ty,
            src,
            addr: Addr {
                base: Reg::r64(RD_ADDR),
                offset: 4 * word,
            },
        }));
        word += 1;
    };
    for i in 0..N {
        store(body, MemTy::U32, r(i));
        store(body, MemTy::F32, Operand::Reg(Reg::f32(i)));
        body.push(Inst::new(Op::Cvt {
            dst: Reg::r32(R_ADDR),
            src: Operand::Reg(Reg::r64(i)),
        }));
        store(body, MemTy::U32, r(R_ADDR));
        body.push(int(
            IntOp::Shr,
            IntTy::U64,
            Reg::r64(RD_TMP),
            Operand::Reg(Reg::r64(i)),
            Operand::ImmI(32),
        ));
        body.push(Inst::new(Op::Cvt {
            dst: Reg::r32(R_ADDR),
            src: Operand::Reg(Reg::r64(RD_TMP)),
        }));
        store(body, MemTy::U32, r(R_ADDR));
        body.push(Inst::new(Op::Selp {
            dst: Reg::r32(R_ADDR),
            a: Operand::ImmI(1),
            b: Operand::ImmI(0),
            p: Reg::pred(i),
        }));
        store(body, MemTy::U32, r(R_ADDR));
    }
}

/// A random kernel: a prologue that sizes every register file, then
/// straight-line random instructions with an optional counted loop around
/// part of them, then a dump of every register.
pub fn random_kernel(rng: &mut Rng) -> Kernel {
    let mut body = vec![
        Inst::new(Op::LdParam {
            dst: Reg::r64(RD_BASE),
            param: 0,
        }),
        Inst::new(Op::LdParam {
            dst: Reg::r64(RD_OUT),
            param: 3,
        }),
    ];
    for class in CLASSES {
        let src = match class {
            RegClass::Pred => Operand::Reg(Reg::pred(0)),
            _ => Operand::Special(Special::TidX),
        };
        body.push(Inst::new(Op::Mov {
            dst: Reg::new(class, N - 1),
            src,
        }));
    }
    for i in 0..N {
        body.push(Inst::new(Op::Mad {
            ty: IntTy::U32,
            dst: Reg::r32(i),
            a: Operand::Special(*rng.pick(&Special::ALL)),
            b: Operand::ImmI(rng.range_i64(1, 9)),
            c: Operand::Special(Special::TidY),
        }));
    }
    let len = rng.range_usize(8, 40);
    let looped = rng.flip();
    if looped {
        body.push(Inst::new(Op::Mov {
            dst: Reg::r32(R_LOOP),
            src: Operand::ImmI(0),
        }));
    }
    let head = body.len();
    for _ in 0..len {
        random_inst(rng, &mut body, len);
    }
    if looped {
        body.push(Inst::new(Op::Int {
            op: IntOp::Add,
            ty: IntTy::U32,
            dst: Reg::r32(R_LOOP),
            a: Operand::Reg(Reg::r32(R_LOOP)),
            b: Operand::ImmI(1),
        }));
        body.push(Inst::new(Op::Setp {
            cmp: CmpOp::Lt,
            ty: IntTy::U32,
            dst: Reg::pred(P_LOOP),
            a: Operand::Reg(Reg::r32(R_LOOP)),
            b: Operand::ImmI(rng.range_i64(2, 6)),
        }));
        body.push(Inst::guarded(
            Reg::pred(P_LOOP),
            false,
            Op::Bra { target: head },
        ));
    }
    for _ in 0..rng.below(4) {
        random_inst(rng, &mut body, len);
    }
    dump_registers(&mut body);
    body.push(Inst::new(Op::Ret));
    Kernel {
        name: "random".into(),
        params: vec![
            Param {
                name: "A".into(),
                ty: ParamTy::U64,
            },
            Param {
                name: "n".into(),
                ty: ParamTy::U32,
            },
            Param {
                name: "x".into(),
                ty: ParamTy::F32,
            },
            Param {
                name: "OUT".into(),
                ty: ParamTy::U64,
            },
        ],
        body,
        shared_bytes: SHARED,
    }
}
