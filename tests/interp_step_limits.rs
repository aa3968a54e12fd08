//! The decoded interpreter's step limit against the reference interpreter
//! (`tests/common/reference_interp.rs`) at every budget a thread can reach.
//!
//! `interp_oracle`'s fixed limits land on a few instructions only. Here,
//! for every `max_steps` from 1 to the longest thread's step count + 1,
//! both engines must return the same `ExecStats`, or the same `ExecError`
//! with the same partial memory: wherever the limit lands, inside a
//! straight-line run, on a branch, a barrier, a guard-skipped instruction
//! or an address chain. A whole block repeats every thread before the
//! failing one at every budget, so the sweep runs lanes alone: the first,
//! the last and the one that fails last in the whole block; the whole
//! block is checked at the budgets around its longest thread's count.

#[path = "common/reference_interp.rs"]
mod reference;

use bm_ptx::interp::{ExecError, ExecObserver, ExecStats, Program, ThreadId};
use bm_ptx::isa::*;
use bm_ptx::kernel::{ArgValue, Dim3, Kernel, Launch, Param};
use bm_ptx::mem::{AddressSpace, GlobalMem};
use bm_testkit::Rng;
use bm_workloads::{suite, Scale};
use std::sync::Arc;

/// The global stores of a block, in order.
#[derive(Default)]
struct Stores(Vec<u64>);

impl ExecObserver for Stores {
    fn on_global_access(&mut self, _t: ThreadId, _i: usize, addr: u64, store: bool) {
        if store {
            self.0.push(addr);
        }
    }
}

/// A run's outcome and the words its stores left: memory outside them is
/// the initial image on both engines.
type Outcome = (Result<ExecStats, ExecError>, Vec<(u64, Option<u32>)>);

/// Block `tb` on one engine from `mem`, all lanes (`None`) or one.
fn run(
    program: Option<&Program>,
    launch: &Launch,
    tb: u32,
    mem: &GlobalMem,
    max_steps: u64,
    lane: Option<u32>,
) -> Outcome {
    let (mut mem, mut stores) = (mem.clone(), Stores::default());
    let r = match (program, lane) {
        (None, None) => {
            reference::execute_block_limited(launch, tb, &mut mem, &mut stores, max_steps)
        }
        (None, Some(t)) => {
            reference::execute_block_subset(launch, tb, &mut mem, &mut stores, max_steps, &[t])
        }
        (Some(p), None) => p.execute_block(tb, &mut mem, &mut stores, max_steps),
        (Some(p), Some(t)) => p.execute_subset(tb, &mut mem, &mut stores, max_steps, &[t]),
    };
    let words = stores
        .0
        .into_iter()
        .map(|a| (a, mem.try_read_u32(a)))
        .collect();
    (r, words)
}

/// The longest thread's step count in block `tb` on the reference (the
/// least budget the block runs within), and a thread that reaches it.
fn longest_thread(launch: &Launch, tb: u32, mem: &GlobalMem) -> (u64, u32) {
    let fits = |m: u64| match run(None, launch, tb, mem, m, None).0 {
        Ok(_) => true,
        Err(ExecError::StepLimit { .. }) => false,
        Err(e) => panic!("block {tb}: {e}"),
    };
    let mut hi = 1;
    while !fits(hi) {
        hi *= 2;
    }
    let mut lo = 0;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    match run(None, launch, tb, mem, hi - 1, None).0 {
        Err(ExecError::StepLimit { tid, .. }) => (hi, tid),
        other => panic!("block {tb} at {} steps: {other:?}", hi - 1),
    }
}

/// Compares both engines on block `tb`: lanes alone at every budget from 1
/// to the longest thread's step count + 1, and the whole block at the
/// budgets around that count; returns the count.
fn sweep(launch: &Launch, tb: u32, mem: &GlobalMem, what: &str) -> u64 {
    let program = Program::new(launch);
    let (most, longest) = longest_thread(launch, tb, mem);
    let mut lanes = vec![0, launch.threads_per_block() - 1, longest];
    lanes.sort_unstable();
    lanes.dedup();
    for max_steps in 1..=most + 1 {
        for &t in &lanes {
            let old = run(None, launch, tb, mem, max_steps, Some(t));
            let new = run(Some(&program), launch, tb, mem, max_steps, Some(t));
            assert_eq!(
                old, new,
                "{what}: block {tb} lane {t}, max_steps {max_steps}"
            );
        }
    }
    for max_steps in [most - 1, most, most + 1] {
        let old = run(None, launch, tb, mem, max_steps, None);
        let new = run(Some(&program), launch, tb, mem, max_steps, None);
        assert_eq!(old, new, "{what}: block {tb}, max_steps {max_steps}");
        assert_eq!(old.0.is_ok(), max_steps >= most, "{what}: block {tb}");
    }
    most
}

#[test]
fn every_limit_of_every_small_app_launch_matches_the_reference() {
    for b in suite() {
        let app = (b.build)(Scale::Small);
        let mut mem = app.initial_memory();
        for (k, launch) in app.launches().into_iter().enumerate() {
            if launch.num_blocks() > 0 {
                sweep(launch, 0, &mem, &format!("{} kernel {k}", b.name));
            }
            // Later launches start from the serialized memory.
            bm_ptx::interp::execute_launch(launch, &mut mem).unwrap();
        }
    }
}

// ---- seeded kernels ----------------------------------------------------

const R_IDX: u16 = 6;
const R_LOOP: u16 = 7;
const R_TRIP: u16 = 8;
const RD_BASE: u16 = 6;
const RD_ADDR: u16 = 7;
const RD_OFF: u16 = 8;
const P_LOOP: u16 = 6;
/// Words of the buffer a seeded kernel addresses.
const WORDS: i64 = 64;

fn reg(i: u16) -> Operand {
    Operand::Reg(Reg::r32(i))
}

fn imm(v: i64) -> Operand {
    Operand::ImmI(v)
}

/// `mul.wide` → `add.u64` → global access of `A[%r{src} & 63]`, each
/// instruction guarded at random. A skipped instruction leaves its
/// register at an earlier in-bounds offset or address.
fn chain(rng: &mut Rng, body: &mut Vec<Inst>) {
    body.push(Inst::new(Op::Int {
        op: IntOp::And,
        ty: IntTy::U32,
        dst: Reg::r32(R_IDX),
        a: reg(rng.below(4) as u16),
        b: imm(WORDS - 1),
    }));
    let mem = if rng.flip() {
        Op::Ld {
            space: MemSpace::Global,
            ty: MemTy::U32,
            dst: Reg::r32(rng.below(4) as u16),
            addr: Addr {
                base: Reg::r64(RD_ADDR),
                offset: 0,
            },
        }
    } else {
        Op::St {
            space: MemSpace::Global,
            ty: MemTy::U32,
            src: reg(rng.below(4) as u16),
            addr: Addr {
                base: Reg::r64(RD_ADDR),
                offset: 0,
            },
        }
    };
    let ops = [
        Op::MulWide {
            dst: Reg::r64(RD_OFF),
            a: reg(R_IDX),
            b: imm(4),
        },
        Op::Int {
            op: IntOp::Add,
            ty: IntTy::U64,
            dst: Reg::r64(RD_ADDR),
            a: Operand::Reg(Reg::r64(RD_BASE)),
            b: Operand::Reg(Reg::r64(RD_OFF)),
        },
        mem,
    ];
    for op in ops {
        body.push(guarded(rng, op, 6));
    }
}

/// `op`, guarded by a random predicate with chance `1 / one_in`.
fn guarded(rng: &mut Rng, op: Op, one_in: u64) -> Inst {
    if rng.chance(1, one_in) {
        Inst::guarded(Reg::pred(rng.below(2) as u16), rng.flip(), op)
    } else {
        Inst::new(op)
    }
}

/// One random straight-line instruction over `%r0..%r3` and `%p0..%p1`.
fn arith(rng: &mut Rng) -> Op {
    let r = |rng: &mut Rng| Reg::r32(rng.below(4) as u16);
    match rng.below(4) {
        0 => Op::Int {
            op: *rng.pick(&[IntOp::Add, IntOp::Mul, IntOp::Xor, IntOp::Shr]),
            ty: IntTy::U32,
            dst: r(rng),
            a: Operand::Reg(r(rng)),
            b: imm(rng.range_i64(1, 13)),
        },
        1 => Op::Mad {
            ty: IntTy::U32,
            dst: r(rng),
            a: Operand::Reg(r(rng)),
            b: imm(rng.range_i64(1, 7)),
            c: Operand::Special(Special::TidX),
        },
        _ => Op::Setp {
            cmp: *rng.pick(&[CmpOp::Lt, CmpOp::Ge, CmpOp::Ne]),
            ty: IntTy::U32,
            dst: Reg::pred(rng.below(2) as u16),
            a: Operand::Reg(r(rng)),
            b: imm(rng.range_i64(0, 40)),
        },
    }
}

/// A kernel whose threads loop a thread-dependent number of times over
/// straight-line code, address chains and guarded forward branches, with
/// an optional barrier in the loop.
fn seeded_kernel(rng: &mut Rng) -> Kernel {
    let mut body = vec![
        Inst::new(Op::LdParam {
            dst: Reg::r64(RD_BASE),
            param: 0,
        }),
        Inst::new(Op::LdParam {
            dst: Reg::r64(RD_ADDR),
            param: 0,
        }),
        Inst::new(Op::Mov {
            dst: Reg::r32(0),
            src: Operand::Special(Special::TidX),
        }),
        Inst::new(Op::Mov {
            dst: Reg::r32(1),
            src: Operand::Special(Special::CtaidX),
        }),
        // Trip count 1 + tid % 4.
        Inst::new(Op::Int {
            op: IntOp::Rem,
            ty: IntTy::U32,
            dst: Reg::r32(R_TRIP),
            a: Operand::Special(Special::TidX),
            b: imm(4),
        }),
        Inst::new(Op::Mov {
            dst: Reg::r32(R_LOOP),
            src: imm(0),
        }),
    ];
    let head = body.len();
    let barrier = rng.chance(1, 3);
    for _ in 0..rng.range_usize(2, 5) {
        for _ in 0..rng.range_usize(0, 4) {
            let op = arith(rng);
            body.push(guarded(rng, op, 3));
        }
        if rng.chance(1, 3) {
            // A guarded forward branch over the next chain.
            let at = body.len();
            body.push(Inst::guarded(
                Reg::pred(rng.below(2) as u16),
                rng.flip(),
                Op::Bra { target: at + 5 },
            ));
        }
        chain(rng, &mut body);
    }
    if barrier {
        body.push(Inst::new(Op::Bar));
    }
    body.extend([
        Inst::new(Op::Int {
            op: IntOp::Add,
            ty: IntTy::U32,
            dst: Reg::r32(R_LOOP),
            a: reg(R_LOOP),
            b: imm(1),
        }),
        Inst::new(Op::Setp {
            cmp: CmpOp::Le,
            ty: IntTy::U32,
            dst: Reg::pred(P_LOOP),
            a: reg(R_LOOP),
            b: reg(R_TRIP),
        }),
        Inst::guarded(Reg::pred(P_LOOP), false, Op::Bra { target: head }),
        Inst::new(Op::Ret),
    ]);
    Kernel {
        name: "seeded".into(),
        params: vec![Param {
            name: "A".into(),
            ty: ParamTy::U64,
        }],
        body,
        shared_bytes: 0,
    }
}

#[test]
fn every_limit_of_seeded_kernels_matches_the_reference() {
    let mut rng = Rng::new(0x57e9_1153);
    let mut fused = 0;
    for case in 0..24 {
        let kernel = Arc::new(seeded_kernel(&mut rng));
        let mut space = AddressSpace::new();
        let buf = space.alloc(4 * WORDS as u64);
        let launch = Launch::new(
            kernel,
            Dim3::x(2),
            Dim3::x(rng.range_u32(1, 9)),
            vec![ArgValue::Ptr(buf.base)],
        );
        let mut mem = GlobalMem::for_space(&space);
        let init: Vec<f32> = (0..WORDS).map(|i| (i * 7 % 11) as f32).collect();
        mem.copy_from_host_f32(buf.base, &init);
        let body = &launch.kernel.body;
        fused += body
            .windows(3)
            .filter(|w| {
                w.iter().all(|i| i.guard.is_none())
                    && matches!(w[0].op, Op::MulWide { .. })
                    && matches!(w[2].op, Op::Ld { .. } | Op::St { .. })
            })
            .count();
        let longest = sweep(&launch, 1, &mem, &format!("case {case}"));
        assert!(longest > 10, "case {case}: {longest} steps");
    }
    assert!(fused > 20, "{fused} fusable chains");
}
