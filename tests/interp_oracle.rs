//! The decoded interpreter (`bm_ptx::interp::Program`) against the
//! thread-serial interpreter it replaced, kept verbatim in
//! `tests/common/reference_interp.rs`: final memory, `ExecStats`, the
//! ordered observer callback stream, lane subsets, and the error plus
//! partial memory of failing blocks must all be identical.

#[path = "common/reference_interp.rs"]
mod reference;

use bm_cmdq::Application;
use bm_ptx::interp::{ExecError, ExecObserver, ExecStats, Program, ThreadId, MAX_STEPS_PER_THREAD};
use bm_ptx::isa::*;
use bm_ptx::kernel::{ArgValue, Dim3, Kernel, Launch, Param};
use bm_ptx::mem::{AddressSpace, GlobalMem};
use bm_testkit::Rng;
use bm_workloads::{suite, Scale};
use std::sync::Arc;

/// One observer callback.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Inst(ThreadId, usize, u64),
    Access(ThreadId, usize, u64, bool),
}

/// Records the callback stream, or only its hash and length when it would
/// be too long to keep.
#[derive(Default)]
struct Recorder {
    events: Vec<Event>,
    keep: bool,
    hash: u64,
    count: u64,
}

impl Recorder {
    fn keeping() -> Self {
        Recorder {
            keep: true,
            ..Recorder::default()
        }
    }

    fn push(&mut self, e: Event, words: [u64; 4]) {
        self.count += 1;
        for w in words {
            self.hash = (self.hash ^ w).wrapping_mul(0x1000_0000_01b3);
        }
        if self.keep {
            self.events.push(e);
        }
    }
}

impl ExecObserver for Recorder {
    fn on_inst(&mut self, t: ThreadId, i: usize, op: &Op) {
        // Both engines must pass the launch's own instruction.
        let d = op as *const Op as u64;
        self.push(
            Event::Inst(t, i, d),
            [1, u64::from(t.tb) << 32 | u64::from(t.tid), i as u64, d],
        );
    }

    fn on_global_access(&mut self, t: ThreadId, i: usize, addr: u64, store: bool) {
        self.push(
            Event::Access(t, i, addr, store),
            [
                2 + u64::from(store),
                u64::from(t.tb) << 32 | u64::from(t.tid),
                i as u64,
                addr,
            ],
        );
    }
}

/// Runs block `tb` on both engines from equal memories and asserts equal
/// results and callback streams, and with `keep` equal memories and event
/// lists too (otherwise the caller compares memory). `tids` selects a lane
/// subset.
#[allow(clippy::too_many_arguments)]
fn compare_block(
    program: &Program,
    tb: u32,
    old_mem: &mut GlobalMem,
    new_mem: &mut GlobalMem,
    max_steps: u64,
    tids: Option<&[u32]>,
    keep: bool,
    what: &str,
) -> Result<ExecStats, ExecError> {
    let launch = program.launch();
    let (mut old_obs, mut new_obs) = if keep {
        (Recorder::keeping(), Recorder::keeping())
    } else {
        (Recorder::default(), Recorder::default())
    };
    let (old, new) = match tids {
        None => (
            reference::execute_block_limited(launch, tb, old_mem, &mut old_obs, max_steps),
            program.execute_block(tb, new_mem, &mut new_obs, max_steps),
        ),
        Some(tids) => (
            reference::execute_block_subset(launch, tb, old_mem, &mut old_obs, max_steps, tids),
            program.execute_subset(tb, new_mem, &mut new_obs, max_steps, tids),
        ),
    };
    assert_eq!(old, new, "{what}: block {tb} result");
    assert_eq!(old_obs.count, new_obs.count, "{what}: block {tb} callbacks");
    assert_eq!(old_obs.hash, new_obs.hash, "{what}: block {tb} callbacks");
    if keep {
        assert_eq!(
            old_obs.events, new_obs.events,
            "{what}: block {tb} callbacks"
        );
        assert_eq!(
            old_mem.fingerprint(),
            new_mem.fingerprint(),
            "{what}: block {tb} memory"
        );
    }
    new
}

/// Every block of `app` in serialized order on both engines, comparing
/// per block; returns the merged statistics.
fn compare_serialized(app: &Application, keep: bool) -> ExecStats {
    let mut old_mem = app.initial_memory();
    let mut new_mem = old_mem.clone();
    let mut stats = ExecStats::default();
    for (k, launch) in app.launches().into_iter().enumerate() {
        let program = Program::new(launch);
        let what = format!("{} kernel {k}", app.name);
        for tb in 0..launch.num_blocks() {
            let s = compare_block(
                &program,
                tb,
                &mut old_mem,
                &mut new_mem,
                MAX_STEPS_PER_THREAD,
                None,
                keep,
                &what,
            )
            .unwrap_or_else(|e| panic!("{what}: {e}"));
            stats.merge(&s);
        }
        assert_eq!(
            old_mem.fingerprint(),
            new_mem.fingerprint(),
            "{what}: memory"
        );
    }
    stats
}

/// The lane subsets the trace fast path executes: each full warp's law
/// lanes, then the rest of the warp.
fn lane_subsets(launch: &Launch) -> Vec<Vec<u32>> {
    const LAW: [u32; 7] = [0, 1, 2, 4, 8, 16, 31];
    let n = launch.threads_per_block();
    let mut out = Vec::new();
    for lo in (0..n).step_by(32) {
        if lo + 32 <= n {
            out.push(LAW.iter().map(|l| lo + l).collect());
            out.push((lo..lo + 32).filter(|t| !LAW.contains(&(t - lo))).collect());
        } else {
            out.push((lo..n).collect());
        }
    }
    out
}

#[test]
fn all_small_apps_match_the_reference_interpreter() {
    for b in suite() {
        let app = (b.build)(Scale::Small);
        let stats = compare_serialized(&app, true);
        assert!(stats.instructions > 0, "{}", b.name);
        // The trace's lane subsets of every launch's middle block, on the
        // memory the serialized pass starts from.
        let mem = app.initial_memory();
        for launch in app.launches() {
            if launch.num_blocks() == 0 {
                continue;
            }
            let program = Program::new(launch);
            for tids in lane_subsets(launch) {
                let (mut old_mem, mut new_mem) = (mem.clone(), mem.clone());
                let tb = launch.num_blocks() / 2;
                compare_block(
                    &program,
                    tb,
                    &mut old_mem,
                    &mut new_mem,
                    MAX_STEPS_PER_THREAD,
                    Some(&tids),
                    true,
                    b.name,
                )
                .unwrap();
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Scale::Full: run with --release")]
fn guarded_apps_at_full_scale_match_the_reference_interpreter() {
    for name in ["GAUSSIAN", "HS", "AlexNet", "BICG", "PATH"] {
        let b = suite().into_iter().find(|b| b.name == name).unwrap();
        let app = (b.build)(Scale::Full);
        compare_serialized(&app, false);
    }
}

#[test]
fn small_step_limits_fail_at_the_same_point() {
    for b in suite() {
        let app = (b.build)(Scale::Small);
        for max_steps in [1, 9, 40] {
            let mut old_mem = app.initial_memory();
            let mut new_mem = old_mem.clone();
            'launches: for launch in app.launches() {
                let program = Program::new(launch);
                for tb in 0..launch.num_blocks() {
                    let r = compare_block(
                        &program,
                        tb,
                        &mut old_mem,
                        &mut new_mem,
                        max_steps,
                        None,
                        true,
                        b.name,
                    );
                    if let Err(e) = r {
                        assert!(matches!(e, ExecError::StepLimit { .. }), "{e}");
                        break 'launches;
                    }
                }
            }
        }
    }
}

#[test]
fn unmapped_accesses_fail_at_the_same_point() {
    // Every block reads and writes past its slice; most addresses are
    // mapped (inside the next allocation) until the last block, whose
    // store lands past the end of everything.
    for (shift, stride) in [(0u32, 4u32), (3, 64), (60, 4)] {
        let src = format!(
            ".entry wild(.param .u64 A) {{
               ld.param.u64 %rd1, [A];
               mov.u32 %r1, %ctaid.x;
               mov.u32 %r2, %ntid.x;
               mov.u32 %r3, %tid.x;
               mad.lo.u32 %r4, %r1, %r2, %r3;
               add.u32 %r4, %r4, {shift};
               mul.lo.u32 %r4, %r4, {stride};
               cvt.u64.u32 %rd2, %r4;
               add.u64 %rd3, %rd1, %rd2;
               ld.global.f32 %f1, [%rd3];
               add.f32 %f1, %f1, 0f3F800000;
               st.global.f32 [%rd3+4], %f1;
               ret;
             }}"
        );
        let kernel = Arc::new(bm_ptx::parser::parse_kernel(&src).unwrap());
        let mut space = AddressSpace::new();
        let a = space.alloc(4 * 100);
        let b = space.alloc(4 * 50);
        let launch = Launch::new(kernel, Dim3::x(4), Dim3::x(32), vec![ArgValue::Ptr(a.base)]);
        let program = Program::new(&launch);
        let mut old_mem = GlobalMem::for_space(&space);
        old_mem.copy_from_host_f32(b.base, &[2.5; 50]);
        let mut new_mem = old_mem.clone();
        let mut failed = false;
        for tb in 0..4 {
            let what = format!("shift {shift} stride {stride}");
            if let Err(e) = compare_block(
                &program,
                tb,
                &mut old_mem,
                &mut new_mem,
                MAX_STEPS_PER_THREAD,
                None,
                true,
                &what,
            ) {
                assert!(matches!(e, ExecError::Unmapped { .. }), "{e}");
                failed = true;
                break;
            }
        }
        assert!(
            failed,
            "shift {shift} stride {stride}: never left the mapping"
        );
    }
}

// ---- random kernels ----------------------------------------------------

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
const DUMP: u64 = 5 * N as u64;
/// Predicate of the loop branch.
const P_LOOP: u16 = 6;
/// Words in the global buffer a random kernel addresses.
const WORDS: u64 = 64;
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
fn random_kernel(rng: &mut Rng) -> Kernel {
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

#[test]
fn random_kernels_match_the_reference_interpreter() {
    let mut rng = Rng::new(0x0dec_0de5);
    let (mut blocks, mut errors, mut subsets) = (0, 0, 0);
    for case in 0..400 {
        let kernel = Arc::new(random_kernel(&mut rng));
        let mut space = AddressSpace::new();
        let buf = space.alloc(4 * WORDS);
        let block = Dim3::xy(rng.range_u32(1, 70), rng.range_u32(1, 3));
        let grid = Dim3::xy(rng.range_u32(1, 4), rng.range_u32(1, 3));
        let out = space.alloc(4 * DUMP * block.count() * grid.count());
        let launch = Launch::new(
            kernel,
            grid,
            block,
            vec![
                ArgValue::Ptr(buf.base),
                ArgValue::U32(rng.next_u64() as u32),
                ArgValue::F32(rng.range_i64(-50, 50) as f32 * 0.75),
                ArgValue::Ptr(out.base),
            ],
        );
        let program = Program::new(&launch);
        let mut mem = GlobalMem::for_space(&space);
        let init: Vec<f32> = (0..WORDS)
            .map(|_| f32::from_bits(rng.next_u64() as u32 & 0x7fff_ffff))
            .collect();
        mem.copy_from_host_f32(buf.base, &init);
        // Forward branches can skip a loop's counter: bound every thread.
        let max_steps = *rng.pick(&[2_000, 3, 25, 120]);
        let what = format!("case {case}");
        let (mut old_mem, mut new_mem) = (mem.clone(), mem.clone());
        for tb in 0..launch.num_blocks() {
            blocks += 1;
            let r = compare_block(
                &program,
                tb,
                &mut old_mem,
                &mut new_mem,
                max_steps,
                None,
                true,
                &what,
            );
            if r.is_err() {
                errors += 1;
                break;
            }
        }
        // Lane subsets of the last block, on the initial memory.
        let tb = launch.num_blocks() - 1;
        for tids in lane_subsets(&launch) {
            subsets += 1;
            let (mut old_mem, mut new_mem) = (mem.clone(), mem.clone());
            let _ = compare_block(
                &program,
                tb,
                &mut old_mem,
                &mut new_mem,
                max_steps,
                Some(&tids),
                true,
                &what,
            );
        }
    }
    // The generator reaches both outcomes.
    assert!(errors > 20 && blocks - errors > 200, "{errors} of {blocks}");
    assert!(subsets > 400);
}
