//! The warp-lockstep engine (`bm_ptx::interp::Lockstep` for the plain
//! pass, `bm_ptx::access::AccessLog::execute_block` for the logged one,
//! `bm_ptx::trace::trace_block_limited` for the trace) against the
//! thread-serial reference interpreter kept in
//! `tests/common/reference_interp.rs` and the trace recorder kept in
//! `tests/common/reference_trace.rs`: final memory, `ExecStats`, every
//! block's canonical read and write ranges, its trace, and the error plus
//! partial memory of failing blocks must all be identical. Suite apps must
//! never leave the engine; kernels built to break its lane order must, and
//! still match.

#[path = "common/random_kernel.rs"]
mod random_kernel;
#[path = "common/reference_interp.rs"]
mod reference;
#[path = "common/reference_trace.rs"]
mod reference_trace;

use bm_cmdq::Application;
use bm_ptx::access::AccessLog;
use bm_ptx::interp::{ExecError, ExecStats, Lockstep, NullObserver, Program, MAX_STEPS_PER_THREAD};
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::{AddressSpace, GlobalMem};
use bm_ptx::parser::parse_kernel;
use bm_ptx::trace::trace_block_limited;
use bm_testkit::Rng;
use bm_workloads::{suite, Scale};
use random_kernel::{random_kernel, DUMP, WORDS};
use reference_trace::{Both, TraceObserver};
use std::sync::Arc;

/// One memory image per engine (reference, plain, logged), the two
/// engines' state, and the reference's log.
struct Engines {
    mem: [GlobalMem; 3],
    want_log: AccessLog,
    log: AccessLog,
    plain: Lockstep,
}

/// A block's result and canonical ranges (reads then writes, split at
/// `bounds[0]`).
type Run = (Result<ExecStats, ExecError>, Vec<(u64, u64)>, Vec<usize>);

impl Engines {
    fn new(space: &AddressSpace, mem: &GlobalMem) -> Self {
        Engines {
            mem: [mem.clone(), mem.clone(), mem.clone()],
            want_log: AccessLog::new(space),
            log: AccessLog::new(space),
            plain: Lockstep::new(),
        }
    }

    fn finish(log: &mut AccessLog, r: Result<ExecStats, ExecError>) -> Run {
        let (mut ranges, mut bounds) = (Vec::new(), Vec::new());
        log.finish_block(&mut ranges, &mut bounds);
        (r, ranges, bounds)
    }

    /// Runs block `tb` on all three, and traces it on a copy of the
    /// memory, and asserts equal results, memories, traces and (for
    /// successful blocks) ranges; returns the result.
    fn block(
        &mut self,
        program: &Program,
        tb: u32,
        max_steps: u64,
        what: &str,
    ) -> Result<ExecStats, ExecError> {
        self.block_traced(program, tb, max_steps, what, true)
    }

    /// [`Engines::block`], tracing the block only when `trace` is set.
    fn block_traced(
        &mut self,
        program: &Program,
        tb: u32,
        max_steps: u64,
        what: &str,
        trace: bool,
    ) -> Result<ExecStats, ExecError> {
        let [want_mem, plain_mem, log_mem] = &mut self.mem;
        let launch = program.launch();
        let mut trace_mem = trace.then(|| want_mem.clone());
        let (r, want_trace) = if trace {
            let mut obs = Both(TraceObserver::default(), &mut self.want_log);
            let r = reference::execute_block_limited(launch, tb, want_mem, &mut obs, max_steps);
            let t = r
                .clone()
                .map(|s| reference_trace::rebuild(launch, &obs.0, &s));
            (r, Some(t))
        } else {
            let r = reference::execute_block_limited(
                launch,
                tb,
                want_mem,
                &mut self.want_log,
                max_steps,
            );
            (r, None)
        };
        let want = Self::finish(&mut self.want_log, r);
        let plain = self.plain.execute_block(program, tb, plain_mem, max_steps);
        let r = self.log.execute_block(program, tb, log_mem, max_steps);
        let logged = Self::finish(&mut self.log, r);
        assert_eq!(want.0, plain, "{what}: block {tb} plain result");
        assert_eq!(want.0, logged.0, "{what}: block {tb} logged result");
        if want.0.is_ok() {
            assert_eq!(want.1, logged.1, "{what}: block {tb} ranges");
            assert_eq!(want.2, logged.2, "{what}: block {tb} range bounds");
        }
        let fp = want_mem.fingerprint();
        assert_eq!(
            fp,
            plain_mem.fingerprint(),
            "{what}: block {tb} plain memory"
        );
        assert_eq!(
            fp,
            log_mem.fingerprint(),
            "{what}: block {tb} logged memory"
        );
        if let (Some(mem), Some(want_trace)) = (&mut trace_mem, want_trace) {
            let got = trace_block_limited(launch, tb, mem, max_steps);
            assert_eq!(got, want_trace, "{what}: block {tb} trace");
            assert_eq!(fp, mem.fingerprint(), "{what}: block {tb} trace memory");
        }
        want.0
    }

    /// Blocks either engine reran thread-serially.
    fn fallbacks(&self) -> [u64; 2] {
        [self.plain.fallback_blocks(), self.log.fallback_blocks()]
    }
}

/// Every block of `app` in serialized order on all engines, tracing every
/// block or (`all_traces` unset) each launch's representative one, the
/// block the launch-time trace takes; returns the merged statistics.
fn compare_app(app: &Application, all_traces: bool) -> ExecStats {
    let mut e = Engines::new(&app.space, &app.initial_memory());
    let mut stats = ExecStats::default();
    for (k, launch) in app.launches().into_iter().enumerate() {
        let program = Program::new(launch);
        let what = format!("{} kernel {k}", app.name);
        for tb in 0..launch.num_blocks() {
            let trace = all_traces || tb == launch.num_blocks() / 2;
            let s = e
                .block_traced(&program, tb, MAX_STEPS_PER_THREAD, &what, trace)
                .unwrap_or_else(|err| panic!("{what}: {err}"));
            stats.merge(&s);
        }
    }
    assert_eq!(e.fallbacks(), [0, 0], "{}: fallback blocks", app.name);
    stats
}

#[test]
fn all_small_apps_match_without_falling_back() {
    for b in suite() {
        let stats = compare_app(&(b.build)(Scale::Small), true);
        assert!(stats.instructions > 0, "{}", b.name);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Scale::Full: run with --release")]
fn guarded_apps_at_full_scale_match_without_falling_back() {
    for name in ["GAUSSIAN", "HS", "AlexNet", "BICG", "PATH"] {
        let b = suite().into_iter().find(|b| b.name == name).unwrap();
        compare_app(&(b.build)(Scale::Full), false);
    }
}

/// A launch of a random kernel over a fresh space: the kernel's buffer,
/// filled from `rng`, and its register-dump output.
fn random_launch(rng: &mut Rng) -> (Launch, AddressSpace, GlobalMem) {
    let kernel = Arc::new(random_kernel(rng));
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
    let mut mem = GlobalMem::for_space(&space);
    let init: Vec<f32> = (0..WORDS)
        .map(|_| f32::from_bits(rng.next_u64() as u32 & 0x7fff_ffff))
        .collect();
    mem.copy_from_host_f32(buf.base, &init);
    (launch, space, mem)
}

#[test]
fn random_kernels_match_the_reference_interpreter() {
    let mut rng = Rng::new(0x010c_57e9);
    let (mut blocks, mut errors, mut fallbacks) = (0u64, 0u64, 0u64);
    for case in 0..400 {
        let (launch, space, mem) = random_launch(&mut rng);
        let program = Program::new(&launch);
        let max_steps = *rng.pick(&[2_000, 2_000, 2_000, 3, 25, 120]);
        let mut e = Engines::new(&space, &mem);
        for tb in 0..launch.num_blocks() {
            blocks += 1;
            if e.block(&program, tb, max_steps, &format!("case {case}"))
                .is_err()
            {
                errors += 1;
                break;
            }
        }
        let [plain, logged] = e.fallbacks();
        assert_eq!(plain, logged, "case {case}: both engines fall back alike");
        fallbacks += plain;
    }
    // Both engines and every outcome are reached: blocks kept in
    // lockstep, blocks rerun thread-serially, and failing blocks.
    assert!(errors > 20, "{errors} errors");
    assert!(
        fallbacks > 100 && blocks - fallbacks > 200,
        "{fallbacks} of {blocks} blocks fell back"
    );
}

// ---- kernels built to conflict across lanes ----------------------------

/// One access of a conflict kernel.
#[derive(Clone, Copy, Debug)]
enum Access {
    Load,
    Store,
}

/// A kernel where thread `first` makes access `a` at byte `off_a` and then
/// thread `second` makes access `b` at `off_b`, both in the buffer `A` (or
/// in shared memory), each thread's load landing in its slot of `OUT`;
/// after a barrier thread 0 copies shared words 0..4 to `OUT[128..132]`.
fn conflict_kernel(
    shared: bool,
    [(first, a, off_a), (second, b, off_b)]: [(u32, Access, u32); 2],
) -> String {
    let access = |p: &str, acc: Access, off: u32, dst: &str| {
        let (space, base) = if shared {
            ("shared", "%r7")
        } else {
            ("global", "%rd1")
        };
        match acc {
            Access::Load => format!("@{p} ld.{space}.u32 {dst}, [{base}+{off}];"),
            Access::Store => format!("@{p} st.{space}.u32 [{base}+{off}], %r2;"),
        }
    };
    let (first_op, second_op) = (
        access("%p1", a, off_a, "%r5"),
        access("%p2", b, off_b, "%r6"),
    );
    format!(
        ".entry conflict(.param .u64 A, .param .u64 OUT)
        {{
          .shared 64;
          ld.param.u64 %rd1, [A];
          ld.param.u64 %rd2, [OUT];
          mov.u32 %r1, %tid.x;
          mov.u32 %r7, 0;
          add.u32 %r2, %r1, 100;
          setp.eq.u32 %p1, %r1, {first};
          setp.eq.u32 %p2, %r1, {second};
          {first_op}
          {second_op}
          mul.wide.u32 %rd3, %r1, 4;
          add.u64 %rd4, %rd2, %rd3;
          st.global.u32 [%rd4], %r5;
          st.global.u32 [%rd4+256], %r6;
          bar.sync 0;
          setp.eq.u32 %p3, %r1, 0;
          @%p3 bra $COPY;
          ret;
        $COPY:
          ld.shared.u32 %r8, [%r7];
          st.global.u32 [%rd2+512], %r8;
          ld.shared.u32 %r8, [%r7+4];
          st.global.u32 [%rd2+516], %r8;
          ld.shared.u32 %r8, [%r7+8];
          st.global.u32 [%rd2+520], %r8;
          ld.shared.u32 %r8, [%r7+12];
          st.global.u32 [%rd2+524], %r8;
          ret;
        }}"
    )
}

/// Runs a one-block launch of `src` (64 threads) on all engines; returns
/// the fallback counts.
fn run_one_block(src: &str, threads: u32, what: &str) -> [u64; 2] {
    let kernel = Arc::new(parse_kernel(src).unwrap_or_else(|e| panic!("{what}: {e}")));
    let mut space = AddressSpace::new();
    let a = space.alloc(4 * 64);
    let out = space.alloc(4 * 136);
    let mut mem = GlobalMem::for_space(&space);
    let init: Vec<f32> = (0..64).map(|i| f32::from_bits(7 + i)).collect();
    mem.copy_from_host_f32(a.base, &init);
    let launch = Launch::new(
        kernel,
        Dim3::x(1),
        Dim3::x(threads),
        vec![ArgValue::Ptr(a.base), ArgValue::Ptr(out.base)],
    );
    let program = Program::new(&launch);
    let mut e = Engines::new(&space, &mem);
    e.block(&program, 0, MAX_STEPS_PER_THREAD, what).unwrap();
    e.fallbacks()
}

#[test]
fn cross_lane_conflicts_fall_back_and_still_match() {
    use Access::*;
    let kinds = [
        ("RAW", Store, Load),
        ("WAR", Load, Store),
        ("WAW", Store, Store),
        ("RAR", Load, Load),
    ];
    // Byte offsets of the two accesses: the same aligned word, then an
    // unaligned word straddling two words, first or second.
    let offsets = [(8, 8), (6, 8), (8, 10)];
    for shared in [false, true] {
        for (kind, a, b) in kinds {
            for (off_a, off_b) in offsets {
                // Lanes 9 and 3 of warp 0, then lanes 41 and 35 of warp 1.
                for (hi, lo) in [(9, 3), (41, 35)] {
                    for higher_first in [true, false] {
                        let (first, second) = if higher_first { (hi, lo) } else { (lo, hi) };
                        let src = conflict_kernel(shared, [(first, a, off_a), (second, b, off_b)]);
                        let what = format!(
                            "{kind} shared {shared} offsets {off_a}/{off_b} lanes {first} then {second}"
                        );
                        // Thread-serial order has the lower lane first:
                        // only the reverse breaks the lane order, and only
                        // when one of the accesses writes.
                        let want = u64::from(higher_first && kind != "RAR");
                        assert_eq!(run_one_block(&src, 64, &what), [want; 2], "{what}");
                    }
                }
            }
        }
    }
}

// ---- warp traces --------------------------------------------------------

/// Every block of a `grid` × `block` launch of `src` on all engines,
/// traced, over two 1024-word buffers `A` (filled) and `B`, whose bases
/// `args` turns into the launch's arguments.
fn trace_launch(src: &str, grid: u32, block: Dim3, args: impl Fn(u64, u64) -> Vec<ArgValue>) {
    let kernel = Arc::new(parse_kernel(src).unwrap_or_else(|e| panic!("{src}: {e}")));
    let what = kernel.name.clone();
    let mut space = AddressSpace::new();
    let (a, b) = (space.alloc(4 * 1024), space.alloc(4 * 1024));
    let mut mem = GlobalMem::for_space(&space);
    let init: Vec<f32> = (0..1024).map(|i| i as f32 * 0.5).collect();
    mem.copy_from_host_f32(a.base, &init);
    let launch = Launch::new(kernel, Dim3::x(grid), block, args(a.base, b.base));
    let program = Program::new(&launch);
    let mut e = Engines::new(&space, &mem);
    for tb in 0..grid {
        e.block(&program, tb, MAX_STEPS_PER_THREAD, &what).unwrap();
    }
}

/// The trace's former lane-subset fast path ran 7 lanes of a full warp and
/// extrapolated the rest when their addresses were affine in the lane;
/// these are the kernels its unit tests checked it on, now inputs of the
/// lockstep trace: contiguous and strided walks, full and partial warps,
/// lanes that look affine until lane 8, a barrier with shared memory, and
/// a guard that masks the tail of a warp.
#[test]
fn warp_traces_match_the_oracle() {
    let copy = ".entry copy(.param .u64 A, .param .u64 B) {
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
    }";
    let two = |a, b| vec![ArgValue::Ptr(a), ArgValue::Ptr(b)];
    let one = |a, _| vec![ArgValue::Ptr(a)];
    trace_launch(copy, 4, Dim3::x(64), two);
    trace_launch(copy, 3, Dim3::x(100), two);
    let strided = ".entry strided(.param .u64 A) {
        ld.param.u64 %rd1, [A];
        mov.u32 %r1, %tid.x;
        shl.b32 %r2, %r1, 5;
        mul.wide.u32 %rd2, %r2, 4;
        add.u64 %rd3, %rd1, %rd2;
        st.global.f32 [%rd3], 0f00000000;
        ret;
    }";
    trace_launch(strided, 1, Dim3::x(32), one);
    let wrap = ".entry wrap(.param .u64 A) {
        ld.param.u64 %rd1, [A];
        mov.u32 %r1, %tid.x;
        and.b32 %r2, %r1, 7;
        mul.wide.u32 %rd2, %r2, 4;
        add.u64 %rd3, %rd1, %rd2;
        st.global.f32 [%rd3], 0f40400000;
        ret;
    }";
    trace_launch(wrap, 1, Dim3::x(64), one);
    let barrier = ".entry b(.param .u64 A) {
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
    }";
    trace_launch(barrier, 1, Dim3::x(64), one);
    let guarded = ".entry g(.param .u64 A, .param .u32 n) {
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
    }";
    trace_launch(guarded, 1, Dim3::x(64), |a, _| {
        vec![ArgValue::Ptr(a), ArgValue::U32(40)]
    });
}

// ---- errors -------------------------------------------------------------

#[test]
fn unmapped_accesses_return_the_reference_error_and_memory() {
    // Every block reads and writes past its slice; most addresses are
    // mapped (inside the next allocation) until the last block, whose
    // store lands past the end of everything.
    for (shift, stride) in [(0u32, 4u32), (3, 64), (60, 4), (1, 6)] {
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
        let kernel = Arc::new(parse_kernel(&src).unwrap());
        let mut space = AddressSpace::new();
        let a = space.alloc(4 * 100);
        let b = space.alloc(4 * 50);
        let launch = Launch::new(kernel, Dim3::x(4), Dim3::x(48), vec![ArgValue::Ptr(a.base)]);
        let program = Program::new(&launch);
        let mut mem = GlobalMem::for_space(&space);
        mem.copy_from_host_f32(b.base, &[2.5; 50]);
        let mut e = Engines::new(&space, &mem);
        let what = format!("shift {shift} stride {stride}");
        let failed = (0..4).any(|tb| e.block(&program, tb, MAX_STEPS_PER_THREAD, &what).is_err());
        assert!(failed, "{what}: never left the mapping");
    }
}

#[test]
fn shared_out_of_bounds_returns_the_reference_error_and_memory() {
    // Every thread stores to its global word, then to shared word `tid`
    // scaled by `scale`: the threads past the declared size fail, after
    // the stores of the threads before them.
    for (scale, threads) in [(4u32, 64u32), (8, 40), (2, 33)] {
        let src = format!(
            ".entry oob(.param .u64 A, .param .u64 OUT) {{
               .shared 64;
               ld.param.u64 %rd1, [A];
               mov.u32 %r1, %tid.x;
               mul.wide.u32 %rd2, %r1, 4;
               add.u64 %rd3, %rd1, %rd2;
               st.global.u32 [%rd3], %r1;
               mul.lo.u32 %r2, %r1, {scale};
               st.shared.u32 [%r2], %r1;
               ret;
             }}"
        );
        let what = format!("scale {scale} threads {threads}");
        let kernel = Arc::new(parse_kernel(&src).unwrap());
        let mut space = AddressSpace::new();
        let a = space.alloc(4 * 64);
        let launch = Launch::new(
            kernel,
            Dim3::x(1),
            Dim3::x(threads),
            vec![ArgValue::Ptr(a.base), ArgValue::Ptr(a.base)],
        );
        let program = Program::new(&launch);
        let mut e = Engines::new(&space, &GlobalMem::for_space(&space));
        let r = e.block(&program, 0, MAX_STEPS_PER_THREAD, &what);
        assert!(
            matches!(r, Err(ExecError::SharedOutOfBounds { .. })),
            "{what}: {r:?}"
        );
    }
}

// ---- step limits --------------------------------------------------------

/// The least budget block `tb` runs within on the reference, if it runs
/// within 4096 steps without another error.
fn longest_thread(launch: &Launch, tb: u32, mem: &GlobalMem) -> Option<u64> {
    let fits = |m: u64| {
        let mut mem = mem.clone();
        let mut obs = bm_ptx::interp::NullObserver;
        match reference::execute_block_limited(launch, tb, &mut mem, &mut obs, m) {
            Ok(_) => Some(true),
            Err(ExecError::StepLimit { .. }) => Some(false),
            Err(_) => None,
        }
    };
    let mut hi = 1;
    while !fits(hi)? {
        hi *= 2;
        if hi > 4096 {
            return None;
        }
    }
    let mut lo = 0;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Block `tb` on all engines at every budget from 1 to its longest
/// thread's count + 1; returns that count, or `None` for a block
/// [`longest_thread`] cannot bound.
fn sweep(
    launch: &Launch,
    space: &AddressSpace,
    tb: u32,
    mem: &GlobalMem,
    what: &str,
) -> Option<u64> {
    let program = Program::new(launch);
    let most = longest_thread(launch, tb, mem)?;
    for max_steps in 1..=most + 1 {
        let mut e = Engines::new(space, mem);
        let r = e.block(
            &program,
            tb,
            max_steps,
            &format!("{what}, max_steps {max_steps}"),
        );
        assert_eq!(
            r.is_ok(),
            max_steps >= most,
            "{what}: max_steps {max_steps}"
        );
    }
    Some(most)
}

/// A kernel whose threads loop `tid % 7 + 1` times, one branch of the loop
/// body taken by odd threads only, with a barrier per iteration when
/// `barrier` is set, storing to their own words on the way.
fn divergent_loop(barrier: bool) -> String {
    let bar = if barrier { "bar.sync 0;" } else { "" };
    format!(
        ".entry loop(.param .u64 A) {{
           ld.param.u64 %rd1, [A];
           mov.u32 %r1, %tid.x;
           mov.u32 %r2, %tid.y;
           mov.u32 %r9, %ntid.x;
           mad.lo.u32 %r1, %r2, %r9, %r1;
           rem.u32 %r3, %r1, 7;
           mov.u32 %r4, 0;
           mul.wide.u32 %rd2, %r1, 4;
           add.u64 %rd3, %rd1, %rd2;
         $TOP:
           and.b32 %r5, %r1, 1;
           setp.eq.u32 %p1, %r5, 0;
           @%p1 bra $EVEN;
           add.u32 %r4, %r4, 3;
           st.global.u32 [%rd3], %r4;
         $EVEN:
           {bar}
           add.u32 %r4, %r4, 1;
           setp.lt.u32 %p2, %r4, %r3;
           @%p2 bra $TOP;
           ld.global.u32 %r6, [%rd3];
           add.u32 %r6, %r6, %r4;
           st.global.u32 [%rd3], %r6;
           ret;
         }}"
    )
}

#[test]
fn step_limits_return_the_reference_error_and_memory() {
    for barrier in [false, true] {
        let kernel = Arc::new(parse_kernel(&divergent_loop(barrier)).unwrap());
        let mut space = AddressSpace::new();
        let a = space.alloc(4 * 128);
        let mem = GlobalMem::for_space(&space);
        // 2-D blocks of 60 threads: a full warp, then 28 lanes.
        let launch = Launch::new(
            kernel,
            Dim3::x(2),
            Dim3::xy(20, 3),
            vec![ArgValue::Ptr(a.base)],
        );
        let most = sweep(
            &launch,
            &space,
            1,
            &mem,
            &format!("loop, barrier {barrier}"),
        );
        assert!(most > Some(20), "{most:?}");
    }
    // Random kernels that run to completion: loops, guards, barriers and
    // shared memory.
    let mut rng = Rng::new(0x0005_7e95);
    let mut swept = 0;
    for case in 0.. {
        let (launch, space, mem) = random_launch(&mut rng);
        swept += usize::from(sweep(&launch, &space, 0, &mem, &format!("case {case}")).is_some());
        if swept == 24 {
            break;
        }
    }
}

#[test]
fn step_limits_of_small_app_launches_match() {
    for b in suite() {
        let app = (b.build)(Scale::Small);
        let launch = app.launches()[0];
        if launch.num_blocks() > 0 {
            let most = sweep(launch, &app.space, 0, &app.initial_memory(), b.name);
            assert!(most.is_some(), "{}", b.name);
        }
    }
}

/// A kernel dividing each thread's word of `A` by the parameter register
/// `%r20`, set up by `setup`: unsigned and signed, then again after
/// `rewrite`. Each thread stores the quotients and remainders, its thread
/// indices (also read through their float view) to its 64 bytes of `OUT`.
fn division_kernel(setup: &str, rewrite: &str) -> String {
    format!(
        ".entry divide(.param .u64 A, .param .u64 OUT, .param .u32 d, .param .u32 e)
        {{
          ld.param.u64 %rd1, [A];
          ld.param.u64 %rd2, [OUT];
          mov.u32 %r1, %tid.x;
          mov.u32 %r2, %tid.y;
          mov.u32 %r3, %ntid.x;
          mad.lo.u32 %r4, %r2, %r3, %r1;
          mov.u32 %r9, %ctaid.x;
          mov.u32 %r10, %ntid.y;
          mul.lo.u32 %r11, %r3, %r10;
          mad.lo.u32 %r12, %r9, %r11, %r4;
          mul.wide.u32 %rd3, %r12, 4;
          add.u64 %rd4, %rd1, %rd3;
          ld.global.u32 %r5, [%rd4];
          {setup}
          div.u32 %r6, %r5, %r20;
          rem.u32 %r7, %r5, %r20;
          div.s32 %r13, %r5, %r20;
          rem.s32 %r14, %r5, %r20;
          {rewrite}
          div.u32 %r15, %r5, %r20;
          rem.u32 %r16, %r5, %r20;
          add.f32 %f1, %tid.x, %tid.y;
          mul.wide.u32 %rd5, %r12, 64;
          add.u64 %rd6, %rd2, %rd5;
          st.global.u32 [%rd6], %r6;
          st.global.u32 [%rd6+4], %r7;
          st.global.u32 [%rd6+8], %r13;
          st.global.u32 [%rd6+12], %r14;
          st.global.u32 [%rd6+16], %r15;
          st.global.u32 [%rd6+20], %r16;
          st.global.f32 [%rd6+24], %f1;
          st.global.u32 [%rd6+28], %r1;
          st.global.u32 [%rd6+32], %r2;
          ret;
        }}"
    )
}

#[test]
fn launch_constant_divisions_match_the_oracle() {
    // The decode resolves `%r20` to the constant `d` only in the first
    // case, and strength-reduces the unsigned divisions by it (a shift and
    // a mask for a power of two, a reciprocal multiply otherwise); the
    // other cases keep the register. Every case must match the oracle
    // on all three engines, with thread indices over 2-D blocks and
    // partial last warps.
    const D: [u32; 13] = [
        0,
        1,
        2,
        3,
        7,
        255,
        256,
        257,
        641,
        1 << 16,
        1 << 31,
        (1 << 31) + 1,
        u32::MAX,
    ];
    let cases = [
        ("a launch constant", "ld.param.u32 %r20, [d];", ""),
        (
            "rewritten later",
            "ld.param.u32 %r20, [d];",
            "add.u32 %r20, %r20, 1;",
        ),
        (
            "written under a guard",
            "ld.param.u32 %r20, [d];
             setp.lt.u32 %p1, %r1, 5;
             @%p1 ld.param.u32 %r20, [e];",
            "",
        ),
        (
            "two constants",
            "setp.lt.u32 %p1, %r1, 5;
             @%p1 bra $E;
             ld.param.u32 %r20, [d];
             bra $J;
           $E:
             ld.param.u32 %r20, [e];
           $J:",
            "",
        ),
        (
            "read before its write on one path",
            "setp.lt.u32 %p1, %r1, 5;
             @%p1 bra $J;
             ld.param.u32 %r20, [d];
           $J:",
            "",
        ),
    ];
    let blocks = [Dim3::xy(48, 4), Dim3::xy(1, 64), Dim3::x(33), Dim3::x(100)];
    let mut rng = Rng::new(0xD1F1DE);
    for (name, setup, rewrite) in cases {
        let src = division_kernel(setup, rewrite);
        let kernel = Arc::new(parse_kernel(&src).unwrap_or_else(|e| panic!("{name}: {e}")));
        for block in blocks {
            for d in D {
                let e = d.wrapping_mul(3) | 1;
                let threads = 2 * block.count();
                let mut space = AddressSpace::new();
                let a = space.alloc(4 * threads);
                let out = space.alloc(64 * threads);
                let mut mem = GlobalMem::for_space(&space);
                let edges = [
                    0,
                    1,
                    d.wrapping_sub(1),
                    d,
                    d.wrapping_add(1),
                    1 << 31,
                    u32::MAX,
                ];
                for g in 0..threads {
                    let x = edges
                        .get(g as usize % 32)
                        .copied()
                        .unwrap_or_else(|| rng.next_u64() as u32);
                    mem.write_u32(a.base + 4 * g, x);
                }
                let launch = Launch::new(
                    kernel.clone(),
                    Dim3::x(2),
                    block,
                    vec![
                        ArgValue::Ptr(a.base),
                        ArgValue::Ptr(out.base),
                        ArgValue::U32(d),
                        ArgValue::U32(e),
                    ],
                );
                let program = Program::new(&launch);
                let what = format!("{name}, d = {d}, block {}x{}", block.x, block.y);
                let mut engines = Engines::new(&space, &mem);
                let mut serial = mem;
                for tb in 0..2 {
                    let want = engines.block(&program, tb, MAX_STEPS_PER_THREAD, &what);
                    let got = program.execute_block(
                        tb,
                        &mut serial,
                        &mut NullObserver,
                        MAX_STEPS_PER_THREAD,
                    );
                    assert_eq!(got, want, "{what}: block {tb} thread-serial result");
                    assert_eq!(
                        serial.fingerprint(),
                        engines.mem[0].fingerprint(),
                        "{what}: block {tb} thread-serial memory"
                    );
                }
                assert_eq!(engines.fallbacks(), [0, 0], "{what}: fallback blocks");
            }
        }
    }
}
