//! The decoded interpreter (`bm_ptx::interp::Program`) against the
//! thread-serial interpreter it replaced, kept verbatim in
//! `tests/common/reference_interp.rs`: final memory, `ExecStats`, the
//! ordered observer callback stream, lane subsets, and the error plus
//! partial memory of failing blocks must all be identical.

#[path = "common/random_kernel.rs"]
mod random_kernel;
#[path = "common/reference_interp.rs"]
mod reference;

use bm_cmdq::Application;
use bm_ptx::interp::{ExecError, ExecObserver, ExecStats, Program, ThreadId, MAX_STEPS_PER_THREAD};
use bm_ptx::isa::*;
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::{AddressSpace, GlobalMem};
use bm_testkit::Rng;
use bm_workloads::{suite, Scale};
use random_kernel::{random_kernel, DUMP, WORDS};
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
