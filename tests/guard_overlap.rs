//! The guard's logged serialized pass runs on a second thread beside the
//! analysis and the first round (`blockmaestro::guard::guarded_rounds`).
//! Nothing a caller sees may depend on that: a guarded run equals its steps
//! run one after another, errors keep the order those steps give them, an
//! injected panic keeps its payload and leaves only once the pass's thread
//! has ended, and a space the pass cannot log is refused before it runs.
//!
//! The tests take one lock, so no other test's pass thread is alive while
//! one of them counts the process's threads.

use blockmaestro::{
    run, try_jit_analyze_app, try_run_app, verify_by_conflict_order, BmError, EngineError,
    ExecMode, FaultPlan, RunSpec,
};
use bm_cmdq::{ApiCall, Application, CmdqError};
use bm_depgraph::HazardMode;
use bm_ptx::error::PtxError;
use bm_ptx::interp::ExecError;
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::parser::parse_kernel;
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::Scale;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

/// The mode the guarded pipeline is benchmarked and served under.
const MODE: ExecMode = ExecMode::ConsumerPriority { window: 3 };

/// The apps of the benchmark's `guarded` workload.
const GUARDED_APPS: [&str; 5] = ["GAUSSIAN", "HS", "AlexNet", "BICG", "PATH"];

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Threads of this process named as the guard names its pass's thread;
/// 0 where the process's threads cannot be listed.
///
/// The kernel lists a thread until it is reaped, which can come just after
/// its join has returned (seen once in 3,000 guarded runs), so a count is
/// retaken for up to a second before it stands; a thread that outlives
/// its run by more than that is still counted.
fn pass_threads() -> usize {
    let count = || {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return 0;
        };
        tasks
            .flatten()
            .filter(|t| {
                std::fs::read_to_string(t.path().join("comm"))
                    .is_ok_and(|c| c.trim() == "bm-beside")
            })
            .count()
    };
    for _ in 0..100 {
        match count() {
            0 => return 0,
            _ => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    count()
}

/// A guarded run equals a separate analysis, an unguarded run of its
/// kernels and the conflict-order check of that run's schedule.
fn assert_guarded_run_is_its_steps(cfg: &GpuConfig, app: &Application) {
    let guarded = try_run_app(cfg, app, MODE).unwrap();
    let jit = try_jit_analyze_app(cfg, app, HazardMode::Raw).unwrap();
    let plain = run(
        cfg,
        app,
        &mut RunSpec {
            kernels: Some(&jit),
            ..RunSpec::new(MODE)
        },
        &NullTracer,
    )
    .unwrap();
    let outcome = verify_by_conflict_order(app, &jit, &plain.schedule)
        .unwrap()
        .unwrap_or_else(|| panic!("{}: the check must decide a clean schedule", app.name));
    assert!(outcome.is_sound(), "{}: {outcome:?}", app.name);
    assert_eq!(guarded, plain, "{}", app.name);
    assert_eq!(
        pass_threads(),
        0,
        "{}: the pass's thread outlived the run",
        app.name
    );
}

#[test]
fn guarded_runs_are_their_steps_on_every_small_app() {
    let _one = one_at_a_time();
    let cfg = GpuConfig::titan_x_pascal();
    for bench in bm_workloads::suite() {
        assert_guarded_run_is_its_steps(&cfg, &(bench.build)(Scale::Small));
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Scale::Full: run with --release")]
fn guarded_runs_are_their_steps_on_the_full_scale_guarded_apps() {
    let _one = one_at_a_time();
    let cfg = GpuConfig::titan_x_pascal();
    for bench in bm_workloads::suite() {
        if GUARDED_APPS.contains(&bench.name) {
            assert_guarded_run_is_its_steps(&cfg, &(bench.build)(Scale::Full));
        }
    }
}

/// One block of one thread that reads the word `off` bytes past `A`, the
/// first of `sizes.len()` allocations of those sizes: unmapped memory
/// when `off` falls past `A`'s end and before the next allocation.
fn wild_app(sizes: &[u64], off: u64) -> Application {
    let k = Arc::new(
        parse_kernel(
            r#".entry wild(.param .u64 A, .param .u64 off) {
                 ld.param.u64 %rd1, [A];
                 ld.param.u64 %rd2, [off];
                 add.u64 %rd3, %rd1, %rd2;
                 ld.global.f32 %f1, [%rd3];
                 st.global.f32 [%rd1], %f1;
                 ret;
               }"#,
        )
        .unwrap(),
    );
    let mut space = AddressSpace::new();
    let allocs: Vec<_> = sizes.iter().map(|&size| space.alloc(size)).collect();
    Application {
        name: "wild".into(),
        space,
        calls: vec![ApiCall::KernelLaunch(Launch::new(
            k,
            Dim3::x(1),
            Dim3::x(1),
            vec![ArgValue::Ptr(allocs[0].base), ArgValue::U64(off)],
        ))],
        host_data: HashMap::new(),
    }
}

fn guarded(app: &Application, spec: RunSpec<'_>) -> Result<(), BmError> {
    let mut spec = RunSpec {
        guard: true,
        ..spec
    };
    run(&GpuConfig::small(), app, &mut spec, &NullTracer).map(|_| ())
}

/// The wild app's serialized pass fails at its one block.
fn is_unmapped(err: &BmError) -> bool {
    matches!(
        err,
        BmError::Cmdq(CmdqError::Exec(ExecError::Unmapped { tb: 0, .. }))
    )
}

#[test]
fn an_analysis_error_wins_over_a_failing_serialized_pass() {
    let _one = one_at_a_time();
    // 128 bytes past a 4-byte `A` lies in the gap before the next
    // allocation, 256 bytes on.
    let app = wild_app(&[4, 4], 128);
    let err = guarded(&app, RunSpec::new(MODE)).unwrap_err();
    assert!(is_unmapped(&err), "{err}");
    // No kernels for a one-launch application: the analysis step fails.
    let err = guarded(
        &app,
        RunSpec {
            kernels: Some(&[]),
            ..RunSpec::new(MODE)
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, BmError::Ptx(PtxError::BadLaunch { .. })),
        "{err}"
    );
}

#[test]
fn a_serialized_pass_error_wins_over_a_kill_in_the_first_round() {
    let _one = one_at_a_time();
    let app = wild_app(&[4, 4], 128);
    let kill = || RunSpec {
        fault: FaultPlan {
            kill_at_kernel: Some(1),
            ..FaultPlan::default()
        },
        ..RunSpec::new(MODE)
    };
    // Unguarded, the first round is killed at its one kernel's boundary.
    let unguarded = run(&GpuConfig::small(), &app, &mut kill(), &NullTracer).unwrap_err();
    assert!(
        matches!(unguarded, BmError::Engine(EngineError::Killed { .. })),
        "{unguarded}"
    );
    let err = guarded(&app, kill()).unwrap_err();
    assert!(is_unmapped(&err), "{err}");
}

#[test]
fn an_injected_panic_keeps_its_payload_and_ends_the_pass_thread_first() {
    let _one = one_at_a_time();
    let app = (bm_workloads::suite()
        .into_iter()
        .find(|b| b.name == "GAUSSIAN")
        .unwrap()
        .build)(Scale::Small);
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        guarded(
            &app,
            RunSpec {
                fault: FaultPlan {
                    panic_at_kernel: Some(1),
                    ..FaultPlan::default()
                },
                ..RunSpec::new(MODE)
            },
        )
    }));
    let payload = panicked.expect_err("the injected panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("injected worker panic at kernel boundary 1")
    );
    assert_eq!(pass_threads(), 0);
}

#[test]
fn spaces_past_4_gib_are_refused_before_any_block_runs() {
    let _one = one_at_a_time();
    // `A`'s one block would fail on unmapped memory if it ran; the second
    // allocation reaches 2^32 words (16 GiB) past `A`. Allocations are
    // bookkeeping until memory is built, and none is built here.
    let narrow = wild_app(&[4, 4], 128);
    let cfg = GpuConfig::small();
    let jit = try_jit_analyze_app(&cfg, &narrow, HazardMode::Raw).unwrap();
    for last in [4 << 32, (4 << 30) - 255] {
        let wide = wild_app(&[4, last], 128);
        let err = verify_by_conflict_order(&wide, &jit, &[]).unwrap_err();
        assert!(matches!(err, BmError::Unsupported(_)), "{err}");
        // A guarded run of kernels analyzed on the narrow twin gets past
        // the analysis step and its first round, and stops at the pass.
        let err = guarded(
            &wide,
            RunSpec {
                kernels: Some(&jit),
                ..RunSpec::new(MODE)
            },
        )
        .unwrap_err();
        assert!(matches!(err, BmError::Unsupported(_)), "{err}");
    }
}
