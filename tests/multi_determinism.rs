//! Multi-GPU execution must be programmer-transparent *and* reproducible:
//!
//! * `devices = 1` through `bm-multi` must be bit-identical to the plain
//!   single-device engine — the `RunReport` **and** the recorded trace
//!   stream — in every execution mode;
//! * `devices = N` must be bit-reproducible across repeated runs and
//!   across launch-time analysis configurations (the reference oracle and
//!   the memoized fast paths);
//! * the soundness guard covers `devices = N`: it changes no clean report
//!   and quarantines an unsound kernel as it does on one device.

mod common;

use blockmaestro::{
    check_schedule, corrupt_access_set, jit_analyze_app_par_stats, run, try_jit_analyze_app,
    verify_soundness, AnalysisBudget, AnalysisCache, DegradationReason, ExecMode, FaultPlan,
    GuardReport, JitKernel, ParallelConfig, RunSpec,
};
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_multi::MultiGpuConfig;
use bm_simt::GpuConfig;
use bm_testkit::{check_cases, prop_ensure, Rng};
use bm_trace::{NullTracer, RecordingTracer};
use bm_workloads::{suite, Scale};
use common::{build_random_app, KernelSpec};

const ALL_MODES: [ExecMode; 6] = [
    ExecMode::Baseline,
    ExecMode::IdealBaseline,
    ExecMode::GraphLaunch,
    ExecMode::PreLaunch { window: 3 },
    ExecMode::ProducerPriority { window: 3 },
    ExecMode::ConsumerPriority { window: 3 },
];

/// Shifted-stencil specs whose explicit graphs have edges that cross any
/// contiguous TB cut — the interesting case for sharding.
fn gen_spec(rng: &mut Rng, n_buffers: usize) -> KernelSpec {
    let mut s = KernelSpec {
        src_buf: rng.range_usize(0, n_buffers),
        dst_buf: rng.range_usize(0, n_buffers),
        shift: rng.range_u32(0, 40),
        tbs: rng.range_u32(12, 48),
    };
    if s.src_buf == s.dst_buf {
        s.dst_buf = (s.dst_buf + 1) % n_buffers;
    }
    s
}

fn reference_jit(cfg: &GpuConfig, app: &Application) -> Vec<JitKernel> {
    let budget = AnalysisBudget::default();
    let mut cache = AnalysisCache::for_budget(&budget);
    jit_analyze_app_par_stats(
        cfg,
        app,
        HazardMode::Raw,
        &budget,
        &mut cache,
        &ParallelConfig::reference(),
    )
    .0
}

#[test]
fn one_device_is_bit_identical_to_the_single_engine() {
    check_cases(0x517A, 12, |rng| {
        let n_buffers = rng.range_usize(2, 4);
        let n_specs = rng.range_usize(2, 5);
        let specs: Vec<KernelSpec> = (0..n_specs).map(|_| gen_spec(rng, n_buffers)).collect();
        let app = build_random_app(n_buffers, &specs);
        let cfg = GpuConfig::small();
        let jit = reference_jit(&cfg, &app);
        let mcfg = MultiGpuConfig::devices(1);
        for mode in ALL_MODES {
            let single_tracer = RecordingTracer::new();
            let single = run(
                &cfg,
                &app,
                &mut RunSpec {
                    kernels: Some(&jit),
                    ..RunSpec::new(mode)
                },
                &single_tracer,
            )
            .map_err(|e| format!("single {mode}: {e}"))?;
            let multi_tracer = RecordingTracer::new();
            let multi = bm_multi::run(
                &cfg,
                &mcfg,
                &app,
                &mut RunSpec {
                    kernels: Some(&jit),
                    ..RunSpec::new(mode)
                },
                &multi_tracer,
            )
            .map_err(|e| format!("multi {mode}: {e}"))?;
            prop_ensure!(
                multi == single,
                "devices=1 report diverged under {mode} for specs {specs:?}"
            );
            prop_ensure!(
                multi_tracer.events() == single_tracer.events(),
                "devices=1 trace stream diverged under {mode} for specs {specs:?}"
            );
            prop_ensure!(
                multi.multi.is_none(),
                "devices=1 must not grow a multi section ({mode})"
            );
        }
        Ok(())
    });
}

#[test]
fn n_devices_is_reproducible_across_runs_and_thread_counts() {
    check_cases(0x517B, 12, |rng| {
        let n_buffers = rng.range_usize(2, 4);
        let n_specs = rng.range_usize(2, 5);
        let specs: Vec<KernelSpec> = (0..n_specs).map(|_| gen_spec(rng, n_buffers)).collect();
        let app = build_random_app(n_buffers, &specs);
        let cfg = GpuConfig::small();
        let devices = [2u32, 3][rng.range_usize(0, 2)];
        let mcfg = MultiGpuConfig::devices(devices);
        let mode = ALL_MODES[rng.range_usize(0, ALL_MODES.len())];

        let jit = reference_jit(&cfg, &app);
        let ref_tracer = RecordingTracer::new();
        let reference = bm_multi::run(
            &cfg,
            &mcfg,
            &app,
            &mut RunSpec {
                kernels: Some(&jit),
                ..RunSpec::new(mode)
            },
            &ref_tracer,
        )
        .map_err(|e| format!("reference {mode}: {e}"))?;

        // Bit-identical on a plain re-run (report and trace stream).
        let re_tracer = RecordingTracer::new();
        let rerun = bm_multi::run(
            &cfg,
            &mcfg,
            &app,
            &mut RunSpec {
                kernels: Some(&jit),
                ..RunSpec::new(mode)
            },
            &re_tracer,
        )
        .map_err(|e| format!("rerun {mode}: {e}"))?;
        prop_ensure!(
            rerun == reference,
            "devices={devices} report not reproducible under {mode} for specs {specs:?}"
        );
        prop_ensure!(
            re_tracer.events() == ref_tracer.events(),
            "devices={devices} trace not reproducible under {mode} for specs {specs:?}"
        );

        // Bit-identical when the JIT pipeline ran with its fast paths on.
        let budget = AnalysisBudget::default();
        let mut cache = AnalysisCache::for_budget(&budget);
        let (jit_serial, _) = jit_analyze_app_par_stats(
            &cfg,
            &app,
            HazardMode::Raw,
            &budget,
            &mut cache,
            &ParallelConfig::serial(),
        );
        let serial_tracer = RecordingTracer::new();
        let report = bm_multi::run(
            &cfg,
            &mcfg,
            &app,
            &mut RunSpec {
                kernels: Some(&jit_serial),
                ..RunSpec::new(mode)
            },
            &serial_tracer,
        )
        .map_err(|e| format!("serial {mode}: {e}"))?;
        prop_ensure!(
            report == reference,
            "devices={devices} report diverged under serial(), {mode}, specs {specs:?}"
        );
        prop_ensure!(
            serial_tracer.events() == ref_tracer.events(),
            "devices={devices} trace diverged under serial(), {mode}, specs {specs:?}"
        );
        Ok(())
    });
}

/// A small-scale Table II application.
fn small_app(name: &str) -> Application {
    let bench = suite()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"));
    (bench.build)(Scale::Small)
}

/// `spec` on `devices` devices of the small GPU, untraced.
fn run_on(devices: u32, app: &Application, mut spec: RunSpec<'_>) -> blockmaestro::RunReport {
    let cfg = GpuConfig::small();
    bm_multi::run(
        &cfg,
        &MultiGpuConfig::devices(devices),
        app,
        &mut spec,
        &NullTracer,
    )
    .unwrap_or_else(|e| panic!("{} on {devices} devices: {e}", app.name))
}

#[test]
fn guard_changes_no_clean_multi_device_report() {
    let mode = ExecMode::ConsumerPriority { window: 3 };
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        for devices in [2, 4] {
            let plain = run_on(devices, &app, RunSpec::new(mode));
            let guarded = run_on(
                devices,
                &app,
                RunSpec {
                    guard: true,
                    ..RunSpec::new(mode)
                },
            );
            assert_eq!(guarded, plain, "{} on {devices} devices", bench.name);
            assert_eq!(guarded.guard, GuardReport::default(), "{}", bench.name);
        }
    }
}

#[test]
fn guard_quarantines_a_corrupted_kernel_on_two_devices() {
    let cfg = GpuConfig::small();
    let app = small_app("HS");
    let mode = ExecMode::ConsumerPriority { window: 3 };
    let mut jit = try_jit_analyze_app(&cfg, &app, HazardMode::Raw).unwrap();
    assert!(corrupt_access_set(&mut jit, 1, HazardMode::Raw));
    // Unguarded, the corrupted kernel's blocks escape their declared sets.
    let unguarded = run_on(
        2,
        &app,
        RunSpec {
            kernels: Some(&jit),
            ..RunSpec::new(mode)
        },
    );
    let fp = app.try_run_serialized().unwrap().fingerprint();
    let outcome = verify_soundness(&app, &jit, &unguarded.schedule, fp).unwrap();
    assert!(!outcome.is_sound(), "the corrupted run must be unsound");
    let guarded = run_on(
        2,
        &app,
        RunSpec {
            guard: true,
            kernels: Some(&jit),
            ..RunSpec::new(mode)
        },
    );
    assert!(guarded.guard.violations_detected > 0);
    assert!(guarded.guard.kernels_quarantined >= 1);
    assert!(guarded.guard.recovery_rounds >= 1);
    assert_eq!(guarded.multi.as_ref().map(|m| m.devices), Some(2));
    assert!(check_schedule(&app, &guarded.schedule).unwrap().is_match());
}

#[test]
fn guarded_link_fault_keeps_the_single_device_fallback() {
    let app = small_app("PATH");
    let mode = ExecMode::ConsumerPriority { window: 4 };
    let fault = FaultPlan {
        link_drop_nth: Some(0),
        ..FaultPlan::default()
    };
    let plain = run_on(
        2,
        &app,
        RunSpec {
            fault: fault.clone(),
            ..RunSpec::new(mode)
        },
    );
    let fallback = plain.multi.as_ref().and_then(|m| m.fallback);
    assert!(matches!(fallback, Some((DegradationReason::LinkFault, _))));
    let guarded = run_on(
        2,
        &app,
        RunSpec {
            guard: true,
            fault,
            ..RunSpec::new(mode)
        },
    );
    assert_eq!(guarded, plain);
}
