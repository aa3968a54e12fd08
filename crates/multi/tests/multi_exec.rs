//! End-to-end behaviour of the multi-GPU path on real workloads:
//! delegation at `devices = 1`, architectural invisibility of the sharded
//! schedule, reproducibility and link-fault fallback.

use blockmaestro::{
    check_schedule, jit_analyze_app, random_plan, BmError, DegradationReason, EngineError,
    ExecMode, FaultClass, FaultPlan, FaultRng, RunReport, RunSpec,
};
use bm_multi::{run, MultiGpuConfig};
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::{suite, Scale};

fn build(name: &str) -> bm_cmdq::Application {
    let b = suite()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"));
    (b.build)(Scale::Small)
}

const MODE: ExecMode = ExecMode::ConsumerPriority { window: 4 };

/// `spec` on `devices` devices, untraced.
fn run_on(
    devices: u32,
    app: &bm_cmdq::Application,
    spec: &mut RunSpec<'_>,
) -> Result<RunReport, BmError> {
    run(
        &GpuConfig::small(),
        &MultiGpuConfig::devices(devices),
        app,
        spec,
        &NullTracer,
    )
}

/// A guarded spec under [`MODE`] with `fault` injected.
fn guarded(fault: FaultPlan) -> RunSpec<'static> {
    RunSpec {
        guard: true,
        fault,
        ..RunSpec::new(MODE)
    }
}

#[test]
fn one_device_delegates_to_the_single_device_engine() {
    let cfg = GpuConfig::small();
    let app = build("PATH");
    let single =
        blockmaestro::run(&cfg, &app, &mut guarded(FaultPlan::default()), &NullTracer).unwrap();
    let multi = run_on(1, &app, &mut guarded(FaultPlan::default())).unwrap();
    assert_eq!(multi, single, "devices=1 must be bit-identical");
    assert!(multi.multi.is_none(), "no multi section on a 1-device run");

    // The whole spec is delegated, fault plan included.
    let jit = jit_analyze_app(&cfg, &app, bm_depgraph::HazardMode::Raw);
    let kill = FaultPlan {
        kill_at_kernel: Some(1),
        ..FaultPlan::default()
    };
    let drop = random_plan(FaultClass::DropChild, &jit, &mut FaultRng::new(7))
        .expect("PATH has explicit edges to drop");
    for fault in [kill, drop] {
        let single = blockmaestro::run(&cfg, &app, &mut guarded(fault.clone()), &NullTracer);
        match &single {
            Err(BmError::Engine(EngineError::Killed { .. })) => {}
            Ok(r) => assert!(r.guard.recovery_rounds >= 1, "the dropped edge must bite"),
            Err(e) => panic!("unexpected error {e}"),
        }
        let multi = run_on(1, &app, &mut guarded(fault.clone()));
        assert_eq!(
            multi, single,
            "devices=1 must honor the fault plan {fault:?}"
        );
    }
}

#[test]
fn two_devices_execute_every_tb_and_stay_architecturally_invisible() {
    for name in ["PATH", "HS", "NW"] {
        let app = build(name);
        let report = run_on(2, &app, &mut RunSpec::new(MODE)).unwrap();
        let multi = report.multi.as_ref().expect("multi stats present");
        assert_eq!(multi.devices, 2);
        assert_eq!(multi.per_device.len(), 2);
        assert!(multi.fallback.is_none());
        let total_tbs: u64 = multi.per_device.iter().map(|d| d.tbs_executed).sum();
        assert_eq!(total_tbs as usize, report.schedule.len(), "{name}");
        // The sharded schedule must still replay to the serialized result.
        check_schedule(&app, &report.schedule).unwrap_or_else(|e| {
            panic!("{name}: sharded schedule not architecturally invisible: {e:?}")
        });
        // Cross-device dependencies actually flowed.
        if multi.cut_edges > 0 {
            assert!(multi.transfers > 0, "{name}: cut edges but no transfers");
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let app = build("PATH");
    let a = run_on(2, &app, &mut RunSpec::new(MODE)).unwrap();
    let b = run_on(2, &app, &mut RunSpec::new(MODE)).unwrap();
    assert_eq!(a, b);
}

#[test]
fn four_devices_handle_all_modes() {
    let app = build("HS");
    for mode in [
        ExecMode::Baseline,
        ExecMode::IdealBaseline,
        ExecMode::GraphLaunch,
        ExecMode::PreLaunch { window: 4 },
        ExecMode::ProducerPriority { window: 4 },
        ExecMode::ConsumerPriority { window: 4 },
    ] {
        let report =
            run_on(4, &app, &mut RunSpec::new(mode)).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        check_schedule(&app, &report.schedule)
            .unwrap_or_else(|e| panic!("{mode:?}: not invisible: {e:?}"));
    }
}

#[test]
fn dropped_transfer_falls_back_to_single_device() {
    let app = build("PATH");
    let plan = FaultPlan {
        link_drop_nth: Some(0),
        ..FaultPlan::default()
    };
    let mut spec = RunSpec {
        fault: plan,
        ..RunSpec::new(MODE)
    };
    let report = run_on(2, &app, &mut spec).unwrap();
    let multi = report.multi.as_ref().expect("fallback keeps multi stats");
    let (reason, cycle) = multi.fallback.expect("fallback recorded");
    assert_eq!(reason, DegradationReason::LinkFault);
    assert!(cycle > 0);
    assert!(multi.per_device.is_empty(), "no per-device stats survive");
    // The fallback result is a clean single-device run.
    let clean = blockmaestro::try_run_app(&GpuConfig::small(), &app, MODE).unwrap();
    let mut downgraded = report.clone();
    downgraded.multi = None;
    assert_eq!(downgraded, clean);
}

#[test]
fn a_fired_token_cancels_every_device_engine() {
    let cfg = GpuConfig::small();
    let app = build("NW");
    let jit = jit_analyze_app(&cfg, &app, bm_depgraph::HazardMode::Raw);
    let token = blockmaestro::CancelToken::new();
    token.cancel();
    let mut spec = RunSpec {
        kernels: Some(&jit),
        cancel: Some(token),
        ..RunSpec::new(MODE)
    };
    let err = run_on(2, &app, &mut spec).unwrap_err();
    assert!(
        matches!(err, BmError::Engine(EngineError::Cancelled { .. })),
        "got {err}"
    );
}

#[test]
fn a_checkpoint_store_on_two_devices_is_a_typed_error() {
    let app = build("NW");
    let mut store = blockmaestro::MemStore::default();
    let mut spec = RunSpec {
        checkpoint: blockmaestro::CheckpointSession {
            policy: blockmaestro::CheckpointPolicy::every_kernels(1),
            store: Some(&mut store),
            ..blockmaestro::CheckpointSession::disabled()
        },
        ..RunSpec::new(MODE)
    };
    let err = run_on(2, &app, &mut spec).unwrap_err();
    assert!(matches!(err, BmError::Unsupported(_)), "got {err}");
    assert!(store.snaps.is_empty());
}
