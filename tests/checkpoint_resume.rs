//! Kill-and-resume equivalence across pipeline flavors.
//!
//! For every flavor of the execution pipeline (serial analysis, reference
//! analysis, budgeted, guarded, traced, degraded) and several seeded
//! configurations, the run is checkpointed at every kernel-retirement
//! boundary, killed at each interior boundary in turn, and resumed from
//! the stored snapshot. The resumed run must reproduce the uninterrupted
//! run's `RunReport` bit for bit — and, under a recording tracer, the
//! same event stream (modulo the checkpoint instants themselves).

use blockmaestro::{
    app_fingerprint, run, try_jit_analyze_app, try_jit_analyze_app_par_traced,
    try_run_analyzed_checkpointed, AnalysisBudget, AnalysisCache, BmError, CheckpointPolicy,
    CheckpointSession, EngineError, ExecMode, FaultPlan, JitKernel, MemStore, ParallelConfig,
    RunReport, RunSnapshot, RunSpec, SnapshotError, SnapshotStore,
};
use bm_cmdq::{ApiCall, Application};
use bm_depgraph::HazardMode;
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::parser::parse_kernel;
use bm_simt::GpuConfig;
use bm_trace::{NullTracer, RecordingTracer, TraceEvent, Tracer};
use std::collections::HashMap;
use std::sync::Arc;

/// `Y[i] = X[i] + 1` chained over `n_kernels` buffer pairs.
fn chain_app(n_kernels: usize, tbs: u32) -> Application {
    let n = tbs as u64 * 64;
    let mut space = AddressSpace::new();
    let allocs: Vec<_> = (0..=n_kernels).map(|_| space.alloc(4 * n)).collect();
    let k = Arc::new(
        parse_kernel(
            r#".entry step(.param .u64 X, .param .u64 Y) {
                 ld.param.u64 %rd1, [X];
                 ld.param.u64 %rd2, [Y];
                 mov.u32 %r1, %ctaid.x;
                 mov.u32 %r2, %ntid.x;
                 mov.u32 %r3, %tid.x;
                 mad.lo.u32 %r4, %r1, %r2, %r3;
                 mul.wide.u32 %rd3, %r4, 4;
                 add.u64 %rd4, %rd1, %rd3;
                 ld.global.f32 %f1, [%rd4];
                 add.f32 %f2, %f1, 0f3F800000;
                 add.u64 %rd5, %rd2, %rd3;
                 st.global.f32 [%rd5], %f2;
                 ret;
               }"#,
        )
        .unwrap(),
    );
    let mut host_data = HashMap::new();
    host_data.insert(
        allocs[0].id,
        (0..n).map(|i| i as f32 * 0.25).collect::<Vec<_>>(),
    );
    let mut calls = vec![ApiCall::MemcpyH2D {
        alloc: allocs[0].id,
        bytes: 4 * n,
    }];
    calls.extend((0..n_kernels).map(|i| {
        ApiCall::KernelLaunch(Launch::new(
            k.clone(),
            Dim3::x(tbs),
            Dim3::x(64),
            vec![
                ArgValue::Ptr(allocs[i].base),
                ArgValue::Ptr(allocs[i + 1].base),
            ],
        ))
    }));
    Application {
        name: "ckpt-chain".into(),
        space,
        calls,
        host_data,
    }
}

/// Seeded configurations: (kernels, TBs, mode). At least three per flavor.
fn cases() -> Vec<(usize, u32, ExecMode)> {
    vec![
        (3, 8, ExecMode::ProducerPriority { window: 2 }),
        (4, 4, ExecMode::ConsumerPriority { window: 3 }),
        (5, 8, ExecMode::PreLaunch { window: 2 }),
    ]
}

/// One engine-level checkpointed run: snapshot every kernel into `store`,
/// optionally resuming from `resume_snap`, optionally dying at `kill`.
fn engine_run(
    cfg: &GpuConfig,
    app: &Application,
    jit: &[JitKernel],
    mode: ExecMode,
    kill: Option<u32>,
    store: &mut MemStore,
    resume_snap: Option<RunSnapshot>,
) -> Result<RunReport, EngineError> {
    let mut session = CheckpointSession::disabled();
    session.policy = CheckpointPolicy::every_kernels(1);
    session.store = Some(store);
    session.app_fp = app_fingerprint(app);
    session.hazard = format!("{:?}", HazardMode::Raw);
    session.resume = resume_snap;
    let fault = FaultPlan {
        kill_at_kernel: kill,
        ..FaultPlan::default()
    };
    try_run_analyzed_checkpointed(cfg, app, jit, mode, &fault, &NullTracer, &mut session)
}

/// A guarded run that checkpoints into `store` under `policy`, resuming
/// from the store's latest snapshot when `resume` is set.
#[allow(clippy::too_many_arguments)]
fn guarded_run<T: Tracer>(
    cfg: &GpuConfig,
    app: &Application,
    mode: ExecMode,
    fault: &FaultPlan,
    policy: CheckpointPolicy,
    store: &mut dyn SnapshotStore,
    resume: bool,
    tracer: &T,
) -> Result<RunReport, BmError> {
    let mut spec = RunSpec {
        guard: true,
        fault: fault.clone(),
        checkpoint: CheckpointSession {
            policy,
            store: Some(store),
            resume_latest: resume,
            ..CheckpointSession::disabled()
        },
        ..RunSpec::new(mode)
    };
    run(cfg, app, &mut spec, tracer)
}

/// Kills at every interior boundary and resumes; every resumed report
/// must equal the uninterrupted `reference`.
fn assert_resume_equivalence(
    cfg: &GpuConfig,
    app: &Application,
    jit: &[JitKernel],
    mode: ExecMode,
    n_kernels: usize,
    reference: &RunReport,
    label: &str,
) {
    for q in 1..n_kernels as u32 {
        let mut store = MemStore::default();
        let err = engine_run(cfg, app, jit, mode, Some(q), &mut store, None).unwrap_err();
        assert!(
            matches!(err, EngineError::Killed { retired, .. } if retired >= q),
            "{label}: kill at {q} under {mode} produced {err}"
        );
        assert!(
            !store.snaps.is_empty(),
            "{label}: kill at {q} must land after a save"
        );
        let snap = RunSnapshot::decode(store.snaps.last().unwrap()).expect("snapshot decodes");
        let resumed = engine_run(cfg, app, jit, mode, None, &mut store, Some(snap))
            .unwrap_or_else(|e| panic!("{label}: resume from {q} failed: {e}"));
        assert_eq!(
            &resumed, reference,
            "{label}: resume from boundary {q} under {mode} diverged"
        );
        assert_eq!(
            resumed.to_json().to_string(),
            reference.to_json().to_string(),
            "{label}: JSON report diverged after resume from {q}"
        );
    }
}

fn check_engine_flavor(label: &str, analyze: impl Fn(&GpuConfig, &Application) -> Vec<JitKernel>) {
    let cfg = GpuConfig::small();
    for (n_kernels, tbs, mode) in cases() {
        let app = chain_app(n_kernels, tbs);
        let jit = analyze(&cfg, &app);
        let mut ref_store = MemStore::default();
        let reference = engine_run(&cfg, &app, &jit, mode, None, &mut ref_store, None)
            .expect("uninterrupted run");
        assert_eq!(
            ref_store.snaps.len(),
            n_kernels - 1,
            "{label}: one snapshot per interior boundary"
        );
        assert_resume_equivalence(&cfg, &app, &jit, mode, n_kernels, &reference, label);
    }
}

#[test]
fn serial_pipeline_resumes_exactly() {
    check_engine_flavor("serial", |cfg, app| {
        try_jit_analyze_app(cfg, app, HazardMode::Raw).expect("analysis")
    });
}

/// One analysis of `app` under `budget` and `par` with a fresh cache.
fn analyze_with(
    cfg: &GpuConfig,
    app: &Application,
    budget: &AnalysisBudget,
    par: &ParallelConfig,
) -> Vec<JitKernel> {
    let mut cache = AnalysisCache::for_budget(budget);
    try_jit_analyze_app_par_traced(
        cfg,
        app,
        HazardMode::Raw,
        budget,
        &mut cache,
        par,
        &NullTracer,
    )
    .expect("analysis")
}

#[test]
fn reference_pipeline_resumes_exactly() {
    check_engine_flavor("reference", |cfg, app| {
        analyze_with(
            cfg,
            app,
            &AnalysisBudget::default(),
            &ParallelConfig::reference(),
        )
    });
}

#[test]
fn budgeted_pipeline_resumes_exactly() {
    check_engine_flavor("budgeted", |cfg, app| {
        analyze_with(
            cfg,
            app,
            &AnalysisBudget::default(),
            &ParallelConfig::serial(),
        )
    });
}

#[test]
fn degraded_pipeline_resumes_exactly() {
    // An exhausted budget pushes every kernel down the ladder; checkpoint
    // state must capture the degraded engine exactly the same way.
    check_engine_flavor("degraded", |cfg, app| {
        let jit = analyze_with(
            cfg,
            app,
            &AnalysisBudget::exhausted(),
            &ParallelConfig::serial(),
        );
        assert!(
            jit.iter().any(|k| k.degradation.is_degraded()),
            "exhausted budget must degrade"
        );
        jit
    });
}

#[test]
fn guarded_pipeline_resumes_exactly() {
    let cfg = GpuConfig::small();
    let policy = CheckpointPolicy::every_kernels(1);
    for (n_kernels, tbs, mode) in cases() {
        let app = chain_app(n_kernels, tbs);
        let mut ref_store = MemStore::default();
        let reference = guarded_run(
            &cfg,
            &app,
            mode,
            &FaultPlan::default(),
            policy,
            &mut ref_store,
            false,
            &NullTracer,
        )
        .expect("uninterrupted guarded run");
        for q in 1..n_kernels as u32 {
            let mut store = MemStore::default();
            let kill = FaultPlan {
                kill_at_kernel: Some(q),
                ..FaultPlan::default()
            };
            let err = guarded_run(
                &cfg,
                &app,
                mode,
                &kill,
                policy,
                &mut store,
                false,
                &NullTracer,
            )
            .unwrap_err();
            assert!(
                matches!(err, BmError::Engine(EngineError::Killed { .. })),
                "guarded: kill at {q} produced {err}"
            );
            let resumed = guarded_run(
                &cfg,
                &app,
                mode,
                &FaultPlan::default(),
                policy,
                &mut store,
                true,
                &NullTracer,
            )
            .unwrap_or_else(|e| panic!("guarded: resume from {q} failed: {e}"));
            assert_eq!(resumed, reference, "guarded: resume from {q} diverged");
        }
    }
}

#[test]
fn traced_pipeline_resumes_with_an_identical_event_stream() {
    let cfg = GpuConfig::small();
    for (n_kernels, tbs, mode) in cases() {
        let app = chain_app(n_kernels, tbs);
        // Reference: traced, checkpointing machinery off — a pure stream.
        let ref_tracer = RecordingTracer::new();
        let mut null_store = MemStore::default();
        let reference = guarded_run(
            &cfg,
            &app,
            mode,
            &FaultPlan::default(),
            CheckpointPolicy::disabled(),
            &mut null_store,
            false,
            &ref_tracer,
        )
        .expect("reference traced run");
        let ref_events = ref_tracer.events();
        assert!(
            ref_events
                .iter()
                .all(|e| !e.kind().starts_with("checkpoint")),
            "disabled policy must emit no checkpoint events"
        );
        for q in 1..n_kernels as u32 {
            let mut store = MemStore::default();
            let kill = FaultPlan {
                kill_at_kernel: Some(q),
                ..FaultPlan::default()
            };
            let kill_tracer = RecordingTracer::new();
            let err = guarded_run(
                &cfg,
                &app,
                mode,
                &kill,
                CheckpointPolicy::every_kernels(1),
                &mut store,
                false,
                &kill_tracer,
            )
            .unwrap_err();
            assert!(matches!(err, BmError::Engine(EngineError::Killed { .. })));
            let resume_tracer = RecordingTracer::new();
            let resumed = guarded_run(
                &cfg,
                &app,
                mode,
                &FaultPlan::default(),
                CheckpointPolicy::every_kernels(1),
                &mut store,
                true,
                &resume_tracer,
            )
            .unwrap_or_else(|e| panic!("traced: resume from {q} failed: {e}"));
            assert_eq!(resumed, reference, "traced: resume from {q} diverged");
            let events = resume_tracer.events();
            assert!(
                events.iter().any(|e| e.kind() == "checkpoint_load"),
                "resume must stamp a checkpoint_load instant"
            );
            let replayed: Vec<TraceEvent> = events
                .into_iter()
                .filter(|e| !e.kind().starts_with("checkpoint"))
                .collect();
            assert_eq!(
                replayed, ref_events,
                "traced: resume from {q} produced a different event stream"
            );
        }
    }
}

#[test]
fn mode_mismatch_is_rejected_and_run_starts_fresh() {
    let cfg = GpuConfig::small();
    let app = chain_app(3, 8);
    let policy = CheckpointPolicy::every_kernels(1);
    // Save snapshots under producer priority...
    let mut store = MemStore::default();
    let kill = FaultPlan {
        kill_at_kernel: Some(1),
        ..FaultPlan::default()
    };
    let producer = ExecMode::ProducerPriority { window: 2 };
    let consumer = ExecMode::ConsumerPriority { window: 2 };
    guarded_run(
        &cfg,
        &app,
        producer,
        &kill,
        policy,
        &mut store,
        false,
        &NullTracer,
    )
    .unwrap_err();
    // ...then resume under consumer priority: the snapshot must be
    // rejected (typed, traced) and the run must match a fresh one.
    let reference = guarded_run(
        &cfg,
        &app,
        consumer,
        &FaultPlan::default(),
        policy,
        &mut MemStore::default(),
        false,
        &NullTracer,
    )
    .unwrap();
    let tracer = RecordingTracer::new();
    let crossed = guarded_run(
        &cfg,
        &app,
        consumer,
        &FaultPlan::default(),
        policy,
        &mut store,
        true,
        &tracer,
    )
    .unwrap();
    assert_eq!(crossed, reference);
    assert!(
        tracer
            .events()
            .iter()
            .any(|e| e.kind() == "checkpoint_reject"),
        "mode mismatch must surface as a checkpoint_reject instant"
    );
}

/// A store whose every save fails.
struct FailingStore;

impl SnapshotStore for FailingStore {
    fn save(&mut self, _bytes: &[u8]) -> Result<(), SnapshotError> {
        Err(SnapshotError::Io("disk full".into()))
    }

    fn load(&mut self) -> Result<Option<Vec<u8>>, SnapshotError> {
        Ok(None)
    }
}

#[test]
fn save_failures_reach_the_caller() {
    let cfg = GpuConfig::small();
    for (n_kernels, tbs, mode) in cases() {
        let app = chain_app(n_kernels, tbs);
        let reference = guarded_run(
            &cfg,
            &app,
            mode,
            &FaultPlan::default(),
            CheckpointPolicy::disabled(),
            &mut MemStore::default(),
            false,
            &NullTracer,
        )
        .unwrap();
        let mut store = FailingStore;
        let mut spec = RunSpec {
            guard: true,
            checkpoint: CheckpointSession {
                policy: CheckpointPolicy::every_kernels(1),
                store: Some(&mut store),
                ..CheckpointSession::disabled()
            },
            ..RunSpec::new(mode)
        };
        let report = run(&cfg, &app, &mut spec, &NullTracer).unwrap();
        assert_eq!(report, reference, "failed saves must not change the run");
        assert_eq!(spec.checkpoint.saves, 0);
        // One failure per interior boundary: every one is due.
        assert_eq!(
            spec.checkpoint.save_failures,
            vec![SnapshotError::Io("disk full".into()); n_kernels - 1]
        );
    }
}

/// Small-scale GAUSSIAN (30 kernels, 301 skip gates) and NW (15 kernels,
/// 63 gates), killed at every retirement boundary and resumed. Kernel `i`
/// of `chain_app` reads only what kernel `i − 1` wrote, so it has no skip
/// gates; these snapshots hold kernels whose gates are still closed, and
/// a resume rebuilds that gate state from the `complete` flags.
#[test]
fn apps_with_skip_gates_resume_exactly() {
    let cfg = GpuConfig::small();
    for (name, n_kernels, n_gates) in [("GAUSSIAN", 30, 301), ("NW", 15, 63)] {
        let bench = bm_workloads::suite()
            .into_iter()
            .find(|b| b.name == name)
            .expect("suite app");
        let app = (bench.build)(bm_workloads::Scale::Small);
        let jit = try_jit_analyze_app(&cfg, &app, HazardMode::Raw).expect("analysis");
        assert_eq!(jit.len(), n_kernels, "{name}");
        let gates: usize = jit.iter().map(|k| k.skip_gates.len()).sum();
        assert_eq!(gates, n_gates, "{name}");
        for mode in [
            ExecMode::ConsumerPriority { window: 3 },
            ExecMode::PreLaunch { window: 2 },
        ] {
            let mut ref_store = MemStore::default();
            let reference = engine_run(&cfg, &app, &jit, mode, None, &mut ref_store, None)
                .expect("uninterrupted run");
            assert_resume_equivalence(&cfg, &app, &jit, mode, n_kernels, &reference, name);
        }
    }
}
