//! Resumes resume: a run restarted from a checkpoint continues from it.
//!
//! The kill-and-resume suites compare the resumed report with the
//! uninterrupted one, which a silent fallback to a fresh run would pass
//! too. Here every interior boundary `q` of a chain of `n` kernels is
//! killed and resumed through `resume_latest`, and the resumed session
//! must save exactly the `n - 1 - q` snapshots of the boundaries after
//! `q` (a fresh run saves `n - 1`); a traced resume must load once and
//! reject nothing. Both the in-memory store and a [`DirStore`] log in a
//! temp directory serve the snapshots.

use blockmaestro::{
    run, BmError, CheckpointPolicy, CheckpointSession, DirStore, EngineError, ExecMode, FaultPlan,
    MemStore, RunReport, RunSpec, SnapshotStore,
};
use bm_cmdq::{ApiCall, Application};
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::parser::parse_kernel;
use bm_simt::GpuConfig;
use bm_trace::{NullTracer, RecordingTracer, Tracer};
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

/// The `checkpoint_resume` cases: (kernels, TBs, mode).
fn cases() -> Vec<(usize, u32, ExecMode)> {
    vec![
        (3, 8, ExecMode::ProducerPriority { window: 2 }),
        (4, 4, ExecMode::ConsumerPriority { window: 3 }),
        (5, 8, ExecMode::PreLaunch { window: 2 }),
    ]
}

/// A guarded run checkpointing every kernel into `store`; returns the
/// result and the number of snapshots it saved.
fn guarded_run<T: Tracer>(
    app: &Application,
    mode: ExecMode,
    kill: Option<u32>,
    store: &mut dyn SnapshotStore,
    resume: bool,
    tracer: &T,
) -> (Result<RunReport, BmError>, u32) {
    let mut spec = RunSpec {
        guard: true,
        fault: FaultPlan {
            kill_at_kernel: kill,
            ..FaultPlan::default()
        },
        checkpoint: CheckpointSession {
            policy: CheckpointPolicy::every_kernels(1),
            store: Some(store),
            resume_latest: resume,
            ..CheckpointSession::disabled()
        },
        ..RunSpec::new(mode)
    };
    let result = run(&GpuConfig::small(), app, &mut spec, tracer);
    assert!(spec.checkpoint.save_failures.is_empty());
    (result, spec.checkpoint.saves)
}

/// Where a case's snapshots go.
enum Store {
    Mem,
    Dir,
}

/// Kills every case at every interior boundary, resumes under a fresh `T`
/// through `resume_latest`, and checks that the resumed session saved
/// only the boundaries after the kill; `check` inspects each resume's
/// tracer.
fn kill_and_resume<T: Tracer + Default>(store: Store, tag: &str, check: impl Fn(&str, &T)) {
    for (n, tbs, mode) in cases() {
        let app = chain_app(n, tbs);
        let (reference, fresh_saves) = guarded_run(
            &app,
            mode,
            None,
            &mut MemStore::default(),
            false,
            &NullTracer,
        );
        let reference = reference.expect("uninterrupted run");
        assert_eq!(
            fresh_saves as usize,
            n - 1,
            "a fresh run saves every boundary"
        );
        for q in 1..n as u32 {
            let label = format!("{tag}-{n}-{q}");
            let dir = std::env::temp_dir()
                .join(format!("bm-resume-progress-{}-{label}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut mem = MemStore::default();
            let mut killed_dir = DirStore::new(&dir);
            let killed_store: &mut dyn SnapshotStore = match store {
                Store::Mem => &mut mem,
                Store::Dir => &mut killed_dir,
            };
            let (killed, _) = guarded_run(&app, mode, Some(q), killed_store, false, &NullTracer);
            assert!(
                matches!(killed, Err(BmError::Engine(EngineError::Killed { retired, .. })) if retired == q),
                "{label}: kill at {q} produced {killed:?}"
            );
            // A restarted process opens the log afresh; the in-memory store
            // is the killed run's own.
            let mut reopened = DirStore::new(&dir);
            let resume_store: &mut dyn SnapshotStore = match store {
                Store::Mem => &mut mem,
                Store::Dir => &mut reopened,
            };
            let tracer = T::default();
            let (resumed, saves) = guarded_run(&app, mode, None, resume_store, true, &tracer);
            assert_eq!(
                resumed.unwrap_or_else(|e| panic!("{label}: resume failed: {e}")),
                reference,
                "{label}: resumed report"
            );
            assert_eq!(
                saves as usize,
                n - 1 - q as usize,
                "{label}: a resume from boundary {q} saves only the boundaries after it"
            );
            check(&label, &tracer);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The trace of a resume loads exactly one snapshot and rejects none.
fn loads_once(label: &str, tracer: &RecordingTracer) {
    let events = tracer.events();
    let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
    assert_eq!(
        count("checkpoint_load"),
        1,
        "{label}: checkpoint_load events"
    );
    assert_eq!(
        count("checkpoint_reject"),
        0,
        "{label}: checkpoint_reject events"
    );
}

#[test]
fn memstore_resume_saves_only_the_remaining_boundaries() {
    kill_and_resume::<NullTracer>(Store::Mem, "mem", |_, _| {});
}

#[test]
fn dirstore_resume_saves_only_the_remaining_boundaries() {
    kill_and_resume::<NullTracer>(Store::Dir, "dir", |_, _| {});
}

#[test]
fn traced_memstore_resume_loads_once_and_rejects_nothing() {
    kill_and_resume::<RecordingTracer>(Store::Mem, "mem-traced", loads_once);
}

#[test]
fn traced_dirstore_resume_loads_once_and_rejects_nothing() {
    kill_and_resume::<RecordingTracer>(Store::Dir, "dir-traced", loads_once);
}
