//! The one run entry point: a [`RunSpec`] says how to run an application
//! and [`run`] runs it on one device.
//!
//! Every single-device run goes through [`run`]: guarded or not, traced or
//! not, with injected faults, an analysis budget, kernels analyzed
//! elsewhere, checkpoints or a cancellation token. `bm-multi`'s `run`
//! takes the same spec for 1..N devices and hands `devices ≤ 1` here.

use crate::degrade::{AnalysisBudget, AnalysisCache};
use crate::engine::{drive, CheckpointSession, RunReport};
use crate::error::BmError;
use crate::faults::FaultPlan;
use crate::guard::guarded_rounds;
use crate::jit::{try_jit_analyze_app_par_traced, JitKernel};
use crate::modes::ExecMode;
use crate::snapshot::{app_fingerprint, GuardSnapshot, RunSnapshot, SnapshotError, SnapshotStore};
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_ptx::cancel::CancelToken;
use bm_ptx::error::PtxError;
use bm_ptx::par::ParallelConfig;
use bm_simt::config::GpuConfig;
use bm_trace::{NullTracer, TraceEvent, Tracer};
use std::borrow::Cow;

/// How to run an application: every choice [`run`] makes, plus the
/// checkpoint outputs it hands back in [`RunSpec::checkpoint`].
///
/// [`RunSpec::new`] is a plain run: RAW hazards, no guard, the default
/// analysis budget, no faults, a fresh analysis, no checkpoints and no
/// cancellation. Other runs override fields with struct update syntax,
/// e.g. `RunSpec { guard: true, ..RunSpec::new(mode) }`.
pub struct RunSpec<'s> {
    /// Execution mode.
    pub mode: ExecMode,
    /// Hazards the dependency graphs track.
    pub hazard: HazardMode,
    /// Run under the soundness guard: every schedule is checked against
    /// serialized execution, and a violation or an engine failure
    /// quarantines the implicated kernels and re-runs, up to
    /// [`crate::MAX_ROUNDS`] rounds.
    pub guard: bool,
    /// Fuel of the launch-time analysis's degradation ladder.
    pub budget: AnalysisBudget,
    /// Faults injected into the dependency hardware, at kernel boundaries
    /// and into the interconnect of a multi-device run.
    pub fault: FaultPlan,
    /// Run these kernels instead of analyzing the application: one
    /// analysis shared across runs, or deliberately corrupted kernels.
    pub kernels: Option<&'s [JitKernel]>,
    /// Checkpointing. `policy`, `store` and `resume_latest` go in; `saves`
    /// and `save_failures` come out, summed over every round.
    pub checkpoint: CheckpointSession<'s>,
    /// Cooperative cancellation, observed at analysis phase boundaries,
    /// between engine steps and at kernel-retirement boundaries. `None`
    /// never fires.
    pub cancel: Option<CancelToken>,
}

impl<'s> RunSpec<'s> {
    /// A plain run under `mode`.
    pub fn new(mode: ExecMode) -> Self {
        RunSpec {
            mode,
            hazard: HazardMode::Raw,
            guard: false,
            budget: AnalysisBudget::default(),
            fault: FaultPlan::default(),
            kernels: None,
            checkpoint: CheckpointSession::disabled(),
            cancel: None,
        }
    }

    /// The kernels this spec runs: [`RunSpec::kernels`] when set, else the
    /// launch-time analysis of `app` under `hazard`, `budget` and `cancel`.
    ///
    /// # Errors
    ///
    /// A structurally invalid application, or the analysis's
    /// [`bm_ptx::PtxError`] (including a fired cancellation). Kernels
    /// handed in through [`RunSpec::kernels`] are checked against `app`
    /// and `cfg` first: a kernel count other than the launch count, a
    /// block count other than its launch's, blocks no SM can hold, fewer
    /// or more access sets than blocks in a static kernel, or a skip gate
    /// not naming an earlier kernel is a [`bm_ptx::PtxError::BadLaunch`].
    /// Wrong access sets and graphs are left to the guard.
    pub fn analyze<T: Tracer>(
        &self,
        cfg: &GpuConfig,
        app: &Application,
        tracer: &T,
    ) -> Result<Cow<'s, [JitKernel]>, BmError> {
        if let Some(jit) = self.kernels {
            check_kernels(cfg, app, jit)?;
            return Ok(Cow::Borrowed(jit));
        }
        app.validate()?;
        let mut cache = AnalysisCache::for_budget(&self.budget);
        let par = ParallelConfig {
            cancel: self.cancel.clone(),
            ..ParallelConfig::serial()
        };
        let jit = try_jit_analyze_app_par_traced(
            cfg,
            app,
            self.hazard,
            &self.budget,
            &mut cache,
            &par,
            tracer,
        )?;
        Ok(Cow::Owned(jit))
    }
}

/// Checks that `jit` can describe `app` on `cfg`, as [`RunSpec::analyze`]
/// documents; [`PtxError::BadLaunch`] names the first kernel that fails.
fn check_kernels(cfg: &GpuConfig, app: &Application, jit: &[JitKernel]) -> Result<(), BmError> {
    let bad = |kernel: &str, reason: String| {
        Err(BmError::Ptx(PtxError::BadLaunch {
            kernel: kernel.to_string(),
            reason,
        }))
    };
    let launches = app.launches();
    if jit.len() != launches.len() {
        return bad(
            &app.name,
            format!("{} kernels for {} launches", jit.len(), launches.len()),
        );
    }
    for (k, (kernel, launch)) in jit.iter().zip(launches).enumerate() {
        let p = &kernel.profile;
        if p.n_tbs != launch.num_blocks() {
            return bad(
                &kernel.name,
                format!("{} blocks for a launch of {}", p.n_tbs, launch.num_blocks()),
            );
        }
        if cfg.occupancy(p.threads, p.shared_bytes) == 0 {
            return bad(
                &kernel.name,
                format!(
                    "a block of {} threads and {} shared bytes fits no SM",
                    p.threads, p.shared_bytes
                ),
            );
        }
        if !kernel.access.non_static && kernel.access.per_tb.len() != launch.num_blocks() as usize {
            return bad(
                &kernel.name,
                format!(
                    "{} access sets for {} blocks",
                    kernel.access.per_tb.len(),
                    launch.num_blocks()
                ),
            );
        }
        if let Some(&g) = kernel.skip_gates.iter().find(|&&g| g as usize >= k) {
            return bad(&kernel.name, format!("skip gate {g} in kernel {k}"));
        }
    }
    Ok(())
}

/// Runs `app` on one device as `spec` says, observed by `tracer`.
///
/// Tracing is inert: the report is bit-identical under any tracer. With a
/// checkpoint store, snapshots are saved at kernel-retirement boundaries
/// and a resumed run is bit-identical to an uninterrupted one; a snapshot
/// that fails validation is rejected with a
/// [`TraceEvent::CheckpointReject`] and the run starts fresh. A guarded
/// run's serialized pass runs on a second thread beside the analysis and
/// the first round ([`guarded_rounds`]).
///
/// # Errors
///
/// Any [`BmError`]: an invalid application, an analysis failure, an engine
/// failure of an unguarded run, [`BmError::Unrecoverable`] when the guard
/// runs out of rounds, and a kill or a cancellation (after that
/// boundary's checkpoint is saved).
pub fn run<T: Tracer>(
    cfg: &GpuConfig,
    app: &Application,
    spec: &mut RunSpec<'_>,
    tracer: &T,
) -> Result<RunReport, BmError> {
    if !spec.guard {
        let (jit, _) = prepare(cfg, app, spec, tracer)?;
        return drive_round(cfg, app, spec, &jit, GuardSnapshot::default(), tracer);
    }
    guarded_rounds(
        app,
        spec,
        tracer,
        |spec| {
            let (jit, start) = prepare(cfg, app, spec, tracer)?;
            Ok((jit.into_owned(), start))
        },
        |spec, jit, state| drive_round(cfg, app, spec, jit, state, tracer),
    )
}

/// The kernels `spec` runs ([`RunSpec::analyze`]) and the guard state its
/// run starts from. With a checkpoint store, also fills in the session's
/// run identity and, when asked to resume, the latest snapshot, whose
/// guard state is returned.
///
/// # Errors
///
/// As [`RunSpec::analyze`].
fn prepare<'s, T: Tracer>(
    cfg: &GpuConfig,
    app: &Application,
    spec: &mut RunSpec<'s>,
    tracer: &T,
) -> Result<(Cow<'s, [JitKernel]>, GuardSnapshot), BmError> {
    let jit = spec.analyze(cfg, app, tracer)?;
    let session = &mut spec.checkpoint;
    if let Some(store) = session.store.as_deref_mut() {
        session.app_fp = app_fingerprint(app);
        session.hazard = format!("{:?}", spec.hazard);
        if session.resume_latest {
            let mode_str = format!("{:?}", spec.mode);
            match load_resume(store, session.app_fp, &mode_str, &session.hazard, jit.len()) {
                Ok(snap) => session.resume = snap,
                // A corrupt or mismatched snapshot degrades to a fresh
                // run — the failure is surfaced on the trace, never a
                // panic.
                Err(e) => {
                    if T::ENABLED {
                        tracer.emit(TraceEvent::CheckpointReject {
                            reason: e.to_string(),
                        });
                    }
                }
            }
        }
    }
    let start = session
        .resume
        .as_ref()
        .map(|snap| snap.guard.clone())
        .unwrap_or_default();
    Ok((jit, start))
}

/// One run of `jit` on the engine, its snapshots carrying the guard's
/// `state`.
fn drive_round<T: Tracer>(
    cfg: &GpuConfig,
    app: &Application,
    spec: &mut RunSpec<'_>,
    jit: &[JitKernel],
    state: GuardSnapshot,
    tracer: &T,
) -> Result<RunReport, BmError> {
    spec.checkpoint.guard = state;
    let cancel = spec.cancel.as_ref();
    Ok(drive(
        cfg,
        app,
        jit,
        spec.mode,
        &spec.fault,
        cancel,
        tracer,
        &mut spec.checkpoint,
    )?)
}

/// A guarded run under `mode` with RAW hazard tracking and no injected
/// faults.
///
/// # Errors
///
/// As [`run`].
pub fn try_run_app(
    cfg: &GpuConfig,
    app: &Application,
    mode: ExecMode,
) -> Result<RunReport, BmError> {
    let mut spec = RunSpec {
        guard: true,
        ..RunSpec::new(mode)
    };
    run(cfg, app, &mut spec, &NullTracer)
}

/// Loads the latest snapshot from `store` and checks that it belongs to
/// this exact run configuration. Returns `Ok(None)` when the store is
/// empty (nothing to resume from).
fn load_resume(
    store: &mut dyn SnapshotStore,
    app_fp: u64,
    mode: &str,
    hazard: &str,
    n_kernels: usize,
) -> Result<Option<RunSnapshot>, SnapshotError> {
    let Some(bytes) = store.load()? else {
        return Ok(None);
    };
    let snap = RunSnapshot::decode(&bytes)?;
    if snap.meta.app_fp != app_fp {
        return Err(SnapshotError::AppMismatch(
            "application fingerprint differs",
        ));
    }
    if snap.meta.mode != mode {
        return Err(SnapshotError::AppMismatch("execution mode differs"));
    }
    if snap.meta.hazard != hazard {
        return Err(SnapshotError::AppMismatch("hazard mode differs"));
    }
    if snap.meta.n_kernels as usize != n_kernels {
        return Err(SnapshotError::AppMismatch("kernel count differs"));
    }
    Ok(Some(snap))
}
