//! The BlockMaestro execution engine.
//!
//! Implements the paper's runtime on top of the `bm-simt` discrete-event
//! substrate: kernel pre-launching through a bounded window of active
//! kernels, in-order kernel completion, TB-level dependency resolution via
//! the dependency-list / parent-counter buffers, and the producer/consumer
//! scheduling policies. The baselines (serialized execution with and
//! without launch overhead) run through the same machinery with a window
//! of one.

#![deny(clippy::unwrap_used)]

use crate::degrade::{Degradation, DegradationReason, DegradationRung, PressureEvent};
use crate::error::EngineError;
use crate::faults::FaultPlan;
use crate::guard::GuardReport;
use crate::hw::{
    DepListBuffer, HwError, HwTraffic, ParentCounterBuffer, BUFFER_ENTRIES, MAX_COUNTER,
};
use crate::jit::JitKernel;
use crate::modes::ExecMode;
use crate::snapshot::{
    CheckpointPolicy, EngineSnapshot, EngineView, GuardSnapshot, KernelImage, KernelView,
    RunSnapshot, SnapshotError, SnapshotMeta, SnapshotStore, SnapshotWriter, StateView,
};
use bm_cmdq::{build_call_dag, reorder_for_prelaunch_traced, ApiCall, Application, Reordering};
use bm_depgraph::{GraphKind, Pattern};
use bm_ptx::cancel::CancelToken;
use bm_simt::config::GpuConfig;
use bm_simt::des::{DesEngine, DesError, DesStats, StepOutcome, TbDescriptor, TbKey, TbSource};
use bm_trace::json::Json;
use bm_trace::{StallReason, TbId, TraceEvent, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Results of one application run under one execution mode.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The mode that produced this report.
    pub mode: ExecMode,
    /// End-to-end cycles including host prologue/epilogue.
    pub total_cycles: u64,
    /// Cycles from first kernel issue to last TB completion.
    pub kernel_region_cycles: u64,
    /// Average concurrently-running thread blocks (Fig. 10).
    pub avg_concurrency: f64,
    /// Per-TB dependency stall normalized to TB execution time (Fig. 11).
    pub stalls_normalized: Vec<f64>,
    /// Application memory transactions (kernels' own traffic).
    pub baseline_mem_requests: u64,
    /// Scheduler-hardware memory transactions (Fig. 13 overhead).
    pub overhead_mem_requests: u64,
    /// Detailed hardware traffic breakdown.
    pub hw_traffic: HwTraffic,
    /// Total encoded dependency-graph bytes over the run (Table III).
    pub storage_encoded: u64,
    /// Total plain dependency-graph bytes over the run (Table III).
    pub storage_plain: u64,
    /// Per-kernel `(name, pattern)` classification (Table II).
    pub patterns: Vec<(String, Pattern)>,
    /// The full TB schedule `(key, start, finish)`.
    pub schedule: Vec<(TbKey, u64, u64)>,
    /// Number of kernels executed.
    pub num_kernels: usize,
    /// Peak simultaneous dependency-list buffer occupancy — must stay
    /// within the 896 entries of §IV-C.
    pub dlb_high_water: usize,
    /// Peak simultaneous parent-counter buffer occupancy.
    pub pcb_high_water: usize,
    /// Soundness-guard accounting (all zeros for unguarded runs).
    pub guard: GuardReport,
    /// Per-kernel `(name, degradation)` ladder placement: which rung each
    /// kernel's launch-time analysis landed on and why.
    pub degradation: Vec<(String, Degradation)>,
    /// Launches whose analysis was served from the bounded analysis cache.
    pub cache_hits: u64,
    /// Launches analyzed from scratch.
    pub cache_misses: u64,
    /// Admission-backpressure steps: each time scheduler-buffer spill
    /// traffic crossed the configured threshold and shrank the pre-launch
    /// window.
    pub pressure_events: Vec<PressureEvent>,
    /// Multi-device execution statistics. `None` for every single-device
    /// run — the field (and its JSON key) only appears when `bm-multi`
    /// actually sharded the app, so single-device reports stay
    /// bit-identical to the pre-multi engine.
    pub multi: Option<MultiStats>,
}

/// Per-device accounting from one multi-GPU run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStats {
    /// Device id (0-based).
    pub device: u32,
    /// Thread blocks this device executed.
    pub tbs_executed: u64,
    /// Cycle at which the device's last owned TB completed.
    pub busy_cycles: u64,
    /// Average concurrently-running TBs on this device.
    pub avg_concurrency: f64,
    /// Cross-device dependency messages this device sent.
    pub sent_msgs: u64,
    /// Cross-device dependency messages this device received.
    pub recv_msgs: u64,
}

/// Summary of a multi-GPU execution, attached to [`RunReport::multi`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStats {
    /// Devices the app was sharded across.
    pub devices: u32,
    /// Configured per-hop link latency in cycles.
    pub link_latency_cycles: u64,
    /// Configured link bandwidth in bytes per cycle.
    pub link_bandwidth_bytes_per_cycle: u64,
    /// Parent→child dependency edges that crossed a device boundary.
    pub cut_edges: u64,
    /// Total explicit dependency edges considered by the partitioner.
    pub total_edges: u64,
    /// Cross-device transfers carried by the interconnect.
    pub transfers: u64,
    /// Total bytes moved across the interconnect.
    pub transfer_bytes: u64,
    /// Total cycles messages spent in flight (sum of per-message latency).
    pub transfer_cycles: u64,
    /// Per-device execution statistics, ordered by device id.
    pub per_device: Vec<DeviceStats>,
    /// Set when the multi-device attempt was abandoned and the report
    /// actually comes from the single-device fallback: the reason and the
    /// interconnect cycle at which the fault was detected.
    pub fallback: Option<(DegradationReason, u64)>,
}

impl MultiStats {
    /// Fraction of dependency edges cut by the partition.
    pub fn cut_fraction(&self) -> f64 {
        if self.total_edges == 0 {
            0.0
        } else {
            self.cut_edges as f64 / self.total_edges as f64
        }
    }

    /// Machine-readable form, embedded under the report's `"multi"` key.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("devices", Json::u64(self.devices as u64)),
            ("link_latency_cycles", Json::u64(self.link_latency_cycles)),
            (
                "link_bandwidth_bytes_per_cycle",
                Json::u64(self.link_bandwidth_bytes_per_cycle),
            ),
            ("cut_edges", Json::u64(self.cut_edges)),
            ("total_edges", Json::u64(self.total_edges)),
            ("transfers", Json::u64(self.transfers)),
            ("transfer_bytes", Json::u64(self.transfer_bytes)),
            ("transfer_cycles", Json::u64(self.transfer_cycles)),
            (
                "per_device",
                Json::Arr(
                    self.per_device
                        .iter()
                        .map(|d| {
                            Json::obj([
                                ("device", Json::u64(d.device as u64)),
                                ("tbs_executed", Json::u64(d.tbs_executed)),
                                ("busy_cycles", Json::u64(d.busy_cycles)),
                                ("avg_concurrency", Json::Num(d.avg_concurrency)),
                                ("sent_msgs", Json::u64(d.sent_msgs)),
                                ("recv_msgs", Json::u64(d.recv_msgs)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "fallback",
                match &self.fallback {
                    Some((reason, cycle)) => Json::obj([
                        ("reason", Json::Str(reason.to_string())),
                        ("at_cycle", Json::u64(*cycle)),
                    ]),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl RunReport {
    /// Memory-request overhead as a fraction of application traffic.
    pub fn mem_overhead_fraction(&self) -> f64 {
        if self.baseline_mem_requests == 0 {
            0.0
        } else {
            self.overhead_mem_requests as f64 / self.baseline_mem_requests as f64
        }
    }

    /// Encoded-over-plain storage ratio (Table III); `None` when the app
    /// stores no dependency graphs at all (fully independent kernels).
    pub fn storage_ratio(&self) -> Option<f64> {
        (self.storage_plain > 0).then(|| self.storage_encoded as f64 / self.storage_plain as f64)
    }

    /// The full report as a machine-readable JSON value (`bmrun --json`).
    ///
    /// Object keys are emitted in sorted order, so equal reports serialize
    /// to byte-identical JSON.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("mode", Json::Str(format!("{:?}", self.mode))),
            ("total_cycles", Json::u64(self.total_cycles)),
            ("kernel_region_cycles", Json::u64(self.kernel_region_cycles)),
            ("avg_concurrency", Json::Num(self.avg_concurrency)),
            (
                "stalls_normalized",
                Json::Arr(
                    self.stalls_normalized
                        .iter()
                        .map(|&s| Json::Num(s))
                        .collect(),
                ),
            ),
            (
                "baseline_mem_requests",
                Json::u64(self.baseline_mem_requests),
            ),
            (
                "overhead_mem_requests",
                Json::u64(self.overhead_mem_requests),
            ),
            (
                "hw_traffic",
                Json::obj([
                    (
                        "dep_list_fetches",
                        Json::u64(self.hw_traffic.dep_list_fetches),
                    ),
                    (
                        "counter_fetches",
                        Json::u64(self.hw_traffic.counter_fetches),
                    ),
                    (
                        "counter_writebacks",
                        Json::u64(self.hw_traffic.counter_writebacks),
                    ),
                ]),
            ),
            ("storage_encoded", Json::u64(self.storage_encoded)),
            ("storage_plain", Json::u64(self.storage_plain)),
            (
                "patterns",
                Json::Arr(
                    self.patterns
                        .iter()
                        .map(|(name, p)| {
                            Json::obj([
                                ("kernel", Json::str(name)),
                                ("pattern", Json::Str(format!("{p:?}"))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "schedule",
                Json::Arr(
                    self.schedule
                        .iter()
                        .map(|&(key, start, finish)| {
                            Json::obj([
                                ("kernel", Json::u64(key.kernel_seq as u64)),
                                ("tb", Json::u64(key.tb as u64)),
                                ("start", Json::u64(start)),
                                ("finish", Json::u64(finish)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("num_kernels", Json::u64(self.num_kernels as u64)),
            ("dlb_high_water", Json::u64(self.dlb_high_water as u64)),
            ("pcb_high_water", Json::u64(self.pcb_high_water as u64)),
            (
                "guard",
                Json::obj([
                    (
                        "violations_detected",
                        Json::u64(self.guard.violations_detected),
                    ),
                    (
                        "kernels_quarantined",
                        Json::u64(self.guard.kernels_quarantined),
                    ),
                    (
                        "recovery_rounds",
                        Json::u64(self.guard.recovery_rounds as u64),
                    ),
                    (
                        "cycles_lost_to_fallback",
                        Json::u64(self.guard.cycles_lost_to_fallback),
                    ),
                ]),
            ),
            (
                "degradation",
                Json::Arr(
                    self.degradation
                        .iter()
                        .map(|(name, d)| {
                            Json::obj([
                                ("kernel", Json::str(name)),
                                ("rung", Json::Str(d.rung.to_string())),
                                ("reason", Json::Str(d.reason.to_string())),
                                ("at_cycle", Json::u64(d.at_cycle)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cache_hits", Json::u64(self.cache_hits)),
            ("cache_misses", Json::u64(self.cache_misses)),
            (
                "pressure_events",
                Json::Arr(
                    self.pressure_events
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("cycle", Json::u64(p.cycle)),
                                ("spill_traffic", Json::u64(p.spill_traffic)),
                                ("window_before", Json::u64(p.window_before as u64)),
                                ("window_after", Json::u64(p.window_after as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(m) = &self.multi {
            pairs.push(("multi", m.to_json()));
        }
        Json::obj(pairs)
    }
}

/// One engine run's checkpoint context: when to save, where to, what to
/// resume from, and the guard state that snapshots must carry. Save
/// counts and failures accumulate here across every run that shares the
/// session (each round of a guarded [`crate::run`]).
#[derive(Default)]
pub struct CheckpointSession<'s> {
    /// When to capture (evaluated at kernel-retirement boundaries only).
    pub policy: CheckpointPolicy,
    /// Destination for captured snapshots; `None` disables saving.
    pub store: Option<&'s mut dyn SnapshotStore>,
    /// Application fingerprint stamped into snapshot metadata.
    pub app_fp: u64,
    /// Hazard-mode string stamped into snapshot metadata.
    pub hazard: String,
    /// Soundness-guard context carried into snapshots, so a resumed run
    /// re-applies the same quarantines and recovery round.
    pub guard: GuardSnapshot,
    /// Resume from the latest snapshot in `store`: [`crate::run`] loads and
    /// validates it into `resume` before the first round, and a snapshot
    /// that fails validation is rejected on the trace (the run starts
    /// fresh). The engine driver itself reads only `resume`.
    pub resume_latest: bool,
    /// A decoded snapshot to resume from; consumed (and cross-validated)
    /// by the run. Invalid resumes degrade to a fresh run.
    pub resume: Option<RunSnapshot>,
    /// Save failures (I/O errors) — saving is best-effort and never fails
    /// the run; failures are surfaced here for the caller.
    pub save_failures: Vec<SnapshotError>,
    /// Snapshots successfully captured during this run.
    pub saves: u32,
}

impl CheckpointSession<'_> {
    /// A session that neither saves nor resumes — the plain execution
    /// path.
    pub fn disabled() -> Self {
        CheckpointSession::default()
    }
}

/// An unguarded run of already-analyzed kernels (lets callers share the
/// analysis across the six Fig. 9 variants).
///
/// # Errors
///
/// As [`try_run_analyzed_checkpointed`].
pub fn try_run_analyzed(
    cfg: &GpuConfig,
    app: &Application,
    jit: &[JitKernel],
    mode: ExecMode,
) -> Result<RunReport, EngineError> {
    try_run_analyzed_checkpointed(
        cfg,
        app,
        jit,
        mode,
        &FaultPlan::default(),
        &bm_trace::NullTracer,
        &mut CheckpointSession::disabled(),
    )
}

/// Runs already-analyzed kernels on one device, without the guard or a
/// cancellation token: the engine driver behind [`crate::run`].
///
/// # Errors
///
/// [`EngineError::Deadlock`] when the simulation wedges with unfinished
/// TBs, [`EngineError::Hw`] when the scheduler buffers detect inconsistent
/// dependency metadata (injected faults surface through the same
/// variants), and [`EngineError::Killed`] / [`EngineError::Cancelled`]
/// when the fault plan's kill or cancel point fires.
pub fn try_run_analyzed_checkpointed<T: Tracer>(
    cfg: &GpuConfig,
    app: &Application,
    jit: &[JitKernel],
    mode: ExecMode,
    fault: &FaultPlan,
    tracer: &T,
    session: &mut CheckpointSession<'_>,
) -> Result<RunReport, EngineError> {
    drive(cfg, app, jit, mode, fault, None, tracer, session)
}

/// The single-device engine driver: every run on one device goes through
/// here. With [`bm_trace::NullTracer`] every emission site
/// compiles out; with a recording sink the run emits kernel lifecycle, TB
/// readiness/stall, scheduler-buffer, backpressure and command-queue
/// events without perturbing the simulation.
///
/// At each kernel-retirement boundary the driver may capture a
/// [`RunSnapshot`] (per `session.policy`), and a
/// [`crate::faults::FaultClass::KillPoint`] plan may kill the run —
/// strictly *after* the boundary's save, so the run is always resumable
/// from the kill point. Saves are pure observation: the run's
/// [`RunReport`] (and trace stream) is bit-identical with checkpointing
/// on or off, and a resumed run is bit-identical to an uninterrupted one.
///
/// `cancel` is installed into the DES engine (observed between steps) and
/// checked at every kernel-retirement boundary, where a firing forces a
/// final checkpoint before the typed [`EngineError::Cancelled`] surfaces.
///
/// # Errors
///
/// As [`try_run_analyzed_checkpointed`], plus [`EngineError::Cancelled`]
/// when `cancel` fires.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<T: Tracer>(
    cfg: &GpuConfig,
    app: &Application,
    jit: &[JitKernel],
    mode: ExecMode,
    fault: &FaultPlan,
    cancel: Option<&CancelToken>,
    tracer: &T,
    session: &mut CheckpointSession<'_>,
) -> Result<RunReport, EngineError> {
    let order = if mode.prelaunches() {
        reorder_for_prelaunch_traced(app, tracer)
    } else {
        Reordering::identity(app.calls.len())
    };
    let (host_ready, epilogue) = host_timeline(cfg, app, &order, mode);
    let order_ids: Vec<u32> = order.order.iter().map(|&i| i as u32).collect();
    // Cross-check a resume candidate against the deterministically
    // recomputed reordering; divergence means the snapshot came from a
    // different application or library version.
    let mut resume = session.resume.take();
    if let Some(snap) = &resume {
        if snap.order != order_ids {
            if T::ENABLED {
                tracer.emit(TraceEvent::CheckpointReject {
                    reason: SnapshotError::AppMismatch("command-queue reordering diverged")
                        .to_string(),
                });
            }
            resume = None;
        }
    }
    // Everything the tracer records from here on is the run phase; the
    // slice from `run_base` is what snapshots embed.
    let run_base = tracer.recorded_len();
    let restored = resume.and_then(|snap| {
        match EngineSource::restore(
            cfg,
            jit,
            mode,
            host_ready.clone(),
            fault,
            tracer,
            &snap.engine,
        ) {
            Ok(source) => Some((source, snap)),
            Err(e) => {
                if T::ENABLED {
                    tracer.emit(TraceEvent::CheckpointReject {
                        reason: e.to_string(),
                    });
                }
                None
            }
        }
    });
    // One writer per run: each save appends the history records of kernels
    // retired since the previous one and re-encodes only the live part.
    // After a resume the first save writes the whole history once.
    let mut writer = SnapshotWriter::new();
    let (mut source, mut engine, mut prev_retired, mut last_saved) = match restored {
        Some((source, snap)) => {
            let mut engine = DesEngine::from_checkpoint(&snap.des);
            if let Some(tok) = cancel {
                engine.set_cancel(tok.clone());
            }
            if T::ENABLED {
                // Replay the snapshot's embedded run-phase slice so the
                // resumed stream is bit-identical to the uninterrupted one
                // (the slice already ends with this snapshot's own
                // `CheckpointSave`), then mark the seam.
                for ev in snap.trace {
                    tracer.emit(ev);
                }
                tracer.emit(TraceEvent::CheckpointLoad {
                    cycle: snap.meta.cycle,
                    retired: snap.meta.retired,
                });
            }
            let at = (snap.meta.retired, snap.meta.cycle);
            (source, engine, at.0, at)
        }
        None => {
            let mut source = EngineSource::new(cfg, jit, mode, host_ready, fault, tracer);
            let mut engine = DesEngine::new(cfg);
            if let Some(tok) = cancel {
                engine.set_cancel(tok.clone());
            }
            source.on_time_advance(0);
            (source, engine, 0, (0, 0))
        }
    };
    let failure = loop {
        match engine.step(&mut source, tracer) {
            Ok(StepOutcome::Finished) => break None,
            Ok(StepOutcome::Progressed) => {
                let retired = source.retired as u32;
                if retired <= prev_retired {
                    continue;
                }
                let now = engine.now();
                // Save first, kill second: a killed run is resumable from
                // the very boundary that killed it.
                if session.store.is_some()
                    && (retired as usize) < jit.len()
                    && session
                        .policy
                        .due(retired - last_saved.0, now.saturating_sub(last_saved.1))
                {
                    save_snapshot(
                        &mut writer,
                        &source,
                        &engine,
                        mode,
                        session,
                        &order_ids,
                        retired,
                        now,
                        run_base,
                        tracer,
                    );
                    last_saved = (retired, now);
                }
                if let Some(q) = fault.kill_at_kernel {
                    if prev_retired < q && retired >= q {
                        return Err(EngineError::Killed {
                            cycle: now,
                            retired,
                        });
                    }
                }
                // Injected boundary cancellation mirrors the kill point:
                // the boundary's checkpoint (when due) has already landed,
                // so the cancelled run is resumable.
                if let Some(q) = fault.cancel_at_kernel {
                    if prev_retired < q && retired >= q {
                        return Err(EngineError::Cancelled {
                            cycle: now,
                            retired,
                            cause: bm_ptx::cancel::CancelCause::Cancelled,
                        });
                    }
                }
                // Injected worker crash: a raw panic after the boundary's
                // save, modeling a worker dying mid-run. Contained by the
                // serve layer's catch_unwind; resumable like a kill.
                if let Some(q) = fault.panic_at_kernel {
                    if prev_retired < q && retired >= q {
                        panic!("injected worker panic at kernel boundary {q}");
                    }
                }
                // Cooperative cancellation at the retirement boundary:
                // force a final checkpoint for the freshest resume point
                // (deadlines rarely align with the periodic policy), then
                // surface the typed error.
                if let Some(cause) = cancel.and_then(CancelToken::fired) {
                    if session.store.is_some()
                        && (retired as usize) < jit.len()
                        && last_saved != (retired, now)
                    {
                        save_snapshot(
                            &mut writer,
                            &source,
                            &engine,
                            mode,
                            session,
                            &order_ids,
                            retired,
                            now,
                            run_base,
                            tracer,
                        );
                    }
                    return Err(EngineError::Cancelled {
                        cycle: now,
                        retired,
                        cause,
                    });
                }
                prev_retired = retired;
            }
            Err(DesError::Deadlock(snap)) => break Some(EngineError::Deadlock(snap)),
            Err(DesError::SourceAbort { cycle }) => {
                break Some(
                    source
                        .error
                        .take()
                        .unwrap_or(EngineError::Aborted { cycle }),
                )
            }
            // The engine observed the token between steps, mid-kernel: the
            // last boundary checkpoint (if any) remains the resume point.
            Err(DesError::Cancelled { cycle, cause }) => {
                break Some(EngineError::Cancelled {
                    cycle,
                    retired: prev_retired,
                    cause,
                })
            }
        }
    };
    if let Some(e) = failure {
        return Err(e);
    }
    let stats = engine.finish();
    match source.error.take() {
        Some(e) => Err(e),
        None => Ok(assemble_report(cfg, jit, mode, &source, stats, epilogue)),
    }
}

/// Encodes the boundary snapshot through the run's writer and saves it to
/// the session's store, which must be set. The snapshot embeds the
/// run-phase trace slice terminated by this snapshot's own `CheckpointSave`
/// event (emitted to the live stream too, so later snapshots and the final
/// trace agree); the writer stamps the event's fixed-width `bytes` field
/// with the encoded size.
#[allow(clippy::too_many_arguments)]
fn save_snapshot<T: Tracer>(
    writer: &mut SnapshotWriter,
    source: &EngineSource<'_, T>,
    engine: &DesEngine,
    mode: ExecMode,
    session: &mut CheckpointSession<'_>,
    order: &[u32],
    retired: u32,
    now: u64,
    run_base: usize,
    tracer: &T,
) {
    let mut trace = Vec::new();
    if T::ENABLED {
        // `checkpoint_load` seams are resume-local: a snapshot taken after
        // a resume must carry the same slice an uninterrupted run's
        // snapshot would.
        trace = tracer.recorded_since(run_base);
        trace.retain(|ev| ev.kind() != "checkpoint_load");
        trace.push(TraceEvent::CheckpointSave {
            cycle: now,
            retired,
            bytes: 0,
        });
    }
    let meta = SnapshotMeta {
        app_fp: session.app_fp,
        mode: format!("{mode:?}"),
        hazard: session.hazard.clone(),
        n_kernels: source.jit.len() as u32,
        retired,
        cycle: now,
    };
    let bytes = writer.write(&StateView {
        meta: &meta,
        des: engine.view(),
        engine: source.view(),
        guard: &session.guard,
        order,
        trace: &trace,
        stamp_size: T::ENABLED,
    });
    #[cfg(test)]
    {
        // Unit tests hold every save to the clone-based capture.
        if let Some(TraceEvent::CheckpointSave { bytes: b, .. }) = trace.last_mut() {
            *b = bytes.len() as u64;
        }
        let oracle = RunSnapshot {
            meta: meta.clone(),
            des: engine.checkpoint(),
            engine: source.snapshot(),
            guard: session.guard.clone(),
            order: order.to_vec(),
            trace: trace.clone(),
        };
        assert!(
            oracle.encode() == bytes,
            "snapshot at retired={retired} differs from the clone-based capture"
        );
    }
    if T::ENABLED {
        tracer.emit(TraceEvent::CheckpointSave {
            cycle: now,
            retired,
            bytes: bytes.len() as u64,
        });
    }
    let store = session.store.as_deref_mut().expect("saves need a store");
    match store.save(bytes) {
        Ok(()) => session.saves += 1,
        Err(e) => session.save_failures.push(e),
    }
}

/// Host-side issue times for each kernel plus the post-kernel epilogue
/// cost (trailing D2H copies etc.).
///
/// Baseline modes model blocking semantics: every memory call occupies the
/// host before the next call can be reached. Pre-launching modes model the
/// paper's "treat blocking operations as non-blocking" (§III-C): the host
/// issues commands back-to-back while copies drain through a DMA engine,
/// and a kernel only waits for the *specific* copies it depends on.
fn host_timeline(
    cfg: &GpuConfig,
    app: &Application,
    order: &Reordering,
    mode: ExecMode,
) -> (Vec<u64>, u64) {
    let api = if mode.has_launch_overhead() {
        cfg.launch_api_cycles
    } else {
        0
    };
    let copy_cost =
        |bytes: u64| cfg.memcpy_setup_cycles + bytes / cfg.memcpy_bytes_per_cycle.max(1);
    let mut host_ready = Vec::new();
    let mut tail: u64 = 0;
    if !mode.prelaunches() {
        // Blocking host: costs serialize in command order.
        let mut h: u64 = 0;
        for &i in &order.order {
            match &app.calls[i] {
                ApiCall::Malloc { .. } => {
                    h += cfg.malloc_cycles;
                    tail = 0;
                }
                ApiCall::MemcpyH2D { bytes, .. } => {
                    h += copy_cost(*bytes);
                    tail = 0;
                }
                ApiCall::MemcpyD2H { bytes, .. } => {
                    let cost = copy_cost(*bytes);
                    h += cost;
                    tail += cost;
                }
                ApiCall::DeviceSynchronize => {
                    tail = 0;
                }
                ApiCall::KernelLaunch(_) => {
                    host_ready.push(h);
                    h += api;
                    tail = 0;
                }
            }
        }
        return (host_ready, tail);
    }
    // Non-blocking host: per-call issue cost only; copies drain serially
    // through the DMA engine; kernels gate on their own copy dependencies.
    const ISSUE_CYCLES: u64 = 200;
    let dag = build_call_dag(app);
    let n = app.calls.len();
    let mut finish = vec![0u64; n];
    let mut host: u64 = 0;
    let mut dma: u64 = 0;
    for &i in &order.order {
        match &app.calls[i] {
            ApiCall::Malloc { .. } => {
                host += ISSUE_CYCLES;
                finish[i] = host + cfg.malloc_cycles;
            }
            ApiCall::MemcpyH2D { bytes, .. } | ApiCall::MemcpyD2H { bytes, .. } => {
                host += ISSUE_CYCLES;
                dma = dma.max(host) + copy_cost(*bytes);
                finish[i] = dma;
                if matches!(app.calls[i], ApiCall::MemcpyD2H { .. }) {
                    tail += copy_cost(*bytes);
                } else {
                    tail = 0;
                }
            }
            ApiCall::DeviceSynchronize => {}
            ApiCall::KernelLaunch(_) => {
                let gate = dag.preds[i]
                    .iter()
                    .filter(|&&p| !matches!(app.calls[p], ApiCall::KernelLaunch(_)))
                    .map(|&p| finish[p])
                    .max()
                    .unwrap_or(0);
                host_ready.push(host.max(gate));
                host += api;
                finish[i] = host;
                tail = 0;
            }
        }
    }
    (host_ready, tail)
}

/// The host-side launch plan the engine computes internally, exposed for
/// multi-device coordinators: the deterministic command-queue reordering
/// for `mode` is applied, and the per-kernel host issue-ready times plus
/// the post-kernel epilogue cost are returned — exactly the values the
/// single-device execution path uses. `tracer` observes the reordering
/// (`CmdqSubmit` events) just as a traced single-device run would.
pub fn host_plan_traced<T: Tracer>(
    cfg: &GpuConfig,
    app: &Application,
    mode: ExecMode,
    tracer: &T,
) -> (Vec<u64>, u64) {
    let order = if mode.prelaunches() {
        reorder_for_prelaunch_traced(app, tracer)
    } else {
        Reordering::identity(app.calls.len())
    };
    host_timeline(cfg, app, &order, mode)
}

#[derive(Debug)]
struct KernelState {
    n_tbs: u32,
    threads: u32,
    shared_bytes: u32,
    duration: u64,
    /// Remaining parent counts per TB (explicit graphs only).
    counts: Vec<u32>,
    /// Time each TB's data dependencies were satisfied.
    data_ready: Vec<Option<u64>>,
    /// Per-TB completion flags.
    done: Vec<bool>,
    /// TBs eligible for scheduling right now.
    ready: VecDeque<u32>,
    /// Whether a TB has been pushed to `ready` (or scheduled).
    pushed: Vec<bool>,
    /// Kernel seqs (skip gates) that must fully complete first.
    gates: Vec<u32>,
    completed: u32,
    arrival: Option<u64>,
    issued: bool,
    complete: bool,
}

impl KernelImage for KernelState {
    fn image(&self) -> KernelView<'_> {
        KernelView {
            counts: &self.counts,
            data_ready: &self.data_ready,
            done: &self.done,
            ready: self.ready.as_slices(),
            pushed: &self.pushed,
            completed: self.completed,
            arrival: self.arrival,
            issued: self.issued,
            complete: self.complete,
        }
    }
}

struct EngineSource<'a, T: Tracer> {
    mode: ExecMode,
    /// Effective pre-launch window; shrinks under admission backpressure.
    window: usize,
    /// The mode's configured window, before any backpressure.
    base_window: usize,
    /// Backpressure never shrinks the window below this (clamped to the
    /// base window so baseline modes are unaffected).
    min_window: usize,
    /// Spill transactions tolerated per window-shrink step; 0 disables
    /// backpressure.
    spill_threshold: u64,
    /// One record per window shrink, in cycle order.
    pressure_events: Vec<PressureEvent>,
    jit: &'a [JitKernel],
    kernels: Vec<KernelState>,
    retired: usize,
    issued_count: usize,
    next_issue_floor: u64,
    host_ready: Vec<u64>,
    launch_cycles: u64,
    api_cycles: u64,
    arrivals: BinaryHeap<Reverse<(u64, usize)>>,
    dlb: DepListBuffer,
    pcb: ParentCounterBuffer,
    /// Injected corruptions (empty plan for normal runs).
    fault: &'a FaultPlan,
    /// First fault detected mid-run; set once, then the DES aborts.
    error: Option<EngineError>,
    /// Alternates consumer-priority placement between run-ahead (newest
    /// kernel first) and producer progress (oldest first), so run-ahead
    /// cannot starve the retirement-critical producer when thread-block
    /// demand exceeds the GPU's resident-TB slots.
    consumer_toggle: bool,
    /// Trace sink; [`bm_trace::NullTracer`] for untraced runs.
    tracer: &'a T,
    /// Per-kernel issue cycle, always recorded (traced or not) so
    /// degradation records are stamped identically at report assembly.
    issue_cycles: Vec<u64>,
}

impl<'a, T: Tracer> EngineSource<'a, T> {
    /// Fresh source at cycle 0: skeleton plus the boot sequence (initial
    /// readiness seeding, first admission, zero-TB retirement) — which
    /// emits the initial `KernelIssue` events. Restored sources skip the
    /// boot entirely ([`Self::restore`]).
    fn new(
        cfg: &GpuConfig,
        jit: &'a [JitKernel],
        mode: ExecMode,
        host_ready: Vec<u64>,
        fault: &'a FaultPlan,
        tracer: &'a T,
    ) -> Self {
        let mut src = Self::build(cfg, jit, mode, host_ready, fault, tracer);
        // Seed initial data-readiness at time 0.
        for k in 0..src.jit.len() {
            src.seed_initial_readiness(k);
        }
        src.admit_kernels(0);
        // Retire any zero-TB kernels immediately (defensive; workloads
        // never produce them).
        src.cascade_retirement(0);
        src
    }

    /// Skeleton constructor: per-kernel state from the analysis products,
    /// no scheduling side effects, no trace emissions.
    fn build(
        cfg: &GpuConfig,
        jit: &'a [JitKernel],
        mode: ExecMode,
        host_ready: Vec<u64>,
        fault: &'a FaultPlan,
        tracer: &'a T,
    ) -> Self {
        let fine = mode.fine_grain();
        let kernels: Vec<KernelState> = jit
            .iter()
            .enumerate()
            .map(|(seq, k)| {
                let n = k.profile.n_tbs;
                // Coarse modes treat any dependence as a whole-kernel
                // barrier; fine-grain modes use the bipartite graph.
                let mut counts = if fine {
                    match k.graph.kind() {
                        GraphKind::Explicit(_) => k.graph.parent_counts(),
                        _ => Vec::new(),
                    }
                } else {
                    Vec::new()
                };
                // Injected counter faults perturb the initial seeds, within
                // the 6-bit range real hardware would store.
                for (tb, c) in counts.iter_mut().enumerate() {
                    let key = TbKey {
                        kernel_seq: seq as u32,
                        tb: tb as u32,
                    };
                    let delta = fault.counter_delta(key);
                    if delta != 0 {
                        *c = (*c as i64 + delta).clamp(0, MAX_COUNTER as i64) as u32;
                    }
                }
                KernelState {
                    n_tbs: n,
                    threads: k.profile.threads,
                    shared_bytes: k.profile.shared_bytes,
                    duration: k.profile.duration,
                    counts,
                    data_ready: vec![None; n as usize],
                    done: vec![false; n as usize],
                    ready: VecDeque::new(),
                    pushed: vec![false; n as usize],
                    gates: k.skip_gates.clone(),
                    completed: 0,
                    arrival: None,
                    issued: false,
                    complete: n == 0,
                }
            })
            .collect();
        let base_window = mode.window() as usize;
        EngineSource {
            mode,
            window: base_window,
            base_window,
            min_window: (cfg.pressure_min_window as usize).min(base_window).max(1),
            spill_threshold: cfg.spill_pressure_threshold,
            pressure_events: Vec::new(),
            jit,
            kernels,
            retired: 0,
            issued_count: 0,
            // CUDA-Graphs-style execution pays one launch for the whole
            // instantiated graph before any kernel runs.
            next_issue_floor: if matches!(mode, ExecMode::GraphLaunch) {
                cfg.kernel_launch_cycles
            } else {
                0
            },
            host_ready,
            launch_cycles: if mode.has_launch_overhead() {
                cfg.kernel_launch_cycles
            } else {
                0
            },
            api_cycles: if mode.has_launch_overhead() {
                cfg.launch_api_cycles
            } else {
                0
            },
            arrivals: BinaryHeap::new(),
            dlb: DepListBuffer::new(),
            pcb: ParentCounterBuffer::new(fault.pcb_capacity.unwrap_or(BUFFER_ENTRIES)),
            fault,
            error: None,
            consumer_toggle: false,
            tracer,
            issue_cycles: vec![0; jit.len()],
        }
    }

    /// Borrowed image of the complete mutable state, for the snapshot
    /// writer. Pure observation: `HashMap`-backed buffers are exported in
    /// sorted order (FIFO order preserved verbatim) so equal states produce
    /// equal snapshots.
    fn view(&self) -> EngineView<'_, KernelState> {
        let mut arrivals: Vec<(u64, u32)> = self
            .arrivals
            .iter()
            .map(|Reverse((t, k))| (*t, *k as u32))
            .collect();
        arrivals.sort_unstable();
        let (dlb_entries, dlb_traffic, dlb_high_water) = self.dlb.view();
        let (pcb_counters, pcb_fifo, pcb_capacity, pcb_traffic, pcb_high_water) = self.pcb.view();
        EngineView {
            window: self.window as u32,
            retired: self.retired as u32,
            issued_count: self.issued_count as u32,
            next_issue_floor: self.next_issue_floor,
            consumer_toggle: self.consumer_toggle,
            issue_cycles: &self.issue_cycles,
            arrivals,
            kernels: &self.kernels,
            pressure: &self.pressure_events,
            dlb_entries,
            dlb_traffic,
            dlb_high_water: dlb_high_water as u32,
            pcb_counters,
            pcb_fifo,
            pcb_capacity: pcb_capacity as u32,
            pcb_traffic,
            pcb_high_water: pcb_high_water as u32,
        }
    }

    /// The same state copied out: the clone-based capture that unit tests
    /// hold the snapshot writer to.
    #[cfg(test)]
    fn snapshot(&self) -> EngineSnapshot {
        let v = self.view();
        let pcb_fifo = v.pcb_fifo.0.iter().chain(v.pcb_fifo.1).copied().collect();
        EngineSnapshot {
            window: v.window,
            retired: v.retired,
            issued_count: v.issued_count,
            next_issue_floor: v.next_issue_floor,
            consumer_toggle: v.consumer_toggle,
            issue_cycles: self.issue_cycles.clone(),
            arrivals: v.arrivals,
            kernels: self
                .kernels
                .iter()
                .map(|st| crate::snapshot::KernelSnapshot {
                    counts: st.counts.clone(),
                    data_ready: st.data_ready.clone(),
                    done: st.done.clone(),
                    ready: st.ready.iter().copied().collect(),
                    pushed: st.pushed.clone(),
                    completed: st.completed,
                    arrival: st.arrival,
                    issued: st.issued,
                    complete: st.complete,
                })
                .collect(),
            pressure: self.pressure_events.clone(),
            dlb_entries: v
                .dlb_entries
                .into_iter()
                .map(|(k, c)| (k, c.to_vec()))
                .collect(),
            dlb_traffic: v.dlb_traffic,
            dlb_high_water: v.dlb_high_water,
            pcb_counters: v.pcb_counters,
            pcb_fifo,
            pcb_capacity: v.pcb_capacity,
            pcb_traffic: v.pcb_traffic,
            pcb_high_water: v.pcb_high_water,
        }
    }

    /// Rebuilds a mid-run source from a snapshot, against freshly
    /// recomputed analysis products. Immutable configuration (windows,
    /// thresholds, gates, durations) comes from `cfg`/`jit` as in
    /// [`Self::build`]; only the mutable state is taken from `snap`. The
    /// boot sequence is NOT run — the snapshot already contains its
    /// effects.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when the snapshot's shape disagrees
    /// with the analyzed application (kernel count, per-kernel TB counts,
    /// out-of-range indices) — decoded bytes are never trusted blindly.
    fn restore(
        cfg: &GpuConfig,
        jit: &'a [JitKernel],
        mode: ExecMode,
        host_ready: Vec<u64>,
        fault: &'a FaultPlan,
        tracer: &'a T,
        snap: &EngineSnapshot,
    ) -> Result<Self, SnapshotError> {
        let mut src = Self::build(cfg, jit, mode, host_ready, fault, tracer);
        let n = jit.len();
        if snap.kernels.len() != n || snap.issue_cycles.len() != n {
            return Err(SnapshotError::Malformed("kernel count mismatch"));
        }
        if snap.retired as usize > n || snap.issued_count as usize > n {
            return Err(SnapshotError::Malformed("progress counters out of range"));
        }
        if snap.window as usize > src.base_window || snap.window == 0 {
            return Err(SnapshotError::Malformed("window out of range"));
        }
        for (k, ks) in snap.kernels.iter().enumerate() {
            let n_tbs = src.kernels[k].n_tbs as usize;
            if ks.data_ready.len() != n_tbs
                || ks.done.len() != n_tbs
                || ks.pushed.len() != n_tbs
                || !(ks.counts.is_empty() || ks.counts.len() == n_tbs)
                || ks.completed as usize > n_tbs
                || ks.ready.iter().any(|&tb| tb as usize >= n_tbs)
            {
                return Err(SnapshotError::Malformed("kernel state shape mismatch"));
            }
        }
        if snap.arrivals.iter().any(|&(_, k)| k as usize >= n) {
            return Err(SnapshotError::Malformed("arrival kernel out of range"));
        }
        src.window = snap.window as usize;
        src.retired = snap.retired as usize;
        src.issued_count = snap.issued_count as usize;
        src.next_issue_floor = snap.next_issue_floor;
        src.consumer_toggle = snap.consumer_toggle;
        src.issue_cycles = snap.issue_cycles.clone();
        src.arrivals = snap
            .arrivals
            .iter()
            .map(|&(t, k)| Reverse((t, k as usize)))
            .collect();
        for (k, ks) in snap.kernels.iter().enumerate() {
            let st = &mut src.kernels[k];
            st.counts = ks.counts.clone();
            st.data_ready = ks.data_ready.clone();
            st.done = ks.done.clone();
            st.ready = ks.ready.iter().copied().collect();
            st.pushed = ks.pushed.clone();
            st.completed = ks.completed;
            st.arrival = ks.arrival;
            st.issued = ks.issued;
            st.complete = ks.complete;
        }
        src.pressure_events = snap.pressure.clone();
        src.dlb = DepListBuffer::restore(
            snap.dlb_entries.clone(),
            snap.dlb_traffic,
            snap.dlb_high_water as usize,
        );
        src.pcb = ParentCounterBuffer::restore(
            snap.pcb_counters.clone(),
            snap.pcb_fifo.clone(),
            snap.pcb_capacity as usize,
            snap.pcb_traffic,
            snap.pcb_high_water as usize,
        );
        Ok(src)
    }

    /// Marks TBs whose dependencies are satisfied from the start.
    fn seed_initial_readiness(&mut self, k: usize) {
        let fine = self.mode.fine_grain();
        let barrier = self.kernel_is_barriered(k);
        let st = &mut self.kernels[k];
        if k == 0 || !barrier {
            // First kernel, or independent of its predecessor: every TB is
            // data-ready at t=0 (fine-grain explicit handled below).
            if st.counts.is_empty() {
                for tb in 0..st.n_tbs as usize {
                    st.data_ready[tb] = Some(0);
                }
                return;
            }
        }
        if fine {
            // Explicit graph: TBs with zero parents are data-ready now.
            for tb in 0..st.n_tbs as usize {
                if st.counts.get(tb).copied().unwrap_or(0) == 0 && !st.counts.is_empty() {
                    st.data_ready[tb] = Some(0);
                }
            }
        }
    }

    /// Whether kernel `k` waits on its predecessor as a whole
    /// (coarse modes with any dependence, or fully-connected graphs).
    fn kernel_is_barriered(&self, k: usize) -> bool {
        if k == 0 {
            return false;
        }
        let g = &self.jit[k].graph;
        match g.kind() {
            GraphKind::Independent => false,
            GraphKind::FullyConnected => true,
            GraphKind::Explicit(_) => !self.mode.fine_grain(),
        }
    }

    /// Overload-safe admission: when cumulative scheduler-buffer spill
    /// traffic (parent-counter writebacks plus dependency-list fetches)
    /// crosses the configured threshold, the effective pre-launch window
    /// shrinks by one kernel per crossing — monotonically, never below
    /// `min_window` — and each shrink is recorded as a [`PressureEvent`].
    /// Both traffic counters and the threshold are deterministic, so
    /// identical runs shrink at identical cycles.
    fn check_pressure(&mut self, now: u64) {
        if self.spill_threshold == 0 || self.window == self.min_window {
            return;
        }
        let spill = self.pcb.traffic().counter_writebacks + self.dlb.traffic().dep_list_fetches;
        let crossings = (spill / self.spill_threshold) as usize;
        let desired = self
            .base_window
            .saturating_sub(crossings)
            .max(self.min_window);
        if desired < self.window {
            self.pressure_events.push(PressureEvent {
                cycle: now,
                spill_traffic: spill,
                window_before: self.window as u32,
                window_after: desired as u32,
            });
            if T::ENABLED {
                self.tracer.emit(TraceEvent::Pressure {
                    cycle: now,
                    spill,
                    window_before: self.window as u32,
                    window_after: desired as u32,
                });
            }
            self.window = desired;
        }
    }

    /// Issues kernels into the active window as retirement frees slots.
    fn admit_kernels(&mut self, now: u64) {
        self.check_pressure(now);
        while self.issued_count < self.jit.len() && self.issued_count < self.retired + self.window {
            let k = self.issued_count;
            // Pre-launch-off kernels (bottom ladder rung) are admitted only
            // when next to retire, and block run-ahead past themselves
            // until they have retired.
            if k > self.retired
                && self.jit[self.retired..=k]
                    .iter()
                    .any(|j| j.degradation.rung == DegradationRung::PrelaunchOff)
            {
                break;
            }
            let issue = now
                .max(self.host_ready.get(k).copied().unwrap_or(0))
                .max(self.next_issue_floor);
            self.next_issue_floor = issue + self.api_cycles;
            let arrival = issue + self.launch_cycles;
            self.kernels[k].issued = true;
            self.issue_cycles[k] = issue;
            if T::ENABLED {
                self.tracer.emit(TraceEvent::KernelIssue {
                    cycle: issue,
                    seq: k as u32,
                    name: self.jit[k].name.clone(),
                    prelaunched: k > self.retired,
                });
            }
            self.arrivals.push(Reverse((arrival, k)));
            self.issued_count += 1;
        }
    }

    fn gates_open(&self, k: usize) -> bool {
        self.kernels[k]
            .gates
            .iter()
            .all(|&g| self.kernels[g as usize].complete)
    }

    /// Pushes every eligible TB of kernel `k` into its ready queue.
    fn flush_ready(&mut self, k: usize) {
        if self.kernels[k].arrival.is_none() || !self.gates_open(k) {
            return;
        }
        let st = &mut self.kernels[k];
        for tb in 0..st.n_tbs as usize {
            if !st.pushed[tb] && st.data_ready[tb].is_some() {
                st.pushed[tb] = true;
                st.ready.push_back(tb as u32);
            }
        }
    }

    /// Marks one TB data-ready and enqueues it if eligible.
    fn mark_data_ready(&mut self, k: usize, tb: u32, now: u64) {
        let eligible = self.kernels[k].arrival.is_some() && self.gates_open(k);
        let st = &mut self.kernels[k];
        if st.data_ready[tb as usize].is_none() {
            st.data_ready[tb as usize] = Some(now);
            if T::ENABLED {
                self.tracer.emit(TraceEvent::TbReady {
                    cycle: now,
                    id: TbId {
                        kernel: k as u32,
                        tb,
                    },
                });
            }
        }
        let st = &mut self.kernels[k];
        if eligible && !st.pushed[tb as usize] {
            st.pushed[tb as usize] = true;
            st.ready.push_back(tb);
        }
    }

    /// Called when kernel `k` has completed all TBs.
    fn on_kernel_complete(&mut self, k: usize, now: u64) {
        self.kernels[k].complete = true;
        // Whole-kernel barrier children become data-ready.
        if k + 1 < self.kernels.len() && self.kernel_is_barriered(k + 1) {
            for tb in 0..self.kernels[k + 1].n_tbs {
                self.mark_data_ready(k + 1, tb, now);
            }
        }
        // Skip gates opened by this completion.
        for j in 0..self.kernels.len() {
            if self.kernels[j].gates.contains(&(k as u32)) {
                self.flush_ready(j);
            }
        }
        self.cascade_retirement(now);
    }

    /// In-order kernel completion: kernel `k` retires only after `k-1`
    /// retired; retirement frees window slots for pre-launching.
    fn cascade_retirement(&mut self, now: u64) {
        while self.retired < self.kernels.len() && self.kernels[self.retired].complete {
            if T::ENABLED {
                self.tracer.emit(TraceEvent::KernelRetire {
                    cycle: now,
                    seq: self.retired as u32,
                });
            }
            self.retired += 1;
        }
        self.admit_kernels(now);
    }

    fn active_range(&self) -> std::ops::Range<usize> {
        self.retired..self.issued_count
    }

    /// Records the first mid-run fault; subsequent faults are ignored and
    /// the DES aborts at its next scheduling point.
    fn record_error(&mut self, e: EngineError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }
}

impl<T: Tracer> TbSource for EngineSource<'_, T> {
    fn pop_ready(&mut self, _now: u64, fits: &dyn Fn(u32, u32) -> bool) -> Option<TbDescriptor> {
        let range = self.active_range();
        let order: Vec<usize> = if self.mode.consumer_priority() {
            self.consumer_toggle = !self.consumer_toggle;
            if self.consumer_toggle {
                range.rev().collect()
            } else {
                range.collect()
            }
        } else {
            range.collect()
        };
        for k in order {
            let st = &self.kernels[k];
            if st.arrival.is_none() || st.ready.is_empty() {
                continue;
            }
            if !fits(st.threads, st.shared_bytes) {
                continue;
            }
            let st = &mut self.kernels[k];
            let tb = st.ready.pop_front().expect("checked non-empty");
            return Some(TbDescriptor {
                key: TbKey {
                    kernel_seq: k as u32,
                    tb,
                },
                threads: st.threads,
                shared_bytes: st.shared_bytes,
                duration: st.duration,
            });
        }
        None
    }

    fn on_tb_start(&mut self, key: TbKey, now: u64) {
        let k = key.kernel_seq as usize;
        if T::ENABLED {
            // A TB that waited between becoming data-ready and being
            // scheduled stalled either on its kernel's arrival (launch
            // latency) or on execution resources (no free TB slot).
            let ready_at = self.kernels[k].data_ready[key.tb as usize].unwrap_or(now);
            if now > ready_at {
                let reason = if self.kernels[k].arrival.is_some_and(|a| a > ready_at) {
                    StallReason::KernelArrival
                } else {
                    StallReason::Resources
                };
                self.tracer.emit(TraceEvent::TbStall {
                    cycle: now,
                    id: TbId {
                        kernel: key.kernel_seq,
                        tb: key.tb,
                    },
                    ready_at,
                    reason,
                });
            }
        }
        // Buffer this TB's dependency-list entry: the children it must
        // notify live in the *next* kernel's graph.
        let (mut children, encoded) = match self.jit.get(k + 1) {
            Some(next) if self.mode.fine_grain() => match next.graph.kind() {
                GraphKind::Explicit(_) => (next.graph.children_of(key.tb), next.encoded),
                // Symbolic graphs derive children; nothing to buffer.
                _ => (Vec::new(), true),
            },
            _ => (Vec::new(), true),
        };
        // Injected dependency-list corruption: lose or fabricate edges.
        // Only explicit graphs have dependency lists to corrupt — barrier
        // (fully-connected) and independent kernels bypass this hardware,
        // which is what makes quarantine a safe fallback.
        if !self.fault.is_empty()
            && self.mode.fine_grain()
            && self
                .jit
                .get(k + 1)
                .is_some_and(|n| matches!(n.graph.kind(), GraphKind::Explicit(_)))
        {
            children.retain(|&c| !self.fault.drops(key, c));
            children.extend(self.fault.phantoms_of(key));
        }
        self.dlb
            .insert_traced(key, children, encoded, now, self.tracer);
        // The child TB's own parent-counter entry is released when it is
        // selected for execution (§III-D1).
        self.pcb.release(key);
        if T::ENABLED {
            self.tracer.emit(TraceEvent::BufferLevels {
                cycle: now,
                dlb: self.dlb.len() as u32,
                pcb: self.pcb.len() as u32,
            });
        }
    }

    fn on_tb_complete(&mut self, key: TbKey, now: u64) {
        if self.error.is_some() {
            return;
        }
        let k = key.kernel_seq as usize;
        let children = self.dlb.take(key);
        {
            let st = &mut self.kernels[k];
            debug_assert!(!st.done[key.tb as usize], "double completion");
            st.done[key.tb as usize] = true;
            st.completed += 1;
        }
        // Fine-grain decrement of the children's parent counters.
        if !children.is_empty() {
            let ck = k + 1;
            for c in children {
                let child_key = TbKey {
                    kernel_seq: ck as u32,
                    tb: c,
                };
                // A child outside the next kernel's grid (or a kernel with
                // no explicit counters) means the dependency list itself is
                // corrupt; the in-memory counter array has no record of it.
                let stored = match self
                    .kernels
                    .get(ck)
                    .and_then(|st| st.counts.get(c as usize))
                    .copied()
                {
                    Some(s) => s,
                    None => {
                        self.record_error(EngineError::Hw {
                            err: HwError::CounterNotResident { key: child_key },
                            cycle: now,
                        });
                        return;
                    }
                };
                if stored == 0 {
                    self.record_error(EngineError::Hw {
                        err: HwError::CounterUnderflow { key: child_key },
                        cycle: now,
                    });
                    return;
                }
                let zero = match self.pcb.try_decrement_with_refetch_traced(
                    child_key,
                    stored,
                    now,
                    self.tracer,
                ) {
                    Ok(z) => z,
                    Err(err) => {
                        self.record_error(EngineError::Hw { err, cycle: now });
                        return;
                    }
                };
                self.kernels[ck].counts[c as usize] = stored - 1;
                if zero {
                    self.mark_data_ready(ck, c, now);
                }
            }
        }
        if T::ENABLED {
            self.tracer.emit(TraceEvent::BufferLevels {
                cycle: now,
                dlb: self.dlb.len() as u32,
                pcb: self.pcb.len() as u32,
            });
        }
        if self.kernels[k].completed == self.kernels[k].n_tbs {
            self.on_kernel_complete(k, now);
        }
    }

    fn next_event_at(&self, _now: u64) -> Option<u64> {
        self.arrivals.peek().map(|Reverse((t, _))| *t)
    }

    fn on_time_advance(&mut self, now: u64) {
        while let Some(Reverse((t, k))) = self.arrivals.peek().copied() {
            if t > now {
                break;
            }
            self.arrivals.pop();
            self.kernels[k].arrival = Some(t);
            if T::ENABLED {
                self.tracer.emit(TraceEvent::KernelArrive {
                    cycle: t,
                    seq: k as u32,
                });
            }
            self.flush_ready(k);
        }
    }

    fn is_done(&self) -> bool {
        self.retired == self.kernels.len()
    }

    fn aborted(&self) -> bool {
        self.error.is_some()
    }

    fn diagnostics(&self) -> Vec<String> {
        let mut out = Vec::new();
        for k in self.active_range() {
            let st = &self.kernels[k];
            if st.complete {
                continue;
            }
            let pending = st.counts.iter().filter(|&&c| c > 0).count();
            out.push(format!(
                "kernel {k} `{}`: {}/{} TBs complete, ready-queue depth {}, \
                 {} pending parent counters, arrival {:?}, gates {:?}",
                self.jit[k].name,
                st.completed,
                st.n_tbs,
                st.ready.len(),
                pending,
                st.arrival,
                st.gates,
            ));
        }
        out.push(format!(
            "parent-counter buffer: {} high-water, traffic {:?}",
            self.pcb.high_water(),
            self.pcb.traffic()
        ));
        out
    }
}

fn assemble_report<T: Tracer>(
    _cfg: &GpuConfig,
    jit: &[JitKernel],
    mode: ExecMode,
    source: &EngineSource<'_, T>,
    stats: DesStats,
    epilogue: u64,
) -> RunReport {
    // Stalls: schedule start minus data-ready time, normalized by duration.
    let mut stalls = Vec::with_capacity(stats.schedule.len());
    for &(key, start, _finish) in &stats.schedule {
        let k = key.kernel_seq as usize;
        let ready = source.kernels[k].data_ready[key.tb as usize].unwrap_or(start);
        let dur = source.kernels[k].duration.max(1) as f64;
        stalls.push(start.saturating_sub(ready) as f64 / dur);
    }
    let baseline_mem: u64 = jit
        .iter()
        .map(|k| k.profile.n_tbs as u64 * k.profile.txns_per_tb)
        .sum();
    let mut traffic = source.dlb.traffic();
    let pcb_t = source.pcb.traffic();
    traffic.counter_fetches += pcb_t.counter_fetches;
    traffic.counter_writebacks += pcb_t.counter_writebacks;
    let storage_encoded: u64 = jit.iter().map(|k| k.storage.encoded_bytes).sum();
    let storage_plain: u64 = jit.iter().map(|k| k.storage.plain_bytes).sum();
    let patterns = jit
        .iter()
        .map(|k| (k.name.clone(), k.storage.pattern))
        .collect();
    RunReport {
        mode,
        total_cycles: stats.total_cycles + epilogue,
        kernel_region_cycles: stats.total_cycles,
        avg_concurrency: stats.avg_concurrency(),
        stalls_normalized: stalls,
        baseline_mem_requests: baseline_mem,
        overhead_mem_requests: if mode.fine_grain() {
            traffic.total()
        } else {
            0
        },
        hw_traffic: traffic,
        storage_encoded,
        storage_plain,
        patterns,
        schedule: stats.schedule,
        num_kernels: jit.len(),
        dlb_high_water: source.dlb.high_water(),
        pcb_high_water: source.pcb.high_water(),
        guard: GuardReport::default(),
        degradation: jit
            .iter()
            .enumerate()
            .map(|(seq, k)| {
                // Stamp each degraded kernel with the cycle its degraded
                // analysis took effect: its issue cycle. Analysis runs
                // before simulated time, so the issue is the first moment
                // the rung is observable in the execution.
                let mut d = k.degradation;
                if d.is_degraded() {
                    d.at_cycle = source.issue_cycles.get(seq).copied().unwrap_or(0);
                    if T::ENABLED {
                        source.tracer.emit(TraceEvent::DegradationStamp {
                            cycle: d.at_cycle,
                            seq: seq as u32,
                            rung: d.rung.to_string(),
                            reason: d.reason.to_string(),
                        });
                    }
                }
                (k.name.clone(), d)
            })
            .collect(),
        cache_hits: jit.iter().filter(|k| k.cache_hit).count() as u64,
        cache_misses: jit.iter().filter(|k| !k.cache_hit).count() as u64,
        pressure_events: source.pressure_events.clone(),
        multi: None,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::jit::jit_analyze_app;
    use bm_depgraph::HazardMode;
    use bm_ptx::kernel::{ArgValue, Dim3, Launch};
    use bm_ptx::mem::AddressSpace;
    use bm_ptx::parser::parse_kernel;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// An unguarded run with a fresh analysis.
    fn run_mode(cfg: &GpuConfig, app: &Application, mode: ExecMode) -> RunReport {
        crate::run(
            cfg,
            app,
            &mut crate::RunSpec::new(mode),
            &bm_trace::NullTracer,
        )
        .unwrap()
    }

    /// `Y[i] = X[i] + 1` — the canonical 1-to-1 kernel.
    fn map_kernel() -> Arc<bm_ptx::kernel::Kernel> {
        Arc::new(
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
        )
    }

    /// Builds an app launching `step` over the given buffer pairs.
    fn chain_app(pairs: &[(usize, usize)], n_allocs: usize, tbs: u32) -> Application {
        let n = tbs as u64 * 64;
        let mut space = AddressSpace::new();
        let allocs: Vec<_> = (0..n_allocs).map(|_| space.alloc(4 * n)).collect();
        let k = map_kernel();
        let calls = pairs
            .iter()
            .map(|&(x, y)| {
                ApiCall::KernelLaunch(Launch::new(
                    k.clone(),
                    Dim3::x(tbs),
                    Dim3::x(64),
                    vec![ArgValue::Ptr(allocs[x].base), ArgValue::Ptr(allocs[y].base)],
                ))
            })
            .collect();
        Application {
            name: "test".into(),
            space,
            calls,
            host_data: HashMap::new(),
        }
    }

    fn starts_of(report: &RunReport, kernel: u32) -> Vec<u64> {
        report
            .schedule
            .iter()
            .filter(|(k, _, _)| k.kernel_seq == kernel)
            .map(|&(_, s, _)| s)
            .collect()
    }

    fn finishes_of(report: &RunReport, kernel: u32) -> Vec<u64> {
        report
            .schedule
            .iter()
            .filter(|(k, _, _)| k.kernel_seq == kernel)
            .map(|&(_, _, f)| f)
            .collect()
    }

    #[test]
    fn baseline_serializes_with_launch_gap() {
        let cfg = GpuConfig::titan_x_pascal();
        // A -> B -> C chain.
        let app = chain_app(&[(0, 1), (1, 2)], 3, 4);
        let r = run_mode(&cfg, &app, ExecMode::Baseline);
        let k1_done = *finishes_of(&r, 0).iter().max().unwrap();
        let k2_start = *starts_of(&r, 1).iter().min().unwrap();
        assert!(
            k2_start >= k1_done + cfg.kernel_launch_cycles,
            "baseline must pay the launch after completion: {k2_start} vs {k1_done}"
        );
    }

    #[test]
    fn prelaunch_masks_launch_but_keeps_barrier() {
        let cfg = GpuConfig::titan_x_pascal();
        let app = chain_app(&[(0, 1), (1, 2)], 3, 4);
        let r = run_mode(&cfg, &app, ExecMode::PreLaunch { window: 2 });
        let k1_done = *finishes_of(&r, 0).iter().max().unwrap();
        let k2_start = *starts_of(&r, 1).iter().min().unwrap();
        // Dependent kernel still waits for full producer completion...
        assert!(k2_start >= k1_done);
        // ...but the launch gap is (mostly) hidden.
        assert!(
            k2_start < k1_done + cfg.kernel_launch_cycles,
            "pre-launching should hide the 5us gap: {k2_start} vs {k1_done}"
        );
    }

    #[test]
    fn fine_grain_overlaps_dependent_kernels() {
        // Small GPU (16 TB slots) + 120-TB kernels: the producer's final
        // wave is partial, so freed slots let 1-to-1 children start while
        // the producer is still executing.
        let cfg = GpuConfig::small();
        let app = chain_app(&[(0, 1), (1, 2)], 3, 120);
        let r = run_mode(&cfg, &app, ExecMode::ProducerPriority { window: 2 });
        let k1_done = *finishes_of(&r, 0).iter().max().unwrap();
        let k2_start = *starts_of(&r, 1).iter().min().unwrap();
        assert!(
            k2_start < k1_done,
            "1-to-1 children must start before the whole producer finishes"
        );
    }

    #[test]
    fn independent_kernels_start_together() {
        let cfg = GpuConfig::small();
        // Two kernels on disjoint buffers, each using half the TB slots so
        // both fit on the machine simultaneously.
        let app = chain_app(&[(0, 1), (2, 3)], 4, 8);
        let r = run_mode(&cfg, &app, ExecMode::ProducerPriority { window: 2 });
        let k1_start = *starts_of(&r, 0).iter().min().unwrap();
        let k1_done = *finishes_of(&r, 0).iter().max().unwrap();
        let k2_start = *starts_of(&r, 1).iter().min().unwrap();
        // The second launch is pipelined behind the first — it must not be
        // serialized after the first kernel's completion plus a launch.
        assert!(k2_start <= k1_start + cfg.kernel_launch_cycles + cfg.launch_api_cycles);
        assert!(
            k2_start < k1_done + cfg.kernel_launch_cycles,
            "independent kernels must not serialize: {k2_start} vs {k1_done}"
        );
    }

    #[test]
    fn skip_gate_blocks_window_runahead() {
        let cfg = GpuConfig::small();
        // K1: A->B, K2: C->D (unrelated), K3: B->E (skip dep on K1).
        let app = chain_app(&[(0, 1), (2, 3), (1, 4)], 5, 128);
        let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        assert_eq!(jit[2].skip_gates, vec![0]);
        assert!(jit[2].graph.is_independent());
        let r =
            try_run_analyzed(&cfg, &app, &jit, ExecMode::ConsumerPriority { window: 3 }).unwrap();
        let k1_done = *finishes_of(&r, 0).iter().max().unwrap();
        let k3_start = *starts_of(&r, 2).iter().min().unwrap();
        assert!(
            k3_start >= k1_done,
            "skip gate must hold K3 until K1 completes ({k3_start} vs {k1_done})"
        );
        // K2, however, overlaps K1 freely.
        let k2_start = *starts_of(&r, 1).iter().min().unwrap();
        assert!(k2_start < k1_done);
    }

    #[test]
    fn window_limits_concurrent_kernels() {
        let cfg = GpuConfig::small();
        // Four mutually independent kernels; window 2 must keep kernel 2
        // from starting until kernel 0 retires.
        let app = chain_app(&[(0, 1), (2, 3), (4, 5), (6, 7)], 8, 128);
        let r = run_mode(&cfg, &app, ExecMode::ConsumerPriority { window: 2 });
        let k0_done = *finishes_of(&r, 0).iter().max().unwrap();
        let k2_start = *starts_of(&r, 2).iter().min().unwrap();
        assert!(
            k2_start >= k0_done,
            "window 2 admits kernel 2 only after kernel 0 retires"
        );
        // With window 4 all four can be in flight together.
        let r4 = run_mode(&cfg, &app, ExecMode::ConsumerPriority { window: 4 });
        let k0_done4 = *finishes_of(&r4, 0).iter().max().unwrap();
        let k3_start4 = *starts_of(&r4, 3).iter().min().unwrap();
        assert!(k3_start4 < k0_done4 + cfg.kernel_launch_cycles * 4);
        assert!(r4.total_cycles <= r.total_cycles);
    }

    #[test]
    fn report_accounts_storage_and_patterns() {
        let cfg = GpuConfig::titan_x_pascal();
        let app = chain_app(&[(0, 1), (1, 2)], 3, 8);
        let r = run_mode(&cfg, &app, ExecMode::ProducerPriority { window: 2 });
        assert_eq!(r.num_kernels, 2);
        assert_eq!(r.patterns.len(), 2);
        assert!(matches!(r.patterns[1].1, Pattern::OneToOne));
        assert!(r.storage_encoded > 0);
        assert!(r.storage_encoded <= r.storage_plain);
        assert!(r.baseline_mem_requests > 0);
        assert_eq!(r.schedule.len(), 16);
        assert!(r.avg_concurrency > 0.0);
        assert!(r.storage_ratio().unwrap() <= 1.0);
    }

    #[test]
    fn cuda_graph_launch_pays_exactly_one_launch() {
        let cfg = GpuConfig::titan_x_pascal();
        let app = chain_app(&[(0, 1), (1, 2), (2, 3)], 4, 4);
        let base = run_mode(&cfg, &app, ExecMode::Baseline);
        let graph = run_mode(&cfg, &app, ExecMode::GraphLaunch);
        let ideal = run_mode(&cfg, &app, ExecMode::IdealBaseline);
        // Graph launch sits between baseline and ideal...
        assert!(graph.total_cycles < base.total_cycles);
        assert!(graph.total_cycles >= ideal.total_cycles);
        // ...and for a serialized chain is the ideal plus one launch.
        assert_eq!(
            graph.kernel_region_cycles,
            ideal.kernel_region_cycles + cfg.kernel_launch_cycles
        );
        // Kernels still never overlap.
        for w in [1u32, 2] {
            let k_done = *finishes_of(&graph, w - 1).iter().max().unwrap();
            let k_start = *starts_of(&graph, w).iter().min().unwrap();
            assert!(k_start >= k_done);
        }
        // On a multi-wave chain, BlockMaestro's TB overlap beats even the
        // launch-free graph execution — the paper's point that CUDA Graphs
        // "does not address under-utilization during dependent kernels".
        let scfg = GpuConfig::small();
        let sapp = chain_app(&[(0, 1), (1, 2), (2, 3)], 4, 120);
        let sgraph = run_mode(&scfg, &sapp, ExecMode::GraphLaunch);
        let sbm = run_mode(&scfg, &sapp, ExecMode::ProducerPriority { window: 2 });
        assert!(
            sbm.kernel_region_cycles < sgraph.kernel_region_cycles,
            "bm {} vs graph {}",
            sbm.kernel_region_cycles,
            sgraph.kernel_region_cycles
        );
    }

    #[test]
    fn host_timeline_blocking_accumulates_costs() {
        let cfg = GpuConfig::titan_x_pascal();
        let mut space = bm_ptx::mem::AddressSpace::new();
        let a = space.alloc(4 * 25600);
        let k = map_kernel();
        let app = Application {
            name: "host".into(),
            space,
            calls: vec![
                ApiCall::Malloc { alloc: a.id },
                ApiCall::MemcpyH2D {
                    alloc: a.id,
                    bytes: 4 * 25600,
                },
                ApiCall::KernelLaunch(Launch::new(
                    k,
                    Dim3::x(4),
                    Dim3::x(64),
                    vec![ArgValue::Ptr(a.base), ArgValue::Ptr(a.base)],
                )),
                ApiCall::MemcpyD2H {
                    alloc: a.id,
                    bytes: 4 * 25600,
                },
            ],
            host_data: HashMap::new(),
        };
        let order = Reordering::identity(app.calls.len());
        // Baseline: the kernel's host-ready time includes malloc + full copy.
        let (ready, tail) = host_timeline(&cfg, &app, &order, ExecMode::Baseline);
        let copy = cfg.memcpy_setup_cycles + 4 * 25600 / cfg.memcpy_bytes_per_cycle;
        assert_eq!(ready, vec![cfg.malloc_cycles + copy]);
        assert_eq!(tail, copy, "trailing D2H is epilogue");
        // Pre-launching: the copy still gates the kernel (true data dep),
        // but the host itself is only charged issue costs.
        let (ready_nb, tail_nb) =
            host_timeline(&cfg, &app, &order, ExecMode::ProducerPriority { window: 2 });
        assert_eq!(ready_nb.len(), 1);
        assert!(ready_nb[0] >= copy, "kernel must wait for its input copy");
        assert!(ready_nb[0] <= ready[0], "non-blocking host is never later");
        assert_eq!(tail_nb, copy);
    }

    #[test]
    fn host_timeline_unrelated_copy_does_not_gate_kernel() {
        let cfg = GpuConfig::titan_x_pascal();
        let mut space = bm_ptx::mem::AddressSpace::new();
        let a = space.alloc(1024);
        let b = space.alloc(4 * 1024 * 1024); // large unrelated buffer
        let k = map_kernel();
        let app = Application {
            name: "host2".into(),
            space,
            calls: vec![
                ApiCall::MemcpyH2D {
                    alloc: a.id,
                    bytes: 1024,
                },
                ApiCall::MemcpyH2D {
                    alloc: b.id,
                    bytes: 4 * 1024 * 1024,
                },
                ApiCall::KernelLaunch(Launch::new(
                    k,
                    Dim3::x(4),
                    Dim3::x(64),
                    vec![ArgValue::Ptr(a.base), ArgValue::Ptr(a.base)],
                )),
            ],
            host_data: HashMap::new(),
        };
        let order = Reordering::identity(app.calls.len());
        let (blocking, _) = host_timeline(&cfg, &app, &order, ExecMode::Baseline);
        let (nonblocking, _) =
            host_timeline(&cfg, &app, &order, ExecMode::ConsumerPriority { window: 2 });
        // The huge unrelated copy delays the kernel under blocking
        // semantics but not under BlockMaestro's non-blocking host...
        let big_copy = 4 * 1024 * 1024 / cfg.memcpy_bytes_per_cycle;
        assert!(blocking[0] >= big_copy);
        // ...where only the small input copy gates it. The DMA engine is
        // serial, so the small copy finishes before the big one starts
        // only if it was issued first (it was).
        let small_copy = cfg.memcpy_setup_cycles + 1024 / cfg.memcpy_bytes_per_cycle;
        assert!(nonblocking[0] < big_copy);
        assert!(nonblocking[0] >= small_copy);
    }

    #[test]
    fn ideal_baseline_has_no_launch_gap() {
        let cfg = GpuConfig::titan_x_pascal();
        let app = chain_app(&[(0, 1), (1, 2)], 3, 4);
        let r = run_mode(&cfg, &app, ExecMode::IdealBaseline);
        let k1_done = *finishes_of(&r, 0).iter().max().unwrap();
        let k2_start = *starts_of(&r, 1).iter().min().unwrap();
        assert_eq!(k2_start, k1_done);
    }

    /// Every snapshot that checkpointed runs of the twelve small-scale apps
    /// save — untraced under three modes, traced under one: the writer's
    /// bytes equal the clone-based capture's encoding (checked inside every
    /// save under test), they decode and re-encode to themselves, and each
    /// save's history part is a byte prefix of the next save.
    #[test]
    fn every_saved_snapshot_is_canonical_and_extends_the_previous() {
        let cfg = GpuConfig::small();
        let modes = [
            ExecMode::ConsumerPriority { window: 3 },
            ExecMode::ProducerPriority { window: 2 },
            ExecMode::PreLaunch { window: 2 },
        ];
        let tracer = bm_trace::RecordingTracer::new();
        let mut saves = 0;
        for bench in bm_workloads::suite() {
            let app = (bench.build)(bm_workloads::Scale::Small);
            let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
            for (mode, traced) in modes
                .into_iter()
                .map(|m| (m, false))
                .chain([(modes[0], true)])
            {
                let mut store = crate::snapshot::MemStore::default();
                let mut session = CheckpointSession {
                    policy: CheckpointPolicy::every_kernels(1),
                    store: Some(&mut store),
                    ..CheckpointSession::disabled()
                };
                let fault = FaultPlan::default();
                if traced {
                    drive(&cfg, &app, &jit, mode, &fault, None, &tracer, &mut session)
                } else {
                    drive(
                        &cfg,
                        &app,
                        &jit,
                        mode,
                        &fault,
                        None,
                        &bm_trace::NullTracer,
                        &mut session,
                    )
                }
                .unwrap();
                let label = format!("{} {mode} traced={traced}", bench.name);
                saves += store.snaps.len();
                let mut history: &[u8] = &[];
                for (i, bytes) in store.snaps.iter().enumerate() {
                    let snap = RunSnapshot::decode(bytes)
                        .unwrap_or_else(|e| panic!("{label}: save {i} does not decode: {e}"));
                    assert!(
                        snap.encode() == *bytes,
                        "{label}: save {i} re-encodes differently"
                    );
                    assert!(
                        bytes.starts_with(history),
                        "{label}: save {i} does not extend the previous history part"
                    );
                    history = &bytes[..crate::snapshot::history_end(bytes)];
                }
            }
        }
        assert!(saves > 100, "only {saves} snapshots saved");
    }
}
