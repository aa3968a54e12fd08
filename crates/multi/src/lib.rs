//! # bm-multi — TB-grain multi-GPU execution
//!
//! Shards an application's thread blocks across N simulated GPUs and
//! executes the shards as coupled discrete-event simulations over a
//! deterministic virtual interconnect.
//!
//! * [`partition`] cuts every kernel's TB range into contiguous
//!   per-device shards, sliding each boundary locally to minimize the
//!   explicit dependency edges that cross devices.
//! * [`shard`] is the per-device [`bm_simt::TbSource`]: the same
//!   admission / readiness / retirement rules as the single-device
//!   engine, with cross-device parent→child decrements carried as
//!   messages.
//! * [`interconnect`] charges those messages with configurable link
//!   latency and bandwidth, serializing per directed link pair — and
//!   injects the [`blockmaestro::FaultClass::LinkFault`] plans.
//! * [`run`] advances the device engines in conservative bounded-lag
//!   rounds; the effective link latency is the lookahead that makes the
//!   rounds both causally safe and bit-reproducible.
//! * [`snapshot`] captures coordinator state into the `BMSNAP02`
//!   container's multi section.
//!
//! `devices = 1` never enters any of this machinery: the entry points
//! delegate verbatim to the single-device engine, so single-GPU reports
//! and traces are bit-identical to `blockmaestro`'s own.
//!
//! ## Cross-device pre-launch semantics
//!
//! A child TB on device B whose parents live on device A becomes
//! eligible once those parents retire *plus* the transfer delay of the
//! dependency message — pre-launching still masks launch overhead across
//! devices, but data now pays for the wire. A dropped or corrupted
//! transfer abandons the multi-device attempt and re-runs the app on one
//! device, recorded as [`DegradationReason::LinkFault`] in the report —
//! graceful degradation, never a panic.

pub mod interconnect;
pub mod partition;
mod run;
pub mod shard;
pub mod snapshot;
pub mod tracer;

use blockmaestro::{
    try_jit_analyze_app, BmError, DegradationReason, ExecMode, FaultPlan, JitKernel, MultiStats,
    RunReport, RunSnapshot, SnapshotError,
};
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_simt::GpuConfig;
use bm_trace::{NullTracer, Tracer};

pub use partition::Partition;
pub use snapshot::MultiCheckpoint;
pub use tracer::DeviceTracer;

use run::MultiAbort;

/// Multi-GPU execution parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiGpuConfig {
    /// Simulated devices. `1` delegates to the single-device engine.
    pub devices: u32,
    /// Per-hop link propagation latency in cycles. `0` is modeled as one
    /// cycle (a message can never arrive in the cycle it was sent).
    pub link_latency_cycles: u64,
    /// Link bandwidth in bytes per cycle per directed link.
    pub link_bandwidth_bytes_per_cycle: u64,
    /// Payload bytes charged per cross-device dependency edge.
    pub bytes_per_edge: u64,
}

impl Default for MultiGpuConfig {
    /// NVLink-flavoured defaults at the simulator's 1 GHz / 1 ns-per-cycle
    /// convention: ~600 ns hop latency, 32 B/cycle (~32 GB/s) per
    /// direction, one 256 B line per dependency edge.
    fn default() -> Self {
        MultiGpuConfig {
            devices: 1,
            link_latency_cycles: 600,
            link_bandwidth_bytes_per_cycle: 32,
            bytes_per_edge: 256,
        }
    }
}

impl MultiGpuConfig {
    /// A config for `devices` devices with default link parameters.
    pub fn devices(devices: u32) -> Self {
        MultiGpuConfig {
            devices: devices.max(1),
            ..MultiGpuConfig::default()
        }
    }
}

/// Runs `app` across `mcfg.devices` simulated GPUs (RAW hazard tracking,
/// no faults, untraced).
///
/// # Errors
///
/// Any [`BmError`], exactly as the single-device entry points. A link
/// fault is *not* an error: it degrades to single-device execution.
pub fn try_run_app_multi(
    cfg: &GpuConfig,
    mcfg: &MultiGpuConfig,
    app: &Application,
    mode: ExecMode,
    hazard: HazardMode,
) -> Result<RunReport, BmError> {
    try_run_app_multi_faulty(
        cfg,
        mcfg,
        app,
        mode,
        hazard,
        &FaultPlan::default(),
        &NullTracer,
    )
}

/// [`try_run_app_multi`] with a trace sink. With `devices = 1` the
/// emitted stream is bit-identical to
/// [`blockmaestro::try_run_app_with_tracer`]; with more devices each
/// device's SM lanes are offset into its own block and cross-device
/// transfers appear as `XferStart`/`XferDone` events.
///
/// # Errors
///
/// As [`try_run_app_multi`].
pub fn try_run_app_multi_traced<T: Tracer>(
    cfg: &GpuConfig,
    mcfg: &MultiGpuConfig,
    app: &Application,
    mode: ExecMode,
    hazard: HazardMode,
    tracer: &T,
) -> Result<RunReport, BmError> {
    try_run_app_multi_faulty(cfg, mcfg, app, mode, hazard, &FaultPlan::default(), tracer)
}

/// The full multi-device pipeline with an injected [`FaultPlan`]. Only
/// the plan's `link_drop_nth` / `link_corrupt_nth` fields are consumed —
/// the other fault classes perturb single-device scheduler hardware this
/// crate does not model. On a link fault the multi attempt is abandoned
/// and the app re-runs on one device; the returned report carries
/// [`MultiStats::fallback`] with [`DegradationReason::LinkFault`] and the
/// detection cycle.
///
/// # Errors
///
/// As [`try_run_app_multi`].
pub fn try_run_app_multi_faulty<T: Tracer>(
    cfg: &GpuConfig,
    mcfg: &MultiGpuConfig,
    app: &Application,
    mode: ExecMode,
    hazard: HazardMode,
    fault: &FaultPlan,
    tracer: &T,
) -> Result<RunReport, BmError> {
    if mcfg.devices <= 1 {
        return blockmaestro::try_run_app_with_tracer(cfg, app, mode, hazard, tracer);
    }
    app.validate()?;
    let jit = try_jit_analyze_app(cfg, app, hazard)?;
    run_analyzed(cfg, mcfg, app, &jit, mode, hazard, fault, tracer)
}

/// Multi-device execution of a pre-analyzed application — the entry the
/// determinism suites use to hold or vary the analysis configuration.
///
/// # Errors
///
/// As [`try_run_app_multi`].
pub fn try_run_analyzed_multi(
    cfg: &GpuConfig,
    mcfg: &MultiGpuConfig,
    app: &Application,
    jit: &[JitKernel],
    mode: ExecMode,
) -> Result<RunReport, BmError> {
    try_run_analyzed_multi_traced(cfg, mcfg, app, jit, mode, &NullTracer)
}

/// [`try_run_analyzed_multi`] with a trace sink.
///
/// # Errors
///
/// As [`try_run_app_multi`].
pub fn try_run_analyzed_multi_traced<T: Tracer>(
    cfg: &GpuConfig,
    mcfg: &MultiGpuConfig,
    app: &Application,
    jit: &[JitKernel],
    mode: ExecMode,
    tracer: &T,
) -> Result<RunReport, BmError> {
    if mcfg.devices <= 1 {
        return blockmaestro::try_run_analyzed_traced(cfg, app, jit, mode, tracer)
            .map_err(BmError::from);
    }
    run_analyzed(
        cfg,
        mcfg,
        app,
        jit,
        mode,
        HazardMode::Raw,
        &FaultPlan::default(),
        tracer,
    )
}

/// [`try_run_analyzed_multi_traced`] that also returns the coordinator
/// state at the final round boundary, ready to embed into a `BMSNAP02`
/// container via [`embed_multi`]. Only meaningful for `devices ≥ 2`;
/// `devices = 1` has no coordinator and returns `None`.
///
/// # Errors
///
/// As [`try_run_app_multi`].
pub fn try_run_analyzed_multi_snapshotted<T: Tracer>(
    cfg: &GpuConfig,
    mcfg: &MultiGpuConfig,
    app: &Application,
    jit: &[JitKernel],
    mode: ExecMode,
    tracer: &T,
) -> Result<(RunReport, Option<MultiCheckpoint>), BmError> {
    if mcfg.devices <= 1 {
        let report = blockmaestro::try_run_analyzed_traced(cfg, app, jit, mode, tracer)?;
        return Ok((report, None));
    }
    match run::run_sharded(cfg, mcfg, app, jit, mode, None, None, tracer) {
        Ok(out) => Ok((out.report, Some(out.final_checkpoint))),
        Err(MultiAbort::Engine(e)) => Err(BmError::from(e)),
        Err(MultiAbort::LinkFault { .. }) => {
            unreachable!("no fault plan was supplied")
        }
    }
}

/// Shared `devices ≥ 2` path: shard, run, and on a link fault fall back
/// to a clean single-device execution stamped with the degradation.
#[allow(clippy::too_many_arguments)]
fn run_analyzed<T: Tracer>(
    cfg: &GpuConfig,
    mcfg: &MultiGpuConfig,
    app: &Application,
    jit: &[JitKernel],
    mode: ExecMode,
    hazard: HazardMode,
    fault: &FaultPlan,
    tracer: &T,
) -> Result<RunReport, BmError> {
    match run::run_sharded(
        cfg,
        mcfg,
        app,
        jit,
        mode,
        fault.link_drop_nth,
        fault.link_corrupt_nth,
        tracer,
    ) {
        Ok(out) => Ok(out.report),
        Err(MultiAbort::Engine(e)) => Err(BmError::from(e)),
        Err(MultiAbort::LinkFault { cycle, stats }) => {
            // The damaged attempt is discarded wholesale; the app re-runs
            // on one device through the guarded single-device pipeline.
            let mut report = blockmaestro::try_run_app_faulty_traced(
                cfg,
                app,
                jit.to_vec(),
                mode,
                hazard,
                &FaultPlan::default(),
                tracer,
            )?;
            report.multi = Some(MultiStats {
                devices: mcfg.devices,
                link_latency_cycles: mcfg.link_latency_cycles,
                link_bandwidth_bytes_per_cycle: mcfg.link_bandwidth_bytes_per_cycle,
                cut_edges: stats.cut_edges,
                total_edges: stats.total_edges,
                transfers: stats.transfers,
                transfer_bytes: stats.transfer_bytes,
                transfer_cycles: stats.transfer_cycles,
                per_device: Vec::new(),
                fallback: Some((DegradationReason::LinkFault, cycle)),
            });
            Ok(report)
        }
    }
}

/// Embeds a multi-device checkpoint into a `BMSNAP02` container.
pub fn embed_multi(snap: &mut RunSnapshot, ckpt: &MultiCheckpoint) {
    snap.multi = ckpt.encode();
}

/// Extracts the multi-device section of a container, if present.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when the section exists but is corrupt.
pub fn extract_multi(snap: &RunSnapshot) -> Result<Option<MultiCheckpoint>, SnapshotError> {
    if snap.multi.is_empty() {
        return Ok(None);
    }
    MultiCheckpoint::decode(&snap.multi).map(Some)
}
