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
//! * the coordinator advances the device engines in conservative
//!   bounded-lag rounds; the effective link latency is the lookahead that
//!   makes the rounds both causally safe and bit-reproducible.
//!
//! [`run`] takes the same [`RunSpec`] as [`blockmaestro::run`]. With
//! `devices = 1` it *is* that call, so single-GPU reports and traces are
//! bit-identical to `blockmaestro`'s own. With more devices a guarded spec
//! runs each sharded attempt inside the core's quarantine loop
//! ([`blockmaestro::guard::guarded_rounds`]), so one soundness guard
//! covers 1..N devices.
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
pub mod tracer;

use blockmaestro::guard::guarded_rounds;
use blockmaestro::snapshot::GuardSnapshot;
use blockmaestro::{
    BmError, DegradationReason, ExecMode, JitKernel, MultiStats, RunReport, RunSpec,
};
use bm_cmdq::Application;
use bm_simt::GpuConfig;
use bm_trace::{NullTracer, Tracer};

pub use partition::Partition;
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

/// Runs `app` across `mcfg.devices` simulated GPUs as `spec` says,
/// observed by `tracer`.
///
/// `devices ≤ 1` is [`blockmaestro::run`] with the same spec. On 2 or
/// more devices:
///
/// * `guard` runs each sharded attempt inside the core's quarantine loop;
/// * `cancel` is observed by the analysis and by every device engine;
/// * of `fault`, only `link_drop_nth` / `link_corrupt_nth` apply — the
///   other fault classes perturb single-device scheduler hardware the
///   shards do not model. A link fault abandons the attempt and re-runs
///   the same kernels on one device; the report then carries
///   [`MultiStats::fallback`] with [`DegradationReason::LinkFault`] and
///   the detection cycle;
/// * a checkpoint store is rejected before any work: multi-device runs
///   have no resumable form.
///
/// # Errors
///
/// As [`blockmaestro::run`], plus [`BmError::Unsupported`] for a
/// checkpoint store on 2 or more devices. A link fault is *not* an error.
pub fn run<T: Tracer>(
    cfg: &GpuConfig,
    mcfg: &MultiGpuConfig,
    app: &Application,
    spec: &mut RunSpec<'_>,
    tracer: &T,
) -> Result<RunReport, BmError> {
    if mcfg.devices <= 1 {
        return blockmaestro::run(cfg, app, spec, tracer);
    }
    if spec.checkpoint.store.is_some() {
        return Err(BmError::Unsupported(
            "checkpoints of a multi-device run (it has no resumable form)",
        ));
    }
    if !spec.guard {
        let jit = spec.analyze(cfg, app, tracer)?;
        return sharded_attempt(cfg, mcfg, app, &jit, spec, tracer);
    }
    guarded_rounds(
        app,
        spec,
        tracer,
        |spec| {
            let jit = spec.analyze(cfg, app, tracer)?;
            Ok((jit.into_owned(), GuardSnapshot::default()))
        },
        |spec, jit, _| sharded_attempt(cfg, mcfg, app, jit, spec, tracer),
    )
}

/// Unguarded multi-device execution of a pre-analyzed application.
///
/// # Errors
///
/// As [`run`].
pub fn try_run_analyzed_multi(
    cfg: &GpuConfig,
    mcfg: &MultiGpuConfig,
    app: &Application,
    jit: &[JitKernel],
    mode: ExecMode,
) -> Result<RunReport, BmError> {
    let mut spec = RunSpec {
        kernels: Some(jit),
        ..RunSpec::new(mode)
    };
    run(cfg, mcfg, app, &mut spec, &NullTracer)
}

/// One sharded attempt. On a link fault the damaged attempt is discarded
/// wholesale and `jit` re-runs on one device, stamped with the
/// degradation.
fn sharded_attempt<T: Tracer>(
    cfg: &GpuConfig,
    mcfg: &MultiGpuConfig,
    app: &Application,
    jit: &[JitKernel],
    spec: &RunSpec<'_>,
    tracer: &T,
) -> Result<RunReport, BmError> {
    let cancel = spec.cancel.as_ref();
    match run::run_sharded(cfg, mcfg, app, jit, spec.mode, &spec.fault, cancel, tracer) {
        Ok(report) => Ok(report),
        Err(MultiAbort::Engine(e)) => Err(BmError::from(e)),
        Err(MultiAbort::LinkFault { cycle, stats }) => {
            let mut fallback = RunSpec {
                hazard: spec.hazard,
                kernels: Some(jit),
                cancel: spec.cancel.clone(),
                ..RunSpec::new(spec.mode)
            };
            let mut report = blockmaestro::run(cfg, app, &mut fallback, tracer)?;
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
