//! The epoch coordinator: conservative bounded-lag parallel DES over N
//! per-device engines.
//!
//! ## Round protocol
//!
//! Each round the coordinator computes `t_min` — the earliest pending
//! event (in-flight TB completion, kernel arrival, or delivered message)
//! across every unfinished device — and grants every device a horizon of
//! `t_min + L`, where `L` is the interconnect's effective latency (the
//! *lookahead*). Devices then drain in fixed id order: each steps its DES
//! until it blocks at the horizon or finishes, and its outgoing messages
//! are routed immediately.
//!
//! ## Why this is both correct and deterministic
//!
//! *Correctness* (no causality violation): any message sent during a
//! round is sent at some `t ≥ t_min` (completions processed this round
//! cannot predate the global minimum), so it arrives at
//! `t + L ≥ t_min + L = horizon` — strictly after every clock reached
//! this round. No device can ever receive a message "in its past", which
//! is why zero-latency links are floored to one cycle.
//!
//! *Determinism*: the coordinator is single-threaded and drains devices
//! in id order, message delivery order is fixed by per-inbox sequence
//! numbers assigned in routing order, and same-arrival messages order by
//! that sequence. The JIT analysis runs before this loop, on one thread.

use blockmaestro::{
    host_plan_traced, CancelToken, EngineError, ExecMode, FaultPlan, JitKernel, MultiStats,
    RunReport,
};
use bm_simt::{BoundedOutcome, DesEngine, DesError, DesStats, GpuConfig, TbSource};
use bm_trace::{TraceEvent, Tracer};

use crate::interconnect::Interconnect;
use crate::partition::Partition;
use crate::shard::{Msg, ShardSource};
use crate::tracer::DeviceTracer;
use crate::MultiGpuConfig;

/// Round-count watchdog: generous (every round advances at least one
/// event on some device) but finite, so a protocol bug surfaces as a
/// typed abort instead of a hang.
const MAX_ROUNDS: u64 = 200_000_000;

/// Why a multi-device attempt was abandoned.
pub(crate) enum MultiAbort {
    /// The interconnect dropped or corrupted a transfer at `cycle`; the
    /// caller falls back to single-device execution. Carries the partition
    /// and transfer accounting up to the fault so the fallback report can
    /// still describe the abandoned attempt.
    LinkFault { cycle: u64, stats: AbandonedStats },
    /// A real execution error — propagated, never masked by fallback.
    Engine(EngineError),
}

/// Partition + interconnect accounting of an abandoned multi attempt.
pub(crate) struct AbandonedStats {
    pub cut_edges: u64,
    pub total_edges: u64,
    pub transfers: u64,
    pub transfer_bytes: u64,
    pub transfer_cycles: u64,
}

/// Runs `jit` across `mcfg.devices` shards and assembles the merged
/// report. Of `fault` only the link-fault entries apply; `cancel` is
/// installed into every device engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sharded<T: Tracer>(
    cfg: &GpuConfig,
    mcfg: &MultiGpuConfig,
    app: &bm_cmdq::Application,
    jit: &[JitKernel],
    mode: ExecMode,
    fault: &FaultPlan,
    cancel: Option<&CancelToken>,
    tracer: &T,
) -> Result<RunReport, MultiAbort> {
    let n = mcfg.devices.max(1) as usize;
    let part = Partition::build(jit, mcfg.devices);
    let (host_ready, epilogue) = host_plan_traced(cfg, app, mode, tracer);
    if T::ENABLED {
        tracer.emit(TraceEvent::MultiTopology {
            devices: n as u32,
            sms_per_device: cfg.num_sms,
        });
    }
    let mut ic = Interconnect::new(mcfg, fault.link_drop_nth, fault.link_corrupt_nth);
    let tracers: Vec<DeviceTracer<'_, T>> = (0..n as u32)
        .map(|d| DeviceTracer::new(tracer, d, cfg.num_sms))
        .collect();
    let mut sources: Vec<ShardSource<'_, DeviceTracer<'_, T>>> = (0..n as u32)
        .map(|d| {
            ShardSource::new(
                cfg,
                jit,
                mode,
                &part,
                d,
                host_ready.clone(),
                &tracers[d as usize],
            )
        })
        .collect();
    let mut engines: Vec<DesEngine> = (0..n)
        .map(|_| {
            let mut engine = DesEngine::new(cfg);
            if let Some(tok) = cancel {
                engine.set_cancel(tok.clone());
            }
            engine
        })
        .collect();
    let mut finished = vec![false; n];
    // The boot may already have produced messages (trivially-complete
    // kernels broadcasting), and the engine kickoff mirrors the
    // single-device driver's `on_time_advance(0)`.
    for src in sources.iter_mut().take(n) {
        src.on_time_advance(0);
    }
    route_round(&mut sources, &mut ic, mcfg, &part, tracer)?;

    let lookahead = ic.lookahead();
    let mut round: u64 = 0;
    while !finished.iter().all(|&f| f) {
        round += 1;
        if round > MAX_ROUNDS {
            let cycle = engines.iter().map(|e| e.now()).max().unwrap_or(0);
            return Err(MultiAbort::Engine(EngineError::Aborted { cycle }));
        }
        // Earliest pending event across unfinished devices. After a round
        // every device has drained to its horizon, so all future activity
        // is anchored in a completion heap, an arrival timer, or a
        // delivered message — exactly what this minimum covers.
        let mut t_min: Option<u64> = None;
        for d in 0..n {
            if finished[d] {
                continue;
            }
            let next = [
                engines[d].next_completion_at(),
                sources[d].next_event_at(engines[d].now()),
            ]
            .into_iter()
            .flatten()
            .min();
            if let Some(t) = next {
                t_min = Some(t_min.map_or(t, |m| m.min(t)));
            }
        }
        let Some(t_min) = t_min else {
            // Nothing pending anywhere yet devices are unfinished: the
            // distributed dependency state is wedged.
            let cycle = engines.iter().map(|e| e.now()).max().unwrap_or(0);
            return Err(MultiAbort::Engine(EngineError::Aborted { cycle }));
        };
        // The horizon saturates at u64::MAX, and no device steps to it, so
        // an event there would never run; a block it released, or a
        // message it sent, would pass u64::MAX anyway.
        if t_min == u64::MAX {
            return Err(MultiAbort::Engine(EngineError::CycleOverflow {
                cycle: t_min,
            }));
        }
        let horizon = t_min.saturating_add(lookahead);
        for d in 0..n {
            if finished[d] {
                continue;
            }
            loop {
                match engines[d].step_bounded(&mut sources[d], &tracers[d], horizon) {
                    Ok(BoundedOutcome::Progressed) => continue,
                    Ok(BoundedOutcome::Blocked) => break,
                    Ok(BoundedOutcome::Finished) => {
                        finished[d] = true;
                        break;
                    }
                    Err(DesError::SourceAbort { cycle }) => {
                        let err = sources[d]
                            .life
                            .take_error()
                            .unwrap_or(EngineError::Aborted { cycle });
                        return Err(MultiAbort::Engine(err));
                    }
                    Err(DesError::Deadlock(snap)) => {
                        // Unreachable under a horizon; typed for safety.
                        return Err(MultiAbort::Engine(EngineError::Deadlock(snap)));
                    }
                    Err(DesError::Cancelled { cycle, cause }) => {
                        return Err(MultiAbort::Engine(EngineError::Cancelled {
                            cycle,
                            retired: sources[d].life.retired(),
                            cause,
                        }));
                    }
                    Err(DesError::CycleOverflow { cycle }) => {
                        return Err(MultiAbort::Engine(EngineError::CycleOverflow { cycle }));
                    }
                }
            }
            route_round(&mut sources, &mut ic, mcfg, &part, tracer)?;
        }
    }

    let stats: Vec<DesStats> = engines.into_iter().map(DesEngine::finish).collect();
    assemble_multi_report(
        mcfg, jit, mode, &part, &sources, &ic, stats, epilogue, tracer,
    )
}

fn link_fault(cycle: u64, part: &Partition, ic: &Interconnect) -> MultiAbort {
    MultiAbort::LinkFault {
        cycle,
        stats: AbandonedStats {
            cut_edges: part.cut_edges,
            total_edges: part.total_edges,
            transfers: ic.transfers,
            transfer_bytes: ic.transfer_bytes,
            transfer_cycles: ic.transfer_cycles,
        },
    }
}

/// Drains every outbox through the interconnect, delivering into the
/// destination inboxes. Stops at a detected link fault, or at a message
/// that would arrive past `u64::MAX` cycles.
fn route_round<T: Tracer>(
    sources: &mut [ShardSource<'_, DeviceTracer<'_, T>>],
    ic: &mut Interconnect,
    mcfg: &MultiGpuConfig,
    part: &Partition,
    tracer: &T,
) -> Result<(), MultiAbort> {
    let n = sources.len();
    for d in 0..n {
        let outgoing = std::mem::take(&mut sources[d].outbox);
        for o in outgoing {
            match o.msg {
                Msg::Dec { kernel, tb } => {
                    let dst = o.dst.expect("dependency messages carry a destination");
                    let id = bm_trace::TbId { kernel, tb };
                    if let Some(arrival) =
                        ic.send_data(tracer, o.sent, d as u32, dst, mcfg.bytes_per_edge, id)
                    {
                        sources[dst as usize].deliver(arrival, o.msg);
                    }
                }
                Msg::ShardDone { .. } => {
                    if let Some(arrival) = ic.send_control(o.sent) {
                        for (dst, src) in sources.iter_mut().enumerate() {
                            if dst != d {
                                src.deliver(arrival, o.msg);
                            }
                        }
                    }
                }
            }
        }
        if let Some(cycle) = ic.overflow_at {
            return Err(MultiAbort::Engine(EngineError::CycleOverflow { cycle }));
        }
        if let Some(cycle) = ic.fault_detected {
            return Err(link_fault(cycle, part, ic));
        }
    }
    Ok(())
}

/// Builds the merged [`RunReport`] from per-device results.
#[allow(clippy::too_many_arguments)]
fn assemble_multi_report<T: Tracer>(
    mcfg: &MultiGpuConfig,
    jit: &[JitKernel],
    mode: ExecMode,
    part: &Partition,
    sources: &[ShardSource<'_, DeviceTracer<'_, T>>],
    ic: &Interconnect,
    stats: Vec<DesStats>,
    epilogue: u64,
    tracer: &T,
) -> Result<RunReport, MultiAbort> {
    let makespan = stats.iter().map(|s| s.total_cycles).max().unwrap_or(0);
    let total_cycles =
        makespan
            .checked_add(epilogue)
            .ok_or(MultiAbort::Engine(EngineError::CycleOverflow {
                cycle: makespan,
            }))?;
    let total_integral: u128 = stats.iter().map(|s| s.concurrency_integral).sum();
    // Merge per-device schedules into one deterministic global order.
    let mut schedule: Vec<_> = stats
        .iter()
        .flat_map(|s| s.schedule.iter().copied())
        .collect();
    schedule.sort_unstable_by_key(|&(key, start, finish)| (start, key.kernel_seq, key.tb, finish));
    let mut stalls = Vec::with_capacity(schedule.len());
    for &(key, start, _finish) in &schedule {
        let dev = part.device_of(key.kernel_seq as usize, key.tb) as usize;
        let ready = sources[dev].life.data_ready_of(key).unwrap_or(start);
        let dur = jit[key.kernel_seq as usize].profile.duration.max(1) as f64;
        stalls.push(start.saturating_sub(ready) as f64 / dur);
    }
    let per_device = stats
        .iter()
        .enumerate()
        .map(|(d, s)| blockmaestro::DeviceStats {
            device: d as u32,
            tbs_executed: s.tbs_executed,
            busy_cycles: s.total_cycles,
            avg_concurrency: s.avg_concurrency(),
            sent_msgs: sources[d].sent_msgs,
            recv_msgs: sources[d].recv_msgs,
        })
        .collect();
    // The shard sources keep plain counter arrays: no scheduler buffer
    // hardware is modeled, so no overhead traffic, high-water mark or
    // window shrink is reported.
    Ok(RunReport {
        total_cycles,
        kernel_region_cycles: makespan,
        avg_concurrency: if makespan == 0 {
            0.0
        } else {
            total_integral as f64 / makespan as f64
        },
        stalls_normalized: stalls,
        schedule,
        multi: Some(MultiStats {
            devices: mcfg.devices,
            link_latency_cycles: mcfg.link_latency_cycles,
            link_bandwidth_bytes_per_cycle: mcfg.link_bandwidth_bytes_per_cycle,
            cut_edges: part.cut_edges,
            total_edges: part.total_edges,
            transfers: ic.transfers,
            transfer_bytes: ic.transfer_bytes,
            transfer_cycles: ic.transfer_cycles,
            per_device,
            fallback: None,
        }),
        ..RunReport::of_kernels(jit, mode, sources[0].life.issue_cycles(), tracer)
    })
}
