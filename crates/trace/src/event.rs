//! The typed event taxonomy.
//!
//! Events are plain data: every variant carries its own placement in
//! virtual time (a simulation `cycle`, or a deterministic `tick` for the
//! pre-run analysis/command-queue phases) plus the identities needed to
//! attribute it. String payloads (kernel names, degradation labels) are
//! only constructed behind `if T::ENABLED` guards, so the disabled path
//! never allocates.

use std::fmt;

/// Identifies a thread block across the whole application run
/// (mirror of `bm_simt::des::TbKey`, kept local so every crate can depend
/// on `bm-trace` without a cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TbId {
    /// Application-wide kernel sequence number.
    pub kernel: u32,
    /// Linear thread-block id within the kernel.
    pub tb: u32,
}

impl fmt::Display for TbId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}:TB{}", self.kernel, self.tb)
    }
}

/// Why a data-ready thread block did not start executing immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The TB's kernel had not yet arrived at the GPU (launch latency) or
    /// was held by a skip gate when the data dependency resolved.
    KernelArrival,
    /// The TB was eligible but no SM had a free slot (TB/thread/shared-mem
    /// resource contention).
    Resources,
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StallReason::KernelArrival => "kernel-arrival",
            StallReason::Resources => "resources",
        })
    }
}

/// Which rung of the launch-time analysis pipeline a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisPhase {
    /// Precise per-TB abstract interpretation.
    Absint,
    /// Coarse group-level retry.
    Coarse,
    /// Representative-TB trace profiling.
    Trace,
    /// Dependency-graph construction against the predecessor.
    Graph,
}

impl fmt::Display for AnalysisPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AnalysisPhase::Absint => "absint",
            AnalysisPhase::Coarse => "coarse",
            AnalysisPhase::Trace => "trace",
            AnalysisPhase::Graph => "graph",
        })
    }
}

/// Kind of an API command submitted through the command queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// Device allocation.
    Malloc,
    /// Host-to-device copy.
    MemcpyH2D,
    /// Device-to-host copy.
    MemcpyD2H,
    /// Synchronization barrier.
    Sync,
    /// Kernel launch.
    Launch,
}

impl fmt::Display for CmdKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmdKind::Malloc => "malloc",
            CmdKind::MemcpyH2D => "memcpyH2D",
            CmdKind::MemcpyD2H => "memcpyD2H",
            CmdKind::Sync => "sync",
            CmdKind::Launch => "launch",
        })
    }
}

/// One structured trace event. All timestamps are virtual: simulation
/// cycles for run-phase events, deterministic ticks for the pre-run
/// analysis pipeline (`tick` fields) and command-queue positions.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    // ---------------- DES / SM layer ----------------
    /// A thread block executed on an SM from `start` to `finish`.
    TbSpan {
        /// The thread block.
        id: TbId,
        /// SM it ran on.
        sm: u32,
        /// Placement cycle.
        start: u64,
        /// Completion cycle.
        finish: u64,
    },
    /// The number of resident thread blocks on `sm` changed.
    SmOccupancy {
        /// Cycle of the transition.
        cycle: u64,
        /// The SM.
        sm: u32,
        /// Resident TBs after the transition.
        resident: u32,
    },

    // ---------------- engine TB lifecycle ----------------
    /// A thread block's data dependencies were satisfied.
    TbReady {
        /// Cycle at which the last parent resolved.
        cycle: u64,
        /// The thread block.
        id: TbId,
    },
    /// A thread block started later than its data-ready time (emitted at
    /// start; the stall is `cycle - ready_at`).
    TbStall {
        /// Start cycle.
        cycle: u64,
        /// The thread block.
        id: TbId,
        /// When its data dependencies were satisfied.
        ready_at: u64,
        /// What it was waiting on.
        reason: StallReason,
    },

    // ---------------- kernel lifecycle ----------------
    /// The host issued a kernel launch to the GPU.
    KernelIssue {
        /// Issue cycle.
        cycle: u64,
        /// Kernel sequence number.
        seq: u32,
        /// Kernel name.
        name: String,
        /// Whether this was a pre-launch (issued before the previous
        /// kernel retired).
        prelaunched: bool,
    },
    /// A launched kernel arrived at the GPU (launch latency elapsed).
    KernelArrive {
        /// Arrival cycle.
        cycle: u64,
        /// Kernel sequence number.
        seq: u32,
    },
    /// A kernel retired (all TBs complete, in order).
    KernelRetire {
        /// Retire cycle.
        cycle: u64,
        /// Kernel sequence number.
        seq: u32,
    },

    // ---------------- scheduler hardware ----------------
    /// A dependency-list entry was buffered for a newly-scheduled TB.
    DlbInsert {
        /// Cycle of the insert.
        cycle: u64,
        /// The scheduled TB.
        id: TbId,
        /// Number of child TBs in the entry.
        children: u32,
        /// Global-memory transactions the fetch cost (0 for encoded
        /// patterns).
        fetch_txns: u64,
        /// Whether the child list is pattern-encoded (derived, not
        /// fetched).
        encoded: bool,
    },
    /// A parent counter was initialized (fetched from global memory).
    PcbInit {
        /// Cycle of the fetch.
        cycle: u64,
        /// The child TB whose counter was seeded.
        id: TbId,
        /// Initial pending-parent count.
        count: u32,
        /// Whether this was a refetch of a previously-spilled counter.
        refetch: bool,
    },
    /// A resident parent counter was spilled back to global memory to make
    /// room (FIFO eviction).
    PcbSpill {
        /// Cycle of the spill.
        cycle: u64,
        /// The evicted entry.
        victim: TbId,
    },
    /// Occupancy sample of the scheduler buffers.
    BufferLevels {
        /// Sample cycle.
        cycle: u64,
        /// Dependency-list buffer entries in use.
        dlb: u32,
        /// Parent-counter buffer entries in use.
        pcb: u32,
    },

    // ---------------- analysis pipeline (virtual tick clock) ----------------
    /// One phase of a kernel's launch-time analysis. Tick durations are
    /// deterministic (fuel consumed, or 1 for un-fueled phases).
    AnalysisSpan {
        /// Kernel sequence number.
        seq: u32,
        /// Kernel name.
        name: String,
        /// Phase covered by the span.
        phase: AnalysisPhase,
        /// Start tick on the analysis clock.
        start_tick: u64,
        /// End tick (exclusive).
        end_tick: u64,
    },
    /// Outcome of the affine fast-path attempt for one launch.
    AffineFastPath {
        /// Tick at which the verdict landed.
        tick: u64,
        /// Kernel sequence number.
        seq: u32,
        /// Whether the hypothesis was attempted at all.
        attempted: bool,
        /// Whether it survived sampling and a span certificate.
        accepted: bool,
        /// Thread blocks fully interpreted.
        interpreted: u32,
        /// Thread blocks synthesized from the affine model.
        synthesized: u32,
    },
    /// An analysis-cache or graph-cache probe.
    CacheProbe {
        /// Tick of the probe.
        tick: u64,
        /// Kernel sequence number.
        seq: u32,
        /// `true` for the graph cache, `false` for the analysis cache.
        graph: bool,
        /// Whether the probe hit.
        hit: bool,
    },
    /// A kernel moved down the graceful-degradation ladder during
    /// analysis.
    RungTransition {
        /// Tick of the transition.
        tick: u64,
        /// Kernel sequence number.
        seq: u32,
        /// The rung landed on (display form).
        rung: String,
        /// Why (display form).
        reason: String,
    },

    // ---------------- command queue (position clock) ----------------
    /// One API call submitted through the (possibly reordered) command
    /// queue.
    CmdqSubmit {
        /// Position in the reordered stream.
        pos: u32,
        /// Original program-order index.
        orig: u32,
        /// What kind of call.
        kind: CmdKind,
    },

    // ---------------- run-phase instants ----------------
    /// Admission backpressure shrank the pre-launch window.
    Pressure {
        /// Cycle of the shrink.
        cycle: u64,
        /// Cumulative spill transactions observed.
        spill: u64,
        /// Window before.
        window_before: u32,
        /// Window after.
        window_after: u32,
    },
    /// The soundness guard quarantined a kernel.
    Quarantine {
        /// Cycle attributed to the failed round (cycles lost so far).
        cycle: u64,
        /// Quarantined kernel.
        kernel: u32,
        /// Recovery round (0-based).
        round: u32,
    },
    /// A kernel's final ladder placement, stamped with the cycle at which
    /// its launch-time analysis ran (its issue cycle).
    DegradationStamp {
        /// Issue cycle of the degraded kernel.
        cycle: u64,
        /// Kernel sequence number.
        seq: u32,
        /// The rung (display form).
        rung: String,
        /// Why (display form).
        reason: String,
    },

    // ---------------- checkpoint/restore ----------------
    /// A run snapshot was captured at a kernel-retirement boundary.
    CheckpointSave {
        /// Cycle of the boundary.
        cycle: u64,
        /// Kernels retired at the boundary.
        retired: u32,
        /// Encoded snapshot size in bytes.
        bytes: u64,
    },
    /// A run resumed from a snapshot. Operational metadata: resumed runs
    /// carry this extra event, so bit-equivalence comparisons against an
    /// uninterrupted run filter it out by kind (`"checkpoint_load"`).
    CheckpointLoad {
        /// Cycle the snapshot was captured at.
        cycle: u64,
        /// Kernels retired when the snapshot was captured.
        retired: u32,
    },
    /// A snapshot failed validation (bad magic/version/checksum/truncation)
    /// and was rejected; the run fell back to a fresh start.
    CheckpointReject {
        /// Display form of the typed `SnapshotError`.
        reason: String,
    },

    // ---------------- serve layer (virtual service clock) ----------------
    /// A run request was admitted to the service queue.
    ServeAdmit {
        /// Service-clock tick of the admission.
        tick: u64,
        /// Request id.
        request: u64,
        /// Queue depth after the admission (this request included).
        queued: u32,
    },
    /// A worker picked up a request (first attempt or a retry).
    ServeStart {
        /// Service-clock tick.
        tick: u64,
        /// Request id.
        request: u64,
        /// Worker index.
        worker: u32,
        /// Attempt number (0 = first).
        attempt: u32,
    },
    /// A failed attempt was scheduled for retry after backoff.
    ServeRetry {
        /// Service-clock tick the retry was scheduled at.
        tick: u64,
        /// Request id.
        request: u64,
        /// The attempt that failed (0-based).
        attempt: u32,
        /// Backoff ticks before the request becomes runnable again.
        backoff: u64,
        /// Display form of the failure that triggered the retry.
        reason: String,
    },
    /// A request was cancelled or missed its deadline.
    ServeCancel {
        /// Service-clock tick.
        tick: u64,
        /// Request id.
        request: u64,
        /// `true` for a deadline miss, `false` for an explicit cancel.
        deadline: bool,
    },
    /// A request reached a terminal state.
    ServeComplete {
        /// Service-clock tick.
        tick: u64,
        /// Request id.
        request: u64,
        /// Terminal outcome label (`"ok"`, `"cancelled"`, `"deadline"`,
        /// `"failed"`, `"rejected"`, `"shed"`).
        outcome: String,
    },
    /// A per-app circuit breaker changed state.
    BreakerTransition {
        /// Service-clock tick.
        tick: u64,
        /// App fingerprint the breaker keys on.
        app_fp: u64,
        /// State before (`"closed"`, `"open"`, `"half-open"`).
        from: String,
        /// State after.
        to: String,
    },
    // ---------------- multi-GPU interconnect ----------------
    /// The topology of a multi-device run, emitted once before any device
    /// event so consumers can map global SM ids back to `(device, sm)`.
    MultiTopology {
        /// Number of simulated devices.
        devices: u32,
        /// SMs per device (uniform).
        sms_per_device: u32,
    },
    /// A cross-device dependency message entered the link.
    XferStart {
        /// Send cycle (the parent TB's retirement on the source device).
        cycle: u64,
        /// Source device id.
        src: u32,
        /// Destination device id.
        dst: u32,
        /// The child TB whose parent counter the message decrements.
        id: TbId,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A cross-device dependency message was delivered.
    XferDone {
        /// Arrival cycle on the destination device.
        cycle: u64,
        /// Send cycle (matches the paired [`TraceEvent::XferStart`]).
        sent: u64,
        /// Source device id.
        src: u32,
        /// Destination device id.
        dst: u32,
        /// The child TB whose parent counter the message decrements.
        id: TbId,
        /// Payload size in bytes.
        bytes: u64,
    },
}

impl TraceEvent {
    /// The event's placement on its own virtual clock (cycles for
    /// run-phase events, ticks for analysis, position for cmdq).
    pub fn timestamp(&self) -> u64 {
        match self {
            TraceEvent::TbSpan { start, .. } => *start,
            TraceEvent::SmOccupancy { cycle, .. }
            | TraceEvent::TbReady { cycle, .. }
            | TraceEvent::TbStall { cycle, .. }
            | TraceEvent::KernelIssue { cycle, .. }
            | TraceEvent::KernelArrive { cycle, .. }
            | TraceEvent::KernelRetire { cycle, .. }
            | TraceEvent::DlbInsert { cycle, .. }
            | TraceEvent::PcbInit { cycle, .. }
            | TraceEvent::PcbSpill { cycle, .. }
            | TraceEvent::BufferLevels { cycle, .. }
            | TraceEvent::Pressure { cycle, .. }
            | TraceEvent::Quarantine { cycle, .. }
            | TraceEvent::DegradationStamp { cycle, .. }
            | TraceEvent::CheckpointSave { cycle, .. }
            | TraceEvent::CheckpointLoad { cycle, .. }
            | TraceEvent::XferStart { cycle, .. }
            | TraceEvent::XferDone { cycle, .. } => *cycle,
            TraceEvent::CheckpointReject { .. } | TraceEvent::MultiTopology { .. } => 0,
            TraceEvent::AnalysisSpan { start_tick, .. } => *start_tick,
            TraceEvent::AffineFastPath { tick, .. }
            | TraceEvent::CacheProbe { tick, .. }
            | TraceEvent::RungTransition { tick, .. }
            | TraceEvent::ServeAdmit { tick, .. }
            | TraceEvent::ServeStart { tick, .. }
            | TraceEvent::ServeRetry { tick, .. }
            | TraceEvent::ServeCancel { tick, .. }
            | TraceEvent::ServeComplete { tick, .. }
            | TraceEvent::BreakerTransition { tick, .. } => *tick,
            TraceEvent::CmdqSubmit { pos, .. } => *pos as u64,
        }
    }

    /// Short kind label, used by the counter registry and the summarizer.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TbSpan { .. } => "tb_span",
            TraceEvent::SmOccupancy { .. } => "sm_occupancy",
            TraceEvent::TbReady { .. } => "tb_ready",
            TraceEvent::TbStall { .. } => "tb_stall",
            TraceEvent::KernelIssue { .. } => "kernel_issue",
            TraceEvent::KernelArrive { .. } => "kernel_arrive",
            TraceEvent::KernelRetire { .. } => "kernel_retire",
            TraceEvent::DlbInsert { .. } => "dlb_insert",
            TraceEvent::PcbInit { .. } => "pcb_init",
            TraceEvent::PcbSpill { .. } => "pcb_spill",
            TraceEvent::BufferLevels { .. } => "buffer_levels",
            TraceEvent::AnalysisSpan { .. } => "analysis_span",
            TraceEvent::AffineFastPath { .. } => "affine_fastpath",
            TraceEvent::CacheProbe { .. } => "cache_probe",
            TraceEvent::RungTransition { .. } => "rung_transition",
            TraceEvent::CmdqSubmit { .. } => "cmdq_submit",
            TraceEvent::Pressure { .. } => "pressure",
            TraceEvent::Quarantine { .. } => "quarantine",
            TraceEvent::DegradationStamp { .. } => "degradation",
            TraceEvent::CheckpointSave { .. } => "checkpoint_save",
            TraceEvent::CheckpointLoad { .. } => "checkpoint_load",
            TraceEvent::CheckpointReject { .. } => "checkpoint_reject",
            TraceEvent::ServeAdmit { .. } => "serve_admit",
            TraceEvent::ServeStart { .. } => "serve_start",
            TraceEvent::ServeRetry { .. } => "serve_retry",
            TraceEvent::ServeCancel { .. } => "serve_cancel",
            TraceEvent::ServeComplete { .. } => "serve_complete",
            TraceEvent::BreakerTransition { .. } => "breaker_transition",
            TraceEvent::MultiTopology { .. } => "multi_topology",
            TraceEvent::XferStart { .. } => "xfer_start",
            TraceEvent::XferDone { .. } => "xfer_done",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_and_kinds() {
        let id = TbId { kernel: 1, tb: 2 };
        let ev = TraceEvent::TbSpan {
            id,
            sm: 0,
            start: 10,
            finish: 20,
        };
        assert_eq!(ev.timestamp(), 10);
        assert_eq!(ev.kind(), "tb_span");
        assert_eq!(id.to_string(), "K1:TB2");
        let ev = TraceEvent::CmdqSubmit {
            pos: 3,
            orig: 5,
            kind: CmdKind::Launch,
        };
        assert_eq!(ev.timestamp(), 3);
        assert_eq!(CmdKind::MemcpyH2D.to_string(), "memcpyH2D");
        assert_eq!(StallReason::Resources.to_string(), "resources");
        assert_eq!(AnalysisPhase::Graph.to_string(), "graph");
    }
}
