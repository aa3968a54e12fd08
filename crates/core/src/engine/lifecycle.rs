//! The kernel lifecycle every thread-block source runs: kernels enter a
//! bounded pre-launch window, thread blocks become ready when their
//! parent counters reach zero, and kernels complete and retire in order.
//!
//! A [`Lifecycle`] holds one device's view of a run. Of each kernel it
//! owns the thread blocks `[lo, hi)`: one device owns every block, a
//! device of a sharded run owns its partition's slice. A kernel completes
//! once every *active* shard (one with blocks) has reported done; a
//! device's own shard is one report, and a peer's arrives as a message,
//! so one device waits on one report. Every device replays the full host
//! timeline and issues every kernel, as real multi-GPU runtimes broadcast
//! the launch stream.
//!
//! The sources around it differ only in how a completed block reaches its
//! children: the single-device engine decrements parent counters through
//! the scheduler-buffer hardware and feeds the spill count it causes into
//! the pressure window; a shard decrements plain counters with no spill
//! and exchanges the rest as messages.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;

use crate::degrade::{DegradationRung, PressureEvent};
use crate::error::EngineError;
use crate::hw::HwError;
use crate::jit::JitKernel;
use crate::modes::ExecMode;
use crate::snapshot::{EngineSnapshot, KernelImage, KernelView, SnapshotError};
use bm_depgraph::GraphKind;
use bm_simt::config::GpuConfig;
use bm_simt::des::{TbDescriptor, TbKey};
use bm_trace::{StallReason, TbId, TraceEvent, Tracer};

/// One kernel's state on one device. Per-block vectors are indexed by
/// `tb - lo`; the ready queue holds global block ids.
#[derive(Debug)]
pub(crate) struct KernelState {
    lo: u32,
    hi: u32,
    duration: u64,
    threads: u32,
    shared_bytes: u32,
    /// Remaining parent counts per owned block (fine-grain explicit
    /// graphs only; empty otherwise).
    pub(crate) counts: Vec<u32>,
    /// Time each owned block's data dependencies were satisfied.
    data_ready: Vec<Option<u64>>,
    done: Vec<bool>,
    /// Blocks eligible for scheduling right now.
    ready: VecDeque<u32>,
    /// Whether a block has been pushed to `ready` (or scheduled).
    pushed: Vec<bool>,
    /// Kernel seqs (skip gates) that must fully complete first.
    gates: Vec<u32>,
    completed: u32,
    arrival: Option<u64>,
    issued: bool,
    /// Every active shard has reported done.
    complete: bool,
    /// Devices with blocks of this kernel.
    active_shards: u32,
    /// Done reports counted so far, this device's own included.
    shards_done: u32,
}

impl KernelState {
    fn owns(&self, tb: u32) -> bool {
        (self.lo..self.hi).contains(&tb)
    }
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

/// Admission, readiness, completion and retirement of every kernel's
/// blocks on one device; see the [module docs](self).
pub struct Lifecycle<'a, T: Tracer> {
    mode: ExecMode,
    jit: &'a [JitKernel],
    tracer: &'a T,
    /// Whether this device narrates kernel issue, arrival and retirement:
    /// the single device, or device 0 of a sharded run.
    narrator: bool,
    /// Effective pre-launch window; shrinks under admission backpressure.
    pub(crate) window: usize,
    /// The mode's configured window, before any backpressure.
    base_window: usize,
    /// Backpressure never shrinks the window below this (clamped to the
    /// base window so baseline modes are unaffected).
    min_window: usize,
    /// Spill transactions tolerated per window-shrink step; 0 disables
    /// backpressure.
    spill_threshold: u64,
    /// One record per window shrink, in cycle order.
    pub(crate) pressure_events: Vec<PressureEvent>,
    pub(crate) kernels: Vec<KernelState>,
    pub(crate) retired: usize,
    pub(crate) issued_count: usize,
    pub(crate) next_issue_floor: u64,
    host_ready: Vec<u64>,
    launch_cycles: u64,
    api_cycles: u64,
    pub(crate) arrivals: BinaryHeap<Reverse<(u64, usize)>>,
    /// Alternates consumer-priority placement between run-ahead (newest
    /// kernel first) and producer progress (oldest first), so run-ahead
    /// cannot starve the retirement-critical producer when thread-block
    /// demand exceeds the GPU's resident-TB slots.
    pub(crate) consumer_toggle: bool,
    /// Per-kernel issue cycle, always recorded (traced or not) so
    /// degradation records are stamped identically at report assembly.
    pub(crate) issue_cycles: Vec<u64>,
    /// First fault detected mid-run; set once, then the DES aborts.
    error: Option<EngineError>,
}

impl<'a, T: Tracer> Lifecycle<'a, T> {
    /// The lifecycle of `jit` on one device before any scheduling: no
    /// side effects, no trace emissions. `owned(k)` is the block range of
    /// kernel `k` this device owns and the number of devices that own
    /// blocks of it.
    pub fn new(
        cfg: &GpuConfig,
        jit: &'a [JitKernel],
        mode: ExecMode,
        host_ready: Vec<u64>,
        tracer: &'a T,
        narrator: bool,
        owned: impl Fn(usize) -> (Range<u32>, u32),
    ) -> Self {
        let kernels = jit
            .iter()
            .enumerate()
            .map(|(k, kernel)| {
                let (Range { start: lo, end: hi }, active_shards) = owned(k);
                let n = (hi - lo) as usize;
                // Coarse modes treat any dependence as a whole-kernel
                // barrier; fine-grain modes use the bipartite graph.
                let counts = match kernel.graph.kind() {
                    GraphKind::Explicit(_) if mode.fine_grain() => {
                        let mut counts = kernel.graph.parent_counts();
                        counts.truncate(hi as usize);
                        counts.drain(..(lo as usize).min(counts.len()));
                        counts
                    }
                    _ => Vec::new(),
                };
                KernelState {
                    lo,
                    hi,
                    duration: kernel.profile.duration,
                    threads: kernel.profile.threads,
                    shared_bytes: kernel.profile.shared_bytes,
                    counts,
                    data_ready: vec![None; n],
                    done: vec![false; n],
                    ready: VecDeque::new(),
                    pushed: vec![false; n],
                    gates: kernel.skip_gates.clone(),
                    completed: 0,
                    arrival: None,
                    issued: false,
                    complete: false,
                    active_shards,
                    shards_done: 0,
                }
            })
            .collect();
        let base_window = mode.window() as usize;
        let (launch_cycles, api_cycles) = if mode.has_launch_overhead() {
            (cfg.kernel_launch_cycles, cfg.launch_api_cycles)
        } else {
            (0, 0)
        };
        Lifecycle {
            mode,
            jit,
            tracer,
            narrator,
            window: base_window,
            base_window,
            min_window: (cfg.pressure_min_window as usize).min(base_window).max(1),
            spill_threshold: cfg.spill_pressure_threshold,
            pressure_events: Vec::new(),
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
            launch_cycles,
            api_cycles,
            arrivals: BinaryHeap::new(),
            consumer_toggle: false,
            issue_cycles: vec![0; jit.len()],
            error: None,
        }
    }

    /// The boot at cycle 0: initial readiness, the first admission (which
    /// emits the first `KernelIssue` events), and the completion of every
    /// kernel no device has blocks of.
    pub fn boot(&mut self) {
        for k in 0..self.kernels.len() {
            self.seed_initial_readiness(k);
        }
        self.admit_kernels(0, 0);
        for k in 0..self.kernels.len() {
            if self.kernels[k].active_shards == 0 {
                self.complete_kernel(k, 0, 0);
            }
        }
    }

    /// Takes the mutable state from a snapshot, deriving each kernel's
    /// done reports from its `complete` flag. Immutable configuration
    /// (windows, thresholds, gates, durations) stays as [`Self::new`] built
    /// it from `cfg`/`jit`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when the snapshot's shape disagrees
    /// with the analyzed application (kernel count, per-kernel TB counts,
    /// out-of-range indices) — decoded bytes are never trusted blindly.
    pub(crate) fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError> {
        let n = self.kernels.len();
        if snap.kernels.len() != n || snap.issue_cycles.len() != n {
            return Err(SnapshotError::Malformed("kernel count mismatch"));
        }
        if snap.retired as usize > n || snap.issued_count as usize > n {
            return Err(SnapshotError::Malformed("progress counters out of range"));
        }
        if snap.window as usize > self.base_window || snap.window == 0 {
            return Err(SnapshotError::Malformed("window out of range"));
        }
        for (st, ks) in self.kernels.iter().zip(&snap.kernels) {
            let n_tbs = (st.hi - st.lo) as usize;
            if ks.data_ready.len() != n_tbs
                || ks.done.len() != n_tbs
                || ks.pushed.len() != n_tbs
                || !(ks.counts.is_empty() || ks.counts.len() == n_tbs)
                || ks.completed as usize > n_tbs
                || ks.ready.iter().any(|&tb| !st.owns(tb))
            {
                return Err(SnapshotError::Malformed("kernel state shape mismatch"));
            }
        }
        if snap.arrivals.iter().any(|&(_, k)| k as usize >= n) {
            return Err(SnapshotError::Malformed("arrival kernel out of range"));
        }
        self.window = snap.window as usize;
        self.retired = snap.retired as usize;
        self.issued_count = snap.issued_count as usize;
        self.next_issue_floor = snap.next_issue_floor;
        self.consumer_toggle = snap.consumer_toggle;
        self.issue_cycles = snap.issue_cycles.clone();
        self.arrivals = snap
            .arrivals
            .iter()
            .map(|&(t, k)| Reverse((t, k as usize)))
            .collect();
        for (st, ks) in self.kernels.iter_mut().zip(&snap.kernels) {
            st.counts = ks.counts.clone();
            st.data_ready = ks.data_ready.clone();
            st.done = ks.done.clone();
            st.ready = ks.ready.iter().copied().collect();
            st.pushed = ks.pushed.clone();
            st.completed = ks.completed;
            st.arrival = ks.arrival;
            st.issued = ks.issued;
            st.complete = ks.complete;
            st.shards_done = if ks.complete { st.active_shards } else { 0 };
        }
        self.pressure_events = snap.pressure.clone();
        Ok(())
    }

    /// The analyzed kernels.
    pub fn jit(&self) -> &'a [JitKernel] {
        self.jit
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The trace sink.
    pub(crate) fn tracer(&self) -> &'a T {
        self.tracer
    }

    /// Kernels retired so far.
    pub fn retired(&self) -> u32 {
        self.retired as u32
    }

    /// Each kernel's issue cycle (0 until issued).
    pub fn issue_cycles(&self) -> &[u64] {
        &self.issue_cycles
    }

    /// Whether this device owns block `key`.
    pub fn owns(&self, key: TbKey) -> bool {
        self.kernels
            .get(key.kernel_seq as usize)
            .is_some_and(|st| st.owns(key.tb))
    }

    /// When an owned block's data dependencies were satisfied.
    pub fn data_ready_of(&self, key: TbKey) -> Option<u64> {
        let st = self.kernels.get(key.kernel_seq as usize)?;
        st.owns(key.tb)
            .then(|| st.data_ready[(key.tb - st.lo) as usize])
            .flatten()
    }

    /// Whether a fault was recorded (the DES should abort).
    pub fn aborted(&self) -> bool {
        self.error.is_some()
    }

    /// Records the first mid-run fault; later faults are ignored and the
    /// DES aborts at its next scheduling point.
    fn record_error(&mut self, e: EngineError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// The recorded fault, if any.
    pub fn take_error(&mut self) -> Option<EngineError> {
        self.error.take()
    }

    /// Whether every kernel has retired.
    pub fn is_done(&self) -> bool {
        self.retired == self.kernels.len()
    }

    /// The next pending kernel arrival.
    pub fn next_arrival(&self) -> Option<u64> {
        self.arrivals.peek().map(|Reverse((t, _))| *t)
    }

    /// Whether kernel `k` waits on its predecessor as a whole
    /// (coarse modes with any dependence, or fully-connected graphs).
    fn kernel_is_barriered(&self, k: usize) -> bool {
        if k == 0 {
            return false;
        }
        match self.jit[k].graph.kind() {
            GraphKind::Independent => false,
            GraphKind::FullyConnected => true,
            GraphKind::Explicit(_) => !self.mode.fine_grain(),
        }
    }

    /// Marks the owned blocks whose dependencies are satisfied from the
    /// start.
    fn seed_initial_readiness(&mut self, k: usize) {
        let barrier = self.kernel_is_barriered(k);
        let st = &mut self.kernels[k];
        if !barrier && st.counts.is_empty() {
            // The first kernel, or independent of its predecessor: every
            // block is data-ready at t=0.
            st.data_ready.fill(Some(0));
            return;
        }
        if !st.counts.is_empty() {
            // Fine-grain explicit graph (the only kind with counters):
            // blocks with zero parents are data-ready now.
            for (i, ready) in st.data_ready.iter_mut().enumerate() {
                if st.counts.get(i).copied().unwrap_or(0) == 0 {
                    *ready = Some(0);
                }
            }
        }
    }

    /// Overload-safe admission: when cumulative scheduler-buffer `spill`
    /// traffic crosses the configured threshold, the effective pre-launch
    /// window shrinks by one kernel per crossing — monotonically, never
    /// below `min_window` — and each shrink is recorded as a
    /// [`PressureEvent`]. The traffic and the threshold are
    /// deterministic, so identical runs shrink at identical cycles.
    fn check_pressure(&mut self, now: u64, spill: u64) {
        if self.spill_threshold == 0 || self.window == self.min_window {
            return;
        }
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

    fn narrates(&self) -> bool {
        T::ENABLED && self.narrator
    }

    /// Issues kernels into the active window as retirement frees slots,
    /// after shrinking the window for the `spill` traffic so far.
    fn admit_kernels(&mut self, now: u64, spill: u64) {
        self.check_pressure(now, spill);
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
            let (Some(floor), Some(arrival)) = (
                issue.checked_add(self.api_cycles),
                issue.checked_add(self.launch_cycles),
            ) else {
                self.record_error(EngineError::CycleOverflow { cycle: now });
                return;
            };
            self.next_issue_floor = floor;
            self.kernels[k].issued = true;
            self.issue_cycles[k] = issue;
            if self.narrates() {
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

    /// Pushes every eligible owned block of kernel `k` into its ready
    /// queue.
    fn flush_ready(&mut self, k: usize) {
        if self.kernels[k].arrival.is_none() || !self.gates_open(k) {
            return;
        }
        let st = &mut self.kernels[k];
        for (i, (pushed, ready)) in st.pushed.iter_mut().zip(&st.data_ready).enumerate() {
            if !*pushed && ready.is_some() {
                *pushed = true;
                st.ready.push_back(st.lo + i as u32);
            }
        }
    }

    /// Marks an owned block data-ready and enqueues it if eligible.
    fn mark_data_ready(&mut self, k: usize, tb: u32, now: u64) {
        let eligible = self.kernels[k].arrival.is_some() && self.gates_open(k);
        let st = &mut self.kernels[k];
        debug_assert!(
            st.owns(tb),
            "readiness for a block this device does not own"
        );
        let i = (tb - st.lo) as usize;
        if st.data_ready[i].is_none() {
            st.data_ready[i] = Some(now);
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
        if eligible && !st.pushed[i] {
            st.pushed[i] = true;
            st.ready.push_back(tb);
        }
    }

    /// Every active shard of kernel `k` is done: release a whole-kernel
    /// barrier on the next kernel, open the skip gates that name `k`, and
    /// retire what can retire in order.
    fn complete_kernel(&mut self, k: usize, now: u64, spill: u64) {
        if self.kernels[k].complete {
            return;
        }
        self.kernels[k].complete = true;
        if k + 1 < self.kernels.len() && self.kernel_is_barriered(k + 1) {
            let next = &self.kernels[k + 1];
            for tb in next.lo..next.hi {
                self.mark_data_ready(k + 1, tb, now);
            }
        }
        for j in 0..self.kernels.len() {
            if self.kernels[j].gates.contains(&(k as u32)) {
                self.flush_ready(j);
            }
        }
        self.cascade_retirement(now, spill);
    }

    /// In-order kernel completion: kernel `k` retires only after `k-1`
    /// retired; retirement frees window slots for pre-launching.
    fn cascade_retirement(&mut self, now: u64, spill: u64) {
        while self.retired < self.kernels.len() && self.kernels[self.retired].complete {
            if self.narrates() {
                self.tracer.emit(TraceEvent::KernelRetire {
                    cycle: now,
                    seq: self.retired as u32,
                });
            }
            self.retired += 1;
        }
        self.admit_kernels(now, spill);
    }

    /// Pops the next ready block that `fits`, scanning the active kernels
    /// oldest first, or (consumer priority) alternately newest and oldest
    /// first.
    pub fn pop_ready(&mut self, fits: &dyn Fn(u32, u32) -> bool) -> Option<TbDescriptor> {
        if self.mode.consumer_priority() {
            self.consumer_toggle = !self.consumer_toggle;
        }
        let newest_first = self.mode.consumer_priority() && self.consumer_toggle;
        let (first, end) = (self.retired, self.issued_count);
        for i in 0..end.saturating_sub(first) {
            let k = if newest_first { end - 1 - i } else { first + i };
            let st = &mut self.kernels[k];
            if st.arrival.is_none() || st.ready.is_empty() || !fits(st.threads, st.shared_bytes) {
                continue;
            }
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

    /// A block started: trace the stall between its data readiness and
    /// its start, on its kernel's arrival (launch latency) or on execution
    /// resources (no free TB slot).
    pub fn tb_started(&self, key: TbKey, now: u64) {
        if !T::ENABLED {
            return;
        }
        let ready_at = self.data_ready_of(key).unwrap_or(now);
        if now > ready_at {
            let reason = if self.kernels[key.kernel_seq as usize]
                .arrival
                .is_some_and(|a| a > ready_at)
            {
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

    /// An owned block finished. Returns whether it was the last block of
    /// this device's shard of its kernel; the caller then reports the
    /// shard done ([`Self::shard_done`]) once it has released the block's
    /// children.
    pub fn tb_finished(&mut self, key: TbKey) -> bool {
        let st = &mut self.kernels[key.kernel_seq as usize];
        debug_assert!(
            st.owns(key.tb),
            "completion for a block this device does not own"
        );
        let i = (key.tb - st.lo) as usize;
        debug_assert!(!st.done[i], "double completion");
        st.done[i] = true;
        st.completed += 1;
        st.completed == st.hi - st.lo
    }

    /// Decrements the parent counter of the owned block `child`. `hw`
    /// turns the stored count into whether the counter reached zero (the
    /// scheduler hardware may refetch it, or reject the decrement); zero
    /// releases the block at `now`. A counter this device does not hold,
    /// an underflow or a rejection is recorded as the run's fault, and
    /// `false` is returned.
    pub fn decrement(
        &mut self,
        child: TbKey,
        now: u64,
        hw: impl FnOnce(u32) -> Result<bool, HwError>,
    ) -> bool {
        let k = child.kernel_seq as usize;
        let stored = self
            .kernels
            .get(k)
            .filter(|st| st.owns(child.tb))
            .and_then(|st| st.counts.get((child.tb - st.lo) as usize))
            .copied();
        let decremented = match stored {
            None => Err(HwError::CounterNotResident { key: child }),
            Some(0) => Err(HwError::CounterUnderflow { key: child }),
            Some(stored) => hw(stored).map(|zero| (stored - 1, zero)),
        };
        match decremented {
            Ok((left, zero)) => {
                let st = &mut self.kernels[k];
                st.counts[(child.tb - st.lo) as usize] = left;
                if zero {
                    self.mark_data_ready(k, child.tb, now);
                }
                true
            }
            Err(err) => {
                self.record_error(EngineError::Hw { err, cycle: now });
                false
            }
        }
    }

    /// One shard of kernel `k` reported done, this device's own or a
    /// peer's; the last active shard completes the kernel. A retirement
    /// cascade admits kernels after shrinking the window for `spill`.
    pub fn shard_done(&mut self, k: usize, now: u64, spill: u64) {
        let st = &mut self.kernels[k];
        st.shards_done += 1;
        if st.shards_done == st.active_shards {
            self.complete_kernel(k, now, spill);
        }
    }

    /// Delivers every kernel arrival due by `now`, queueing the arrived
    /// kernels' eligible blocks. Returns whether any arrived.
    pub fn advance(&mut self, now: u64) -> bool {
        let mut arrived = false;
        while let Some(Reverse((t, k))) = self.arrivals.peek().copied() {
            if t > now {
                break;
            }
            arrived = true;
            self.arrivals.pop();
            self.kernels[k].arrival = Some(t);
            if self.narrates() {
                self.tracer.emit(TraceEvent::KernelArrive {
                    cycle: t,
                    seq: k as u32,
                });
            }
            self.flush_ready(k);
        }
        arrived
    }

    /// One line per active kernel that has not completed, for deadlock
    /// diagnostics.
    pub(crate) fn diagnostics(&self) -> Vec<String> {
        (self.retired..self.issued_count)
            .filter(|&k| !self.kernels[k].complete)
            .map(|k| {
                let st = &self.kernels[k];
                format!(
                    "kernel {k} `{}`: {}/{} TBs complete, ready-queue depth {}, \
                     {} pending parent counters, arrival {:?}, gates {:?}",
                    self.jit[k].name,
                    st.completed,
                    st.hi - st.lo,
                    st.ready.len(),
                    st.counts.iter().filter(|&&c| c > 0).count(),
                    st.arrival,
                    st.gates,
                )
            })
            .collect()
    }
}
