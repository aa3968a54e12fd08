//! The per-device thread-block source: one device's contiguous shard of
//! every kernel, driven by the same admission / readiness / retirement
//! rules as the single-device engine source, plus a message layer for the
//! dependencies that cross device boundaries.
//!
//! ## What is mirrored, what is not
//!
//! Admission (window, pre-launch floor, `PrelaunchOff` blocking, GPU-wide
//! launch and API costs), initial-readiness seeding, barrier semantics,
//! skip gates, consumer-priority placement order, and in-order retirement
//! all follow `EngineSource` exactly — that is what makes `devices = 1`
//! behaviourally meaningful and `devices = N` comparable. Every device
//! replays the full host timeline and issues every kernel (its *shard*
//! may be empty); real multi-GPU runtimes broadcast the launch stream the
//! same way.
//!
//! Deliberately **not** mirrored: the dependency-list / parent-counter
//! buffer hardware (spill modeling, pressure-driven window shrink) — the
//! shard source keeps plain counter arrays. Multi-device reports
//! therefore carry zero scheduler-buffer traffic; capacity pressure is a
//! single-device phenomenon in this model.
//!
//! ## Cross-device protocol
//!
//! * [`Msg::Dec`] — a parent TB on another device completed; decrement
//!   the named child TB's parent counter. Carries data (the producer's
//!   output the consumer reads), so it is charged through the
//!   interconnect's bandwidth model.
//! * [`Msg::ShardDone`] — a device finished its shard of a kernel.
//!   Control-only. A kernel is *globally* complete on a device once it
//!   has seen one `ShardDone` per active shard (its own included);
//!   retirement, whole-kernel barriers, and skip gates all key off global
//!   completion, so every device observes the same kernel ordering.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use blockmaestro::{DegradationRung, EngineError, ExecMode, HwError, JitKernel};
use bm_depgraph::GraphKind;
use bm_simt::{GpuConfig, TbDescriptor, TbKey, TbSource};
use bm_trace::{TbId, TraceEvent, Tracer};

use crate::partition::Partition;

/// A cross-device message. `Ord` so inbox heaps are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Msg {
    /// A remote parent of `(kernel, tb)` completed: decrement its counter.
    Dec {
        /// Child kernel sequence number.
        kernel: u32,
        /// Child TB (global id).
        tb: u32,
    },
    /// Device `from` completed its shard of `kernel`.
    ShardDone {
        /// The kernel.
        kernel: u32,
        /// The completing device.
        from: u32,
    },
}

/// An outgoing message, drained by the coordinator after each round.
#[derive(Debug, Clone, Copy)]
pub struct Outgoing {
    /// Destination device, or `None` for broadcast to every other device.
    pub dst: Option<u32>,
    /// Send cycle (the sender's clock at the triggering completion).
    pub sent: u64,
    /// Payload.
    pub msg: Msg,
}

/// One kernel's state on one device.
struct ShardKernel {
    /// Global TB range `[lo, hi)` owned by this device.
    lo: u32,
    hi: u32,
    threads: u32,
    shared_bytes: u32,
    duration: u64,
    /// Remaining parent counts per owned TB, indexed by `tb - lo`
    /// (fine-grain explicit graphs only; empty otherwise).
    counts: Vec<u32>,
    /// Data-ready times per owned TB, indexed by `tb - lo`.
    data_ready: Vec<Option<u64>>,
    done: Vec<bool>,
    pushed: Vec<bool>,
    /// Ready queue of *global* TB ids.
    ready: VecDeque<u32>,
    gates: Vec<u32>,
    completed: u32,
    arrival: Option<u64>,
    /// This device finished its shard.
    complete_local: bool,
    /// `ShardDone` received from every active shard (own included).
    complete_global: bool,
    /// Active shards counted toward global completion.
    active_shards: u32,
    /// `ShardDone` messages seen so far.
    shard_done_seen: u32,
}

impl ShardKernel {
    fn owns(&self, tb: u32) -> bool {
        tb >= self.lo && tb < self.hi
    }

    fn len(&self) -> u32 {
        self.hi - self.lo
    }
}

/// Per-device [`TbSource`]: executes one shard of every kernel, exchanging
/// cross-device dependencies as messages.
pub struct ShardSource<'a, T: Tracer> {
    pub device: u32,
    mode: ExecMode,
    window: usize,
    jit: &'a [JitKernel],
    part: &'a Partition,
    kernels: Vec<ShardKernel>,
    retired: usize,
    issued_count: usize,
    next_issue_floor: u64,
    host_ready: Vec<u64>,
    launch_cycles: u64,
    api_cycles: u64,
    arrivals: BinaryHeap<Reverse<(u64, usize)>>,
    /// Delivered cross-device messages awaiting their arrival cycle.
    /// `(arrival, delivery_seq, msg)` — the sequence number is assigned by
    /// the coordinator in its fixed routing order, making same-cycle
    /// delivery order deterministic.
    inbox: BinaryHeap<Reverse<(u64, u64, Msg)>>,
    next_inbox_seq: u64,
    /// Messages produced since the coordinator last drained us.
    pub outbox: Vec<Outgoing>,
    consumer_toggle: bool,
    error: Option<EngineError>,
    tracer: &'a T,
    /// Only device 0 narrates the (identical) kernel lifecycle.
    emit_kernel_events: bool,
    issue_cycles: Vec<u64>,
    pub sent_msgs: u64,
    pub recv_msgs: u64,
}

impl<'a, T: Tracer> ShardSource<'a, T> {
    /// Builds device `device`'s source and runs the boot sequence
    /// (initial readiness, first admission, trivially-complete kernels).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: &GpuConfig,
        jit: &'a [JitKernel],
        mode: ExecMode,
        part: &'a Partition,
        device: u32,
        host_ready: Vec<u64>,
        tracer: &'a T,
    ) -> Self {
        let fine = mode.fine_grain();
        let kernels: Vec<ShardKernel> = jit
            .iter()
            .enumerate()
            .map(|(k, kernel)| {
                let (lo, hi) = part.shard(k, device);
                let n = hi - lo;
                let counts = if fine {
                    match kernel.graph.kind() {
                        GraphKind::Explicit(_) => {
                            let full = kernel.graph.parent_counts();
                            full[lo as usize..hi as usize].to_vec()
                        }
                        _ => Vec::new(),
                    }
                } else {
                    Vec::new()
                };
                let active_shards = part.active_devices(k);
                ShardKernel {
                    lo,
                    hi,
                    threads: kernel.profile.threads,
                    shared_bytes: kernel.profile.shared_bytes,
                    duration: kernel.profile.duration,
                    counts,
                    data_ready: vec![None; n as usize],
                    done: vec![false; n as usize],
                    pushed: vec![false; n as usize],
                    ready: VecDeque::new(),
                    gates: kernel.skip_gates.clone(),
                    completed: 0,
                    arrival: None,
                    complete_local: n == 0,
                    complete_global: false,
                    active_shards,
                    shard_done_seen: 0,
                }
            })
            .collect();
        let mut src = ShardSource {
            device,
            mode,
            window: mode.window() as usize,
            jit,
            part,
            kernels,
            retired: 0,
            issued_count: 0,
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
            inbox: BinaryHeap::new(),
            next_inbox_seq: 0,
            outbox: Vec::new(),
            consumer_toggle: false,
            error: None,
            tracer,
            emit_kernel_events: device == 0,
            issue_cycles: vec![0; jit.len()],
            sent_msgs: 0,
            recv_msgs: 0,
        };
        for k in 0..src.jit.len() {
            src.seed_initial_readiness(k);
        }
        src.admit_kernels(0);
        // A kernel no device has TBs for (zero-TB kernels; defensive) is
        // globally complete at birth. Empty *shards* of a non-empty kernel
        // need nothing here: they are excluded from `active_shards`, so no
        // device waits on them.
        for k in 0..src.kernels.len() {
            if src.kernels[k].active_shards == 0 {
                src.on_global_complete(k, 0);
            }
        }
        src.cascade_retirement(0);
        src
    }

    /// Delivers a coordinator-routed message into the inbox.
    pub fn deliver(&mut self, arrival: u64, msg: Msg) {
        self.inbox
            .push(Reverse((arrival, self.next_inbox_seq, msg)));
        self.next_inbox_seq += 1;
        self.recv_msgs += 1;
    }

    /// Progress accounting for the coordinator's per-device stats.
    pub fn issue_cycles(&self) -> &[u64] {
        &self.issue_cycles
    }

    /// Data-ready time of an owned TB (for stall accounting).
    pub fn data_ready_of(&self, key: TbKey) -> Option<u64> {
        let st = &self.kernels[key.kernel_seq as usize];
        st.owns(key.tb)
            .then(|| st.data_ready[(key.tb - st.lo) as usize])
            .flatten()
    }

    /// Kernels this device has retired.
    pub fn retired(&self) -> u32 {
        self.retired as u32
    }

    /// The typed error behind an [`TbSource::aborted`] return.
    pub fn take_error(&mut self) -> Option<EngineError> {
        self.error.take()
    }

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

    fn seed_initial_readiness(&mut self, k: usize) {
        let fine = self.mode.fine_grain();
        let barrier = self.kernel_is_barriered(k);
        let st = &mut self.kernels[k];
        if (k == 0 || !barrier) && st.counts.is_empty() {
            for i in 0..st.len() as usize {
                st.data_ready[i] = Some(0);
            }
            return;
        }
        if fine {
            for i in 0..st.len() as usize {
                if st.counts.get(i).copied().unwrap_or(0) == 0 && !st.counts.is_empty() {
                    st.data_ready[i] = Some(0);
                }
            }
        }
    }

    fn admit_kernels(&mut self, now: u64) {
        while self.issued_count < self.jit.len() && self.issued_count < self.retired + self.window {
            let k = self.issued_count;
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
            self.issue_cycles[k] = issue;
            if T::ENABLED && self.emit_kernel_events {
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
            .all(|&g| self.kernels[g as usize].complete_global)
    }

    fn flush_ready(&mut self, k: usize) {
        if self.kernels[k].arrival.is_none() || !self.gates_open(k) {
            return;
        }
        let st = &mut self.kernels[k];
        for i in 0..st.len() as usize {
            if !st.pushed[i] && st.data_ready[i].is_some() {
                st.pushed[i] = true;
                st.ready.push_back(st.lo + i as u32);
            }
        }
    }

    /// Marks an *owned* TB (global id) data-ready, enqueuing if eligible.
    fn mark_data_ready(&mut self, k: usize, tb: u32, now: u64) {
        let eligible = self.kernels[k].arrival.is_some() && self.gates_open(k);
        let st = &mut self.kernels[k];
        debug_assert!(st.owns(tb), "readiness for a TB we do not own");
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
        let i = (tb - st.lo) as usize;
        if eligible && !st.pushed[i] {
            st.pushed[i] = true;
            st.ready.push_back(tb);
        }
    }

    /// This device finished its shard of `k`: count ourselves, tell the
    /// others, and check for global completion.
    fn on_local_complete(&mut self, k: usize, now: u64) {
        let st = &mut self.kernels[k];
        st.complete_local = true;
        st.shard_done_seen += 1;
        self.sent_msgs += 1;
        self.outbox.push(Outgoing {
            dst: None,
            sent: now,
            msg: Msg::ShardDone {
                kernel: k as u32,
                from: self.device,
            },
        });
        if self.kernels[k].shard_done_seen == self.kernels[k].active_shards {
            self.on_global_complete(k, now);
        }
    }

    /// Every active shard of `k` is done, from this device's vantage.
    fn on_global_complete(&mut self, k: usize, now: u64) {
        if self.kernels[k].complete_global {
            return;
        }
        self.kernels[k].complete_global = true;
        if k + 1 < self.kernels.len() && self.kernel_is_barriered(k + 1) {
            let (lo, hi) = (self.kernels[k + 1].lo, self.kernels[k + 1].hi);
            for tb in lo..hi {
                self.mark_data_ready(k + 1, tb, now);
            }
        }
        for j in 0..self.kernels.len() {
            if self.kernels[j].gates.contains(&(k as u32)) {
                self.flush_ready(j);
            }
        }
        self.cascade_retirement(now);
    }

    fn cascade_retirement(&mut self, now: u64) {
        while self.retired < self.kernels.len() && self.kernels[self.retired].complete_global {
            if T::ENABLED && self.emit_kernel_events {
                self.tracer.emit(TraceEvent::KernelRetire {
                    cycle: now,
                    seq: self.retired as u32,
                });
            }
            self.retired += 1;
        }
        self.admit_kernels(now);
    }

    fn record_error(&mut self, e: EngineError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Decrements an owned child TB's parent counter (local completion or
    /// remote [`Msg::Dec`]); zero releases the TB.
    fn decrement(&mut self, k: usize, tb: u32, now: u64) {
        let key = TbKey {
            kernel_seq: k as u32,
            tb,
        };
        let stored = {
            let Some(st) = self.kernels.get(k) else {
                self.record_error(EngineError::Hw {
                    err: HwError::CounterNotResident { key },
                    cycle: now,
                });
                return;
            };
            if !st.owns(tb) || st.counts.is_empty() {
                self.record_error(EngineError::Hw {
                    err: HwError::CounterNotResident { key },
                    cycle: now,
                });
                return;
            }
            st.counts[(tb - st.lo) as usize]
        };
        if stored == 0 {
            self.record_error(EngineError::Hw {
                err: HwError::CounterUnderflow { key },
                cycle: now,
            });
            return;
        }
        let st = &mut self.kernels[k];
        st.counts[(tb - st.lo) as usize] = stored - 1;
        if stored == 1 {
            self.mark_data_ready(k, tb, now);
        }
    }

    fn active_range(&self) -> std::ops::Range<usize> {
        self.retired..self.issued_count
    }
}

impl<T: Tracer> TbSource for ShardSource<'_, T> {
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
        if T::ENABLED {
            let k = key.kernel_seq as usize;
            let ready_at = self.data_ready_of(key).unwrap_or(now);
            if now > ready_at {
                let reason = if self.kernels[k].arrival.is_some_and(|a| a > ready_at) {
                    bm_trace::StallReason::KernelArrival
                } else {
                    bm_trace::StallReason::Resources
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
    }

    fn on_tb_complete(&mut self, key: TbKey, now: u64) {
        if self.error.is_some() {
            return;
        }
        let k = key.kernel_seq as usize;
        {
            let st = &mut self.kernels[k];
            debug_assert!(st.owns(key.tb), "completion for a TB we do not own");
            let i = (key.tb - st.lo) as usize;
            debug_assert!(!st.done[i], "double completion");
            st.done[i] = true;
            st.completed += 1;
        }
        // Fine-grain child decrements: local children directly, remote
        // children as data messages over the interconnect.
        if self.mode.fine_grain() {
            if let Some(next) = self.jit.get(k + 1) {
                if matches!(next.graph.kind(), GraphKind::Explicit(_)) {
                    let ck = k + 1;
                    for c in next.graph.children_of(key.tb) {
                        if self.kernels[ck].owns(c) {
                            self.decrement(ck, c, now);
                            if self.error.is_some() {
                                return;
                            }
                        } else {
                            self.sent_msgs += 1;
                            self.outbox.push(Outgoing {
                                dst: Some(self.part.device_of(ck, c)),
                                sent: now,
                                msg: Msg::Dec {
                                    kernel: ck as u32,
                                    tb: c,
                                },
                            });
                        }
                    }
                }
            }
        }
        if self.kernels[k].completed == self.kernels[k].len() && !self.kernels[k].complete_local {
            self.on_local_complete(k, now);
        }
    }

    fn next_event_at(&self, _now: u64) -> Option<u64> {
        let arrival = self.arrivals.peek().map(|Reverse((t, _))| *t);
        let msg = self.inbox.peek().map(|Reverse((t, ..))| *t);
        match (arrival, msg) {
            (Some(a), Some(m)) => Some(a.min(m)),
            (a, m) => a.or(m),
        }
    }

    fn on_time_advance(&mut self, now: u64) {
        // Drained to a fixpoint: processing a message can retire a kernel
        // and admit the next one with a *zero* launch cost (ideal modes),
        // pushing a fresh arrival at `now` itself — which the engine will
        // never advance to. Re-scan until neither queue has due events.
        loop {
            let mut progressed = false;
            while let Some(Reverse((t, k))) = self.arrivals.peek().copied() {
                if t > now {
                    break;
                }
                progressed = true;
                self.arrivals.pop();
                self.kernels[k].arrival = Some(t);
                if T::ENABLED && self.emit_kernel_events {
                    self.tracer.emit(TraceEvent::KernelArrive {
                        cycle: t,
                        seq: k as u32,
                    });
                }
                self.flush_ready(k);
            }
            while let Some(&Reverse((t, _, msg))) = self.inbox.peek() {
                if t > now {
                    break;
                }
                progressed = true;
                self.inbox.pop();
                match msg {
                    Msg::Dec { kernel, tb } => self.decrement(kernel as usize, tb, t),
                    Msg::ShardDone { kernel, .. } => {
                        let k = kernel as usize;
                        self.kernels[k].shard_done_seen += 1;
                        if self.kernels[k].shard_done_seen == self.kernels[k].active_shards
                            && !self.kernels[k].complete_global
                        {
                            self.on_global_complete(k, t);
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
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
            if st.complete_global {
                continue;
            }
            let pending = st.counts.iter().filter(|&&c| c > 0).count();
            out.push(format!(
                "device {} kernel {k} `{}`: shard [{}, {}), {}/{} TBs complete, \
                 ready-queue depth {}, {} pending parent counters, arrival {:?}, \
                 shard-done {}/{}",
                self.device,
                self.jit[k].name,
                st.lo,
                st.hi,
                st.completed,
                st.len(),
                st.ready.len(),
                pending,
                st.arrival,
                st.shard_done_seen,
                st.active_shards,
            ));
        }
        out
    }
}
