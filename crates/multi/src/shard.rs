//! The per-device thread-block source: one device's shard of every kernel
//! under the engine's kernel lifecycle ([`Lifecycle`]), plus the message
//! layer for the dependencies that cross device boundaries.
//!
//! The lifecycle is the single-device engine's own: admission (window,
//! pre-launch floor, `PrelaunchOff` blocking, launch and API costs),
//! readiness, barriers, skip gates, placement order and in-order
//! retirement. What a shard leaves out is the dependency-list /
//! parent-counter buffer hardware: it decrements plain counter arrays,
//! so it causes no spill traffic and never shrinks the pre-launch window.
//! Multi-device reports therefore carry zero scheduler-buffer traffic.
//!
//! ## Cross-device protocol
//!
//! * [`Msg::Dec`] — a parent TB on another device completed; decrement
//!   the named child TB's parent counter. Carries data (the producer's
//!   output the consumer reads), so it is charged through the
//!   interconnect's bandwidth model.
//! * [`Msg::ShardDone`] — a device finished its shard of a kernel.
//!   Control-only. A kernel completes on a device once it has counted one
//!   done report per active shard (its own included); retirement,
//!   whole-kernel barriers and skip gates all key off that completion, so
//!   every device observes the same kernel ordering.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use blockmaestro::engine::lifecycle::Lifecycle;
use blockmaestro::{ExecMode, JitKernel};
use bm_depgraph::GraphKind;
use bm_simt::{GpuConfig, TbDescriptor, TbKey, TbSource};
use bm_trace::Tracer;

use crate::partition::Partition;

/// A cross-device message. `Ord` so inbox heaps are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Msg {
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
pub(crate) struct Outgoing {
    /// Destination device, or `None` for broadcast to every other device.
    pub dst: Option<u32>,
    /// Send cycle (the sender's clock at the triggering completion).
    pub sent: u64,
    /// Payload.
    pub msg: Msg,
}

/// Per-device [`TbSource`]: executes one shard of every kernel, exchanging
/// cross-device dependencies as messages.
pub(crate) struct ShardSource<'a, T: Tracer> {
    device: u32,
    part: &'a Partition,
    /// The kernel lifecycle over this device's shards.
    pub life: Lifecycle<'a, T>,
    /// Delivered cross-device messages awaiting their arrival cycle.
    /// `(arrival, delivery_seq, msg)` — the sequence number is assigned by
    /// the coordinator in its fixed routing order, making same-cycle
    /// delivery order deterministic.
    inbox: BinaryHeap<Reverse<(u64, u64, Msg)>>,
    next_inbox_seq: u64,
    /// Messages produced since the coordinator last drained us.
    pub outbox: Vec<Outgoing>,
    pub sent_msgs: u64,
    pub recv_msgs: u64,
}

impl<'a, T: Tracer> ShardSource<'a, T> {
    /// Builds device `device`'s source and runs the lifecycle's boot.
    pub fn new(
        cfg: &GpuConfig,
        jit: &'a [JitKernel],
        mode: ExecMode,
        part: &'a Partition,
        device: u32,
        host_ready: Vec<u64>,
        tracer: &'a T,
    ) -> Self {
        let mut life = Lifecycle::new(cfg, jit, mode, host_ready, tracer, device == 0, |k| {
            let (lo, hi) = part.shard(k, device);
            (lo..hi, part.active_devices(k))
        });
        life.boot();
        ShardSource {
            device,
            part,
            life,
            inbox: BinaryHeap::new(),
            next_inbox_seq: 0,
            outbox: Vec::new(),
            sent_msgs: 0,
            recv_msgs: 0,
        }
    }

    /// Delivers a coordinator-routed message into the inbox.
    pub fn deliver(&mut self, arrival: u64, msg: Msg) {
        self.inbox
            .push(Reverse((arrival, self.next_inbox_seq, msg)));
        self.next_inbox_seq += 1;
        self.recv_msgs += 1;
    }

    fn send(&mut self, dst: Option<u32>, sent: u64, msg: Msg) {
        self.sent_msgs += 1;
        self.outbox.push(Outgoing { dst, sent, msg });
    }

    /// Decrements an owned child's plain parent counter (no buffer
    /// hardware, no spill); zero releases it.
    fn decrement(&mut self, child: TbKey, now: u64) -> bool {
        self.life.decrement(child, now, |stored| Ok(stored == 1))
    }
}

impl<T: Tracer> TbSource for ShardSource<'_, T> {
    fn pop_ready(&mut self, _now: u64, fits: &dyn Fn(u32, u32) -> bool) -> Option<TbDescriptor> {
        self.life.pop_ready(fits)
    }

    fn on_tb_start(&mut self, key: TbKey, now: u64) {
        self.life.tb_started(key, now);
    }

    fn on_tb_complete(&mut self, key: TbKey, now: u64) {
        if self.life.aborted() {
            return;
        }
        let shard_done = self.life.tb_finished(key);
        // Fine-grain child decrements: local children directly, remote
        // children as data messages over the interconnect.
        let next = self.life.jit().get(key.kernel_seq as usize + 1);
        if let (true, Some(next)) = (self.life.mode().fine_grain(), next) {
            if let GraphKind::Explicit(children) = next.graph.kind() {
                for &c in &children[key.tb as usize] {
                    let child = TbKey {
                        kernel_seq: key.kernel_seq + 1,
                        tb: c,
                    };
                    if !self.life.owns(child) {
                        let dst = self.part.device_of(child.kernel_seq as usize, c);
                        let msg = Msg::Dec {
                            kernel: child.kernel_seq,
                            tb: c,
                        };
                        self.send(Some(dst), now, msg);
                    } else if !self.decrement(child, now) {
                        return;
                    }
                }
            }
        }
        if shard_done {
            let kernel = key.kernel_seq;
            let from = self.device;
            self.send(None, now, Msg::ShardDone { kernel, from });
            self.life.shard_done(kernel as usize, now, 0);
        }
    }

    fn next_event_at(&self, _now: u64) -> Option<u64> {
        let msg = self.inbox.peek().map(|Reverse((t, ..))| *t);
        match (self.life.next_arrival(), msg) {
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
            let mut progressed = self.life.advance(now);
            while let Some(&Reverse((t, _, msg))) = self.inbox.peek() {
                if t > now {
                    break;
                }
                progressed = true;
                self.inbox.pop();
                match msg {
                    Msg::Dec { kernel, tb } => {
                        let child = TbKey {
                            kernel_seq: kernel,
                            tb,
                        };
                        self.decrement(child, t);
                    }
                    Msg::ShardDone { kernel, .. } => self.life.shard_done(kernel as usize, t, 0),
                }
            }
            if !progressed {
                break;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.life.is_done()
    }

    fn aborted(&self) -> bool {
        self.life.aborted()
    }
}
