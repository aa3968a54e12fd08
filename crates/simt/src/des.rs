//! Thread-block-granularity discrete-event engine.
//!
//! The engine owns time and SM resources (TB slots, threads, shared
//! memory); the *policy* — which thread blocks are ready and in what order
//! they should be placed — is supplied by a [`TbSource`], which is how the
//! BlockMaestro engine, the baselines, and the comparison models all share
//! one simulator.

use crate::config::GpuConfig;
use bm_trace::{NullTracer, TbId, TraceEvent, Tracer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Identifies a thread block across the whole application run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TbKey {
    /// Application-wide kernel sequence number.
    pub kernel_seq: u32,
    /// Linear thread-block id within the kernel.
    pub tb: u32,
}

/// A thread block ready for placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TbDescriptor {
    /// Identity.
    pub key: TbKey,
    /// Threads per block (SM thread-resource usage).
    pub threads: u32,
    /// Shared-memory bytes per block.
    pub shared_bytes: u32,
    /// Execution duration in cycles.
    pub duration: u64,
}

/// Supplies ready thread blocks to the engine and observes completions.
pub trait TbSource {
    /// Pops the highest-priority ready thread block for which `fits`
    /// returns true, or `None` if nothing placeable is ready at `now`.
    fn pop_ready(&mut self, now: u64, fits: &dyn Fn(u32, u32) -> bool) -> Option<TbDescriptor>;

    /// Called when a thread block starts executing.
    fn on_tb_start(&mut self, _key: TbKey, _now: u64) {}

    /// Called when a thread block completes.
    fn on_tb_complete(&mut self, key: TbKey, now: u64);

    /// The next time an external event (e.g. a kernel arrival) changes the
    /// ready set, if any. The engine will advance time no further than this
    /// before asking again. Times at or before `now` are ignored — blocked
    /// placements are retried on completions, which free resources.
    fn next_event_at(&self, now: u64) -> Option<u64>;

    /// Called whenever simulation time advances, so the source can retire
    /// timers (kernel arrivals etc.).
    fn on_time_advance(&mut self, _now: u64) {}

    /// Whether every thread block has been issued and completed.
    fn is_done(&self) -> bool;

    /// Whether the source has hit an unrecoverable internal error and wants
    /// the engine to stop. Checked once per engine iteration; a `true`
    /// return makes [`try_run`] exit with [`DesError::SourceAbort`] so the
    /// source's owner can surface its own typed error. Defaults to `false`.
    fn aborted(&self) -> bool {
        false
    }

    /// Human-readable state lines for deadlock diagnostics (ready-queue
    /// depths, dependency-counter values, window state, ...). Collected
    /// into [`DeadlockSnapshot::diagnostics`] when the engine detects a
    /// no-progress state. Defaults to empty.
    fn diagnostics(&self) -> Vec<String> {
        Vec::new()
    }
}

/// State captured when the engine detects a no-progress condition: nothing
/// running, nothing ready, no future event, yet the source is not done.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockSnapshot {
    /// Simulation time at which progress stopped.
    pub cycle: u64,
    /// Thread blocks completed before the deadlock.
    pub tbs_executed: u64,
    /// Thread blocks resident on SMs at the deadlock point. Empty in the
    /// strict no-progress state (running TBs always produce completion
    /// events), kept for sources that abort with work in flight.
    pub resident: Vec<TbKey>,
    /// Source-provided state lines ([`TbSource::diagnostics`]).
    pub diagnostics: Vec<String>,
}

impl fmt::Display for DeadlockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadlock at cycle {} after {} TBs ({} resident)",
            self.cycle,
            self.tbs_executed,
            self.resident.len()
        )?;
        for line in &self.diagnostics {
            write!(f, "\n  {line}")?;
        }
        Ok(())
    }
}

/// Typed failure of a discrete-event run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesError {
    /// The source can never make progress again: no running TBs, no ready
    /// TBs, no future events, and `is_done()` is false. Always a policy or
    /// dependency-metadata bug, never a timing accident.
    Deadlock(DeadlockSnapshot),
    /// The source reported an internal failure via [`TbSource::aborted`];
    /// the engine stopped so the owner can recover its typed error.
    SourceAbort {
        /// Simulation time at which the abort was observed.
        cycle: u64,
    },
    /// A cooperative [`bm_ptx::cancel::CancelToken`] installed via
    /// [`DesEngine::set_cancel`] fired; the engine stopped at a step
    /// boundary without consuming any further simulated time.
    Cancelled {
        /// Simulation time at which the token was observed fired.
        cycle: u64,
        /// Why the token fired.
        cause: bm_ptx::cancel::CancelCause,
    },
}

impl fmt::Display for DesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesError::Deadlock(s) => write!(f, "DES {s}"),
            DesError::SourceAbort { cycle } => {
                write!(f, "DES source aborted at cycle {cycle}")
            }
            DesError::Cancelled { cycle, cause } => {
                write!(f, "DES run {cause} at cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for DesError {}

/// Statistics from one engine run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DesStats {
    /// Cycle when the last thread block completed (total execution time).
    pub total_cycles: u64,
    /// Time-weighted integral of running thread blocks (for average
    /// TB concurrency, Fig. 10).
    pub concurrency_integral: u128,
    /// Total thread blocks executed.
    pub tbs_executed: u64,
    /// Per-TB `(key, start, finish)` schedule, in completion order.
    pub schedule: Vec<(TbKey, u64, u64)>,
}

impl DesStats {
    /// Average number of concurrently-running thread blocks.
    pub fn avg_concurrency(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.concurrency_integral as f64 / self.total_cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SmState {
    free_tbs: u32,
    free_threads: u32,
    free_shared: u32,
}

/// Serializable image of a [`DesEngine`] between steps.
///
/// Captures everything the engine owns — SM free resources, in-flight
/// completion events, the simulation clock, and the accumulated
/// [`DesStats`] including the full schedule — so a run restored from a
/// checkpoint continues bit-identically to one that never stopped. The
/// completion heap is drained into sorted order so the image itself is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DesCheckpoint {
    /// Per-SM `(free_tbs, free_threads, free_shared)`.
    pub sms: Vec<(u32, u32, u32)>,
    /// Pending completion events `(finish, seq, sm, descriptor)`, sorted.
    pub events: Vec<(u64, u64, u32, TbDescriptor)>,
    /// Next placement sequence number (heap tie-breaker).
    pub seq: u64,
    /// Current simulation time.
    pub now: u64,
    /// Thread blocks currently running.
    pub running: u32,
    /// Last time the concurrency integral was folded.
    pub last_t: u64,
    /// Per-SM resident thread-block counts.
    pub resident: Vec<u32>,
    /// Statistics accumulated so far (schedule included).
    pub stats: DesStats,
}

impl DesCheckpoint {
    /// The image as a [`DesView`] that borrows its per-SM counts and
    /// statistics.
    pub fn view(&self) -> DesView<'_> {
        DesView {
            sms: self.sms.clone(),
            events: self.events.clone(),
            seq: self.seq,
            now: self.now,
            running: self.running,
            last_t: self.last_t,
            resident: &self.resident,
            stats: &self.stats,
        }
    }
}

/// Borrowed image of a [`DesEngine`] between steps: the content of a
/// [`DesCheckpoint`] without copying the resident counts or the schedule,
/// which grows with the run. The per-SM resources and the in-flight events
/// are bounded by the GPU's resident-TB slots and are copied, the events
/// in sorted order.
#[derive(Debug, Clone, PartialEq)]
pub struct DesView<'a> {
    /// Per-SM `(free_tbs, free_threads, free_shared)`.
    pub sms: Vec<(u32, u32, u32)>,
    /// Pending completion events `(finish, seq, sm, descriptor)`, sorted.
    pub events: Vec<(u64, u64, u32, TbDescriptor)>,
    /// Next placement sequence number (heap tie-breaker).
    pub seq: u64,
    /// Current simulation time.
    pub now: u64,
    /// Thread blocks currently running.
    pub running: u32,
    /// Last time the concurrency integral was folded.
    pub last_t: u64,
    /// Per-SM resident thread-block counts.
    pub resident: &'a [u32],
    /// Statistics accumulated so far (schedule included).
    pub stats: &'a DesStats,
}

/// Result of one [`DesEngine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The engine placed/advanced/completed work; call `step` again.
    Progressed,
    /// The source is done and no completions are in flight; the run is
    /// over and [`DesEngine::finish`] may be called.
    Finished,
}

/// Result of one [`DesEngine::step_bounded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedOutcome {
    /// The engine placed/advanced/completed work strictly below the
    /// horizon; call `step_bounded` again.
    Progressed,
    /// The next time advance would reach or pass the horizon (or no
    /// future event exists at all). Placements at the current time have
    /// already been made; the clock did not move.
    Blocked,
    /// As [`StepOutcome::Finished`].
    Finished,
}

/// The discrete-event loop of [`try_run_traced`], hoisted into a struct so
/// drivers can interleave their own work — checkpointing at kernel
/// boundaries, deterministic kill points — between iterations.
///
/// One [`step`](DesEngine::step) is exactly one iteration of the original
/// loop: abort check, placement phase, done check, time advance, and the
/// completion batch at the new time. State between steps is fully captured
/// by [`checkpoint`](DesEngine::checkpoint) and restored by
/// [`from_checkpoint`](DesEngine::from_checkpoint).
#[derive(Debug, Clone)]
pub struct DesEngine {
    sms: Vec<SmState>,
    // Completion events: (time, seq, sm, desc).
    heap: BinaryHeap<Reverse<(u64, u64, usize, TbDescriptor)>>,
    seq: u64,
    now: u64,
    running: u32,
    stats: DesStats,
    last_t: u64,
    resident: Vec<u32>,
    // Runtime-only cooperative cancellation; never part of a checkpoint
    // (a restored engine starts with no token until the owner reinstalls
    // one), and never consulted when absent — so untokened runs are
    // bit-identical to the pre-cancellation engine.
    cancel: Option<bm_ptx::cancel::CancelToken>,
}

impl DesEngine {
    /// A fresh engine at cycle 0 with all SM resources free.
    ///
    /// The caller owns the `source.on_time_advance(0)` kickoff (see
    /// [`try_run_traced`]); a restored engine must not repeat it.
    pub fn new(cfg: &GpuConfig) -> Self {
        DesEngine {
            sms: (0..cfg.num_sms)
                .map(|_| SmState {
                    free_tbs: cfg.max_tbs_per_sm,
                    free_threads: cfg.max_threads_per_sm,
                    free_shared: cfg.shared_mem_per_sm,
                })
                .collect(),
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            running: 0,
            stats: DesStats::default(),
            last_t: 0,
            resident: vec![0; cfg.num_sms as usize],
            cancel: None,
        }
    }

    /// Installs a cooperative cancellation token, observed at the top of
    /// every [`step`](DesEngine::step). The check is pure — a token that
    /// never fires leaves the run bit-identical — and fires *between*
    /// steps, so no partial placement or completion batch is ever visible.
    pub fn set_cancel(&mut self, cancel: bm_ptx::cancel::CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Consumes the engine after [`StepOutcome::Finished`], stamping the
    /// final cycle count into the returned statistics.
    pub fn finish(mut self) -> DesStats {
        self.stats.total_cycles = self.now;
        self.stats
    }

    /// Captures the complete between-steps state.
    pub fn checkpoint(&self) -> DesCheckpoint {
        let view = self.view();
        DesCheckpoint {
            sms: view.sms,
            events: view.events,
            seq: view.seq,
            now: view.now,
            running: view.running,
            last_t: view.last_t,
            resident: view.resident.to_vec(),
            stats: view.stats.clone(),
        }
    }

    /// The between-steps state as a [`DesView`]: what
    /// [`checkpoint`](DesEngine::checkpoint) copies, with the schedule
    /// borrowed.
    pub fn view(&self) -> DesView<'_> {
        let mut events: Vec<(u64, u64, u32, TbDescriptor)> = self
            .heap
            .iter()
            .map(|Reverse((t, s, si, d))| (*t, *s, *si as u32, *d))
            .collect();
        events.sort_unstable();
        DesView {
            sms: self
                .sms
                .iter()
                .map(|sm| (sm.free_tbs, sm.free_threads, sm.free_shared))
                .collect(),
            events,
            seq: self.seq,
            now: self.now,
            running: self.running,
            last_t: self.last_t,
            resident: &self.resident,
            stats: &self.stats,
        }
    }

    /// Rebuilds an engine from a [`checkpoint`](DesEngine::checkpoint)
    /// image. The image is trusted to be internally consistent; corrupt
    /// images are rejected upstream by checksum validation before they
    /// reach this constructor.
    pub fn from_checkpoint(ckpt: &DesCheckpoint) -> Self {
        DesEngine {
            sms: ckpt
                .sms
                .iter()
                .map(|&(free_tbs, free_threads, free_shared)| SmState {
                    free_tbs,
                    free_threads,
                    free_shared,
                })
                .collect(),
            heap: ckpt
                .events
                .iter()
                .map(|&(t, s, si, d)| Reverse((t, s, si as usize, d)))
                .collect(),
            seq: ckpt.seq,
            now: ckpt.now,
            running: ckpt.running,
            stats: ckpt.stats.clone(),
            last_t: ckpt.last_t,
            resident: ckpt.resident.clone(),
            cancel: None,
        }
    }

    /// The finish time of the earliest in-flight completion event, if any.
    ///
    /// Used by multi-device coordinators to compute a conservative global
    /// time bound without disturbing engine state.
    pub fn next_completion_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, ..))| *t)
    }

    /// Runs one iteration of the event loop.
    ///
    /// # Errors
    ///
    /// Exactly as [`try_run`]: [`DesError::Deadlock`] on a no-progress
    /// state, [`DesError::SourceAbort`] when the source flags a failure.
    pub fn step<T: Tracer>(
        &mut self,
        source: &mut dyn TbSource,
        tracer: &T,
    ) -> Result<StepOutcome, DesError> {
        match self.step_inner(source, tracer, None)? {
            BoundedOutcome::Progressed => Ok(StepOutcome::Progressed),
            BoundedOutcome::Finished => Ok(StepOutcome::Finished),
            // `step_inner` only blocks when a horizon is supplied.
            BoundedOutcome::Blocked => unreachable!("unbounded step never blocks"),
        }
    }

    /// Runs one iteration of the event loop, refusing to advance the clock
    /// to `horizon` or beyond.
    ///
    /// Placements at the current time always happen (they consume no
    /// simulated time); only the time-advance is bounded. A no-progress
    /// state is *not* an error here — local starvation is expected while a
    /// device waits on cross-device messages, so it surfaces as
    /// [`BoundedOutcome::Blocked`] and global-deadlock detection is the
    /// coordinator's job.
    ///
    /// # Errors
    ///
    /// [`DesError::SourceAbort`] and [`DesError::Cancelled`] exactly as
    /// [`step`](DesEngine::step); never [`DesError::Deadlock`].
    pub fn step_bounded<T: Tracer>(
        &mut self,
        source: &mut dyn TbSource,
        tracer: &T,
        horizon: u64,
    ) -> Result<BoundedOutcome, DesError> {
        self.step_inner(source, tracer, Some(horizon))
    }

    fn step_inner<T: Tracer>(
        &mut self,
        source: &mut dyn TbSource,
        tracer: &T,
        horizon: Option<u64>,
    ) -> Result<BoundedOutcome, DesError> {
        if source.aborted() {
            return Err(DesError::SourceAbort { cycle: self.now });
        }
        if let Some(cause) = self.cancel.as_ref().and_then(|t| t.fired()) {
            return Err(DesError::Cancelled {
                cycle: self.now,
                cause,
            });
        }
        // Placement phase: place as many ready TBs as resources allow.
        loop {
            let popped = {
                let sms = &self.sms;
                let fits = |threads: u32, shared: u32| {
                    sms.iter().any(|sm| {
                        sm.free_tbs >= 1 && sm.free_threads >= threads && sm.free_shared >= shared
                    })
                };
                source.pop_ready(self.now, &fits)
            };
            let Some(d) = popped else {
                break;
            };
            // Most-free-threads SM for load balance.
            let (si, _) = self
                .sms
                .iter()
                .enumerate()
                .filter(|(_, sm)| {
                    sm.free_tbs >= 1
                        && sm.free_threads >= d.threads
                        && sm.free_shared >= d.shared_bytes
                })
                .max_by_key(|(_, sm)| sm.free_threads)
                .expect("pop_ready must respect the fits predicate");
            self.sms[si].free_tbs -= 1;
            self.sms[si].free_threads -= d.threads;
            self.sms[si].free_shared -= d.shared_bytes;
            self.stats.concurrency_integral +=
                self.running as u128 * (self.now - self.last_t) as u128;
            self.last_t = self.now;
            self.running += 1;
            source.on_tb_start(d.key, self.now);
            self.heap
                .push(Reverse((self.now + d.duration.max(1), self.seq, si, d)));
            self.stats
                .schedule
                .push((d.key, self.now, self.now + d.duration.max(1)));
            self.seq += 1;
            self.resident[si] += 1;
            if T::ENABLED {
                tracer.emit(TraceEvent::SmOccupancy {
                    cycle: self.now,
                    sm: si as u32,
                    resident: self.resident[si],
                });
            }
        }
        if source.is_done() && self.heap.is_empty() {
            return Ok(BoundedOutcome::Finished);
        }
        // Advance to the next completion or external event.
        let next_completion = self.heap.peek().map(|Reverse((t, ..))| *t);
        let next_external = source.next_event_at(self.now).filter(|&t| t > self.now);
        let next = match (next_completion, next_external) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => {
                if horizon.is_some() {
                    // Bounded mode: waiting on the coordinator, not stuck.
                    return Ok(BoundedOutcome::Blocked);
                }
                if source.aborted() {
                    return Err(DesError::SourceAbort { cycle: self.now });
                }
                return Err(DesError::Deadlock(DeadlockSnapshot {
                    cycle: self.now,
                    tbs_executed: self.stats.tbs_executed,
                    resident: self.heap.iter().map(|Reverse((.., d))| d.key).collect(),
                    diagnostics: source.diagnostics(),
                }));
            }
        };
        if let Some(h) = horizon {
            if next >= h {
                return Ok(BoundedOutcome::Blocked);
            }
        }
        debug_assert!(next >= self.now, "time must not move backwards");
        self.stats.concurrency_integral += self.running as u128 * (next - self.last_t) as u128;
        self.last_t = next;
        self.now = next;
        // Pop all completions at `now`.
        while let Some(Reverse((t, ..))) = self.heap.peek() {
            if *t > self.now {
                break;
            }
            let Reverse((t_fin, _, si, d)) = self.heap.pop().unwrap();
            self.sms[si].free_tbs += 1;
            self.sms[si].free_threads += d.threads;
            self.sms[si].free_shared += d.shared_bytes;
            self.running -= 1;
            self.stats.tbs_executed += 1;
            self.resident[si] -= 1;
            if T::ENABLED {
                tracer.emit(TraceEvent::TbSpan {
                    id: TbId {
                        kernel: d.key.kernel_seq,
                        tb: d.key.tb,
                    },
                    sm: si as u32,
                    start: t_fin - d.duration.max(1),
                    finish: t_fin,
                });
                tracer.emit(TraceEvent::SmOccupancy {
                    cycle: t_fin,
                    sm: si as u32,
                    resident: self.resident[si],
                });
            }
            source.on_tb_complete(d.key, self.now);
        }
        source.on_time_advance(self.now);
        Ok(BoundedOutcome::Progressed)
    }
}

/// Runs the engine until the source reports completion.
///
/// # Panics
///
/// Panics if the source deadlocks: nothing is running, nothing is ready,
/// no future event exists, yet `is_done()` is false. That always indicates
/// a policy bug and is surfaced loudly. Use [`try_run`] to receive the
/// deadlock as a typed error with a diagnostic snapshot instead.
pub fn run(cfg: &GpuConfig, source: &mut dyn TbSource) -> DesStats {
    match try_run(cfg, source) {
        Ok(stats) => stats,
        Err(DesError::Deadlock(snap)) => {
            panic!(
                "DES deadlock at cycle {}: no running TBs, no events, not done\n{snap}",
                snap.cycle
            )
        }
        Err(e @ (DesError::SourceAbort { .. } | DesError::Cancelled { .. })) => panic!("{e}"),
    }
}

/// Runs the engine until the source reports completion, surfacing
/// no-progress states as [`DesError::Deadlock`] with a diagnostic snapshot
/// instead of panicking (the watchdog behind BlockMaestro's fault
/// tolerance: corrupted dependency metadata that strands a thread block
/// is reported, not looped on).
///
/// # Errors
///
/// [`DesError::Deadlock`] when no further progress is possible;
/// [`DesError::SourceAbort`] when the source signals an internal failure.
pub fn try_run(cfg: &GpuConfig, source: &mut dyn TbSource) -> Result<DesStats, DesError> {
    try_run_traced(cfg, source, &NullTracer)
}

/// [`try_run`] with a trace sink: emits a [`TraceEvent::TbSpan`] per
/// completed thread block and [`TraceEvent::SmOccupancy`] transitions on
/// every placement and completion. Tracing is pure observation — the
/// returned [`DesStats`] are bit-identical to an untraced run — and with
/// [`NullTracer`] every emission site folds away (`T::ENABLED` is a
/// constant `false`).
///
/// # Errors
///
/// Exactly as [`try_run`].
pub fn try_run_traced<T: Tracer>(
    cfg: &GpuConfig,
    source: &mut dyn TbSource,
    tracer: &T,
) -> Result<DesStats, DesError> {
    let mut engine = DesEngine::new(cfg);
    source.on_time_advance(0);
    loop {
        if engine.step(source, tracer)? == StepOutcome::Finished {
            return Ok(engine.finish());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A trivial source: a queue of TBs all ready at their release time.
    struct QueueSource {
        pending: VecDeque<(u64, TbDescriptor)>,
        outstanding: u32,
    }

    impl QueueSource {
        fn new(items: Vec<(u64, TbDescriptor)>) -> Self {
            QueueSource {
                outstanding: items.len() as u32,
                pending: items.into(),
            }
        }
    }

    impl TbSource for QueueSource {
        fn pop_ready(&mut self, now: u64, fits: &dyn Fn(u32, u32) -> bool) -> Option<TbDescriptor> {
            if let Some(&(t, d)) = self.pending.front() {
                if t <= now && fits(d.threads, d.shared_bytes) {
                    self.pending.pop_front();
                    return Some(d);
                }
            }
            None
        }

        fn on_tb_complete(&mut self, _key: TbKey, _now: u64) {
            self.outstanding -= 1;
        }

        fn next_event_at(&self, now: u64) -> Option<u64> {
            self.pending.front().map(|&(t, _)| t.max(now))
        }

        fn is_done(&self) -> bool {
            self.outstanding == 0 && self.pending.is_empty()
        }
    }

    fn desc(seq: u32, tb: u32, threads: u32, duration: u64) -> TbDescriptor {
        TbDescriptor {
            key: TbKey {
                kernel_seq: seq,
                tb,
            },
            threads,
            shared_bytes: 0,
            duration,
        }
    }

    #[test]
    fn serial_when_one_slot() {
        let mut cfg = GpuConfig::small();
        cfg.num_sms = 1;
        cfg.max_tbs_per_sm = 1;
        let mut src = QueueSource::new(vec![
            (0, desc(0, 0, 32, 100)),
            (0, desc(0, 1, 32, 100)),
            (0, desc(0, 2, 32, 100)),
        ]);
        let stats = run(&cfg, &mut src);
        assert_eq!(stats.total_cycles, 300);
        assert_eq!(stats.tbs_executed, 3);
        assert!((stats.avg_concurrency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_when_slots_available() {
        let cfg = GpuConfig::small(); // 4 SMs x 4 TBs
        let mut src = QueueSource::new((0..16).map(|i| (0, desc(0, i, 32, 100))).collect());
        let stats = run(&cfg, &mut src);
        assert_eq!(stats.total_cycles, 100);
        assert!((stats.avg_concurrency() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn release_times_respected() {
        let mut cfg = GpuConfig::small();
        cfg.num_sms = 1;
        cfg.max_tbs_per_sm = 4;
        let mut src = QueueSource::new(vec![(0, desc(0, 0, 32, 50)), (500, desc(1, 0, 32, 50))]);
        let stats = run(&cfg, &mut src);
        assert_eq!(stats.total_cycles, 550);
        // Idle gap shows up as low average concurrency.
        assert!(stats.avg_concurrency() < 0.5);
    }

    #[test]
    fn thread_capacity_limits_placement() {
        let mut cfg = GpuConfig::small();
        cfg.num_sms = 1;
        cfg.max_tbs_per_sm = 8;
        cfg.max_threads_per_sm = 512;
        // 4 blocks of 256 threads: only 2 fit at a time.
        let mut src = QueueSource::new((0..4).map(|i| (0, desc(0, i, 256, 100))).collect());
        let stats = run(&cfg, &mut src);
        assert_eq!(stats.total_cycles, 200);
    }

    #[test]
    fn schedule_records_start_and_finish() {
        let mut cfg = GpuConfig::small();
        cfg.num_sms = 1;
        cfg.max_tbs_per_sm = 1;
        let mut src = QueueSource::new(vec![(0, desc(0, 0, 32, 10)), (0, desc(0, 1, 32, 20))]);
        let stats = run(&cfg, &mut src);
        assert_eq!(stats.schedule.len(), 2);
        assert_eq!(stats.schedule[0].1, 0);
        assert_eq!(stats.schedule[0].2, 10);
        assert_eq!(stats.schedule[1].1, 10);
        assert_eq!(stats.schedule[1].2, 30);
    }

    /// A source that never becomes ready nor done: the canonical deadlock.
    struct Stuck {
        progressed: u32,
    }
    impl TbSource for Stuck {
        fn pop_ready(
            &mut self,
            _now: u64,
            _fits: &dyn Fn(u32, u32) -> bool,
        ) -> Option<TbDescriptor> {
            if self.progressed > 0 {
                self.progressed -= 1;
                return Some(desc(0, self.progressed, 32, 40));
            }
            None
        }
        fn on_tb_complete(&mut self, _key: TbKey, _now: u64) {}
        fn next_event_at(&self, _now: u64) -> Option<u64> {
            None
        }
        fn is_done(&self) -> bool {
            false
        }
        fn diagnostics(&self) -> Vec<String> {
            vec!["stuck source: 1 TB waiting on a counter that never zeroes".into()]
        }
    }

    #[test]
    #[should_panic(expected = "DES deadlock")]
    fn deadlock_panics() {
        run(&GpuConfig::small(), &mut Stuck { progressed: 0 });
    }

    #[test]
    fn watchdog_returns_typed_deadlock_with_snapshot() {
        let err = try_run(&GpuConfig::small(), &mut Stuck { progressed: 2 }).unwrap_err();
        let DesError::Deadlock(snap) = err else {
            panic!("expected deadlock, got {err}");
        };
        // The two TBs that did run are counted; progress stops after them.
        assert_eq!(snap.tbs_executed, 2);
        assert_eq!(snap.cycle, 40);
        assert!(snap.resident.is_empty());
        assert_eq!(snap.diagnostics.len(), 1);
        assert!(snap.to_string().contains("never zeroes"));
    }

    #[test]
    fn source_abort_stops_the_run() {
        struct Abort;
        impl TbSource for Abort {
            fn pop_ready(
                &mut self,
                _now: u64,
                _fits: &dyn Fn(u32, u32) -> bool,
            ) -> Option<TbDescriptor> {
                None
            }
            fn on_tb_complete(&mut self, _key: TbKey, _now: u64) {}
            fn next_event_at(&self, _now: u64) -> Option<u64> {
                None
            }
            fn is_done(&self) -> bool {
                false
            }
            fn aborted(&self) -> bool {
                true
            }
        }
        let err = try_run(&GpuConfig::small(), &mut Abort).unwrap_err();
        assert_eq!(err, DesError::SourceAbort { cycle: 0 });
    }

    #[test]
    fn traced_run_is_inert_and_emits_spans() {
        use bm_trace::RecordingTracer;
        let mut cfg = GpuConfig::small();
        cfg.num_sms = 2;
        cfg.max_tbs_per_sm = 2;
        let items: Vec<(u64, TbDescriptor)> = (0..6).map(|i| (0, desc(0, i, 32, 25))).collect();
        let tracer = RecordingTracer::new();
        let traced = try_run_traced(&cfg, &mut QueueSource::new(items.clone()), &tracer).unwrap();
        let untraced = try_run(&cfg, &mut QueueSource::new(items)).unwrap();
        assert_eq!(traced, untraced);
        let events = tracer.events();
        let spans = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::TbSpan { .. }))
            .count();
        assert_eq!(spans, 6);
        // Occupancy transitions: one per placement + one per completion.
        let occ = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::SmOccupancy { .. }))
            .count();
        assert_eq!(occ, 12);
        // Spans agree with the recorded schedule.
        for (key, start, finish) in &traced.schedule {
            assert!(events.iter().any(|e| matches!(
                e,
                TraceEvent::TbSpan { id, start: s, finish: f, .. }
                    if id.kernel == key.kernel_seq && id.tb == key.tb && s == start && f == finish
            )));
        }
    }

    #[test]
    fn checkpoint_midway_resumes_bit_identically() {
        let mut cfg = GpuConfig::small();
        cfg.num_sms = 2;
        cfg.max_tbs_per_sm = 2;
        let items: Vec<(u64, TbDescriptor)> = (0..10)
            .map(|i| (u64::from(i) * 7, desc(0, i, 32, 25 + u64::from(i % 3))))
            .collect();
        let reference = try_run(&cfg, &mut QueueSource::new(items.clone())).unwrap();
        // Run a few steps, snapshot, restore into a fresh engine, finish.
        // The source is re-wound by replaying the same number of steps on a
        // second copy (sources carry their own checkpointing upstream).
        for stop_after in [1usize, 3, 5] {
            let mut src = QueueSource::new(items.clone());
            let mut engine = DesEngine::new(&cfg);
            src.on_time_advance(0);
            for _ in 0..stop_after {
                assert_eq!(
                    engine.step(&mut src, &NullTracer).unwrap(),
                    StepOutcome::Progressed
                );
            }
            let ckpt = engine.checkpoint();
            assert_eq!(DesEngine::from_checkpoint(&ckpt).checkpoint(), ckpt);
            let mut resumed = DesEngine::from_checkpoint(&ckpt);
            loop {
                if resumed.step(&mut src, &NullTracer).unwrap() == StepOutcome::Finished {
                    break;
                }
            }
            assert_eq!(resumed.finish(), reference, "stop_after={stop_after}");
        }
    }

    #[test]
    fn bounded_stepping_matches_unbounded_run() {
        let mut cfg = GpuConfig::small();
        cfg.num_sms = 2;
        cfg.max_tbs_per_sm = 2;
        let items: Vec<(u64, TbDescriptor)> = (0..10)
            .map(|i| (u64::from(i) * 9, desc(0, i, 32, 20 + u64::from(i % 4))))
            .collect();
        let reference = try_run(&cfg, &mut QueueSource::new(items.clone())).unwrap();
        // Advance in fixed-size epochs: step until Blocked, then raise the
        // horizon. The composed run must be bit-identical to the unbounded
        // one, and a Blocked engine's clock must stay below the horizon.
        let mut src = QueueSource::new(items);
        let mut engine = DesEngine::new(&cfg);
        src.on_time_advance(0);
        let mut horizon = 7u64;
        let stats = loop {
            match engine.step_bounded(&mut src, &NullTracer, horizon).unwrap() {
                BoundedOutcome::Progressed => {
                    assert!(engine.now() < horizon);
                }
                BoundedOutcome::Blocked => {
                    assert!(engine.now() < horizon);
                    horizon += 7;
                }
                BoundedOutcome::Finished => break engine.finish(),
            }
        };
        assert_eq!(stats, reference);
    }

    #[test]
    fn bounded_step_reports_blocked_not_deadlock() {
        // A starved source is Blocked under a horizon, Deadlock without.
        let mut stuck = Stuck { progressed: 0 };
        let mut engine = DesEngine::new(&GpuConfig::small());
        assert_eq!(
            engine.step_bounded(&mut stuck, &NullTracer, 100).unwrap(),
            BoundedOutcome::Blocked
        );
        assert!(matches!(
            engine.step(&mut stuck, &NullTracer),
            Err(DesError::Deadlock(_))
        ));
    }

    #[test]
    fn try_run_matches_run_on_clean_sources() {
        let mut cfg = GpuConfig::small();
        cfg.num_sms = 1;
        cfg.max_tbs_per_sm = 1;
        let items: Vec<(u64, TbDescriptor)> = (0..5).map(|i| (0, desc(0, i, 32, 10))).collect();
        let a = try_run(&cfg, &mut QueueSource::new(items.clone())).unwrap();
        let b = run(&cfg, &mut QueueSource::new(items));
        assert_eq!(a, b);
    }
}
