//! The run service: a bounded queue, crash-isolated worker threads, and a
//! deterministic control plane.
//!
//! One [`RunService`] owns N worker threads. [`RunService::submit`]
//! admits a request into a bounded queue (or rejects it with
//! [`ServeError::Overloaded`]); a worker pops it and drives one guarded
//! [`bm_multi::run`] on the request's device group, checkpointed when the
//! group is one device, with a per-request [`CancelToken`] threaded into
//! both the analysis ladder and every DES engine.
//!
//! Failure handling per attempt:
//!
//! - **cancel/deadline** — the token fired; the typed outcome carries the
//!   cause, and the final boundary checkpoint is left in the request's
//!   store (it is simply dropped with the request — the next *retry* of
//!   the same request would have resumed from it, but cancellation is
//!   terminal by design).
//! - **transient** (simulated crash [`EngineError::Killed`], guard
//!   quarantine exhaustion [`BmError::Unrecoverable`], worker panic) —
//!   retried after a deterministic capped-exponential backoff, resuming
//!   from the last valid snapshot; injected faults only apply to the
//!   first attempt.
//! - **permanent** (structural/toolchain errors) — surfaced immediately.
//!
//! Worker panics are contained with `catch_unwind`: the panicked
//! attempt's engine state unwinds and is disposed; only the checkpoint
//! store (the latest whole snapshot, saved at a boundary) survives into
//! the retry, so a crashed-then-retried request is bit-identical to an
//! uninterrupted one. Nothing request-scoped outlives the request, so a
//! reused worker cannot leak state across requests.

use crate::breaker::{Admission, Breaker, BreakerConfig, Transition};
use crate::clock::ServiceClock;
use crate::error::ServeError;
use crate::retry::RetryPolicy;
use blockmaestro::ExecMode;
use blockmaestro::{
    app_fingerprint, AnalysisBudget, BmError, CheckpointPolicy, CheckpointSession, EngineError,
    FaultPlan, RunReport, RunSpec, SnapshotError, SnapshotStore,
};
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_multi::MultiGpuConfig;
use bm_ptx::cancel::{CancelCause, CancelToken};
use bm_ptx::PtxError;
use bm_simt::GpuConfig;
use bm_trace::{CounterRegistry, NullTracer, TraceEvent};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A request's checkpoint store: retries resume from the latest snapshot
/// and nothing older is ever loaded, so only the latest is kept.
#[derive(Default)]
struct LatestStore(Option<Vec<u8>>);

impl SnapshotStore for LatestStore {
    fn save(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let latest = self.0.get_or_insert_with(Vec::new);
        latest.clear();
        latest.extend_from_slice(bytes);
        Ok(())
    }

    fn load(&mut self) -> Result<Option<Vec<u8>>, SnapshotError> {
        Ok(self.0.clone())
    }
}

/// Service-level tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads.
    pub workers: usize,
    /// Maximum queued (admitted but not started) requests; submits beyond
    /// this are rejected with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Default retry policy (per-request override via
    /// [`RunRequest::max_retries`]).
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// When an app's breaker is open: `true` runs the request on the fast
    /// fully-connected-barrier fallback ([`AnalysisBudget::exhausted`]),
    /// `false` rejects it with [`ServeError::Overloaded`].
    pub shed_to_barrier: bool,
    /// Kernel-retirement boundaries between checkpoints (resume granularity
    /// for retries).
    pub checkpoint_every: u32,
    /// Simulated devices the service owns. A request's
    /// [`RunRequest::devices`] group is placed onto this pool: the
    /// worker blocks until the whole group is free, and a request
    /// asking for more than the pool holds is rejected with
    /// [`ServeError::Placement`].
    pub total_devices: u32,
    /// Interconnect tuning for multi-device placements; the per-request
    /// [`RunRequest::devices`] count overrides this template's
    /// `devices` field.
    pub multi: MultiGpuConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            shed_to_barrier: true,
            checkpoint_every: 1,
            total_devices: 4,
            multi: MultiGpuConfig::default(),
        }
    }
}

/// One app-run request.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Caller-chosen id, echoed on the outcome and trace events.
    pub id: u64,
    /// The application to run.
    pub app: Application,
    /// Execution mode.
    pub mode: ExecMode,
    /// Hazard model for the launch-time analysis.
    pub hazard: HazardMode,
    /// Simulated devices to place the run on (min 1). Groups larger
    /// than 1 execute through `bm-multi`'s TB-grain sharding; every
    /// request holds its whole group for the duration of the run.
    pub devices: u32,
    /// Absolute service-clock tick after which the run is expired.
    pub deadline: Option<u64>,
    /// Override of [`ServeConfig::retry`]'s `max_retries`.
    pub max_retries: Option<u32>,
    /// Fault injection for tests (kill/panic/cancel at a boundary);
    /// applied to the first attempt only.
    pub fault: FaultPlan,
}

impl RunRequest {
    /// A request with the serve defaults: consumer-priority window 3,
    /// RAW hazards, no deadline, config-default retries, no faults.
    pub fn new(id: u64, app: Application) -> Self {
        RunRequest {
            id,
            app,
            mode: ExecMode::ConsumerPriority { window: 3 },
            hazard: HazardMode::Raw,
            devices: 1,
            deadline: None,
            max_retries: None,
            fault: FaultPlan::default(),
        }
    }
}

/// Terminal result of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The request's id.
    pub id: u64,
    /// Attempts consumed (0 for requests refused at admission).
    pub attempts: u32,
    /// The run was shed to the barrier fallback by an open breaker.
    pub shed: bool,
    /// The report, or the typed failure.
    pub result: Result<RunReport, ServeError>,
}

impl RunOutcome {
    /// Stable outcome label (`ok`, `shed`, or the error's label).
    pub fn label(&self) -> &'static str {
        match &self.result {
            Ok(_) if self.shed => "shed",
            Ok(_) => "ok",
            Err(e) => e.label(),
        }
    }
}

/// A submitted request's handle: wait for the outcome, or cancel it.
#[derive(Debug)]
pub struct Pending {
    /// The request's id.
    pub id: u64,
    token: CancelToken,
    rx: mpsc::Receiver<RunOutcome>,
}

impl Pending {
    /// Block until the request terminates.
    pub fn wait(self) -> RunOutcome {
        self.rx.recv().unwrap_or(RunOutcome {
            id: self.id,
            attempts: 0,
            shed: false,
            result: Err(ServeError::Shutdown),
        })
    }

    /// Cooperatively cancel the request (first cause wins — a deadline
    /// that already fired is not overridden).
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// This request's cancellation token (for external deadline wiring).
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }
}

struct Job {
    req: RunRequest,
    token: CancelToken,
    tx: mpsc::Sender<RunOutcome>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// The service's simulated device inventory. A worker blocks until its
/// request's whole device group is free; the grant is a lease guard, so
/// a panicking attempt (contained by `catch_unwind` in [`process`]) can
/// never leak devices — the lease drops with the stack frame that
/// holds it.
struct DevicePool {
    free: Mutex<u32>,
    freed: Condvar,
}

impl DevicePool {
    fn new(total: u32) -> Self {
        DevicePool {
            free: Mutex::new(total),
            freed: Condvar::new(),
        }
    }

    /// Block until `n` devices are free, then take the whole group.
    /// Callers must have checked `n` against the pool total — asking
    /// for more than exists would block forever.
    fn acquire(&self, n: u32) -> DeviceLease<'_> {
        let mut free = self.free.lock().unwrap();
        while *free < n {
            free = self.freed.wait(free).unwrap();
        }
        *free -= n;
        DeviceLease { pool: self, n }
    }
}

struct DeviceLease<'a> {
    pool: &'a DevicePool,
    n: u32,
}

impl Drop for DeviceLease<'_> {
    fn drop(&mut self) {
        *self.pool.free.lock().unwrap() += self.n;
        self.pool.freed.notify_all();
    }
}

struct Shared {
    cfg: GpuConfig,
    scfg: ServeConfig,
    clock: Arc<dyn ServiceClock>,
    queue: Mutex<QueueState>,
    available: Condvar,
    breaker: Mutex<Breaker>,
    pool: DevicePool,
    events: Mutex<Vec<TraceEvent>>,
}

impl Shared {
    fn emit(&self, ev: TraceEvent) {
        self.events.lock().unwrap().push(ev);
    }

    fn emit_transition(&self, app_fp: u64, tr: Option<Transition>) {
        if let Some((from, to)) = tr {
            self.emit(TraceEvent::BreakerTransition {
                tick: self.clock.now(),
                app_fp,
                from: from.label().into(),
                to: to.label().into(),
            });
        }
    }
}

/// The multi-worker run service.
pub struct RunService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl RunService {
    /// Start `scfg.workers` workers simulating on `cfg` hardware, timed
    /// by `clock`.
    pub fn start(cfg: GpuConfig, scfg: ServeConfig, clock: Arc<dyn ServiceClock>) -> Self {
        let total_devices = scfg.total_devices.max(1);
        let shared = Arc::new(Shared {
            cfg,
            scfg,
            clock,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            breaker: Mutex::new(Breaker::new(BreakerConfig::default())),
            pool: DevicePool::new(total_devices),
            events: Mutex::new(Vec::new()),
        });
        // Re-seed the breaker with the configured tuning (constructed
        // above with defaults to keep Shared initialization simple).
        *shared.breaker.lock().unwrap() = Breaker::new(shared.scfg.breaker);
        let workers = (0..shared.scfg.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, w as u32))
            })
            .collect();
        RunService { shared, workers }
    }

    /// Admit a request. Returns the pending handle, or
    /// [`ServeError::Overloaded`] when the queue is full /
    /// [`ServeError::Shutdown`] when the service is stopping.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`], [`ServeError::Shutdown`].
    pub fn submit(&self, req: RunRequest) -> Result<Pending, ServeError> {
        let shared = &self.shared;
        let token = CancelToken::new();
        let (tx, rx) = mpsc::channel();
        {
            let mut q = shared.queue.lock().unwrap();
            if q.shutdown {
                return Err(ServeError::Shutdown);
            }
            if q.jobs.len() >= shared.scfg.queue_depth {
                return Err(ServeError::Overloaded {
                    reason: format!("queue full ({} pending)", q.jobs.len()),
                });
            }
            if let Some(deadline) = req.deadline {
                shared.clock.expire_at(deadline, token.clone());
            }
            shared.emit(TraceEvent::ServeAdmit {
                tick: shared.clock.now(),
                request: req.id,
                queued: q.jobs.len() as u32 + 1,
            });
            let id = req.id;
            q.jobs.push_back(Job {
                req,
                token: token.clone(),
                tx,
            });
            shared.available.notify_one();
            drop(q);
            Ok(Pending { id, token, rx })
        }
    }

    /// Every serve-layer trace event emitted so far, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.shared.events.lock().unwrap().clone()
    }

    /// Fold the serve-layer events into a fresh counter registry.
    pub fn counters(&self) -> CounterRegistry {
        let mut reg = CounterRegistry::new();
        for ev in self.shared.events.lock().unwrap().iter() {
            reg.fold(ev);
        }
        reg
    }

    /// Stop accepting work, drain queued jobs as [`ServeError::Shutdown`],
    /// and join the workers.
    pub fn shutdown(mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
            for job in q.jobs.drain(..) {
                let _ = job.tx.send(RunOutcome {
                    id: job.req.id,
                    attempts: 0,
                    shed: false,
                    result: Err(ServeError::Shutdown),
                });
            }
            self.shared.available.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, worker: u32) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.available.wait(q).unwrap();
            }
        };
        let outcome = process(shared, worker, &job);
        shared.emit(TraceEvent::ServeComplete {
            tick: shared.clock.now(),
            request: job.req.id,
            outcome: outcome.label().into(),
        });
        let _ = job.tx.send(outcome);
    }
}

/// How one attempt's failure steers the retry loop.
enum AttemptFailure {
    Cancelled(CancelCause),
    Transient(String),
    Permanent(String),
}

fn classify(err: &BmError) -> AttemptFailure {
    match err {
        BmError::Engine(EngineError::Cancelled { cause, .. })
        | BmError::Ptx(PtxError::Cancelled(cause)) => AttemptFailure::Cancelled(*cause),
        // A simulated crash at a boundary: the checkpoint is durable,
        // resume and carry on.
        BmError::Engine(EngineError::Killed { .. }) => AttemptFailure::Transient(err.to_string()),
        // Quarantine exhaustion: the guard burned all its rounds. Another
        // attempt resumes from the checkpointed round counter rather than
        // replaying from scratch.
        BmError::Unrecoverable { .. } => AttemptFailure::Transient(err.to_string()),
        // Structural and toolchain failures are facts about the request.
        BmError::Ptx(_) | BmError::Cmdq(_) | BmError::Engine(_) | BmError::Unsupported(_) => {
            AttemptFailure::Permanent(err.to_string())
        }
    }
}

fn cancel_outcome(shared: &Shared, job: &Job, attempts: u32, cause: CancelCause) -> RunOutcome {
    let tick = shared.clock.now();
    shared.emit(TraceEvent::ServeCancel {
        tick,
        request: job.req.id,
        deadline: cause == CancelCause::DeadlineExceeded,
    });
    let err = match cause {
        CancelCause::Cancelled => ServeError::Cancelled { tick },
        CancelCause::DeadlineExceeded => ServeError::DeadlineExceeded { tick },
    };
    RunOutcome {
        id: job.req.id,
        attempts,
        shed: false,
        result: Err(err),
    }
}

fn process(shared: &Shared, worker: u32, job: &Job) -> RunOutcome {
    let req = &job.req;
    let app_fp = app_fingerprint(&req.app);

    // Placement: the request's device group must fit the pool at all —
    // an impossible group is a typed rejection, not a queue wait — and
    // a possible one is held for the whole request (every attempt,
    // including the shed fallback) so concurrent placements can never
    // oversubscribe the simulated hardware.
    let group = req.devices.max(1);
    let total = shared.scfg.total_devices.max(1);
    if group > total {
        return RunOutcome {
            id: req.id,
            attempts: 0,
            shed: false,
            result: Err(ServeError::Placement {
                requested: group,
                total,
            }),
        };
    }
    let _lease = shared.pool.acquire(group);

    // Admission through the app's circuit breaker.
    let (admission, tr) = {
        let mut breaker = shared.breaker.lock().unwrap();
        breaker.admit(app_fp, shared.clock.now())
    };
    shared.emit_transition(app_fp, tr);
    let probing = admission == Admission::Probe;
    if admission == Admission::Shed {
        if !shared.scfg.shed_to_barrier {
            return RunOutcome {
                id: req.id,
                attempts: 0,
                shed: false,
                result: Err(ServeError::Overloaded {
                    reason: "circuit breaker open".into(),
                }),
            };
        }
        // Fast fallback: every kernel on the fully-connected-barrier rung.
        // Deliberately outside the breaker's bookkeeping — shed runs probe
        // nothing about the full pipeline's health.
        shared.emit(TraceEvent::ServeStart {
            tick: shared.clock.now(),
            request: req.id,
            worker,
            attempt: 1,
        });
        let mut spec = RunSpec {
            hazard: req.hazard,
            guard: true,
            budget: AnalysisBudget::exhausted(),
            ..RunSpec::new(req.mode)
        };
        let result =
            blockmaestro::run(&shared.cfg, &req.app, &mut spec, &NullTracer).map_err(|e| {
                ServeError::Failed {
                    attempts: 1,
                    error: e.to_string(),
                }
            });
        return RunOutcome {
            id: req.id,
            attempts: 1,
            shed: true,
            result,
        };
    }

    // Fast-path: the token fired while queued (deadline or client cancel).
    if let Some(cause) = job.token.fired() {
        return cancel_outcome(shared, job, 0, cause);
    }

    let policy = CheckpointPolicy::every_kernels(shared.scfg.checkpoint_every.max(1));
    let mcfg = MultiGpuConfig {
        devices: group,
        ..shared.scfg.multi.clone()
    };
    let max_attempts = 1 + req.max_retries.unwrap_or(shared.scfg.retry.max_retries);
    // Request-scoped: dropped with the request, so nothing leaks into the
    // worker's next job.
    let mut store = LatestStore::default();
    let mut attempt = 0u32;
    let outcome = loop {
        attempt += 1;
        shared.emit(TraceEvent::ServeStart {
            tick: shared.clock.now(),
            request: req.id,
            worker,
            attempt,
        });
        // Injected faults fire on the first attempt only: a kill/panic
        // plan keyed to a boundary would otherwise re-fire on every
        // resume and the retry ladder could never converge.
        let fault = if attempt == 1 {
            req.fault.clone()
        } else {
            FaultPlan::default()
        };
        let mut spec = RunSpec {
            hazard: req.hazard,
            guard: true,
            fault,
            cancel: Some(job.token.clone()),
            ..RunSpec::new(req.mode)
        };
        // Multi-device placements run through bm-multi's TB-grain
        // sharding, which has no resumable checkpoint form: a retried
        // attempt replays from scratch (still bit-identical — the
        // pipeline is deterministic). Of the fault plan only the link
        // fields apply; a link fault degrades inside the run to a single
        // device rather than failing the attempt.
        if group == 1 {
            spec.checkpoint = CheckpointSession {
                policy,
                store: Some(&mut store),
                resume_latest: attempt > 1,
                ..CheckpointSession::disabled()
            };
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            bm_multi::run(&shared.cfg, &mcfg, &req.app, &mut spec, &NullTracer)
        }));
        let failure = match run {
            Ok(Ok(report)) => {
                break RunOutcome {
                    id: req.id,
                    attempts: attempt,
                    shed: false,
                    result: Ok(report),
                }
            }
            Ok(Err(e)) => classify(&e),
            Err(payload) => AttemptFailure::Transient(format!(
                "worker panic: {}",
                panic_message(payload.as_ref())
            )),
        };
        match failure {
            AttemptFailure::Cancelled(cause) => {
                break cancel_outcome(shared, job, attempt, cause);
            }
            AttemptFailure::Permanent(error) => {
                break RunOutcome {
                    id: req.id,
                    attempts: attempt,
                    shed: false,
                    result: Err(ServeError::Failed {
                        attempts: attempt,
                        error,
                    }),
                };
            }
            AttemptFailure::Transient(reason) => {
                if attempt >= max_attempts {
                    let err = if reason.starts_with("worker panic") {
                        ServeError::WorkerCrash {
                            attempts: attempt,
                            message: reason,
                        }
                    } else {
                        ServeError::RetriesExhausted {
                            attempts: attempt,
                            last: reason,
                        }
                    };
                    break RunOutcome {
                        id: req.id,
                        attempts: attempt,
                        shed: false,
                        result: Err(err),
                    };
                }
                let backoff = shared.scfg.retry.backoff(attempt - 1);
                let now = shared.clock.now();
                shared.emit(TraceEvent::ServeRetry {
                    tick: now,
                    request: req.id,
                    attempt,
                    backoff,
                    reason,
                });
                shared.clock.sleep_until(now.saturating_add(backoff));
                // The deadline may have passed during the backoff.
                if let Some(cause) = job.token.fired() {
                    break cancel_outcome(shared, job, attempt, cause);
                }
            }
        }
    };

    // Feed the breaker. Cancellations and deadline misses say nothing
    // about the app's health and are not recorded.
    let record = match &outcome.result {
        Ok(_) => Some(true),
        Err(
            ServeError::WorkerCrash { .. }
            | ServeError::RetriesExhausted { .. }
            | ServeError::Failed { .. },
        ) => Some(false),
        Err(_) => None,
    };
    if let Some(success) = record {
        let tr = {
            let mut breaker = shared.breaker.lock().unwrap();
            breaker.record(app_fp, success, shared.clock.now())
        };
        shared.emit_transition(app_fp, tr);
    } else if probing {
        // A cancelled probe neither opens nor closes the breaker; give
        // the probe slot back so the next request can probe.
        shared.breaker.lock().unwrap().abandon_probe(app_fp);
    }
    outcome
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
