//! End-to-end service behavior under the virtual clock: every timeline
//! below — retries, backoffs, deadlines, breaker trips — is a
//! deterministic function of the submitted request stream.

use blockmaestro::{try_run_app, ExecMode, FaultPlan, RunReport};
use bm_cmdq::{ApiCall, Application};
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::parser::parse_kernel;
use bm_serve::{
    BreakerConfig, RetryPolicy, RunOutcome, RunRequest, RunService, ServeConfig, ServeError,
    ServiceClock, VirtualClock,
};
use bm_simt::GpuConfig;
use std::collections::HashMap;
use std::sync::Arc;

/// A small RAW chain (4 dependent kernels, 8 TBs x 64 threads) — cheap
/// enough to run dozens of times, deep enough to have interior
/// kernel-retirement boundaries for fault injection.
fn chain_app() -> Application {
    let tbs = 8u32;
    let n = tbs as u64 * 64;
    let mut space = AddressSpace::new();
    let allocs: Vec<_> = (0..5).map(|_| space.alloc(4 * n)).collect();
    let k = Arc::new(
        parse_kernel(
            r#".entry link(.param .u64 SRC, .param .u64 DST) {
                 ld.param.u64 %rd1, [SRC];
                 ld.param.u64 %rd2, [DST];
                 mov.u32 %r1, %ctaid.x;
                 mov.u32 %r2, %ntid.x;
                 mov.u32 %r3, %tid.x;
                 mad.lo.u32 %r4, %r1, %r2, %r3;
                 mul.wide.u32 %rd3, %r4, 4;
                 add.u64 %rd4, %rd1, %rd3;
                 ld.global.f32 %f1, [%rd4];
                 mul.f32 %f2, %f1, 0f40000000;
                 add.u64 %rd5, %rd2, %rd3;
                 st.global.f32 [%rd5], %f2;
                 ret;
               }"#,
        )
        .unwrap(),
    );
    let mut host_data = HashMap::new();
    host_data.insert(
        allocs[0].id,
        (0..n).map(|i| i as f32 * 0.25).collect::<Vec<_>>(),
    );
    let mut calls = vec![ApiCall::MemcpyH2D {
        alloc: allocs[0].id,
        bytes: 4 * n,
    }];
    calls.extend((0..4).map(|i| {
        ApiCall::KernelLaunch(Launch::new(
            k.clone(),
            Dim3::x(tbs),
            Dim3::x(64),
            vec![
                ArgValue::Ptr(allocs[i].base),
                ArgValue::Ptr(allocs[i + 1].base),
            ],
        ))
    }));
    Application {
        name: "serve-chain".into(),
        space,
        calls,
        host_data,
    }
}

fn reference() -> RunReport {
    try_run_app(
        &GpuConfig::small(),
        &chain_app(),
        ExecMode::ConsumerPriority { window: 3 },
    )
    .unwrap()
}

fn one_worker() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

fn submit_and_wait(service: &RunService, req: RunRequest) -> RunOutcome {
    service.submit(req).expect("admitted").wait()
}

#[test]
fn clean_request_matches_a_direct_run() {
    let clock = VirtualClock::new();
    let service = RunService::start(GpuConfig::small(), one_worker(), clock);
    let out = submit_and_wait(&service, RunRequest::new(1, chain_app()));
    assert_eq!(out.attempts, 1);
    assert!(!out.shed);
    assert_eq!(out.result.as_ref().unwrap(), &reference());
    let kinds: Vec<_> = service.events().iter().map(|e| e.kind()).collect();
    assert_eq!(kinds, vec!["serve_admit", "serve_start", "serve_complete"]);
    let counters = service.counters();
    assert_eq!(counters.counter("serve_outcome_ok"), 1);
    service.shutdown();
}

#[test]
fn injected_kill_retries_on_a_deterministic_backoff_timeline() {
    let clock = VirtualClock::new();
    let service = RunService::start(GpuConfig::small(), one_worker(), Arc::clone(&clock) as _);
    let mut req = RunRequest::new(7, chain_app());
    req.fault = FaultPlan {
        kill_at_kernel: Some(2),
        ..FaultPlan::default()
    };
    let out = submit_and_wait(&service, req);
    assert_eq!(out.attempts, 2, "one kill, one resumed retry");
    assert_eq!(
        out.result.as_ref().unwrap(),
        &reference(),
        "retried run must be bit-identical to an uninterrupted one"
    );
    // The timeline is exact under the virtual clock: admit and first
    // attempt at tick 0, retry scheduled at tick 0 with the base backoff,
    // second attempt at tick 16 after the sleeper drags the clock.
    use bm_trace::TraceEvent as E;
    let events = service.events();
    let starts: Vec<(u64, u32)> = events
        .iter()
        .filter_map(|e| match e {
            E::ServeStart { tick, attempt, .. } => Some((*tick, *attempt)),
            _ => None,
        })
        .collect();
    assert_eq!(starts, vec![(0, 1), (16, 2)]);
    let retries: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            E::ServeRetry { tick, backoff, .. } => Some((*tick, *backoff)),
            _ => None,
        })
        .collect();
    assert_eq!(retries, vec![(0, RetryPolicy::default().base_backoff)]);
    assert_eq!(clock.now(), 16);
    service.shutdown();
}

#[test]
fn injected_panic_is_contained_and_the_retry_is_bit_identical() {
    let clock = VirtualClock::new();
    let service = RunService::start(GpuConfig::small(), one_worker(), clock);
    let mut req = RunRequest::new(2, chain_app());
    req.fault = FaultPlan {
        panic_at_kernel: Some(2),
        ..FaultPlan::default()
    };
    let out = submit_and_wait(&service, req);
    assert_eq!(out.attempts, 2);
    assert_eq!(out.result.as_ref().unwrap(), &reference());
    // Worker reuse after the panic: a clean request on the same (sole)
    // worker must see no leaked state.
    let clean = submit_and_wait(&service, RunRequest::new(3, chain_app()));
    assert_eq!(clean.attempts, 1);
    assert_eq!(clean.result.as_ref().unwrap(), &reference());
    service.shutdown();
}

#[test]
fn exhausted_retries_surface_the_worker_crash() {
    let clock = VirtualClock::new();
    let scfg = ServeConfig {
        workers: 1,
        retry: RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
        ..ServeConfig::default()
    };
    let service = RunService::start(GpuConfig::small(), scfg, clock);
    let mut req = RunRequest::new(4, chain_app());
    req.fault = FaultPlan {
        panic_at_kernel: Some(2),
        ..FaultPlan::default()
    };
    let out = submit_and_wait(&service, req);
    match out.result {
        Err(ServeError::WorkerCrash { attempts, message }) => {
            assert_eq!(attempts, 1);
            assert!(message.contains("injected worker panic"), "{message}");
        }
        other => panic!("expected WorkerCrash, got {other:?}"),
    }
    service.shutdown();
}

#[test]
fn past_deadline_yields_a_typed_miss_without_running() {
    let clock = VirtualClock::new();
    clock.advance(100);
    let service = RunService::start(GpuConfig::small(), one_worker(), Arc::clone(&clock) as _);
    let mut req = RunRequest::new(5, chain_app());
    req.deadline = Some(50); // already past
    let out = submit_and_wait(&service, req);
    assert_eq!(out.attempts, 0, "expired before any attempt started");
    assert_eq!(out.result, Err(ServeError::DeadlineExceeded { tick: 100 }));
    use bm_trace::TraceEvent as E;
    assert!(service
        .events()
        .iter()
        .any(|e| matches!(e, E::ServeCancel { deadline: true, .. })));
    assert_eq!(service.counters().counter("serve_deadline_miss"), 1);
    service.shutdown();
}

#[test]
fn deadline_inside_the_backoff_window_cuts_the_retry_short() {
    let clock = VirtualClock::new();
    let service = RunService::start(GpuConfig::small(), one_worker(), clock);
    let mut req = RunRequest::new(6, chain_app());
    req.fault = FaultPlan {
        kill_at_kernel: Some(2),
        ..FaultPlan::default()
    };
    // The kill fires at virtual tick 0; the retry backs off to tick 16;
    // the deadline at tick 10 fires inside that window.
    req.deadline = Some(10);
    let out = submit_and_wait(&service, req);
    assert_eq!(out.attempts, 1, "the retry was never started");
    assert_eq!(out.result, Err(ServeError::DeadlineExceeded { tick: 16 }));
    service.shutdown();
}

#[test]
fn injected_cancel_surfaces_as_a_typed_cancellation() {
    let clock = VirtualClock::new();
    let service = RunService::start(GpuConfig::small(), one_worker(), clock);
    let mut req = RunRequest::new(8, chain_app());
    req.fault = FaultPlan {
        cancel_at_kernel: Some(2),
        ..FaultPlan::default()
    };
    let out = submit_and_wait(&service, req);
    assert_eq!(out.result, Err(ServeError::Cancelled { tick: 0 }));
    use bm_trace::TraceEvent as E;
    assert!(service.events().iter().any(|e| matches!(
        e,
        E::ServeCancel {
            deadline: false,
            ..
        }
    )));
    assert_eq!(service.counters().counter("serve_explicit_cancel"), 1);
    service.shutdown();
}

#[test]
fn zero_depth_queue_rejects_with_overloaded() {
    let clock = VirtualClock::new();
    let scfg = ServeConfig {
        workers: 1,
        queue_depth: 0,
        ..ServeConfig::default()
    };
    let service = RunService::start(GpuConfig::small(), scfg, clock);
    match service.submit(RunRequest::new(9, chain_app())) {
        Err(ServeError::Overloaded { reason }) => assert!(reason.contains("queue full")),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    service.shutdown();
}

/// The full breaker arc, closed → open → (shed) → half-open → closed,
/// on one worker so the transition order is exact.
#[test]
fn breaker_opens_sheds_probes_and_recloses() {
    let clock = VirtualClock::new();
    let scfg = ServeConfig {
        workers: 1,
        retry: RetryPolicy {
            max_retries: 0,
            base_backoff: 4,
            max_backoff: 4,
        },
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: 100,
        },
        shed_to_barrier: true,
        ..ServeConfig::default()
    };
    let service = RunService::start(GpuConfig::small(), scfg, Arc::clone(&clock) as _);
    let crash = |id: u64| {
        let mut req = RunRequest::new(id, chain_app());
        req.fault = FaultPlan {
            panic_at_kernel: Some(2),
            ..FaultPlan::default()
        };
        req
    };
    // Two consecutive crashes trip the breaker.
    assert!(matches!(
        submit_and_wait(&service, crash(1)).result,
        Err(ServeError::WorkerCrash { .. })
    ));
    assert!(matches!(
        submit_and_wait(&service, crash(2)).result,
        Err(ServeError::WorkerCrash { .. })
    ));
    // Open: the next request is shed to the barrier fallback, which still
    // returns a *report* (degraded), not an error.
    let shed = submit_and_wait(&service, RunRequest::new(3, chain_app()));
    assert!(shed.shed);
    let report = shed.result.expect("shed run completes");
    assert!(report
        .degradation
        .iter()
        .all(|(_, d)| d.rung >= blockmaestro::DegradationRung::Barrier));
    // Cooldown elapses: the next request probes, succeeds, and recloses.
    clock.advance(200);
    let probe = submit_and_wait(&service, RunRequest::new(4, chain_app()));
    assert!(!probe.shed);
    assert_eq!(probe.result.as_ref().unwrap(), &reference());
    let counters = service.counters();
    assert_eq!(counters.counter("breaker_to_open"), 1);
    assert_eq!(counters.counter("breaker_to_half_open"), 1);
    assert_eq!(counters.counter("breaker_to_closed"), 1);
    assert_eq!(counters.counter("serve_outcome_shed"), 1);
    service.shutdown();
}

#[test]
fn open_breaker_rejects_when_shedding_is_disabled() {
    let clock = VirtualClock::new();
    let scfg = ServeConfig {
        workers: 1,
        retry: RetryPolicy {
            max_retries: 0,
            base_backoff: 1,
            max_backoff: 1,
        },
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown: 100,
        },
        shed_to_barrier: false,
        ..ServeConfig::default()
    };
    let service = RunService::start(GpuConfig::small(), scfg, clock);
    let mut req = RunRequest::new(1, chain_app());
    req.fault = FaultPlan {
        panic_at_kernel: Some(2),
        ..FaultPlan::default()
    };
    let _ = submit_and_wait(&service, req);
    let out = submit_and_wait(&service, RunRequest::new(2, chain_app()));
    assert_eq!(
        out.result,
        Err(ServeError::Overloaded {
            reason: "circuit breaker open".into()
        })
    );
    assert_eq!(out.attempts, 0);
    service.shutdown();
}

#[test]
fn shutdown_drains_and_joins() {
    let clock = VirtualClock::new();
    let service = RunService::start(GpuConfig::small(), one_worker(), clock);
    let out = submit_and_wait(&service, RunRequest::new(1, chain_app()));
    assert!(out.result.is_ok());
    service.shutdown(); // must not hang
}
