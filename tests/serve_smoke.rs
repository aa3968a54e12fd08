//! Service smoke: 8 concurrent GAUSSIAN requests with one injected
//! worker crash and one deadline miss. Every request must terminate with
//! a correct typed outcome, and the crashed-then-retried run's report
//! must be bit-identical to an uninterrupted run. Mirrored by the CI
//! `serve-smoke` job, which drives the same scenario through the
//! `bmserve` binary's NDJSON interface.

use blockmaestro::{run, ExecMode, FaultPlan, RunSpec};
use bm_multi::MultiGpuConfig;
use bm_serve::{RunRequest, RunService, ServeConfig, ServeError, VirtualClock};
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::{suite, Scale};

#[test]
fn eight_concurrent_gaussians_with_a_crash_and_a_deadline_miss() {
    let bench = suite()
        .into_iter()
        .find(|b| b.name == "GAUSSIAN")
        .expect("GAUSSIAN in the Table II suite");
    let app = || (bench.build)(Scale::Small);
    let mode = ExecMode::ConsumerPriority { window: 3 };
    let reference = run(
        &GpuConfig::small(),
        &app(),
        &mut RunSpec {
            guard: true,
            ..RunSpec::new(mode)
        },
        &NullTracer,
    )
    .unwrap();

    let clock = VirtualClock::new();
    let scfg = ServeConfig {
        workers: 4,
        queue_depth: 16,
        ..ServeConfig::default()
    };
    let service = RunService::start(GpuConfig::small(), scfg, clock);

    const CRASH_ID: u64 = 3;
    const DEADLINE_ID: u64 = 5;
    let pendings: Vec<_> = (1..=8u64)
        .map(|id| {
            let mut req = RunRequest::new(id, app());
            req.mode = mode;
            if id == CRASH_ID {
                // Worker panic at an interior kernel boundary; the retry
                // resumes from the boundary checkpoint.
                req.fault = FaultPlan {
                    panic_at_kernel: Some(3),
                    ..FaultPlan::default()
                };
            }
            if id == DEADLINE_ID {
                // Virtual time never reaches tick 0 *before* submission,
                // so this deadline is already expired at admission.
                req.deadline = Some(0);
            }
            service.submit(req).expect("queue holds all eight")
        })
        .collect();

    let mut outcomes: Vec<_> = pendings.into_iter().map(|p| p.wait()).collect();
    outcomes.sort_by_key(|o| o.id);
    assert_eq!(outcomes.len(), 8, "every request terminates");

    for out in &outcomes {
        match out.id {
            DEADLINE_ID => {
                assert!(
                    matches!(out.result, Err(ServeError::DeadlineExceeded { .. })),
                    "request {} should miss its deadline, got {:?}",
                    out.id,
                    out.result
                );
            }
            CRASH_ID => {
                assert_eq!(out.attempts, 2, "one crash, one retry");
                assert_eq!(
                    out.result.as_ref().expect("retry recovers"),
                    &reference,
                    "retried report must be bit-identical to the uninterrupted run"
                );
            }
            _ => {
                assert_eq!(out.attempts, 1);
                assert_eq!(out.result.as_ref().expect("clean run"), &reference);
            }
        }
        assert!(!out.shed, "no breaker should trip in this scenario");
    }

    let counters = service.counters();
    assert_eq!(counters.counter("serve_outcome_ok"), 7);
    assert_eq!(counters.counter("serve_deadline_miss"), 1);
    assert_eq!(counters.counter("serve_outcome_deadline"), 1);
    assert_eq!(counters.counter("breaker_to_open"), 0);
    service.shutdown();
}

/// Multi-device placement: device groups are leased from the service's
/// pool, grouped requests run through `bm-multi` and return the same
/// report the direct multi entry point produces, and a group larger
/// than the pool is a typed `placement` rejection — even while smaller
/// placements succeed around it.
#[test]
fn device_groups_are_placed_leased_and_bounded() {
    let bench = suite()
        .into_iter()
        .find(|b| b.name == "HS")
        .expect("HS in the Table II suite");
    let app = || (bench.build)(Scale::Small);
    let mode = ExecMode::ConsumerPriority { window: 3 };
    let cfg = GpuConfig::small();
    let scfg = ServeConfig {
        workers: 3,
        total_devices: 4,
        ..ServeConfig::default()
    };
    let single = run(
        &cfg,
        &app(),
        &mut RunSpec {
            guard: true,
            ..RunSpec::new(mode)
        },
        &NullTracer,
    )
    .unwrap();
    let multi = bm_multi::run(
        &cfg,
        &MultiGpuConfig {
            devices: 2,
            ..scfg.multi.clone()
        },
        &app(),
        &mut RunSpec {
            guard: true,
            ..RunSpec::new(mode)
        },
        &NullTracer,
    )
    .unwrap();

    let service = RunService::start(cfg, scfg, VirtualClock::new());
    // Interleave: two 2-device groups (together they exactly fill the
    // pool), one single-device run, and one impossible 8-device ask.
    let pendings: Vec<_> = [(1u64, 2u32), (2, 2), (3, 1), (4, 8)]
        .into_iter()
        .map(|(id, devices)| {
            let mut req = RunRequest::new(id, app());
            req.mode = mode;
            req.devices = devices;
            service.submit(req).expect("queue holds all four")
        })
        .collect();
    let mut outcomes: Vec<_> = pendings.into_iter().map(|p| p.wait()).collect();
    outcomes.sort_by_key(|o| o.id);

    for out in &outcomes {
        match out.id {
            1 | 2 => {
                let report = out.result.as_ref().expect("2-device run succeeds");
                assert_eq!(
                    report, &multi,
                    "served group run matches direct bm-multi run"
                );
                assert_eq!(
                    report.multi.as_ref().map(|m| m.per_device.len()),
                    Some(2),
                    "report carries per-device stats"
                );
            }
            3 => {
                assert_eq!(out.result.as_ref().expect("single run succeeds"), &single);
            }
            4 => {
                assert_eq!(
                    out.result,
                    Err(ServeError::Placement {
                        requested: 8,
                        total: 4
                    }),
                    "impossible group is a typed rejection"
                );
                assert_eq!(out.attempts, 0, "rejected before any attempt");
                assert_eq!(out.label(), "placement");
            }
            _ => unreachable!(),
        }
    }
    service.shutdown();
}
