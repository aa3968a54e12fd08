//! The tracing subsystem's determinism contract (DESIGN.md §9).
//!
//! Two halves:
//!
//! 1. **Inertness** — attaching a recording tracer must not change the
//!    simulation. Traced and untraced runs of every [`ExecMode`] produce
//!    bit-identical [`RunReport`]s, through both the raw engine entry and
//!    the guarded pipeline.
//! 2. **Reproducibility** — two traced runs of the same application emit
//!    identical event streams, counters, and Chrome-trace exports. The
//!    subsystem stamps events with virtual clocks only (cycles, analysis
//!    ticks, queue positions), so there is no wall-clock jitter to leak.

mod common;

use blockmaestro::{run, ExecMode, RunReport, RunSpec};
use bm_depgraph::HazardMode;
use bm_simt::GpuConfig;
use bm_testkit::Rng;
use bm_trace::{export_chrome_trace, NullTracer, RecordingTracer, TraceEvent};
use common::{build_random_app, gen_spec};

fn all_modes() -> Vec<ExecMode> {
    vec![
        ExecMode::Baseline,
        ExecMode::IdealBaseline,
        ExecMode::GraphLaunch,
        ExecMode::PreLaunch { window: 3 },
        ExecMode::ProducerPriority { window: 3 },
        ExecMode::ConsumerPriority { window: 3 },
    ]
}

fn random_app(seed: u64) -> bm_cmdq::Application {
    let mut rng = Rng::new(seed);
    let n_buffers = rng.range_usize(3, 6);
    let n_kernels = rng.range_usize(3, 8);
    let specs: Vec<_> = (0..n_kernels)
        .map(|_| gen_spec(&mut rng, n_buffers))
        .collect();
    build_random_app(n_buffers, &specs)
}

fn traced_run(
    cfg: &GpuConfig,
    app: &bm_cmdq::Application,
    mode: ExecMode,
) -> (RunReport, Vec<TraceEvent>) {
    let tracer = RecordingTracer::new();
    let report = run(cfg, app, &mut RunSpec::new(mode), &tracer).unwrap();
    (report, tracer.events())
}

#[test]
fn traced_and_untraced_reports_bit_identical_all_modes() {
    let cfg = GpuConfig::small();
    for seed in [7, 1234, 998877] {
        let app = random_app(seed);
        for mode in all_modes() {
            let untraced = run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer).unwrap();
            let (traced, events) = traced_run(&cfg, &app, mode);
            assert_eq!(
                untraced, traced,
                "tracing perturbed the run: seed {seed}, mode {mode}"
            );
            assert!(
                !events.is_empty(),
                "a traced run must observe events: seed {seed}, mode {mode}"
            );
        }
    }
}

#[test]
fn guarded_traced_and_untraced_reports_bit_identical() {
    let cfg = GpuConfig::small();
    for seed in [3, 42] {
        let app = random_app(seed);
        for mode in [ExecMode::Baseline, ExecMode::ConsumerPriority { window: 3 }] {
            let untraced = run(
                &cfg,
                &app,
                &mut RunSpec {
                    guard: true,
                    ..RunSpec::new(mode)
                },
                &NullTracer,
            )
            .expect("guarded run");
            let tracer = RecordingTracer::new();
            let traced = run(
                &cfg,
                &app,
                &mut RunSpec {
                    guard: true,
                    ..RunSpec::new(mode)
                },
                &tracer,
            )
            .expect("guarded traced run");
            assert_eq!(untraced, traced, "seed {seed}, mode {mode}");
        }
    }
}

#[test]
fn two_traced_runs_emit_identical_event_streams() {
    let cfg = GpuConfig::small();
    for seed in [11, 2024] {
        let app = random_app(seed);
        for mode in all_modes() {
            let (r1, e1) = traced_run(&cfg, &app, mode);
            let (r2, e2) = traced_run(&cfg, &app, mode);
            assert_eq!(r1, r2, "reports diverged: seed {seed}, mode {mode}");
            assert_eq!(e1, e2, "event streams diverged: seed {seed}, mode {mode}");
            assert_eq!(
                export_chrome_trace(&e1),
                export_chrome_trace(&e2),
                "chrome exports diverged: seed {seed}, mode {mode}"
            );
        }
    }
}

#[test]
fn traced_runs_share_one_timeline_with_the_schedule() {
    // Every TB span recorded by the DES must match the report's schedule
    // exactly — the trace is a view of the run, not a reconstruction.
    let cfg = GpuConfig::small();
    let app = random_app(55);
    let mode = ExecMode::ConsumerPriority { window: 3 };
    let (report, events) = traced_run(&cfg, &app, mode);
    let mut spans: Vec<(u32, u32, u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::TbSpan {
                id, start, finish, ..
            } => Some((id.kernel, id.tb, *start, *finish)),
            _ => None,
        })
        .collect();
    let mut sched: Vec<(u32, u32, u64, u64)> = report
        .schedule
        .iter()
        .map(|&(key, s, f)| (key.kernel_seq, key.tb, s, f))
        .collect();
    spans.sort_unstable();
    sched.sort_unstable();
    assert_eq!(spans, sched);
}

#[test]
fn degradation_stamps_carry_issue_cycles() {
    // A kernel that degrades (here: forced down the ladder by a zero
    // analysis budget) must be stamped with its issue cycle — nonzero for
    // every kernel after the first — and the stamp must agree between the
    // report and the trace instants.
    use blockmaestro::try_jit_analyze_app_par_traced;
    use blockmaestro::{AnalysisBudget, AnalysisCache, ParallelConfig};

    let cfg = GpuConfig::small();
    let app = random_app(9);
    let budget = AnalysisBudget {
        absint_fuel: 0,
        coarse_fuel: 0,
        ..AnalysisBudget::default()
    };
    let mut cache = AnalysisCache::for_budget(&budget);
    let tracer = RecordingTracer::new();
    let serial = ParallelConfig::serial();
    let jit = try_jit_analyze_app_par_traced(
        &cfg,
        &app,
        HazardMode::Raw,
        &budget,
        &mut cache,
        &serial,
        &tracer,
    )
    .expect("analysis");
    assert!(jit.iter().all(|k| k.degradation.is_degraded()));
    let mode = ExecMode::ConsumerPriority { window: 3 };
    let report = run(
        &cfg,
        &app,
        &mut RunSpec {
            kernels: Some(&jit),
            ..RunSpec::new(mode)
        },
        &tracer,
    )
    .expect("run");
    let stamped: Vec<_> = report
        .degradation
        .iter()
        .filter(|(_, d)| d.is_degraded())
        .collect();
    assert_eq!(stamped.len(), jit.len());
    assert!(
        report.degradation[1..].iter().any(|(_, d)| d.at_cycle > 0),
        "later kernels issue after cycle 0: {:?}",
        report.degradation
    );
    let instants: Vec<(u32, u64)> = tracer
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::DegradationStamp { seq, cycle, .. } => Some((*seq, *cycle)),
            _ => None,
        })
        .collect();
    assert_eq!(instants.len(), stamped.len());
    for (seq, cycle) in instants {
        assert_eq!(report.degradation[seq as usize].1.at_cycle, cycle);
    }
}

#[test]
fn pressure_events_surface_as_stamped_instants() {
    // Force admission backpressure with a tiny spill threshold, then check
    // the report's PressureEvents and the trace's Pressure instants agree
    // cycle for cycle.
    use blockmaestro::jit_analyze_app;

    let mut cfg = GpuConfig::small();
    cfg.spill_pressure_threshold = 1;
    cfg.pressure_min_window = 1;
    let mut rng = Rng::new(77);
    // Long 1-to-1 chains over few, large kernels generate counter traffic.
    let n_buffers = 4;
    let specs: Vec<_> = (0..8).map(|_| gen_spec(&mut rng, n_buffers)).collect();
    let app = build_random_app(n_buffers, &specs);
    let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
    let tracer = RecordingTracer::new();
    let mode = ExecMode::ConsumerPriority { window: 4 };
    let report = run(
        &cfg,
        &app,
        &mut RunSpec {
            kernels: Some(&jit),
            ..RunSpec::new(mode)
        },
        &tracer,
    )
    .expect("run");
    let instants: Vec<(u64, u32, u32)> = tracer
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Pressure {
                cycle,
                window_before,
                window_after,
                ..
            } => Some((*cycle, *window_before, *window_after)),
            _ => None,
        })
        .collect();
    let expected: Vec<(u64, u32, u32)> = report
        .pressure_events
        .iter()
        .map(|p| (p.cycle, p.window_before, p.window_after))
        .collect();
    assert_eq!(instants, expected);
    if let Some(p) = report.pressure_events.first() {
        assert!(p.window_after < p.window_before);
    }
}
