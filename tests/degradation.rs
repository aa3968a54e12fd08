//! The graceful-degradation ladder, end to end: every rung — precise,
//! coarse, whole-kernel barrier, pre-launch disabled — must preserve
//! architectural invisibility; the bounded analysis cache must hit on
//! repeated launches and evict deterministically; and admission
//! backpressure must shrink the pre-launch window under scheduler-buffer
//! spill pressure, visibly in the RunReport.

mod common;

use blockmaestro::{
    check_schedule, corrupt_access_set, corrupt_pattern, jit_analyze_app,
    jit_analyze_app_par_stats, random_plan, run, AnalysisBudget, AnalysisCache, DegradationReason,
    DegradationRung, ExecMode, FaultClass, FaultPlan, FaultRng, JitKernel, ParallelConfig, RunSpec,
};
use bm_cmdq::{ApiCall, Application};
use bm_depgraph::HazardMode;
use bm_ptx::absint::{try_analyze_launch_fueled_par, try_analyze_launch_grouped};
use bm_ptx::access::RangeSet;
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::parser::parse_kernel;
use bm_simt::GpuConfig;
use bm_testkit::{check_cases, prop_ensure};
use bm_trace::NullTracer;
use common::{build_random_app, gen_spec, has_war_hazard, shift_kernel, KernelSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// An N-kernel RAW chain of `shift` launches: K_i maps buffer i → i+1.
fn chain_app(kernels: usize, tbs: u32) -> Application {
    let specs: Vec<KernelSpec> = (0..kernels)
        .map(|i| KernelSpec {
            src_buf: i,
            dst_buf: i + 1,
            shift: 0,
            tbs,
        })
        .collect();
    build_random_app(kernels + 1, &specs)
}

/// An app launching the same kernel with *identical* arguments `reps`
/// times — every launch after the first has an identical cache key.
fn repeated_app(reps: usize, tbs: u32) -> Application {
    let specs: Vec<KernelSpec> = (0..reps)
        .map(|_| KernelSpec {
            src_buf: 0,
            dst_buf: 1,
            shift: 0,
            tbs,
        })
        .collect();
    build_random_app(2, &specs)
}

/// Worklist pops consumed by one analysis call (self-calibrating, so the
/// forced-rung tests stay correct if the kernel or the analyzer changes).
fn precise_cost(launch: &Launch) -> u64 {
    let mut fuel = 1u64 << 20;
    let r = try_analyze_launch_fueled_par(launch, &mut fuel, &ParallelConfig::serial())
        .expect("valid launch");
    assert!(r.is_some(), "calibration must not run out of fuel");
    (1 << 20) - fuel
}

/// One analysis of `app` under `budget` into `cache`, on the default
/// configuration.
fn analyze_budgeted(
    cfg: &GpuConfig,
    app: &Application,
    budget: &AnalysisBudget,
    cache: &mut AnalysisCache,
) -> Vec<JitKernel> {
    let serial = ParallelConfig::serial();
    jit_analyze_app_par_stats(cfg, app, HazardMode::Raw, budget, cache, &serial).0
}

fn first_launch(app: &Application) -> Launch {
    app.launches()[0].clone()
}

#[test]
fn every_rung_preserves_architectural_invisibility() {
    // Random apps × random budgets: whichever rung the budget forces, the
    // guarded pipeline must accept only replay-equivalent schedules (the
    // soundness guard asserts replay-equivalence internally; we re-check
    // against serialized execution here, independently).
    check_cases(0xDE62ADE, 16, |rng| {
        let n_buffers = rng.range_usize(2, 5);
        let n_specs = rng.range_usize(2, 5);
        let window = rng.range_u32(2, 5);
        let hazard = *rng.pick(&[HazardMode::Raw, HazardMode::All]);
        let specs: Vec<KernelSpec> = (0..n_specs)
            .map(|_| {
                let mut s = gen_spec(rng, n_buffers);
                if s.src_buf == s.dst_buf {
                    s.dst_buf = (s.dst_buf + 1) % n_buffers;
                }
                s
            })
            .collect();
        if hazard == HazardMode::Raw && has_war_hazard(&specs) {
            return Ok(());
        }
        let app = build_random_app(n_buffers, &specs);
        let budget = match rng.range_u32(0, 4) {
            0 => AnalysisBudget::default(),
            1 => AnalysisBudget {
                // Enough for a handful of blocks, not a whole grid: most
                // kernels land on the coarse rung.
                absint_fuel: 8,
                ..AnalysisBudget::default()
            },
            2 => AnalysisBudget::exhausted(),
            _ => AnalysisBudget {
                trace_steps: 1,
                ..AnalysisBudget::default()
            },
        };
        let cfg = GpuConfig::small();
        let report = run(
            &cfg,
            &app,
            &mut RunSpec {
                hazard,
                guard: true,
                budget: budget.clone(),
                ..RunSpec::new(ExecMode::ConsumerPriority { window })
            },
            &NullTracer,
        )
        .map_err(|e| format!("budgeted run must not fail on a valid app: {e}"))?;
        let eq = check_schedule(&app, &report.schedule).expect("replay");
        prop_ensure!(
            eq.is_match(),
            "schedule diverged under budget {budget:?} for specs {specs:?}"
        );
        // Every kernel's ladder placement and cache disposition must be
        // visible in the report.
        prop_ensure!(
            report.degradation.len() == n_specs,
            "one degradation entry per kernel"
        );
        prop_ensure!(
            report.cache_hits + report.cache_misses == n_specs as u64,
            "every launch is a cache hit or a miss"
        );
        Ok(())
    });
}

#[test]
fn precise_rung_is_the_default() {
    let cfg = GpuConfig::small();
    let app = chain_app(3, 8);
    let r = run(
        &cfg,
        &app,
        &mut RunSpec {
            guard: true,
            ..RunSpec::new(ExecMode::ProducerPriority { window: 2 })
        },
        &NullTracer,
    )
    .unwrap();
    for (name, d) in &r.degradation {
        assert_eq!(d.rung, DegradationRung::Precise, "{name}: {d}");
        assert_eq!(d.reason, DegradationReason::None);
    }
    assert!(
        r.pressure_events.is_empty(),
        "no backpressure on a tiny app"
    );
}

#[test]
fn starved_precise_fuel_forces_the_coarse_rung() {
    let cfg = GpuConfig::small();
    let app = chain_app(2, 24);
    // Half the measured precise cost: the per-TB pass must run dry, the
    // group-level retry (8 groups ≪ 24 TBs, fresh fuel) must finish.
    let budget = AnalysisBudget {
        absint_fuel: precise_cost(&first_launch(&app)) / 2,
        ..AnalysisBudget::default()
    };
    let mut cache = AnalysisCache::for_budget(&budget);
    let jit = analyze_budgeted(&cfg, &app, &budget, &mut cache);
    for k in &jit {
        assert_eq!(k.degradation.rung, DegradationRung::Coarse, "{}", k.name);
        assert_eq!(k.degradation.reason, DegradationReason::AnalysisOverBudget);
        assert!(!k.access.non_static, "coarse is still a static analysis");
    }
    let r = run(
        &cfg,
        &app,
        &mut RunSpec {
            guard: true,
            budget: budget.clone(),
            ..RunSpec::new(ExecMode::ConsumerPriority { window: 2 })
        },
        &NullTracer,
    )
    .unwrap();
    assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
}

#[test]
fn exhausted_budgets_force_the_barrier_rung() {
    let cfg = GpuConfig::small();
    let app = chain_app(3, 8);
    let budget = AnalysisBudget::exhausted();
    let mut cache = AnalysisCache::for_budget(&budget);
    let jit = analyze_budgeted(&cfg, &app, &budget, &mut cache);
    for k in &jit {
        assert_eq!(k.degradation.rung, DegradationRung::Barrier, "{}", k.name);
        assert_eq!(k.degradation.reason, DegradationReason::CoarseOverBudget);
        assert!(k.access.non_static);
    }
    // Graphs against a barrier kernel are fully connected, never explicit.
    for k in &jit[1..] {
        assert!(k.graph.is_fully_connected());
    }
    let r = run(
        &cfg,
        &app,
        &mut RunSpec {
            guard: true,
            budget: budget.clone(),
            ..RunSpec::new(ExecMode::ConsumerPriority { window: 3 })
        },
        &NullTracer,
    )
    .unwrap();
    assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
}

#[test]
fn non_static_kernels_report_the_barrier_rung() {
    // The indirect gather defeats value-range analysis outright (tainted
    // address), independent of any budget.
    let n = 64u64;
    let gather = Arc::new(
        parse_kernel(
            r#".entry gather(.param .u64 A, .param .u64 B) {
                 ld.param.u64 %rd1, [A];
                 ld.param.u64 %rd2, [B];
                 mov.u32 %r1, %ctaid.x;
                 mov.u32 %r2, %ntid.x;
                 mov.u32 %r3, %tid.x;
                 mad.lo.u32 %r4, %r1, %r2, %r3;
                 mul.wide.u32 %rd3, %r4, 4;
                 add.u64 %rd4, %rd1, %rd3;
                 ld.global.u32 %r5, [%rd4];
                 mul.wide.u32 %rd5, %r5, 4;
                 add.u64 %rd6, %rd1, %rd5;
                 ld.global.f32 %f1, [%rd6];
                 add.u64 %rd7, %rd2, %rd3;
                 st.global.f32 [%rd7], %f1;
                 ret;
               }"#,
        )
        .unwrap(),
    );
    let mut space = AddressSpace::new();
    let a = space.alloc(4 * n);
    let b = space.alloc(4 * n);
    let mut host_data = HashMap::new();
    host_data.insert(
        a.id,
        (0..n)
            .map(|i| f32::from_bits((n - 1 - i) as u32))
            .collect::<Vec<_>>(),
    );
    let app = Application {
        name: "gather".into(),
        space,
        calls: vec![
            ApiCall::MemcpyH2D {
                alloc: a.id,
                bytes: 4 * n,
            },
            ApiCall::KernelLaunch(Launch::new(
                gather,
                Dim3::x(2),
                Dim3::x(32),
                vec![ArgValue::Ptr(a.base), ArgValue::Ptr(b.base)],
            )),
        ],
        host_data,
    };
    let jit = jit_analyze_app(&GpuConfig::small(), &app, HazardMode::Raw);
    assert_eq!(jit[0].degradation.rung, DegradationRung::Barrier);
    assert_eq!(jit[0].degradation.reason, DegradationReason::NonStatic);
}

#[test]
fn trace_budget_exhaustion_disables_prelaunch() {
    let cfg = GpuConfig::small();
    let app = chain_app(3, 8);
    let budget = AnalysisBudget {
        trace_steps: 1,
        ..AnalysisBudget::default()
    };
    let mut cache = AnalysisCache::for_budget(&budget);
    let jit = analyze_budgeted(&cfg, &app, &budget, &mut cache);
    for k in &jit {
        assert_eq!(
            k.degradation.rung,
            DegradationRung::PrelaunchOff,
            "{}",
            k.name
        );
        assert_eq!(k.degradation.reason, DegradationReason::TraceOverBudget);
        assert!(k.profile.duration > 0, "fallback profile must be usable");
    }
    // Pre-launch-off kernels still execute — just without run-ahead.
    let r = run(
        &cfg,
        &app,
        &mut RunSpec {
            guard: true,
            budget: budget.clone(),
            ..RunSpec::new(ExecMode::ConsumerPriority { window: 3 })
        },
        &NullTracer,
    )
    .unwrap();
    assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
    assert!(r
        .degradation
        .iter()
        .all(|(_, d)| d.rung == DegradationRung::PrelaunchOff));
}

#[test]
fn repeated_launches_hit_the_analysis_cache() {
    let cfg = GpuConfig::small();
    let app = repeated_app(4, 8);
    let budget = AnalysisBudget::default();
    let mut cache = AnalysisCache::for_budget(&budget);
    let jit = analyze_budgeted(&cfg, &app, &budget, &mut cache);
    assert!(!jit[0].cache_hit, "first launch must be analyzed");
    assert!(
        jit[1..].iter().all(|k| k.cache_hit),
        "identical relaunches hit"
    );
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.evictions), (3, 1, 0));
    // Cache hits reuse the precise analysis — no degradation involved.
    assert!(jit
        .iter()
        .all(|k| k.degradation.rung == DegradationRung::Precise));
    // The cached analysis drives the same schedule decisions, and the
    // report carries the hit/miss split.
    let r = run(
        &cfg,
        &app,
        &mut RunSpec {
            kernels: Some(&jit),
            ..RunSpec::new(ExecMode::ConsumerPriority { window: 2 })
        },
        &NullTracer,
    )
    .unwrap();
    assert_eq!(r.cache_hits, 3);
    assert_eq!(r.cache_misses, 1);
    assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
}

#[test]
fn capacity_one_cache_evicts_deterministically() {
    let cfg = GpuConfig::small();
    // Alternating distinct launches: A→B, C→D, A→B, C→D.
    let specs: Vec<KernelSpec> = (0..4)
        .map(|i| KernelSpec {
            src_buf: if i % 2 == 0 { 0 } else { 2 },
            dst_buf: if i % 2 == 0 { 1 } else { 3 },
            shift: 0,
            tbs: 8,
        })
        .collect();
    let app = build_random_app(4, &specs);
    let budget = AnalysisBudget {
        cache_capacity: 1,
        ..AnalysisBudget::default()
    };
    let mut cache = AnalysisCache::for_budget(&budget);
    let jit = analyze_budgeted(&cfg, &app, &budget, &mut cache);
    assert!(jit.iter().all(|k| !k.cache_hit), "capacity 1 thrashes");
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.evictions), (0, 4, 3));
}

#[test]
fn coarse_analysis_over_approximates_precise_per_tb_sets() {
    // Soundness of the coarse rung: for every TB, the group-level sets
    // must contain the precise per-TB sets (degradation may only *add*
    // dependencies, never lose one).
    let covers = |sup: &RangeSet, sub: &RangeSet| -> bool {
        sub.ranges()
            .iter()
            .flat_map(|&(s, e)| (s..e).step_by(4))
            .all(|a| sup.contains(a))
    };
    check_cases(0xC0A25E, 32, |rng| {
        let tbs = rng.range_u32(1, 24);
        let shift = rng.range_u32(0, 70);
        let groups = rng.range_u32(1, 10);
        let n = tbs as u64 * 64;
        let mut space = AddressSpace::new();
        let a = space.alloc(4 * n);
        let b = space.alloc(4 * n);
        let launch = Launch::new(
            shift_kernel(),
            Dim3::x(tbs),
            Dim3::x(64),
            vec![
                ArgValue::Ptr(a.base),
                ArgValue::Ptr(b.base),
                ArgValue::U32(n as u32),
                ArgValue::U32(shift),
            ],
        );
        let mut fuel = u64::MAX;
        let (precise, _) =
            try_analyze_launch_fueled_par(&launch, &mut fuel, &ParallelConfig::serial())
                .expect("valid")
                .expect("fuel");
        let mut fuel = u64::MAX;
        let coarse = try_analyze_launch_grouped(&launch, groups, &mut fuel)
            .expect("valid")
            .expect("fuel");
        prop_ensure!(!precise.non_static && !coarse.non_static, "static kernel");
        prop_ensure!(
            coarse.per_tb.len() == precise.per_tb.len(),
            "same block count"
        );
        for (tb, (p, c)) in precise.per_tb.iter().zip(&coarse.per_tb).enumerate() {
            prop_ensure!(
                covers(&c.reads, &p.reads) && covers(&c.writes, &p.writes),
                "tb {tb} of {tbs} (shift {shift}, {groups} groups): \
                 coarse sets must cover precise sets"
            );
        }
        Ok(())
    });
}

#[test]
fn spill_pressure_shrinks_the_window_and_is_recorded() {
    // A 1-entry parent-counter buffer forces a writeback storm; with a
    // tiny spill threshold, admission backpressure must shrink the window
    // monotonically — and the run must stay correct throughout.
    let cfg = GpuConfig {
        spill_pressure_threshold: 8,
        ..GpuConfig::small()
    };
    let app = chain_app(8, 8);
    let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
    let fault = FaultPlan {
        pcb_capacity: Some(1),
        ..FaultPlan::default()
    };
    let r = run(
        &cfg,
        &app,
        &mut RunSpec {
            fault: fault.clone(),
            kernels: Some(&jit),
            ..RunSpec::new(ExecMode::ConsumerPriority { window: 4 })
        },
        &NullTracer,
    )
    .unwrap();
    assert!(
        !r.pressure_events.is_empty(),
        "spill storm must trigger backpressure"
    );
    let mut prev = 4u32;
    for ev in &r.pressure_events {
        assert!(ev.window_after < ev.window_before, "each event shrinks");
        assert_eq!(ev.window_before, prev, "events are contiguous");
        assert!(ev.window_after >= cfg.pressure_min_window);
        assert!(ev.spill_traffic >= cfg.spill_pressure_threshold);
        prev = ev.window_after;
    }
    assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
    // Determinism: the same run shrinks at the same cycles.
    let r2 = run(
        &cfg,
        &app,
        &mut RunSpec {
            fault: fault.clone(),
            kernels: Some(&jit),
            ..RunSpec::new(ExecMode::ConsumerPriority { window: 4 })
        },
        &NullTracer,
    )
    .unwrap();
    assert_eq!(r.pressure_events, r2.pressure_events);
}

#[test]
fn pressure_never_fires_without_spills() {
    let cfg = GpuConfig::small();
    let app = chain_app(4, 8);
    let r = run(
        &cfg,
        &app,
        &mut RunSpec {
            guard: true,
            ..RunSpec::new(ExecMode::ConsumerPriority { window: 3 })
        },
        &NullTracer,
    )
    .unwrap();
    assert!(r.pressure_events.is_empty());
}

#[test]
fn fault_injection_composes_with_budget_exhaustion() {
    // Every fault class × a budget that forces a degraded rung: the
    // guarded pipeline must still end in recovery or a typed error —
    // never a wrong accepted result or a panic.
    let cfg = GpuConfig::small();
    let app = chain_app(4, 8);
    for class in FaultClass::all() {
        let base_seed = 0xDE6_FA17 ^ ((class as u64) << 12);
        check_cases(base_seed, 4, |rng| {
            let budget = if rng.flip() {
                AnalysisBudget::exhausted()
            } else {
                AnalysisBudget {
                    trace_steps: 1,
                    ..AnalysisBudget::default()
                }
            };
            let mut cache = AnalysisCache::for_budget(&budget);
            let mut jit = analyze_budgeted(&cfg, &app, &budget, &mut cache);
            let mut frng = FaultRng::new(rng.next_u64());
            let plan = if class.is_static() {
                let k = 1 + frng.below(jit.len() as u64 - 1) as usize;
                let applied = match class {
                    FaultClass::CorruptAccessSet => {
                        corrupt_access_set(&mut jit, k, HazardMode::Raw)
                    }
                    _ => corrupt_pattern(&mut jit, k),
                };
                if !applied {
                    // Degraded kernels can have no corruption site (barrier
                    // graphs carry no explicit metadata) — vacuously safe.
                    return Ok(());
                }
                FaultPlan::default()
            } else {
                match random_plan(class, &jit, &mut frng) {
                    Some(p) => p,
                    None => return Ok(()),
                }
            };
            if matches!(class, FaultClass::WorkerPanic) {
                // Panic injection is *supposed* to unwind — the serve layer
                // contains it with `catch_unwind`. Assert exactly that.
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(
                        &cfg,
                        &app,
                        &mut RunSpec {
                            guard: true,
                            fault: plan.clone(),
                            kernels: Some(&jit),
                            ..RunSpec::new(ExecMode::ConsumerPriority { window: 3 })
                        },
                        &NullTracer,
                    )
                }));
                prop_ensure!(res.is_err(), "WorkerPanic plan did not unwind");
                return Ok(());
            }
            match run(
                &cfg,
                &app,
                &mut RunSpec {
                    guard: true,
                    fault: plan.clone(),
                    kernels: Some(&jit),
                    ..RunSpec::new(ExecMode::ConsumerPriority { window: 3 })
                },
                &NullTracer,
            ) {
                Ok(report) => {
                    let eq = check_schedule(&app, &report.schedule)
                        .map_err(|e| format!("replay failed: {e}"))?;
                    prop_ensure!(
                        eq.is_match(),
                        "{class:?} + {budget:?}: accepted run diverges ({eq})"
                    );
                    Ok(())
                }
                // Typed errors are an acceptable terminal state.
                Err(_typed) => Ok(()),
            }
        });
    }
}

#[test]
fn invalid_launch_degrades_instead_of_panicking() {
    // A launch with a missing argument is structurally invalid: the
    // infallible pipeline must carry it as an opaque prelaunch-off barrier
    // rather than dying.
    let mut space = AddressSpace::new();
    let a = space.alloc(4 * 64);
    let app = Application {
        name: "invalid".into(),
        space,
        // Built by hand: `Launch::new` itself asserts arity.
        calls: vec![ApiCall::KernelLaunch(Launch {
            kernel: shift_kernel(),
            grid: Dim3::x(1),
            block: Dim3::x(64),
            args: vec![ArgValue::Ptr(a.base)], // 3 of 4 args missing
        })],
        host_data: HashMap::new(),
    };
    let jit = jit_analyze_app(&GpuConfig::small(), &app, HazardMode::Raw);
    assert_eq!(jit.len(), 1);
    assert_eq!(jit[0].degradation.rung, DegradationRung::PrelaunchOff);
    assert_eq!(jit[0].degradation.reason, DegradationReason::InvalidLaunch);
    assert!(jit[0].access.non_static);
}
