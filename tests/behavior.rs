//! Behavioral integration tests: quantitative properties the engine must
//! exhibit across the suite (launch-overhead accounting, overlap of
//! independent kernels, window monotonicity, stall reduction, overhead
//! bounds, reordering validity).

use blockmaestro::{jit_analyze_app, run, ExecMode, RunSpec};
use bm_cmdq::{is_valid_order, reorder_for_prelaunch};
use bm_depgraph::HazardMode;
use bm_simt::stats::percentile;
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::{bicg, pathfinder, suite, Scale};

#[test]
fn baseline_pays_one_launch_per_kernel() {
    // PATH has 5 equal-shape kernels: the baseline's kernel region must
    // exceed the ideal baseline's by ~5 launch overheads.
    let cfg = GpuConfig::titan_x_pascal();
    let app = pathfinder::build(Scale::Small);
    let run_mode = |mode| run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer).unwrap();
    let base = run_mode(ExecMode::Baseline);
    let ideal = run_mode(ExecMode::IdealBaseline);
    let diff = base.kernel_region_cycles - ideal.kernel_region_cycles;
    let k = app.num_kernels() as u64;
    let expect = k * cfg.kernel_launch_cycles;
    assert!(
        diff >= expect - cfg.kernel_launch_cycles
            && diff <= expect + k * cfg.launch_api_cycles + cfg.kernel_launch_cycles,
        "launch overhead accounting off: diff={diff}, expected ≈{expect}"
    );
}

#[test]
fn independent_kernels_overlap_under_blockmaestro() {
    // BICG's two kernels are data-independent; BlockMaestro must overlap
    // them so that the kernel region is much less than the serialized sum.
    let cfg = GpuConfig::titan_x_pascal();
    let app = bicg::build(Scale::Full);
    let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
    assert!(jit[1].graph.is_independent());
    let run_mode = |mode| {
        let mut spec = RunSpec {
            kernels: Some(&jit),
            ..RunSpec::new(mode)
        };
        run(&cfg, &app, &mut spec, &NullTracer).unwrap()
    };
    let base = run_mode(ExecMode::Baseline);
    let bm = run_mode(ExecMode::ProducerPriority { window: 2 });
    // The kernels are imbalanced (the row-dot kernel is uncoalesced, the
    // column kernel is not), so overlap saves roughly the shorter kernel's
    // duration: the BlockMaestro region must be at most the longer
    // kernel's standalone span plus launch overhead and slack.
    let spans: Vec<u64> = jit
        .iter()
        .map(|k| {
            let waves = k
                .profile
                .n_tbs
                .div_ceil(cfg.total_tb_slots(k.profile.threads, 0).max(1));
            waves as u64 * k.profile.duration
        })
        .collect();
    let longest = *spans.iter().max().unwrap();
    let serial_sum: u64 = spans.iter().sum();
    assert!(bm.kernel_region_cycles < base.kernel_region_cycles);
    assert!(
        bm.kernel_region_cycles
            <= longest
                + 2 * cfg.kernel_launch_cycles
                + base.kernel_region_cycles / 10
                + (base.kernel_region_cycles - serial_sum.min(base.kernel_region_cycles)),
        "overlap too weak: region {} vs longest kernel {}",
        bm.kernel_region_cycles,
        longest
    );
    // And the saving is at least most of the shorter kernel.
    let shorter = *spans.iter().min().unwrap();
    assert!(
        base.kernel_region_cycles - bm.kernel_region_cycles >= shorter / 2,
        "saved {} but shorter kernel is {}",
        base.kernel_region_cycles - bm.kernel_region_cycles,
        shorter
    );
}

#[test]
fn deeper_windows_never_hurt_much() {
    // Speedup should be (weakly) monotone in window depth, up to a small
    // scheduling-noise tolerance.
    let cfg = GpuConfig::titan_x_pascal();
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        let run_mode = |mode| {
            let mut spec = RunSpec {
                kernels: Some(&jit),
                ..RunSpec::new(mode)
            };
            run(&cfg, &app, &mut spec, &NullTracer).unwrap()
        };
        let t2 = run_mode(ExecMode::ConsumerPriority { window: 2 }).total_cycles as f64;
        let t4 = run_mode(ExecMode::ConsumerPriority { window: 4 }).total_cycles as f64;
        assert!(
            t4 <= t2 * 1.10,
            "{}: window 4 ({t4}) much slower than window 2 ({t2})",
            bench.name
        );
    }
}

#[test]
fn blockmaestro_never_slower_than_baseline() {
    let cfg = GpuConfig::titan_x_pascal();
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        let run_mode = |mode| {
            let mut spec = RunSpec {
                kernels: Some(&jit),
                ..RunSpec::new(mode)
            };
            run(&cfg, &app, &mut spec, &NullTracer).unwrap()
        };
        let base = run_mode(ExecMode::Baseline).total_cycles as f64;
        for mode in [
            ExecMode::PreLaunch { window: 2 },
            ExecMode::ProducerPriority { window: 2 },
            ExecMode::ConsumerPriority { window: 3 },
        ] {
            let t = run_mode(mode).total_cycles as f64;
            assert!(
                t <= base * 1.02,
                "{} under {mode}: {t} vs baseline {base}",
                bench.name
            );
        }
    }
}

#[test]
fn stalls_shrink_under_fine_grain_resolution() {
    let cfg = GpuConfig::titan_x_pascal();
    let mut improved = 0;
    let mut total = 0;
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        let run_mode = |mode| run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer).unwrap();
        let base = run_mode(ExecMode::Baseline);
        let bm = run_mode(ExecMode::ProducerPriority { window: 2 });
        let med = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            percentile(&s, 50.0)
        };
        total += 1;
        if med(&bm.stalls_normalized) <= med(&base.stalls_normalized) + 1e-9 {
            improved += 1;
        }
    }
    assert!(
        improved >= total - 1,
        "stall medians should not regress: {improved}/{total}"
    );
}

#[test]
fn hardware_overhead_stays_small() {
    let cfg = GpuConfig::titan_x_pascal();
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        let r = run(
            &cfg,
            &app,
            &mut RunSpec::new(ExecMode::ConsumerPriority { window: 4 }),
            &NullTracer,
        )
        .unwrap();
        assert!(
            r.mem_overhead_fraction() < 0.08,
            "{}: overhead {:.2}% too large",
            bench.name,
            100.0 * r.mem_overhead_fraction()
        );
        assert!(r.storage_encoded <= r.storage_plain.max(4 * r.num_kernels as u64));
    }
}

#[test]
fn reordering_is_valid_for_every_app() {
    for bench in suite() {
        for scale in [Scale::Small, Scale::Full] {
            let app = (bench.build)(scale);
            let r = reorder_for_prelaunch(&app);
            assert!(
                is_valid_order(&app, &r.order),
                "{} at {scale:?}",
                bench.name
            );
            // Kernel relative order is preserved (graphs stay consecutive).
            let kernels_before: Vec<String> = app
                .launches()
                .iter()
                .map(|l| l.kernel.name.clone())
                .collect();
            let reordered = r.apply(&app);
            let kernels_after: Vec<String> = reordered
                .iter()
                .filter_map(|c| match c {
                    bm_cmdq::ApiCall::KernelLaunch(l) => Some(l.kernel.name.clone()),
                    _ => None,
                })
                .collect();
            assert_eq!(kernels_before, kernels_after, "{}", bench.name);
        }
    }
}

#[test]
fn hazard_all_is_never_less_conservative() {
    // Tracking more hazards can only add edges, so execution can only get
    // slower (or equal).
    let cfg = GpuConfig::titan_x_pascal();
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        let raw = run(
            &cfg,
            &app,
            &mut RunSpec::new(ExecMode::ConsumerPriority { window: 3 }),
            &NullTracer,
        )
        .unwrap();
        let all = run(
            &cfg,
            &app,
            &mut RunSpec {
                hazard: HazardMode::All,
                ..RunSpec::new(ExecMode::ConsumerPriority { window: 3 })
            },
            &NullTracer,
        )
        .unwrap();
        assert!(
            all.kernel_region_cycles as f64 >= raw.kernel_region_cycles as f64 * 0.999,
            "{}: HazardMode::All faster than Raw ({} vs {})",
            bench.name,
            all.kernel_region_cycles,
            raw.kernel_region_cycles
        );
    }
}
