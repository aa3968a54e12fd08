//! The memoized analysis pipeline must be an *optimization*, not a
//! behavior change: for any application, `ParallelConfig::serial()` (the
//! fast paths every user path runs) must produce the same JIT results as
//! `ParallelConfig::reference()` (every thread block and representative
//! trace fully interpreted) — access sets, dependency graphs, skip gates,
//! degradation ladders, profiles, cache hits and cache statistics — and
//! so the same simulated runs.

mod common;

use blockmaestro::{
    jit_analyze_app_par_stats, run, AnalysisBudget, AnalysisCache, CacheStats, ExecMode, JitKernel,
    ParallelConfig, RunReport, RunSpec,
};
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_simt::GpuConfig;
use bm_testkit::{check_cases, prop_ensure, Rng};
use bm_trace::NullTracer;
use bm_workloads::{suite, Scale};
use common::{build_random_app, KernelSpec};

const MODE: ExecMode = ExecMode::ConsumerPriority { window: 3 };

/// An unguarded [`MODE`] run of `jit`.
fn run_mode(cfg: &GpuConfig, app: &Application, jit: &[JitKernel]) -> RunReport {
    let mut spec = RunSpec {
        kernels: Some(jit),
        ..RunSpec::new(MODE)
    };
    run(cfg, app, &mut spec, &NullTracer).unwrap()
}

/// Draws a spec with grids large enough (40..100 TBs) to clear the affine
/// fast path's minimum-grid threshold, unlike the default generator.
fn gen_large_spec(rng: &mut Rng, n_buffers: usize) -> KernelSpec {
    let mut s = KernelSpec {
        src_buf: rng.range_usize(0, n_buffers),
        dst_buf: rng.range_usize(0, n_buffers),
        shift: rng.range_u32(0, 70),
        tbs: rng.range_u32(40, 100),
    };
    if s.src_buf == s.dst_buf {
        s.dst_buf = (s.dst_buf + 1) % n_buffers;
    }
    s
}

/// The kernels and cache statistics of one cold analysis under `par`.
fn analyze(
    cfg: &GpuConfig,
    app: &Application,
    hazard: HazardMode,
    par: &ParallelConfig,
) -> (Vec<JitKernel>, CacheStats) {
    let budget = AnalysisBudget::default();
    let mut cache = AnalysisCache::for_budget(&budget);
    let (jit, _) = jit_analyze_app_par_stats(cfg, app, hazard, &budget, &mut cache, par);
    (jit, cache.stats())
}

/// Panics naming the first kernel whose serial analysis differs from the
/// reference.
fn assert_same_analysis(label: &str, serial: &[JitKernel], reference: &[JitKernel]) {
    assert_eq!(serial.len(), reference.len(), "{label}: kernel count");
    for (got, want) in serial.iter().zip(reference) {
        assert!(
            got == want,
            "{label}: kernel {} ({}) diverged",
            got.seq,
            got.name
        );
    }
}

#[test]
fn parallel_and_affine_match_reference() {
    check_cases(0xD373, 32, |rng| {
        let n_buffers = rng.range_usize(2, 5);
        let n_specs = rng.range_usize(2, 6);
        let specs: Vec<KernelSpec> = (0..n_specs)
            .map(|_| gen_large_spec(rng, n_buffers))
            .collect();
        let app = build_random_app(n_buffers, &specs);
        let cfg = GpuConfig::small();

        let (reference, ref_stats) =
            analyze(&cfg, &app, HazardMode::Raw, &ParallelConfig::reference());
        let ref_report = run_mode(&cfg, &app, &reference);
        let (jit, stats) = analyze(&cfg, &app, HazardMode::Raw, &ParallelConfig::serial());
        prop_ensure!(
            jit.len() == reference.len(),
            "kernel count diverged for specs {specs:?}"
        );
        for (got, want) in jit.iter().zip(&reference) {
            prop_ensure!(
                got == want,
                "kernel {} diverged for specs {specs:?}",
                got.seq
            );
        }
        prop_ensure!(
            stats == ref_stats,
            "cache stats diverged for specs {specs:?}"
        );
        let report = run_mode(&cfg, &app, &jit);
        prop_ensure!(
            report == ref_report,
            "simulated run diverged for specs {specs:?}"
        );
        Ok(())
    });
}

#[test]
fn serial_matches_reference_on_every_small_app() {
    let cfg = GpuConfig::small();
    for b in suite() {
        let app = (b.build)(Scale::Small);
        for hazard in [HazardMode::Raw, HazardMode::All] {
            let label = format!("{} {hazard:?}", b.name);
            let (reference, ref_stats) = analyze(&cfg, &app, hazard, &ParallelConfig::reference());
            let (serial, stats) = analyze(&cfg, &app, hazard, &ParallelConfig::serial());
            assert_same_analysis(&label, &serial, &reference);
            assert_eq!(stats, ref_stats, "{label}: cache stats");
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Scale::Full: run with --release")]
fn serial_matches_reference_on_every_full_app() {
    let cfg = GpuConfig::titan_x_pascal();
    for b in suite() {
        let app = (b.build)(Scale::Full);
        for hazard in [HazardMode::Raw, HazardMode::All] {
            let label = format!("{} {hazard:?}", b.name);
            let (reference, ref_stats) = analyze(&cfg, &app, hazard, &ParallelConfig::reference());
            let (serial, stats) = analyze(&cfg, &app, hazard, &ParallelConfig::serial());
            assert_same_analysis(&label, &serial, &reference);
            assert_eq!(stats, ref_stats, "{label}: cache stats");
            if hazard == HazardMode::Raw {
                assert!(
                    run_mode(&cfg, &app, &serial) == run_mode(&cfg, &app, &reference),
                    "{label}: consumer(w=3) report diverged"
                );
            }
        }
    }
}
