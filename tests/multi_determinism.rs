//! Multi-GPU execution must be programmer-transparent *and* reproducible:
//!
//! * `devices = 1` through `bm-multi` must be bit-identical to the plain
//!   single-device engine — the `RunReport` **and** the recorded trace
//!   stream — in every execution mode;
//! * `devices = N` must be bit-reproducible across repeated runs and
//!   across launch-time analysis configurations (the reference oracle and
//!   the memoized fast paths).

mod common;

use blockmaestro::{
    jit_analyze_app_par_stats, try_run_analyzed_traced, AnalysisBudget, AnalysisCache, ExecMode,
    JitKernel, ParallelConfig,
};
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_multi::{try_run_analyzed_multi_traced, MultiGpuConfig};
use bm_simt::GpuConfig;
use bm_testkit::{check_cases, prop_ensure, Rng};
use bm_trace::RecordingTracer;
use common::{build_random_app, KernelSpec};

const ALL_MODES: [ExecMode; 6] = [
    ExecMode::Baseline,
    ExecMode::IdealBaseline,
    ExecMode::GraphLaunch,
    ExecMode::PreLaunch { window: 3 },
    ExecMode::ProducerPriority { window: 3 },
    ExecMode::ConsumerPriority { window: 3 },
];

/// Shifted-stencil specs whose explicit graphs have edges that cross any
/// contiguous TB cut — the interesting case for sharding.
fn gen_spec(rng: &mut Rng, n_buffers: usize) -> KernelSpec {
    let mut s = KernelSpec {
        src_buf: rng.range_usize(0, n_buffers),
        dst_buf: rng.range_usize(0, n_buffers),
        shift: rng.range_u32(0, 40),
        tbs: rng.range_u32(12, 48),
    };
    if s.src_buf == s.dst_buf {
        s.dst_buf = (s.dst_buf + 1) % n_buffers;
    }
    s
}

fn reference_jit(cfg: &GpuConfig, app: &Application) -> Vec<JitKernel> {
    let budget = AnalysisBudget::default();
    let mut cache = AnalysisCache::for_budget(&budget);
    jit_analyze_app_par_stats(
        cfg,
        app,
        HazardMode::Raw,
        &budget,
        &mut cache,
        &ParallelConfig::reference(),
    )
    .0
}

#[test]
fn one_device_is_bit_identical_to_the_single_engine() {
    check_cases(0x517A, 12, |rng| {
        let n_buffers = rng.range_usize(2, 4);
        let n_specs = rng.range_usize(2, 5);
        let specs: Vec<KernelSpec> = (0..n_specs).map(|_| gen_spec(rng, n_buffers)).collect();
        let app = build_random_app(n_buffers, &specs);
        let cfg = GpuConfig::small();
        let jit = reference_jit(&cfg, &app);
        let mcfg = MultiGpuConfig::devices(1);
        for mode in ALL_MODES {
            let single_tracer = RecordingTracer::new();
            let single = try_run_analyzed_traced(&cfg, &app, &jit, mode, &single_tracer)
                .map_err(|e| format!("single {mode}: {e}"))?;
            let multi_tracer = RecordingTracer::new();
            let multi = try_run_analyzed_multi_traced(&cfg, &mcfg, &app, &jit, mode, &multi_tracer)
                .map_err(|e| format!("multi {mode}: {e}"))?;
            prop_ensure!(
                multi == single,
                "devices=1 report diverged under {mode} for specs {specs:?}"
            );
            prop_ensure!(
                multi_tracer.events() == single_tracer.events(),
                "devices=1 trace stream diverged under {mode} for specs {specs:?}"
            );
            prop_ensure!(
                multi.multi.is_none(),
                "devices=1 must not grow a multi section ({mode})"
            );
        }
        Ok(())
    });
}

#[test]
fn n_devices_is_reproducible_across_runs_and_thread_counts() {
    check_cases(0x517B, 12, |rng| {
        let n_buffers = rng.range_usize(2, 4);
        let n_specs = rng.range_usize(2, 5);
        let specs: Vec<KernelSpec> = (0..n_specs).map(|_| gen_spec(rng, n_buffers)).collect();
        let app = build_random_app(n_buffers, &specs);
        let cfg = GpuConfig::small();
        let devices = [2u32, 3][rng.range_usize(0, 2)];
        let mcfg = MultiGpuConfig::devices(devices);
        let mode = ALL_MODES[rng.range_usize(0, ALL_MODES.len())];

        let jit = reference_jit(&cfg, &app);
        let ref_tracer = RecordingTracer::new();
        let reference = try_run_analyzed_multi_traced(&cfg, &mcfg, &app, &jit, mode, &ref_tracer)
            .map_err(|e| format!("reference {mode}: {e}"))?;

        // Bit-identical on a plain re-run (report and trace stream).
        let re_tracer = RecordingTracer::new();
        let rerun = try_run_analyzed_multi_traced(&cfg, &mcfg, &app, &jit, mode, &re_tracer)
            .map_err(|e| format!("rerun {mode}: {e}"))?;
        prop_ensure!(
            rerun == reference,
            "devices={devices} report not reproducible under {mode} for specs {specs:?}"
        );
        prop_ensure!(
            re_tracer.events() == ref_tracer.events(),
            "devices={devices} trace not reproducible under {mode} for specs {specs:?}"
        );

        // Bit-identical when the JIT pipeline ran with its fast paths on.
        let budget = AnalysisBudget::default();
        let mut cache = AnalysisCache::for_budget(&budget);
        let (jit_serial, _) = jit_analyze_app_par_stats(
            &cfg,
            &app,
            HazardMode::Raw,
            &budget,
            &mut cache,
            &ParallelConfig::serial(),
        );
        let serial_tracer = RecordingTracer::new();
        let report =
            try_run_analyzed_multi_traced(&cfg, &mcfg, &app, &jit_serial, mode, &serial_tracer)
                .map_err(|e| format!("serial {mode}: {e}"))?;
        prop_ensure!(
            report == reference,
            "devices={devices} report diverged under serial(), {mode}, specs {specs:?}"
        );
        prop_ensure!(
            serial_tracer.events() == ref_tracer.events(),
            "devices={devices} trace diverged under serial(), {mode}, specs {specs:?}"
        );
        Ok(())
    });
}
