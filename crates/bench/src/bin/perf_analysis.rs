//! Tracked performance harness for the launch-time analysis toolchain.
//!
//! Times the pipeline phase by phase — per-launch access-set analysis
//! (absint), representative-TB tracing, dependency-graph construction,
//! the full cold JIT pipeline, and the warm-cache replay — and the
//! simulated consumer(w=3) run of the analyzed kernels, for every Table II
//! workload plus a 512-TB VectorAdd. The phases run under two
//! configurations:
//!
//! * `reference`  — every fast path off (the correctness baseline);
//! * `affine`     — affine memoization + trace and timing memos, the
//!   configuration every user path runs.
//!
//! Every phase runs the code the pipeline runs: the trace phase is
//! [`trace_phase`], the memoized per-run trace phase of a cold analysis,
//! which traces only launches whose analysis key is new to the run. Each
//! phase is timed in pairs, a reference iteration next to an affine one
//! (alternating which goes first), at least [`MIN_PAIRS`] pairs per phase:
//! a cell's time is its minimum over the pairs, and a speedup is the
//! median of the per-pair reference/affine ratios, so a host slowdown
//! lasting seconds lands on both configs of the pairs it spans. The run
//! (`run_ns`) is timed the same way, as the minimum of at least
//! [`MIN_PAIRS`] warm runs.
//!
//! Results are printed as a table and written as JSON (schema
//! `bm-bench/perf_analysis/v3`) to `BENCH_analysis.json` at the
//! repository root so successive commits can be compared. Run with:
//!
//! ```text
//! cargo run --release -p bm-bench --bin perf_analysis [-- --small] [-- --gate]
//! ```
//!
//! With `--gate`, exits nonzero if any configuration falls below 0.9x of
//! the reference on any phase (ignoring sub-200µs phases, which are noise
//! at `--small` scale). Suspected violations are re-measured in more pairs
//! before they count, so transient machine load can't fail CI on its own —
//! the no-regression gate.

use std::hint::black_box;
use std::time::Instant;

use blockmaestro::jit::trace_phase;
use blockmaestro::{
    jit_analyze_app_par_stats, run, scratch_memory, AnalysisBudget, AnalysisCache, ExecMode,
    JitKernel, ParallelConfig, RunSpec,
};
use bm_bench::{geomean, scale_from_args};
use bm_cmdq::Application;
use bm_depgraph::{build_graph_bounded_par, HazardMode};
use bm_ptx::absint::try_analyze_launch_fueled_par;
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::{suite, vectoradd, Scale};

/// The measured configurations, reference first.
fn configs() -> Vec<(&'static str, ParallelConfig)> {
    vec![
        ("reference", ParallelConfig::reference()),
        ("affine", ParallelConfig::serial()),
    ]
}

/// Phase names, in presentation and gating order.
const PHASES: [&str; 5] = ["absint", "trace", "graph", "jit_cold", "jit_warm"];

/// Phases faster than this under the reference config are too noisy to
/// gate at `--small` scale: below ~200us a single scheduler preemption
/// or timer-granularity hiccup swamps the real signal even after
/// min-of-N sampling.
const GATE_FLOOR_NS: f64 = 200_000.0;

/// Minimum acceptable speedup vs reference for the `--gate` check.
const GATE_MIN_RATIO: f64 = 0.9;

/// Reference/affine pairs timed per phase, at least.
const MIN_PAIRS: usize = 10;

/// One timed iteration of a single phase under `par`, in nanoseconds.
/// `warm` must have been populated by a prior full analysis under the
/// same config (only the warm phase reads it).
fn phase_once(
    gpu: &GpuConfig,
    app: &Application,
    budget: &AnalysisBudget,
    jit: &[JitKernel],
    warm: &mut AnalysisCache,
    phase: usize,
    par: &ParallelConfig,
) -> u128 {
    // The trace phase runs on a fresh initial image, built off the clock.
    let mut scratch = (phase == 1).then(|| scratch_memory(app));
    let t0 = Instant::now();
    match phase {
        0 => absint_pass(app, budget, par),
        1 => {
            if let Some(scratch) = &mut scratch {
                black_box(trace_phase(gpu, app, scratch, budget, par));
            }
        }
        2 => graph_pass(jit, budget, par),
        3 => {
            let mut cache = AnalysisCache::for_budget(budget);
            black_box(jit_analyze_app_par_stats(
                gpu,
                black_box(app),
                HazardMode::Raw,
                budget,
                &mut cache,
                par,
            ));
        }
        _ => {
            black_box(jit_analyze_app_par_stats(
                gpu,
                black_box(app),
                HazardMode::Raw,
                budget,
                warm,
                par,
            ));
        }
    }
    t0.elapsed().as_nanos()
}

/// One phase timed in reference/affine pairs after a warmup call of each:
/// at least [`MIN_PAIRS`] pairs, more while `budget_ms` lasts (at most
/// 1000). Returns each config's minimum nanoseconds — OS noise on a shared
/// box is strictly additive, so the minimum is the stabler estimate of a
/// cost — and the median of the per-pair reference/affine ratios.
#[allow(clippy::too_many_arguments)]
fn paired_phase(
    gpu: &GpuConfig,
    app: &Application,
    budget: &AnalysisBudget,
    jit: &[JitKernel],
    warm: &mut [AnalysisCache],
    phase: usize,
    cfgs: &[(&str, ParallelConfig)],
    budget_ms: u64,
) -> ([f64; 2], f64) {
    let mut once = |c: usize| phase_once(gpu, app, budget, jit, &mut warm[c], phase, &cfgs[c].1);
    once(0);
    once(1);
    let slice = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut best = [u128::MAX; 2];
    let mut ratios = Vec::new();
    while ratios.len() < MIN_PAIRS || (start.elapsed() < slice && ratios.len() < 1000) {
        // Alternate which config goes first.
        let first = ratios.len() % 2;
        let mut t = [0; 2];
        for c in [first, 1 - first] {
            t[c] = once(c);
            best[c] = best[c].min(t[c]);
        }
        ratios.push(t[0] as f64 / (t[1] as f64).max(1.0));
    }
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median = if ratios.len() % 2 == 0 {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    } else {
        ratios[mid]
    };
    ([best[0] as f64, best[1] as f64], median)
}

/// One absint pass over every launch of `app` (fresh fuel per launch, no
/// caching) — the pure access-set analysis phase.
fn absint_pass(app: &Application, budget: &AnalysisBudget, par: &ParallelConfig) {
    for launch in app.launches() {
        let mut fuel = budget.absint_fuel;
        black_box(try_analyze_launch_fueled_par(black_box(launch), &mut fuel, par).ok());
    }
}

/// One dependency-graph build per consecutive kernel pair, from
/// pre-computed access sets — the pure graph-construction phase.
fn graph_pass(jit: &[JitKernel], budget: &AnalysisBudget, par: &ParallelConfig) {
    for pair in jit.windows(2) {
        black_box(build_graph_bounded_par(
            &pair[0].access,
            &pair[1].access,
            HazardMode::Raw,
            budget.max_graph_edges,
            par,
        ));
    }
}

struct StageTimes {
    /// `phase_ns[phase][config]`, phases in [`PHASES`] order.
    phase_ns: Vec<[f64; 2]>,
    /// Median paired reference/affine ratio per phase.
    speedup: Vec<f64>,
}

struct WorkloadRow {
    name: String,
    kernels: usize,
    times: StageTimes,
    run_ns: f64,
    run_cycles: u64,
}

fn measure(gpu: &GpuConfig, app: &Application, budget_ms: u64) -> WorkloadRow {
    let budget = AnalysisBudget::default();
    // Access sets for the graph phase, shared across configs.
    let mut cache = AnalysisCache::for_budget(&budget);
    let (jit, _) = jit_analyze_app_par_stats(
        gpu,
        app,
        HazardMode::Raw,
        &budget,
        &mut cache,
        &ParallelConfig::reference(),
    );
    let cfgs = configs();
    // One pre-populated cache per config for the warm phase.
    let mut warm: Vec<AnalysisCache> = cfgs
        .iter()
        .map(|(_, par)| {
            let mut c = AnalysisCache::for_budget(&budget);
            jit_analyze_app_par_stats(gpu, app, HazardMode::Raw, &budget, &mut c, par);
            c
        })
        .collect();
    let (phase_ns, speedup): (Vec<[f64; 2]>, Vec<f64>) = (0..PHASES.len())
        .map(|p| paired_phase(gpu, app, &budget, &jit, &mut warm, p, &cfgs, budget_ms))
        .unzip();
    let (run_ns, run_cycles) = timed_run(gpu, app, &jit, budget_ms);
    WorkloadRow {
        name: app.name.clone(),
        kernels: jit.len(),
        times: StageTimes { phase_ns, speedup },
        run_ns,
        run_cycles,
    }
}

/// The simulated consumer(w=3) run of the analyzed `jit`, timed like a
/// phase: after a warmup run, at least [`MIN_PAIRS`] runs, more while
/// `budget_ms` lasts (at most 1000). Returns the minimum nanoseconds and
/// the run's total cycles.
fn timed_run(gpu: &GpuConfig, app: &Application, jit: &[JitKernel], budget_ms: u64) -> (f64, u64) {
    let once = || {
        let mut spec = RunSpec {
            kernels: Some(jit),
            ..RunSpec::new(ExecMode::ConsumerPriority { window: 3 })
        };
        let t0 = Instant::now();
        let report = run(gpu, black_box(app), &mut spec, &NullTracer).expect("suite runs succeed");
        (t0.elapsed().as_nanos(), report.total_cycles)
    };
    let (_, cycles) = once();
    let slice = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let (mut best, mut runs) = (u128::MAX, 0);
    while runs < MIN_PAIRS || (start.elapsed() < slice && runs < 1000) {
        best = best.min(once().0);
        runs += 1;
    }
    (best as f64, cycles)
}

/// Re-measure a flagged workload phase in more pairs (at least
/// [`MIN_PAIRS`], up to 3 s) and return the median reference/affine ratio.
fn recheck_ratio(gpu: &GpuConfig, app: &Application, phase: usize) -> f64 {
    let budget = AnalysisBudget::default();
    let cfgs = configs();
    let mut cache = AnalysisCache::for_budget(&budget);
    let (jit, _) = jit_analyze_app_par_stats(
        gpu,
        app,
        HazardMode::Raw,
        &budget,
        &mut cache,
        &ParallelConfig::reference(),
    );
    let mut warm: Vec<AnalysisCache> = cfgs
        .iter()
        .map(|(_, par)| {
            let mut c = AnalysisCache::for_budget(&budget);
            jit_analyze_app_par_stats(gpu, app, HazardMode::Raw, &budget, &mut c, par);
            c
        })
        .collect();
    paired_phase(gpu, app, &budget, &jit, &mut warm, phase, &cfgs, 3000).1
}

fn fmt_ms(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.1}us", ns / 1e3)
    }
}

fn stage_json(names: &[&str], ns: &[f64; 2], speedup: f64) -> String {
    format!(
        "{{ \"{}_ns\": {:.1}, \"{}_ns\": {:.1}, \"{}_speedup\": {speedup:.3} }}",
        names[0], ns[0], names[1], ns[1], names[1]
    )
}

fn main() {
    let scale = scale_from_args();
    let gate = std::env::args().any(|a| a == "--gate");
    let gpu = GpuConfig::titan_x_pascal();
    let budget_ms: u64 = match scale {
        Scale::Small => 60,
        Scale::Full => 250,
    };
    let mut apps: Vec<Application> = suite().into_iter().map(|b| (b.build)(scale)).collect();
    apps.push(vectoradd::build(512));
    let names: Vec<&str> = configs().iter().map(|(n, _)| *n).collect();

    println!(
        "perf_analysis ({:?}): phase times per config {:?}",
        scale, names
    );
    let mut rows = Vec::new();
    for app in &apps {
        eprintln!("  measuring {}...", app.name);
        let row = measure(&gpu, app, budget_ms);
        let phases: Vec<String> = PHASES
            .iter()
            .zip(&row.times.phase_ns)
            .map(|(phase, ns)| {
                format!(
                    "{phase}[{}]",
                    ns.iter().map(|&v| fmt_ms(v)).collect::<Vec<_>>().join(" ")
                )
            })
            .collect();
        println!(
            "{:<16} kernels={:<3} {} run={}",
            row.name,
            row.kernels,
            phases.join(" "),
            fmt_ms(row.run_ns),
        );
        rows.push(row);
    }

    // Geomean of the median paired speedups vs reference, per phase.
    println!("geomean speedup vs reference:");
    let mut geo: Vec<(String, f64)> = Vec::new();
    for (p, phase) in PHASES.iter().enumerate() {
        let affine = geomean(&rows.iter().map(|r| r.times.speedup[p]).collect::<Vec<_>>());
        println!("  {phase:<8} affine {affine:.2}x");
        geo.push((format!("{phase}_affine"), affine));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bm-bench/perf_analysis/v3\",\n");
    json.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        match scale {
            Scale::Small => "small",
            Scale::Full => "full",
        }
    ));
    json.push_str(&format!(
        "  \"configs\": [{}],\n",
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"workloads\": [\n");
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let phases: Vec<String> = PHASES
                .iter()
                .enumerate()
                .map(|(p, phase)| {
                    let json = stage_json(&names, &r.times.phase_ns[p], r.times.speedup[p]);
                    format!("\"{phase}\": {json}")
                })
                .collect();
            format!(
                "    {{ \"name\": \"{}\", \"kernels\": {}, {}, \"run_ns\": {:.1}, \"run_cycles\": {} }}",
                r.name,
                r.kernels,
                phases.join(", "),
                r.run_ns,
                r.run_cycles,
            )
        })
        .collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str(&format!(
        "  \"geomean_speedup\": {{ {} }}\n",
        geo.iter()
            .map(|(k, v)| format!("\"{k}\": {v:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analysis.json");
    std::fs::write(path, &json).expect("write BENCH_analysis.json");
    println!("wrote {path}");

    if gate {
        let mut violations = Vec::new();
        for (ri, r) in rows.iter().enumerate() {
            for (p, phase) in PHASES.iter().enumerate() {
                if r.times.phase_ns[p][0] < GATE_FLOOR_NS {
                    continue;
                }
                let name = names[1];
                let ratio = r.times.speedup[p];
                if ratio >= GATE_MIN_RATIO {
                    continue;
                }
                // Confirm before failing: re-measure this phase in more
                // pairs so a transient load spike during the main sweep
                // can't fail CI on its own.
                eprintln!(
                    "gate: re-checking {}: {phase} under {name} ({ratio:.2}x in main sweep)",
                    r.name
                );
                let confirmed = recheck_ratio(&gpu, &apps[ri], p);
                if confirmed < GATE_MIN_RATIO {
                    violations.push(format!(
                        "{}: {phase} under {name} is {confirmed:.2}x of reference \
                         on re-measure ({ratio:.2}x in main sweep)",
                        r.name,
                    ));
                } else {
                    eprintln!(
                        "gate: {}: {phase} under {name} resolved on re-measure \
                         ({confirmed:.2}x)",
                        r.name
                    );
                }
            }
        }
        if violations.is_empty() {
            println!(
                "gate: ok — no config below {GATE_MIN_RATIO}x of reference on any phase \
                 (floor {})",
                fmt_ms(GATE_FLOOR_NS)
            );
        } else {
            for v in &violations {
                eprintln!("gate violation: {v}");
            }
            std::process::exit(1);
        }
    }
}
