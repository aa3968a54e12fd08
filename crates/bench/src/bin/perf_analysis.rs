//! Tracked performance harness for the launch-time analysis toolchain.
//!
//! Times the pipeline phase by phase — per-launch access-set analysis
//! (absint), representative-TB tracing, dependency-graph construction,
//! the full cold JIT pipeline, and the warm-cache replay — for every
//! Table II workload plus a 512-TB VectorAdd, under two configurations:
//!
//! * `reference`  — every fast path off (the correctness baseline);
//! * `affine`     — affine memoization + lane law + trace memo, the
//!   configuration every user path runs.
//!
//! Each configuration also reports the copy-on-write bytes its trace
//! phase actually duplicates — the real cost of scratch cloning.
//!
//! Results are printed as a table and written as JSON (schema
//! `bm-bench/perf_analysis/v2`) to `BENCH_analysis.json` at the
//! repository root so successive commits can be compared. Run with:
//!
//! ```text
//! cargo run --release -p bm-bench --bin perf_analysis [-- --small] [-- --gate]
//! ```
//!
//! With `--gate`, exits nonzero if any configuration falls below 0.9x of
//! the reference on any phase (ignoring sub-200µs phases, which are noise
//! at `--small` scale). Suspected violations are re-measured in a tight
//! reference/candidate interleave before they count, so transient machine
//! load can't fail CI on its own — the no-regression gate.

use std::hint::black_box;
use std::time::Instant;

use blockmaestro::jit::try_profile_launch_limited;
use blockmaestro::{
    jit_analyze_app_par_stats, run, scratch_memory, try_profile_launch_law, AnalysisBudget,
    AnalysisCache, ExecMode, JitKernel, ParallelConfig, RunSpec,
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
    let t0 = Instant::now();
    match phase {
        0 => absint_pass(app, budget, par),
        1 => {
            black_box(trace_pass(gpu, app, budget, par));
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

/// Minimum wall-clock nanoseconds over repeated runs of one phase: one
/// warmup call, then as many timed calls as fit in `budget_ms` (at least
/// 3, at most 1000).
///
/// OS noise on a shared box is strictly additive (preemption, cache
/// pollution), so the minimum is a far more stable estimator of the true
/// cost than the mean — a single 10x scheduler stall would otherwise skew
/// an entire phase and trip the regression gate spuriously.
#[allow(clippy::too_many_arguments)]
fn min_phase_ns(
    gpu: &GpuConfig,
    app: &Application,
    budget: &AnalysisBudget,
    jit: &[JitKernel],
    warm: &mut AnalysisCache,
    phase: usize,
    par: &ParallelConfig,
    budget_ms: u64,
) -> f64 {
    phase_once(gpu, app, budget, jit, warm, phase, par);
    let slice = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut iters: u32 = 0;
    let mut best = u128::MAX;
    while iters < 3 || (start.elapsed() < slice && iters < 1000) {
        best = best.min(phase_once(gpu, app, budget, jit, warm, phase, par));
        iters += 1;
    }
    best as f64
}

/// One absint pass over every launch of `app` (fresh fuel per launch, no
/// caching) — the pure access-set analysis phase.
fn absint_pass(app: &Application, budget: &AnalysisBudget, par: &ParallelConfig) {
    for launch in app.launches() {
        let mut fuel = budget.absint_fuel;
        black_box(try_analyze_launch_fueled_par(black_box(launch), &mut fuel, par).ok());
    }
}

/// One representative-TB trace per launch, through the path the given
/// config takes in the JIT pipeline: the reference interprets every lane
/// on a shared mutable scratch; fast configs run the warp lane law on
/// private copy-on-write clones of a shared scratch (which law-hostile
/// launches mutate directly, like the reference). Returns the CoW bytes
/// the pass duplicated.
fn trace_pass(
    gpu: &GpuConfig,
    app: &Application,
    budget: &AnalysisBudget,
    par: &ParallelConfig,
) -> u64 {
    let base = scratch_memory(app);
    let before = base.cow_copied_bytes();
    if par.fast_paths {
        let mut scratch = base.clone();
        for launch in app.launches() {
            black_box(try_profile_launch_law(gpu, launch, &mut scratch, budget.trace_steps).ok());
        }
    } else {
        let mut scratch = base.clone();
        for launch in app.launches() {
            black_box(
                try_profile_launch_limited(gpu, launch, &mut scratch, budget.trace_steps).ok(),
            );
        }
    }
    base.cow_copied_bytes() - before
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
    phase_ns: Vec<Vec<f64>>,
    /// CoW bytes duplicated by one trace pass, per config.
    scratch_cow_bytes: Vec<u64>,
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
    // Interleave configs across measurement rounds so slow machine drift
    // (thermal throttling, background load ramping up) lands on every
    // config instead of systematically penalising whichever one happens
    // to be measured last. Each (phase, config) cell keeps the minimum
    // over all rounds.
    let mut phase_ns: Vec<Vec<f64>> = PHASES
        .iter()
        .map(|_| vec![f64::INFINITY; cfgs.len()])
        .collect();
    const ROUNDS: u64 = 3;
    let slice_ms = (budget_ms / ROUNDS).max(1);
    for _ in 0..ROUNDS {
        for (ci, (_, par)) in cfgs.iter().enumerate() {
            for (p, cell) in phase_ns.iter_mut().enumerate() {
                let t = min_phase_ns(gpu, app, &budget, &jit, &mut warm[ci], p, par, slice_ms);
                cell[ci] = cell[ci].min(t);
            }
        }
    }
    let scratch_cow_bytes: Vec<u64> = cfgs
        .iter()
        .map(|(_, par)| trace_pass(gpu, app, &budget, par))
        .collect();
    let t0 = Instant::now();
    let mut spec = RunSpec {
        kernels: Some(&jit),
        ..RunSpec::new(ExecMode::ConsumerPriority { window: 3 })
    };
    let report = run(gpu, app, &mut spec, &NullTracer).expect("suite runs succeed");
    let run_ns = t0.elapsed().as_nanos() as f64;
    WorkloadRow {
        name: app.name.clone(),
        kernels: jit.len(),
        times: StageTimes {
            phase_ns,
            scratch_cow_bytes,
        },
        run_ns,
        run_cycles: report.total_cycles,
    }
}

/// Re-measure a flagged (workload, phase, config) pair in a tight
/// reference/candidate interleave and return the reference/candidate
/// ratio.
///
/// The main measurement spends seconds per workload, so sustained
/// background load (another process ramping up mid-run) can bias every
/// sample of whichever config it overlaps, surviving even min-of-N.
/// Alternating single iterations back to back exposes both configs to
/// the same machine state, so only a real regression reproduces here.
fn recheck_ratio(
    gpu: &GpuConfig,
    app: &Application,
    phase: usize,
    par_cfg: &ParallelConfig,
) -> f64 {
    let budget = AnalysisBudget::default();
    let par_ref = ParallelConfig::reference();
    let mut cache = AnalysisCache::for_budget(&budget);
    let (jit, _) =
        jit_analyze_app_par_stats(gpu, app, HazardMode::Raw, &budget, &mut cache, &par_ref);
    let mut warm_ref = AnalysisCache::for_budget(&budget);
    jit_analyze_app_par_stats(gpu, app, HazardMode::Raw, &budget, &mut warm_ref, &par_ref);
    let mut warm_cfg = AnalysisCache::for_budget(&budget);
    jit_analyze_app_par_stats(gpu, app, HazardMode::Raw, &budget, &mut warm_cfg, par_cfg);
    let deadline = Instant::now() + std::time::Duration::from_secs(3);
    let (mut best_ref, mut best_cfg) = (u128::MAX, u128::MAX);
    let mut rounds = 0u32;
    while rounds < 8 || (Instant::now() < deadline && rounds < 64) {
        best_ref = best_ref.min(phase_once(
            gpu,
            app,
            &budget,
            &jit,
            &mut warm_ref,
            phase,
            &par_ref,
        ));
        best_cfg = best_cfg.min(phase_once(
            gpu,
            app,
            &budget,
            &jit,
            &mut warm_cfg,
            phase,
            par_cfg,
        ));
        rounds += 1;
    }
    best_ref as f64 / (best_cfg as f64).max(1.0)
}

fn fmt_ms(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.1}us", ns / 1e3)
    }
}

fn stage_json(names: &[&str], ns: &[f64]) -> String {
    let mut parts: Vec<String> = names
        .iter()
        .zip(ns)
        .map(|(n, v)| format!("\"{n}_ns\": {v:.1}"))
        .collect();
    for (i, n) in names.iter().enumerate().skip(1) {
        parts.push(format!("\"{}_speedup\": {:.3}", n, ns[0] / ns[i].max(1.0)));
    }
    format!("{{ {} }}", parts.join(", "))
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
            "{:<16} kernels={:<3} {} cow[{}] run={}",
            row.name,
            row.kernels,
            phases.join(" "),
            row.times
                .scratch_cow_bytes
                .iter()
                .map(|b| format!("{}K", b >> 10))
                .collect::<Vec<_>>()
                .join(" "),
            fmt_ms(row.run_ns),
        );
        rows.push(row);
    }

    // Geomean speedups vs reference, per phase and config.
    let speedup_of = |phase: usize, cfg: usize| -> f64 {
        geomean(
            &rows
                .iter()
                .map(|r| r.times.phase_ns[phase][0] / r.times.phase_ns[phase][cfg].max(1.0))
                .collect::<Vec<_>>(),
        )
    };
    println!("geomean speedup vs reference:");
    let mut geo: Vec<(String, f64)> = Vec::new();
    for (p, phase) in PHASES.iter().enumerate() {
        let affine = speedup_of(p, 1);
        println!("  {phase:<8} affine {affine:.2}x");
        geo.push((format!("{phase}_affine"), affine));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bm-bench/perf_analysis/v2\",\n");
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
                .zip(&r.times.phase_ns)
                .map(|(phase, ns)| format!("\"{phase}\": {}", stage_json(&names, ns)))
                .collect();
            format!(
                "    {{ \"name\": \"{}\", \"kernels\": {}, {}, \"scratch_cow_bytes\": [{}], \"run_ns\": {:.1}, \"run_cycles\": {} }}",
                r.name,
                r.kernels,
                phases.join(", "),
                r.times
                    .scratch_cow_bytes
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
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
        let cfgs = configs();
        let mut violations = Vec::new();
        for (ri, r) in rows.iter().enumerate() {
            for (p, phase) in PHASES.iter().enumerate() {
                let reference = r.times.phase_ns[p][0];
                if reference < GATE_FLOOR_NS {
                    continue;
                }
                for (c, name) in names.iter().enumerate().skip(1) {
                    let ratio = reference / r.times.phase_ns[p][c].max(1.0);
                    if ratio >= GATE_MIN_RATIO {
                        continue;
                    }
                    // Confirm before failing: re-measure this pair in a
                    // tight interleave so a transient load spike during
                    // the main sweep can't fail CI on its own.
                    eprintln!(
                        "gate: re-checking {}: {phase} under {name} ({ratio:.2}x in main sweep)",
                        r.name
                    );
                    let confirmed = recheck_ratio(&gpu, &apps[ri], p, &cfgs[c].1);
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
