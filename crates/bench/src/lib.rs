//! # bm-bench — evaluation harnesses
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p bm-bench --bin <name> [-- --small]`), plus
//! Criterion microbenchmarks of the toolchain itself.
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `fig09_speedup` | Fig. 9 normalized speedups |
//! | `fig10_concurrency` | Fig. 10 normalized average TB concurrency |
//! | `fig11_stall_distribution` | Fig. 11 dependency-stall box plots |
//! | `fig12_interconnectivity` | Fig. 12 degree sweep on VectorAdd |
//! | `fig13_memory_overhead` | Fig. 13 memory-request overhead |
//! | `fig14_comparison` | Fig. 14 CDP / Wireframe comparison |
//! | `table1_encoding` | Table I encoding overheads |
//! | `table2_benchmarks` | Table II inventory + measured patterns |
//! | `table3_storage` | Table III normalized graph storage |
//! | `table_area` | §IV-C hardware area |

use blockmaestro::{jit_analyze_app, run, ExecMode, JitKernel, RunReport, RunSpec};
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::{suite, Scale};

/// Results of running one application under the baseline plus all Fig. 9
/// variants, sharing a single JIT analysis pass.
#[derive(Debug)]
pub struct AppResults {
    /// Application name.
    pub name: String,
    /// Baseline run.
    pub baseline: RunReport,
    /// `(mode, report)` for each Fig. 9 variant, in presentation order.
    pub variants: Vec<(ExecMode, RunReport)>,
    /// The shared JIT analysis.
    pub jit: Vec<JitKernel>,
}

impl AppResults {
    /// The report for `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` was not among the variants run.
    pub fn report(&self, mode: ExecMode) -> &RunReport {
        self.variants
            .iter()
            .find(|(m, _)| *m == mode)
            .map(|(_, r)| r)
            .expect("mode was run")
    }

    /// Speedup of `mode` over the baseline (total execution time).
    pub fn speedup(&self, mode: ExecMode) -> f64 {
        bm_simt::stats::speedup(self.baseline.total_cycles, self.report(mode).total_cycles)
    }

    /// Normalized average TB concurrency of `mode` w.r.t. baseline.
    pub fn concurrency_ratio(&self, mode: ExecMode) -> f64 {
        if self.baseline.avg_concurrency == 0.0 {
            1.0
        } else {
            self.report(mode).avg_concurrency / self.baseline.avg_concurrency
        }
    }
}

/// Runs one application under baseline + all Fig. 9 variants, sharing
/// one analysis.
///
/// # Panics
///
/// If a run fails; no suite application does.
pub fn run_all_modes(cfg: &GpuConfig, app: &Application) -> AppResults {
    let jit = jit_analyze_app(cfg, app, HazardMode::Raw);
    let run_mode = |mode| {
        let mut spec = RunSpec {
            kernels: Some(&jit),
            ..RunSpec::new(mode)
        };
        run(cfg, app, &mut spec, &NullTracer).unwrap_or_else(|e| panic!("{}: {e}", app.name))
    };
    let baseline = run_mode(ExecMode::Baseline);
    let variants = ExecMode::figure9_variants()
        .into_iter()
        .map(|m| (m, run_mode(m)))
        .collect();
    AppResults {
        name: app.name.clone(),
        baseline,
        variants,
        jit,
    }
}

/// Runs the whole Table II suite at `scale`.
pub fn run_suite(cfg: &GpuConfig, scale: Scale) -> Vec<AppResults> {
    suite()
        .into_iter()
        .map(|b| {
            let app = (b.build)(scale);
            eprintln!("  running {} ({} kernels)...", b.name, app.num_kernels());
            run_all_modes(cfg, &app)
        })
        .collect()
}

/// Parses the common `--small` CLI flag.
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--small") {
        Scale::Small
    } else {
        Scale::Full
    }
}

/// Prints a row of `cells` padded to `width` characters each.
pub fn print_row(cells: &[String], width: usize) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>width$}")).collect();
    println!("{}", line.join(" "));
}

/// Geometric mean helper re-exported for binaries.
pub fn geomean(values: &[f64]) -> f64 {
    bm_simt::stats::geomean(values)
}
