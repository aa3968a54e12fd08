//! Extension experiment: sensitivity of BlockMaestro's benefit to the two
//! architectural parameters the paper's numbers hinge on — the kernel
//! launch overhead (5 µs from ref.\[27\]; prior work reports 5–30 µs) and the
//! number of SMs.
//!
//! Usage: `cargo run --release -p bm-bench --bin ext_sensitivity [-- --small]`

use blockmaestro::{jit_analyze_app, run, ExecMode, RunSpec};
use bm_bench::{geomean, print_row, scale_from_args};
use bm_depgraph::HazardMode;
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::suite;

fn geomean_speedup(cfg: &GpuConfig, scale: bm_workloads::Scale) -> f64 {
    let mut speedups = Vec::new();
    for b in suite() {
        let app = (b.build)(scale);
        let jit = jit_analyze_app(cfg, &app, HazardMode::Raw);
        let run_mode = |mode| {
            let mut spec = RunSpec {
                kernels: Some(&jit),
                ..RunSpec::new(mode)
            };
            run(cfg, &app, &mut spec, &NullTracer).unwrap_or_else(|e| panic!("{}: {e}", app.name))
        };
        let base = run_mode(ExecMode::Baseline);
        let bm = run_mode(ExecMode::ConsumerPriority { window: 4 });
        speedups.push(base.total_cycles as f64 / bm.total_cycles as f64);
    }
    geomean(&speedups)
}

fn main() {
    let scale = scale_from_args();
    eprintln!("Extension: sensitivity analysis ({scale:?})");
    println!("launch-overhead sweep (28 SMs):");
    print_row(&["launch us".into(), "geomean speedup".into()], 16);
    for us in [1u64, 2, 5, 10, 20, 30] {
        let mut cfg = GpuConfig::titan_x_pascal();
        cfg.kernel_launch_cycles = us * 1_000;
        cfg.launch_api_cycles = (us * 1_000 * 2 / 5).max(400);
        let g = geomean_speedup(&cfg, scale);
        print_row(&[us.to_string(), format!("{g:.3}")], 16);
    }
    println!();
    println!("SM-count sweep (5 us launch):");
    print_row(&["SMs".into(), "geomean speedup".into()], 16);
    for sms in [14u32, 28, 56] {
        let mut cfg = GpuConfig::titan_x_pascal();
        cfg.num_sms = sms;
        let g = geomean_speedup(&cfg, scale);
        print_row(&[sms.to_string(), format!("{g:.3}")], 16);
    }
    println!();
    println!(
        "Expected shape: benefit grows with launch overhead (the masked\n\
         quantity) and with SM count (more slots for run-ahead TBs)."
    );
}
