//! Figure 12: interconnectivity analysis. Two equal-size VectorAdd
//! kernels; the dependency between them is artificially replaced with an
//! n-group fully-connected pattern of increasing degree, for several
//! workload sizes (TBs per kernel). Reported value: speedup of
//! BlockMaestro (producer priority) over the baseline.
//!
//! Usage: `cargo run --release -p bm-bench --bin fig12_interconnectivity`

use blockmaestro::{jit_analyze_app, run, ExecMode, RunSpec};
use bm_bench::print_row;
use bm_depgraph::{storage, HazardMode, Pattern};
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::vectoradd;

/// Hardware counter fallback threshold (6-bit counters, §IV-C).
const DEGRADE_ABOVE: u32 = 63;

fn main() {
    let cfg = GpuConfig::titan_x_pascal();
    let sizes = [256u32, 512, 1024, 2048];
    let degrees = [1u32, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    eprintln!("Figure 12: VectorAdd degree sweep (speedup over baseline)");
    let mut header = vec!["degree".to_string()];
    header.extend(sizes.iter().map(|s| format!("{s} TBs")));
    print_row(&header, 10);
    for &deg in &degrees {
        let mut row = vec![deg.to_string()];
        for &n_tbs in &sizes {
            if deg > n_tbs {
                row.push("-".into());
                continue;
            }
            let app = vectoradd::build(n_tbs);
            let mut jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
            // Inject the synthetic dependency pattern (paper §IV-C).
            let mut graph = vectoradd::synthetic_degree_graph(n_tbs, deg);
            if graph.max_child_degree() > DEGRADE_ABOVE {
                graph.degrade_to_fully_connected();
            }
            let st = storage(&graph);
            jit[1].encoded = !matches!(st.pattern, Pattern::Irregular);
            jit[1].graph = graph;
            jit[1].storage = st;
            let run_mode = |mode| {
                let mut spec = RunSpec {
                    kernels: Some(&jit),
                    ..RunSpec::new(mode)
                };
                run(&cfg, &app, &mut spec, &NullTracer)
                    .unwrap_or_else(|e| panic!("{}: {e}", app.name))
            };
            let base = run_mode(ExecMode::Baseline);
            let bm = run_mode(ExecMode::ProducerPriority { window: 2 });
            row.push(format!(
                "{:.3}",
                bm_simt::stats::speedup(base.total_cycles, bm.total_cycles)
            ));
        }
        print_row(&row, 10);
    }
    println!();
    println!(
        "paper reference: benefits deteriorate once the dependency degree\n\
         passes ~32 (6-bit counters degrade to fully-connected at >63);\n\
         speedup also shrinks as the workload grows and vanishes by 2048 TBs"
    );
}
