//! Extension experiment: CUDA-Streams-style execution vs. BlockMaestro.
//!
//! §IV-B notes that BICG/MVT's gains are "reflective of CUDA Streams
//! benefits" but that streams cannot overlap *dependent* kernels. This
//! harness quantifies that across the whole suite: kernels are auto-
//! assigned to streams (a careful programmer's best case), and speedups
//! over the serialized baseline are compared with BlockMaestro's.
//!
//! Usage: `cargo run --release -p bm-bench --bin ext_streams [-- --small]`

use blockmaestro::{jit_analyze_app, run, run_streams, ExecMode, RunSpec, StreamAssignment};
use bm_bench::{geomean, print_row, scale_from_args};
use bm_depgraph::HazardMode;
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::suite;

fn main() {
    let cfg = GpuConfig::titan_x_pascal();
    let scale = scale_from_args();
    eprintln!("Extension: CUDA Streams vs BlockMaestro ({scale:?})");
    print_row(
        &[
            "app".into(),
            "streams".into(),
            "streams-speedup".into(),
            "bm-speedup".into(),
        ],
        16,
    );
    let mut stream_s = Vec::new();
    let mut bm_s = Vec::new();
    for b in suite() {
        let app = (b.build)(scale);
        let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        let assignment = StreamAssignment::auto(&jit, 4);
        // Normalize both against the single-stream run of the same model,
        // so host prologue costs cancel out.
        let single = run_streams(&cfg, &jit, &StreamAssignment::single(jit.len()));
        let streams = run_streams(&cfg, &jit, &assignment);
        let run_mode = |mode| {
            let mut spec = RunSpec {
                kernels: Some(&jit),
                ..RunSpec::new(mode)
            };
            run(&cfg, &app, &mut spec, &NullTracer).unwrap_or_else(|e| panic!("{}: {e}", app.name))
        };
        let base = run_mode(ExecMode::Baseline);
        let bm = run_mode(ExecMode::ConsumerPriority { window: 4 });
        let ss = single.total_cycles as f64 / streams.total_cycles as f64;
        let bs = base.kernel_region_cycles as f64 / bm.kernel_region_cycles as f64;
        stream_s.push(ss);
        bm_s.push(bs);
        print_row(
            &[
                b.name.to_string(),
                assignment.num_streams().to_string(),
                format!("{ss:.3}"),
                format!("{bs:.3}"),
            ],
            16,
        );
    }
    print_row(
        &[
            "geomean".into(),
            "".into(),
            format!("{:.3}", geomean(&stream_s)),
            format!("{:.3}", geomean(&bm_s)),
        ],
        16,
    );
    println!();
    println!(
        "Streams only help apps with data-independent kernels (BICG, MVT,\n\
         FDTD's ey/ex, FFT batches); BlockMaestro additionally overlaps\n\
         dependent kernels and masks launches, dominating everywhere."
    );
}
