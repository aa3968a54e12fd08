//! Microbenchmarks of the BlockMaestro toolchain itself: parsing,
//! launch-time analysis, dependency-graph construction (fast vs. naive),
//! and the full engine.
//!
//! Uses a small std-only harness (`harness = false`) so the workspace
//! builds hermetically without crates.io access. Run with
//! `cargo bench -p bm-bench`.

use std::hint::black_box;
use std::time::Instant;

use blockmaestro::{jit_analyze_app, run, ExecMode, RunSpec};
use bm_depgraph::interval_index::IntervalIndex;
use bm_depgraph::{build_graph, build_graph_naive, HazardMode};
use bm_ptx::absint::{analyze_launch, try_analyze_launch_fueled_par};
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::par::ParallelConfig;
use bm_ptx::parser::parse_kernel;
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::{hotspot, vectoradd, Scale};
use std::sync::Arc;

const VECADD_SRC: &str = r#"
.entry vecadd(.param .u64 A, .param .u64 B, .param .u64 C, .param .u32 n)
{
  ld.param.u64 %rd1, [A];
  ld.param.u64 %rd2, [B];
  ld.param.u64 %rd3, [C];
  ld.param.u32 %r9, [n];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mad.lo.u32 %r4, %r1, %r2, %r3;
  setp.ge.u32 %p1, %r4, %r9;
  @%p1 bra $DONE;
  mul.wide.u32 %rd4, %r4, 4;
  add.u64 %rd5, %rd1, %rd4;
  ld.global.f32 %f1, [%rd5];
  add.u64 %rd6, %rd2, %rd4;
  ld.global.f32 %f2, [%rd6];
  add.f32 %f3, %f1, %f2;
  add.u64 %rd7, %rd3, %rd4;
  st.global.f32 [%rd7], %f3;
$DONE:
  ret;
}
"#;

/// Times `f` with warmup and enough iterations to cross a 200 ms budget,
/// printing a criterion-style mean-per-iteration line.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    // Warmup and single-shot estimate.
    let t0 = Instant::now();
    black_box(f());
    let est = t0.elapsed();
    let iters = (200_000_000u128 / est.as_nanos().max(1)).clamp(1, 100_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let total = start.elapsed();
    let per_iter = total.as_nanos() / iters as u128;
    let (val, unit) = if per_iter >= 1_000_000 {
        (per_iter as f64 / 1e6, "ms")
    } else if per_iter >= 1_000 {
        (per_iter as f64 / 1e3, "us")
    } else {
        (per_iter as f64, "ns")
    };
    println!("{name:<40} {val:>10.2} {unit}/iter   ({iters} iters)");
}

fn bench_parser() {
    bench("parse_vecadd", || {
        parse_kernel(black_box(VECADD_SRC)).unwrap()
    });
}

fn bench_value_range_analysis() {
    let kernel = Arc::new(parse_kernel(VECADD_SRC).unwrap());
    for tbs in [64u32, 512] {
        let launch = Launch::new(
            kernel.clone(),
            Dim3::x(tbs),
            Dim3::x(256),
            vec![
                ArgValue::Ptr(0x10000),
                ArgValue::Ptr(0x200000),
                ArgValue::Ptr(0x400000),
                ArgValue::U32(tbs * 256),
            ],
        );
        bench(&format!("analyze_launch/{tbs}tbs"), || {
            analyze_launch(black_box(&launch))
        });
    }
}

/// The affine fast path vs. full per-TB interpretation on the same launch:
/// `reference` interprets every TB, `affine` interprets a handful of
/// anchors and synthesizes the rest by translation.
fn bench_affine_fastpath() {
    let kernel = Arc::new(parse_kernel(VECADD_SRC).unwrap());
    for tbs in [64u32, 512] {
        let launch = Launch::new(
            kernel.clone(),
            Dim3::x(tbs),
            Dim3::x(256),
            vec![
                ArgValue::Ptr(0x10000),
                ArgValue::Ptr(0x200000),
                ArgValue::Ptr(0x400000),
                ArgValue::U32(tbs * 256),
            ],
        );
        for (name, par) in [
            ("reference", ParallelConfig::reference()),
            ("affine", ParallelConfig::serial()),
        ] {
            bench(&format!("analyze_launch_{name}/{tbs}tbs"), || {
                let mut fuel = u64::MAX;
                try_analyze_launch_fueled_par(black_box(&launch), &mut fuel, &par).unwrap()
            });
        }
    }
}

/// Interval-index build + stabbing queries — the sweep structure behind
/// the scalable graph builder.
fn bench_interval_index() {
    let items: Vec<(u64, u64, u32)> = (0..1024u64)
        .map(|i| (i * 256, i * 256 + 320, i as u32)) // overlapping stencil halos
        .collect();
    bench("interval_index/build/1024", || {
        IntervalIndex::build(black_box(items.clone()))
    });
    let idx = IntervalIndex::build(items);
    bench("interval_index/query_sweep/1024", || {
        let mut hits = 0u64;
        for i in 0..1024u64 {
            idx.query(i * 256, i * 256 + 256, &mut |_| hits += 1);
        }
        hits
    });
}

fn bench_graph_builders() {
    // Stencil-shaped access sets: a case with real edge structure.
    let kernel = Arc::new(parse_kernel(VECADD_SRC).unwrap());
    let mk = |base: u64, tbs: u32| {
        let launch = Launch::new(
            kernel.clone(),
            Dim3::x(tbs),
            Dim3::x(256),
            vec![
                ArgValue::Ptr(base),
                ArgValue::Ptr(base + 0x100_0000),
                ArgValue::Ptr(base + 0x200_0000),
                ArgValue::U32(tbs * 256),
            ],
        );
        analyze_launch(&launch)
    };
    let parent = mk(0x10000, 256);
    let child = Launch::new(
        kernel.clone(),
        Dim3::x(256),
        Dim3::x(256),
        vec![
            ArgValue::Ptr(0x10000 + 0x200_0000), // reads what parent wrote
            ArgValue::Ptr(0x10000),
            ArgValue::Ptr(0x900_0000),
            ArgValue::U32(256 * 256),
        ],
    );
    let child = analyze_launch(&child);
    bench("build_graph/sweep/256x256", || {
        build_graph(black_box(&parent), black_box(&child), HazardMode::Raw)
    });
    bench("build_graph/naive/256x256", || {
        build_graph_naive(black_box(&parent), black_box(&child), HazardMode::Raw)
    });
}

fn bench_engine() {
    let cfg = GpuConfig::titan_x_pascal();
    let app = hotspot::build(Scale::Small);
    let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
    bench("jit_analyze/hotspot_small", || {
        jit_analyze_app(black_box(&cfg), black_box(&app), HazardMode::Raw)
    });
    bench("engine_run/hotspot_small", || {
        let mut spec = RunSpec {
            kernels: Some(black_box(&jit)),
            ..RunSpec::new(ExecMode::ConsumerPriority { window: 3 })
        };
        run(black_box(&cfg), black_box(&app), &mut spec, &NullTracer)
    });
}

/// Ablation of the design choices §III-E calls out: scheduling policy and
/// pre-launch window depth on a dependency-heavy workload.
fn bench_ablation_policies() {
    let cfg = GpuConfig::titan_x_pascal();
    let app = vectoradd::build(512);
    let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
    for mode in [
        ExecMode::Baseline,
        ExecMode::PreLaunch { window: 2 },
        ExecMode::ProducerPriority { window: 2 },
        ExecMode::ConsumerPriority { window: 2 },
        ExecMode::ConsumerPriority { window: 4 },
    ] {
        bench(&format!("ablation_policies/{mode}"), || {
            let mut spec = RunSpec {
                kernels: Some(black_box(&jit)),
                ..RunSpec::new(mode)
            };
            run(black_box(&cfg), black_box(&app), &mut spec, &NullTracer)
        });
    }
}

fn main() {
    bench_parser();
    bench_value_range_analysis();
    bench_affine_fastpath();
    bench_interval_index();
    bench_graph_builders();
    bench_engine();
    bench_ablation_policies();
}
