//! Quickstart: write two dependent kernels in mini-PTX, let BlockMaestro
//! extract the inter-kernel thread-block dependency graph at launch time,
//! and compare baseline vs. pre-launched execution.
//!
//! Run with: `cargo run --release --example quickstart`

use blockmaestro::{check_schedule, run, BmError, ExecMode, RunSpec};
use bm_cmdq::{ApiCall, Application};
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::parser::parse_kernel;
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use std::collections::HashMap;
use std::sync::Arc;

fn main() -> Result<(), BmError> {
    // A SAXPY-style kernel: Y[i] = 2*X[i] + 1.
    let kernel = Arc::new(
        parse_kernel(
            r#".entry saxpy(.param .u64 X, .param .u64 Y)
            {
              ld.param.u64 %rd1, [X];
              ld.param.u64 %rd2, [Y];
              mov.u32 %r1, %ctaid.x;
              mov.u32 %r2, %ntid.x;
              mov.u32 %r3, %tid.x;
              mad.lo.u32 %r4, %r1, %r2, %r3;
              mul.wide.u32 %rd3, %r4, 4;
              add.u64 %rd4, %rd1, %rd3;
              ld.global.f32 %f1, [%rd4];
              fma.rn.f32 %f2, %f1, 0f40000000, 0f3F800000;
              add.u64 %rd5, %rd2, %rd3;
              st.global.f32 [%rd5], %f2;
              ret;
            }"#,
        )
        .expect("kernel parses"),
    );

    // Device allocations and a two-kernel chain A -> B -> C.
    let n = 64 * 1024u64;
    let mut space = AddressSpace::new();
    let a = space.alloc(4 * n);
    let b = space.alloc(4 * n);
    let c = space.alloc(4 * n);
    let grid = Dim3::x((n / 256) as u32);
    let block = Dim3::x(256);
    let mut host_data = HashMap::new();
    host_data.insert(a.id, (0..n).map(|i| i as f32).collect::<Vec<_>>());
    let app = Application {
        name: "quickstart".into(),
        space,
        calls: vec![
            ApiCall::Malloc { alloc: a.id },
            ApiCall::Malloc { alloc: b.id },
            ApiCall::Malloc { alloc: c.id },
            ApiCall::MemcpyH2D {
                alloc: a.id,
                bytes: 4 * n,
            },
            ApiCall::KernelLaunch(Launch::new(
                kernel.clone(),
                grid,
                block,
                vec![ArgValue::Ptr(a.base), ArgValue::Ptr(b.base)],
            )),
            ApiCall::KernelLaunch(Launch::new(
                kernel,
                grid,
                block,
                vec![ArgValue::Ptr(b.base), ArgValue::Ptr(c.base)],
            )),
            ApiCall::MemcpyD2H {
                alloc: c.id,
                bytes: 4 * n,
            },
        ],
        host_data,
    };

    let cfg = GpuConfig::titan_x_pascal();
    let baseline = run(
        &cfg,
        &app,
        &mut RunSpec::new(ExecMode::Baseline),
        &NullTracer,
    )?;
    let mode = ExecMode::ConsumerPriority { window: 2 };
    let bm = run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer)?;

    println!("kernels               : {}", bm.num_kernels);
    println!(
        "detected patterns     : {:?}",
        bm.patterns
            .iter()
            .map(|(_, p)| p.to_string())
            .collect::<Vec<_>>()
    );
    println!(
        "baseline              : {} cycles ({:.1} us)",
        baseline.total_cycles,
        cfg.cycles_to_us(baseline.total_cycles)
    );
    println!(
        "blockmaestro          : {} cycles ({:.1} us)",
        bm.total_cycles,
        cfg.cycles_to_us(bm.total_cycles)
    );
    println!(
        "speedup               : {:.3}x",
        baseline.total_cycles as f64 / bm.total_cycles as f64
    );

    // Architectural invisibility: the overlapped schedule computes the same
    // memory image as serialized execution.
    let eq = check_schedule(&app, &bm.schedule).expect("schedule replays");
    println!("correctness           : {eq}");
    assert!(eq.is_match());
    Ok(())
}
