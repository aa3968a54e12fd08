//! Fault-tolerant execution demo: corrupt launch-time analysis products
//! and dependency hardware on purpose, and watch the runtime soundness
//! guard detect the damage, quarantine the offending kernel, and re-run
//! to the exact serialized result.
//!
//! ```bash
//! cargo run --release --example fault_tolerance
//! ```

use blockmaestro::{
    check_schedule, corrupt_access_set, jit_analyze_app, random_plan, run, ExecMode, FaultClass,
    FaultRng, RunSpec,
};
use bm_cmdq::{ApiCall, Application};
use bm_depgraph::HazardMode;
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::parser::parse_kernel;
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use std::collections::HashMap;
use std::sync::Arc;

fn chain_app() -> Application {
    let tbs = 8u32;
    let n = tbs as u64 * 64;
    let mut space = AddressSpace::new();
    let allocs: Vec<_> = (0..4).map(|_| space.alloc(4 * n)).collect();
    let k = Arc::new(
        parse_kernel(
            r#".entry step(.param .u64 X, .param .u64 Y) {
                 ld.param.u64 %rd1, [X];
                 ld.param.u64 %rd2, [Y];
                 mov.u32 %r1, %ctaid.x;
                 mov.u32 %r2, %ntid.x;
                 mov.u32 %r3, %tid.x;
                 mad.lo.u32 %r4, %r1, %r2, %r3;
                 mul.wide.u32 %rd3, %r4, 4;
                 add.u64 %rd4, %rd1, %rd3;
                 ld.global.f32 %f1, [%rd4];
                 add.f32 %f2, %f1, 0f3F800000;
                 add.u64 %rd5, %rd2, %rd3;
                 st.global.f32 [%rd5], %f2;
                 ret;
               }"#,
        )
        .unwrap(),
    );
    let mut host_data = HashMap::new();
    host_data.insert(
        allocs[0].id,
        (0..n).map(|i| i as f32 * 0.25).collect::<Vec<_>>(),
    );
    let mut calls = vec![ApiCall::MemcpyH2D {
        alloc: allocs[0].id,
        bytes: 4 * n,
    }];
    calls.extend((0..3).map(|i| {
        ApiCall::KernelLaunch(Launch::new(
            k.clone(),
            Dim3::x(tbs),
            Dim3::x(64),
            vec![
                ArgValue::Ptr(allocs[i].base),
                ArgValue::Ptr(allocs[i + 1].base),
            ],
        ))
    }));
    Application {
        name: "fault-demo".into(),
        space,
        calls,
        host_data,
    }
}

fn main() {
    let cfg = GpuConfig::small();
    let app = chain_app();
    let mode = ExecMode::ConsumerPriority { window: 2 };

    // 1. Clean guarded run: the guard verifies and stays silent.
    println!("== clean run ==");
    let mut spec = RunSpec {
        guard: true,
        ..RunSpec::new(mode)
    };
    let report = run(&cfg, &app, &mut spec, &NullTracer).expect("clean run");
    println!(
        "cycles {}  violations {}  quarantined {}  rounds {}",
        report.kernel_region_cycles,
        report.guard.violations_detected,
        report.guard.kernels_quarantined,
        report.guard.recovery_rounds,
    );

    // 2. Corrupt kernel 1's declared access set: its TBs now touch bytes
    //    outside what launch-time analysis claims, which is exactly the
    //    lie the soundness guard exists to catch.
    println!("\n== corrupted access set ==");
    let mut jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
    assert!(corrupt_access_set(&mut jit, 1, HazardMode::Raw));
    let mut spec = RunSpec {
        guard: true,
        kernels: Some(&jit),
        ..RunSpec::new(mode)
    };
    let report = run(&cfg, &app, &mut spec, &NullTracer).expect("guard must recover");
    println!(
        "violations {}  quarantined {}  rounds {}  cycles lost {}",
        report.guard.violations_detected,
        report.guard.kernels_quarantined,
        report.guard.recovery_rounds,
        report.guard.cycles_lost_to_fallback,
    );
    let eq = check_schedule(&app, &report.schedule).unwrap();
    println!("recovered schedule: {eq}");

    // 3. Drop a dependency-list edge in hardware: the consumer TB is
    //    never released, the DES watchdog reports the deadlock, and the
    //    guard falls back to barrier execution.
    println!("\n== dropped dependency edge ==");
    let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
    let plan = random_plan(FaultClass::DropChild, &jit, &mut FaultRng::new(7)).unwrap();
    let mut spec = RunSpec {
        guard: true,
        fault: plan,
        kernels: Some(&jit),
        ..RunSpec::new(mode)
    };
    let report =
        run(&cfg, &app, &mut spec, &NullTracer).expect("guard must recover from the deadlock");
    println!(
        "violations {}  quarantined {}  rounds {}  cycles lost {}",
        report.guard.violations_detected,
        report.guard.kernels_quarantined,
        report.guard.recovery_rounds,
        report.guard.cycles_lost_to_fallback,
    );
    let eq = check_schedule(&app, &report.schedule).unwrap();
    println!("recovered schedule: {eq}");
}
