//! Degenerate-input robustness: single-thread launches, one-TB grids,
//! kernel-free applications, and extreme windows must not panic or
//! deadlock anywhere in the pipeline.

use blockmaestro::{
    check_schedule, jit_analyze_app, run, try_run_app, BmError, ExecMode, JitKernel, RunSpec,
};
use bm_cmdq::{ApiCall, Application, CmdqError};
use bm_depgraph::HazardMode;
use bm_ptx::absint::analyze_launch;
use bm_ptx::error::PtxError;
use bm_ptx::interp::ExecError;
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::parser::parse_kernel;
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::{suite, Scale};
use std::collections::HashMap;
use std::sync::Arc;

fn one_store_kernel() -> Arc<bm_ptx::kernel::Kernel> {
    Arc::new(
        parse_kernel(
            r#".entry one(.param .u64 A) {
                 ld.param.u64 %rd1, [A];
                 mov.u32 %r1, %tid.x;
                 mul.wide.u32 %rd2, %r1, 4;
                 add.u64 %rd3, %rd1, %rd2;
                 st.global.f32 [%rd3], 0f3F800000;
                 ret;
               }"#,
        )
        .unwrap(),
    )
}

#[test]
fn single_thread_single_block_launch() {
    let mut space = AddressSpace::new();
    let a = space.alloc(4);
    let launch = Launch::new(
        one_store_kernel(),
        Dim3::x(1),
        Dim3::x(1),
        vec![ArgValue::Ptr(a.base)],
    );
    let acc = analyze_launch(&launch);
    assert!(!acc.non_static);
    assert_eq!(acc.per_tb.len(), 1);
    assert_eq!(acc.per_tb[0].writes.total_bytes(), 4);
    let app = Application {
        name: "tiny".into(),
        space,
        calls: vec![ApiCall::KernelLaunch(launch)],
        host_data: HashMap::new(),
    };
    let cfg = GpuConfig::titan_x_pascal();
    for mode in [ExecMode::Baseline, ExecMode::ConsumerPriority { window: 4 }] {
        let r = run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer).unwrap();
        assert_eq!(r.schedule.len(), 1);
        assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
    }
}

#[test]
fn application_without_kernels() {
    let mut space = AddressSpace::new();
    let a = space.alloc(64);
    let app = Application {
        name: "nokernels".into(),
        space,
        calls: vec![
            ApiCall::Malloc { alloc: a.id },
            ApiCall::MemcpyH2D {
                alloc: a.id,
                bytes: 64,
            },
            ApiCall::MemcpyD2H {
                alloc: a.id,
                bytes: 64,
            },
        ],
        host_data: HashMap::new(),
    };
    let cfg = GpuConfig::titan_x_pascal();
    let r = run(
        &cfg,
        &app,
        &mut RunSpec::new(ExecMode::Baseline),
        &NullTracer,
    )
    .unwrap();
    assert_eq!(r.num_kernels, 0);
    assert!(r.schedule.is_empty());
    assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
}

#[test]
fn window_larger_than_kernel_count() {
    let mut space = AddressSpace::new();
    let a = space.alloc(256);
    let k = one_store_kernel();
    let app = Application {
        name: "widewindow".into(),
        space,
        calls: vec![
            ApiCall::KernelLaunch(Launch::new(
                k.clone(),
                Dim3::x(1),
                Dim3::x(32),
                vec![ArgValue::Ptr(a.base)],
            )),
            ApiCall::KernelLaunch(Launch::new(
                k,
                Dim3::x(1),
                Dim3::x(32),
                vec![ArgValue::Ptr(a.base)],
            )),
        ],
        host_data: HashMap::new(),
    };
    let cfg = GpuConfig::titan_x_pascal();
    let r = run(
        &cfg,
        &app,
        &mut RunSpec::new(ExecMode::ConsumerPriority { window: 64 }),
        &NullTracer,
    )
    .unwrap();
    assert_eq!(r.schedule.len(), 2);
    assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
}

/// Every execution mode the engine supports, including degenerate window
/// values that must clamp rather than wedge the scheduler.
fn all_modes() -> Vec<ExecMode> {
    vec![
        ExecMode::Baseline,
        ExecMode::IdealBaseline,
        ExecMode::GraphLaunch,
        ExecMode::PreLaunch { window: 0 },
        ExecMode::PreLaunch { window: 2 },
        ExecMode::ProducerPriority { window: 0 },
        ExecMode::ProducerPriority { window: 2 },
        ExecMode::ConsumerPriority { window: 0 },
        ExecMode::ConsumerPriority { window: 3 },
    ]
}

#[test]
fn zero_tb_grid_between_real_kernels() {
    // A 0-block launch sandwiched between two real kernels: the empty
    // kernel contributes no TBs and no dependencies, and the outer RAW
    // chain must still serialize correctly in every mode.
    let mut space = AddressSpace::new();
    let a = space.alloc(4 * 32);
    let k = one_store_kernel();
    let app = Application {
        name: "zero-tb".into(),
        space,
        calls: vec![
            ApiCall::KernelLaunch(Launch::new(
                k.clone(),
                Dim3::x(1),
                Dim3::x(32),
                vec![ArgValue::Ptr(a.base)],
            )),
            ApiCall::KernelLaunch(Launch::new(
                k.clone(),
                Dim3::x(0),
                Dim3::x(32),
                vec![ArgValue::Ptr(a.base)],
            )),
            ApiCall::KernelLaunch(Launch::new(
                k,
                Dim3::x(1),
                Dim3::x(32),
                vec![ArgValue::Ptr(a.base)],
            )),
        ],
        host_data: HashMap::new(),
    };
    let cfg = GpuConfig::titan_x_pascal();
    for mode in all_modes() {
        let r = run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer).unwrap();
        assert_eq!(r.schedule.len(), 2, "{mode}: only the real TBs execute");
        let eq = check_schedule(&app, &r.schedule).unwrap();
        assert!(eq.is_match(), "{mode}: {eq}");
    }
}

#[test]
fn window_zero_behaves_as_window_one() {
    let mut space = AddressSpace::new();
    let a = space.alloc(4 * 64);
    let k = one_store_kernel();
    let app = Application {
        name: "window-zero".into(),
        space,
        calls: (0..3)
            .map(|_| {
                ApiCall::KernelLaunch(Launch::new(
                    k.clone(),
                    Dim3::x(1),
                    Dim3::x(64),
                    vec![ArgValue::Ptr(a.base)],
                ))
            })
            .collect(),
        host_data: HashMap::new(),
    };
    let cfg = GpuConfig::titan_x_pascal();
    let makes: [fn(u32) -> ExecMode; 3] = [
        |w| ExecMode::PreLaunch { window: w },
        |w| ExecMode::ProducerPriority { window: w },
        |w| ExecMode::ConsumerPriority { window: w },
    ];
    for make in makes {
        let zero = run(&cfg, &app, &mut RunSpec::new(make(0)), &NullTracer).unwrap();
        let one = run(&cfg, &app, &mut RunSpec::new(make(1)), &NullTracer).unwrap();
        assert!(check_schedule(&app, &zero.schedule).unwrap().is_match());
        assert_eq!(
            zero.kernel_region_cycles, one.kernel_region_cycles,
            "window 0 must clamp to window 1"
        );
    }
}

#[test]
fn all_non_static_kernels_fall_back_and_stay_correct() {
    // Two chained indirect-gather kernels: analysis cannot bound either
    // kernel's accesses, so both are non-static and every inter-kernel
    // graph degrades to a fully-connected barrier — which must still
    // produce the serialized memory image in every mode.
    let n = 64u64;
    let gather = Arc::new(
        parse_kernel(
            r#".entry gather(.param .u64 A, .param .u64 B) {
                 ld.param.u64 %rd1, [A];
                 ld.param.u64 %rd2, [B];
                 mov.u32 %r1, %ctaid.x;
                 mov.u32 %r2, %ntid.x;
                 mov.u32 %r3, %tid.x;
                 mad.lo.u32 %r4, %r1, %r2, %r3;
                 mul.wide.u32 %rd3, %r4, 4;
                 add.u64 %rd4, %rd1, %rd3;
                 ld.global.u32 %r5, [%rd4];
                 mul.wide.u32 %rd5, %r5, 4;
                 add.u64 %rd6, %rd1, %rd5;
                 ld.global.f32 %f1, [%rd6];
                 add.u64 %rd7, %rd2, %rd3;
                 st.global.f32 [%rd7], %f1;
                 ret;
               }"#,
        )
        .unwrap(),
    );
    let mut space = AddressSpace::new();
    let a = space.alloc(4 * n);
    let b = space.alloc(4 * n);
    let c = space.alloc(4 * n);
    // A holds the reversal permutation as raw u32 bit patterns, so
    // B[i] = A[A[i]] = bits(i): indices stay in-bounds for the second hop.
    let mut host_data = HashMap::new();
    host_data.insert(
        a.id,
        (0..n)
            .map(|i| f32::from_bits((n - 1 - i) as u32))
            .collect::<Vec<_>>(),
    );
    let app = Application {
        name: "all-non-static".into(),
        space,
        calls: vec![
            ApiCall::MemcpyH2D {
                alloc: a.id,
                bytes: 4 * n,
            },
            ApiCall::KernelLaunch(Launch::new(
                gather.clone(),
                Dim3::x(2),
                Dim3::x(32),
                vec![ArgValue::Ptr(a.base), ArgValue::Ptr(b.base)],
            )),
            ApiCall::KernelLaunch(Launch::new(
                gather,
                Dim3::x(2),
                Dim3::x(32),
                vec![ArgValue::Ptr(b.base), ArgValue::Ptr(c.base)],
            )),
        ],
        host_data,
    };
    let jit = blockmaestro::jit_analyze_app(
        &GpuConfig::titan_x_pascal(),
        &app,
        bm_depgraph::HazardMode::Raw,
    );
    assert!(jit.iter().all(|k| k.access.non_static));
    let cfg = GpuConfig::titan_x_pascal();
    for mode in all_modes() {
        let r = run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer).unwrap();
        let eq = check_schedule(&app, &r.schedule).unwrap();
        assert!(eq.is_match(), "{mode}: {eq}");
    }
}

#[test]
fn parent_degree_above_counter_max_degrades_and_stays_correct() {
    // 72 producer TBs each feed every consumer TB (stride-32 reads touch
    // all 72 producer slots): degree 72 > the 6-bit counter max of 63, so
    // the graph must degrade to fully-connected and still run correctly.
    let tbs = 72u32;
    let n = tbs as u64 * 32;
    let writer = Arc::new(
        parse_kernel(
            r#".entry w(.param .u64 A) {
                 ld.param.u64 %rd1, [A];
                 mov.u32 %r1, %ctaid.x;
                 mov.u32 %r2, %ntid.x;
                 mov.u32 %r3, %tid.x;
                 mad.lo.u32 %r4, %r1, %r2, %r3;
                 mul.wide.u32 %rd2, %r4, 4;
                 add.u64 %rd3, %rd1, %rd2;
                 st.global.f32 [%rd3], 0f3F800000;
                 ret;
               }"#,
        )
        .unwrap(),
    );
    let reader = Arc::new(
        parse_kernel(
            r#".entry r(.param .u64 A, .param .u64 B, .param .u32 n) {
                 ld.param.u64 %rd1, [A];
                 ld.param.u64 %rd2, [B];
                 ld.param.u32 %r9, [n];
                 mov.u32 %r1, 0;
                 mov.f32 %f1, 0f00000000;
               $TOP:
                 setp.ge.u32 %p1, %r1, %r9;
                 @%p1 bra $OUT;
                 mul.wide.u32 %rd3, %r1, 4;
                 add.u64 %rd4, %rd1, %rd3;
                 ld.global.f32 %f2, [%rd4];
                 add.f32 %f1, %f1, %f2;
                 add.u32 %r1, %r1, 32;
                 bra $TOP;
               $OUT:
                 mov.u32 %r5, %ctaid.x;
                 mov.u32 %r6, %ntid.x;
                 mov.u32 %r7, %tid.x;
                 mad.lo.u32 %r8, %r5, %r6, %r7;
                 mul.wide.u32 %rd5, %r8, 4;
                 add.u64 %rd6, %rd2, %rd5;
                 st.global.f32 [%rd6], %f1;
                 ret;
               }"#,
        )
        .unwrap(),
    );
    let mut space = AddressSpace::new();
    let a = space.alloc(4 * n);
    let b = space.alloc(4 * n);
    let app = Application {
        name: "high-degree".into(),
        space,
        calls: vec![
            ApiCall::KernelLaunch(Launch::new(
                writer,
                Dim3::x(tbs),
                Dim3::x(32),
                vec![ArgValue::Ptr(a.base)],
            )),
            ApiCall::KernelLaunch(Launch::new(
                reader,
                Dim3::x(tbs),
                Dim3::x(32),
                vec![
                    ArgValue::Ptr(a.base),
                    ArgValue::Ptr(b.base),
                    ArgValue::U32(n as u32),
                ],
            )),
        ],
        host_data: HashMap::new(),
    };
    let cfg = GpuConfig::titan_x_pascal();
    for mode in all_modes() {
        let r = run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer).unwrap();
        assert_eq!(r.schedule.len(), 2 * tbs as usize, "{mode}");
        let eq = check_schedule(&app, &r.schedule).unwrap();
        assert!(eq.is_match(), "{mode}: {eq}");
    }
}

#[test]
fn block_larger_than_data_guards_out_cleanly() {
    // 1024-thread block storing only via tid < grid extent: the kernel
    // writes 1024 lanes into a 1024-element buffer exactly; shrinking the
    // buffer is a functional-model bug and must panic loudly, so size it
    // exactly and check the boundary write.
    let mut space = AddressSpace::new();
    let a = space.alloc(4 * 1024);
    let launch = Launch::new(
        one_store_kernel(),
        Dim3::x(1),
        Dim3::x(1024),
        vec![ArgValue::Ptr(a.base)],
    );
    let mut mem = bm_ptx::mem::GlobalMem::for_space(&space);
    bm_ptx::interp::execute_launch(&launch, &mut mem).unwrap();
    assert_eq!(mem.read_f32(a.base + 4 * 1023), 1.0);
}

#[test]
fn wild_global_address_is_a_typed_error_not_a_panic() {
    // Y[i] = X[i + 64] over a 64-element X, the last allocation: every
    // read lands past it, where nothing is mapped. The guard's serialized
    // pass must surface that as a typed execution error.
    let wild = Arc::new(
        parse_kernel(
            r#".entry wild(.param .u64 X, .param .u64 Y) {
                 ld.param.u64 %rd1, [X];
                 ld.param.u64 %rd2, [Y];
                 mov.u32 %r1, %ctaid.x;
                 mov.u32 %r2, %ntid.x;
                 mov.u32 %r3, %tid.x;
                 mad.lo.u32 %r4, %r1, %r2, %r3;
                 add.u32 %r5, %r4, 64;
                 mul.wide.u32 %rd3, %r5, 4;
                 add.u64 %rd4, %rd1, %rd3;
                 ld.global.f32 %f1, [%rd4];
                 mul.wide.u32 %rd5, %r4, 4;
                 add.u64 %rd6, %rd2, %rd5;
                 st.global.f32 [%rd6], %f1;
                 ret;
               }"#,
        )
        .unwrap(),
    );
    let mut space = AddressSpace::new();
    let y = space.alloc(4 * 128);
    let x = space.alloc(4 * 64);
    let app = Application {
        name: "wild".into(),
        space,
        calls: vec![ApiCall::KernelLaunch(Launch::new(
            wild,
            Dim3::x(2),
            Dim3::x(64),
            vec![ArgValue::Ptr(x.base), ArgValue::Ptr(y.base)],
        ))],
        host_data: HashMap::new(),
    };
    let cfg = GpuConfig::small();
    let err = try_run_app(&cfg, &app, ExecMode::ConsumerPriority { window: 3 }).unwrap_err();
    assert!(
        matches!(
            err,
            BmError::Cmdq(CmdqError::Exec(ExecError::Unmapped { tb: 0, .. }))
        ),
        "{err}"
    );
}

/// A one-launch application of `src` over a 256-byte buffer.
fn single_kernel_app(name: &str, src: &str) -> Application {
    let kernel = Arc::new(parse_kernel(src).unwrap());
    let mut space = AddressSpace::new();
    let a = space.alloc(4 * 64);
    Application {
        name: name.into(),
        space,
        calls: vec![ApiCall::KernelLaunch(Launch::new(
            kernel,
            Dim3::x(2),
            Dim3::x(32),
            vec![ArgValue::Ptr(a.base)],
        ))],
        host_data: HashMap::new(),
    }
}

#[test]
fn shared_address_below_zero_is_a_typed_error_not_a_panic() {
    // `%r1 - 2` with `%r1 = 0` lies before shared memory.
    for access in ["ld.shared.f32 %f1, [%r1-2];", "st.shared.f32 [%r1-2], %f1;"] {
        let src = format!(
            r#".entry neg(.param .u64 A) {{
                 .shared 64;
                 mov.u32 %r1, 0;
                 {access}
                 ret;
               }}"#
        );
        let app = single_kernel_app("negative-shared", &src);
        let err = try_run_app(&GpuConfig::small(), &app, ExecMode::Baseline).unwrap_err();
        assert!(
            matches!(
                err,
                BmError::Cmdq(CmdqError::Exec(ExecError::SharedOutOfBounds { addr, size: 64 }))
                    if addr == u64::MAX - 1
            ),
            "{access}: {err}"
        );
    }
}

#[test]
fn cross_class_register_views_run_without_a_panic() {
    // A float register read through a 32-bit integer view reads the `%r`
    // file at the same index, past the highest `%r` the kernel names.
    for body in [
        "add.u32 %r2, %f7, 1;
         mul.wide.u32 %rd2, %r2, 4;
         add.u64 %rd3, %rd1, %rd2;
         st.global.u32 [%rd3], %r2;",
        "mov.u32 %r1, %tid.x;
         mul.wide.u32 %rd2, %r1, 4;
         add.u64 %rd3, %rd1, %rd2;
         st.global.u32 [%rd3], %f9;",
    ] {
        let src = format!(
            r#".entry views(.param .u64 A) {{
                 ld.param.u64 %rd1, [A];
                 {body}
                 ret;
               }}"#
        );
        let app = single_kernel_app("cross-class", &src);
        let r = try_run_app(&GpuConfig::small(), &app, ExecMode::Baseline)
            .unwrap_or_else(|e| panic!("{body}: {e}"));
        assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
        // Unwritten registers read as zero through every view.
        let mem = app.try_run_serialized().unwrap();
        let base = app.space.allocs()[0].base;
        let expect = if body.contains("%f7") { 1 } else { 0 };
        assert_eq!(mem.read_u32(base + 4), expect, "{body}");
    }
}

/// Kernels handed to `run` through `RunSpec::kernels` that cannot describe
/// the application are a typed `BadLaunch`, guarded or not, before
/// anything runs: a wrong kernel or block count, blocks no SM can hold,
/// emptied access sets of a static kernel, or a skip gate not naming an
/// earlier kernel. The same kernels unchanged still run.
#[test]
fn corrupted_run_spec_kernels_are_typed_errors() {
    let cfg = GpuConfig::small();
    let bench = suite().into_iter().find(|b| b.name == "GAUSSIAN").unwrap();
    let app = (bench.build)(Scale::Small);
    let mode = ExecMode::ConsumerPriority { window: 3 };
    let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
    let run_with = |jit: &[JitKernel], guard: bool| {
        let mut spec = RunSpec {
            guard,
            kernels: Some(jit),
            ..RunSpec::new(mode)
        };
        run(&cfg, &app, &mut spec, &NullTracer)
    };
    for guard in [false, true] {
        run_with(&jit, guard).expect("unchanged kernels run");
    }
    let k = jit
        .iter()
        .position(|j| !j.access.non_static && j.profile.n_tbs > 0)
        .expect("a static kernel");
    type Corrupt = Box<dyn Fn(&mut Vec<JitKernel>)>;
    let cases: Vec<(&str, Corrupt)> = vec![
        ("one kernel too many", Box::new(|j| j.push(j[0].clone()))),
        ("one kernel too few", Box::new(|j| drop(j.pop()))),
        (
            "one block too many",
            Box::new(move |j| j[k].profile.n_tbs += 1),
        ),
        ("no blocks", Box::new(move |j| j[k].profile.n_tbs = 0)),
        (
            "10^6 threads",
            Box::new(move |j| j[k].profile.threads = 1_000_000),
        ),
        (
            "2^30 shared bytes",
            Box::new(move |j| j[k].profile.shared_bytes = 1 << 30),
        ),
        (
            "emptied access sets",
            Box::new(move |j| j[k].access.per_tb.clear()),
        ),
        (
            "skip gate past the kernels",
            Box::new(|j| {
                let n = j.len() as u32;
                j[1].skip_gates.push(n);
            }),
        ),
        ("skip gate on itself", Box::new(|j| j[1].skip_gates.push(1))),
    ];
    for (what, corrupt) in &cases {
        let mut bad = jit.clone();
        corrupt(&mut bad);
        for guard in [false, true] {
            match run_with(&bad, guard) {
                Err(BmError::Ptx(PtxError::BadLaunch { .. })) => {}
                other => panic!("{what}, guard {guard}: {:?}", other.map(|r| r.total_cycles)),
            }
        }
    }
}

#[test]
fn blocks_and_threads_outside_the_launch_are_typed_errors() {
    use bm_ptx::access::AccessLog;
    use bm_ptx::interp::{execute_block, Lockstep, NullObserver, Program, MAX_STEPS_PER_THREAD};
    use bm_ptx::mem::GlobalMem;
    use bm_ptx::trace::trace_block_limited;
    const MAX: u64 = MAX_STEPS_PER_THREAD;
    // A 1-D kernel ignores `%ctaid.y`, so a block past the grid would
    // rerun block `tb % grid.x` if it ran at all.
    let kernel = Arc::new(
        parse_kernel(
            r#".entry row(.param .u64 A) {
                 ld.param.u64 %rd1, [A];
                 mov.u32 %r1, %ctaid.x;
                 mov.u32 %r2, %ntid.x;
                 mov.u32 %r3, %tid.x;
                 mad.lo.u32 %r4, %r1, %r2, %r3;
                 mul.wide.u32 %rd2, %r4, 4;
                 add.u64 %rd3, %rd1, %rd2;
                 st.global.u32 [%rd3], %r4;
                 ret;
               }"#,
        )
        .unwrap(),
    );
    let mut space = AddressSpace::new();
    let a = space.alloc(4 * 4 * 40);
    let launch = Launch::new(kernel, Dim3::x(4), Dim3::x(40), vec![ArgValue::Ptr(a.base)]);
    let program = Program::new(&launch);
    let mem = GlobalMem::for_space(&space);
    let clean = mem.fingerprint();
    let n = launch.num_blocks();
    for tb in [n, n + 1_000_000] {
        let want = Err(ExecError::OutsideLaunch { tb });
        let mut m = mem.clone();
        assert_eq!(execute_block(&launch, tb, &mut m, &mut NullObserver), want);
        assert_eq!(
            program.execute_block(tb, &mut m, &mut NullObserver, MAX),
            want
        );
        assert_eq!(
            program.execute_subset(tb, &mut m, &mut NullObserver, MAX, &[0, 39]),
            want
        );
        assert_eq!(
            Lockstep::new().execute_block(&program, tb, &mut m, MAX),
            want
        );
        let mut log = AccessLog::new(&space);
        assert_eq!(log.execute_block(&program, tb, &mut m, MAX), want);
        let (mut ranges, mut bounds) = (Vec::new(), Vec::new());
        log.finish_block(&mut ranges, &mut bounds);
        assert!(ranges.is_empty(), "block {tb} logged {ranges:?}");
        assert_eq!(
            trace_block_limited(&launch, tb, &mut m, MAX).map(|_| ()),
            want.clone().map(|_| ())
        );
        assert_eq!(m.fingerprint(), clean, "block {tb} wrote memory");
        // A log holding an unfinished block takes the one-lane path.
        let mut busy = mem.clone();
        log.execute_block(&program, 0, &mut busy, MAX).unwrap();
        let written = busy.fingerprint();
        assert_eq!(log.execute_block(&program, tb, &mut busy, MAX), want);
        assert_eq!(busy.fingerprint(), written, "block {tb} wrote memory");
    }
    // Thread lists must be strictly ascending below the block's 40 threads.
    for tids in [&[1, 0][..], &[3, 3], &[0, 40], &[39, 1 << 20]] {
        let mut m = mem.clone();
        assert_eq!(
            program.execute_subset(1, &mut m, &mut NullObserver, MAX, tids),
            Err(ExecError::OutsideLaunch { tb: 1 }),
            "{tids:?}"
        );
        assert_eq!(m.fingerprint(), clean, "{tids:?} wrote memory");
    }
    let mut m = mem.clone();
    assert!(program
        .execute_subset(n - 1, &mut m, &mut NullObserver, MAX, &[0, 39])
        .is_ok());
    assert_ne!(m.fingerprint(), clean);
}
