//! JSON round-trip coverage for machine-readable outputs.
//!
//! `RunReport::to_json` and the snapshot manifest are consumed by CI
//! diffs and external tooling, so their serialization must be strict:
//! serialize → parse → re-serialize is byte-identical, including edge
//! values (`u64::MAX` counters, above the f64-lossless 2^53 boundary)
//! and degenerate shapes (empty sections, zero kernels).

use blockmaestro::{manifest, run, ExecMode, MemStore, RunSnapshot, RunSpec, SnapshotStore};
use bm_cmdq::{ApiCall, Application};
use bm_depgraph::HazardMode;
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::parser::parse_kernel;
use bm_simt::GpuConfig;
use bm_trace::json::{parse, Json};
use bm_trace::NullTracer;
use std::collections::HashMap;
use std::sync::Arc;

fn two_kernel_app() -> Application {
    let n = 4u64 * 64;
    let mut space = AddressSpace::new();
    let a = space.alloc(4 * n);
    let b = space.alloc(4 * n);
    let c = space.alloc(4 * n);
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
    host_data.insert(a.id, (0..n).map(|i| i as f32).collect::<Vec<_>>());
    Application {
        name: "json-app".into(),
        space,
        calls: vec![
            ApiCall::MemcpyH2D {
                alloc: a.id,
                bytes: 4 * n,
            },
            ApiCall::KernelLaunch(Launch::new(
                k.clone(),
                Dim3::x(4),
                Dim3::x(64),
                vec![ArgValue::Ptr(a.base), ArgValue::Ptr(b.base)],
            )),
            ApiCall::KernelLaunch(Launch::new(
                k,
                Dim3::x(4),
                Dim3::x(64),
                vec![ArgValue::Ptr(b.base), ArgValue::Ptr(c.base)],
            )),
        ],
        host_data,
    }
}

fn assert_roundtrip(doc: &Json, what: &str) {
    let text = doc.to_string();
    let parsed = parse(&text).unwrap_or_else(|e| panic!("{what}: strict parse failed: {e}"));
    assert_eq!(
        parsed.to_string(),
        text,
        "{what}: re-serialization is not byte-identical"
    );
}

#[test]
fn run_report_roundtrips() {
    let cfg = GpuConfig::small();
    let app = two_kernel_app();
    let report = run(
        &cfg,
        &app,
        &mut RunSpec::new(ExecMode::ConsumerPriority { window: 2 }),
        &NullTracer,
    )
    .unwrap();
    assert_roundtrip(&report.to_json(), "RunReport");
}

#[test]
fn run_report_with_umax_counters_roundtrips_losslessly() {
    let cfg = GpuConfig::small();
    let app = two_kernel_app();
    let mut report = run(
        &cfg,
        &app,
        &mut RunSpec::new(ExecMode::ConsumerPriority { window: 2 }),
        &NullTracer,
    )
    .unwrap();
    // Counters above 2^53 cannot survive an f64 JSON number; they must be
    // carried as decimal strings, exactly.
    report.total_cycles = u64::MAX;
    report.kernel_region_cycles = u64::MAX - 1;
    report.baseline_mem_requests = (1 << 53) + 1;
    report.overhead_mem_requests = u64::MAX / 3;
    report.storage_encoded = u64::MAX;
    report.guard.cycles_lost_to_fallback = u64::MAX;
    let doc = report.to_json();
    assert_roundtrip(&doc, "RunReport with u64::MAX");
    let text = doc.to_string();
    assert!(
        text.contains(&format!("\"total_cycles\":\"{}\"", u64::MAX)),
        "u64::MAX must serialize as a lossless decimal string: {text}"
    );
    let parsed = parse(&text).unwrap();
    if let Json::Obj(map) = &parsed {
        assert_eq!(
            map.get("total_cycles"),
            Some(&Json::Str(u64::MAX.to_string()))
        );
    } else {
        panic!("report must parse to an object");
    }
}

#[test]
fn small_u64_counters_stay_plain_numbers() {
    // Below 2^53 the compact numeric form is kept, so existing consumers
    // keep seeing numbers.
    let cfg = GpuConfig::small();
    let app = two_kernel_app();
    let report = run(
        &cfg,
        &app,
        &mut RunSpec::new(ExecMode::ConsumerPriority { window: 2 }),
        &NullTracer,
    )
    .unwrap();
    let text = report.to_json().to_string();
    assert!(
        text.contains(&format!("\"total_cycles\":{}", report.total_cycles)),
        "small counters must serialize as bare numbers: {text}"
    );
}

#[test]
fn snapshot_manifest_roundtrips() {
    use blockmaestro::{
        app_fingerprint, try_jit_analyze_app, try_run_analyzed_checkpointed, CheckpointPolicy,
        CheckpointSession, FaultPlan,
    };
    use bm_trace::NullTracer;
    let cfg = GpuConfig::small();
    let app = two_kernel_app();
    let jit = try_jit_analyze_app(&cfg, &app, HazardMode::Raw).unwrap();
    let mut store = MemStore::default();
    let mut session = CheckpointSession::disabled();
    session.policy = CheckpointPolicy::every_kernels(1);
    session.store = Some(&mut store);
    session.app_fp = app_fingerprint(&app);
    session.hazard = format!("{:?}", HazardMode::Raw);
    try_run_analyzed_checkpointed(
        &cfg,
        &app,
        &jit,
        ExecMode::ConsumerPriority { window: 2 },
        &FaultPlan::default(),
        &NullTracer,
        &mut session,
    )
    .unwrap();
    let bytes = store.load().unwrap().expect("one snapshot saved");
    let doc = manifest(&bytes).expect("manifest from valid snapshot");
    assert_roundtrip(&doc, "snapshot manifest");
    if let Json::Obj(map) = &doc {
        assert_eq!(
            map.get("version"),
            Some(&Json::u64(u64::from(blockmaestro::FORMAT_VERSION)))
        );
        assert!(matches!(map.get("sections"), Some(Json::Arr(s)) if !s.is_empty()));
    } else {
        panic!("manifest must be an object");
    }
}

#[test]
fn empty_snapshot_sections_roundtrip_through_the_manifest() {
    // A default RunSnapshot has empty kernels/trace/order — the container
    // and its manifest must handle zero-length sections.
    let snap = RunSnapshot::default();
    let bytes = snap.encode();
    assert_eq!(RunSnapshot::decode(&bytes).unwrap(), snap);
    let doc = manifest(&bytes).expect("manifest from empty snapshot");
    assert_roundtrip(&doc, "empty snapshot manifest");
}
