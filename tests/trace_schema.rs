//! Chrome trace-event export schema checks (DESIGN.md §9).
//!
//! For every [`ExecMode`], records a run and validates the exported
//! document with the crate's own strict JSON parser: event `ph` kinds,
//! required `ts`/`pid`/`tid` fields, instant scopes, metadata naming for
//! every referenced track, and — the property Perfetto rendering relies
//! on — that the spans assigned to any one `tid` never overlap.

mod common;

use blockmaestro::{run, ExecMode, RunSpec};
use bm_simt::GpuConfig;
use bm_testkit::Rng;
use bm_trace::json::{self, Json};
use bm_trace::{export_chrome_trace, RecordingTracer};
use bm_workloads::{suite, Scale};
use common::{build_random_app, gen_spec};
use std::collections::{BTreeMap, BTreeSet};

fn all_modes() -> Vec<ExecMode> {
    vec![
        ExecMode::Baseline,
        ExecMode::IdealBaseline,
        ExecMode::GraphLaunch,
        ExecMode::PreLaunch { window: 3 },
        ExecMode::ProducerPriority { window: 3 },
        ExecMode::ConsumerPriority { window: 3 },
    ]
}

fn export_for(app: &bm_cmdq::Application, mode: ExecMode) -> String {
    let cfg = GpuConfig::small();
    let tracer = RecordingTracer::new();
    run(&cfg, app, &mut RunSpec::new(mode), &tracer).unwrap();
    export_chrome_trace(&tracer.events())
}

fn num(e: &Json, key: &str) -> Option<u64> {
    e.get(key).and_then(|v| v.as_num()).map(|n| n as u64)
}

fn check_document(text: &str, ctx: &str) {
    let doc = json::parse(text).unwrap_or_else(|e| panic!("{ctx}: invalid JSON: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| panic!("{ctx}: missing traceEvents array"));
    assert!(!events.is_empty(), "{ctx}: empty trace");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ns"),
        "{ctx}: displayTimeUnit"
    );

    let mut named_processes: BTreeSet<u64> = BTreeSet::new();
    let mut named_threads: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut used_processes: BTreeSet<u64> = BTreeSet::new();
    let mut span_threads: BTreeSet<(u64, u64)> = BTreeSet::new();
    // (pid, tid) -> [(ts, dur)]
    let mut spans: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();

    for e in events {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("{ctx}: event without ph: {e}"));
        let pid = num(e, "pid").unwrap_or_else(|| panic!("{ctx}: event without pid: {e}"));
        match ph {
            "M" => {
                let kind = e.get("name").and_then(|v| v.as_str()).unwrap();
                assert!(
                    kind == "process_name" || kind == "thread_name",
                    "{ctx}: unknown metadata {kind}"
                );
                assert!(
                    e.get("args").and_then(|a| a.get("name")).is_some(),
                    "{ctx}: metadata without args.name"
                );
                if kind == "process_name" {
                    named_processes.insert(pid);
                } else {
                    named_threads.insert((pid, num(e, "tid").expect("thread_name needs tid")));
                }
            }
            "X" | "i" | "C" => {
                used_processes.insert(pid);
                let ts = num(e, "ts").unwrap_or_else(|| panic!("{ctx}: {ph} without ts: {e}"));
                let tid = num(e, "tid").unwrap_or_else(|| panic!("{ctx}: {ph} without tid: {e}"));
                assert!(
                    e.get("name").and_then(|v| v.as_str()).is_some(),
                    "{ctx}: {ph} without name"
                );
                match ph {
                    "X" => {
                        let dur =
                            num(e, "dur").unwrap_or_else(|| panic!("{ctx}: X without dur: {e}"));
                        span_threads.insert((pid, tid));
                        spans.entry((pid, tid)).or_default().push((ts, dur));
                    }
                    "i" => {
                        assert_eq!(
                            e.get("s").and_then(|v| v.as_str()),
                            Some("t"),
                            "{ctx}: instant without thread scope"
                        );
                    }
                    _ => {}
                }
            }
            other => panic!("{ctx}: unexpected ph {other}"),
        }
    }

    // Every track that carries events is named for the viewer.
    for pid in &used_processes {
        assert!(
            named_processes.contains(pid),
            "{ctx}: pid {pid} has events but no process_name"
        );
    }
    for key in &span_threads {
        assert!(
            named_threads.contains(key),
            "{ctx}: span thread {key:?} unnamed"
        );
    }

    // Spans within one tid must not overlap (lane assignment invariant) —
    // this is what makes the per-track nesting trivially proper.
    for ((pid, tid), mut list) in spans {
        list.sort_unstable();
        for w in list.windows(2) {
            let (ts0, dur0) = w[0];
            let (ts1, _) = w[1];
            assert!(
                ts1 >= ts0 + dur0.max(1),
                "{ctx}: overlapping spans on pid {pid} tid {tid}: {w:?}"
            );
        }
    }
}

#[test]
fn export_schema_valid_for_every_mode() {
    let mut rng = Rng::new(404);
    let n_buffers = 4;
    let specs: Vec<_> = (0..6).map(|_| gen_spec(&mut rng, n_buffers)).collect();
    let app = build_random_app(n_buffers, &specs);
    for mode in all_modes() {
        let text = export_for(&app, mode);
        check_document(&text, &format!("mode {mode}"));
    }
}

#[test]
fn export_schema_valid_for_real_workload() {
    let bench = suite()
        .into_iter()
        .find(|b| b.name == "GAUSSIAN")
        .expect("GAUSSIAN in suite");
    let app = (bench.build)(Scale::Small);
    let text = export_for(&app, ExecMode::ConsumerPriority { window: 3 });
    check_document(&text, "GAUSSIAN");
    // The real workload exercises every track family.
    let doc = json::parse(&text).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let pids: BTreeSet<u64> = events.iter().filter_map(|e| num(e, "pid")).collect();
    use bm_trace::chrome::{PID_ANALYSIS, PID_CMDQ, PID_HOST, PID_SCHED_HW, PID_SM_BASE};
    for pid in [PID_HOST, PID_CMDQ, PID_SCHED_HW, PID_ANALYSIS] {
        assert!(pids.contains(&pid), "missing track pid {pid}");
    }
    assert!(pids.iter().any(|&p| p >= PID_SM_BASE), "missing SM tracks");
}
