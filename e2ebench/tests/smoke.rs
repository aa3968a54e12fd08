//! `Scale::Small` smoke runs of the benchmark: every workload, untraced
//! and traced, with every check it makes, in seconds.

use bm_workloads::Scale;
use e2ebench::pinned::{self, AppPins};
use e2ebench::{run, Options, Outcome, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn pins() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/pinned.json"))
}

/// A single-pass small-scale run with its own scratch directory.
fn smoke(workload: Workload, trace: bool, pins: PathBuf, tag: &str) -> Outcome {
    let tmp_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{tag}-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Small,
        pins,
        tmp_dir,
    };
    run(&opts).unwrap_or_else(|e| panic!("{}: set-up failed: {e}", workload.name()))
}

fn names(out: &Outcome) -> Vec<&str> {
    out.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn untraced_runs_pass_every_check_and_print_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = smoke(w, false, pins(), "plain");
        assert_eq!(out.failures, Vec::<String>::new(), "{}", w.name());
        assert_eq!(
            out.attempted,
            w.apps().len() as u64,
            "{}: one pass",
            w.name()
        );
        let expected: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names(&out), expected);
        for m in &out.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
        assert_eq!(out.metric("ok_ratio"), Some(1.0));
    }
}

#[test]
fn traced_runs_split_each_workload_into_its_layers() {
    for w in Workload::ALL {
        let out = smoke(w, true, pins(), "traced");
        // Each app ran untraced and then step by step; both passed.
        assert_eq!(out.failures, Vec::<String>::new(), "{}", w.name());
        assert_eq!(out.attempted, 2 * w.apps().len() as u64);
        let expected: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names(&out), expected);
        let v = |name: &str| out.metric(name).expect("every layer metric is printed");
        assert!(v("workloads.build_ms") > 0.0);
        assert!(v("jit.analysis_ms") > 0.0 && v("jit.absint_ms") > 0.0);
        assert!(v("engine.des_ms") > 0.0 && v("engine.tbs_simulated") > 0.0);
        assert!(v("trace.untraced_ms") > 0.0);
        let guarded = w == Workload::Guarded;
        assert_eq!(v("guard.rounds") > 0.0, guarded, "{}", w.name());
        assert_eq!(v("cmdq.serialized_ms") > 0.0, guarded);
        assert_eq!(v("interp.tbs_per_s") > 0.0, guarded);
        assert_eq!(v("multi.run_ms") > 0.0, w == Workload::Sweep);
        let checkpoint = w == Workload::Checkpoint;
        for name in [
            "snapshot.saves",
            "snapshot.bytes_written",
            "snapshot.fsyncs",
        ] {
            assert_eq!(v(name) > 0.0, checkpoint, "{}: {name}", w.name());
        }
        if checkpoint {
            // Every save syncs at least its file.
            assert!(v("snapshot.fsyncs") >= v("snapshot.saves"));
            assert!(v("snapshot.encode_ms") > 0.0 && v("snapshot.decode_ms") > 0.0);
        }
    }
}

#[test]
fn a_wrong_pinned_cycle_count_fails_the_ops_that_check_it() {
    let mut scales: Vec<(Scale, BTreeMap<String, AppPins>)> = [Scale::Full, Scale::Small]
        .into_iter()
        .map(|s| (s, pinned::load(&pins(), s).expect("pins load")))
        .collect();
    // GAUSSIAN runs in every workload.
    let gaussian = scales[1].1.get_mut("GAUSSIAN").expect("GAUSSIAN is pinned");
    for pin in gaussian.runs.values_mut() {
        pin.total_cycles += 1;
    }
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrong-pins.json");
    std::fs::write(&path, pinned::render(&scales)).expect("write pins");
    for w in Workload::ALL {
        let out = smoke(w, false, path.clone(), "wrong");
        assert_eq!(out.failed, 1, "{}: {:?}", w.name(), out.failures);
        assert!(
            out.failures[0].starts_with("GAUSSIAN: "),
            "{:?}",
            out.failures
        );
        assert!(
            out.failures[0].contains("total_cycles"),
            "{:?}",
            out.failures
        );
        assert!(out.metric("ok_ratio").is_some_and(|r| r < 1.0));
    }
}

#[test]
fn pins_round_trip_through_their_text_form() {
    let scales: Vec<(Scale, BTreeMap<String, AppPins>)> = [Scale::Full, Scale::Small]
        .into_iter()
        .map(|s| (s, pinned::load(&pins(), s).expect("pins load")))
        .collect();
    let text = std::fs::read_to_string(pins()).expect("read pins");
    assert_eq!(pinned::render(&scales), text);
}
