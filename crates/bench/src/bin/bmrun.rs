//! `bmrun` — command-line driver for the BlockMaestro simulator.
//!
//! ```text
//! bmrun <APP|all> [--mode MODE] [--window N] [--small] [--all-hazards]
//!       [--devices N] [--link-latency C] [--guard]
//!       [--verify] [--races] [--patterns] [--json] [--json-out OUT.json]
//!       [--trace OUT.json] [--trace-summary]
//!       [--checkpoint-every N] [--checkpoint-dir D] [--resume PATH] [--kill-at K]
//! ```
//!
//! * `APP` — a Table II name (`3MM`, `AlexNet`, `BICG`, `FDTD-2D`, `FFT`,
//!   `GAUSSIAN`, `GRAMSCHM`, `HS`, `LUD`, `MVT`, `NW`, `PATH`) or `all`.
//! * `--mode` — `baseline`, `ideal`, `graph` (CUDA-Graphs-style), `prelaunch`, `producer`, `consumer`
//!   (default `consumer`).
//! * `--window N` — concurrently-active kernels (default 3).
//! * `--small` — reduced workload scale.
//! * `--all-hazards` — track WAR/WAW in addition to RAW.
//! * `--devices N` — execute across N simulated GPUs, TB-grain sharded
//!   with cross-device pre-launch over a virtual interconnect (default 1,
//!   the plain single-device engine). Incompatible with checkpoint flags.
//! * `--link-latency C` — interconnect propagation latency in cycles
//!   (default 600 ≈ 0.5 µs NVLink-class; only meaningful with
//!   `--devices` > 1).
//! * `--guard` — run under the soundness guard (`RunSpec::guard`, the
//!   path of `try_run_app` and `bm-serve`): the schedule is checked
//!   against a logged serialized pass, which runs beside the analysis,
//!   and a violation quarantines the implicated kernels and re-runs.
//!   Prints a `guard` line with the guard's counts. Works with `all` and
//!   `--devices N`; checkpoint flags imply it.
//! * `--verify` — functionally replay the schedule and compare against
//!   serialized execution (the serialized pass runs beside the replay).
//! * `--races` — run the inter-kernel race detector on the schedule.
//! * `--patterns` — print the per-kernel-pair dependency patterns.
//! * `--json` — print the full `RunReport` as JSON on stdout (suppresses
//!   the human-readable line).
//! * `--json-out OUT.json` — write the JSON report to a file (atomically)
//!   instead of stdout.
//! * `--trace OUT.json` — record the run and write a Chrome trace-event
//!   file loadable in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//!   With `all`, the app name is inserted before the extension.
//! * `--trace-summary` — print a compact text digest of the recorded
//!   trace (implies recording; no file is needed).
//! * `--checkpoint-every N` — snapshot the full run state every N retired
//!   kernels (each save appends what changed to the snapshot log).
//! * `--checkpoint-dir D` — directory for the snapshot file (default
//!   `.bmckpt`).
//! * `--resume PATH` — resume from the snapshot at PATH; a corrupt or
//!   mismatched snapshot is rejected and the run starts fresh. Later
//!   checkpoints overwrite PATH.
//! * `--kill-at K` — die (exit code 3) at the retirement boundary of
//!   kernel K, *after* that boundary's checkpoint is saved — a simulated
//!   crash for testing kill-and-resume.
//!
//! A resumed run's report is bit-identical to an uninterrupted run.
//! Checkpoint flags require a single APP (not `all`), and checkpointed
//! runs are guarded.
//!
//! Example: `cargo run --release -p bm-bench --bin bmrun -- GAUSSIAN --mode consumer --window 4 --trace out.json`

use blockmaestro::{
    atomic_write, check_no_races, check_schedule, run, BmError, CheckpointPolicy,
    CheckpointSession, DirStore, EngineError, ExecMode, FaultPlan, RunSnapshot, RunSpec,
    SnapshotStore,
};
use bm_depgraph::HazardMode;
use bm_multi::MultiGpuConfig;
use bm_simt::GpuConfig;
use bm_trace::json::Json;
use bm_trace::{export_chrome_trace, summarize, NullTracer, RecordingTracer};
use bm_workloads::{suite, Scale};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!(
            "usage: bmrun <APP|all> [--mode MODE] [--window N] [--small] [--all-hazards] \
             [--devices N] [--link-latency C] [--guard] \
             [--verify] [--races] [--patterns] [--json] [--json-out OUT.json] \
             [--trace OUT.json] [--trace-summary] \
             [--checkpoint-every N] [--checkpoint-dir D] [--resume PATH] [--kill-at K]"
        );
        return ExitCode::from(2);
    }
    let app_name = args[0].clone();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let window: u32 = value("--window")
        .map(|v| v.parse().expect("--window takes an integer"))
        .unwrap_or(3);
    let mode = match value("--mode").as_deref().unwrap_or("consumer") {
        "baseline" => ExecMode::Baseline,
        "ideal" => ExecMode::IdealBaseline,
        "graph" => ExecMode::GraphLaunch,
        "prelaunch" => ExecMode::PreLaunch { window },
        "producer" => ExecMode::ProducerPriority { window },
        "consumer" => ExecMode::ConsumerPriority { window },
        other => {
            eprintln!("unknown mode `{other}`");
            return ExitCode::from(2);
        }
    };
    let scale = if flag("--small") {
        Scale::Small
    } else {
        Scale::Full
    };
    let hazard = if flag("--all-hazards") {
        HazardMode::All
    } else {
        HazardMode::Raw
    };
    let cfg = GpuConfig::titan_x_pascal();
    let benches: Vec<_> = suite()
        .into_iter()
        .filter(|b| app_name == "all" || b.name.eq_ignore_ascii_case(&app_name))
        .collect();
    if benches.is_empty() {
        eprintln!("unknown application `{app_name}` (try `all`)");
        return ExitCode::from(2);
    }
    let trace_path = value("--trace");
    let tracing = trace_path.is_some() || flag("--trace-summary");
    let json_file = value("--json-out");
    let json_out = flag("--json") || json_file.is_some();
    let ckpt_every: Option<u32> = value("--checkpoint-every")
        .map(|v| v.parse().expect("--checkpoint-every takes an integer"));
    let ckpt_dir = value("--checkpoint-dir");
    let resume_path = value("--resume");
    let kill_at: Option<u32> =
        value("--kill-at").map(|v| v.parse().expect("--kill-at takes an integer"));
    let checkpointing =
        ckpt_every.is_some() || ckpt_dir.is_some() || resume_path.is_some() || kill_at.is_some();
    let multi = benches.len() > 1;
    if checkpointing && multi {
        eprintln!("checkpoint flags require a single APP (not `all`)");
        return ExitCode::from(2);
    }
    let devices: u32 = value("--devices")
        .map(|v| v.parse().expect("--devices takes an integer"))
        .unwrap_or(1);
    let mut mcfg = MultiGpuConfig::devices(devices);
    if let Some(v) = value("--link-latency") {
        mcfg.link_latency_cycles = v.parse().expect("--link-latency takes a cycle count");
    }
    if devices > 1 && checkpointing {
        eprintln!("--devices > 1 cannot be combined with checkpoint flags (multi-device resume is not supported)");
        return ExitCode::from(2);
    }
    let mut json_reports: Vec<Json> = Vec::new();
    let mut failed = false;
    for bench in benches {
        let app = (bench.build)(scale);
        let mut base_spec = RunSpec {
            hazard,
            ..RunSpec::new(ExecMode::Baseline)
        };
        let base = match run(&cfg, &app, &mut base_spec, &NullTracer) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("bmrun: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut store = checkpointing.then(|| match &resume_path {
            Some(p) => DirStore::at_file(p.clone()),
            None => DirStore::new(ckpt_dir.clone().unwrap_or_else(|| ".bmckpt".into())),
        });
        let snapshot_path = store.as_ref().map(|s| s.path().display().to_string());
        if let (Some(store), true) = (store.as_mut(), resume_path.is_some()) {
            // Pre-probe the snapshot so rejection is visible even
            // without a tracer; the run itself degrades to fresh.
            match store.load() {
                Ok(Some(bytes)) => {
                    if let Err(e) = RunSnapshot::decode(&bytes) {
                        eprintln!("bmrun: snapshot rejected ({e}); starting fresh");
                    }
                }
                Ok(None) => eprintln!(
                    "bmrun: no snapshot at `{}`; starting fresh",
                    store.path().display()
                ),
                Err(e) => eprintln!("bmrun: snapshot rejected ({e}); starting fresh"),
            }
        }
        // Checkpointed runs are guarded, so a resumed run re-applies the
        // guard's quarantines from its snapshot.
        let mut spec = RunSpec {
            hazard,
            guard: checkpointing || flag("--guard"),
            fault: FaultPlan {
                kill_at_kernel: kill_at,
                ..FaultPlan::default()
            },
            ..RunSpec::new(mode)
        };
        if let Some(store) = store.as_mut() {
            spec.checkpoint = CheckpointSession {
                policy: match ckpt_every {
                    Some(n) => CheckpointPolicy::every_kernels(n),
                    None => CheckpointPolicy::disabled(),
                },
                store: Some(store),
                resume_latest: resume_path.is_some(),
                ..CheckpointSession::disabled()
            };
        }
        let tracer = RecordingTracer::new();
        let result = if tracing {
            bm_multi::run(&cfg, &mcfg, &app, &mut spec, &tracer)
        } else {
            bm_multi::run(&cfg, &mcfg, &app, &mut spec, &NullTracer)
        };
        for e in &spec.checkpoint.save_failures {
            eprintln!("bmrun: checkpoint save failed: {e}");
        }
        let report = match result {
            Ok(report) => report,
            Err(BmError::Engine(EngineError::Killed { cycle, retired })) => {
                let snapshot = match snapshot_path {
                    Some(path) if spec.checkpoint.saves > 0 => format!("snapshot at `{path}`"),
                    _ => "no snapshot written".to_string(),
                };
                eprintln!(
                    "bmrun: killed at cycle {cycle} after {retired} kernels retired ({snapshot})"
                );
                return ExitCode::from(3);
            }
            Err(e) => {
                eprintln!("bmrun: {e}");
                return ExitCode::FAILURE;
            }
        };
        let recorded = tracing.then(|| tracer.events());
        if let (Some(path), Some(events)) = (trace_path.as_deref(), recorded.as_deref()) {
            // `bmrun all --trace out.json` writes out.GAUSSIAN.json etc.
            let path = if multi {
                match path.rsplit_once('.') {
                    Some((stem, ext)) => format!("{stem}.{}.{ext}", bench.name),
                    None => format!("{path}.{}", bench.name),
                }
            } else {
                path.to_string()
            };
            if let Err(e) = atomic_write(Path::new(&path), export_chrome_trace(events).as_bytes()) {
                eprintln!("cannot write trace `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        }
        if json_out {
            let mut obj = report.to_json();
            if let Json::Obj(map) = &mut obj {
                map.insert("app".into(), Json::str(bench.name));
            }
            json_reports.push(obj);
        } else {
            println!(
                "{:<10} {:>4} kernels  {mode}: {:>10} cycles ({:.1} us)  baseline: {:>10}  speedup {:.3}x  concurrency {:.1}",
                bench.name,
                report.num_kernels,
                report.total_cycles,
                cfg.cycles_to_us(report.total_cycles),
                base.total_cycles,
                base.total_cycles as f64 / report.total_cycles as f64,
                report.avg_concurrency,
            );
        }
        if flag("--guard") && !json_out {
            let g = report.guard;
            println!(
                "    guard  : {} violations, {} kernels quarantined, {} recovery rounds",
                g.violations_detected, g.kernels_quarantined, g.recovery_rounds
            );
        }
        if let (true, Some(events)) = (flag("--trace-summary"), recorded.as_deref()) {
            for line in summarize(events).lines() {
                println!("    {line}");
            }
        }
        if flag("--patterns") {
            for (i, (name, p)) in report.patterns.iter().enumerate().skip(1) {
                println!("    K{:<4} {:<14} {}", i, name, p);
            }
        }
        if flag("--verify") {
            match check_schedule(&app, &report.schedule) {
                Ok(eq) if eq.is_match() => println!("    verify : {eq}"),
                Ok(eq) => {
                    println!("    verify : FAILED — {eq}");
                    failed = true;
                }
                Err(e) => {
                    println!("    verify : {e}");
                    failed = true;
                }
            }
        }
        if flag("--races") {
            match check_no_races(&app, &report.schedule) {
                Ok(races) if races.is_empty() => println!("    races  : none"),
                Ok(races) => {
                    println!(
                        "    races  : {} conflicts, first {:?}",
                        races.len(),
                        races[0]
                    );
                    failed = true;
                }
                Err(e) => {
                    println!("    races  : {e}");
                    failed = true;
                }
            }
        }
    }
    if json_out {
        let doc = if json_reports.len() == 1 {
            json_reports.remove(0)
        } else {
            Json::Arr(json_reports)
        };
        if let Some(path) = json_file {
            if let Err(e) = atomic_write(Path::new(&path), format!("{doc}\n").as_bytes()) {
                eprintln!("cannot write report `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        } else {
            println!("{doc}");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
