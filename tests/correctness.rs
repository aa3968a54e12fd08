//! End-to-end architectural-invisibility tests: for every benchmark and
//! every execution mode, the thread-block schedule BlockMaestro produces
//! must compute exactly the same memory image as serialized execution.

use blockmaestro::{check_no_races, check_schedule, run, ExecMode, RunSpec};
use bm_depgraph::HazardMode;
use bm_ptx::error::PtxError;
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::{suite, Scale};

fn all_modes() -> Vec<ExecMode> {
    let mut v = vec![ExecMode::Baseline];
    v.extend(ExecMode::figure9_variants());
    v
}

#[test]
fn every_app_every_mode_is_architecturally_invisible() {
    let cfg = GpuConfig::titan_x_pascal();
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        for mode in all_modes() {
            let report = run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer).unwrap();
            let eq = check_schedule(&app, &report.schedule)
                .unwrap_or_else(|e| panic!("{} {mode}: exec error {e}", bench.name));
            assert!(
                eq.is_match(),
                "{} under {mode} diverged from serialized execution",
                bench.name
            );
        }
    }
}

#[test]
fn hazard_mode_all_is_also_invisible() {
    let cfg = GpuConfig::titan_x_pascal();
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        let report = run(
            &cfg,
            &app,
            &mut RunSpec {
                hazard: HazardMode::All,
                ..RunSpec::new(ExecMode::ConsumerPriority { window: 4 })
            },
            &NullTracer,
        )
        .unwrap();
        let eq = check_schedule(&app, &report.schedule).unwrap();
        assert!(eq.is_match(), "{} (HazardMode::All) diverged", bench.name);
    }
}

#[test]
fn schedules_are_race_free() {
    // Stronger than replay equivalence: no two time-overlapping thread
    // blocks of different kernels may touch conflicting bytes. The RAW
    // tracking of the paper suffices for the whole suite because every
    // cross-kernel WAR/WAW is covered by a RAW chain or a skip gate.
    let cfg = GpuConfig::titan_x_pascal();
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        for mode in [
            ExecMode::ProducerPriority { window: 2 },
            ExecMode::ConsumerPriority { window: 4 },
        ] {
            let report = run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer).unwrap();
            let races = check_no_races(&app, &report.schedule).unwrap();
            assert!(
                races.is_empty(),
                "{} under {mode}: {} races, first {:?}",
                bench.name,
                races.len(),
                races.first()
            );
        }
    }
}

#[test]
fn schedules_cover_every_thread_block_exactly_once() {
    let cfg = GpuConfig::titan_x_pascal();
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        let total: u64 = app.launches().iter().map(|l| l.num_blocks() as u64).sum();
        for mode in [ExecMode::Baseline, ExecMode::ConsumerPriority { window: 3 }] {
            let report = run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer).unwrap();
            assert_eq!(
                report.schedule.len() as u64,
                total,
                "{} {mode}: schedule length",
                bench.name
            );
            let mut seen: Vec<(u32, u32)> = report
                .schedule
                .iter()
                .map(|(k, _, _)| (k.kernel_seq, k.tb))
                .collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(
                seen.len() as u64,
                total,
                "{} {mode}: unique TBs",
                bench.name
            );
        }
    }
}

#[test]
fn malformed_schedules_are_typed_errors() {
    // `bmrun --verify` and `--races` take a schedule from outside; each
    // malformed one is rejected before anything runs, without a panic.
    let cfg = GpuConfig::titan_x_pascal();
    let bench = suite().into_iter().find(|b| b.name == "GAUSSIAN").unwrap();
    let app = (bench.build)(Scale::Small);
    let mode = ExecMode::ConsumerPriority { window: 3 };
    let good = run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer)
        .unwrap()
        .schedule;
    assert!(check_schedule(&app, &good).unwrap().is_match());
    assert!(check_no_races(&app, &good).unwrap().is_empty());
    let first = good[0].0;
    let grid = app.launches()[first.kernel_seq as usize].num_blocks();

    let mut unknown = good.clone();
    unknown[0].0.kernel_seq = app.launches().len() as u32;
    let mut past_grid = good.clone();
    past_grid[0].0.tb += 1_000_000;
    let dropped = good[1..].to_vec();
    let mut duplicated = good.clone();
    duplicated.push(good[0]);
    let cases = [
        ("unknown kernel", unknown, "unknown kernel".to_string()),
        (
            "block past the grid",
            past_grid,
            format!("block {} of a {grid}-block grid", first.tb + 1_000_000),
        ),
        (
            "dropped entry",
            dropped,
            format!("leaves out block {}", first.tb),
        ),
        (
            "duplicated entry",
            duplicated,
            format!("lists block {} twice", first.tb),
        ),
    ];
    for (what, schedule, want) in cases {
        let typed = |r: Result<(), PtxError>| match r {
            Err(PtxError::BadLaunch { reason, .. }) => {
                assert!(reason.contains(&want), "{what}: {reason}")
            }
            other => panic!("{what}: {other:?}"),
        };
        typed(check_schedule(&app, &schedule).map(drop));
        typed(check_no_races(&app, &schedule).map(drop));
    }
}
