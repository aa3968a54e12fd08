//! Oracle suite for the guard's replay-free acceptance.
//!
//! The guard accepts a schedule without replaying it when every
//! conflicting pair of thread blocks replays in serialized order
//! (`verify_by_conflict_order`). Whenever that check decides, its outcome
//! must equal the full replay's (`verify_soundness`), violation order and
//! addresses included; every schedule it cannot decide falls back to the
//! replay. Clean schedules must be decided, and fault-injected ones
//! usually are, so the hand-built schedules and the racy random
//! applications are what exercise the fallback.

mod common;

use blockmaestro::{
    check_schedule, corrupt_access_set, corrupt_pattern, random_plan, run, try_jit_analyze_app,
    try_run_app, verify_by_conflict_order, verify_soundness, ExecMode, FaultClass, FaultPlan,
    FaultRng, GuardReport, JitKernel, RunSpec, SoundnessOutcome,
};
use bm_cmdq::{ApiCall, Application};
use bm_depgraph::HazardMode;
use bm_ptx::error::PtxError;
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::parser::parse_kernel;
use bm_simt::des::TbKey;
use bm_simt::GpuConfig;
use bm_testkit::{check_cases, prop_ensure};
use bm_trace::NullTracer;
use bm_workloads::Scale;
use common::{build_random_app, gen_spec, has_war_hazard, KernelSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// The mode the guarded pipeline is benchmarked and served under.
const GUARDED: ExecMode = ExecMode::ConsumerPriority { window: 3 };

type Schedule = Vec<(TbKey, u64, u64)>;

/// The check's outcome (`None` when it cannot decide) and the replay's.
fn both(
    app: &Application,
    jit: &[JitKernel],
    schedule: &[(TbKey, u64, u64)],
) -> (Option<SoundnessOutcome>, Result<SoundnessOutcome, PtxError>) {
    let fp = app.try_run_serialized().expect("serialized").fingerprint();
    let fast = verify_by_conflict_order(app, jit, schedule).expect("logged serialized pass");
    (fast, verify_soundness(app, jit, schedule, fp))
}

/// Whether the check decided `schedule`; an error when its decision
/// differs from the replay's.
fn agrees(
    app: &Application,
    jit: &[JitKernel],
    schedule: &[(TbKey, u64, u64)],
) -> Result<bool, String> {
    match both(app, jit, schedule) {
        (None, _) => Ok(false),
        (Some(fast), replay) => {
            prop_ensure!(
                Ok(&fast) == replay.as_ref(),
                "{}: check decided {fast:?}, replay says {replay:?}",
                app.name
            );
            Ok(true)
        }
    }
}

/// `Y[i] = X[i] + 1` over `tbs` blocks of 64 threads, chained through
/// buffer pairs.
fn chain_app(pairs: &[(usize, usize)], n_allocs: usize, tbs: u32) -> Application {
    let kernel = r#".entry step(.param .u64 X, .param .u64 Y) {
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
    }"#;
    pairs_app(kernel, pairs, n_allocs, tbs)
}

/// Launches the two-pointer `kernel` once per `(x, y)` buffer pair.
fn pairs_app(kernel: &str, pairs: &[(usize, usize)], n_allocs: usize, tbs: u32) -> Application {
    let n = tbs as u64 * 64;
    let mut space = AddressSpace::new();
    let allocs: Vec<_> = (0..n_allocs).map(|_| space.alloc(4 * n)).collect();
    let k = Arc::new(parse_kernel(kernel).unwrap());
    let mut host_data = HashMap::new();
    host_data.insert(allocs[0].id, (0..n).map(|i| i as f32).collect::<Vec<_>>());
    let mut calls = vec![ApiCall::MemcpyH2D {
        alloc: allocs[0].id,
        bytes: 4 * n,
    }];
    calls.extend(pairs.iter().map(|&(x, y)| {
        ApiCall::KernelLaunch(Launch::new(
            k.clone(),
            Dim3::x(tbs),
            Dim3::x(64),
            vec![ArgValue::Ptr(allocs[x].base), ArgValue::Ptr(allocs[y].base)],
        ))
    }));
    Application {
        name: "guard-order".into(),
        space,
        calls,
        host_data,
    }
}

/// A schedule replaying `keys` one after another, in the given order.
fn in_order(keys: &[TbKey]) -> Schedule {
    let cycle = |i: usize| i as u64;
    keys.iter()
        .enumerate()
        .map(|(i, &k)| (k, cycle(i), cycle(i + 1)))
        .collect()
}

/// Two 4-block kernels in serialized order except for one pair, K0's block
/// 3 and K1's block 3, adjacent and inverted in replay order: K1's block
/// moved just before K0's, or K0's moved to the end. Each sits on one
/// boundary of the check: the lowest rank behind K0's block, or the
/// highest rank ahead of K1's, is exactly one away.
fn inverted_orders() -> [Schedule; 2] {
    let orders = [
        [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 3),
            (0, 3),
            (1, 0),
            (1, 1),
            (1, 2),
        ],
        [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (1, 2),
            (1, 3),
            (0, 3),
        ],
    ];
    orders.map(|order| in_order(&order.map(|(k, t)| key(k, t))))
}

/// Two 4-block kernels in serialized order.
fn serialized() -> Schedule {
    let order: Vec<TbKey> = (0..2)
        .flat_map(|k| (0..4).map(move |t| key(k, t)))
        .collect();
    in_order(&order)
}

fn key(kernel_seq: u32, tb: u32) -> TbKey {
    TbKey { kernel_seq, tb }
}

#[test]
fn clean_schedules_match_the_step_by_step_replay_guard() {
    let cfg = GpuConfig::titan_x_pascal();
    for bench in bm_workloads::suite() {
        let app = (bench.build)(Scale::Small);
        app.validate().unwrap();
        let jit = try_jit_analyze_app(&cfg, &app, HazardMode::Raw).unwrap();
        let fp = app.try_run_serialized().unwrap().fingerprint();
        let mut report = run(
            &cfg,
            &app,
            &mut RunSpec {
                kernels: Some(&jit),
                ..RunSpec::new(GUARDED)
            },
            &NullTracer,
        )
        .unwrap();
        let replay = verify_soundness(&app, &jit, &report.schedule, fp).unwrap();
        assert!(replay.is_sound(), "{}: {replay:?}", bench.name);
        let fast = verify_by_conflict_order(&app, &jit, &report.schedule).unwrap();
        assert_eq!(
            fast,
            Some(replay),
            "{}: a clean schedule must be accepted without replay",
            bench.name
        );
        report.guard = GuardReport::default();
        let guarded = try_run_app(&cfg, &app, GUARDED).unwrap();
        assert_eq!(guarded, report, "{}: try_run_app drifted", bench.name);
    }
}

#[test]
fn every_figure_mode_is_accepted_without_replay() {
    let cfg = GpuConfig::small();
    let mut modes = ExecMode::figure9_variants();
    modes.push(ExecMode::Baseline);
    for bench in bm_workloads::suite() {
        let app = (bench.build)(Scale::Small);
        let jit = try_jit_analyze_app(&cfg, &app, HazardMode::Raw).unwrap();
        for &mode in &modes {
            let report = run(
                &cfg,
                &app,
                &mut RunSpec {
                    kernels: Some(&jit),
                    ..RunSpec::new(mode)
                },
                &NullTracer,
            )
            .unwrap();
            let fast = verify_by_conflict_order(&app, &jit, &report.schedule).unwrap();
            assert!(
                fast.as_ref().is_some_and(SoundnessOutcome::is_sound),
                "{} under {mode}: {fast:?}",
                bench.name
            );
        }
    }
}

#[test]
fn fault_injected_schedules_agree_with_replay() {
    const CLASSES: [FaultClass; 8] = [
        FaultClass::CorruptAccessSet,
        FaultClass::CorruptPattern,
        FaultClass::DropChild,
        FaultClass::PhantomChild,
        FaultClass::CounterExcess,
        FaultClass::CounterDeficit,
        FaultClass::CounterSaturation,
        FaultClass::BufferSpill,
    ];
    let cfg = GpuConfig::small();
    let hazard = HazardMode::Raw;
    let apps: Vec<Application> = ["GAUSSIAN", "HS", "NW", "PATH", "FDTD-2D", "LUD"]
        .iter()
        .map(|name| {
            let bench = bm_workloads::suite()
                .into_iter()
                .find(|b| b.name == *name)
                .unwrap();
            (bench.build)(Scale::Small)
        })
        .chain([chain_app(&[(0, 1), (1, 2), (2, 3), (3, 4)], 5, 8)])
        .collect();
    let (mut decided, mut with_violations) = (0, 0);
    for app in &apps {
        let base = try_jit_analyze_app(&cfg, app, hazard).unwrap();
        let fp = app.try_run_serialized().unwrap().fingerprint();
        for (c, &class) in CLASSES.iter().enumerate() {
            for seed in 0..3u64 {
                let mut jit = base.clone();
                let mut frng = FaultRng::new(seed * 31 + c as u64);
                let k = 1 + frng.below(jit.len() as u64 - 1) as usize;
                let plan = match class {
                    FaultClass::CorruptAccessSet if corrupt_access_set(&mut jit, k, hazard) => {
                        FaultPlan::default()
                    }
                    FaultClass::CorruptPattern if corrupt_pattern(&mut jit, k) => {
                        FaultPlan::default()
                    }
                    FaultClass::CorruptAccessSet | FaultClass::CorruptPattern => continue,
                    _ => match random_plan(class, &jit, &mut frng) {
                        Some(plan) => plan,
                        None => continue,
                    },
                };
                let mode = ExecMode::ConsumerPriority {
                    window: 2 + (seed as u32 % 3),
                };
                // Engine failures never reach verification.
                let Ok(report) = run(
                    &cfg,
                    app,
                    &mut RunSpec {
                        fault: plan.clone(),
                        kernels: Some(&jit),
                        ..RunSpec::new(mode)
                    },
                    &NullTracer,
                ) else {
                    continue;
                };
                let fast = verify_by_conflict_order(app, &jit, &report.schedule).unwrap();
                let replay = verify_soundness(app, &jit, &report.schedule, fp).unwrap();
                if let Some(fast) = fast {
                    assert_eq!(fast, replay, "{} {class:?} seed {seed}", app.name);
                    decided += 1;
                    with_violations += usize::from(!replay.violations.is_empty());
                }
            }
        }
    }
    assert!(decided > 0, "no fault-injected schedule was decided");
    assert!(
        with_violations > 0,
        "no decided schedule carried containment violations to compare"
    );
}

#[test]
fn violations_follow_replay_order() {
    // Two kernels that only share reads of buffer 0, so no block pair
    // conflicts, both with corrupted write sets; their blocks replay
    // interleaved, K1 first.
    let app = chain_app(&[(0, 1), (0, 2)], 3, 4);
    let hazard = HazardMode::Raw;
    let mut jit = try_jit_analyze_app(&GpuConfig::small(), &app, hazard).unwrap();
    assert!(corrupt_access_set(&mut jit, 0, hazard) && corrupt_access_set(&mut jit, 1, hazard));
    let schedule: Schedule = (0..4u32)
        .flat_map(|t| {
            let c = 2 * u64::from(t);
            [(key(1, t), c, c + 1), (key(0, t), c + 1, c + 2)]
        })
        .collect();
    let (fast, replay) = both(&app, &jit, &schedule);
    let replay = replay.unwrap();
    let order: Vec<(u32, u32)> = replay.violations.iter().map(|v| (v.kernel, v.tb)).collect();
    let interleaved: Vec<(u32, u32)> = (0..4).flat_map(|t| [(1, t), (0, t)]).collect();
    assert_eq!(order, interleaved);
    assert_eq!(fast, Some(replay));
}

#[test]
fn swapped_conflicting_pair_falls_back_to_a_failing_replay() {
    // K1 reads what K0 writes, block for block.
    let app = chain_app(&[(0, 1), (1, 2)], 3, 4);
    let jit = try_jit_analyze_app(&GpuConfig::small(), &app, HazardMode::Raw).unwrap();
    assert!(
        agrees(&app, &jit, &serialized()).unwrap(),
        "serialized order"
    );
    for schedule in inverted_orders() {
        let (fast, replay) = both(&app, &jit, &schedule);
        assert_eq!(fast, None, "an inverted RAW pair must not be decided");
        let replay = replay.unwrap();
        assert!(
            !replay.equivalent && replay.violations.is_empty(),
            "{replay:?}"
        );
    }
}

#[test]
fn swap_with_a_matching_replay_is_accepted_by_the_fallback() {
    // Both kernels store the constant 1.0 over the same buffer: every
    // block pair across them with the same index conflicts write-write,
    // but replaying them in either order leaves the same memory.
    let kernel = r#".entry fill(.param .u64 X, .param .u64 Y) {
        ld.param.u64 %rd2, [Y];
        mov.u32 %r1, %ctaid.x;
        mov.u32 %r2, %ntid.x;
        mov.u32 %r3, %tid.x;
        mad.lo.u32 %r4, %r1, %r2, %r3;
        mul.wide.u32 %rd3, %r4, 4;
        add.u64 %rd5, %rd2, %rd3;
        st.global.f32 [%rd5], 0f3F800000;
        ret;
    }"#;
    let app = pairs_app(kernel, &[(0, 1), (0, 1)], 2, 4);
    let jit = try_jit_analyze_app(&GpuConfig::small(), &app, HazardMode::All).unwrap();
    assert!(
        agrees(&app, &jit, &serialized()).unwrap(),
        "serialized order"
    );
    for schedule in inverted_orders() {
        let (fast, replay) = both(&app, &jit, &schedule);
        assert_eq!(
            fast, None,
            "an inverted write-write pair must not be decided"
        );
        assert!(
            replay.unwrap().is_sound(),
            "the replay matches, so it accepts"
        );
    }
}

#[test]
fn malformed_schedules_fall_back_to_the_replay() {
    let app = chain_app(&[(0, 1), (1, 2)], 3, 4);
    let jit = try_jit_analyze_app(&GpuConfig::small(), &app, HazardMode::Raw).unwrap();
    let schedule = serialized();

    // A missing block: K1 TB 3's writes never land.
    let missing: Schedule = schedule
        .iter()
        .copied()
        .filter(|e| e.0 != key(1, 3))
        .collect();
    let (fast, replay) = both(&app, &jit, &missing);
    assert_eq!(fast, None, "missing block");
    assert!(!replay.unwrap().equivalent);

    // A duplicated block: K0 TB 0 replays twice. The kernel is idempotent,
    // so the replay still matches — the fallback, not the check, says so.
    let mut duplicated = schedule.clone();
    duplicated.push(schedule[0]);
    let (fast, replay) = both(&app, &jit, &duplicated);
    assert_eq!(fast, None, "duplicated block");
    assert!(replay.unwrap().is_sound());

    // A block of a kernel the application never launches.
    let mut unknown = schedule.clone();
    unknown.push((key(7, 0), 0, 1));
    let (fast, replay) = both(&app, &jit, &unknown);
    assert_eq!(fast, None, "unknown kernel");
    assert!(
        matches!(replay, Err(PtxError::BadLaunch { .. })),
        "{replay:?}"
    );

    // A block index past its kernel's grid: the replay rejects it before
    // running anything.
    let mut out_of_grid = schedule.clone();
    out_of_grid.retain(|e| e.0 != key(0, 3));
    out_of_grid.push((key(0, 4), 0, 1));
    let (fast, replay) = both(&app, &jit, &out_of_grid);
    assert_eq!(fast, None, "block past the grid");
    assert!(
        matches!(&replay, Err(PtxError::BadLaunch { reason, .. }) if reason.contains("block 4")),
        "{replay:?}"
    );
}

#[test]
fn racy_random_apps_agree_with_replay() {
    // The applications random_apps.rs skips: WAR hazards under RAW-only
    // tracking, and in-place kernels whose blocks race within a launch.
    let (mut decided, mut fallbacks) = (0usize, 0usize);
    check_cases(0xC0F1, 24, |rng| {
        let n_buffers = rng.range_usize(2, 4);
        let n_specs = rng.range_usize(2, 5);
        let window = rng.range_u32(2, 5);
        let in_place = rng.flip();
        let specs: Vec<KernelSpec> = (0..n_specs)
            .map(|_| {
                let mut s = gen_spec(rng, n_buffers);
                // Grids wider than the resident slots, so a consumer's
                // blocks can overtake a producer's waiting ones.
                s.tbs = rng.range_u32(8, 40);
                if in_place {
                    s.dst_buf = s.src_buf;
                }
                s
            })
            .collect();
        if !in_place && !has_war_hazard(&specs) {
            return Ok(());
        }
        let app = build_random_app(n_buffers, &specs);
        // Two SMs of two blocks keep blocks waiting, so run-ahead consumer
        // blocks overtake the blocks whose inputs they overwrite.
        let cfg = GpuConfig {
            num_sms: 2,
            max_tbs_per_sm: 2,
            ..GpuConfig::small()
        };
        let mode = ExecMode::ConsumerPriority { window };
        let jit = try_jit_analyze_app(&cfg, &app, HazardMode::Raw).unwrap();
        let schedule = run(
            &cfg,
            &app,
            &mut RunSpec {
                kernels: Some(&jit),
                ..RunSpec::new(mode)
            },
            &NullTracer,
        )
        .map_err(|e| e.to_string())?
        .schedule;
        if agrees(&app, &jit, &schedule)? {
            decided += 1;
        } else {
            fallbacks += 1;
        }
        // The guarded pipeline, whichever way it decides, accepts only a
        // schedule that replays to serialized memory.
        let report = run(
            &cfg,
            &app,
            &mut RunSpec {
                guard: true,
                ..RunSpec::new(mode)
            },
            &NullTracer,
        )
        .map_err(|e| format!("guarded run of {specs:?}: {e}"))?;
        let eq = check_schedule(&app, &report.schedule).map_err(|e| e.to_string())?;
        prop_ensure!(eq.is_match(), "guarded schedule diverged for {specs:?}");
        Ok(())
    });
    assert!(decided > 0, "no racy schedule was decided");
    assert!(fallbacks > 0, "no racy schedule reached the fallback");
}
