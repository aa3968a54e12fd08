//! Deterministic fault-injection harness.
//!
//! For every fault class, 32 seeded cases (384 total) corrupt the
//! dependency metadata of a kernel chain — dropped/phantom dependency-list
//! edges, mis-seeded or saturated parent counters, forced buffer spills,
//! corrupted access sets and patterns, simulated crashes, cooperative
//! cancellations, injected worker panics, and dropped or corrupted
//! cross-device link transfers — and run the guarded pipeline. Every case
//! must end in exactly one of two states:
//!
//! 1. recovery: `Ok(report)` whose schedule replays to the serialized
//!    memory image, or
//! 2. a typed error (`BmError`) — never a wrong accepted result, an
//!    *uncontained* panic, or a hang (the DES watchdog bounds every run;
//!    [`FaultClass::WorkerPanic`] unwinds by design and must be contained
//!    by `catch_unwind`, leaving a resumable checkpoint behind).

use blockmaestro::{
    check_schedule, corrupt_access_set, corrupt_pattern, random_plan, run, try_jit_analyze_app,
    BmError, CheckpointPolicy, CheckpointSession, DegradationReason, EngineError, ExecMode,
    FaultClass, FaultPlan, FaultRng, JitKernel, MemStore, RunReport, RunSpec,
};
use bm_cmdq::{ApiCall, Application};
use bm_depgraph::HazardMode;
use bm_multi::MultiGpuConfig;
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::parser::parse_kernel;
use bm_simt::GpuConfig;
use bm_testkit::{check_cases, Rng};
use bm_trace::NullTracer;
use std::collections::HashMap;
use std::sync::Arc;

const SEEDS_PER_CLASS: usize = 32;

/// A 4-kernel RAW chain: B=f(A), C=f(B), D=f(C), E=f(D); 8 TBs of 64
/// threads each, so every inter-kernel graph is explicit 1-to-1 — the
/// configuration where all of the dependency hardware is live.
fn chain_app() -> Application {
    let tbs = 8u32;
    let n = tbs as u64 * 64;
    let mut space = AddressSpace::new();
    let allocs: Vec<_> = (0..5).map(|_| space.alloc(4 * n)).collect();
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
        (0..n).map(|i| i as f32 * 0.5).collect::<Vec<_>>(),
    );
    let mut calls = vec![ApiCall::MemcpyH2D {
        alloc: allocs[0].id,
        bytes: 4 * n,
    }];
    calls.extend((0..4).map(|i| {
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
        name: "fault-chain".into(),
        space,
        calls,
        host_data,
    }
}

/// A 4-kernel chain like [`chain_app`] but with each read shifted 5 TBs
/// forward (TB `t` of kernel `k+1` reads TB `t + 5` of kernel `k`), so any
/// contiguous TB cut has parent→child edges crossing it — the
/// configuration where the interconnect actually carries data and a link
/// fault has something to hit. 16 TBs per kernel gives ≥ 8 cross-device
/// transfers for every device count in 2..=4, covering every `nth` the
/// link-fault planner can draw.
fn shifted_chain_app() -> Application {
    let tbs = 16u32;
    let shift_elems = 5u64 * 64;
    let n = tbs as u64 * 64;
    let mut space = AddressSpace::new();
    // Over-allocate so the shifted reads stay in bounds; only [0, n) is
    // ever written.
    let allocs: Vec<_> = (0..5).map(|_| space.alloc(4 * (n + shift_elems))).collect();
    let k = Arc::new(
        parse_kernel(
            r#".entry stepshift(.param .u64 X, .param .u64 Y) {
                 ld.param.u64 %rd1, [X];
                 ld.param.u64 %rd2, [Y];
                 mov.u32 %r1, %ctaid.x;
                 mov.u32 %r2, %ntid.x;
                 mov.u32 %r3, %tid.x;
                 mad.lo.u32 %r4, %r1, %r2, %r3;
                 add.u32 %r5, %r4, 320;
                 mul.wide.u32 %rd3, %r5, 4;
                 add.u64 %rd4, %rd1, %rd3;
                 ld.global.f32 %f1, [%rd4];
                 add.f32 %f2, %f1, 0f3F800000;
                 mul.wide.u32 %rd5, %r4, 4;
                 add.u64 %rd6, %rd2, %rd5;
                 st.global.f32 [%rd6], %f2;
                 ret;
               }"#,
        )
        .unwrap(),
    );
    let mut host_data = HashMap::new();
    host_data.insert(
        allocs[0].id,
        (0..n + shift_elems)
            .map(|i| i as f32 * 0.25)
            .collect::<Vec<_>>(),
    );
    let mut calls = vec![ApiCall::MemcpyH2D {
        alloc: allocs[0].id,
        bytes: 4 * (n + shift_elems),
    }];
    calls.extend((0..4).map(|i| {
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
        name: "fault-shift-chain".into(),
        space,
        calls,
        host_data,
    }
}

fn fine_grain_mode(rng: &mut Rng) -> ExecMode {
    if rng.flip() {
        ExecMode::ProducerPriority { window: 2 }
    } else {
        ExecMode::ConsumerPriority {
            window: rng.range_u32(2, 4),
        }
    }
}

/// A guarded spec under `mode` (RAW hazards, no faults).
fn guarded(mode: ExecMode) -> RunSpec<'static> {
    RunSpec {
        guard: true,
        ..RunSpec::new(mode)
    }
}

/// A guarded run under `plan` that checkpoints every kernel into `store`,
/// resuming from its latest snapshot when `resume` is set.
fn checkpointed_run(
    cfg: &GpuConfig,
    app: &Application,
    mode: ExecMode,
    plan: &FaultPlan,
    store: &mut MemStore,
    resume: bool,
) -> Result<RunReport, BmError> {
    let mut spec = RunSpec {
        fault: plan.clone(),
        checkpoint: CheckpointSession {
            policy: CheckpointPolicy::every_kernels(1),
            store: Some(store),
            resume_latest: resume,
            ..CheckpointSession::disabled()
        },
        ..guarded(mode)
    };
    run(cfg, app, &mut spec, &NullTracer)
}

/// Runs one seeded case of `class`; returns `Ok(true)` if the run
/// recovered to a correct schedule, `Ok(false)` if it ended in a typed
/// error, and an error string on any property violation.
/// One seeded kill-and-resume case: the run is killed at a random interior
/// kernel boundary (after that boundary's checkpoint lands in the store),
/// then resumed — and the resumed report must be bit-identical to an
/// uninterrupted run.
fn run_kill_case(app: &Application, base_jit: &[JitKernel], rng: &mut Rng) -> Result<bool, String> {
    let mode = fine_grain_mode(rng);
    let cfg = GpuConfig::small();
    let mut frng = FaultRng::new(rng.next_u64());
    let plan = match random_plan(FaultClass::KillPoint, base_jit, &mut frng) {
        Some(p) => p,
        None => return Err("no kill site".into()),
    };
    let reference = run(&cfg, app, &mut guarded(mode), &NullTracer)
        .map_err(|e| format!("reference run: {e}"))?;
    let mut store = MemStore::default();
    match checkpointed_run(&cfg, app, mode, &plan, &mut store, false) {
        Err(BmError::Engine(EngineError::Killed { .. })) => {}
        Err(e) => return Err(format!("kill run failed with the wrong error: {e}")),
        Ok(_) => return Err("kill plan did not fire".into()),
    }
    bm_testkit::prop_ensure!(
        !store.snaps.is_empty(),
        "the kill must land after its boundary's checkpoint"
    );
    let resumed = checkpointed_run(&cfg, app, mode, &FaultPlan::default(), &mut store, true)
        .map_err(|e| format!("resume failed: {e}"))?;
    bm_testkit::prop_ensure!(
        resumed == reference,
        "under {mode}: resumed report diverges from the uninterrupted run"
    );
    let eq = check_schedule(app, &resumed.schedule).map_err(|e| format!("replay failed: {e}"))?;
    bm_testkit::prop_ensure!(
        eq.is_match(),
        "under {mode}: resumed schedule diverges from serialized ({eq})"
    );
    Ok(true)
}

/// One seeded cancel-and-retry case: a cooperative cancellation fires at a
/// random interior kernel boundary (after that boundary's checkpoint lands
/// in the store) and must surface as a typed `EngineError::Cancelled`; the
/// retried run resumes from the checkpoint and must be bit-identical to an
/// uninterrupted run.
fn run_cancel_case(
    app: &Application,
    base_jit: &[JitKernel],
    rng: &mut Rng,
) -> Result<bool, String> {
    let mode = fine_grain_mode(rng);
    let cfg = GpuConfig::small();
    let mut frng = FaultRng::new(rng.next_u64());
    let plan = match random_plan(FaultClass::CancelAtBoundary, base_jit, &mut frng) {
        Some(p) => p,
        None => return Err("no cancel site".into()),
    };
    let reference = run(&cfg, app, &mut guarded(mode), &NullTracer)
        .map_err(|e| format!("reference run: {e}"))?;
    let mut store = MemStore::default();
    match checkpointed_run(&cfg, app, mode, &plan, &mut store, false) {
        Err(BmError::Engine(EngineError::Cancelled { .. })) => {}
        Err(e) => return Err(format!("cancel run failed with the wrong error: {e}")),
        Ok(_) => return Err("cancel plan did not fire".into()),
    }
    bm_testkit::prop_ensure!(
        !store.snaps.is_empty(),
        "the cancel must land after its boundary's checkpoint"
    );
    let resumed = checkpointed_run(&cfg, app, mode, &FaultPlan::default(), &mut store, true)
        .map_err(|e| format!("resume after cancel failed: {e}"))?;
    bm_testkit::prop_ensure!(
        resumed == reference,
        "under {mode}: report resumed after cancel diverges from the uninterrupted run"
    );
    let eq = check_schedule(app, &resumed.schedule).map_err(|e| format!("replay failed: {e}"))?;
    bm_testkit::prop_ensure!(
        eq.is_match(),
        "under {mode}: schedule resumed after cancel diverges from serialized ({eq})"
    );
    Ok(true)
}

/// One seeded worker-panic case: a raw panic fires at a random interior
/// kernel boundary. The panic must be containable by `catch_unwind` (no
/// aborts, no poisoned global state), the boundary checkpoint must already
/// be durable, the resumed run must be bit-identical to an uninterrupted
/// run, and a fresh unrelated run in the same process must be unaffected —
/// no cross-request state leakage between worker reuses.
fn run_panic_case(
    app: &Application,
    base_jit: &[JitKernel],
    rng: &mut Rng,
) -> Result<bool, String> {
    let mode = fine_grain_mode(rng);
    let cfg = GpuConfig::small();
    let mut frng = FaultRng::new(rng.next_u64());
    let plan = match random_plan(FaultClass::WorkerPanic, base_jit, &mut frng) {
        Some(p) => p,
        None => return Err("no panic site".into()),
    };
    let reference = run(&cfg, app, &mut guarded(mode), &NullTracer)
        .map_err(|e| format!("reference run: {e}"))?;
    let mut store = MemStore::default();
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        checkpointed_run(&cfg, app, mode, &plan, &mut store, false)
    }));
    bm_testkit::prop_ensure!(res.is_err(), "panic plan did not unwind");
    bm_testkit::prop_ensure!(
        !store.snaps.is_empty(),
        "the panic must land after its boundary's checkpoint"
    );
    // The panicked worker's engine state is gone; only the store survives.
    let resumed = checkpointed_run(&cfg, app, mode, &FaultPlan::default(), &mut store, true)
        .map_err(|e| format!("resume after panic failed: {e}"))?;
    bm_testkit::prop_ensure!(
        resumed == reference,
        "under {mode}: report resumed after panic diverges from the uninterrupted run"
    );
    // Containment: a clean run in the same process after the unwind must
    // match the reference exactly — the panic left nothing behind.
    let clean = run(&cfg, app, &mut guarded(mode), &NullTracer)
        .map_err(|e| format!("post-panic run: {e}"))?;
    bm_testkit::prop_ensure!(
        clean == reference,
        "under {mode}: a clean run after a contained panic diverges — state leaked"
    );
    Ok(true)
}

/// One seeded link-fault case: a multi-device run whose interconnect
/// drops or corrupts a cross-device transfer. The attempt must degrade
/// gracefully — a single-device rerun recorded as
/// [`DegradationReason::LinkFault`], bit-identical to a clean run, never a
/// panic or a wrong accepted result.
fn run_link_case(app: &Application, base_jit: &[JitKernel], rng: &mut Rng) -> Result<bool, String> {
    let hazard = HazardMode::Raw;
    let mode = fine_grain_mode(rng);
    let cfg = GpuConfig::small();
    let mut frng = FaultRng::new(rng.next_u64());
    let plan = match random_plan(FaultClass::LinkFault, base_jit, &mut frng) {
        Some(p) => p,
        None => return Err("no link-fault site".into()),
    };
    let devices = 2 + frng.below(3) as u32;
    let mcfg = MultiGpuConfig::devices(devices);
    let mut spec = RunSpec {
        hazard,
        fault: plan,
        ..RunSpec::new(mode)
    };
    let report = bm_multi::run(&cfg, &mcfg, app, &mut spec, &NullTracer).map_err(|e| {
        format!("link fault under {mode}, {devices} devices, must degrade, not fail: {e}")
    })?;
    let multi = report
        .multi
        .as_ref()
        .ok_or_else(|| "fallback must keep the multi section".to_string())?;
    let (reason, cycle) = multi.fallback.ok_or_else(|| {
        format!("{devices} devices under {mode}: the injected fault did not fire")
    })?;
    bm_testkit::prop_ensure!(
        reason == DegradationReason::LinkFault,
        "wrong degradation reason {reason:?}"
    );
    bm_testkit::prop_ensure!(cycle > 0, "detection cycle must be stamped");
    let eq = check_schedule(app, &report.schedule).map_err(|e| format!("replay failed: {e}"))?;
    bm_testkit::prop_ensure!(
        eq.is_match(),
        "under {mode}: degraded schedule diverges from serialized ({eq})"
    );
    // The fallback is a clean single-device run, bit for bit.
    let clean =
        run(&cfg, app, &mut guarded(mode), &NullTracer).map_err(|e| format!("clean run: {e}"))?;
    let mut stripped = report.clone();
    stripped.multi = None;
    bm_testkit::prop_ensure!(
        stripped == clean,
        "under {mode}: degraded run diverges from a clean single-device run"
    );
    Ok(true)
}

fn run_case(
    class: FaultClass,
    app: &Application,
    base_jit: &[JitKernel],
    rng: &mut Rng,
) -> Result<bool, String> {
    if class == FaultClass::LinkFault {
        return run_link_case(app, base_jit, rng);
    }
    if class == FaultClass::KillPoint {
        return run_kill_case(app, base_jit, rng);
    }
    if class == FaultClass::CancelAtBoundary {
        return run_cancel_case(app, base_jit, rng);
    }
    if class == FaultClass::WorkerPanic {
        return run_panic_case(app, base_jit, rng);
    }
    let hazard = HazardMode::Raw;
    let mode = fine_grain_mode(rng);
    let mut jit = base_jit.to_vec();
    let mut frng = FaultRng::new(rng.next_u64());
    let plan = if class.is_static() {
        // Corrupt a random kernel's analysis products before the run.
        let k = 1 + frng.below(jit.len() as u64 - 1) as usize;
        let applied = match class {
            FaultClass::CorruptAccessSet => corrupt_access_set(&mut jit, k, hazard),
            _ => corrupt_pattern(&mut jit, k),
        };
        if !applied {
            return Err(format!("no corruption site for {class:?} at kernel {k}"));
        }
        FaultPlan::default()
    } else {
        match random_plan(class, &jit, &mut frng) {
            Some(p) => p,
            None => return Err(format!("no injection site for {class:?}")),
        }
    };
    match run(
        &GpuConfig::small(),
        app,
        &mut RunSpec {
            hazard,
            guard: true,
            fault: plan.clone(),
            kernels: Some(&jit),
            ..RunSpec::new(mode)
        },
        &NullTracer,
    ) {
        Ok(report) => {
            // An accepted run must be architecturally invisible.
            let eq =
                check_schedule(app, &report.schedule).map_err(|e| format!("replay failed: {e}"))?;
            bm_testkit::prop_ensure!(
                eq.is_match(),
                "{class:?} under {mode}: accepted run diverges from serialized ({eq})"
            );
            // Classes that always perturb the live dependency hardware
            // must have been caught and recovered, not silently absorbed.
            let must_recover = matches!(
                class,
                FaultClass::DropChild
                    | FaultClass::PhantomChild
                    | FaultClass::CounterExcess
                    | FaultClass::CounterDeficit
                    | FaultClass::CounterSaturation
                    | FaultClass::CorruptAccessSet
            );
            if must_recover {
                bm_testkit::prop_ensure!(
                    report.guard.recovery_rounds >= 1,
                    "{class:?} under {mode}: fault absorbed without any recovery round"
                );
                bm_testkit::prop_ensure!(
                    report.guard.cycles_lost_to_fallback > 0,
                    "{class:?}: recovery must account discarded cycles"
                );
            }
            if class == FaultClass::BufferSpill {
                // Benign fault: correct first time, just more traffic.
                bm_testkit::prop_ensure!(
                    report.guard.recovery_rounds == 0,
                    "{class:?}: spills must not trigger the guard"
                );
                bm_testkit::prop_ensure!(
                    report.hw_traffic.counter_writebacks > 0,
                    "{class:?}: a 1-3 entry buffer must spill"
                );
            }
            Ok(true)
        }
        // A typed error is an acceptable terminal state — the contract
        // forbids wrong results, panics, and hangs, not failure itself.
        Err(_typed) => Ok(false),
    }
}

fn check_class(class: FaultClass) {
    // Link faults need cut-crossing edges; the identity chain has none
    // (a contiguous cut never separates TB t from its sole parent t).
    let app = if class == FaultClass::LinkFault {
        shifted_chain_app()
    } else {
        chain_app()
    };
    let base_jit =
        try_jit_analyze_app(&GpuConfig::small(), &app, HazardMode::Raw).expect("clean analysis");
    // Distinct base seed per class so cases are uncorrelated across tests.
    let base_seed = 0xB10C_0000 ^ (class as u64) << 8;
    let mut recovered = 0u32;
    check_cases(base_seed, SEEDS_PER_CLASS, |rng| {
        run_case(class, &app, &base_jit, rng).map(|ok| {
            if ok {
                recovered += 1;
            }
        })
    });
    // Guard against a vacuous pass: the typed-error escape hatch must not
    // swallow the whole class — quarantine-to-barrier recovery is expected
    // to succeed for every fault model we inject.
    assert_eq!(
        recovered as usize, SEEDS_PER_CLASS,
        "{class:?}: {recovered}/{SEEDS_PER_CLASS} cases recovered; the rest fell through to typed errors"
    );
}

#[test]
fn drop_child_recovers_or_errors() {
    check_class(FaultClass::DropChild);
}

#[test]
fn phantom_child_recovers_or_errors() {
    check_class(FaultClass::PhantomChild);
}

#[test]
fn counter_excess_recovers_or_errors() {
    check_class(FaultClass::CounterExcess);
}

#[test]
fn counter_deficit_recovers_or_errors() {
    check_class(FaultClass::CounterDeficit);
}

#[test]
fn counter_saturation_recovers_or_errors() {
    check_class(FaultClass::CounterSaturation);
}

#[test]
fn buffer_spill_is_benign() {
    check_class(FaultClass::BufferSpill);
}

#[test]
fn corrupt_access_set_is_caught_by_the_guard() {
    check_class(FaultClass::CorruptAccessSet);
}

#[test]
fn corrupt_pattern_never_yields_wrong_results() {
    check_class(FaultClass::CorruptPattern);
}

#[test]
fn kill_point_resumes_bit_identically() {
    check_class(FaultClass::KillPoint);
}

#[test]
fn cancel_at_boundary_resumes_bit_identically() {
    check_class(FaultClass::CancelAtBoundary);
}

#[test]
fn worker_panic_is_contained_and_resumable() {
    // The injected panic prints its message per case; silence nothing —
    // the containment assertions below are what matter.
    check_class(FaultClass::WorkerPanic);
}

#[test]
fn link_fault_degrades_to_a_single_device() {
    check_class(FaultClass::LinkFault);
}

#[test]
fn every_fault_class_is_covered() {
    // 12 classes x 32 seeds = 384 cases across the suite.
    assert_eq!(FaultClass::all().len() * SEEDS_PER_CLASS, 384);
}
