//! End-to-end correctness checking.
//!
//! BlockMaestro must be *architecturally invisible*: however aggressively
//! TBs of different kernels overlap, final memory must equal serialized
//! execution. This module replays a run's TB schedule functionally — in
//! the exact start order the scheduler produced — and compares the full
//! memory image against the serialized reference.

use crate::guard::{beside, check_entries};
use bm_cmdq::Application;
use bm_ptx::error::PtxError;
use bm_ptx::interp::{Lockstep, Program, MAX_STEPS_PER_THREAD};
use bm_ptx::kernel::Launch;
use bm_ptx::mem::GlobalMem;
use bm_simt::des::TbKey;
use std::fmt;

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// Memory images match.
    Match,
    /// Memory images differ — the schedule violated a data dependency.
    Mismatch {
        /// Fingerprint of the serialized reference memory.
        expected: u64,
        /// Fingerprint of the replayed memory.
        actual: u64,
    },
}

impl Equivalence {
    /// Whether the check passed.
    pub fn is_match(&self) -> bool {
        matches!(self, Equivalence::Match)
    }
}

impl fmt::Display for Equivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Equivalence::Match => f.write_str("schedules equivalent"),
            Equivalence::Mismatch { expected, actual } => write!(
                f,
                "schedule mismatch: expected memory {expected:#x}, got {actual:#x}"
            ),
        }
    }
}

/// Checks that `schedule` lists every (kernel, block) key of `launches`
/// exactly once, before anything runs.
///
/// # Errors
///
/// [`PtxError::BadLaunch`] for an unknown kernel, a block past its grid, a
/// block listed twice or a block left out.
fn check_permutation(launches: &[&Launch], schedule: &[(TbKey, u64, u64)]) -> Result<(), PtxError> {
    check_entries(launches, schedule)?;
    let bad = |l: &Launch, reason: String| PtxError::BadLaunch {
        kernel: l.kernel.name.clone(),
        reason,
    };
    let mut seen: Vec<Vec<bool>> = launches
        .iter()
        .map(|l| vec![false; l.num_blocks() as usize])
        .collect();
    for (key, _, _) in schedule {
        let k = key.kernel_seq as usize;
        if std::mem::replace(&mut seen[k][key.tb as usize], true) {
            let reason = format!("schedule lists block {} twice", key.tb);
            return Err(bad(launches[k], reason));
        }
    }
    for (l, seen) in launches.iter().zip(&seen) {
        if let Some(tb) = seen.iter().position(|&s| !s) {
            return Err(bad(l, format!("schedule leaves out block {tb}")));
        }
    }
    Ok(())
}

/// Replays `schedule` (TB keys with start times) functionally and compares
/// against serialized execution of `app`.
///
/// The replay executes thread blocks atomically in ascending start order
/// (ties broken by schedule position) — a legal linearization of the
/// simulated overlap. If the dependency tracking let a consumer start
/// before a producer it reads from finished, the images diverge. The two
/// passes share nothing, so the serialized one runs on a second thread
/// beside the replay; a failure of the serialized pass is returned first.
///
/// # Errors
///
/// [`PtxError::BadLaunch`], before anything runs, when `schedule` is not a
/// permutation of `app`'s (kernel, block) keys; [`PtxError::Exec`] when
/// functional execution fails.
pub fn check_schedule(
    app: &Application,
    schedule: &[(TbKey, u64, u64)],
) -> Result<Equivalence, PtxError> {
    let launches: Vec<&Launch> = app.launches();
    check_permutation(&launches, schedule)?;
    let programs: Vec<Program> = launches.iter().map(|l| Program::new(l)).collect();
    let mut order: Vec<(usize, TbKey, u64)> = schedule
        .iter()
        .enumerate()
        .map(|(i, &(k, s, _))| (i, k, s))
        .collect();
    order.sort_by_key(|&(i, _, s)| (s, i));
    // Reference: serialized kernel order, beside the replay in start order.
    let (reference, replayed) = beside(
        |_| app.run_serialized(),
        |_| {
            let mut mem = app.initial_memory();
            let mut warps = Lockstep::new();
            for (_, key, _) in order {
                let program = &programs[key.kernel_seq as usize];
                warps.execute_block(program, key.tb, &mut mem, MAX_STEPS_PER_THREAD)?;
            }
            Ok::<_, PtxError>(mem)
        },
    );
    Ok(compare(&reference?, &replayed?))
}

/// A data race between two time-overlapping thread blocks of different
/// kernels: at least one writes a byte the other touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// The earlier-starting thread block.
    pub first: TbKey,
    /// The overlapping thread block.
    pub second: TbKey,
}

/// Detects inter-kernel data races in a schedule: for every pair of
/// thread blocks from *different kernels* whose execution intervals
/// overlap, their functionally-observed access sets must not conflict
/// (write∩write or read∩write).
///
/// This is strictly stronger than [`check_schedule`]: a linearized replay
/// can mask a race when the conflicting blocks happen to replay in the
/// benign order, whereas overlap + conflict is flagged here regardless.
/// Intra-kernel pairs are exempt — SIMT semantics make thread blocks of
/// one grid the programmer's concurrency responsibility.
///
/// # Errors
///
/// As [`check_schedule`].
pub fn check_no_races(
    app: &Application,
    schedule: &[(TbKey, u64, u64)],
) -> Result<Vec<Race>, PtxError> {
    use bm_ptx::access::{AccessLog, RangeSet};

    struct Sets {
        reads: RangeSet,
        writes: RangeSet,
    }

    let launches: Vec<&Launch> = app.launches();
    check_permutation(&launches, schedule)?;
    let programs: Vec<Program> = launches.iter().map(|l| Program::new(l)).collect();
    // Collect actual access sets by replaying in start order (any order
    // yields the same *addresses* for data-independent control flow).
    let mut order: Vec<(TbKey, u64, u64)> = schedule.to_vec();
    order.sort_by_key(|&(_, s, _)| s);
    let mut mem = app.initial_memory();
    let mut log = AccessLog::new(&app.space);
    let (mut ranges, mut bounds) = (Vec::new(), Vec::new());
    let mut sets: Vec<(TbKey, u64, u64, Sets)> = Vec::with_capacity(order.len());
    for (key, start, finish) in order {
        log.execute_block(
            &programs[key.kernel_seq as usize],
            key.tb,
            &mut mem,
            MAX_STEPS_PER_THREAD,
        )?;
        ranges.clear();
        bounds.clear();
        log.finish_block(&mut ranges, &mut bounds);
        let (reads, writes) = ranges.split_at(bounds[0]);
        let s = Sets {
            reads: RangeSet::from_unsorted(reads.to_vec()),
            writes: RangeSet::from_unsorted(writes.to_vec()),
        };
        sets.push((key, start, finish, s));
    }
    // Sweep by start time; compare each block against the active set.
    let mut races = Vec::new();
    let mut active: Vec<usize> = Vec::new();
    for i in 0..sets.len() {
        let (key, start, _, ref s) = sets[i];
        active.retain(|&j| sets[j].2 > start);
        for &j in &active {
            let (okey, _, _, ref o) = sets[j];
            if okey.kernel_seq == key.kernel_seq {
                continue;
            }
            let conflict = s.writes.intersects(&o.writes)
                || s.writes.intersects(&o.reads)
                || s.reads.intersects(&o.writes);
            if conflict {
                races.push(Race {
                    first: okey,
                    second: key,
                });
            }
        }
        active.push(i);
    }
    Ok(races)
}

fn compare(expected: &GlobalMem, actual: &GlobalMem) -> Equivalence {
    let e = expected.fingerprint();
    let a = actual.fingerprint();
    if e == a {
        Equivalence::Match
    } else {
        Equivalence::Mismatch {
            expected: e,
            actual: a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_cmdq::ApiCall;
    use bm_ptx::kernel::{ArgValue, Dim3};
    use bm_ptx::mem::AddressSpace;
    use bm_ptx::parser::parse_kernel;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// K1: B[i] = A[i] + 1; K2: C[i] = B[i] * 2 — a RAW chain.
    fn chain_app() -> Application {
        let mut space = AddressSpace::new();
        let n = 128u64;
        let a = space.alloc(4 * n);
        let b = space.alloc(4 * n);
        let c = space.alloc(4 * n);
        let src = |op: &str| {
            format!(
                r#".entry k(.param .u64 X, .param .u64 Y) {{
                     ld.param.u64 %rd1, [X];
                     ld.param.u64 %rd2, [Y];
                     mov.u32 %r1, %ctaid.x;
                     mov.u32 %r2, %ntid.x;
                     mov.u32 %r3, %tid.x;
                     mad.lo.u32 %r4, %r1, %r2, %r3;
                     mul.wide.u32 %rd3, %r4, 4;
                     add.u64 %rd4, %rd1, %rd3;
                     ld.global.f32 %f1, [%rd4];
                     {op}
                     add.u64 %rd5, %rd2, %rd3;
                     st.global.f32 [%rd5], %f2;
                     ret;
                   }}"#
            )
        };
        let k1 = Arc::new(parse_kernel(&src("add.f32 %f2, %f1, 0f3F800000;")).unwrap());
        let k2 = Arc::new(parse_kernel(&src("mul.f32 %f2, %f1, 0f40000000;")).unwrap());
        let mut host_data = HashMap::new();
        host_data.insert(a.id, (0..n).map(|i| i as f32).collect::<Vec<_>>());
        Application {
            name: "chain".into(),
            space,
            calls: vec![
                ApiCall::MemcpyH2D {
                    alloc: a.id,
                    bytes: 4 * n,
                },
                ApiCall::KernelLaunch(Launch::new(
                    k1,
                    Dim3::x(2),
                    Dim3::x(64),
                    vec![ArgValue::Ptr(a.base), ArgValue::Ptr(b.base)],
                )),
                ApiCall::KernelLaunch(Launch::new(
                    k2,
                    Dim3::x(2),
                    Dim3::x(64),
                    vec![ArgValue::Ptr(b.base), ArgValue::Ptr(c.base)],
                )),
            ],
            host_data,
        }
    }

    fn key(k: u32, tb: u32) -> TbKey {
        TbKey { kernel_seq: k, tb }
    }

    #[test]
    fn race_detector_flags_overlapping_conflicts() {
        let app = chain_app();
        // K1:0 writes B[0..64); K2:0 reads the same region; they overlap
        // in time -> race.
        let schedule = vec![
            (key(0, 0), 0, 100),
            (key(1, 0), 50, 150), // overlaps K1:0 and reads its output
            (key(0, 1), 0, 100),
            (key(1, 1), 120, 200),
        ];
        let races = check_no_races(&app, &schedule).unwrap();
        assert!(races
            .iter()
            .any(|r| r.first == key(0, 0) && r.second == key(1, 0)));
        // A properly-ordered schedule is race-free.
        let clean = vec![
            (key(0, 0), 0, 100),
            (key(0, 1), 0, 100),
            (key(1, 0), 100, 200),
            (key(1, 1), 100, 200),
        ];
        assert!(check_no_races(&app, &clean).unwrap().is_empty());
    }

    #[test]
    fn valid_interleaving_matches() {
        let app = chain_app();
        // K2:0 runs as soon as K1:0 finished — a legal fine-grain overlap.
        let schedule = vec![
            (key(0, 0), 0, 10),
            (key(0, 1), 5, 15),
            (key(1, 0), 12, 20),
            (key(1, 1), 16, 25),
        ];
        let r = check_schedule(&app, &schedule).unwrap();
        assert!(r.is_match(), "{r}");
    }

    #[test]
    fn dependency_violation_detected() {
        let app = chain_app();
        // K2:0 starts before K1:0 — reads stale B.
        let schedule = vec![
            (key(1, 0), 0, 10),
            (key(0, 0), 5, 15),
            (key(0, 1), 5, 15),
            (key(1, 1), 20, 25),
        ];
        let r = check_schedule(&app, &schedule).unwrap();
        assert!(!r.is_match());
    }

    #[test]
    fn incomplete_schedule_is_a_typed_error() {
        let app = chain_app();
        let schedule = vec![(key(0, 0), 0, 10)];
        let err = check_schedule(&app, &schedule).unwrap_err();
        assert!(
            matches!(&err, PtxError::BadLaunch { reason, .. } if reason.contains("leaves out block 1")),
            "{err}"
        );
    }
}
