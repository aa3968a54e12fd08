//! Runtime soundness guard and fault recovery.
//!
//! BlockMaestro's correctness rests on the launch-time analysis producing
//! *over-approximate* per-TB access sets. The guard removes that trust:
//! every guarded run checks each thread block's observed global accesses
//! against its declared read/write sets, and the schedule's final memory
//! against serialized execution. A violation (or any typed engine failure —
//! deadlock, counter underflow) triggers *quarantine*: the implicated
//! kernels are marked `non_static`, their dependency graphs degrade to the
//! fully-connected (whole-kernel barrier) encoding, skip gates are
//! recomputed, and the application is re-run. Barrier semantics bypass the
//! parent-counter hardware entirely, so the degraded configuration is
//! immune to the metadata faults that broke the optimistic run — the
//! recovery loop converges within [`MAX_ROUNDS`] rounds or reports
//! [`BmError::Unrecoverable`].
//!
//! The guard interprets the application once. The serialized reference
//! pass logs every thread block's global reads and writes, and each
//! block's containment verdict is computed from that log. A schedule is
//! then accepted without replay when every *conflicting* pair of blocks
//! (two blocks touching a common byte, at least one writing it) replays in
//! serialized order. By induction over replay order, every block then
//! reads the values it read in the serialized pass, so its accesses, its
//! verdict and the final memory are exactly what a replay would observe.
//! A schedule the check cannot decide falls back to [`verify_soundness`],
//! the full replay.
//!
//! A [`crate::run`] with [`crate::RunSpec::guard`] set runs inside
//! [`guarded_rounds`], and so does a guarded multi-device run in `bm-multi`:
//! one quarantine loop for 1..N devices. The logged serialized pass reads
//! neither the analysis nor a schedule, so it runs on a second thread
//! beside the analysis and the first round.

use crate::degrade::{DegradationReason, DegradationRung};
use crate::engine::RunReport;
use crate::error::{BmError, EngineError};
use crate::jit::{recompute_skip_gates, JitKernel};
use crate::run::RunSpec;
use crate::snapshot::GuardSnapshot;
use bm_cmdq::{Application, CmdqError};
use bm_depgraph::{storage, BipartiteGraph, Pattern};
use bm_ptx::access::{AccessLog, RangeSet, TbAccess};
use bm_ptx::cancel::{CancelCause, CancelToken};
use bm_ptx::error::PtxError;
use bm_ptx::interp::{Program, MAX_STEPS_PER_THREAD};
use bm_ptx::kernel::Launch;
use bm_ptx::mem::{AddressSpace, GlobalMem};
use bm_simt::des::TbKey;
use bm_trace::{TraceEvent, Tracer};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

/// Guarded re-runs attempted before giving up.
pub const MAX_ROUNDS: u32 = 3;

/// A thread block touched memory outside its declared access set — the
/// launch-time analysis was unsound for this kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoundnessViolation {
    /// Kernel sequence number.
    pub kernel: u32,
    /// Offending thread block.
    pub tb: u32,
    /// First out-of-set address observed.
    pub addr: u64,
}

impl fmt::Display for SoundnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel {} TB {} accessed {:#x} outside its declared set",
            self.kernel, self.tb, self.addr
        )
    }
}

/// Accounting for the guard's work across one guarded execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardReport {
    /// Containment violations + unattributable result mismatches observed.
    pub violations_detected: u64,
    /// Distinct kernels quarantined to the fully-connected fallback.
    pub kernels_quarantined: u64,
    /// Cycles of discarded (faulty) runs — the performance price of
    /// falling back.
    pub cycles_lost_to_fallback: u64,
    /// Re-runs performed before the accepted run (0 = first run was clean).
    pub recovery_rounds: u32,
}

/// Result of one soundness verification pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoundnessOutcome {
    /// Containment violations, at most one per thread block.
    pub violations: Vec<SoundnessViolation>,
    /// Whether the replayed final memory matches serialized execution.
    pub equivalent: bool,
}

impl SoundnessOutcome {
    /// Whether the run is accepted as sound.
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty() && self.equivalent
    }
}

/// The first 4-byte word of `observed` (canonical ranges) outside
/// `declared`. The per-word scan runs only when the `O(ranges)` subset
/// test finds an escape.
fn first_escapee(observed: &[(u64, u64)], declared: &RangeSet) -> Option<u64> {
    if declared.covers(observed) {
        return None;
    }
    observed
        .iter()
        .flat_map(|&(s, e)| (s..e).step_by(4))
        .find(|&a| !declared.contains(a))
}

/// The containment verdict of one thread block: its first escaping
/// address, writes checked before reads.
fn escape(reads: &[(u64, u64)], writes: &[(u64, u64)], declared: &TbAccess) -> Option<u64> {
    first_escapee(writes, &declared.writes).or_else(|| first_escapee(reads, &declared.reads))
}

/// What the serialized pass observed, shared by the rounds of one guarded
/// call (and only those: [`app_fingerprint`] does not hash host data, so
/// an observation cannot be keyed across inputs).
///
/// Blocks are numbered in serialized order, kernel by kernel. Their access
/// sets live in one flat vector: keeping one small allocation per block
/// alive through the pass slowed GAUSSIAN's serialized pass by about a
/// third, through the interpreter's own per-block allocations. A range is
/// two `u32` byte offsets from the first allocation, half the size of an
/// address pair; the log is byte-exact (an unaligned word is logged as its
/// four bytes), so the offsets count bytes, not words.
///
/// [`app_fingerprint`]: crate::snapshot::app_fingerprint
struct Observation {
    /// Fingerprint of the serialized final memory.
    fingerprint: u64,
    /// Number of the first block of each kernel, then the total.
    first_block: Vec<usize>,
    /// The address `ranges` count from: the first allocation's base.
    base: u64,
    /// Every block's canonical reads, then its canonical writes.
    ranges: Vec<[u32; 2]>,
    /// Block `b`'s reads are `ranges[bounds[2b]..bounds[2b + 1]]` and its
    /// writes `ranges[bounds[2b + 1]..bounds[2b + 2]]`.
    bounds: Vec<usize>,
}

impl Observation {
    /// The number of block `tb` of kernel `k`, if both exist.
    fn block(&self, k: usize, tb: usize) -> Option<usize> {
        let first = *self.first_block.get(k)?;
        let next = *self.first_block.get(k + 1)?;
        (tb < next - first).then_some(first + tb)
    }

    /// Blocks across all kernels.
    fn n_blocks(&self) -> usize {
        self.first_block.last().copied().unwrap_or(0)
    }

    /// `ranges[from..to]` as byte addresses.
    fn span(&self, from: usize, to: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges[from..to]
            .iter()
            .map(|&[s, e]| (self.base + u64::from(s), self.base + u64::from(e)))
    }

    /// Block `b`'s observed reads.
    fn reads(&self, b: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.span(self.bounds[2 * b], self.bounds[2 * b + 1])
    }

    /// Block `b`'s observed writes.
    fn writes(&self, b: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.span(self.bounds[2 * b + 1], self.bounds[2 * b + 2])
    }
}

/// The first allocation's base, which [`Observation`] offsets count from.
///
/// # Errors
///
/// [`BmError::Unsupported`] when `space`'s allocations span more bytes than
/// a `u32` offset reaches.
fn offset_base(space: &AddressSpace) -> Result<u64, BmError> {
    let allocs = space.allocs();
    let lo = allocs.first().map_or(0, |a| a.base);
    let hi = allocs.last().map_or(0, |a| a.end());
    if hi - lo > u64::from(u32::MAX) {
        return Err(BmError::Unsupported(
            "a guarded run over allocations spanning more than 4 GiB",
        ));
    }
    Ok(lo)
}

/// What the serialized pass starts from: the application's initial memory
/// and [`offset_base`].
///
/// # Errors
///
/// [`Application::validate`]'s error, then [`offset_base`]'s, before any
/// memory is built.
fn initial_image(app: &Application) -> Result<(u64, GlobalMem), BmError> {
    app.validate()?;
    let base = offset_base(&app.space)?;
    Ok((base, app.initial_memory()))
}

/// The serialized reference pass of [`Application::try_run_serialized`]
/// from `image` ([`initial_image`]), logging every thread block's global
/// accesses on the way. `fired` is asked before each block, and the pass
/// stops when it names a cause.
///
/// # Errors
///
/// As [`Application::try_run_serialized`] for a valid application, and
/// [`PtxError::Cancelled`] when `fired` names a cause.
fn observe_serialized(
    app: &Application,
    (base, mut mem): (u64, GlobalMem),
    fired: impl Fn() -> Option<CancelCause>,
) -> Result<Observation, BmError> {
    let mut log = AccessLog::new(&app.space);
    let mut first_block = vec![0];
    let mut ranges = Vec::new();
    let mut bounds = vec![0];
    // One block's ranges and their ends, as the log appends them.
    let (mut block, mut ends) = (Vec::new(), Vec::new());
    let offset = |a: u64| {
        u32::try_from(a - base).expect("the log holds only bytes of the span offset_base checked")
    };
    for launch in app.launches() {
        let program = Program::new(launch);
        for tb in 0..launch.num_blocks() {
            if let Some(cause) = fired() {
                return Err(PtxError::Cancelled(cause).into());
            }
            log.execute_block(&program, tb, &mut mem, MAX_STEPS_PER_THREAD)
                .map_err(CmdqError::Exec)?;
            block.clear();
            ends.clear();
            log.finish_block(&mut block, &mut ends);
            let (reads, writes) = block.split_at(ends[0]);
            for part in [reads, writes] {
                ranges.extend(part.iter().map(|&(s, e)| [offset(s), offset(e)]));
                bounds.push(ranges.len());
            }
        }
        first_block.push(bounds.len() / 2);
    }
    ranges.shrink_to_fit();
    Ok(Observation {
        fingerprint: mem.fingerprint(),
        first_block,
        base,
        ranges,
        bounds,
    })
}

/// Runs `side` on a second, scoped thread while `main` runs on this one,
/// and returns both results. Both are handed one stop token: `main` fires
/// it to ask `side` to end early, and it fires when `main` panics, whose
/// panic then resumes here once `side` has ended. A panic of `side`
/// resumes here too. When no thread can be spawned, `side` runs here,
/// after `main`.
pub(crate) fn beside<S: Send, M>(
    side: impl Fn(&CancelToken) -> S + Sync,
    main: impl FnOnce(&CancelToken) -> M,
) -> (S, M) {
    let stop = CancelToken::new();
    std::thread::scope(|scope| {
        let spawned = std::thread::Builder::new()
            .name("bm-beside".into())
            .spawn_scoped(scope, || side(&stop));
        let out = panic::catch_unwind(AssertUnwindSafe(|| main(&stop))).unwrap_or_else(|payload| {
            stop.cancel();
            // The scope joins `side` before the panic leaves it.
            panic::resume_unwind(payload)
        });
        let side_out = match spawned {
            Ok(handle) => handle
                .join()
                .unwrap_or_else(|payload| panic::resume_unwind(payload)),
            Err(_) => side(&stop),
        };
        (side_out, out)
    })
}

/// Every block's containment verdict for the kernels static in `jit`,
/// `verdicts[kernel][tb]`. A kernel without a verdict per block (non-static,
/// or fewer declared sets than blocks) gets an empty list.
fn containment_verdicts(observed: &Observation, jit: &[JitKernel]) -> Vec<Vec<Option<u64>>> {
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    observed
        .first_block
        .windows(2)
        .zip(jit)
        .map(|(blocks, kernel)| {
            let declared = &kernel.access.per_tb;
            if kernel.access.non_static || declared.len() < blocks[1] - blocks[0] {
                return Vec::new();
            }
            (blocks[0]..blocks[1])
                .zip(declared)
                .map(|(b, d)| {
                    reads.clear();
                    reads.extend(observed.reads(b));
                    writes.clear();
                    writes.extend(observed.writes(b));
                    escape(&reads, &writes, d)
                })
                .collect()
        })
        .collect()
}

/// Recorded accesses of one byte segment: the highest replay rank among
/// its recorded writers and among its recorded readers (0 = none).
#[derive(Clone, Copy)]
struct Seg {
    end: u64,
    writer: u32,
    reader: u32,
}

/// Recorded accesses over disjoint byte segments keyed by start address,
/// so its size follows the recorded ranges rather than device memory.
#[derive(Default)]
struct ConflictMap {
    segs: BTreeMap<u64, Seg>,
    /// Scratch: the spans of a record no segment covers yet.
    gaps: Vec<(u64, u64)>,
}

impl ConflictMap {
    /// Splits the segment straddling `at`, so a segment boundary falls there.
    fn cut(&mut self, at: u64) {
        if let Some((_, seg)) = self.segs.range_mut(..at).next_back() {
            if seg.end > at {
                let tail = Seg {
                    end: seg.end,
                    ..*seg
                };
                seg.end = at;
                self.segs.insert(at, tail);
            }
        }
    }

    /// The highest recorded rank over the bytes of `[s, e)`: of writers,
    /// and of readers too when `readers` is set.
    fn max_rank(&self, s: u64, e: u64, readers: bool) -> u32 {
        let straddling = self.segs.range(..s).next_back().filter(|(_, g)| g.end > s);
        straddling
            .into_iter()
            .chain(self.segs.range(s..e))
            .map(|(_, g)| {
                if readers {
                    g.writer.max(g.reader)
                } else {
                    g.writer
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// Records an access of `[s, e)` by the block of replay rank `r`.
    fn record(&mut self, s: u64, e: u64, r: u32, write: bool) {
        self.cut(s);
        self.cut(e);
        self.gaps.clear();
        let mut at = s;
        for (&start, seg) in self.segs.range_mut(s..e) {
            let rank = if write {
                &mut seg.writer
            } else {
                &mut seg.reader
            };
            *rank = (*rank).max(r);
            if start > at {
                self.gaps.push((at, start));
            }
            at = seg.end;
        }
        if at < e {
            self.gaps.push((at, e));
        }
        for &(gs, ge) in &self.gaps {
            let (writer, reader) = if write { (r, 0) } else { (0, r) };
            self.segs.insert(
                gs,
                Seg {
                    end: ge,
                    writer,
                    reader,
                },
            );
        }
    }
}

/// Decides [`verify_soundness`]'s outcome without replay: when `schedule`
/// runs every thread block exactly once and every conflicting pair of
/// blocks replays in serialized order, the replay reproduces the
/// serialized pass block for block. `None` when the check cannot decide.
fn check_conflict_order(
    observed: &Observation,
    verdicts: &[Vec<Option<u64>>],
    jit: &[JitKernel],
    schedule: &[(TbKey, u64, u64)],
) -> Option<SoundnessOutcome> {
    // Replay order, as verify_soundness sorts it: start cycle, then index.
    let mut order: Vec<(u64, usize)> = schedule
        .iter()
        .enumerate()
        .map(|(i, &(_, start, _))| (start, i))
        .collect();
    order.sort_unstable();
    // Each block's 1-based replay rank; 0 marks one not yet scheduled.
    let mut rank = vec![0u32; observed.n_blocks()];
    for (pos, &(_, i)) in order.iter().enumerate() {
        let key = schedule[i].0;
        let b = observed.block(key.kernel_seq as usize, key.tb as usize)?;
        if rank[b] != 0 {
            return None;
        }
        rank[b] = pos as u32 + 1;
    }
    if schedule.len() != rank.len() {
        return None;
    }
    // A pair runs out of order when a block replays after one serialized
    // behind it. Only a block replayed after the lowest rank behind it can
    // be the earlier member of such a pair, so only those are recorded;
    // only a block replayed before the highest rank ahead of it can be the
    // later member, so only those are checked.
    let mut lowest_behind = vec![u32::MAX; rank.len() + 1];
    for b in (0..rank.len()).rev() {
        lowest_behind[b] = lowest_behind[b + 1].min(rank[b]);
    }
    let mut highest_ahead = 0;
    let mut recorded = ConflictMap::default();
    for (b, &r) in rank.iter().enumerate() {
        // Reads conflict with recorded writers; writes with both.
        if r < highest_ahead
            && (observed
                .reads(b)
                .any(|(s, e)| recorded.max_rank(s, e, false) > r)
                || observed
                    .writes(b)
                    .any(|(s, e)| recorded.max_rank(s, e, true) > r))
        {
            return None;
        }
        if r > lowest_behind[b + 1] {
            for (s, e) in observed.reads(b) {
                recorded.record(s, e, r, false);
            }
            for (s, e) in observed.writes(b) {
                recorded.record(s, e, r, true);
            }
        }
        highest_ahead = highest_ahead.max(r);
    }
    let mut violations = Vec::new();
    for &(_, i) in &order {
        let key = schedule[i].0;
        if jit.get(key.kernel_seq as usize)?.access.non_static {
            continue;
        }
        let verdict = verdicts
            .get(key.kernel_seq as usize)?
            .get(key.tb as usize)?;
        if let Some(addr) = *verdict {
            violations.push(SoundnessViolation {
                kernel: key.kernel_seq,
                tb: key.tb,
                addr,
            });
        }
    }
    Some(SoundnessOutcome {
        violations,
        equivalent: true,
    })
}

/// The guard's replay-free verification on its own: the logged serialized
/// pass, then the conflict-order check of `schedule`. `Ok(None)` when the
/// check cannot decide, where the guard falls back to [`verify_soundness`];
/// otherwise exactly the outcome `verify_soundness` returns against the
/// serialized fingerprint.
///
/// # Errors
///
/// As [`Application::try_run_serialized`], and [`BmError::Unsupported`],
/// before any block runs, when the allocations span more than 4 GiB.
pub fn verify_by_conflict_order(
    app: &Application,
    jit: &[JitKernel],
    schedule: &[(TbKey, u64, u64)],
) -> Result<Option<SoundnessOutcome>, BmError> {
    let observed = observe_serialized(app, initial_image(app)?, || None)?;
    let verdicts = containment_verdicts(&observed, jit);
    Ok(check_conflict_order(&observed, &verdicts, jit, schedule))
}

/// Replays `schedule` in start order, checking every static kernel's
/// observed accesses against its declared per-TB sets and the final memory
/// against `expected_fp` (the serialized-execution fingerprint).
///
/// `non_static` kernels are exempt from containment — their sets are known
/// to be incomplete — but still contribute to the final-memory check.
///
/// The guarded pipeline replays only schedules its conflict-order check
/// cannot decide; this function is that fallback and the reference the
/// check is tested against.
///
/// # Errors
///
/// [`PtxError::BadLaunch`], before anything runs, when an entry names a
/// kernel the application does not launch or a block past its grid;
/// [`PtxError::Exec`] when functional replay itself fails.
pub fn verify_soundness(
    app: &Application,
    jit: &[JitKernel],
    schedule: &[(TbKey, u64, u64)],
    expected_fp: u64,
) -> Result<SoundnessOutcome, PtxError> {
    let launches = app.launches();
    check_entries(&launches, schedule)?;
    let mut log = AccessLog::new(&app.space);
    let programs: Vec<Program> = launches.into_iter().map(Program::new).collect();
    let mut order: Vec<(usize, TbKey, u64)> = schedule
        .iter()
        .enumerate()
        .map(|(i, &(k, s, _))| (i, k, s))
        .collect();
    order.sort_by_key(|&(i, _, s)| (s, i));
    let mut mem = app.initial_memory();
    let mut violations = Vec::new();
    let (mut ranges, mut bounds) = (Vec::new(), Vec::new());
    for (_, key, _) in order {
        let k = key.kernel_seq as usize;
        log.execute_block(&programs[k], key.tb, &mut mem, MAX_STEPS_PER_THREAD)
            .map_err(PtxError::Exec)?;
        ranges.clear();
        bounds.clear();
        log.finish_block(&mut ranges, &mut bounds);
        let kernel = &jit[k];
        if kernel.access.non_static {
            continue;
        }
        let declared = &kernel.access.per_tb[key.tb as usize];
        let (reads, writes) = ranges.split_at(bounds[0]);
        if let Some(addr) = escape(reads, writes, declared) {
            violations.push(SoundnessViolation {
                kernel: key.kernel_seq,
                tb: key.tb,
                addr,
            });
        }
    }
    Ok(SoundnessOutcome {
        violations,
        equivalent: mem.fingerprint() == expected_fp,
    })
}

/// Checks that every entry of `schedule` names one of `launches` and a
/// block inside its grid, which the interpreter would otherwise run as the
/// block its coordinates wrap to.
///
/// # Errors
///
/// [`PtxError::BadLaunch`] for the first entry that does not.
pub(crate) fn check_entries(
    launches: &[&Launch],
    schedule: &[(TbKey, u64, u64)],
) -> Result<(), PtxError> {
    for (key, _, _) in schedule {
        let k = key.kernel_seq as usize;
        let launch = launches.get(k).ok_or(PtxError::BadLaunch {
            kernel: format!("#{k}"),
            reason: "schedule references unknown kernel".into(),
        })?;
        if key.tb >= launch.num_blocks() {
            return Err(PtxError::BadLaunch {
                kernel: launch.kernel.name.clone(),
                reason: format!(
                    "schedule references block {} of a {}-block grid",
                    key.tb,
                    launch.num_blocks()
                ),
            });
        }
    }
    Ok(())
}

/// Quarantines kernel `k`: its access sets are declared untrustworthy
/// (`non_static`) and the dependency graphs on *both sides* of it degrade
/// to whole-kernel barriers, which bypass the parent-counter hardware.
fn quarantine_kernel(jit: &mut [JitKernel], k: usize) {
    jit[k].access.non_static = true;
    jit[k]
        .degradation
        .worsen(DegradationRung::Barrier, DegradationReason::Quarantined);
    let degrade = |jit: &mut [JitKernel], j: usize| {
        if j == 0 || j >= jit.len() {
            return;
        }
        let g = BipartiteGraph::fully_connected(jit[j - 1].profile.n_tbs, jit[j].profile.n_tbs);
        jit[j].storage = storage(&g);
        jit[j].encoded = !matches!(jit[j].storage.pattern, Pattern::Irregular);
        jit[j].graph = g;
    };
    degrade(jit, k);
    degrade(jit, k + 1);
}

/// The guard state of round `round`, whose accounting `guard` starts.
fn round_state(round: u32, guard: &mut GuardReport, quarantined: &HashSet<usize>) -> GuardSnapshot {
    guard.recovery_rounds = round;
    let mut sorted: Vec<u32> = quarantined.iter().map(|&k| k as u32).collect();
    sorted.sort_unstable();
    GuardSnapshot {
        round,
        report: *guard,
        quarantined: sorted,
    }
}

/// The soundness guard's quarantine loop, behind every guarded run on 1..N
/// devices. `analyze` returns the kernels to run and the guard state to
/// start from (a checkpoint's round, guard report and quarantines, or
/// round 0); `run_round` runs the application once with a round's kernels
/// and guard state (for its snapshots). Both get `spec`. The first sound
/// schedule is returned; otherwise the implicated kernels are quarantined
/// and the next round runs.
///
/// The logged serialized pass runs on a second thread from before
/// `analyze` until the first round has returned, and stops between blocks
/// when `spec.cancel` fires or `analyze` fails. The result is the one that
/// running them in turn gives: an analysis error, then a serialized-pass
/// error, then the first round's outcome; but when the first round also
/// saw `spec.cancel` fire, its [`EngineError::Cancelled`] is returned,
/// which carries the cycle and the kernels retired.
///
/// A round that fails with an engine error other than a kill, a
/// cancellation or a cycle overflow is discarded and quarantined like an
/// unsound one; any other error ends the loop.
///
/// # Errors
///
/// [`BmError::Unrecoverable`] when [`MAX_ROUNDS`] rounds pass without a
/// sound schedule; an error from `analyze`; a kill, a cancellation, a
/// cycle overflow or a non-engine error from `run_round`; and what
/// [`Application::try_run_serialized`] returns when the serialized pass
/// fails, [`PtxError::Cancelled`] when it is cancelled, or
/// [`BmError::Unsupported`] when the allocations span more than 4 GiB.
pub fn guarded_rounds<'s, T: Tracer>(
    app: &Application,
    spec: &mut RunSpec<'s>,
    tracer: &T,
    analyze: impl FnOnce(&mut RunSpec<'s>) -> Result<(Vec<JitKernel>, GuardSnapshot), BmError>,
    mut run_round: impl FnMut(
        &mut RunSpec<'s>,
        &[JitKernel],
        GuardSnapshot,
    ) -> Result<RunReport, BmError>,
) -> Result<RunReport, BmError> {
    let hazard = spec.hazard;
    let cancel = spec.cancel.clone();
    // The initial memory is built on this thread, so the pass's thread
    // copies only the chunks it writes: what a second thread allocates
    // raises its own allocator arena's high-water mark.
    let image = initial_image(app);
    let (observed, started) = beside(
        |stop| {
            observe_serialized(app, image.clone()?, || {
                cancel
                    .as_ref()
                    .and_then(CancelToken::fired)
                    .or_else(|| stop.fired())
            })
        },
        |stop| {
            let (mut jit, start) = analyze(spec).inspect_err(|_| stop.cancel())?;
            let mut quarantined: HashSet<usize> = HashSet::new();
            // A snapshot taken mid-round had these kernels already degraded
            // to barriers: re-apply the quarantines so the restored engine
            // state matches the jit configuration it was built from.
            for &k in &start.quarantined {
                let k = k as usize;
                if k < jit.len() && quarantined.insert(k) {
                    quarantine_kernel(&mut jit, k);
                }
            }
            if !quarantined.is_empty() {
                recompute_skip_gates(&mut jit, hazard);
            }
            let mut guard = start.report;
            let first = (start.round < MAX_ROUNDS).then(|| {
                let state = round_state(start.round, &mut guard, &quarantined);
                run_round(spec, &jit, state)
            });
            Ok::<_, BmError>((jit, quarantined, start.round, guard, first))
        },
    );
    drop(image);
    let (mut jit, mut quarantined, first_round, mut guard, mut first) = started?;
    let observed = match observed {
        Ok(observed) => observed,
        Err(e) => {
            return Err(match first {
                Some(Err(cancelled @ BmError::Engine(EngineError::Cancelled { .. })))
                    if matches!(e, BmError::Ptx(PtxError::Cancelled(_))) =>
                {
                    cancelled
                }
                _ => e,
            })
        }
    };
    // Quarantine only ever exempts kernels, so verdicts computed now serve
    // every round.
    let verdicts = containment_verdicts(&observed, &jit);
    let mut last_err: Option<EngineError> = None;
    for round in first_round..MAX_ROUNDS {
        // The first round ran beside the serialized pass.
        let result = match first.take() {
            Some(result) => result,
            None => run_round(spec, &jit, round_state(round, &mut guard, &quarantined)),
        };
        // Cycle stamp for quarantine instants: how far the discarded run
        // got before the guard rejected it.
        let failed_at: u64;
        let targets: Vec<usize> = match result {
            Ok(mut report) => {
                let outcome =
                    match check_conflict_order(&observed, &verdicts, &jit, &report.schedule) {
                        Some(outcome) => outcome,
                        None => {
                            verify_soundness(app, &jit, &report.schedule, observed.fingerprint)?
                        }
                    };
                if outcome.is_sound() {
                    report.guard = guard;
                    return Ok(report);
                }
                guard.cycles_lost_to_fallback += report.kernel_region_cycles;
                guard.violations_detected += (outcome.violations.len() as u64).max(1);
                last_err = None;
                failed_at = report.kernel_region_cycles;
                if outcome.violations.is_empty() {
                    // Wrong result with no attributable containment
                    // violation (e.g. a corrupted dependency pattern):
                    // distrust everything.
                    (0..jit.len()).collect()
                } else {
                    outcome
                        .violations
                        .iter()
                        .map(|v| v.kernel as usize)
                        .collect()
                }
            }
            Err(BmError::Engine(e))
                if !matches!(
                    e,
                    EngineError::Killed { .. }
                        | EngineError::Cancelled { .. }
                        | EngineError::CycleOverflow { .. }
                ) =>
            {
                guard.cycles_lost_to_fallback += e.cycles_wasted();
                guard.violations_detected += 1;
                failed_at = e.cycles_wasted();
                let targets = match &e {
                    // A counter fault names the child kernel whose graph
                    // metadata is inconsistent.
                    EngineError::Hw { err, .. } => {
                        let key = match err {
                            crate::hw::HwError::CounterNotResident { key }
                            | crate::hw::HwError::CounterUnderflow { key } => *key,
                        };
                        vec![key.kernel_seq as usize]
                    }
                    // Deadlocks are unattributable: degrade everything.
                    _ => (0..jit.len()).collect(),
                };
                last_err = Some(e);
                targets
            }
            // A kill or cancellation is a simulated crash / external
            // stop, not a soundness failure: never quarantine for it —
            // surface it so the caller can resume from the checkpoint.
            // A cycle overflow comes from the kernels' durations, which
            // quarantine does not change. Any other error is not the
            // schedule's fault either.
            Err(e) => return Err(e),
        };
        for k in targets {
            if k < jit.len() && quarantined.insert(k) {
                quarantine_kernel(&mut jit, k);
                guard.kernels_quarantined += 1;
                if T::ENABLED {
                    tracer.emit(TraceEvent::Quarantine {
                        cycle: failed_at,
                        kernel: k as u32,
                        round,
                    });
                }
            }
        }
        recompute_skip_gates(&mut jit, hazard);
    }
    Err(BmError::Unrecoverable {
        rounds: MAX_ROUNDS,
        last: last_err,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::correctness::check_schedule;
    use crate::engine::{try_run_analyzed_checkpointed, CheckpointSession};
    use crate::faults::{corrupt_access_set, FaultPlan};
    use crate::jit::try_jit_analyze_app;
    use crate::modes::ExecMode;
    use crate::snapshot::CheckpointPolicy;
    use crate::{run, try_run_app, RunSpec};
    use bm_cmdq::ApiCall;
    use bm_depgraph::HazardMode;
    use bm_ptx::interp::{ExecObserver, ThreadId};
    use bm_ptx::kernel::{ArgValue, Dim3, Launch};
    use bm_ptx::mem::DEVICE_BASE;
    use bm_ptx::parser::parse_kernel;
    use bm_simt::config::GpuConfig;
    use bm_trace::NullTracer;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// `Y[i] = X[i] + 1` chained over a list of buffer pairs.
    fn chain_app(pairs: &[(usize, usize)], n_allocs: usize, tbs: u32) -> Application {
        let n = tbs as u64 * 64;
        let mut space = AddressSpace::new();
        let allocs: Vec<_> = (0..n_allocs).map(|_| space.alloc(4 * n)).collect();
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
            name: "guard-test".into(),
            space,
            calls,
            host_data,
        }
    }

    #[test]
    fn clean_run_reports_zero_guard_activity() {
        let cfg = GpuConfig::small();
        let app = chain_app(&[(0, 1), (1, 2)], 3, 8);
        let r = try_run_app(&cfg, &app, ExecMode::ProducerPriority { window: 2 }).unwrap();
        assert_eq!(r.guard, GuardReport::default());
        assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
    }

    #[test]
    fn corrupted_access_set_is_detected_quarantined_and_recovered() {
        let cfg = GpuConfig::small();
        let app = chain_app(&[(0, 1), (1, 2)], 3, 8);
        let hazard = HazardMode::Raw;
        let mut jit = try_jit_analyze_app(&cfg, &app, hazard).unwrap();
        // Hand-corrupt kernel 1's declared write set (as if the analysis
        // were unsound) and rebuild the downstream graph from it.
        assert!(corrupt_access_set(&mut jit, 1, hazard));
        let r = run(
            &cfg,
            &app,
            &mut RunSpec {
                hazard,
                guard: true,
                kernels: Some(&jit),
                ..RunSpec::new(ExecMode::ProducerPriority { window: 2 })
            },
            &NullTracer,
        )
        .unwrap();
        assert!(
            r.guard.violations_detected > 0,
            "guard must flag the escapes"
        );
        assert!(r.guard.kernels_quarantined >= 1);
        assert!(r.guard.recovery_rounds >= 1);
        assert!(r.guard.cycles_lost_to_fallback > 0);
        // The accepted run matches serialized execution.
        assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
    }

    #[test]
    fn dropped_dependency_edge_deadlocks_then_recovers() {
        let cfg = GpuConfig::small();
        let app = chain_app(&[(0, 1), (1, 2)], 3, 8);
        let hazard = HazardMode::Raw;
        let jit = try_jit_analyze_app(&cfg, &app, hazard).unwrap();
        // Kernel 1's graph is explicit 1-to-1: drop the edge 0->0.
        let fault = FaultPlan {
            drop_children: vec![(
                TbKey {
                    kernel_seq: 0,
                    tb: 0,
                },
                0,
            )],
            ..FaultPlan::default()
        };
        let r = run(
            &cfg,
            &app,
            &mut RunSpec {
                hazard,
                guard: true,
                fault,
                kernels: Some(&jit),
                ..RunSpec::new(ExecMode::ConsumerPriority { window: 2 })
            },
            &NullTracer,
        )
        .unwrap();
        assert!(r.guard.recovery_rounds >= 1, "deadlock must force a re-run");
        assert!(r.guard.cycles_lost_to_fallback > 0);
        assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
    }

    #[test]
    fn counter_deficit_surfaces_as_typed_error_then_recovers() {
        let cfg = GpuConfig::small();
        let app = chain_app(&[(0, 1), (1, 2)], 3, 8);
        let hazard = HazardMode::Raw;
        let jit = try_jit_analyze_app(&cfg, &app, hazard).unwrap();
        let fault = FaultPlan {
            counter_deltas: vec![(
                TbKey {
                    kernel_seq: 1,
                    tb: 3,
                },
                -1,
            )],
            ..FaultPlan::default()
        };
        let r = run(
            &cfg,
            &app,
            &mut RunSpec {
                hazard,
                guard: true,
                fault,
                kernels: Some(&jit),
                ..RunSpec::new(ExecMode::ProducerPriority { window: 2 })
            },
            &NullTracer,
        )
        .unwrap();
        assert!(r.guard.recovery_rounds >= 1);
        assert!(check_schedule(&app, &r.schedule).unwrap().is_match());
    }

    #[test]
    fn unguarded_fallible_run_returns_typed_deadlock() {
        let cfg = GpuConfig::small();
        let app = chain_app(&[(0, 1), (1, 2)], 3, 8);
        let jit = try_jit_analyze_app(&cfg, &app, HazardMode::Raw).unwrap();
        let fault = FaultPlan {
            drop_children: vec![(
                TbKey {
                    kernel_seq: 0,
                    tb: 2,
                },
                2,
            )],
            ..FaultPlan::default()
        };
        let err = try_run_analyzed_checkpointed(
            &cfg,
            &app,
            &jit,
            ExecMode::ProducerPriority { window: 2 },
            &fault,
            &NullTracer,
            &mut CheckpointSession::disabled(),
        )
        .unwrap_err();
        match err {
            EngineError::Deadlock(snap) => {
                assert!(snap.cycle > 0);
                assert!(
                    snap.diagnostics
                        .iter()
                        .any(|d| d.contains("pending parent counters")),
                    "diagnostics: {:?}",
                    snap.diagnostics
                );
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn kill_and_resume_reproduces_uninterrupted_report() {
        let cfg = GpuConfig::small();
        let app = chain_app(&[(0, 1), (1, 2), (2, 3)], 4, 8);
        let mode = ExecMode::ProducerPriority { window: 2 };
        let hazard = HazardMode::Raw;
        let reference = try_run_app(&cfg, &app, mode).unwrap();
        let mut store = crate::snapshot::MemStore::default();
        let kill = FaultPlan {
            kill_at_kernel: Some(2),
            ..FaultPlan::default()
        };
        let mut spec = RunSpec {
            hazard,
            guard: true,
            fault: kill,
            checkpoint: CheckpointSession {
                policy: CheckpointPolicy::every_kernels(1),
                store: Some(&mut store),
                ..CheckpointSession::disabled()
            },
            ..RunSpec::new(mode)
        };
        let err = run(&cfg, &app, &mut spec, &NullTracer).unwrap_err();
        assert!(
            matches!(err, BmError::Engine(EngineError::Killed { .. })),
            "got {err}"
        );
        assert!(!store.snaps.is_empty(), "kill must land after a save");
        let mut spec = RunSpec {
            hazard,
            guard: true,
            checkpoint: CheckpointSession {
                policy: CheckpointPolicy::every_kernels(1),
                store: Some(&mut store),
                resume_latest: true,
                ..CheckpointSession::disabled()
            },
            ..RunSpec::new(mode)
        };
        let resumed = run(&cfg, &app, &mut spec, &NullTracer).unwrap();
        assert_eq!(resumed, reference);
        assert_eq!(
            resumed.to_json().to_string(),
            reference.to_json().to_string()
        );
    }

    #[test]
    fn corrupt_snapshot_degrades_to_fresh_run() {
        let cfg = GpuConfig::small();
        let app = chain_app(&[(0, 1), (1, 2)], 3, 8);
        let mode = ExecMode::ProducerPriority { window: 2 };
        let reference = try_run_app(&cfg, &app, mode).unwrap();
        let mut store = crate::snapshot::MemStore::default();
        store.snaps.push(vec![0xAB; 64]); // garbage snapshot
        let mut spec = RunSpec {
            guard: true,
            checkpoint: CheckpointSession {
                store: Some(&mut store),
                resume_latest: true,
                ..CheckpointSession::disabled()
            },
            ..RunSpec::new(mode)
        };
        let r = run(&cfg, &app, &mut spec, &NullTracer).unwrap();
        assert_eq!(r, reference);
    }

    #[test]
    fn outcome_soundness_requires_both() {
        let clean = SoundnessOutcome {
            violations: vec![],
            equivalent: true,
        };
        assert!(clean.is_sound());
        let v = SoundnessViolation {
            kernel: 1,
            tb: 2,
            addr: 0x1000,
        };
        let dirty = SoundnessOutcome {
            violations: vec![v],
            equivalent: true,
        };
        assert!(!dirty.is_sound());
        assert!(v.to_string().contains("kernel 1 TB 2"));
        let diverged = SoundnessOutcome {
            violations: vec![],
            equivalent: false,
        };
        assert!(!diverged.is_sound());
    }

    /// Every block's reads and writes in serialized order, as canonical
    /// ranges built from a set of every byte accessed.
    fn brute_force_accesses(app: &Application) -> Vec<[Vec<(u64, u64)>; 2]> {
        use bm_ptx::interp::execute_block;
        use std::collections::BTreeSet;

        #[derive(Default)]
        struct Bytes([BTreeSet<u64>; 2]);
        impl ExecObserver for Bytes {
            fn on_global_access(&mut self, _t: ThreadId, _i: usize, addr: u64, store: bool) {
                self.0[usize::from(store)].extend(addr..addr.saturating_add(4));
            }
        }
        let canonical = |bytes: &BTreeSet<u64>| {
            let mut out: Vec<(u64, u64)> = Vec::new();
            for &b in bytes {
                match out.last_mut() {
                    Some(last) if last.1 == b => last.1 = b + 1,
                    _ => out.push((b, b + 1)),
                }
            }
            out
        };
        let mut mem = app.initial_memory();
        let mut blocks = Vec::new();
        for launch in app.launches() {
            for tb in 0..launch.num_blocks() {
                let mut log = Bytes::default();
                execute_block(launch, tb, &mut mem, &mut log).unwrap();
                blocks.push([canonical(&log.0[0]), canonical(&log.0[1])]);
            }
        }
        blocks
    }

    /// The serialized pass's log equals the brute-force access sets.
    fn assert_log_exact(app: &Application) {
        let observed = observe_serialized(app, initial_image(app).unwrap(), || None).unwrap();
        let brute = brute_force_accesses(app);
        assert_eq!(observed.n_blocks(), brute.len(), "{}", app.name);
        for (b, [reads, writes]) in brute.iter().enumerate() {
            assert_eq!(
                observed.reads(b).collect::<Vec<_>>(),
                *reads,
                "{} block {b} reads",
                app.name
            );
            assert_eq!(
                observed.writes(b).collect::<Vec<_>>(),
                *writes,
                "{} block {b} writes",
                app.name
            );
        }
    }

    #[test]
    fn run_log_is_exact_on_every_small_app() {
        for b in bm_workloads::suite() {
            assert_log_exact(&(b.build)(bm_workloads::Scale::Small));
        }
    }

    /// Each thread `t` of a two-block launch of 32 threads each reads,
    /// accumulates into and rewrites `A[t * rs + k * ks]` for `k < n`, then
    /// stores its sum to `B[t]`.
    fn walk_app(rs: u32, ks: u32, n: u32) -> Application {
        let k = Arc::new(
            parse_kernel(
                r#".entry walk(.param .u64 A, .param .u64 B, .param .u32 rs,
                               .param .u32 ks, .param .u32 n) {
                     ld.param.u64 %rd1, [A];
                     ld.param.u64 %rd2, [B];
                     ld.param.u32 %r10, [rs];
                     ld.param.u32 %r11, [ks];
                     ld.param.u32 %r12, [n];
                     mov.u32 %r1, %ctaid.x;
                     mov.u32 %r2, %ntid.x;
                     mov.u32 %r3, %tid.x;
                     mad.lo.u32 %r4, %r1, %r2, %r3;
                     mul.lo.u32 %r5, %r4, %r10;
                     mov.u32 %r6, 0;
                     mov.f32 %f1, 0f00000000;
                   $TOP:
                     setp.ge.u32 %p1, %r6, %r12;
                     @%p1 bra $OUT;
                     mad.lo.u32 %r7, %r6, %r11, %r5;
                     mul.wide.u32 %rd3, %r7, 4;
                     add.u64 %rd4, %rd1, %rd3;
                     ld.global.f32 %f2, [%rd4];
                     add.f32 %f1, %f1, %f2;
                     st.global.f32 [%rd4], %f1;
                     add.u32 %r6, %r6, 1;
                     bra $TOP;
                   $OUT:
                     mul.wide.u32 %rd5, %r4, 4;
                     add.u64 %rd6, %rd2, %rd5;
                     st.global.f32 [%rd6], %f1;
                     ret;
                   }"#,
            )
            .unwrap(),
        );
        let threads = 64;
        let words = (threads - 1) * u64::from(rs) + u64::from(n.max(1) - 1) * u64::from(ks) + 1;
        let mut space = AddressSpace::new();
        let a = space.alloc(4 * words);
        let b = space.alloc(4 * threads);
        let mut host_data = HashMap::new();
        host_data.insert(a.id, (0..words).map(|i| (i % 13) as f32).collect());
        Application {
            name: format!("walk rs={rs} ks={ks} n={n}"),
            space,
            calls: vec![
                ApiCall::MemcpyH2D {
                    alloc: a.id,
                    bytes: 4 * words,
                },
                ApiCall::KernelLaunch(Launch::new(
                    k,
                    Dim3::x(2),
                    Dim3::x(32),
                    vec![
                        ArgValue::Ptr(a.base),
                        ArgValue::Ptr(b.base),
                        ArgValue::U32(rs),
                        ArgValue::U32(ks),
                        ArgValue::U32(n),
                    ],
                )),
            ],
            host_data,
        }
    }

    #[test]
    fn run_log_is_exact_on_row_column_and_strided_walks() {
        for n in [1, 10, 135] {
            // Rows: each thread walks its own contiguous row.
            assert_log_exact(&walk_app(n, 1, n));
            // Columns: consecutive threads walk adjacent columns.
            assert_log_exact(&walk_app(1, 64, n));
            // Strided: gaps between columns, and within rows.
            assert_log_exact(&walk_app(1, 3 * 64, n));
            assert_log_exact(&walk_app(2 * n, 2, n));
            // Overlapping rows: each row starts inside the previous one.
            assert_log_exact(&walk_app(3, 1, n));
        }
    }

    /// Thread `t` of 4 blocks of 32 reads the word at byte `start + 4t`
    /// of `A` and writes it 8 KiB further on, for a word shifted `shift`
    /// bytes off alignment.
    fn unaligned_app(start: u64, shift: u64) -> Application {
        let k = Arc::new(
            parse_kernel(
                r#".entry shifted(.param .u64 A, .param .u64 at) {
                     ld.param.u64 %rd1, [A];
                     ld.param.u64 %rd2, [at];
                     mov.u32 %r1, %ctaid.x;
                     mov.u32 %r2, %ntid.x;
                     mov.u32 %r3, %tid.x;
                     mad.lo.u32 %r4, %r1, %r2, %r3;
                     mul.wide.u32 %rd3, %r4, 4;
                     add.u64 %rd4, %rd1, %rd2;
                     add.u64 %rd5, %rd4, %rd3;
                     ld.global.u32 %r5, [%rd5];
                     st.global.u32 [%rd5+8192], %r5;
                     ret;
                   }"#,
            )
            .unwrap(),
        );
        let mut space = AddressSpace::new();
        let a = space.alloc(5 * bm_ptx::mem::COW_CHUNK_BYTES as u64);
        let words = a.size / 4;
        let mut host_data = HashMap::new();
        host_data.insert(a.id, (0..words).map(|i| i as f32).collect());
        Application {
            name: format!("unaligned start={start} shift={shift}"),
            space,
            calls: vec![
                ApiCall::MemcpyH2D {
                    alloc: a.id,
                    bytes: a.size,
                },
                ApiCall::KernelLaunch(Launch::new(
                    k,
                    Dim3::x(4),
                    Dim3::x(32),
                    vec![ArgValue::Ptr(a.base), ArgValue::U64(start + shift)],
                )),
            ],
            host_data,
        }
    }

    #[test]
    fn run_log_is_exact_on_words_straddling_bitmap_words_and_chunks() {
        let chunk = bm_ptx::mem::COW_CHUNK_BYTES as u64;
        for shift in 0..4 {
            // Across the first chunk boundary (a bitmap page too), and
            // across a 64-byte bitmap word inside a chunk.
            assert_log_exact(&unaligned_app(chunk - 256, shift));
            assert_log_exact(&unaligned_app(60, shift));
        }
    }

    #[test]
    fn a_fired_token_runs_no_block() {
        // Block 0 of the wild app reads unmapped memory, so a pass that
        // ran it would fail with `Unmapped`.
        let (wild, _) = wild_app(128, false);
        let err = observe_serialized(&wild, initial_image(&wild).unwrap(), || {
            Some(CancelCause::DeadlineExceeded)
        })
        .err();
        assert_eq!(
            err,
            Some(BmError::Ptx(PtxError::Cancelled(
                CancelCause::DeadlineExceeded
            )))
        );
        // A token that fires mid-pass stops it between blocks.
        let app = chain_app(&[(0, 1), (1, 2)], 3, 8);
        let asked = std::cell::Cell::new(0);
        let err = observe_serialized(&app, initial_image(&app).unwrap(), || {
            asked.set(asked.get() + 1);
            (asked.get() > 5).then_some(CancelCause::Cancelled)
        })
        .err();
        assert_eq!(
            err,
            Some(BmError::Ptx(PtxError::Cancelled(CancelCause::Cancelled)))
        );
        assert_eq!(asked.get(), 6, "asked once per block, stopped at block 5");
        // A guarded run sees the token in analysis first; with its kernels
        // handed in, the engine's error carries the cycle and retired count.
        let token = CancelToken::new();
        token.expire();
        let mode = ExecMode::ConsumerPriority { window: 3 };
        let cfg = GpuConfig::small();
        let analyzed = run(
            &cfg,
            &app,
            &mut RunSpec {
                guard: true,
                cancel: Some(token.clone()),
                ..RunSpec::new(mode)
            },
            &NullTracer,
        );
        assert_eq!(
            analyzed.unwrap_err(),
            BmError::Ptx(PtxError::Cancelled(CancelCause::DeadlineExceeded))
        );
        let jit = try_jit_analyze_app(&cfg, &app, HazardMode::Raw).unwrap();
        let handed_in = run(
            &cfg,
            &app,
            &mut RunSpec {
                guard: true,
                kernels: Some(&jit),
                cancel: Some(token),
                ..RunSpec::new(mode)
            },
            &NullTracer,
        );
        assert!(
            matches!(
                handed_in,
                Err(BmError::Engine(EngineError::Cancelled {
                    retired: 0,
                    cause: CancelCause::DeadlineExceeded,
                    ..
                }))
            ),
            "{handed_in:?}"
        );
    }

    #[test]
    fn offsets_reach_a_span_of_u32_max_bytes_and_no_further() {
        let mut space = AddressSpace::new();
        let a = space.alloc(u64::from(u32::MAX));
        assert_eq!(offset_base(&space), Ok(a.base));
        let mut space = AddressSpace::new();
        space.alloc(u64::from(u32::MAX) + 1);
        assert!(matches!(offset_base(&space), Err(BmError::Unsupported(_))));
        // The span runs from the first allocation to the last one's end;
        // the second allocation starts 256 bytes after the first.
        for (size, fits) in [(u32::MAX - 256, true), (u32::MAX - 255, false)] {
            let mut space = AddressSpace::new();
            space.alloc(4);
            space.alloc(u64::from(size));
            assert_eq!(offset_base(&space).is_ok(), fits, "{size}");
        }
    }

    /// An application whose one kernel reads (or writes) the word at
    /// `A + off`, where `A` is the first of two 4-byte allocations, and
    /// `A`'s base.
    fn wild_app(off: u64, store: bool) -> (Application, u64) {
        let access = if store {
            "st.global.f32 [%rd3], %f1;"
        } else {
            "ld.global.f32 %f1, [%rd3];"
        };
        let k = Arc::new(
            parse_kernel(&format!(
                r#".entry wild(.param .u64 A, .param .u64 off) {{
                     ld.param.u64 %rd1, [A];
                     ld.param.u64 %rd2, [off];
                     ld.global.f32 %f1, [%rd1];
                     add.u64 %rd3, %rd1, %rd2;
                     {access}
                     st.global.f32 [%rd1], %f1;
                     ret;
                   }}"#
            ))
            .unwrap(),
        );
        let mut space = AddressSpace::new();
        let a = space.alloc(4);
        space.alloc(4);
        let app = Application {
            name: "wild".into(),
            space,
            calls: vec![ApiCall::KernelLaunch(Launch::new(
                k,
                Dim3::x(1),
                Dim3::x(1),
                vec![ArgValue::Ptr(a.base), ArgValue::U64(off)],
            ))],
            host_data: HashMap::new(),
        };
        (app, a.base)
    }

    /// A guarded run of [`wild_app`].
    fn wild_run(off: u64, store: bool) -> (u64, BmError) {
        let (app, base) = wild_app(off, store);
        let err = run(
            &GpuConfig::small(),
            &app,
            &mut RunSpec {
                guard: true,
                ..RunSpec::new(ExecMode::ConsumerPriority { window: 3 })
            },
            &NullTracer,
        )
        .unwrap_err();
        (base.wrapping_add(off), err)
    }

    #[test]
    fn unmapped_accesses_fail_a_guarded_run_with_a_typed_error() {
        // `A` spans 4 bytes at `DEVICE_BASE`, the second allocation 4 bytes
        // at `DEVICE_BASE + 256`.
        let cases = [
            ("gap between allocations", 128),
            ("straddling the first end", 2),
            ("one past the last allocation", 260),
            ("near u64::MAX", (u64::MAX - 5).wrapping_sub(DEVICE_BASE)),
        ];
        for (what, off) in cases {
            for store in [false, true] {
                let (addr, err) = wild_run(off, store);
                assert!(
                    matches!(
                        err,
                        BmError::Cmdq(CmdqError::Exec(bm_ptx::interp::ExecError::Unmapped {
                            tb: 0,
                            addr: a,
                        })) if a == addr
                    ),
                    "{what}, store {store}: {err}"
                );
            }
        }
    }
}
