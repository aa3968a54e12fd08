//! Kernel-launch-time ("just-in-time") analysis pipeline.
//!
//! For every kernel launch in an application this module produces what the
//! hardware needs (paper Fig. 3): per-TB read/write sets via value-range
//! analysis, the bipartite dependency graph against the previous kernel,
//! its pattern encoding and storage cost, and — from the timing substrate —
//! a per-TB duration and memory-transaction count.

use bm_cmdq::{ApiCall, Application};
use bm_depgraph::{
    build_graph_bounded_par, storage, BipartiteGraph, GraphStorage, HazardMode, Pattern,
};
use bm_ptx::absint::{try_analyze_launch_fueled_par, try_analyze_launch_grouped};
use bm_ptx::access::KernelAccess;
use bm_ptx::error::PtxError;
use bm_ptx::interp::ExecError;
use bm_ptx::kernel::Launch;
use bm_ptx::mem::GlobalMem;
use bm_ptx::par::ParallelConfig;
use bm_ptx::trace::{trace_block_limited, TbTrace};
use bm_simt::config::GpuConfig;
use bm_simt::timing::simulate_sm;

use crate::degrade::{
    keys_of, AnalysisBudget, AnalysisCache, CacheKey, CachedAnalysis, CachedGraph, Degradation,
    DegradationReason, DegradationRung, GraphKey,
};
use crate::hw::MAX_COUNTER;
use bm_trace::{AnalysisPhase, NullTracer, TraceEvent, Tracer};
use std::collections::{HashMap, HashSet};

/// Timing and resource profile of one kernel launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchProfile {
    /// Number of thread blocks.
    pub n_tbs: u32,
    /// Threads per block.
    pub threads: u32,
    /// Shared memory per block in bytes.
    pub shared_bytes: u32,
    /// Per-TB execution duration in cycles (at the kernel's occupancy).
    pub duration: u64,
    /// Coalesced global-memory transactions per TB.
    pub txns_per_tb: u64,
}

/// Everything BlockMaestro's scheduler knows about one launched kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct JitKernel {
    /// Position in the application's kernel sequence.
    pub seq: u32,
    /// Kernel name (for reports).
    pub name: String,
    /// Timing/resource profile.
    pub profile: LaunchProfile,
    /// Access sets from value-range analysis.
    pub access: KernelAccess,
    /// Dependency graph against the *previous* kernel (kernel 0 gets an
    /// empty independent graph).
    pub graph: BipartiteGraph,
    /// Storage accounting for `graph`.
    pub storage: GraphStorage,
    /// Whether the graph is pattern-encoded (child ids derivable without
    /// fetching explicit lists).
    pub encoded: bool,
    /// Earlier, non-consecutive kernels this kernel has a kernel-level RAW
    /// dependency on. The paper's consecutive-pair tracking plus in-order
    /// completion covers chains; these gates cover skip-level dependencies
    /// (e.g. 3MM's K3 reading K1's output while K2 is unrelated) so that
    /// windows larger than 2 remain correct.
    pub skip_gates: Vec<u32>,
    /// Where on the graceful-degradation ladder this kernel's analysis
    /// landed (precise / coarse / barrier / prelaunch-off) and why.
    pub degradation: Degradation,
    /// Whether the access/profile analysis was served from the bounded
    /// analysis cache instead of being recomputed.
    pub cache_hit: bool,
}

/// Analysis-phase result for one launch: everything derivable from the
/// launch alone (the graph additionally depends on the predecessor).
struct Analyzed {
    access: KernelAccess,
    profile: LaunchProfile,
    degradation: Degradation,
    cache_hit: bool,
}

/// Trace-phase counters from one analysis run under the fast paths.
/// Reported separately from [`crate::degrade::CacheStats`], which must stay
/// bit-identical across analysis configurations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceMemoStats {
    /// Representative-TB traces interpreted: one per launch that misses
    /// the analysis cache and traces without error.
    pub traces_interpreted: u64,
    /// Traces served without interpreting them: always 0, since every
    /// cache miss interprets its trace. Kept because `e2ebench` reports it.
    pub traces_synthesized: u64,
    /// Interpreted traces timed on the SM model: each distinct
    /// (representative trace, occupancy) pair once per run.
    pub traces_timed: u64,
}

/// Occupancy, then a trace's instructions, transactions and accesses.
type TimingKey = (u32, u64, u64, u64);

/// Timing memo for one analysis run. `simulate_sm` is a pure function of
/// the config and the traces, so under the fast paths each distinct
/// (representative trace, occupancy) pair is timed once and every later
/// interpreted launch with that pair reuses its duration. `reference()`
/// does not consult it and re-times every launch, as the oracle.
#[derive(Debug, Default)]
struct TimingMemo {
    /// The traces timed, each once, and their per-TB durations, by
    /// occupancy and the trace's counters: a lookup compares whole traces
    /// only when those match. (Hashing and cloning every trace instead
    /// cost a tenth of a small app's lockstep trace phase.)
    durations: HashMap<TimingKey, Vec<(TbTrace, u64)>>,
    /// Traces profiled so far.
    profiled: u64,
    /// Pairs timed so far.
    timed: u64,
}

impl TimingMemo {
    /// [`profile_from_trace`], timing `trace` only on its pair's first use.
    fn profile(&mut self, cfg: &GpuConfig, launch: &Launch, trace: TbTrace) -> LaunchProfile {
        self.profiled += 1;
        let occ = occupancy(cfg, launch);
        let key = (
            occ,
            trace.dyn_instrs,
            trace.global_transactions,
            trace.global_accesses,
        );
        let timed = self.durations.entry(key).or_default();
        if let Some(&(_, duration)) = timed.iter().find(|(t, _)| *t == trace) {
            return launch_profile(launch, &trace, duration);
        }
        let duration = sm_duration(cfg, &trace, occ);
        let profile = launch_profile(launch, &trace, duration);
        self.timed += 1;
        timed.push((trace, duration));
        profile
    }

    /// The run's trace-phase counters.
    fn stats(&self) -> TraceMemoStats {
        TraceMemoStats {
            traces_interpreted: self.profiled,
            traces_synthesized: 0,
            traces_timed: self.timed,
        }
    }
}

/// Scratch functional memory built on first use, so warm runs — every
/// launch served from the analysis cache — never pay for the host-data
/// copy-in.
struct LazyScratch<'a> {
    app: &'a Application,
    mem: Option<GlobalMem>,
}

impl<'a> LazyScratch<'a> {
    fn new(app: &'a Application) -> Self {
        LazyScratch { app, mem: None }
    }

    fn get(&mut self) -> &mut GlobalMem {
        if self.mem.is_none() {
            self.mem = Some(scratch_memory(self.app));
        }
        self.mem.as_mut().expect("just built")
    }

    /// Drops the memory so the next use rebuilds the initial image.
    fn reset(&mut self) {
        self.mem = None;
    }
}

/// Analyzes every kernel of `app` in launch order.
///
/// This is the work the paper performs during PTX→SASS just-in-time
/// compilation, masked by kernel pre-launching; here it runs up front,
/// producing the inputs for the execution engine. Runs under the default
/// [`AnalysisBudget`] with a fresh cache and [`ParallelConfig::serial`];
/// never panics — launches the analysis cannot handle degrade down the
/// ladder instead, and a structurally invalid launch is carried as an
/// opaque [`DegradationRung::PrelaunchOff`] barrier kernel rather than an
/// error, so one bad launch cannot take down the whole application.
pub fn jit_analyze_app(cfg: &GpuConfig, app: &Application, hazard: HazardMode) -> Vec<JitKernel> {
    let budget = AnalysisBudget::default();
    let mut cache = AnalysisCache::for_budget(&budget);
    jit_analyze_app_par_stats(
        cfg,
        app,
        hazard,
        &budget,
        &mut cache,
        &ParallelConfig::serial(),
    )
    .0
}

/// [`jit_analyze_app`] under an explicit [`AnalysisBudget`], a caller-
/// owned [`AnalysisCache`] (so the cache can persist across applications)
/// and an explicit [`ParallelConfig`]. Also reports the run's
/// [`TraceMemoStats`]: the representative-TB traces interpreted and the
/// distinct ones timed. The counters live outside
/// [`crate::degrade::CacheStats`] so cache accounting stays bit-identical
/// across configurations.
pub fn jit_analyze_app_par_stats(
    cfg: &GpuConfig,
    app: &Application,
    hazard: HazardMode,
    budget: &AnalysisBudget,
    cache: &mut AnalysisCache,
    par: &ParallelConfig,
) -> (Vec<JitKernel>, TraceMemoStats) {
    analyze_app(
        cfg,
        app,
        hazard,
        budget,
        cache,
        par,
        &NullTracer,
        OnError::Stub,
    )
    .expect("the stubbing driver returns no error")
}

/// Fallible counterpart of [`jit_analyze_app`].
///
/// # Errors
///
/// [`PtxError`] when a launch is structurally invalid (bad argument
/// binding). Analysis and tracing problems no longer error: they degrade
/// down the ladder and are reported per kernel via
/// [`JitKernel::degradation`].
pub fn try_jit_analyze_app(
    cfg: &GpuConfig,
    app: &Application,
    hazard: HazardMode,
) -> Result<Vec<JitKernel>, PtxError> {
    let budget = AnalysisBudget::default();
    let mut cache = AnalysisCache::for_budget(&budget);
    try_jit_analyze_app_par_traced(
        cfg,
        app,
        hazard,
        &budget,
        &mut cache,
        &ParallelConfig::serial(),
        &NullTracer,
    )
}

/// [`try_jit_analyze_app`] under an explicit [`AnalysisBudget`], a
/// caller-owned [`AnalysisCache`], an explicit [`ParallelConfig`] and a
/// trace sink. `par.cancel` is honored at every analysis phase boundary.
///
/// Emits, on a deterministic virtual *tick* clock (1 tick per unit of
/// analysis fuel consumed; analysis runs before simulated time exists):
/// an [`TraceEvent::AnalysisSpan`] per ladder phase actually run, a
/// [`TraceEvent::CacheProbe`] per analysis- and graph-cache probe, an
/// [`TraceEvent::AffineFastPath`] verdict per fresh precise analysis, and
/// a [`TraceEvent::RungTransition`] whenever a kernel moves down the
/// ladder. Traced and untraced analyses run the same driver, so they agree
/// exactly.
///
/// # Errors
///
/// As [`try_jit_analyze_app`]: the first structurally invalid launch in
/// launch order, plus [`PtxError::Cancelled`] when `par.cancel` fires
/// between phases.
pub fn try_jit_analyze_app_par_traced<T: Tracer>(
    cfg: &GpuConfig,
    app: &Application,
    hazard: HazardMode,
    budget: &AnalysisBudget,
    cache: &mut AnalysisCache,
    par: &ParallelConfig,
    tracer: &T,
) -> Result<Vec<JitKernel>, PtxError> {
    analyze_app(cfg, app, hazard, budget, cache, par, tracer, OnError::Fail).map(|(jit, _)| jit)
}

/// What [`analyze_app`] makes of a launch whose analysis returns an error:
/// a structurally invalid launch, or a cancellation token that fired.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OnError {
    /// Carry the launch as an opaque barrier kernel
    /// ([`DegradationReason::InvalidLaunch`]).
    Stub,
    /// Return the first error in launch order.
    Fail,
}

/// The analysis driver behind every entry point. First every launch walks
/// the degradation ladder in launch order on one evolving scratch memory,
/// then every kernel gets its dependency graph against its predecessor.
///
/// # Errors
///
/// With [`OnError::Fail`], the first launch in launch order whose analysis
/// returned an error; never with [`OnError::Stub`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn analyze_app<T: Tracer>(
    cfg: &GpuConfig,
    app: &Application,
    hazard: HazardMode,
    budget: &AnalysisBudget,
    cache: &mut AnalysisCache,
    par: &ParallelConfig,
    tracer: &T,
    on_error: OnError,
) -> Result<(Vec<JitKernel>, TraceMemoStats), PtxError> {
    let launches: Vec<&Launch> = app.launches();
    let keys = keys_of(&launches);
    let mut scratch = LazyScratch::new(app);
    let mut timings = TimingMemo::default();
    let mut clock = 0u64;
    let analyzed: Vec<Result<Analyzed, PtxError>> = launches
        .iter()
        .zip(&keys)
        .enumerate()
        .map(|(seq, (launch, key))| {
            analyze_launch_ladder(
                cfg,
                launch,
                key,
                &mut scratch,
                budget,
                cache,
                par,
                tracer,
                &mut clock,
                seq as u32,
                &mut timings,
            )
        })
        .collect();
    let mut out: Vec<JitKernel> = Vec::with_capacity(launches.len());
    for (seq, result) in analyzed.into_iter().enumerate() {
        let analyzed = match (result, on_error) {
            (Ok(analyzed), _) => analyzed,
            (Err(_), OnError::Stub) => invalid_launch_stub(launches[seq]),
            (Err(e), OnError::Fail) => return Err(e),
        };
        let prev_key = seq.checked_sub(1).map(|p| &keys[p]);
        push_kernel(
            &mut out,
            seq as u32,
            prev_key,
            launches[seq],
            &keys[seq],
            analyzed,
            hazard,
            budget,
            cache,
            par,
            tracer,
            &mut clock,
        );
    }
    Ok((out, timings.stats()))
}

/// Scratch functional memory for trace collection. Traces only shape
/// timing; our kernels' control flow does not depend on float data, so
/// executing on the evolving scratch state is fine. (For the same reason,
/// cache hits may skip a trace's scratch-memory side effects without
/// affecting any scheduling decision.)
pub fn scratch_memory(app: &Application) -> GlobalMem {
    let mut scratch = GlobalMem::for_space(&app.space);
    for call in &app.calls {
        if let ApiCall::MemcpyH2D { alloc, .. } = call {
            if let Some(data) = app.host_data.get(alloc) {
                scratch.copy_from_host_f32(app.space.info(*alloc).base, data);
            }
        }
    }
    scratch
}

/// Walks one launch down the graceful-degradation ladder:
/// precise fueled analysis → coarse grouped analysis → whole-kernel
/// barrier; representative trace → estimated profile with pre-launch
/// disabled. Results are served from / inserted into `cache`.
///
/// A panicking analysis is contained to its launch: the launch degrades to
/// an opaque barrier ([`DegradationReason::AnalysisPanicked`]), cached like
/// any result so its repeats do not panic again, and every other launch
/// proceeds normally.
///
/// # Errors
///
/// [`PtxError`] only for structurally invalid launches.
#[allow(clippy::too_many_arguments)]
fn analyze_launch_ladder<T: Tracer>(
    cfg: &GpuConfig,
    launch: &Launch,
    key: &CacheKey,
    scratch: &mut LazyScratch,
    budget: &AnalysisBudget,
    cache: &mut AnalysisCache,
    par: &ParallelConfig,
    tracer: &T,
    clock: &mut u64,
    seq: u32,
    timings: &mut TimingMemo,
) -> Result<Analyzed, PtxError> {
    if let Some(hit) = cache.lookup_key(key) {
        if T::ENABLED {
            tracer.emit(TraceEvent::CacheProbe {
                tick: *clock,
                seq,
                graph: false,
                hit: true,
            });
        }
        return Ok(Analyzed {
            access: hit.access,
            profile: hit.profile,
            degradation: hit.degradation,
            cache_hit: true,
        });
    }
    if T::ENABLED {
        tracer.emit(TraceEvent::CacheProbe {
            tick: *clock,
            seq,
            graph: false,
            hit: false,
        });
    }
    let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        compute_analysis(
            cfg, launch, scratch, budget, par, tracer, clock, seq, timings,
        )
    }));
    let ca = match computed {
        Ok(result) => result?,
        Err(_) => {
            // The panic may have unwound mid-write: later launches trace
            // on a fresh initial image, not a half-written one.
            scratch.reset();
            panicked_stub(launch)
        }
    };
    cache.insert_key(key.clone(), ca.clone());
    Ok(Analyzed {
        access: ca.access,
        profile: ca.profile,
        degradation: ca.degradation,
        cache_hit: false,
    })
}

/// [`Degradation::worsen`] plus a [`TraceEvent::RungTransition`] when the
/// rung actually changed.
fn worsen_traced<T: Tracer>(
    d: &mut Degradation,
    rung: DegradationRung,
    reason: DegradationReason,
    tracer: &T,
    tick: u64,
    seq: u32,
) {
    let before = d.rung;
    d.worsen(rung, reason);
    if T::ENABLED && d.rung != before {
        tracer.emit(TraceEvent::RungTransition {
            tick,
            seq,
            rung: d.rung.to_string(),
            reason: reason.to_string(),
        });
    }
}

/// The cache-free core of the ladder: per-TB analysis (possibly affine
/// per `par`) with coarse and barrier fallbacks, plus the representative-TB
/// trace profile.
///
/// # Errors
///
/// [`PtxError`] only for structurally invalid launches.
#[allow(clippy::too_many_arguments)]
fn compute_analysis<T: Tracer>(
    cfg: &GpuConfig,
    launch: &Launch,
    scratch: &mut LazyScratch,
    budget: &AnalysisBudget,
    par: &ParallelConfig,
    tracer: &T,
    clock: &mut u64,
    seq: u32,
    timings: &mut TimingMemo,
) -> Result<CachedAnalysis, PtxError> {
    let mut degradation = Degradation::none();
    let access = analyze_access(launch, budget, par, tracer, clock, seq, &mut degradation)?;
    // Phase boundary between access analysis and trace profiling.
    if let Some(cause) = par.cancel_fired() {
        return Err(PtxError::Cancelled(cause));
    }
    let trace_start = *clock;
    let attempt = trace_profile(cfg, launch, scratch, budget, par, timings);
    let profile = match attempt {
        Ok(profile) => profile,
        Err(PtxError::Exec(ExecError::StepLimit { .. })) => {
            worsen_traced(
                &mut degradation,
                DegradationRung::PrelaunchOff,
                DegradationReason::TraceOverBudget,
                tracer,
                *clock,
                seq,
            );
            fallback_profile(launch)
        }
        Err(_) => {
            worsen_traced(
                &mut degradation,
                DegradationRung::PrelaunchOff,
                DegradationReason::TraceFailed,
                tracer,
                *clock,
                seq,
            );
            fallback_profile(launch)
        }
    };
    if T::ENABLED {
        // The interpreter does not expose step counts; the trace phase is
        // a unit-tick span on the analysis clock.
        *clock = trace_start + 1;
        tracer.emit(TraceEvent::AnalysisSpan {
            seq,
            name: launch.kernel.name.clone(),
            phase: AnalysisPhase::Trace,
            start_tick: trace_start,
            end_tick: *clock,
        });
    }
    Ok(CachedAnalysis {
        access,
        profile,
        degradation,
    })
}

/// The trace phase of one launch: its representative-TB profile, timed
/// through the run's timing memo under the fast paths and directly under
/// `reference()`.
///
/// # Errors
///
/// [`PtxError::Exec`] when tracing the representative TB fails.
fn trace_profile(
    cfg: &GpuConfig,
    launch: &Launch,
    scratch: &mut LazyScratch,
    budget: &AnalysisBudget,
    par: &ParallelConfig,
    timings: &mut TimingMemo,
) -> Result<LaunchProfile, PtxError> {
    if launch.num_blocks() == 0 {
        return Ok(unit_profile(launch));
    }
    if !par.fast_paths {
        return try_profile_launch_limited(cfg, launch, scratch.get(), budget.trace_steps);
    }
    let rep = launch.num_blocks() / 2;
    let trace = trace_block_limited(launch, rep, scratch.get(), budget.trace_steps)
        .map_err(PtxError::Exec)?;
    Ok(timings.profile(cfg, launch, trace))
}

/// The trace phase of one cold analysis run of `app` under `par`, on its
/// own so it can be timed: in launch order on `scratch` (the initial image
/// of [`scratch_memory`]), every launch whose analysis key is new to the
/// run has its representative TB traced and timed with one run's timing
/// memo, as in [`jit_analyze_app_par_stats`] between its absint and graph
/// phases; a repeated key is a cache hit there and skips the phase.
/// Returns the trace-phase counters.
pub fn trace_phase(
    cfg: &GpuConfig,
    app: &Application,
    scratch: &mut GlobalMem,
    budget: &AnalysisBudget,
    par: &ParallelConfig,
) -> TraceMemoStats {
    let launches = app.launches();
    let mut lazy = LazyScratch {
        app,
        mem: Some(std::mem::take(scratch)),
    };
    let mut timings = TimingMemo::default();
    let mut seen = HashSet::new();
    for (launch, key) in launches.iter().zip(keys_of(&launches)) {
        if seen.insert(key) {
            // A failed trace falls back to an estimate in the pipeline.
            let _ = trace_profile(cfg, launch, &mut lazy, budget, par, &mut timings);
        }
    }
    *scratch = lazy.mem.unwrap_or_default();
    timings.stats()
}

/// Access-set phase of the degradation ladder: precise fueled analysis
/// with coarse and whole-kernel-barrier fallbacks.
///
/// # Errors
///
/// [`PtxError`] only for structurally invalid launches.
fn analyze_access<T: Tracer>(
    launch: &Launch,
    budget: &AnalysisBudget,
    par: &ParallelConfig,
    tracer: &T,
    clock: &mut u64,
    seq: u32,
    degradation: &mut Degradation,
) -> Result<KernelAccess, PtxError> {
    assert!(
        launch.kernel.name != PANIC_KERNEL_SENTINEL,
        "injected analysis panic (test seam)"
    );
    let mut fuel = budget.absint_fuel;
    let attempt = try_analyze_launch_fueled_par(launch, &mut fuel, par)?;
    if T::ENABLED {
        // One tick per unit of fuel consumed, minimum 1 per phase run.
        let start = *clock;
        *clock += (budget.absint_fuel - fuel).max(1);
        tracer.emit(TraceEvent::AnalysisSpan {
            seq,
            name: launch.kernel.name.clone(),
            phase: AnalysisPhase::Absint,
            start_tick: start,
            end_tick: *clock,
        });
        if let Some((_, stats)) = &attempt {
            tracer.emit(TraceEvent::AffineFastPath {
                tick: *clock,
                seq,
                attempted: stats.affine_attempted,
                accepted: stats.affine_accepted,
                interpreted: stats.tbs_interpreted,
                synthesized: stats.tbs_synthesized,
            });
        }
    }
    let access = match attempt {
        Some((access, _stats)) => access,
        None => {
            worsen_traced(
                degradation,
                DegradationRung::Coarse,
                DegradationReason::AnalysisOverBudget,
                tracer,
                *clock,
                seq,
            );
            // Phase boundary: a deadline landing mid-ladder abandons the
            // launch here instead of paying for the coarse retry.
            if let Some(cause) = par.cancel_fired() {
                return Err(PtxError::Cancelled(cause));
            }
            let mut coarse_fuel = budget.coarse_fuel;
            let coarse =
                try_analyze_launch_grouped(launch, budget.coarse_groups, &mut coarse_fuel)?;
            if T::ENABLED {
                let start = *clock;
                *clock += (budget.coarse_fuel - coarse_fuel).max(1);
                tracer.emit(TraceEvent::AnalysisSpan {
                    seq,
                    name: launch.kernel.name.clone(),
                    phase: AnalysisPhase::Coarse,
                    start_tick: start,
                    end_tick: *clock,
                });
            }
            match coarse {
                Some(access) => access,
                None => {
                    worsen_traced(
                        degradation,
                        DegradationRung::Barrier,
                        DegradationReason::CoarseOverBudget,
                        tracer,
                        *clock,
                        seq,
                    );
                    KernelAccess::barrier(launch.num_blocks())
                }
            }
        }
    };
    if access.non_static {
        worsen_traced(
            degradation,
            DegradationRung::Barrier,
            DegradationReason::NonStatic,
            tracer,
            *clock,
            seq,
        );
    }
    Ok(access)
}

/// Graph phase: builds the dependency graph against the predecessor under
/// the edge budget and the 6-bit counter limit, then appends the finished
/// [`JitKernel`]. Graphs are memoized per (parent launch, child launch,
/// hazard, edge budget) — the graph is a pure function of those — so
/// iterated kernel sequences skip construction entirely on repeats.
#[allow(clippy::too_many_arguments)]
fn push_kernel<T: Tracer>(
    out: &mut Vec<JitKernel>,
    seq: u32,
    prev_key: Option<&CacheKey>,
    launch: &Launch,
    key: &CacheKey,
    analyzed: Analyzed,
    hazard: HazardMode,
    budget: &AnalysisBudget,
    cache: &mut AnalysisCache,
    par: &ParallelConfig,
    tracer: &T,
    clock: &mut u64,
) {
    let Analyzed {
        access,
        profile,
        mut degradation,
        cache_hit,
    } = analyzed;
    let (graph, over, degree_over) = match (out.last(), prev_key) {
        (Some(prev), Some(prev_key)) => {
            let gkey = GraphKey {
                parent: prev_key.clone(),
                child: key.clone(),
                mode: hazard,
                max_edges: budget.max_graph_edges,
            };
            let looked_up = cache.lookup_graph(&gkey);
            if T::ENABLED {
                tracer.emit(TraceEvent::CacheProbe {
                    tick: *clock,
                    seq,
                    graph: true,
                    hit: looked_up.is_some(),
                });
            }
            match looked_up {
                Some(cg) => (cg.graph, cg.over_budget, cg.degree_overflow),
                None => {
                    let (mut g, over) = build_graph_bounded_par(
                        &prev.access,
                        &access,
                        hazard,
                        budget.max_graph_edges,
                        par,
                    );
                    // Hardware fallback: parent counters are 6-bit; degrees
                    // above 63 degrade to the fully-connected encoding
                    // (§IV-C).
                    let degree_over = !g.is_fully_connected() && g.max_child_degree() > MAX_COUNTER;
                    if degree_over {
                        g.degrade_to_fully_connected();
                    }
                    cache.insert_graph(
                        gkey,
                        CachedGraph {
                            graph: g.clone(),
                            over_budget: over,
                            degree_overflow: degree_over,
                        },
                    );
                    if T::ENABLED {
                        let start = *clock;
                        *clock += 1;
                        tracer.emit(TraceEvent::AnalysisSpan {
                            seq,
                            name: launch.kernel.name.clone(),
                            phase: AnalysisPhase::Graph,
                            start_tick: start,
                            end_tick: *clock,
                        });
                    }
                    (g, over, degree_over)
                }
            }
        }
        _ => (
            BipartiteGraph::independent(0, access.num_blocks() as u32),
            false,
            false,
        ),
    };
    if over {
        worsen_traced(
            &mut degradation,
            DegradationRung::Barrier,
            DegradationReason::GraphOverBudget,
            tracer,
            *clock,
            seq,
        );
    }
    if degree_over {
        worsen_traced(
            &mut degradation,
            DegradationRung::Barrier,
            DegradationReason::DegreeOverflow,
            tracer,
            *clock,
            seq,
        );
    }
    let st = storage(&graph);
    let encoded = !matches!(st.pattern, Pattern::Irregular);
    let skip_gates = find_skip_gates(out, &access, seq, hazard);
    out.push(JitKernel {
        seq,
        name: launch.kernel.name.clone(),
        profile,
        access,
        graph,
        storage: st,
        encoded,
        skip_gates,
        degradation,
        cache_hit,
    });
}

/// Deterministic pessimistic profile for kernels whose representative
/// trace failed or ran over budget. Such kernels sit on the
/// [`DegradationRung::PrelaunchOff`] rung, so the estimate shapes timing
/// only, never correctness.
fn fallback_profile(launch: &Launch) -> LaunchProfile {
    LaunchProfile {
        n_tbs: launch.num_blocks(),
        threads: launch.threads_per_block().max(1),
        shared_bytes: launch.kernel.shared_bytes,
        duration: (launch.kernel.body.len() as u64 + 1) * 8,
        txns_per_tb: 0,
    }
}

/// Test seam for the panic-containment path: a kernel with this name
/// panics inside [`compute_analysis`], simulating an analysis bug.
#[doc(hidden)]
pub const PANIC_KERNEL_SENTINEL: &str = "__bm_panic_in_analysis";

/// The ladder stand-in for a launch whose analysis panicked: the same
/// opaque barrier as an invalid launch, attributed to the panic.
fn panicked_stub(launch: &Launch) -> CachedAnalysis {
    CachedAnalysis {
        access: KernelAccess::barrier(launch.num_blocks()),
        profile: fallback_profile(launch),
        degradation: Degradation {
            rung: DegradationRung::PrelaunchOff,
            reason: DegradationReason::AnalysisPanicked,
            at_cycle: 0,
        },
    }
}

/// The opaque-barrier stand-in for a structurally invalid launch.
fn invalid_launch_stub(launch: &Launch) -> Analyzed {
    Analyzed {
        access: KernelAccess::barrier(launch.num_blocks()),
        profile: fallback_profile(launch),
        degradation: Degradation {
            rung: DegradationRung::PrelaunchOff,
            reason: DegradationReason::InvalidLaunch,
            at_cycle: 0,
        },
        cache_hit: false,
    }
}

/// Kernel-level hazard screen against non-consecutive predecessors
/// (RAW always; plus WAR/WAW when tracking all hazards).
fn find_skip_gates(
    done: &[JitKernel],
    access: &KernelAccess,
    seq: u32,
    hazard: HazardMode,
) -> Vec<u32> {
    let mut gates = Vec::new();
    if seq < 2 {
        return gates;
    }
    for j in done.iter().take(seq as usize - 1) {
        let mut dep = access.kernel_reads.intersects(&j.access.kernel_writes)
            || access.non_static
            || j.access.non_static;
        if hazard == HazardMode::All {
            dep = dep
                || access.kernel_writes.intersects(&j.access.kernel_reads)
                || access.kernel_writes.intersects(&j.access.kernel_writes);
        }
        if dep {
            gates.push(j.seq);
        }
    }
    gates
}

/// Profiles one launch under a per-thread step budget (the trace rung of
/// the degradation ladder): traces a representative TB and times it on
/// one SM at the kernel's occupancy. Zero-block grids are legal degenerate
/// launches: they execute nothing and get a unit-duration profile so
/// downstream arithmetic stays well-defined.
///
/// # Errors
///
/// [`PtxError::Exec`] when tracing the representative TB fails; exceeding
/// the budget surfaces as [`ExecError::StepLimit`].
pub fn try_profile_launch_limited(
    cfg: &GpuConfig,
    launch: &Launch,
    scratch: &mut GlobalMem,
    max_steps: u64,
) -> Result<LaunchProfile, PtxError> {
    let n_tbs = launch.num_blocks();
    if n_tbs == 0 {
        return Ok(unit_profile(launch));
    }
    // Middle block: avoids boundary blocks whose guards mask most work.
    let rep = n_tbs / 2;
    let trace = trace_block_limited(launch, rep, scratch, max_steps).map_err(PtxError::Exec)?;
    Ok(profile_from_trace(cfg, launch, &trace))
}

/// Times one representative-TB trace on one SM at the kernel's occupancy.
fn profile_from_trace(cfg: &GpuConfig, launch: &Launch, trace: &TbTrace) -> LaunchProfile {
    let duration = sm_duration(cfg, trace, occupancy(cfg, launch));
    launch_profile(launch, trace, duration)
}

/// Co-resident copies of the representative TB the SM model times: the
/// kernel's occupancy, capped by its grid.
fn occupancy(cfg: &GpuConfig, launch: &Launch) -> u32 {
    cfg.occupancy(launch.threads_per_block(), launch.kernel.shared_bytes)
        .max(1)
        .min(launch.num_blocks().max(1))
}

/// Per-TB duration of `occ` co-resident copies of `trace` on one SM.
fn sm_duration(cfg: &GpuConfig, trace: &TbTrace, occ: u32) -> u64 {
    let traces: Vec<&TbTrace> = (0..occ).map(|_| trace).collect();
    simulate_sm(cfg, &traces).per_tb_duration()
}

/// The profile of `launch` whose representative trace is `trace`, timed
/// at `duration` cycles per TB.
fn launch_profile(launch: &Launch, trace: &TbTrace, duration: u64) -> LaunchProfile {
    LaunchProfile {
        n_tbs: launch.num_blocks(),
        threads: launch.threads_per_block(),
        shared_bytes: launch.kernel.shared_bytes,
        duration,
        txns_per_tb: trace.global_transactions,
    }
}

/// The degenerate zero-block profile: executes nothing, unit duration so
/// downstream arithmetic stays well-defined.
fn unit_profile(launch: &Launch) -> LaunchProfile {
    LaunchProfile {
        n_tbs: 0,
        threads: launch.threads_per_block(),
        shared_bytes: launch.kernel.shared_bytes,
        duration: 1,
        txns_per_tb: 0,
    }
}

/// Recomputes every kernel's skip gates from the current access sets —
/// used by the soundness guard after quarantining marks kernels
/// `non_static`, which widens their gate requirements.
pub(crate) fn recompute_skip_gates(jit: &mut [JitKernel], hazard: HazardMode) {
    let gates: Vec<Vec<u32>> = (0..jit.len())
        .map(|seq| find_skip_gates(&jit[..seq], &jit[seq].access, seq as u32, hazard))
        .collect();
    for (k, g) in gates.into_iter().enumerate() {
        jit[k].skip_gates = g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_ptx::kernel::{ArgValue, Dim3, Launch};
    use bm_ptx::mem::AddressSpace;
    use bm_ptx::parser::parse_kernel;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Three-kernel pipeline: K1 writes B from A; K2 writes C from B;
    /// K3 writes D from A (skip-level dependency on K1's *input* — no RAW)
    /// and from C.
    fn pipeline_app() -> Application {
        let mut space = AddressSpace::new();
        let n = 256u64;
        let a = space.alloc(4 * n);
        let b = space.alloc(4 * n);
        let c = space.alloc(4 * n);
        let d = space.alloc(4 * n);
        let k = Arc::new(
            parse_kernel(
                r#".entry axpy(.param .u64 X, .param .u64 Y) {
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
        let launch = |x: u64, y: u64| {
            ApiCall::KernelLaunch(Launch::new(
                k.clone(),
                Dim3::x(4),
                Dim3::x(64),
                vec![ArgValue::Ptr(x), ArgValue::Ptr(y)],
            ))
        };
        Application {
            name: "pipeline".into(),
            space,
            calls: vec![
                ApiCall::MemcpyH2D {
                    alloc: a.id,
                    bytes: 4 * n,
                },
                launch(a.base, b.base), // K1: A -> B
                launch(b.base, c.base), // K2: B -> C
                launch(c.base, d.base), // K3: C -> D
            ],
            host_data: HashMap::new(),
        }
    }

    #[test]
    fn chain_produces_one_to_one_graphs() {
        let cfg = GpuConfig::titan_x_pascal();
        let app = pipeline_app();
        let ks = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        assert_eq!(ks.len(), 3);
        assert!(ks[0].graph.is_independent());
        for k in &ks[1..] {
            assert_eq!(k.storage.pattern, Pattern::OneToOne, "kernel {}", k.seq);
            assert!(k.encoded);
            assert_eq!(k.graph.num_edges(), 4);
            assert!(k.skip_gates.is_empty(), "chain has no skip-level deps");
        }
        for k in &ks {
            assert!(k.profile.duration > 0);
            assert!(k.profile.txns_per_tb > 0);
            assert_eq!(k.profile.n_tbs, 4);
        }
    }

    #[test]
    fn skip_level_raw_gets_a_gate() {
        // K1: A->B, K2: C->D (unrelated), K3 reads B (skip dependency on K1).
        let mut space = AddressSpace::new();
        let n = 128u64;
        let a = space.alloc(4 * n);
        let b = space.alloc(4 * n);
        let c = space.alloc(4 * n);
        let d = space.alloc(4 * n);
        let e = space.alloc(4 * n);
        let k = Arc::new(
            parse_kernel(
                r#".entry axpy(.param .u64 X, .param .u64 Y) {
                     ld.param.u64 %rd1, [X];
                     ld.param.u64 %rd2, [Y];
                     mov.u32 %r1, %ctaid.x;
                     mov.u32 %r2, %ntid.x;
                     mov.u32 %r3, %tid.x;
                     mad.lo.u32 %r4, %r1, %r2, %r3;
                     mul.wide.u32 %rd3, %r4, 4;
                     add.u64 %rd4, %rd1, %rd3;
                     ld.global.f32 %f1, [%rd4];
                     add.u64 %rd5, %rd2, %rd3;
                     st.global.f32 [%rd5], %f1;
                     ret;
                   }"#,
            )
            .unwrap(),
        );
        let launch = |x: u64, y: u64| {
            ApiCall::KernelLaunch(Launch::new(
                k.clone(),
                Dim3::x(2),
                Dim3::x(64),
                vec![ArgValue::Ptr(x), ArgValue::Ptr(y)],
            ))
        };
        let app = Application {
            name: "skip".into(),
            space,
            calls: vec![
                launch(a.base, b.base), // K1 writes B
                launch(c.base, d.base), // K2 unrelated
                launch(b.base, e.base), // K3 reads B  <- skip dep on K1
            ],
            host_data: HashMap::new(),
        };
        let cfg = GpuConfig::titan_x_pascal();
        let ks = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        // Consecutive graph K2->K3 is independent...
        assert!(ks[2].graph.is_independent());
        // ...so the skip gate on K1 is what protects correctness.
        assert_eq!(ks[2].skip_gates, vec![0]);
        assert!(ks[1].skip_gates.is_empty());
    }

    #[test]
    fn repeated_pairs_hit_the_graph_cache() {
        let cfg = GpuConfig::titan_x_pascal();
        let app = pipeline_app();
        let budget = AnalysisBudget::default();
        let mut cache = AnalysisCache::for_budget(&budget);
        let serial = ParallelConfig::serial();
        let (first, _) =
            jit_analyze_app_par_stats(&cfg, &app, HazardMode::Raw, &budget, &mut cache, &serial);
        let after_first = cache.stats();
        assert_eq!(after_first.graph_hits, 0);
        assert_eq!(after_first.graph_misses, 2, "two consecutive pairs built");
        let (second, _) =
            jit_analyze_app_par_stats(&cfg, &app, HazardMode::Raw, &budget, &mut cache, &serial);
        let after_second = cache.stats();
        assert_eq!(after_second.graph_hits, 2, "same pairs served from cache");
        assert_eq!(after_second.graph_misses, 2);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.graph, b.graph, "cached graph must be identical");
            assert_eq!(a.degradation, b.degradation);
            assert!(b.cache_hit);
        }
    }

    #[test]
    fn serial_pipeline_matches_reference() {
        let cfg = GpuConfig::titan_x_pascal();
        let app = pipeline_app();
        let budget = AnalysisBudget::default();
        let mut ref_cache = AnalysisCache::for_budget(&budget);
        let (reference, _) = jit_analyze_app_par_stats(
            &cfg,
            &app,
            HazardMode::Raw,
            &budget,
            &mut ref_cache,
            &ParallelConfig::reference(),
        );
        let mut cache = AnalysisCache::for_budget(&budget);
        let (serial, _) = jit_analyze_app_par_stats(
            &cfg,
            &app,
            HazardMode::Raw,
            &budget,
            &mut cache,
            &ParallelConfig::serial(),
        );
        assert_eq!(serial.len(), reference.len());
        for (a, b) in reference.iter().zip(&serial) {
            assert_eq!(a.access, b.access);
            assert_eq!(a.graph, b.graph);
            assert_eq!(a.skip_gates, b.skip_gates);
            assert_eq!(a.cache_hit, b.cache_hit);
            assert_eq!(a.degradation, b.degradation);
            assert_eq!(a.profile.duration, b.profile.duration);
            assert_eq!(a.profile.txns_per_tb, b.profile.txns_per_tb);
        }
        assert_eq!(cache.stats(), ref_cache.stats());
    }

    #[test]
    fn panicking_worker_degrades_its_kernel_not_the_pipeline() {
        // The middle kernel carries the panic sentinel: its analysis
        // worker dies mid-flight, the kernel lands on the PrelaunchOff
        // rung as an opaque barrier, and its neighbours analyze normally.
        let mut space = AddressSpace::new();
        let n = 256u64;
        let a = space.alloc(4 * n);
        let b = space.alloc(4 * n);
        let c = space.alloc(4 * n);
        let good = Arc::new(
            parse_kernel(
                r#".entry axpy(.param .u64 X, .param .u64 Y) {
                     ld.param.u64 %rd1, [X];
                     ld.param.u64 %rd2, [Y];
                     mov.u32 %r1, %ctaid.x;
                     mov.u32 %r2, %ntid.x;
                     mov.u32 %r3, %tid.x;
                     mad.lo.u32 %r4, %r1, %r2, %r3;
                     mul.wide.u32 %rd3, %r4, 4;
                     add.u64 %rd4, %rd1, %rd3;
                     ld.global.f32 %f1, [%rd4];
                     add.u64 %rd5, %rd2, %rd3;
                     st.global.f32 [%rd5], %f1;
                     ret;
                   }"#,
            )
            .unwrap(),
        );
        let bad = Arc::new(
            parse_kernel(&format!(
                ".entry {PANIC_KERNEL_SENTINEL}(.param .u64 X, .param .u64 Y) {{
                     ret;
                   }}"
            ))
            .unwrap(),
        );
        let launch = |k: &Arc<_>, x: u64, y: u64| {
            ApiCall::KernelLaunch(Launch::new(
                Arc::clone(k),
                Dim3::x(4),
                Dim3::x(64),
                vec![ArgValue::Ptr(x), ArgValue::Ptr(y)],
            ))
        };
        let app = Application {
            name: "panic-containment".into(),
            space,
            calls: vec![
                launch(&good, a.base, b.base),
                launch(&bad, b.base, c.base),
                launch(&good, c.base, a.base),
            ],
            host_data: HashMap::new(),
        };
        let cfg = GpuConfig::titan_x_pascal();
        let check = |ks: &[JitKernel]| {
            assert_eq!(ks.len(), 3);
            assert_eq!(ks[1].degradation.rung, DegradationRung::PrelaunchOff);
            assert_eq!(
                ks[1].degradation.reason,
                DegradationReason::AnalysisPanicked
            );
            assert!(ks[1].access.non_static, "panicked kernel is opaque");
            assert_eq!(ks[0].degradation.rung, DegradationRung::Precise);
            assert_eq!(ks[2].degradation.rung, DegradationRung::Precise);
            assert!(ks[0].profile.duration > 0 && ks[2].profile.duration > 0);
        };
        let untraced = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        check(&untraced);

        // The traced driver contains the panic the same way.
        let budget = AnalysisBudget::default();
        let mut cache = AnalysisCache::for_budget(&budget);
        let tracer = bm_trace::RecordingTracer::new();
        let traced = try_jit_analyze_app_par_traced(
            &cfg,
            &app,
            HazardMode::Raw,
            &budget,
            &mut cache,
            &ParallelConfig::serial(),
            &tracer,
        )
        .expect("a contained panic is not an error");
        check(&traced);

        // So does the guarded pipeline, and the schedule it accepts is
        // equivalent to the serialized run.
        let report = crate::try_run_app(
            &GpuConfig::small(),
            &app,
            crate::modes::ExecMode::ConsumerPriority { window: 3 },
        )
        .expect("a contained panic is not an error");
        assert_eq!(report.degradation[1].1.rung, DegradationRung::PrelaunchOff);
        assert_eq!(
            report.degradation[1].1.reason,
            DegradationReason::AnalysisPanicked
        );
        assert!(crate::correctness::check_schedule(&app, &report.schedule)
            .expect("the schedule replays")
            .is_match());
    }

    #[test]
    fn high_degree_degrades_to_fully_connected() {
        // Parent: 128 TBs each writing 4 bytes of A; child: every TB reads
        // all of A -> degree 128 > 63 -> fully connected fallback.
        let mut space = AddressSpace::new();
        let a = space.alloc(4 * 128 * 64);
        let b = space.alloc(4 * 128 * 64);
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
        // Reader: every thread loops over the entire array A.
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
                     add.u32 %r1, %r1, 64;
                     bra $TOP;
                   $OUT:
                     mov.u32 %r5, %ctaid.x;
                     mul.wide.u32 %rd5, %r5, 4;
                     add.u64 %rd6, %rd2, %rd5;
                     st.global.f32 [%rd6], %f1;
                     ret;
                   }"#,
            )
            .unwrap(),
        );
        let app = Application {
            name: "degrade".into(),
            space,
            calls: vec![
                ApiCall::KernelLaunch(Launch::new(
                    writer,
                    Dim3::x(128),
                    Dim3::x(64),
                    vec![ArgValue::Ptr(a.base)],
                )),
                ApiCall::KernelLaunch(Launch::new(
                    reader,
                    Dim3::x(8),
                    Dim3::x(64),
                    vec![
                        ArgValue::Ptr(a.base),
                        ArgValue::Ptr(b.base),
                        ArgValue::U32(128 * 64),
                    ],
                )),
            ],
            host_data: HashMap::new(),
        };
        let cfg = GpuConfig::titan_x_pascal();
        let ks = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        assert!(ks[1].graph.is_fully_connected());
        assert_eq!(ks[1].storage.pattern, Pattern::FullyConnected);
        assert_eq!(ks[1].storage.encoded_bytes, 4);
    }
}
