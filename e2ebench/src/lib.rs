//! End-to-end host-time benchmark of the BlockMaestro pipeline.
//!
//! One single-threaded process drives the public entry points of
//! `blockmaestro`, `bm-multi`, `bm-cmdq` and `bm-workloads` as a closed
//! loop: one client, one application run at a time. A *pass* runs every
//! application of the workload once, in an order shuffled by the seed; an
//! *op* is one application's run within a pass. The applications are the
//! fixed Table II builds with [`GpuConfig::titan_x_pascal`].
//!
//! Workloads, and why each exists:
//!
//! * `guarded` — [`try_run_app`] (consumer w=3, RAW) over GAUSSIAN, HS,
//!   AlexNet, BICG and PATH: the user path of `bm-serve` and the guard
//!   tests. The functional interpreter dominates, through the serialized
//!   reference and the guard replay, so guard and interpreter work shows
//!   here. 3MM and NW are left out to keep one pass short enough to
//!   repeat.
//! * `sweep` — the figure path over GAUSSIAN, NW, GRAMSCHM, LUD and FFT:
//!   one launch-time analysis, the baseline plus the six Fig. 9 variants,
//!   and one 2-device multi run per app. No functional replay; analysis
//!   dominates, then the DES and multi-device coordination.
//! * `checkpoint` — the same five apps, analysed once in setup. Each op
//!   checkpoints every kernel into a fresh directory, is killed at kernel
//!   n/2, loads and decodes the snapshot and resumes to completion; the
//!   resumed report must equal the uninterrupted one. Snapshot capture,
//!   encode and fsynced saves dominate; interpretation and analysis are
//!   absent from the timed part.
//!
//! End-to-end times count only the op's calls into the program, not the
//! benchmark's checks. Each op and each set-up is timed between two runs
//! of a host-speed probe, and its time is scaled to the probe's reference
//! speed; the text output also prints the unscaled wall times.
//!
//! Every op is checked against the pinned results in `pinned.json` (see
//! [`pinned`]); an error, a guard recovery round, any differing simulated
//! statistic or a resume that diverges counts the op as failed.
//!
//! The traced run (`trace: true`) times each op untraced, then repeats it
//! with the benchmark calling each layer's public function itself and
//! wrapping a span around every call. The spans give the per-layer
//! metrics; their sum against the untraced op time gives the tracing
//! overhead (`trace.gap_pct`).

pub mod pinned;
mod store;

use blockmaestro::jit::try_profile_launch_limited;
use blockmaestro::{
    app_fingerprint, jit_analyze_app_par_stats, scratch_memory, try_jit_analyze_app,
    try_run_analyzed, try_run_analyzed_checkpointed, try_run_app, verify_soundness, AnalysisBudget,
    AnalysisCache, CheckpointPolicy, CheckpointSession, EngineError, ExecMode, FaultPlan,
    JitKernel, ParallelConfig, RunReport, RunSnapshot, SnapshotStore,
};
use bm_cmdq::{reorder_for_prelaunch, Application};
use bm_depgraph::{build_graph_bounded_par, HazardMode};
use bm_multi::{try_run_analyzed_multi, MultiGpuConfig};
use bm_ptx::absint::try_analyze_launch_fueled_par;
use bm_simt::GpuConfig;
use bm_testkit::Rng;
use bm_workloads::Scale;
use pinned::AppPins;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;
use store::{nanos, CountingStore};

/// The execution mode of guarded and checkpointed ops.
const MODE: ExecMode = ExecMode::ConsumerPriority { window: 3 };
/// Devices of the sweep's multi-device run.
const MULTI_DEVICES: u32 = 2;
const HAZARD: HazardMode = HazardMode::Raw;
/// Set-ups per run: at least [`MIN_SETUP_REPS`], more while they have
/// taken under [`SETUP_BUDGET_NS`] together, at most [`MAX_SETUP_REPS`];
/// `setup_s` is their median.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 15;
const SETUP_BUDGET_NS: f64 = 0.5e9;

/// Words in the host-speed probe's buffer (8 MiB).
const PROBE_WORDS: usize = 1 << 20;
/// Random read-modify-writes per probe.
const PROBE_STEPS: usize = 1 << 21;
/// Probe time at the reference host speed, in nanoseconds: end-to-end
/// times are scaled to the speed at which one probe takes this long.
const PROBE_NOMINAL_NS: f64 = 7e6;

/// Run key of the guarded pin.
const GUARDED_KEY: &str = "guarded";
/// Run key of the multi-device pin.
const MULTI_KEY: &str = "multi2";

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("pass_s", "s"),
    ("op_geomean_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run. Times and
/// counts are per pass; a layer the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("workloads.build_ms", "ms"),
    ("cmdq.serialized_ms", "ms"),
    ("guard.replay_ms", "ms"),
    ("guard.tbs_replayed", "count"),
    ("guard.rounds", "count"),
    ("interp.tbs_per_s", "1/s"),
    ("jit.analysis_ms", "ms"),
    ("jit.absint_ms", "ms"),
    ("jit.trace_ms", "ms"),
    ("jit.graph_ms", "ms"),
    ("jit.traces_interpreted", "count"),
    ("jit.traces_synthesized", "count"),
    ("jit.cache_hits", "count"),
    ("jit.cache_misses", "count"),
    ("cmdq.reorder_ms", "ms"),
    ("engine.des_ms", "ms"),
    ("engine.tbs_simulated", "count"),
    ("engine.sim_cycles", "count"),
    ("multi.run_ms", "ms"),
    ("multi.transfers", "count"),
    ("snapshot.saves", "count"),
    ("snapshot.bytes_written", "bytes"),
    ("snapshot.fsyncs", "count"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.capture_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.gap_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Guarded `try_run_app` runs.
    Guarded,
    /// The figure path: analysis, seven modes and a multi-device run.
    Sweep,
    /// Checkpointed runs killed mid-way and resumed.
    Checkpoint,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Guarded, Workload::Sweep, Workload::Checkpoint];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Guarded => "guarded",
            Workload::Sweep => "sweep",
            Workload::Checkpoint => "checkpoint",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Table II applications the workload runs.
    pub fn apps(self) -> &'static [&'static str] {
        match self {
            Workload::Guarded => &["GAUSSIAN", "HS", "AlexNet", "BICG", "PATH"],
            Workload::Sweep | Workload::Checkpoint => &["GAUSSIAN", "NW", "GRAMSCHM", "LUD", "FFT"],
        }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Shuffles the application order of every pass.
    pub seed: u64,
    /// Passes start until this much wall time has been measured.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Application size.
    pub scale: Scale,
    /// The pinned results file.
    pub pins: PathBuf,
    /// Scratch directory for checkpoint snapshots; removed afterwards.
    pub tmp_dir: PathBuf,
}

/// A named, measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// One line per failed op.
    pub failures: Vec<String>,
    /// Program seconds of each pass measured, scaled to the reference host
    /// speed.
    pub pass_s: Vec<f64>,
    /// The same, as measured on the wall clock.
    pub raw_pass_s: Vec<f64>,
    /// Median set-up wall seconds, unscaled.
    pub raw_setup_s: f64,
    /// Per application, in workload order: its median op seconds.
    pub op_median_s: Vec<(&'static str, f64)>,
    /// [`END_TO_END`] or [`PER_LAYER`] metrics, in that order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One application, ready to run.
struct Prepared {
    name: &'static str,
    app: Application,
    pins: AppPins,
    /// `checkpoint` only: the setup-time analysis and the uninterrupted
    /// report resumed runs must reproduce.
    analyzed: Option<(Vec<JitKernel>, RunReport)>,
}

struct Setup {
    apps: Vec<Prepared>,
    build_ns: u64,
    analysis_ns: u64,
    spent: Spent,
}

/// Wall nanoseconds summed over steps of a [`SpeedClock`], as measured and
/// scaled to the reference host speed.
#[derive(Default)]
struct Spent {
    raw_ns: u64,
    scaled_ns: f64,
}

impl Spent {
    fn step<R>(&mut self, clock: &mut SpeedClock, f: impl FnOnce() -> R) -> R {
        let (r, ns, scaled_ns) = clock.step(|| time(f));
        self.raw_ns += ns;
        self.scaled_ns += scaled_ns;
        r
    }
}

/// One set-up: load the pins, then build each app (and in `checkpoint`
/// analyse it and run it uninterrupted), each a step of `clock`.
fn setup(opts: &Options, cfg: &GpuConfig, clock: &mut SpeedClock) -> Result<Setup, String> {
    let mut spent = Spent::default();
    let mut pins = spent.step(clock, || pinned::load(&opts.pins, opts.scale))?;
    let suite = bm_workloads::suite();
    let (mut build_ns, mut analysis_ns) = (0, 0);
    let mut apps = Vec::new();
    for &name in opts.workload.apps() {
        let bench = suite
            .iter()
            .find(|b| b.name == name)
            .ok_or_else(|| format!("{name}: not in the Table II suite"))?;
        let (app, analyzed) = spent.step(clock, || -> Result<_, String> {
            let (app, ns) = time(|| (bench.build)(opts.scale));
            build_ns += ns;
            if opts.workload != Workload::Checkpoint {
                return Ok((app, None));
            }
            let (jit, ns) = time(|| try_jit_analyze_app(cfg, &app, HAZARD));
            let jit = jit.map_err(|e| format!("{name}: {e}"))?;
            analysis_ns += ns;
            let reference =
                try_run_analyzed(cfg, &app, &jit, MODE).map_err(|e| format!("{name}: {e}"))?;
            Ok((app, Some((jit, reference))))
        })?;
        let pins = pins
            .remove(name)
            .ok_or_else(|| format!("{name}: no pinned results"))?;
        apps.push(Prepared {
            name,
            app,
            pins,
            analyzed,
        });
    }
    Ok(Setup {
        apps,
        build_ns,
        analysis_ns,
        spent,
    })
}

/// Per-pass layer totals of a traced run, plus the span sum the ops
/// themselves spent.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
    op_span_ns: u64,
}

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    fn add_ms(&mut self, name: &'static str, ns: u64) {
        self.add(name, ns as f64 / 1e6);
    }

    /// Times a call the op makes; it counts towards the op's span sum.
    fn span<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64) {
        let (r, ns) = time(f);
        self.op_span_ns += ns;
        (r, ns)
    }

    /// Times an extra call the traced run makes to split a layer; it does
    /// not count towards the op's span sum.
    fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let (r, ns) = time(f);
        self.add_ms(name, ns);
        (r, ns)
    }

    /// Engine counters of one simulated run.
    fn count_run(&mut self, r: &RunReport) {
        self.add("engine.tbs_simulated", r.schedule.len() as f64);
        self.add("engine.sim_cycles", r.total_cycles as f64);
    }
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Runs `f` and measures its wall time in nanoseconds.
fn time<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, nanos(t))
}

/// Host-speed yardstick and the clock it corrects.
///
/// The host shares its caches and memory with other tenants. Their load
/// slows the program by up to 1.8× for seconds at a time, far more than
/// the changes the benchmark must resolve. A fixed loop of random
/// read-modify-writes over a buffer larger than the caches slows the same
/// way. The clock runs that probe between consecutive timed steps, on the
/// steps' own thread so it never competes with them, and scales each
/// step's time by the mean of the two probes around it.
struct SpeedClock {
    buf: Vec<u64>,
    last_probe_ns: u64,
}

impl SpeedClock {
    fn new() -> Self {
        let mut clock = SpeedClock {
            buf: vec![1; PROBE_WORDS],
            last_probe_ns: 0,
        };
        clock.resync();
        clock
    }

    fn probe(&mut self) -> u64 {
        let buf = &mut self.buf;
        // Bring the whole buffer back into the caches first, so the reading
        // does not depend on how much of it the step before evicted.
        black_box(buf.iter().fold(0u64, |s, &w| s.wrapping_add(w)));
        time(|| {
            let (mut idx, mut sum) = (1usize, 0u64);
            for _ in 0..black_box(PROBE_STEPS) {
                idx = idx
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0x2545_F491)
                    % PROBE_WORDS;
                sum = sum.wrapping_add(buf[idx]);
                buf[idx] = sum;
            }
            black_box(sum)
        })
        .1
    }

    /// Probes afresh, so work since the last probe does not shape the next
    /// step's scaling.
    fn resync(&mut self) {
        self.last_probe_ns = self.probe();
    }

    /// Runs `f`, which returns a result and the nanoseconds it measured,
    /// then probes. Returns the result, the nanoseconds, and the
    /// nanoseconds scaled to the reference speed.
    fn step<R>(&mut self, f: impl FnOnce() -> (R, u64)) -> (R, u64, f64) {
        let (r, ns) = f();
        let before = self.last_probe_ns;
        self.resync();
        let mean_probe_ns = (before + self.last_probe_ns) as f64 / 2.0;
        (r, ns, ns as f64 * PROBE_NOMINAL_NS / mean_probe_ns)
    }
}

/// Runs `f`, adding its wall time to `clock`. Ops time only their calls
/// into the program, so the benchmark's own checks stay out of the figures.
fn timed<R>(clock: &mut u64, f: impl FnOnce() -> R) -> R {
    let (r, ns) = time(f);
    *clock += ns;
    r
}

fn guarded_op(cfg: &GpuConfig, p: &Prepared, clock: &mut u64) -> Result<RunReport, String> {
    let report = timed(clock, || try_run_app(cfg, &p.app, MODE)).map_err(|e| e.to_string())?;
    check(report.guard == Default::default(), || {
        format!("guard needed recovery: {:?}", report.guard)
    })?;
    p.pins.check(GUARDED_KEY, &report)?;
    Ok(report)
}

/// Checks the serialized final memory against its pin, untimed. The guard
/// compares its replay with its own serialized run, so only the pin catches
/// an interpreter that computes the same wrong values in both.
fn check_serialized_memory(p: &Prepared) -> Result<(), String> {
    let memory = p.app.try_run_serialized().map_err(|e| e.to_string())?;
    p.pins.check_serialized(memory.fingerprint())
}

fn sweep_op(cfg: &GpuConfig, p: &Prepared, clock: &mut u64) -> Result<(), String> {
    let jit =
        timed(clock, || try_jit_analyze_app(cfg, &p.app, HAZARD)).map_err(|e| e.to_string())?;
    for mode in figure_modes() {
        let r = timed(clock, || try_run_analyzed(cfg, &p.app, &jit, mode))
            .map_err(|e| format!("{mode}: {e}"))?;
        p.pins.check(&mode.to_string(), &r)?;
    }
    let mcfg = MultiGpuConfig::devices(MULTI_DEVICES);
    let r = timed(clock, || {
        try_run_analyzed_multi(cfg, &mcfg, &p.app, &jit, MODE)
    })
    .map_err(|e| format!("{MULTI_KEY}: {e}"))?;
    p.pins.check(MULTI_KEY, &r)
}

/// The figure path's modes: the baseline, then the six Fig. 9 variants.
fn figure_modes() -> impl Iterator<Item = ExecMode> {
    std::iter::once(ExecMode::Baseline).chain(ExecMode::figure9_variants())
}

/// The kill point of a checkpoint op: the middle retirement boundary.
fn kill_point(n_kernels: usize) -> u32 {
    u32::try_from(n_kernels / 2).unwrap_or(u32::MAX).max(1)
}

fn checkpointed_run(
    cfg: &GpuConfig,
    app: &Application,
    jit: &[JitKernel],
    fault: &FaultPlan,
    store: &mut CountingStore,
    resume: Option<RunSnapshot>,
) -> Result<RunReport, EngineError> {
    let mut session = CheckpointSession::disabled();
    session.policy = CheckpointPolicy::every_kernels(1);
    session.store = Some(store);
    session.app_fp = app_fingerprint(app);
    session.hazard = format!("{HAZARD:?}");
    session.resume = resume;
    try_run_analyzed_checkpointed(
        cfg,
        app,
        jit,
        MODE,
        fault,
        &bm_trace::NullTracer,
        &mut session,
    )
}

/// Span times of one checkpoint op's steps.
#[derive(Default)]
struct CkptTimes {
    killed_ns: u64,
    load_ns: u64,
    decode_ns: u64,
    resumed_ns: u64,
}

impl CkptTimes {
    fn total(&self) -> u64 {
        self.killed_ns + self.load_ns + self.decode_ns + self.resumed_ns
    }
}

/// Kill at n/2, load, decode, resume; the resumed report must equal the
/// uninterrupted one. Each op writes into a fresh directory.
fn checkpoint_op(
    cfg: &GpuConfig,
    p: &Prepared,
    dir: &std::path::Path,
    store: &mut CountingStore,
    times: &mut CkptTimes,
) -> Result<(), String> {
    let (jit, reference) = p.analyzed.as_ref().ok_or("checkpoint app not analysed")?;
    // A failed earlier op may have left its snapshot behind.
    let _ = std::fs::remove_dir_all(dir);
    let kill = FaultPlan {
        kill_at_kernel: Some(kill_point(jit.len())),
        ..FaultPlan::default()
    };
    let (killed, ns) = time(|| checkpointed_run(cfg, &p.app, jit, &kill, store, None));
    times.killed_ns = ns;
    match killed {
        Err(EngineError::Killed { .. }) => {}
        Err(e) => return Err(format!("killed run: {e}")),
        Ok(_) => return Err("the kill point never fired".into()),
    }
    let (bytes, ns) = time(|| store.load());
    times.load_ns = ns;
    let bytes = bytes
        .map_err(|e| e.to_string())?
        .ok_or("no snapshot saved before the kill")?;
    let (snap, ns) = time(|| RunSnapshot::decode(&bytes));
    times.decode_ns = ns;
    let snap = snap.map_err(|e| e.to_string())?;
    drop(bytes);
    let (resumed, ns) =
        time(|| checkpointed_run(cfg, &p.app, jit, &FaultPlan::default(), store, Some(snap)));
    times.resumed_ns = ns;
    let resumed = resumed.map_err(|e| format!("resumed run: {e}"))?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    check(&resumed == reference, || {
        "resumed report differs from the uninterrupted run".into()
    })?;
    p.pins.check(&MODE.to_string(), &resumed)
}

fn ckpt_dir(opts: &Options, p: &Prepared) -> PathBuf {
    opts.tmp_dir.join(p.name)
}

/// One untraced op: its result (with the report the traced run compares
/// against) and the nanoseconds it spent in the program. With
/// `check_memory`, a guarded op also checks the serialized final memory.
fn plain_op(
    cfg: &GpuConfig,
    p: &Prepared,
    opts: &Options,
    check_memory: bool,
) -> (Result<Option<RunReport>, String>, u64) {
    let mut clock = 0;
    let result = match opts.workload {
        Workload::Guarded => guarded_op(cfg, p, &mut clock).and_then(|r| {
            if check_memory {
                check_serialized_memory(p)?;
            }
            Ok(Some(r))
        }),
        Workload::Sweep => sweep_op(cfg, p, &mut clock).map(|()| None),
        Workload::Checkpoint => {
            let dir = ckpt_dir(opts, p);
            let mut store = CountingStore::new(&dir, false);
            let mut times = CkptTimes::default();
            let result = checkpoint_op(cfg, p, &dir, &mut store, &mut times);
            clock = times.total();
            result.map(|()| None)
        }
    };
    (result, clock)
}

/// The launch-time analysis phases, timed through the same public phase
/// functions the `perf_analysis` microbenchmark uses, under the reference
/// configuration that [`try_jit_analyze_app`] runs. The trace-memo
/// counters come from the memoized `serial` configuration, the only one
/// that memoizes.
fn analysis_phases(layers: &mut Layers, cfg: &GpuConfig, app: &Application, jit: &[JitKernel]) {
    let budget = AnalysisBudget::default();
    let par = ParallelConfig::reference();
    layers.probe("jit.absint_ms", || {
        for launch in app.launches() {
            let mut fuel = budget.absint_fuel;
            black_box(try_analyze_launch_fueled_par(launch, &mut fuel, &par).ok());
        }
    });
    layers.probe("jit.trace_ms", || {
        let mut scratch = scratch_memory(app);
        for launch in app.launches() {
            black_box(
                try_profile_launch_limited(cfg, launch, &mut scratch, budget.trace_steps).ok(),
            );
        }
    });
    layers.probe("jit.graph_ms", || {
        for pair in jit.windows(2) {
            black_box(build_graph_bounded_par(
                &pair[0].access,
                &pair[1].access,
                HAZARD,
                budget.max_graph_edges,
                &par,
            ));
        }
    });
    let mut cache = AnalysisCache::for_budget(&budget);
    let (_, memo) = jit_analyze_app_par_stats(
        cfg,
        app,
        HAZARD,
        &budget,
        &mut cache,
        &ParallelConfig::serial(),
    );
    layers.add("jit.traces_interpreted", memo.traces_interpreted as f64);
    layers.add("jit.traces_synthesized", memo.traces_synthesized as f64);
}

/// An engine run with its command-queue reorder split out: the reorder is
/// repeated standalone and subtracted from the run. Returns the report and
/// the reorder and DES nanoseconds.
fn split_engine_run(
    layers: &mut Layers,
    cfg: &GpuConfig,
    app: &Application,
    jit: &[JitKernel],
    mode: ExecMode,
) -> Result<(RunReport, u64, u64), String> {
    let reorder_ns = if mode.prelaunches() {
        layers
            .probe("cmdq.reorder_ms", || black_box(reorder_for_prelaunch(app)))
            .1
    } else {
        0
    };
    let (r, run_ns) = layers.span(|| try_run_analyzed(cfg, app, jit, mode));
    let r = r.map_err(|e| format!("{mode}: {e}"))?;
    let des_ns = run_ns.saturating_sub(reorder_ns);
    layers.add_ms("engine.des_ms", des_ns);
    layers.count_run(&r);
    Ok((r, reorder_ns, des_ns))
}

/// The guard's steps called one by one: validate, analysis, serialized
/// reference, reorder/DES, replay. The result must match `try_run_app`'s.
fn traced_guarded(
    layers: &mut Layers,
    cfg: &GpuConfig,
    p: &Prepared,
    untraced: Option<&RunReport>,
) -> Result<(), String> {
    let app = &p.app;
    layers
        .span(|| app.validate())
        .0
        .map_err(|e| e.to_string())?;
    let (jit, ns) = layers.span(|| try_jit_analyze_app(cfg, app, HAZARD));
    let jit = jit.map_err(|e| e.to_string())?;
    layers.add_ms("jit.analysis_ms", ns);
    let (fp, ns) = layers.span(|| app.try_run_serialized().map(|m| m.fingerprint()));
    let fp = fp.map_err(|e| e.to_string())?;
    layers.add_ms("cmdq.serialized_ms", ns);
    let tbs: u64 = app
        .launches()
        .iter()
        .map(|l| u64::from(l.num_blocks()))
        .sum();
    layers.add("interp.serialized_tbs", tbs as f64);
    p.pins.check_serialized(fp)?;
    let (mut report, ..) = split_engine_run(layers, cfg, app, &jit, MODE)?;
    let (outcome, ns) = layers.span(|| verify_soundness(app, &jit, &report.schedule, fp));
    let outcome = outcome.map_err(|e| e.to_string())?;
    layers.add_ms("guard.replay_ms", ns);
    layers.add("guard.tbs_replayed", report.schedule.len() as f64);
    // The first run plus any recovery rounds `try_run_app` needed.
    layers.add(
        "guard.rounds",
        untraced.map_or(0.0, |u| 1.0 + f64::from(u.guard.recovery_rounds)),
    );
    check(outcome.is_sound(), || {
        "guard replay rejected the schedule".into()
    })?;
    report.guard = Default::default();
    layers.add("jit.cache_hits", report.cache_hits as f64);
    layers.add("jit.cache_misses", report.cache_misses as f64);
    analysis_phases(layers, cfg, app, &jit);
    check(untraced.is_some_and(|u| *u == report), || {
        "step-by-step guard differs from try_run_app".into()
    })?;
    p.pins.check(GUARDED_KEY, &report)
}

fn traced_sweep(layers: &mut Layers, cfg: &GpuConfig, p: &Prepared) -> Result<(), String> {
    let app = &p.app;
    let (jit, ns) = layers.span(|| try_jit_analyze_app(cfg, app, HAZARD));
    let jit = jit.map_err(|e| e.to_string())?;
    layers.add_ms("jit.analysis_ms", ns);
    for mode in figure_modes() {
        let (r, ..) = split_engine_run(layers, cfg, app, &jit, mode)?;
        if mode == ExecMode::Baseline {
            layers.add("jit.cache_hits", r.cache_hits as f64);
            layers.add("jit.cache_misses", r.cache_misses as f64);
        }
        p.pins.check(&mode.to_string(), &r)?;
    }
    let mcfg = MultiGpuConfig::devices(MULTI_DEVICES);
    let (r, ns) = layers.span(|| try_run_analyzed_multi(cfg, &mcfg, app, &jit, MODE));
    let r = r.map_err(|e| format!("{MULTI_KEY}: {e}"))?;
    layers.add_ms("multi.run_ms", ns);
    layers.add(
        "multi.transfers",
        r.multi.as_ref().map_or(0, |m| m.transfers) as f64,
    );
    p.pins.check(MULTI_KEY, &r)?;
    analysis_phases(layers, cfg, app, &jit);
    Ok(())
}

fn traced_checkpoint(
    layers: &mut Layers,
    cfg: &GpuConfig,
    p: &Prepared,
    opts: &Options,
) -> Result<(), String> {
    let (jit, reference) = p.analyzed.as_ref().ok_or("checkpoint app not analysed")?;
    // The DES share of the op: an uncheckpointed run of the same app, with
    // its reorder split out. It is not part of the op, so its span is not
    // summed.
    let op_span_ns = layers.op_span_ns;
    let (plain, reorder_ns, des_ns) = split_engine_run(layers, cfg, &p.app, jit, MODE)?;
    layers.op_span_ns = op_span_ns;
    check(&plain == reference, || {
        "plain run differs from setup".into()
    })?;
    // The op reorders twice: once in the killed run, once in the resumed.
    layers.add_ms("cmdq.reorder_ms", reorder_ns);
    let dir = ckpt_dir(opts, p);
    let mut store = CountingStore::new(&dir, true);
    let mut times = CkptTimes::default();
    let result = checkpoint_op(cfg, p, &dir, &mut store, &mut times);
    let s = store.stats;
    layers.add("snapshot.saves", s.saves as f64);
    layers.add("snapshot.bytes_written", s.bytes_written as f64);
    layers.add("snapshot.fsyncs", store.fsyncs() as f64);
    layers.add_ms("snapshot.save_ms", s.save_ns);
    layers.add_ms("snapshot.load_ms", s.load_ns);
    layers.add_ms("snapshot.encode_ms", s.encode_ns);
    layers.add_ms("snapshot.decode_ms", times.decode_ns);
    let runs_ns = (times.killed_ns + times.resumed_ns).saturating_sub(s.codec_check_ns);
    layers.op_span_ns += runs_ns + times.load_ns + times.decode_ns;
    let accounted = 2 * reorder_ns + des_ns + s.save_ns + s.encode_ns;
    layers.add_ms("snapshot.capture_ms", runs_ns.saturating_sub(accounted));
    analysis_phases(layers, cfg, &p.app, jit);
    result?;
    check(s.codec_mismatches == 0, || {
        format!(
            "{} snapshots failed the codec round trip",
            s.codec_mismatches
        )
    })
}

/// Runs every pinned (application, run key) once at `scale` and returns
/// the results to pin: the serialized fingerprint of every app, `guarded`
/// for the guarded apps, and the baseline, the six Fig. 9 variants and
/// `multi2` for the figure apps.
///
/// # Errors
///
/// Any run that fails.
pub fn compute_pins(scale: Scale) -> Result<BTreeMap<String, AppPins>, String> {
    let cfg = GpuConfig::titan_x_pascal();
    let guarded = Workload::Guarded.apps();
    let figure = Workload::Sweep.apps();
    let mut out = BTreeMap::new();
    for bench in bm_workloads::suite() {
        let name = bench.name;
        if !guarded.contains(&name) && !figure.contains(&name) {
            continue;
        }
        let err = |e: &dyn std::fmt::Display| format!("{name}: {e}");
        let app = (bench.build)(scale);
        let mut pins = AppPins {
            serialized_fp: app.try_run_serialized().map_err(|e| err(&e))?.fingerprint(),
            runs: BTreeMap::new(),
        };
        let mut pin = |key: String, r: &RunReport| pins.runs.insert(key, pinned::RunPin::of(r));
        if guarded.contains(&name) {
            pin(
                GUARDED_KEY.into(),
                &try_run_app(&cfg, &app, MODE).map_err(|e| err(&e))?,
            );
        }
        if figure.contains(&name) {
            let jit = try_jit_analyze_app(&cfg, &app, HAZARD).map_err(|e| err(&e))?;
            for mode in figure_modes() {
                let r = try_run_analyzed(&cfg, &app, &jit, mode).map_err(|e| err(&e))?;
                pin(mode.to_string(), &r);
            }
            let mcfg = MultiGpuConfig::devices(MULTI_DEVICES);
            let r = try_run_analyzed_multi(&cfg, &mcfg, &app, &jit, MODE).map_err(|e| err(&e))?;
            pin(MULTI_KEY.into(), &r);
        }
        out.insert(name.to_string(), pins);
    }
    Ok(out)
}

/// Shuffles `v` in place (Fisher–Yates).
fn shuffle(v: &mut [usize], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Median of `v` (mean of the middle two for even lengths); 0 if empty.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, app: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{app}: {e}"));
                None
            }
        }
    }
}

/// Runs one benchmark configuration.
///
/// # Errors
///
/// Set-up failures (unreadable pins, an application that cannot be
/// analysed); failed ops are counted in the [`Outcome`] instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut clock = SpeedClock::new();
    let cfg = GpuConfig::titan_x_pascal();
    let (mut setup_ns, mut raw_setup_ns) = (Vec::new(), Vec::new());
    let mut prepared = None;
    while raw_setup_ns.len() < MIN_SETUP_REPS
        || (raw_setup_ns.iter().sum::<f64>() < SETUP_BUDGET_NS
            && raw_setup_ns.len() < MAX_SETUP_REPS)
    {
        // Drop the previous set-up first, so peak memory holds one copy.
        drop(prepared.take());
        let s = setup(opts, &cfg, &mut clock)?;
        raw_setup_ns.push(s.spent.raw_ns as f64);
        setup_ns.push(s.spent.scaled_ns);
        prepared = Some(s);
    }
    let setup = prepared.ok_or("no set-up ran")?;
    if opts.workload == Workload::Checkpoint {
        std::fs::create_dir_all(&opts.tmp_dir)
            .map_err(|e| format!("{}: {e}", opts.tmp_dir.display()))?;
    }
    let n = setup.apps.len();
    let mut rng = Rng::new(opts.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut tally = Tally::default();
    let (mut pass_ns, mut raw_pass_ns) = (Vec::new(), Vec::new());
    let mut op_ns: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut traced_passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let start = Instant::now();
    loop {
        shuffle(&mut order, &mut rng);
        let mut layers = Layers::default();
        let (mut untraced_ns, mut pass_scaled_ns) = (0, 0.0);
        // Each app's serialized memory is checked once per run, in the
        // first pass; a traced run checks it in every traced op.
        let check_memory = pass_ns.is_empty() && !opts.trace;
        for &i in &order {
            let p = &setup.apps[i];
            let (result, ns, scaled_ns) = clock.step(|| plain_op(&cfg, p, opts, check_memory));
            let report = tally.record(p.name, result);
            op_ns[i].push(scaled_ns);
            pass_scaled_ns += scaled_ns;
            untraced_ns += ns;
            if !opts.trace {
                continue;
            }
            let traced = match opts.workload {
                Workload::Guarded => {
                    traced_guarded(&mut layers, &cfg, p, report.flatten().as_ref())
                }
                Workload::Sweep => traced_sweep(&mut layers, &cfg, p),
                Workload::Checkpoint => traced_checkpoint(&mut layers, &cfg, p, opts),
            };
            tally.record(p.name, traced);
            clock.resync();
        }
        pass_ns.push(pass_scaled_ns);
        raw_pass_ns.push(untraced_ns as f64);
        if opts.trace {
            traced_passes.push(finish_layers(layers, &setup, untraced_ns));
        }
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    if opts.workload == Workload::Checkpoint {
        let _ = std::fs::remove_dir_all(&opts.tmp_dir);
        if let Some(parent) = opts.tmp_dir.parent() {
            // Only succeeds once no concurrent run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
    let metrics = if opts.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: median(&traced_passes.iter().map(|l| l[name]).collect::<Vec<_>>()),
                unit,
            })
            .collect()
    } else {
        let op_medians: Vec<f64> = op_ns.iter().map(|v| median(v) / 1e9).collect();
        let failed = tally.failures.len() as u64;
        let values = [
            median(&pass_ns) / 1e9,
            geomean(&op_medians),
            median(&setup_ns) / 1e9,
            peak_rss_mb(),
            (tally.attempted - failed) as f64 / tally.attempted as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failures.len() as u64,
        failures: tally.failures,
        pass_s: pass_ns.iter().map(|ns| ns / 1e9).collect(),
        raw_pass_s: raw_pass_ns.iter().map(|ns| ns / 1e9).collect(),
        raw_setup_s: median(&raw_setup_ns) / 1e9,
        op_median_s: setup
            .apps
            .iter()
            .zip(&op_ns)
            .map(|(p, v)| (p.name, median(v) / 1e9))
            .collect(),
        metrics,
    })
}

/// Completes one traced pass's metrics: every [`PER_LAYER`] name present,
/// derived ratios computed.
fn finish_layers(
    mut layers: Layers,
    setup: &Setup,
    untraced_ns: u64,
) -> BTreeMap<&'static str, f64> {
    layers.add_ms("workloads.build_ms", setup.build_ns);
    if setup.analysis_ns > 0 {
        layers.add_ms("jit.analysis_ms", setup.analysis_ns);
        for p in &setup.apps {
            if let Some((_, r)) = &p.analyzed {
                layers.add("jit.cache_hits", r.cache_hits as f64);
                layers.add("jit.cache_misses", r.cache_misses as f64);
            }
        }
    }
    let v = &mut layers.values;
    let interp_ms = v.get("cmdq.serialized_ms").copied().unwrap_or(0.0)
        + v.get("guard.replay_ms").copied().unwrap_or(0.0);
    let interp_tbs = v.get("interp.serialized_tbs").copied().unwrap_or(0.0)
        + v.get("guard.tbs_replayed").copied().unwrap_or(0.0);
    if interp_ms > 0.0 {
        v.insert("interp.tbs_per_s", interp_tbs / (interp_ms / 1e3));
    }
    let untraced_ms = untraced_ns as f64 / 1e6;
    v.insert("trace.untraced_ms", untraced_ms);
    v.insert(
        "trace.gap_pct",
        100.0 * (layers.op_span_ns as f64 / 1e6 - untraced_ms) / untraced_ms,
    );
    PER_LAYER
        .iter()
        .map(|&(name, _)| (name, v.get(name).copied().unwrap_or(0.0)))
        .collect()
}
