//! # blockmaestro — programmer-transparent task-based GPU execution
//!
//! Rust reproduction of *BlockMaestro: Enabling Programmer-Transparent
//! Task-based Execution in GPU Systems* (ISCA 2021).
//!
//! BlockMaestro gives unmodified SIMT applications the benefits of
//! task-based runtimes by combining:
//!
//! 1. **Kernel pre-launching** — masking the 5 µs kernel-launch overhead
//!    by launching dependent kernels before their producers finish,
//!    enabled by command-queue reordering ([`bm_cmdq`]);
//! 2. **Launch-time static analysis** — extracting per-thread-block
//!    read/write sets from PTX at kernel-launch time ([`bm_ptx::absint`])
//!    and intersecting them into bipartite inter-kernel dependency graphs
//!    ([`bm_depgraph`]);
//! 3. **Hardware dependency resolution** — a dependency-list buffer and
//!    parent-counter buffer in the TB scheduler ([`hw`]) dynamically
//!    release consumer TBs the moment their producer TBs complete.
//!
//! The [`engine`] runs applications under the paper's execution modes
//! (baseline, ideal, pre-launch only, producer priority, consumer
//! priority), [`correctness`] proves schedules architecturally invisible,
//! and [`compare`] models the CUDA Dynamic Parallelism and Wireframe
//! comparison points of Fig. 14.
//!
//! Every run goes through [`run`]: a [`RunSpec`] picks the mode, hazard
//! tracking, the soundness [`guard`], the analysis budget, injected
//! faults, kernels analyzed elsewhere, checkpointing and cancellation.
//!
//! ```
//! use blockmaestro::{run, ExecMode, RunSpec};
//! use bm_simt::GpuConfig;
//! use bm_trace::NullTracer;
//! # use bm_cmdq::{ApiCall, Application};
//! # use bm_ptx::{parser::parse_kernel, kernel::{ArgValue, Dim3, Launch}};
//! # use bm_ptx::mem::AddressSpace;
//! # use std::{collections::HashMap, sync::Arc};
//! # let mut space = AddressSpace::new();
//! # let a = space.alloc(1024);
//! # let b = space.alloc(1024);
//! # let k = Arc::new(parse_kernel(
//! #   ".entry k(.param .u64 X, .param .u64 Y) {
//! #      ld.param.u64 %rd1, [X]; ld.param.u64 %rd2, [Y];
//! #      mov.u32 %r1, %ctaid.x; mov.u32 %r2, %ntid.x; mov.u32 %r3, %tid.x;
//! #      mad.lo.u32 %r4, %r1, %r2, %r3;
//! #      mul.wide.u32 %rd3, %r4, 4;
//! #      add.u64 %rd4, %rd1, %rd3; ld.global.f32 %f1, [%rd4];
//! #      add.u64 %rd5, %rd2, %rd3; st.global.f32 [%rd5], %f1;
//! #      ret; }").unwrap());
//! # let app = Application {
//! #   name: "demo".into(), space,
//! #   calls: vec![
//! #     ApiCall::KernelLaunch(Launch::new(k.clone(), Dim3::x(4), Dim3::x(64),
//! #       vec![ArgValue::Ptr(a.base), ArgValue::Ptr(b.base)])),
//! #     ApiCall::KernelLaunch(Launch::new(k, Dim3::x(4), Dim3::x(64),
//! #       vec![ArgValue::Ptr(b.base), ArgValue::Ptr(a.base)])),
//! #   ],
//! #   host_data: HashMap::new(),
//! # };
//! let cfg = GpuConfig::titan_x_pascal();
//! let baseline = run(&cfg, &app, &mut RunSpec::new(ExecMode::Baseline), &NullTracer)?;
//! // The soundness guard checks the schedule against serialized execution.
//! let mut spec = RunSpec {
//!     guard: true,
//!     ..RunSpec::new(ExecMode::ConsumerPriority { window: 2 })
//! };
//! let bm = run(&cfg, &app, &mut spec, &NullTracer)?;
//! assert!(bm.kernel_region_cycles < baseline.kernel_region_cycles);
//! # Ok::<(), blockmaestro::BmError>(())
//! ```

pub mod compare;
pub mod correctness;
pub mod degrade;
pub mod engine;
pub mod error;
pub mod faults;
pub mod guard;
pub mod hw;
pub mod jit;
pub mod modes;
mod run;
pub mod snapshot;
pub mod streams;

pub use bm_ptx::cancel::CancelToken;
pub use bm_ptx::par::ParallelConfig;
pub use correctness::{check_no_races, check_schedule, Equivalence, Race};
pub use degrade::{
    AnalysisBudget, AnalysisCache, CacheStats, CachedAnalysis, Degradation, DegradationReason,
    DegradationRung, PressureEvent,
};
pub use engine::{
    host_plan_traced, try_run_analyzed, try_run_analyzed_checkpointed, CheckpointSession,
    DeviceStats, MultiStats, RunReport,
};
pub use error::{BmError, EngineError};
pub use faults::{
    corrupt_access_set, corrupt_pattern, random_plan, FaultClass, FaultPlan, FaultRng,
};
pub use guard::{
    verify_by_conflict_order, verify_soundness, GuardReport, SoundnessOutcome, SoundnessViolation,
    MAX_ROUNDS,
};
pub use hw::HwError;
pub use jit::{
    jit_analyze_app, jit_analyze_app_par_stats, scratch_memory, try_jit_analyze_app,
    try_jit_analyze_app_par_traced, JitKernel, LaunchProfile, TraceMemoStats,
};
pub use modes::ExecMode;
pub use run::{run, try_run_app, RunSpec};
pub use snapshot::{
    app_fingerprint, atomic_write, atomic_write_counted, manifest, CheckpointPolicy, DirStore,
    FsyncStats, MemStore, RunSnapshot, SnapshotError, SnapshotStore, FORMAT_VERSION, SNAPSHOT_FILE,
};
pub use streams::{run_streams, StreamAssignment};
