//! # bm-simt — GPU SIMT simulator substrate
//!
//! The paper evaluates BlockMaestro on GPGPU-Sim; this crate is the Rust
//! substitute: a two-level simulator that captures the phenomena the
//! paper's results rest on.
//!
//! * [`timing`] — a warp-level single-SM model with greedy-then-oldest
//!   (GTO) issue, memory latency, per-SM DRAM-bandwidth shares, and
//!   barriers. It replays the dynamic traces from [`bm_ptx::trace`] to
//!   derive per-thread-block durations and memory-transaction counts.
//! * [`des`] — a thread-block-granularity discrete-event engine owning
//!   time and SM resources (TB slots / threads / shared memory). Policies
//!   (baseline serialization, BlockMaestro pre-launching, CDP, Wireframe)
//!   plug in through the [`des::TbSource`] trait.
//! * [`config`] — the Titan X Pascal-like configuration of §IV-A
//!   (28 SMs × 32 TBs, 5 µs kernel launch overhead, 1 GHz ⇒ 1 cycle = 1 ns).
//! * [`stats`] — box plots, geomeans, speedups for the evaluation figures.

pub mod config;
pub mod des;
pub mod stats;
pub mod timing;

pub use config::{GpuConfig, ParallelConfig};
pub use des::{
    try_run_traced, BoundedOutcome, DeadlockSnapshot, DesCheckpoint, DesEngine, DesError, DesStats,
    DesView, StepOutcome, TbDescriptor, TbKey, TbSource,
};
pub use timing::{simulate_sm, SmTiming};
