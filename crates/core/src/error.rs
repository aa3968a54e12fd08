//! Workspace-wide typed error hierarchy for the BlockMaestro toolchain.
//!
//! [`BmError`] is the top of the tree: anything that can go wrong between
//! handing an [`bm_cmdq::Application`] to [`crate::try_run_app`] and
//! getting a [`crate::RunReport`] back is one of its variants. The layers
//! below keep their own precise types — [`bm_ptx::PtxError`] for the
//! toolchain, [`bm_cmdq::CmdqError`] for application structure,
//! [`crate::hw::HwError`] for scheduler-buffer faults, and
//! [`bm_simt::DesError`] for the simulation substrate — and `From` impls
//! lift each into `BmError` so `?` composes across the whole pipeline.

use crate::hw::HwError;
use bm_cmdq::CmdqError;
use bm_ptx::error::PtxError;
use bm_simt::des::DeadlockSnapshot;
use std::fmt;

/// A failure of one simulated execution (one [`crate::ExecMode`] run of an
/// already-analyzed application).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The discrete-event simulation reached a state with unfinished TBs
    /// but no runnable work and no pending events — the dependency
    /// metadata wedged the machine.
    Deadlock(DeadlockSnapshot),
    /// A scheduler-buffer fault (counter underflow / non-resident counter)
    /// surfaced mid-run.
    Hw {
        /// The hardware fault.
        err: HwError,
        /// Simulation cycle at which it was detected.
        cycle: u64,
    },
    /// The simulation source aborted without recording a specific cause
    /// (defensive: should not happen in practice).
    Aborted {
        /// Simulation cycle at which the abort was observed.
        cycle: u64,
    },
    /// The run was killed at a kernel-retirement boundary by a
    /// [`crate::faults::FaultClass::KillPoint`] plan — a simulated crash.
    /// The checkpoint at that boundary (when a store is configured) was
    /// captured *before* the kill fired, so the run is resumable.
    Killed {
        /// Simulation cycle of the kill boundary.
        cycle: u64,
        /// Kernels retired when the kill fired.
        retired: u32,
    },
    /// A cooperative [`bm_ptx::cancel::CancelToken`] fired (explicit
    /// cancel or deadline). When a store is configured, a final checkpoint
    /// at the last completed boundary was captured before the error
    /// surfaced, so a retried request resumes instead of restarting.
    Cancelled {
        /// Simulation cycle at which the cancellation was observed.
        cycle: u64,
        /// Kernels retired when it was observed.
        retired: u32,
        /// Why the token fired.
        cause: bm_ptx::cancel::CancelCause,
    },
    /// Simulated time would pass `u64::MAX` cycles: a kernel's per-TB
    /// duration, or the report's cycle total, is too long for the clock.
    CycleOverflow {
        /// The last simulation cycle reached.
        cycle: u64,
    },
}

impl EngineError {
    /// Cycles the simulation ran before failing — the work discarded when
    /// the run is thrown away and retried.
    pub fn cycles_wasted(&self) -> u64 {
        match self {
            EngineError::Deadlock(snap) => snap.cycle,
            EngineError::Hw { cycle, .. }
            | EngineError::Aborted { cycle }
            | EngineError::Killed { cycle, .. }
            | EngineError::Cancelled { cycle, .. }
            | EngineError::CycleOverflow { cycle } => *cycle,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Keep the "DES deadlock" prefix the panicking path always
            // printed, so wrappers preserve their observable messages.
            EngineError::Deadlock(snap) => write!(f, "DES {snap}"),
            EngineError::Hw { err, cycle } => write!(f, "at cycle {cycle}: {err}"),
            EngineError::Aborted { cycle } => {
                write!(
                    f,
                    "engine aborted at cycle {cycle} without a recorded cause"
                )
            }
            EngineError::Killed { cycle, retired } => {
                write!(
                    f,
                    "killed at cycle {cycle} after {retired} kernels retired (checkpoint boundary)"
                )
            }
            EngineError::Cancelled {
                cycle,
                retired,
                cause,
            } => {
                write!(
                    f,
                    "{cause} at cycle {cycle} after {retired} kernels retired"
                )
            }
            EngineError::CycleOverflow { cycle } => {
                write!(
                    f,
                    "simulated time passes u64::MAX cycles after cycle {cycle}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<HwError> for EngineError {
    fn from(err: HwError) -> Self {
        EngineError::Hw { err, cycle: 0 }
    }
}

/// Any failure of the full BlockMaestro pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum BmError {
    /// The PTX toolchain rejected a kernel or launch.
    Ptx(PtxError),
    /// The application's command trace is structurally invalid.
    Cmdq(CmdqError),
    /// A simulated execution failed and recovery was not attempted (or the
    /// caller asked for an unguarded run).
    Engine(EngineError),
    /// The soundness guard exhausted its recovery rounds without producing
    /// a run equivalent to serialized execution.
    Unrecoverable {
        /// Guarded rounds attempted (including the final failed one).
        rounds: u32,
        /// The failure of the last round, if the engine itself failed;
        /// `None` when the last round completed but stayed unsound.
        last: Option<EngineError>,
    },
    /// The run asked for something this execution path cannot do, such as
    /// a checkpoint store on a multi-device run. Raised before any work.
    Unsupported(&'static str),
}

impl fmt::Display for BmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmError::Ptx(e) => write!(f, "PTX toolchain: {e}"),
            BmError::Cmdq(e) => write!(f, "invalid application: {e}"),
            BmError::Engine(e) => write!(f, "execution failed: {e}"),
            BmError::Unrecoverable { rounds, last } => {
                write!(f, "unrecoverable after {rounds} guarded rounds")?;
                if let Some(e) = last {
                    write!(f, " (last failure: {e})")?;
                }
                Ok(())
            }
            BmError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for BmError {}

impl From<PtxError> for BmError {
    fn from(e: PtxError) -> Self {
        BmError::Ptx(e)
    }
}

impl From<CmdqError> for BmError {
    fn from(e: CmdqError) -> Self {
        BmError::Cmdq(e)
    }
}

impl From<EngineError> for BmError {
    fn from(e: EngineError) -> Self {
        BmError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_simt::des::TbKey;

    #[test]
    fn conversions_lift_through_the_hierarchy() {
        let key = TbKey {
            kernel_seq: 1,
            tb: 3,
        };
        let hw = HwError::CounterUnderflow { key };
        let eng: EngineError = hw.into();
        assert!(matches!(eng, EngineError::Hw { .. }));
        let bm: BmError = eng.into();
        assert!(bm.to_string().contains("zero parent counter"));
        let bm2: BmError = PtxError::BadLaunch {
            kernel: "k".into(),
            reason: "r".into(),
        }
        .into();
        assert!(matches!(bm2, BmError::Ptx(_)));
    }

    #[test]
    fn deadlock_display_keeps_des_prefix() {
        let snap = DeadlockSnapshot {
            cycle: 42,
            tbs_executed: 7,
            resident: vec![],
            diagnostics: vec![],
        };
        let e = EngineError::Deadlock(snap);
        assert!(e.to_string().starts_with("DES deadlock at cycle 42"));
        assert_eq!(e.cycles_wasted(), 42);
    }

    #[test]
    fn unrecoverable_reports_rounds() {
        let e = BmError::Unrecoverable {
            rounds: 3,
            last: None,
        };
        assert!(e.to_string().contains("after 3 guarded rounds"));
    }
}
