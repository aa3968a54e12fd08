//! Configuration of the launch-time analysis pipeline.
//!
//! BlockMaestro's premise is that TB-level dependency analysis is cheap
//! enough to run at kernel-launch time. The pipeline runs on the calling
//! thread; what [`ParallelConfig`] selects is whether its memoized fast
//! paths may answer in place of full interpretation.
//!
//! `ParallelConfig::serial()` (fast paths on) is the configuration every
//! user path runs. `ParallelConfig::reference()` (fast paths off) interprets
//! every thread block and every representative trace; it is the oracle the
//! fast paths are property-tested against, and the two produce identical
//! analyses.

use crate::cancel::{CancelCause, CancelToken};

/// Configuration of the launch-time analysis pipeline: the memoized fast
/// paths and a cooperative cancellation token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Whether the memoized fast paths may answer instead of full
    /// interpretation: the affine per-TB access law in `bm_ptx::absint`,
    /// and in `bm-core` the cross-launch trace memo and the per-run memo
    /// that times each distinct representative trace once. The affine law
    /// is validated per launch and the trace memo per key, and a rejection
    /// falls back to full interpretation, so disabling them only costs
    /// time.
    pub fast_paths: bool,
    /// Cooperative cancellation observed at analysis phase boundaries.
    /// `None` (the default everywhere outside `bm-serve`) means no check
    /// ever fires. Only the `try_*` analysis entry points honor the
    /// token — infallible wrappers have no error channel to surface it.
    pub cancel: Option<CancelToken>,
}

impl ParallelConfig {
    /// Fast paths on: the configuration of every non-test path.
    pub fn serial() -> Self {
        ParallelConfig {
            fast_paths: true,
            cancel: None,
        }
    }

    /// Fast paths off: every TB and every representative trace fully
    /// interpreted. The oracle [`ParallelConfig::serial`] is checked
    /// against.
    pub fn reference() -> Self {
        ParallelConfig {
            fast_paths: false,
            cancel: None,
        }
    }

    /// The same configuration with `cancel` installed.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The cause of a fired cancellation token, if one is installed and
    /// has fired. Analysis stages call this at phase boundaries.
    pub fn cancel_fired(&self) -> Option<CancelCause> {
        self.cancel.as_ref().and_then(|t| t.fired())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        assert!(!ParallelConfig::reference().fast_paths);
        assert!(ParallelConfig::serial().fast_paths);
        assert_eq!(ParallelConfig::serial().cancel_fired(), None);
    }

    #[test]
    fn cancel_plumbs_through_config() {
        let token = crate::cancel::CancelToken::new();
        let par = ParallelConfig::reference().with_cancel(token.clone());
        assert_eq!(par.cancel_fired(), None);
        token.expire();
        assert_eq!(
            par.cancel_fired(),
            Some(crate::cancel::CancelCause::DeadlineExceeded)
        );
        assert_eq!(ParallelConfig::reference().cancel_fired(), None);
    }
}
