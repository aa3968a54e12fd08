//! Crate-level typed error for the PTX toolchain.
//!
//! The individual passes keep their precise error types
//! ([`crate::parser::ParseError`], [`crate::interp::ExecError`]);
//! [`PtxError`] is the umbrella that fallible pipeline entry points
//! ([`crate::absint::try_analyze_launch`],
//! [`crate::interp::try_execute_launch`]) return so callers can propagate
//! one error type through a whole toolchain run.

use crate::cancel::CancelCause;
use crate::interp::ExecError;
use crate::parser::ParseError;
use std::fmt;

/// Any failure of the PTX toolchain: parsing, launch validation, or
/// functional execution.
#[derive(Debug, Clone, PartialEq)]
pub enum PtxError {
    /// Source text failed to parse.
    Parse(ParseError),
    /// A launch is malformed independent of the kernel's behavior
    /// (argument/parameter arity mismatch, zero-thread blocks).
    BadLaunch {
        /// Kernel name.
        kernel: String,
        /// What was wrong.
        reason: String,
    },
    /// Functional execution failed.
    Exec(ExecError),
    /// A cooperative [`crate::cancel::CancelToken`] fired at an analysis
    /// phase boundary; the analysis was abandoned cleanly.
    Cancelled(CancelCause),
}

impl fmt::Display for PtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtxError::Parse(e) => write!(f, "parse error: {e}"),
            PtxError::BadLaunch { kernel, reason } => {
                write!(f, "invalid launch of `{kernel}`: {reason}")
            }
            PtxError::Exec(e) => write!(f, "execution error: {e}"),
            PtxError::Cancelled(cause) => write!(f, "analysis {cause}"),
        }
    }
}

impl std::error::Error for PtxError {}

impl From<ParseError> for PtxError {
    fn from(e: ParseError) -> Self {
        PtxError::Parse(e)
    }
}

impl From<ExecError> for PtxError {
    fn from(e: ExecError) -> Self {
        PtxError::Exec(e)
    }
}

/// Checks structural launch invariants shared by every fallible entry
/// point: the argument list must match the kernel's parameter list and
/// thread blocks must contain at least one thread. (Zero-block grids are
/// legal — CUDA rejects them, but degenerate grids must flow through the
/// analysis pipeline without tripping it.)
pub fn validate_launch(launch: &crate::kernel::Launch) -> Result<(), PtxError> {
    let kernel = &launch.kernel;
    if launch.args.len() != kernel.params.len() {
        return Err(PtxError::BadLaunch {
            kernel: kernel.name.clone(),
            reason: format!(
                "{} arguments for {} parameters",
                launch.args.len(),
                kernel.params.len()
            ),
        });
    }
    if launch.threads_per_block() == 0 {
        return Err(PtxError::BadLaunch {
            kernel: kernel.name.clone(),
            reason: "zero threads per block".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArgValue, Dim3, Launch};
    use crate::parser::parse_kernel;
    use std::sync::Arc;

    fn kernel() -> Arc<crate::kernel::Kernel> {
        Arc::new(parse_kernel(".entry k(.param .u64 A) { ld.param.u64 %rd1, [A]; ret; }").unwrap())
    }

    #[test]
    fn arity_mismatch_is_bad_launch() {
        // Bypass the asserting constructor: this models metadata corrupted
        // after construction, which validate_launch must still reject.
        let l = Launch {
            kernel: kernel(),
            grid: Dim3::x(1),
            block: Dim3::x(32),
            args: vec![],
        };
        let err = validate_launch(&l).unwrap_err();
        assert!(matches!(err, PtxError::BadLaunch { .. }), "{err}");
        assert!(err.to_string().contains("0 arguments for 1 parameters"));
        assert!(Launch::try_new(kernel(), Dim3::x(1), Dim3::x(32), vec![]).is_err());
    }

    #[test]
    fn zero_thread_block_is_bad_launch() {
        let l = Launch::new(
            kernel(),
            Dim3::x(1),
            Dim3 { x: 0, y: 1, z: 1 },
            vec![ArgValue::Ptr(0x1000)],
        );
        assert!(validate_launch(&l).is_err());
    }

    #[test]
    fn zero_block_grid_is_allowed() {
        let l = Launch::new(
            kernel(),
            Dim3 { x: 0, y: 1, z: 1 },
            Dim3::x(32),
            vec![ArgValue::Ptr(0x1000)],
        );
        assert!(validate_launch(&l).is_ok());
    }

    #[test]
    fn error_conversions_compose() {
        let parse: PtxError = parse_kernel("garbage").unwrap_err().into();
        assert!(matches!(parse, PtxError::Parse(_)));
        let exec: PtxError = ExecError::OutsideLaunch { tb: 3 }.into();
        assert!(exec.to_string().contains("outside the launch"));
    }
}
