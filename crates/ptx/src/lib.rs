//! # bm-ptx — mini-PTX toolchain for the BlockMaestro reproduction
//!
//! A self-contained PTX-like intermediate representation with everything the
//! paper's kernel-launch-time machinery needs:
//!
//! * an [`isa`] mirroring the address-arithmetic subset of NVIDIA PTX,
//!   including the SIMT special registers (`%tid`, `%ctaid`, `%ntid`,
//!   `%nctaid`) and predicated branches;
//! * a [`parser`] for the textual form (and a canonical printer);
//! * a functional [`interp`]reter used to validate workloads and to check
//!   that BlockMaestro's overlapped schedules preserve program results;
//! * [`taint`]: Algorithm 1's backward address-origin slice;
//! * [`absint`]: per-thread-block value-range analysis producing the
//!   read/write sets that inter-kernel dependency graphs are built from;
//! * [`trace`]: dynamic warp traces feeding the `bm-simt` timing model;
//! * [`par`]: the [`ParallelConfig`] the whole analysis pipeline shares:
//!   memoized fast paths on or off, and a cancellation token.
//!
//! ## Example: extract per-TB write sets at launch time
//!
//! ```
//! use bm_ptx::{absint, kernel::{ArgValue, Dim3, Launch}, parser};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), bm_ptx::parser::ParseError> {
//! let kernel = Arc::new(parser::parse_kernel(
//!     ".entry scale(.param .u64 A) {
//!        ld.param.u64 %rd1, [A];
//!        mov.u32 %r1, %ctaid.x;
//!        mov.u32 %r2, %ntid.x;
//!        mov.u32 %r3, %tid.x;
//!        mad.lo.u32 %r4, %r1, %r2, %r3;
//!        mad.wide.u32 %rd2, %r4, 4, %rd1;
//!        st.global.f32 [%rd2], 0f3F800000;
//!        ret;
//!      }",
//! )?);
//! let launch = Launch::new(kernel, Dim3::x(4), Dim3::x(64),
//!                          vec![ArgValue::Ptr(0x7f00_0000_0000)]);
//! let access = absint::analyze_launch(&launch);
//! assert!(!access.non_static);
//! assert_eq!(access.per_tb.len(), 4);
//! # Ok(())
//! # }
//! ```

pub mod absint;
pub mod access;
pub mod cancel;
pub mod cfg;
pub mod error;
pub mod interp;
pub mod interval;
pub mod isa;
pub mod kernel;
pub mod lexer;
pub mod mem;
pub mod par;
pub mod parser;
pub mod print;
pub mod taint;
pub mod trace;

pub use access::{KernelAccess, RangeSet, TbAccess};
pub use cancel::{CancelCause, CancelToken};
pub use error::PtxError;
pub use kernel::{ArgValue, Dim3, Kernel, Launch, Param};
pub use mem::{AddressSpace, AllocId, AllocInfo, GlobalMem};
pub use par::ParallelConfig;
