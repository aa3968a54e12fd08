//! Accept/reject tests for the affine per-TB memoization fast path.
//!
//! The fast path must be *transparent*: whatever it decides, the resulting
//! `KernelAccess` must be bit-identical to the reference pipeline
//! (`ParallelConfig::reference()`, which interprets every TB). These tests
//! pin down both sides:
//!
//! * accept — contiguous per-TB laws (vecadd, multi-array, clamped
//!   stencils) under the union check, and gapped laws (strided slices,
//!   NW's tile diagonals) under the translation certificate, synthesize
//!   most TBs and still match the reference exactly;
//! * reject — gapped laws whose unsampled TBs write into a gap or swap
//!   slices, guarded "liar" TBs, data-dependent addresses, small grids,
//!   and 2-D grids all fall back to full interpretation (and still match
//!   the reference exactly).

use bm_ptx::absint::try_analyze_launch_fueled_par;
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::par::ParallelConfig;
use bm_ptx::parser::parse_kernel;
use std::sync::Arc;

const VECADD: &str = r#"
.entry vecadd(.param .u64 A, .param .u64 B, .param .u64 C, .param .u32 n)
{
  ld.param.u64 %rd1, [A];
  ld.param.u64 %rd2, [B];
  ld.param.u64 %rd3, [C];
  ld.param.u32 %r9, [n];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mad.lo.u32 %r4, %r1, %r2, %r3;
  setp.ge.u32 %p1, %r4, %r9;
  @%p1 bra $DONE;
  mul.wide.u32 %rd4, %r4, 4;
  add.u64 %rd5, %rd1, %rd4;
  ld.global.f32 %f1, [%rd5];
  add.u64 %rd6, %rd2, %rd4;
  ld.global.f32 %f2, [%rd6];
  add.f32 %f3, %f1, %f2;
  add.u64 %rd7, %rd3, %rd4;
  st.global.f32 [%rd7], %f3;
$DONE:
  ret;
}
"#;

/// `OUT[i] = IN[min(i + s, n - 1)]`: interior TBs follow one affine law,
/// the last TBs clamp (which is why boundary TBs are always interpreted).
const SHIFT_CLAMP: &str = r#"
.entry shift(.param .u64 IN, .param .u64 OUT, .param .u32 n, .param .u32 s)
{
  ld.param.u64 %rd1, [IN];
  ld.param.u64 %rd2, [OUT];
  ld.param.u32 %r9, [n];
  ld.param.u32 %r10, [s];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mad.lo.u32 %r4, %r1, %r2, %r3;
  setp.ge.u32 %p1, %r4, %r9;
  @%p1 bra $DONE;
  add.u32 %r5, %r4, %r10;
  sub.u32 %r6, %r9, 1;
  min.u32 %r5, %r5, %r6;
  mul.wide.u32 %rd3, %r5, 4;
  add.u64 %rd4, %rd1, %rd3;
  ld.global.f32 %f1, [%rd4];
  mul.wide.u32 %rd5, %r4, 4;
  add.u64 %rd6, %rd2, %rd5;
  st.global.f32 [%rd6], %f1;
$DONE:
  ret;
}
"#;

/// Every TB writes block `2 * ctaid`, leaving every odd block untouched:
/// the per-TB law is affine but the interior union has gaps, so the union
/// check rejects it and the translation certificate accepts it.
const STRIDED_GAPS: &str = r#"
.entry strided(.param .u64 OUT)
{
  ld.param.u64 %rd1, [OUT];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mul.lo.u32 %r5, %r1, 2;
  mad.lo.u32 %r4, %r5, %r2, %r3;
  mul.wide.u32 %rd2, %r4, 4;
  add.u64 %rd3, %rd1, %rd2;
  st.global.u32 [%rd3], %r3;
  ret;
}
"#;

/// `STRIDED_GAPS` plus a store guarded on `ctaid == 37` into the gap after
/// block 37's own slice. The guard refines `%ctaid.x` to the empty interval
/// in every other TB, so only block 37's interpreted set holds the extra
/// slice — and 37 is not a sampled TB of a 128-TB grid.
const GAP_WRITER: &str = r#"
.entry gapwriter(.param .u64 OUT)
{
  ld.param.u64 %rd1, [OUT];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mul.lo.u32 %r5, %r1, 2;
  mad.lo.u32 %r4, %r5, %r2, %r3;
  mul.wide.u32 %rd2, %r4, 4;
  add.u64 %rd3, %rd1, %rd2;
  st.global.u32 [%rd3], %r3;
  setp.eq.u32 %p1, %r1, 37;
  @%p1 bra $GAP;
  ret;
$GAP:
  mul.lo.u32 %r6, %r1, 2;
  add.u32 %r6, %r6, 1;
  mad.lo.u32 %r7, %r6, %r2, %r3;
  mul.wide.u32 %rd4, %r7, 4;
  add.u64 %rd5, %rd1, %rd4;
  st.global.u32 [%rd5], %r3;
  ret;
}
"#;

/// `STRIDED_GAPS` with the unsampled blocks 37 and 41 writing each other's
/// slices: the interior union is unchanged, only attribution moves.
const SLICE_SWAP: &str = r#"
.entry swap(.param .u64 OUT)
{
  ld.param.u64 %rd1, [OUT];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  setp.eq.u32 %p1, %r1, 37;
  @%p1 bra $S37;
  setp.eq.u32 %p2, %r1, 41;
  @%p2 bra $S41;
  mov.u32 %r6, %r1;
  bra $GO;
$S37:
  add.u32 %r6, %r1, 4;
  bra $GO;
$S41:
  sub.u32 %r6, %r1, 4;
$GO:
  mul.lo.u32 %r5, %r6, 2;
  mad.lo.u32 %r4, %r5, %r2, %r3;
  mul.wide.u32 %rd2, %r4, 4;
  add.u64 %rd3, %rd1, %rd2;
  st.global.u32 [%rd3], %r3;
  ret;
}
"#;

/// NW's tile step (`bm-workloads`' `nw.rs`) without its wavefront loop:
/// block `b` of a `B × B`-thread grid owns tile `(rb + b, cb - b)` of a
/// `cols`-column score matrix, reads the cell's up-left, up and left
/// neighbours plus the reference score, and writes the cell. A tile spans
/// `B` rows, so each block's sets are one range per array that leaves a
/// gap of `cols - 2B + 1` cells before the next block's tile.
const NW_TILE: &str = r#"
.entry nwtile(.param .u64 ITEMS, .param .u64 REF, .param .u32 cols,
              .param .u32 bs, .param .u32 rb, .param .u32 cb)
{
  ld.param.u64 %rd1, [ITEMS];
  ld.param.u64 %rd2, [REF];
  ld.param.u32 %r20, [cols];
  ld.param.u32 %r21, [bs];
  ld.param.u32 %r22, [rb];
  ld.param.u32 %r23, [cb];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r3, %tid.x;
  div.u32 %r5, %r3, %r21;
  rem.u32 %r6, %r3, %r21;
  add.u32 %r7, %r22, %r1;
  sub.u32 %r8, %r23, %r1;
  mul.lo.u32 %r9, %r7, %r21;
  add.u32 %r9, %r9, 1;
  add.u32 %r9, %r9, %r5;
  mul.lo.u32 %r10, %r8, %r21;
  add.u32 %r10, %r10, 1;
  add.u32 %r10, %r10, %r6;
  mad.lo.u32 %r11, %r9, %r20, %r10;
  mul.wide.u32 %rd3, %r11, 4;
  add.u64 %rd4, %rd1, %rd3;
  add.u64 %rd5, %rd2, %rd3;
  sub.u32 %r12, %r11, %r20;
  mul.wide.u32 %rd6, %r12, 4;
  add.u64 %rd7, %rd1, %rd6;
  ld.global.f32 %f1, [%rd7-4];
  ld.global.f32 %f2, [%rd5];
  add.f32 %f3, %f1, %f2;
  ld.global.f32 %f4, [%rd7];
  max.f32 %f5, %f3, %f4;
  ld.global.f32 %f6, [%rd4-4];
  max.f32 %f7, %f5, %f6;
  st.global.f32 [%rd4], %f7;
  ret;
}
"#;

/// Vecadd plus a store guarded on `ctaid == 37`. Under the interval
/// domain a per-TB analysis cannot prune a predicated branch, so the
/// guarded store joins into *every* TB's write set — making it
/// translation-uniform (delta 0) and therefore honestly predictable.
const GUARDED: &str = r#"
.entry guarded(.param .u64 A, .param .u64 C, .param .u32 n)
{
  ld.param.u64 %rd1, [A];
  ld.param.u64 %rd3, [C];
  ld.param.u32 %r9, [n];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mad.lo.u32 %r4, %r1, %r2, %r3;
  mul.wide.u32 %rd4, %r4, 4;
  add.u64 %rd5, %rd1, %rd4;
  ld.global.f32 %f1, [%rd5];
  add.u64 %rd7, %rd3, %rd4;
  st.global.f32 [%rd7], %f1;
  setp.eq.u32 %p2, %r1, 37;
  @%p2 bra $EXTRA;
  ret;
$EXTRA:
  mul.wide.u32 %rd8, %r9, 8;
  add.u64 %rd9, %rd3, %rd8;
  st.global.u32 [%rd9], %r3;
  ret;
}
"#;

/// Each TB writes block `ctaid * ctaid`: the anchor TBs 1, 2, 3 see
/// deltas of 3 and 5 blocks, so the affine model fails at derivation.
const QUADRATIC: &str = r#"
.entry quadratic(.param .u64 OUT)
{
  ld.param.u64 %rd1, [OUT];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mul.lo.u32 %r5, %r1, %r1;
  mad.lo.u32 %r4, %r5, %r2, %r3;
  mul.wide.u32 %rd2, %r4, 4;
  add.u64 %rd3, %rd1, %rd2;
  st.global.u32 [%rd3], %r3;
  ret;
}
"#;

/// Each TB writes block `min(ctaid, 400)`: the deviation starts above the
/// largest sampled TB (384 for a 512-TB grid), so sampling misses it and
/// the span certificate — which guarantees the *union*, not per-TB
/// attribution — accepts. This is the documented residual gap (DESIGN §8):
/// per-TB sets may be approximate, but the kernel-level union must remain
/// an over-approximation, and the runtime soundness guard backstops the
/// per-TB attribution.
const INTERIOR_CLAMP: &str = r#"
.entry clamp400(.param .u64 OUT)
{
  ld.param.u64 %rd1, [OUT];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  min.u32 %r5, %r1, 400;
  mad.lo.u32 %r4, %r5, %r2, %r3;
  mul.wide.u32 %rd2, %r4, 4;
  add.u64 %rd3, %rd1, %rd2;
  st.global.u32 [%rd3], %r3;
  ret;
}
"#;

/// Store address loaded from memory: non-static in any configuration.
const GATHER: &str = r#"
.entry gather(.param .u64 IDX, .param .u64 OUT)
{
  ld.param.u64 %rd1, [IDX];
  ld.param.u64 %rd2, [OUT];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mad.lo.u32 %r4, %r1, %r2, %r3;
  mul.wide.u32 %rd3, %r4, 4;
  add.u64 %rd4, %rd1, %rd3;
  ld.global.u32 %r5, [%rd4];
  mul.wide.u32 %rd5, %r5, 4;
  add.u64 %rd6, %rd2, %rd5;
  st.global.u32 [%rd6], %r3;
  ret;
}
"#;

fn vecadd_launch(tbs: u32) -> Launch {
    let kernel = Arc::new(parse_kernel(VECADD).unwrap());
    Launch::new(
        kernel,
        Dim3::x(tbs),
        Dim3::x(256),
        vec![
            ArgValue::Ptr(0x10000),
            ArgValue::Ptr(0x200000),
            ArgValue::Ptr(0x400000),
            ArgValue::U32(tbs * 256),
        ],
    )
}

/// Analyzes `launch` under `par` with effectively unlimited fuel.
fn analyze(launch: &Launch, par: &ParallelConfig) -> (bm_ptx::access::KernelAccess, AbsintStats) {
    let mut fuel = u64::MAX;
    try_analyze_launch_fueled_par(launch, &mut fuel, par)
        .expect("valid launch")
        .expect("enough fuel")
}

use bm_ptx::absint::AbsintStats;

/// Runs the reference and the affine pipeline on `launch`, asserts the
/// access sets are bit-identical, and returns the affine-side stats.
fn assert_transparent(launch: &Launch) -> AbsintStats {
    let (reference, ref_stats) = analyze(launch, &ParallelConfig::reference());
    assert!(!ref_stats.affine_attempted);
    let (affine, stats) = analyze(launch, &ParallelConfig::serial());
    assert_eq!(
        affine, reference,
        "affine pipeline diverged from the reference"
    );
    stats
}

#[test]
fn accepts_contiguous_vecadd() {
    let stats = assert_transparent(&vecadd_launch(512));
    assert!(stats.affine_attempted);
    assert!(stats.affine_accepted);
    assert!(stats.tbs_synthesized > 0);
    // Anchors, boundaries, and sample TBs are interpreted; the bulk is not.
    assert!(stats.tbs_interpreted < 40, "{stats:?}");
    assert_eq!(stats.tbs_interpreted + stats.tbs_synthesized, 512);
}

#[test]
fn accepts_multi_array_different_bases() {
    // Same kernel, three arrays at unrelated bases: deltas are derived per
    // range, so mixed bases must not confuse the model.
    let stats = assert_transparent(&vecadd_launch(96));
    assert!(stats.affine_accepted);
    assert!(stats.tbs_synthesized > 0);
}

#[test]
fn accepts_boundary_clamped_stencil() {
    let kernel = Arc::new(parse_kernel(SHIFT_CLAMP).unwrap());
    let tbs = 64u32;
    let launch = Launch::new(
        kernel,
        Dim3::x(tbs),
        Dim3::x(64),
        vec![
            ArgValue::Ptr(0x10000),
            ArgValue::Ptr(0x800000),
            ArgValue::U32(tbs * 64),
            ArgValue::U32(17),
        ],
    );
    let stats = assert_transparent(&launch);
    assert!(stats.affine_accepted, "{stats:?}");
    assert!(stats.tbs_synthesized > 0);
}

/// A 128-TB launch of `src` whose only argument is the output buffer.
fn out_only_launch(src: &str) -> Launch {
    let kernel = Arc::new(parse_kernel(src).unwrap());
    Launch::new(
        kernel,
        Dim3::x(128),
        Dim3::x(64),
        vec![ArgValue::Ptr(0x10000)],
    )
}

#[test]
fn accepts_strided_gapped_union() {
    let stats = assert_transparent(&out_only_launch(STRIDED_GAPS));
    assert!(stats.affine_attempted);
    assert!(
        stats.affine_accepted,
        "the translation certificate must accept a gapped law: {stats:?}"
    );
    assert!(stats.tbs_interpreted < 128, "{stats:?}");
}

#[test]
fn accepts_nw_tile_diagonal() {
    let kernel = Arc::new(parse_kernel(NW_TILE).unwrap());
    let (bs, cols) = (16u32, 2049u32);
    let items = 0x10_0000u64;
    let reference = 0x200_0000u64;
    let launch = Launch::new(
        kernel,
        Dim3::x(100),
        Dim3::x(bs * bs),
        vec![
            ArgValue::Ptr(items),
            ArgValue::Ptr(reference),
            ArgValue::U32(cols),
            ArgValue::U32(bs),
            ArgValue::U32(20),
            ArgValue::U32(110),
        ],
    );
    let (full, _) = analyze(&launch, &ParallelConfig::reference());
    // Neighbouring tiles leave a gap the union check's hull would cover.
    let end_1 = full.per_tb[1].writes.bounds().unwrap().1;
    let start_2 = full.per_tb[2].writes.bounds().unwrap().0;
    assert!(end_1 < start_2, "tile diagonal writes must be gapped");
    let stats = assert_transparent(&launch);
    assert!(stats.affine_accepted, "{stats:?}");
    assert!(stats.tbs_interpreted <= 20, "{stats:?}");
    assert_eq!(stats.tbs_interpreted + stats.tbs_synthesized, 100);
}

#[test]
fn rejects_gapped_law_with_unsampled_gap_write() {
    let launch = out_only_launch(GAP_WRITER);
    let (full, _) = analyze(&launch, &ParallelConfig::reference());
    // Block 37 alone also writes the gap slice after its own.
    let slice = |b: u64| 0x10000 + b * 64 * 4;
    assert_eq!(full.per_tb[37].writes.ranges(), &[(slice(74), slice(76))]);
    let stats = assert_transparent(&launch);
    assert!(stats.affine_attempted);
    assert!(!stats.affine_accepted, "{stats:?}");
    assert_eq!(stats.tbs_interpreted, 128);
}

#[test]
fn rejects_gapped_law_with_unsampled_slice_swap() {
    let launch = out_only_launch(SLICE_SWAP);
    let (full, _) = analyze(&launch, &ParallelConfig::reference());
    let slice = |b: u64| (0x10000 + b * 64 * 4, 0x10000 + (b + 1) * 64 * 4);
    assert_eq!(full.per_tb[37].writes.ranges(), &[slice(82)]);
    assert_eq!(full.per_tb[41].writes.ranges(), &[slice(74)]);
    let stats = assert_transparent(&launch);
    assert!(stats.affine_attempted);
    assert!(!stats.affine_accepted, "{stats:?}");
    assert_eq!(stats.tbs_interpreted, 128);
}

#[test]
fn guarded_store_is_uniform_and_accepted() {
    let kernel = Arc::new(parse_kernel(GUARDED).unwrap());
    let tbs = 512u32;
    let launch = Launch::new(
        kernel,
        Dim3::x(tbs),
        Dim3::x(256),
        vec![
            ArgValue::Ptr(0x10000),
            ArgValue::Ptr(0x400000),
            ArgValue::U32(tbs * 256),
        ],
    );
    // The guarded store lands in every TB's write set under the interval
    // domain (with delta 0), so the model stays bit-exact.
    let stats = assert_transparent(&launch);
    assert!(stats.affine_accepted, "{stats:?}");
    assert!(stats.tbs_synthesized > 0);
}

#[test]
fn rejects_nonlinear_address_at_derivation() {
    let kernel = Arc::new(parse_kernel(QUADRATIC).unwrap());
    let launch = Launch::new(
        kernel,
        Dim3::x(64),
        Dim3::x(64),
        vec![ArgValue::Ptr(0x10000)],
    );
    let stats = assert_transparent(&launch);
    assert!(stats.affine_attempted);
    assert!(!stats.affine_accepted, "quadratic law must fail derivation");
    assert_eq!(stats.tbs_interpreted, 64);
}

#[test]
fn residual_gap_union_remains_sound() {
    let kernel = Arc::new(parse_kernel(INTERIOR_CLAMP).unwrap());
    let launch = Launch::new(
        kernel,
        Dim3::x(512),
        Dim3::x(64),
        vec![ArgValue::Ptr(0x10000)],
    );
    let (reference, _) = analyze(&launch, &ParallelConfig::reference());
    let (affine, stats) = analyze(&launch, &ParallelConfig::serial());
    if stats.affine_accepted {
        // Sampling missed the interior clamp: per-TB attribution may be
        // approximate, but the kernel-level unions must still cover the
        // reference's (the span certificate's actual guarantee).
        assert!(reference.kernel_reads.is_subset_of(&affine.kernel_reads));
        assert!(reference.kernel_writes.is_subset_of(&affine.kernel_writes));
        assert_eq!(affine.non_static, reference.non_static);
    } else {
        // If a future sampling scheme catches the clamp, the fallback must
        // be bit-exact.
        assert_eq!(affine, reference);
    }
}

#[test]
fn non_static_gather_matches_reference() {
    let kernel = Arc::new(parse_kernel(GATHER).unwrap());
    let launch = Launch::new(
        kernel,
        Dim3::x(64),
        Dim3::x(64),
        vec![ArgValue::Ptr(0x10000), ArgValue::Ptr(0x800000)],
    );
    let (reference, _) = analyze(&launch, &ParallelConfig::reference());
    assert!(reference.non_static);
    let (affine, stats) = analyze(&launch, &ParallelConfig::serial());
    assert_eq!(affine, reference);
    assert!(!stats.affine_accepted);
}

#[test]
fn skips_small_grids() {
    let stats = assert_transparent(&vecadd_launch(16));
    assert!(!stats.affine_attempted, "below AFFINE_MIN_TBS");
    assert_eq!(stats.tbs_interpreted, 16);
}

#[test]
fn skips_2d_grids() {
    let kernel = Arc::new(parse_kernel(VECADD).unwrap());
    let launch = Launch::new(
        kernel,
        Dim3::xy(32, 2),
        Dim3::x(64),
        vec![
            ArgValue::Ptr(0x10000),
            ArgValue::Ptr(0x200000),
            ArgValue::Ptr(0x400000),
            ArgValue::U32(32 * 2 * 64),
        ],
    );
    let stats = assert_transparent(&launch);
    assert!(!stats.affine_attempted, "affine law is 1-D only");
}
