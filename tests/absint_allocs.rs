//! Heap allocations of the launch-time access analysis, counted by a
//! counting global allocator. The fixpoint keeps its abstract states in
//! one workspace per launch, so a thread block's analysis allocates the
//! same number of times however many times its loops iterate, and a
//! launch allocates for its results, not per fixpoint step.

use bm_ptx::absint::{analyze_block, try_analyze_launch_fueled_par};
use bm_ptx::cfg::Cfg;
use bm_ptx::isa::max_reg_counts;
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::par::ParallelConfig;
use bm_ptx::parser::parse_kernel;
use bm_workloads::{suite, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting the allocations (and reallocations) of
/// the calling thread, so tests running in parallel do not mix counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Each thread sums `n` elements of its row: a counted loop whose upper
/// bound only narrowing recovers.
const ROWSUM: &str = r#"
.entry rowsum(.param .u64 A, .param .u64 O, .param .u32 n)
{
  ld.param.u64 %rd1, [A];
  ld.param.u64 %rd2, [O];
  ld.param.u32 %r9, [n];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mad.lo.u32 %r4, %r1, %r2, %r3;
  mul.lo.u32 %r5, %r4, %r9;
  mov.u32 %r6, 0;
  mov.f32 %f1, 0f00000000;
$TOP:
  setp.ge.u32 %p1, %r6, %r9;
  @%p1 bra $OUT;
  add.u32 %r7, %r5, %r6;
  mul.wide.u32 %rd3, %r7, 4;
  add.u64 %rd4, %rd1, %rd3;
  ld.global.f32 %f2, [%rd4];
  add.f32 %f1, %f1, %f2;
  add.u32 %r6, %r6, 1;
  bra $TOP;
$OUT:
  mul.wide.u32 %rd5, %r4, 4;
  add.u64 %rd6, %rd2, %rd5;
  st.global.f32 [%rd6], %f1;
  ret;
}
"#;

#[test]
fn a_block_allocates_alike_at_every_trip_count() {
    let kernel = Arc::new(parse_kernel(ROWSUM).unwrap());
    let cfg = Cfg::build(&kernel);
    let counts = max_reg_counts(&kernel.body);
    let count = |trips: u32| {
        let launch = Launch::new(
            kernel.clone(),
            Dim3::x(2),
            Dim3::x(8),
            vec![
                ArgValue::Ptr(0x10_0000),
                ArgValue::Ptr(0x20_0000),
                ArgValue::U32(trips),
            ],
        );
        let (n, acc) = allocations(|| analyze_block(&launch, &cfg, counts, 1));
        let acc = acc.expect("static loop");
        // Block 1 reads rows 8..16 of `trips` elements each.
        let row = 4 * trips as u64;
        assert_eq!(
            acc.reads.bounds(),
            Some((0x10_0000 + 8 * row, 0x10_0000 + 16 * row))
        );
        n
    };
    let (few, many) = (count(4), count(64));
    assert_eq!(few, many, "allocations at 4 vs 64 trips");
}

/// Allocations of a `serial()` analysis of every launch of a small app, at
/// the default fuel.
fn app_allocations(name: &str) -> u64 {
    let bench = suite().into_iter().find(|b| b.name == name).unwrap();
    let app = (bench.build)(Scale::Small);
    let par = ParallelConfig::serial();
    app.launches()
        .into_iter()
        .map(|launch| {
            let mut fuel = 1 << 20;
            let (n, out) = allocations(|| try_analyze_launch_fueled_par(launch, &mut fuel, &par));
            assert!(matches!(out, Ok(Some(_))), "{name}: analysis finished");
            n
        })
        .sum()
}

/// Pinned at about 1.5x the workspace analysis's count (2,970 and 2,198);
/// the analysis that copied its abstract state per step made `before`
/// allocations.
#[test]
fn small_apps_stay_under_their_allocation_bounds() {
    for (name, bound, before) in [("GAUSSIAN", 4_500, 7_065), ("NW", 3_300, 44_702)] {
        let n = app_allocations(name);
        eprintln!("{name}: {n} allocations (bound {bound}, before the workspace {before})");
        assert!(n <= bound, "{name}: {n} allocations > {bound}");
    }
}
