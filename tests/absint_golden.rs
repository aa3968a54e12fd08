//! Golden pin of the launch-time access analysis (`bm_ptx::absint`).
//!
//! Every launch of every suite app (and of VECTORADD-512) is analysed
//! under `ParallelConfig::serial()` and `ParallelConfig::reference()` at
//! several fuel budgets, and by the grouped rung; 256 seeded random
//! kernels on 1-D grids large enough for the affine path are analysed the
//! same way. Each outcome — per-TB ranges, kernel unions, `non_static`,
//! `AbsintStats` and the fuel left over — is folded into an FNV-1a digest
//! per app, and the digests are pinned. The pins were computed on the
//! analysis before its fixpoint moved to a reusable state workspace, so
//! any change of result, verdict, statistic or fuel use shows here.

#[path = "common/random_kernel.rs"]
mod random_kernel;

use bm_cmdq::Application;
use bm_ptx::absint::{try_analyze_launch_fueled_par, try_analyze_launch_grouped, AbsintStats};
use bm_ptx::access::{KernelAccess, RangeSet};
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::par::ParallelConfig;
use bm_testkit::Rng;
use bm_workloads::{suite, vectoradd, Scale};
use random_kernel::{random_kernel, DUMP, WORDS};
use std::sync::Arc;

/// The default per-kernel absint budget (`AnalysisBudget::default()`).
const DEFAULT_FUEL: u64 = 1 << 20;
/// Fuel budgets of the small-scale sweep.
const FUELS: [u64; 5] = [DEFAULT_FUEL, 3, 17, 100, 1000];
/// Grouped-rung group counts and fuel budgets.
const GROUPS: [u32; 2] = [1, 4];
const GROUP_FUELS: [u64; 2] = [u64::MAX, 10];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn ranges(&mut self, set: &RangeSet) {
        self.u64(set.len() as u64);
        for &(s, e) in set.ranges() {
            self.u64(s);
            self.u64(e);
        }
    }

    fn access(&mut self, acc: &KernelAccess) {
        self.u64(acc.per_tb.len() as u64);
        for tb in &acc.per_tb {
            self.ranges(&tb.reads);
            self.ranges(&tb.writes);
        }
        self.ranges(&acc.kernel_reads);
        self.ranges(&acc.kernel_writes);
        self.u64(acc.non_static as u64);
    }

    fn stats(&mut self, s: &AbsintStats) {
        self.u64(s.tbs_interpreted as u64);
        self.u64(s.tbs_synthesized as u64);
        self.u64(s.affine_attempted as u64);
        self.u64(s.affine_accepted as u64);
    }
}

/// Folds one per-TB analysis of `launch` under `par` with `fuel` into `h`.
fn fold_analysis(h: &mut Fnv, launch: &Launch, par: &ParallelConfig, fuel: u64) {
    let mut left = fuel;
    match try_analyze_launch_fueled_par(launch, &mut left, par).expect("valid launch") {
        None => h.u64(0),
        Some((acc, stats)) => {
            h.u64(1);
            h.access(&acc);
            h.stats(&stats);
        }
    }
    h.u64(left);
}

/// Folds one grouped-rung analysis of `launch` into `h`.
fn fold_grouped(h: &mut Fnv, launch: &Launch, groups: u32, fuel: u64) {
    let mut left = fuel;
    match try_analyze_launch_grouped(launch, groups, &mut left).expect("valid launch") {
        None => h.u64(0),
        Some(acc) => {
            h.u64(1);
            h.access(&acc);
        }
    }
    h.u64(left);
}

/// The small-scale sweep of one launch: both configurations at every fuel
/// budget, then the grouped rung.
fn fold_sweep(h: &mut Fnv, launch: &Launch) {
    for par in [ParallelConfig::serial(), ParallelConfig::reference()] {
        for fuel in FUELS {
            fold_analysis(h, launch, &par, fuel);
        }
    }
    for groups in GROUPS {
        for fuel in GROUP_FUELS {
            fold_grouped(h, launch, groups, fuel);
        }
    }
}

fn app_digest(app: &Application, each: impl Fn(&mut Fnv, &Launch)) -> u64 {
    let mut h = Fnv::new();
    for launch in app.launches() {
        each(&mut h, launch);
    }
    h.0
}

/// Compares computed digests with the pins, listing every row on a
/// mismatch so the table can be read off the failure.
fn check(label: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gn, gd), (wn, wd))| gn == wn && gd == wd);
    assert!(
        same,
        "{label}: digests differ from the pins; computed:\n{table}"
    );
}

const SMALL: [(&str, u64); 13] = [
    ("3MM", 0xbf42_2294_d41e_c86d),
    ("AlexNet", 0xd35e_600a_6c75_1da3),
    ("BICG", 0xe04a_ed0f_8414_2ef5),
    ("FDTD-2D", 0xb49c_9340_7664_d3ba),
    ("FFT", 0x7edf_2495_7986_eaa5),
    ("GAUSSIAN", 0x7b87_204f_3d11_00bd),
    ("GRAMSCHM", 0xe6a5_7779_2daf_3650),
    ("HS", 0x4632_1d6f_10b5_6e2d),
    ("LUD", 0xac0f_d8e7_91f1_4f01),
    ("MVT", 0xe04a_ed0f_8414_2ef5),
    ("NW", 0x38dc_9d57_0ba7_35b0),
    ("PATH", 0x97a3_1502_1468_b09a),
    ("VECTORADD-512", 0xc465_3905_4d2c_5a79),
];

const FULL: [(&str, u64); 12] = [
    ("3MM", 0xbd7f_2da3_2d6e_eabc),
    ("AlexNet", 0x36a2_8430_fcfb_b9f5),
    ("BICG", 0xd277_8422_c4ab_cc6a),
    ("FDTD-2D", 0xff39_4904_0fd0_7255),
    ("FFT", 0xa27c_b440_1932_66ad),
    ("GAUSSIAN", 0x1432_dcd2_72af_7ceb),
    ("GRAMSCHM", 0xc0fb_c822_2a19_b6a8),
    ("HS", 0x2a94_5718_f919_9ade),
    ("LUD", 0x1022_ffe7_be4e_63c8),
    ("MVT", 0xd277_8422_c4ab_cc6a),
    ("NW", 0xbc4c_2b64_7f18_4c49),
    ("PATH", 0x4141_4524_0990_dcc8),
];

const RANDOM: [(&str, u64); 4] = [
    ("random 0..64", 0x7f87_a49e_248d_72d6),
    ("random 64..128", 0xfeac_d9a1_c2b0_e244),
    ("random 128..192", 0x1255_39d8_b519_3b8d),
    ("random 192..256", 0xd608_b990_1920_7787),
];

#[test]
fn small_apps_match_the_pinned_digests() {
    let mut got: Vec<(String, u64)> = suite()
        .iter()
        .map(|b| {
            let app = (b.build)(Scale::Small);
            (b.name.to_string(), app_digest(&app, fold_sweep))
        })
        .collect();
    let app = vectoradd::build(512);
    got.push((app.name.clone(), app_digest(&app, fold_sweep)));
    check("small scale", &got, &SMALL);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Scale::Full: run with --release")]
fn full_scale_apps_match_the_pinned_digests() {
    let got: Vec<(String, u64)> = suite()
        .iter()
        .map(|b| {
            let app = (b.build)(Scale::Full);
            let digest = app_digest(&app, |h, launch| {
                fold_analysis(h, launch, &ParallelConfig::serial(), DEFAULT_FUEL)
            });
            (b.name.to_string(), digest)
        })
        .collect();
    check("full scale", &got, &FULL);
}

/// A random kernel on a 1-D grid of 24..=40 blocks, over a fresh space.
fn random_launch(rng: &mut Rng) -> Launch {
    let kernel = Arc::new(random_kernel(rng));
    let mut space = AddressSpace::new();
    let buf = space.alloc(4 * WORDS);
    let block = Dim3::xy(rng.range_u32(1, 70), rng.range_u32(1, 3));
    let grid = Dim3::x(rng.range_u32(24, 41));
    let out = space.alloc(4 * DUMP * block.count() * grid.count());
    Launch::new(
        kernel,
        grid,
        block,
        vec![
            ArgValue::Ptr(buf.base),
            ArgValue::U32(rng.next_u64() as u32),
            ArgValue::F32(rng.range_i64(-50, 50) as f32 * 0.75),
            ArgValue::Ptr(out.base),
        ],
    )
}

#[test]
fn random_kernels_match_the_pinned_digests() {
    let mut rng = Rng::new(0xab51_9e7d);
    let mut got = Vec::new();
    // Outcomes of the unbudgeted `serial()` analysis: affine law accepted,
    // affine law rejected, non-static.
    let mut seen = [0u32; 3];
    for (label, _) in RANDOM {
        let mut h = Fnv::new();
        for _ in 0..64 {
            let launch = random_launch(&mut rng);
            fold_sweep(&mut h, &launch);
            let mut fuel = u64::MAX;
            let (acc, stats) =
                try_analyze_launch_fueled_par(&launch, &mut fuel, &ParallelConfig::serial())
                    .expect("valid launch")
                    .expect("unbounded fuel");
            seen[if acc.non_static {
                2
            } else if stats.affine_accepted {
                0
            } else {
                1
            }] += 1;
        }
        got.push((label.to_string(), h.0));
    }
    eprintln!("random kernels: accepted, rejected, non-static = {seen:?}");
    assert!(seen.iter().all(|&n| n >= 4), "outcomes {seen:?}");
    check("random kernels", &got, &RANDOM);
}
