//! Soundness of the launch-time value-range analysis: for every kernel of
//! every benchmark, every global-memory address a thread block actually
//! touches during functional execution must be contained in the read/write
//! sets the abstract interpreter computed for that block. (Precision is
//! tested elsewhere; this test is about never *missing* an access, which
//! is what correctness of the dependency graphs rests on.)

use bm_ptx::absint::{analyze_launch, try_analyze_launch_fueled_par};
use bm_ptx::interp::{execute_block, ExecObserver, ThreadId};
use bm_ptx::isa::Op;
use bm_ptx::par::ParallelConfig;
use bm_workloads::{suite, Scale};

#[derive(Default)]
struct AccessLog {
    reads: Vec<u64>,
    writes: Vec<u64>,
}

impl ExecObserver for AccessLog {
    fn on_inst(&mut self, _t: ThreadId, _i: usize, _op: &Op) {}
    fn on_global_access(&mut self, _t: ThreadId, _i: usize, addr: u64, store: bool) {
        if store {
            self.writes.push(addr);
        } else {
            self.reads.push(addr);
        }
    }
}

#[test]
fn analyzed_sets_cover_every_functional_access() {
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        let mut mem = app.initial_memory();
        for (ki, launch) in app.launches().iter().enumerate() {
            let access = analyze_launch(launch);
            for tb in 0..launch.num_blocks() {
                let mut log = AccessLog::default();
                execute_block(launch, tb, &mut mem, &mut log)
                    .unwrap_or_else(|e| panic!("{} kernel {ki}: {e}", bench.name));
                if access.non_static {
                    continue; // conservative kernels make no claims
                }
                let sets = &access.per_tb[tb as usize];
                for &addr in &log.reads {
                    assert!(
                        sets.reads.contains(addr),
                        "{} kernel {ki} TB{tb}: read {addr:#x} outside analyzed set {}",
                        bench.name,
                        sets.reads
                    );
                }
                for &addr in &log.writes {
                    assert!(
                        sets.writes.contains(addr),
                        "{} kernel {ki} TB{tb}: write {addr:#x} outside analyzed set {}",
                        bench.name,
                        sets.writes
                    );
                }
            }
        }
    }
}

#[test]
fn analysis_is_not_vacuously_conservative() {
    // At least three quarters of all kernels across the suite must be
    // statically analyzable (no taint bail-out) — the paper's whole point
    // is that real multi-kernel apps expose static access patterns.
    let mut total = 0usize;
    let mut static_ok = 0usize;
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        for launch in app.launches() {
            total += 1;
            if !analyze_launch(launch).non_static {
                static_ok += 1;
            }
        }
    }
    assert!(
        static_ok * 4 >= total * 3,
        "only {static_ok}/{total} kernels statically analyzable"
    );
}

#[test]
fn per_tb_sets_are_reasonably_tight() {
    // Precision guard: for the embarrassingly-parallel benchmarks, a TB's
    // analyzed write set must not be more than 4x the bytes it actually
    // writes (hulls may round up, but must not blow up to whole buffers).
    for name in ["BICG", "MVT", "HS", "PATH"] {
        let bench = suite().into_iter().find(|b| b.name == name).unwrap();
        let app = (bench.build)(Scale::Small);
        let mut mem = app.initial_memory();
        for launch in app.launches() {
            let access = analyze_launch(launch);
            assert!(!access.non_static, "{name} should be static");
            for tb in 0..launch.num_blocks() {
                let mut log = AccessLog::default();
                execute_block(launch, tb, &mut mem, &mut log).unwrap();
                log.writes.sort_unstable();
                log.writes.dedup();
                let actual = 4 * log.writes.len() as u64;
                let claimed = access.per_tb[tb as usize].writes.total_bytes();
                if actual > 0 {
                    assert!(
                        claimed <= actual * 4,
                        "{name} TB{tb}: claimed {claimed}B vs actual {actual}B"
                    );
                }
            }
        }
    }
}

/// NW's tile diagonals leave a gap between neighbouring blocks' sets that
/// only the affine law's translation certificate accepts. Every full-scale
/// launch with 24, 64 or 128 TBs must take the law, interpreting at most
/// 20 TBs, and still equal the reference analysis, which interprets all.
#[test]
fn nw_tile_diagonals_take_the_affine_law() {
    let bench = suite().into_iter().find(|b| b.name == "NW").unwrap();
    let app = (bench.build)(Scale::Full);
    let analyze = |launch, par: &ParallelConfig| {
        let mut fuel = u64::MAX;
        try_analyze_launch_fueled_par(launch, &mut fuel, par)
            .expect("valid launch")
            .expect("unbounded fuel")
    };
    let mut seen = Vec::new();
    for launch in app.launches() {
        let tbs = launch.num_blocks();
        if ![24, 64, 128].contains(&tbs) {
            continue;
        }
        seen.push(tbs);
        let (reference, _) = analyze(launch, &ParallelConfig::reference());
        let (fast, stats) = analyze(launch, &ParallelConfig::serial());
        assert!(stats.affine_accepted, "NW, {tbs} TBs: {stats:?}");
        assert!(stats.tbs_interpreted <= 20, "NW, {tbs} TBs: {stats:?}");
        assert!(fast == reference, "NW, {tbs} TBs: sets diverged");
    }
    seen.sort_unstable();
    assert_eq!(seen, [24, 24, 64, 64, 128], "both sweeps' launches");
}
