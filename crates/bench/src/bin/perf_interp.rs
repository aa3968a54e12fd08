//! Tracked performance harness for functional execution: the serialized
//! pass every guarded run pays, plain and logged.
//!
//! For every Table II workload it records the thread blocks and dynamic
//! instructions of one serialized pass, then times three passes over each
//! launch, each from a clone of the same pre-launch memory:
//!
//! * `plain_ns` — the plain pass ([`Lockstep::execute_block`] per block, as
//!   [`bm_ptx::interp::execute_launch`] and `try_run_serialized` run it);
//! * `logged_ns` — the guard's logged pass ([`AccessLog::execute_block`]
//!   and [`AccessLog::finish_block`] per block);
//! * `serial_ns` — the same logged pass one lane at a time, through the
//!   generic [`Program::execute_block`]: the engine's one-lane run, what a
//!   block that falls back costs.
//!
//! Launch by launch, the three passes run in a rotating order for
//! [`ROUNDS`] rounds; each launch's minimum per pass is summed per app, so
//! a slow stretch of the host lands on one launch of every pass rather
//! than on one whole pass. `fallback_blocks` counts the blocks either
//! lockstep pass reran one lane at a time (in one round). It prints a table
//! and writes JSON (schema `bm-bench/perf_interp/v2`) to
//! `BENCH_interp.json` at the repository root. Run with:
//!
//! ```text
//! cargo run --release -p bm-bench --bin perf_interp [-- --small]
//! ```
//!
//! `--small` is a smoke run: small-scale apps, no timing claim.

use std::time::Instant;

use bm_bench::{geomean, scale_from_args};
use bm_cmdq::Application;
use bm_ptx::access::AccessLog;
use bm_ptx::interp::{ExecStats, Lockstep, Program, MAX_STEPS_PER_THREAD};
use bm_ptx::kernel::Launch;
use bm_ptx::mem::GlobalMem;
use bm_workloads::{suite, Scale};

/// Timed rounds per launch; each round runs all three passes once.
const ROUNDS: usize = 5;

#[derive(Default)]
struct Row {
    name: &'static str,
    blocks: u64,
    instructions: u64,
    /// Plain, logged and one-lane logged pass.
    ns: [f64; 3],
    fallback_blocks: u64,
}

impl Row {
    fn ns_per_inst(&self, pass: usize) -> f64 {
        self.ns[pass] / self.instructions.max(1) as f64
    }
}

/// What one pass over a launch leaves behind, for checking the passes
/// agree.
struct Pass {
    mem: GlobalMem,
    stats: ExecStats,
    ranges: Vec<(u64, u64)>,
}

/// Runs pass `which` over every block of `program` on a clone of `pre`;
/// returns its result and the nanoseconds it took.
fn pass(
    which: usize,
    program: &Program,
    pre: &GlobalMem,
    warps: &mut Lockstep,
    log: &mut AccessLog,
) -> (Pass, f64) {
    let mut mem = pre.clone();
    let (mut ranges, mut bounds) = (Vec::new(), Vec::new());
    let mut stats = ExecStats::default();
    let blocks = program.launch().num_blocks();
    let t0 = Instant::now();
    for tb in 0..blocks {
        let r = match which {
            0 => warps.execute_block(program, tb, &mut mem, MAX_STEPS_PER_THREAD),
            1 => log.execute_block(program, tb, &mut mem, MAX_STEPS_PER_THREAD),
            _ => program.execute_block(tb, &mut mem, log, MAX_STEPS_PER_THREAD),
        };
        stats.merge(&r.expect("suite apps execute"));
        if which > 0 {
            log.finish_block(&mut ranges, &mut bounds);
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (Pass { mem, stats, ranges }, ns)
}

/// Times the three passes over one launch from `mem`, leaving the
/// launch's result in `mem`.
fn measure_launch(launch: &Launch, mem: &mut GlobalMem, log: &mut AccessLog, row: &mut Row) {
    let program = Program::new(launch);
    let mut warps = Lockstep::new();
    let fallbacks = log.fallback_blocks();
    let mut best = [f64::INFINITY; 3];
    let mut out: [Option<Pass>; 3] = [None, None, None];
    for round in 0..ROUNDS {
        for k in 0..3 {
            let which = (round + k) % 3;
            let (p, ns) = pass(which, &program, mem, &mut warps, log);
            best[which] = best[which].min(ns);
            out[which].get_or_insert(p);
        }
        if round == 0 {
            row.fallback_blocks += warps.fallback_blocks() + log.fallback_blocks() - fallbacks;
        }
    }
    let [Some(plain), Some(logged), Some(serial)] = out else {
        unreachable!("every pass ran")
    };
    for p in [&logged, &serial] {
        assert_eq!(p.mem.fingerprint(), plain.mem.fingerprint(), "{}", row.name);
        assert_eq!(p.stats, plain.stats, "{}", row.name);
    }
    assert_eq!(logged.ranges, serial.ranges, "{}", row.name);
    for (sum, ns) in row.ns.iter_mut().zip(best) {
        *sum += ns;
    }
    row.blocks += u64::from(launch.num_blocks());
    row.instructions += plain.stats.instructions;
    *mem = plain.mem;
}

fn measure(name: &'static str, app: &Application) -> Row {
    let mut row = Row {
        name,
        ..Row::default()
    };
    let mut mem = app.initial_memory();
    let mut log = AccessLog::new(&app.space);
    for launch in app.launches() {
        measure_launch(launch, &mut mem, &mut log, &mut row);
    }
    row
}

fn main() {
    let scale = scale_from_args();
    println!("perf_interp ({scale:?}): per launch, min of {ROUNDS} rotating rounds, summed");
    println!(
        "{:<10} {:>7} {:>12} {:>10} {:>10} {:>10} {:>6} {:>7} {:>7} {:>7} {:>6}",
        "app",
        "blocks",
        "insts",
        "plain",
        "logged",
        "serial",
        "fallbk",
        "p ns/i",
        "l ns/i",
        "s ns/i",
        "s/l"
    );
    let mut rows = Vec::new();
    for b in suite() {
        let app = (b.build)(scale);
        let r = measure(b.name, &app);
        println!(
            "{:<10} {:>7} {:>12} {:>8.1}ms {:>8.1}ms {:>8.1}ms {:>6} {:>7.2} {:>7.2} {:>7.2} {:>5.2}x",
            r.name,
            r.blocks,
            r.instructions,
            r.ns[0] / 1e6,
            r.ns[1] / 1e6,
            r.ns[2] / 1e6,
            r.fallback_blocks,
            r.ns_per_inst(0),
            r.ns_per_inst(1),
            r.ns_per_inst(2),
            r.ns[2] / r.ns[1],
        );
        rows.push(r);
    }
    let total = |pass: usize| rows.iter().map(|r| r.ns[pass]).sum::<f64>() / 1e9;
    let (plain_s, logged_s, serial_s) = (total(0), total(1), total(2));
    let fallback_blocks: u64 = rows.iter().map(|r| r.fallback_blocks).sum();
    let speedups: Vec<f64> = rows.iter().map(|r| r.ns[2] / r.ns[1]).collect();
    println!(
        "sum plain {plain_s:.3}s logged {logged_s:.3}s serial {serial_s:.3}s; \
         serial/logged geomean {:.3}x; {fallback_blocks} fallback blocks",
        geomean(&speedups)
    );

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"name\": \"{}\", \"blocks\": {}, \"instructions\": {}, \
                 \"plain_ns\": {:.0}, \"logged_ns\": {:.0}, \"serial_ns\": {:.0}, \
                 \"fallback_blocks\": {}, \"plain_ns_per_inst\": {:.3}, \
                 \"logged_ns_per_inst\": {:.3}, \"serial_ns_per_inst\": {:.3}, \
                 \"logged_over_plain\": {:.3}, \"serial_over_logged\": {:.3} }}",
                r.name,
                r.blocks,
                r.instructions,
                r.ns[0],
                r.ns[1],
                r.ns[2],
                r.fallback_blocks,
                r.ns_per_inst(0),
                r.ns_per_inst(1),
                r.ns_per_inst(2),
                r.ns[1] / r.ns[0],
                r.ns[2] / r.ns[1],
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"bm-bench/perf_interp/v2\",\n  \"scale\": \"{}\",\n  \
         \"rounds\": {ROUNDS},\n  \"apps\": [\n{}\n  ],\n  \"plain_s\": {plain_s:.3},\n  \
         \"logged_s\": {logged_s:.3},\n  \"serial_s\": {serial_s:.3},\n  \
         \"fallback_blocks\": {fallback_blocks},\n  \
         \"serial_over_logged_geomean\": {:.3}\n}}\n",
        match scale {
            Scale::Small => "small",
            Scale::Full => "full",
        },
        body.join(",\n"),
        geomean(&speedups),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_interp.json");
    std::fs::write(path, json).expect("write BENCH_interp.json");
    println!("wrote {path}");
}
