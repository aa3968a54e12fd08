//! Tracked performance harness for functional execution: the serialized
//! pass every guarded run pays, plain and logged.
//!
//! For every Table II workload it records the thread blocks and dynamic
//! instructions of one serialized pass, then times, min-of-N over rounds
//! that run both passes, alternating which goes first:
//!
//! * `plain_ns` — [`Application::try_run_serialized`], the reference pass;
//! * `guard_ns` — [`verify_by_conflict_order`] on the app's consumer w=3
//!   schedule: the guard's logged serialized pass, its containment
//!   verdicts and its conflict-order check, as a guarded run pays them.
//!
//! It reports nanoseconds per instruction of each and the guard/plain
//! ratio, prints a table and writes JSON (schema `bm-bench/perf_interp/v1`)
//! to `BENCH_interp.json` at the repository root. Run with:
//!
//! ```text
//! cargo run --release -p bm-bench --bin perf_interp [-- --small]
//! ```
//!
//! `--small` is a smoke run: small-scale apps, no timing claim.

use std::hint::black_box;
use std::time::Instant;

use blockmaestro::{jit_analyze_app, run, verify_by_conflict_order, ExecMode, RunSpec};
use bm_bench::{geomean, scale_from_args};
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_ptx::interp::{execute_launch, ExecStats};
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::{suite, Scale};

/// Timed rounds per app; each round runs both passes once.
const ROUNDS: usize = 5;

struct Row {
    name: &'static str,
    blocks: u64,
    instructions: u64,
    plain_ns: f64,
    guard_ns: f64,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.guard_ns / self.plain_ns
    }

    fn ns_per_inst(&self, ns: f64) -> f64 {
        ns / self.instructions.max(1) as f64
    }
}

/// Blocks and dynamic instructions of one serialized pass.
fn pass_work(app: &Application) -> (u64, u64) {
    let mut mem = app.initial_memory();
    let mut stats = ExecStats::default();
    let mut blocks = 0;
    for launch in app.launches() {
        blocks += u64::from(launch.num_blocks());
        stats.merge(&execute_launch(launch, &mut mem).expect("suite apps execute"));
    }
    (blocks, stats.instructions)
}

fn measure(gpu: &GpuConfig, name: &'static str, app: &Application) -> Row {
    let jit = jit_analyze_app(gpu, app, HazardMode::Raw);
    let mut spec = RunSpec {
        kernels: Some(&jit),
        ..RunSpec::new(ExecMode::ConsumerPriority { window: 3 })
    };
    let report = run(gpu, app, &mut spec, &NullTracer).expect("suite runs succeed");
    let (blocks, instructions) = pass_work(app);
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as f64
    };
    let mut plain = || {
        black_box(app.try_run_serialized().expect("suite apps execute"));
    };
    let mut guard = || {
        let outcome =
            verify_by_conflict_order(app, &jit, &report.schedule).expect("suite apps execute");
        assert!(
            outcome.is_some_and(|o| o.is_sound()),
            "{name}: the conflict-order check decides a sound schedule"
        );
    };
    let (mut plain_ns, mut guard_ns) = (f64::INFINITY, f64::INFINITY);
    for round in 0..ROUNDS {
        // Alternate which pass goes first.
        if round % 2 == 0 {
            plain_ns = plain_ns.min(time(&mut plain));
            guard_ns = guard_ns.min(time(&mut guard));
        } else {
            guard_ns = guard_ns.min(time(&mut guard));
            plain_ns = plain_ns.min(time(&mut plain));
        }
    }
    Row {
        name,
        blocks,
        instructions,
        plain_ns,
        guard_ns,
    }
}

fn main() {
    let scale = scale_from_args();
    let gpu = GpuConfig::titan_x_pascal();
    println!("perf_interp ({scale:?}): min of {ROUNDS} alternating rounds");
    println!(
        "{:<10} {:>7} {:>12} {:>10} {:>10} {:>8} {:>8} {:>6}",
        "app", "blocks", "insts", "plain", "guard", "ns/inst", "g ns/i", "ratio"
    );
    let mut rows = Vec::new();
    for b in suite() {
        let app = (b.build)(scale);
        let r = measure(&gpu, b.name, &app);
        println!(
            "{:<10} {:>7} {:>12} {:>8.1}ms {:>8.1}ms {:>8.2} {:>8.2} {:>5.2}x",
            r.name,
            r.blocks,
            r.instructions,
            r.plain_ns / 1e6,
            r.guard_ns / 1e6,
            r.ns_per_inst(r.plain_ns),
            r.ns_per_inst(r.guard_ns),
            r.ratio(),
        );
        rows.push(r);
    }
    let ratios: Vec<f64> = rows.iter().map(Row::ratio).collect();
    let max_ratio = ratios.iter().copied().fold(0.0, f64::max);
    let plain_s: f64 = rows.iter().map(|r| r.plain_ns).sum::<f64>() / 1e9;
    let guard_s: f64 = rows.iter().map(|r| r.guard_ns).sum::<f64>() / 1e9;
    println!(
        "sum plain {plain_s:.3}s guard {guard_s:.3}s; ratio geomean {:.3}x max {max_ratio:.3}x",
        geomean(&ratios)
    );

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"name\": \"{}\", \"blocks\": {}, \"instructions\": {}, \
                 \"plain_ns\": {:.0}, \"guard_ns\": {:.0}, \"plain_ns_per_inst\": {:.3}, \
                 \"guard_ns_per_inst\": {:.3}, \"guard_over_plain\": {:.3} }}",
                r.name,
                r.blocks,
                r.instructions,
                r.plain_ns,
                r.guard_ns,
                r.ns_per_inst(r.plain_ns),
                r.ns_per_inst(r.guard_ns),
                r.ratio(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"bm-bench/perf_interp/v1\",\n  \"scale\": \"{}\",\n  \
         \"rounds\": {ROUNDS},\n  \"apps\": [\n{}\n  ],\n  \"plain_s\": {plain_s:.3},\n  \
         \"guard_s\": {guard_s:.3},\n  \"guard_over_plain_geomean\": {:.3},\n  \
         \"guard_over_plain_max\": {max_ratio:.3}\n}}\n",
        match scale {
            Scale::Small => "small",
            Scale::Full => "full",
        },
        body.join(",\n"),
        geomean(&ratios),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_interp.json");
    std::fs::write(path, json).expect("write BENCH_interp.json");
    println!("wrote {path}");
}
