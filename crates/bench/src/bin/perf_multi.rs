//! Multi-GPU makespan scaling harness.
//!
//! Runs the wavefront-heavy Table II workloads (GAUSSIAN, NW, PATHFINDER,
//! HOTSPOT) across 1, 2, and 4 simulated devices under the headline
//! fine-grain mode and reports the kernel-region makespan for each device
//! count, plus the interconnect traffic and partition cut quality behind
//! it. Per-device resources are deliberately small (`GpuConfig::small`,
//! 4 SMs) so the suite's grids saturate a single device — multi-GPU
//! scaling is only meaningful when there is contention to relieve.
//!
//! Results are printed as a table and written as JSON (schema
//! `bm-bench/perf_multi/v1`) to `BENCH_multi.json` at the repository
//! root. Run with:
//!
//! ```text
//! cargo run --release -p bm-bench --bin perf_multi [-- --small] [-- --gate]
//! ```
//!
//! With `--gate`, exits nonzero if the `devices=1` path diverges from the
//! single-device engine (they must be bit-identical — that is the
//! programmer-transparency contract extended across devices), if any
//! multi-device run is not reproducible, or if 2 devices fail to beat 1
//! device on at least three of the four wavefront workloads. All gated
//! quantities are simulated cycle counts, fully deterministic, so there
//! is no noise floor or re-measure protocol here.

use blockmaestro::{jit_analyze_app, BmError, ExecMode, JitKernel, RunReport, RunSpec};
use bm_bench::scale_from_args;
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_multi::MultiGpuConfig;
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::suite;

/// Wavefront-heavy workloads whose TB-grain dependency structure gives a
/// partitioner something to preserve.
const WORKLOADS: [&str; 4] = ["GAUSSIAN", "NW", "PATH", "HS"];

/// Device counts swept per workload.
const DEVICE_COUNTS: [u32; 3] = [1, 2, 4];

/// The headline fine-grain mode (widest pre-launch window of Fig. 9).
const MODE: ExecMode = ExecMode::ConsumerPriority { window: 4 };

/// How many of the wavefront workloads 2 devices must strictly beat 1
/// device on for the `--gate` check.
const GATE_MIN_WINS: usize = 3;

struct DevicePoint {
    devices: u32,
    makespan: u64,
    total_cycles: u64,
    cut_edges: u64,
    total_edges: u64,
    transfers: u64,
    transfer_cycles: u64,
}

struct Row {
    name: String,
    kernels: usize,
    points: Vec<DevicePoint>,
}

fn point(report: &RunReport, devices: u32) -> DevicePoint {
    let (cut_edges, total_edges, transfers, transfer_cycles) = report
        .multi
        .as_ref()
        .map(|m| (m.cut_edges, m.total_edges, m.transfers, m.transfer_cycles))
        .unwrap_or((0, 0, 0, 0));
    DevicePoint {
        devices,
        makespan: report.kernel_region_cycles,
        total_cycles: report.total_cycles,
        cut_edges,
        total_edges,
        transfers,
        transfer_cycles,
    }
}

/// A [`MODE`] run of `jit` on `devices` devices.
fn run_on(
    cfg: &GpuConfig,
    app: &Application,
    jit: &[JitKernel],
    devices: u32,
) -> Result<RunReport, BmError> {
    let mut spec = RunSpec {
        kernels: Some(jit),
        ..RunSpec::new(MODE)
    };
    let mcfg = MultiGpuConfig::devices(devices);
    bm_multi::run(cfg, &mcfg, app, &mut spec, &NullTracer)
}

fn measure(cfg: &GpuConfig, app: &Application, jit: &[JitKernel]) -> Row {
    let points = DEVICE_COUNTS
        .iter()
        .map(|&d| {
            let report = run_on(cfg, app, jit, d)
                .unwrap_or_else(|e| panic!("{}: devices={d}: {e}", app.name));
            point(&report, d)
        })
        .collect();
    Row {
        name: app.name.clone(),
        kernels: jit.len(),
        points,
    }
}

fn main() {
    let scale = scale_from_args();
    let gate = std::env::args().any(|a| a == "--gate");
    let cfg = GpuConfig::small();

    let mut rows = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    println!("perf_multi ({scale:?}): kernel-region makespan by device count {DEVICE_COUNTS:?}");
    for bench in suite() {
        if !WORKLOADS.contains(&bench.name) {
            continue;
        }
        let app = (bench.build)(scale);
        let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        let row = measure(&cfg, &app, &jit);

        if gate {
            // devices=1 must be the single-device engine, bit for bit.
            let mut spec = RunSpec {
                kernels: Some(&jit),
                ..RunSpec::new(MODE)
            };
            let single =
                blockmaestro::run(&cfg, &app, &mut spec, &NullTracer).expect("single-device run");
            let one = run_on(&cfg, &app, &jit, 1).expect("devices=1 rerun");
            if one != single {
                violations.push(format!(
                    "{}: devices=1 diverges from the single-device engine",
                    row.name
                ));
            }
            // Multi runs must be reproducible.
            for &d in &DEVICE_COUNTS[1..] {
                let a = run_on(&cfg, &app, &jit, d).expect("rerun a");
                let b = run_on(&cfg, &app, &jit, d).expect("rerun b");
                if a != b {
                    violations.push(format!("{}: devices={d} is not reproducible", row.name));
                }
            }
        }

        let cells: Vec<String> = row
            .points
            .iter()
            .map(|p| format!("d{}={}", p.devices, p.makespan))
            .collect();
        let speedup = row.points[0].makespan as f64 / row.points[1].makespan.max(1) as f64;
        let p2 = &row.points[1];
        println!(
            "{:<10} kernels={:<4} {}  2-dev speedup {:.2}x  cut {}/{} edges, {} transfers ({} cyc)",
            row.name,
            row.kernels,
            cells.join(" "),
            speedup,
            p2.cut_edges,
            p2.total_edges,
            p2.transfers,
            p2.transfer_cycles,
        );
        rows.push(row);
    }

    let wins = rows
        .iter()
        .filter(|r| r.points[1].makespan < r.points[0].makespan)
        .count();
    println!("2 devices beat 1 on {wins}/{} workloads", rows.len());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bm-bench/perf_multi/v1\",\n");
    json.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        match scale {
            bm_workloads::Scale::Small => "small",
            bm_workloads::Scale::Full => "full",
        }
    ));
    json.push_str(&format!("  \"mode\": \"{MODE}\",\n"));
    json.push_str(&format!(
        "  \"link_latency_cycles\": {},\n",
        MultiGpuConfig::default().link_latency_cycles
    ));
    json.push_str("  \"workloads\": [\n");
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let pts: Vec<String> = r
                .points
                .iter()
                .map(|p| {
                    format!(
                        "      {{ \"devices\": {}, \"makespan\": {}, \"total_cycles\": {}, \
                         \"cut_edges\": {}, \"total_edges\": {}, \"transfers\": {}, \
                         \"transfer_cycles\": {} }}",
                        p.devices,
                        p.makespan,
                        p.total_cycles,
                        p.cut_edges,
                        p.total_edges,
                        p.transfers,
                        p.transfer_cycles,
                    )
                })
                .collect();
            format!(
                "    {{ \"name\": \"{}\", \"kernels\": {}, \"points\": [\n{}\n    ] }}",
                r.name,
                r.kernels,
                pts.join(",\n"),
            )
        })
        .collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_multi.json");
    std::fs::write(path, &json).expect("write BENCH_multi.json");
    println!("wrote {path}");

    if gate {
        // Scaling is only gated at full scale: the small grids (e.g. PATH
        // at 4 TBs per kernel) cannot saturate even one device, so there
        // is no contention for a second device to relieve.
        if scale == bm_workloads::Scale::Full && wins < GATE_MIN_WINS {
            violations.push(format!(
                "2 devices beat 1 device on only {wins}/{} wavefront workloads \
                 (need {GATE_MIN_WINS})",
                rows.len()
            ));
        }
        if violations.is_empty() {
            println!("gate: ok — devices=1 bit-identical, runs reproducible, scaling holds");
        } else {
            for v in &violations {
                eprintln!("gate violation: {v}");
            }
            std::process::exit(1);
        }
    }
}
