//! Golden pin of the engine's outputs: the thread-block sources of one
//! device and of N devices.
//!
//! * Every small-scale suite app runs under the baseline and the six
//!   Fig. 9 variants on 1, 2 and 3 devices with a recording tracer; the
//!   `RunReport` JSON and the Chrome export of the trace are folded into
//!   one FNV-1a digest per (app, device count).
//! * Every snapshot that an every-kernel checkpointed run of GAUSSIAN and
//!   of NW saves, untraced and traced, is folded byte for byte.
//! * Single-device runs with injected scheduler-hardware faults (their
//!   report or their error) and with a low spill-pressure threshold (so
//!   the pre-launch window shrinks) are folded the same way.
//!
//! The pins were computed before the kernel lifecycle moved into one
//! type shared by both sources, so any change of schedule, statistic,
//! trace event, snapshot byte or error shows here.

use blockmaestro::{
    jit_analyze_app, random_plan, CheckpointPolicy, CheckpointSession, ExecMode, FaultClass,
    FaultRng, JitKernel, MemStore, RunReport, RunSpec,
};
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_multi::MultiGpuConfig;
use bm_simt::GpuConfig;
use bm_trace::{export_chrome_trace, NullTracer, RecordingTracer};
use bm_workloads::{suite, Scale};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.u64_raw(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64_raw(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A report's JSON and the Chrome export of the run's trace.
    fn run(&mut self, report: &RunReport, tracer: &RecordingTracer) {
        self.bytes(report.to_json().to_string().as_bytes());
        self.bytes(export_chrome_trace(&tracer.events()).as_bytes());
    }
}

/// The baseline and the six Fig. 9 variants.
fn modes() -> Vec<ExecMode> {
    let mut modes = vec![ExecMode::Baseline];
    modes.extend(ExecMode::figure9_variants());
    modes
}

fn small_app(name: &str) -> Application {
    let bench = suite()
        .into_iter()
        .find(|b| b.name == name)
        .expect("a suite app");
    (bench.build)(Scale::Small)
}

/// Compares computed digests with the pins, listing every row on a
/// mismatch so the table can be read off the failure.
fn check<const N: usize>(label: &str, got: &[(String, [u64; N])], want: &[(&str, [u64; N])]) {
    let table: String = got
        .iter()
        .map(|(name, row)| {
            let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
            format!("    (\"{name}\", [{}]),\n", cells.join(", "))
        })
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

/// Per app: the digest of every mode's traced run on 1, 2 and 3 devices.
const RUNS: [(&str, [u64; 3]); 12] = [
    (
        "3MM",
        [0x92e8c6c9f4bcaed4, 0x41614ffeb22a49b2, 0x3c14f890e4af9791],
    ),
    (
        "AlexNet",
        [0x2abc002f20ec6663, 0x374cce3a72ccc8d1, 0x98ad43268bf8e31a],
    ),
    (
        "BICG",
        [0xf52a22049c97156f, 0xec3464c4db6244bf, 0xf9d324172be82a50],
    ),
    (
        "FDTD-2D",
        [0x4157b5d6805417cf, 0x424f97786978f6c5, 0x1eaf64a3d1b4bd2c],
    ),
    (
        "FFT",
        [0x43a256791992ad06, 0x9d6082ab8059d136, 0x8bd94b0a342fc3ab],
    ),
    (
        "GAUSSIAN",
        [0x3c8ceacce33112e0, 0x74495c51e09d242c, 0x9b0bbfae4474d59c],
    ),
    (
        "GRAMSCHM",
        [0x30c74e3ad480aeac, 0x48fee4f3b9c591df, 0xe0c3073759feb99e],
    ),
    (
        "HS",
        [0xba2ca632f197bb0b, 0xe2412c4ed364b15d, 0x09881d94d3b803b4],
    ),
    (
        "LUD",
        [0x356bff5347386085, 0x15719eba17effc39, 0x3b04111e759c198c],
    ),
    (
        "MVT",
        [0x4c8b542251deac22, 0x84557b9acfc98926, 0x18acb166888be411],
    ),
    (
        "NW",
        [0x6b2cbc0e01748d70, 0x07ea33d82aed1691, 0xc1f6e09bfcb5aa6c],
    ),
    (
        "PATH",
        [0xf8f85f6bbcf02e31, 0xae9a3d207ca47603, 0xaa894f57f671fcb9],
    ),
];

#[test]
fn reports_and_traces_on_one_to_three_devices_match_the_pins() {
    let cfg = GpuConfig::small();
    let mut got = Vec::new();
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        let mut row = [0; 3];
        for (cell, devices) in row.iter_mut().zip(1..) {
            let mcfg = MultiGpuConfig::devices(devices);
            let mut h = Fnv::new();
            for mode in modes() {
                let tracer = RecordingTracer::new();
                let mut spec = RunSpec {
                    kernels: Some(&jit),
                    ..RunSpec::new(mode)
                };
                let report = bm_multi::run(&cfg, &mcfg, &app, &mut spec, &tracer)
                    .unwrap_or_else(|e| panic!("{} {mode} on {devices}: {e}", bench.name));
                h.run(&report, &tracer);
            }
            *cell = h.0;
        }
        got.push((bench.name.to_string(), row));
    }
    check("runs", &got, &RUNS);
}

/// Per app: every snapshot of an untraced and of a traced run.
const SNAPSHOTS: [(&str, [u64; 2]); 2] = [
    ("GAUSSIAN", [0x3c89c53403db1c1a, 0xe6efecf67fe3ba4a]),
    ("NW", [0x7322f2c9eacddea6, 0x586dd0ff819bb9c6]),
];

#[test]
fn every_kernel_snapshots_match_the_pins() {
    let cfg = GpuConfig::small();
    let mode = ExecMode::ConsumerPriority { window: 3 };
    let mut got = Vec::new();
    for (name, _) in SNAPSHOTS {
        let app = small_app(name);
        let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        let mut row = [0; 2];
        for (cell, traced) in row.iter_mut().zip([false, true]) {
            let mut store = MemStore::default();
            let mut spec = RunSpec {
                kernels: Some(&jit),
                checkpoint: CheckpointSession {
                    policy: CheckpointPolicy::every_kernels(1),
                    store: Some(&mut store),
                    ..CheckpointSession::disabled()
                },
                ..RunSpec::new(mode)
            };
            if traced {
                blockmaestro::run(&cfg, &app, &mut spec, &RecordingTracer::new())
            } else {
                blockmaestro::run(&cfg, &app, &mut spec, &NullTracer)
            }
            .unwrap_or_else(|e| panic!("{name} traced={traced}: {e}"));
            drop(spec);
            assert!(store.snaps.len() > 1, "{name}: {} saves", store.snaps.len());
            let mut h = Fnv::new();
            for bytes in &store.snaps {
                h.bytes(bytes);
            }
            *cell = h.0;
        }
        got.push((name.to_string(), row));
    }
    check("snapshots", &got, &SNAPSHOTS);
}

/// Single-device runs of `jit` with each dynamic hardware fault class at
/// a few seeds: the report and trace of a run that completes, the error
/// of one that does not.
fn fold_faults(h: &mut Fnv, cfg: &GpuConfig, app: &Application, jit: &[JitKernel]) {
    let classes = [
        FaultClass::DropChild,
        FaultClass::PhantomChild,
        FaultClass::CounterExcess,
        FaultClass::CounterDeficit,
        FaultClass::CounterSaturation,
        FaultClass::BufferSpill,
    ];
    for class in classes {
        for seed in 0..3 {
            let Some(fault) = random_plan(class, jit, &mut FaultRng::new(seed)) else {
                h.u64_raw(0);
                continue;
            };
            let tracer = RecordingTracer::new();
            let mut spec = RunSpec {
                kernels: Some(jit),
                fault,
                ..RunSpec::new(ExecMode::ConsumerPriority { window: 3 })
            };
            match blockmaestro::run(cfg, app, &mut spec, &tracer) {
                Ok(report) => h.run(&report, &tracer),
                Err(e) => h.bytes(e.to_string().as_bytes()),
            }
        }
    }
}

/// Per app: fault-injected runs, then the pressure runs.
const HARDWARE: [(&str, [u64; 2]); 12] = [
    ("3MM", [0x5d29bdd6299690a6, 0x92e8c6c9f4bcaed4]),
    ("AlexNet", [0xec988a0d34b67f9e, 0x2abc002f20ec6663]),
    ("BICG", [0x7c0ea1346f2c7ebe, 0xf52a22049c97156f]),
    ("FDTD-2D", [0x7773e5fdc490a0bf, 0xe74b9670283ab368]),
    ("FFT", [0x0f1e067f40446ec4, 0x43a256791992ad06]),
    ("GAUSSIAN", [0x1333d0ba87e21fc8, 0x3c8ceacce33112e0]),
    ("GRAMSCHM", [0x225d856473f2b614, 0x30c74e3ad480aeac]),
    ("HS", [0xe6f40ffcf5771062, 0xbcf8c639f59ea695]),
    ("LUD", [0xa4b2fa6155c213f4, 0x7c0564d711db0961]),
    ("MVT", [0x5bcbe2d278fc594d, 0x4c8b542251deac22]),
    ("NW", [0xc08b75d461f8175b, 0x7223454f3b310691]),
    ("PATH", [0x40edaa900105a389, 0xf8f85f6bbcf02e31]),
];

#[test]
fn fault_injected_and_pressured_runs_match_the_pins() {
    let cfg = GpuConfig::small();
    // A threshold this low makes spills shrink the pre-launch window.
    let pressured = GpuConfig {
        spill_pressure_threshold: 4,
        ..GpuConfig::small()
    };
    let mut got = Vec::new();
    let mut shrinks = 0;
    for bench in suite() {
        let (name, app) = (bench.name, (bench.build)(Scale::Small));
        let jit = jit_analyze_app(&cfg, &app, HazardMode::Raw);
        let mut faults = Fnv::new();
        fold_faults(&mut faults, &cfg, &app, &jit);
        let mut pressure = Fnv::new();
        for mode in modes() {
            let tracer = RecordingTracer::new();
            let mut spec = RunSpec {
                kernels: Some(&jit),
                fault: blockmaestro::FaultPlan {
                    pcb_capacity: Some(4),
                    ..Default::default()
                },
                ..RunSpec::new(mode)
            };
            let report = blockmaestro::run(&pressured, &app, &mut spec, &tracer)
                .unwrap_or_else(|e| panic!("{name} {mode} under pressure: {e}"));
            shrinks += report.pressure_events.len();
            pressure.run(&report, &tracer);
        }
        got.push((name.to_string(), [faults.0, pressure.0]));
    }
    assert!(shrinks > 0, "no run shrank its window");
    check("hardware", &got, &HARDWARE);
}
