// One version's side of the A/B harness, included by `main.rs` once per
// `bm-ptx` crate with `bm_ptx` naming that crate. It must compile against
// both versions, so it uses only their common public API.

use crate::Neutral;
use bm_ptx::absint::{try_analyze_launch_fueled_par, try_analyze_launch_grouped};
use bm_ptx::access::AccessLog;
use bm_ptx::interp::{ExecStats, Lockstep, NullObserver, Program, MAX_STEPS_PER_THREAD};
use bm_ptx::kernel::{ArgValue, Dim3, Kernel, Launch};
use bm_ptx::mem::{AddressSpace, GlobalMem};
use bm_ptx::par::ParallelConfig;
use bm_ptx::parser::parse_kernel;
use bm_ptx::trace::trace_block_limited;
use bm_testkit::Rng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

mod random_kernel {
    #![allow(dead_code)]
    use super::bm_ptx;
    include!(env!("AB_RANDOM_KERNEL"));
}

/// An app in this crate's types: its launches, address space and initial
/// memory.
pub struct App {
    pub launches: Vec<Launch>,
    pub space: AddressSpace,
    pub mem: GlobalMem,
}

impl App {
    /// Parses every kernel text once per distinct kernel, and copies the
    /// initial memory word by word.
    pub fn from_neutral(
        launches: &[Neutral],
        allocs: &[u64],
        words: impl Fn(usize) -> Vec<u32>,
    ) -> App {
        let mut kernels: HashMap<&str, Arc<Kernel>> = HashMap::new();
        let launches = launches
            .iter()
            .map(|n| {
                let kernel = kernels
                    .entry(&n.kernel)
                    .or_insert_with(|| Arc::new(parse_kernel(&n.kernel).expect("printed kernel")))
                    .clone();
                let dim = |d: [u32; 3]| Dim3 {
                    x: d[0],
                    y: d[1],
                    z: d[2],
                };
                let args = n
                    .args
                    .iter()
                    .map(|&(kind, bits)| match kind {
                        0 => ArgValue::U32(bits as u32),
                        1 => ArgValue::U64(bits),
                        2 => ArgValue::Ptr(bits),
                        _ => ArgValue::F32(f32::from_bits(bits as u32)),
                    })
                    .collect();
                Launch::new(kernel, dim(n.grid), dim(n.block), args)
            })
            .collect();
        let mut space = AddressSpace::new();
        let bases: Vec<u64> = allocs.iter().map(|&size| space.alloc(size).base).collect();
        let mut mem = GlobalMem::for_space(&space);
        for (i, base) in bases.into_iter().enumerate() {
            for (w, v) in words(i).into_iter().enumerate() {
                mem.write_u32(base + 4 * w as u64, v);
            }
        }
        App {
            launches,
            space,
            mem,
        }
    }
}

/// A launch in crate-neutral form.
pub fn neutral(launch: &Launch) -> Neutral {
    let dim = |d: Dim3| [d.x, d.y, d.z];
    Neutral {
        kernel: launch.kernel.to_string(),
        grid: dim(launch.grid),
        block: dim(launch.block),
        args: launch
            .args
            .iter()
            .map(|a| match *a {
                ArgValue::U32(v) => (0, v as u64),
                ArgValue::U64(v) => (1, v),
                ArgValue::Ptr(v) => (2, v),
                ArgValue::F32(v) => (3, v.to_bits() as u64),
            })
            .collect(),
    }
}

/// The allocation sizes of `space` and a reader of each one's words.
pub fn allocs(space: &AddressSpace) -> Vec<u64> {
    space.allocs().iter().map(|a| a.size).collect()
}

pub fn words(space: &AddressSpace, mem: &GlobalMem, i: usize) -> Vec<u32> {
    let a = space.allocs()[i];
    (0..a.size / 4)
        .map(|w| mem.read_u32(a.base + 4 * w))
        .collect()
}

/// Debug text of a kernel, for checking both sides hold the same one.
pub fn kernel_text(launch: &Launch) -> String {
    format!("{:?}", launch.kernel)
}

/// The per-TB analysis of `launch` (`serial()` or `reference()`) at
/// `fuel`, with the fuel left, as text.
pub fn analysis(launch: &Launch, reference: bool, fuel: u64) -> String {
    let par = if reference {
        ParallelConfig::reference()
    } else {
        ParallelConfig::serial()
    };
    let mut left = fuel;
    let out = try_analyze_launch_fueled_par(launch, &mut left, &par);
    format!("{out:?} {left}")
}

/// The grouped rung's analysis of `launch`, with the fuel left, as text.
pub fn grouped(launch: &Launch, groups: u32, fuel: u64) -> String {
    let mut left = fuel;
    let out = try_analyze_launch_grouped(launch, groups, &mut left);
    format!("{out:?} {left}")
}

/// A seeded random kernel on a 1-D grid of 24..=40 blocks.
pub fn random_launch(rng: &mut Rng) -> Launch {
    use random_kernel::{random_kernel, DUMP, WORDS};
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

/// Per-launch state of the timed phases.
pub struct Timer<'a> {
    program: Program<'a>,
    warps: Lockstep,
    log: AccessLog,
}

/// What the timed phases of one launch produced, as text and fingerprints.
#[derive(PartialEq, Debug)]
pub struct Outputs {
    pub analysis: String,
    pub plain: u64,
    pub logged: (u64, Vec<(u64, u64)>),
    pub trace: String,
    /// The memory and merged `ExecStats` of the generic
    /// `Program::execute_block`.
    pub serial: (u64, String),
}

impl<'a> Timer<'a> {
    pub fn new(app: &'a App, k: usize) -> Timer<'a> {
        Timer {
            program: Program::new(&app.launches[k]),
            warps: Lockstep::new(),
            log: AccessLog::new(&app.space),
        }
    }

    /// Nanoseconds of phase `phase` (0 absint, 1 plain, 2 logged, 3 trace,
    /// 4 serial) over launch `k` from memory `pre`.
    pub fn time(&mut self, app: &App, k: usize, pre: &GlobalMem, phase: usize) -> f64 {
        let launch = &app.launches[k];
        let t0;
        match phase {
            0 => {
                t0 = Instant::now();
                let mut fuel = 1 << 20;
                std::hint::black_box(
                    try_analyze_launch_fueled_par(launch, &mut fuel, &ParallelConfig::serial())
                        .ok(),
                );
            }
            1 => {
                let mut mem = pre.clone();
                t0 = Instant::now();
                for tb in 0..launch.num_blocks() {
                    let r =
                        self.warps
                            .execute_block(&self.program, tb, &mut mem, MAX_STEPS_PER_THREAD);
                    std::hint::black_box(r.ok());
                }
            }
            2 => {
                let mut mem = pre.clone();
                let (mut ranges, mut bounds) = (Vec::new(), Vec::new());
                t0 = Instant::now();
                for tb in 0..launch.num_blocks() {
                    let r =
                        self.log
                            .execute_block(&self.program, tb, &mut mem, MAX_STEPS_PER_THREAD);
                    std::hint::black_box(r.ok());
                    self.log.finish_block(&mut ranges, &mut bounds);
                }
            }
            3 => {
                let mut mem = pre.clone();
                t0 = Instant::now();
                let rep = launch.num_blocks() / 2;
                std::hint::black_box(
                    trace_block_limited(launch, rep, &mut mem, MAX_STEPS_PER_THREAD).ok(),
                );
            }
            _ => {
                let mut mem = pre.clone();
                t0 = Instant::now();
                for tb in 0..launch.num_blocks() {
                    let r = self.program.execute_block(
                        tb,
                        &mut mem,
                        &mut NullObserver,
                        MAX_STEPS_PER_THREAD,
                    );
                    std::hint::black_box(r.ok());
                }
            }
        }
        t0.elapsed().as_nanos() as f64
    }

    /// Every phase's output over launch `k` from `pre`, and the memory
    /// after the launch.
    pub fn outputs(&mut self, app: &App, k: usize, pre: &GlobalMem) -> (Outputs, GlobalMem) {
        let launch = &app.launches[k];
        let blocks = launch.num_blocks();
        let mut plain = pre.clone();
        for tb in 0..blocks {
            self.warps
                .execute_block(&self.program, tb, &mut plain, MAX_STEPS_PER_THREAD)
                .expect("suite apps execute");
        }
        let mut logged = pre.clone();
        let (mut ranges, mut bounds) = (Vec::new(), Vec::new());
        for tb in 0..blocks {
            self.log
                .execute_block(&self.program, tb, &mut logged, MAX_STEPS_PER_THREAD)
                .expect("suite apps execute");
            self.log.finish_block(&mut ranges, &mut bounds);
        }
        let mut scratch = pre.clone();
        let trace = trace_block_limited(launch, blocks / 2, &mut scratch, MAX_STEPS_PER_THREAD);
        let mut serial = pre.clone();
        let mut stats = ExecStats::default();
        for tb in 0..blocks {
            let s = self
                .program
                .execute_block(tb, &mut serial, &mut NullObserver, MAX_STEPS_PER_THREAD)
                .expect("suite apps execute");
            stats.merge(&s);
        }
        let outputs = Outputs {
            analysis: analysis(launch, false, 1 << 20),
            plain: plain.fingerprint(),
            logged: (logged.fingerprint(), ranges),
            trace: format!("{trace:?}"),
            serial: (serial.fingerprint(), format!("{stats:?}")),
        };
        (outputs, plain)
    }
}
