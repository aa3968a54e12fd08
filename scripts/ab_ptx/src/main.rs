//! In-process A/B of two `bm-ptx` versions: `new` is the working tree's
//! crate, `base` the one `scripts/ab_ptx.sh` extracted from a revision.
//!
//! Both are linked into this binary. Each suite app is built once, and its
//! kernels reach the base crate through the printer and its parser (the
//! round trip is checked per kernel). Before timing, every launch must give
//! both versions identical outputs: the `serial()` analysis with its fuel
//! left, the plain pass's memory, the logged pass's memory and ranges, the
//! representative block's trace, and the memory and `ExecStats` of the
//! generic `Program::execute_block::<NullObserver>` over every block (the
//! `serial` phase). Seeded random kernels are generated
//! against each crate from the same seed (a random kernel may carry a
//! non-predicate guard, which the text form cannot express) and must give
//! identical analyses under `serial()` and `reference()` at five fuel
//! budgets and under the grouped rung.
//!
//! Timing: launch by launch, each phase (absint, plain pass, logged pass,
//! trace, serial) runs on both versions in alternating order for `--rounds`
//! rounds; each launch's minimum per phase and version is summed per app.
//! A slow stretch of the host thus lands on both versions alike.
//!
//! ```text
//! scripts/ab_ptx.sh <base-rev> [--small] [--rounds N] [--random N] [--apps A,B,..]
//! ```

// Each side compiles helpers only the other one calls.
#[allow(dead_code)]
mod new {
    use ptx_new as bm_ptx;
    include!("side.rs");
}

#[allow(dead_code)]
mod base {
    use ptx_base as bm_ptx;
    include!("side.rs");
}

use bm_testkit::Rng;
use bm_workloads::{suite, Scale};

/// A launch's data in crate-neutral form.
pub struct Neutral {
    pub kernel: String,
    pub grid: [u32; 3],
    pub block: [u32; 3],
    /// `(kind, bits)`: 0 = u32, 1 = u64, 2 = pointer, 3 = f32.
    pub args: Vec<(u8, u64)>,
}

const PHASES: [&str; 5] = ["absint", "plain", "logged", "trace", "serial"];
/// The apps of `e2ebench`'s `guarded` workload.
const GUARDED: [&str; 5] = ["GAUSSIAN", "HS", "AlexNet", "BICG", "PATH"];
const FUELS: [u64; 5] = [1 << 20, 3, 17, 100, 1000];

struct Args {
    scale: Scale,
    rounds: usize,
    random: usize,
    apps: Option<Vec<String>>,
}

fn args() -> Args {
    let mut a = Args {
        scale: Scale::Full,
        rounds: 5,
        random: 4000,
        apps: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match arg.as_str() {
            "--small" => a.scale = Scale::Small,
            "--rounds" => a.rounds = value("--rounds").parse().expect("--rounds N"),
            "--random" => a.random = value("--random").parse().expect("--random N"),
            "--apps" => a.apps = Some(value("--apps").split(',').map(str::to_string).collect()),
            other => panic!("unknown argument {other}"),
        }
    }
    a
}

/// Both versions' analyses of `n` random kernels must agree.
fn check_random(n: usize) {
    let (mut rng_new, mut rng_base) = (Rng::new(0xab_0001), Rng::new(0xab_0001));
    for case in 0..n {
        let (l_new, l_base) = (
            new::random_launch(&mut rng_new),
            base::random_launch(&mut rng_base),
        );
        assert_eq!(
            new::kernel_text(&l_new),
            base::kernel_text(&l_base),
            "random {case}: kernel"
        );
        for reference in [false, true] {
            for fuel in FUELS {
                assert_eq!(
                    new::analysis(&l_new, reference, fuel),
                    base::analysis(&l_base, reference, fuel),
                    "random {case}: reference={reference} fuel={fuel}"
                );
            }
        }
        for groups in [1, 4] {
            for fuel in [u64::MAX, 10] {
                assert_eq!(
                    new::grouped(&l_new, groups, fuel),
                    base::grouped(&l_base, groups, fuel),
                    "random {case}: {groups} groups, fuel {fuel}"
                );
            }
        }
    }
    println!("{n} random kernels: identical analyses (serial, reference x 5 fuels, grouped x 4)");
}

/// Nanoseconds per phase, `[base, new]`, summed over an app's launches.
type Sums = [[f64; 2]; PHASES.len()];

fn measure(app: &bm_cmdq::Application, rounds: usize) -> Sums {
    let a_new = new::App {
        launches: app.launches().into_iter().cloned().collect(),
        space: app.space.clone(),
        mem: app.initial_memory(),
    };
    let neutral: Vec<_> = a_new.launches.iter().map(new::neutral).collect();
    let a_base = base::App::from_neutral(&neutral, &new::allocs(&a_new.space), |i| {
        new::words(&a_new.space, &a_new.mem, i)
    });
    assert_eq!(
        a_new.mem.fingerprint(),
        a_base.mem.fingerprint(),
        "{}: initial memory",
        app.name
    );
    let (mut pre_new, mut pre_base) = (a_new.mem.clone(), a_base.mem.clone());
    let mut sums = [[0.0; 2]; PHASES.len()];
    for k in 0..a_new.launches.len() {
        let what = format!("{} launch {k}", app.name);
        assert_eq!(
            new::kernel_text(&a_new.launches[k]),
            base::kernel_text(&a_base.launches[k]),
            "{what}: kernel round trip"
        );
        let (mut t_new, mut t_base) = (new::Timer::new(&a_new, k), base::Timer::new(&a_base, k));
        let (o_new, next_new) = t_new.outputs(&a_new, k, &pre_new);
        let (o_base, next_base) = t_base.outputs(&a_base, k, &pre_base);
        assert_eq!(o_new.analysis, o_base.analysis, "{what}: analysis");
        assert_eq!(o_new.plain, o_base.plain, "{what}: plain pass");
        assert_eq!(o_new.logged, o_base.logged, "{what}: logged pass");
        assert_eq!(o_new.trace, o_base.trace, "{what}: trace");
        assert_eq!(o_new.serial, o_base.serial, "{what}: serial pass");
        let mut best = [[f64::INFINITY; 2]; PHASES.len()];
        for round in 0..rounds {
            for (phase, best) in best.iter_mut().enumerate() {
                for side in [round % 2, 1 - round % 2] {
                    let ns = if side == 0 {
                        t_base.time(&a_base, k, &pre_base, phase)
                    } else {
                        t_new.time(&a_new, k, &pre_new, phase)
                    };
                    best[side] = best[side].min(ns);
                }
            }
        }
        for (sum, best) in sums.iter_mut().zip(best) {
            sum[0] += best[0];
            sum[1] += best[1];
        }
        (pre_new, pre_base) = (next_new, next_base);
    }
    sums
}

fn main() {
    let args = args();
    check_random(args.random);
    println!(
        "{:?} scale, per launch min of {} alternating rounds, summed; ms base -> new (new/base)",
        args.scale, args.rounds
    );
    print!("{:<10}", "app");
    for p in PHASES {
        print!(" {:>26}", p);
    }
    println!();
    let mut total = [[0.0; 2]; PHASES.len()];
    let mut guarded_logged = [0.0; 2];
    for b in suite() {
        if args
            .apps
            .as_ref()
            .is_some_and(|a| !a.iter().any(|n| n == b.name))
        {
            continue;
        }
        let sums = measure(&(b.build)(args.scale), args.rounds);
        print!("{:<10}", b.name);
        for (t, s) in total.iter_mut().zip(&sums) {
            print!(
                " {:>9.2} -> {:>8.2} ({:.3})",
                s[0] / 1e6,
                s[1] / 1e6,
                s[1] / s[0]
            );
            t[0] += s[0];
            t[1] += s[1];
        }
        println!();
        if GUARDED.contains(&b.name) {
            guarded_logged[0] += sums[2][0];
            guarded_logged[1] += sums[2][1];
        }
    }
    print!("{:<10}", "sum");
    for t in &total {
        print!(
            " {:>9.2} -> {:>8.2} ({:.3})",
            t[0] / 1e6,
            t[1] / 1e6,
            t[1] / t[0]
        );
    }
    println!();
    println!(
        "logged pass over {GUARDED:?}: {:.2} -> {:.2} ms ({:.3})",
        guarded_logged[0] / 1e6,
        guarded_logged[1] / 1e6,
        guarded_logged[1] / guarded_logged[0]
    );
}
