//! Command-line entry point of the end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload guarded|sweep|checkpoint --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --write-pins
//! ```
//!
//! Prints one line per metric, then, as the last line of standard output,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! run exits 0 whenever it measured, correct or not; it exits 1 without a
//! result when set-up fails and 2 on bad arguments.

use bm_workloads::Scale;
use e2ebench::{pinned, run, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: e2ebench --workload guarded|sweep|checkpoint --seed N --seconds S \
                     --trace 0|1 | --write-pins";

fn default_pins() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/pinned.json"))
}

/// Parsed command line: a benchmark run, or pin regeneration.
enum Command {
    Run(Options),
    WritePins,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut write_pins = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-pins" {
            write_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected non-negative seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if write_pins {
        return Ok(Command::WritePins);
    }
    let missing = |name: &str| format!("{name} is required");
    let tmp_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".e2ebench-tmp")
        .join(std::process::id().to_string());
    Ok(Command::Run(Options {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scale: Scale::Full,
        pins: default_pins(),
        tmp_dir,
    }))
}

fn write_pins() -> Result<(), String> {
    let path = default_pins();
    let mut scales = Vec::new();
    for scale in [Scale::Full, Scale::Small] {
        eprintln!("pinning {} scale...", pinned::scale_key(scale));
        scales.push((scale, e2ebench::compute_pins(scale)?));
    }
    std::fs::write(&path, pinned::render(&scales))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// A JSON number for `v`, with every digit it has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Command::Run(opts)) => opts,
        Ok(Command::WritePins) => {
            return match write_pins() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("e2ebench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &out.failures {
        println!("FAILED {f}");
    }
    println!(
        "{} seed={} trace={} passes={} attempted={} failed={} fail_ratio={}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        out.pass_s.len(),
        out.attempted,
        out.failed,
        num(out.failed as f64 / out.attempted as f64),
    );
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  pass seconds: {}", fmt(&out.pass_s));
    println!("  wall pass seconds: {}", fmt(&out.raw_pass_s));
    println!("  wall setup seconds: {}", num(out.raw_setup_s));
    for (app, s) in &out.op_median_s {
        println!("  {app:<24} {s:>16.4} s median op");
    }
    for m in &out.metrics {
        println!("  {:<24} {:>16} {}", m.name, num(m.value), m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
