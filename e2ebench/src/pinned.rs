//! Pinned simulated results: the benchmark's correctness oracle.
//!
//! `pinned.json` records, per scale and application, the serialized
//! final-memory fingerprint and, per run key (an [`ExecMode`] display name,
//! `guarded` or `multi2`), the run's `total_cycles` plus a digest of the
//! whole [`RunReport`] JSON. An op whose report differs from its pin in any
//! simulated statistic counts as failed, so a host-time change that moves
//! Fig. 9–14 results cannot pass silently.
//!
//! Regenerate with `cargo run --release -- --write-pins` (both scales) and
//! say in the change why the simulated results moved.

use blockmaestro::RunReport;
use bm_trace::json::{parse, Json};
use bm_workloads::Scale;
use std::collections::BTreeMap;
use std::path::Path;

/// Pinned results of one run key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPin {
    /// `RunReport::total_cycles`.
    pub total_cycles: u64,
    /// [`digest`] of the whole report.
    pub digest: u64,
}

impl RunPin {
    /// The pin a report would produce.
    pub fn of(report: &RunReport) -> Self {
        RunPin {
            total_cycles: report.total_cycles,
            digest: digest(report),
        }
    }
}

/// Pinned results of one application at one scale.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppPins {
    /// Fingerprint of the serialized execution's final memory.
    pub serialized_fp: u64,
    /// Run key -> pin.
    pub runs: BTreeMap<String, RunPin>,
}

impl AppPins {
    /// Checks `report` against the pin recorded under `key`.
    ///
    /// # Errors
    ///
    /// A description of the first difference, or of a missing pin.
    pub fn check(&self, key: &str, report: &RunReport) -> Result<(), String> {
        let pin = self
            .runs
            .get(key)
            .ok_or_else(|| format!("no pinned result for {key}"))?;
        if report.total_cycles != pin.total_cycles {
            return Err(format!(
                "{key}: total_cycles {} differs from pinned {}",
                report.total_cycles, pin.total_cycles
            ));
        }
        if digest(report) != pin.digest {
            return Err(format!("{key}: report differs from the pinned digest"));
        }
        Ok(())
    }

    /// Checks a serialized-execution fingerprint against the pin.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    pub fn check_serialized(&self, fp: u64) -> Result<(), String> {
        if fp == self.serialized_fp {
            Ok(())
        } else {
            Err(format!(
                "serialized fingerprint {fp:#018x} differs from pinned {:#018x}",
                self.serialized_fp
            ))
        }
    }
}

/// FNV-1a over the report's canonical (sorted-key) JSON: covers every
/// simulated statistic, the schedule and the guard accounting.
fn digest(report: &RunReport) -> u64 {
    report
        .to_json()
        .to_string()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The JSON section name of a scale.
pub fn scale_key(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Small => "small",
    }
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

fn parse_hex(j: Option<&Json>, what: &str) -> Result<u64, String> {
    let s = j
        .and_then(Json::as_str)
        .ok_or_else(|| format!("pinned {what} missing"))?;
    u64::from_str_radix(s.trim_start_matches("0x"), 16).map_err(|e| format!("pinned {what}: {e}"))
}

/// Loads the pins of `scale` from `path`.
///
/// # Errors
///
/// I/O or format problems, described.
pub fn load(path: &Path, scale: Scale) -> Result<BTreeMap<String, AppPins>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let apps = root
        .get(scale_key(scale))
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{}: no {} section", path.display(), scale_key(scale)))?;
    let mut out = BTreeMap::new();
    for (name, app) in apps {
        let mut pins = AppPins {
            serialized_fp: parse_hex(app.get("serialized_fp"), "serialized_fp")?,
            runs: BTreeMap::new(),
        };
        let runs = app
            .get("runs")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{name}: pinned runs missing"))?;
        for (key, run) in runs {
            let total_cycles = run
                .get("total_cycles")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}/{key}: total_cycles missing"))?;
            let digest = parse_hex(run.get("digest"), "digest")?;
            pins.runs.insert(
                key.clone(),
                RunPin {
                    total_cycles,
                    digest,
                },
            );
        }
        out.insert(name.clone(), pins);
    }
    Ok(out)
}

/// Renders pins for every scale as the `pinned.json` text, one run per
/// line so diffs of re-pinned results stay readable.
pub fn render(scales: &[(Scale, BTreeMap<String, AppPins>)]) -> String {
    let scales: Vec<String> = scales
        .iter()
        .map(|(scale, apps)| {
            let apps: Vec<String> = apps
                .iter()
                .map(|(name, pins)| {
                    let runs: Vec<String> = pins
                        .runs
                        .iter()
                        .map(|(key, pin)| {
                            format!(
                                "        \"{key}\": {{\"total_cycles\": {}, \"digest\": \"{}\"}}",
                                pin.total_cycles,
                                hex(pin.digest)
                            )
                        })
                        .collect();
                    format!(
                        "    \"{name}\": {{\n      \"serialized_fp\": \"{}\",\n      \"runs\": {{\n{}\n      }}\n    }}",
                        hex(pins.serialized_fp),
                        runs.join(",\n")
                    )
                })
                .collect();
            format!("  \"{}\": {{\n{}\n  }}", scale_key(*scale), apps.join(",\n"))
        })
        .collect();
    format!("{{\n{}\n}}\n", scales.join(",\n"))
}
