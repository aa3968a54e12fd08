//! The counter registry: monotonic event counters plus high-water gauges,
//! folded incrementally from the event stream.

use std::collections::BTreeMap;

use crate::event::TraceEvent;

/// Monotonic counters and high-water gauges derived from a trace.
///
/// Counters are keyed by the event's [`TraceEvent::kind`] label plus a few
/// derived keys (e.g. `pcb_refetch`, `cache_hit`). Gauges track running
/// values with their observed maximum (high water). `BTreeMap` keeps
/// iteration — and therefore every export — deterministic.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CounterRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
}

/// A gauge: current value plus observed maximum.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Gauge {
    /// Most recent value.
    pub current: u64,
    /// Highest value ever set (the high-water mark).
    pub high_water: u64,
}

impl CounterRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `key`, creating it at zero if absent.
    pub fn add(&mut self, key: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        *self.counters.entry(key.to_string()).or_insert(0) += delta;
    }

    /// Increment counter `key` by one.
    pub fn bump(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Set gauge `key` to `value`, updating its high-water mark.
    pub fn set_gauge(&mut self, key: &str, value: u64) {
        let g = self.gauges.entry(key.to_string()).or_default();
        g.current = value;
        g.high_water = g.high_water.max(value);
    }

    /// Read counter `key` (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Read gauge `key`, if ever set.
    pub fn gauge(&self, key: &str) -> Option<Gauge> {
        self.gauges.get(key).copied()
    }

    /// Iterate counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, Gauge)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Fold one event into the registry. Called by recording sinks on
    /// every emit, so registries stay consistent with the event stream.
    pub fn fold(&mut self, ev: &TraceEvent) {
        self.bump(ev.kind());
        match ev {
            TraceEvent::TbStall {
                cycle, ready_at, ..
            } => {
                self.add("stall_cycles", cycle.saturating_sub(*ready_at));
            }
            TraceEvent::KernelIssue {
                prelaunched: true, ..
            } => {
                self.bump("kernel_prelaunch");
            }
            TraceEvent::SmOccupancy { sm, resident, .. } => {
                self.set_gauge(&format!("sm{sm}_resident"), *resident as u64);
            }
            TraceEvent::DlbInsert {
                fetch_txns,
                encoded,
                ..
            } => {
                self.add("dlb_fetch_txns", *fetch_txns);
                if *encoded {
                    self.bump("dlb_encoded");
                }
            }
            TraceEvent::PcbInit { refetch: true, .. } => {
                self.bump("pcb_refetch");
            }
            TraceEvent::BufferLevels { dlb, pcb, .. } => {
                self.set_gauge("dlb_level", *dlb as u64);
                self.set_gauge("pcb_level", *pcb as u64);
            }
            TraceEvent::AffineFastPath {
                attempted,
                accepted,
                interpreted,
                synthesized,
                ..
            } => {
                if *attempted {
                    self.bump("affine_attempted");
                }
                if *accepted {
                    self.bump("affine_accepted");
                }
                self.add("tbs_interpreted", *interpreted as u64);
                self.add("tbs_synthesized", *synthesized as u64);
            }
            TraceEvent::CacheProbe { graph, hit, .. } => {
                let key = match (graph, hit) {
                    (false, true) => "cache_hit",
                    (false, false) => "cache_miss",
                    (true, true) => "graph_cache_hit",
                    (true, false) => "graph_cache_miss",
                };
                self.bump(key);
            }
            TraceEvent::ServeAdmit { queued, .. } => {
                self.set_gauge("serve_queue_depth", *queued as u64);
            }
            TraceEvent::ServeCancel { deadline, .. } => {
                self.bump(if *deadline {
                    "serve_deadline_miss"
                } else {
                    "serve_explicit_cancel"
                });
            }
            TraceEvent::ServeComplete { outcome, .. } => {
                self.bump(&format!("serve_outcome_{outcome}"));
            }
            TraceEvent::BreakerTransition { to, .. } => {
                self.bump(&format!("breaker_to_{to}"));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TbId;

    #[test]
    fn fold_derives_counters_and_gauges() {
        let mut reg = CounterRegistry::new();
        reg.fold(&TraceEvent::TbStall {
            cycle: 30,
            id: TbId { kernel: 0, tb: 1 },
            ready_at: 10,
            reason: crate::event::StallReason::Resources,
        });
        assert_eq!(reg.counter("tb_stall"), 1);
        assert_eq!(reg.counter("stall_cycles"), 20);

        reg.fold(&TraceEvent::BufferLevels {
            cycle: 5,
            dlb: 7,
            pcb: 3,
        });
        reg.fold(&TraceEvent::BufferLevels {
            cycle: 9,
            dlb: 2,
            pcb: 8,
        });
        let dlb = reg.gauge("dlb_level").unwrap();
        assert_eq!(dlb.current, 2);
        assert_eq!(dlb.high_water, 7);
        let pcb = reg.gauge("pcb_level").unwrap();
        assert_eq!(pcb.high_water, 8);

        reg.fold(&TraceEvent::CacheProbe {
            tick: 0,
            seq: 0,
            graph: true,
            hit: false,
        });
        assert_eq!(reg.counter("graph_cache_miss"), 1);
        assert_eq!(reg.counter("cache_hit"), 0);

        // Deterministic iteration order.
        let keys: Vec<&str> = reg.counters().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
