//! The virtual interconnect: a deterministic latency/bandwidth model for
//! cross-device messages.
//!
//! Every directed `(src, dst)` link is a serial pipe. A data message sent
//! at cycle `t` starts transmitting at `max(t, busy[src][dst])`, occupies
//! the link for `ceil(bytes / bandwidth)` cycles, and lands after the
//! propagation latency on top. Zero configured latency is modeled as one
//! cycle so a message can never arrive in the epoch that sent it — the
//! bounded-lag round protocol in [`crate::run`] relies on that.
//!
//! Fault injection rides the same path: [`blockmaestro::FaultPlan`]'s
//! `link_drop_nth` / `link_corrupt_nth` target the n-th *data* transfer.
//! A faulted transfer is charged like any other but never delivered; the
//! interconnect records the detection cycle so the coordinator can abandon
//! the multi-device attempt.

use crate::MultiGpuConfig;
use bm_trace::{TbId, TraceEvent, Tracer};

/// Deterministic per-link-pair transfer model with fault injection.
pub struct Interconnect {
    devices: u32,
    /// Effective propagation latency: configured latency, floored at one
    /// cycle to preserve round causality.
    eff_latency: u64,
    bandwidth: u64,
    /// `busy[src * devices + dst]`: cycle at which the directed link frees.
    busy: Vec<u64>,
    /// 0-based index of the next data transfer (fault targeting).
    next_id: u64,
    drop_nth: Option<u64>,
    corrupt_nth: Option<u64>,
    /// Cycle at which the first dropped/corrupted transfer was detected.
    pub fault_detected: Option<u64>,
    /// Send cycle of the first message whose arrival would pass
    /// `u64::MAX` cycles; such a message is never delivered.
    pub overflow_at: Option<u64>,
    /// Completed (charged) data transfers, including faulted ones.
    pub transfers: u64,
    /// Total bytes moved across devices.
    pub transfer_bytes: u64,
    /// Total cycles spent in flight, summed over transfers.
    pub transfer_cycles: u64,
}

impl Interconnect {
    pub fn new(mcfg: &MultiGpuConfig, drop_nth: Option<u64>, corrupt_nth: Option<u64>) -> Self {
        let devices = mcfg.devices.max(1);
        Interconnect {
            devices,
            eff_latency: mcfg.link_latency_cycles.max(1),
            bandwidth: mcfg.link_bandwidth_bytes_per_cycle.max(1),
            busy: vec![0; (devices as usize) * (devices as usize)],
            next_id: 0,
            drop_nth,
            corrupt_nth,
            fault_detected: None,
            overflow_at: None,
            transfers: 0,
            transfer_bytes: 0,
            transfer_cycles: 0,
        }
    }

    /// The effective propagation latency — also the bounded-lag lookahead.
    pub fn lookahead(&self) -> u64 {
        self.eff_latency
    }

    /// Charges a data transfer of `bytes` from `src` to `dst` sent at
    /// `send_t`, carrying the dependency message for child TB `id`.
    /// Returns `Some(arrival)`, or `None` if this transfer is the fault
    /// plan's victim (dropped or corrupted in flight) or would arrive past
    /// `u64::MAX` cycles ([`Interconnect::overflow_at`]).
    pub fn send_data<T: Tracer>(
        &mut self,
        tracer: &T,
        send_t: u64,
        src: u32,
        dst: u32,
        bytes: u64,
        id: TbId,
    ) -> Option<u64> {
        let nth = self.next_id;
        self.next_id += 1;
        let slot = (src * self.devices + dst) as usize;
        let start = send_t.max(self.busy[slot]);
        let occupy = bytes.div_ceil(self.bandwidth);
        let Some(arrival) = start
            .checked_add(occupy)
            .and_then(|free| free.checked_add(self.eff_latency))
        else {
            self.overflow_at.get_or_insert(send_t);
            return None;
        };
        // At most `arrival`, so in range.
        self.busy[slot] = start + occupy;
        self.transfers += 1;
        self.transfer_bytes += bytes;
        self.transfer_cycles += arrival - send_t;
        if T::ENABLED {
            tracer.emit(TraceEvent::XferStart {
                cycle: send_t,
                src,
                dst,
                id,
                bytes,
            });
        }
        let faulted = self.drop_nth == Some(nth) || self.corrupt_nth == Some(nth);
        if faulted {
            // The damage is detected at the would-be arrival (drop: timeout
            // at the delivery deadline; corrupt: integrity check on
            // receipt). Only the first fault matters.
            self.fault_detected.get_or_insert(arrival);
            return None;
        }
        if T::ENABLED {
            tracer.emit(TraceEvent::XferDone {
                cycle: arrival,
                sent: send_t,
                src,
                dst,
                id,
                bytes,
            });
        }
        Some(arrival)
    }

    /// Arrival time of a zero-payload control message (completion
    /// broadcasts): propagation latency only, no link occupancy and no
    /// transfer accounting. `None` when it would arrive past `u64::MAX`
    /// cycles ([`Interconnect::overflow_at`]).
    pub fn send_control(&mut self, send_t: u64) -> Option<u64> {
        let arrival = send_t.checked_add(self.eff_latency);
        if arrival.is_none() {
            self.overflow_at.get_or_insert(send_t);
        }
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_trace::NullTracer;

    fn tb(n: u32) -> TbId {
        TbId { kernel: 0, tb: n }
    }

    fn cfg(devices: u32, latency: u64, bw: u64) -> MultiGpuConfig {
        MultiGpuConfig {
            devices,
            link_latency_cycles: latency,
            link_bandwidth_bytes_per_cycle: bw,
            ..MultiGpuConfig::default()
        }
    }

    #[test]
    fn serialization_on_one_link() {
        let mut ic = Interconnect::new(&cfg(2, 100, 8), None, None);
        // 64 bytes at 8 B/cycle = 8 cycles occupancy + 100 latency.
        let a = ic.send_data(&NullTracer, 0, 0, 1, 64, tb(0)).unwrap();
        assert_eq!(a, 108);
        // Sent at 0 too, but the link frees at 8 → arrives at 116.
        let b = ic.send_data(&NullTracer, 0, 0, 1, 64, tb(0)).unwrap();
        assert_eq!(b, 116);
        // The reverse direction is a separate link.
        let c = ic.send_data(&NullTracer, 0, 1, 0, 64, tb(1)).unwrap();
        assert_eq!(c, 108);
        assert_eq!(ic.transfers, 3);
        assert_eq!(ic.transfer_bytes, 192);
    }

    #[test]
    fn zero_latency_is_floored_to_one_cycle() {
        let mut ic = Interconnect::new(&cfg(2, 0, 1_000_000), None, None);
        assert_eq!(ic.lookahead(), 1);
        let a = ic.send_data(&NullTracer, 10, 0, 1, 4, tb(2)).unwrap();
        assert!(a > 10, "a message must never arrive in its send cycle");
    }

    #[test]
    fn nth_transfer_is_dropped_and_detected() {
        let mut ic = Interconnect::new(&cfg(2, 10, 8), Some(1), None);
        assert!(ic.send_data(&NullTracer, 0, 0, 1, 8, tb(3)).is_some());
        assert!(ic.send_data(&NullTracer, 0, 0, 1, 8, tb(3)).is_none());
        assert!(ic.fault_detected.is_some());
        // Still charged: the bytes went over the wire before the loss.
        assert_eq!(ic.transfers, 2);
    }
}
