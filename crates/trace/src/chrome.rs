//! Chrome trace-event JSON export.
//!
//! Produces a `{"traceEvents": [...]}` document loadable by Perfetto and
//! `chrome://tracing`. Timestamps are raw virtual cycles (analysis events
//! use the analysis tick clock, command-queue events their stream
//! position); the `ts` unit is nominally microseconds to the viewer, so
//! read "1 µs" as "1 cycle".
//!
//! Track layout:
//!
//! | pid      | process          | content                                       |
//! |----------|------------------|-----------------------------------------------|
//! | 1        | `host`           | kernel spans (issue→retire) + run instants    |
//! | 2        | `cmdq`           | command submits on the position clock         |
//! | 3        | `scheduler-hw`   | DLB/PCB events + buffer-level counters        |
//! | 4        | `analysis`       | JIT pipeline spans + cache/affine instants    |
//! | 6        | `interconnect`   | cross-device transfer spans (multi-GPU runs)  |
//! | 100 + n  | `SM n`           | TB spans (lane-assigned) + residency counter  |
//!
//! Multi-device runs emit a [`TraceEvent::MultiTopology`] header; when
//! present, global SM id `n` is rendered as process `D{d}·SM{s}` with
//! `d = n / sms_per_device`, `s = n % sms_per_device`, giving each device
//! its own visually-grouped block of SM lanes.
//!
//! Within a track, overlapping spans (e.g. pre-launched kernels, TBs
//! sharing an SM) are assigned to lanes by a deterministic first-fit so
//! that every `tid` carries a non-overlapping — hence properly nested —
//! span sequence.

use crate::event::TraceEvent;
use crate::json::Json;

/// pid of the host (kernel lifecycle) track.
pub const PID_HOST: u64 = 1;
/// pid of the command-queue track.
pub const PID_CMDQ: u64 = 2;
/// pid of the scheduler-hardware track.
pub const PID_SCHED_HW: u64 = 3;
/// pid of the analysis-pipeline track.
pub const PID_ANALYSIS: u64 = 4;
/// pid of the serve-layer (admission/retry/breaker) track.
pub const PID_SERVE: u64 = 5;
/// pid of the multi-GPU interconnect track.
pub const PID_LINK: u64 = 6;
/// pid of SM `n` is `PID_SM_BASE + n`.
pub const PID_SM_BASE: u64 = 100;

/// tid carrying instant events on the host and analysis tracks (span
/// lanes count up from 0, so a high tid keeps them visually separate).
pub const TID_INSTANTS: u64 = 90;

struct Span {
    start: u64,
    end: u64,
    name: String,
    args: Json,
}

/// Deterministic first-fit lane assignment: spans are visited in
/// `(start, end, name)` order and each goes to the first lane whose last
/// span has already finished. Guarantees non-overlap within a lane.
fn assign_lanes(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        let sa = &spans[a];
        let sb = &spans[b];
        (sa.start, sa.end, sa.name.as_str()).cmp(&(sb.start, sb.end, sb.name.as_str()))
    });
    let mut lane_free_at: Vec<u64> = Vec::new();
    let mut lanes = vec![0u64; spans.len()];
    for idx in order {
        let s = &spans[idx];
        let lane = match lane_free_at.iter().position(|&free| free <= s.start) {
            Some(l) => l,
            None => {
                lane_free_at.push(0);
                lane_free_at.len() - 1
            }
        };
        lane_free_at[lane] = s.end.max(s.start.saturating_add(1));
        lanes[idx] = lane as u64;
    }
    lanes
}

fn complete_event(pid: u64, tid: u64, s: &Span) -> Json {
    Json::obj([
        ("ph", Json::str("X")),
        ("name", Json::str(s.name.clone())),
        ("pid", Json::int(pid)),
        ("tid", Json::int(tid)),
        ("ts", Json::int(s.start)),
        ("dur", Json::int(s.end.saturating_sub(s.start))),
        ("args", s.args.clone()),
    ])
}

fn instant_event(pid: u64, tid: u64, ts: u64, name: &str, args: Json) -> Json {
    Json::obj([
        ("ph", Json::str("i")),
        ("s", Json::str("t")),
        ("name", Json::str(name)),
        ("pid", Json::int(pid)),
        ("tid", Json::int(tid)),
        ("ts", Json::int(ts)),
        ("args", args),
    ])
}

fn counter_event(pid: u64, ts: u64, name: &str, args: Json) -> Json {
    Json::obj([
        ("ph", Json::str("C")),
        ("name", Json::str(name)),
        ("pid", Json::int(pid)),
        ("tid", Json::int(0)),
        ("ts", Json::int(ts)),
        ("args", args),
    ])
}

fn meta(pid: u64, tid: Option<u64>, kind: &str, name: &str) -> Json {
    let mut pairs = vec![
        ("ph", Json::str("M")),
        ("name", Json::str(kind)),
        ("pid", Json::int(pid)),
        ("args", Json::obj([("name", Json::str(name))])),
    ];
    if let Some(tid) = tid {
        pairs.push(("tid", Json::int(tid)));
    }
    Json::obj(pairs)
}

/// Export a recorded event stream as a Chrome trace-event JSON document.
///
/// The output is deterministic: same event stream in, byte-identical
/// document out.
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    use std::collections::BTreeMap;

    let mut out: Vec<Json> = Vec::new();
    let mut thread_names: BTreeMap<(u64, u64), String> = BTreeMap::new();
    let mut process_names: BTreeMap<u64, String> = BTreeMap::new();

    // ---- multi-device topology header --------------------------------
    let topo: Option<(u32, u32)> = events.iter().find_map(|ev| match ev {
        TraceEvent::MultiTopology {
            devices,
            sms_per_device,
        } => Some((*devices, *sms_per_device)),
        _ => None,
    });
    let sm_process_name = |sm: u32| -> String {
        match topo {
            Some((devices, per)) if devices > 1 && per > 0 => {
                format!("D{}·SM{}", sm / per, sm % per)
            }
            _ => format!("SM {sm}"),
        }
    };

    // ---- kernel lifecycle → host spans -------------------------------
    #[derive(Default)]
    struct KernelLife {
        name: String,
        issue: Option<u64>,
        prelaunched: bool,
        arrive: Option<u64>,
        retire: Option<u64>,
    }
    let mut kernels: BTreeMap<u32, KernelLife> = BTreeMap::new();
    let mut last_cycle: u64 = 0;
    for ev in events {
        match ev {
            TraceEvent::KernelIssue {
                cycle,
                seq,
                name,
                prelaunched,
            } => {
                let k = kernels.entry(*seq).or_default();
                k.name = name.clone();
                k.issue = Some(*cycle);
                k.prelaunched = *prelaunched;
            }
            TraceEvent::KernelArrive { cycle, seq } => {
                kernels.entry(*seq).or_default().arrive = Some(*cycle);
            }
            TraceEvent::KernelRetire { cycle, seq } => {
                kernels.entry(*seq).or_default().retire = Some(*cycle);
            }
            _ => {}
        }
        last_cycle = last_cycle.max(ev.timestamp());
        if let TraceEvent::TbSpan { finish, .. } = ev {
            last_cycle = last_cycle.max(*finish);
        }
    }
    let kernel_spans: Vec<Span> = kernels
        .iter()
        .filter_map(|(seq, k)| {
            let start = k.issue?;
            let end = k.retire.unwrap_or(last_cycle).max(start);
            let mut name = k.name.clone();
            if name.is_empty() {
                name = format!("kernel{seq}");
            }
            Some(Span {
                start,
                end,
                name,
                args: Json::obj([
                    ("seq", Json::int(*seq as u64)),
                    ("prelaunched", Json::Bool(k.prelaunched)),
                    ("arrive", k.arrive.map(Json::int).unwrap_or(Json::Null)),
                ]),
            })
        })
        .collect();
    if !kernel_spans.is_empty() {
        process_names.insert(PID_HOST, "host".to_string());
        let lanes = assign_lanes(&kernel_spans);
        for (s, lane) in kernel_spans.iter().zip(&lanes) {
            thread_names
                .entry((PID_HOST, *lane))
                .or_insert_with(|| format!("kernels-{lane}"));
            out.push(complete_event(PID_HOST, *lane, s));
        }
    }

    // ---- analysis pipeline spans -------------------------------------
    let analysis_spans: Vec<Span> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::AnalysisSpan {
                seq,
                name,
                phase,
                start_tick,
                end_tick,
            } => Some(Span {
                start: *start_tick,
                end: (*end_tick).max(*start_tick),
                name: format!("{name}/{phase}"),
                args: Json::obj([
                    ("seq", Json::int(*seq as u64)),
                    ("phase", Json::str(phase.to_string())),
                ]),
            }),
            _ => None,
        })
        .collect();
    if !analysis_spans.is_empty() {
        process_names.insert(PID_ANALYSIS, "analysis".to_string());
        let lanes = assign_lanes(&analysis_spans);
        for (s, lane) in analysis_spans.iter().zip(&lanes) {
            thread_names
                .entry((PID_ANALYSIS, *lane))
                .or_insert_with(|| format!("pipeline-{lane}"));
            out.push(complete_event(PID_ANALYSIS, *lane, s));
        }
    }

    // ---- SM tracks: TB spans (lane-assigned per SM) ------------------
    let mut per_sm: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    for ev in events {
        if let TraceEvent::TbSpan {
            id,
            sm,
            start,
            finish,
        } = ev
        {
            per_sm.entry(*sm).or_default().push(Span {
                start: *start,
                end: (*finish).max(*start),
                name: id.to_string(),
                args: Json::obj([
                    ("kernel", Json::int(id.kernel as u64)),
                    ("tb", Json::int(id.tb as u64)),
                ]),
            });
        }
    }
    for (sm, spans) in &per_sm {
        let pid = PID_SM_BASE + *sm as u64;
        process_names.insert(pid, sm_process_name(*sm));
        let lanes = assign_lanes(spans);
        for (s, lane) in spans.iter().zip(&lanes) {
            thread_names
                .entry((pid, *lane))
                .or_insert_with(|| format!("lane {lane}"));
            out.push(complete_event(pid, *lane, s));
        }
    }

    // ---- interconnect track: transfer spans (send → arrival) ---------
    let xfer_spans: Vec<Span> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::XferDone {
                cycle,
                sent,
                src,
                dst,
                id,
                bytes,
            } => Some(Span {
                start: *sent,
                end: (*cycle).max(*sent),
                name: format!("{id} d{src}→d{dst}"),
                args: Json::obj([
                    ("src", Json::int(*src as u64)),
                    ("dst", Json::int(*dst as u64)),
                    ("bytes", Json::int(*bytes)),
                ]),
            }),
            _ => None,
        })
        .collect();
    if !xfer_spans.is_empty() {
        process_names.insert(PID_LINK, "interconnect".to_string());
        let lanes = assign_lanes(&xfer_spans);
        for (s, lane) in xfer_spans.iter().zip(&lanes) {
            thread_names
                .entry((PID_LINK, *lane))
                .or_insert_with(|| format!("link {lane}"));
            out.push(complete_event(PID_LINK, *lane, s));
        }
    }

    // ---- single pass for instants and counters -----------------------
    for ev in events {
        match ev {
            TraceEvent::SmOccupancy {
                cycle,
                sm,
                resident,
            } => {
                let pid = PID_SM_BASE + *sm as u64;
                process_names.insert(pid, sm_process_name(*sm));
                out.push(counter_event(
                    pid,
                    *cycle,
                    "resident",
                    Json::obj([("tbs", Json::int(*resident as u64))]),
                ));
            }
            TraceEvent::TbStall {
                cycle,
                id,
                ready_at,
                reason,
            } => {
                process_names.insert(PID_HOST, "host".to_string());
                thread_names
                    .entry((PID_HOST, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_HOST,
                    TID_INSTANTS,
                    *cycle,
                    &format!("stall {id}"),
                    Json::obj([
                        ("ready_at", Json::int(*ready_at)),
                        ("stalled", Json::int(cycle.saturating_sub(*ready_at))),
                        ("reason", Json::str(reason.to_string())),
                    ]),
                ));
            }
            TraceEvent::Pressure {
                cycle,
                spill,
                window_before,
                window_after,
            } => {
                process_names.insert(PID_HOST, "host".to_string());
                thread_names
                    .entry((PID_HOST, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_HOST,
                    TID_INSTANTS,
                    *cycle,
                    "pressure",
                    Json::obj([
                        ("spill", Json::int(*spill)),
                        ("window_before", Json::int(*window_before as u64)),
                        ("window_after", Json::int(*window_after as u64)),
                    ]),
                ));
            }
            TraceEvent::Quarantine {
                cycle,
                kernel,
                round,
            } => {
                process_names.insert(PID_HOST, "host".to_string());
                thread_names
                    .entry((PID_HOST, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_HOST,
                    TID_INSTANTS,
                    *cycle,
                    "quarantine",
                    Json::obj([
                        ("kernel", Json::int(*kernel as u64)),
                        ("round", Json::int(*round as u64)),
                    ]),
                ));
            }
            TraceEvent::DegradationStamp {
                cycle,
                seq,
                rung,
                reason,
            } => {
                process_names.insert(PID_HOST, "host".to_string());
                thread_names
                    .entry((PID_HOST, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_HOST,
                    TID_INSTANTS,
                    *cycle,
                    "degradation",
                    Json::obj([
                        ("seq", Json::int(*seq as u64)),
                        ("rung", Json::str(rung.clone())),
                        ("reason", Json::str(reason.clone())),
                    ]),
                ));
            }
            TraceEvent::CheckpointSave {
                cycle,
                retired,
                bytes,
            } => {
                process_names.insert(PID_HOST, "host".to_string());
                thread_names
                    .entry((PID_HOST, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_HOST,
                    TID_INSTANTS,
                    *cycle,
                    "checkpoint-save",
                    Json::obj([
                        ("retired", Json::int(*retired as u64)),
                        ("bytes", Json::int(*bytes)),
                    ]),
                ));
            }
            TraceEvent::CheckpointLoad { cycle, retired } => {
                process_names.insert(PID_HOST, "host".to_string());
                thread_names
                    .entry((PID_HOST, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_HOST,
                    TID_INSTANTS,
                    *cycle,
                    "checkpoint-load",
                    Json::obj([("retired", Json::int(*retired as u64))]),
                ));
            }
            TraceEvent::CheckpointReject { reason } => {
                process_names.insert(PID_HOST, "host".to_string());
                thread_names
                    .entry((PID_HOST, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_HOST,
                    TID_INSTANTS,
                    0,
                    "checkpoint-reject",
                    Json::obj([("reason", Json::str(reason.clone()))]),
                ));
            }
            TraceEvent::CmdqSubmit { pos, orig, kind } => {
                process_names.insert(PID_CMDQ, "cmdq".to_string());
                thread_names
                    .entry((PID_CMDQ, 0))
                    .or_insert_with(|| "stream".to_string());
                out.push(instant_event(
                    PID_CMDQ,
                    0,
                    *pos as u64,
                    &kind.to_string(),
                    Json::obj([
                        ("pos", Json::int(*pos as u64)),
                        ("orig", Json::int(*orig as u64)),
                        ("reordered", Json::Bool(pos != orig)),
                    ]),
                ));
            }
            TraceEvent::DlbInsert {
                cycle,
                id,
                children,
                fetch_txns,
                encoded,
            } => {
                process_names.insert(PID_SCHED_HW, "scheduler-hw".to_string());
                thread_names
                    .entry((PID_SCHED_HW, 0))
                    .or_insert_with(|| "dlb-pcb".to_string());
                out.push(instant_event(
                    PID_SCHED_HW,
                    0,
                    *cycle,
                    &format!("dlb-insert {id}"),
                    Json::obj([
                        ("children", Json::int(*children as u64)),
                        ("fetch_txns", Json::int(*fetch_txns)),
                        ("encoded", Json::Bool(*encoded)),
                    ]),
                ));
            }
            TraceEvent::PcbInit {
                cycle,
                id,
                count,
                refetch,
            } => {
                process_names.insert(PID_SCHED_HW, "scheduler-hw".to_string());
                thread_names
                    .entry((PID_SCHED_HW, 0))
                    .or_insert_with(|| "dlb-pcb".to_string());
                out.push(instant_event(
                    PID_SCHED_HW,
                    0,
                    *cycle,
                    &format!("pcb-init {id}"),
                    Json::obj([
                        ("count", Json::int(*count as u64)),
                        ("refetch", Json::Bool(*refetch)),
                    ]),
                ));
            }
            TraceEvent::PcbSpill { cycle, victim } => {
                process_names.insert(PID_SCHED_HW, "scheduler-hw".to_string());
                thread_names
                    .entry((PID_SCHED_HW, 0))
                    .or_insert_with(|| "dlb-pcb".to_string());
                out.push(instant_event(
                    PID_SCHED_HW,
                    0,
                    *cycle,
                    &format!("pcb-spill {victim}"),
                    Json::obj([]),
                ));
            }
            TraceEvent::BufferLevels { cycle, dlb, pcb } => {
                process_names.insert(PID_SCHED_HW, "scheduler-hw".to_string());
                out.push(counter_event(
                    PID_SCHED_HW,
                    *cycle,
                    "buffers",
                    Json::obj([
                        ("dlb", Json::int(*dlb as u64)),
                        ("pcb", Json::int(*pcb as u64)),
                    ]),
                ));
            }
            TraceEvent::AffineFastPath {
                tick,
                seq,
                attempted,
                accepted,
                interpreted,
                synthesized,
            } => {
                process_names.insert(PID_ANALYSIS, "analysis".to_string());
                thread_names
                    .entry((PID_ANALYSIS, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_ANALYSIS,
                    TID_INSTANTS,
                    *tick,
                    if *accepted {
                        "affine-accept"
                    } else {
                        "affine-reject"
                    },
                    Json::obj([
                        ("seq", Json::int(*seq as u64)),
                        ("attempted", Json::Bool(*attempted)),
                        ("interpreted", Json::int(*interpreted as u64)),
                        ("synthesized", Json::int(*synthesized as u64)),
                    ]),
                ));
            }
            TraceEvent::CacheProbe {
                tick,
                seq,
                graph,
                hit,
            } => {
                process_names.insert(PID_ANALYSIS, "analysis".to_string());
                thread_names
                    .entry((PID_ANALYSIS, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                let name = match (graph, hit) {
                    (false, true) => "cache-hit",
                    (false, false) => "cache-miss",
                    (true, true) => "graph-cache-hit",
                    (true, false) => "graph-cache-miss",
                };
                out.push(instant_event(
                    PID_ANALYSIS,
                    TID_INSTANTS,
                    *tick,
                    name,
                    Json::obj([("seq", Json::int(*seq as u64))]),
                ));
            }
            TraceEvent::RungTransition {
                tick,
                seq,
                rung,
                reason,
            } => {
                process_names.insert(PID_ANALYSIS, "analysis".to_string());
                thread_names
                    .entry((PID_ANALYSIS, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_ANALYSIS,
                    TID_INSTANTS,
                    *tick,
                    &format!("rung→{rung}"),
                    Json::obj([
                        ("seq", Json::int(*seq as u64)),
                        ("reason", Json::str(reason.clone())),
                    ]),
                ));
            }
            TraceEvent::ServeAdmit {
                tick,
                request,
                queued,
            } => {
                process_names.insert(PID_SERVE, "serve".to_string());
                thread_names
                    .entry((PID_SERVE, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_SERVE,
                    TID_INSTANTS,
                    *tick,
                    &format!("admit r{request}"),
                    Json::obj([("queued", Json::int(*queued as u64))]),
                ));
            }
            TraceEvent::ServeStart {
                tick,
                request,
                worker,
                attempt,
            } => {
                process_names.insert(PID_SERVE, "serve".to_string());
                thread_names
                    .entry((PID_SERVE, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_SERVE,
                    TID_INSTANTS,
                    *tick,
                    &format!("start r{request}"),
                    Json::obj([
                        ("worker", Json::int(*worker as u64)),
                        ("attempt", Json::int(*attempt as u64)),
                    ]),
                ));
            }
            TraceEvent::ServeRetry {
                tick,
                request,
                attempt,
                backoff,
                reason,
            } => {
                process_names.insert(PID_SERVE, "serve".to_string());
                thread_names
                    .entry((PID_SERVE, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_SERVE,
                    TID_INSTANTS,
                    *tick,
                    &format!("retry r{request}"),
                    Json::obj([
                        ("attempt", Json::int(*attempt as u64)),
                        ("backoff", Json::int(*backoff)),
                        ("reason", Json::str(reason.clone())),
                    ]),
                ));
            }
            TraceEvent::ServeCancel {
                tick,
                request,
                deadline,
            } => {
                process_names.insert(PID_SERVE, "serve".to_string());
                thread_names
                    .entry((PID_SERVE, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_SERVE,
                    TID_INSTANTS,
                    *tick,
                    if *deadline { "deadline" } else { "cancel" },
                    Json::obj([("request", Json::int(*request))]),
                ));
            }
            TraceEvent::ServeComplete {
                tick,
                request,
                outcome,
            } => {
                process_names.insert(PID_SERVE, "serve".to_string());
                thread_names
                    .entry((PID_SERVE, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_SERVE,
                    TID_INSTANTS,
                    *tick,
                    &format!("complete r{request}"),
                    Json::obj([("outcome", Json::str(outcome.clone()))]),
                ));
            }
            TraceEvent::BreakerTransition {
                tick,
                app_fp,
                from,
                to,
            } => {
                process_names.insert(PID_SERVE, "serve".to_string());
                thread_names
                    .entry((PID_SERVE, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_SERVE,
                    TID_INSTANTS,
                    *tick,
                    &format!("breaker {from}→{to}"),
                    Json::obj([("app_fp", Json::int(*app_fp))]),
                ));
            }
            TraceEvent::XferStart {
                cycle,
                src,
                dst,
                id,
                bytes,
            } => {
                process_names.insert(PID_LINK, "interconnect".to_string());
                thread_names
                    .entry((PID_LINK, TID_INSTANTS))
                    .or_insert_with(|| "events".to_string());
                out.push(instant_event(
                    PID_LINK,
                    TID_INSTANTS,
                    *cycle,
                    &format!("send {id} d{src}→d{dst}"),
                    Json::obj([("bytes", Json::int(*bytes))]),
                ));
            }
            // Span-producing and summary-only events handled elsewhere.
            TraceEvent::TbSpan { .. }
            | TraceEvent::TbReady { .. }
            | TraceEvent::KernelIssue { .. }
            | TraceEvent::KernelArrive { .. }
            | TraceEvent::KernelRetire { .. }
            | TraceEvent::AnalysisSpan { .. }
            | TraceEvent::MultiTopology { .. }
            | TraceEvent::XferDone { .. } => {}
        }
    }

    // ---- metadata first, then the events -----------------------------
    let mut doc: Vec<Json> = Vec::new();
    for (pid, name) in &process_names {
        doc.push(meta(*pid, None, "process_name", name));
    }
    for ((pid, tid), name) in &thread_names {
        doc.push(meta(*pid, Some(*tid), "thread_name", name));
    }
    doc.extend(out);

    Json::obj([
        ("traceEvents", Json::Arr(doc)),
        ("displayTimeUnit", Json::str("ns")),
        (
            "otherData",
            Json::obj([("clock", Json::str("virtual-cycles"))]),
        ),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{StallReason, TbId};
    use crate::json;

    #[test]
    fn lanes_never_overlap() {
        let spans = vec![
            Span {
                start: 0,
                end: 10,
                name: "a".into(),
                args: Json::Null,
            },
            Span {
                start: 5,
                end: 15,
                name: "b".into(),
                args: Json::Null,
            },
            Span {
                start: 10,
                end: 20,
                name: "c".into(),
                args: Json::Null,
            },
        ];
        let lanes = assign_lanes(&spans);
        assert_eq!(lanes[0], 0);
        assert_eq!(lanes[1], 1); // overlaps a
        assert_eq!(lanes[2], 0); // a finished at 10
    }

    #[test]
    fn export_is_valid_json_with_tracks() {
        let events = vec![
            TraceEvent::KernelIssue {
                cycle: 0,
                seq: 0,
                name: "k0".into(),
                prelaunched: false,
            },
            TraceEvent::TbSpan {
                id: TbId { kernel: 0, tb: 0 },
                sm: 2,
                start: 10,
                finish: 30,
            },
            TraceEvent::SmOccupancy {
                cycle: 10,
                sm: 2,
                resident: 1,
            },
            TraceEvent::TbStall {
                cycle: 12,
                id: TbId { kernel: 0, tb: 1 },
                ready_at: 4,
                reason: StallReason::Resources,
            },
            TraceEvent::KernelRetire { cycle: 40, seq: 0 },
        ];
        let text = export_chrome_trace(&events);
        let doc = json::parse(&text).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!evs.is_empty());
        // Every event has ph/pid; non-metadata have ts.
        for e in evs {
            assert!(e.get("ph").is_some());
            assert!(e.get("pid").is_some());
            if e.get("ph").unwrap().as_str() != Some("M") {
                assert!(e.get("ts").is_some());
            }
        }
        // Kernel span landed on the host pid, TB span on SM 2's pid.
        assert!(evs.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("pid").and_then(|p| p.as_num()) == Some(PID_HOST as f64)
        }));
        assert!(evs.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("pid").and_then(|p| p.as_num()) == Some((PID_SM_BASE + 2) as f64)
        }));
    }
}
