//! Crash-safe checkpoint/restore: deterministic run snapshots.
//!
//! A [`RunSnapshot`] captures the complete mutable state of one engine run
//! at a kernel-retirement boundary: the DES substrate
//! ([`bm_simt::DesCheckpoint`]), the engine source (per-kernel lifecycle,
//! admission window, scheduler buffers), the soundness-guard context, the
//! command-queue reordering (as a cross-check), and — when tracing — the
//! run-phase slice of the event stream. Restoring a snapshot and running to
//! completion produces a [`crate::RunReport`] bit-identical to the
//! uninterrupted run; that equivalence is what the kill-point fault class
//! ([`crate::faults::FaultClass::KillPoint`]) proves across the seed
//! matrix.
//!
//! The on-disk format (`DESIGN.md` §10) is versioned and checksummed:
//! an 8-byte magic (`BMSNAP02`), a format version, a section table with
//! per-section CRC32s, then little-endian payloads. Every load validates
//! magic, version, table bounds, and checksums before decoding; any damage
//! surfaces as a typed [`SnapshotError`], never a panic. Writes go through
//! [`atomic_write`] (temp file + rename) so a crash mid-save never leaves a
//! half-written snapshot behind.

#![deny(clippy::unwrap_used)]

use crate::degrade::PressureEvent;
use crate::guard::GuardReport;
use crate::hw::HwTraffic;
use bm_cmdq::Application;
use bm_simt::des::{DesCheckpoint, DesStats, TbDescriptor, TbKey};
use bm_trace::json::Json;
use bm_trace::{AnalysisPhase, CmdKind, StallReason, TbId, TraceEvent};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Snapshot file magic: format name + major format generation.
pub const MAGIC: &[u8; 8] = b"BMSNAP02";
/// Current format version. Snapshots with any other version are rejected
/// with [`SnapshotError::UnsupportedVersion`]: the format carries live
/// scheduler state, so cross-version resume is never attempted.
pub const FORMAT_VERSION: u32 = 2;

const TAG_META: u32 = 1;
const TAG_DES: u32 = 2;
const TAG_ENGINE: u32 = 3;
const TAG_GUARD: u32 = 4;
const TAG_ORDER: u32 = 5;
const TAG_TRACE: u32 = 6;

/// Why a snapshot failed to save, load, or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure (message of the underlying `io::Error`).
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The header declares a format version this build cannot decode.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The buffer ends before the declared content does.
    Truncated,
    /// A section's payload does not match its recorded CRC32.
    ChecksumMismatch {
        /// Tag of the damaged section.
        section: u32,
    },
    /// The bytes decode to structurally invalid content.
    Malformed(&'static str),
    /// The snapshot is internally valid but was captured from a different
    /// application, mode, or analysis configuration than the resume target.
    AppMismatch(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot I/O: {msg}"),
            SnapshotError::BadMagic => f.write_str("not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            SnapshotError::Truncated => f.write_str("snapshot truncated"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::AppMismatch(what) => {
                write!(f, "snapshot does not match this run: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — hand-rolled so the workspace stays
// dependency-free.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = (c >> 8) ^ CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

// ---------------------------------------------------------------------------
// Little-endian encode/decode cursors.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }
    fn key(&mut self, k: TbKey) {
        self.u32(k.kernel_seq);
        self.u32(k.tb);
    }
    fn traffic(&mut self, t: HwTraffic) {
        self.u64(t.dep_list_fetches);
        self.u64(t.counter_fetches);
        self.u64(t.counter_writebacks);
    }
}

struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

type DecResult<T> = Result<T, SnapshotError>;

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }
    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.data.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> DecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool flag out of range")),
        }
    }
    fn u32(&mut self) -> DecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> DecResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn u128(&mut self) -> DecResult<u128> {
        let b = self.take(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }
    fn str(&mut self) -> DecResult<String> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapshotError::Malformed("non-UTF-8 string"))
    }
    fn opt_u64(&mut self) -> DecResult<Option<u64>> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }
    /// Sequence length, sanity-bounded so a corrupted length cannot drive a
    /// huge allocation before the per-element reads hit `Truncated`.
    fn len(&mut self) -> DecResult<usize> {
        let n = self.u32()? as usize;
        if n > self.data.len().saturating_sub(self.pos).saturating_add(1) * 64 {
            return Err(SnapshotError::Malformed("sequence length exceeds payload"));
        }
        Ok(n)
    }
    fn key(&mut self) -> DecResult<TbKey> {
        Ok(TbKey {
            kernel_seq: self.u32()?,
            tb: self.u32()?,
        })
    }
    fn traffic(&mut self) -> DecResult<HwTraffic> {
        Ok(HwTraffic {
            dep_list_fetches: self.u64()?,
            counter_fetches: self.u64()?,
            counter_writebacks: self.u64()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Snapshot payload types.
// ---------------------------------------------------------------------------

/// Identity header: what the snapshot was captured from and where.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotMeta {
    /// Fingerprint of the application ([`app_fingerprint`]).
    pub app_fp: u64,
    /// Display form of the [`crate::ExecMode`] the run used.
    pub mode: String,
    /// Debug form of the hazard-tracking mode the analysis used.
    pub hazard: String,
    /// Number of kernels in the analyzed application.
    pub n_kernels: u32,
    /// Kernels retired at the capture boundary.
    pub retired: u32,
    /// Simulation cycle of the capture boundary.
    pub cycle: u64,
}

/// Mutable per-kernel lifecycle state of the engine source.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelSnapshot {
    /// In-memory copy of the child-TB parent-counter array.
    pub counts: Vec<u32>,
    /// Per-TB data-ready cycle (`None` = dependencies unresolved).
    pub data_ready: Vec<Option<u64>>,
    /// Per-TB completion flags.
    pub done: Vec<bool>,
    /// Ready queue, in queue order.
    pub ready: Vec<u32>,
    /// Per-TB pushed-to-ready flags.
    pub pushed: Vec<bool>,
    /// Completed-TB count.
    pub completed: u32,
    /// GPU arrival cycle, once the launch latency elapsed.
    pub arrival: Option<u64>,
    /// Whether the host has issued the launch.
    pub issued: bool,
    /// Whether every TB completed.
    pub complete: bool,
}

/// Mutable state of the engine source outside the per-kernel records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineSnapshot {
    /// Current pre-launch window (may have shrunk under pressure).
    pub window: u32,
    /// Kernels retired, in order.
    pub retired: u32,
    /// Kernels issued by the host.
    pub issued_count: u32,
    /// Earliest cycle the next launch may issue at (API serialization).
    pub next_issue_floor: u64,
    /// Consumer-priority round-robin toggle.
    pub consumer_toggle: bool,
    /// Per-kernel issue cycles (for degradation stamps).
    pub issue_cycles: Vec<u64>,
    /// Pending `(arrival_cycle, kernel)` launches in flight, sorted.
    pub arrivals: Vec<(u64, u32)>,
    /// Per-kernel lifecycle state.
    pub kernels: Vec<KernelSnapshot>,
    /// Admission-backpressure events recorded so far.
    pub pressure: Vec<PressureEvent>,
    /// Dependency-list buffer: entries sorted by key, plus counters.
    pub dlb_entries: Vec<(TbKey, Vec<u32>)>,
    /// DLB traffic counters.
    pub dlb_traffic: HwTraffic,
    /// DLB occupancy high-water mark.
    pub dlb_high_water: u32,
    /// Parent-counter buffer: resident counters sorted by key.
    pub pcb_counters: Vec<(TbKey, u32)>,
    /// PCB FIFO eviction order, verbatim (stale keys included — eviction
    /// determinism depends on preserving them exactly).
    pub pcb_fifo: Vec<TbKey>,
    /// PCB capacity in effect (fault plans may shrink it).
    pub pcb_capacity: u32,
    /// PCB traffic counters.
    pub pcb_traffic: HwTraffic,
    /// PCB occupancy high-water mark.
    pub pcb_high_water: u32,
}

/// Soundness-guard context at capture time, so a resumed run re-applies
/// the same quarantines and continues the same recovery round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GuardSnapshot {
    /// Recovery round in progress.
    pub round: u32,
    /// Guard accounting accumulated before this round.
    pub report: GuardReport,
    /// Quarantined kernel seqs, sorted.
    pub quarantined: Vec<u32>,
}

/// One complete, restorable run snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSnapshot {
    /// Identity and capture position.
    pub meta: SnapshotMeta,
    /// DES substrate state (clock, event queue, SM occupancy, stats).
    pub des: DesCheckpoint,
    /// Engine-source state (kernel lifecycle, window, scheduler buffers).
    pub engine: EngineSnapshot,
    /// Soundness-guard context.
    pub guard: GuardSnapshot,
    /// Command-queue reordering in effect, stored as a cross-check: resume
    /// recomputes the reorder deterministically and rejects on divergence.
    pub order: Vec<u32>,
    /// Run-phase slice of the trace stream (empty for untraced runs),
    /// ending with this snapshot's own `CheckpointSave` event.
    pub trace: Vec<TraceEvent>,
}

/// Fingerprint of an application's identity: name, call count, and every
/// launch's canonical kernel text, dimensions, and argument values (FNV-1a).
/// Two applications with equal fingerprints drive the deterministic engine
/// identically, which is what snapshot restore requires.
pub fn app_fingerprint(app: &Application) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    fold(app.name.as_bytes());
    fold(&(app.calls.len() as u64).to_le_bytes());
    for launch in app.launches() {
        fold(launch.kernel.to_string().as_bytes());
        for d in [launch.grid, launch.block] {
            fold(&d.x.to_le_bytes());
            fold(&d.y.to_le_bytes());
            fold(&d.z.to_le_bytes());
        }
        for arg in &launch.args {
            use bm_ptx::kernel::ArgValue;
            let (tag, bits) = match arg {
                ArgValue::U32(v) => (0u8, *v as u64),
                ArgValue::U64(v) => (1u8, *v),
                ArgValue::F32(v) => (2u8, v.to_bits() as u64),
                ArgValue::Ptr(v) => (3u8, *v),
            };
            fold(&[tag]);
            fold(&bits.to_le_bytes());
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Checkpoint policy and stores.
// ---------------------------------------------------------------------------

/// When to capture snapshots. Triggers are evaluated only at
/// kernel-retirement boundaries — the consistency points of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Capture after every `n` kernel retirements.
    pub every_n_kernels: Option<u32>,
    /// Capture at the first retirement boundary after `n` cycles elapsed
    /// since the previous capture.
    pub every_n_cycles: Option<u64>,
}

impl CheckpointPolicy {
    /// A policy that never checkpoints.
    pub fn disabled() -> Self {
        CheckpointPolicy::default()
    }

    /// Capture after every `n` kernel retirements.
    pub fn every_kernels(n: u32) -> Self {
        CheckpointPolicy {
            every_n_kernels: Some(n.max(1)),
            every_n_cycles: None,
        }
    }

    /// Whether any trigger is configured.
    pub fn is_enabled(&self) -> bool {
        self.every_n_kernels.is_some() || self.every_n_cycles.is_some()
    }

    /// Whether a capture is due, given progress since the last capture.
    pub fn due(&self, retired_delta: u32, cycle_delta: u64) -> bool {
        self.every_n_kernels
            .is_some_and(|n| retired_delta >= n.max(1))
            || self.every_n_cycles.is_some_and(|n| cycle_delta >= n.max(1))
    }
}

/// Where snapshots are kept. One store holds the *latest* snapshot; saves
/// overwrite atomically, so a crash mid-save leaves the previous snapshot
/// intact.
pub trait SnapshotStore {
    /// Persist `bytes` as the latest snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure.
    fn save(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>;

    /// Load the latest snapshot, or `None` if nothing was saved.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure.
    fn load(&mut self) -> Result<Option<Vec<u8>>, SnapshotError>;
}

/// Filesystem-backed store: one snapshot file, written via [`atomic_write`].
#[derive(Debug, Clone)]
pub struct DirStore {
    path: PathBuf,
    /// Accumulated fsync counts across every [`SnapshotStore::save`] on
    /// this store — durability tests assert these advance.
    pub syncs: FsyncStats,
}

/// Default snapshot file name inside a `--checkpoint-dir`.
pub const SNAPSHOT_FILE: &str = "latest.bmsnap";

impl DirStore {
    /// Store under `dir/`[`SNAPSHOT_FILE`]. The directory is created on
    /// first save.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DirStore {
            path: dir.into().join(SNAPSHOT_FILE),
            syncs: FsyncStats::default(),
        }
    }

    /// Store at an exact file path.
    pub fn at_file(path: impl Into<PathBuf>) -> Self {
        DirStore {
            path: path.into(),
            syncs: FsyncStats::default(),
        }
    }

    /// The snapshot file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl SnapshotStore for DirStore {
    fn save(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
            }
        }
        let stats = atomic_write_counted(&self.path, bytes)
            .map_err(|e| SnapshotError::Io(e.to_string()))?;
        self.syncs.file_syncs += stats.file_syncs;
        self.syncs.dir_syncs += stats.dir_syncs;
        Ok(())
    }

    fn load(&mut self) -> Result<Option<Vec<u8>>, SnapshotError> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(SnapshotError::Io(e.to_string())),
        }
    }
}

/// In-memory store for tests and the fault-injection harness. Keeps every
/// save so harnesses can resume from any boundary, not just the last.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    /// Every snapshot saved, in save order.
    pub snaps: Vec<Vec<u8>>,
}

impl SnapshotStore for MemStore {
    fn save(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.snaps.push(bytes.to_vec());
        Ok(())
    }

    fn load(&mut self) -> Result<Option<Vec<u8>>, SnapshotError> {
        Ok(self.snaps.last().cloned())
    }
}

/// Sync operations performed by one [`atomic_write`] call. Exposed so
/// durability tests can assert that fsync actually ran rather than trusting
/// the happy path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsyncStats {
    /// `sync_all` calls that completed on the temp file before rename.
    pub file_syncs: u32,
    /// `sync_all` calls that completed on the containing directory after
    /// rename (persists the directory entry itself).
    pub dir_syncs: u32,
}

/// Durable write: the bytes land in a temp file in the target's directory,
/// the temp file is fsynced, renamed into place, and the containing
/// directory is fsynced so the rename itself survives a crash. Readers
/// never observe a partial file; a crash mid-write leaves the previous
/// content (or nothing) behind. All bmrun file outputs (traces, JSON
/// reports, snapshots) route through here.
///
/// # Errors
///
/// Any underlying `io::Error` from create/write/sync/rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    atomic_write_counted(path, bytes).map(|_| ())
}

/// [`atomic_write`] that reports how many fsyncs it performed.
///
/// # Errors
///
/// Any underlying `io::Error` from create/write/sync/rename.
pub fn atomic_write_counted(path: &Path, bytes: &[u8]) -> std::io::Result<FsyncStats> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};

    let mut name = path.file_name().map(|n| n.to_os_string()).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    // The temp name is unique per writer (pid + process-wide sequence), so
    // concurrent writers to the same target never rename each other's temp
    // file out from under themselves — the last rename wins whole.
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    name.push(format!(".{}-{}.tmp", std::process::id(), seq));
    let tmp = path.with_file_name(name);
    let mut stats = FsyncStats::default();
    let write_and_rename = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        stats.file_syncs += 1;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = write_and_rename {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Persist the rename: fsync the containing directory. Directories that
    // cannot be opened for sync (exotic filesystems) degrade gracefully —
    // the data itself is already durable from the file fsync above.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            if d.sync_all().is_ok() {
                stats.dir_syncs += 1;
            }
        }
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Trace-event codec.
// ---------------------------------------------------------------------------

fn enc_tb_id(e: &mut Enc, id: TbId) {
    e.u32(id.kernel);
    e.u32(id.tb);
}

fn dec_tb_id(d: &mut Dec) -> DecResult<TbId> {
    Ok(TbId {
        kernel: d.u32()?,
        tb: d.u32()?,
    })
}

fn encode_event(e: &mut Enc, ev: &TraceEvent) {
    match ev {
        TraceEvent::TbSpan {
            id,
            sm,
            start,
            finish,
        } => {
            e.u8(0);
            enc_tb_id(e, *id);
            e.u32(*sm);
            e.u64(*start);
            e.u64(*finish);
        }
        TraceEvent::SmOccupancy {
            cycle,
            sm,
            resident,
        } => {
            e.u8(1);
            e.u64(*cycle);
            e.u32(*sm);
            e.u32(*resident);
        }
        TraceEvent::TbReady { cycle, id } => {
            e.u8(2);
            e.u64(*cycle);
            enc_tb_id(e, *id);
        }
        TraceEvent::TbStall {
            cycle,
            id,
            ready_at,
            reason,
        } => {
            e.u8(3);
            e.u64(*cycle);
            enc_tb_id(e, *id);
            e.u64(*ready_at);
            e.u8(match reason {
                StallReason::KernelArrival => 0,
                StallReason::Resources => 1,
            });
        }
        TraceEvent::KernelIssue {
            cycle,
            seq,
            name,
            prelaunched,
        } => {
            e.u8(4);
            e.u64(*cycle);
            e.u32(*seq);
            e.str(name);
            e.bool(*prelaunched);
        }
        TraceEvent::KernelArrive { cycle, seq } => {
            e.u8(5);
            e.u64(*cycle);
            e.u32(*seq);
        }
        TraceEvent::KernelRetire { cycle, seq } => {
            e.u8(6);
            e.u64(*cycle);
            e.u32(*seq);
        }
        TraceEvent::DlbInsert {
            cycle,
            id,
            children,
            fetch_txns,
            encoded,
        } => {
            e.u8(7);
            e.u64(*cycle);
            enc_tb_id(e, *id);
            e.u32(*children);
            e.u64(*fetch_txns);
            e.bool(*encoded);
        }
        TraceEvent::PcbInit {
            cycle,
            id,
            count,
            refetch,
        } => {
            e.u8(8);
            e.u64(*cycle);
            enc_tb_id(e, *id);
            e.u32(*count);
            e.bool(*refetch);
        }
        TraceEvent::PcbSpill { cycle, victim } => {
            e.u8(9);
            e.u64(*cycle);
            enc_tb_id(e, *victim);
        }
        TraceEvent::BufferLevels { cycle, dlb, pcb } => {
            e.u8(10);
            e.u64(*cycle);
            e.u32(*dlb);
            e.u32(*pcb);
        }
        TraceEvent::AnalysisSpan {
            seq,
            name,
            phase,
            start_tick,
            end_tick,
        } => {
            e.u8(11);
            e.u32(*seq);
            e.str(name);
            e.u8(match phase {
                AnalysisPhase::Absint => 0,
                AnalysisPhase::Coarse => 1,
                AnalysisPhase::Trace => 2,
                AnalysisPhase::Graph => 3,
            });
            e.u64(*start_tick);
            e.u64(*end_tick);
        }
        TraceEvent::AffineFastPath {
            tick,
            seq,
            attempted,
            accepted,
            interpreted,
            synthesized,
        } => {
            e.u8(12);
            e.u64(*tick);
            e.u32(*seq);
            e.bool(*attempted);
            e.bool(*accepted);
            e.u32(*interpreted);
            e.u32(*synthesized);
        }
        TraceEvent::CacheProbe {
            tick,
            seq,
            graph,
            hit,
        } => {
            e.u8(13);
            e.u64(*tick);
            e.u32(*seq);
            e.bool(*graph);
            e.bool(*hit);
        }
        TraceEvent::RungTransition {
            tick,
            seq,
            rung,
            reason,
        } => {
            e.u8(14);
            e.u64(*tick);
            e.u32(*seq);
            e.str(rung);
            e.str(reason);
        }
        TraceEvent::CmdqSubmit { pos, orig, kind } => {
            e.u8(15);
            e.u32(*pos);
            e.u32(*orig);
            e.u8(match kind {
                CmdKind::Malloc => 0,
                CmdKind::MemcpyH2D => 1,
                CmdKind::MemcpyD2H => 2,
                CmdKind::Sync => 3,
                CmdKind::Launch => 4,
            });
        }
        TraceEvent::Pressure {
            cycle,
            spill,
            window_before,
            window_after,
        } => {
            e.u8(16);
            e.u64(*cycle);
            e.u64(*spill);
            e.u32(*window_before);
            e.u32(*window_after);
        }
        TraceEvent::Quarantine {
            cycle,
            kernel,
            round,
        } => {
            e.u8(17);
            e.u64(*cycle);
            e.u32(*kernel);
            e.u32(*round);
        }
        TraceEvent::DegradationStamp {
            cycle,
            seq,
            rung,
            reason,
        } => {
            e.u8(18);
            e.u64(*cycle);
            e.u32(*seq);
            e.str(rung);
            e.str(reason);
        }
        TraceEvent::CheckpointSave {
            cycle,
            retired,
            bytes,
        } => {
            e.u8(19);
            e.u64(*cycle);
            e.u32(*retired);
            e.u64(*bytes);
        }
        TraceEvent::CheckpointLoad { cycle, retired } => {
            e.u8(20);
            e.u64(*cycle);
            e.u32(*retired);
        }
        TraceEvent::CheckpointReject { reason } => {
            e.u8(21);
            e.str(reason);
        }
        TraceEvent::ServeAdmit {
            tick,
            request,
            queued,
        } => {
            e.u8(22);
            e.u64(*tick);
            e.u64(*request);
            e.u32(*queued);
        }
        TraceEvent::ServeStart {
            tick,
            request,
            worker,
            attempt,
        } => {
            e.u8(23);
            e.u64(*tick);
            e.u64(*request);
            e.u32(*worker);
            e.u32(*attempt);
        }
        TraceEvent::ServeRetry {
            tick,
            request,
            attempt,
            backoff,
            reason,
        } => {
            e.u8(24);
            e.u64(*tick);
            e.u64(*request);
            e.u32(*attempt);
            e.u64(*backoff);
            e.str(reason);
        }
        TraceEvent::ServeCancel {
            tick,
            request,
            deadline,
        } => {
            e.u8(25);
            e.u64(*tick);
            e.u64(*request);
            e.bool(*deadline);
        }
        TraceEvent::ServeComplete {
            tick,
            request,
            outcome,
        } => {
            e.u8(26);
            e.u64(*tick);
            e.u64(*request);
            e.str(outcome);
        }
        TraceEvent::BreakerTransition {
            tick,
            app_fp,
            from,
            to,
        } => {
            e.u8(27);
            e.u64(*tick);
            e.u64(*app_fp);
            e.str(from);
            e.str(to);
        }
        TraceEvent::MultiTopology {
            devices,
            sms_per_device,
        } => {
            e.u8(29);
            e.u32(*devices);
            e.u32(*sms_per_device);
        }
        TraceEvent::XferStart {
            cycle,
            src,
            dst,
            id,
            bytes,
        } => {
            e.u8(30);
            e.u64(*cycle);
            e.u32(*src);
            e.u32(*dst);
            enc_tb_id(e, *id);
            e.u64(*bytes);
        }
        TraceEvent::XferDone {
            cycle,
            sent,
            src,
            dst,
            id,
            bytes,
        } => {
            e.u8(31);
            e.u64(*cycle);
            e.u64(*sent);
            e.u32(*src);
            e.u32(*dst);
            enc_tb_id(e, *id);
            e.u64(*bytes);
        }
    }
}

fn decode_event(d: &mut Dec) -> DecResult<TraceEvent> {
    Ok(match d.u8()? {
        0 => TraceEvent::TbSpan {
            id: dec_tb_id(d)?,
            sm: d.u32()?,
            start: d.u64()?,
            finish: d.u64()?,
        },
        1 => TraceEvent::SmOccupancy {
            cycle: d.u64()?,
            sm: d.u32()?,
            resident: d.u32()?,
        },
        2 => TraceEvent::TbReady {
            cycle: d.u64()?,
            id: dec_tb_id(d)?,
        },
        3 => TraceEvent::TbStall {
            cycle: d.u64()?,
            id: dec_tb_id(d)?,
            ready_at: d.u64()?,
            reason: match d.u8()? {
                0 => StallReason::KernelArrival,
                1 => StallReason::Resources,
                _ => return Err(SnapshotError::Malformed("stall reason")),
            },
        },
        4 => TraceEvent::KernelIssue {
            cycle: d.u64()?,
            seq: d.u32()?,
            name: d.str()?,
            prelaunched: d.bool()?,
        },
        5 => TraceEvent::KernelArrive {
            cycle: d.u64()?,
            seq: d.u32()?,
        },
        6 => TraceEvent::KernelRetire {
            cycle: d.u64()?,
            seq: d.u32()?,
        },
        7 => TraceEvent::DlbInsert {
            cycle: d.u64()?,
            id: dec_tb_id(d)?,
            children: d.u32()?,
            fetch_txns: d.u64()?,
            encoded: d.bool()?,
        },
        8 => TraceEvent::PcbInit {
            cycle: d.u64()?,
            id: dec_tb_id(d)?,
            count: d.u32()?,
            refetch: d.bool()?,
        },
        9 => TraceEvent::PcbSpill {
            cycle: d.u64()?,
            victim: dec_tb_id(d)?,
        },
        10 => TraceEvent::BufferLevels {
            cycle: d.u64()?,
            dlb: d.u32()?,
            pcb: d.u32()?,
        },
        11 => TraceEvent::AnalysisSpan {
            seq: d.u32()?,
            name: d.str()?,
            phase: match d.u8()? {
                0 => AnalysisPhase::Absint,
                1 => AnalysisPhase::Coarse,
                2 => AnalysisPhase::Trace,
                3 => AnalysisPhase::Graph,
                _ => return Err(SnapshotError::Malformed("analysis phase")),
            },
            start_tick: d.u64()?,
            end_tick: d.u64()?,
        },
        12 => TraceEvent::AffineFastPath {
            tick: d.u64()?,
            seq: d.u32()?,
            attempted: d.bool()?,
            accepted: d.bool()?,
            interpreted: d.u32()?,
            synthesized: d.u32()?,
        },
        13 => TraceEvent::CacheProbe {
            tick: d.u64()?,
            seq: d.u32()?,
            graph: d.bool()?,
            hit: d.bool()?,
        },
        14 => TraceEvent::RungTransition {
            tick: d.u64()?,
            seq: d.u32()?,
            rung: d.str()?,
            reason: d.str()?,
        },
        15 => TraceEvent::CmdqSubmit {
            pos: d.u32()?,
            orig: d.u32()?,
            kind: match d.u8()? {
                0 => CmdKind::Malloc,
                1 => CmdKind::MemcpyH2D,
                2 => CmdKind::MemcpyD2H,
                3 => CmdKind::Sync,
                4 => CmdKind::Launch,
                _ => return Err(SnapshotError::Malformed("cmd kind")),
            },
        },
        16 => TraceEvent::Pressure {
            cycle: d.u64()?,
            spill: d.u64()?,
            window_before: d.u32()?,
            window_after: d.u32()?,
        },
        17 => TraceEvent::Quarantine {
            cycle: d.u64()?,
            kernel: d.u32()?,
            round: d.u32()?,
        },
        18 => TraceEvent::DegradationStamp {
            cycle: d.u64()?,
            seq: d.u32()?,
            rung: d.str()?,
            reason: d.str()?,
        },
        19 => TraceEvent::CheckpointSave {
            cycle: d.u64()?,
            retired: d.u32()?,
            bytes: d.u64()?,
        },
        20 => TraceEvent::CheckpointLoad {
            cycle: d.u64()?,
            retired: d.u32()?,
        },
        21 => TraceEvent::CheckpointReject { reason: d.str()? },
        22 => TraceEvent::ServeAdmit {
            tick: d.u64()?,
            request: d.u64()?,
            queued: d.u32()?,
        },
        23 => TraceEvent::ServeStart {
            tick: d.u64()?,
            request: d.u64()?,
            worker: d.u32()?,
            attempt: d.u32()?,
        },
        24 => TraceEvent::ServeRetry {
            tick: d.u64()?,
            request: d.u64()?,
            attempt: d.u32()?,
            backoff: d.u64()?,
            reason: d.str()?,
        },
        25 => TraceEvent::ServeCancel {
            tick: d.u64()?,
            request: d.u64()?,
            deadline: d.bool()?,
        },
        26 => TraceEvent::ServeComplete {
            tick: d.u64()?,
            request: d.u64()?,
            outcome: d.str()?,
        },
        27 => TraceEvent::BreakerTransition {
            tick: d.u64()?,
            app_fp: d.u64()?,
            from: d.str()?,
            to: d.str()?,
        },
        // 28 was the removed analysis thread-count verdict; it stays
        // unassigned so a snapshot carrying it decodes to an error, never
        // to another event.
        29 => TraceEvent::MultiTopology {
            devices: d.u32()?,
            sms_per_device: d.u32()?,
        },
        30 => TraceEvent::XferStart {
            cycle: d.u64()?,
            src: d.u32()?,
            dst: d.u32()?,
            id: dec_tb_id(d)?,
            bytes: d.u64()?,
        },
        31 => TraceEvent::XferDone {
            cycle: d.u64()?,
            sent: d.u64()?,
            src: d.u32()?,
            dst: d.u32()?,
            id: dec_tb_id(d)?,
            bytes: d.u64()?,
        },
        _ => return Err(SnapshotError::Malformed("unknown trace-event tag")),
    })
}

// ---------------------------------------------------------------------------
// Section codecs.
// ---------------------------------------------------------------------------

fn enc_meta(m: &SnapshotMeta) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(m.app_fp);
    e.str(&m.mode);
    e.str(&m.hazard);
    e.u32(m.n_kernels);
    e.u32(m.retired);
    e.u64(m.cycle);
    e.buf
}

fn dec_meta(d: &mut Dec) -> DecResult<SnapshotMeta> {
    Ok(SnapshotMeta {
        app_fp: d.u64()?,
        mode: d.str()?,
        hazard: d.str()?,
        n_kernels: d.u32()?,
        retired: d.u32()?,
        cycle: d.u64()?,
    })
}

fn enc_des(c: &DesCheckpoint) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(c.sms.len() as u32);
    for &(tbs, threads, shared) in &c.sms {
        e.u32(tbs);
        e.u32(threads);
        e.u32(shared);
    }
    e.u32(c.events.len() as u32);
    for &(finish, seq, sm, desc) in &c.events {
        e.u64(finish);
        e.u64(seq);
        e.u32(sm);
        e.key(desc.key);
        e.u32(desc.threads);
        e.u32(desc.shared_bytes);
        e.u64(desc.duration);
    }
    e.u64(c.seq);
    e.u64(c.now);
    e.u32(c.running);
    e.u64(c.last_t);
    e.u32(c.resident.len() as u32);
    for &r in &c.resident {
        e.u32(r);
    }
    e.u64(c.stats.total_cycles);
    e.u128(c.stats.concurrency_integral);
    e.u64(c.stats.tbs_executed);
    e.u32(c.stats.schedule.len() as u32);
    for &(key, start, finish) in &c.stats.schedule {
        e.key(key);
        e.u64(start);
        e.u64(finish);
    }
    e.buf
}

fn dec_des(d: &mut Dec) -> DecResult<DesCheckpoint> {
    let mut sms = Vec::new();
    for _ in 0..d.len()? {
        sms.push((d.u32()?, d.u32()?, d.u32()?));
    }
    let mut events = Vec::new();
    for _ in 0..d.len()? {
        let finish = d.u64()?;
        let seq = d.u64()?;
        let sm = d.u32()?;
        let desc = TbDescriptor {
            key: d.key()?,
            threads: d.u32()?,
            shared_bytes: d.u32()?,
            duration: d.u64()?,
        };
        events.push((finish, seq, sm, desc));
    }
    let seq = d.u64()?;
    let now = d.u64()?;
    let running = d.u32()?;
    let last_t = d.u64()?;
    let mut resident = Vec::new();
    for _ in 0..d.len()? {
        resident.push(d.u32()?);
    }
    let total_cycles = d.u64()?;
    let concurrency_integral = d.u128()?;
    let tbs_executed = d.u64()?;
    let mut schedule = Vec::new();
    for _ in 0..d.len()? {
        schedule.push((d.key()?, d.u64()?, d.u64()?));
    }
    Ok(DesCheckpoint {
        sms,
        events,
        seq,
        now,
        running,
        last_t,
        resident,
        stats: DesStats {
            total_cycles,
            concurrency_integral,
            tbs_executed,
            schedule,
        },
    })
}

fn enc_engine(s: &EngineSnapshot) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(s.window);
    e.u32(s.retired);
    e.u32(s.issued_count);
    e.u64(s.next_issue_floor);
    e.bool(s.consumer_toggle);
    e.u32(s.issue_cycles.len() as u32);
    for &c in &s.issue_cycles {
        e.u64(c);
    }
    e.u32(s.arrivals.len() as u32);
    for &(t, k) in &s.arrivals {
        e.u64(t);
        e.u32(k);
    }
    e.u32(s.kernels.len() as u32);
    for k in &s.kernels {
        e.u32(k.counts.len() as u32);
        for &c in &k.counts {
            e.u32(c);
        }
        e.u32(k.data_ready.len() as u32);
        for &r in &k.data_ready {
            e.opt_u64(r);
        }
        e.u32(k.done.len() as u32);
        for &b in &k.done {
            e.bool(b);
        }
        e.u32(k.ready.len() as u32);
        for &t in &k.ready {
            e.u32(t);
        }
        e.u32(k.pushed.len() as u32);
        for &b in &k.pushed {
            e.bool(b);
        }
        e.u32(k.completed);
        e.opt_u64(k.arrival);
        e.bool(k.issued);
        e.bool(k.complete);
    }
    e.u32(s.pressure.len() as u32);
    for p in &s.pressure {
        e.u64(p.cycle);
        e.u64(p.spill_traffic);
        e.u32(p.window_before);
        e.u32(p.window_after);
    }
    e.u32(s.dlb_entries.len() as u32);
    for (key, children) in &s.dlb_entries {
        e.key(*key);
        e.u32(children.len() as u32);
        for &c in children {
            e.u32(c);
        }
    }
    e.traffic(s.dlb_traffic);
    e.u32(s.dlb_high_water);
    e.u32(s.pcb_counters.len() as u32);
    for &(key, count) in &s.pcb_counters {
        e.key(key);
        e.u32(count);
    }
    e.u32(s.pcb_fifo.len() as u32);
    for &key in &s.pcb_fifo {
        e.key(key);
    }
    e.u32(s.pcb_capacity);
    e.traffic(s.pcb_traffic);
    e.u32(s.pcb_high_water);
    e.buf
}

fn dec_engine(d: &mut Dec) -> DecResult<EngineSnapshot> {
    let window = d.u32()?;
    let retired = d.u32()?;
    let issued_count = d.u32()?;
    let next_issue_floor = d.u64()?;
    let consumer_toggle = d.bool()?;
    let mut issue_cycles = Vec::new();
    for _ in 0..d.len()? {
        issue_cycles.push(d.u64()?);
    }
    let mut arrivals = Vec::new();
    for _ in 0..d.len()? {
        arrivals.push((d.u64()?, d.u32()?));
    }
    let mut kernels = Vec::new();
    for _ in 0..d.len()? {
        let mut counts = Vec::new();
        for _ in 0..d.len()? {
            counts.push(d.u32()?);
        }
        let mut data_ready = Vec::new();
        for _ in 0..d.len()? {
            data_ready.push(d.opt_u64()?);
        }
        let mut done = Vec::new();
        for _ in 0..d.len()? {
            done.push(d.bool()?);
        }
        let mut ready = Vec::new();
        for _ in 0..d.len()? {
            ready.push(d.u32()?);
        }
        let mut pushed = Vec::new();
        for _ in 0..d.len()? {
            pushed.push(d.bool()?);
        }
        kernels.push(KernelSnapshot {
            counts,
            data_ready,
            done,
            ready,
            pushed,
            completed: d.u32()?,
            arrival: d.opt_u64()?,
            issued: d.bool()?,
            complete: d.bool()?,
        });
    }
    let mut pressure = Vec::new();
    for _ in 0..d.len()? {
        pressure.push(PressureEvent {
            cycle: d.u64()?,
            spill_traffic: d.u64()?,
            window_before: d.u32()?,
            window_after: d.u32()?,
        });
    }
    let mut dlb_entries = Vec::new();
    for _ in 0..d.len()? {
        let key = d.key()?;
        let mut children = Vec::new();
        for _ in 0..d.len()? {
            children.push(d.u32()?);
        }
        dlb_entries.push((key, children));
    }
    let dlb_traffic = d.traffic()?;
    let dlb_high_water = d.u32()?;
    let mut pcb_counters = Vec::new();
    for _ in 0..d.len()? {
        pcb_counters.push((d.key()?, d.u32()?));
    }
    let mut pcb_fifo = Vec::new();
    for _ in 0..d.len()? {
        pcb_fifo.push(d.key()?);
    }
    Ok(EngineSnapshot {
        window,
        retired,
        issued_count,
        next_issue_floor,
        consumer_toggle,
        issue_cycles,
        arrivals,
        kernels,
        pressure,
        dlb_entries,
        dlb_traffic,
        dlb_high_water,
        pcb_counters,
        pcb_fifo,
        pcb_capacity: d.u32()?,
        pcb_traffic: d.traffic()?,
        pcb_high_water: d.u32()?,
    })
}

fn enc_guard(g: &GuardSnapshot) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(g.round);
    e.u64(g.report.violations_detected);
    e.u64(g.report.kernels_quarantined);
    e.u64(g.report.cycles_lost_to_fallback);
    e.u32(g.report.recovery_rounds);
    e.u32(g.quarantined.len() as u32);
    for &k in &g.quarantined {
        e.u32(k);
    }
    e.buf
}

fn dec_guard(d: &mut Dec) -> DecResult<GuardSnapshot> {
    let round = d.u32()?;
    let report = GuardReport {
        violations_detected: d.u64()?,
        kernels_quarantined: d.u64()?,
        cycles_lost_to_fallback: d.u64()?,
        recovery_rounds: d.u32()?,
    };
    let mut quarantined = Vec::new();
    for _ in 0..d.len()? {
        quarantined.push(d.u32()?);
    }
    Ok(GuardSnapshot {
        round,
        report,
        quarantined,
    })
}

fn enc_order(order: &[u32]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(order.len() as u32);
    for &i in order {
        e.u32(i);
    }
    e.buf
}

fn dec_order(d: &mut Dec) -> DecResult<Vec<u32>> {
    let mut order = Vec::new();
    for _ in 0..d.len()? {
        order.push(d.u32()?);
    }
    Ok(order)
}

fn enc_trace(events: &[TraceEvent]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(events.len() as u32);
    for ev in events {
        encode_event(&mut e, ev);
    }
    e.buf
}

fn dec_trace(d: &mut Dec) -> DecResult<Vec<TraceEvent>> {
    let mut events = Vec::new();
    for _ in 0..d.len()? {
        events.push(decode_event(d)?);
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// Container encode/decode.
// ---------------------------------------------------------------------------

impl RunSnapshot {
    /// Serializes to the versioned, checksummed container format.
    pub fn encode(&self) -> Vec<u8> {
        let sections: [(u32, Vec<u8>); 6] = [
            (TAG_META, enc_meta(&self.meta)),
            (TAG_DES, enc_des(&self.des)),
            (TAG_ENGINE, enc_engine(&self.engine)),
            (TAG_GUARD, enc_guard(&self.guard)),
            (TAG_ORDER, enc_order(&self.order)),
            (TAG_TRACE, enc_trace(&self.trace)),
        ];
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        // Section table: tag, offset, len, crc32 — offsets relative to the
        // start of the file.
        let table_at = out.len();
        let entry_bytes = 4 + 8 + 8 + 4;
        out.resize(table_at + sections.len() * entry_bytes, 0);
        let mut offset = out.len() as u64;
        for (i, (tag, payload)) in sections.iter().enumerate() {
            let at = table_at + i * entry_bytes;
            out[at..at + 4].copy_from_slice(&tag.to_le_bytes());
            out[at + 4..at + 12].copy_from_slice(&offset.to_le_bytes());
            out[at + 12..at + 20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            out[at + 20..at + 24].copy_from_slice(&crc32(payload).to_le_bytes());
            offset += payload.len() as u64;
        }
        for (_, payload) in &sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Decodes and fully validates a snapshot: magic, version, section
    /// table bounds, and every section's CRC32.
    ///
    /// # Errors
    ///
    /// The precise [`SnapshotError`] for the first damage found.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let sections = section_table(bytes)?;
        let mut meta = None;
        let mut des = None;
        let mut engine = None;
        let mut guard = None;
        let mut order = None;
        let mut trace = None;
        for (tag, payload) in sections {
            let mut d = Dec::new(payload);
            match tag {
                TAG_META => meta = Some(dec_meta(&mut d)?),
                TAG_DES => des = Some(dec_des(&mut d)?),
                TAG_ENGINE => engine = Some(dec_engine(&mut d)?),
                TAG_GUARD => guard = Some(dec_guard(&mut d)?),
                TAG_ORDER => order = Some(dec_order(&mut d)?),
                TAG_TRACE => trace = Some(dec_trace(&mut d)?),
                // Unknown sections within a supported version are not
                // possible today; reject rather than silently ignore.
                _ => return Err(SnapshotError::Malformed("unknown section tag")),
            }
            if !d.done() {
                return Err(SnapshotError::Malformed("trailing bytes in section"));
            }
        }
        Ok(RunSnapshot {
            meta: meta.ok_or(SnapshotError::Malformed("missing meta section"))?,
            des: des.ok_or(SnapshotError::Malformed("missing des section"))?,
            engine: engine.ok_or(SnapshotError::Malformed("missing engine section"))?,
            guard: guard.ok_or(SnapshotError::Malformed("missing guard section"))?,
            order: order.ok_or(SnapshotError::Malformed("missing order section"))?,
            trace: trace.ok_or(SnapshotError::Malformed("missing trace section"))?,
        })
    }
}

/// Parses and validates the container header, returning `(tag, payload)`
/// per section with checksums verified.
fn section_table(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>, SnapshotError> {
    let mut d = Dec::new(bytes);
    if d.take(8)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = d.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let count = d.u32()? as usize;
    if count > 64 {
        return Err(SnapshotError::Malformed("implausible section count"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = d.u32()?;
        let offset = d.u64()? as usize;
        let len = d.u64()? as usize;
        let crc = d.u32()?;
        let end = offset.checked_add(len).ok_or(SnapshotError::Truncated)?;
        if end > bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let payload = &bytes[offset..end];
        if crc32(payload) != crc {
            return Err(SnapshotError::ChecksumMismatch { section: tag });
        }
        out.push((tag, payload));
    }
    Ok(out)
}

/// Human/machine-readable manifest of an encoded snapshot: header fields
/// plus one entry per section (tag, length, CRC32). Round-trips through the
/// strict JSON parser byte-identically.
///
/// # Errors
///
/// Any header/table/checksum damage, as [`RunSnapshot::decode`] would
/// report it.
pub fn manifest(bytes: &[u8]) -> Result<Json, SnapshotError> {
    let sections = section_table(bytes)?;
    let meta_payload = sections
        .iter()
        .find(|(tag, _)| *tag == TAG_META)
        .map(|(_, p)| *p)
        .ok_or(SnapshotError::Malformed("missing meta section"))?;
    let meta = dec_meta(&mut Dec::new(meta_payload))?;
    let mut doc = BTreeMap::new();
    doc.insert("magic".to_string(), Json::Str("BMSNAP02".to_string()));
    doc.insert("version".to_string(), Json::u64(FORMAT_VERSION as u64));
    doc.insert("total_bytes".to_string(), Json::u64(bytes.len() as u64));
    doc.insert("app_fingerprint".to_string(), Json::u64(meta.app_fp));
    doc.insert("mode".to_string(), Json::Str(meta.mode));
    doc.insert("hazard".to_string(), Json::Str(meta.hazard));
    doc.insert("n_kernels".to_string(), Json::u64(meta.n_kernels as u64));
    doc.insert("retired".to_string(), Json::u64(meta.retired as u64));
    doc.insert("cycle".to_string(), Json::u64(meta.cycle));
    let names = |tag: u32| match tag {
        TAG_META => "meta",
        TAG_DES => "des",
        TAG_ENGINE => "engine",
        TAG_GUARD => "guard",
        TAG_ORDER => "order",
        TAG_TRACE => "trace",
        _ => "unknown",
    };
    let section_docs: Vec<Json> = sections
        .iter()
        .map(|(tag, payload)| {
            let mut s = BTreeMap::new();
            s.insert("tag".to_string(), Json::u64(*tag as u64));
            s.insert("name".to_string(), Json::Str(names(*tag).to_string()));
            s.insert("bytes".to_string(), Json::u64(payload.len() as u64));
            s.insert("crc32".to_string(), Json::u64(crc32(payload) as u64));
            Json::Obj(s)
        })
        .collect();
    doc.insert("sections".to_string(), Json::Arr(section_docs));
    Ok(Json::Obj(doc))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample_snapshot() -> RunSnapshot {
        let key = |k: u32, tb: u32| TbKey { kernel_seq: k, tb };
        RunSnapshot {
            meta: SnapshotMeta {
                app_fp: 0xDEAD_BEEF_CAFE_F00D,
                mode: "consumer(w=2)".into(),
                hazard: "Raw".into(),
                n_kernels: 4,
                retired: 2,
                cycle: 12_345,
            },
            des: DesCheckpoint {
                sms: vec![(4, 512, 48 << 10), (3, 448, 40 << 10)],
                events: vec![(
                    100,
                    7,
                    1,
                    TbDescriptor {
                        key: key(2, 3),
                        threads: 64,
                        shared_bytes: 0,
                        duration: 90,
                    },
                )],
                seq: 9,
                now: 12_345,
                running: 1,
                last_t: 12_000,
                resident: vec![1, 0],
                stats: DesStats {
                    total_cycles: 0,
                    concurrency_integral: u128::from(u64::MAX) + 17,
                    tbs_executed: 16,
                    schedule: vec![(key(0, 0), 10, 20), (key(1, 1), 20, 40)],
                },
            },
            engine: EngineSnapshot {
                window: 2,
                retired: 2,
                issued_count: 4,
                next_issue_floor: 900,
                consumer_toggle: true,
                issue_cycles: vec![0, 200, 400, 600],
                arrivals: vec![(13_000, 3)],
                kernels: vec![
                    KernelSnapshot {
                        counts: vec![0, 0],
                        data_ready: vec![Some(0), Some(0)],
                        done: vec![true, true],
                        ready: vec![],
                        pushed: vec![true, true],
                        completed: 2,
                        arrival: Some(0),
                        issued: true,
                        complete: true,
                    },
                    KernelSnapshot {
                        counts: vec![1, 63],
                        data_ready: vec![Some(40), None],
                        done: vec![false, false],
                        ready: vec![0],
                        pushed: vec![true, false],
                        completed: 0,
                        arrival: Some(700),
                        issued: true,
                        complete: false,
                    },
                ],
                pressure: vec![PressureEvent {
                    cycle: 5_000,
                    spill_traffic: 1_000,
                    window_before: 4,
                    window_after: 2,
                }],
                dlb_entries: vec![(key(1, 0), vec![0, 1]), (key(1, 1), vec![])],
                dlb_traffic: HwTraffic {
                    dep_list_fetches: 3,
                    counter_fetches: 0,
                    counter_writebacks: 0,
                },
                dlb_high_water: 5,
                pcb_counters: vec![(key(2, 0), 1)],
                pcb_fifo: vec![key(2, 1), key(2, 0)],
                pcb_capacity: 896,
                pcb_traffic: HwTraffic {
                    dep_list_fetches: 0,
                    counter_fetches: 7,
                    counter_writebacks: 2,
                },
                pcb_high_water: 4,
            },
            guard: GuardSnapshot {
                round: 1,
                report: GuardReport {
                    violations_detected: 1,
                    kernels_quarantined: 1,
                    cycles_lost_to_fallback: 4_000,
                    recovery_rounds: 1,
                },
                quarantined: vec![2],
            },
            order: vec![0, 2, 1, 3],
            trace: vec![
                TraceEvent::KernelIssue {
                    cycle: 0,
                    seq: 0,
                    name: "k0".into(),
                    prelaunched: false,
                },
                TraceEvent::TbStall {
                    cycle: 10,
                    id: TbId { kernel: 0, tb: 0 },
                    ready_at: 5,
                    reason: StallReason::Resources,
                },
                TraceEvent::CheckpointSave {
                    cycle: 12_345,
                    retired: 2,
                    bytes: 0,
                },
            ],
        }
    }

    #[test]
    fn round_trips_bit_identically() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = RunSnapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn every_event_variant_round_trips() {
        let id = TbId { kernel: 3, tb: 9 };
        let events = vec![
            TraceEvent::TbSpan {
                id,
                sm: 2,
                start: 1,
                finish: 2,
            },
            TraceEvent::SmOccupancy {
                cycle: 1,
                sm: 0,
                resident: 3,
            },
            TraceEvent::TbReady { cycle: 4, id },
            TraceEvent::TbStall {
                cycle: 5,
                id,
                ready_at: 4,
                reason: StallReason::KernelArrival,
            },
            TraceEvent::KernelIssue {
                cycle: 0,
                seq: 1,
                name: "k".into(),
                prelaunched: true,
            },
            TraceEvent::KernelArrive { cycle: 6, seq: 1 },
            TraceEvent::KernelRetire { cycle: 7, seq: 0 },
            TraceEvent::DlbInsert {
                cycle: 8,
                id,
                children: 4,
                fetch_txns: 1,
                encoded: false,
            },
            TraceEvent::PcbInit {
                cycle: 9,
                id,
                count: 63,
                refetch: true,
            },
            TraceEvent::PcbSpill {
                cycle: 10,
                victim: id,
            },
            TraceEvent::BufferLevels {
                cycle: 11,
                dlb: 1,
                pcb: 2,
            },
            TraceEvent::AnalysisSpan {
                seq: 0,
                name: "k".into(),
                phase: AnalysisPhase::Coarse,
                start_tick: 1,
                end_tick: 5,
            },
            TraceEvent::AffineFastPath {
                tick: 2,
                seq: 0,
                attempted: true,
                accepted: false,
                interpreted: 8,
                synthesized: 0,
            },
            TraceEvent::CacheProbe {
                tick: 3,
                seq: 1,
                graph: true,
                hit: false,
            },
            TraceEvent::RungTransition {
                tick: 4,
                seq: 2,
                rung: "barrier".into(),
                reason: "non-static access pattern".into(),
            },
            TraceEvent::CmdqSubmit {
                pos: 1,
                orig: 2,
                kind: CmdKind::MemcpyD2H,
            },
            TraceEvent::Pressure {
                cycle: 12,
                spill: 999,
                window_before: 4,
                window_after: 2,
            },
            TraceEvent::Quarantine {
                cycle: 13,
                kernel: 1,
                round: 0,
            },
            TraceEvent::DegradationStamp {
                cycle: 14,
                seq: 3,
                rung: "coarse".into(),
                reason: "precise analysis over budget".into(),
            },
            TraceEvent::CheckpointSave {
                cycle: 15,
                retired: 2,
                bytes: u64::MAX,
            },
            TraceEvent::CheckpointLoad {
                cycle: 15,
                retired: 2,
            },
            TraceEvent::CheckpointReject {
                reason: "snapshot truncated".into(),
            },
            TraceEvent::MultiTopology {
                devices: 4,
                sms_per_device: 28,
            },
            TraceEvent::XferStart {
                cycle: 16,
                src: 0,
                dst: 3,
                id,
                bytes: 256,
            },
            TraceEvent::XferDone {
                cycle: 116,
                sent: 16,
                src: 0,
                dst: 3,
                id,
                bytes: 256,
            },
        ];
        let payload = enc_trace(&events);
        let back = dec_trace(&mut Dec::new(&payload)).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn unassigned_trace_tag_28_is_a_typed_error() {
        // Tag 28 carried the thread-count verdict of the removed
        // multi-threaded analysis and stays unassigned: a trace section
        // that still carries it is rejected with a typed error.
        let snap = RunSnapshot {
            trace: vec![TraceEvent::CheckpointReject {
                reason: String::new(),
            }],
            ..RunSnapshot::default()
        };
        let mut bytes = snap.encode();
        let table_at = 8 + 4 + 4;
        let entry = (0..6)
            .map(|i| table_at + i * 24)
            .find(|&at| bytes[at..at + 4] == TAG_TRACE.to_le_bytes())
            .unwrap();
        let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let (offset, len) = (field(entry + 4), field(entry + 12));
        // The payload is the event count, then the first event's tag.
        bytes[offset + 4] = 28;
        let crc = crc32(&bytes[offset..offset + len]);
        bytes[entry + 20..entry + 24].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            RunSnapshot::decode(&bytes).unwrap_err(),
            SnapshotError::Malformed("unknown trace-event tag")
        );
    }

    #[test]
    fn retired_multi_section_tag_7_is_malformed() {
        // Tag 7 carried a multi-device coordinator section that nothing
        // resumed from; a container that still has one is rejected.
        let mut bytes = sample_snapshot().encode();
        let table_at = 8 + 4 + 4;
        let entry = (0..6)
            .map(|i| table_at + i * 24)
            .find(|&at| bytes[at..at + 4] == TAG_TRACE.to_le_bytes())
            .unwrap();
        bytes[entry..entry + 4].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(
            RunSnapshot::decode(&bytes).unwrap_err(),
            SnapshotError::Malformed("unknown section tag")
        );
    }

    #[test]
    fn bad_magic_version_truncation_and_bitflips_are_typed() {
        let bytes = sample_snapshot().encode();

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert_eq!(
            RunSnapshot::decode(&wrong_magic).unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut wrong_version = bytes.clone();
        wrong_version[8] = 99;
        assert_eq!(
            RunSnapshot::decode(&wrong_version).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 99 }
        );

        for cut in [3, 11, bytes.len() / 2, bytes.len() - 1] {
            let err = RunSnapshot::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::Malformed(_)),
                "cut at {cut}: {err:?}"
            );
        }

        // Flip one bit in every payload byte position: decode must fail
        // with a typed error (checksum catches payload damage) and must
        // never panic.
        let payload_start = 8 + 4 + 4 + 6 * 24;
        for pos in payload_start..bytes.len() {
            let mut dam = bytes.clone();
            dam[pos] ^= 0x01;
            let err = RunSnapshot::decode(&dam).unwrap_err();
            assert!(
                matches!(err, SnapshotError::ChecksumMismatch { .. }),
                "flip at {pos}: {err:?}"
            );
        }
        assert!(RunSnapshot::decode(&bytes).is_ok(), "pristine still loads");
    }

    #[test]
    fn empty_sections_round_trip() {
        let snap = RunSnapshot::default();
        let bytes = snap.encode();
        assert_eq!(RunSnapshot::decode(&bytes).unwrap(), snap);
    }

    #[test]
    fn policy_triggers() {
        assert!(!CheckpointPolicy::disabled().is_enabled());
        let p = CheckpointPolicy::every_kernels(2);
        assert!(p.is_enabled());
        assert!(!p.due(1, 1_000_000));
        assert!(p.due(2, 0));
        let c = CheckpointPolicy {
            every_n_kernels: None,
            every_n_cycles: Some(500),
        };
        assert!(!c.due(3, 499));
        assert!(c.due(0, 500));
    }

    #[test]
    fn mem_store_keeps_every_save() {
        let mut store = MemStore::default();
        assert_eq!(store.load().unwrap(), None);
        store.save(b"one").unwrap();
        store.save(b"two").unwrap();
        assert_eq!(store.load().unwrap().unwrap(), b"two");
        assert_eq!(store.snaps.len(), 2);
    }

    #[test]
    fn dir_store_atomic_save_load() {
        let dir = std::env::temp_dir().join(format!("bmsnap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DirStore::new(&dir);
        assert_eq!(store.load().unwrap(), None);
        store.save(b"payload").unwrap();
        assert_eq!(store.load().unwrap().unwrap(), b"payload");
        // No temp residue after a completed save.
        let residue: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(residue.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_fsyncs_the_file_and_its_directory() {
        let dir = std::env::temp_dir().join(format!("bmsync-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stats = atomic_write_counted(&dir.join("a.bin"), b"data").unwrap();
        assert_eq!(stats.file_syncs, 1, "temp file must be fsynced pre-rename");
        assert_eq!(stats.dir_syncs, 1, "directory must be fsynced post-rename");
        // The counting store accumulates across saves.
        let mut store = DirStore::new(&dir);
        store.save(b"one").unwrap();
        store.save(b"two").unwrap();
        assert_eq!(store.syncs.file_syncs, 2);
        assert_eq!(store.syncs.dir_syncs, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_store_environmental_failures_are_typed_never_panics() {
        let dir = std::env::temp_dir().join(format!("bmenv-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A regular file where a directory is needed: creation of the
        // snapshot's parent fails with a typed Io error (this holds even
        // for root, unlike permission-bit failures).
        let blocker = dir.join("not-a-dir");
        std::fs::write(&blocker, b"x").unwrap();
        let mut store = DirStore::new(blocker.join("sub"));
        assert!(matches!(
            store.save(b"payload").unwrap_err(),
            SnapshotError::Io(_)
        ));
        // Same for a path whose final component can't be created.
        let mut store = DirStore::at_file(blocker.join("latest.bmsnap"));
        assert!(matches!(
            store.save(b"payload").unwrap_err(),
            SnapshotError::Io(_)
        ));
        // A path with no file name is rejected up front.
        assert!(atomic_write(Path::new("/"), b"x").is_err());
        // A read-only directory: typed Io when the OS enforces it (a root
        // test runner bypasses permission bits, so Ok is tolerated — the
        // assertion is "typed error or success, never a panic").
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            let ro = dir.join("ro");
            std::fs::create_dir_all(&ro).unwrap();
            std::fs::set_permissions(&ro, std::fs::Permissions::from_mode(0o555)).unwrap();
            let mut store = DirStore::new(&ro);
            match store.save(b"payload") {
                Ok(()) => {}
                Err(SnapshotError::Io(_)) => {}
                Err(other) => panic!("read-only dir must yield Io, got {other:?}"),
            }
            std::fs::set_permissions(&ro, std::fs::Permissions::from_mode(0o755)).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_writer_leaves_no_partial_file_visible_to_resume() {
        let dir = std::env::temp_dir().join(format!("bmpartial-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DirStore::new(&dir);
        store.save(b"full-snapshot").unwrap();
        // Simulate a writer that died mid-write (ENOSPC, kill -9): a
        // partial temp file next to the snapshot. Resume must never see
        // it — load() reads only the committed name.
        std::fs::write(dir.join("latest.bmsnap.tmp"), b"par").unwrap();
        assert_eq!(store.load().unwrap().unwrap(), b"full-snapshot");
        // And the next save commits right over the residue.
        store.save(b"newer-snapshot").unwrap();
        assert_eq!(store.load().unwrap().unwrap(), b"newer-snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_interleave() {
        let dir = std::env::temp_dir().join(format!("bmconc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let writers: Vec<_> = (0..4u8)
            .map(|w| {
                let path = path.clone();
                std::thread::spawn(move || {
                    let payload = vec![b'a' + w; 4096];
                    for _ in 0..25 {
                        atomic_write(&path, &payload).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // Whatever write won, the reader sees one complete payload —
        // 4096 copies of a single byte, never a mix.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 4096);
        assert!(
            bytes.windows(2).all(|w| w[0] == w[1]),
            "interleaved payloads observed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_reports_sections_and_round_trips() {
        let bytes = sample_snapshot().encode();
        let doc = manifest(&bytes).unwrap();
        let text = doc.to_string();
        assert!(text.contains("\"magic\":\"BMSNAP02\""));
        assert!(text.contains("\"name\":\"engine\""));
        let reparsed = bm_trace::json::parse(&text).unwrap();
        assert_eq!(reparsed.to_string(), text);
        let mut dam = bytes;
        dam[200] ^= 0x10;
        assert!(matches!(
            manifest(&dam).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
    }
}
