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
//! The byte format (`DESIGN.md` §10) is append-only: a header (magic
//! `BMSNAP03` and the format version), one self-checksummed *history
//! record* per retired kernel in retirement order, one checksummed *live
//! part* holding everything that can still change, and a fixed-size
//! trailer that locates the live part. Kernels retire in order and a
//! retired kernel's state never changes again, so the history part of
//! every snapshot of a run is a byte prefix of every later one: the engine
//! appends records and re-encodes only the live part per save, and
//! [`DirStore`] persists only the bytes that changed. Every load validates
//! magic, version and every checksum before decoding, and accepts only the
//! canonical layout that [`RunSnapshot::encode`] produces; any damage
//! surfaces as a typed [`SnapshotError`], never a panic.

#![deny(clippy::unwrap_used)]

use crate::degrade::PressureEvent;
use crate::guard::GuardReport;
use crate::hw::HwTraffic;
use bm_cmdq::Application;
use bm_simt::des::{DesCheckpoint, DesStats, DesView, TbDescriptor, TbKey};
use bm_trace::json::Json;
use bm_trace::{AnalysisPhase, CmdKind, StallReason, TbId, TraceEvent};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Snapshot magic: format name + major format generation.
pub const MAGIC: &[u8; 8] = b"BMSNAP03";
/// Current format version. Snapshots with any other version are rejected
/// with [`SnapshotError::UnsupportedVersion`]: the format carries live
/// scheduler state, so cross-version resume is never attempted.
pub const FORMAT_VERSION: u32 = 3;

/// Magic, then the format version.
const HEADER_LEN: usize = 8 + 4;
/// Live-part offset, live-part CRC32, then the CRC32 of those 12 bytes.
const TRAILER_LEN: usize = 8 + 4 + 4;

// Live-part section tags, in the order the live part must hold them. Tag 7
// carried a multi-device coordinator section that nothing resumed from; it
// stays unassigned.
const TAG_META: u32 = 1;
const TAG_DES: u32 = 2;
const TAG_ENGINE: u32 = 3;
const TAG_GUARD: u32 = 4;
const TAG_ORDER: u32 = 5;
const TAG_TRACE: u32 = 6;
const LIVE_TAGS: [u32; 6] = [
    TAG_META, TAG_DES, TAG_ENGINE, TAG_GUARD, TAG_ORDER, TAG_TRACE,
];

// Checksum scopes reported by `SnapshotError::ChecksumMismatch`.
const CRC_HISTORY: u32 = 1;
const CRC_LIVE: u32 = 2;
const CRC_TRAILER: u32 = 3;
const CRC_LOG_HEADER: u32 = 4;
const CRC_LOG_PAYLOAD: u32 = 5;

/// Why a snapshot failed to save, load, or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure (message of the underlying `io::Error`).
    Io(String),
    /// The bytes do not start with [`MAGIC`] (or a [`DirStore`] file with
    /// its log magic).
    BadMagic,
    /// The header declares a format version this build cannot decode.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The buffer ends before the declared content does.
    Truncated,
    /// A checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// Which checksum failed: 1 a history record, 2 the live part,
        /// 3 the trailer, 4 a [`DirStore`] log record's header, 5 a log
        /// record's payload.
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
            SnapshotError::ChecksumMismatch { section } => match *section {
                CRC_HISTORY => f.write_str("checksum mismatch in a history record"),
                CRC_LIVE => f.write_str("checksum mismatch in the live part"),
                CRC_TRAILER => f.write_str("checksum mismatch in the trailer"),
                CRC_LOG_HEADER => f.write_str("checksum mismatch in a log record header"),
                CRC_LOG_PAYLOAD => f.write_str("checksum mismatch in a log record payload"),
                other => write!(f, "checksum mismatch in section {other}"),
            },
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::AppMismatch(what) => {
                write!(f, "snapshot does not match this run: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected), slicing-by-8 — hand-rolled so the workspace
// stays dependency-free. Every save checksums its live part, and the log
// checksums the appended bytes again, so this runs over every byte saved.
// ---------------------------------------------------------------------------

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
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
        t[0][i] = c;
        i += 1;
    }
    // t[s][i]: the CRC of byte i followed by s zero bytes.
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ b as u32) & 0xFF) as usize];
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
    /// A length-prefixed `u32` sequence.
    fn u32s<'a>(&mut self, n: usize, v: impl IntoIterator<Item = &'a u32>) {
        self.u32(n as u32);
        for &x in v {
            self.u32(x);
        }
    }
    /// A length-prefixed flag sequence.
    fn bools(&mut self, v: &[bool]) {
        self.u32(v.len() as u32);
        self.buf.extend(v.iter().map(|&b| b as u8));
    }
    /// The schedule entries at `positions`, each with its position.
    fn entries(&mut self, schedule: &[(TbKey, u64, u64)], positions: &[u32]) {
        self.u32(positions.len() as u32);
        for &pos in positions {
            let (key, start, finish) = schedule[pos as usize];
            self.u32(pos);
            self.key(key);
            self.u64(start);
            self.u64(finish);
        }
    }
    /// A history record: payload length, payload, then the CRC32 of both.
    fn record(&mut self, body: impl FnOnce(&mut Enc)) {
        let at = self.buf.len();
        self.u64(0);
        body(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.buf[at..]);
        self.u32(crc);
    }
    /// A live-part section: tag, payload length, payload.
    fn section(&mut self, tag: u32, body: impl FnOnce(&mut Enc)) {
        self.u32(tag);
        let at = self.buf.len();
        self.u64(0);
        body(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

/// One schedule entry `(key, start, finish)` at its schedule position.
type Positioned = (u32, (TbKey, u64, u64));

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
    fn u32s(&mut self) -> DecResult<Vec<u32>> {
        (0..self.len()?).map(|_| self.u32()).collect()
    }
    fn u64s(&mut self) -> DecResult<Vec<u64>> {
        (0..self.len()?).map(|_| self.u64()).collect()
    }
    fn bools(&mut self) -> DecResult<Vec<bool>> {
        (0..self.len()?).map(|_| self.bool()).collect()
    }
    /// Schedule entries with their positions, which must ascend.
    fn entries(&mut self) -> DecResult<Vec<Positioned>> {
        let mut out: Vec<Positioned> = Vec::new();
        for _ in 0..self.len()? {
            let pos = self.u32()?;
            if out.last().is_some_and(|&(prev, _)| pos <= prev) {
                return Err(SnapshotError::Malformed("schedule positions out of order"));
            }
            out.push((pos, (self.key()?, self.u64()?, self.u64()?)));
        }
        Ok(out)
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

/// Where snapshots are kept. Each [`save`](SnapshotStore::save) receives
/// one complete snapshot and [`load`](SnapshotStore::load) returns the
/// latest complete one; a crash mid-save leaves the previous snapshot
/// loadable.
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
    /// [`SnapshotError::Io`] on filesystem failure; a store that keeps its
    /// own framing ([`DirStore`]) also reports damage to it.
    fn load(&mut self) -> Result<Option<Vec<u8>>, SnapshotError>;
}

/// Magic of a [`DirStore`] log file.
const LOG_MAGIC: &[u8; 8] = b"BMSLOG01";
/// Kept-prefix length, suffix length, suffix CRC32, then the CRC32 of
/// those 20 bytes.
const LOG_RECORD_HEADER: usize = 8 + 8 + 4 + 4;
/// A save that would grow the log past this multiple of the snapshot it
/// saves rewrites the log as one full record instead.
const LOG_COMPACT_FACTOR: u64 = 4;

/// Filesystem-backed store: one log file holding the latest snapshot.
///
/// The file is a magic followed by records of (kept-prefix length, suffix,
/// suffix CRC32, header CRC32); replaying them — keep that many bytes of
/// the previous snapshot, append the suffix — yields each saved snapshot
/// in turn. A save whose snapshot shares a prefix with the previous one
/// (the engine's snapshots share their history part) appends one record
/// and fsyncs the file. The first save of a store, a save once the log
/// would outgrow a fixed multiple of the snapshot, and any save to a file
/// this store did not last write or load rewrite the log as one full
/// record through [`atomic_write_counted`].
///
/// [`load`](SnapshotStore::load) checks every record. A final record cut
/// short (a torn append) yields the previous snapshot; a checksum failure
/// anywhere is a typed [`SnapshotError`], so a damaged length never passes
/// as a torn tail.
#[derive(Debug, Clone)]
pub struct DirStore {
    path: PathBuf,
    /// Accumulated fsync counts across every [`SnapshotStore::save`] on
    /// this store — durability tests assert these advance.
    pub syncs: FsyncStats,
    /// The log as this store last wrote or loaded it; `None` forces the
    /// next save to rewrite.
    tail: Option<LogTail>,
}

/// What a [`DirStore`] knows about its log file.
#[derive(Clone)]
struct LogTail {
    /// The snapshot the log replays to.
    latest: Vec<u8>,
    /// Identity of the log file (device, inode).
    file: (u64, u64),
    /// Length of the log's complete records.
    len: u64,
}

impl fmt::Debug for LogTail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogTail")
            .field("latest_bytes", &self.latest.len())
            .field("file", &self.file)
            .field("len", &self.len)
            .finish()
    }
}

/// Default snapshot file name inside a `--checkpoint-dir`.
pub const SNAPSHOT_FILE: &str = "latest.bmsnap";

impl DirStore {
    /// Store under `dir/`[`SNAPSHOT_FILE`]. The directory is created on
    /// first save.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DirStore::at_file(dir.into().join(SNAPSHOT_FILE))
    }

    /// Store at an exact file path.
    pub fn at_file(path: impl Into<PathBuf>) -> Self {
        DirStore {
            path: path.into(),
            syncs: FsyncStats::default(),
            tail: None,
        }
    }

    /// The snapshot file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends the record that turns `tail.latest` into `bytes`, if the log
    /// is still the file `tail` describes and stays within the compaction
    /// bound. Returns whether it appended.
    fn append(&mut self, tail: &mut LogTail, bytes: &[u8]) -> std::io::Result<bool> {
        use std::io::Write;
        let keep = common_prefix(&tail.latest, bytes);
        let suffix = &bytes[keep..];
        let grown = tail.len + (LOG_RECORD_HEADER + suffix.len()) as u64;
        if grown > LOG_COMPACT_FACTOR * bytes.len() as u64 {
            return Ok(false);
        }
        let mut f = match std::fs::OpenOptions::new().append(true).open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        let meta = f.metadata()?;
        if file_id(&meta) != Some(tail.file) || meta.len() != tail.len {
            return Ok(false);
        }
        let mut record = Vec::with_capacity(LOG_RECORD_HEADER + suffix.len());
        record.extend_from_slice(&log_header(keep, suffix));
        record.extend_from_slice(suffix);
        f.write_all(&record)?;
        f.sync_data()?;
        self.syncs.file_syncs += 1;
        tail.latest.truncate(keep);
        tail.latest.extend_from_slice(suffix);
        tail.len = grown;
        Ok(true)
    }

    /// Replaces the log with one full record of `bytes`.
    fn rewrite(&mut self, bytes: &[u8], reuse: Option<LogTail>) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut log = Vec::with_capacity(LOG_MAGIC.len() + LOG_RECORD_HEADER + bytes.len());
        log.extend_from_slice(LOG_MAGIC);
        log.extend_from_slice(&log_header(0, bytes));
        log.extend_from_slice(bytes);
        let stats = atomic_write_counted(&self.path, &log)?;
        self.syncs.file_syncs += stats.file_syncs;
        self.syncs.dir_syncs += stats.dir_syncs;
        // Appends need the new file's identity; without it the next save
        // rewrites again.
        let id = std::fs::metadata(&self.path)
            .ok()
            .filter(|meta| meta.len() == log.len() as u64)
            .and_then(|meta| file_id(&meta));
        if let Some(file) = id {
            let mut latest = reuse.map(|t| t.latest).unwrap_or_default();
            latest.clear();
            latest.extend_from_slice(bytes);
            self.tail = Some(LogTail {
                latest,
                file,
                len: log.len() as u64,
            });
        }
        Ok(())
    }
}

impl SnapshotStore for DirStore {
    fn save(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
        // Any failure leaves `tail` empty, so the next save rewrites.
        if let Some(mut tail) = self.tail.take() {
            if self.append(&mut tail, bytes).map_err(io)? {
                self.tail = Some(tail);
                return Ok(());
            }
            return self.rewrite(bytes, Some(tail)).map_err(io);
        }
        self.rewrite(bytes, None).map_err(io)
    }

    fn load(&mut self) -> Result<Option<Vec<u8>>, SnapshotError> {
        use std::io::Read;
        self.tail = None;
        let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
        let mut f = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io(e)),
        };
        let meta = f.metadata().map_err(io)?;
        let mut log = Vec::new();
        f.read_to_end(&mut log).map_err(io)?;
        let (latest, len) = replay_log(&log)?;
        if let Some(file) = file_id(&meta) {
            self.tail = Some(LogTail {
                latest: latest.clone(),
                file,
                len: len as u64,
            });
        }
        Ok(Some(latest))
    }
}

/// Identity of a file for [`DirStore`]'s append check: `None` where the
/// platform offers none, which makes every save a rewrite.
fn file_id(meta: &std::fs::Metadata) -> Option<(u64, u64)> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        Some((meta.dev(), meta.ino()))
    }
    #[cfg(not(unix))]
    {
        let _ = meta;
        None
    }
}

/// Length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    const BLOCK: usize = 4096;
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + BLOCK <= n && a[i..i + BLOCK] == b[i..i + BLOCK] {
        i += BLOCK;
    }
    i + a[i..n]
        .iter()
        .zip(&b[i..n])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Header of the log record that keeps `keep` bytes of the previous
/// snapshot, then appends `suffix`.
fn log_header(keep: usize, suffix: &[u8]) -> [u8; LOG_RECORD_HEADER] {
    let mut h = [0u8; LOG_RECORD_HEADER];
    h[..8].copy_from_slice(&(keep as u64).to_le_bytes());
    h[8..16].copy_from_slice(&(suffix.len() as u64).to_le_bytes());
    h[16..20].copy_from_slice(&crc32(suffix).to_le_bytes());
    let header_crc = crc32(&h[..20]);
    h[20..].copy_from_slice(&header_crc.to_le_bytes());
    h
}

/// Replays a [`DirStore`] log: the latest snapshot, and the length of the
/// log's complete records (less than `log.len()` after a torn append).
fn replay_log(log: &[u8]) -> Result<(Vec<u8>, usize), SnapshotError> {
    if log.len() < LOG_MAGIC.len() {
        return Err(SnapshotError::Truncated);
    }
    if &log[..LOG_MAGIC.len()] != LOG_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut latest: Vec<u8> = Vec::new();
    let mut records = 0usize;
    let mut pos = LOG_MAGIC.len();
    while log.len() - pos >= LOG_RECORD_HEADER {
        let mut d = Dec::new(&log[pos..pos + LOG_RECORD_HEADER]);
        let (keep, len, crc, header_crc) = (d.u64()?, d.u64()?, d.u32()?, d.u32()?);
        if crc32(&log[pos..pos + LOG_RECORD_HEADER - 4]) != header_crc {
            return Err(SnapshotError::ChecksumMismatch {
                section: CRC_LOG_HEADER,
            });
        }
        let start = pos + LOG_RECORD_HEADER;
        let Some(end) = usize::try_from(len)
            .ok()
            .and_then(|n| start.checked_add(n))
            .filter(|&end| end <= log.len())
        else {
            break; // torn append: the previous record is the latest
        };
        let suffix = &log[start..end];
        if crc32(suffix) != crc {
            return Err(SnapshotError::ChecksumMismatch {
                section: CRC_LOG_PAYLOAD,
            });
        }
        let keep = usize::try_from(keep)
            .ok()
            .filter(|&k| k <= latest.len() && (records > 0 || k == 0))
            .ok_or(SnapshotError::Malformed(
                "log record keeps more than the previous snapshot",
            ))?;
        latest.truncate(keep);
        latest.extend_from_slice(suffix);
        records += 1;
        pos = end;
    }
    if records == 0 {
        return Err(SnapshotError::Truncated);
    }
    Ok((latest, pos))
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

/// Sync operations performed by [`atomic_write`] or a [`DirStore`].
/// Exposed so durability tests can assert that fsync actually ran rather
/// than trusting the happy path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsyncStats {
    /// File fsyncs that completed: the temp file before each rename, and
    /// the log file after each [`DirStore`] append.
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
/// reports) and every [`DirStore`] rewrite route through here.
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
// Borrowed run state: what the encoder reads.
// ---------------------------------------------------------------------------

/// One kernel's lifecycle state, borrowed from a [`KernelSnapshot`] or from
/// the running engine.
pub(crate) struct KernelView<'a> {
    pub counts: &'a [u32],
    pub data_ready: &'a [Option<u64>],
    pub done: &'a [bool],
    /// The ready queue as a ring buffer's two halves, in queue order.
    pub ready: (&'a [u32], &'a [u32]),
    pub pushed: &'a [bool],
    pub completed: u32,
    pub arrival: Option<u64>,
    pub issued: bool,
    pub complete: bool,
}

/// Per-kernel state the encoder can borrow: a decoded [`KernelSnapshot`]
/// or the engine's own record of a kernel.
pub(crate) trait KernelImage {
    fn image(&self) -> KernelView<'_>;
}

impl KernelImage for KernelSnapshot {
    fn image(&self) -> KernelView<'_> {
        KernelView {
            counts: &self.counts,
            data_ready: &self.data_ready,
            done: &self.done,
            ready: (&self.ready, &[]),
            pushed: &self.pushed,
            completed: self.completed,
            arrival: self.arrival,
            issued: self.issued,
            complete: self.complete,
        }
    }
}

/// The engine source's state as [`EngineSnapshot`] holds it, with the
/// per-kernel records, issue cycles, pressure events and PCB FIFO borrowed.
/// The small collections a capture must sort are owned.
pub(crate) struct EngineView<'a, K> {
    pub window: u32,
    pub retired: u32,
    pub issued_count: u32,
    pub next_issue_floor: u64,
    pub consumer_toggle: bool,
    pub issue_cycles: &'a [u64],
    /// Sorted.
    pub arrivals: Vec<(u64, u32)>,
    pub kernels: &'a [K],
    pub pressure: &'a [PressureEvent],
    /// Sorted by key.
    pub dlb_entries: Vec<(TbKey, &'a [u32])>,
    pub dlb_traffic: HwTraffic,
    pub dlb_high_water: u32,
    /// Sorted by key.
    pub pcb_counters: Vec<(TbKey, u32)>,
    /// The FIFO as a ring buffer's two halves, in eviction order.
    pub pcb_fifo: (&'a [TbKey], &'a [TbKey]),
    pub pcb_capacity: u32,
    pub pcb_traffic: HwTraffic,
    pub pcb_high_water: u32,
}

/// Everything one snapshot encodes, borrowed.
pub(crate) struct StateView<'a, K> {
    pub meta: &'a SnapshotMeta,
    pub des: DesView<'a>,
    pub engine: EngineView<'a, K>,
    pub guard: &'a GuardSnapshot,
    pub order: &'a [u32],
    pub trace: &'a [TraceEvent],
    /// Whether `trace` ends with this snapshot's own `CheckpointSave`,
    /// whose `bytes` field the encoder stamps with the encoded size.
    pub stamp_size: bool,
}

impl RunSnapshot {
    fn view(&self) -> StateView<'_, KernelSnapshot> {
        let e = &self.engine;
        StateView {
            meta: &self.meta,
            des: self.des.view(),
            engine: EngineView {
                window: e.window,
                retired: e.retired,
                issued_count: e.issued_count,
                next_issue_floor: e.next_issue_floor,
                consumer_toggle: e.consumer_toggle,
                issue_cycles: &e.issue_cycles,
                arrivals: e.arrivals.clone(),
                kernels: &e.kernels,
                pressure: &e.pressure,
                dlb_entries: e.dlb_entries.iter().map(|(k, c)| (*k, &c[..])).collect(),
                dlb_traffic: e.dlb_traffic,
                dlb_high_water: e.dlb_high_water,
                pcb_counters: e.pcb_counters.clone(),
                pcb_fifo: (&e.pcb_fifo, &[]),
                pcb_capacity: e.pcb_capacity,
                pcb_traffic: e.pcb_traffic,
                pcb_high_water: e.pcb_high_water,
            },
            guard: &self.guard,
            order: &self.order,
            trace: &self.trace,
            stamp_size: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Part codecs.
// ---------------------------------------------------------------------------

fn enc_kernel(e: &mut Enc, k: &KernelView<'_>) {
    e.u32s(k.counts.len(), k.counts);
    e.u32(k.data_ready.len() as u32);
    for &r in k.data_ready {
        e.opt_u64(r);
    }
    e.bools(k.done);
    e.u32s(
        k.ready.0.len() + k.ready.1.len(),
        k.ready.0.iter().chain(k.ready.1),
    );
    e.bools(k.pushed);
    e.u32(k.completed);
    e.opt_u64(k.arrival);
    e.bool(k.issued);
    e.bool(k.complete);
}

fn dec_kernel(d: &mut Dec) -> DecResult<KernelSnapshot> {
    Ok(KernelSnapshot {
        counts: d.u32s()?,
        data_ready: (0..d.len()?)
            .map(|_| d.opt_u64())
            .collect::<DecResult<_>>()?,
        done: d.bools()?,
        ready: d.u32s()?,
        pushed: d.bools()?,
        completed: d.u32()?,
        arrival: d.opt_u64()?,
        issued: d.bool()?,
        complete: d.bool()?,
    })
}

fn enc_meta(e: &mut Enc, m: &SnapshotMeta) {
    e.u64(m.app_fp);
    e.str(&m.mode);
    e.str(&m.hazard);
    e.u32(m.n_kernels);
    e.u32(m.retired);
    e.u64(m.cycle);
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

/// The DES state; of the schedule only its length and the entries at
/// `live` (the unretired kernels'), which the history records leave out.
fn enc_des(e: &mut Enc, c: &DesView<'_>, live: &[u32]) {
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
    e.u32s(c.resident.len(), c.resident);
    e.u64(c.stats.total_cycles);
    e.u128(c.stats.concurrency_integral);
    e.u64(c.stats.tbs_executed);
    e.u32(c.stats.schedule.len() as u32);
    e.entries(&c.stats.schedule, live);
}

/// The DES state with an empty schedule, the schedule's length, and the
/// live part's schedule entries.
type DesLive = (DesCheckpoint, usize, Vec<Positioned>);

fn dec_des(d: &mut Dec) -> DecResult<DesLive> {
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
    let resident = d.u32s()?;
    let stats = DesStats {
        total_cycles: d.u64()?,
        concurrency_integral: d.u128()?,
        tbs_executed: d.u64()?,
        schedule: Vec::new(),
    };
    let schedule_len = d.u32()? as usize;
    let live = d.entries()?;
    let ckpt = DesCheckpoint {
        sms,
        events,
        seq,
        now,
        running,
        last_t,
        resident,
        stats,
    };
    Ok((ckpt, schedule_len, live))
}

/// The engine state of the kernels from `first` on: earlier kernels live
/// in history records.
fn enc_engine<K: KernelImage>(e: &mut Enc, s: &EngineView<'_, K>, first: usize) {
    e.u32(s.window);
    e.u32(s.retired);
    e.u32(s.issued_count);
    e.u64(s.next_issue_floor);
    e.bool(s.consumer_toggle);
    let issue_cycles = &s.issue_cycles[first..];
    e.u32(issue_cycles.len() as u32);
    for &c in issue_cycles {
        e.u64(c);
    }
    e.u32((s.kernels.len() - first) as u32);
    for k in &s.kernels[first..] {
        enc_kernel(e, &k.image());
    }
    e.u32(s.arrivals.len() as u32);
    for &(t, k) in &s.arrivals {
        e.u64(t);
        e.u32(k);
    }
    e.u32(s.pressure.len() as u32);
    for p in s.pressure {
        e.u64(p.cycle);
        e.u64(p.spill_traffic);
        e.u32(p.window_before);
        e.u32(p.window_after);
    }
    e.u32(s.dlb_entries.len() as u32);
    for &(key, children) in &s.dlb_entries {
        e.key(key);
        e.u32s(children.len(), children);
    }
    e.traffic(s.dlb_traffic);
    e.u32(s.dlb_high_water);
    e.u32(s.pcb_counters.len() as u32);
    for &(key, count) in &s.pcb_counters {
        e.key(key);
        e.u32(count);
    }
    e.u32((s.pcb_fifo.0.len() + s.pcb_fifo.1.len()) as u32);
    for &key in s.pcb_fifo.0.iter().chain(s.pcb_fifo.1) {
        e.key(key);
    }
    e.u32(s.pcb_capacity);
    e.traffic(s.pcb_traffic);
    e.u32(s.pcb_high_water);
}

/// The engine state with only the unretired kernels' issue cycles and
/// records.
fn dec_engine(d: &mut Dec) -> DecResult<EngineSnapshot> {
    let window = d.u32()?;
    let retired = d.u32()?;
    let issued_count = d.u32()?;
    let next_issue_floor = d.u64()?;
    let consumer_toggle = d.bool()?;
    let issue_cycles = d.u64s()?;
    let kernels = (0..d.len()?)
        .map(|_| dec_kernel(d))
        .collect::<DecResult<_>>()?;
    let mut arrivals = Vec::new();
    for _ in 0..d.len()? {
        arrivals.push((d.u64()?, d.u32()?));
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
        dlb_entries.push((d.key()?, d.u32s()?));
    }
    let dlb_traffic = d.traffic()?;
    let dlb_high_water = d.u32()?;
    let mut pcb_counters = Vec::new();
    for _ in 0..d.len()? {
        pcb_counters.push((d.key()?, d.u32()?));
    }
    let pcb_fifo = (0..d.len()?).map(|_| d.key()).collect::<DecResult<_>>()?;
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

fn enc_guard(e: &mut Enc, g: &GuardSnapshot) {
    e.u32(g.round);
    e.u64(g.report.violations_detected);
    e.u64(g.report.kernels_quarantined);
    e.u64(g.report.cycles_lost_to_fallback);
    e.u32(g.report.recovery_rounds);
    e.u32s(g.quarantined.len(), &g.quarantined);
}

fn dec_guard(d: &mut Dec) -> DecResult<GuardSnapshot> {
    let round = d.u32()?;
    let report = GuardReport {
        violations_detected: d.u64()?,
        kernels_quarantined: d.u64()?,
        cycles_lost_to_fallback: d.u64()?,
        recovery_rounds: d.u32()?,
    };
    Ok(GuardSnapshot {
        round,
        report,
        quarantined: d.u32s()?,
    })
}

fn enc_trace(e: &mut Enc, events: &[TraceEvent]) {
    e.u32(events.len() as u32);
    for ev in events {
        encode_event(e, ev);
    }
}

fn dec_trace(d: &mut Dec) -> DecResult<Vec<TraceEvent>> {
    (0..d.len()?).map(|_| decode_event(d)).collect()
}

// ---------------------------------------------------------------------------
// Container encode/decode.
// ---------------------------------------------------------------------------

/// Encodes one run's snapshots, each save costing what changed since the
/// previous one. The buffer holds the header and one history record per
/// kernel already retired; a write appends the records of kernels retired
/// since the previous write, then replaces the live part and trailer. So
/// the history part of every output is a byte prefix of the next, and a
/// fresh writer's first output is [`RunSnapshot::encode`]'s canonical
/// layout.
///
/// Everything is derived from positions at write time — the retired count
/// and the schedule's length — so the engine's step loop does no extra
/// work. A writer serves one run: its retired count never decreases.
pub(crate) struct SnapshotWriter {
    enc: Enc,
    /// End of the last history record.
    history_end: usize,
    /// Kernels with a history record.
    records: usize,
    /// Schedule positions below this all belong to recorded kernels.
    frontier: usize,
    /// Scratch: schedule positions of unretired kernels' entries.
    live: Vec<u32>,
}

impl SnapshotWriter {
    pub(crate) fn new() -> Self {
        let mut enc = Enc::default();
        enc.buf.extend_from_slice(MAGIC);
        enc.u32(FORMAT_VERSION);
        SnapshotWriter {
            history_end: enc.buf.len(),
            enc,
            records: 0,
            frontier: 0,
            live: Vec::new(),
        }
    }

    /// The complete snapshot of `v`.
    pub(crate) fn write<K: KernelImage>(&mut self, v: &StateView<'_, K>) -> &[u8] {
        let schedule = &v.des.stats.schedule;
        let eng = &v.engine;
        let retired = (eng.retired as usize)
            .min(eng.kernels.len())
            .min(eng.issue_cycles.len())
            .max(self.records);
        let first = self.records;
        // Schedule entries from the frontier on: the newly retired
        // kernels' go to their records, the unretired kernels' to the live
        // part, and recorded kernels' stragglers are skipped.
        let mut fresh: Vec<Vec<u32>> = vec![Vec::new(); retired - first];
        self.live.clear();
        for (pos, (key, ..)) in schedule.iter().enumerate().skip(self.frontier) {
            let k = key.kernel_seq as usize;
            if k >= retired {
                self.live.push(pos as u32);
            } else if k >= first {
                fresh[k - first].push(pos as u32);
            }
        }
        let e = &mut self.enc;
        e.buf.truncate(self.history_end);
        for (k, positions) in (first..).zip(&fresh) {
            e.record(|e| {
                e.u64(eng.issue_cycles[k]);
                enc_kernel(e, &eng.kernels[k].image());
                e.entries(schedule, positions);
            });
        }
        self.records = retired;
        self.history_end = e.buf.len();
        while schedule
            .get(self.frontier)
            .is_some_and(|(key, ..)| (key.kernel_seq as usize) < retired)
        {
            self.frontier += 1;
        }
        let live = &self.live;
        e.section(TAG_META, |e| enc_meta(e, v.meta));
        e.section(TAG_DES, |e| enc_des(e, &v.des, live));
        e.section(TAG_ENGINE, |e| enc_engine(e, eng, retired));
        e.section(TAG_GUARD, |e| enc_guard(e, v.guard));
        e.section(TAG_ORDER, |e| e.u32s(v.order.len(), v.order));
        e.section(TAG_TRACE, |e| enc_trace(e, v.trace));
        if v.stamp_size {
            // The closing `CheckpointSave` ends the live part with its
            // fixed-width `bytes` field.
            let total = (e.buf.len() + TRAILER_LEN) as u64;
            let at = e.buf.len() - 8;
            e.buf[at..].copy_from_slice(&total.to_le_bytes());
        }
        let live_crc = crc32(&e.buf[self.history_end..]);
        let trailer = e.buf.len();
        e.u64(self.history_end as u64);
        e.u32(live_crc);
        let trailer_crc = crc32(&e.buf[trailer..]);
        e.u32(trailer_crc);
        &e.buf
    }
}

/// A snapshot whose every checksum verified: its history records and the
/// sections of its live part.
struct Layout<'a> {
    /// History record payloads, in retirement order.
    records: Vec<&'a [u8]>,
    /// Bytes of the history part, header excluded.
    history_bytes: usize,
    /// The live part.
    live: &'a [u8],
    /// The live part's section payloads, in [`LIVE_TAGS`] order.
    sections: [&'a [u8]; 6],
}

/// Checks magic, version and every checksum, and locates the parts.
fn layout(bytes: &[u8]) -> Result<Layout<'_>, SnapshotError> {
    let mut d = Dec::new(bytes);
    if d.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = d.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let trailer_at = bytes
        .len()
        .checked_sub(TRAILER_LEN)
        .filter(|&at| at >= HEADER_LEN)
        .ok_or(SnapshotError::Truncated)?;
    let mut t = Dec::new(&bytes[trailer_at..]);
    let (live_at, live_crc, trailer_crc) = (t.u64()?, t.u32()?, t.u32()?);
    if crc32(&bytes[trailer_at..trailer_at + TRAILER_LEN - 4]) != trailer_crc {
        return Err(SnapshotError::ChecksumMismatch {
            section: CRC_TRAILER,
        });
    }
    let live_at = usize::try_from(live_at)
        .ok()
        .filter(|at| (HEADER_LEN..=trailer_at).contains(at))
        .ok_or(SnapshotError::Malformed(
            "trailer places the live part out of bounds",
        ))?;
    let live = &bytes[live_at..trailer_at];
    if crc32(live) != live_crc {
        return Err(SnapshotError::ChecksumMismatch { section: CRC_LIVE });
    }
    // History records: a length, the payload, a CRC32 of both. A length
    // that overruns the history part fails the record's checksum, since
    // the record cannot be verified.
    let damaged = SnapshotError::ChecksumMismatch {
        section: CRC_HISTORY,
    };
    let mut records = Vec::new();
    let mut rest = &bytes[HEADER_LEN..live_at];
    while !rest.is_empty() {
        let mut r = Dec::new(rest);
        let end = r
            .u64()
            .ok()
            .and_then(|n| usize::try_from(n).ok())
            .and_then(|n| n.checked_add(8))
            .filter(|&end| end.checked_add(4).is_some_and(|e| e <= rest.len()))
            .ok_or_else(|| damaged.clone())?;
        let crc = u32::from_le_bytes([rest[end], rest[end + 1], rest[end + 2], rest[end + 3]]);
        if crc32(&rest[..end]) != crc {
            return Err(damaged);
        }
        records.push(&rest[8..end]);
        rest = &rest[end + 4..];
    }
    let mut sections = [&[][..]; 6];
    let mut s = Dec::new(live);
    for (slot, want) in sections.iter_mut().zip(LIVE_TAGS) {
        if s.done() {
            return Err(SnapshotError::Malformed("live part is missing a section"));
        }
        let tag = s.u32()?;
        if tag != want {
            return Err(SnapshotError::Malformed(if LIVE_TAGS.contains(&tag) {
                "live sections out of order"
            } else {
                "unknown section tag"
            }));
        }
        let len = usize::try_from(s.u64()?).map_err(|_| SnapshotError::Truncated)?;
        *slot = s.take(len)?;
    }
    if !s.done() {
        return Err(SnapshotError::Malformed(
            "trailing bytes after the live part",
        ));
    }
    Ok(Layout {
        records,
        history_bytes: live_at - HEADER_LEN,
        live,
        sections,
    })
}

/// Decodes one payload that `dec` must consume exactly.
fn whole<T>(payload: &[u8], dec: impl FnOnce(&mut Dec) -> DecResult<T>) -> DecResult<T> {
    let mut d = Dec::new(payload);
    let value = dec(&mut d)?;
    if !d.done() {
        return Err(SnapshotError::Malformed("trailing bytes in section"));
    }
    Ok(value)
}

/// Places each schedule entry at its position, each position exactly once.
struct ScheduleSlots {
    slots: Vec<Option<(TbKey, u64, u64)>>,
    placed: usize,
}

impl ScheduleSlots {
    fn place(&mut self, pos: u32, entry: (TbKey, u64, u64)) -> DecResult<()> {
        match self.slots.get_mut(pos as usize) {
            Some(slot @ None) => {
                *slot = Some(entry);
                self.placed += 1;
                Ok(())
            }
            Some(Some(_)) => Err(SnapshotError::Malformed("schedule position repeated")),
            None => Err(SnapshotError::Malformed("schedule position out of range")),
        }
    }

    fn finish(self) -> DecResult<Vec<(TbKey, u64, u64)>> {
        if self.placed != self.slots.len() {
            return Err(SnapshotError::Malformed("schedule positions left unfilled"));
        }
        Ok(self.slots.into_iter().flatten().collect())
    }
}

impl RunSnapshot {
    /// Serializes to the canonical v3 layout: header, one history record
    /// per retired kernel, the live part, the trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut writer = SnapshotWriter::new();
        writer.write(&self.view());
        writer.enc.buf
    }

    /// Decodes and fully validates a snapshot: magic, version, every
    /// checksum, and the canonical layout — one history record per retired
    /// kernel holding exactly that kernel's schedule entries, positions
    /// ascending within each record and together covering the schedule
    /// once. Every accepted `bytes` re-encodes to itself.
    ///
    /// # Errors
    ///
    /// The precise [`SnapshotError`] for the first damage found.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let layout = layout(bytes)?;
        let [meta, des, engine, guard, order, trace] = layout.sections;
        let meta = whole(meta, dec_meta)?;
        let (mut des, schedule_len, live_entries) = whole(des, dec_des)?;
        let mut engine = whole(engine, dec_engine)?;
        let guard = whole(guard, dec_guard)?;
        let order = whole(order, |d| d.u32s())?;
        let trace = whole(trace, dec_trace)?;
        let retired = engine.retired as usize;
        if layout.records.len() != retired {
            return Err(SnapshotError::Malformed(
                "history record count differs from the retired count",
            ));
        }
        // Every entry is encoded in at least 28 bytes, which bounds the
        // allocation a damaged length could ask for.
        if schedule_len > bytes.len() / 28 {
            return Err(SnapshotError::Malformed(
                "schedule length exceeds the snapshot",
            ));
        }
        let mut schedule = ScheduleSlots {
            slots: vec![None; schedule_len],
            placed: 0,
        };
        let mut issue_cycles = Vec::with_capacity(retired + engine.issue_cycles.len());
        let mut kernels = Vec::with_capacity(retired + engine.kernels.len());
        for (k, payload) in layout.records.iter().enumerate() {
            let entries = whole(payload, |d| {
                issue_cycles.push(d.u64()?);
                kernels.push(dec_kernel(d)?);
                d.entries()
            })?;
            for (pos, entry) in entries {
                if entry.0.kernel_seq as usize != k {
                    return Err(SnapshotError::Malformed(
                        "schedule entry filed under the wrong kernel",
                    ));
                }
                schedule.place(pos, entry)?;
            }
        }
        for (pos, entry) in live_entries {
            if (entry.0.kernel_seq as usize) < retired {
                return Err(SnapshotError::Malformed(
                    "schedule entry filed under the wrong kernel",
                ));
            }
            schedule.place(pos, entry)?;
        }
        des.stats.schedule = schedule.finish()?;
        issue_cycles.append(&mut engine.issue_cycles);
        kernels.append(&mut engine.kernels);
        engine.issue_cycles = issue_cycles;
        engine.kernels = kernels;
        Ok(RunSnapshot {
            meta,
            des,
            engine,
            guard,
            order,
            trace,
        })
    }
}

/// End of the history part of a valid snapshot.
#[cfg(test)]
pub(crate) fn history_end(bytes: &[u8]) -> usize {
    layout(bytes).map_or(0, |l| HEADER_LEN + l.history_bytes)
}

/// Human/machine-readable manifest of an encoded snapshot: header fields,
/// the history part (record count, bytes), the live part (bytes, CRC32)
/// and one entry per live section (tag, name, bytes). Round-trips through
/// the strict JSON parser byte-identically.
///
/// # Errors
///
/// Any header or checksum damage, as [`RunSnapshot::decode`] would report
/// it.
pub fn manifest(bytes: &[u8]) -> Result<Json, SnapshotError> {
    let layout = layout(bytes)?;
    let meta = whole(layout.sections[0], dec_meta)?;
    let names = ["meta", "des", "engine", "guard", "order", "trace"];
    let sections = LIVE_TAGS
        .iter()
        .zip(names)
        .zip(layout.sections)
        .map(|((&tag, name), payload)| {
            Json::obj([
                ("tag", Json::u64(u64::from(tag))),
                ("name", Json::Str(name.to_string())),
                ("bytes", Json::u64(payload.len() as u64)),
            ])
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert(
        "magic".to_string(),
        Json::Str(String::from_utf8_lossy(MAGIC).into_owned()),
    );
    doc.insert("version".to_string(), Json::u64(FORMAT_VERSION as u64));
    doc.insert("total_bytes".to_string(), Json::u64(bytes.len() as u64));
    doc.insert("app_fingerprint".to_string(), Json::u64(meta.app_fp));
    doc.insert("mode".to_string(), Json::Str(meta.mode));
    doc.insert("hazard".to_string(), Json::Str(meta.hazard));
    doc.insert("n_kernels".to_string(), Json::u64(meta.n_kernels as u64));
    doc.insert("retired".to_string(), Json::u64(meta.retired as u64));
    doc.insert("cycle".to_string(), Json::u64(meta.cycle));
    doc.insert(
        "history".to_string(),
        Json::obj([
            ("records", Json::u64(layout.records.len() as u64)),
            ("bytes", Json::u64(layout.history_bytes as u64)),
        ]),
    );
    doc.insert(
        "live".to_string(),
        Json::obj([
            ("bytes", Json::u64(layout.live.len() as u64)),
            ("crc32", Json::u64(u64::from(crc32(layout.live)))),
        ]),
    );
    doc.insert("sections".to_string(), Json::Arr(sections));
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
        // The sliced loop agrees with the bytewise definition at every
        // length and alignment of the 8-byte blocks.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for n in 0..data.len() {
            let mut c = !0u32;
            for &b in &data[..n] {
                c = (c >> 8) ^ CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize];
            }
            assert_eq!(crc32(&data[..n]), !c, "length {n}");
        }
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
                    // Kernel 0's entries straddle kernel 1's; kernel 2's
                    // belong to the live part.
                    schedule: vec![
                        (key(0, 0), 10, 20),
                        (key(1, 1), 20, 40),
                        (key(0, 1), 12, 25),
                        (key(2, 3), 40, 100),
                    ],
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
                    KernelSnapshot {
                        counts: vec![],
                        data_ready: vec![None; 4],
                        done: vec![false; 4],
                        ready: vec![],
                        pushed: vec![true, false, false, false],
                        completed: 0,
                        arrival: Some(900),
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

    /// History record payloads and live part of an encoded snapshot.
    fn split(bytes: &[u8]) -> (Vec<Vec<u8>>, Vec<u8>) {
        let l = layout(bytes).unwrap();
        (
            l.records.iter().map(|r| r.to_vec()).collect(),
            l.live.to_vec(),
        )
    }

    /// Seals record payloads and a live part into a snapshot with valid
    /// checksums, whatever the payloads hold.
    fn assemble(records: &[Vec<u8>], live: &[u8]) -> Vec<u8> {
        let mut e = Enc::default();
        e.buf.extend_from_slice(MAGIC);
        e.u32(FORMAT_VERSION);
        for r in records {
            e.record(|e| e.buf.extend_from_slice(r));
        }
        let live_at = e.buf.len();
        e.buf.extend_from_slice(live);
        let trailer = e.buf.len();
        e.u64(live_at as u64);
        e.u32(crc32(live));
        let crc = crc32(&e.buf[trailer..]);
        e.u32(crc);
        e.buf
    }

    /// Offset in `live` of the trace section's tag.
    fn trace_tag_at(live: &[u8]) -> usize {
        let mut d = Dec::new(live);
        for _ in 0..5 {
            d.u32().unwrap();
            let len = d.u64().unwrap() as usize;
            d.take(len).unwrap();
        }
        d.pos
    }

    #[test]
    fn round_trips_bit_identically() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = RunSnapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.encode(), bytes);
        let (records, live) = split(&bytes);
        assert_eq!(records.len(), 2, "one record per retired kernel");
        assert_eq!(assemble(&records, &live), bytes);
    }

    #[test]
    fn history_part_is_a_prefix_of_every_later_snapshot() {
        // Retiring kernel 2 appends its record and leaves the first two
        // records' bytes untouched.
        let before = sample_snapshot();
        let mut after = before.clone();
        after.engine.retired = 3;
        after.meta.retired = 3;
        after.engine.kernels[2].complete = true;
        let (a, b) = (before.encode(), after.encode());
        let history = layout(&a).unwrap().history_bytes + HEADER_LEN;
        assert_eq!(a[..history], b[..history]);
        assert_eq!(layout(&b).unwrap().records.len(), 3);
        // A writer carried across both saves produces the same bytes as
        // two fresh encodes.
        let mut w = SnapshotWriter::new();
        assert_eq!(w.write(&before.view()), &a[..]);
        assert_eq!(w.write(&after.view()), &b[..]);
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
        let mut e = Enc::default();
        enc_trace(&mut e, &events);
        let back = dec_trace(&mut Dec::new(&e.buf)).unwrap();
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
        let (records, mut live) = split(&snap.encode());
        // The trace payload is the event count, then the first event's tag.
        let at = trace_tag_at(&live) + 4 + 8 + 4;
        live[at] = 28;
        assert_eq!(
            RunSnapshot::decode(&assemble(&records, &live)).unwrap_err(),
            SnapshotError::Malformed("unknown trace-event tag")
        );
    }

    #[test]
    fn retired_multi_section_tag_7_is_malformed() {
        // Tag 7 carried a multi-device coordinator section that nothing
        // resumed from; a live part that still has one is rejected.
        let (records, mut live) = split(&sample_snapshot().encode());
        let at = trace_tag_at(&live);
        live[at..at + 4].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(
            RunSnapshot::decode(&assemble(&records, &live)).unwrap_err(),
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

        for cut in 0..bytes.len() {
            let err = RunSnapshot::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }

        // Flip one bit at every position after the header — records,
        // live part and trailer, lengths included: a checksum catches
        // each, and decode never panics.
        for pos in HEADER_LEN..bytes.len() {
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
    fn non_canonical_layouts_are_typed_errors() {
        let bytes = sample_snapshot().encode();
        let (records, live) = split(&bytes);
        let reject = |records: &[Vec<u8>], live: &[u8]| {
            RunSnapshot::decode(&assemble(records, live)).unwrap_err()
        };
        // Record 0 ends with its two entries: (position, key, start,
        // finish), 28 bytes each.
        let entry = |record: &[u8], i: usize| record.len() - (2 - i) * 28;

        let mut swapped = records.clone();
        let (a, b) = (entry(&swapped[0], 0), entry(&swapped[0], 1));
        let (pa, pb) = (swapped[0][a], swapped[0][b]);
        swapped[0][a] = pb;
        swapped[0][b] = pa;
        assert_eq!(
            reject(&swapped, &live),
            SnapshotError::Malformed("schedule positions out of order")
        );

        let mut misfiled = records.clone();
        let at = entry(&misfiled[0], 1) + 4;
        misfiled[0][at..at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            reject(&misfiled, &live),
            SnapshotError::Malformed("schedule entry filed under the wrong kernel")
        );

        let mut repeated = records.clone();
        let at = entry(&repeated[0], 1);
        repeated[0][at..at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            reject(&repeated, &live),
            SnapshotError::Malformed("schedule position repeated")
        );

        assert_eq!(
            reject(&records[..1], &live),
            SnapshotError::Malformed("history record count differs from the retired count")
        );

        let mut padded = records.clone();
        padded[1].push(0);
        assert_eq!(
            reject(&padded, &live),
            SnapshotError::Malformed("trailing bytes in section")
        );

        let mut long_live = live.clone();
        long_live.push(0);
        assert_eq!(
            reject(&records, &long_live),
            SnapshotError::Malformed("trailing bytes after the live part")
        );

        // Bytes after the trailer move where the trailer is read from.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            RunSnapshot::decode(&trailing).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));

        assert_eq!(RunSnapshot::decode(&assemble(&records, &live)).unwrap(), {
            RunSnapshot::decode(&bytes).unwrap()
        });
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

    /// Three snapshots that share prefixes the way a run's do, so the
    /// second and third saves append. Appends need the file identity that
    /// `file_id` reads only on Unix, so tests that count them run there.
    fn growing_snapshots() -> [Vec<u8>; 3] {
        let first: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut second = first[..900].to_vec();
        second.extend((0..200u32).map(|i| (i % 13) as u8));
        let mut third = second[..1000].to_vec();
        third.extend((0..150u32).map(|i| (i % 7) as u8));
        [first, second, third]
    }

    /// A store in a fresh temp directory for test `name`.
    fn temp_store(name: &str) -> (PathBuf, DirStore) {
        let dir = std::env::temp_dir().join(format!("bmlog-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirStore::new(&dir);
        (dir, store)
    }

    #[cfg(unix)]
    #[test]
    fn dir_store_appends_with_one_file_fsync_and_rewrites_with_two() {
        let (dir, mut store) = temp_store("syncs");
        let [a, b, c] = growing_snapshots();
        store.save(&a).unwrap();
        assert_eq!(
            store.syncs,
            FsyncStats {
                file_syncs: 1,
                dir_syncs: 1
            }
        );
        store.save(&b).unwrap();
        store.save(&c).unwrap();
        assert_eq!(
            store.syncs,
            FsyncStats {
                file_syncs: 3,
                dir_syncs: 1
            },
            "appends fsync the file only"
        );
        let log_len = std::fs::metadata(store.path()).unwrap().len() as usize;
        let full = LOG_MAGIC.len() + LOG_RECORD_HEADER;
        assert_eq!(
            log_len,
            full + a.len() + 2 * LOG_RECORD_HEADER + (b.len() - 900) + (c.len() - 1000),
            "each append writes only the changed suffix"
        );
        assert_eq!(store.load().unwrap().unwrap(), c);
        // A fresh store (or a fresh process) reads the same log.
        assert_eq!(DirStore::new(&dir).load().unwrap().unwrap(), c);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn dir_store_torn_final_record_loads_the_previous_snapshot() {
        let (dir, mut store) = temp_store("torn");
        let [a, b, c] = growing_snapshots();
        for s in [&a, &b, &c] {
            store.save(s).unwrap();
        }
        let log = std::fs::read(store.path()).unwrap();
        let last = log.len() - (LOG_RECORD_HEADER + c.len() - 1000);
        for cut in last..log.len() {
            std::fs::write(store.path(), &log[..cut]).unwrap();
            let mut reader = DirStore::new(&dir);
            assert_eq!(reader.load().unwrap().unwrap(), b, "cut at {cut}");
            // Torn bytes are never appended to: the next save rewrites
            // unless the cut fell exactly on the record boundary.
            reader.save(&c).unwrap();
            assert_eq!(
                reader.syncs.dir_syncs,
                u32::from(cut > last),
                "cut at {cut}"
            );
            assert_eq!(DirStore::new(&dir).load().unwrap().unwrap(), c);
        }
        // A log cut inside its only record has nothing to resume from.
        std::fs::write(store.path(), &log[..LOG_MAGIC.len() + 10]).unwrap();
        assert_eq!(
            DirStore::new(&dir).load().unwrap_err(),
            SnapshotError::Truncated
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_store_any_flipped_byte_is_a_typed_error() {
        let (dir, mut store) = temp_store("flip");
        let [a, b, c] = growing_snapshots();
        for s in [&a, &b, &c] {
            store.save(s).unwrap();
        }
        let log = std::fs::read(store.path()).unwrap();
        for pos in 0..log.len() {
            let mut dam = log.clone();
            dam[pos] ^= 0x01;
            std::fs::write(store.path(), &dam).unwrap();
            let err = DirStore::new(&dir).load().unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::BadMagic | SnapshotError::ChecksumMismatch { .. }
                ),
                "flip at {pos}: {err:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn dir_store_compaction_keeps_load_identical() {
        let (dir, mut store) = temp_store("compact");
        let [a, b, _] = growing_snapshots();
        // Alternating saves append until the log outgrows the bound, then
        // one save rewrites it.
        let mut saves = 0;
        while store.syncs.dir_syncs < 2 {
            let s = if saves % 2 == 0 { &a } else { &b };
            store.save(s).unwrap();
            saves += 1;
            assert_eq!(store.load().unwrap().unwrap(), *s, "save {saves}");
        }
        let log_len = std::fs::metadata(store.path()).unwrap().len();
        let latest = if saves % 2 == 1 { &a } else { &b };
        assert_eq!(
            log_len as usize,
            LOG_MAGIC.len() + LOG_RECORD_HEADER + latest.len(),
            "a compaction leaves one full record"
        );
        assert!(saves > 3, "appends ran before the compaction");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn dir_store_rewrites_a_file_replaced_behind_its_back() {
        let (dir, mut store) = temp_store("replaced");
        let [a, b, c] = growing_snapshots();
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        assert_eq!(store.syncs.dir_syncs, 1);
        // Another writer replaces the log with its own copy of it.
        let copy = std::fs::read(store.path()).unwrap();
        atomic_write(store.path(), &copy).unwrap();
        store.save(&c).unwrap();
        assert_eq!(store.syncs.dir_syncs, 2, "a replaced file is rewritten");
        assert_eq!(DirStore::new(&dir).load().unwrap().unwrap(), c);
        // So is one that grew.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(store.path())
            .unwrap();
        std::io::Write::write_all(&mut f, b"x").unwrap();
        store.save(&b).unwrap();
        assert_eq!(
            store.syncs.dir_syncs, 3,
            "a file of another length is rewritten"
        );
        assert_eq!(DirStore::new(&dir).load().unwrap().unwrap(), b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_reports_sections_and_round_trips() {
        let bytes = sample_snapshot().encode();
        let doc = manifest(&bytes).unwrap();
        let text = doc.to_string();
        let magic = String::from_utf8_lossy(MAGIC);
        assert!(text.contains(&format!("\"magic\":\"{magic}\"")));
        assert!(text.contains("\"name\":\"engine\""));
        assert!(text.contains("\"history\":{\"bytes\":"));
        assert!(text.contains("\"records\":2"));
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
