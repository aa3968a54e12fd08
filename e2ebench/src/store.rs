//! A snapshot store that measures the snapshot layer from outside.

use blockmaestro::{DirStore, RunSnapshot, SnapshotError, SnapshotStore};
use std::path::PathBuf;
use std::time::Instant;

/// What [`CountingStore`] observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful saves.
    pub saves: u64,
    /// Bytes handed to successful saves.
    pub bytes_written: u64,
    /// Wall time inside [`DirStore`]'s `save`, including its fsyncs.
    pub save_ns: u64,
    /// Wall time inside [`DirStore`]'s `load`.
    pub load_ns: u64,
    /// Wall time of one `RunSnapshot::encode` per saved snapshot (codec
    /// check only).
    pub encode_ns: u64,
    /// Wall time the codec check added to the run, decode and compare
    /// included; traced spans subtract it.
    pub codec_check_ns: u64,
    /// Saved snapshots that did not survive a decode/encode round trip
    /// byte for byte (codec check only).
    pub codec_mismatches: u64,
}

/// Forwards to a [`DirStore`], counting saves, bytes and time in `save` and
/// `load`. With `codec_check` set, each saved snapshot is also decoded and
/// re-encoded outside the save timer: that times the encoder from outside
/// the engine and checks that the codec round-trips.
pub struct CountingStore {
    inner: DirStore,
    codec_check: bool,
    /// Measurements so far.
    pub stats: StoreStats,
}

impl CountingStore {
    /// A store under `dir`, created on first save.
    pub fn new(dir: impl Into<PathBuf>, codec_check: bool) -> Self {
        CountingStore {
            inner: DirStore::new(dir),
            codec_check,
            stats: StoreStats::default(),
        }
    }

    /// File and directory fsyncs the inner store performed.
    pub fn fsyncs(&self) -> u64 {
        u64::from(self.inner.syncs.file_syncs) + u64::from(self.inner.syncs.dir_syncs)
    }

    fn check_codec(&mut self, bytes: &[u8]) {
        let start = Instant::now();
        let same = match RunSnapshot::decode(bytes) {
            Ok(snap) => {
                let t = Instant::now();
                let again = snap.encode();
                self.stats.encode_ns += nanos(t);
                again == bytes
            }
            Err(_) => false,
        };
        if !same {
            self.stats.codec_mismatches += 1;
        }
        self.stats.codec_check_ns += nanos(start);
    }
}

/// Nanoseconds since `t`.
pub fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl SnapshotStore for CountingStore {
    fn save(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let t = Instant::now();
        let result = self.inner.save(bytes);
        self.stats.save_ns += nanos(t);
        if result.is_ok() {
            self.stats.saves += 1;
            self.stats.bytes_written += bytes.len() as u64;
        }
        if self.codec_check {
            self.check_codec(bytes);
        }
        result
    }

    fn load(&mut self) -> Result<Option<Vec<u8>>, SnapshotError> {
        let t = Instant::now();
        let result = self.inner.load();
        self.stats.load_ns += nanos(t);
        result
    }
}
