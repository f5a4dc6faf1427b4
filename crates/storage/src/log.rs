//! [`LogEngine`]: an append-only, checksummed, compacting record log.
//!
//! ## On-disk format
//!
//! The log is a flat sequence of records, each framed as
//!
//! ```text
//! varint(body_len) · body · u64le(fnv1a64(body))
//! ```
//!
//! with the body itself
//!
//! ```text
//! tag(1 byte: 1=put, 2=remove, 3=clear) · varint(key_len) · key · state
//! ```
//!
//! where `state` (puts only) is the per-key state in the crate-standard
//! [`dvv::encode`] format. A fourth record kind carries the dot-mint
//! reservation (tag 4: `varint(epoch) · varint(ceiling)`, no key);
//! replay folds the component-wise maximum over every meta record seen,
//! so the recovered reservation is monotone in what was durably stored. Varint framing and the trailing checksum make
//! a torn final record — the expected artefact of dying mid-append —
//! self-announcing: replay stops at the first frame that is short,
//! fails its checksum, or fails to decode, and truncates the file back
//! to the last intact record. Nothing before a torn tail is ever lost;
//! nothing after it is ever trusted.
//!
//! ## Durability interval
//!
//! Appends buffer in user space and reach the file (with `sync_data`)
//! as a group, every [`LogConfig::sync_every_records`] records or
//! [`LogConfig::sync_every_bytes`] bytes, whichever comes first — so a
//! crash genuinely loses the un-synced tail, which is exactly the
//! durability/throughput trade the knob expresses. Replication is the
//! recovery story for that tail: the protocol layer re-fetches it from
//! peers via rejoin + anti-entropy.
//!
//! ## Compaction
//!
//! The in-memory index tracks the length of the latest durable record
//! per key, so `live_bytes` (latest records) vs `durable_bytes` (the whole
//! file) measures garbage exactly. When the file exceeds
//! [`LogConfig::compact_min_bytes`] and the garbage fraction exceeds
//! [`LogConfig::compact_garbage_ratio`], the engine rewrites the live
//! records to a fresh file and atomically renames it over the log —
//! rewriting the live set, truncating the dead tail.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use dvv::encode::{put_varint, Decoder, Encode};

use crate::{fnv1a64, Key, MemEngine, StorageEngine};

const TAG_PUT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_CLEAR: u8 = 3;
const TAG_META: u8 = 4;

/// Durability and compaction knobs for a [`LogEngine`].
///
/// **Reservation fsync cadence.** Dot-mint reservations
/// ([`StorageEngine::store_reservation`]) deliberately ignore the
/// group-sync interval: each one syncs immediately (flushing any
/// buffered data records with it), because the caller is about to mint
/// dots up to the new ceiling and let them escape to peers — a
/// reservation lost to a crash would defeat the epoch guard entirely.
/// The store amortises that cost by reserving counter *headroom*
/// (`StoreConfig::dot_headroom` upstream), so one reservation fsync
/// covers many mints and the group-sync write path stays within a few
/// percent of its unguarded cost (see `bench-baselines/BENCH_storage.json`).
#[derive(Clone, Copy, Debug)]
pub struct LogConfig {
    /// Group-sync after this many buffered records (1 = write-through:
    /// every append is durable before the call returns).
    pub sync_every_records: usize,
    /// ... or after this many buffered bytes, whichever comes first.
    pub sync_every_bytes: usize,
    /// Never compact while the file is smaller than this.
    pub compact_min_bytes: u64,
    /// Compact when `(durable - live) / durable` exceeds this fraction.
    pub compact_garbage_ratio: f64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            sync_every_records: 64,
            sync_every_bytes: 64 * 1024,
            compact_min_bytes: 256 * 1024,
            compact_garbage_ratio: 0.5,
        }
    }
}

impl LogConfig {
    /// Write-through configuration: every record is synced before its
    /// mutation returns. The strongest durability the engine offers —
    /// a crash loses nothing that was acknowledged.
    #[must_use]
    pub fn write_through() -> Self {
        LogConfig {
            sync_every_records: 1,
            ..LogConfig::default()
        }
    }
}

/// Counters a [`LogEngine`] keeps about its own behaviour.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogStats {
    /// Records appended (buffered) since open.
    pub appends: u64,
    /// Group syncs performed.
    pub syncs: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Valid records replayed at open.
    pub replayed_records: u64,
    /// Bytes discarded at open as a torn/corrupt tail.
    pub torn_tail_bytes: u64,
}

/// What a buffered (not yet durable) record will do to the index once
/// its group sync lands.
enum PendingOp {
    Put {
        key: Key,
        len: u64,
    },
    Remove {
        key: Key,
        len: u64,
    },
    Clear {
        len: u64,
    },
    /// A reservation record: affects no key, only advances the offset.
    Meta {
        len: u64,
    },
}

/// Typed record codec: monomorphised `dvv::encode` entry points, taken
/// as plain function pointers so the engine itself stays non-generic
/// over the `Encode` bound (only [`LogEngine::open`] requires it).
struct Codec<S> {
    enc: fn(&S, &mut Vec<u8>),
    dec: fn(&[u8]) -> Option<S>,
}

impl<S> Clone for Codec<S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S> Copy for Codec<S> {}

fn enc_state<S: Encode>(s: &S, buf: &mut Vec<u8>) {
    s.encode(buf);
}

fn dec_state<S: Encode>(bytes: &[u8]) -> Option<S> {
    dvv::encode::from_bytes(bytes).ok()
}

/// The append-only durable engine. See the module docs for the format
/// and the durability/compaction model.
pub struct LogEngine<S> {
    /// The working set: every live key's current state, always in sync
    /// with the durable log plus the pending buffer.
    map: BTreeMap<Key, S>,
    /// key → byte length of its latest *durable* record (drives
    /// garbage accounting; states are read from `map`).
    index: BTreeMap<Key, u64>,
    file: File,
    path: PathBuf,
    cfg: LogConfig,
    codec: Codec<S>,
    /// Framed records written but not yet synced; lost on crash.
    pending: Vec<u8>,
    pending_ops: Vec<PendingOp>,
    /// Valid bytes in the file (everything synced).
    durable_bytes: u64,
    /// Bytes of latest-per-key durable records.
    live_bytes: u64,
    /// Recovered/stored dot-mint reservation `(epoch, ceiling)`.
    reservation: Option<(u64, u64)>,
    stats: LogStats,
    scratch: Vec<u8>,
}

impl<S> fmt::Debug for LogEngine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogEngine")
            .field("path", &self.path)
            .field("keys", &self.map.len())
            .field("durable_bytes", &self.durable_bytes)
            .field("live_bytes", &self.live_bytes)
            .field("pending_bytes", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// One decoded record from a replay scan.
enum Record<S> {
    Put { key: Key, state: S },
    Remove { key: Key },
    Clear,
    Meta { epoch: u64, ceiling: u64 },
}

/// Parses the record framed at `bytes[at..]`. Returns the record and
/// the offset just past it, or `None` for anything short, corrupt or
/// undecodable — the torn-tail signal.
fn parse_record<S>(
    bytes: &[u8],
    at: usize,
    dec: fn(&[u8]) -> Option<S>,
) -> Option<(Record<S>, usize)> {
    let mut d = Decoder::new(&bytes[at..]);
    let body_len = usize::try_from(d.varint().ok()?).ok()?;
    let frame_at = bytes.len() - d.remaining() - at; // varint width
    let body_start = at + frame_at;
    let body_end = body_start.checked_add(body_len)?;
    let sum_end = body_end.checked_add(8)?;
    if sum_end > bytes.len() {
        return None; // short frame: torn tail
    }
    let body = &bytes[body_start..body_end];
    let sum = u64::from_le_bytes(bytes[body_end..sum_end].try_into().ok()?);
    if fnv1a64(body) != sum {
        return None; // checksum mismatch: corrupt
    }
    let mut b = Decoder::new(body);
    let tag = b.byte().ok()?;
    let record = match tag {
        TAG_CLEAR => {
            if b.remaining() != 0 {
                return None;
            }
            Record::Clear
        }
        TAG_META => {
            let epoch = b.varint().ok()?;
            let ceiling = b.varint().ok()?;
            if b.remaining() != 0 {
                return None;
            }
            Record::Meta { epoch, ceiling }
        }
        TAG_PUT | TAG_REMOVE => {
            let key_len = usize::try_from(b.varint().ok()?).ok()?;
            let key = b.bytes(key_len).ok()?.to_vec();
            if tag == TAG_REMOVE {
                if b.remaining() != 0 {
                    return None;
                }
                Record::Remove { key }
            } else {
                let state = dec(b.bytes(b.remaining()).ok()?)?;
                Record::Put { key, state }
            }
        }
        _ => return None,
    };
    Some((record, sum_end))
}

/// Frames one dot-mint reservation (meta) record onto `out`, returning
/// its framed length. Public so the proptest suite can exercise the
/// reservation codec at record granularity.
pub fn frame_meta(out: &mut Vec<u8>, epoch: u64, ceiling: u64) -> u64 {
    let body_len = 1 + dvv::encode::varint_len(epoch) + dvv::encode::varint_len(ceiling);
    let before = out.len();
    put_varint(out, body_len as u64);
    let body_start = out.len();
    out.push(TAG_META);
    put_varint(out, epoch);
    put_varint(out, ceiling);
    debug_assert_eq!(out.len() - body_start, body_len);
    let sum = fnv1a64(&out[body_start..]);
    out.extend_from_slice(&sum.to_le_bytes());
    (out.len() - before) as u64
}

fn dec_never(_: &[u8]) -> Option<()> {
    None
}

/// Parses the record framed at the start of `bytes` as a reservation
/// record: `Some((epoch, ceiling))` only for a complete, checksummed
/// meta frame — `None` for anything torn, corrupt, or of another kind.
/// The proptest counterpart of [`frame_meta`].
#[must_use]
pub fn parse_meta(bytes: &[u8]) -> Option<(u64, u64)> {
    match parse_record::<()>(bytes, 0, dec_never) {
        Some((Record::Meta { epoch, ceiling }, _)) => Some((epoch, ceiling)),
        _ => None,
    }
}

/// Scans the *full durable history* of the log at `path`: every intact
/// put record's `(key, state)` in append order, including records whose
/// key was later overwritten, removed or cleared — the ones the live
/// replay forgets. Stops at the first torn or corrupt frame, exactly
/// like recovery replay.
///
/// This is the audit surface for oracles over *everything a replica
/// ever durably applied*, not just what it currently holds — the
/// dot-uniqueness census runs over it, because a re-minted dot's first
/// bearer is usually dominated (and gone from the live states) by the
/// time a fleet can be audited.
///
/// # Errors
///
/// Propagates I/O errors from opening or reading the file. A missing
/// file is an empty history.
pub fn scan_history<S: Encode>(path: impl AsRef<Path>) -> io::Result<Vec<(Key, S)>> {
    let bytes = match std::fs::read(path.as_ref()) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let Some((record, next)) = parse_record(&bytes, at, dec_state::<S>) else {
            break; // torn/corrupt tail
        };
        if let Record::Put { key, state } = record {
            out.push((key, state));
        }
        at = next;
    }
    Ok(out)
}

/// Frames one record (body per the module docs) onto `out`.
fn frame_record(out: &mut Vec<u8>, tag: u8, key: &[u8], state: Option<&[u8]>) -> u64 {
    let state_len = state.map_or(0, <[u8]>::len);
    let body_len = match tag {
        TAG_CLEAR => 1,
        _ => 1 + dvv::encode::varint_len(key.len() as u64) + key.len() + state_len,
    };
    let before = out.len();
    put_varint(out, body_len as u64);
    let body_start = out.len();
    out.push(tag);
    if tag != TAG_CLEAR {
        put_varint(out, key.len() as u64);
        out.extend_from_slice(key);
        if let Some(state) = state {
            out.extend_from_slice(state);
        }
    }
    debug_assert_eq!(out.len() - body_start, body_len);
    let sum = fnv1a64(&out[body_start..]);
    out.extend_from_slice(&sum.to_le_bytes());
    (out.len() - before) as u64
}

impl<S> LogEngine<S>
where
    S: Clone + Send + 'static,
{
    /// Opens (creating if absent) the log at `path` and replays it into
    /// memory, tolerating a torn or corrupt final record: replay stops
    /// at the first invalid frame and truncates the file back to the
    /// last intact record, so the recovered contents are exactly the
    /// durable prefix.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening, reading or truncating the
    /// file. Corruption is *not* an error — it is a torn tail.
    pub fn open(path: impl Into<PathBuf>, cfg: LogConfig) -> io::Result<Self>
    where
        S: Encode,
    {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let codec = Codec::<S> {
            enc: enc_state::<S>,
            dec: dec_state::<S>,
        };
        let mut map = BTreeMap::new();
        let mut index = BTreeMap::new();
        let mut live_bytes = 0u64;
        let mut reservation: Option<(u64, u64)> = None;
        let mut stats = LogStats::default();
        let mut at = 0usize;
        while at < bytes.len() {
            let Some((record, next)) = parse_record(&bytes, at, codec.dec) else {
                break; // torn/corrupt tail — everything from `at` is discarded
            };
            let len = (next - at) as u64;
            match record {
                Record::Put { key, state } => {
                    if let Some(old) = index.insert(key.clone(), len) {
                        live_bytes -= old;
                    }
                    live_bytes += len;
                    map.insert(key, state);
                }
                Record::Remove { key } => {
                    if let Some(old) = index.remove(&key) {
                        live_bytes -= old;
                    }
                    map.remove(&key);
                }
                Record::Clear => {
                    live_bytes = 0;
                    index.clear();
                    map.clear();
                }
                Record::Meta { epoch, ceiling } => {
                    // Component-wise max: the recovered reservation is
                    // monotone in what was durably stored, whatever order
                    // (or duplication) compaction left the records in.
                    let (e0, c0) = reservation.unwrap_or((0, 0));
                    reservation = Some((e0.max(epoch), c0.max(ceiling)));
                }
            }
            stats.replayed_records += 1;
            at = next;
        }
        stats.torn_tail_bytes = (bytes.len() - at) as u64;
        if at < bytes.len() {
            file.set_len(at as u64)?;
        }
        file.seek(SeekFrom::Start(at as u64))?;

        Ok(LogEngine {
            map,
            index,
            file,
            path,
            cfg,
            codec,
            pending: Vec::new(),
            pending_ops: Vec::new(),
            durable_bytes: at as u64,
            live_bytes,
            reservation,
            stats,
            scratch: Vec::new(),
        })
    }

    /// The log file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Behaviour counters.
    #[must_use]
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// Valid (synced) bytes in the log file.
    #[must_use]
    pub fn durable_bytes(&self) -> u64 {
        self.durable_bytes
    }

    /// Bytes of latest-per-key durable records (the live set).
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Bytes buffered but not yet durable (lost if the process dies
    /// before the next group sync).
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.pending.len()
    }

    /// Buffers one framed record and group-syncs if the durability
    /// interval is reached.
    fn push_record(&mut self, op: PendingOp) {
        self.stats.appends += 1;
        self.pending_ops.push(op);
        if self.pending_ops.len() >= self.cfg.sync_every_records
            || self.pending.len() >= self.cfg.sync_every_bytes
        {
            self.group_sync();
        }
    }

    /// Writes + syncs the pending buffer and folds its ops into the
    /// durable index, then compacts if the garbage threshold is hit.
    fn group_sync(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.file
            .write_all(&self.pending)
            .expect("log append write");
        self.file.sync_data().expect("log append sync");
        self.stats.syncs += 1;
        let mut appended = 0;
        for op in self.pending_ops.drain(..) {
            appended += match op {
                PendingOp::Put { key, len } => {
                    if let Some(old) = self.index.insert(key, len) {
                        self.live_bytes -= old;
                    }
                    self.live_bytes += len;
                    len
                }
                PendingOp::Remove { key, len } => {
                    if let Some(old) = self.index.remove(&key) {
                        self.live_bytes -= old;
                    }
                    len
                }
                PendingOp::Clear { len } => {
                    self.index.clear();
                    self.live_bytes = 0;
                    len
                }
                PendingOp::Meta { len } => len,
            };
        }
        debug_assert_eq!(appended, self.pending.len() as u64);
        self.durable_bytes += self.pending.len() as u64;
        self.pending.clear();
        self.maybe_compact();
    }

    /// Rewrites the live records to a fresh file and renames it over
    /// the log when the garbage fraction warrants it.
    fn maybe_compact(&mut self) {
        if self.durable_bytes < self.cfg.compact_min_bytes {
            return;
        }
        let garbage = self.durable_bytes.saturating_sub(self.live_bytes) as f64;
        if garbage / self.durable_bytes as f64 <= self.cfg.compact_garbage_ratio {
            return;
        }
        let mut buf = Vec::new();
        let mut index = BTreeMap::new();
        // The reservation must survive compaction: rewrite it first, so
        // even a crash mid-rename leaves one file carrying it intact.
        if let Some((epoch, ceiling)) = self.reservation {
            frame_meta(&mut buf, epoch, ceiling);
        }
        for (key, state) in &self.map {
            self.scratch.clear();
            (self.codec.enc)(state, &mut self.scratch);
            let len = frame_record(&mut buf, TAG_PUT, key, Some(&self.scratch));
            index.insert(key.clone(), len);
        }
        let tmp = self.path.with_extension("compact");
        let write = (|| -> io::Result<File> {
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&buf)?;
            f.sync_data()?;
            std::fs::rename(&tmp, &self.path)?;
            f.seek(SeekFrom::End(0))?;
            Ok(f)
        })();
        self.file = write.expect("log compaction rewrite");
        self.index = index;
        self.durable_bytes = buf.len() as u64;
        self.live_bytes = self.durable_bytes;
        self.stats.compactions += 1;
    }
}

impl<S> StorageEngine<S> for LogEngine<S>
where
    S: Clone + Send + 'static,
{
    fn get(&self, key: &[u8]) -> Option<&S> {
        self.map.get(key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn apply(
        &mut self,
        key: &[u8],
        init: &mut dyn FnMut() -> S,
        mutate: &mut dyn FnMut(&mut S),
    ) -> &S {
        let enc = self.codec.enc;
        self.scratch.clear();
        {
            let state = self.map.entry(key.to_vec()).or_insert_with(&mut *init);
            mutate(state);
            let mut state_bytes = std::mem::take(&mut self.scratch);
            enc(state, &mut state_bytes);
            let len = frame_record(&mut self.pending, TAG_PUT, key, Some(&state_bytes));
            state_bytes.clear();
            self.scratch = state_bytes;
            self.push_record(PendingOp::Put {
                key: key.to_vec(),
                len,
            });
        }
        &self.map[key]
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        if self.map.remove(key).is_none() {
            return false;
        }
        let len = frame_record(&mut self.pending, TAG_REMOVE, key, None);
        self.push_record(PendingOp::Remove {
            key: key.to_vec(),
            len,
        });
        true
    }

    fn clear(&mut self) {
        self.map.clear();
        let len = frame_record(&mut self.pending, TAG_CLEAR, &[], None);
        self.push_record(PendingOp::Clear { len });
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (&Key, &S)> + '_> {
        Box::new(self.map.iter())
    }

    fn snapshot(&self) -> Box<dyn StorageEngine<S>> {
        Box::new(MemEngine::from_map(self.map.clone()))
    }

    fn sync(&mut self) {
        self.group_sync();
    }

    fn load_reservation(&self) -> Option<(u64, u64)> {
        self.reservation
    }

    fn store_reservation(&mut self, epoch: u64, ceiling: u64) {
        // Monotone in-memory view, matching the replay fold.
        let (e0, c0) = self.reservation.unwrap_or((0, 0));
        self.reservation = Some((e0.max(epoch), c0.max(ceiling)));
        let len = frame_meta(&mut self.pending, epoch, ceiling);
        self.stats.appends += 1;
        self.pending_ops.push(PendingOp::Meta { len });
        // Reservations ignore the group-sync cadence: they must be
        // durable before the caller mints into the reserved range (see
        // the `LogConfig` docs). Any buffered data records ride along.
        self.group_sync();
    }

    fn kind(&self) -> &'static str {
        "log"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;

    fn drive(e: &mut dyn StorageEngine<u64>, script: &[(u8, u64)]) {
        for &(k, v) in script {
            match v {
                u64::MAX => {
                    e.remove(&[k]);
                }
                _ => {
                    e.apply(&[k], &mut || 0, &mut |s| *s = *s * 31 + v);
                }
            }
        }
    }

    #[test]
    fn mem_and_log_agree_on_a_mixed_script() {
        let dir = scratch_dir("agree");
        let script: Vec<(u8, u64)> = (0..200u64)
            .map(|i| {
                let k = (i * 7 % 23) as u8;
                if i % 11 == 3 {
                    (k, u64::MAX)
                } else {
                    (k, i)
                }
            })
            .collect();
        let mut mem: MemEngine<u64> = MemEngine::new();
        let mut log: LogEngine<u64> =
            LogEngine::open(dir.join("agree.log"), LogConfig::default()).unwrap();
        drive(&mut mem, &script);
        drive(&mut log, &script);
        let a: Vec<_> = mem.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let b: Vec<_> = log.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(a, b, "engines must be behaviour-identical");
        assert_eq!(mem.len(), log.len());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_replays_the_synced_prefix() {
        let dir = scratch_dir("reopen");
        let path = dir.join("store.log");
        let mut log: LogEngine<u64> = LogEngine::open(&path, LogConfig::write_through()).unwrap();
        for i in 0..50u64 {
            log.apply(&i.to_be_bytes(), &mut || 0, &mut |s| *s = i * i);
        }
        log.remove(&7u64.to_be_bytes());
        drop(log);
        let back: LogEngine<u64> = LogEngine::open(&path, LogConfig::default()).unwrap();
        assert_eq!(back.len(), 49);
        assert_eq!(back.get(&3u64.to_be_bytes()), Some(&9));
        assert_eq!(back.get(&7u64.to_be_bytes()), None);
        assert_eq!(back.stats().replayed_records, 51);
        assert_eq!(back.stats().torn_tail_bytes, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn crash_before_group_sync_loses_exactly_the_unsynced_tail() {
        let dir = scratch_dir("tail");
        let path = dir.join("store.log");
        let cfg = LogConfig {
            sync_every_records: 8,
            ..LogConfig::default()
        };
        let mut log: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        for i in 0..8u64 {
            log.apply(&[i as u8], &mut || 0, &mut |s| *s = i);
        }
        assert_eq!(log.pending_bytes(), 0, "8th record triggers the group sync");
        for i in 8..13u64 {
            log.apply(&[i as u8], &mut || 0, &mut |s| *s = i);
        }
        assert!(log.pending_bytes() > 0, "records 9-13 are buffered only");
        drop(log); // crash: pending buffer never reaches the file
        let back: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        assert_eq!(back.len(), 8, "only the synced group survives");
        assert_eq!(back.get(&[9u8]), None);
        // ... and an explicit sync makes the tail durable
        let mut log = back;
        for i in 8..13u64 {
            log.apply(&[i as u8], &mut || 0, &mut |s| *s = i);
        }
        log.sync();
        drop(log);
        let back: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        assert_eq!(back.len(), 13);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_truncates_garbage_and_preserves_contents() {
        let dir = scratch_dir("compact");
        let path = dir.join("store.log");
        let cfg = LogConfig {
            sync_every_records: 1,
            compact_min_bytes: 512,
            compact_garbage_ratio: 0.5,
            ..LogConfig::default()
        };
        let mut log: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        for round in 0..200u64 {
            for k in 0..4u8 {
                log.apply(&[k], &mut || 0, &mut |s| *s = round);
            }
        }
        assert!(
            log.stats().compactions > 0,
            "overwrites must trigger compaction"
        );
        assert!(
            log.durable_bytes() < 4096,
            "file stays near the live set: {} bytes",
            log.durable_bytes()
        );
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(on_disk, log.durable_bytes());
        drop(log);
        let back: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        assert_eq!(back.len(), 4);
        for k in 0..4u8 {
            assert_eq!(back.get(&[k]), Some(&199));
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn clear_record_replays_as_empty() {
        let dir = scratch_dir("clear");
        let path = dir.join("store.log");
        let mut log: LogEngine<u64> = LogEngine::open(&path, LogConfig::write_through()).unwrap();
        log.apply(b"a", &mut || 0, &mut |s| *s = 1);
        log.apply(b"b", &mut || 0, &mut |s| *s = 2);
        log.clear();
        log.apply(b"c", &mut || 0, &mut |s| *s = 3);
        drop(log);
        let back: LogEngine<u64> = LogEngine::open(&path, LogConfig::default()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.get(b"c"), Some(&3));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reservation_survives_reopen_and_is_synced_immediately() {
        let dir = scratch_dir("resv");
        let path = dir.join("store.log");
        let cfg = LogConfig {
            sync_every_records: 1000, // group sync far away
            ..LogConfig::default()
        };
        let mut log: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        log.apply(b"a", &mut || 0, &mut |s| *s = 1);
        assert!(log.pending_bytes() > 0, "data record is buffered only");
        log.store_reservation(1, 4096);
        assert_eq!(
            log.pending_bytes(),
            0,
            "a reservation forces everything pending durable"
        );
        drop(log); // crash
        let back: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        assert_eq!(back.load_reservation(), Some((1, 4096)));
        assert_eq!(back.get(b"a"), Some(&1), "data rode along with the sync");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reservation_recovers_monotone_and_survives_compaction() {
        let dir = scratch_dir("resv-compact");
        let path = dir.join("store.log");
        let cfg = LogConfig {
            sync_every_records: 1,
            compact_min_bytes: 512,
            compact_garbage_ratio: 0.5,
            ..LogConfig::default()
        };
        let mut log: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        log.store_reservation(1, 1024);
        log.store_reservation(2, 8192);
        for round in 0..200u64 {
            for k in 0..4u8 {
                log.apply(&[k], &mut || 0, &mut |s| *s = round);
            }
        }
        assert!(log.stats().compactions > 0);
        drop(log);
        let back: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        assert_eq!(
            back.load_reservation(),
            Some((2, 8192)),
            "the highest reservation survives compaction"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_tail_mid_meta_record_recovers_prior_reservation() {
        let dir = scratch_dir("resv-torn");
        let path = dir.join("store.log");
        let mut log: LogEngine<u64> = LogEngine::open(&path, LogConfig::write_through()).unwrap();
        log.store_reservation(1, 100);
        log.store_reservation(2, 200);
        drop(log);
        // tear the file mid-way through the second meta record
        let bytes = std::fs::read(&path).unwrap();
        let mut first = Vec::new();
        let first_len = frame_meta(&mut first, 1, 100) as usize;
        std::fs::write(&path, &bytes[..first_len + 3]).unwrap();
        let back: LogEngine<u64> = LogEngine::open(&path, LogConfig::default()).unwrap();
        assert_eq!(back.load_reservation(), Some((1, 100)));
        assert!(back.stats().torn_tail_bytes > 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshot_is_a_detached_mem_engine() {
        let dir = scratch_dir("snap");
        let mut log: LogEngine<u64> =
            LogEngine::open(dir.join("s.log"), LogConfig::default()).unwrap();
        log.apply(b"k", &mut || 0, &mut |s| *s = 5);
        let snap = log.snapshot();
        log.apply(b"k", &mut || 0, &mut |s| *s = 6);
        assert_eq!(snap.get(b"k"), Some(&5));
        assert_eq!(snap.kind(), "mem");
        assert_eq!(log.kind(), "log");
        std::fs::remove_dir_all(dir).ok();
    }
}
