//! Versioned, checksummed full-state snapshots.
//!
//! A snapshot captures the complete serving state at one WAL position:
//! the [`AdStore`] (campaigns, budgets, pacing, CTR) and every shard
//! engine's per-user state. All of it is log-derived — reads change
//! none of it, and work counters stay out — so a snapshot equals a
//! replay of the log up to `next_lsn`. Recovery loads the newest valid
//! snapshot and replays only the WAL records with `lsn >= next_lsn`.
//!
//! On-disk layout of `snap-{next_lsn:016x}.snap`:
//!
//! ```text
//! header:  magic "ADSS" | version u16 | reserved u16
//!          next_lsn u64 | payload_len u32 | crc32 u32
//! payload: num_users u32 | num_shards u32 | store | num_shards × engine
//! engine:  num_users u32 | users
//! user:    landmark u64 | last_ts u64 | context | regime u8 | state
//!          | index_epoch u64
//! state:   0 (bounded): buffer | cache | ceiling f32 | outside_bound f32
//!          1 (exact):   lane_len u32 | lane_len × f32 | since_anchor u32
//! ```
//!
//! Buffer and cache lists must hold strictly ascending ad ids, and every
//! relevance, bound and lane value must be finite: a NaN bound would be
//! dropped by `f32::max` and silently stop covering the ads it bounds.
//!
//! The CRC covers the payload; decoding consumes it entirely, so a
//! truncated or bit-flipped file yields a typed [`TraceError`] and the
//! loader falls back to the next-older snapshot. A file loads in one
//! streaming pass ([`EngineSetSnapshot::read_from`]): the payload comes
//! through one reused buffer, each chunk is folded into the CRC while
//! it is still in cache, and the decoded state is returned only once
//! the whole payload has passed and the CRC matches. Every count is
//! checked against the bytes left before anything is reserved for it,
//! so unverified bytes cannot make the decode allocate past what the
//! file holds. Files are written
//! atomically — serialized to `*.tmp`, fsynced, renamed into place, then
//! the directory is fsynced — so a crash mid-write can never leave a
//! half-snapshot under the real name.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use adcast_ads::{Ad, AdId, AdStore, CampaignState};
use adcast_ads::{CampaignSnapshot, PacingSnapshot, StoreSnapshot};
use adcast_core::snapshot::{EngineSnapshot, RelevanceSnapshot, UserStateSnapshot};
use adcast_core::ShardedDriver;
use adcast_stream::clock::Timestamp;
use adcast_stream::cursor::{
    put_len32, put_opt, put_stream_header, Cursor, TraceError, STREAM_CHUNK,
};
use bytes::{BufMut, Bytes, BytesMut};

use crate::backend::{fs_backend, OpenFile, StorageBackend};
use crate::codec::{
    get_context_vector, get_targeting, get_vector, put_context_vector, put_targeting, put_vector,
};
use crate::crc::{crc32, crc32_update};
use crate::wal;

/// Snapshot file magic (traces use `ADCT`, wire frames `ADCN`, WAL
/// segments `ADWL`).
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"ADSS";
/// Snapshot format version (2: per-user regime flag and exact lanes;
/// 3: no work counters, so the payload is exactly log-derived state).
pub const SNAPSHOT_VERSION: u16 = 3;
/// Upper bound on one snapshot payload (1 GiB) — declared lengths above
/// this are rejected before allocation.
pub const MAX_SNAPSHOT: usize = 1 << 30;
/// Bytes of file header before the payload: stream header, then
/// `payload_len u32 | crc32 u32`.
const FILE_HEADER: usize = 16;

/// Snapshot subsystem failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(io::Error),
    /// WAL-side failure while pruning segments a snapshot made redundant.
    Wal(wal::WalError),
    /// The named file did not read back as the bytes just written to it
    /// (a failing or lying disk). It was removed, and nothing was pruned.
    ReadBack(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Wal(e) => write!(f, "snapshot prune: {e}"),
            SnapshotError::ReadBack(name) => {
                write!(f, "snapshot {name} did not read back as written")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<wal::WalError> for SnapshotError {
    fn from(e: wal::WalError) -> Self {
        SnapshotError::Wal(e)
    }
}

/// The complete serving state at one WAL cut.
#[derive(Debug, Clone)]
pub struct EngineSetSnapshot {
    /// First WAL LSN *not* covered by this snapshot (replay starts here).
    pub next_lsn: u64,
    /// Total users across all shards.
    pub num_users: u32,
    /// Shard count the engine states were captured under.
    pub num_shards: u32,
    /// The ad store (campaigns, budgets, pacing, CTR, index epoch).
    pub store: StoreSnapshot,
    /// Per-shard engine state, shard order.
    pub engines: Vec<EngineSnapshot>,
}

impl EngineSetSnapshot {
    /// Capture a consistent cut of `store` + `driver`. The caller must
    /// hold the engine thread between batches so no worker is mid-flight.
    pub fn capture(next_lsn: u64, store: &AdStore, driver: &ShardedDriver) -> Self {
        EngineSetSnapshot {
            next_lsn,
            num_users: driver.num_users(),
            num_shards: driver.num_shards() as u32,
            store: store.export_snapshot(),
            engines: driver.export_snapshots(),
        }
    }

    /// Serialize to the full file byte image (header + CRC + payload).
    /// `next_lsn` lives inside the CRC-covered payload, so a bit flip in
    /// the replay position is caught like any other corruption.
    ///
    /// The image is built in one buffer: the header with a zeroed
    /// `payload_len | crc32` slot, then the payload, then the slot is
    /// patched in place — the payload is never copied a second time.
    pub fn encode(&self) -> Bytes {
        let mut file = BytesMut::new();
        put_stream_header(&mut file, SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        file.put_u64_le(0);
        file.put_u64_le(self.next_lsn);
        file.put_u32_le(self.num_users);
        file.put_u32_le(self.num_shards);
        put_store(&mut file, &self.store);
        for engine in &self.engines {
            put_engine(&mut file, engine);
        }
        let payload = file.get(FILE_HEADER..).unwrap_or_default();
        let mut slot = BytesMut::with_capacity(8);
        put_len32(&mut slot, payload.len());
        slot.put_u32_le(crc32(payload));
        if let Some(dst) = file.get_mut(FILE_HEADER - 8..FILE_HEADER) {
            dst.copy_from_slice(&slot);
        }
        file.freeze()
    }

    /// Decode a full file byte image held in memory.
    ///
    /// # Errors
    ///
    /// Typed [`TraceError`] on any malformation (bad header, CRC
    /// mismatch, truncation, trailing bytes); never panics.
    pub fn decode(data: Bytes) -> Result<EngineSetSnapshot, TraceError> {
        Self::decode_from(Cursor::new(data))
    }

    /// Decode a snapshot file as it is read, in one pass (see the
    /// module docs); the file is never held whole.
    ///
    /// # Errors
    ///
    /// As [`EngineSetSnapshot::decode`]; a reader that fails or ends
    /// early is [`TraceError::Truncated`].
    pub fn read_from(file: OpenFile) -> Result<EngineSetSnapshot, TraceError> {
        Self::decode_from(Cursor::stream(file.reader, file.len))
    }

    /// The one decoder behind both entry points. Each campaign and each
    /// user is read [`Cursor::whole`], so a streamed file refills between
    /// records and the field reads never check for a refill.
    fn decode_from(mut cur: Cursor) -> Result<EngineSetSnapshot, TraceError> {
        let (len, crc) = cur.whole(|c| {
            c.check_header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
            Ok((c.u32()? as usize, c.u32()?))
        })?;
        if len > MAX_SNAPSHOT {
            return Err(TraceError::Corrupt("impossible snapshot length"));
        }
        if len > cur.len() {
            return Err(TraceError::Truncated);
        }
        if len < cur.len() {
            return Err(TraceError::Corrupt("trailing bytes after snapshot"));
        }
        cur.digest_rest(crc32_update);
        let (next_lsn, num_users, num_shards) =
            cur.whole(|c| Ok((c.u64()?, c.u32()?, c.u32()?)))?;
        if num_shards == 0 || num_shards > 4096 {
            return Err(TraceError::Corrupt("impossible shard count"));
        }
        let store = get_store(&mut cur)?;
        let engines = cur.many(num_shards as usize, get_engine)?;
        cur.finish("trailing bytes in snapshot payload")?;
        if cur.digest() != crc {
            return Err(TraceError::Corrupt("snapshot crc mismatch"));
        }
        Ok(EngineSetSnapshot {
            next_lsn,
            num_users,
            num_shards,
            store,
            engines,
        })
    }
}

fn put_ad(buf: &mut BytesMut, ad: &Ad) {
    buf.put_u32_le(ad.id.0);
    put_vector(buf, &ad.vector);
    buf.put_f32_le(ad.bid);
    put_targeting(buf, ad.targeting.locations(), ad.targeting.slots());
    put_opt(buf, ad.topic_hint, |b, t| b.put_u64_le(t as u64));
}

fn get_ad(cur: &mut Cursor) -> Result<Ad, TraceError> {
    let id = AdId(cur.u32()?);
    let vector = get_vector(cur)?;
    let bid = cur.f32()?;
    let (locations, slots) = get_targeting(cur)?;
    let topic_hint = cur.opt("bad topic flag", Cursor::u64)?;
    Ok(Ad {
        id,
        vector,
        bid,
        targeting: adcast_ads::Targeting::everywhere()
            .in_locations(locations)
            .in_slots(slots),
        topic_hint: topic_hint.map(|t| t as usize),
    })
}

fn put_store(buf: &mut BytesMut, store: &StoreSnapshot) {
    buf.put_u64_le(store.index_epoch);
    put_len32(buf, store.campaigns.len());
    for c in &store.campaigns {
        put_ad(buf, &c.ad);
        buf.put_u64_le(c.budget_total_micros);
        buf.put_u64_le(c.budget_spent_micros);
        buf.put_u8(match c.state {
            CampaignState::Active => 0,
            CampaignState::Paused => 1,
            CampaignState::Exhausted => 2,
            CampaignState::Removed => 3,
        });
        buf.put_u64_le(c.impressions);
        buf.put_u64_le(c.ctr_impressions);
        buf.put_u64_le(c.ctr_clicks);
        put_opt(buf, c.pacing.as_ref(), |b, p| {
            b.put_u64_le(p.flight_start.micros());
            b.put_u64_le(p.flight_end.micros());
            for v in [p.total_budget, p.throttle, p.step, p.min_throttle, p.spent] {
                b.put_f64_le(v);
            }
        });
    }
}

fn get_store(cur: &mut Cursor) -> Result<StoreSnapshot, TraceError> {
    let (index_epoch, n) = cur.whole(|c| Ok((c.u64()?, c.len32()?)))?;
    let campaigns = cur.many(n, |c| c.whole(get_campaign))?;
    Ok(StoreSnapshot {
        campaigns,
        index_epoch,
    })
}

fn get_campaign(cur: &mut Cursor) -> Result<CampaignSnapshot, TraceError> {
    Ok(CampaignSnapshot {
        ad: get_ad(cur)?,
        budget_total_micros: cur.u64()?,
        budget_spent_micros: cur.u64()?,
        state: match cur.u8()? {
            0 => CampaignState::Active,
            1 => CampaignState::Paused,
            2 => CampaignState::Exhausted,
            3 => CampaignState::Removed,
            _ => return Err(TraceError::Corrupt("bad campaign state")),
        },
        impressions: cur.u64()?,
        ctr_impressions: cur.u64()?,
        ctr_clicks: cur.u64()?,
        pacing: cur.opt("bad pacing flag", |c| {
            Ok(PacingSnapshot {
                flight_start: Timestamp(c.u64()?),
                flight_end: Timestamp(c.u64()?),
                total_budget: c.f64()?,
                throttle: c.f64()?,
                step: c.f64()?,
                min_throttle: c.f64()?,
                spent: c.f64()?,
            })
        })?,
    })
}

fn put_scored_list(buf: &mut BytesMut, entries: &[(AdId, f32)]) {
    put_len32(buf, entries.len());
    let start = buf.len();
    buf.resize(start + 8 * entries.len(), 0);
    let (dst, _) = buf[start..].as_chunks_mut::<8>();
    for (d, &(ad, v)) in dst.iter_mut().zip(entries) {
        *d = (u64::from(ad.0) | u64::from(v.to_bits()) << 32).to_le_bytes();
    }
}

/// Decode an `(ad, value)` list: strictly ascending ids, finite values.
fn get_scored_list(cur: &mut Cursor) -> Result<Vec<(AdId, f32)>, TraceError> {
    let n = cur.len32()?;
    let (words, _) = cur.take(n.saturating_mul(8))?.as_chunks::<4>();
    let mut out = Vec::with_capacity(n);
    for p in words.chunks_exact(2) {
        let (ad, v) = (AdId(u32::from_le_bytes(p[0])), f32::from_le_bytes(p[1]));
        if !v.is_finite() {
            return Err(TraceError::Corrupt("non-finite scored value"));
        }
        if out.last().is_some_and(|&(last, _)| last >= ad) {
            return Err(TraceError::Corrupt("scored ids not strictly ascending"));
        }
        out.push((ad, v));
    }
    Ok(out)
}

/// Read an `f32` that must be finite.
fn get_finite(cur: &mut Cursor, what: &'static str) -> Result<f32, TraceError> {
    let v = cur.f32()?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(TraceError::Corrupt(what))
    }
}

/// Write a lane in bulk: one resize, then a straight copy loop.
fn put_lane(buf: &mut BytesMut, lane: &[f32]) {
    put_len32(buf, lane.len());
    let start = buf.len();
    buf.resize(start + 4 * lane.len(), 0);
    let (dst, _) = buf[start..].as_chunks_mut::<4>();
    for (d, v) in dst.iter_mut().zip(lane) {
        *d = v.to_le_bytes();
    }
}

fn get_lane(cur: &mut Cursor) -> Result<Vec<f32>, TraceError> {
    let n = cur.len32()?;
    let (words, _) = cur.take(n.saturating_mul(4))?.as_chunks::<4>();
    let lane: Vec<f32> = words.iter().map(|w| f32::from_le_bytes(*w)).collect();
    if lane.iter().all(|v| v.is_finite()) {
        Ok(lane)
    } else {
        Err(TraceError::Corrupt("non-finite lane value"))
    }
}

fn put_user(buf: &mut BytesMut, user: &UserStateSnapshot) {
    buf.put_u64_le(user.landmark.micros());
    buf.put_u64_le(user.last_ts.micros());
    put_context_vector(buf, &user.context);
    match &user.relevance {
        RelevanceSnapshot::Bounded {
            buffer,
            cache,
            ceiling,
            outside_bound,
        } => {
            buf.put_u8(0);
            put_scored_list(buf, buffer);
            put_scored_list(buf, cache);
            buf.put_f32_le(*ceiling);
            buf.put_f32_le(*outside_bound);
        }
        RelevanceSnapshot::Exact { lane, since_anchor } => {
            buf.put_u8(1);
            put_lane(buf, lane);
            buf.put_u32_le(*since_anchor);
        }
    }
    buf.put_u64_le(user.index_epoch);
}

fn get_user(cur: &mut Cursor) -> Result<UserStateSnapshot, TraceError> {
    let landmark = Timestamp(cur.u64()?);
    let last_ts = Timestamp(cur.u64()?);
    let context = get_context_vector(cur)?;
    let relevance = if cur.flag("bad relevance regime")? {
        RelevanceSnapshot::Exact {
            lane: get_lane(cur)?,
            since_anchor: cur.u32()?,
        }
    } else {
        RelevanceSnapshot::Bounded {
            buffer: get_scored_list(cur)?,
            cache: get_scored_list(cur)?,
            ceiling: get_finite(cur, "non-finite ceiling")?,
            outside_bound: get_finite(cur, "non-finite outside bound")?,
        }
    };
    Ok(UserStateSnapshot {
        landmark,
        last_ts,
        context,
        relevance,
        index_epoch: cur.u64()?,
    })
}

fn put_engine(buf: &mut BytesMut, engine: &EngineSnapshot) {
    put_len32(buf, engine.users.len());
    for user in &engine.users {
        put_user(buf, user);
    }
}

fn get_engine(cur: &mut Cursor) -> Result<EngineSnapshot, TraceError> {
    let n = cur.whole(Cursor::len32)?;
    let users = cur.many(n, |c| c.whole(get_user))?;
    Ok(EngineSnapshot { users })
}

/// The file name of the snapshot covering WAL positions below `next_lsn`.
pub fn snapshot_file_name(next_lsn: u64) -> String {
    format!("snap-{next_lsn:016x}.snap")
}

/// Parse a snapshot file name back to its `next_lsn`.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// One snapshot file on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The WAL position the snapshot covers up to (exclusive).
    pub next_lsn: u64,
    /// Full path.
    pub path: PathBuf,
}

/// Enumerate snapshot files in `dir`, sorted oldest-first by `next_lsn`.
///
/// # Errors
///
/// [`SnapshotError::Io`] on directory-read failures; a missing directory
/// is an empty list.
pub fn list_snapshots(dir: &Path) -> Result<Vec<SnapshotInfo>, SnapshotError> {
    Ok(list_snapshot_lsns_on(&*fs_backend(dir))?
        .into_iter()
        .map(|next_lsn| SnapshotInfo {
            next_lsn,
            path: dir.join(snapshot_file_name(next_lsn)),
        })
        .collect())
}

/// Enumerate snapshot `next_lsn`s on `backend`, sorted ascending.
///
/// # Errors
///
/// [`SnapshotError::Io`] on listing failures.
pub fn list_snapshot_lsns_on(backend: &dyn StorageBackend) -> Result<Vec<u64>, SnapshotError> {
    let mut lsns: Vec<u64> = backend
        .list()?
        .iter()
        .filter_map(|name| parse_snapshot_name(name))
        .collect();
    lsns.sort_unstable();
    Ok(lsns)
}

/// Write `bytes` as the snapshot at `next_lsn`, atomically: the image
/// goes to a `.tmp` file, is fsynced, renamed into place, and the
/// directory is fsynced. A crash at any point leaves either the old
/// snapshot set or the complete new file — never a torn snapshot under
/// the real name. The file is then read back, [`STREAM_CHUNK`] bytes at
/// a time, and compared with `bytes`; one that differs is removed, so
/// callers prune only behind a snapshot that reads back.
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failures,
/// [`SnapshotError::ReadBack`] when the file does not read back.
pub fn write_snapshot_atomic(
    dir: &Path,
    next_lsn: u64,
    bytes: &[u8],
) -> Result<PathBuf, SnapshotError> {
    fs::create_dir_all(dir)?;
    write_snapshot_atomic_on(&*fs_backend(dir), next_lsn, bytes)?;
    Ok(dir.join(snapshot_file_name(next_lsn)))
}

/// [`write_snapshot_atomic`] against a [`StorageBackend`]; returns the
/// final file name.
///
/// # Errors
///
/// As [`write_snapshot_atomic`].
pub fn write_snapshot_atomic_on(
    backend: &dyn StorageBackend,
    next_lsn: u64,
    bytes: &[u8],
) -> Result<String, SnapshotError> {
    let final_name = snapshot_file_name(next_lsn);
    let tmp_name = format!("{final_name}.tmp");
    let mut tmp = backend.create(&tmp_name)?;
    tmp.write_all(bytes)?;
    tmp.flush()?;
    tmp.sync_all()?;
    drop(tmp);
    backend.rename(&tmp_name, &final_name)?;
    backend.sync_dir()?;
    if !reads_back(backend.open(&final_name)?, bytes) {
        // Best effort: a file that does not read back must not count
        // toward the retained set the next prune keeps.
        let _ = backend.remove(&final_name);
        let _ = backend.sync_dir();
        return Err(SnapshotError::ReadBack(final_name));
    }
    Ok(final_name)
}

/// Does `file` hold exactly `bytes`? Compared through a streaming
/// cursor, so the check holds one chunk of the file at a time, never a
/// second copy of the image. A read error is a mismatch.
fn reads_back(file: OpenFile, bytes: &[u8]) -> bool {
    if file.len != bytes.len() as u64 {
        return false;
    }
    let mut cur = Cursor::stream(file.reader, file.len);
    bytes
        .chunks(STREAM_CHUNK)
        .all(|chunk| cur.whole(|c| Ok(c.take(chunk.len())? == chunk)) == Ok(true))
}

/// A successfully loaded snapshot.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The decoded snapshot.
    pub snapshot: EngineSetSnapshot,
    /// The file it came from.
    pub path: PathBuf,
    /// Newer snapshot files that failed to decode and were skipped.
    pub skipped_corrupt: u32,
}

/// Load the newest valid snapshot, falling back to older files when the
/// newest is unreadable or corrupt. `Ok(None)` means no usable snapshot
/// exists (cold start: replay the whole WAL).
///
/// # Errors
///
/// [`SnapshotError::Io`] on directory-read failures only; per-file damage
/// is a fallback, not an error.
pub fn load_latest(dir: &Path) -> Result<Option<LoadedSnapshot>, SnapshotError> {
    Ok(
        load_latest_on(&*fs_backend(dir))?.map(|(snapshot, skipped_corrupt)| {
            let path = dir.join(snapshot_file_name(snapshot.next_lsn));
            LoadedSnapshot {
                snapshot,
                path,
                skipped_corrupt,
            }
        }),
    )
}

/// [`load_latest`] against a [`StorageBackend`]; returns the decoded
/// snapshot and how many newer corrupt files were skipped.
///
/// # Errors
///
/// [`SnapshotError::Io`] on listing failures only.
pub fn load_latest_on(
    backend: &dyn StorageBackend,
) -> Result<Option<(EngineSetSnapshot, u32)>, SnapshotError> {
    let mut skipped = 0u32;
    for next_lsn in list_snapshot_lsns_on(backend)?.into_iter().rev() {
        let loaded = backend
            .open(&snapshot_file_name(next_lsn))
            .map(EngineSetSnapshot::read_from);
        match loaded {
            // The file name is the lookup key; a content/name mismatch
            // means the file was tampered with or misplaced.
            Ok(Ok(snapshot)) if snapshot.next_lsn == next_lsn => {
                return Ok(Some((snapshot, skipped)))
            }
            _ => skipped += 1,
        }
    }
    Ok(None)
}

/// Delete everything the retained snapshot set makes redundant: snapshot
/// files older than the newest `keep_snapshots`, and WAL segments whose
/// *entire* record range lies below the **oldest retained** snapshot's
/// `next_lsn` (a segment is prunable only when the next segment's base
/// shows every record in it is below the cut; the newest segment is never
/// pruned). Bounding by the oldest retained snapshot — not the newest —
/// keeps fallback recovery sound: if the newest snapshot turns out
/// corrupt, the older one still has every segment its replay needs.
/// Returns `(snapshots_removed, segments_removed)`.
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failures, [`SnapshotError::Wal`]
/// when segment enumeration fails.
pub fn prune(
    dir: &Path,
    next_lsn: u64,
    keep_snapshots: usize,
) -> Result<(u64, u64), SnapshotError> {
    prune_on(&*fs_backend(dir), next_lsn, keep_snapshots)
}

/// [`prune`] against a [`StorageBackend`].
///
/// # Errors
///
/// As [`prune`].
pub fn prune_on(
    backend: &dyn StorageBackend,
    next_lsn: u64,
    keep_snapshots: usize,
) -> Result<(u64, u64), SnapshotError> {
    let snapshots = list_snapshot_lsns_on(backend)?;
    let mut snapshots_removed = 0u64;
    if snapshots.len() > keep_snapshots {
        for lsn in &snapshots[..snapshots.len() - keep_snapshots] {
            backend.remove(&snapshot_file_name(*lsn))?;
            snapshots_removed += 1;
        }
    }
    // Replay for the oldest snapshot we keep starts at its own next_lsn;
    // every segment at or above that cut must survive. With no snapshots
    // at all, every segment is still live (cold start replays the full
    // log), whatever `next_lsn` the caller believed it covered.
    let retained_start = snapshots.len().saturating_sub(keep_snapshots);
    let segment_bound = snapshots
        .get(retained_start)
        .copied()
        .unwrap_or(0)
        .min(next_lsn);
    let segments = wal::list_segment_lsns_on(backend)?;
    let mut segments_removed = 0u64;
    for pair in segments.windows(2) {
        if pair[1] <= segment_bound {
            backend.remove(&wal::segment_file_name(pair[0]))?;
            segments_removed += 1;
        }
    }
    if snapshots_removed + segments_removed > 0 {
        backend.sync_dir()?;
    }
    Ok((snapshots_removed, segments_removed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast_ads::{AdSubmission, Budget, PacingController, Targeting};
    use adcast_core::{EngineConfig, EngineStats};
    use adcast_feed::FeedDelta;
    use adcast_graph::UserId;
    use adcast_stream::event::{LocationId, Message, MessageId};
    use adcast_text::dictionary::TermId;
    use adcast_text::SparseVector;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "adcast-snap-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    /// A store + driver with non-trivial state: campaigns with budgets,
    /// pacing, CTR history, and users with warm buffers.
    fn populated() -> (AdStore, ShardedDriver) {
        let mut store = AdStore::new();
        for t in 0..6u32 {
            store
                .submit(AdSubmission {
                    vector: v(&[(t, 1.0), (t + 6, 0.5)]),
                    bid: 1.0 + t as f32 * 0.25,
                    targeting: Targeting::everywhere(),
                    budget: if t % 2 == 0 {
                        Budget::new(10.0)
                    } else {
                        Budget::unlimited()
                    },
                    topic_hint: (t % 3 == 0).then_some(t as usize),
                })
                .unwrap();
        }
        store.pause(AdId(5));
        store.set_pacing(
            AdId(0),
            PacingController::new(Timestamp::from_secs(0), Timestamp::from_secs(3600), 5.0),
        );
        store.record_engagement(AdId(0), 0.25, true, Timestamp::from_secs(10));
        store.record_engagement(AdId(2), 0.5, false, Timestamp::from_secs(11));

        let config = EngineConfig::default();
        let mut driver = ShardedDriver::new(8, 2, config);
        let deltas: Vec<(UserId, FeedDelta)> = (0..32u64)
            .map(|i| {
                (
                    UserId((i % 8) as u32),
                    FeedDelta {
                        entered: Some(Arc::new(Message {
                            id: MessageId(i),
                            author: UserId(0),
                            ts: Timestamp::from_secs(i + 1),
                            location: LocationId(0),
                            vector: v(&[((i % 6) as u32, 0.8)]),
                        })),
                        evicted: vec![],
                    },
                )
            })
            .collect();
        driver.process_batch(&store, deltas).unwrap();
        (store, driver)
    }

    #[test]
    fn snapshot_roundtrips_bit_identically() {
        let (store, driver) = populated();
        let snap = EngineSetSnapshot::capture(42, &store, &driver);
        let bytes = snap.encode();
        let back = EngineSetSnapshot::decode(bytes.clone()).unwrap();
        assert_eq!(back.next_lsn, 42);
        assert_eq!(back.num_users, 8);
        assert_eq!(back.num_shards, 2);
        assert_eq!(back.store, snap.store);
        assert_eq!(back.engines, snap.engines);
        // Determinism: capturing and encoding again yields identical bytes.
        assert_eq!(
            EngineSetSnapshot::capture(42, &store, &driver).encode(),
            bytes
        );
    }

    /// A small hand-built snapshot touching every field shape: both
    /// pacing forms, both topic-hint forms, targeting, a non-empty context
    /// with a negative residual, a bounded user with buffer and cache
    /// lists, and an exact-lane user.
    fn small_snapshot() -> EngineSetSnapshot {
        let campaign = |id: u32, pacing: Option<PacingSnapshot>| CampaignSnapshot {
            ad: Ad {
                id: AdId(id),
                vector: v(&[(id, 0.5), (id + 3, 0.25)]),
                bid: 1.5,
                targeting: Targeting::everywhere()
                    .in_locations([LocationId(2), LocationId(5)])
                    .in_slots([adcast_stream::event::TimeSlot::Night]),
                topic_hint: pacing.as_ref().map(|_| 4),
            },
            budget_total_micros: 9_000_000,
            budget_spent_micros: 250_000,
            state: CampaignState::Paused,
            impressions: 12,
            ctr_impressions: 10,
            ctr_clicks: 3,
            pacing,
        };
        let pacing = PacingSnapshot {
            flight_start: Timestamp::from_secs(1),
            flight_end: Timestamp::from_secs(3600),
            total_budget: 9.0,
            throttle: 0.75,
            step: 0.05,
            min_throttle: 0.1,
            spent: 0.25,
        };
        EngineSetSnapshot {
            next_lsn: 17,
            num_users: 2,
            num_shards: 1,
            store: StoreSnapshot {
                campaigns: vec![campaign(0, Some(pacing)), campaign(1, None)],
                index_epoch: 6,
            },
            engines: vec![EngineSnapshot {
                users: vec![
                    UserStateSnapshot {
                        landmark: Timestamp::from_secs(2),
                        last_ts: Timestamp::from_secs(30),
                        context: SparseVector::from_sorted(vec![
                            (TermId(0), 0.5),
                            (TermId(3), -1e-7),
                        ]),
                        relevance: RelevanceSnapshot::Bounded {
                            buffer: vec![(AdId(0), 0.25)],
                            cache: vec![(AdId(1), 0.125), (AdId(4), 0.5)],
                            ceiling: 0.5,
                            outside_bound: 0.0625,
                        },
                        index_epoch: 6,
                    },
                    UserStateSnapshot {
                        landmark: Timestamp::from_secs(2),
                        last_ts: Timestamp::from_secs(31),
                        context: SparseVector::from_sorted(vec![(TermId(1), 0.75)]),
                        relevance: RelevanceSnapshot::Exact {
                            lane: vec![0.0, 0.375, -1e-7],
                            since_anchor: 9,
                        },
                        index_epoch: 5,
                    },
                ],
            }],
        }
    }

    #[test]
    fn small_snapshot_roundtrips() {
        let snap = small_snapshot();
        let back = EngineSetSnapshot::decode(snap.encode()).unwrap();
        assert_eq!(back.engines, snap.engines);
        assert_eq!(back.store, snap.store);
    }

    /// A NaN bound would be dropped by `f32::max` and stop covering the
    /// ads it bounds, and an unsorted list would restore a different
    /// state than was exported: both are corrupt even under a valid CRC.
    #[test]
    fn decode_rejects_non_finite_values_and_unsorted_ids() {
        type Damage = fn(&mut RelevanceSnapshot);
        let damages: [(&str, usize, Damage); 7] = [
            ("buffer value", 0, |r| {
                if let RelevanceSnapshot::Bounded { buffer, .. } = r {
                    buffer[0].1 = f32::NAN;
                }
            }),
            ("cache value", 0, |r| {
                if let RelevanceSnapshot::Bounded { cache, .. } = r {
                    cache[1].1 = f32::INFINITY;
                }
            }),
            ("ceiling", 0, |r| {
                if let RelevanceSnapshot::Bounded { ceiling, .. } = r {
                    *ceiling = f32::NAN;
                }
            }),
            ("outside bound", 0, |r| {
                if let RelevanceSnapshot::Bounded { outside_bound, .. } = r {
                    *outside_bound = f32::NAN;
                }
            }),
            ("cache order", 0, |r| {
                if let RelevanceSnapshot::Bounded { cache, .. } = r {
                    cache.swap(0, 1);
                }
            }),
            ("duplicate cache id", 0, |r| {
                if let RelevanceSnapshot::Bounded { cache, .. } = r {
                    cache[1].0 = cache[0].0;
                }
            }),
            ("lane value", 1, |r| {
                if let RelevanceSnapshot::Exact { lane, .. } = r {
                    lane[1] = f32::NAN;
                }
            }),
        ];
        for (what, user, damage) in damages {
            let mut snap = small_snapshot();
            damage(&mut snap.engines[0].users[user].relevance);
            assert_ne!(
                snap.engines,
                small_snapshot().engines,
                "{what}: not damaged"
            );
            match EngineSetSnapshot::decode(snap.encode()) {
                Err(TraceError::Corrupt(_)) => {}
                other => panic!("{what}: decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn encoding_matches_recorded_bytes() {
        let bytes = small_snapshot().encode();
        let digest = crate::record::tests::fnv1a(&bytes);
        assert_eq!(bytes.len(), 408);
        assert_eq!(digest, 0xee55_58f2_1aa6_ba5e);
    }

    #[test]
    fn restore_rebuilds_equivalent_state() {
        let (store, mut driver) = populated();
        let snap = EngineSetSnapshot::capture(0, &store, &driver);
        let decoded = EngineSetSnapshot::decode(snap.encode()).unwrap();

        let restored_store = AdStore::from_snapshot(decoded.store).unwrap();
        let mut restored = ShardedDriver::new(8, 2, EngineConfig::default());
        restored.restore_snapshots(decoded.engines).unwrap();

        assert_eq!(restored_store.export_snapshot(), store.export_snapshot());
        assert_eq!(restored_store.index_epoch(), store.index_epoch());
        // Counters are process-lifetime, not snapshot state: a restore
        // starts them from zero.
        assert_eq!(restored.stats(), EngineStats::default());
        let now = Timestamp::from_secs(100);
        for u in 0..8u32 {
            let a = driver.recommend(&store, UserId(u), now, LocationId(0), 3);
            let b = restored.recommend(&restored_store, UserId(u), now, LocationId(0), 3);
            assert_eq!(a, b, "user {u}");
        }
    }

    /// Load `bytes` the way a file loads: streamed from a reader that
    /// says the file is `len` bytes long.
    fn stream(bytes: &[u8], len: usize) -> Result<EngineSetSnapshot, TraceError> {
        EngineSetSnapshot::read_from(OpenFile {
            len: len as u64,
            reader: Box::new(io::Cursor::new(bytes.to_vec())),
        })
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let (store, driver) = populated();
        let clean = EngineSetSnapshot::capture(7, &store, &driver).encode();
        for offset in 0..clean.len() {
            if offset == 6 || offset == 7 {
                continue; // reserved header bytes, legitimately ignored
            }
            let mut bad = clean.to_vec();
            bad[offset] ^= 0x10;
            assert!(
                stream(&bad, bad.len()).is_err(),
                "flip at {offset} undetected on the file path"
            );
            assert!(
                EngineSetSnapshot::decode(Bytes::from(bad)).is_err(),
                "flip at {offset} undetected"
            );
        }
        // Truncation at every length is detected too, whether the file is
        // short or its reader ends before the length it was opened at.
        for cut in 0..clean.len() {
            assert!(
                EngineSetSnapshot::decode(clean.slice(0..cut)).is_err(),
                "cut at {cut} undetected"
            );
            assert!(stream(&clean[..cut], cut).is_err(), "short file {cut}");
            assert_eq!(
                stream(&clean[..cut], clean.len()).err(),
                Some(TraceError::Truncated),
                "reader ending at {cut}"
            );
        }
    }

    /// `users` exact-lane users of `lane_len` seeded values each, in one
    /// shard, with no campaigns: an image that is nearly all lane bytes.
    fn lane_heavy(users: u32, lane_len: usize) -> EngineSetSnapshot {
        let user = |u: u32| UserStateSnapshot {
            landmark: Timestamp::from_secs(1),
            last_ts: Timestamp::from_secs(u64::from(u) + 2),
            context: SparseVector::from_sorted(vec![(TermId(u), 0.5)]),
            relevance: RelevanceSnapshot::Exact {
                lane: (0..lane_len)
                    .map(|i| ((i as u32).wrapping_mul(2_654_435_761) ^ u) as f32 * 1e-9)
                    .collect(),
                since_anchor: u % 200,
            },
            index_epoch: 3,
        };
        EngineSetSnapshot {
            next_lsn: 99,
            num_users: users,
            num_shards: 1,
            store: StoreSnapshot {
                campaigns: Vec::new(),
                index_epoch: 3,
            },
            engines: vec![EngineSnapshot {
                users: (0..users).map(user).collect(),
            }],
        }
    }

    /// Where each user's lane values sit in `lane_heavy(users, lane_len)`'s
    /// image: `(first value byte, one past the last)`. Every user record
    /// has the same size, and only `since_anchor u32 | index_epoch u64`
    /// follow the lane.
    fn lane_extents(users: u32, lane_len: usize) -> Vec<(usize, usize)> {
        let base = lane_heavy(0, lane_len).encode().len();
        let record = lane_heavy(1, lane_len).encode().len() - base;
        let lane_bytes = 4 * lane_len;
        (0..users as usize)
            .map(|u| {
                let end = base + (u + 1) * record - 12;
                (end - lane_bytes, end)
            })
            .collect()
    }

    const LANE_USERS: u32 = 300;
    const LANE_LEN: usize = 1100;

    /// The file offsets where a streaming load refills: every chunk is
    /// read whole, so they are the chunk multiples inside the file.
    fn refill_boundaries(len: usize) -> Vec<usize> {
        (1..)
            .map(|k| k * STREAM_CHUNK)
            .take_while(|&b| b < len)
            .collect()
    }

    #[test]
    fn an_image_spanning_refills_streams_from_a_file() {
        let snap = lane_heavy(LANE_USERS, LANE_LEN);
        let image = snap.encode();
        let boundaries = refill_boundaries(image.len());
        assert!(boundaries.len() >= 4, "{} bytes", image.len());
        let straddled = lane_extents(LANE_USERS, LANE_LEN)
            .iter()
            .filter(|&&(start, end)| boundaries.iter().any(|&b| start < b && b < end))
            .count();
        assert!(straddled > 0, "no lane straddles a refill");

        // The write streams its read-back; the load streams the file.
        let dir = temp_dir("stream");
        write_snapshot_atomic(&dir, snap.next_lsn, &image).unwrap();
        let loaded = load_latest(&dir).unwrap().expect("the snapshot loads");
        assert_eq!(loaded.skipped_corrupt, 0);
        assert_eq!(loaded.snapshot.engines, snap.engines);
        assert_eq!(loaded.snapshot.store, snap.store);
        assert_eq!(loaded.snapshot.next_lsn, snap.next_lsn);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_damaged_streamed_file_is_refused_and_the_older_one_loads() {
        let older = small_snapshot();
        let snap = lane_heavy(LANE_USERS, LANE_LEN);
        let image = snap.encode().to_vec();
        let lanes = lane_extents(LANE_USERS, LANE_LEN);
        let header_cuts = 1..FILE_HEADER + 4;
        let refill_cuts = refill_boundaries(image.len())
            .into_iter()
            .flat_map(|b| [b - 1, b, b + 1]);
        let cuts: Vec<usize> = header_cuts.chain(refill_cuts).collect();
        for &cut in &cuts {
            // A reader that ends early, where the file said it was whole.
            assert_eq!(
                stream(&image[..cut], image.len()).err(),
                Some(TraceError::Truncated),
                "reader ending at {cut}"
            );
        }
        let mut damaged: Vec<(String, Vec<u8>, Option<TraceError>)> = cuts
            .into_iter()
            .map(|cut| (format!("cut at {cut}"), image[..cut].to_vec(), None))
            .collect();
        // Lowest mantissa bit of a lane value in the middle of the image:
        // the value stays finite, so only the CRC can tell.
        let (mid_lane, _) = lanes[lanes.len() / 2];
        let mut flipped = image.clone();
        flipped[mid_lane + 40] ^= 1;
        let crc = TraceError::Corrupt("snapshot crc mismatch");
        damaged.push(("lane flip".into(), flipped, Some(crc)));
        let mut trailing = image.clone();
        trailing.extend_from_slice(&[0; 3]);
        let trailing_err = TraceError::Corrupt("trailing bytes after snapshot");
        damaged.push(("trailing bytes".into(), trailing, Some(trailing_err)));
        // A payload length past the end of the file, and an impossible one.
        for (what, len, err) in [
            (
                "length past the end",
                image.len() - FILE_HEADER + 1,
                TraceError::Truncated,
            ),
            (
                "impossible length",
                u32::MAX as usize,
                TraceError::Corrupt("impossible snapshot length"),
            ),
        ] {
            let mut bad = image.clone();
            bad[8..12].copy_from_slice(&(len as u32).to_le_bytes());
            damaged.push((what.into(), bad, Some(err)));
        }
        // A lane's own length field past the end, under a matching CRC:
        // the count check refuses it before anything is reserved.
        let (last_lane, _) = lanes[lanes.len() - 1];
        let mut bad = image.clone();
        bad[last_lane - 4..last_lane].copy_from_slice(&0x7FFF_FFFFu32.to_le_bytes());
        let crc = crc32(&bad[FILE_HEADER..]);
        bad[12..16].copy_from_slice(&crc.to_le_bytes());
        damaged.push((
            "lane length past the end".into(),
            bad,
            Some(TraceError::Truncated),
        ));

        for (what, bytes, want) in damaged {
            let got = stream(&bytes, bytes.len()).err();
            assert!(got.is_some(), "{what}: loaded");
            if let Some(want) = want {
                assert_eq!(got, Some(want), "{what}");
            }
            let dir = temp_dir("damaged");
            write_snapshot_atomic(&dir, older.next_lsn, &older.encode()).unwrap();
            fs::write(dir.join(snapshot_file_name(snap.next_lsn)), &bytes).unwrap();
            let loaded = load_latest(&dir).unwrap().expect("the older snapshot");
            assert_eq!(loaded.snapshot.next_lsn, older.next_lsn, "{what}");
            assert_eq!(loaded.skipped_corrupt, 1, "{what}");
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn load_latest_falls_back_over_corruption() {
        let dir = temp_dir("fallback");
        let (store, driver) = populated();
        for lsn in [10u64, 20, 30] {
            let bytes = EngineSetSnapshot::capture(lsn, &store, &driver).encode();
            write_snapshot_atomic(&dir, lsn, &bytes).unwrap();
        }
        // Corrupt the newest file's payload.
        let newest = dir.join(snapshot_file_name(30));
        let mut raw = fs::read(&newest).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        fs::write(&newest, &raw).unwrap();

        let loaded = load_latest(&dir).unwrap().expect("older snapshot valid");
        assert_eq!(loaded.snapshot.next_lsn, 20);
        assert_eq!(loaded.skipped_corrupt, 1);

        // No snapshots at all → None.
        let empty = temp_dir("empty");
        assert!(load_latest(&empty).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn tmp_files_are_invisible_to_the_loader() {
        let dir = temp_dir("tmp");
        fs::write(dir.join("snap-0000000000000005.snap.tmp"), b"garbage").unwrap();
        assert!(list_snapshots(&dir).unwrap().is_empty());
        assert!(load_latest(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_newest_and_covered_segments() {
        let dir = temp_dir("prune");
        let (store, driver) = populated();
        for lsn in [5u64, 10, 15] {
            let bytes = EngineSetSnapshot::capture(lsn, &store, &driver).encode();
            write_snapshot_atomic(&dir, lsn, &bytes).unwrap();
        }
        // Three WAL segments based at 0, 8, 16: with next_lsn = 15, the
        // first (records 0..8) is fully covered, the second (8..16) holds
        // record 15 and must survive, and the last always survives.
        let options = crate::wal::WalOptions {
            fsync: crate::wal::FsyncPolicy::Off,
            segment_bytes: u64::MAX,
        };
        for base in [0u64, 8, 16] {
            drop(crate::wal::WalWriter::create(&dir, options, base).unwrap());
        }
        let (snaps, segs) = prune(&dir, 15, 2).unwrap();
        assert_eq!(snaps, 1);
        assert_eq!(segs, 1);
        let remaining = list_snapshots(&dir).unwrap();
        assert_eq!(
            remaining.iter().map(|s| s.next_lsn).collect::<Vec<_>>(),
            vec![10, 15]
        );
        let segments = wal::list_segments(&dir).unwrap();
        assert_eq!(
            segments.iter().map(|s| s.base_lsn).collect::<Vec<_>>(),
            vec![8, 16]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_preserves_segments_the_fallback_snapshot_needs() {
        let dir = temp_dir("prune-fallback");
        let (store, driver) = populated();
        // Two snapshots, both retained under keep=2. The older one (5)
        // replays from lsn 5, which lives in the segment based at 0 —
        // pruning by the *newest* snapshot's cut (15) would delete it and
        // strand fallback recovery.
        for lsn in [5u64, 15] {
            let bytes = EngineSetSnapshot::capture(lsn, &store, &driver).encode();
            write_snapshot_atomic(&dir, lsn, &bytes).unwrap();
        }
        let options = crate::wal::WalOptions {
            fsync: crate::wal::FsyncPolicy::Off,
            segment_bytes: u64::MAX,
        };
        for base in [0u64, 8, 16] {
            drop(crate::wal::WalWriter::create(&dir, options, base).unwrap());
        }
        let (snaps, segs) = prune(&dir, 15, 2).unwrap();
        assert_eq!(snaps, 0);
        assert_eq!(segs, 0, "segment 0 is still needed by snapshot 5");
        let segments = wal::list_segments(&dir).unwrap();
        assert_eq!(
            segments.iter().map(|s| s.base_lsn).collect::<Vec<_>>(),
            vec![0, 8, 16]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_names_roundtrip() {
        assert_eq!(snapshot_file_name(0x2a), "snap-000000000000002a.snap");
        assert_eq!(
            parse_snapshot_name("snap-000000000000002a.snap"),
            Some(0x2a)
        );
        assert_eq!(parse_snapshot_name("snap-2a.snap"), None);
        assert_eq!(parse_snapshot_name("wal-000000000000002a.log"), None);
    }
}
