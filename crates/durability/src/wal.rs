//! Segmented, CRC-checked write-ahead log.
//!
//! On-disk layout. Each segment file `wal-{base_lsn:016x}.log` is:
//!
//! ```text
//! header:  magic "ADWL" | version u16 | reserved u16 | base_lsn u64
//! record:  len u32 | crc32 u32 | payload
//! payload: lsn u64 | record bytes        (crc covers the payload)
//! ```
//!
//! LSNs are assigned sequentially, one per record, so record `i` of a
//! segment always carries `base_lsn + i` — a cheap integrity check on
//! top of the CRC.
//!
//! Durability contract: [`WalWriter::append`] only buffers;
//! [`WalWriter::commit`] flushes and applies the [`FsyncPolicy`] — the
//! server appends every record of one RPC group and commits once before
//! acking, so one fsync covers the whole group (group commit). Rotation
//! happens at commit boundaries and always fsyncs the outgoing segment,
//! which preserves the recovery invariant that *only the final segment
//! may be torn*: a short or corrupt record there is truncated; the same
//! damage in an earlier segment is a hard [`WalError::Corrupt`].

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing
    )
)]

use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use adcast_stream::clock::now_ns;
use adcast_stream::cursor::{put_len32, put_stream_header, Cursor, TraceError};
use bytes::{BufMut, Bytes, BytesMut};

use crate::backend::{fs_backend, StorageBackend, StorageFile};
use crate::crc::crc32;
use crate::record::WalRecord;

/// Per-segment magic (traces use `ADCT`, wire frames `ADCN`,
/// snapshots `ADSS`).
pub const WAL_MAGIC: &[u8; 4] = b"ADWL";
/// WAL format version.
pub const WAL_VERSION: u16 = 1;
/// Bytes of segment header before the first record.
pub const SEGMENT_HEADER: u64 = 8 + 8;
/// Upper bound on one record payload; larger declared lengths are
/// rejected before allocation, mirroring the wire codec's `MAX_FRAME`.
pub const MAX_RECORD: usize = 64 << 20;

/// When to fsync committed records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync on every commit: an acked write survives `kill -9`.
    Always,
    /// fsync every N commits: bounded loss window, much cheaper.
    EveryN(u32),
    /// Never fsync (the OS flushes when it pleases): benchmark floor and
    /// "I trust the page cache" deployments.
    Off,
}

impl FsyncPolicy {
    /// Parse a CLI spelling: `always`, `off`, or `every=N`.
    ///
    /// # Errors
    ///
    /// A description of the accepted forms.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "off" => Ok(FsyncPolicy::Off),
            _ => match s.strip_prefix("every=").map(str::parse::<u32>) {
                Some(Ok(n)) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(format!(
                    "bad fsync policy {s:?}: expected always, off, or every=N"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every={n}"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// Writer knobs.
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Commit durability policy.
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: FsyncPolicy::Always,
            segment_bytes: 16 << 20,
        }
    }
}

/// WAL failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum WalError {
    /// Filesystem failure.
    Io(io::Error),
    /// A segment header failed validation (bad magic/version).
    Header(TraceError),
    /// Damage outside the final segment (or in its header), where
    /// truncation would silently drop durable records.
    Corrupt {
        /// Base LSN of the damaged segment.
        segment: u64,
        /// Byte offset of the damage within the segment file.
        offset: u64,
        /// What failed.
        what: &'static str,
    },
    /// An append was refused because the encoded record would exceed
    /// [`MAX_RECORD`] and could never be read back.
    RecordTooLarge {
        /// Encoded payload length that was refused.
        len: usize,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::Header(e) => write!(f, "wal segment header: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                what,
            } => write!(
                f,
                "wal segment {segment:016x} corrupt at byte {offset}: {what}"
            ),
            WalError::RecordTooLarge { len } => write!(
                f,
                "wal record of {len} bytes exceeds the {MAX_RECORD}-byte limit"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// The file name of the segment whose first record is `base_lsn`.
pub fn segment_file_name(base_lsn: u64) -> String {
    format!("wal-{base_lsn:016x}.log")
}

/// Parse a segment file name back to its base LSN.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// One segment on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// LSN of the segment's first record.
    pub base_lsn: u64,
    /// Full path.
    pub path: PathBuf,
}

/// Enumerate WAL segments in `dir`, sorted by base LSN. A missing
/// directory is an empty list.
///
/// # Errors
///
/// [`WalError::Io`] on directory-read failures.
pub fn list_segments(dir: &Path) -> Result<Vec<SegmentInfo>, WalError> {
    Ok(list_segment_lsns_on(&*fs_backend(dir))?
        .into_iter()
        .map(|base_lsn| SegmentInfo {
            base_lsn,
            path: dir.join(segment_file_name(base_lsn)),
        })
        .collect())
}

/// Enumerate WAL segment base LSNs on `backend`, sorted ascending.
///
/// # Errors
///
/// [`WalError::Io`] on listing failures.
pub fn list_segment_lsns_on(backend: &dyn StorageBackend) -> Result<Vec<u64>, WalError> {
    let mut lsns: Vec<u64> = backend
        .list()?
        .iter()
        .filter_map(|name| parse_segment_name(name))
        .collect();
    lsns.sort_unstable();
    Ok(lsns)
}

/// The valid contents of one segment.
#[derive(Debug)]
pub struct SegmentRecords {
    /// `(lsn, payload)` pairs in log order; payloads are undecoded
    /// [`WalRecord`] bytes.
    pub records: Vec<(u64, Bytes)>,
    /// Bytes past the last valid record (0 unless the tail was torn).
    pub truncated_bytes: u64,
    /// Length of the valid prefix — truncate the file here to heal it.
    pub valid_len: u64,
}

/// Read and validate one segment.
///
/// In the **final** segment (`is_last`), the first short, oversized, or
/// CRC-failing record marks a torn tail: everything from there on is
/// reported as `truncated_bytes` and the records before it are returned.
/// Anywhere else the same damage is a [`WalError::Corrupt`] — those
/// records were fsynced and covered by later segments, so dropping them
/// silently would corrupt recovery.
///
/// # Errors
///
/// [`WalError::Header`] on a bad header, [`WalError::Corrupt`] as above,
/// [`WalError::Io`] on filesystem failures. Never panics, whatever the
/// file contains.
pub fn read_segment(
    path: &Path,
    expect_base: u64,
    is_last: bool,
) -> Result<SegmentRecords, WalError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    parse_segment(raw, expect_base, is_last)
}

/// [`read_segment`] against a [`StorageBackend`] (the segment's name is
/// derived from `expect_base`).
///
/// # Errors
///
/// As [`read_segment`].
pub fn read_segment_on(
    backend: &dyn StorageBackend,
    expect_base: u64,
    is_last: bool,
) -> Result<SegmentRecords, WalError> {
    parse_segment(
        backend.read(&segment_file_name(expect_base))?,
        expect_base,
        is_last,
    )
}

/// Validate raw segment bytes (the pure half of [`read_segment`]).
///
/// # Errors
///
/// As [`read_segment`].
pub fn parse_segment(
    raw: Vec<u8>,
    expect_base: u64,
    is_last: bool,
) -> Result<SegmentRecords, WalError> {
    let file_len = raw.len() as u64;
    let mut cur = Cursor::new(Bytes::from(raw));
    cur.check_header(WAL_MAGIC, WAL_VERSION)
        .map_err(WalError::Header)?;
    let base_lsn = cur.u64().map_err(WalError::Header)?;
    if base_lsn != expect_base {
        return Err(WalError::Corrupt {
            segment: expect_base,
            offset: 8,
            what: "segment base lsn does not match file name",
        });
    }

    let mut records = Vec::new();
    let mut valid_len = SEGMENT_HEADER;
    let mut next_lsn = base_lsn;
    let tear = |offset: u64, what: &'static str| {
        if is_last {
            Ok(())
        } else {
            Err(WalError::Corrupt {
                segment: expect_base,
                offset,
                what,
            })
        }
    };
    while !cur.is_empty() {
        let (Ok(len), Ok(crc)) = (cur.u32(), cur.u32()) else {
            tear(valid_len, "torn record prefix")?;
            break;
        };
        let len = len as usize;
        if !(8..=MAX_RECORD).contains(&len) {
            tear(valid_len, "impossible record length")?;
            break;
        }
        let Ok(payload) = cur.split_to(len) else {
            tear(valid_len, "torn record body")?;
            break;
        };
        if crc32(&payload) != crc {
            tear(valid_len, "crc mismatch")?;
            break;
        }
        // `len >= 8`, so the lsn read cannot fail.
        let mut payload = Cursor::new(payload);
        match payload.u64() {
            Ok(lsn) if lsn == next_lsn => records.push((lsn, payload.into_rest())),
            _ => {
                tear(valid_len, "lsn out of sequence")?;
                break;
            }
        }
        next_lsn += 1;
        valid_len = file_len - cur.len() as u64;
    }
    Ok(SegmentRecords {
        records,
        truncated_bytes: file_len - valid_len,
        valid_len,
    })
}

/// The appending half of the log.
pub struct WalWriter {
    backend: Arc<dyn StorageBackend>,
    file: BufWriter<Box<dyn StorageFile>>,
    options: WalOptions,
    segment_base: u64,
    segment_written: u64,
    next_lsn: u64,
    commits_since_sync: u32,
    records: u64,
    bytes: u64,
    fsyncs: u64,
    /// Span timing: time inside `sync_data` per fsync.
    fsync_ns: adcast_obs::Hist,
    /// Span timing: segment rotation (final fsync + new segment) time.
    rotate_ns: adcast_obs::Hist,
}

impl WalWriter {
    /// Start a fresh segment whose first record will carry `next_lsn`.
    ///
    /// An existing file of the same name is truncated — that can only
    /// happen when the previous incarnation crashed before writing any
    /// durable record to it, so nothing valid is lost.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on filesystem failures.
    pub fn create(dir: &Path, options: WalOptions, next_lsn: u64) -> Result<WalWriter, WalError> {
        fs::create_dir_all(dir)?;
        WalWriter::create_on(fs_backend(dir), options, next_lsn)
    }

    /// [`WalWriter::create`] against an explicit [`StorageBackend`].
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on backend failures.
    pub fn create_on(
        backend: Arc<dyn StorageBackend>,
        options: WalOptions,
        next_lsn: u64,
    ) -> Result<WalWriter, WalError> {
        let file = new_segment_file(&*backend, next_lsn)?;
        Ok(WalWriter {
            backend,
            file,
            options,
            segment_base: next_lsn,
            segment_written: SEGMENT_HEADER,
            next_lsn,
            commits_since_sync: 0,
            records: 0,
            bytes: 0,
            fsyncs: 0,
            fsync_ns: adcast_obs::registry().hist(
                "adcast_durability_fsync_ns",
                "Time spent in sync_data per WAL fsync.",
            ),
            rotate_ns: adcast_obs::registry().hist(
                "adcast_durability_rotate_ns",
                "WAL segment rotation time (closing fsync plus new segment).",
            ),
        })
    }

    /// Append one record to the buffer (no durability until
    /// [`WalWriter::commit`]). Returns the record's LSN.
    ///
    /// # Errors
    ///
    /// [`WalError::RecordTooLarge`] when the encoded record exceeds
    /// [`MAX_RECORD`] (it could never be read back), [`WalError::Io`] on
    /// filesystem failures.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, WalError> {
        let lsn = self.next_lsn;
        let body = record.encode();
        let mut payload = BytesMut::with_capacity(8 + body.len());
        payload.put_u64_le(lsn);
        payload.put_slice(&body);
        if payload.len() > MAX_RECORD {
            return Err(WalError::RecordTooLarge { len: payload.len() });
        }
        let mut frame = BytesMut::with_capacity(8 + payload.len());
        put_len32(&mut frame, payload.len());
        frame.put_u32_le(crc32(&payload));
        frame.put_slice(&payload);
        self.file.write_all(&frame)?;
        self.next_lsn += 1;
        self.segment_written += frame.len() as u64;
        self.records += 1;
        self.bytes += frame.len() as u64;
        Ok(lsn)
    }

    /// Commit everything appended so far: flush, fsync per policy, and
    /// rotate the segment when it outgrew [`WalOptions::segment_bytes`].
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on filesystem failures; on error the appended
    /// records must be considered not durable (callers refuse the ack).
    pub fn commit(&mut self) -> Result<(), WalError> {
        self.file.flush()?;
        match self.options.fsync {
            FsyncPolicy::Always => {
                let started = now_ns();
                self.file.get_mut().sync_data()?;
                self.fsync_ns.record(now_ns().saturating_sub(started));
                self.fsyncs += 1;
            }
            FsyncPolicy::EveryN(n) => {
                self.commits_since_sync += 1;
                if self.commits_since_sync >= n {
                    let started = now_ns();
                    self.file.get_mut().sync_data()?;
                    self.fsync_ns.record(now_ns().saturating_sub(started));
                    self.fsyncs += 1;
                    self.commits_since_sync = 0;
                }
            }
            FsyncPolicy::Off => {}
        }
        if self.segment_written >= self.options.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Close the current segment durably and start the next one. Always
    /// fsyncs the outgoing segment (whatever the policy), so only the
    /// newest segment can ever be torn.
    fn rotate(&mut self) -> io::Result<()> {
        let started = now_ns();
        self.file.flush()?;
        self.file.get_mut().sync_data()?;
        self.fsyncs += 1;
        self.file = new_segment_file(&*self.backend, self.next_lsn)?;
        self.segment_base = self.next_lsn;
        self.segment_written = SEGMENT_HEADER;
        self.commits_since_sync = 0;
        self.rotate_ns.record(now_ns().saturating_sub(started));
        Ok(())
    }

    /// LSN the next appended record will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Base LSN of the segment currently being written.
    pub fn segment_base(&self) -> u64 {
        self.segment_base
    }

    /// Records appended over this writer's lifetime.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Record bytes appended (framing included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// fsync calls issued.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

/// Create (truncating) a segment file, write its header, and fsync the
/// directory so the new name itself is durable.
fn new_segment_file(
    backend: &dyn StorageBackend,
    base_lsn: u64,
) -> io::Result<BufWriter<Box<dyn StorageFile>>> {
    let file = backend.create(&segment_file_name(base_lsn))?;
    let mut header = BytesMut::with_capacity(SEGMENT_HEADER as usize);
    put_stream_header(&mut header, WAL_MAGIC, WAL_VERSION);
    header.put_u64_le(base_lsn);
    let mut writer = BufWriter::new(file);
    writer.write_all(&header)?;
    writer.flush()?;
    backend.sync_dir()?;
    Ok(writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample_records;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "adcast-wal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn reencode(records: &[(u64, Bytes)]) -> Vec<Bytes> {
        records
            .iter()
            .map(|(_, payload)| WalRecord::decode(payload.clone()).unwrap().encode())
            .collect()
    }

    #[test]
    fn roundtrip_single_segment() {
        let dir = temp_dir("roundtrip");
        let originals = sample_records();
        let mut w = WalWriter::create(&dir, WalOptions::default(), 0).unwrap();
        for r in &originals {
            w.append(r).unwrap();
        }
        w.commit().unwrap();
        assert_eq!(w.next_lsn(), originals.len() as u64);
        assert_eq!(w.records(), originals.len() as u64);
        assert_eq!(w.fsyncs(), 1);
        drop(w);

        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].base_lsn, 0);
        let seg = read_segment(&segments[0].path, 0, true).unwrap();
        assert_eq!(seg.truncated_bytes, 0);
        assert_eq!(seg.records.len(), originals.len());
        for (i, ((lsn, _), original)) in seg.records.iter().zip(&originals).enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(reencode(&seg.records)[i], original.encode());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_segments_and_replays_in_order() {
        let dir = temp_dir("rotate");
        let options = WalOptions {
            fsync: FsyncPolicy::Off,
            segment_bytes: 256,
        };
        let mut w = WalWriter::create(&dir, options, 0).unwrap();
        let mut appended = Vec::new();
        for i in 0..40u32 {
            let record = WalRecord::Pause(adcast_ads::AdId(i));
            appended.push(record.encode());
            w.append(&record).unwrap();
            w.commit().unwrap();
        }
        drop(w);

        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1, "rotation must produce segments");
        let mut lsn = 0u64;
        for (i, seg) in segments.iter().enumerate() {
            assert_eq!(seg.base_lsn, lsn, "segments dense in lsn space");
            let is_last = i + 1 == segments.len();
            let contents = read_segment(&seg.path, seg.base_lsn, is_last).unwrap();
            assert_eq!(contents.truncated_bytes, 0);
            for (got_lsn, payload) in &contents.records {
                assert_eq!(*got_lsn, lsn);
                assert_eq!(
                    WalRecord::decode(payload.clone()).unwrap().encode(),
                    appended[lsn as usize]
                );
                lsn += 1;
            }
        }
        assert_eq!(lsn, 40);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_counts() {
        for (policy, commits, expect) in [
            (FsyncPolicy::Always, 5u32, 5u64),
            (FsyncPolicy::EveryN(3), 7, 2),
            (FsyncPolicy::Off, 9, 0),
        ] {
            let dir = temp_dir("fsync");
            let mut w = WalWriter::create(
                &dir,
                WalOptions {
                    fsync: policy,
                    segment_bytes: u64::MAX,
                },
                0,
            )
            .unwrap();
            for i in 0..commits {
                w.append(&WalRecord::Pause(adcast_ads::AdId(i))).unwrap();
                w.commit().unwrap();
            }
            assert_eq!(w.fsyncs(), expect, "{policy}");
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn torn_tail_truncates_at_every_cut() {
        let dir = temp_dir("torn");
        let originals = sample_records();
        let mut w = WalWriter::create(&dir, WalOptions::default(), 0).unwrap();
        let mut boundaries = vec![SEGMENT_HEADER];
        for r in &originals {
            w.append(r).unwrap();
            w.commit().unwrap();
            boundaries.push(w.bytes() + SEGMENT_HEADER);
        }
        drop(w);
        let path = dir.join(segment_file_name(0));
        let full = fs::read(&path).unwrap();

        for cut in SEGMENT_HEADER as usize..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let seg = read_segment(&path, 0, true).unwrap();
            // The valid prefix is however many whole records fit below the
            // cut (boundaries[0] is the segment header).
            let expect = boundaries.iter().take_while(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(seg.records.len(), expect, "cut at {cut}");
            assert_eq!(seg.valid_len, boundaries[expect], "cut at {cut}");
            assert_eq!(seg.truncated_bytes, cut as u64 - seg.valid_len);
            // The same cut in a non-final segment is a hard error (except
            // a cut exactly at a record boundary, which looks complete).
            let at_boundary = boundaries.contains(&(cut as u64));
            assert_eq!(
                read_segment(&path, 0, false).is_err(),
                !at_boundary,
                "cut at {cut}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_flip_at_every_offset_never_panics() {
        let dir = temp_dir("flip");
        let mut w = WalWriter::create(&dir, WalOptions::default(), 0).unwrap();
        for i in 0..4u32 {
            w.append(&WalRecord::Pause(adcast_ads::AdId(i))).unwrap();
        }
        w.commit().unwrap();
        drop(w);
        let path = dir.join(segment_file_name(0));
        let clean = fs::read(&path).unwrap();
        let baseline = read_segment(&path, 0, true).unwrap().records.len();
        assert_eq!(baseline, 4);

        for offset in 0..clean.len() {
            if offset == 6 || offset == 7 {
                // Reserved stream-header bytes; readers ignore them by
                // design, so a flip there is (harmlessly) undetectable.
                continue;
            }
            let mut flipped = clean.clone();
            flipped[offset] ^= 0x40;
            fs::write(&path, &flipped).unwrap();
            // Must never panic: either a typed error (header damage) or a
            // truncated prefix of the original records.
            match read_segment(&path, 0, true) {
                Ok(seg) => {
                    assert!(seg.records.len() < baseline, "flip at {offset} undetected");
                    for (i, (lsn, _)) in seg.records.iter().enumerate() {
                        assert_eq!(*lsn, i as u64);
                    }
                }
                Err(WalError::Header(_) | WalError::Corrupt { .. }) => {}
                Err(e) => panic!("unexpected error at {offset}: {e}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parsing() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("off"), Ok(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("every=64"), Ok(FsyncPolicy::EveryN(64)));
        assert!(FsyncPolicy::parse("every=0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::EveryN(8).to_string(), "every=8");
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(segment_file_name(0), "wal-0000000000000000.log");
        assert_eq!(parse_segment_name("wal-00000000000002a.log"), None);
        assert_eq!(parse_segment_name(&segment_file_name(0x2a)), Some(0x2a));
        assert_eq!(parse_segment_name("snap-0000000000000000.snap"), None);
    }
}
