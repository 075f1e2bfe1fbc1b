//! The in-process twin and the per-layer ledger.
//!
//! The twin reads a node's WAL with the public segment reader, decodes
//! each record with `WalRecord::decode` and applies it through
//! `apply_record` onto a fresh `AdStore` + `ShardedDriver` — the state a
//! correct server must be serving. With a [`Recorder`] the same replay
//! doubles as the ledger: each record also takes the server's path,
//! `codec::decode_request` → `Durability::log` → `Durability::commit` →
//! `apply_record`, against a fresh data dir, and every call is a span.
//! Replaying the node's own WAL order keeps the ledger's state identical
//! to the twin's.

use std::path::Path;

use adcast::ads::AdStore;
use adcast::core::{EngineConfig, EngineStats, Recommendation, ShardedDriver};
use adcast::durability::wal::{list_segments, read_segment};
use adcast::durability::{
    apply_record, Durability, DurabilityOptions, EngineSetSnapshot, FsyncPolicy, RecoveryReport,
    WalOptions, WalRecord, WalWriter,
};
use adcast::net::codec::{decode_request, encode_request, encode_response};
use adcast::net::{Request, Response};

use crate::spans::Recorder;
use crate::workload::{SHARDS, USERS};

/// Root span names, one per record kind; layer spans hang under them.
pub const ROOT_INGEST: &str = "ledger.ingest";
/// Root span of a Submit record.
pub const ROOT_SUBMIT: &str = "ledger.submit";
/// Root span of a Pause record.
pub const ROOT_PAUSE: &str = "ledger.pause";
/// Root span of any other record.
pub const ROOT_OTHER: &str = "ledger.other";
/// Root span of one sweep read.
pub const ROOT_READ: &str = "ledger.read";

/// The replayed twin.
pub struct Twin {
    /// Replayed store.
    pub store: AdStore,
    /// Replayed engines.
    pub driver: ShardedDriver,
    /// Feed deltas applied.
    pub deltas: u64,
    /// Engine counters right after the replay (before any read).
    pub stats: EngineStats,
    /// Ingest request frame bytes re-encoded by the ledger.
    pub ingest_frame_bytes: u64,
}

/// Replay the WAL in `wal_dir`. With `ledger`, also log and commit every
/// record into a fresh WAL under the given directory and time each call.
pub fn replay(wal_dir: &Path, mut ledger: Option<(&mut Recorder, &Path)>) -> Result<Twin, String> {
    let mut store = AdStore::new();
    let mut driver = ShardedDriver::new(USERS, SHARDS, EngineConfig::default());
    let mut durability = match &ledger {
        None => None,
        Some((_, dir)) => {
            let wal = WalOptions {
                fsync: FsyncPolicy::Off,
                ..WalOptions::default()
            };
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let writer = WalWriter::create(dir, wal, 0).map_err(|e| format!("ledger wal: {e}"))?;
            let options = DurabilityOptions {
                wal,
                snapshot_every: 0,
                ..DurabilityOptions::default()
            };
            Some(Durability::new(
                dir,
                writer,
                options,
                RecoveryReport::default(),
            ))
        }
    };
    let segments = list_segments(wal_dir).map_err(|e| format!("list wal: {e}"))?;
    if segments.is_empty() {
        return Err(format!("no WAL segments in {}", wal_dir.display()));
    }
    let (mut deltas, mut frame_bytes) = (0u64, 0u64);
    for (i, seg) in segments.iter().enumerate() {
        let is_last = i + 1 == segments.len();
        let read = || read_segment(&seg.path, seg.base_lsn, is_last);
        let contents = match ledger.as_mut() {
            Some((rec, _)) => rec.time("durability.read_segment", None, seg.base_lsn, read),
            None => read(),
        }
        .map_err(|e| format!("read wal segment {}: {e}", seg.base_lsn))?;
        if contents.truncated_bytes > 0 {
            return Err(format!(
                "torn WAL tail after a graceful run ({} bytes)",
                contents.truncated_bytes
            ));
        }
        for (lsn, payload) in contents.records {
            let Some((rec, _)) = ledger.as_mut() else {
                let record =
                    WalRecord::decode(payload).map_err(|e| format!("decode lsn {lsn}: {e}"))?;
                if let WalRecord::IngestBatch(d) = &record {
                    deltas += d.len() as u64;
                }
                apply_record(&mut store, &mut driver, record)
                    .map_err(|e| format!("apply lsn {lsn}: {e}"))?;
                continue;
            };
            let d = durability.as_mut().expect("ledger has a durability handle");
            let root = rec.open(ROOT_OTHER, None, lsn);
            let record = rec
                .time("durability.wal_decode", Some(root), lsn, || {
                    WalRecord::decode(payload)
                })
                .map_err(|e| format!("decode lsn {lsn}: {e}"))?;
            let (root_name, apply_name, record) = match record {
                WalRecord::IngestBatch(batch) => {
                    // The request the server decoded for this record.
                    deltas += batch.len() as u64;
                    let frame = encode_request(lsn, &Request::Ingest { deltas: batch });
                    frame_bytes += frame.len() as u64;
                    let body = frame.slice(4..);
                    let decoded = rec
                        .time("net.decode", Some(root), lsn, || decode_request(body))
                        .map_err(|e| format!("decode request {lsn}: {e}"))?;
                    let Request::Ingest { deltas: batch } = decoded.1 else {
                        return Err(format!("lsn {lsn}: ingest frame decoded to another kind"));
                    };
                    (ROOT_INGEST, "core.apply", WalRecord::IngestBatch(batch))
                }
                r @ WalRecord::Submit(_) => (ROOT_SUBMIT, "adstore.submit", r),
                r @ WalRecord::Pause(_) => (ROOT_PAUSE, "adstore.pause", r),
                r => (ROOT_OTHER, "apply.other", r),
            };
            rec.rename(root, root_name);
            rec.time("durability.log", Some(root), lsn, || d.log(&record))
                .map_err(|e| format!("ledger log {lsn}: {e}"))?;
            rec.time("durability.commit", Some(root), lsn, || d.commit())
                .map_err(|e| format!("ledger commit {lsn}: {e}"))?;
            rec.time(apply_name, Some(root), lsn, || {
                apply_record(&mut store, &mut driver, record)
            })
            .map_err(|e| format!("apply lsn {lsn}: {e}"))?;
            rec.close(root);
        }
    }
    let stats = driver.stats();
    Ok(Twin {
        store,
        driver,
        deltas,
        stats,
        ingest_frame_bytes: frame_bytes,
    })
}

impl Twin {
    /// Serve every sweep request in-process. With a recorder, time the
    /// engine call and the response encode the server would do.
    pub fn sweep(
        &mut self,
        reqs: &[Request],
        mut rec: Option<&mut Recorder>,
    ) -> Vec<Vec<Recommendation>> {
        reqs.iter()
            .enumerate()
            .map(|(i, req)| {
                let Request::Recommend {
                    user,
                    now,
                    location,
                    k,
                } = *req
                else {
                    panic!("sweep holds only Recommend requests");
                };
                let (store, driver) = (&self.store, &mut self.driver);
                let mut serve = || driver.recommend(store, user, now, location, usize::from(k));
                let Some(rec) = rec.as_deref_mut() else {
                    return serve();
                };
                let op = i as u64;
                let root = rec.open(ROOT_READ, None, op);
                let recs = rec.time("core.recommend", Some(root), op, serve);
                let resp = Response::Recommendations(recs);
                let frame = rec.time("net.encode_recs", Some(root), op, || {
                    encode_response(op, &resp)
                });
                rec.close(root);
                std::hint::black_box(frame);
                match resp {
                    Response::Recommendations(recs) => recs,
                    _ => unreachable!("built as Recommendations above"),
                }
            })
            .collect()
    }

    /// Capture and encode a full snapshot, as a checkpoint does; returns
    /// its size in bytes.
    pub fn capture(&self, rec: &mut Recorder) -> usize {
        let (store, driver) = (&self.store, &self.driver);
        rec.time("durability.capture", None, 0, || {
            EngineSetSnapshot::capture(0, store, driver).encode().len()
        })
    }
}

/// Relative score tolerance of [`compare`]'s rounding tier.
pub const SCORE_TOL: f32 = 1e-4;

/// How two sweeps compare.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Agreement {
    /// Users whose lists are bit-identical.
    pub exact: usize,
    /// Users whose lists differ only by float rounding: per-rank scores
    /// within [`SCORE_TOL`], and the same ads above the k-th score (ads
    /// may swap only within a near-tie at the cut).
    pub rounding: usize,
}

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= SCORE_TOL * a.abs().max(b.abs()).max(1e-6)
}

/// Compare two sweeps user by user. An engine that refreshes a user
/// lazily at read time (after campaign churn) accumulates the same
/// relevance in a different float order than a replay that never served
/// that read, so exact agreement is counted apart from rounding-level
/// agreement; anything beyond rounding is an error naming the user.
pub fn compare(a: &[Vec<Recommendation>], b: &[Vec<Recommendation>]) -> Result<Agreement, String> {
    if a.len() != b.len() {
        return Err(format!("sweep sizes differ: {} vs {}", a.len(), b.len()));
    }
    let mut agreement = Agreement::default();
    for (user, (x, y)) in a.iter().zip(b).enumerate() {
        let key = |r: &Recommendation| (r.ad, r.score.to_bits(), r.relevance.to_bits());
        if x.len() == y.len() && x.iter().map(key).eq(y.iter().map(key)) {
            agreement.exact += 1;
            continue;
        }
        let scores_close =
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| close(p.score, q.score));
        let above_cut = |v: &[Recommendation]| -> Vec<u32> {
            let cut = v.last().map_or(0.0, |r| r.score);
            let mut ads: Vec<u32> = v
                .iter()
                .filter(|r| r.score > cut && !close(r.score, cut))
                .map(|r| r.ad.0)
                .collect();
            ads.sort_unstable();
            ads
        };
        if scores_close && above_cut(x) == above_cut(y) {
            agreement.rounding += 1;
        } else {
            return Err(format!("user {user}: served {x:?} vs expected {y:?}"));
        }
    }
    Ok(agreement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast::ads::AdId;

    fn rec(ad: u32, score: f32) -> Recommendation {
        Recommendation {
            ad: AdId(ad),
            score,
            relevance: score,
        }
    }

    #[test]
    fn exact_rounding_and_real_differences() {
        let a = vec![vec![rec(1, 0.9), rec(2, 0.5), rec(3, 0.4)]];
        assert_eq!(
            compare(&a, &a).unwrap(),
            Agreement {
                exact: 1,
                rounding: 0
            }
        );
        // Last-bit score drift and a swap inside the near-tie at the cut.
        let b = vec![vec![rec(1, 0.900_000_1), rec(2, 0.5), rec(3, 0.4)]];
        assert_eq!(compare(&a, &b).unwrap().rounding, 1);
        let tie = vec![vec![rec(1, 0.9), rec(2, 0.4), rec(3, 0.4)]];
        let swapped = vec![vec![rec(1, 0.9), rec(3, 0.4), rec(2, 0.4)]];
        assert_eq!(compare(&tie, &swapped).unwrap().rounding, 1);
        // A different ad above the cut, or a real score gap, is an error.
        let other = vec![vec![rec(7, 0.9), rec(2, 0.5), rec(3, 0.4)]];
        assert!(compare(&a, &other).is_err());
        let gap = vec![vec![rec(1, 0.8), rec(2, 0.5), rec(3, 0.4)]];
        assert!(compare(&a, &gap).is_err());
        assert!(compare(&a, &[]).is_err());
    }
}
