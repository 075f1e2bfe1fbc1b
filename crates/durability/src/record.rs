//! The WAL record vocabulary.
//!
//! One [`WalRecord`] per externally-visible mutation of the serving
//! state: feed ingestion, campaign lifecycle, budget debits, pacing
//! attachment. Recommends are deliberately *not* logged — under the
//! default eager refresh policy serve-time certification makes
//! recommendation output a pure function of the mutation history, so
//! replaying mutations alone reproduces bit-identical answers.
//!
//! Record payload layout (all little-endian), after the per-record WAL
//! framing ([`crate::wal`]):
//!
//! ```text
//! tag u8 | body…
//! 1 IngestBatch: count u32 | count × delta       (shared delta codec)
//! 2 Submit:      vector | bid f32 | budget 2×u64 | nloc u16 | locs
//!              | nslots u8 | slots | topic u8 [u64]
//! 3 Pause:       ad u32
//! 4 Resume:      ad u32
//! 5 Remove:      ad u32
//! 6 SetPacing:   ad u32 | start u64 | end u64 | budget f64
//! 7 Impression:  ad u32 | cost f64 | clicked u8 | now u64
//! 8 Maintenance: now u64 | idle_for u64
//! ```

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

use adcast_ads::{AdId, AdSubmission, Budget, Targeting};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_stream::clock::{Duration, Timestamp};
use adcast_stream::cursor::{put_opt, Cursor, TraceError};
use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{get_batch, get_targeting, get_vector, put_batch, put_targeting, put_vector};

const T_INGEST: u8 = 1;
const T_SUBMIT: u8 = 2;
const T_PAUSE: u8 = 3;
const T_RESUME: u8 = 4;
const T_REMOVE: u8 = 5;
const T_SET_PACING: u8 = 6;
const T_IMPRESSION: u8 = 7;
const T_MAINTENANCE: u8 = 8;

/// One logged mutation.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A batch of feed deltas, acked as one unit (one fsync covers the
    /// whole batch — the WAL-level face of group commit).
    IngestBatch(Vec<(UserId, FeedDelta)>),
    /// A campaign submission (the store assigns the next sequential id,
    /// so replay reproduces identical ids).
    Submit(AdSubmission),
    /// Pause a campaign.
    Pause(AdId),
    /// Resume a paused campaign.
    Resume(AdId),
    /// Remove a campaign permanently.
    Remove(AdId),
    /// Attach a pacing controller for a flight `[start, end]`.
    SetPacing {
        /// Campaign to pace.
        ad: AdId,
        /// Flight start.
        start: Timestamp,
        /// Flight end (must be after `start`).
        end: Timestamp,
        /// Flight budget (positive, finite).
        budget: f64,
    },
    /// A served impression charged at `cost`, with its engagement.
    Impression {
        /// Campaign charged.
        ad: AdId,
        /// Charge amount (finite, non-negative).
        cost: f64,
        /// Whether the impression was clicked.
        clicked: bool,
        /// Serving time (drives pacing adjustment).
        now: Timestamp,
    },
    /// A lifecycle maintenance pass: evict exhausted/expired campaigns
    /// from the index and reset users idle longer than `idle_for`.
    /// WAL-logged so recovery twins replay the same decay and eviction
    /// decisions and stay bit-identical.
    Maintenance {
        /// Pass time (expiry cut for pacing flights).
        now: Timestamp,
        /// Users whose last activity is at least this old are reset.
        idle_for: Duration,
    },
}

impl WalRecord {
    /// Encode the record payload (no WAL framing).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        match self {
            WalRecord::IngestBatch(deltas) => {
                buf.put_u8(T_INGEST);
                put_batch(&mut buf, deltas);
            }
            WalRecord::Submit(sub) => {
                buf.put_u8(T_SUBMIT);
                put_vector(&mut buf, &sub.vector);
                buf.put_f32_le(sub.bid);
                let (total, spent) = sub.budget.to_micros();
                buf.put_u64_le(total);
                buf.put_u64_le(spent);
                put_targeting(&mut buf, sub.targeting.locations(), sub.targeting.slots());
                put_opt(&mut buf, sub.topic_hint, |b, t| b.put_u64_le(t as u64));
            }
            WalRecord::Pause(ad) => {
                buf.put_u8(T_PAUSE);
                buf.put_u32_le(ad.0);
            }
            WalRecord::Resume(ad) => {
                buf.put_u8(T_RESUME);
                buf.put_u32_le(ad.0);
            }
            WalRecord::Remove(ad) => {
                buf.put_u8(T_REMOVE);
                buf.put_u32_le(ad.0);
            }
            WalRecord::SetPacing {
                ad,
                start,
                end,
                budget,
            } => {
                buf.put_u8(T_SET_PACING);
                buf.put_u32_le(ad.0);
                buf.put_u64_le(start.micros());
                buf.put_u64_le(end.micros());
                buf.put_f64_le(*budget);
            }
            WalRecord::Impression {
                ad,
                cost,
                clicked,
                now,
            } => {
                buf.put_u8(T_IMPRESSION);
                buf.put_u32_le(ad.0);
                buf.put_f64_le(*cost);
                buf.put_u8(u8::from(*clicked));
                buf.put_u64_le(now.micros());
            }
            WalRecord::Maintenance { now, idle_for } => {
                buf.put_u8(T_MAINTENANCE);
                buf.put_u64_le(now.micros());
                buf.put_u64_le(idle_for.micros());
            }
        }
        buf.freeze()
    }

    /// Decode one record payload, consuming `data` entirely.
    ///
    /// # Errors
    ///
    /// Typed [`TraceError`] on truncation, unknown tags, trailing bytes,
    /// or semantically invalid payloads (non-finite costs, empty pacing
    /// flights) — anything that could later panic an `assert!` in the
    /// store must be rejected here. Never panics.
    pub fn decode(data: Bytes) -> Result<WalRecord, TraceError> {
        let mut cur = Cursor::new(data);
        let record = match cur.u8()? {
            T_INGEST => WalRecord::IngestBatch(get_batch(&mut cur)?),
            T_SUBMIT => {
                let vector = get_vector(&mut cur)?;
                let bid = cur.f32()?;
                let total = cur.u64()?;
                let spent = cur.u64()?;
                if spent > total {
                    return Err(TraceError::Corrupt("budget spent above total"));
                }
                let (locations, slots) = get_targeting(&mut cur)?;
                let topic_hint = cur.opt("bad topic flag", Cursor::u64)?;
                WalRecord::Submit(AdSubmission {
                    vector,
                    bid,
                    targeting: Targeting::everywhere()
                        .in_locations(locations)
                        .in_slots(slots),
                    budget: Budget::from_micros(total, spent),
                    topic_hint: topic_hint.map(|t| t as usize),
                })
            }
            T_PAUSE => WalRecord::Pause(AdId(cur.u32()?)),
            T_RESUME => WalRecord::Resume(AdId(cur.u32()?)),
            T_REMOVE => WalRecord::Remove(AdId(cur.u32()?)),
            T_SET_PACING => {
                let ad = AdId(cur.u32()?);
                let start = Timestamp(cur.u64()?);
                let end = Timestamp(cur.u64()?);
                let budget = cur.f64()?;
                if end <= start {
                    return Err(TraceError::Corrupt("empty pacing flight"));
                }
                if !(budget.is_finite() && budget > 0.0) {
                    return Err(TraceError::Corrupt("invalid pacing budget"));
                }
                WalRecord::SetPacing {
                    ad,
                    start,
                    end,
                    budget,
                }
            }
            T_IMPRESSION => {
                let ad = AdId(cur.u32()?);
                let cost = cur.f64()?;
                if !(cost.is_finite() && cost >= 0.0) {
                    return Err(TraceError::Corrupt("invalid impression cost"));
                }
                WalRecord::Impression {
                    ad,
                    cost,
                    clicked: cur.flag("bad clicked flag")?,
                    now: Timestamp(cur.u64()?),
                }
            }
            T_MAINTENANCE => WalRecord::Maintenance {
                now: Timestamp(cur.u64()?),
                idle_for: Duration(cur.u64()?),
            },
            _ => return Err(TraceError::Corrupt("unknown wal record tag")),
        };
        cur.finish("trailing bytes in wal record")?;
        Ok(record)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use adcast_stream::event::{LocationId, Message, MessageId, TimeSlot};
    use adcast_text::dictionary::TermId;
    use adcast_text::SparseVector;
    use std::sync::Arc;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    fn msg(i: u64) -> Arc<Message> {
        Arc::new(Message {
            id: MessageId(i),
            author: UserId(3),
            ts: Timestamp::from_secs(i),
            location: LocationId(2),
            vector: v(&[(1, 0.5), (7, 0.25)]),
        })
    }

    pub(crate) fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::IngestBatch(vec![
                (
                    UserId(1),
                    FeedDelta {
                        entered: Some(msg(10)),
                        evicted: vec![msg(2), msg(3)],
                    },
                ),
                (
                    UserId(2),
                    FeedDelta {
                        entered: None,
                        evicted: vec![msg(1)],
                    },
                ),
            ]),
            WalRecord::IngestBatch(vec![]),
            WalRecord::Submit(AdSubmission {
                vector: v(&[(0, 1.0), (5, 0.5)]),
                bid: 2.5,
                targeting: Targeting::everywhere()
                    .in_locations([LocationId(1), LocationId(8)])
                    .in_slots([TimeSlot::Morning, TimeSlot::Night]),
                budget: Budget::new(99.5),
                topic_hint: Some(3),
            }),
            WalRecord::Submit(AdSubmission {
                vector: v(&[(2, 0.7)]),
                bid: 1.0,
                targeting: Targeting::everywhere(),
                budget: Budget::unlimited(),
                topic_hint: None,
            }),
            WalRecord::Pause(AdId(12)),
            WalRecord::Resume(AdId(12)),
            WalRecord::Remove(AdId(4)),
            WalRecord::SetPacing {
                ad: AdId(7),
                start: Timestamp::from_secs(0),
                end: Timestamp::from_secs(3600),
                budget: 50.0,
            },
            WalRecord::Impression {
                ad: AdId(9),
                cost: 0.25,
                clicked: true,
                now: Timestamp::from_secs(17),
            },
            WalRecord::Impression {
                ad: AdId(9),
                cost: 0.0,
                clicked: false,
                now: Timestamp::from_secs(18),
            },
            WalRecord::Maintenance {
                now: Timestamp::from_secs(7200),
                idle_for: adcast_stream::clock::Duration::from_secs(3600),
            },
        ]
    }

    /// FNV-1a, 64-bit.
    pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn encodings_match_recorded_bytes() {
        // Recorded digests of every sample's payload: the encoder's output
        // is pinned byte for byte.
        let got: Vec<u64> = sample_records()
            .iter()
            .map(|r| fnv1a(&r.encode()))
            .collect();
        assert_eq!(
            got,
            [
                0x354e_f55e_a402_7833,
                0xd80d_6cae_a7dc_7eec,
                0x02e3_1042_1dc6_ac01,
                0x8d87_4d53_27d0_57e7,
                0x712b_4367_ad00_2a7e,
                0x31c0_d393_3a73_168f,
                0x253c_9026_0b75_c7a4,
                0x7a0a_c880_fdb0_a6c6,
                0x9cdd_e933_804f_9083,
                0x4f4d_1426_7915_3564,
                0x1031_7b34_0754_09ef,
            ]
        );
    }

    #[test]
    fn records_roundtrip() {
        for (i, record) in sample_records().into_iter().enumerate() {
            let bytes = record.encode();
            let decoded = WalRecord::decode(bytes.clone()).unwrap();
            // No PartialEq on AdSubmission; byte-for-byte re-encode is the
            // equality that matters for replay.
            assert_eq!(decoded.encode(), bytes, "record {i}");
        }
    }

    #[test]
    fn truncated_records_never_panic() {
        // Every proper prefix fails typed; every one-byte flip (XOR 0xFF)
        // decodes to Ok or a typed error, never a panic.
        for (i, record) in sample_records().into_iter().enumerate() {
            let bytes = record.encode();
            for cut in 0..bytes.len() {
                assert!(
                    WalRecord::decode(bytes.slice(0..cut)).is_err(),
                    "record {i} cut at {cut}"
                );
                let mut flipped = bytes.to_vec();
                flipped[cut] ^= 0xFF;
                let _ = WalRecord::decode(Bytes::from(flipped));
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = WalRecord::Pause(AdId(1)).encode().to_vec();
        bytes.push(0);
        assert_eq!(
            WalRecord::decode(Bytes::from(bytes)).unwrap_err(),
            TraceError::Corrupt("trailing bytes in wal record")
        );
    }

    #[test]
    fn hostile_payloads_rejected() {
        // NaN impression cost would panic Budget::try_charge on apply.
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32_le(1);
        buf.put_f64_le(f64::NAN);
        buf.put_u8(0);
        buf.put_u64_le(0);
        assert!(WalRecord::decode(buf.freeze()).is_err());
        // Empty pacing flight would panic PacingController::new.
        let mut buf = BytesMut::new();
        buf.put_u8(6);
        buf.put_u32_le(1);
        buf.put_u64_le(5);
        buf.put_u64_le(5);
        buf.put_f64_le(1.0);
        assert!(WalRecord::decode(buf.freeze()).is_err());
        // Unknown tag.
        assert!(WalRecord::decode(Bytes::from_static(&[99])).is_err());
    }
}
