//! Shared record-payload shapes.
//!
//! These encode the payloads that both durable storage (WAL + snapshots)
//! and the `adcast-net` wire codec carry: sparse vectors, feed deltas and
//! delta batches, targeting. One helper per shape keeps the surfaces from
//! drifting apart. Reads go through [`adcast_stream::cursor`], which owns
//! the layout primitives and the malformed-input policy: decoding never
//! panics, whatever bytes arrive — every malformation is a typed
//! [`TraceError`].

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

use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_stream::cursor::{put_len16, put_len32, put_len8, put_opt, Cursor, TraceError};
use adcast_stream::event::{LocationId, TimeSlot};
use adcast_stream::trace::{get_message, get_terms, nonzero_finite, put_message, put_terms};
use adcast_text::SparseVector;
use bytes::{BufMut, BytesMut};

/// Encode an ad/query vector: `nterms u16 | nterms × (term u32, w f32)`.
///
/// # Panics
///
/// Panics when the vector holds more than `u16::MAX` terms.
pub fn put_vector(buf: &mut BytesMut, v: &SparseVector) {
    put_len16(buf, v.len());
    put_terms(buf, v);
}

/// Decode a vector with the same validation the trace codec applies to
/// message vectors: finite non-zero weights, strictly sorted terms.
///
/// # Errors
///
/// Typed [`TraceError`] on truncation or invalid payloads; never panics.
pub fn get_vector(cur: &mut Cursor) -> Result<SparseVector, TraceError> {
    let n = cur.len16()?;
    get_terms(cur, n, nonzero_finite, "zero or non-finite weight")
}

/// Encode a decayed-accumulator vector: `nterms u32 | pairs`.
///
/// Unlike [`put_vector`] this accepts any finite weight — forward-decay
/// accumulators legitimately hold tiny negative residuals after
/// evictions — and a u32 count, since user contexts are unbounded by the
/// u16 message-vector limit. Weights are carried as raw f32 bits, so a
/// snapshot restore is bit-exact.
pub fn put_context_vector(buf: &mut BytesMut, v: &SparseVector) {
    put_len32(buf, v.len());
    put_terms(buf, v);
}

/// Decode a vector written by [`put_context_vector`].
///
/// # Errors
///
/// Typed [`TraceError`] on truncation, non-finite weights, or unsorted
/// terms; never panics.
pub fn get_context_vector(cur: &mut Cursor) -> Result<SparseVector, TraceError> {
    let n = cur.len32()?;
    get_terms(cur, n, f32::is_finite, "non-finite context weight")
}

/// Encode one `(user, delta)` pair:
/// `user u32 | entered u8 | [message] | nevicted u16 | messages`.
///
/// # Panics
///
/// Panics when a delta evicts more than `u16::MAX` messages.
pub fn put_delta(buf: &mut BytesMut, user: UserId, delta: &FeedDelta) {
    buf.put_u32_le(user.0);
    put_opt(buf, delta.entered.as_deref(), put_message);
    put_len16(buf, delta.evicted.len());
    for m in &delta.evicted {
        put_message(buf, m);
    }
}

/// Decode a pair written by [`put_delta`].
///
/// # Errors
///
/// Typed [`TraceError`] on any malformation; never panics.
pub fn get_delta(cur: &mut Cursor) -> Result<(UserId, FeedDelta), TraceError> {
    let user = UserId(cur.u32()?);
    let entered = cur.opt("bad entered flag", get_message)?;
    let n = cur.len16()?;
    let evicted = cur.many(n, get_message)?;
    Ok((user, FeedDelta { entered, evicted }))
}

/// Encode a delta batch: `count u32 | count × delta` (the wire `Ingest`
/// body and the WAL `IngestBatch` record).
pub fn put_batch(buf: &mut BytesMut, deltas: &[(UserId, FeedDelta)]) {
    put_len32(buf, deltas.len());
    for (user, delta) in deltas {
        put_delta(buf, *user, delta);
    }
}

/// Decode a batch written by [`put_batch`].
///
/// # Errors
///
/// Typed [`TraceError`] on any malformation; never panics.
pub fn get_batch(cur: &mut Cursor) -> Result<Vec<(UserId, FeedDelta)>, TraceError> {
    let n = cur.len32()?;
    cur.many(n, get_delta)
}

/// Encode a targeting block: `nloc u16 | nloc × location u16 | nslots u8
/// | nslots × slot u8` (wire `SubmitCampaign`, WAL `Submit`, snapshot
/// ads).
///
/// # Panics
///
/// Panics on more than `u16::MAX` locations or `u8::MAX` slots, which
/// the id types rule out.
pub fn put_targeting(buf: &mut BytesMut, locations: &[LocationId], slots: &[TimeSlot]) {
    put_len16(buf, locations.len());
    for loc in locations {
        buf.put_u16_le(loc.0);
    }
    put_len8(buf, slots.len());
    for slot in slots {
        buf.put_u8(match slot {
            TimeSlot::Morning => 0,
            TimeSlot::Afternoon => 1,
            TimeSlot::Night => 2,
        });
    }
}

/// Decode a block written by [`put_targeting`].
///
/// # Errors
///
/// Typed [`TraceError`] on truncation or an unknown slot; never panics.
pub fn get_targeting(cur: &mut Cursor) -> Result<(Vec<LocationId>, Vec<TimeSlot>), TraceError> {
    let n = cur.len16()?;
    let (raw, _) = cur.take(n.saturating_mul(2))?.as_chunks::<2>();
    let locations = raw
        .iter()
        .map(|&b| LocationId(u16::from_le_bytes(b)))
        .collect();
    let n = cur.len8()?;
    let slots = cur
        .take(n)?
        .iter()
        .map(|&b| match b {
            0 => Ok(TimeSlot::Morning),
            1 => Ok(TimeSlot::Afternoon),
            2 => Ok(TimeSlot::Night),
            _ => Err(TraceError::Corrupt("bad time slot")),
        })
        .collect::<Result<_, _>>()?;
    Ok((locations, slots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast_text::dictionary::TermId;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    #[test]
    fn context_vector_roundtrips_exact_bits() {
        // Negative and denormal residuals survive bit-exactly.
        let ctx = SparseVector::from_sorted(vec![
            (TermId(1), -1.5e-7),
            (TermId(4), 0.75),
            (TermId(9), f32::MIN_POSITIVE / 2.0),
        ]);
        let mut buf = BytesMut::new();
        put_context_vector(&mut buf, &ctx);
        let mut data = Cursor::new(buf.freeze());
        let back = get_context_vector(&mut data).unwrap();
        assert!(data.is_empty());
        let (a, b) = (ctx.to_pairs(), back.to_pairs());
        assert_eq!(a.len(), b.len());
        for ((ta, wa), (tb, wb)) in a.into_iter().zip(b) {
            assert_eq!(ta, tb);
            assert_eq!(wa.to_bits(), wb.to_bits());
        }
    }

    #[test]
    fn context_vector_truncations_never_panic() {
        let ctx = v(&[(0, 1.0), (3, 2.0), (5, -0.5)]);
        let mut buf = BytesMut::new();
        put_context_vector(&mut buf, &ctx);
        let bytes = buf.freeze();
        for cut in 0..bytes.len() {
            let mut prefix = Cursor::new(bytes.slice(0..cut));
            assert_eq!(
                get_context_vector(&mut prefix),
                Err(TraceError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn context_vector_rejects_nan_and_unsorted() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_u32_le(2);
        buf.put_f32_le(f32::NAN);
        assert!(matches!(
            get_context_vector(&mut Cursor::new(buf.freeze())),
            Err(TraceError::Corrupt(_))
        ));
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_u32_le(9);
        buf.put_f32_le(1.0);
        buf.put_u32_le(3);
        buf.put_f32_le(1.0);
        assert!(matches!(
            get_context_vector(&mut Cursor::new(buf.freeze())),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn ad_vector_keeps_trace_validation() {
        let mut buf = BytesMut::new();
        put_vector(&mut buf, &v(&[(1, 0.5), (7, 0.25)]));
        let back = get_vector(&mut Cursor::new(buf.clone().freeze())).unwrap();
        assert_eq!(back, v(&[(1, 0.5), (7, 0.25)]));

        let mut zero = BytesMut::new();
        zero.put_u16_le(1);
        zero.put_u32_le(1);
        zero.put_f32_le(0.0);
        assert!(matches!(
            get_vector(&mut Cursor::new(zero.freeze())),
            Err(TraceError::Corrupt(_))
        ));
    }
}
