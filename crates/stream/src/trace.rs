//! Message-trace record and replay.
//!
//! Experiments are replayable two ways: regenerate from the seed, or write
//! the materialized stream to a compact binary trace and replay it later
//! (useful for cross-engine comparisons on *identical* inputs without
//! re-running the generator, and for persisting interesting workloads).
//!
//! The codec is hand-rolled on the `bytes` crate (no serde format crates
//! are available offline) and decodes through [`crate::cursor`], which
//! owns the layout primitives and the malformed-input policy of every
//! adcast binary format. Layout, all little-endian:
//!
//! ```text
//! header:  magic "ADCT" | version u16 | reserved u16
//! record:  id u64 | author u32 | ts u64 | location u16
//!        | nterms u16 | nterms × (term u32, weight f32)
//! ```

use std::sync::Arc;

use adcast_graph::UserId;
use adcast_text::dictionary::TermId;
use adcast_text::SparseVector;
use bytes::{BufMut, Bytes, BytesMut};

use crate::clock::Timestamp;
use crate::cursor::{put_len16, put_stream_header, Cursor, TraceError};
use crate::event::{LocationId, Message, MessageId, SharedMessage};

const MAGIC: &[u8; 4] = b"ADCT";
const VERSION: u16 = 1;

/// Write `v`'s `(term u32, weight f32)` pairs; the count before them is
/// the caller's, since its width differs between formats.
#[inline]
pub fn put_terms(buf: &mut BytesMut, v: &SparseVector) {
    for (t, w) in v.iter() {
        buf.put_u32_le(t.0);
        buf.put_f32_le(w);
    }
}

/// Read `n` pairs written by [`put_terms`] with one bounds check. Every
/// weight must pass `valid` (else `Corrupt(bad_weight)`) and terms must
/// strictly increase.
///
/// # Errors
///
/// Typed [`TraceError`] on truncation or invalid pairs; never panics.
pub fn get_terms(
    cur: &mut Cursor,
    n: usize,
    valid: impl Fn(f32) -> bool,
    bad_weight: &'static str,
) -> Result<SparseVector, TraceError> {
    let (words, _) = cur.take(n.saturating_mul(8))?.as_chunks::<4>();
    let mut entries = Vec::with_capacity(n);
    for pair in words.chunks_exact(2) {
        let w = f32::from_le_bytes(pair[1]);
        if !valid(w) {
            return Err(TraceError::Corrupt(bad_weight));
        }
        entries.push((TermId(u32::from_le_bytes(pair[0])), w));
    }
    if entries.windows(2).any(|p| p[0].0 >= p[1].0) {
        return Err(TraceError::Corrupt("terms not strictly sorted"));
    }
    Ok(SparseVector::from_sorted(entries))
}

/// Finite and non-zero: the weight rule for message and ad vectors.
pub fn nonzero_finite(w: f32) -> bool {
    w.is_finite() && w != 0.0
}

/// Encode one message record (the layout in the module docs).
///
/// # Panics
///
/// Panics when the vector holds more than `u16::MAX` terms.
pub fn put_message(buf: &mut BytesMut, m: &Message) {
    buf.put_u64_le(m.id.0);
    buf.put_u32_le(m.author.0);
    buf.put_u64_le(m.ts.micros());
    buf.put_u16_le(m.location.0);
    put_len16(buf, m.vector.len());
    put_terms(buf, &m.vector);
}

/// Decode one message record written by [`put_message`].
///
/// # Errors
///
/// [`TraceError::Truncated`] when the buffer ends mid-record,
/// [`TraceError::Corrupt`] on invalid payloads (zero/non-finite weights,
/// unsorted terms). Never panics, whatever the peer sent.
pub fn get_message(cur: &mut Cursor) -> Result<SharedMessage, TraceError> {
    let id = MessageId(cur.u64()?);
    let author = UserId(cur.u32()?);
    let ts = Timestamp(cur.u64()?);
    let location = LocationId(cur.u16()?);
    let n = cur.len16()?;
    let vector = get_terms(cur, n, nonzero_finite, "zero or non-finite weight")?;
    Ok(Arc::new(Message {
        id,
        author,
        ts,
        location,
        vector,
    }))
}

/// Serializes messages into an in-memory trace buffer.
#[derive(Debug)]
pub struct TraceWriter {
    buf: BytesMut,
    count: u64,
}

impl Default for TraceWriter {
    fn default() -> Self {
        TraceWriter::new()
    }
}

impl TraceWriter {
    /// Start a new trace (writes the header).
    pub fn new() -> Self {
        let mut buf = BytesMut::with_capacity(4096);
        put_stream_header(&mut buf, MAGIC, VERSION);
        TraceWriter { buf, count: 0 }
    }

    /// Append one message.
    pub fn write(&mut self, m: &Message) {
        put_message(&mut self.buf, m);
        self.count += 1;
    }

    /// Messages written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Bytes written so far (header included).
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Finish, returning the immutable trace bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Streaming decoder over trace bytes.
#[derive(Debug)]
pub struct TraceReader {
    cur: Cursor,
}

impl TraceReader {
    /// Validate the header and position after it.
    pub fn new(data: Bytes) -> Result<Self, TraceError> {
        let mut cur = Cursor::new(data);
        cur.check_header(MAGIC, VERSION)?;
        Ok(TraceReader { cur })
    }

    /// Decode the next message, `Ok(None)` at a clean end of trace.
    pub fn next_message(&mut self) -> Result<Option<SharedMessage>, TraceError> {
        if self.cur.is_empty() {
            return Ok(None);
        }
        get_message(&mut self.cur).map(Some)
    }

    /// Decode the whole remaining trace.
    pub fn read_all(&mut self) -> Result<Vec<SharedMessage>, TraceError> {
        let mut out = Vec::new();
        while let Some(m) = self.next_message()? {
            out.push(m);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadConfig, WorkloadGenerator};

    fn sample_messages(n: usize) -> Vec<SharedMessage> {
        let mut g = WorkloadGenerator::with_poisson(WorkloadConfig::tiny(), 50.0);
        (0..n).map(|_| g.next_message()).collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let msgs = sample_messages(25);
        let mut w = TraceWriter::new();
        for m in &msgs {
            w.write(m);
        }
        assert_eq!(w.count(), 25);
        let bytes = w.finish();
        let mut r = TraceReader::new(bytes).unwrap();
        let decoded = r.read_all().unwrap();
        assert_eq!(decoded.len(), msgs.len());
        for (a, b) in msgs.iter().zip(&decoded) {
            assert_eq!(**a, **b);
        }
    }

    #[test]
    fn empty_trace_roundtrip() {
        let bytes = TraceWriter::new().finish();
        let mut r = TraceReader::new(bytes).unwrap();
        assert_eq!(r.read_all().unwrap().len(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = TraceReader::new(Bytes::from_static(b"NOPE0000")).unwrap_err();
        assert_eq!(err, TraceError::BadMagic);
        let err = TraceReader::new(Bytes::from_static(b"AD")).unwrap_err();
        assert_eq!(err, TraceError::BadMagic);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(99);
        buf.put_u16_le(0);
        let err = TraceReader::new(buf.freeze()).unwrap_err();
        assert_eq!(err, TraceError::BadVersion(99));
    }

    #[test]
    fn truncated_record_detected() {
        let msgs = sample_messages(2);
        let mut w = TraceWriter::new();
        for m in &msgs {
            w.write(m);
        }
        let bytes = w.finish();
        let cut = bytes.slice(0..bytes.len() - 3);
        let mut r = TraceReader::new(cut).unwrap();
        let res = r.read_all();
        assert_eq!(res.unwrap_err(), TraceError::Truncated);
    }

    #[test]
    fn corrupt_weight_detected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(0);
        buf.put_u64_le(0); // id
        buf.put_u32_le(0); // author
        buf.put_u64_le(0); // ts
        buf.put_u16_le(0); // location
        buf.put_u16_le(1); // one term
        buf.put_u32_le(7);
        buf.put_f32_le(f32::NAN);
        let mut r = TraceReader::new(buf.freeze()).unwrap();
        assert!(matches!(r.next_message(), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn unsorted_terms_detected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(0);
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        buf.put_u64_le(0);
        buf.put_u16_le(0);
        buf.put_u16_le(2);
        buf.put_u32_le(9);
        buf.put_f32_le(1.0);
        buf.put_u32_le(3);
        buf.put_f32_le(1.0);
        let mut r = TraceReader::new(buf.freeze()).unwrap();
        assert!(matches!(r.next_message(), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn shared_header_helpers_roundtrip_and_reject() {
        let mut buf = BytesMut::new();
        put_stream_header(&mut buf, b"WXYZ", 3);
        let bytes = buf.freeze();
        let mut ok = Cursor::new(bytes.clone());
        assert_eq!(ok.check_header(b"WXYZ", 3), Ok(()));
        assert!(ok.is_empty(), "header fully consumed");
        assert_eq!(
            Cursor::new(bytes.clone()).check_header(b"ABCD", 3),
            Err(TraceError::BadMagic)
        );
        assert_eq!(
            Cursor::new(bytes.clone()).check_header(b"WXYZ", 4),
            Err(TraceError::BadVersion(3))
        );
        // Shorter than a header (the empty buffer included): BadMagic,
        // never a panic.
        for cut in 0..8usize {
            assert_eq!(
                Cursor::new(bytes.slice(0..cut)).check_header(b"WXYZ", 3),
                Err(TraceError::BadMagic),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn shared_message_record_truncations_never_panic() {
        let msg = &sample_messages(1)[0];
        let mut buf = BytesMut::new();
        put_message(&mut buf, msg);
        let bytes = buf.freeze();
        let mut whole = Cursor::new(bytes.clone());
        assert_eq!(&*get_message(&mut whole).unwrap(), &**msg);
        // Every proper prefix must decode to Truncated, not panic.
        for cut in 0..bytes.len() {
            let mut prefix = Cursor::new(bytes.slice(0..cut));
            assert_eq!(
                get_message(&mut prefix),
                Err(TraceError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn error_display() {
        assert!(TraceError::BadMagic.to_string().contains("magic"));
        assert!(TraceError::BadVersion(9).to_string().contains('9'));
        assert!(TraceError::Truncated.to_string().contains("truncated"));
    }
}
