//! The checked byte cursor every adcast binary format decodes through.
//!
//! Four formats share one set of layout primitives and one malformed-input
//! policy, and this module owns both: message traces (`ADCT`,
//! [`crate::trace`]), wire frames (`ADCN`, `adcast_net::codec`), WAL
//! segments and records (`ADWL`) and snapshots (`ADSS`, both in
//! `adcast-durability`). All little-endian, all led by the same 8-byte
//! header ([`put_stream_header`] / [`Cursor::check_header`]).
//!
//! The policy, enforced here once instead of at every decode site:
//!
//! * every read is bounds-checked — a short buffer is
//!   [`TraceError::Truncated`], never a panic, whatever a peer sent;
//! * a flag or option tag byte is exactly 0 or 1, anything else is
//!   [`TraceError::Corrupt`];
//! * an element count larger than the bytes left is `Truncated` (every
//!   element takes at least one byte), and [`Cursor::many`] reserves at
//!   most `MAX_PREALLOC` elements up front, so a hostile count cannot
//!   make a decoder allocate;
//! * a decoder that must consume its whole input ends with
//!   [`Cursor::finish`], which makes leftover bytes `Corrupt`.
//!
//! A cursor reads either one buffer already in memory ([`Cursor::new`])
//! or a reader it pulls through one reused buffer ([`Cursor::stream`],
//! how a snapshot file loads). The field reads see only the bytes in
//! memory and stay as cheap as over a plain buffer; a streamed decoder
//! reads each top-level element through [`Cursor::whole`], which pulls
//! more input and reads the element again when it ran past the buffer.
//! A pull can fold each chunk into a running digest as it lands
//! ([`Cursor::digest_rest`]), so a checksum costs no second pass over
//! memory.
//!
//! Encoding writes straight into a `BytesMut`; [`put_len8`],
//! [`put_len16`] and [`put_len32`] are the one place where a count can
//! overflow its prefix.

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

use std::io::Read;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Most elements [`Cursor::many`] reserves before it has read them.
const MAX_PREALLOC: usize = 1 << 16;

/// Bytes a streaming cursor pulls from its reader at a time. Small
/// enough to stay in a core's L2 cache, so the digest and the decode
/// that follow a pull both read it from cache; large enough that the
/// read calls cost little.
pub const STREAM_CHUNK: usize = 256 << 10;

/// Decode failure, shared by every format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The input does not start with the expected magic (or is shorter
    /// than a header).
    BadMagic,
    /// The input was written by an incompatible version.
    BadVersion(u16),
    /// The input ends mid-record.
    Truncated,
    /// A record contains an invalid payload (e.g. non-finite weight).
    Corrupt(&'static str),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not an adcast trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated => write!(f, "trace truncated mid-record"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Write a `magic | version u16 | reserved u16` header.
pub fn put_stream_header(buf: &mut BytesMut, magic: &[u8; 4], version: u16) {
    buf.put_slice(magic);
    buf.put_u16_le(version);
    buf.put_u16_le(0);
}

/// Write a `u8` element count.
///
/// # Panics
///
/// Panics when `n` exceeds `u8::MAX` (see [`put_len32`]).
#[inline]
pub fn put_len8(buf: &mut BytesMut, n: usize) {
    put_len(buf, n, 1);
}

/// Write a `u16` element count.
///
/// # Panics
///
/// Panics when `n` exceeds `u16::MAX` (see [`put_len32`]).
#[inline]
pub fn put_len16(buf: &mut BytesMut, n: usize) {
    put_len(buf, n, 2);
}

/// Write a `u32` element or byte count.
///
/// # Panics
///
/// Panics when `n` exceeds `u32::MAX`. Every count adcast encodes is
/// bounded far below its prefix by its own type or by a format limit
/// (`MAX_FRAME`, `MAX_RECORD`, `MAX_SNAPSHOT`), so this is an encoder bug.
#[inline]
pub fn put_len32(buf: &mut BytesMut, n: usize) {
    put_len(buf, n, 4);
}

#[inline]
fn put_len(buf: &mut BytesMut, n: usize, width: usize) {
    let fits = u32::try_from(n)
        .ok()
        .filter(|&v| width == 4 || v < 1 << (8 * width));
    #[expect(
        clippy::expect_used,
        reason = "each count is bounded by its type (u16 location ids, three time slots, u16 k) \
                  or by a format limit far below u32::MAX; overflowing one is an encoder bug, \
                  not input"
    )]
    let v = fits.expect("count overflows its length prefix");
    buf.put_slice(&v.to_le_bytes()[..width]);
}

/// Write an option as a 0/1 tag, then the value when present.
pub fn put_opt<T>(buf: &mut BytesMut, value: Option<T>, put: impl FnOnce(&mut BytesMut, T)) {
    match value {
        Some(v) => {
            buf.put_u8(1);
            put(buf, v);
        }
        None => buf.put_u8(0),
    }
}

/// A running digest over a cursor's input: the fold and its value.
#[derive(Clone, Copy)]
struct Digest {
    fold: fn(u32, &[u8]) -> u32,
    value: u32,
}

/// A bounds-checked read position over one encoded input.
pub struct Cursor {
    /// The input in memory: all of it, or a stream's current window.
    data: Bytes,
    /// Bytes of `data` already read; never past `data.len()`.
    pos: usize,
    /// Input bytes not yet pulled into `data` (0 without a reader).
    pending: usize,
    /// Where a stream's `pending` bytes come from.
    reader: Option<Box<dyn Read + Send>>,
    /// Folded over the input from [`Cursor::digest_rest`] on.
    digest: Option<Digest>,
}

impl std::fmt::Debug for Cursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cursor")
            .field("pos", &self.pos)
            .field("buffered", &self.data.len())
            .field("pending", &self.pending)
            .finish_non_exhaustive()
    }
}

impl Cursor {
    /// Start reading at the front of `data`.
    pub fn new(data: Bytes) -> Cursor {
        Cursor {
            data,
            pos: 0,
            pending: 0,
            reader: None,
            digest: None,
        }
    }

    /// Read `len` bytes from `reader` as [`Cursor::whole`] asks for
    /// them, through one reused buffer: the unread tail of the last pull
    /// plus [`STREAM_CHUNK`] bytes. An element longer than that grows the
    /// buffer to hold it, never past the `len` bytes the input has. A
    /// reader that fails or ends before `len` bytes ends the input there.
    pub fn stream(reader: Box<dyn Read + Send>, len: u64) -> Cursor {
        Cursor {
            data: Bytes::new(),
            pos: 0,
            pending: usize::try_from(len).unwrap_or(usize::MAX),
            reader: Some(reader),
            digest: None,
        }
    }

    /// Bytes left to read.
    #[inline]
    pub fn len(&self) -> usize {
        (self.data.len() - self.pos).saturating_add(self.pending)
    }

    /// Nothing left to read?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unread bytes in memory (zero-copy).
    #[inline]
    pub fn into_rest(self) -> Bytes {
        self.data.slice(self.pos..)
    }

    /// Read one element with `read`. Over a stream, an element that runs
    /// past the bytes in memory (`Truncated` while input is pending) is
    /// read again from its start after a pull of [`STREAM_CHUNK`] more
    /// bytes, twice that on the next retry, and so on to the end of the
    /// input. `read` must only read from the cursor. Over an in-memory
    /// buffer this is `read(self)`.
    ///
    /// # Errors
    ///
    /// Whatever `read` returns once it has all the input it can get.
    pub fn whole<T>(
        &mut self,
        mut read: impl FnMut(&mut Cursor) -> Result<T, TraceError>,
    ) -> Result<T, TraceError> {
        let mut start = self.pos;
        let mut pull = STREAM_CHUNK;
        loop {
            match read(self) {
                Err(TraceError::Truncated) if self.pending > 0 => {
                    self.pos = start;
                    self.pull(pull.min(self.pending))?;
                    // The pull moved the element's start to the front.
                    start = self.pos;
                    pull = pull.saturating_mul(2);
                }
                done => return done,
            }
        }
    }

    /// Start a running digest at the current position: from here to the
    /// end of the input, `fold(value, bytes)` sees every byte once and in
    /// order, starting from `value = 0` — the bytes already in memory
    /// now, the rest as each pull lands, while they are still in cache.
    pub fn digest_rest(&mut self, fold: fn(u32, &[u8]) -> u32) {
        let buffered = self.data.get(self.pos..).unwrap_or_default();
        self.digest = Some(Digest {
            fold,
            value: fold(0, buffered),
        });
    }

    /// The digest from [`Cursor::digest_rest`]'s position to the last
    /// byte in memory: to the end of the input once [`Cursor::finish`]
    /// has passed. 0 when no digest was started.
    pub fn digest(&self) -> u32 {
        self.digest.map_or(0, |d| d.value)
    }

    /// Append `n` more input bytes (at most `pending`) to the unread
    /// tail, which moves to the front of the buffer first. A reader that
    /// fails keeps the tail and ends the input.
    fn pull(&mut self, n: usize) -> Result<(), TraceError> {
        let have = self.data.len() - self.pos;
        let Some(reader) = self.reader.as_mut() else {
            return Err(TraceError::Truncated);
        };
        let mut window = std::mem::take(&mut self.data);
        window.advance(self.pos);
        self.pos = 0;
        // The window's handle is the only one unless a split-off payload
        // still shares it; then the tail is copied to a new buffer.
        let mut buf = window.try_into_mut().unwrap_or_else(|shared| {
            let mut fresh = BytesMut::with_capacity(have + n);
            fresh.put_slice(&shared);
            fresh
        });
        buf.resize(have + n, 0);
        let fresh = &mut buf[have..];
        if reader.read_exact(fresh).is_err() {
            buf.resize(have, 0);
            self.data = buf.freeze();
            self.pending = 0;
            return Err(TraceError::Truncated);
        }
        if let Some(d) = &mut self.digest {
            d.value = (d.fold)(d.value, fresh);
        }
        self.pending -= n;
        self.data = buf.freeze();
        Ok(())
    }

    /// Validate and consume a header written by [`put_stream_header`].
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] when fewer than 8 bytes remain or the
    /// magic differs; [`TraceError::BadVersion`] on a version mismatch.
    pub fn check_header(&mut self, magic: &[u8; 4], version: u16) -> Result<(), TraceError> {
        if self.len() < 8 || self.array::<4>()? != *magic {
            return Err(TraceError::BadMagic);
        }
        let found = self.u16()?;
        if found != version {
            return Err(TraceError::BadVersion(found));
        }
        self.u16()?;
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], TraceError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Read one byte. Every read below fails with
    /// [`TraceError::Truncated`], consuming nothing, on a short buffer.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, TraceError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Read a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, TraceError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, TraceError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, TraceError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read an `f32` (bit-exact).
    #[inline]
    pub fn f32(&mut self) -> Result<f32, TraceError> {
        self.u32().map(f32::from_bits)
    }

    /// Read an `f64` (bit-exact).
    #[inline]
    pub fn f64(&mut self) -> Result<f64, TraceError> {
        self.u64().map(f64::from_bits)
    }

    /// Read a strict 0/1 flag byte.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`]; `Corrupt(what)` for any other byte.
    #[inline]
    pub fn flag(&mut self, what: &'static str) -> Result<bool, TraceError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(TraceError::Corrupt(what)),
        }
    }

    /// Read an option written by [`put_opt`]: a strict 0/1 tag, then the
    /// value via `read` when the tag is 1.
    ///
    /// # Errors
    ///
    /// As [`Cursor::flag`], plus whatever `read` returns.
    pub fn opt<T>(
        &mut self,
        what: &'static str,
        read: impl FnOnce(&mut Cursor) -> Result<T, TraceError>,
    ) -> Result<Option<T>, TraceError> {
        if self.flag(what)? {
            read(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Read a `u8` element count (see [`Cursor::len32`]).
    #[inline]
    pub fn len8(&mut self) -> Result<usize, TraceError> {
        let n = self.u8()?;
        self.count(usize::from(n))
    }

    /// Read a `u16` element count (see [`Cursor::len32`]).
    #[inline]
    pub fn len16(&mut self) -> Result<usize, TraceError> {
        let n = self.u16()?;
        self.count(usize::from(n))
    }

    /// Read a `u32` element or byte count. Every element takes at least
    /// one byte, so a count larger than the bytes left is refused here,
    /// before anything is reserved for it.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] on a short buffer or an impossible count.
    #[inline]
    pub fn len32(&mut self) -> Result<usize, TraceError> {
        let n = self.u32()?;
        self.count(usize::try_from(n).unwrap_or(usize::MAX))
    }

    #[inline]
    fn count(&self, n: usize) -> Result<usize, TraceError> {
        if n > self.len() {
            return Err(TraceError::Truncated);
        }
        Ok(n)
    }

    /// Read `n` elements with `read`, reserving at most `MAX_PREALLOC`
    /// up front.
    ///
    /// # Errors
    ///
    /// The first error `read` returns.
    pub fn many<T>(
        &mut self,
        n: usize,
        mut read: impl FnMut(&mut Cursor) -> Result<T, TraceError>,
    ) -> Result<Vec<T>, TraceError> {
        let mut out = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Borrow the next `n` bytes with one bounds check. Fixed-width
    /// element lists take their whole extent at once and then parse it
    /// unchecked, paying one check per list, not per element.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] when fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&[u8], TraceError> {
        let start = self.pos;
        let Some(out) = self.data.get(start..start.saturating_add(n)) else {
            return Err(TraceError::Truncated);
        };
        self.pos = start + n;
        Ok(out)
    }

    /// Split off the next `n` bytes as an owned, zero-copy [`Bytes`] (for
    /// payloads kept past the decode, such as a WAL record or a snapshot
    /// image).
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] when fewer than `n` bytes remain.
    #[inline]
    pub fn split_to(&mut self, n: usize) -> Result<Bytes, TraceError> {
        if n > self.data.len() - self.pos {
            return Err(TraceError::Truncated);
        }
        self.pos += n;
        Ok(self.data.slice(self.pos - n..self.pos))
    }

    /// Assert the input is fully consumed.
    ///
    /// # Errors
    ///
    /// `Corrupt(what)` when bytes remain.
    #[inline]
    pub fn finish(&self, what: &'static str) -> Result<(), TraceError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(TraceError::Corrupt(what))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cursor(bytes: &[u8]) -> Cursor {
        Cursor::new(Bytes::from(bytes.to_vec()))
    }

    #[test]
    fn reads_are_little_endian_and_checked() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u16_le(0xABCD);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(0x0123_4567_89AB_CDEF);
        buf.put_f32_le(-1.5);
        buf.put_f64_le(2.25);
        let mut c = Cursor::new(buf.freeze());
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.u16(), Ok(0xABCD));
        assert_eq!(c.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(c.u64(), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(c.f32(), Ok(-1.5));
        assert_eq!(c.f64(), Ok(2.25));
        assert_eq!(c.finish("x"), Ok(()));
        assert_eq!(c.u8(), Err(TraceError::Truncated));
        // A short read consumes nothing.
        let mut c = cursor(&[1, 2, 3]);
        assert_eq!(c.u32(), Err(TraceError::Truncated));
        assert_eq!(c.u16(), Ok(0x0201));
    }

    #[test]
    fn flags_and_options_are_strict() {
        let mut c = cursor(&[0, 1, 2]);
        assert_eq!(c.flag("f"), Ok(false));
        assert_eq!(c.flag("f"), Ok(true));
        assert_eq!(c.flag("f"), Err(TraceError::Corrupt("f")));
        let mut buf = BytesMut::new();
        put_opt(&mut buf, Some(9u32), BytesMut::put_u32_le);
        put_opt(&mut buf, None::<u32>, BytesMut::put_u32_le);
        buf.put_u8(2);
        let mut c = Cursor::new(buf.freeze());
        assert_eq!(c.opt("o", Cursor::u32), Ok(Some(9)));
        assert_eq!(c.opt("o", Cursor::u32), Ok(None));
        assert_eq!(c.opt("o", Cursor::u32), Err(TraceError::Corrupt("o")));
    }

    #[test]
    fn lengths_roundtrip_and_refuse_impossible_counts() {
        let mut buf = BytesMut::new();
        put_len8(&mut buf, 3);
        put_len16(&mut buf, 2);
        put_len32(&mut buf, 1);
        assert_eq!(&buf[..], &[3, 2, 0, 1, 0, 0, 0]);
        let mut c = Cursor::new(buf.freeze());
        // Each count is checked against the bytes after it.
        assert_eq!(c.len8(), Ok(3));
        assert_eq!(c.len16(), Ok(2));
        assert_eq!(c.len32(), Err(TraceError::Truncated));
        let mut c = cursor(&[0xFF, 0xFF, 0xFF, 0xFF, 1]);
        assert_eq!(c.len32(), Err(TraceError::Truncated));
    }

    /// A sequential fold, so folding chunks in order equals folding the
    /// whole input at once.
    fn fold(acc: u32, bytes: &[u8]) -> u32 {
        bytes
            .iter()
            .fold(acc, |a, &b| a.rotate_left(5) ^ u32::from(b))
    }

    fn input(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + i / 251) as u8).collect()
    }

    fn streamed(data: &[u8], len: usize) -> Cursor {
        Cursor::stream(Box::new(std::io::Cursor::new(data.to_vec())), len as u64)
    }

    /// Read an element of `n` bytes (a `u8`, then `n - 1` bytes) whole,
    /// as a streamed decoder reads its records.
    fn element(c: &mut Cursor, n: usize) -> Result<Vec<u8>, TraceError> {
        c.whole(|c| {
            let first = c.u8()?;
            let mut out = c.take(n - 1)?.to_vec();
            out.insert(0, first);
            Ok(out)
        })
    }

    #[test]
    fn a_stream_reads_and_digests_as_one_buffer_would() {
        let data = input(3 * STREAM_CHUNK + STREAM_CHUNK / 2 + 7);
        let mut mem = Cursor::new(Bytes::from(data.clone()));
        let mut st = streamed(&data, data.len());
        assert_eq!(st.len(), data.len());
        assert_eq!(mem.whole(Cursor::u32), st.whole(Cursor::u32));
        st.digest_rest(fold);
        // Elements of every small size cross each pull at a different
        // offset; an element longer than two chunks grows the buffer.
        let mut n = 0;
        while mem.len() > 2 * STREAM_CHUNK + 64 {
            n = n % 37 + 1;
            assert_eq!(element(&mut mem, n), element(&mut st, n));
        }
        let long = 2 * STREAM_CHUNK + 5;
        assert_eq!(element(&mut mem, long), element(&mut st, long));
        assert_eq!(mem.len(), st.len());
        while !mem.is_empty() {
            assert_eq!(mem.whole(Cursor::u8), st.whole(Cursor::u8));
        }
        assert_eq!(st.whole(Cursor::u8), Err(TraceError::Truncated));
        assert_eq!(st.finish("left"), Ok(()));
        assert_eq!(st.digest(), fold(0, &data[4..]));
    }

    #[test]
    fn a_stream_that_ends_early_ends_its_input_there() {
        let data = input(STREAM_CHUNK + 10);
        let mut st = streamed(&data[..STREAM_CHUNK + 2], data.len());
        assert!(element(&mut st, STREAM_CHUNK - 1).is_ok());
        assert_eq!(element(&mut st, 4), Err(TraceError::Truncated));
        // The pull failed, so the input ends at the byte already in
        // memory: it still reads, nothing after it does.
        assert_eq!(st.len(), 1);
        assert_eq!(st.whole(Cursor::u8), Ok(data[STREAM_CHUNK - 1]));
        assert_eq!(st.whole(Cursor::u8), Err(TraceError::Truncated));
        // Field reads see only the bytes in memory.
        let mut st = streamed(&data, data.len());
        assert_eq!(st.u8(), Err(TraceError::Truncated));
        assert_eq!(st.split_to(1), Err(TraceError::Truncated));
        assert_eq!(st.len(), data.len());
    }

    #[test]
    #[should_panic(expected = "overflows its length prefix")]
    fn oversized_count_is_an_encoder_bug() {
        put_len8(&mut BytesMut::new(), 256);
    }

    #[test]
    fn take_many_and_finish() {
        let mut c = cursor(&[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(c.take(2), Ok(&[1u8, 2][..]));
        assert_eq!(c.take(6), Err(TraceError::Truncated));
        assert_eq!(c.split_to(6), Err(TraceError::Truncated));
        assert_eq!(&c.split_to(1).unwrap()[..], &[3]);
        assert_eq!(c.many(2, Cursor::u8), Ok(vec![4, 5]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.finish("left"), Err(TraceError::Corrupt("left")));
        assert_eq!(&c.into_rest()[..], &[6, 7]);
    }
}
