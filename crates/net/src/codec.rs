//! Length-prefixed binary framing for the RPC types.
//!
//! Frame layout, all little-endian:
//!
//! ```text
//! len u32        — bytes after this prefix (0 and > MAX_FRAME rejected)
//! magic "ADCN" | version u16 | reserved u16
//! kind u8 | request_id u64 | body…
//! ```
//!
//! Bodies reuse the payload shapes of [`adcast_durability::codec`]
//! (vectors, delta batches, targeting) and decode through
//! [`adcast_stream::cursor`], the one module that owns the layout
//! primitives and the malformed-input policy of every adcast binary
//! format. Decoding never panics, whatever a peer sends: truncation, bad
//! magic/version, zero-length or oversized frames, invalid flag bytes,
//! trailing bytes and corrupt payloads all come back as typed errors.

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

use std::io::{self, Read, Write};

use adcast_ads::AdId;
use adcast_core::Recommendation;
use adcast_durability::codec::{
    get_batch, get_targeting, get_vector, put_batch, put_targeting, put_vector,
};
use adcast_graph::UserId;
use adcast_stream::clock::{Duration, Timestamp};
use adcast_stream::cursor::{put_len16, put_len32, put_opt, put_stream_header, Cursor, TraceError};
use adcast_stream::event::LocationId;
use bytes::{BufMut, Bytes, BytesMut};

use crate::protocol::{
    CampaignSpec, NodeRole, Request, Response, ServerStats, TraceContext, WireError,
};

/// Per-frame magic (the trace stream uses `ADCT`).
pub const MAGIC: &[u8; 4] = b"ADCN";
/// Wire protocol version. v2 added Impression/Checkpoint RPCs and the
/// durability counters in the Stats reply; v3 added the ObsDump RPC; v4
/// added the Maintain RPC (lifecycle maintenance passes); v5 added the
/// cluster surface — the `Routed` partition/epoch envelope, WAL
/// replication (`ReplAppend`/`InstallSnapshot`), `Promote`,
/// `ClusterStatus`, and the stale-epoch/wrong-partition/LSN-gap error
/// codes; v6 added the 16-byte distributed-tracing context
/// (`trace_id` + `parent_span_id`, all-zero when unsampled) after the
/// epoch in `Routed` and `ReplAppend`.
pub const VERSION: u16 = 6;
/// Upper bound on a frame body; larger declared lengths are rejected
/// before any allocation, so a malformed peer cannot OOM the server.
pub const MAX_FRAME: usize = 64 << 20;

/// Encode/transport failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// Transport failure.
    Io(io::Error),
    /// Malformed frame or payload (shared trace-codec error).
    Decode(TraceError),
    /// A frame declared an impossible length.
    BadFrame(&'static str),
    /// The connection closed mid-frame.
    UnexpectedEof,
    /// The server went away mid-RPC (broken pipe / connection reset):
    /// the request's fate is unknown. Reconnect and decide per-RPC
    /// whether to retry (idempotent reads yes; writes get at-least-once
    /// semantics).
    Disconnected,
    /// A response arrived for a different request id.
    IdMismatch {
        /// Id the client sent.
        expected: u64,
        /// Id the server echoed.
        got: u64,
    },
    /// The server answered with a typed wire error.
    Remote(WireError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Decode(e) => write!(f, "decode: {e}"),
            NetError::BadFrame(what) => write!(f, "bad frame: {what}"),
            NetError::UnexpectedEof => write!(f, "connection closed mid-frame"),
            NetError::Disconnected => write!(f, "server disconnected mid-rpc"),
            NetError::IdMismatch { expected, got } => {
                write!(f, "response id {got} does not match request id {expected}")
            }
            NetError::Remote(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<TraceError> for NetError {
    fn from(e: TraceError) -> Self {
        NetError::Decode(e)
    }
}

/// Declare one wire kind table: a `#[repr(u8)]` enum whose discriminants
/// are the wire bytes, its `ALL` list in declaration order, the
/// `TryFrom<u8>` that is the only way a byte off the wire becomes a kind
/// (an unknown byte comes back as `Err(byte)`), and the message type's
/// `kind()`. Each row names a message variant with its shape, so `kind()`
/// is a wildcard-free `match` and the decoders that `match` on the kind
/// are too: the compiler refuses a variant that misses either direction.
macro_rules! kind_table {
    (
        $(#[$meta:meta])*
        $name:ident for $msg:ident {
            $($variant:ident $(($($tuple:tt)*))? $({$($fields:tt)*})? = $code:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $name {
            $(
                #[doc = concat!("[`", stringify!($msg), "::", stringify!($variant), "`].")]
                $variant = $code,
            )+
        }

        impl $name {
            /// Every kind, in the message enum's declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),+];
        }

        impl TryFrom<u8> for $name {
            type Error = u8;

            fn try_from(byte: u8) -> Result<Self, u8> {
                match byte {
                    $($code => Ok($name::$variant),)+
                    unknown => Err(unknown),
                }
            }
        }

        impl $msg {
            /// This message's wire kind.
            pub fn kind(&self) -> $name {
                match self {
                    $($msg::$variant $(($($tuple)*))? $({$($fields)*})? => $name::$variant,)+
                }
            }
        }
    };
}

kind_table! {
    /// The kind byte of each [`Request`]; the flight recorder tags
    /// admissions and sheds with the same code.
    RequestKind for Request {
        Ingest { .. } = 1,
        Recommend { .. } = 2,
        SubmitCampaign(_) = 3,
        PauseCampaign { .. } = 4,
        Impression { .. } = 7,
        Maintain { .. } = 10,
        Checkpoint = 8,
        ObsDump = 9,
        Stats = 5,
        Shutdown = 6,
        Routed { .. } = 11,
        ReplAppend { .. } = 12,
        InstallSnapshot { .. } = 14,
        Promote { .. } = 13,
        ClusterStatus = 15,
    }
}

kind_table! {
    /// The kind byte of each [`Response`].
    ResponseKind for Response {
        Ingested { .. } = 0x81,
        Recommendations(_) = 0x82,
        CampaignAccepted { .. } = 0x83,
        CampaignPaused { .. } = 0x84,
        ImpressionRecorded { .. } = 0x87,
        Maintained { .. } = 0x8A,
        Checkpointed { .. } = 0x88,
        ObsDumped { .. } = 0x89,
        Stats(_) = 0x85,
        ShutdownAck = 0x86,
        ReplAck { .. } = 0x8B,
        SnapshotInstalled { .. } = 0x8D,
        Promoted { .. } = 0x8C,
        ClusterStatusReply { .. } = 0x8E,
        Error(_) = 0xFF,
    }
}

kind_table! {
    /// The code byte of each [`WireError`] inside a [`Response::Error`].
    WireErrorKind for WireError {
        Overloaded = 1,
        Unavailable = 2,
        ShuttingDown = 3,
        BadRequest(_) = 4,
        UnknownCampaign(_) = 5,
        StaleEpoch { .. } = 6,
        WrongPartition { .. } = 7,
        LsnGap { .. } = 8,
        NotPrimary = 9,
    }
}

/// The 16 trace-context bytes (wire v6): trace id, then parent span id.
fn put_trace(body: &mut BytesMut, trace: &TraceContext) {
    body.put_u64_le(trace.trace_id);
    body.put_u64_le(trace.parent_span_id);
}

fn get_trace(cur: &mut Cursor) -> Result<TraceContext, TraceError> {
    Ok(TraceContext {
        trace_id: cur.u64()?,
        parent_span_id: cur.u64()?,
    })
}

/// `kind u8 | id u64`, the head of every request and response body.
fn put_head(body: &mut BytesMut, kind: u8, id: u64) {
    body.put_u8(kind);
    body.put_u64_le(id);
}

/// Frame up one request: length prefix, header, kind, id, body.
pub fn encode_request(id: u64, req: &Request) -> Bytes {
    let mut body = BytesMut::with_capacity(64);
    put_stream_header(&mut body, MAGIC, VERSION);
    put_request(&mut body, id, req);
    prefix_len(body)
}

/// Write `kind | id | payload` for one request (recursing once for the
/// inner request of a [`Request::Routed`] envelope).
fn put_request(body: &mut BytesMut, id: u64, req: &Request) {
    put_head(body, req.kind() as u8, id);
    match req {
        Request::Ingest { deltas } => put_batch(body, deltas),
        Request::Recommend {
            user,
            now,
            location,
            k,
        } => {
            body.put_u32_le(user.0);
            body.put_u64_le(now.micros());
            body.put_u16_le(location.0);
            body.put_u16_le(*k);
        }
        Request::SubmitCampaign(spec) => {
            put_vector(body, &spec.vector);
            body.put_f32_le(spec.bid);
            put_targeting(body, &spec.locations, &spec.slots);
            put_opt(body, spec.budget, BytesMut::put_f64_le);
            put_opt(body, spec.topic_hint, BytesMut::put_u32_le);
        }
        Request::PauseCampaign { ad } => body.put_u32_le(ad.0),
        Request::Impression {
            ad,
            cost,
            clicked,
            now,
        } => {
            body.put_u32_le(ad.0);
            body.put_f64_le(*cost);
            body.put_u8(u8::from(*clicked));
            body.put_u64_le(now.micros());
        }
        Request::Maintain { now, idle_for } => {
            body.put_u64_le(now.micros());
            body.put_u64_le(idle_for.micros());
        }
        Request::Checkpoint
        | Request::ObsDump
        | Request::Stats
        | Request::Shutdown
        | Request::ClusterStatus => {}
        Request::Routed {
            partition,
            epoch,
            trace,
            inner,
        } => {
            body.put_u16_le(*partition);
            body.put_u64_le(*epoch);
            put_trace(body, trace);
            put_request(body, id, inner);
        }
        Request::ReplAppend {
            partition,
            epoch,
            trace,
            entries,
        } => {
            body.put_u16_le(*partition);
            body.put_u64_le(*epoch);
            put_trace(body, trace);
            put_len32(body, entries.len());
            for (lsn, record) in entries {
                body.put_u64_le(*lsn);
                put_len32(body, record.len());
                body.put_slice(record);
            }
        }
        Request::InstallSnapshot {
            partition,
            epoch,
            snapshot,
        } => {
            body.put_u16_le(*partition);
            body.put_u64_le(*epoch);
            put_len32(body, snapshot.len());
            body.put_slice(snapshot);
        }
        Request::Promote { partition, epoch } => {
            body.put_u16_le(*partition);
            body.put_u64_le(*epoch);
        }
    }
}

/// Frame up one response.
pub fn encode_response(id: u64, resp: &Response) -> Bytes {
    let mut body = BytesMut::with_capacity(64);
    put_stream_header(&mut body, MAGIC, VERSION);
    put_head(&mut body, resp.kind() as u8, id);
    match resp {
        Response::Ingested { accepted } => body.put_u32_le(*accepted),
        Response::Recommendations(recs) => {
            put_len16(&mut body, recs.len());
            for r in recs {
                body.put_u32_le(r.ad.0);
                body.put_f32_le(r.score);
                body.put_f32_le(r.relevance);
            }
        }
        Response::CampaignAccepted { ad } => body.put_u32_le(ad.0),
        Response::CampaignPaused { ad } => body.put_u32_le(ad.0),
        Response::ImpressionRecorded { ad, exhausted } => {
            body.put_u32_le(ad.0);
            body.put_u8(u8::from(*exhausted));
        }
        Response::Maintained {
            scanned,
            decayed,
            pruned,
        } => {
            body.put_u64_le(*scanned);
            body.put_u64_le(*decayed);
            body.put_u64_le(*pruned);
        }
        Response::Checkpointed { lsn } => body.put_u64_le(*lsn),
        Response::ObsDumped { events } => body.put_u64_le(*events),
        Response::Stats(s) => {
            for v in [
                s.deltas,
                s.recommends,
                s.active_campaigns,
                s.rpcs,
                s.shed,
                s.connections,
                s.queue_capacity,
                s.ingest_p50_ns,
                s.ingest_p99_ns,
                s.recommend_p50_ns,
                s.recommend_p99_ns,
                s.wal_records,
                s.wal_bytes,
                s.wal_fsyncs,
                s.snapshots_written,
                s.recovered_records,
                s.recovered_truncated_bytes,
            ] {
                body.put_u64_le(v);
            }
        }
        Response::ShutdownAck => {}
        Response::ReplAck { durable_lsn } => body.put_u64_le(*durable_lsn),
        Response::SnapshotInstalled { next_lsn } => body.put_u64_le(*next_lsn),
        Response::Promoted { epoch, next_lsn } => {
            body.put_u64_le(*epoch);
            body.put_u64_le(*next_lsn);
        }
        Response::ClusterStatusReply {
            role,
            partition,
            epoch,
            durable_lsn,
            fenced,
            degraded,
        } => {
            body.put_u8(match role {
                NodeRole::Standalone => 0,
                NodeRole::Primary => 1,
                NodeRole::Follower => 2,
            });
            body.put_u16_le(*partition);
            body.put_u64_le(*epoch);
            body.put_u64_le(*durable_lsn);
            body.put_u8(u8::from(*fenced) | (u8::from(*degraded) << 1));
        }
        Response::Error(e) => {
            body.put_u8(e.kind() as u8);
            match e {
                WireError::Overloaded
                | WireError::Unavailable
                | WireError::ShuttingDown
                | WireError::NotPrimary => {}
                WireError::BadRequest(why) => {
                    let bytes = why.as_bytes();
                    let n = bytes.len().min(u16::MAX as usize);
                    put_len16(&mut body, n);
                    body.put_slice(&bytes[..n]);
                }
                WireError::UnknownCampaign(ad) => body.put_u32_le(ad.0),
                WireError::StaleEpoch { current } => body.put_u64_le(*current),
                WireError::WrongPartition { expected } => body.put_u16_le(*expected),
                WireError::LsnGap { expected } => body.put_u64_le(*expected),
            }
        }
    }
    prefix_len(body)
}

fn prefix_len(body: BytesMut) -> Bytes {
    let mut framed = BytesMut::with_capacity(4 + body.len());
    put_len32(&mut framed, body.len());
    framed.put_slice(&body);
    framed.freeze()
}

/// Decode a request frame body (everything after the length prefix).
///
/// # Errors
///
/// Typed [`NetError`] on any malformation, trailing bytes included;
/// never panics.
pub fn decode_request(data: Bytes) -> Result<(u64, Request), NetError> {
    let mut cur = Cursor::new(data);
    cur.check_header(MAGIC, VERSION)?;
    let request = take_request(&mut cur, true)?;
    cur.finish("trailing bytes after request")?;
    Ok(request)
}

/// Read `kind | id | payload` for one request. `allow_routed` is false
/// for the inner request of a [`Request::Routed`] envelope, so nesting
/// depth is capped at one.
fn take_request(cur: &mut Cursor, allow_routed: bool) -> Result<(u64, Request), TraceError> {
    let kind = cur.u8()?;
    let id = cur.u64()?;
    let kind =
        RequestKind::try_from(kind).map_err(|_| TraceError::Corrupt("unknown request kind"))?;
    let req = match kind {
        RequestKind::Ingest => Request::Ingest {
            deltas: get_batch(cur)?,
        },
        RequestKind::Recommend => Request::Recommend {
            user: UserId(cur.u32()?),
            now: Timestamp(cur.u64()?),
            location: LocationId(cur.u16()?),
            k: cur.u16()?,
        },
        RequestKind::SubmitCampaign => {
            let vector = get_vector(cur)?;
            let bid = cur.f32()?;
            let (locations, slots) = get_targeting(cur)?;
            Request::SubmitCampaign(CampaignSpec {
                vector,
                bid,
                locations,
                slots,
                budget: cur.opt("bad budget flag", Cursor::f64)?,
                topic_hint: cur.opt("bad topic flag", Cursor::u32)?,
            })
        }
        RequestKind::PauseCampaign => Request::PauseCampaign {
            ad: AdId(cur.u32()?),
        },
        RequestKind::Impression => {
            let ad = AdId(cur.u32()?);
            let cost = cur.f64()?;
            if !cost.is_finite() || cost < 0.0 {
                return Err(TraceError::Corrupt(
                    "negative or non-finite impression cost",
                ));
            }
            Request::Impression {
                ad,
                cost,
                clicked: cur.flag("bad clicked flag")?,
                now: Timestamp(cur.u64()?),
            }
        }
        RequestKind::Maintain => Request::Maintain {
            now: Timestamp(cur.u64()?),
            idle_for: Duration(cur.u64()?),
        },
        RequestKind::Checkpoint => Request::Checkpoint,
        RequestKind::ObsDump => Request::ObsDump,
        RequestKind::Stats => Request::Stats,
        RequestKind::Shutdown => Request::Shutdown,
        RequestKind::Routed => {
            if !allow_routed {
                return Err(TraceError::Corrupt("nested routed envelope"));
            }
            let partition = cur.u16()?;
            let epoch = cur.u64()?;
            let trace = get_trace(cur)?;
            let (inner_id, inner) = take_request(cur, false)?;
            if inner_id != id {
                return Err(TraceError::Corrupt("routed inner id mismatch"));
            }
            Request::Routed {
                partition,
                epoch,
                trace,
                inner: Box::new(inner),
            }
        }
        RequestKind::ReplAppend => {
            let partition = cur.u16()?;
            let epoch = cur.u64()?;
            let trace = get_trace(cur)?;
            let n = cur.len32()?;
            let entries = cur.many(n, |c| {
                let lsn = c.u64()?;
                let len = c.len32()?;
                Ok((lsn, c.split_to(len)?))
            })?;
            Request::ReplAppend {
                partition,
                epoch,
                trace,
                entries,
            }
        }
        RequestKind::InstallSnapshot => {
            let partition = cur.u16()?;
            let epoch = cur.u64()?;
            let len = cur.len32()?;
            Request::InstallSnapshot {
                partition,
                epoch,
                snapshot: cur.split_to(len)?,
            }
        }
        RequestKind::Promote => Request::Promote {
            partition: cur.u16()?,
            epoch: cur.u64()?,
        },
        RequestKind::ClusterStatus => Request::ClusterStatus,
    };
    Ok((id, req))
}

/// Decode a response frame body (everything after the length prefix).
///
/// # Errors
///
/// Typed [`NetError`] on any malformation, trailing bytes included;
/// never panics.
pub fn decode_response(data: Bytes) -> Result<(u64, Response), NetError> {
    let mut cur = Cursor::new(data);
    cur.check_header(MAGIC, VERSION)?;
    let kind = cur.u8()?;
    let id = cur.u64()?;
    let kind =
        ResponseKind::try_from(kind).map_err(|_| TraceError::Corrupt("unknown response kind"))?;
    let resp = match kind {
        ResponseKind::Ingested => Response::Ingested {
            accepted: cur.u32()?,
        },
        ResponseKind::Recommendations => {
            let n = cur.len16()?;
            let (words, _) = cur.take(n.saturating_mul(12))?.as_chunks::<4>();
            let recs = words
                .chunks_exact(3)
                .map(|r| Recommendation {
                    ad: AdId(u32::from_le_bytes(r[0])),
                    score: f32::from_le_bytes(r[1]),
                    relevance: f32::from_le_bytes(r[2]),
                })
                .collect();
            Response::Recommendations(recs)
        }
        ResponseKind::CampaignAccepted => Response::CampaignAccepted {
            ad: AdId(cur.u32()?),
        },
        ResponseKind::CampaignPaused => Response::CampaignPaused {
            ad: AdId(cur.u32()?),
        },
        ResponseKind::ImpressionRecorded => Response::ImpressionRecorded {
            ad: AdId(cur.u32()?),
            exhausted: cur.flag("bad exhausted flag")?,
        },
        ResponseKind::Maintained => Response::Maintained {
            scanned: cur.u64()?,
            decayed: cur.u64()?,
            pruned: cur.u64()?,
        },
        ResponseKind::Checkpointed => Response::Checkpointed { lsn: cur.u64()? },
        ResponseKind::ObsDumped => Response::ObsDumped { events: cur.u64()? },
        ResponseKind::Stats => Response::Stats(ServerStats {
            deltas: cur.u64()?,
            recommends: cur.u64()?,
            active_campaigns: cur.u64()?,
            rpcs: cur.u64()?,
            shed: cur.u64()?,
            connections: cur.u64()?,
            queue_capacity: cur.u64()?,
            ingest_p50_ns: cur.u64()?,
            ingest_p99_ns: cur.u64()?,
            recommend_p50_ns: cur.u64()?,
            recommend_p99_ns: cur.u64()?,
            wal_records: cur.u64()?,
            wal_bytes: cur.u64()?,
            wal_fsyncs: cur.u64()?,
            snapshots_written: cur.u64()?,
            recovered_records: cur.u64()?,
            recovered_truncated_bytes: cur.u64()?,
        }),
        ResponseKind::ShutdownAck => Response::ShutdownAck,
        ResponseKind::ReplAck => Response::ReplAck {
            durable_lsn: cur.u64()?,
        },
        ResponseKind::SnapshotInstalled => Response::SnapshotInstalled {
            next_lsn: cur.u64()?,
        },
        ResponseKind::Promoted => Response::Promoted {
            epoch: cur.u64()?,
            next_lsn: cur.u64()?,
        },
        ResponseKind::ClusterStatusReply => {
            let role = match cur.u8()? {
                0 => NodeRole::Standalone,
                1 => NodeRole::Primary,
                2 => NodeRole::Follower,
                _ => return Err(TraceError::Corrupt("unknown cluster role").into()),
            };
            let partition = cur.u16()?;
            let epoch = cur.u64()?;
            let durable_lsn = cur.u64()?;
            let flags = cur.u8()?;
            if flags & !0b11 != 0 {
                return Err(TraceError::Corrupt("bad cluster status flags").into());
            }
            Response::ClusterStatusReply {
                role,
                partition,
                epoch,
                durable_lsn,
                fenced: flags & 1 != 0,
                degraded: flags & 2 != 0,
            }
        }
        ResponseKind::Error => {
            let code = WireErrorKind::try_from(cur.u8()?)
                .map_err(|_| TraceError::Corrupt("unknown error code"))?;
            Response::Error(match code {
                WireErrorKind::Overloaded => WireError::Overloaded,
                WireErrorKind::Unavailable => WireError::Unavailable,
                WireErrorKind::ShuttingDown => WireError::ShuttingDown,
                WireErrorKind::BadRequest => {
                    let n = cur.len16()?;
                    WireError::BadRequest(String::from_utf8_lossy(cur.take(n)?).into_owned())
                }
                WireErrorKind::UnknownCampaign => WireError::UnknownCampaign(AdId(cur.u32()?)),
                WireErrorKind::StaleEpoch => WireError::StaleEpoch {
                    current: cur.u64()?,
                },
                WireErrorKind::WrongPartition => WireError::WrongPartition {
                    expected: cur.u16()?,
                },
                WireErrorKind::LsnGap => WireError::LsnGap {
                    expected: cur.u64()?,
                },
                WireErrorKind::NotPrimary => WireError::NotPrimary,
            })
        }
    };
    cur.finish("trailing bytes after response")?;
    Ok((id, resp))
}

/// Write one pre-encoded frame to the transport.
///
/// # Errors
///
/// [`NetError::Io`] on transport failures.
pub fn write_frame(w: &mut impl Write, frame: &Bytes) -> Result<(), NetError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame body from the transport.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary. A zero or
/// oversized declared length is a [`NetError::BadFrame`]; an EOF inside a
/// frame is [`NetError::UnexpectedEof`]. Timeouts surface as
/// [`NetError::Io`] with the platform's `WouldBlock`/`TimedOut` kind.
///
/// # Errors
///
/// See above; never panics.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Bytes>, NetError> {
    let mut len_bytes = [0u8; 4];
    // A clean close before the first length byte is a graceful end of
    // stream, not an error.
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(NetError::UnexpectedEof)
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 {
        return Err(NetError::BadFrame("zero-length frame"));
    }
    if len > MAX_FRAME {
        return Err(NetError::BadFrame("frame exceeds MAX_FRAME"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            NetError::UnexpectedEof
        } else {
            NetError::Io(e)
        }
    })?;
    Ok(Some(Bytes::from(body)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast_feed::FeedDelta;
    use adcast_stream::event::{Message, MessageId, TimeSlot};
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

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ingest {
                deltas: vec![
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
                ],
            },
            Request::Recommend {
                user: UserId(9),
                now: Timestamp::from_secs(55),
                location: LocationId(4),
                k: 10,
            },
            Request::SubmitCampaign(CampaignSpec {
                vector: v(&[(0, 1.0), (5, 0.5)]),
                bid: 2.5,
                locations: vec![LocationId(1), LocationId(8)],
                slots: vec![TimeSlot::Morning, TimeSlot::Night],
                budget: Some(99.5),
                topic_hint: Some(3),
            }),
            Request::SubmitCampaign(CampaignSpec::unrestricted(v(&[(2, 0.7)]), 1.0)),
            Request::PauseCampaign { ad: AdId(12) },
            Request::Impression {
                ad: AdId(4),
                cost: 0.25,
                clicked: true,
                now: Timestamp::from_secs(91),
            },
            Request::Impression {
                ad: AdId(0),
                cost: 0.0,
                clicked: false,
                now: Timestamp::from_secs(0),
            },
            Request::Maintain {
                now: Timestamp::from_secs(3600),
                idle_for: adcast_stream::clock::Duration::from_secs(1800),
            },
            Request::Checkpoint,
            Request::ObsDump,
            Request::Stats,
            Request::Shutdown,
            Request::Routed {
                partition: 3,
                epoch: 7,
                trace: TraceContext {
                    trace_id: 0xDEAD_BEEF_0042,
                    parent_span_id: 0x1234_5678,
                },
                inner: Box::new(Request::Recommend {
                    user: UserId(42),
                    now: Timestamp::from_secs(9),
                    location: LocationId(1),
                    k: 5,
                }),
            },
            Request::Routed {
                partition: 0,
                epoch: 1,
                trace: TraceContext::NONE,
                inner: Box::new(Request::Ingest {
                    deltas: vec![(
                        UserId(4),
                        FeedDelta {
                            entered: Some(msg(5)),
                            evicted: vec![],
                        },
                    )],
                }),
            },
            Request::ReplAppend {
                partition: 1,
                epoch: 2,
                trace: TraceContext {
                    trace_id: 7,
                    parent_span_id: 9,
                },
                entries: vec![
                    (7, Bytes::from_static(&[1, 2, 3, 4])),
                    (8, Bytes::from_static(&[9])),
                ],
            },
            Request::ReplAppend {
                partition: 0,
                epoch: 1,
                trace: TraceContext::NONE,
                entries: vec![],
            },
            Request::InstallSnapshot {
                partition: 2,
                epoch: 4,
                snapshot: Bytes::from_static(b"ADSSxxxx"),
            },
            Request::Promote {
                partition: 1,
                epoch: 3,
            },
            Request::ClusterStatus,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Ingested { accepted: 7 },
            Response::Recommendations(vec![
                Recommendation {
                    ad: AdId(4),
                    score: 0.75,
                    relevance: 0.5,
                },
                Recommendation {
                    ad: AdId(9),
                    score: 0.25,
                    relevance: 0.25,
                },
            ]),
            Response::Recommendations(vec![]),
            Response::CampaignAccepted { ad: AdId(3) },
            Response::CampaignPaused { ad: AdId(3) },
            Response::ImpressionRecorded {
                ad: AdId(6),
                exhausted: true,
            },
            Response::ImpressionRecorded {
                ad: AdId(1),
                exhausted: false,
            },
            Response::Maintained {
                scanned: 1_000_000,
                decayed: 4_321,
                pruned: 12,
            },
            Response::Checkpointed { lsn: 12_345 },
            Response::ObsDumped { events: 4096 },
            Response::Stats(ServerStats {
                deltas: 100,
                recommends: 50,
                active_campaigns: 7,
                rpcs: 160,
                shed: 4,
                connections: 2,
                queue_capacity: 64,
                ingest_p50_ns: 1_000,
                ingest_p99_ns: 9_000,
                recommend_p50_ns: 700,
                recommend_p99_ns: 8_000,
                wal_records: 1_234,
                wal_bytes: 99_000,
                wal_fsyncs: 321,
                snapshots_written: 3,
                recovered_records: 17,
                recovered_truncated_bytes: 41,
            }),
            Response::ShutdownAck,
            Response::ReplAck { durable_lsn: 41 },
            Response::SnapshotInstalled { next_lsn: 42 },
            Response::Promoted {
                epoch: 3,
                next_lsn: 77,
            },
            Response::ClusterStatusReply {
                role: NodeRole::Primary,
                partition: 1,
                epoch: 3,
                durable_lsn: 76,
                fenced: false,
                degraded: true,
            },
            Response::ClusterStatusReply {
                role: NodeRole::Follower,
                partition: 0,
                epoch: 2,
                durable_lsn: 12,
                fenced: true,
                degraded: false,
            },
            Response::Error(WireError::Overloaded),
            Response::Error(WireError::Unavailable),
            Response::Error(WireError::ShuttingDown),
            Response::Error(WireError::BadRequest("user 7 out of range".into())),
            Response::Error(WireError::UnknownCampaign(AdId(5))),
            Response::Error(WireError::StaleEpoch { current: 4 }),
            Response::Error(WireError::WrongPartition { expected: 2 }),
            Response::Error(WireError::LsnGap { expected: 9 }),
            Response::Error(WireError::NotPrimary),
        ]
    }

    fn body_of(frame: &Bytes) -> Bytes {
        frame.slice(4..)
    }

    #[test]
    fn requests_roundtrip() {
        for (i, req) in sample_requests().into_iter().enumerate() {
            let id = 1000 + i as u64;
            let frame = encode_request(id, &req);
            let (got_id, got) = decode_request(body_of(&frame)).unwrap();
            assert_eq!(got_id, id);
            assert_eq!(got, req, "request {i}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        for (i, resp) in sample_responses().into_iter().enumerate() {
            let id = 2000 + i as u64;
            let frame = encode_response(id, &resp);
            let (got_id, got) = decode_response(body_of(&frame)).unwrap();
            assert_eq!(got_id, id);
            assert_eq!(got, resp, "response {i}");
        }
    }

    #[test]
    fn frames_roundtrip_through_io() {
        let mut wire = Vec::new();
        let reqs = sample_requests();
        for (i, req) in reqs.iter().enumerate() {
            write_frame(&mut wire, &encode_request(i as u64, req)).unwrap();
        }
        let mut cursor = io::Cursor::new(wire);
        for (i, req) in reqs.iter().enumerate() {
            let body = read_frame(&mut cursor).unwrap().expect("frame present");
            let (id, got) = decode_request(body).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(&got, req);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn zero_length_frame_rejected() {
        let mut cursor = io::Cursor::new(vec![0u8, 0, 0, 0]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::BadFrame("zero-length frame"))
        ));
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut wire = Vec::from(u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut cursor = io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::BadFrame("frame exceeds MAX_FRAME"))
        ));
    }

    #[test]
    fn eof_mid_frame_detected() {
        // Inside the length prefix…
        let mut cursor = io::Cursor::new(vec![5u8, 0]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::UnexpectedEof)
        ));
        // …and inside the body.
        let mut cursor = io::Cursor::new(vec![5u8, 0, 0, 0, 1, 2]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::UnexpectedEof)
        ));
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let frame = encode_request(1, &Request::Stats);
        let mut corrupted = frame.slice(4..).to_vec();
        corrupted[0] = b'X';
        let err = decode_request(Bytes::from(corrupted)).unwrap_err();
        assert!(
            matches!(err, NetError::Decode(TraceError::BadMagic)),
            "{err}"
        );

        let mut wrong_version = frame.slice(4..).to_vec();
        wrong_version[4] = 9;
        let err = decode_request(Bytes::from(wrong_version)).unwrap_err();
        assert!(
            matches!(err, NetError::Decode(TraceError::BadVersion(9))),
            "{err}"
        );
    }

    /// `body` with its byte `at` XORed with 0xFF.
    fn flipped(body: &Bytes, at: usize) -> Bytes {
        let mut bytes = body.to_vec();
        bytes[at] ^= 0xFF;
        Bytes::from(bytes)
    }

    #[test]
    fn truncated_bodies_never_panic() {
        // Every proper prefix of every sample frame must fail with a typed
        // error — this sweeps each decoder's bounds checks. Every one-byte
        // flip must decode to Ok or a typed error, never a panic.
        for req in sample_requests() {
            let body = body_of(&encode_request(7, &req));
            for cut in 0..body.len() {
                assert!(
                    decode_request(body.slice(0..cut)).is_err(),
                    "{req:?} cut at {cut}"
                );
                let _ = decode_request(flipped(&body, cut));
            }
        }
        for resp in sample_responses() {
            let body = body_of(&encode_response(7, &resp));
            for cut in 0..body.len() {
                assert!(
                    decode_response(body.slice(0..cut)).is_err(),
                    "{resp:?} cut at {cut}"
                );
                let _ = decode_response(flipped(&body, cut));
            }
        }
    }

    #[test]
    fn submit_option_flags_are_strict() {
        let spec = CampaignSpec {
            budget: Some(5.0),
            topic_hint: Some(2),
            ..CampaignSpec::unrestricted(v(&[(1, 1.0)]), 1.0)
        };
        let base = body_of(&encode_request(1, &Request::SubmitCampaign(spec))).to_vec();
        // The body ends `budget flag | f64 | topic flag | u32`.
        for (at, what) in [
            (base.len() - 14, "bad budget flag"),
            (base.len() - 5, "bad topic flag"),
        ] {
            let mut bad = base.clone();
            assert_eq!(bad[at], 1);
            bad[at] = 2;
            let err = decode_request(Bytes::from(bad)).unwrap_err();
            assert!(
                matches!(err, NetError::Decode(TraceError::Corrupt(w)) if w == what),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn corrupt_ingest_payload_rejected() {
        let req = Request::Ingest {
            deltas: vec![(
                UserId(1),
                FeedDelta {
                    entered: Some(msg(1)),
                    evicted: vec![],
                },
            )],
        };
        let mut bytes = body_of(&encode_request(1, &req)).to_vec();
        // The entered flag sits after header(8) + kind(1) + id(8) +
        // count(4) + user(4); corrupt it.
        bytes[8 + 1 + 8 + 4 + 4] = 7;
        let err = decode_request(Bytes::from(bytes)).unwrap_err();
        assert!(
            matches!(err, NetError::Decode(TraceError::Corrupt(_))),
            "{err}"
        );
    }

    #[test]
    fn bad_impression_cost_rejected() {
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let mut body = BytesMut::new();
            put_stream_header(&mut body, MAGIC, VERSION);
            body.put_u8(RequestKind::Impression as u8);
            body.put_u64_le(1);
            body.put_u32_le(3);
            body.put_f64_le(bad);
            body.put_u8(0);
            body.put_u64_le(0);
            let err = decode_request(body.freeze()).unwrap_err();
            assert!(
                matches!(err, NetError::Decode(TraceError::Corrupt(_))),
                "cost {bad}: {err}"
            );
        }
    }

    #[test]
    fn nested_routed_envelope_rejected() {
        let inner = Request::Routed {
            partition: 1,
            epoch: 2,
            trace: TraceContext::NONE,
            inner: Box::new(Request::Stats),
        };
        let outer = Request::Routed {
            partition: 1,
            epoch: 2,
            trace: TraceContext::NONE,
            inner: Box::new(inner),
        };
        let err = decode_request(body_of(&encode_request(1, &outer))).unwrap_err();
        assert!(
            matches!(
                err,
                NetError::Decode(TraceError::Corrupt("nested routed envelope"))
            ),
            "{err}"
        );
    }

    #[test]
    fn routed_inner_id_mismatch_rejected() {
        // Splice an inner frame with a different id into a routed
        // envelope: the decoder must refuse rather than silently
        // re-associate the response stream.
        let mut body = BytesMut::new();
        put_stream_header(&mut body, MAGIC, VERSION);
        body.put_u8(RequestKind::Routed as u8);
        body.put_u64_le(1);
        body.put_u16_le(0);
        body.put_u64_le(1);
        put_trace(&mut body, &TraceContext::NONE);
        put_request(&mut body, 2, &Request::Stats);
        let err = decode_request(body.freeze()).unwrap_err();
        assert!(
            matches!(
                err,
                NetError::Decode(TraceError::Corrupt("routed inner id mismatch"))
            ),
            "{err}"
        );
    }

    #[test]
    fn bad_cluster_role_and_flags_rejected() {
        let resp = Response::ClusterStatusReply {
            role: NodeRole::Primary,
            partition: 1,
            epoch: 3,
            durable_lsn: 9,
            fenced: false,
            degraded: false,
        };
        let base = body_of(&encode_response(1, &resp)).to_vec();
        // Role byte sits right after header(8) + kind(1) + id(8).
        let mut bad_role = base.clone();
        bad_role[8 + 1 + 8] = 9;
        let err = decode_response(Bytes::from(bad_role)).unwrap_err();
        assert!(
            matches!(err, NetError::Decode(TraceError::Corrupt(_))),
            "{err}"
        );
        // Flags byte is the last byte of the frame.
        let mut bad_flags = base;
        *bad_flags.last_mut().unwrap() = 0b100;
        let err = decode_response(Bytes::from(bad_flags)).unwrap_err();
        assert!(
            matches!(err, NetError::Decode(TraceError::Corrupt(_))),
            "{err}"
        );
    }

    #[test]
    fn trace_context_sits_after_the_epoch() {
        // Pin the v6 layout: header(8) kind(1) id(8) partition(2)
        // epoch(8), then trace_id and parent_span_id as LE u64s.
        let trace = TraceContext {
            trace_id: 0x0102_0304_0506_0708,
            parent_span_id: 0x1112_1314_1516_1718,
        };
        let frame = encode_request(
            5,
            &Request::Routed {
                partition: 1,
                epoch: 2,
                trace,
                inner: Box::new(Request::Stats),
            },
        );
        let body = body_of(&frame);
        let at = 8 + 1 + 8 + 2 + 8;
        assert_eq!(&body[at..at + 8], trace.trace_id.to_le_bytes());
        assert_eq!(&body[at + 8..at + 16], trace.parent_span_id.to_le_bytes());
        // All-zero bytes decode as the unsampled context.
        let mut zeroed = body.to_vec();
        zeroed[at..at + 16].fill(0);
        let (_, got) = decode_request(Bytes::from(zeroed)).unwrap();
        let Request::Routed { trace, .. } = got else {
            panic!("decoded a different request");
        };
        assert_eq!(trace, TraceContext::NONE);
        assert!(!trace.sampled());
    }

    #[test]
    fn stale_epoch_travels_typed() {
        // A stale-epoch refusal must come back as the typed error (with
        // the node's epoch), not as silence or a closed connection.
        let frame = encode_response(4, &Response::Error(WireError::StaleEpoch { current: 11 }));
        let (_, got) = decode_response(body_of(&frame)).unwrap();
        assert_eq!(got, Response::Error(WireError::StaleEpoch { current: 11 }));
    }

    #[test]
    fn unknown_kinds_rejected() {
        let mut body = BytesMut::new();
        put_stream_header(&mut body, MAGIC, VERSION);
        body.put_u8(0x42);
        body.put_u64_le(1);
        let err = decode_request(body.clone().freeze()).unwrap_err();
        assert!(
            matches!(err, NetError::Decode(TraceError::Corrupt(_))),
            "{err}"
        );
        let err = decode_response(body.freeze()).unwrap_err();
        assert!(
            matches!(err, NetError::Decode(TraceError::Corrupt(_))),
            "{err}"
        );
    }

    #[test]
    fn error_display_covers_variants() {
        assert!(NetError::UnexpectedEof.to_string().contains("closed"));
        assert!(NetError::BadFrame("zero-length frame")
            .to_string()
            .contains("zero-length"));
        assert!(NetError::IdMismatch {
            expected: 1,
            got: 2
        }
        .to_string()
        .contains('2'));
        assert!(NetError::Remote(WireError::Overloaded)
            .to_string()
            .contains("shed"));
    }
}
