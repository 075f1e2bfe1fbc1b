//! Exhaustive wire round-trip: one constructed value per kind of each
//! codec kind table (`RequestKind`, `ResponseKind`, and `WireErrorKind`
//! inside `Response::Error`), encoded and decoded through the public codec
//! API.
//!
//! The samples come from total matches over the kind enums and are keyed
//! by each table's `ALL`, and each sample must report the kind it was
//! built for. With the codec's own total `kind()` matches, a new protocol
//! variant fails this file until it has a sample that round-trips.

use adcast_ads::AdId;
use adcast_core::Recommendation;
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_net::codec::{
    decode_request, decode_response, encode_request, encode_response, NetError, RequestKind,
    ResponseKind, WireErrorKind,
};
use adcast_net::{CampaignSpec, NodeRole, Request, Response, ServerStats, TraceContext, WireError};
use adcast_stream::clock::{Duration, Timestamp};
use adcast_stream::cursor::TraceError;
use adcast_stream::event::{LocationId, Message, MessageId, TimeSlot};
use adcast_text::dictionary::TermId;
use adcast_text::SparseVector;
use bytes::Bytes;
use std::sync::Arc;

/// Frames carry a 4-byte length prefix; the decoders take what follows.
fn body_of(frame: &Bytes) -> Bytes {
    frame.slice(4..)
}

fn vector(pairs: &[(u32, f32)]) -> SparseVector {
    SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
}

fn message(i: u64) -> Arc<Message> {
    Arc::new(Message {
        id: MessageId(i),
        author: UserId(3),
        ts: Timestamp::from_secs(i),
        location: LocationId(2),
        vector: vector(&[(1, 0.5), (7, 0.25)]),
    })
}

/// The sample of one request kind.
fn request_sample(kind: RequestKind) -> Request {
    match kind {
        RequestKind::Ingest => Request::Ingest {
            deltas: vec![(
                UserId(1),
                FeedDelta {
                    entered: Some(message(10)),
                    evicted: vec![message(2)],
                },
            )],
        },
        RequestKind::Recommend => Request::Recommend {
            user: UserId(9),
            now: Timestamp::from_secs(55),
            location: LocationId(4),
            k: 10,
        },
        RequestKind::SubmitCampaign => Request::SubmitCampaign(CampaignSpec {
            vector: vector(&[(0, 1.0), (5, 0.5)]),
            bid: 2.5,
            locations: vec![LocationId(1)],
            slots: vec![TimeSlot::Morning],
            budget: Some(99.5),
            topic_hint: Some(3),
        }),
        RequestKind::PauseCampaign => Request::PauseCampaign { ad: AdId(12) },
        RequestKind::SetPacing => Request::SetPacing {
            ad: AdId(12),
            start: Timestamp::from_secs(60),
            end: Timestamp::from_secs(3660),
            budget: 40.5,
        },
        RequestKind::Impression => Request::Impression {
            ad: AdId(4),
            cost: 0.25,
            clicked: true,
            now: Timestamp::from_secs(91),
        },
        RequestKind::Maintain => Request::Maintain {
            now: Timestamp::from_secs(3600),
            idle_for: Duration::from_secs(1800),
        },
        RequestKind::Checkpoint => Request::Checkpoint,
        RequestKind::ObsDump => Request::ObsDump,
        RequestKind::Stats => Request::Stats,
        RequestKind::Shutdown => Request::Shutdown,
        RequestKind::Routed => Request::Routed {
            partition: 3,
            epoch: 7,
            trace: TraceContext {
                trace_id: 0xAB,
                parent_span_id: 0xCD,
            },
            inner: Box::new(Request::Stats),
        },
        RequestKind::ReplAppend => Request::ReplAppend {
            partition: 1,
            epoch: 2,
            trace: TraceContext::NONE,
            entries: vec![(7, Bytes::from_static(&[1, 2, 3, 4]))],
        },
        RequestKind::InstallSnapshot => Request::InstallSnapshot {
            partition: 2,
            epoch: 4,
            snapshot: Bytes::from_static(b"ADSSxxxx"),
        },
        RequestKind::Promote => Request::Promote {
            partition: 1,
            epoch: 3,
        },
        RequestKind::ClusterStatus => Request::ClusterStatus,
    }
}

/// The sample of one wire error kind (each rides in `Response::Error`).
fn error_sample(kind: WireErrorKind) -> WireError {
    match kind {
        WireErrorKind::Overloaded => WireError::Overloaded,
        WireErrorKind::Unavailable => WireError::Unavailable,
        WireErrorKind::ShuttingDown => WireError::ShuttingDown,
        WireErrorKind::BadRequest => WireError::BadRequest("k out of range".to_string()),
        WireErrorKind::UnknownCampaign => WireError::UnknownCampaign(AdId(7)),
        WireErrorKind::StaleEpoch => WireError::StaleEpoch { current: 9 },
        WireErrorKind::WrongPartition => WireError::WrongPartition { expected: 2 },
        WireErrorKind::LsnGap => WireError::LsnGap { expected: 31 },
        WireErrorKind::NotPrimary => WireError::NotPrimary,
    }
}

/// The sample of one response kind.
fn response_sample(kind: ResponseKind) -> Response {
    match kind {
        ResponseKind::Ingested => Response::Ingested { accepted: 7 },
        ResponseKind::Recommendations => Response::Recommendations(vec![Recommendation {
            ad: AdId(4),
            score: 0.75,
            relevance: 0.5,
        }]),
        ResponseKind::CampaignAccepted => Response::CampaignAccepted { ad: AdId(3) },
        ResponseKind::CampaignPaused => Response::CampaignPaused { ad: AdId(3) },
        ResponseKind::PacingSet => Response::PacingSet { ad: AdId(3) },
        ResponseKind::ImpressionRecorded => Response::ImpressionRecorded {
            ad: AdId(5),
            exhausted: true,
        },
        ResponseKind::Maintained => Response::Maintained {
            scanned: 100,
            decayed: 4,
            pruned: 2,
        },
        ResponseKind::Checkpointed => Response::Checkpointed { lsn: 42 },
        ResponseKind::ObsDumped => Response::ObsDumped { events: 512 },
        ResponseKind::Stats => Response::Stats(ServerStats {
            deltas: 1,
            recommends: 2,
            rpcs: 3,
            ..Default::default()
        }),
        ResponseKind::ShutdownAck => Response::ShutdownAck,
        ResponseKind::ReplAck => Response::ReplAck { durable_lsn: 77 },
        ResponseKind::SnapshotInstalled => Response::SnapshotInstalled { next_lsn: 11 },
        ResponseKind::Promoted => Response::Promoted {
            epoch: 5,
            next_lsn: 12,
        },
        ResponseKind::ClusterStatusReply => Response::ClusterStatusReply {
            role: NodeRole::Follower,
            partition: 1,
            epoch: 5,
            durable_lsn: 40,
            fenced: false,
            degraded: true,
        },
        ResponseKind::Error => Response::Error(WireError::Overloaded),
    }
}

/// One sample per `RequestKind::ALL` entry, in table order.
fn one_request_per_variant() -> Vec<Request> {
    RequestKind::ALL
        .iter()
        .map(|&kind| {
            let req = request_sample(kind);
            assert_eq!(req.kind(), kind, "sample built for {kind:?}");
            req
        })
        .collect()
}

/// One sample per `WireErrorKind::ALL` entry, in table order.
fn all_errors() -> Vec<WireError> {
    WireErrorKind::ALL
        .iter()
        .map(|&kind| {
            let err = error_sample(kind);
            assert_eq!(err.kind(), kind, "sample built for {kind:?}");
            err
        })
        .collect()
}

/// One sample per `ResponseKind::ALL` entry, in table order.
fn one_response_per_variant() -> Vec<Response> {
    ResponseKind::ALL
        .iter()
        .map(|&kind| {
            let resp = response_sample(kind);
            assert_eq!(resp.kind(), kind, "sample built for {kind:?}");
            resp
        })
        .collect()
}

#[test]
fn kind_bytes_map_back_to_their_kinds() {
    // Each table's `TryFrom<u8>` accepts exactly its own codes.
    for byte in 0..=u8::MAX {
        let req = RequestKind::ALL.iter().find(|&&k| k as u8 == byte);
        assert_eq!(RequestKind::try_from(byte).ok().as_ref(), req, "{byte}");
        let resp = ResponseKind::ALL.iter().find(|&&k| k as u8 == byte);
        assert_eq!(ResponseKind::try_from(byte).ok().as_ref(), resp, "{byte}");
        let err = WireErrorKind::ALL.iter().find(|&&k| k as u8 == byte);
        assert_eq!(WireErrorKind::try_from(byte).ok().as_ref(), err, "{byte}");
    }
}

#[test]
fn every_request_variant_round_trips() {
    for (i, req) in one_request_per_variant().into_iter().enumerate() {
        let id = 1000 + i as u64;
        let frame = encode_request(id, &req);
        let (got_id, got) =
            decode_request(body_of(&frame)).unwrap_or_else(|e| panic!("{:?}: {e}", req.kind()));
        assert_eq!(got_id, id, "{:?}", req.kind());
        assert_eq!(got, req, "{:?}", req.kind());
    }
}

#[test]
fn every_response_variant_round_trips() {
    for (i, resp) in one_response_per_variant().into_iter().enumerate() {
        let id = 2000 + i as u64;
        let frame = encode_response(id, &resp);
        let (got_id, got) =
            decode_response(body_of(&frame)).unwrap_or_else(|e| panic!("{:?}: {e}", resp.kind()));
        assert_eq!(got_id, id, "{:?}", resp.kind());
        assert_eq!(got, resp, "{:?}", resp.kind());
    }
}

#[test]
fn every_wire_error_round_trips_inside_response_error() {
    for (i, err) in all_errors().into_iter().enumerate() {
        let id = 3000 + i as u64;
        let resp = Response::Error(err);
        let frame = encode_response(id, &resp);
        let (got_id, got) =
            decode_response(body_of(&frame)).unwrap_or_else(|e| panic!("{:?}: {e}", resp.kind()));
        assert_eq!(got_id, id);
        assert_eq!(got, resp);
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every sample's full frame, labelled: each request and response
/// variant, each wire error, the option-free `SubmitCampaign` form, and
/// one trace stream holding one message record.
fn labelled_encodings() -> Vec<(String, Bytes)> {
    let mut out = Vec::new();
    for (i, req) in one_request_per_variant().iter().enumerate() {
        let label = format!("Request::{:?}", req.kind());
        out.push((label, encode_request(1000 + i as u64, req)));
    }
    let bare = Request::SubmitCampaign(CampaignSpec::unrestricted(vector(&[(2, 0.7)]), 1.0));
    out.push((
        "Request::SubmitCampaign/none".to_string(),
        encode_request(1, &bare),
    ));
    for (i, resp) in one_response_per_variant().iter().enumerate() {
        let label = format!("Response::{:?}", resp.kind());
        out.push((label, encode_response(2000 + i as u64, resp)));
    }
    for (i, err) in all_errors().into_iter().enumerate() {
        let label = format!("WireError::{:?}", err.kind());
        out.push((
            label,
            encode_response(3000 + i as u64, &Response::Error(err)),
        ));
    }
    let mut trace = adcast_stream::trace::TraceWriter::new();
    trace.write(&message(4));
    out.push(("trace".to_string(), trace.finish()));
    out
}

/// Recorded digests of [`labelled_encodings`]: the encoders' output is
/// pinned byte for byte, so a codec refactor that changes one byte of any
/// format fails here.
const GOLDEN: &[(&str, u64)] = &[
    ("Request::Ingest", 0xcc624d37021bfc07),
    ("Request::Recommend", 0xe77fa1557b09ffd8),
    ("Request::SubmitCampaign", 0xc0258d487f8e1811),
    ("Request::PauseCampaign", 0x7dfc516eeb20bff4),
    ("Request::Impression", 0x2b44ea19c4cc8ffa),
    ("Request::Maintain", 0xb8dad7bcff1aecdf),
    ("Request::Checkpoint", 0xbeb2aa6f82cfd86d),
    ("Request::ObsDump", 0x1f50b2fc111420ef),
    ("Request::Stats", 0xd526422551dc4f50),
    ("Request::Shutdown", 0xf893cb585acd3f78),
    ("Request::Routed", 0x2f3e5d38221a5493),
    ("Request::ReplAppend", 0x173570744fee245b),
    ("Request::InstallSnapshot", 0x7e95d171cceb6db6),
    ("Request::Promote", 0x2d2fc9bb19ea75d1),
    ("Request::ClusterStatus", 0x50f47a8f99ad46d4),
    ("Request::SetPacing", 0x601a194de8a6f43b),
    ("Request::SubmitCampaign/none", 0x3085bdc40dec317d),
    ("Response::Ingested", 0x45dfa83fcf2452a3),
    ("Response::Recommendations", 0x63528484a3afacf3),
    ("Response::CampaignAccepted", 0xd61b2ba3a435207f),
    ("Response::CampaignPaused", 0xde9914024b4fb1ff),
    ("Response::ImpressionRecorded", 0x43540c47f39c96cd),
    ("Response::Maintained", 0x14fc9e26c3ccf5be),
    ("Response::Checkpointed", 0x5d49d137485e15ab),
    ("Response::ObsDumped", 0x6d0ffc755313fed9),
    ("Response::Stats", 0x8d7ba9a8003e653c),
    ("Response::ShutdownAck", 0x86bce842aff3cb3c),
    ("Response::ReplAck", 0x1b38e2c356edd8fd),
    ("Response::SnapshotInstalled", 0x76d1fa038d28f488),
    ("Response::Promoted", 0xdb671f1b076d788a),
    ("Response::ClusterStatusReply", 0x33979f3ecb03c37c),
    ("Response::Error", 0xd9a1154a10905208),
    ("Response::PacingSet", 0x3ede58889982e056),
    ("WireError::Overloaded", 0x17ed4e89d233794a),
    ("WireError::Unavailable", 0xf9a0c068cdb85fdc),
    ("WireError::ShuttingDown", 0x6d03c1f2d4bab90e),
    ("WireError::BadRequest", 0xa9f37827df2e3319),
    ("WireError::UnknownCampaign", 0xde6650421607de19),
    ("WireError::StaleEpoch", 0xc02592333cd2b6a5),
    ("WireError::WrongPartition", 0xf1caeea7037a50f6),
    ("WireError::LsnGap", 0xec4162e40bcbe11b),
    ("WireError::NotPrimary", 0x1fa38f59eb0871da),
    ("trace", 0x9dd2eaebecba5d1e),
];

#[test]
fn encodings_match_recorded_bytes() {
    let got: Vec<(String, u64)> = labelled_encodings()
        .into_iter()
        .map(|(label, bytes)| (label, fnv1a(&bytes)))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert_eq!(got, want);
}

#[test]
fn trailing_bytes_are_rejected() {
    // One extra byte after a valid body is a typed error, for every
    // variant — a `Routed` envelope is checked after its inner request.
    for (i, req) in one_request_per_variant().iter().enumerate() {
        let mut body = body_of(&encode_request(i as u64, req)).to_vec();
        body.push(0);
        let err = decode_request(Bytes::from(body)).unwrap_err();
        assert!(
            matches!(err, NetError::Decode(TraceError::Corrupt(_))),
            "{:?}: {err}",
            req.kind()
        );
    }
    let responses = one_response_per_variant()
        .into_iter()
        .chain(all_errors().into_iter().map(Response::Error));
    for (i, resp) in responses.enumerate() {
        let mut body = body_of(&encode_response(i as u64, &resp)).to_vec();
        body.push(0);
        let err = decode_response(Bytes::from(body)).unwrap_err();
        assert!(
            matches!(err, NetError::Decode(TraceError::Corrupt(_))),
            "{:?}: {err}",
            resp.kind()
        );
    }
}
