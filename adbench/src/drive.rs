//! Load generation over the wire protocol.
//!
//! * [`open_loop`] sends pre-encoded requests on one connection at their
//!   scheduled instants, whether or not earlier replies have arrived, and
//!   times every request from its *due* instant — so a server stall
//!   charges every request scheduled behind it, not only the one it hit.
//! * [`closed_loop`] keeps a fixed small number of requests in flight on
//!   one connection until a deadline (throughput).
//!
//! Both classify each op as ok, shed, error, timeout or missing; every
//! class but ok counts against `failed_share`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use adcast::ads::AdId;
use adcast::core::Recommendation;
use adcast::net::codec::{decode_response, encode_request, read_frame};
use adcast::net::{Client, ClientConfig, Request, Response, WireError};
use bytes::Bytes;

/// Which end-to-end series an op's latency belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A feed-delta batch.
    Ingest,
    /// A top-k read.
    Recommend,
    /// A campaign Pause or Submit.
    Campaign,
}

/// What a correct reply looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `Ingested { accepted }` with this count.
    Ingested(u32),
    /// Any `Recommendations` list.
    Recs,
    /// `CampaignAccepted` under exactly this id (ids are sequential).
    Accepted(AdId),
    /// `CampaignPaused` for this id.
    Paused(AdId),
}

/// One request of a generated stream.
#[derive(Debug, Clone)]
pub struct Op {
    /// The request.
    pub req: Request,
    /// Its latency series.
    pub kind: Kind,
    /// The reply it must get.
    pub expect: Expect,
    /// Feed deltas it carries.
    pub deltas: u32,
}

/// How an op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The expected reply.
    Ok,
    /// Refused with `Overloaded`.
    Shed,
    /// Any other error reply, or a reply of the wrong shape.
    Error,
    /// No reply within the grace period.
    Timeout,
    /// The connection closed with the op unanswered (or never sent).
    Missing,
}

/// The fate and timing of one open-loop op.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Latency series.
    pub kind: Kind,
    /// Scheduled send instant, ns after phase start.
    pub due_ns: u64,
    /// Actual send instant, ns after phase start.
    pub sent_ns: u64,
    /// Reply instant, ns after phase start (`None` without reply).
    pub done_ns: Option<u64>,
    /// How it ended.
    pub status: Status,
    /// Requests sent but unanswered on this connection when it was sent.
    pub backlog: u32,
}

impl Outcome {
    /// Latency from the scheduled send instant, for ops that succeeded.
    pub fn latency_ns(&self) -> Option<u64> {
        match (self.status, self.done_ns) {
            (Status::Ok, Some(done)) => Some(done.saturating_sub(self.due_ns)),
            _ => None,
        }
    }
}

fn classify(resp: &Response, expect: &Expect) -> Status {
    match (resp, expect) {
        (Response::Error(WireError::Overloaded), _) => Status::Shed,
        (Response::Ingested { accepted }, Expect::Ingested(n)) if accepted == n => Status::Ok,
        (Response::Recommendations(_), Expect::Recs) => Status::Ok,
        (Response::CampaignAccepted { ad }, Expect::Accepted(want)) if ad == want => Status::Ok,
        (Response::CampaignPaused { ad }, Expect::Paused(want)) if ad == want => Status::Ok,
        _ => Status::Error,
    }
}

/// Pull every complete `[u32 len][body]` frame off the front of `buf`.
fn take_frames(buf: &mut Vec<u8>) -> Vec<Bytes> {
    let mut frames = Vec::new();
    let mut at = 0;
    while buf.len() - at >= 4 {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        if buf.len() - at - 4 < len {
            break;
        }
        frames.push(Bytes::from(buf[at + 4..at + 4 + len].to_vec()));
        at += 4 + len;
    }
    buf.drain(..at);
    frames
}

/// The open loop spins (yielding) through the first this-long of the wait
/// for each reply, which covers an unqueued Recommend, so fast replies are
/// timestamped as they land.
const REPLY_SPIN_NS: u64 = 1_000_000;
/// After that it checks for replies this often. Linux stretches every nap
/// by its default 50 µs timer slack, so a slow reply is timestamped up to
/// about 60 µs after it lands.
const POLL_NS: u64 = 10_000;
/// The open loop spins for this long before each due send instead of
/// sleeping into it, so timer slack does not make sends late.
const SEND_SPIN_NS: u64 = 100_000;

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Drive one connection open-loop: op `i` is due `due_ns[i]` after
/// `start`. Requests carry ids `1..=n` in schedule order; the server
/// answers each connection in order, so ids match replies to ops. Waits
/// up to `grace` after the last send for outstanding replies.
pub fn open_loop(
    addr: &str,
    ops: &[Op],
    due_ns: &[u64],
    start: Instant,
    grace: Duration,
) -> Result<Vec<Outcome>, String> {
    assert_eq!(ops.len(), due_ns.len(), "one due time per op");
    let frames: Vec<Bytes> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| encode_request(i as u64 + 1, &op.req))
        .collect();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    // Non-blocking socket + `thread::sleep`: socket timeouts tick in
    // scheduler jiffies (milliseconds), which would make the generator
    // itself late; sleeps are timed by high-resolution timers.
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut out: Vec<Outcome> = ops
        .iter()
        .zip(due_ns)
        .map(|(op, &due)| Outcome {
            kind: op.kind,
            due_ns: due,
            sent_ns: 0,
            done_ns: None,
            status: Status::Missing,
            backlog: 0,
        })
        .collect();
    let n = ops.len();
    let (mut sent, mut answered) = (0usize, 0usize);
    // Bytes of `frames[sent]` already written, while a write is partial.
    let mut writing: Option<usize> = None;
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut give_up_at: Option<u64> = None;
    let elapsed = || start.elapsed().as_nanos() as u64;
    while answered < n {
        let now = elapsed();
        let mut progressed = false;
        if writing.is_none() && sent < n && now >= due_ns[sent] {
            out[sent].sent_ns = now;
            out[sent].backlog = (sent - answered) as u32;
            writing = Some(0);
        }
        if let Some(at) = writing {
            match stream.write(&frames[sent][at..]) {
                Ok(k) => {
                    progressed = true;
                    if at + k == frames[sent].len() {
                        writing = None;
                        sent += 1;
                    } else {
                        writing = Some(at + k);
                    }
                }
                Err(e) if would_block(&e) => {}
                Err(_) => break, // peer gone: everything unanswered is missing
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                progressed = true;
                buf.extend_from_slice(&chunk[..k]);
                let done = elapsed();
                for body in take_frames(&mut buf) {
                    let (id, resp) = decode_response(body).map_err(|e| e.to_string())?;
                    let idx = usize::try_from(id).unwrap_or(0).wrapping_sub(1);
                    if idx != answered {
                        return Err(format!(
                            "reply id {id} out of order (expected {})",
                            answered + 1
                        ));
                    }
                    out[idx].done_ns = Some(done);
                    out[idx].status = classify(&resp, &ops[idx].expect);
                    answered += 1;
                }
            }
            Err(e) if would_block(&e) => {}
            Err(_) => break,
        }
        if progressed {
            continue;
        }
        if sent == n && give_up_at.is_none() {
            give_up_at = Some(now + grace.as_nanos() as u64);
        }
        if give_up_at.is_some_and(|t| now >= t) {
            for o in &mut out[answered..] {
                o.status = Status::Timeout;
            }
            break;
        }
        // Spin into the next due send and through the start of each
        // reply's wait; otherwise nap to the send, or POLL_NS at a time
        // while replies are outstanding.
        let next = match (writing, give_up_at) {
            (Some(_), _) => now + POLL_NS,
            (None, _) if sent < n => due_ns[sent],
            (None, t) => t.unwrap_or(now),
        };
        let until = next.saturating_sub(now);
        let send_soon = writing.is_none() && sent < n && until <= SEND_SPIN_NS;
        let reply_soon = sent > answered && now < out[answered].sent_ns + REPLY_SPIN_NS;
        if send_soon || reply_soon {
            std::thread::yield_now();
            continue;
        }
        let nap = if sent > answered || writing.is_some() {
            until.min(POLL_NS)
        } else {
            until.saturating_sub(SEND_SPIN_NS)
        };
        std::thread::sleep(Duration::from_nanos(nap));
    }
    Ok(out)
}

/// Totals of a closed-loop run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClosedTotals {
    /// Ops issued.
    pub attempted: u64,
    /// Ops that did not get their expected reply.
    pub failed: u64,
    /// Deltas acknowledged.
    pub deltas: u64,
    /// Ops answered `Overloaded`.
    pub shed: u64,
}

/// How long a closed loop or sweep waits for one reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

fn client_config() -> ClientConfig {
    ClientConfig {
        rpc_timeout: Some(REPLY_TIMEOUT),
        ..ClientConfig::default()
    }
}

/// Requests a closed loop keeps in flight on its one connection. The
/// server (and the router) read one request per connection at a time and
/// answer in order, so requests waiting in the socket change neither what
/// the server does nor its order. They keep it from idling while the
/// harness turns a reply around: a harness wake-up that a shared host
/// delays by less than three ops' service time does not read as lower
/// server throughput.
const WINDOW: usize = 4;

/// Issue `ops` in order on one connection, [`WINDOW`] in flight, sending
/// none after `deadline` and waiting for every reply to what was sent.
/// Returns totals and how many ops were issued. A reply that does not come
/// fails every op not yet answered, issued or not.
pub fn closed_loop(
    addr: &str,
    ops: &[Op],
    deadline: Option<Instant>,
) -> Result<(ClosedTotals, usize), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut t = ClosedTotals::default();
    let (mut sent, mut answered) = (0usize, 0usize);
    let mut open = true;
    loop {
        while open && sent < ops.len() && sent - answered < WINDOW {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                open = false;
                break;
            }
            let frame = encode_request(sent as u64 + 1, &ops[sent].req);
            if stream.write_all(&frame).is_err() {
                open = false;
                sent = ops.len(); // none of the rest will be answered
                break;
            }
            sent += 1;
        }
        if answered == sent {
            break;
        }
        let reply = read_frame(&mut stream)
            .ok()
            .flatten()
            .and_then(|body| decode_response(body).ok())
            .filter(|(id, _)| *id == answered as u64 + 1);
        let Some((_, resp)) = reply else {
            // Disconnected, timed out or out of step: everything
            // unanswered is lost.
            let lost = (ops.len() - answered) as u64;
            t.attempted += lost;
            t.failed += lost;
            return Ok((t, ops.len()));
        };
        let op = &ops[answered];
        answered += 1;
        t.attempted += 1;
        match classify(&resp, &op.expect) {
            Status::Ok => t.deltas += u64::from(op.deltas),
            Status::Shed => {
                t.shed += 1;
                t.failed += 1;
            }
            _ => t.failed += 1,
        }
    }
    Ok((t, sent))
}

/// Recommend for every user in `users` on one connection; `None` marks a
/// user whose request failed.
pub fn sweep(
    addr: &str,
    users: impl Iterator<Item = Request>,
) -> Result<Vec<Option<Vec<Recommendation>>>, String> {
    let mut client = Client::connect(addr, &client_config()).map_err(|e| e.to_string())?;
    Ok(users
        .map(|req| match client.call(&req) {
            Ok(Response::Recommendations(recs)) => Some(recs),
            _ => None,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast::graph::UserId;
    use adcast::net::codec::{decode_request, encode_response, read_frame};
    use adcast::stream::event::LocationId;
    use std::net::TcpListener;

    fn recommend_op() -> Op {
        Op {
            req: Request::Recommend {
                user: UserId(1),
                now: Default::default(),
                location: LocationId(0),
                k: 5,
            },
            kind: Kind::Recommend,
            expect: Expect::Recs,
            deltas: 0,
        }
    }

    /// A fake server answering every request in order after `delay(i)`,
    /// closing after `answer` replies.
    fn fake_server(answer: usize, delay: fn(usize) -> Duration) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // As the real server does; Nagle would hold each reply until
            // the next request's ACK.
            s.set_nodelay(true).unwrap();
            for i in 0..answer {
                let Ok(Some(body)) = read_frame(&mut s) else {
                    return;
                };
                let (id, _) = decode_request(body).unwrap();
                std::thread::sleep(delay(i));
                let frame = encode_response(id, &Response::Recommendations(Vec::new()));
                if s.write_all(&frame).is_err() {
                    return;
                }
            }
        });
        addr
    }

    #[test]
    fn latency_counts_from_due_time_behind_a_stall() {
        // The first reply stalls 200 ms; requests due every 10 ms behind
        // it are answered immediately once the stall clears, so their
        // latency from *due* time shrinks by 10 ms per slot — the stall
        // is charged to each of them, not only to the first.
        let addr = fake_server(5, |i| Duration::from_millis(if i == 0 { 200 } else { 0 }));
        let ops = vec![recommend_op(); 5];
        let due: Vec<u64> = (0..5).map(|i| i * 10_000_000).collect();
        let out = open_loop(&addr, &ops, &due, Instant::now(), Duration::from_secs(2)).unwrap();
        assert!(out.iter().all(|o| o.status == Status::Ok));
        for (i, o) in out.iter().enumerate() {
            let lat = o.latency_ns().unwrap();
            let floor = 200_000_000 - i as u64 * 10_000_000;
            assert!(lat >= floor, "op {i}: {lat} < {floor}");
            // Sent on schedule despite the outstanding first request.
            assert!(o.sent_ns < o.due_ns + 50_000_000, "op {i} sent late");
        }
        assert!(out[4].backlog >= 3, "later ops were sent behind the stall");
    }

    #[test]
    fn latency_floor_against_an_instant_server() {
        // Replies come back at once, so what is measured is the loopback
        // round trip plus the generator's own send lag and reply polling.
        let n = 200;
        let addr = fake_server(n, |_| Duration::ZERO);
        let ops = vec![recommend_op(); n];
        let due: Vec<u64> = (0..n as u64).map(|i| i * 1_000_000).collect();
        let out = open_loop(&addr, &ops, &due, Instant::now(), Duration::from_secs(2)).unwrap();
        let mut lat: Vec<f64> = out.iter().map(|o| o.latency_ns().unwrap() as f64).collect();
        let mut lag: Vec<f64> = out.iter().map(|o| (o.sent_ns - o.due_ns) as f64).collect();
        let p50 = crate::stats::median(&mut lat).unwrap();
        let lag_p50 = crate::stats::median(&mut lag).unwrap();
        eprintln!("floor: latency p50 {p50:.0} ns, send lag p50 {lag_p50:.0} ns");
        // ~40 µs on a 2-vCPU VM, nearly all of it the fake server's wake-up
        // and the loopback hop. A generator that naps through the reply's
        // wait adds Linux's 50 µs timer slack and more, and fails this.
        assert!(p50 < 100_000.0, "latency floor p50 {p50} ns");
        assert!(lag_p50 < 20_000.0, "send lag p50 {lag_p50} ns");
    }

    #[test]
    fn unanswered_ops_time_out_or_go_missing() {
        // Answers 2 of 4 then holds the connection open: the rest time out.
        let addr = fake_server(2, |i| Duration::from_millis(if i == 1 { 400 } else { 0 }));
        let ops = vec![recommend_op(); 4];
        let due = vec![0, 1_000_000, 2_000_000, 3_000_000];
        let out = open_loop(
            &addr,
            &ops,
            &due,
            Instant::now(),
            Duration::from_millis(200),
        )
        .unwrap();
        let statuses: Vec<Status> = out.iter().map(|o| o.status).collect();
        assert_eq!(statuses[0], Status::Ok);
        assert!(
            statuses[1..].iter().all(|s| *s == Status::Timeout),
            "{statuses:?}"
        );
    }

    #[test]
    fn closed_loop_fails_every_op_after_a_dropped_connection() {
        // Three of five replies, then the server hangs up: the two
        // unanswered ops are attempted and failed, none is lost from the
        // tally.
        let addr = fake_server(3, |_| Duration::ZERO);
        let ops = vec![recommend_op(); 5];
        let (t, issued) = closed_loop(&addr, &ops, None).unwrap();
        assert_eq!((t.attempted, t.failed, issued), (5, 2, 5));
    }

    #[test]
    fn frames_split_across_reads_reassemble() {
        let a = encode_response(1, &Response::ShutdownAck);
        let b = encode_response(2, &Response::ShutdownAck);
        let mut wire: Vec<u8> = Vec::new();
        wire.extend_from_slice(&a);
        wire.extend_from_slice(&b);
        let mut buf = wire[..a.len() + 3].to_vec();
        assert_eq!(take_frames(&mut buf).len(), 1);
        buf.extend_from_slice(&wire[a.len() + 3..]);
        assert_eq!(take_frames(&mut buf).len(), 1);
        assert!(buf.is_empty());
    }

    #[test]
    fn classification() {
        let ok = Response::Ingested { accepted: 3 };
        assert_eq!(classify(&ok, &Expect::Ingested(3)), Status::Ok);
        assert_eq!(classify(&ok, &Expect::Ingested(4)), Status::Error);
        let shed = Response::Error(WireError::Overloaded);
        assert_eq!(classify(&shed, &Expect::Recs), Status::Shed);
        let wrong_id = Response::CampaignAccepted { ad: AdId(9) };
        assert_eq!(
            classify(&wrong_id, &Expect::Accepted(AdId(8))),
            Status::Error
        );
    }
}
