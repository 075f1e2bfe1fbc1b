//! The TCP transport in front of one [`Node`].
//!
//! ## Threading model
//!
//! ```text
//! accept thread ──► reader thread per connection
//!                        │ decode frame
//!                        │ try_send ──► bounded cmd queue ──► engine thread
//!                        │   (Full ⇒ Overloaded reply,          │ owns the Node:
//!                        │    shed counter++)                   │ Node::handle
//!                        ◄──────────── per-RPC reply channel ───┘
//! ```
//!
//! Exactly one thread (the engine thread) ever touches the [`Node`], so
//! the serving layer adds no locking to the engine hot paths. Everything
//! a request does once dequeued — admission, validation, the WAL and
//! replication ack ladder, telemetry — is [`Node::handle`]; this module
//! only moves frames. Readers run a closed loop per connection: read a
//! frame, submit it, wait for the reply, write it back — so
//! per-connection ordering is the processing order.
//!
//! ## Backpressure policy
//!
//! The cmd queue is a [`mpsc::sync_channel`] with a configured bound.
//! Hot-path RPCs ([`Request::Ingest`], [`Request::Recommend`]) are
//! admitted with `try_send`: a full queue sheds the request with a typed
//! [`WireError::Overloaded`] reply instead of buffering unboundedly, and
//! bumps the shed counter reported by [`Request::Stats`]. Control-plane
//! RPCs (submit/pause/stats/shutdown) use a blocking send — they are rare
//! and must not be shed under ingest pressure.
//!
//! ## Shutdown
//!
//! [`Request::Shutdown`] is acked immediately, then the engine thread
//! raises the shutdown flag, pokes the accept loop awake with a dummy
//! connection, drains every already-queued command (each gets its real
//! reply — in-flight requests are never dropped), dumps the
//! [`flightrec`] ring to [`ServerConfig::flightrec_path`], and exits.
//! Readers observe the flag on their next read-timeout tick and exit; the
//! accept thread joins them; [`Server::join`] joins everything.

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

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use adcast_obs::{flightrec, EventKind};
use adcast_stream::clock::now_ns;

use crate::codec::{decode_request, encode_response, read_frame, write_frame, NetError};
use crate::node::{NetObs, Node, Transport};
use crate::protocol::{Request, Response, WireError};

/// Serving-layer knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound of the request queue (the backpressure knob): at most this
    /// many admitted-but-unprocessed RPCs exist at any time.
    pub queue_depth: usize,
    /// How often blocked readers wake to poll the shutdown flag. Also the
    /// granularity of shutdown latency and of reader-thread reaping.
    pub poll_interval: Duration,
    /// Where the engine dumps the flight recorder on shutdown and on
    /// [`Request::ObsDump`]; `None` refuses the RPC and skips the dump.
    pub flightrec_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 64,
            poll_interval: Duration::from_millis(50),
            flightrec_path: None,
        }
    }
}

/// One admitted RPC in flight to the engine thread. (The reader keeps
/// the request id; replies are matched by the per-RPC channel.)
struct Cmd {
    req: Request,
    /// Depth-1 by construction: the engine sends exactly one reply per
    /// command, so the bounded send can never block.
    reply: mpsc::SyncSender<Response>,
    /// When the reader submitted this command (queue-wait span start), in
    /// [`now_ns`] clock nanoseconds.
    enqueued_ns: u64,
}

/// A running server; dropping it does **not** stop it — send
/// [`Request::Shutdown`] (or call [`Server::shutdown`]) and then
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Transport>,
    accept_join: Option<JoinHandle<()>>,
    engine_join: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `node` on background threads: the engine thread owns the node and
    /// answers every admitted request with [`Node::handle`].
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on bind or thread-spawn failures.
    pub fn start(addr: &str, config: ServerConfig, mut node: Node) -> Result<Server, NetError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Transport::default());
        let obs = NetObs::resolve();
        let queue_depth = config.queue_depth.max(1);
        let (cmd_tx, cmd_rx) = mpsc::sync_channel::<Cmd>(queue_depth);
        node.transport = Arc::clone(&shared);
        node.queue_depth = queue_depth;
        node.flightrec_path.clone_from(&config.flightrec_path);

        let engine_join = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("adcast-engine".into())
                .spawn(move || engine_loop(node, &cmd_rx, &shared, local))?
        };
        let accept_join = {
            let (flag, shared) = (Arc::clone(&shared), Arc::clone(&shared));
            let poll = config.poll_interval;
            // The accept thread owns `cmd_tx`: once it and every reader
            // are gone the engine's recv disconnects and it exits (if the
            // Shutdown drain has not already).
            let spawn_reader = move |stream: TcpStream| {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                obs.connections_total.inc();
                obs.reader_threads.inc();
                let (tx, conn_shared, conn_obs) =
                    (cmd_tx.clone(), Arc::clone(&shared), obs.clone());
                let spawned = std::thread::Builder::new()
                    .name("adcast-conn".into())
                    .spawn(move || {
                        connection_loop(stream, &tx, &conn_shared, &conn_obs);
                        conn_obs.reader_threads.dec();
                    });
                if spawned.is_err() {
                    obs.reader_threads.dec();
                }
                spawned.ok()
            };
            std::thread::Builder::new()
                .name("adcast-accept".into())
                .spawn(move || accept_loop(&listener, &flag.shutdown, poll, spawn_reader))?
        };
        Ok(Server {
            addr: local,
            shared,
            accept_join: Some(accept_join),
            engine_join: Some(engine_join),
        })
    }

    /// The bound address (real port even when started on port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Trigger shutdown from the hosting process (equivalent to a client
    /// sending [`Request::Shutdown`]).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Poke the accept loop awake; the engine loop notices when the
        // accept loop (last sender) hangs up.
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until every server thread has exited.
    pub fn join(mut self) {
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
        if let Some(j) = self.engine_join.take() {
            let _ = j.join();
        }
    }
}

/// The engine thread: serve until a Shutdown command or until every
/// sender is gone (host-side `Server::shutdown` + all readers exited),
/// then drain and dump the flight recorder.
fn engine_loop(mut node: Node, cmd_rx: &Receiver<Cmd>, shared: &Transport, addr: SocketAddr) {
    let mut drained = 0u64;
    while let Ok(cmd) = cmd_rx.recv() {
        if serve(&mut node, cmd) {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Unblock accept(), then drain: every already-admitted request
            // still gets its real reply — in-flight work is not dropped.
            let _ = TcpStream::connect(addr);
            while let Ok(cmd) = cmd_rx.try_recv() {
                serve(&mut node, cmd);
                drained += 1;
            }
            break;
        }
    }
    flightrec().record(EventKind::Shutdown, drained, 0, 0);
    if let Some(path) = &node.flightrec_path {
        let _ = flightrec().dump_to_path(path);
    }
    // Dropping the node joins its snapshot persister after any in-flight
    // snapshot finishes.
}

/// Answer one command; returns whether it acked a shutdown.
fn serve(node: &mut Node, cmd: Cmd) -> bool {
    let resp = node.handle(cmd.req, cmd.enqueued_ns);
    let acked_shutdown = matches!(resp, Response::ShutdownAck);
    // A reader that hung up mid-RPC cannot receive its reply; fine.
    let _ = cmd.reply.send(resp);
    acked_shutdown
}

/// Accept connections on `listener` until `shutdown` is raised. Each
/// stream gets blocking reads with a `poll` timeout (so its thread can
/// watch the flag) and is handed to `spawn`, which starts that thread.
/// Finished threads are reaped every tick — a long-lived listener's
/// handle list tracks live connections — and the rest are joined on the
/// way out. The node server and the router both accept through this loop.
pub fn accept_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    poll: Duration,
    mut spawn: impl FnMut(TcpStream) -> Option<JoinHandle<()>>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    // Non-blocking accept with a poll-interval sleep, so the reap below
    // runs on every tick even when no new connection arrives.
    let nonblocking = listener.set_nonblocking(true).is_ok();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Accepted sockets can inherit the listener's non-blocking
                // mode on some platforms; readers need blocking reads with
                // a timeout.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(poll));
                conns.extend(spawn(stream));
                conns.retain(|j| !j.is_finished());
            }
            Err(e) if nonblocking && e.kind() == io::ErrorKind::WouldBlock => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                conns.retain(|j| !j.is_finished());
                std::thread::sleep(poll);
            }
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    for j in conns {
        let _ = j.join();
    }
}

/// The next request on `stream`, or `None` once the peer hangs up, the
/// transport fails, or `shutdown` is raised while the connection idles.
/// A frame that arrives intact but does not decode is answered with
/// [`WireError::BadRequest`] and ends the connection too (the stream may
/// be desynchronized).
pub fn read_request(stream: &mut TcpStream, shutdown: &AtomicBool) -> Option<(u64, Request)> {
    let body = loop {
        match read_frame(stream) {
            Ok(Some(body)) => break body,
            Err(NetError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle tick (no bytes consumed): poll the shutdown flag.
                if shutdown.load(Ordering::SeqCst) {
                    return None;
                }
            }
            // Clean hang-up, transport error, or malformed framing.
            Ok(None) | Err(_) => return None,
        }
    };
    match decode_request(body) {
        Ok(pair) => Some(pair),
        Err(e) => {
            let resp = Response::Error(WireError::BadRequest(e.to_string()));
            let _ = write_frame(stream, &encode_response(0, &resp));
            None
        }
    }
}

/// Should this request be shed when the queue is full? Routed envelopes
/// inherit their inner request's class; replication traffic is
/// control-plane (shedding a `ReplAppend` would force a snapshot
/// transfer for a momentary queue spike).
fn sheddable(req: &Request) -> bool {
    match req {
        Request::Ingest { .. } | Request::Recommend { .. } => true,
        Request::Routed { inner, .. } => sheddable(inner),
        _ => false,
    }
}

fn connection_loop(
    mut stream: TcpStream,
    cmd_tx: &SyncSender<Cmd>,
    shared: &Arc<Transport>,
    obs: &NetObs,
) {
    while let Some((id, req)) = read_request(&mut stream, &shared.shutdown) {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let cmd = Cmd {
            req,
            reply: reply_tx,
            enqueued_ns: now_ns(),
        };
        let outcome = if sheddable(&cmd.req) {
            cmd_tx.try_send(cmd)
        } else {
            // Control-plane RPCs block rather than shed.
            cmd_tx
                .send(cmd)
                .map_err(|e| TrySendError::Disconnected(e.0))
        };
        let resp = match outcome {
            Ok(()) => reply_rx
                .recv()
                // The engine exited with this command still queued (it
                // drains everything on Shutdown, so this means the cmd was
                // dropped unprocessed after the engine died or left).
                .unwrap_or(Response::Error(WireError::ShuttingDown)),
            Err(TrySendError::Full(cmd)) => {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                obs.shed_total.inc();
                flightrec().record(EventKind::Shed, cmd.req.kind() as u64, 0, 0);
                Response::Error(WireError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Response::Error(WireError::ShuttingDown),
        };
        if write_frame(&mut stream, &encode_response(id, &resp)).is_err()
            || matches!(resp, Response::ShutdownAck)
        {
            return;
        }
    }
}
