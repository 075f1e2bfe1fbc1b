//! `adcast-serve` — stand up the TCP serving layer.
//!
//! ```text
//! adcast-serve [--addr HOST:PORT] [--users N] [--shards N] [--queue-depth N]
//!              [--data-dir PATH] [--fsync always|off|every=N]
//!              [--snapshot-every N] [--obs-addr HOST:PORT]
//!              [--partition N [--epoch N] [--role primary|follower]
//!               [--follower HOST:PORT]]
//! ```
//!
//! Binds the listener (port 0 picks an ephemeral port), prints
//! `listening on HOST:PORT` on stdout — scripts parse that line — and
//! serves until a client sends the Shutdown RPC. Without `--data-dir`
//! the engine state starts empty and dies with the process; with it,
//! every accepted mutation is written to a write-ahead log under PATH
//! before it is acknowledged, background snapshots are taken every
//! `--snapshot-every` WAL records, and startup recovers the pre-crash
//! state (latest valid snapshot + WAL tail replay) before the listener
//! binds. `--fsync` trades ingest throughput against the post-`kill -9`
//! loss window; see DESIGN.md §9.
//!
//! `--partition` joins the node to a cluster (requires `--data-dir`):
//! it serves one user partition behind `adcast-router` and only admits
//! partition-routed RPCs stamped with its partition and epoch. As a
//! `primary` with `--follower HOST:PORT` it ships every committed WAL
//! record to that follower and waits for the durability ack before
//! acking the client; as a `follower` it refuses client writes and
//! applies replicated records, ready for promotion. See DESIGN.md §14.
//!
//! `--obs-addr` additionally binds a plain-HTTP observability listener
//! serving `GET /metrics` (Prometheus text format) and `GET /healthz`;
//! the bound address is printed as `obs listening on HOST:PORT`. With
//! `--data-dir`, the in-memory flight recorder is dumped to
//! `PATH/flightrec.jsonl` on panic, on graceful shutdown, and on the
//! ObsDump RPC; see DESIGN.md §11.

use std::path::PathBuf;
use std::process::ExitCode;

use adcast::ads::AdStore;
use adcast::cluster::TcpSink;
use adcast::core::{EngineConfig, ShardedDriver};
use adcast::durability::{
    fs_backend, recover, Durability, DurabilityOptions, FsyncPolicy, WalOptions,
};
use adcast::net::client::ClientConfig;
use adcast::net::{ClusterConfig, ClusterState, Node, ReplicaSetup, Server, ServerConfig};
use adcast::obs::flightrec::{recovery_step, EventKind};
use adcast::obs::{flightrec, install_panic_dump, ObsServer};

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag(args: &[String], name: &str) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{name} needs a value"))?
            .parse()
            .map(Some)
            .map_err(|e| format!("{name}: {e}")),
    }
}

fn str_flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(String::as_str)
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: adcast-serve [--addr HOST:PORT] [--users N] [--shards N] \
             [--queue-depth N] [--data-dir PATH] [--fsync always|off|every=N] \
             [--snapshot-every N] [--obs-addr HOST:PORT] [--partition N \
             [--epoch N] [--role primary|follower] [--follower HOST:PORT]]"
        );
        return Ok(());
    }
    let addr = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .map_or("127.0.0.1:0", String::as_str);
    let users = flag(args, "--users")?.unwrap_or(4_000) as u32;
    let shards = flag(args, "--shards")?.unwrap_or(2).max(1) as usize;
    let queue_depth = flag(args, "--queue-depth")?.unwrap_or(64) as usize;
    let data_dir = str_flag(args, "--data-dir")?.map(PathBuf::from);
    let fsync = match str_flag(args, "--fsync")? {
        Some(s) => FsyncPolicy::parse(s)?,
        None => FsyncPolicy::Always,
    };
    let snapshot_every = flag(args, "--snapshot-every")?.unwrap_or(10_000);
    let obs_addr = str_flag(args, "--obs-addr")?;
    let partition = flag(args, "--partition")?;
    let epoch = flag(args, "--epoch")?.unwrap_or(0);
    let role = str_flag(args, "--role")?.unwrap_or("primary");
    let follower_addr = str_flag(args, "--follower")?;
    if partition.is_none() && (follower_addr.is_some() || str_flag(args, "--role")?.is_some()) {
        return Err("--role/--follower need --partition (cluster mode)".into());
    }
    if partition.is_some() && data_dir.is_none() {
        return Err("cluster mode replicates WAL records; --partition needs --data-dir".into());
    }
    let partition = match partition {
        Some(p) => Some(
            u16::try_from(p).map_err(|_| format!("--partition {p} exceeds the u16 wire header"))?,
        ),
        None => None,
    };
    let state = match (partition, role) {
        (None, _) => ClusterState::standalone(),
        (Some(p), "primary") => ClusterState::primary(p, epoch),
        (Some(p), "follower") => {
            if follower_addr.is_some() {
                return Err("--follower names a primary's replication target; \
                            a --role follower node has none"
                    .into());
            }
            ClusterState::follower(p, epoch)
        }
        (Some(_), other) => return Err(format!("--role {other}: expected primary or follower")),
    };

    // The flight recorder survives a crash only if something dumps it:
    // with a data dir, wire the panic hook (and the server's shutdown /
    // ObsDump paths) to PATH/flightrec.jsonl.
    let flightrec_path = data_dir.as_ref().map(|dir| dir.join("flightrec.jsonl"));
    if let Some(path) = &flightrec_path {
        install_panic_dump(path);
    }

    let config = ServerConfig {
        queue_depth,
        flightrec_path,
        ..ServerConfig::default()
    };
    let engine_config = EngineConfig::default();

    let node = match data_dir {
        None => {
            let driver = ShardedDriver::new(users, shards, engine_config);
            Node::new(AdStore::new(), driver, None, ClusterConfig::default())
        }
        Some(dir) => {
            let wal_options = WalOptions {
                fsync,
                ..WalOptions::default()
            };
            let recovered = recover(&dir, users, shards, engine_config.clone(), wal_options)
                .map_err(|e| format!("recover {}: {e}", dir.display()))?;
            let report = recovered.report;
            flightrec().record(
                EventKind::RecoveryStep,
                recovery_step::SNAPSHOT_LOADED,
                report.snapshot_lsn.unwrap_or(0),
                0,
            );
            flightrec().record(
                EventKind::RecoveryStep,
                recovery_step::WAL_REPLAYED,
                report.replayed_records,
                0,
            );
            flightrec().record(
                EventKind::RecoveryStep,
                recovery_step::TAIL_TRUNCATED,
                report.truncated_bytes,
                0,
            );
            match report.snapshot_lsn {
                Some(lsn) => eprintln!(
                    "recovered from snapshot at lsn {lsn} + {} wal record(s) \
                     ({} torn byte(s) truncated, {} corrupt snapshot(s) skipped)",
                    report.replayed_records, report.truncated_bytes, report.snapshots_skipped
                ),
                None if report.replayed_records > 0 => eprintln!(
                    "recovered from wal alone: {} record(s) replayed ({} torn byte(s) truncated)",
                    report.replayed_records, report.truncated_bytes
                ),
                None => eprintln!("cold start: {} is empty", dir.display()),
            }
            let options = DurabilityOptions {
                wal: wal_options,
                snapshot_every,
                ..DurabilityOptions::default()
            };
            let durability = Durability::new(&dir, recovered.wal, options, report);
            eprintln!(
                "durable mode: data dir {}, fsync {fsync}, snapshot every {snapshot_every} record(s)",
                dir.display()
            );
            let cluster = match partition {
                None => ClusterConfig::default(),
                Some(p) => {
                    eprintln!(
                        "cluster mode: partition {p} epoch {epoch} role {role}{}",
                        follower_addr
                            .map(|f| format!(", replicating to {f}"))
                            .unwrap_or_default()
                    );
                    let sink = follower_addr.map(|f| {
                        Box::new(TcpSink::new(p, f, ClientConfig::default()))
                            as Box<dyn adcast::net::ReplicationSink>
                    });
                    let replica = Some(ReplicaSetup {
                        backend: fs_backend(&dir),
                        options,
                        engine: engine_config,
                    });
                    ClusterConfig {
                        state,
                        sink,
                        replica,
                    }
                }
            };
            Node::new(recovered.store, recovered.driver, Some(durability), cluster)
        }
    };
    let server = Server::start(addr, config, node).map_err(|e| {
        let addr_in_use = matches!(
            &e,
            adcast::net::codec::NetError::Io(io) if io.kind() == std::io::ErrorKind::AddrInUse
        );
        if addr_in_use {
            format!(
                "bind {addr}: address already in use — another adcast-serve (or other \
                 process) owns this port; stop it or pick a different --addr"
            )
        } else {
            format!("bind {addr}: {e}")
        }
    })?;
    let obs_server = match obs_addr {
        None => None,
        Some(obs_addr) => Some(
            ObsServer::start(obs_addr, adcast::obs::registry())
                .map_err(|e| format!("bind obs {obs_addr}: {e}"))?,
        ),
    };
    // Scripts wait for this exact line to learn the ephemeral port.
    println!("listening on {}", server.addr());
    if let Some(obs) = &obs_server {
        // Scripts parse this line too (obs port 0 is also ephemeral).
        println!("obs listening on {}", obs.addr());
    }
    eprintln!("serving {users} users across {shards} shard(s), queue depth {queue_depth}");
    server.join();
    if let Some(obs) = obs_server {
        obs.stop();
    }
    eprintln!("shut down cleanly");
    Ok(())
}
