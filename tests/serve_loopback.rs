//! Loopback integration tests for the serving layer: the socket path must
//! be a transparent front on the in-process engine (bit-identical
//! results), backpressure must shed rather than buffer, and shutdown must
//! drain and join.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use adcast::ads::AdStore;
use adcast::core::{EngineConfig, ShardedDriver};
use adcast::graph::UserId;
use adcast::net::client::{Client, ClientConfig};
use adcast::net::codec::NetError;
use adcast::net::loadgen::{run, LoadgenConfig};
use adcast::net::protocol::{Request, Response, WireError};
use adcast::net::server::{Server, ServerConfig};
use adcast::net::synth::{self, SynthConfig};
use adcast::net::{ClusterConfig, Node};

const SHARDS: usize = 2;

fn small_workload() -> synth::SynthWorkload {
    synth::build(&SynthConfig {
        num_users: 128,
        num_ads: 60,
        messages: 400,
        batch_size: 100,
        msgs_per_sec: 200.0,
        seed: 42,
    })
}

fn start_server(num_users: u32, config: ServerConfig) -> Server {
    let driver = ShardedDriver::new(num_users, SHARDS, EngineConfig::default());
    let node = Node::new(AdStore::new(), driver, None, ClusterConfig::default());
    Server::start("127.0.0.1:0", config, node).expect("bind loopback")
}

/// (a) Recommendations served over the socket are bit-identical to an
/// in-process engine twin fed the same campaigns and deltas in the same
/// order.
#[test]
fn socket_recommendations_match_in_process_engine() {
    let workload = small_workload();

    // Local twin: same shard count, same submission and ingest order.
    let mut local_store = AdStore::new();
    let mut local_driver = ShardedDriver::new(workload.num_users, SHARDS, EngineConfig::default());
    for spec in &workload.campaigns {
        local_store
            .submit(spec.clone().try_into_submission().unwrap())
            .unwrap();
    }
    for batch in &workload.batches {
        local_driver
            .process_batch(&local_store, batch.clone())
            .unwrap();
    }

    // Remote: one connection, sequential RPCs, so the engine thread sees
    // the identical order.
    let server = start_server(workload.num_users, ServerConfig::default());
    let addr = server.addr().to_string();
    let mut client = Client::connect(addr.as_str(), &ClientConfig::default()).unwrap();
    for spec in &workload.campaigns {
        client.submit_campaign(spec.clone()).unwrap();
    }
    for batch in &workload.batches {
        let accepted = client.ingest(batch.clone()).unwrap();
        assert_eq!(accepted as usize, batch.len());
    }

    for u in 0..workload.num_users {
        let user = UserId(u);
        let location = workload.homes[user.index()];
        let remote = client
            .recommend(user, workload.end_time, location, 5)
            .unwrap();
        let local = local_driver.recommend(&local_store, user, workload.end_time, location, 5);
        assert_eq!(remote.len(), local.len(), "user {u}: result count");
        for (r, l) in remote.iter().zip(&local) {
            assert_eq!(r.ad, l.ad, "user {u}: ad identity");
            assert_eq!(
                r.score.to_bits(),
                l.score.to_bits(),
                "user {u}: score must be bit-identical ({} vs {})",
                r.score,
                l.score
            );
            assert_eq!(
                r.relevance.to_bits(),
                l.relevance.to_bits(),
                "user {u}: relevance must be bit-identical"
            );
        }
    }

    client.shutdown().unwrap();
    server.join();
}

/// (b) A saturated ingest queue sheds with a typed Overloaded reply and
/// bumps the shed counter — it never buffers unboundedly or hangs.
#[test]
fn saturated_queue_sheds_with_overloaded() {
    let workload = Arc::new(small_workload());
    // One giant batch so each ingest occupies the engine long enough for
    // concurrent senders to find the single queue slot taken.
    let big_batch: Vec<_> = workload.batches.iter().flatten().cloned().collect();
    assert!(big_batch.len() > 500, "workload too small to saturate");

    let server = start_server(
        workload.num_users,
        ServerConfig {
            queue_depth: 1,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();

    let mut joins = Vec::new();
    for _ in 0..4 {
        let addr = addr.clone();
        let batch = big_batch.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr.as_str(), &ClientConfig::default()).unwrap();
            let mut sheds = 0u64;
            let mut accepted = 0u64;
            for _ in 0..8 {
                match client.ingest(batch.clone()) {
                    Ok(_) => accepted += 1,
                    Err(NetError::Remote(WireError::Overloaded)) => sheds += 1,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            (sheds, accepted)
        }));
    }
    let mut total_sheds = 0u64;
    let mut total_accepted = 0u64;
    for join in joins {
        let (sheds, accepted) = join.join().unwrap();
        total_sheds += sheds;
        total_accepted += accepted;
    }
    assert!(total_accepted > 0, "no batch was ever admitted");
    assert!(
        total_sheds > 0,
        "4 concurrent senders against queue_depth=1 never got shed"
    );

    // The shed counter the server reports must cover what clients saw.
    let mut client = Client::connect(addr.as_str(), &ClientConfig::default()).unwrap();
    let stats = client.stats().unwrap();
    assert!(
        stats.shed >= total_sheds,
        "server shed counter {} < client-observed sheds {total_sheds}",
        stats.shed
    );
    assert_eq!(stats.queue_capacity, 1);

    client.shutdown().unwrap();
    server.join();
}

/// (c) Shutdown drains in-flight requests (admitted ingests still get
/// real replies) and every server thread joins.
#[test]
fn shutdown_drains_and_joins() {
    let workload = Arc::new(small_workload());
    let server = start_server(workload.num_users, ServerConfig::default());
    let addr = server.addr().to_string();

    // A writer hammers ingest while shutdown lands from another
    // connection. Admitted requests must get real replies; post-shutdown
    // requests may see ShuttingDown or a closed connection — never a hang
    // or a protocol error. Shutdown is sent once the writer's first batch
    // is through (a fixed sleep raced the writer's connect on a loaded
    // machine), so it always lands mid-stream.
    let (first_tx, first_rx) = mpsc::channel();
    let writer = {
        let addr = addr.clone();
        let workload = Arc::clone(&workload);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr.as_str(), &ClientConfig::default()).unwrap();
            let mut accepted = 0u64;
            'outer: for _ in 0..50 {
                for batch in &workload.batches {
                    match client.call(&Request::Ingest {
                        deltas: batch.clone(),
                    }) {
                        Ok(Response::Ingested { .. }) => {
                            accepted += 1;
                            let _ = first_tx.send(());
                        }
                        Ok(Response::Error(WireError::ShuttingDown)) => break 'outer,
                        Ok(Response::Error(WireError::Overloaded)) => {}
                        Ok(other) => panic!("unexpected reply: {other:?}"),
                        Err(NetError::UnexpectedEof | NetError::Io(_)) => break 'outer,
                        Err(e) => panic!("unexpected transport error: {e}"),
                    }
                }
            }
            accepted
        })
    };

    first_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("writer never got a single batch through");
    let mut shutter = Client::connect(addr.as_str(), &ClientConfig::default()).unwrap();
    shutter.shutdown().expect("shutdown is acked");

    let accepted = writer.join().unwrap();
    assert!(accepted > 0, "writer never got a single batch through");

    // join() must complete promptly (watchdog: a drain/join bug would
    // otherwise hang the test forever).
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("server threads did not join within 30s of shutdown");

    // The listener is gone: a fresh RPC cannot be served any more.
    if let Ok(mut late) = Client::connect(
        addr.as_str(),
        &ClientConfig {
            connect_attempts: 1,
            ..ClientConfig::default()
        },
    ) {
        assert!(late.stats().is_err(), "server still serving after join");
    }
}

/// The loadgen harness drives a real server end to end and reports
/// consistent numbers.
#[test]
fn loadgen_round_trip_reports_consistent_numbers() {
    let workload = Arc::new(small_workload());
    let server = start_server(workload.num_users, ServerConfig::default());
    let addr = server.addr().to_string();

    let config = LoadgenConfig {
        connections: 2,
        ..LoadgenConfig::new(addr.clone())
    };
    let report = run(&config, &workload).expect("loadgen run");
    assert_eq!(report.connections, 2);
    assert_eq!(report.deltas_accepted as usize, workload.total_deltas());
    assert!(report.responses > 0);
    assert!(report.rtt.count() >= report.responses);
    assert!(report.deltas_per_sec() > 0.0);
    // Every delta the clients pushed reached the engine.
    assert_eq!(report.server.deltas, report.deltas_accepted);
    assert_eq!(
        report.server.active_campaigns as usize,
        workload.campaigns.len()
    );

    let mut client = Client::connect(addr.as_str(), &ClientConfig::default()).unwrap();
    client.shutdown().unwrap();
    server.join();
}
