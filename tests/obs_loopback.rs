//! End-to-end observability test: a scripted workload over a loopback
//! server, then a real HTTP scrape of `/metrics` whose histogram counts
//! must agree with the `Stats` RPC's counters.
//!
//! This file holds exactly ONE `#[test]`: the metrics registry and the
//! flight recorder are process-wide by design, so a second concurrent
//! server in the same binary would fold its RPCs into the same families
//! and break the exact-count assertions below.

use adcast::ads::AdStore;
use adcast::core::{EngineConfig, ShardedDriver};
use adcast::net::client::{Client, ClientConfig};
use adcast::net::server::{Server, ServerConfig};
use adcast::net::synth::{self, SynthConfig};
use adcast::net::{ClusterConfig, Node};
use adcast::obs::{find_family, histogram_quantile, http_get, parse_exposition, ObsServer};

#[test]
fn metrics_scrape_matches_server_stats() {
    let dir = std::env::temp_dir().join(format!("adcast-obs-loopback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let flightrec_path = dir.join("flightrec.jsonl");

    let workload = synth::build(&SynthConfig {
        num_users: 96,
        num_ads: 40,
        messages: 300,
        batch_size: 60,
        msgs_per_sec: 200.0,
        seed: 7,
    });
    let driver = ShardedDriver::new(workload.num_users, 2, EngineConfig::default());
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            flightrec_path: Some(flightrec_path.clone()),
            ..ServerConfig::default()
        },
        Node::new(AdStore::new(), driver, None, ClusterConfig::default()),
    )
    .expect("bind loopback");
    let obs = ObsServer::start("127.0.0.1:0", adcast::obs::registry()).expect("bind obs");
    let obs_addr = obs.addr().to_string();

    // Scripted workload on one connection so every count is exact.
    let mut client = Client::connect(server.addr().to_string(), &ClientConfig::default()).unwrap();
    for spec in &workload.campaigns {
        client.submit_campaign(spec.clone()).unwrap();
    }
    let mut ingests = 0u64;
    for batch in &workload.batches {
        client.ingest(batch.clone()).unwrap();
        ingests += 1;
    }
    let recommends = 25u64;
    for u in 0..recommends {
        let user = adcast::graph::UserId(u as u32 % workload.num_users);
        let location = workload.homes[user.index()];
        client
            .recommend(user, workload.end_time, location, 5)
            .unwrap();
    }
    // One lifecycle maintenance pass, far enough past the workload that
    // every user is idle; its telemetry must land in the same scrape.
    let maint_now = adcast::stream::clock::Timestamp(workload.end_time.0 + 10_000_000);
    let idle_for = adcast::stream::clock::Duration::from_secs(1);
    let (scanned, decayed, pruned) = client.maintain(maint_now, idle_for).unwrap();
    assert!(scanned > 0, "maintenance must scan the user set");
    assert!(decayed > 0, "every user is idle 10s with a 1s threshold");
    let stats = client.stats().unwrap();

    // Scrape between the Stats RPC and any further traffic, so the
    // families and the RPC snapshot describe the same history.
    let (status, body) = http_get(&obs_addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let families = parse_exposition(&body).expect("exposition validates");

    let ingest_ns = find_family(&families, "adcast_net_ingest_ns").expect("ingest family");
    assert_eq!(
        ingest_ns.sample_value("adcast_net_ingest_ns_count"),
        Some(ingests as f64),
        "ingest histogram count vs scripted ingest RPCs"
    );
    let recommend_ns = find_family(&families, "adcast_net_recommend_ns").expect("recommend family");
    assert_eq!(
        recommend_ns.sample_value("adcast_net_recommend_ns_count"),
        Some(stats.recommends as f64),
        "recommend histogram count vs ServerStats.recommends"
    );
    assert_eq!(stats.recommends, recommends);
    let rpcs = find_family(&families, "adcast_net_rpcs_total").expect("rpcs family");
    assert_eq!(
        rpcs.sample_value("adcast_net_rpcs_total"),
        Some(stats.rpcs as f64),
        "rpcs counter vs ServerStats.rpcs"
    );
    let queue_wait = find_family(&families, "adcast_net_queue_wait_ns").expect("queue family");
    assert_eq!(
        queue_wait.sample_value("adcast_net_queue_wait_ns_count"),
        Some(stats.rpcs as f64),
        "every engine-served RPC gets a queue-wait observation"
    );
    // Maintenance counters agree with the RPC's returned counts, and the
    // pass span recorded exactly one observation.
    let maint_scanned =
        find_family(&families, "adcast_maint_scanned_total").expect("maint scanned family");
    assert_eq!(
        maint_scanned.sample_value("adcast_maint_scanned_total"),
        Some(scanned as f64),
        "scanned counter vs Maintain reply"
    );
    let maint_decayed =
        find_family(&families, "adcast_maint_decayed_total").expect("maint decayed family");
    assert_eq!(
        maint_decayed.sample_value("adcast_maint_decayed_total"),
        Some(decayed as f64),
        "decayed counter vs Maintain reply"
    );
    let maint_pruned =
        find_family(&families, "adcast_maint_pruned_total").expect("maint pruned family");
    assert_eq!(
        maint_pruned.sample_value("adcast_maint_pruned_total"),
        Some(pruned as f64),
        "pruned counter vs Maintain reply"
    );
    let maint_pass = find_family(&families, "adcast_maint_pass_ns").expect("maint span family");
    assert_eq!(
        maint_pass.sample_value("adcast_maint_pass_ns_count"),
        Some(1.0),
        "exactly one maintenance pass ran"
    );
    let p50 = histogram_quantile(recommend_ns, 0.50).unwrap();
    let p99 = histogram_quantile(recommend_ns, 0.99).unwrap();
    assert!(p50 <= p99, "recommend p50 {p50} > p99 {p99}");
    // The bugfixed reaping gauge exists and a live connection keeps it ≥ 1.
    let readers = find_family(&families, "adcast_net_reader_threads").expect("reader gauge");
    assert!(
        readers.sample_value("adcast_net_reader_threads") >= Some(1.0),
        "a connected client must show as a live reader thread"
    );

    let (health_status, health_body) = http_get(&obs_addr, "/healthz").unwrap();
    assert_eq!(health_status, 200);
    assert_eq!(health_body, "ok\n");

    // The ObsDump RPC writes the flight recorder; the scripted admissions
    // must be in it.
    let events = client.obs_dump().expect("obs dump");
    assert!(events > 0, "flight recorder captured nothing");
    let dump = std::fs::read_to_string(&flightrec_path).unwrap();
    assert!(dump.contains("\"event\":\"admission\""), "{dump}");
    assert!(
        dump.contains("\"event\":\"maintenance\""),
        "maintenance pass must leave a flight-recorder event: {dump}"
    );

    client.shutdown().unwrap();
    server.join();

    // After join every reader has exited and decremented the gauge.
    let (_, body) = http_get(&obs_addr, "/metrics").unwrap();
    let families = parse_exposition(&body).expect("exposition validates after shutdown");
    let readers = find_family(&families, "adcast_net_reader_threads").unwrap();
    assert_eq!(
        readers.sample_value("adcast_net_reader_threads"),
        Some(0.0),
        "reader threads must all be reaped after join()"
    );
    // The shutdown path also dumps the ring.
    let dump = std::fs::read_to_string(&flightrec_path).unwrap();
    assert!(dump.contains("\"event\":\"shutdown\""), "{dump}");

    obs.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
