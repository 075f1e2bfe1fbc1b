//! A pacing flight over the real TCP router: two partition primaries
//! behind a router, each on its own durable data directory. The router
//! broadcasts `SetPacing` like any campaign write, so a flight for a
//! live campaign is logged once on every partition, and one for an
//! unknown campaign is refused before any partition logs it.

use adcast::ads::AdId;
use adcast::cluster::{PartitionMap, Router, RouterConfig};
use adcast::net::client::{Client, ClientConfig};
use adcast::net::server::Server;
use adcast::net::{CampaignSpec, ClusterState, Request, Response, WireError};
use adcast::stream::clock::Timestamp;
use adcast::text::dictionary::TermId;
use adcast::text::SparseVector;

mod common;
use common::{cluster_node, temp_backend};

/// Every node's durable LSN (its `next_lsn`), asked of the node itself.
fn durable_lsns(nodes: &[Server]) -> Vec<u64> {
    nodes
        .iter()
        .map(|node| {
            let mut client = Client::connect(node.addr().to_string(), &ClientConfig::default())
                .expect("connect to a node");
            client.cluster_status().expect("cluster status").durable_lsn
        })
        .collect()
}

fn flight(ad: AdId) -> Request {
    Request::SetPacing {
        ad,
        start: Timestamp::from_secs(0),
        end: Timestamp::from_secs(3_600),
        budget: 25.0,
    }
}

#[test]
fn set_pacing_is_logged_once_on_every_partition_or_nowhere() {
    let nodes: Vec<Server> = (0..2u16)
        .map(|p| {
            let backend = temp_backend(&format!("pacing-p{p}"));
            cluster_node(ClusterState::primary(p, 0), None, &backend, 16)
        })
        .collect();
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let map = PartitionMap::parse(&addrs).expect("partition map");
    let router = Router::start("127.0.0.1:0", &map, RouterConfig::default()).expect("bind router");
    let mut client = Client::connect(router.addr().to_string(), &ClientConfig::default()).unwrap();

    let spec = CampaignSpec::unrestricted(SparseVector::from_pairs([(TermId(1), 1.0)]), 1.0);
    let ad = client.submit_campaign(spec).unwrap();
    let before = durable_lsns(&nodes);
    assert_eq!(
        before,
        [1, 1],
        "the submission is logged on every partition"
    );

    let reply = client.call(&flight(ad)).unwrap();
    assert_eq!(reply, Response::PacingSet { ad });
    let after: Vec<u64> = before.iter().map(|lsn| lsn + 1).collect();
    assert_eq!(durable_lsns(&nodes), after, "one record per partition");

    let unknown = AdId(ad.0 + 100);
    let reply = client.call(&flight(unknown)).unwrap();
    assert_eq!(reply, Response::Error(WireError::UnknownCampaign(unknown)));
    assert_eq!(durable_lsns(&nodes), after, "a refused flight was logged");

    client.shutdown().unwrap();
    router.join();
    for node in nodes {
        node.join();
    }
}
