//! The in-process cluster harness the loopback tests share: durable
//! cluster nodes on fresh temporary directories, served over real TCP.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adcast::ads::AdStore;
use adcast::core::{EngineConfig, ShardedDriver};
use adcast::durability::{
    fs_backend, Durability, DurabilityOptions, RecoveryReport, StorageBackend, WalOptions,
    WalWriter,
};
use adcast::net::server::{Server, ServerConfig};
use adcast::net::{ClusterConfig, ClusterState, Node, ReplicaSetup, ReplicationSink};

/// A fresh temporary data directory, named after `tag`.
pub fn temp_backend(tag: &str) -> Arc<dyn StorageBackend> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "adcast-loop-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    fs_backend(&dir)
}

fn fresh_durability(backend: &Arc<dyn StorageBackend>) -> Durability {
    let wal = WalWriter::create_on(Arc::clone(backend), WalOptions::default(), 0).unwrap();
    Durability::new_on(
        Arc::clone(backend),
        wal,
        DurabilityOptions::default(),
        RecoveryReport::default(),
    )
}

/// A durable node of `state`'s role serving `num_users` users on
/// `backend`, listening on a loopback port; a primary ships into `sink`.
pub fn cluster_node(
    state: ClusterState,
    sink: Option<Box<dyn ReplicationSink>>,
    backend: &Arc<dyn StorageBackend>,
    num_users: u32,
) -> Server {
    let node = Node::new(
        AdStore::new(),
        ShardedDriver::new(num_users, 1, EngineConfig::default()),
        Some(fresh_durability(backend)),
        ClusterConfig {
            state,
            sink,
            replica: Some(ReplicaSetup {
                backend: Arc::clone(backend),
                options: DurabilityOptions::default(),
                engine: EngineConfig::default(),
            }),
        },
    );
    Server::start("127.0.0.1:0", ServerConfig::default(), node).expect("bind cluster node")
}
