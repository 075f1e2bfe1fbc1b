//! Sharded multi-threaded driver (the E10 scalability experiment).
//!
//! Users are partitioned across shards by id; each shard owns a private
//! engine instance, so no engine state is ever shared between threads —
//! the only shared structure is the read-only [`AdStore`] borrow.
//!
//! ## Worker-pool protocol
//!
//! Workers are **persistent**: `new` spawns one long-lived thread per
//! shard (for `num_shards > 1`) and `process_batch` never spawns or joins
//! anything. Each batch is pre-partitioned into per-shard slabs
//! (`Vec<(UserId, FeedDelta)>`) and handed over with **one** channel send
//! per shard, users already mapped to their shard-local ids; the worker
//! applies the slab with one [`IncrementalEngine::apply_batch`] call (the
//! entry the single-shard inline path uses too) and returns the emptied
//! slab on a per-worker ack channel. `process_batch` blocks
//! until every shard has acked — that barrier is what makes the raw
//! `*const AdStore` handed to the workers sound (the borrow outlives all
//! uses) and it recycles the slabs, so a steady batch loop performs no
//! per-item channel traffic and no per-batch thread churn. Dropping the
//! driver sends each worker a shutdown message and joins it.
//!
//! The ack barrier holds on the failure paths too: when a send fails or a
//! worker dies mid-batch, `process_batch` drains the acks of every worker
//! that received the batch *before* returning the [`DriverError`] (a live
//! worker that has not acked may still be dereferencing the store
//! pointer), then marks the driver dead so later batches fail fast with
//! [`DriverError::Dead`] instead of dispatching to a pool in an unknown
//! state.
//!
//! ## Memory
//!
//! Each shard's engine holds state **only for its resident users**: user
//! `u` lives on shard `u % S` at local index `u / S`, so shard `s` sizes
//! its engine to `ceil((N − s) / S)` users. Total per-user state is
//! independent of the shard count (an earlier revision allocated all `N`
//! user slots in every shard, overstating `memory_bytes` by ~`S×`).
//!
//! This mirrors how a production deployment scales the algorithm: the
//! per-user state is embarrassingly partitionable, and the ad index is
//! read-mostly (campaign churn is orders of magnitude rarer than feed
//! updates and is applied between processing waves).

use adcast_ads::{AdId, AdStore};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_stream::clock::Timestamp;
use adcast_stream::event::LocationId;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::config::{DriverConfig, EngineConfig};
use crate::engine::{EngineStats, IncrementalEngine, Recommendation, RecommendationEngine};

/// A batch slab: one shard's share of a `process_batch` call, keyed by
/// shard-local user ids.
type Slab = Vec<(UserId, FeedDelta)>;

/// Why a batch could not be processed.
///
/// A serving layer maps these to load-shedding responses (report the
/// driver `Unavailable` and keep the process alive) instead of crashing;
/// see `adcast-net`. Read paths (`stats`, `recommend`, `memory_bytes`)
/// keep working on a dead driver so the failure can be reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverError {
    /// A shard worker died (panicked) while processing *this* batch; its
    /// share of the deltas is lost and the driver is now dead.
    WorkerDied {
        /// The shard whose worker died.
        shard: usize,
    },
    /// The driver was already dead before this batch was dispatched (an
    /// earlier batch returned [`DriverError::WorkerDied`]); nothing was
    /// handed to the surviving workers.
    Dead,
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::WorkerDied { shard } => {
                write!(f, "shard worker {shard} died processing a batch")
            }
            DriverError::Dead => {
                write!(
                    f,
                    "ShardedDriver is dead: a shard worker died in an earlier batch"
                )
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// The read-only store borrow smuggled to the workers for the duration of
/// one batch. Soundness: `process_batch` does not return until every
/// worker has acked the batch, so the pointee outlives every dereference.
struct StorePtr(*const AdStore);
#[expect(
    unsafe_code,
    reason = "the pointer crosses to the shard threads; the ack barrier bounds its lifetime"
)]
// SAFETY: AdStore is Sync (machine-checked below, so this impl breaks the
// build instead of silently racing if AdStore ever gains interior
// mutability) and the barrier in `process_batch` bounds the pointer's
// lifetime to the caller's borrow.
unsafe impl Send for StorePtr {}
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<AdStore>()
};

enum WorkerMsg {
    Batch { store: StorePtr, items: Slab },
    Shutdown,
}

struct Worker {
    /// Bounded at one message: the ack barrier drains every dispatched
    /// batch before `process_batch` returns, so at most one `Batch` (or,
    /// after it, one `Shutdown`) is ever queued and sends never block.
    tx: SyncSender<WorkerMsg>,
    /// Per-worker ack channel: the emptied slab comes back when the batch
    /// is done. A dropped sender (worker panic) turns `recv` into an
    /// error instead of a deadlock. Bounded at one for the same reason as
    /// `tx`: one ack per batch, drained before the next dispatch.
    ack_rx: Receiver<Slab>,
    join: Option<JoinHandle<()>>,
}

/// A sharded pool of incremental engines behind persistent worker threads.
pub struct ShardedDriver {
    engines: Vec<Arc<Mutex<IncrementalEngine>>>,
    num_users: u32,
    /// Empty for `num_shards == 1` (batches run inline on the caller).
    workers: Vec<Worker>,
    /// Recycled partition slabs, one per shard.
    slabs: Vec<Slab>,
    /// Set when a worker died mid-batch. Further `process_batch` calls
    /// fail fast instead of handing new slabs (and a new [`StorePtr`]) to
    /// the surviving workers of a pool in an unknown state; read paths
    /// (`stats`, `memory_bytes`, `recommend`) keep working.
    dead: bool,
    /// Span timing: partition + send time per pooled batch.
    fanout_ns: adcast_obs::Hist,
    /// Span timing: ack-barrier wait per pooled batch.
    ack_wait_ns: adcast_obs::Hist,
}

/// Number of users resident on shard `s` under `u % num_shards` routing.
fn residents(num_users: u32, num_shards: usize, s: usize) -> u32 {
    let (n, k) = (num_users as usize, num_shards);
    if s >= n {
        0
    } else {
        ((n - s).div_ceil(k)) as u32
    }
}

impl ShardedDriver {
    /// Create `num_shards` engines over `num_users` users and spawn the
    /// worker pool (threads are spawned **once**, here, never per batch).
    ///
    /// # Panics
    ///
    /// Panics when `num_shards == 0`, the configuration is invalid, or a
    /// worker thread cannot be spawned.
    pub fn new(num_users: u32, num_shards: usize, config: EngineConfig) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let engines: Vec<Arc<Mutex<IncrementalEngine>>> = (0..num_shards)
            .map(|s| {
                Arc::new(Mutex::new(IncrementalEngine::new(
                    residents(num_users, num_shards, s),
                    config.clone(),
                )))
            })
            .collect();
        let workers = if num_shards == 1 {
            Vec::new()
        } else {
            engines
                .iter()
                .enumerate()
                .map(|(s, engine)| {
                    let engine = Arc::clone(engine);
                    let (tx, rx) = mpsc::sync_channel::<WorkerMsg>(1);
                    let (ack_tx, ack_rx) = mpsc::sync_channel::<Slab>(1);
                    let join = std::thread::Builder::new()
                        .name(format!("adcast-shard-{s}"))
                        .spawn(move || worker_loop(&engine, &rx, &ack_tx))
                        .expect("spawn shard worker");
                    Worker {
                        tx,
                        ack_rx,
                        join: Some(join),
                    }
                })
                .collect()
        };
        let reg = adcast_obs::registry();
        ShardedDriver {
            engines,
            num_users,
            workers,
            slabs: (0..num_shards).map(|_| Vec::new()).collect(),
            dead: false,
            fanout_ns: reg.hist(
                "adcast_core_fanout_ns",
                "Per-batch shard partition and worker dispatch time.",
            ),
            ack_wait_ns: reg.hist(
                "adcast_core_ack_wait_ns",
                "Per-batch ack-barrier wait for the slowest shard worker.",
            ),
        }
    }

    /// [`ShardedDriver::new`] from a validated [`DriverConfig`].
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    pub fn with_config(num_users: u32, config: DriverConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid driver config: {e}"));
        Self::new(num_users, config.num_shards, config.engine)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// The shard owning `user`.
    pub fn shard_of(&self, user: UserId) -> usize {
        user.index() % self.engines.len()
    }

    /// `user`'s index within its shard's engine.
    fn local(&self, user: UserId) -> UserId {
        UserId((user.index() / self.engines.len()) as u32)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the caller holds the guard for one engine call and nothing that blocks; \
                  the shard's worker takes the same lock only inside a batch the driver waits on"
    )]
    fn lock_engine(&self, shard: usize) -> MutexGuard<'_, IncrementalEngine> {
        // Poison-tolerant: a worker that panicked mid-batch poisons its
        // engine mutex, but read paths (stats, memory) must still work so
        // the failure can be reported.
        self.engines[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Process a batch of feed deltas in parallel across shards.
    /// Returns `Ok(())` when every delta has been applied.
    ///
    /// # Errors
    ///
    /// [`DriverError::WorkerDied`] when a worker thread died processing
    /// this batch (e.g. a poisoned delta made it panic) — the barrier
    /// converts the lost ack into an error instead of waiting forever.
    /// The driver is then **dead**: subsequent `process_batch` calls fail
    /// fast with [`DriverError::Dead`] without dispatching to the
    /// surviving workers (read paths keep working). Either error path
    /// first drains the acks of every worker that received the batch, so
    /// no thread can still hold the [`StorePtr`] once this call returns.
    ///
    /// # Panics
    ///
    /// The inline single-shard path runs on the caller's thread, so a
    /// poisoned delta (e.g. an out-of-range user) panics the caller
    /// directly there; validate ids before calling from a network surface.
    pub fn process_batch(
        &mut self,
        store: &AdStore,
        deltas: Vec<(UserId, FeedDelta)>,
    ) -> Result<(), DriverError> {
        let num_shards = self.engines.len();
        if self.workers.is_empty() {
            // One shard: every user's local id is its global id.
            self.lock_engine(0).apply_batch(store, &deltas);
            return Ok(());
        }
        if self.dead {
            return Err(DriverError::Dead);
        }
        // Partition into recycled slabs: one send per shard per batch.
        let fanout_started = adcast_stream::clock::now_ns();
        let mut slabs = std::mem::take(&mut self.slabs);
        while slabs.len() < num_shards {
            slabs.push(Vec::new()); // only after a panicked batch lost slabs
        }
        for slab in &mut slabs {
            slab.clear();
        }
        for (user, delta) in deltas {
            let local = self.local(user);
            slabs[self.shard_of(user)].push((local, delta));
        }
        // Empty slabs are sent too: the ack protocol stays uniform (one
        // ack per worker per batch) and the slab keeps its capacity.
        // Track how many workers actually received the batch so the
        // failure path below drains exactly those acks.
        let mut sent = 0usize;
        for (worker, slab) in self.workers.iter().zip(slabs.drain(..)) {
            let msg = WorkerMsg::Batch {
                store: StorePtr(store),
                items: slab,
            };
            if worker.tx.send(msg).is_err() {
                break; // dead worker; earlier ones already hold the batch
            }
            sent += 1;
        }
        self.fanout_ns
            .record(adcast_stream::clock::now_ns().saturating_sub(fanout_started));
        // Barrier: one ack per worker that received the batch. Every such
        // ack must be drained — even after a failure — before this
        // function may return: a live worker that has not yet acked can
        // still be dereferencing the StorePtr, and the caller's `&AdStore`
        // borrow ends when we return (error included). Skipping the drain
        // here would be a use-after-free reachable from safe code.
        let mut dead_shard = if sent < self.workers.len() {
            Some(sent)
        } else {
            None
        };
        let ack_started = adcast_stream::clock::now_ns();
        for (s, worker) in self.workers.iter().take(sent).enumerate() {
            match worker.ack_rx.recv() {
                Ok(slab) => slabs.push(slab),
                Err(_) => {
                    dead_shard.get_or_insert(s);
                }
            }
        }
        self.ack_wait_ns
            .record(adcast_stream::clock::now_ns().saturating_sub(ack_started));
        self.slabs = slabs;
        if let Some(s) = dead_shard {
            self.dead = true;
            return Err(DriverError::WorkerDied { shard: s });
        }
        Ok(())
    }

    /// Has an earlier batch killed a worker? (Dead drivers refuse new
    /// batches but still serve reads.)
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Serve a recommendation from the owning shard.
    pub fn recommend(
        &mut self,
        store: &AdStore,
        user: UserId,
        now: Timestamp,
        location: LocationId,
        k: usize,
    ) -> Vec<Recommendation> {
        let shard = self.shard_of(user);
        let local = self.local(user);
        self.lock_engine(shard)
            .recommend(store, local, now, location, k)
    }

    /// Propagate campaign churn to every shard.
    pub fn on_campaign_removed(&mut self, ad: AdId) {
        for s in 0..self.engines.len() {
            self.lock_engine(s).on_campaign_removed(ad);
        }
    }

    /// Propagate a batch of campaign removals to every shard in one
    /// pass per shard (mass flight expiry stays O(users), not
    /// O(removals · users)).
    pub fn on_campaigns_removed(&mut self, ads: &[AdId]) {
        for s in 0..self.engines.len() {
            self.lock_engine(s).on_campaigns_removed(ads);
        }
    }

    /// Run a lifecycle maintenance pass over every shard: reset users
    /// idle for at least `idle_for` as of `now` (see
    /// [`IncrementalEngine::maintain`]). Runs on the caller's thread in
    /// shard order — maintenance is rare and cold, and the deterministic
    /// order keeps replay and recovery twins identical. Returns the
    /// summed `(scanned, decayed)` counts. Callers must ensure no batch
    /// is in flight (same contract as `export_snapshots`).
    pub fn maintain(
        &mut self,
        now: Timestamp,
        idle_for: adcast_stream::clock::Duration,
    ) -> (u64, u64) {
        let mut totals = (0u64, 0u64);
        for s in 0..self.engines.len() {
            let (scanned, decayed) = self.lock_engine(s).maintain(now, idle_for);
            totals.0 += scanned;
            totals.1 += decayed;
        }
        totals
    }

    /// Capture every shard's engine state (shard order). Callers must
    /// ensure no batch is in flight — the serving layer snapshots on the
    /// engine thread between batches, where the worker pool is idle.
    pub fn export_snapshots(&self) -> Vec<crate::snapshot::EngineSnapshot> {
        (0..self.engines.len())
            .map(|s| self.lock_engine(s).export_snapshot())
            .collect()
    }

    /// Restore shard engine states captured by
    /// [`export_snapshots`](Self::export_snapshots), moving each shard's
    /// state in. Shard count and per-shard user counts must match this
    /// driver's layout.
    ///
    /// # Errors
    ///
    /// A description of the mismatch; the driver may be partially
    /// restored and should be discarded on error.
    pub fn restore_snapshots(
        &mut self,
        snapshots: Vec<crate::snapshot::EngineSnapshot>,
    ) -> Result<(), String> {
        if snapshots.len() != self.engines.len() {
            return Err(format!(
                "snapshot holds {} shards, driver has {}",
                snapshots.len(),
                self.engines.len()
            ));
        }
        for (s, snap) in snapshots.into_iter().enumerate() {
            self.lock_engine(s)
                .restore_snapshot(snap)
                .map_err(|e| format!("shard {s}: {e}"))?;
        }
        Ok(())
    }

    /// Aggregate work counters across shards.
    pub fn stats(&self) -> EngineStats {
        (0..self.engines.len())
            .map(|s| self.lock_engine(s).stats().clone())
            .sum()
    }

    /// Total users.
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Approximate resident bytes across shards (engine state only covers
    /// resident users, so this no longer scales with `shards × users`).
    pub fn memory_bytes(&self) -> usize {
        let engines: usize = (0..self.engines.len())
            .map(|s| self.lock_engine(s).memory_bytes())
            .sum();
        let slabs: usize = self
            .slabs
            .iter()
            .map(|s| s.capacity() * std::mem::size_of::<(UserId, FeedDelta)>())
            .sum();
        engines + slabs + std::mem::size_of::<Self>()
    }
}

impl Drop for ShardedDriver {
    fn drop(&mut self) {
        for w in &self.workers {
            // A dead worker's channel is closed; that is fine, it needs no
            // shutdown message.
            let _ = w.tx.send(WorkerMsg::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(join) = w.join.take() {
                // A panicked worker yields Err; the panic was already
                // surfaced by the batch barrier.
                let _ = join.join();
            }
        }
    }
}

fn worker_loop(
    engine: &Mutex<IncrementalEngine>,
    rx: &Receiver<WorkerMsg>,
    ack_tx: &SyncSender<Slab>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Batch { store, mut items } => {
                #[expect(unsafe_code, reason = "the one dereference of the `StorePtr` hand-off")]
                // SAFETY: the driver blocks on this batch's ack before
                // `process_batch` returns, so the caller's `&AdStore`
                // borrow is still live for every dereference here.
                let store: &AdStore = unsafe { &*store.0 };
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the guard covers one `apply_batch` and nothing that blocks; \
                              the ack is sent after it drops"
                )]
                engine
                    .lock()
                    .expect("engine mutex poisoned")
                    .apply_batch(store, &items);
                items.clear();
                if ack_tx.send(items).is_err() {
                    return; // driver dropped mid-batch
                }
            }
            WorkerMsg::Shutdown => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast_ads::{AdSubmission, Budget, Targeting};
    use adcast_stream::event::{Message, MessageId};
    use adcast_text::dictionary::TermId;
    use adcast_text::SparseVector;
    use std::sync::Arc;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    fn store() -> AdStore {
        let mut s = AdStore::new();
        for t in 0..8u32 {
            s.submit(AdSubmission {
                vector: v(&[(t, 1.0)]),
                bid: 1.0,
                targeting: Targeting::everywhere(),
                budget: Budget::unlimited(),
                topic_hint: None,
            })
            .unwrap();
        }
        s
    }

    fn deltas(n: u64, users: u32) -> Vec<(UserId, FeedDelta)> {
        (0..n)
            .map(|i| {
                let user = UserId((i % users as u64) as u32);
                let msg = Arc::new(Message {
                    id: MessageId(i),
                    author: UserId(0),
                    ts: Timestamp::from_secs(i),
                    location: LocationId(0),
                    vector: v(&[((i % 8) as u32, 1.0)]),
                });
                (
                    user,
                    FeedDelta {
                        entered: Some(msg),
                        evicted: vec![],
                    },
                )
            })
            .collect()
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            k: 2,
            half_life: None,
            ..Default::default()
        }
    }

    #[test]
    fn resident_counts_cover_all_users() {
        for n in [0u32, 1, 3, 7, 8, 16, 100] {
            for k in [1usize, 2, 3, 4, 7, 16] {
                let total: u32 = (0..k).map(|s| residents(n, k, s)).sum();
                assert_eq!(total, n, "n={n} k={k}");
                for s in 0..k {
                    // Every resident's local index must be in range.
                    let max_local = (s..n as usize)
                        .step_by(k)
                        .map(|u| u / k)
                        .max()
                        .map(|m| m as u32);
                    if let Some(max_local) = max_local {
                        assert!(max_local < residents(n, k, s), "n={n} k={k} s={s}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_shard_matches_direct_engine() {
        let s = store();
        let mut driver = ShardedDriver::new(4, 1, cfg());
        let mut direct = IncrementalEngine::new(4, cfg());
        let batch = deltas(40, 4);
        for (u, d) in &batch {
            direct.on_feed_delta(&s, *u, d);
        }
        driver.process_batch(&s, batch).unwrap();
        for u in 0..4u32 {
            let now = Timestamp::from_secs(100);
            let a = driver.recommend(&s, UserId(u), now, LocationId(0), 2);
            let b = direct.recommend(&s, UserId(u), now, LocationId(0), 2);
            assert_eq!(
                a.iter().map(|r| r.ad).collect::<Vec<_>>(),
                b.iter().map(|r| r.ad).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn multi_shard_matches_single_shard() {
        let s = store();
        let mut one = ShardedDriver::new(8, 1, cfg());
        let mut four = ShardedDriver::new(8, 4, cfg());
        let batch = deltas(80, 8);
        one.process_batch(&s, batch.clone()).unwrap();
        four.process_batch(&s, batch).unwrap();
        let now = Timestamp::from_secs(100);
        for u in 0..8u32 {
            let a = one.recommend(&s, UserId(u), now, LocationId(0), 2);
            let b = four.recommend(&s, UserId(u), now, LocationId(0), 2);
            assert_eq!(
                a.iter().map(|r| r.ad).collect::<Vec<_>>(),
                b.iter().map(|r| r.ad).collect::<Vec<_>>(),
                "user {u}"
            );
        }
        assert_eq!(one.stats().deltas, four.stats().deltas);
    }

    #[test]
    fn workers_persist_across_batches() {
        let s = store();
        let mut driver = ShardedDriver::new(8, 4, cfg());
        // Many batches through the same pool; a per-batch spawn/join bug
        // or a slab-recycling bug would lose deltas or deadlock here.
        for round in 0..50u64 {
            driver.process_batch(&s, deltas(16, 8)).unwrap();
            assert_eq!(driver.stats().deltas, (round + 1) * 16);
        }
    }

    #[test]
    fn shard_memory_covers_residents_only() {
        let one = ShardedDriver::new(256, 1, cfg());
        let sixteen = ShardedDriver::new(256, 16, cfg());
        let (m1, m16) = (one.memory_bytes(), sixteen.memory_bytes());
        // Per-user state dominates; 16 shards must not cost ~16×. Allow
        // 2× slack for per-engine fixed overhead (scratch, maps).
        assert!(
            m16 < m1 * 2,
            "16-shard driver uses {m16} bytes vs {m1} for 1 shard — residents leak?"
        );
    }

    #[test]
    fn shard_routing_is_stable() {
        let driver = ShardedDriver::new(16, 4, cfg());
        for u in 0..16u32 {
            assert_eq!(driver.shard_of(UserId(u)), (u % 4) as usize);
        }
        assert_eq!(driver.num_shards(), 4);
        assert_eq!(driver.num_users(), 16);
        assert!(driver.memory_bytes() > 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let s = store();
        let mut driver = ShardedDriver::new(4, 2, cfg());
        driver.process_batch(&s, vec![]).unwrap();
        assert_eq!(driver.stats().deltas, 0);
    }

    #[test]
    fn campaign_removal_reaches_all_shards() {
        let s = store();
        let mut driver = ShardedDriver::new(8, 4, cfg());
        driver.process_batch(&s, deltas(80, 8)).unwrap();
        let mut s = s;
        assert!(s.remove(adcast_ads::AdId(0)));
        driver.on_campaign_removed(adcast_ads::AdId(0));
        let now = Timestamp::from_secs(100);
        for u in 0..8u32 {
            for rec in driver.recommend(&s, UserId(u), now, LocationId(0), 2) {
                assert_ne!(rec.ad, adcast_ads::AdId(0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedDriver::new(4, 0, cfg());
    }

    #[test]
    fn poisoned_batch_errors_but_drop_completes() {
        let s = store();
        let mut driver = ShardedDriver::new(4, 2, cfg());
        // User 100 is out of range for a 4-user driver: the owning worker
        // panics. The barrier must surface that as a typed error (not a
        // hang, not a caller panic)...
        let poisoned = vec![deltas(1, 4).pop().map(|(_, d)| (UserId(100), d)).unwrap()];
        let err = driver
            .process_batch(&s, poisoned)
            .expect_err("poisoned batch must error the barrier");
        assert!(matches!(err, DriverError::WorkerDied { .. }), "{err:?}");
        assert!(driver.is_dead());
        // ...and the driver must still drop cleanly (shutdown + join must
        // not hang on the dead worker) with stats still readable.
        let _ = driver.stats();
        drop(driver);
    }

    #[test]
    fn dead_driver_fails_fast() {
        let s = store();
        let mut driver = ShardedDriver::new(4, 2, cfg());
        let poisoned = vec![deltas(1, 4).pop().map(|(_, d)| (UserId(100), d)).unwrap()];
        assert!(driver.process_batch(&s, poisoned).is_err());
        let before = driver.stats().deltas;
        // A later, perfectly valid batch must not be dispatched to the
        // surviving worker: the driver is dead and fails fast.
        let err = driver
            .process_batch(&s, deltas(4, 4))
            .expect_err("dead driver must refuse new batches");
        assert_eq!(err, DriverError::Dead);
        assert!(err.to_string().contains("dead"), "{err}");
        // No deltas reached the live shard after the driver died.
        assert_eq!(driver.stats().deltas, before);
    }
}
