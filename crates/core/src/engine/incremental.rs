//! **The system**: incremental per-user top-k maintenance.
//!
//! Each user is in one of two regimes, chosen by how dense its candidates
//! are in the catalogue (a property of the input, not an option).
//!
//! ## Bounded regime (sparse users)
//!
//! State per user:
//!
//! * a forward-decayed [`UserContext`],
//! * a [`CandidateBuffer`] holding *exact* forward-scale relevance dots
//!   for up to `headroom · k` ads,
//! * a [`ScoreCache`] of drift-high bounds for candidates that did not
//!   make the buffer, covered by a `ceiling`,
//! * an `outside_bound`: a certified upper bound on the forward-scale
//!   relevance of **every ad neither buffered nor cached**.
//!
//! Per feed delta (the hot path):
//!
//! 1. apply the delta to the context; if a decay rebase fired, rescale the
//!    buffer, the cache and the bounds by the same factor;
//! 2. walk the posting lists of only the **changed terms**: buffered ads
//!    get their dots nudged exactly; outside ads touched by *positive*
//!    weight accumulate their potential gain in a dense stamped
//!    accumulator indexed by ad id;
//! 3. raise `outside_bound` by `Σ Δ⁺(t) · max_weight(t)` (index metadata);
//! 4. **promotion screening**: an outside ad is worth an exact dot only if
//!    `bound_before + its_gain` could beat the buffer's worst entry;
//!    survivors get an exact dot against the context, scattered once per
//!    delta into a dense stamped array ([`ContextScatter`]), and are
//!    inserted (evictions raise the bound to the evicted ad's exact dot);
//! 5. **certification**: if the bound now exceeds the k-th buffered rank
//!    (modulo the refresh policy's slack), re-establish exactness with one
//!    TAAT refresh for this user only.
//!
//! With `RefreshPolicy::Eager` the served top-k is provably identical to
//! the baselines' (the equivalence tests exercise this); `Budgeted` trades
//! bounded staleness for fewer refreshes.
//!
//! ## Exact regime (dense users)
//!
//! Once a bounded user's score cache holds at least 64 ads and a quarter
//! of the catalogue's ids ([`ScoreCache::is_dense`]), the buffer, cache
//! and bounds cost more than they save: the user converts to an **exact
//! lane**, one `f32` of `ctx · ad` per ad id, filled by one blocked TAAT
//! walk. From then on a feed delta is the context update plus
//! `lane[ad] += Δw · w` over the postings of every changed term, both
//! signs, and a recommend is one filtered pass over the lane. There is no
//! screening, promotion, certification or refresh.
//!
//! Accumulated f32 drifts from a fresh dot, so the lane is **re-anchored**
//! (rebuilt by the same walk, bit-identical to `IndexScanEngine`'s
//! scores) on an index-epoch change, on a context rebase, and every
//! `REANCHOR_EVERY` (256) deltas of that user. A removed ad's slot is zeroed;
//! a paused ad's slot goes stale with its postings, is filtered at serve,
//! and is rebuilt on resume (which bumps the epoch). `maintain` returns an
//! idle user to a fresh bounded state.
//!
//! A recommend never changes a lane (a lane older than the index epoch is
//! answered by a fallback walk until the user's next delta re-anchors it),
//! so an engine that served reads and a WAL replay that never saw them
//! hold the same lanes.

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

use adcast_stream::clock::now_ns;

use adcast_ads::{AdId, AdStore};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_stream::clock::Timestamp;
use adcast_stream::event::LocationId;

use adcast_text::ScratchSpace;

use crate::config::EngineConfig;
use crate::context::{ContextUpdate, UserContext};
use crate::engine::blockmax::{taat_blocked, IndexObs, TaatAccumulator};
use crate::engine::scatter::ContextScatter;
use crate::engine::{EngineStats, Recommendation, RecommendationEngine};
use crate::score::ScoringPolicy;
use crate::skyband::{CandidateBuffer, ScoreCache};
use crate::snapshot::{EngineSnapshot, RelevanceSnapshot, UserStateSnapshot};
use crate::topk::{insert_bounded, top_k, Scored};

/// Deltas an exact lane accumulates between re-anchors. Each scattered
/// delta adds one f32 rounding per touched slot; 256 of them stay well
/// inside the 1e-4 of the user's top relevance that the drift test
/// allows, while a re-anchor walks the whole context's postings once — a
/// few deltas' worth, a few percent of the scatter once spread over 256.
const REANCHOR_EVERY: u32 = 256;

#[derive(Debug)]
struct UserState {
    ctx: UserContext,
    /// The store's index epoch when this user's relevance was last made
    /// current (buffer certified or lane re-anchored). Ads submitted or
    /// resumed after that are not covered, so a stale epoch forces a
    /// refresh or re-anchor on the next touch.
    index_epoch: u64,
    relevance: Relevance,
}

impl UserState {
    fn fresh(config: &EngineConfig) -> Self {
        UserState {
            ctx: UserContext::new(config.half_life),
            index_epoch: 0,
            relevance: Relevance::Bounded(Bounded::new(config)),
        }
    }

    fn bounded(&self) -> Option<&Bounded> {
        match &self.relevance {
            Relevance::Bounded(b) => Some(b),
            Relevance::Exact(_) => None,
        }
    }

    fn bounded_mut(&mut self) -> Option<&mut Bounded> {
        match &mut self.relevance {
            Relevance::Bounded(b) => Some(b),
            Relevance::Exact(_) => None,
        }
    }
}

/// A user's relevance state in one of the two regimes (module docs).
#[derive(Debug)]
enum Relevance {
    Bounded(Bounded),
    Exact(ExactLane),
}

/// The bounded regime's state.
#[derive(Debug)]
struct Bounded {
    buffer: CandidateBuffer,
    /// Score cache: exact-when-written, drift-high forward relevances of
    /// candidates that did not make the buffer (see
    /// `EngineConfig::cache_capacity`).
    cache: ScoreCache,
    /// Upper bound on every *cached* ad's relevance (ratchets up on cache
    /// writes, resets at refresh).
    ceiling: f32,
    /// Upper bound (forward scale) on any ad that is neither buffered nor
    /// cached.
    outside_bound: f32,
}

impl Bounded {
    fn new(config: &EngineConfig) -> Self {
        Bounded {
            buffer: CandidateBuffer::new(config.buffer_capacity()),
            cache: ScoreCache::new(config.cache_capacity),
            ceiling: 0.0,
            outside_bound: 0.0,
        }
    }

    /// The combined relevance bound over every non-buffered ad: cached
    /// ads are below the ceiling, everything else below the unknown-ad
    /// bound.
    fn outside_rel_bound(&self) -> f32 {
        self.ceiling.max(self.outside_bound)
    }

    /// Push the buffered ads that clear `min_fwd` and are active and
    /// targeted at (`location`, `now`) onto `eligible` as (ad, relevance,
    /// rank); returns whether any cleared `min_fwd` but was filtered out.
    fn eligible_into(
        &self,
        store: &AdStore,
        min_fwd: f32,
        location: LocationId,
        now: Timestamp,
        policy: ScoringPolicy,
        eligible: &mut Vec<(AdId, f32, f32)>,
    ) -> bool {
        let mut filtered_any = false;
        for (ad, rel) in self.buffer.iter() {
            if rel <= min_fwd {
                continue;
            }
            let Some(campaign) = store.campaign(ad) else {
                filtered_any = true;
                continue;
            };
            if !campaign.is_active() || !campaign.ad.targeting.matches(location, now) {
                filtered_any = true;
                continue;
            }
            eligible.push((ad, rel, policy.rank(rel, campaign.ad.bid)));
        }
        filtered_any
    }
}

/// The exact regime's state.
#[derive(Debug)]
struct ExactLane {
    /// `rel[id]` is ad `id`'s forward-scale relevance (0.0 where the
    /// context shares no term with it); one slot per id up to the
    /// catalogue size at the last re-anchor.
    rel: Vec<f32>,
    /// Deltas scattered into `rel` since it was last rebuilt.
    since_anchor: u32,
}

impl ExactLane {
    /// Zero a removed ad's slot (its postings have left the index, so
    /// nothing scatters into it again).
    fn zero(&mut self, ad: AdId) {
        if let Some(rel) = self.rel.get_mut(ad.index()) {
            *rel = 0.0;
        }
    }
}

/// Engine-owned reusable buffers for the delta and serve paths. Every
/// vector here replaces a former per-call allocation; they are moved out
/// with `std::mem::take` for the duration of a call (keeping the borrow
/// checker happy around `&self` rank closures) and moved back with their
/// grown capacity, so the steady state never touches the allocator.
#[derive(Debug, Default)]
struct HotScratch {
    /// Context-update output buffer (rescale + forward-scale delta).
    update: ContextUpdate,
    /// Sparse-kernel merge temporaries (see [`ScratchSpace`]).
    sparse: ScratchSpace,
    /// Cached ads queued for exact re-verification this delta.
    promote: Vec<AdId>,
    /// Buffered ad ids snapshot for the negative-term probe.
    buffered: Vec<AdId>,
    /// (ad, gain) pairs drained from the engine's gain accumulator.
    drained_gains: Vec<(AdId, f32)>,
    /// Rank order-statistic buffer (certification / serve checks).
    ranks: Vec<f32>,
    /// Refresh candidate triples (ad, relevance, rank).
    refresh_candidates: Vec<(AdId, f32, f32)>,
    /// Serve-time eligible triples (ad, relevance, rank).
    eligible: Vec<(AdId, f32, f32)>,
    /// Serve-time top-k of an exact lane, best first.
    top: Vec<Scored>,
}

impl HotScratch {
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.update.delta.memory_bytes()
            + self.sparse.memory_bytes()
            + self.promote.capacity() * std::mem::size_of::<AdId>()
            + self.buffered.capacity() * std::mem::size_of::<AdId>()
            + self.drained_gains.capacity() * std::mem::size_of::<(AdId, f32)>()
            + self.ranks.capacity() * std::mem::size_of::<f32>()
            + (self.refresh_candidates.capacity() + self.eligible.capacity())
                * std::mem::size_of::<(AdId, f32, f32)>()
            + self.top.capacity() * std::mem::size_of::<Scored>()
    }
}

/// Pre-resolved telemetry handles for the delta hot path. Resolved once
/// at construction (registration takes a lock; recording never does), so
/// span timing inside `apply_feed_delta` is two relaxed atomics per stage
/// and stays within the zero-alloc steady state.
#[derive(Debug)]
struct EngineObs {
    gain_screen_ns: adcast_obs::Hist,
    certify_ns: adcast_obs::Hist,
}

impl EngineObs {
    fn resolve() -> EngineObs {
        let reg = adcast_obs::registry();
        EngineObs {
            gain_screen_ns: reg.hist(
                "adcast_core_gain_screen_ns",
                "Per-delta postings walk, gain screening, and promotion time.",
            ),
            certify_ns: reg.hist(
                "adcast_core_certify_ns",
                "Per-delta top-k certification (and refresh, when triggered) time.",
            ),
        }
    }
}

/// The incremental engine.
#[derive(Debug)]
pub struct IncrementalEngine {
    config: EngineConfig,
    users: Vec<UserState>,
    stats: EngineStats,
    /// Potential relevance gains of never-seen ads in this delta, one
    /// dense stamped slot per ad id (`begin` per delta is O(1)).
    gains: TaatAccumulator,
    /// The delta's user context, scattered for the promotion dots.
    ctx_scatter: ContextScatter,
    /// Dense stamped accumulator for refresh/fallback TAAT (shared walk
    /// with the index-scan engine; see [`taat_blocked`]).
    taat: TaatAccumulator,
    /// Reusable hot-path buffers (see [`HotScratch`]).
    scratch: HotScratch,
    /// Pre-resolved span-timing handles (see [`EngineObs`]).
    obs: EngineObs,
    /// Pre-resolved blocked-index telemetry (refresh/fallback walks).
    index_obs: IndexObs,
}

impl IncrementalEngine {
    /// One state per user.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn new(num_users: u32, config: EngineConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "construction-time config validation, documented under \"# Panics\"; \
                      no request in flight"
        )]
        config.validate().expect("invalid engine config");
        IncrementalEngine {
            users: (0..num_users).map(|_| UserState::fresh(&config)).collect(),
            config,
            stats: EngineStats::default(),
            gains: TaatAccumulator::default(),
            ctx_scatter: ContextScatter::default(),
            taat: TaatAccumulator::default(),
            scratch: HotScratch::default(),
            obs: EngineObs::resolve(),
            index_obs: IndexObs::resolve(),
        }
    }

    /// Read access to a user's context (tests / inspection).
    pub fn context(&self, user: UserId) -> &UserContext {
        &self.users[user.index()].ctx
    }

    /// Capture the full engine state as plain data (see
    /// [`crate::snapshot`]). Buffer and cache entries are sorted by ad id
    /// so the snapshot — and anything serialized from it — is
    /// independent of map iteration order, which follows insertion history.
    pub fn export_snapshot(&self) -> EngineSnapshot {
        let users = self
            .users
            .iter()
            .map(|st| {
                let (landmark, last_ts, context) = st.ctx.snapshot_parts();
                let relevance = match &st.relevance {
                    Relevance::Bounded(b) => {
                        let mut buffer: Vec<(AdId, f32)> = b.buffer.iter().collect();
                        buffer.sort_unstable_by_key(|&(ad, _)| ad);
                        let mut cache: Vec<(AdId, f32)> = b.cache.iter().collect();
                        cache.sort_unstable_by_key(|&(ad, _)| ad);
                        RelevanceSnapshot::Bounded {
                            buffer,
                            cache,
                            ceiling: b.ceiling,
                            outside_bound: b.outside_bound,
                        }
                    }
                    Relevance::Exact(lane) => RelevanceSnapshot::Exact {
                        lane: lane.rel.clone(),
                        since_anchor: lane.since_anchor,
                    },
                };
                UserStateSnapshot {
                    landmark,
                    last_ts,
                    context,
                    relevance,
                    index_epoch: st.index_epoch,
                }
            })
            .collect();
        EngineSnapshot {
            users,
            stats: self.stats.clone(),
        }
    }

    /// Restore state captured by [`export_snapshot`](Self::export_snapshot)
    /// into this engine. The engine must have been built with the same
    /// user count and a configuration whose buffer/cache capacities can
    /// hold the snapshot's entries. An exact lane is restored by copy.
    ///
    /// Work counters are reset and then set to the snapshot's totals, so a
    /// recovery that replays a WAL tail on top counts each replayed delta
    /// exactly once.
    ///
    /// # Errors
    ///
    /// A description of the mismatch; the engine may be partially
    /// restored and should be discarded on error.
    pub fn restore_snapshot(&mut self, snapshot: &EngineSnapshot) -> Result<(), String> {
        if snapshot.users.len() != self.users.len() {
            return Err(format!(
                "snapshot holds {} users, engine has {}",
                snapshot.users.len(),
                self.users.len()
            ));
        }
        for (i, (st, snap)) in self.users.iter_mut().zip(&snapshot.users).enumerate() {
            st.ctx
                .restore_parts(snap.landmark, snap.last_ts, snap.context.clone());
            st.index_epoch = snap.index_epoch;
            st.relevance = match &snap.relevance {
                RelevanceSnapshot::Bounded {
                    buffer,
                    cache,
                    ceiling,
                    outside_bound,
                } => {
                    let mut b = Bounded::new(&self.config);
                    if buffer.len() > b.buffer.capacity() {
                        return Err(format!(
                            "user {i}: snapshot buffer holds {} ads, capacity is {}",
                            buffer.len(),
                            b.buffer.capacity()
                        ));
                    }
                    if cache.len() > self.config.cache_capacity {
                        return Err(format!(
                            "user {i}: snapshot cache holds {} ads, capacity is {}",
                            cache.len(),
                            self.config.cache_capacity
                        ));
                    }
                    for &(ad, rel) in buffer {
                        // len ≤ capacity, so insert never evicts and the
                        // rank closure is never consulted.
                        b.buffer.insert(ad, rel, |_, r| r);
                    }
                    for &(ad, bound) in cache {
                        b.cache.insert(ad, bound);
                    }
                    b.ceiling = *ceiling;
                    b.outside_bound = *outside_bound;
                    Relevance::Bounded(b)
                }
                RelevanceSnapshot::Exact { lane, since_anchor } => Relevance::Exact(ExactLane {
                    rel: lane.clone(),
                    since_anchor: *since_anchor,
                }),
            };
        }
        self.stats.reset();
        self.stats += &snapshot.stats;
        Ok(())
    }

    /// Lifecycle maintenance: reset every user whose last feed activity
    /// is at least `idle_for` old as of `now`, returning `(scanned,
    /// decayed)`. A reset user is bit-identical to a freshly constructed
    /// one (empty context, empty buffer/cache, zero bounds, epoch 0 — an
    /// exact-lane user drops its lane and is bounded again), so replaying
    /// the same maintenance record on a recovery twin reproduces the exact
    /// same state. Users with no resident state are scanned but not
    /// counted as decayed.
    pub fn maintain(
        &mut self,
        now: Timestamp,
        idle_for: adcast_stream::clock::Duration,
    ) -> (u64, u64) {
        let mut scanned = 0u64;
        let mut decayed = 0u64;
        for st in &mut self.users {
            scanned += 1;
            let has_state = !st.ctx.is_empty()
                || st
                    .bounded()
                    .is_none_or(|b| !b.buffer.is_empty() || !b.cache.is_empty());
            if !has_state || now.since(st.ctx.last_ts()) < idle_for {
                continue;
            }
            // Fresh structures, not `clear()`: a cleared map keeps its
            // allocation, and a decayed user should hold none.
            *st = UserState::fresh(&self.config);
            decayed += 1;
        }
        (scanned, decayed)
    }

    /// The ranking function over (ad, forward relevance). λ = 1 avoids the
    /// bid lookup entirely.
    #[inline]
    fn rank_of(&self, store: &AdStore, ad: AdId, relevance: f32) -> f32 {
        if self.config.scoring.lambda >= 1.0 {
            relevance
        } else {
            let bid = store.ad(ad).map_or(1.0, |a| a.bid);
            self.config.scoring.rank(relevance.max(0.0), bid)
        }
    }

    /// Upper bound on the *rank* of any outside ad, from the relevance
    /// bound and the maximum active bid.
    fn outside_rank_bound(&self, store: &AdStore, relevance_bound: f32) -> f32 {
        if self.config.scoring.lambda >= 1.0 {
            relevance_bound
        } else {
            let max_bid = store
                .active_campaigns()
                .map(|c| c.ad.bid)
                .fold(0.0f32, f32::max)
                .max(1e-9);
            self.config.scoring.rank(relevance_bound.max(0.0), max_bid)
        }
    }

    /// One blocked TAAT walk of `user`'s context into `self.taat`, the
    /// exact evaluation behind refreshes, re-anchors and fallbacks; every
    /// touched ad counts as scored.
    fn walk_context(&mut self, store: &AdStore, user: UserId) {
        taat_blocked(
            store.index(),
            self.users[user.index()].ctx.raw(),
            store.num_total(),
            &mut self.taat,
            &mut self.stats,
            &self.index_obs,
        );
        self.stats.ads_scored += self.taat.touched().len() as u64;
    }

    /// One-user exact TAAT re-evaluation: refill the buffer with the
    /// top-capacity ads by rank and reset the outside bound.
    fn refresh(&mut self, store: &AdStore, user: UserId) {
        self.stats.refreshes += 1;
        self.walk_context(store, user);
        // Order candidates by rank, best first (reusing the engine-owned
        // candidate buffer across refreshes).
        let mut candidates = std::mem::take(&mut self.scratch.refresh_candidates);
        candidates.clear();
        candidates.extend(self.taat.touched().iter().map(|&ad| {
            let rel = self.taat.get(ad);
            (ad, rel, self.rank_of(store, ad, rel))
        }));
        // Unstable sort (no temp-buffer allocation); the id tie-break
        // makes the comparator a total order, so the result is unique.
        candidates.sort_unstable_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        let capacity = self.config.buffer_capacity();
        let cache_capacity = self.config.cache_capacity;
        let st = &mut self.users[user.index()];
        // An empty context certifies nothing the user's next delta will
        // not. While the user may still turn dense, leave its epoch stale:
        // a read before its first delta would otherwise spare that delta
        // the refresh a WAL replay (which never saw the read) runs, and the
        // two would move the user onto its exact lane at different deltas.
        let may_turn_dense = st
            .bounded()
            .is_some_and(|b| b.cache.can_be_dense(store.num_total()));
        if !(st.ctx.is_empty() && may_turn_dense) {
            st.index_epoch = store.index_epoch();
        }
        if let Some(st) = st.bounded_mut() {
            st.buffer.clear();
            st.cache.clear();
            for &(ad, rel, _) in candidates.iter().take(capacity) {
                st.buffer.insert(ad, rel, |_, r| r);
            }
            // The next `cache_capacity` candidates are memoized with their
            // exact dots; the ceiling covers them (max non-admitted
            // relevance — relevance, not rank, because the bounds track
            // relevance; rank bounding happens at certification time).
            st.ceiling = candidates.get(capacity).map_or(0.0, |&(_, rel, _)| rel);
            for &(ad, rel, _) in candidates.iter().skip(capacity).take(cache_capacity) {
                if rel > 0.0 {
                    st.cache.insert(ad, rel);
                }
            }
            // Ads beyond the cache are unknown; bound them by the best
            // relevance among them.
            st.outside_bound = candidates
                .iter()
                .skip(capacity + cache_capacity)
                .map(|&(_, rel, _)| rel)
                .fold(0.0f32, f32::max);
        }
        self.scratch.refresh_candidates = candidates;
    }

    /// Rebuild an exact-lane user's relevance from the index with the
    /// same blocked TAAT walk as [`refresh`](Self::refresh), so every slot
    /// is bit-identical to `IndexScanEngine`'s score for that ad. Counted
    /// as a refresh.
    fn reanchor(&mut self, store: &AdStore, user: UserId) {
        self.stats.refreshes += 1;
        self.walk_context(store, user);
        let st = &mut self.users[user.index()];
        st.index_epoch = store.index_epoch();
        if let Relevance::Exact(lane) = &mut st.relevance {
            lane.since_anchor = 0;
            lane.rel.clear();
            lane.rel.resize(store.num_total(), 0.0);
            for &ad in self.taat.touched() {
                if let Some(rel) = lane.rel.get_mut(ad.index()) {
                    *rel = self.taat.get(ad);
                }
            }
        }
    }

    /// Move a bounded user whose score cache turned dense onto an exact
    /// lane (module docs): the buffer, cache and bounds are dropped and
    /// the lane is filled by one re-anchor.
    fn convert_if_dense(&mut self, store: &AdStore, user: UserId) {
        let st = &mut self.users[user.index()];
        if st
            .bounded()
            .is_some_and(|b| b.cache.is_dense(store.num_total()))
        {
            st.relevance = Relevance::Exact(ExactLane {
                rel: Vec::new(),
                since_anchor: 0,
            });
            self.reanchor(store, user);
        }
    }

    /// The exact regime's delta path: scatter `Δw · w` into the lane over
    /// the postings of every changed term, or re-anchor when the lane is
    /// due (rebase, stale epoch, or `REANCHOR_EVERY` scattered deltas).
    fn apply_exact(&mut self, store: &AdStore, user: UserId, update: &ContextUpdate) {
        let st = &mut self.users[user.index()];
        let stale = st.index_epoch != store.index_epoch();
        let Relevance::Exact(lane) = &mut st.relevance else {
            return;
        };
        if update.rescale.is_some() || stale || lane.since_anchor >= REANCHOR_EVERY {
            self.reanchor(store, user);
            return;
        }
        if update.delta.is_empty() {
            return;
        }
        lane.since_anchor += 1;
        let index = store.index();
        for (term, dw) in update.delta.iter() {
            let postings = index.postings(term);
            self.stats.postings_scanned += postings.len() as u64;
            for (&ad, &w) in postings.ads().iter().zip(postings.weights()) {
                if let Some(rel) = lane.rel.get_mut(ad.index()) {
                    *rel += dw * w;
                }
            }
        }
    }

    /// Serve a targeted query by exact TAAT without touching user state
    /// (used when the buffer cannot certify a targeted top-k, and for an
    /// exact lane older than the index epoch).
    fn fallback_query(
        &mut self,
        store: &AdStore,
        user: UserId,
        now: Timestamp,
        location: LocationId,
        k: usize,
    ) -> Vec<Recommendation> {
        self.stats.fallbacks += 1;
        self.walk_context(store, user);
        let st = &self.users[user.index()];
        let policy = self.config.scoring;
        let min_fwd = self.config.min_relevance * st.ctx.normalizer(now) as f32;
        let candidates = self.taat.touched().iter().filter_map(|&ad| {
            let fwd = self.taat.get(ad);
            if fwd <= min_fwd {
                return None;
            }
            // `ad` came out of the store's own postings this scan; the
            // index cannot dangle within a single borrow of `store`.
            let a = store.ad(ad)?;
            if !a.targeting.matches(location, now) {
                return None;
            }
            Some(Scored {
                ad,
                score: policy.rank(fwd, a.bid),
            })
        });
        let top = top_k(candidates, k);
        let normalizer = st.ctx.normalizer(now) as f32;
        let rank_scale = normalizer.powf(policy.lambda);
        top.into_iter()
            .map(|s| Recommendation {
                ad: s.ad,
                score: s.score / rank_scale,
                relevance: self.taat.get(s.ad) / normalizer,
            })
            .collect()
    }

    /// The bounded regime's serve path: certify the buffer for the
    /// request (refreshing if needed), filter it, and fall back to an
    /// exact targeted walk when filtering leaves the top-k uncertified.
    fn recommend_bounded(
        &mut self,
        store: &AdStore,
        user: UserId,
        now: Timestamp,
        location: LocationId,
        k: usize,
    ) -> Vec<Recommendation> {
        if self.users[user.index()].index_epoch != store.index_epoch() {
            self.refresh(store, user);
        }
        // Re-certify at serve time (covers the k > config.k case too).
        let serving_k = k.max(self.config.k);
        let mut ranks = std::mem::take(&mut self.scratch.ranks);
        let (kth, outside) = match self.users[user.index()].bounded() {
            Some(st) => (
                st.buffer.kth_rank_in(
                    serving_k,
                    |ad, rel| self.rank_of(store, ad, rel),
                    &mut ranks,
                ),
                self.outside_rank_bound(store, st.outside_rel_bound()),
            ),
            None => (None, 0.0),
        };
        let uncertified = match kth {
            None => outside > 0.0,
            Some(kth) => self.config.refresh.should_refresh(kth, outside),
        };
        if uncertified {
            self.refresh(store, user);
        }

        // Collect eligible buffered candidates into the reusable buffer.
        let policy = self.config.scoring;
        let mut eligible = std::mem::take(&mut self.scratch.eligible);
        eligible.clear();
        let st = &self.users[user.index()];
        let normalizer = st.ctx.normalizer(now) as f32;
        let min_fwd = self.config.min_relevance * normalizer;
        let (filtered_any, outside_rel) = match st.bounded() {
            Some(b) => (
                b.eligible_into(store, min_fwd, location, now, policy, &mut eligible),
                b.outside_rel_bound(),
            ),
            None => (false, 0.0),
        };
        // If filtering removed candidates and we cannot certify that the
        // remaining k-th eligible beats every outside ad, answer the query
        // exactly via a targeted TAAT instead.
        if filtered_any {
            ranks.clear();
            ranks.extend(eligible.iter().map(|&(_, _, r)| r));
            ranks.sort_unstable_by(|a, b| b.total_cmp(a));
            let kth_eligible = ranks.get(k.saturating_sub(1)).copied();
            let outside = self.outside_rank_bound(store, outside_rel);
            let certified = match kth_eligible {
                Some(kth) => !self.config.refresh.should_refresh(kth, outside),
                None => outside <= 0.0,
            };
            if !certified {
                self.scratch.ranks = ranks;
                self.scratch.eligible = eligible;
                return self.fallback_query(store, user, now, location, k);
            }
        }
        self.scratch.ranks = ranks;

        let top = top_k(
            eligible
                .iter()
                .map(|&(ad, _, rank)| Scored { ad, score: rank }),
            k,
        );
        let rank_scale = normalizer.powf(policy.lambda);
        let out = top
            .into_iter()
            .map(|s| {
                #[expect(
                    clippy::expect_used,
                    reason = "`top` is a subset of `eligible` by construction (top_k consumed \
                              the same iterator), so the lookup always succeeds"
                )]
                let rel = eligible
                    .iter()
                    .find(|&&(ad, _, _)| ad == s.ad)
                    .map(|&(_, rel, _)| rel)
                    .expect("top-k item came from eligible");
                Recommendation {
                    ad: s.ad,
                    score: s.score / rank_scale,
                    relevance: rel / normalizer,
                }
            })
            .collect();
        self.scratch.eligible = eligible;
        out
    }

    /// The exact regime's serve path: one pass over the lane applying the
    /// serving threshold, the `is_active` and targeting filters and the
    /// rank for any λ, then a top-k. A pure read: a lane older than the
    /// index epoch is answered by a fallback walk instead.
    fn recommend_exact(
        &mut self,
        store: &AdStore,
        user: UserId,
        now: Timestamp,
        location: LocationId,
        k: usize,
    ) -> Vec<Recommendation> {
        if self.users[user.index()].index_epoch != store.index_epoch() {
            // Ads were admitted since the lane was built. Answer from a
            // fresh walk and leave the re-anchor to the user's next delta,
            // so a read never changes a lane.
            return self.fallback_query(store, user, now, location, k);
        }
        let st = &self.users[user.index()];
        let Relevance::Exact(lane) = &st.relevance else {
            return Vec::new();
        };
        let policy = self.config.scoring;
        let normalizer = st.ctx.normalizer(now) as f32;
        let min_fwd = self.config.min_relevance * normalizer;
        let mut top = std::mem::take(&mut self.scratch.top);
        top.clear();
        for (&fwd, id) in lane.rel.iter().zip(0u32..) {
            if fwd <= min_fwd {
                continue;
            }
            // With λ ≥ 1 the rank is the relevance itself, so a slot that
            // cannot beat the k-th kept rank skips the campaign lookup
            // (ids ascend, so an equal rank loses the id tie-break).
            if policy.lambda >= 1.0 && top.len() >= k && top.last().is_none_or(|w| fwd <= w.score) {
                continue;
            }
            let ad = AdId(id);
            let Some(campaign) = store.campaign(ad) else {
                continue;
            };
            if campaign.is_active() && campaign.ad.targeting.matches(location, now) {
                let score = policy.rank(fwd, campaign.ad.bid);
                insert_bounded(&mut top, k, Scored { ad, score });
            }
        }
        let rank_scale = normalizer.powf(policy.lambda);
        let out = top
            .iter()
            .map(|s| Recommendation {
                ad: s.ad,
                score: s.score / rank_scale,
                relevance: lane.rel.get(s.ad.index()).copied().unwrap_or(0.0) / normalizer,
            })
            .collect();
        self.scratch.top = top;
        out
    }

    /// The buffer's worst rank once it is full (`None` while it has room).
    fn worst_rank(&self, store: &AdStore, user: UserId) -> Option<f32> {
        let st = self.users[user.index()].bounded()?;
        st.buffer
            .is_full()
            .then(|| st.buffer.min_rank(|a, r| self.rank_of(store, a, r)))
    }

    /// Certification check; refreshes when the buffered top-k can no
    /// longer be proven fresh enough under the refresh policy.
    fn certify(&mut self, store: &AdStore, user: UserId) {
        let st = &self.users[user.index()];
        if st.index_epoch != store.index_epoch() {
            self.refresh(store, user);
            return;
        }
        let Some(st) = st.bounded() else {
            return;
        };
        let mut ranks = std::mem::take(&mut self.scratch.ranks);
        let kth = st.buffer.kth_rank_in(
            self.config.k,
            |ad, rel| self.rank_of(store, ad, rel),
            &mut ranks,
        );
        let outside = self.outside_rank_bound(store, st.outside_rel_bound());
        self.scratch.ranks = ranks;
        let needs = match kth {
            // Fewer than k buffered: refresh unless the outside world is
            // provably empty of candidates (bound 0 means every ad with
            // any context overlap is already buffered).
            None => outside > 0.0,
            Some(kth) => self.config.refresh.should_refresh(kth, outside),
        };
        if needs {
            self.refresh(store, user);
        }
    }

    /// The delta hot path (body of `on_feed_delta`; the trait method wraps
    /// it with allocation accounting under `debug-stats`).
    ///
    /// Steady state — deltas that trigger no refresh or re-anchor and
    /// discover no never-seen candidates — performs **zero heap
    /// allocations**: every temporary lives in [`HotScratch`], the gain
    /// accumulator or the context scatter, all of which retain their
    /// capacity across calls, and an exact lane keeps its length. The
    /// `zero_alloc` integration test pins this down with a counting global
    /// allocator; the `adcast-lint` markers below make it a static check
    /// too.
    // adcast-lint: zero-alloc
    fn apply_feed_delta(&mut self, store: &AdStore, user: UserId, delta: &FeedDelta) {
        self.stats.deltas += 1;

        // The context update (+ rebase propagation). The update buffers
        // are engine-owned; `take` detaches them for the duration of the
        // call.
        let mut update = std::mem::take(&mut self.scratch.update);
        let mut sparse = std::mem::take(&mut self.scratch.sparse);
        self.users[user.index()]
            .ctx
            .apply_into(delta, &mut update, &mut sparse);
        self.scratch.sparse = sparse;
        if update.rescale.is_some() {
            self.stats.rebases += 1;
        }
        if self.users[user.index()].bounded().is_some() {
            self.apply_bounded(store, user, &update);
            self.convert_if_dense(store, user);
        } else {
            self.apply_exact(store, user, &update);
        }
        self.scratch.update = update;
    }

    /// The bounded regime's delta path: steps 1–5 of the module docs,
    /// after the context update.
    // adcast-lint: zero-alloc
    fn apply_bounded(&mut self, store: &AdStore, user: UserId, update: &ContextUpdate) {
        let index = store.index();
        if let Some(factor) = update.rescale {
            if let Some(st) = self.users[user.index()].bounded_mut() {
                st.buffer.scale_all(factor as f32);
                st.cache.scale_all(factor as f32);
                st.ceiling *= factor as f32;
                st.outside_bound *= factor as f32;
            }
        }
        if update.delta.is_empty() {
            return;
        }

        let gain_screen_started = now_ns();

        // 2./3. Walk changed terms' postings.
        //
        // Positive changed terms walk their full posting lists (that is
        // how candidates are discovered). Buffered ads are nudged exactly.
        // Cached ads are nudged too, but only upward: negative deltas skip
        // the cache, so cached values are *drift-high upper bounds* that
        // are exact when written and re-verified on promotion. Never-seen
        // ads accumulate their potential gain for the screening pass.
        // Negative terms touch nothing outside the buffer — the buffered
        // ads' own small vectors are probed directly, far cheaper than a
        // second postings walk.
        //
        // Buffer and cache are disjoint, so the cache is probed first.
        self.gains.begin(store.num_total());
        self.ctx_scatter.invalidate();
        let Some(bound_before) = self.users[user.index()]
            .bounded()
            .map(|st| st.outside_bound)
        else {
            return;
        };
        let worst_rel_hint = self.worst_rank(store, user).unwrap_or(f32::NEG_INFINITY);
        let mut promote = std::mem::take(&mut self.scratch.promote);
        promote.clear();
        if let Some(st) = self.users[user.index()].bounded_mut() {
            let mut has_negative = false;
            for (term, dw) in update.delta.iter() {
                if dw <= 0.0 {
                    has_negative = true;
                    continue;
                }
                let postings = index.postings(term);
                self.stats.postings_scanned += postings.len() as u64;
                for p in postings {
                    let gain = dw * p.weight;
                    if let Some(updated) = st.cache.nudge(p.ad, gain) {
                        let trigger = if self.config.scoring.lambda >= 1.0 {
                            updated
                        } else {
                            f32::INFINITY // conservative for λ < 1
                        };
                        if trigger > worst_rel_hint {
                            // Crossed the buffer's worst rank: queue for
                            // exact verification. The ceiling is
                            // deliberately NOT raised here — verification
                            // writes back a verified value; ratcheting on
                            // unverified drift would force spurious
                            // refreshes.
                            if !promote.contains(&p.ad) {
                                promote.push(p.ad);
                            }
                        } else {
                            st.ceiling = st.ceiling.max(updated);
                        }
                    } else if !st.buffer.nudge(p.ad, gain) {
                        self.gains.add(p.ad, gain);
                    }
                }
            }
            if has_negative {
                let mut buffered = std::mem::take(&mut self.scratch.buffered);
                buffered.clear();
                buffered.extend(st.buffer.iter().map(|(ad, _)| ad));
                for &ad in &buffered {
                    let Some(a) = store.ad(ad) else { continue };
                    let mut nudge = 0.0f32;
                    for (term, dw) in update.delta.iter() {
                        if dw < 0.0 {
                            nudge += dw * a.vector.get(term);
                        }
                    }
                    if nudge != 0.0 {
                        st.buffer.nudge(ad, nudge);
                    }
                }
                self.scratch.buffered = buffered;
            }
        }

        // 4a. Cache promotions: verify with an exact dot (cached values
        // may have drifted high), then either enter the buffer or write
        // the corrected exact value back to the cache.
        let mut worst = self.worst_rank(store, user);
        let mut new_bound = bound_before;
        for ad in promote.drain(..) {
            let (rel, rank) = {
                let Some(a) = store.ad(ad) else { continue };
                self.stats.ads_scored += 1;
                let ctx = self.users[user.index()].ctx.raw();
                let rel = self.ctx_scatter.dot(ctx, &a.vector);
                (rel, self.rank_of(store, ad, rel))
            };
            let admit = match worst {
                None => rel > 0.0,
                Some(w) => rank > w,
            };
            let Some(st) = self.users[user.index()].bounded_mut() else {
                continue;
            };
            if admit {
                self.stats.promotions += 1;
                st.cache.remove(ad);
                let rank_fn = |a: AdId, r: f32| {
                    if self.config.scoring.lambda >= 1.0 {
                        r
                    } else {
                        let bid = store.ad(a).map_or(1.0, |c| c.bid);
                        self.config.scoring.rank(r.max(0.0), bid)
                    }
                };
                if let Some((evicted, evicted_rel)) = st.buffer.insert(ad, rel, rank_fn) {
                    // The evicted exact value moves to the cache; the
                    // ceiling is raised to keep covering it.
                    st.ceiling = st.ceiling.max(evicted_rel);
                    if evicted_rel > 0.0 {
                        if let Some(swept) = st.cache.insert(evicted, evicted_rel) {
                            st.outside_bound = st.outside_bound.max(swept);
                        }
                    }
                }
                worst = self.worst_rank(store, user);
            } else {
                // Write back the corrected exact value so this ad stops
                // re-triggering verification.
                st.ceiling = st.ceiling.max(rel);
                if let Some(swept) = st.cache.insert(ad, rel) {
                    st.outside_bound = st.outside_bound.max(swept);
                }
            }
        }

        self.scratch.promote = promote;

        // 4b. Unknown-ad promotions, gated by max-weight screening. The
        // unknown bound is re-derived through the loop: untouched unknown
        // ads keep `bound_before`; screened ads are bounded by
        // `bound_before + gain`; exactly-computed ads move to the cache
        // (or buffer) and leave the unknown set entirely.
        if !self.gains.touched().is_empty() {
            let mut gains = std::mem::take(&mut self.scratch.drained_gains);
            gains.clear();
            gains.extend(
                self.gains
                    .touched()
                    .iter()
                    .map(|&ad| (ad, self.gains.get(ad))),
            );
            // Highest gain first: promoting the strongest candidates early
            // raises `worst` fast, so weaker ads screen out instead of
            // paying for an exact dot. The id tie-break makes the order
            // (and so the work counters) a function of the gains alone,
            // not of the postings walk's first-touch order. Unstable sort:
            // no scratch allocation.
            gains.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (ad, gain) in gains.drain(..) {
                if self.config.screening {
                    if let Some(w) = worst {
                        let ub = self.outside_rank_bound(store, bound_before + gain);
                        if ub <= w {
                            self.stats.screened_out += 1;
                            new_bound = new_bound.max(bound_before + gain);
                            continue;
                        }
                    }
                }
                self.stats.ads_scored += 1;
                let (rel, rank) = {
                    let Some(a) = store.ad(ad) else { continue };
                    let ctx = self.users[user.index()].ctx.raw();
                    let rel = self.ctx_scatter.dot(ctx, &a.vector);
                    (rel, self.rank_of(store, ad, rel))
                };
                let admit = match worst {
                    None => rel > 0.0,
                    Some(w) => rank > w,
                };
                let Some(st) = self.users[user.index()].bounded_mut() else {
                    continue;
                };
                if admit {
                    self.stats.promotions += 1;
                    let rank_fn = |a: AdId, r: f32| {
                        if self.config.scoring.lambda >= 1.0 {
                            r
                        } else {
                            let bid = store.ad(a).map_or(1.0, |c| c.bid);
                            self.config.scoring.rank(r.max(0.0), bid)
                        }
                    };
                    if let Some((evicted, evicted_rel)) = st.buffer.insert(ad, rel, rank_fn) {
                        st.ceiling = st.ceiling.max(evicted_rel);
                        if evicted_rel > 0.0 {
                            if let Some(swept) = st.cache.insert(evicted, evicted_rel) {
                                st.outside_bound = st.outside_bound.max(swept);
                            }
                        }
                    }
                    worst = self.worst_rank(store, user);
                } else if rel > 0.0 {
                    // Known exactly now: memoize and cover with the
                    // ceiling instead of the unknown bound. A zero-capacity
                    // cache rejects the insert and the value falls through
                    // to the unknown bound.
                    st.ceiling = st.ceiling.max(rel);
                    if let Some(swept) = st.cache.insert(ad, rel) {
                        new_bound = new_bound.max(swept);
                    }
                } else {
                    new_bound = new_bound.max(rel);
                }
            }
            self.scratch.drained_gains = gains;
        }
        if let Some(st) = self.users[user.index()].bounded_mut() {
            st.outside_bound = new_bound;
        }
        self.obs
            .gain_screen_ns
            .record(now_ns().saturating_sub(gain_screen_started));

        // 5. Certification.
        let certify_started = now_ns();
        self.certify(store, user);
        self.obs
            .certify_ns
            .record(now_ns().saturating_sub(certify_started));
    }
}

impl RecommendationEngine for IncrementalEngine {
    fn on_feed_delta(&mut self, store: &AdStore, user: UserId, delta: &FeedDelta) {
        #[cfg(feature = "debug-stats")]
        let allocs_before = crate::allocmeter::allocation_count();
        self.apply_feed_delta(store, user, delta);
        #[cfg(feature = "debug-stats")]
        {
            self.stats.hot_path_allocs += crate::allocmeter::allocation_count() - allocs_before;
        }
    }

    fn recommend(
        &mut self,
        store: &AdStore,
        user: UserId,
        now: Timestamp,
        location: LocationId,
        k: usize,
    ) -> Vec<Recommendation> {
        self.stats.recommends += 1;
        if self.users[user.index()].bounded().is_some() {
            self.recommend_bounded(store, user, now, location, k)
        } else {
            self.recommend_exact(store, user, now, location, k)
        }
    }

    fn on_campaign_removed(&mut self, ad: AdId) {
        // Purge the ad from every buffer and zero its lane slots; bounds
        // are unaffected (a removed ad cannot outrank anything).
        for st in &mut self.users {
            match &mut st.relevance {
                Relevance::Bounded(b) => {
                    b.buffer.remove(ad);
                    b.cache.remove(ad);
                }
                Relevance::Exact(lane) => lane.zero(ad),
            }
        }
    }

    fn on_campaigns_removed(&mut self, ads: &[AdId]) {
        // One sweep over the user set for the whole batch: flight expiry
        // can retire thousands of campaigns at once, and a per-ad sweep
        // would cost O(removals · users). Membership is a sorted-slice
        // binary search — cold path, but keep it allocation-light.
        match ads {
            [] => {}
            &[ad] => self.on_campaign_removed(ad),
            _ => {
                let mut sorted: Vec<AdId> = ads.to_vec();
                sorted.sort_unstable();
                let gone = |ad: AdId| sorted.binary_search(&ad).is_ok();
                for st in &mut self.users {
                    match &mut st.relevance {
                        Relevance::Bounded(b) => {
                            b.buffer.remove_if(gone);
                            b.cache.remove_if(gone);
                        }
                        Relevance::Exact(lane) => sorted.iter().for_each(|&ad| lane.zero(ad)),
                    }
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "incremental"
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.scratch.memory_bytes()
            + self.taat.memory_bytes()
            + self.gains.memory_bytes()
            + self.ctx_scatter.memory_bytes()
            + self
                .users
                .iter()
                .map(|st| {
                    st.ctx.memory_bytes()
                        + match &st.relevance {
                            Relevance::Bounded(b) => {
                                b.buffer.memory_bytes() + b.cache.memory_bytes() + 8
                            }
                            Relevance::Exact(lane) => {
                                lane.rel.capacity() * std::mem::size_of::<f32>() + 4
                            }
                        }
                })
                .sum::<usize>()
    }

    fn lane_users(&self) -> usize {
        self.users
            .iter()
            .filter(|st| matches!(st.relevance, Relevance::Exact(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RefreshPolicy;
    use adcast_ads::{AdSubmission, Budget, Targeting};
    use adcast_stream::event::{Message, MessageId};
    use adcast_text::dictionary::TermId;
    use adcast_text::SparseVector;
    use std::sync::Arc;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    fn store_with(vectors: &[&[(u32, f32)]]) -> AdStore {
        let mut s = AdStore::new();
        for vec in vectors {
            s.submit(AdSubmission {
                vector: v(vec),
                bid: 1.0,
                targeting: Targeting::everywhere(),
                budget: Budget::unlimited(),
                topic_hint: None,
            })
            .unwrap();
        }
        s
    }

    fn delta(terms: &[(u32, f32)], secs: u64, evicted: Vec<Arc<Message>>) -> FeedDelta {
        FeedDelta {
            entered: Some(Arc::new(Message {
                id: MessageId(secs),
                author: UserId(0),
                ts: Timestamp::from_secs(secs),
                location: LocationId(0),
                vector: v(terms),
            })),
            evicted,
        }
    }

    fn cfg(k: usize) -> EngineConfig {
        EngineConfig {
            k,
            half_life: None,
            ..Default::default()
        }
    }

    #[test]
    fn serves_relevant_ads_after_updates() {
        let store = store_with(&[&[(1, 1.0)], &[(2, 1.0)], &[(3, 1.0)]]);
        let mut e = IncrementalEngine::new(1, cfg(2));
        e.on_feed_delta(&store, UserId(0), &delta(&[(1, 0.9), (2, 0.4)], 1, vec![]));
        let recs = e.recommend(&store, UserId(0), Timestamp::from_secs(2), LocationId(0), 2);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ad, AdId(0));
        assert_eq!(recs[1].ad, AdId(1));
        assert!(recs[0].relevance > recs[1].relevance);
    }

    #[test]
    fn matches_index_scan_over_a_stream() {
        use crate::engine::IndexScanEngine;
        let store = store_with(&[
            &[(1, 0.9), (2, 0.3)],
            &[(2, 1.0)],
            &[(3, 0.8), (1, 0.4)],
            &[(4, 1.0)],
            &[(1, 0.2), (4, 0.7)],
        ]);
        let mut inc = IncrementalEngine::new(1, cfg(2));
        let mut idx = IndexScanEngine::new(1, cfg(2));
        // Sliding window of 3 messages, deterministic term pattern.
        let mut window: Vec<Arc<Message>> = Vec::new();
        for i in 0..40u64 {
            let terms = [((i % 5) as u32, 0.5 + (i % 3) as f32 * 0.2)];
            let evicted = if window.len() >= 3 {
                vec![window.remove(0)]
            } else {
                vec![]
            };
            let d = delta(&terms, i + 1, evicted);
            window.push(d.entered.clone().unwrap());
            inc.on_feed_delta(&store, UserId(0), &d);
            idx.on_feed_delta(&store, UserId(0), &d);
            let now = Timestamp::from_secs(i + 1);
            let a = inc.recommend(&store, UserId(0), now, LocationId(0), 2);
            let b = idx.recommend(&store, UserId(0), now, LocationId(0), 2);
            let ids_a: Vec<_> = a.iter().map(|r| r.ad).collect();
            let ids_b: Vec<_> = b.iter().map(|r| r.ad).collect();
            assert_eq!(ids_a, ids_b, "step {i}");
            for (x, y) in a.iter().zip(&b) {
                assert!((x.score - y.score).abs() < 1e-4, "step {i}: {x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn eviction_of_messages_demotes_ads() {
        let store = store_with(&[&[(1, 1.0)], &[(2, 1.0)]]);
        let mut e = IncrementalEngine::new(1, cfg(1));
        let d1 = delta(&[(1, 1.0)], 1, vec![]);
        let m1 = d1.entered.clone().unwrap();
        e.on_feed_delta(&store, UserId(0), &d1);
        let recs = e.recommend(&store, UserId(0), Timestamp::from_secs(1), LocationId(0), 1);
        assert_eq!(recs[0].ad, AdId(0));
        // Message about term 1 leaves; term 2 message arrives.
        e.on_feed_delta(&store, UserId(0), &delta(&[(2, 1.0)], 2, vec![m1]));
        let recs = e.recommend(&store, UserId(0), Timestamp::from_secs(2), LocationId(0), 1);
        assert_eq!(
            recs[0].ad,
            AdId(1),
            "after the slide, ad 1 is the only match"
        );
    }

    #[test]
    fn screening_counts_and_never_changes_results() {
        let mk = |screening: bool| {
            let mut store = AdStore::new();
            // Weights vary per ad so no two ads tie exactly: ties at the
            // k-th position are resolved by id, but refresh timing differs
            // between the two engines and float associativity would make
            // "equal" scores differ by ULPs.
            for t in 0..30u32 {
                store
                    .submit(AdSubmission {
                        vector: v(&[
                            (t % 6, 0.55 + 0.01 * t as f32),
                            (6 + t % 4, 0.8 - 0.005 * t as f32),
                        ]),
                        bid: 1.0,
                        targeting: Targeting::everywhere(),
                        budget: Budget::unlimited(),
                        topic_hint: None,
                    })
                    .unwrap();
            }
            let config = EngineConfig {
                screening,
                k: 3,
                buffer_headroom: 2,
                half_life: None,
                ..Default::default()
            };
            (store, IncrementalEngine::new(1, config))
        };
        let (store_a, mut with) = mk(true);
        let (store_b, mut without) = mk(false);
        let mut window: Vec<Arc<Message>> = Vec::new();
        for i in 0..60u64 {
            let terms = [((i % 6) as u32, 0.7f32), ((6 + (i / 2) % 4) as u32, 0.3)];
            let evicted = if window.len() >= 4 {
                vec![window.remove(0)]
            } else {
                vec![]
            };
            let d = delta(&terms, i + 1, evicted);
            window.push(d.entered.clone().unwrap());
            with.on_feed_delta(&store_a, UserId(0), &d);
            without.on_feed_delta(&store_b, UserId(0), &d);
            let now = Timestamp::from_secs(i + 1);
            let a = with.recommend(&store_a, UserId(0), now, LocationId(0), 3);
            let b = without.recommend(&store_b, UserId(0), now, LocationId(0), 3);
            let ids_a: Vec<_> = a.iter().map(|r| r.ad).collect();
            let ids_b: Vec<_> = b.iter().map(|r| r.ad).collect();
            assert_eq!(ids_a, ids_b, "step {i}: screening changed results");
        }
        assert!(
            with.stats().screened_out > 0,
            "screening should fire on this workload"
        );
        assert_eq!(without.stats().screened_out, 0);
        assert!(
            with.stats().ads_scored <= without.stats().ads_scored,
            "screening must not increase exact dots"
        );
    }

    #[test]
    fn budgeted_policy_refreshes_less() {
        // Workload engineered so the outside bound genuinely inflates:
        // two outside ads are nudged on *alternating* events, so the
        // shared bound (max-gain per event) grows twice as fast as either
        // ad's true relevance. Eager certification eventually trips;
        // a large slack budget never does.
        let build = |refresh| {
            let store = store_with(&[
                &[(0, 1.0)],             // the buffered champion
                &[(1, 0.02), (2, 0.98)], // slow-gaining outsider A
                &[(3, 0.02), (4, 0.98)], // slow-gaining outsider B
            ]);
            let config = EngineConfig {
                k: 1,
                buffer_headroom: 1,
                refresh,
                half_life: None,
                ..Default::default()
            };
            (store, IncrementalEngine::new(1, config))
        };
        let (store_e, mut eager) = build(RefreshPolicy::Eager);
        let (store_l, mut lazy) = build(RefreshPolicy::Budgeted { slack: 10.0 });
        // Champion context: one strong and one weak message on term 0.
        let strong = delta(&[(0, 0.9)], 1, vec![]);
        let strong_msg = strong.entered.clone().unwrap();
        let weak = delta(&[(0, 0.1)], 2, vec![]);
        for e in [&strong, &weak] {
            eager.on_feed_delta(&store_e, UserId(0), e);
            lazy.on_feed_delta(&store_l, UserId(0), e);
        }
        // Alternating screened events inflate the outside bound toward the
        // champion's relevance (it saturates just below the k-th rank).
        for i in 0..300u64 {
            let term = if i % 2 == 0 { 1 } else { 3 };
            let d = delta(&[(term, 0.25)], i + 3, vec![]);
            eager.on_feed_delta(&store_e, UserId(0), &d);
            lazy.on_feed_delta(&store_l, UserId(0), &d);
        }
        // Now the strong champion message leaves the window: the k-th rank
        // collapses to 0.1 while the stale outside bound stays high. Eager
        // must refresh; a slack of 10 tolerates it (bound ≤ 11 × 0.1).
        let slide = delta(&[(5, 0.01)], 400, vec![strong_msg]);
        eager.on_feed_delta(&store_e, UserId(0), &slide);
        lazy.on_feed_delta(&store_l, UserId(0), &slide);
        assert!(
            eager.stats().refreshes >= 1,
            "eager never tripped: workload broken"
        );
        assert!(
            lazy.stats().refreshes < eager.stats().refreshes,
            "lazy {} vs eager {}",
            lazy.stats().refreshes,
            eager.stats().refreshes
        );
    }

    #[test]
    fn campaign_removal_purges_buffers() {
        let store = store_with(&[&[(1, 1.0)], &[(1, 0.8)]]);
        let mut e = IncrementalEngine::new(1, cfg(2));
        e.on_feed_delta(&store, UserId(0), &delta(&[(1, 1.0)], 1, vec![]));
        let recs = e.recommend(&store, UserId(0), Timestamp::from_secs(1), LocationId(0), 2);
        assert_eq!(recs.len(), 2);
        let mut store = store;
        store.remove(AdId(0));
        e.on_campaign_removed(AdId(0));
        let recs = e.recommend(&store, UserId(0), Timestamp::from_secs(2), LocationId(0), 2);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ad, AdId(1));
    }

    #[test]
    fn batch_removal_matches_sequential_removals() {
        let specs: &[&[(u32, f32)]] = &[&[(1, 1.0)], &[(1, 0.8)], &[(1, 0.6)], &[(2, 0.9)]];
        let build = || {
            let mut e = IncrementalEngine::new(1, cfg(3));
            let store = store_with(specs);
            e.on_feed_delta(&store, UserId(0), &delta(&[(1, 1.0), (2, 0.5)], 1, vec![]));
            (e, store)
        };
        let gone = [AdId(0), AdId(2)];
        let (mut batched, mut store_b) = build();
        let (mut sequential, mut store_s) = build();
        for &ad in &gone {
            store_b.remove(ad);
            store_s.remove(ad);
            sequential.on_campaign_removed(ad);
        }
        batched.on_campaigns_removed(&gone);
        let at = Timestamp::from_secs(2);
        let recs_b = batched.recommend(&store_b, UserId(0), at, LocationId(0), 3);
        let recs_s = sequential.recommend(&store_s, UserId(0), at, LocationId(0), 3);
        assert_eq!(recs_b, recs_s, "batch purge must match per-ad purges");
        assert!(recs_b.iter().all(|r| !gone.contains(&r.ad)));
        // State snapshots agree too, not just the served slice.
        assert_eq!(batched.export_snapshot(), sequential.export_snapshot());
    }

    #[test]
    fn paused_campaigns_filtered_at_serve() {
        let store = store_with(&[&[(1, 1.0)], &[(1, 0.8)]]);
        let mut e = IncrementalEngine::new(1, cfg(1));
        e.on_feed_delta(&store, UserId(0), &delta(&[(1, 1.0)], 1, vec![]));
        let mut store = store;
        store.pause(AdId(0));
        let recs = e.recommend(&store, UserId(0), Timestamp::from_secs(2), LocationId(0), 1);
        assert_eq!(recs[0].ad, AdId(1), "paused top ad must not serve");
    }

    #[test]
    fn empty_feed_serves_nothing() {
        let store = store_with(&[&[(1, 1.0)]]);
        let mut e = IncrementalEngine::new(1, cfg(2));
        let recs = e.recommend(&store, UserId(0), Timestamp::from_secs(1), LocationId(0), 2);
        assert!(recs.is_empty());
    }

    #[test]
    fn maintain_resets_idle_users_to_fresh_state() {
        use adcast_stream::clock::Duration as SimDuration;
        // Ads 2.. share ad 0's term and overflow user 0's 4-ad buffer into
        // its score cache.
        let mut specs: Vec<Vec<(u32, f32)>> = vec![vec![(1, 1.0)], vec![(2, 1.0)]];
        specs.extend((0..8).map(|i| vec![(1, 0.9 - 0.05 * i as f32)]));
        let specs: Vec<&[(u32, f32)]> = specs.iter().map(Vec::as_slice).collect();
        let store = store_with(&specs);
        let mut e = IncrementalEngine::new(2, cfg(1));
        e.on_feed_delta(&store, UserId(0), &delta(&[(1, 1.0)], 1, vec![]));
        e.on_feed_delta(&store, UserId(1), &delta(&[(2, 1.0)], 500, vec![]));
        assert!(
            e.users[0].bounded().is_some_and(|b| !b.cache.is_empty()),
            "user 0 must reach its cache"
        );
        // At t=600s with a 300s idle cut, only user 0 (last active t=1s)
        // is reset; user 1 (t=500s) keeps its state.
        let (scanned, decayed) = e.maintain(Timestamp::from_secs(600), SimDuration::from_secs(300));
        assert_eq!((scanned, decayed), (2, 1));
        assert!(e.context(UserId(0)).is_empty());
        assert!(!e.context(UserId(1)).is_empty());
        let recs = e.recommend(
            &store,
            UserId(0),
            Timestamp::from_secs(601),
            LocationId(0),
            1,
        );
        assert!(recs.is_empty(), "decayed user serves nothing");
        // A second pass finds user 0 stateless: scanned but not decayed.
        let (scanned, decayed) = e.maintain(Timestamp::from_secs(900), SimDuration::from_secs(300));
        assert_eq!((scanned, decayed), (2, 1), "only user 1 decays now");
        // The reset user is bit-identical to a freshly built one.
        let fresh = IncrementalEngine::new(2, cfg(1));
        assert_eq!(
            e.export_snapshot().users[0].context.memory_bytes(),
            fresh.export_snapshot().users[0].context.memory_bytes()
        );
        // …and holds no more memory: a cleared map would keep its table.
        let (decayed, fresh) = (e.users[0].bounded(), fresh.users[0].bounded());
        let bytes =
            |b: Option<&Bounded>| b.map(|b| (b.buffer.memory_bytes(), b.cache.memory_bytes()));
        assert_eq!(bytes(decayed), bytes(fresh));
        assert!(bytes(fresh).is_some());
    }

    /// The postings walk probes the cache before the buffer, which is
    /// sound only while no ad is in both. Check it after every delta of a
    /// seeded stream with churn, for a cache that turns its users dense
    /// (they move to exact lanes) and one that never does.
    #[test]
    fn buffer_and_cache_stay_disjoint() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let ad = |rng: &mut SmallRng| AdSubmission {
            vector: SparseVector::from_pairs(
                (0..rng.gen_range(1..5))
                    .map(|_| (TermId(rng.gen_range(0..24)), rng.gen_range(0.05f32..1.0))),
            ),
            bid: rng.gen_range(0.5f32..2.0),
            targeting: Targeting::everywhere(),
            budget: Budget::unlimited(),
            topic_hint: None,
        };
        for (cache_capacity, lanes) in [(8192, true), (16, false)] {
            let mut rng = SmallRng::seed_from_u64(0xd15_0123 ^ cache_capacity as u64);
            let mut store = AdStore::new();
            for _ in 0..300 {
                store.submit(ad(&mut rng)).unwrap();
            }
            let config = EngineConfig {
                k: 3,
                cache_capacity,
                half_life: None,
                ..Default::default()
            };
            let mut e = IncrementalEngine::new(6, config);
            let mut windows: Vec<Vec<Arc<Message>>> = vec![Vec::new(); 6];
            let mut paused = Vec::new();
            for i in 0..3_000u64 {
                let user = UserId(rng.gen_range(0..6));
                let terms: Vec<(u32, f32)> = (0..3)
                    .map(|_| (rng.gen_range(0..24), rng.gen_range(0.1f32..1.0)))
                    .collect();
                let window = &mut windows[user.index()];
                let evicted = if window.len() >= 8 {
                    vec![window.remove(0)]
                } else {
                    vec![]
                };
                let d = delta(&terms, i + 1, evicted);
                window.push(d.entered.clone().unwrap());
                e.on_feed_delta(&store, user, &d);
                if i % 7 == 0 {
                    let now = Timestamp::from_secs(i + 1);
                    e.recommend(&store, user, now, LocationId(0), 3);
                }
                match i % 600 {
                    100 => paused.extend(
                        (0..10)
                            .map(|_| AdId(rng.gen_range(0..300)))
                            .filter(|&a| store.pause(a)),
                    ),
                    200 => paused.drain(..).for_each(|a| {
                        store.resume(a);
                    }),
                    300 => {
                        let gone: Vec<AdId> = (0..4)
                            .map(|_| AdId(rng.gen_range(0..300)))
                            .filter(|&a| store.remove(a))
                            .collect();
                        e.on_campaigns_removed(&gone);
                    }
                    400 => {
                        store.submit(ad(&mut rng)).unwrap();
                    }
                    _ => {}
                }
                for (u, st) in e.users.iter().enumerate() {
                    let Some(st) = st.bounded() else { continue };
                    if let Some((ad, _)) =
                        st.buffer.iter().find(|&(ad, _)| st.cache.get(ad).is_some())
                    {
                        panic!("delta {i}: user {u} holds {ad:?} in both buffer and cache");
                    }
                }
            }
            assert_eq!(e.lane_users() > 0, lanes, "cache capacity {cache_capacity}");
        }
    }

    /// A topical catalogue of 400 ads over 60 terms and a seeded stream of
    /// sliding-window deltas for `users` users, `per_user` deltas each,
    /// dense enough that every user converts to an exact lane.
    fn dense_workload(seed: u64, users: u32, per_user: u64) -> (AdStore, Vec<(UserId, FeedDelta)>) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let term = |rng: &mut SmallRng, topic: u32| {
            if rng.gen_range(0..5u32) == 0 {
                rng.gen_range(0..60u32)
            } else {
                15 * topic + rng.gen_range(0..15u32)
            }
        };
        let mut store = AdStore::new();
        for _ in 0..400 {
            let topic = rng.gen_range(0..4u32);
            let n = rng.gen_range(2..7);
            let pairs: Vec<(u32, f32)> = (0..n)
                .map(|_| (term(&mut rng, topic), rng.gen_range(0.05f32..1.0)))
                .collect();
            store
                .submit(AdSubmission {
                    vector: v(&pairs),
                    bid: rng.gen_range(0.5f32..2.0),
                    targeting: Targeting::everywhere(),
                    budget: Budget::unlimited(),
                    topic_hint: None,
                })
                .unwrap();
        }
        let mut windows: Vec<Vec<Arc<Message>>> = vec![Vec::new(); users as usize];
        let stream = (0..u64::from(users) * per_user)
            .map(|i| {
                let user = UserId((i % u64::from(users)) as u32);
                let n = rng.gen_range(2..6);
                let pairs: Vec<(u32, f32)> = (0..n)
                    .map(|_| (term(&mut rng, user.0 % 4), rng.gen_range(0.1f32..1.0)))
                    .collect();
                let window = &mut windows[user.index()];
                let evicted = if window.len() >= 12 {
                    vec![window.remove(0)]
                } else {
                    vec![]
                };
                let d = delta(&pairs, i + 1, evicted);
                window.push(d.entered.clone().unwrap());
                (user, d)
            })
            .collect();
        (store, stream)
    }

    /// Exact lanes drift from fresh dots only by f32 rounding, and the
    /// re-anchors keep that bounded: over 3.5 × `REANCHOR_EVERY` deltas
    /// per user with campaign churn, every lane slot stays within 1e-4 of
    /// the user's top relevance, the served top-k ids equal
    /// `IndexScanEngine`'s, and right after a re-anchor the served list is
    /// bit-identical to it.
    #[test]
    fn exact_lanes_track_fresh_dots_and_the_index_scan() {
        use crate::engine::IndexScanEngine;
        use adcast_ads::CampaignState;
        const USERS: u32 = 4;
        let per_user = u64::from(REANCHOR_EVERY) * 7 / 2;
        let (mut store, stream) = dense_workload(0x1a4e, USERS, per_user);
        let config = EngineConfig {
            k: 5,
            half_life: None,
            ..Default::default()
        };
        let mut inc = IncrementalEngine::new(USERS, config.clone());
        let mut idx = IndexScanEngine::new(USERS, config);
        let (mut checked, mut anchored) = (0, 0);
        for (i, (user, d)) in stream.iter().enumerate() {
            inc.on_feed_delta(&store, *user, d);
            idx.on_feed_delta(&store, *user, d);
            if let Relevance::Exact(_) = inc.users[user.index()].relevance {
                // A delta re-anchors a lane left stale by a resume.
                assert_eq!(inc.users[user.index()].index_epoch, store.index_epoch());
            }
            match i % 900 {
                300 => {
                    for ad in (7..400).step_by(37) {
                        store.pause(AdId(ad));
                    }
                }
                510 => {
                    for ad in (7..400).step_by(74) {
                        store.resume(AdId(ad));
                    }
                }
                700 => {
                    let gone: Vec<AdId> = (11..400).step_by(97).map(AdId).collect();
                    gone.iter().for_each(|&ad| {
                        store.remove(ad);
                    });
                    inc.on_campaigns_removed(&gone);
                }
                _ => {}
            }
            if i % 25 != 0 {
                continue;
            }
            let now = Timestamp::from_secs(i as u64 + 1);
            for u in (0..USERS).map(UserId) {
                let st = &inc.users[u.index()];
                let Relevance::Exact(lane) = &st.relevance else {
                    continue;
                };
                let fresh: Vec<f32> = (0..store.num_total() as u32)
                    .map(|ad| {
                        let a = store.campaign(AdId(ad)).unwrap();
                        if a.is_active() {
                            st.ctx.raw().dot(&a.ad.vector)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let top = fresh.iter().copied().fold(0.0f32, f32::max);
                for (ad, &want) in fresh.iter().enumerate() {
                    let state = store.campaign(AdId(ad as u32)).unwrap().state();
                    let got = lane.rel[ad];
                    if state == CampaignState::Active && st.index_epoch == store.index_epoch() {
                        assert!(
                            (got - want).abs() <= 1e-4 * top,
                            "delta {i} user {u:?} ad {ad}: lane {got} vs dot {want} (top {top})"
                        );
                    }
                    if state == CampaignState::Removed {
                        assert_eq!(got, 0.0, "delta {i} user {u:?}: removed ad {ad}");
                    }
                }
                let since_anchor = lane.since_anchor;
                let a = inc.recommend(&store, u, now, LocationId(0), 5);
                let b = idx.recommend(&store, u, now, LocationId(0), 5);
                let ids = |r: &[Recommendation]| r.iter().map(|r| r.ad).collect::<Vec<_>>();
                assert_eq!(ids(&a), ids(&b), "delta {i} user {u:?}");
                if since_anchor == 0 {
                    assert_eq!(a, b, "delta {i} user {u:?}: fresh anchor differs");
                    anchored += 1;
                }
                checked += 1;
            }
        }
        assert_eq!(inc.lane_users(), USERS as usize);
        assert!(
            checked > 100 && anchored > 0,
            "{checked} checks, {anchored} anchored"
        );
        // Conversions, the periodic re-anchors and the resumes' epochs.
        assert!(inc.stats().refreshes >= u64::from(USERS) * 4);
    }

    /// A snapshot taken between two re-anchors restores to an engine that
    /// replays the rest of the stream to the same state, bit for bit, as
    /// an engine that never stopped; `maintain` then returns every lane
    /// user to a fresh bounded one.
    #[test]
    fn snapshot_between_reanchors_replays_bit_identically() {
        use adcast_stream::clock::Duration as SimDuration;
        const USERS: u32 = 3;
        let (mut store, stream) = dense_workload(0x5a4e, USERS, 400);
        let config = EngineConfig {
            k: 4,
            half_life: Some(SimDuration::from_secs(3_000)),
            ..Default::default()
        };
        let mut whole = IncrementalEngine::new(USERS, config.clone());
        let cut = stream.len() / 2;
        let mut restored = None;
        for (i, (user, d)) in stream.iter().enumerate() {
            if i == cut {
                let mid: Vec<u32> = whole
                    .users
                    .iter()
                    .filter_map(|st| match &st.relevance {
                        Relevance::Exact(lane) => Some(lane.since_anchor),
                        Relevance::Bounded(_) => None,
                    })
                    .collect();
                assert!(
                    mid.len() == USERS as usize && mid.iter().all(|&n| n > 0),
                    "the cut must fall between re-anchors: {mid:?}"
                );
                let mut e = IncrementalEngine::new(USERS, config.clone());
                e.restore_snapshot(&whole.export_snapshot()).unwrap();
                assert_eq!(e.export_snapshot(), whole.export_snapshot());
                restored = Some(e);
            }
            if i == cut + 100 {
                store
                    .submit(AdSubmission {
                        vector: v(&[(3, 0.5), (20, 0.25)]),
                        bid: 1.0,
                        targeting: Targeting::everywhere(),
                        budget: Budget::unlimited(),
                        topic_hint: None,
                    })
                    .unwrap();
            }
            whole.on_feed_delta(&store, *user, d);
            if let Some(e) = restored.as_mut() {
                e.on_feed_delta(&store, *user, d);
            }
        }
        let mut restored = restored.unwrap();
        assert_eq!(restored.export_snapshot(), whole.export_snapshot());
        let now = Timestamp::from_secs(stream.len() as u64);
        for u in (0..USERS).map(UserId) {
            assert_eq!(
                restored.recommend(&store, u, now, LocationId(0), 4),
                whole.recommend(&store, u, now, LocationId(0), 4)
            );
        }
        assert_eq!(whole.lane_users(), USERS as usize);
        let later = Timestamp::from_secs(stream.len() as u64 + 10_000);
        assert_eq!(whole.maintain(later, SimDuration::from_secs(100)), (3, 3));
        assert_eq!(whole.lane_users(), 0);
        let fresh = IncrementalEngine::new(USERS, config);
        assert_eq!(whole.export_snapshot().users, fresh.export_snapshot().users);
        let bytes = |st: &UserState| {
            st.bounded()
                .map(|b| b.buffer.memory_bytes() + b.cache.memory_bytes())
        };
        for (decayed, fresh) in whole.users.iter().zip(&fresh.users) {
            assert_eq!(bytes(decayed), bytes(fresh));
        }
    }

    /// A WAL replay never sees reads, so reads must not change anything
    /// that decides a user's lane: an engine serving `k = config.k` reads
    /// before the users' first deltas, between deltas and right after a
    /// submission ends bit-identical to one that only applied the deltas.
    #[test]
    fn reads_leave_lanes_and_conversions_unchanged() {
        const USERS: u32 = 8;
        let (mut store, stream) = dense_workload(0, USERS, 120);
        let mut served = IncrementalEngine::new(USERS, EngineConfig::default());
        let mut replay = IncrementalEngine::new(USERS, EngineConfig::default());
        let read_all = |e: &mut IncrementalEngine, store: &AdStore, at: u64| {
            for u in (0..USERS).map(UserId) {
                e.recommend(store, u, Timestamp::from_secs(at), LocationId(0), 10);
            }
        };
        read_all(&mut served, &store, 0);
        for (i, (user, d)) in stream.iter().enumerate() {
            served.on_feed_delta(&store, *user, d);
            replay.on_feed_delta(&store, *user, d);
            if i == 500 {
                // The submission re-anchors every lane, so compare first.
                assert_eq!(
                    served.export_snapshot().users,
                    replay.export_snapshot().users
                );
                store
                    .submit(AdSubmission {
                        vector: v(&[(3, 0.5), (20, 0.25)]),
                        bid: 1.0,
                        targeting: Targeting::everywhere(),
                        budget: Budget::unlimited(),
                        topic_hint: None,
                    })
                    .unwrap();
                read_all(&mut served, &store, i as u64 + 1);
            }
            if i % 7 == 0 {
                read_all(&mut served, &store, i as u64 + 1);
            }
        }
        assert_eq!(replay.lane_users(), USERS as usize);
        assert_eq!(
            served.export_snapshot().users,
            replay.export_snapshot().users
        );
    }

    #[test]
    fn stats_and_name() {
        let store = store_with(&[&[(1, 1.0)]]);
        let mut e = IncrementalEngine::new(1, cfg(1));
        e.on_feed_delta(&store, UserId(0), &delta(&[(1, 1.0)], 1, vec![]));
        assert_eq!(e.stats().deltas, 1);
        assert!(e.stats().postings_scanned > 0);
        assert_eq!(e.name(), "incremental");
        assert!(e.memory_bytes() > 0);
    }
}
