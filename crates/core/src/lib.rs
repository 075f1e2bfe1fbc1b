//! # adcast-core — context-aware ad recommendation for high-speed social
//! news feeding
//!
//! The primary contribution reproduced from Li, Zhang, Lan, Tan (ICDE
//! 2016): continuous, per-user top-k advertisement selection driven by the
//! user's *news-feed context*, maintained **incrementally** as feeds update
//! at high rates.
//!
//! ## The problem
//!
//! Every user's context is the recency-decayed aggregate of the messages
//! currently in their feed window. Ads are ranked by a blend of textual
//! relevance (ad keywords vs. context) and advertiser bid. Feeds update
//! thousands of times per second platform-wide; re-ranking every ad on
//! every update does not scale.
//!
//! ## The engines
//!
//! * [`engine::FullScanEngine`] — baseline 1: score every active ad on
//!   every request. Exact, O(|A|).
//! * [`engine::IndexScanEngine`] — baseline 2: exact term-at-a-time
//!   re-evaluation over the ad inverted index on every request. Exact,
//!   O(postings of context terms).
//! * [`engine::IncrementalEngine`] — the system: per-user candidate
//!   buffers hold exact forward-decayed scores for the top-B ads; feed
//!   deltas touch only the posting lists of the changed terms; per-term
//!   max-weight screening decides which outside ads are worth an exact
//!   dot; a certified *outside bound* triggers refreshes exactly when the
//!   buffered top-k can no longer be proven correct (eager mode) or when a
//!   slack budget is exceeded (lazy mode). O(Δ postings) per update.
//!
//! ## Module map
//!
//! * [`config`] — engine configuration,
//! * [`context`] — forward-decayed per-user context accumulators,
//! * [`score`] — the relevance × bid scoring policy,
//! * [`topk`] — deterministic top-k selection,
//! * [`skyband`] — the candidate buffer,
//! * [`engine`] — the three engines behind one trait,
//! * [`market`] — auction + engagement + billing on top of the engines
//!   (GSP pricing, click simulation, CPC billing, budget pacing),
//! * [`runner`] — single-threaded simulation glue (generator → feed →
//!   engine) used by examples, tests, and the harness,
//! * [`driver`] — the sharded multi-threaded driver (E10 scalability),
//! * [`snapshot`] — plain-data engine snapshots for `adcast-durability`.

#[cfg(feature = "debug-stats")]
pub mod allocmeter;
pub mod config;
pub mod context;
pub mod driver;
pub mod engine;
pub mod market;
pub mod runner;
pub mod score;
pub mod skyband;
pub mod snapshot;
pub mod topk;

pub use config::{DriverConfig, EngineConfig, RefreshPolicy};
pub use context::UserContext;
pub use driver::{DriverError, ShardedDriver};
pub use engine::{
    EngineStats, FullScanEngine, IncrementalEngine, IndexScanEngine, Recommendation,
    RecommendationEngine,
};
pub use market::{AdMarket, ServedImpression};
pub use runner::{Simulation, SimulationConfig};
pub use score::ScoringPolicy;
pub use snapshot::{EngineSnapshot, RelevanceSnapshot, UserStateSnapshot};
