//! Plain-data snapshots of incremental engine state.
//!
//! These structs capture everything a [`crate::engine::IncrementalEngine`]
//! needs to resume serving *bit-identically* after a restart: the
//! forward-decayed context (landmark + raw accumulator), the user's
//! relevance state in whichever regime it is in, and the index epoch that
//! state was last made current against. A bounded user carries its exact
//! candidate buffer, drift-high score cache and both certification
//! bounds; an exact-lane user carries one relevance per ad id and how many
//! deltas it has applied since its last re-anchor.
//!
//! Every field is a function of the records the engine applied: reads
//! never change it, so a snapshot of a serving engine and one of a
//! replay of the same log are equal.
//!
//! They are deliberately dumb data — serialization lives in
//! `adcast-durability`, which encodes them with the same length-prefixed,
//! CRC-checked framing as the WAL. Buffer and cache entries are exported
//! sorted by ad id so the encoded form is deterministic (HashMap iteration
//! order is not).

use adcast_ads::AdId;
use adcast_stream::clock::Timestamp;
use adcast_text::SparseVector;

/// One user's incremental state, ready for serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct UserStateSnapshot {
    /// Forward-decay landmark of the context accumulator.
    pub landmark: Timestamp,
    /// Timestamp of the newest message folded into the context.
    pub last_ts: Timestamp,
    /// The raw (forward-scale) context accumulator.
    pub context: SparseVector,
    /// The user's relevance state.
    pub relevance: RelevanceSnapshot,
    /// Store index epoch the relevance state was last made current
    /// against (certified buffer or re-anchored lane).
    pub index_epoch: u64,
}

/// A user's relevance state in one of the engine's two regimes.
#[derive(Debug, Clone, PartialEq)]
pub enum RelevanceSnapshot {
    /// Sparse user: exact buffer, drift-high cache, certification bounds.
    Bounded {
        /// Exact buffered `(ad, forward relevance)` pairs, sorted by ad id.
        buffer: Vec<(AdId, f32)>,
        /// Cached `(ad, drift-high bound)` pairs, sorted by ad id.
        cache: Vec<(AdId, f32)>,
        /// Upper bound covering every cached ad.
        ceiling: f32,
        /// Upper bound covering every ad neither buffered nor cached.
        outside_bound: f32,
    },
    /// Dense user: forward relevance of every ad id.
    Exact {
        /// `lane[id]` is ad `id`'s forward-scale relevance.
        lane: Vec<f32>,
        /// Deltas applied since the lane was last rebuilt from the index.
        since_anchor: u32,
    },
}

/// One engine's full state: every user's. Work counters are
/// process-lifetime and stay out of it, so a snapshot equals a replay of
/// the log it was cut from.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Per-user state in user order.
    pub users: Vec<UserStateSnapshot>,
}
