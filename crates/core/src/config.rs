//! Engine configuration.

use adcast_feed::WindowConfig;
use adcast_stream::clock::Duration;

use crate::score::ScoringPolicy;

/// When does the incremental engine re-establish buffer exactness?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshPolicy {
    /// Refresh the moment the buffered top-k can no longer be certified
    /// (`outside_bound > k-th buffered score`). The engine is then exact.
    Eager,
    /// Tolerate bounded staleness: refresh only when
    /// `outside_bound > (1 + slack) · k-th buffered score`. Larger slack =
    /// fewer refreshes = higher throughput, with relevance error bounded
    /// by the slack factor. `slack = 0` coincides with [`Eager`].
    ///
    /// [`Eager`]: RefreshPolicy::Eager
    Budgeted {
        /// Allowed relative staleness (≥ 0).
        slack: f32,
    },
}

impl RefreshPolicy {
    /// Should a buffer with certified bound `kth` and outside bound
    /// `outside` be refreshed?
    pub fn should_refresh(self, kth: f32, outside: f32) -> bool {
        match self {
            RefreshPolicy::Eager => outside > kth,
            RefreshPolicy::Budgeted { slack } => outside > kth * (1.0 + slack),
        }
    }
}

/// Configuration shared by all engines (window/decay/scoring) plus the
/// incremental engine's knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Results per recommendation request.
    pub k: usize,
    /// Feed window shape (must match the feed delivery's window).
    pub window: WindowConfig,
    /// Context recency half-life; `None` disables decay.
    pub half_life: Option<Duration>,
    /// Relevance/bid blending.
    pub scoring: ScoringPolicy,
    /// Candidate-buffer capacity as a multiple of `k` (incremental engine
    /// only). The paper-class sweet spot is 2–4.
    pub buffer_headroom: usize,
    /// Refresh policy (incremental engine only).
    pub refresh: RefreshPolicy,
    /// Use per-term max-weight screening before paying an exact dot for an
    /// outside ad (incremental engine only; E9 ablation switch).
    pub screening: bool,
    /// Per-user score-cache capacity (incremental engine only; 0 turns
    /// the cache off — E9 ablation switch). The cache memoizes exact
    /// forward-scale dots of candidates that did not make the buffer, so
    /// repeatedly-touched popular ads are nudged in O(1) instead of being
    /// re-scored on every delta. Cached values are exact when written and
    /// only ever drift *high* (they ignore evictions), so they remain
    /// sound upper bounds; promotions re-verify with an exact dot.
    ///
    /// The cache serves only the engine's bounded regime. Once a user's
    /// cache holds at least 64 ads and a quarter of the catalogue's ids,
    /// the user moves to an exact lane — one `f32` of relevance per ad id,
    /// maintained by scatter-adds with no bounds to certify — and its
    /// cache is dropped. At the default a user typically caches most of a
    /// catalogue of a few thousand ads, so it converts; a capacity below
    /// a quarter of the catalogue (or below 64) keeps every user bounded.
    pub cache_capacity: usize,
    /// Minimum true-scale relevance an ad needs to be served. Shields all
    /// engines from f32 cancellation dust left by window evictions (an ad
    /// whose only matching message just left the window has a true
    /// relevance of ~1e-8·context-scale, not a meaningful match).
    pub min_relevance: f32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            k: 10,
            window: WindowConfig::count(32),
            half_life: Some(Duration::from_secs(3600)),
            scoring: ScoringPolicy::pure_relevance(),
            buffer_headroom: 4,
            refresh: RefreshPolicy::Eager,
            screening: true,
            cache_capacity: 8192,
            min_relevance: 1e-5,
        }
    }
}

impl EngineConfig {
    /// Buffer capacity in ads.
    pub fn buffer_capacity(&self) -> usize {
        (self.k * self.buffer_headroom).max(self.k)
    }

    /// Validate invariants; the engines call this on construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be positive".into());
        }
        if self.buffer_headroom == 0 {
            return Err("buffer_headroom must be positive".into());
        }
        if let RefreshPolicy::Budgeted { slack } = self.refresh {
            if !(slack.is_finite() && slack >= 0.0) {
                return Err(format!("invalid slack {slack}"));
            }
        }
        if !(self.min_relevance.is_finite() && self.min_relevance >= 0.0) {
            return Err(format!("invalid min_relevance {}", self.min_relevance));
        }
        self.scoring.validate()?;
        Ok(())
    }
}

/// Configuration of the sharded worker pool (see [`crate::driver`]).
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Worker shards. Each shard owns one engine instance holding only its
    /// resident users' state; for `num_shards > 1` the driver spawns one
    /// long-lived worker thread per shard (once, at construction).
    pub num_shards: usize,
    /// Per-shard engine configuration.
    pub engine: EngineConfig,
}

impl DriverConfig {
    /// Validate invariants; the driver calls this on construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_shards == 0 {
            return Err("need at least one shard".into());
        }
        self.engine.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn driver_config_zero_shards_rejected() {
        let cfg = DriverConfig {
            num_shards: 0,
            engine: EngineConfig::default(),
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn buffer_capacity_scales_with_k() {
        let cfg = EngineConfig {
            k: 5,
            buffer_headroom: 3,
            ..Default::default()
        };
        assert_eq!(cfg.buffer_capacity(), 15);
    }

    #[test]
    fn zero_k_rejected() {
        let cfg = EngineConfig {
            k: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_headroom_rejected() {
        let cfg = EngineConfig {
            buffer_headroom: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn negative_slack_rejected() {
        let cfg = EngineConfig {
            refresh: RefreshPolicy::Budgeted { slack: -0.5 },
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn refresh_policy_thresholds() {
        assert!(RefreshPolicy::Eager.should_refresh(1.0, 1.1));
        assert!(!RefreshPolicy::Eager.should_refresh(1.0, 1.0));
        let lazy = RefreshPolicy::Budgeted { slack: 0.5 };
        assert!(!lazy.should_refresh(1.0, 1.4));
        assert!(lazy.should_refresh(1.0, 1.6));
        // slack 0 == eager.
        let zero = RefreshPolicy::Budgeted { slack: 0.0 };
        assert_eq!(
            zero.should_refresh(1.0, 1.1),
            RefreshPolicy::Eager.should_refresh(1.0, 1.1)
        );
    }
}
