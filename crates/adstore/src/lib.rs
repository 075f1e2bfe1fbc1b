//! # adcast-ads — advertisement substrate for `adcast`
//!
//! Everything on the advertiser side of the system:
//!
//! * [`ad`] — the ad unit: keyword vector + bid,
//! * [`targeting`] — location / time-slot predicates,
//! * [`budget`] — campaign budgets with spend tracking,
//! * [`campaign`] — ad + budget + lifecycle state,
//! * [`idhash`] — the one hasher for dense `u32` ids ([`IdMap`]), keying
//!   the index's term table and the engine's per-user maps,
//! * [`index`] — the impact-ordered blocked inverted index over ad terms:
//!   SoA posting lanes sorted by descending weight with per-block maxima
//!   (the upper-bound metadata that block-max WAND pruning and the
//!   incremental engine's promotion screening both rely on),
//! * [`store`] — the campaign table keeping index and lifecycle consistent
//!   under churn (insert / pause / resume / budget exhaustion),
//! * [`auction`] — generalized second-price auctions with quality scores,
//! * [`ctr`] — position-bias click simulation and smoothed CTR tracking,
//! * [`pacing`] — multiplicative-feedback budget pacing,
//! * [`snapshot`] — plain-data capture of the full store state (private
//!   fields included) for the durability layer's snapshot files.

pub mod ad;
pub mod auction;
pub mod budget;
pub mod campaign;
pub mod ctr;
pub mod idhash;
pub mod index;
pub mod pacing;
pub mod snapshot;
pub mod store;
pub mod targeting;

pub use ad::{Ad, AdId};
pub use auction::{run_gsp, AuctionBid, AuctionConfig, SlotAward};
pub use budget::Budget;
pub use campaign::{Campaign, CampaignState};
pub use ctr::{ClickModel, CtrTracker};
pub use idhash::{idmap_bytes, IdHasher, IdMap};
pub use index::{AdIndex, Posting, PostingsView, BLOCK_SIZE};
pub use pacing::PacingController;
pub use snapshot::{CampaignSnapshot, PacingSnapshot, StoreSnapshot};
pub use store::{AdStore, AdSubmission};
pub use targeting::Targeting;
