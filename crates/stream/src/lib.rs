//! # adcast-stream — streaming substrate for `adcast`
//!
//! The message-stream model and the synthetic workload machinery that
//! substitutes for a Twitter firehose trace (DESIGN.md §5):
//!
//! * [`clock`] — microsecond [`clock::Timestamp`]s and a virtual clock
//!   (experiments run on simulated time; wall time never leaks into the
//!   engines),
//! * [`decay`] — exponential *forward decay* (Cormode et al.): arrivals get
//!   ever-growing weights relative to a fixed landmark so that already
//!   accumulated state never needs rescaling, with explicit renormalization
//!   when the exponent grows too large for `f64`,
//! * [`event`] — messages, ads-relevant ids ([`event::MessageId`],
//!   [`event::LocationId`]) and the stream event enum,
//! * [`geo`] — the 2-D cell grid behind `LocationId` (distances, radius
//!   queries) and the clustered-cities home model,
//! * [`arrival`] — Poisson / uniform / bursty (Markov-modulated) arrival
//!   processes,
//! * [`topics`] — the synthetic topic model: Zipfian vocabulary per topic,
//!   per-user interest mixtures (these mixtures double as the ground truth
//!   for the effectiveness experiments),
//! * [`generator`] — the end-to-end workload generator producing message
//!   streams and ad corpora over a shared dictionary,
//! * [`trace`] — record/replay with a hand-rolled binary codec (no serde
//!   format crates offline),
//! * [`cursor`] — the checked byte cursor and layout primitives every
//!   adcast binary format (trace, wire, WAL, snapshot) decodes through.

pub mod arrival;
pub mod clock;
pub mod cursor;
pub mod decay;
pub mod event;
pub mod generator;
pub mod geo;
pub mod topics;
pub mod trace;

pub use clock::{Duration, Timestamp, VirtualClock};
pub use decay::ForwardDecay;
pub use event::{LocationId, Message, MessageId, TimeSlot};
pub use generator::{WorkloadConfig, WorkloadGenerator};
pub use geo::{CityModel, GeoGrid};
