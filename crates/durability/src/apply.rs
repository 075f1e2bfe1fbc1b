//! The single mutation-application path.
//!
//! Both the live server (after logging + committing a record) and
//! recovery replay drive every mutation through [`apply_record`]. That
//! sharing is what makes the bit-identical recovery guarantee hold: a
//! replayed record takes *exactly* the code path the original RPC took,
//! so the recovered store and engines cannot diverge from the
//! uninterrupted twin.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing
    )
)]

use adcast_ads::{AdId, AdStore, CampaignState, PacingController};
use adcast_core::ShardedDriver;
use adcast_graph::UserId;
use adcast_stream::clock::now_ns;

use crate::record::WalRecord;

/// What applying one record did (mirrors what the server acks).
#[expect(
    clippy::exhaustive_enums,
    reason = "one variant per `WalRecord` kind, growing only with it; callers destructure the effect their record produces"
)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApplyEffect {
    /// A feed batch went through the sharded driver.
    Ingested {
        /// Deltas applied.
        accepted: u32,
    },
    /// A campaign was submitted under this id.
    Submitted {
        /// The assigned (sequential) id.
        ad: AdId,
    },
    /// A pause was applied (`changed` is false for no-op pauses).
    Paused {
        /// The campaign paused.
        ad: AdId,
        /// Did the state actually change?
        changed: bool,
    },
    /// A pacing controller was attached.
    PacingSet {
        /// The campaign paced.
        ad: AdId,
        /// Did the campaign exist?
        known: bool,
    },
    /// An impression was recorded.
    Impression {
        /// The campaign charged.
        ad: AdId,
        /// The campaign's state after the charge (`None` for an unknown
        /// campaign).
        state: Option<CampaignState>,
    },
    /// A lifecycle maintenance pass ran.
    Maintained {
        /// Users examined across shards.
        scanned: u64,
        /// Idle users reset to fresh state.
        decayed: u64,
        /// Finished-flight campaigns evicted from the index.
        pruned: u64,
    },
}

/// Apply one decoded WAL record to the store + driver pair.
///
/// # Errors
///
/// A description of why the record could not be applied (out-of-range
/// user, invalid submission, dead driver). During recovery an error here
/// aborts replay — a record that failed to apply live would never have
/// been logged, so failure indicates corruption that slipped past the
/// CRC, or a snapshot/WAL mismatch.
pub fn apply_record(
    store: &mut AdStore,
    driver: &mut ShardedDriver,
    record: WalRecord,
) -> Result<ApplyEffect, String> {
    match record {
        WalRecord::IngestBatch(deltas) => {
            let num_users = driver.num_users();
            for (user, _) in &deltas {
                if user.index() >= num_users as usize {
                    return Err(format!(
                        "user {} out of range (driver holds {num_users})",
                        user.0
                    ));
                }
            }
            let accepted = deltas.len() as u32;
            driver
                .process_batch(store, deltas)
                .map_err(|e| e.to_string())?;
            Ok(ApplyEffect::Ingested { accepted })
        }
        WalRecord::Submit(sub) => {
            let ad = store.submit(sub)?;
            Ok(ApplyEffect::Submitted { ad })
        }
        WalRecord::Pause(ad) => {
            let changed = store.pause(ad);
            if changed {
                driver.on_campaign_removed(ad);
            }
            Ok(ApplyEffect::Paused { ad, changed })
        }
        WalRecord::SetPacing {
            ad,
            start,
            end,
            budget,
        } => {
            // `codec::check_flight` passed this flight before it got here
            // (in the record or wire decoder, or in the node's admission
            // of an in-process request), so the constructor's asserts
            // cannot fire.
            let pacing = PacingController::new(start, end, budget);
            Ok(ApplyEffect::PacingSet {
                ad,
                known: store.set_pacing(ad, pacing),
            })
        }
        WalRecord::Impression {
            ad,
            cost,
            clicked,
            now,
        } => {
            let state = store.record_engagement(ad, cost, clicked, now);
            if state == Some(CampaignState::Exhausted) {
                driver.on_campaign_removed(ad);
            }
            Ok(ApplyEffect::Impression { ad, state })
        }
        WalRecord::Maintenance { now, idle_for } => {
            let pass_started = now_ns();
            let expired = store.expire_finished(now);
            // Batched: flight expiry can retire thousands of campaigns in
            // one pass, and the per-ad purge sweeps every user state.
            driver.on_campaigns_removed(&expired);
            let (scanned, decayed) = driver.maintain(now, idle_for);
            let pruned = expired.len() as u64;
            // Telemetry lives here — on the shared apply path — so the
            // server and the simulation harness emit the same counters,
            // span, and flight-recorder event. Maintenance is rare and
            // cold, so per-pass registry resolution is fine.
            let reg = adcast_obs::registry();
            reg.counter(
                "adcast_maint_scanned_total",
                "Users examined by lifecycle maintenance passes.",
            )
            .add(scanned);
            reg.counter(
                "adcast_maint_decayed_total",
                "Idle users reset by lifecycle maintenance passes.",
            )
            .add(decayed);
            reg.counter(
                "adcast_maint_pruned_total",
                "Finished-flight campaigns evicted by maintenance passes.",
            )
            .add(pruned);
            reg.hist(
                "adcast_maint_pass_ns",
                "Wall time of one full lifecycle maintenance pass.",
            )
            .record(now_ns().saturating_sub(pass_started));
            adcast_obs::flightrec().record(
                adcast_obs::EventKind::Maintenance,
                scanned,
                decayed,
                pruned,
            );
            Ok(ApplyEffect::Maintained {
                scanned,
                decayed,
                pruned,
            })
        }
    }
}

/// Validate that every user in a batch is routable (shared by the server
/// before logging and by [`apply_record`]).
pub fn batch_in_range(deltas: &[(UserId, adcast_feed::FeedDelta)], num_users: u32) -> bool {
    deltas.iter().all(|(u, _)| u.index() < num_users as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast_ads::{AdSubmission, Budget, Targeting};
    use adcast_core::EngineConfig;
    use adcast_feed::FeedDelta;
    use adcast_stream::clock::Timestamp;
    use adcast_stream::event::{LocationId, Message, MessageId};
    use adcast_text::dictionary::TermId;
    use adcast_text::SparseVector;
    use std::sync::Arc;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    fn submission(term: u32, budget: f64) -> AdSubmission {
        AdSubmission {
            vector: v(&[(term, 1.0)]),
            bid: 1.0,
            targeting: Targeting::everywhere(),
            budget: Budget::new(budget),
            topic_hint: None,
        }
    }

    fn pair() -> (AdStore, ShardedDriver) {
        let config = EngineConfig {
            half_life: None,
            ..Default::default()
        };
        (AdStore::new(), ShardedDriver::new(4, 1, config))
    }

    fn delta(term: u32, secs: u64) -> FeedDelta {
        FeedDelta {
            entered: Some(Arc::new(Message {
                id: MessageId(secs),
                author: UserId(0),
                ts: Timestamp::from_secs(secs),
                location: LocationId(0),
                vector: v(&[(term, 1.0)]),
            })),
            evicted: vec![],
        }
    }

    #[test]
    fn lifecycle_round() {
        let (mut store, mut driver) = pair();
        let ad = match apply_record(
            &mut store,
            &mut driver,
            WalRecord::Submit(submission(1, 10.0)),
        )
        .unwrap()
        {
            ApplyEffect::Submitted { ad } => ad,
            other => panic!("{other:?}"),
        };
        assert_eq!(ad, AdId(0));
        let effect = apply_record(
            &mut store,
            &mut driver,
            WalRecord::IngestBatch(vec![(UserId(0), delta(1, 1))]),
        )
        .unwrap();
        assert_eq!(effect, ApplyEffect::Ingested { accepted: 1 });
        assert_eq!(driver.stats().deltas, 1);

        let effect = apply_record(
            &mut store,
            &mut driver,
            WalRecord::SetPacing {
                ad,
                start: Timestamp::from_secs(0),
                end: Timestamp::from_secs(100),
                budget: 5.0,
            },
        )
        .unwrap();
        assert_eq!(effect, ApplyEffect::PacingSet { ad, known: true });

        let impression = WalRecord::Impression {
            ad,
            cost: 0.5,
            clicked: true,
            now: Timestamp::from_secs(10),
        };
        let effect = apply_record(&mut store, &mut driver, impression.clone()).unwrap();
        assert_eq!(
            effect,
            ApplyEffect::Impression {
                ad,
                state: Some(CampaignState::Active)
            }
        );

        let effect = apply_record(&mut store, &mut driver, WalRecord::Pause(ad)).unwrap();
        assert_eq!(effect, ApplyEffect::Paused { ad, changed: true });
        let effect = apply_record(&mut store, &mut driver, WalRecord::Pause(ad)).unwrap();
        assert_eq!(effect, ApplyEffect::Paused { ad, changed: false });
        // A paused campaign is not charged.
        let effect = apply_record(&mut store, &mut driver, impression).unwrap();
        assert_eq!(effect, ApplyEffect::Impression { ad, state: None });
    }

    #[test]
    fn exhausting_impression_reaches_driver() {
        let (mut store, mut driver) = pair();
        apply_record(
            &mut store,
            &mut driver,
            WalRecord::Submit(submission(1, 1.0)),
        )
        .unwrap();
        let effect = apply_record(
            &mut store,
            &mut driver,
            WalRecord::Impression {
                ad: AdId(0),
                cost: 1.0,
                clicked: false,
                now: Timestamp::from_secs(1),
            },
        )
        .unwrap();
        assert_eq!(
            effect,
            ApplyEffect::Impression {
                ad: AdId(0),
                state: Some(CampaignState::Exhausted)
            }
        );
        assert_eq!(store.num_active(), 0);
    }

    #[test]
    fn out_of_range_user_is_a_typed_error() {
        let (mut store, mut driver) = pair();
        let err = apply_record(
            &mut store,
            &mut driver,
            WalRecord::IngestBatch(vec![(UserId(100), delta(1, 1))]),
        )
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // The driver must survive: the batch was rejected before dispatch.
        assert!(!driver.is_dead());
        assert!(!batch_in_range(&[(UserId(100), delta(1, 1))], 4));
        assert!(batch_in_range(&[(UserId(3), delta(1, 1))], 4));
    }

    #[test]
    fn maintenance_decays_idle_users_and_prunes_finished_flights() {
        use adcast_stream::clock::Duration;
        let (mut store, mut driver) = pair();
        apply_record(
            &mut store,
            &mut driver,
            WalRecord::Submit(submission(1, 10.0)),
        )
        .unwrap();
        apply_record(
            &mut store,
            &mut driver,
            WalRecord::SetPacing {
                ad: AdId(0),
                start: Timestamp::from_secs(0),
                end: Timestamp::from_secs(100),
                budget: 5.0,
            },
        )
        .unwrap();
        apply_record(
            &mut store,
            &mut driver,
            WalRecord::IngestBatch(vec![(UserId(0), delta(1, 1))]),
        )
        .unwrap();
        apply_record(
            &mut store,
            &mut driver,
            WalRecord::IngestBatch(vec![(UserId(1), delta(1, 400))]),
        )
        .unwrap();
        // At t=500s: user 0 (idle 499s) decays, user 1 (idle 100s) stays;
        // the campaign's flight ended at t=100s, so it is pruned.
        let effect = apply_record(
            &mut store,
            &mut driver,
            WalRecord::Maintenance {
                now: Timestamp::from_secs(500),
                idle_for: Duration::from_secs(300),
            },
        )
        .unwrap();
        assert_eq!(
            effect,
            ApplyEffect::Maintained {
                scanned: 4,
                decayed: 1,
                pruned: 1,
            }
        );
        assert_eq!(store.num_active(), 0);
        // Replaying the identical record on a fresh pass is a no-op pass.
        let effect = apply_record(
            &mut store,
            &mut driver,
            WalRecord::Maintenance {
                now: Timestamp::from_secs(500),
                idle_for: Duration::from_secs(300),
            },
        )
        .unwrap();
        assert_eq!(
            effect,
            ApplyEffect::Maintained {
                scanned: 4,
                decayed: 0,
                pruned: 0,
            }
        );
    }

    #[test]
    fn unknown_campaign_effects() {
        let (mut store, mut driver) = pair();
        assert_eq!(
            apply_record(&mut store, &mut driver, WalRecord::Pause(AdId(9))).unwrap(),
            ApplyEffect::Paused {
                ad: AdId(9),
                changed: false
            }
        );
        assert_eq!(
            apply_record(
                &mut store,
                &mut driver,
                WalRecord::Impression {
                    ad: AdId(9),
                    cost: 0.1,
                    clicked: false,
                    now: Timestamp::from_secs(1),
                },
            )
            .unwrap(),
            ApplyEffect::Impression {
                ad: AdId(9),
                state: None
            }
        );
    }
}
