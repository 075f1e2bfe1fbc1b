//! The benchmark's workloads and the op streams they generate.
//!
//! Inputs are built from the pieces `net::synth` composes — a
//! preferential-attachment follower graph, the topic-mixture
//! `WorkloadGenerator`, push feed delivery — with one change of seeding.
//! `synth::build` feeds its seed to the graph only (the generator always
//! runs on its default seed), so every seed is a different population and
//! phase-B engine cost moved ±12% with it. Here the population (graph,
//! profiles, author activity, campaigns) is fixed, and `--seed` picks which
//! stretch of its traffic is replayed. One generated delta stream is cut,
//! in order, into the warm-up, phase A and phase B, so no delta is sent
//! twice.

use adcast::ads::AdId;
use adcast::core::EngineConfig;
use adcast::feed::{FeedDelivery, FeedDelta, PushDelivery};
use adcast::graph::{generators, UserId};
use adcast::net::synth::SynthWorkload;
use adcast::net::{CampaignSpec, Request};
use adcast::stream::generator::{WorkloadConfig, WorkloadGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::drive::{Expect, Kind, Op};

/// Users in every workload.
pub const USERS: u32 = 4_000;
/// Engine shards per node. One: on a 2-thread machine the 2-shard
/// fork-join pool made throughput bimodal from run to run, and no
/// parallel speed-up can be claimed on 2 threads anyway.
pub const SHARDS: usize = 1;
/// Top-k asked by every Recommend.
pub const K: u16 = 10;

/// One workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Live campaigns.
    pub ads: usize,
    /// Router + primary + follower instead of one node.
    pub routed: bool,
    /// Deltas per Ingest RPC.
    pub batch: usize,
    /// Untimed warm-up before phase A, in deltas: enough for the active
    /// users' feed windows to fill and per-delta apply cost to level off.
    pub warm_deltas: usize,
    /// Phase-A ingest rate in deltas/s, fixed once at about a quarter of
    /// the phase-B throughput this benchmark first measured (2 hardware
    /// threads, one engine shard); never re-derived per run. At half, a
    /// Recommend found the engine busy with a batch about half the time,
    /// which put `recommend_p50_us` on the edge between two modes.
    pub rate: f64,
    /// Recommend RPCs per Ingest RPC.
    pub recs_per_ingest: f64,
    /// Churn pairs (Pause a live campaign + Submit a new one) per Ingest RPC.
    pub churn_per_ingest: f64,
    /// Share of `--seconds` spent in phase A; phase B gets the rest.
    /// `churn_read`'s phase B, the figure most exposed to host speed
    /// shifts, gets 60% of a 14 s run (~16 slices); its phase A still has
    /// ~140 acks (p90 needs 100) and ~24 campaign ops (p50 needs 20).
    pub a_share: f64,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "ingest",
        ads: 2_000,
        routed: false,
        batch: 60,
        warm_deltas: 30_000,
        rate: 4_000.0,
        recs_per_ingest: 0.1,
        churn_per_ingest: 0.0,
        a_share: 0.65,
    },
    Spec {
        name: "churn_read",
        ads: 6_000,
        routed: false,
        batch: 20,
        warm_deltas: 10_000,
        rate: 500.0,
        recs_per_ingest: 1.2,
        churn_per_ingest: 1.0 / 12.0,
        a_share: 0.4,
    },
    Spec {
        name: "routed",
        ads: 2_000,
        routed: true,
        batch: 60,
        warm_deltas: 20_000,
        rate: 1_800.0,
        recs_per_ingest: 0.1,
        churn_per_ingest: 0.0,
        a_share: 0.65,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Every op of one run, cut into phases.
pub struct Plan {
    /// Campaign submits of the set-up, expecting ids `0..ads` in order.
    pub setup: Vec<Op>,
    /// Untimed warm-up, closed loop on one connection.
    pub warm: Vec<Op>,
    /// Phase A, connection 0: ingest and campaign ops, with due times (ns).
    pub a_writes: (Vec<Op>, Vec<u64>),
    /// Phase A, connection 1: recommends, with due times (ns).
    pub a_reads: (Vec<Op>, Vec<u64>),
    /// Phase B, closed loop on one connection, so the order the server
    /// applies — and so its work — is a function of the seed.
    pub b: Vec<Op>,
    /// The sweep: one Recommend per user, in user order.
    pub sweep: Vec<Request>,
}

struct Gen {
    w: SynthWorkload,
    rng: SmallRng,
    ads: usize,
    /// Churn pairs issued so far (pause id `j`, submit spec `ads + j`).
    churn: usize,
}

impl Gen {
    /// `n` arrival instants spread uniformly at random over `span_ns`,
    /// sorted (a Poisson process conditioned on its count). Evenly spaced
    /// reads would phase-lock with the evenly spaced ingests — at some
    /// rates every Recommend was due exactly as a batch started.
    fn arrivals(&mut self, n: usize, span_ns: f64) -> Vec<u64> {
        let mut due: Vec<u64> = (0..n)
            .map(|_| (self.rng.gen::<f64>() * span_ns) as u64)
            .collect();
        due.sort_unstable();
        due
    }

    fn recommend(&mut self) -> Op {
        let user = UserId(self.rng.gen_range(0..self.w.num_users));
        Op {
            req: recommend_req(&self.w, user),
            kind: Kind::Recommend,
            expect: Expect::Recs,
            deltas: 0,
        }
    }

    /// The next churn pair: pause the oldest live campaign, submit a
    /// fresh one, so the live count stays constant. Ids are sequential,
    /// so the pause target and the new id are known in advance.
    fn churn_pair(&mut self) -> Option<[Op; 2]> {
        let j = self.churn;
        let spec = self.w.campaigns.get(self.ads + j)?.clone();
        self.churn += 1;
        let paused = AdId(j as u32);
        let fresh = AdId((self.ads + j) as u32);
        Some([
            Op {
                req: Request::PauseCampaign { ad: paused },
                kind: Kind::Campaign,
                expect: Expect::Paused(paused),
                deltas: 0,
            },
            Op {
                req: Request::SubmitCampaign(spec),
                kind: Kind::Campaign,
                expect: Expect::Accepted(fresh),
                deltas: 0,
            },
        ])
    }
}

fn recommend_req(w: &SynthWorkload, user: UserId) -> Request {
    Request::Recommend {
        user,
        now: w.end_time,
        location: w.homes[user.index()],
        k: K,
    }
}

fn ingest(deltas: Vec<(UserId, FeedDelta)>) -> Op {
    let n = deltas.len() as u32;
    Op {
        req: Request::Ingest { deltas },
        kind: Kind::Ingest,
        expect: Expect::Ingested(n),
        deltas: n,
    }
}

/// Seed of the follower graph every workload shares.
const GRAPH_SEED: u64 = 0xADCA57;
/// Messages discarded per unit of `--seed` before the replayed stretch.
const SKIP_PER_SEED: u64 = 50;

/// The fixed population with `num_ads` campaigns and `deltas` deltas of
/// its traffic, starting `(seed % 1000) * SKIP_PER_SEED` messages in and
/// cut in stream order into batches of exactly `batch` deltas. Skipped
/// messages are never delivered, so no feed window sees them.
fn generate(num_ads: usize, deltas: usize, batch: usize, seed: u64) -> SynthWorkload {
    let mut rng = SmallRng::seed_from_u64(GRAPH_SEED);
    let graph = generators::preferential_attachment(USERS, 12, &mut rng);
    let config = WorkloadConfig {
        num_users: USERS,
        ..WorkloadConfig::default()
    };
    let mut generator = WorkloadGenerator::with_poisson(config, 200.0);
    let campaigns = (0..num_ads)
        .map(|_| {
            let ad = generator.next_ad();
            CampaignSpec {
                topic_hint: Some(ad.topic as u32),
                ..CampaignSpec::unrestricted(ad.vector, 1.0)
            }
        })
        .collect();
    for _ in 0..(seed % 1000) * SKIP_PER_SEED {
        generator.next_message();
    }
    let mut delivery = PushDelivery::new(USERS, EngineConfig::default().window);
    let mut stream = Vec::with_capacity(deltas);
    while stream.len() < deltas {
        stream.extend(delivery.post(&graph, generator.next_message()));
    }
    SynthWorkload {
        batches: stream.chunks(batch).map(<[_]>::to_vec).collect(),
        campaigns,
        num_users: USERS,
        homes: (0..USERS)
            .map(|u| generator.home_location(UserId(u)))
            .collect(),
        end_time: generator.now(),
    }
}

/// Generate the run's ops for `spec` from `seed`, with phase A lasting
/// `a_secs` and the stream long enough for phase B to run `b_secs` at
/// several times the phase-A rate.
pub fn plan(spec: &Spec, seed: u64, a_secs: f64, b_secs: f64) -> Plan {
    let a_deltas = (spec.rate * a_secs) as usize;
    let b_deltas = (spec.rate * 6.0 * b_secs) as usize;
    let total = spec.warm_deltas + a_deltas + b_deltas;
    let churn_reserve =
        (total as f64 / spec.batch as f64 * spec.churn_per_ingest * 2.0) as usize + 16;
    let w = generate(spec.ads + churn_reserve, total, spec.batch, seed);
    let mut g = Gen {
        rng: SmallRng::seed_from_u64(seed ^ 0x005E_ED0F_4EAD),
        ads: spec.ads,
        churn: 0,
        w,
    };
    let setup = g.w.campaigns[..spec.ads]
        .iter()
        .enumerate()
        .map(|(i, c)| Op {
            req: Request::SubmitCampaign(c.clone()),
            kind: Kind::Campaign,
            expect: Expect::Accepted(AdId(i as u32)),
            deltas: 0,
        })
        .collect();
    let sweep = (0..g.w.num_users)
        .map(|u| recommend_req(&g.w, UserId(u)))
        .collect();
    let mut batches = std::mem::take(&mut g.w.batches).into_iter();

    // Warm-up: ingest only.
    let mut warm_batches = Vec::new();
    let mut n = 0;
    for b in batches.by_ref() {
        n += b.len();
        warm_batches.push(b);
        if n >= spec.warm_deltas {
            break;
        }
    }
    let warm = warm_batches.into_iter().map(ingest).collect();

    // Phase A: ingest on a fixed delta rate, campaign pairs interleaved
    // by due time on the same connection, recommends on their own.
    let ns_per_delta = 1e9 / spec.rate;
    let mut writes: Vec<(u64, Op)> = Vec::new();
    let mut sent = 0usize;
    let mut ingests = 0usize;
    while sent < a_deltas {
        let Some(b) = batches.next() else { break };
        let due = (sent as f64 * ns_per_delta) as u64;
        sent += b.len();
        writes.push((due, ingest(b)));
        ingests += 1;
    }
    let a_ns = a_secs * 1e9;
    let pairs = (ingests as f64 * spec.churn_per_ingest).round() as usize;
    for due in g.arrivals(pairs, a_ns) {
        if let Some(pair) = g.churn_pair() {
            for op in pair {
                writes.push((due, op));
            }
        }
    }
    writes.sort_by_key(|(due, _)| *due); // stable: a pair keeps its order
    let recs = (ingests as f64 * spec.recs_per_ingest).round() as usize;
    let reads: Vec<(u64, Op)> = g
        .arrivals(recs, a_ns)
        .into_iter()
        .map(|due| (due, g.recommend()))
        .collect();
    let unzip = |v: Vec<(u64, Op)>| -> (Vec<Op>, Vec<u64>) {
        let (due, ops): (Vec<u64>, Vec<Op>) = v.into_iter().unzip();
        (ops, due)
    };

    // Phase B: the rest of the stream at the same op mix.
    let mut b = Vec::new();
    let (mut rec_credit, mut churn_credit) = (0.0, 0.0);
    for batch in batches {
        b.push(ingest(batch));
        rec_credit += spec.recs_per_ingest;
        while rec_credit >= 1.0 {
            rec_credit -= 1.0;
            let op = g.recommend();
            b.push(op);
        }
        churn_credit += spec.churn_per_ingest;
        while churn_credit >= 1.0 {
            churn_credit -= 1.0;
            if let Some(pair) = g.churn_pair() {
                b.extend(pair);
            }
        }
    }
    Plan {
        setup,
        warm,
        a_writes: unzip(writes),
        a_reads: unzip(reads),
        b,
        sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_stream_is_cut_into_phases_without_repeats() {
        let spec = find("churn_read").unwrap();
        let p = plan(&spec, 9, 0.5, 0.5);
        let ingests = |ops: &[Op]| -> Vec<usize> {
            ops.iter()
                .filter_map(|o| match &o.req {
                    Request::Ingest { deltas } => Some(deltas.len()),
                    _ => None,
                })
                .collect()
        };
        let mut sizes = ingests(&p.warm);
        sizes.extend(ingests(&p.a_writes.0));
        sizes.extend(ingests(&p.b));
        // Every batch but the stream's last holds exactly `batch` deltas.
        assert!(sizes[..sizes.len() - 1].iter().all(|&n| n == spec.batch));
        assert!(sizes.iter().sum::<usize>() >= spec.warm_deltas);
        // Churn ids continue across phases: pause j, submit ads + j.
        let pauses: Vec<u32> = p
            .a_writes
            .0
            .iter()
            .chain(&p.b)
            .filter_map(|o| match o.req {
                Request::PauseCampaign { ad } => Some(ad.0),
                _ => None,
            })
            .collect();
        assert!(!pauses.is_empty());
        assert!(pauses.iter().enumerate().all(|(j, &ad)| ad == j as u32));
        // Due times are ordered on each connection.
        assert!(p.a_writes.1.windows(2).all(|w| w[0] <= w[1]));
        assert!(p.a_reads.1.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(p.sweep.len(), USERS as usize);
    }
}
