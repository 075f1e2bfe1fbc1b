//! Randomized property tests for the text substrate invariants.
//!
//! Formerly a proptest suite; the offline build environment has no
//! proptest, so the same properties are exercised with a seeded
//! [`SmallRng`] harness (fixed seeds → fully deterministic CI, several
//! hundred cases per property — more than the proptest default of 256).

use adcast_text::dictionary::TermId;
use adcast_text::normalize::normalize;
use adcast_text::pipeline::TextPipeline;
use adcast_text::sparse::{ScratchSpace, SparseVector, GALLOP_MIN_LEN, GALLOP_RATIO};
use adcast_text::stemmer::stem;
use adcast_text::tokenizer::{Tokenizer, TokenizerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 300;

fn rand_pairs(rng: &mut SmallRng) -> Vec<(u32, f32)> {
    let n = rng.gen_range(0..32usize);
    (0..n)
        .map(|_| (rng.gen_range(0..64u32), rng.gen_range(-10.0f32..10.0)))
        .collect()
}

fn sv(pairs: &[(u32, f32)]) -> SparseVector {
    SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
}

fn rand_word(rng: &mut SmallRng, min: usize, max: usize) -> String {
    let n = rng.gen_range(min..=max);
    (0..n)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

/// Printable-ish text: ASCII, whitespace, punctuation, and a sprinkle of
/// multi-byte unicode (the old proptest strategy was `\PC{0,n}`).
fn rand_text(rng: &mut SmallRng, max: usize) -> String {
    const POOL: &[char] = &[
        'a', 'b', 'c', 'z', 'E', 'Q', '0', '7', ' ', ' ', '\t', '.', ',', '!', '#', '@', '-', '_',
        '\'', '"', '/', ':', 'é', 'ü', 'ß', 'α', 'Ж', '中', '文', '🎯', '🚀', '½',
    ];
    let n = rng.gen_range(0..=max);
    (0..n).map(|_| POOL[rng.gen_range(0..POOL.len())]).collect()
}

#[test]
fn sparse_invariants_hold() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0001);
    for _ in 0..CASES {
        let v = sv(&rand_pairs(&mut rng));
        let entries: Vec<(TermId, f32)> = v.iter().collect();
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0, "sorted, unique");
        }
        for &(_, w) in &entries {
            assert!(w != 0.0 && w.is_finite());
        }
    }
}

#[test]
fn dot_is_commutative() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0002);
    for _ in 0..CASES {
        let (a, b) = (sv(&rand_pairs(&mut rng)), sv(&rand_pairs(&mut rng)));
        let ab = a.dot(&b);
        let ba = b.dot(&a);
        assert!((ab - ba).abs() <= 1e-4 * (1.0 + ab.abs()));
    }
}

#[test]
fn dot_matches_bruteforce() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0003);
    for _ in 0..CASES {
        let (a, b) = (sv(&rand_pairs(&mut rng)), sv(&rand_pairs(&mut rng)));
        let brute: f32 = a.iter().map(|(t, w)| w * b.get(t)).sum();
        assert!((a.dot(&b) - brute).abs() <= 1e-3);
    }
}

#[test]
fn dot_matches_bruteforce_skewed_lengths() {
    // The galloping path: one operand much shorter than the other.
    let mut rng = SmallRng::seed_from_u64(0x5EED_0013);
    for _ in 0..CASES {
        let short_n = rng.gen_range(0..6usize);
        let long_n = rng.gen_range(64..400usize);
        let short = sv(&(0..short_n)
            .map(|_| (rng.gen_range(0..2_000u32), rng.gen_range(-2.0f32..2.0)))
            .collect::<Vec<_>>());
        let long = sv(&(0..long_n)
            .map(|_| (rng.gen_range(0..2_000u32), rng.gen_range(-2.0f32..2.0)))
            .collect::<Vec<_>>());
        let brute: f32 = short.iter().map(|(t, w)| w * long.get(t)).sum();
        assert!((short.dot(&long) - brute).abs() <= 1e-3, "short·long");
        assert!((long.dot(&short) - brute).abs() <= 1e-3, "long·short");
    }
}

#[test]
fn cosine_is_bounded() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0004);
    for _ in 0..CASES {
        let c = sv(&rand_pairs(&mut rng)).cosine(&sv(&rand_pairs(&mut rng)));
        assert!(
            (-1.0 - 1e-4..=1.0 + 1e-4).contains(&c),
            "cosine {c} out of range"
        );
    }
}

#[test]
fn axpy_matches_pointwise() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0005);
    for _ in 0..CASES {
        let (mut a_vec, b_vec) = (sv(&rand_pairs(&mut rng)), sv(&rand_pairs(&mut rng)));
        let alpha = rng.gen_range(-4.0f32..4.0);
        let expect: Vec<f32> = (0..64)
            .map(|t| a_vec.get(TermId(t)) + alpha * b_vec.get(TermId(t)))
            .collect();
        a_vec.axpy(alpha, &b_vec);
        for t in 0..64u32 {
            let got = a_vec.get(TermId(t));
            assert!(
                (got - expect[t as usize]).abs() <= 1e-3,
                "term {t}: got {got}, expect {}",
                expect[t as usize]
            );
        }
    }
}

/// One operand pair for the axpy kernels: `base` long enough to sit on
/// either side of `GALLOP_MIN_LEN`, `added` on either side of
/// `GALLOP_RATIO`, with some of `added`'s terms chosen to cancel `base`'s
/// entry below the 1e-12 residue, and `alpha` sometimes large enough that
/// `alpha·b` overflows to infinity.
fn axpy_operands(rng: &mut SmallRng) -> (SparseVector, SparseVector, f32) {
    let base_n = rng.gen_range(0..320usize);
    let base_pairs: Vec<(u32, f32)> = (0..base_n)
        .map(|_| {
            let w = match rng.gen_range(0..8u32) {
                0 => rng.gen_range(-1e-12f32..1e-12),
                1 => rng.gen_range(-3e38f32..3e38),
                _ => rng.gen_range(-4.0f32..4.0),
            };
            (rng.gen_range(0..1_024u32), w)
        })
        .collect();
    let base = sv(&base_pairs);
    let alpha = match rng.gen_range(0..6u32) {
        0 => 1.0,
        1 => -1.0,
        2 => rng.gen_range(1e30f32..3e38),
        3 => rng.gen_range(-1e-20f32..1e-20),
        _ => rng.gen_range(-4.0f32..4.0),
    };
    let added_n = rng.gen_range(1..=(base.len() / 4).max(2));
    let added = sv(&(0..added_n)
        .map(|_| {
            // A third of the added terms hit a base term and try to
            // cancel it; the rest land anywhere.
            match base.terms().get(rng.gen_range(0..base.len().max(1))) {
                Some(&t) if rng.gen_range(0..3u32) == 0 => (t.0, -base.get(t) / alpha),
                _ => (rng.gen_range(0..1_024u32), rng.gen_range(-4.0f32..4.0)),
            }
        })
        .collect::<Vec<_>>());
    (base, added, alpha)
}

#[test]
fn galloping_axpy_is_bit_identical_to_the_linear_merge() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0014);
    let mut scratch = ScratchSpace::new();
    let (mut galloped, mut collapsed, mut overflowed) = (0usize, 0usize, 0usize);
    for _ in 0..CASES * 10 {
        let (base, added, alpha) = axpy_operands(&mut rng);
        let mut merged = base.clone();
        merged.axpy_merge_in(alpha, &added, &mut scratch);
        let mut gallop = base.clone();
        gallop.axpy_gallop_in(alpha, &added, &mut scratch);
        let mut dispatched = base.clone();
        dispatched.axpy_in(alpha, &added, &mut scratch);
        let bits = |v: &SparseVector| v.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        for (name, got) in [("gallop", &gallop), ("dispatched", &dispatched)] {
            assert_eq!(got.terms(), merged.terms(), "{name}: terms");
            assert_eq!(bits(got), bits(&merged), "{name}: weight bits");
        }
        if base.len() >= GALLOP_MIN_LEN && added.len() * GALLOP_RATIO <= base.len() {
            galloped += 1;
        }
        let union = base
            .terms()
            .iter()
            .chain(added.terms())
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let dropped = union - merged.len();
        let products_overflow = added.weights().iter().any(|&w| !(alpha * w).is_finite());
        if products_overflow {
            overflowed += 1;
        } else if dropped > 0 {
            collapsed += 1;
        }
    }
    // Both sides of the dispatch, and both drop rules, were exercised.
    assert!(
        galloped > CASES / 2 && galloped < CASES * 9,
        "galloped {galloped}"
    );
    assert!(collapsed > CASES / 10, "collapsed {collapsed}");
    assert!(overflowed > CASES / 10, "overflowed {overflowed}");
}

#[test]
fn delta_plus_old_recovers_new() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0006);
    for _ in 0..CASES {
        let (new, old) = (sv(&rand_pairs(&mut rng)), sv(&rand_pairs(&mut rng)));
        let mut rebuilt = old.clone();
        rebuilt.axpy(1.0, &new.delta_from(&old));
        for t in 0..64u32 {
            assert!((rebuilt.get(TermId(t)) - new.get(TermId(t))).abs() <= 1e-3);
        }
    }
}

#[test]
fn normalized_has_unit_norm() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0007);
    let mut nonempty = 0;
    for _ in 0..CASES {
        let v = sv(&rand_pairs(&mut rng));
        if v.is_empty() {
            continue;
        }
        nonempty += 1;
        assert!((v.normalized().norm() - 1.0).abs() < 1e-4);
    }
    assert!(
        nonempty > CASES / 2,
        "generator produced too many empty vectors"
    );
}

// Note: Porter stemming is famously NOT idempotent (e.g. a final -y
// exposed by step 5a turns into -i on a second pass), so we assert the
// weaker property that iterated stemming reaches a fixed point fast.
#[test]
fn stemmer_converges_quickly() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0008);
    'case: for _ in 0..CASES {
        let word = rand_word(&mut rng, 1, 20);
        let mut cur = word.clone();
        for _ in 0..3 {
            let next = stem(&cur);
            if next == cur {
                continue 'case;
            }
            cur = next;
        }
        assert_eq!(
            stem(&cur),
            cur,
            "no fixed point within 3 iterations from {word}"
        );
    }
}

#[test]
fn stemmer_never_grows_much() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0009);
    for _ in 0..CASES {
        // Porter can grow a word by at most one char (e.g. "at" -> "ate"
        // restoration after -ing removal), never more.
        let word = rand_word(&mut rng, 3, 24);
        let s = stem(&word);
        assert!(s.len() <= word.len() + 1);
        assert!(!s.is_empty());
    }
}

#[test]
fn normalize_is_idempotent() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_000A);
    for _ in 0..CASES {
        let text = rand_text(&mut rng, 80);
        let once = normalize(&text);
        assert_eq!(normalize(&once), once);
    }
}

#[test]
fn tokenizer_never_panics_and_respects_lengths() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_000B);
    for _ in 0..CASES {
        let text = rand_text(&mut rng, 200);
        let cfg = TokenizerConfig {
            keep_urls: true,
            keep_numbers: true,
            ..Default::default()
        };
        let min = cfg.min_token_len;
        let max = cfg.max_token_len;
        for tok in Tokenizer::new(cfg).tokenize(&text) {
            let n = tok.text.chars().count();
            assert!(n >= min && n <= max, "token {:?} length {n}", tok.text);
        }
    }
}

#[test]
fn pipeline_vectors_are_normalized() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_000C);
    let mut p = TextPipeline::standard();
    for _ in 0..CASES {
        let v = p.index_document(&rand_text(&mut rng, 120));
        if !v.is_empty() {
            assert!((v.norm() - 1.0).abs() < 1e-4);
        }
    }
}

#[test]
fn pipeline_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_000D);
    let mut p1 = TextPipeline::standard();
    let mut p2 = TextPipeline::standard();
    for _ in 0..CASES {
        let text = rand_text(&mut rng, 120);
        assert_eq!(p1.index_document(&text), p2.index_document(&text));
    }
}
