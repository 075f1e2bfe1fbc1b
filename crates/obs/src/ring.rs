//! The seq-claim ring under [`crate::flightrec`] and [`crate::tracestore`]:
//! fixed slots of one sequence word plus `W` payload words, all atomics.
//!
//! A push claims a sequence number with a relaxed `fetch_add`, takes its
//! slot by swinging the slot's sequence word from an older value to `BUSY`
//! (a writer whose slot is busy or newer drops its words, so two writers
//! never fill one slot), then `fence(Release)`, relaxed payload stores and
//! a release store of the sequence number. Readers use Boehm's seqlock
//! order ("Can Seqlocks Get Along with Programming Language Memory
//! Models?", MSPC 2012): acquire-load the sequence word, relaxed-load the
//! payload, `fence(Acquire)`, relaxed-load the sequence word again, and
//! keep the slot only if both loads agree. Values published into a slot
//! only grow, so agreeing loads are never an ABA. DESIGN §11 has the
//! argument.

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

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// The sequence word of a slot a writer is filling. It is larger than any
/// sequence number, so "newer than mine" covers it.
const BUSY: u64 = u64::MAX;

/// `seq` 0 marks a never-written slot; live sequence numbers start at 1.
pub(crate) struct Slot<const W: usize> {
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// A ring of the most recent pushes of `W` words each.
pub(crate) struct SeqRing<const W: usize> {
    slots: Box<[Slot<W>]>,
    /// Next sequence number to claim (starts at 1).
    head: AtomicU64,
}

impl<const W: usize> SeqRing<W> {
    /// A ring holding the most recent `capacity.max(1)` pushes.
    pub(crate) fn new(capacity: usize) -> Self {
        let slots = (0..capacity.max(1))
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        SeqRing {
            slots,
            head: AtomicU64::new(1),
        }
    }

    /// Record `words` under the next sequence number.
    #[inline]
    pub(crate) fn push(&self, words: [u64; W]) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) % self.slots.len()];
        let mut cur = slot.seq.load(Ordering::Relaxed);
        loop {
            if cur > seq {
                return;
            }
            // Acquire: the previous writer's payload stores come before ours.
            match slot
                .seq
                .compare_exchange_weak(cur, BUSY, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        fence(Ordering::Release);
        for (cell, word) in slot.words.iter().zip(words) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.seq.store(seq, Ordering::Release);
    }

    /// The stable slots as `(seq, words)`, oldest first. Slots never
    /// written or being written are skipped.
    pub(crate) fn snapshot(&self) -> Vec<(u64, [u64; W])> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before == BUSY {
                continue;
            }
            let words = slot.words.each_ref().map(|w| w.load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == before {
                out.push((before, words));
            }
        }
        out.sort_unstable_by_key(|&(seq, _)| seq);
        out
    }

    /// Bytes resident in the ring (capacity × slot size).
    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot<W>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: u64 = 0x5bd1_e995_5bd1_e995;

    /// Six words that all follow from `x`, so a slot holding words from
    /// two different pushes shows up as a mismatch.
    fn words_of(x: u64) -> [u64; 6] {
        [
            x,
            !x,
            x.rotate_left(17),
            x ^ K,
            x.wrapping_mul(K),
            x.swap_bytes(),
        ]
    }

    #[test]
    fn wrap_keeps_the_newest_in_order() {
        let ring = SeqRing::<2>::new(8);
        for i in 0..20u64 {
            ring.push([i, i * 10]);
        }
        let got = ring.snapshot();
        let seqs: Vec<u64> = got.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(seqs, (13..=20).collect::<Vec<_>>());
        for (seq, words) in got {
            assert_eq!(words, [seq - 1, (seq - 1) * 10]);
        }
        assert_eq!(ring.bytes(), 8 * 24);
    }

    #[test]
    fn capacity_zero_holds_one() {
        let ring = SeqRing::<1>::new(0);
        assert!(ring.snapshot().is_empty(), "seq 0 slots are never returned");
        ring.push([1]);
        ring.push([2]);
        assert_eq!(ring.snapshot(), vec![(2, [2])]);
    }

    #[test]
    fn concurrent_pushes_never_yield_mixed_words() {
        const CAPACITY: usize = 16;
        let ring = std::sync::Arc::new(SeqRing::<6>::new(CAPACITY));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..200_000u64 {
                        ring.push(words_of((t << 32) | i));
                    }
                })
            })
            .collect();
        let mut snapshots = 0u64;
        while snapshots < 200 || !writers.iter().all(|w| w.is_finished()) {
            let got = ring.snapshot();
            for pair in got.windows(2) {
                assert!(pair[0].0 < pair[1].0, "seqs strictly increase: {got:?}");
            }
            for (seq, words) in &got {
                assert_eq!(*words, words_of(words[0]), "slot {seq} mixes two pushes");
            }
            snapshots += 1;
        }
        for w in writers {
            w.join().unwrap();
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), CAPACITY, "a full ring returns every slot");
        for (_, words) in &got {
            assert_eq!(*words, words_of(words[0]));
        }
    }
}
