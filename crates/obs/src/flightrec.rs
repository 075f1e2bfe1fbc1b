//! The flight recorder: a fixed-size lock-free ring of recent structured
//! events, dumped as JSON-lines when the process panics, shuts down, or
//! is asked via the `ObsDump` RPC.
//!
//! The ring answers "what was the server doing just before it died": each
//! slot is a handful of plain `AtomicU64` fields, so recording is
//! store-only (no locks, no allocation, no panics) and safe to call from
//! any serving thread. Readers validate each slot's sequence number
//! before and after copying its fields and skip slots a concurrent writer
//! is mid-flight on — the dump is best-effort by design (a crash dump
//! missing the single newest event is still a crash dump).
//!
//! Event payloads are three `u64`s whose meaning depends on the kind:
//!
//! | kind           | a          | b               | c |
//! |----------------|------------|-----------------|---|
//! | `Admission`    | request kind | queue wait µs | – |
//! | `Shed`         | request kind | –             | – |
//! | `Checkpoint`   | LSN        | –               | – |
//! | `SlowDelta`    | user id    | total µs        | – |
//! | `RecoveryStep` | step code  | value           | – |
//! | `Panic`        | –          | –               | – |
//! | `Shutdown`     | drained    | –               | – |
//! | `Maintenance`  | scanned    | decayed         | pruned |

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

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What happened. Codes are stable (they appear in dumps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    Admission = 1,
    Shed = 2,
    Checkpoint = 3,
    SlowDelta = 4,
    RecoveryStep = 5,
    Panic = 6,
    Shutdown = 7,
    Maintenance = 8,
    Failover = 9,
}

impl EventKind {
    fn from_code(code: u64) -> Option<EventKind> {
        match code {
            1 => Some(EventKind::Admission),
            2 => Some(EventKind::Shed),
            3 => Some(EventKind::Checkpoint),
            4 => Some(EventKind::SlowDelta),
            5 => Some(EventKind::RecoveryStep),
            6 => Some(EventKind::Panic),
            7 => Some(EventKind::Shutdown),
            8 => Some(EventKind::Maintenance),
            9 => Some(EventKind::Failover),
            _ => None,
        }
    }

    /// The `"event"` string in dumps.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admission => "admission",
            EventKind::Shed => "shed",
            EventKind::Checkpoint => "checkpoint",
            EventKind::SlowDelta => "slow_delta",
            EventKind::RecoveryStep => "recovery_step",
            EventKind::Panic => "panic",
            EventKind::Shutdown => "shutdown",
            EventKind::Maintenance => "maintenance",
            EventKind::Failover => "failover",
        }
    }

    /// JSON field names for the `a`/`b`/`c` payload; `None` = unused.
    fn field_names(self) -> [Option<&'static str>; 3] {
        match self {
            EventKind::Admission => [Some("req_kind"), Some("queue_wait_us"), None],
            EventKind::Shed => [Some("req_kind"), None, None],
            EventKind::Checkpoint => [Some("lsn"), None, None],
            EventKind::SlowDelta => [Some("user"), Some("total_us"), None],
            EventKind::RecoveryStep => [Some("step"), Some("value"), None],
            EventKind::Panic => [None, None, None],
            EventKind::Shutdown => [Some("drained"), None, None],
            EventKind::Maintenance => [Some("scanned"), Some("decayed"), Some("pruned")],
            EventKind::Failover => [Some("partition"), Some("epoch"), None],
        }
    }
}

/// Step codes for [`EventKind::RecoveryStep`] events.
pub mod recovery_step {
    /// `value` = records replayed from the WAL tail.
    pub const WAL_REPLAYED: u64 = 1;
    /// `value` = LSN the loaded snapshot covered (0 = cold start).
    pub const SNAPSHOT_LOADED: u64 = 2;
    /// `value` = torn-tail bytes truncated.
    pub const TAIL_TRUNCATED: u64 = 3;
}

/// One decoded event, in recording order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub seq: u64,
    pub kind: EventKind,
    /// Microseconds since the recorder was created.
    pub t_us: u64,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

/// `seq` 0 marks a never-written slot; live sequence numbers start at 1.
struct Slot {
    seq: AtomicU64,
    kind: AtomicU64,
    t_us: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            t_us: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            c: AtomicU64::new(0),
        }
    }
}

/// The ring buffer. Most code records through the process-wide
/// [`flightrec`]; standalone instances exist for tests.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    /// Next sequence number to claim (starts at 1).
    head: AtomicU64,
    epoch: Instant,
}

/// Ring capacity of the process-wide recorder: large enough to hold a few
/// seconds of admissions at smoke-test rates, small enough (~200 KiB) to
/// be irrelevant to the memory budget.
pub const GLOBAL_CAPACITY: usize = 4096;

impl FlightRecorder {
    /// A recorder holding the most recent `capacity.max(1)` events.
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Slot::empty());
        }
        FlightRecorder {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }

    /// Record one event. Lock-free and allocation-free: one relaxed RMW
    /// to claim a sequence number, then plain stores into the claimed
    /// slot, publishing with a release store of the sequence.
    #[inline]
    pub fn record(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) % self.slots.len()];
        let t_us = self.epoch.elapsed().as_micros();
        let t_us = if t_us > u64::MAX as u128 {
            u64::MAX
        } else {
            t_us as u64
        };
        // Invalidate first so a reader that catches us mid-write sees the
        // seq change across its two loads and discards the slot.
        slot.seq.store(0, Ordering::Release);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.t_us.store(t_us, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
    }

    /// Snapshot the ring's stable contents, oldest first. Slots being
    /// concurrently overwritten are skipped.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 {
                continue;
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let t_us = slot.t_us.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let c = slot.c.load(Ordering::Relaxed);
            let after = slot.seq.load(Ordering::Acquire);
            if before != after {
                continue; // torn: a writer got between our two loads
            }
            let Some(kind) = EventKind::from_code(kind) else {
                continue;
            };
            out.push(Event {
                seq: before,
                kind,
                t_us,
                a,
                b,
                c,
            });
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Write the ring as JSON-lines; returns the number of events written.
    pub fn dump_jsonl(&self, w: &mut dyn Write) -> io::Result<u64> {
        let mut written = 0u64;
        for event in self.events() {
            let mut line = format!(
                "{{\"seq\":{},\"t_us\":{},\"event\":\"{}\"",
                event.seq,
                event.t_us,
                event.kind.name()
            );
            let names = event.kind.field_names();
            for (name, value) in names.iter().zip([event.a, event.b, event.c]) {
                if let Some(name) = name {
                    line.push_str(&format!(",\"{name}\":{value}"));
                }
            }
            line.push('}');
            writeln!(w, "{line}")?;
            written += 1;
        }
        Ok(written)
    }

    /// Dump to a file (truncating any previous dump); returns the number
    /// of events written.
    pub fn dump_to_path(&self, path: &Path) -> io::Result<u64> {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.dump_jsonl(&mut file)?;
        file.flush()?;
        Ok(written)
    }
}

/// The process-wide flight recorder ([`GLOBAL_CAPACITY`] slots).
pub fn flightrec() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::new(GLOBAL_CAPACITY))
}

/// Chain a panic hook that records a [`EventKind::Panic`] event and dumps
/// the process-wide recorder to `path` before the previous hook runs.
pub fn install_panic_dump(path: &Path) {
    let path = path.to_path_buf();
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        flightrec().record(EventKind::Panic, 0, 0, 0);
        let _ = flightrec().dump_to_path(&path);
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_keeps_the_newest() {
        let rec = FlightRecorder::new(8);
        for i in 0..20u64 {
            rec.record(EventKind::Admission, i, 0, 0);
        }
        let events = rec.events();
        assert_eq!(events.len(), 8, "capacity bounds the snapshot");
        // Sequences start at 1, so records 13..=20 survive.
        assert_eq!(events.first().map(|e| e.a), Some(12));
        assert_eq!(events.last().map(|e| e.a), Some(19));
        let mut prev = 0;
        for e in &events {
            assert!(e.seq > prev, "events sorted by seq");
            prev = e.seq;
        }
    }

    #[test]
    fn dump_is_json_lines_with_kind_specific_fields() {
        let rec = FlightRecorder::new(16);
        rec.record(EventKind::Shed, 1, 0, 0);
        rec.record(EventKind::Checkpoint, 42, 0, 0);
        rec.record(EventKind::SlowDelta, 7, 1500, 0);
        let mut buf = Vec::new();
        let written = rec.dump_jsonl(&mut buf).unwrap();
        assert_eq!(written, 3);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"event\":\"shed\"") && lines[0].contains("\"req_kind\":1"));
        assert!(lines[1].contains("\"event\":\"checkpoint\"") && lines[1].contains("\"lsn\":42"));
        assert!(
            lines[2].contains("\"event\":\"slow_delta\"")
                && lines[2].contains("\"user\":7")
                && lines[2].contains("\"total_us\":1500")
        );
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn concurrent_recording_never_produces_garbage_kinds() {
        let rec = std::sync::Arc::new(FlightRecorder::new(32));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        rec.record(EventKind::Admission, t, i, 0);
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for e in rec.events() {
                assert!(e.seq > 0);
                assert_eq!(e.kind, EventKind::Admission);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(rec.events().len(), 32);
    }

    #[test]
    fn panic_hook_dumps_the_global_ring() {
        let path =
            std::env::temp_dir().join(format!("adcast-obs-panictest-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        install_panic_dump(&path);
        flightrec().record(EventKind::RecoveryStep, recovery_step::WAL_REPLAYED, 5, 0);
        let _ = std::thread::Builder::new()
            .name("panicker".to_string())
            .spawn(|| panic!("deliberate test panic"))
            .unwrap()
            .join();
        let dump = std::fs::read_to_string(&path).expect("panic hook wrote the dump");
        assert!(dump.contains("\"event\":\"panic\""), "{dump}");
        assert!(dump.contains("\"event\":\"recovery_step\""), "{dump}");
        let _ = std::fs::remove_file(&path);
    }
}
