//! In-memory span recorder for the ledger replay.
//!
//! Every call the harness makes into a layer's public function is wrapped
//! in a span `(name, start, end, parent, op)`. Spans stay in memory until
//! the run ends and are then written out as JSON lines. A span's *self
//! time* is its duration minus the part of its interval covered by its
//! child spans, so a parent that merely sequences calls shows near zero.

use std::io::{self, Write};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `durability.log`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (WAL record or sweep query) this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one monotonic epoch.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`]. Returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Close span `idx` now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Rename span `idx` (a root whose kind is known only once its first
    /// child has run).
    pub fn rename(&mut self, idx: usize, name: &'static str) {
        self.spans[idx].name = name;
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent, op);
        let out = f();
        self.close(idx);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own. Children may overlap each
/// other; overlapping coverage is counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span("op", 0, 100, None),
            span("decode", 10, 20, Some(0)),
            span("apply", 30, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 60]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("op", 100, 200, None),
            span("a", 90, 150, Some(0)),  // starts before the parent
            span("b", 140, 160, Some(0)), // overlaps a
            span("c", 190, 250, Some(0)), // ends after the parent
        ];
        // Covered: [100,160) + [190,200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span("op", 0, 100, None),
            span("apply", 0, 80, Some(0)),
            span("engine", 10, 70, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 60]);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut rec = Recorder::new();
        let root = rec.open("op", None, 7);
        let x = rec.time("inner", Some(root), 7, || 41 + 1);
        rec.close(root);
        assert_eq!(x, 42);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\"") && text.contains("\"parent\":0"));
        assert_eq!(durations(s, "inner").len(), 1);
    }
}
