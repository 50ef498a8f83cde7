//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer: name, start, end, parent span and the id of the
//! operation (flood, job or search) they belong to. Nothing is written
//! until the run ends. A disabled tracer records nothing and never reads
//! the clock, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span; `NONE` when the tracer is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The handle a disabled tracer hands out.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Closed spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the part covered by children.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty tracer sharing this one's clock and setting, for another
    /// thread; merge it back with [`Tracer::absorb`].
    pub fn child(&self) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Appends the spans of a [`Tracer::child`].
    pub fn absorb(&mut self, other: &Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s.clone()
        }));
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of operation `op` under `parent`.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` and returns its duration in ns (0 when off).
    pub fn end(&mut self, id: SpanId) -> u64 {
        if id == SpanId::NONE {
            return 0;
        }
        let now = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Records an already-measured interval as a closed child span.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        start: Instant,
        dur_ns: u64,
    ) {
        if !self.on {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Durations of every closed span named `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per-name count, total and self time.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns - s.start_ns;
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur - covered;
        }
        out
    }

    /// Writes every span as one JSON line: name, op, parent index,
    /// start and end in ns since the tracer was created.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children_counts_once() {
        let mut iv = vec![(30, 50), (10, 20), (15, 25), (45, 70)];
        assert_eq!(covered_ns(&mut iv, 0, 60), 15 + 30);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let origin = t.origin;
        t.spans.push(Span {
            name: "outer",
            op: 1,
            parent: None,
            start_ns: 0,
            end_ns: 100,
        });
        t.record(
            "inner",
            1,
            SpanId(0),
            origin + std::time::Duration::from_nanos(10),
            30,
        );
        t.record(
            "inner",
            1,
            SpanId(0),
            origin + std::time::Duration::from_nanos(60),
            20,
        );
        let st = t.stats();
        assert_eq!(
            st["outer"],
            SpanStats {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(st["inner"].self_ns, 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0, SpanId::NONE);
        assert_eq!(t.end(id), 0);
        assert!(t.stats().is_empty());
    }
}
