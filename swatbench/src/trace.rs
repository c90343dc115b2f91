//! In-memory spans, written out when the benchmark ends.
//!
//! A span has a name, a start and end (nanoseconds since the tracer
//! was made), the span that caused it, and the request it belongs to.
//! A span's self time is its duration minus the part of it that its
//! children cover; summed over a request's spans, self times add up to
//! the root span's duration.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `proto.encode`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The request the span belongs to.
    pub req: u64,
}

/// A span recorder. Spans live in memory until [`Tracer::write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the origin at instant `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        req: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let now = self.now();
        self.record(name, now, now, parent, req)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let now = self.now();
        self.spans[id].end = now;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in recording order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| self_time((s.start, s.end), kids))
            .collect()
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// `parent`'s duration minus the part of it covered by the union of
/// `children` (each clipped to the parent). Sorts `children`.
pub fn self_time(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &mut [(10, 20), (50, 80)]), 60);
        assert_eq!(self_time((0, 100), &mut []), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        // [10,40) ∪ [30,60) covers 50 ns, not 60.
        assert_eq!(self_time((0, 100), &mut [(30, 60), (10, 40)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_time((0, 100), &mut [(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((100, 200), &mut [(50, 150), (190, 250)]), 40);
        assert_eq!(self_time((100, 200), &mut [(0, 50), (300, 400)]), 100);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let mut t = Tracer::default();
        let root = t.record("request", 0, 1000, None, 7);
        let hop = t.record("hop", 100, 700, Some(root), 7);
        t.record("proto.encode", 100, 150, Some(hop), 7);
        t.record("transport.rtt", 150, 600, Some(hop), 7);
        t.record("cluster.finish", 800, 900, Some(root), 7);
        let selfs = t.self_times();
        assert_eq!(selfs, vec![300, 100, 50, 450, 100]);
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
    }
}
