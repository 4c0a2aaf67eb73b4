//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer of the program.
//!
//! A span has a name of the form `layer:entry_point`, a start and end
//! on one monotonic clock, the span that was open when it started (its
//! parent), and the request id of the operation it belongs to. Spans
//! stay in memory while the benchmark runs and are written out once,
//! at exit. The benchmark's own work (set-up, output checks, the
//! operation envelope) is recorded under the `bench` layer so that it
//! is never attributed to the program.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// The layer name of spans the benchmark records around its own work.
pub const BENCH_LAYER: &str = "bench";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer:entry_point`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's anchor.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's anchor.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Operation (request) id shared by every span of one operation.
    pub req: u64,
    /// Which client thread recorded it.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer part of the name (before the first `:`).
    pub fn layer(&self) -> &'static str {
        self.name.split(':').next().unwrap_or(self.name)
    }
}

/// Handle of an open span; [`Tracer::exit`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// A per-thread span recorder. When off, `enter`/`exit` do nothing.
pub struct Tracer {
    on: bool,
    anchor: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder measuring from `anchor` (share one anchor between the
    /// recorders of different threads so their spans line up).
    pub fn new(on: bool, anchor: Instant, thread: u32) -> Tracer {
        Tracer {
            on,
            anchor,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// The instant every timestamp is measured from.
    pub fn anchor(&self) -> Instant {
        self.anchor
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turn recording on or off (open spans are unaffected).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the anchor.
    pub fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Open a span; it is closed by [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
            thread: self.thread,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            let now = self.now_ns();
            self.spans[idx].end_ns = now;
            if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
                self.open.truncate(pos);
            }
        }
    }

    /// Record `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another recorder's spans, keeping parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Write all spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"req\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.thread
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span, in nanoseconds: its length minus the part
/// of its interval covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.len_ns() - covered.min(s.len_ns())
        })
        .collect()
}

/// Share of the window `[from_ns, to_ns)` spent in the program's
/// layers: the summed self time of every span outside the
/// [`BENCH_LAYER`] that lies within the window, divided by the window
/// length times the number of client threads that recorded spans in
/// it (each concurrent caller has the whole window to spend).
pub fn layer_coverage(spans: &[Span], from_ns: u64, to_ns: u64) -> f64 {
    let selfs = self_times(spans);
    let inside = |s: &Span| s.start_ns >= from_ns && s.end_ns <= to_ns;
    let attributed: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.layer() != BENCH_LAYER && inside(s))
        .map(|(_, &t)| t)
        .sum();
    let mut threads: Vec<u32> = spans
        .iter()
        .filter(|s| inside(s))
        .map(|s| s.thread)
        .collect();
    threads.sort_unstable();
    threads.dedup();
    let capacity = to_ns.saturating_sub(from_ns).max(1) * threads.len().max(1) as u64;
    attributed as f64 / capacity as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("bench:op", 0, 100, None),
            span("mm:run", 10, 40, Some(0)),
            span("bench:check", 50, 60, Some(0)),
            span("kv:inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children from two client threads may overlap; a child may
        // also overhang its parent's end.
        let spans = vec![
            span("bench:op", 0, 100, None),
            span("serve:a", 10, 50, Some(0)),
            span("serve:b", 30, 70, Some(0)),
            span("serve:c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn coverage_counts_program_layers_only() {
        let spans = vec![
            span("bench:op", 0, 100, None),
            span("mm:run", 10, 70, Some(0)),
            span("bench:check", 70, 80, Some(0)),
        ];
        let c = layer_coverage(&spans, 0, 200);
        assert!((c - 60.0 / 200.0).abs() < 1e-12, "{c}");
    }

    #[test]
    fn coverage_divides_by_concurrent_client_threads() {
        let mut a = span("serve:submit", 0, 100, None);
        let mut b = span("serve:submit", 0, 50, None);
        a.thread = 1;
        b.thread = 2;
        let c = layer_coverage(&[a, b], 0, 100);
        assert!((c - 150.0 / 200.0).abs() < 1e-12, "{c}");
    }

    #[test]
    fn recorder_links_parents_and_absorbs_other_threads() {
        let anchor = Instant::now();
        let mut a = Tracer::new(true, anchor, 0);
        let op = a.enter("bench:op", 7);
        a.span("mm:run", 7, || ());
        a.exit(op);
        let mut b = Tracer::new(true, anchor, 1);
        let op_b = b.enter("bench:op", 8);
        b.span("kv:run", 8, || ());
        b.exit(op_b);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!((s[2].thread, s[3].req), (1, 8));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(s[1].layer(), "mm");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("mm:run", 1);
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
