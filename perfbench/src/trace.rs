//! In-memory spans around calls into the workspace's layers, the self-time
//! ledger computed from them, and the trace file written once at the end.
//!
//! A span records one call: its name, start, end and the span that caused
//! it. Spans live in memory until the run ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.
//!
//! Some layers have no public entry point of their own (the WAL append
//! inside a journaled push, the epoch barrier inside `publish_into`). The
//! traced run feeds the identical input through the layer beneath on its
//! own, outside the measured call, and records that duration as a
//! *derived* child span laid out inside the real call ([`Tracer::place`]).
//! The real call's self time is then the difference the layer costs. The
//! side calls themselves run inside [`EXCLUDED`] spans, which the ledger
//! takes out of the wall time, as it does the benchmark's own fixture work.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Prefix of a thread's root span: the closed loop of one workload thread.
pub const ROOT_PREFIX: &str = "workload.";

/// Benchmark work that is not the system's: side calls that measure a
/// layer beneath on its own, and fixture copies. Excluded from the wall.
pub const EXCLUDED: &str = "trace.excluded";

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call, as `Type::method`, or a root / [`EXCLUDED`] marker.
    pub name: &'static str,
    /// Index of the enclosing span in the same thread's span list.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// `true` when only the duration was measured (on a side call) and the
    /// position inside the parent was laid out by [`Tracer::place`].
    pub derived: bool,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder of one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    excluded_ns: u64,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin` (shared by every
    /// thread of a run, so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new(), open: Vec::new(), excluded_ns: 0 }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            derived: false,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans close in the order they opened");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside an [`EXCLUDED`] span: benchmark work the ledger
    /// takes out of the wall time.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let id = self.enter(EXCLUDED);
        let out = f();
        self.exit(id);
        self.excluded_ns += self.spans[id].duration_ns();
        out
    }

    /// Total time spent in [`EXCLUDED`] spans so far.
    pub fn excluded(&self) -> Duration {
        Duration::from_nanos(self.excluded_ns)
    }

    /// Lays derived child spans of the given durations back to back so the
    /// last one ends where the closed span `parent` ends, clipping at the
    /// parent's start (a side call that ran slower than the real one covers
    /// the whole parent rather than reaching outside it). Returns the new
    /// spans' ids in input order.
    pub fn place(&mut self, parent: usize, children: &[(&'static str, Duration)]) -> Vec<usize> {
        let floor = self.spans[parent].start_ns;
        let mut cursor = self.spans[parent].end_ns;
        let mut ids = vec![0; children.len()];
        for (slot, &(name, duration)) in children.iter().enumerate().rev() {
            let length = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
            let start_ns = cursor.saturating_sub(length).max(floor);
            self.spans.push(Span {
                name,
                parent: Some(parent),
                start_ns,
                end_ns: cursor,
                derived: true,
            });
            ids[slot] = self.spans.len() - 1;
            cursor = start_ns;
        }
        ids
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed before the trace is read");
        self.spans
    }
}

/// Runs `f` and returns its result with how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Self time of every span of one thread: its duration minus the union of
/// its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Calls and times of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Number of spans.
    pub calls: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Sum of durations.
    pub total_ns: u64,
}

/// Where the traced wall time went.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Totals per span name, roots and exclusions left out.
    pub layers: BTreeMap<&'static str, LayerTotals>,
    /// Root-span time of every thread minus its [`EXCLUDED`] time.
    pub wall_ns: u64,
    /// Sum of the layers' self times.
    pub attributed_ns: u64,
}

impl Ledger {
    /// Builds the ledger from each thread's spans.
    pub fn from_threads(threads: &[Vec<Span>]) -> Self {
        let mut ledger = Self::default();
        for spans in threads {
            for (span, self_ns) in spans.iter().zip(self_times(spans)) {
                if span.name.starts_with(ROOT_PREFIX) {
                    ledger.wall_ns += span.duration_ns();
                } else if span.name == EXCLUDED {
                    ledger.wall_ns = ledger.wall_ns.saturating_sub(span.duration_ns());
                } else {
                    let totals = ledger.layers.entry(span.name).or_default();
                    totals.calls += 1;
                    totals.self_ns += self_ns;
                    totals.total_ns += span.duration_ns();
                    ledger.attributed_ns += self_ns;
                }
            }
        }
        ledger
    }

    /// Totals of one span name (zero when it never ran).
    pub fn layer(&self, name: &str) -> LayerTotals {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Share of the wall time no layer's self time accounts for: the
    /// benchmark loop's own bookkeeping (zero for an empty wall).
    pub fn unattributed_share(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            1.0 - self.attributed_ns as f64 / self.wall_ns as f64
        }
    }
}

/// The trace file: one JSON object per span, one span per line.
pub fn to_json_lines(run_id: u64, threads: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for (thread, spans) in threads.iter().enumerate() {
        for (id, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{run_id},\"thread\":{thread},\"id\":{id},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
                span.name, span.start_ns, span.end_ns, span.derived
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, start_ns, end_ns, derived: false }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("workload.loop", None, 0, 100),
            span("a", Some(0), 10, 40),
            // Overlaps the previous child: covered once, not twice.
            span("b", Some(0), 30, 50),
            // Reaches past the parent's end: clipped.
            span("c", Some(0), 90, 120),
            // A grandchild does not count against the root.
            span("d", Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 10, 20, 30, 10]);
    }

    #[test]
    fn placed_children_end_at_the_parent_end_and_stay_inside_it() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        let parent = tracer.enter("outer");
        tracer.exit(parent);
        tracer.spans[parent].start_ns = 1_000;
        tracer.spans[parent].end_ns = 2_000;
        let ids = tracer.place(
            parent,
            &[("first", Duration::from_nanos(300)), ("second", Duration::from_nanos(200))],
        );
        let spans = tracer.into_spans();
        assert_eq!((spans[ids[0]].start_ns, spans[ids[0]].end_ns), (1_500, 1_800));
        assert_eq!((spans[ids[1]].start_ns, spans[ids[1]].end_ns), (1_800, 2_000));
        assert!(spans[ids[0]].derived && spans[ids[1]].derived);
        assert_eq!(self_times(&spans)[parent], 500);

        // A side call slower than the real one is clipped at the start.
        let mut tracer = Tracer::new(origin);
        let parent = tracer.enter("outer");
        tracer.exit(parent);
        tracer.spans[parent].start_ns = 0;
        tracer.spans[parent].end_ns = 100;
        let ids = tracer.place(parent, &[("slow", Duration::from_nanos(250))]);
        let spans = tracer.into_spans();
        assert_eq!((spans[ids[0]].start_ns, spans[ids[0]].end_ns), (0, 100));
        assert_eq!(self_times(&spans)[parent], 0);
    }

    #[test]
    fn ledger_takes_exclusions_out_of_the_wall() {
        let writer = vec![
            span("workload.writer", None, 0, 1_000),
            span("push", Some(0), 0, 300),
            span("inner", Some(1), 100, 300),
            span(EXCLUDED, Some(0), 300, 700),
            span("push", Some(0), 700, 900),
        ];
        let reader = vec![span("workload.reader", None, 0, 500), span("query", Some(0), 0, 400)];
        let ledger = Ledger::from_threads(&[writer, reader]);
        assert_eq!(ledger.wall_ns, 1_000 - 400 + 500);
        assert_eq!(ledger.layer("push"), LayerTotals { calls: 2, self_ns: 300, total_ns: 500 });
        assert_eq!(ledger.layer("inner").self_ns, 200);
        assert_eq!(ledger.attributed_ns, 300 + 200 + 400);
        let unattributed = ledger.unattributed_share();
        assert!((unattributed - (1.0 - 900.0 / 1_100.0)).abs() < 1e-12);
        assert_eq!(ledger.layer("absent"), LayerTotals::default());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut tracer = Tracer::new(Instant::now());
        let root = tracer.enter("workload.loop");
        let call = tracer.enter("call");
        tracer.exit(call);
        let value = tracer.exclude(|| 7);
        tracer.exit(root);
        assert_eq!(value, 7);
        let spans = tracer.into_spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].name, EXCLUDED);
        assert_eq!(spans[2].parent, Some(root));
        let file = to_json_lines(3, &[spans]);
        assert_eq!(file.lines().count(), 3);
        assert!(file.starts_with("{\"run\":3,\"thread\":0,\"id\":0,\"parent\":null,"));
    }
}
