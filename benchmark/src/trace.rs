//! Spans recorded from the benchmark's own files, around calls into each
//! layer's public functions. Kept in memory; written out when the workload
//! ends. A disabled tracer records nothing and costs one branch.

use crate::json::{obj, Json};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// "No parent" / "no op" marker.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u32,
    /// The operation the span belongs to, or [`NONE`].
    pub op: u32,
}

pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// The `(span, op)` that spans opened without an explicit parent attach
    /// to. A `SpanSource` read runs on whichever thread the engine fetches
    /// from, so the cause cannot be thread-local; the op driver publishes
    /// it here while `execute` runs. Only meaningful with one client.
    cause: (AtomicU32, AtomicU32),
}

/// An open span; [`Tracer::close`] stamps its end.
#[derive(Clone, Copy)]
pub struct Open(u32);

impl Open {
    /// The span's index, for use as a child's parent.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            cause: (AtomicU32::new(NONE), AtomicU32::new(NONE)),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (the traced run times an untraced stretch
    /// first, through the same code path).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a tracing thread panicked")
    }

    pub fn open(&self, name: &'static str, parent: u32, op: u32) -> Open {
        if !self.enabled() {
            return Open(NONE);
        }
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        Open(spans.len() as u32 - 1)
    }

    /// Opens a span under the published cause (see [`Tracer::set_cause`]).
    pub fn open_caused(&self, name: &'static str) -> Open {
        self.open(
            name,
            self.cause.0.load(Ordering::Relaxed),
            self.cause.1.load(Ordering::Relaxed),
        )
    }

    /// Closes the span and returns its duration in seconds (0 when
    /// disabled).
    pub fn close(&self, open: Open) -> f64 {
        if open.0 == NONE {
            return 0.0;
        }
        let end = self.now();
        let mut spans = self.lock();
        let span = &mut spans[open.0 as usize];
        span.end = end;
        (end - span.start) as f64 / 1e9
    }

    /// Publishes the span and op that cause-less spans attach to.
    pub fn set_cause(&self, span: u32, op: u32) {
        self.cause.0.store(span, Ordering::Relaxed);
        self.cause.1.store(op, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// its interval that its direct children cover. Children may overlap one
/// another (parallel reads) and may outlive the parent (a prefetch that
/// finishes late); the union of their intervals, clipped to the parent, is
/// what is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let (lo, hi) = (s.start.max(p.start), s.end.min(p.end));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Sum of durations and of self times per span name, in seconds, plus the
/// span count: `(name, count, total_s, self_s)`, sorted by name.
pub fn totals(spans: &[Span]) -> Vec<(&'static str, u64, f64, f64)> {
    let selfs = self_times(spans);
    let mut by_name = std::collections::BTreeMap::<&'static str, (u64, u64, u64)>::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
    }
    by_name
        .into_iter()
        .map(|(n, (c, t, o))| (n, c, t as f64 / 1e9, o as f64 / 1e9))
        .collect()
}

/// Total duration of the spans called `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e9)
        .fold(0.0, |a, b| a + b) // an empty `sum()` is -0.0, which prints as "-0"
}

/// The trace file: every span, then the per-name totals.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let id = |v: u32| {
        if v == NONE {
            Json::Null
        } else {
            Json::from(u64::from(v))
        }
    };
    obj([
        ("workload", workload.into()),
        ("unit", "ns".into()),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        obj([
                            ("name", s.name.into()),
                            ("start", s.start.into()),
                            ("end", s.end.into()),
                            ("parent", id(s.parent)),
                            ("op", id(s.op)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "totals",
            Json::Arr(
                totals(spans)
                    .into_iter()
                    .map(|(n, c, t, o)| {
                        obj([
                            ("name", n.into()),
                            ("count", c.into()),
                            ("total_s", t.into()),
                            ("self_s", o.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("execute", 0, 100, NONE),
            // two reads overlap on 20..30, a third is disjoint, a fourth
            // starts inside and ends after the parent (clipped to 90..100),
            // a fifth lies wholly inside the first
            span("read", 10, 30, 0),
            span("read", 20, 40, 0),
            span("read", 50, 60, 0),
            span("read", 90, 130, 0),
            span("read", 12, 18, 0),
            // a grandchild shortens its own parent only
            span("decode", 52, 58, 3),
        ];
        let own = self_times(&spans);
        // covered: 10..40 (30) + 50..60 (10) + 90..100 (10) = 50
        assert_eq!(own[0], 50);
        assert_eq!(own[1], 20);
        assert_eq!(own[3], 4);
        assert_eq!(own[6], 6);
        let t = totals(&spans);
        let read = t.iter().find(|r| r.0 == "read").unwrap();
        assert_eq!(read.1, 5);
        assert!((read.2 - 96e-9).abs() < 1e-15);
        assert!((total_s(&spans, "execute") - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn a_child_outside_its_parent_changes_nothing() {
        let spans = vec![span("a", 10, 20, NONE), span("b", 30, 40, 0)];
        assert_eq!(self_times(&spans), vec![10, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_caused_spans_find_their_parent() {
        let t = Tracer::new();
        let o = t.open("x", NONE, 0);
        assert_eq!(t.close(o), 0.0);
        assert!(t.snapshot().is_empty());

        t.set_enabled(true);
        let root = t.open("execute", NONE, 7);
        t.set_cause(root.id(), 7);
        let read = t.open_caused("read");
        t.close(read);
        t.set_cause(NONE, NONE);
        t.close(root);
        let orphan = t.open_caused("read");
        t.close(orphan);
        let spans = t.snapshot();
        assert_eq!((spans[1].parent, spans[1].op), (0, 7));
        assert_eq!((spans[2].parent, spans[2].op), (NONE, NONE));
        assert!(spans[0].end >= spans[1].end);
        let file = to_json("w", &spans);
        assert_eq!(
            file.get("spans").and_then(Json::as_arr).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(crate::json::parse(&file.pretty()).unwrap(), file);
    }
}
