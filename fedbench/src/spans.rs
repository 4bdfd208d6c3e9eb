//! In-memory wall-clock spans for the traced run.
//!
//! Each span holds a name, start, end, the span that caused it and the
//! `(round, worker)` it belongs to. Spans are kept in memory while the
//! replay runs and are only written out (as Chrome trace-event JSON) at
//! the end. Nesting on one thread is tracked with a thread-local stack;
//! work fanned out to other threads names its parent explicitly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
    pub round: usize,
    pub worker: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread.
pub struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closing happens on drop.
pub struct Guard<'r> {
    rec: &'r Recorder,
    span: Span,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span on this
    /// thread.
    pub fn span(&self, name: &'static str, round: usize, worker: Option<usize>) -> Guard<'_> {
        let parent = STACK.with(|s| s.borrow().last().copied());
        self.open(name, parent, round, worker)
    }

    /// Opens a span under an explicit parent (a span open on another
    /// thread, such as the fan-out that spawned this work).
    pub fn span_under(
        &self,
        name: &'static str,
        parent: u64,
        round: usize,
        worker: Option<usize>,
    ) -> Guard<'_> {
        self.open(name, Some(parent), round, worker)
    }

    fn open(
        &self,
        name: &'static str,
        parent: Option<u64>,
        round: usize,
        worker: Option<usize>,
    ) -> Guard<'_> {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        let span = Span {
            id,
            parent,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            tid: TID.with(|t| *t),
            round,
            worker,
        };
        Guard { rec: self, span }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder lock poisoned by a panicking replay thread")
    }
}

impl Guard<'_> {
    pub fn id(&self) -> u64 {
        self.span.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.rec.now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.span.id) {
                s.pop();
            }
        });
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(self.span.clone());
        }
    }
}

/// Per-name totals: summed duration and summed self time (duration
/// minus the union of its children's intervals).
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub dur_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| union_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.dur_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`. Children
/// fanned out over several threads overlap, so their durations cannot
/// simply be summed.
fn union_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Chrome trace-event JSON ("X" complete events, microseconds), which
/// Perfetto and chrome://tracing open directly.
pub fn chrome_trace(spans: &[Span], metadata: serde_json::Value) -> serde_json::Value {
    let events: Vec<serde_json::Value> = spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name,
                "cat": s.name.split('.').next().unwrap_or(s.name),
                "ph": "X",
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.dur_ns() as f64 / 1e3,
                "pid": 1,
                "tid": s.tid,
                "args": {
                    "id": s.id,
                    "parent": s.parent,
                    "round": s.round,
                    "worker": s.worker,
                },
            })
        })
        .collect();
    serde_json::json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": metadata,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_ns(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_ns(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let rec = Recorder::new();
        {
            let _outer = rec.span("outer", 0, None);
            let _inner = rec.span("inner", 0, None);
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let spans = rec.into_spans();
        let t = totals(&spans);
        let outer = t["outer"];
        let inner = t["inner"];
        assert_eq!(outer.dur_ns - outer.self_ns, inner.dur_ns);
        assert_eq!(
            spans.iter().find(|s| s.name == "inner").unwrap().parent,
            spans.iter().find(|s| s.name == "outer").map(|s| s.id)
        );
    }
}
