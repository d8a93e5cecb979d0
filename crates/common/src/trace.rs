//! In-tree tracing: hierarchical spans recorded on the statement they were
//! opened for.
//!
//! The profiling layer behind `EXPLAIN ANALYZE`, slow-query capture and the
//! per-stage latency numbers in the benches. A traced statement's
//! [`crate::QueryCtx`] owns one bounded [`SpanBuf`]; every instrumentation
//! site opens its span through the context installed on the thread
//! ([`crate::QueryCtx::span`]), so a span can only ever land in the buffer of
//! the statement it was opened for. Design constraints, in order:
//!
//! 1. **Near-zero cost when untraced.** With no statement installed, or one
//!    that is not traced, a site gets an inert [`Span`] whose methods and
//!    `Drop` are no-ops. Production paths stay traced-but-free.
//! 2. **No new dependencies.** Timestamps come from the sanctioned
//!    [`crate::clock::Stopwatch`] (the only wall-clock access point the
//!    `xtask` lint permits outside `clock` itself).
//! 3. **Bounded.** A buffer keeps the first [`MAX_SPANS`] spans that finish
//!    and counts the rest; recording never blocks on a reader.
//!
//! Span parenting is implicit within a thread (a thread-local span stack) and
//! explicit across threads: fan-out code takes the [`Span::id`] of the span
//! open on the scheduling thread and opens each task's span under it on the
//! helper ([`crate::QueryCtx::span_under`]).
//!
//! The span taxonomy used by the query path is documented in DESIGN.md §9.

use crate::clock::Stopwatch;
use crate::sync::{classes, Mutex};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of one recorded span, unique within its statement.
/// `SpanId::NONE` (0) means "no span": the parent of a root, and the id of
/// every inert guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span id: parents a root span, never recorded.
    pub const NONE: SpanId = SpanId(0);
}

/// One structured attribute value. Stored, not formatted, so the renderer can
/// align units (bytes, counts) without re-parsing strings.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    U64(u64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v:.3}"),
            AttrValue::Str(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<f32> for AttrValue {
    fn from(v: f32) -> Self {
        AttrValue::F64(v as f64)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// A finished span, as a statement's [`SpanBuf`] hands it out.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: SpanId,
    /// Static name from the span taxonomy (`"exec"`, `"segment.search"`, …).
    pub name: &'static str,
    /// Nanoseconds since the buffer's origin [`Stopwatch`] started.
    pub start_nanos: u64,
    /// End timestamp on the same origin; `end_nanos >= start_nanos`.
    pub end_nanos: u64,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Wall time spent inside the span.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }

    /// First attribute with the given key, if any.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Spans one statement keeps: enough for every span of a large multi-segment
/// batch with headroom. Spans finishing past it are counted, not kept.
pub const MAX_SPANS: usize = 4096;

/// The spans of one traced statement: the first [`MAX_SPANS`] that finished,
/// and how many finished after those. Owned by the statement's
/// [`crate::QueryCtx`] and shared with its open guards, so a guard dropped on
/// a fan-out thread records into the statement it was opened for.
#[derive(Debug)]
pub struct SpanBuf {
    /// Time origin of every span of this statement.
    origin: Stopwatch,
    /// Next span id; starts at 1 so `SpanId::NONE` stays unused.
    next_id: AtomicU64,
    finished: Mutex<Finished>,
}

#[derive(Debug, Default)]
struct Finished {
    spans: Vec<SpanRecord>,
    dropped: u64,
}

thread_local! {
    /// Stack of open span ids on this thread, innermost last. A thread works
    /// for one statement at a time, so the ids are that statement's.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl SpanBuf {
    /// An empty buffer whose spans are timestamped against `origin` (the
    /// query log's, so spans and log records share one timeline).
    pub fn new(origin: Stopwatch) -> Arc<SpanBuf> {
        Arc::new(SpanBuf {
            origin,
            next_id: AtomicU64::new(1),
            finished: Mutex::new(&classes::SPAN_BUF, Finished::default()),
        })
    }

    /// Open a span parented to the innermost open span on this thread (or a
    /// root span if there is none).
    pub fn span(self: &Arc<Self>, name: &'static str) -> Span {
        self.open(name, innermost_open(), self.origin.elapsed_nanos())
    }

    /// Open a span under an explicit parent, ignoring this thread's stack for
    /// parenting (but still pushing onto it, so nested spans on this thread
    /// attach here). Used by fan-out tasks: take the [`Span::id`] of the span
    /// open on the scheduling thread, pass it into the helper's closure.
    pub fn span_under(self: &Arc<Self>, parent: SpanId, name: &'static str) -> Span {
        self.open(name, parent, self.origin.elapsed_nanos())
    }

    /// Open a span (parented like [`Self::span`]) that began when `started`
    /// did and is to be ended with [`Span::end_after`]: the span of a timed
    /// stage, cut from the stage's own two clock reads.
    pub fn span_since(self: &Arc<Self>, name: &'static str, started: &Stopwatch) -> Span {
        self.open(name, innermost_open(), started.nanos_since(&self.origin))
    }

    fn open(self: &Arc<Self>, name: &'static str, parent: SpanId, start_nanos: u64) -> Span {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        Span(Some(Box::new(ActiveSpan {
            buf: self.clone(),
            id: SpanId(id),
            parent,
            name,
            start_nanos,
            end_nanos: None,
            attrs: Vec::new(),
        })))
    }

    fn push(&self, record: SpanRecord) {
        let mut g = self.finished.lock();
        if g.spans.len() < MAX_SPANS {
            g.spans.push(record);
        } else {
            g.dropped += 1;
        }
    }

    /// The finished spans so far, oldest first (by start timestamp), and how
    /// many more finished past [`MAX_SPANS`]. Spans still open (guards not
    /// yet dropped) are not included.
    pub fn spans(&self) -> (Vec<SpanRecord>, u64) {
        let g = self.finished.lock();
        (sorted(g.spans.clone()), g.dropped)
    }

    /// Move the finished spans out, oldest first.
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        sorted(std::mem::take(&mut self.finished.lock().spans))
    }
}

/// The innermost span open on this thread, `SpanId::NONE` when there is none.
fn innermost_open() -> SpanId {
    SpanId(SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0)))
}

fn sorted(mut spans: Vec<SpanRecord>) -> Vec<SpanRecord> {
    spans.sort_by_key(|r| (r.start_nanos, r.id));
    spans
}

/// Format a nanosecond duration with a human-scale unit.
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// Render a span tree as indented text lines: the root span first,
/// then its descendants depth-first in start order, each with wall time and
/// `key=value` attributes.
///
/// Same-named sibling groups larger than `aggregate_threshold` collapse into
/// one `name ×N` line carrying total time (and summed `bytes` and
/// `sim_nanos` attributes) —
/// per-block cache probes would otherwise drown the stage tree. Returns no
/// lines when `root` has no record.
pub fn render_spans(
    records: &[SpanRecord],
    root: SpanId,
    aggregate_threshold: usize,
) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(root_rec) = records.iter().find(|r| r.id == root) {
        out.push(format!(
            "{}  {}{}",
            root_rec.name,
            fmt_nanos(root_rec.duration_nanos()),
            fmt_attrs(root_rec)
        ));
        render_subtree(records, root.0, 1, aggregate_threshold, &mut out);
    }
    out
}

fn fmt_attrs(rec: &SpanRecord) -> String {
    let mut s = String::new();
    for (k, v) in &rec.attrs {
        s.push_str(&format!("  {k}={v}"));
    }
    s
}

fn render_subtree(
    records: &[SpanRecord],
    parent: u64,
    depth: usize,
    aggregate_threshold: usize,
    out: &mut Vec<String>,
) {
    let indent = "  ".repeat(depth);
    let children: Vec<&SpanRecord> = records.iter().filter(|r| r.parent.0 == parent).collect();
    // Group same-named siblings, preserving first-start order of the groups.
    let mut order: Vec<&'static str> = Vec::new();
    let mut groups: std::collections::BTreeMap<&'static str, Vec<&SpanRecord>> =
        std::collections::BTreeMap::new();
    for c in &children {
        if !groups.contains_key(c.name) {
            order.push(c.name);
        }
        groups.entry(c.name).or_default().push(c);
    }
    for name in order {
        let group = &groups[name];
        if group.len() > aggregate_threshold {
            let total: u64 = group.iter().map(|r| r.duration_nanos()).sum();
            let mut line = format!("{indent}{name} ×{}  total {}", group.len(), fmt_nanos(total));
            for key in ["bytes", "sim_nanos"] {
                let sum: u64 = group
                    .iter()
                    .filter_map(|r| match r.attr(key) {
                        Some(AttrValue::U64(v)) => Some(*v),
                        _ => None,
                    })
                    .sum();
                if sum > 0 {
                    line.push_str(&format!("  {key}={sum}"));
                }
            }
            out.push(line);
            continue;
        }
        for rec in group {
            out.push(format!(
                "{indent}{}  {}{}",
                rec.name,
                fmt_nanos(rec.duration_nanos()),
                fmt_attrs(rec)
            ));
            render_subtree(records, rec.id.0, depth + 1, aggregate_threshold, out);
        }
    }
}

/// RAII span guard: records itself into its statement's [`SpanBuf`] on drop.
/// Inert (every method a no-op) when opened for no statement or an untraced
/// one.
///
/// The recording state lives behind a `Box` so an inert guard is a single
/// null pointer: constructing and dropping one compiles to a null store and
/// a null check, which is what keeps untraced instrumentation on hot paths
/// (per-block cache probes) near-free without LTO. A recording span pays one
/// heap allocation — noise next to the buffer push it already does.
#[derive(Debug)]
pub struct Span(Option<Box<ActiveSpan>>);

#[derive(Debug)]
struct ActiveSpan {
    buf: Arc<SpanBuf>,
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start_nanos: u64,
    /// Set by [`Span::end_after`]; otherwise the clock is read on drop.
    end_nanos: Option<u64>,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// The inert guard.
    #[inline]
    pub fn disabled() -> Span {
        Span(None)
    }

    /// This span's id (`SpanId::NONE` when inert) — the parent to hand to
    /// spans opened for the same statement on other threads.
    #[inline]
    pub fn id(&self) -> SpanId {
        match &self.0 {
            Some(a) => a.id,
            None => SpanId::NONE,
        }
    }

    /// Is this a recording span (as opposed to an inert guard)?
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Attach a key=value attribute. No-op when inert.
    #[inline]
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(a) = &mut self.0 {
            a.attrs.push((key, value.into()));
        }
    }

    /// End the span `nanos` after it began instead of reading the clock when
    /// it drops (see [`SpanBuf::span_since`]).
    #[inline]
    pub fn end_after(&mut self, nanos: u64) {
        if let Some(a) = &mut self.0 {
            a.end_nanos = Some(a.start_nanos.saturating_add(nanos));
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        // Inert guard: one null check, no work.
        let Some(active) = self.0.take() else { return };
        let active = *active;
        // Pop our id from this thread's stack. Guards normally drop in LIFO
        // order, but search from the end so an out-of-order drop (e.g. a span
        // held across an early return while a sibling is open) cannot
        // corrupt the stack.
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&x| x == active.id.0) {
                stack.remove(pos);
            }
        });
        let end_nanos = active.end_nanos.unwrap_or_else(|| active.buf.origin.elapsed_nanos());
        active.buf.push(SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            start_nanos: active.start_nanos,
            end_nanos,
            attrs: active.attrs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf() -> Arc<SpanBuf> {
        SpanBuf::new(Stopwatch::start())
    }

    #[test]
    fn inert_guard_records_nothing() {
        let mut s = Span::disabled();
        s.attr("k", 1u64);
        s.end_after(5);
        assert!(!s.is_recording());
        assert_eq!(s.id(), SpanId::NONE);
    }

    #[test]
    fn spans_nest_via_thread_stack() {
        let t = buf();
        let root_id;
        {
            let root = t.span("root");
            root_id = root.id();
            {
                let child = t.span("child");
                let grandchild = t.span("grandchild");
                drop(grandchild);
                // The stack is back at `child`: a new span parents to it.
                assert_eq!(t.span("sibling").id(), SpanId(4));
                drop(child);
            }
            // Still open: not handed out yet.
            assert_eq!(t.spans().0.len(), 3);
        }
        let (spans, dropped) = t.spans();
        assert_eq!((spans.len(), dropped), (4, 0));
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("root").parent, SpanId::NONE);
        assert_eq!(by_name("child").parent, root_id);
        assert_eq!(by_name("grandchild").parent, by_name("child").id);
        assert_eq!(by_name("sibling").parent, by_name("child").id);
        // Handed out oldest-first by start time: root opened first.
        assert_eq!(spans[0].name, "root");
        for s in &spans {
            assert!(s.end_nanos >= s.start_nanos);
        }
        // Taking moves them out.
        assert_eq!(t.take_spans().len(), 4);
        assert!(t.take_spans().is_empty());
    }

    #[test]
    fn span_under_parents_across_threads() {
        let t = buf();
        let root = t.span("root");
        let parent_id = root.id();
        std::thread::scope(|scope| {
            for i in 0..4usize {
                let t = t.clone();
                scope.spawn(move || {
                    let mut s = t.span_under(parent_id, "task");
                    s.attr("i", i);
                    // Nested spans on the worker thread attach to the task.
                    let _n = t.span("nested");
                });
            }
        });
        drop(root);
        let spans = t.take_spans();
        let tasks: Vec<_> = spans.iter().filter(|s| s.name == "task").collect();
        assert_eq!(tasks.len(), 4);
        for task in &tasks {
            assert_eq!(task.parent, parent_id);
            let nested = spans
                .iter()
                .find(|s| s.name == "nested" && s.parent == task.id)
                .expect("each task records its nested child");
            assert!(nested.start_nanos >= task.start_nanos);
        }
    }

    #[test]
    fn out_of_order_drop_keeps_the_stack_intact() {
        let t = buf();
        let root = t.span("root");
        let a = t.span("a");
        let b = t.span("b");
        drop(a); // `b` is still open above it
        let c = t.span("c");
        assert_eq!((c.id(), b.id()), (SpanId(4), SpanId(3)));
        drop(c);
        drop(b);
        let d = t.span("d");
        drop(d);
        drop(root);
        let spans = t.take_spans();
        let parent_of = |n: &str| spans.iter().find(|s| s.name == n).unwrap().parent;
        assert_eq!(parent_of("c"), SpanId(3), "parented to `b`, the innermost open span");
        assert_eq!(parent_of("d"), SpanId(1), "`a` and `b` left the stack: back at the root");
    }

    #[test]
    fn buffer_keeps_the_first_max_spans_and_counts_the_rest() {
        let t = buf();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..(MAX_SPANS / 4 + 25) {
                        let _s = t.span("w");
                    }
                });
            }
        });
        let (spans, dropped) = t.spans();
        assert_eq!((spans.len(), dropped), (MAX_SPANS, 100));
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), MAX_SPANS, "no duplicate records");
    }

    #[test]
    fn attrs_round_trip_all_types() {
        let t = buf();
        {
            let mut s = t.span("a");
            s.attr("u", 7u64);
            s.attr("f", 0.5f64);
            s.attr("s", "text");
            s.attr("b", true);
        }
        let spans = t.take_spans();
        let s = &spans[0];
        assert_eq!(s.attr("u"), Some(&AttrValue::U64(7)));
        assert_eq!(s.attr("f"), Some(&AttrValue::F64(0.5)));
        assert_eq!(s.attr("s"), Some(&AttrValue::Str("text".into())));
        assert_eq!(s.attr("b"), Some(&AttrValue::Bool(true)));
        assert_eq!(s.attr("missing"), None);
        assert_eq!(format!("{}", AttrValue::U64(7)), "7");
        assert_eq!(format!("{}", AttrValue::Bool(true)), "true");
    }

    #[test]
    fn a_stage_span_is_cut_from_the_stage_clock() {
        let origin = Stopwatch::start();
        let t = SpanBuf::new(origin);
        let started = Stopwatch::start();
        let mut s = t.span_since("stage", &started);
        let _inner = t.span("inner");
        s.end_after(1_234);
        drop(_inner);
        drop(s);
        let spans = t.take_spans();
        let stage = spans.iter().find(|s| s.name == "stage").unwrap();
        assert_eq!(stage.start_nanos, started.nanos_since(&origin));
        assert_eq!(stage.duration_nanos(), 1_234);
        assert_eq!(spans.iter().find(|s| s.name == "inner").unwrap().parent, stage.id);
    }

    #[test]
    fn fmt_nanos_picks_human_units() {
        assert_eq!(fmt_nanos(850), "850ns");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_500_000), "2.500ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.000s");
    }

    /// Hand-build a record — renderer tests shouldn't depend on real timing.
    fn rec(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            parent: SpanId(parent),
            name,
            start_nanos: start,
            end_nanos: end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn render_spans_indents_by_depth_and_shows_attrs() {
        let mut child = rec(2, 1, "exec", 10, 40);
        child.attrs.push(("rows", AttrValue::U64(5)));
        let records = vec![rec(1, 0, "query", 0, 100), child, rec(3, 2, "segment.search", 12, 30)];
        let lines = render_spans(&records, SpanId(1), 8);
        assert_eq!(lines[0], "query  100ns");
        assert_eq!(lines[1], "  exec  30ns  rows=5");
        assert_eq!(lines[2], "    segment.search  18ns");
    }

    #[test]
    fn render_spans_aggregates_large_sibling_groups() {
        let mut records = vec![rec(1, 0, "query", 0, 100)];
        for i in 0..5u64 {
            let mut r = rec(10 + i, 1, "store.get", i, i + 10);
            r.attrs.push(("bytes", AttrValue::U64(100)));
            records.push(r);
        }
        // Threshold 3: the five store.get spans collapse; two exec spans don't.
        records.push(rec(20, 1, "exec", 50, 60));
        records.push(rec(21, 1, "exec", 60, 70));
        let lines = render_spans(&records, SpanId(1), 3);
        assert_eq!(lines[1], "  store.get ×5  total 50ns  bytes=500");
        assert_eq!(lines[2], "  exec  10ns");
        assert_eq!(lines[3], "  exec  10ns");
        assert_eq!(lines.len(), 4);
    }

    /// A folded transfer group keeps what its transfers cost on the
    /// database clock, summed like its bytes.
    #[test]
    fn render_spans_sums_sim_nanos_into_a_folded_line() {
        let mut records = vec![rec(1, 0, "query", 0, 100)];
        for i in 0..4u64 {
            let mut r = rec(10 + i, 1, "store.get", i, i + 5);
            r.attrs.push(("store", AttrValue::Str("remote".into())));
            r.attrs.push(("bytes", AttrValue::U64(1_000 + i)));
            r.attrs.push(("sim_nanos", AttrValue::U64(2_000_000 + i)));
            records.push(r);
        }
        let lines = render_spans(&records, SpanId(1), 3);
        assert_eq!(lines[1], "  store.get ×4  total 20ns  bytes=4006  sim_nanos=8000006");
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn render_spans_empty_when_root_missing() {
        let records = vec![rec(2, 1, "orphan", 0, 10)];
        assert!(render_spans(&records, SpanId(1), 8).is_empty());
    }
}
