//! Always-on query log: a bounded lock-free ring of [`QueryLogRecord`]s plus
//! a [`SlowQueryPolicy`]-governed store of full span trees for slow or
//! failed queries.
//!
//! The ring is a ticket ring: an append is one `fetch_add` on an atomic head
//! plus one slot-mutex store (class `QUERYLOG_SLOT`, ranked near the top so
//! the log can be written from under any statement-path lock). The ring
//! keeps the newest `capacity` records and never blocks writers on readers;
//! `snapshot()` clones the live records without consuming them, so
//! `system.query_log` scans are repeatable.
//!
//! Slow-query capture is a second, much smaller store: when a
//! [`SlowQueryPolicy`] is armed the database traces each statement (a traced
//! [`crate::QueryCtx`]) and hands the context's span tree to
//! [`QueryLog::retain_trace`]; the policy keeps the *full* tree (not the
//! rollup) for any query whose wall time exceeds `threshold_nanos` or that
//! ended in an error. Retained traces back the `system.spans` table and the
//! `SYSTEM TRACE EXPORT` statement, which renders them as chrome://tracing
//! JSON ([`QueryLog::export_chrome_trace`]).
//!
//! Timestamps are nanoseconds since the log's origin [`Stopwatch`]
//! ([`QueryLog::origin`]), which is also the origin the database gives a
//! traced statement's spans: a span's timestamps lie between its record's
//! `start_nanos` and `end_nanos`.

use crate::clock::Stopwatch;
use crate::qctx::StatementWork;
use crate::sync::{classes, Mutex};
use crate::trace::{AttrValue, SpanRecord};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Records the ring retains: a `Database` keeps its last this many
/// statements for `system.query_log`.
pub const DEFAULT_LOG_CAPACITY: usize = 1024;

/// Default number of slow-query traces retained.
pub const DEFAULT_SLOW_CAPACITY: usize = 64;

/// Statement kinds a record can be tagged with; also the label set of the
/// per-kind SLO histograms (`query.slo.<kind>`).
pub const STATEMENT_KINDS: &[&str] =
    &["select", "insert", "create_table", "update", "delete", "explain", "system", "other"];

/// One completed query, as built at statement completion from the
/// statement's own [`crate::QueryCtx`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryLogRecord {
    /// Monotonic per-process query id (1-based).
    pub query_id: u64,
    /// Statement kind — one of [`STATEMENT_KINDS`].
    pub kind: &'static str,
    /// Normalized SQL: literals folded to `?`, whitespace collapsed,
    /// truncated to [`normalize_sql`]'s cap.
    pub sql: String,
    /// Tenant the statement ran as (`"default"` unless the caller said).
    pub tenant: String,
    /// Session / connection label.
    pub session: String,
    /// Start of execution, nanoseconds since the log's origin.
    pub start_nanos: u64,
    /// End of execution on the same origin; `end_nanos >= start_nanos`.
    pub end_nanos: u64,
    /// Stage times and work counters: the statement's tally when it ended.
    pub work: StatementWork,
    /// Rows in the result set (0 for DDL/DML, affected count for those).
    pub result_rows: u64,
    /// The plan the planner chose for this statement: `"brute_force"`,
    /// `"pre_filter"`, `"post_filter"` or `"filtered_traversal"`; empty for
    /// a statement that runs no vector plan (DDL/DML, a scalar SELECT,
    /// EXPLAIN).
    pub strategy: &'static str,
    /// Error code (the `BhError` variant name) when the statement failed.
    pub error_code: Option<&'static str>,
    /// True when the full span tree was retained for this query.
    pub traced: bool,
}

impl QueryLogRecord {
    /// End-to-end wall time of the statement.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

/// When to retain a query's full span tree.
///
/// Arming a policy makes the database trace every statement (the capture
/// cost is benchmarked in `BENCH_querylog.json`); the tree is *kept* only
/// for statements the policy selects, so the retained store stays small.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQueryPolicy {
    /// Retain the tree when wall time strictly exceeds this.
    pub threshold_nanos: u64,
    /// Retain the tree when the statement ends in an error.
    pub capture_errors: bool,
}

impl Default for SlowQueryPolicy {
    /// 50ms threshold, errors captured.
    fn default() -> Self {
        SlowQueryPolicy { threshold_nanos: 50_000_000, capture_errors: true }
    }
}

impl SlowQueryPolicy {
    /// Should this record's span tree be retained?
    pub fn retains(&self, duration_nanos: u64, errored: bool) -> bool {
        duration_nanos > self.threshold_nanos || (self.capture_errors && errored)
    }
}

/// A retained slow-query trace: the record's identity plus its full span
/// tree, ready for `system.spans` scans and chrome://tracing export.
#[derive(Debug, Clone)]
pub struct SlowQueryTrace {
    /// The query this tree belongs to.
    pub query_id: u64,
    /// Normalized SQL of that query.
    pub sql: String,
    /// End-to-end wall time.
    pub duration_nanos: u64,
    /// Error code when retained because the statement failed.
    pub error_code: Option<&'static str>,
    /// The full span tree, sorted by start time, then id.
    pub spans: Vec<SpanRecord>,
}

/// Fixed-capacity overwrite-oldest record ring (ticket head + slot locks).
struct Ring {
    head: AtomicU64,
    slots: Vec<Mutex<Option<QueryLogRecord>>>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(1);
        Ring {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(&classes::QUERYLOG_SLOT, None)).collect(),
        }
    }

    fn push(&self, record: QueryLogRecord) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (ticket % self.slots.len() as u64) as usize;
        *self.slots[slot].lock() = Some(record);
    }

    fn snapshot(&self) -> Vec<QueryLogRecord> {
        let mut out: Vec<QueryLogRecord> =
            self.slots.iter().filter_map(|s| s.lock().clone()).collect();
        out.sort_by_key(|r| (r.start_nanos, r.query_id));
        out
    }

    fn clear(&self) {
        for slot in &self.slots {
            *slot.lock() = None;
        }
    }
}

struct SlowStore {
    traces: VecDeque<SlowQueryTrace>,
    capacity: usize,
}

struct Inner {
    enabled: AtomicBool,
    origin: Stopwatch,
    next_id: AtomicU64,
    ring: Ring,
    /// Lock-free mirror of the armed policy so the per-statement "should I
    /// trace" check costs two atomic loads, not a lock.
    capture_armed: AtomicBool,
    threshold_nanos: AtomicU64,
    capture_errors: AtomicBool,
    slow: Mutex<SlowStore>,
}

/// The process query log. Cheap to clone (an [`Arc`] handle); one instance
/// lives in the `Database` and is shared with anything that reports on it.
#[derive(Clone)]
pub struct QueryLog {
    inner: Arc<Inner>,
}

impl Default for QueryLog {
    fn default() -> Self {
        QueryLog::new(DEFAULT_LOG_CAPACITY)
    }
}

impl QueryLog {
    /// A log retaining the newest `capacity` records and
    /// [`DEFAULT_SLOW_CAPACITY`] slow traces. Enabled, slow-query capture
    /// disarmed.
    pub fn new(capacity: usize) -> QueryLog {
        QueryLog::with_capacities(capacity, DEFAULT_SLOW_CAPACITY)
    }

    /// A log with explicit record and slow-trace capacities.
    pub fn with_capacities(capacity: usize, slow_capacity: usize) -> QueryLog {
        QueryLog {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                origin: Stopwatch::start(),
                next_id: AtomicU64::new(1),
                ring: Ring::new(capacity),
                capture_armed: AtomicBool::new(false),
                threshold_nanos: AtomicU64::new(0),
                capture_errors: AtomicBool::new(false),
                slow: Mutex::new(
                    &classes::QUERYLOG_SLOW,
                    SlowStore { traces: VecDeque::new(), capacity: slow_capacity.max(1) },
                ),
            }),
        }
    }

    /// Turn record appends on or off. Off makes [`QueryLog::observe`] a
    /// single atomic load.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Is the log recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Number of records the ring retains.
    pub fn capacity(&self) -> usize {
        self.inner.ring.slots.len()
    }

    /// Allocate the next query id (1-based, monotonic).
    pub fn next_query_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since the log's origin; the timebase of
    /// `start_nanos`/`end_nanos`.
    pub fn now_nanos(&self) -> u64 {
        self.inner.origin.elapsed_nanos()
    }

    /// The log's time origin: what a traced statement's spans are
    /// timestamped against, so they share the records' timebase.
    pub fn origin(&self) -> Stopwatch {
        self.inner.origin
    }

    /// Append one completed-query record (no-op while disabled).
    pub fn observe(&self, record: QueryLogRecord) {
        if !self.is_enabled() {
            return;
        }
        self.inner.ring.push(record);
    }

    /// Clone out the live records, oldest first. Never returns more than
    /// [`QueryLog::capacity`] records.
    pub fn records(&self) -> Vec<QueryLogRecord> {
        self.inner.ring.snapshot()
    }

    /// Total records ever appended (including ones the ring has dropped).
    pub fn total_logged(&self) -> u64 {
        self.inner.ring.head.load(Ordering::Relaxed)
    }

    /// Drop all records and retained traces.
    pub fn clear(&self) {
        self.inner.ring.clear();
        self.inner.slow.lock().traces.clear();
    }

    /// Arm (or, with `None`, disarm) slow-query capture.
    pub fn set_slow_policy(&self, policy: Option<SlowQueryPolicy>) {
        match policy {
            Some(p) => {
                self.inner.threshold_nanos.store(p.threshold_nanos, Ordering::Relaxed);
                self.inner.capture_errors.store(p.capture_errors, Ordering::Relaxed);
                self.inner.capture_armed.store(true, Ordering::Relaxed);
            }
            None => self.inner.capture_armed.store(false, Ordering::Relaxed),
        }
    }

    /// The armed policy, if any.
    pub fn slow_policy(&self) -> Option<SlowQueryPolicy> {
        self.capture_armed().then(|| SlowQueryPolicy {
            threshold_nanos: self.inner.threshold_nanos.load(Ordering::Relaxed),
            capture_errors: self.inner.capture_errors.load(Ordering::Relaxed),
        })
    }

    /// Is slow-query capture armed (i.e. should statements be traced)?
    pub fn capture_armed(&self) -> bool {
        self.inner.capture_armed.load(Ordering::Relaxed) && self.is_enabled()
    }

    /// Does the armed policy retain a tree for this outcome?
    pub fn should_retain(&self, duration_nanos: u64, errored: bool) -> bool {
        self.capture_armed() && self.slow_policy().is_some_and(|p| p.retains(duration_nanos, errored))
    }

    /// Retain one slow-query trace (overwrite-oldest at the store's
    /// capacity).
    pub fn retain_trace(&self, trace: SlowQueryTrace) {
        let mut g = self.inner.slow.lock();
        if g.traces.len() == g.capacity {
            g.traces.pop_front();
        }
        g.traces.push_back(trace);
    }

    /// Clone out the retained traces, oldest first.
    pub fn slow_traces(&self) -> Vec<SlowQueryTrace> {
        self.inner.slow.lock().traces.iter().cloned().collect()
    }

    /// Render every retained trace as chrome://tracing JSON (the
    /// `{"traceEvents": [...]}` object format). Each query becomes one
    /// `pid` whose process name is its normalized SQL; spans become
    /// complete (`"ph": "X"`) events with microsecond timestamps and their
    /// attributes as `args`.
    pub fn export_chrome_trace(&self) -> String {
        let traces = self.slow_traces();
        let mut events = Vec::new();
        for t in &traces {
            let label = match t.error_code {
                Some(code) => format!("query {} [{}] {}", t.query_id, code, t.sql),
                None => format!("query {} {}", t.query_id, t.sql),
            };
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":{}}}}}",
                t.query_id,
                json_string(&label)
            ));
            for s in &t.spans {
                let mut args = String::new();
                for (k, v) in &s.attrs {
                    if !args.is_empty() {
                        args.push(',');
                    }
                    args.push_str(&json_string(k));
                    args.push(':');
                    args.push_str(&attr_json(v));
                }
                events.push(format!(
                    "{{\"name\":{},\"cat\":\"query\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0,\"id\":{},\"args\":{{{}}}}}",
                    json_string(s.name),
                    micros(s.start_nanos),
                    micros(s.duration_nanos()),
                    t.query_id,
                    s.id.0,
                    args
                ));
            }
        }
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}", events.join(","))
    }
}

/// Nanoseconds to the microsecond (fractional) timestamps chrome://tracing
/// expects, with three decimals so nanosecond precision survives.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn attr_json(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(n) => n.to_string(),
        AttrValue::F64(f) if f.is_finite() => format!("{f}"),
        AttrValue::F64(_) => "null".to_string(),
        AttrValue::Str(s) => json_string(s),
        AttrValue::Bool(b) => b.to_string(),
    }
}

/// Minimal JSON string escape (quotes, backslash, control chars).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Cap on normalized-SQL length; longer statements are truncated with `…`.
pub const NORMALIZED_SQL_MAX: usize = 256;

/// Normalize a statement for the log: string and numeric literals fold to
/// `?`, whitespace runs collapse to one space, and the result is truncated
/// to [`NORMALIZED_SQL_MAX`] characters. Folding literals keeps the log
/// bounded (an INSERT with 10k rows normalizes to a few dozen bytes of
/// shape) and groups repeated parameterized queries into one shape.
pub fn normalize_sql(sql: &str) -> String {
    // Sized up front: the output never exceeds the input (folding only
    // shrinks) and is capped near NORMALIZED_SQL_MAX, so one allocation
    // serves the whole pass — this runs on every logged statement.
    let mut out = String::with_capacity(sql.len().min(NORMALIZED_SQL_MAX + 4));
    let mut out_chars = 0usize;
    let mut chars = sql.chars().peekable();
    let mut pending_space = false;
    // Last emitted character — a digit after an identifier character is part
    // of the identifier (`L2Distance`, `x1`), not a numeric literal.
    let mut last_emitted = ' ';
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            pending_space = !out.is_empty();
            continue;
        }
        if pending_space {
            out.push(' ');
            out_chars += 1;
            pending_space = false;
            last_emitted = ' ';
        }
        match c {
            '\'' => {
                // String literal: consume to the closing quote ('' escapes).
                while let Some(c) = chars.next() {
                    if c == '\'' {
                        if chars.peek() == Some(&'\'') {
                            chars.next();
                        } else {
                            break;
                        }
                    }
                }
                out.push('?');
                last_emitted = '?';
            }
            '0'..='9' if last_emitted.is_ascii_alphanumeric() || last_emitted == '_' => {
                out.push(c);
                last_emitted = c;
            }
            '0'..='9' => {
                // Numeric literal (digits, dot, exponent); a leading sign is
                // left in place — `-3` normalizes to `-?`, which is fine for
                // a shape key.
                let mut prev = c;
                while let Some(&n) = chars.peek() {
                    let sign_of_exponent = (n == '+' || n == '-') && matches!(prev, 'e' | 'E');
                    if n.is_ascii_digit() || n == '.' || n == 'e' || n == 'E' || sign_of_exponent {
                        prev = n;
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push('?');
                last_emitted = '?';
            }
            c => {
                out.push(c);
                last_emitted = c;
            }
        }
        out_chars += 1;
        if out_chars >= NORMALIZED_SQL_MAX {
            out.push('…');
            break;
        }
    }
    // Collapse runs of `?` separated by commas/spaces: `?, ?, ?` → `?`.
    // Keeps INSERT row lists and array literals one token wide.
    let mut folded = String::with_capacity(out.len());
    let mut i = out.chars().peekable();
    while let Some(c) = i.next() {
        folded.push(c);
        if c == '?' {
            loop {
                let mut ahead = i.clone();
                let mut consumed = 0usize;
                while matches!(ahead.peek(), Some(' ') | Some(',')) {
                    ahead.next();
                    consumed += 1;
                }
                if consumed > 0 && ahead.peek() == Some(&'?') {
                    ahead.next();
                    for _ in 0..=consumed {
                        i.next();
                    }
                } else {
                    break;
                }
            }
        }
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanBuf;
    use std::thread;

    fn record(id: u64, start: u64) -> QueryLogRecord {
        QueryLogRecord {
            query_id: id,
            kind: "select",
            sql: format!("q{id}"),
            tenant: "default".into(),
            session: "s".into(),
            start_nanos: start,
            end_nanos: start + 10,
            ..QueryLogRecord::default()
        }
    }

    #[test]
    fn ring_keeps_newest_capacity_records() {
        let log = QueryLog::new(4);
        for i in 0..10 {
            log.observe(record(i, i));
        }
        let records = log.records();
        assert_eq!(records.len(), 4);
        let ids: Vec<u64> = records.iter().map(|r| r.query_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(log.total_logged(), 10);
    }

    #[test]
    fn disabled_log_drops_records() {
        let log = QueryLog::new(4);
        log.set_enabled(false);
        log.observe(record(1, 1));
        assert!(log.records().is_empty());
        assert!(!log.capture_armed());
        log.set_enabled(true);
        log.observe(record(2, 2));
        assert_eq!(log.records().len(), 1);
    }

    #[test]
    fn snapshot_is_not_consuming() {
        let log = QueryLog::new(4);
        log.observe(record(1, 1));
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.records().len(), 1, "snapshot must not drain the ring");
        log.clear();
        assert!(log.records().is_empty());
    }

    #[test]
    fn concurrent_writers_never_exceed_capacity() {
        let log = QueryLog::new(8);
        thread::scope(|s| {
            for t in 0..4 {
                let log = log.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        log.observe(record(t * 1000 + i, i));
                    }
                });
            }
        });
        assert!(log.records().len() <= 8);
        assert_eq!(log.total_logged(), 400);
    }

    #[test]
    fn slow_policy_retains_on_threshold_or_error() {
        let p = SlowQueryPolicy { threshold_nanos: 100, capture_errors: true };
        assert!(!p.retains(100, false), "threshold is strict");
        assert!(p.retains(101, false));
        assert!(p.retains(5, true));
        let no_err = SlowQueryPolicy { threshold_nanos: 100, capture_errors: false };
        assert!(!no_err.retains(5, true));
    }

    #[test]
    fn policy_arming_round_trips() {
        let log = QueryLog::new(4);
        assert!(!log.capture_armed());
        assert_eq!(log.slow_policy(), None);
        let p = SlowQueryPolicy { threshold_nanos: 42, capture_errors: false };
        log.set_slow_policy(Some(p.clone()));
        assert!(log.capture_armed());
        assert_eq!(log.slow_policy(), Some(p));
        assert!(log.should_retain(43, false));
        assert!(!log.should_retain(42, false));
        assert!(!log.should_retain(1, true), "capture_errors off");
        log.set_slow_policy(None);
        assert!(!log.capture_armed());
    }

    #[test]
    fn slow_store_is_bounded() {
        let log = QueryLog::with_capacities(4, 2);
        for i in 0..5 {
            log.retain_trace(SlowQueryTrace {
                query_id: i,
                sql: String::new(),
                duration_nanos: 1,
                error_code: None,
                spans: Vec::new(),
            });
        }
        let traces = log.slow_traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].query_id, 3);
        assert_eq!(traces[1].query_id, 4);
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let log = QueryLog::new(4);
        let buf = SpanBuf::new(log.origin());
        {
            let mut root = buf.span("query");
            root.attr("k", 3u64);
            let mut child = buf.span("exec");
            child.attr("strategy", "flat");
            child.attr("hit", true);
        }
        let spans = buf.take_spans();
        log.retain_trace(SlowQueryTrace {
            query_id: 7,
            sql: "SELECT \"x\" FROM t".into(),
            duration_nanos: 123_456,
            error_code: Some("NotFound"),
            spans,
        });
        let json = log.export_chrome_trace();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"M\""), "missing process_name metadata: {json}");
        assert!(json.contains("\"ph\":\"X\""), "missing complete events: {json}");
        assert!(json.contains("\\\"x\\\""), "quotes in SQL must be escaped: {json}");
        assert!(json.contains("\"name\":\"exec\""));
        assert!(json.contains("\"strategy\":\"flat\""));
        assert!(json.contains("\"hit\":true"));
        // Balanced braces/brackets — a cheap structural validity check on
        // top of the exact prefixes asserted above.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn micros_formats_fractional() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(1_000_007), "1000.007");
    }

    #[test]
    fn normalize_folds_literals_and_whitespace() {
        assert_eq!(
            normalize_sql("SELECT  id\nFROM docs WHERE label = 'l0' LIMIT 5"),
            "SELECT id FROM docs WHERE label = ? LIMIT ?"
        );
        assert_eq!(
            normalize_sql("INSERT INTO t VALUES (1, 'a', [0.5, 1.5]), (2, 'b', [2.5, 3.5])"),
            "INSERT INTO t VALUES (?, [?]), (?, [?])"
        );
        assert_eq!(normalize_sql("SELECT 1e-3, 'it''s'"), "SELECT ?");
        // Digits inside identifiers are not literals.
        assert_eq!(
            normalize_sql("SELECT L2Distance(emb, [0.5, 9.0]) FROM t1 LIMIT 3"),
            "SELECT L2Distance(emb, [?]) FROM t1 LIMIT ?"
        );
        let long = format!("SELECT {}", "x".repeat(400));
        let normalized = normalize_sql(&long);
        assert!(normalized.chars().count() <= NORMALIZED_SQL_MAX + 1);
        assert!(normalized.ends_with('…'));
    }
}
