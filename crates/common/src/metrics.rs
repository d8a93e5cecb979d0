//! Lightweight metrics: named counters, gauges and latency histograms.
//!
//! The evaluation harness and several experiments (cache-miss study, read
//! amplification, serving RPC counts) need cheap, thread-safe counters that
//! can be snapshotted. This is a tiny registry — not a general observability
//! stack — sized for exactly that, plus:
//!
//! * label support by name suffixing ([`labeled`] renders
//!   `name{k="v"}` keys that [`MetricsRegistry::render_prometheus`] emits
//!   verbatim as Prometheus labels),
//! * a Prometheus text exposition of every counter/gauge/histogram.
//!
//! Metric naming convention (asserted by tests across the workspace):
//! `<subsystem>.<object>.<event>` in lowercase dot-separated form, e.g.
//! `cache.data.hit`, `remote.get.bytes`, `vw.serving_calls`. Dots become
//! underscores in the Prometheus rendering.

use crate::sync::{classes, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The central metric-name table: every *literal* counter/gauge/histogram
/// registration in the workspace must use a name from this list, and every
/// name here must have such a registration in library code (both enforced
/// by `cargo xtask lint` rule 9 `metric-names`), so a typo'd dotted name
/// fails the build instead of silently splitting one series into two, and a
/// name nothing registers any more cannot linger.
///
/// Dynamically built names (`kernel.tier.<tier>`, `<store-label>.get*`) are
/// outside the rule's reach and are not listed. Keep the list sorted.
///
/// `query.batch_size` counts every executed SELECT: the engine has one
/// executor and a single statement is a batch of one.
pub const NAMES: &[&str] = &[
    "cache.data.bypass",
    "cache.data.hit",
    "cache.data.miss",
    "cache.index.mem.hit",
    "cache.index.mem.miss",
    "cache.index.prefetch",
    "cache.index.prefetch.hit",
    "cache.index.preload",
    "cache.index.remote.fetch",
    "cache.index.singleflight.wait",
    "process.errors",
    "process.peak_rss_bytes",
    "process.queries",
    "process.uptime_seconds",
    "query.adaptive_expansions",
    "query.batch_size",
    "query.bind_ns",
    "query.bound_skips",
    "query.exec_ns",
    "query.executed",
    "query.fanout.caller_tasks",
    "query.fanout.helper_tasks",
    "query.fanout.threads_started",
    "query.fanout_batches",
    "query.index_prefetches",
    "query.iterator_visited",
    "query.parallel_segments",
    "query.plan.brute_force",
    "query.plan.filtered_traversal",
    "query.plan.post_filter",
    "query.plan.pre_filter",
    "query.plan_ns",
    "query.refined",
    "query.segment_ns",
    "query.segments_pruned",
    "query.slo",
    "query.snapshot_retries",
    "table.compact_bytes_rewritten",
    "table.compact_ns",
    "table.compactions",
    "table.index_add_ns",
    "table.index_serialize_ns",
    "table.index_train_ns",
    "table.parallel_compact_groups",
    "table.rows_deleted",
    "table.rows_ingested",
    "table.rows_updated",
    "table.segments_created",
    "vw.query_retries",
    "vw.ring_assigns",
    "vw.scale_down",
    "vw.scale_up",
    "vw.serving_calls",
    "worker.brute_force",
    "worker.local_search",
    "worker.rpc_calls",
    "worker.rpc_ns",
    "worker.served_remote",
];

/// Peak resident-set size of this process in bytes, when the platform
/// exposes it (`VmHWM` in `/proc/self/status` on Linux). `None` elsewhere
/// or when the file is unreadable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (e.g. "which kernel tier is active", "current
/// parallelism"). Unlike [`Counter`] it can be set to any value at any time.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 latency histogram (nanosecond resolution, buckets up
/// to ~73 minutes). Lock-free recording.
#[derive(Debug)]
pub struct Histogram {
    // bucket i counts samples with floor(log2(nanos)) == i
    buckets: [AtomicU64; 42],
    sum_nanos: AtomicU64,
    count: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, d: Duration) {
        let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
        let idx = (64 - nanos.max(1).leading_zeros() as usize - 1).min(self.buckets.len() - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples.
    pub fn mean(&self) -> Duration {
        let c = self.count();
        if c == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed) / c)
    }

    /// Approximate quantile via bucket upper bounds (`q` in `[0,1]`).
    ///
    /// Bucket `i` covers `[2^i, 2^(i+1) - 1]` nanoseconds; the answer is that
    /// inclusive upper bound, saturated to the largest recorded sample — so a
    /// quantile never exceeds [`Histogram::max`], and running past the last
    /// bucket returns `max()` instead of a nonsense `u64::MAX` duration.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let max = self.max_nanos.load(Ordering::Relaxed);
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                let upper = (1u64 << (i + 1)) - 1;
                return Duration::from_nanos(upper.min(max));
            }
        }
        self.max()
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed))
    }

    /// Convenience 99.9th percentile used by the profile renderer.
    pub fn p999(&self) -> Duration {
        self.quantile(0.999)
    }

    /// Point-in-time copy of the derived statistics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed)),
            mean: self.mean(),
            p50: self.quantile(0.5),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            p999: self.p999(),
            max: self.max(),
        }
    }
}

/// Derived statistics of one [`Histogram`] at a point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: Duration,
    pub mean: Duration,
    pub p50: Duration,
    pub p95: Duration,
    pub p99: Duration,
    pub p999: Duration,
    pub max: Duration,
}

/// Build a labeled metric name: `labeled("cache.hit", &[("tier", "mem")])`
/// → `cache.hit{tier="mem"}`. The registry treats the result as an opaque
/// key; [`MetricsRegistry::render_prometheus`] splits it back apart and emits
/// the label set verbatim. Label values are escaped per the Prometheus text
/// format (`\` → `\\`, `"` → `\"`, newline → `\n`).
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Escape a Prometheus label value.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Mangle a metric name (the part before any `{label}` suffix) into the
/// Prometheus name charset `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn prometheus_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Split a registry key into (mangled name, label suffix incl. braces).
fn split_labels(key: &str) -> (String, &str) {
    match key.find('{') {
        Some(i) => (prometheus_name(&key[..i]), &key[i..]),
        None => (prometheus_name(key), ""),
    }
}

/// A named registry of counters and histograms.
///
/// Cloning the registry is cheap (it is an `Arc` internally); all clones share
/// the same metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            counters: RwLock::new(&classes::METRICS_COUNTERS, BTreeMap::new()),
            gauges: RwLock::new(&classes::METRICS_GAUGES, BTreeMap::new()),
            histograms: RwLock::new(&classes::METRICS_HISTOGRAMS, BTreeMap::new()),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.inner.counters.read().get(name) {
            return c.clone();
        }
        self.inner
            .counters
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::default()))
            .clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.inner.gauges.read().get(name) {
            return g.clone();
        }
        self.inner
            .gauges
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::default()))
            .clone()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.inner.histograms.read().get(name) {
            return h.clone();
        }
        self.inner
            .histograms
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::default()))
            .clone()
    }

    /// Current value of a counter (0 if never created).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner.counters.read().get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// Current value of a gauge (0 if never created).
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.inner.gauges.read().get(name).map(|g| g.get()).unwrap_or(0)
    }

    /// Get or create the counter `name{labels}` (see [`labeled`]).
    pub fn counter_with_labels(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter(&labeled(name, labels))
    }

    /// Get or create the gauge `name{labels}` (see [`labeled`]).
    pub fn gauge_with_labels(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.gauge(&labeled(name, labels))
    }

    /// Get or create the histogram `name{labels}` (see [`labeled`]).
    pub fn histogram_with_labels(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram(&labeled(name, labels))
    }

    /// Snapshot of all counter values, sorted by name.
    pub fn snapshot_counters(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Snapshot of all gauge values, sorted by name.
    pub fn snapshot_gauges(&self) -> Vec<(String, u64)> {
        self.inner
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Snapshot of all histograms' derived statistics, sorted by name.
    pub fn snapshot_histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner
            .histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Render every metric in the Prometheus text exposition format
    /// (version 0.0.4). Counters and gauges render as their type; histograms
    /// render as summaries (`quantile` labels, `_sum` in seconds, `_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type_line = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            // Labeled series of one metric share a single # TYPE line.
            let line = format!("# TYPE {name} {kind}\n");
            if line != last_type_line {
                out.push_str(&line);
                last_type_line = line;
            }
        };
        for (key, value) in self.snapshot_counters() {
            let (name, labels) = split_labels(&key);
            type_line(&mut out, &name, "counter");
            out.push_str(&format!("{name}{labels} {value}\n"));
        }
        for (key, value) in self.snapshot_gauges() {
            let (name, labels) = split_labels(&key);
            type_line(&mut out, &name, "gauge");
            out.push_str(&format!("{name}{labels} {value}\n"));
        }
        for (key, snap) in self.snapshot_histograms() {
            let (name, labels) = split_labels(&key);
            type_line(&mut out, &name, "summary");
            let base = labels.strip_prefix('{').and_then(|l| l.strip_suffix('}'));
            let with = |extra: &str| match base {
                Some(inner) => format!("{{{inner},{extra}}}"),
                None => format!("{{{extra}}}"),
            };
            for (q, d) in [
                ("0.5", snap.p50),
                ("0.95", snap.p95),
                ("0.99", snap.p99),
                ("0.999", snap.p999),
            ] {
                out.push_str(&format!(
                    "{name}{} {}\n",
                    with(&format!("quantile=\"{q}\"")),
                    d.as_secs_f64()
                ));
            }
            out.push_str(&format!("{name}_sum{labels} {}\n", snap.sum.as_secs_f64()));
            out.push_str(&format!("{name}_count{labels} {}\n", snap.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let m = MetricsRegistry::new();
        m.counter("cache.hit").inc();
        m.counter("cache.hit").add(2);
        assert_eq!(m.counter_value("cache.hit"), 3);
        assert_eq!(m.counter_value("cache.miss"), 0);
    }

    #[test]
    fn clones_share_state() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m.counter("x").inc();
        assert_eq!(m2.counter_value("x"), 1);
    }

    #[test]
    fn gauges_overwrite_and_share() {
        let m = MetricsRegistry::new();
        m.gauge("kernel.tier").set(2);
        m.gauge("kernel.tier").set(1);
        assert_eq!(m.gauge_value("kernel.tier"), 1);
        assert_eq!(m.gauge_value("unset"), 0);
    }

    #[test]
    fn histogram_mean_and_quantile() {
        let m = MetricsRegistry::new();
        let h = m.histogram("lat");
        for us in [10u64, 20, 30, 40, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        let mean = h.mean();
        assert!(mean >= Duration::from_micros(200) && mean <= Duration::from_micros(240));
        // p99 bucket must be at least as large as the max sample's bucket lower bound
        assert!(h.quantile(0.99) >= Duration::from_micros(1000));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn snapshot_is_sorted() {
        let m = MetricsRegistry::new();
        m.counter("b").inc();
        m.counter("a").inc();
        let snap = m.snapshot_counters();
        assert_eq!(snap[0].0, "a");
        assert_eq!(snap[1].0, "b");
    }

    #[test]
    fn quantile_saturates_at_max_sample() {
        let h = Histogram::default();
        h.record(Duration::from_nanos(700));
        // 700ns lands in bucket [512, 1023]; the bucket upper bound (1023) is
        // capped at the actual max sample.
        assert_eq!(h.quantile(0.5), Duration::from_nanos(700));
        assert_eq!(h.quantile(1.0), Duration::from_nanos(700));
        assert_eq!(h.max(), Duration::from_nanos(700));
        assert_eq!(h.p999(), Duration::from_nanos(700));
        // Never the old u64::MAX fallthrough, and never above max().
        for q in [0.0, 0.25, 0.5, 0.999, 1.0] {
            assert!(h.quantile(q) <= h.max());
        }
    }

    #[test]
    fn quantile_uses_inclusive_bucket_upper_bound() {
        let h = Histogram::default();
        h.record(Duration::from_nanos(600));
        h.record(Duration::from_nanos(2000));
        // p50 target is the first sample: bucket [512, 1023] → 1023, below
        // the 2000ns max so no saturation applies.
        assert_eq!(h.quantile(0.5), Duration::from_nanos(1023));
        assert_eq!(h.max(), Duration::from_nanos(2000));
    }

    #[test]
    fn histogram_snapshot_is_consistent() {
        let h = Histogram::default();
        for us in [10u64, 20, 30] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, Duration::from_micros(60));
        assert_eq!(s.mean, Duration::from_micros(20));
        assert_eq!(s.max, Duration::from_micros(30));
        assert!(s.p50 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
    }

    #[test]
    fn labeled_builds_and_escapes() {
        assert_eq!(labeled("cache.hit", &[]), "cache.hit");
        assert_eq!(labeled("cache.hit", &[("tier", "mem")]), "cache.hit{tier=\"mem\"}");
        assert_eq!(
            labeled("m", &[("a", "x\"y"), ("b", "p\\q"), ("c", "l1\nl2")]),
            "m{a=\"x\\\"y\",b=\"p\\\\q\",c=\"l1\\nl2\"}"
        );
    }

    #[test]
    fn snapshot_gauges_and_histograms() {
        let m = MetricsRegistry::new();
        m.gauge("g.b").set(2);
        m.gauge("g.a").set(1);
        assert_eq!(m.snapshot_gauges(), vec![("g.a".into(), 1), ("g.b".into(), 2)]);
        m.histogram("h").record(Duration::from_micros(5));
        let hs = m.snapshot_histograms();
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].0, "h");
        assert_eq!(hs[0].1.count, 1);
    }

    #[test]
    fn prometheus_rendering() {
        let m = MetricsRegistry::new();
        m.counter("cache.data.hit").add(3);
        m.counter_with_labels("store.get", &[("label", "remote")]).add(7);
        m.gauge("kernel.tier").set(2);
        m.histogram("query.lat").record(Duration::from_millis(2));
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE cache_data_hit counter\ncache_data_hit 3\n"));
        assert!(text.contains("store_get{label=\"remote\"} 7\n"));
        assert!(text.contains("# TYPE kernel_tier gauge\nkernel_tier 2\n"));
        assert!(text.contains("# TYPE query_lat summary\n"));
        assert!(text.contains("query_lat{quantile=\"0.5\"} 0.002"));
        assert!(text.contains("query_lat_count 1\n"));
        assert!(text.contains("query_lat_sum 0.002\n"));
    }

    #[test]
    fn prometheus_escapes_label_values_and_mangles_names() {
        let m = MetricsRegistry::new();
        m.counter_with_labels("odd-name.9", &[("path", "a\"b\\c\nd")]).inc();
        let text = m.render_prometheus();
        assert!(text.contains("odd_name_9{path=\"a\\\"b\\\\c\\nd\"} 1\n"));
        // Leading digit gets a guard underscore.
        assert_eq!(super::prometheus_name("9lives"), "_9lives");
    }

    #[test]
    fn labeled_series_share_one_type_line() {
        let m = MetricsRegistry::new();
        m.counter_with_labels("rpc", &[("worker", "w1")]).inc();
        m.counter_with_labels("rpc", &[("worker", "w2")]).inc();
        let text = m.render_prometheus();
        assert_eq!(text.matches("# TYPE rpc counter").count(), 1);
        assert!(text.contains("rpc{worker=\"w1\"} 1\n"));
        assert!(text.contains("rpc{worker=\"w2\"} 1\n"));
    }

    #[test]
    fn names_table_is_sorted_unique_and_well_formed() {
        for w in NAMES.windows(2) {
            assert!(w[0] < w[1], "NAMES must be sorted and unique: {:?} >= {:?}", w[0], w[1]);
        }
        for name in NAMES {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "metric name {name:?} is not lowercase dotted form"
            );
            assert!(!name.starts_with('.') && !name.ends_with('.'), "{name:?}");
        }
    }

    #[test]
    fn prometheus_summary_has_p95() {
        let m = MetricsRegistry::new();
        m.histogram("query.lat").record(Duration::from_millis(2));
        let text = m.render_prometheus();
        assert!(text.contains("query_lat{quantile=\"0.95\"}"), "{text}");
        let s = m.histogram("query.lat").snapshot();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn peak_rss_is_plausible_when_readable() {
        if let Some(rss) = peak_rss_bytes() {
            // A running test binary has at least a few hundred KiB resident.
            assert!(rss > 100 * 1024, "implausible peak RSS {rss}");
        }
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let m = MetricsRegistry::new();
        let mut handles = vec![];
        for _ in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.counter("n").inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.counter_value("n"), 8000);
    }
}
