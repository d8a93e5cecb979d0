//! Simulated disaggregated storage.
//!
//! All segment column blobs, index blobs and metadata live in an
//! [`InMemoryObjectStore`], a latency-charging in-memory blob map: with a
//! remote-profile [`LatencyModel`] it *is* the paper's "remote distributed
//! storage system"; with the zero model it doubles as a fast test store.
//!
//! Every get/put/delete is a transfer of `model.cost(blob_len)` that arrives
//! at a deadline on the store's clock — `get_begin` and `put_begin` return
//! before it, `get`, `put` and `delete` wait it out — and bumps metrics
//! counters, so experiments can observe both simulated time and I/O counts.

use bh_common::metrics::Counter;
use bh_common::{BhError, LatencyModel, MetricsRegistry, QueryCtx, Result, SharedClock};
use bytes::Bytes;
use bh_common::sync::{classes, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An in-flight `get`: the bytes are already in hand (the simulation reads
/// eagerly) but the simulated transfer arrives at an absolute deadline on
/// the store's clock. Call [`PendingGet::wait`] to settle the time and read
/// the bytes; dropping one unwaited (an abandoned prefetch) costs nothing.
#[derive(Debug)]
pub struct PendingGet {
    bytes: Bytes,
    clock: SharedClock,
    deadline: u64,
}

impl PendingGet {
    /// Whether the clock has reached the transfer's deadline, so that
    /// [`PendingGet::wait`] returns without waiting — true of an unwaited
    /// transfer too, on either kind of clock.
    pub fn is_ready(&self) -> bool {
        self.clock.now_nanos() >= self.deadline
    }

    /// Block until the simulated transfer completes, then hand back the
    /// bytes (a shared handle, not a copy).
    pub fn wait(&self) -> Bytes {
        self.clock.advance_to(self.deadline);
        self.bytes.clone()
    }
}

/// Shared handle.
pub type SharedObjectStore = Arc<InMemoryObjectStore>;

/// What one kind of operation reports: its span and the counters
/// `<label>.<op>` and `<label>.<op>.bytes`, resolved once per store.
struct OpCounters {
    span: &'static str,
    calls: Arc<Counter>,
    bytes: Arc<Counter>,
}

impl OpCounters {
    fn resolve(metrics: &MetricsRegistry, label: &str, op: &str, span: &'static str) -> Self {
        Self {
            span,
            calls: metrics.counter(&format!("{label}.{op}")),
            bytes: metrics.counter(&format!("{label}.{op}.bytes")),
        }
    }
}

/// In-memory blob map with injected latency (S3-alike: whole-object
/// put/get).
pub struct InMemoryObjectStore {
    blobs: RwLock<BTreeMap<String, Bytes>>,
    clock: SharedClock,
    model: LatencyModel,
    /// Metric name prefix, e.g. `"remote"` → counters `remote.get`, …
    label: String,
    gets: OpCounters,
    puts: OpCounters,
    deletes: OpCounters,
}

impl InMemoryObjectStore {
    /// A store charging `model` against `clock` per operation.
    pub fn new(clock: SharedClock, model: LatencyModel, metrics: MetricsRegistry, label: &str) -> Self {
        Self {
            blobs: RwLock::new(&classes::OBJECTSTORE_BLOBS, BTreeMap::new()),
            clock,
            model,
            label: label.into(),
            gets: OpCounters::resolve(&metrics, label, "get", "store.get"),
            puts: OpCounters::resolve(&metrics, label, "put", "store.put"),
            deletes: OpCounters::resolve(&metrics, label, "delete", "store.delete"),
        }
    }

    /// A zero-latency store for tests.
    pub fn for_tests() -> Arc<Self> {
        Arc::new(Self::new(
            bh_common::VirtualClock::shared(),
            LatencyModel::ZERO,
            MetricsRegistry::new(),
            "test-store",
        ))
    }

    /// Emit the span + counters for `op` and hand back the transfer's
    /// deadline on the clock.
    fn charge_begin(&self, op: &OpCounters, bytes: usize) -> u64 {
        let mut span = QueryCtx::span(op.span);
        span.attr("store", self.label.as_str());
        span.attr("bytes", bytes);
        span.attr("sim_nanos", self.model.cost(bytes).as_nanos() as u64);
        op.calls.inc();
        op.bytes.add(bytes as u64);
        self.model.deadline(self.clock.as_ref(), bytes)
    }

    /// Wait until the store's clock reaches `deadline`, the arrival of a
    /// transfer begun by [`Self::put_begin`] (no wait once it has arrived).
    pub fn wait(&self, deadline: u64) {
        self.clock.advance_to(deadline);
    }

    /// Store a blob under `key`, replacing any previous value.
    pub fn put(&self, key: &str, data: Bytes) -> Result<()> {
        self.wait(self.put_begin(key, data));
        Ok(())
    }

    /// Begin uploading `data` to `key`: the blob is stored at once and the
    /// call returns its transfer's deadline, so puts begun together overlap
    /// (they cost `max`, not `sum`) once [`Self::wait`]ed out.
    pub fn put_begin(&self, key: &str, data: Bytes) -> u64 {
        let deadline = self.charge_begin(&self.puts, data.len());
        self.blobs.write().insert(key.to_string(), data);
        deadline
    }

    /// Fetch the blob at `key`.
    pub fn get(&self, key: &str) -> Result<Bytes> {
        Ok(self.get_begin(key)?.wait())
    }

    /// Begin fetching `key`: returns at once with the transfer's deadline,
    /// so gets begun together overlap (they cost `max`, not `sum`).
    pub fn get_begin(&self, key: &str) -> Result<PendingGet> {
        let blob = self
            .blobs
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| BhError::Storage(format!("blob not found: {key}")))?;
        let deadline = self.charge_begin(&self.gets, blob.len());
        Ok(PendingGet { bytes: blob, clock: self.clock.clone(), deadline })
    }

    /// Remove the blob at `key` (idempotent).
    pub fn delete(&self, key: &str) -> Result<()> {
        self.wait(self.charge_begin(&self.deletes, 0));
        self.blobs.write().remove(key);
        Ok(())
    }

    /// Keys with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.blobs.read().keys().filter(|k| k.starts_with(prefix)).cloned().collect()
    }

    /// Sum of stored blob sizes.
    pub fn total_bytes(&self) -> u64 {
        self.blobs.read().values().map(|b| b.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_common::VirtualClock;
    use std::time::Duration;

    #[test]
    fn memory_store_roundtrip() {
        let s = InMemoryObjectStore::for_tests();
        assert!(s.get("a").is_err());
        s.put("a", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(s.get("a").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(s.total_bytes(), 5);
        s.delete("a").unwrap();
        assert!(s.get("a").is_err());
    }

    #[test]
    fn memory_store_list_by_prefix() {
        let s = InMemoryObjectStore::for_tests();
        s.put("seg-1/col-a", Bytes::new()).unwrap();
        s.put("seg-1/col-b", Bytes::new()).unwrap();
        s.put("seg-2/col-a", Bytes::new()).unwrap();
        assert_eq!(s.list("seg-1/").len(), 2);
        assert_eq!(s.list("seg-").len(), 3);
        assert!(s.list("zzz").is_empty());
    }

    #[test]
    fn latency_is_charged_per_byte() {
        let clock = VirtualClock::shared();
        let model = LatencyModel::new(Duration::from_micros(100), Duration::from_nanos(10));
        let m = MetricsRegistry::new();
        let s = InMemoryObjectStore::new(clock.clone(), model, m.clone(), "remote");
        s.put("k", Bytes::from(vec![0u8; 1000])).unwrap();
        // 100µs base + 10ns * 1000 = 110µs
        assert_eq!(clock.now_nanos(), 110_000);
        s.get("k").unwrap();
        assert_eq!(clock.now_nanos(), 220_000);
        assert_eq!(m.counter_value("remote.get"), 1);
        assert_eq!(m.counter_value("remote.put.bytes"), 1000);
    }

    fn store(clock: &SharedClock, model: LatencyModel) -> InMemoryObjectStore {
        InMemoryObjectStore::new(clock.clone(), model, MetricsRegistry::new(), "remote")
    }

    #[test]
    fn deferred_gets_overlap() {
        let clock = VirtualClock::shared();
        let model = LatencyModel::new(Duration::from_micros(100), Duration::from_nanos(10));
        let s = store(&clock, model);
        s.put("a", Bytes::from(vec![0u8; 1000])).unwrap(); // 110µs (put waits)
        s.put("b", Bytes::from(vec![0u8; 2000])).unwrap(); // +120µs
        assert_eq!(clock.now_nanos(), 230_000);
        // Two gets begun before either waits: transfers overlap, so the
        // clock advances by max(110, 120) = 120µs, not 230µs.
        let pa = s.get_begin("a").unwrap();
        let pb = s.get_begin("b").unwrap();
        let a = pa.wait();
        let b = pb.wait();
        assert_eq!((a.len(), b.len()), (1000, 2000));
        assert_eq!(clock.now_nanos(), 230_000 + 120_000);
    }

    #[test]
    fn puts_begun_together_overlap() {
        let clock = VirtualClock::shared();
        let model = LatencyModel::new(Duration::from_micros(100), Duration::from_nanos(10));
        let s = store(&clock, model);
        let a = s.put_begin("a", Bytes::from(vec![0u8; 1000]));
        let b = s.put_begin("b", Bytes::from(vec![0u8; 2000]));
        // Stored at once, before anyone waits.
        assert_eq!(s.total_bytes(), 3000);
        assert_eq!(clock.now_nanos(), 0);
        s.wait(a.max(b));
        assert_eq!(clock.now_nanos(), 120_000, "max(110, 120) µs, not their sum");
        s.wait(a);
        assert_eq!(clock.now_nanos(), 120_000, "an arrived transfer costs nothing");
    }

    #[test]
    fn two_stores_share_one_clock() {
        let clock = VirtualClock::shared();
        let slow = store(&clock, LatencyModel::fixed(Duration::from_micros(100)));
        let fast = store(&clock, LatencyModel::fixed(Duration::from_micros(60)));
        for s in [&slow, &fast] {
            s.blobs.write().insert("a".into(), Bytes::from_static(b"x"));
        }
        let (a, b) = (slow.get_begin("a").unwrap(), fast.get_begin("a").unwrap());
        a.wait(); // advances the shared clock past b's deadline
        assert!(b.is_ready());
        b.wait(); // arrived: no further advance
        assert_eq!(clock.now_nanos(), 100_000);
    }

    #[test]
    fn abandoned_pending_get_charges_nothing_extra() {
        let clock = VirtualClock::shared();
        let s = store(&clock, LatencyModel::fixed(Duration::from_micros(50)));
        s.put("a", Bytes::from_static(b"x")).unwrap();
        let now = clock.now_nanos();
        let p = s.get_begin("a").unwrap();
        drop(p); // never waited
        assert_eq!(clock.now_nanos(), now);
    }

    /// "Ready" is read off the clock: nobody waits on these transfers, and
    /// they must still ripen.
    #[test]
    fn unwaited_pending_get_is_ready_once_the_clock_reaches_its_deadline() {
        let pending = |clock: &SharedClock| {
            let s = store(clock, LatencyModel::fixed(Duration::from_millis(2)));
            s.blobs.write().insert("a".into(), Bytes::from_static(b"x"));
            s.get_begin("a").unwrap()
        };
        let virt = VirtualClock::shared();
        let p = pending(&virt);
        assert!(!p.is_ready());
        virt.advance(Duration::from_millis(2));
        assert!(p.is_ready());
        assert_eq!(virt.now_nanos(), 2_000_000, "asking is free");

        let p = pending(&bh_common::RealClock::shared());
        assert!(!p.is_ready());
        std::thread::sleep(Duration::from_millis(3));
        assert!(p.is_ready());
    }
}
