//! Simulated disaggregated storage.
//!
//! All segment column blobs, index blobs and metadata live in an
//! [`ObjectStore`]. Two implementations:
//!
//! * [`InMemoryObjectStore`] — a latency-charging in-memory blob map. With a
//!   remote-profile [`LatencyModel`] it *is* the paper's "remote distributed
//!   storage system"; with the zero model it doubles as a fast test store.
//! * [`DiskObjectStore`] — real files under a root directory, used as the
//!   local-disk cache tier and for persistence tests.
//!
//! Every get/put charges `model.cost(blob_len)` against the store's clock and
//! bumps metrics counters, so experiments can observe both simulated time and
//! I/O counts.

use bh_common::{
    BhError, LatencyModel, MetricsRegistry, QueryCtx, Reactor, Result, SharedClock, Ticket,
};
use bytes::Bytes;
use bh_common::sync::{classes, RwLock};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// An in-flight `get`: the bytes are already in hand (the simulation reads
/// eagerly) but the simulated transfer time may still be outstanding on a
/// [`Reactor`]. Call [`PendingGet::wait`] to settle the time and take the
/// bytes; dropping without waiting forgets the ticket (an abandoned prefetch
/// costs nothing extra — the reactor reclaims the slot when the deadline
/// passes).
#[derive(Debug)]
pub struct PendingGet {
    bytes: Bytes,
    ticket: Option<(Arc<Reactor>, Ticket)>,
}

impl PendingGet {
    /// A get whose transfer time was already charged synchronously.
    pub fn ready(bytes: Bytes) -> Self {
        Self { bytes, ticket: None }
    }

    /// A get whose transfer completes at a reactor deadline.
    pub fn deferred(bytes: Bytes, reactor: Arc<Reactor>, ticket: Ticket) -> Self {
        Self { bytes, ticket: Some((reactor, ticket)) }
    }

    /// Whether the clock has reached the transfer's deadline, so that
    /// [`PendingGet::wait`] returns without waiting — true of an unwaited
    /// transfer too, on either kind of clock.
    pub fn is_ready(&self) -> bool {
        match &self.ticket {
            None => true,
            Some((r, t)) => r.is_complete(*t),
        }
    }

    /// Number of bytes this get will deliver.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the blob is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Block until the simulated transfer completes, then take the bytes.
    pub fn wait(mut self) -> Bytes {
        if let Some((r, t)) = self.ticket.take() {
            r.wait(t);
        }
        std::mem::take(&mut self.bytes)
    }
}

impl Drop for PendingGet {
    fn drop(&mut self) {
        if let Some((r, t)) = self.ticket.take() {
            r.forget(t);
        }
    }
}

/// Blob store interface (S3-alike: whole-object put/get).
pub trait ObjectStore: Send + Sync {
    /// Store a blob under `key`, replacing any previous value.
    fn put(&self, key: &str, data: Bytes) -> Result<()>;
    /// Fetch the blob at `key`.
    fn get(&self, key: &str) -> Result<Bytes>;
    /// Remove the blob at `key` (idempotent).
    fn delete(&self, key: &str) -> Result<()>;
    /// Does a blob exist at `key`? (No latency charge.)
    fn exists(&self, key: &str) -> bool;
    /// Keys with the given prefix, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;
    /// Sum of stored blob sizes.
    fn total_bytes(&self) -> u64;

    /// Begin fetching `key` without blocking on the simulated transfer.
    /// Stores without a reactor charge synchronously and return a ready get;
    /// reactor-backed stores return a deferred get whose transfers overlap
    /// with other in-flight operations.
    fn get_begin(&self, key: &str) -> Result<PendingGet> {
        Ok(PendingGet::ready(self.get(key)?))
    }
}

/// Shared handle.
pub type SharedObjectStore = Arc<dyn ObjectStore>;

/// In-memory blob map with injected latency.
pub struct InMemoryObjectStore {
    blobs: RwLock<BTreeMap<String, Bytes>>,
    clock: SharedClock,
    model: LatencyModel,
    metrics: MetricsRegistry,
    /// Metric name prefix, e.g. `"remote"` → counters `remote.get`, …
    label: String,
    /// When set, transfer time is deferred through the reactor so concurrent
    /// gets overlap instead of serializing. `Database` always sets it; the
    /// `None` arm (every `get_begin` pays its transfer before it returns) is
    /// the blocking reference the overlap tests and the `cold_scan` bench
    /// compare against.
    reactor: Option<Arc<Reactor>>,
}

impl InMemoryObjectStore {
    /// A store charging `model` against `clock` per operation.
    pub fn new(clock: SharedClock, model: LatencyModel, metrics: MetricsRegistry, label: &str) -> Self {
        Self {
            blobs: RwLock::new(&classes::OBJECTSTORE_BLOBS, BTreeMap::new()),
            clock,
            model,
            metrics,
            label: label.into(),
            reactor: None,
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

    /// Route transfer-time charges through `reactor` (which must share this
    /// store's clock) so simultaneous transfers cost `max`, not `sum`.
    pub fn with_reactor(mut self, reactor: Arc<Reactor>) -> Self {
        self.reactor = Some(reactor);
        self
    }

    /// Emit the span + counters for `op` and either charge synchronously
    /// (no reactor) or submit the cost and hand back the ticket.
    fn charge_begin(&self, op: &str, bytes: usize) -> Option<(Arc<Reactor>, Ticket)> {
        let mut span = QueryCtx::span(store_span_name(op));
        span.attr("store", self.label.as_str());
        span.attr("bytes", bytes);
        span.attr("sim_nanos", self.model.cost(bytes).as_nanos() as u64);
        self.metrics.counter(&format!("{}.{op}", self.label)).inc();
        self.metrics.counter(&format!("{}.{op}.bytes", self.label)).add(bytes as u64);
        match &self.reactor {
            Some(r) => Some((Arc::clone(r), r.submit_transfer(&self.model, bytes))),
            None => {
                self.model.charge(self.clock.as_ref(), bytes);
                None
            }
        }
    }

    fn charge(&self, op: &str, bytes: usize) {
        if let Some((r, t)) = self.charge_begin(op, bytes) {
            r.wait(t);
        }
    }
}

/// Span names need `&'static str`; map the operation verb once here so both
/// store implementations report the same taxonomy.
fn store_span_name(op: &str) -> &'static str {
    match op {
        "get" => "store.get",
        "put" => "store.put",
        _ => "store.delete",
    }
}

impl ObjectStore for InMemoryObjectStore {
    fn put(&self, key: &str, data: Bytes) -> Result<()> {
        self.charge("put", data.len());
        self.blobs.write().insert(key.to_string(), data);
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        Ok(self.get_begin(key)?.wait())
    }

    fn get_begin(&self, key: &str) -> Result<PendingGet> {
        let blob = self
            .blobs
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| BhError::Storage(format!("blob not found: {key}")))?;
        Ok(match self.charge_begin("get", blob.len()) {
            Some((r, t)) => PendingGet::deferred(blob, r, t),
            None => PendingGet::ready(blob),
        })
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.charge("delete", 0);
        self.blobs.write().remove(key);
        Ok(())
    }

    fn exists(&self, key: &str) -> bool {
        self.blobs.read().contains_key(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.blobs.read().keys().filter(|k| k.starts_with(prefix)).cloned().collect()
    }

    fn total_bytes(&self) -> u64 {
        self.blobs.read().values().map(|b| b.len() as u64).sum()
    }
}

/// File-backed store (local disk tier). Keys map to files under `root`;
/// `/` in keys becomes a subdirectory.
pub struct DiskObjectStore {
    root: PathBuf,
    clock: SharedClock,
    model: LatencyModel,
    metrics: MetricsRegistry,
    label: String,
}

impl DiskObjectStore {
    /// A file-backed store rooted at `root`.
    pub fn new(
        root: impl Into<PathBuf>,
        clock: SharedClock,
        model: LatencyModel,
        metrics: MetricsRegistry,
        label: &str,
    ) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root, clock, model, metrics, label: label.into() })
    }

    fn path_of(&self, key: &str) -> Result<PathBuf> {
        if key.contains("..") || key.starts_with('/') {
            return Err(BhError::InvalidArgument(format!("unsafe blob key: {key}")));
        }
        Ok(self.root.join(key))
    }

    fn charge(&self, op: &str, bytes: usize) {
        let mut span = QueryCtx::span(store_span_name(op));
        span.attr("store", self.label.as_str());
        span.attr("bytes", bytes);
        span.attr("sim_nanos", self.model.cost(bytes).as_nanos() as u64);
        self.model.charge(self.clock.as_ref(), bytes);
        self.metrics.counter(&format!("{}.{op}", self.label)).inc();
        self.metrics.counter(&format!("{}.{op}.bytes", self.label)).add(bytes as u64);
    }
}

impl ObjectStore for DiskObjectStore {
    fn put(&self, key: &str, data: Bytes) -> Result<()> {
        let path = self.path_of(key)?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        self.charge("put", data.len());
        // Write-then-rename for atomicity.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &data)?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        let path = self.path_of(key)?;
        let data = std::fs::read(&path)
            .map_err(|e| BhError::Storage(format!("blob not found: {key} ({e})")))?;
        self.charge("get", data.len());
        Ok(Bytes::from(data))
    }

    fn delete(&self, key: &str) -> Result<()> {
        let path = self.path_of(key)?;
        self.charge("delete", 0);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn exists(&self, key: &str) -> bool {
        self.path_of(key).map(|p| p.exists()).unwrap_or(false)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        fn walk(dir: &std::path::Path, root: &std::path::Path, out: &mut Vec<String>) {
            let Ok(entries) = std::fs::read_dir(dir) else { return };
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, root, out);
                } else if p.extension().map(|x| x != "tmp").unwrap_or(true) {
                    if let Ok(rel) = p.strip_prefix(root) {
                        out.push(rel.to_string_lossy().replace('\\', "/"));
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &self.root, &mut out);
        out.retain(|k| k.starts_with(prefix));
        out.sort();
        out
    }

    fn total_bytes(&self) -> u64 {
        self.list("")
            .iter()
            .filter_map(|k| self.path_of(k).ok())
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
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
        assert!(!s.exists("a"));
        s.put("a", Bytes::from_static(b"hello")).unwrap();
        assert!(s.exists("a"));
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

    #[test]
    fn reactor_backed_gets_overlap() {
        let clock = VirtualClock::shared();
        let model = LatencyModel::new(Duration::from_micros(100), Duration::from_nanos(10));
        let reactor = Reactor::shared(clock.clone());
        let s = InMemoryObjectStore::new(clock.clone(), LatencyModel::ZERO, MetricsRegistry::new(), "remote");
        let s = InMemoryObjectStore { model, ..s }.with_reactor(reactor);
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
    fn abandoned_pending_get_charges_nothing_extra() {
        let clock = VirtualClock::shared();
        let model = LatencyModel::fixed(Duration::from_micros(50));
        let reactor = Reactor::shared(clock.clone());
        let s = InMemoryObjectStore::new(clock.clone(), LatencyModel::ZERO, MetricsRegistry::new(), "remote");
        let s = InMemoryObjectStore { model, ..s }.with_reactor(reactor);
        s.put("a", Bytes::from_static(b"x")).unwrap();
        let now = clock.now_nanos();
        let p = s.get_begin("a").unwrap();
        drop(p); // forgotten, never waited
        assert_eq!(clock.now_nanos(), now);
    }

    /// "Ready" is read off the clock: nobody waits on these transfers, so no
    /// reactor driver ever runs, and they must still ripen.
    #[test]
    fn unwaited_pending_get_is_ready_once_the_clock_reaches_its_deadline() {
        let store = |clock: SharedClock, reactor: bool| {
            let s = InMemoryObjectStore::new(
                clock.clone(),
                LatencyModel::fixed(Duration::from_millis(2)),
                MetricsRegistry::new(),
                "remote",
            );
            let s = if reactor { s.with_reactor(Reactor::shared(clock)) } else { s };
            s.blobs.write().insert("a".into(), Bytes::from_static(b"x"));
            s
        };
        let virt = VirtualClock::shared();
        let p = store(virt.clone(), true).get_begin("a").unwrap();
        assert!(!p.is_ready());
        virt.advance(Duration::from_millis(2));
        assert!(p.is_ready());
        assert_eq!(virt.now_nanos(), 2_000_000, "asking is free");

        let real = bh_common::RealClock::shared();
        let p = store(real.clone(), true).get_begin("a").unwrap();
        assert!(!p.is_ready());
        std::thread::sleep(Duration::from_millis(3));
        assert!(p.is_ready());

        // A store that cannot defer has paid the transfer before it returns.
        let t0 = virt.now_nanos();
        assert!(store(virt.clone(), false).get_begin("a").unwrap().is_ready());
        assert_eq!(virt.now_nanos() - t0, 2_000_000);
    }

    #[test]
    fn disk_store_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let s = DiskObjectStore::new(
            dir.path(),
            VirtualClock::shared(),
            LatencyModel::ZERO,
            MetricsRegistry::new(),
            "disk",
        )
        .unwrap();
        s.put("seg-1/index", Bytes::from_static(b"blob")).unwrap();
        assert!(s.exists("seg-1/index"));
        assert_eq!(s.get("seg-1/index").unwrap(), Bytes::from_static(b"blob"));
        assert_eq!(s.list("seg-1/"), vec!["seg-1/index".to_string()]);
        assert_eq!(s.total_bytes(), 4);
        s.delete("seg-1/index").unwrap();
        assert!(!s.exists("seg-1/index"));
        // Deleting a missing key is fine.
        s.delete("seg-1/index").unwrap();
    }

    #[test]
    fn disk_store_rejects_traversal() {
        let dir = tempfile::tempdir().unwrap();
        let s = DiskObjectStore::new(
            dir.path(),
            VirtualClock::shared(),
            LatencyModel::ZERO,
            MetricsRegistry::new(),
            "disk",
        )
        .unwrap();
        assert!(s.put("../evil", Bytes::new()).is_err());
        assert!(s.get("/abs").is_err());
    }

    #[test]
    fn disk_store_overwrite() {
        let dir = tempfile::tempdir().unwrap();
        let s = DiskObjectStore::new(
            dir.path(),
            VirtualClock::shared(),
            LatencyModel::ZERO,
            MetricsRegistry::new(),
            "disk",
        )
        .unwrap();
        s.put("k", Bytes::from_static(b"one")).unwrap();
        s.put("k", Bytes::from_static(b"two")).unwrap();
        assert_eq!(s.get("k").unwrap(), Bytes::from_static(b"two"));
    }
}
