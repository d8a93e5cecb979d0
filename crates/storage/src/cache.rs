//! Hierarchical caches (§II-D, §IV-C).
//!
//! * [`IndexCache`] — the vector-index cache every worker owns: in-memory LRU
//!   (fastest) → local-disk blob cache (avoids repeated remote reads) →
//!   remote shared store (source of truth). Each tier's hit/miss counters are
//!   exported through the metrics registry, which is what the cache-miss and
//!   elasticity experiments observe.
//! * [`BlockCache`] — the adaptive in-memory column-block cache with the
//!   paper's two refinements: **separate LRU spaces** for small metadata
//!   entries vs large data blocks (so scans don't evict hot metadata), and a
//!   **row-limit bypass** so one huge hybrid query can't thrash the cache.
//!
//! All cache counters follow the `cache.<space>.<event>` naming convention
//! (DESIGN.md §9): `cache.{meta,data}.{hit,miss}` for the block cache,
//! `cache.index.{mem,disk}.{hit,miss}` for the index-cache tiers. Every
//! `.hit` / `.miss` bump goes through `bh_common::qctx::cache_{hit,miss}`,
//! which also tallies it on the statement the thread is working for.

use crate::lru::LruCache;
use crate::objectstore::{ObjectStore, PendingGet};
use crate::segment::SegmentMeta;
use bh_common::metrics::Counter;
use bh_common::{qctx, MetricsRegistry, QueryCtx, Result, SegmentId};
use bh_vector::{IndexKind, IndexRegistry, VectorIndex};
use bytes::Bytes;
use bh_common::sync::{classes, Condvar, Mutex};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Per-worker hierarchical vector-index cache.
pub struct IndexCache {
    mem: LruCache<SegmentId, Arc<dyn VectorIndex>>,
    /// Local disk tier; `None` disables it (memory → remote directly).
    disk: Option<Arc<dyn ObjectStore>>,
    remote: Arc<dyn ObjectStore>,
    registry: Arc<IndexRegistry>,
    metrics: MetricsRegistry,
    /// `cache.index.mem.{hit,miss}`, resolved once: every warm segment
    /// search bumps one of them.
    mem_hit: Arc<Counter>,
    mem_miss: Arc<Counter>,
    /// Segments whose blob fetch is currently in flight (single-flight
    /// dedup): one caller fetches, the rest wait on `inflight_cv` and then
    /// re-check the memory tier.
    inflight: Mutex<HashSet<SegmentId>>,
    inflight_cv: Condvar,
    /// In-flight prefetched blobs, consumed by the next [`IndexCache::get`].
    /// Never promoted to `mem` by themselves — `resident` stays false until
    /// someone actually asks for the index. The single owner of the
    /// "transfer in flight" fact: read it through [`IndexCache::in_flight`]
    /// and [`IndexCache::awaits_transfer`].
    pending: Mutex<HashMap<SegmentId, PendingGet>>,
}

impl IndexCache {
    /// A cache with the given memory capacity over the given tiers.
    pub fn new(
        mem_capacity_bytes: usize,
        disk: Option<Arc<dyn ObjectStore>>,
        remote: Arc<dyn ObjectStore>,
        registry: Arc<IndexRegistry>,
        metrics: MetricsRegistry,
    ) -> Self {
        Self {
            mem: LruCache::new(mem_capacity_bytes),
            disk,
            remote,
            registry,
            mem_hit: metrics.counter("cache.index.mem.hit"),
            mem_miss: metrics.counter("cache.index.mem.miss"),
            metrics,
            inflight: Mutex::new(&classes::IDXCACHE_INFLIGHT, HashSet::new()),
            inflight_cv: Condvar::new(),
            pending: Mutex::new(&classes::IDXCACHE_PENDING, HashMap::new()),
        }
    }

    /// Is the index resident in memory right now? (Used by the scheduler's
    /// cache-aware paths and by the cache-miss experiment.)
    pub fn resident(&self, seg: SegmentId) -> bool {
        self.mem.contains(&seg)
    }

    /// Fetch the index for a segment through the hierarchy, promoting on the
    /// way up. Returns `None` if the segment has no index.
    ///
    /// Concurrent gets for the same cold segment are deduplicated: one
    /// caller performs the fetch, the others park on a condvar and read the
    /// promoted index from memory (`cache.index.singleflight.wait` counts
    /// the parked callers).
    pub fn get(&self, meta: &SegmentMeta) -> Result<Option<Arc<dyn VectorIndex>>> {
        let Some(kind) = meta.index_kind else { return Ok(None) };
        let mut span = QueryCtx::span("cache.index.get");
        span.attr("segment", meta.id.raw());
        loop {
            if let Some(idx) = self.mem.get(&meta.id) {
                qctx::cache_hit(&self.mem_hit);
                span.attr("tier", "mem");
                return Ok(Some(idx));
            }
            qctx::cache_miss(&self.mem_miss);
            let mut g = self.inflight.lock_checked()?;
            if g.insert(meta.id) {
                break; // we own the fetch
            }
            // Another caller is already fetching this segment: wait for it
            // to finish, then re-check the memory tier.
            self.metrics.counter("cache.index.singleflight.wait").inc();
            self.inflight_cv.wait(&mut g);
        }
        let result = self.fetch_and_promote(meta, kind, &mut span);
        let mut g = self.inflight.lock_checked()?;
        g.remove(&meta.id);
        drop(g);
        self.inflight_cv.notify_all();
        result
    }

    /// The cold path of [`IndexCache::get`]: pull the blob through
    /// prefetch → disk → remote, deserialize, promote to memory.
    fn fetch_and_promote(
        &self,
        meta: &SegmentMeta,
        kind: IndexKind,
        span: &mut bh_common::Span,
    ) -> Result<Option<Arc<dyn VectorIndex>>> {
        let key = meta.index_key();
        let pending = self.pending.lock_checked()?.remove(&meta.id);
        let blob: Bytes = match pending {
            Some(p) => {
                qctx::cache_hit(&self.metrics.counter("cache.index.prefetch.hit"));
                span.attr("tier", "prefetch");
                let blob = p.wait();
                if let Some(disk) = &self.disk {
                    disk.put(&key, blob.clone())?;
                }
                blob
            }
            None => match &self.disk {
                Some(disk) if disk.exists(&key) => {
                    qctx::cache_hit(&self.metrics.counter("cache.index.disk.hit"));
                    span.attr("tier", "disk");
                    disk.get(&key)?
                }
                _ => {
                    if self.disk.is_some() {
                        qctx::cache_miss(&self.metrics.counter("cache.index.disk.miss"));
                    }
                    let blob = self.remote.get(&key)?;
                    self.metrics.counter("cache.index.remote.fetch").inc();
                    span.attr("tier", "remote");
                    if let Some(disk) = &self.disk {
                        disk.put(&key, blob.clone())?;
                    }
                    blob
                }
            },
        };
        let idx = self.registry.load_blob(kind, &blob)?;
        self.mem.put(meta.id, idx.clone(), idx.memory_usage());
        Ok(Some(idx))
    }

    /// Begin fetching a segment's index blob, so a later [`IndexCache::get`]
    /// finds the transfer already in flight and its latency overlaps with
    /// intervening work. A reactor-backed store submits and returns; a store
    /// that cannot defer pays the whole transfer here, and the blob is
    /// pending all the same. Never mutates the memory tier — `resident`
    /// reports false until the blob is consumed by a real `get`.
    ///
    /// Returns whether a new transfer was started.
    pub fn prefetch(&self, meta: &SegmentMeta) -> Result<bool> {
        // Probed in the order a blob moves (pending, being loaded by a `get`,
        // resident), so a load that advances meanwhile is still seen.
        if meta.index_kind.is_none()
            || self.in_flight(meta.id)
            || self.inflight.lock_checked()?.contains(&meta.id)
            || self.mem.contains(&meta.id)
        {
            return Ok(false);
        }
        let key = meta.index_key();
        if let Some(disk) = &self.disk {
            if disk.exists(&key) {
                return Ok(false); // cheap local read; nothing to overlap
            }
        }
        // Started outside the `pending` lock: a store that cannot defer
        // sleeps its transfer in `get_begin`, and `in_flight` probes of other
        // segments must not queue behind it.
        let p = self.remote.get_begin(&key)?;
        match self.pending.lock_checked()?.entry(meta.id) {
            // Lost a race: dropping `p` forgets the duplicate's ticket.
            Entry::Occupied(_) => Ok(false),
            Entry::Vacant(slot) => {
                slot.insert(p);
                self.metrics.counter("cache.index.prefetch").inc();
                Ok(true)
            }
        }
    }

    /// Is a prefetched transfer for this segment pending, i.e. would the
    /// next [`IndexCache::get`] consume it instead of starting a fetch?
    pub fn in_flight(&self, seg: SegmentId) -> bool {
        self.pending.lock().contains_key(&seg)
    }

    /// Would the next [`IndexCache::get`] have to wait for this segment: is
    /// a transfer pending whose deadline the clock has not reached?
    pub fn awaits_transfer(&self, seg: SegmentId) -> bool {
        self.pending.lock().get(&seg).is_some_and(|p| !p.is_ready())
    }

    /// Drop an unconsumed prefetch: the blob bytes are released and the
    /// reactor ticket forgotten. Returns whether one was pending.
    pub fn cancel_prefetch(&self, seg: SegmentId) -> bool {
        self.pending.lock().remove(&seg).is_some()
    }

    /// Kept only because the frozen `benchmark/` compiles against it
    /// (ROADMAP "Re-anchor the evidence"): the resident index, or `None`.
    pub fn get_head(&self, meta: &SegmentMeta) -> Result<Option<Arc<dyn VectorIndex>>> {
        Ok(self.mem.get(&meta.id))
    }

    /// Cache-aware preload (§II-D): pull the given segments' indexes into
    /// memory (and local disk) ahead of queries. Errors on individual
    /// segments are returned; successfully preloaded count is the payload.
    pub fn preload<'a>(&self, metas: impl IntoIterator<Item = &'a SegmentMeta>) -> Result<usize> {
        let mut n = 0;
        for meta in metas {
            if self.get(meta)?.is_some() {
                n += 1;
                self.metrics.counter("cache.index.preload").inc();
            }
        }
        Ok(n)
    }

    /// Drop a segment from memory and disk tiers (e.g. after compaction).
    pub fn invalidate(&self, meta: &SegmentMeta) {
        self.mem.remove(&meta.id);
        self.cancel_prefetch(meta.id);
        if let Some(disk) = &self.disk {
            let _ = disk.delete(&meta.index_key());
        }
    }

    /// Drop everything from the memory tier (simulates worker restart).
    pub fn clear_memory(&self) {
        self.mem.clear();
        self.pending.lock().clear();
    }

    /// Bytes of index currently resident in memory.
    pub fn memory_used(&self) -> usize {
        self.mem.used_bytes()
    }

    /// Configured memory-tier capacity in bytes.
    pub fn memory_capacity(&self) -> usize {
        self.mem.capacity()
    }

    /// `(hits, misses, evictions)` of the memory tier (the LRU's own
    /// counters, not the `cache.index.*` registry counters).
    pub fn memory_stats(&self) -> (u64, u64, u64) {
        self.mem.stats()
    }

    /// Number of resident full indexes in the memory tier.
    pub fn resident_count(&self) -> usize {
        self.mem.len()
    }
}

/// Cached block entry classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Small, hot entries (segment metadata, sparse index pages).
    Meta,
    /// Column data blocks.
    Data,
}

/// Adaptive column-block cache with split metadata/data spaces.
pub struct BlockCache {
    meta_space: LruCache<String, Bytes>,
    data_space: LruCache<String, Bytes>,
    /// Queries reading more than this many rows bypass the data space
    /// entirely (anti-thrashing row limit, §IV-C).
    row_limit: usize,
    metrics: MetricsRegistry,
}

impl BlockCache {
    /// A cache with separate metadata/data capacities and a row limit.
    pub fn new(
        meta_capacity: usize,
        data_capacity: usize,
        row_limit: usize,
        metrics: MetricsRegistry,
    ) -> Self {
        Self {
            meta_space: LruCache::new(meta_capacity),
            data_space: LruCache::new(data_capacity),
            row_limit,
            metrics,
        }
    }

    /// The anti-thrashing row limit.
    pub fn row_limit(&self) -> usize {
        self.row_limit
    }

    fn space(&self, kind: BlockKind) -> &LruCache<String, Bytes> {
        match kind {
            BlockKind::Meta => &self.meta_space,
            BlockKind::Data => &self.data_space,
        }
    }

    /// Fetch a blob through the cache. `query_rows` is the number of rows the
    /// surrounding query will touch: when it exceeds the row limit the data
    /// space is bypassed (read-through, no insert) so bulk scans cannot evict
    /// the working set. Metadata reads always cache.
    pub fn get_or_fetch(
        &self,
        key: &str,
        kind: BlockKind,
        query_rows: usize,
        fetch: impl FnOnce() -> Result<Bytes>,
    ) -> Result<Bytes> {
        let (label, space_name) = match kind {
            BlockKind::Meta => ("cache.meta", "meta"),
            BlockKind::Data => ("cache.data", "data"),
        };
        let mut span = QueryCtx::span("cache.block.get");
        span.attr("space", space_name);
        let bypass = kind == BlockKind::Data && query_rows > self.row_limit;
        if !bypass {
            if let Some(b) = self.space(kind).get(&key.to_string()) {
                qctx::cache_hit(&self.metrics.counter(&format!("{label}.hit")));
                span.attr("hit", true);
                return Ok(b);
            }
            qctx::cache_miss(&self.metrics.counter(&format!("{label}.miss")));
            span.attr("hit", false);
        } else {
            self.metrics.counter("cache.data.bypass").inc();
            span.attr("bypass", true);
        }
        let blob = fetch()?;
        if !bypass {
            self.space(kind).put(key.to_string(), blob.clone(), blob.len().max(1));
        }
        Ok(blob)
    }

    /// Bytes cached in the data space.
    pub fn data_used(&self) -> usize {
        self.data_space.used_bytes()
    }

    /// Bytes cached in the metadata space.
    pub fn meta_used(&self) -> usize {
        self.meta_space.used_bytes()
    }

    /// Per-space `(name, used, capacity, entries, hits, misses, evictions)`
    /// rows for the `system.caches` table.
    pub fn space_stats(&self) -> Vec<(&'static str, usize, usize, usize, u64, u64, u64)> {
        [("block.meta", &self.meta_space), ("block.data", &self.data_space)]
            .into_iter()
            .map(|(name, space)| {
                let (hits, misses, evictions) = space.stats();
                (name, space.used_bytes(), space.capacity(), space.len(), hits, misses, evictions)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectstore::InMemoryObjectStore;
    use crate::schema::TableSchema;
    use crate::segment::Segment;
    use crate::value::{ColumnType, Value};
    use bh_common::{BhError, LatencyModel, SegmentId, VirtualClock};
    use bh_vector::{IndexKind, IndexSpec, Metric, SearchParams};
    use std::time::Duration;

    fn build_indexed_segment(
        store: &dyn ObjectStore,
        registry: &IndexRegistry,
        id: u64,
        n: usize,
    ) -> SegmentMeta {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("emb", ColumnType::Vector(4))
            .with_vector_index("i", "emb", IndexKind::Flat, 4, Metric::L2);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::UInt64(i as u64), Value::Vector(vec![i as f32; 4])])
            .collect();
        let mut seg = Segment::from_rows(&schema, SegmentId(id), rows, vec![], None, 0).unwrap();
        // Build + persist the index.
        let spec = IndexSpec::new(IndexKind::Flat, 4, Metric::L2);
        let mut b = registry.create_builder(&spec).unwrap();
        let (data, _) = seg.columns["emb"].vector_data().unwrap();
        let ids: Vec<u64> = (0..n as u64).collect();
        b.add_with_ids(data, &ids).unwrap();
        let idx = b.finish().unwrap();
        let blob = idx.save_bytes().unwrap();
        seg.meta.index_kind = Some(IndexKind::Flat);
        seg.meta.index_bytes = blob.len() as u64;
        store.put(&seg.meta.index_key(), blob).unwrap();
        seg.persist(store).unwrap();
        seg.meta
    }

    #[test]
    fn hierarchy_promotes_and_hits() {
        let clock = VirtualClock::shared();
        let metrics = MetricsRegistry::new();
        let remote = Arc::new(InMemoryObjectStore::new(
            clock.clone(),
            LatencyModel::fixed(Duration::from_micros(1000)),
            metrics.clone(),
            "remote",
        ));
        let disk = Arc::new(InMemoryObjectStore::new(
            clock.clone(),
            LatencyModel::fixed(Duration::from_micros(10)),
            metrics.clone(),
            "disk",
        ));
        let registry = Arc::new(IndexRegistry::with_builtins());
        let meta = build_indexed_segment(remote.as_ref(), &registry, 1, 50);

        let cache = IndexCache::new(
            1 << 20,
            Some(disk.clone() as Arc<dyn ObjectStore>),
            remote.clone() as Arc<dyn ObjectStore>,
            registry,
            metrics.clone(),
        );
        assert!(!cache.resident(meta.id));

        // First get: mem miss, disk miss, remote fetch, promoted everywhere.
        let idx = cache.get(&meta).unwrap().unwrap();
        assert_eq!(idx.meta().len, 50);
        assert_eq!(metrics.counter_value("cache.index.remote.fetch"), 1);
        assert_eq!(metrics.counter_value("cache.index.disk.miss"), 1);
        assert!(cache.resident(meta.id));
        assert!(disk.exists(&meta.index_key()));

        // Second get: memory hit, no new remote traffic.
        cache.get(&meta).unwrap().unwrap();
        assert_eq!(metrics.counter_value("cache.index.mem.hit"), 1);
        assert_eq!(metrics.counter_value("cache.index.remote.fetch"), 1);

        // Clear memory (worker restart): next get hits the disk tier only.
        cache.clear_memory();
        cache.get(&meta).unwrap().unwrap();
        assert_eq!(metrics.counter_value("cache.index.disk.hit"), 1);
        assert_eq!(metrics.counter_value("cache.index.remote.fetch"), 1);
    }

    /// Satellite: lock poisoning must surface as `BhError::LockPoisoned`
    /// on the cache's fallible paths instead of propagating the panic, and
    /// a recovering access heals the lock so the cache serves again.
    #[test]
    fn poisoned_inflight_lock_is_reported_then_healed() {
        let clock = VirtualClock::shared();
        let metrics = MetricsRegistry::new();
        let remote = Arc::new(InMemoryObjectStore::new(
            clock,
            LatencyModel::fixed(Duration::from_micros(1)),
            metrics.clone(),
            "remote",
        ));
        let registry = Arc::new(IndexRegistry::with_builtins());
        let meta = build_indexed_segment(remote.as_ref(), &registry, 3, 10);
        let cache = IndexCache::new(
            1 << 20,
            None,
            remote as Arc<dyn ObjectStore>,
            registry,
            metrics,
        );

        // Poison: a caller dies while holding the single-flight set.
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = cache.inflight.lock();
            panic!("die holding the single-flight lock");
        }));
        assert!(died.is_err());

        // The fallible path reports the poisoned class by name…
        match cache.get(&meta) {
            Err(BhError::LockPoisoned(class)) => assert_eq!(class, "IDXCACHE_INFLIGHT"),
            Ok(_) => panic!("expected LockPoisoned, got Ok"),
            Err(other) => panic!("expected LockPoisoned, got {other}"),
        }
        // …a recovering access heals it, and service resumes.
        drop(cache.inflight.lock());
        let idx = cache.get(&meta).unwrap().unwrap();
        assert_eq!(idx.meta().len, 10);
    }

    #[test]
    fn segment_without_index_returns_none() {
        let remote = InMemoryObjectStore::for_tests();
        let registry = Arc::new(IndexRegistry::with_builtins());
        let schema = TableSchema::new("t").with_column("id", ColumnType::UInt64);
        let seg = Segment::from_rows(
            &schema,
            SegmentId(9),
            vec![vec![Value::UInt64(1)]],
            vec![],
            None,
            0,
        )
        .unwrap();
        let cache = IndexCache::new(
            1 << 20,
            None,
            remote as Arc<dyn ObjectStore>,
            registry,
            MetricsRegistry::new(),
        );
        assert!(cache.get(&seg.meta).unwrap().is_none());
    }

    #[test]
    fn preload_warms_cache_and_invalidate_clears() {
        let remote = InMemoryObjectStore::for_tests();
        let registry = Arc::new(IndexRegistry::with_builtins());
        let m1 = build_indexed_segment(remote.as_ref(), &registry, 1, 20);
        let m2 = build_indexed_segment(remote.as_ref(), &registry, 2, 20);
        let cache = IndexCache::new(
            1 << 20,
            None,
            remote as Arc<dyn ObjectStore>,
            registry,
            MetricsRegistry::new(),
        );
        assert_eq!(cache.preload([&m1, &m2]).unwrap(), 2);
        assert!(cache.resident(m1.id) && cache.resident(m2.id));
        cache.invalidate(&m1);
        assert!(!cache.resident(m1.id));
        assert!(cache.resident(m2.id));
    }

    #[test]
    fn loaded_index_actually_searches() {
        let remote = InMemoryObjectStore::for_tests();
        let registry = Arc::new(IndexRegistry::with_builtins());
        let meta = build_indexed_segment(remote.as_ref(), &registry, 3, 30);
        let cache = IndexCache::new(
            1 << 20,
            None,
            remote as Arc<dyn ObjectStore>,
            registry,
            MetricsRegistry::new(),
        );
        let idx = cache.get(&meta).unwrap().unwrap();
        let got = idx
            .search_with_bound(&[5.0, 5.0, 5.0, 5.0], 1, &SearchParams::default(), None, None)
            .unwrap();
        assert_eq!(got[0].id, 5);
    }

    #[test]
    fn single_flight_dedups_concurrent_gets() {
        use bh_common::RealClock;
        let metrics = MetricsRegistry::new();
        // Real clock so the fetch genuinely takes long enough for the other
        // threads to arrive and park on the single-flight condvar.
        let remote = Arc::new(InMemoryObjectStore::new(
            RealClock::shared(),
            LatencyModel::fixed(Duration::from_millis(60)),
            metrics.clone(),
            "remote",
        ));
        let registry = Arc::new(IndexRegistry::with_builtins());
        let meta = build_indexed_segment(remote.as_ref(), &registry, 1, 40);
        let cache = Arc::new(IndexCache::new(
            1 << 20,
            None,
            remote as Arc<dyn ObjectStore>,
            registry,
            metrics.clone(),
        ));
        std::thread::scope(|s| {
            let leader = {
                let (cache, meta) = (cache.clone(), meta.clone());
                s.spawn(move || cache.get(&meta).unwrap().unwrap())
            };
            // Give the leader a head start into its 60ms fetch.
            std::thread::sleep(Duration::from_millis(15));
            let followers: Vec<_> = (0..3)
                .map(|_| {
                    let (cache, meta) = (cache.clone(), meta.clone());
                    s.spawn(move || cache.get(&meta).unwrap().unwrap())
                })
                .collect();
            leader.join().unwrap();
            for f in followers {
                assert_eq!(f.join().unwrap().meta().len, 40);
            }
        });
        assert_eq!(
            metrics.counter_value("cache.index.remote.fetch"),
            1,
            "one fetch serves every concurrent caller"
        );
        assert!(metrics.counter_value("cache.index.singleflight.wait") >= 3);
        assert_eq!(metrics.counter_value("cache.index.mem.hit"), 3);
    }

    #[test]
    fn prefetch_overlaps_and_get_consumes() {
        let clock = VirtualClock::shared();
        let metrics = MetricsRegistry::new();
        let reactor = Arc::new(bh_common::Reactor::new(clock.clone()));
        let remote = Arc::new(
            InMemoryObjectStore::new(
                clock.clone(),
                LatencyModel::fixed(Duration::from_micros(500)),
                metrics.clone(),
                "remote",
            )
            .with_reactor(reactor.clone()),
        );
        let registry = Arc::new(IndexRegistry::with_builtins());
        let m1 = build_indexed_segment(remote.as_ref(), &registry, 1, 20);
        let m2 = build_indexed_segment(remote.as_ref(), &registry, 2, 20);
        let after_setup = clock.now_nanos();

        let cache = IndexCache::new(
            1 << 20,
            None,
            remote as Arc<dyn ObjectStore>,
            registry,
            metrics.clone(),
        );
        // Submissions start both transfers without advancing the clock and
        // without making anything resident.
        assert!(cache.prefetch(&m1).unwrap());
        assert!(cache.prefetch(&m2).unwrap());
        assert!(!cache.prefetch(&m1).unwrap(), "already in flight");
        assert_eq!(clock.now_nanos(), after_setup);
        assert!(!cache.resident(m1.id) && !cache.resident(m2.id));

        // Both gets consume the in-flight transfers: total simulated time is
        // max(cost, cost) = 500µs, not the 1ms two serial fetches would take.
        cache.get(&m1).unwrap().unwrap();
        cache.get(&m2).unwrap().unwrap();
        assert_eq!(clock.now_nanos() - after_setup, 500_000);
        assert_eq!(metrics.counter_value("cache.index.prefetch"), 2);
        assert_eq!(metrics.counter_value("cache.index.prefetch.hit"), 2);
        assert!(cache.resident(m1.id) && cache.resident(m2.id));
        assert!(!cache.prefetch(&m1).unwrap(), "resident: nothing to fetch");
    }

    /// The batch executor's pin path: a transfer is pending for the segment,
    /// so `get` waits it out and hands back the index.
    #[test]
    fn pending_transfer_is_consumed_by_get_and_released_by_cancel() {
        let clock = VirtualClock::shared();
        let metrics = MetricsRegistry::new();
        let remote = Arc::new(
            InMemoryObjectStore::new(
                clock.clone(),
                LatencyModel::fixed(Duration::from_micros(500)),
                metrics.clone(),
                "remote",
            )
            .with_reactor(Arc::new(bh_common::Reactor::new(clock.clone()))),
        );
        let registry = Arc::new(IndexRegistry::with_builtins());
        let meta = build_indexed_segment(remote.as_ref(), &registry, 8, 600);
        let gets_before = metrics.counter_value("remote.get");
        let t0 = clock.now_nanos();

        let cache = IndexCache::new(
            1 << 24,
            None,
            remote as Arc<dyn ObjectStore>,
            registry,
            metrics.clone(),
        );
        assert!(!cache.in_flight(meta.id));
        assert!(cache.prefetch(&meta).unwrap());
        assert!(cache.in_flight(meta.id) && !cache.resident(meta.id));
        assert!(cache.awaits_transfer(meta.id));

        assert_eq!(cache.get(&meta).unwrap().unwrap().meta().len, 600);
        assert!(cache.resident(meta.id) && !cache.in_flight(meta.id));
        assert_eq!(metrics.counter_value("cache.index.prefetch.hit"), 1);
        // One transfer, paid once.
        assert_eq!(metrics.counter_value("remote.get") - gets_before, 1);
        assert_eq!(clock.now_nanos() - t0, 500_000);

        // A transfer nobody waits on ripens with the clock; cancelled, it
        // releases its slot and is no longer in flight.
        cache.invalidate(&meta);
        assert!(cache.prefetch(&meta).unwrap());
        clock.advance(Duration::from_micros(500));
        assert!(cache.in_flight(meta.id) && !cache.awaits_transfer(meta.id));
        assert!(cache.cancel_prefetch(meta.id));
        assert!(!cache.in_flight(meta.id) && !cache.cancel_prefetch(meta.id));
        assert_eq!(clock.now_nanos() - t0, 1_000_000, "cancelled transfer charges nothing");
    }

    /// A store that cannot defer pays the whole transfer inside `prefetch`;
    /// what is pending is ripe, and `get` consumes it at no further cost.
    #[test]
    fn prefetch_on_a_blocking_store_pays_at_once_and_is_ripe() {
        let clock = VirtualClock::shared();
        let metrics = MetricsRegistry::new();
        let remote = Arc::new(InMemoryObjectStore::new(
            clock.clone(),
            LatencyModel::fixed(Duration::from_micros(500)),
            metrics.clone(),
            "remote",
        ));
        let registry = Arc::new(IndexRegistry::with_builtins());
        let meta = build_indexed_segment(remote.as_ref(), &registry, 1, 10);
        let (t0, gets) = (clock.now_nanos(), metrics.counter_value("remote.get"));
        let remote = remote as Arc<dyn ObjectStore>;
        let cache = IndexCache::new(1 << 20, None, remote, registry, metrics.clone());
        assert!(cache.prefetch(&meta).unwrap());
        assert_eq!(clock.now_nanos() - t0, 500_000);
        assert!(cache.in_flight(meta.id) && !cache.awaits_transfer(meta.id));
        assert!(cache.get(&meta).unwrap().is_some());
        assert_eq!(clock.now_nanos() - t0, 500_000);
        assert_eq!(metrics.counter_value("remote.get") - gets, 1);
        assert_eq!(metrics.counter_value("cache.index.prefetch.hit"), 1);
    }

    #[test]
    fn block_cache_split_spaces() {
        let metrics = MetricsRegistry::new();
        let cache = BlockCache::new(1 << 10, 1 << 10, 100, metrics.clone());
        let fetched = std::cell::Cell::new(0);
        let fetch = |data: &'static [u8]| {
            fetched.set(fetched.get() + 1);
            Ok(Bytes::from_static(data))
        };
        cache.get_or_fetch("k1", BlockKind::Data, 10, || fetch(b"datablock")).unwrap();
        cache.get_or_fetch("k1", BlockKind::Data, 10, || fetch(b"datablock")).unwrap();
        assert_eq!(fetched.get(), 1, "second read must hit");
        assert_eq!(metrics.counter_value("cache.data.hit"), 1);
        // Meta space is independent: same key in meta space still misses.
        cache.get_or_fetch("k1", BlockKind::Meta, 10, || fetch(b"m")).unwrap();
        assert_eq!(fetched.get(), 2);
        assert!(cache.meta_used() > 0 && cache.data_used() > 0);
    }

    #[test]
    fn block_cache_row_limit_bypasses_data_space() {
        let metrics = MetricsRegistry::new();
        let cache = BlockCache::new(1 << 10, 1 << 10, 100, metrics.clone());
        // Over the row limit: fetch but do not cache.
        cache
            .get_or_fetch("big", BlockKind::Data, 1000, || Ok(Bytes::from_static(b"x")))
            .unwrap();
        assert_eq!(metrics.counter_value("cache.data.bypass"), 1);
        assert_eq!(cache.data_used(), 0);
        // A small query for the same key misses (it was never cached).
        cache
            .get_or_fetch("big", BlockKind::Data, 1, || Ok(Bytes::from_static(b"x")))
            .unwrap();
        assert_eq!(metrics.counter_value("cache.data.miss"), 1);
        assert!(cache.data_used() > 0);
    }

    #[test]
    fn block_cache_data_eviction_does_not_touch_meta() {
        let cache = BlockCache::new(1 << 10, 64, 10_000, MetricsRegistry::new());
        cache.get_or_fetch("m", BlockKind::Meta, 1, || Ok(Bytes::from_static(b"meta"))).unwrap();
        // Flood the data space well past its 64-byte capacity.
        for i in 0..50 {
            let key = format!("d{i}");
            cache
                .get_or_fetch(&key, BlockKind::Data, 1, || Ok(Bytes::from(vec![0u8; 32])))
                .unwrap();
        }
        assert!(cache.data_used() <= 64);
        // Metadata survived the flood.
        let hit = std::cell::Cell::new(true);
        cache
            .get_or_fetch("m", BlockKind::Meta, 1, || {
                hit.set(false);
                Ok(Bytes::new())
            })
            .unwrap();
        assert!(hit.get(), "metadata was evicted by data-space pressure");
    }
}
