//! Hierarchical caches (§II-D, §IV-C).
//!
//! * [`IndexCache`] — the vector-index cache every worker owns: an index is
//!   either resident in its in-memory LRU or on its way from the remote
//!   shared store (the source of truth) in its one transfer table. Its
//!   counters are exported through the metrics registry, which is what the
//!   cache-miss and elasticity experiments observe.
//! * [`BlockCache`] — the adaptive in-memory column-block cache with a
//!   **row-limit bypass** so one huge hybrid query can't thrash it. Segment
//!   metadata lives in the table catalog, so the cache holds data blocks only.
//!
//! All cache counters follow the `cache.<space>.<event>` naming convention
//! (DESIGN.md §9): `cache.data.{hit,miss}` for the block cache,
//! `cache.index.mem.{hit,miss}` for the index cache. Every `.hit` / `.miss`
//! bump goes through `bh_common::qctx::cache_{hit,miss}`, which also tallies
//! it on the statement the thread is working for.

use crate::lru::LruCache;
use crate::objectstore::{PendingGet, SharedObjectStore};
use crate::segment::SegmentMeta;
use bh_common::metrics::Counter;
use bh_common::{qctx, MetricsRegistry, QueryCtx, Result, SegmentId};
use bh_vector::{IndexKind, IndexRegistry, VectorIndex};
use bytes::Bytes;
use bh_common::sync::{classes, Mutex};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// One index blob on its way to memory. Every `get` of the segment joins
/// it; the first to arrive waits out its deadline and decodes the blob, and
/// the rest receive that same index.
struct Transfer {
    /// Started by whoever entered the transfer in the table, after the
    /// entry exists: a get that joins while a store that cannot defer is
    /// still paying in `get_begin` waits here instead of starting another.
    blob: OnceLock<Result<PendingGet>>,
    /// Whether a `get` has joined yet: false only for a prefetch nobody
    /// has asked for.
    claimed: AtomicBool,
    index: OnceLock<Result<Arc<dyn VectorIndex>>>,
}

/// Per-worker vector-index cache: memory LRU over the remote store.
pub struct IndexCache {
    mem: LruCache<SegmentId, Arc<dyn VectorIndex>>,
    remote: SharedObjectStore,
    metrics: MetricsRegistry,
    /// `cache.index.mem.{hit,miss}`, resolved once: every warm segment
    /// search bumps one of them.
    mem_hit: Arc<Counter>,
    mem_miss: Arc<Counter>,
    /// The transfer in flight per segment, started by [`IndexCache::prefetch`]
    /// or by a cold [`IndexCache::get`], and dropped once it is decoded and
    /// resident. Never promoted to `mem` by itself — `resident` stays false
    /// until someone actually asks for the index. The single owner of the
    /// "transfer in flight" fact: read it through [`IndexCache::in_flight`]
    /// and [`IndexCache::awaits_transfer`].
    transfers: Mutex<HashMap<SegmentId, Arc<Transfer>>>,
}

impl IndexCache {
    /// A cache with the given memory capacity over the remote store.
    pub fn new(
        mem_capacity_bytes: usize,
        remote: SharedObjectStore,
        metrics: MetricsRegistry,
    ) -> Self {
        Self {
            mem: LruCache::new(mem_capacity_bytes),
            remote,
            mem_hit: metrics.counter("cache.index.mem.hit"),
            mem_miss: metrics.counter("cache.index.mem.miss"),
            metrics,
            transfers: Mutex::new(&classes::IDXCACHE_PENDING, HashMap::new()),
        }
    }

    /// Is the index resident in memory right now? (Used by the scheduler's
    /// cache-aware paths and by the cache-miss experiment.)
    pub fn resident(&self, seg: SegmentId) -> bool {
        self.mem.contains(&seg)
    }

    /// The segment's index: from memory, or through its transfer, which a
    /// cold get starts when none is in flight. Returns `None` if the segment
    /// has no index.
    ///
    /// Concurrent gets of a cold segment share one transfer and one decode:
    /// `cache.index.prefetch.hit` counts the get that consumes a prefetch,
    /// `cache.index.remote.fetch` a get that started the transfer itself,
    /// and `cache.index.singleflight.wait` every other get that joined.
    pub fn get(&self, meta: &SegmentMeta) -> Result<Option<Arc<dyn VectorIndex>>> {
        let Some(kind) = meta.index_kind else { return Ok(None) };
        let mut span = QueryCtx::span("cache.index.get");
        span.attr("segment", meta.id.raw());
        if let Some(idx) = self.mem.get(&meta.id) {
            qctx::cache_hit(&self.mem_hit);
            span.attr("tier", "mem");
            return Ok(Some(idx));
        }
        qctx::cache_miss(&self.mem_miss);
        let found = self.transfers.lock_checked()?.get(&meta.id).cloned();
        let (transfer, began) = match found {
            Some(t) => (t, false),
            None => {
                // A transfer promoted between the two probes is resident
                // before it leaves the table: look again before starting one.
                if let Some(idx) = self.mem.get(&meta.id) {
                    self.metrics.counter("cache.index.singleflight.wait").inc();
                    span.attr("tier", "joined");
                    return Ok(Some(idx));
                }
                self.begin(meta, true)?
            }
        };
        if began {
            self.metrics.counter("cache.index.remote.fetch").inc();
            span.attr("tier", "remote");
        } else if !transfer.claimed.swap(true, Ordering::Relaxed) {
            qctx::cache_hit(&self.metrics.counter("cache.index.prefetch.hit"));
            span.attr("tier", "prefetch");
        } else {
            self.metrics.counter("cache.index.singleflight.wait").inc();
            span.attr("tier", "joined");
        }
        let idx = transfer.index.get_or_init(|| self.promote(meta, kind, &transfer)).clone()?;
        Ok(Some(idx))
    }

    /// Wait out `transfer`, decode its blob and make the index resident;
    /// then the transfer leaves the table. Runs once per transfer.
    fn promote(
        &self,
        meta: &SegmentMeta,
        kind: IndexKind,
        transfer: &Arc<Transfer>,
    ) -> Result<Arc<dyn VectorIndex>> {
        let loaded = self
            .blob(meta, transfer)
            .and_then(|blob| IndexRegistry.load_blob(kind, &blob.wait()));
        if let Ok(idx) = &loaded {
            self.mem.put(meta.id, idx.clone(), idx.memory_usage());
        }
        // Resident before it leaves the table (see `get`'s second probe). It
        // leaves on a failure too, so the next get starts afresh.
        self.retire(meta.id, transfer);
        loaded
    }

    /// Enter a transfer for `meta` in the table, or find the one entered
    /// already, and start its blob. Returns the segment's transfer and
    /// whether it is the one entered here.
    fn begin(&self, meta: &SegmentMeta, claimed: bool) -> Result<(Arc<Transfer>, bool)> {
        let (transfer, began) = match self.transfers.lock_checked()?.entry(meta.id) {
            Entry::Occupied(e) => (e.get().clone(), false),
            Entry::Vacant(slot) => {
                let claimed = AtomicBool::new(claimed);
                let t = Transfer { blob: OnceLock::new(), claimed, index: OnceLock::new() };
                (slot.insert(Arc::new(t)).clone(), true)
            }
        };
        // Started outside the table lock: a store that cannot defer sleeps
        // its transfer in `get_begin`, and probes of other segments must not
        // queue behind it.
        if began {
            if let Err(e) = self.blob(meta, &transfer) {
                self.retire(meta.id, &transfer);
                return Err(e);
            }
        }
        Ok((transfer, began))
    }

    /// The transfer's blob, started by the first caller; the rest wait for
    /// `get_begin` to return.
    fn blob<'t>(&self, meta: &SegmentMeta, transfer: &'t Transfer) -> Result<&'t PendingGet> {
        let blob = transfer.blob.get_or_init(|| self.remote.get_begin(&meta.index_key()));
        blob.as_ref().map_err(Clone::clone)
    }

    /// Remove `transfer` from the table; one cancelled or replaced
    /// meanwhile is not ours to remove.
    fn retire(&self, seg: SegmentId, transfer: &Arc<Transfer>) {
        let mut transfers = self.transfers.lock();
        if transfers.get(&seg).is_some_and(|t| Arc::ptr_eq(t, transfer)) {
            transfers.remove(&seg);
        }
    }

    /// Begin fetching a segment's index blob, so a later [`IndexCache::get`]
    /// finds the transfer already in flight and its latency overlaps with
    /// intervening work. A deferring store returns at once; a store
    /// that cannot defer pays the whole transfer here, and the blob is
    /// pending all the same. Never mutates the memory tier — `resident`
    /// reports false until the blob is consumed by a real `get`.
    ///
    /// Returns whether a new transfer was started.
    pub fn prefetch(&self, meta: &SegmentMeta) -> Result<bool> {
        // Probed in the order a blob moves (in transfer, resident), so a
        // load that advances meanwhile is still seen.
        if meta.index_kind.is_none() || self.in_flight(meta.id) || self.mem.contains(&meta.id) {
            return Ok(false);
        }
        let (_, began) = self.begin(meta, false)?;
        if began {
            self.metrics.counter("cache.index.prefetch").inc();
        }
        Ok(began)
    }

    /// Is a transfer for this segment in flight, i.e. would the next
    /// [`IndexCache::get`] join it instead of starting one?
    pub fn in_flight(&self, seg: SegmentId) -> bool {
        self.transfers.lock().contains_key(&seg)
    }

    /// Would the next [`IndexCache::get`] have to wait for this segment: is
    /// a transfer in flight whose deadline the clock has not reached?
    pub fn awaits_transfer(&self, seg: SegmentId) -> bool {
        self.transfers.lock().get(&seg).is_some_and(|t| match t.blob.get() {
            Some(blob) => blob.as_ref().is_ok_and(|p| !p.is_ready()),
            // Still in `get_begin`, where a store that cannot defer pays.
            None => true,
        })
    }

    /// Drop an unconsumed transfer: the blob bytes are released once no
    /// `get` holds it, and it is never waited for. Returns whether one was
    /// in flight.
    pub fn cancel_prefetch(&self, seg: SegmentId) -> bool {
        self.transfers.lock().remove(&seg).is_some()
    }

    /// Kept only because the frozen `benchmark/` compiles against it
    /// (ROADMAP "Re-anchor the evidence"): the resident index, or `None`.
    pub fn get_head(&self, meta: &SegmentMeta) -> Result<Option<Arc<dyn VectorIndex>>> {
        Ok(self.mem.get(&meta.id))
    }

    /// Cache-aware preload (§II-D): pull the given segments' indexes into
    /// memory ahead of queries. Errors on individual segments are returned;
    /// successfully preloaded count is the payload.
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

    /// Drop a segment's index and its transfer (e.g. after compaction).
    pub fn invalidate(&self, meta: &SegmentMeta) {
        self.mem.remove(&meta.id);
        self.cancel_prefetch(meta.id);
    }

    /// Drop every index and transfer (simulates worker restart).
    pub fn clear_memory(&self) {
        self.mem.clear();
        self.transfers.lock().clear();
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

/// Adaptive column-block cache: one LRU space for data blocks with a
/// row-limit bypass so one huge hybrid query can't thrash it.
pub struct BlockCache {
    space: LruCache<String, Bytes>,
    /// Queries reading more than this many rows bypass the space entirely
    /// (anti-thrashing row limit, §IV-C).
    row_limit: usize,
    /// `cache.data.{hit,miss,bypass}`, resolved once.
    hit: Arc<Counter>,
    miss: Arc<Counter>,
    bypass: Arc<Counter>,
}

impl BlockCache {
    /// A cache of `capacity` bytes with a row limit.
    pub fn new(capacity: usize, row_limit: usize, metrics: MetricsRegistry) -> Self {
        Self {
            space: LruCache::new(capacity),
            row_limit,
            hit: metrics.counter("cache.data.hit"),
            miss: metrics.counter("cache.data.miss"),
            bypass: metrics.counter("cache.data.bypass"),
        }
    }

    /// The anti-thrashing row limit.
    pub fn row_limit(&self) -> usize {
        self.row_limit
    }

    /// Fetch a block through the cache. `query_rows` is the number of rows
    /// the surrounding query will touch: when it exceeds the row limit the
    /// cache is bypassed (read-through, no insert) so bulk scans cannot
    /// evict the working set.
    pub fn get_or_fetch(
        &self,
        key: &str,
        query_rows: usize,
        fetch: impl FnOnce() -> Result<Bytes>,
    ) -> Result<Bytes> {
        let mut span = QueryCtx::span("cache.block.get");
        let bypass = query_rows > self.row_limit;
        if !bypass {
            if let Some(b) = self.space.get(&key.to_string()) {
                qctx::cache_hit(&self.hit);
                span.attr("hit", true);
                return Ok(b);
            }
            qctx::cache_miss(&self.miss);
            span.attr("hit", false);
        } else {
            self.bypass.inc();
            span.attr("bypass", true);
        }
        let blob = fetch()?;
        if !bypass {
            self.space.put(key.to_string(), blob.clone(), blob.len().max(1));
        }
        Ok(blob)
    }

    /// Bytes cached.
    pub fn data_used(&self) -> usize {
        self.space.used_bytes()
    }

    /// `(name, used, capacity, entries, hits, misses, evictions)` of the
    /// space, the `block.data` row of the `system.caches` table.
    pub fn space_stats(&self) -> (&'static str, usize, usize, usize, u64, u64, u64) {
        let (hits, misses, evictions) = self.space.stats();
        let s = &self.space;
        ("block.data", s.used_bytes(), s.capacity(), s.len(), hits, misses, evictions)
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
        store: &InMemoryObjectStore,
        id: u64,
        n: usize,
    ) -> SegmentMeta {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("emb", ColumnType::Vector(4))
            .with_vector_index("i", "emb", IndexKind::Hnsw, 4, Metric::L2);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::UInt64(i as u64), Value::Vector(vec![i as f32; 4])])
            .collect();
        let mut seg = Segment::from_rows(&schema, SegmentId(id), rows, vec![], None, 0).unwrap();
        // Build + persist the index.
        let spec = IndexSpec::new(IndexKind::Hnsw, 4, Metric::L2);
        let mut b = IndexRegistry.create_builder(&spec).unwrap();
        let (data, _) = seg.columns["emb"].vector_data().unwrap();
        let ids: Vec<u64> = (0..n as u64).collect();
        b.add_with_ids(data, &ids).unwrap();
        let idx = b.finish().unwrap();
        let blob = idx.save_bytes().unwrap();
        seg.meta.index_kind = Some(IndexKind::Hnsw);
        seg.meta.index_bytes = blob.len() as u64;
        store.put(&seg.meta.index_key(), blob).unwrap();
        seg.persist(store).unwrap();
        seg.meta
    }

    #[test]
    fn hierarchy_promotes_and_hits() {
        let metrics = MetricsRegistry::new();
        let remote = Arc::new(InMemoryObjectStore::new(
            VirtualClock::shared(),
            LatencyModel::fixed(Duration::from_micros(1000)),
            metrics.clone(),
            "remote",
        ));
        let meta = build_indexed_segment(remote.as_ref(), 1, 50);

        let cache = IndexCache::new(1 << 20, remote, metrics.clone());
        assert!(!cache.resident(meta.id));

        // First get: memory miss, one remote fetch, then resident.
        let idx = cache.get(&meta).unwrap().unwrap();
        assert_eq!(idx.meta().len, 50);
        assert_eq!(metrics.counter_value("cache.index.mem.miss"), 1);
        assert_eq!(metrics.counter_value("cache.index.remote.fetch"), 1);
        assert!(cache.resident(meta.id) && !cache.in_flight(meta.id));

        // Second get: memory hit, no new remote traffic.
        cache.get(&meta).unwrap().unwrap();
        assert_eq!(metrics.counter_value("cache.index.mem.hit"), 1);
        assert_eq!(metrics.counter_value("cache.index.remote.fetch"), 1);

        // Clear memory (worker restart): the next get fetches from remote.
        cache.clear_memory();
        cache.get(&meta).unwrap().unwrap();
        assert_eq!(metrics.counter_value("cache.index.remote.fetch"), 2);
    }

    /// Satellite: lock poisoning must surface as `BhError::LockPoisoned`
    /// on the cache's fallible paths instead of propagating the panic, and
    /// a recovering access heals the lock so the cache serves again.
    #[test]
    fn poisoned_transfer_lock_is_reported_then_healed() {
        let clock = VirtualClock::shared();
        let metrics = MetricsRegistry::new();
        let remote = Arc::new(InMemoryObjectStore::new(
            clock,
            LatencyModel::fixed(Duration::from_micros(1)),
            metrics.clone(),
            "remote",
        ));
        let meta = build_indexed_segment(remote.as_ref(), 3, 10);
        let cache = IndexCache::new(1 << 20, remote, metrics);

        // Poison: a caller dies while holding the transfer table.
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = cache.transfers.lock();
            panic!("die holding the transfer-table lock");
        }));
        assert!(died.is_err());

        // The fallible path reports the poisoned class by name…
        match cache.get(&meta) {
            Err(BhError::LockPoisoned(class)) => assert_eq!(class, "IDXCACHE_PENDING"),
            Ok(_) => panic!("expected LockPoisoned, got Ok"),
            Err(other) => panic!("expected LockPoisoned, got {other}"),
        }
        // …a recovering access heals it, and service resumes.
        drop(cache.transfers.lock());
        let idx = cache.get(&meta).unwrap().unwrap();
        assert_eq!(idx.meta().len, 10);
    }

    #[test]
    fn segment_without_index_returns_none() {
        let remote = InMemoryObjectStore::for_tests();
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
        let cache = IndexCache::new(1 << 20, remote, MetricsRegistry::new());
        assert!(cache.get(&seg.meta).unwrap().is_none());
    }

    #[test]
    fn preload_warms_cache_and_invalidate_clears() {
        let remote = InMemoryObjectStore::for_tests();
        let m1 = build_indexed_segment(remote.as_ref(), 1, 20);
        let m2 = build_indexed_segment(remote.as_ref(), 2, 20);
        let cache = IndexCache::new(1 << 20, remote, MetricsRegistry::new());
        assert_eq!(cache.preload([&m1, &m2]).unwrap(), 2);
        assert!(cache.resident(m1.id) && cache.resident(m2.id));
        cache.invalidate(&m1);
        assert!(!cache.resident(m1.id));
        assert!(cache.resident(m2.id));
    }

    #[test]
    fn loaded_index_actually_searches() {
        let remote = InMemoryObjectStore::for_tests();
        let meta = build_indexed_segment(remote.as_ref(), 3, 30);
        let cache = IndexCache::new(1 << 20, remote, MetricsRegistry::new());
        let idx = cache.get(&meta).unwrap().unwrap();
        let got = idx
            .search_with_bound(&[5.0, 5.0, 5.0, 5.0], 1, &SearchParams::default(), None, None)
            .unwrap();
        assert_eq!(got[0].id, 5);
    }

    /// A store on a real clock, so a transfer genuinely takes long enough
    /// for other threads to arrive and join it: paid inside `get_begin`, or
    /// (`deferring`) waited out at its deadline.
    fn slow_cache(id: u64, deferring: bool) -> (Arc<IndexCache>, SegmentMeta, MetricsRegistry) {
        let metrics = MetricsRegistry::new();
        let remote = InMemoryObjectStore::new(
            bh_common::RealClock::shared(),
            LatencyModel::fixed(Duration::from_millis(60)),
            metrics.clone(),
            "remote",
        );
        let remote = Arc::new(if deferring { remote.deferring() } else { remote });
        let meta = build_indexed_segment(remote.as_ref(), id, 40);
        let cache = Arc::new(IndexCache::new(1 << 20, remote, metrics.clone()));
        (cache, meta, metrics)
    }

    #[test]
    fn single_flight_dedups_concurrent_gets() {
        for deferring in [false, true] {
            let (cache, meta, metrics) = slow_cache(1, deferring);
            let get = || cache.get(&meta).unwrap().unwrap();
            let indexes: Vec<_> = std::thread::scope(|s| {
                let leader = s.spawn(get);
                // The followers arrive while the leader's 60ms transfer runs.
                while !cache.in_flight(meta.id) && !leader.is_finished() {
                    std::thread::yield_now();
                }
                let followers: Vec<_> = (0..3).map(|_| s.spawn(get)).collect();
                std::iter::once(leader).chain(followers).map(|h| h.join().unwrap()).collect()
            });
            let gets = metrics.counter_value("remote.get");
            assert_eq!(gets, 1, "deferring={deferring}: one transfer serves every caller");
            assert_eq!(metrics.counter_value("cache.index.remote.fetch"), 1);
            assert!(metrics.counter_value("cache.index.singleflight.wait") >= 3);
            assert!(indexes.iter().all(|idx| Arc::ptr_eq(idx, &indexes[0])), "one decode");
        }
    }

    /// Gets racing for a prefetched transfer: one consumes it, the other
    /// joins, and both receive the index decoded once.
    #[test]
    fn gets_racing_for_a_prefetch_share_its_transfer() {
        let (cache, meta, metrics) = slow_cache(2, true);
        let prefetched = std::sync::Barrier::new(3);
        let indexes: Vec<_> = std::thread::scope(|s| {
            s.spawn(|| {
                let began = cache.prefetch(&meta);
                prefetched.wait(); // before any assert: the gets must not hang
                assert!(began.unwrap());
            });
            let gets: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        prefetched.wait();
                        cache.get(&meta).unwrap().unwrap()
                    })
                })
                .collect();
            gets.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(metrics.counter_value("remote.get"), 1);
        assert_eq!(metrics.counter_value("cache.index.prefetch"), 1);
        assert_eq!(metrics.counter_value("cache.index.prefetch.hit"), 1);
        assert_eq!(metrics.counter_value("cache.index.remote.fetch"), 0);
        assert!(Arc::ptr_eq(&indexes[0], &indexes[1]));
        assert!(cache.resident(meta.id) && !cache.in_flight(meta.id));
    }

    #[test]
    fn prefetch_overlaps_and_get_consumes() {
        let clock = VirtualClock::shared();
        let metrics = MetricsRegistry::new();
        let remote = Arc::new(
            InMemoryObjectStore::new(
                clock.clone(),
                LatencyModel::fixed(Duration::from_micros(500)),
                metrics.clone(),
                "remote",
            )
            .deferring(),
        );
        let m1 = build_indexed_segment(remote.as_ref(), 1, 20);
        let m2 = build_indexed_segment(remote.as_ref(), 2, 20);
        let after_setup = clock.now_nanos();

        let cache = IndexCache::new(1 << 20, remote, metrics.clone());
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
            .deferring(),
        );
        let meta = build_indexed_segment(remote.as_ref(), 8, 600);
        let gets_before = metrics.counter_value("remote.get");
        let t0 = clock.now_nanos();

        let cache = IndexCache::new(1 << 24, remote, metrics.clone());
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

        // A transfer nobody waits on ripens with the clock; cancelled, it is
        // no longer in flight.
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
        let meta = build_indexed_segment(remote.as_ref(), 1, 10);
        let (t0, gets) = (clock.now_nanos(), metrics.counter_value("remote.get"));
        let cache = IndexCache::new(1 << 20, remote, metrics.clone());
        assert!(cache.prefetch(&meta).unwrap());
        assert_eq!(clock.now_nanos() - t0, 500_000);
        assert!(cache.in_flight(meta.id) && !cache.awaits_transfer(meta.id));
        assert!(cache.get(&meta).unwrap().is_some());
        assert_eq!(clock.now_nanos() - t0, 500_000);
        assert_eq!(metrics.counter_value("remote.get") - gets, 1);
        assert_eq!(metrics.counter_value("cache.index.prefetch.hit"), 1);
    }

    #[test]
    fn block_cache_row_limit_bypasses_data_space() {
        let metrics = MetricsRegistry::new();
        let cache = BlockCache::new(1 << 10, 100, metrics.clone());
        let fetched = std::cell::Cell::new(0);
        let fetch = || {
            fetched.set(fetched.get() + 1);
            Ok(Bytes::from_static(b"x"))
        };
        // Over the row limit: fetch but do not cache.
        cache.get_or_fetch("big", 1000, fetch).unwrap();
        assert_eq!(metrics.counter_value("cache.data.bypass"), 1);
        assert_eq!(cache.data_used(), 0);
        // A small query for the same key misses (it was never cached)...
        cache.get_or_fetch("big", 1, fetch).unwrap();
        assert_eq!(metrics.counter_value("cache.data.miss"), 1);
        assert!(cache.data_used() > 0);
        // ...and the next one hits.
        cache.get_or_fetch("big", 1, fetch).unwrap();
        assert_eq!(metrics.counter_value("cache.data.hit"), 1);
        assert_eq!(fetched.get(), 2, "the third read must not fetch");
    }
}
