//! The vector-index cache (§II-D).
//!
//! [`IndexCache`] is the vector-index cache every worker owns: an index is
//! either resident in its in-memory LRU or on its way from the remote shared
//! store (the source of truth) in its one transfer table. A raw-HNSW blob
//! holds the graph alone; its transfer fetches the segment's vector column
//! beside it ([`IndexedColumns`] says which column), so every vector is
//! stored once and a cold load costs the slower of the gets. Its counters are
//! exported through the metrics registry, which is what the cache-miss and
//! elasticity experiments observe. (A worker's column data is cached decoded,
//! in its own LRUs: `bh_cluster::worker`.)
//!
//! All cache counters follow the `cache.<space>.<event>` naming convention
//! (DESIGN.md §9), here `cache.index.mem.{hit,miss}`. Every `.hit` / `.miss`
//! bump goes through `bh_common::qctx::cache_{hit,miss}`, which also tallies
//! it on the statement the thread is working for.

use crate::column::ColumnData;
use crate::lru::{CacheRow, LruCache};
use crate::objectstore::{PendingGet, SharedObjectStore};
use crate::schema::TableSchema;
use crate::segment::SegmentMeta;
use crate::value::ColumnType;
use bh_common::metrics::Counter;
use bh_common::sync::{classes, Mutex, RwLock};
use bh_common::{qctx, BhError, MetricsRegistry, QueryCtx, Result, SegmentId};
use bh_vector::{IndexKind, IndexRegistry, VectorIndex};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Table → the vector column its index is built over, for the tables whose
/// blobs hold the graph alone ([`IndexKind::loads_column`]). One map per
/// warehouse, shared by its workers' caches, so a worker added later knows
/// every table the warehouse was told of — or has learned from a blob's
/// header, which names the column too.
pub struct IndexedColumns(RwLock<HashMap<String, String>>);

impl Default for IndexedColumns {
    fn default() -> Self {
        Self(RwLock::new(&classes::IDXCACHE_COLUMNS, HashMap::new()))
    }
}

impl IndexedColumns {
    /// Learn the column `schema`'s index is built over. A table whose blobs
    /// carry their own vectors needs none and is not recorded.
    pub fn register(&self, schema: &TableSchema) {
        if let Some(def) = schema.indexes.first().filter(|d| d.spec.kind.loads_column()) {
            self.learn(&schema.name, &def.column);
        }
    }

    fn learn(&self, table: &str, column: &str) {
        if self.of(table).as_deref() != Some(column) {
            self.0.write().insert(table.to_string(), column.to_string());
        }
    }

    fn of(&self, table: &str) -> Option<String> {
        self.0.read().get(table).cloned()
    }
}

/// One index on its way to memory: its blob and, for a graph-only blob,
/// its segment's vector-column blocks, begun together. Every `get` of the
/// segment joins it; the first to arrive waits out the gets, decodes, and
/// the rest receive that same index.
struct Transfer {
    /// Started by whoever entered the transfer in the table, under its lock.
    blob: PendingGet,
    /// The vector column's block gets, begun with `blob`. Empty for a blob
    /// that carries its own vectors, and while the column is unknown: then
    /// the blob's header names it.
    column: Vec<PendingGet>,
    /// Whether a `get` has joined yet: false only for a prefetch nobody
    /// has asked for.
    claimed: AtomicBool,
    index: OnceLock<Result<Arc<dyn VectorIndex>>>,
}

impl Transfer {
    /// Whether the clock has reached every one of its gets' deadlines.
    fn is_ready(&self) -> bool {
        self.blob.is_ready() && self.column.iter().all(PendingGet::is_ready)
    }
}

/// Per-worker vector-index cache: memory LRU over the remote store.
pub struct IndexCache {
    mem: LruCache<SegmentId, Arc<dyn VectorIndex>>,
    remote: SharedObjectStore,
    metrics: MetricsRegistry,
    columns: Arc<IndexedColumns>,
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
    /// A cache with the given memory capacity over the remote store, told by
    /// `columns` which vector column a graph-only blob loads with.
    pub fn new(
        mem_capacity_bytes: usize,
        remote: SharedObjectStore,
        metrics: MetricsRegistry,
        columns: Arc<IndexedColumns>,
    ) -> Self {
        Self {
            mem: LruCache::new(mem_capacity_bytes),
            remote,
            columns,
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
                self.begin(meta, kind, true)?
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

    /// Wait out `transfer`, decode its blob with its column's rows and make
    /// the index resident; then the transfer leaves the table. Runs once per
    /// transfer.
    fn promote(
        &self,
        meta: &SegmentMeta,
        kind: IndexKind,
        transfer: &Arc<Transfer>,
    ) -> Result<Arc<dyn VectorIndex>> {
        let blob = transfer.blob.wait();
        let rows = if kind.loads_column() && transfer.column.is_empty() {
            // Nobody told the warehouse the table's column: the blob names
            // it, and the next cold load fetches it beside the blob.
            IndexRegistry.indexed_column(&blob).and_then(|name| {
                self.columns.learn(&meta.table, &name);
                column_rows(&self.begin_column(meta, &name)?)
            })
        } else {
            column_rows(&transfer.column)
        };
        let loaded = rows.and_then(|rows| IndexRegistry.load(kind, &blob, rows));
        if let Ok(idx) = &loaded {
            self.mem.put(meta.id, idx.clone(), idx.memory_usage());
        }
        // Resident before it leaves the table (see `get`'s second probe). It
        // leaves on a failure too, so the next get starts afresh.
        self.retire(meta.id, transfer);
        loaded
    }

    /// Enter a transfer for `meta` in the table and start its gets — the
    /// blob, and for a graph-only `kind` the vector column's blocks — or find
    /// the one entered already. Returns the segment's transfer and whether it
    /// is the one entered here; a start that fails enters nothing.
    fn begin(
        &self,
        meta: &SegmentMeta,
        kind: IndexKind,
        claimed: bool,
    ) -> Result<(Arc<Transfer>, bool)> {
        let name = kind.loads_column().then(|| self.columns.of(&meta.table)).flatten();
        Ok(match self.transfers.lock_checked()?.entry(meta.id) {
            Entry::Occupied(e) => (e.get().clone(), false),
            Entry::Vacant(slot) => {
                // A start returns at once with its deadline, so the table
                // lock is not held across the transfer.
                let blob = self.remote.get_begin(&meta.index_key())?;
                let column = match name {
                    Some(name) => self.begin_column(meta, &name)?,
                    None => Vec::new(),
                };
                let claimed = AtomicBool::new(claimed);
                let t = Transfer { blob, column, claimed, index: OnceLock::new() };
                (slot.insert(Arc::new(t)).clone(), true)
            }
        })
    }

    /// Start the gets of every block of `meta`'s column `name`.
    fn begin_column(&self, meta: &SegmentMeta, name: &str) -> Result<Vec<PendingGet>> {
        (0..meta.block_count()).map(|b| self.remote.get_begin(&meta.block_key(name, b))).collect()
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
    /// intervening work: it returns at once with the transfer's deadline.
    /// Never mutates the memory tier — `resident` reports false until the
    /// blob is consumed by a real `get`.
    ///
    /// Returns whether a new transfer was started.
    pub fn prefetch(&self, meta: &SegmentMeta) -> Result<bool> {
        // Probed in the order a blob moves (in transfer, resident), so a
        // load that advances meanwhile is still seen.
        let Some(kind) = meta.index_kind else { return Ok(false) };
        if self.in_flight(meta.id) || self.mem.contains(&meta.id) {
            return Ok(false);
        }
        let (_, began) = self.begin(meta, kind, false)?;
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
        self.transfers.lock().get(&seg).is_some_and(|t| !t.is_ready())
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

    /// The memory tier's `index.mem` row of `system.caches` (the LRU's own
    /// counters, not the `cache.index.*` registry counters).
    pub fn cache_row(&self) -> CacheRow {
        self.mem.cache_row("index.mem")
    }

    /// Number of resident full indexes in the memory tier.
    pub fn resident_count(&self) -> usize {
        self.mem.len()
    }
}

/// Wait out a column's block gets and concatenate their vector rows into
/// one exactly sized allocation, which the index keeps for its lifetime.
fn column_rows(blocks: &[PendingGet]) -> Result<Vec<f32>> {
    let mut parts = blocks
        .iter()
        .map(|get| match ColumnData::decode_block(ColumnType::Vector(0), &get.wait())? {
            ColumnData::Vector { data, .. } => Ok(data),
            _ => Err(BhError::Internal("vector block decoded as a scalar".into())),
        })
        .collect::<Result<Vec<Vec<f32>>>>()?;
    Ok(if parts.len() == 1 { parts.swap_remove(0) } else { parts.concat() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;
    use crate::objectstore::InMemoryObjectStore;
    use crate::schema::TableSchema;
    use crate::segment::Segment;
    use crate::value::ColumnType;
    use bh_common::{BhError, LatencyModel, SegmentId, VirtualClock};
    use bh_vector::{IndexKind, IndexSpec, Metric, SearchParams};
    use std::time::Duration;

    fn schema() -> TableSchema {
        TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("emb", ColumnType::Vector(4))
            .with_vector_index("i", "emb", IndexKind::Hnsw, 4, Metric::L2)
    }

    /// A cache whose warehouse knows the test table's vector column.
    fn cache_over(cap: usize, remote: SharedObjectStore, metrics: MetricsRegistry) -> IndexCache {
        let columns = IndexedColumns::default();
        columns.register(&schema());
        IndexCache::new(cap, remote, metrics, Arc::new(columns))
    }

    fn build_indexed_segment(store: &InMemoryObjectStore, id: u64, n: usize) -> SegmentMeta {
        let schema = schema();
        let columns = vec![
            ColumnData::UInt64((0..n as u64).collect()),
            ColumnData::Vector { dim: 4, data: (0..n).flat_map(|i| [i as f32; 4]).collect() },
        ];
        let rows: Vec<u32> = (0..n as u32).collect();
        let mut seg =
            Segment::from_columns(&schema, SegmentId(id), &columns, &rows, vec![], None, 0)
                .unwrap();
        // Build + persist the index.
        let spec = IndexSpec::new(IndexKind::Hnsw, 4, Metric::L2).on_column("emb");
        let mut b = IndexRegistry.create_builder(&spec).unwrap();
        let (data, _) = seg.columns["emb"].vector_data().unwrap();
        let ids: Vec<u64> = (0..n as u64).collect();
        b.add_with_ids(data, &ids).unwrap();
        let idx = b.finish().unwrap();
        seg.persist_columns(store, true);
        seg.commit(store, Some((idx.save_bytes().unwrap(), IndexKind::Hnsw))).unwrap();
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

        let cache = cache_over(1 << 20, remote, metrics.clone());
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
        let cache = cache_over(1 << 20, remote, metrics);

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
        let columns = [ColumnData::UInt64(vec![1])];
        let seg =
            Segment::from_columns(&schema, SegmentId(9), &columns, &[0], vec![], None, 0).unwrap();
        let cache = cache_over(1 << 20, remote, MetricsRegistry::new());
        assert!(cache.get(&seg.meta).unwrap().is_none());
    }

    #[test]
    fn preload_warms_cache_and_invalidate_clears() {
        let remote = InMemoryObjectStore::for_tests();
        let m1 = build_indexed_segment(remote.as_ref(), 1, 20);
        let m2 = build_indexed_segment(remote.as_ref(), 2, 20);
        let cache = cache_over(1 << 20, remote, MetricsRegistry::new());
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
        let cache = cache_over(1 << 20, remote, MetricsRegistry::new());
        let idx = cache.get(&meta).unwrap().unwrap();
        let got = idx
            .search_with_bound(&[5.0, 5.0, 5.0, 5.0], 1, &SearchParams::default(), None, None)
            .unwrap();
        assert_eq!(got[0].id, 5);
    }

    /// A graph-only blob's cold load is the blob and every block of its
    /// vector column, begun together: it costs the slower get, not the sum.
    /// A cache never told the column reads it from the blob's header, one
    /// get after the other, and overlaps from then on.
    #[test]
    fn a_cold_load_fetches_the_column_beside_the_blob() {
        let clock = VirtualClock::shared();
        let metrics = MetricsRegistry::new();
        let remote = Arc::new(InMemoryObjectStore::new(
            clock.clone(),
            LatencyModel::fixed(Duration::from_micros(500)),
            metrics.clone(),
            "remote",
        ));
        let two_blocks = build_indexed_segment(remote.as_ref(), 1, 1100);
        let one_block = build_indexed_segment(remote.as_ref(), 2, 30);
        let load = |cache: &IndexCache, meta: &SegmentMeta| {
            let (gets, t0) = (metrics.counter_value("remote.get"), clock.now_nanos());
            let idx = cache.get(meta).unwrap().unwrap();
            let q = [7.0; 4];
            assert_eq!(
                idx.search_with_bound(&q, 1, &SearchParams::default(), None, None).unwrap()[0].id,
                7
            );
            cache.invalidate(meta);
            (metrics.counter_value("remote.get") - gets, clock.now_nanos() - t0)
        };
        let told = cache_over(1 << 24, remote.clone(), metrics.clone());
        assert_eq!(load(&told, &two_blocks), (3, 500_000));
        let untold = IndexCache::new(1 << 24, remote, metrics.clone(), Arc::default());
        assert_eq!(load(&untold, &one_block), (2, 1_000_000));
        assert_eq!(load(&untold, &one_block), (2, 500_000));
    }

    /// A store on a real clock, so a transfer genuinely takes long enough
    /// for other threads to arrive and join it.
    fn slow_cache(id: u64) -> (Arc<IndexCache>, SegmentMeta, MetricsRegistry) {
        let metrics = MetricsRegistry::new();
        let remote = Arc::new(InMemoryObjectStore::new(
            bh_common::RealClock::shared(),
            LatencyModel::fixed(Duration::from_millis(60)),
            metrics.clone(),
            "remote",
        ));
        let meta = build_indexed_segment(remote.as_ref(), id, 40);
        let cache = Arc::new(cache_over(1 << 20, remote, metrics.clone()));
        (cache, meta, metrics)
    }

    #[test]
    fn single_flight_dedups_concurrent_gets() {
        let (cache, meta, metrics) = slow_cache(1);
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
        // One transfer serves every caller: the blob and one column block.
        assert_eq!(metrics.counter_value("remote.get"), 2);
        assert_eq!(metrics.counter_value("cache.index.remote.fetch"), 1);
        assert!(metrics.counter_value("cache.index.singleflight.wait") >= 3);
        assert!(indexes.iter().all(|idx| Arc::ptr_eq(idx, &indexes[0])), "one decode");
    }

    /// Gets racing for a prefetched transfer: one consumes it, the other
    /// joins, and both receive the index decoded once.
    #[test]
    fn gets_racing_for_a_prefetch_share_its_transfer() {
        let (cache, meta, metrics) = slow_cache(2);
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
        assert_eq!(metrics.counter_value("remote.get"), 2);
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
        let remote = Arc::new(InMemoryObjectStore::new(
            clock.clone(),
            LatencyModel::fixed(Duration::from_micros(500)),
            metrics.clone(),
            "remote",
        ));
        let m1 = build_indexed_segment(remote.as_ref(), 1, 20);
        let m2 = build_indexed_segment(remote.as_ref(), 2, 20);
        let after_setup = clock.now_nanos();

        let cache = cache_over(1 << 20, remote, metrics.clone());
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
        let remote = Arc::new(InMemoryObjectStore::new(
            clock.clone(),
            LatencyModel::fixed(Duration::from_micros(500)),
            metrics.clone(),
            "remote",
        ));
        let meta = build_indexed_segment(remote.as_ref(), 8, 600);
        let gets_before = metrics.counter_value("remote.get");
        let t0 = clock.now_nanos();

        let cache = cache_over(1 << 24, remote, metrics.clone());
        assert!(!cache.in_flight(meta.id));
        assert!(cache.prefetch(&meta).unwrap());
        assert!(cache.in_flight(meta.id) && !cache.resident(meta.id));
        assert!(cache.awaits_transfer(meta.id));

        assert_eq!(cache.get(&meta).unwrap().unwrap().meta().len, 600);
        assert!(cache.resident(meta.id) && !cache.in_flight(meta.id));
        assert_eq!(metrics.counter_value("cache.index.prefetch.hit"), 1);
        // One transfer — the blob and the column's one block, begun
        // together — paid once, for the slower get, not for both.
        assert_eq!(metrics.counter_value("remote.get") - gets_before, 2);
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

    /// A start that fails — the segment's index blob was garbage-collected
    /// under a stale snapshot — enters no transfer and counts nothing, and
    /// the next segment's get is unaffected.
    #[test]
    fn a_failed_transfer_start_leaves_nothing_behind() {
        let metrics = MetricsRegistry::new();
        let remote = Arc::new(InMemoryObjectStore::new(
            VirtualClock::shared(),
            LatencyModel::fixed(Duration::from_micros(500)),
            metrics.clone(),
            "remote",
        ));
        let gone = build_indexed_segment(remote.as_ref(), 1, 10);
        let live = build_indexed_segment(remote.as_ref(), 2, 10);
        remote.delete(&gone.index_key()).unwrap();
        let cache = cache_over(1 << 20, remote, metrics.clone());
        let count = |name: &str| metrics.counter_value(name);
        let failed = |err: Option<BhError>| {
            let err = err.expect("starting a collected blob must fail");
            assert!(err.is_snapshot_race(), "{err}");
            assert!(!cache.in_flight(gone.id) && !cache.resident(gone.id));
        };
        failed(cache.get(&gone).err());
        failed(cache.prefetch(&gone).err());
        assert_eq!(count("cache.index.prefetch"), 0);
        assert_eq!(count("cache.index.remote.fetch"), 0);

        let gets = count("remote.get");
        assert_eq!(cache.get(&live).unwrap().unwrap().meta().len, 10);
        assert_eq!(count("remote.get") - gets, 2);
        assert!(!cache.in_flight(live.id));
    }
}
