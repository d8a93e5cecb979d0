//! Compute workers.
//!
//! A worker is stateless with respect to data: everything it holds is cache.
//! Per the paper's design each worker owns
//!
//! * a **vector-index cache** (§II-D): an index is resident in memory or in
//!   transfer from the remote store, and
//! * the **decoded caches** for column data (§IV-C): every block a read
//!   touches is kept decoded, and a column a scan reads whole is kept
//!   assembled too.
//!
//! A worker holds no routing decision: which index a segment task searches
//! (this worker's, a peer's over the serving RPC, or none) is resolved by
//! `VirtualWarehouse::segment_index`. What lives here are the three things
//! that decision ends in — `index_handle` (the index through this worker's
//! index cache), `serve_remote` (the RPC-exposed entry other workers call
//! during scaling; it only answers from the local memory cache) and
//! `brute_force_segment_bounded` (the exact scan of the raw vector column:
//! Plan A, and a segment that has no index) — plus the scalar reads.

use bh_common::metrics::Counter;
use bh_common::{
    BhError, Bitset, LatencyModel, MetricsRegistry, QueryCtx, Result, SegmentId, SharedBound,
    SharedClock, Stopwatch, WorkerId,
};
use bh_storage::cache::{IndexCache, IndexedColumns};
use bh_storage::column::{ColumnData, BLOCK_ROWS};
use bh_storage::lru::CacheRow;
use bh_storage::objectstore::SharedObjectStore;
use bh_storage::predicate::Predicate;
use bh_storage::segment::SegmentMeta;
use bh_storage::table::TableStore;
use bh_storage::value::{ColumnType, Value};
use bh_vector::distance::{scan_distances, Metric};
use bh_vector::{BoundedTopK, Neighbor, VectorIndex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The anti-thrashing row limit (§IV-C): a read of more rows than this
/// keeps neither its blocks nor its column decoded.
const CACHE_ROW_LIMIT: usize = 100_000;

/// Sizing and behaviour knobs for one worker.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// In-memory vector-index cache capacity.
    pub index_mem_bytes: usize,
    /// Capacity of each decoded cache (blocks, columns); zero caches
    /// nothing, so every read goes to the store.
    pub block_data_bytes: usize,
    /// Simulated per-segment-search service time of one worker core.
    /// Zero by default; the elasticity experiments set it so that capacity —
    /// not the host's core count — bounds throughput, as in a real cluster.
    pub compute_per_segment: bh_common::LatencyModel,
    /// Overlap this worker's **RPC** charges only: a serving call's
    /// worker-to-worker wire time becomes a deadline on the clock, waited
    /// out after the peer's compute, so the two cost `max`, not `sum`
    /// ([`Worker::charge_rpc_begin`]). It does not govern store I/O: a
    /// store get is always its transfer's deadline, so index/column
    /// transfers begun together overlap. Off by default: blocking charges
    /// keep existing RPC latency accounting bit-identical.
    pub overlap: bool,
    /// Kept only because the frozen `benchmark/` compiles against it
    /// (ROADMAP "Re-anchor the evidence"): read by nothing.
    pub tiered_loading: bool,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            index_mem_bytes: 256 << 20,
            block_data_bytes: 128 << 20,
            compute_per_segment: bh_common::LatencyModel::ZERO,
            overlap: false,
            tiered_loading: false,
        }
    }
}

/// One compute worker.
pub struct Worker {
    id: WorkerId,
    index_cache: IndexCache,
    /// Decoded-column cache: the "adaptive in-memory caching" of §IV-C —
    /// hybrid queries re-read the same scalar/vector columns constantly,
    /// and caching the *decoded* form avoids per-query block decode cost.
    /// Keyed by segment and the column's position in the schema
    /// ([`column_slot`]), so a probe allocates no name.
    column_cache: bh_storage::lru::LruCache<(SegmentId, usize), Arc<ColumnData>>,
    /// Decoded blocks, by segment, column position and block: the one
    /// cache a read that misses `column_cache` touches before the store
    /// ([`Worker::block`]).
    decoded_blocks: bh_storage::lru::LruCache<(SegmentId, usize, usize), Arc<ColumnData>>,
    alive: AtomicBool,
    cfg: WorkerConfig,
    metrics: MetricsRegistry,
    /// `worker.local_search`, resolved once: bumped per segment per statement.
    pub(crate) local_search: Arc<Counter>,
    clock: SharedClock,
}

impl Worker {
    /// A stateless worker over the remote store; `columns` tells its index
    /// cache which vector column a graph-only blob loads with (its
    /// warehouse's map).
    pub fn new(
        id: WorkerId,
        cfg: WorkerConfig,
        remote: SharedObjectStore,
        clock: SharedClock,
        metrics: MetricsRegistry,
        columns: Arc<IndexedColumns>,
    ) -> Self {
        let index_cache = IndexCache::new(cfg.index_mem_bytes, remote, metrics.clone(), columns);
        let column_cache =
            bh_storage::lru::LruCache::with_metrics(cfg.block_data_bytes, &metrics, "column");
        let decoded_blocks =
            bh_storage::lru::LruCache::with_metrics(cfg.block_data_bytes, &metrics, "decoded");
        Self {
            id,
            index_cache,
            column_cache,
            decoded_blocks,
            alive: AtomicBool::new(true),
            cfg,
            local_search: metrics.counter("worker.local_search"),
            metrics,
            clock,
        }
    }

    /// This worker's id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Is the worker answering requests?
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    /// Fault injection: the worker stops answering (§II-E).
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Relaxed);
    }

    /// "Failed nodes recover within seconds": restart with cold memory caches.
    pub fn recover(&self) {
        self.index_cache.clear_memory();
        self.column_cache.clear();
        self.decoded_blocks.clear();
        self.alive.store(true, Ordering::Relaxed);
    }

    pub(crate) fn check_alive(&self) -> Result<()> {
        if self.is_alive() {
            Ok(())
        } else {
            Err(BhError::WorkerUnavailable(format!("{}", self.id)))
        }
    }

    /// Is the segment's index resident in this worker's memory cache?
    pub fn index_resident(&self, seg: &SegmentMeta) -> bool {
        self.index_cache.resident(seg.id)
    }

    /// Load a segment's index into this worker's cache.
    pub fn warm_index(&self, seg: &SegmentMeta) -> Result<()> {
        self.check_alive()?;
        self.index_cache.get(seg)?;
        Ok(())
    }

    /// Preload a batch of segments (cache-aware preload, §II-D).
    pub fn preload<'a>(&self, metas: impl IntoIterator<Item = &'a SegmentMeta>) -> Result<usize> {
        self.check_alive()?;
        self.index_cache.preload(metas)
    }

    /// The worker's index cache.
    pub fn index_cache(&self) -> &IndexCache {
        &self.index_cache
    }

    /// The worker's three caches as `system.caches` rows: the index memory
    /// tier, and the decoded-column (`column`) and decoded-block (`decoded`)
    /// LRUs.
    pub fn cache_rows(&self) -> [CacheRow; 3] {
        [
            self.index_cache.cache_row(),
            self.column_cache.cache_row("column"),
            self.decoded_blocks.cache_row("decoded"),
        ]
    }

    /// Serving RPC entry (Fig. 4): run `search` on the segment's index, which
    /// must be resident in this worker's memory cache — a serving peer never
    /// loads. Callers charge the RPC latency themselves.
    pub fn serve_remote<T>(
        &self,
        meta: &SegmentMeta,
        search: impl FnOnce(&dyn VectorIndex) -> Result<T>,
    ) -> Result<T> {
        // The serving RPC's service time, on the statement it is made for:
        // the query log's RPC stage, folded into `worker.rpc_ns`.
        let t = Stopwatch::start();
        let r = (|| {
            self.check_alive()?;
            self.cfg.compute_per_segment.charge(self.clock.as_ref(), 0);
            let mut span = QueryCtx::span("rpc.serve");
            span.attr("segment", meta.id.raw());
            if !self.index_cache.resident(meta.id) {
                span.attr("resident", false);
                return Err(BhError::Rpc(format!(
                    "{}: segment {} not resident for serving",
                    self.id, meta.id
                )));
            }
            let idx = self
                .index_cache
                .get(meta)?
                .ok_or_else(|| BhError::Internal("resident index vanished".into()))?;
            self.metrics.counter("worker.served_remote").inc();
            search(idx.as_ref())
        })();
        QueryCtx::with(|c| c.tally.rpc_ns.add(t.elapsed_nanos()));
        r
    }

    /// Fetch the segment's index through the index cache, waiting out a
    /// transfer in flight or starting one; `None` when the segment has no
    /// index. Counts as one per-segment task for the compute-service-time
    /// model.
    pub fn index_handle(&self, meta: &SegmentMeta) -> Result<Option<Arc<dyn VectorIndex>>> {
        self.check_alive()?;
        self.cfg.compute_per_segment.charge(self.clock.as_ref(), 0);
        self.index_cache.get(meta)
    }

    /// Exact distance scan over the raw vector column: Plan A, and the
    /// answer for a segment that has no index. Distances are
    /// exact, so rows beaten by the shared `bound` are skipped and the local
    /// k-th distance is published back.
    pub fn brute_force_segment_bounded(
        &self,
        table: &TableStore,
        meta: &SegmentMeta,
        query: &[f32],
        k: usize,
        filter: Option<&Bitset>,
        bound: Option<&SharedBound>,
    ) -> Result<Vec<Neighbor>> {
        self.check_alive()?;
        self.cfg.compute_per_segment.charge(self.clock.as_ref(), 0);
        let idx_def = table
            .schema()
            .indexes
            .first()
            .ok_or_else(|| BhError::Plan("table has no vector column/index".into()))?;
        let metric = idx_def.spec.metric;
        let mut out = BoundedTopK::new(k, bound, true);
        // The rows to score, when a filter leaves some out.
        let offsets: Option<Vec<u32>> =
            filter.filter(|f| !f.is_all_set()).map(|f| f.iter().map(|o| o as u32).collect());
        let col = self.read_column(table, meta, &idx_def.column, meta.row_count)?;
        let (data, dim) = vector_data(&col, query)?;
        scan_distances(metric, query, data, dim, offsets.as_deref(), |row, d| {
            out.offer(d, d, row as u64)
        })?;
        Ok(out.finish())
    }

    /// Read a full column: from the decoded-column cache, else assembled
    /// from its blocks ([`Worker::block`]). `query_rows` is the read's size
    /// for the anti-thrashing rule (§IV-C row limit): past it, neither the
    /// column nor its blocks are kept.
    pub fn read_column(
        &self,
        table: &TableStore,
        meta: &SegmentMeta,
        name: &str,
        query_rows: usize,
    ) -> Result<Arc<ColumnData>> {
        self.check_alive()?;
        let (slot, ty) = column_slot(table, name)?;
        // The cache itself reports `cache.column.{hit,miss}` to the registry.
        if let Some(col) = self.column_cache.get(&(meta.id, slot)) {
            return Ok(col);
        }
        let mut out = ColumnData::empty(ty);
        for b in 0..meta.block_count() {
            out.extend_from(&*self.block(table, meta, name, (slot, ty), b, query_rows)?)?;
        }
        let out = Arc::new(out);
        if query_rows <= CACHE_ROW_LIMIT {
            self.column_cache.put((meta.id, slot), out.clone(), out.memory_bytes().max(1));
        }
        Ok(out)
    }

    /// One block of a column, decoded: from the decoded-block cache, else
    /// fetched from the store and decoded, and kept unless the read that
    /// wants it (`query_rows`) is past the anti-thrashing row limit.
    fn block(
        &self,
        table: &TableStore,
        meta: &SegmentMeta,
        name: &str,
        (slot, ty): (usize, ColumnType),
        block: usize,
        query_rows: usize,
    ) -> Result<Arc<ColumnData>> {
        let key = (meta.id, slot, block);
        if let Some(part) = self.decoded_blocks.get(&key) {
            return Ok(part);
        }
        let blob = table.remote_store().get(&meta.block_key(name, block))?;
        let part = Arc::new(ColumnData::decode_block(ty, &blob)?);
        if query_rows <= CACHE_ROW_LIMIT {
            self.decoded_blocks.put(key, part.clone(), part.memory_bytes().max(1));
        }
        Ok(part)
    }

    /// Drop all assembled columns; the next scan reassembles each from its
    /// decoded blocks.
    pub fn invalidate_columns(&self) {
        self.column_cache.clear();
    }

    /// The typed gather: the cells of one column at `offsets`, as a short
    /// typed column in request order — any order, repeats allowed, no
    /// [`Value`] per cell. Refine, materialise and Plan C's row filter all
    /// read through here.
    ///
    /// From the decoded column when it is in cache; otherwise only the
    /// covering blocks are touched — the §IV-C read-amplification
    /// optimization — each resolved once through [`Worker::block`].
    pub fn gather_cells(
        &self,
        table: &TableStore,
        meta: &SegmentMeta,
        name: &str,
        offsets: &[u32],
    ) -> Result<ColumnData> {
        self.check_alive()?;
        let (slot, ty) = column_slot(table, name)?;
        let mut out = ColumnData::empty(ty);
        // Probed without counting: a column that is by design served from
        // decoded blocks is not a miss of the decoded-column cache.
        let key = (meta.id, slot);
        if self.column_cache.contains(&key) {
            if let Some(col) = self.column_cache.get(&key) {
                col.gather_into(offsets, 0, &mut out)?;
                return Ok(out);
            }
        }
        let mut parts: Vec<Option<Arc<ColumnData>>> = vec![None; meta.block_count()];
        let mut rest = offsets;
        while let Some(&first) = rest.first() {
            // One run of consecutive requests inside the same block.
            let block = ColumnData::block_of(first as usize);
            let run =
                rest.iter().take_while(|&&o| ColumnData::block_of(o as usize) == block).count();
            let part = match parts.get_mut(block) {
                Some(Some(part)) => part,
                Some(unresolved) => {
                    let part = self.block(table, meta, name, (slot, ty), block, offsets.len())?;
                    unresolved.insert(part)
                }
                None => {
                    return Err(BhError::Internal(format!(
                        "offset {first} beyond the {} rows of segment {}",
                        meta.row_count, meta.id
                    )))
                }
            };
            part.gather_into(&rest[..run], block * BLOCK_ROWS, &mut out)?;
            rest = &rest[run..];
        }
        Ok(out)
    }

    /// [`Self::gather_cells`] as one [`Value`] per cell.
    pub fn read_cells(
        &self,
        table: &TableStore,
        meta: &SegmentMeta,
        name: &str,
        offsets: &[u32],
    ) -> Result<Vec<Value>> {
        Ok(self.gather_cells(table, meta, name, offsets)?.into_values())
    }

    /// Evaluate a predicate over a segment, returning the qualifying bitset
    /// (visibility is NOT applied here; the executor composes it).
    pub fn eval_predicate(
        &self,
        table: &TableStore,
        meta: &SegmentMeta,
        predicate: &Predicate,
    ) -> Result<Bitset> {
        self.check_alive()?;
        if matches!(predicate, Predicate::True) {
            return Ok(Bitset::full(meta.row_count));
        }
        let needed = predicate.column_refs();
        let columns = needed
            .iter()
            .map(|c| self.read_column(table, meta, c, meta.row_count))
            .collect::<Result<Vec<_>>>()?;
        let refs: Vec<(&str, &ColumnData)> =
            needed.iter().copied().zip(columns.iter().map(Arc::as_ref)).collect();
        predicate.eval_bitset(&refs, meta.row_count)
    }

    /// Exact distances for a candidate set — the refine step (`σ·k·c_d`).
    pub fn refine_distances(
        &self,
        table: &TableStore,
        meta: &SegmentMeta,
        query: &[f32],
        metric: Metric,
        candidates: &[Neighbor],
    ) -> Result<Vec<Neighbor>> {
        self.check_alive()?;
        let idx_def = table
            .schema()
            .indexes
            .first()
            .ok_or_else(|| BhError::Plan("no vector column".into()))?;
        let offsets: Vec<u32> = candidates.iter().map(|n| n.id as u32).collect();
        let cells = self.gather_cells(table, meta, &idx_def.column, &offsets)?;
        let mut out = Vec::with_capacity(candidates.len());
        score_cells(metric, query, &cells, |i, d| out.push(Neighbor::new(candidates[i].id, d)))?;
        out.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        Ok(out)
    }

    /// Start charging an RPC round-trip; returns the clock nanos at which it
    /// completes. With `overlap` enabled that deadline is all the charge is,
    /// so the caller overlaps the wire time with the peer's compute and
    /// `advance_to`s it once the response is needed. Without, the charge is
    /// paid here and the deadline has already passed.
    pub fn charge_rpc_begin(&self, model: &LatencyModel, bytes: usize) -> u64 {
        self.metrics.counter("worker.rpc_calls").inc();
        if self.cfg.overlap {
            return model.deadline(self.clock.as_ref(), bytes);
        }
        model.charge(self.clock.as_ref(), bytes);
        self.clock.now_nanos()
    }
}

/// A column's position in the schema — what the decoded caches key on —
/// and its [`TableSchema::storage_type`](bh_storage::schema::TableSchema::storage_type).
fn column_slot(table: &TableStore, name: &str) -> Result<(usize, ColumnType)> {
    let schema = table.schema();
    let slot = schema
        .column_index(name)
        .ok_or_else(|| BhError::NotFound(format!("column {name}")))?;
    Ok((slot, schema.storage_type(&schema.columns[slot])))
}

/// The raw floats of a vector column, checked against the query's dimension.
fn vector_data<'a>(col: &'a ColumnData, query: &[f32]) -> Result<(&'a [f32], usize)> {
    let (data, dim) =
        col.vector_data().ok_or_else(|| BhError::Internal("vector column expected".into()))?;
    if query.len() != dim {
        return Err(BhError::DimensionMismatch { expected: dim, got: query.len() });
    }
    Ok((data, dim))
}

/// Exact distances from `query` to every cell of a gathered vector column,
/// `visit(i, distance)` in cell order — through the gather kernel, whose
/// bits are the per-row call's on every metric.
fn score_cells(
    metric: Metric,
    query: &[f32],
    cells: &ColumnData,
    visit: impl FnMut(usize, f32),
) -> Result<()> {
    let (data, dim) = vector_data(cells, query)?;
    let all: Vec<u32> = (0..(data.len() / dim) as u32).collect();
    scan_distances(metric, query, data, dim, Some(&all), visit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_common::ids::IdGenerator;
    use bh_common::VirtualClock;
    use bh_storage::objectstore::InMemoryObjectStore;
    use bh_storage::schema::TableSchema;
    use bh_storage::table::{TableStoreConfig, TableStore};
    use bh_storage::value::{ColumnType, Value};
    use bh_vector::{IndexKind, SearchParams};

    fn table(n: usize) -> Arc<TableStore> {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("label", ColumnType::Str)
            .with_column("emb", ColumnType::Vector(4))
            .with_vector_index("i", "emb", IndexKind::Hnsw, 4, bh_vector::Metric::L2);
        // Share one metrics registry between the store and the table so
        // tests can observe object-store fetch counts.
        let metrics = MetricsRegistry::new();
        let ts = TableStore::new(
            schema,
            Arc::new(InMemoryObjectStore::new(
                VirtualClock::shared(),
                bh_common::LatencyModel::ZERO,
                metrics.clone(),
                "test-store",
            )),
            TableStoreConfig { segment_max_rows: 4096, ..Default::default() },
            Arc::new(IdGenerator::new()),
            metrics,
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::UInt64(i as u64),
                    Value::Str(format!("l{}", i % 3)),
                    Value::Vector(vec![i as f32; 4]),
                ]
            })
            .collect();
        ts.insert_rows(rows).unwrap();
        Arc::new(ts)
    }

    fn worker(table: &TableStore, cfg: WorkerConfig) -> Worker {
        Worker::new(
            WorkerId(0),
            cfg,
            table.remote_store().clone(),
            VirtualClock::shared(),
            table.metrics().clone(),
            Arc::default(),
        )
    }

    #[test]
    fn overlapped_rpc_charge_matches_blocking_when_sequential() {
        let t = table(50);
        let model = bh_common::LatencyModel::fixed(std::time::Duration::from_micros(100));
        let elapsed = |overlap: bool| {
            let clock = VirtualClock::shared();
            let w = Worker::new(
                WorkerId(0),
                WorkerConfig { overlap, ..Default::default() },
                t.remote_store().clone(),
                clock.clone(),
                MetricsRegistry::new(),
                Arc::default(),
            );
            clock.advance_to(w.charge_rpc_begin(&model, 10));
            clock.advance_to(w.charge_rpc_begin(&model, 10));
            clock.now_nanos()
        };
        assert_eq!(elapsed(false), 200_000);
        assert_eq!(elapsed(true), 200_000, "sequential charges are time-identical");
    }

    #[test]
    fn serving_rpc_requires_residency() {
        let t = table(100);
        let w = worker(&t, WorkerConfig::default());
        let meta = t.segments()[0].clone();
        let top2 = |idx: &dyn VectorIndex| {
            idx.search_with_bound(&[1.0; 4], 2, &SearchParams::default(), None, None)
        };
        assert!(matches!(w.serve_remote(&meta, top2), Err(BhError::Rpc(_))));
        w.warm_index(&meta).unwrap();
        let got = w.serve_remote(&meta, top2).unwrap();
        assert_eq!(got[0].id, 1);
        assert_eq!(t.metrics().counter_value("worker.served_remote"), 1);
    }

    #[test]
    fn killed_worker_rejects_everything_and_recovers_cold() {
        let t = table(50);
        let w = worker(&t, WorkerConfig::default());
        let meta = t.segments()[0].clone();
        let gets = || t.metrics().counter_value("test-store.get");
        // Warm: the index, a gathered block and an assembled column.
        w.warm_index(&meta).unwrap();
        let read = || {
            w.read_cells(&t, &meta, "id", &[0, 1]).unwrap();
            w.read_column(&t, &meta, "label", meta.row_count).unwrap();
        };
        read();
        let warm = gets();
        read();
        assert_eq!(gets(), warm, "served from the decoded caches");
        w.kill();
        assert!(!w.is_alive());
        let err = w.brute_force_segment_bounded(&t, &meta, &[0.0; 4], 1, None, None).unwrap_err();
        assert!(err.is_retryable());
        assert!(w.index_handle(&meta).is_err());
        assert!(w.warm_index(&meta).is_err());
        w.recover();
        assert!(w.is_alive());
        assert!(!w.index_resident(&meta), "recovered worker starts cold");
        read();
        assert_eq!(gets(), warm + 2, "both reads go to the store again");
    }

    #[test]
    fn read_cells_fine_grained_fetches_fewer_blocks() {
        let t = table(5000);
        let meta = t.segments()[0].clone(); // 4,096 rows: 4 blocks of 1024
        assert_eq!(meta.block_count(), 4);
        let gets = || t.metrics().counter_value("test-store.get");
        let w = worker(&t, WorkerConfig::default());
        let before = gets();
        let cells = w.read_cells(&t, &meta, "id", &[0, 1, 2]).unwrap();
        assert_eq!(cells[2], Value::UInt64(2));
        assert_eq!(gets() - before, 1, "3 adjacent cells live in one block");
        let cold = worker(&t, WorkerConfig::default());
        let before = gets();
        assert_eq!(cold.read_column(&t, &meta, "id", meta.row_count).unwrap().len(), 4096);
        assert_eq!(gets() - before, 4, "a whole column fetches every block");
    }

    /// `read_cells` answers the stored column's cells for every requested
    /// offset in request order — unsorted, repeated, straddling blocks —
    /// whichever cache state serves it, touches each covering block once,
    /// and counts on the decoded-column cache only what that cache did.
    #[test]
    fn read_cells_contract_in_every_cache_state() {
        let t = table(3000); // blocks 0..1024, 1024..2048, 2048..3000
        let meta = t.segments()[0].clone();
        let offs = [1500u32, 3, 1023, 1024, 3, 2999, 1500, 0];
        let expect = |name: &str| -> Vec<Value> {
            let col = t.load_column(&meta, name).unwrap();
            offs.iter().map(|&o| col.get(o as usize)).collect()
        };
        let expected = [expect("id"), expect("label"), expect("emb")];
        let counter = |name: &str| t.metrics().counter_value(name);
        // (column hits, column misses, decoded-block hits, store gets) of `f`.
        let deltas = |f: &dyn Fn()| {
            let names =
                ["cache.column.hit", "cache.column.miss", "cache.decoded.hit", "test-store.get"];
            let before = names.map(counter);
            f();
            let after = names.map(counter);
            [0, 1, 2, 3].map(|i| after[i] - before[i])
        };
        let check = |w: &Worker| {
            for (name, want) in ["id", "label", "emb"].into_iter().zip(&expected) {
                assert_eq!(&w.read_cells(&t, &meta, name, &offs).unwrap(), want, "{name}");
            }
        };

        // Cold blocks: three columns × three covering blocks fetched, each
        // once; the decoded-column cache is not involved at all.
        let w = worker(&t, WorkerConfig::default());
        assert_eq!(deltas(&|| check(&w)), [0, 0, 0, 9]);
        // Decoded blocks: one probe per covering block, no fetch.
        assert_eq!(deltas(&|| check(&w)), [0, 0, 9, 0]);
        // A scan assembles each column from the decoded blocks: a counted
        // miss per column, a hit per block, no fetch.
        let scan = || {
            for name in ["id", "label", "emb"] {
                w.read_column(&t, &meta, name, meta.row_count).unwrap();
            }
        };
        assert_eq!(deltas(&scan), [0, 3, 9, 0]);
        // Column cached: one counted hit per call.
        assert_eq!(deltas(&|| check(&w)), [3, 0, 0, 0]);

        // An offset past the segment is an error, not a panic.
        assert!(w.read_cells(&t, &meta, "id", &[3000]).is_err());
        let cold = worker(&t, WorkerConfig::default());
        assert!(cold.read_cells(&t, &meta, "id", &[5000]).is_err());
    }

    /// Plan A scores the decoded column in place whatever the filter: a
    /// cold worker (which reads the column through the store) and a warm
    /// one return the same rows, distance bits and shared-bound bookkeeping.
    #[test]
    fn brute_force_paths_agree_bit_for_bit() {
        let t = table(3000); // 3 blocks of up to 1024
        let meta = t.segments()[0].clone();
        let (query, k) = ([1234.3f32, 1234.1, 1233.9, 1234.6], 20);
        let scan = |w: &Worker, filter: Option<&Bitset>| {
            let bound = SharedBound::new();
            let hits = w.brute_force_segment_bounded(&t, &meta, &query, k, filter, Some(&bound));
            let bits: Vec<(u64, u32)> =
                hits.unwrap().iter().map(|nb| (nb.id, nb.distance.to_bits())).collect();
            (bits, bound.get().to_bits(), bound.skips())
        };
        let gets = || t.metrics().counter_value("test-store.get");
        let warm = worker(&t, WorkerConfig::default());
        let (all, _, _) = scan(&warm, None);
        assert_eq!(all.len(), k);

        // All set, rows in one block, rows spread over every block.
        let filters = [
            Bitset::full(3000),
            Bitset::from_positions(3000, (1100..1900).step_by(7)),
            Bitset::from_positions(3000, (0..3000).step_by(7)),
        ];
        for filter in &filters {
            let cold = worker(&t, WorkerConfig::default());
            let before = gets();
            let from_cold = scan(&cold, Some(filter));
            assert_eq!(gets() - before, 3, "a cold scan reads the column once");
            let before = gets();
            let from_warm = scan(&warm, Some(filter));
            assert_eq!(gets(), before, "a warm scan reads nothing");
            assert_eq!(from_cold, from_warm);
            // The filtered answer is the unfiltered one's passing rows.
            let expect: Vec<(u64, u32)> =
                all.iter().copied().filter(|&(id, _)| filter.contains(id as usize)).collect();
            assert!(!expect.is_empty());
            assert_eq!(from_warm.0[..expect.len()], expect[..]);
        }
    }

    /// The anti-thrashing row limit (§IV-C): a read past it keeps neither
    /// its column nor its blocks, so a repeat read fetches again.
    #[test]
    fn read_past_row_limit_keeps_neither_column_nor_blocks() {
        let t = table(2000); // 2 blocks
        let w = worker(&t, WorkerConfig::default());
        let meta = t.segments()[0].clone();
        let gets = || t.metrics().counter_value("test-store.get");
        let read = |query_rows: usize| {
            let before = gets();
            w.read_column(&t, &meta, "id", query_rows).unwrap();
            gets() - before
        };
        let entries = || w.cache_rows().map(|(_, _, _, entries, ..)| entries);
        assert_eq!(read(CACHE_ROW_LIMIT + 1), 2);
        assert_eq!(read(CACHE_ROW_LIMIT + 1), 2, "nothing was kept");
        assert_eq!(entries()[1..], [0, 0]);
        // At the limit both are kept: the repeat fetches nothing.
        assert_eq!(read(CACHE_ROW_LIMIT), 2);
        assert_eq!(entries()[1..], [1, 2]);
        assert_eq!(read(CACHE_ROW_LIMIT + 1), 0);
        // Without its column, the next scan reassembles it from the blocks.
        w.invalidate_columns();
        assert_eq!(read(1), 0);
    }

    #[test]
    fn predicate_eval_and_refine() {
        let t = table(300);
        let w = worker(&t, WorkerConfig::default());
        let meta = t.segments()[0].clone();
        let p = Predicate::eq("label", Value::Str("l0".into()));
        let bits = w.eval_predicate(&t, &meta, &p).unwrap();
        assert_eq!(bits.count(), 100);
        // Filtered brute force returns only l0 rows (offsets ≡ 0 mod 3).
        let got = w.brute_force_segment_bounded(&t, &meta, &[4.0; 4], 5, Some(&bits), None).unwrap();
        for nb in &got {
            assert_eq!(nb.id % 3, 0);
        }
        // Refine recomputes exact distances in sorted order.
        let refined = w
            .refine_distances(&t, &meta, &[4.0; 4], bh_vector::Metric::L2, &got)
            .unwrap();
        assert_eq!(refined.len(), got.len());
        for w2 in refined.windows(2) {
            assert!(w2[0].distance <= w2[1].distance);
        }
        assert_eq!(refined[0].id, 3, "closest l0 row to [4,4,4,4] is offset 3");
    }

    #[test]
    fn true_predicate_shortcuts_without_reads() {
        let t = table(100);
        let w = worker(&t, WorkerConfig::default());
        let meta = t.segments()[0].clone();
        let before = t.metrics().counter_value("test-store.get");
        let bits = w.eval_predicate(&t, &meta, &Predicate::True).unwrap();
        assert!(bits.is_all_set());
        assert_eq!(t.metrics().counter_value("test-store.get"), before);
    }

    #[test]
    fn block_cache_serves_repeat_reads() {
        let t = table(2000);
        let w = worker(&t, WorkerConfig::default());
        let meta = t.segments()[0].clone();
        w.read_column(&t, &meta, "id", 10).unwrap();
        let before = t.metrics().counter_value("test-store.get");
        w.read_column(&t, &meta, "id", 10).unwrap();
        assert_eq!(
            t.metrics().counter_value("test-store.get"),
            before,
            "second read must be fully cached"
        );
    }
}
