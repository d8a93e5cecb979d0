//! Virtual warehouses: membership, scaling, serving, retry, preload.
//!
//! A VW is a set of workers plus a multi-probe hash ring mapping segments to
//! workers. The behaviours reproduced from the paper:
//!
//! * **Scaling-friendly allocation** (§II-D): adding/removing workers moves
//!   only the minimal key range; `previous_owner` remembers where each
//!   reassigned segment lived *before* the change that last moved it. The
//!   ring is the one source of truth for ownership; `owners` memoises its
//!   answers and is wiped inside every critical section that changes the ring
//!   or the worker map, so a warm statement resolves an owner with one map
//!   lookup.
//! * **One answer for a segment whose index is not where the query landed**
//!   (§II-D, Fig. 4): [`VirtualWarehouse::segment_index`] resolves, for one
//!   owner and one segment, the index to search — the owner's own, or, while
//!   that is still on its way, the previous owner's over the search RPC
//!   (**vector search serving**, latency charged). The owner's transfer is
//!   the warm: serve first, wait second.
//! * **Query-level retry** (§II-E): a dead worker's task is retried on the
//!   topology with the worker removed.
//! * **Cache-aware preload** (§II-D): new indexes are pushed to the workers
//!   the ring assigns them to.

use crate::hashring::{MultiProbeRing, RING_PROBES};
use crate::worker::{Worker, WorkerConfig};
use bh_common::ids::IdGenerator;
use bh_common::metrics::Counter;
use bh_common::{
    BhError, Bitset, LatencyModel, MetricsRegistry, QueryCtx, Result, SegmentId, SharedClock,
    VwId, WorkerId,
};
use bh_storage::cache::IndexedColumns;
use bh_storage::schema::TableSchema;
use bh_storage::objectstore::SharedObjectStore;
use bh_storage::segment::SegmentMeta;
use bh_storage::table::TableStore;
use bh_vector::{Neighbor, SearchParams, VectorIndex};
use bh_common::sync::{classes, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// VW-level configuration.
#[derive(Debug, Clone)]
pub struct VwConfig {
    /// Enable vector search serving on cache miss.
    pub serving_enabled: bool,
    /// RPC latency model for worker-to-worker serving calls.
    pub rpc: LatencyModel,
    /// Configuration for workers this VW creates.
    pub worker: WorkerConfig,
}

impl Default for VwConfig {
    fn default() -> Self {
        Self { serving_enabled: true, rpc: LatencyModel::ZERO, worker: WorkerConfig::default() }
    }
}

/// The index a segment's searches run on, as resolved for one owner by
/// [`VirtualWarehouse::segment_index`] and searched through
/// [`VirtualWarehouse::search_index`].
pub enum SegmentIndex {
    /// The owner's own: it was resident there, or its transfer has arrived
    /// (waited out, if nobody could serve meanwhile).
    Local(Arc<dyn VectorIndex>),
    /// Resident on this live previous owner while the owner's transfer is in
    /// flight; every search is one serving RPC (Fig. 4).
    Served(Arc<Worker>),
}

/// Entries the owner memo may hold before it is wiped and refilled.
const OWNER_MEMO_CAP: usize = 1 << 16;

/// A virtual warehouse.
pub struct VirtualWarehouse {
    id: VwId,
    name: String,
    cfg: VwConfig,
    remote: SharedObjectStore,
    clock: SharedClock,
    metrics: MetricsRegistry,
    ids: Arc<IdGenerator>,
    workers: RwLock<BTreeMap<WorkerId, Arc<Worker>>>,
    ring: RwLock<MultiProbeRing>,
    /// Segment → its owner before the topology change that last moved it.
    previous_owner: RwLock<HashMap<SegmentId, WorkerId>>,
    /// Memo of `ring.assign_segment` + `workers` lookup, filled by
    /// [`Self::owner_of`] on a miss (under read guards of both) and wiped by
    /// [`Self::change_topology`] (under write guards of both), so an entry
    /// can never outlive the topology it was computed from.
    owners: RwLock<HashMap<SegmentId, (WorkerId, Arc<Worker>)>>,
    /// Which vector column each table's index loads with, shared by every
    /// worker's index cache ([`Self::register_table`]).
    columns: Arc<IndexedColumns>,
    /// `vw.ring_assigns`: multi-probe ring walks actually performed.
    ring_assigns: Arc<Counter>,
}

impl VirtualWarehouse {
    /// An empty warehouse (add workers with [`Self::scale_up`]).
    pub fn new(
        id: VwId,
        name: &str,
        cfg: VwConfig,
        remote: SharedObjectStore,
        clock: SharedClock,
        metrics: MetricsRegistry,
        ids: Arc<IdGenerator>,
    ) -> Self {
        Self {
            id,
            name: name.to_string(),
            cfg,
            remote,
            clock,
            ids,
            workers: RwLock::new(&classes::VW_WORKERS, BTreeMap::new()),
            ring: RwLock::new(&classes::VW_RING, MultiProbeRing::new(RING_PROBES)),
            previous_owner: RwLock::new(&classes::VW_PREV_OWNER, HashMap::new()),
            owners: RwLock::new(&classes::VW_OWNER_MEMO, HashMap::new()),
            columns: Arc::default(),
            ring_assigns: metrics.counter("vw.ring_assigns"),
            metrics,
        }
    }

    /// This warehouse's id.
    pub fn id(&self) -> VwId {
        self.id
    }

    /// This warehouse's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live workers.
    pub fn worker_count(&self) -> usize {
        self.workers.read().len()
    }

    /// Shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Ids of all member workers.
    pub fn worker_ids(&self) -> Vec<WorkerId> {
        self.workers.read().keys().copied().collect()
    }

    /// Look up a member worker.
    pub fn worker(&self, id: WorkerId) -> Result<Arc<Worker>> {
        self.workers
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| BhError::NotFound(format!("{id} in {}", self.name)))
    }

    /// One multi-probe walk of the ring (counted: `vw.ring_assigns`).
    fn walk(&self, ring: &MultiProbeRing, seg: SegmentId) -> Option<WorkerId> {
        self.ring_assigns.inc();
        ring.assign_segment(seg)
    }

    /// The one critical section every membership change runs in: apply
    /// `change` to the worker map and the ring, record for every one of
    /// `known_segments` the change moved who owned it before (serving
    /// consults it; a segment that stayed put keeps what it had, so the
    /// owner it last moved away from survives later changes), and wipe the
    /// owner memo before either write guard is released.
    fn change_topology<T>(
        &self,
        known_segments: &[Arc<SegmentMeta>],
        change: impl FnOnce(&mut BTreeMap<WorkerId, Arc<Worker>>, &mut MultiProbeRing) -> T,
    ) -> T {
        let mut workers = self.workers.write();
        let mut ring = self.ring.write();
        let before: Vec<Option<WorkerId>> =
            known_segments.iter().map(|meta| self.walk(&ring, meta.id)).collect();
        let out = change(&mut workers, &mut ring);
        {
            let mut prev = self.previous_owner.write();
            for (meta, before) in known_segments.iter().zip(before) {
                if let Some(w) = before.filter(|w| self.walk(&ring, meta.id) != Some(*w)) {
                    prev.insert(meta.id, w);
                }
            }
        }
        self.owners.write().clear();
        out
    }

    /// Tell every worker, present and future, which vector column `schema`'s
    /// index loads with, so a cold load of a graph-only blob fetches the
    /// column beside it (untold, the first load learns it from the blob, one
    /// get after the other). Idempotent; the database calls it for every
    /// table and warehouse.
    pub fn register_table(&self, schema: &TableSchema) {
        self.columns.register(schema);
    }

    /// Add a worker (scale up). `known_segments` lets the VW remember the
    /// pre-scaling owners for serving.
    pub fn scale_up(&self, known_segments: &[Arc<SegmentMeta>]) -> WorkerId {
        let wid = self.ids.next_worker();
        let w = Arc::new(Worker::new(
            wid,
            self.cfg.worker.clone(),
            self.remote.clone(),
            self.clock.clone(),
            self.metrics.clone(),
            self.columns.clone(),
        ));
        self.change_topology(known_segments, |workers, ring| {
            workers.insert(wid, w);
            ring.add_worker(wid);
        });
        self.metrics.counter("vw.scale_up").inc();
        wid
    }

    /// Remove a worker (scale down or failure eviction).
    pub fn scale_down(&self, wid: WorkerId, known_segments: &[Arc<SegmentMeta>]) -> Result<()> {
        self.change_topology(known_segments, |workers, ring| match workers.remove(&wid) {
            Some(_) => {
                ring.remove_worker(wid);
                Ok(())
            }
            None => Err(BhError::NotFound(format!("{wid} in {}", self.name))),
        })?;
        self.metrics.counter("vw.scale_down").inc();
        Ok(())
    }

    /// Current owner of a segment.
    pub fn owner_of(&self, meta: &SegmentMeta) -> Result<(WorkerId, Arc<Worker>)> {
        if let Some(owner) = self.owners.read().get(&meta.id) {
            return Ok(owner.clone());
        }
        // Miss: ask the ring. The read guards are held across the memo
        // insert, so a concurrent `change_topology` (which needs both write
        // guards) either finished before this walk or wipes this entry.
        let workers = self.workers.read();
        let ring = self.ring.read();
        let wid = self
            .walk(&ring, meta.id)
            .ok_or_else(|| BhError::WorkerUnavailable(format!("{} has no workers", self.name)))?;
        let worker = workers
            .get(&wid)
            .cloned()
            .ok_or_else(|| BhError::NotFound(format!("{wid} in {}", self.name)))?;
        let mut owners = self.owners.write();
        // Compacted-away segments leave entries behind until the next
        // topology change; a full wipe keeps the memo bounded meanwhile.
        if owners.len() >= OWNER_MEMO_CAP {
            owners.clear();
        }
        owners.insert(meta.id, (wid, worker.clone()));
        drop(owners);
        Ok((wid, worker))
    }

    /// Group segments by their assigned worker.
    pub fn assign(&self, metas: &[Arc<SegmentMeta>]) -> BTreeMap<WorkerId, Vec<Arc<SegmentMeta>>> {
        let ring = self.ring.read();
        let mut out: BTreeMap<WorkerId, Vec<Arc<SegmentMeta>>> = BTreeMap::new();
        for meta in metas {
            if let Some(w) = self.walk(&ring, meta.id) {
                out.entry(w).or_default().push(meta.clone());
            }
        }
        out
    }

    /// Cache-aware preload: push each segment's index to its assigned worker
    /// (same hash as the query scheduler, §II-D). Returns loaded count.
    pub fn preload(&self, metas: &[Arc<SegmentMeta>]) -> Result<usize> {
        let mut n = 0;
        for (wid, segs) in self.assign(metas) {
            let w = self.worker(wid)?;
            n += w.preload(segs.iter().map(|m| m.as_ref()))?;
        }
        Ok(n)
    }

    /// One segment's ANN search with serving + retry (the VW data path).
    pub fn search_segment(
        &self,
        table: &TableStore,
        meta: &Arc<SegmentMeta>,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&Bitset>,
    ) -> Result<Vec<Neighbor>> {
        self.search_segment_bounded(table, meta, query, k, params, filter, None)
    }

    /// [`Self::search_segment`] with an optional shared pruning bound
    /// (DESIGN.md §7).
    #[allow(clippy::too_many_arguments)]
    pub fn search_segment_bounded(
        &self,
        table: &TableStore,
        meta: &Arc<SegmentMeta>,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&Bitset>,
        bound: Option<&bh_common::SharedBound>,
    ) -> Result<Vec<Neighbor>> {
        self.with_segment_retry(meta, |target| match self.segment_index(&target, meta)? {
            Some(index) => self.search_index(&target, meta, &index, query.len() * 4, |idx| {
                idx.search_with_bound(query, k, params, filter, bound)
            }),
            None => target.brute_force_segment_bounded(table, meta, query, k, filter, bound),
        })
    }

    /// Run `f` against the segment's owning worker. On a retryable failure
    /// evict the owner if it is dead and run `f` once more against the new
    /// topology (query-level retry, §II-E).
    pub fn with_segment_retry<T>(
        &self,
        meta: &Arc<SegmentMeta>,
        mut f: impl FnMut(Arc<Worker>) -> Result<T>,
    ) -> Result<T> {
        let (_, worker) = self.owner_of(meta)?;
        match f(worker) {
            Err(e) if e.is_retryable() => {
                self.metrics.counter("vw.query_retries").inc();
                if let Ok((wid, w)) = self.owner_of(meta) {
                    if !w.is_alive() {
                        let _ = self.scale_down(wid, std::slice::from_ref(meta));
                    }
                }
                let (_, worker) = self.owner_of(meta)?;
                f(worker)
            }
            r => r,
        }
    }

    /// The one decision about a segment whose index may not be where the
    /// query landed (§II-D, Fig. 4; DESIGN.md §11.3) — what searches of
    /// `meta` dispatched to `owner` run on:
    ///
    /// | the index is | answer |
    /// |---|---|
    /// | resident on the owner | `Local` |
    /// | pending on the owner, its transfer at its deadline | `Local`, consumed at no wait |
    /// | on its way, and resident on the live previous owner (serving enabled) | `Served`; the transfer runs on |
    /// | on its way, nobody to serve | `Local`, the transfer waited out |
    /// | not there: the segment has none | `None`: exact scan |
    ///
    /// The owner's transfer is its warm. The executor's round starts it early
    /// so a round's transfers overlap; when none is in flight it starts here.
    /// A served task leaves it running, and the first task to find it arrived
    /// consumes it. `worker.brute_force` counts the `None`s.
    pub fn segment_index(
        &self,
        owner: &Arc<Worker>,
        meta: &Arc<SegmentMeta>,
    ) -> Result<Option<SegmentIndex>> {
        owner.check_alive()?;
        if meta.index_kind.is_none() {
            self.metrics.counter("worker.brute_force").inc();
            return Ok(None);
        }
        let cache = owner.index_cache();
        if !cache.resident(meta.id) {
            cache.prefetch(meta)?;
            if self.cfg.serving_enabled && cache.awaits_transfer(meta.id) {
                let previous = self.previous_owner.read().get(&meta.id).copied();
                let peer = previous.and_then(|wid| self.workers.read().get(&wid).cloned());
                if let Some(peer) = peer.filter(|p| p.is_alive() && p.index_resident(meta)) {
                    return Ok(Some(SegmentIndex::Served(peer)));
                }
            }
        }
        Ok(owner.index_handle(meta)?.map(SegmentIndex::Local))
    }

    /// One (statement, segment) search of a resolved index: `search` runs on
    /// the owner's own index directly, on a served one inside one serving RPC
    /// of `request_bytes` — charged on the owner (overlapped with the peer's
    /// search when the owner's `overlap` is set), answered by
    /// [`Worker::serve_remote`] on the peer.
    pub fn search_index<T>(
        &self,
        owner: &Worker,
        meta: &SegmentMeta,
        index: &SegmentIndex,
        request_bytes: usize,
        search: impl FnOnce(&dyn VectorIndex) -> Result<T>,
    ) -> Result<T> {
        match index {
            SegmentIndex::Local(idx) => {
                owner.check_alive()?;
                owner.local_search.inc();
                search(idx.as_ref())
            }
            SegmentIndex::Served(peer) => {
                let mut span = QueryCtx::span("serving");
                span.attr("segment", meta.id.raw());
                span.attr("bytes", request_bytes);
                let rpc_due = owner.charge_rpc_begin(&self.cfg.rpc, request_bytes);
                self.metrics.counter("vw.serving_calls").inc();
                let result = peer.serve_remote(meta, search);
                self.clock.advance_to(rpc_due);
                result
            }
        }
    }

    /// Kill a worker in place (fault injection; stays in the ring until a
    /// retry evicts it, like a real undetected failure).
    pub fn inject_failure(&self, wid: WorkerId) -> Result<()> {
        self.worker(wid)?.kill();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_common::VirtualClock;
    use bh_storage::objectstore::InMemoryObjectStore;
    use bh_storage::schema::TableSchema;
    use bh_storage::table::TableStoreConfig;
    use bh_storage::value::{ColumnType, Value};
    use bh_vector::IndexKind;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn table(n: usize, seg_rows: usize) -> Arc<TableStore> {
        table_on(InMemoryObjectStore::for_tests(), MetricsRegistry::new(), n, seg_rows)
    }

    fn table_on(
        store: SharedObjectStore,
        metrics: MetricsRegistry,
        n: usize,
        seg_rows: usize,
    ) -> Arc<TableStore> {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("emb", ColumnType::Vector(4))
            .with_vector_index("i", "emb", IndexKind::Hnsw, 4, bh_vector::Metric::L2);
        let ts = TableStore::new(
            schema,
            store,
            TableStoreConfig { segment_max_rows: seg_rows, ..Default::default() },
            Arc::new(IdGenerator::new()),
            metrics,
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::UInt64(i as u64), Value::Vector(vec![i as f32; 4])])
            .collect();
        ts.insert_rows(rows).unwrap();
        Arc::new(ts)
    }

    fn vw(table: &TableStore, cfg: VwConfig, n_workers: usize) -> VirtualWarehouse {
        let v = VirtualWarehouse::new(
            VwId(0),
            "test-vw",
            cfg,
            table.remote_store().clone(),
            VirtualClock::shared(),
            table.metrics().clone(),
            Arc::new(IdGenerator::starting_at(100)),
        );
        for _ in 0..n_workers {
            v.scale_up(&[]);
        }
        v
    }

    #[test]
    fn assignment_covers_all_segments() {
        let t = table(500, 50);
        let v = vw(&t, VwConfig::default(), 3);
        let metas = t.segments();
        assert_eq!(metas.len(), 10);
        let groups = v.assign(&metas);
        let total: usize = groups.values().map(|g| g.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(v.worker_count(), 3);
    }

    #[test]
    fn preload_places_indexes_on_assigned_workers() {
        let t = table(400, 50);
        let v = vw(&t, VwConfig::default(), 2);
        let metas = t.segments();
        assert_eq!(v.preload(&metas).unwrap(), metas.len());
        // Every segment is resident exactly on its assigned worker.
        for (wid, segs) in v.assign(&metas) {
            let w = v.worker(wid).unwrap();
            for meta in segs {
                assert!(w.index_resident(&meta));
            }
        }
    }

    #[test]
    fn search_uses_local_index_after_preload() {
        let t = table(300, 300);
        let v = vw(&t, VwConfig::default(), 2);
        let metas = t.segments();
        v.preload(&metas).unwrap();
        let got = v
            .search_segment(&t, &metas[0], &[7.0; 4], 3, &SearchParams::default(), None)
            .unwrap();
        assert_eq!(got[0].id, 7);
        assert_eq!(t.metrics().counter_value("worker.local_search"), 1);
        assert_eq!(t.metrics().counter_value("worker.brute_force"), 0);
    }

    #[test]
    fn cold_segment_waits_out_its_own_transfer_then_is_resident() {
        let t = table(200, 200);
        let v = vw(&t, VwConfig::default(), 1);
        let meta = t.segments()[0].clone();
        let count = |name: &str| t.metrics().counter_value(name);
        let search = || v.search_segment(&t, &meta, &[5.0; 4], 3, &SearchParams::default(), None);
        // Nothing resident, nothing in flight, nobody to serve: the transfer
        // starts inside the decision and is waited out — never an exact scan.
        assert_eq!(search().unwrap()[0].id, 5);
        assert_eq!(count("cache.index.prefetch"), 1);
        assert_eq!(count("cache.index.prefetch.hit"), 1);
        assert!(v.owner_of(&meta).unwrap().1.index_resident(&meta));
        assert_eq!(search().unwrap()[0].id, 5);
        assert_eq!(count("cache.index.prefetch"), 1);
        assert_eq!(count("worker.local_search"), 2);
        assert_eq!(count("worker.brute_force"), 0);
    }

    /// What one get of the moved segment's index blob costs.
    const BLOB_GET: Duration = Duration::from_millis(1);

    /// One 300-row segment behind a store whose gets take
    /// [`BLOB_GET`], preloaded on a one-worker warehouse which then
    /// scaled up until the segment's owner was a cold newcomer.
    fn moved_segment(
        cfg: VwConfig,
    ) -> (Arc<TableStore>, VirtualWarehouse, SharedClock, Arc<SegmentMeta>) {
        let clock = VirtualClock::shared();
        let metrics = MetricsRegistry::new();
        let latency = LatencyModel::fixed(BLOB_GET);
        let store = InMemoryObjectStore::new(clock.clone(), latency, metrics.clone(), "remote");
        let t = table_on(Arc::new(store), metrics, 300, 300);
        let v = VirtualWarehouse::new(
            VwId(0),
            "vw",
            cfg,
            t.remote_store().clone(),
            clock.clone(),
            t.metrics().clone(),
            Arc::new(IdGenerator::starting_at(100)),
        );
        v.scale_up(&[]);
        let metas = t.segments();
        v.preload(&metas).unwrap();
        let meta = metas[0].clone();
        let (old_owner, _) = v.owner_of(&meta).unwrap();
        for _ in 0..20 {
            v.scale_up(&metas);
            let (now_owner, w) = v.owner_of(&meta).unwrap();
            if now_owner != old_owner {
                assert!(!w.index_resident(&meta));
                return (t, v, clock, meta);
            }
        }
        panic!("segment never moved after 20 scale-ups");
    }

    #[test]
    fn previous_owner_serves_until_the_transfer_has_arrived() {
        let rpc = Duration::from_micros(200);
        let (t, v, clock, meta) =
            moved_segment(VwConfig { rpc: LatencyModel::fixed(rpc), ..Default::default() });
        let count = |name: &str| t.metrics().counter_value(name);
        let search = || {
            let t0 = clock.now_nanos();
            let got =
                v.search_segment(&t, &meta, &[5.0; 4], 2, &SearchParams::default(), None).unwrap();
            assert_eq!(got[0].id, 5);
            clock.now_nanos() - t0
        };
        let owner = v.owner_of(&meta).unwrap().1;
        let gets = count("remote.get");
        // Serve first: each search costs one RPC, not the blob get, while the
        // owner's one transfer runs on.
        for served in 1..=2 {
            assert_eq!(search(), rpc.as_nanos() as u64);
            assert_eq!(count("vw.serving_calls"), served);
            assert!(owner.index_cache().in_flight(meta.id) && !owner.index_resident(&meta));
        }
        // One transfer, started once: the blob and the column's one block.
        assert_eq!(count("remote.get") - gets, 2);
        // Wait second — and here not at all: nobody drove the transfer, the
        // clock alone says it has arrived.
        clock.advance(BLOB_GET);
        assert_eq!(search(), 0);
        assert!(owner.index_resident(&meta) && !owner.index_cache().in_flight(meta.id));
        assert_eq!(count("vw.serving_calls"), 2);
        assert_eq!(count("cache.index.prefetch.hit"), 1);
        assert_eq!(count("remote.get") - gets, 2);
        assert_eq!(count("worker.brute_force"), 0, "serving must avoid brute force");
    }

    /// Two scale-ups, no statement between: the change that did not move the
    /// segment must leave its previous owner alone (it used to record the
    /// cold newcomer the segment already sat on, and the search waited).
    #[test]
    fn a_later_scale_up_keeps_the_previous_owner_of_a_segment_it_did_not_move() {
        let rpc = Duration::from_micros(200);
        let (t, v, clock, meta) =
            moved_segment(VwConfig { rpc: LatencyModel::fixed(rpc), ..Default::default() });
        let owner = v.owner_of(&meta).unwrap().0;
        v.scale_up(&t.segments());
        assert_eq!(v.owner_of(&meta).unwrap().0, owner, "the second scale-up moved it again");
        let index = v.segment_index(&v.owner_of(&meta).unwrap().1, &meta).unwrap();
        assert!(matches!(index, Some(SegmentIndex::Served(_))), "waited instead of served");
        let t0 = clock.now_nanos();
        v.search_segment(&t, &meta, &[5.0; 4], 2, &SearchParams::default(), None).unwrap();
        assert_eq!(clock.now_nanos() - t0, rpc.as_nanos() as u64);
        assert_eq!(t.metrics().counter_value("vw.serving_calls"), 1);
    }

    #[test]
    fn overlapped_serving_hides_rpc_behind_peer_compute() {
        // With `overlap` on the target worker, the serving RPC's wire time
        // runs concurrently with the previous owner's search compute:
        // simulated cost is max(rpc, compute), not the sum.
        let run = |overlap: bool| -> u64 {
            let (t, v, clock, meta) = moved_segment(VwConfig {
                rpc: LatencyModel::fixed(Duration::from_micros(200)),
                worker: WorkerConfig {
                    overlap,
                    compute_per_segment: LatencyModel::fixed(Duration::from_micros(300)),
                    ..Default::default()
                },
                ..Default::default()
            });
            let t0 = clock.now_nanos();
            v.search_segment(&t, &meta, &[5.0; 4], 2, &SearchParams::default(), None).unwrap();
            clock.now_nanos() - t0
        };
        assert_eq!(run(false), 500_000, "blocking: rpc then compute");
        assert_eq!(run(true), 300_000, "overlapped: max(rpc, compute)");
    }

    #[test]
    fn with_nobody_to_serve_the_transfer_is_waited_out() {
        for serving_enabled in [false, true] {
            let (t, v, clock, meta) =
                moved_segment(VwConfig { serving_enabled, ..Default::default() });
            if serving_enabled {
                // Serving is on, but the previous owner died.
                let owner = v.owner_of(&meta).unwrap().0;
                for wid in v.worker_ids().into_iter().filter(|w| *w != owner) {
                    v.inject_failure(wid).unwrap();
                }
            }
            let t0 = clock.now_nanos();
            let got =
                v.search_segment(&t, &meta, &[1.0; 4], 1, &SearchParams::default(), None).unwrap();
            assert_eq!(got[0].id, 1);
            assert_eq!(clock.now_nanos() - t0, BLOB_GET.as_nanos() as u64);
            assert_eq!(t.metrics().counter_value("vw.serving_calls"), 0);
            assert_eq!(t.metrics().counter_value("worker.brute_force"), 0);
            assert!(v.owner_of(&meta).unwrap().1.index_resident(&meta));
        }
    }

    #[test]
    fn failed_worker_triggers_query_retry() {
        let t = table(200, 200);
        let v = vw(&t, VwConfig::default(), 3);
        let metas = t.segments();
        v.preload(&metas).unwrap();
        let meta = metas[0].clone();
        let (owner, _) = v.owner_of(&meta).unwrap();
        v.inject_failure(owner).unwrap();
        // The query still succeeds via retry on the shrunken topology.
        let got = v
            .search_segment(&t, &meta, &[3.0; 4], 1, &SearchParams::default(), None)
            .unwrap();
        assert_eq!(got[0].id, 3);
        assert_eq!(t.metrics().counter_value("vw.query_retries"), 1);
        assert_eq!(v.worker_count(), 2, "dead worker evicted");
        let (new_owner, _) = v.owner_of(&meta).unwrap();
        assert_ne!(new_owner, owner);
    }

    #[test]
    fn all_workers_dead_errors_out() {
        let t = table(100, 100);
        let v = vw(&t, VwConfig::default(), 1);
        let metas = t.segments();
        let (owner, _) = v.owner_of(&metas[0]).unwrap();
        v.inject_failure(owner).unwrap();
        let err = v
            .search_segment(&t, &metas[0], &[0.0; 4], 1, &SearchParams::default(), None)
            .unwrap_err();
        assert!(matches!(err, BhError::WorkerUnavailable(_)));
    }

    #[test]
    fn scale_down_redistributes() {
        let t = table(400, 40);
        let v = vw(&t, VwConfig::default(), 3);
        let metas = t.segments();
        let before = v.assign(&metas);
        let victim = *before.keys().next().unwrap();
        v.scale_down(victim, &metas).unwrap();
        let after = v.assign(&metas);
        assert!(!after.contains_key(&victim));
        let total: usize = after.values().map(|g| g.len()).sum();
        assert_eq!(total, metas.len());
        // Segments not owned by the victim stayed put.
        for (wid, segs) in &before {
            if *wid == victim {
                continue;
            }
            for meta in segs {
                let still = after.get(wid).map(|g| g.iter().any(|m| m.id == meta.id));
                assert_eq!(still, Some(true), "segment moved though its worker stayed");
            }
        }
    }

    // ------------------------------------------------------- owner memo

    /// The ring a warehouse rebuilt from scratch with `v`'s membership has.
    fn fresh_ring(v: &VirtualWarehouse) -> MultiProbeRing {
        let mut ring = MultiProbeRing::new(RING_PROBES);
        for wid in v.worker_ids() {
            ring.add_worker(wid);
        }
        ring
    }

    /// `owner_of` must answer exactly what a fresh walk of the ring would.
    fn assert_memo_matches_ring(v: &VirtualWarehouse, metas: &[Arc<SegmentMeta>]) {
        let ring = fresh_ring(v);
        for meta in metas {
            match v.owner_of(meta) {
                Ok((wid, worker)) => {
                    assert_eq!(
                        Some(wid),
                        ring.assign_segment(meta.id),
                        "stale owner for {}",
                        meta.id
                    );
                    assert_eq!(worker.id(), wid);
                }
                Err(_) => assert!(ring.is_empty(), "owner_of failed on a non-empty ring"),
            }
        }
    }

    #[test]
    fn owner_memo_answers_warm_lookups_without_walking_the_ring() {
        let t = table(500, 50);
        let v = vw(&t, VwConfig::default(), 3);
        let metas = t.segments();
        let walks = || t.metrics().counter_value("vw.ring_assigns");
        assert_memo_matches_ring(&v, &metas);
        let after_fill = walks();
        assert_eq!(after_fill, metas.len() as u64, "one walk per segment fills the memo");
        for _ in 0..5 {
            assert_memo_matches_ring(&v, &metas);
        }
        assert_eq!(walks(), after_fill, "warm lookups are memo hits");
        // Any membership change wipes it; the next lookups walk once more.
        v.scale_up(&[]);
        assert_memo_matches_ring(&v, &metas);
        assert_eq!(walks(), after_fill + metas.len() as u64);
    }

    #[derive(Debug, Clone, Copy)]
    enum TopoOp {
        ScaleUp,
        ScaleDown(usize),
        Kill(usize),
        Query(u8),
    }

    fn topo_op() -> impl Strategy<Value = TopoOp> {
        prop_oneof![
            Just(TopoOp::ScaleUp),
            (0usize..8).prop_map(TopoOp::ScaleDown),
            (0usize..8).prop_map(TopoOp::Kill),
            (0u8..40).prop_map(TopoOp::Query),
        ]
    }

    fn shared_table() -> &'static Arc<TableStore> {
        static T: std::sync::OnceLock<Arc<TableStore>> = std::sync::OnceLock::new();
        T.get_or_init(|| table(400, 50))
    }

    /// Per-segment top-3 ids for one query through the VW data path. One
    /// call retries past one dead owner (§II-E); with several workers down a
    /// segment can land on a second dead owner, so ask again like a client
    /// would — every attempt evicts one more.
    fn search_all(v: &VirtualWarehouse, t: &TableStore, q: f32) -> Vec<Vec<u64>> {
        t.segments()
            .iter()
            .map(|meta| {
                let search =
                    || v.search_segment(t, meta, &[q; 4], 3, &SearchParams::default(), None);
                let mut hits = search();
                while matches!(&hits, Err(e) if e.is_retryable()) {
                    hits = search();
                }
                hits.unwrap().iter().map(|nb| nb.id).collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Random scale_up / scale_down / inject_failure / query sequences:
        /// after every step the memoised owner equals a fresh ring walk, a
        /// worker evicted by a retry is never handed out again, and query
        /// results equal those of a warehouse rebuilt from scratch with the
        /// same membership.
        #[test]
        fn owner_memo_tracks_every_topology_change(
            ops in proptest::collection::vec(topo_op(), 1..14)
        ) {
            let t = shared_table();
            let metas = t.segments();
            let v = vw(t, VwConfig::default(), 2);
            // Worker ids are minted sequentially from 100, so a rebuilt
            // warehouse reaches the same membership by minting as many and
            // removing the ones that are gone.
            let mut minted = 2usize;
            let mut killed: Vec<WorkerId> = Vec::new();
            assert_memo_matches_ring(&v, &metas);
            for op in ops {
                let members = v.worker_ids();
                let alive: Vec<WorkerId> =
                    members.iter().copied().filter(|w| !killed.contains(w)).collect();
                match op {
                    TopoOp::ScaleUp => {
                        v.scale_up(&metas);
                        minted += 1;
                    }
                    // Keep one live worker so queries stay answerable.
                    TopoOp::ScaleDown(i) if alive.len() > 1 => {
                        let wid = alive[i % alive.len()];
                        v.scale_down(wid, &metas).unwrap();
                    }
                    TopoOp::Kill(i) if alive.len() > 1 => {
                        let wid = alive[i % alive.len()];
                        v.inject_failure(wid).unwrap();
                        killed.push(wid);
                    }
                    TopoOp::ScaleDown(_) | TopoOp::Kill(_) => {}
                    TopoOp::Query(q) => {
                        // Off-grid query point: no distance ties.
                        let q = q as f32 * 9.7 + 0.137;
                        let got = search_all(&v, t, q);
                        // The retries evicted the dead owners they ran
                        // into; an evicted worker is never handed out again.
                        let members = v.worker_ids();
                        for meta in &metas {
                            let (wid, _) = v.owner_of(meta).unwrap();
                            prop_assert!(
                                members.contains(&wid),
                                "{} routed to evicted {}",
                                meta.id,
                                wid
                            );
                        }
                        let rebuilt = vw(t, VwConfig::default(), minted);
                        for wid in rebuilt.worker_ids() {
                            if !v.worker_ids().contains(&wid) {
                                rebuilt.scale_down(wid, &[]).unwrap();
                            }
                        }
                        prop_assert_eq!(rebuilt.worker_ids(), v.worker_ids());
                        prop_assert_eq!(got, search_all(&rebuilt, t, q));
                    }
                }
                assert_memo_matches_ring(&v, &metas);
            }
        }
    }

    #[test]
    fn concurrent_owner_lookups_and_scaling_respect_lock_order() {
        // Two readers hammer `owner_of` (memo hits, and ring walks that fill
        // the memo under the workers+ring read guards) while a writer scales
        // up and down (write guards, previous-owner update, memo wipe). Run
        // in a debug build or under `--cfg lockdep`, every nested
        // acquisition here is rank-checked at runtime; in any build the
        // final memo must agree with the final ring.
        let t = table(500, 50);
        let v = vw(&t, VwConfig::default(), 2);
        let metas = t.segments();
        let start = std::sync::Barrier::new(3);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    while !stop.load(Ordering::Relaxed) {
                        for meta in &metas {
                            let (wid, worker) = v.owner_of(meta).expect("never empty");
                            assert_eq!(worker.id(), wid);
                        }
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for _ in 0..200 {
                    let wid = v.scale_up(&metas);
                    v.scale_down(wid, &metas).expect("just added");
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
        assert_eq!(v.worker_count(), 2);
        assert_memo_matches_ring(&v, &metas);
    }
}
