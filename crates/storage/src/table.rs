//! The table store: LSM segment management, pipelined ingest, multi-version
//! updates, and compaction.
//!
//! This is the storage-side control plane of BlendHouse. Per table it tracks
//! the live segment set, delete bitmaps, the semantic clusterer and the
//! selectivity sketch; all data lives in the (simulated) remote object store,
//! keeping compute nodes stateless (§II-A).
//!
//! ## Ingest (§V-B1, Table IV)
//!
//! Rows are grouped by (scalar partition, semantic bucket), chunked into
//! segments, and persisted. Two modes exist to reproduce the paper's ingest
//! comparison:
//!
//! * [`IngestMode::Pipelined`] (BlendHouse): each segment's vector index is
//!   built **concurrently** with writing its column blocks.
//! * [`IngestMode::Staged`] (baseline behaviour): all column data is written
//!   first, then indexes are built sequentially.
//!
//! ## Updates (Fig. 6)
//!
//! `update` writes new row versions into fresh segments and marks the old
//! offsets in the delete bitmap — the index of an old segment is never
//! touched. `compact` merges small segments, drops dead rows, rebuilds the
//! vector index for the merged segment, and clears bitmaps.

use crate::delete::DeleteMap;
use crate::objectstore::SharedObjectStore;
use crate::partition::{group_rows, SemanticClusterer};
use crate::predicate::Predicate;
use crate::schema::TableSchema;
use crate::segment::{Row, Segment, SegmentMeta};
use crate::stats::{TableSketch, TableSketchBuilder};
use crate::value::Value;
use bh_common::ids::IdGenerator;
use bh_common::{BhError, Bitset, MetricsRegistry, QueryCtx, Result, SegmentId, Stopwatch};
use bh_vector::autoindex::apply_auto_index;
use bh_vector::{build_pool, IndexKind, IndexRegistry, VectorIndex};
use bytes::Bytes;
use bh_common::sync::{classes, Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How ingest overlaps segment writing with index building.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Build each segment's index concurrently with persisting its columns.
    Pipelined,
    /// Persist every segment first, then build all indexes sequentially.
    Staged,
}

/// Tunables for one table store.
#[derive(Debug, Clone)]
pub struct TableStoreConfig {
    /// Maximum rows per freshly ingested segment.
    pub segment_max_rows: usize,
    /// Overlap segment writes with index builds, or stage them.
    pub ingest_mode: IngestMode,
    /// Compaction merges a group only while the merged segment stays below
    /// this row count.
    pub compact_target_rows: usize,
    /// Maximum threads rebuilding merged segments (row gather + index
    /// build) concurrently during [`TableStore::compact`], out of the
    /// process-wide [`build_pool`]. `1` keeps the rebuild sequential; the
    /// default is the machine's parallelism.
    pub compact_parallelism: usize,
}

impl Default for TableStoreConfig {
    fn default() -> Self {
        Self {
            segment_max_rows: 2048,
            ingest_mode: IngestMode::Pipelined,
            compact_target_rows: 64 * 1024,
            compact_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Seed of the semantic clusterer's k-means.
const SEMANTIC_SEED: u64 = 0;

/// A built index blob ready to upload, and its kind.
type IndexBlob = (Bytes, bh_vector::IndexKind);

/// One compacted group staged by the parallel rebuild phase: rows dropped,
/// bytes uploaded, and the merged segment with its index blob, ready to
/// commit (`None` when every row of the group was deleted).
type RebuiltGroup = (usize, u64, Option<(Segment, Option<IndexBlob>)>);

/// Outcome of one compaction run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CompactionReport {
    /// Segments consumed by this pass.
    pub merged_segments: usize,
    /// Segments written by this pass.
    pub new_segments: usize,
    /// Dead (deleted/superseded) rows garbage-collected.
    pub rows_dropped: usize,
}

/// One table's storage state.
pub struct TableStore {
    schema: TableSchema,
    remote: SharedObjectStore,
    cfg: TableStoreConfig,
    segments: RwLock<BTreeMap<SegmentId, Arc<SegmentMeta>>>,
    deletes: DeleteMap,
    clusterer: RwLock<Option<Arc<SemanticClusterer>>>,
    sketch: Mutex<TableSketchBuilder>,
    /// Memoized sketch snapshot — rebuilding histograms per query would
    /// serialize the whole planner; invalidated on ingest.
    sketch_cache: RwLock<Option<Arc<TableSketch>>>,
    /// Serializes compaction runs: two concurrent passes over the same
    /// group would both materialize its rows and register duplicates.
    compaction_lock: Mutex<()>,
    ids: Arc<IdGenerator>,
    metrics: MetricsRegistry,
}

impl TableStore {
    /// An empty table persisting to `remote`.
    pub fn new(
        schema: TableSchema,
        remote: SharedObjectStore,
        cfg: TableStoreConfig,
        ids: Arc<IdGenerator>,
        metrics: MetricsRegistry,
    ) -> Result<TableStore> {
        schema.validate()?;
        Ok(TableStore {
            schema,
            remote,
            cfg,
            segments: RwLock::new(&classes::TABLE_SEGMENTS, BTreeMap::new()),
            deletes: DeleteMap::new(),
            clusterer: RwLock::new(&classes::TABLE_CLUSTERER, None),
            sketch: Mutex::new(&classes::TABLE_SKETCH, TableSketchBuilder::default()),
            sketch_cache: RwLock::new(&classes::TABLE_SKETCH_CACHE, None),
            compaction_lock: Mutex::new(&classes::TABLE_COMPACTION, ()),
            ids,
            metrics,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The remote store this table persists to.
    pub fn remote_store(&self) -> &SharedObjectStore {
        &self.remote
    }

    /// Shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Snapshot of live segment metadata.
    pub fn segments(&self) -> Vec<Arc<SegmentMeta>> {
        self.segments.read().values().cloned().collect()
    }

    /// Look up one live segment's metadata.
    pub fn segment(&self, id: SegmentId) -> Result<Arc<SegmentMeta>> {
        self.segments
            .read_checked()?
            .get(&id)
            .cloned()
            .ok_or_else(|| BhError::NotFound(format!("segment {id}")))
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.segments.read().len()
    }

    /// Total live (visible) rows.
    pub fn visible_rows(&self) -> usize {
        self.segments
            .read()
            .values()
            .map(|m| m.row_count - self.deletes.deleted_count(m.id))
            .sum()
    }

    /// The table's delete bitmaps.
    pub fn delete_map(&self) -> &DeleteMap {
        &self.deletes
    }

    /// Visibility bitset of a segment (live rows set).
    pub fn visibility(&self, meta: &SegmentMeta) -> Bitset {
        self.deletes.visibility(meta.id, meta.row_count)
    }

    /// Current selectivity sketch (histograms) for the optimizer. Snapshots
    /// are memoized between ingests.
    pub fn sketch(&self) -> Arc<TableSketch> {
        if let Some(s) = self.sketch_cache.read().clone() {
            return s;
        }
        let built = Arc::new(self.sketch.lock().snapshot());
        *self.sketch_cache.write() = Some(built.clone());
        built
    }

    /// The semantic clusterer, once trained.
    pub fn clusterer(&self) -> Option<Arc<SemanticClusterer>> {
        self.clusterer.read().clone()
    }

    // ------------------------------------------------------------------ ingest

    /// Insert rows; returns the created segment ids.
    pub fn insert_rows(&self, rows: Vec<Row>) -> Result<Vec<SegmentId>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        for row in &rows {
            self.schema.validate_row(row)?;
        }
        self.observe_sketch(&rows);
        self.ensure_clusterer(&rows)?;
        let clusterer = self.clusterer();
        let groups = group_rows(&self.schema, clusterer.as_deref(), rows)?;

        // Materialize all segments (in memory) first.
        let mut pending: Vec<Segment> = Vec::new();
        for group in groups {
            let mut rows = group.rows;
            while !rows.is_empty() {
                let take = rows.len().min(self.cfg.segment_max_rows);
                let chunk: Vec<Row> = rows.drain(..take).collect();
                let seg = Segment::from_rows(
                    &self.schema,
                    self.ids.next_segment(),
                    chunk,
                    group.partition_key.clone(),
                    group.bucket,
                    0,
                )?;
                pending.push(seg);
            }
        }

        let created = match self.cfg.ingest_mode {
            IngestMode::Pipelined => self.ingest_pipelined(pending)?,
            IngestMode::Staged => self.ingest_staged(pending)?,
        };
        self.metrics.counter("table.segments_created").add(created.len() as u64);
        Ok(created)
    }

    /// Pipelined: per segment, column persistence and index build overlap.
    fn ingest_pipelined(&self, pending: Vec<Segment>) -> Result<Vec<SegmentId>> {
        let mut created = Vec::with_capacity(pending.len());
        for mut seg in pending {
            let index_blob: Option<IndexBlob> =
                std::thread::scope(|scope| -> Result<_> {
                    let build = scope.spawn(|| self.build_index_blob(&seg));
                    seg.persist(self.remote.as_ref())?;
                    build.join().map_err(|_| BhError::Internal("index build panicked".into()))?
                })?;
            self.finish_segment(&mut seg, index_blob)?;
            created.push(seg.meta.id);
        }
        Ok(created)
    }

    /// Staged: write all column data, then build indexes one by one.
    fn ingest_staged(&self, pending: Vec<Segment>) -> Result<Vec<SegmentId>> {
        for seg in &pending {
            seg.persist(self.remote.as_ref())?;
        }
        let mut created = Vec::with_capacity(pending.len());
        for mut seg in pending {
            let blob = self.build_index_blob(&seg)?;
            self.finish_segment(&mut seg, blob)?;
            created.push(seg.meta.id);
        }
        Ok(created)
    }

    /// Build the per-segment vector index blob, if the schema declares an
    /// index structure. A FLAT segment has none: its column is the index.
    fn build_index_blob(&self, seg: &Segment) -> Result<Option<IndexBlob>> {
        let Some(idx_def) = self.schema.indexes.first() else { return Ok(None) };
        if idx_def.spec.kind == IndexKind::Flat || seg.row_count() == 0 {
            return Ok(None);
        }
        let col = seg.column(&idx_def.column)?;
        let (data, dim) = col
            .vector_data()
            .ok_or_else(|| BhError::Internal("index column is not a vector".into()))?;
        if dim == 0 {
            return Ok(None);
        }
        // Missing IVF `nlist` is filled from the segment's size (§III-B).
        let spec = apply_auto_index(&idx_def.spec, seg.row_count());
        let mut builder = IndexRegistry.create_builder(&spec)?;
        let t = Stopwatch::start();
        if builder.requires_training() {
            builder.train(data)?;
        }
        self.metrics.histogram("table.index_train_ns").record(t.elapsed());
        let t = Stopwatch::start();
        let ids: Vec<u64> = (0..seg.row_count() as u64).collect();
        builder.add_with_ids(data, &ids)?;
        let index = builder.finish()?;
        self.metrics.histogram("table.index_add_ns").record(t.elapsed());
        let t = Stopwatch::start();
        let blob = index.save_bytes()?;
        self.metrics.histogram("table.index_serialize_ns").record(t.elapsed());
        Ok(Some((blob, spec.kind)))
    }

    /// Persist index + final metadata and register the segment.
    fn finish_segment(&self, seg: &mut Segment, index_blob: Option<IndexBlob>) -> Result<()> {
        if let Some((blob, kind)) = index_blob {
            seg.meta.index_kind = Some(kind);
            seg.meta.index_bytes = blob.len() as u64;
            self.remote.put(&seg.meta.index_key(), blob)?;
            // Re-persist meta with the index information included.
            let meta_json = serde_json::to_vec(&seg.meta)
                .map_err(|e| BhError::Serde(format!("segment meta encode: {e}")))?;
            self.remote.put(&seg.meta.meta_key(), meta_json.into())?;
        }
        self.metrics.counter("table.rows_ingested").add(seg.row_count() as u64);
        self.segments.write().insert(seg.meta.id, Arc::new(seg.meta.clone()));
        Ok(())
    }

    fn observe_sketch(&self, rows: &[Row]) {
        let mut sk = self.sketch.lock();
        for row in rows {
            for (cell, def) in row.iter().zip(&self.schema.columns) {
                sk.observe(&def.name, def.ty, cell);
            }
        }
        sk.observe_row_count(rows.len() as u64);
        drop(sk);
        *self.sketch_cache.write() = None;
    }

    /// Train the semantic clusterer lazily on the first ingest batch.
    fn ensure_clusterer(&self, rows: &[Row]) -> Result<()> {
        let Some(cb) = &self.schema.cluster_by else { return Ok(()) };
        if self.clusterer.read().is_some() {
            return Ok(());
        }
        let idx = self
            .schema
            .column_index(&cb.column)
            .ok_or_else(|| BhError::NotFound(format!("cluster column {}", cb.column)))?;
        let mut embs = Vec::new();
        let mut dim = 0;
        for row in rows {
            if let Some(v) = row[idx].as_vector() {
                dim = v.len();
                embs.extend_from_slice(v);
            }
        }
        if dim == 0 || embs.is_empty() {
            return Ok(());
        }
        let cl = SemanticClusterer::train(&embs, dim, cb.buckets, SEMANTIC_SEED)?;
        *self.clusterer.write() = Some(Arc::new(cl));
        Ok(())
    }

    // ----------------------------------------------------------------- access

    /// Load a full segment from the remote store (workers layer their own
    /// caches on top; this is the uncached path).
    pub fn load_segment(&self, meta: &SegmentMeta) -> Result<Segment> {
        Segment::load(self.remote.as_ref(), &self.schema, meta)
    }

    /// Load one column of a segment from the remote store.
    pub fn load_column(&self, meta: &SegmentMeta, name: &str) -> Result<crate::column::ColumnData> {
        Segment::load_column(self.remote.as_ref(), &self.schema, meta, name)
    }

    /// Load and deserialize a segment's vector index (uncached).
    pub fn load_index(&self, meta: &SegmentMeta) -> Result<Option<Arc<dyn VectorIndex>>> {
        let Some(kind) = meta.index_kind else { return Ok(None) };
        let blob = self.remote.get(&meta.index_key())?;
        Ok(Some(IndexRegistry.load_blob(kind, &blob)?))
    }

    // ---------------------------------------------------------------- updates

    /// Delete all visible rows matching `predicate`; returns deleted count.
    /// Retries when the segment snapshot races a concurrent compaction.
    pub fn delete_where(&self, predicate: &Predicate) -> Result<usize> {
        for _attempt in 0..3 {
            match self.delete_where_once(predicate) {
                Err(e) if e.is_snapshot_race() => continue,
                other => return other,
            }
        }
        self.delete_where_once(predicate)
    }

    fn delete_where_once(&self, predicate: &Predicate) -> Result<usize> {
        let mut total = 0;
        for meta in self.segments() {
            let offsets = self.matching_offsets(&meta, predicate)?;
            // The segment may have been compacted away while we scanned it;
            // marking deletes on a dropped segment would be lost. Re-check
            // membership under the current catalog before marking.
            if self.segments.read_checked()?.contains_key(&meta.id) {
                total += offsets.len();
                if !offsets.is_empty() {
                    self.deletes.mark_deleted(meta.id, meta.row_count, offsets);
                }
            } else if !offsets.is_empty() {
                return Err(BhError::NotFound(format!("segment {} compacted away", meta.id)));
            }
        }
        self.metrics.counter("table.rows_deleted").add(total as u64);
        Ok(total)
    }

    /// Update all visible rows matching `predicate` by applying column
    /// assignments; the new versions are re-inserted (Fig. 6). Returns the
    /// number of updated rows.
    pub fn update_where(
        &self,
        predicate: &Predicate,
        assignments: &[(String, Value)],
    ) -> Result<usize> {
        for _attempt in 0..3 {
            match self.update_where_once(predicate, assignments) {
                Err(e) if e.is_snapshot_race() => continue,
                other => return other,
            }
        }
        self.update_where_once(predicate, assignments)
    }

    fn update_where_once(
        &self,
        predicate: &Predicate,
        assignments: &[(String, Value)],
    ) -> Result<usize> {
        for (col, v) in assignments {
            let def = self
                .schema
                .column(col)
                .ok_or_else(|| BhError::NotFound(format!("update column {col}")))?;
            if !v.conforms_to(def.ty) && !matches!(def.ty, crate::value::ColumnType::Vector(0)) {
                return Err(BhError::InvalidArgument(format!(
                    "update value {v} does not fit column {col}"
                )));
            }
        }
        let mut new_rows: Vec<Row> = Vec::new();
        let mut to_mark: Vec<(SegmentId, usize, Vec<u32>)> = Vec::new();
        for meta in self.segments() {
            let offsets = self.matching_offsets(&meta, predicate)?;
            if offsets.is_empty() {
                continue;
            }
            let seg = self.load_segment(&meta)?;
            for &o in &offsets {
                let mut row = seg.row(&self.schema, o as usize);
                for (col, v) in assignments {
                    let idx = self
                        .schema
                        .column_index(col)
                        .ok_or_else(|| BhError::NotFound(format!("update column {col}")))?;
                    row[idx] = v.clone();
                }
                new_rows.push(row);
            }
            to_mark.push((meta.id, meta.row_count, offsets));
        }
        let updated = new_rows.len();
        if updated == 0 {
            return Ok(0);
        }
        // Write the new versions first, then hide the old ones — a reader
        // may briefly see both versions but never neither (the paper's
        // multi-version semantics; exact snapshot isolation is out of scope).
        self.insert_rows(new_rows)?;
        for (seg, rows, offsets) in to_mark {
            self.deletes.mark_deleted(seg, rows, offsets);
        }
        self.metrics.counter("table.rows_updated").add(updated as u64);
        Ok(updated)
    }

    /// Row offsets of a segment that are visible and satisfy `predicate`.
    fn matching_offsets(&self, meta: &SegmentMeta, predicate: &Predicate) -> Result<Vec<u32>> {
        if !predicate.may_match_stats(&meta.column_stats) {
            return Ok(Vec::new());
        }
        let needed = predicate.column_refs();
        let columns =
            needed.iter().map(|c| self.load_column(meta, c)).collect::<Result<Vec<_>>>()?;
        let refs: Vec<_> = needed.iter().copied().zip(&columns).collect();
        let mut bits = predicate.eval_bitset(&refs, meta.row_count)?;
        bits.intersect_with(&self.visibility(meta));
        Ok(bits.iter().map(|o| o as u32).collect())
    }

    // ------------------------------------------------------------- compaction

    /// Merge small segments group-by-group, dropping dead rows and building a
    /// fresh vector index per merged segment.
    ///
    /// The per-group rebuild (row gather, merged-segment construction, index
    /// build, blob upload) is the expensive part and touches only that
    /// group's disjoint segment set, so it fans out across up to
    /// `compact_parallelism` threads of the build pool. Catalog mutations — registering
    /// the merged segment, dropping the old ones, garbage-collecting blobs —
    /// commit afterwards in group order, exactly as the sequential loop did.
    pub fn compact(&self) -> Result<CompactionReport> {
        let _guard = self.compaction_lock.lock();
        let started = Stopwatch::start();
        let mut compact_span = QueryCtx::span("compact");
        let snapshot = self.segments();
        // Group by (partition key, bucket).
        let mut groups: BTreeMap<(String, Option<u32>), Vec<Arc<SegmentMeta>>> = BTreeMap::new();
        for meta in snapshot {
            let key = (
                serde_json::to_string(&meta.partition_key)
                    .map_err(|e| BhError::Serde(e.to_string()))?,
                meta.cluster_bucket,
            );
            groups.entry(key).or_default().push(meta);
        }

        // Phase 1: pick the eligible groups and pre-assign each merged
        // segment's id, so id allocation stays in deterministic group order
        // regardless of which rebuild finishes first.
        let mut jobs: Vec<(Vec<Arc<SegmentMeta>>, SegmentId)> = Vec::new();
        for (_, metas) in groups {
            let has_deletes = metas.iter().any(|m| self.deletes.deleted_count(m.id) > 0);
            if metas.len() < 2 && !has_deletes {
                continue;
            }
            let visible: usize =
                metas.iter().map(|m| m.row_count - self.deletes.deleted_count(m.id)).sum();
            if visible > self.cfg.compact_target_rows {
                continue;
            }
            jobs.push((metas, self.ids.next_segment()));
        }
        if jobs.is_empty() {
            self.metrics.counter("table.compactions").inc();
            return Ok(CompactionReport::default());
        }

        // Phase 2: rebuild groups side by side on the build pool, this thread
        // first. A failure stops further claims; groups already claimed
        // finish and the first error in group order surfaces below.
        if jobs.len() > 1 && self.cfg.compact_parallelism > 1 {
            self.metrics.counter("table.parallel_compact_groups").add(jobs.len() as u64);
        }
        let rebuilt = build_pool().run(jobs.len(), self.cfg.compact_parallelism, |i| {
            self.rebuild_group(&jobs[i].0, jobs[i].1)
        });
        if rebuilt.panicked {
            return Err(BhError::Internal("compaction worker panicked".into()));
        }

        // Phase 3: commit in group order.
        let mut report = CompactionReport::default();
        let mut bytes_rewritten = 0;
        for ((metas, _), slot) in jobs.iter().zip(rebuilt.results) {
            let (dropped, bytes, built) = match slot {
                Some(Ok(r)) => r,
                Some(Err(e)) => return Err(e),
                None => {
                    return Err(BhError::Internal(
                        "compaction aborted by peer failure".into(),
                    ))
                }
            };
            bytes_rewritten += bytes;
            let new_segments = match built {
                Some((mut seg, blob)) => {
                    self.finish_segment(&mut seg, blob)?;
                    1
                }
                None => 0,
            };
            // Swap: register new (done above), drop old.
            {
                let mut g = self.segments.write_checked()?;
                for meta in metas {
                    g.remove(&meta.id);
                }
            }
            for meta in metas {
                self.deletes.clear(meta.id);
                Segment::delete_blobs(self.remote.as_ref(), meta)?;
            }
            report.merged_segments += metas.len();
            report.new_segments += new_segments;
            report.rows_dropped += dropped;
        }
        self.metrics.counter("table.compactions").inc();
        self.metrics.counter("table.compact_bytes_rewritten").add(bytes_rewritten);
        self.metrics.histogram("table.compact_ns").record(started.elapsed());
        compact_span.attr("merged_segments", report.merged_segments);
        compact_span.attr("new_segments", report.new_segments);
        compact_span.attr("rows_dropped", report.rows_dropped);
        Ok(report)
    }

    /// The catalog-read-only part of compacting one group: gather visible
    /// rows, build the merged segment and its index, and upload the column
    /// blobs. Returns the dropped-row count plus the staged segment (`None`
    /// when the whole group is deleted).
    fn rebuild_group(
        &self,
        metas: &[Arc<SegmentMeta>],
        new_id: SegmentId,
    ) -> Result<RebuiltGroup> {
        let mut rows: Vec<Row> = Vec::new();
        let mut dropped = 0;
        for meta in metas {
            let seg = self.load_segment(meta)?;
            let vis = self.visibility(meta);
            dropped += meta.row_count - vis.count();
            for o in vis.iter() {
                rows.push(seg.row(&self.schema, o));
            }
        }
        if rows.is_empty() {
            return Ok((dropped, 0, None));
        }
        let level = metas.iter().map(|m| m.level).max().unwrap_or(0).saturating_add(1);
        let partition_key = metas[0].partition_key.clone();
        let bucket = metas[0].cluster_bucket;
        let seg =
            Segment::from_rows(&self.schema, new_id, rows, partition_key, bucket, level)?;
        let blob = self.build_index_blob(&seg)?;
        let bytes = seg.persist(self.remote.as_ref())?
            + blob.as_ref().map_or(0, |(blob, ..)| blob.len() as u64);
        Ok((dropped, bytes, Some((seg, blob))))
    }

    // -------------------------------------------------------------- reload

    /// Rebuild the segment catalog from the remote store (cold start). Delete
    /// bitmaps are not persisted in this reproduction — reload assumes
    /// compaction ran before shutdown (documented in DESIGN.md).
    pub fn reload_from_store(&self) -> Result<usize> {
        let prefix = format!("tables/{}/", self.schema.name);
        let mut found = 0;
        let mut g = self.segments.write_checked()?;
        g.clear();
        for key in self.remote.list(&prefix) {
            if !key.ends_with("/meta") {
                continue;
            }
            let blob = self.remote.get(&key)?;
            let meta: SegmentMeta = serde_json::from_slice(&blob)
                .map_err(|e| BhError::Serde(format!("segment meta: {e}")))?;
            g.insert(meta.id, Arc::new(meta));
            found += 1;
        }
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectstore::InMemoryObjectStore;
    use crate::value::ColumnType;
    use bh_common::rng::rng;
    use bh_vector::{IndexKind, Metric, SearchParams};
    use rand::Rng;

    fn schema(buckets: Option<usize>) -> TableSchema {
        let mut s = TableSchema::new("images")
            .with_column("id", ColumnType::UInt64)
            .with_column("label", ColumnType::Str)
            .with_column("score", ColumnType::Float64)
            .with_column("emb", ColumnType::Vector(8))
            .with_order_by(&["id"])
            .with_partition_by(&["label"])
            .with_vector_index("ann", "emb", IndexKind::Hnsw, 8, Metric::L2);
        if let Some(b) = buckets {
            s = s.with_cluster_by("emb", b);
        }
        s
    }

    fn store(schema: TableSchema, cfg: TableStoreConfig) -> TableStore {
        TableStore::new(
            schema,
            InMemoryObjectStore::for_tests(),
            cfg,
            Arc::new(IdGenerator::new()),
            MetricsRegistry::new(),
        )
        .unwrap()
    }

    fn mk_rows(n: usize, seed: u64) -> Vec<Row> {
        let mut r = rng(seed);
        (0..n)
            .map(|i| {
                let cluster = (i % 4) as f32 * 8.0;
                vec![
                    Value::UInt64(i as u64),
                    Value::Str(format!("l{}", i % 2)),
                    Value::Float64(r.gen::<f64>()),
                    Value::Vector((0..8).map(|_| cluster + r.gen::<f32>() - 0.5).collect()),
                ]
            })
            .collect()
    }

    /// Satellite: poisoning the segment catalog fails the fallible lookup
    /// with `BhError::LockPoisoned` naming the class, while the infallible
    /// accessors recover (and heal), so the table keeps serving.
    #[test]
    fn poisoned_segment_catalog_is_reported_then_healed() {
        let ts = store(schema(None), TableStoreConfig::default());
        let ids = ts.insert_rows(mk_rows(20, 7)).unwrap();
        let seg = ids[0];

        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = ts.segments.write();
            panic!("die holding the segment catalog");
        }));
        assert!(died.is_err());

        match ts.segment(seg) {
            Err(BhError::LockPoisoned(class)) => assert_eq!(class, "TABLE_SEGMENTS"),
            other => panic!("expected LockPoisoned, got {other:?}"),
        }
        // The infallible read recovers, heals the lock, and still serves…
        assert!(!ts.segments().is_empty());
        // …after which the checked path works again.
        assert_eq!(ts.segment(seg).unwrap().id, seg);
    }

    #[test]
    fn ingest_creates_partitioned_indexed_segments() {
        let ts = store(schema(None), TableStoreConfig { segment_max_rows: 100, ..Default::default() });
        let ids = ts.insert_rows(mk_rows(350, 1)).unwrap();
        // 2 labels × ceil(175/100) segments each = 4.
        assert_eq!(ids.len(), 4);
        assert_eq!(ts.segment_count(), 4);
        assert_eq!(ts.visible_rows(), 350);
        for meta in ts.segments() {
            assert_eq!(meta.index_kind, Some(IndexKind::Hnsw));
            assert!(meta.index_bytes > 0);
            assert_eq!(meta.partition_key.len(), 1);
            assert!(meta.centroid.is_some());
            // Index loads and searches.
            let idx = ts.load_index(&meta).unwrap().unwrap();
            assert_eq!(idx.meta().len, meta.row_count);
            let q = meta.centroid.clone().unwrap();
            let got = idx.search_with_bound(&q, 3, &SearchParams::default(), None, None).unwrap();
            assert!(!got.is_empty());
        }
    }

    #[test]
    fn staged_and_pipelined_produce_equivalent_state() {
        for mode in [IngestMode::Pipelined, IngestMode::Staged] {
            let ts = store(
                schema(None),
                TableStoreConfig { segment_max_rows: 64, ingest_mode: mode, ..Default::default() },
            );
            ts.insert_rows(mk_rows(200, 2)).unwrap();
            assert_eq!(ts.visible_rows(), 200, "{mode:?}");
            for meta in ts.segments() {
                assert!(meta.index_kind.is_some(), "{mode:?}");
                // Meta persisted in store matches catalog.
                let persisted =
                    Segment::load_meta(ts.remote_store().as_ref(), "images", meta.id).unwrap();
                assert_eq!(&persisted, meta.as_ref());
            }
        }
    }

    #[test]
    fn semantic_clustering_buckets_segments() {
        let ts = store(schema(Some(4)), TableStoreConfig::default());
        ts.insert_rows(mk_rows(400, 3)).unwrap();
        let cl = ts.clusterer().expect("trained on first batch");
        assert_eq!(cl.buckets(), 4);
        let metas = ts.segments();
        // Every segment has a bucket; rows inside agree with the clusterer.
        for meta in &metas {
            let b = meta.cluster_bucket.expect("bucketed");
            let seg = ts.load_segment(meta).unwrap();
            let (data, dim) = seg.columns["emb"].vector_data().unwrap();
            for i in 0..seg.row_count() {
                assert_eq!(cl.assign(&data[i * dim..(i + 1) * dim]).unwrap(), b);
            }
        }
        // Labels alternate with parity, clusters cycle mod 4, so each label
        // co-occurs with exactly 2 of the 4 buckets → 4 groups.
        assert_eq!(metas.len(), 4);
    }

    #[test]
    fn delete_where_hides_rows() {
        let ts = store(schema(None), TableStoreConfig::default());
        ts.insert_rows(mk_rows(100, 4)).unwrap();
        let n = ts
            .delete_where(&Predicate::range("id", None, Some(Value::UInt64(9))))
            .unwrap();
        assert_eq!(n, 10);
        assert_eq!(ts.visible_rows(), 90);
        // Deleting again is a no-op (already invisible).
        let again = ts
            .delete_where(&Predicate::range("id", None, Some(Value::UInt64(9))))
            .unwrap();
        assert_eq!(again, 0);
    }

    #[test]
    fn update_where_creates_new_version_and_hides_old() {
        let ts = store(schema(None), TableStoreConfig::default());
        ts.insert_rows(mk_rows(50, 5)).unwrap();
        let before_segments = ts.segment_count();
        let n = ts
            .update_where(
                &Predicate::eq("id", Value::UInt64(7)),
                &[("score".into(), Value::Float64(9.5))],
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(ts.visible_rows(), 50, "row count stable under update");
        assert!(ts.segment_count() > before_segments, "new version segment added");
        // The visible version of id=7 carries the new score.
        let mut seen = 0;
        for meta in ts.segments() {
            let seg = ts.load_segment(&meta).unwrap();
            let vis = ts.visibility(&meta);
            for o in vis.iter() {
                if seg.columns["id"].get(o) == Value::UInt64(7) {
                    assert_eq!(seg.columns["score"].get(o), Value::Float64(9.5));
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, 1, "exactly one visible version");
    }

    #[test]
    fn update_rejects_bad_column_or_type() {
        let ts = store(schema(None), TableStoreConfig::default());
        ts.insert_rows(mk_rows(10, 6)).unwrap();
        assert!(ts
            .update_where(&Predicate::True, &[("nope".into(), Value::UInt64(1))])
            .is_err());
        assert!(ts
            .update_where(&Predicate::True, &[("score".into(), Value::Str("x".into()))])
            .is_err());
    }

    #[test]
    fn compaction_merges_and_drops_dead_rows() {
        let ts = store(
            schema(None),
            TableStoreConfig { segment_max_rows: 25, ..Default::default() },
        );
        // Several small ingests → many small segments.
        for batch in 0..4 {
            ts.insert_rows(mk_rows(50, 10 + batch)).unwrap();
        }
        let before = ts.segment_count();
        assert!(before >= 8);
        let visible_before = ts.visible_rows();
        ts.delete_where(&Predicate::range("id", None, Some(Value::UInt64(4)))).unwrap();
        let deleted = visible_before - ts.visible_rows();
        assert!(deleted > 0);

        let report = ts.compact().unwrap();
        assert!(report.merged_segments >= before - 2);
        assert_eq!(report.rows_dropped, deleted);
        assert!(ts.segment_count() < before);
        // Visibility preserved, bitmaps cleared, indexes rebuilt.
        assert_eq!(ts.visible_rows(), visible_before - deleted);
        assert_eq!(ts.delete_map().total_deleted(), 0);
        for meta in ts.segments() {
            assert!(meta.level >= 1);
            assert!(meta.index_kind.is_some());
            let idx = ts.load_index(&meta).unwrap().unwrap();
            assert_eq!(idx.meta().len, meta.row_count);
        }
    }

    #[test]
    fn parallel_compaction_matches_sequential() {
        // Two identical tables, one compacted sequentially and one with the
        // scoped fan-out: reports, visible rows, and per-segment contents
        // must agree.
        let build = |par: usize| {
            let ts = store(
                schema(Some(4)),
                TableStoreConfig {
                    segment_max_rows: 20,
                    compact_parallelism: par,
                    ..Default::default()
                },
            );
            for batch in 0..3 {
                ts.insert_rows(mk_rows(60, 40 + batch)).unwrap();
            }
            ts.delete_where(&Predicate::range("id", None, Some(Value::UInt64(7)))).unwrap();
            ts
        };
        let seq = build(1);
        let par = build(8);
        assert_eq!(seq.segment_count(), par.segment_count());
        let seq_report = seq.compact().unwrap();
        let par_report = par.compact().unwrap();
        assert_eq!(seq_report, par_report);
        assert_eq!(seq.visible_rows(), par.visible_rows());
        assert_eq!(seq.segment_count(), par.segment_count());
        // Same merged groups: (partition, bucket, rows) sets agree, and
        // every merged segment's index is loadable.
        let key = |ts: &TableStore| {
            let mut v: Vec<_> = ts
                .segments()
                .iter()
                .map(|m| {
                    (
                        serde_json::to_string(&m.partition_key).unwrap(),
                        m.cluster_bucket,
                        m.row_count,
                        m.level,
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(&seq), key(&par));
        for meta in par.segments() {
            let idx = par.load_index(&meta).unwrap().unwrap();
            assert_eq!(idx.meta().len, meta.row_count);
        }
    }

    #[test]
    fn compaction_skips_oversized_groups() {
        let ts = store(
            schema(None),
            TableStoreConfig {
                segment_max_rows: 50,
                compact_target_rows: 60, // merged group would exceed this
                ..Default::default()
            },
        );
        ts.insert_rows(mk_rows(200, 20)).unwrap();
        let before = ts.segment_count();
        let report = ts.compact().unwrap();
        assert_eq!(report.merged_segments, 0);
        assert_eq!(ts.segment_count(), before);
    }

    #[test]
    fn compaction_can_drop_fully_deleted_group() {
        let ts = store(schema(None), TableStoreConfig::default());
        ts.insert_rows(mk_rows(40, 21)).unwrap();
        ts.delete_where(&Predicate::True).unwrap();
        assert_eq!(ts.visible_rows(), 0);
        let report = ts.compact().unwrap();
        assert_eq!(report.new_segments, 0);
        assert_eq!(ts.segment_count(), 0);
        // All blobs garbage-collected.
        assert!(ts.remote_store().list("tables/images/").is_empty());
    }

    #[test]
    fn sketch_reflects_ingested_data() {
        let ts = store(schema(None), TableStoreConfig::default());
        ts.insert_rows(mk_rows(500, 22)).unwrap();
        let sk = ts.sketch();
        assert_eq!(sk.rows, 500);
        let sel = Predicate::range("id", Some(Value::UInt64(0)), Some(Value::UInt64(49)))
            .estimate_selectivity(&sk);
        assert!((sel - 0.1).abs() < 0.05, "selectivity {sel}");
    }

    #[test]
    fn reload_from_store_recovers_catalog() {
        let remote = InMemoryObjectStore::for_tests();
        let ids = Arc::new(IdGenerator::new());
        let ts = TableStore::new(
            schema(None),
            remote.clone(),
            TableStoreConfig::default(),
            ids.clone(),
            MetricsRegistry::new(),
        )
        .unwrap();
        ts.insert_rows(mk_rows(120, 23)).unwrap();
        let metas_before: Vec<_> = ts.segments().iter().map(|m| m.id).collect();

        // "Cold start": a new TableStore over the same remote store.
        let ts2 = TableStore::new(
            schema(None),
            remote,
            TableStoreConfig::default(),
            Arc::new(IdGenerator::starting_at(1_000)),
            MetricsRegistry::new(),
        )
        .unwrap();
        let found = ts2.reload_from_store().unwrap();
        assert_eq!(found, metas_before.len());
        assert_eq!(ts2.visible_rows(), 120);
        for meta in ts2.segments() {
            assert!(ts2.load_index(&meta).unwrap().is_some());
        }
    }

    /// The query-level retry matches on these two messages
    /// (`BhError::is_snapshot_race`): rewording either must fail here.
    #[test]
    fn gone_segment_and_gone_blob_read_as_snapshot_races() {
        let ts = store(schema(None), TableStoreConfig::default());
        assert!(ts.segment(SegmentId(404)).unwrap_err().is_snapshot_race());
        assert!(ts.remote_store().get("tables/t/404/index").unwrap_err().is_snapshot_race());
    }

    #[test]
    fn index_blobs_are_one_part_and_load() {
        let ts = store(schema(None), TableStoreConfig::default());
        ts.insert_rows(mk_rows(300, 30)).unwrap();
        for meta in ts.segments() {
            assert_eq!(meta.index_head_bytes, 0);
            // The stored blob is the kind's own `save_bytes` output.
            let blob = ts.remote_store().get(&meta.index_key()).unwrap();
            assert_eq!(&blob[..4], b"BHHN");
            assert_eq!(blob.len() as u64, meta.index_bytes);
            let idx = ts.load_index(&meta).unwrap().unwrap();
            assert_eq!(idx.meta().len, meta.row_count);
        }
    }

    #[test]
    fn empty_insert_is_noop() {
        let ts = store(schema(None), TableStoreConfig::default());
        assert!(ts.insert_rows(vec![]).unwrap().is_empty());
        assert_eq!(ts.segment_count(), 0);
    }

    #[test]
    fn invalid_row_rejected_before_any_write() {
        let ts = store(schema(None), TableStoreConfig::default());
        let mut rows = mk_rows(5, 24);
        rows.push(vec![Value::UInt64(9)]); // wrong arity
        assert!(ts.insert_rows(rows).is_err());
        assert_eq!(ts.segment_count(), 0, "no partial ingest");
    }
}
