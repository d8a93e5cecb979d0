//! The table store: LSM segment management, pipelined ingest, multi-version
//! updates, and compaction.
//!
//! This is the storage-side control plane of BlendHouse. Per table it holds
//! one immutable [`TableVersion`] — the live segments, each one's delete
//! bitmap and sketch, and the optimizer's sketch merged from those — plus
//! the semantic clusterer; all data lives in the (simulated) remote object
//! store, keeping compute nodes stateless (§II-A).
//!
//! ## Versions
//!
//! A reader takes the current version ([`TableStore::version`]) and reads
//! segments, visibility and the sketch from it alone, so it sees every row
//! in exactly one version: the one that version holds, and the sketch it
//! plans with describes exactly that version's segments (a segment reloaded
//! from the store carries no sketch). A writer never edits a version:
//! it builds the next one from the current one and swaps it in, under the
//! table's writer lock. DELETE, UPDATE and compaction hold that lock for
//! their whole run; INSERT takes it only to publish, so concurrent INSERTs
//! build their indexes in parallel. What one commit publishes together:
//! all segments of one INSERT; an UPDATE's new segments and its delete
//! marks; a compaction's merged segments and the removal of the segments
//! (and bitmaps and sketches) they replace. A commit that changes the
//! segment set merges the live segments' sketches into the version's.
//!
//! ## Ingest (§V-B1, Table IV)
//!
//! The one write shape is a typed column batch, one [`ColumnData`] per
//! schema column ([`TableStore::insert`]). The whole batch is checked
//! first ([`TableSchema::check_batch`]), so a refused batch leaves the
//! clusterer and the optimizer's sketch as they were. Its rows are then
//! grouped by (scalar partition, semantic bucket) into offset lists, each
//! group is chunked into segments ([`Segment::from_columns`] sorts a chunk
//! by a permutation, gathers each column once and sketches it), and the
//! segments are written by the one write step INSERT and compaction share:
//! it begins every segment's column-block uploads, builds the index blobs
//! on the build pool, waits the uploads out and writes each segment's
//! index, then its meta, once and last. An upload is its deadline on the store's
//! clock, so the two modes of the paper's ingest comparison differ only in
//! where that deadline is waited out:
//!
//! * [`IngestMode::Pipelined`] (BlendHouse): after the index builds, so the
//!   uploads overlap them.
//! * [`IngestMode::Staged`] (Milvus): as each upload begins, with the index
//!   builds one at a time after all of them.
//!
//! ## Updates (Fig. 6)
//!
//! `update_where` gathers the matched rows of each column it keeps, puts
//! the assigned values in the others, and writes the batch as new row
//! versions in fresh segments; the old offsets are marked in their
//! segments' delete bitmaps in the same commit — the index of an old
//! segment is never touched. `compact` gathers the visible rows of a
//! group's segments column by column into one merged segment, writes it
//! through the same step, and commits it in place of the group.

use crate::column::ColumnData;
use crate::delete::DeleteMarks;
use crate::objectstore::SharedObjectStore;
use crate::partition::{group_batch, SemanticClusterer};
use crate::predicate::Predicate;
use crate::schema::TableSchema;
use crate::segment::{Segment, SegmentMeta};
use crate::stats::TableSketch;
use crate::value::Value;
use bh_common::ids::IdGenerator;
use bh_common::sync::{classes, Mutex, MutexGuard, RwLock};
use bh_common::{
    BhError, Bitset, FanoutPool, MetricsRegistry, QueryCtx, Result, SegmentId, Stopwatch,
};
use bh_vector::autoindex::apply_auto_index;
use bh_vector::{build_pool, IndexKind, IndexRegistry, VectorIndex};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Columns by name, as a predicate refers to them.
type NamedColumns<'p> = Vec<(&'p str, ColumnData)>;

/// Where a write waits out its column-block uploads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// After the index builds, which run on the build pool: the uploads
    /// overlap the builds.
    Pipelined,
    /// As each upload begins; the indexes are then built one at a time.
    Staged,
}

/// Tunables for one table store.
#[derive(Debug, Clone)]
pub struct TableStoreConfig {
    /// Maximum rows per freshly ingested segment.
    pub segment_max_rows: usize,
    /// Overlap segment writes with index builds, or stage them.
    pub ingest_mode: IngestMode,
}

impl Default for TableStoreConfig {
    fn default() -> Self {
        Self { segment_max_rows: 2048, ingest_mode: IngestMode::Pipelined }
    }
}

/// Seed of the semantic clusterer's k-means.
const SEMANTIC_SEED: u64 = 0;

/// Compaction merges a group only while the merged segment stays at or
/// below this row count.
const COMPACT_TARGET_ROWS: usize = 64 * 1024;

/// A built index blob ready to upload, and its kind.
type IndexBlob = (Bytes, bh_vector::IndexKind);

/// A written segment, ready to publish: its meta and its sketch.
type Written = (Arc<SegmentMeta>, Arc<TableSketch>);

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

/// One immutable state of a table: its live segments and, per segment, the
/// rows deleted from it (the delete bitmap of Fig. 6) and the sketch of
/// its rows, plus the merge of those sketches. A commit never edits a
/// version; it builds the next one, so whoever holds a version reads
/// segments, visibility and the sketch that were published together.
#[derive(Debug, Default, Clone)]
pub struct TableVersion {
    segments: BTreeMap<SegmentId, Arc<SegmentMeta>>,
    deletes: DeleteMarks,
    /// Per-segment sketches; a segment reloaded from the store has none.
    sketches: BTreeMap<SegmentId, Arc<TableSketch>>,
    /// The merge of `sketches`, in segment order.
    sketch: Arc<TableSketch>,
}

impl TableVersion {
    /// The live segments' metadata, in segment-id order.
    pub fn segments(&self) -> Vec<Arc<SegmentMeta>> {
        self.segments.values().cloned().collect()
    }

    /// One live segment's metadata.
    pub fn segment(&self, id: SegmentId) -> Result<Arc<SegmentMeta>> {
        self.segments.get(&id).cloned().ok_or_else(|| BhError::NotFound(format!("segment {id}")))
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Deleted rows of one segment.
    pub fn deleted_count(&self, id: SegmentId) -> usize {
        self.deletes.deleted_count(id)
    }

    /// Deleted rows across all live segments (compaction pressure).
    pub fn total_deleted(&self) -> usize {
        self.deletes.total_deleted()
    }

    /// Total live (visible) rows.
    pub fn visible_rows(&self) -> usize {
        self.segments.values().map(|m| m.row_count).sum::<usize>() - self.total_deleted()
    }

    /// Visibility bitset of a segment: bit set ⇔ the row is live.
    pub fn visibility(&self, meta: &SegmentMeta) -> Bitset {
        self.deletes.visibility(meta.id, meta.row_count)
    }

    /// The optimizer's sketch: the merge of the live segments' sketches.
    /// Deleted rows stay in it until compaction merges their segment away.
    pub fn sketch(&self) -> &Arc<TableSketch> {
        &self.sketch
    }

    /// Add a written segment with its sketch.
    fn add(&mut self, (meta, sketch): Written) {
        self.sketches.insert(meta.id, sketch);
        self.segments.insert(meta.id, meta);
    }

    /// Drop a segment together with its delete bitmap and its sketch.
    fn remove(&mut self, id: SegmentId) {
        self.segments.remove(&id);
        self.deletes.clear(id);
        self.sketches.remove(&id);
    }

    /// Mark row offsets of a live segment deleted.
    fn mark_deleted(&mut self, id: SegmentId, offsets: &[u32]) {
        // lint: allow(panic) - marks come from the version this copies, under the writer lock
        let rows = self.segments.get(&id).expect("a marked segment is live").row_count;
        self.deletes.mark_deleted(id, rows, offsets.iter().copied());
    }
}

/// One table's storage state.
pub struct TableStore {
    schema: TableSchema,
    remote: SharedObjectStore,
    cfg: TableStoreConfig,
    /// The current version; held only to clone or swap the `Arc`.
    version: RwLock<Arc<TableVersion>>,
    /// Held by every commit while it builds the next version and swaps it
    /// in; DELETE, UPDATE and compaction hold it for their whole run.
    writer: Mutex<()>,
    clusterer: OnceLock<SemanticClusterer>,
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
            version: RwLock::new(&classes::TABLE_VERSION, Arc::default()),
            writer: Mutex::new(&classes::TABLE_WRITER, ()),
            clusterer: OnceLock::new(),
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

    /// The current version: a reader that needs segments and visibility to
    /// agree reads both from one of these.
    pub fn version(&self) -> Arc<TableVersion> {
        self.version.read().clone()
    }

    /// Snapshot of live segment metadata.
    pub fn segments(&self) -> Vec<Arc<SegmentMeta>> {
        self.version().segments()
    }

    /// Look up one live segment's metadata.
    pub fn segment(&self, id: SegmentId) -> Result<Arc<SegmentMeta>> {
        self.version.read_checked()?.segment(id)
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.version().segment_count()
    }

    /// Total live (visible) rows.
    pub fn visible_rows(&self) -> usize {
        self.version().visible_rows()
    }

    /// Visibility bitset of a segment (live rows set) in the current version.
    pub fn visibility(&self, meta: &SegmentMeta) -> Bitset {
        self.version().visibility(meta)
    }

    /// The current version's selectivity sketch (histograms) for the
    /// optimizer.
    pub fn sketch(&self) -> Arc<TableSketch> {
        self.version().sketch().clone()
    }

    /// The semantic clusterer, once trained.
    pub fn clusterer(&self) -> Option<&SemanticClusterer> {
        self.clusterer.get()
    }

    /// Swap in the next version, `change` applied to a copy of the current
    /// one; if the change added or removed a sketched segment, the next
    /// version's sketch is merged anew from its segments'. The caller holds
    /// the writer lock.
    fn publish(&self, _writer: &MutexGuard<'_, ()>, change: impl FnOnce(&mut TableVersion)) {
        let current = self.version();
        let mut next = TableVersion::clone(&current);
        change(&mut next);
        if !next.sketches.keys().eq(current.sketches.keys()) {
            next.sketch = Arc::new(TableSketch::merge(next.sketches.values().map(Arc::as_ref)));
        }
        *self.version.write() = Arc::new(next);
    }

    // ------------------------------------------------------------------ ingest

    /// Insert a batch of typed columns, one per schema column in schema
    /// order; returns the created segment ids. The batch is checked whole
    /// before the clusterer sees a cell.
    pub fn insert(&self, columns: Vec<ColumnData>) -> Result<Vec<SegmentId>> {
        self.insert_on(&build_pool(), columns)
    }

    /// [`Self::insert`] with its index builds on `pool`.
    pub(crate) fn insert_on(
        &self,
        pool: &FanoutPool,
        columns: Vec<ColumnData>,
    ) -> Result<Vec<SegmentId>> {
        let written = self.write_batch(pool, columns)?;
        let created = written.iter().map(|(m, _)| m.id).collect();
        if !written.is_empty() {
            let writer = self.writer.lock();
            self.publish(&writer, |v| written.into_iter().for_each(|w| v.add(w)));
        }
        Ok(created)
    }

    /// Check a batch, feed it to the clusterer, cut it into segments and
    /// write them: everything of an INSERT but its commit.
    fn write_batch(&self, pool: &FanoutPool, columns: Vec<ColumnData>) -> Result<Vec<Written>> {
        let rows = self.schema.check_batch(&columns)?;
        if rows == 0 {
            return Ok(Vec::new());
        }
        self.ensure_clusterer(&columns)?;
        let groups = group_batch(&self.schema, self.clusterer(), &columns, rows)?;

        // Materialize all segments (in memory) first.
        let mut pending = Vec::new();
        for group in groups {
            for chunk in group.rows.chunks(self.cfg.segment_max_rows) {
                pending.push(Segment::from_columns(
                    &self.schema,
                    self.ids.next_segment(),
                    &columns,
                    chunk,
                    group.partition_key.clone(),
                    group.bucket,
                    0,
                )?);
            }
        }

        let (written, _) = self.write_segments(pending, pool)?;
        self.metrics.counter("table.segments_created").add(written.len() as u64);
        Ok(written)
    }

    /// Insert rows of values in schema order: transposed into one typed
    /// column each, then [`Self::insert`].
    pub fn insert_rows(&self, rows: Vec<Vec<Value>>) -> Result<Vec<SegmentId>> {
        let mut columns = self.schema.empty_batch();
        for row in &rows {
            if row.len() != columns.len() {
                return Err(BhError::InvalidArgument(format!(
                    "row arity {} != schema arity {}",
                    row.len(),
                    columns.len()
                )));
            }
            for ((cell, col), def) in row.iter().zip(&mut columns).zip(&self.schema.columns) {
                col.push(cell)
                    .map_err(|e| BhError::InvalidArgument(format!("column {}: {e}", def.name)))?;
            }
        }
        self.insert(columns)
    }

    /// The one write step of INSERT and compaction: begin every segment's
    /// column-block uploads, build the index blobs on `pool`, wait the
    /// uploads out, then write each segment's index and meta, in order.
    /// The ingest mode is read in one place: `Staged` waits each upload
    /// out as it begins and builds one index at a time, `Pipelined` waits
    /// after the builds, which run at the pool's full width. Returns the
    /// written segments' metas and sketches, in order, and the bytes
    /// written; the caller commits them.
    fn write_segments(
        &self,
        segments: Vec<Segment>,
        pool: &FanoutPool,
    ) -> Result<(Vec<Written>, u64)> {
        let (wait_each, parallelism) = match self.cfg.ingest_mode {
            IngestMode::Pipelined => (false, usize::MAX),
            IngestMode::Staged => (true, 1),
        };
        let (mut bytes, mut uploaded) = (0, 0);
        for seg in &segments {
            let (written, deadline) = seg.persist_columns(self.remote.as_ref(), wait_each);
            bytes += written;
            uploaded = uploaded.max(deadline);
        }
        let blobs = pool
            .run(segments.len(), parallelism, |i| self.build_index_blob(&segments[i]))
            .into_results()?;
        self.remote.wait(uploaded);
        let mut written = Vec::with_capacity(segments.len());
        for (mut seg, blob) in segments.into_iter().zip(blobs) {
            bytes += seg.commit(self.remote.as_ref(), blob)?;
            self.metrics.counter("table.rows_ingested").add(seg.row_count() as u64);
            written.push((Arc::new(seg.meta), Arc::new(seg.sketch)));
        }
        Ok((written, bytes))
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
        let spec = apply_auto_index(&idx_def.spec, seg.row_count()).on_column(&idx_def.column);
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

    /// Train the semantic clusterer on the vector column of the first batch
    /// that holds at least one vector per declared bucket (k-means would
    /// clamp the bucket count to a smaller batch, for good). Of two batches
    /// trained at once, the first to finish sets it.
    fn ensure_clusterer(&self, columns: &[ColumnData]) -> Result<()> {
        let Some(cb) = &self.schema.cluster_by else { return Ok(()) };
        if self.clusterer.get().is_some() {
            return Ok(());
        }
        let idx = self
            .schema
            .column_index(&cb.column)
            .ok_or_else(|| BhError::NotFound(format!("cluster column {}", cb.column)))?;
        let Some((embs, dim)) = columns[idx].vector_data() else { return Ok(()) };
        if dim == 0 || embs.len() / dim < cb.buckets {
            return Ok(());
        }
        let cl = SemanticClusterer::train(embs, dim, cb.buckets, SEMANTIC_SEED)?;
        self.clusterer.get_or_init(|| cl);
        Ok(())
    }

    // ----------------------------------------------------------------- access

    /// Load one column of a segment from the remote store (workers layer
    /// their own caches on top; this is the uncached path).
    pub fn load_column(&self, meta: &SegmentMeta, name: &str) -> Result<crate::column::ColumnData> {
        Segment::load_column(self.remote.as_ref(), &self.schema, meta, name)
    }

    /// Load and deserialize a segment's vector index (uncached): the blob,
    /// and for a graph-only blob the vector column it was built over.
    pub fn load_index(&self, meta: &SegmentMeta) -> Result<Option<Arc<dyn VectorIndex>>> {
        let Some(kind) = meta.index_kind else { return Ok(None) };
        let blob = self.remote.get(&meta.index_key())?;
        let vectors = match self.schema.indexes.first() {
            Some(def) if kind.loads_column() => match self.load_column(meta, &def.column)? {
                crate::column::ColumnData::Vector { data, .. } => data,
                _ => return Err(BhError::Internal("index column is not a vector".into())),
            },
            _ => Vec::new(),
        };
        Ok(Some(IndexRegistry.load(kind, &blob, vectors)?))
    }

    // ---------------------------------------------------------------- updates

    /// Delete all visible rows matching `predicate`; returns deleted count.
    pub fn delete_where(&self, predicate: &Predicate) -> Result<usize> {
        let writer = self.writer.lock();
        let version = self.version();
        let mut marks = Vec::new();
        for meta in version.segments() {
            let (offsets, _) = self.matching_offsets(&version, &meta, predicate)?;
            if !offsets.is_empty() {
                marks.push((meta.id, offsets));
            }
        }
        let total = marks.iter().map(|(_, offsets)| offsets.len()).sum();
        if total > 0 {
            self.publish(&writer, |v| marks.iter().for_each(|(id, o)| v.mark_deleted(*id, o)));
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
        // Each assigned value as a one-cell column, checked before any read.
        let mut assigned: Vec<Option<ColumnData>> = vec![None; self.schema.columns.len()];
        for (col, v) in assignments {
            let idx = self
                .schema
                .column_index(col)
                .ok_or_else(|| BhError::NotFound(format!("update column {col}")))?;
            let mut cell = ColumnData::empty(self.schema.storage_type(&self.schema.columns[idx]));
            cell.push(v).map_err(|e| {
                BhError::InvalidArgument(format!("update value {v} does not fit column {col}: {e}"))
            })?;
            assigned[idx] = Some(cell);
        }
        let writer = self.writer.lock();
        let version = self.version();
        let mut batch = self.schema.empty_batch();
        let mut marks: Vec<(SegmentId, Vec<u32>)> = Vec::new();
        for meta in version.segments() {
            let (offsets, loaded) = self.matching_offsets(&version, &meta, predicate)?;
            if offsets.is_empty() {
                continue;
            }
            for ((def, out), cell) in self.schema.columns.iter().zip(&mut batch).zip(&assigned) {
                if cell.is_some() {
                    continue;
                }
                // The predicate's columns are read once, by `matching_offsets`.
                match loaded.iter().find(|(name, _)| *name == def.name) {
                    Some((_, column)) => column.gather_into(&offsets, 0, out)?,
                    None => self.load_column(&meta, &def.name)?.gather_into(&offsets, 0, out)?,
                }
            }
            marks.push((meta.id, offsets));
        }
        let updated: usize = marks.iter().map(|(_, offsets)| offsets.len()).sum();
        if updated == 0 {
            return Ok(0);
        }
        let repeat = vec![0u32; updated];
        for (out, cell) in batch.iter_mut().zip(&assigned) {
            if let Some(cell) = cell {
                cell.gather_into(&repeat, 0, out)?;
            }
        }
        // The new versions and the old ones' delete marks commit together:
        // a reader sees each updated row exactly once, old or new.
        let written = self.write_batch(&build_pool(), batch)?;
        self.publish(&writer, |v| {
            written.into_iter().for_each(|w| v.add(w));
            marks.iter().for_each(|(id, o)| v.mark_deleted(*id, o));
        });
        self.metrics.counter("table.rows_updated").add(updated as u64);
        Ok(updated)
    }

    /// Row offsets of a segment that are visible in `version` and satisfy
    /// `predicate`, and the predicate's columns, loaded to evaluate it.
    fn matching_offsets<'p>(
        &self,
        version: &TableVersion,
        meta: &SegmentMeta,
        predicate: &'p Predicate,
    ) -> Result<(Vec<u32>, NamedColumns<'p>)> {
        if !predicate.may_match_stats(&meta.column_stats) {
            return Ok((Vec::new(), Vec::new()));
        }
        let columns = predicate
            .column_refs()
            .into_iter()
            .map(|c| Ok((c, self.load_column(meta, c)?)))
            .collect::<Result<Vec<_>>>()?;
        let refs: Vec<_> = columns.iter().map(|(c, data)| (*c, data)).collect();
        let mut bits = predicate.eval_bitset(&refs, meta.row_count)?;
        bits.intersect_with(&version.visibility(meta));
        Ok((bits.iter().map(|o| o as u32).collect(), columns))
    }

    // ------------------------------------------------------------- compaction

    /// Merge small segments group-by-group, dropping dead rows and building a
    /// fresh vector index per merged segment.
    ///
    /// Each eligible group's visible rows are gathered into one merged
    /// segment, in group order, and the merged segments go through the
    /// write step INSERT uses, their index builds fanned out across the
    /// process-wide [`build_pool`]. One commit then swaps every merged
    /// segment in for its group, after which the old segments' blobs are
    /// garbage-collected.
    pub fn compact(&self) -> Result<CompactionReport> {
        self.compact_on(&build_pool())
    }

    /// [`Self::compact`] with its index builds on `pool`.
    pub(crate) fn compact_on(&self, pool: &FanoutPool) -> Result<CompactionReport> {
        self.compact_within(pool, COMPACT_TARGET_ROWS)
    }

    /// [`Self::compact_on`], merging only groups of at most `target_rows`
    /// visible rows.
    pub(crate) fn compact_within(
        &self,
        pool: &FanoutPool,
        target_rows: usize,
    ) -> Result<CompactionReport> {
        let writer = self.writer.lock();
        let started = Stopwatch::start();
        let mut compact_span = QueryCtx::span("compact");
        let version = self.version();
        // Group by (partition key, bucket).
        let mut groups: BTreeMap<(String, Option<u32>), Vec<Arc<SegmentMeta>>> = BTreeMap::new();
        for meta in version.segments() {
            let key = (
                serde_json::to_string(&meta.partition_key)
                    .map_err(|e| BhError::Serde(e.to_string()))?,
                meta.cluster_bucket,
            );
            groups.entry(key).or_default().push(meta);
        }

        // Gather each eligible group into its merged segment, in group order.
        let mut report = CompactionReport::default();
        let (mut old, mut merged, mut merged_groups) = (Vec::new(), Vec::new(), 0);
        for (_, metas) in groups {
            let deleted: usize = metas.iter().map(|m| version.deleted_count(m.id)).sum();
            if metas.len() < 2 && deleted == 0 {
                continue;
            }
            let visible = metas.iter().map(|m| m.row_count).sum::<usize>() - deleted;
            if visible > target_rows {
                continue;
            }
            let (dropped, seg) = self.merge_group(&version, &metas, self.ids.next_segment())?;
            report.merged_segments += metas.len();
            report.new_segments += usize::from(seg.is_some());
            report.rows_dropped += dropped;
            merged_groups += 1;
            old.extend(metas);
            merged.extend(seg);
        }
        if old.is_empty() {
            self.metrics.counter("table.compactions").inc();
            return Ok(report);
        }
        if merged_groups > 1 {
            self.metrics.counter("table.parallel_compact_groups").add(merged_groups);
        }

        let (written, bytes_rewritten) = self.write_segments(merged, pool)?;
        self.publish(&writer, |v| {
            written.into_iter().for_each(|w| v.add(w));
            old.iter().for_each(|m| v.remove(m.id));
        });
        for meta in &old {
            Segment::delete_blobs(self.remote.as_ref(), meta)?;
        }
        self.metrics.counter("table.compactions").inc();
        self.metrics.counter("table.compact_bytes_rewritten").add(bytes_rewritten);
        self.metrics.histogram("table.compact_ns").record(started.elapsed());
        compact_span.attr("merged_segments", report.merged_segments);
        compact_span.attr("new_segments", report.new_segments);
        compact_span.attr("rows_dropped", report.rows_dropped);
        Ok(report)
    }

    /// Gather the rows of a group's segments visible in `version` column by
    /// column into one merged segment. Returns the dropped-row count and the
    /// segment (`None` when the whole group is deleted).
    fn merge_group(
        &self,
        version: &TableVersion,
        metas: &[Arc<SegmentMeta>],
        new_id: SegmentId,
    ) -> Result<(usize, Option<Segment>)> {
        let mut merged = self.schema.empty_batch();
        let (mut kept, mut dropped) = (0, 0);
        for meta in metas {
            let visible: Vec<u32> = version.visibility(meta).iter().map(|o| o as u32).collect();
            dropped += meta.row_count - visible.len();
            kept += visible.len();
            for (def, out) in self.schema.columns.iter().zip(&mut merged) {
                self.load_column(meta, &def.name)?.gather_into(&visible, 0, out)?;
            }
        }
        if kept == 0 {
            return Ok((dropped, None));
        }
        let level = metas.iter().map(|m| m.level).max().unwrap_or(0).saturating_add(1);
        let rows: Vec<u32> = (0..kept as u32).collect();
        let seg = Segment::from_columns(
            &self.schema,
            new_id,
            &merged,
            &rows,
            metas[0].partition_key.clone(),
            metas[0].cluster_bucket,
            level,
        )?;
        Ok((dropped, Some(seg)))
    }

    // -------------------------------------------------------------- reload

    /// Rebuild the table version from the remote store (cold start), and
    /// move the id generator past every segment id found, so a later write
    /// never reuses a live segment's objects. Delete bitmaps are not
    /// persisted in this reproduction — reload assumes compaction ran before
    /// shutdown (documented in DESIGN.md) — and neither are sketches: a
    /// reloaded segment has none, so the reloaded version's sketch is empty.
    pub fn reload_from_store(&self) -> Result<usize> {
        let writer = self.writer.lock();
        let prefix = format!("tables/{}/", self.schema.name);
        let mut loaded = TableVersion::default();
        for key in self.remote.list(&prefix) {
            if !key.ends_with("/meta") {
                continue;
            }
            let blob = self.remote.get(&key)?;
            let meta: SegmentMeta = serde_json::from_slice(&blob)
                .map_err(|e| BhError::Serde(format!("segment meta: {e}")))?;
            self.ids.skip_past(meta.id.raw());
            // A reloaded segment carries no sketch.
            loaded.segments.insert(meta.id, Arc::new(meta));
        }
        let found = loaded.segment_count();
        self.publish(&writer, |v| *v = loaded);
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

    fn mk_rows(n: usize, seed: u64) -> Vec<Vec<Value>> {
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

    /// Poisoning the version pointer fails the fallible lookup
    /// with `BhError::LockPoisoned` naming the class, while the infallible
    /// accessors recover (and heal), so the table keeps serving.
    #[test]
    fn poisoned_segment_catalog_is_reported_then_healed() {
        let ts = store(schema(None), TableStoreConfig::default());
        let ids = ts.insert_rows(mk_rows(20, 7)).unwrap();
        let seg = ids[0];

        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = ts.version.write();
            panic!("die holding the version pointer");
        }));
        assert!(died.is_err());

        match ts.segment(seg) {
            Err(BhError::LockPoisoned(class)) => assert_eq!(class, "TABLE_VERSION"),
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
        let mut stores = Vec::new();
        for mode in [IngestMode::Pipelined, IngestMode::Staged] {
            let metrics = MetricsRegistry::new();
            let remote = Arc::new(InMemoryObjectStore::new(
                bh_common::VirtualClock::shared(),
                bh_common::LatencyModel::ZERO,
                metrics.clone(),
                "remote",
            ));
            let cfg = TableStoreConfig { segment_max_rows: 64, ingest_mode: mode };
            let ts =
                TableStore::new(schema(None), remote, cfg, Arc::new(IdGenerator::new()), metrics)
                    .unwrap();
            ts.insert_rows(mk_rows(200, 2)).unwrap();
            assert_eq!(ts.visible_rows(), 200, "{mode:?}");
            let mut puts = 0;
            for meta in ts.segments() {
                assert!(meta.index_kind.is_some(), "{mode:?}");
                // Meta persisted in store matches catalog.
                let persisted =
                    Segment::load_meta(ts.remote_store().as_ref(), "images", meta.id).unwrap();
                assert_eq!(&persisted, meta.as_ref());
                // Each column's blocks, the index, and the meta once.
                puts += 4 * meta.block_count() as u64 + 2;
            }
            assert_eq!(ts.metrics().counter_value("remote.put"), puts, "{mode:?}");
            stores.push(store_fnv(&ts));
        }
        assert_eq!(stores[0], stores[1], "both modes store the same bytes");
    }

    /// What one store operation costs in `pipelined_uploads_overlap_and_staged_ones_add_up`.
    const OP_NS: u64 = 1_000;

    /// An upload is its deadline on the clock. `Pipelined` begins every
    /// block upload of the statement before it builds, so together they
    /// cost one put; the index and meta puts of each commit follow one by
    /// one. `Staged` waits each put out as it begins: the sum of them all,
    /// as a blocking store charges.
    #[test]
    fn pipelined_uploads_overlap_and_staged_ones_add_up() {
        for mode in [IngestMode::Pipelined, IngestMode::Staged] {
            let (clock, metrics) = (bh_common::VirtualClock::shared(), MetricsRegistry::new());
            let remote = Arc::new(InMemoryObjectStore::new(
                clock.clone(),
                bh_common::LatencyModel::fixed(std::time::Duration::from_nanos(OP_NS)),
                metrics.clone(),
                "remote",
            ));
            let cfg = TableStoreConfig { segment_max_rows: 64, ingest_mode: mode };
            let ts =
                TableStore::new(schema(None), remote, cfg, Arc::new(IdGenerator::new()), metrics)
                    .unwrap();
            let created = ts.insert_rows(mk_rows(300, 70)).unwrap();
            let puts = ts.metrics().counter_value("remote.put");
            assert!(created.len() > 2, "{created:?}");
            let want = match mode {
                IngestMode::Pipelined => (1 + 2 * created.len() as u64) * OP_NS,
                IngestMode::Staged => puts * OP_NS,
            };
            assert_eq!(
                clock.now_nanos(),
                want,
                "{mode:?}: {puts} puts, {} segments",
                created.len()
            );
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
            let emb = ts.load_column(meta, "emb").unwrap();
            let (data, dim) = emb.vector_data().unwrap();
            for i in 0..meta.row_count {
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
            let (id, score) =
                (ts.load_column(&meta, "id").unwrap(), ts.load_column(&meta, "score").unwrap());
            let vis = ts.visibility(&meta);
            for o in vis.iter() {
                if id.get(o) == Value::UInt64(7) {
                    assert_eq!(score.get(o), Value::Float64(9.5));
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, 1, "exactly one visible version");
    }

    /// Ids and `x` values of a two-column `(id, x)` table, by id, over the
    /// rows `version` shows.
    fn visible_x(ts: &TableStore, version: &TableVersion) -> BTreeMap<u64, Vec<Value>> {
        let mut by_id: BTreeMap<u64, Vec<Value>> = BTreeMap::new();
        for meta in version.segments() {
            let (id, x) =
                (ts.load_column(&meta, "id").unwrap(), ts.load_column(&meta, "x").unwrap());
            for o in version.visibility(&meta).iter() {
                let Value::UInt64(id) = id.get(o) else { panic!("id is a UInt64") };
                by_id.entry(id).or_default().push(x.get(o));
            }
        }
        by_id
    }

    /// An `(id, x)` table on `remote`, ids `0..rows` with `x` 0, in
    /// segments of at most `segment_max_rows`.
    fn id_x_table(remote: SharedObjectStore, rows: u64, segment_max_rows: usize) -> TableStore {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("x", ColumnType::UInt64)
            .with_order_by(&["id"]);
        let cfg = TableStoreConfig { segment_max_rows, ..Default::default() };
        let ids = Arc::new(IdGenerator::new());
        let ts = TableStore::new(schema, remote, cfg, ids, MetricsRegistry::new()).unwrap();
        ts.insert_rows((0..rows).map(|i| vec![Value::UInt64(i), Value::UInt64(0)]).collect())
            .unwrap();
        ts
    }

    /// A version taken before an UPDATE is the table before it, whole; the
    /// current one is the table after it, whole. Neither shows an updated
    /// row in no version or in two.
    #[test]
    fn a_version_shows_every_row_once_across_an_update() {
        let ts = id_x_table(InMemoryObjectStore::for_tests(), 40, 2048);
        let before = ts.version();
        let lo = Predicate::range("id", None, Some(Value::UInt64(9)));
        assert_eq!(ts.update_where(&lo, &[("x".into(), Value::UInt64(1))]).unwrap(), 10);
        for (version, updated) in [(before, Value::UInt64(0)), (ts.version(), Value::UInt64(1))] {
            let rows = visible_x(&ts, &version);
            assert_eq!(rows.len(), 40, "{rows:?}");
            for (id, xs) in rows {
                let want = if id < 10 { updated.clone() } else { Value::UInt64(0) };
                assert_eq!(xs, vec![want], "id {id}");
            }
        }
    }

    /// A version's delete marks accumulate per segment (a row deleted twice
    /// counts once), are the complement of its visibility, stay out of
    /// versions taken before them, and go with their segment when
    /// compaction replaces it.
    #[test]
    fn version_marks_accumulate_and_go_with_their_segment() {
        let ts = id_x_table(InMemoryObjectStore::for_tests(), 10, 2048);
        let seg = ts.segments()[0].clone();
        let fresh = ts.version();
        assert_eq!(fresh.deleted_count(seg.id), 0);
        assert!(fresh.visibility(&seg).is_all_set());
        let ids = |lo: u64, hi: u64| {
            Predicate::range("id", Some(Value::UInt64(lo)), Some(Value::UInt64(hi)))
        };
        assert_eq!(ts.delete_where(&ids(1, 2)).unwrap(), 2);
        assert_eq!(ts.delete_where(&Predicate::eq("id", Value::UInt64(5))).unwrap(), 1);
        assert_eq!(ts.delete_where(&ids(0, 2)).unwrap(), 1);
        let marked = ts.version();
        assert_eq!(marked.deleted_count(seg.id), 4);
        assert_eq!(marked.total_deleted(), 4);
        assert_eq!(marked.visibility(&seg).iter().collect::<Vec<_>>(), vec![3, 4, 6, 7, 8, 9]);
        assert_eq!(fresh.total_deleted(), 0, "an older version keeps its own marks");

        assert_eq!(ts.compact().unwrap().rows_dropped, 4);
        let compacted = ts.version();
        assert!(compacted.segment(seg.id).is_err());
        assert_eq!(compacted.deleted_count(seg.id), 0);
        assert_eq!(compacted.total_deleted(), 0);
        assert_eq!(compacted.visible_rows(), 6);
    }

    /// DELETEs from four threads at once, each of its own ids: every mark
    /// lands, because each commit builds on the one before it.
    #[test]
    fn concurrent_deletes_all_land() {
        let ts = id_x_table(InMemoryObjectStore::for_tests(), 200, 50);
        let deleted: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4u64)
                .map(|t| {
                    let ts = &ts;
                    s.spawn(move || {
                        let one = |id| Predicate::eq("id", Value::UInt64(id));
                        (t * 50..t * 50 + 25)
                            .map(|id| ts.delete_where(&one(id)).unwrap())
                            .sum::<usize>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(deleted, 100);
        assert_eq!(ts.version().total_deleted(), 100);
        assert_eq!(ts.visible_rows(), 100);
    }

    /// A DELETE and an UPDATE started at a sweep of offsets into a running
    /// compaction, on a store whose every operation takes real time: after
    /// both, each id is what running them one after the other gives — a
    /// deleted id gone, an updated one visible once with its new value.
    #[test]
    #[cfg_attr(miri, ignore = "real-clock store latencies across threads")]
    fn dml_racing_compaction_matches_a_serial_model() {
        const ROWS: u64 = 80;
        let table = || {
            let remote = Arc::new(InMemoryObjectStore::new(
                bh_common::RealClock::shared(),
                bh_common::LatencyModel::fixed(std::time::Duration::from_micros(200)),
                MetricsRegistry::new(),
                "remote",
            ));
            id_x_table(remote, ROWS, 10)
        };
        let started = std::time::Instant::now();
        assert_eq!(table().compact().unwrap().merged_segments, 8);
        let compaction = started.elapsed();
        let (gone, moved) = ((15, 44), (35, 64));
        let ids = |(lo, hi): (u64, u64)| {
            Predicate::range("id", Some(Value::UInt64(lo)), Some(Value::UInt64(hi)))
        };
        let mut wrong = Vec::new();
        for step in 0..10u32 {
            for delete in [true, false] {
                let ts = table();
                std::thread::scope(|s| {
                    let compacting = s.spawn(|| ts.compact().unwrap());
                    std::thread::sleep(compaction * step / 10);
                    if delete {
                        assert_eq!(ts.delete_where(&ids(gone)).unwrap(), 30);
                    } else {
                        let one = [("x".to_string(), Value::UInt64(1))];
                        assert_eq!(ts.update_where(&ids(moved), &one).unwrap(), 30);
                    }
                    compacting.join().unwrap();
                });
                let model: BTreeMap<u64, Vec<Value>> = (0..ROWS)
                    .filter(|id| !delete || !(gone.0..=gone.1).contains(id))
                    .map(|id| {
                        let updated = !delete && (moved.0..=moved.1).contains(&id);
                        (id, vec![Value::UInt64(u64::from(updated))])
                    })
                    .collect();
                if visible_x(&ts, &ts.version()) != model {
                    let op = if delete { "DELETE" } else { "UPDATE" };
                    wrong.push(format!("{op} at {step}/10"));
                }
            }
        }
        assert!(wrong.is_empty(), "rows differ from the serial model: {wrong:?}");
    }

    #[test]
    fn update_reads_its_predicate_columns_once() {
        let metrics = MetricsRegistry::new();
        let remote = Arc::new(InMemoryObjectStore::new(
            bh_common::VirtualClock::shared(),
            bh_common::LatencyModel::ZERO,
            metrics.clone(),
            "remote",
        ));
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("x", ColumnType::UInt64);
        let ts = TableStore::new(
            schema,
            remote,
            TableStoreConfig::default(),
            Arc::new(IdGenerator::new()),
            metrics.clone(),
        )
        .unwrap();
        ts.insert_rows((0..20u64).map(|i| vec![Value::UInt64(i), Value::UInt64(0)]).collect())
            .unwrap();
        assert_eq!(ts.segment_count(), 1);
        let gets = metrics.counter_value("remote.get");
        let n = ts
            .update_where(&Predicate::eq("id", Value::UInt64(7)), &[("x".into(), Value::UInt64(1))])
            .unwrap();
        assert_eq!(n, 1);
        // `id` is read to match and gathered from that read; `x` is assigned.
        assert_eq!(metrics.counter_value("remote.get") - gets, 1);
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
        assert_eq!(ts.version().total_deleted(), 0);
        for meta in ts.segments() {
            assert!(meta.level >= 1);
            assert!(meta.index_kind.is_some());
            let idx = ts.load_index(&meta).unwrap().unwrap();
            assert_eq!(idx.meta().len, meta.row_count);
        }
    }

    #[test]
    fn parallel_compaction_matches_sequential() {
        // Two identical tables, one compacted on a pool with no helpers and
        // one on a wide pool: reports, visible rows, and per-segment
        // contents must agree.
        let build = || {
            let ts = store(
                schema(Some(4)),
                TableStoreConfig { segment_max_rows: 20, ..Default::default() },
            );
            for batch in 0..3 {
                ts.insert_rows(mk_rows(60, 40 + batch)).unwrap();
            }
            ts.delete_where(&Predicate::range("id", None, Some(Value::UInt64(7)))).unwrap();
            ts
        };
        let (seq, par) = (build(), build());
        assert_eq!(seq.segment_count(), par.segment_count());
        let seq_report = seq.compact_on(&FanoutPool::new(0)).unwrap();
        let par_report = par.compact_on(&FanoutPool::new(7)).unwrap();
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
        let ts =
            store(schema(None), TableStoreConfig { segment_max_rows: 50, ..Default::default() });
        ts.insert_rows(mk_rows(200, 20)).unwrap();
        let before = ts.segment_count();
        // Each label's group holds 100 rows: over a 60-row target.
        let report = ts.compact_within(&build_pool(), 60).unwrap();
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

    /// The table's sketch is the merge, in segment order, of one sketch per
    /// segment built from that segment's columns.
    #[test]
    fn sketch_reflects_ingested_data() {
        let ts =
            store(schema(None), TableStoreConfig { segment_max_rows: 100, ..Default::default() });
        ts.insert_rows(mk_rows(500, 22)).unwrap();
        let sk = ts.sketch();
        assert_eq!(sk.rows, 500);
        let per_segment: Vec<TableSketch> = ts
            .segments()
            .iter()
            .map(|meta| {
                let columns: Vec<_> = ts
                    .schema()
                    .columns
                    .iter()
                    .map(|def| (def.name.as_str(), ts.load_column(meta, &def.name).unwrap()))
                    .collect();
                TableSketch::of_columns(meta.row_count, columns.iter().map(|(n, c)| (*n, c)))
            })
            .collect();
        assert!(per_segment.len() > 2, "{}", per_segment.len());
        assert_eq!(*sk, TableSketch::merge(&per_segment));
        let sel = Predicate::range("id", Some(Value::UInt64(0)), Some(Value::UInt64(49)))
            .estimate_selectivity(&sk);
        assert!((sel - 0.1).abs() < 0.05, "selectivity {sel}");
    }

    /// Σ of the numeric histograms' totals, per numeric column, of a sketch.
    fn numeric_totals(sk: &TableSketch) -> Vec<u64> {
        sk.columns
            .values()
            .filter_map(|c| match c {
                crate::stats::ColumnSketch::Numeric(h) => Some(h.total()),
                crate::stats::ColumnSketch::Strings(_) => None,
            })
            .collect()
    }

    /// Rows superseded by an UPDATE or gone by a DELETE leave the sketch
    /// when compaction merges their segments away. `x` holds each of
    /// `0..1000` once; the UPDATE sets every `x < 500` to 0 and the DELETE
    /// drops 100 rows of `x` in `500..600`, so 900 rows stay: 500 zeros and
    /// `x` in `600..1000`. The zeros are a common value, counted exactly
    /// beside the buckets: `x = 0` and `x <= 15` read 500 / 900 = 0.56, and
    /// `x BETWEEN 1 AND 499` holds only superseded values (spread over the
    /// first bucket, `[0, 15.6)`, the zeros would price it at 0.52 and
    /// `x = 0` at 0.036). A sketch that kept every value ever inserted would
    /// count 1,499 and read 0.33 and 0.32 on the two ranges.
    #[test]
    fn compaction_forgets_superseded_values() {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("x", ColumnType::UInt64)
            .with_order_by(&["id"]);
        let cfg = TableStoreConfig { segment_max_rows: 128, ..Default::default() };
        let ts = store(schema, cfg);
        let x_of = |id: u64| id * 337 % 1_000;
        ts.insert_rows(
            (0..1_000).map(|id| vec![Value::UInt64(id), Value::UInt64(x_of(id))]).collect(),
        )
        .unwrap();
        let x = |lo: u64, hi: u64| {
            Predicate::range("x", Some(Value::UInt64(lo)), Some(Value::UInt64(hi)))
        };
        let zero = [("x".to_string(), Value::UInt64(0))];
        assert_eq!(ts.update_where(&x(1, 499), &zero).unwrap(), 499);
        assert_eq!(ts.delete_where(&x(500, 599)).unwrap(), 100);
        ts.compact().unwrap();
        assert_eq!(ts.visible_rows(), 900);
        let sk = ts.sketch();
        assert_eq!(sk.rows, 900);
        assert_eq!(numeric_totals(&sk), vec![900, 900]);
        let first_bucket =
            Predicate::range("x", None, Some(Value::UInt64(15))).estimate_selectivity(&sk);
        assert!((first_bucket - 0.556).abs() < 0.01, "x <= 15: {first_bucket}");
        let zero = Predicate::eq("x", Value::UInt64(0)).estimate_selectivity(&sk);
        assert!((zero - 0.556).abs() < 0.01, "x = 0: {zero}");
        let superseded = x(1, 499).estimate_selectivity(&sk);
        assert!(superseded < 0.01, "x BETWEEN 1 AND 499: {superseded}");
        assert!(x(16, 499).estimate_selectivity(&sk) < 0.005);
        let live = x(600, 999).estimate_selectivity(&sk);
        assert!((live - 0.44).abs() < 0.02, "x BETWEEN 600 AND 999: {live}");
    }

    /// A seeded stream of INSERT / UPDATE / DELETE / compact / reload: after
    /// every step the version's sketch counts exactly the rows of that
    /// version's sketched segments — in every numeric histogram and in
    /// `rows` — and equals the merge of their sketches.
    #[test]
    fn the_sketch_matches_the_version_it_rides_in() {
        let remote = InMemoryObjectStore::for_tests();
        let cfg = TableStoreConfig { segment_max_rows: 40, ..Default::default() };
        let open = || {
            let ids = Arc::new(IdGenerator::new());
            TableStore::new(schema(None), remote.clone(), cfg.clone(), ids, MetricsRegistry::new())
                .unwrap()
        };
        let mut ts = open();
        let mut r = rng(48);
        let mut next_id = 0u64;
        for step in 0..40 {
            let ids = |lo: u64, span: u64| {
                Predicate::range("id", Some(Value::UInt64(lo)), Some(Value::UInt64(lo + span)))
            };
            let op = match r.gen_range(0..10usize) {
                0..=3 => {
                    let n = 1 + r.gen_range(0..90usize);
                    let rows: Vec<_> = mk_rows(n, step)
                        .into_iter()
                        .enumerate()
                        .map(|(i, mut row)| {
                            row[0] = Value::UInt64(next_id + i as u64);
                            row
                        })
                        .collect();
                    next_id += n as u64;
                    ts.insert_rows(rows).unwrap();
                    "insert"
                }
                4 | 5 => {
                    let lo = r.gen_range(0..next_id.max(1) as usize) as u64;
                    let score = [("score".to_string(), Value::Float64(r.gen::<f64>()))];
                    ts.update_where(&ids(lo, 15), &score).unwrap();
                    "update"
                }
                6 | 7 => {
                    let lo = r.gen_range(0..next_id.max(1) as usize) as u64;
                    ts.delete_where(&ids(lo, 10)).unwrap();
                    "delete"
                }
                8 => {
                    ts.compact().unwrap();
                    "compact"
                }
                _ => {
                    ts = open();
                    ts.reload_from_store().unwrap();
                    "reload"
                }
            };
            let version = ts.version();
            let sketched: Vec<&TableSketch> = version
                .segments()
                .iter()
                .filter_map(|m| version.sketches.get(&m.id).map(Arc::as_ref))
                .collect();
            assert_eq!(sketched.len(), version.sketches.len(), "step {step} {op}");
            let rows: u64 = version
                .segments()
                .iter()
                .filter(|m| version.sketches.contains_key(&m.id))
                .map(|m| m.row_count as u64)
                .sum();
            let sk = version.sketch();
            assert_eq!(sk.rows, rows, "step {step} {op}");
            let totals = numeric_totals(sk);
            let numeric = if rows == 0 { 0 } else { 2 };
            assert_eq!(totals, vec![rows; numeric], "step {step} {op}");
            assert_eq!(**sk, TableSketch::merge(sketched), "step {step} {op}");
        }
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

    /// A reload moves the table's id generator past every segment it found:
    /// INSERTs through a reopened table with a fresh generator write new
    /// objects and never overwrite a live segment's.
    #[test]
    fn reload_moves_the_id_generator_past_live_segments() {
        let metrics = MetricsRegistry::new();
        let remote = Arc::new(InMemoryObjectStore::new(
            bh_common::VirtualClock::shared(),
            bh_common::LatencyModel::ZERO,
            metrics.clone(),
            "remote",
        ));
        let open = || {
            let cfg = TableStoreConfig::default();
            let ids = Arc::new(IdGenerator::new());
            TableStore::new(schema(None), remote.clone(), cfg, ids, MetricsRegistry::new()).unwrap()
        };
        open().insert_rows(mk_rows(120, 23)).unwrap();
        let ts = open();
        ts.reload_from_store().unwrap();
        let (keys, puts) = (remote.list("").len(), metrics.counter_value("remote.put"));
        for seed in 0..3 {
            ts.insert_rows(mk_rows(10, 90 + seed)).unwrap();
        }
        assert_eq!(ts.visible_rows(), 150);
        let new_keys = remote.list("").len() - keys;
        assert_eq!(new_keys as u64, metrics.counter_value("remote.put") - puts, "a key put twice");
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

    /// A batch with a NULL cell is refused before the optimizer's sketch or
    /// the clusterer sees any of it: one bad row cannot fix the table's
    /// clustering for good.
    #[test]
    fn rejected_insert_leaves_sketch_and_clusterer_untouched() {
        let ts = store(schema(Some(4)), TableStoreConfig::default());
        let mut rows = mk_rows(2, 60);
        rows[1][1] = Value::Null;
        let err = ts.insert_rows(rows).unwrap_err().to_string();
        assert!(err.contains("label"), "{err}");
        assert_eq!(ts.sketch().rows, 0);
        assert_eq!(ts.segment_count(), 0);
        assert!(ts.clusterer().is_none());
        ts.insert_rows(mk_rows(400, 61)).unwrap();
        assert_eq!(ts.clusterer().expect("trained").buckets(), 4);
        assert_eq!(ts.sketch().rows, 400);
    }

    /// `CLUSTER BY … INTO 4 BUCKETS` trains on the first batch holding at
    /// least 4 vectors; a smaller first batch is stored unbucketed.
    #[test]
    fn clusterer_waits_for_a_batch_of_n_vectors() {
        let ts = store(schema(Some(4)), TableStoreConfig::default());
        let first = ts.insert_rows(mk_rows(1, 62)).unwrap();
        assert!(ts.clusterer().is_none());
        ts.insert_rows(mk_rows(399, 63)).unwrap();
        assert_eq!(ts.clusterer().expect("trained").buckets(), 4);
        let mut buckets = std::collections::BTreeSet::new();
        for meta in ts.segments() {
            if meta.id == first[0] {
                assert_eq!(meta.cluster_bucket, None);
            } else {
                buckets.insert(meta.cluster_bucket.expect("bucketed"));
            }
        }
        assert!(buckets.len() > 1, "{buckets:?}");
    }

    /// The pool an INSERT builds its indexes on does not reach a stored
    /// byte: each segment's HNSW build runs whole on whichever thread
    /// claims it, caller or helper.
    #[test]
    fn insert_bytes_do_not_depend_on_the_pool() {
        let hashes: Vec<u64> = [0, 7]
            .into_iter()
            .map(|helpers| {
                let ts = store(
                    schema(Some(4)),
                    TableStoreConfig { segment_max_rows: 40, ..Default::default() },
                );
                let mut columns = ts.schema().empty_batch();
                for row in mk_rows(400, 71) {
                    for (col, cell) in columns.iter_mut().zip(&row) {
                        col.push(cell).unwrap();
                    }
                }
                let created = ts.insert_on(&FanoutPool::new(helpers), columns).unwrap();
                assert!(created.len() > 4, "{created:?}");
                store_fnv(&ts)
            })
            .collect();
        assert_eq!(hashes[0], hashes[1]);
    }

    /// FNV-1a over every `(key, blob)` the table's store holds, in key order.
    fn store_fnv(ts: &TableStore) -> u64 {
        let mut keys = ts.remote_store().list("");
        keys.sort();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for key in keys {
            eat(key.as_bytes());
            eat(&[0xff]);
            eat(&ts.remote_store().get(&key).unwrap());
        }
        h
    }

    /// A seeded INSERT / UPDATE / DELETE / compact replay over one column of
    /// every type, with ORDER BY (ties included), PARTITION BY and CLUSTER
    /// BY: the hash of everything it stored — column blocks, metas, index
    /// blobs. One constant per kernel tier (HNSW neighbours, IVF cells and
    /// the clusterer's buckets follow the tier's distances); the HNSW ones
    /// are blob format v3's, whose blobs hold the graph alone.
    #[test]
    #[cfg_attr(miri, ignore = "two tables of 400 rows with HNSW and IVFPQFS builds")]
    fn write_path_bytes_are_pinned() {
        const WANT: [(IndexKind, [u64; 2]); 2] = [
            (IndexKind::Hnsw, [0x34bd_cef8_11d8_b6a0; 2]),
            (IndexKind::IvfPqFs, [0x58f6_1d19_e8d5_433a; 2]),
        ];
        let tier = match bh_vector::distance::KernelTier::current() {
            bh_vector::distance::KernelTier::Avx2 => 0,
            bh_vector::distance::KernelTier::Scalar => 1,
            bh_vector::distance::KernelTier::Neon => return,
        };
        let dim = 16;
        let rows = |from: usize, to: usize, seed: u64| -> Vec<Vec<Value>> {
            let mut r = rng(seed);
            (from..to)
                .map(|i| {
                    let centre = (i % 4) as f32 * 4.0;
                    vec![
                        Value::UInt64(i as u64),
                        Value::Int64((r.gen::<u64>() % 1_000) as i64 - 500),
                        Value::Float64(r.gen::<f64>() * 100.0 - 50.0),
                        Value::Str(format!("p{}", i % 3)),
                        Value::DateTime(1_000 + (i as u64 * 7) % 50),
                        Value::Vector((0..dim).map(|_| centre + r.gen::<f32>() - 0.5).collect()),
                    ]
                })
                .collect()
        };
        let mut changed = Vec::new();
        for (kind, want) in WANT {
            let schema = TableSchema::new("pinned")
                .with_column("id", ColumnType::UInt64)
                .with_column("delta", ColumnType::Int64)
                .with_column("score", ColumnType::Float64)
                .with_column("label", ColumnType::Str)
                .with_column("ts", ColumnType::DateTime)
                .with_column("emb", ColumnType::Vector(dim))
                .with_order_by(&["ts"])
                .with_partition_by(&["label"])
                .with_cluster_by("emb", 4)
                .with_vector_index("ann", "emb", kind, dim, Metric::L2);
            let ts = store(schema, TableStoreConfig { segment_max_rows: 64, ..Default::default() });
            ts.insert_rows(rows(0, 300, 1)).unwrap();
            ts.insert_rows(rows(300, 400, 2)).unwrap();
            let lo = |v: u64| Predicate::range("id", None, Some(Value::UInt64(v)));
            assert_eq!(
                ts.update_where(&lo(39), &[("score".into(), Value::Float64(-1.5))]).unwrap(),
                40
            );
            let moved = Predicate::range("ts", Some(Value::DateTime(1_040)), None);
            assert!(
                ts.update_where(&moved, &[("label".into(), Value::Str("p9".into()))]).unwrap() > 0
            );
            let gone = Predicate::range("id", Some(Value::UInt64(100)), Some(Value::UInt64(130)));
            assert_eq!(ts.delete_where(&gone).unwrap(), 31);
            assert!(ts.compact().unwrap().merged_segments > 0);
            assert_eq!(ts.visible_rows(), 369);
            let got = store_fnv(&ts);
            if got != want[tier] {
                changed.push(format!("{kind:?}: {got:#018x}"));
            }
        }
        assert!(changed.is_empty(), "stored bytes changed:\n{}", changed.join("\n"));
    }
}
