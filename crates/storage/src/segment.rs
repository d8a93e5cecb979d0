//! Immutable data segments and their persistence layout.
//!
//! A segment is the unit of everything in BlendHouse's design: it is written
//! once at ingest/compaction, gets exactly one vector index (§III-B), is the
//! unit of consistent-hash scheduling (§II-C), of semantic/scalar pruning
//! (§IV-B), and of cache residency (§II-D).
//!
//! ## Object-store layout
//!
//! ```text
//! tables/<table>/seg-<id>/meta            — JSON metadata (stats, partition)
//! tables/<table>/seg-<id>/col/<name>/<b>  — column block b (BLOCK_ROWS rows)
//! tables/<table>/seg-<id>/index           — serialized vector index
//! ```
//!
//! Column data is stored per **block**, so the fine-grained read path fetches
//! only the blocks covering requested row offsets (the read-amplification
//! optimization of §IV-C).
//!
//! A segment is built by [`Segment::from_columns`] from rows of a typed
//! column batch: the rows are put in `ORDER BY` order by a stable
//! permutation and each column is gathered once. It is written blocks
//! first ([`Segment::persist_columns`]), then its index and its meta
//! ([`Segment::commit`]): the meta is written once, last, so a segment
//! whose meta is in the store is complete (what
//! `TableStore::reload_from_store` relies on).

use crate::column::{ColumnData, BLOCK_ROWS};
use crate::objectstore::InMemoryObjectStore;
use crate::schema::TableSchema;
use crate::stats::{ColumnStats, TableSketch};
use crate::value::Value;
use bh_common::{BhError, Result, SegmentId};
use bh_vector::IndexKind;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Segment metadata — everything the scheduler and pruner need without
/// touching column data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// Segment id (stable hash/blob key).
    pub id: SegmentId,
    /// Owning table.
    pub table: String,
    /// Rows in the segment (visible or not).
    pub row_count: usize,
    /// LSM level: 0 for fresh ingest, incremented by compaction.
    pub level: u8,
    /// Values of the partition-key columns shared by all rows.
    pub partition_key: Vec<Value>,
    /// Semantic bucket id when the table is `CLUSTER BY`ed.
    pub cluster_bucket: Option<u32>,
    /// Mean embedding of the segment's vectors (semantic pruning key).
    pub centroid: Option<Vec<f32>>,
    /// Per-column min/max for zone-map pruning.
    pub column_stats: BTreeMap<String, ColumnStats>,
    /// Kind of the per-segment vector index, if one was built.
    pub index_kind: Option<IndexKind>,
    /// Size of the serialized index blob: what a cold load transfers, plus
    /// the vector column's blocks for a graph-only (raw HNSW) blob.
    pub index_bytes: u64,
    /// Kept only because the frozen `benchmark/` compiles against it
    /// (ROADMAP "Re-anchor the evidence"): always written 0.
    #[serde(default)]
    pub index_head_bytes: u64,
}

impl SegmentMeta {
    /// Object-store key prefix for this segment.
    pub fn prefix(&self) -> String {
        format!("tables/{}/{}", self.table, self.id.key())
    }

    /// Key of the JSON metadata blob.
    pub fn meta_key(&self) -> String {
        format!("{}/meta", self.prefix())
    }

    /// Key of the serialized vector-index blob.
    pub fn index_key(&self) -> String {
        format!("{}/index", self.prefix())
    }

    /// Key of one column block.
    pub fn block_key(&self, column: &str, block: usize) -> String {
        format!("{}/col/{column}/{block}", self.prefix())
    }

    /// Number of serialized blocks per column.
    pub fn block_count(&self) -> usize {
        self.row_count.div_ceil(BLOCK_ROWS)
    }
}

/// A fully materialized segment: metadata plus column data.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Descriptive metadata.
    pub meta: SegmentMeta,
    /// Column name → data.
    pub columns: BTreeMap<String, ColumnData>,
    /// The optimizer's sketch of the segment's rows (kept in memory only).
    pub sketch: TableSketch,
}

impl Segment {
    /// Build a segment from the rows `rows` of a batch (one column per
    /// schema column, in order, of the schema's storage types). The rows
    /// are sorted by the schema's `ORDER BY` key — a stable sort under
    /// [`ColumnData::cmp_rows`], which orders cells as
    /// [`Value::partial_cmp_scalar`] does — and each column is gathered
    /// once in that order. Column stats, the sketch and the vector centroid
    /// are computed from the gathered columns.
    pub fn from_columns(
        schema: &TableSchema,
        id: SegmentId,
        columns: &[ColumnData],
        rows: &[u32],
        partition_key: Vec<Value>,
        cluster_bucket: Option<u32>,
        level: u8,
    ) -> Result<Segment> {
        if columns.len() != schema.columns.len() {
            return Err(BhError::InvalidArgument(format!(
                "{} columns for {} schema columns",
                columns.len(),
                schema.columns.len()
            )));
        }
        let mut order = rows.to_vec();
        let key = schema.key_columns(&schema.order_by, columns)?;
        order.sort_by(|&a, &b| ColumnData::cmp_key(&key, a as usize, b as usize));

        let mut gathered = BTreeMap::new();
        let mut stats = BTreeMap::new();
        for (def, col) in schema.columns.iter().zip(columns) {
            let mut out = ColumnData::empty(schema.storage_type(def));
            col.gather_into(&order, 0, &mut out)
                .map_err(|e| BhError::InvalidArgument(format!("column {}: {e}", def.name)))?;
            if let Some(st) = ColumnStats::of(&out) {
                stats.insert(def.name.clone(), st);
            }
            gathered.insert(def.name.clone(), out);
        }
        let sketch =
            TableSketch::of_columns(order.len(), gathered.iter().map(|(n, c)| (n.as_str(), c)));

        // Centroid of the (sole) vector column, for semantic pruning.
        let centroid = schema.sole_vector_column().and_then(|vc| {
            let (data, dim) = gathered[&vc.name].vector_data()?;
            if dim == 0 || data.is_empty() {
                return None;
            }
            let n = data.len() / dim;
            let mut c = vec![0.0f64; dim];
            for i in 0..n {
                for d in 0..dim {
                    c[d] += data[i * dim + d] as f64;
                }
            }
            Some(c.iter().map(|&x| (x / n as f64) as f32).collect())
        });

        let meta = SegmentMeta {
            id,
            table: schema.name.clone(),
            row_count: order.len(),
            level,
            partition_key,
            cluster_bucket,
            centroid,
            column_stats: stats,
            index_kind: None,
            index_bytes: 0,
            index_head_bytes: 0,
        };
        Ok(Segment { meta, columns: gathered, sketch })
    }

    /// Number of rows (visible or not).
    pub fn row_count(&self) -> usize {
        self.meta.row_count
    }

    /// Access one column's data.
    pub fn column(&self, name: &str) -> Result<&ColumnData> {
        self.columns
            .get(name)
            .ok_or_else(|| BhError::NotFound(format!("column {name} in {}", self.meta.id)))
    }

    /// Begin uploading every column block to `store`; returns the bytes
    /// written and the latest upload's deadline, to wait out with
    /// [`InMemoryObjectStore::wait`]. With `wait_each`, every upload is
    /// waited out as it begins, so the blocks cost the sum of their
    /// transfers instead of the longest one.
    pub fn persist_columns(&self, store: &InMemoryObjectStore, wait_each: bool) -> (u64, u64) {
        let (mut bytes, mut deadline) = (0, 0);
        for (name, col) in &self.columns {
            for b in 0..col.block_count() {
                let block = col.encode_block(b);
                bytes += block.len() as u64;
                let arrives = store.put_begin(&self.meta.block_key(name, b), block);
                if wait_each {
                    store.wait(arrives);
                }
                deadline = deadline.max(arrives);
            }
        }
        (bytes, deadline)
    }

    /// After [`Self::persist_columns`]: write the index blob, if the
    /// segment has one, and then the meta, which records it. Returns the
    /// bytes written.
    pub fn commit(
        &mut self,
        store: &InMemoryObjectStore,
        index: Option<(Bytes, IndexKind)>,
    ) -> Result<u64> {
        let mut bytes = 0;
        if let Some((blob, kind)) = index {
            self.meta.index_kind = Some(kind);
            self.meta.index_bytes = blob.len() as u64;
            bytes += blob.len() as u64;
            store.put(&self.meta.index_key(), blob)?;
        }
        let meta_json = serde_json::to_vec(&self.meta)
            .map_err(|e| BhError::Serde(format!("segment meta encode: {e}")))?;
        bytes += meta_json.len() as u64;
        store.put(&self.meta.meta_key(), meta_json.into())?;
        Ok(bytes)
    }

    /// Load segment metadata from the store.
    pub fn load_meta(
        store: &InMemoryObjectStore,
        table: &str,
        id: SegmentId,
    ) -> Result<SegmentMeta> {
        let key = format!("tables/{table}/{}/meta", id.key());
        let blob = store.get(&key)?;
        serde_json::from_slice(&blob).map_err(|e| BhError::Serde(format!("segment meta: {e}")))
    }

    /// Load one full column (all blocks) from the store.
    pub fn load_column(
        store: &InMemoryObjectStore,
        schema: &TableSchema,
        meta: &SegmentMeta,
        name: &str,
    ) -> Result<ColumnData> {
        let def = schema
            .column(name)
            .ok_or_else(|| BhError::NotFound(format!("column {name}")))?;
        let ty = schema.storage_type(def);
        let mut out = ColumnData::empty(ty);
        for b in 0..meta.block_count() {
            let blob = store.get(&meta.block_key(name, b))?;
            let part = ColumnData::decode_block(ty, &blob)?;
            out.extend_from(&part)?;
        }
        if out.len() != meta.row_count {
            return Err(BhError::Storage(format!(
                "column {name} of {} decoded {} rows, meta says {}",
                meta.id,
                out.len(),
                meta.row_count
            )));
        }
        Ok(out)
    }

    /// Delete all blobs of a segment (compaction garbage collection).
    pub fn delete_blobs(store: &InMemoryObjectStore, meta: &SegmentMeta) -> Result<()> {
        for key in store.list(&meta.prefix()) {
            store.delete(&key)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType;
    use bh_vector::Metric;

    fn schema() -> TableSchema {
        TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("label", ColumnType::Str)
            .with_column("emb", ColumnType::Vector(4))
            .with_order_by(&["id"])
            .with_vector_index("idx", "emb", bh_vector::IndexKind::Hnsw, 4, Metric::L2)
    }

    /// `n` rows, ids descending (to exercise the sort), vectors `[i; 4]`.
    fn batch(n: usize) -> Vec<ColumnData> {
        vec![
            ColumnData::UInt64((0..n).map(|i| (n - i) as u64).collect()),
            ColumnData::Str((0..n).map(|i| format!("l{}", i % 3)).collect()),
            ColumnData::Vector { dim: 4, data: (0..n).flat_map(|i| [i as f32; 4]).collect() },
        ]
    }

    fn segment(id: u64, n: usize, bucket: Option<u32>, level: u8) -> Segment {
        let rows: Vec<u32> = (0..n as u32).collect();
        Segment::from_columns(&schema(), SegmentId(id), &batch(n), &rows, vec![], bucket, level)
            .unwrap()
    }

    #[test]
    fn from_columns_sorts_and_computes_stats() {
        let seg = segment(1, 10, None, 0);
        assert_eq!(seg.row_count(), 10);
        // Sorted ascending by id, the other columns moved with it.
        assert_eq!(seg.columns["id"].get(0), Value::UInt64(1));
        assert_eq!(seg.columns["id"].get(9), Value::UInt64(10));
        assert_eq!(seg.columns["emb"].vector_at(0).unwrap(), &[9.0; 4]);
        assert_eq!(seg.columns["label"].get(0), Value::Str("l0".into()));
        let st = &seg.meta.column_stats["id"];
        assert_eq!(st.min, Some(Value::UInt64(1)));
        assert_eq!(st.max, Some(Value::UInt64(10)));
        assert_eq!(st.rows, 10);
        // Vector column has no scalar stats but yields a centroid.
        assert!(!seg.meta.column_stats.contains_key("emb"));
        let c = seg.meta.centroid.as_ref().unwrap();
        assert_eq!(c.len(), 4);
        assert!((c[0] - 4.5).abs() < 1e-5);
        // A subset of the batch's rows, in any order, is taken as given and
        // sorted; equal keys keep the order they were handed in.
        let s = schema().with_order_by(&["label"]);
        let sub =
            Segment::from_columns(&s, SegmentId(2), &batch(10), &[7, 3, 6, 0], vec![], None, 0)
                .unwrap();
        let ids: Vec<Value> = (0..4).map(|i| sub.columns["id"].get(i)).collect();
        assert_eq!(ids, [7, 4, 10, 3].map(Value::UInt64));
        assert_eq!(sub.meta.column_stats["label"].max, Some(Value::Str("l1".into())));
    }

    #[test]
    fn invalid_row_rejected() {
        let s = schema();
        let mut bad = batch(1);
        bad[2] = ColumnData::Vector { dim: 1, data: vec![0.0] };
        assert!(Segment::from_columns(&s, SegmentId(1), &bad, &[0], vec![], None, 0).is_err());
        assert!(Segment::from_columns(&s, SegmentId(1), &bad[..2], &[0], vec![], None, 0).is_err());
    }

    #[test]
    fn empty_segment_is_fine() {
        let seg = segment(2, 0, None, 0);
        assert_eq!(seg.row_count(), 0);
        assert!(seg.meta.centroid.is_none());
        assert!(seg.meta.column_stats.is_empty());
    }

    #[test]
    fn persist_and_load_roundtrip() {
        let s = schema();
        let store = InMemoryObjectStore::for_tests();
        let mut seg = segment(3, 2500, Some(7), 1);
        seg.persist_columns(store.as_ref(), true);
        assert!(Segment::load_meta(store.as_ref(), "t", SegmentId(3)).is_err(), "meta goes last");
        seg.commit(store.as_ref(), Some((Bytes::from_static(b"blob"), IndexKind::Hnsw))).unwrap();

        let meta = Segment::load_meta(store.as_ref(), "t", SegmentId(3)).unwrap();
        assert_eq!(meta, seg.meta);
        assert_eq!(meta.cluster_bucket, Some(7));
        assert_eq!((meta.index_kind, meta.index_bytes), (Some(IndexKind::Hnsw), 4));
        assert_eq!(store.get(&meta.index_key()).unwrap(), Bytes::from_static(b"blob"));
        assert_eq!(meta.block_count(), 3); // 2500 rows / 1024

        for (name, col) in &seg.columns {
            assert_eq!(&Segment::load_column(store.as_ref(), &s, &meta, name).unwrap(), col);
        }
    }

    #[test]
    fn load_single_column() {
        let s = schema();
        let store = InMemoryObjectStore::for_tests();
        let seg = segment(4, 100, None, 0);
        seg.persist_columns(store.as_ref(), true);
        let col = Segment::load_column(store.as_ref(), &s, &seg.meta, "label").unwrap();
        assert_eq!(col.len(), 100);
        assert!(Segment::load_column(store.as_ref(), &s, &seg.meta, "nope").is_err());
    }

    #[test]
    fn delete_blobs_removes_everything() {
        let store = InMemoryObjectStore::for_tests();
        let mut seg = segment(5, 10, None, 0);
        seg.persist_columns(store.as_ref(), true);
        seg.commit(store.as_ref(), None).unwrap();
        assert!(!store.list(&seg.meta.prefix()).is_empty());
        Segment::delete_blobs(store.as_ref(), &seg.meta).unwrap();
        assert!(store.list(&seg.meta.prefix()).is_empty());
    }

    #[test]
    fn meta_json_roundtrip() {
        let s = schema();
        let seg = Segment::from_columns(
            &s,
            SegmentId(7),
            &batch(3),
            &[0, 1, 2],
            vec![Value::Str("p".into())],
            Some(2),
            3,
        )
        .unwrap();
        let json = serde_json::to_string(&seg.meta).unwrap();
        let back: SegmentMeta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, seg.meta);
    }
}
