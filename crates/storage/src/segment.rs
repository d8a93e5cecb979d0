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

use crate::column::{ColumnData, BLOCK_ROWS};
use crate::objectstore::InMemoryObjectStore;
use crate::schema::TableSchema;
use crate::stats::ColumnStats;
use crate::value::Value;
use bh_common::{BhError, Result, SegmentId};
use bh_vector::IndexKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One row as a value list, in schema column order.
pub type Row = Vec<Value>;

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
    /// Size of the serialized index blob (cache weight / transfer size).
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

// ColumnStats needs serde for the meta blob.
impl Serialize for ColumnStats {
    fn serialize<S: serde::Serializer>(&self, s: S) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = s.serialize_struct("ColumnStats", 3)?;
        st.serialize_field("min", &self.min)?;
        st.serialize_field("max", &self.max)?;
        st.serialize_field("rows", &self.rows)?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for ColumnStats {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> std::result::Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Raw {
            min: Option<Value>,
            max: Option<Value>,
            rows: usize,
        }
        let raw = Raw::deserialize(d)?;
        Ok(ColumnStats { min: raw.min, max: raw.max, rows: raw.rows })
    }
}

/// A fully materialized segment: metadata plus column data.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Descriptive metadata.
    pub meta: SegmentMeta,
    /// Column name → data.
    pub columns: BTreeMap<String, ColumnData>,
}

impl Segment {
    /// Build a segment from rows. Rows are sorted by the schema's `ORDER BY`
    /// key; column stats and the vector centroid are computed here.
    pub fn from_rows(
        schema: &TableSchema,
        id: SegmentId,
        mut rows: Vec<Row>,
        partition_key: Vec<Value>,
        cluster_bucket: Option<u32>,
        level: u8,
    ) -> Result<Segment> {
        for row in &rows {
            schema.validate_row(row)?;
        }
        // Sort by ORDER BY key (lexicographic over key columns).
        if !schema.order_by.is_empty() {
            let key_idx: Vec<usize> = schema
                .order_by
                .iter()
                .map(|c| {
                    schema
                        .column_index(c)
                        .ok_or_else(|| BhError::NotFound(format!("order key {c}")))
                })
                .collect::<Result<_>>()?;
            rows.sort_by(|a, b| {
                for &i in &key_idx {
                    match a[i].partial_cmp_scalar(&b[i]) {
                        Some(std::cmp::Ordering::Equal) | None => continue,
                        Some(o) => return o,
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        let mut columns: BTreeMap<String, ColumnData> = schema
            .columns
            .iter()
            .map(|c| (c.name.clone(), ColumnData::empty(schema.storage_type(c))))
            .collect();
        let mut stats: BTreeMap<String, ColumnStats> = BTreeMap::new();
        for row in &rows {
            for (cell, def) in row.iter().zip(&schema.columns) {
                columns
                    .get_mut(&def.name)
                    .ok_or_else(|| {
                        BhError::Internal(format!("column {} missing from build map", def.name))
                    })?
                    .push(cell)
                    .map_err(|e| BhError::InvalidArgument(format!("column {}: {e}", def.name)))?;
                if def.ty.is_ordered_scalar() {
                    stats.entry(def.name.clone()).or_default().observe(cell);
                }
            }
        }

        // Centroid of the (sole) vector column, for semantic pruning.
        let centroid = schema.sole_vector_column().and_then(|vc| {
            let col = &columns[&vc.name];
            let (data, dim) = col.vector_data()?;
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
            row_count: rows.len(),
            level,
            partition_key,
            cluster_bucket,
            centroid,
            column_stats: stats,
            index_kind: None,
            index_bytes: 0,
            index_head_bytes: 0,
        };
        Ok(Segment { meta, columns })
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

    /// Materialize one row as a column→value map (predicate evaluation).
    pub fn row_map(&self, offset: usize) -> BTreeMap<String, Value> {
        self.columns.iter().map(|(k, c)| (k.clone(), c.get(offset))).collect()
    }

    /// Extract one full row in schema order.
    pub fn row(&self, schema: &TableSchema, offset: usize) -> Row {
        schema.columns.iter().map(|c| self.columns[&c.name].get(offset)).collect()
    }

    /// Total in-memory bytes of column data.
    pub fn memory_bytes(&self) -> usize {
        self.columns.values().map(|c| c.memory_bytes()).sum()
    }

    /// Persist all column blocks and metadata to `store`; returns the bytes
    /// written.
    pub fn persist(&self, store: &InMemoryObjectStore) -> Result<u64> {
        let mut bytes = 0;
        for (name, col) in &self.columns {
            for b in 0..col.block_count() {
                let block = col.encode_block(b);
                bytes += block.len() as u64;
                store.put(&self.meta.block_key(name, b), block)?;
            }
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

    /// Load a whole segment (all columns).
    pub fn load(
        store: &InMemoryObjectStore,
        schema: &TableSchema,
        meta: &SegmentMeta,
    ) -> Result<Segment> {
        let mut columns = BTreeMap::new();
        for def in &schema.columns {
            columns.insert(def.name.clone(), Self::load_column(store, schema, meta, &def.name)?);
        }
        Ok(Segment { meta: meta.clone(), columns })
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
            .with_vector_index("idx", "emb", bh_vector::IndexKind::Flat, 4, Metric::L2)
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::UInt64((n - i) as u64), // reverse order to exercise sorting
                    Value::Str(format!("l{}", i % 3)),
                    Value::Vector(vec![i as f32; 4]),
                ]
            })
            .collect()
    }

    #[test]
    fn from_rows_sorts_and_computes_stats() {
        let s = schema();
        let seg = Segment::from_rows(&s, SegmentId(1), rows(10), vec![], None, 0).unwrap();
        assert_eq!(seg.row_count(), 10);
        // Sorted ascending by id.
        assert_eq!(seg.columns["id"].get(0), Value::UInt64(1));
        assert_eq!(seg.columns["id"].get(9), Value::UInt64(10));
        let st = &seg.meta.column_stats["id"];
        assert_eq!(st.min, Some(Value::UInt64(1)));
        assert_eq!(st.max, Some(Value::UInt64(10)));
        // Vector column has no scalar stats but yields a centroid.
        assert!(!seg.meta.column_stats.contains_key("emb"));
        let c = seg.meta.centroid.as_ref().unwrap();
        assert_eq!(c.len(), 4);
        assert!((c[0] - 4.5).abs() < 1e-5);
    }

    #[test]
    fn invalid_row_rejected() {
        let s = schema();
        let bad = vec![vec![Value::UInt64(1), Value::Str("x".into()), Value::Vector(vec![0.0])]];
        assert!(Segment::from_rows(&s, SegmentId(1), bad, vec![], None, 0).is_err());
    }

    #[test]
    fn empty_segment_is_fine() {
        let s = schema();
        let seg = Segment::from_rows(&s, SegmentId(2), vec![], vec![], None, 0).unwrap();
        assert_eq!(seg.row_count(), 0);
        assert!(seg.meta.centroid.is_none());
    }

    #[test]
    fn persist_and_load_roundtrip() {
        let s = schema();
        let store = InMemoryObjectStore::for_tests();
        let seg = Segment::from_rows(&s, SegmentId(3), rows(2500), vec![], Some(7), 1).unwrap();
        seg.persist(store.as_ref()).unwrap();

        let meta = Segment::load_meta(store.as_ref(), "t", SegmentId(3)).unwrap();
        assert_eq!(meta, seg.meta);
        assert_eq!(meta.cluster_bucket, Some(7));
        assert_eq!(meta.block_count(), 3); // 2500 rows / 1024

        let loaded = Segment::load(store.as_ref(), &s, &meta).unwrap();
        assert_eq!(loaded.columns, seg.columns);
    }

    #[test]
    fn load_single_column() {
        let s = schema();
        let store = InMemoryObjectStore::for_tests();
        let seg = Segment::from_rows(&s, SegmentId(4), rows(100), vec![], None, 0).unwrap();
        seg.persist(store.as_ref()).unwrap();
        let col = Segment::load_column(store.as_ref(), &s, &seg.meta, "label").unwrap();
        assert_eq!(col.len(), 100);
        assert!(Segment::load_column(store.as_ref(), &s, &seg.meta, "nope").is_err());
    }

    #[test]
    fn delete_blobs_removes_everything() {
        let s = schema();
        let store = InMemoryObjectStore::for_tests();
        let seg = Segment::from_rows(&s, SegmentId(5), rows(10), vec![], None, 0).unwrap();
        seg.persist(store.as_ref()).unwrap();
        assert!(!store.list(&seg.meta.prefix()).is_empty());
        Segment::delete_blobs(store.as_ref(), &seg.meta).unwrap();
        assert!(store.list(&seg.meta.prefix()).is_empty());
    }

    #[test]
    fn row_extraction() {
        let s = schema();
        let seg = Segment::from_rows(&s, SegmentId(6), rows(5), vec![], None, 0).unwrap();
        let r = seg.row(&s, 0);
        assert_eq!(r[0], Value::UInt64(1));
        let m = seg.row_map(0);
        assert_eq!(m["id"], Value::UInt64(1));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn meta_json_roundtrip() {
        let s = schema();
        let seg = Segment::from_rows(
            &s,
            SegmentId(7),
            rows(3),
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
