//! Table schemas: columns, sort key, partitioning, and vector index
//! definitions — the storage-side mirror of Example 1's DDL.

use crate::column::ColumnData;
use crate::value::ColumnType;
use bh_common::{BhError, Result};
use bh_vector::{IndexKind, IndexSpec, Metric};
use serde::{Deserialize, Serialize};

/// One column definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

impl ColumnDef {
    /// A column definition.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Self { name: name.into(), ty }
    }
}

/// A vector index declared on a column
/// (`INDEX ann_idx embedding TYPE HNSW('DIM=960')`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorIndexDef {
    /// Index name.
    pub name: String,
    /// Indexed vector column.
    pub column: String,
    /// Full index specification.
    pub spec: IndexSpec,
}

/// Semantic clustering declaration (`CLUSTER BY embedding INTO n BUCKETS`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterBy {
    /// Clustered vector column.
    pub column: String,
    /// Number of k-means buckets.
    pub buckets: usize,
}

/// Full table schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Sort key (`ORDER BY`); rows inside a segment are sorted by it.
    pub order_by: Vec<String>,
    /// Scalar partition key columns (`PARTITION BY`).
    pub partition_by: Vec<String>,
    /// Semantic partitioning (`CLUSTER BY … INTO n BUCKETS`).
    pub cluster_by: Option<ClusterBy>,
    /// Vector indexes (at most one per vector column).
    pub indexes: Vec<VectorIndexDef>,
}

impl TableSchema {
    /// Start a builder-style schema with just a name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            columns: Vec::new(),
            order_by: Vec::new(),
            partition_by: Vec::new(),
            cluster_by: None,
            indexes: Vec::new(),
        }
    }

    /// Append a column.
    pub fn with_column(mut self, name: &str, ty: ColumnType) -> Self {
        self.columns.push(ColumnDef::new(name, ty));
        self
    }

    /// Set the sort key.
    pub fn with_order_by(mut self, cols: &[&str]) -> Self {
        self.order_by = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Set the scalar partition key.
    pub fn with_partition_by(mut self, cols: &[&str]) -> Self {
        self.partition_by = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Enable semantic clustering on a vector column.
    pub fn with_cluster_by(mut self, column: &str, buckets: usize) -> Self {
        self.cluster_by = Some(ClusterBy { column: column.into(), buckets });
        self
    }

    /// Declare a vector index; infers the metric/dim defaults from params.
    pub fn with_vector_index(
        mut self,
        name: &str,
        column: &str,
        kind: IndexKind,
        dim: usize,
        metric: Metric,
    ) -> Self {
        self.indexes.push(VectorIndexDef {
            name: name.into(),
            column: column.into(),
            spec: IndexSpec::new(kind, dim, metric),
        });
        self
    }

    /// Find a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Position of a column in declaration order.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The index defined over `column`, if any.
    pub fn index_on(&self, column: &str) -> Option<&VectorIndexDef> {
        self.indexes.iter().find(|i| i.column == column)
    }

    /// The type `def`'s cells are stored and checked as: a dimensionless
    /// vector column (`Array(Float32)`) takes its index's dimension (0 when
    /// it has none).
    pub fn storage_type(&self, def: &ColumnDef) -> ColumnType {
        match def.ty {
            ColumnType::Vector(0) => {
                ColumnType::Vector(self.index_on(&def.name).map_or(0, |i| i.spec.dim))
            }
            t => t,
        }
    }

    /// The single vector column of the table, if exactly one exists.
    pub fn sole_vector_column(&self) -> Option<&ColumnDef> {
        let mut it = self.columns.iter().filter(|c| c.ty.is_vector());
        match (it.next(), it.next()) {
            (Some(c), None) => Some(c),
            _ => None,
        }
    }

    /// Validate internal consistency; called at CREATE TABLE time.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(BhError::InvalidArgument("table name must not be empty".into()));
        }
        if self.columns.is_empty() {
            return Err(BhError::InvalidArgument("table must have at least one column".into()));
        }
        for (i, c) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|o| o.name == c.name) {
                return Err(BhError::AlreadyExists(format!("duplicate column {}", c.name)));
            }
        }
        for col in self.order_by.iter().chain(&self.partition_by) {
            match self.column(col) {
                None => return Err(BhError::NotFound(format!("key column {col}"))),
                Some(def) if def.ty.is_vector() => {
                    return Err(BhError::InvalidArgument(format!(
                        "vector column {col} cannot be a sort/partition key"
                    )))
                }
                _ => {}
            }
        }
        if let Some(cb) = &self.cluster_by {
            let def = self
                .column(&cb.column)
                .ok_or_else(|| BhError::NotFound(format!("cluster column {}", cb.column)))?;
            if !def.ty.is_vector() {
                return Err(BhError::InvalidArgument(format!(
                    "CLUSTER BY column {} must be a vector column",
                    cb.column
                )));
            }
            if cb.buckets == 0 {
                return Err(BhError::InvalidArgument("CLUSTER BY needs >= 1 bucket".into()));
            }
        }
        for (i, idx) in self.indexes.iter().enumerate() {
            idx.spec.validate()?;
            let col = self
                .column(&idx.column)
                .ok_or_else(|| BhError::NotFound(format!("index column {}", idx.column)))?;
            match col.ty {
                ColumnType::Vector(d) => {
                    if d != 0 && d != idx.spec.dim {
                        return Err(BhError::DimensionMismatch { expected: d, got: idx.spec.dim });
                    }
                }
                _ => {
                    return Err(BhError::InvalidArgument(format!(
                        "index {} must target a vector column",
                        idx.name
                    )))
                }
            }
            if self.indexes[..i].iter().any(|o| o.column == idx.column) {
                return Err(BhError::AlreadyExists(format!(
                    "multiple indexes on column {}",
                    idx.column
                )));
            }
        }
        Ok(())
    }

    /// The columns of a batch that `key` (`ORDER BY`, `PARTITION BY`) names.
    pub fn key_columns<'a>(
        &self,
        key: &[String],
        columns: &'a [ColumnData],
    ) -> Result<Vec<&'a ColumnData>> {
        let find = |c: &String| self.column_index(c).map(|i| &columns[i]);
        key.iter()
            .map(|c| find(c).ok_or_else(|| BhError::NotFound(format!("key column {c}"))))
            .collect()
    }

    /// One empty column per schema column, of its storage type: an ingest
    /// batch to fill.
    pub fn empty_batch(&self) -> Vec<ColumnData> {
        self.columns.iter().map(|c| ColumnData::empty(self.storage_type(c))).collect()
    }

    /// Check an ingest batch — one column per schema column, in order —
    /// and return its row count. Every column has its storage type (a
    /// dimensionless vector column takes any one dimension) and the same
    /// number of rows, and every vector component is finite. A column
    /// cannot hold a NULL: filling one with it fails, naming the column.
    pub fn check_batch(&self, columns: &[ColumnData]) -> Result<usize> {
        if columns.len() != self.columns.len() {
            return Err(BhError::InvalidArgument(format!(
                "batch of {} columns for {} schema columns",
                columns.len(),
                self.columns.len()
            )));
        }
        let rows = columns.first().map_or(0, ColumnData::len);
        for (col, def) in columns.iter().zip(&self.columns) {
            let (got, want) = (col.ty(), self.storage_type(def));
            let typed = got == want || (want == ColumnType::Vector(0) && got.is_vector());
            if !typed || col.len() != rows {
                return Err(BhError::InvalidArgument(format!(
                    "column {} holds {} {} cells, not {rows} {}",
                    def.name,
                    col.len(),
                    got.name(),
                    want.name()
                )));
            }
            // A non-finite component has no distance order: every distance
            // to it is NaN or infinite.
            if let Some((data, dim)) = col.vector_data() {
                if let Some(i) = data.iter().position(|x| !x.is_finite()) {
                    return Err(BhError::InvalidArgument(format!(
                        "column {} component {} is {}, not a finite Float32",
                        def.name,
                        i % dim.max(1),
                        data[i]
                    )));
                }
            }
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn images_schema() -> TableSchema {
        TableSchema::new("images")
            .with_column("id", ColumnType::UInt64)
            .with_column("label", ColumnType::Str)
            .with_column("published_time", ColumnType::DateTime)
            .with_column("embedding", ColumnType::Vector(8))
            .with_order_by(&["published_time"])
            .with_partition_by(&["label"])
            .with_cluster_by("embedding", 4)
            .with_vector_index("ann_idx", "embedding", IndexKind::Hnsw, 8, Metric::L2)
    }

    #[test]
    fn example1_like_schema_validates() {
        images_schema().validate().unwrap();
    }

    #[test]
    fn lookups() {
        let s = images_schema();
        assert_eq!(s.column_index("label"), Some(1));
        assert!(s.column("missing").is_none());
        assert_eq!(s.index_on("embedding").unwrap().name, "ann_idx");
        assert_eq!(s.sole_vector_column().unwrap().name, "embedding");
    }

    #[test]
    fn duplicate_column_rejected() {
        let s = TableSchema::new("t")
            .with_column("a", ColumnType::UInt64)
            .with_column("a", ColumnType::Int64);
        assert!(s.validate().is_err());
    }

    #[test]
    fn vector_partition_key_rejected() {
        let s = TableSchema::new("t")
            .with_column("v", ColumnType::Vector(4))
            .with_partition_by(&["v"]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn cluster_by_requires_vector_column() {
        let s = TableSchema::new("t")
            .with_column("a", ColumnType::UInt64)
            .with_cluster_by("a", 4);
        assert!(s.validate().is_err());
        let s2 = TableSchema::new("t")
            .with_column("v", ColumnType::Vector(4))
            .with_cluster_by("v", 0);
        assert!(s2.validate().is_err());
    }

    #[test]
    fn index_dimension_must_match_column() {
        let s = TableSchema::new("t")
            .with_column("v", ColumnType::Vector(8))
            .with_vector_index("i", "v", IndexKind::Hnsw, 16, Metric::L2);
        assert!(s.validate().is_err());
    }

    #[test]
    fn index_on_scalar_rejected() {
        let s = TableSchema::new("t")
            .with_column("a", ColumnType::UInt64)
            .with_vector_index("i", "a", IndexKind::Hnsw, 4, Metric::L2);
        assert!(s.validate().is_err());
    }

    /// A two-row batch of `images_schema`, its vectors `[first; second]`.
    fn batch(first: Vec<f32>, second: Vec<f32>) -> Vec<ColumnData> {
        vec![
            ColumnData::UInt64(vec![1, 2]),
            ColumnData::Str(vec!["animal".into(), "plant".into()]),
            ColumnData::DateTime(vec![100, 200]),
            ColumnData::Vector { dim: first.len(), data: [first, second].concat() },
        ]
    }

    #[test]
    fn row_validation() {
        let s = images_schema();
        assert_eq!(s.check_batch(&batch(vec![0.0; 8], vec![1.0; 8])).unwrap(), 2);
        assert_eq!(s.check_batch(&s.empty_batch()).unwrap(), 0);
        let mut bad_arity = batch(vec![0.0; 8], vec![1.0; 8]);
        bad_arity.pop();
        assert!(s.check_batch(&bad_arity).is_err());
        let err = s.check_batch(&batch(vec![0.0; 4], vec![1.0; 4])).unwrap_err().to_string();
        assert!(err.contains("column embedding"), "{err}");
        let mut bad_type = batch(vec![0.0; 8], vec![1.0; 8]);
        bad_type[0] = ColumnData::Str(vec!["oops".into(), "x".into()]);
        assert!(s.check_batch(&bad_type).unwrap_err().to_string().contains("column id"));
        let mut ragged = batch(vec![0.0; 8], vec![1.0; 8]);
        ragged[2] = ColumnData::DateTime(vec![100]);
        assert!(s.check_batch(&ragged).unwrap_err().to_string().contains("column published_time"));
    }

    #[test]
    fn non_finite_vector_components_are_rejected_by_column_and_index() {
        let s = images_schema();
        for (bad, at) in [(f32::INFINITY, 0), (f32::NEG_INFINITY, 3), (f32::NAN, 7)] {
            let mut v = vec![1.0f32; 8];
            v[at] = bad;
            let err = s.check_batch(&batch(vec![1.0; 8], v)).unwrap_err().to_string();
            assert!(err.contains(&format!("column embedding component {at}")), "{err}");
        }
        let extremes = vec![f32::MAX, -f32::MAX, f32::MIN_POSITIVE, -0.0, 0.0, 1.0, 2.0, 3.0];
        s.check_batch(&batch(extremes, vec![0.0; 8])).unwrap();
    }

    #[test]
    fn vector_dim_inferred_from_index_when_column_is_dimless() {
        let s = TableSchema::new("t")
            .with_column("v", ColumnType::Vector(0))
            .with_vector_index("i", "v", IndexKind::Hnsw, 4, Metric::L2);
        s.validate().unwrap();
        assert_eq!(s.empty_batch(), vec![ColumnData::empty(ColumnType::Vector(4))]);
        let vectors = |dim: usize| vec![ColumnData::Vector { dim, data: vec![0.0; dim] }];
        assert_eq!(s.check_batch(&vectors(4)).unwrap(), 1);
        assert!(s.check_batch(&vectors(5)).is_err());
        // With no index to take a dimension from, any one dimension fits.
        let s = TableSchema::new("t").with_column("v", ColumnType::Vector(0));
        assert_eq!(s.check_batch(&vectors(5)).unwrap(), 1);
    }
}
