//! Scalar and semantic partitioning (§IV-B).
//!
//! During ingestion rows are grouped by **(scalar partition key, semantic
//! bucket)** and each group becomes its own segment(s):
//!
//! * the scalar key is the tuple of `PARTITION BY` column values,
//! * the semantic bucket is the nearest of `CLUSTER BY … INTO n BUCKETS`
//!   k-means centroids, trained once on the first sizable ingest batch.
//!
//! Both keys land in [`crate::segment::SegmentMeta`], giving the scheduler
//! two independent pruning axes: predicate-vs-partition-key and
//! query-vector-vs-bucket-centroid similarity.

use crate::schema::TableSchema;
use crate::segment::Row;
use crate::value::Value;
use bh_common::{BhError, Result};
use bh_vector::kmeans::{train_kmeans, KMeans, KMeansParams};
use std::collections::BTreeMap;

/// A trained semantic clusterer for one table.
#[derive(Debug, Clone)]
pub struct SemanticClusterer {
    /// The trained k-means codebook (one centroid per bucket).
    pub km: KMeans,
}

impl SemanticClusterer {
    /// Train on a batch of embeddings (row-major). `buckets` is clamped to
    /// the batch size by k-means.
    pub fn train(embeddings: &[f32], dim: usize, buckets: usize, seed: u64) -> Result<Self> {
        let km = train_kmeans(
            embeddings,
            dim,
            &KMeansParams { k: buckets, max_iters: 10, seed, sample_limit: 8192 },
        )?;
        Ok(Self { km })
    }

    /// Bucket of one embedding; errors when its dimension is not the
    /// clusterer's.
    pub fn assign(&self, embedding: &[f32]) -> Result<u32> {
        Ok(self.km.assign(embedding)? as u32)
    }

    /// Bucket centroids ranked by distance to a query vector — the semantic
    /// pruning order used at scheduling time. `None` when the query cannot
    /// be compared with the centroids (a different dimension): the caller
    /// then prunes nothing.
    pub fn ranked_buckets(&self, query: &[f32]) -> Option<Vec<(u32, f32)>> {
        let ranked = self.km.nearest_centroids(query, self.km.k).ok()?;
        Some(ranked.into_iter().map(|(c, d)| (c as u32, d)).collect())
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.km.k
    }
}

/// The grouping key of one ingest group.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupKey {
    /// Canonical JSON encoding of the partition-key values (used as a map
    /// key because `Value` contains floats).
    pub partition_json: String,
    /// Semantic bucket, when the table is clustered.
    pub bucket: Option<u32>,
}

/// One group of rows destined for the same segment chain.
#[derive(Debug)]
pub struct RowGroup {
    /// Shared partition-key values.
    pub partition_key: Vec<Value>,
    /// Shared semantic bucket.
    pub bucket: Option<u32>,
    /// The group's rows.
    pub rows: Vec<Row>,
}

/// Extract the partition-key values of one row.
pub fn partition_key_of(schema: &TableSchema, row: &Row) -> Result<Vec<Value>> {
    schema
        .partition_by
        .iter()
        .map(|c| {
            let idx = schema
                .column_index(c)
                .ok_or_else(|| BhError::NotFound(format!("partition column {c}")))?;
            Ok(row[idx].clone())
        })
        .collect()
}

/// Group rows by (partition key, semantic bucket).
pub fn group_rows(
    schema: &TableSchema,
    clusterer: Option<&SemanticClusterer>,
    rows: Vec<Row>,
) -> Result<Vec<RowGroup>> {
    let vec_idx = match (&schema.cluster_by, clusterer) {
        (Some(cb), Some(_)) => Some(
            schema
                .column_index(&cb.column)
                .ok_or_else(|| BhError::NotFound(format!("cluster column {}", cb.column)))?,
        ),
        _ => None,
    };
    let mut groups: BTreeMap<GroupKey, RowGroup> = BTreeMap::new();
    for row in rows {
        let pk = partition_key_of(schema, &row)?;
        let bucket = match (vec_idx, clusterer) {
            (Some(vi), Some(cl)) => {
                let emb = row[vi]
                    .as_vector()
                    .ok_or_else(|| BhError::InvalidArgument("cluster column not a vector".into()))?;
                Some(cl.assign(emb)?)
            }
            _ => None,
        };
        let key = GroupKey {
            partition_json: serde_json::to_string(&pk)
                .map_err(|e| BhError::Serde(e.to_string()))?,
            bucket,
        };
        groups
            .entry(key)
            .or_insert_with(|| RowGroup { partition_key: pk, bucket, rows: Vec::new() })
            .rows
            .push(row);
    }
    Ok(groups.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType;
    use bh_common::rng::rng;
    use bh_vector::{IndexKind, Metric};
    use rand::Rng;

    fn schema() -> TableSchema {
        TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("label", ColumnType::Str)
            .with_column("emb", ColumnType::Vector(4))
            .with_partition_by(&["label"])
            .with_cluster_by("emb", 3)
            .with_vector_index("i", "emb", IndexKind::Flat, 4, Metric::L2)
    }

    fn mk_rows(n: usize, seed: u64) -> Vec<Row> {
        let mut r = rng(seed);
        (0..n)
            .map(|i| {
                let center = (i % 3) as f32 * 10.0;
                vec![
                    Value::UInt64(i as u64),
                    Value::Str(format!("l{}", i % 2)),
                    Value::Vector((0..4).map(|_| center + r.gen::<f32>() - 0.5).collect()),
                ]
            })
            .collect()
    }

    #[test]
    fn groups_by_scalar_key_only_without_clusterer() {
        let s = schema();
        let groups = group_rows(&s, None, mk_rows(20, 1)).unwrap();
        assert_eq!(groups.len(), 2); // l0, l1
        let total: usize = groups.iter().map(|g| g.rows.len()).sum();
        assert_eq!(total, 20);
        for g in &groups {
            assert!(g.bucket.is_none());
            assert_eq!(g.partition_key.len(), 1);
        }
    }

    #[test]
    fn groups_by_scalar_and_semantic() {
        let s = schema();
        let rows = mk_rows(60, 2);
        // Train the clusterer on the embeddings.
        let embs: Vec<f32> = rows.iter().flat_map(|r| r[2].as_vector().unwrap().to_vec()).collect();
        let cl = SemanticClusterer::train(&embs, 4, 3, 0).unwrap();
        let groups = group_rows(&s, Some(&cl), rows).unwrap();
        // 2 labels × 3 well-separated clusters = 6 groups.
        assert_eq!(groups.len(), 6);
        // Same-bucket rows must be semantically close: all rows of a group
        // assign to the group's bucket.
        for g in &groups {
            for row in &g.rows {
                assert_eq!(cl.assign(row[2].as_vector().unwrap()).unwrap(), g.bucket.unwrap());
            }
        }
    }

    #[test]
    fn ranked_buckets_ascending() {
        let rows = mk_rows(60, 3);
        let embs: Vec<f32> = rows.iter().flat_map(|r| r[2].as_vector().unwrap().to_vec()).collect();
        let cl = SemanticClusterer::train(&embs, 4, 3, 0).unwrap();
        let q = vec![0.0f32; 4]; // near cluster center 0
        let ranked = cl.ranked_buckets(&q).unwrap();
        assert_eq!(ranked.len(), 3);
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(ranked[0].0, cl.assign(&q).unwrap());
        // A query of another dimension ranks nothing, so nothing is pruned,
        // and an embedding of another dimension is refused.
        assert!(cl.ranked_buckets(&q[..3]).is_none());
        assert!(cl.assign(&[0.0; 5]).is_err());
    }

    #[test]
    fn no_partition_columns_yields_single_group() {
        let s = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("emb", ColumnType::Vector(2));
        let rows: Vec<Row> =
            (0..5).map(|i| vec![Value::UInt64(i), Value::Vector(vec![0.0, 0.0])]).collect();
        let groups = group_rows(&s, None, rows).unwrap();
        assert_eq!(groups.len(), 1);
        assert!(groups[0].partition_key.is_empty());
    }

    #[test]
    fn buckets_clamped_by_training_size() {
        let cl = SemanticClusterer::train(&[0.0, 0.0, 1.0, 1.0], 2, 16, 0).unwrap();
        assert_eq!(cl.buckets(), 2);
    }
}
