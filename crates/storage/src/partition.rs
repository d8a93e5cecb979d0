//! Scalar and semantic partitioning (§IV-B).
//!
//! During ingestion the rows of a batch are grouped by **(scalar partition
//! key, semantic bucket)** and each group becomes its own segment(s):
//!
//! * the scalar key is the tuple of `PARTITION BY` column values,
//! * the semantic bucket is the nearest of `CLUSTER BY … INTO n BUCKETS`
//!   k-means centroids, trained once, on the first ingest batch that holds
//!   at least `n` vectors (rows inserted before that have no bucket).
//!
//! A group is a list of row offsets into the batch's columns; nothing is
//! copied until [`crate::segment::Segment::from_columns`] gathers a chunk.
//! Both keys land in [`crate::segment::SegmentMeta`], giving the scheduler
//! two independent pruning axes: predicate-vs-partition-key and
//! query-vector-vs-bucket-centroid similarity.

use crate::column::ColumnData;
use crate::schema::TableSchema;
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

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.km.k
    }
}

/// The rows of one ingest batch bound for the same segment chain.
#[derive(Debug, PartialEq)]
pub struct BatchGroup {
    /// Shared partition-key values.
    pub partition_key: Vec<Value>,
    /// Shared semantic bucket.
    pub bucket: Option<u32>,
    /// Offsets of the group's rows in the batch, ascending.
    pub rows: Vec<u32>,
}

/// Group the `rows` rows of a checked batch (one column per schema column)
/// by (partition key, semantic bucket). Groups come in the order of the
/// key's JSON encoding, then the bucket — the order their segments are
/// numbered in; a group's key is that of its first row. A table with
/// neither `PARTITION BY` nor a clusterer is one group, with no key made
/// per row.
pub fn group_batch(
    schema: &TableSchema,
    clusterer: Option<&SemanticClusterer>,
    columns: &[ColumnData],
    rows: usize,
) -> Result<Vec<BatchGroup>> {
    let keys = schema.key_columns(&schema.partition_by, columns)?;
    let buckets: Option<Vec<u32>> = match (&schema.cluster_by, clusterer) {
        (Some(cb), Some(cl)) => {
            let (data, dim) = schema
                .column_index(&cb.column)
                .and_then(|i| columns[i].vector_data())
                .ok_or_else(|| BhError::InvalidArgument("cluster column not a vector".into()))?;
            Some(data.chunks_exact(dim.max(1)).map(|v| cl.assign(v)).collect::<Result<_>>()?)
        }
        _ => None,
    };
    if keys.is_empty() && buckets.is_none() {
        let rows = (0..rows as u32).collect();
        return Ok(vec![BatchGroup { partition_key: Vec::new(), bucket: None, rows }]);
    }
    let mut groups: BTreeMap<(String, Option<u32>), BatchGroup> = BTreeMap::new();
    for r in 0..rows {
        let partition_key: Vec<Value> = keys.iter().map(|k| k.get(r)).collect();
        let bucket = buckets.as_ref().map(|b| b[r]);
        let json =
            serde_json::to_string(&partition_key).map_err(|e| BhError::Serde(e.to_string()))?;
        groups
            .entry((json, bucket))
            .or_insert_with(|| BatchGroup { partition_key, bucket, rows: Vec::new() })
            .rows
            .push(r as u32);
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
            .with_vector_index("i", "emb", IndexKind::Hnsw, 4, Metric::L2)
    }

    fn batch(n: usize, seed: u64) -> Vec<ColumnData> {
        let mut r = rng(seed);
        let emb = (0..n).flat_map(|i| {
            let center = (i % 3) as f32 * 10.0;
            (0..4).map(|_| center + r.gen::<f32>() - 0.5).collect::<Vec<_>>()
        });
        vec![
            ColumnData::UInt64((0..n as u64).collect()),
            ColumnData::Str((0..n).map(|i| format!("l{}", i % 2)).collect()),
            ColumnData::Vector { dim: 4, data: emb.collect() },
        ]
    }

    #[test]
    fn groups_by_scalar_key_only_without_clusterer() {
        let s = schema();
        let groups = group_batch(&s, None, &batch(20, 1), 20).unwrap();
        assert_eq!(groups.len(), 2); // l0, l1
        let total: usize = groups.iter().map(|g| g.rows.len()).sum();
        assert_eq!(total, 20);
        for (g, label) in groups.iter().zip(["l0", "l1"]) {
            assert!(g.bucket.is_none());
            assert_eq!(g.partition_key, vec![Value::Str(label.into())]);
            // Rows stay in batch order.
            assert!(g.rows.windows(2).all(|w| w[0] < w[1]));
            assert!(g.rows.iter().all(|&r| r % 2 == u32::from(label == "l1")));
        }
    }

    #[test]
    fn groups_by_scalar_and_semantic() {
        let s = schema();
        let columns = batch(60, 2);
        let (embs, dim) = columns[2].vector_data().unwrap();
        let cl = SemanticClusterer::train(embs, dim, 3, 0).unwrap();
        let groups = group_batch(&s, Some(&cl), &columns, 60).unwrap();
        // 2 labels × 3 well-separated clusters = 6 groups.
        assert_eq!(groups.len(), 6);
        // Same-bucket rows must be semantically close: all rows of a group
        // assign to the group's bucket.
        for g in &groups {
            for &row in &g.rows {
                let v = columns[2].vector_at(row as usize).unwrap();
                assert_eq!(cl.assign(v).unwrap(), g.bucket.unwrap());
            }
        }
        // An embedding of another dimension is refused.
        assert!(cl.assign(&[0.0; 5]).is_err());
    }

    #[test]
    fn no_partition_columns_yields_single_group() {
        let s = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("emb", ColumnType::Vector(2));
        let columns = vec![
            ColumnData::UInt64((0..5).collect()),
            ColumnData::Vector { dim: 2, data: vec![0.0; 10] },
        ];
        let groups = group_batch(&s, None, &columns, 5).unwrap();
        assert_eq!(
            groups,
            vec![BatchGroup { partition_key: vec![], bucket: None, rows: vec![0, 1, 2, 3, 4] }]
        );
    }

    /// Groups are numbered in the order of their key's JSON, not of the
    /// values: 10 sorts before 9.
    #[test]
    fn groups_follow_the_keys_encoding() {
        let s =
            TableSchema::new("t").with_column("p", ColumnType::UInt64).with_partition_by(&["p"]);
        let groups = group_batch(&s, None, &[ColumnData::UInt64(vec![9, 10, 9])], 3).unwrap();
        let keys: Vec<_> =
            groups.iter().map(|g| (g.partition_key.clone(), g.rows.clone())).collect();
        assert_eq!(
            keys,
            vec![(vec![Value::UInt64(10)], vec![1]), (vec![Value::UInt64(9)], vec![0, 2])]
        );
        // JSON writes every non-finite float as `null`: +inf and -inf share
        // a group, keyed by its first row in batch order.
        let s =
            TableSchema::new("t").with_column("p", ColumnType::Float64).with_partition_by(&["p"]);
        let p = ColumnData::Float64(vec![f64::INFINITY, 1.0, f64::NEG_INFINITY]);
        let groups = group_batch(&s, None, &[p], 3).unwrap();
        let keys: Vec<_> =
            groups.iter().map(|g| (g.partition_key.clone(), g.rows.clone())).collect();
        assert_eq!(
            keys,
            vec![
                (vec![Value::Float64(1.0)], vec![1]),
                (vec![Value::Float64(f64::INFINITY)], vec![0, 2])
            ]
        );
    }

    #[test]
    fn buckets_clamped_by_training_size() {
        let cl = SemanticClusterer::train(&[0.0, 0.0, 1.0, 1.0], 2, 16, 0).unwrap();
        assert_eq!(cl.buckets(), 2);
    }
}
