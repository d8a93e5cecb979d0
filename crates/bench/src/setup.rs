//! Shared system-construction helpers for the experiment benches.
//!
//! Every bench loads the same universal table shape so workloads are
//! portable across experiments:
//!
//! ```sql
//! CREATE TABLE bench (
//!   id UInt64, x Int64, y Int64, caption String, similarity Float64,
//!   emb Array(Float32), INDEX ann emb TYPE <kind>('DIM=<dim>', …)
//! ) ORDER BY id [PARTITION BY …] [CLUSTER BY emb INTO n BUCKETS]
//! ```

use crate::datasets::Dataset;
use crate::workloads::HybridQuery;
use bh_baselines::{BaselineSystem, MilvusSim, PgvectorSim, SimFilter};
use bh_common::rng::derived_rng;
use bh_storage::value::Value;
use blendhouse::{Database, DatabaseConfig};
use rand::Rng;

/// Declarative knobs for [`build_database`].
#[derive(Debug, Clone, Default)]
pub struct TableOptions {
    /// e.g. `"HNSW('DIM=64', 'M=16')"`; DIM is appended automatically when
    /// `{dim}` placeholder is present.
    pub index_clause: Option<String>,
    /// e.g. `"PARTITION BY pbucket"`.
    pub partition_clause: String,
    /// e.g. `"CLUSTER BY emb INTO 16 BUCKETS"`.
    pub cluster_clause: String,
    /// Add a precomputed scalar partition-bucket column (`pbucket`),
    /// `similarity` decile — used by the partition-strategy experiment.
    pub with_pbucket: bool,
}

/// Second attribute column (`y`) values for a dataset — derived
/// deterministically so ground truth can reproduce them.
pub fn second_attr(data: &Dataset) -> Vec<i64> {
    let mut r = derived_rng(data.spec.seed, 0x5ECD);
    (0..data.n()).map(|_| r.gen_range(0..1_000_000usize) as i64).collect()
}

/// Build a BlendHouse database containing the dataset in table `bench`.
pub fn build_database(data: &Dataset, cfg: DatabaseConfig, topts: &TableOptions) -> Database {
    let db = Database::new(cfg);
    let index = topts
        .index_clause
        .clone()
        .unwrap_or_else(|| format!("HNSW('DIM={}', 'M=16', 'EF_CONSTRUCTION=96')", data.dim()));
    let pbucket_col = if topts.with_pbucket { "pbucket Int64," } else { "" };
    let ddl = format!(
        "CREATE TABLE bench (
           id UInt64, x Int64, y Int64, caption String, similarity Float64, {pbucket_col}
           emb Array(Float32),
           INDEX ann emb TYPE {index}
         ) ORDER BY id {} {}",
        topts.partition_clause, topts.cluster_clause,
    );
    db.execute(&ddl).unwrap_or_else(|e| panic!("DDL failed: {e}\n{ddl}"));
    ingest_dataset(&db, data, topts.with_pbucket);
    db
}

/// Ingest a dataset into the `bench` table in batches.
pub fn ingest_dataset(db: &Database, data: &Dataset, with_pbucket: bool) {
    let table = db.table("bench").expect("created above");
    let ys = second_attr(data);
    let batch = 4096;
    let mut rows = Vec::with_capacity(batch);
    for (i, &y) in ys.iter().enumerate() {
        let mut row = vec![
            Value::UInt64(i as u64),
            Value::Int64(data.rand_int[i]),
            Value::Int64(y),
            Value::Str(data.captions.get(i).cloned().unwrap_or_default()),
            Value::Float64(data.similarity[i]),
        ];
        if with_pbucket {
            row.push(Value::Int64((data.similarity[i] * 10.0) as i64));
        }
        row.push(Value::Vector(data.vector(i).to_vec()));
        rows.push(row);
        if rows.len() == batch {
            table.insert_rows(std::mem::take(&mut rows)).expect("ingest");
        }
    }
    if !rows.is_empty() {
        table.insert_rows(rows).expect("ingest");
    }
}

/// Load a dataset into a baseline system (x/y/similarity attributes).
pub fn load_baseline(sys: &mut dyn BaselineSystem, data: &Dataset) {
    let ys = second_attr(data);
    let xs: Vec<f64> = data.rand_int.iter().map(|&v| v as f64).collect();
    let ys_f: Vec<f64> = ys.iter().map(|&v| v as f64).collect();
    let sims: Vec<f64> = data.similarity.clone();
    let ids: Vec<u64> = (0..data.n() as u64).collect();
    let batch = 4096;
    let mut start = 0;
    while start < data.n() {
        let end = (start + batch).min(data.n());
        sys.ingest(
            &data.vectors[start * data.dim()..end * data.dim()],
            &ids[start..end],
            &[
                ("x", &xs[start..end]),
                ("y", &ys_f[start..end]),
                ("similarity", &sims[start..end]),
            ],
        )
        .expect("baseline ingest");
        start = end;
    }
}

/// A fresh, fully loaded Milvus stand-in for a dataset.
pub fn loaded_milvus(data: &Dataset) -> MilvusSim {
    let mut m = MilvusSim::with_defaults(data.dim());
    load_baseline(&mut m, data);
    m.finalize().expect("milvus finalize");
    m
}

/// A fresh, fully loaded pgvector stand-in for a dataset.
pub fn loaded_pgvector(data: &Dataset) -> PgvectorSim {
    let mut p = PgvectorSim::with_defaults(data.dim());
    load_baseline(&mut p, data);
    p.finalize().expect("pgvector finalize");
    p
}

/// Convert a workload query to a baseline filter.
pub fn to_sim_filter(q: &HybridQuery) -> Option<SimFilter> {
    let mut f = SimFilter::default();
    for (col, lo, hi) in &q.ranges {
        f = f.and(col, *lo as f64, *hi as f64);
    }
    if let Some(floor) = q.similarity_floor {
        f = f.and("similarity", floor, 1.0);
    }
    // Regex filters are not supported by the baseline collection model; the
    // experiments that use them run on BlendHouse only.
    if f.ranges.is_empty() {
        None
    } else {
        Some(f)
    }
}

/// Recall of returned ids against exact ground-truth rows.
pub fn recall_of(ids: &[u64], truth: &[(usize, f32)]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let want: std::collections::HashSet<u64> = truth.iter().map(|&(r, _)| r as u64).collect();
    ids.iter().filter(|id| want.contains(id)).count() as f64 / want.len() as f64
}

/// Extract ids from a BlendHouse result set (expects an `id` column).
pub fn result_ids(rs: &blendhouse::ResultSet) -> Vec<u64> {
    rs.column_values("id")
        .expect("id column")
        .into_iter()
        .map(|v| match v {
            Value::UInt64(x) => x,
            other => panic!("unexpected id value {other}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetSpec;
    use crate::workloads::{filtered_search, ground_truth, vector_search};
    use bh_vector::SearchParams;

    #[test]
    fn database_setup_answers_queries() {
        let data = DatasetSpec::tiny().generate();
        let db = build_database(&data, DatabaseConfig::default(), &TableOptions::default());
        let q = &vector_search(&data, 1, 5, 0)[0];
        let rs = db.execute(&q.to_sql("bench", "emb")).unwrap().rows();
        assert_eq!(rs.len(), 5);
        let truth = ground_truth(&data, q, None);
        let r = recall_of(&result_ids(&rs), &truth);
        assert!(r >= 0.8, "recall {r}");
    }

    #[test]
    fn hybrid_queries_with_second_attr_match_ground_truth() {
        let data = DatasetSpec::tiny().generate();
        let db = build_database(&data, DatabaseConfig::default(), &TableOptions::default());
        let ys = second_attr(&data);
        let mut q = filtered_search(&data, 1, 5, 0.5, 0)[0].clone();
        q.ranges.push(("y".to_string(), 0, 500_000));
        let rs = db.execute(&q.to_sql("bench", "emb")).unwrap().rows();
        let truth = ground_truth(&data, &q, Some(&ys));
        let r = recall_of(&result_ids(&rs), &truth);
        assert!(r >= 0.7, "recall {r}");
    }

    #[test]
    fn baselines_load_and_search() {
        let data = DatasetSpec::tiny().generate();
        let m = loaded_milvus(&data);
        let p = loaded_pgvector(&data);
        assert_eq!(m.len(), data.n());
        assert_eq!(p.len(), data.n());
        let q = &vector_search(&data, 1, 5, 0)[0];
        let truth = ground_truth(&data, q, None);
        for sys in [&m as &dyn BaselineSystem, &p as &dyn BaselineSystem] {
            let hits = sys
                .search(&q.vector, 5, &SearchParams::default().with_ef(64), None)
                .unwrap();
            let ids: Vec<u64> = hits.iter().map(|n| n.id).collect();
            let r = recall_of(&ids, &truth);
            assert!(r >= 0.8, "{}: recall {r}", sys.name());
        }
    }

    #[test]
    fn sim_filter_conversion() {
        let data = DatasetSpec::tiny().generate();
        let q = &filtered_search(&data, 1, 5, 0.2, 0)[0];
        let f = to_sim_filter(q).unwrap();
        assert_eq!(f.ranges.len(), 1);
        let pure = &vector_search(&data, 1, 5, 0)[0];
        assert!(to_sim_filter(pure).is_none());
    }
}

#[cfg(test)]
mod profile {
    use super::*;
    use crate::datasets::DatasetSpec;
    use crate::workloads::production_search;
    use blendhouse::{DatabaseConfig, QueryOptions, Strategy};
    use std::time::Instant;

    /// Scratch profiling probe (run with `--release --ignored -- --nocapture`).
    #[test]
    #[ignore]
    fn profile_production_query() {
        let data = DatasetSpec::production_sim().generate();
        let db = build_database(&data, DatabaseConfig::default(), &TableOptions::default());
        let queries = production_search(&data, 8, 100, 9);
        let params = bh_vector::SearchParams::default().with_ef(256);
        for strategy in [None, Some(Strategy::BruteForce), Some(Strategy::PreFilter), Some(Strategy::PostFilter), Some(Strategy::FilteredTraversal)] {
            let opts = QueryOptions { search: params, forced_strategy: strategy, ..db.default_options() };
            // warm
            for q in &queries { let _ = db.execute_with(&q.to_sql("bench", "emb"), &opts); }
            let t = Instant::now();
            for _ in 0..4 {
                for q in &queries {
                    let _ = db.execute_with(&q.to_sql("bench", "emb"), &opts).unwrap();
                }
            }
            let per = t.elapsed() / (4 * queries.len() as u32);
            let m = db.metrics();
            println!("strategy {strategy:?}: {per:?}/query  plan_ns={} exec_ns={} bf={} local={}",
                m.counter_value("query.plan_ns"), m.counter_value("query.exec_ns"),
                m.counter_value("worker.brute_force"), m.counter_value("worker.local_search"));
        }
    }
}
