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
//!
//! The §V comparators are [`System`]s: Milvus and pgvector are this engine
//! under their strategy restrictions, run through `Database` like
//! BlendHouse.

use crate::datasets::Dataset;
use crate::workloads::HybridQuery;
use bh_common::rng::derived_rng;
use bh_storage::table::IngestMode;
use bh_storage::value::Value;
use bh_vector::SearchParams;
use blendhouse::{Database, DatabaseConfig, QueryOptions, Strategy};
use rand::Rng;

/// Rows per `insert_rows` call when a dataset is loaded in batches.
const INSERT_BATCH: usize = 4096;

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
    load_database(data, cfg, topts, INSERT_BATCH)
}

/// Create table `bench` and ingest the dataset in `batch`-row inserts.
fn load_database(
    data: &Dataset,
    cfg: DatabaseConfig,
    topts: &TableOptions,
    batch: usize,
) -> Database {
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
    let table = db.table("bench").expect("created above");
    let ys = second_attr(data);
    let mut rows = Vec::with_capacity(batch.min(data.n()));
    for (i, &y) in ys.iter().enumerate() {
        let mut row = vec![
            Value::UInt64(i as u64),
            Value::Int64(data.rand_int[i]),
            Value::Int64(y),
            Value::Str(data.captions.get(i).cloned().unwrap_or_default()),
            Value::Float64(data.similarity[i]),
        ];
        if topts.with_pbucket {
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
    db
}

/// Milvus' one filtered-search rule: a segment whose filter bitmap holds
/// fewer than this many rows per requested result is brute-forced.
const MILVUS_BRUTE_FORCE_THRESHOLD: usize = 64;

/// A system of the paper's §V comparisons, expressed as a configuration of
/// this engine plus the form each query takes on it. All three pay the same
/// SQL, scheduling, cache and index layers; they differ only in the strategy
/// restrictions the paper attributes its gaps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Pipelined ingest, serving on cache miss, and the cost-based optimizer
    /// choosing every statement's plan.
    BlendHouse,
    /// Milvus 2.4.5: segments are written first and indexed after (staged
    /// ingest), a segment answers only once its own worker has loaded it,
    /// and a filtered search is a pre-filter bitmap, brute-forced when a
    /// segment's bitmap holds fewer than 64·k rows.
    Milvus,
    /// pgvector 0.7.4: one monolithic HNSW over the whole table on one node,
    /// and a filtered query is a single-shot post-filter: one unfiltered
    /// index scan of `max(ef_search, k)` rows, the filter applied to what
    /// comes back, no second pass.
    Pgvector,
}

impl System {
    /// Every system, in the order the figures print them.
    pub const ALL: [System; 3] = [System::BlendHouse, System::Milvus, System::Pgvector];

    /// Label used in printed tables.
    pub fn name(self) -> &'static str {
        match self {
            System::BlendHouse => "BlendHouse",
            System::Milvus => "Milvus",
            System::Pgvector => "pgvector",
        }
    }

    /// `base` with this system's restrictions applied.
    pub fn config(self, mut base: DatabaseConfig) -> DatabaseConfig {
        match self {
            System::BlendHouse => {}
            System::Milvus => {
                base.table.ingest_mode = IngestMode::Staged;
                base.vw.serving_enabled = false;
            }
            System::Pgvector => {
                base.table.segment_max_rows = usize::MAX;
                base.default_workers = 1;
            }
        }
        base
    }

    /// The dataset loaded into table `bench` under `self.config(base)`:
    /// in 4,096-row inserts, or for pgvector in one insert of the whole
    /// table, so that it builds one HNSW.
    pub fn load(self, data: &Dataset, base: DatabaseConfig, topts: &TableOptions) -> Database {
        let batch = if self == System::Pgvector { data.n() } else { INSERT_BATCH };
        load_database(data, self.config(base), topts, batch)
    }

    /// How this system runs `q` on `db` (table `bench`, loaded from `data`)
    /// with `search` knobs. Everything decided per query is decided here,
    /// once, so that a timed loop only runs [`Prepared::run`]. `second_attr`
    /// is the `y` column, as for [`crate::workloads::ground_truth`].
    pub fn prepare<'a>(
        self,
        db: &Database,
        data: &'a Dataset,
        second_attr: Option<&'a [i64]>,
        q: &'a HybridQuery,
        search: SearchParams,
    ) -> Prepared<'a> {
        let mut opts = QueryOptions { search, ..db.default_options() };
        let mut sql = q.to_sql("bench", "emb");
        let mut post_filter = None;
        match self {
            System::BlendHouse => {}
            System::Milvus => {
                // An unfiltered query has no bitmap: Milvus runs the plain
                // beam search, which is what Plan C is on a statement with
                // no predicate (Plan B would widen the beam for an all-pass
                // bitmap). A filtered query's bitmap holds, per segment, the
                // passing rows spread over the segments.
                let plan = if q.where_sql().is_empty() {
                    Strategy::PostFilter
                } else {
                    let segments = db.table("bench").expect("bench table").segments().len();
                    let passing =
                        (0..data.n()).filter(|&row| q.passes(data, row, second_attr)).count();
                    if passing / segments.max(1) < MILVUS_BRUTE_FORCE_THRESHOLD * q.k {
                        Strategy::BruteForce
                    } else {
                        Strategy::PreFilter
                    }
                };
                opts.forced_strategy = Some(plan);
            }
            System::Pgvector => {
                let unfiltered = HybridQuery {
                    vector: q.vector.clone(),
                    ranges: Vec::new(),
                    regex: None,
                    similarity_floor: None,
                    k: search.ef_search.max(q.k),
                };
                sql = unfiltered.to_sql("bench", "emb");
                opts.forced_strategy = Some(Strategy::PostFilter);
                post_filter = Some(PostFilter { data, second_attr, q });
            }
        }
        Prepared { sql, opts, post_filter }
    }
}

/// One query as a [`System`] runs it.
pub struct Prepared<'a> {
    /// The statement sent to the database.
    pub sql: String,
    /// Its options: the search knobs and, for Milvus and pgvector, the
    /// forced plan.
    pub opts: QueryOptions,
    /// pgvector only: the filter applied to the rows the statement returns.
    post_filter: Option<PostFilter<'a>>,
}

/// The query whose conditions a client applies after the statement.
struct PostFilter<'a> {
    data: &'a Dataset,
    second_attr: Option<&'a [i64]>,
    q: &'a HybridQuery,
}

impl Prepared<'_> {
    /// Execute the statement; the ids of the rows it answers with.
    pub fn run(&self, db: &Database) -> Vec<u64> {
        let rs = db.execute_with(&self.sql, &self.opts).expect("statement").rows();
        let ids = result_ids(&rs);
        match &self.post_filter {
            None => ids,
            Some(f) => ids
                .into_iter()
                .filter(|&id| f.q.passes(f.data, id as usize, f.second_attr))
                .take(f.q.k)
                .collect(),
        }
    }
}

/// Mean recall of `statements` run on `db` against their ground truths.
pub fn mean_recall(
    db: &Database,
    statements: &[Prepared<'_>],
    truths: &[Vec<(usize, f32)>],
) -> f64 {
    let total: f64 = statements.iter().zip(truths).map(|(s, t)| recall_of(&s.run(db), t)).sum();
    total / statements.len().max(1) as f64
}

/// Recall of returned ids against exact ground-truth rows: the share of
/// true rows found, each counted once however often it is returned.
pub fn recall_of(ids: &[u64], truth: &[(usize, f32)]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let got: std::collections::HashSet<u64> = ids.iter().copied().collect();
    truth.iter().filter(|&&(row, _)| got.contains(&(row as u64))).count() as f64
        / truth.len() as f64
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
    fn recall_counts_each_true_row_once() {
        assert_eq!(recall_of(&[1, 1], &[(1, 0.0), (2, 0.0)]), 0.5);
        assert_eq!(recall_of(&[2, 1, 3], &[(1, 0.0), (2, 0.0)]), 1.0);
        assert_eq!(recall_of(&[], &[]), 1.0);
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
