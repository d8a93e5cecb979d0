//! Property tests for Plan D (filter-aware HNSW traversal) at the query
//! layer: every row a forced `FilteredTraversal` query returns must satisfy
//! the structured predicate, and recall against the brute-force-filtered
//! ground truth (forced Plan A on the same statement) must meet a floor
//! across the selectivity range — from ~2% pass fraction up to ~95%.
//!
//! The fixture mirrors `batch_equivalence.rs`: clustered 4-dim embeddings
//! with a per-row jitter so all distances are distinct, split across many
//! segments, warmed up front so every run sees the same residency state.

use bh_cluster::vw::{VirtualWarehouse, VwConfig};
use bh_common::ids::IdGenerator;
use bh_common::{MetricsRegistry, VirtualClock};
use bh_query::exec::{QueryEngine, QueryOptions};
use bh_query::result::ResultSet;
use bh_query::Strategy as PlanStrategy;
use bh_storage::objectstore::InMemoryObjectStore;
use bh_storage::schema::TableSchema;
use bh_storage::table::{TableStore, TableStoreConfig};
use bh_storage::value::{ColumnType, Value};
use bh_vector::{IndexKind, Metric, SearchParams};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

struct Fixture {
    table: Arc<TableStore>,
    vw: VirtualWarehouse,
    engine: QueryEngine,
}

/// 1200 rows in 5 well-separated clusters across 12 segments, caches warmed
/// by one full-table query.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("label", ColumnType::Str)
            .with_column("emb", ColumnType::Vector(4))
            .with_vector_index("i", "emb", IndexKind::Hnsw, 4, Metric::L2);
        let metrics = MetricsRegistry::new();
        let table = TableStore::new(
            schema,
            InMemoryObjectStore::for_tests(),
            TableStoreConfig { segment_max_rows: 100, ..Default::default() },
            Arc::new(IdGenerator::new()),
            metrics.clone(),
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..1200)
            .map(|i| {
                let c = (i % 5) as f32 * 6.0 + (i as f32) * 1e-4;
                vec![
                    Value::UInt64(i as u64),
                    Value::Str(format!("l{}", i % 2)),
                    Value::Vector(vec![c, c + 0.1, c + 0.2, c - 0.1]),
                ]
            })
            .collect();
        table.insert_rows(rows).unwrap();
        let vw = VirtualWarehouse::new(
            bh_common::VwId(0),
            "q",
            VwConfig::default(),
            table.remote_store().clone(),
            VirtualClock::shared(),
            metrics.clone(),
            Arc::new(IdGenerator::starting_at(1000)),
        );
        vw.scale_up(&[]);
        vw.scale_up(&[]);
        let engine = QueryEngine::new(metrics);
        let fix = Fixture { table: Arc::new(table), vw, engine };
        run_sql(
            &fix,
            &QueryOptions::default(),
            "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 1200",
        );
        fix
    })
}

fn run_sql(fix: &Fixture, opts: &QueryOptions, sql: &str) -> ResultSet {
    let stmt = match bh_sql::parse_statement(sql).unwrap() {
        bh_sql::Statement::Select(sel) => sel,
        other => panic!("expected SELECT, got {other:?}"),
    };
    fix.engine.execute_select(&fix.table, &fix.vw, opts, &stmt).unwrap()
}

fn ids(rs: &ResultSet) -> Vec<u64> {
    rs.rows
        .iter()
        .map(|r| match &r[0] {
            Value::UInt64(id) => *id,
            other => panic!("expected id, got {other:?}"),
        })
        .collect()
}

/// Whether the row with this id passes a filter.
type RowOracle = fn(u64) -> bool;

/// The swept filters: SQL text, true pass fraction, and a row-level oracle.
/// Spans the selectivity range the cost model routes to Plan D and beyond it
/// into the regions where A (tiny s) or C (large s) would normally win — a
/// forced Plan D must stay correct everywhere, not just where it is chosen.
const FILTERS: &[(&str, f32, RowOracle)] = &[
    ("WHERE id < 24 ", 0.02, |id| id < 24),
    ("WHERE id < 120 ", 0.1, |id| id < 120),
    ("WHERE label = 'l1' AND id < 600 ", 0.25, |id| id % 2 == 1 && id < 600),
    ("WHERE label = 'l0' ", 0.5, |id| id % 2 == 0),
    ("WHERE id >= 60 ", 0.95, |id| id >= 60),
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// For a random cluster-centred top-k over each filter: (1) every Plan D
    /// row passes the predicate, with and without a selectivity hint; (2) with
    /// an accurate hint, recall against the brute-force-filtered ground truth
    /// is at least 0.9.
    #[test]
    fn plan_d_rows_pass_predicate_and_recall_meets_floor(
        cluster in 0u32..5,
        k in 5usize..=25,
        filter in 0usize..FILTERS.len(),
    ) {
        let fix = fixture();
        let (where_clause, s, passes) = FILTERS[filter];
        let c = cluster as f32 * 6.0;
        let sql = format!(
            "SELECT id, dist FROM t {where_clause}ORDER BY \
             L2Distance(emb, [{c}.0, {:.1}, {:.1}, {:.1}]) AS dist LIMIT {k}",
            c + 0.1,
            c + 0.2,
            c - 0.1,
        );

        let oracle_opts = QueryOptions {
            forced_strategy: Some(PlanStrategy::BruteForce),
            ..Default::default()
        };
        let oracle: Vec<u64> = ids(&run_sql(fix, &oracle_opts, &sql));
        prop_assert!(!oracle.is_empty());

        for hinted in [true, false] {
            let mut search = SearchParams::default().with_ef(128);
            if hinted {
                search = search.with_selectivity(s);
            }
            let opts = QueryOptions {
                forced_strategy: Some(PlanStrategy::FilteredTraversal),
                search,
                ..Default::default()
            };
            let got = ids(&run_sql(fix, &opts, &sql));
            for id in &got {
                prop_assert!(
                    passes(*id),
                    "Plan D returned id {} violating {} (hinted={})",
                    id,
                    where_clause.trim(),
                    hinted
                );
            }
            if hinted {
                let hits = got.iter().filter(|id| oracle.contains(id)).count();
                let recall = hits as f64 / oracle.len() as f64;
                prop_assert!(
                    recall >= 0.9,
                    "Plan D recall {:.3} < 0.9 at s={} ({})",
                    recall,
                    s,
                    sql
                );
            }
        }
    }
}
