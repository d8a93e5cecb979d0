//! Cold-start behaviour of a brand-new warehouse with `tiered_loading`
//! enabled, at the query layer (DESIGN.md §11.3):
//!
//! * on a reactor-backed store (what every `Database` has) the first
//!   statement waits out the overlapped body transfers and is answered from
//!   full indexes — bit-identical to an always-warm warehouse, no head-only
//!   or brute-force answer on the way;
//! * on a blocking store nothing can be in flight, so the worker-level miss
//!   path answers first from head-only indexes (entry point + upper HNSW
//!   layers, ≤10% of each blob), and once the bodies arrive the results are
//!   bit-identical to an always-warm warehouse — partial serving trades
//!   nothing permanent.

use bh_cluster::vw::{VirtualWarehouse, VwConfig};
use bh_cluster::worker::WorkerConfig;
use bh_common::ids::IdGenerator;
use bh_common::{LatencyModel, MetricsRegistry, Reactor, SharedClock, VirtualClock, VwId};
use bh_query::exec::{QueryEngine, QueryOptions};
use bh_sql::ast::SelectStmt;
use bh_storage::objectstore::InMemoryObjectStore;
use bh_storage::schema::TableSchema;
use bh_storage::table::{TableStore, TableStoreConfig};
use bh_storage::value::{ColumnType, Value};
use bh_vector::{IndexKind, IndexRegistry, Metric};
use std::sync::Arc;
use std::time::Duration;

fn parse(sql: &str) -> SelectStmt {
    match bh_sql::parse_statement(sql).unwrap() {
        bh_sql::Statement::Select(sel) => sel,
        other => panic!("expected SELECT, got {other:?}"),
    }
}

fn make_vw(
    table: &TableStore,
    clock: &SharedClock,
    metrics: &MetricsRegistry,
    name: &str,
    tiered_loading: bool,
) -> VirtualWarehouse {
    let vw = VirtualWarehouse::new(
        VwId(0),
        name,
        VwConfig {
            worker: WorkerConfig { tiered_loading, ..Default::default() },
            ..Default::default()
        },
        table.remote_store().clone(),
        table.registry().clone(),
        clock.clone(),
        metrics.clone(),
        Arc::new(IdGenerator::starting_at(1000)),
    );
    vw.scale_up(&[]);
    vw
}

/// Dim-16 clustered vectors, several segments: large enough that HNSW heads
/// stay a small fraction of each blob. `overlapped` routes the store through
/// a reactor, so index transfers can be deferred.
fn fixture(overlapped: bool) -> (Arc<TableStore>, SharedClock, MetricsRegistry) {
    let clock: SharedClock = VirtualClock::shared();
    let metrics = MetricsRegistry::new();
    let store = InMemoryObjectStore::new(
        clock.clone(),
        LatencyModel::new(Duration::from_micros(100), Duration::from_nanos(10)),
        metrics.clone(),
        "remote",
    );
    let store = Arc::new(if overlapped {
        store.with_reactor(Arc::new(Reactor::new(clock.clone())))
    } else {
        store
    });
    let schema = TableSchema::new("t")
        .with_column("id", ColumnType::UInt64)
        .with_column("emb", ColumnType::Vector(16))
        .with_vector_index("i", "emb", IndexKind::Hnsw, 16, Metric::L2);
    let table = TableStore::new(
        schema,
        store,
        Arc::new(IndexRegistry::with_builtins()),
        TableStoreConfig { segment_max_rows: 200, ..Default::default() },
        Arc::new(IdGenerator::new()),
        metrics.clone(),
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..800)
        .map(|i| {
            let c = (i % 4) as f32 * 10.0 + (i as f32) * 1e-4;
            let mut v = vec![c; 16];
            v[1] += 0.1;
            v[2] += 0.2;
            vec![Value::UInt64(i as u64), Value::Vector(v)]
        })
        .collect();
    table.insert_rows(rows).unwrap();

    // First indexed result must be reachable after only the head prefix —
    // every persisted blob's head is ≤10% of it.
    let metas = table.segments();
    let indexed = metas.iter().filter(|m| m.index_kind.is_some()).count();
    assert!(indexed >= 4, "expected several indexed segments, got {indexed}");
    for meta in metas.iter().filter(|m| m.index_kind.is_some()) {
        assert!(meta.index_head_bytes > 0, "segment {:?} not tiered", meta.id);
        assert!(
            meta.index_head_bytes * 10 <= meta.index_bytes,
            "head is {} of {} bytes (>10%) for segment {:?}",
            meta.index_head_bytes,
            meta.index_bytes,
            meta.id
        );
    }
    (Arc::new(table), clock, metrics)
}

fn query() -> SelectStmt {
    parse(
        "SELECT id, dist FROM t ORDER BY \
         L2Distance(emb, [10.0, 10.1, 10.2, 10.0, 10.0, 10.0, 10.0, 10.0, \
         10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]) AS dist LIMIT 10",
    )
}

/// Both tests are about how a cold *index* is served; at this table size the
/// optimizer would scan the raw column instead (Plan A) and never touch one.
fn index_plan() -> QueryOptions {
    QueryOptions { forced_strategy: Some(bh_query::Strategy::PostFilter), ..Default::default() }
}

#[test]
fn deferring_store_answers_the_first_statement_from_full_indexes() {
    let (table, clock, metrics) = fixture(true);
    let engine = QueryEngine::new(metrics.clone());
    let opts = index_plan();
    let stmt = query();

    let vw_warm = make_vw(&table, &clock, &metrics, "warm", false);
    vw_warm.preload(&table.segments()).unwrap();
    let always_warm = engine.execute_select(&table, &vw_warm, &opts, &stmt).unwrap();

    let vw_cold = make_vw(&table, &clock, &metrics, "cold", true);
    let head_before = metrics.counter("worker.head_search").get();
    let brute_before = metrics.counter("worker.brute_force").get();
    let first = engine.execute_select(&table, &vw_cold, &opts, &stmt).unwrap();
    assert_eq!(first.rows, always_warm.rows, "a cold first statement differs from warm");
    assert_eq!(metrics.counter("worker.head_search").get(), head_before);
    assert_eq!(metrics.counter("worker.brute_force").get(), brute_before);
}

#[test]
fn blocking_store_serves_from_heads_then_matches_warm_results() {
    let (table, clock, metrics) = fixture(false);
    let engine = QueryEngine::new(metrics.clone());
    let opts = index_plan();
    let stmt = query();

    // Cold warehouse with tiered loading: the first query is answered by
    // head-only searches, never the brute-force fallback.
    let vw_cold = make_vw(&table, &clock, &metrics, "cold", true);
    let head_before = metrics.counter("worker.head_search").get();
    let brute_before = metrics.counter("worker.brute_force").get();
    let first = engine.execute_select(&table, &vw_cold, &opts, &stmt).unwrap();
    assert!(!first.rows.is_empty(), "cold head-only query returned nothing");
    assert!(
        metrics.counter("worker.head_search").get() > head_before,
        "cold query never used a head-only index"
    );
    assert_eq!(
        metrics.counter("worker.brute_force").get(),
        brute_before,
        "tiered loading should preempt the brute-force fallback"
    );

    // The synchronous warm after the miss pulled the bodies in; the second
    // run must be indistinguishable from a warehouse that was never cold.
    let vw_warm = make_vw(&table, &clock, &metrics, "warm", false);
    vw_warm.preload(&table.segments()).unwrap();
    let after_body = engine.execute_select(&table, &vw_cold, &opts, &stmt).unwrap();
    let always_warm = engine.execute_select(&table, &vw_warm, &opts, &stmt).unwrap();
    assert_eq!(
        after_body.rows, always_warm.rows,
        "recall changed after the index bodies arrived"
    );
}
