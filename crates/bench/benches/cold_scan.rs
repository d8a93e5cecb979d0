//! Cold multi-segment batch scan: overlapped index transfers against their
//! serialized sum (DESIGN.md §11).
//!
//! Both configurations run the same batch of queries against an identical
//! freshly-built table whose every index is cold. A store get returns at
//! once with its transfer's deadline on the clock. The *overlapped* fixture
//! wires the store, table and warehouse by hand (telling the warehouse the
//! table's vector column, as the facade does) and enables
//! `WorkerConfig { overlap }`: the executor prefetches every scheduled
//! segment's index — its links blob and its vector-column blocks — at the
//! start of the round, each segment task
//! consumes its transfer in flight, and concurrent transfer deadlines
//! collapse to their max on the shared virtual clock. The *database* case is
//! the same cold scan through the `Database` facade: nothing is wired by
//! hand, so the overlap it shows is what a user of the facade gets.
//!
//! What the same fetches would cost serialized is the sum of every
//! `store.get` span's `sim_nanos`, which each row reports beside its wall
//! time, and `store_get_bytes` sums the spans' bytes. The reference rows come from a warehouse whose every index was
//! preloaded, on the overlapped fixture's store.
//!
//! All times are *simulated* nanoseconds read off the `VirtualClock`, so the
//! emitted `BENCH_io.json` is deterministic across machines and `cargo xtask
//! bench-diff` holds its simulated fields exact.
//!
//! Acceptance: on both runs, wall-clock simulated time is at least 2x
//! smaller than the sum of per-span `store.get` `sim_nanos` — i.e. the
//! transfer time is demonstrably hidden, not merely reordered.

use bh_bench::harness::{print_table, write_fresh_json};
use bh_cluster::vw::{VirtualWarehouse, VwConfig};
use bh_cluster::worker::WorkerConfig;
use bh_common::ids::IdGenerator;
use bh_common::trace::AttrValue;
use bh_common::{
    LatencyModel, MetricsRegistry, QueryCtx, SharedClock, Stopwatch, VirtualClock, VwId,
};
use bh_query::exec::{QueryEngine, QueryOptions};
use bh_query::Strategy;
use bh_sql::ast::SelectStmt;
use bh_storage::objectstore::InMemoryObjectStore;
use bh_storage::schema::TableSchema;
use bh_storage::table::{TableStore, TableStoreConfig};
use bh_storage::value::{ColumnType, Value};
use bh_vector::{IndexKind, Metric};
use blendhouse::{Database, DatabaseConfig};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 32;
const SEGMENTS: usize = 12;
const ROWS_PER_SEGMENT: usize = 300;
const BATCH: usize = 8;
const K: usize = 10;

struct Fixture {
    table: Arc<TableStore>,
    vw: Arc<VirtualWarehouse>,
    clock: SharedClock,
    metrics: MetricsRegistry,
}

/// The remote object store's price: 100µs per request plus 10ns per byte.
fn store_model() -> LatencyModel {
    LatencyModel::new(Duration::from_micros(100), Duration::from_nanos(10))
}

fn rows() -> Vec<Vec<Value>> {
    (0..SEGMENTS * ROWS_PER_SEGMENT)
        .map(|i| {
            let c = (i % 8) as f32 * 4.0;
            let v: Vec<f32> =
                (0..DIM).map(|d| c + ((i * DIM + d) as f32 * 0.37).sin() * 0.5).collect();
            vec![Value::UInt64(i as u64), Value::Vector(v)]
        })
        .collect()
}

/// Both configurations' worker knobs: a serving RPC's wire time overlaps
/// the peer's search.
fn vw_config() -> VwConfig {
    VwConfig { worker: WorkerConfig { overlap: true, ..Default::default() }, ..Default::default() }
}

/// A fresh two-worker warehouse over `table`'s store, every index cold.
fn warehouse(
    table: &TableStore,
    name: &str,
    clock: &SharedClock,
    metrics: &MetricsRegistry,
) -> Arc<VirtualWarehouse> {
    let vw = VirtualWarehouse::new(
        VwId(0),
        name,
        vw_config(),
        table.remote_store().clone(),
        clock.clone(),
        metrics.clone(),
        Arc::new(IdGenerator::starting_at(10_000)),
    );
    vw.register_table(table.schema());
    vw.scale_up(&[]);
    vw.scale_up(&[]);
    Arc::new(vw)
}

/// A fresh cold table + warehouse, wired by hand.
fn fixture() -> Fixture {
    let clock: SharedClock = VirtualClock::shared();
    let metrics = MetricsRegistry::new();
    let store =
        Arc::new(InMemoryObjectStore::new(clock.clone(), store_model(), metrics.clone(), "remote"));
    let schema = TableSchema::new("t")
        .with_column("id", ColumnType::UInt64)
        .with_column("emb", ColumnType::Vector(DIM))
        .with_vector_index("ann", "emb", IndexKind::Hnsw, DIM, Metric::L2);
    let table = TableStore::new(
        schema,
        store,
        TableStoreConfig { segment_max_rows: ROWS_PER_SEGMENT, ..Default::default() },
        Arc::new(IdGenerator::new()),
        metrics.clone(),
    )
    .unwrap();
    table.insert_rows(rows()).unwrap();
    let vw = warehouse(&table, "overlapped", &clock, &metrics);
    Fixture { table: Arc::new(table), vw, clock, metrics }
}

/// The same cold table behind the `Database` facade: same data, layout,
/// latency model, two-worker topology and worker knobs as the overlapped
/// fixture, but the store is the one `Database::new` builds. The database
/// comes back too: the batch runs on its engine.
fn database_fixture() -> (Database, Fixture) {
    let db = Database::new(DatabaseConfig {
        latencies: bh_common::DeploymentLatencies {
            remote_store: store_model(),
            ..bh_common::DeploymentLatencies::zero()
        },
        table: TableStoreConfig { segment_max_rows: ROWS_PER_SEGMENT, ..Default::default() },
        vw: vw_config(),
        ..Default::default()
    });
    db.execute(&format!(
        "CREATE TABLE t (id UInt64, emb Array(Float32), \
         INDEX ann emb TYPE HNSW('DIM={DIM}')) ORDER BY id"
    ))
    .unwrap();
    let table = db.table("t").unwrap();
    table.insert_rows(rows()).unwrap();
    let fix = Fixture {
        table,
        vw: db.default_vw(),
        clock: db.clock().clone(),
        metrics: db.metrics().clone(),
    };
    (db, fix)
}

fn batch_stmts() -> Vec<SelectStmt> {
    (0..BATCH)
        .map(|qi| {
            let c = (qi % 8) as f32 * 4.0;
            let coords: Vec<String> =
                (0..DIM).map(|d| format!("{:.4}", c + (d as f32 * 0.21).cos() * 0.3)).collect();
            let sql = format!(
                "SELECT id, dist FROM t ORDER BY L2Distance(emb, [{}]) AS dist LIMIT {K}",
                coords.join(", ")
            );
            match bh_sql::parse_statement(&sql).unwrap() {
                bh_sql::Statement::Select(sel) => sel,
                other => panic!("expected SELECT, got {other:?}"),
            }
        })
        .collect()
}

struct RunResult {
    wall_sim_ns: u64,
    store_get_sum_sim_ns: u64,
    store_get_spans: usize,
    store_get_bytes: u64,
    rows: Vec<Vec<bh_storage::value::Value>>,
}

/// Run the cold batch once, measuring simulated wall time against the sum of
/// every `store.get` span's `sim_nanos` attribute (the per-transfer cost the
/// store would charge if nothing overlapped).
fn run_cold_batch(engine: &QueryEngine, fix: &Fixture, stmts: &[SelectStmt]) -> RunResult {
    // The batch runs as one traced statement: every span its threads open
    // lands on this context.
    let ctx = QueryCtx::traced(0, "select", "bench", "cold_scan", Stopwatch::start());
    let _in = ctx.install();
    // The cold *index* path is the subject; left to the optimizer a table
    // this small is scanned (Plan A), which fetches no index at all.
    let opts = QueryOptions { forced_strategy: Some(Strategy::PostFilter), ..Default::default() };
    let start = fix.clock.now_nanos();
    let results = engine.execute_select_batch(&fix.table, &fix.vw, &opts, stmts).unwrap();
    let wall_sim_ns = fix.clock.now_nanos() - start;
    let mut sum = 0u64;
    let mut spans = 0usize;
    let mut bytes = 0u64;
    for rec in ctx.take_spans().unwrap_or_default() {
        if rec.name != "store.get" {
            continue;
        }
        if let Some(AttrValue::U64(ns)) = rec.attr("sim_nanos") {
            sum += ns;
            spans += 1;
        }
        if let Some(AttrValue::U64(b)) = rec.attr("bytes") {
            bytes += b;
        }
    }
    RunResult {
        wall_sim_ns,
        store_get_sum_sim_ns: sum,
        store_get_spans: spans,
        store_get_bytes: bytes,
        rows: results.into_iter().flat_map(|r| r.rows).collect(),
    }
}

fn main() {
    let stmts = batch_stmts();
    let fix = fixture();
    let engine = QueryEngine::new(fix.metrics.clone());
    let overlapped = run_cold_batch(&engine, &fix, &stmts);
    let (db, db_fix) = database_fixture();
    let database = run_cold_batch(db.engine(), &db_fix, &stmts);

    // Overlap must hide transfer time, not change result bytes (every
    // residency returning the warm rows is
    // crates/query/tests/overlap_equivalence.rs): both cold batches return
    // what a preloaded warehouse on the same store does.
    let warm = warehouse(&fix.table, "preloaded", &fix.clock, &fix.metrics);
    warm.preload(&fix.table.segments()).unwrap();
    let opts = QueryOptions { forced_strategy: Some(Strategy::PostFilter), ..Default::default() };
    let reference: Vec<_> = engine
        .execute_select_batch(&fix.table, &warm, &opts, &stmts)
        .unwrap()
        .into_iter()
        .flat_map(|r| r.rows)
        .collect();
    assert_eq!(overlapped.rows, reference, "cold rows differ from the preloaded warehouse's");
    assert_eq!(database.rows, reference, "facade rows differ from the preloaded warehouse's");

    let ratio = |r: &RunResult| r.store_get_sum_sim_ns as f64 / r.wall_sim_ns.max(1) as f64;
    let cases = [("overlapped", &overlapped), ("database", &database)];
    print_table(
        &format!(
            "cold {SEGMENTS}-segment batch-{BATCH} scan, simulated time (store: 100µs + 10ns/B)"
        ),
        &["config", "wall sim ms", "Σ store.get sim ms", "overlap ratio"],
        &cases
            .iter()
            .map(|(name, r)| {
                vec![
                    name.to_string(),
                    format!("{:.3}", r.wall_sim_ns as f64 / 1e6),
                    format!("{:.3}", r.store_get_sum_sim_ns as f64 / 1e6),
                    format!("{:.2}x", ratio(r)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "[cold_scan] {} store.get spans overlapped, {} database",
        overlapped.store_get_spans, database.store_get_spans
    );

    // Transfers demonstrably overlap on the cold batch, hand-wired and
    // through the facade.
    for (name, r) in &cases {
        assert!(
            ratio(r) >= 2.0,
            "{name}: overlap ratio {:.2} below the 2x acceptance bar \
             (wall {} ns vs Σ store.get {} ns)",
            ratio(r),
            r.wall_sim_ns,
            r.store_get_sum_sim_ns
        );
    }

    let results: Vec<String> = cases
        .iter()
        .map(|(name, r)| {
            format!(
                "    {{ \"case\": \"{name}\", \"wall_sim_ns\": {}, \"store_get_sum_sim_ns\": {}, \
                 \"store_get_spans\": {}, \"store_get_bytes\": {}, \"overlap_ratio\": {:.3} }}",
                r.wall_sim_ns,
                r.store_get_sum_sim_ns,
                r.store_get_spans,
                r.store_get_bytes,
                ratio(r)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"cold multi-segment batch: overlapped index transfers vs their serialized sum\",\n  \
         \"method\": \"Simulated time on a VirtualClock; remote store charges 100us + 10ns/byte per get, and a get returns at once with its transfer's deadline on the clock. {SEGMENTS} cold HNSW segments x {ROWS_PER_SEGMENT} rows (dim {DIM}), batch of {BATCH} top-{K} queries via execute_select_batch. Overlapped = hand-wired store, table and warehouse + executor prefetch of every scheduled segment, each segment task consuming its index transfer (links blob + vector-column block) in flight. Database = the same scan through the Database facade. wall_sim_ns is the clock delta across the batch; store_get_sum_sim_ns sums every store.get span's sim_nanos attr, i.e. what the same gets cost serialized; store_get_bytes sums the same spans' bytes attr; overlap_ratio is the second over the first. Both return the rows of a warehouse preloaded on the overlapped fixture's store (asserted). Deterministic: identical on every machine.\",\n  \
         \"acceptance\": \"store_get_sum_sim_ns / wall_sim_ns >= 2 on overlapped and database — met ({:.2}x, {:.2}x)\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        ratio(&overlapped),
        ratio(&database),
        results.join(",\n"),
    );
    write_fresh_json("BENCH_io.json", &json);
}
