//! The in-tree emitter of `BENCH_batch.json`: batched multi-query execution
//! (DESIGN.md §7) through `QueryEngine::execute_batch` against looping
//! `execute_bound` per statement, over a 32-segment table at k=10 for batch
//! sizes 1 / 8 / 64, written to `target/bench-fresh/BENCH_batch.json` so
//! `cargo xtask bench-diff` covers it.
//!
//! The three arms — looped `execute_bound`, `execute_batch`, and
//! `execute_batch` with `share_bound: false` — must return identical rows for
//! every statement; that is asserted before anything is timed.
//! `bound_skip_rate` is the `execute_batch` arm's `bound_skips /
//! rows_scanned`, read from the `QueryCtx` installed around each engine call.

use bh_bench::harness::{median, write_fresh_json, Timer};
use bh_common::ids::IdGenerator;
use bh_common::{MetricsRegistry, QueryCtx, Result, VirtualClock, VwId};
use bh_cluster::vw::{VirtualWarehouse, VwConfig};
use bh_query::bind::{bind_select, BoundSelect};
use bh_query::exec::{QueryEngine, QueryOptions};
use bh_query::ResultSet;
use bh_storage::objectstore::InMemoryObjectStore;
use bh_storage::schema::TableSchema;
use bh_storage::table::{TableStore, TableStoreConfig};
use bh_storage::value::{ColumnType, Value};
use bh_vector::{IndexKind, Metric};
use std::hint::black_box;
use std::sync::Arc;

const DIM: usize = 32;
const SEGMENTS: usize = 32;
const ROWS_PER_SEGMENT: usize = 200;
const K: usize = 10;
/// Statements per timed cell, whatever the batch size.
const STMTS_PER_CELL: usize = 256;
/// Reps per cell, the arms interleaved within each; the median is reported.
const REPS: usize = 9;

struct Fixture {
    table: TableStore,
    vw: VirtualWarehouse,
    engine: QueryEngine,
    queries: Vec<BoundSelect>,
    shared: QueryOptions,
    unshared: QueryOptions,
}

fn fixture() -> Fixture {
    let schema = TableSchema::new("t")
        .with_column("id", ColumnType::UInt64)
        .with_column("emb", ColumnType::Vector(DIM))
        .with_vector_index("ann", "emb", IndexKind::Hnsw, DIM, Metric::L2);
    let metrics = MetricsRegistry::new();
    let table = TableStore::new(
        schema,
        InMemoryObjectStore::for_tests(),
        TableStoreConfig { segment_max_rows: ROWS_PER_SEGMENT, ..Default::default() },
        Arc::new(IdGenerator::new()),
        metrics.clone(),
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..SEGMENTS * ROWS_PER_SEGMENT)
        .map(|i| {
            let c = (i % 8) as f32 * 4.0;
            let v: Vec<f32> =
                (0..DIM).map(|d| c + ((i * DIM + d) as f32 * 0.37).sin() * 0.5).collect();
            vec![Value::UInt64(i as u64), Value::Vector(v)]
        })
        .collect();
    table.insert_rows(rows).unwrap();
    let vw = VirtualWarehouse::new(
        VwId(0),
        "bench",
        VwConfig::default(),
        table.remote_store().clone(),
        VirtualClock::shared(),
        metrics.clone(),
        Arc::new(IdGenerator::starting_at(10_000)),
    );
    vw.scale_up(&[]);
    vw.scale_up(&[]);
    vw.preload(&table.segments()).unwrap();

    // 64 distinct pure top-k statements cycling through the clusters.
    let queries: Vec<BoundSelect> = (0..64)
        .map(|qi| {
            let c = (qi % 8) as f32 * 4.0;
            let coords: Vec<String> =
                (0..DIM).map(|d| format!("{:.4}", c + (d as f32 * 0.21).cos() * 0.3)).collect();
            let sql = format!(
                "SELECT id, dist FROM t ORDER BY L2Distance(emb, [{}]) AS dist LIMIT {K}",
                coords.join(", ")
            );
            let bh_sql::Statement::Select(stmt) = bh_sql::parse_statement(&sql).unwrap() else {
                panic!("expected a SELECT");
            };
            bind_select(table.schema(), &stmt).unwrap()
        })
        .collect();
    let shared = QueryOptions::default();
    let unshared = QueryOptions { share_bound: false, ..shared.clone() };
    Fixture { table, vw, engine: QueryEngine::new(metrics), queries, shared, unshared }
}

/// The arms, in `BENCH_batch.json`'s column order.
#[derive(Debug, Clone, Copy)]
enum Arm {
    LoopedExecuteBound,
    ExecuteBatch,
    ExecuteBatchNoSharedBound,
}

/// What an arm's engine calls tallied, and the plan they ran.
#[derive(Default)]
struct Work {
    bound_skips: u64,
    rows_scanned: u64,
    plan: &'static str,
}

impl Work {
    /// One engine call under a context of its own, tallied here.
    fn call<T>(&mut self, run: impl FnOnce() -> Result<T>) -> T {
        let ctx = QueryCtx::new(0, "select", "bench", "batch_exec");
        let installed = ctx.install();
        let out = run().unwrap();
        drop(installed);
        let tally = ctx.tally.snapshot();
        self.bound_skips += tally.bound_skips;
        self.rows_scanned += tally.rows_scanned;
        self.plan = ctx.strategy();
        out
    }
}

impl Fixture {
    /// Run `stmts` the arm's way; one result per statement, in order.
    fn run(&self, arm: Arm, stmts: &[BoundSelect], work: &mut Work) -> Vec<ResultSet> {
        let (engine, table, vw) = (&self.engine, &self.table, &self.vw);
        match arm {
            Arm::LoopedExecuteBound => stmts
                .iter()
                .map(|q| work.call(|| engine.execute_bound(table, vw, &self.shared, q)))
                .collect(),
            Arm::ExecuteBatch => work.call(|| engine.execute_batch(table, vw, &self.shared, stmts)),
            Arm::ExecuteBatchNoSharedBound => {
                work.call(|| engine.execute_batch(table, vw, &self.unshared, stmts))
            }
        }
    }
}

fn main() {
    let fix = fixture();
    let arms = [Arm::LoopedExecuteBound, Arm::ExecuteBatch, Arm::ExecuteBatchNoSharedBound];

    // Identical rows from every arm for every statement, before timing.
    let mut work = Work::default();
    let looped = fix.run(arms[0], &fix.queries, &mut work);
    assert!(looped.iter().all(|rs| rs.rows.len() == K), "every statement fills its top-{K}");
    for arm in &arms[1..] {
        let got = fix.run(*arm, &fix.queries, &mut work);
        assert_eq!(got.len(), looped.len());
        for (i, (a, b)) in looped.iter().zip(&got).enumerate() {
            assert_eq!(a.rows, b.rows, "statement {i}: {arm:?} differs from looped execute_bound");
        }
    }
    let plan = work.plan;
    println!("[batch_exec] all three arms return identical rows; the planner chose {plan}");

    let mut cases = Vec::new();
    for batch in [1usize, 8, 64] {
        let stmts = &fix.queries[..batch];
        let mut qps: [Vec<f64>; 3] = Default::default();
        let mut work: [Work; 3] = Default::default();
        for _ in 0..REPS {
            for (a, arm) in arms.into_iter().enumerate() {
                let t = Timer::start();
                for _ in 0..STMTS_PER_CELL / batch {
                    black_box(fix.run(arm, stmts, &mut work[a]));
                }
                qps[a].push(STMTS_PER_CELL as f64 / t.secs());
            }
        }
        let [sequential_qps, batched_qps, batched_no_bound_qps] = qps.map(median);
        let skip_rate = work[1].bound_skips as f64 / work[1].rows_scanned.max(1) as f64;
        let case = format!(
            "    {{ \"batch\": {batch}, \"sequential_qps\": {sequential_qps:.1}, \
             \"batched_qps\": {batched_qps:.1}, \"batched_no_bound_qps\": {batched_no_bound_qps:.1}, \
             \"speedup\": {:.2}, \"bound_skip_rate\": {skip_rate:.4} }}",
            batched_qps / sequential_qps
        );
        println!("{case}");
        cases.push(case);
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"benchmark\": \"batched multi-query execution (execute_batch) vs looping execute_bound per statement\",\n  \
         \"machine\": {{ \"arch\": \"{}\", \"cores\": {cores} }},\n  \
         \"method\": \"crates/bench/benches/batch_exec.rs: QueryEngine::execute_batch on {SEGMENTS} preloaded HNSW segments x {ROWS_PER_SEGMENT} rows, dim {DIM}, L2, 2 workers, default QueryOptions (the planner chose {plan}); 64 distinct top-{K} statements, the first B per batch. Arms: looped execute_bound, execute_batch, execute_batch with share_bound false; identical rows from all three asserted for every statement before timing. Median of {REPS} interleaved reps of {STMTS_PER_CELL} statements per cell; bound_skip_rate = bound_skips / rows_scanned of the execute_batch arm, from the QueryCtx installed around each engine call.\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        std::env::consts::ARCH,
        cases.join(",\n"),
    );
    write_fresh_json("BENCH_batch.json", &json);
}
