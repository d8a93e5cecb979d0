//! Property test of the one executor's contract: a batch of N statements
//! through [`QueryEngine::execute_batch`] returns, per statement, exactly
//! what N batches of one return on the calling thread with the shared
//! pruning bound off — across batch sizes, filters, deletes, fan-out
//! widths, and with the bound on and off. A single statement *is* a batch of
//! one, so what this checks is cross-statement interference (shared bounds,
//! pinned handles, task order); the ground-truth tests in `exec.rs` and
//! `plan_d.rs` are the independent reference for the rows themselves.
//!
//! The table is built once (clustered 4-dim embeddings with a per-row jitter
//! so all distances are distinct — ties are the one documented caveat of
//! bound pruning, see DESIGN.md §7) and warmed up front, so both executions
//! observe the same fully-resident cache state.

use bh_cluster::vw::{VirtualWarehouse, VwConfig};
use bh_common::ids::IdGenerator;
use bh_common::querylog::{QueryLog, QueryLogRecord, SlowQueryPolicy, SlowQueryTrace};
use bh_common::{MetricsRegistry, QueryCtx, Stopwatch, VirtualClock};
use bh_query::exec::{QueryEngine, QueryOptions};
use bh_query::result::ResultSet;
use bh_query::Strategy as PlanStrategy;
use bh_sql::ast::SelectStmt;
use bh_storage::objectstore::InMemoryObjectStore;
use bh_storage::predicate::Predicate;
use bh_storage::schema::TableSchema;
use bh_storage::table::{TableStore, TableStoreConfig};
use bh_storage::value::{ColumnType, Value};
use bh_vector::{IndexKind, Metric};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

struct Fixture {
    table: Arc<TableStore>,
    vw: VirtualWarehouse,
    engine: QueryEngine,
    metrics: MetricsRegistry,
}

/// 600 rows in 5 well-separated clusters across 12 segments, two rows
/// deleted, caches warmed by one full-table query.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(build_fixture)
}

fn build_fixture() -> Fixture {
    {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("label", ColumnType::Str)
            .with_column("emb", ColumnType::Vector(4))
            .with_vector_index("i", "emb", IndexKind::Hnsw, 4, Metric::L2);
        let metrics = MetricsRegistry::new();
        let table = TableStore::new(
            schema,
            InMemoryObjectStore::for_tests(),
            TableStoreConfig { segment_max_rows: 50, ..Default::default() },
            Arc::new(IdGenerator::new()),
            metrics.clone(),
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..600)
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
        table.delete_where(&Predicate::eq("id", Value::UInt64(0))).unwrap();
        table.delete_where(&Predicate::eq("id", Value::UInt64(45))).unwrap();
        let vw = make_vw(&table, &metrics);
        let engine = QueryEngine::new(metrics.clone());
        let fix = Fixture { table: Arc::new(table), vw, engine, metrics };
        // Warm every segment so every run starts from the same residency
        // state (on-demand warming is order-dependent).
        run_sql(
            &fix,
            &QueryOptions::default(),
            "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 600",
        );
        fix
    }
}

/// A cold two-worker VW over `table`.
fn make_vw(table: &TableStore, metrics: &MetricsRegistry) -> VirtualWarehouse {
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
    vw
}

fn parse(sql: &str) -> SelectStmt {
    match bh_sql::parse_statement(sql).unwrap() {
        bh_sql::Statement::Select(sel) => sel,
        other => panic!("expected SELECT, got {other:?}"),
    }
}

fn run_sql(fix: &Fixture, opts: &QueryOptions, sql: &str) -> ResultSet {
    fix.engine.execute_select(&fix.table, &fix.vw, opts, &parse(sql)).unwrap()
}

/// One random hybrid statement: a cluster-centred top-k with an optional
/// scalar filter, always projecting the distance so comparisons see the
/// merged distances bit-exactly.
fn stmt_strategy() -> impl Strategy<Value = String> {
    (0u32..5, 1usize..=25, 0u32..4).prop_map(|(cluster, k, filter)| {
        let c = cluster as f32 * 6.0;
        let w = match filter {
            0 => String::new(),
            1 => "WHERE label = 'l0' ".into(),
            2 => "WHERE label = 'l1' AND id < 300 ".into(),
            _ => "WHERE id >= 100 ".into(),
        };
        format!(
            "SELECT id, dist FROM t {w}ORDER BY \
             L2Distance(emb, [{c}.0, {:.1}, {:.1}, {:.1}]) AS dist LIMIT {k}",
            c + 0.1,
            c + 0.2,
            c - 0.1,
        )
    })
}

fn batch_strategy() -> impl Strategy<Value = Vec<String>> {
    prop_oneof![Just(1usize), Just(3), Just(17)]
        .prop_flat_map(|n| prop::collection::vec(stmt_strategy(), n))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn batch_of_n_is_bit_identical_to_n_batches_of_one(sqls in batch_strategy()) {
        let fix = fixture();
        let stmts: Vec<SelectStmt> = sqls.iter().map(|s| parse(s)).collect();
        // The reference: one statement per batch, entirely on the calling
        // thread, no shared bound.
        let reference_opts =
            QueryOptions { share_bound: false, intra_query_parallelism: 1, ..Default::default() };
        let reference: Vec<ResultSet> =
            sqls.iter().map(|s| run_sql(fix, &reference_opts, s)).collect();
        for share_bound in [true, false] {
            for parallelism in [1, 2, 4] {
                let opts = QueryOptions {
                    share_bound,
                    intra_query_parallelism: parallelism,
                    ..Default::default()
                };
                let one_by_one: Vec<ResultSet> =
                    sqls.iter().map(|s| run_sql(fix, &opts, s)).collect();
                let batched = fix
                    .engine
                    .execute_select_batch(&fix.table, &fix.vw, &opts, &stmts)
                    .unwrap();
                prop_assert_eq!(batched.len(), reference.len());
                for (i, r) in reference.iter().enumerate() {
                    // Rows carry both ids and f64-widened distances, so this
                    // is a bit-identity check on the merged results.
                    prop_assert_eq!(
                        &r.rows,
                        &one_by_one[i].rows,
                        "statement {} alone diverged (share_bound={}, parallelism={}): {}",
                        i,
                        share_bound,
                        parallelism,
                        sqls[i]
                    );
                    prop_assert_eq!(
                        &r.rows,
                        &batched[i].rows,
                        "batched statement {} diverged (share_bound={}, parallelism={}): {}",
                        i,
                        share_bound,
                        parallelism,
                        sqls[i]
                    );
                }
            }

            // Half-resident start: a round searches its resident segments
            // first, so a batch's segment tasks run in a different order
            // than the one-by-one statements visit them and the shared bound
            // tightens along a different path — the merged rows must not
            // notice. On this zero-latency store a cold segment's transfer
            // is ripe at once, so both sides answer its first statement from
            // its full index and warm it, one fresh VW each.
            let opts = QueryOptions { share_bound, ..Default::default() };
            let metas = fix.table.segments();
            let (vw_ref, vw_batch) =
                (make_vw(&fix.table, &fix.metrics), make_vw(&fix.table, &fix.metrics));
            for vw in [&vw_ref, &vw_batch] {
                vw.preload(&metas[metas.len() / 2..]).unwrap();
            }
            let one_by_one: Vec<ResultSet> = stmts
                .iter()
                .map(|s| {
                    fix.engine.execute_select(&fix.table, &vw_ref, &reference_opts, s).unwrap()
                })
                .collect();
            let batched = fix
                .engine
                .execute_select_batch(&fix.table, &vw_batch, &opts, &stmts)
                .unwrap();
            for (i, (r, b)) in one_by_one.iter().zip(&batched).enumerate() {
                prop_assert_eq!(
                    &r.rows,
                    &b.rows,
                    "half-resident statement {} diverged (share_bound={}): {}",
                    i,
                    share_bound,
                    sqls[i]
                );
            }
        }
    }

    /// Plan D forced across the whole batch: the filter-aware traversal is as
    /// deterministic as the other strategies, so a batch (with the shared
    /// pruning bound on and off) must stay bit-identical to batches of one.
    /// Unfiltered statements degrade to the plain path inside the same arm, so
    /// the mix exercises both the traversal and its fallback.
    #[test]
    fn filtered_traversal_batch_is_bit_identical(sqls in batch_strategy()) {
        let fix = fixture();
        let stmts: Vec<SelectStmt> = sqls.iter().map(|s| parse(s)).collect();
        let forced = QueryOptions {
            forced_strategy: Some(PlanStrategy::FilteredTraversal),
            ..Default::default()
        };
        let reference_opts =
            QueryOptions { share_bound: false, intra_query_parallelism: 1, ..forced.clone() };
        let reference: Vec<ResultSet> =
            sqls.iter().map(|s| run_sql(fix, &reference_opts, s)).collect();
        for share_bound in [true, false] {
            let opts = QueryOptions { share_bound, ..forced.clone() };
            let batched = fix
                .engine
                .execute_select_batch(&fix.table, &fix.vw, &opts, &stmts)
                .unwrap();
            prop_assert_eq!(batched.len(), reference.len());
            for (i, (r, b)) in reference.iter().zip(&batched).enumerate() {
                prop_assert_eq!(
                    &r.rows,
                    &b.rows,
                    "Plan D statement {} diverged (share_bound={}): {}",
                    i,
                    share_bound,
                    sqls[i]
                );
            }
        }
    }

    /// Tracing is observation only: running under a traced context (what
    /// EXPLAIN ANALYZE does under the hood) must leave both single
    /// statements' and a batch's results bit-identical to untraced runs.
    #[test]
    fn tracing_does_not_change_results(sqls in batch_strategy()) {
        let fix = fixture();
        let opts = QueryOptions::default();
        let stmts: Vec<SelectStmt> = sqls.iter().map(|s| parse(s)).collect();

        let plain: Vec<ResultSet> = sqls.iter().map(|s| run_sql(fix, &opts, s)).collect();
        let batched_plain =
            fix.engine.execute_select_batch(&fix.table, &fix.vw, &opts, &stmts).unwrap();

        // One traced context per engine call, as `Database` makes them.
        let mut exec_spans = Vec::new();
        let mut traced_call = |call: &dyn Fn() -> Vec<ResultSet>| {
            let ctx = QueryCtx::traced(0, "select", "default", "default", Stopwatch::start());
            let _in = ctx.install();
            let out = call();
            let spans = ctx.take_spans().unwrap_or_default();
            exec_spans.push(spans.iter().filter(|s| s.name == "exec").count());
            out
        };
        let traced: Vec<ResultSet> =
            sqls.iter().flat_map(|s| traced_call(&|| vec![run_sql(fix, &opts, s)])).collect();
        let batched_traced = traced_call(&|| {
            fix.engine.execute_select_batch(&fix.table, &fix.vw, &opts, &stmts).unwrap()
        });
        prop_assert!(exec_spans.iter().all(|&n| n == 1), "one `exec` span per call: {exec_spans:?}");
        for (i, (p, t)) in plain.iter().zip(&traced).enumerate() {
            prop_assert_eq!(&p.rows, &t.rows, "statement {} diverged under tracing: {}", i, sqls[i]);
        }
        for (i, (p, t)) in batched_plain.iter().zip(&batched_traced).enumerate() {
            prop_assert_eq!(
                &p.rows,
                &t.rows,
                "batched statement {} diverged under tracing: {}",
                i,
                sqls[i]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The always-on query log plus slow-query capture is observation only.
    /// This models what `Database::execute_session` does around the engine —
    /// a traced context per statement, its spans moved into a retained trace,
    /// one record appended from the context — and asserts the results stay
    /// bit-identical to plain runs.
    #[test]
    fn query_log_capture_does_not_change_results(sqls in batch_strategy()) {
        let fix = fixture();
        let opts = QueryOptions::default();
        let plain: Vec<ResultSet> = sqls.iter().map(|s| run_sql(fix, &opts, s)).collect();

        let log = QueryLog::with_capacities(64, 64);
        log.set_slow_policy(Some(SlowQueryPolicy { threshold_nanos: 0, capture_errors: true }));
        let logged: Vec<ResultSet> = sqls
            .iter()
            .map(|s| {
                let query_id = log.next_query_id();
                let ctx =
                    QueryCtx::traced(query_id, "select", "default", "default", log.origin());
                let start_nanos = log.now_nanos();
                let rs = {
                    let _in = ctx.install();
                    run_sql(fix, &opts, s)
                };
                let spans = ctx.take_spans().unwrap_or_default();
                let end_nanos = log.now_nanos();
                let duration = end_nanos.saturating_sub(start_nanos);
                if log.should_retain(duration, false) {
                    log.retain_trace(SlowQueryTrace {
                        query_id,
                        sql: s.clone(),
                        duration_nanos: duration,
                        error_code: None,
                        spans,
                    });
                }
                log.observe(QueryLogRecord {
                    query_id,
                    kind: ctx.kind,
                    sql: s.clone(),
                    tenant: ctx.tenant.clone(),
                    session: ctx.session.clone(),
                    start_nanos,
                    end_nanos,
                    work: ctx.tally.snapshot(),
                    strategy: ctx.strategy(),
                    result_rows: rs.rows.len() as u64,
                    traced: true,
                    ..Default::default()
                });
                rs
            })
            .collect();

        for (i, (p, l)) in plain.iter().zip(&logged).enumerate() {
            prop_assert_eq!(&p.rows, &l.rows, "statement {} diverged under logging: {}", i, sqls[i]);
        }
        // Exactly one record per statement and (threshold 0) one retained
        // trace each, holding that statement's executor phase and no other.
        for t in log.slow_traces() {
            prop_assert_eq!(t.spans.iter().filter(|s| s.name == "exec").count(), 1);
        }
        prop_assert_eq!(log.total_logged(), sqls.len() as u64);
        prop_assert_eq!(log.slow_traces().len(), sqls.len());
        for r in log.records() {
            prop_assert!(r.end_nanos >= r.start_nanos);
            prop_assert!(r.traced);
            prop_assert!(r.error_code.is_none());
        }
    }

    /// The record ring is bounded: any number of concurrent writers, any
    /// capacity — the retained set never exceeds the configured capacity and
    /// the total-logged counter still sees every append.
    #[test]
    fn ring_never_exceeds_capacity_under_concurrent_writers(
        cap in 1usize..=32,
        writers in 1usize..=8,
        per_writer in 1usize..=40,
    ) {
        let log = QueryLog::new(cap);
        std::thread::scope(|scope| {
            for w in 0..writers {
                let log = &log;
                scope.spawn(move || {
                    for i in 0..per_writer {
                        log.observe(QueryLogRecord {
                            query_id: log.next_query_id(),
                            kind: "select",
                            sql: format!("q{w}:{i}"),
                            ..Default::default()
                        });
                    }
                });
            }
        });
        let records = log.records();
        prop_assert!(records.len() <= cap, "{} records > capacity {}", records.len(), cap);
        prop_assert_eq!(records.len(), cap.min(writers * per_writer));
        prop_assert_eq!(log.total_logged(), (writers * per_writer) as u64);
        // Every surviving record is one some writer actually appended.
        for r in &records {
            prop_assert!(r.sql.starts_with('q') && r.sql.contains(':'), "corrupt record {:?}", r.sql);
        }
    }
}
