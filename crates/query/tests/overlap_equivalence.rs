//! The overlapped cold path's equivalence contract (DESIGN.md §11.3).
//!
//! The executor prefetches every cold segment's index body and each segment
//! task consumes the transfer in flight, so a batch — of any size, one
//! statement included — is answered from full indexes at *every* starting
//! residency. The contract, asserted by the proptest against a preloaded
//! warehouse on the same store:
//!
//! * overlapped-cold ≡ warm — residency does not change a batch's rows;
//! * overlapped-warm ≡ warm, bit for bit — overlap only changes *when*
//!   simulated latencies are paid, never which bytes come back.
//!
//! One plain test states the cold contract for a brand-new warehouse's
//! *first* statement — top-k with and without a filter, a filter passing
//! only a segment's farthest rows, a distance range without LIMIT: with
//! nobody to serve, the round's transfers are waited out and full indexes
//! answer, never the exact scan; the rows are an always-warm warehouse's. Two more pin what a round leaves pending in the
//! workers' `IndexCache`s: nothing when the batch errors out, and exactly the
//! transfers of the segments a peer served when it succeeds.
//!
//! All force an index plan: on a 480-row table the optimizer would scan
//! the raw column (Plan A), which fetches no index at all.

use bh_cluster::vw::{VirtualWarehouse, VwConfig};
use bh_cluster::worker::WorkerConfig;
use bh_common::ids::IdGenerator;
use bh_common::{LatencyModel, MetricsRegistry, SharedClock, VirtualClock, VwId};
use bh_query::exec::{QueryEngine, QueryOptions};
use bh_query::Strategy as Plan;
use bh_sql::ast::SelectStmt;
use bh_storage::objectstore::InMemoryObjectStore;
use bh_storage::schema::TableSchema;
use bh_storage::table::{TableStore, TableStoreConfig};
use bh_storage::value::{ColumnType, Value};
use bh_vector::{IndexKind, Metric};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One table with its store, clock, metrics and engine.
struct Side {
    table: Arc<TableStore>,
    clock: SharedClock,
    metrics: MetricsRegistry,
    engine: QueryEngine,
}

/// 480 rows in 4 clusters across 8 segments, persisted through an in-memory
/// store with nonzero transfer latency: a get and an executor prefetch
/// return at once with their transfer's deadline.
fn side() -> Side {
    let clock: SharedClock = VirtualClock::shared();
    let metrics = MetricsRegistry::new();
    let store = Arc::new(InMemoryObjectStore::new(
        clock.clone(),
        LatencyModel::new(Duration::from_micros(50), Duration::from_nanos(2)),
        metrics.clone(),
        "remote",
    ));
    let schema = TableSchema::new("t")
        .with_column("id", ColumnType::UInt64)
        .with_column("emb", ColumnType::Vector(4))
        .with_vector_index("i", "emb", IndexKind::Hnsw, 4, Metric::L2);
    let table = TableStore::new(
        schema,
        store,
        TableStoreConfig { segment_max_rows: 60, ..Default::default() },
        Arc::new(IdGenerator::new()),
        metrics.clone(),
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..480)
        .map(|i| {
            let c = (i % 4) as f32 * 8.0 + (i as f32) * 1e-4;
            vec![Value::UInt64(i as u64), Value::Vector(vec![c, c + 0.1, c + 0.2, c - 0.1])]
        })
        .collect();
    table.insert_rows(rows).unwrap();
    Side { table: Arc::new(table), clock, engine: QueryEngine::new(metrics.clone()), metrics }
}

fn fixture() -> &'static Side {
    static FIX: OnceLock<Side> = OnceLock::new();
    FIX.get_or_init(side)
}

/// A fresh two-worker VW over the side's table. `overlap` additionally
/// overlaps a serving RPC's wire time with the peer's search.
fn make_vw(side: &Side, overlap: bool) -> VirtualWarehouse {
    let vw = VirtualWarehouse::new(
        VwId(u64::from(overlap)),
        if overlap { "ovl" } else { "plain" },
        VwConfig {
            // Far below a blob get, so a served search ripens no transfer.
            rpc: LatencyModel::fixed(Duration::from_micros(1)),
            worker: WorkerConfig { overlap, ..Default::default() },
            ..Default::default()
        },
        side.table.remote_store().clone(),
        side.clock.clone(),
        side.metrics.clone(),
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

fn stmt_sql(cluster: u32, k: usize, filtered: bool) -> String {
    let c = cluster as f32 * 8.0;
    let w = if filtered { "WHERE id < 240 " } else { "" };
    format!(
        "SELECT id, dist FROM t {w}ORDER BY \
         L2Distance(emb, [{c}.0, {:.1}, {:.1}, {:.1}]) AS dist LIMIT {k}",
        c + 0.1,
        c + 0.2,
        c - 0.1,
    )
}

/// The plans that search a segment through its index.
const INDEX_PLANS: [Plan; 3] = [Plan::PreFilter, Plan::PostFilter, Plan::FilteredTraversal];

fn stmt_strategy() -> impl Strategy<Value = String> {
    (0u32..4, 1usize..=20, any::<bool>())
        .prop_map(|(cluster, k, filtered)| stmt_sql(cluster, k, filtered))
}

/// Half the batches are a single statement.
fn batch_strategy() -> impl Strategy<Value = Vec<String>> {
    prop_oneof![Just(1usize).boxed(), (2usize..=6).boxed()]
        .prop_flat_map(|n| prop::collection::vec(stmt_strategy(), n))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn overlapped_batch_at_any_residency_matches_preloaded(
        sqls in batch_strategy(),
        residency in 0usize..3,
        plan in 0usize..INDEX_PLANS.len(),
    ) {
        let fix = fixture();
        let stmts: Vec<SelectStmt> = sqls.iter().map(|s| parse(s)).collect();
        let metas = fix.table.segments();
        // The reference: every index preloaded.
        let vw_reference = make_vw(fix, false);
        vw_reference.preload(&metas).unwrap();
        // Under test: none, half, or all preloaded.
        let vw_overlap = make_vw(fix, true);
        vw_overlap.preload(&metas[..metas.len() * residency / 2]).unwrap();

        let opts =
            QueryOptions { forced_strategy: Some(INDEX_PLANS[plan]), ..Default::default() };
        let prefetches = fix.metrics.counter("query.index_prefetches");
        // Two rounds: the first runs at the chosen residency, the second on
        // whatever mix the first round's loads produced.
        for round in 0..2 {
            let reference =
                fix.engine.execute_select_batch(&fix.table, &vw_reference, &opts, &stmts).unwrap();
            let before = prefetches.get();
            let overlapped =
                fix.engine.execute_select_batch(&fix.table, &vw_overlap, &opts, &stmts).unwrap();
            // The overlapped path must actually have engaged when cold, and
            // must not fetch anything when warm.
            match (residency, round) {
                (0, 0) => prop_assert!(prefetches.get() > before, "cold batch prefetched nothing"),
                (2, _) => prop_assert_eq!(prefetches.get(), before),
                _ => {}
            }
            prop_assert_eq!(reference.len(), overlapped.len());
            for (i, (r, o)) in reference.iter().zip(&overlapped).enumerate() {
                prop_assert_eq!(
                    &r.rows,
                    &o.rows,
                    "statement {} diverged (residency={}, round={}, {:?}): {}",
                    i,
                    residency,
                    round,
                    INDEX_PLANS[plan],
                    sqls[i]
                );
            }
        }
    }
}

/// A brand-new warehouse's first statements: `(sql, plans forced, rows)`.
fn first_statements() -> Vec<(String, &'static [Plan], usize)> {
    let q = "[8.0, 8.1, 8.2, 7.9]";
    // Segment 0's rows of cluster 3: the 15 of its 60 farthest from `q`. A
    // fixed over-fetch filtered afterwards finds none of them; pulling until
    // `k` pass does. (Plan B's recall at this pass fraction is ROADMAP
    // "Recall and integrity contracts".)
    let far: Vec<String> = (3..60).step_by(4).map(|i| i.to_string()).collect();
    vec![
        (stmt_sql(1, 10, false), &INDEX_PLANS, 10),
        (stmt_sql(1, 10, true), &INDEX_PLANS, 10),
        (
            format!(
                "SELECT id, dist FROM t WHERE id IN ({}) \
                 ORDER BY L2Distance(emb, {q}) AS dist LIMIT 10",
                far.join(", ")
            ),
            &[Plan::PostFilter, Plan::FilteredTraversal],
            10,
        ),
        // A distance range without LIMIT: everything inside it, i.e. cluster 1.
        (
            format!(
                "SELECT id, dist FROM t WHERE L2Distance(emb, {q}) < 1.0 \
                 ORDER BY L2Distance(emb, {q}) AS dist"
            ),
            &INDEX_PLANS,
            120,
        ),
    ]
}

/// Each of [`first_statements`] as a brand-new warehouse's first statement,
/// under each of its plans: ids and distances are an always-warm
/// warehouse's over the same table, and `worker.brute_force` never moves —
/// an indexed segment is answered from its index.
#[test]
fn the_first_statement_is_answered_from_full_indexes() {
    let side = side();
    let vw_warm = make_vw(&side, false);
    vw_warm.preload(&side.table.segments()).unwrap();
    let brute = side.metrics.counter("worker.brute_force");
    for (sql, plans, rows) in first_statements() {
        let stmt = parse(&sql);
        for &plan in plans {
            let opts = QueryOptions { forced_strategy: Some(plan), ..Default::default() };
            let vw_cold = make_vw(&side, false);
            let first = side.engine.execute_select(&side.table, &vw_cold, &opts, &stmt).unwrap();
            let warm = side.engine.execute_select(&side.table, &vw_warm, &opts, &stmt).unwrap();
            assert_eq!(first.rows.len(), rows, "{plan:?}: {sql}");
            assert_eq!(first.rows, warm.rows, "{plan:?}: {sql}");
        }
    }
    assert_eq!(brute.get(), 0);
}

/// A batch that fails after its round's prefetches went out (every owner
/// dies undetected, so no task can consume them) must leave every worker's
/// pending map empty, and the next batch on the same VW must prefetch and
/// succeed as usual.
#[test]
fn failed_batch_strands_no_prefetch() {
    let side = side();
    let vw = make_vw(&side, true);
    let metas = side.table.segments();
    let stmts: Vec<SelectStmt> = (0..4).map(|c| parse(&stmt_sql(c, 10, false))).collect();
    let opts = QueryOptions { forced_strategy: Some(Plan::PostFilter), ..Default::default() };
    let issued = side.metrics.counter("cache.index.prefetch");

    let workers: Vec<_> = vw.worker_ids().into_iter().map(|w| vw.worker(w).unwrap()).collect();
    for w in &workers {
        vw.inject_failure(w.id()).unwrap();
    }
    let failed = side.engine.execute_select_batch(&side.table, &vw, &opts, &stmts);
    assert!(failed.is_err(), "a VW with only dead workers cannot answer");
    assert_eq!(issued.get(), metas.len() as u64, "the round's prefetches did go out");
    for w in &workers {
        for meta in &metas {
            assert!(
                !w.index_cache().in_flight(meta.id),
                "prefetch of {:?} stranded on {}",
                meta.id,
                w.id()
            );
        }
    }

    // Replacement workers: same VW, cold again, served as usual.
    vw.scale_up(&[]);
    vw.scale_up(&[]);
    let before = issued.get();
    let rows = side.engine.execute_select_batch(&side.table, &vw, &opts, &stmts).unwrap();
    assert_eq!(rows.len(), stmts.len());
    assert!(rows.iter().all(|rs| rs.rows.len() == 10));
    assert!(issued.get() > before, "cache.index.prefetch counted again");
}

/// A round that succeeds cancels nothing: what it leaves pending is exactly
/// the transfers of the segments a previous owner served meanwhile — the new
/// owners' warm — and `invalidate` / `clear_memory` release them.
#[test]
fn successful_round_leaves_pending_exactly_the_served_transfers() {
    let side = side();
    let vw = make_vw(&side, true);
    let metas = side.table.segments();
    vw.preload(&metas).unwrap();
    let owner = |meta: &Arc<bh_storage::segment::SegmentMeta>| vw.owner_of(meta).unwrap().1;
    let moved = || metas.iter().filter(|m| !owner(m).index_resident(m)).collect::<Vec<_>>();
    // One scale-up: the VW remembers one previous owner per segment.
    vw.scale_up(&metas);
    let moved = moved();
    assert!(!moved.is_empty());
    let stmts: Vec<SelectStmt> = (0..4).map(|c| parse(&stmt_sql(c, 10, false))).collect();
    let opts = QueryOptions { forced_strategy: Some(Plan::PostFilter), ..Default::default() };
    let served = side.metrics.counter("vw.serving_calls");
    side.engine.execute_select_batch(&side.table, &vw, &opts, &stmts).unwrap();
    assert_eq!(served.get(), (stmts.len() * moved.len()) as u64);

    let workers: Vec<_> = vw.worker_ids().into_iter().map(|w| vw.worker(w).unwrap()).collect();
    let pending = || {
        let mut all = Vec::new();
        for w in &workers {
            all.extend(
                metas.iter().filter(|m| w.index_cache().in_flight(m.id)).map(|m| (w.id(), m.id)),
            );
        }
        all.sort();
        all
    };
    let mut expected: Vec<_> = moved.iter().map(|m| (owner(m).id(), m.id)).collect();
    expected.sort();
    assert_eq!(pending(), expected);

    owner(moved[0]).index_cache().invalidate(moved[0]);
    assert_eq!(pending().len(), moved.len() - 1);
    for w in &workers {
        w.index_cache().clear_memory();
    }
    assert!(pending().is_empty());
}
