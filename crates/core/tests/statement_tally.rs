//! One statement, one tally: what `system.query_log` says a statement did is
//! what that statement did — whatever else ran beside it — and the global
//! counters are the sum of the statements' tallies, nothing more.
//!
//! Every case runs on its own table, so its work counts (rows scanned,
//! segments pruned, bound skips, cache hits and misses) repeat exactly once
//! the caches are warm; `big` is one segment whose index is heavier than the
//! index cache, so that statement pays a cold load every time it runs.

use bh_cluster::vw::VwConfig;
use bh_cluster::worker::WorkerConfig;
use bh_common::{QueryCtx, QueryLogRecord, StatementWork};
use bh_storage::table::TableStoreConfig;
use blendhouse::{Database, DatabaseConfig, QueryOptions, Strategy};
use std::collections::BTreeMap;
use std::sync::Barrier;

const DIM: usize = 8;
const SEGMENT_ROWS: usize = 64;

/// Hash-scattered coordinate in `[0, 10)`: no two rows tie at a k-th distance.
fn coord(i: usize, d: usize) -> String {
    let h = ((i * DIM + d) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    format!("{:.4}", h as f32 / (1u64 << 24) as f32 * 10.0)
}

fn vector(seed: usize) -> String {
    (0..DIM).map(|d| coord(seed, d)).collect::<Vec<_>>().join(", ")
}

/// One statement of known work: its table doubles as its tenant label.
struct Case {
    table: &'static str,
    sql: String,
    opts: QueryOptions,
}

impl Case {
    fn run(&self, db: &Database) {
        db.execute_session(&self.sql, &self.opts, self.table, "s").unwrap();
    }

    fn plan(&self) -> &'static str {
        self.opts.forced_strategy.map_or("", |s| s.slug())
    }
}

fn last_record(db: &Database) -> QueryLogRecord {
    db.query_log().records().pop().expect("a statement was logged")
}

/// The work columns that repeat exactly: the counts, and `rpc_ns`, which is 0
/// here (a `Database`'s store defers, so nothing is served over RPC). The rest
/// are times.
fn counts(w: &StatementWork) -> [u64; 6] {
    [w.rpc_ns, w.rows_scanned, w.segments_pruned, w.bound_skips, w.cache_hits, w.cache_misses]
}

/// Five tables of 3, 5, 2, 4 and (compacted) 1 segments, and one statement
/// on each: different plans, fan-out widths, filters and cache states.
fn fixture() -> (Database, Vec<Case>) {
    let db = Database::new(DatabaseConfig {
        table: TableStoreConfig { segment_max_rows: SEGMENT_ROWS, ..Default::default() },
        vw: VwConfig {
            // Every 64-row index fits, on one worker if need be; `big`'s does not.
            worker: WorkerConfig { index_mem_bytes: 256 << 10, ..Default::default() },
            ..Default::default()
        },
        ..Default::default()
    });
    for (t, (table, segments)) in
        [("a", 3), ("b", 5), ("c", 2), ("d", 4), ("big", 32)].into_iter().enumerate()
    {
        db.execute(&format!(
            "CREATE TABLE {table} (id UInt64, x Int64, emb Array(Float32), \
             INDEX ann emb TYPE HNSW('DIM={DIM}')) ORDER BY id"
        ))
        .unwrap();
        for seg in 0..segments {
            let rows: Vec<String> = (seg * SEGMENT_ROWS..(seg + 1) * SEGMENT_ROWS)
                .map(|i| format!("({i}, {}, [{}])", i % 100, vector(t * 100_000 + i)))
                .collect();
            db.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(", "))).unwrap();
        }
        assert_eq!(db.table(table).unwrap().segments().len(), segments);
    }
    db.compact("big").unwrap();
    assert_eq!(db.table("big").unwrap().segments().len(), 1);

    let case = |table, filter: &str, strategy, width, share_bound| Case {
        table,
        sql: format!(
            "SELECT id, x FROM {table} {filter}ORDER BY L2Distance(emb, [{}]) LIMIT 5",
            vector(7_000_000)
        ),
        // A statement fanned out over two threads publishes its bound in
        // whichever order they run, so its skips would not repeat.
        opts: QueryOptions {
            forced_strategy: Some(strategy),
            intra_query_parallelism: width,
            share_bound,
            ..db.default_options()
        },
    };
    let cases = vec![
        case("a", "", Strategy::BruteForce, 2, false),
        case("b", "WHERE x < 50 ", Strategy::FilteredTraversal, 1, true),
        case("c", "WHERE x < 50 ", Strategy::PostFilter, 1, true),
        case("d", "WHERE id < 64 ", Strategy::PreFilter, 2, false),
        case("big", "WHERE x < 30 ", Strategy::FilteredTraversal, 1, true),
    ];
    (db, cases)
}

/// Every counter's value now.
fn counters(db: &Database) -> BTreeMap<String, u64> {
    db.metrics().snapshot_counters().into_iter().collect()
}

/// How far the global counters a statement's tally folds into (and the
/// caches' own hit / miss counters) moved between two snapshots, as a
/// [`StatementWork`]; `rows_scanned` has no global counter and stays 0.
fn moved(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> StatementWork {
    let delta = |name: &str| after.get(name).unwrap_or(&0) - before.get(name).unwrap_or(&0);
    let caches = |event: &str| {
        after
            .keys()
            .filter(|k| k.starts_with("cache.") && k.ends_with(event))
            .map(|k| delta(k))
            .sum::<u64>()
    };
    StatementWork {
        bind_ns: delta("query.bind_ns"),
        plan_ns: delta("query.plan_ns"),
        exec_ns: delta("query.exec_ns"),
        segment_ns: delta("query.segment_ns"),
        rpc_ns: delta("worker.rpc_ns"),
        rows_scanned: 0,
        segments_pruned: delta("query.segments_pruned"),
        bound_skips: delta("query.bound_skips"),
        cache_hits: caches(".hit"),
        cache_misses: caches(".miss"),
    }
}

/// `query.plan.*` movements between two snapshots, by slug, zeros left out.
fn plans_moved(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> Vec<(&'static str, u64)> {
    Strategy::ALL
        .iter()
        .map(|s| {
            let name = format!("query.plan.{}", s.slug());
            (s.slug(), after.get(&name).unwrap_or(&0) - before.get(&name).unwrap_or(&0))
        })
        .filter(|(_, n)| *n > 0)
        .collect()
}

#[test]
fn concurrent_statements_log_their_own_work_and_sum_to_the_global_counters() {
    const LOOPS: usize = 30;
    let (db, cases) = fixture();

    // What each statement logs when nothing runs beside it, caches warm.
    let alone: Vec<StatementWork> = cases
        .iter()
        .map(|case| {
            for _ in 0..4 {
                case.run(&db);
            }
            let warm = last_record(&db).work;
            case.run(&db);
            assert_eq!(counts(&last_record(&db).work), counts(&warm), "{} repeats", case.table);
            warm
        })
        .collect();
    // The cases differ in the work they do, and in the ways the fixture says.
    for (i, a) in alone.iter().enumerate() {
        assert!(a.rows_scanned > 0 && a.cache_hits > 0, "{}: {a:?}", cases[i].table);
        for b in &alone[..i] {
            assert_ne!(counts(a), counts(b));
        }
    }
    assert!(alone[..4].iter().all(|w| w.cache_misses == 0), "warm tables miss nothing: {alone:?}");
    assert!(alone[4].cache_misses > 0, "`big` reloads its index every time: {:?}", alone[4]);
    assert!(alone[3].segments_pruned > 0, "`d` prunes by `id`: {:?}", alone[3]);
    assert!(alone[1].bound_skips > 0, "`b` prunes against its bound: {:?}", alone[1]);

    let marker = last_record(&db).query_id;
    let before = counters(&db);
    let start = Barrier::new(cases.len());
    std::thread::scope(|scope| {
        for case in &cases {
            let (db, start) = (&db, &start);
            scope.spawn(move || {
                start.wait();
                for _ in 0..LOOPS {
                    case.run(db);
                }
            });
        }
    });
    let after = counters(&db);

    let rows: Vec<QueryLogRecord> =
        db.query_log().records().into_iter().filter(|r| r.query_id > marker).collect();
    assert_eq!(rows.len(), cases.len() * LOOPS);
    let mut sum = vec![0u64; alone[0].columns().len()];
    let mut plans: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &rows {
        let at = cases.iter().position(|c| c.table == r.tenant).expect("a case's tenant");
        let (case, w) = (&cases[at], &r.work);
        assert_eq!(counts(w), counts(&alone[at]), "{} bled: {r:?}", case.table);
        assert_eq!(r.strategy, case.plan(), "{r:?}");
        // Times are the statement's own: there, and no more than it ran for
        // (its segment searches on up to `width` threads at once).
        let width = case.opts.intra_query_parallelism as u64;
        for (t, limit) in [(w.bind_ns, 1), (w.plan_ns, 1), (w.exec_ns, 1), (w.segment_ns, width)] {
            assert!(t > 0 && t <= r.duration_nanos() * limit, "{r:?}");
        }
        for (total, (_, n)) in sum.iter_mut().zip(w.columns()) {
            *total += n;
        }
        *plans.entry(r.strategy).or_default() += 1;
    }
    // `rows_scanned` has no global counter to compare with.
    let at = alone[0].columns().iter().position(|c| c.0 == "rows_scanned").expect("a column");
    assert_eq!(sum[at], LOOPS as u64 * alone.iter().map(|w| w.rows_scanned).sum::<u64>());
    sum[at] = 0;
    let global: Vec<u64> = moved(&before, &after).columns().into_iter().map(|c| c.1).collect();
    assert_eq!(sum, global, "the counters are the sum of the rows");
    assert_eq!(plans, plans_moved(&before, &after).into_iter().collect());
}

#[test]
fn two_plans_run_side_by_side_and_every_row_names_its_own() {
    const LOOPS: usize = 100;
    let (db, cases) = fixture();
    let sql = &cases[1].sql;
    let marker = last_record(&db).query_id;
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for strategy in [Strategy::BruteForce, Strategy::FilteredTraversal] {
            let (db, start) = (&db, &start);
            let opts = QueryOptions { forced_strategy: Some(strategy), ..db.default_options() };
            scope.spawn(move || {
                start.wait();
                for _ in 0..LOOPS {
                    db.execute_session(sql, &opts, strategy.slug(), "s").unwrap();
                }
            });
        }
    });
    let rows: Vec<QueryLogRecord> =
        db.query_log().records().into_iter().filter(|r| r.query_id > marker).collect();
    assert_eq!(rows.len(), 2 * LOOPS);
    for r in rows {
        assert_eq!(r.strategy, r.tenant, "{r:?}");
    }
}

#[test]
fn one_statement_moves_the_global_counters_by_exactly_its_row() {
    let (db, cases) = fixture();
    let mut statements: Vec<(String, QueryOptions)> =
        cases.iter().map(|c| (c.sql.clone(), c.opts.clone())).collect();
    let defaults = db.default_options();
    statements.extend(
        [
            "SELECT id FROM d WHERE x < 10 AND id >= 128 ORDER BY id LIMIT 7",
            "SELECT nope FROM a ORDER BY L2Distance(emb, [0.0]) LIMIT 1",
            "INSERT INTO c VALUES (100000, 1, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])",
            "EXPLAIN SELECT id FROM a ORDER BY L2Distance(emb, [0.0]) LIMIT 1",
        ]
        .map(|sql| (sql.to_string(), defaults.clone())),
    );
    for (sql, opts) in &statements {
        let before = counters(&db);
        let _ = db.execute_with(sql, opts);
        let after = counters(&db);
        let row = last_record(&db);
        let expected = StatementWork { rows_scanned: 0, ..row.work };
        assert_eq!(moved(&before, &after), expected, "{sql}");
        let plan: Vec<_> = Some((row.strategy, 1)).into_iter().filter(|p| !p.0.is_empty()).collect();
        assert_eq!(plans_moved(&before, &after), plan, "{sql}");
    }

    // A bare engine call (what `benchmark/src/layers.rs` makes): the engine
    // makes the statement's context itself and the counters have moved by
    // the time the call returns, by what the same statement logs.
    let vw = db.default_vw();
    for case in &cases {
        for _ in 0..4 {
            case.run(&db);
        }
        let logged = last_record(&db).work;
        let table = db.table(case.table).unwrap();
        let bh_sql::Statement::Select(sel) = bh_sql::parse_statement(&case.sql).unwrap() else {
            panic!("a SELECT")
        };
        let bound = bh_query::bind::bind_select(table.schema(), &sel).unwrap();

        let before = counters(&db);
        db.engine().execute_bound(&table, &vw, &case.opts, &bound).unwrap();
        let after = counters(&db);
        let bare = moved(&before, &after);
        assert_eq!(counts(&bare), counts(&StatementWork { rows_scanned: 0, ..logged }));
        assert!(bare.bind_ns == 0 && bare.plan_ns > 0 && bare.exec_ns > 0 && bare.segment_ns > 0);
        assert_eq!(plans_moved(&before, &after), [(case.plan(), 1)]);

        // Under a context the caller installed, the tally is the caller's to
        // read, and the counters still move by exactly it.
        let ctx = QueryCtx::new(0, "select", "t", "s");
        let before = counters(&db);
        {
            let _in = ctx.install();
            db.engine().execute_bound(&table, &vw, &case.opts, &bound).unwrap();
        }
        let work = ctx.tally.snapshot();
        assert_eq!(moved(&before, &counters(&db)), StatementWork { rows_scanned: 0, ..work });
        assert_eq!(work.rows_scanned, logged.rows_scanned);
        assert_eq!(ctx.strategy(), case.plan());
    }
}
