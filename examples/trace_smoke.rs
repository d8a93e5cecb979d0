//! CI smoke test for the observability layer: run traced queries end to end,
//! from two threads at once, and exit nonzero if a statement's retained trace
//! is empty or holds another statement's segment, the `EXPLAIN ANALYZE`
//! profile came back without a stage tree, or EXPLAIN, the `plan` span and
//! the query log disagree on the plan a filtered statement ran.
//!
//! Run with: `cargo run --release -p blendhouse-examples --bin trace_smoke`

use bh_common::trace::AttrValue;
use bh_common::SlowQueryPolicy;
use bh_storage::table::TableStoreConfig;
use blendhouse::{Database, DatabaseConfig, QueryOutput, Strategy, Value};
use std::collections::HashSet;

const TABLES: [&str; 2] = ["docs", "notes"];
const STATEMENTS_PER_THREAD: usize = 20;

fn main() {
    // Small segments so the query fans out across several of them and the
    // profile exercises pruning, cache, and remote-read spans.
    let db = Database::new(DatabaseConfig {
        table: TableStoreConfig { segment_max_rows: 64, ..Default::default() },
        ..Default::default()
    });
    for table in TABLES {
        db.execute(&format!(
            "CREATE TABLE {table} (
               id UInt64, label String, emb Array(Float32),
               INDEX ann emb TYPE HNSW('DIM=4')
             ) ORDER BY id"
        ))
        .expect("create table");
        let rows: Vec<String> = (0..300)
            .map(|i| {
                let c = (i % 3) as f32 * 5.0 + i as f32 * 1e-3;
                format!(
                    "({i}, 'l{}', [{c}, {:.3}, {:.3}, {:.3}])",
                    i % 2,
                    c + 0.1,
                    c + 0.2,
                    c - 0.1
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(", "))).expect("insert");
    }

    // 1. Traced statements on two threads: each retained trace is the tree
    //    of its own statement — the stages, and no segment of the other table.
    db.set_slow_query_policy(Some(SlowQueryPolicy { threshold_nanos: 0, capture_errors: true }));
    std::thread::scope(|scope| {
        for table in TABLES {
            let db = &db;
            scope.spawn(move || {
                let opts = db.default_options();
                for i in 0..STATEMENTS_PER_THREAD {
                    let sql = format!(
                        "SELECT id FROM {table} WHERE label = 'l0' \
                         ORDER BY L2Distance(emb, [0.1, 0.2, 0.3, 0.0]) LIMIT {}",
                        1 + i % 7
                    );
                    db.execute_session(&sql, &opts, "smoke", table).expect("traced query");
                }
            });
        }
    });
    db.set_slow_query_policy(None);
    let records = db.query_log().records();
    let traces = db.query_log().slow_traces();
    assert_eq!(traces.len(), TABLES.len() * STATEMENTS_PER_THREAD, "every statement is retained");
    for trace in &traces {
        let record = records
            .iter()
            .find(|r| r.query_id == trace.query_id)
            .expect("a retained trace has its log record");
        assert!(record.traced, "query {} retained but not logged as traced", trace.query_id);
        let own: HashSet<u64> = db
            .table(&record.session)
            .expect("session names the table")
            .segments()
            .iter()
            .map(|m| m.id.raw())
            .collect();
        let have = |name: &str| trace.spans.iter().filter(|s| s.name == name).count();
        for required in ["bind", "plan", "exec", "exec.vector"] {
            assert_eq!(have(required), 1, "query {}: span {required:?}", trace.query_id);
        }
        for span in &trace.spans {
            if let Some(AttrValue::U64(segment)) = span.attr("segment") {
                assert!(
                    own.contains(segment),
                    "query {} on {} holds a span of foreign segment {segment}: {span:?}",
                    trace.query_id,
                    record.session
                );
            }
        }
    }
    println!("{} concurrent traced queries each kept their own spans", traces.len());

    // 2. EXPLAIN ANALYZE must render a non-empty stage tree.
    let text = lines(
        &db,
        "EXPLAIN ANALYZE SELECT id FROM docs ORDER BY L2Distance(emb, [5.0, 5.1, 5.2, 4.9]) LIMIT 3",
    );
    assert!(
        text.first().is_some_and(|l| l.starts_with("query  ")),
        "profile does not start with the root query span: {text:?}"
    );
    assert!(text.len() > 3, "profile has no stage tree: {text:?}");
    println!("--- EXPLAIN ANALYZE ---");
    for line in &text {
        println!("{line}");
    }

    // 3. EXPLAIN is the plan that runs: one filtered statement, three ways.
    let sql = "SELECT id FROM docs WHERE label = 'l0' \
               ORDER BY L2Distance(emb, [0.1, 0.2, 0.3, 0.0]) LIMIT 5";
    let explained = lines(&db, &format!("EXPLAIN {sql}"))
        .iter()
        .find_map(|l| l.strip_prefix("strategy: ").map(String::from))
        .expect("EXPLAIN prints a strategy");
    let profiled = lines(&db, &format!("EXPLAIN ANALYZE {sql}"))
        .iter()
        .find_map(|l| {
            let (_, attrs) = l.trim_start().strip_prefix("plan ")?.split_once("strategy=")?;
            attrs.split("  ").next().map(String::from)
        })
        .expect("the plan span carries a strategy");
    db.execute(sql).expect("filtered query");
    let logged = db.query_log().records().last().expect("the statement is logged").strategy;
    let slug = Strategy::ALL.into_iter().find(|s| s.name() == explained).map(|s| s.slug());
    assert_eq!(profiled, explained, "EXPLAIN ANALYZE ran another plan than EXPLAIN printed");
    assert_eq!(slug, Some(logged), "the query log records another plan than EXPLAIN printed");
    println!("EXPLAIN, the plan span and the query log agree: {explained}");

    // 4. Metrics exposition carries the query's counters.
    let metrics = db.metrics_text();
    assert!(metrics.contains("remote_get_bytes"), "metrics text missing remote_get_bytes");
    println!("trace smoke OK");
}

/// The one string column of a statement's rows, line by line.
fn lines(db: &Database, sql: &str) -> Vec<String> {
    let Ok(QueryOutput::Rows(rows)) = db.execute(sql) else { panic!("{sql} returned no rows") };
    rows.rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.clone(),
            other => panic!("cell is not a string: {other:?}"),
        })
        .collect()
}
