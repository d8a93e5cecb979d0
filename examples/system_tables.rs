//! CI smoke test for queryable introspection: run a workload with slow-query
//! capture armed, then check that every `system.*` table answers real SELECTs
//! in the data tables' dialect and that `SYSTEM TRACE EXPORT` renders
//! chrome://tracing JSON.
//!
//! Run with: `cargo run --release -p blendhouse-examples --bin system_tables`

use bh_common::querylog::SlowQueryPolicy;
use bh_storage::table::TableStoreConfig;
use blendhouse::{Database, DatabaseConfig, QueryOutput, Value};

fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    match db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
        QueryOutput::Rows(rs) => rs.rows,
        other => panic!("{sql}: expected rows, got {other:?}"),
    }
}

fn cell_u64(v: &Value) -> u64 {
    match v {
        Value::UInt64(n) => *n,
        other => panic!("expected UInt64, got {other:?}"),
    }
}

fn main() {
    // threshold_nanos: 0 retains every query's span tree, so the smoke run is
    // deterministic regardless of how fast the machine is.
    let db = Database::new(DatabaseConfig {
        table: TableStoreConfig { segment_max_rows: 64, ..Default::default() },
        slow_query: Some(SlowQueryPolicy { threshold_nanos: 0, capture_errors: true }),
        ..Default::default()
    });
    db.execute(
        "CREATE TABLE docs (
           id UInt64, label String, emb Array(Float32),
           INDEX ann emb TYPE HNSW('DIM=4')
         ) ORDER BY id",
    )
    .expect("create table");
    let values: Vec<String> = (0..300)
        .map(|i| {
            let c = (i % 3) as f32 * 5.0 + i as f32 * 1e-3;
            format!("({i}, 'l{}', [{c}, {:.3}, {:.3}, {:.3}])", i % 2, c + 0.1, c + 0.2, c - 0.1)
        })
        .collect();
    db.execute(&format!("INSERT INTO docs VALUES {}", values.join(", "))).expect("insert");
    db.execute(
        "SELECT id FROM docs WHERE label = 'l0' \
         ORDER BY L2Distance(emb, [0.1, 0.2, 0.3, 0.0]) LIMIT 5",
    )
    .expect("vector query");
    // The dialect of the system tables is the data tables' own: an alias, a
    // two-key ORDER BY and aggregates on `docs`.
    let agg = rows(
        &db,
        "SELECT count(*) AS n, min(id) AS lo, max(id) AS hi FROM docs \
         WHERE label = 'l1' ORDER BY label, id DESC LIMIT 1",
    );
    assert_eq!(agg, [vec![Value::UInt64(150), Value::UInt64(1), Value::UInt64(299)]], "{agg:?}");
    let err = db.execute("SELECT id FROM missing_table").expect_err("query must fail");
    println!("expected failure captured: {err}");

    // 1. The acceptance query: slowest five statements with stage latencies.
    let log = rows(
        &db,
        "SELECT query_id, kind, sql, duration_ns, exec_ns, result_rows, error_code \
         FROM system.query_log ORDER BY duration_ns DESC LIMIT 5",
    );
    assert!(log.len() >= 4, "query log has only {} records", log.len());
    assert!(
        log.windows(2).all(|w| cell_u64(&w[0][3]) >= cell_u64(&w[1][3])),
        "query log not sorted by duration: {log:?}"
    );
    let errored = rows(
        &db,
        "SELECT sql, error_code FROM system.query_log WHERE error_code = 'NOT_FOUND'",
    );
    assert_eq!(errored.len(), 1, "expected exactly one NOT_FOUND row: {errored:?}");
    println!("system.query_log: {} records, 1 error row", log.len());

    // 2. The slow-query policy retained span trees queryable via system.spans.
    let traced = rows(
        &db,
        "SELECT query_id FROM system.query_log \
         WHERE traced = 1 AND kind = 'select' AND error_code = '' \
         ORDER BY duration_ns DESC LIMIT 1",
    );
    assert!(!traced.is_empty(), "no select statement was trace-captured");
    let qid = cell_u64(&traced[0][0]);
    let spans =
        rows(&db, &format!("SELECT span_id, name, duration_ns FROM system.spans WHERE query_id = {qid}"));
    assert!(!spans.is_empty(), "query {qid} captured no spans");
    println!("system.spans: query {qid} retained {} spans", spans.len());

    // 3. The chrome://tracing export is non-trivial and names the query.
    let export = match &rows(&db, "SYSTEM TRACE EXPORT")[0][0] {
        Value::Str(s) => s.clone(),
        other => panic!("export cell is not a string: {other:?}"),
    };
    assert!(export.contains("\"traceEvents\""), "export missing traceEvents");
    assert!(export.contains("\"ph\":\"X\""), "export has no complete events");
    assert!(export.contains(&format!("\"pid\":{qid},")), "export missing query {qid}");
    println!("SYSTEM TRACE EXPORT: {} bytes", export.len());

    // 4. Live telemetry tables: metrics (with SLO histograms), caches,
    //    segments, lock classes.
    let slo = rows(
        &db,
        "SELECT name, value FROM system.metrics \
         WHERE name = 'query.slo{kind=\"select\"}.count'",
    );
    assert_eq!(slo.len(), 1, "missing select-kind SLO histogram: {slo:?}");
    let agg = rows(&db, "SELECT count(*) AS n FROM system.metrics WHERE kind = 'counter'");
    assert!(cell_u64(&agg[0][0]) > 10, "too few counters: {agg:?}");
    let caches = rows(&db, "SELECT cache, used_bytes, hits FROM system.caches");
    assert!(!caches.is_empty(), "system.caches is empty");
    let segments = rows(&db, "SELECT segment_id, rows, resident_workers FROM system.segments WHERE rows > 0");
    assert!(segments.len() > 2, "expected several segments: {segments:?}");
    let locks = rows(&db, "SELECT name, rank FROM system.lock_classes ORDER BY rank");
    assert!(locks.len() > 10, "lock class table too small: {locks:?}");
    println!(
        "system.caches/segments/lock_classes: {}/{}/{} rows ok",
        caches.len(),
        segments.len(),
        locks.len()
    );
    println!("system tables smoke OK");
}
