//! End-to-end integration: the full Example-1 lifecycle through the SQL
//! front door — DDL with every clause, CSV and VALUES ingest, hybrid
//! queries, EXPLAIN-able plans, and result correctness across the stack.

use blendhouse::{Database, QueryOutput, Value};

fn setup() -> Database {
    let db = Database::in_memory();
    db.execute(
        "CREATE TABLE images (
           id UInt64,
           label String,
           published_time DateTime,
           embedding Array(Float32),
           INDEX ann_idx embedding TYPE HNSW('DIM=8', 'M=16')
         )
         ORDER BY published_time
         PARTITION BY label
         CLUSTER BY embedding INTO 4 BUCKETS",
    )
    .unwrap();
    let mut values = Vec::new();
    for i in 0..1200u64 {
        let label = ["animal", "plant", "city"][i as usize % 3];
        let c = (i % 4) as f32 * 5.0 + (i as f32) * 1e-4;
        let emb: Vec<String> = (0..8).map(|d| format!("{}", c + d as f32 * 0.01)).collect();
        values.push(format!(
            "({i}, '{label}', {}, [{}])",
            1_700_000_000 + i * 3_600,
            emb.join(", ")
        ));
    }
    db.execute(&format!("INSERT INTO images VALUES {}", values.join(", "))).unwrap();
    db
}

#[test]
fn full_lifecycle_create_insert_query() {
    let db = setup();
    let table = db.table("images").unwrap();
    assert_eq!(table.visible_rows(), 1200);
    assert!(table.segment_count() >= 3, "partitioned into multiple segments");
    assert!(table.clusterer().is_some(), "CLUSTER BY trained a clusterer");

    // Pure vector top-k.
    let rs = db
        .execute(
            "SELECT id, dist FROM images \
             ORDER BY L2Distance(embedding, [5.0, 5.01, 5.02, 5.03, 5.04, 5.05, 5.06, 5.07]) \
             AS dist LIMIT 7",
        )
        .unwrap()
        .rows();
    assert_eq!(rs.len(), 7);
    for row in &rs.rows {
        let Value::UInt64(id) = row[0] else { panic!() };
        assert_eq!(id % 4, 1, "nearest rows come from cluster 1");
    }
    // Distances ascending.
    let d = rs.column_values("dist").unwrap();
    for w in d.windows(2) {
        assert!(w[0].as_f64().unwrap() <= w[1].as_f64().unwrap());
    }
}

#[test]
fn hybrid_query_with_datetime_and_label() {
    let db = setup();
    let rs = db
        .execute(
            "SELECT id, label, published_time FROM images \
             WHERE label = 'animal' AND published_time >= '2023-11-15 00:00:00' \
             ORDER BY L2Distance(embedding, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]) \
             LIMIT 10",
        )
        .unwrap()
        .rows();
    assert!(!rs.is_empty());
    let cutoff = 1_700_006_400; // 2023-11-15 00:00:00 UTC
    for row in &rs.rows {
        assert_eq!(row[1], Value::Str("animal".into()));
        let Value::DateTime(ts) = row[2] else { panic!() };
        assert!(ts >= cutoff, "datetime filter violated: {ts}");
    }
}

#[test]
fn csv_ingest_matches_values_ingest() {
    let db = Database::in_memory();
    db.execute(
        "CREATE TABLE t (id UInt64, name String, emb Array(Float32), \
         INDEX i emb TYPE FLAT('DIM=2'))",
    )
    .unwrap();
    let path = std::env::temp_dir()
        .join(format!("bh-{}-csv_ingest_matches_values_ingest.csv", std::process::id()));
    std::fs::write(&path, "1,alpha,[1.0, 0.0]\n2,beta,[0.0, 1.0]\n3,gamma,[1.0, 1.0]\n")
        .unwrap();
    let out = db.execute(&format!("INSERT INTO t CSV INFILE '{}'", path.display()));
    std::fs::remove_file(&path).unwrap();
    assert_eq!(out.unwrap(), QueryOutput::Affected(3));
    let rs = db
        .execute("SELECT name FROM t ORDER BY L2Distance(emb, [0.1, 0.9]) LIMIT 1")
        .unwrap()
        .rows();
    assert_eq!(rs.rows[0][0], Value::Str("beta".into()));
}

#[test]
fn distance_range_queries_through_sql() {
    let db = setup();
    // All of cluster 0 (300 rows, jittered) lies within ~0.5 of its center.
    let rs = db
        .execute(
            "SELECT id FROM images \
             WHERE L2Distance(embedding, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07]) < 1.0 \
             ORDER BY L2Distance(embedding, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07]) \
             LIMIT 1000",
        )
        .unwrap()
        .rows();
    assert_eq!(rs.len(), 300);
    for row in &rs.rows {
        let Value::UInt64(id) = row[0] else { panic!() };
        assert_eq!(id % 4, 0);
    }
}

#[test]
fn error_paths_are_clean() {
    let db = setup();
    // Unknown table / column / bad dimension / missing limit.
    assert!(db.execute("SELECT * FROM missing LIMIT 1").is_err());
    assert!(db.execute("SELECT nope FROM images LIMIT 1").is_err());
    assert!(db
        .execute("SELECT id FROM images ORDER BY L2Distance(embedding, [1.0]) LIMIT 1")
        .is_err());
    assert!(db
        .execute("SELECT id FROM images ORDER BY L2Distance(embedding, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])")
        .is_err());
    // The database stays usable after errors.
    assert!(db.execute("SELECT id FROM images LIMIT 1").is_ok());
}

/// A component that overflows `f32` used to be stored as `+inf`, and a
/// query with one ranked rows by NaN distances. Both are errors now, on
/// every index kind, through SQL and through `insert_rows`.
#[test]
fn non_finite_vector_components_are_errors() {
    for kind in ["IVFPQFS", "HNSW"] {
        let db = Database::in_memory();
        db.execute(&format!(
            "CREATE TABLE t (id UInt64, emb Array(Float32), \
             INDEX ann emb TYPE {kind}('DIM=4')) ORDER BY id"
        ))
        .unwrap();
        let rows: Vec<String> =
            (0..10).map(|i| format!("({i}, [{}.0, 1.0, 1.0, 2.0])", i % 3)).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();

        let err = db.execute("INSERT INTO t VALUES (10, [1e39, 1.0, 1.0, 2.0])").unwrap_err();
        assert!(err.to_string().contains("column emb component 0"), "{kind}: {err}");
        let store = db.table("t").unwrap();
        let bad = vec![Value::UInt64(11), Value::Vector(vec![1.0, f32::NAN, 1.0, 2.0])];
        let err = store.insert_rows(vec![bad]).unwrap_err();
        assert!(err.to_string().contains("column emb component 1"), "{kind}: {err}");

        let err = db
            .execute("SELECT id FROM t ORDER BY L2Distance(emb, [1e39, 1.0, 1.0, 2.0]) LIMIT 3")
            .unwrap_err();
        assert!(err.to_string().contains("component 0"), "{kind}: {err}");
        let stored = db.execute("SELECT id FROM t LIMIT 100").unwrap().rows();
        assert_eq!(stored.len(), 10, "{kind}: nothing was stored");
    }
}

#[test]
fn concurrent_reads_and_writes_are_safe() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let db = Arc::new(setup());
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    // Readers hammer hybrid queries while a writer streams inserts and a
    // third thread updates + compacts — every operation must stay correct
    // and panic-free under concurrency.
    for r in 0..3 {
        let db = db.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut n = 0;
            while !stop.load(Ordering::Relaxed) {
                let c = (r % 4) as f32 * 5.0;
                let rs = db
                    .execute(&format!(
                        "SELECT id FROM images WHERE label = 'animal' \
                         ORDER BY L2Distance(embedding, [{c}, {c}, {c}, {c}, {c}, {c}, {c}, {c}]) \
                         LIMIT 5"
                    ))
                    .unwrap()
                    .rows();
                assert!(rs.len() <= 5);
                n += 1;
            }
            n
        }));
    }
    {
        let db = db.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut id = 1_000_000u64;
            while !stop.load(Ordering::Relaxed) {
                db.execute(&format!(
                    "INSERT INTO images VALUES ({id}, 'animal', 1700000000, \
                     [9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0])"
                ))
                .unwrap();
                id += 1;
            }
            (id - 1_000_000) as usize
        }));
    }
    {
        let db = db.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut n = 0;
            while !stop.load(Ordering::Relaxed) {
                db.execute("UPDATE images SET label = 'city' WHERE id = 3").unwrap();
                db.compact("images").unwrap();
                n += 1;
            }
            n
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(500));
    stop.store(true, Ordering::Relaxed);
    let work: usize = handles.into_iter().map(|h| h.join().expect("no panics")).sum();
    assert!(work > 0, "threads made progress");
    // The table is consistent afterwards.
    let table = db.table("images").unwrap();
    let rs = db.execute("SELECT id FROM images WHERE id = 3 LIMIT 10").unwrap().rows();
    assert_eq!(rs.len(), 1, "exactly one visible version of the updated row");
    assert!(table.visible_rows() >= 1200);
}

#[test]
fn results_consistent_across_strategies_and_vws() {
    let db = setup();
    db.create_vw("reader", 3);
    db.preload("images", "reader").unwrap();
    let sql = "SELECT id FROM images WHERE label = 'plant' \
               ORDER BY L2Distance(embedding, [10.0, 10.01, 10.02, 10.03, 10.04, 10.05, 10.06, 10.07]) \
               LIMIT 6";
    let default_rows = db.execute(sql).unwrap().rows();
    let reader_rows = db.query_on_vw("reader", sql, &db.default_options()).unwrap();
    assert_eq!(default_rows.rows, reader_rows.rows, "VW choice must not change results");
    for strategy in [
        blendhouse::Strategy::BruteForce,
        blendhouse::Strategy::PreFilter,
        blendhouse::Strategy::PostFilter,
        blendhouse::Strategy::FilteredTraversal,
    ] {
        let opts = blendhouse::QueryOptions {
            forced_strategy: Some(strategy),
            ..db.default_options()
        };
        let rs = db.execute_with(sql, &opts).unwrap().rows();
        assert_eq!(rs.rows, default_rows.rows, "{strategy:?} differs");
    }
}

/// `TYPE FLAT` declares a table's vector column and metric and no index
/// structure: INSERT stores no index, the planner prices nothing, and every
/// plan is the exact scan of the column — filtered, ranged, past the table's
/// size and on any metric.
#[test]
fn flat_table_is_searched_exactly_from_its_column() {
    use bh_vector::Metric;
    use blendhouse::{QueryOptions, Strategy};

    let db = Database::in_memory();
    db.execute(
        "CREATE TABLE f (id UInt64, label String, emb Array(Float32), \
         INDEX i emb TYPE FLAT('DIM=2'))",
    )
    .unwrap();
    let emb = |i: u64| [(i * 37 % 101) as f32 * 0.1 + i as f32 * 1e-3, (i * 53 % 89) as f32 * 0.1];
    for part in 0..3u64 {
        let values: Vec<String> = (part * 40..(part + 1) * 40)
            .map(|i| format!("({i}, 'l{}', [{}, {}])", i % 3, emb(i)[0], emb(i)[1]))
            .collect();
        db.execute(&format!("INSERT INTO f VALUES {}", values.join(", "))).unwrap();
    }

    // Three segments, none with an index in the store or the catalog.
    let keys = db.remote_store().list("tables/f/");
    assert!(!keys.is_empty());
    assert!(keys.iter().all(|k| !k.ends_with("/index")), "{keys:?}");
    let segs = db.execute("SELECT * FROM system.segments").unwrap().rows();
    assert_eq!(segs.len(), 3);
    for v in segs.column_values("index_kind").unwrap() {
        assert_eq!(v.as_str(), Some(""));
    }
    for v in segs.column_values("index_bytes").unwrap() {
        assert_eq!(v, Value::UInt64(0));
    }

    let q = [5.0f32, 4.0];
    let explain = db
        .execute("EXPLAIN SELECT id FROM f WHERE label = 'l1' ORDER BY L2Distance(emb, [5.0, 4.0]) LIMIT 5")
        .unwrap()
        .rows();
    let text: Vec<&str> = explain.rows.iter().filter_map(|r| r[0].as_str()).collect();
    let text = text.join("\n");
    assert!(text.contains("strategy: brute-force (Plan A)"), "{text}");
    assert!(!text.contains("estimates:"), "a FLAT table is not priced: {text}");

    // The exact answer: every passing row's distance, nearest first.
    let exact = |pass: &dyn Fn(u64) -> bool, k: usize| {
        let mut all: Vec<(u64, f32)> =
            (0..120).filter(|&i| pass(i)).map(|i| (i, Metric::L2.distance(&q, &emb(i)))).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    };
    // A radius halfway between the 30th and 31st nearest rows.
    let ranked = exact(&|_| true, 120);
    let radius = (ranked[29].1 + ranked[30].1) / 2.0;
    let cases: [(String, Vec<(u64, f32)>); 5] = [
        (String::new(), exact(&|_| true, 10)),
        ("WHERE label = 'l1'".into(), exact(&|i| i % 3 == 1, 10)),
        ("WHERE id >= 1000".into(), Vec::new()),
        (format!("WHERE L2Distance(emb, [5.0, 4.0]) < {radius}"), ranked[..30].to_vec()),
        (String::new(), ranked.clone()),
    ];
    for (i, (filter, want)) in cases.iter().enumerate() {
        // LIMIT past the table's size for the range and the last case.
        let limit = if i >= 3 { 1000 } else { want.len().max(5) };
        let sql = format!(
            "SELECT id, d FROM f {filter} ORDER BY L2Distance(emb, [5.0, 4.0]) AS d LIMIT {limit}"
        );
        for strategy in Strategy::ALL {
            let opts = QueryOptions { forced_strategy: Some(strategy), ..db.default_options() };
            // No index to plan over: a forced plan runs the scan, and says so.
            let explain = db.execute_with(&format!("EXPLAIN {sql}"), &opts).unwrap().rows();
            let said: Vec<&str> = explain.rows.iter().filter_map(|r| r[0].as_str()).collect();
            assert!(said.contains(&"strategy: brute-force (Plan A)"), "{strategy:?}: {said:?}");
            let rs = db.execute_with(&sql, &opts).unwrap().rows();
            let logged = db.query_log().records().last().unwrap().strategy;
            assert_eq!(logged, "brute_force", "{strategy:?}: {sql}");
            let got: Vec<(u64, f32)> = rs
                .rows
                .iter()
                .map(|r| match (&r[0], r[1].as_f64()) {
                    (Value::UInt64(id), Some(d)) => (*id, d as f32),
                    other => panic!("{other:?}"),
                })
                .collect();
            let bits =
                |v: &[(u64, f32)]| v.iter().map(|(i, d)| (*i, d.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(want), "{strategy:?}: {sql}");
        }
    }

    // Inner product ranks by the largest dot product.
    db.execute(
        "CREATE TABLE g (id UInt64, emb Array(Float32), \
         INDEX i emb TYPE FLAT('DIM=2', 'METRIC=IP'))",
    )
    .unwrap();
    db.execute("INSERT INTO g VALUES (0, [1.0, 0.0]), (1, [10.0, 0.0]), (2, [5.0, 0.0])").unwrap();
    for strategy in Strategy::ALL {
        let opts = QueryOptions { forced_strategy: Some(strategy), ..db.default_options() };
        let rs = db
            .execute_with("SELECT id FROM g ORDER BY IPDistance(emb, [1.0, 0.0]) LIMIT 3", &opts)
            .unwrap()
            .rows();
        let ids: Vec<Value> = rs.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, [1, 2, 0].map(Value::UInt64), "{strategy:?}");
    }

    // A query vector of the wrong dimension is an error, not a scan.
    for sql in [
        "SELECT id FROM f ORDER BY L2Distance(emb, [0.0, 0.0, 0.0]) LIMIT 1",
        "SELECT id FROM f WHERE L2Distance(emb, [0.0]) < 1.0 LIMIT 10",
    ] {
        assert!(db.execute(sql).is_err(), "{sql}");
    }
}
