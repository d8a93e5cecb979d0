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
