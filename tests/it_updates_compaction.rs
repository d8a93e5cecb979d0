//! Multi-version updates and compaction (Fig. 6): visibility of new
//! versions, masking of old ones, compaction convergence, and search
//! correctness throughout.

use blendhouse::{Database, Value};

fn setup(n: u64) -> Database {
    let db = Database::in_memory();
    db.execute(
        "CREATE TABLE docs (id UInt64, rev Int64, emb Array(Float32), \
         INDEX i emb TYPE HNSW('DIM=4')) ORDER BY id",
    )
    .unwrap();
    let values: Vec<String> = (0..n)
        .map(|i| {
            let c = (i % 3) as f32 * 7.0 + i as f32 * 1e-4;
            format!("({i}, 0, [{c}, {c}, {c}, {c}])")
        })
        .collect();
    db.execute(&format!("INSERT INTO docs VALUES {}", values.join(", "))).unwrap();
    db
}

#[test]
fn update_changes_search_results_immediately() {
    let db = setup(300);
    // Row 7 starts in cluster 1 (center 7.0); move it to the origin.
    db.execute("UPDATE docs SET emb = [0.1, 0.1, 0.1, 0.1], rev = 1 WHERE id = 7").unwrap();
    let rs = db
        .execute("SELECT id, rev FROM docs ORDER BY L2Distance(emb, [0.1, 0.1, 0.1, 0.1]) LIMIT 1")
        .unwrap()
        .rows();
    assert_eq!(rs.rows[0][0], Value::UInt64(7), "updated vector must be findable");
    assert_eq!(rs.rows[0][1], Value::Int64(1), "new version visible");
    // The old version must NOT appear near its previous location's top spot
    // with rev 0.
    let rs = db
        .execute("SELECT id, rev FROM docs WHERE id = 7 LIMIT 10")
        .unwrap()
        .rows();
    assert_eq!(rs.len(), 1, "exactly one visible version");
}

#[test]
fn repeated_updates_keep_single_visible_version() {
    let db = setup(100);
    for rev in 1..=5 {
        db.execute(&format!("UPDATE docs SET rev = {rev} WHERE id = 42")).unwrap();
        let rs = db.execute("SELECT rev FROM docs WHERE id = 42 LIMIT 10").unwrap().rows();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int64(rev));
    }
    let table = db.table("docs").unwrap();
    assert_eq!(table.visible_rows(), 100);
    assert!(table.version().total_deleted() >= 5);
}

#[test]
fn compaction_drops_dead_versions_and_preserves_results() {
    let db = setup(400);
    db.execute("UPDATE docs SET rev = 1 WHERE id < 100").unwrap();
    db.execute("DELETE FROM docs WHERE id >= 350").unwrap();
    let table = db.table("docs").unwrap();
    assert_eq!(table.visible_rows(), 350);
    let before = db
        .execute("SELECT id FROM docs ORDER BY L2Distance(emb, [7.0, 7.0, 7.0, 7.0]) LIMIT 10")
        .unwrap()
        .rows();

    let report = db.compact("docs").unwrap();
    assert_eq!(report.rows_dropped, 150, "100 superseded + 50 deleted");
    assert_eq!(table.version().total_deleted(), 0);
    assert_eq!(table.visible_rows(), 350);

    let after = db
        .execute("SELECT id FROM docs ORDER BY L2Distance(emb, [7.0, 7.0, 7.0, 7.0]) LIMIT 10")
        .unwrap()
        .rows();
    assert_eq!(before.rows, after.rows, "compaction must not change results");
    // Compacted segments carry fresh indexes.
    for meta in table.segments() {
        assert!(meta.level >= 1);
        assert!(meta.index_kind.is_some());
    }
}

#[test]
fn delete_everything_then_reuse_table() {
    let db = setup(50);
    assert_eq!(db.execute("DELETE FROM docs").unwrap().affected(), 50);
    let rs = db
        .execute("SELECT id FROM docs ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 5")
        .unwrap()
        .rows();
    assert!(rs.is_empty());
    db.compact("docs").unwrap();
    assert_eq!(db.table("docs").unwrap().segment_count(), 0);
    // Table accepts new data afterwards.
    db.execute("INSERT INTO docs VALUES (1000, 0, [1.0, 2.0, 3.0, 4.0])").unwrap();
    let rs = db
        .execute("SELECT id FROM docs ORDER BY L2Distance(emb, [1.0, 2.0, 3.0, 4.0]) LIMIT 1")
        .unwrap()
        .rows();
    assert_eq!(rs.rows[0][0], Value::UInt64(1000));
}

#[test]
fn updates_visible_under_every_strategy() {
    let db = setup(200);
    db.execute("UPDATE docs SET emb = [0.2, 0.2, 0.2, 0.2], rev = 9 WHERE id = 13").unwrap();
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
        let rs = db
            .execute_with(
                "SELECT id FROM docs WHERE rev = 9 \
                 ORDER BY L2Distance(emb, [0.2, 0.2, 0.2, 0.2]) LIMIT 3",
                &opts,
            )
            .unwrap()
            .rows();
        assert_eq!(rs.len(), 1, "{strategy:?}");
        assert_eq!(rs.rows[0][0], Value::UInt64(13), "{strategy:?}");
    }
}

#[test]
fn catalog_reload_after_compaction() {
    let db = setup(120);
    db.execute("DELETE FROM docs WHERE id < 20").unwrap();
    db.compact("docs").unwrap();
    let table = db.table("docs").unwrap();
    let reloaded = table.reload_from_store().unwrap();
    assert_eq!(reloaded, table.segment_count());
    assert_eq!(table.visible_rows(), 100);
}
