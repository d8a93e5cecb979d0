//! Scaling integration: consistent-hash stability, cache-aware preload,
//! moved segments across topology changes, and result stability through an
//! entire scale-out/scale-in cycle.

use bh_bench::datasets::DatasetSpec;
use bh_bench::setup::{build_database, TableOptions};
use bh_bench::workloads::vector_search;
use blendhouse::{Database, DatabaseConfig, QueryOptions, QueryOutput};

fn db_with_segments() -> (blendhouse::Database, Vec<String>) {
    let data = DatasetSpec::tiny().generate();
    let mut cfg = DatabaseConfig { default_workers: 1, ..Default::default() };
    cfg.table.segment_max_rows = 50;
    let db = build_database(&data, cfg, &TableOptions::default());
    let sqls = vector_search(&data, 4, 8, 1)
        .iter()
        .map(|q| q.to_sql("bench", "emb"))
        .collect();
    (db, sqls)
}

/// Run one search through its segment indexes: these tests are about where
/// indexes live as the topology changes, and on a table this small the
/// optimizer would scan the raw column (Plan A) and never touch one.
fn search(db: &Database, sql: &str) -> QueryOutput {
    let opts = QueryOptions {
        forced_strategy: Some(bh_query::Strategy::PostFilter),
        ..db.default_options()
    };
    db.execute_with(sql, &opts).unwrap()
}

#[test]
fn results_stable_across_scale_out_and_in() {
    let (db, sqls) = db_with_segments();
    let vw = db.default_vw();
    db.preload("bench", "default").unwrap();
    let baselines: Vec<_> = sqls.iter().map(|s| search(&db, s).rows()).collect();

    let segments = db.table("bench").unwrap().segments();
    for _ in 0..5 {
        vw.scale_up(&segments);
    }
    assert_eq!(vw.worker_count(), 6);
    for (sql, base) in sqls.iter().zip(&baselines) {
        assert_eq!(search(&db, sql).rows().rows, base.rows, "scale-out changed results");
    }

    // Scale back down to 2 workers.
    while vw.worker_count() > 2 {
        let victim = vw.worker_ids()[0];
        vw.scale_down(victim, &segments).unwrap();
    }
    for (sql, base) in sqls.iter().zip(&baselines) {
        assert_eq!(search(&db, sql).rows().rows, base.rows, "scale-in changed results");
    }
}

#[test]
fn moved_segments_are_loaded_overlapped_never_brute_forced() {
    let (db, sqls) = db_with_segments();
    let vw = db.default_vw();
    db.preload("bench", "default").unwrap();
    // Warm queries on 1 worker.
    let baselines: Vec<_> = sqls.iter().map(|s| search(&db, s).rows()).collect();
    let counter = |name: &str| db.metrics().counter_value(name);
    let before = counter("worker.brute_force");

    // Scale up step by step, querying between steps. A `Database`'s store
    // can defer, so a statement that finds a moved segment cold on its new
    // owner starts that index's transfer with all the others it needs and
    // answers from the full index (DESIGN.md §11.3) — never by brute
    // force. (On a store that cannot defer the previous owner
    // serves it via RPC, Fig. 4: `bh-cluster`'s and `bh-query`'s tests.)
    let segments = db.table("bench").unwrap().segments();
    for _ in 0..4 {
        vw.scale_up(&segments);
        for (sql, base) in sqls.iter().zip(&baselines) {
            assert_eq!(search(&db, sql).rows().rows, base.rows, "scale-up changed results");
        }
    }
    assert_eq!(counter("worker.brute_force"), before, "a moved segment was brute-forced");
    assert!(counter("query.index_prefetches") > 0, "moved segments load by overlapped transfer");
}

#[test]
fn preload_follows_the_query_schedulers_hash() {
    let (db, _) = db_with_segments();
    db.create_vw("readers", 4);
    let loaded = db.preload("bench", "readers").unwrap();
    let table = db.table("bench").unwrap();
    assert_eq!(loaded, table.segment_count());
    // Every segment is resident exactly where the ring points queries.
    let vw = db.vw("readers").unwrap();
    for (wid, segs) in vw.assign(&table.segments()) {
        let w = vw.worker(wid).unwrap();
        for meta in segs {
            assert!(w.index_resident(&meta), "{wid} missing {}", meta.id);
        }
    }
}

#[test]
fn minimal_movement_on_membership_change() {
    let (db, _) = db_with_segments();
    let vw = db.default_vw();
    let segments = db.table("bench").unwrap().segments();
    for _ in 0..3 {
        vw.scale_up(&segments);
    }
    let before = vw.assign(&segments);
    let new_worker = vw.scale_up(&segments);
    let after = vw.assign(&segments);
    // Every moved segment moved TO the new worker.
    for (wid, segs) in &before {
        for meta in segs {
            let now = after
                .iter()
                .find(|(_, g)| g.iter().any(|m| m.id == meta.id))
                .map(|(w, _)| *w)
                .unwrap();
            assert!(
                now == *wid || now == new_worker,
                "{} moved between pre-existing workers",
                meta.id
            );
        }
    }
}

#[test]
fn separate_vws_have_independent_caches() {
    let (db, sqls) = db_with_segments();
    db.create_vw("a", 2);
    db.create_vw("b", 2);
    db.preload("bench", "a").unwrap();
    // VW a answers from cache; VW b has never loaded anything.
    let opts = db.default_options();
    let ra = db.query_on_vw("a", &sqls[0], &opts).unwrap();
    let local_before = db.metrics().counter_value("worker.brute_force");
    let rb = db.query_on_vw("b", &sqls[0], &opts).unwrap();
    assert_eq!(ra.rows, rb.rows);
    // b's first pass fell back (cold) at least once — physically isolated
    // caches, matching the multi-tenancy design.
    assert!(db.metrics().counter_value("worker.brute_force") >= local_before);
}
