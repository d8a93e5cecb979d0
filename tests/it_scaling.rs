//! Scaling integration: consistent-hash stability, cache-aware preload,
//! moved segments across topology changes, and result stability through an
//! entire scale-out/scale-in cycle.

use bh_bench::datasets::DatasetSpec;
use bh_bench::setup::{build_database, TableOptions};
use bh_bench::workloads::vector_search;
use bh_common::{DeploymentLatencies, LatencyModel};
use blendhouse::{Database, DatabaseConfig, QueryOptions, QueryOutput};
use std::time::Duration;

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

/// Fig. 4 through `Database::execute`, on the virtual clock: preload → scale
/// up → a statement → the clock passes the transfers → the statement again.
/// Serve first, wait second: with serving on, the first statement costs no
/// blob get — every moved segment is searched on its previous owner while the
/// new owner's transfer runs — and the second consumes the arrived transfers;
/// with serving off the first statement waits them out. Never brute force,
/// and always the rows of a database that stayed warm.
#[test]
fn moved_segments_are_served_first_and_waited_for_second() {
    let data = DatasetSpec::tiny().generate();
    let sql = vector_search(&data, 1, 8, 1)[0].to_sql("bench", "emb");
    // A bandwidth-bound store: an index blob costs far more than the few id
    // blocks a statement reads on a worker it has never run on.
    let latencies = DeploymentLatencies {
        remote_store: LatencyModel::new(Duration::ZERO, Duration::from_micros(1)),
        local_disk: LatencyModel::ZERO,
        rpc: LatencyModel::fixed(Duration::from_micros(5)),
    };
    let build = |serving_enabled: bool| {
        let mut cfg = DatabaseConfig { latencies, default_workers: 1, ..Default::default() };
        cfg.table.segment_max_rows = 50;
        cfg.vw.serving_enabled = serving_enabled;
        let db = build_database(&data, cfg, &TableOptions::default());
        db.preload("bench", "default").unwrap();
        db
    };
    let warm = search(&build(true), &sql).rows();
    assert_eq!(warm.rows.len(), 8);

    for serving in [true, false] {
        let db = build(serving);
        let vw = db.default_vw();
        let segments = db.table("bench").unwrap().segments();
        vw.scale_up(&segments);
        let moved: Vec<_> = segments
            .iter()
            .filter(|m| !vw.owner_of(m).unwrap().1.index_resident(m))
            .map(|m| latencies.remote_store.cost(m.index_bytes as usize))
            .collect();
        let (one_get, all_arrived) = (*moved.iter().min().unwrap(), *moved.iter().max().unwrap());
        let moved = moved.len() as u64;
        let names =
            ["vw.serving_calls", "worker.brute_force", "cache.index.prefetch.hit", "remote.get"];
        // Simulated time and counter movement of one run of the statement.
        let statement = || {
            let before = names.map(|n| db.metrics().counter_value(n));
            let t0 = db.clock().now_nanos();
            assert_eq!(search(&db, &sql).rows().rows, warm.rows, "serving={serving}");
            let elapsed = Duration::from_nanos(db.clock().now_nanos() - t0);
            let after = names.map(|n| db.metrics().counter_value(n));
            (elapsed, [0, 1, 2, 3].map(|i| after[i] - before[i]))
        };

        let (elapsed, [served, brute, consumed, _]) = statement();
        assert_eq!(brute, 0, "a moved segment was brute-forced");
        if !serving {
            assert!(elapsed >= one_get, "{elapsed:?} did not wait a blob get ({one_get:?})");
            assert_eq!((served, consumed), (0, moved));
            continue;
        }
        assert!(elapsed < one_get, "{elapsed:?} waited a blob get ({one_get:?})");
        assert_eq!((served, consumed), (moved, 0), "one RPC per moved segment, nothing waited");
        let logged = db
            .execute(
                "SELECT rpc_ns FROM system.query_log WHERE kind = 'select' \
                 ORDER BY query_id DESC LIMIT 1",
            )
            .unwrap()
            .rows();
        assert!(logged.rows[0][0].as_f64().unwrap() > 0.0, "the row carries its serving time");

        db.clock().advance(all_arrived);
        let (_, second) = statement();
        assert_eq!(second, [0, 0, moved, 0], "arrived transfers are consumed, nothing fetched");
    }
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
