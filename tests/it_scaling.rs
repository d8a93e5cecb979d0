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

/// A bandwidth-bound store: an index blob costs far more than the few id
/// blocks a statement reads on a worker it has never run on.
fn serving_latencies() -> DeploymentLatencies {
    DeploymentLatencies {
        remote_store: LatencyModel::new(Duration::ZERO, Duration::from_micros(1)),
        local_disk: LatencyModel::ZERO,
        rpc: LatencyModel::fixed(Duration::from_micros(5)),
    }
}

/// The tiny dataset in 50-row segments, preloaded on a one-worker warehouse
/// behind [`serving_latencies`], and one top-8 search of it.
fn preloaded_on_one_worker(serving_enabled: bool) -> (Database, String) {
    let data = DatasetSpec::tiny().generate();
    let sql = vector_search(&data, 1, 8, 1)[0].to_sql("bench", "emb");
    let mut cfg =
        DatabaseConfig { latencies: serving_latencies(), default_workers: 1, ..Default::default() };
    cfg.table.segment_max_rows = 50;
    cfg.vw.serving_enabled = serving_enabled;
    let db = build_database(&data, cfg, &TableOptions::default());
    db.preload("bench", "default").unwrap();
    (db, sql)
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
    let (warm_db, sql) = preloaded_on_one_worker(true);
    let warm = search(&warm_db, &sql).rows();
    assert_eq!(warm.rows.len(), 8);
    let latencies = serving_latencies();

    for serving in [true, false] {
        let (db, _) = preloaded_on_one_worker(serving);
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

/// Two scale-ups with no statement between them: a segment the first one
/// moved and the second left alone is still served by the worker it moved
/// away from (the second change used to record its *current*, cold owner as
/// the previous one, and the statement waited out the blob). A segment moved
/// twice has only a cold newcomer behind it and waits; none is brute-forced.
#[test]
fn a_segment_moved_by_an_earlier_scale_up_is_served_after_a_later_one() {
    let (warm_db, sql) = preloaded_on_one_worker(true);
    let warm = search(&warm_db, &sql).rows();

    let (db, _) = preloaded_on_one_worker(true);
    let vw = db.default_vw();
    let segments = db.table("bench").unwrap().segments();
    let owners = || segments.iter().map(|m| vw.owner_of(m).unwrap().0).collect::<Vec<_>>();
    let home = owners();
    vw.scale_up(&segments);
    let first = owners();
    vw.scale_up(&segments);
    let second = owners();
    let count = |f: &dyn Fn(usize) -> bool| (0..segments.len()).filter(|&i| f(i)).count() as u64;
    let moved_once_early = count(&|i| first[i] != home[i] && second[i] == first[i]);
    let moved_once_late = count(&|i| first[i] == home[i] && second[i] != home[i]);
    let moved_twice = count(&|i| first[i] != home[i] && second[i] != first[i]);
    assert!(moved_once_early > 0, "no segment moved in the first scale-up and stayed");

    let names = ["vw.serving_calls", "worker.brute_force", "cache.index.prefetch.hit"];
    let before = names.map(|n| db.metrics().counter_value(n));
    assert_eq!(search(&db, &sql).rows().rows, warm.rows);
    let [served, brute, waited] =
        [0, 1, 2].map(|i| db.metrics().counter_value(names[i]) - before[i]);
    assert_eq!(brute, 0, "a moved segment was brute-forced");
    assert_eq!(served, moved_once_early + moved_once_late, "every once-moved segment is served");
    assert_eq!(waited, moved_twice, "only a twice-moved segment waits out its transfer");
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
