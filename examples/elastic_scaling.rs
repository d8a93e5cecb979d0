//! Elastic scaling walk-through: the disaggregated-architecture features of
//! §II — stateless virtual warehouses, multi-probe consistent hashing,
//! cache-aware preload, scale-up without brute-force fallbacks, and
//! query-level retry on worker failure.
//!
//! Run with: `cargo run --release -p blendhouse-examples --bin elastic_scaling`

use bh_bench::datasets::DatasetSpec;
use bh_bench::setup::{build_database, TableOptions};
use blendhouse::{DatabaseConfig, QueryOptions};

fn main() {
    let data = DatasetSpec::tiny().generate();
    let mut cfg = DatabaseConfig { default_workers: 1, ..Default::default() };
    cfg.table.segment_max_rows = 64; // many segments → visible redistribution
    let db = build_database(&data, cfg, &TableOptions::default());
    let table = db.table("bench").unwrap();
    let vw = db.default_vw();
    println!(
        "table has {} segments; VW starts with {} worker",
        table.segment_count(),
        vw.worker_count()
    );

    // Cache-aware preload: indexes land on the workers the hash ring maps
    // them to — the same mapping queries will use.
    let loaded = db.preload("bench", "default").unwrap();
    println!("preloaded {loaded} per-segment indexes");

    let sql = {
        let q: Vec<String> = data.queries(1, 3)[0].iter().map(|v| v.to_string()).collect();
        format!(
            "SELECT id, dist FROM bench ORDER BY L2Distance(emb, [{}]) AS dist LIMIT 5",
            q.join(", ")
        )
    };
    // The walk-through is about where indexes live; a table this small the
    // optimizer would simply scan (Plan A), so the statements ask for the
    // index plan.
    let opts = QueryOptions {
        forced_strategy: Some(bh_query::Strategy::PostFilter),
        ..db.default_options()
    };
    let search = || db.execute_with(&sql, &opts).unwrap().rows();
    let baseline = search();
    println!("query over 1 worker returns {} rows", baseline.len());

    // Scale out. A statement that finds a moved segment cold on its new
    // owner starts that index's transfer together with the others it needs.
    // While a transfer is on its way the segment's previous owner answers
    // over the serving RPC (passing the segment list lets the VW remember
    // it); once it has arrived the new owner answers from the full index —
    // never by brute force. (This database charges no latency, so every
    // transfer has arrived at once and nothing needs serving.)
    let segments = table.segments();
    for _ in 0..3 {
        vw.scale_up(&segments);
    }
    println!("scaled to {} workers", vw.worker_count());
    let assignment = vw.assign(&segments);
    for (wid, segs) in &assignment {
        println!("  {wid}: {} segments", segs.len());
    }
    let after = search();
    assert_eq!(baseline.rows, after.rows, "scaling must not change results");
    let prefetched = db.metrics().counter_value("query.index_prefetches");
    let brute = db.metrics().counter_value("worker.brute_force");
    println!(
        "post-scaling query served identically (overlapped index loads: {prefetched}, brute-force fallbacks: {brute})"
    );

    // Fault tolerance: kill a worker mid-flight; queries retry on the
    // shrunken topology (§II-E).
    let victim = vw.worker_ids()[0];
    vw.inject_failure(victim).unwrap();
    println!("\ninjected failure on {victim}");
    let recovered = search();
    assert_eq!(baseline.rows, recovered.rows);
    println!(
        "query retried and succeeded; VW now has {} workers (retries: {})",
        vw.worker_count(),
        db.metrics().counter_value("vw.query_retries")
    );

    // Scale back down: consistent hashing moves only the evicted worker's
    // segments.
    let before = vw.assign(&table.segments());
    let leaving = vw.worker_ids()[0];
    vw.scale_down(leaving, &table.segments()).unwrap();
    let after_down = vw.assign(&table.segments());
    let mut moved = 0;
    let mut stayed = 0;
    for (wid, segs) in &before {
        for meta in segs {
            let now = after_down
                .iter()
                .find(|(_, g)| g.iter().any(|m| m.id == meta.id))
                .map(|(w, _)| *w);
            if *wid == leaving || now != Some(*wid) {
                moved += 1;
            } else {
                stayed += 1;
            }
        }
    }
    println!(
        "\nscale-down: {moved} segments moved, {stayed} stayed put (minimal movement property)"
    );
    let final_rows = search();
    assert_eq!(baseline.rows, final_rows.rows);
    println!("results stable across the whole scaling lifecycle");
}
