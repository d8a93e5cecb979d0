//! Deterministic work counts of the warm statement path (ROADMAP aim 1): a
//! warm `point_topk`-shaped statement pays for topology once, for threads
//! never, and for exactly one index-cache lookup per segment it searches
//! through an index.
//!
//! This is the only test in the file on purpose: it reads the process's
//! thread count, which other tests running in the same binary would disturb.

use bh_storage::table::TableStoreConfig;
use bh_vector::SearchParams;
use blendhouse::{Database, DatabaseConfig, QueryOptions};

const SEGMENTS: usize = 32;
const ROWS_PER_SEGMENT: usize = 128;
const DIM: usize = 32;

/// Hash-scattered coordinate in `[0, 10)`: no two rows tie at a k-th distance.
fn coord(i: usize, d: usize) -> String {
    let h = ((i * DIM + d) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    format!("{:.4}", h as f32 / (1u64 << 24) as f32 * 10.0)
}

/// The `Threads:` line of `/proc/self/status`, where there is one.
fn os_thread_count() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find(|l| l.starts_with("Threads:")).map(str::to_string)
}

#[test]
fn thousand_warm_statements_walk_no_ring_start_no_thread_and_look_up_each_index_once() {
    let db = Database::new(DatabaseConfig {
        table: TableStoreConfig { segment_max_rows: ROWS_PER_SEGMENT, ..Default::default() },
        ..Default::default()
    });
    db.execute(&format!(
        "CREATE TABLE t (id UInt64, x Int64, emb Array(Float32), \
         INDEX ann emb TYPE HNSW('DIM={DIM}')) ORDER BY id"
    ))
    .unwrap();
    for seg in 0..SEGMENTS {
        let rows: Vec<String> = (seg * ROWS_PER_SEGMENT..(seg + 1) * ROWS_PER_SEGMENT)
            .map(|i| {
                let v: Vec<String> = (0..DIM).map(|d| coord(i, d)).collect();
                format!("({i}, {}, [{}])", i % 100, v.join(", "))
            })
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
    }
    assert_eq!(db.table("t").unwrap().segments().len(), SEGMENTS);
    assert_eq!(db.preload("t", "default").unwrap(), SEGMENTS);

    let opts = QueryOptions {
        search: SearchParams::default().with_ef(16),
        intra_query_parallelism: 2,
        ..db.default_options()
    };
    // Two pure top-k statements, then a filtered one, like `point_topk`.
    let statement = |q: usize| {
        let v: Vec<String> = (0..DIM).map(|d| coord(1_000_000 + q, d)).collect();
        let filter = if q % 3 == 2 { "WHERE x BETWEEN 20 AND 49 " } else { "" };
        format!("SELECT id, x FROM t {filter}ORDER BY L2Distance(emb, [{}]) LIMIT 10", v.join(", "))
    };
    let counter = |name: &str| db.metrics().counter_value(name);

    // The first statements of each shape resolve every segment's owner and
    // start the helper; from then on the path is warm.
    for q in 0..3 {
        assert_eq!(db.execute_with(&statement(q), &opts).unwrap().rows().len(), 10);
    }
    let walks = counter("vw.ring_assigns");
    let started = counter("query.fanout.threads_started");
    let threads = os_thread_count();
    let index_plans = || {
        ["pre_filter", "post_filter", "filtered_traversal"]
            .map(|p| counter(&format!("query.plan.{p}")))
            .iter()
            .sum::<u64>()
    };
    let cache_counters = ["cache.index.mem.hit", "cache.index.mem.miss", "query.index_prefetches"];
    let before = (index_plans(), counter("query.plan.brute_force"), cache_counters.map(counter));
    assert_eq!(counter("query.batch_size"), 3, "every SELECT is a batch of one");
    assert!(walks >= SEGMENTS as u64, "cold lookups walk the ring: {walks}");
    let spare_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) - 1;
    assert_eq!(
        started,
        spare_cores.min(1) as u64,
        "one helper at parallelism 2, if a core is spare"
    );

    for q in 3..1003 {
        assert_eq!(db.execute_with(&statement(q), &opts).unwrap().rows().len(), 10);
    }
    assert_eq!(counter("vw.ring_assigns"), walks, "a warm statement never walks the ring");
    assert_eq!(counter("query.fanout.threads_started"), started, "nor starts a thread");
    assert_eq!(os_thread_count(), threads, "the OS agrees");
    assert_eq!(
        counter("query.fanout.caller_tasks") + counter("query.fanout.helper_tasks"),
        counter("query.parallel_segments"),
        "every fanned-out segment ran on the caller or on a helper"
    );
    assert_eq!(counter("query.parallel_segments"), 1003 * SEGMENTS as u64);
    assert_eq!(counter("query.batch_size"), 1003);

    // One index-cache lookup per (statement, segment) whose plan reads the
    // index — the segment task's pin replaces the lookup a search would
    // make, it does not add one — and none for Plan A; nothing is cold.
    let through_index = index_plans() - before.0;
    assert_eq!(through_index + counter("query.plan.brute_force") - before.1, 1000);
    let moved: Vec<u64> =
        cache_counters.iter().zip(before.2).map(|(c, b)| counter(c) - b).collect();
    assert_eq!(moved, [through_index * SEGMENTS as u64, 0, 0]);
}
