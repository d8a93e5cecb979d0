//! Always-on query-log overhead: end-to-end `Database::execute` latency over
//! a 64-statement hybrid workload with the log disabled, enabled (the
//! production default), and enabled with slow-query capture retaining every
//! span tree (threshold 0 — the worst case, every statement traced).
//!
//! The statement's context tallies its work whether or not the log is on; the
//! log's own hot-path cost is SQL normalization, a snapshot of that tally and
//! one ring append, so the bar is an absolute cost per statement, whatever
//! the statement itself costs: `log_cost_ns_per_stmt` (on − off) ≈ 1 µs. A
//! traced statement records its spans on its own context and hands them over
//! at completion, so slow capture is bounded against the logged statement:
//! `slow_capture_ns_per_op` ≤ 2 × `log_on_ns_per_op`. Loops are interleaved
//! within each run and the per-loop minimum kept (least-perturbed
//! observation on a shared box).
//! Results go to `target/bench-fresh/BENCH_querylog.json` in the committed
//! schema so `cargo xtask bench-diff` covers them.

use bh_bench::harness::{print_table, write_fresh_json, Timer};
use bh_common::querylog::SlowQueryPolicy;
use bh_storage::table::TableStoreConfig;
use blendhouse::{Database, DatabaseConfig};
use std::hint::black_box;

const BATCH: usize = 64;
const INTERLEAVES: usize = 7;
const RUNS: usize = 5;

fn build_db() -> Database {
    let db = Database::new(DatabaseConfig {
        table: TableStoreConfig { segment_max_rows: 64, ..Default::default() },
        ..Default::default()
    });
    db.execute(
        "CREATE TABLE docs (
           id UInt64, label String, emb Array(Float32),
           INDEX ann emb TYPE HNSW('DIM=4')
         ) ORDER BY id",
    )
    .expect("create table");
    let values: Vec<String> = (0..600)
        .map(|i| {
            let c = (i % 5) as f32 * 6.0 + i as f32 * 1e-4;
            format!("({i}, 'l{}', [{c}, {:.4}, {:.4}, {:.4}])", i % 2, c + 0.1, c + 0.2, c - 0.1)
        })
        .collect();
    db.execute(&format!("INSERT INTO docs VALUES {}", values.join(", "))).expect("insert");
    db
}

/// The batch-64 workload: cluster-centred top-k with a scalar filter every
/// third statement, matching the batch_exec hybrid mix.
fn workload() -> Vec<String> {
    (0..BATCH)
        .map(|i| {
            let c = (i % 5) as f32 * 6.0;
            let w = if i % 3 == 0 { "WHERE label = 'l0' " } else { "" };
            format!(
                "SELECT id FROM docs {w}ORDER BY \
                 L2Distance(emb, [{c}.0, {:.1}, {:.1}, {:.1}]) LIMIT {}",
                c + 0.1,
                c + 0.2,
                c - 0.1,
                1 + i % 16,
            )
        })
        .collect()
}

/// ns/query for one pass over the workload.
fn run_batch(db: &Database, sqls: &[String]) -> f64 {
    let t = Timer::start();
    for sql in sqls {
        black_box(db.execute(sql).expect("query"));
    }
    t.secs() * 1e9 / sqls.len() as f64
}

struct Run {
    log_off_ns: f64,
    log_on_ns: f64,
    capture_ns: f64,
}

fn one_run(db: &Database, sqls: &[String]) -> Run {
    let (mut off_min, mut on_min) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..INTERLEAVES {
        db.query_log().set_enabled(false);
        off_min = off_min.min(run_batch(db, sqls));
        db.query_log().set_enabled(true);
        on_min = on_min.min(run_batch(db, sqls));
    }

    // Worst-case slow capture: every statement's span tree is retained.
    db.set_slow_query_policy(Some(SlowQueryPolicy { threshold_nanos: 0, capture_errors: true }));
    let mut cap_min = f64::INFINITY;
    for _ in 0..INTERLEAVES {
        cap_min = cap_min.min(run_batch(db, sqls));
    }
    db.set_slow_query_policy(None);

    Run { log_off_ns: off_min, log_on_ns: on_min, capture_ns: cap_min }
}

fn main() {
    let db = build_db();
    let sqls = workload();
    // Warm caches and residency so every timed pass sees the same state.
    run_batch(&db, &sqls);

    let mut rows = Vec::new();
    let mut cases = Vec::new();
    for run in 1..=RUNS {
        let r = one_run(&db, &sqls);
        let log_cost_ns = r.log_on_ns - r.log_off_ns;
        let capture_ratio = r.capture_ns / r.log_on_ns;
        rows.push(vec![
            format!("{run}"),
            format!("{:.0}", r.log_off_ns),
            format!("{:.0}", r.log_on_ns),
            format!("{log_cost_ns:.0}"),
            format!("{:.0}", r.capture_ns),
            format!("{capture_ratio:.2}"),
        ]);
        cases.push(format!(
            "    {{ \"run\": {run}, \"log_off_ns_per_op\": {:.0}, \
             \"log_on_ns_per_op\": {:.0}, \"log_cost_ns_per_stmt\": {log_cost_ns:.0}, \
             \"slow_capture_ns_per_op\": {:.0}, \"slow_capture_over_log_on\": {capture_ratio:.2} }}",
            r.log_off_ns, r.log_on_ns, r.capture_ns
        ));
    }
    print_table(
        "query-log overhead on the batch-64 hybrid workload (ns/query)",
        &["run", "log off", "log on", "log cost", "slow capture", "capture / log on"],
        &rows,
    );

    let json = format!(
        "{{\n  \"benchmark\": \"query-log overhead: end-to-end Database::execute with the always-on query log off, on, and with slow-query capture retaining every span tree\",\n  \
         \"method\": \"crates/bench/benches/querylog.rs: {BATCH}-statement hybrid top-k workload (filter every 3rd statement), off/on loops interleaved {INTERLEAVES}x per run with per-loop min kept; slow capture = threshold 0, every statement traced; {RUNS} runs reported.\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        cases.join(",\n"),
    );
    write_fresh_json("BENCH_querylog.json", &json);
}
