//! Selectivity sweep over the four filtered-search plans: forced Plan A
//! (brute force), B (pre-filter bitmap scan), C (post-filter iterative
//! widening) and D (filter-aware traversal) on a hybrid workload, at pass
//! fractions from 0.001 to 0.99.
//!
//! The table is sized for the regime the cost model routes to Plan D —
//! large top-k over a large-ish table in a few big segments (the paper's
//! production shape is top-1000 over 30M rows; scaled here to top-100 over
//! 60k). Each cell reports QPS and mean recall@k against the exact
//! filtered ground truth. Expected shape: A wins the low end (up to about
//! a fifth of the rows passing — a sequential distance is a twelfth of a
//! graph hop, DESIGN.md §14.2), C wins at the high end (the filter barely
//! bites, plain ANN + drop is enough), and D owns the band between, where
//! B used to be the only index-accelerated option — the traversal spends
//! its beam on passing rows only, B's bitmap scan widens blindly. The
//! bench asserts Plan D beats the best of A/B/C at ≥0.9 recall on at least
//! two mid-range pass fractions. Since Plan A's selective scan gathers from
//! the cached column (1.5–2.8x faster at 0.05–0.2) the 0.1–0.2 cells are
//! Plan A's and D's band is 0.3–0.5, with B, C and D within noise of each
//! other at 0.5 (DESIGN.md §14.3 has the runs): the margin this assertion
//! has left is thin, and re-anchoring the sweep is a ROADMAP item.
//!
//! Results go to `target/bench-fresh/BENCH_filter.json` in the committed
//! schema so `cargo xtask bench-diff` gates the `_qps` fields at its
//! latency threshold and the `_recall` fields exactly: data and queries are
//! seeded, so two runs of one build return the same rows.

use bh_bench::datasets::DatasetSpec;
use bh_bench::harness::{measure_qps, print_table, write_fresh_json, Timer};
use bh_bench::setup::{recall_of, result_ids, second_attr};
use bh_bench::workloads::{filtered_search, ground_truth};
use bh_storage::table::TableStoreConfig;
use bh_storage::value::Value;
use blendhouse::{Database, DatabaseConfig, QueryOptions, Strategy};
use std::time::Duration;

const SELECTIVITIES: &[f64] = &[0.001, 0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.9, 0.99];
/// The band in which Plan D has to win.
const MID_RANGE: (f64, f64) = (0.05, 0.5);
const QUERIES: usize = 16;
const K: usize = 200;

const PLANS: [(&str, Strategy); 4] = [
    ("plan_a", Strategy::BruteForce),
    ("plan_b", Strategy::PreFilter),
    ("plan_c", Strategy::PostFilter),
    ("plan_d", Strategy::FilteredTraversal),
];

fn main() {
    let spec = DatasetSpec { name: "filter-sweep", n: 60_000, dim: 64, clusters: 32, seed: 23 };
    let data = spec.generate();
    // Two 30k-row segments: the per-segment beam cost is what Plan D
    // amortizes, so segment count is part of the experiment's regime (a
    // production segment holds far more rows than the unit-test default).
    let db = Database::new(DatabaseConfig {
        table: TableStoreConfig { segment_max_rows: 30_000, ..Default::default() },
        ..Default::default()
    });
    db.execute(&format!(
        "CREATE TABLE bench (
           id UInt64, x Int64, y Int64, caption String, similarity Float64,
           emb Array(Float32),
           INDEX ann emb TYPE HNSW('DIM={}', 'M=16', 'EF_CONSTRUCTION=96')
         ) ORDER BY id",
        data.dim()
    ))
    .expect("create table");
    let t = Timer::start();
    let ys = second_attr(&data);
    let rows: Vec<Vec<Value>> = (0..data.n())
        .map(|i| {
            vec![
                Value::UInt64(i as u64),
                Value::Int64(data.rand_int[i]),
                Value::Int64(ys[i]),
                Value::Str(String::new()),
                Value::Float64(data.similarity[i]),
                Value::Vector(data.vector(i).to_vec()),
            ]
        })
        .collect();
    db.table("bench").expect("created above").insert_rows(rows).expect("ingest");
    println!("[filter_sweep] ingest + index build: {:.1}s", t.secs());

    let mut cases = Vec::new();
    let mut rows = Vec::new();
    let mut mid_wins = 0usize;
    let mut mid_total = 0usize;
    for (si, &s) in SELECTIVITIES.iter().enumerate() {
        let queries = filtered_search(&data, QUERIES, K, s, 0x5EED ^ si as u64);
        let sqls: Vec<String> = queries.iter().map(|q| q.to_sql("bench", "emb")).collect();
        let truths: Vec<_> = queries.iter().map(|q| ground_truth(&data, q, None)).collect();

        let mut qps = [0f64; 4];
        let mut recall = [0f64; 4];
        for (pi, (_, strategy)) in PLANS.iter().enumerate() {
            // The selectivity hint mirrors what the CBO hands the executor
            // from the column sketch; here we pass the true pass fraction so
            // every plan's adaptive knobs see the same (accurate) estimate.
            let opts = QueryOptions {
                forced_strategy: Some(*strategy),
                search: bh_vector::SearchParams::default()
                    .with_ef(128)
                    .with_selectivity(s as f32),
                ..db.default_options()
            };
            // Recall pass doubles as warm-up for the timed pass.
            let mut total = 0.0;
            for (sql, truth) in sqls.iter().zip(&truths) {
                let rs = db.execute_with(sql, &opts).expect("query").rows();
                total += recall_of(&result_ids(&rs), truth);
            }
            recall[pi] = total / sqls.len() as f64;
            let mut qi = 0;
            qps[pi] = measure_qps(24, Duration::from_millis(400), || {
                std::hint::black_box(db.execute_with(&sqls[qi % sqls.len()], &opts).expect("query"));
                qi += 1;
            });
        }

        let best_abc = qps[0].max(qps[1]).max(qps[2]);
        if s >= MID_RANGE.0 && s <= MID_RANGE.1 {
            mid_total += 1;
            if qps[3] > best_abc && recall[3] >= 0.9 {
                mid_wins += 1;
            }
        }

        rows.push(vec![
            format!("{s}"),
            format!("{:.0} ({:.2})", qps[0], recall[0]),
            format!("{:.0} ({:.2})", qps[1], recall[1]),
            format!("{:.0} ({:.2})", qps[2], recall[2]),
            format!("{:.0} ({:.2})", qps[3], recall[3]),
            format!("{:.2}x", qps[3] / best_abc),
        ]);
        cases.push(format!(
            "    {{ \"case\": \"s={s}\", \"selectivity\": {s}, \
             \"plan_a_qps\": {:.0}, \"plan_a_recall\": {:.3}, \
             \"plan_b_qps\": {:.0}, \"plan_b_recall\": {:.3}, \
             \"plan_c_qps\": {:.0}, \"plan_c_recall\": {:.3}, \
             \"plan_d_qps\": {:.0}, \"plan_d_recall\": {:.3} }}",
            qps[0], recall[0], qps[1], recall[1], qps[2], recall[2], qps[3], recall[3],
        ));
    }

    print_table(
        &format!(
            "filter sweep (n={}, dim={}, k={K}, 2 segments): QPS (recall@{K}) by plan",
            data.n(),
            data.dim()
        ),
        &["pass fraction", "A brute", "B pre-filter", "C post-filter", "D traversal", "D/best(ABC)"],
        &rows,
    );
    println!(
        "[filter_sweep] Plan D beats best of A/B/C at recall>=0.9 on {mid_wins}/{mid_total} \
         mid-range pass fractions"
    );
    let json = format!(
        "{{\n  \"benchmark\": \"filtered-search selectivity sweep: QPS and recall@{K} for forced Plans A (brute force), B (pre-filter bitmap), C (post-filter widening), D (filter-aware traversal)\",\n  \
         \"method\": \"crates/bench/benches/filter_sweep.rs: {} rows, dim {}, 2 segments, {QUERIES} random-int range queries per pass fraction, true pass fraction passed as the selectivity hint, ef_search 128; recall vs exact filtered ground truth; QPS = round-robin measure_qps over the query set.\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        data.n(),
        data.dim(),
        cases.join(",\n"),
    );
    // Written before the wall-clock assert below, so a run that fails it
    // still leaves the exact `*_recall` fields for `bench-diff`.
    write_fresh_json("BENCH_filter.json", &json);
    assert!(
        mid_wins >= 2,
        "Plan D should win at >=0.9 recall on at least two mid-range pass fractions, got {mid_wins}"
    );
}
