//! **Fig. 15** — QPS with the cost-based optimizer enabled vs disabled, on
//! the hybrid workload whose filter passes ~99% of rows (the paper's "1%
//! selectivity" case, §V-B6).
//!
//! Paper shape: with CBO the optimizer picks the cheap post-filter strategy;
//! without it the system defaults to pre-filter, which materializes a
//! near-full bitset per segment before searching — lower QPS.

use bh_bench::datasets::DatasetSpec;
use bh_bench::harness::{measure_qps, print_table};
use bh_bench::setup::{build_database, TableOptions};
use bh_bench::workloads::filtered_search;
use blendhouse::{DatabaseConfig, QueryOptions, Strategy};
use std::time::Duration;

fn main() {
    let data = DatasetSpec::cohere_sim().generate();
    let db = build_database(&data, DatabaseConfig::default(), &TableOptions::default());
    let sqls: Vec<String> = filtered_search(&data, 24, 10, 0.99, 4)
        .iter()
        .map(|q| q.to_sql("bench", "emb"))
        .collect();

    let run = |opts: &QueryOptions| {
        let mut qi = 0;
        measure_qps(24, Duration::from_millis(800), || {
            std::hint::black_box(db.execute_with(&sqls[qi % sqls.len()], opts).unwrap());
            qi += 1;
        })
    };

    // Every statement here is filtered, so "CBO off" is the pre-filter plan,
    // forced.
    let cbo_on = run(&db.default_options());
    let cbo_off = run(&QueryOptions {
        forced_strategy: Some(Strategy::PreFilter),
        ..db.default_options()
    });

    println!("[fig15] CBO on: {cbo_on:.0} qps | CBO off (pre-filter default): {cbo_off:.0} qps");
    assert!(
        cbo_on > cbo_off,
        "CBO should beat the pre-filter default at ~99% pass fraction"
    );
    print_table(
        "Fig 15: QPS with and without the cost-based optimizer (pass~99% filter)",
        &["configuration", "QPS"],
        &[
            vec!["CBO enabled (picks post-filter)".into(), format!("{cbo_on:.0}")],
            vec!["CBO disabled (pre-filter default)".into(), format!("{cbo_off:.0}")],
        ],
    );
}
