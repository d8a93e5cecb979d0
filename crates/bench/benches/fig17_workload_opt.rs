//! **Fig. 17** — performance breakdown of the workload-aware optimizations
//! (§IV-C, §V-B8): baseline (no decoded caches: every block read goes to the
//! store) → +READ_Opt (the decoded-block and decoded-column caches).
//!
//! Paper shape: READ_Opt gives a large step (theirs +124%), Query_Opt (plan
//! cache + short-circuit processing) a further step (+206% total) on a
//! repetitive hybrid workload. Query_Opt has no row here: this engine
//! chooses the strategy anew for every statement from the statement's own
//! `k`, pass fraction and the table's size, so there is no plan to cache
//! (EXPERIMENTS.md, known divergences).

use bh_bench::datasets::DatasetSpec;
use bh_bench::harness::{measure_qps, print_table};
use bh_bench::setup::{build_database, TableOptions};
use bh_bench::workloads::filtered_search;
use bh_cluster::worker::WorkerConfig;
use bh_common::{DeploymentLatencies, LatencyModel};
use blendhouse::DatabaseConfig;
use std::time::Duration;

fn main() {
    let data = DatasetSpec::cohere_sim().generate();
    // A disaggregated latency profile so remote block reads have real cost.
    let latencies = DeploymentLatencies {
        remote_store: LatencyModel::new(Duration::from_micros(150), Duration::from_nanos(0)),
        rpc: LatencyModel::ZERO,
    };

    let run = |worker: WorkerConfig| {
        let mut cfg = DatabaseConfig { real_time: true, latencies, ..Default::default() };
        cfg.vw.worker = worker;
        let db = build_database(&data, cfg, &TableOptions::default());
        db.preload("bench", "default").unwrap();
        let sqls: Vec<String> = filtered_search(&data, 24, 10, 0.4, 8)
            .iter()
            .map(|q| q.to_sql("bench", "emb"))
            .collect();
        let opts = db.default_options();
        let mut qi = 0;
        measure_qps(24, Duration::from_millis(1200), || {
            std::hint::black_box(db.execute_with(&sqls[qi % sqls.len()], &opts).unwrap());
            qi += 1;
        })
    };

    // No decoded caches: every block read goes to the 150 µs store.
    let baseline = run(WorkerConfig { block_data_bytes: 0, ..Default::default() });
    let read_opt = run(WorkerConfig::default());

    let pct = |x: f64| (x / baseline - 1.0) * 100.0;
    println!("[fig17] baseline {baseline:.0} | +READ_Opt {read_opt:.0} ({:+.1}%)", pct(read_opt));
    assert!(read_opt > baseline, "READ_Opt must improve over baseline");
    print_table(
        "Fig 17: workload-aware optimization breakdown",
        &["configuration", "QPS", "vs baseline"],
        &[
            vec!["baseline".into(), format!("{baseline:.0}"), "+0.0%".into()],
            vec!["+READ_Opt".into(), format!("{read_opt:.0}"), format!("{:+.1}%", pct(read_opt))],
        ],
    );
}
