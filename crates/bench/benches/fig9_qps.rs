//! **Fig. 9** — QPS comparison of BlendHouse, pgvector and Milvus on
//! VectorBench-style workloads: pure vector search, hybrid with ~99% pass
//! fraction (the paper's "1% selectivity"), and hybrid with ~1% pass
//! fraction (the paper's "99% selectivity").
//!
//! Paper shape: BlendHouse wins everywhere; at a ~1% pass fraction
//! BlendHouse (via its CBO) and Milvus (via its fallback rule) brute-force
//! the few qualifying rows with full recall and very high QPS, while
//! pgvector's single-shot post-filter collapses to <10% recall.
//!
//! Every system is this engine under its own configuration and statement
//! form (`setup::System`), so all three pay the same SQL and execution
//! stack.

use bh_bench::datasets::{Dataset, DatasetSpec};
use bh_bench::harness::{measure_qps, print_table};
use bh_bench::setup::{mean_recall, System, TableOptions};
use bh_bench::workloads::{filtered_search, ground_truth, vector_search, HybridQuery};
use bh_vector::SearchParams;
use blendhouse::DatabaseConfig;
use std::time::Duration;

const K: usize = 10;
const EF: usize = 128;
const TINY_PASS: &str = "hybrid pass~1%";

fn workloads(data: &Dataset) -> Vec<(&'static str, Vec<HybridQuery>)> {
    vec![
        ("vector-search", vector_search(data, 24, K, 1)),
        ("hybrid pass~99%", filtered_search(data, 24, K, 0.99, 2)),
        (TINY_PASS, filtered_search(data, 24, K, 0.01, 3)),
    ]
}

fn main() {
    let search = SearchParams::default().with_ef(EF);
    let mut rows = Vec::new();
    for spec in [DatasetSpec::cohere_sim(), DatasetSpec::openai_sim()] {
        let data = spec.generate();
        let workloads = workloads(&data);
        let truths: Vec<Vec<_>> = workloads
            .iter()
            .map(|(_, queries)| queries.iter().map(|q| ground_truth(&data, q, None)).collect())
            .collect();
        let mut cells: Vec<Vec<String>> = workloads
            .iter()
            .map(|(wname, _)| vec![spec.name.to_string(), wname.to_string()])
            .collect();
        for sys in System::ALL {
            let db = sys.load(&data, DatabaseConfig::default(), &TableOptions::default());
            for (w, (wname, queries)) in workloads.iter().enumerate() {
                let stmts: Vec<_> =
                    queries.iter().map(|q| sys.prepare(&db, &data, None, q, search)).collect();
                let mut qi = 0;
                let qps = measure_qps(24, Duration::from_millis(600), || {
                    std::hint::black_box(stmts[qi % stmts.len()].run(&db));
                    qi += 1;
                });
                let recall = mean_recall(&db, &stmts, &truths[w]);
                println!(
                    "[fig9] {} / {wname} / {}: {qps:.0} qps (r={recall:.3})",
                    spec.name,
                    sys.name()
                );
                cells[w].push(format!("{qps:.0} (r={recall:.3})"));
                if *wname == TINY_PASS {
                    match sys {
                        System::BlendHouse => assert!(
                            recall > 0.95,
                            "BlendHouse brute-force path must keep recall, got {recall}"
                        ),
                        System::Pgvector => assert!(
                            recall < 0.5,
                            "pgvector post-filter should lose recall at tiny pass fractions, \
                             got {recall}"
                        ),
                        System::Milvus => {}
                    }
                }
            }
        }
        rows.extend(cells);
    }
    let headers: Vec<&str> =
        ["dataset", "workload"].into_iter().chain(System::ALL.map(System::name)).collect();
    print_table("Fig 9: QPS (and recall) by workload and system", &headers, &rows);
}
