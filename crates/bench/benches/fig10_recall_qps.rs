//! **Fig. 10** — recall-vs-QPS curves of the three systems on pure vector
//! search, produced by sweeping the search beam width (`ef_search`).
//!
//! Paper shape: every system traces the usual concave recall/QPS frontier;
//! BlendHouse sits on or above the baselines across the recall range.

use bh_bench::datasets::DatasetSpec;
use bh_bench::harness::{measure_qps, print_table};
use bh_bench::setup::{mean_recall, System, TableOptions};
use bh_bench::workloads::{ground_truth, HybridQuery};
use bh_vector::SearchParams;
use blendhouse::DatabaseConfig;
use std::time::Duration;

const K: usize = 10;
const EFS: [usize; 6] = [8, 16, 32, 64, 128, 256];

fn main() {
    let spec = DatasetSpec::cohere_sim();
    let data = spec.generate();
    // Hard interpolated queries: perturbed-copy queries saturate recall at
    // tiny beams on clustered data, flattening the frontier the figure is
    // about.
    let queries: Vec<HybridQuery> = data
        .hard_queries(24, 7)
        .into_iter()
        .map(|vector| HybridQuery {
            vector,
            ranges: Vec::new(),
            regex: None,
            similarity_floor: None,
            k: K,
        })
        .collect();
    let truths: Vec<_> = queries.iter().map(|q| ground_truth(&data, q, None)).collect();

    let mut rows: Vec<Vec<String>> = EFS.iter().map(|ef| vec![ef.to_string()]).collect();
    for sys in System::ALL {
        let db = sys.load(&data, DatabaseConfig::default(), &TableOptions::default());
        for (row, &ef) in rows.iter_mut().zip(&EFS) {
            let search = SearchParams::default().with_ef(ef);
            let stmts: Vec<_> =
                queries.iter().map(|q| sys.prepare(&db, &data, None, q, search)).collect();
            let mut qi = 0;
            let qps = measure_qps(24, Duration::from_millis(400), || {
                std::hint::black_box(stmts[qi % stmts.len()].run(&db));
                qi += 1;
            });
            let recall = mean_recall(&db, &stmts, &truths);
            println!("[fig10] {} ef={ef}: {recall:.3}/{qps:.0}", sys.name());
            row.push(format!("{recall:.3}/{qps:.0}"));
        }
    }
    let headers: Vec<&str> = ["ef"].into_iter().chain(System::ALL.map(System::name)).collect();
    print_table("Fig 10: recall/QPS by ef_search (format: recall/QPS)", &headers, &rows);
}
