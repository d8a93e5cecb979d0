//! Comparator contracts: Milvus and pgvector are this engine under their
//! strategy restrictions (`bh_bench::setup::System`), and the restrictions
//! the paper's comparisons rest on must show through `Database`, while
//! BlendHouse must not share the comparators' failure modes.

use bh_bench::datasets::{Dataset, DatasetSpec};
use bh_bench::setup::{mean_recall, System, TableOptions};
use bh_bench::workloads::{filtered_search, ground_truth, HybridQuery};
use bh_vector::SearchParams;
use blendhouse::{DatabaseConfig, Strategy};

fn load(sys: System, data: &Dataset) -> blendhouse::Database {
    sys.load(data, DatabaseConfig::default(), &TableOptions::default())
}

/// Mean recall of `sys` over `queries` at beam width `ef`.
fn recall(sys: System, data: &Dataset, queries: &[HybridQuery], ef: usize) -> f64 {
    let db = load(sys, data);
    let search = SearchParams::default().with_ef(ef);
    let stmts: Vec<_> = queries.iter().map(|q| sys.prepare(&db, data, None, q, search)).collect();
    let truths: Vec<_> = queries.iter().map(|q| ground_truth(data, q, None)).collect();
    mean_recall(&db, &stmts, &truths)
}

#[test]
fn all_three_systems_agree_on_easy_queries() {
    let data = DatasetSpec::tiny().generate();
    let queries = filtered_search(&data, 6, 5, 0.9, 1);
    for sys in System::ALL {
        let r = recall(sys, &data, &queries, 128);
        assert!(r >= 0.8, "{}: recall {r}", sys.name());
    }
}

#[test]
fn pgvector_collapses_where_blendhouse_does_not() {
    // The central Fig. 9 contrast: a filter passing ~2% of rows.
    let data = DatasetSpec::tiny().generate();
    let queries: Vec<_> = filtered_search(&data, 6, 5, 0.02, 2)
        .into_iter()
        .filter(|q| !ground_truth(&data, q, None).is_empty())
        .collect();
    assert!(!queries.is_empty());
    let bh = recall(System::BlendHouse, &data, &queries, 64);
    let pg = recall(System::Pgvector, &data, &queries, 64);
    assert!(bh >= 0.95, "BlendHouse recall {bh}");
    assert!(pg < 0.6, "pgvector's single-shot post-filter should collapse, got {pg}");
}

#[test]
fn milvus_brute_force_rule_gives_exact_results_on_tiny_candidate_sets() {
    let data = DatasetSpec::tiny().generate();
    let db = load(System::Milvus, &data);
    // A filter passing ~2% of uniform [0, 1e6) → the rule-based fallback.
    let q = HybridQuery {
        vector: data.queries(1, 4).remove(0),
        ranges: vec![("x".into(), 0, 20_000)],
        regex: None,
        similarity_floor: None,
        k: 10,
    };
    let stmt = System::Milvus.prepare(&db, &data, None, &q, SearchParams::default().with_ef(16));
    assert_eq!(stmt.opts.forced_strategy, Some(Strategy::BruteForce));
    // Exact against a manual scan.
    let mut expect: Vec<(f32, u64)> = (0..data.n())
        .filter(|&i| (0..=20_000).contains(&data.rand_int[i]))
        .map(|i| (bh_vector::distance::l2_sq(&q.vector, data.vector(i)), i as u64))
        .collect();
    expect.sort_by(|a, b| a.0.total_cmp(&b.0));
    let expect_ids: Vec<u64> = expect.iter().take(10).map(|&(_, i)| i).collect();
    assert_eq!(stmt.run(&db), expect_ids);
    // A bitmap of ≥ 64·k rows keeps Milvus on its filtered index search
    // (~450 rows pass, k = 5), and no filter on the plain beam search.
    let wide = HybridQuery { ranges: vec![("x".into(), 0, 900_000)], k: 5, ..q.clone() };
    let stmt = System::Milvus.prepare(&db, &data, None, &wide, SearchParams::default());
    assert_eq!(stmt.opts.forced_strategy, Some(Strategy::PreFilter));
    let open = HybridQuery { ranges: Vec::new(), ..q };
    let stmt = System::Milvus.prepare(&db, &data, None, &open, SearchParams::default());
    assert_eq!(stmt.opts.forced_strategy, Some(Strategy::PostFilter));
}

#[test]
fn baseline_ingest_invariants() {
    // Enough rows for Milvus to seal several segments.
    let data = DatasetSpec { name: "small", n: 4_500, dim: 8, clusters: 4, seed: 1 }.generate();
    for (sys, segments) in [(System::Milvus, data.n().div_ceil(2048)), (System::Pgvector, 1)] {
        let db = load(sys, &data);
        let rs = db.execute("SELECT rows FROM system.segments").unwrap().rows();
        assert_eq!(rs.len(), segments, "{} segments", sys.name());
        let rows: u64 = rs
            .column_values("rows")
            .unwrap()
            .into_iter()
            .map(|v| match v {
                bh_storage::value::Value::UInt64(n) => n,
                other => panic!("rows is {other}"),
            })
            .sum();
        assert_eq!(rows, data.n() as u64, "{} rows", sys.name());
    }
}
