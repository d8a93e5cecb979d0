//! Hybrid-query correctness against a brute-force oracle: every strategy,
//! every index type, filtered and unfiltered, must agree with (or closely
//! track) exhaustive ground truth on clustered data.

use bh_bench::datasets::DatasetSpec;
use bh_bench::setup::{build_database, recall_of, result_ids, second_attr, TableOptions};
use bh_bench::workloads::{filtered_search, ground_truth, laion_search, vector_search};
use blendhouse::{QueryOptions, Strategy};

#[test]
fn every_strategy_tracks_ground_truth_on_filtered_search() {
    let data = DatasetSpec::tiny().generate();
    let db = build_database(
        &data,
        blendhouse::DatabaseConfig::default(),
        &TableOptions::default(),
    );
    let queries = filtered_search(&data, 8, 10, 0.5, 1);
    for strategy in [
        Strategy::BruteForce,
        Strategy::PreFilter,
        Strategy::PostFilter,
        Strategy::FilteredTraversal,
    ] {
        let opts = QueryOptions {
            forced_strategy: Some(strategy),
            search: bh_vector::SearchParams::default().with_ef(128),
            ..db.default_options()
        };
        let mut total = 0.0;
        for q in &queries {
            let rs = db.execute_with(&q.to_sql("bench", "emb"), &opts).unwrap().rows();
            let truth = ground_truth(&data, q, None);
            total += recall_of(&result_ids(&rs), &truth);
        }
        let recall = total / queries.len() as f64;
        assert!(recall >= 0.9, "{strategy:?} recall {recall} below floor");
    }
}

#[test]
fn brute_force_strategy_is_exact() {
    let data = DatasetSpec::tiny().generate();
    let db = build_database(
        &data,
        blendhouse::DatabaseConfig::default(),
        &TableOptions::default(),
    );
    let opts = QueryOptions {
        forced_strategy: Some(Strategy::BruteForce),
        ..db.default_options()
    };
    for q in &filtered_search(&data, 10, 8, 0.3, 2) {
        let rs = db.execute_with(&q.to_sql("bench", "emb"), &opts).unwrap().rows();
        let truth = ground_truth(&data, q, None);
        assert_eq!(
            recall_of(&result_ids(&rs), &truth),
            1.0,
            "brute force must be exact for {q:?}"
        );
    }
}

#[test]
fn all_index_kinds_answer_hybrid_queries() {
    let data = DatasetSpec::tiny().generate();
    for kind in bh_vector::IndexKind::ALL.map(|k| k.name()) {
        let db = build_database(
            &data,
            blendhouse::DatabaseConfig::default(),
            &TableOptions {
                index_clause: Some(format!("{kind}('DIM={}')", data.dim())),
                ..Default::default()
            },
        );
        let opts = QueryOptions {
            search: bh_vector::SearchParams::default().with_ef(128).with_nprobe(16),
            ..db.default_options()
        };
        let q = &filtered_search(&data, 1, 5, 0.6, 3)[0];
        let rs = db.execute_with(&q.to_sql("bench", "emb"), &opts).unwrap().rows();
        let truth = ground_truth(&data, q, None);
        let recall = recall_of(&result_ids(&rs), &truth);
        assert!(recall >= 0.6, "{kind}: recall {recall} unreasonably low");
        // Filter semantics must hold exactly regardless of index.
        let (_, lo, hi) = &q.ranges[0];
        for id in result_ids(&rs) {
            let x = data.rand_int[id as usize];
            assert!(x >= *lo && x <= *hi, "{kind} returned row outside filter");
        }
    }
}

#[test]
fn multi_predicate_laion_style_queries() {
    let data = DatasetSpec::tiny().generate().with_captions();
    let db = build_database(
        &data,
        blendhouse::DatabaseConfig::default(),
        &TableOptions::default(),
    );
    let queries = laion_search(&data, 6, 5, 4);
    for q in &queries {
        let rs = db.execute(&q.to_sql("bench", "emb")).unwrap().rows();
        let truth = ground_truth(&data, q, None);
        if truth.is_empty() {
            assert!(rs.is_empty());
            continue;
        }
        // Exact filter semantics: regex + similarity floor hold on results.
        let re = bh_common::regex_lite::Regex::new(q.regex.as_ref().unwrap()).unwrap();
        for id in result_ids(&rs) {
            assert!(re.is_match(&data.captions[id as usize]));
            assert!(data.similarity[id as usize] >= q.similarity_floor.unwrap());
        }
    }
}

#[test]
fn second_attribute_conjunction() {
    let data = DatasetSpec::tiny().generate();
    let db = build_database(
        &data,
        blendhouse::DatabaseConfig::default(),
        &TableOptions::default(),
    );
    let ys = second_attr(&data);
    let mut q = vector_search(&data, 1, 10, 5)[0].clone();
    q.ranges.push(("x".into(), 0, 600_000));
    q.ranges.push(("y".into(), 200_000, 900_000));
    let rs = db.execute(&q.to_sql("bench", "emb")).unwrap().rows();
    for id in result_ids(&rs) {
        assert!((0..=600_000).contains(&data.rand_int[id as usize]));
        assert!((200_000..=900_000).contains(&ys[id as usize]));
    }
    let truth = ground_truth(&data, &q, Some(&ys));
    assert!(recall_of(&result_ids(&rs), &truth) >= 0.8);
}

#[test]
fn semantic_pruning_preserves_correctness_via_adaptive_expansion() {
    let data = DatasetSpec::tiny().generate();
    let mut cfg = blendhouse::DatabaseConfig::default();
    cfg.table.segment_max_rows = 64;
    let db = build_database(
        &data,
        cfg,
        &TableOptions {
            cluster_clause: "CLUSTER BY emb INTO 4 BUCKETS".into(),
            ..Default::default()
        },
    );
    let opts = QueryOptions {
        prune: bh_cluster::scheduler::PruneConfig {
            scalar: true,
            semantic_fraction: 0.25,
            min_segments: 1,
        },
        ..db.default_options()
    };
    for q in &vector_search(&data, 6, 10, 6) {
        let rs = db.execute_with(&q.to_sql("bench", "emb"), &opts).unwrap().rows();
        assert_eq!(rs.len(), 10, "pruning must not shrink the result set");
        let truth = ground_truth(&data, q, None);
        let recall = recall_of(&result_ids(&rs), &truth);
        assert!(recall >= 0.8, "pruned recall {recall}");
    }
}

/// Plans A, B and D filter through the column bitset, Plan C row by row on
/// the candidates it pulls: on a NaN, a signed zero, an infinity or an
/// integer past 2^53 the two must still give one answer — the one
/// `Value::partial_cmp_scalar` defines (floats by `total_cmp`, same-typed
/// integers exactly) — or a statement's rows depend on the plan it got.
#[test]
fn four_plans_agree_on_edge_cells() {
    use blendhouse::Value;
    const P53: u64 = 1 << 53;
    let floats =
        [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 0.5, -0.5, 1.0, -f64::NAN, 2.0];
    let bigs = [P53 - 1, P53, P53 + 1, P53 + 2, u64::MAX, 0, i64::MAX as u64];
    let smalls = [i64::MIN, -(P53 as i64) - 1, -(P53 as i64), -1, 0, 1, P53 as i64 + 1, i64::MAX];

    let db = blendhouse::Database::new(blendhouse::DatabaseConfig::default());
    db.execute(
        "CREATE TABLE edge (id UInt64, big UInt64, small Int64, f Float64, emb Array(Float32), \
         INDEX ann emb TYPE HNSW('DIM=4')) ORDER BY id",
    )
    .unwrap();
    let n = 70usize; // every (float, big) pairing: 10 × 7
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            // Hash-scattered coordinates: no two rows tie on distance.
            let at = |j: u64| (bh_common::rng::derive_seed(i as u64, j) >> 40) as f32 / 1e6;
            vec![
                Value::UInt64(i as u64),
                Value::UInt64(bigs[i % bigs.len()]),
                Value::Int64(smalls[i % smalls.len()]),
                Value::Float64(floats[i % floats.len()]),
                Value::Vector(vec![at(0), at(1), at(2), at(3)]),
            ]
        })
        .collect();
    db.table("edge").unwrap().insert_rows(rows).unwrap();
    db.preload("edge", "default").unwrap();

    let ids_where = |strategy: Strategy, filter: &str| -> Vec<u64> {
        let opts = QueryOptions {
            forced_strategy: Some(strategy),
            search: bh_vector::SearchParams::default().with_ef(256),
            ..db.default_options()
        };
        let sql = format!(
            "SELECT id FROM edge WHERE {filter} ORDER BY L2Distance(emb, [8.0, 8.0, 8.0, 8.0]) \
             LIMIT {n}"
        );
        let mut ids = result_ids(&db.execute_with(&sql, &opts).unwrap().rows());
        ids.sort_unstable();
        ids
    };
    let rows_with = |pick: &dyn Fn(usize) -> bool| -> Vec<u64> {
        (0..n).filter(|&i| pick(i)).map(|i| i as u64).collect()
    };
    let f_of = |i: usize| floats[i % floats.len()];
    let big_of = |i: usize| bigs[i % bigs.len()];
    let small_of = |i: usize| smalls[i % smalls.len()];
    use std::cmp::Ordering::{Equal, Greater, Less};
    let cases: Vec<(&str, Vec<u64>)> = vec![
        // NaN sorts above +inf (and -NaN below -inf): outside every range.
        (
            "f BETWEEN -1.0 AND 1.0",
            rows_with(&|i| {
                f_of(i).total_cmp(&-1.0) != Less && f_of(i).total_cmp(&1.0) != Greater
            }),
        ),
        // -0.0 and 0.0 are different cells.
        ("f = 0.0", rows_with(&|i| f_of(i).total_cmp(&0.0) == Equal)),
        ("f >= 0.0", rows_with(&|i| f_of(i).total_cmp(&0.0) != Less)),
        ("NOT f < 0.5", rows_with(&|i| f_of(i).total_cmp(&0.5) != Less)),
        // Same-typed integers compare exactly, however large.
        ("big = 9007199254740993", rows_with(&|i| big_of(i) == P53 + 1)),
        ("big > 9007199254740992", rows_with(&|i| big_of(i) > P53)),
        ("big IN (9007199254740991, 9007199254740994)", rows_with(&|i| {
            [P53 - 1, P53 + 2].contains(&big_of(i))
        })),
        ("small <= -9007199254740993", rows_with(&|i| small_of(i) < -(P53 as i64))),
        ("small = 9223372036854775807", rows_with(&|i| small_of(i) == i64::MAX)),
        (
            "f <= 0.0 AND big >= 9007199254740993",
            rows_with(&|i| f_of(i).total_cmp(&0.0) != Greater && big_of(i) > P53),
        ),
    ];
    for (filter, expect) in &cases {
        assert!(!expect.is_empty(), "{filter}: the table must hold passing rows");
        for strategy in [
            Strategy::BruteForce,
            Strategy::PreFilter,
            Strategy::PostFilter,
            Strategy::FilteredTraversal,
        ] {
            assert_eq!(&ids_where(strategy, filter), expect, "{strategy:?} under WHERE {filter}");
        }
    }
}
