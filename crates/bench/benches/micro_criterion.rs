//! Criterion microbenchmarks of the hot kernels that back the cost model's
//! constants: exact distances (`c_d`), ADC lookups (`c_c`), bitmap tests
//! (`c_p`), the top-k collector, the LRU cache, and consistent hashing.
//!
//! `probe_cost_constants` times the operations `CostParams::default()`
//! prices — a sequential exact distance, a graph hop per predicted visit,
//! the columnar and the row-wise predicate, a complete IVF search — and
//! prints them as ratios to `c_d`; the defaults are that output, written
//! down (DESIGN.md §14).
//! Keeping the kernels under Criterion regression tracking keeps the
//! optimizer's ratios honest. The single-pair distance kernels, scalar
//! against dispatched, are `kernels_fresh`'s (`BENCH_kernels.json`).

use bh_cluster::hashring::MultiProbeRing;
use bh_common::rng::rng;
use bh_common::{Bitset, Stopwatch, TopK, WorkerId};
use bh_query::CostParams;
use bh_storage::column::ColumnData;
use bh_storage::lru::LruCache;
use bh_storage::predicate::Predicate;
use bh_storage::value::Value;
use bh_vector::distance::distance_batch;
use bh_vector::quant::pq::{CodeBits, Pq, PqParams};
use bh_vector::quant::sq::Sq8;
use bh_vector::{GraphScan, IndexKind, IndexRegistry, IndexSpec, Metric, SearchParams};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::Rng;
use std::hint::black_box;

fn bench_quantizers(c: &mut Criterion) {
    let dim = 128;
    let sample: Vec<f32> = (0..512 * dim).map(|i| (i as f32 * 0.01).sin()).collect();
    let q: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37 + 0.5).sin()).collect();

    let sq = Sq8::train(&sample, dim).unwrap();
    let code = sq.encode(&q).unwrap();
    c.bench_function("sq8_asym_l2_128d", |b| {
        b.iter(|| black_box(sq.asym_l2(black_box(&q), black_box(&code))))
    });

    let pq = Pq::train(&sample, dim, Metric::L2, &PqParams::new(32, CodeBits::B8)).unwrap();
    let pcode = pq.encode(&q).unwrap();
    let table = pq.adc_table(&q).unwrap();
    c.bench_function("pq_adc_m32", |b| b.iter(|| black_box(table.distance(black_box(&pcode)))));

    let pq4 = Pq::train(&sample, dim, Metric::L2, &PqParams::new(32, CodeBits::B4)).unwrap();
    let pcode4 = pq4.encode(&q).unwrap();
    let table4 = pq4.adc_table(&q).unwrap();
    c.bench_function("pq_adc_m32_4bit", |b| {
        b.iter(|| black_box(table4.distance(black_box(&pcode4))))
    });
}

/// Nanoseconds per call of `f`, best of five rounds of `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t = Stopwatch::start();
            for _ in 0..iters {
                f();
            }
            t.elapsed_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The cost model's constants, measured: what one unit of each kind of work
/// the optimizer counts takes on this machine, on `deep_hybrid`'s shape
/// (one 8,000-row segment, d = 64, 32 clusters, HNSW defaults). Graph work
/// is divided by `SearchParams::predicted_visits` — the count the model
/// multiplies `c_g` with — except the iterator, which reports its own.
fn probe_cost_constants(_c: &mut Criterion) {
    let (rows, dim, k) = (8_000usize, 64usize, 100usize);
    let mut r = rng(20_260_927);
    let centres: Vec<f32> = (0..32 * dim).map(|_| r.gen::<f32>() * 2.0 - 1.0).collect();
    let mut point = || -> Vec<f32> {
        let c = r.gen_range(0..32usize) * dim;
        centres[c..c + dim].iter().map(|m| m + (r.gen::<f32>() - 0.5) * 1.2).collect()
    };
    let data: Vec<f32> = (0..rows).flat_map(|_| point()).collect();
    let queries: Vec<Vec<f32>> = (0..32).map(|_| point()).collect();
    let xs: Vec<i64> = (0..rows).map(|_| r.gen_range(0..1_000_000usize) as i64).collect();
    let spec = IndexSpec::new(IndexKind::Hnsw, dim, Metric::L2);
    let mut b = IndexRegistry.create_builder(&spec).unwrap();
    b.add_with_ids(&data, &(0..rows as u64).collect::<Vec<_>>()).unwrap();
    let index = b.finish().unwrap();
    let mut q = 0usize;
    let mut next_query = || {
        q = (q + 1) % queries.len();
        &queries[q]
    };

    // c_d: one row of a sequential exact scan.
    let mut out = vec![0.0f32; rows];
    let c_d = ns_per_call(200, || {
        distance_batch(Metric::L2, next_query(), &data, dim, &mut out).unwrap();
        black_box(&out);
    }) / rows as f64;

    let mut lines: Vec<(String, f64, Option<f64>)> = Vec::new();
    let defaults = CostParams::default();
    lines.push(("c_d  sequential exact distance, per row".into(), c_d, Some(defaults.c_d)));

    // c_g: one predicted visit of each graph walk.
    for ef in [64usize, 256] {
        let p = SearchParams::default().with_ef(ef);
        let visits = p.predicted_visits(GraphScan::Beam, rows, k.min(ef), 1.0) as f64;
        let ns = ns_per_call(300, || {
            black_box(index.search_with_bound(next_query(), k.min(ef), &p, None, None).unwrap());
        });
        lines.push((
            format!("c_g  beam ef={ef}, per predicted visit ({visits:.0})"),
            ns / visits,
            Some(defaults.c_g),
        ));
    }
    for s in [0.9f64, 0.3, 0.1] {
        let bits = Bitset::from_positions(rows, (0..rows).filter(|&i| (xs[i] as f64) < s * 1e6));
        let p = SearchParams::default().with_ef(256).with_selectivity(s as f32);
        let walk = p.with_filter_traversal(true);
        let visits = p.predicted_visits(GraphScan::FilteredTraversal, rows, k, s) as f64;
        let ns = ns_per_call(100, || {
            black_box(index.search_with_bound(next_query(), k, &walk, Some(&bits), None).unwrap());
        });
        lines.push((
            format!("c_g  traversal ef=256 s={s}, per predicted visit ({visits:.0})"),
            ns / visits,
            Some(defaults.c_g + defaults.c_p),
        ));
        let (mut pulled_ns, mut visited) = (0.0, 0usize);
        for query in &queries {
            let t = Stopwatch::start();
            let mut it = index.search_iterator(query, &p).unwrap();
            let mut passing = 0;
            while passing < 2 * k {
                let batch = it.next_batch(k).unwrap();
                if batch.is_empty() {
                    break;
                }
                passing += batch.iter().filter(|nb| bits.contains(nb.id as usize)).count();
            }
            pulled_ns += t.elapsed_nanos() as f64;
            visited += it.visited();
        }
        let predicted = p.predicted_visits(GraphScan::IteratorPull, rows, 2 * k, s) as f64;
        lines.push((
            format!(
                "c_g  iterator pull s={s}, per visit ({:.0} counted, {predicted:.0} predicted)",
                visited as f64 / queries.len() as f64
            ),
            pulled_ns / visited as f64,
            Some(defaults.c_g),
        ));
    }

    // t0_row: the columnar predicate over one column; c_p: one bitmap test.
    let column = ColumnData::Int64(xs.clone());
    let columns = [("x", &column)];
    let range = Predicate::range("x", Some(Value::Int64(100_000)), Some(Value::Int64(400_000)));
    let t0 = ns_per_call(500, || {
        black_box(range.eval_bitset(&columns, rows).unwrap());
    }) / rows as f64;
    lines.push(("t0   columnar range predicate, per row".into(), t0, Some(defaults.t0_row)));
    let bits = range.eval_bitset(&columns, rows).unwrap();
    let mut i = 0usize;
    let c_p = ns_per_call(1_000_000, || {
        i = (i + 7919) % rows;
        black_box(bits.contains(i));
    });
    lines.push(("c_p  bitmap test".into(), c_p, Some(defaults.c_p)));

    // c_f: the post-filter's predicate on one pulled row — the batch's cells
    // gathered typed, one mask from the word kernels — as
    // `QueryEngine::passing_rows` does it.
    let offsets: Vec<u32> = (0..100).map(|i| (i * 79 % rows) as u32).collect();
    let c_f = ns_per_call(2_000, || {
        let mut cells = ColumnData::empty(column.ty());
        column.gather_into(&offsets, 0, &mut cells).unwrap();
        black_box(range.eval_bitset(&[("x", &cells)], offsets.len()).unwrap());
    }) / offsets.len() as f64;
    lines.push(("c_f  predicate on a pulled row (gather + mask)".into(), c_f, Some(defaults.c_f)));

    // c_c: one ADC lookup chain (16 sub-quantizers, 8-bit codes).
    let pq = Pq::train(&data[..2048 * dim], dim, Metric::L2, &PqParams::new(16, CodeBits::B8))
        .unwrap();
    let code = pq.encode(&data[..dim]).unwrap();
    let table = pq.adc_table(&queries[0]).unwrap();
    let c_c = ns_per_call(1_000_000, || {
        black_box(table.distance(black_box(&code)));
    });
    lines.push(("c_c  PQ ADC distance (m=16)".into(), c_c, Some(defaults.c_c)));

    // c_r: one complete IVF search — what every further round of the restart
    // wrapper (a filtered Plan C on an IVF index) costs again.
    for (kind, rows) in [IndexKind::IvfFlat, IndexKind::IvfPq, IndexKind::IvfPqFs]
        .into_iter()
        .flat_map(|kind| [(kind, 512usize), (kind, 8_000)])
    {
        let spec = IndexSpec::new(kind, dim, Metric::L2);
        let mut b = IndexRegistry.create_builder(&spec).unwrap();
        b.add_with_ids(&data[..rows * dim], &(0..rows as u64).collect::<Vec<_>>()).unwrap();
        let ivf = b.finish().unwrap();
        let p = SearchParams::default();
        for k in [16usize, 128] {
            let ns = ns_per_call(300, || {
                black_box(ivf.search_with_bound(next_query(), k, &p, None, None).unwrap());
            });
            let default = (kind == IndexKind::IvfPqFs).then_some(defaults.c_r);
            lines.push((format!("c_r  {} search, {rows} rows, k={k}", kind.name()), ns, default));
        }
    }

    println!("cost-model constants (ns, ratio to c_d, CostParams::default()):");
    for (what, ns, default) in lines {
        let default = default.map(|d| format!("{d:>8.3}")).unwrap_or_default();
        println!("  {what:<72} {ns:>8.2} ns {:>8.2} {default}", ns / c_d);
    }
}

fn bench_bitset_and_topk(c: &mut Criterion) {
    let bits = Bitset::from_positions(100_000, (0..100_000).step_by(3));
    c.bench_function("bitset_contains", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % 100_000;
            black_box(bits.contains(i))
        })
    });

    c.bench_function("topk_push_1000_into_10", |b| {
        b.iter(|| {
            let mut tk = TopK::new(10);
            for i in 0..1000u32 {
                tk.push(((i * 2654435761) % 10007) as f32, i);
            }
            black_box(tk.into_sorted())
        })
    });
}

fn bench_lru_and_ring(c: &mut Criterion) {
    let cache: LruCache<u32, u32> = LruCache::new(10_000);
    for i in 0..1000u32 {
        cache.put(i, i, 7);
    }
    c.bench_function("lru_get_hit", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 13) % 1000;
            black_box(cache.get(&i))
        })
    });

    let mut ring = MultiProbeRing::new(21);
    for w in 0..16 {
        ring.add_worker(WorkerId(w));
    }
    let keys: Vec<String> = (0..256).map(|i| format!("seg-{i:016x}")).collect();
    c.bench_function("ring_assign_21probe", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % keys.len();
            black_box(ring.assign(&keys[i]))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = probe_cost_constants, bench_quantizers, bench_bitset_and_topk, bench_lru_and_ring
}
criterion_main!(benches);
