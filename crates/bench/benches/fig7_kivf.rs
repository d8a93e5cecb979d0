//! **Fig. 7** — IVF search time as a function of row count `N` for different
//! `K_IVF` settings, motivating auto-index parameter selection (§III-B).
//!
//! Paper shape: small `K` wins at small `N` (few centroids to scan), large
//! `K` wins at large `N` (smaller cells), with crossovers in between; the
//! rule/model-based auto selector should track the lower envelope.

use bh_bench::datasets::{Dataset, DatasetSpec};
use bh_bench::harness::{fmt_duration, measure_latency, print_table};
use bh_vector::autoindex::select_kivf_modeled;
use bh_vector::{IndexKind, IndexRegistry, IndexSpec, Metric, SearchParams};
use std::time::Duration;

fn build_ivf(data: &Dataset, n: usize, nlist: usize) -> std::sync::Arc<dyn bh_vector::VectorIndex> {
    let spec = IndexSpec::new(IndexKind::IvfPqFs, data.dim(), Metric::L2)
        .with_param("nlist", nlist)
        .with_param("pq_m", data.dim() / 4);
    let mut b = IndexRegistry.create_builder(&spec).unwrap();
    let slice = &data.vectors[..n * data.dim()];
    b.train(slice).unwrap();
    let ids: Vec<u64> = (0..n as u64).collect();
    b.add_with_ids(slice, &ids).unwrap();
    b.finish().unwrap()
}

fn main() {
    // Scaled-down choice set (the paper sweeps {4096, 16384, 65536} at
    // production N; our N is ~50x smaller so K scales with √50 ≈ 7x).
    let kivf_choices = [64usize, 256, 1024];
    let spec = DatasetSpec::openai_sim();
    let data = spec.generate();
    let n_sweep: Vec<usize> =
        [2_000usize, 5_000, 10_000, 20_000, 40_000].iter().copied().filter(|&n| n <= data.n()).collect();

    let mut rows = Vec::new();
    for &n in &n_sweep {
        let mut cells = vec![format!("{n}")];
        let mut best: (Duration, usize) = (Duration::MAX, 0);
        for &k in &kivf_choices {
            let idx = build_ivf(&data, n, k);
            let queries = data.queries(16, n as u64);
            let params = SearchParams::default().with_nprobe((k / 16).max(1));
            let mut qi = 0;
            let lat = measure_latency(32, || {
                let q = &queries[qi % queries.len()];
                qi += 1;
                std::hint::black_box(idx.search_with_bound(q, 10, &params, None, None).unwrap());
            });
            if lat < best.0 {
                best = (lat, k);
            }
            cells.push(fmt_duration(lat));
        }
        let modeled = select_kivf_modeled(n, 8, &kivf_choices);
        cells.push(format!("{}", best.1));
        cells.push(format!("{modeled}"));
        println!("[fig7] N={n}: empirical best K={} modeled K={modeled}", best.1);
        rows.push(cells);
    }
    print_table(
        "Fig 7: IVF search time vs N for different K_IVF (IVFPQFS)",
        &["N", "K=64", "K=256", "K=1024", "best(empirical)", "auto(model)"],
        &rows,
    );
}
