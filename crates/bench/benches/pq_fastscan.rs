//! PQ fast-scan ADC (DESIGN.md §10): in-register shuffle-LUT scan vs the
//! scalar per-code table ADC at d=128 / m=16 / 4-bit codes, plus the
//! shared-bound skip rate of a two-segment batched IVFPQFS scan.
//!
//! Acceptance shape: the dispatched fast-scan kernel is ≥ 3x the scalar
//! ADC loop per code, top-k recall against exact L2 is unchanged between
//! the two ADC paths (they reconstruct the same quantized distances up to
//! the documented `error_bound`), and the shared bound records a nonzero
//! skip count when the second segment scans under the first segment's
//! published k-th distance.
//!
//! Besides the printed table, results are written to
//! `target/bench-fresh/BENCH_pq.json` in the schema of the committed
//! `BENCH_pq.json`, so `cargo run -p xtask -- bench-diff` can gate latency
//! regressions.

use bh_bench::datasets::DatasetSpec;
use bh_bench::harness::{median, print_table, Timer};
use bh_common::SharedBound;
use bh_vector::quant::pq::{CodeBits, Pq, PqParams};
use bh_vector::quant::FastScanCodes;
use bh_vector::{IndexKind, IndexRegistry, IndexSpec, Metric, SearchParams, VectorIndex};
use std::hint::black_box;
use std::sync::Arc;

const DIM: usize = 128;
const M: usize = 16;
const N: usize = 8192;
const QUERIES: usize = 16;
const K: usize = 10;

fn exact_topk(data: &[f32], q: &[f32], k: usize) -> Vec<usize> {
    let mut d: Vec<(f32, usize)> = (0..data.len() / DIM)
        .map(|i| (Metric::L2.distance(q, &data[i * DIM..(i + 1) * DIM]), i))
        .collect();
    d.sort_by(|a, b| a.0.total_cmp(&b.0));
    d.truncate(k);
    d.into_iter().map(|(_, i)| i).collect()
}

fn topk_of(dists: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..dists.len()).collect();
    idx.sort_by(|&a, &b| dists[a].total_cmp(&dists[b]));
    idx.truncate(k);
    idx
}

fn overlap(a: &[usize], b: &[usize]) -> f64 {
    a.iter().filter(|x| b.contains(x)).count() as f64 / a.len().max(1) as f64
}

struct ScanTimes {
    scalar_adc_ns: f64,
    blocked_scalar_ns: f64,
    fastscan_ns: f64,
}

/// Median of per-repeat ns/code for the three ADC scan paths.
fn time_scans(
    pq: &Pq,
    packed: &[Vec<u8>],
    fs_codes: &FastScanCodes,
    queries: &[Vec<f32>],
) -> ScanTimes {
    let reps = 9;
    let mut scalar = Vec::new();
    let mut blocked = Vec::new();
    let mut fast = Vec::new();
    let mut out = vec![0.0f32; packed.len()];
    for rep in 0..reps {
        let q = &queries[rep % queries.len()];
        let table = pq.adc_table(q).unwrap();
        let lut = table.quantized().expect("4-bit table must quantize");

        let t = Timer::start();
        for (slot, code) in out.iter_mut().zip(packed) {
            *slot = table.distance(code);
        }
        black_box(&out);
        scalar.push(t.secs() * 1e9 / packed.len() as f64);

        let t = Timer::start();
        lut.scan_scalar(fs_codes, &mut out);
        black_box(&out);
        blocked.push(t.secs() * 1e9 / packed.len() as f64);

        let t = Timer::start();
        lut.scan(fs_codes, &mut out).unwrap();
        black_box(&out);
        fast.push(t.secs() * 1e9 / packed.len() as f64);
    }
    ScanTimes {
        scalar_adc_ns: median(scalar),
        blocked_scalar_ns: median(blocked),
        fastscan_ns: median(fast),
    }
}

/// Two cluster-partitioned IVFPQFS segments scanned under one shared bound
/// — the shape semantic clustering produces, where a query's cluster lives
/// in one segment and the other segment's best candidates are provably far.
/// After each segment the exact (refined) k-th distance is published, as
/// the executor's refine stage does; the other segment's candidates whose
/// margin-adjusted lower bound exceeds it are skipped. Returns
/// `(skips, candidates_emitted)`.
fn shared_bound_skip_rate(
    dataset: &bh_bench::datasets::Dataset,
    queries: &[Vec<f32>],
) -> (u64, u64) {
    // Row-range partition of cluster-sorted rows: each segment holds half
    // the clusters, like storage-level semantic clustering.
    let mut order: Vec<usize> = (0..dataset.n()).collect();
    order.sort_by_key(|&i| dataset.cluster_of[i]);
    let build = |rows: &[usize]| -> Arc<dyn VectorIndex> {
        let slice: Vec<f32> =
            rows.iter().flat_map(|&r| dataset.vector(r).iter().copied()).collect();
        let spec = IndexSpec::new(IndexKind::IvfPqFs, DIM, Metric::L2)
            .with_param("nlist", 128)
            .with_param("pq_m", M);
        let mut b = IndexRegistry.create_builder(&spec).unwrap();
        b.train(&slice).unwrap();
        let ids: Vec<u64> = rows.iter().map(|&r| r as u64).collect();
        b.add_with_ids(&slice, &ids).unwrap();
        b.finish().unwrap()
    };
    let half = order.len() / 2;
    let segments = [build(&order[..half]), build(&order[half..])];
    let params = SearchParams::default().with_nprobe(16);
    let mut skips = 0u64;
    let mut emitted = 0u64;
    for q in queries {
        let b = SharedBound::new();
        for seg in &segments {
            let hits = seg.search_with_bound(q, K, &params, None, Some(&b)).unwrap();
            emitted += hits.len() as u64;
            // Refine contract: exact re-rank of the survivors, then publish
            // the exact k-th (quantized distances are never published).
            let mut exact: Vec<f32> = hits
                .iter()
                .map(|h| Metric::L2.distance(q, dataset.vector(h.id as usize)))
                .collect();
            exact.sort_by(f32::total_cmp);
            if let Some(&kth) = exact.get(K - 1) {
                b.update(kth);
            }
        }
        skips += b.skips();
    }
    (skips, emitted)
}

fn main() {
    // Well-separated Gaussian mixture (the datasets module's standard
    // embedding stand-in): inter-cluster gaps dwarf the PQ reconstruction
    // error, so exact top-k is meaningful and the two ADC paths can be
    // compared on recall rather than on quantization noise.
    let spec =
        DatasetSpec { name: "pq-fastscan-sim", n: N, dim: DIM, clusters: 256, seed: 42 };
    let dataset = spec.generate();
    let data = &dataset.vectors;
    let queries = dataset.queries(QUERIES, 7);

    let pq = Pq::train(data, DIM, Metric::L2, &PqParams::new(M, CodeBits::B4)).unwrap();
    let packed: Vec<Vec<u8>> =
        (0..N).map(|i| pq.encode(&data[i * DIM..(i + 1) * DIM]).unwrap()).collect();
    let mut fs_codes = FastScanCodes::new(pq.code_size());
    for code in &packed {
        fs_codes.push(code).unwrap();
    }

    // Recall vs exact L2 for both ADC paths, plus top-k agreement between
    // them (acceptance: recall unchanged).
    let mut recall_scalar = 0.0;
    let mut recall_fast = 0.0;
    let mut agreement = 0.0;
    let mut out_scalar = vec![0.0f32; N];
    let mut out_fast = vec![0.0f32; N];
    for q in &queries {
        let table = pq.adc_table(q).unwrap();
        let lut = table.quantized().expect("4-bit table must quantize");
        for (slot, code) in out_scalar.iter_mut().zip(&packed) {
            *slot = table.distance(code);
        }
        lut.scan(&fs_codes, &mut out_fast).unwrap();
        let truth = exact_topk(data, q, K);
        let top_scalar = topk_of(&out_scalar, K);
        let top_fast = topk_of(&out_fast, K);
        recall_scalar += overlap(&truth, &top_scalar);
        recall_fast += overlap(&truth, &top_fast);
        agreement += overlap(&top_scalar, &top_fast);
    }
    recall_scalar /= QUERIES as f64;
    recall_fast /= QUERIES as f64;
    agreement /= QUERIES as f64;

    let times = time_scans(&pq, &packed, &fs_codes, &queries);
    let speedup = times.scalar_adc_ns / times.fastscan_ns;
    let (skips, scanned) = shared_bound_skip_rate(&dataset, &queries);
    let skip_rate = skips as f64 / scanned.max(1) as f64;

    print_table(
        "PQ fast-scan ADC, d=128 m=16 4-bit (ns per code)",
        &["path", "ns/code", "speedup vs scalar ADC"],
        &[
            vec!["scalar ADC".into(), format!("{:.2}", times.scalar_adc_ns), "1.00".into()],
            vec![
                "blocked scalar".into(),
                format!("{:.2}", times.blocked_scalar_ns),
                format!("{:.2}", times.scalar_adc_ns / times.blocked_scalar_ns),
            ],
            vec![
                "fast-scan (dispatched)".into(),
                format!("{:.2}", times.fastscan_ns),
                format!("{:.2}", speedup),
            ],
        ],
    );
    println!(
        "[pq_fastscan] recall@{K}: scalar ADC {recall_scalar:.3}, fast-scan {recall_fast:.3}, \
         top-k agreement {agreement:.3}"
    );
    println!(
        "[pq_fastscan] shared-bound: {skips} skips / {scanned} emitted candidates \
         ({:.1}% skip rate) across two IVFPQFS segments",
        skip_rate * 100.0
    );

    let json = format!(
        "{{\n  \"benchmark\": \"PQ fast-scan ADC (4-bit in-register shuffle LUT) vs scalar table ADC\",\n  \
         \"cases\": [\n    {{ \"kernel\": \"adc_scan\", \"dim\": {DIM}, \"m\": {M}, \"n\": {N}, \
         \"scalar_adc_ns\": {:.2}, \"blocked_scalar_ns\": {:.2}, \"fastscan_ns\": {:.2}, \
         \"speedup\": {:.2} }}\n  ],\n  \
         \"recall_at_{K}\": {{ \"scalar_adc\": {:.3}, \"fastscan\": {:.3}, \"topk_agreement\": {:.3} }},\n  \
         \"shared_bound\": {{ \"segments\": 2, \"skips\": {skips}, \"candidates_emitted\": {scanned}, \
         \"skip_rate\": {:.4} }}\n}}\n",
        times.scalar_adc_ns,
        times.blocked_scalar_ns,
        times.fastscan_ns,
        speedup,
        recall_scalar,
        recall_fast,
        agreement,
        skip_rate,
    );
    bh_bench::harness::write_fresh_json("BENCH_pq.json", &json);
}
