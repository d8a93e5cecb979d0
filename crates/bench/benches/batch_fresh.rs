//! Fresh-emitter counterpart of the committed `BENCH_batch.json`: batched
//! segment-major multi-query execution vs looping per query, timed on this
//! machine and written to `target/bench-fresh/BENCH_batch.json` in the
//! committed schema so `cargo xtask bench-diff` covers it.
//!
//! Mirrors the committed method: a 32-segment x 10000-row dim-128 flat
//! table (exceeds typical L3, so scans are memory-bound), per-query loop as
//! the sequential baseline vs segment-major batch order with the per-query
//! `SharedBound` publish/prune rule of `FlatIndex::search_with_bound`.
//! Bit-identity of (id, distance) results between the two paths is asserted
//! before timing, bound on and off.

use bh_bench::harness::{print_table, write_fresh_json, Timer};
use bh_common::SharedBound;
use bh_vector::{
    IndexKind, IndexRegistry, IndexSpec, Metric, Neighbor, SearchParams, VectorIndex,
};
use std::hint::black_box;
use std::sync::Arc;

const DIM: usize = 128;
const SEGMENTS: usize = 32;
const ROWS_PER_SEGMENT: usize = 10_000;
const K: usize = 10;
const BATCHES: [usize; 3] = [1, 8, 64];
const REPS: usize = 2;

fn build_segments(reg: &IndexRegistry) -> Vec<Arc<dyn VectorIndex>> {
    (0..SEGMENTS)
        .map(|s| {
            let base = s * ROWS_PER_SEGMENT;
            let slice: Vec<f32> = (0..ROWS_PER_SEGMENT * DIM)
                .map(|j| {
                    let i = base + j / DIM;
                    let c = (i % 8) as f32 * 4.0;
                    c + ((i * DIM + j % DIM) as f32 * 0.37).sin() * 0.5
                })
                .collect();
            let ids: Vec<u64> = (0..ROWS_PER_SEGMENT).map(|r| (base + r) as u64).collect();
            let spec = IndexSpec::new(IndexKind::Flat, DIM, Metric::L2);
            let mut b = reg.create_builder(&spec).unwrap();
            b.add_with_ids(&slice, &ids).unwrap();
            b.finish().unwrap()
        })
        .collect()
}

fn queries() -> Vec<Vec<f32>> {
    (0..64)
        .map(|qi| {
            let c = (qi % 8) as f32 * 4.0;
            (0..DIM).map(|d| c + (d as f32 * 0.21).cos() * 0.3).collect()
        })
        .collect()
}

fn merge_topk(mut hits: Vec<Neighbor>) -> Vec<Neighbor> {
    hits.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
    hits.truncate(K);
    hits
}

/// Per-query loop over all segments: the `execute_bound` shape.
fn run_sequential(segments: &[Arc<dyn VectorIndex>], batch: &[Vec<f32>]) -> Vec<Vec<Neighbor>> {
    let params = SearchParams::default();
    batch
        .iter()
        .map(|q| {
            let mut hits = Vec::new();
            for seg in segments {
                hits.extend(seg.search_with_bound(q, K, &params, None, None).unwrap());
            }
            merge_topk(hits)
        })
        .collect()
}

/// Segment-major batch order (the `run_segment_tasks` shape): each segment
/// is scanned once for all queries consecutively, each query pruning under
/// its own shared bound when `bound` is on. Returns per-query results plus
/// the total bound skips.
fn run_batched(
    segments: &[Arc<dyn VectorIndex>],
    batch: &[Vec<f32>],
    bound: bool,
) -> (Vec<Vec<Neighbor>>, u64) {
    let params = SearchParams::default();
    let bounds: Vec<SharedBound> = batch.iter().map(|_| SharedBound::new()).collect();
    let mut per_query: Vec<Vec<Neighbor>> = vec![Vec::new(); batch.len()];
    for seg in segments {
        for (qi, q) in batch.iter().enumerate() {
            let b = bound.then_some(&bounds[qi]);
            let hits = seg.search_with_bound(q, K, &params, None, b).unwrap();
            per_query[qi].extend(hits);
            if bound {
                let mut d: Vec<f32> =
                    per_query[qi].iter().map(|h| h.distance).collect();
                d.sort_by(f32::total_cmp);
                if let Some(&kth) = d.get(K - 1) {
                    bounds[qi].update(kth);
                }
            }
        }
    }
    let skips = bounds.iter().map(|b| b.skips()).sum();
    (per_query.into_iter().map(merge_topk).collect(), skips)
}

fn main() {
    let reg = IndexRegistry::with_builtins();
    let segments = build_segments(&reg);
    let qs = queries();

    // Bit-identity before timing, bound on and off.
    let seq = run_sequential(&segments, &qs);
    for bound in [true, false] {
        let (batched, _) = run_batched(&segments, &qs, bound);
        for (qi, (s, b)) in seq.iter().zip(&batched).enumerate() {
            let s: Vec<(u64, f32)> = s.iter().map(|n| (n.id, n.distance)).collect();
            let b: Vec<(u64, f32)> = b.iter().map(|n| (n.id, n.distance)).collect();
            assert_eq!(s, b, "query {qi} diverged (bound={bound})");
        }
    }

    let mut rows = Vec::new();
    let mut cases = Vec::new();
    for batch_size in BATCHES {
        let batch = &qs[..batch_size];
        let best_qps = |f: &mut dyn FnMut() -> u64| -> (f64, u64) {
            let mut best = 0.0f64;
            let mut last_aux = 0;
            for _ in 0..REPS {
                let t = Timer::start();
                last_aux = f();
                let qps = batch_size as f64 / t.secs();
                best = best.max(qps);
            }
            (best, last_aux)
        };
        let (sequential_qps, _) = best_qps(&mut || {
            black_box(run_sequential(&segments, batch)).len() as u64
        });
        let (batched_qps, skips) =
            best_qps(&mut || black_box(run_batched(&segments, batch, true)).1);
        let (batched_no_bound_qps, _) =
            best_qps(&mut || black_box(run_batched(&segments, batch, false)).1);
        let speedup = batched_qps / sequential_qps;
        let scanned = (SEGMENTS * ROWS_PER_SEGMENT * batch_size) as f64;
        let skip_rate = skips as f64 / scanned;
        rows.push(vec![
            format!("{batch_size}"),
            format!("{sequential_qps:.1}"),
            format!("{batched_qps:.1}"),
            format!("{batched_no_bound_qps:.1}"),
            format!("{speedup:.2}"),
            format!("{skip_rate:.4}"),
        ]);
        cases.push(format!(
            "    {{ \"batch\": {batch_size}, \"sequential_qps\": {sequential_qps:.1}, \
             \"batched_qps\": {batched_qps:.1}, \"batched_no_bound_qps\": {batched_no_bound_qps:.1}, \
             \"speedup\": {speedup:.2}, \"bound_skip_rate\": {skip_rate:.4} }}"
        ));
    }
    print_table(
        "batched segment-major execution vs per-query loop (QPS)",
        &["batch", "sequential", "batched", "batched no-bound", "speedup", "skip rate"],
        &rows,
    );

    let json = format!(
        "{{\n  \"benchmark\": \"batched multi-query execution (execute_batch) vs looping execute per query\",\n  \
         \"method\": \"crates/bench/benches/batch_fresh.rs: {SEGMENTS} flat segments x {ROWS_PER_SEGMENT} rows, dim {DIM}, k={K}, L2; best of {REPS} reps per cell; bit-identity of both paths asserted before timing (bound on and off).\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        cases.join(",\n"),
    );
    write_fresh_json("BENCH_batch.json", &json);
}
