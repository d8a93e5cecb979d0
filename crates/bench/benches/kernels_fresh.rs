//! Fresh-emitter counterpart of the committed `BENCH_kernels.json`:
//! runtime-dispatched SIMD distance kernels vs the scalar reference, timed
//! on *this* machine and written to `target/bench-fresh/BENCH_kernels.json`
//! in the committed schema (same case order), so `cargo xtask bench-diff`
//! can gate kernel latency regressions.
//!
//! Parity against the scalar oracle is asserted before timing — a fast
//! wrong kernel must fail here, not in the diff.

use bh_bench::harness::{median, print_table, write_fresh_json, Timer};
use bh_vector::distance::{self, scalar, KernelTier, Metric};
use std::hint::black_box;

const DIMS: [usize; 4] = [64, 128, 768, 1536];
const KERNELS: [&str; 3] = ["l2_sq", "dot", "cosine"];
/// Pairs per timing rep; the median of `REPS` reps is reported.
const PAIRS: usize = 64;
const ITERS: usize = 2_000;
const REPS: usize = 7;

fn gen_vectors(dim: usize, n: usize, seed: u32) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| (((i * dim + d) as f32 + seed as f32) * 0.61803).sin())
                .collect()
        })
        .collect()
}

fn run_kernel(kernel: &str, a: &[f32], b: &[f32], dispatched: bool) -> f32 {
    match (kernel, dispatched) {
        ("l2_sq", true) => distance::l2_sq(a, b),
        ("l2_sq", false) => scalar::l2_sq(a, b),
        ("dot", true) => distance::dot(a, b),
        ("dot", false) => scalar::dot(a, b),
        ("cosine", true) => distance::cosine_distance(a, b),
        ("cosine", false) => scalar::cosine_distance(a, b),
        _ => unreachable!("unknown kernel {kernel}"),
    }
}

/// Median ns per call over `REPS` reps of `ITERS * PAIRS` calls.
fn time_pairs(kernel: &str, vecs: &[Vec<f32>], dispatched: bool) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Timer::start();
        let mut acc = 0.0f32;
        for _ in 0..ITERS {
            for i in 0..PAIRS {
                let (a, b) = (&vecs[i], &vecs[(i + 1) % PAIRS]);
                acc += run_kernel(kernel, a, b, dispatched);
            }
        }
        black_box(acc);
        samples.push(t.secs() * 1e9 / (ITERS * PAIRS) as f64);
    }
    median(samples)
}

/// Median ns per row of `distance_batch(L2)` over a 4,096-row block, or of
/// `distance_gather(L2)` over an ascending quarter of its rows (Plan A's
/// shape), vs a scalar loop over the same rows.
fn time_batched(dim: usize, listed: bool) -> (f64, f64) {
    let rows = 4096u32;
    let block: Vec<f32> = gen_vectors(dim, rows as usize, 7).into_iter().flatten().collect();
    let q: Vec<f32> = gen_vectors(dim, 1, 11).remove(0);
    let picked: Vec<u32> = if listed {
        (0..rows).filter(|i| i.wrapping_mul(2_654_435_761) >> 30 == 0).collect()
    } else {
        (0..rows).collect()
    };
    let mut out = vec![0.0f32; picked.len()];
    let (mut scalar_s, mut fast_s) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Timer::start();
        for (&r, slot) in picked.iter().zip(out.iter_mut()) {
            let r = r as usize;
            *slot = scalar::l2_sq(&q, &block[r * dim..(r + 1) * dim]);
        }
        black_box(&out);
        scalar_s.push(t.secs() * 1e9 / picked.len() as f64);

        let t = Timer::start();
        if listed {
            distance::distance_gather(Metric::L2, &q, &block, dim, &picked, &mut out).unwrap();
        } else {
            distance::distance_batch(Metric::L2, &q, &block, dim, &mut out).unwrap();
        }
        black_box(&out);
        fast_s.push(t.secs() * 1e9 / picked.len() as f64);
    }
    (median(scalar_s), median(fast_s))
}

fn main() {
    // Parity first: dispatched kernels must agree with the scalar oracle.
    for dim in [1usize, 7, 64, 300] {
        let vecs = gen_vectors(dim, 8, 3);
        for pair in vecs.windows(2) {
            for kernel in KERNELS {
                let s = run_kernel(kernel, &pair[0], &pair[1], false);
                let d = run_kernel(kernel, &pair[0], &pair[1], true);
                let err = (s - d).abs() / s.abs().max(1e-6);
                assert!(err < 1e-4, "{kernel} dim {dim}: scalar {s} vs dispatched {d}");
            }
        }
    }

    let mut rows = Vec::new();
    let mut cases = Vec::new();
    for dim in DIMS {
        let vecs = gen_vectors(dim, PAIRS, 1);
        for kernel in KERNELS {
            let s = time_pairs(kernel, &vecs, false);
            let d = time_pairs(kernel, &vecs, true);
            rows.push(vec![
                format!("{dim}"),
                kernel.to_string(),
                format!("{s:.1}"),
                format!("{d:.1}"),
                format!("{:.2}", s / d),
            ]);
            cases.push(format!(
                "    {{ \"dim\": {dim}, \"kernel\": \"{kernel}\", \"scalar_ns\": {s:.1}, \
                 \"dispatched_ns\": {d:.1}, \"speedup\": {:.2} }}",
                s / d
            ));
        }
    }
    print_table(
        "runtime-dispatched SIMD kernels vs scalar reference (ns/call)",
        &["dim", "kernel", "scalar", "dispatched", "speedup"],
        &rows,
    );

    let mut brows = Vec::new();
    let mut bcases = Vec::new();
    for (dim, listed) in [(64usize, false), (64, true), (128, false), (768, false)] {
        let (s, d) = time_batched(dim, listed);
        let kernel = if listed { "distance_gather(L2)" } else { "distance_batch(L2)" };
        brows.push(vec![
            format!("{dim}"),
            kernel.to_string(),
            format!("{s:.1}"),
            format!("{d:.1}"),
            format!("{:.2}", s / d),
        ]);
        bcases.push(format!(
            "    {{ \"dim\": {dim}, \"kernel\": \"{kernel}\", \
             \"scalar_ns_per_row\": {s:.1}, \"dispatched_ns_per_row\": {d:.1}, \
             \"speedup\": {:.2} }}",
            s / d
        ));
    }
    print_table(
        "batched L2 scan (ns/row)",
        &["dim", "kernel", "scalar", "dispatched", "speedup"],
        &brows,
    );

    let json = format!(
        "{{\n  \"benchmark\": \"runtime-dispatched SIMD distance kernels vs scalar reference\",\n  \
         \"machine\": {{ \"arch\": \"{}\", \"kernel_tier_detected\": \"{}\" }},\n  \
         \"method\": \"crates/bench/benches/kernels_fresh.rs: median ns/call over {REPS} reps of {} warm calls per dim/kernel; batched_scan_ns_per_row: median ns/row of one call over 4096 rows (distance_batch) or an ascending quarter of them (distance_gather) vs a scalar::l2_sq loop over the same rows; parity vs the scalar oracle asserted before timing.\",\n  \
         \"single_pair_ns\": [\n{}\n  ],\n  \
         \"batched_scan_ns_per_row\": [\n{}\n  ]\n}}\n",
        std::env::consts::ARCH,
        KernelTier::current().name(),
        ITERS * PAIRS,
        cases.join(",\n"),
        bcases.join(",\n"),
    );
    write_fresh_json("BENCH_kernels.json", &json);
}
