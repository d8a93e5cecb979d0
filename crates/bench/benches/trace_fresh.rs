//! The in-tree emitter of `BENCH_trace.json`: the cost of `QueryCtx::span`
//! open/attr/drop around a per-block-sized unit of work, for an untraced
//! statement (the production default: a context is installed on the thread,
//! it keeps no spans) and for a traced one, written to
//! `target/bench-fresh/BENCH_trace.json` in the committed schema so
//! `cargo xtask bench-diff` covers it.
//!
//! The workload models the finest-grained span site in the query path — a
//! per-block cache probe (~300ns of work: a 512-dim f32 L2 accumulation).
//! Baseline and disabled-span loops are interleaved within each run and the
//! per-loop minimum is kept, the least-perturbed observation on a shared
//! box; `overhead_pct = (disabled - baseline) / baseline`.

use bh_bench::harness::{print_table, write_fresh_json, Timer};
use bh_common::{QueryCtx, Stopwatch};
use std::hint::black_box;

const OPS: usize = 200_000;
const INTERLEAVES: usize = 7;
const RUNS: usize = 5;
const WORK_DIM: usize = 512;

/// The ~300ns unit of work a per-block span would wrap.
#[inline(never)]
fn work(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for i in 0..WORK_DIM {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

struct Run {
    baseline_ns: f64,
    disabled_ns: f64,
    disabled_only_ns: f64,
    enabled_ns: f64,
}

fn one_run(a: &[f32], b: &[f32]) -> Run {
    let untraced = QueryCtx::new(0, "select", "bench", "trace_fresh");
    let installed = untraced.install();
    let (mut base_min, mut dis_min) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..INTERLEAVES {
        let t = Timer::start();
        let mut acc = 0.0f32;
        for _ in 0..OPS {
            acc += work(a, b);
        }
        black_box(acc);
        base_min = base_min.min(t.secs() * 1e9 / OPS as f64);

        let t = Timer::start();
        let mut acc = 0.0f32;
        for i in 0..OPS {
            let mut span = QueryCtx::span("block.read");
            span.attr("bytes", i as u64);
            acc += work(a, b);
            black_box(&span);
        }
        black_box(acc);
        dis_min = dis_min.min(t.secs() * 1e9 / OPS as f64);
    }

    // Isolated disabled-span cost: guard open/attr/drop with no work inside.
    let mut only_min = f64::INFINITY;
    for _ in 0..INTERLEAVES {
        let t = Timer::start();
        for i in 0..OPS {
            let mut span = QueryCtx::span("block.read");
            span.attr("bytes", i as u64);
            black_box(&span);
        }
        only_min = only_min.min(t.secs() * 1e9 / OPS as f64);
    }

    // A traced statement: past its first 4,096 spans it counts, not keeps.
    drop(installed);
    let traced = QueryCtx::traced(0, "select", "bench", "trace_fresh", Stopwatch::start());
    let _in = traced.install();
    let t = Timer::start();
    let mut acc = 0.0f32;
    for i in 0..OPS {
        let mut span = QueryCtx::span("block.read");
        span.attr("bytes", i as u64);
        acc += work(a, b);
        black_box(&span);
    }
    black_box(acc);
    let enabled_ns = t.secs() * 1e9 / OPS as f64;

    Run { baseline_ns: base_min, disabled_ns: dis_min, disabled_only_ns: only_min, enabled_ns }
}

fn main() {
    let a: Vec<f32> = (0..WORK_DIM).map(|i| (i as f32 * 0.61803).sin()).collect();
    let b: Vec<f32> = (0..WORK_DIM).map(|i| (i as f32 * 0.31415).cos()).collect();

    let mut rows = Vec::new();
    let mut cases = Vec::new();
    for run in 1..=RUNS {
        let r = one_run(&a, &b);
        let overhead_pct = (r.disabled_ns - r.baseline_ns) / r.baseline_ns * 100.0;
        rows.push(vec![
            format!("{run}"),
            format!("{:.1}", r.baseline_ns),
            format!("{:.1}", r.disabled_ns),
            format!("{overhead_pct:.2}"),
            format!("{:.1}", r.disabled_only_ns),
            format!("{:.1}", r.enabled_ns),
        ]);
        cases.push(format!(
            "    {{ \"run\": {run}, \"baseline_ns_per_op\": {:.1}, \
             \"disabled_span_ns_per_op\": {:.1}, \"overhead_pct\": {overhead_pct:.2}, \
             \"disabled_span_only_ns_per_op\": {:.1}, \"enabled_span_ns_per_op\": {:.1} }}",
            r.baseline_ns, r.disabled_ns, r.disabled_only_ns, r.enabled_ns
        ));
    }
    print_table(
        "tracing overhead around a ~300ns op (ns/op)",
        &["run", "baseline", "disabled span", "overhead %", "span only", "enabled span"],
        &rows,
    );

    let json = format!(
        "{{\n  \"benchmark\": \"tracing overhead: QueryCtx::span open/attr/drop cost for an untraced statement (production default) and a traced one\",\n  \
         \"method\": \"crates/bench/benches/trace_fresh.rs: {OPS} ops per loop, baseline/disabled interleaved {INTERLEAVES}x per run with per-loop min kept; work = {WORK_DIM}-dim f32 L2 accumulation; disabled = an untraced QueryCtx installed on the thread, enabled = a traced one (it keeps its first 4096 spans and counts the rest: same open/timestamp/lock path); {RUNS} runs reported.\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        cases.join(",\n"),
    );
    write_fresh_json("BENCH_trace.json", &json);
}
