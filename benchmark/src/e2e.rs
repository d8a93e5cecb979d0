//! The untraced run: end-to-end metrics.
//!
//! Set-up is repeated and its median reported. The timed section replays
//! one fixed statement list pass after pass until `--seconds` have been
//! measured; every timing metric is computed per pass and the passes are
//! then reduced with [`undisturbed_decile`], which is what keeps it
//! steady on a box whose speed drops by a quarter in bursts.

use crate::report::{metric, Outcome};
use crate::stats::{median, p50_p95, undisturbed_decile};
use crate::workloads::{Pass, Verdict};
use crate::Args;
use std::time::Instant;

/// Set-ups per run (`setup_s` is their median): at least `MIN_SETUPS`, then
/// more until `SETUP_SECONDS` have been spent on them or `MAX_SETUPS` made.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_SECONDS: f64 = 2.0;
/// Untimed passes before measuring: caches fill, lazy set-up finishes.
const WARMUP_PASSES: usize = 2;
/// Fewest timed passes, however slow the box.
const MIN_PASSES: usize = 3;

pub fn run(name: &str, args: &Args) -> Outcome {
    // Set-up repeats until it has been timed for a couple of seconds in
    // all, so a set-up of a fifth of a second is not judged on three tries.
    let mut setup_s = Vec::new();
    let mut load_rates = Vec::new();
    let mut workload = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        // Drop the previous instance first so two never coexist in memory.
        drop(workload.take());
        let t = Instant::now();
        let w = crate::setup(name, args.seed, args.quick);
        setup_s.push(t.elapsed().as_secs_f64());
        let load = w.table().load;
        if load.rows > 0 {
            load_rates.push(load.rows as f64 / load.write_s);
        }
        workload = Some(w);
        if args.quick {
            break;
        }
    }
    let mut w = workload.expect("at least one set-up");

    for _ in 0..WARMUP_PASSES {
        w.pass();
    }

    let mut verdict = Verdict::new(w.classes().len());
    let mut passes: Vec<Pass> = Vec::new();
    let mut measured = 0.0;
    while measured < args.seconds || passes.len() < MIN_PASSES {
        let t = Instant::now();
        let pass = w.pass();
        measured += t.elapsed().as_secs_f64();
        verdict.absorb(w.verify(&pass));
        passes.push(pass);
        if args.quick && passes.len() >= MIN_PASSES {
            break;
        }
    }

    let qps: Vec<f64> = passes.iter().map(|p| p.statements as f64 / p.busy_s).collect();
    let (p50, p95) = class_weighted_percentiles(&passes, w.classes().len());
    // Workloads that write in the timed section report that rate; the
    // read-only ones report the rate of their set-up ingest.
    let write_rates: Vec<f64> = passes
        .iter()
        .filter(|p| p.rows_written > 0)
        .map(|p| p.rows_written as f64 / p.write_s)
        .collect();
    let ingest =
        undisturbed_decile(if write_rates.is_empty() { &load_rates } else { &write_rates }, true);
    let stored =
        w.table().db.remote_store().total_bytes() as f64 / w.table().shadow.user_bytes() as f64;
    let rss_mb = bh_common::metrics::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    let recall = verdict.recall();

    let calls = passes[0].latencies_us.len();
    let mut notes = vec![
        format!(
            "  {} timed passes of {} statements after {WARMUP_PASSES} warm-up passes, {measured:.1} s measured; \
             set-up x{}",
            passes.len(),
            passes[0].statements,
            setup_s.len(),
        ),
        format!(
            "  latency sample: {calls} calls per pass, {} in all; percentiles per pass and filter class, \
             undisturbed decile of the passes, classes weighted by their share of calls",
            calls * passes.len(),
        ),
        format!("  qps per pass: {}", qps.iter().map(|q| format!("{q:.0}")).collect::<Vec<_>>().join(" ")),
    ];
    for (class, (sum, n)) in w.classes().iter().zip(&verdict.recall_by_class) {
        if *n > 0 {
            notes.push(format!("  recall[{class}] = {:.4} over {n} statements", sum / *n as f64));
        }
    }
    for fault in &verdict.faults {
        notes.push(format!("  FAULT: {fault}"));
    }
    let mut correct = verdict.failed == 0;
    if let Some(floor) = w.recall_floor() {
        if recall < floor {
            correct = false;
            notes.push(format!(
                "  FAULT: recall {recall:.4} is below this workload's floor {floor}"
            ));
        }
    }

    Outcome {
        attempted: verdict.attempted,
        failed: verdict.failed,
        correct,
        metrics: vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("qps", undisturbed_decile(&qps, true), "1/s"),
            metric("latency_p50_us", p50, "us"),
            metric("latency_p95_us", p95, "us"),
            metric("recall_at_k", recall, "ratio"),
            metric("ingest_rows_per_s", ingest, "1/s"),
            metric("stored_bytes_per_user_byte", stored, "ratio"),
            metric("peak_rss_mb", rss_mb, "MB"),
        ],
        notes,
    }
}

/// `(p50, p95)` over the passes. A workload mixes statement kinds whose
/// latencies differ several-fold, and a percentile of such a mixture sits on
/// the edge between two kinds and jumps with the slightest shift; so each
/// filter class gets its own percentiles per pass, and the classes are then
/// averaged by their share of the calls.
fn class_weighted_percentiles(passes: &[Pass], classes: usize) -> (f64, f64) {
    let total = passes[0].latencies_us.len() as f64;
    let (mut p50, mut p95) = (0.0, 0.0);
    for class in 0..classes {
        let per_pass: Vec<(f64, f64)> = passes
            .iter()
            .map(|p| {
                p.latencies_us
                    .iter()
                    .filter(|(c, _)| *c == class)
                    .map(|(_, us)| *us)
                    .collect::<Vec<_>>()
            })
            .filter(|sample| !sample.is_empty())
            .map(|sample| p50_p95(&sample))
            .collect();
        if per_pass.is_empty() {
            continue;
        }
        let share =
            passes[0].latencies_us.iter().filter(|(c, _)| *c == class).count() as f64 / total;
        p50 += share * undisturbed_decile(&per_pass.iter().map(|p| p.0).collect::<Vec<_>>(), false);
        p95 += share * undisturbed_decile(&per_pass.iter().map(|p| p.1).collect::<Vec<_>>(), false);
    }
    (p50, p95)
}
