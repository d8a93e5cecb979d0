//! What a run prints: the environment line, the metric table, and the JSON
//! result line the driver reads.

use crate::Args;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Result of running one workload once.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// No failed operation and no recall floor broken.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Free-form lines for the human reader (sample counts, faults, tables).
    pub notes: Vec<String>,
}

/// `nproc`, kernel tier, toolchain, commit and seed — printed with every
/// run because every number depends on them. `run.sh` supplies the two the
/// binary cannot know.
pub fn print_environment(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!(
        "# env: nproc={nproc} kernel={} rustc=\"{}\" commit={} seed={} seconds={} sizes={} build=shimmed-offline",
        bh_vector::distance::KernelTier::current().name(),
        env("BENCH_RUSTC"),
        env("BENCH_COMMIT"),
        args.seed,
        args.seconds,
        if args.quick { "quick" } else { "full" },
    );
}

/// JSON number with all digits; non-finite values cannot be represented
/// and mean a bug in the benchmark, so they abort loudly.
fn json_number(name: &str, v: f64) -> String {
    assert!(v.is_finite(), "metric {name} is not finite: {v}");
    format!("{v}")
}

pub fn print_outcome(workload: &str, o: &Outcome) {
    println!("## {workload}");
    for note in &o.notes {
        println!("{note}");
    }
    let width = o.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in &o.metrics {
        println!("  {:<width$}  {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  attempted={} failed={} failed_ops_share={} correct={}",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64,
        o.correct
    );
    if !o.correct {
        eprintln!("FAILED: {workload} produced incorrect results (see notes above)");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.name, m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
}
