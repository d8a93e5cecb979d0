//! Hermetic end-to-end benchmark of the BlendHouse stack.
//!
//! One invocation runs one workload (or all four) against the real library
//! crates, checks every result for correctness, and prints every metric by
//! name and unit. The last line of standard output is one JSON object per
//! the contract in `BENCHMARK.json`: with `--trace 0` the end-to-end
//! metrics (tracing off), with `--trace 1` the per-layer metrics of a
//! separate traced run. See `benchmark/README.md`.

mod e2e;
mod gen;
mod layers;
mod report;
mod shadow;
mod stats;
mod workloads;

use workloads::{cold_batch, deep_hybrid, ingest_mixed, point_topk, Workload};

pub const WORKLOADS: &[&str] = &["point_topk", "deep_hybrid", "cold_batch", "ingest_mixed"];

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out_dir: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: bh-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] \
         [--quick] [--out-dir DIR]\n  workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        out_dir: "benchmark/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name");
                if !WORKLOADS.contains(&w.as_str()) {
                    eprintln!("unknown workload {w}");
                    usage();
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value("a number").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value("a number").parse().unwrap_or_else(|_| usage());
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--traced" => args.trace = true,
            "--quick" => args.quick = true,
            "--out-dir" => args.out_dir = value("a directory"),
            _ => usage(),
        }
    }
    args
}

/// Build one workload instance; this call *is* the set-up the benchmark
/// times: data generation, DDL, ingest with index build, preload, SQL text
/// and ground truth.
pub fn setup(name: &str, seed: u64, quick: bool) -> Box<dyn Workload> {
    macro_rules! size {
        ($m:ident) => {
            if quick {
                $m::Size::quick()
            } else {
                $m::Size::full()
            }
        };
    }
    match name {
        "point_topk" => Box::new(point_topk::PointTopk::setup(seed, size!(point_topk))),
        "deep_hybrid" => Box::new(deep_hybrid::DeepHybrid::setup(seed, size!(deep_hybrid))),
        "cold_batch" => Box::new(cold_batch::ColdBatch::setup(seed, size!(cold_batch))),
        "ingest_mixed" => Box::new(ingest_mixed::IngestMixed::setup(seed, size!(ingest_mixed))),
        other => unreachable!("workload {other} was validated at parse time"),
    }
}

fn main() {
    let args = parse_args();
    report::print_environment(&args);
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    for name in names {
        let outcome = if args.trace { layers::run(name, &args) } else { e2e::run(name, &args) };
        report::print_outcome(name, &outcome);
    }
}
