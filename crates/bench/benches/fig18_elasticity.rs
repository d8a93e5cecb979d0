//! **Fig. 18** — immediate QPS response to VW scaling (§V-C2).
//!
//! The VW scales 1 → 2 → 4 → 8 workers under a steady vector workload.
//! Capacity is modelled explicitly: each worker's per-segment search charges
//! a fixed service time on the wall clock (the host running this bench may
//! have a single core, so throughput must come from overlapping *charged*
//! time, exactly like a real cluster's parallel workers), and client
//! admission is capped by a slot pool sized to the worker count.
//!
//! What a moved segment is answered from is one decision,
//! `VirtualWarehouse::segment_index` (DESIGN.md §11.3): serve first, wait
//! second. The first statement to find a segment cold on its new owner starts
//! the index transfer (all of a round's at once, so they overlap). With
//! vector search serving, that statement and every one after it answer
//! through the previous owner's cache — one RPC per search — until the
//! transfer has arrived, so a scale step costs no statement a blob get and
//! QPS tracks capacity. With serving disabled, each of those statements
//! waits the transfer out instead: the dip is one blob get (≈ 20 ms here)
//! per client per scale step, far from Manu's load-and-wait of a whole
//! collection and small against a 1.2 s phase, so the two QPS columns are
//! close; what separates them is asserted below — serving calls happen with
//! serving on and never without.
//!
//! The statements are forced through the index (Plan C): the cold index path
//! is the subject, and at a reduced `BH_BENCH_SCALE` the optimizer would scan.

use bh_bench::datasets::DatasetSpec;
use bh_bench::harness::{print_table, CpuPool};
use bh_bench::setup::{build_database, TableOptions};
use bh_bench::workloads::vector_search;
use bh_common::{DeploymentLatencies, LatencyModel};
use blendhouse::{DatabaseConfig, QueryOptions, Strategy};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PHASES: [usize; 4] = [1, 2, 4, 8];
const PHASE_TIME: Duration = Duration::from_millis(1200);
const CLIENTS: usize = 8;

/// QPS per phase, and the serving RPCs the whole run made.
fn run(serving: bool) -> (Vec<f64>, u64) {
    let data = DatasetSpec::cohere_sim().generate();
    let mut cfg = DatabaseConfig {
        real_time: true,
        latencies: DeploymentLatencies {
            // An index blob takes longer to arrive than a statement spends on
            // its resident segments (which every round searches first), so a
            // moved segment's task does find its transfer still on its way.
            remote_store: LatencyModel::new(Duration::from_millis(20), Duration::from_nanos(1)),
            local_disk: LatencyModel::ZERO,
            rpc: LatencyModel::fixed(Duration::from_micros(100)),
        },
        default_workers: 1,
        ..Default::default()
    };
    cfg.table.segment_max_rows = 1024;
    cfg.vw.serving_enabled = serving;
    // Each per-segment search occupies a worker core for 300µs of charged
    // (overlappable) service time — capacity, not host cores, is the cap.
    cfg.vw.worker.compute_per_segment = LatencyModel::fixed(Duration::from_micros(300));
    let db = Arc::new(build_database(&data, cfg, &TableOptions::default()));
    db.preload("bench", "default").unwrap();
    let opts = Arc::new(QueryOptions {
        forced_strategy: Some(Strategy::PostFilter),
        ..db.default_options()
    });

    let sqls: Arc<Vec<String>> = Arc::new(
        vector_search(&data, 32, 10, 11)
            .iter()
            .map(|q| q.to_sql("bench", "emb"))
            .collect(),
    );

    let mut qps_by_phase = Vec::new();
    let vw = db.vw("default").unwrap();
    for (pi, &workers) in PHASES.iter().enumerate() {
        // Scale up to the phase's worker count (records previous owners so
        // serving can route).
        let segments = db.table("bench").unwrap().segments();
        while vw.worker_count() < workers {
            vw.scale_up(&segments);
        }
        let pool = Arc::new(CpuPool::new(workers));
        let stop = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let db = db.clone();
            let pool = pool.clone();
            let stop = stop.clone();
            let done = done.clone();
            let sqls = sqls.clone();
            let opts = opts.clone();
            handles.push(std::thread::spawn(move || {
                let mut qi = c;
                while !stop.load(Ordering::Relaxed) {
                    let _slot = pool.acquire();
                    let _ = db.execute_with(&sqls[qi % sqls.len()], &opts);
                    done.fetch_add(1, Ordering::Relaxed);
                    qi += 1;
                }
            }));
        }
        let start = Instant::now();
        std::thread::sleep(PHASE_TIME);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        let qps = done.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64();
        println!(
            "[fig18] serving={serving} phase {} ({} workers): {qps:.0} qps",
            pi + 1,
            workers
        );
        qps_by_phase.push(qps);
    }
    (qps_by_phase, db.metrics().counter_value("vw.serving_calls"))
}

fn main() {
    let (with_serving, served) = run(true);
    let (without, unserved) = run(false);
    let mut rows = Vec::new();
    for (i, &w) in PHASES.iter().enumerate() {
        rows.push(vec![
            format!("{w}"),
            format!("{:.0}", with_serving[i]),
            format!("{:.0}", without[i]),
            format!("{:.2}x", with_serving[i] / with_serving[0]),
        ]);
    }
    assert!(
        with_serving[3] > with_serving[0] * 2.0,
        "QPS should grow substantially with workers: {:?}",
        with_serving
    );
    assert!(served > 0, "moved segments were never served by their previous owners");
    assert_eq!(unserved, 0, "serving is off");
    println!("[fig18] serving RPCs: {served} with serving, {unserved} without");
    print_table(
        "Fig 18: QPS immediately after scaling (workers 1→2→4→8)",
        &["workers", "QPS (serving)", "QPS (no serving)", "scaling vs 1 worker"],
        &rows,
    );
}
