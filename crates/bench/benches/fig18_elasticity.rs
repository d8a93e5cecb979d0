//! **Fig. 18** — immediate QPS response to VW scaling (§V-C2).
//!
//! The VW scales 1 → 2 → 4 → 8 workers under a steady vector workload.
//! Capacity is modelled explicitly: each worker's per-segment search charges
//! a fixed service time on the wall clock (the host running this bench may
//! have a single core, so throughput must come from overlapping *charged*
//! time, exactly like a real cluster's parallel workers), and client
//! admission is capped by a slot pool sized to the worker count. With
//! vector search serving, newly added workers answer immediately via the
//! previous owners' caches, so QPS tracks capacity; with serving disabled,
//! each scale step pays a window of brute-force fallbacks (the dip the
//! paper contrasts against Manu's load-and-wait behaviour).
//!
//! What a moved segment is answered from is one decision,
//! `VirtualWarehouse::segment_index` (DESIGN.md §11.3), and a transfer in
//! flight comes before a serving peer in it. A statement through
//! `db.execute` — whose store defers transfers — therefore loads a moved
//! segment's index overlapped and waits for it, with serving on or off, so
//! the two columns do not differ here; serving through the engine is
//! exercised on blocking stores (`exec.rs`,
//! `moved_segment_is_served_by_its_previous_owner_on_a_blocking_store`).
//! Racing the serving RPC against the transfer would be one more arm of
//! that function (ROADMAP "One cold path").

use bh_bench::datasets::DatasetSpec;
use bh_bench::harness::{print_table, CpuPool};
use bh_bench::setup::{build_database, TableOptions};
use bh_bench::workloads::vector_search;
use bh_common::{DeploymentLatencies, LatencyModel};
use blendhouse::DatabaseConfig;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PHASES: [usize; 4] = [1, 2, 4, 8];
const PHASE_TIME: Duration = Duration::from_millis(1200);
const CLIENTS: usize = 8;

fn run(serving: bool) -> Vec<f64> {
    let data = DatasetSpec::cohere_sim().generate();
    let mut cfg = DatabaseConfig {
        real_time: true,
        latencies: DeploymentLatencies {
            remote_store: LatencyModel::new(Duration::from_micros(1_000), Duration::from_nanos(1)),
            local_disk: LatencyModel::ZERO,
            rpc: LatencyModel::fixed(Duration::from_micros(100)),
        },
        default_workers: 1,
        ..Default::default()
    };
    cfg.table.segment_max_rows = 1024;
    cfg.vw.serving_enabled = serving;
    cfg.vw.synchronous_warm = false;
    // Each per-segment search occupies a worker core for 300µs of charged
    // (overlappable) service time — capacity, not host cores, is the cap.
    cfg.vw.worker.compute_per_segment = LatencyModel::fixed(Duration::from_micros(300));
    let db = Arc::new(build_database(&data, cfg, &TableOptions::default()));
    db.preload("bench", "default").unwrap();

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
            handles.push(std::thread::spawn(move || {
                let mut qi = c;
                while !stop.load(Ordering::Relaxed) {
                    let _slot = pool.acquire();
                    let _ = db.execute(&sqls[qi % sqls.len()]);
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
    qps_by_phase
}

fn main() {
    let with_serving = run(true);
    let without = run(false);
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
    print_table(
        "Fig 18: QPS immediately after scaling (workers 1→2→4→8)",
        &["workers", "QPS (serving)", "QPS (no serving)", "scaling vs 1 worker"],
        &rows,
    );
}
