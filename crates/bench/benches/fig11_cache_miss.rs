//! **Fig. 11** — query latency under a vector-index cache miss: local search
//! (index resident) vs vector search serving (RPC to the previous owner) vs
//! brute-force fallback (§II-D, §V-B2).
//!
//! Paper shape: brute force is an order of magnitude (14.5x there) slower
//! than local; serving adds only a small RPC overhead (+16.6% there),
//! eliminating the fluctuation.

use bh_bench::datasets::DatasetSpec;
use bh_bench::harness::{fmt_duration, measure_latency, print_table};
use bh_cluster::worker::{Worker, WorkerConfig};
use bh_common::ids::IdGenerator;
use bh_common::{LatencyModel, MetricsRegistry, RealClock, WorkerId};
use bh_storage::objectstore::InMemoryObjectStore;
use bh_storage::schema::TableSchema;
use bh_storage::table::{TableStore, TableStoreConfig};
use bh_storage::value::{ColumnType, Value};
use bh_vector::{IndexKind, IndexRegistry, Metric, SearchParams, VectorIndex};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let data = DatasetSpec::cohere_sim().generate();
    let clock = RealClock::shared();
    let metrics = MetricsRegistry::new();
    // Remote store with realistic (scaled) latency: 2ms + ~1GB/s.
    let remote = Arc::new(InMemoryObjectStore::new(
        clock.clone(),
        LatencyModel::new(Duration::from_micros(2_000), Duration::from_nanos(1)),
        metrics.clone(),
        "remote",
    ));
    let schema = TableSchema::new("t")
        .with_column("id", ColumnType::UInt64)
        .with_column("emb", ColumnType::Vector(data.dim()))
        .with_vector_index("ann", "emb", IndexKind::Hnsw, data.dim(), Metric::L2);
    let table = TableStore::new(
        schema,
        remote.clone(),
        Arc::new(IndexRegistry::with_builtins()),
        TableStoreConfig { segment_max_rows: data.n(), ..Default::default() },
        Arc::new(IdGenerator::new()),
        metrics.clone(),
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..data.n())
        .map(|i| vec![Value::UInt64(i as u64), Value::Vector(data.vector(i).to_vec())])
        .collect();
    table.insert_rows(rows).unwrap();
    let meta = table.segments()[0].clone();

    let mk_worker = |id: u64, data_cache: usize| {
        Worker::new(
            WorkerId(id),
            WorkerConfig { block_data_bytes: data_cache, ..Default::default() },
            remote.clone(),
            None,
            table.registry().clone(),
            clock.clone(),
            metrics.clone(),
        )
    };
    // Worker A: warm (the pre-scaling owner). Worker B: cold newcomer with a
    // tiny block cache (its data is genuinely not local).
    let warm = mk_worker(1, 128 << 20);
    warm.warm_index(&meta).unwrap();
    // The standardized `cache.*` counter names are part of the observability
    // contract; fail fast if an instrumentation rename drifts.
    assert!(
        metrics.counter_value("cache.index.remote.fetch") >= 1,
        "warming must record a cache.index.remote.fetch"
    );
    let cold = mk_worker(2, 0);

    let q = data.queries(8, 0);
    let params = SearchParams::default().with_ef(64);
    let rpc = LatencyModel::fixed(Duration::from_micros(50));

    // The three answers `VirtualWarehouse::segment_index` can resolve to, each
    // through the entry it ends in.
    let top10 =
        |idx: &dyn VectorIndex, q: &[f32]| idx.search_with_bound(q, 10, &params, None, None);
    let mut qi = 0;
    let local = measure_latency(64, || {
        let idx = warm.index_handle(&meta).unwrap().expect("the segment has an index");
        std::hint::black_box(top10(idx.as_ref(), &q[qi % q.len()]).unwrap());
        qi += 1;
    });

    let mut qi = 0;
    let serving = measure_latency(64, || {
        // The newcomer charges the RPC and the previous owner answers.
        cold.charge_rpc(&rpc, data.dim() * 4);
        std::hint::black_box(warm.serve_remote(&meta, |idx| top10(idx, &q[qi % q.len()])).unwrap());
        qi += 1;
    });

    let mut qi = 0;
    let brute = measure_latency(8, || {
        std::hint::black_box(
            cold.brute_force_segment_bounded(&table, &meta, &q[qi % q.len()], 10, None, None)
                .unwrap(),
        );
        qi += 1;
    });

    let rows = vec![
        vec!["local search".into(), fmt_duration(local), "1.00x".into()],
        vec![
            "vector search serving".into(),
            fmt_duration(serving),
            format!("{:.2}x", serving.as_secs_f64() / local.as_secs_f64()),
        ],
        vec![
            "brute force (cache miss)".into(),
            fmt_duration(brute),
            format!("{:.2}x", brute.as_secs_f64() / local.as_secs_f64()),
        ],
    ];
    println!(
        "[fig11] local {} | serving {} | brute {}",
        fmt_duration(local),
        fmt_duration(serving),
        fmt_duration(brute)
    );
    assert!(serving < brute, "serving must beat the brute-force fallback");
    assert!(local < serving, "serving pays an RPC overhead over local");
    assert!(
        metrics.counter_value("cache.index.mem.hit") > 0,
        "local searches must record cache.index.mem.hit"
    );
    print_table(
        "Fig 11: latency of local search, vector search serving, brute force",
        &["mode", "mean latency", "vs local"],
        &rows,
    );
}
