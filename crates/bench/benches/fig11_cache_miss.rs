//! **Fig. 11** — query latency under a vector-index cache miss: local search
//! (index resident) vs vector search serving (RPC to the previous owner) vs
//! brute-force fallback (§II-D, §V-B2).
//!
//! Paper shape: brute force is an order of magnitude (14.5x there) slower
//! than local; serving adds only a small RPC overhead (+16.6% there),
//! eliminating the fluctuation.

use bh_bench::datasets::DatasetSpec;
use bh_bench::harness::{fmt_duration, measure_latency, print_table};
use bh_cluster::vw::{SegmentIndex, VirtualWarehouse, VwConfig};
use bh_cluster::worker::{Worker, WorkerConfig};
use bh_common::ids::IdGenerator;
use bh_common::{LatencyModel, MetricsRegistry, RealClock, VwId, WorkerId};
use bh_storage::objectstore::InMemoryObjectStore;
use bh_storage::schema::TableSchema;
use bh_storage::table::{TableStore, TableStoreConfig};
use bh_storage::value::{ColumnType, Value};
use bh_vector::{IndexKind, Metric, SearchParams, VectorIndex};
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
        Arc::new(Worker::new(
            WorkerId(id),
            WorkerConfig { block_data_bytes: data_cache, ..Default::default() },
            remote.clone(),
            clock.clone(),
            metrics.clone(),
            Arc::default(),
        ))
    };
    // Worker A: warm (the pre-scaling owner). Worker B: cold newcomer with a
    // tiny data cache (its data is genuinely not local).
    let warm = mk_worker(1, 128 << 20);
    warm.warm_index(&meta).unwrap();
    // The standardized `cache.*` counter names are part of the observability
    // contract; fail fast if an instrumentation rename drifts.
    assert!(
        metrics.counter_value("cache.index.remote.fetch") >= 1,
        "warming must record a cache.index.remote.fetch"
    );
    let cold = mk_worker(2, 0);

    // The hand-made workers stand for the owners; the warehouse supplies
    // the one search path and its serving RPC model.
    let vw = VirtualWarehouse::new(
        VwId(0),
        "fig11",
        VwConfig { rpc: LatencyModel::fixed(Duration::from_micros(50)), ..Default::default() },
        remote.clone(),
        clock.clone(),
        metrics.clone(),
        Arc::new(IdGenerator::new()),
    );
    let q = data.queries(8, 0);
    let params = SearchParams::default().with_ef(64);

    // The three answers `VirtualWarehouse::segment_index` can resolve to, each
    // through the entry the engine searches it with.
    let search = |owner: &Worker, index: &SegmentIndex, q: &[f32]| {
        vw.search_index(owner, &meta, index, data.dim() * 4, |idx: &dyn VectorIndex| {
            idx.search_with_bound(q, 10, &params, None, None)
        })
    };
    let mut qi = 0;
    let local = measure_latency(64, || {
        let idx = warm.index_handle(&meta).unwrap().expect("the segment has an index");
        std::hint::black_box(search(&warm, &SegmentIndex::Local(idx), &q[qi % q.len()]).unwrap());
        qi += 1;
    });

    // The newcomer pays the RPC and the previous owner answers.
    let served = SegmentIndex::Served(warm.clone());
    let mut qi = 0;
    let serving = measure_latency(64, || {
        std::hint::black_box(search(&cold, &served, &q[qi % q.len()]).unwrap());
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

    let modes = [
        ("local search", local),
        ("vector search serving", serving),
        ("brute force (cache miss)", brute),
    ];
    let rows: Vec<Vec<String>> = modes
        .into_iter()
        .map(|(mode, t)| {
            let vs_local = t.as_secs_f64() / local.as_secs_f64();
            vec![mode.into(), fmt_duration(t), format!("{vs_local:.2}x")]
        })
        .collect();
    print_table(
        "Fig 11: latency of local search, vector search serving, brute force",
        &["mode", "mean latency", "vs local"],
        &rows,
    );
    assert!(serving < brute, "serving must beat the brute-force fallback");
    assert!(local < serving, "serving pays an RPC overhead over local");
    assert!(
        metrics.counter_value("cache.index.mem.hit") > 0,
        "local searches must record cache.index.mem.hit"
    );
}
