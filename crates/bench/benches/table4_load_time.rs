//! **Table IV** — end-to-end load time of BlendHouse vs Milvus vs pgvector.
//!
//! Paper shape: BlendHouse < Milvus < pgvector on both datasets, because
//! BlendHouse pipelines per-segment index builds with segment writes, Milvus
//! builds segment indexes serially after writing, and pgvector builds one
//! monolithic index whose per-insert cost grows with graph size.
//!
//! All three build the same HNSW clause on the same disaggregated store:
//! a real-time 4 ms remote-store latency, so that the overlap between
//! segment persistence (remote I/O) and index construction (CPU) that
//! pipelining buys is observable even on a single-core host. BlendHouse and
//! Milvus differ only in ingest mode, and the two modes differ only in
//! where a statement waits out its column-block uploads: BlendHouse after
//! its index builds, so the uploads overlap them and each other, Milvus as
//! each upload begins, with its builds after them one at a time. Their gap
//! is the pipelining factor.

use bh_bench::datasets::DatasetSpec;
use bh_bench::harness::{print_table, Timer};
use bh_bench::setup::{System, TableOptions};
use bh_common::{DeploymentLatencies, LatencyModel};
use blendhouse::DatabaseConfig;
use std::time::Duration;

fn main() {
    let store = DatabaseConfig {
        real_time: true,
        latencies: DeploymentLatencies {
            remote_store: LatencyModel::new(Duration::from_millis(4), Duration::from_nanos(1)),
            rpc: LatencyModel::ZERO,
        },
        ..Default::default()
    };
    let mut rows = Vec::new();
    for spec in [DatasetSpec::cohere_sim(), DatasetSpec::openai_sim()] {
        let data = spec.generate();
        let secs = System::ALL.map(|sys| {
            let t = Timer::start();
            let db = sys.load(&data, store.clone(), &TableOptions::default());
            let secs = t.secs();
            drop(db);
            secs
        });
        let [bh, milvus, pgv] = secs;
        println!(
            "[table4] {}: BlendHouse {bh:.2}s | Milvus {milvus:.2}s | pgvector {pgv:.2}s",
            spec.name
        );
        rows.push(
            [spec.name.to_string(), format!("{} rows × {}d", spec.n, spec.dim)]
                .into_iter()
                .chain(secs.map(|s| format!("{s:.2}")))
                .collect(),
        );
        assert!(bh < milvus, "BlendHouse should load faster than Milvus");
        assert!(bh < pgv, "BlendHouse should load faster than pgvector");
    }
    let headers: Vec<&str> =
        ["dataset", "size"].into_iter().chain(System::ALL.map(System::name)).collect();
    print_table("Table IV: Load time of different systems (seconds)", &headers, &rows);
}
