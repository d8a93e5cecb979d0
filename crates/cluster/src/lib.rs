//! # bh-cluster — the disaggregated compute layer
//!
//! Simulates the paper's virtual-warehouse architecture in-process while
//! preserving every behaviour the evaluation measures:
//!
//! * [`hashring`] — multi-probe consistent hashing (Fig. 3) for
//!   scaling-friendly segment→worker allocation.
//! * [`worker`] — stateless compute workers, each owning a hierarchical
//!   vector-index cache and decoded column-data caches; on an index cache miss
//!   a worker falls back to brute-force distance computation over the raw
//!   vector column (§II-D).
//! * [`vw`] — virtual warehouses: worker membership, scaling (with the
//!   previous-assignment map that powers **vector search serving**, Fig. 4),
//!   query-level retry on worker failure (§II-E), and cache-aware preload.
//! * [`scheduler`] — segment selection with scalar (zone-map/partition) and
//!   semantic (centroid-distance) pruning, including the runtime-adaptive
//!   reserve list (§IV-B).
//!
//! RPC between workers is a function call plus an injected latency charge;
//! worker failure is a flag that makes its operations return
//! [`bh_common::BhError::WorkerUnavailable`].

pub mod hashring;
pub mod scheduler;
pub mod vw;
pub mod worker;

pub use hashring::MultiProbeRing;
pub use scheduler::{PruneConfig, SegmentSelection};
pub use vw::{VirtualWarehouse, VwConfig};
pub use worker::{Worker, WorkerConfig};
