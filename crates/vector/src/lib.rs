//! # bh-vector — the pluggable vector index library
//!
//! A from-scratch Rust implementation of the index algorithms BlendHouse
//! consumes from hnswlib / faiss, exposed behind the paper's
//! "virtual vector index" abstraction (Fig. 5):
//!
//! * **Execution-layer interfaces**: [`VectorIndex::search_with_bound`]
//!   (`SearchWithFilter`), [`VectorIndex::search_with_range`], and
//!   [`VectorIndex::search_iterator`].
//! * **Storage-layer interfaces**: `CreateIndex` ([`registry::IndexRegistry::create_builder`]),
//!   `Train` / `AddWithIds` ([`IndexBuilder`]), and `SaveIndex` / `LoadIndex`
//!   ([`VectorIndex::save_bytes`] / [`registry::IndexRegistry::load_blob`]).
//!
//! ## Index types
//!
//! | Kind | Group | Backing module |
//! |------|-------|----------------|
//! | `FLAT` | exact | [`flat`] |
//! | `HNSW` | graph | [`hnsw`] |
//! | `HNSWSQ` | graph + scalar quantization | [`hnsw`] over [`quant::sq`] |
//! | `IVFFLAT` | inverted file | [`ivf`] |
//! | `IVFPQ` | inverted file + product quantization | [`ivf`] over [`quant::pq`] |
//! | `IVFPQFS` | inverted file + 4-bit PQ (fast-scan layout) | [`ivf`] |
//!
//! Quantized indexes return *approximate* distances; the query executor
//! optionally refines the top `σ·k` candidates with exact distances fetched
//! from the vector column (the `σ × k × c_d` term of the paper's cost model).
//!
//! ## Pluggability
//!
//! BlendHouse instantiates indexes only through [`registry::IndexRegistry`],
//! whose `create_builder` and `load_blob` are each one `match` on the kind.
//! A new library is one arm in each plus a [`VectorIndex`] / [`IndexBuilder`]
//! impl, and no engine layer changes — the extensibility claim of §III-A.

pub mod autoindex;
pub mod codec;
pub mod distance;
pub mod flat;
pub mod hnsw;
pub mod iterator;
pub mod ivf;
pub mod kmeans;
pub mod quant;
pub mod recall;
pub mod registry;
pub mod types;

pub use distance::Metric;
pub use iterator::{GenericSearchIterator, SearchIterator};
pub use registry::IndexRegistry;
pub use types::{
    build_pool, BoundedTopK, GraphScan, IndexBuilder, IndexGroup, IndexKind, IndexMeta, IndexSpec,
    Neighbor, SearchParams, VectorIndex,
};
