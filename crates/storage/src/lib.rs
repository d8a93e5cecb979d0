//! # bh-storage — the LSM columnar storage engine under BlendHouse
//!
//! A from-scratch substitute for ByteHouse's storage layer, providing every
//! property the paper's design depends on:
//!
//! * **Immutable sorted segments** ([`segment`]) holding column data plus a
//!   per-segment vector index built exactly once (§III-B).
//! * **Multi-version updates** via delete bitmaps ([`delete`], held by
//!   [`table::TableVersion`], Fig. 6): an update writes a new segment and marks old rows deleted in
//!   the same committed version; queries filter through the bitmap;
//!   compaction garbage-collects.
//! * **Background compaction** ([`table`]) that merges small segments and
//!   rebuilds their vector index in the same task.
//! * **Scalar + semantic partitioning** ([`partition`]): `PARTITION BY`
//!   columns and `CLUSTER BY <vec> INTO n BUCKETS` k-means bucketing, both
//!   recorded in segment metadata for scheduler-side pruning (§IV-B).
//! * **Disaggregated persistence** ([`objectstore`]): all blobs live in a
//!   (simulated) remote shared store with injectable latency; compute stays
//!   stateless.
//! * **Hierarchical caches** ([`cache`], [`lru`]): the vector-index cache,
//!   an in-memory LRU over the remote store (§II-D), and the byte-weighted
//!   LRU that workers also cache decoded column data in.
//! * **Selectivity statistics** ([`stats`]): per-column min/max and
//!   equi-width histograms, one sketch per segment merged into each table
//!   version's, feeding the cost-based optimizer's `s` estimate.

pub mod cache;
pub mod column;
pub mod delete;
pub mod lru;
pub mod objectstore;
pub mod partition;
pub mod predicate;
pub mod schema;
pub mod segment;
pub mod stats;
pub mod table;
pub mod value;

pub use cache::{IndexCache, IndexedColumns};
pub use objectstore::{InMemoryObjectStore, PendingGet, SharedObjectStore};
pub use predicate::Predicate;
pub use schema::{ColumnDef, TableSchema, VectorIndexDef};
pub use segment::{Segment, SegmentMeta};
pub use table::{IngestMode, TableStore, TableStoreConfig, TableVersion};
pub use value::{ColumnType, Value};
