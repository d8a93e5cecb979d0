//! Shared primitives for BlendHouse-rs.
//!
//! This crate holds the small, dependency-light building blocks used by every
//! other crate in the workspace:
//!
//! * [`error`] — the workspace-wide error type.
//! * [`ids`] — strongly-typed identifiers for segments, workers, tables, rows.
//! * [`bitset`] — a compact fixed-size bitset used for delete bitmaps and
//!   pre-filter row masks.
//! * [`topk`] — a bounded max-heap top-k collector used by every search path.
//! * [`bound`] — an atomic shared k-th-distance upper bound that lets
//!   batched/fanned-out scans skip candidates which cannot reach the top-k.
//! * [`cursor`] — the work-stealing claim counter behind intra-query and
//!   compaction fan-out, and the persistent caller-first helper pool the
//!   query path fans out on.
//! * [`loom`] — an in-tree model checker (loom-lite) that exhaustively
//!   explores interleavings of the lock-free paths under `--cfg loom`.
//! * [`cq`] — a completion-queue reactor over the shared clock so
//!   simultaneous simulated transfers overlap (cost `max`) instead of
//!   serializing (cost `sum`).
//! * [`clock`] — real and virtual clocks plus latency models, so the
//!   disaggregated-architecture simulation can inject remote-storage and RPC
//!   latencies deterministically in tests and realistically in benchmarks.
//! * [`metrics`] — lightweight counters and histograms for instrumenting cache
//!   hits, RPC calls, and I/O, with a Prometheus text exposition.
//! * [`trace`] — hierarchical spans over a lock-free ring recorder; the
//!   profiling layer behind `EXPLAIN ANALYZE` (near-zero cost when disabled).
//! * [`qctx`] — the per-statement context: identity, chosen plan and the
//!   one tally of stage times and work counters, installed on whichever
//!   thread works for the statement.
//! * [`querylog`] — the always-on query log: a bounded record ring written
//!   once per completed statement, plus slow-query span-tree retention and
//!   chrome://tracing export; the data source of `system.query_log`.
//! * [`rng`] — seeded RNG construction helpers for reproducible experiments.
//! * [`sync`] — ranked `Mutex`/`RwLock`/`Condvar` wrappers with a
//!   lockdep-style runtime checker (debug / `--cfg lockdep`): every lock
//!   carries a `LockClass` from one in-tree rank table, nested acquisitions
//!   must strictly increase in rank, and violations panic with both class
//!   names instead of deadlocking.

pub mod bitset;
pub mod bound;
pub mod clock;
pub mod cq;
pub mod cursor;
pub mod error;
pub mod ids;
pub mod loom;
pub mod metrics;
pub mod qctx;
pub mod querylog;
pub mod regex_lite;
pub mod rng;
pub mod sync;
pub mod topk;
pub mod trace;

pub use bitset::Bitset;
pub use bound::SharedBound;
pub use cursor::{Fanout, FanoutPool, StealingCursor};
pub use clock::{
    Clock, DeploymentLatencies, LatencyModel, RealClock, SharedClock, Stopwatch, VirtualClock,
};
pub use cq::{Reactor, Ticket};
pub use error::{BhError, Result};
pub use ids::{RowId, SegmentId, TableId, VwId, WorkerId};
pub use metrics::MetricsRegistry;
pub use qctx::{QueryCtx, StatementCounters, StatementWork};
pub use querylog::{QueryLog, QueryLogRecord, SlowQueryPolicy, SlowQueryTrace};
pub use topk::TopK;
pub use trace::{AttrValue, Span, SpanId, SpanRecord};
