//! # bh-query — the hybrid query engine
//!
//! Turns parsed SQL into executed hybrid queries over the storage and
//! cluster layers, implementing §II-C and §IV of the paper:
//!
//! * [`bind`] — semantic analysis: AST → typed predicate + vector-query
//!   component (distance ORDER BY, distance range constraints, top-k).
//! * [`cost`] — the accuracy-aware cost model (Table II, Eqs. 1–3) choosing
//!   among Plan A (brute force), Plan B (pre-filter ANN bitmap scan),
//!   Plan C (post-filter iterative search) and Plan D (filter-aware graph
//!   traversal, graph indexes only), for every statement.
//! * [`finish`] — the one sort / LIMIT / project / aggregate step every
//!   scalar SELECT ends in, on a data table or a `system.*` snapshot.
//! * [`exec`] — the plan step (the one EXPLAIN prints) and the distributed
//!   executor: scheduling with pruning, the four physical strategies,
//!   refine, adaptive segment expansion, global top-k merge, and projection
//!   fetch. The paper's three rule-based rewrites (§II-C: distance top-k
//!   pushdown, distance range pushdown, vector column pruning) are
//!   properties the executor has by construction, not a pass over a tree.

pub mod bind;
pub mod cost;
pub mod exec;
pub mod finish;
pub mod result;

pub use bind::{bind_select, BoundSelect, VectorQuery};
pub use cost::{CostParams, Strategy};
pub use exec::{QueryEngine, QueryOptions};
pub use finish::finish_scalar;
pub use result::ResultSet;
