//! # bh-query — the hybrid query engine
//!
//! Turns parsed SQL into executed hybrid queries over the storage and
//! cluster layers, implementing §II-C and §IV of the paper:
//!
//! * [`bind`] — semantic analysis: AST → typed predicate + vector-query
//!   component (distance ORDER BY, distance range constraints, top-k).
//! * [`plan`] — logical plans and the rule-based optimizations (distance
//!   top-k pushdown, distance range-filter pushdown, vector column pruning).
//! * [`cost`] — the accuracy-aware cost model (Table II, Eqs. 1–3) choosing
//!   among Plan A (brute force), Plan B (pre-filter ANN bitmap scan),
//!   Plan C (post-filter iterative search) and Plan D (filter-aware graph
//!   traversal, graph indexes only), for every statement.
//! * [`exec`] — the distributed executor: scheduling with pruning, the four
//!   physical strategies, refine, adaptive segment expansion, global top-k
//!   merge, and projection fetch.

pub mod bind;
pub mod cost;
pub mod exec;
pub mod plan;
pub mod result;

pub use bind::{bind_select, BoundSelect, VectorQuery};
pub use cost::{CostParams, Strategy};
pub use exec::{QueryEngine, QueryOptions};
pub use result::ResultSet;
