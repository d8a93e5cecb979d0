//! The "virtual vector index" abstraction (paper Fig. 5).
//!
//! BlendHouse never talks to a concrete index algorithm directly. The storage
//! layer builds indexes through [`IndexBuilder`] (`Train`, `AddWithIds`,
//! `CreateIndex`) and persists them via [`VectorIndex::save_bytes`]
//! (`SaveIndex`); the execution layer searches through
//! [`VectorIndex::search_with_bound`] (the paper's `SearchWithFilter`) and
//! [`VectorIndex::search_iterator`], which the one pull
//! [`crate::iterator::search_with_range`] (`SearchWithRange`) drives.
//! A new index library plugs in by implementing the two required search
//! methods and [`IndexBuilder`], plus one arm in each of
//! [`crate::registry::IndexRegistry`]'s two `match`es.

use crate::distance::Metric;
use crate::iterator::SearchIterator;
use bh_common::{BhError, Bitset, FanoutPool, Result, SharedBound, TopK};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// One search hit: a segment-local row offset (`id`) and its distance.
///
/// Per-segment indexes label vectors with *row offsets* rather than primary
/// keys (§III-B "Per segment vector index"), so mapping between vector hits
/// and scalar columns is a direct array access.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Segment-local row offset of the hit.
    pub id: u64,
    /// Distance under the index metric (smaller = more similar).
    pub distance: f32,
}

impl Neighbor {
    /// Construct a hit from a row offset and its distance.
    pub fn new(id: u64, distance: f32) -> Self {
        Self { id, distance }
    }
}

/// The index algorithms BlendHouse supports, grouped as in §III-A:
/// graph-based (HNSW, HNSWSQ) and IVF-based (IVFFLAT, IVFPQ, IVFPQFS).
/// `Flat` declares the vector column and metric with no index structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexKind {
    /// No index structure: every search is the exact scan of the column.
    Flat,
    /// Hierarchical navigable small world graph.
    Hnsw,
    /// HNSW over 8-bit scalar-quantized vectors.
    HnswSq,
    /// Inverted file with raw vectors per cell.
    IvfFlat,
    /// Inverted file with 8-bit product-quantized residuals.
    IvfPq,
    /// Inverted file with 4-bit PQ residuals (fast-scan layout).
    IvfPqFs,
}

/// Algorithm family, used for coarse capability checks and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexGroup {
    /// Graph-traversal indexes (HNSW family).
    Graph,
    /// Inverted-file indexes.
    Ivf,
}

impl IndexKind {
    /// Every kind, in declaration order.
    pub const ALL: [IndexKind; 6] = [
        IndexKind::Flat,
        IndexKind::Hnsw,
        IndexKind::HnswSq,
        IndexKind::IvfFlat,
        IndexKind::IvfPq,
        IndexKind::IvfPqFs,
    ];

    /// Parse the SQL-facing type name (`INDEX ann_idx embedding TYPE HNSW(...)`).
    pub fn parse(s: &str) -> Result<IndexKind> {
        match s.to_ascii_uppercase().as_str() {
            "FLAT" => Ok(IndexKind::Flat),
            "HNSW" => Ok(IndexKind::Hnsw),
            "HNSWSQ" | "HNSW_SQ" => Ok(IndexKind::HnswSq),
            "IVFFLAT" | "IVF_FLAT" => Ok(IndexKind::IvfFlat),
            "IVFPQ" | "IVF_PQ" => Ok(IndexKind::IvfPq),
            "IVFPQFS" | "IVF_PQ_FS" | "IVFPQ_FS" => Ok(IndexKind::IvfPqFs),
            other => {
                let known: Vec<&str> = IndexKind::ALL.iter().map(IndexKind::name).collect();
                Err(BhError::InvalidArgument(format!(
                    "unknown index type: {other} (supported: {})",
                    known.join(", ")
                )))
            }
        }
    }

    /// Canonical SQL-facing name.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Flat => "FLAT",
            IndexKind::Hnsw => "HNSW",
            IndexKind::HnswSq => "HNSWSQ",
            IndexKind::IvfFlat => "IVFFLAT",
            IndexKind::IvfPq => "IVFPQ",
            IndexKind::IvfPqFs => "IVFPQFS",
        }
    }

    /// Algorithm family of this kind; `None` for FLAT, which has no index
    /// structure.
    pub fn group(&self) -> Option<IndexGroup> {
        match self {
            IndexKind::Flat => None,
            IndexKind::Hnsw | IndexKind::HnswSq => Some(IndexGroup::Graph),
            IndexKind::IvfFlat | IndexKind::IvfPq | IndexKind::IvfPqFs => Some(IndexGroup::Ivf),
        }
    }

    /// Whether the index holds quantized codes (SQ/PQ): its distances are
    /// approximate, so searches over-fetch and refine on the raw vectors.
    /// Agrees with [`VectorIndex::needs_refine`] of every index of the kind.
    pub fn is_quantized(&self) -> bool {
        matches!(self, IndexKind::HnswSq | IndexKind::IvfPq | IndexKind::IvfPqFs)
    }

    /// Whether the index's blob holds the graph alone and a load takes the
    /// segment's vector column beside it (raw `HNSW`): every vector is
    /// stored once, in its column.
    pub fn loads_column(&self) -> bool {
        matches!(self, IndexKind::Hnsw)
    }

    /// Whether building requires a training pass (k-means for IVF/PQ).
    pub fn requires_training(&self) -> bool {
        matches!(
            self,
            IndexKind::IvfFlat | IndexKind::IvfPq | IndexKind::IvfPqFs | IndexKind::HnswSq
        )
    }
}

/// Full specification of an index: algorithm, dimensionality, metric and
/// algorithm-specific build parameters (string-keyed, mirroring the SQL
/// `TYPE HNSW('DIM=960', 'M=32')` syntax).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexSpec {
    /// Algorithm to build.
    pub kind: IndexKind,
    /// Vector dimensionality.
    pub dim: usize,
    /// Distance metric.
    pub metric: Metric,
    /// Algorithm-specific build parameters (lower-cased keys).
    pub params: BTreeMap<String, String>,
    /// The table column the index is built over, which an HNSW blob names
    /// (empty outside a table).
    #[serde(default)]
    pub column: String,
}

impl IndexSpec {
    /// A spec with no algorithm-specific parameters.
    pub fn new(kind: IndexKind, dim: usize, metric: Metric) -> Self {
        Self { kind, dim, metric, params: BTreeMap::new(), column: String::new() }
    }

    /// The same spec, built over table column `column`.
    pub fn on_column(mut self, column: &str) -> Self {
        self.column = column.to_string();
        self
    }

    /// Builder-style parameter setter.
    pub fn with_param(mut self, key: &str, value: impl ToString) -> Self {
        self.params.insert(key.to_ascii_lowercase(), value.to_string());
        self
    }

    /// Read a numeric parameter with a default.
    pub fn param_usize(&self, key: &str, default: usize) -> Result<usize> {
        match self.params.get(&key.to_ascii_lowercase()) {
            None => Ok(default),
            Some(v) => v.parse::<usize>().map_err(|_| {
                BhError::InvalidArgument(format!("index param {key}={v} is not an integer"))
            }),
        }
    }

    /// Validate the spec before any build: `DIM` > 0 for every kind, and
    /// each kind's build parameters within the range it can build with.
    /// Every builder calls this, and CREATE TABLE does through the schema.
    pub fn validate(&self) -> Result<()> {
        if self.dim == 0 {
            return Err(BhError::InvalidArgument("index dim must be > 0".into()));
        }
        match self.kind {
            IndexKind::Flat => {}
            IndexKind::Hnsw | IndexKind::HnswSq => {
                let m = self.param_usize("m", 16)?;
                if !(2..=512).contains(&m) {
                    return Err(BhError::InvalidArgument(format!(
                        "index param M={m} must be in 2..=512"
                    )));
                }
            }
            IndexKind::IvfFlat | IndexKind::IvfPq | IndexKind::IvfPqFs => {
                let nlist = self.param_usize("nlist", 0)?;
                if nlist > crate::autoindex::MAX_NLIST {
                    return Err(BhError::InvalidArgument(format!(
                        "index param NLIST={nlist} must be in 0..={} (0 picks it from the rows)",
                        crate::autoindex::MAX_NLIST
                    )));
                }
                let pq_m = self.param_usize("pq_m", 0)?;
                if self.kind != IndexKind::IvfFlat && pq_m > 0 && !self.dim.is_multiple_of(pq_m) {
                    return Err(BhError::InvalidArgument(format!(
                        "index param PQ_M={pq_m} must divide DIM={} (or be 0 for the default)",
                        self.dim
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Immutable descriptive metadata of a built index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexMeta {
    /// Algorithm of the built index.
    pub kind: IndexKind,
    /// Vector dimensionality.
    pub dim: usize,
    /// Distance metric.
    pub metric: Metric,
    /// Number of indexed vectors.
    pub len: usize,
}

/// Runtime search knobs. Which field applies depends on the index group;
/// unknown fields are ignored by an index (so one struct serves all kinds,
/// mirroring faiss' search-parameter objects).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchParams {
    /// Beam width for graph indexes (HNSW `ef_search`).
    pub ef_search: usize,
    /// Number of inverted lists probed by IVF indexes.
    pub nprobe: usize,
    /// Estimated fraction of rows passing the scalar filter (from the
    /// optimizer's histogram sketches). `None` when the caller has no
    /// estimate; filtered searches then fall back to the legacy fixed 2x
    /// beam widening.
    #[serde(default)]
    pub filter_selectivity: Option<f32>,
    /// Ask graph indexes to run the predicate-aware traversal (Plan D):
    /// failing nodes steer navigation but only passing nodes enter the
    /// result heap. Non-graph indexes ignore the flag and keep their
    /// bitmap-filter behaviour, which is always correct.
    #[serde(default)]
    pub filter_traversal: bool,
}

impl Default for SearchParams {
    fn default() -> Self {
        Self { ef_search: 64, nprobe: 8, filter_selectivity: None, filter_traversal: false }
    }
}

impl SearchParams {
    /// Set the graph beam width.
    pub fn with_ef(mut self, ef: usize) -> Self {
        self.ef_search = ef;
        self
    }

    /// Set the IVF probe count.
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe;
        self
    }

    /// Set the selectivity estimate driving adaptive beam widening.
    pub fn with_selectivity(mut self, s: f32) -> Self {
        self.filter_selectivity = Some(s);
        self
    }

    /// Enable the predicate-aware graph traversal (Plan D).
    pub fn with_filter_traversal(mut self, on: bool) -> Self {
        self.filter_traversal = on;
        self
    }

    /// Beam widening factor applied by bitmap-filtered searches (Plans
    /// B/C). Roughly `1/s` candidates must be visited per surviving row,
    /// so the beam grows inversely with selectivity; the clamp keeps a
    /// wild histogram estimate from exploding the beam, and the `None`
    /// arm preserves the historical fixed 2x widening.
    pub fn filter_widen_factor(&self) -> usize {
        match self.filter_selectivity {
            Some(s) if s > 0.0 => ((1.0 / f64::from(s)).ceil() as usize).clamp(1, 16),
            _ => 2,
        }
    }

    /// `base` beam width widened by [`Self::filter_widen_factor`].
    pub fn widened_ef(&self, base: usize) -> usize {
        base.saturating_mul(self.filter_widen_factor())
    }

    /// How many consecutive predicate-failing hops the traversal may take
    /// from the last passing node before abandoning a path. Selective
    /// filters leave fewer passing nodes, so the graph needs deeper
    /// detours to stay connected (ACORN's expansion depth). The budget
    /// trims the walk a little (up to ~15 % on the grid test's cells); the
    /// visit count stays that of the `ef/s`-wide beam.
    pub fn hop_budget(&self) -> usize {
        match self.filter_selectivity {
            Some(s) if s >= 0.5 => 2,
            Some(s) if s >= 0.1 => 3,
            Some(_) => 5,
            None => 3,
        }
    }

    /// Layer-0 nodes a graph index of `rows` nodes is expected to visit to
    /// return `k` rows (for [`GraphScan::IteratorPull`]: to surface `k`
    /// passing rows) when a fraction `s` of its rows passes the filter.
    ///
    /// Every candidate source is a best-first walk that ends once some
    /// number of nearest rows — its *width* — has been surfaced, and what
    /// it visits is the approach path plus the neighbourhoods of that many
    /// rows: `12·log2(rows) + 2.5·width`, at most `rows`. The constants
    /// are fitted to the counts the beam loops report (`n_visited`); the
    /// grid test in `hnsw.rs` holds the prediction within 2x of them. This
    /// is the work count the cost model prices graph plans by.
    pub fn predicted_visits(&self, scan: GraphScan, rows: usize, k: usize, s: f64) -> usize {
        let ef = self.ef_search.max(k) as f64;
        let s = s.clamp(1e-6, 1.0);
        let width = match scan {
            GraphScan::Beam => ef,
            GraphScan::WidenedBeam => ef * self.filter_widen_factor() as f64,
            GraphScan::FilteredTraversal => ef / s,
            GraphScan::IteratorPull => k as f64 / s,
        };
        let rows = rows as f64;
        (12.0 * rows.max(2.0).log2() + 2.5 * width).min(rows) as usize
    }
}

/// The ways the executor drives a graph index
/// ([`SearchParams::predicted_visits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphScan {
    /// Plain `ef`-wide beam (unfiltered top-k).
    Beam,
    /// Beam widened by [`SearchParams::filter_widen_factor`], bitmap applied
    /// to its candidates afterwards (Plan B).
    WidenedBeam,
    /// Predicate-aware traversal collecting `ef` passing rows (Plan D).
    FilteredTraversal,
    /// Iterator pulled nearest-first until `k` rows pass (Plan C).
    IteratorPull,
}

/// A built, immutable, searchable vector index (execution-layer interface of
/// Fig. 5 plus `SaveIndex`).
///
/// Filter semantics: when `filter` is `Some`, only rows whose bit is **set**
/// may appear in results. The storage layer composes predicate bitsets with
/// the segment's delete bitmap before calling.
pub trait VectorIndex: Send + Sync {
    /// Descriptive metadata (kind, dim, metric, length).
    fn meta(&self) -> IndexMeta;

    /// `SearchWithFilter`: top-`k` by distance among rows passing `filter`,
    /// optionally threaded with a shared k-th distance upper bound published
    /// by peer workers of the same query (batched execution, DESIGN.md §7).
    /// `bound: None` reads as a bound of `+inf` that is never published to.
    ///
    /// Implementations may (a) skip candidates whose exact distance — or a
    /// proven **lower bound** on it — is **strictly** greater than
    /// `bound.get()` (such rows cannot enter the final top-k), and (b) lower
    /// the bound with their own exact local k-th distance once `k` exact
    /// candidates are collected. Indexes returning approximate distances
    /// (`needs_refine`) must never publish them; they may still prune using
    /// a conservative margin (quantization error bound) subtracted from the
    /// approximate distance, as the IVFPQ and HNSW-SQ stores do (DESIGN.md
    /// §10) — the exact k-th for publication then comes from the refine
    /// stage. Ignoring the bound entirely is always correct.
    fn search_with_bound(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&Bitset>,
        bound: Option<&SharedBound>,
    ) -> Result<Vec<Neighbor>>;

    /// `SearchIterator`: incremental nearest-first traversal, pulled by
    /// [`crate::iterator::search_with_range`] for the post-filter strategy
    /// and every distance-range search. Indexes without native support return a
    /// [`crate::iterator::GenericSearchIterator`] that restarts with doubled
    /// `k` (§III-B).
    fn search_iterator<'a>(
        &'a self,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<Box<dyn SearchIterator + 'a>>;

    /// Whether returned distances are approximate (quantized) and benefit
    /// from exact-distance refinement on the raw vectors (the `σ·k·c_d` term
    /// of the cost model).
    fn needs_refine(&self) -> bool {
        false
    }

    /// Resident memory estimate in bytes (drives Table VI and cache sizing).
    fn memory_usage(&self) -> usize;

    /// `SaveIndex`: serialize to a self-describing binary blob.
    fn save_bytes(&self) -> Result<Bytes>;

    /// Validate a query vector against the index dimension.
    fn check_query(&self, query: &[f32]) -> Result<()> {
        let dim = self.meta().dim;
        if query.len() != dim {
            return Err(BhError::DimensionMismatch { expected: dim, got: query.len() });
        }
        Ok(())
    }
}

/// The top-`k` collector of every bound-aware scan (the index kinds here and
/// the worker's raw-column scan): the one place outside `bh_common::bound`
/// the shared bound's prune and publish rules are written.
pub struct BoundedTopK<'a> {
    tk: TopK<u64>,
    bound: Option<&'a SharedBound>,
    /// Whether offered distances are exact. Only exact distances tighten
    /// the bound — an approximate k-th could over-prune sibling segments.
    exact: bool,
    skipped: u64,
}

impl<'a> BoundedTopK<'a> {
    /// A collector of the `k` nearest offered rows. `exact` says whether the
    /// offered distances are exact, i.e. may be published to `bound`.
    pub fn new(k: usize, bound: Option<&'a SharedBound>, exact: bool) -> Self {
        Self { tk: TopK::new(k), bound, exact, skipped: 0 }
    }

    /// Offer row `id` at distance `d`. `lower` is a proven lower bound on
    /// its exact distance (`d` itself when distances are exact): the row is
    /// skipped when that strictly exceeds the shared bound.
    #[inline]
    pub fn offer(&mut self, lower: f32, d: f32, id: u64) {
        let Some(b) = self.bound else {
            self.tk.push(d, id);
            return;
        };
        if lower > b.get() {
            self.skipped += 1;
        } else if self.tk.push(d, id) && self.tk.is_full() && self.exact {
            b.update(self.tk.threshold());
        }
    }

    /// The retained rows, ascending by distance; records the skip count.
    pub fn finish(self) -> Vec<Neighbor> {
        if let Some(b) = self.bound {
            b.record_skips(self.skipped);
        }
        sorted_neighbors(self.tk)
    }
}

/// Drain a collector into hits sorted ascending by distance.
pub(crate) fn sorted_neighbors(tk: TopK<u64>) -> Vec<Neighbor> {
    tk.into_sorted().into_iter().map(|s| Neighbor::new(s.item, s.distance)).collect()
}

/// Storage-layer build interface of Fig. 5 (`Train`, `AddWithIds`, then
/// `finish` seals the immutable index — per-segment indexes are built exactly
/// once over an immutable segment).
pub trait IndexBuilder: Send {
    /// `Train`: fit data-dependent structures (k-means centroids, quantizer
    /// ranges) on a row-major `dim × n` sample. No-op for indexes that do not
    /// require training.
    fn train(&mut self, sample: &[f32]) -> Result<()>;

    /// `AddWithIds`: append vectors (row-major) with their row-offset labels.
    fn add_with_ids(&mut self, vectors: &[f32], ids: &[u64]) -> Result<()>;

    /// Seal and return the immutable index.
    fn finish(self: Box<Self>) -> Result<Arc<dyn VectorIndex>>;

    /// Whether `train` must be called before `add_with_ids`.
    fn requires_training(&self) -> bool;
}

/// The process-wide pool index builds fan out on: the building thread always
/// works itself, and one parked helper per further core joins in when it is
/// idle. PQ sub-quantizers and IVF row tiles run on it from inside a build,
/// and the table store runs a write's per-segment index builds on it from
/// outside one — a helper that is busy with a segment is skipped by the
/// builds inside it, so the two levels nest without oversubscribing the
/// machine.
pub fn build_pool() -> Arc<FanoutPool> {
    static POOL: OnceLock<Arc<FanoutPool>> = OnceLock::new();
    Arc::clone(POOL.get_or_init(|| Arc::new(FanoutPool::for_machine())))
}

/// Helper shared by all builders: validate a row-major batch shape.
pub fn check_batch(dim: usize, vectors: &[f32], ids: &[u64]) -> Result<usize> {
    if dim == 0 {
        return Err(BhError::InvalidArgument("dim must be > 0".into()));
    }
    if !vectors.len().is_multiple_of(dim) {
        return Err(BhError::DimensionMismatch { expected: dim, got: vectors.len() % dim });
    }
    let n = vectors.len() / dim;
    if n != ids.len() {
        return Err(BhError::InvalidArgument(format!(
            "vector count {n} != id count {}",
            ids.len()
        )));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_roundtrip() {
        for k in IndexKind::ALL {
            assert_eq!(IndexKind::parse(k.name()).unwrap(), k);
        }
        assert_eq!(IndexKind::parse("ivf_flat").unwrap(), IndexKind::IvfFlat);
        assert!(IndexKind::parse("LSH").is_err());
    }

    #[test]
    fn kind_groups() {
        assert_eq!(IndexKind::Hnsw.group(), Some(IndexGroup::Graph));
        assert_eq!(IndexKind::IvfPqFs.group(), Some(IndexGroup::Ivf));
        assert_eq!(IndexKind::Flat.group(), None);
    }

    #[test]
    fn training_requirements() {
        assert!(IndexKind::IvfPq.requires_training());
        assert!(IndexKind::HnswSq.requires_training());
        assert!(!IndexKind::Hnsw.requires_training());
        assert!(!IndexKind::Flat.requires_training());
    }

    #[test]
    fn spec_params() {
        let spec = IndexSpec::new(IndexKind::Hnsw, 128, Metric::L2)
            .with_param("M", 32)
            .with_param("ef_construction", 100);
        assert_eq!(spec.param_usize("m", 16).unwrap(), 32);
        assert_eq!(spec.param_usize("EF_CONSTRUCTION", 0).unwrap(), 100);
        assert_eq!(spec.param_usize("missing", 7).unwrap(), 7);
        let bad = IndexSpec::new(IndexKind::Hnsw, 8, Metric::L2).with_param("m", "abc");
        assert!(bad.param_usize("m", 1).is_err());
    }

    #[test]
    fn spec_validation() {
        assert!(IndexSpec::new(IndexKind::Flat, 0, Metric::L2).validate().is_err());
        assert!(IndexSpec::new(IndexKind::Flat, 4, Metric::L2).validate().is_ok());
    }

    #[test]
    fn search_param_widening_is_clamped_and_selectivity_driven() {
        // No estimate: legacy fixed 2x widening, traversal budget 3.
        let p = SearchParams::default();
        assert_eq!(p.filter_widen_factor(), 2);
        assert_eq!(p.widened_ef(64), 128);
        assert_eq!(p.hop_budget(), 3);

        // Permissive filter: almost everything passes, no widening needed.
        let p = SearchParams::default().with_selectivity(1.0);
        assert_eq!(p.filter_widen_factor(), 1);
        assert_eq!(p.hop_budget(), 2);

        // Mid selectivity: bitmap widening ~1/s.
        let p = SearchParams::default().with_selectivity(0.25);
        assert_eq!(p.filter_widen_factor(), 4);
        assert_eq!(p.widened_ef(64), 256);
        assert_eq!(p.hop_budget(), 3);

        // Ultra-selective: bitmap factor hits its clamp; deepest hops.
        let p = SearchParams::default().with_selectivity(1e-4);
        assert_eq!(p.filter_widen_factor(), 16);
        assert_eq!(p.hop_budget(), 5);

        // Degenerate estimates fall back to the legacy factor.
        let p = SearchParams::default().with_selectivity(0.0);
        assert_eq!(p.filter_widen_factor(), 2);
    }

    #[test]
    fn search_params_serde_roundtrip_keeps_filter_fields() {
        let p = SearchParams::default().with_ef(32).with_selectivity(0.25).with_filter_traversal(true);
        let json = serde_json::to_string(&p).unwrap();
        let back: SearchParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        let q: SearchParams = serde_json::from_str(&serde_json::to_string(&SearchParams::default()).unwrap()).unwrap();
        assert_eq!(q, SearchParams::default());
    }

    #[test]
    fn check_batch_shapes() {
        assert_eq!(check_batch(4, &[0.0; 8], &[1, 2]).unwrap(), 2);
        assert!(check_batch(4, &[0.0; 7], &[1]).is_err()); // ragged
        assert!(check_batch(4, &[0.0; 8], &[1]).is_err()); // id count mismatch
        assert!(check_batch(0, &[], &[]).is_err());
    }
}
