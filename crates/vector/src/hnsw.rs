//! Hierarchical Navigable Small World graphs (Malkov & Yashunin), with the
//! iterative-search extension the paper adds to hnswlib (§III-B).
//!
//! Two storage backends share one graph implementation:
//!
//! * `HNSW` — raw f32 vectors (exact distances).
//! * `HNSWSQ` — vectors stored as 8-bit scalar-quantized codes
//!   ([`crate::quant::sq::Sq8`]), decoded on the fly (asymmetric distance):
//!   ~4x less memory for a small recall cost (Table VI's shape).
//!
//! The **native search iterator** is the feature BlendHouse's post-filter
//! strategy relies on: a resumable best-first traversal of layer 0 whose
//! state (candidate heap + visited set) persists across batches, so asking
//! for "k more" costs only the incremental expansion — no doubled-k restart.

use crate::codec::{metric_from_u8, metric_to_u8, Reader, Writer};
use crate::iterator::SearchIterator;
use crate::quant::sq::Sq8;
use crate::types::{
    check_batch, BoundedTopK, IndexBuilder, IndexMeta, IndexSpec, Neighbor, SearchParams,
    VectorIndex,
};
use crate::{IndexKind, Metric};
use bh_common::rng::{derived_rng, DetRng};
use bh_common::{BhError, Bitset, QueryCtx, Result, SharedBound};
use bytes::Bytes;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"BHHN";
/// v2 appends a reconstruction-radius section to the SQ store payload
/// (`flag u8` + `f32 rho`), the measured max ‖x − decode(encode(x))‖ over
/// all build rows. Nothing writes v1 any more, so older headers are rejected.
const VERSION: u16 = 2;

/// Ordered (distance, node) pair for binary heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DistNode {
    dist: f32,
    node: u32,
}

impl Eq for DistNode {}

impl PartialOrd for DistNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DistNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist.total_cmp(&other.dist).then(self.node.cmp(&other.node))
    }
}

/// Vector payload storage: raw or scalar-quantized.
#[derive(Debug, Clone)]
enum Store {
    Raw {
        data: Vec<f32>,
    },
    Sq {
        sq: Sq8,
        codes: Vec<u8>,
        /// Max reconstruction radius ‖x − decode(encode(x))‖ measured over
        /// the build rows at `finish()`. Turns asymmetric SQ distances into
        /// conservative lower bounds on exact distances (triangle
        /// inequality), letting HNSWSQ prune against a [`SharedBound`].
        rho: f32,
    },
}

impl Store {
    /// Serialize as the v2 store payload (tag, payload, rho section). The
    /// rho section keeps its presence flag (always 1) from when the radius
    /// was optional.
    fn write(&self, w: &mut Writer) {
        match self {
            Store::Raw { data } => {
                w.put_u8(0);
                w.put_f32_slice(data);
            }
            Store::Sq { sq, codes, rho } => {
                w.put_u8(1);
                sq.save(w);
                w.put_bytes(codes);
                w.put_u8(1);
                w.put_f32(*rho);
            }
        }
    }

    /// Deserialize a v2 store payload written by [`Store::write`].
    fn read(r: &mut Reader<'_>) -> Result<Store> {
        match r.get_u8()? {
            0 => Ok(Store::Raw { data: r.get_f32_vec()? }),
            1 => {
                let sq = Sq8::load(r)?;
                let codes = r.get_bytes()?;
                let rho = match r.get_u8()? {
                    1 => r.get_f32()?,
                    x => return Err(BhError::Serde(format!("hnsw: bad rho flag {x}"))),
                };
                Ok(Store::Sq { sq, codes, rho })
            }
            x => Err(BhError::Serde(format!("hnsw: bad store byte {x}"))),
        }
    }

    fn len(&self, dim: usize) -> usize {
        match self {
            Store::Raw { data } => data.len() / dim,
            Store::Sq { codes, .. } => codes.len() / dim,
        }
    }

    /// Asymmetric distance from an f32 query to stored row.
    ///
    /// Graph traversal is pointer-chasing, so there is no contiguous block to
    /// hand to `distance_batch`; per-pair calls still hit the runtime-
    /// dispatched SIMD kernels (`Metric::distance`, `Sq8::asym_*`).
    #[inline]
    fn distance_to(&self, metric: Metric, dim: usize, query: &[f32], row: usize) -> f32 {
        match self {
            Store::Raw { data } => metric.distance(query, &data[row * dim..(row + 1) * dim]),
            Store::Sq { sq, codes, .. } => {
                let code = &codes[row * dim..(row + 1) * dim];
                match metric {
                    Metric::L2 => sq.asym_l2(query, code),
                    Metric::InnerProduct => sq.asym_neg_ip(query, code),
                    // Cosine over SQ: decode (rare path; HNSWSQ cosine users
                    // normalize at ingest so L2 ordering matches).
                    Metric::Cosine => metric.distance(query, &sq.decode(code)),
                }
            }
        }
    }

    /// Prefetch `row`'s vector (or SQ code row) toward L1 ahead of its
    /// distance computation. Beam expansion reads neighbor rows in random
    /// order, so each distance otherwise serializes on a full memory
    /// latency; issuing a neighborhood's prefetches before scoring lets the
    /// loads overlap. No-op on non-x86_64 targets.
    #[inline]
    fn prefetch_row(&self, dim: usize, row: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let (ptr, stride) = match self {
                Store::Raw { data } => (data.as_ptr().cast::<i8>(), dim * 4),
                Store::Sq { codes, .. } => (codes.as_ptr().cast::<i8>(), dim),
            };
            let mut off = 0usize;
            while off < stride {
                // SAFETY: `row` is a valid row index and `off < stride`, so
                // the address stays within the store's allocation; prefetch
                // itself never faults regardless.
                unsafe { _mm_prefetch(ptr.add(row * stride + off), _MM_HINT_T0) };
                off += 64;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (dim, row);
        }
    }

    fn memory_usage(&self) -> usize {
        match self {
            Store::Raw { data } => data.len() * 4,
            Store::Sq { sq, codes, .. } => codes.len() + sq.memory_usage(),
        }
    }
}

/// Where a walk reads adjacency and vectors from: the sealed index
/// ([`HnswIndex`]) or the builder's growing graph ([`HnswBuilder`]).
trait Graph {
    /// Number of addressable nodes (sizes the visited set).
    fn node_count(&self) -> usize;
    /// Link list of `node` at `level`; empty above the node's top level.
    fn links(&self, node: u32, level: usize) -> &[u32];
    fn distance(&self, query: &[f32], node: u32) -> f32;
    /// Pull `node`'s vector toward L1 ahead of its distance computation.
    /// The builder keeps this no-op: its beam never prefetched, and doing
    /// so measured no different on index build time.
    fn prefetch(&self, _node: u32) {}
}

/// Which visited nodes may enter the beam's `ef`-bounded result heap, and
/// how far the walk may stray from them.
trait Admit {
    /// Consecutive non-admitted hops since the last admitted node, carried
    /// with each candidate (`Default` = standing on an admitted node).
    type Hops: Copy + Ord + Default;
    /// The hop state of `node` when reached from a candidate at `from`, and
    /// whether it may enter the result heap.
    fn classify(&self, from: Self::Hops, node: u32) -> (Self::Hops, bool);
    /// Whether `hops` is past the detour budget.
    fn over_budget(&self, hops: Self::Hops) -> bool;
}

/// The plain beam: every visited node is a result candidate.
struct AdmitAll;

impl Admit for AdmitAll {
    type Hops = ();
    #[inline]
    fn classify(&self, _: (), _: u32) -> ((), bool) {
        ((), true)
    }
    #[inline]
    fn over_budget(&self, _: ()) -> bool {
        false
    }
}

/// Plan D (ACORN-style): nodes failing `filter` still steer navigation —
/// they stay in the candidate heap and their neighborhoods are expanded —
/// but only passing nodes enter the result heap, so the beam is spent
/// entirely on rows that can appear in the answer. A path may cross at most
/// `hop_budget` consecutive failing nodes beyond the last passing one:
/// selective filters thin the passing subgraph, and bounded multi-hop
/// detours keep it connected without devolving into an unbounded flood.
struct AdmitPassing<'a> {
    /// Node → row id, the domain `filter` is expressed in.
    ids: &'a [u64],
    filter: &'a Bitset,
    hop_budget: usize,
}

impl Admit for AdmitPassing<'_> {
    type Hops = usize;
    #[inline]
    fn classify(&self, from: usize, node: u32) -> (usize, bool) {
        let pass = self.filter.contains(self.ids[node as usize] as usize);
        (if pass { 0 } else { from + 1 }, pass)
    }
    #[inline]
    fn over_budget(&self, hops: usize) -> bool {
        hops > self.hop_budget
    }
}

/// Greedy descent from `cur` through levels `from..to+1` to the closest
/// node found at level `to + 1`.
fn descend<G: Graph>(g: &G, query: &[f32], mut cur: u32, from: usize, to: usize) -> u32 {
    let mut cur_d = g.distance(query, cur);
    for level in (to + 1..=from).rev() {
        let mut improved = true;
        while improved {
            improved = false;
            // The list is the one `cur` had when the sweep began: moving to
            // a closer node mid-sweep does not switch lists.
            for &nb in g.links(cur, level) {
                let d = g.distance(query, nb);
                if d < cur_d {
                    cur_d = d;
                    cur = nb;
                    improved = true;
                }
            }
        }
    }
    cur
}

/// The `ef`-bounded best-first beam over one level of `g`: up to `ef`
/// admitted nodes nearest `query` in ascending order, and the number of
/// nodes whose distance was computed.
fn beam<G: Graph, A: Admit>(
    g: &G,
    query: &[f32],
    entry: u32,
    ef: usize,
    level: usize,
    admit: &A,
) -> (Vec<DistNode>, usize) {
    let mut visited = vec![false; g.node_count()];
    visited[entry as usize] = true;
    let d0 = g.distance(query, entry);
    let (entry_hops, entry_admitted) = admit.classify(A::Hops::default(), entry);
    let mut candidates = BinaryHeap::new(); // min-heap via Reverse
    candidates.push(Reverse((DistNode { dist: d0, node: entry }, entry_hops)));
    let mut results: BinaryHeap<DistNode> = BinaryHeap::new(); // max-heap
    if entry_admitted {
        results.push(DistNode { dist: d0, node: entry });
    }
    let mut n_visited = 1usize;
    // A level-0 list holds up to 2·M links, 32 at the default M; a larger M
    // grows this once.
    let mut fresh: Vec<u32> = Vec::with_capacity(32);

    while let Some(Reverse((c, hops))) = candidates.pop() {
        let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
        if results.len() >= ef && c.dist > worst {
            break;
        }
        // Gather-then-score: issue the whole neighborhood's vector
        // prefetches before the first distance so the random-access loads
        // overlap instead of serializing on memory latency. Nodes the hop
        // budget then skips got a wasted prefetch; overlapping the rest
        // still wins.
        fresh.clear();
        for &nb in g.links(c.node, level) {
            if !visited[nb as usize] {
                g.prefetch(nb);
                fresh.push(nb);
            }
        }
        for &nb in &fresh {
            let (nb_hops, admitted) = admit.classify(hops, nb);
            // Pure navigation until the first admitted node is found: the
            // greedy descent is predicate-blind, so the beam may start deep
            // inside a failing region (correlated filters) and must be free
            // to walk out of it. Once results exist, the hop budget bounds
            // further detours.
            if admit.over_budget(nb_hops) && !results.is_empty() {
                // Leave unvisited: a shorter detour from another admitted
                // node may still legitimately reach it later.
                continue;
            }
            visited[nb as usize] = true;
            n_visited += 1;
            let d = g.distance(query, nb);
            let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
            if results.len() < ef || d < worst {
                candidates.push(Reverse((DistNode { dist: d, node: nb }, nb_hops)));
                if admitted {
                    results.push(DistNode { dist: d, node: nb });
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
    }
    let mut out: Vec<DistNode> = results.into_vec();
    out.sort();
    (out, n_visited)
}

/// An immutable HNSW index.
#[derive(Debug)]
pub struct HnswIndex {
    dim: usize,
    metric: Metric,
    kind: IndexKind,
    m: usize,
    ids: Vec<u64>,
    /// Per node, per level, the neighbor list. `links[n].len()` is the node's
    /// level count + 1.
    links: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_level: usize,
    store: Store,
}

impl Graph for HnswIndex {
    fn node_count(&self) -> usize {
        self.n()
    }
    #[inline]
    fn links(&self, node: u32, level: usize) -> &[u32] {
        self.links[node as usize].get(level).map_or(&[], Vec::as_slice)
    }
    #[inline]
    fn distance(&self, query: &[f32], node: u32) -> f32 {
        self.store.distance_to(self.metric, self.dim, query, node as usize)
    }
    #[inline]
    fn prefetch(&self, node: u32) {
        self.store.prefetch_row(self.dim, node as usize);
    }
}

impl HnswIndex {
    fn n(&self) -> usize {
        self.ids.len()
    }

    /// Greedy descent through upper levels to the closest entry at `to`.
    fn greedy_to_level(&self, query: &[f32], cur: u32, from: usize, to: usize) -> u32 {
        descend(self, query, cur, from, to)
    }

    /// Beam search at one level: up to `ef` nearest in ascending order, and
    /// the visited count.
    fn search_layer(
        &self,
        query: &[f32],
        entry: u32,
        ef: usize,
        level: usize,
    ) -> (Vec<DistNode>, usize) {
        beam(self, query, entry, ef, level, &AdmitAll)
    }

    /// Predicate-aware beam search at level 0 (Plan D, ACORN-style): the
    /// beam under the [`AdmitPassing`] policy.
    fn search_layer0_filtered(
        &self,
        query: &[f32],
        entry: u32,
        ef: usize,
        filter: &Bitset,
        hop_budget: usize,
    ) -> (Vec<DistNode>, usize) {
        beam(self, query, entry, ef, 0, &AdmitPassing { ids: &self.ids, filter, hop_budget })
    }

    /// Level-0 candidate generation for filtered searches: the Plan D
    /// traversal when `params.filter_traversal` asks for it, else the
    /// classic widened beam with post-hoc bitset checks. Returns the
    /// candidates and the beam's visited count.
    fn filtered_candidates(
        &self,
        query: &[f32],
        entry: u32,
        ef_base: usize,
        params: &SearchParams,
        filter: Option<&Bitset>,
    ) -> (Vec<DistNode>, usize) {
        match filter {
            Some(f) if params.filter_traversal => self.search_layer0_filtered(
                query,
                entry,
                params.traversal_ef(ef_base),
                f,
                params.hop_budget(),
            ),
            // With a selective filter, widen the beam so enough filtered
            // rows survive — hnswlib's recipe, with the factor now derived
            // from the selectivity estimate instead of a fixed 2x.
            Some(_) => self.search_layer(query, entry, params.widened_ef(ef_base), 0),
            None => self.search_layer(query, entry, ef_base, 0),
        }
    }

    /// Deserialize an index written by [`VectorIndex::save_bytes`].
    pub fn load_bytes(bytes: &[u8]) -> Result<HnswIndex> {
        let mut r = Reader::new(bytes);
        let version = r.expect_header(MAGIC)?;
        if version < VERSION {
            return Err(BhError::Serde(format!("hnsw: blob version {version} is no longer read")));
        }
        let kind = match r.get_u8()? {
            0 => IndexKind::Hnsw,
            1 => IndexKind::HnswSq,
            x => return Err(BhError::Serde(format!("hnsw: bad kind byte {x}"))),
        };
        let dim = r.get_u64()? as usize;
        let metric = metric_from_u8(r.get_u8()?)?;
        let m = r.get_u64()? as usize;
        let entry = r.get_u32()?;
        let max_level = r.get_u64()? as usize;
        let ids = r.get_u64_vec()?;
        let n = ids.len();
        let mut links = Vec::with_capacity(n);
        for _ in 0..n {
            let levels = r.get_u64()? as usize;
            let mut per = Vec::with_capacity(levels);
            for _ in 0..levels {
                per.push(r.get_u32_vec()?);
            }
            links.push(per);
        }
        let store = Store::read(&mut r)?;
        let idx = HnswIndex { dim, metric, kind, m, ids, links, entry, max_level, store };
        if dim == 0 || (idx.n() > 0 && idx.store.len(dim) != idx.n()) {
            return Err(BhError::Serde("hnsw: corrupt geometry".into()));
        }
        Ok(idx)
    }

}

impl VectorIndex for HnswIndex {
    fn meta(&self) -> IndexMeta {
        IndexMeta { kind: self.kind, dim: self.dim, metric: self.metric, len: self.n() }
    }

    fn search_with_bound(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&Bitset>,
        bound: Option<&SharedBound>,
    ) -> Result<Vec<Neighbor>> {
        self.check_query(query)?;
        if self.n() == 0 || k == 0 {
            return Ok(Vec::new());
        }
        // The graph traversal itself never sees the bound — pruning mid-walk
        // would change which neighborhoods get explored. Only the final
        // candidate list participates, whichever source produced it.
        let ef = params.ef_search.max(k);
        let entry = self.greedy_to_level(query, self.entry, self.max_level, 0);
        let (cands, visited) = self.filtered_candidates(query, entry, ef, params, filter);
        QueryCtx::with(|c| c.tally.rows_scanned.add(visited as u64));
        // SQ stores yield asymmetric (approximate) distances. With the
        // measured reconstruction radius rho they still admit conservative
        // lower bounds on the exact distance, so HNSWSQ can *prune* against
        // the shared bound — but never publish to it:
        //
        //   L2:  ‖q − x‖ ≥ ‖q − x̂‖ − ‖x − x̂‖ ≥ sqrt(d_sq) − rho
        //        lower bound = max(0, sqrt(d_sq) − rho)²
        //   IP:  ⟨q, x⟩ ≤ ⟨q, x̂⟩ + ‖q‖·rho (Cauchy-Schwarz)
        //        lower bound = d_sq − ‖q‖·rho      (d = −⟨q, x⟩)
        //
        // Cosine over SQ measures distance to the *reconstruction* with no
        // usable margin relation: nothing is pruned there. A raw store has
        // no radius: its distances are exact.
        let rho = match &self.store {
            Store::Raw { .. } => None,
            Store::Sq { rho, .. } => Some(*rho),
        };
        let ip_slack = match (rho, self.metric) {
            (Some(rho), Metric::InnerProduct) => crate::distance::dot(query, query).sqrt() * rho,
            _ => 0.0,
        };
        let mut out = BoundedTopK::new(k, bound, rho.is_none());
        for c in cands {
            let id = self.ids[c.node as usize];
            if filter.is_some_and(|f| !f.contains(id as usize)) {
                continue;
            }
            let lower = match (rho, self.metric) {
                (None, _) => c.dist,
                (Some(rho), Metric::L2) => {
                    let base = (c.dist.max(0.0).sqrt() - rho).max(0.0);
                    base * base
                }
                (Some(_), Metric::InnerProduct) => c.dist - ip_slack,
                (Some(_), Metric::Cosine) => f32::NEG_INFINITY,
            };
            out.offer(lower, c.dist, id);
        }
        Ok(out.finish())
    }

    fn search_iterator<'a>(
        &'a self,
        query: &[f32],
        _params: &SearchParams,
    ) -> Result<Box<dyn SearchIterator + 'a>> {
        self.check_query(query)?;
        let mut heap = BinaryHeap::new();
        let mut visited = vec![false; self.n()];
        if self.n() > 0 {
            let entry = self.greedy_to_level(query, self.entry, self.max_level, 0);
            visited[entry as usize] = true;
            heap.push(Reverse(DistNode { dist: self.distance(query, entry), node: entry }));
        }
        Ok(Box::new(HnswIterator { index: self, query: query.to_vec(), heap, visited, n_visited: if self.n() > 0 { 1 } else { 0 } }))
    }

    fn needs_refine(&self) -> bool {
        matches!(self.kind, IndexKind::HnswSq)
    }

    fn memory_usage(&self) -> usize {
        let link_bytes: usize = self
            .links
            .iter()
            .map(|per| per.iter().map(|l| l.len() * 4 + 24).sum::<usize>() + 24)
            .sum();
        self.store.memory_usage() + link_bytes + self.ids.len() * 8 + std::mem::size_of::<Self>()
    }

    fn save_bytes(&self) -> Result<Bytes> {
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.put_u8(match self.kind {
            IndexKind::Hnsw => 0,
            IndexKind::HnswSq => 1,
            _ => return Err(BhError::Internal("hnsw: impossible kind".into())),
        });
        w.put_u64(self.dim as u64);
        w.put_u8(metric_to_u8(self.metric));
        w.put_u64(self.m as u64);
        w.put_u32(self.entry);
        w.put_u64(self.max_level as u64);
        w.put_u64_slice(&self.ids);
        for per in &self.links {
            w.put_u64(per.len() as u64);
            for l in per {
                w.put_u32_slice(l);
            }
        }
        self.store.write(&mut w);
        Ok(w.finish())
    }
}

/// Resumable best-first traversal of layer 0 (the paper's hnswlib extension).
struct HnswIterator<'a> {
    index: &'a HnswIndex,
    query: Vec<f32>,
    heap: BinaryHeap<Reverse<DistNode>>,
    visited: Vec<bool>,
    n_visited: usize,
}

/// What the traversal walked is tallied once, when the statement is done
/// with it.
impl Drop for HnswIterator<'_> {
    fn drop(&mut self) {
        QueryCtx::with(|c| c.tally.rows_scanned.add(self.n_visited as u64));
    }
}

impl SearchIterator for HnswIterator<'_> {
    fn next_batch(&mut self, n: usize) -> Result<Vec<Neighbor>> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let Some(Reverse(c)) = self.heap.pop() else { break };
            // Expand neighbors before emitting so the frontier stays ahead.
            if !self.index.links[c.node as usize].is_empty() {
                for &nb in &self.index.links[c.node as usize][0] {
                    if !self.visited[nb as usize] {
                        self.visited[nb as usize] = true;
                        self.n_visited += 1;
                        let d = self.index.distance(&self.query, nb);
                        self.heap.push(Reverse(DistNode { dist: d, node: nb }));
                    }
                }
            }
            out.push(Neighbor::new(self.index.ids[c.node as usize], c.dist));
        }
        Ok(out)
    }

    fn visited(&self) -> usize {
        self.n_visited
    }

    fn exhausted(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Builder for `HNSW` / `HNSWSQ`.
pub struct HnswBuilder {
    spec: IndexSpec,
    kind: IndexKind,
    m: usize,
    ef_construction: usize,
    ml: f64,
    rng: DetRng,
    ids: Vec<u64>,
    raw: Vec<f32>,
    sq: Option<Sq8>,
    trained: bool,
    // Graph state grown incrementally as vectors are added.
    links: Vec<Vec<Vec<u32>>>,
    levels: Vec<usize>,
    entry: u32,
    max_level: usize,
}

impl HnswBuilder {
    /// A builder for `HNSW` or `HNSWSQ` validated against `spec`.
    pub fn new(spec: &IndexSpec, kind: IndexKind) -> Result<HnswBuilder> {
        spec.validate()?;
        if kind != spec.kind || !matches!(kind, IndexKind::Hnsw | IndexKind::HnswSq) {
            return Err(BhError::InvalidArgument(format!(
                "HnswBuilder cannot build {}",
                kind.name()
            )));
        }
        let m = spec.param_usize("m", 16)?;
        let ef_construction = spec.param_usize("ef_construction", 128)?.max(m);
        let seed = spec.param_usize("seed", 0)? as u64;
        Ok(HnswBuilder {
            spec: spec.clone(),
            kind,
            m,
            ef_construction,
            ml: 1.0 / (m as f64).ln(),
            rng: derived_rng(seed, 0x686e_7377),
            ids: Vec::new(),
            raw: Vec::new(),
            sq: None,
            trained: false,
            links: Vec::new(),
            levels: Vec::new(),
            entry: 0,
            max_level: 0,
        })
    }

    fn dim(&self) -> usize {
        self.spec.dim
    }

    /// Distance between the pending raw vectors of two inserted nodes.
    #[inline]
    fn dist(&self, a: usize, b: usize) -> f32 {
        let dim = self.dim();
        self.spec
            .metric
            .distance(&self.raw[a * dim..(a + 1) * dim], &self.raw[b * dim..(b + 1) * dim])
    }

    fn max_links(&self, level: usize) -> usize {
        if level == 0 {
            self.m * 2
        } else {
            self.m
        }
    }

    /// Heuristic neighbor selection (Malkov's Algorithm 4): prefer candidates
    /// closer to the query than to any already-selected neighbor, keeping the
    /// graph navigable rather than clustered.
    fn select_neighbors(&self, candidates: &[DistNode], m: usize) -> Vec<u32> {
        let mut selected: Vec<DistNode> = Vec::with_capacity(m);
        for &c in candidates {
            if selected.len() >= m {
                break;
            }
            let dominated = selected
                .iter()
                .any(|s| self.dist(s.node as usize, c.node as usize) < c.dist);
            if !dominated {
                selected.push(c);
            }
        }
        // Backfill with nearest remaining if the heuristic was too strict.
        if selected.len() < m {
            for &c in candidates {
                if selected.len() >= m {
                    break;
                }
                if !selected.iter().any(|s| s.node == c.node) {
                    selected.push(c);
                }
            }
        }
        selected.into_iter().map(|s| s.node).collect()
    }

    fn insert(&mut self, node: usize) {
        let level = (-self.rng.gen::<f64>().ln() * self.ml).floor() as usize;
        self.levels.push(level);
        self.links.push(vec![Vec::new(); level + 1]);

        if node == 0 {
            self.entry = 0;
            self.max_level = level;
            return;
        }

        let dim = self.dim();
        let query: Vec<f32> = self.raw[node * dim..(node + 1) * dim].to_vec();
        // Greedy descent through levels above the new node's level.
        let mut cur = descend(&*self, &query, self.entry, self.max_level, level);

        // Connect at each level from min(level, max_level) down to 0.
        for l in (0..=level.min(self.max_level)).rev() {
            let (cands, _) = beam(&*self, &query, cur, self.ef_construction, l, &AdmitAll);
            let m = self.max_links(l).min(self.m);
            let neighbors = self.select_neighbors(&cands, m);
            for &nb in &neighbors {
                self.links[node][l].push(nb);
                self.links[nb as usize][l].push(node as u32);
                // Prune over-full neighbor lists with the same heuristic.
                let cap = self.max_links(l);
                if self.links[nb as usize][l].len() > cap {
                    let mut cand: Vec<DistNode> = self.links[nb as usize][l]
                        .iter()
                        .map(|&x| DistNode { dist: self.dist(nb as usize, x as usize), node: x })
                        .collect();
                    cand.sort();
                    self.links[nb as usize][l] = self.select_neighbors(&cand, cap);
                }
            }
            if let Some(best) = cands.first() {
                cur = best.node;
            }
        }

        if level > self.max_level {
            self.max_level = level;
            self.entry = node as u32;
        }
    }
}

/// The graph as built so far, over the pending raw vectors.
impl Graph for HnswBuilder {
    fn node_count(&self) -> usize {
        self.links.len()
    }
    #[inline]
    fn links(&self, node: u32, level: usize) -> &[u32] {
        self.links[node as usize].get(level).map_or(&[], Vec::as_slice)
    }
    #[inline]
    fn distance(&self, query: &[f32], node: u32) -> f32 {
        let dim = self.dim();
        self.spec.metric.distance(query, &self.raw[node as usize * dim..(node as usize + 1) * dim])
    }
}

impl IndexBuilder for HnswBuilder {
    fn train(&mut self, sample: &[f32]) -> Result<()> {
        if self.kind == IndexKind::HnswSq {
            self.sq = Some(Sq8::train(sample, self.dim())?);
        }
        self.trained = true;
        Ok(())
    }

    fn add_with_ids(&mut self, vectors: &[f32], ids: &[u64]) -> Result<()> {
        if self.kind == IndexKind::HnswSq && self.sq.is_none() {
            // Auto-train on the first batch, matching faiss' convenience path.
            self.sq = Some(Sq8::train(vectors, self.dim())?);
        }
        let n = check_batch(self.dim(), vectors, ids)?;
        let start = self.ids.len();
        self.raw.extend_from_slice(vectors);
        self.ids.extend_from_slice(ids);
        for i in 0..n {
            self.insert(start + i);
        }
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<Arc<dyn VectorIndex>> {
        let dim = self.spec.dim;
        let store = match self.kind {
            IndexKind::Hnsw => Store::Raw { data: self.raw },
            IndexKind::HnswSq => {
                let sq = self
                    .sq
                    .ok_or_else(|| BhError::Index("hnswsq: finish before train/add".into()))?;
                let n = self.ids.len();
                let mut codes = Vec::with_capacity(n * dim);
                // Measure the actual reconstruction radius over the build
                // rows rather than trusting the per-dimension step bound:
                // `encode` clamps out-of-range values, so drifted rows can
                // exceed step/2 per dimension — the measured max is the
                // sound margin for exactly this data.
                let mut rho_sq = 0.0f32;
                for i in 0..n {
                    let row = &self.raw[i * dim..(i + 1) * dim];
                    let code = sq.encode(row)?;
                    let recon = sq.decode(&code);
                    let err: f32 =
                        row.iter().zip(&recon).map(|(a, b)| (a - b) * (a - b)).sum();
                    rho_sq = rho_sq.max(err);
                    codes.extend(code);
                }
                Store::Sq { sq, codes, rho: rho_sq.max(0.0).sqrt() }
            }
            // lint: allow(panic) - the builder constructor rejects every
            // kind except Hnsw and HnswSq before this point
            _ => unreachable!("constructor validated kind"),
        };
        Ok(Arc::new(HnswIndex {
            dim,
            metric: self.spec.metric,
            kind: self.kind,
            m: self.m,
            ids: self.ids,
            links: self.links,
            entry: self.entry,
            max_level: self.max_level,
            store,
        }))
    }

    fn requires_training(&self) -> bool {
        self.kind == IndexKind::HnswSq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::KernelTier;
    use crate::recall::{exact_topk, recall_at_k};
    use bh_common::rng::{derive_seed, rng};
    use rand::Rng;

    /// Eight unit-width clusters, 4 apart. The coordinates come from a
    /// SplitMix64 stream (`derive_seed`), not from `rand`, so the data — and
    /// every recall figure and golden checksum below — is the same under the
    /// registry `rand` and under the offline shims.
    fn clustered(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        (0..n * dim)
            .map(|j| {
                let center = ((j / dim) % 8) as f32 * 4.0;
                let unit = (derive_seed(seed, j as u64) >> 40) as f32 / (1u64 << 24) as f32;
                center + 2.0 * unit - 1.0
            })
            .collect()
    }

    fn build_pair(
        n: usize,
        dim: usize,
        kind: IndexKind,
        seed: u64,
    ) -> (Arc<dyn VectorIndex>, Vec<f32>) {
        let data = clustered(n, dim, seed);
        let ids: Vec<u64> = (0..n as u64).collect();
        let spec = IndexSpec::new(kind, dim, Metric::L2)
            .with_param("m", 16)
            .with_param("ef_construction", 120);
        let mut hb = Box::new(HnswBuilder::new(&spec, kind).unwrap());
        hb.train(&data).unwrap();
        hb.add_with_ids(&data, &ids).unwrap();
        ((hb as Box<dyn IndexBuilder>).finish().unwrap(), data)
    }

    #[test]
    fn recall_floor_vs_flat_oracle() {
        let dim = 16;
        let n = 1500;
        let (hnsw, data) = build_pair(n, dim, IndexKind::Hnsw, 1);
        let params = SearchParams::default().with_ef(96);
        let mut total = 0.0;
        let queries = 20;
        for q in 0..queries {
            let qv = &data[q * 37 * dim % (n * dim - dim)..][..dim];
            let truth = exact_topk(Metric::L2, &data, dim, qv, 10, None);
            let got = hnsw.search_with_bound(qv, 10, &params, None, None).unwrap();
            total += recall_at_k(&truth, &got, 10);
        }
        let recall = total / queries as f64;
        assert!(recall >= 0.9, "hnsw recall {recall} below floor");
    }

    #[test]
    fn sq_variant_recall_and_memory() {
        let dim = 16;
        let n = 1200;
        let (hnswsq, data) = build_pair(n, dim, IndexKind::HnswSq, 2);
        let (hnsw, _) = build_pair(n, dim, IndexKind::Hnsw, 2);
        assert!(
            hnswsq.memory_usage() < hnsw.memory_usage(),
            "SQ must shrink memory: {} vs {}",
            hnswsq.memory_usage(),
            hnsw.memory_usage()
        );
        assert!(hnswsq.needs_refine());
        let params = SearchParams::default().with_ef(96);
        let mut total = 0.0;
        for q in 0..15 {
            let qv = &data[q * 53 * dim % (n * dim - dim)..][..dim];
            let truth = exact_topk(Metric::L2, &data, dim, qv, 10, None);
            let got = hnswsq.search_with_bound(qv, 10, &params, None, None).unwrap();
            total += recall_at_k(&truth, &got, 10);
        }
        assert!(total / 15.0 >= 0.8, "hnswsq recall {} below floor", total / 15.0);
    }

    #[test]
    fn filtered_search_respects_bitset() {
        let dim = 8;
        let (hnsw, data) = build_pair(600, dim, IndexKind::Hnsw, 3);
        let allowed = Bitset::from_positions(600, (0..600).filter(|i| i % 7 == 0));
        let got = hnsw
            .search_with_bound(&data[0..dim], 10, &SearchParams::default(), Some(&allowed), None)
            .unwrap();
        assert!(!got.is_empty());
        for nb in &got {
            assert_eq!(nb.id % 7, 0, "row {} not allowed by filter", nb.id);
        }
    }

    #[test]
    fn empty_index_and_k_zero() {
        let spec = IndexSpec::new(IndexKind::Hnsw, 4, Metric::L2);
        let b = Box::new(HnswBuilder::new(&spec, IndexKind::Hnsw).unwrap());
        let idx = (b as Box<dyn IndexBuilder>).finish().unwrap();
        assert!(idx
            .search_with_bound(&[0.0; 4], 5, &SearchParams::default(), None, None)
            .unwrap()
            .is_empty());
        let (hnsw, data) = build_pair(50, 4, IndexKind::Hnsw, 4);
        assert!(hnsw
            .search_with_bound(&data[0..4], 0, &SearchParams::default(), None, None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn native_iterator_is_incremental_and_complete() {
        let dim = 8;
        let n = 300;
        let (hnsw, data) = build_pair(n, dim, IndexKind::Hnsw, 5);
        let q = data[0..dim].to_vec();
        let params = SearchParams::default();
        let mut it = hnsw.search_iterator(&q, &params).unwrap();
        let mut seen = std::collections::HashSet::new();
        loop {
            let b = it.next_batch(16).unwrap();
            if b.is_empty() {
                break;
            }
            for nb in b {
                assert!(seen.insert(nb.id), "duplicate id {}", nb.id);
            }
        }
        // Layer 0 of HNSW is connected for this data size, so the iterator
        // reaches every node.
        assert_eq!(seen.len(), n);
        // Native: visited equals nodes touched once, not doubled restarts.
        assert_eq!(it.visited(), n);
    }

    #[test]
    fn iterator_first_batch_contains_true_nearest() {
        let dim = 8;
        let (hnsw, data) = build_pair(500, dim, IndexKind::Hnsw, 6);
        let q = data[40 * dim..41 * dim].to_vec();
        let params = SearchParams::default().with_ef(64);
        let truth = exact_topk(Metric::L2, &data, dim, &q, 1, None);
        let mut it = hnsw.search_iterator(&q, &params).unwrap();
        let first = it.next_batch(10).unwrap();
        assert!(
            first.iter().any(|nb| nb.id == truth[0].id),
            "true nearest {} missing from first batch {:?}",
            truth[0].id,
            first
        );
    }

    #[test]
    fn range_search_finds_close_cluster() {
        let dim = 4;
        let (hnsw, data) = build_pair(800, dim, IndexKind::Hnsw, 7);
        let q = data[0..dim].to_vec();
        let radius = 2.0;
        let params = SearchParams::default().with_ef(64);
        let mut truth = exact_topk(Metric::L2, &data, dim, &q, 800, None);
        truth.retain(|nb| nb.distance <= radius);
        let got = hnsw.search_with_range(&q, radius, &params, None).unwrap();
        assert!(!truth.is_empty());
        // ANN range search may miss a few fringe rows but must find most.
        assert!(
            got.len() as f64 >= truth.len() as f64 * 0.9,
            "range recall too low: {} of {}",
            got.len(),
            truth.len()
        );
        for nb in &got {
            assert!(nb.distance <= radius);
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_search() {
        let dim = 8;
        let (hnsw, data) = build_pair(400, dim, IndexKind::Hnsw, 8);
        let blob = hnsw.save_bytes().unwrap();
        let loaded = HnswIndex::load_bytes(&blob).unwrap();
        let q = &data[0..dim];
        let params = SearchParams::default();
        assert_eq!(
            hnsw.search_with_bound(q, 10, &params, None, None).unwrap(),
            loaded.search_with_bound(q, 10, &params, None, None).unwrap()
        );
    }

    #[test]
    fn sq_save_load_roundtrip() {
        let dim = 8;
        let (hnswsq, data) = build_pair(300, dim, IndexKind::HnswSq, 9);
        let blob = hnswsq.save_bytes().unwrap();
        let loaded = HnswIndex::load_bytes(&blob).unwrap();
        assert_eq!(loaded.meta().kind, IndexKind::HnswSq);
        let q = &data[0..dim];
        let params = SearchParams::default();
        assert_eq!(
            hnswsq.search_with_bound(q, 5, &params, None, None).unwrap(),
            loaded.search_with_bound(q, 5, &params, None, None).unwrap()
        );
    }

    #[test]
    fn sq_bound_prunes_far_candidates_without_dropping_true_ones() {
        let dim = 8;
        let n = 300;
        let (hnswsq, data) = build_pair(n, dim, IndexKind::HnswSq, 12);
        // Wide beam on small clusters so the candidate list spans clusters:
        // far-cluster candidates sit ~4 per dim away, far outside the
        // rho-adjusted lower bound.
        let params = SearchParams::default().with_ef(160);
        let q = &data[0..dim];
        let k = 40;
        let truth = exact_topk(Metric::L2, &data, dim, q, 10, None);
        let bound_val = truth[9].distance;
        let b = SharedBound::new();
        b.update(bound_val);
        let plain = hnswsq.search_with_bound(q, k, &params, None, None).unwrap();
        let got = hnswsq.search_with_bound(q, k, &params, None, Some(&b)).unwrap();
        assert!(b.skips() > 0, "tight bound produced no skips");
        let got_ids: Vec<u64> = got.iter().map(|nb| nb.id).collect();
        for cand in &plain {
            let row = &data[cand.id as usize * dim..(cand.id as usize + 1) * dim];
            let exact = Metric::L2.distance(q, row);
            assert!(
                exact > bound_val || got_ids.contains(&cand.id),
                "candidate {} (exact {exact} <= bound {bound_val}) was pruned",
                cand.id
            );
        }
        // Roundtrip keeps rho, so the loaded index prunes too.
        let loaded = HnswIndex::load_bytes(&hnswsq.save_bytes().unwrap()).unwrap();
        let b2 = SharedBound::new();
        b2.update(bound_val);
        let got2 = loaded.search_with_bound(q, k, &params, None, Some(&b2)).unwrap();
        assert_eq!(got, got2);
        assert_eq!(b.skips(), b2.skips());
    }

    #[test]
    fn sq_blob_without_rho_is_rejected() {
        let (hnswsq, _) = build_pair(200, 8, IndexKind::HnswSq, 13);
        let blob = hnswsq.save_bytes().unwrap().to_vec();
        assert!(HnswIndex::load_bytes(&blob).is_ok());
        // A header version below 2 (bytes [4,6), little-endian).
        let mut v1 = blob.clone();
        v1[4] = 1;
        assert!(matches!(HnswIndex::load_bytes(&v1), Err(BhError::Serde(_))));
        // A cleared rho flag: the blob ends with flag byte + f32 rho.
        let mut unflagged = blob.clone();
        let flag = blob.len() - 5;
        assert_eq!(unflagged[flag], 1);
        unflagged[flag] = 0;
        assert!(matches!(HnswIndex::load_bytes(&unflagged), Err(BhError::Serde(_))));
    }

    #[test]
    fn filtered_traversal_passes_filter_and_meets_recall_floor() {
        let dim = 8;
        let n = 1000;
        let (hnsw, data) = build_pair(n, dim, IndexKind::Hnsw, 21);
        let k = 10;
        // From permissive to selective: every 2nd, 10th, 50th row passes.
        for (s, step) in [(0.5f32, 2usize), (0.1, 10), (0.02, 50)] {
            let allow = Bitset::from_positions(n, (0..n).step_by(step));
            let params =
                SearchParams::default().with_ef(96).with_selectivity(s).with_filter_traversal(true);
            let mut total = 0.0;
            let queries = 12;
            for q in 0..queries {
                let qv = &data[q * 83 * dim % (n * dim - dim)..][..dim];
                let got = hnsw.search_with_bound(qv, k, &params, Some(&allow), None).unwrap();
                for nb in &got {
                    assert_eq!(
                        nb.id as usize % step,
                        0,
                        "s={s}: row {} escaped the filter",
                        nb.id
                    );
                }
                let truth = exact_topk(Metric::L2, &data, dim, qv, k, Some(&allow));
                total += recall_at_k(&truth, &got, k);
            }
            // On this fixture the bands reach 1.0, 1.0 and 0.958.
            let recall = total / queries as f64;
            assert!(recall >= 0.85, "s={s}: traversal recall {recall} below floor");
        }
    }

    #[test]
    fn filtered_traversal_respects_shared_bound_rules() {
        let dim = 8;
        let n = 800;
        let (hnsw, data) = build_pair(n, dim, IndexKind::Hnsw, 22);
        let allow = Bitset::from_positions(n, (0..n).step_by(5));
        let params =
            SearchParams::default().with_ef(96).with_selectivity(0.2).with_filter_traversal(true);
        let q = &data[0..dim];
        let k = 15;
        let plain = hnsw.search_with_bound(q, k, &params, Some(&allow), None).unwrap();
        // A vacuous bound changes nothing and gets tightened by the exact
        // k-th distance once the local top-k fills.
        let b = SharedBound::new();
        let got = hnsw.search_with_bound(q, k, &params, Some(&allow), Some(&b)).unwrap();
        assert_eq!(got, plain);
        assert!(b.get() < f32::INFINITY, "exact store must publish its k-th");
        // A tight bound (true filtered 5th distance) prunes exactly the
        // candidates whose exact distance exceeds it — never a survivor.
        let truth = exact_topk(Metric::L2, &data, dim, q, k, Some(&allow));
        let tight = truth[4].distance;
        let b2 = SharedBound::new();
        b2.update(tight);
        let pruned = hnsw.search_with_bound(q, k, &params, Some(&allow), Some(&b2)).unwrap();
        assert!(b2.skips() > 0, "tight bound produced no skips");
        let expect: Vec<Neighbor> =
            plain.iter().copied().filter(|nb| nb.distance <= tight).collect();
        assert_eq!(pruned, expect);
    }

    #[test]
    fn filtered_traversal_sq_respects_filter() {
        let dim = 8;
        let n = 600;
        let (hnswsq, data) = build_pair(n, dim, IndexKind::HnswSq, 23);
        let allow = Bitset::from_positions(n, (0..n).step_by(7));
        let params =
            SearchParams::default().with_ef(96).with_selectivity(0.15).with_filter_traversal(true);
        let got = hnswsq.search_with_bound(&data[0..dim], 8, &params, Some(&allow), None).unwrap();
        assert!(!got.is_empty());
        for nb in got {
            assert_eq!(nb.id % 7, 0);
        }
    }

    /// Benchmark-shaped rows: 32 cluster centres in `[-1, 1]^dim`, unit-ish
    /// noise of spread 0.35 around them.
    fn centred(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut r = rng(seed);
        let centres: Vec<f32> = (0..32 * dim).map(|_| r.gen::<f32>() * 2.0 - 1.0).collect();
        let mut data = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let c = r.gen_range(0..32usize) * dim;
            data.extend(centres[c..c + dim].iter().map(|m| m + (r.gen::<f32>() - 0.5) * 1.2));
        }
        data
    }

    /// `SearchParams::predicted_visits` against the counts the beam loops
    /// report, over table size x beam width x pass fraction, for all four
    /// ways the executor drives the graph. The cost model prices graph
    /// plans by this prediction, so it has to stay within 2x of the work.
    #[test]
    fn predicted_visits_stay_within_2x_of_the_beam_loops() {
        use crate::types::GraphScan;
        let (dim, k) = (16, 10);
        for rows in [128usize, 1_000, 8_000] {
            let data = centred(rows + 16, dim, rows as u64);
            let (data, queries) = data.split_at(rows * dim);
            let ids: Vec<u64> = (0..rows as u64).collect();
            let spec = IndexSpec::new(IndexKind::Hnsw, dim, Metric::L2);
            let mut hb = Box::new(HnswBuilder::new(&spec, IndexKind::Hnsw).unwrap());
            hb.add_with_ids(data, &ids).unwrap();
            let blob = (hb as Box<dyn IndexBuilder>).finish().unwrap().save_bytes().unwrap();
            let idx = HnswIndex::load_bytes(&blob).unwrap();
            // Mean visits over the query set of one way of driving layer 0.
            let mean = |walk: &dyn Fn(&[f32], u32) -> usize| -> f64 {
                let total: usize = queries
                    .chunks(dim)
                    .map(|q| walk(q, idx.greedy_to_level(q, idx.entry, idx.max_level, 0)))
                    .sum();
                total as f64 / (queries.len() / dim) as f64
            };
            for ef in [16usize, 64, 256] {
                for s in [1.0f64, 0.9, 0.3, 0.1, 0.01] {
                    let p = SearchParams::default().with_ef(ef).with_selectivity(s as f32);
                    let mut draw = rng(7);
                    let bits =
                        Bitset::from_positions(rows, (0..rows).filter(|_| draw.gen::<f64>() < s));
                    // The pull's demand (σ·k of the executor) varies with the cell.
                    let want = ef;
                    let beam = |q: &[f32], e: u32| idx.search_layer(q, e, ef, 0).1;
                    let widened = |q: &[f32], e: u32| idx.search_layer(q, e, p.widened_ef(ef), 0).1;
                    let traversal = |q: &[f32], e: u32| {
                        let ef = p.traversal_ef(ef);
                        idx.search_layer0_filtered(q, e, ef, &bits, p.hop_budget()).1
                    };
                    let pull = |q: &[f32], _: u32| {
                        let mut it = idx.search_iterator(q, &p).unwrap();
                        let mut passing = 0;
                        while passing < want {
                            let batch = it.next_batch(16).unwrap();
                            if batch.is_empty() {
                                break;
                            }
                            passing +=
                                batch.iter().filter(|nb| bits.contains(nb.id as usize)).count();
                        }
                        it.visited()
                    };
                    type Walk<'a> = &'a dyn Fn(&[f32], u32) -> usize;
                    let walks: [(GraphScan, usize, Walk); 4] = [
                        (GraphScan::Beam, k, &beam),
                        (GraphScan::WidenedBeam, k, &widened),
                        (GraphScan::FilteredTraversal, k, &traversal),
                        (GraphScan::IteratorPull, want, &pull),
                    ];
                    // The unfiltered beam is the s = 1 column, the rest the others.
                    for (scan, k, walk) in walks {
                        if (scan == GraphScan::Beam) != (s == 1.0) {
                            continue;
                        }
                        let real = mean(walk);
                        let predicted = p.predicted_visits(scan, rows, k, s) as f64;
                        assert!(
                            predicted <= 2.0 * real && real <= 2.0 * predicted,
                            "{scan:?} rows {rows} ef {ef} s {s}: predicted {predicted}, real {real:.0}"
                        );
                    }
                }
            }
        }
    }

    /// FNV-1a over 64-bit words.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Fnv {
            Fnv(0xcbf2_9ce4_8422_2325)
        }
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn hits(&mut self, hits: &[Neighbor]) {
            self.word(hits.len() as u64);
            for nb in hits {
                self.word(nb.id);
                self.word(u64::from(nb.distance.to_bits()));
            }
        }
    }

    /// Pins what every way of driving the graph returns — ids, distance
    /// bits and visited counts — and the bytes the builder produces, so a
    /// refactor of the beam loop, the descent or the codec shows up as a
    /// changed constant. The blob constants were produced by this same test
    /// at the commit before the four loops became one (CHANGES.md, PR 16),
    /// the search constants at the commit before head-only search went
    /// (PR 19).
    #[test]
    #[cfg_attr(miri, ignore = "two 1,000-row builds at ef_construction 120: hours under Miri")]
    fn golden_traversal_and_blob_identity() {
        // Distance bits follow the kernel tier's summation order, and the
        // graph follows the distances: the constants are the AVX2 tier's,
        // the one CI's x86_64 runners select.
        if KernelTier::current() != KernelTier::Avx2 {
            return;
        }
        let (dim, n, k, ef) = (8, 1000, 10, 96);
        let allow = Bitset::from_positions(n, (0..n).filter(|i| i % 10 == 3));
        for (kind, want_search, want_blob) in [
            (IndexKind::Hnsw, GOLDEN_HNSW_SEARCH, GOLDEN_HNSW_BLOB),
            (IndexKind::HnswSq, GOLDEN_HNSWSQ_SEARCH, GOLDEN_HNSWSQ_BLOB),
        ] {
            let (built, data) = build_pair(n, dim, kind, 77);
            let blob = built.save_bytes().unwrap();
            let mut bh = Fnv::new();
            for chunk in blob.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                bh.word(u64::from_le_bytes(w));
            }
            assert_eq!(bh.0, want_blob, "{kind:?}: save_bytes blob changed ({:#018x})", bh.0);

            let idx = HnswIndex::load_bytes(&blob).unwrap();
            let plain = SearchParams::default().with_ef(ef);
            let widened = plain.with_selectivity(0.1);
            let walk = widened.with_filter_traversal(true);
            let mut h = Fnv::new();
            for q in 0..8 {
                // Off-row queries: a data row shifted by a fixed offset.
                let qv: Vec<f32> = data[q * 97 * dim..][..dim].iter().map(|x| x + 0.37).collect();
                let entry = idx.greedy_to_level(&qv, idx.entry, idx.max_level, 0);
                h.word(u64::from(entry));
                // Plain beam.
                let top = idx.search_with_bound(&qv, k, &plain, None, None).unwrap();
                h.hits(&top);
                h.word(idx.search_layer(&qv, entry, ef, 0).1 as u64);
                // Plan B: widened beam, bitmap applied afterwards.
                h.hits(&idx.search_with_bound(&qv, k, &widened, Some(&allow), None).unwrap());
                h.word(idx.search_layer(&qv, entry, widened.widened_ef(ef), 0).1 as u64);
                // Plan D: predicate-aware traversal.
                h.hits(&idx.search_with_bound(&qv, k, &walk, Some(&allow), None).unwrap());
                let (cands, visited) = idx.search_layer0_filtered(
                    &qv,
                    entry,
                    walk.traversal_ef(ef),
                    &allow,
                    walk.hop_budget(),
                );
                h.word(cands.len() as u64);
                h.word(visited as u64);
                // Shared bound: a vacuous one gets published to (raw store
                // only), a tight one prunes.
                let open = SharedBound::new();
                h.hits(&idx.search_with_bound(&qv, k, &plain, None, Some(&open)).unwrap());
                h.word(u64::from(open.get().to_bits()));
                let tight = SharedBound::new();
                tight.update(top[4].distance);
                let b = Some(&tight);
                h.hits(&idx.search_with_bound(&qv, 4 * k, &walk, Some(&allow), b).unwrap());
                h.hits(&idx.search_with_bound(&qv, 4 * k, &plain, None, b).unwrap());
                h.word(tight.skips());
                h.word(u64::from(tight.get().to_bits()));
                // Native iterator, first 200 rows.
                let mut it = idx.search_iterator(&qv, &plain).unwrap();
                h.hits(&it.next_batch(200).unwrap());
                h.word(it.visited() as u64);
            }
            assert_eq!(h.0, want_search, "{kind:?}: traversal changed ({:#018x})", h.0);
        }
    }

    const GOLDEN_HNSW_SEARCH: u64 = 0x5d21_7675_47d8_9b50;
    const GOLDEN_HNSW_BLOB: u64 = 0x7cd7_0bbb_2be9_cd60;
    const GOLDEN_HNSWSQ_SEARCH: u64 = 0x19da_d7fe_0329_76a5;
    const GOLDEN_HNSWSQ_BLOB: u64 = 0x40bc_3e76_e82a_7c15;

    #[test]
    fn corrupt_blob_rejected() {
        let (hnsw, _) = build_pair(50, 4, IndexKind::Hnsw, 10);
        let blob = hnsw.save_bytes().unwrap();
        assert!(HnswIndex::load_bytes(&blob[..20]).is_err());
    }

    #[test]
    fn builder_rejects_bad_params() {
        let spec = IndexSpec::new(IndexKind::Hnsw, 4, Metric::L2).with_param("m", 1);
        assert!(HnswBuilder::new(&spec, IndexKind::Hnsw).is_err());
        let spec0 = IndexSpec::new(IndexKind::Hnsw, 0, Metric::L2);
        assert!(HnswBuilder::new(&spec0, IndexKind::Hnsw).is_err());
        let ok = IndexSpec::new(IndexKind::Hnsw, 4, Metric::L2);
        assert!(HnswBuilder::new(&ok, IndexKind::IvfFlat).is_err());
    }

    #[test]
    fn deterministic_build_given_seed() {
        let dim = 8;
        let data = clustered(200, dim, 11);
        let ids: Vec<u64> = (0..200).collect();
        let mk = || {
            let spec =
                IndexSpec::new(IndexKind::Hnsw, dim, Metric::L2).with_param("seed", 42);
            let mut b = Box::new(HnswBuilder::new(&spec, IndexKind::Hnsw).unwrap());
            b.add_with_ids(&data, &ids).unwrap();
            (b as Box<dyn IndexBuilder>).finish().unwrap().save_bytes().unwrap()
        };
        assert_eq!(mk(), mk());
    }
}
