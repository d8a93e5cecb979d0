//! Hierarchical Navigable Small World graphs (Malkov & Yashunin), with the
//! iterative-search extension the paper adds to hnswlib (§III-B).
//!
//! Two storage backends share one graph implementation:
//!
//! * `HNSW` — raw f32 vectors (exact distances); its blob holds the graph
//!   alone and a load takes the rows from the segment's vector column.
//! * `HNSWSQ` — vectors stored as 8-bit scalar-quantized codes
//!   ([`crate::quant::sq::Sq8`]), decoded on the fly (asymmetric distance):
//!   ~4x less memory for a small recall cost (Table VI's shape).
//!
//! The **native search iterator** is the feature BlendHouse's post-filter
//! strategy relies on: a resumable best-first traversal of layer 0 whose
//! state (candidate heap + visited set) persists across batches, so asking
//! for "k more" costs only the incremental expansion — no doubled-k restart.

use crate::codec::{metric_from_u8, metric_to_u8, Reader, Writer};
use crate::distance::distance_batch;
use crate::iterator::SearchIterator;
use crate::quant::sq::Sq8;
use crate::types::{
    build_pool, check_batch, BoundedTopK, IndexBuilder, IndexMeta, IndexSpec, Neighbor,
    SearchParams, VectorIndex,
};
use crate::{IndexKind, Metric};
use bh_common::rng::{derived_rng, DetRng};
use bh_common::{BhError, Bitset, FanoutPool, QueryCtx, Result, SharedBound};
use bytes::Bytes;
use rand::Rng;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::AtomicU32;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"BHHN";
/// v3 holds the graph alone — flat per-level links, ids only when not
/// `0..n`, HNSWSQ's codes and `rho`; a raw blob's vectors are the segment's
/// column, handed to [`HnswIndex::load`]. Older versions are rejected.
const VERSION: u16 = 3;

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
    /// Serialize what a blob carries of the store: nothing raw (the rows are
    /// the segment's column); SQ's quantizer, codes and `rho`.
    fn write(&self, w: &mut Writer) {
        if let Store::Sq { sq, codes, rho } = self {
            sq.save(w);
            w.put_bytes(codes);
            w.put_f32(*rho);
        }
    }

    /// Read [`Store::write`]'s payload for `kind`; raw owns `vectors`.
    fn read(kind: IndexKind, r: &mut Reader<'_>, vectors: Vec<f32>) -> Result<Store> {
        if kind == IndexKind::Hnsw {
            return Ok(Store::Raw { data: vectors });
        }
        let (sq, codes) = (Sq8::load(r)?, r.get_bytes()?);
        Ok(Store::Sq { sq, codes, rho: r.get_f32()? })
    }

    /// Whether the store holds `n` rows of `dim` (raw: or none at all).
    fn fits(&self, n: usize, dim: usize) -> bool {
        match self {
            Store::Raw { data } => data.is_empty() || data.len() == n * dim,
            Store::Sq { codes, .. } => codes.len() == n * dim,
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
/// ([`HnswIndex`]) or the builder's graph as linked so far ([`Linked`]).
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

/// One level's adjacency, flat: the neighbours of the level's `i`-th node
/// are `links[offsets[i]..offsets[i + 1]]`. Level 0 holds every node in node
/// order; an upper level lists its own `nodes`, ascending.
#[derive(Debug)]
struct Level {
    nodes: Vec<u32>,
    offsets: Vec<u32>,
    links: Vec<u32>,
}

impl Level {
    /// Flatten the builder's per-node lists into one level per level.
    fn seal(per_node: &[Vec<Vec<u32>>], max_level: usize) -> Vec<Level> {
        let mut levels: Vec<Level> = (0..=max_level)
            .map(|_| Level { nodes: Vec::new(), offsets: vec![0], links: Vec::new() })
            .collect();
        for (node, per) in per_node.iter().enumerate() {
            for (l, (level, list)) in levels.iter_mut().zip(per).enumerate() {
                level.nodes.extend((l > 0).then_some(node as u32));
                level.links.extend_from_slice(list);
                level.offsets.push(level.links.len() as u32);
            }
        }
        levels
    }

    fn write(&self, w: &mut Writer, upper: bool) {
        if upper {
            w.put_u32_slice(&self.nodes);
        }
        w.put_u32_slice(&self.offsets);
        w.put_u32_slice(&self.links);
    }

    /// Read a [`Level::write`]: level 0 when `nodes_of` is `None`, else an
    /// upper level of a graph of that many nodes, checked against it.
    fn read(r: &mut Reader<'_>, nodes_of: Option<usize>) -> Result<Level> {
        let nodes = if nodes_of.is_some() { r.get_u32_vec()? } else { Vec::new() };
        let offsets = r.get_u32_vec()?;
        let links = r.get_u32_vec()?;
        let rows = nodes_of.map_or(offsets.len().saturating_sub(1), |_| nodes.len());
        let n = nodes_of.unwrap_or(rows);
        if offsets.len() != rows + 1
            || offsets[0] != 0
            || offsets.windows(2).any(|p| p[0] > p[1])
            || offsets[rows] as usize != links.len()
            || nodes.windows(2).any(|p| p[0] >= p[1])
            || links.iter().chain(&nodes).any(|&x| x as usize >= n)
        {
            return Err(BhError::Serde("hnsw: corrupt link section".into()));
        }
        Ok(Level { nodes, offsets, links })
    }
}

/// An immutable HNSW index.
#[derive(Debug)]
pub struct HnswIndex {
    dim: usize,
    metric: Metric,
    kind: IndexKind,
    m: usize,
    /// The table column the graph was built over (empty outside a table).
    column: String,
    ids: Vec<u64>,
    /// Level `l`'s adjacency; `levels.len()` is `max_level + 1`.
    levels: Vec<Level>,
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
        let Some(l) = self.levels.get(level) else { return &[] };
        let i = if level == 0 { Ok(node as usize) } else { l.nodes.binary_search(&node) };
        i.map_or(&[], |i| &l.links[l.offsets[i] as usize..l.offsets[i + 1] as usize])
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
            // The base ef, unwidened: the traversal's result heap admits
            // only predicate-passing rows, so an `ef`-sized heap already
            // demands `ef` answerable candidates, and the wavefront covers
            // what a plain beam of width `ef/s` would
            // (`SearchParams::predicted_visits`). Widening on top would
            // count the selectivity twice (ACORN keeps its candidate list
            // size unchanged for the same reason).
            Some(f) if params.filter_traversal => {
                let admit =
                    AdmitPassing { ids: &self.ids, filter: f, hop_budget: params.hop_budget() };
                beam(self, query, entry, ef_base, 0, &admit)
            }
            // With a selective filter, widen the beam so enough filtered
            // rows survive — hnswlib's recipe, with the factor now derived
            // from the selectivity estimate instead of a fixed 2x.
            Some(_) => beam(self, query, entry, params.widened_ef(ef_base), 0, &AdmitAll),
            None => beam(self, query, entry, ef_base, 0, &AdmitAll),
        }
    }

    /// Deserialize a [`VectorIndex::save_bytes`] blob. A raw HNSW graph owns
    /// `vectors`, its rows in node order (the segment's column); loaded with
    /// none, every search of it errs. HNSWSQ carries its codes, takes none.
    pub fn load(bytes: &[u8], vectors: Vec<f32>) -> Result<HnswIndex> {
        let mut r = Reader::new(bytes);
        let (kind, column) = Self::header(&mut r)?;
        let dim = r.get_u64()? as usize;
        let metric = metric_from_u8(r.get_u8()?)?;
        let m = r.get_u64()? as usize;
        let entry = r.get_u32()?;
        let max_level = r.get_u64()? as usize;
        let mut levels = vec![Level::read(&mut r, None)?];
        let n = levels[0].offsets.len() - 1;
        for _ in 0..max_level {
            levels.push(Level::read(&mut r, Some(n))?);
        }
        let ids = match r.get_u8()? {
            0 => (0..n as u64).collect(),
            1 => r.get_u64_vec()?,
            x => return Err(BhError::Serde(format!("hnsw: bad ids byte {x}"))),
        };
        let store = Store::read(kind, &mut r, vectors)?;
        if dim == 0 || ids.len() != n || (n > 0 && entry as usize >= n) || !store.fits(n, dim) {
            return Err(BhError::Serde("hnsw: corrupt geometry".into()));
        }
        Ok(HnswIndex { dim, metric, kind, m, column, ids, levels, entry, max_level, store })
    }

    /// The table column a blob's graph was built over, from its header.
    pub fn column_of(bytes: &[u8]) -> Result<String> {
        Ok(Self::header(&mut Reader::new(bytes))?.1)
    }

    fn header(r: &mut Reader<'_>) -> Result<(IndexKind, String)> {
        let version = r.expect_header(MAGIC)?;
        if version < VERSION {
            return Err(BhError::Serde(format!("hnsw: blob version {version} is no longer read")));
        }
        let kind = [IndexKind::Hnsw, IndexKind::HnswSq].get(usize::from(r.get_u8()?)).copied();
        Ok((kind.ok_or_else(|| BhError::Serde("hnsw: bad kind byte".into()))?, r.get_str()?))
    }

    /// [`VectorIndex::check_query`], and that a raw graph has its vector rows.
    fn check_search(&self, query: &[f32]) -> Result<()> {
        self.check_query(query)?;
        if matches!(&self.store, Store::Raw { data } if data.len() != self.n() * self.dim) {
            return Err(BhError::Index(format!(
                "hnsw: {:?} loaded without its vectors",
                self.column
            )));
        }
        Ok(())
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
        self.check_search(query)?;
        if self.n() == 0 || k == 0 {
            return Ok(Vec::new());
        }
        // The graph traversal itself never sees the bound — pruning mid-walk
        // would change which neighborhoods get explored. Only the final
        // candidate list participates, whichever source produced it.
        let ef = params.ef_search.max(k);
        let entry = descend(self, query, self.entry, self.max_level, 0);
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
        self.check_search(query)?;
        let mut heap = BinaryHeap::new();
        let mut visited = vec![false; self.n()];
        if self.n() > 0 {
            let entry = descend(self, query, self.entry, self.max_level, 0);
            visited[entry as usize] = true;
            heap.push(Reverse(DistNode { dist: self.distance(query, entry), node: entry }));
        }
        Ok(Box::new(HnswIterator {
            index: self,
            query: query.to_vec(),
            heap,
            visited,
            n_visited: if self.n() > 0 { 1 } else { 0 },
        }))
    }

    fn needs_refine(&self) -> bool {
        matches!(self.kind, IndexKind::HnswSq)
    }

    fn memory_usage(&self) -> usize {
        let words: usize =
            self.levels.iter().map(|l| l.nodes.len() + l.offsets.len() + l.links.len()).sum();
        self.store.memory_usage() + words * 4 + self.ids.len() * 8 + std::mem::size_of::<Self>()
    }

    fn save_bytes(&self) -> Result<Bytes> {
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.put_u8(match self.kind {
            IndexKind::Hnsw => 0,
            IndexKind::HnswSq => 1,
            _ => return Err(BhError::Internal("hnsw: impossible kind".into())),
        });
        w.put_str(&self.column);
        w.put_u64(self.dim as u64);
        w.put_u8(metric_to_u8(self.metric));
        w.put_u64(self.m as u64);
        w.put_u32(self.entry);
        w.put_u64(self.max_level as u64);
        for (l, level) in self.levels.iter().enumerate() {
            level.write(&mut w, l > 0);
        }
        if self.ids.iter().copied().eq(0..self.n() as u64) {
            w.put_u8(0);
        } else {
            w.put_u8(1);
            w.put_u64_slice(&self.ids);
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
            let index = self.index;
            for &nb in index.links(c.node, 0) {
                if !self.visited[nb as usize] {
                    self.visited[nb as usize] = true;
                    self.n_visited += 1;
                    let d = index.distance(&self.query, nb);
                    self.heap.push(Reverse(DistNode { dist: d, node: nb }));
                }
            }
            out.push(Neighbor::new(index.ids[c.node as usize], c.dist));
        }
        Ok(out)
    }

    fn visited(&self) -> usize {
        self.n_visited
    }
}

/// Rows linked per round of [`HnswBuilder`]'s batch-synchronous insertion.
/// The graph depends on the data and this number alone; a batch of one row
/// is the classic one-row-at-a-time insertion.
const INSERT_BATCH: usize = 64;

/// Builder for `HNSW` / `HNSWSQ`.
///
/// Each `add_with_ids` call's rows are linked in batches of
/// [`INSERT_BATCH`], in id order, three steps to a batch:
///
/// 1. On the pool, every row of the batch finds its neighbours at each of
///    its levels: the descent and beam over the graph as linked before the
///    batch, plus the batch's earlier rows on that level scored directly,
///    then the neighbour heuristic.
/// 2. On the pool, every list the batch appended to (one node at one level)
///    takes its appends in source-id order, each pruned back to the list's
///    cap as it lands.
/// 3. The entry point moves, in id order.
///
/// A list depends only on its own appends, so the graph is the same at any
/// pool size. Nothing a task allocates outlives it: each writes its lists
/// into buffers the caller allocated before the fan-out (a block a helper
/// allocates and the caller keeps is later recycled through the caller's
/// malloc cache, and the helper's arena grows by it).
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
    /// `links[node][level]`: every linked node's list at each of its levels.
    links: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_level: usize,
    pool: Arc<FanoutPool>,
    /// Distances the build has computed.
    dist_evals: u64,
}

impl HnswBuilder {
    /// A builder for `HNSW` or `HNSWSQ` validated against `spec`, linking on
    /// the process-wide [`build_pool`].
    pub fn new(spec: &IndexSpec, kind: IndexKind) -> Result<HnswBuilder> {
        Self::with_pool(spec, kind, build_pool())
    }

    /// [`Self::new`] on a given pool. The graph built is the same whatever
    /// the pool's size.
    pub fn with_pool(
        spec: &IndexSpec,
        kind: IndexKind,
        pool: Arc<FanoutPool>,
    ) -> Result<HnswBuilder> {
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
            links: Vec::new(),
            entry: 0,
            max_level: 0,
            pool,
            dist_evals: 0,
        })
    }

    fn dim(&self) -> usize {
        self.spec.dim
    }

    /// Distances computed by the rows added so far: the descents, beams,
    /// direct scores of a batch's earlier rows, neighbour selection and
    /// pruning. The same at any pool size.
    pub fn dist_evals(&self) -> u64 {
        self.dist_evals
    }

    fn max_links(&self, level: usize) -> usize {
        if level == 0 {
            self.m * 2
        } else {
            self.m
        }
    }

    /// `add_with_ids`, linking in batches of `batch` rows.
    fn add(&mut self, vectors: &[f32], ids: &[u64], batch: usize) -> Result<()> {
        if self.kind == IndexKind::HnswSq && self.sq.is_none() {
            // Auto-train on the first batch, matching faiss' convenience path.
            self.sq = Some(Sq8::train(vectors, self.dim())?);
        }
        let n = check_batch(self.dim(), vectors, ids)?;
        let start = self.ids.len();
        self.raw.extend_from_slice(vectors);
        self.ids.extend_from_slice(ids);
        for lo in (start..start + n).step_by(batch) {
            self.link(lo, (lo + batch).min(start + n))?;
        }
        Ok(())
    }

    /// Link rows `lo..hi` into the graph of rows `0..lo` (the three steps of
    /// the type's doc).
    fn link(&mut self, lo: usize, hi: usize) -> Result<()> {
        let levels: Vec<usize> =
            (lo..hi).map(|_| (-self.rng.gen::<f64>().ln() * self.ml).floor() as usize).collect();
        let mut first = Vec::with_capacity(levels.len() + 1);
        first.push(0);
        for &top in &levels {
            first.push(first[first.len() - 1] + top + 1);
        }
        let batch = Batch { lo, levels, first };
        // 1. Each row's neighbours, `m + 1` words per (row, level): the
        // count, then the list. The words are atomics only so that tasks
        // can share the buffer; `Relaxed` suffices because `run` returns
        // after every task has (a helper's Release when it finishes a task,
        // the caller's Acquire before returning), so every store is seen.
        let stride = self.m + 1;
        let found: Vec<AtomicU32> =
            (0..batch.first[batch.levels.len()] * stride).map(|_| AtomicU32::new(0)).collect();
        let this = &*self;
        let evals = this.pool.run(hi - lo, usize::MAX, |b| {
            let g = Linked { b: this, evals: Cell::new(0) };
            g.find(&batch, b, &found[batch.first[b] * stride..batch.first[b + 1] * stride])?;
            Ok(g.evals.get())
        });
        self.dist_evals += evals.into_results()?.iter().sum::<u64>();
        let read = |at: usize| -> Vec<u32> {
            let slot = &found[at * stride..(at + 1) * stride];
            slot[1..=slot[0].load(Relaxed) as usize].iter().map(|x| x.load(Relaxed)).collect()
        };
        // Every list a row appended itself to, as (node, level, source).
        let mut appends: Vec<(u32, u32, u32)> = Vec::new();
        for (b, &top) in batch.levels.iter().enumerate() {
            let lists: Vec<Vec<u32>> = (0..=top).map(|l| read(batch.first[b] + l)).collect();
            for (l, list) in lists.iter().enumerate() {
                appends.extend(list.iter().map(|&nb| (nb, l as u32, (lo + b) as u32)));
            }
            self.links.push(lists);
        }
        appends.sort_unstable();
        let touched: Vec<&[(u32, u32, u32)]> =
            appends.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)).collect();
        // 2. Each appended-to list, rebuilt: the count, then up to `2m`.
        let stride = 2 * self.m + 1;
        let relinked: Vec<AtomicU32> =
            (0..touched.len() * stride).map(|_| AtomicU32::new(0)).collect();
        let this = &*self;
        let evals = this.pool.run(touched.len(), usize::MAX, |g| {
            let linked = Linked { b: this, evals: Cell::new(0) };
            linked.relink(touched[g], &relinked[g * stride..(g + 1) * stride]);
            Ok(linked.evals.get())
        });
        self.dist_evals += evals.into_results()?.iter().sum::<u64>();
        for (g, list_appends) in touched.iter().enumerate() {
            let (node, level, _) = list_appends[0];
            let slot = &relinked[g * stride..(g + 1) * stride];
            let list = &mut self.links[node as usize][level as usize];
            list.clear();
            list.extend(slot[1..=slot[0].load(Relaxed) as usize].iter().map(|x| x.load(Relaxed)));
        }
        // 3. The entry point.
        for (b, &top) in batch.levels.iter().enumerate() {
            if top > self.max_level {
                self.max_level = top;
                self.entry = (lo + b) as u32;
            }
        }
        Ok(())
    }
}

/// The rows of one [`HnswBuilder::link`] call: row `lo + b` has levels
/// `0..=levels[b]`, and its level `l` is the `first[b] + l`-th (row, level)
/// of the batch.
struct Batch {
    lo: usize,
    levels: Vec<usize>,
    first: Vec<usize>,
}

/// The builder's graph as one link task reads it; the task counts the
/// distances it computes.
struct Linked<'a> {
    b: &'a HnswBuilder,
    evals: Cell<u64>,
}

impl Linked<'_> {
    fn row(&self, node: usize) -> &[f32] {
        let dim = self.b.dim();
        &self.b.raw[node * dim..(node + 1) * dim]
    }

    /// Distance between two added rows.
    #[inline]
    fn dist(&self, a: usize, b: usize) -> f32 {
        self.evals.set(self.evals.get() + 1);
        self.b.spec.metric.distance(self.row(a), self.row(b))
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
            let dominated =
                selected.iter().any(|s| self.dist(s.node as usize, c.node as usize) < c.dist);
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

    /// Step 1 for row `lo + b` of `batch`: its neighbours at each of its
    /// levels, written to `out` (`m + 1` words per level, top level last).
    fn find(&self, batch: &Batch, b: usize, out: &[AtomicU32]) -> Result<()> {
        let g = self.b;
        let (dim, lo, j) = (g.dim(), batch.lo, batch.lo + b);
        let query = self.row(j);
        // The batch's earlier rows, scored in one block.
        let mut earlier = vec![0.0f32; b];
        distance_batch(g.spec.metric, query, &g.raw[lo * dim..j * dim], dim, &mut earlier)?;
        self.evals.set(self.evals.get() + b as u64);
        let top = batch.levels[b];
        // Greedy descent through the linked graph's levels above the row's.
        let mut cur = (lo > 0).then(|| descend(self, query, g.entry, g.max_level, top));
        for l in (0..=top).rev() {
            let mut cands = match cur {
                Some(c) if l <= g.max_level => {
                    let (cands, _) = beam(self, query, c, g.ef_construction, l, &AdmitAll);
                    if let Some(best) = cands.first() {
                        cur = Some(best.node);
                    }
                    cands
                }
                _ => Vec::new(),
            };
            let scored = earlier.iter().zip(&batch.levels).enumerate();
            cands.extend(
                scored
                    .filter(|&(_, (_, &their_top))| their_top >= l)
                    .map(|(i, (&dist, _))| DistNode { dist, node: (lo + i) as u32 }),
            );
            cands.sort_unstable();
            cands.truncate(g.ef_construction);
            let picked = self.select_neighbors(&cands, g.m);
            let slot = &out[l * (g.m + 1)..(l + 1) * (g.m + 1)];
            slot[0].store(picked.len() as u32, Relaxed);
            for (word, nb) in slot[1..].iter().zip(picked) {
                word.store(nb, Relaxed);
            }
        }
        Ok(())
    }

    /// Step 2 for one list: `appends` (node, level, source), sorted by
    /// source, pushed onto the node's list at that level one by one; a list
    /// over its cap is pruned back with the neighbour heuristic. Writes the
    /// count, then the list, to `out`.
    fn relink(&self, appends: &[(u32, u32, u32)], out: &[AtomicU32]) {
        let (node, level) = (appends[0].0 as usize, appends[0].1 as usize);
        let cap = self.b.max_links(level);
        let mut list = self.b.links[node][level].clone();
        for &(_, _, source) in appends {
            list.push(source);
            if list.len() > cap {
                let mut cand: Vec<DistNode> = list
                    .iter()
                    .map(|&x| DistNode { dist: self.dist(node, x as usize), node: x })
                    .collect();
                cand.sort();
                list = self.select_neighbors(&cand, cap);
            }
        }
        out[0].store(list.len() as u32, Relaxed);
        for (word, nb) in out[1..].iter().zip(list) {
            word.store(nb, Relaxed);
        }
    }
}

/// The graph as linked before the current batch.
impl Graph for Linked<'_> {
    fn node_count(&self) -> usize {
        self.b.links.len()
    }
    #[inline]
    fn links(&self, node: u32, level: usize) -> &[u32] {
        self.b.links[node as usize].get(level).map_or(&[], Vec::as_slice)
    }
    #[inline]
    fn distance(&self, query: &[f32], node: u32) -> f32 {
        self.evals.set(self.evals.get() + 1);
        self.b.spec.metric.distance(query, self.row(node as usize))
    }
}

impl IndexBuilder for HnswBuilder {
    fn train(&mut self, sample: &[f32]) -> Result<()> {
        if self.kind == IndexKind::HnswSq {
            self.sq = Some(Sq8::train(sample, self.dim())?);
        }
        Ok(())
    }

    fn add_with_ids(&mut self, vectors: &[f32], ids: &[u64]) -> Result<()> {
        self.add(vectors, ids, INSERT_BATCH)
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
                    let err: f32 = row.iter().zip(&recon).map(|(a, b)| (a - b) * (a - b)).sum();
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
            column: self.spec.column,
            ids: self.ids,
            levels: Level::seal(&self.links, self.max_level),
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
    use crate::iterator::search_with_range;
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
        let built = build_in_batches(&data, dim, kind, Metric::L2, INSERT_BATCH, build_pool());
        (built.0, data)
    }

    /// The tests' index (`M` 16, `ef_construction` 120) over `data`, linked
    /// in batches of `batch` on `pool`, and the build's distance count.
    fn build_in_batches(
        data: &[f32],
        dim: usize,
        kind: IndexKind,
        metric: Metric,
        batch: usize,
        pool: Arc<FanoutPool>,
    ) -> (Arc<dyn VectorIndex>, u64) {
        let ids: Vec<u64> = (0..(data.len() / dim) as u64).collect();
        let spec = IndexSpec::new(kind, dim, metric)
            .with_param("m", 16)
            .with_param("ef_construction", 120);
        let mut hb = Box::new(HnswBuilder::with_pool(&spec, kind, pool).unwrap());
        hb.train(data).unwrap();
        hb.add(data, &ids, batch).unwrap();
        let evals = hb.dist_evals();
        ((hb as Box<dyn IndexBuilder>).finish().unwrap(), evals)
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
        let mut it = hnsw.search_iterator(&q, &params).unwrap();
        let got = search_with_range(&mut *it, Some(radius), 64, usize::MAX, 64, Ok).unwrap();
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
        // A raw blob holds the graph alone; the rows come from the column.
        let loaded = HnswIndex::load(&blob, data.clone()).unwrap();
        assert_eq!(loaded.meta().kind, IndexKind::Hnsw);
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
        // HNSWSQ carries its own codes and takes no column.
        let loaded = HnswIndex::load(&blob, Vec::new()).unwrap();
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
        let loaded = HnswIndex::load(&hnswsq.save_bytes().unwrap(), Vec::new()).unwrap();
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
        assert!(HnswIndex::load(&blob, Vec::new()).is_ok());
        // A v2 header (bytes [4,6), little-endian): no longer read.
        let mut v2 = blob.clone();
        v2[4] = 2;
        assert!(matches!(HnswIndex::load(&v2, Vec::new()), Err(BhError::Serde(_))));
        // The blob ends with the f32 rho: cut off, it is rejected.
        let cut = &blob[..blob.len() - 4];
        assert!(matches!(HnswIndex::load(cut, Vec::new()), Err(BhError::Serde(_))));
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
                    assert_eq!(nb.id as usize % step, 0, "s={s}: row {} escaped the filter", nb.id);
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
            let idx = HnswIndex::load(&blob, data.to_vec()).unwrap();
            // Mean visits over the query set of one way of driving layer 0.
            let mean = |walk: &dyn Fn(&[f32], u32) -> usize| -> f64 {
                let total: usize = queries
                    .chunks(dim)
                    .map(|q| walk(q, descend(&idx, q, idx.entry, idx.max_level, 0)))
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
                    let plain = |q: &[f32], e: u32| beam(&idx, q, e, ef, 0, &AdmitAll).1;
                    let widened =
                        |q: &[f32], e: u32| beam(&idx, q, e, p.widened_ef(ef), 0, &AdmitAll).1;
                    let admit =
                        AdmitPassing { ids: &idx.ids, filter: &bits, hop_budget: p.hop_budget() };
                    let traversal = |q: &[f32], e: u32| beam(&idx, q, e, ef, 0, &admit).1;
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
                        (GraphScan::Beam, k, &plain),
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

    /// What every way of driving the 1,000-row test graph linked in
    /// batches of `batch` returns — ids, distance bits and visited counts —
    /// and its `save_bytes` blob, each as one FNV-1a.
    fn golden_hashes(kind: IndexKind, batch: usize) -> (u64, u64) {
        let (dim, n, k, ef) = (8, 1000, 10, 96);
        let allow = Bitset::from_positions(n, (0..n).filter(|i| i % 10 == 3));
        let data = clustered(n, dim, 77);
        let (built, _) = build_in_batches(&data, dim, kind, Metric::L2, batch, build_pool());
        let blob = built.save_bytes().unwrap();
        let mut bh = Fnv::new();
        for chunk in blob.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            bh.word(u64::from_le_bytes(w));
        }

        let vectors = if kind == IndexKind::Hnsw { data.clone() } else { Vec::new() };
        let idx = HnswIndex::load(&blob, vectors).unwrap();
        let plain = SearchParams::default().with_ef(ef);
        let widened = plain.with_selectivity(0.1);
        let walk = widened.with_filter_traversal(true);
        let mut h = Fnv::new();
        for q in 0..8 {
            // Off-row queries: a data row shifted by a fixed offset.
            let qv: Vec<f32> = data[q * 97 * dim..][..dim].iter().map(|x| x + 0.37).collect();
            let entry = descend(&idx, &qv, idx.entry, idx.max_level, 0);
            h.word(u64::from(entry));
            // Plain beam.
            let top = idx.search_with_bound(&qv, k, &plain, None, None).unwrap();
            h.hits(&top);
            h.word(beam(&idx, &qv, entry, ef, 0, &AdmitAll).1 as u64);
            // Plan B: widened beam, bitmap applied afterwards.
            h.hits(&idx.search_with_bound(&qv, k, &widened, Some(&allow), None).unwrap());
            h.word(beam(&idx, &qv, entry, widened.widened_ef(ef), 0, &AdmitAll).1 as u64);
            // Plan D: predicate-aware traversal.
            h.hits(&idx.search_with_bound(&qv, k, &walk, Some(&allow), None).unwrap());
            let admit =
                AdmitPassing { ids: &idx.ids, filter: &allow, hop_budget: walk.hop_budget() };
            let (cands, visited) = beam(&idx, &qv, entry, ef, 0, &admit);
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
        (h.0, bh.0)
    }

    /// Pins what every way of driving the graph returns and the bytes the
    /// builder produces, so a refactor of the beam loop, the descent, the
    /// batch rule or the codec shows up as a changed constant. The blob
    /// constants are blob format v3's (the graph alone); the loaded graph
    /// walks exactly as the built one.
    #[test]
    #[cfg_attr(miri, ignore = "two 1,000-row builds at ef_construction 120: hours under Miri")]
    fn golden_traversal_and_blob_identity() {
        // Distance bits follow the kernel tier's summation order, and the
        // graph follows the distances: the constants are the AVX2 tier's,
        // the one CI's x86_64 runners select.
        if KernelTier::current() != KernelTier::Avx2 {
            return;
        }
        for (kind, want_search, want_blob) in [
            (IndexKind::Hnsw, GOLDEN_HNSW_SEARCH, GOLDEN_HNSW_BLOB),
            (IndexKind::HnswSq, GOLDEN_HNSWSQ_SEARCH, GOLDEN_HNSWSQ_BLOB),
        ] {
            let (search, blob) = golden_hashes(kind, INSERT_BATCH);
            assert_eq!(search, want_search, "{kind:?}: traversal changed ({search:#018x})");
            assert_eq!(blob, want_blob, "{kind:?}: save_bytes blob changed ({blob:#018x})");
        }
    }

    const GOLDEN_HNSW_SEARCH: u64 = 0x5d21_7675_47d8_9b50;
    const GOLDEN_HNSW_BLOB: u64 = 0x12b2_1042_2e20_2b0a;
    const GOLDEN_HNSWSQ_SEARCH: u64 = 0x19da_d7fe_0329_76a5;
    const GOLDEN_HNSWSQ_BLOB: u64 = 0x9a6b_be98_c5ec_b02b;

    /// The golden graph linked one row at a time, as every build was before
    /// insertion went batch-synchronous: a batch of one has no earlier rows
    /// to score and appends one row per list, so it is that insertion.
    const SEQUENTIAL_HNSW_SEARCH: u64 = 0x5d21_7675_47d8_9b50;
    const SEQUENTIAL_HNSW_BLOB: u64 = 0x12b2_1042_2e20_2b0a;
    const SEQUENTIAL_HNSWSQ_SEARCH: u64 = 0x19da_d7fe_0329_76a5;
    const SEQUENTIAL_HNSWSQ_BLOB: u64 = 0x9a6b_be98_c5ec_b02b;

    /// A batch of one row reproduces the one-row-at-a-time graph; and a
    /// graph no larger than `ef_construction` is the same at any batch size
    /// (every beam over it reaches every node, as the direct scores of a
    /// batch's earlier rows do), so small segments keep their bytes.
    #[test]
    #[cfg_attr(miri, ignore = "two 1,000-row builds at ef_construction 120: hours under Miri")]
    fn a_batch_of_one_is_the_sequential_graph() {
        // A `point_topk` segment: 128 rows of 32 dimensions, default build
        // parameters (`ef_construction` 128).
        let (n, dim) = (128, 32);
        let data = centred(n, dim, 31);
        let ids: Vec<u64> = (0..n as u64).collect();
        for metric in [Metric::L2, Metric::InnerProduct] {
            let blob = |batch| {
                let spec = IndexSpec::new(IndexKind::Hnsw, dim, metric);
                let mut b = Box::new(HnswBuilder::new(&spec, IndexKind::Hnsw).unwrap());
                b.add(&data, &ids, batch).unwrap();
                (b as Box<dyn IndexBuilder>).finish().unwrap().save_bytes().unwrap()
            };
            assert_eq!(blob(1), blob(INSERT_BATCH), "{metric:?}");
        }
        if KernelTier::current() != KernelTier::Avx2 {
            return;
        }
        for (kind, want_search, want_blob) in [
            (IndexKind::Hnsw, SEQUENTIAL_HNSW_SEARCH, SEQUENTIAL_HNSW_BLOB),
            (IndexKind::HnswSq, SEQUENTIAL_HNSWSQ_SEARCH, SEQUENTIAL_HNSWSQ_BLOB),
        ] {
            let (search, blob) = golden_hashes(kind, 1);
            assert_eq!(search, want_search, "{kind:?}: traversal changed ({search:#018x})");
            assert_eq!(blob, want_blob, "{kind:?}: save_bytes blob changed ({blob:#018x})");
        }
    }

    /// 0, 1 and 7 helpers link the same graph, byte for byte, for raw and
    /// SQ storage under L2 and inner product, and so do two builds sharing
    /// one helper. The rows are uniform in 32
    /// dimensions, where a batch's graph is not the one-row-at-a-time one
    /// (on the clustered 8-dimensional golden fixture the two coincide), and
    /// on AVX2 the four blobs are pinned.
    #[test]
    fn hnsw_blob_does_not_depend_on_the_pool() {
        let (n, dim) = (1000, 32);
        let data: Vec<f32> = (0..n * dim)
            .map(|j| (derive_seed(41, j as u64) >> 40) as f32 / (1u64 << 24) as f32)
            .collect();
        let mut all = Fnv::new();
        for kind in [IndexKind::Hnsw, IndexKind::HnswSq] {
            for metric in [Metric::L2, Metric::InnerProduct] {
                let build = |batch, helpers| {
                    let pool = Arc::new(FanoutPool::new(helpers));
                    let (idx, evals) = build_in_batches(&data, dim, kind, metric, batch, pool);
                    (idx.save_bytes().unwrap(), evals)
                };
                let blobs: Vec<(Bytes, u64)> =
                    [0, 1, 7].into_iter().map(|helpers| build(INSERT_BATCH, helpers)).collect();
                assert!(blobs.windows(2).all(|w| w[0] == w[1]), "{kind:?} {metric:?}");
                if (kind, metric) == (IndexKind::Hnsw, Metric::L2) {
                    assert_ne!(blobs[0].0, build(1, 0).0, "batching moved nothing");
                    // Two builds side by side on one pool, as a write's
                    // segments are: each finds the helper busy while the
                    // other holds it.
                    let pool = Arc::new(FanoutPool::new(1));
                    let side_by_side = pool.run(2, 2, |_| {
                        let (idx, _) =
                            build_in_batches(&data, dim, kind, metric, INSERT_BATCH, pool.clone());
                        idx.save_bytes()
                    });
                    for blob in side_by_side.into_results().unwrap() {
                        assert_eq!(blob, blobs[0].0, "side by side");
                    }
                }
                for chunk in blobs[0].0.chunks(8) {
                    let mut w = [0u8; 8];
                    w[..chunk.len()].copy_from_slice(chunk);
                    all.word(u64::from_le_bytes(w));
                }
            }
        }
        if KernelTier::current() == KernelTier::Avx2 {
            assert_eq!(all.0, GOLDEN_BATCHED_BLOBS, "batched blobs changed ({:#018x})", all.0);
        }
    }

    const GOLDEN_BATCHED_BLOBS: u64 = 0x6618_99da_606d_8a3d;

    /// Scoring a batch's earlier rows directly costs few distances next to
    /// the beams: within 1.1x of linking one row at a time.
    #[test]
    fn batching_adds_at_most_a_tenth_to_the_distances() {
        let (n, dim) = (2_000, 16);
        let data = clustered(n, dim, 43);
        let evals = |batch| {
            build_in_batches(&data, dim, IndexKind::Hnsw, Metric::L2, batch, build_pool()).1
        };
        let (one, batched) = (evals(1), evals(INSERT_BATCH));
        println!(
            "distances per row: {} one at a time, {} in batches",
            one / n as u64,
            batched / n as u64
        );
        assert!(batched as f64 <= 1.1 * one as f64, "{batched} against {one}");
    }

    #[test]
    fn corrupt_blob_rejected() {
        let (hnsw, _) = build_pair(50, 4, IndexKind::Hnsw, 10);
        let blob = hnsw.save_bytes().unwrap();
        assert!(HnswIndex::load(&blob[..20], Vec::new()).is_err());
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
            let spec = IndexSpec::new(IndexKind::Hnsw, dim, Metric::L2).with_param("seed", 42);
            let mut b = Box::new(HnswBuilder::new(&spec, IndexKind::Hnsw).unwrap());
            b.add_with_ids(&data, &ids).unwrap();
            (b as Box<dyn IndexBuilder>).finish().unwrap().save_bytes().unwrap()
        };
        assert_eq!(mk(), mk());
    }
}
