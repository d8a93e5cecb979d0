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

use crate::codec::{Reader, Writer};
use crate::flat::{metric_from_u8, metric_to_u8};
use crate::iterator::SearchIterator;
use crate::quant::sq::Sq8;
use crate::types::{
    check_batch, IndexBuilder, IndexMeta, IndexSpec, Neighbor, SearchParams, VectorIndex,
};
use crate::{IndexKind, Metric};
use bh_common::rng::{derived_rng, DetRng};
use bh_common::{BhError, Bitset, Result, SharedBound, TopK};
use bytes::Bytes;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"BHHN";
/// v2 appends a reconstruction-radius section to the SQ store payload
/// (`flag u8` + `f32 rho`), the measured max ‖x − decode(encode(x))‖ over
/// all build rows. v1 blobs load with `rho = None`, which disables the
/// SQ margin-pruning path (bound searches fall back to plain search).
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
        /// `None` for pre-v2 payloads: margin pruning disabled.
        rho: Option<f32>,
    },
}

impl Store {
    /// Rows `rows` (in order) extracted into a standalone store. Quantizer
    /// state is duplicated — it is small (two f32 vectors) next to the codes.
    fn subset(&self, dim: usize, rows: &[u32]) -> Store {
        match self {
            Store::Raw { data } => {
                let mut out = Vec::with_capacity(rows.len() * dim);
                for &r in rows {
                    let r = r as usize;
                    out.extend_from_slice(&data[r * dim..(r + 1) * dim]);
                }
                Store::Raw { data: out }
            }
            Store::Sq { sq, codes, rho } => {
                let mut out = Vec::with_capacity(rows.len() * dim);
                for &r in rows {
                    let r = r as usize;
                    out.extend_from_slice(&codes[r * dim..(r + 1) * dim]);
                }
                Store::Sq { sq: sq.clone(), codes: out, rho: *rho }
            }
        }
    }

    /// Serialize as the v2 store payload (tag, payload, rho section).
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
                match rho {
                    Some(r) => {
                        w.put_u8(1);
                        w.put_f32(*r);
                    }
                    None => w.put_u8(0),
                }
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
                    0 => None,
                    1 => Some(r.get_f32()?),
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

impl HnswIndex {
    fn n(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    fn dist_q(&self, query: &[f32], node: u32) -> f32 {
        self.store.distance_to(self.metric, self.dim, query, node as usize)
    }

    /// Greedy descent through upper levels to the closest entry at `level`.
    fn greedy_to_level(&self, query: &[f32], mut cur: u32, from: usize, to: usize) -> u32 {
        let mut cur_d = self.dist_q(query, cur);
        for level in (to + 1..=from).rev() {
            let mut improved = true;
            while improved {
                improved = false;
                if level < self.links[cur as usize].len() {
                    // Clone-free iteration; adjacency is immutable post-build.
                    for &nb in &self.links[cur as usize][level] {
                        let d = self.dist_q(query, nb);
                        if d < cur_d {
                            cur_d = d;
                            cur = nb;
                            improved = true;
                        }
                    }
                }
            }
        }
        cur
    }

    /// Beam search at one level: returns up to `ef` nearest as a max-heap
    /// drained to ascending order. Also reports visited count.
    fn search_layer(
        &self,
        query: &[f32],
        entry: u32,
        ef: usize,
        level: usize,
    ) -> (Vec<DistNode>, usize) {
        let mut visited = vec![false; self.n()];
        visited[entry as usize] = true;
        let d0 = self.dist_q(query, entry);
        let mut candidates = BinaryHeap::new(); // min-heap via Reverse
        candidates.push(Reverse(DistNode { dist: d0, node: entry }));
        let mut results: BinaryHeap<DistNode> = BinaryHeap::new(); // max-heap
        results.push(DistNode { dist: d0, node: entry });
        let mut n_visited = 1usize;
        let mut fresh: Vec<u32> = Vec::with_capacity(2 * self.m.max(8));

        while let Some(Reverse(c)) = candidates.pop() {
            let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
            if results.len() >= ef && c.dist > worst {
                break;
            }
            if level < self.links[c.node as usize].len() {
                // Gather-then-score: issue the whole neighborhood's vector
                // prefetches before the first distance so the random-access
                // loads overlap instead of serializing on memory latency.
                fresh.clear();
                for &nb in &self.links[c.node as usize][level] {
                    if visited[nb as usize] {
                        continue;
                    }
                    self.store.prefetch_row(self.dim, nb as usize);
                    fresh.push(nb);
                }
                for &nb in &fresh {
                    visited[nb as usize] = true;
                    n_visited += 1;
                    let d = self.dist_q(query, nb);
                    let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
                    if results.len() < ef || d < worst {
                        candidates.push(Reverse(DistNode { dist: d, node: nb }));
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

    /// Predicate-aware beam search at level 0 (Plan D, ACORN-style).
    ///
    /// Nodes failing `filter` still steer navigation — they stay in the
    /// candidate heap and their neighborhoods are expanded — but only
    /// passing nodes enter the `ef`-bounded result heap, so the beam is
    /// spent entirely on rows that can appear in the answer. A path may
    /// cross at most `hop_budget` consecutive failing nodes beyond the
    /// last passing one: selective filters thin the passing subgraph, and
    /// bounded multi-hop detours keep it connected without devolving into
    /// an unbounded flood.
    fn search_layer0_filtered(
        &self,
        query: &[f32],
        entry: u32,
        ef: usize,
        filter: &Bitset,
        hop_budget: usize,
    ) -> (Vec<DistNode>, usize) {
        let passes = |node: u32| filter.contains(self.ids[node as usize] as usize);
        let mut visited = vec![false; self.n()];
        visited[entry as usize] = true;
        let d0 = self.dist_q(query, entry);
        let entry_hops = if passes(entry) { 0usize } else { 1 };
        // Candidates carry the consecutive-failing-hop count since the last
        // passing node (0 for a passing node).
        let mut candidates = BinaryHeap::new();
        candidates.push(Reverse((DistNode { dist: d0, node: entry }, entry_hops)));
        let mut results: BinaryHeap<DistNode> = BinaryHeap::new();
        if entry_hops == 0 {
            results.push(DistNode { dist: d0, node: entry });
        }
        let mut n_visited = 1usize;
        let mut fresh: Vec<u32> = Vec::with_capacity(2 * self.m.max(8));

        while let Some(Reverse((c, hops))) = candidates.pop() {
            let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
            if results.len() >= ef && c.dist > worst {
                break;
            }
            if self.links[c.node as usize].is_empty() {
                continue;
            }
            // Gather-then-score, as in `search_layer`: prefetch the whole
            // neighborhood before the first distance. Budget-skipped nodes
            // get a wasted prefetch; overlapping the rest still wins.
            fresh.clear();
            for &nb in &self.links[c.node as usize][0] {
                if visited[nb as usize] {
                    continue;
                }
                self.store.prefetch_row(self.dim, nb as usize);
                fresh.push(nb);
            }
            for &nb in &fresh {
                let nb_pass = passes(nb);
                let nb_hops = if nb_pass { 0 } else { hops + 1 };
                // Pure navigation until the first passing node is found: the
                // greedy descent is predicate-blind, so the beam may start
                // deep inside a failing region (correlated filters) and must
                // be free to walk out of it. Once results exist, the hop
                // budget bounds further detours.
                if nb_hops > hop_budget && !results.is_empty() {
                    // Leave unvisited: a shorter detour from another passing
                    // node may still legitimately reach it later.
                    continue;
                }
                visited[nb as usize] = true;
                n_visited += 1;
                let d = self.dist_q(query, nb);
                let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
                if results.len() < ef || d < worst {
                    candidates.push(Reverse((DistNode { dist: d, node: nb }, nb_hops)));
                    if nb_pass {
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

    /// Level-0 candidate generation for filtered searches: the Plan D
    /// traversal when `params.filter_traversal` asks for it, else the
    /// classic widened beam with post-hoc bitset checks.
    fn filtered_candidates(
        &self,
        query: &[f32],
        entry: u32,
        ef_base: usize,
        params: &SearchParams,
        filter: Option<&Bitset>,
    ) -> Vec<DistNode> {
        match filter {
            Some(f) if params.filter_traversal => {
                self.search_layer0_filtered(
                    query,
                    entry,
                    params.traversal_ef(ef_base),
                    f,
                    params.hop_budget(),
                )
                .0
            }
            // With a selective filter, widen the beam so enough filtered
            // rows survive — hnswlib's recipe, with the factor now derived
            // from the selectivity estimate instead of a fixed 2x.
            Some(_) => self.search_layer(query, entry, params.widened_ef(ef_base), 0).0,
            None => self.search_layer(query, entry, ef_base, 0).0,
        }
    }

    /// Deserialize an index written by [`VectorIndex::save_bytes`].
    pub fn load_bytes(bytes: &[u8]) -> Result<HnswIndex> {
        let mut r = Reader::new(bytes);
        let version = r.expect_header(MAGIC)?;
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
        let store = match r.get_u8()? {
            0 => Store::Raw { data: r.get_f32_vec()? },
            1 => {
                let sq = Sq8::load(&mut r)?;
                let codes = r.get_bytes()?;
                let rho = if version >= 2 {
                    match r.get_u8()? {
                        0 => None,
                        1 => Some(r.get_f32()?),
                        x => return Err(BhError::Serde(format!("hnsw: bad rho flag {x}"))),
                    }
                } else {
                    None
                };
                Store::Sq { sq, codes, rho }
            }
            x => return Err(BhError::Serde(format!("hnsw: bad store byte {x}"))),
        };
        let idx = HnswIndex { dim, metric, kind, m, ids, links, entry, max_level, store };
        if dim == 0 || (idx.n() > 0 && idx.store.len(dim) != idx.n()) {
            return Err(BhError::Serde("hnsw: corrupt geometry".into()));
        }
        Ok(idx)
    }

    /// Node indices (in node order) of every node participating in levels
    /// ≥ 1 — the nodes the head section carries vectors and links for.
    /// With the standard level distribution this is ~1/M of all nodes.
    fn upper_nodes(&self) -> Vec<u32> {
        (0..self.n() as u32).filter(|&i| self.links[i as usize].len() >= 2).collect()
    }

    /// Serialize as `(head, body)` sections for the v3 tiered container.
    ///
    /// The head carries everything needed to run greedy descent + a level-1
    /// beam over the upper graph: per-node level counts, the upper nodes'
    /// links, row ids, and vector payload (raw or SQ codes + quantizer).
    /// The body carries the base layer: all ids, every node's layer-0
    /// adjacency, and the full vector store. `load_tiered_parts(head, body)`
    /// reconstructs an index identical to `self`.
    pub fn save_tiered_parts(&self) -> Result<(Bytes, Bytes)> {
        let mut hw = Writer::with_header(HEAD_MAGIC, TIERED_PART_VERSION);
        hw.put_u8(match self.kind {
            IndexKind::Hnsw => 0,
            IndexKind::HnswSq => 1,
            _ => return Err(BhError::Internal("hnsw: impossible kind".into())),
        });
        hw.put_u64(self.dim as u64);
        hw.put_u8(metric_to_u8(self.metric));
        hw.put_u64(self.m as u64);
        hw.put_u32(self.entry);
        hw.put_u64(self.max_level as u64);
        let mut level_counts = Vec::with_capacity(self.n());
        for per in &self.links {
            if per.len() > u8::MAX as usize {
                return Err(BhError::Internal("hnsw: level count exceeds u8".into()));
            }
            level_counts.push(per.len() as u8);
        }
        hw.put_bytes(&level_counts);
        let upper = self.upper_nodes();
        for &node in &upper {
            let per = &self.links[node as usize];
            for l in &per[1..] {
                hw.put_u32_slice(l);
            }
        }
        hw.put_u64_slice(&upper.iter().map(|&u| self.ids[u as usize]).collect::<Vec<_>>());
        self.store.subset(self.dim, &upper).write(&mut hw);

        let mut bw = Writer::with_header(BODY_MAGIC, TIERED_PART_VERSION);
        bw.put_u64_slice(&self.ids);
        for per in &self.links {
            bw.put_u32_slice(&per[0]);
        }
        self.store.write(&mut bw);
        Ok((hw.finish(), bw.finish()))
    }

    /// Reconstruct a full index from tiered `(head, body)` sections written
    /// by [`HnswIndex::save_tiered_parts`].
    pub fn load_tiered_parts(head: &[u8], body: &[u8]) -> Result<HnswIndex> {
        let h = HnswHead::parse(head)?;
        let mut r = Reader::new(body);
        r.expect_header(BODY_MAGIC)?;
        let ids = r.get_u64_vec()?;
        if ids.len() != h.level_counts.len() {
            return Err(BhError::Serde(format!(
                "hnsw tiered: head describes {} nodes, body has {}",
                h.level_counts.len(),
                ids.len()
            )));
        }
        let n = ids.len();
        let mut links: Vec<Vec<Vec<u32>>> = Vec::with_capacity(n);
        for node in 0..n {
            let mut per = Vec::with_capacity(h.level_counts[node] as usize);
            per.push(r.get_u32_vec()?);
            links.push(per);
        }
        let store = Store::read(&mut r)?;
        // Graft the upper levels from the head onto the base layer.
        for (dense, &node) in h.upper.iter().enumerate() {
            links[node as usize].extend(h.upper_links[dense].iter().cloned());
        }
        for (node, per) in links.iter().enumerate() {
            if per.len() != h.level_counts[node] as usize {
                return Err(BhError::Serde("hnsw tiered: level count mismatch".into()));
            }
        }
        let idx = HnswIndex {
            dim: h.dim,
            metric: h.metric,
            kind: h.kind,
            m: h.m,
            ids,
            links,
            entry: h.entry,
            max_level: h.max_level,
            store,
        };
        if idx.dim == 0 || (idx.n() > 0 && idx.store.len(idx.dim) != idx.n()) {
            return Err(BhError::Serde("hnsw tiered: corrupt geometry".into()));
        }
        Ok(idx)
    }
}

/// Magic for the head section of a tiered HNSW blob.
const HEAD_MAGIC: &[u8; 4] = b"BHH3";
/// Magic for the body section of a tiered HNSW blob.
const BODY_MAGIC: &[u8; 4] = b"BHB3";
const TIERED_PART_VERSION: u16 = 1;

/// Parsed head section, shared by the full tiered load (which grafts it onto
/// the body) and the head-only partial load.
struct HnswHead {
    kind: IndexKind,
    dim: usize,
    metric: Metric,
    m: usize,
    entry: u32,
    max_level: usize,
    /// Per node (all nodes), its level count + 1.
    level_counts: Vec<u8>,
    /// Global node indices of upper nodes, ascending.
    upper: Vec<u32>,
    /// Per upper node (dense order), its links for levels 1..=level.
    upper_links: Vec<Vec<Vec<u32>>>,
    /// Per upper node, its row id.
    upper_ids: Vec<u64>,
    /// Vector payload for the upper nodes only.
    upper_store: Store,
}

impl HnswHead {
    fn parse(head: &[u8]) -> Result<HnswHead> {
        let mut r = Reader::new(head);
        r.expect_header(HEAD_MAGIC)?;
        let kind = match r.get_u8()? {
            0 => IndexKind::Hnsw,
            1 => IndexKind::HnswSq,
            x => return Err(BhError::Serde(format!("hnsw head: bad kind byte {x}"))),
        };
        let dim = r.get_u64()? as usize;
        let metric = metric_from_u8(r.get_u8()?)?;
        let m = r.get_u64()? as usize;
        let entry = r.get_u32()?;
        let max_level = r.get_u64()? as usize;
        let level_counts = r.get_bytes()?;
        let upper: Vec<u32> = (0..level_counts.len() as u32)
            .filter(|&i| level_counts[i as usize] >= 2)
            .collect();
        let mut upper_links = Vec::with_capacity(upper.len());
        for &node in &upper {
            let levels = level_counts[node as usize] as usize;
            let mut per = Vec::with_capacity(levels - 1);
            for _ in 1..levels {
                per.push(r.get_u32_vec()?);
            }
            upper_links.push(per);
        }
        let upper_ids = r.get_u64_vec()?;
        if upper_ids.len() != upper.len() {
            return Err(BhError::Serde("hnsw head: upper id count mismatch".into()));
        }
        let upper_store = Store::read(&mut r)?;
        if dim == 0 || upper_store.len(dim) != upper.len() {
            return Err(BhError::Serde("hnsw head: corrupt geometry".into()));
        }
        Ok(HnswHead {
            kind,
            dim,
            metric,
            m,
            entry,
            max_level,
            level_counts,
            upper,
            upper_links,
            upper_ids,
            upper_store,
        })
    }
}

/// A head-only partial HNSW index: the upper layers (levels ≥ 1) with their
/// vectors, loadable from ~1/M of the blob bytes. Serves real (approximate)
/// top-k immediately after a head-sized fetch by running greedy descent plus
/// a level-1 beam over the upper graph — candidates are genuine rows with
/// exact (or asymmetric-SQ) distances, just drawn from the upper sample of
/// the dataset instead of the full base layer.
pub struct HnswHeadIndex {
    kind: IndexKind,
    dim: usize,
    metric: Metric,
    entry: u32,
    max_level: usize,
    /// Total rows in the full index (reported in meta).
    total_len: usize,
    /// Global node index per dense upper slot, ascending.
    upper: Vec<u32>,
    /// Global node index → dense upper slot.
    dense_of: std::collections::HashMap<u32, u32>,
    /// Per dense slot, links for levels 1..=level (global node refs).
    links: Vec<Vec<Vec<u32>>>,
    /// Per dense slot, the row id.
    ids: Vec<u64>,
    /// Vector payload, rows addressed by dense slot.
    store: Store,
}

impl HnswHeadIndex {
    /// Deserialize the head section of a tiered HNSW blob into a partial
    /// index.
    pub fn load_bytes(head: &[u8]) -> Result<HnswHeadIndex> {
        let h = HnswHead::parse(head)?;
        let dense_of = h
            .upper
            .iter()
            .enumerate()
            .map(|(dense, &node)| (node, dense as u32))
            .collect();
        Ok(HnswHeadIndex {
            kind: h.kind,
            dim: h.dim,
            metric: h.metric,
            entry: h.entry,
            max_level: h.max_level,
            total_len: h.level_counts.len(),
            upper: h.upper,
            dense_of,
            links: h.upper_links,
            ids: h.upper_ids,
            store: h.upper_store,
        })
    }

    /// Number of upper nodes resident in the head.
    pub fn head_len(&self) -> usize {
        self.upper.len()
    }

    #[inline]
    fn dist_dense(&self, query: &[f32], dense: u32) -> f32 {
        self.store.distance_to(self.metric, self.dim, query, dense as usize)
    }

    /// Links of dense node `dense` at graph level `level` (≥ 1).
    fn links_at(&self, dense: u32, level: usize) -> &[u32] {
        let per = &self.links[dense as usize];
        match per.get(level - 1) {
            Some(l) => l,
            None => &[],
        }
    }

    /// Greedy descent from the global entry through levels
    /// `max_level..level+1`, returning the best dense node seen.
    fn greedy_to_level(&self, query: &[f32], to: usize) -> Option<u32> {
        let mut cur = *self.dense_of.get(&self.entry)?;
        let mut cur_d = self.dist_dense(query, cur);
        for level in (to + 1..=self.max_level).rev() {
            let mut improved = true;
            while improved {
                improved = false;
                for &nb in self.links_at(cur, level) {
                    let Some(&nd) = self.dense_of.get(&nb) else { continue };
                    let d = self.dist_dense(query, nd);
                    if d < cur_d {
                        cur_d = d;
                        cur = nd;
                        improved = true;
                    }
                }
            }
        }
        Some(cur)
    }

    /// Beam search over level 1 (the lowest level present in the head).
    fn search_upper(&self, query: &[f32], ef: usize) -> Vec<DistNode> {
        let Some(entry) = self.greedy_to_level(query, 1) else { return Vec::new() };
        let mut visited = vec![false; self.upper.len()];
        visited[entry as usize] = true;
        let d0 = self.dist_dense(query, entry);
        let mut candidates = BinaryHeap::new();
        candidates.push(Reverse(DistNode { dist: d0, node: entry }));
        let mut results: BinaryHeap<DistNode> = BinaryHeap::new();
        results.push(DistNode { dist: d0, node: entry });
        while let Some(Reverse(c)) = candidates.pop() {
            let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
            if results.len() >= ef && c.dist > worst {
                break;
            }
            for &nb in self.links_at(c.node, 1) {
                let Some(&nd) = self.dense_of.get(&nb) else { continue };
                if visited[nd as usize] {
                    continue;
                }
                visited[nd as usize] = true;
                let d = self.dist_dense(query, nd);
                let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
                if results.len() < ef || d < worst {
                    candidates.push(Reverse(DistNode { dist: d, node: nd }));
                    results.push(DistNode { dist: d, node: nd });
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<DistNode> = results.into_vec();
        out.sort();
        out
    }
}

impl VectorIndex for HnswHeadIndex {
    fn meta(&self) -> IndexMeta {
        IndexMeta { kind: self.kind, dim: self.dim, metric: self.metric, len: self.total_len }
    }

    fn search_with_filter(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&Bitset>,
    ) -> Result<Vec<Neighbor>> {
        self.check_query(query)?;
        if self.upper.is_empty() || k == 0 {
            return Ok(Vec::new());
        }
        let ef = params.ef_search.max(k);
        // The head holds only upper layers, too sparse for the Plan D
        // multi-hop traversal — a filtered head search always uses the
        // widened beam (selectivity-adaptive, legacy 2x without estimate).
        let ef = if filter.is_some() { params.widened_ef(ef) } else { ef };
        let mut tk = TopK::new(k);
        for c in self.search_upper(query, ef) {
            let id = self.ids[c.node as usize];
            if let Some(f) = filter {
                if !f.contains(id as usize) {
                    continue;
                }
            }
            tk.push(c.dist, id);
        }
        Ok(tk.into_sorted().into_iter().map(|s| Neighbor::new(s.item, s.distance)).collect())
    }

    fn search_with_range(
        &self,
        query: &[f32],
        radius: f32,
        params: &SearchParams,
        filter: Option<&Bitset>,
    ) -> Result<Vec<Neighbor>> {
        self.check_query(query)?;
        let ef = params.widened_ef(params.ef_search.max(16));
        let mut out: Vec<Neighbor> = self
            .search_upper(query, ef)
            .into_iter()
            .filter(|c| c.dist <= radius)
            .map(|c| Neighbor::new(self.ids[c.node as usize], c.dist))
            .filter(|nb| filter.map(|f| f.contains(nb.id as usize)).unwrap_or(true))
            .collect();
        out.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        Ok(out)
    }

    fn search_iterator<'a>(
        &'a self,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<Box<dyn SearchIterator + 'a>> {
        self.check_query(query)?;
        Ok(Box::new(crate::iterator::GenericSearchIterator::new(self, query, params)))
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
        self.store.memory_usage()
            + link_bytes
            + self.ids.len() * 8
            + self.upper.len() * 4
            + self.dense_of.len() * 12
            + std::mem::size_of::<Self>()
    }

    fn save_bytes(&self) -> Result<Bytes> {
        Err(BhError::Internal("head-only partial index cannot be re-saved".into()))
    }

    fn is_partial(&self) -> bool {
        true
    }

    fn head_servable(&self) -> bool {
        // A graph with no upper layers (tiny segment) has an empty head;
        // the caller must brute-force until the body arrives.
        !self.upper.is_empty()
    }
}

impl VectorIndex for HnswIndex {
    fn meta(&self) -> IndexMeta {
        IndexMeta { kind: self.kind, dim: self.dim, metric: self.metric, len: self.n() }
    }

    fn search_with_filter(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&Bitset>,
    ) -> Result<Vec<Neighbor>> {
        self.check_query(query)?;
        if self.n() == 0 || k == 0 {
            return Ok(Vec::new());
        }
        let ef = params.ef_search.max(k);
        let entry = self.greedy_to_level(query, self.entry, self.max_level, 0);
        let cands = self.filtered_candidates(query, entry, ef, params, filter);
        let mut tk = TopK::new(k);
        for c in cands {
            let id = self.ids[c.node as usize];
            if let Some(f) = filter {
                if !f.contains(id as usize) {
                    continue;
                }
            }
            tk.push(c.dist, id);
        }
        Ok(tk.into_sorted().into_iter().map(|s| Neighbor::new(s.item, s.distance)).collect())
    }

    fn search_with_bound(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&Bitset>,
        bound: Option<&SharedBound>,
    ) -> Result<Vec<Neighbor>> {
        let Some(b) = bound else {
            return self.search_with_filter(query, k, params, filter);
        };
        // SQ stores yield asymmetric (approximate) distances. With a measured
        // reconstruction radius rho they still admit conservative lower
        // bounds on the exact distance (triangle inequality), so HNSWSQ can
        // *prune* against the shared bound — but never publish to it:
        //
        //   L2:  ‖q − x‖ ≥ ‖q − x̂‖ − ‖x − x̂‖ ≥ sqrt(d_sq) − rho
        //        lower bound = max(0, sqrt(d_sq) − rho)²
        //   IP:  ⟨q, x⟩ ≤ ⟨q, x̂⟩ + ‖q‖·rho (Cauchy-Schwarz)
        //        lower bound = d_sq − ‖q‖·rho      (d = −⟨q, x⟩)
        //
        // Cosine over SQ measures distance to the *reconstruction* with no
        // usable margin relation, and v1 payloads carry no rho — both fall
        // back to the plain search.
        let sq_margin = match &self.store {
            Store::Raw { .. } => None,
            Store::Sq { rho: Some(rho), .. } if self.metric != Metric::Cosine => Some(*rho),
            Store::Sq { .. } => {
                return self.search_with_filter(query, k, params, filter);
            }
        };
        self.check_query(query)?;
        if self.n() == 0 || k == 0 {
            return Ok(Vec::new());
        }
        let exact = matches!(self.store, Store::Raw { .. });
        let q_norm = match (sq_margin, self.metric) {
            (Some(_), Metric::InnerProduct) => crate::distance::dot(query, query).sqrt(),
            _ => 0.0,
        };
        // The graph traversal itself is untouched — pruning mid-walk would
        // change which neighborhoods get explored. Only the final candidate
        // list participates in the shared bound, so swapping the candidate
        // source for the Plan D traversal preserves the prune/publish rules.
        let ef = params.ef_search.max(k);
        let entry = self.greedy_to_level(query, self.entry, self.max_level, 0);
        let cands = self.filtered_candidates(query, entry, ef, params, filter);
        let mut tk = TopK::new(k);
        let mut skipped = 0u64;
        for c in cands {
            let id = self.ids[c.node as usize];
            if let Some(f) = filter {
                if !f.contains(id as usize) {
                    continue;
                }
            }
            let lower = match (sq_margin, self.metric) {
                (Some(rho), Metric::L2) => {
                    let base = (c.dist.max(0.0).sqrt() - rho).max(0.0);
                    base * base
                }
                (Some(rho), _) => c.dist - q_norm * rho,
                (None, _) => c.dist,
            };
            if lower > b.get() {
                skipped += 1;
                continue;
            }
            // Only exact distances may tighten the shared bound; approximate
            // SQ distances could over-prune sibling segments.
            if tk.push(c.dist, id) && tk.is_full() && exact {
                b.update(tk.threshold());
            }
        }
        b.record_skips(skipped);
        Ok(tk.into_sorted().into_iter().map(|s| Neighbor::new(s.item, s.distance)).collect())
    }

    fn search_with_range(
        &self,
        query: &[f32],
        radius: f32,
        params: &SearchParams,
        filter: Option<&Bitset>,
    ) -> Result<Vec<Neighbor>> {
        self.check_query(query)?;
        if self.n() == 0 {
            return Ok(Vec::new());
        }
        // Stream the native iterator until distances exceed the radius with
        // a slack window (the traversal order is only approximately sorted).
        let mut it = self.search_iterator(query, params)?;
        let slack = params.ef_search.max(16);
        let mut out = Vec::new();
        let mut beyond = 0usize;
        loop {
            let batch = it.next_batch(slack)?;
            if batch.is_empty() {
                break;
            }
            for nb in batch {
                if nb.distance <= radius {
                    beyond = 0;
                    if filter.map(|f| f.contains(nb.id as usize)).unwrap_or(true) {
                        out.push(nb);
                    }
                } else {
                    beyond += 1;
                }
            }
            if beyond >= slack {
                break;
            }
        }
        out.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        Ok(out)
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
            heap.push(Reverse(DistNode { dist: self.dist_q(query, entry), node: entry }));
        }
        Ok(Box::new(HnswIterator { index: self, query: query.to_vec(), heap, visited, n_visited: if self.n() > 0 { 1 } else { 0 } }))
    }

    fn has_native_iterator(&self) -> bool {
        true
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
        match &self.store {
            Store::Raw { data } => {
                w.put_u8(0);
                w.put_f32_slice(data);
            }
            Store::Sq { sq, codes, rho } => {
                w.put_u8(1);
                sq.save(&mut w);
                w.put_bytes(codes);
                // v2 margin section.
                match rho {
                    Some(r) => {
                        w.put_u8(1);
                        w.put_f32(*r);
                    }
                    None => w.put_u8(0),
                }
            }
        }
        Ok(w.finish())
    }

    fn save_bytes_tiered(&self) -> Result<Option<(Bytes, Bytes)>> {
        Ok(Some(self.save_tiered_parts()?))
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
                        let d = self.index.dist_q(&self.query, nb);
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
        if !matches!(kind, IndexKind::Hnsw | IndexKind::HnswSq) {
            return Err(BhError::InvalidArgument(format!(
                "HnswBuilder cannot build {}",
                kind.name()
            )));
        }
        let m = spec.param_usize("m", 16)?;
        if m < 2 {
            return Err(BhError::InvalidArgument("hnsw: M must be >= 2".into()));
        }
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

    #[inline]
    fn dist_vec(&self, v: &[f32], node: usize) -> f32 {
        let dim = self.dim();
        self.spec.metric.distance(v, &self.raw[node * dim..(node + 1) * dim])
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

    /// Beam search over the partially built graph.
    fn search_layer_build(&self, query: &[f32], entry: u32, ef: usize, level: usize) -> Vec<DistNode> {
        let mut visited = vec![false; self.links.len()];
        visited[entry as usize] = true;
        let d0 = self.dist_vec(query, entry as usize);
        let mut candidates = BinaryHeap::new();
        candidates.push(Reverse(DistNode { dist: d0, node: entry }));
        let mut results: BinaryHeap<DistNode> = BinaryHeap::new();
        results.push(DistNode { dist: d0, node: entry });
        while let Some(Reverse(c)) = candidates.pop() {
            let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
            if results.len() >= ef && c.dist > worst {
                break;
            }
            if level < self.links[c.node as usize].len() {
                for &nb in &self.links[c.node as usize][level] {
                    if visited[nb as usize] {
                        continue;
                    }
                    visited[nb as usize] = true;
                    let d = self.dist_vec(query, nb as usize);
                    let worst = results.peek().map(|r| r.dist).unwrap_or(f32::INFINITY);
                    if results.len() < ef || d < worst {
                        candidates.push(Reverse(DistNode { dist: d, node: nb }));
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
        out
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
        let mut cur = self.entry;

        // Greedy descent through levels above the new node's level.
        if self.max_level > level {
            let mut cur_d = self.dist_vec(&query, cur as usize);
            for l in (level + 1..=self.max_level).rev() {
                let mut improved = true;
                while improved {
                    improved = false;
                    if l < self.links[cur as usize].len() {
                        let neigh = self.links[cur as usize][l].clone();
                        for nb in neigh {
                            let d = self.dist_vec(&query, nb as usize);
                            if d < cur_d {
                                cur_d = d;
                                cur = nb;
                                improved = true;
                            }
                        }
                    }
                }
            }
        }

        // Connect at each level from min(level, max_level) down to 0.
        for l in (0..=level.min(self.max_level)).rev() {
            let cands = self.search_layer_build(&query, cur, self.ef_construction, l);
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
                Store::Sq { sq, codes, rho: Some(rho_sq.max(0.0).sqrt()) }
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
    use crate::flat::FlatBuilder;
    use crate::recall::recall_at_k;
    use bh_common::rng::rng;
    use rand::Rng;

    fn clustered(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut r = rng(seed);
        let mut data = Vec::with_capacity(n * dim);
        for i in 0..n {
            let center = (i % 8) as f32 * 4.0;
            for _ in 0..dim {
                data.push(center + r.gen_range(-1.0f32..1.0));
            }
        }
        data
    }

    fn build_pair(
        n: usize,
        dim: usize,
        kind: IndexKind,
        seed: u64,
    ) -> (Arc<dyn VectorIndex>, Arc<dyn VectorIndex>, Vec<f32>) {
        let data = clustered(n, dim, seed);
        let ids: Vec<u64> = (0..n as u64).collect();
        let spec = IndexSpec::new(kind, dim, Metric::L2)
            .with_param("m", 16)
            .with_param("ef_construction", 120);
        let mut hb = Box::new(HnswBuilder::new(&spec, kind).unwrap());
        hb.train(&data).unwrap();
        hb.add_with_ids(&data, &ids).unwrap();
        let hnsw = (hb as Box<dyn IndexBuilder>).finish().unwrap();

        let fspec = IndexSpec::new(IndexKind::Flat, dim, Metric::L2);
        let mut fb = Box::new(FlatBuilder::new(&fspec).unwrap());
        fb.add_with_ids(&data, &ids).unwrap();
        let flat = (fb as Box<dyn IndexBuilder>).finish().unwrap();
        (hnsw, flat, data)
    }

    #[test]
    fn tiered_roundtrip_is_bit_identical() {
        for kind in [IndexKind::Hnsw, IndexKind::HnswSq] {
            let (hnsw, _, data) = build_pair(600, 12, kind, 7);
            let whole = hnsw.save_bytes().unwrap();
            let (head, body) = hnsw.save_bytes_tiered().unwrap().unwrap();
            let rebuilt = HnswIndex::load_tiered_parts(&head, &body).unwrap();
            // The reconstructed index must serialize to the exact v2 blob.
            assert_eq!(rebuilt.save_bytes().unwrap(), whole, "{kind:?}");
            // And search identically.
            let params = SearchParams::default().with_ef(64);
            let a = hnsw.search_with_filter(&data[..12], 10, &params, None).unwrap();
            let b = rebuilt.search_with_filter(&data[..12], 10, &params, None).unwrap();
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn tiered_head_is_small_and_serves() {
        let dim = 32;
        let n = 2000;
        let (hnsw, flat, data) = build_pair(n, dim, IndexKind::Hnsw, 3);
        let (head, body) = hnsw.save_bytes_tiered().unwrap().unwrap();
        let total = head.len() + body.len();
        assert!(
            head.len() * 10 <= total,
            "head {} of {} bytes exceeds 10%",
            head.len(),
            total
        );
        let partial = HnswHeadIndex::load_bytes(&head).unwrap();
        assert!(partial.is_partial());
        assert!(partial.head_servable());
        assert_eq!(partial.meta().len, n);
        assert!(partial.head_len() < n / 8, "upper layer unexpectedly large");
        // Head-only search returns genuine rows with exact distances, drawn
        // from the upper sample: every hit must match the flat oracle's
        // distance for that id.
        let params = SearchParams::default().with_ef(64);
        let q = &data[..dim];
        let got = partial.search_with_filter(q, 5, &params, None).unwrap();
        assert!(!got.is_empty(), "head-only search returned nothing");
        let truth = flat.search_with_filter(q, n, &params, None).unwrap();
        for nb in &got {
            let t = truth.iter().find(|t| t.id == nb.id).unwrap();
            assert!(
                (t.distance - nb.distance).abs() <= 1e-4 * (1.0 + t.distance.abs()),
                "id {} head distance {} vs exact {}",
                nb.id,
                nb.distance,
                t.distance
            );
        }
    }

    #[test]
    fn tiered_head_respects_filter() {
        let (hnsw, _, data) = build_pair(800, 8, IndexKind::Hnsw, 11);
        let (head, _) = hnsw.save_bytes_tiered().unwrap().unwrap();
        let partial = HnswHeadIndex::load_bytes(&head).unwrap();
        let allow = Bitset::from_positions(800, (0..800).step_by(2));
        let got = partial
            .search_with_filter(&data[..8], 10, &SearchParams::default(), Some(&allow))
            .unwrap();
        for nb in got {
            assert_eq!(nb.id % 2, 0);
        }
    }

    #[test]
    fn tiered_truncated_sections_error() {
        let (hnsw, _, _) = build_pair(300, 8, IndexKind::Hnsw, 5);
        let (head, body) = hnsw.save_bytes_tiered().unwrap().unwrap();
        assert!(HnswHeadIndex::load_bytes(&head[..head.len() - 4]).is_err());
        assert!(HnswIndex::load_tiered_parts(&head, &body[..body.len() - 4]).is_err());
        // Mismatched sections (head from a different build) must not load.
        let (other, _, _) = build_pair(301, 8, IndexKind::Hnsw, 6);
        let (head2, _) = other.save_bytes_tiered().unwrap().unwrap();
        assert!(HnswIndex::load_tiered_parts(&head2, &body).is_err());
    }

    #[test]
    fn recall_floor_vs_flat_oracle() {
        let dim = 16;
        let n = 1500;
        let (hnsw, flat, data) = build_pair(n, dim, IndexKind::Hnsw, 1);
        let params = SearchParams::default().with_ef(96);
        let mut total = 0.0;
        let queries = 20;
        for q in 0..queries {
            let qv = &data[q * 37 * dim % (n * dim - dim)..][..dim];
            let truth = flat.search_with_filter(qv, 10, &params, None).unwrap();
            let got = hnsw.search_with_filter(qv, 10, &params, None).unwrap();
            total += recall_at_k(&truth, &got, 10);
        }
        let recall = total / queries as f64;
        assert!(recall >= 0.9, "hnsw recall {recall} below floor");
    }

    #[test]
    fn sq_variant_recall_and_memory() {
        let dim = 16;
        let n = 1200;
        let (hnswsq, flat, data) = build_pair(n, dim, IndexKind::HnswSq, 2);
        let (hnsw, _, _) = build_pair(n, dim, IndexKind::Hnsw, 2);
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
            let truth = flat.search_with_filter(qv, 10, &params, None).unwrap();
            let got = hnswsq.search_with_filter(qv, 10, &params, None).unwrap();
            total += recall_at_k(&truth, &got, 10);
        }
        assert!(total / 15.0 >= 0.8, "hnswsq recall {} below floor", total / 15.0);
    }

    #[test]
    fn filtered_search_respects_bitset() {
        let dim = 8;
        let (hnsw, _, data) = build_pair(600, dim, IndexKind::Hnsw, 3);
        let allowed = Bitset::from_positions(600, (0..600).filter(|i| i % 7 == 0));
        let got = hnsw
            .search_with_filter(&data[0..dim], 10, &SearchParams::default(), Some(&allowed))
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
            .search_with_filter(&[0.0; 4], 5, &SearchParams::default(), None)
            .unwrap()
            .is_empty());
        let (hnsw, _, data) = build_pair(50, 4, IndexKind::Hnsw, 4);
        assert!(hnsw
            .search_with_filter(&data[0..4], 0, &SearchParams::default(), None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn native_iterator_is_incremental_and_complete() {
        let dim = 8;
        let n = 300;
        let (hnsw, _, data) = build_pair(n, dim, IndexKind::Hnsw, 5);
        let q = data[0..dim].to_vec();
        let params = SearchParams::default();
        let mut it = hnsw.search_iterator(&q, &params).unwrap();
        assert!(hnsw.has_native_iterator());
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
        let (hnsw, flat, data) = build_pair(500, dim, IndexKind::Hnsw, 6);
        let q = data[40 * dim..41 * dim].to_vec();
        let params = SearchParams::default().with_ef(64);
        let truth = flat.search_with_filter(&q, 1, &params, None).unwrap();
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
        let (hnsw, flat, data) = build_pair(800, dim, IndexKind::Hnsw, 7);
        let q = data[0..dim].to_vec();
        let radius = 2.0;
        let params = SearchParams::default().with_ef(64);
        let truth = flat.search_with_range(&q, radius, &params, None).unwrap();
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
        let (hnsw, _, data) = build_pair(400, dim, IndexKind::Hnsw, 8);
        let blob = hnsw.save_bytes().unwrap();
        let loaded = HnswIndex::load_bytes(&blob).unwrap();
        let q = &data[0..dim];
        let params = SearchParams::default();
        assert_eq!(
            hnsw.search_with_filter(q, 10, &params, None).unwrap(),
            loaded.search_with_filter(q, 10, &params, None).unwrap()
        );
    }

    #[test]
    fn sq_save_load_roundtrip() {
        let dim = 8;
        let (hnswsq, _, data) = build_pair(300, dim, IndexKind::HnswSq, 9);
        let blob = hnswsq.save_bytes().unwrap();
        let loaded = HnswIndex::load_bytes(&blob).unwrap();
        assert_eq!(loaded.meta().kind, IndexKind::HnswSq);
        let q = &data[0..dim];
        let params = SearchParams::default();
        assert_eq!(
            hnswsq.search_with_filter(q, 5, &params, None).unwrap(),
            loaded.search_with_filter(q, 5, &params, None).unwrap()
        );
    }

    #[test]
    fn sq_bound_prunes_far_candidates_without_dropping_true_ones() {
        let dim = 8;
        let n = 300;
        let (hnswsq, flat, data) = build_pair(n, dim, IndexKind::HnswSq, 12);
        // Wide beam on small clusters so the candidate list spans clusters:
        // far-cluster candidates sit ~4 per dim away, far outside the
        // rho-adjusted lower bound.
        let params = SearchParams::default().with_ef(160);
        let q = &data[0..dim];
        let k = 40;
        let truth = flat.search_with_filter(q, 10, &params, None).unwrap();
        let bound_val = truth[9].distance;
        let b = SharedBound::new();
        b.update(bound_val);
        let plain = hnswsq.search_with_filter(q, k, &params, None).unwrap();
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
    fn sq_v1_blob_without_rho_loads_and_falls_back() {
        let dim = 8;
        let (hnswsq, _, data) = build_pair(200, dim, IndexKind::HnswSq, 13);
        let mut v1 = hnswsq.save_bytes().unwrap().to_vec();
        // Rewrite the header version (bytes [4,6) little-endian) to 1 and
        // strip the v2 rho section (flag byte + f32).
        v1[4] = 1;
        v1[5] = 0;
        v1.truncate(v1.len() - 5);
        let loaded = HnswIndex::load_bytes(&v1).unwrap();
        let params = SearchParams::default().with_ef(96);
        let q = &data[0..dim];
        assert_eq!(
            hnswsq.search_with_filter(q, 5, &params, None).unwrap(),
            loaded.search_with_filter(q, 5, &params, None).unwrap(),
            "v1 payload must search identically"
        );
        // No rho → the bound path must fall back: nothing skipped even
        // under an impossibly tight bound.
        let b = SharedBound::new();
        b.update(0.0);
        let got = loaded.search_with_bound(q, 5, &params, None, Some(&b)).unwrap();
        assert_eq!(got, loaded.search_with_filter(q, 5, &params, None).unwrap());
        assert_eq!(b.skips(), 0);
    }

    #[test]
    fn filtered_traversal_passes_filter_and_meets_recall_floor() {
        let dim = 8;
        let n = 1000;
        let (hnsw, flat, data) = build_pair(n, dim, IndexKind::Hnsw, 21);
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
                let got = hnsw.search_with_filter(qv, k, &params, Some(&allow)).unwrap();
                for nb in &got {
                    assert_eq!(
                        nb.id as usize % step,
                        0,
                        "s={s}: row {} escaped the filter",
                        nb.id
                    );
                }
                let truth = flat.search_with_filter(qv, k, &params, Some(&allow)).unwrap();
                total += recall_at_k(&truth, &got, k);
            }
            let recall = total / queries as f64;
            assert!(recall >= 0.85, "s={s}: traversal recall {recall} below floor");
        }
    }

    #[test]
    fn filtered_traversal_respects_shared_bound_rules() {
        let dim = 8;
        let n = 800;
        let (hnsw, flat, data) = build_pair(n, dim, IndexKind::Hnsw, 22);
        let allow = Bitset::from_positions(n, (0..n).step_by(5));
        let params =
            SearchParams::default().with_ef(96).with_selectivity(0.2).with_filter_traversal(true);
        let q = &data[0..dim];
        let k = 15;
        let plain = hnsw.search_with_filter(q, k, &params, Some(&allow)).unwrap();
        // A vacuous bound changes nothing and gets tightened by the exact
        // k-th distance once the local top-k fills.
        let b = SharedBound::new();
        let got = hnsw.search_with_bound(q, k, &params, Some(&allow), Some(&b)).unwrap();
        assert_eq!(got, plain);
        assert!(b.get() < f32::INFINITY, "exact store must publish its k-th");
        // A tight bound (true filtered 5th distance) prunes exactly the
        // candidates whose exact distance exceeds it — never a survivor.
        let truth = flat.search_with_filter(q, k, &params, Some(&allow)).unwrap();
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
        let (hnswsq, _, data) = build_pair(n, dim, IndexKind::HnswSq, 23);
        let allow = Bitset::from_positions(n, (0..n).step_by(7));
        let params =
            SearchParams::default().with_ef(96).with_selectivity(0.15).with_filter_traversal(true);
        let got = hnswsq.search_with_filter(&data[0..dim], 8, &params, Some(&allow)).unwrap();
        assert!(!got.is_empty());
        for nb in got {
            assert_eq!(nb.id % 7, 0);
        }
    }

    /// Benchmark-shaped rows: 32 cluster centres in `[-1, 1]^dim`, unit-ish
    /// noise of spread 0.35 around them.
    fn centred(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut r = rng(seed);
        let centres: Vec<f32> = (0..32 * dim).map(|_| r.gen_range(-1.0f32..1.0)).collect();
        let mut data = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let c = r.gen_range(0..32usize) * dim;
            data.extend(centres[c..c + dim].iter().map(|m| m + r.gen_range(-0.6f32..0.6)));
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
                    let bits = Bitset::from_positions(
                        rows,
                        (0..rows).filter(|_| draw.gen_range(0.0..1.0f64) < s),
                    );
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
                    let walks: [(GraphScan, usize, &dyn Fn(&[f32], u32) -> usize); 4] = [
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

    #[test]
    fn corrupt_blob_rejected() {
        let (hnsw, _, _) = build_pair(50, 4, IndexKind::Hnsw, 10);
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
