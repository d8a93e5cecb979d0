//! DiskANN-style index: a Vamana graph whose full-precision vectors and
//! adjacency live in a "disk" blob, navigated via in-memory PQ codes.
//!
//! Faithful to the DiskANN design (Jayaram Subramanya et al.):
//!
//! * **Build**: Vamana — iterative greedy search + α-robust pruning over an
//!   initially random `R`-regular graph, producing a low-diameter navigable
//!   graph.
//! * **Layout**: one contiguous blob stores, per node, the raw vector, its
//!   degree and its neighbor list; each node expansion is one blob read,
//!   counted in [`DiskAnnIndex::disk_reads`] so the storage layer and the
//!   benchmarks can charge disk latency per read.
//! * **Search**: beam search ordered by in-memory PQ-approximate distances;
//!   expanded nodes contribute *exact* distances read from the blob, so
//!   results are already refined.
//!
//! We do not mmap an actual file — the blob is the unit the (simulated) disk
//! cache moves around, which preserves the I/O-count behaviour the paper's
//! disk-based index group is about.

use crate::codec::{Reader, Writer};
use crate::flat::{metric_from_u8, metric_to_u8};
use crate::iterator::{GenericSearchIterator, SearchIterator};
use crate::quant::pq::{CodeBits, Pq, PqParams};
use crate::types::{
    check_batch, sorted_neighbors, IndexBuilder, IndexMeta, IndexSpec, Neighbor, SearchParams,
    VectorIndex,
};
use crate::{IndexKind, Metric};
use bh_common::rng::derived_rng;
use bh_common::{BhError, Bitset, QueryCtx, Result, SharedBound, TopK};
use bytes::Bytes;
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"BHDA";
const VERSION: u16 = 1;

/// Little-endian `f32` at `at`; node stride arithmetic keeps reads in bounds.
#[inline]
fn le_f32(blob: &[u8], at: usize) -> f32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&blob[at..at + 4]);
    f32::from_le_bytes(b)
}

/// Little-endian `u32` at `at`; node stride arithmetic keeps reads in bounds.
#[inline]
fn le_u32(blob: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&blob[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Immutable DiskANN index.
pub struct DiskAnnIndex {
    dim: usize,
    metric: Metric,
    r: usize,
    medoid: u32,
    ids: Vec<u64>,
    /// In-memory navigation structures.
    pq: Pq,
    codes: Vec<u8>,
    /// "On-disk" node blob: per node `[vector f32*dim][degree u32][nbrs u32*R]`.
    blob: Vec<u8>,
    disk_reads: AtomicU64,
}

impl DiskAnnIndex {
    fn n(&self) -> usize {
        self.ids.len()
    }

    fn stride(&self) -> usize {
        self.dim * 4 + 4 + self.r * 4
    }

    /// Number of blob (simulated disk) reads performed since construction.
    pub fn disk_reads(&self) -> u64 {
        self.disk_reads.load(Ordering::Relaxed)
    }

    /// Read one node from the blob: exact vector + neighbor list.
    fn read_node(&self, node: u32) -> (Vec<f32>, Vec<u32>) {
        self.disk_reads.fetch_add(1, Ordering::Relaxed);
        let off = node as usize * self.stride();
        let mut vec = Vec::with_capacity(self.dim);
        for d in 0..self.dim {
            vec.push(le_f32(&self.blob, off + d * 4));
        }
        let doff = off + self.dim * 4;
        let degree = le_u32(&self.blob, doff) as usize;
        let mut nbrs = Vec::with_capacity(degree);
        for i in 0..degree {
            nbrs.push(le_u32(&self.blob, doff + 4 + i * 4));
        }
        (vec, nbrs)
    }

    /// Approximate distance from query to a node via PQ codes.
    #[inline]
    fn approx_dist(&self, table: &crate::quant::pq::AdcTable, node: u32) -> f32 {
        let cs = self.pq.code_size();
        table.distance(&self.codes[node as usize * cs..(node as usize + 1) * cs])
    }

    /// Beam search: returns `(exact top candidates, visited count)`.
    fn beam_search(
        &self,
        query: &[f32],
        k: usize,
        beam: usize,
        filter: Option<&Bitset>,
    ) -> Result<Vec<Neighbor>> {
        let table = self.pq.adc_table(query)?;
        let beam = beam.max(k).max(8).min(self.n());
        let mut visited = vec![false; self.n()];
        let mut expanded = vec![false; self.n()];
        // Working list: (approx_dist, node), kept sorted ascending, ≤ beam.
        let mut list: Vec<(f32, u32)> = vec![(self.approx_dist(&table, self.medoid), self.medoid)];
        visited[self.medoid as usize] = true;
        let mut exact = TopK::new(k);
        // Nodes read from the blob and scored exactly.
        let mut scored = 0u64;

        loop {
            // Closest unexpanded entry in the working list.
            let Some(pos) = list.iter().position(|&(_, n)| !expanded[n as usize]) else {
                break;
            };
            let (_, node) = list[pos];
            expanded[node as usize] = true;
            let (vec, nbrs) = self.read_node(node);
            let d_exact = self.metric.distance(query, &vec);
            scored += 1;
            let allowed = filter.map(|f| f.contains(self.ids[node as usize] as usize)).unwrap_or(true);
            if allowed {
                exact.push(d_exact, self.ids[node as usize]);
            }
            for nb in nbrs {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                let d = self.approx_dist(&table, nb);
                let at = list.partition_point(|&(x, _)| x <= d);
                if at < beam {
                    list.insert(at, (d, nb));
                    if list.len() > beam {
                        list.pop();
                    }
                }
            }
        }
        QueryCtx::with(|c| c.tally.rows_scanned.add(scored));
        Ok(sorted_neighbors(exact))
    }

    /// Deserialize an index written by [`VectorIndex::save_bytes`].
    pub fn load_bytes(bytes: &[u8]) -> Result<DiskAnnIndex> {
        let mut r = Reader::new(bytes);
        let _v = r.expect_header(MAGIC)?;
        let dim = r.get_u64()? as usize;
        let metric = metric_from_u8(r.get_u8()?)?;
        let deg = r.get_u64()? as usize;
        let medoid = r.get_u32()?;
        let ids = r.get_u64_vec()?;
        let pq = Pq::load(&mut r)?;
        let codes = r.get_bytes()?;
        let blob = r.get_bytes()?;
        let idx = DiskAnnIndex {
            dim,
            metric,
            r: deg,
            medoid,
            ids,
            pq,
            codes,
            blob,
            disk_reads: AtomicU64::new(0),
        };
        if dim == 0 || idx.blob.len() != idx.n() * idx.stride() {
            return Err(BhError::Serde("diskann: corrupt blob geometry".into()));
        }
        Ok(idx)
    }
}

impl VectorIndex for DiskAnnIndex {
    fn meta(&self) -> IndexMeta {
        IndexMeta { kind: IndexKind::DiskAnn, dim: self.dim, metric: self.metric, len: self.n() }
    }

    fn search_with_bound(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&Bitset>,
        _bound: Option<&SharedBound>,
    ) -> Result<Vec<Neighbor>> {
        self.check_query(query)?;
        if self.n() == 0 || k == 0 {
            return Ok(Vec::new());
        }
        let beam = if filter.is_some() { params.ef_search * 2 } else { params.ef_search };
        self.beam_search(query, k, beam, filter)
    }

    fn search_iterator<'a>(
        &'a self,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<Box<dyn SearchIterator + 'a>> {
        self.check_query(query)?;
        Ok(Box::new(GenericSearchIterator::new(self, query, params)))
    }

    fn memory_usage(&self) -> usize {
        // Only the in-memory navigation structures; the blob is disk-resident.
        self.pq.memory_usage() + self.codes.len() + self.ids.len() * 8
            + std::mem::size_of::<Self>()
    }

    fn save_bytes(&self) -> Result<Bytes> {
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.put_u64(self.dim as u64);
        w.put_u8(metric_to_u8(self.metric));
        w.put_u64(self.r as u64);
        w.put_u32(self.medoid);
        w.put_u64_slice(&self.ids);
        self.pq.save(&mut w);
        w.put_bytes(&self.codes);
        w.put_bytes(&self.blob);
        Ok(w.finish())
    }
}

/// Builder implementing the Vamana construction algorithm.
pub struct DiskAnnBuilder {
    spec: IndexSpec,
    r: usize,
    alpha: f32,
    l_build: usize,
    seed: u64,
    ids: Vec<u64>,
    data: Vec<f32>,
}

impl DiskAnnBuilder {
    /// A builder validated against `spec`.
    pub fn new(spec: &IndexSpec) -> Result<DiskAnnBuilder> {
        spec.validate()?;
        let r = spec.param_usize("r", 32)?;
        if r < 2 {
            return Err(BhError::InvalidArgument("diskann: R must be >= 2".into()));
        }
        Ok(DiskAnnBuilder {
            spec: spec.clone(),
            r,
            alpha: spec.param_f32("alpha", 1.2)?,
            l_build: spec.param_usize("l_build", 64)?,
            seed: spec.param_usize("seed", 0)? as u64,
            ids: Vec::new(),
            data: Vec::new(),
        })
    }

    fn dim(&self) -> usize {
        self.spec.dim
    }

    fn vec_of(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim()..(i + 1) * self.dim()]
    }

    fn dist(&self, a: usize, b: usize) -> f32 {
        self.spec.metric.distance(self.vec_of(a), self.vec_of(b))
    }

    /// α-robust prune (DiskANN Algorithm 2).
    fn robust_prune(&self, p: usize, mut cand: Vec<(f32, u32)>, adj: &mut Vec<Vec<u32>>) {
        cand.sort_by(|a, b| a.0.total_cmp(&b.0));
        cand.dedup_by_key(|c| c.1);
        let mut result: Vec<u32> = Vec::with_capacity(self.r);
        while let Some(pos) = cand.iter().position(|&(_, n)| n as usize != p) {
            let (d_star, star) = cand.remove(pos);
            result.push(star);
            if result.len() >= self.r {
                break;
            }
            cand.retain(|&(d_c, c)| {
                let d_between = self.dist(star as usize, c as usize);
                !(self.alpha * d_between <= d_c) || d_c <= d_star
            });
        }
        adj[p] = result;
    }

    /// Greedy search over the under-construction graph, returning the visited
    /// set with distances (the candidate pool for pruning).
    fn greedy_visited(&self, start: u32, target: usize, adj: &[Vec<u32>]) -> Vec<(f32, u32)> {
        let n = self.ids.len();
        let mut visited = vec![false; n];
        let mut out: Vec<(f32, u32)> = Vec::new();
        let mut list: Vec<(f32, u32)> = vec![(self.dist(start as usize, target), start)];
        visited[start as usize] = true;
        let mut expanded = vec![false; n];
        loop {
            let Some(pos) = list.iter().position(|&(_, v)| !expanded[v as usize]) else { break };
            let (d, node) = list[pos];
            expanded[node as usize] = true;
            out.push((d, node));
            for &nb in &adj[node as usize] {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                let dn = self.dist(nb as usize, target);
                let at = list.partition_point(|&(x, _)| x <= dn);
                if at < self.l_build {
                    list.insert(at, (dn, nb));
                    if list.len() > self.l_build {
                        list.pop();
                    }
                }
            }
        }
        out
    }
}

impl IndexBuilder for DiskAnnBuilder {
    fn train(&mut self, _sample: &[f32]) -> Result<()> {
        Ok(())
    }

    fn add_with_ids(&mut self, vectors: &[f32], ids: &[u64]) -> Result<()> {
        check_batch(self.dim(), vectors, ids)?;
        self.data.extend_from_slice(vectors);
        self.ids.extend_from_slice(ids);
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<Arc<dyn VectorIndex>> {
        let n = self.ids.len();
        let dim = self.dim();
        if n == 0 {
            return Err(BhError::Index("diskann: cannot build over zero vectors".into()));
        }
        let mut rng = derived_rng(self.seed, 0x7661_6d61);

        // Medoid: node nearest the dataset mean.
        let mut mean = vec![0.0f64; dim];
        for i in 0..n {
            for d in 0..dim {
                mean[d] += self.vec_of(i)[d] as f64;
            }
        }
        let mean: Vec<f32> = mean.iter().map(|&x| (x / n as f64) as f32).collect();
        let medoid = (0..n)
            .min_by(|&a, &b| {
                self.spec
                    .metric
                    .distance(&mean, self.vec_of(a))
                    .total_cmp(&self.spec.metric.distance(&mean, self.vec_of(b)))
            })
            .unwrap_or(0) as u32;

        // Random initial graph.
        let mut adj: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut nbrs = Vec::with_capacity(self.r.min(n - 1));
                while nbrs.len() < self.r.min(n.saturating_sub(1)) {
                    let c = rng.gen_range(0..n) as u32;
                    if c as usize != i && !nbrs.contains(&c) {
                        nbrs.push(c);
                    }
                }
                nbrs
            })
            .collect();

        // Two Vamana passes.
        let mut order: Vec<usize> = (0..n).collect();
        for _pass in 0..2 {
            order.shuffle(&mut rng);
            for &p in &order {
                let mut cand = self.greedy_visited(medoid, p, &adj);
                cand.extend(adj[p].iter().map(|&x| (self.dist(p, x as usize), x)));
                self.robust_prune(p, cand, &mut adj);
                // Back-edges with pruning on overflow.
                let nbrs = adj[p].clone();
                for nb in nbrs {
                    if !adj[nb as usize].contains(&(p as u32)) {
                        adj[nb as usize].push(p as u32);
                        if adj[nb as usize].len() > self.r {
                            let cand: Vec<(f32, u32)> = adj[nb as usize]
                                .iter()
                                .map(|&x| (self.dist(nb as usize, x as usize), x))
                                .collect();
                            self.robust_prune(nb as usize, cand, &mut adj);
                        }
                    }
                }
            }
        }

        // PQ navigation codes (8-bit on raw vectors — DiskANN compresses
        // absolute vectors, not residuals).
        let m = {
            let target = (dim / 4).max(1);
            let mut best = 1;
            for cand_m in 1..=target {
                if dim % cand_m == 0 {
                    best = cand_m;
                }
            }
            best
        };
        let pq = Pq::train(
            &self.data,
            dim,
            self.spec.metric,
            &PqParams { m, bits: CodeBits::B8, seed: self.seed, kmeans_iters: 8 },
        )?;
        let mut codes = Vec::with_capacity(n * pq.code_size());
        for i in 0..n {
            codes.extend(pq.encode(self.vec_of(i))?);
        }

        // Pack the disk blob.
        let stride = dim * 4 + 4 + self.r * 4;
        let mut blob = vec![0u8; n * stride];
        for i in 0..n {
            let off = i * stride;
            for d in 0..dim {
                blob[off + d * 4..off + d * 4 + 4]
                    .copy_from_slice(&self.vec_of(i)[d].to_le_bytes());
            }
            let doff = off + dim * 4;
            let degree = adj[i].len().min(self.r) as u32;
            blob[doff..doff + 4].copy_from_slice(&degree.to_le_bytes());
            for (j, &nb) in adj[i].iter().take(self.r).enumerate() {
                let b = doff + 4 + j * 4;
                blob[b..b + 4].copy_from_slice(&nb.to_le_bytes());
            }
        }

        Ok(Arc::new(DiskAnnIndex {
            dim,
            metric: self.spec.metric,
            r: self.r,
            medoid,
            ids: self.ids,
            pq,
            codes,
            blob,
            disk_reads: AtomicU64::new(0),
        }))
    }

    fn requires_training(&self) -> bool {
        false
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
            let center = (i % 6) as f32 * 6.0;
            for _ in 0..dim {
                data.push(center + r.gen_range(-1.0f32..1.0));
            }
        }
        data
    }

    fn build(n: usize, dim: usize, seed: u64) -> (Arc<dyn VectorIndex>, Arc<dyn VectorIndex>, Vec<f32>) {
        let data = clustered(n, dim, seed);
        let ids: Vec<u64> = (0..n as u64).collect();
        let spec = IndexSpec::new(IndexKind::DiskAnn, dim, Metric::L2).with_param("r", 24);
        let mut b = Box::new(DiskAnnBuilder::new(&spec).unwrap());
        b.add_with_ids(&data, &ids).unwrap();
        let dann = (b as Box<dyn IndexBuilder>).finish().unwrap();
        let fspec = IndexSpec::new(IndexKind::Flat, dim, Metric::L2);
        let mut fb = Box::new(FlatBuilder::new(&fspec).unwrap());
        fb.add_with_ids(&data, &ids).unwrap();
        let flat = (fb as Box<dyn IndexBuilder>).finish().unwrap();
        (dann, flat, data)
    }

    #[test]
    fn recall_floor_vs_oracle() {
        let dim = 12;
        let n = 800;
        let (dann, flat, data) = build(n, dim, 1);
        let params = SearchParams::default().with_ef(64);
        let mut total = 0.0;
        for q in 0..15 {
            let row = (q * 53) % n;
            let qv = &data[row * dim..(row + 1) * dim];
            let truth = flat.search_with_bound(qv, 10, &params, None, None).unwrap();
            let got = dann.search_with_bound(qv, 10, &params, None, None).unwrap();
            total += recall_at_k(&truth, &got, 10);
        }
        let recall = total / 15.0;
        assert!(recall >= 0.85, "diskann recall {recall} below floor");
    }

    #[test]
    fn disk_reads_counted_and_bounded() {
        let (dann, _, data) = build(500, 8, 2);
        let dann_concrete = {
            // Downcast via save/load to access DiskAnnIndex API.
            DiskAnnIndex::load_bytes(&dann.save_bytes().unwrap()).unwrap()
        };
        assert_eq!(dann_concrete.disk_reads(), 0);
        let params = SearchParams::default().with_ef(32);
        dann_concrete.search_with_bound(&data[0..8], 5, &params, None, None).unwrap();
        let reads = dann_concrete.disk_reads();
        assert!(reads > 0, "search must read the blob");
        assert!(
            (reads as usize) < 500 / 2,
            "beam search must not read most of the graph: {reads} reads"
        );
    }

    #[test]
    fn memory_excludes_disk_blob() {
        let (dann, flat, _) = build(600, 16, 3);
        assert!(
            dann.memory_usage() < flat.memory_usage(),
            "diskann resident memory {} must undercut raw vectors {}",
            dann.memory_usage(),
            flat.memory_usage()
        );
    }

    #[test]
    fn filtered_search() {
        let (dann, _, data) = build(400, 8, 4);
        let allowed = Bitset::from_positions(400, (0..400).filter(|i| i % 5 == 0));
        let got = dann
            .search_with_bound(&data[0..8], 8, &SearchParams::default(), Some(&allowed), None)
            .unwrap();
        assert!(!got.is_empty());
        for nb in &got {
            assert_eq!(nb.id % 5, 0);
        }
    }

    #[test]
    fn range_search_grows_k() {
        let (dann, flat, data) = build(500, 8, 5);
        let q = &data[0..8];
        let params = SearchParams::default().with_ef(48);
        let truth = flat.search_with_range(q, 4.0, &params, None).unwrap();
        let got = dann.search_with_range(q, 4.0, &params, None).unwrap();
        assert!(got.len() as f64 >= truth.len() as f64 * 0.8, "{} of {}", got.len(), truth.len());
        for nb in &got {
            assert!(nb.distance <= 4.0);
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let (dann, _, data) = build(300, 8, 6);
        let blob = dann.save_bytes().unwrap();
        let loaded = DiskAnnIndex::load_bytes(&blob).unwrap();
        let params = SearchParams::default();
        assert_eq!(
            dann.search_with_bound(&data[0..8], 5, &params, None, None).unwrap(),
            loaded.search_with_bound(&data[0..8], 5, &params, None, None).unwrap()
        );
        assert!(DiskAnnIndex::load_bytes(&blob[..32]).is_err());
    }

    #[test]
    fn empty_build_fails_single_vector_works() {
        let spec = IndexSpec::new(IndexKind::DiskAnn, 4, Metric::L2);
        let b = Box::new(DiskAnnBuilder::new(&spec).unwrap());
        assert!((b as Box<dyn IndexBuilder>).finish().is_err());

        let mut b2 = Box::new(DiskAnnBuilder::new(&spec).unwrap());
        b2.add_with_ids(&[1.0, 2.0, 3.0, 4.0], &[42]).unwrap();
        let idx = (b2 as Box<dyn IndexBuilder>).finish().unwrap();
        let got = idx
            .search_with_bound(&[1.0, 2.0, 3.0, 4.0], 1, &SearchParams::default(), None, None)
            .unwrap();
        assert_eq!(got[0].id, 42);
    }
}
