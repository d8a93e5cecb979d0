//! `MilvusSim` — a specialized-vector-database stand-in.
//!
//! Behavioural model (matching the aspects §V measures):
//!
//! * **Segmented storage**: rows accumulate into fixed-size segments, like
//!   Milvus growing → sealed segments.
//! * **Staged ingest**: segment data is written during ingest but indexes
//!   are built *serially afterwards* (`finalize` = Milvus flush + index
//!   build + load). End-to-end load time therefore cannot overlap write and
//!   build — the Table IV gap against BlendHouse's pipelined ingest.
//! * **Filtered search = pre-filter bitmap** over each segment, with Milvus'
//!   one rule: when the bitmap leaves fewer than `brute_force_threshold · k`
//!   candidates, skip the index and compute exact distances on the
//!   survivors (this is why Milvus also does well at tiny pass fractions in
//!   Fig. 9 — but it has no cost model choosing among richer strategies).
//! * **Must load before serving**: searching before `finalize` (or after
//!   `unload`) falls back to brute force over raw vectors, modelling the
//!   "wait for segment load" behaviour the elasticity experiment punishes.

use crate::collection::{SimCollection, SimFilter};
use crate::BaselineSystem;
use bh_common::{BhError, Result, TopK};
use bh_vector::{IndexKind, IndexRegistry, IndexSpec, Metric, Neighbor, SearchParams, VectorIndex};
use std::sync::Arc;

/// One sealed segment with (eventually) an index.
struct MilvusSegment {
    data: SimCollection,
    index: Option<Arc<dyn VectorIndex>>,
}

/// Configuration for the simulator.
#[derive(Debug, Clone)]
pub struct MilvusConfig {
    /// Rows per sealed segment.
    pub segment_rows: usize,
    /// Index algorithm per segment.
    pub index: IndexKind,
    /// Distance metric.
    pub metric: Metric,
    /// HNSW M parameter.
    pub m: usize,
    /// HNSW build beam width.
    pub ef_construction: usize,
    /// Brute-force fallback when `bitmap.count() < threshold · k`.
    pub brute_force_threshold: usize,
    /// Per-query entry overhead: the gRPC round trip plus proxy→querynode
    /// coordination a Milvus deployment pays on every request. BlendHouse
    /// is measured through its own full in-process SQL engine; this constant
    /// keeps the comparison apples-to-apples (documented in EXPERIMENTS.md).
    pub per_query_overhead: std::time::Duration,
}

impl Default for MilvusConfig {
    fn default() -> Self {
        Self {
            segment_rows: 2048,
            index: IndexKind::Hnsw,
            metric: Metric::L2,
            m: 16,
            ef_construction: 128,
            brute_force_threshold: 64,
            per_query_overhead: std::time::Duration::from_micros(250),
        }
    }
}

/// The Milvus-like system.
pub struct MilvusSim {
    cfg: MilvusConfig,
    dim: usize,
    segments: Vec<MilvusSegment>,
    /// Growing (unsealed) segment.
    growing: SimCollection,
}

impl MilvusSim {
    /// A collection of the given dimensionality under `cfg`.
    pub fn new(dim: usize, cfg: MilvusConfig) -> Self {
        Self {
            cfg,
            dim,
            segments: Vec::new(),
            growing: SimCollection::new(dim),
        }
    }

    /// A collection with default configuration.
    pub fn with_defaults(dim: usize) -> Self {
        Self::new(dim, MilvusConfig::default())
    }

    /// Drop all in-memory indexes (collection released) — searches fall back
    /// to brute force until `finalize` loads them again.
    pub fn unload(&mut self) {
        for seg in &mut self.segments {
            seg.index = None;
        }
    }

    /// Sealed segments plus the growing one (if non-empty).
    pub fn segment_count(&self) -> usize {
        self.segments.len() + usize::from(!self.growing.is_empty())
    }

    fn seal_growing(&mut self) {
        if self.growing.is_empty() {
            return;
        }
        let sealed = std::mem::replace(&mut self.growing, SimCollection::new(self.dim));
        self.segments.push(MilvusSegment { data: sealed, index: None });
    }

    fn build_index(&self, data: &SimCollection) -> Result<Arc<dyn VectorIndex>> {
        let spec = IndexSpec::new(self.cfg.index, self.dim, self.cfg.metric)
            .with_param("m", self.cfg.m)
            .with_param("ef_construction", self.cfg.ef_construction);
        let mut b = IndexRegistry.create_builder(&spec)?;
        if b.requires_training() {
            b.train(&data.vectors)?;
        }
        let offsets: Vec<u64> = (0..data.len() as u64).collect();
        b.add_with_ids(&data.vectors, &offsets)?;
        b.finish()
    }

    fn search_segment(
        &self,
        seg: &MilvusSegment,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&SimFilter>,
        out: &mut TopK<u64>,
    ) -> Result<()> {
        let bits = filter.map(|f| seg.data.filter_bitset(f));
        if let Some(b) = &bits {
            if b.is_all_clear() {
                return Ok(());
            }
            // Milvus' rule: tiny candidate sets skip the index entirely.
            if b.count() < self.cfg.brute_force_threshold.saturating_mul(k) {
                for row in b.iter() {
                    let d = self.cfg.metric.distance(query, seg.data.vector(row));
                    out.push(d, seg.data.ids[row]);
                }
                return Ok(());
            }
        }
        match &seg.index {
            Some(idx) => {
                let hits = idx.search_with_bound(query, k, params, bits.as_ref(), None)?;
                for nb in hits {
                    out.push(nb.distance, seg.data.ids[nb.id as usize]);
                }
            }
            None => {
                // Not loaded: brute force over (filtered) raw vectors.
                for row in 0..seg.data.len() {
                    if bits.as_ref().map(|b| !b.contains(row)).unwrap_or(false) {
                        continue;
                    }
                    let d = self.cfg.metric.distance(query, seg.data.vector(row));
                    out.push(d, seg.data.ids[row]);
                }
            }
        }
        Ok(())
    }
}

impl BaselineSystem for MilvusSim {
    fn name(&self) -> &'static str {
        "MilvusSim"
    }

    fn ingest(&mut self, vectors: &[f32], ids: &[u64], attrs: &[(&str, &[f64])]) -> Result<()> {
        if vectors.len() != ids.len() * self.dim {
            return Err(BhError::DimensionMismatch {
                expected: ids.len() * self.dim,
                got: vectors.len(),
            });
        }
        // Fill the growing segment, sealing at the size limit. Data is
        // "written" immediately; index building waits for finalize (staged).
        let mut start = 0usize;
        while start < ids.len() {
            let room = self.cfg.segment_rows - self.growing.len();
            let take = room.min(ids.len() - start);
            let vec_slice = &vectors[start * self.dim..(start + take) * self.dim];
            let id_slice = &ids[start..start + take];
            let attr_slices: Vec<(&str, Vec<f64>)> = attrs
                .iter()
                .map(|(n, col)| (*n, col[start..start + take].to_vec()))
                .collect();
            let attr_refs: Vec<(&str, &[f64])> =
                attr_slices.iter().map(|(n, c)| (*n, c.as_slice())).collect();
            self.growing.append(vec_slice, id_slice, &attr_refs)?;
            if self.growing.len() >= self.cfg.segment_rows {
                self.seal_growing();
            }
            start += take;
        }
        Ok(())
    }

    fn finalize(&mut self) -> Result<()> {
        self.seal_growing();
        // Serial index build over every sealed segment (the staged phase).
        for i in 0..self.segments.len() {
            if self.segments[i].index.is_none() {
                let idx = self.build_index(&self.segments[i].data)?;
                self.segments[i].index = Some(idx);
            }
        }
        Ok(())
    }

    fn search(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&SimFilter>,
    ) -> Result<Vec<Neighbor>> {
        if !self.cfg.per_query_overhead.is_zero() {
            std::thread::sleep(self.cfg.per_query_overhead);
        }
        let mut out = TopK::new(k);
        for seg in &self.segments {
            self.search_segment(seg, query, k, params, filter, &mut out)?;
        }
        // Growing segment is always brute-forced (Milvus growing segments
        // are searched without an index).
        for row in 0..self.growing.len() {
            if filter.map(|f| !f.matches(&self.growing.attrs, row)).unwrap_or(false) {
                continue;
            }
            let d = self.cfg.metric.distance(query, self.growing.vector(row));
            out.push(d, self.growing.ids[row]);
        }
        Ok(out.into_sorted().into_iter().map(|s| Neighbor::new(s.item, s.distance)).collect())
    }

    fn len(&self) -> usize {
        self.segments.iter().map(|s| s.data.len()).sum::<usize>() + self.growing.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_common::rng::rng;
    use rand::Rng;

    fn load(n: usize, dim: usize, seal: bool) -> MilvusSim {
        let mut sys = MilvusSim::new(
            dim,
            MilvusConfig { segment_rows: 256, ..Default::default() },
        );
        let mut r = rng(7);
        let vectors: Vec<f32> = (0..n)
            .flat_map(|i| {
                let c = (i % 4) as f32 * 10.0;
                (0..dim).map(move |_| c).collect::<Vec<_>>()
            })
            .map(|v| v + r.gen::<f32>() - 0.5)
            .collect();
        let ids: Vec<u64> = (0..n as u64).collect();
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        sys.ingest(&vectors, &ids, &[("x", &xs)]).unwrap();
        if seal {
            sys.finalize().unwrap();
        }
        sys
    }

    #[test]
    fn ingest_seals_segments_and_finalize_builds_indexes() {
        let sys = load(1000, 4, false);
        assert_eq!(sys.len(), 1000);
        assert!(sys.segment_count() >= 3);
        assert!(sys.segments.iter().all(|s| s.index.is_none()), "staged: no index yet");
        let sys = load(1000, 4, true);
        assert!(sys.segments.iter().all(|s| s.index.is_some()));
    }

    #[test]
    fn search_finds_nearest_cluster() {
        let sys = load(800, 4, true);
        let got = sys.search(&[10.0; 4], 10, &SearchParams::default(), None).unwrap();
        assert_eq!(got.len(), 10);
        for nb in &got {
            assert_eq!(nb.id % 4, 1, "row {} not from cluster 1", nb.id);
        }
    }

    #[test]
    fn filtered_search_respects_ranges() {
        let sys = load(800, 4, true);
        let f = SimFilter::range("x", 100.0, 200.0);
        let got = sys.search(&[0.0; 4], 5, &SearchParams::default(), Some(&f)).unwrap();
        assert!(!got.is_empty());
        for nb in &got {
            assert!((100..=200).contains(&(nb.id as i64)), "id {}", nb.id);
        }
    }

    #[test]
    fn tiny_candidate_sets_brute_force_with_full_recall() {
        let sys = load(800, 4, true);
        // Only 3 rows pass → rule-based brute force → exact results.
        let f = SimFilter::range("x", 10.0, 12.0);
        let got = sys.search(&[0.0; 4], 3, &SearchParams::default(), Some(&f)).unwrap();
        let ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 11, 12]);
    }

    #[test]
    fn unloaded_collection_still_answers_via_brute_force() {
        let mut sys = load(500, 4, true);
        sys.unload();
        let got = sys.search(&[0.0; 4], 5, &SearchParams::default(), None).unwrap();
        assert_eq!(got.len(), 5);
        for nb in &got {
            assert_eq!(nb.id % 4, 0);
        }
    }

    #[test]
    fn growing_segment_is_searchable_before_seal() {
        let sys = load(100, 4, false); // 100 < 256 → all rows in growing
        assert_eq!(sys.segment_count(), 1);
        let got = sys.search(&[0.0; 4], 3, &SearchParams::default(), None).unwrap();
        assert_eq!(got.len(), 3);
    }
}
