//! Exact brute-force index.
//!
//! `FLAT` stores raw vectors and scans them all. It is simultaneously:
//!
//! * the correctness oracle every ANN test measures recall against,
//! * the physical operator behind **Plan A** (brute-force after scalar
//!   filtering, Eq. 1) and the cache-miss fallback path (§II-D), and
//! * the exact-distance source for refine steps on quantized indexes.

use crate::codec::{Reader, Writer};
use crate::distance::scan_distances;
use crate::iterator::SearchIterator;
use crate::types::{
    check_batch, BoundedTopK, IndexBuilder, IndexMeta, IndexSpec, Neighbor, SearchParams,
    VectorIndex,
};
use crate::{IndexKind, Metric};
use bh_common::{Bitset, Result, SharedBound};
use bytes::Bytes;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"BHFL";
const VERSION: u16 = 1;

/// Exact scan index over raw `f32` vectors.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dim: usize,
    metric: Metric,
    ids: Vec<u64>,
    data: Vec<f32>,
}

impl FlatIndex {
    /// Deserialize an index written by [`VectorIndex::save_bytes`].
    pub fn load_bytes(bytes: &[u8]) -> Result<FlatIndex> {
        let mut r = Reader::new(bytes);
        let _v = r.expect_header(MAGIC)?;
        let dim = r.get_u64()? as usize;
        let metric = metric_from_u8(r.get_u8()?)?;
        let ids = r.get_u64_vec()?;
        let data = r.get_f32_vec()?;
        if dim == 0 || data.len() != ids.len() * dim {
            return Err(bh_common::BhError::Serde("flat: corrupt geometry".into()));
        }
        Ok(FlatIndex { dim, metric, ids, data })
    }
}

pub(crate) fn metric_to_u8(m: Metric) -> u8 {
    match m {
        Metric::L2 => 0,
        Metric::InnerProduct => 1,
        Metric::Cosine => 2,
    }
}

pub(crate) fn metric_from_u8(v: u8) -> Result<Metric> {
    match v {
        0 => Ok(Metric::L2),
        1 => Ok(Metric::InnerProduct),
        2 => Ok(Metric::Cosine),
        x => Err(bh_common::BhError::Serde(format!("bad metric byte {x}"))),
    }
}

impl VectorIndex for FlatIndex {
    fn meta(&self) -> IndexMeta {
        IndexMeta { kind: IndexKind::Flat, dim: self.dim, metric: self.metric, len: self.ids.len() }
    }

    fn search_with_bound(
        &self,
        query: &[f32],
        k: usize,
        _params: &SearchParams,
        filter: Option<&Bitset>,
        bound: Option<&SharedBound>,
    ) -> Result<Vec<Neighbor>> {
        self.check_query(query)?;
        // FLAT distances are exact, so candidates beaten by the shared bound
        // can be dropped and our own k-th distance can be published.
        let mut out = BoundedTopK::new(k, bound, true);
        // Excluded rows are dropped before their distance is paid for.
        let passing: Option<Vec<u32>> = filter.map(|f| {
            (0..self.ids.len() as u32)
                .filter(|&r| f.contains(self.ids[r as usize] as usize))
                .collect()
        });
        scan_distances(self.metric, query, &self.data, self.dim, passing.as_deref(), |row, d| {
            out.offer(d, d, self.ids[row])
        })?;
        Ok(out.finish())
    }

    fn search_iterator<'a>(
        &'a self,
        query: &[f32],
        _params: &SearchParams,
    ) -> Result<Box<dyn SearchIterator + 'a>> {
        self.check_query(query)?;
        Ok(Box::new(FlatIterator {
            index: self,
            query: query.to_vec(),
            sorted: None,
            cursor: 0,
        }))
    }

    fn memory_usage(&self) -> usize {
        self.data.len() * 4 + self.ids.len() * 8 + std::mem::size_of::<Self>()
    }

    fn save_bytes(&self) -> Result<Bytes> {
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.put_u64(self.dim as u64);
        w.put_u8(metric_to_u8(self.metric));
        w.put_u64_slice(&self.ids);
        w.put_f32_slice(&self.data);
        Ok(w.finish())
    }
}

/// Native iterator: one full distance pass on first use, then streamed.
/// "Native" means additional batches cost nothing beyond the initial scan —
/// no doubled-k restarts.
struct FlatIterator<'a> {
    index: &'a FlatIndex,
    query: Vec<f32>,
    sorted: Option<Vec<Neighbor>>,
    cursor: usize,
}

impl SearchIterator for FlatIterator<'_> {
    fn next_batch(&mut self, n: usize) -> Result<Vec<Neighbor>> {
        if self.sorted.is_none() {
            let mut all: Vec<Neighbor> = Vec::with_capacity(self.index.ids.len());
            let FlatIndex { dim, metric, ids, data } = self.index;
            scan_distances(*metric, &self.query, data, *dim, None, |row, d| {
                all.push(Neighbor::new(ids[row], d));
            })?;
            all.sort_by(|a, b| a.distance.total_cmp(&b.distance));
            self.sorted = Some(all);
        }
        // lint: allow(panic) - the branch directly above assigns `Some(all)`
        // whenever `sorted` was `None`
        let sorted = self.sorted.as_ref().expect("initialized above");
        let end = (self.cursor + n).min(sorted.len());
        let out = sorted[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(out)
    }

    fn visited(&self) -> usize {
        if self.sorted.is_some() {
            self.index.ids.len()
        } else {
            0
        }
    }

    fn exhausted(&self) -> bool {
        self.sorted.as_ref().map(|s| self.cursor >= s.len()).unwrap_or(false)
    }
}

/// Builder for [`FlatIndex`]. Training is a no-op.
#[derive(Debug)]
pub struct FlatBuilder {
    dim: usize,
    metric: Metric,
    ids: Vec<u64>,
    data: Vec<f32>,
}

impl FlatBuilder {
    /// A builder validated against `spec`.
    pub fn new(spec: &IndexSpec) -> Result<FlatBuilder> {
        spec.validate()?;
        Ok(FlatBuilder { dim: spec.dim, metric: spec.metric, ids: Vec::new(), data: Vec::new() })
    }
}

impl IndexBuilder for FlatBuilder {
    fn train(&mut self, _sample: &[f32]) -> Result<()> {
        Ok(())
    }

    fn add_with_ids(&mut self, vectors: &[f32], ids: &[u64]) -> Result<()> {
        check_batch(self.dim, vectors, ids)?;
        self.data.extend_from_slice(vectors);
        self.ids.extend_from_slice(ids);
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<Arc<dyn VectorIndex>> {
        Ok(Arc::new(FlatIndex { dim: self.dim, metric: self.metric, ids: self.ids, data: self.data }))
    }

    fn requires_training(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_common::rng::rng;
    use rand::Rng;

    fn build(n: usize, dim: usize, metric: Metric, seed: u64) -> (Arc<dyn VectorIndex>, Vec<f32>) {
        let mut r = rng(seed);
        let data: Vec<f32> = (0..n * dim).map(|_| r.gen_range(-1.0f32..1.0)).collect();
        let ids: Vec<u64> = (0..n as u64).collect();
        let spec = IndexSpec::new(IndexKind::Flat, dim, metric);
        let mut b = Box::new(FlatBuilder::new(&spec).unwrap());
        b.add_with_ids(&data, &ids).unwrap();
        ((b as Box<dyn IndexBuilder>).finish().unwrap(), data)
    }

    #[test]
    fn topk_matches_manual_sort() {
        let dim = 8;
        let (idx, data) = build(100, dim, Metric::L2, 1);
        let q: Vec<f32> = data[0..dim].to_vec();
        let got = idx.search_with_bound(&q, 5, &SearchParams::default(), None, None).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].id, 0, "nearest to itself");
        assert_eq!(got[0].distance, 0.0);
        for w in got.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn filter_restricts_results() {
        let dim = 4;
        let (idx, data) = build(50, dim, Metric::L2, 2);
        let q: Vec<f32> = data[0..dim].to_vec();
        let allowed = Bitset::from_positions(50, [10, 20, 30]);
        let got =
            idx.search_with_bound(&q, 10, &SearchParams::default(), Some(&allowed), None).unwrap();
        assert_eq!(got.len(), 3);
        for nb in &got {
            assert!([10, 20, 30].contains(&nb.id));
        }
    }

    #[test]
    fn empty_filter_returns_nothing() {
        let dim = 4;
        let (idx, data) = build(10, dim, Metric::L2, 3);
        let q: Vec<f32> = data[0..dim].to_vec();
        let empty = Bitset::new(10);
        let got =
            idx.search_with_bound(&q, 5, &SearchParams::default(), Some(&empty), None).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn range_search_returns_exactly_within_radius() {
        let dim = 2;
        let (idx, data) = build(200, dim, Metric::L2, 4);
        let q: Vec<f32> = data[0..dim].to_vec();
        let radius = 0.3;
        let got = idx.search_with_range(&q, radius, &SearchParams::default(), None).unwrap();
        // Verify against a manual scan.
        let mut expect = 0;
        for row in 0..200 {
            let d = Metric::L2.distance(&q, &data[row * dim..(row + 1) * dim]);
            if d <= radius {
                expect += 1;
            }
        }
        assert_eq!(got.len(), expect);
        for nb in &got {
            assert!(nb.distance <= radius);
        }
    }

    #[test]
    fn k_larger_than_n() {
        let (idx, data) = build(3, 4, Metric::L2, 5);
        let got =
            idx.search_with_bound(&data[0..4], 100, &SearchParams::default(), None, None).unwrap();
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (idx, _) = build(3, 4, Metric::L2, 6);
        assert!(idx.search_with_bound(&[0.0; 3], 1, &SearchParams::default(), None, None).is_err());
        assert!(idx.search_with_range(&[0.0; 5], 1.0, &SearchParams::default(), None).is_err());
    }

    #[test]
    fn native_iterator_streams_all_rows_once() {
        let dim = 4;
        let (idx, data) = build(25, dim, Metric::L2, 7);
        let q = data[0..dim].to_vec();
        let params = SearchParams::default();
        let mut it = idx.search_iterator(&q, &params).unwrap();
        let mut seen = Vec::new();
        loop {
            let b = it.next_batch(7).unwrap();
            if b.is_empty() {
                break;
            }
            seen.extend(b);
        }
        assert_eq!(seen.len(), 25);
        assert_eq!(it.visited(), 25, "native iterator visits each row once");
        for w in seen.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_results() {
        let dim = 8;
        let (idx, data) = build(40, dim, Metric::Cosine, 8);
        let blob = idx.save_bytes().unwrap();
        let idx2 = FlatIndex::load_bytes(&blob).unwrap();
        let q = &data[0..dim];
        let a = idx.search_with_bound(q, 5, &SearchParams::default(), None, None).unwrap();
        let b = idx2.search_with_bound(q, 5, &SearchParams::default(), None, None).unwrap();
        assert_eq!(a, b);
        assert_eq!(idx2.meta().metric, Metric::Cosine);
    }

    #[test]
    fn corrupt_blob_rejected() {
        let (idx, _) = build(4, 2, Metric::L2, 9);
        let blob = idx.save_bytes().unwrap();
        assert!(FlatIndex::load_bytes(&blob[..10]).is_err());
        let mut garbled = blob.to_vec();
        garbled[0] ^= 0xFF;
        assert!(FlatIndex::load_bytes(&garbled).is_err());
    }

    #[test]
    fn inner_product_ranks_by_dot() {
        let spec = IndexSpec::new(IndexKind::Flat, 2, Metric::InnerProduct);
        let mut b = Box::new(FlatBuilder::new(&spec).unwrap());
        b.add_with_ids(&[1.0, 0.0, 10.0, 0.0, 5.0, 0.0], &[0, 1, 2]).unwrap();
        let idx = (b as Box<dyn IndexBuilder>).finish().unwrap();
        let got =
            idx.search_with_bound(&[1.0, 0.0], 3, &SearchParams::default(), None, None).unwrap();
        let ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 2, 0], "largest dot product first");
    }
}
