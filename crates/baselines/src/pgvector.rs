//! `PgvectorSim` — a generalized single-node stand-in.
//!
//! Behavioural model:
//!
//! * **One monolithic index** over the whole table (pgvector builds a single
//!   HNSW per column). `finalize` builds it in one pass — and because HNSW
//!   insertion cost grows with graph size, one index of `n` rows costs more
//!   than many segment indexes of `n/k` rows, reproducing pgvector's slowest
//!   Table IV load time.
//! * **Post-filter only, no iteration**: a filtered query runs one index
//!   scan with `ef_search` candidates, then applies the WHERE predicate to
//!   whatever came back. When the filter rejects most candidates the result
//!   has fewer than `k` rows — the `<10%` recall collapse Fig. 9 reports at
//!   tiny pass fractions. (pgvector 0.8's iterative scans post-date the
//!   paper's 0.7.4.)
//! * **No cost-based optimization** and no brute-force fallback rule.

use crate::collection::{SimCollection, SimFilter};
use crate::BaselineSystem;
use bh_common::{BhError, Result};
use bh_vector::{IndexKind, IndexRegistry, IndexSpec, Metric, Neighbor, SearchParams, VectorIndex};
use std::sync::Arc;

/// Configuration for the simulator.
#[derive(Debug, Clone)]
pub struct PgvectorConfig {
    /// Distance metric.
    pub metric: Metric,
    /// HNSW M parameter.
    pub m: usize,
    /// HNSW build beam width.
    pub ef_construction: usize,
    /// Per-query entry overhead: the libpq round trip plus PostgreSQL
    /// parse/plan/executor entry every statement pays. BlendHouse is
    /// measured through its own full in-process SQL engine; this constant
    /// keeps the comparison apples-to-apples (documented in EXPERIMENTS.md).
    pub per_query_overhead: std::time::Duration,
}

impl Default for PgvectorConfig {
    fn default() -> Self {
        Self {
            metric: Metric::L2,
            m: 16,
            ef_construction: 128,
            per_query_overhead: std::time::Duration::from_micros(250),
        }
    }
}

/// The pgvector-like system.
pub struct PgvectorSim {
    cfg: PgvectorConfig,
    dim: usize,
    heap: SimCollection,
    index: Option<Arc<dyn VectorIndex>>,
}

impl PgvectorSim {
    /// A table of the given dimensionality under `cfg`.
    pub fn new(dim: usize, cfg: PgvectorConfig) -> Self {
        Self {
            cfg,
            dim,
            heap: SimCollection::new(dim),
            index: None,
        }
    }

    /// A table with default configuration.
    pub fn with_defaults(dim: usize) -> Self {
        Self::new(dim, PgvectorConfig::default())
    }

    /// Has `CREATE INDEX` (finalize) run since the last write?
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }
}

impl BaselineSystem for PgvectorSim {
    fn name(&self) -> &'static str {
        "PgvectorSim"
    }

    fn ingest(&mut self, vectors: &[f32], ids: &[u64], attrs: &[(&str, &[f64])]) -> Result<()> {
        if vectors.len() != ids.len() * self.dim {
            return Err(BhError::DimensionMismatch {
                expected: ids.len() * self.dim,
                got: vectors.len(),
            });
        }
        // Heap writes only; CREATE INDEX happens in finalize.
        self.heap.append(vectors, ids, attrs)?;
        self.index = None; // table changed; the one index is stale
        Ok(())
    }

    fn finalize(&mut self) -> Result<()> {
        if self.heap.is_empty() {
            return Ok(());
        }
        // One monolithic build over the entire heap.
        let spec = IndexSpec::new(IndexKind::Hnsw, self.dim, self.cfg.metric)
            .with_param("m", self.cfg.m)
            .with_param("ef_construction", self.cfg.ef_construction);
        let mut b = IndexRegistry.create_builder(&spec)?;
        // pgvector labels index entries with heap row offsets — and since the
        // heap is one big table, offsets coincide with our row numbers.
        let offsets: Vec<u64> = (0..self.heap.len() as u64).collect();
        b.add_with_ids(&self.heap.vectors, &offsets)?;
        self.index = Some(b.finish()?);
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
        let Some(index) = &self.index else {
            // Sequential scan (no index built) — exact but slow.
            let mut tk = bh_common::TopK::new(k);
            for row in 0..self.heap.len() {
                if filter.map(|f| !f.matches(&self.heap.attrs, row)).unwrap_or(false) {
                    continue;
                }
                tk.push(self.cfg.metric.distance(query, self.heap.vector(row)), row as u64);
            }
            return Ok(tk
                .into_sorted()
                .into_iter()
                .map(|s| Neighbor::new(self.heap.ids[s.item as usize], s.distance))
                .collect());
        };
        // Post-filter, single shot: fetch ef_search candidates (unfiltered),
        // then apply the predicate. No retry with larger ef — results may
        // come up short (the recall-collapse behaviour).
        let fetch = params.ef_search.max(k);
        let candidates = index.search_with_bound(query, fetch, params, None, None)?;
        let mut out = Vec::with_capacity(k);
        for nb in candidates {
            let row = nb.id as usize;
            if filter.map(|f| f.matches(&self.heap.attrs, row)).unwrap_or(true) {
                out.push(Neighbor::new(self.heap.ids[row], nb.distance));
                if out.len() == k {
                    break;
                }
            }
        }
        Ok(out)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_common::rng::rng;
    use rand::Rng;

    fn load(n: usize, dim: usize) -> PgvectorSim {
        let mut sys = PgvectorSim::with_defaults(dim);
        let mut r = rng(9);
        let vectors: Vec<f32> = (0..n * dim)
            .map(|i| ((i / dim) % 4) as f32 * 10.0 + r.gen::<f32>() - 0.5)
            .collect();
        let ids: Vec<u64> = (0..n as u64).map(|i| i + 1000).collect(); // ids ≠ offsets
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        sys.ingest(&vectors, &ids, &[("x", &xs)]).unwrap();
        sys.finalize().unwrap();
        sys
    }

    #[test]
    fn unfiltered_search_works() {
        let sys = load(600, 4);
        let got = sys.search(&[0.0; 4], 10, &SearchParams::default(), None).unwrap();
        assert_eq!(got.len(), 10);
        for nb in &got {
            assert_eq!((nb.id - 1000) % 4, 0);
        }
    }

    #[test]
    fn recall_collapses_under_selective_filters() {
        let sys = load(2000, 4);
        // Only rows 0..20 of 2000 pass (1%): a single ef=40 scan finds at
        // most a handful of them.
        let f = SimFilter::range("x", 0.0, 19.0);
        let got = sys
            .search(&[0.0; 4], 20, &SearchParams::default().with_ef(40), Some(&f))
            .unwrap();
        assert!(
            got.len() < 20,
            "post-filter without iteration should come up short, got {}",
            got.len()
        );
        // Larger ef recovers more — the knob-vs-architecture trade-off.
        let more = sys
            .search(&[0.0; 4], 20, &SearchParams::default().with_ef(2000), Some(&f))
            .unwrap();
        assert!(more.len() > got.len());
    }

    #[test]
    fn ids_map_through_heap_offsets() {
        let sys = load(100, 4);
        let got = sys.search(&[0.0; 4], 1, &SearchParams::default(), None).unwrap();
        assert!(got[0].id >= 1000, "must return user ids, not offsets");
    }

    #[test]
    fn search_without_index_is_sequential_but_exact() {
        let mut sys = PgvectorSim::with_defaults(2);
        let xs: Vec<f64> = vec![0.0, 1.0, 2.0];
        sys.ingest(&[0.0, 0.0, 5.0, 5.0, 9.0, 9.0], &[10, 11, 12], &[("x", &xs)]).unwrap();
        assert!(!sys.has_index());
        let got = sys.search(&[4.9, 4.9], 1, &SearchParams::default(), None).unwrap();
        assert_eq!(got[0].id, 11);
    }

    #[test]
    fn ingest_invalidates_index() {
        let mut sys = load(100, 4);
        assert!(sys.has_index());
        let xs = [0.0f64];
        sys.ingest(&[0.0; 4], &[9999], &[("x", &xs[..])]).unwrap();
        assert!(!sys.has_index(), "new rows invalidate the monolithic index");
        sys.finalize().unwrap();
        assert!(sys.has_index());
    }
}
