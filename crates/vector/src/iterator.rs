//! Incremental search iterators (§III-B "Post-filter strategy").
//!
//! The post-filter execution strategy needs "give me the *next* nearest
//! neighbors" semantics: search a batch, filter on scalar predicates, and if
//! fewer than `k` rows survive, fetch more — without re-finding rows already
//! returned.
//!
//! Two implementations exist:
//!
//! * Indexes with **native** support (our extended HNSW) resume their
//!   internal traversal state, so each additional row costs only the
//!   incremental graph expansion.
//! * Everything else uses [`GenericSearchIterator`], the SingleStore-V-style
//!   wrapper that restarts the top-k search with **doubled k** each round and
//!   returns only the rows it has not emitted yet. Correct, but each round
//!   redoes the earlier work — the redundancy the paper calls out and that
//!   our `fig13`-adjacent ablation bench quantifies.

use crate::types::{Neighbor, SearchParams, VectorIndex};
use bh_common::Result;
use std::collections::HashSet;

/// Incremental nearest-first traversal over one index.
pub trait SearchIterator {
    /// Return up to `n` further neighbors, nearest-first, never repeating a
    /// previously returned row. An empty result means the index is exhausted.
    fn next_batch(&mut self, n: usize) -> Result<Vec<Neighbor>>;

    /// Total number of candidate rows visited so far (distance computations),
    /// used for cost accounting and the iterator-redundancy ablation.
    fn visited(&self) -> usize;

    /// True once the iterator can produce no further results.
    fn exhausted(&self) -> bool;
}

/// Restart-based iterator for indexes without native incremental search.
///
/// Round `i` performs a fresh `search_with_bound(k = initial_k · 2^i)` and
/// emits only the rows no earlier round returned. An exact index returns the
/// previous round's result as a prefix of the next, so those are the suffix;
/// a quantized one (IVFPQ fast-scan) may reorder or swap rows when `k`
/// changes, and what was emitted is remembered by id so no row repeats.
pub struct GenericSearchIterator<'a> {
    index: &'a dyn VectorIndex,
    query: Vec<f32>,
    params: SearchParams,
    /// Rows already handed to `pending` by an earlier round.
    emitted: HashSet<u64>,
    /// `k` to use for the next restart.
    next_k: usize,
    visited: usize,
    exhausted: bool,
    /// Buffered rows found but not yet handed out.
    pending: Vec<Neighbor>,
}

impl<'a> GenericSearchIterator<'a> {
    /// Wrap an index's top-k search as a restartable iterator.
    pub fn new(index: &'a dyn VectorIndex, query: &[f32], params: &SearchParams) -> Self {
        Self {
            index,
            query: query.to_vec(),
            params: *params,
            emitted: HashSet::new(),
            next_k: 0,
            visited: 0,
            exhausted: false,
            pending: Vec::new(),
        }
    }
}

impl SearchIterator for GenericSearchIterator<'_> {
    fn next_batch(&mut self, n: usize) -> Result<Vec<Neighbor>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(n);
        loop {
            // Drain buffered rows first.
            while out.len() < n {
                match self.pending.pop() {
                    Some(nb) => out.push(nb),
                    None => break,
                }
            }
            if out.len() == n || self.exhausted {
                return Ok(out);
            }

            // Restart with a larger k and keep only the new suffix.
            let want = self.emitted.len() + (n - out.len());
            self.next_k = self.next_k.max(want).max(1).next_power_of_two();
            let results =
                self.index.search_with_bound(&self.query, self.next_k, &self.params, None, None)?;
            // Full restart: every returned row was "visited" again.
            self.visited += results.len().max(self.next_k.min(self.index.meta().len));
            // Buffer the new rows in reverse so pop() yields nearest-first.
            let before = self.pending.len();
            self.pending
                .extend(results.iter().rev().filter(|nb| self.emitted.insert(nb.id)).copied());
            if self.pending.len() == before {
                // No new rows even with a larger k → the index is exhausted.
                self.exhausted = true;
                return Ok(out);
            }
            if results.len() < self.next_k {
                // The index returned fewer than asked: after draining pending
                // there is nothing more to find.
                self.exhausted = true;
            }
            self.next_k = self.next_k.saturating_mul(2);
        }
    }

    fn visited(&self) -> usize {
        self.visited
    }

    fn exhausted(&self) -> bool {
        self.exhausted && self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recall::exact_topk;
    use crate::{IndexKind, Metric};

    /// A test-only exact index over row-major vectors. With `unstable` set it
    /// acts like a quantized index whose approximate order depends on `k`:
    /// whenever `k` is a power of four the three nearest rows come back last
    /// — the previous result is not a prefix of the next.
    struct Rows {
        dim: usize,
        data: Vec<f32>,
        unstable: bool,
    }

    /// `n` rows, row `i` at `i + 0.001·d` in dimension `d`.
    fn sample_index(n: usize, dim: usize) -> Rows {
        let data = (0..n * dim).map(|j| (j / dim) as f32 + (j % dim) as f32 * 0.001).collect();
        Rows { dim, data, unstable: false }
    }

    impl VectorIndex for Rows {
        fn meta(&self) -> crate::IndexMeta {
            let len = self.data.len() / self.dim;
            crate::IndexMeta { kind: IndexKind::Flat, dim: self.dim, metric: Metric::L2, len }
        }
        fn search_with_bound(
            &self,
            query: &[f32],
            k: usize,
            _params: &SearchParams,
            filter: Option<&bh_common::Bitset>,
            _bound: Option<&bh_common::SharedBound>,
        ) -> Result<Vec<Neighbor>> {
            let mut hits = exact_topk(Metric::L2, &self.data, self.dim, query, k, filter);
            if self.unstable && k.trailing_zeros() & 1 == 0 {
                let by = 3.min(hits.len());
                hits.rotate_left(by);
            }
            Ok(hits)
        }
        fn search_iterator<'a>(
            &'a self,
            query: &[f32],
            params: &SearchParams,
        ) -> Result<Box<dyn SearchIterator + 'a>> {
            Ok(Box::new(GenericSearchIterator::new(self, query, params)))
        }
        fn memory_usage(&self) -> usize {
            self.data.len() * 4
        }
        fn save_bytes(&self) -> Result<bytes::Bytes> {
            Ok(bytes::Bytes::new())
        }
    }

    #[test]
    fn generic_iterator_streams_in_distance_order_without_repeats() {
        let idx = sample_index(20, 4);
        let q = vec![0.0; 4];
        let params = SearchParams::default();
        let mut it = GenericSearchIterator::new(&idx, &q, &params);
        let mut seen = Vec::new();
        loop {
            let batch = it.next_batch(3).unwrap();
            if batch.is_empty() {
                break;
            }
            seen.extend(batch);
        }
        assert_eq!(seen.len(), 20, "must eventually return every row");
        let ids: Vec<u64> = seen.iter().map(|nb| nb.id).collect();
        let mut expected: Vec<u64> = (0..20).collect();
        assert_eq!(
            {
                let mut s = ids.clone();
                s.sort_unstable();
                s
            },
            expected.clone()
        );
        // Distances must be non-decreasing.
        for w in seen.windows(2) {
            assert!(w[0].distance <= w[1].distance + 1e-6);
        }
        expected.sort_unstable();
        assert!(it.exhausted());
        // Further calls stay empty.
        assert!(it.next_batch(5).unwrap().is_empty());
    }

    #[test]
    fn generic_iterator_never_repeats_a_row_when_restarts_reorder_the_prefix() {
        let idx = Rows { unstable: true, ..sample_index(40, 4) };
        let q = vec![0.0; 4];
        let mut it = idx.search_iterator(&q, &SearchParams::default()).unwrap();
        let mut ids = Vec::new();
        while !it.exhausted() {
            ids.extend(it.next_batch(3).unwrap().iter().map(|nb| nb.id));
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "a row was emitted twice: {ids:?}");
        assert_eq!(sorted, (0..40).collect::<Vec<u64>>(), "every row is eventually emitted");
    }

    #[test]
    fn generic_iterator_counts_redundant_visits() {
        let idx = sample_index(64, 4);
        let q = vec![0.0; 4];
        let params = SearchParams::default();
        let mut it = GenericSearchIterator::new(&idx, &q, &params);
        let mut total = 0;
        while !it.exhausted() {
            total += it.next_batch(4).unwrap().len();
        }
        assert_eq!(total, 64);
        // Restart redundancy: visited strictly exceeds rows returned.
        assert!(
            it.visited() > 64,
            "expected redundant visits, got {} for 64 rows",
            it.visited()
        );
    }

    #[test]
    fn zero_batch_is_noop() {
        let idx = sample_index(5, 2);
        let q = vec![0.0; 2];
        let params = SearchParams::default();
        let mut it = GenericSearchIterator::new(&idx, &q, &params);
        assert!(it.next_batch(0).unwrap().is_empty());
        assert_eq!(it.visited(), 0);
    }

    #[test]
    fn empty_index_exhausts_immediately() {
        let idx = sample_index(0, 2);
        let q = vec![0.0; 2];
        let params = SearchParams::default();
        let mut it = GenericSearchIterator::new(&idx, &q, &params);
        assert!(it.next_batch(3).unwrap().is_empty());
        assert!(it.exhausted());
    }
}
