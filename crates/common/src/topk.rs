//! Bounded top-k collector.
//!
//! Every search path in BlendHouse — brute-force distance scan, HNSW beam
//! search, IVF probe, partial top-k pushdown, and the final global merge —
//! needs "keep the k smallest (distance, id) pairs seen so far". This module
//! provides a max-heap-based collector whose `threshold()` doubles as the
//! pruning bound for index traversal.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scored candidate. Ordering is by distance **descending** so the
/// `BinaryHeap` acts as a max-heap and `peek` exposes the current worst
/// retained candidate. Ties break on id for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored<T> {
    /// Distance of the candidate (smaller = better).
    pub distance: f32,
    /// The candidate payload.
    pub item: T,
}

impl<T: PartialEq> Eq for Scored<T> {}

impl<T: PartialEq> PartialOrd for Scored<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: PartialEq> Ord for Scored<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp makes NaN sort greatest, i.e. NaN distances are evicted
        // first, which is the safe behaviour for corrupt data.
        self.distance.total_cmp(&other.distance)
    }
}

/// Collects the `k` items with smallest distance.
#[derive(Debug, Clone)]
pub struct TopK<T> {
    k: usize,
    heap: BinaryHeap<Scored<T>>,
}

/// Largest up-front reservation a collector makes. `k` comes straight from
/// a statement's `LIMIT`, so it is outside input: a larger `k` still
/// collects, its heap grows as rows actually arrive.
const MAX_RESERVED_ROWS: usize = 4096;

impl<T: PartialEq + Clone> TopK<T> {
    /// Create a collector retaining the `k` smallest-distance items.
    /// `k == 0` is allowed and collects nothing.
    pub fn new(k: usize) -> Self {
        Self { k, heap: BinaryHeap::with_capacity(k.saturating_add(1).min(MAX_RESERVED_ROWS)) }
    }

    /// Offer a candidate; returns `true` if it was retained.
    #[inline]
    pub fn push(&mut self, distance: f32, item: T) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(Scored { distance, item });
            return true;
        }
        // Full: replace the current worst if strictly better.
        let worst = self.heap.peek().expect("non-empty").distance;
        if distance.total_cmp(&worst) == Ordering::Less {
            self.heap.pop();
            self.heap.push(Scored { distance, item });
            true
        } else {
            false
        }
    }

    /// Current number of retained items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True once `k` items are retained.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The largest retained distance — the pruning bound. `f32::INFINITY`
    /// until the collector is full, so early candidates always pass.
    #[inline]
    pub fn threshold(&self) -> f32 {
        if self.is_full() {
            self.heap.peek().map(|s| s.distance).unwrap_or(f32::INFINITY)
        } else {
            f32::INFINITY
        }
    }

    /// Consume and return results sorted ascending by distance.
    pub fn into_sorted(self) -> Vec<Scored<T>> {
        let mut v = self.heap.into_vec();
        v.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        v
    }

    /// Merge another collector into this one (used for the global top-k merge
    /// of per-worker partial results).
    pub fn merge(&mut self, other: TopK<T>) {
        for s in other.heap {
            self.push(s.distance, s.item);
        }
    }
}

/// Convenience: exact top-k over an iterator of `(distance, item)` pairs.
pub fn top_k_of<T: PartialEq + Clone>(
    k: usize,
    items: impl IntoIterator<Item = (f32, T)>,
) -> Vec<Scored<T>> {
    let mut tk = TopK::new(k);
    for (d, it) in items {
        tk.push(d, it);
    }
    tk.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_k_smallest_sorted() {
        let got = top_k_of(3, [(5.0, 'a'), (1.0, 'b'), (4.0, 'c'), (2.0, 'd'), (3.0, 'e')]);
        let ids: Vec<char> = got.iter().map(|s| s.item).collect();
        assert_eq!(ids, vec!['b', 'd', 'e']);
    }

    #[test]
    fn k_zero_collects_nothing() {
        let mut tk = TopK::new(0);
        assert!(!tk.push(1.0, 1u32));
        assert!(tk.is_empty());
        assert_eq!(tk.threshold(), f32::INFINITY);
    }

    #[test]
    fn fewer_items_than_k() {
        let got = top_k_of(10, [(2.0, 1u32), (1.0, 2u32)]);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].item, 2);
    }

    #[test]
    fn threshold_tracks_worst_retained() {
        let mut tk = TopK::new(2);
        assert_eq!(tk.threshold(), f32::INFINITY);
        tk.push(5.0, 0u32);
        assert_eq!(tk.threshold(), f32::INFINITY); // not full yet
        tk.push(3.0, 1u32);
        assert_eq!(tk.threshold(), 5.0);
        tk.push(1.0, 2u32);
        assert_eq!(tk.threshold(), 3.0);
        assert!(!tk.push(4.0, 3u32)); // 4.0 >= threshold 3.0 → rejected
    }

    #[test]
    fn nan_is_evicted_first() {
        let got = top_k_of(2, [(f32::NAN, 0u32), (1.0, 1u32), (2.0, 2u32)]);
        let ids: Vec<u32> = got.iter().map(|s| s.item).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = TopK::new(3);
        let mut b = TopK::new(3);
        for (i, d) in [9.0, 2.0, 7.0].iter().enumerate() {
            a.push(*d, i as u32);
        }
        for (i, d) in [1.0, 8.0, 3.0].iter().enumerate() {
            b.push(*d, 10 + i as u32);
        }
        a.merge(b);
        let ids: Vec<u32> = a.into_sorted().iter().map(|s| s.item).collect();
        assert_eq!(ids, vec![10, 1, 12]);
    }

    /// Full case count natively; a handful under Miri (each case costs
    /// seconds there) and no failure-persistence file I/O.
    fn config() -> ProptestConfig {
        if cfg!(miri) {
            ProptestConfig { cases: 8, failure_persistence: None, ..ProptestConfig::default() }
        } else {
            ProptestConfig::default()
        }
    }

    #[test]
    fn hostile_k_reserves_only_what_can_be_filled() {
        let mut tk = TopK::<u64>::new(usize::MAX);
        for i in 0..10u64 {
            assert!(tk.push(10.0 - i as f32, i));
        }
        assert!(!tk.is_full());
        assert_eq!(tk.threshold(), f32::INFINITY);
        let ids: Vec<u64> = tk.into_sorted().into_iter().map(|s| s.item).collect();
        assert_eq!(ids, (0..10).rev().collect::<Vec<u64>>());
    }

    proptest! {
        #![proptest_config(config())]

        #[test]
        fn prop_matches_sort_oracle(
            k in 0usize..20,
            dists in proptest::collection::vec(0.0f32..1000.0, 0..200),
        ) {
            let items: Vec<(f32, usize)> = dists.iter().copied().zip(0..).collect();
            let got = top_k_of(k, items.clone());
            let mut oracle = items;
            oracle.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            oracle.truncate(k);
            // Distances must match exactly; ids may differ on ties.
            let got_d: Vec<f32> = got.iter().map(|s| s.distance).collect();
            let ora_d: Vec<f32> = oracle.iter().map(|p| p.0).collect();
            prop_assert_eq!(got_d, ora_d);
        }

        #[test]
        fn prop_merge_equals_union(
            k in 1usize..10,
            a in proptest::collection::vec(0.0f32..100.0, 0..50),
            b in proptest::collection::vec(0.0f32..100.0, 0..50),
        ) {
            let mut ta = TopK::new(k);
            for (i, d) in a.iter().enumerate() { ta.push(*d, i); }
            let mut tb = TopK::new(k);
            for (i, d) in b.iter().enumerate() { tb.push(*d, 1000 + i); }
            ta.merge(tb);
            let merged: Vec<f32> = ta.into_sorted().iter().map(|s| s.distance).collect();

            let all: Vec<(f32, usize)> = a.iter().copied().zip(0..)
                .chain(b.iter().copied().zip(1000..)).collect();
            let oracle: Vec<f32> = top_k_of(k, all).iter().map(|s| s.distance).collect();
            prop_assert_eq!(merged, oracle);
        }
    }
}
