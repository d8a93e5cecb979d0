//! Recall measurement utilities used by tests and the benchmark harness.

use crate::types::Neighbor;
use std::collections::HashSet;
#[cfg(test)]
use {crate::distance::scan_distances, crate::Metric, bh_common::Bitset};

/// `recall@k`: fraction of the true top-k ids that appear in the returned
/// top-k. `truth` is assumed exact (e.g. from an exact scan). When fewer
/// than `k` true results exist, recall is computed against what exists;
/// empty truth counts as perfect recall (nothing to find).
pub fn recall_at_k(truth: &[Neighbor], got: &[Neighbor], k: usize) -> f64 {
    let want: HashSet<u64> = truth.iter().take(k).map(|n| n.id).collect();
    if want.is_empty() {
        return 1.0;
    }
    let hits = got.iter().take(k).filter(|n| want.contains(&n.id)).count();
    hits as f64 / want.len() as f64
}

/// Mean recall@k over query batches of (truth, got) pairs.
pub fn mean_recall_at_k(pairs: &[(Vec<Neighbor>, Vec<Neighbor>)], k: usize) -> f64 {
    if pairs.is_empty() {
        return 1.0;
    }
    pairs.iter().map(|(t, g)| recall_at_k(t, g, k)).sum::<f64>() / pairs.len() as f64
}

/// The exact answer the index tests measure against: the `k` rows of the
/// row-major `data` nearest to `query` among those `filter` passes (ids are
/// row offsets), ascending. The same blocked scan the worker runs on a
/// segment's vector column.
#[cfg(test)]
pub(crate) fn exact_topk(
    metric: Metric,
    data: &[f32],
    dim: usize,
    query: &[f32],
    k: usize,
    filter: Option<&Bitset>,
) -> Vec<Neighbor> {
    let rows: Option<Vec<u32>> = filter
        .map(|f| (0..(data.len() / dim) as u32).filter(|&r| f.contains(r as usize)).collect());
    let mut tk = bh_common::TopK::new(k);
    scan_distances(metric, query, data, dim, rows.as_deref(), |row, d| {
        tk.push(d, row as u64);
    })
    .unwrap();
    crate::types::sorted_neighbors(tk)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(ids: &[u64]) -> Vec<Neighbor> {
        ids.iter().map(|&i| Neighbor::new(i, i as f32)).collect()
    }

    #[test]
    fn perfect_recall() {
        assert_eq!(recall_at_k(&nb(&[1, 2, 3]), &nb(&[3, 2, 1]), 3), 1.0);
    }

    #[test]
    fn partial_recall() {
        assert_eq!(recall_at_k(&nb(&[1, 2, 3, 4]), &nb(&[1, 2, 9, 8]), 4), 0.5);
    }

    #[test]
    fn empty_truth_is_perfect() {
        assert_eq!(recall_at_k(&[], &nb(&[1]), 5), 1.0);
    }

    #[test]
    fn truth_shorter_than_k() {
        // Only 2 true results exist; finding both = recall 1.
        assert_eq!(recall_at_k(&nb(&[7, 8]), &nb(&[8, 7, 1, 2]), 10), 1.0);
    }

    #[test]
    fn got_shorter_than_truth() {
        assert_eq!(recall_at_k(&nb(&[1, 2, 3, 4]), &nb(&[1]), 4), 0.25);
    }

    #[test]
    fn mean_over_batches() {
        let pairs = vec![
            (nb(&[1, 2]), nb(&[1, 2])),
            (nb(&[1, 2]), nb(&[1, 9])),
        ];
        assert_eq!(mean_recall_at_k(&pairs, 2), 0.75);
        assert_eq!(mean_recall_at_k(&[], 2), 1.0);
    }
}
