//! # bh-vector — the pluggable vector index library
//!
//! A from-scratch Rust implementation of the index algorithms BlendHouse
//! consumes from hnswlib / faiss, exposed behind the paper's
//! "virtual vector index" abstraction (Fig. 5):
//!
//! * **Execution-layer interfaces**: [`VectorIndex::search_with_bound`]
//!   (`SearchWithFilter`), [`VectorIndex::search_with_range`], and
//!   [`VectorIndex::search_iterator`].
//! * **Storage-layer interfaces**: `CreateIndex` ([`registry::IndexRegistry::create_builder`]),
//!   `Train` / `AddWithIds` ([`IndexBuilder`]), and `SaveIndex` / `LoadIndex`
//!   ([`VectorIndex::save_bytes`] / [`registry::IndexRegistry::load_blob`]).
//!
//! ## Index types
//!
//! | Kind | Group | Backing module |
//! |------|-------|----------------|
//! | `FLAT` | none: the exact scan of the column | — |
//! | `HNSW` | graph | [`hnsw`] |
//! | `HNSWSQ` | graph + scalar quantization | [`hnsw`] over [`quant::sq`] |
//! | `IVFFLAT` | inverted file | [`ivf`] |
//! | `IVFPQ` | inverted file + product quantization | [`ivf`] over [`quant::pq`] |
//! | `IVFPQFS` | inverted file + 4-bit PQ (fast-scan layout) | [`ivf`] |
//!
//! Quantized indexes return *approximate* distances; the query executor
//! optionally refines the top `σ·k` candidates with exact distances fetched
//! from the vector column (the `σ × k × c_d` term of the paper's cost model).
//!
//! ## Pluggability
//!
//! BlendHouse instantiates indexes only through [`registry::IndexRegistry`],
//! whose `create_builder` and `load_blob` are each one `match` on the kind.
//! A new library is one arm in each plus a [`VectorIndex`] / [`IndexBuilder`]
//! impl, and no engine layer changes — the extensibility claim of §III-A.

pub mod autoindex;
pub mod codec;
pub mod distance;
pub mod hnsw;
pub mod iterator;
pub mod ivf;
pub mod kmeans;
pub mod quant;
pub mod recall;
pub mod registry;
pub mod types;

pub use distance::Metric;
pub use iterator::{GenericSearchIterator, SearchIterator};
pub use registry::IndexRegistry;
pub use types::{
    build_pool, BoundedTopK, GraphScan, IndexBuilder, IndexGroup, IndexKind, IndexMeta, IndexSpec,
    Neighbor, SearchParams, VectorIndex,
};

/// `TYPE FLAT` has no library: its index is the vector column, searched by
/// [`distance::scan_distances`] (the worker's Plan A and cache-miss scan).
/// These tests hold that scan to the exact-search contract a FLAT table
/// promises; the table-level contract is `tests/it_end_to_end.rs`
/// `flat_table_is_searched_exactly_from_its_column`.
#[cfg(test)]
mod flat {
    #[cfg(test)]
    mod tests {
        use crate::distance::scan_distances;
        use crate::recall::exact_topk;
        use crate::Metric;
        use bh_common::rng::rng;
        use bh_common::Bitset;
        use rand::Rng;

        fn column(n: usize, dim: usize, seed: u64) -> Vec<f32> {
            let mut r = rng(seed);
            (0..n * dim).map(|_| r.gen::<f32>() * 2.0 - 1.0).collect()
        }

        #[test]
        fn topk_matches_manual_sort() {
            let dim = 8;
            let data = column(100, dim, 1);
            let q = &data[0..dim];
            let got = exact_topk(Metric::L2, &data, dim, q, 5, None);
            assert_eq!(got.len(), 5);
            assert_eq!(got[0].id, 0, "nearest to itself");
            assert_eq!(got[0].distance, 0.0);
            for w in got.windows(2) {
                assert!(w[0].distance <= w[1].distance);
            }
            let mut manual: Vec<(f32, u64)> = data
                .chunks(dim)
                .enumerate()
                .map(|(row, v)| (Metric::L2.distance(q, v), row as u64))
                .collect();
            manual.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let want: Vec<u64> = manual[..5].iter().map(|&(_, id)| id).collect();
            assert_eq!(got.iter().map(|n| n.id).collect::<Vec<_>>(), want);
        }

        #[test]
        fn filter_restricts_results() {
            let dim = 4;
            let data = column(50, dim, 2);
            let allowed = Bitset::from_positions(50, [10, 20, 30]);
            let got = exact_topk(Metric::L2, &data, dim, &data[0..dim], 10, Some(&allowed));
            assert_eq!(got.len(), 3);
            for nb in &got {
                assert!([10, 20, 30].contains(&nb.id));
            }
        }

        #[test]
        fn empty_filter_returns_nothing() {
            let dim = 4;
            let data = column(10, dim, 3);
            let empty = Bitset::new(10);
            assert!(exact_topk(Metric::L2, &data, dim, &data[0..dim], 5, Some(&empty)).is_empty());
        }

        #[test]
        fn range_search_returns_exactly_within_radius() {
            let dim = 2;
            let data = column(200, dim, 4);
            let q = &data[0..dim];
            let radius = 0.3;
            let mut got = Vec::new();
            scan_distances(Metric::L2, q, &data, dim, None, |row, d| {
                if d <= radius {
                    got.push(row);
                }
            })
            .unwrap();
            let expect: Vec<usize> = (0..200)
                .filter(|&row| Metric::L2.distance(q, &data[row * dim..(row + 1) * dim]) <= radius)
                .collect();
            assert!(!expect.is_empty());
            assert_eq!(got, expect);
        }

        #[test]
        fn k_larger_than_n() {
            let data = column(3, 4, 5);
            assert_eq!(exact_topk(Metric::L2, &data, 4, &data[0..4], 100, None).len(), 3);
        }

        #[test]
        fn dimension_mismatch_rejected() {
            let data = column(3, 4, 6);
            assert!(scan_distances(Metric::L2, &[0.0; 3], &data, 4, None, |_, _| {}).is_err());
            let rows = [0, 2];
            assert!(
                scan_distances(Metric::L2, &[0.0; 5], &data, 4, Some(&rows), |_, _| {}).is_err()
            );
        }

        #[test]
        fn inner_product_ranks_by_dot() {
            let data = [1.0, 0.0, 10.0, 0.0, 5.0, 0.0];
            let got = exact_topk(Metric::InnerProduct, &data, 2, &[1.0, 0.0], 3, None);
            let ids: Vec<u64> = got.iter().map(|n| n.id).collect();
            assert_eq!(ids, vec![1, 2, 0], "largest dot product first");
        }
    }
}
