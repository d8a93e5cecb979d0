//! Automatic index parameter selection (§III-B "Auto index", Fig. 7).
//!
//! BlendHouse's per-segment index design means index sizes vary wildly across
//! LSM levels, and IVF search cost is sharply sensitive to the clustering
//! fan-out `K_IVF`: probing cost grows with `K` (centroid scan) while in-cell
//! scan cost grows with `n / K`. The rule-based selector below balances the
//! two, mirroring the faiss guidelines the paper cites; the compaction path
//! additionally refines the choice with a measured cost model
//! ([`select_kivf_modeled`]), standing in for the auto-tuning tools.

use crate::types::{IndexKind, IndexSpec};

/// The most cells an IVF index has: `auto_nlist`'s clamp, Fig. 7's largest
/// `K_IVF`, and the largest `NLIST` a spec may ask for.
pub const MAX_NLIST: usize = 65_536;

/// Rule-based `nlist` selection used at ingest time: `√n`, clamped so tiny
/// segments still get a few cells and huge ones don't over-fragment. (The
/// faiss guideline range is `√n`–`16·√n`; the low end keeps the coarse
/// quantizer a small part of a build. What a build costs is measured, not
/// implied by this rule: on a 512-row, dim-64 segment the end-to-end
/// benchmark's `vector.build_us_per_row` is ≈ 7 µs for IVFPQFS against
/// 45–55 µs for HNSW — IVF is the cheap-build option of Table V — but it
/// was 25 µs until PQ sub-quantizer training, nine tenths of it, moved onto
/// the column kernels of DESIGN.md §10.5.)
pub fn auto_nlist(n: usize) -> usize {
    let k = (n.max(1) as f64).sqrt().round() as usize;
    k.clamp(4, MAX_NLIST).min(n.max(1))
}

/// Simple analytic IVF search-cost model: probing scans all `k` centroids
/// plus `nprobe` cells of expected size `n / k`.
/// `centroid_cost` and `code_cost` are relative per-item costs (centroid
/// distances are full-dimension float ops; in-cell scans may be ADC lookups).
pub fn ivf_search_cost(n: usize, k: usize, nprobe: usize, centroid_cost: f64, code_cost: f64) -> f64 {
    let k = k.max(1) as f64;
    let cells = (n as f64 / k).max(1.0);
    k * centroid_cost + nprobe as f64 * cells * code_cost
}

/// Pick the best `K_IVF` among `choices` under the analytic model — the
/// compaction-time refinement. Fig. 7's crossovers fall out of this model:
/// small `N` favours small `K`, large `N` favours large `K`.
pub fn select_kivf_modeled(n: usize, nprobe: usize, choices: &[usize]) -> usize {
    choices
        .iter()
        .copied()
        .min_by(|&a, &b| {
            ivf_search_cost(n, a, nprobe, 1.0, 1.0)
                .total_cmp(&ivf_search_cost(n, b, nprobe, 1.0, 1.0))
        })
        .unwrap_or_else(|| auto_nlist(n))
}

/// The paper's Fig. 7 choice set, scaled to its production segment sizes.
pub const PAPER_KIVF_CHOICES: [usize; 3] = [4_096, 16_384, 65_536];

/// Apply auto-selection to a spec: fills `nlist` for IVF indexes when the
/// user did not specify one. Non-IVF specs pass through untouched.
pub fn apply_auto_index(spec: &IndexSpec, segment_rows: usize) -> IndexSpec {
    match spec.kind {
        IndexKind::IvfFlat | IndexKind::IvfPq | IndexKind::IvfPqFs => {
            if spec.params.contains_key("nlist") {
                spec.clone()
            } else {
                spec.clone().with_param("nlist", auto_nlist(segment_rows))
            }
        }
        _ => spec.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;

    #[test]
    fn auto_nlist_grows_with_sqrt_n() {
        assert!(auto_nlist(100) < auto_nlist(10_000));
        assert!(auto_nlist(10_000) < auto_nlist(1_000_000));
        // √10000 = 100
        assert_eq!(auto_nlist(10_000), 100);
    }

    #[test]
    fn auto_nlist_clamps() {
        assert_eq!(auto_nlist(0), 1);
        assert_eq!(auto_nlist(2), 2); // never more cells than points
        assert!(auto_nlist(usize::MAX / 2) <= 65_536);
    }

    #[test]
    fn modeled_choice_crosses_over_with_n() {
        // Small segment → small K; huge segment → large K (Fig. 7 shape).
        let small = select_kivf_modeled(50_000, 8, &PAPER_KIVF_CHOICES);
        let large = select_kivf_modeled(500_000_000, 8, &PAPER_KIVF_CHOICES);
        assert_eq!(small, 4_096);
        assert_eq!(large, 65_536);
        assert!(small < large);
    }

    #[test]
    fn cost_model_monotone_in_parts() {
        // More probes cost more; more centroids cost more at fixed n per cell.
        let a = ivf_search_cost(1_000_000, 4096, 4, 1.0, 1.0);
        let b = ivf_search_cost(1_000_000, 4096, 8, 1.0, 1.0);
        assert!(b > a);
    }

    #[test]
    fn apply_auto_fills_only_missing_nlist() {
        let spec = IndexSpec::new(IndexKind::IvfFlat, 8, Metric::L2);
        let auto = apply_auto_index(&spec, 10_000);
        assert_eq!(auto.param_usize("nlist", 0).unwrap(), 100);

        let explicit = spec.clone().with_param("nlist", 7);
        let kept = apply_auto_index(&explicit, 10_000);
        assert_eq!(kept.param_usize("nlist", 0).unwrap(), 7);

        let hnsw = IndexSpec::new(IndexKind::Hnsw, 8, Metric::L2);
        let untouched = apply_auto_index(&hnsw, 10_000);
        assert!(!untouched.params.contains_key("nlist"));
    }
}
