//! Scheduling-time segment selection with scalar and semantic pruning
//! (§II-C "Plan scheduling", §IV-B).
//!
//! Given a hybrid query's predicate and query vector, the scheduler
//!
//! 1. **scalar-prunes**: drops segments whose per-column min/max (which, for
//!    partition-key columns, pin the partition value) cannot satisfy the
//!    predicate;
//! 2. **semantic-prunes**: ranks the survivors by the distance between the
//!    query vector and each segment's centroid, scheduling only the nearest
//!    fraction and keeping the rest as an ordered **reserve** list;
//! 3. supports **adaptive runtime adjustment**: when the executor comes up
//!    short of `k` results it pulls the next reserve segments instead of
//!    failing or re-planning.

use bh_storage::predicate::Predicate;
use bh_storage::segment::SegmentMeta;
use bh_vector::distance::l2_sq;
use std::sync::Arc;

/// Pruning configuration.
#[derive(Debug, Clone, Copy)]
pub struct PruneConfig {
    /// Apply scalar min/max pruning.
    pub scalar: bool,
    /// Fraction of (scalar-surviving) segments to schedule by centroid
    /// proximity; `1.0` disables semantic pruning.
    pub semantic_fraction: f64,
    /// Schedule at least this many segments regardless of fraction.
    pub min_segments: usize,
}

impl Default for PruneConfig {
    fn default() -> Self {
        Self { scalar: true, semantic_fraction: 1.0, min_segments: 1 }
    }
}

impl PruneConfig {
    /// No pruning at all (the "random partitioning" baseline of Fig. 16).
    pub fn none() -> Self {
        Self { scalar: false, semantic_fraction: 1.0, min_segments: 1 }
    }

    /// Set the semantic scheduling fraction.
    pub fn with_semantic(mut self, fraction: f64) -> Self {
        self.semantic_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Scalar pruning only (the default).
    pub fn scalar_only() -> Self {
        Self::default()
    }
}

/// The scheduler's output: segments to run now, plus an ordered reserve for
/// adaptive expansion.
#[derive(Debug, Clone)]
pub struct SegmentSelection {
    /// Segments to execute now.
    pub scheduled: Vec<Arc<SegmentMeta>>,
    /// Next-best segments, nearest-centroid first.
    pub reserve: Vec<Arc<SegmentMeta>>,
    /// Segments eliminated by scalar pruning (for accounting).
    pub scalar_pruned: usize,
}

impl SegmentSelection {
    /// Pull up to `n` more segments from the reserve (adaptive adjustment).
    pub fn expand(&mut self, n: usize) -> Vec<Arc<SegmentMeta>> {
        let take = n.min(self.reserve.len());
        let extra: Vec<_> = self.reserve.drain(..take).collect();
        self.scheduled.extend(extra.iter().cloned());
        extra
    }

    /// True when no reserve segments remain.
    pub fn exhausted(&self) -> bool {
        self.reserve.is_empty()
    }

    /// Scheduled plus reserve segment count.
    pub fn total_candidates(&self) -> usize {
        self.scheduled.len() + self.reserve.len()
    }
}

/// Select the segments a hybrid query must visit.
pub fn select_segments(
    segments: &[Arc<SegmentMeta>],
    predicate: &Predicate,
    query_vector: Option<&[f32]>,
    cfg: &PruneConfig,
) -> SegmentSelection {
    // Scalar pruning.
    let mut survivors: Vec<Arc<SegmentMeta>> = Vec::with_capacity(segments.len());
    let mut scalar_pruned = 0;
    for meta in segments {
        if !cfg.scalar || predicate.may_match_stats(&meta.column_stats) {
            survivors.push(meta.clone());
        } else {
            scalar_pruned += 1;
        }
    }

    // Semantic ranking + cut: one centroid distance per segment, then a
    // stable sort on those keys.
    if let Some(q) = query_vector {
        let mut keyed: Vec<(f32, Arc<SegmentMeta>)> = survivors
            .into_iter()
            .map(|m| (m.centroid.as_deref().map_or(f32::INFINITY, |c| l2_sq(q, c)), m))
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        survivors = keyed.into_iter().map(|(_, m)| m).collect();
    }
    let cut = if query_vector.is_some() && cfg.semantic_fraction < 1.0 {
        ((survivors.len() as f64 * cfg.semantic_fraction).ceil() as usize)
            .clamp(cfg.min_segments.min(survivors.len()), survivors.len())
    } else {
        survivors.len()
    };
    let reserve = survivors.split_off(cut);
    SegmentSelection { scheduled: survivors, reserve, scalar_pruned }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_common::SegmentId;
    use bh_storage::column::ColumnData;
    use bh_storage::stats::ColumnStats;
    use bh_storage::value::Value;
    use std::collections::BTreeMap;

    fn meta(id: u64, label: &str, centroid: Vec<f32>) -> Arc<SegmentMeta> {
        let mut stats = BTreeMap::new();
        let st = ColumnStats::of(&ColumnData::Str(vec![label.into()])).unwrap();
        stats.insert("label".to_string(), st);
        Arc::new(SegmentMeta {
            id: SegmentId(id),
            table: "t".into(),
            row_count: 100,
            level: 0,
            partition_key: vec![Value::Str(label.into())],
            cluster_bucket: None,
            centroid: Some(centroid),
            column_stats: stats,
            index_kind: None,
            index_bytes: 0,
            index_head_bytes: 0,
        })
    }

    fn fleet() -> Vec<Arc<SegmentMeta>> {
        vec![
            meta(0, "animal", vec![0.0, 0.0]),
            meta(1, "animal", vec![10.0, 10.0]),
            meta(2, "plant", vec![0.0, 0.0]),
            meta(3, "plant", vec![20.0, 20.0]),
        ]
    }

    #[test]
    fn scalar_pruning_drops_wrong_partitions() {
        let segs = fleet();
        let p = Predicate::eq("label", Value::Str("animal".into()));
        let sel = select_segments(&segs, &p, None, &PruneConfig::default());
        assert_eq!(sel.scheduled.len(), 2);
        assert_eq!(sel.scalar_pruned, 2);
        for m in &sel.scheduled {
            assert_eq!(m.partition_key[0], Value::Str("animal".into()));
        }
    }

    #[test]
    fn no_pruning_schedules_everything() {
        let segs = fleet();
        let p = Predicate::eq("label", Value::Str("animal".into()));
        let sel = select_segments(&segs, &p, None, &PruneConfig::none());
        assert_eq!(sel.scheduled.len(), 4);
        assert_eq!(sel.scalar_pruned, 0);
    }

    #[test]
    fn semantic_pruning_schedules_nearest_centroids() {
        let segs = fleet();
        let q = vec![0.5, 0.5];
        let cfg = PruneConfig::default().with_semantic(0.5);
        let sel = select_segments(&segs, &Predicate::True, Some(&q), &cfg);
        assert_eq!(sel.scheduled.len(), 2);
        let ids: Vec<u64> = sel.scheduled.iter().map(|m| m.id.raw()).collect();
        assert!(ids.contains(&0) && ids.contains(&2), "nearest centroids win: {ids:?}");
        assert_eq!(sel.reserve.len(), 2);
        // Reserve is ordered by distance too.
        assert_eq!(sel.reserve[0].id.raw(), 1);
    }

    #[test]
    fn combined_pruning_composes() {
        let segs = fleet();
        let q = vec![0.0, 0.0];
        let p = Predicate::eq("label", Value::Str("plant".into()));
        let cfg = PruneConfig::default().with_semantic(0.5);
        let sel = select_segments(&segs, &p, Some(&q), &cfg);
        assert_eq!(sel.scalar_pruned, 2);
        assert_eq!(sel.scheduled.len(), 1);
        assert_eq!(sel.scheduled[0].id.raw(), 2);
        assert_eq!(sel.reserve.len(), 1);
    }

    #[test]
    fn adaptive_expand_pulls_from_reserve() {
        let segs = fleet();
        let q = vec![0.0, 0.0];
        let cfg = PruneConfig::default().with_semantic(0.25);
        let mut sel = select_segments(&segs, &Predicate::True, Some(&q), &cfg);
        assert_eq!(sel.scheduled.len(), 1);
        assert_eq!(sel.total_candidates(), 4);
        let extra = sel.expand(2);
        assert_eq!(extra.len(), 2);
        assert_eq!(sel.scheduled.len(), 3);
        assert!(!sel.exhausted());
        let last = sel.expand(10);
        assert_eq!(last.len(), 1);
        assert!(sel.exhausted());
        assert_eq!(sel.total_candidates(), 4);
    }

    #[test]
    fn min_segments_floor_respected() {
        let segs = fleet();
        let q = vec![0.0, 0.0];
        let cfg = PruneConfig { scalar: true, semantic_fraction: 0.01, min_segments: 2 };
        let sel = select_segments(&segs, &Predicate::True, Some(&q), &cfg);
        assert_eq!(sel.scheduled.len(), 2);
    }

    #[test]
    fn segments_without_centroid_rank_last() {
        let mut segs = fleet();
        let mut no_centroid = (*meta(9, "animal", vec![])).clone();
        no_centroid.centroid = None;
        segs.push(Arc::new(no_centroid));
        let q = vec![0.0, 0.0];
        let cfg = PruneConfig::default().with_semantic(0.8);
        let sel = select_segments(&segs, &Predicate::True, Some(&q), &cfg);
        // 5 segments, fraction 0.8 → 4 scheduled, and the centroid-less
        // segment must be the one left in the reserve tail.
        assert_eq!(sel.reserve.len(), 1);
        assert_eq!(sel.reserve.last().unwrap().id.raw(), 9);
    }

    #[test]
    fn empty_input() {
        let sel = select_segments(&[], &Predicate::True, None, &PruneConfig::default());
        assert!(sel.scheduled.is_empty());
        assert!(sel.exhausted());
    }
}
