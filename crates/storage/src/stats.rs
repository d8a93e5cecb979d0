//! Data statistics for pruning and selectivity estimation.
//!
//! Two granularities:
//!
//! * **Per-segment min/max** ([`ColumnStats`]) — drives segment pruning at
//!   scheduling time (§IV-B scalar partition pruning and zone-map style
//!   skipping).
//! * **Table-level sketches** ([`TableSketch`]) — equi-width histograms for
//!   numeric columns and a capped distinct-value counter for strings, giving
//!   the cost-based optimizer its `s` (predicate selectivity) estimate
//!   (Table II, Poosala-style histograms).

use crate::column::ColumnData;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Min/max of one column within one segment (part of the segment's meta
/// blob). Vector columns carry no stats.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Smallest observed value.
    pub min: Option<Value>,
    /// Largest observed value.
    pub max: Option<Value>,
    /// Observed (non-null, scalar) value count.
    pub rows: usize,
}

impl ColumnStats {
    /// Min / max / count of one column: the first smallest and the first
    /// largest cell by [`ColumnData::cmp_rows`]. `None` for a vector column
    /// or one with no rows.
    pub fn of(col: &ColumnData) -> Option<ColumnStats> {
        if col.ty().is_vector() || col.is_empty() {
            return None;
        }
        let (mut lo, mut hi) = (0, 0);
        for i in 1..col.len() {
            if col.cmp_rows(i, lo).is_lt() {
                lo = i;
            }
            if col.cmp_rows(i, hi).is_gt() {
                hi = i;
            }
        }
        Some(ColumnStats { min: Some(col.get(lo)), max: Some(col.get(hi)), rows: col.len() })
    }

    /// Could any value in `[min, max]` fall inside `[lo, hi]`? `None` bounds
    /// are unbounded. Unknown stats conservatively answer `true`.
    pub fn range_may_overlap(&self, lo: Option<&Value>, hi: Option<&Value>) -> bool {
        let (Some(min), Some(max)) = (&self.min, &self.max) else { return true };
        if let Some(lo) = lo {
            if max.partial_cmp_scalar(lo) == Some(std::cmp::Ordering::Less) {
                return false;
            }
        }
        if let Some(hi) = hi {
            if min.partial_cmp_scalar(hi) == Some(std::cmp::Ordering::Greater) {
                return false;
            }
        }
        true
    }

    /// Could the segment contain `v` exactly?
    pub fn may_contain(&self, v: &Value) -> bool {
        self.range_may_overlap(Some(v), Some(v))
    }
}

/// Equi-width histogram over a numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericHistogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    total: u64,
}

impl NumericHistogram {
    /// Default bucket count used by the table sketch.
    pub const DEFAULT_BUCKETS: usize = 64;

    /// Build from raw values. Degenerate inputs (empty, constant) are
    /// handled with a single-bucket histogram.
    pub fn build(values: impl IntoIterator<Item = f64>, n_buckets: usize) -> NumericHistogram {
        let vals: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        if vals.is_empty() {
            return NumericHistogram { lo: 0.0, hi: 0.0, buckets: vec![0], total: 0 };
        }
        let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if lo == hi {
            return NumericHistogram {
                lo,
                hi,
                buckets: vec![vals.len() as u64],
                total: vals.len() as u64,
            };
        }
        let nb = n_buckets.max(1);
        let mut buckets = vec![0u64; nb];
        let width = (hi - lo) / nb as f64;
        for v in &vals {
            let idx = (((v - lo) / width) as usize).min(nb - 1);
            buckets[idx] += 1;
        }
        NumericHistogram { lo, hi, buckets, total: vals.len() as u64 }
    }

    /// Number of values the histogram was built over.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Estimated fraction of rows with value in `[lo, hi]` (unbounded sides
    /// as `None`), with linear interpolation inside partially covered
    /// buckets.
    pub fn selectivity_range(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q_lo = lo.unwrap_or(f64::NEG_INFINITY);
        let q_hi = hi.unwrap_or(f64::INFINITY);
        if q_lo > q_hi {
            return 0.0;
        }
        if self.lo == self.hi {
            return if q_lo <= self.lo && self.lo <= q_hi { 1.0 } else { 0.0 };
        }
        let nb = self.buckets.len();
        let width = (self.hi - self.lo) / nb as f64;
        let mut count = 0.0;
        for (i, &b) in self.buckets.iter().enumerate() {
            let b_lo = self.lo + i as f64 * width;
            let b_hi = b_lo + width;
            let o_lo = q_lo.max(b_lo);
            let o_hi = q_hi.min(b_hi);
            if o_hi > o_lo {
                count += b as f64 * ((o_hi - o_lo) / width).min(1.0);
            }
        }
        (count / self.total as f64).clamp(0.0, 1.0)
    }

    /// Point-equality selectivity: the covering bucket spread over its width.
    pub fn selectivity_eq(&self, v: f64) -> f64 {
        if self.total == 0 || v < self.lo || v > self.hi {
            return 0.0;
        }
        if self.lo == self.hi {
            return if v == self.lo { 1.0 } else { 0.0 };
        }
        let nb = self.buckets.len();
        let width = (self.hi - self.lo) / nb as f64;
        let idx = (((v - self.lo) / width) as usize).min(nb - 1);
        // Assume ~width distinct values per bucket.
        (self.buckets[idx] as f64 / self.total as f64 / width.max(1.0)).clamp(0.0, 1.0)
    }
}

/// Capped distinct-value counter for string columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StringSketch {
    counts: BTreeMap<String, u64>,
    overflow: u64,
    total: u64,
}

impl StringSketch {
    /// Distinct values tracked exactly before overflow spreading begins.
    pub const MAX_DISTINCT: usize = 1024;

    /// Fold one string occurrence into the sketch.
    pub fn observe(&mut self, s: &str) {
        self.total += 1;
        if let Some(c) = self.counts.get_mut(s) {
            *c += 1;
        } else if self.counts.len() < Self::MAX_DISTINCT {
            self.counts.insert(s.to_string(), 1);
        } else {
            self.overflow += 1;
        }
    }

    /// Number of observed strings.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Equality selectivity: exact when tracked, otherwise spread the
    /// overflow mass over an assumed long tail.
    pub fn selectivity_eq(&self, s: &str) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        match self.counts.get(s) {
            Some(&c) => c as f64 / self.total as f64,
            None => {
                if self.overflow == 0 {
                    0.0
                } else {
                    (self.overflow as f64 / Self::MAX_DISTINCT as f64 / self.total as f64)
                        .clamp(0.0, 1.0)
                }
            }
        }
    }

    /// Distinct values currently tracked exactly.
    pub fn distinct_tracked(&self) -> usize {
        self.counts.len()
    }
}

/// Per-column sketch for selectivity estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSketch {
    /// Equi-width histogram over a numeric column.
    Numeric(NumericHistogram),
    /// Capped distinct counter over a string column.
    Strings(StringSketch),
}

/// Table-level statistics: one sketch per scalar column.
#[derive(Debug, Clone, Default)]
pub struct TableSketch {
    /// Per-column sketches (vector columns excluded).
    pub columns: BTreeMap<String, ColumnSketch>,
    /// Total ingested rows.
    pub rows: u64,
}

/// Incremental builder used during segment writes.
#[derive(Debug, Default)]
pub struct TableSketchBuilder {
    numeric: BTreeMap<String, Vec<f64>>,
    strings: BTreeMap<String, StringSketch>,
    rows: u64,
}

impl TableSketchBuilder {
    /// Fold one column of an ingest batch into its accumulator: strings
    /// into the distinct counter, numbers (as `f64`) into the histogram's
    /// values, in row order. Vector columns are skipped.
    pub fn observe_column(&mut self, column: &str, data: &ColumnData) {
        if data.is_empty() {
            return;
        }
        let mut numbers = |cells: &mut dyn Iterator<Item = f64>| {
            self.numeric.entry(column.to_string()).or_default().extend(cells)
        };
        match data {
            ColumnData::UInt64(v) | ColumnData::DateTime(v) => {
                numbers(&mut v.iter().map(|&x| x as f64))
            }
            ColumnData::Int64(v) => numbers(&mut v.iter().map(|&x| x as f64)),
            ColumnData::Float64(v) => numbers(&mut v.iter().copied()),
            ColumnData::Str(v) => {
                let sketch = self.strings.entry(column.to_string()).or_default();
                v.iter().for_each(|s| sketch.observe(s));
            }
            ColumnData::Vector { .. } => {}
        }
    }

    /// Record ingested rows (once per batch).
    pub fn observe_row_count(&mut self, n: u64) {
        self.rows += n;
    }

    /// Build a sketch from the current state without consuming the builder
    /// (used by the table store, which keeps accumulating across ingests).
    pub fn snapshot(&self) -> TableSketch {
        let mut columns = BTreeMap::new();
        for (name, vals) in &self.numeric {
            columns.insert(
                name.clone(),
                ColumnSketch::Numeric(NumericHistogram::build(
                    vals.iter().copied(),
                    NumericHistogram::DEFAULT_BUCKETS,
                )),
            );
        }
        for (name, sk) in &self.strings {
            columns.insert(name.clone(), ColumnSketch::Strings(sk.clone()));
        }
        TableSketch { columns, rows: self.rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn column_stats_minmax_and_pruning() {
        let s = ColumnStats::of(&ColumnData::UInt64(vec![5, 1, 9, 3])).unwrap();
        assert_eq!(s.rows, 4);
        assert_eq!(s.min, Some(Value::UInt64(1)));
        assert_eq!(s.max, Some(Value::UInt64(9)));
        assert!(s.may_contain(&Value::UInt64(5)));
        assert!(s.range_may_overlap(Some(&Value::UInt64(9)), None));
        assert!(!s.range_may_overlap(Some(&Value::UInt64(10)), None));
        assert!(!s.range_may_overlap(None, Some(&Value::UInt64(0))));
        assert!(s.range_may_overlap(Some(&Value::UInt64(0)), Some(&Value::UInt64(100))));
    }

    #[test]
    fn unknown_stats_never_prune() {
        let s = ColumnStats::default();
        assert!(s.may_contain(&Value::UInt64(42)));
    }

    #[test]
    fn vector_values_ignored() {
        assert!(ColumnStats::of(&ColumnData::Vector { dim: 1, data: vec![1.0] }).is_none());
        assert!(ColumnStats::of(&ColumnData::UInt64(vec![])).is_none());
    }

    #[test]
    fn histogram_uniform_range_estimates() {
        let h = NumericHistogram::build((0..1000).map(|i| i as f64), 50);
        let s = h.selectivity_range(Some(0.0), Some(99.0));
        assert!((s - 0.1).abs() < 0.02, "expected ~0.1, got {s}");
        let s_all = h.selectivity_range(None, None);
        assert!((s_all - 1.0).abs() < 1e-9);
        assert_eq!(h.selectivity_range(Some(5000.0), Some(6000.0)), 0.0);
        assert_eq!(h.selectivity_range(Some(10.0), Some(5.0)), 0.0);
    }

    #[test]
    fn histogram_degenerate_inputs() {
        let empty = NumericHistogram::build(std::iter::empty(), 8);
        assert_eq!(empty.selectivity_range(None, None), 0.0);
        let constant = NumericHistogram::build([7.0, 7.0, 7.0], 8);
        assert_eq!(constant.selectivity_range(Some(7.0), Some(7.0)), 1.0);
        assert_eq!(constant.selectivity_range(Some(8.0), Some(9.0)), 0.0);
        assert_eq!(constant.selectivity_eq(7.0), 1.0);
    }

    #[test]
    fn string_sketch_exact_until_cap() {
        let mut sk = StringSketch::default();
        for _ in 0..90 {
            sk.observe("animal");
        }
        for _ in 0..10 {
            sk.observe("plant");
        }
        assert_eq!(sk.selectivity_eq("animal"), 0.9);
        assert_eq!(sk.selectivity_eq("plant"), 0.1);
        assert_eq!(sk.selectivity_eq("mineral"), 0.0);
    }

    #[test]
    fn string_sketch_overflow_spreads_mass() {
        let mut sk = StringSketch::default();
        for i in 0..(StringSketch::MAX_DISTINCT + 100) {
            sk.observe(&format!("s{i}"));
        }
        assert_eq!(sk.distinct_tracked(), StringSketch::MAX_DISTINCT);
        let unseen = sk.selectivity_eq("definitely-not-seen");
        assert!(unseen > 0.0 && unseen < 0.01);
    }

    #[test]
    fn sketch_builder_routes_types() {
        let mut b = TableSketchBuilder::default();
        b.observe_column("x", &ColumnData::UInt64((0..100).collect()));
        b.observe_column(
            "label",
            &ColumnData::Str((0..100).map(|i| format!("l{}", i % 4)).collect()),
        );
        b.observe_column("v", &ColumnData::Vector { dim: 2, data: [0.0, 1.0].repeat(100) });
        b.observe_column("empty", &ColumnData::Float64(vec![]));
        b.observe_row_count(100);
        let sk = b.snapshot();
        assert_eq!(sk.rows, 100);
        assert!(matches!(sk.columns.get("x"), Some(ColumnSketch::Numeric(_))));
        assert!(matches!(sk.columns.get("label"), Some(ColumnSketch::Strings(_))));
        assert!(!sk.columns.contains_key("v"));
        assert!(!sk.columns.contains_key("empty"));
    }

    proptest! {
        #[test]
        fn prop_histogram_range_close_to_truth(
            vals in proptest::collection::vec(0.0f64..100.0, 50..300),
            lo in 0.0f64..100.0,
            span in 0.0f64..100.0,
        ) {
            let hi = lo + span;
            let h = NumericHistogram::build(vals.iter().copied(), 32);
            let truth = vals.iter().filter(|&&v| v >= lo && v <= hi).count() as f64
                / vals.len() as f64;
            let est = h.selectivity_range(Some(lo), Some(hi));
            // Equi-width histograms are coarse; assert bounded absolute error.
            prop_assert!((est - truth).abs() <= 0.15, "est {est} vs truth {truth}");
        }

        #[test]
        fn prop_selectivity_monotone_in_range(
            vals in proptest::collection::vec(-50.0f64..50.0, 20..200),
            a in -50.0f64..50.0,
            b in 0.0f64..20.0,
            c in 0.0f64..20.0,
        ) {
            let h = NumericHistogram::build(vals.iter().copied(), 16);
            let narrow = h.selectivity_range(Some(a), Some(a + b));
            let wide = h.selectivity_range(Some(a), Some(a + b + c));
            prop_assert!(wide >= narrow - 1e-9);
        }
    }
}
