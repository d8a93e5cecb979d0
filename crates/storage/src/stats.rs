//! Data statistics for pruning and selectivity estimation.
//!
//! Two granularities:
//!
//! * **Per-segment min/max** ([`ColumnStats`]) — drives segment pruning at
//!   scheduling time (§IV-B scalar partition pruning and zone-map style
//!   skipping).
//! * **Sketches** ([`TableSketch`]) — equi-width histograms for numeric
//!   columns, beside a short list of their most common values counted
//!   exactly, and a capped distinct-value counter for strings, giving the
//!   cost-based optimizer its `s` (predicate selectivity) estimate (Table
//!   II, Poosala-style histograms). Each segment gets its own, built once
//!   from its columns ([`TableSketch::of_columns`]); a table version's
//!   sketch is the merge of its live segments' ([`TableSketch::merge`]), so
//!   it describes exactly the rows of those segments and its size is bounded
//!   by segments × columns × buckets (strings: ≤ 1,024 values per segment).

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

/// Equi-width histogram over a numeric column, beside the column's most
/// common values. A value that alone holds more than one bucket's share of
/// the rows is counted exactly in `common` and left out of the buckets,
/// which spread the rest evenly over their width: a heavy value is neither
/// priced as rare nor smeared over its empty neighbours. Bucket counts are
/// `f64`: a merged histogram holds fractions of its sources' buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericHistogram {
    /// Smallest and largest value, common ones included.
    lo: f64,
    hi: f64,
    /// The values not in `common`, per bucket of `[lo, hi]`.
    buckets: Vec<f64>,
    /// Up to [`Self::MAX_COMMON`] values with their counts, ascending.
    common: Vec<(f64, u64)>,
    total: u64,
}

impl NumericHistogram {
    /// Default bucket count used by the table sketch.
    pub const DEFAULT_BUCKETS: usize = 64;

    /// Most common values a histogram counts exactly.
    pub const MAX_COMMON: usize = 16;

    /// Build from raw values. Degenerate inputs (empty, constant) are
    /// handled with a single-bucket histogram.
    pub fn build(values: impl IntoIterator<Item = f64>, n_buckets: usize) -> NumericHistogram {
        let mut vals: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        if vals.is_empty() {
            return NumericHistogram::EMPTY;
        }
        vals.sort_by(f64::total_cmp);
        let (lo, hi, total) = (vals[0], vals[vals.len() - 1], vals.len() as u64);
        let nb = n_buckets.max(1);
        // Runs of equal values holding more than one bucket's share.
        let mut common: Vec<(f64, u64)> = Vec::new();
        let mut start = 0;
        for end in 1..=vals.len() {
            if end == vals.len() || vals[end] != vals[start] {
                let count = (end - start) as u64;
                if count >= 2 && count * nb as u64 > total {
                    common.push((vals[start], count));
                }
                start = end;
            }
        }
        // Values cut off the list stay in the buckets with the rest.
        Self::keep_most_common(&mut common);
        let is_common = |v: f64| common.iter().any(|&(c, _)| c == v);
        let nb = if lo == hi { 1 } else { nb };
        let (mut buckets, width) = (vec![0.0; nb], (hi - lo) / nb as f64);
        for &v in vals.iter().filter(|&&v| !is_common(v)) {
            buckets[Self::bucket_of(v, lo, width, nb)] += 1.0;
        }
        NumericHistogram { lo, hi, buckets, common, total }
    }

    /// Cut `common` to the [`Self::MAX_COMMON`] highest counts (ties to
    /// the smaller value), ascending by value; returns the values cut off.
    fn keep_most_common(common: &mut Vec<(f64, u64)>) -> Vec<(f64, u64)> {
        common.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.total_cmp(&b.0)));
        let cut = common.split_off(common.len().min(Self::MAX_COMMON));
        common.sort_by(|a, b| a.0.total_cmp(&b.0));
        cut
    }

    /// The bucket of `v` among `nb` of `width` from `lo` (one bucket when
    /// the range is a point).
    fn bucket_of(v: f64, lo: f64, width: f64, nb: usize) -> usize {
        if nb == 1 {
            0
        } else {
            (((v - lo) / width) as usize).min(nb - 1)
        }
    }

    /// The histogram of no values.
    const EMPTY: NumericHistogram =
        NumericHistogram { lo: 0.0, hi: 0.0, buckets: Vec::new(), common: Vec::new(), total: 0 };

    /// Rows of the common values in `[lo, hi]`.
    fn common_within(&self, lo: f64, hi: f64) -> u64 {
        self.common.iter().filter(|&&(v, _)| lo <= v && v <= hi).map(|&(_, c)| c).sum()
    }

    /// One histogram over the values of all `parts`: `n_buckets` buckets
    /// over `[min lo, max hi]`, each part's bucket spread over the buckets
    /// it overlaps in proportion to the overlap. A constant part puts its
    /// whole mass in the bucket holding its value. The parts' common values
    /// are summed per value; the [`Self::MAX_COMMON`] most counted stay
    /// common, the rest go to the buckets holding them.
    pub fn merge<'a>(
        parts: impl IntoIterator<Item = &'a NumericHistogram>,
        n_buckets: usize,
    ) -> NumericHistogram {
        let parts: Vec<_> = parts.into_iter().filter(|h| h.total > 0).collect();
        if parts.is_empty() {
            return NumericHistogram::EMPTY;
        }
        let lo = parts.iter().map(|h| h.lo).fold(f64::INFINITY, f64::min);
        let hi = parts.iter().map(|h| h.hi).fold(f64::NEG_INFINITY, f64::max);
        let total = parts.iter().map(|h| h.total).sum();
        let mut common: Vec<(f64, u64)> = Vec::new();
        for &(v, count) in parts.iter().flat_map(|h| &h.common) {
            match common.iter_mut().find(|(c, _)| *c == v) {
                Some((_, n)) => *n += count,
                None => common.push((v, count)),
            }
        }
        let rest = Self::keep_most_common(&mut common);
        let nb = if lo == hi { 1 } else { n_buckets.max(1) };
        let width = (hi - lo) / nb as f64;
        let bucket = |v: f64| Self::bucket_of(v, lo, width, nb);
        let mut buckets = vec![0.0; nb];
        for (v, count) in rest {
            buckets[bucket(v)] += count as f64;
        }
        for h in parts {
            if h.lo == h.hi {
                buckets[bucket(h.lo)] += h.buckets.iter().sum::<f64>();
                continue;
            }
            let src = (h.hi - h.lo) / h.buckets.len() as f64;
            for (i, &count) in h.buckets.iter().enumerate().filter(|&(_, &c)| c > 0.0) {
                let (s_lo, s_hi) = (h.lo + i as f64 * src, h.lo + (i + 1) as f64 * src);
                let (first, last) = (bucket(s_lo), bucket(s_hi));
                for (j, b) in buckets.iter_mut().enumerate().take(last + 1).skip(first) {
                    let (t_lo, t_hi) = (lo + j as f64 * width, lo + (j + 1) as f64 * width);
                    let overlap = s_hi.min(t_hi) - s_lo.max(t_lo);
                    if overlap > 0.0 {
                        *b += count * overlap / src;
                    }
                }
            }
        }
        NumericHistogram { lo, hi, buckets, common, total }
    }

    /// Number of values the histogram was built over.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Estimated fraction of rows with value in `[lo, hi]` (unbounded sides
    /// as `None`): the common values inside it exactly, the rest with
    /// linear interpolation inside partially covered buckets.
    pub fn selectivity_range(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q_lo = lo.unwrap_or(f64::NEG_INFINITY);
        let q_hi = hi.unwrap_or(f64::INFINITY);
        if q_lo > q_hi {
            return 0.0;
        }
        let mut count = self.common_within(q_lo, q_hi) as f64;
        if self.lo == self.hi {
            if q_lo <= self.lo && self.lo <= q_hi {
                count += self.buckets[0];
            }
            return count / self.total as f64;
        }
        let nb = self.buckets.len();
        let width = (self.hi - self.lo) / nb as f64;
        for (i, &b) in self.buckets.iter().enumerate() {
            let b_lo = self.lo + i as f64 * width;
            let b_hi = b_lo + width;
            let o_lo = q_lo.max(b_lo);
            let o_hi = q_hi.min(b_hi);
            if o_hi > o_lo {
                count += b * ((o_hi - o_lo) / width).min(1.0);
            }
        }
        (count / self.total as f64).clamp(0.0, 1.0)
    }

    /// Point-equality selectivity: a common value's exact share, else the
    /// covering bucket spread over its width.
    pub fn selectivity_eq(&self, v: f64) -> f64 {
        if self.total == 0 || v < self.lo || v > self.hi {
            return 0.0;
        }
        // Inside `[lo, hi]`, so a point range is `v` itself.
        let listed = self.common_within(v, v) as f64;
        if self.lo == self.hi {
            return (listed + self.buckets[0]) / self.total as f64;
        }
        if listed > 0.0 {
            return listed / self.total as f64;
        }
        let nb = self.buckets.len();
        let width = (self.hi - self.lo) / nb as f64;
        let idx = (((v - self.lo) / width) as usize).min(nb - 1);
        // Assume ~width distinct values per bucket.
        (self.buckets[idx] / self.total as f64 / width.max(1.0)).clamp(0.0, 1.0)
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
        self.add(s, 1);
    }

    /// Fold another sketch in: its values in order, each as `observe`
    /// would take that many occurrences of it, and its overflow.
    pub fn absorb(&mut self, other: &StringSketch) {
        for (s, &n) in &other.counts {
            self.add(s, n);
        }
        self.overflow += other.overflow;
        self.total += other.overflow;
    }

    /// `n` occurrences of `s`: counted if tracked or there is room to track
    /// it, else overflow.
    fn add(&mut self, s: &str, n: u64) {
        self.total += n;
        if let Some(c) = self.counts.get_mut(s) {
            *c += n;
        } else if self.counts.len() < Self::MAX_DISTINCT {
            self.counts.insert(s.to_string(), n);
        } else {
            self.overflow += n;
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

impl ColumnSketch {
    /// The sketch of one column: strings into the distinct counter, numbers
    /// (as `f64`) into a histogram of [`NumericHistogram::DEFAULT_BUCKETS`].
    /// `None` for a vector column or one with no rows.
    pub fn of(col: &ColumnData) -> Option<ColumnSketch> {
        let numbers = |cells: &mut dyn Iterator<Item = f64>| {
            ColumnSketch::Numeric(NumericHistogram::build(cells, NumericHistogram::DEFAULT_BUCKETS))
        };
        match col {
            _ if col.is_empty() => None,
            ColumnData::UInt64(v) | ColumnData::DateTime(v) => {
                Some(numbers(&mut v.iter().map(|&x| x as f64)))
            }
            ColumnData::Int64(v) => Some(numbers(&mut v.iter().map(|&x| x as f64))),
            ColumnData::Float64(v) => Some(numbers(&mut v.iter().copied())),
            ColumnData::Str(v) => {
                let mut sketch = StringSketch::default();
                v.iter().for_each(|s| sketch.observe(s));
                Some(ColumnSketch::Strings(sketch))
            }
            ColumnData::Vector { .. } => None,
        }
    }
}

/// Statistics of a set of rows — one segment's, or a table version's
/// merged from its segments': one sketch per scalar column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableSketch {
    /// Per-column sketches (vector columns excluded).
    pub columns: BTreeMap<String, ColumnSketch>,
    /// Rows the sketch describes.
    pub rows: u64,
}

impl TableSketch {
    /// The sketch of `rows` rows held in `columns` (name, data).
    pub fn of_columns<'a>(
        rows: usize,
        columns: impl IntoIterator<Item = (&'a str, &'a ColumnData)>,
    ) -> TableSketch {
        let columns = columns
            .into_iter()
            .filter_map(|(name, data)| Some((name.to_string(), ColumnSketch::of(data)?)))
            .collect();
        TableSketch { columns, rows: rows as u64 }
    }

    /// One sketch of the rows of all `parts`, column by column: histograms
    /// by [`NumericHistogram::merge`], string counts summed in part order
    /// under the distinct-value cap ([`StringSketch::absorb`]).
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a TableSketch>) -> TableSketch {
        let mut numeric: BTreeMap<&str, Vec<&NumericHistogram>> = BTreeMap::new();
        let mut strings: BTreeMap<&str, StringSketch> = BTreeMap::new();
        let mut rows = 0;
        for part in parts {
            rows += part.rows;
            for (name, column) in &part.columns {
                match column {
                    ColumnSketch::Numeric(h) => numeric.entry(name).or_default().push(h),
                    ColumnSketch::Strings(sk) => strings.entry(name).or_default().absorb(sk),
                }
            }
        }
        let numeric = numeric.into_iter().map(|(name, parts)| {
            let h = NumericHistogram::merge(parts, NumericHistogram::DEFAULT_BUCKETS);
            (name, ColumnSketch::Numeric(h))
        });
        let strings = strings.into_iter().map(|(name, sk)| (name, ColumnSketch::Strings(sk)));
        let columns = numeric.chain(strings).map(|(name, c)| (name.to_string(), c)).collect();
        TableSketch { columns, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

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
    fn column_sketches_route_types() {
        let x = ColumnData::UInt64((0..100).collect());
        let label = ColumnData::Str((0..100).map(|i| format!("l{}", i % 4)).collect());
        let v = ColumnData::Vector { dim: 2, data: [0.0, 1.0].repeat(100) };
        let empty = ColumnData::Float64(vec![]);
        let columns = [("x", &x), ("label", &label), ("v", &v), ("empty", &empty)];
        let sk = TableSketch::of_columns(100, columns);
        assert_eq!(sk.rows, 100);
        assert!(matches!(sk.columns.get("x"), Some(ColumnSketch::Numeric(_))));
        assert!(matches!(sk.columns.get("label"), Some(ColumnSketch::Strings(_))));
        assert!(!sk.columns.contains_key("v"));
        assert!(!sk.columns.contains_key("empty"));
    }

    #[test]
    fn histogram_merge_of_degenerate_parts() {
        let empty = NumericHistogram::build(std::iter::empty(), 8);
        assert_eq!(NumericHistogram::merge([&empty, &empty], 8), empty);
        let (three, two) =
            (NumericHistogram::build([7.0; 3], 8), NumericHistogram::build([7.0; 2], 8));
        let constant = NumericHistogram::merge([&three, &empty, &two], 8);
        assert_eq!(constant, NumericHistogram::build([7.0; 5], 8));
        // A constant part's mass lands whole in the bucket holding its value.
        let zeros = NumericHistogram::build([0.0; 10], 64);
        let spread = NumericHistogram::build((0..=100).map(f64::from), 64);
        let merged = NumericHistogram::merge([&zeros, &spread], 64);
        assert_eq!(merged.total(), 111);
        let low = merged.selectivity_range(None, Some(100.0 / 64.0));
        assert!((low - 12.0 / 111.0).abs() < 1e-9, "{low}");
    }

    /// A value holding more than a bucket's share of the rows is counted
    /// exactly, in one sketch and merged across parts; uniform values with
    /// a few repeats leave the list empty and the estimates as they were.
    #[test]
    fn a_heavy_value_is_counted_not_spread() {
        let heavy: Vec<f64> = (0..1_000).map(|i| if i < 500 { 0.0 } else { i as f64 }).collect();
        let h = NumericHistogram::build(heavy.iter().copied(), 64);
        assert_eq!(h.common, vec![(0.0, 500)]);
        assert_eq!(h.selectivity_eq(0.0), 0.5);
        assert!(h.selectivity_range(Some(1.0), Some(499.0)) < 1e-9);
        assert!((h.selectivity_range(Some(500.0), None) - 0.5).abs() < 0.01);
        // Two halves merged count the value once, in full.
        let (a, b) = heavy.split_at(300);
        let (a, b) =
            (NumericHistogram::build(a.to_vec(), 64), NumericHistogram::build(b.to_vec(), 64));
        let merged = NumericHistogram::merge([&a, &b], 64);
        assert_eq!(merged.common, vec![(0.0, 500)]);
        assert_eq!(merged.selectivity_eq(0.0), 0.5);
        assert!(merged.selectivity_range(Some(1.0), Some(499.0)) < 1e-9);
        // 8,000 draws of a million values repeat a few: none is common.
        let mut r = bh_common::rng::rng(3);
        let uniform: Vec<f64> = (0..8_000).map(|_| r.gen_range(0..1_000_000u32) as f64).collect();
        assert!(NumericHistogram::build(uniform, 64).common.is_empty());
        // More than `MAX_COMMON` heavy values: the most counted stay.
        let many = (0..40u32).flat_map(|v| std::iter::repeat_n(f64::from(v), 10 + v as usize));
        let capped = NumericHistogram::build(many, 64);
        assert_eq!(capped.common.len(), NumericHistogram::MAX_COMMON);
        assert_eq!(capped.common[0], (24.0, 34));
        let rows = capped.buckets.iter().sum::<f64>() as u64 + capped.common_within(0.0, 40.0);
        assert_eq!(rows, capped.total());
    }

    /// The value at `share` of `sorted`.
    fn quantile(sorted: &[f64], share: f64) -> f64 {
        sorted[((share * sorted.len() as f64) as usize).min(sorted.len() - 1)]
    }

    /// A table cut into 2, 8 or 32 segments, strided or sorted: the merge of
    /// the segments' sketches prices every range the way one sketch over all
    /// rows does, within 0.005, and counts tracked strings exactly.
    #[test]
    fn merged_sketch_matches_one_built_over_all_rows() {
        const N: usize = 16_000;
        let mut r = bh_common::rng::rng(47);
        let uniform: Vec<f64> = (0..N).map(|_| r.gen::<f64>() * 1_000.0).collect();
        let exponential: Vec<f64> = (0..N).map(|_| -(1.0 - r.gen::<f64>()).ln() * 100.0).collect();
        let labels: Vec<String> =
            (0..N).map(|i| format!("l{}", (i * i) % 997 % (1 + i % 300))).collect();
        let range = |sk: &TableSketch, lo: f64, hi: f64| match &sk.columns["x"] {
            ColumnSketch::Numeric(h) => h.selectivity_range(Some(lo), Some(hi)),
            other => panic!("x is numeric: {other:?}"),
        };
        let mut worst = (0.0f64, String::new());
        for (dist, values) in [("uniform", &uniform), ("exponential", &exponential)] {
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let (x, s) = (ColumnData::Float64(values.clone()), ColumnData::Str(labels.clone()));
            let whole = TableSketch::of_columns(N, [("x", &x), ("s", &s)]);
            for parts in [2, 8, 32] {
                for cut in ["strided", "sorted"] {
                    let rows = |p: usize| -> Vec<usize> {
                        match cut {
                            "strided" => (p..N).step_by(parts).collect(),
                            _ => {
                                let mut by_x: Vec<usize> = (0..N).collect();
                                by_x.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
                                by_x[p * N / parts..(p + 1) * N / parts].to_vec()
                            }
                        }
                    };
                    let sketches: Vec<TableSketch> = (0..parts)
                        .map(|p| {
                            let rows = rows(p);
                            let x = ColumnData::Float64(rows.iter().map(|&i| values[i]).collect());
                            let s =
                                ColumnData::Str(rows.iter().map(|&i| labels[i].clone()).collect());
                            TableSketch::of_columns(rows.len(), [("x", &x), ("s", &s)])
                        })
                        .collect();
                    let merged = TableSketch::merge(&sketches);
                    assert_eq!(merged.rows, N as u64);
                    assert_eq!(merged.columns["s"], whole.columns["s"], "{dist} {parts} {cut}");
                    for share in [0.001, 0.01, 0.1, 0.3, 0.9] {
                        // A range from the bottom, and one centred on the median.
                        let bottom = (sorted[0], quantile(&sorted, share));
                        let centred = (
                            quantile(&sorted, 0.5 - share / 2.0),
                            quantile(&sorted, 0.5 + share / 2.0),
                        );
                        for (lo, hi) in [bottom, centred] {
                            let err = (range(&merged, lo, hi) - range(&whole, lo, hi)).abs();
                            if err > worst.0 {
                                worst = (err, format!("{dist} {parts} {cut} share {share}"));
                            }
                        }
                    }
                }
            }
        }
        assert!(worst.0 <= 0.005, "worst error {} at {}", worst.0, worst.1);
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
