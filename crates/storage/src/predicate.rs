//! Scalar predicates: evaluation, vectorized bitset evaluation, min/max
//! pruning, and histogram-based selectivity estimation.
//!
//! Predicates are the structured half of every hybrid query. They are used
//! in four distinct ways, all implemented here:
//!
//! 1. **Row evaluation** — one row as a name → [`Value`] map: system-table
//!    scans, and the reference every other form is tested against.
//! 2. **Bitset evaluation** — word kernels over typed columns: a qualifying
//!    bitset over a whole segment (Plan A's scan, the input to the ANN bitmap
//!    scan) or over the gathered cells of the candidates a post-filter pulled.
//! 3. **Segment pruning** — `may_match_stats` answers "could any row of a
//!    segment with these min/max stats qualify?" for scheduler-side pruning.
//! 4. **Selectivity estimation** — `estimate_selectivity` produces the `s`
//!    term of the paper's cost model from table sketches.

use crate::column::ColumnData;
use crate::stats::{ColumnSketch, ColumnStats, TableSketch};
use crate::value::{ColumnType, Value};
use bh_common::regex_lite::Regex;
use bh_common::{BhError, Bitset, Result};
use std::collections::BTreeMap;
use std::fmt;

/// A boolean predicate over scalar columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (no WHERE clause).
    True,
    /// `col = value`
    Eq(String, Value),
    /// `col` in a range with optional unbounded sides. `lo_open`/`hi_open`
    /// make the corresponding bound exclusive (`<` / `>` comparisons).
    Range {
        /// Filtered column.
        column: String,
        /// Lower bound (`None` = unbounded).
        lo: Option<Value>,
        /// Upper bound (`None` = unbounded).
        hi: Option<Value>,
        /// Exclude the lower bound itself (`>`).
        lo_open: bool,
        /// Exclude the upper bound itself (`<`).
        hi_open: bool,
    },
    /// `col REGEXP 'pattern'` (LAION-style caption matching).
    RegexMatch(String, Regex),
    /// `col IN (v1, v2, …)`
    In(String, Vec<Value>),
    /// Conjunction of sub-predicates.
    And(Vec<Predicate>),
    /// Disjunction of sub-predicates.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column = v`.
    pub fn eq(column: &str, v: Value) -> Predicate {
        Predicate::Eq(column.into(), v)
    }

    /// Inclusive range (`BETWEEN`-style bounds).
    pub fn range(column: &str, lo: Option<Value>, hi: Option<Value>) -> Predicate {
        Predicate::Range { column: column.into(), lo, hi, lo_open: false, hi_open: false }
    }

    /// Range with explicit bound openness (`<` / `>` comparisons).
    pub fn range_open(
        column: &str,
        lo: Option<Value>,
        hi: Option<Value>,
        lo_open: bool,
        hi_open: bool,
    ) -> Predicate {
        Predicate::Range { column: column.into(), lo, hi, lo_open, hi_open }
    }

    /// `column REGEXP pattern` (compiles the pattern).
    pub fn regex(column: &str, pattern: &str) -> Result<Predicate> {
        Ok(Predicate::RegexMatch(column.into(), Regex::new(pattern)?))
    }

    /// Conjunction, flattening the 0- and 1-element cases.
    pub fn and(preds: Vec<Predicate>) -> Predicate {
        match preds.len() {
            0 | 1 => preds.into_iter().next().unwrap_or(Predicate::True),
            _ => Predicate::And(preds),
        }
    }

    /// Column names this predicate references, deduplicated.
    pub fn referenced_columns(&self) -> Vec<String> {
        self.column_refs().into_iter().map(String::from).collect()
    }

    /// [`Self::referenced_columns`] borrowed from the predicate: sorted,
    /// deduplicated, one allocation.
    pub fn column_refs(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::True => {}
            Predicate::Eq(c, _) | Predicate::RegexMatch(c, _) | Predicate::In(c, _) => out.push(c),
            Predicate::Range { column, .. } => out.push(column),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }

    /// Evaluate against one row given a column→value mapping.
    pub fn eval(&self, row: &BTreeMap<String, Value>) -> Result<bool> {
        Ok(match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => {
                let cell = lookup(row, c)?;
                cell.partial_cmp_scalar(v) == Some(std::cmp::Ordering::Equal)
            }
            Predicate::Range { column, lo, hi, lo_open, hi_open } => {
                let cell = lookup(row, column)?;
                in_range(cell, lo.as_ref(), hi.as_ref(), *lo_open, *hi_open)
            }
            Predicate::RegexMatch(c, re) => {
                let cell = lookup(row, c)?;
                cell.as_str().map(|s| re.is_match(s)).unwrap_or(false)
            }
            Predicate::In(c, vals) => {
                let cell = lookup(row, c)?;
                vals.iter()
                    .any(|v| cell.partial_cmp_scalar(v) == Some(std::cmp::Ordering::Equal))
            }
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval(row)? {
                        return Ok(false);
                    }
                }
                true
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.eval(row)? {
                        return Ok(true);
                    }
                }
                false
            }
            Predicate::Not(p) => !p.eval(row)?,
        })
    }

    /// Vectorized evaluation over typed columns: bit set ⇔ row qualifies,
    /// and for every row exactly what [`Self::eval`] answers on its cells.
    /// `columns` must hold every referenced column, each with `rows` rows —
    /// a whole segment, or the gathered cells of a batch of candidates.
    pub fn eval_bitset(&self, columns: &[(&str, &ColumnData)], rows: usize) -> Result<Bitset> {
        Ok(match self {
            Predicate::True => Bitset::full(rows),
            Predicate::Eq(c, v) => match (col_lookup(columns, c, rows)?, v) {
                (ColumnData::Str(data), Value::Str(want)) => {
                    Bitset::from_tests(data, |s| s == want)
                }
                (col, _) => range_bits(col, Some(v), Some(v), false, false),
            },
            Predicate::Range { column, lo, hi, lo_open, hi_open } => range_bits(
                col_lookup(columns, column, rows)?,
                lo.as_ref(),
                hi.as_ref(),
                *lo_open,
                *hi_open,
            ),
            Predicate::RegexMatch(c, re) => match col_lookup(columns, c, rows)? {
                ColumnData::Str(data) => Bitset::from_tests(data, |s| re.is_match(s)),
                _ => {
                    return Err(BhError::Plan(format!("regex predicate on non-string column {c}")))
                }
            },
            Predicate::In(c, vals) => in_bits(col_lookup(columns, c, rows)?, vals),
            Predicate::And(ps) => {
                let mut acc = Bitset::full(rows);
                for p in ps {
                    acc.intersect_with(&p.eval_bitset(columns, rows)?);
                    if acc.is_all_clear() {
                        break;
                    }
                }
                acc
            }
            Predicate::Or(ps) => {
                let mut acc = Bitset::new(rows);
                for p in ps {
                    acc.union_with(&p.eval_bitset(columns, rows)?);
                }
                acc
            }
            Predicate::Not(p) => {
                let mut b = p.eval_bitset(columns, rows)?;
                b.negate();
                b
            }
        })
    }

    /// Segment pruning: could any row of a segment with these per-column
    /// min/max stats satisfy the predicate? Conservative (never prunes
    /// wrongly); regex and NOT answer `true`.
    pub fn may_match_stats(&self, stats: &BTreeMap<String, ColumnStats>) -> bool {
        match self {
            Predicate::True | Predicate::RegexMatch(..) | Predicate::Not(_) => true,
            Predicate::Eq(c, v) => stats.get(c).map(|s| s.may_contain(v)).unwrap_or(true),
            // Openness is ignored for pruning — strictly conservative.
            Predicate::Range { column, lo, hi, .. } => stats
                .get(column)
                .map(|s| s.range_may_overlap(lo.as_ref(), hi.as_ref()))
                .unwrap_or(true),
            Predicate::In(c, vals) => stats
                .get(c)
                .map(|s| vals.iter().any(|v| s.may_contain(v)))
                .unwrap_or(true),
            Predicate::And(ps) => ps.iter().all(|p| p.may_match_stats(stats)),
            Predicate::Or(ps) => ps.is_empty() || ps.iter().any(|p| p.may_match_stats(stats)),
        }
    }

    /// Histogram-based selectivity estimate (the cost model's `s`).
    /// Independence is assumed across AND/OR branches; unknown shapes fall
    /// back to conservative constants (regex 0.1, unknown column 0.3).
    pub fn estimate_selectivity(&self, sketch: &TableSketch) -> f64 {
        match self {
            Predicate::True => 1.0,
            Predicate::Eq(c, v) => match (sketch.columns.get(c), v) {
                (Some(ColumnSketch::Numeric(h)), v) => {
                    v.as_f64().map(|f| h.selectivity_eq(f)).unwrap_or(0.0)
                }
                (Some(ColumnSketch::Strings(sk)), Value::Str(s)) => sk.selectivity_eq(s),
                _ => 0.3,
            },
            Predicate::Range { column, lo, hi, .. } => match sketch.columns.get(column) {
                Some(ColumnSketch::Numeric(h)) => h.selectivity_range(
                    lo.as_ref().and_then(|v| v.as_f64()),
                    hi.as_ref().and_then(|v| v.as_f64()),
                ),
                _ => 0.3,
            },
            Predicate::RegexMatch(..) => 0.1,
            Predicate::In(c, vals) => {
                vals.iter()
                    .map(|v| Predicate::Eq(c.clone(), v.clone()).estimate_selectivity(sketch))
                    .sum::<f64>()
                    .clamp(0.0, 1.0)
            }
            Predicate::And(ps) => ps.iter().map(|p| p.estimate_selectivity(sketch)).product(),
            Predicate::Or(ps) => {
                let none: f64 =
                    ps.iter().map(|p| 1.0 - p.estimate_selectivity(sketch)).product();
                1.0 - none
            }
            Predicate::Not(p) => 1.0 - p.estimate_selectivity(sketch),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "TRUE"),
            Predicate::Eq(c, v) => write!(f, "{c} = {v}"),
            Predicate::Range { column, lo, hi, lo_open, hi_open } => match (lo, hi) {
                (Some(l), Some(h)) => write!(f, "{column} BETWEEN {l} AND {h}"),
                (Some(l), None) => {
                    write!(f, "{column} {} {l}", if *lo_open { ">" } else { ">=" })
                }
                (None, Some(h)) => {
                    write!(f, "{column} {} {h}", if *hi_open { "<" } else { "<=" })
                }
                (None, None) => write!(f, "{column} IS ANY"),
            },
            Predicate::RegexMatch(c, re) => write!(f, "{c} REGEXP '{}'", re.as_str()),
            Predicate::In(c, vs) => {
                write!(f, "{c} IN (")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Predicate::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Predicate::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Predicate::Not(p) => write!(f, "NOT {p}"),
        }
    }
}

// ------------------------------------------------------------ word kernels
//
// A comparison against a typed column is answered 64 rows per output word
// ([`Bitset::from_tests`]) on integer images of the cells, chosen so that
// the answer is the one `Value::partial_cmp_scalar` gives for every cell —
// the row path ([`Predicate::eval`]) and the bitset path must not disagree
// on a NaN, a signed zero or an integer beyond 2^53, or the four plans of
// one statement return different rows.

/// `f64::total_cmp` as an integer comparison:
/// `total_key(a).cmp(&total_key(b)) == a.total_cmp(&b)`.
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// A fixed-width cell and the two ways `partial_cmp_scalar` compares it.
trait Cell: Copy {
    /// The literal's payload when it is of this cell's representation.
    fn of(v: &Value) -> Option<Self>;
    /// Order-preserving image for a literal of the column's own type: the
    /// integer itself (exact at any magnitude), a float's `total_cmp` key.
    fn same(self) -> i64;
    /// Image for any other numeric literal: both sides go through `f64`.
    fn cross(self) -> i64;
}

impl Cell for u64 {
    fn of(v: &Value) -> Option<u64> {
        match v {
            Value::UInt64(x) | Value::DateTime(x) => Some(*x),
            _ => None,
        }
    }
    fn same(self) -> i64 {
        (self ^ (1 << 63)) as i64
    }
    fn cross(self) -> i64 {
        total_key(self as f64)
    }
}

impl Cell for i64 {
    fn of(v: &Value) -> Option<i64> {
        match v {
            Value::Int64(x) => Some(*x),
            _ => None,
        }
    }
    fn same(self) -> i64 {
        self
    }
    fn cross(self) -> i64 {
        total_key(self as f64)
    }
}

impl Cell for f64 {
    fn of(v: &Value) -> Option<f64> {
        match v {
            Value::Float64(x) => Some(*x),
            _ => None,
        }
    }
    fn same(self) -> i64 {
        total_key(self)
    }
    fn cross(self) -> i64 {
        total_key(self)
    }
}

/// Which image of the cells a literal is compared on.
#[derive(Clone, Copy)]
enum Image {
    Same,
    Cross,
}

/// The image and key `v` compares on against a column of type `ty` with
/// cells `T`; `None` when the two are unordered (no row can match).
fn literal_key<T: Cell>(ty: ColumnType, v: &Value) -> Option<(Image, i64)> {
    match T::of(v) {
        Some(x) if v.type_of() == Some(ty) => Some((Image::Same, x.same())),
        _ => v.as_f64().map(|y| (Image::Cross, total_key(y))),
    }
}

/// `lo ≤ cell ≤ hi` (each side optional, optionally exclusive) over a
/// numeric column. Both sides become closed bounds on an `i64` image, so a
/// row costs two comparisons whatever the literal types were.
fn range_words<T: Cell>(
    data: &[T],
    ty: ColumnType,
    lo: Option<&Value>,
    hi: Option<&Value>,
    lo_open: bool,
    hi_open: bool,
) -> Bitset {
    // `None`: the literal is unordered against the column, or an exclusive
    // bound sits on the last key — either way nothing passes.
    let closed = |v: Option<&Value>, open: bool, unbounded: i64, inward: i64| {
        let Some(v) = v else { return Some((Image::Same, unbounded)) };
        let (image, key) = literal_key::<T>(ty, v)?;
        Some((image, if open { key.checked_add(inward)? } else { key }))
    };
    let (Some((lo_image, lo)), Some((hi_image, hi))) =
        (closed(lo, lo_open, i64::MIN, 1), closed(hi, hi_open, i64::MAX, -1))
    else {
        return Bitset::new(data.len());
    };
    match (lo_image, hi_image) {
        (Image::Same, Image::Same) => Bitset::from_tests(data, |x| {
            let s = x.same();
            (lo <= s) & (s <= hi)
        }),
        (Image::Cross, Image::Cross) => Bitset::from_tests(data, |x| {
            let c = x.cross();
            (lo <= c) & (c <= hi)
        }),
        (Image::Same, Image::Cross) => {
            Bitset::from_tests(data, |x| (lo <= x.same()) & (x.cross() <= hi))
        }
        (Image::Cross, Image::Same) => {
            Bitset::from_tests(data, |x| (lo <= x.cross()) & (x.same() <= hi))
        }
    }
}

/// `cell IN (vals)` over a numeric column: one pass, every listed key
/// compared without a branch.
fn in_words<T: Cell>(data: &[T], ty: ColumnType, vals: &[Value]) -> Bitset {
    let (mut same, mut cross) = (Vec::new(), Vec::new());
    for v in vals {
        match literal_key::<T>(ty, v) {
            Some((Image::Same, key)) => same.push(key),
            Some((Image::Cross, key)) => cross.push(key),
            None => {}
        }
    }
    let any = |keys: &[i64], k: i64| keys.iter().fold(false, |hit, &w| hit | (w == k));
    if cross.is_empty() {
        Bitset::from_tests(data, |x| any(&same, x.same()))
    } else {
        Bitset::from_tests(data, |x| any(&same, x.same()) | any(&cross, x.cross()))
    }
}

/// Range test over a column of any type (equality is the range `[v, v]`).
fn range_bits(
    col: &ColumnData,
    lo: Option<&Value>,
    hi: Option<&Value>,
    lo_open: bool,
    hi_open: bool,
) -> Bitset {
    let ty = col.ty();
    match col {
        ColumnData::UInt64(d) | ColumnData::DateTime(d) => {
            range_words(d, ty, lo, hi, lo_open, hi_open)
        }
        ColumnData::Int64(d) => range_words(d, ty, lo, hi, lo_open, hi_open),
        ColumnData::Float64(d) => range_words(d, ty, lo, hi, lo_open, hi_open),
        // String ranges and (unordered) vector cells: the row rule itself.
        ColumnData::Str(_) | ColumnData::Vector { .. } => Bitset::from_positions(
            col.len(),
            (0..col.len()).filter(|&i| in_range(&col.get(i), lo, hi, lo_open, hi_open)),
        ),
    }
}

/// `IN` over a column of any type.
fn in_bits(col: &ColumnData, vals: &[Value]) -> Bitset {
    let ty = col.ty();
    match col {
        ColumnData::UInt64(d) | ColumnData::DateTime(d) => in_words(d, ty, vals),
        ColumnData::Int64(d) => in_words(d, ty, vals),
        ColumnData::Float64(d) => in_words(d, ty, vals),
        ColumnData::Str(d) => {
            let wanted: Vec<&str> = vals.iter().filter_map(Value::as_str).collect();
            Bitset::from_tests(d, |s| wanted.contains(&s.as_str()))
        }
        // Vectors are unordered: no cell equals any literal.
        ColumnData::Vector { .. } => Bitset::new(col.len()),
    }
}

fn lookup<'a>(row: &'a BTreeMap<String, Value>, col: &str) -> Result<&'a Value> {
    row.get(col).ok_or_else(|| BhError::Plan(format!("predicate column {col} missing from row")))
}

fn col_lookup<'a>(
    columns: &[(&str, &'a ColumnData)],
    col: &str,
    rows: usize,
) -> Result<&'a ColumnData> {
    let (_, c) = columns
        .iter()
        .find(|(name, _)| *name == col)
        .ok_or_else(|| BhError::Plan(format!("predicate column {col} not provided")))?;
    if c.len() != rows {
        return Err(BhError::Internal(format!(
            "column {col} has {} rows, segment claims {rows}",
            c.len()
        )));
    }
    Ok(c)
}

fn in_range(v: &Value, lo: Option<&Value>, hi: Option<&Value>, lo_open: bool, hi_open: bool) -> bool {
    if let Some(lo) = lo {
        match v.partial_cmp_scalar(lo) {
            Some(std::cmp::Ordering::Less) | None => return false,
            Some(std::cmp::Ordering::Equal) if lo_open => return false,
            _ => {}
        }
    }
    if let Some(hi) = hi {
        match v.partial_cmp_scalar(hi) {
            Some(std::cmp::Ordering::Greater) | None => return false,
            Some(std::cmp::Ordering::Equal) if hi_open => return false,
            _ => {}
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cells(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    fn segment_columns(n: usize) -> (ColumnData, ColumnData, ColumnData) {
        let mut ints = ColumnData::empty(ColumnType::UInt64);
        let mut labels = ColumnData::empty(ColumnType::Str);
        let mut sims = ColumnData::empty(ColumnType::Float64);
        for i in 0..n {
            ints.push(&Value::UInt64(i as u64)).unwrap();
            labels
                .push(&Value::Str(if i % 2 == 0 { "animal".into() } else { "plant".into() }))
                .unwrap();
            sims.push(&Value::Float64(i as f64 / n as f64)).unwrap();
        }
        (ints, labels, sims)
    }

    #[test]
    fn row_eval_basics() {
        let r = cells(&[("x", Value::UInt64(5)), ("s", Value::Str("animal".into()))]);
        assert!(Predicate::eq("x", Value::UInt64(5)).eval(&r).unwrap());
        assert!(!Predicate::eq("x", Value::UInt64(6)).eval(&r).unwrap());
        assert!(Predicate::range("x", Some(Value::UInt64(5)), Some(Value::UInt64(9)))
            .eval(&r)
            .unwrap());
        assert!(!Predicate::range("x", Some(Value::UInt64(6)), None).eval(&r).unwrap());
        assert!(Predicate::regex("s", "^ani").unwrap().eval(&r).unwrap());
        assert!(Predicate::In("x".into(), vec![Value::UInt64(1), Value::UInt64(5)])
            .eval(&r)
            .unwrap());
        assert!(Predicate::eq("missing", Value::UInt64(1)).eval(&r).is_err());
    }

    #[test]
    fn compound_eval() {
        let r = cells(&[("a", Value::UInt64(1)), ("b", Value::UInt64(2))]);
        let p = Predicate::And(vec![
            Predicate::eq("a", Value::UInt64(1)),
            Predicate::eq("b", Value::UInt64(2)),
        ]);
        assert!(p.eval(&r).unwrap());
        let q = Predicate::Or(vec![
            Predicate::eq("a", Value::UInt64(9)),
            Predicate::eq("b", Value::UInt64(2)),
        ]);
        assert!(q.eval(&r).unwrap());
        assert!(!Predicate::Not(Box::new(q)).eval(&r).unwrap());
    }

    #[test]
    fn regex_bitset_and_type_error() {
        let n = 10;
        let (ints, labels, _) = segment_columns(n);
        let columns = [("label", &labels), ("x", &ints)];
        let p = Predicate::regex("label", "^pla").unwrap();
        let bits = p.eval_bitset(&columns, n).unwrap();
        assert_eq!(bits.count(), 5);
        let bad = Predicate::regex("x", "^1").unwrap();
        assert!(bad.eval_bitset(&columns, n).is_err());
    }

    #[test]
    fn true_predicate_selects_everything() {
        let bits = Predicate::True.eval_bitset(&[], 7).unwrap();
        assert!(bits.is_all_set());
    }

    #[test]
    fn stats_pruning() {
        let st = ColumnStats::of(&ColumnData::UInt64((10..20).collect())).unwrap();
        let stats: BTreeMap<String, ColumnStats> = [("x".to_string(), st)].into_iter().collect();
        assert!(Predicate::eq("x", Value::UInt64(15)).may_match_stats(&stats));
        assert!(!Predicate::eq("x", Value::UInt64(50)).may_match_stats(&stats));
        assert!(!Predicate::range("x", Some(Value::UInt64(30)), None).may_match_stats(&stats));
        assert!(Predicate::range("x", Some(Value::UInt64(19)), None).may_match_stats(&stats));
        // AND prunes if any branch prunes; OR only if all prune.
        let and = Predicate::And(vec![
            Predicate::eq("x", Value::UInt64(15)),
            Predicate::eq("x", Value::UInt64(50)),
        ]);
        assert!(!and.may_match_stats(&stats));
        let or = Predicate::Or(vec![
            Predicate::eq("x", Value::UInt64(15)),
            Predicate::eq("x", Value::UInt64(50)),
        ]);
        assert!(or.may_match_stats(&stats));
        // Unknown column never prunes.
        assert!(Predicate::eq("y", Value::UInt64(0)).may_match_stats(&stats));
    }

    #[test]
    fn selectivity_estimates() {
        let x = ColumnData::UInt64((0..1000).collect());
        let labels = (0..1000).map(|i| if i % 10 == 0 { "rare" } else { "common" }.to_string());
        let label = ColumnData::Str(labels.collect());
        let sk = TableSketch::of_columns(1000, [("x", &x), ("label", &label)]);
        let s = Predicate::range("x", Some(Value::UInt64(0)), Some(Value::UInt64(99)))
            .estimate_selectivity(&sk);
        assert!((s - 0.1).abs() < 0.05, "range selectivity {s}");
        let eq = Predicate::eq("label", Value::Str("rare".into())).estimate_selectivity(&sk);
        assert!((eq - 0.1).abs() < 0.02, "string eq selectivity {eq}");
        let and = Predicate::And(vec![
            Predicate::range("x", Some(Value::UInt64(0)), Some(Value::UInt64(499))),
            Predicate::eq("label", Value::Str("common".into())),
        ])
        .estimate_selectivity(&sk);
        assert!((and - 0.45).abs() < 0.1, "AND selectivity {and}");
    }

    #[test]
    fn referenced_columns_dedup() {
        let p = Predicate::And(vec![
            Predicate::eq("a", Value::UInt64(1)),
            Predicate::Or(vec![
                Predicate::eq("b", Value::UInt64(2)),
                Predicate::eq("a", Value::UInt64(3)),
            ]),
        ]);
        assert_eq!(p.referenced_columns(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn display_is_readable() {
        let p = Predicate::And(vec![
            Predicate::eq("label", Value::Str("animal".into())),
            Predicate::range("t", Some(Value::DateTime(5)), None),
        ]);
        assert_eq!(p.to_string(), "(label = 'animal' AND t >= dt(5))");
    }

    // ---- bitset path ≡ row path, on the cells where an `f64` shortcut lies

    const P53: u64 = 1 << 53;
    const U64_POOL: &[u64] =
        &[0, 1, P53 - 1, P53, P53 + 1, P53 + 2, i64::MAX as u64, 1 << 63, u64::MAX - 1, u64::MAX];
    const I64_POOL: &[i64] = &[
        i64::MIN,
        i64::MIN + 1,
        -(P53 as i64) - 1,
        -(P53 as i64),
        -1,
        0,
        1,
        P53 as i64,
        P53 as i64 + 1,
        i64::MAX - 1,
        i64::MAX,
    ];
    const STR_POOL: &[&str] = &["", "a", "ab", "animal", "b", "plant"];
    /// One column per type; the test table has them all.
    const COLUMNS: &[&str] = &["u", "i", "f", "s", "t", "v"];

    fn f64_pool() -> Vec<f64> {
        vec![
            f64::NAN,
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            P53 as f64,
            (P53 + 2) as f64,
            -(P53 as f64),
            i64::MAX as f64,
            u64::MAX as f64,
            f64::INFINITY,
        ]
    }

    /// Every cell value of every type, plus the two unordered literals.
    fn literal_pool() -> Vec<Value> {
        let mut pool: Vec<Value> = Vec::new();
        pool.extend(U64_POOL.iter().map(|&x| Value::UInt64(x)));
        pool.extend(U64_POOL.iter().map(|&x| Value::DateTime(x)));
        pool.extend(I64_POOL.iter().map(|&x| Value::Int64(x)));
        pool.extend(f64_pool().into_iter().map(Value::Float64));
        pool.extend(STR_POOL.iter().map(|s| Value::Str(s.to_string())));
        pool.push(Value::Vector(vec![0.0, 1.0]));
        pool.push(Value::Null);
        pool
    }

    /// SplitMix64: the test derives cells and predicate shapes from one seed.
    struct Draw(u64);
    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = self.0;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
            &pool[self.below(pool.len())]
        }
    }

    fn edge_table(d: &mut Draw, n: usize) -> Vec<ColumnData> {
        let floats = f64_pool();
        vec![
            ColumnData::UInt64((0..n).map(|_| *d.pick(U64_POOL)).collect()),
            ColumnData::Int64((0..n).map(|_| *d.pick(I64_POOL)).collect()),
            ColumnData::Float64((0..n).map(|_| *d.pick(&floats)).collect()),
            ColumnData::Str((0..n).map(|_| d.pick(STR_POOL).to_string()).collect()),
            ColumnData::DateTime((0..n).map(|_| *d.pick(U64_POOL)).collect()),
            ColumnData::Vector { dim: 2, data: (0..2 * n).map(|j| (j % 3) as f32).collect() },
        ]
    }

    fn edge_predicate(d: &mut Draw, pool: &[Value], depth: usize) -> Predicate {
        let column = d.pick(COLUMNS).to_string();
        let shapes = if depth == 0 { 4 } else { 7 };
        match d.below(shapes) {
            0 => Predicate::Eq(column, d.pick(pool).clone()),
            1 => {
                // Open, closed and half ranges: each side present 3 times in 4.
                let side = |d: &mut Draw| (d.below(4) > 0).then(|| d.pick(pool).clone());
                let (lo, hi) = (side(d), side(d));
                Predicate::Range {
                    column,
                    lo,
                    hi,
                    lo_open: d.below(2) == 0,
                    hi_open: d.below(2) == 0,
                }
            }
            2 => {
                let vals = (0..d.below(5)).map(|_| d.pick(pool).clone()).collect();
                Predicate::In(column, vals)
            }
            // The binder admits REGEXP on string columns only.
            3 => Predicate::regex("s", ["^a", "an", "b$", "^$"][d.below(4)]).unwrap(),
            4 => Predicate::Not(Box::new(edge_predicate(d, pool, depth - 1))),
            shape => {
                let parts =
                    (0..1 + d.below(3)).map(|_| edge_predicate(d, pool, depth - 1)).collect();
                if shape == 5 {
                    Predicate::And(parts)
                } else {
                    Predicate::Or(parts)
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// Every predicate shape × every column type, with NaN, ±0.0, ±inf,
        /// the integer extremes and the neighbours of 2^53 among the cells
        /// and the literals (of every type, so cross-type comparisons too),
        /// at lengths around the 64-row word: `eval_bitset` answers what
        /// `eval` answers for each row.
        #[test]
        fn bitset_matches_row_eval(
            n in prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(1025)],
            seed in any::<u64>(),
        ) {
            let mut d = Draw(seed);
            let table = edge_table(&mut d, n);
            let columns: Vec<(&str, &ColumnData)> = COLUMNS.iter().copied().zip(&table).collect();
            let pool = literal_pool();
            for _ in 0..4 {
                let p = edge_predicate(&mut d, &pool, 2);
                let bits = p.eval_bitset(&columns, n).unwrap();
                prop_assert_eq!(bits.len(), n);
                for i in 0..n {
                    let r: BTreeMap<String, Value> =
                        columns.iter().map(|(name, col)| (name.to_string(), col.get(i))).collect();
                    prop_assert_eq!(
                        bits.contains(i),
                        p.eval(&r).unwrap(),
                        "row {} of {} under {:?}: cells {:?}", i, n, p, r
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_bitset_count_matches_row_count(
            n in 1usize..200,
            threshold in 0u64..200,
        ) {
            let mut ints = ColumnData::empty(ColumnType::UInt64);
            for i in 0..n {
                ints.push(&Value::UInt64(i as u64)).unwrap();
            }
            let columns = [("x", &ints)];
            let p = Predicate::range("x", None, Some(Value::UInt64(threshold)));
            let bits = p.eval_bitset(&columns, n).unwrap();
            let expect = (0..n).filter(|&i| i as u64 <= threshold).count();
            prop_assert_eq!(bits.count(), expect);
        }

        #[test]
        fn prop_not_is_complement(
            n in 1usize..100,
            m in 1u64..50,
        ) {
            let mut ints = ColumnData::empty(ColumnType::UInt64);
            for i in 0..n {
                ints.push(&Value::UInt64(i as u64 % m)).unwrap();
            }
            let columns = [("x", &ints)];
            let p = Predicate::eq("x", Value::UInt64(0));
            let pos = p.eval_bitset(&columns, n).unwrap();
            let neg = Predicate::Not(Box::new(p)).eval_bitset(&columns, n).unwrap();
            prop_assert_eq!(pos.count() + neg.count(), n);
        }
    }
}
