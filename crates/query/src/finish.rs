//! The finishing step of every scalar SELECT, on a data table or a
//! `system.*` snapshot: sort, LIMIT, then project or aggregate the rows
//! that passed the filter.

use crate::bind::{AggFunc, AggItem, BoundSelect, ProjItem};
use crate::result::ResultSet;
use bh_common::{BhError, Result};
use bh_storage::value::{ColumnType, Value};
use std::cmp::Ordering;

/// Finish a scalar statement over the rows that passed its filter, in scan
/// order. Each row holds the cells of [`BoundSelect::finish_columns`], in
/// that order.
///
/// The sort is stable (ties keep scan order) and compares by
/// [`Value::partial_cmp_scalar`]. An aggregate folds every row; LIMIT caps
/// the rows output, not the rows folded.
pub fn finish_scalar(bound: &BoundSelect, mut rows: Vec<Vec<Value>>) -> Result<ResultSet> {
    let columns = bound.finish_columns();
    let slot = |c: &str| {
        columns.iter().position(|n| *n == c).ok_or_else(|| {
            BhError::Internal(format!("column {c} is not among the columns finished"))
        })
    };
    if !bound.scalar_order.is_empty() {
        let keys = bound
            .scalar_order
            .iter()
            .map(|(c, asc)| Ok((slot(c)?, *asc)))
            .collect::<Result<Vec<_>>>()?;
        rows.sort_by(|a, b| {
            keys.iter()
                .map(|&(at, asc)| {
                    let (x, y) = if asc { (a, b) } else { (b, a) };
                    x[at].partial_cmp_scalar(&y[at]).unwrap_or(Ordering::Equal)
                })
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
    }
    let mut out = ResultSet::new(bound.projection.iter().map(|p| p.name().to_string()).collect());
    let limit = bound.limit.unwrap_or(usize::MAX);
    if bound.is_aggregate() {
        let folded = bound
            .projection
            .iter()
            .map(|p| match p {
                ProjItem::Aggregate(agg) => {
                    let at = agg.column.as_ref().map(|(c, _)| slot(c)).transpose()?;
                    fold(agg, at, &rows)
                }
                _ => Err(BhError::Internal("a plain item in an aggregate projection".into())),
            })
            .collect::<Result<Vec<Value>>>()?;
        out.rows.push(folded);
        out.rows.truncate(limit);
        return Ok(out);
    }
    rows.truncate(limit);
    let slots = bound
        .projection
        .iter()
        .map(|p| match p {
            ProjItem::Column { column, .. } => slot(column),
            _ => Err(BhError::Internal(format!("{} is not a scalar column", p.name()))),
        })
        .collect::<Result<Vec<usize>>>()?;
    out.rows = rows.into_iter().map(|r| slots.iter().map(|&at| r[at].clone()).collect()).collect();
    Ok(out)
}

/// One aggregate over `rows`, its argument at `at` (`None`: `count(*)`).
/// `sum` folds Int64 in i128, UInt64 and DateTime in u128 and Float64 in
/// f64, and a sum its output type cannot hold is an error; `min`, `max` and
/// `avg` over no rows are NULL.
fn fold(agg: &AggItem, at: Option<usize>, rows: &[Vec<Value>]) -> Result<Value> {
    let (Some(at), Some((_, ty))) = (at, &agg.column) else {
        return Ok(Value::UInt64(rows.len() as u64));
    };
    let cells = || rows.iter().map(|r| &r[at]).filter(|v| !v.is_null());
    let overflow = |out: &str| BhError::InvalidArgument(format!("{} overflows {out}", agg.name));
    Ok(match agg.func {
        AggFunc::Count => Value::UInt64(cells().count() as u64),
        AggFunc::Sum => match ty {
            ColumnType::Float64 => Value::Float64(cells().filter_map(Value::as_f64).sum()),
            ColumnType::Int64 => {
                let s: i128 = cells()
                    .filter_map(|v| match v {
                        Value::Int64(x) => Some(i128::from(*x)),
                        _ => None,
                    })
                    .sum();
                Value::Int64(i64::try_from(s).map_err(|_| overflow("Int64"))?)
            }
            _ => {
                let s: u128 = cells()
                    .filter_map(|v| match v {
                        Value::UInt64(x) | Value::DateTime(x) => Some(u128::from(*x)),
                        _ => None,
                    })
                    .sum();
                Value::UInt64(u64::try_from(s).map_err(|_| overflow("UInt64"))?)
            }
        },
        AggFunc::Min | AggFunc::Max => {
            let want = if agg.func == AggFunc::Min { Ordering::Less } else { Ordering::Greater };
            cells()
                .reduce(|best, v| if v.partial_cmp_scalar(best) == Some(want) { v } else { best })
                .cloned()
                .unwrap_or(Value::Null)
        }
        AggFunc::Avg => {
            let (sum, n) = cells()
                .filter_map(Value::as_f64)
                .fold((0.0f64, 0u64), |(sum, n), x| (sum + x, n + 1));
            if n == 0 {
                Value::Null
            } else {
                Value::Float64(sum / n as f64)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(func: AggFunc, ty: ColumnType) -> AggItem {
        AggItem { func, column: Some(("x".into(), ty)), name: "x".into() }
    }

    fn rows(vals: Vec<Value>) -> Vec<Vec<Value>> {
        vals.into_iter().map(|v| vec![v]).collect()
    }

    #[test]
    fn folds_over_cells_and_over_no_rows() {
        let ints = rows(vec![Value::Int64(i64::MAX), Value::Int64(1), Value::Int64(-2)]);
        assert_eq!(
            fold(&agg(AggFunc::Sum, ColumnType::Int64), Some(0), &ints).unwrap(),
            Value::Int64(i64::MAX - 1)
        );
        let uints = rows(vec![Value::UInt64(u64::MAX), Value::UInt64(1)]);
        assert_eq!(
            fold(&agg(AggFunc::Max, ColumnType::UInt64), Some(0), &uints).unwrap(),
            Value::UInt64(u64::MAX)
        );
        let none = |func| fold(&agg(func, ColumnType::Int64), Some(0), &[]).unwrap();
        assert_eq!(none(AggFunc::Avg), Value::Null);
        assert_eq!(none(AggFunc::Count), Value::UInt64(0));
    }

    /// A sum its output type cannot hold fails instead of wrapping; the
    /// wide intermediate still lets a sum pass through and come back.
    #[test]
    fn a_sum_past_its_output_type_is_an_error() {
        let sum = |ty, vals| fold(&agg(AggFunc::Sum, ty), Some(0), &rows(vals));
        let fails = |ty, vals| matches!(sum(ty, vals), Err(BhError::InvalidArgument(_)));
        let (u, i, t) = (Value::UInt64, Value::Int64, Value::DateTime);
        assert!(fails(ColumnType::UInt64, vec![u(u64::MAX), u(1)]));
        assert!(fails(ColumnType::DateTime, vec![t(u64::MAX), t(1)]));
        assert_eq!(sum(ColumnType::UInt64, vec![u(u64::MAX), u(0)]).unwrap(), u(u64::MAX));
        assert!(fails(ColumnType::Int64, vec![i(i64::MAX), i(1)]));
        assert!(fails(ColumnType::Int64, vec![i(i64::MIN), i(-1)]));
        assert_eq!(sum(ColumnType::Int64, vec![i(i64::MIN), i(-1), i(1)]).unwrap(), i(i64::MIN));
    }
}
