//! Typed columnar storage for one segment column.
//!
//! Columns are stored type-specialized (no per-cell enum overhead) and are
//! serialized into **blocks** of `BLOCK_ROWS` rows. Block granularity is what
//! makes the paper's read-amplification optimization possible (§IV-C): after
//! a vector search, scalar lookups land on scattered row offsets, and reading
//! only the covering blocks instead of the whole column cuts remote I/O.

use crate::value::{ColumnType, Value};
use bh_common::{BhError, Result};
use bh_vector::codec::{Reader, Writer};
use bytes::Bytes;
use std::cmp::Ordering;

/// Rows per serialized block. Kept small relative to segment sizes so the
/// fine-grained read path has real granularity to exploit.
pub const BLOCK_ROWS: usize = 1024;

/// In-memory column data.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variants mirror ColumnType one-to-one
pub enum ColumnData {
    UInt64(Vec<u64>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Str(Vec<String>),
    DateTime(Vec<u64>),
    /// Row-major fixed-dim vectors.
    Vector { dim: usize, data: Vec<f32> },
}

impl ColumnData {
    /// An empty column of the given type (vector dim from schema/index).
    pub fn empty(ty: ColumnType) -> ColumnData {
        match ty {
            ColumnType::UInt64 => ColumnData::UInt64(Vec::new()),
            ColumnType::Int64 => ColumnData::Int64(Vec::new()),
            ColumnType::Float64 => ColumnData::Float64(Vec::new()),
            ColumnType::Str => ColumnData::Str(Vec::new()),
            ColumnType::DateTime => ColumnData::DateTime(Vec::new()),
            ColumnType::Vector(dim) => ColumnData::Vector { dim, data: Vec::new() },
        }
    }

    /// The column's type.
    pub fn ty(&self) -> ColumnType {
        match self {
            ColumnData::UInt64(_) => ColumnType::UInt64,
            ColumnData::Int64(_) => ColumnType::Int64,
            ColumnData::Float64(_) => ColumnType::Float64,
            ColumnData::Str(_) => ColumnType::Str,
            ColumnData::DateTime(_) => ColumnType::DateTime,
            ColumnData::Vector { dim, .. } => ColumnType::Vector(*dim),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::UInt64(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::DateTime(v) => v.len(),
            ColumnData::Vector { dim, data } => {
                if *dim == 0 {
                    0
                } else {
                    data.len() / dim
                }
            }
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value; the value must conform to the column type.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (ColumnData::UInt64(col), Value::UInt64(x)) => col.push(*x),
            (ColumnData::Int64(col), Value::Int64(x)) => col.push(*x),
            (ColumnData::Float64(col), Value::Float64(x)) => col.push(*x),
            (ColumnData::Str(col), Value::Str(x)) => col.push(x.clone()),
            (ColumnData::DateTime(col), Value::DateTime(x)) => col.push(*x),
            (ColumnData::Vector { dim, data }, Value::Vector(x)) => {
                if *dim == 0 {
                    *dim = x.len();
                }
                if x.len() != *dim {
                    return Err(BhError::DimensionMismatch { expected: *dim, got: x.len() });
                }
                data.extend_from_slice(x);
            }
            (col, v) => {
                return Err(BhError::InvalidArgument(format!(
                    "cannot append {v} to {} column",
                    col.ty().name()
                )))
            }
        }
        Ok(())
    }

    /// Read one cell as a [`Value`].
    pub fn get(&self, row: usize) -> Value {
        match self {
            ColumnData::UInt64(v) => Value::UInt64(v[row]),
            ColumnData::Int64(v) => Value::Int64(v[row]),
            ColumnData::Float64(v) => Value::Float64(v[row]),
            ColumnData::Str(v) => Value::Str(v[row].clone()),
            ColumnData::DateTime(v) => Value::DateTime(v[row]),
            ColumnData::Vector { dim, data } => {
                Value::Vector(data[row * dim..(row + 1) * dim].to_vec())
            }
        }
    }

    /// How row `a` orders against row `b`: what
    /// [`Value::partial_cmp_scalar`] says of the two cells, without making
    /// them. Vector cells have no order and compare equal.
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        match self {
            ColumnData::UInt64(v) | ColumnData::DateTime(v) => v[a].cmp(&v[b]),
            ColumnData::Int64(v) => v[a].cmp(&v[b]),
            ColumnData::Float64(v) => v[a].total_cmp(&v[b]),
            ColumnData::Str(v) => v[a].cmp(&v[b]),
            ColumnData::Vector { .. } => Ordering::Equal,
        }
    }

    /// How row `a` orders against row `b` under a key of several columns:
    /// the first column that tells them apart decides.
    pub fn cmp_key(key: &[&ColumnData], a: usize, b: usize) -> Ordering {
        key.iter().map(|c| c.cmp_rows(a, b)).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    }

    /// Direct vector slice access (hot path for index builds and refine).
    pub fn vector_at(&self, row: usize) -> Option<&[f32]> {
        match self {
            ColumnData::Vector { dim, data } => Some(&data[row * dim..(row + 1) * dim]),
            _ => None,
        }
    }

    /// Raw f32 payload of a vector column.
    pub fn vector_data(&self) -> Option<(&[f32], usize)> {
        match self {
            ColumnData::Vector { dim, data } => Some((data, *dim)),
            _ => None,
        }
    }

    /// Approximate in-memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            ColumnData::UInt64(v) | ColumnData::DateTime(v) => v.len() * 8,
            ColumnData::Int64(v) => v.len() * 8,
            ColumnData::Float64(v) => v.len() * 8,
            ColumnData::Str(v) => v.iter().map(|s| s.len() + 24).sum(),
            ColumnData::Vector { data, .. } => data.len() * 4,
        }
    }

    /// Number of serialized blocks for this column.
    pub fn block_count(&self) -> usize {
        self.len().div_ceil(BLOCK_ROWS)
    }

    /// Which block a row offset falls into.
    pub fn block_of(row: usize) -> usize {
        row / BLOCK_ROWS
    }

    /// Serialize rows `[start, end)` (one block when aligned).
    fn encode_rows(&self, w: &mut Writer, start: usize, end: usize) {
        match self {
            ColumnData::UInt64(v) | ColumnData::DateTime(v) => w.put_u64_slice(&v[start..end]),
            ColumnData::Int64(v) => {
                w.put_u64(v[start..end].len() as u64);
                for &x in &v[start..end] {
                    w.put_u64(x as u64);
                }
            }
            ColumnData::Float64(v) => {
                w.put_u64(v[start..end].len() as u64);
                for &x in &v[start..end] {
                    w.put_f64(x);
                }
            }
            ColumnData::Str(v) => {
                w.put_u64(v[start..end].len() as u64);
                for s in &v[start..end] {
                    w.put_str(s);
                }
            }
            ColumnData::Vector { dim, data } => {
                w.put_f32_slice(&data[start * dim..end * dim]);
            }
        }
    }

    fn decode_rows(ty: ColumnType, r: &mut Reader<'_>) -> Result<ColumnData> {
        Ok(match ty {
            ColumnType::UInt64 => ColumnData::UInt64(r.get_u64_vec()?),
            ColumnType::DateTime => ColumnData::DateTime(r.get_u64_vec()?),
            ColumnType::Int64 => {
                let n = r.get_u64()? as usize;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.get_u64()? as i64);
                }
                ColumnData::Int64(v)
            }
            ColumnType::Float64 => {
                let n = r.get_u64()? as usize;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.get_f64()?);
                }
                ColumnData::Float64(v)
            }
            ColumnType::Str => {
                let n = r.get_u64()? as usize;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.get_str()?);
                }
                ColumnData::Str(v)
            }
            ColumnType::Vector(dim) => {
                let data = r.get_f32_vec()?;
                if dim != 0 && !data.is_empty() && data.len() % dim != 0 {
                    return Err(BhError::Serde("vector block not a multiple of dim".into()));
                }
                ColumnData::Vector { dim, data }
            }
        })
    }

    /// Serialize one block (`idx`-th group of `BLOCK_ROWS` rows).
    pub fn encode_block(&self, idx: usize) -> Bytes {
        let start = idx * BLOCK_ROWS;
        let end = ((idx + 1) * BLOCK_ROWS).min(self.len());
        let mut w = Writer::new();
        self.encode_rows(&mut w, start, end.max(start));
        w.finish()
    }

    /// Deserialize one block back into a (short) column.
    pub fn decode_block(ty: ColumnType, bytes: &[u8]) -> Result<ColumnData> {
        let mut r = Reader::new(bytes);
        Self::decode_rows(ty, &mut r)
    }

    /// Append all rows of another same-typed column.
    pub fn extend_from(&mut self, other: &ColumnData) -> Result<()> {
        match (self, other) {
            (ColumnData::UInt64(a), ColumnData::UInt64(b)) => a.extend_from_slice(b),
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend_from_slice(b),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend_from_slice(b),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.extend_from_slice(b),
            (ColumnData::DateTime(a), ColumnData::DateTime(b)) => a.extend_from_slice(b),
            (
                ColumnData::Vector { dim: da, data: a },
                ColumnData::Vector { dim: db, data: b },
            ) => {
                if *da == 0 {
                    *da = *db;
                }
                if !b.is_empty() && *da != *db {
                    return Err(BhError::DimensionMismatch { expected: *da, got: *db });
                }
                a.extend_from_slice(b);
            }
            (a, b) => {
                return Err(BhError::InvalidArgument(format!(
                    "cannot extend {} column with {}",
                    a.ty().name(),
                    b.ty().name()
                )))
            }
        }
        Ok(())
    }

    /// The typed gather: append the cells at `rows` to `out` in the order
    /// given (any order, repeats allowed) with no [`Value`] per cell. `rows`
    /// are offsets into the column `self` is a part of, `base` the offset of
    /// `self`'s first row there (0 for a whole column, the block's first
    /// row for a decoded block).
    pub fn gather_into(&self, rows: &[u32], base: usize, out: &mut ColumnData) -> Result<()> {
        fn pick<T: Clone>(src: &[T], rows: &[u32], base: usize, out: &mut Vec<T>) -> Result<()> {
            out.reserve(rows.len());
            for &r in rows {
                let cell = (r as usize).checked_sub(base).and_then(|i| src.get(i));
                out.push(cell.ok_or_else(|| out_of_range(r, base, src.len()))?.clone());
            }
            Ok(())
        }
        match (self, out) {
            (ColumnData::UInt64(s), ColumnData::UInt64(o))
            | (ColumnData::DateTime(s), ColumnData::DateTime(o)) => pick(s, rows, base, o),
            (ColumnData::Int64(s), ColumnData::Int64(o)) => pick(s, rows, base, o),
            (ColumnData::Float64(s), ColumnData::Float64(o)) => pick(s, rows, base, o),
            (ColumnData::Str(s), ColumnData::Str(o)) => pick(s, rows, base, o),
            (ColumnData::Vector { dim, data }, ColumnData::Vector { dim: out_dim, data: o }) => {
                if *out_dim == 0 {
                    *out_dim = *dim;
                }
                if out_dim != dim {
                    return Err(BhError::DimensionMismatch { expected: *out_dim, got: *dim });
                }
                o.reserve(rows.len() * dim);
                for &r in rows {
                    let row = (r as usize)
                        .checked_sub(base)
                        .and_then(|i| data.get(i * dim..(i + 1) * dim));
                    o.extend_from_slice(row.ok_or_else(|| out_of_range(r, base, self.len()))?);
                }
                Ok(())
            }
            (a, b) => Err(BhError::InvalidArgument(format!(
                "cannot gather {} cells into a {} column",
                a.ty().name(),
                b.ty().name()
            ))),
        }
    }

    /// The cells as [`Value`]s, strings moved out rather than cloned.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            ColumnData::UInt64(v) => v.into_iter().map(Value::UInt64).collect(),
            ColumnData::Int64(v) => v.into_iter().map(Value::Int64).collect(),
            ColumnData::Float64(v) => v.into_iter().map(Value::Float64).collect(),
            ColumnData::Str(v) => v.into_iter().map(Value::Str).collect(),
            ColumnData::DateTime(v) => v.into_iter().map(Value::DateTime).collect(),
            ColumnData::Vector { dim, data } => {
                data.chunks_exact(dim.max(1)).map(|row| Value::Vector(row.to_vec())).collect()
            }
        }
    }
}

fn out_of_range(row: u32, base: usize, len: usize) -> BhError {
    BhError::Internal(format!("row {row} outside rows {base}..{} of the column part", base + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str_col(n: usize) -> ColumnData {
        let mut c = ColumnData::empty(ColumnType::Str);
        for i in 0..n {
            c.push(&Value::Str(format!("row-{i}"))).unwrap();
        }
        c
    }

    #[test]
    fn push_and_get_all_types() {
        let mut u = ColumnData::empty(ColumnType::UInt64);
        u.push(&Value::UInt64(7)).unwrap();
        assert_eq!(u.get(0), Value::UInt64(7));

        let mut i = ColumnData::empty(ColumnType::Int64);
        i.push(&Value::Int64(-7)).unwrap();
        assert_eq!(i.get(0), Value::Int64(-7));

        let mut f = ColumnData::empty(ColumnType::Float64);
        f.push(&Value::Float64(0.5)).unwrap();
        assert_eq!(f.get(0), Value::Float64(0.5));

        let mut d = ColumnData::empty(ColumnType::DateTime);
        d.push(&Value::DateTime(99)).unwrap();
        assert_eq!(d.get(0), Value::DateTime(99));

        let mut v = ColumnData::empty(ColumnType::Vector(2));
        v.push(&Value::Vector(vec![1.0, 2.0])).unwrap();
        assert_eq!(v.get(0), Value::Vector(vec![1.0, 2.0]));
        assert_eq!(v.vector_at(0).unwrap(), &[1.0, 2.0]);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut u = ColumnData::empty(ColumnType::UInt64);
        assert!(u.push(&Value::Str("x".into())).is_err());
        let mut v = ColumnData::empty(ColumnType::Vector(2));
        assert!(v.push(&Value::Vector(vec![1.0])).is_err());
    }

    #[test]
    fn dimless_vector_column_locks_on_first_push() {
        let mut v = ColumnData::empty(ColumnType::Vector(0));
        v.push(&Value::Vector(vec![1.0, 2.0, 3.0])).unwrap();
        assert_eq!(v.ty(), ColumnType::Vector(3));
        assert!(v.push(&Value::Vector(vec![1.0])).is_err());
    }

    /// Every block encoded and decoded in turn, reassembled (what a segment
    /// persists and loads).
    fn roundtrip(col: &ColumnData) -> ColumnData {
        let mut back = ColumnData::empty(col.ty());
        for b in 0..col.block_count() {
            let part = ColumnData::decode_block(col.ty(), &col.encode_block(b)).unwrap();
            back.extend_from(&part).unwrap();
        }
        back
    }

    #[test]
    fn full_roundtrip_multi_block() {
        let n = BLOCK_ROWS * 2 + 17;
        let col = str_col(n);
        assert_eq!(col.block_count(), 3);
        assert_eq!(roundtrip(&col), col);
    }

    #[test]
    fn block_roundtrip() {
        let n = BLOCK_ROWS + 5;
        let mut col = ColumnData::empty(ColumnType::UInt64);
        for i in 0..n {
            col.push(&Value::UInt64(i as u64)).unwrap();
        }
        let b1 = col.encode_block(1);
        let part = ColumnData::decode_block(ColumnType::UInt64, &b1).unwrap();
        assert_eq!(part.len(), 5);
        assert_eq!(part.get(0), Value::UInt64(BLOCK_ROWS as u64));
        assert_eq!(ColumnData::block_of(BLOCK_ROWS), 1);
        assert_eq!(ColumnData::block_of(BLOCK_ROWS - 1), 0);
    }

    #[test]
    fn vector_column_roundtrip() {
        let mut col = ColumnData::empty(ColumnType::Vector(3));
        for i in 0..10 {
            col.push(&Value::Vector(vec![i as f32; 3])).unwrap();
        }
        let back = roundtrip(&col);
        assert_eq!(back, col);
        let (data, dim) = back.vector_data().unwrap();
        assert_eq!(dim, 3);
        assert_eq!(data.len(), 30);
    }

    #[test]
    fn corrupt_column_blob_rejected() {
        let blob = str_col(10).encode_block(0);
        assert!(ColumnData::decode_block(ColumnType::Str, &blob[..blob.len() / 2]).is_err());
        // Read as the wrong type: 10 values are not a whole number of 7-d rows.
        assert!(ColumnData::decode_block(ColumnType::Vector(7), &blob).is_err());
    }

    #[test]
    fn gather_answers_in_request_order() {
        let col = str_col(20);
        let mut sub = ColumnData::empty(ColumnType::Str);
        col.gather_into(&[19, 0, 5, 5], 0, &mut sub).unwrap();
        assert_eq!(
            sub.into_values(),
            ["row-19", "row-0", "row-5", "row-5"].map(|s| Value::Str(s.into()))
        );
        // A part that starts at row 16 of its column (a decoded block).
        let mut vecs = ColumnData::empty(ColumnType::Vector(2));
        for i in 16..20 {
            vecs.push(&Value::Vector(vec![i as f32, 0.5])).unwrap();
        }
        let mut out = ColumnData::empty(ColumnType::Vector(2));
        vecs.gather_into(&[19, 16], 16, &mut out).unwrap();
        assert_eq!(out.vector_at(0).unwrap(), &[19.0, 0.5]);
        assert_eq!(out.vector_at(1).unwrap(), &[16.0, 0.5]);
        // Rows outside the part, and a target of another type, are errors.
        assert!(vecs.gather_into(&[15], 16, &mut out).is_err());
        assert!(vecs.gather_into(&[20], 16, &mut out).is_err());
        assert!(col.gather_into(&[0], 0, &mut out).is_err());
    }

    #[test]
    fn cmp_rows_is_the_value_order() {
        let cols = [
            ColumnData::UInt64(vec![3, 1, 3, u64::MAX]),
            ColumnData::Int64(vec![-2, 5, -2, i64::MIN]),
            ColumnData::Float64(vec![0.0, -0.0, f64::NAN, f64::NEG_INFINITY]),
            ColumnData::Str(vec!["b".into(), "a".into(), "b".into(), String::new()]),
            ColumnData::DateTime(vec![9, 9, 0, 1]),
            ColumnData::Vector { dim: 1, data: vec![1.0, 0.0, 2.0, 1.0] },
        ];
        for col in &cols {
            for a in 0..4 {
                for b in 0..4 {
                    let want =
                        col.get(a).partial_cmp_scalar(&col.get(b)).unwrap_or(Ordering::Equal);
                    assert_eq!(col.cmp_rows(a, b), want, "{:?} rows {a}, {b}", col.ty());
                }
            }
        }
    }

    #[test]
    fn extend_from_merges() {
        let mut a = str_col(3);
        let b = str_col(2);
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 5);
        let mut v = ColumnData::empty(ColumnType::Vector(0));
        let w = {
            let mut w = ColumnData::empty(ColumnType::Vector(2));
            w.push(&Value::Vector(vec![1.0, 2.0])).unwrap();
            w
        };
        v.extend_from(&w).unwrap();
        assert_eq!(v.ty(), ColumnType::Vector(2));
        let bad = ColumnData::empty(ColumnType::UInt64);
        assert!(v.extend_from(&bad).is_err());
    }

    #[test]
    fn empty_column_encodes() {
        let col = ColumnData::empty(ColumnType::UInt64);
        assert_eq!(col.block_count(), 0);
        let blob = col.encode_block(0);
        assert!(ColumnData::decode_block(ColumnType::UInt64, &blob).unwrap().is_empty());
    }
}
