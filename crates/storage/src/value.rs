//! Cell values and column types.

use bh_common::{BhError, Result};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// The data types BlendHouse tables support — the subset the paper's hybrid
/// queries exercise (Example 1 and the LAION workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// Unsigned 64-bit integer.
    UInt64,
    /// Signed 64-bit integer.
    Int64,
    /// 64-bit float.
    Float64,
    /// UTF-8 string.
    Str,
    /// Seconds since epoch, SQL-visible as `DateTime`.
    DateTime,
    /// Fixed-dimension `Array(Float32)` embedding column.
    Vector(usize),
}

impl ColumnType {
    /// Parse the SQL type name.
    pub fn parse(s: &str) -> Result<ColumnType> {
        let t = s.trim();
        let upper = t.to_ascii_uppercase();
        match upper.as_str() {
            "UINT64" => Ok(ColumnType::UInt64),
            "INT64" => Ok(ColumnType::Int64),
            "FLOAT64" | "DOUBLE" | "FLOAT" => Ok(ColumnType::Float64),
            "STRING" | "TEXT" => Ok(ColumnType::Str),
            "DATETIME" => Ok(ColumnType::DateTime),
            _ => {
                // ARRAY(FLOAT32) — dimension supplied by the index definition.
                if upper.replace(' ', "") == "ARRAY(FLOAT32)" {
                    Ok(ColumnType::Vector(0))
                } else {
                    Err(BhError::Parse(format!("unknown column type: {t}")))
                }
            }
        }
    }

    /// SQL-facing type name.
    pub fn name(&self) -> String {
        match self {
            ColumnType::UInt64 => "UInt64".into(),
            ColumnType::Int64 => "Int64".into(),
            ColumnType::Float64 => "Float64".into(),
            ColumnType::Str => "String".into(),
            ColumnType::DateTime => "DateTime".into(),
            ColumnType::Vector(d) => format!("Array(Float32) /* dim={d} */"),
        }
    }

    /// Is this an embedding column type?
    pub fn is_vector(&self) -> bool {
        matches!(self, ColumnType::Vector(_))
    }
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Unsigned integer cell.
    UInt64(u64),
    /// Signed integer cell.
    Int64(i64),
    /// Float cell.
    Float64(f64),
    /// String cell.
    Str(String),
    /// Seconds since epoch.
    DateTime(u64),
    /// Embedding cell.
    Vector(Vec<f32>),
    /// Absent value (results only; not storable).
    Null,
}

impl Value {
    /// Column type this value belongs to (`None` for `Null`).
    pub fn type_of(&self) -> Option<ColumnType> {
        match self {
            Value::UInt64(_) => Some(ColumnType::UInt64),
            Value::Int64(_) => Some(ColumnType::Int64),
            Value::Float64(_) => Some(ColumnType::Float64),
            Value::Str(_) => Some(ColumnType::Str),
            Value::DateTime(_) => Some(ColumnType::DateTime),
            Value::Vector(v) => Some(ColumnType::Vector(v.len())),
            Value::Null => None,
        }
    }

    /// Check the value can be stored in a column of `ty` (Null always can).
    pub fn conforms_to(&self, ty: ColumnType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Vector(v), ColumnType::Vector(d)) => d == 0 || v.len() == d,
            (v, t) => v.type_of() == Some(t),
        }
    }

    /// Total order over same-type scalar values; cross-type numeric values
    /// compare through f64. Vectors and Null are unordered (`None`).
    pub fn partial_cmp_scalar(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (UInt64(a), UInt64(b)) => Some(a.cmp(b)),
            (Int64(a), Int64(b)) => Some(a.cmp(b)),
            (DateTime(a), DateTime(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Float64(a), Float64(b)) => Some(a.total_cmp(b)),
            // Cross-numeric comparisons via f64.
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Some(x.total_cmp(&y)),
                _ => None,
            },
        }
    }

    /// Numeric view of the value, if it has one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt64(v) => Some(*v as f64),
            Value::Int64(v) => Some(*v as f64),
            Value::Float64(v) => Some(*v),
            Value::DateTime(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String view, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Is this `Null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::UInt64(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::DateTime(v) => write!(f, "dt({v})"),
            Value::Vector(v) => write!(f, "[{} floats]", v.len()),
            Value::Null => write!(f, "NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_parse() {
        assert_eq!(ColumnType::parse("UInt64").unwrap(), ColumnType::UInt64);
        assert_eq!(ColumnType::parse("string").unwrap(), ColumnType::Str);
        assert_eq!(ColumnType::parse("Array(Float32)").unwrap(), ColumnType::Vector(0));
        assert_eq!(ColumnType::parse("ARRAY( FLOAT32 )").unwrap(), ColumnType::Vector(0));
        assert!(ColumnType::parse("Array(Int8)").is_err());
    }

    #[test]
    fn conformance() {
        assert!(Value::UInt64(1).conforms_to(ColumnType::UInt64));
        assert!(!Value::UInt64(1).conforms_to(ColumnType::Int64));
        assert!(Value::Null.conforms_to(ColumnType::Str));
        assert!(Value::Vector(vec![0.0; 4]).conforms_to(ColumnType::Vector(4)));
        assert!(!Value::Vector(vec![0.0; 3]).conforms_to(ColumnType::Vector(4)));
        assert!(Value::Vector(vec![0.0; 3]).conforms_to(ColumnType::Vector(0)));
    }

    #[test]
    fn ordering_same_type() {
        assert_eq!(
            Value::Str("a".into()).partial_cmp_scalar(&Value::Str("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(Value::UInt64(5).partial_cmp_scalar(&Value::UInt64(5)), Some(Ordering::Equal));
        assert_eq!(
            Value::DateTime(10).partial_cmp_scalar(&Value::DateTime(2)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn ordering_cross_numeric() {
        assert_eq!(
            Value::UInt64(3).partial_cmp_scalar(&Value::Float64(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int64(-1).partial_cmp_scalar(&Value::UInt64(0)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn vectors_and_null_unordered() {
        assert_eq!(Value::Vector(vec![1.0]).partial_cmp_scalar(&Value::Vector(vec![1.0])), None);
        assert_eq!(Value::Null.partial_cmp_scalar(&Value::UInt64(1)), None);
        assert_eq!(Value::Str("x".into()).partial_cmp_scalar(&Value::UInt64(1)), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Str("hi".into()).to_string(), "'hi'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Vector(vec![0.0; 3]).to_string(), "[3 floats]");
    }
}
