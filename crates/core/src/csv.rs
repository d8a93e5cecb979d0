//! CSV ingestion (`INSERT INTO t CSV INFILE '…'`).
//!
//! A small CSV reader sufficient for the paper's bulk-load workloads:
//! comma-separated fields, double-quote quoting with `""` escapes, and
//! embedding cells written as bracketed float lists (`"[0.1, 0.2]"` or
//! unquoted `[0.1;0.2]` with semicolon separators).

use bh_common::{BhError, Result};
use bh_storage::schema::TableSchema;
use bh_storage::value::{ColumnType, Value};

/// Split one CSV line into raw fields (commas inside quotes or brackets do
/// not split).
pub fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut bracket_depth = 0usize;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            '[' if !in_quotes => {
                bracket_depth += 1;
                cur.push(c);
            }
            ']' if !in_quotes => {
                bracket_depth = bracket_depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if !in_quotes && bracket_depth == 0 => {
                fields.push(std::mem::take(&mut cur));
            }
            other => cur.push(other),
        }
    }
    fields.push(cur);
    fields
}

/// Parse one field against a column type.
pub fn parse_field(field: &str, ty: ColumnType, dim_hint: usize) -> Result<Value> {
    let f = field.trim();
    let bad = |what: &str| BhError::Parse(format!("csv field '{f}' is not a valid {what}"));
    Ok(match ty {
        ColumnType::UInt64 => Value::UInt64(f.parse().map_err(|_| bad("UInt64"))?),
        ColumnType::Int64 => Value::Int64(f.parse().map_err(|_| bad("Int64"))?),
        ColumnType::Float64 => Value::Float64(f.parse().map_err(|_| bad("Float64"))?),
        ColumnType::Str => Value::Str(f.to_string()),
        ColumnType::DateTime => {
            // Numeric epoch or "YYYY-MM-DD HH:MM:SS".
            if let Ok(epoch) = f.parse::<u64>() {
                Value::DateTime(epoch)
            } else {
                Value::DateTime(bh_query::bind::parse_datetime(f)?)
            }
        }
        ColumnType::Vector(d) => {
            let inner = f
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .ok_or_else(|| bad("vector (expected [a, b, …])"))?;
            let mut v = Vec::new();
            for part in inner.split([',', ';']) {
                let p = part.trim();
                if p.is_empty() {
                    continue;
                }
                v.push(p.parse::<f32>().map_err(|_| bad("vector element"))?);
            }
            let want = if d != 0 { d } else { dim_hint };
            if want != 0 && v.len() != want {
                return Err(BhError::DimensionMismatch { expected: want, got: v.len() });
            }
            Value::Vector(v)
        }
    })
}

/// Parse full CSV text into rows conforming to the schema (column order =
/// schema order). Blank lines are skipped; an optional header line equal to
/// the column names is skipped too.
pub fn parse_csv(schema: &TableSchema, text: &str) -> Result<Vec<Vec<Value>>> {
    let mut rows = Vec::new();
    let header: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_csv_line(line);
        if lineno == 0 && fields.iter().map(|s| s.trim()).eq(header.iter().copied()) {
            continue; // header row
        }
        if fields.len() != schema.columns.len() {
            return Err(BhError::Parse(format!(
                "csv line {}: {} fields, schema has {} columns",
                lineno + 1,
                fields.len(),
                schema.columns.len()
            )));
        }
        let row: Vec<Value> = fields
            .iter()
            .zip(&schema.columns)
            .map(|(f, def)| {
                let dim_hint = schema.index_on(&def.name).map(|i| i.spec.dim).unwrap_or(0);
                parse_field(f, def.ty, dim_hint)
                    .map_err(|e| BhError::Parse(format!("csv line {}: {e}", lineno + 1)))
            })
            .collect::<Result<_>>()?;
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_vector::{IndexKind, Metric};

    fn schema() -> TableSchema {
        TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("label", ColumnType::Str)
            .with_column("ts", ColumnType::DateTime)
            .with_column("emb", ColumnType::Vector(3))
            .with_vector_index("i", "emb", IndexKind::Hnsw, 3, Metric::L2)
    }

    #[test]
    fn split_handles_quotes_and_brackets() {
        assert_eq!(split_csv_line("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(split_csv_line(r#""a,b",c"#), vec!["a,b", "c"]);
        assert_eq!(split_csv_line(r#""say ""hi""",x"#), vec![r#"say "hi""#, "x"]);
        assert_eq!(split_csv_line("[1.0, 2.0],z"), vec!["[1.0, 2.0]", "z"]);
        assert_eq!(split_csv_line(""), vec![""]);
    }

    #[test]
    fn full_rows_parse() {
        let text = "1,cat,100,[0.1, 0.2, 0.3]\n2,\"a,dog\",2024-01-01 00:00:00,[1;2;3]\n";
        let rows = parse_csv(&schema(), text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::UInt64(1));
        assert_eq!(rows[1][1], Value::Str("a,dog".into()));
        assert_eq!(rows[0][3], Value::Vector(vec![0.1, 0.2, 0.3]));
        assert_eq!(rows[1][3], Value::Vector(vec![1.0, 2.0, 3.0]));
        // DateTime from string form.
        let Value::DateTime(ts) = rows[1][2] else { panic!() };
        assert!(ts > 1_700_000_000);
    }

    #[test]
    fn header_row_skipped() {
        let text = "id,label,ts,emb\n7,x,0,[1,2,3]\n";
        let rows = parse_csv(&schema(), text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::UInt64(7));
    }

    #[test]
    fn arity_and_type_errors_carry_line_numbers() {
        let err = parse_csv(&schema(), "1,x,0\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = parse_csv(&schema(), "notanint,x,0,[1,2,3]\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = parse_csv(&schema(), "1,x,0,[1,2]\n").unwrap_err();
        assert!(err.to_string().contains("dimension mismatch"));
    }

    #[test]
    fn blank_lines_skipped() {
        let rows = parse_csv(&schema(), "\n1,x,0,[1,2,3]\n\n").unwrap();
        assert_eq!(rows.len(), 1);
    }
}
