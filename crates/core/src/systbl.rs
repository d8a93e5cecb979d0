//! `system.*` virtual tables — SQL over live telemetry.
//!
//! ClickHouse/ByteHouse expose their introspection surface as ordinary
//! tables under the `system` database so operators can slice telemetry with
//! the same SELECT grammar they use for data. This module reproduces that:
//! each provider materializes one snapshot of an in-process source (query
//! log ring, metrics registry, slow-query span store, worker caches, segment
//! catalog, lockdep graph) as rows, and a small generic executor applies
//! projection, WHERE, ORDER BY, LIMIT and vector-free aggregates on top.
//!
//! Tables:
//!
//! * `system.query_log` — one row per completed statement (see
//!   [`bh_common::querylog::QueryLogRecord`]).
//! * `system.metrics` — every registered counter/gauge, plus histogram
//!   quantile rows (`<name>.p50_ns` …).
//! * `system.spans` — retained slow-query span trees, one row per span.
//! * `system.caches` — per-worker index and decoded-data cache occupancy and
//!   hit rates.
//! * `system.segments` — per-segment rows, index kind/tier and residency.
//! * `system.lock_classes` — the PR 8 lock rank table with observed
//!   acquisition-edge counts (edges are empty when lockdep is compiled out).
//!
//! Snapshots are point-in-time copies: a scan never holds a telemetry lock
//! while filtering or sorting, so system queries cannot stall the hot path.

use crate::database::Database;
use bh_common::trace::AttrValue;
use bh_common::{sync as bhsync, BhError, Result, StatementWork};
use bh_query::ResultSet;
use bh_sql::ast::{Expr, SelectItem, SelectStmt};
use bh_storage::schema::TableSchema;
use bh_storage::value::{ColumnType, Value};
use std::collections::BTreeMap;

/// Does `name` address a virtual system table? (Any dotted name under the
/// `system.` database — unknown members fail with `NotFound` in
/// [`execute_system_select`], listing the valid tables.)
pub fn is_system_table(name: &str) -> bool {
    name.starts_with("system.")
}

/// All system table names, for error messages and discovery.
pub const SYSTEM_TABLES: &[&str] = &[
    "system.caches",
    "system.lock_classes",
    "system.metrics",
    "system.query_log",
    "system.segments",
    "system.spans",
];

/// One materialized snapshot of a system table.
struct SystemRows {
    /// `(column name, type)` in declaration order. No vector columns.
    columns: Vec<(&'static str, ColumnType)>,
    rows: Vec<Vec<Value>>,
}

/// Execute a SELECT against a `system.*` table.
pub fn execute_system_select(db: &Database, sel: &SelectStmt) -> Result<ResultSet> {
    let snap = match sel.table.as_str() {
        "system.query_log" => query_log_rows(db),
        "system.metrics" => metrics_rows(db),
        "system.spans" => span_rows(db),
        "system.caches" => cache_rows(db),
        "system.segments" => segment_rows(db),
        "system.lock_classes" => lock_class_rows(),
        other => {
            return Err(BhError::NotFound(format!(
                "system table {other} (available: {})",
                SYSTEM_TABLES.join(", ")
            )))
        }
    };
    scan(&snap, sel)
}

// ---------------------------------------------------------------------------
// Generic scan: WHERE → ORDER BY → projection/aggregation → LIMIT.
// ---------------------------------------------------------------------------

fn scan(snap: &SystemRows, sel: &SelectStmt) -> Result<ResultSet> {
    let schema = synthetic_schema(&sel.table, &snap.columns);
    let col_index: BTreeMap<&str, usize> =
        snap.columns.iter().enumerate().map(|(i, (n, _))| (*n, i)).collect();

    // Filter. Predicates bind against the synthetic schema, so system
    // columns get the same literal coercion rules as data columns.
    let mut kept: Vec<&Vec<Value>> = match &sel.where_clause {
        None => snap.rows.iter().collect(),
        Some(e) => {
            let pred = bh_query::bind::bind_predicate(&schema, e)?;
            let mut out = Vec::new();
            for row in &snap.rows {
                if pred.eval(&row_map(&snap.columns, row))? {
                    out.push(row);
                }
            }
            out
        }
    };

    // Sort. ORDER BY names a column of the table (or a projection alias for
    // one); incomparable pairs (Null vs value) sort last.
    if !sel.order_by.is_empty() {
        let mut keys = Vec::with_capacity(sel.order_by.len());
        for item in &sel.order_by {
            let name = order_column(&item.expr, sel)?;
            let idx = *col_index.get(name.as_str()).ok_or_else(|| {
                BhError::Plan(format!("unknown ORDER BY column {name} in {}", sel.table))
            })?;
            keys.push((idx, item.asc));
        }
        kept.sort_by(|a, b| {
            for &(idx, asc) in &keys {
                let ord = a[idx]
                    .partial_cmp_scalar(&b[idx])
                    .unwrap_or(std::cmp::Ordering::Greater);
                let ord = if asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // Projection — either plain columns/star, or all-aggregate. An aggregate
    // folds every row that passed WHERE; LIMIT caps the rows it outputs.
    let limit = sel.limit.map_or(usize::MAX, |n| n as usize);
    if let Some(aggs) = aggregate_projection(sel)? {
        let mut rs = aggregate(&snap.columns, &col_index, &kept, &aggs)?;
        rs.rows.truncate(limit);
        return Ok(rs);
    }
    kept.truncate(limit);

    let mut out_cols = Vec::new();
    let mut idxs = Vec::new();
    for item in &sel.projection {
        match item {
            SelectItem::Star => {
                for (i, (n, _)) in snap.columns.iter().enumerate() {
                    out_cols.push((*n).to_string());
                    idxs.push(i);
                }
            }
            SelectItem::Expr { expr: Expr::Column(c), alias } => {
                let idx = *col_index.get(c.as_str()).ok_or_else(|| {
                    BhError::Plan(format!("unknown column {c} in {}", sel.table))
                })?;
                out_cols.push(alias.clone().unwrap_or_else(|| c.clone()));
                idxs.push(idx);
            }
            other => {
                return Err(BhError::Plan(format!(
                    "system tables support column, * and aggregate projections, got {other:?}"
                )))
            }
        }
    }
    let mut rs = ResultSet::new(out_cols);
    for row in kept {
        rs.rows.push(idxs.iter().map(|&i| row[i].clone()).collect());
    }
    Ok(rs)
}

fn synthetic_schema(table: &str, columns: &[(&'static str, ColumnType)]) -> TableSchema {
    let mut s = TableSchema::new(table);
    for (n, ty) in columns {
        s = s.with_column(n, *ty);
    }
    s
}

fn row_map(columns: &[(&'static str, ColumnType)], row: &[Value]) -> BTreeMap<String, Value> {
    columns
        .iter()
        .zip(row.iter())
        .map(|((n, _), v)| ((*n).to_string(), v.clone()))
        .collect()
}

/// Resolve an ORDER BY expression to a source column name. A bare column
/// name wins; otherwise a projection alias for a plain column is accepted.
fn order_column(e: &Expr, sel: &SelectStmt) -> Result<String> {
    let Expr::Column(name) = e else {
        return Err(BhError::Plan(
            "system tables only support ORDER BY <column> [ASC|DESC]".into(),
        ));
    };
    for item in &sel.projection {
        if let SelectItem::Expr { expr: Expr::Column(c), alias: Some(a) } = item {
            if a == name {
                return Ok(c.clone());
            }
        }
    }
    Ok(name.clone())
}

/// One bound aggregate: function + source column (`None` = `count(*)`).
struct AggItem {
    func: AggFunc,
    column: Option<String>,
    out_name: String,
}

#[derive(Clone, Copy, PartialEq)]
enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// If the projection is made of aggregate calls, return them; a mix of
/// aggregates and plain columns is rejected (no GROUP BY in the dialect).
fn aggregate_projection(sel: &SelectStmt) -> Result<Option<Vec<AggItem>>> {
    let mut aggs = Vec::new();
    let mut plain = 0usize;
    for item in &sel.projection {
        if let SelectItem::Expr { expr: Expr::FuncCall { name, args }, alias } = item {
            let func = match name.to_ascii_lowercase().as_str() {
                "count" => AggFunc::Count,
                "sum" => AggFunc::Sum,
                "min" => AggFunc::Min,
                "max" => AggFunc::Max,
                "avg" => AggFunc::Avg,
                _ => {
                    plain += 1;
                    continue;
                }
            };
            let column = match (func, args.as_slice()) {
                (AggFunc::Count, []) => None,
                (_, [Expr::Column(c)]) => Some(c.clone()),
                _ => {
                    return Err(BhError::Plan(format!(
                        "{name} takes a single column argument (or * for count)"
                    )))
                }
            };
            let out_name = alias.clone().unwrap_or_else(|| match &column {
                Some(c) => format!("{}({c})", name.to_ascii_lowercase()),
                None => "count(*)".into(),
            });
            aggs.push(AggItem { func, column, out_name });
        } else {
            plain += 1;
        }
    }
    if aggs.is_empty() {
        return Ok(None);
    }
    if plain > 0 {
        return Err(BhError::Plan(
            "cannot mix aggregate and plain projections without GROUP BY".into(),
        ));
    }
    Ok(Some(aggs))
}

fn aggregate(
    columns: &[(&'static str, ColumnType)],
    col_index: &BTreeMap<&str, usize>,
    rows: &[&Vec<Value>],
    aggs: &[AggItem],
) -> Result<ResultSet> {
    let mut rs = ResultSet::new(aggs.iter().map(|a| a.out_name.clone()).collect());
    let mut out = Vec::with_capacity(aggs.len());
    for agg in aggs {
        let idx = match &agg.column {
            None => None,
            Some(c) => Some(*col_index.get(c.as_str()).ok_or_else(|| {
                BhError::Plan(format!("unknown aggregate column {c}"))
            })?),
        };
        out.push(eval_agg(agg.func, idx.map(|i| (i, columns[i].1)), rows)?);
    }
    rs.rows.push(out);
    Ok(rs)
}

fn eval_agg(
    func: AggFunc,
    col: Option<(usize, ColumnType)>,
    rows: &[&Vec<Value>],
) -> Result<Value> {
    let Some((idx, ty)) = col else {
        // count(*)
        return Ok(Value::UInt64(rows.len() as u64));
    };
    if ty.is_vector() {
        return Err(BhError::Plan("aggregates over vector columns are unsupported".into()));
    }
    let cells = || rows.iter().map(|r| &r[idx]).filter(|v| !v.is_null());
    match func {
        AggFunc::Count => Ok(Value::UInt64(cells().count() as u64)),
        AggFunc::Sum => match ty {
            ColumnType::Float64 => {
                Ok(Value::Float64(cells().filter_map(|v| v.as_f64()).sum()))
            }
            ColumnType::Int64 => {
                let s: i128 = cells()
                    .filter_map(|v| match v {
                        Value::Int64(x) => Some(*x as i128),
                        _ => None,
                    })
                    .sum();
                Ok(Value::Int64(s as i64))
            }
            _ => {
                let s: u128 = cells()
                    .filter_map(|v| match v {
                        Value::UInt64(x) | Value::DateTime(x) => Some(*x as u128),
                        _ => None,
                    })
                    .sum();
                Ok(Value::UInt64(s as u64))
            }
        },
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<&Value> = None;
            for v in cells() {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let ord = v.partial_cmp_scalar(b).unwrap_or(std::cmp::Ordering::Equal);
                        let take = if func == AggFunc::Min {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.cloned().unwrap_or(Value::Null))
        }
        AggFunc::Avg => {
            let (mut sum, mut n) = (0.0f64, 0u64);
            for v in cells() {
                if let Some(x) = v.as_f64() {
                    sum += x;
                    n += 1;
                }
            }
            Ok(if n == 0 { Value::Null } else { Value::Float64(sum / n as f64) })
        }
    }
}

// ---------------------------------------------------------------------------
// Providers.
// ---------------------------------------------------------------------------

fn query_log_rows(db: &Database) -> SystemRows {
    use ColumnType::{Str, UInt64};
    let mut columns = vec![
        ("query_id", UInt64),
        ("kind", Str),
        ("sql", Str),
        ("tenant", Str),
        ("session", Str),
        ("start_nanos", UInt64),
        ("end_nanos", UInt64),
        ("duration_ns", UInt64),
    ];
    // The statement's tally, one column per cell (`bind_ns` … `cache_misses`).
    columns.extend(StatementWork::default().columns().into_iter().map(|(name, _)| (name, UInt64)));
    columns.extend([
        ("result_rows", UInt64),
        ("strategy", Str),
        ("error_code", Str),
        ("traced", UInt64),
    ]);
    let rows = db
        .query_log()
        .records()
        .into_iter()
        .map(|r| {
            let duration = r.duration_nanos();
            let mut row = vec![
                Value::UInt64(r.query_id),
                Value::Str(r.kind.to_string()),
                Value::Str(r.sql),
                Value::Str(r.tenant),
                Value::Str(r.session),
                Value::UInt64(r.start_nanos),
                Value::UInt64(r.end_nanos),
                Value::UInt64(duration),
            ];
            row.extend(r.work.columns().into_iter().map(|(_, n)| Value::UInt64(n)));
            row.extend([
                Value::UInt64(r.result_rows),
                Value::Str(r.strategy.to_string()),
                Value::Str(r.error_code.unwrap_or("").to_string()),
                Value::UInt64(u64::from(r.traced)),
            ]);
            row
        })
        .collect();
    SystemRows { columns, rows }
}

fn metrics_rows(db: &Database) -> SystemRows {
    use ColumnType::{Float64, Str};
    let columns = vec![("name", Str), ("kind", Str), ("value", Float64)];
    let m = db.metrics();
    let mut rows = Vec::new();
    for (name, v) in m.snapshot_counters() {
        rows.push(vec![
            Value::Str(name),
            Value::Str("counter".into()),
            Value::Float64(v as f64),
        ]);
    }
    for (name, v) in m.snapshot_gauges() {
        rows.push(vec![
            Value::Str(name),
            Value::Str("gauge".into()),
            Value::Float64(v as f64),
        ]);
    }
    for (name, snap) in m.snapshot_histograms() {
        let stats: [(&str, f64); 7] = [
            ("count", snap.count as f64),
            ("p50_ns", snap.p50.as_nanos() as f64),
            ("p95_ns", snap.p95.as_nanos() as f64),
            ("p99_ns", snap.p99.as_nanos() as f64),
            ("p999_ns", snap.p999.as_nanos() as f64),
            ("mean_ns", snap.mean.as_nanos() as f64),
            ("max_ns", snap.max.as_nanos() as f64),
        ];
        for (suffix, v) in stats {
            rows.push(vec![
                Value::Str(format!("{name}.{suffix}")),
                Value::Str("histogram".into()),
                Value::Float64(v),
            ]);
        }
    }
    SystemRows { columns, rows }
}

fn span_rows(db: &Database) -> SystemRows {
    use ColumnType::{Str, UInt64};
    let columns = vec![
        ("query_id", UInt64),
        ("sql", Str),
        ("span_id", UInt64),
        ("parent_id", UInt64),
        ("name", Str),
        ("start_nanos", UInt64),
        ("end_nanos", UInt64),
        ("duration_ns", UInt64),
        ("attrs", Str),
    ];
    let mut rows = Vec::new();
    for trace in db.query_log().slow_traces() {
        for span in &trace.spans {
            rows.push(vec![
                Value::UInt64(trace.query_id),
                Value::Str(trace.sql.clone()),
                Value::UInt64(span.id.0),
                Value::UInt64(span.parent.0),
                Value::Str(span.name.to_string()),
                Value::UInt64(span.start_nanos),
                Value::UInt64(span.end_nanos),
                Value::UInt64(span.duration_nanos()),
                Value::Str(render_attrs(&span.attrs)),
            ]);
        }
    }
    SystemRows { columns, rows }
}

fn render_attrs(attrs: &[(&'static str, AttrValue)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(k);
        out.push('=');
        match v {
            AttrValue::U64(x) => out.push_str(&x.to_string()),
            AttrValue::F64(x) => out.push_str(&format!("{x:.3}")),
            AttrValue::Str(s) => out.push_str(s),
            AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out
}

fn cache_rows(db: &Database) -> SystemRows {
    use ColumnType::{Str, UInt64};
    let columns = vec![
        ("vw", Str),
        ("worker", Str),
        ("cache", Str),
        ("used_bytes", UInt64),
        ("capacity_bytes", UInt64),
        ("entries", UInt64),
        ("hits", UInt64),
        ("misses", UInt64),
        ("evictions", UInt64),
    ];
    let mut rows = Vec::new();
    for vw in db.vw_handles() {
        for wid in vw.worker_ids() {
            let Ok(worker) = vw.worker(wid) else { continue };
            for (kind, used, cap, entries, h, mi, ev) in worker.cache_rows() {
                rows.push(vec![
                    Value::Str(vw.name().to_string()),
                    Value::Str(wid.to_string()),
                    Value::Str(kind.to_string()),
                    Value::UInt64(used as u64),
                    Value::UInt64(cap as u64),
                    Value::UInt64(entries as u64),
                    Value::UInt64(h),
                    Value::UInt64(mi),
                    Value::UInt64(ev),
                ]);
            }
        }
    }
    SystemRows { columns, rows }
}

fn segment_rows(db: &Database) -> SystemRows {
    use ColumnType::{Str, UInt64};
    let columns = vec![
        ("table", Str),
        ("segment_id", UInt64),
        ("rows", UInt64),
        ("deleted_rows", UInt64),
        ("level", UInt64),
        ("index_kind", Str),
        ("index_bytes", UInt64),
        ("resident_workers", UInt64),
    ];
    let vws = db.vw_handles();
    let mut rows = Vec::new();
    for tname in db.table_names() {
        let Ok(t) = db.table(&tname) else { continue };
        for meta in t.segments() {
            let mut resident = 0u64;
            for vw in &vws {
                for wid in vw.worker_ids() {
                    let Ok(worker) = vw.worker(wid) else { continue };
                    if worker.index_cache().resident(meta.id) {
                        resident += 1;
                    }
                }
            }
            rows.push(vec![
                Value::Str(tname.clone()),
                Value::UInt64(meta.id.0),
                Value::UInt64(meta.row_count as u64),
                Value::UInt64(t.delete_map().deleted_count(meta.id) as u64),
                Value::UInt64(u64::from(meta.level)),
                Value::Str(meta.index_kind.map(|k| k.name().to_string()).unwrap_or_default()),
                Value::UInt64(meta.index_bytes),
                Value::UInt64(resident),
            ]);
        }
    }
    SystemRows { columns, rows }
}

fn lock_class_rows() -> SystemRows {
    use ColumnType::{Str, UInt64};
    let columns = vec![
        ("name", Str),
        ("rank", UInt64),
        ("id", UInt64),
        ("edges_out", UInt64),
        ("edges_in", UInt64),
    ];
    let edges = bhsync::lockdep_edges();
    let rows = bhsync::classes::ALL
        .iter()
        .map(|c| {
            let out = edges.iter().filter(|(from, _)| from.id == c.id).count() as u64;
            let inc = edges.iter().filter(|(_, to)| to.id == c.id).count() as u64;
            vec![
                Value::Str(c.name.to_string()),
                Value::UInt64(u64::from(c.rank)),
                Value::UInt64(u64::from(c.id)),
                Value::UInt64(out),
                Value::UInt64(inc),
            ]
        })
        .collect();
    SystemRows { columns, rows }
}
