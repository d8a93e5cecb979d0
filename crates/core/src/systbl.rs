//! `system.*` virtual tables — SQL over live telemetry.
//!
//! ClickHouse/ByteHouse expose their introspection surface as ordinary
//! tables under the `system` database so operators can slice telemetry with
//! the same SELECT grammar they use for data. This module reproduces that:
//! each provider materializes one snapshot of an in-process source (query
//! log ring, metrics registry, slow-query span store, worker caches, segment
//! catalog, lockdep graph) as rows. A statement on one binds with the
//! engine's binder against the snapshot's columns, filters it with the
//! predicate kernels of a data-table WHERE, and ends in the engine's scalar
//! finishing step (`bh_query::finish`): one SELECT dialect on every table.
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
use bh_query::{bind_select, finish_scalar, BoundSelect, ResultSet};
use bh_sql::ast::SelectStmt;
use bh_storage::column::ColumnData;
use bh_storage::schema::TableSchema;
use bh_storage::value::{ColumnType, Value};

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

impl SystemRows {
    /// Take the snapshot of the system table `table`.
    fn take(db: &Database, table: &str) -> Result<SystemRows> {
        Ok(match table {
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
        })
    }

    /// The schema a statement on the snapshot binds against.
    fn schema(&self, table: &str) -> TableSchema {
        let mut s = TableSchema::new(table);
        for (n, ty) in &self.columns {
            s = s.with_column(n, *ty);
        }
        s
    }

    fn position(&self, column: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|(n, _)| *n == column)
            .ok_or_else(|| BhError::Internal(format!("system column {column} is missing")))
    }

    /// The rows passing `bound`'s predicate, as the finishing step takes
    /// them. The predicate runs on the kernels every data-table WHERE uses.
    fn passing(&self, bound: &BoundSelect) -> Result<Vec<Vec<Value>>> {
        let filter_columns = bound
            .predicate
            .column_refs()
            .into_iter()
            .map(|c| {
                let at = self.position(c)?;
                let mut data = ColumnData::empty(self.columns[at].1);
                self.rows.iter().try_for_each(|row| data.push(&row[at]))?;
                Ok((c, data))
            })
            .collect::<Result<Vec<_>>>()?;
        let filter_columns: Vec<(&str, &ColumnData)> =
            filter_columns.iter().map(|(c, data)| (*c, data)).collect();
        let bits = bound.predicate.eval_bitset(&filter_columns, self.rows.len())?;
        let slots = bound
            .finish_columns()
            .into_iter()
            .map(|c| self.position(c))
            .collect::<Result<Vec<_>>>()?;
        Ok(bits
            .iter()
            .map(|r| slots.iter().map(|&at| self.rows[r][at].clone()).collect())
            .collect())
    }
}

/// Execute a SELECT against a `system.*` table: bound like any SELECT and
/// finished by the engine's scalar step, over a snapshot.
pub fn execute_system_select(db: &Database, sel: &SelectStmt) -> Result<ResultSet> {
    let snap = SystemRows::take(db, &sel.table)?;
    let bound = bind_select(&snap.schema(&sel.table), sel)?;
    finish_scalar(&bound, snap.passing(&bound)?)
}

/// EXPLAIN a SELECT against a `system.*` table: the filter and columns read,
/// in the data-table format, and the snapshot it reads.
pub fn explain_system_select(db: &Database, sel: &SelectStmt) -> Result<String> {
    let snap = SystemRows::take(db, &sel.table)?;
    let bound = bind_select(&snap.schema(&sel.table), sel)?;
    Ok(format!(
        "{}source: {} snapshot of {} rows, no segments\n",
        bound.explain_reads(),
        sel.table,
        snap.rows.len()
    ))
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
        let version = t.version();
        for meta in version.segments() {
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
                Value::UInt64(version.deleted_count(meta.id) as u64),
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
