//! `EXPLAIN ANALYZE` rendering: run the query on its traced context, then turn
//! the context's span tree and tally into a text profile.
//!
//! The report has three parts:
//!
//! 1. the **stage tree** — every span the statement recorded under the root
//!    `query` span, indented by depth, with wall time and structured
//!    attributes (remote reads show their `bytes` here). Hot leaf spans
//!    (per-block cache probes, per-object store reads) collapse into one
//!    `name ×N` aggregate line per stage once they repeat enough;
//! 2. the **kernel tier** the distance kernels dispatched to;
//! 3. the **statement's own tally** — the work columns `system.query_log`
//!    will record for it (cache hits/misses, rows scanned, prune counts, …).
//!
//! Both come from the statement's [`QueryCtx`] and nothing else, so what a
//! neighbouring statement does never shows up here. Tree layout (grouping,
//! aggregation, units) lives in [`bh_common::trace::render_spans`].

use bh_cluster::vw::VirtualWarehouse;
use bh_common::trace::{render_spans, MAX_SPANS};
use bh_common::{QueryCtx, Result};
use bh_query::exec::{QueryEngine, QueryOptions};
use bh_query::result::ResultSet;
use bh_sql::ast::SelectStmt;
use bh_storage::table::TableStore;
use bh_storage::value::Value;
use bh_vector::distance::KernelTier;
use std::sync::Arc;

/// Same-named siblings collapse into one aggregate line past this count —
/// per-block cache probes would otherwise drown the stage tree.
const AGGREGATE_THRESHOLD: usize = 8;

/// Execute `sel` for the (traced) statement installed on this thread and
/// render the profile report.
pub(crate) fn explain_analyze(
    engine: &QueryEngine,
    table: &Arc<TableStore>,
    vw: &Arc<VirtualWarehouse>,
    opts: &QueryOptions,
    sel: &SelectStmt,
) -> Result<ResultSet> {
    let root = QueryCtx::span("query");
    let root_id = root.id();
    let result = engine.execute_select(table, vw, opts, sel);
    drop(root);
    let rows = result?;

    let ctx = QueryCtx::current().unwrap_or_default();
    let (spans, dropped) = ctx.spans();
    let mut lines = render_spans(&spans, root_id, AGGREGATE_THRESHOLD);
    if dropped > 0 {
        lines.push(format!(
            "({dropped} more spans not kept: a statement keeps its first {MAX_SPANS})"
        ));
    }
    lines.push(format!("result rows: {}", rows.len()));
    lines.push(format!("kernel tier: {}", KernelTier::current().name()));
    lines.push("counters (this query):".into());
    for (name, value) in ctx.tally.snapshot().columns() {
        if value > 0 {
            lines.push(format!("  {name}: {value}"));
        }
    }

    let mut out = ResultSet::new(vec!["profile".into()]);
    out.rows = lines.into_iter().map(|l| vec![Value::Str(l)]).collect();
    Ok(out)
}
