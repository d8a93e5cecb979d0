//! The `Database` facade: catalog, virtual warehouses, SQL execution.

use crate::csv::parse_csv;
use crate::ddl::schema_from_ast;
use bh_cluster::vw::{VirtualWarehouse, VwConfig};
use bh_common::ids::IdGenerator;
use bh_common::metrics::{self, Counter, Gauge, Histogram};
use bh_common::querylog::{normalize_sql, SlowQueryTrace, STATEMENT_KINDS};
use bh_common::{
    BhError, DeploymentLatencies, MetricsRegistry, QueryCtx, QueryLog, QueryLogRecord, RealClock,
    Result, SharedClock, SlowQueryPolicy, VirtualClock, VwId,
};
use bh_query::bind::{bind_predicate, literal_to_value};
use bh_query::exec::{QueryEngine, QueryOptions};
use bh_query::result::ResultSet;
use bh_sql::ast::{DeleteStmt, InsertStmt, Statement, UpdateStmt};
use bh_sql::parse_statement;
use bh_storage::objectstore::{InMemoryObjectStore, SharedObjectStore};
use bh_storage::predicate::Predicate;
use bh_storage::table::{TableStore, TableStoreConfig};
use bh_storage::value::Value;
use bh_vector::IndexRegistry;
use bh_common::sync::{classes, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Outcome of one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// SELECT results.
    Rows(ResultSet),
    /// Row count affected by INSERT / UPDATE / DELETE.
    Affected(usize),
    /// DDL acknowledged.
    Created,
}

impl QueryOutput {
    /// Unwrap SELECT rows (panics on DML output — test convenience).
    pub fn rows(self) -> ResultSet {
        match self {
            QueryOutput::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// Unwrap a DML row count (panics on row output — test convenience).
    pub fn affected(self) -> usize {
        match self {
            QueryOutput::Affected(n) => n,
            other => panic!("expected affected count, got {other:?}"),
        }
    }
}

/// Construction-time configuration.
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Latency profile of the simulated deployment.
    pub latencies: DeploymentLatencies,
    /// Use the wall clock (benchmarks) or a virtual clock (tests).
    pub real_time: bool,
    /// Per-table storage tunables.
    pub table: TableStoreConfig,
    /// Virtual-warehouse tunables.
    pub vw: VwConfig,
    /// Workers in the default read VW.
    pub default_workers: usize,
    /// Default query options (can be overridden per statement).
    pub query: QueryOptions,
    /// When set, every statement is traced and queries the policy selects
    /// (slow or failed) keep their full span tree for `system.spans` /
    /// `SYSTEM TRACE EXPORT`.
    pub slow_query: Option<SlowQueryPolicy>,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        Self {
            latencies: DeploymentLatencies::zero(),
            real_time: false,
            table: TableStoreConfig::default(),
            vw: VwConfig::default(),
            default_workers: 2,
            query: QueryOptions::default(),
            slow_query: None,
        }
    }
}

/// Statement kind for the query log and the per-kind SLO histograms.
fn statement_kind(parsed: &Result<Statement>) -> &'static str {
    match parsed {
        Ok(Statement::Select(_)) => "select",
        Ok(Statement::Insert(_)) => "insert",
        Ok(Statement::CreateTable(_)) => "create_table",
        Ok(Statement::Update(_)) => "update",
        Ok(Statement::Delete(_)) => "delete",
        Ok(Statement::Explain(_) | Statement::ExplainAnalyze(_)) => "explain",
        Ok(Statement::SystemMetrics | Statement::SystemTraceExport) => "system",
        Err(_) => "other",
    }
}

fn kind_index(kind: &str) -> usize {
    STATEMENT_KINDS.iter().position(|k| *k == kind).unwrap_or(STATEMENT_KINDS.len() - 1)
}

/// A BlendHouse database instance.
pub struct Database {
    cfg: DatabaseConfig,
    remote: SharedObjectStore,
    metrics: MetricsRegistry,
    clock: SharedClock,
    ids: Arc<IdGenerator>,
    tables: RwLock<HashMap<String, Arc<TableStore>>>,
    vws: RwLock<HashMap<String, Arc<VirtualWarehouse>>>,
    engine: QueryEngine,
    next_vw: std::sync::atomic::AtomicU64,
    querylog: QueryLog,
    /// Per-statement-kind latency histograms, indexed like
    /// [`STATEMENT_KINDS`]; rendered as `query.slo{kind="…"}` summaries.
    slo: Vec<Arc<Histogram>>,
    proc_queries: Arc<Counter>,
    proc_errors: Arc<Counter>,
    proc_uptime: Arc<Gauge>,
    proc_rss: Arc<Gauge>,
}

impl Database {
    /// Fast, deterministic, zero-latency instance for tests and examples.
    pub fn in_memory() -> Database {
        Database::new(DatabaseConfig::default())
    }

    /// A database with the given simulated-deployment configuration.
    pub fn new(cfg: DatabaseConfig) -> Database {
        let metrics = MetricsRegistry::new();
        let clock: SharedClock =
            if cfg.real_time { RealClock::shared() } else { VirtualClock::shared() };
        // A get is its transfer's deadline on the clock, so the index
        // prefetches the batch executor issues overlap (N cold bodies cost
        // max, not sum), while a get waited at once costs exactly its
        // synchronous charge.
        let remote: SharedObjectStore = Arc::new(InMemoryObjectStore::new(
            clock.clone(),
            cfg.latencies.remote_store,
            metrics.clone(),
            "remote",
        ));
        let querylog = QueryLog::default();
        querylog.set_slow_policy(cfg.slow_query.clone());
        // Pre-register the SLO histograms and process self-metrics so
        // `metrics_text()` is non-empty even before the first table exists.
        let slo = STATEMENT_KINDS
            .iter()
            .map(|k| metrics.histogram_with_labels("query.slo", &[("kind", k)]))
            .collect();
        let proc_uptime = metrics.gauge("process.uptime_seconds");
        let proc_rss = metrics.gauge("process.peak_rss_bytes");
        if let Some(rss) = metrics::peak_rss_bytes() {
            proc_rss.set(rss);
        }
        let db = Database {
            cfg: cfg.clone(),
            remote,
            metrics: metrics.clone(),
            clock,
            ids: Arc::new(IdGenerator::new()),
            tables: RwLock::new(&classes::DB_TABLES, HashMap::new()),
            vws: RwLock::new(&classes::DB_VWS, HashMap::new()),
            engine: QueryEngine::new(metrics.clone()),
            next_vw: std::sync::atomic::AtomicU64::new(0),
            querylog,
            slo,
            proc_queries: metrics.counter("process.queries"),
            proc_errors: metrics.counter("process.errors"),
            proc_uptime,
            proc_rss,
        };
        db.create_vw("default", cfg.default_workers);
        db
    }

    /// Shared metrics registry (counters across all subsystems).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The always-on query log (`system.query_log`, slow-query traces).
    pub fn query_log(&self) -> &QueryLog {
        &self.querylog
    }

    /// Arm (or disarm, with `None`) slow-query trace capture at runtime.
    pub fn set_slow_query_policy(&self, policy: Option<SlowQueryPolicy>) {
        self.querylog.set_slow_policy(policy);
    }

    /// Every virtual warehouse, sorted by name (system-table providers).
    pub fn vw_handles(&self) -> Vec<Arc<VirtualWarehouse>> {
        let mut vws: Vec<Arc<VirtualWarehouse>> = self.vws.read().values().cloned().collect();
        vws.sort_by(|a, b| a.name().cmp(b.name()));
        vws
    }

    /// The query engine (cost model, fan-out helpers).
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// The index libraries builds and loads go through.
    pub fn registry(&self) -> &IndexRegistry {
        &IndexRegistry
    }

    /// The simulated remote shared store all tables persist to.
    pub fn remote_store(&self) -> &SharedObjectStore {
        &self.remote
    }

    /// The deployment clock every simulated latency is charged against
    /// (virtual unless `real_time`): its delta across a call is that call's
    /// simulated cost.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// The database's default per-query options.
    pub fn default_options(&self) -> QueryOptions {
        self.cfg.query.clone()
    }

    // ------------------------------------------------------------------- VWs

    /// Create (or resize) a named virtual warehouse with `workers` workers.
    pub fn create_vw(&self, name: &str, workers: usize) -> Arc<VirtualWarehouse> {
        let vw = Arc::new(VirtualWarehouse::new(
            VwId(self.next_vw.fetch_add(1, std::sync::atomic::Ordering::Relaxed)),
            name,
            VwConfig { rpc: self.cfg.latencies.rpc, ..self.cfg.vw.clone() },
            self.remote.clone(),
            self.clock.clone(),
            self.metrics.clone(),
            self.ids.clone(),
        ));
        for table in self.tables.read().values() {
            vw.register_table(table.schema());
        }
        for _ in 0..workers {
            vw.scale_up(&[]);
        }
        self.vws.write().insert(name.to_string(), vw.clone());
        vw
    }

    /// Look up a virtual warehouse by name.
    pub fn vw(&self, name: &str) -> Result<Arc<VirtualWarehouse>> {
        self.vws
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| BhError::NotFound(format!("virtual warehouse {name}")))
    }

    /// The VW queries run on unless told otherwise.
    pub fn default_vw(&self) -> Arc<VirtualWarehouse> {
        self.vw("default").expect("created at construction")
    }

    // ---------------------------------------------------------------- tables

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<TableStore>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| BhError::NotFound(format!("table {name}")))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Cache-aware preload of a table's indexes into a VW (§II-D).
    pub fn preload(&self, table: &str, vw_name: &str) -> Result<usize> {
        let t = self.table(table)?;
        let vw = self.vw(vw_name)?;
        vw.preload(&t.segments())
    }

    /// Run one compaction pass on a table.
    pub fn compact(&self, table: &str) -> Result<bh_storage::table::CompactionReport> {
        self.table(table)?.compact()
    }

    // ------------------------------------------------------------------- SQL

    /// Execute one statement with the database's default options.
    pub fn execute(&self, sql: &str) -> Result<QueryOutput> {
        let opts = self.default_options();
        self.execute_with(sql, &opts)
    }

    /// Execute one statement with explicit query options (SELECT only; other
    /// statements ignore the options).
    pub fn execute_with(&self, sql: &str, opts: &QueryOptions) -> Result<QueryOutput> {
        self.execute_session(sql, opts, "default", "default")
    }

    /// Execute one statement on behalf of a named tenant/session pair. The
    /// labels flow into `system.query_log`; execution is otherwise identical
    /// to [`Database::execute_with`].
    ///
    /// Every statement leaves exactly one query-log record (parse failures
    /// log as kind `other` with an error code). When a slow-query policy is
    /// armed, the statement is traced — its context keeps its own spans — and
    /// the span tree is retained only if the policy selects it.
    pub fn execute_session(
        &self,
        sql: &str,
        opts: &QueryOptions,
        tenant: &str,
        session: &str,
    ) -> Result<QueryOutput> {
        let parsed = parse_statement(sql);
        // The statement's context: every layer below tallies its work and,
        // when the statement is traced, records its spans on it; the log
        // record and a retained trace are built from it alone.
        let (id, kind) = (self.querylog.next_query_id(), statement_kind(&parsed));
        let traced = match &parsed {
            Ok(Statement::ExplainAnalyze(_)) => true,
            // Logged before it runs (below): it would have no spans yet.
            Ok(Statement::SystemMetrics) => false,
            _ => self.querylog.capture_armed(),
        };
        let ctx = if traced {
            QueryCtx::traced(id, kind, tenant, session, self.querylog.origin())
        } else {
            QueryCtx::new(id, kind, tenant, session)
        };
        let _in = ctx.install();
        let start_nanos = self.querylog.now_nanos();

        // SYSTEM METRICS renders the registry itself, so its bookkeeping
        // must land *before* dispatch — otherwise the rendered text would
        // lag the registry by one query and could never equal a subsequent
        // `metrics_text()` call. It also refreshes the process gauges.
        if matches!(parsed, Ok(Statement::SystemMetrics)) {
            if let Some(rss) = metrics::peak_rss_bytes() {
                self.proc_rss.set(rss);
            }
            self.finish_statement(&ctx, sql, start_nanos, 0, None);
            return self.dispatch(Statement::SystemMetrics, opts);
        }

        let result = match parsed {
            Ok(stmt) => self.dispatch(stmt, opts),
            Err(e) => Err(e),
        };
        let (result_rows, error) = match &result {
            Ok(QueryOutput::Rows(rs)) => (rs.len() as u64, None),
            Ok(QueryOutput::Affected(n)) => (*n as u64, None),
            Ok(QueryOutput::Created) => (0, None),
            Err(e) => (0, Some(e.code())),
        };
        self.finish_statement(&ctx, sql, start_nanos, result_rows, error);
        result
    }

    /// Completion bookkeeping for one statement: SLO histogram, process
    /// counters, slow-trace retention, and the query-log record itself.
    fn finish_statement(
        &self,
        ctx: &QueryCtx,
        sql: &str,
        start_nanos: u64,
        result_rows: u64,
        error: Option<&'static str>,
    ) {
        let end_nanos = self.querylog.now_nanos();
        let duration = end_nanos.saturating_sub(start_nanos);
        self.slo[kind_index(ctx.kind)].record(Duration::from_nanos(duration));
        self.proc_queries.inc();
        if error.is_some() {
            self.proc_errors.inc();
        }
        self.proc_uptime.set(end_nanos / 1_000_000_000);

        if !self.querylog.is_enabled() {
            return;
        }
        // Normalized once and shared between the slow trace and the record —
        // normalization is the most expensive step of the logging hot path.
        let sql = normalize_sql(sql);
        let mut traced = false;
        if self.querylog.should_retain(duration, error.is_some()) {
            // An armed policy traced the statement: the tree is its own.
            if let Some(spans) = ctx.take_spans() {
                traced = true;
                self.querylog.retain_trace(SlowQueryTrace {
                    query_id: ctx.query_id,
                    sql: sql.clone(),
                    duration_nanos: duration,
                    error_code: error,
                    spans,
                });
            }
        }
        self.querylog.observe(QueryLogRecord {
            query_id: ctx.query_id,
            kind: ctx.kind,
            sql,
            tenant: ctx.tenant.clone(),
            session: ctx.session.clone(),
            start_nanos,
            end_nanos,
            work: ctx.tally.snapshot(),
            result_rows,
            error_code: error,
            traced,
            strategy: ctx.strategy(),
        });
    }

    /// Execute one parsed statement (no logging — `execute_session` wraps).
    fn dispatch(&self, stmt: Statement, opts: &QueryOptions) -> Result<QueryOutput> {
        match stmt {
            Statement::CreateTable(ct) => {
                let schema = schema_from_ast(&ct)?;
                let name = schema.name.clone();
                if self.tables.read().contains_key(&name) {
                    return Err(BhError::AlreadyExists(format!("table {name}")));
                }
                let store = TableStore::new(
                    schema,
                    self.remote.clone(),
                    self.cfg.table.clone(),
                    self.ids.clone(),
                    self.metrics.clone(),
                )?;
                for vw in self.vws.read().values() {
                    vw.register_table(store.schema());
                }
                self.tables.write().insert(name, Arc::new(store));
                Ok(QueryOutput::Created)
            }
            Statement::Insert(ins) => self.execute_insert(&ins),
            Statement::Select(sel) => {
                if crate::systbl::is_system_table(&sel.table) {
                    return crate::systbl::execute_system_select(self, &sel)
                        .map(QueryOutput::Rows);
                }
                let t = self.table(&sel.table)?;
                let vw = self.default_vw();
                let rs = self.engine.execute_select(&t, &vw, opts, &sel)?;
                Ok(QueryOutput::Rows(rs))
            }
            Statement::Update(upd) => self.execute_update(&upd),
            Statement::Delete(del) => self.execute_delete(&del),
            Statement::Explain(sel) => {
                let text = if crate::systbl::is_system_table(&sel.table) {
                    crate::systbl::explain_system_select(self, &sel)?
                } else {
                    self.engine.explain_select(&*self.table(&sel.table)?, opts, &sel)?
                };
                let mut rs = ResultSet::new(vec!["plan".into()]);
                rs.rows = text.lines().map(|l| vec![Value::Str(l.to_string())]).collect();
                Ok(QueryOutput::Rows(rs))
            }
            Statement::ExplainAnalyze(sel) => {
                let t = self.table(&sel.table)?;
                let vw = self.default_vw();
                let rs = crate::profile::explain_analyze(&self.engine, &t, &vw, opts, &sel)?;
                Ok(QueryOutput::Rows(rs))
            }
            Statement::SystemMetrics => {
                let mut rs = ResultSet::new(vec!["metrics".into()]);
                rs.rows = self
                    .metrics_text()
                    .lines()
                    .map(|l| vec![Value::Str(l.to_string())])
                    .collect();
                Ok(QueryOutput::Rows(rs))
            }
            Statement::SystemTraceExport => {
                let mut rs = ResultSet::new(vec!["trace".into()]);
                rs.rows.push(vec![Value::Str(self.querylog.export_chrome_trace())]);
                Ok(QueryOutput::Rows(rs))
            }
        }
    }

    /// Every registered metric in Prometheus text exposition format (what a
    /// `/metrics` HTTP endpoint would serve; also behind `SYSTEM METRICS`).
    pub fn metrics_text(&self) -> String {
        self.metrics.render_prometheus()
    }

    /// Execute a SELECT on a specific VW (read/write separation, isolation
    /// experiments).
    pub fn query_on_vw(
        &self,
        vw_name: &str,
        sql: &str,
        opts: &QueryOptions,
    ) -> Result<ResultSet> {
        let Statement::Select(sel) = parse_statement(sql)? else {
            return Err(BhError::Plan("query_on_vw takes a SELECT".into()));
        };
        if crate::systbl::is_system_table(&sel.table) {
            // System tables are VW-independent; this path skips the query
            // log (it exists for isolation experiments, not the front door).
            return crate::systbl::execute_system_select(self, &sel);
        }
        let t = self.table(&sel.table)?;
        let vw = self.vw(vw_name)?;
        self.engine.execute_select(&t, &vw, opts, &sel)
    }

    fn execute_insert(&self, ins: &InsertStmt) -> Result<QueryOutput> {
        match ins {
            InsertStmt::Values { table, rows } => {
                let t = self.table(table)?;
                let schema = t.schema();
                let mut columns = schema.empty_batch();
                for lits in rows {
                    if lits.len() != schema.columns.len() {
                        return Err(BhError::InvalidArgument(format!(
                            "INSERT arity {} != {} columns",
                            lits.len(),
                            schema.columns.len()
                        )));
                    }
                    for ((lit, def), col) in lits.iter().zip(&schema.columns).zip(&mut columns) {
                        col.push(&literal_to_value(lit, schema.storage_type(def))?).map_err(
                            |e| BhError::InvalidArgument(format!("column {}: {e}", def.name)),
                        )?;
                    }
                }
                t.insert(columns)?;
                Ok(QueryOutput::Affected(rows.len()))
            }
            InsertStmt::CsvFile { table, path } => {
                let t = self.table(table)?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| BhError::Io(format!("csv file {path}: {e}")))?;
                let columns = parse_csv(t.schema(), &text)?;
                let n = columns.first().map_or(0, |c| c.len());
                t.insert(columns)?;
                Ok(QueryOutput::Affected(n))
            }
        }
    }

    fn execute_update(&self, upd: &UpdateStmt) -> Result<QueryOutput> {
        let t = self.table(&upd.table)?;
        let schema = t.schema();
        let predicate = match &upd.where_clause {
            Some(e) => bind_predicate(schema, e)?,
            None => Predicate::True,
        };
        let assignments: Vec<(String, Value)> = upd
            .assignments
            .iter()
            .map(|(col, lit)| {
                let def = schema
                    .column(col)
                    .ok_or_else(|| BhError::NotFound(format!("column {col}")))?;
                Ok((col.clone(), literal_to_value(lit, def.ty)?))
            })
            .collect::<Result<_>>()?;
        Ok(QueryOutput::Affected(t.update_where(&predicate, &assignments)?))
    }

    fn execute_delete(&self, del: &DeleteStmt) -> Result<QueryOutput> {
        let t = self.table(&del.table)?;
        let predicate = match &del.where_clause {
            Some(e) => bind_predicate(t.schema(), e)?,
            None => Predicate::True,
        };
        Ok(QueryOutput::Affected(t.delete_where(&predicate)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn images_db(n: usize) -> Database {
        let db = Database::in_memory();
        db.execute(
            "CREATE TABLE images (
               id UInt64, label String, ts DateTime, emb Array(Float32),
               INDEX ann emb TYPE HNSW('DIM=4')
             ) ORDER BY id PARTITION BY label",
        )
        .unwrap();
        let mut values = Vec::new();
        for i in 0..n {
            let c = (i % 4) as f32 * 5.0;
            values.push(format!(
                "({i}, 'l{}', {}, [{c}, {c}, {c}, {c}])",
                i % 2,
                1000 + i
            ));
        }
        db.execute(&format!("INSERT INTO images VALUES {}", values.join(", "))).unwrap();
        db
    }

    /// The database's options with the strategy pinned: toy tables are
    /// cheaper to scan (Plan A), so a test about an index path says so.
    fn forcing(db: &Database, strategy: bh_query::Strategy) -> QueryOptions {
        QueryOptions { forced_strategy: Some(strategy), ..db.default_options() }
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let db = images_db(100);
        let rs = db
            .execute(
                "SELECT id, dist FROM images WHERE label = 'l0' \
                 ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) AS dist LIMIT 5",
            )
            .unwrap()
            .rows();
        assert_eq!(rs.len(), 5);
        for row in &rs.rows {
            let Value::UInt64(id) = row[0] else { panic!() };
            assert_eq!(id % 2, 0, "label filter violated");
            assert_eq!(id % 4, 0, "nearest cluster is i%4==0");
        }
    }

    /// `LIMIT` is outside input: a value no table can fill must neither
    /// reserve memory for itself nor lose rows, whatever the plan.
    #[test]
    fn hostile_limit_returns_every_visible_row() {
        use bh_query::Strategy;
        for index in ["HNSW('DIM=4')", "IVFPQFS('DIM=4')"] {
            let db = Database::in_memory();
            db.execute(&format!(
                "CREATE TABLE t (id UInt64, x Int64, emb Array(Float32), \
                 INDEX ann emb TYPE {index}) ORDER BY id"
            ))
            .unwrap();
            // Hash-scattered coordinates: no exact distance ties.
            let rows: Vec<String> = (0..300u64)
                .map(|i| {
                    let v: Vec<String> = (0..4u64)
                        .map(|d| {
                            let h = (i * 4 + d + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                            format!("{:.4}", h as f32 / (1u64 << 24) as f32 * 10.0)
                        })
                        .collect();
                    format!("({i}, {}, [{}])", i % 100, v.join(", "))
                })
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
            assert_eq!(db.execute("DELETE FROM t WHERE id < 20").unwrap().affected(), 20);
            let plans = [
                None,
                Some(Strategy::BruteForce),
                Some(Strategy::PreFilter),
                Some(Strategy::PostFilter),
                Some(Strategy::FilteredTraversal),
            ];
            for forced in plans {
                // IVF probes a subset of cells unless told to probe them all.
                let mut opts = QueryOptions { forced_strategy: forced, ..db.default_options() };
                opts.search.nprobe = usize::MAX;
                for (filter, visible) in [("", 280), ("WHERE x < 50 ", 130)] {
                    let sql = format!(
                        "SELECT id FROM t {filter}ORDER BY L2Distance(emb, [5.0, 5.0, 5.0, 5.0]) \
                         LIMIT 1000000000000"
                    );
                    let rs = db.execute_with(&sql, &opts).unwrap().rows();
                    let mut ids: Vec<&Value> = rs.rows.iter().map(|r| &r[0]).collect();
                    ids.dedup();
                    assert_eq!(ids.len(), visible, "{index} {forced:?} `{filter}`");
                }
            }
        }
    }

    /// A distance function of another metric than the index's is a bind
    /// error naming both metrics and the matching function, in the ORDER BY
    /// and the range form, on every kind: each plan ranks by the index's
    /// metric, so the rows it returned were ordered by the wrong distance.
    #[test]
    fn a_distance_function_of_another_metric_is_a_bind_error() {
        for kind in bh_vector::IndexKind::ALL.map(|k| k.name()) {
            let db = Database::in_memory();
            db.execute(&format!(
                "CREATE TABLE t (id UInt64, emb Array(Float32), \
                 INDEX ann emb TYPE {kind}('DIM=4')) ORDER BY id"
            ))
            .unwrap();
            db.execute("INSERT INTO t VALUES (1, [1.0, 0.0, 0.0, 0.0]), (2, [0.0, 1.0, 0.0, 0.0])")
                .unwrap();
            let q = "[1.0, 2.0, 3.0, 4.0]";
            for f in ["cosineDistance", "IPDistance"] {
                for sql in [
                    format!("SELECT id, d FROM t ORDER BY {f}(emb, {q}) AS d LIMIT 3"),
                    format!("SELECT id FROM t WHERE {f}(emb, {q}) < 0.5"),
                ] {
                    let err = db.execute(&sql).unwrap_err().to_string();
                    for want in [f, "L2", "use L2Distance"] {
                        assert!(err.contains(want), "{kind}: `{sql}` -> {err}");
                    }
                }
            }
            let sql = format!("SELECT id FROM t ORDER BY L2Distance(emb, {q}) LIMIT 1");
            assert_eq!(db.execute(&sql).unwrap().rows().rows.len(), 1, "{kind}");
        }
    }

    /// A build parameter no build can use is a CREATE TABLE error naming
    /// the parameter and its range, not a panic at every later INSERT.
    #[test]
    fn build_params_that_can_never_build_are_rejected_at_create_table() {
        let cases = [
            (
                "HNSW('DIM=4', 'M=18446744073709551615')",
                Some("M=18446744073709551615 must be in 2..=512"),
            ),
            ("HNSW('DIM=4', 'M=1')", Some("M=1 must be in 2..=512")),
            ("HNSWSQ('DIM=4', 'M=512')", None),
            (
                "IVFFLAT('DIM=4', 'NLIST=18446744073709551615')",
                Some("NLIST=18446744073709551615 must be in 0..=65536"),
            ),
            ("IVFPQ('DIM=4', 'NLIST=65536')", None),
            ("IVFPQ('DIM=10', 'PQ_M=3')", Some("PQ_M=3 must divide DIM=10")),
            ("IVFPQFS('DIM=10', 'PQ_M=5')", None),
        ];
        for (i, (index, rejected)) in cases.into_iter().enumerate() {
            let db = Database::in_memory();
            let got = db.execute(&format!(
                "CREATE TABLE t{i} (id UInt64, emb Array(Float32), INDEX ann emb TYPE {index}) \
                 ORDER BY id"
            ));
            match rejected {
                Some(want) => {
                    let err = got.err().unwrap_or_else(|| panic!("{index} was accepted"));
                    assert!(matches!(err, BhError::InvalidArgument(_)), "{index}: {err}");
                    assert!(err.to_string().contains(want), "{index}: {err}");
                    assert!(db.execute(&format!("SELECT id FROM t{i} LIMIT 1")).is_err());
                }
                None => assert!(got.is_ok(), "{index}: {got:?}"),
            }
        }
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = images_db(2);
        let err = db
            .execute("CREATE TABLE images (id UInt64)")
            .unwrap_err();
        assert!(matches!(err, BhError::AlreadyExists(_)));
    }

    #[test]
    fn unknown_table_errors() {
        let db = Database::in_memory();
        assert!(db.execute("SELECT * FROM nope LIMIT 1").is_err());
        assert!(db.execute("INSERT INTO nope VALUES (1)").is_err());
    }

    #[test]
    fn update_and_delete_through_sql() {
        let db = images_db(50);
        let n = db
            .execute("UPDATE images SET label = 'special' WHERE id = 7")
            .unwrap()
            .affected();
        assert_eq!(n, 1);
        let rs = db
            .execute("SELECT id FROM images WHERE label = 'special' LIMIT 10")
            .unwrap()
            .rows();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::UInt64(7));

        let deleted = db.execute("DELETE FROM images WHERE id < 10").unwrap().affected();
        assert_eq!(deleted, 10);
        let rs = db.execute("SELECT id FROM images WHERE id < 10 LIMIT 20").unwrap().rows();
        assert!(rs.is_empty());
    }

    #[test]
    fn csv_infile_loads() {
        let db = Database::in_memory();
        db.execute(
            "CREATE TABLE t (id UInt64, label String, emb Array(Float32), \
             INDEX i emb TYPE FLAT('DIM=2'))",
        )
        .unwrap();
        let path = std::env::temp_dir()
            .join(format!("bh-{}-csv_infile_loads.csv", std::process::id()));
        std::fs::write(&path, "1,cat,[0.0, 0.0]\n2,dog,[5.0, 5.0]\n").unwrap();
        let n = db.execute(&format!("INSERT INTO t CSV INFILE '{}'", path.display()));
        std::fs::remove_file(&path).unwrap();
        assert_eq!(n.unwrap().affected(), 2);
        let rs = db
            .execute("SELECT id FROM t ORDER BY L2Distance(emb, [0.1, 0.1]) LIMIT 1")
            .unwrap()
            .rows();
        assert_eq!(rs.rows[0][0], Value::UInt64(1));
    }

    #[test]
    fn separate_vws_and_preload() {
        let db = images_db(200);
        db.create_vw("read", 3);
        let loaded = db.preload("images", "read").unwrap();
        assert!(loaded > 0);
        let rs = db
            .query_on_vw(
                "read",
                "SELECT id FROM images ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 3",
                &db.default_options(),
            )
            .unwrap();
        assert_eq!(rs.len(), 3);
        // Preloaded: no brute-force fallbacks on that VW's path.
        assert_eq!(db.metrics().counter_value("worker.brute_force"), 0);
    }

    #[test]
    fn compaction_via_facade() {
        let db = images_db(100);
        db.execute("DELETE FROM images WHERE id < 50").unwrap();
        let report = db.compact("images").unwrap();
        assert_eq!(report.rows_dropped, 50);
        let rs = db.execute("SELECT id FROM images LIMIT 200").unwrap().rows();
        assert_eq!(rs.len(), 50);
    }

    /// EXPLAIN's strategy is the one that ran: for every statement, the
    /// `strategy:` line of EXPLAIN, the `plan` span of EXPLAIN ANALYZE and
    /// the query-log row of the executed statement name one plan, and the
    /// EXPLAIN statement's own row names none.
    #[test]
    fn explain_reports_plan_and_strategy() {
        use bh_query::Strategy;
        // README's table: 12,000 rows in four segments, `price` uniform.
        let db = Database::new(DatabaseConfig {
            table: TableStoreConfig { segment_max_rows: 3000, ..Default::default() },
            ..Default::default()
        });
        db.execute(
            "CREATE TABLE docs (
               id UInt64, label String, price Float64, emb Array(Float32),
               INDEX ann emb TYPE HNSW('DIM=4')
             ) ORDER BY id",
        )
        .unwrap();
        let values: Vec<String> = (0..12_000)
            .map(|i| {
                let c = (i % 5) as f32 * 6.0 + i as f32 * 1e-4;
                format!("({i}, 'l{}', {}, [{c}, {c}, {c}, {c}])", i % 2, i * 37 % 100)
            })
            .collect();
        db.execute(&format!("INSERT INTO docs VALUES {}", values.join(", "))).unwrap();

        let lines = |sql: &str, opts: &QueryOptions| -> Vec<String> {
            let rs = db.execute_with(sql, opts).unwrap().rows();
            rs.rows.iter().map(|r| r[0].as_str().unwrap().to_string()).collect()
        };
        let logged = || db.query_log().records().last().unwrap().strategy;
        // The plan each of the three reports names (`None` / "" for none),
        // and EXPLAIN's text.
        let ran = |sql: &str, opts: &QueryOptions| {
            let explain = lines(&format!("EXPLAIN {sql}"), opts);
            assert_eq!(logged(), "", "the EXPLAIN statement runs no plan: {sql}");
            let explained = explain
                .iter()
                .find_map(|l| l.strip_prefix("strategy: "))
                .map(|name| Strategy::ALL.into_iter().find(|s| s.name() == name).unwrap());
            let profile = lines(&format!("EXPLAIN ANALYZE {sql}"), opts);
            let plan_span = profile.iter().find(|l| l.starts_with("  plan ")).unwrap();
            let profiled = plan_span
                .split_once("strategy=")
                .map(|(_, rest)| rest.split("  ").next().unwrap().to_string());
            db.execute_with(sql, opts).unwrap();
            assert_eq!(profiled.as_deref(), explained.map(|s| s.name()), "{sql}");
            assert_eq!(logged(), explained.map_or("", |s| s.slug()), "{sql}");
            (explained, explain.join("\n"))
        };
        let defaults = db.default_options();
        let filtered = |price: u32| {
            format!(
                "SELECT id FROM docs WHERE price < {price} \
                 ORDER BY L2Distance(emb, [5.0, 5.1, 5.2, 4.9]) LIMIT 100"
            )
        };

        // README's two shapes: 90 % passing walks the filter, 40 % scans.
        let (chosen, text) = ran(&filtered(90), &defaults);
        assert_eq!(chosen, Some(Strategy::FilteredTraversal), "{text}");
        assert!(text.contains("estimates: n=12000 k=100 ef=64 selectivity=0.9"), "{text}");
        assert!(text.contains("runner-up="), "{text}");
        assert!(text.contains("search: emb k=100\nfilter: price < 90\n"), "{text}");
        assert!(text.contains("columns read: [price, id]"), "{text}");
        assert!(text.contains("segments: 4 of 4 scheduled, 0 scalar-pruned"), "{text}");
        let (chosen, text) = ran(&filtered(40), &defaults);
        assert_eq!(chosen, Some(Strategy::BruteForce), "{text}");
        // A forced plan runs, and is reported, as forced; the estimates stay.
        for strategy in Strategy::ALL {
            let opts = forcing(&db, strategy);
            let (chosen, text) = ran(&filtered(90), &opts);
            assert_eq!(chosen, Some(strategy), "{text}");
            assert!(text.contains("filtered-traversal (Plan D): "), "{text}");
        }
        // The pushed search carries k and the range; an unprojected vector
        // column is not read, a projected one is.
        let (_, text) = ran(
            "SELECT id FROM docs \
             WHERE label = 'l0' AND L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) < 3.0 \
             ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 7",
            &defaults,
        );
        assert!(text.contains("search: emb k=7 range<=3\n"), "{text}");
        assert!(text.contains("columns read: [label, id]"), "{text}");
        let projecting = "SELECT emb FROM docs ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 2";
        let (_, text) = ran(projecting, &defaults);
        assert!(text.contains("columns read: [emb]"), "{text}");
        assert!(!text.contains("filter:"), "{text}");
        // A scalar statement runs no vector plan, and reports none.
        let scalar = "SELECT id FROM docs WHERE id >= 9000 ORDER BY id LIMIT 5";
        let (chosen, text) = ran(scalar, &defaults);
        assert_eq!(chosen, None, "{text}");
        assert!(!text.contains("estimates:"), "{text}");
        let pruned = "segments: 1 of 4 scheduled, 3 scalar-pruned, 0 in reserve";
        assert!(text.contains(pruned), "{text}");
    }

    #[test]
    fn explain_analyze_profiles_cold_multi_segment_query() {
        // Small segments so the query fans out over several of them, cold
        // caches so the profile shows remote reads.
        let db = Database::new(DatabaseConfig {
            table: TableStoreConfig { segment_max_rows: 64, ..Default::default() },
            ..Default::default()
        });
        db.execute(
            "CREATE TABLE images (
               id UInt64, label String, emb Array(Float32),
               INDEX ann emb TYPE HNSW('DIM=4')
             ) ORDER BY id",
        )
        .unwrap();
        let mut values = Vec::new();
        for i in 0..200 {
            let c = (i % 4) as f32 * 5.0;
            values.push(format!("({i}, 'l{}', [{c}, {c}, {c}, {c}])", i % 2));
        }
        db.execute(&format!("INSERT INTO images VALUES {}", values.join(", "))).unwrap();
        assert!(db.table("images").unwrap().segments().len() > 1, "need multiple segments");

        // An index plan, stated: 200 rows are cheaper to scan (Plan A), and
        // a scan would leave the index caches out of the profile.
        let traversal = forcing(&db, bh_query::Strategy::FilteredTraversal);
        let rs = db
            .execute_with(
                "EXPLAIN ANALYZE SELECT id FROM images WHERE label = 'l0' \
                 ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 5",
                &traversal,
            )
            .unwrap()
            .rows();
        assert_eq!(rs.columns, vec!["profile".to_string()]);
        let text: String = rs
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Str(s) => s.as_str(),
                _ => panic!(),
            })
            .collect::<Vec<_>>()
            .join("\n");
        // Stage tree with per-stage wall time.
        assert!(text.starts_with("query  "), "{text}");
        for stage in ["bind", "plan", "exec", "exec.vector", "segment.search"] {
            assert!(text.contains(stage), "missing stage {stage} in:\n{text}");
        }
        // Segment scheduling and result accounting.
        assert!(text.contains("segments_total="), "{text}");
        assert!(text.contains("segments_visited="), "{text}");
        // Whether the fan-out helpers took part in this statement.
        assert!(text.contains("helper_tasks="), "{text}");
        assert!(text.contains("result rows: 5"), "{text}");
        assert!(text.contains("kernel tier: "), "{text}");
        // The cold query pays remote reads (spans with their bytes) and
        // cache misses (its own tally).
        assert!(text.contains("store.get"), "{text}");
        assert!(text.contains("bytes="), "{text}");
        assert!(text.contains("counters (this query):"), "{text}");
        assert!(text.contains("  cache_misses: "), "{text}");
        assert!(text.contains("  rows_scanned: "), "{text}");
        // With no policy armed the profile's spans are retained nowhere.
        assert!(db.query_log().slow_traces().is_empty());
    }

    #[test]
    fn explain_analyze_does_not_change_results() {
        let db = images_db(200);
        let sql = "SELECT id, dist FROM images WHERE label = 'l0' \
                   ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) AS dist LIMIT 7";
        let before = db.execute(sql).unwrap().rows();
        db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let after = db.execute(sql).unwrap().rows();
        assert_eq!(before, after, "profiling a query must not perturb results");
    }

    #[test]
    fn system_metrics_exposes_prometheus_text() {
        let db = images_db(100);
        db.execute(
            "SELECT id FROM images ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 3",
        )
        .unwrap()
        .rows();
        let rs = db.execute("SYSTEM METRICS").unwrap().rows();
        assert_eq!(rs.columns, vec!["metrics".to_string()]);
        let text: String = rs
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Str(s) => s.as_str(),
                _ => panic!(),
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("# TYPE"), "{text}");
        // Dots mangle to underscores in the Prometheus exposition.
        assert!(text.contains("remote_get_bytes"), "{text}");
        assert!(text.contains("kernel_tier_"), "{text}");
        assert_eq!(text, db.metrics_text().trim_end_matches('\n'));
    }

    #[test]
    fn doc_example_runs() {
        // Mirrors the crate-level doc example.
        let db = Database::in_memory();
        db.execute(
            "CREATE TABLE docs (id UInt64, body String, embedding Array(Float32), \
             INDEX ann embedding TYPE HNSW('DIM=4')) ORDER BY id",
        )
        .unwrap();
        db.execute(
            "INSERT INTO docs VALUES (1, 'hello', [0.0, 0.0, 0.0, 0.0]), \
             (2, 'world', [1.0, 1.0, 1.0, 1.0])",
        )
        .unwrap();
        let rows = db
            .execute("SELECT id FROM docs ORDER BY L2Distance(embedding, [0.1, 0.0, 0.0, 0.0]) LIMIT 1")
            .unwrap()
            .rows();
        assert_eq!(rows.rows[0][0], Value::UInt64(1));
    }

    // ------------------------------------------------------------ PR 9 tests

    fn cell_u64(rs: &ResultSet, row: usize, col: &str) -> u64 {
        let idx = rs.column_index(col).unwrap_or_else(|| panic!("no column {col}"));
        match &rs.rows[row][idx] {
            Value::UInt64(v) => *v,
            other => panic!("{col}: expected UInt64, got {other:?}"),
        }
    }

    fn cell_str<'a>(rs: &'a ResultSet, row: usize, col: &str) -> &'a str {
        let idx = rs.column_index(col).unwrap_or_else(|| panic!("no column {col}"));
        match &rs.rows[row][idx] {
            Value::Str(s) => s.as_str(),
            other => panic!("{col}: expected Str, got {other:?}"),
        }
    }

    #[test]
    fn query_log_records_every_statement_with_stage_latencies() {
        let db = images_db(100);
        db.execute("SELECT id FROM images ORDER BY L2Distance(emb, [0.0,0.0,0.0,0.0]) LIMIT 3")
            .unwrap();
        // A failing statement must log too, with its error code.
        assert!(db.execute("SELECT id FROM missing_table").is_err());

        // The acceptance query: slowest five statements with stage columns.
        let rs = db
            .execute("SELECT * FROM system.query_log ORDER BY duration_ns DESC LIMIT 5")
            .unwrap()
            .rows();
        assert!(rs.len() >= 3, "create+insert+select+error logged, got {}", rs.len());
        assert!(rs.len() <= 5);
        for col in ["query_id", "kind", "sql", "tenant", "duration_ns", "bind_ns", "plan_ns",
                    "exec_ns", "segment_ns", "rpc_ns", "rows_scanned", "cache_hits",
                    "result_rows", "strategy", "error_code"] {
            assert!(rs.column_index(col).is_some(), "missing column {col}");
        }
        // Sorted by duration, descending.
        for w in 0..rs.len() - 1 {
            assert!(cell_u64(&rs, w, "duration_ns") >= cell_u64(&rs, w + 1, "duration_ns"));
        }

        // The vector SELECT saw bind+plan+exec work and its literal was
        // normalized away.
        let all = db
            .execute("SELECT * FROM system.query_log WHERE kind = 'select' ORDER BY query_id ASC")
            .unwrap()
            .rows();
        let vector_row = (0..all.len())
            .find(|&i| cell_str(&all, i, "sql").contains("L2Distance(emb"))
            .expect("vector select logged");
        assert!(cell_u64(&all, vector_row, "bind_ns") > 0);
        assert!(cell_u64(&all, vector_row, "plan_ns") > 0);
        assert!(cell_u64(&all, vector_row, "exec_ns") > 0);
        assert!(cell_u64(&all, vector_row, "result_rows") == 3);
        assert!(!cell_str(&all, vector_row, "sql").contains("0.0"), "literals folded");
        // The vector SELECT logged its chosen physical plan.
        assert!(
            ["brute_force", "pre_filter", "post_filter", "filtered_traversal"]
                .contains(&cell_str(&all, vector_row, "strategy")),
            "unexpected strategy {:?}",
            cell_str(&all, vector_row, "strategy")
        );

        // The failed statement carries the BhError code.
        let errs = db
            .execute("SELECT error_code, kind FROM system.query_log WHERE error_code = 'NOT_FOUND'")
            .unwrap()
            .rows();
        assert_eq!(errs.len(), 1);
        assert_eq!(cell_str(&errs, 0, "kind"), "select");
    }

    #[test]
    fn execute_session_labels_tenant_and_session() {
        let db = images_db(20);
        let opts = db.default_options();
        db.execute_session("SELECT id FROM images LIMIT 1", &opts, "acme", "conn-7").unwrap();
        let rs = db
            .execute("SELECT tenant, session FROM system.query_log WHERE tenant = 'acme'")
            .unwrap()
            .rows();
        assert_eq!(rs.len(), 1);
        assert_eq!(cell_str(&rs, 0, "session"), "conn-7");
    }

    #[test]
    fn slow_query_capture_retains_span_tree_and_exports_chrome_json() {
        let db = images_db(200);
        // Threshold 0 retains every statement from here on.
        db.set_slow_query_policy(Some(bh_common::SlowQueryPolicy {
            threshold_nanos: 0,
            capture_errors: true,
        }));
        db.execute("SELECT id FROM images ORDER BY L2Distance(emb, [0.0,0.0,0.0,0.0]) LIMIT 3")
            .unwrap();

        let traces = db.query_log().slow_traces();
        let slow = traces
            .iter()
            .find(|t| t.sql.contains("L2Distance(emb"))
            .expect("vector select retained");
        assert!(!slow.spans.is_empty(), "span tree retained");
        let qid = slow.query_id;

        // The tree is queryable through system.spans…
        let rs = db
            .execute(&format!(
                "SELECT name, duration_ns FROM system.spans WHERE query_id = {qid}"
            ))
            .unwrap()
            .rows();
        assert_eq!(rs.len(), slow.spans.len());

        // …and the log row is flagged as traced.
        let flagged = db
            .execute(&format!("SELECT traced FROM system.query_log WHERE query_id = {qid}"))
            .unwrap()
            .rows();
        assert_eq!(cell_u64(&flagged, 0, "traced"), 1);

        // SYSTEM TRACE EXPORT renders chrome://tracing JSON: balanced
        // structure, the complete-event phase, and this query's pid.
        let out = db.execute("SYSTEM TRACE EXPORT").unwrap().rows();
        let json = cell_str(&out, 0, "trace");
        assert_json_balanced(json);
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains(&format!("\"pid\":{qid},")), "{json}");
    }

    /// Cheap structural JSON check: quotes and brackets balance. (The full
    /// serializer is unit-tested in `bh_common::querylog`.)
    fn assert_json_balanced(s: &str) {
        let (mut depth, mut in_str, mut escape) = (0i64, false, false);
        for c in s.chars() {
            if in_str {
                match (escape, c) {
                    (true, _) => escape = false,
                    (false, '\\') => escape = true,
                    (false, '"') => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in {s}");
        }
        assert_eq!(depth, 0, "unbalanced JSON: {s}");
        assert!(!in_str, "unterminated string in {s}");
    }

    #[test]
    fn error_statements_can_be_captured_by_policy() {
        let db = Database::in_memory();
        db.set_slow_query_policy(Some(bh_common::SlowQueryPolicy {
            threshold_nanos: u64::MAX,
            capture_errors: true,
        }));
        assert!(db.execute("SELECT x FROM nope").is_err());
        let traces = db.query_log().slow_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].error_code, Some("NOT_FOUND"));
    }

    #[test]
    fn system_metrics_table_supports_filters_and_aggregates() {
        let db = images_db(50);
        db.execute("SELECT id FROM images LIMIT 1").unwrap();
        let rs = db
            .execute("SELECT name, value FROM system.metrics WHERE name = 'query.executed'")
            .unwrap()
            .rows();
        assert_eq!(rs.len(), 1);
        let Value::Float64(v) = rs.rows[0][1] else { panic!() };
        assert!(v >= 1.0);

        let count = db
            .execute("SELECT count(*) FROM system.metrics")
            .unwrap()
            .rows();
        let Value::UInt64(n) = count.rows[0][0] else { panic!() };
        assert!(n > 20, "registry has many metrics, got {n}");

        // Vector-free aggregates over the query log.
        let agg = db
            .execute(
                "SELECT count(*) AS n, sum(result_rows) AS rows, max(duration_ns) AS slowest \
                 FROM system.query_log",
            )
            .unwrap()
            .rows();
        assert_eq!(agg.columns, vec!["n", "rows", "slowest"]);
        let Value::UInt64(n) = agg.rows[0][0] else { panic!() };
        assert!(n >= 3);

        // LIMIT caps the output rows, not the rows an aggregate folds.
        let limited = db.execute("SELECT count(*) FROM system.query_log LIMIT 1").unwrap().rows();
        assert_eq!(limited.len(), 1);
        let Value::UInt64(m) = limited.rows[0][0] else { panic!() };
        assert!(m >= n, "count(*) ... LIMIT 1 counted {m} of at least {n} rows");
    }

    #[test]
    fn system_caches_segments_and_lock_classes_scan() {
        let db = images_db(300);
        // Through the index (300 rows would otherwise be scanned, Plan A), so
        // the index caches have something to show.
        let index_plan = forcing(&db, bh_query::Strategy::PostFilter);
        db.execute_with(
            "SELECT id FROM images ORDER BY L2Distance(emb, [0.0,0.0,0.0,0.0]) LIMIT 3",
            &index_plan,
        )
        .unwrap();

        let caches = db.execute("SELECT * FROM system.caches").unwrap().rows();
        // default VW has 2 workers × (index.mem, column, decoded).
        assert_eq!(caches.len(), 6);
        for kind in ["index.mem", "column", "decoded"] {
            assert_eq!(caches.rows.iter().filter(|r| r[2] == Value::Str(kind.into())).count(), 2);
        }
        assert!(caches.rows.iter().any(|r| matches!(&r[3], Value::UInt64(u) if *u > 0)
            || matches!(&r[6], Value::UInt64(h) if *h > 0)));
        // A filtered top-k reads its rows' cells through the decoded-block
        // cache: a repeat hits it.
        let decoded_hits = || {
            let sql = "SELECT sum(hits) FROM system.caches WHERE cache = 'decoded'";
            let Value::UInt64(h) = db.execute(sql).unwrap().rows().rows[0][0] else { panic!() };
            h
        };
        let before = decoded_hits();
        for _ in 0..2 {
            db.execute_with(
                "SELECT id, label FROM images WHERE label = 'l1' \
                 ORDER BY L2Distance(emb, [5.0,5.0,5.0,5.0]) LIMIT 3",
                &index_plan,
            )
            .unwrap();
        }
        assert!(decoded_hits() > before, "decoded hits stayed at {before}");

        let segs = db
            .execute("SELECT * FROM system.segments WHERE rows > 0 ORDER BY segment_id ASC")
            .unwrap()
            .rows();
        assert!(!segs.is_empty());
        assert_eq!(cell_str(&segs, 0, "table"), "images");
        assert!(cell_u64(&segs, 0, "index_bytes") > 0);
        // After the search, at least one segment index is resident somewhere.
        assert!((0..segs.len()).any(|i| cell_u64(&segs, i, "resident_workers") > 0));

        let locks = db
            .execute("SELECT name, rank FROM system.lock_classes ORDER BY rank ASC")
            .unwrap()
            .rows();
        assert!(locks.len() > 10);
        for w in 0..locks.len() - 1 {
            assert!(cell_u64(&locks, w, "rank") <= cell_u64(&locks, w + 1, "rank"));
        }
        // Debug builds track acquisition edges; this suite runs under
        // debug_assertions, and by now locks have nested at least once.
        #[cfg(debug_assertions)]
        {
            let edges = db
                .execute("SELECT sum(edges_out) FROM system.lock_classes")
                .unwrap()
                .rows();
            let Value::UInt64(total) = edges.rows[0][0] else { panic!() };
            assert!(total > 0, "lockdep graph observed no edges");
        }
    }

    #[test]
    fn unknown_system_table_lists_alternatives() {
        let db = Database::in_memory();
        let err = db.execute("SELECT * FROM system.nope").unwrap_err();
        assert!(err.to_string().contains("system.query_log"), "{err}");
    }

    #[test]
    fn process_metrics_present_before_first_table() {
        let db = Database::in_memory();
        let text = db.metrics_text();
        assert!(text.contains("process_uptime_seconds"), "{text}");
        assert!(text.contains("process_queries"), "{text}");
        assert!(text.contains("query_slo"), "{text}");
        db.execute("SYSTEM METRICS").unwrap();
        assert_eq!(db.metrics().counter_value("process.queries"), 1);
    }

    #[test]
    fn query_log_can_be_disabled() {
        let db = images_db(10);
        let logged = db.query_log().total_logged();
        db.query_log().set_enabled(false);
        db.execute("SELECT id FROM images LIMIT 1").unwrap();
        assert_eq!(db.query_log().total_logged(), logged);
        db.query_log().set_enabled(true);
        db.execute("SELECT id FROM images LIMIT 1").unwrap();
        assert_eq!(db.query_log().total_logged(), logged + 1);
    }

    #[test]
    fn write_path_timings_are_visible_in_system_metrics() {
        let db = images_db(40);
        db.execute("INSERT INTO images VALUES (100, 'l0', 5, [1.0, 2.0, 3.0, 4.0])").unwrap();
        db.compact("images").unwrap();
        let value = |name: &str| {
            let sql = format!("SELECT value FROM system.metrics WHERE name = '{name}'");
            let rs = db.execute(&sql).unwrap().rows();
            assert_eq!(rs.len(), 1, "{name} is not in system.metrics");
            let Value::Float64(v) = rs.rows[0][0] else { panic!("{name}") };
            v
        };
        // One index per ingested segment (two partitions, then one more row)
        // plus one for the merged segment of partition l0, each timed in
        // three parts.
        let built = value("table.segments_created") + 1.0;
        assert_eq!(built, 4.0);
        for stage in ["train", "add", "serialize"] {
            assert_eq!(value(&format!("table.index_{stage}_ns.count")), built, "{stage}");
        }
        assert_eq!(value("table.compact_ns.count"), 1.0);
        assert!(value("table.compact_ns.max_ns") > 0.0);
        assert!(value("table.compact_bytes_rewritten") > 0.0);
    }

    #[test]
    fn slo_histograms_split_by_statement_kind() {
        let db = images_db(10);
        db.execute("SELECT id FROM images LIMIT 1").unwrap();
        let rs = db
            .execute(
                "SELECT name FROM system.metrics \
                 WHERE name = 'query.slo{kind=\"select\"}.p95_ns'",
            )
            .unwrap()
            .rows();
        assert_eq!(rs.len(), 1, "per-kind SLO histogram registered");
        let text = db.metrics_text();
        assert!(text.contains("quantile=\"0.95\""), "{text}");
    }

    /// ROADMAP aim 1's deterministic work count for the overlapped cold
    /// path, through the facade: a cold batch — 16 statements, or one —
    /// over 8 HNSW segments, index cache about a third of the data, pays
    /// the remote store `max` (one get), not `sum`; every cold load — links
    /// blob and vector block — is prefetched once and consumed in flight;
    /// rows equal a fully preloaded database's. Forced to Plan A, which
    /// reads only the raw column, the same statement fetches no index at all.
    #[test]
    fn cold_batch_overlaps_index_transfers_max_not_sum() {
        use bh_cluster::worker::WorkerConfig;
        const SEGMENTS: usize = 8;
        const ROWS_PER_SEGMENT: usize = 250;
        const DIM: usize = 16;
        // Hash-scattered coordinates: no two rows tie at a query's k-th
        // distance, so row order cannot depend on thread interleaving.
        let coord = |i: usize, d: usize| {
            let h = ((i * DIM + d) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            format!("{:.4}", h as f32 / (1u64 << 24) as f32 * 10.0)
        };
        let build = |worker: WorkerConfig| {
            let db = Database::new(DatabaseConfig {
                latencies: DeploymentLatencies::cloud_scaled(),
                table: TableStoreConfig {
                    segment_max_rows: ROWS_PER_SEGMENT,
                    ..Default::default()
                },
                vw: VwConfig { worker, ..Default::default() },
                ..Default::default()
            });
            db.execute(&format!(
                "CREATE TABLE t (id UInt64, x Int64, emb Array(Float32), \
                 INDEX ann emb TYPE HNSW('DIM={DIM}')) ORDER BY id"
            ))
            .unwrap();
            let rows: Vec<String> = (0..SEGMENTS * ROWS_PER_SEGMENT)
                .map(|i| {
                    let v: Vec<String> = (0..DIM).map(|d| coord(i, d)).collect();
                    format!("({i}, {}, [{}])", i % 100, v.join(", "))
                })
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
            db
        };
        let stmts: Vec<bh_sql::SelectStmt> = (0..16)
            .map(|q| {
                let v: Vec<String> = (0..DIM).map(|d| coord(1_000_000 + q, d)).collect();
                let filter = if q % 4 == 3 { "WHERE x < 50 " } else { "" };
                let sql = format!(
                    "SELECT id, dist FROM t {filter}ORDER BY L2Distance(emb, [{}]) AS dist LIMIT 10",
                    v.join(", ")
                );
                match parse_statement(&sql).unwrap() {
                    Statement::Select(sel) => sel,
                    other => panic!("expected SELECT, got {other:?}"),
                }
            })
            .collect();
        let run = |db: &Database, stmts: &[bh_sql::SelectStmt], opts: &QueryOptions| {
            let (table, vw) = (db.table("t").unwrap(), db.default_vw());
            db.engine().execute_select_batch(&table, &vw, opts, stmts).unwrap()
        };

        let db = build(WorkerConfig {
            index_mem_bytes: SEGMENTS * ROWS_PER_SEGMENT * (DIM * 4 + 160) / 3,
            ..Default::default()
        });
        // The cold *index* path is the subject; 2,000 rows would otherwise
        // be scanned (Plan A, the last case below).
        let opts = forcing(&db, bh_query::Strategy::PostFilter);
        let (table, vw) = (db.table("t").unwrap(), db.default_vw());
        let segments = table.segments();
        assert_eq!(segments.len(), SEGMENTS);
        let workers: Vec<_> =
            vw.worker_ids().into_iter().map(|wid| vw.worker(wid).unwrap()).collect();
        // Drop every index and assembled column: a measured run reads index
        // blobs only (the decoded-block caches stay filled).
        let make_cold = || {
            for worker in &workers {
                for meta in &segments {
                    worker.index_cache().invalidate(meta);
                }
                worker.invalidate_columns();
            }
        };
        let resident = || workers.iter().map(|w| w.index_cache().resident_count()).sum::<usize>();
        let warm_db = build(WorkerConfig::default());
        assert_eq!(warm_db.preload("t", "default").unwrap(), SEGMENTS);
        // One pass to fill the decoded-block caches.
        run(&db, &stmts, &opts);

        let counters = [
            "query.index_prefetches",
            "cache.index.prefetch.hit",
            "remote.get",
        ];
        for input in [&stmts[..], &stmts[..1]] {
            make_cold();
            let before = counters.map(|c| db.metrics().counter_value(c));
            let t0 = db.clock().now_nanos();
            let cold = run(&db, input, &opts);
            let elapsed = db.clock().now_nanos() - t0;
            let moved: Vec<u64> = counters
                .iter()
                .zip(before)
                .map(|(c, b)| db.metrics().counter_value(c) - b)
                .collect();

            // (a) max, not sum: all eight loads — a links blob and the
            // segment's one vector block (its length prefix, then the rows)
            // each — cost at most two of the largest single get.
            let block = 8 + ROWS_PER_SEGMENT * DIM * 4;
            let largest =
                segments.iter().map(|m| m.index_bytes as usize).max().unwrap().max(block);
            let one_get = db.cfg.latencies.remote_store.cost(largest).as_nanos() as u64;
            assert!(elapsed > 0 && elapsed <= 2 * one_get, "{elapsed} ns vs one get {one_get} ns");
            // (b) every cold load prefetched once and consumed while in
            // flight; (c) nothing else fetched: two gets per load.
            let n = SEGMENTS as u64;
            assert_eq!(moved, [n, n, 2 * n]);
            assert!(resident() < SEGMENTS, "cache must be smaller than the working set");

            // (d) residency does not change a batch's rows.
            let warm = run(&warm_db, input, &opts);
            for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
                assert_eq!(c.rows, w.rows, "statement {i} differs from the preloaded database");
            }
        }

        // (e) a round fetches no index that nobody will search.
        make_cold();
        let index_counters = [
            "query.index_prefetches",
            "cache.index.prefetch",
            "cache.index.prefetch.hit",
            "cache.index.remote.fetch",
            "cache.index.mem.miss",
        ];
        let before = index_counters.map(|c| db.metrics().counter_value(c));
        let plan_a = QueryOptions { forced_strategy: Some(bh_query::Strategy::BruteForce), ..opts.clone() };
        let exact = run(&db, &stmts[..1], &plan_a);
        assert_eq!(exact[0].rows.len(), 10);
        assert_eq!(index_counters.map(|c| db.metrics().counter_value(c)), before);
        assert_eq!(resident(), 0, "Plan A left the segments cold");
        for worker in &workers {
            assert!(segments.iter().all(|m| !worker.index_cache().in_flight(m.id)));
        }
    }
}
