//! The four workloads and what they share: statements, passes, verdicts.
//!
//! Load shape for all of them: one process, one client thread, closed loop —
//! the next call is issued when the previous one returns. The engine keeps
//! its default intra-query parallelism. Each workload owns its `Database`.

pub mod cold_batch;
pub mod deep_hybrid;
pub mod ingest_mixed;
pub mod point_topk;

use crate::gen::{create_table_sql, Prng, Rows, Space};
use crate::shadow::{recall, CallResult, Shadow, Truth};
use blendhouse::{Database, DatabaseConfig, QueryOptions, QueryOutput, Value};
use std::time::Instant;

/// Name of the table every workload queries.
pub const TABLE: &str = "bench";

/// One generated SELECT with everything needed to judge its result.
pub struct Stmt {
    pub sql: String,
    pub query: Vec<f32>,
    pub k: usize,
    /// Inclusive filter on `x`; `None` for a pure top-k.
    pub range: Option<(i64, i64)>,
    /// Index into the workload's [`Workload::classes`].
    pub class: usize,
    /// Exact answer against the rows live when the statement runs.
    pub truth: Truth,
}

/// What one timed pass produced. Correctness is judged afterwards, outside
/// the timed calls.
#[derive(Default)]
pub struct Pass {
    /// Seconds spent inside calls into the system.
    pub busy_s: f64,
    /// Statements completed.
    pub statements: usize,
    /// `(filter class, microseconds)` per call of the latency-bearing kind
    /// (see each workload).
    pub latencies_us: Vec<(usize, f64)>,
    /// Seconds inside INSERT / UPDATE / DELETE / compact calls.
    pub write_s: f64,
    /// Rows those calls acknowledged.
    pub rows_written: u64,
    /// The part of `write_s` spent inside compaction calls.
    pub compact_s: f64,
    /// Result of every SELECT, in issue order.
    pub results: Vec<CallResult>,
    /// Faults found in non-SELECT calls during the pass.
    pub write_faults: Vec<String>,
    /// Non-SELECT calls attempted.
    pub write_calls: usize,
}

/// Correctness and recall of one pass.
#[derive(Default)]
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    /// `(sum of recall, statements sampled)` per filter class.
    pub recall_by_class: Vec<(f64, usize)>,
    /// First few faults, verbatim, for the report.
    pub faults: Vec<String>,
}

impl Verdict {
    pub fn new(classes: usize) -> Verdict {
        Verdict { recall_by_class: vec![(0.0, 0); classes], ..Verdict::default() }
    }

    pub fn fault(&mut self, what: String) {
        self.failed += 1;
        if self.faults.len() < 5 {
            self.faults.push(what);
        }
    }

    /// Judge one SELECT result against the shadow copy and add its recall
    /// to its class (a failed call scores zero rather than dropping out).
    pub fn judge(&mut self, shadow: &Shadow, stmt: &Stmt, result: &CallResult) {
        self.attempted += 1;
        if let Some(why) = shadow.fault(result, stmt.k, stmt.range, stmt.truth.passing) {
            self.fault(format!("{why} — {}", abbreviate(&stmt.sql)));
        }
        let slot = &mut self.recall_by_class[stmt.class];
        slot.0 += result.as_ref().map_or(0.0, |rows| recall(&stmt.truth, rows));
        slot.1 += 1;
    }

    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (mine, theirs) in self.recall_by_class.iter_mut().zip(other.recall_by_class) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
        let room = 5usize.saturating_sub(self.faults.len());
        self.faults.extend(other.faults.into_iter().take(room));
    }

    /// Mean recall over every sampled statement.
    pub fn recall(&self) -> f64 {
        let (sum, n) = self.recall_by_class.iter().fold((0.0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }
}

/// SQL with its vector literal cut short, for fault messages.
fn abbreviate(sql: &str) -> String {
    match sql.find('[') {
        Some(at) => format!("{}[…]{}", &sql[..at], sql.rfind(']').map_or("", |e| &sql[e + 1..])),
        None => sql.to_string(),
    }
}

/// Rows and seconds of a workload's set-up ingest.
#[derive(Clone, Copy, Default)]
pub struct LoadStats {
    pub rows: u64,
    pub write_s: f64,
}

/// What every workload holds: its database, the rows it was generated
/// from, and the benchmark's own copy of the rows live after a pass.
pub struct Table {
    pub db: Database,
    pub rows: Rows,
    pub shadow: Shadow,
    /// Index clause of the table, e.g. `HNSW('DIM=32')`.
    pub index: String,
    /// Set-up ingest (zero for a workload that loads nothing up front).
    pub load: LoadStats,
}

impl Table {
    /// Generate `n` rows, create the table under `cfg` and ingest them
    /// through SQL INSERTs of `batch` rows — one segment per statement, the
    /// shape real-time ingest leaves behind. SQL text is built outside the
    /// timed write calls.
    pub fn load(
        seed: u64,
        space: &Space,
        n: usize,
        batch: usize,
        mut cfg: DatabaseConfig,
        index: String,
    ) -> Table {
        let rows = Rows::generate(space, &mut Prng::stream(seed, 2), 0, n);
        let mut shadow = Shadow::new(space.dim);
        shadow.insert(&rows, 0, n);
        cfg.table.segment_max_rows = batch;
        let db = Database::new(cfg);
        db.execute(&create_table_sql(TABLE, &index)).expect("CREATE TABLE");
        let mut load = LoadStats::default();
        for from in (0..n).step_by(batch) {
            let sql = rows.insert_sql(TABLE, from, (from + batch).min(n));
            let t = Instant::now();
            let acked = db.execute(&sql).expect("set-up INSERT").affected();
            load.write_s += t.elapsed().as_secs_f64();
            load.rows += acked as u64;
        }
        Table { db, rows, shadow, index, load }
    }
}

pub trait Workload {
    /// Names of the filter classes, index-aligned with [`Stmt::class`].
    fn classes(&self) -> &'static [&'static str];
    /// Run one pass of the fixed statement list.
    fn pass(&mut self) -> Pass;
    /// Check a pass's results for correctness and recall.
    fn verify(&self, pass: &Pass) -> Verdict;
    /// Database, rows and shadow copy as the last pass left them.
    fn table(&self) -> &Table;
    /// Options the workload's SELECTs run under.
    fn options(&self) -> QueryOptions;
    /// SELECT statements a traced run replays layer by layer.
    fn sample(&self) -> &[Stmt];
    /// Rows (from the first) of one INSERT batch, for the write probes.
    fn insert_batch_rows(&self) -> usize;
    /// Whether every pass starts from an empty database (so its counters
    /// start from zero) instead of re-reading one loaded table.
    fn fresh_db_per_pass(&self) -> bool {
        false
    }
    /// Mean recall below which the run fails loudly; `None` records only.
    fn recall_floor(&self) -> Option<f64>;
}

/// `(id, x)` pairs of a `SELECT id, x …` result.
pub fn id_x_rows(out: Result<QueryOutput, bh_common::BhError>) -> CallResult {
    match out {
        Ok(QueryOutput::Rows(rs)) => rs.rows.iter().map(|row| id_x(row)).collect(),
        Ok(other) => Err(format!("expected rows, got {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

pub fn id_x(row: &[Value]) -> Result<(u64, i64), String> {
    match row {
        [Value::UInt64(id), Value::Int64(x)] => Ok((*id, *x)),
        other => Err(format!("expected (UInt64 id, Int64 x), got {other:?}")),
    }
}

/// One pass of single statements through `Database::execute_with`, each
/// call timed on its own. Shared by the two warm single-statement workloads.
pub fn single_statement_pass(db: &Database, opts: &QueryOptions, stmts: &[Stmt]) -> Pass {
    let mut pass = Pass::default();
    pass.latencies_us.reserve(stmts.len());
    pass.results.reserve(stmts.len());
    for stmt in stmts {
        let t = Instant::now();
        let out = db.execute_with(&stmt.sql, opts);
        let dt = t.elapsed().as_secs_f64();
        pass.busy_s += dt;
        pass.latencies_us.push((stmt.class, dt * 1e6));
        pass.results.push(id_x_rows(out));
    }
    pass.statements = stmts.len();
    pass
}

/// Verify a pass against a table that does not change.
pub fn verify_static(shadow: &Shadow, classes: usize, stmts: &[Stmt], pass: &Pass) -> Verdict {
    let mut v = Verdict::new(classes);
    for (stmt, result) in stmts.iter().zip(&pass.results) {
        v.judge(shadow, stmt, result);
    }
    v
}
