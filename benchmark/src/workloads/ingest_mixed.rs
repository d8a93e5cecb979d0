//! `ingest_mixed`: writes beside reads on the same layers. A deterministic
//! single-threaded schedule per cycle — one SQL INSERT of a batch of rows,
//! eight top-10 reads (half filtered, refined from a quantized IVFPQFS
//! index), every 4th cycle one UPDATE and one DELETE of about 32 rows by id
//! range, every 8th cycle a compaction. It covers parsing of large
//! literals, segment write beside index build (k-means and PQ training),
//! delete bitmaps, compaction rewrite, cache invalidation and quantized
//! fast-scan plus refine. A read-path gain bought with ingest or space cost
//! shows here.
//!
//! The table changes as the schedule runs, so every pass starts from an
//! empty database and replays the identical schedule; the shadow copy is
//! replayed beside the results afterwards to judge them.

use super::{id_x_rows, LoadStats, Pass, Stmt, Table, Verdict, Workload, TABLE};
use crate::gen::{create_table_sql, range_for_share, select_sql, Prng, Rows, Space, X_RANGE};
use crate::shadow::Shadow;
use blendhouse::{Database, QueryOptions, QueryOutput};
use std::time::Instant;

pub struct Size {
    pub dim: usize,
    pub cycles: usize,
    pub rows_per_insert: usize,
    pub reads_per_cycle: usize,
    /// Rows an UPDATE or DELETE addresses by id range.
    pub mutate_rows: u64,
}

impl Size {
    pub fn full() -> Size {
        Size { dim: 64, cycles: 32, rows_per_insert: 512, reads_per_cycle: 8, mutate_rows: 32 }
    }
    pub fn quick() -> Size {
        Size { dim: 16, cycles: 8, rows_per_insert: 96, reads_per_cycle: 4, mutate_rows: 8 }
    }
}

const K: usize = 10;
const FILTER_SHARE: f64 = 0.3;
const MUTATE_EVERY: usize = 4;
const COMPACT_EVERY: usize = 8;
const CLASSES: &[&str] = &["none", "0.3"];

enum Op {
    /// INSERT of `rows[from..to]`.
    Insert {
        sql: String,
        from: usize,
        to: usize,
    },
    /// Index into `reads`.
    Read(usize),
    Update {
        sql: String,
        lo: u64,
        hi: u64,
        x: i64,
    },
    Delete {
        sql: String,
        lo: u64,
        hi: u64,
    },
    Compact,
}

pub struct IngestMixed {
    /// The database of the last pass; the shadow copy is the rows live after
    /// a full pass.
    table: Table,
    /// Each step with the rows the shadow copy says it affects.
    ops: Vec<(Op, usize)>,
    reads: Vec<Stmt>,
    size: Size,
}

/// A read against the rows live at its place in the schedule.
fn read_stmt(space: &Space, q: &mut Prng, filtered: bool, live: &Shadow) -> Stmt {
    let mut query = Vec::with_capacity(space.dim);
    space.point(q, &mut query);
    let range = filtered.then(|| range_for_share(q, FILTER_SHARE));
    let truth = live.topk(&query, K, &[range]).pop().expect("one range");
    Stmt {
        sql: select_sql(TABLE, &query, K, range),
        query,
        k: K,
        range,
        class: usize::from(filtered),
        truth,
    }
}

impl IngestMixed {
    pub fn setup(seed: u64, size: Size) -> IngestMixed {
        let space = Space::new(seed, size.dim);
        let mut r = Prng::stream(seed, 2);
        let rows = Rows::generate(&space, &mut r, 0, size.cycles * size.rows_per_insert);

        let mut q = Prng::stream(seed, 3);
        let mut ops = Vec::new();
        let mut reads = Vec::new();
        // The shadow copy is advanced beside the schedule so each read's
        // exact answer is known before anything is timed.
        let mut shadow = Shadow::new(size.dim);
        let push = |ops: &mut Vec<(Op, usize)>, shadow: &mut Shadow, op: Op| {
            let affects = apply(shadow, &rows, &op);
            ops.push((op, affects));
        };
        for cycle in 0..size.cycles {
            let (from, to) = (cycle * size.rows_per_insert, (cycle + 1) * size.rows_per_insert);
            push(
                &mut ops,
                &mut shadow,
                Op::Insert { sql: rows.insert_sql(TABLE, from, to), from, to },
            );
            for i in 0..size.reads_per_cycle {
                ops.push((Op::Read(reads.len()), 0));
                reads.push(read_stmt(&space, &mut q, i % 2 == 1, &shadow));
            }
            if cycle % MUTATE_EVERY == MUTATE_EVERY - 1 {
                let span = to as u64 - size.mutate_rows;
                let lo = q.below(span);
                let (hi, x) = (lo + size.mutate_rows - 1, q.below(X_RANGE as u64) as i64);
                let sql = format!("UPDATE {TABLE} SET x = {x} WHERE id BETWEEN {lo} AND {hi}");
                push(&mut ops, &mut shadow, Op::Update { sql, lo, hi, x });
                let lo = q.below(span);
                let hi = lo + size.mutate_rows - 1;
                let sql = format!("DELETE FROM {TABLE} WHERE id BETWEEN {lo} AND {hi}");
                push(&mut ops, &mut shadow, Op::Delete { sql, lo, hi });
            }
            if cycle % COMPACT_EVERY == COMPACT_EVERY - 1 {
                ops.push((Op::Compact, 0));
            }
        }

        let table = Table {
            db: Database::in_memory(),
            rows,
            shadow,
            index: format!("IVFPQFS('DIM={}')", size.dim),
            load: LoadStats::default(),
        };
        IngestMixed { table, ops, reads, size }
    }
}

/// Apply a write to the shadow copy; returns the rows it should affect.
fn apply(shadow: &mut Shadow, rows: &Rows, op: &Op) -> usize {
    match op {
        Op::Insert { from, to, .. } => {
            shadow.insert(rows, *from, *to);
            to - from
        }
        Op::Update { lo, hi, x, .. } => shadow.update_ids(*lo, *hi, *x),
        Op::Delete { lo, hi, .. } => shadow.delete_ids(*lo, *hi),
        Op::Read(_) | Op::Compact => 0,
    }
}

impl Workload for IngestMixed {
    fn classes(&self) -> &'static [&'static str] {
        CLASSES
    }

    /// Latency samples are the reads; throughput counts every statement.
    fn pass(&mut self) -> Pass {
        // A fresh database per pass, created outside the timed calls.
        self.table.db = Database::in_memory();
        let db = &self.table.db;
        db.execute(&create_table_sql(TABLE, &self.table.index)).expect("CREATE TABLE");
        let opts = self.options();
        let mut pass = Pass::default();
        for (op, expect) in &self.ops {
            let t = Instant::now();
            match op {
                Op::Read(i) => {
                    let out = db.execute_with(&self.reads[*i].sql, &opts);
                    let dt = t.elapsed().as_secs_f64();
                    pass.busy_s += dt;
                    pass.latencies_us.push((self.reads[*i].class, dt * 1e6));
                    pass.results.push(id_x_rows(out));
                }
                Op::Insert { sql, .. } | Op::Update { sql, .. } | Op::Delete { sql, .. } => {
                    let out = db.execute(sql);
                    let dt = t.elapsed().as_secs_f64();
                    pass.busy_s += dt;
                    pass.write_s += dt;
                    pass.write_calls += 1;
                    match out {
                        Ok(QueryOutput::Affected(n)) if n == *expect => {
                            pass.rows_written += n as u64
                        }
                        Ok(other) => pass.write_faults.push(format!(
                            "{}… affected {other:?}, expected {expect}",
                            &sql[..sql.len().min(60)]
                        )),
                        Err(e) => pass
                            .write_faults
                            .push(format!("{}… failed: {e}", &sql[..sql.len().min(60)])),
                    }
                }
                Op::Compact => {
                    let out = db.compact(TABLE);
                    let dt = t.elapsed().as_secs_f64();
                    pass.busy_s += dt;
                    pass.write_s += dt;
                    pass.compact_s += dt;
                    pass.write_calls += 1;
                    if let Err(e) = out {
                        pass.write_faults.push(format!("compact failed: {e}"));
                    }
                }
            }
            pass.statements += 1;
        }
        // The table must end with exactly the shadow's live rows. The
        // dialect has no aggregate, so count an unordered full scan.
        pass.write_calls += 1;
        let all =
            format!("SELECT id, x FROM {TABLE} WHERE id >= 0 LIMIT {}", self.table.rows.len() + 1);
        let live = self.table.shadow.live();
        match id_x_rows(db.execute(&all)) {
            Ok(rows) if rows.len() == live => {}
            Ok(rows) => pass.write_faults.push(format!(
                "table ends with {} rows, shadow copy has {}",
                rows.len(),
                live
            )),
            Err(e) => pass.write_faults.push(format!("final scan failed: {e}")),
        }
        pass
    }

    fn verify(&self, pass: &Pass) -> Verdict {
        let mut v = Verdict::new(CLASSES.len());
        v.attempted += pass.write_calls;
        for fault in &pass.write_faults {
            v.fault(fault.clone());
        }
        let mut shadow = Shadow::new(self.size.dim);
        let mut results = pass.results.iter();
        for (op, _) in &self.ops {
            apply(&mut shadow, &self.table.rows, op);
            let Op::Read(i) = op else { continue };
            let stmt = &self.reads[*i];
            let result = results.next().expect("one result per read");
            v.judge(&shadow, stmt, result);
        }
        v
    }

    fn table(&self) -> &Table {
        &self.table
    }
    fn options(&self) -> QueryOptions {
        self.table.db.default_options()
    }
    fn sample(&self) -> &[Stmt] {
        &self.reads
    }
    fn insert_batch_rows(&self) -> usize {
        self.size.rows_per_insert
    }
    fn fresh_db_per_pass(&self) -> bool {
        true
    }
    fn recall_floor(&self) -> Option<f64> {
        Some(0.75)
    }
}
