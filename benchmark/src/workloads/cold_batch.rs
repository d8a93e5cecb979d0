//! `cold_batch`: the only workload larger than the program's own index
//! cache and the only one that pays remote-store and RPC latency (real
//! sleeps from the system's `RealClock`, steady because they burn no CPU).
//! Each iteration drops every segment from every worker, runs a *cold*
//! batch of 16 statements through the batch executor, then a *re-warm*
//! batch of 16 different queries. It exercises the index-cache tiers,
//! eviction, blob decode, tiered heads and the segment-major batch path;
//! work on the cold path shows here and nowhere else.

use super::{id_x, verify_static, Pass, Stmt, Table, Verdict, Workload, TABLE};
use crate::gen::{range_for_share, select_sql, Prng, Space};
use crate::shadow::CallResult;
use bh_common::DeploymentLatencies;
use bh_sql::{parse_statement, SelectStmt, Statement};
use blendhouse::{DatabaseConfig, QueryOptions};
use std::time::Instant;

pub struct Size {
    pub segments: usize,
    pub rows_per_segment: usize,
    pub dim: usize,
    /// Statements per batch.
    pub batch: usize,
    /// Iterations per pass; each takes two batches of its own, so a pass
    /// is one sweep over `2 * iterations` distinct batches.
    pub iterations: usize,
}

impl Size {
    pub fn full() -> Size {
        Size { segments: 8, rows_per_segment: 1000, dim: 64, batch: 16, iterations: 24 }
    }
    pub fn quick() -> Size {
        Size { segments: 4, rows_per_segment: 200, dim: 16, batch: 4, iterations: 3 }
    }
}

const K: usize = 10;
/// Every fourth statement of a batch is filtered to about this share, so
/// the cold path also re-reads the filter column it has just dropped.
const FILTER_SHARE: f64 = 0.5;
const CLASSES: &[&str] = &["none", "0.5"];

pub struct ColdBatch {
    table: Table,
    /// Batch `b` is `stmts[b*batch..(b+1)*batch]`; iteration `i` runs batch
    /// `2i` cold and batch `2i+1` as the re-warm.
    stmts: Vec<Stmt>,
    parsed: Vec<SelectStmt>,
    size: Size,
}

impl ColdBatch {
    pub fn setup(seed: u64, size: Size) -> ColdBatch {
        let space = Space::new(seed, size.dim);
        let mut cfg = DatabaseConfig {
            real_time: true,
            latencies: DeploymentLatencies::cloud_scaled(),
            ..DatabaseConfig::default()
        };
        // About a third of all index bytes per worker (vectors plus HNSW
        // links), so no worker can keep its share of the segments resident.
        cfg.vw.worker.index_mem_bytes =
            size.segments * size.rows_per_segment * (size.dim * 4 + 160) / 3;
        cfg.vw.worker.tiered_loading = true;
        cfg.vw.worker.overlap = true;
        let table = Table::load(
            seed,
            &space,
            size.segments * size.rows_per_segment,
            size.rows_per_segment,
            cfg,
            format!("HNSW('DIM={}')", size.dim),
        );

        let mut q = Prng::stream(seed, 3);
        let n = 2 * size.iterations * size.batch;
        let mut stmts = Vec::with_capacity(n);
        let mut parsed = Vec::with_capacity(n);
        for i in 0..n {
            let mut query = Vec::with_capacity(size.dim);
            space.point(&mut q, &mut query);
            let range = (i % 4 == 3).then(|| range_for_share(&mut q, FILTER_SHARE));
            let truth = table.shadow.topk(&query, K, &[range]).pop().expect("one range");
            let sql = select_sql(TABLE, &query, K, range);
            let Ok(Statement::Select(sel)) = parse_statement(&sql) else {
                panic!("generated SELECT does not parse: {sql}");
            };
            parsed.push(sel);
            stmts.push(Stmt {
                sql,
                query,
                k: K,
                range,
                class: usize::from(range.is_some()),
                truth,
            });
        }
        ColdBatch { table, stmts, parsed, size }
    }

    /// Drop every segment's index and decoded columns from every worker.
    fn invalidate_all(&self) {
        let table = self.table.db.table(TABLE).expect("bench table");
        let vw = self.table.db.default_vw();
        let segments = table.segments();
        for wid in vw.worker_ids() {
            let worker = vw.worker(wid).expect("listed worker");
            for meta in &segments {
                worker.index_cache().invalidate(meta);
            }
            worker.invalidate_columns();
        }
    }

    /// Run batch `b` through the batch executor; returns seconds.
    fn run_batch(&self, b: usize, opts: &QueryOptions, results: &mut Vec<CallResult>) -> f64 {
        let table = self.table.db.table(TABLE).expect("bench table");
        let vw = self.table.db.default_vw();
        let stmts = &self.parsed[b * self.size.batch..(b + 1) * self.size.batch];
        let t = Instant::now();
        let out = self.table.db.engine().execute_select_batch(&table, &vw, opts, stmts);
        let dt = t.elapsed().as_secs_f64();
        match out {
            Ok(sets) => results.extend(
                sets.iter().map(|rs| rs.rows.iter().map(|row| id_x(row)).collect::<CallResult>()),
            ),
            Err(e) => results.extend((0..stmts.len()).map(|_| Err(e.to_string()))),
        }
        dt
    }
}

impl Workload for ColdBatch {
    fn classes(&self) -> &'static [&'static str] {
        CLASSES
    }

    /// Latency samples are the cold batches only; throughput counts both.
    fn pass(&mut self) -> Pass {
        let opts = self.options();
        let mut pass = Pass::default();
        for i in 0..self.size.iterations {
            self.invalidate_all();
            for cold in [true, false] {
                let dt = self.run_batch(2 * i + usize::from(!cold), &opts, &mut pass.results);
                pass.busy_s += dt;
                pass.statements += self.size.batch;
                if cold {
                    pass.latencies_us.push((0, dt * 1e6));
                }
            }
        }
        pass
    }

    fn verify(&self, pass: &Pass) -> Verdict {
        verify_static(&self.table.shadow, CLASSES.len(), &self.stmts, pass)
    }

    fn table(&self) -> &Table {
        &self.table
    }
    fn options(&self) -> QueryOptions {
        self.table.db.default_options()
    }
    fn sample(&self) -> &[Stmt] {
        &self.stmts
    }
    fn insert_batch_rows(&self) -> usize {
        self.size.rows_per_segment.min(512)
    }
    fn recall_floor(&self) -> Option<f64> {
        // Cold statements may be answered from a head-only partial index,
        // which is approximate by design; recorded, not floored.
        None
    }
}
