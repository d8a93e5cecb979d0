//! `point_topk`: many tiny segments, so per-statement time is the front end
//! — parse, bind, plan cache, scheduling, per-segment dispatch, merge,
//! materialise, query log — and almost none of it is index work. A kernel or
//! graph optimisation must show no change here.

use super::{single_statement_pass, verify_static, Pass, Stmt, Table, Verdict, Workload, TABLE};
use crate::gen::{range_for_share, select_sql, Prng, Space};
use bh_vector::SearchParams;
use blendhouse::{DatabaseConfig, QueryOptions};

pub struct Size {
    pub segments: usize,
    pub rows_per_segment: usize,
    pub dim: usize,
    pub queries: usize,
    /// Narrow beam: with ten results wanted from 128 rows it still finds
    /// them all, and it keeps index work per segment to a few microseconds.
    pub ef_search: usize,
}

impl Size {
    pub fn full() -> Size {
        Size { segments: 32, rows_per_segment: 128, dim: 32, queries: 1024, ef_search: 16 }
    }
    pub fn quick() -> Size {
        Size { segments: 8, rows_per_segment: 64, dim: 16, queries: 96, ef_search: 16 }
    }
}

const K: usize = 10;
/// Share of rows the filtered third of the statements lets through.
const FILTER_SHARE: f64 = 0.3;
const CLASSES: &[&str] = &["none", "0.3"];

pub struct PointTopk {
    table: Table,
    stmts: Vec<Stmt>,
    size: Size,
}

impl PointTopk {
    pub fn setup(seed: u64, size: Size) -> PointTopk {
        let space = Space::new(seed, size.dim);
        let table = Table::load(
            seed,
            &space,
            size.segments * size.rows_per_segment,
            size.rows_per_segment,
            DatabaseConfig::default(),
            format!("HNSW('DIM={}')", size.dim),
        );
        table.db.preload(TABLE, "default").expect("preload");

        // Cycle of two pure top-k and one filtered statement, a fresh query
        // vector each, so the plan cache is hot but no result is repeated.
        let mut q = Prng::stream(seed, 3);
        let stmts = (0..size.queries)
            .map(|i| {
                let mut query = Vec::with_capacity(size.dim);
                space.point(&mut q, &mut query);
                let range = (i % 3 == 2).then(|| range_for_share(&mut q, FILTER_SHARE));
                let truth = table.shadow.topk(&query, K, &[range]).pop().expect("one range");
                Stmt {
                    sql: select_sql(TABLE, &query, K, range),
                    query,
                    k: K,
                    range,
                    class: usize::from(range.is_some()),
                    truth,
                }
            })
            .collect();
        PointTopk { table, stmts, size }
    }
}

impl Workload for PointTopk {
    fn classes(&self) -> &'static [&'static str] {
        CLASSES
    }
    fn pass(&mut self) -> Pass {
        single_statement_pass(&self.table.db, &self.options(), &self.stmts)
    }
    fn verify(&self, pass: &Pass) -> Verdict {
        verify_static(&self.table.shadow, CLASSES.len(), &self.stmts, pass)
    }
    fn table(&self) -> &Table {
        &self.table
    }
    fn options(&self) -> QueryOptions {
        QueryOptions {
            search: SearchParams::default().with_ef(self.size.ef_search),
            ..self.table.db.default_options()
        }
    }
    fn sample(&self) -> &[Stmt] {
        &self.stmts
    }
    fn insert_batch_rows(&self) -> usize {
        self.size.rows_per_segment
    }
    fn recall_floor(&self) -> Option<f64> {
        Some(0.95)
    }
}
