//! `deep_hybrid`: two large segments, wide beam, k = 100, six filter
//! classes from none to 0.001 — time is graph traversal, predicate
//! evaluation, distance kernels and whichever plan the cost-based optimizer
//! picks (it gets no selectivity hint). Front-end overhead is a small share,
//! so a plan-cache or allocation fix must show no change here. Forced plans
//! are known to lose recall at the selective end, so recall is an
//! end-to-end metric of this workload, sampled per class.

use super::{single_statement_pass, verify_static, Pass, Stmt, Table, Verdict, Workload, TABLE};
use crate::gen::{range_for_share, select_sql, Prng, Space};
use bh_vector::SearchParams;
use blendhouse::{DatabaseConfig, QueryOptions};

pub struct Size {
    pub segments: usize,
    pub rows_per_segment: usize,
    pub dim: usize,
    pub queries: usize,
    pub k: usize,
    pub ef_search: usize,
}

impl Size {
    pub fn full() -> Size {
        Size { segments: 2, rows_per_segment: 8000, dim: 64, queries: 256, k: 100, ef_search: 256 }
    }
    pub fn quick() -> Size {
        Size { segments: 2, rows_per_segment: 600, dim: 16, queries: 16, k: 20, ef_search: 64 }
    }
}

/// Share of rows each filter class lets through (`None`: no filter).
const SHARES: &[Option<f64>] = &[None, Some(0.9), Some(0.3), Some(0.1), Some(0.01), Some(0.001)];
const CLASSES: &[&str] = &["none", "0.9", "0.3", "0.1", "0.01", "0.001"];

pub struct DeepHybrid {
    table: Table,
    stmts: Vec<Stmt>,
    size: Size,
}

impl DeepHybrid {
    pub fn setup(seed: u64, size: Size) -> DeepHybrid {
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

        let mut q = Prng::stream(seed, 3);
        let mut stmts = Vec::with_capacity(size.queries * SHARES.len());
        for _ in 0..size.queries {
            let mut query = Vec::with_capacity(size.dim);
            space.point(&mut q, &mut query);
            let ranges: Vec<Option<(i64, i64)>> =
                SHARES.iter().map(|s| s.map(|share| range_for_share(&mut q, share))).collect();
            let truths = table.shadow.topk(&query, size.k, &ranges);
            for (class, (range, truth)) in ranges.into_iter().zip(truths).enumerate() {
                stmts.push(Stmt {
                    sql: select_sql(TABLE, &query, size.k, range),
                    query: query.clone(),
                    k: size.k,
                    range,
                    class,
                    truth,
                });
            }
        }
        DeepHybrid { table, stmts, size }
    }
}

impl Workload for DeepHybrid {
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
        self.size.rows_per_segment.min(512)
    }
    fn recall_floor(&self) -> Option<f64> {
        None
    }
}
