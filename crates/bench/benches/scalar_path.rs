//! The scalar half of a hybrid query (DESIGN.md §15), piece by piece and
//! through the engine's own entry points, so the same source compiled
//! against an older commit gives the "before" column:
//!
//! 1. **Predicate, ns per row** — `Worker::eval_predicate` over 8,000-row
//!    segments for Int64 / UInt64 / Float64 columns × range / `=` / `IN (8)`
//!    × pass fractions 0.001 / 0.1 / 0.5 / 0.9. Every call sees outcomes it
//!    has not seen: a range draws fresh bounds, and because an equality's
//!    pass fraction belongs to the data, `=` and `IN` rotate through four
//!    independently drawn segments. (With one fixed range in a loop the
//!    branch predictor learns the 8,000 outcomes and a branch-per-row
//!    kernel reads 3–5x faster than it runs inside a statement.)
//! 2. **Gather, ns per cell** — `Worker::read_cells` of 100 scattered cells
//!    with the column decoded in cache, and from decoded blocks.
//! 3. **Materialise, µs per statement** — the engine's own `materialize`
//!    span around 100 result rows × 2 projected columns × 2 segments.
//! 4. **Plan A's filtered scan, ns per passing row** —
//!    `Worker::brute_force_segment_bounded` behind bitsets of pass fraction
//!    0.01 / 0.1 / 0.3 / 0.9 on 8,000 × 64.
//!
//! Before anything is timed the bitset is checked against `Predicate::eval`
//! row by row, the gathered cells against the uncached
//! `TableStore::load_column`, and the filtered scan against per-row
//! `Metric::distance`. The gather and scan rows also carry `cold_store_gets`:
//! the store gets of the same first call on a fresh worker, an exact count.
//!
//! Results are printed and written to `target/bench-fresh/BENCH_scalar.json`
//! in the schema of the committed `BENCH_scalar.json` for
//! `cargo run -p xtask -- bench-diff`.

use bh_bench::harness::{median, print_table, write_fresh_json, Timer};
use bh_cluster::worker::{Worker, WorkerConfig};
use bh_common::rng::derive_seed;
use bh_common::{Bitset, MetricsRegistry, SlowQueryPolicy, VirtualClock, WorkerId};
use bh_storage::predicate::Predicate;
use bh_storage::segment::SegmentMeta;
use bh_storage::table::TableStore;
use bh_vector::distance::KernelTier;
use bh_vector::Metric;
use blendhouse::{Database, DatabaseConfig, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

const ROWS: usize = 8_000;
const DIM: usize = 64;
const REPS: usize = 11;
const FRACTIONS: [f64; 4] = [0.001, 0.1, 0.5, 0.9];
const RANGE: u64 = 1_000_000;
/// Literals no categorical cell holds (those are 0 or at least 8).
const ABSENT: [u64; 7] = [1, 2, 3, 4, 5, 6, 7];

/// Uniform in `[0, 1)` from a (row, stream) pair.
fn unit(row: usize, stream: u64) -> f64 {
    (derive_seed(row as u64, stream) >> 11) as f64 / (1u64 << 53) as f64
}

#[derive(Clone, Copy)]
enum Ty {
    I64,
    U64,
    F64,
}

impl Ty {
    const ALL: [Ty; 3] = [Ty::I64, Ty::U64, Ty::F64];
    fn sql(self) -> &'static str {
        ["Int64", "UInt64", "Float64"][self as usize]
    }
    fn tag(self) -> &'static str {
        ["i", "u", "f"][self as usize]
    }
    fn value(self, x: u64) -> Value {
        match self {
            Ty::I64 => Value::Int64(x as i64),
            Ty::U64 => Value::UInt64(x),
            Ty::F64 => Value::Float64(x as f64),
        }
    }
}

/// The predicate table: per type one uniform column `r<t>` for ranges and
/// one categorical column `c<t><f>` per pass fraction (cell 0 with that
/// probability, otherwise one of 1,000 values from 8 up).
fn predicate_table(segments: usize) -> (Database, Arc<TableStore>) {
    let mut cfg = DatabaseConfig::default();
    cfg.table.segment_max_rows = ROWS;
    let db = Database::new(cfg);
    let mut columns = String::from("id UInt64");
    for ty in Ty::ALL {
        columns += &format!(", r{} {}", ty.tag(), ty.sql());
        for f in 0..FRACTIONS.len() {
            columns += &format!(", c{}{f} {}", ty.tag(), ty.sql());
        }
    }
    db.execute(&format!(
        "CREATE TABLE p ({columns}, emb Array(Float32), INDEX ann emb TYPE FLAT('DIM=2')) \
         ORDER BY id"
    ))
    .expect("CREATE TABLE p");
    let rows: Vec<Vec<Value>> = (0..segments * ROWS)
        .map(|i| {
            let mut row = vec![Value::UInt64(i as u64)];
            for ty in Ty::ALL {
                row.push(ty.value((unit(i, 1) * RANGE as f64) as u64));
                for (f, p) in FRACTIONS.iter().enumerate() {
                    let hit = unit(i, 10 + f as u64) < *p;
                    row.push(ty.value(if hit { 0 } else { 8 + derive_seed(i as u64, 20) % 1_000 }));
                }
            }
            row.push(Value::Vector(vec![unit(i, 2) as f32, unit(i, 3) as f32]));
            row
        })
        .collect();
    let table = db.table("p").expect("table p");
    table.insert_rows(rows).expect("insert");
    assert_eq!(table.segments().len(), segments);
    (db, table)
}

/// One call's predicate for (`ty`, `shape`, fraction `f`), fresh per `call`.
fn predicate(ty: Ty, shape: &str, f: usize, call: u64) -> Predicate {
    match shape {
        "range" => {
            let width = ((RANGE as f64 * FRACTIONS[f]).round() as u64).max(1);
            let lo = derive_seed(call, 30) % (RANGE - width + 1);
            let hi = lo + width - 1;
            Predicate::range(&format!("r{}", ty.tag()), Some(ty.value(lo)), Some(ty.value(hi)))
        }
        "eq" => Predicate::eq(&format!("c{}{f}", ty.tag()), ty.value(0)),
        _ => {
            // The one literal that matches sits at a fresh place in the list.
            let mut list: Vec<Value> = ABSENT.iter().map(|&x| ty.value(x)).collect();
            list.insert((call % 8) as usize, ty.value(0));
            Predicate::In(format!("c{}{f}", ty.tag()), list)
        }
    }
}

fn owner(db: &Database, meta: &SegmentMeta) -> Arc<Worker> {
    db.default_vw().owner_of(meta).expect("owner").1
}

/// The store gets `call` makes on a fresh worker: what a cold read costs.
fn cold_store_gets(db: &Database, table: &TableStore, call: impl FnOnce(&Worker)) -> u64 {
    let fresh = Worker::new(
        WorkerId(99),
        WorkerConfig::default(),
        table.remote_store().clone(),
        VirtualClock::shared(),
        MetricsRegistry::new(),
        Arc::default(),
    );
    let before = db.metrics().counter_value("remote.get");
    call(&fresh);
    db.metrics().counter_value("remote.get") - before
}

/// `eval_predicate` answers `Predicate::eval` for every row of the segment.
fn check_predicate(table: &TableStore, worker: &Worker, meta: &SegmentMeta, p: &Predicate) -> f64 {
    let bits = worker.eval_predicate(table, meta, p).expect("eval_predicate");
    let name = p.referenced_columns().pop().expect("one column");
    let col = table.load_column(meta, &name).expect("column");
    for i in 0..meta.row_count {
        let row: BTreeMap<String, Value> = [(name.clone(), col.get(i))].into();
        assert_eq!(bits.contains(i), p.eval(&row).expect("eval"), "row {i} under {p}");
    }
    bits.count() as f64 / meta.row_count as f64
}

/// ns per row of `eval_predicate`, one fresh predicate and the next segment
/// per call.
fn time_predicate(db: &Database, table: &TableStore, ty: Ty, shape: &str, f: usize) -> (f64, f64) {
    let metas = table.segments();
    let workers: Vec<Arc<Worker>> = metas.iter().map(|m| owner(db, m)).collect();
    let calls = 96;
    let preds: Vec<Predicate> = (0..calls).map(|c| predicate(ty, shape, f, c)).collect();
    let mut passing = Vec::new();
    for (c, p) in preds.iter().enumerate().take(metas.len()) {
        passing.push(check_predicate(table, &workers[c], &metas[c], p));
    }
    let mut samples = Vec::new();
    for _ in 0..REPS {
        let t = Timer::start();
        for (c, p) in preds.iter().enumerate() {
            let s = c % metas.len();
            black_box(workers[s].eval_predicate(table, &metas[s], p).expect("eval_predicate"));
        }
        samples.push(t.secs() * 1e9 / (preds.len() * ROWS) as f64);
    }
    (median(samples), passing.iter().sum::<f64>() / passing.len() as f64)
}

/// ns per cell of `read_cells` for 100 scattered cells of `column`, and the
/// store gets of the first request on a fresh worker.
fn time_gather(
    db: &Database,
    table: &TableStore,
    worker: &Worker,
    meta: &SegmentMeta,
    column: &str,
) -> (f64, u64) {
    // Distinct offsets in no order, as a result's rows are: the first 100 of
    // a different shuffle of the segment per request.
    let requests: Vec<Vec<u32>> = (0..64u64)
        .map(|r| {
            let mut all: Vec<u32> = (0..ROWS as u32).collect();
            all.sort_by_key(|&o| derive_seed(r, o as u64));
            all.truncate(100);
            all
        })
        .collect();
    let cold_gets = cold_store_gets(db, table, |w| {
        w.read_cells(table, meta, column, &requests[0]).expect("read_cells");
    });
    let mut samples = Vec::new();
    for _ in 0..REPS {
        let t = Timer::start();
        for _ in 0..8 {
            for offsets in &requests {
                black_box(worker.read_cells(table, meta, column, offsets).expect("read_cells"));
            }
        }
        samples.push(t.secs() * 1e9 / (8 * requests.len() * 100) as f64);
    }
    (median(samples), cold_gets)
}

/// The table of parts 3 and 4: `(id, x, emb)`, 2 segments × 8,000 × dim 64.
fn vector_table() -> (Database, Arc<TableStore>) {
    let mut cfg = DatabaseConfig::default();
    cfg.table.segment_max_rows = ROWS;
    let db = Database::new(cfg);
    db.execute(&format!(
        "CREATE TABLE m (id UInt64, x Int64, emb Array(Float32), \
         INDEX ann emb TYPE FLAT('DIM={DIM}')) ORDER BY id"
    ))
    .expect("CREATE TABLE m");
    let rows: Vec<Vec<Value>> = (0..2 * ROWS)
        .map(|i| {
            vec![
                Value::UInt64(i as u64),
                Value::Int64((unit(i, 1) * RANGE as f64) as i64),
                Value::Vector((0..DIM).map(|j| unit(i, 100 + j as u64) as f32).collect()),
            ]
        })
        .collect();
    let table = db.table("m").expect("table m");
    table.insert_rows(rows).expect("insert");
    db.preload("m", "default").expect("preload");
    (db, table)
}

fn query_vector(seed: u64) -> Vec<f32> {
    (0..DIM).map(|j| unit(seed as usize, 500 + j as u64) as f32).collect()
}

/// Median duration (µs) of the engine's `materialize` span over unfiltered
/// top-100 statements projecting two columns.
fn time_materialize(db: &Database) -> f64 {
    let mut samples = Vec::new();
    for s in 0..300u64 {
        let q: Vec<String> = query_vector(s).iter().map(|x| format!("{x:?}")).collect();
        let sql = format!(
            "SELECT id, x FROM m ORDER BY L2Distance(emb, [{}]) LIMIT 100",
            q.join(", ")
        );
        if s == 50 {
            // The first 50 warm the caches; from here every statement is
            // traced and its span tree retained.
            db.set_slow_query_policy(Some(SlowQueryPolicy {
                threshold_nanos: 0,
                capture_errors: false,
            }));
        }
        let rows = db.execute(&sql).expect("select").rows();
        assert_eq!(rows.rows.len(), 100);
        if let Some(trace) = db.query_log().slow_traces().last() {
            samples.extend(
                trace
                    .spans
                    .iter()
                    .filter(|span| span.name == "materialize")
                    .map(|span| span.duration_nanos() as f64 / 1e3),
            );
        }
    }
    db.set_slow_query_policy(None);
    assert_eq!(samples.len(), 250, "one materialize span per traced statement");
    median(samples)
}

/// ns per passing row of Plan A's scan behind a bitset of pass fraction `s`,
/// and the store gets of the first scan on a fresh worker.
fn time_plan_a(
    db: &Database,
    table: &TableStore,
    worker: &Worker,
    meta: &SegmentMeta,
    s: f64,
) -> (f64, u64) {
    let filters: Vec<Bitset> = (0..8u64)
        .map(|f| Bitset::from_positions(ROWS, (0..ROWS).filter(|&i| unit(i, 700 + f) < s)))
        .collect();
    let queries: Vec<Vec<f32>> = (0..8).map(query_vector).collect();
    // The scan returns what per-row `Metric::distance` over the passing
    // rows returns: ids, distance bits, order.
    let col = table.load_column(meta, "emb").expect("emb");
    let mut want: Vec<(f32, u64)> = filters[0]
        .iter()
        .map(|i| (Metric::L2.distance(&queries[0], col.vector_at(i).expect("vector")), i as u64))
        .collect();
    want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let want: Vec<(u32, u64)> = want.iter().take(100).map(|(d, i)| (d.to_bits(), *i)).collect();
    let scan = |w: &Worker| {
        let got =
            w.brute_force_segment_bounded(table, meta, &queries[0], 100, Some(&filters[0]), None);
        let got: Vec<(u32, u64)> =
            got.expect("scan").iter().map(|nb| (nb.distance.to_bits(), nb.id)).collect();
        assert_eq!(got, want, "filtered scan at s = {s}");
    };
    scan(worker);
    let cold_gets = cold_store_gets(db, table, scan);

    let passing: usize = filters.iter().map(Bitset::count).sum();
    let mut samples = Vec::new();
    for _ in 0..REPS {
        let t = Timer::start();
        for _ in 0..6 {
            for (f, q) in filters.iter().zip(&queries) {
                let hits = worker.brute_force_segment_bounded(table, meta, q, 100, Some(f), None);
                black_box(hits.expect("scan"));
            }
        }
        samples.push(t.secs() * 1e9 / (6 * passing) as f64);
    }
    (median(samples), cold_gets)
}

fn main() {
    // 1. Predicates.
    let (db, table) = predicate_table(4);
    let (mut rows, mut predicate_json) = (Vec::new(), Vec::new());
    for ty in Ty::ALL {
        for shape in ["range", "eq", "in8"] {
            for (f, fraction) in FRACTIONS.iter().enumerate() {
                let (ns, passing) = time_predicate(&db, &table, ty, shape, f);
                rows.push(vec![
                    ty.sql().to_string(),
                    shape.to_string(),
                    format!("{fraction}"),
                    format!("{passing:.4}"),
                    format!("{ns:.2}"),
                    format!("{:.1}", ns * ROWS as f64 / 1e3),
                ]);
                predicate_json.push(format!(
                    "    {{ \"type\": \"{}\", \"shape\": \"{shape}\", \"pass_fraction\": {fraction}, \
                     \"eval_predicate_ns_per_row\": {ns:.3} }}",
                    ty.sql()
                ));
            }
        }
    }
    print_table(
        "Worker::eval_predicate, 8,000-row segments, fresh outcomes on every call",
        &["column", "shape", "target s", "measured s", "ns/row", "us/segment"],
        &rows,
    );

    // 2. Gather.
    let meta = table.segments()[0].clone();
    let worker = owner(&db, &meta);
    let offsets: Vec<u32> = (0..100u64).map(|j| ((7 + j * 1_237) % ROWS as u64) as u32).collect();
    for column in ["ri", "id"] {
        let whole = table.load_column(&meta, column).expect("column");
        let want: Vec<Value> = offsets.iter().map(|&o| whole.get(o as usize)).collect();
        assert_eq!(worker.read_cells(&table, &meta, column, &offsets).expect("read_cells"), want);
    }
    // `ri` was scanned by the predicates above (decoded column in cache);
    // `id` never is, so its cells come from decoded blocks.
    let gather = [
        ("column_cached", time_gather(&db, &table, &worker, &meta, "ri")),
        ("decoded_blocks", time_gather(&db, &table, &worker, &meta, "id")),
    ];
    print_table(
        "Worker::read_cells, 100 scattered cells of an 8,000-row column",
        &["served from", "ns/cell", "cold store gets"],
        &gather
            .iter()
            .map(|(s, (ns, gets))| vec![s.to_string(), format!("{ns:.1}"), gets.to_string()])
            .collect::<Vec<_>>(),
    );
    drop((db, table));

    // 3. Materialise. 4. Plan A's filtered scan.
    let (db, table) = vector_table();
    let materialize_us = time_materialize(&db);
    print_table(
        "materialize span: 100 rows x 2 columns x 2 segments",
        &["us/statement"],
        &[vec![format!("{materialize_us:.1}")]],
    );
    let meta = table.segments()[0].clone();
    let worker = owner(&db, &meta);
    let (mut rows, mut scan_json) = (Vec::new(), Vec::new());
    for s in [0.01, 0.1, 0.3, 0.9] {
        let (ns, gets) = time_plan_a(&db, &table, &worker, &meta, s);
        let segment_us = ns * s * ROWS as f64 / 1e3;
        rows.push(vec![
            format!("{s}"),
            format!("{ns:.1}"),
            format!("{segment_us:.1}"),
            gets.to_string(),
        ]);
        scan_json.push(format!(
            "    {{ \"pass_fraction\": {s}, \"passing_row_ns_per_row\": {ns:.2}, \
             \"cold_store_gets\": {gets} }}"
        ));
    }
    print_table(
        "Plan A filtered scan, 8,000 x 64, warm column, k = 100",
        &["s", "ns/passing row", "us/segment", "cold store gets"],
        &rows,
    );

    let json = format!(
        "{{\n  \"benchmark\": \"Scalar path of a hybrid query: word-at-a-time predicates, typed gather, materialise, Plan A's gather-distance scan\",\n  \
         \"machine\": {{ \"arch\": \"{}\", \"kernel_tier_detected\": \"{}\", \"cores\": {} }},\n  \
         \"method\": \"crates/bench/benches/scalar_path.rs (plain-main harness), medians of {REPS} passes. predicate: ns per row of Worker::eval_predicate on 8,000-row segments, 96 calls per pass, every call a fresh range (range) or the next of 4 independently drawn segments (eq, in8: cell 0 with the stated probability, IN list of 8 with the one matching literal at a rotating place), bitset asserted equal to Predicate::eval per row first. gather: ns per cell of Worker::read_cells for 100 scattered cells, decoded column in cache / decoded blocks, asserted equal to the uncached TableStore::load_column(..).get(..). materialize: median of the engine's own materialize span over 250 warm unfiltered top-100 statements, SELECT id, x, 2 segments (tracing on). plan_a_scan: ns per passing row of Worker::brute_force_segment_bounded behind 8 rotating random bitsets, 8,000 x 64, k = 100, decoded column in cache, asserted equal in ids and distance bits to per-row Metric::distance. cold_store_gets: remote.get calls of the first gather / scan on a fresh worker.\",\n  \
         \"predicate\": [\n{}\n  ],\n  \"gather\": [\n{}\n  ],\n  \
         \"materialize\": {{ \"rows\": 100, \"columns\": 2, \"segments\": 2, \"span_ns\": {:.0} }},\n  \
         \"plan_a_scan\": [\n{}\n  ]\n}}\n",
        std::env::consts::ARCH,
        KernelTier::current().name(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        predicate_json.join(",\n"),
        gather
            .iter()
            .map(|(s, (ns, gets))| format!(
                "    {{ \"served_from\": \"{s}\", \"cells\": 100, \"cell_ns_per_op\": {ns:.2}, \
                 \"cold_store_gets\": {gets} }}"
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        materialize_us * 1e3,
        scan_json.join(",\n"),
    );
    write_fresh_json("BENCH_scalar.json", &json);
}
