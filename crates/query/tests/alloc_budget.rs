//! A work count for the scalar half of a vector statement that repeats
//! exactly: heap allocations per warm statement, counted by a
//! `#[global_allocator]` on the calling thread only.
//!
//! Wall clock on a shared box wanders ± 25 %; this does not. The budgets
//! state what the typed column path is allowed to allocate — materialise one
//! `Vec` per result row plus a constant per (segment, projected column),
//! `Worker::eval_predicate` a constant per segment — so a change that goes
//! back to boxing a `Value`, cloning a name or building a map per cell fails
//! here whatever the machine is doing. CHANGES.md (PR 18) records what the
//! same source counted against the parent commit.
//!
//! One test in the binary, fan-out width 1: everything a statement does runs
//! on the thread that counts.

use bh_cluster::vw::{VirtualWarehouse, VwConfig};
use bh_common::ids::IdGenerator;
use bh_common::{MetricsRegistry, VirtualClock};
use bh_query::bind::bind_select;
use bh_query::exec::{QueryEngine, QueryOptions};
use bh_query::Strategy;
use bh_storage::objectstore::InMemoryObjectStore;
use bh_storage::predicate::Predicate;
use bh_storage::schema::TableSchema;
use bh_storage::table::{TableStore, TableStoreConfig};
use bh_storage::value::{ColumnType, Value};
use bh_vector::{IndexKind, IndexRegistry, Metric};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// `Some(n)`: this thread is counting and has allocated `n` times.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn note_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (growths included) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = f();
    let n = ALLOCATIONS.with(|n| n.replace(None)).unwrap_or(0);
    (out, n)
}

const SEGMENTS: usize = 2;
const ROWS_PER_SEGMENT: usize = 2_000;
const K: usize = 100;
/// `SELECT id, x`.
const PROJECTED: usize = 2;

#[test]
fn scalar_path_allocations_stay_within_budget() {
    let schema = TableSchema::new("t")
        .with_column("id", ColumnType::UInt64)
        .with_column("x", ColumnType::Int64)
        .with_column("emb", ColumnType::Vector(8))
        .with_vector_index("i", "emb", IndexKind::Hnsw, 8, Metric::L2);
    let metrics = MetricsRegistry::new();
    let table = TableStore::new(
        schema,
        InMemoryObjectStore::for_tests(),
        Arc::new(IndexRegistry::with_builtins()),
        TableStoreConfig { segment_max_rows: ROWS_PER_SEGMENT, ..Default::default() },
        Arc::new(IdGenerator::new()),
        metrics.clone(),
    )
    .unwrap();
    let cell = |i: usize, j: u64| bh_common::rng::derive_seed(i as u64, j);
    let rows: Vec<Vec<Value>> = (0..SEGMENTS * ROWS_PER_SEGMENT)
        .map(|i| {
            vec![
                Value::UInt64(i as u64),
                Value::Int64((cell(i, 0) % 1_000) as i64),
                Value::Vector((1..=8).map(|j| (cell(i, j) >> 40) as f32 / 1e6).collect()),
            ]
        })
        .collect();
    table.insert_rows(rows).unwrap();
    assert_eq!(table.segments().len(), SEGMENTS);
    let vw = VirtualWarehouse::new(
        bh_common::VwId(0),
        "q",
        VwConfig::default(),
        table.remote_store().clone(),
        table.registry().clone(),
        VirtualClock::shared(),
        metrics.clone(),
        Arc::new(IdGenerator::starting_at(1000)),
    );
    vw.scale_up(&[]);
    vw.preload(&table.segments()).unwrap();
    let engine = QueryEngine::new(metrics);
    let opts = QueryOptions { intra_query_parallelism: 1, ..QueryOptions::default() };

    let bind = |filter: &str| {
        let sql = format!(
            "SELECT id, x FROM t {filter} ORDER BY L2Distance(emb, \
             [8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0]) LIMIT {K}"
        );
        let bh_sql::Statement::Select(sel) = bh_sql::parse_statement(&sql).unwrap() else {
            panic!("not a SELECT: {sql}")
        };
        bind_select(table.schema(), &sel).unwrap()
    };
    // A warm statement's count: the second of two runs that counted the same.
    let warm = |opts: &QueryOptions, filter: &str| {
        let bound = bind(filter);
        let run = || {
            let (rs, n) = allocations(|| engine.execute_bound(&table, &vw, opts, &bound).unwrap());
            assert_eq!(rs.rows.len(), K, "{filter}");
            n
        };
        // The decoded-column cache, lazily named counters.
        for _ in 0..3 {
            run();
        }
        let (first, second) = (run(), run());
        assert_eq!(first, second, "a warm statement's allocation count repeats exactly");
        second
    };

    // Unfiltered: index search, merge, materialise.
    let unfiltered = warm(&opts, "");
    // 0.3-filtered under Plan A (what the optimizer runs at this size):
    // predicate bitset, gather-distance scan, merge, materialise.
    let plan_a = QueryOptions { forced_strategy: Some(Strategy::BruteForce), ..opts.clone() };
    let filtered = warm(&plan_a, "WHERE x BETWEEN 100 AND 399");
    // The predicate alone, on each segment's owner.
    let predicate = Predicate::range("x", Some(Value::Int64(100)), Some(Value::Int64(399)));
    let per_segment: Vec<u64> = table
        .segments()
        .iter()
        .map(|meta| {
            let (_, worker) = vw.owner_of(meta).unwrap();
            let (bits, n) =
                allocations(|| worker.eval_predicate(&table, meta, &predicate).unwrap());
            assert!((500..700).contains(&bits.count()), "about 0.3 of 2,000: {}", bits.count());
            n
        })
        .collect();
    println!(
        "allocations: unfiltered statement {unfiltered}, 0.3-filtered Plan A statement {filtered}, \
         eval_predicate per segment {per_segment:?}"
    );

    // `eval_predicate`: a constant per segment — the borrowed column list,
    // the resolved columns, the name/column pairs, the bitset.
    for n in &per_segment {
        assert!(*n <= 4, "eval_predicate allocated {n} times on one segment");
    }
    // Materialise: one `Vec` per result row, its cells moved in, plus a
    // constant per (segment, projected column) — inside the `k × projected
    // columns + constant` it may ever need. The constant here also covers
    // everything that is not the scalar path (planning, round set-up, each
    // segment's index search or exact scan, the merge: 94 and 107 when this
    // was written), so a `Value`, a name or a map per cell cannot hide in it.
    let budget = (K + 128) as u64;
    assert!(budget <= (K * PROJECTED + 128) as u64);
    assert!(unfiltered <= budget, "unfiltered statement allocated {unfiltered} times");
    assert!(filtered <= budget, "filtered statement allocated {filtered} times");
}
