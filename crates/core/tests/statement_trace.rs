//! One statement, one trace: the spans a traced statement keeps are the spans
//! opened for *it* — whatever else runs beside it — and its stage spans are
//! its stage times.
//!
//! Two tables, `a` (3 segments) and `b` (5), one statement on each. A
//! statement's span tree repeats exactly once the caches are warm, so "its
//! own tree" is checked against what the same statement leaves when it runs
//! alone. Everything here goes through `Database` and the query log; nothing
//! reaches under them.

use bh_common::trace::AttrValue;
use bh_common::{QueryLogRecord, SlowQueryPolicy, SlowQueryTrace};
use bh_storage::table::TableStoreConfig;
use blendhouse::{Database, DatabaseConfig, QueryOptions, Strategy, Value};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const DIM: usize = 8;
const SEGMENT_ROWS: usize = 64;
const STATEMENTS: usize = 30;

/// Hash-scattered coordinate in `[0, 10)`: no two rows tie at a k-th distance.
fn coord(i: usize, d: usize) -> String {
    let h = ((i * DIM + d) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    format!("{:.4}", h as f32 / (1u64 << 24) as f32 * 10.0)
}

fn vector(seed: usize) -> String {
    (0..DIM).map(|d| coord(seed, d)).collect::<Vec<_>>().join(", ")
}

/// One statement; its table doubles as its session label.
struct Case {
    table: &'static str,
    sql: String,
    opts: QueryOptions,
}

impl Case {
    fn run(&self, db: &Database) {
        db.execute_session(&self.sql, &self.opts, "t", self.table).unwrap();
    }
}

/// Tables `a` and `b` and an index-plan statement on each (fan-out 2 and 1),
/// run often enough that its caches are warm.
fn fixture() -> (Database, [Case; 2]) {
    let db = Database::new(DatabaseConfig {
        table: TableStoreConfig { segment_max_rows: SEGMENT_ROWS, ..Default::default() },
        ..Default::default()
    });
    for (t, (table, segments)) in [("a", 3), ("b", 5)].into_iter().enumerate() {
        db.execute(&format!(
            "CREATE TABLE {table} (id UInt64, x Int64, emb Array(Float32), \
             INDEX ann emb TYPE HNSW('DIM={DIM}')) ORDER BY id"
        ))
        .unwrap();
        for seg in 0..segments {
            let rows: Vec<String> = (seg * SEGMENT_ROWS..(seg + 1) * SEGMENT_ROWS)
                .map(|i| format!("({i}, {}, [{}])", i % 100, vector(t * 100_000 + i)))
                .collect();
            db.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(", "))).unwrap();
        }
        assert_eq!(db.table(table).unwrap().segments().len(), segments);
    }
    let case = |table, filter: &str, strategy, width| Case {
        table,
        sql: format!(
            "SELECT id, x FROM {table} {filter}ORDER BY L2Distance(emb, [{}]) LIMIT 5",
            vector(7_000_000)
        ),
        opts: QueryOptions {
            forced_strategy: Some(strategy),
            intra_query_parallelism: width,
            ..db.default_options()
        },
    };
    let cases = [
        case("a", "", Strategy::PostFilter, 2),
        case("b", "WHERE x < 50 ", Strategy::FilteredTraversal, 1),
    ];
    for case in &cases {
        for _ in 0..4 {
            case.run(&db);
        }
    }
    (db, cases)
}

fn retain_everything(db: &Database) {
    db.set_slow_query_policy(Some(SlowQueryPolicy { threshold_nanos: 0, capture_errors: true }));
}

fn last_record(db: &Database) -> QueryLogRecord {
    db.query_log().records().pop().expect("a statement was logged")
}

fn trace_of(db: &Database, query_id: u64) -> Option<SlowQueryTrace> {
    db.query_log().slow_traces().into_iter().find(|t| t.query_id == query_id)
}

/// A span tree by names: every span as `(its name, its parent's name)`, sorted.
fn shape(trace: &SlowQueryTrace) -> Vec<(&'static str, &'static str)> {
    let mut out: Vec<_> = trace
        .spans
        .iter()
        .map(|s| {
            let parent = trace.spans.iter().find(|p| p.id == s.parent).map_or("", |p| p.name);
            (s.name, parent)
        })
        .collect();
    out.sort_unstable();
    out
}

/// Every `segment` attribute in the tree.
fn segments_in(trace: &SlowQueryTrace) -> HashSet<u64> {
    trace
        .spans
        .iter()
        .filter_map(|s| match s.attr("segment") {
            Some(AttrValue::U64(id)) => Some(*id),
            _ => None,
        })
        .collect()
}

fn segments_of(db: &Database, table: &str) -> HashSet<u64> {
    db.table(table).unwrap().segments().iter().map(|m| m.id.raw()).collect()
}

/// (a) Two threads, two tables, every statement retained: each is logged as
/// traced, and its tree is the tree the statement leaves when it runs alone.
#[test]
fn concurrent_statements_each_keep_exactly_their_own_tree() {
    let (db, cases) = fixture();
    retain_everything(&db);
    let solo: Vec<_> = cases
        .iter()
        .map(|case| {
            case.run(&db);
            let trace = trace_of(&db, last_record(&db).query_id).expect("retained");
            assert_eq!(segments_in(&trace), segments_of(&db, case.table), "{}", case.table);
            shape(&trace)
        })
        .collect();
    assert_ne!(solo[0], solo[1], "the two statements leave different trees");

    let marker = last_record(&db).query_id;
    let barrier = Barrier::new(cases.len());
    std::thread::scope(|s| {
        for case in &cases {
            let (db, barrier) = (&db, &barrier);
            s.spawn(move || {
                barrier.wait();
                for _ in 0..STATEMENTS {
                    case.run(db);
                }
            });
        }
    });
    let records: Vec<_> =
        db.query_log().records().into_iter().filter(|r| r.query_id > marker).collect();
    assert_eq!(records.len(), cases.len() * STATEMENTS);
    for record in records {
        assert!(record.traced, "not traced: {record:?}");
        let (case, alone) =
            cases.iter().zip(&solo).find(|(c, _)| c.table == record.session).unwrap();
        let trace = trace_of(&db, record.query_id).expect("a traced statement's tree is retained");
        assert_eq!(trace.spans.iter().filter(|s| s.name == "exec").count(), 1);
        assert_eq!(segments_in(&trace), segments_of(&db, case.table), "query {}", record.query_id);
        assert_eq!(&shape(&trace), alone, "query {} on {}", record.query_id, case.table);
    }
}

/// Tells a looping neighbour thread to stop when the statements beside it are
/// done — or a check on them panicked: the scope joins it either way.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn profile(db: &Database, case: &Case) -> Vec<String> {
    let rows =
        db.execute_with(&format!("EXPLAIN ANALYZE {}", case.sql), &case.opts).unwrap().rows();
    rows.rows
        .into_iter()
        .map(|r| match r.into_iter().next() {
            Some(Value::Str(line)) => line,
            other => panic!("profile cell {other:?}"),
        })
        .collect()
}

/// The profile's lines that repeat exactly: span lines without their times,
/// and the count cells (not the `_ns` ones) under "counters (this query)".
fn repeating(profile: &[String]) -> Vec<String> {
    let counters = profile.iter().position(|l| l == "counters (this query):").expect("counters");
    let spans = profile[..counters]
        .iter()
        .filter(|l| l.starts_with("  "))
        .map(|l| l.trim_start().split("  ").next().unwrap_or_default().to_string());
    let cells = profile[counters..].iter().filter(|l| !l.contains("_ns: ")).cloned();
    spans.chain(cells).collect()
}

/// (b) `EXPLAIN ANALYZE` beside a thread that reads and writes another table
/// prints what it prints alone: the neighbour's plan bumps, ingest counters
/// and remote puts are nowhere in it.
#[test]
fn explain_analyze_reports_its_own_statement_beside_a_busy_neighbour() {
    let (db, cases) = fixture();
    let [own, neighbour] = &cases;
    for _ in 0..4 {
        profile(&db, own);
    }
    let alone = repeating(&profile(&db, own));
    assert!(alone.iter().any(|l| l.starts_with("  cache_hits: ")), "{alone:?}");
    assert!(alone.iter().any(|l| l.starts_with("segment.search")), "{alone:?}");

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut id = 1_000_000;
            while !stop.load(Ordering::Relaxed) {
                neighbour.run(&db);
                db.execute(&format!("INSERT INTO b VALUES ({id}, 1, [{}])", vector(id))).unwrap();
                id += 1;
            }
        });
        let _stop = StopOnDrop(&stop);
        for _ in 0..STATEMENTS {
            let lines = profile(&db, own);
            for line in &lines {
                let foreign = ["table.", "remote.put", "store.put", "query.plan."];
                assert!(!foreign.iter().any(|f| line.contains(f)), "{line:?} in {lines:#?}");
            }
            assert_eq!(repeating(&lines), alone, "{lines:#?}");
        }
    });
}

/// (c) Stage times have one producer: a traced statement's `bind` / `plan` /
/// `exec` spans last exactly what its log row says those stages took, and its
/// `segment.search` spans sum to `segment_ns`.
#[test]
fn stage_spans_are_the_stage_times() {
    let (db, cases) = fixture();
    retain_everything(&db);
    for case in &cases {
        case.run(&db);
        let record = last_record(&db);
        let trace = trace_of(&db, record.query_id).expect("retained");
        let spent = |name: &str| {
            trace.spans.iter().filter(|s| s.name == name).map(|s| s.duration_nanos()).sum::<u64>()
        };
        let work = record.work;
        assert!(work.bind_ns > 0 && work.plan_ns > 0 && work.exec_ns > 0 && work.segment_ns > 0);
        assert_eq!(
            [spent("bind"), spent("plan"), spent("exec"), spent("segment.search")],
            [work.bind_ns, work.plan_ns, work.exec_ns, work.segment_ns],
            "{}",
            case.table
        );
        // Spans and the record share the log's timeline.
        for span in &trace.spans {
            assert!(record.start_nanos <= span.start_nanos && span.end_nanos <= record.end_nanos);
        }
    }
}

/// (d) Under `capture_errors` a failing statement's trace is retained — its
/// own, one `bind` span — however busy the statement beside it keeps tracing.
#[test]
fn an_erroring_statement_is_retained_beside_a_traced_neighbour() {
    let (db, cases) = fixture();
    let neighbour = &cases[1];
    db.set_slow_query_policy(Some(SlowQueryPolicy {
        threshold_nanos: u64::MAX,
        capture_errors: true,
    }));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                neighbour.run(&db);
            }
        });
        let _stop = StopOnDrop(&stop);
        for _ in 0..STATEMENTS {
            let failed = "SELECT nope FROM a ORDER BY L2Distance(emb, [0.0]) LIMIT 1";
            assert!(db.execute_session(failed, &db.default_options(), "t", "failing").is_err());
            let record = db
                .query_log()
                .records()
                .into_iter()
                .rfind(|r| r.session == "failing")
                .expect("the failed statement is logged");
            assert!(record.traced && record.error_code.is_some(), "{record:?}");
            let trace = trace_of(&db, record.query_id).expect("retained under capture_errors");
            assert_eq!(trace.error_code, record.error_code);
            assert_eq!(shape(&trace), [("bind", "")], "{:?}", trace.spans);
        }
    });
    // The neighbour never failed and nothing is slower than the threshold.
    assert!(db.query_log().slow_traces().iter().all(|t| t.error_code.is_some()));
}
