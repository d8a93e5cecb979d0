//! One SELECT dialect on every table: a data table takes the aliases,
//! multi-key ORDER BY and aggregates a `system.*` table takes, checked
//! against a naive model of the inserted rows; a scalar LIMIT reads only
//! the segments its rows come from; EXPLAIN answers on every system table.

use bh_storage::table::TableStoreConfig;
use blendhouse::systbl::SYSTEM_TABLES;
use blendhouse::{Database, DatabaseConfig, ResultSet, Value};

/// One inserted row: `(id, cat, price, qty)`.
type Row = (u64, &'static str, f64, i64);

const CATS: [&str; 3] = ["a", "b", "c"];

/// 80 rows in 8 segments of 10. Prices are multiples of 0.5 with many
/// ties, so float sums are exact in any order; `qty` runs negative.
fn model() -> Vec<Row> {
    (0..80u64)
        .map(|i| (i, CATS[(i % 3) as usize], ((i * 37) % 11) as f64 / 2.0, (i % 7) as i64 - 3))
        .collect()
}

fn db() -> Database {
    let db = Database::new(DatabaseConfig {
        table: TableStoreConfig { segment_max_rows: 10, ..Default::default() },
        ..Default::default()
    });
    db.execute("CREATE TABLE t (id UInt64, cat String, price Float64, qty Int64) ORDER BY id")
        .unwrap();
    let values: Vec<String> = model()
        .iter()
        .map(|(id, cat, price, qty)| format!("({id}, '{cat}', {price:.1}, {qty})"))
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
    assert_eq!(db.table("t").unwrap().segments().len(), 8);
    db
}

fn run(db: &Database, sql: &str) -> ResultSet {
    db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows()
}

/// The lines of an EXPLAIN.
fn lines(rs: ResultSet) -> Vec<String> {
    rs.rows
        .into_iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.clone(),
            other => panic!("plan line {other:?}"),
        })
        .collect()
}

fn row((id, cat, price, qty): &Row) -> Vec<Value> {
    vec![
        Value::UInt64(*id),
        Value::Str(cat.to_string()),
        Value::Float64(*price),
        Value::Int64(*qty),
    ]
}

#[test]
fn aliases_and_multi_key_order_on_a_data_table() {
    let db = db();
    let rows = model();

    let aliased = run(&db, "SELECT id AS i, cat AS c FROM t WHERE id < 5");
    assert_eq!(aliased.columns, ["i", "c"]);
    let want: Vec<Vec<Value>> = rows[..5].iter().map(|r| row(r)[..2].to_vec()).collect();
    assert_eq!(aliased.rows, want);

    // Two keys, the second DESC and the first full of ties; the rows tied on
    // both keep scan order (id order). A key may name a projection alias.
    let sorted = run(
        &db,
        "SELECT id, cat AS c, price, qty FROM t WHERE id >= 3 ORDER BY c, price DESC LIMIT 30",
    );
    assert_eq!(sorted.columns, ["id", "c", "price", "qty"]);
    let mut want: Vec<&Row> = rows.iter().filter(|r| r.0 >= 3).collect();
    want.sort_by(|a, b| a.1.cmp(b.1).then(b.2.total_cmp(&a.2)));
    let want: Vec<Vec<Value>> = want.iter().take(30).map(|r| row(r)).collect();
    assert_eq!(sorted.rows, want);
    assert!(want.windows(2).any(|w| w[0][1..3] == w[1][1..3]), "the fixture must tie on both keys");
}

#[test]
fn aggregates_on_a_data_table_match_the_model() {
    let db = db();
    let passing: Vec<Row> = model().into_iter().filter(|r| r.1 == "b" && r.0 < 60).collect();
    let rs = run(
        &db,
        "SELECT count(*), count(price) AS n_price, sum(id), sum(qty), sum(price), \
         min(price), max(qty), avg(price) AS mean, min(cat) \
         FROM t WHERE cat = 'b' AND id < 60",
    );
    assert_eq!(
        rs.columns,
        [
            "count(*)",
            "n_price",
            "sum(id)",
            "sum(qty)",
            "sum(price)",
            "min(price)",
            "max(qty)",
            "mean",
            "min(cat)"
        ]
    );
    let n = passing.len();
    let price_sum: f64 = passing.iter().map(|r| r.2).sum();
    let min_price = passing.iter().map(|r| r.2).min_by(f64::total_cmp).unwrap();
    assert_eq!(
        rs.rows,
        [vec![
            Value::UInt64(n as u64),
            Value::UInt64(n as u64),
            Value::UInt64(passing.iter().map(|r| r.0).sum()),
            Value::Int64(passing.iter().map(|r| r.3).sum()),
            Value::Float64(price_sum),
            Value::Float64(min_price),
            Value::Int64(passing.iter().map(|r| r.3).max().unwrap()),
            Value::Float64(price_sum / n as f64),
            Value::Str("b".into()),
        ]]
    );

    // LIMIT caps the rows output, not the rows folded; an ORDER BY changes
    // nothing; over no rows min / max / avg are NULL and count is 0.
    let limited = run(&db, "SELECT count(*) AS n FROM t WHERE cat = 'a' ORDER BY price LIMIT 1");
    let a_rows = model().iter().filter(|r| r.1 == "a").count() as u64;
    assert_eq!(limited.rows, [vec![Value::UInt64(a_rows)]]);
    assert!(run(&db, "SELECT count(*) FROM t LIMIT 0").rows.is_empty());
    let empty = run(&db, "SELECT count(*), min(price), max(id), avg(qty) FROM t WHERE id > 1000");
    assert_eq!(empty.rows, [vec![Value::UInt64(0), Value::Null, Value::Null, Value::Null]]);
}

#[test]
fn the_dialect_refuses_the_same_statements_everywhere() {
    let db = db();
    let data = db.execute("SELECT id, count(*) FROM t").unwrap_err().to_string();
    let system = db.execute("SELECT name, count(*) FROM system.metrics").unwrap_err().to_string();
    assert!(data.contains("cannot mix aggregate and plain projections"), "{data}");
    assert_eq!(data, system);
    for sql in
        ["SELECT sum(cat) FROM t", "SELECT count(id, qty) FROM t", "SELECT id FROM t ORDER BY nope"]
    {
        assert!(db.execute(sql).is_err(), "{sql} must not bind");
    }
}

#[test]
fn a_scalar_limit_reads_only_the_segments_its_rows_come_from() {
    let db = db();
    let gets = || db.metrics().counter_value("remote.get");
    let before = gets();
    let limited = run(&db, "SELECT id, price FROM t LIMIT 1");
    // One block of each projected column, of the first segment only.
    assert_eq!(gets() - before, 2);
    let all = run(&db, "SELECT id, price FROM t");
    assert_eq!(all.rows.len(), 80);
    assert_eq!(limited.rows, all.rows[..1]);
    // The filtered, cut short scan keeps the first passing rows, in segment
    // order.
    let some = run(&db, "SELECT id FROM t WHERE cat = 'c' LIMIT 12");
    let want: Vec<Vec<Value>> =
        model().iter().filter(|r| r.1 == "c").take(12).map(|r| vec![Value::UInt64(r.0)]).collect();
    assert_eq!(some.rows, want);
}

#[test]
fn explain_answers_on_every_system_table() {
    let db = db();
    run(&db, "SELECT id FROM t LIMIT 1");
    for table in SYSTEM_TABLES {
        let plan = lines(run(&db, &format!("EXPLAIN SELECT count(*) FROM {table}")));
        assert_eq!(plan[0], "columns read: []", "{table}: {plan:?}");
        assert!(plan[1].starts_with(&format!("source: {table} snapshot of ")), "{plan:?}");
        assert!(plan[1].ends_with(" rows, no segments"), "{plan:?}");
        assert_eq!(plan.len(), 2, "{plan:?}");
    }
    let plan = lines(run(
        &db,
        "EXPLAIN SELECT name AS n FROM system.metrics WHERE kind = 'counter' ORDER BY value",
    ));
    assert_eq!(plan[..2], ["filter: kind = 'counter'", "columns read: [kind, name, value]"]);
    // The lines a data table prints for the same shape of statement.
    let data = lines(run(&db, "EXPLAIN SELECT cat AS n FROM t WHERE id = 3 ORDER BY price"));
    assert!(data.contains(&"filter: id = 3".to_string()), "{data:?}");
    assert!(data.contains(&"columns read: [id, cat, price]".to_string()), "{data:?}");
}

/// A sum its output type cannot hold fails on a data table instead of
/// wrapping, past either end; one whose terms cancel comes back whole.
#[test]
fn a_sum_past_its_type_fails_on_a_data_table() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE s (id UInt64, u UInt64, q Int64) ORDER BY id").unwrap();
    let (umax, imax, imin) = (u64::MAX, i64::MAX, i64::MIN);
    db.execute(&format!(
        "INSERT INTO s VALUES (0, {umax}, {imax}), (1, 1, 1), (2, 0, {imin}), (3, 0, -1)"
    ))
    .unwrap();
    for sql in [
        "SELECT sum(u) FROM s",
        "SELECT sum(q) FROM s WHERE id <= 1",
        "SELECT sum(q) FROM s WHERE id >= 2",
    ] {
        let err = db.execute(sql).err().unwrap_or_else(|| panic!("{sql} did not fail"));
        assert!(matches!(err, bh_common::BhError::InvalidArgument(_)), "{sql}: {err}");
    }
    assert_eq!(run(&db, "SELECT sum(q) FROM s").rows, vec![vec![Value::Int64(-1)]]);
    assert_eq!(run(&db, "SELECT sum(u) FROM s WHERE id = 0").rows, vec![vec![Value::UInt64(umax)]]);
}

/// Integer literals reach every `UInt64` value, and a literal its column
/// cannot hold is an error, not a wrapped value.
#[test]
fn a_uint64_literal_past_i64_reaches_its_column() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE s (id UInt64, u UInt64, q Int64) ORDER BY id").unwrap();
    db.execute("INSERT INTO s VALUES (0, 18446744073709551615, 1), (1, 9223372036854775808, 2)")
        .unwrap();
    let got = run(&db, "SELECT id FROM s WHERE u = 18446744073709551615");
    assert_eq!(got.rows, vec![vec![Value::UInt64(0)]]);
    let got = run(&db, "SELECT q FROM s WHERE u > 9223372036854775807 ORDER BY q");
    assert_eq!(got.rows, vec![vec![Value::Int64(1)], vec![Value::Int64(2)]]);
    for sql in [
        "INSERT INTO s VALUES (2, 0, 9223372036854775808)",
        "INSERT INTO s VALUES (2, 0, -1), (3, -1, 0)",
        "SELECT id FROM s WHERE q = 9223372036854775808",
    ] {
        assert!(db.execute(sql).is_err(), "{sql} did not fail");
    }
    assert_eq!(run(&db, "SELECT count(*) FROM s").rows, vec![vec![Value::UInt64(2)]]);
}
