//! Model-based test of the multi-version storage semantics (Fig. 6):
//! random sequences of INSERT / UPDATE / DELETE / COMPACT are applied both
//! to a BlendHouse table and to a plain `HashMap` reference model; after
//! every step the visible contents must match the model exactly — the
//! strongest statement that delete bitmaps, version masking, and compaction
//! never lose or resurrect a row.

use bh_storage::value::Value;
use blendhouse::Database;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    /// Insert `count` fresh rows.
    Insert { count: u8 },
    /// Update score of ids in `[lo, lo+span]`.
    Update { lo: u8, span: u8, score: u16 },
    /// Delete ids in `[lo, lo+span]`.
    Delete { lo: u8, span: u8 },
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..30).prop_map(|count| Op::Insert { count }),
        (0u8..120, 0u8..40, 0u16..1000)
            .prop_map(|(lo, span, score)| Op::Update { lo, span, score }),
        (0u8..120, 0u8..20).prop_map(|(lo, span)| Op::Delete { lo, span }),
        Just(Op::Compact),
    ]
}

fn fresh_db() -> Database {
    let db = Database::in_memory();
    db.execute(
        "CREATE TABLE t (id UInt64, score Int64, emb Array(Float32), \
         INDEX i emb TYPE FLAT('DIM=2')) ORDER BY id",
    )
    .unwrap();
    db
}

/// Read the full visible table state as id → score.
fn visible_state(db: &Database) -> HashMap<u64, i64> {
    let table = db.table("t").unwrap();
    let mut out = HashMap::new();
    for meta in table.segments() {
        let ids = table.load_column(&meta, "id").unwrap();
        let scores = table.load_column(&meta, "score").unwrap();
        let vis = table.visibility(&meta);
        for o in vis.iter() {
            let Value::UInt64(id) = ids.get(o) else { panic!() };
            let Value::Int64(score) = scores.get(o) else { panic!() };
            let prev = out.insert(id, score);
            assert!(prev.is_none(), "two visible versions of id {id}");
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    #[test]
    fn random_op_sequences_match_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..14)
    ) {
        let db = fresh_db();
        let table = db.table("t").unwrap();
        let mut model: HashMap<u64, i64> = HashMap::new();
        let mut next_id: u64 = 0;

        for op in ops {
            match op {
                Op::Insert { count } => {
                    let mut values = Vec::new();
                    for _ in 0..count {
                        let id = next_id;
                        next_id += 1;
                        model.insert(id, 0);
                        values.push(format!("({id}, 0, [{}.0, 1.0])", id % 7));
                    }
                    db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                        .unwrap();
                }
                Op::Update { lo, span, score } => {
                    let (lo, hi) = (lo as u64, lo as u64 + span as u64);
                    let n = db
                        .execute(&format!(
                            "UPDATE t SET score = {score} WHERE id BETWEEN {lo} AND {hi}"
                        ))
                        .unwrap()
                        .affected();
                    let mut expected = 0;
                    for (id, s) in model.iter_mut() {
                        if (lo..=hi).contains(id) {
                            *s = score as i64;
                            expected += 1;
                        }
                    }
                    prop_assert_eq!(n, expected, "update count mismatch");
                }
                Op::Delete { lo, span } => {
                    let (lo, hi) = (lo as u64, lo as u64 + span as u64);
                    let n = db
                        .execute(&format!("DELETE FROM t WHERE id BETWEEN {lo} AND {hi}"))
                        .unwrap()
                        .affected();
                    let before = model.len();
                    model.retain(|id, _| !(lo..=hi).contains(id));
                    prop_assert_eq!(n, before - model.len(), "delete count mismatch");
                }
                Op::Compact => {
                    db.compact("t").unwrap();
                    prop_assert_eq!(
                        table.version().total_deleted(),
                        0,
                        "compaction must clear delete bitmaps"
                    );
                }
            }
            // Invariant: visible state == model after every operation.
            let state = visible_state(&db);
            prop_assert_eq!(&state, &model, "visible state diverged from model");
            prop_assert_eq!(table.visible_rows(), model.len());
        }

        // Final: queries see exactly the model too (through the SQL path).
        let rs = db
            .execute(&format!("SELECT id, score FROM t LIMIT {}", model.len() + 10))
            .unwrap()
            .rows();
        prop_assert_eq!(rs.len(), model.len());
        for row in &rs.rows {
            let Value::UInt64(id) = row[0] else { panic!() };
            let Value::Int64(score) = row[1] else { panic!() };
            prop_assert_eq!(model.get(&id), Some(&score));
        }
    }
}
