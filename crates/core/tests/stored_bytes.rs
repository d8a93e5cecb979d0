//! Every vector is stored once: a raw-HNSW blob holds the graph alone and
//! the vectors live only in the segment's column, so a table's stored bytes
//! sit close to what its rows weigh. An IVFPQFS blob holds codes, not
//! vectors, and its table stores exactly what it stored before.

use bh_common::rng::derive_seed;
use bh_storage::table::TableStoreConfig;
use blendhouse::{Database, DatabaseConfig};

const ROWS: usize = 2_000;
const DIM: usize = 64;

/// Bytes in the store after two 2,000-row, dim-64 segments of a table with
/// `index`, and their ratio to what the rows weigh (`id`, `x`, the vector).
fn stored_bytes(index: &str) -> (u64, f64) {
    let table = TableStoreConfig { segment_max_rows: ROWS, ..Default::default() };
    let db = Database::new(DatabaseConfig { table, ..Default::default() });
    db.execute(&format!(
        "CREATE TABLE t (id UInt64, x Int64, emb Array(Float32), INDEX ann emb TYPE {index}) \
         ORDER BY id"
    ))
    .unwrap();
    let coord = |i: usize, d: usize| (derive_seed(7, (i * DIM + d) as u64) >> 40) as f32 / 1e6;
    for segment in 0..2 {
        let rows: Vec<String> = (segment * ROWS..(segment + 1) * ROWS)
            .map(|i| {
                let v: Vec<String> = (0..DIM).map(|d| format!("{:.3}", coord(i, d))).collect();
                format!("({i}, {}, [{}])", i % 100, v.join(", "))
            })
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
    }
    assert_eq!(db.table("t").unwrap().segments().len(), 2);
    let stored = db.remote_store().total_bytes();
    (stored, stored as f64 / (2 * ROWS * (16 + DIM * 4)) as f64)
}

/// Before graph-only blobs this table read 2.4212 (2,634,236 bytes).
#[test]
fn an_hnsw_table_stores_each_vector_once() {
    let (stored, ratio) = stored_bytes("HNSW('DIM=64')");
    assert!(ratio <= 1.5, "{stored} bytes stored, {ratio:.4} per user byte");
}

/// The bytes, 1.0908 per user byte, measured before HNSW blobs changed.
#[test]
fn an_ivfpqfs_table_stores_what_it_did() {
    let (stored, ratio) = stored_bytes("IVFPQFS('DIM=64')");
    assert_eq!(stored, 1_186_778, "{ratio:.4} per user byte");
}
