//! The shimmed serde + serde_derive + serde_json must round-trip the types
//! the library crates persist, including `#[serde(default)]` fields that an
//! older blob does not carry.

use bh_common::SegmentId;
use bh_storage::segment::SegmentMeta;
use bh_storage::stats::ColumnStats;
use bh_storage::value::Value;
use bh_vector::{IndexKind, SearchParams};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

fn sample_meta() -> SegmentMeta {
    let mut column_stats = BTreeMap::new();
    column_stats.insert(
        "x".to_string(),
        ColumnStats { min: Some(Value::Int64(-7)), max: Some(Value::Int64(999_999)), rows: 128 },
    );
    column_stats.insert("emb".to_string(), ColumnStats { min: None, max: None, rows: 128 });
    SegmentMeta {
        id: SegmentId(42),
        table: "bench \"quoted\"\n".to_string(),
        row_count: 128,
        level: 1,
        partition_key: vec![Value::Str("l0".into()), Value::UInt64(u64::MAX), Value::Float64(0.1)],
        cluster_bucket: Some(3),
        centroid: Some(vec![0.1, -2.5e-7, 3.0e9, 1.0]),
        column_stats,
        index_kind: Some(IndexKind::IvfPqFs),
        index_bytes: 123_456,
        index_head_bytes: 789,
    }
}

#[test]
fn segment_meta_round_trips() {
    let meta = sample_meta();
    let json = serde_json::to_string(&meta).unwrap();
    let back: SegmentMeta = serde_json::from_str(&json).unwrap();
    assert_eq!(back, meta);
    let bytes = serde_json::to_vec(&meta).unwrap();
    assert_eq!(bytes, json.as_bytes());
    assert_eq!(serde_json::from_slice::<SegmentMeta>(&bytes).unwrap(), meta);
}

#[test]
fn segment_meta_has_serde_json_shapes() {
    let json = serde_json::to_string(&sample_meta()).unwrap();
    // Newtype struct as its inner value, unit variant as a string, newtype
    // variant externally tagged, Option as the value itself.
    assert!(json.contains("\"id\":42"), "{json}");
    assert!(json.contains("\"index_kind\":\"IvfPqFs\""), "{json}");
    assert!(json.contains("{\"Int64\":-7}"), "{json}");
    assert!(json.contains("\"cluster_bucket\":3"), "{json}");
    assert!(json.contains("\"min\":null"), "{json}");
    assert!(json.contains("\\\"quoted\\\"\\n"), "{json}");
}

#[test]
fn defaulted_field_may_be_absent() {
    let meta = sample_meta();
    let json = serde_json::to_string(&meta).unwrap();
    let old = json.replace(",\"index_head_bytes\":789", "");
    assert_ne!(old, json, "field to strip not found in {json}");
    let back: SegmentMeta = serde_json::from_str(&old).unwrap();
    assert_eq!(back.index_head_bytes, 0);
    assert_eq!(back.index_bytes, meta.index_bytes);
    // A field without the attribute is still required.
    let broken = json.replace("\"row_count\":128,", "");
    let err = serde_json::from_str::<SegmentMeta>(&broken).unwrap_err();
    assert!(err.to_string().contains("row_count"), "{err}");
}

#[test]
fn search_params_round_trip_with_and_without_defaults() {
    let p =
        SearchParams::default().with_ef(200).with_selectivity(0.125).with_filter_traversal(true);
    let json = serde_json::to_string(&p).unwrap();
    assert_eq!(serde_json::from_str::<SearchParams>(&json).unwrap(), p);
    // Both defaulted fields absent: Option reads as None, bool as false.
    let back: SearchParams = serde_json::from_str("{\"ef_search\": 64, \"nprobe\": 8}").unwrap();
    assert_eq!(back, SearchParams::default());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Pair(u32, String),
    Named { a: i64, b: Option<f32> },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Wrapper(Vec<Shape>);

#[test]
fn every_derive_shape_round_trips() {
    let w = Wrapper(vec![
        Shape::Unit,
        Shape::Pair(7, "seven".into()),
        Shape::Named { a: -1, b: Some(0.5) },
        Shape::Named { a: i64::MIN, b: None },
    ]);
    let json = serde_json::to_string(&w).unwrap();
    assert_eq!(
        json,
        "[\"Unit\",{\"Pair\":[7,\"seven\"]},{\"Named\":{\"a\":-1,\"b\":0.5}},\
         {\"Named\":{\"a\":-9223372036854775808,\"b\":null}}]"
    );
    assert_eq!(serde_json::from_str::<Wrapper>(&json).unwrap(), w);
}

#[test]
fn malformed_input_is_an_error_not_a_panic() {
    for bad in ["", "{", "[1,", "{\"a\" 1}", "\"open", "nul", "1e", "[1] x", "{\"Unknown\":1}"] {
        assert!(serde_json::from_str::<Wrapper>(bad).is_err(), "{bad:?} should be rejected");
    }
    let deep = "[".repeat(10_000);
    assert!(serde_json::from_str::<Wrapper>(&deep).is_err());
}
