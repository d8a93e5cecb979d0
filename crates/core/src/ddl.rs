//! DDL translation: `CREATE TABLE` AST → storage schema + index specs.

use bh_common::{BhError, Result};
use bh_sql::ast::CreateTable;
use bh_storage::schema::{TableSchema, VectorIndexDef};
use bh_storage::value::ColumnType;
use bh_vector::{IndexKind, IndexSpec, Metric};

/// Convert a parsed `CREATE TABLE` into a validated [`TableSchema`].
pub fn schema_from_ast(ct: &CreateTable) -> Result<TableSchema> {
    let mut schema = TableSchema::new(&ct.name);
    for (name, ty_text) in &ct.columns {
        let ty = ColumnType::parse(ty_text)?;
        schema.columns.push(bh_storage::schema::ColumnDef::new(name, ty));
    }
    schema.order_by = ct.order_by.clone();
    // Partition expressions: the storage engine partitions on the underlying
    // column; a wrapping function (e.g. toYYYYMMDD) coarsens the key in real
    // ByteHouse but preserves the same pruning semantics on exact values.
    schema.partition_by = ct.partition_by.iter().map(|p| p.column.clone()).collect();
    if let Some((col, buckets)) = &ct.cluster_by {
        schema.cluster_by =
            Some(bh_storage::schema::ClusterBy { column: col.clone(), buckets: *buckets });
    }

    for idx in &ct.indexes {
        let kind = IndexKind::parse(&idx.index_type)?;
        let mut params = std::collections::BTreeMap::new();
        for p in &idx.params {
            let (k, v) = p.split_once('=').ok_or_else(|| {
                BhError::Parse(format!("index parameter '{p}' is not KEY=VALUE"))
            })?;
            params.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
        let dim: usize = params
            .get("dim")
            .ok_or_else(|| {
                BhError::InvalidArgument(format!("index {} needs a 'DIM=n' parameter", idx.name))
            })?
            .parse()
            .map_err(|_| BhError::InvalidArgument("DIM must be an integer".into()))?;
        let metric = match params.get("metric") {
            Some(m) => Metric::parse(m)?,
            None => Metric::L2,
        };
        let mut spec = IndexSpec::new(kind, dim, metric);
        for (k, v) in &params {
            if k != "dim" && k != "metric" {
                spec = spec.with_param(k, v.clone());
            }
        }
        // Pin the vector column's dimension from the index declaration.
        if let Some(cd) = schema.columns.iter_mut().find(|c| c.name == idx.column) {
            if cd.ty == ColumnType::Vector(0) {
                cd.ty = ColumnType::Vector(dim);
            }
        }
        schema.indexes.push(VectorIndexDef {
            name: idx.name.clone(),
            column: idx.column.clone(),
            spec,
        });
    }

    schema.validate()?;
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_sql::{parse_statement, Statement};

    fn schema_of(sql: &str) -> Result<TableSchema> {
        let Statement::CreateTable(ct) = parse_statement(sql)? else { panic!("not create") };
        schema_from_ast(&ct)
    }

    #[test]
    fn example1_translates_fully() {
        let s = schema_of(
            "CREATE TABLE images (
               id UInt64, label String, published_time DateTime,
               embedding Array(Float32),
               INDEX ann_idx embedding TYPE HNSW('DIM=8', 'M=8', 'METRIC=COSINE')
             )
             ORDER BY published_time
             PARTITION BY (toYYYYMMDD(published_time), label)
             CLUSTER BY embedding INTO 16 BUCKETS",
        )
        .unwrap();
        assert_eq!(s.name, "images");
        assert_eq!(s.column("embedding").unwrap().ty, ColumnType::Vector(8));
        assert_eq!(s.partition_by, vec!["published_time".to_string(), "label".to_string()]);
        assert_eq!(s.cluster_by.as_ref().unwrap().buckets, 16);
        let idx = &s.indexes[0];
        assert_eq!(idx.spec.kind, IndexKind::Hnsw);
        assert_eq!(idx.spec.dim, 8);
        assert_eq!(idx.spec.metric, Metric::Cosine);
        assert_eq!(idx.spec.param_usize("m", 0).unwrap(), 8);
    }

    #[test]
    fn missing_dim_rejected() {
        let err = schema_of(
            "CREATE TABLE t (v Array(Float32), INDEX i v TYPE HNSW)",
        )
        .unwrap_err();
        assert!(err.to_string().contains("DIM"));
    }

    #[test]
    fn bad_param_format_rejected() {
        assert!(schema_of("CREATE TABLE t (v Array(Float32), INDEX i v TYPE HNSW('DIM'))")
            .is_err());
    }

    #[test]
    fn unknown_index_type_rejected() {
        for kind in ["LSH", "DISKANN"] {
            let err = schema_of(&format!(
                "CREATE TABLE t (v Array(Float32), INDEX i v TYPE {kind}('DIM=4'))"
            ))
            .unwrap_err();
            assert!(matches!(err, BhError::InvalidArgument(_)), "{kind}: {err}");
            let msg = err.to_string();
            assert!(msg.contains(kind), "{msg}");
            for known in IndexKind::ALL {
                assert!(msg.contains(known.name()), "{kind}: {msg} misses {}", known.name());
            }
        }
    }

    #[test]
    fn every_index_kind_parses() {
        for kind in IndexKind::ALL.map(|k| k.name()) {
            let s = schema_of(&format!(
                "CREATE TABLE t (v Array(Float32), INDEX i v TYPE {kind}('DIM=8'))"
            ))
            .unwrap();
            assert_eq!(s.indexes[0].spec.dim, 8, "{kind}");
        }
    }

    #[test]
    fn schema_validation_still_applies() {
        // Index on a scalar column must fail through validate().
        assert!(schema_of(
            "CREATE TABLE t (a UInt64, INDEX i a TYPE HNSW('DIM=4'))"
        )
        .is_err());
    }
}
