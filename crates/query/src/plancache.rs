//! Parameterized plan caching and short-circuit processing (§IV-C "Query
//! processing overhead").
//!
//! Hybrid workloads are highly repetitive: the same SELECT shape with a
//! different query vector, filter constant or threshold on every call. The
//! cache keys on a **parameterized signature** — the statement structure
//! with every literal masked — and stores the part of planning that
//! depends on the shape alone: the rule results (pruned column set). The
//! CBO's strategy choice depends on the masked literals (`k`, the filter
//! constants' selectivity) and on the table's size, so the executor makes
//! it per statement. **Short-circuit processing** additionally bypasses
//! rule matching for trivially-shaped queries (single conjunct or none,
//! plain top-k).

use crate::bind::{BoundSelect, ProjItem};
use bh_storage::predicate::Predicate;
use bh_common::sync::{classes, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// What the cache preserves across parameter changes.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPlan {
    /// Scalar columns the executor must read (post column-pruning).
    pub columns_needed: Vec<String>,
    /// Whether the projection asks for the raw vector column.
    pub needs_raw_vectors: bool,
}

/// Structural signature of a bound query with literals masked.
pub fn plan_signature(bound: &BoundSelect) -> String {
    let mut sig = String::with_capacity(128);
    sig.push_str(&bound.table);
    sig.push('|');
    for p in &bound.projection {
        match p {
            ProjItem::Column(c) => {
                sig.push_str(c);
                sig.push(',');
            }
            ProjItem::Distance(_) => sig.push_str("<dist>,"),
        }
    }
    sig.push('|');
    predicate_shape(&bound.predicate, &mut sig);
    sig.push('|');
    if let Some(v) = &bound.vector {
        // Query vector and k are parameters; column/metric/range-presence
        // are structure.
        sig.push_str(&format!(
            "ann:{}:{:?}:{}",
            v.column,
            v.metric,
            if v.range.is_some() { "range" } else { "topk" }
        ));
    }
    if let Some((c, asc)) = &bound.scalar_order {
        sig.push_str(&format!("|sort:{c}:{asc}"));
    }
    sig
}

fn predicate_shape(p: &Predicate, out: &mut String) {
    match p {
        Predicate::True => out.push_str("T"),
        Predicate::Eq(c, _) => out.push_str(&format!("eq({c})")),
        Predicate::Range { column, lo, hi, .. } => out.push_str(&format!(
            "rng({column},{},{})",
            lo.is_some() as u8,
            hi.is_some() as u8
        )),
        Predicate::RegexMatch(c, _) => out.push_str(&format!("re({c})")),
        Predicate::In(c, vs) => out.push_str(&format!("in({c},{})", vs.len())),
        Predicate::And(ps) => {
            out.push_str("and(");
            for p in ps {
                predicate_shape(p, out);
                out.push(';');
            }
            out.push(')');
        }
        Predicate::Or(ps) => {
            out.push_str("or(");
            for p in ps {
                predicate_shape(p, out);
                out.push(';');
            }
            out.push(')');
        }
        Predicate::Not(p) => {
            out.push_str("not(");
            predicate_shape(p, out);
            out.push(')');
        }
    }
}

/// Is the query simple enough to skip full optimization? (§IV-C
/// short-circuit: plain vector top-k with at most one scalar conjunct.)
pub fn is_short_circuitable(bound: &BoundSelect) -> bool {
    let simple_pred = match &bound.predicate {
        Predicate::True | Predicate::Eq(..) | Predicate::Range { .. } => true,
        Predicate::And(ps) => ps.len() <= 1,
        _ => false,
    };
    simple_pred && bound.scalar_order.is_none()
}

/// The cache itself.
#[derive(Debug)]
pub struct PlanCache {
    map: Mutex<HashMap<String, CachedPlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache {
            map: Mutex::new(&classes::PLANCACHE_MAP, HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a cached plan (counts a hit/miss).
    pub fn get(&self, signature: &str) -> Option<CachedPlan> {
        let got = self.map.lock().get(signature).cloned();
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Store a plan under its signature.
    pub fn put(&self, signature: String, plan: CachedPlan) {
        self.map.lock().insert(signature, plan);
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan.
    pub fn clear(&self) {
        self.map.lock().clear();
    }

    /// `(hits, misses)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind_select;
    use bh_sql::{parse_statement, Statement};
    use bh_storage::schema::TableSchema;
    use bh_storage::value::ColumnType;
    use bh_vector::{IndexKind, Metric};

    fn schema() -> TableSchema {
        TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("label", ColumnType::Str)
            .with_column("emb", ColumnType::Vector(2))
            .with_vector_index("i", "emb", IndexKind::Hnsw, 2, Metric::L2)
    }

    fn bound(sql: &str) -> BoundSelect {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
        bind_select(&schema(), &sel).unwrap()
    }

    #[test]
    fn same_shape_different_params_share_signature() {
        let a = bound(
            "SELECT id FROM t WHERE label = 'animal' \
             ORDER BY L2Distance(emb, [0.1, 0.2]) LIMIT 10",
        );
        let b = bound(
            "SELECT id FROM t WHERE label = 'plant' \
             ORDER BY L2Distance(emb, [0.9, 0.8]) LIMIT 50",
        );
        assert_eq!(plan_signature(&a), plan_signature(&b));
    }

    #[test]
    fn different_shapes_differ() {
        let base = bound("SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.0]) LIMIT 10");
        let with_filter = bound(
            "SELECT id FROM t WHERE label = 'x' ORDER BY L2Distance(emb, [0.0, 0.0]) LIMIT 10",
        );
        let with_range =
            bound("SELECT id FROM t WHERE L2Distance(emb, [0.0, 0.0]) < 1.0 LIMIT 10");
        let scalar = bound("SELECT id FROM t WHERE id = 3");
        let sigs = [
            plan_signature(&base),
            plan_signature(&with_filter),
            plan_signature(&with_range),
            plan_signature(&scalar),
        ];
        for i in 0..sigs.len() {
            for j in i + 1..sigs.len() {
                assert_ne!(sigs[i], sigs[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn range_count_in_in_list_is_structural() {
        let two = bound("SELECT id FROM t WHERE label IN ('a', 'b')");
        let three = bound("SELECT id FROM t WHERE label IN ('a', 'b', 'c')");
        assert_ne!(plan_signature(&two), plan_signature(&three));
    }

    #[test]
    fn cache_roundtrip_and_stats() {
        let cache = PlanCache::new();
        let b = bound("SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.0]) LIMIT 10");
        let sig = plan_signature(&b);
        assert!(cache.get(&sig).is_none());
        cache.put(
            sig.clone(),
            CachedPlan { columns_needed: vec!["id".into()], needs_raw_vectors: false },
        );
        let hit = cache.get(&sig).unwrap();
        assert_eq!(hit.columns_needed, ["id"]);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn short_circuit_detection() {
        assert!(is_short_circuitable(&bound(
            "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.0]) LIMIT 5"
        )));
        assert!(is_short_circuitable(&bound(
            "SELECT id FROM t WHERE label = 'a' ORDER BY L2Distance(emb, [0.0, 0.0]) LIMIT 5"
        )));
        assert!(!is_short_circuitable(&bound(
            "SELECT id FROM t WHERE label = 'a' AND id < 9 \
             ORDER BY L2Distance(emb, [0.0, 0.0]) LIMIT 5"
        )));
        assert!(!is_short_circuitable(&bound("SELECT id FROM t ORDER BY id LIMIT 5")));
    }
}
