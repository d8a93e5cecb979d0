//! Logical plans and rule-based optimization (§II-C).
//!
//! The logical plan is a small operator tree that EXPLAIN prints, with the
//! rule-based rewrites applied to it. The executor never builds it: what it
//! needs from the plan step is the strategy, chosen for every statement by
//! the cost model, and the columns a scalar statement reads come straight
//! from [`BoundSelect::columns_read`]. Three rules from the paper are
//! implemented:
//!
//! * **distance top-k pushdown** — the TopK bound moves into the ANN scan so
//!   every segment searches with `k` instead of materializing everything;
//! * **distance range-filter pushdown** — a `Distance(…) < r` constraint
//!   moves into the ANN scan as a range bound;
//! * **vector column pruning** — the raw embedding column is dropped from
//!   the scan's column set unless the projection asks for it (the index
//!   holds what search needs; refine re-reads cells on demand).

use crate::bind::{BoundSelect, ProjItem};
use bh_storage::schema::TableSchema;
use std::fmt;

/// Logical operators, leaf-last.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // operator fields mirror their display form
pub enum LogicalPlan {
    Project {
        outputs: Vec<String>,
        input: Box<LogicalPlan>,
    },
    TopK {
        k: usize,
        input: Box<LogicalPlan>,
    },
    Filter {
        predicate: String,
        input: Box<LogicalPlan>,
    },
    Sort {
        key: String,
        asc: bool,
        input: Box<LogicalPlan>,
    },
    /// ANN scan over the vector index; `k`/`range` are populated by the
    /// pushdown rules.
    AnnScan {
        table: String,
        column: String,
        k: Option<usize>,
        range: Option<f32>,
    },
    /// Plain columnar scan.
    TableScan {
        table: String,
        columns: Vec<String>,
    },
}

impl LogicalPlan {
    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::Project { outputs, input } => {
                writeln!(f, "{pad}Project [{}]", outputs.join(", "))?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::TopK { k, input } => {
                writeln!(f, "{pad}TopK k={k}")?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Filter { predicate, input } => {
                writeln!(f, "{pad}Filter {predicate}")?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Sort { key, asc, input } => {
                writeln!(f, "{pad}Sort {key} {}", if *asc { "ASC" } else { "DESC" })?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::AnnScan { table, column, k, range } => {
                write!(f, "{pad}AnnScan {table}.{column}")?;
                if let Some(k) = k {
                    write!(f, " k={k}")?;
                }
                if let Some(r) = range {
                    write!(f, " range<={r}")?;
                }
                writeln!(f)
            }
            LogicalPlan::TableScan { table, columns } => {
                writeln!(f, "{pad}TableScan {table} [{}]", columns.join(", "))
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

/// What EXPLAIN prints: the optimized plan, the applied-rule log and the
/// columns read.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedSelect {
    /// The optimized operator tree.
    pub logical: LogicalPlan,
    /// Names of the rewrite rules that fired.
    pub rules_applied: Vec<String>,
    /// Columns read ([`BoundSelect::columns_read`]), after vector column
    /// pruning.
    pub columns_needed: Vec<String>,
}

/// Build the naive plan, then apply the rule-based optimizations.
pub fn plan_select(schema: &TableSchema, bound: &BoundSelect) -> PlannedSelect {
    let mut rules = Vec::new();
    let mut columns: Vec<String> = bound.columns_read().into_iter().map(String::from).collect();

    // Vector column pruning: drop the embedding column from the scan set
    // unless it is explicitly projected.
    if let Some(v) = &bound.vector {
        let projected = bound
            .projection
            .iter()
            .any(|p| matches!(p, ProjItem::Column(c) if c == &v.column));
        if !projected {
            let before = columns.len();
            columns.retain(|c| c != &v.column);
            if columns.len() != before || schema.column(&v.column).is_some() {
                rules.push("vector-column-pruning".to_string());
            }
        }
    }

    // Naive tree: Scan → Filter → Sort/TopK → Project.
    let scan: LogicalPlan = match &bound.vector {
        Some(v) => {
            let mut ann = LogicalPlan::AnnScan {
                table: bound.table.clone(),
                column: v.column.clone(),
                k: None,
                range: None,
            };
            // Distance top-k pushdown.
            if let Some(k) = v.k {
                if let LogicalPlan::AnnScan { k: ann_k, .. } = &mut ann {
                    *ann_k = Some(k);
                }
                rules.push("distance-topk-pushdown".to_string());
            }
            // Distance range pushdown.
            if let Some(r) = v.range {
                if let LogicalPlan::AnnScan { range, .. } = &mut ann {
                    *range = Some(r);
                }
                rules.push("distance-range-pushdown".to_string());
            }
            ann
        }
        None => LogicalPlan::TableScan { table: bound.table.clone(), columns: columns.clone() },
    };

    let mut plan = scan;
    if !matches!(bound.predicate, bh_storage::predicate::Predicate::True) {
        plan = LogicalPlan::Filter {
            predicate: bound.predicate.to_string(),
            input: Box::new(plan),
        };
    }
    if let Some((key, asc)) = &bound.scalar_order {
        plan = LogicalPlan::Sort { key: key.clone(), asc: *asc, input: Box::new(plan) };
    }
    if let Some(k) = bound.limit {
        plan = LogicalPlan::TopK { k, input: Box::new(plan) };
    }
    plan = LogicalPlan::Project {
        outputs: bound.projection.iter().map(|p| p.name().to_string()).collect(),
        input: Box::new(plan),
    };

    PlannedSelect { logical: plan, rules_applied: rules, columns_needed: columns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind_select;
    use bh_sql::{parse_statement, Statement};
    use bh_storage::value::ColumnType;
    use bh_vector::{IndexKind, Metric};

    fn schema() -> TableSchema {
        TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("label", ColumnType::Str)
            .with_column("emb", ColumnType::Vector(2))
            .with_vector_index("i", "emb", IndexKind::Hnsw, 2, Metric::L2)
    }

    fn plan(sql: &str) -> PlannedSelect {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
        let bound = bind_select(&schema(), &sel).unwrap();
        plan_select(&schema(), &bound)
    }

    #[test]
    fn hybrid_plan_applies_all_rules() {
        let p = plan(
            "SELECT id FROM t WHERE label = 'a' AND L2Distance(emb, [0.0, 0.0]) < 3.0 \
             ORDER BY L2Distance(emb, [0.0, 0.0]) LIMIT 7",
        );
        assert!(p.rules_applied.contains(&"distance-topk-pushdown".to_string()));
        assert!(p.rules_applied.contains(&"distance-range-pushdown".to_string()));
        assert!(p.rules_applied.contains(&"vector-column-pruning".to_string()));
        // Vector column pruned from the scan column set.
        assert_eq!(p.columns_needed, vec!["label".to_string(), "id".to_string()]);
        // The pushed-down k and range appear on the AnnScan leaf.
        let text = p.logical.to_string();
        assert!(text.contains("AnnScan t.emb k=7 range<=3"), "{text}");
        assert!(text.contains("Filter"), "{text}");
        assert!(text.contains("TopK k=7"), "{text}");
    }

    #[test]
    fn projecting_the_vector_disables_pruning() {
        let p = plan("SELECT emb FROM t ORDER BY L2Distance(emb, [0.0, 0.0]) LIMIT 2");
        assert!(p.columns_needed.contains(&"emb".to_string()));
        assert!(!p.rules_applied.contains(&"vector-column-pruning".to_string()));
    }

    #[test]
    fn scalar_query_gets_table_scan() {
        let p = plan("SELECT id FROM t WHERE label = 'x' ORDER BY id LIMIT 5");
        let text = p.logical.to_string();
        assert!(text.contains("TableScan"), "{text}");
        assert!(text.contains("Sort id ASC"), "{text}");
        assert!(!text.contains("AnnScan"));
        assert_eq!(p.columns_needed, vec!["label".to_string(), "id".to_string()]);
    }

    #[test]
    fn no_filter_node_for_true_predicate() {
        let p = plan("SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.0]) LIMIT 1");
        assert!(!p.logical.to_string().contains("Filter"));
    }

    #[test]
    fn explain_is_indented_tree() {
        let p = plan("SELECT id FROM t WHERE label = 'a' ORDER BY L2Distance(emb, [0.0, 0.0]) LIMIT 1");
        let text = p.logical.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("Project"));
        assert!(lines[1].starts_with("  "), "{text}");
    }
}
