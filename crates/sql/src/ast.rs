//! Abstract syntax tree of the BlendHouse SQL dialect.

use std::fmt;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE …`.
    CreateTable(CreateTable),
    /// `INSERT INTO …`.
    Insert(InsertStmt),
    /// `SELECT …`.
    Select(SelectStmt),
    /// `UPDATE … SET …`.
    Update(UpdateStmt),
    /// `DELETE FROM …`.
    Delete(DeleteStmt),
    /// `EXPLAIN SELECT …` — show the plan instead of executing.
    Explain(SelectStmt),
    /// `EXPLAIN ANALYZE SELECT …` — execute with tracing enabled and render
    /// the profiled stage tree.
    ExplainAnalyze(SelectStmt),
    /// `SYSTEM METRICS` — dump every registered metric in Prometheus text
    /// format.
    SystemMetrics,
    /// `SYSTEM TRACE EXPORT` — render the retained slow-query span trees as
    /// chrome://tracing JSON.
    SystemTraceExport,
}

/// `CREATE TABLE name (…) ORDER BY … PARTITION BY … CLUSTER BY …`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// `(column name, type text)` in declaration order.
    pub columns: Vec<(String, String)>,
    /// Vector index declarations.
    pub indexes: Vec<IndexDefAst>,
    /// Sort-key columns.
    pub order_by: Vec<String>,
    /// Scalar partition-key expressions.
    pub partition_by: Vec<PartitionExpr>,
    /// `CLUSTER BY col INTO n BUCKETS`.
    pub cluster_by: Option<(String, usize)>,
}

/// `INDEX ann_idx embedding TYPE HNSW('DIM=960', 'M=32')`.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDefAst {
    /// Index name.
    pub name: String,
    /// Indexed (vector) column.
    pub column: String,
    /// Index type name (`HNSW`, `IVFPQFS`, …).
    pub index_type: String,
    /// Raw `'KEY=VALUE'` parameter strings.
    pub params: Vec<String>,
}

/// A partition-key element: a column, optionally wrapped in one function
/// (`toYYYYMMDD(published_time)`).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionExpr {
    /// Underlying partition column.
    pub column: String,
    /// Optional wrapping function name.
    pub func: Option<String>,
}

/// `INSERT INTO t VALUES (…), (…)` or `INSERT INTO t CSV INFILE '…'`.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertStmt {
    /// `INSERT INTO t VALUES (…), (…)`.
    Values {
        /// Target table.
        table: String,
        /// Literal rows in schema column order.
        rows: Vec<Vec<Lit>>,
    },
    /// `INSERT INTO t CSV INFILE '…'`.
    CsvFile {
        /// Target table.
        table: String,
        /// CSV file path.
        path: String,
    },
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Output expressions.
    pub projection: Vec<SelectItem>,
    /// Source table.
    pub table: String,
    /// `WHERE` expression, if any.
    pub where_clause: Option<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` count.
    pub limit: Option<u64>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Star,
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS name`, if present.
        alias: Option<String>,
    },
}

/// `ORDER BY <expr> [AS alias] [ASC|DESC]`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression.
    pub expr: Expr,
    /// `AS name`, if present.
    pub alias: Option<String>,
    /// Ascending (`true`) or `DESC`.
    pub asc: bool,
}

/// `UPDATE t SET c = v, … WHERE …`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `(column, new value)` assignments.
    pub assignments: Vec<(String, Lit)>,
    /// `WHERE` expression, if any.
    pub where_clause: Option<Expr>,
}

/// `DELETE FROM t WHERE …`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// `WHERE` expression, if any.
    pub where_clause: Option<Expr>,
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Integer literal, wide enough for every `Int64` and `UInt64` value;
    /// the column it meets decides whether it fits.
    Int(i128),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `[1.0, 2.5, …]` — embedding literals.
    Array(Vec<f64>),
    /// `NULL`.
    Null,
}

/// Binary operators, loosest-binding first in the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // operator names are self-describing
pub enum BinaryOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinaryOp {
    /// True for the six comparison operators (not AND/OR).
    pub fn is_comparison(&self) -> bool {
        !matches!(self, BinaryOp::And | BinaryOp::Or)
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields mirror the SQL surface directly
pub enum Expr {
    /// A bare column reference.
    Column(String),
    /// A literal value.
    Literal(Lit),
    /// `lhs <op> rhs`.
    Binary { op: BinaryOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// `expr [NOT] BETWEEN lo AND hi`.
    Between { expr: Box<Expr>, lo: Box<Expr>, hi: Box<Expr>, negated: bool },
    /// `expr [NOT] IN (…)`.
    InList { expr: Box<Expr>, list: Vec<Expr>, negated: bool },
    /// `NOT expr`.
    Not(Box<Expr>),
    /// `name(arg, …)` — distance functions, partition helpers.
    FuncCall { name: String, args: Vec<Expr> },
    /// `expr REGEXP 'pattern'` / `match(expr, 'pattern')`.
    Regexp { expr: Box<Expr>, pattern: String },
}

impl Expr {
    /// A column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column(name.into())
    }

    /// A literal expression.
    pub fn lit(l: Lit) -> Expr {
        Expr::Literal(l)
    }

    /// A binary expression.
    pub fn binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Is this expression a call to one of the known distance functions?
    /// Returns `(metric function name, args)`.
    pub fn as_distance_call(&self) -> Option<(&str, &[Expr])> {
        match self {
            Expr::FuncCall { name, args } => {
                let n = name.as_str();
                if n.eq_ignore_ascii_case("L2Distance")
                    || n.eq_ignore_ascii_case("IPDistance")
                    || n.eq_ignore_ascii_case("CosineDistance")
                {
                    Some((n, args))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Int(v) => write!(f, "{v}"),
            Lit::Float(v) => write!(f, "{v}"),
            Lit::Str(s) => write!(f, "'{s}'"),
            Lit::Array(v) => write!(f, "[{} floats]", v.len()),
            Lit::Null => write!(f, "NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_call_detection() {
        let e = Expr::FuncCall {
            name: "l2distance".into(),
            args: vec![Expr::col("emb"), Expr::lit(Lit::Array(vec![1.0]))],
        };
        let (name, args) = e.as_distance_call().unwrap();
        assert_eq!(name, "l2distance");
        assert_eq!(args.len(), 2);
        let other = Expr::FuncCall { name: "toYYYYMMDD".into(), args: vec![] };
        assert!(other.as_distance_call().is_none());
        assert!(Expr::col("x").as_distance_call().is_none());
    }

    #[test]
    fn operator_classes() {
        assert!(BinaryOp::Eq.is_comparison());
        assert!(BinaryOp::Ge.is_comparison());
        assert!(!BinaryOp::And.is_comparison());
    }

    #[test]
    fn literal_display() {
        assert_eq!(Lit::Int(-3).to_string(), "-3");
        assert_eq!(Lit::Str("a".into()).to_string(), "'a'");
        assert_eq!(Lit::Array(vec![0.0; 2]).to_string(), "[2 floats]");
    }
}
