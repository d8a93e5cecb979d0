//! Semantic analysis: AST → typed, validated query structures.
//!
//! The binder is where hybrid-query pattern detection happens (§II-C "plan
//! generation"): it walks the WHERE clause and ORDER BY list, recognizes
//! distance-function calls over an indexed vector column, and splits the
//! statement into a scalar [`Predicate`] plus an optional [`VectorQuery`]
//! (top-k and/or distance-range constraint). Everything else — literals,
//! column references, datetime strings — is coerced against the table
//! schema here, so later stages never see raw AST.

use bh_common::{BhError, Result};
use bh_sql::ast::{BinaryOp, Expr, Lit, SelectStmt, SelectItem};
use bh_storage::predicate::Predicate;
use bh_storage::schema::TableSchema;
use bh_storage::value::{ColumnType, Value};
use bh_vector::Metric;

/// The vector half of a hybrid query.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorQuery {
    /// Target vector column.
    pub column: String,
    /// Distance metric of the ORDER BY / range expression.
    pub metric: Metric,
    /// The query embedding.
    pub query: Vec<f32>,
    /// Top-k bound (from LIMIT); `None` for pure range queries.
    pub k: Option<usize>,
    /// Distance-range constraint (`L2Distance(…) < r`).
    pub range: Option<f32>,
    /// Output alias of the distance expression, if any (`AS dist`).
    pub alias: Option<String>,
}

/// One projection output.
#[derive(Debug, Clone, PartialEq)]
pub enum ProjItem {
    /// A table column, and the name it is output under: its alias, else
    /// its own name.
    Column {
        /// The column read.
        column: String,
        /// The output name.
        name: String,
    },
    /// The distance value, labeled with this output name.
    Distance(String),
    /// An aggregate over every row that passes the filter. A projection
    /// holding one holds nothing else.
    Aggregate(AggItem),
}

impl ProjItem {
    /// Output column name of this item.
    pub fn name(&self) -> &str {
        match self {
            ProjItem::Column { name, .. } | ProjItem::Distance(name) => name,
            ProjItem::Aggregate(a) => &a.name,
        }
    }
}

/// An aggregate function of the dialect (there is no GROUP BY: it folds
/// every row that passes the filter into one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(*)` or `count(col)`.
    Count,
    /// `sum(col)`.
    Sum,
    /// `min(col)`.
    Min,
    /// `max(col)`.
    Max,
    /// `avg(col)`.
    Avg,
}

/// One bound aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct AggItem {
    /// The function.
    pub func: AggFunc,
    /// The argument column and its type; `None` for `count(*)`.
    pub column: Option<(String, ColumnType)>,
    /// The output name: the alias, else `count(*)` or `sum(col)`.
    pub name: String,
}

/// A fully bound SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundSelect {
    /// Source table.
    pub table: String,
    /// Resolved output items.
    pub projection: Vec<ProjItem>,
    /// Scalar half of the WHERE clause.
    pub predicate: Predicate,
    /// Vector half of the query, if any.
    pub vector: Option<VectorQuery>,
    /// Sort keys (column, ascending) of a statement with no vector, most
    /// significant first.
    pub scalar_order: Vec<(String, bool)>,
    /// `LIMIT` count.
    pub limit: Option<usize>,
}

impl BoundSelect {
    /// Is the projection an aggregate (one output row)?
    pub(crate) fn is_aggregate(&self) -> bool {
        matches!(self.projection.first(), Some(ProjItem::Aggregate(_)))
    }

    /// The columns the finishing step reads, each once: the projected ones
    /// and the aggregates' arguments, then the sort keys. A scalar
    /// statement's rows hold these cells, in this order.
    pub fn finish_columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = Vec::new();
        let projected = self.projection.iter().filter_map(|p| match p {
            ProjItem::Column { column, .. } => Some(column.as_str()),
            ProjItem::Aggregate(a) => a.column.as_ref().map(|(c, _)| c.as_str()),
            ProjItem::Distance(_) => None,
        });
        for c in projected.chain(self.scalar_order.iter().map(|(c, _)| c.as_str())) {
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        cols
    }

    /// The columns the statement names, each once: its predicate's, then
    /// [`Self::finish_columns`].
    pub fn columns_read(&self) -> Vec<&str> {
        let mut cols = self.predicate.column_refs();
        for c in self.finish_columns() {
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        cols
    }

    /// The `filter:` and `columns read:` lines EXPLAIN prints for the
    /// statement, on any table.
    pub fn explain_reads(&self) -> String {
        let mut out = String::new();
        if !matches!(self.predicate, Predicate::True) {
            out.push_str(&format!("filter: {}\n", self.predicate));
        }
        out.push_str(&format!("columns read: [{}]\n", self.columns_read().join(", ")));
        out
    }
}

/// Bind a SELECT against a schema.
pub fn bind_select(schema: &TableSchema, stmt: &SelectStmt) -> Result<BoundSelect> {
    if stmt.table != schema.name {
        return Err(BhError::Plan(format!(
            "statement targets {} but was bound against {}",
            stmt.table, schema.name
        )));
    }

    // ORDER BY: either one distance expression, or scalar keys, each a
    // column or a projection alias for one.
    let mut vector: Option<VectorQuery> = None;
    let mut scalar_order = Vec::new();
    for item in &stmt.order_by {
        if let Some((fname, args)) = item.expr.as_distance_call() {
            if stmt.order_by.len() > 1 {
                return Err(BhError::Plan("a distance must be the only ORDER BY key".into()));
            }
            if !item.asc {
                return Err(BhError::Plan(
                    "ORDER BY distance DESC is not a nearest-neighbor query".into(),
                ));
            }
            let (column, qvec, metric) = bind_distance_call(schema, fname, args)?;
            vector = Some(VectorQuery {
                column,
                metric,
                query: qvec,
                k: stmt.limit.map(|l| l as usize),
                range: None,
                alias: item.alias.clone(),
            });
        } else if let Expr::Column(key) = &item.expr {
            let c = aliased_column(stmt, key).unwrap_or(key);
            let def = schema
                .column(c)
                .ok_or_else(|| BhError::Plan(format!("ORDER BY unknown column {c}")))?;
            if def.ty.is_vector() {
                return Err(BhError::Plan("cannot ORDER BY a raw vector column".into()));
            }
            scalar_order.push((c.to_string(), item.asc));
        } else {
            return Err(BhError::Plan("unsupported ORDER BY expression".into()));
        }
    }

    // WHERE: split conjuncts into scalar predicate and distance ranges.
    let mut scalar_preds = Vec::new();
    if let Some(w) = &stmt.where_clause {
        for conjunct in split_conjuncts(w) {
            match extract_distance_range(schema, conjunct)? {
                Some((column, qvec, metric, radius)) => match &mut vector {
                    Some(v) => {
                        if v.column != column {
                            return Err(BhError::Plan(
                                "distance range and ORDER BY target different columns".into(),
                            ));
                        }
                        if v.metric != metric {
                            return Err(BhError::Plan(
                                "distance range and ORDER BY use different metrics".into(),
                            ));
                        }
                        if v.query != qvec {
                            return Err(BhError::Plan(
                                "distance range and ORDER BY use different query vectors".into(),
                            ));
                        }
                        v.range = Some(v.range.map(|r| r.min(radius)).unwrap_or(radius));
                    }
                    None => {
                        vector = Some(VectorQuery {
                            column,
                            metric,
                            query: qvec,
                            k: stmt.limit.map(|l| l as usize),
                            range: Some(radius),
                            alias: None,
                        });
                    }
                },
                None => scalar_preds.push(bind_predicate(schema, conjunct)?),
            }
        }
    }
    let predicate = Predicate::and(scalar_preds);

    // Vector ORDER BY requires a LIMIT (top-k semantics) unless a range
    // constraint bounds the result.
    if let Some(v) = &vector {
        if v.k.is_none() && v.range.is_none() {
            return Err(BhError::Plan(
                "vector search needs LIMIT k or a distance range".into(),
            ));
        }
        // Validate the indexed column.
        let def = schema
            .column(&v.column)
            .ok_or_else(|| BhError::Plan(format!("unknown vector column {}", v.column)))?;
        if !def.ty.is_vector() {
            return Err(BhError::Plan(format!("{} is not a vector column", v.column)));
        }
    }

    // Projection.
    let mut projection = Vec::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Star => {
                for def in &schema.columns {
                    let name = def.name.clone();
                    projection.push(ProjItem::Column { column: name.clone(), name });
                }
                if let Some(v) = &vector {
                    if let Some(a) = &v.alias {
                        projection.push(ProjItem::Distance(a.clone()));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => match expr {
                Expr::Column(c) => {
                    let name = alias.clone().unwrap_or_else(|| c.clone());
                    if schema.column(c).is_some() {
                        projection.push(ProjItem::Column { column: c.clone(), name });
                    } else if vector.as_ref().and_then(|v| v.alias.as_deref()) == Some(c.as_str()) {
                        projection.push(ProjItem::Distance(name));
                    } else {
                        return Err(BhError::Plan(format!("unknown column {c}")));
                    }
                }
                other => {
                    if let Expr::FuncCall { name, args } = other {
                        if let Some(agg) = bind_aggregate(schema, name, args, alias.as_ref())? {
                            projection.push(ProjItem::Aggregate(agg));
                            continue;
                        }
                    }
                    let Some((fname, args)) = other.as_distance_call() else {
                        return Err(BhError::Plan(format!(
                            "unsupported projection expression: {other:?}"
                        )));
                    };
                    let (column, qvec, metric) = bind_distance_call(schema, fname, args)?;
                    match &vector {
                        Some(v) if v.column == column && v.query == qvec && v.metric == metric => {
                            projection.push(ProjItem::Distance(
                                alias.clone().unwrap_or_else(|| "distance".into()),
                            ));
                        }
                        _ => {
                            return Err(BhError::Plan(
                                "projected distance must match the ORDER BY distance".into(),
                            ))
                        }
                    }
                }
            },
        }
    }
    if projection.is_empty() {
        return Err(BhError::Plan("empty projection".into()));
    }
    let aggregates = projection.iter().filter(|p| matches!(p, ProjItem::Aggregate(_))).count();
    if aggregates > 0 && aggregates < projection.len() {
        return Err(BhError::Plan(
            "cannot mix aggregate and plain projections without GROUP BY".into(),
        ));
    }
    if aggregates > 0 && vector.is_some() {
        return Err(BhError::Plan("aggregates do not apply to a vector search".into()));
    }

    Ok(BoundSelect {
        table: stmt.table.clone(),
        projection,
        predicate,
        vector,
        scalar_order,
        limit: stmt.limit.map(|l| l as usize),
    })
}

/// The column a plain projection item aliased `name` reads, if one is.
fn aliased_column<'a>(stmt: &'a SelectStmt, name: &str) -> Option<&'a str> {
    stmt.projection.iter().find_map(|item| match item {
        SelectItem::Expr { expr: Expr::Column(c), alias: Some(a) } if a == name => Some(c.as_str()),
        _ => None,
    })
}

/// Bind `count(*)`, `count(col)`, `sum(col)`, `min(col)`, `max(col)` or
/// `avg(col)` (any case); `None` when `fname` is no aggregate.
fn bind_aggregate(
    schema: &TableSchema,
    fname: &str,
    args: &[Expr],
    alias: Option<&String>,
) -> Result<Option<AggItem>> {
    let func = match fname.to_ascii_lowercase().as_str() {
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        "avg" => AggFunc::Avg,
        _ => return Ok(None),
    };
    let column = match (func, args) {
        (AggFunc::Count, []) => None,
        (_, [Expr::Column(c)]) => {
            let ty = column_type(schema, c)?;
            if ty.is_vector() {
                return Err(BhError::Plan("aggregates over vector columns are unsupported".into()));
            }
            if ty == ColumnType::Str && matches!(func, AggFunc::Sum | AggFunc::Avg) {
                return Err(BhError::Plan(format!("{fname} over String column {c}")));
            }
            Some((c.clone(), ty))
        }
        _ => {
            return Err(BhError::Plan(format!(
                "{fname} takes a single column argument (or * for count)"
            )))
        }
    };
    let name = alias.cloned().unwrap_or_else(|| match &column {
        Some((c, _)) => format!("{}({c})", fname.to_ascii_lowercase()),
        None => "count(*)".into(),
    });
    Ok(Some(AggItem { func, column, name }))
}

/// Split an expression into top-level AND conjuncts.
pub fn split_conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary { op: BinaryOp::And, lhs, rhs } => {
            let mut out = split_conjuncts(lhs);
            out.extend(split_conjuncts(rhs));
            out
        }
        other => vec![other],
    }
}

/// A bound `Distance(col, [q]) < r`: column, query, metric and radius.
type DistanceRange = (String, Vec<f32>, Metric, f32);

/// Recognize `Distance(col, [q]) < r` (either operand order). Returns the
/// bound components or `None` when the conjunct is purely scalar.
fn extract_distance_range(
    schema: &TableSchema,
    e: &Expr,
) -> Result<Option<DistanceRange>> {
    let Expr::Binary { op, lhs, rhs } = e else { return Ok(None) };
    let ((fname, args), lit, op_towards_lit) = if let Some(call) = lhs.as_distance_call() {
        (call, rhs.as_ref(), *op)
    } else if let Some(call) = rhs.as_distance_call() {
        // Mirror `r > Distance(…)` to `Distance(…) < r`.
        let mirrored = match op {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::Le => BinaryOp::Ge,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::Ge => BinaryOp::Le,
            other => *other,
        };
        (call, lhs.as_ref(), mirrored)
    } else {
        return Ok(None);
    };
    if !matches!(op_towards_lit, BinaryOp::Lt | BinaryOp::Le) {
        return Err(BhError::Plan(
            "only upper-bounded distance ranges are supported (Distance(…) < r)".into(),
        ));
    }
    let (column, qvec, metric) = bind_distance_call(schema, fname, args)?;
    let radius = match lit {
        Expr::Literal(Lit::Float(f)) => *f as f32,
        Expr::Literal(Lit::Int(i)) => *i as f32,
        other => {
            return Err(BhError::Plan(format!("distance bound must be a number, got {other:?}")))
        }
    };
    Ok(Some((column, qvec, metric, radius)))
}

/// Bind `L2Distance(col, [q…])` and friends.
fn bind_distance_call(
    schema: &TableSchema,
    fname: &str,
    args: &[Expr],
) -> Result<(String, Vec<f32>, Metric)> {
    let metric = match fname.to_ascii_lowercase().as_str() {
        "l2distance" => Metric::L2,
        "ipdistance" => Metric::InnerProduct,
        "cosinedistance" => Metric::Cosine,
        other => return Err(BhError::Plan(format!("unknown distance function {other}"))),
    };
    if args.len() != 2 {
        return Err(BhError::Plan(format!("{fname} takes (column, query_vector)")));
    }
    // Accept either argument order.
    let (column, vec_expr) = match (&args[0], &args[1]) {
        (Expr::Column(c), other) => (c, other),
        (other, Expr::Column(c)) => (c, other),
        _ => return Err(BhError::Plan(format!("{fname} needs a column argument"))),
    };
    let def = schema
        .column(column)
        .ok_or_else(|| BhError::Plan(format!("unknown column {column}")))?;
    let Expr::Literal(Lit::Array(vals)) = vec_expr else {
        return Err(BhError::Plan(format!("{fname} needs an array literal query vector")));
    };
    let qvec: Vec<f32> = vals.iter().map(|&v| v as f32).collect();
    if let Some(i) = qvec.iter().position(|x| !x.is_finite()) {
        return Err(BhError::Plan(format!(
            "{fname} query vector for column {column}: component {i} is {}, not a finite Float32",
            qvec[i]
        )));
    }
    let expected_dim = match schema.storage_type(def) {
        ColumnType::Vector(d) => d,
        _ => return Err(BhError::Plan(format!("{column} is not a vector column"))),
    };
    if expected_dim != 0 && qvec.len() != expected_dim {
        return Err(BhError::DimensionMismatch { expected: expected_dim, got: qvec.len() });
    }
    // Every plan ranks by the index's metric, so another one would return
    // rows ordered by a distance the statement did not ask for.
    if let Some(idx) = schema.index_on(column).filter(|i| i.spec.metric != metric) {
        return Err(BhError::Plan(format!(
            "{fname} is {metric:?} distance, but index {} on {column} is built for {:?}: \
             use {}",
            idx.name,
            idx.spec.metric,
            idx.spec.metric.sql_function()
        )));
    }
    Ok((column.clone(), qvec, metric))
}

/// Bind a scalar WHERE conjunct to a storage predicate.
pub fn bind_predicate(schema: &TableSchema, e: &Expr) -> Result<Predicate> {
    match e {
        Expr::Binary { op: BinaryOp::And, .. } => {
            let parts = split_conjuncts(e)
                .into_iter()
                .map(|c| bind_predicate(schema, c))
                .collect::<Result<Vec<_>>>()?;
            Ok(Predicate::and(parts))
        }
        Expr::Binary { op: BinaryOp::Or, lhs, rhs } => Ok(Predicate::Or(vec![
            bind_predicate(schema, lhs)?,
            bind_predicate(schema, rhs)?,
        ])),
        Expr::Not(inner) => Ok(Predicate::Not(Box::new(bind_predicate(schema, inner)?))),
        Expr::Binary { op, lhs, rhs } if op.is_comparison() => {
            // Normalize to column-op-literal.
            let (col, lit, op) = match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Column(c), Expr::Literal(l)) => (c, l, *op),
                (Expr::Literal(l), Expr::Column(c)) => (
                    c,
                    l,
                    match op {
                        BinaryOp::Lt => BinaryOp::Gt,
                        BinaryOp::Le => BinaryOp::Ge,
                        BinaryOp::Gt => BinaryOp::Lt,
                        BinaryOp::Ge => BinaryOp::Le,
                        other => *other,
                    },
                ),
                _ => {
                    return Err(BhError::Plan(format!(
                        "unsupported comparison shape: {e:?}"
                    )))
                }
            };
            let ty = column_type(schema, col)?;
            let v = literal_to_value(lit, ty)?;
            Ok(match op {
                BinaryOp::Eq => Predicate::eq(col, v),
                BinaryOp::Ne => Predicate::Not(Box::new(Predicate::eq(col, v))),
                BinaryOp::Lt => Predicate::range_open(col, None, Some(v), false, true),
                BinaryOp::Le => Predicate::range(col, None, Some(v)),
                BinaryOp::Gt => Predicate::range_open(col, Some(v), None, true, false),
                BinaryOp::Ge => Predicate::range(col, Some(v), None),
                // lint: allow(panic) - the `op.is_comparison()` arm guard
                // restricts `op` to the six comparison operators matched above
                _ => unreachable!("comparison checked"),
            })
        }
        Expr::Between { expr, lo, hi, negated } => {
            let Expr::Column(col) = expr.as_ref() else {
                return Err(BhError::Plan("BETWEEN requires a column".into()));
            };
            let ty = column_type(schema, col)?;
            let (Expr::Literal(l), Expr::Literal(h)) = (lo.as_ref(), hi.as_ref()) else {
                return Err(BhError::Plan("BETWEEN bounds must be literals".into()));
            };
            let p = Predicate::range(
                col,
                Some(literal_to_value(l, ty)?),
                Some(literal_to_value(h, ty)?),
            );
            Ok(if *negated { Predicate::Not(Box::new(p)) } else { p })
        }
        Expr::InList { expr, list, negated } => {
            let Expr::Column(col) = expr.as_ref() else {
                return Err(BhError::Plan("IN requires a column".into()));
            };
            let ty = column_type(schema, col)?;
            let vals = list
                .iter()
                .map(|item| match item {
                    Expr::Literal(l) => literal_to_value(l, ty),
                    other => Err(BhError::Plan(format!("IN list item must be literal: {other:?}"))),
                })
                .collect::<Result<Vec<_>>>()?;
            let p = Predicate::In(col.clone(), vals);
            Ok(if *negated { Predicate::Not(Box::new(p)) } else { p })
        }
        Expr::Regexp { expr, pattern } => {
            let Expr::Column(col) = expr.as_ref() else {
                return Err(BhError::Plan("REGEXP requires a column".into()));
            };
            if column_type(schema, col)? != ColumnType::Str {
                return Err(BhError::Plan(format!("REGEXP on non-string column {col}")));
            }
            Predicate::regex(col, pattern)
        }
        other => Err(BhError::Plan(format!("unsupported predicate expression: {other:?}"))),
    }
}

fn column_type(schema: &TableSchema, col: &str) -> Result<ColumnType> {
    schema
        .column(col)
        .map(|d| d.ty)
        .ok_or_else(|| BhError::Plan(format!("unknown column {col}")))
}

/// Coerce an AST literal to a typed [`Value`] for a column of `ty`.
pub fn literal_to_value(lit: &Lit, ty: ColumnType) -> Result<Value> {
    let fail = || {
        BhError::Plan(format!(
            "cannot use literal {lit} with a {} column",
            ty.name()
        ))
    };
    Ok(match (lit, ty) {
        (Lit::Null, _) => Value::Null,
        (Lit::Int(v), ColumnType::UInt64) => {
            Value::UInt64(u64::try_from(*v).map_err(|_| fail())?)
        }
        (Lit::Int(v), ColumnType::Int64) => Value::Int64(i64::try_from(*v).map_err(|_| fail())?),
        (Lit::Int(v), ColumnType::Float64) => Value::Float64(*v as f64),
        (Lit::Int(v), ColumnType::DateTime) => {
            Value::DateTime(u64::try_from(*v).map_err(|_| fail())?)
        }
        (Lit::Float(v), ColumnType::Float64) => Value::Float64(*v),
        (Lit::Str(s), ColumnType::Str) => Value::Str(s.clone()),
        (Lit::Str(s), ColumnType::DateTime) => Value::DateTime(parse_datetime(s)?),
        (Lit::Array(v), ColumnType::Vector(d)) => {
            if d != 0 && v.len() != d {
                return Err(BhError::DimensionMismatch { expected: d, got: v.len() });
            }
            Value::Vector(v.iter().map(|&x| x as f32).collect())
        }
        _ => return Err(fail()),
    })
}

/// Parse `YYYY-MM-DD[ HH:MM:SS]` to epoch seconds (UTC, proleptic Gregorian).
pub fn parse_datetime(s: &str) -> Result<u64> {
    let bad = || BhError::Plan(format!("bad datetime literal '{s}'"));
    let (date, time) = match s.split_once(' ') {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let mut dp = date.split('-');
    let y: i64 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let m: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let d: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if dp.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return Err(bad());
    }
    let (mut hh, mut mm, mut ss) = (0u32, 0u32, 0u32);
    if let Some(t) = time {
        let mut tp = t.split(':');
        hh = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        mm = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        ss = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if tp.next().is_some() || hh > 23 || mm > 59 || ss > 59 {
            return Err(bad());
        }
    }
    // Howard Hinnant's days_from_civil.
    let y_adj = y - i64::from(m <= 2);
    let era = if y_adj >= 0 { y_adj } else { y_adj - 399 } / 400;
    let yoe = (y_adj - era * 400) as u64; // [0, 399]
    let mp = ((m + 9) % 12) as u64; // Mar=0 … Feb=11
    let doy = (153 * mp + 2) / 5 + d as u64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe as i64 - 719_468;
    if days < 0 {
        return Err(bad());
    }
    Ok(days as u64 * 86_400 + u64::from(hh) * 3_600 + u64::from(mm) * 60 + u64::from(ss))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_sql::parse_statement;
    use bh_sql::Statement;
    use bh_vector::IndexKind;

    fn schema() -> TableSchema {
        TableSchema::new("images")
            .with_column("id", ColumnType::UInt64)
            .with_column("label", ColumnType::Str)
            .with_column("published_time", ColumnType::DateTime)
            .with_column("score", ColumnType::Float64)
            .with_column("embedding", ColumnType::Vector(2))
            .with_vector_index("ann", "embedding", IndexKind::Hnsw, 2, Metric::L2)
    }

    fn bind(sql: &str) -> Result<BoundSelect> {
        let Statement::Select(sel) = parse_statement(sql)? else { panic!("not select") };
        bind_select(&schema(), &sel)
    }

    #[test]
    fn hybrid_query_binds_fully() {
        let b = bind(
            "SELECT id, dist FROM images \
             WHERE label = 'animal' AND published_time >= '2024-10-10 10:00:00' \
             ORDER BY L2Distance(embedding, [0.1, 0.2]) AS dist LIMIT 100",
        )
        .unwrap();
        let v = b.vector.unwrap();
        assert_eq!(v.column, "embedding");
        assert_eq!(v.metric, Metric::L2);
        assert_eq!(v.k, Some(100));
        assert_eq!(v.alias.as_deref(), Some("dist"));
        assert!((v.query[0] - 0.1).abs() < 1e-6);
        assert_eq!(b.projection.len(), 2);
        assert_eq!(b.projection[1], ProjItem::Distance("dist".into()));
        // Predicate has both conjuncts, datetime parsed.
        let cols = b.predicate.referenced_columns();
        assert_eq!(cols, vec!["label".to_string(), "published_time".to_string()]);
    }

    #[test]
    fn distance_range_in_where_becomes_range_query() {
        let b = bind(
            "SELECT id FROM images WHERE L2Distance(embedding, [0.0, 0.0]) < 0.5 LIMIT 10",
        )
        .unwrap();
        let v = b.vector.unwrap();
        assert_eq!(v.range, Some(0.5));
        assert_eq!(v.k, Some(10));
        assert_eq!(b.predicate, Predicate::True);
    }

    #[test]
    fn range_and_order_combine_when_consistent() {
        let b = bind(
            "SELECT id FROM images WHERE L2Distance(embedding, [0.0, 0.0]) < 2.0 \
             ORDER BY L2Distance(embedding, [0.0, 0.0]) LIMIT 5",
        )
        .unwrap();
        let v = b.vector.unwrap();
        assert_eq!(v.range, Some(2.0));
        assert_eq!(v.k, Some(5));
    }

    #[test]
    fn inconsistent_range_and_order_rejected() {
        let err = bind(
            "SELECT id FROM images WHERE L2Distance(embedding, [1.0, 1.0]) < 2.0 \
             ORDER BY L2Distance(embedding, [0.0, 0.0]) LIMIT 5",
        )
        .unwrap_err();
        assert!(err.to_string().contains("different query vectors"));
    }

    #[test]
    fn vector_query_requires_limit_or_range() {
        let err = bind("SELECT id FROM images ORDER BY L2Distance(embedding, [0.0, 0.0])")
            .unwrap_err();
        assert!(err.to_string().contains("LIMIT"));
    }

    #[test]
    fn star_expands_schema_plus_alias() {
        let b = bind(
            "SELECT * FROM images ORDER BY L2Distance(embedding, [0.0, 0.0]) AS d LIMIT 1",
        )
        .unwrap();
        assert_eq!(b.projection.len(), 6); // 5 columns + d
        assert_eq!(b.projection[5], ProjItem::Distance("d".into()));
    }

    #[test]
    fn scalar_order_by() {
        let b = bind("SELECT id FROM images ORDER BY score DESC LIMIT 3").unwrap();
        assert!(b.vector.is_none());
        assert_eq!(b.scalar_order, vec![("score".into(), false)]);
    }

    #[test]
    fn aliases_and_sort_keys_bind_to_their_columns() {
        let b = bind("SELECT id AS i, score FROM images ORDER BY i DESC, label LIMIT 3").unwrap();
        assert_eq!(b.projection[0], ProjItem::Column { column: "id".into(), name: "i".into() });
        assert_eq!(b.scalar_order, vec![("id".into(), false), ("label".into(), true)]);
        assert_eq!(b.finish_columns(), ["id", "score", "label"]);
        let err =
            bind("SELECT id FROM images ORDER BY score, L2Distance(embedding, [0.0, 0.0]) LIMIT 1")
                .unwrap_err();
        assert!(err.to_string().contains("only ORDER BY key"), "{err}");
    }

    #[test]
    fn aggregates_bind_without_vectors() {
        let b = bind("SELECT count(*), SUM(score) AS s FROM images WHERE id > 5").unwrap();
        assert!(b.is_aggregate());
        assert_eq!(b.projection.iter().map(ProjItem::name).collect::<Vec<_>>(), ["count(*)", "s"]);
        assert_eq!(b.finish_columns(), ["score"]);
        for (sql, why) in [
            ("SELECT sum(embedding) FROM images", "vector columns"),
            (
                "SELECT count(*) FROM images ORDER BY L2Distance(embedding, [0.0, 0.0]) LIMIT 1",
                "vector search",
            ),
            ("SELECT id, max(score) FROM images", "cannot mix"),
            ("SELECT avg(label) FROM images", "String column"),
        ] {
            let err = bind(sql).unwrap_err().to_string();
            assert!(err.contains(why), "{sql}: {err}");
        }
    }

    #[test]
    fn comparison_bind_openness() {
        let b = bind("SELECT id FROM images WHERE id > 5 AND score <= 0.5").unwrap();
        match &b.predicate {
            Predicate::And(parts) => {
                assert!(matches!(
                    &parts[0],
                    Predicate::Range { lo: Some(Value::UInt64(5)), lo_open: true, .. }
                ));
                assert!(matches!(
                    &parts[1],
                    Predicate::Range { hi: Some(Value::Float64(_)), hi_open: false, .. }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reversed_literal_comparison_mirrors() {
        let b = bind("SELECT id FROM images WHERE 5 < id").unwrap();
        assert!(matches!(
            b.predicate,
            Predicate::Range { lo: Some(Value::UInt64(5)), lo_open: true, .. }
        ));
    }

    #[test]
    fn regex_in_and_between() {
        let b = bind(
            "SELECT id FROM images WHERE label REGEXP '^a' AND id BETWEEN 1 AND 5 \
             AND label IN ('x', 'y')",
        )
        .unwrap();
        let Predicate::And(parts) = b.predicate else { panic!() };
        assert_eq!(parts.len(), 3);
        assert!(matches!(parts[0], Predicate::RegexMatch(..)));
        assert!(matches!(parts[1], Predicate::Range { .. }));
        assert!(matches!(parts[2], Predicate::In(..)));
    }

    #[test]
    fn unknown_columns_rejected() {
        assert!(bind("SELECT nope FROM images LIMIT 1").is_err());
        assert!(bind("SELECT id FROM images WHERE nope = 1").is_err());
        assert!(bind("SELECT id FROM images ORDER BY L2Distance(nope, [1.0, 2.0]) LIMIT 1")
            .is_err());
    }

    #[test]
    fn dimension_mismatch_in_query_vector() {
        let err = bind(
            "SELECT id FROM images ORDER BY L2Distance(embedding, [1.0, 2.0, 3.0]) LIMIT 1",
        )
        .unwrap_err();
        assert!(matches!(err, BhError::DimensionMismatch { expected: 2, got: 3 }));
    }

    #[test]
    fn non_finite_query_vector_components_are_errors() {
        for (sql, at) in [
            ("SELECT id FROM images ORDER BY L2Distance(embedding, [1e39, 2.0]) LIMIT 1", 0),
            ("SELECT id FROM images ORDER BY CosineDistance([1.0, -1e39], embedding) LIMIT 1", 1),
            ("SELECT id FROM images WHERE L2Distance(embedding, [1.0, 1e300]) < 2.0", 1),
        ] {
            let err = bind(sql).unwrap_err().to_string();
            assert!(err.contains(&format!("column embedding: component {at} is")), "{sql}: {err}");
        }
    }

    #[test]
    fn datetime_parsing() {
        assert_eq!(parse_datetime("1970-01-01").unwrap(), 0);
        assert_eq!(parse_datetime("1970-01-02 00:00:01").unwrap(), 86_401);
        // Known epoch: 2024-10-10 10:00:00 UTC = 1728554400.
        assert_eq!(parse_datetime("2024-10-10 10:00:00").unwrap(), 1_728_554_400);
        assert!(parse_datetime("not-a-date").is_err());
        assert!(parse_datetime("2024-13-01").is_err());
        assert!(parse_datetime("2024-01-01 25:00:00").is_err());
    }

    #[test]
    fn literal_coercions() {
        assert_eq!(
            literal_to_value(&Lit::Int(5), ColumnType::Float64).unwrap(),
            Value::Float64(5.0)
        );
        assert!(literal_to_value(&Lit::Int(-1), ColumnType::UInt64).is_err());
        let umax = Lit::Int(u64::MAX.into());
        assert_eq!(literal_to_value(&umax, ColumnType::UInt64).unwrap(), Value::UInt64(u64::MAX));
        assert!(literal_to_value(&umax, ColumnType::Int64).is_err());
        assert!(literal_to_value(&Lit::Int(-1), ColumnType::DateTime).is_err());
        assert_eq!(
            literal_to_value(&Lit::Int(i64::MIN.into()), ColumnType::Int64).unwrap(),
            Value::Int64(i64::MIN)
        );
        assert!(literal_to_value(&Lit::Str("x".into()), ColumnType::UInt64).is_err());
        assert_eq!(
            literal_to_value(&Lit::Array(vec![1.0]), ColumnType::Vector(0)).unwrap(),
            Value::Vector(vec![1.0])
        );
        assert!(literal_to_value(&Lit::Array(vec![1.0]), ColumnType::Vector(2)).is_err());
    }

    #[test]
    fn order_by_desc_distance_rejected() {
        let err = bind(
            "SELECT id FROM images ORDER BY L2Distance(embedding, [0.0, 0.0]) DESC LIMIT 5",
        )
        .unwrap_err();
        assert!(err.to_string().contains("DESC"));
    }
}
