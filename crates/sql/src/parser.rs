//! Recursive-descent parser for the BlendHouse dialect.

use crate::ast::*;
use crate::lexer::{Lexer, Token, TokenKind};
use bh_common::{BhError, Result};

/// Parse one SQL statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql);
    let parsed = p.parse_statement().and_then(|stmt| {
        p.eat_semicolons();
        p.expect_eof()?;
        Ok(stmt)
    });
    // A lexing error anywhere in the text wins over the parse's outcome,
    // as it did when the whole text was tokenized before parsing.
    match p.lex_error() {
        Some(e) => Err(e),
        None => parsed,
    }
}

/// Recursive descent over a two-token window the lexer fills as tokens are
/// consumed: the deepest lookahead is one token past the current one
/// (`NOT BETWEEN` / `NOT IN`), so a statement's tokens are never all held
/// at once.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token.
    cur: Token,
    /// The token after it.
    next: Token,
    /// The lexer's first error. The window reads `Eof` from there on, and
    /// [`parse_statement`] reports the error whatever the parse made of it.
    lex_err: Option<BhError>,
    /// Length of the last array literal: the capacity of the next one (the
    /// rows of an INSERT share a dimension).
    array_len: usize,
}

impl<'a> Parser<'a> {
    fn new(sql: &'a str) -> Parser<'a> {
        let eof = Token { kind: TokenKind::Eof, pos: sql.len() };
        let mut p = Parser {
            lexer: Lexer::new(sql),
            cur: eof.clone(),
            next: eof,
            lex_err: None,
            array_len: 0,
        };
        p.cur = p.pull();
        p.next = p.pull();
        p
    }

    /// The lexer's next token, or `Eof` once it has failed.
    fn pull(&mut self) -> Token {
        if self.lex_err.is_none() {
            match self.lexer.next_token() {
                Ok(token) => return token,
                Err(e) => self.lex_err = Some(e),
            }
        }
        // Never reported: the lexing error is.
        Token { kind: TokenKind::Eof, pos: 0 }
    }

    /// Lex what the parse left unread and return the first lexing error of
    /// the whole text, if there is one.
    fn lex_error(mut self) -> Option<BhError> {
        while self.lex_err.is_none() && self.next.kind != TokenKind::Eof {
            self.next = self.pull();
        }
        self.lex_err
    }

    fn peek(&self) -> &TokenKind {
        &self.cur.kind
    }

    /// Consume the current token, moving it out of the window; at `Eof`
    /// the window stays on `Eof`.
    fn advance(&mut self) -> TokenKind {
        let after = self.pull();
        let next = std::mem::replace(&mut self.next, after);
        std::mem::replace(&mut self.cur, next).kind
    }

    fn err(&self, msg: &str) -> BhError {
        BhError::Parse(format!("{msg} at byte {} (near {:?})", self.cur.pos, self.peek()))
    }

    /// Case-insensitive keyword check without consuming.
    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().ident().map(|s| s.eq_ignore_ascii_case(kw)).unwrap_or(false)
    }

    /// [`Self::peek_kw`] one token further on.
    fn peek_next_kw(&self, kw: &str) -> bool {
        self.next.kind.ident().map(|s| s.eq_ignore_ascii_case(kw)).unwrap_or(false)
    }

    /// Consume the keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {kw}")))
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.err(&format!("expected {what}"))),
        }
    }

    fn eat_semicolons(&mut self) {
        while matches!(self.peek(), TokenKind::Semicolon) {
            self.advance();
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err("trailing input after statement"))
        }
    }

    // ------------------------------------------------------------ statements

    fn parse_statement(&mut self) -> Result<Statement> {
        if self.peek_kw("EXPLAIN") {
            self.advance();
            if self.eat_kw("ANALYZE") {
                Ok(Statement::ExplainAnalyze(self.parse_select()?))
            } else {
                Ok(Statement::Explain(self.parse_select()?))
            }
        } else if self.peek_kw("SYSTEM") {
            self.advance();
            if self.eat_kw("TRACE") {
                self.expect_kw("EXPORT")?;
                Ok(Statement::SystemTraceExport)
            } else {
                self.expect_kw("METRICS")?;
                Ok(Statement::SystemMetrics)
            }
        } else if self.peek_kw("CREATE") {
            Ok(Statement::CreateTable(self.parse_create_table()?))
        } else if self.peek_kw("INSERT") {
            Ok(Statement::Insert(self.parse_insert()?))
        } else if self.peek_kw("SELECT") {
            Ok(Statement::Select(self.parse_select()?))
        } else if self.peek_kw("UPDATE") {
            Ok(Statement::Update(self.parse_update()?))
        } else if self.peek_kw("DELETE") {
            Ok(Statement::Delete(self.parse_delete()?))
        } else {
            Err(self.err("expected CREATE, INSERT, SELECT, UPDATE, DELETE, EXPLAIN or SYSTEM"))
        }
    }

    fn parse_create_table(&mut self) -> Result<CreateTable> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        let name = self.expect_ident("table name")?;
        self.expect(&TokenKind::LParen, "(")?;

        let mut columns = Vec::new();
        let mut indexes = Vec::new();
        loop {
            if self.peek_kw("INDEX") {
                self.advance();
                let idx_name = self.expect_ident("index name")?;
                let column = self.expect_ident("index column")?;
                self.expect_kw("TYPE")?;
                let index_type = self.expect_ident("index type")?;
                let mut params = Vec::new();
                if matches!(self.peek(), TokenKind::LParen) {
                    self.advance();
                    while !matches!(self.peek(), TokenKind::RParen) {
                        match self.advance() {
                            TokenKind::Str(s) => params.push(s),
                            _ => return Err(self.err("expected 'KEY=VALUE' index parameter")),
                        }
                        if matches!(self.peek(), TokenKind::Comma) {
                            self.advance();
                        }
                    }
                    self.expect(&TokenKind::RParen, ")")?;
                }
                indexes.push(IndexDefAst { name: idx_name, column, index_type, params });
            } else {
                let col = self.expect_ident("column name")?;
                let ty = self.parse_type_text()?;
                columns.push((col, ty));
            }
            if matches!(self.peek(), TokenKind::Comma) {
                self.advance();
                continue;
            }
            break;
        }
        self.expect(&TokenKind::RParen, ")")?;

        let mut order_by = Vec::new();
        let mut partition_by = Vec::new();
        let mut cluster_by = None;
        loop {
            if self.peek_kw("ORDER") {
                self.advance();
                self.expect_kw("BY")?;
                order_by = self.parse_name_list()?;
            } else if self.peek_kw("PARTITION") {
                self.advance();
                self.expect_kw("BY")?;
                partition_by = self.parse_partition_exprs()?;
            } else if self.peek_kw("CLUSTER") {
                self.advance();
                self.expect_kw("BY")?;
                let column = self.expect_ident("cluster column")?;
                self.expect_kw("INTO")?;
                let buckets = match self.advance() {
                    TokenKind::Int(n) if n > 0 => n as usize,
                    _ => return Err(self.err("expected positive bucket count")),
                };
                self.expect_kw("BUCKETS")?;
                cluster_by = Some((column, buckets));
            } else {
                break;
            }
        }
        Ok(CreateTable { name, columns, indexes, order_by, partition_by, cluster_by })
    }

    /// Column type text: `UInt64`, `Array(Float32)`, `DateTime`, ….
    fn parse_type_text(&mut self) -> Result<String> {
        let base = self.expect_ident("column type")?;
        if matches!(self.peek(), TokenKind::LParen) {
            self.advance();
            let inner = self.expect_ident("inner type")?;
            self.expect(&TokenKind::RParen, ")")?;
            Ok(format!("{base}({inner})"))
        } else {
            Ok(base)
        }
    }

    /// `col` | `(col, col, …)`.
    fn parse_name_list(&mut self) -> Result<Vec<String>> {
        if matches!(self.peek(), TokenKind::LParen) {
            self.advance();
            let mut out = Vec::new();
            loop {
                out.push(self.expect_ident("column name")?);
                if matches!(self.peek(), TokenKind::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, ")")?;
            Ok(out)
        } else {
            Ok(vec![self.expect_ident("column name")?])
        }
    }

    /// Partition exprs: `col`, `func(col)`, or a parenthesized list thereof.
    fn parse_partition_exprs(&mut self) -> Result<Vec<PartitionExpr>> {
        let parse_one = |p: &mut Parser| -> Result<PartitionExpr> {
            let name = p.expect_ident("partition column or function")?;
            if matches!(p.peek(), TokenKind::LParen) {
                p.advance();
                let column = p.expect_ident("partitioned column")?;
                p.expect(&TokenKind::RParen, ")")?;
                Ok(PartitionExpr { column, func: Some(name) })
            } else {
                Ok(PartitionExpr { column: name, func: None })
            }
        };
        if matches!(self.peek(), TokenKind::LParen) {
            self.advance();
            let mut out = Vec::new();
            loop {
                out.push(parse_one(self)?);
                if matches!(self.peek(), TokenKind::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, ")")?;
            Ok(out)
        } else {
            Ok(vec![parse_one(self)?])
        }
    }

    fn parse_insert(&mut self) -> Result<InsertStmt> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.expect_ident("table name")?;
        if self.eat_kw("CSV") {
            self.expect_kw("INFILE")?;
            match self.advance() {
                TokenKind::Str(path) => Ok(InsertStmt::CsvFile { table, path }),
                _ => Err(self.err("expected file path string")),
            }
        } else {
            self.expect_kw("VALUES")?;
            let mut rows = Vec::new();
            loop {
                self.expect(&TokenKind::LParen, "(")?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_literal()?);
                    if matches!(self.peek(), TokenKind::Comma) {
                        self.advance();
                    } else {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen, ")")?;
                rows.push(row);
                if matches!(self.peek(), TokenKind::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
            Ok(InsertStmt::Values { table, rows })
        }
    }

    fn parse_select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let mut projection = Vec::new();
        loop {
            if matches!(self.peek(), TokenKind::Star) {
                self.advance();
                projection.push(SelectItem::Star);
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.expect_ident("alias")?)
                } else {
                    None
                };
                projection.push(SelectItem::Expr { expr, alias });
            }
            if matches!(self.peek(), TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let table = self.expect_ident("table name")?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.expect_ident("alias")?)
                } else {
                    None
                };
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push(OrderItem { expr, alias, asc });
                if matches!(self.peek(), TokenKind::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.advance() {
                TokenKind::Int(n) if n >= 0 => Some(n as u64),
                _ => return Err(self.err("expected LIMIT count")),
            }
        } else {
            None
        };
        Ok(SelectStmt { projection, table, where_clause, order_by, limit })
    }

    fn parse_update(&mut self) -> Result<UpdateStmt> {
        self.expect_kw("UPDATE")?;
        let table = self.expect_ident("table name")?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.expect_ident("column name")?;
            self.expect(&TokenKind::Eq, "=")?;
            assignments.push((col, self.parse_literal()?));
            if matches!(self.peek(), TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(UpdateStmt { table, assignments, where_clause })
    }

    fn parse_delete(&mut self) -> Result<DeleteStmt> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.expect_ident("table name")?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(DeleteStmt { table, where_clause })
    }

    // ----------------------------------------------------------- expressions

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.peek_kw("OR") {
            self.advance();
            let rhs = self.parse_and()?;
            lhs = Expr::binary(BinaryOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        // BETWEEN's bound-separating AND never reaches this level: it is
        // consumed inside parse_comparison before control returns here.
        let mut lhs = self.parse_not()?;
        while self.peek_kw("AND") {
            self.advance();
            let rhs = self.parse_not()?;
            lhs = Expr::binary(BinaryOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.peek_kw("NOT") && !self.peek_next_kw("BETWEEN") && !self.peek_next_kw("IN") {
            self.advance();
            return Ok(Expr::Not(Box::new(self.parse_not()?)));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let lhs = self.parse_primary()?;

        // Postfix predicates: BETWEEN / IN / REGEXP / LIKE-adjacent.
        let negated = if self.peek_kw("NOT")
            && (self.peek_next_kw("BETWEEN") || self.peek_next_kw("IN"))
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw("BETWEEN") {
            let lo = self.parse_primary()?;
            self.expect_kw("AND")?;
            let hi = self.parse_primary()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect(&TokenKind::LParen, "(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_primary()?);
                if matches!(self.peek(), TokenKind::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, ")")?;
            return Ok(Expr::InList { expr: Box::new(lhs), list, negated });
        }
        if negated {
            return Err(self.err("expected BETWEEN or IN after NOT"));
        }
        if self.eat_kw("REGEXP") || self.eat_kw("MATCH") {
            match self.advance() {
                TokenKind::Str(pat) => {
                    return Ok(Expr::Regexp { expr: Box::new(lhs), pattern: pat })
                }
                _ => return Err(self.err("expected regex pattern string")),
            }
        }

        let op = match self.peek() {
            TokenKind::Eq => Some(BinaryOp::Eq),
            TokenKind::Ne => Some(BinaryOp::Ne),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::Le => Some(BinaryOp::Le),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::Ge => Some(BinaryOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let rhs = self.parse_primary()?;
            return Ok(Expr::binary(op, lhs, rhs));
        }
        Ok(lhs)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen, ")")?;
                Ok(e)
            }
            TokenKind::LBracket => Ok(Expr::Literal(self.parse_array_literal()?)),
            TokenKind::Int(v) => {
                self.advance();
                Ok(Expr::Literal(Lit::Int(v)))
            }
            TokenKind::Float(v) => {
                self.advance();
                Ok(Expr::Literal(Lit::Float(v)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Lit::Str(s)))
            }
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("NULL") {
                    self.advance();
                    return Ok(Expr::Literal(Lit::Null));
                }
                self.advance();
                if matches!(self.peek(), TokenKind::LParen) {
                    self.advance();
                    let mut args = Vec::new();
                    if matches!(self.peek(), TokenKind::Star) {
                        // `count(*)` — equivalent to the zero-argument form.
                        self.advance();
                    } else if !matches!(self.peek(), TokenKind::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if matches!(self.peek(), TokenKind::Comma) {
                                self.advance();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen, ")")?;
                    Ok(Expr::FuncCall { name, args })
                } else {
                    Ok(Expr::Column(name))
                }
            }
            _ => Err(self.err("expected expression")),
        }
    }

    fn parse_literal(&mut self) -> Result<Lit> {
        match self.peek() {
            TokenKind::LBracket => return self.parse_array_literal(),
            TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str(_) => {}
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("NULL") => {}
            _ => return Err(self.err("expected literal")),
        }
        // The token moves into the literal; only NULL is left.
        Ok(match self.advance() {
            TokenKind::Int(v) => Lit::Int(v),
            TokenKind::Float(v) => Lit::Float(v),
            TokenKind::Str(s) => Lit::Str(s),
            _ => Lit::Null,
        })
    }

    fn parse_array_literal(&mut self) -> Result<Lit> {
        self.expect(&TokenKind::LBracket, "[")?;
        let mut out = Vec::with_capacity(self.array_len);
        while !matches!(self.peek(), TokenKind::RBracket) {
            match self.advance() {
                TokenKind::Int(v) => out.push(v as f64),
                TokenKind::Float(v) => out.push(v),
                _ => return Err(self.err("expected number in array literal")),
            }
            if matches!(self.peek(), TokenKind::Comma) {
                self.advance();
            }
        }
        self.expect(&TokenKind::RBracket, "]")?;
        self.array_len = out.len();
        Ok(Lit::Array(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(sql: &str) -> Statement {
        parse_statement(sql).unwrap()
    }

    #[test]
    fn example1_create_table() {
        let sql = "
            CREATE TABLE images (
              id UInt64,
              label String,
              published_time DateTime,
              embedding Array(Float32),
              INDEX ann_idx embedding TYPE HNSW('DIM=960')
            )
            ORDER BY published_time
            PARTITION BY (toYYYYMMDD(published_time), label)
            CLUSTER BY embedding INTO 512 BUCKETS;
        ";
        let Statement::CreateTable(ct) = parse(sql) else { panic!("not create") };
        assert_eq!(ct.name, "images");
        assert_eq!(ct.columns.len(), 4);
        assert_eq!(ct.columns[3], ("embedding".into(), "Array(Float32)".into()));
        assert_eq!(ct.indexes.len(), 1);
        assert_eq!(ct.indexes[0].index_type, "HNSW");
        assert_eq!(ct.indexes[0].params, vec!["DIM=960".to_string()]);
        assert_eq!(ct.order_by, vec!["published_time".to_string()]);
        assert_eq!(ct.partition_by.len(), 2);
        assert_eq!(ct.partition_by[0].func.as_deref(), Some("toYYYYMMDD"));
        assert_eq!(ct.partition_by[0].column, "published_time");
        assert_eq!(ct.partition_by[1].column, "label");
        assert_eq!(ct.cluster_by, Some(("embedding".into(), 512)));
    }

    #[test]
    fn example1_select() {
        let sql = "
            SELECT id, dist, published_time FROM images
            WHERE label = 'animal'
            AND published_time >= '2024-10-10 10:00:00'
            ORDER BY L2Distance(embedding, [0.1, 0.2]) AS dist
            LIMIT 100;
        ";
        let Statement::Select(sel) = parse(sql) else { panic!("not select") };
        assert_eq!(sel.table, "images");
        assert_eq!(sel.projection.len(), 3);
        assert_eq!(sel.limit, Some(100));
        assert_eq!(sel.order_by.len(), 1);
        assert_eq!(sel.order_by[0].alias.as_deref(), Some("dist"));
        assert!(sel.order_by[0].asc);
        let (fname, args) = sel.order_by[0].expr.as_distance_call().unwrap();
        assert_eq!(fname, "L2Distance");
        assert_eq!(args[0], Expr::col("embedding"));
        assert_eq!(args[1], Expr::lit(Lit::Array(vec![0.1, 0.2])));
        // WHERE is an AND of two comparisons.
        match sel.where_clause.unwrap() {
            Expr::Binary { op: BinaryOp::And, lhs, rhs } => {
                assert!(matches!(*lhs, Expr::Binary { op: BinaryOp::Eq, .. }));
                assert!(matches!(*rhs, Expr::Binary { op: BinaryOp::Ge, .. }));
            }
            other => panic!("unexpected where: {other:?}"),
        }
    }

    #[test]
    fn insert_values_and_csv() {
        let Statement::Insert(ins) =
            parse("INSERT INTO t VALUES (1, 'a', [1.0, 2.0]), (2, 'b', [3, 4])")
        else {
            panic!()
        };
        match ins {
            InsertStmt::Values { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][2], Lit::Array(vec![1.0, 2.0]));
                assert_eq!(rows[1][2], Lit::Array(vec![3.0, 4.0]));
            }
            _ => panic!("expected VALUES"),
        }
        let Statement::Insert(InsertStmt::CsvFile { table, path }) =
            parse("INSERT INTO images CSV INFILE 'img_data.csv';")
        else {
            panic!()
        };
        assert_eq!(table, "images");
        assert_eq!(path, "img_data.csv");
    }

    #[test]
    fn between_in_regexp() {
        let Statement::Select(sel) = parse(
            "SELECT * FROM t WHERE x BETWEEN 1 AND 10 AND label IN ('a','b') \
             AND caption REGEXP '^[0-9]' AND y NOT BETWEEN 5 AND 6",
        ) else {
            panic!()
        };
        let w = sel.where_clause.unwrap();
        // Flatten: ((x BETWEEN …) AND (label IN …)) AND (caption REGEXP …) AND …
        fn count_kinds(e: &Expr, between: &mut usize, inlist: &mut usize, regex: &mut usize) {
            match e {
                Expr::Binary { lhs, rhs, .. } => {
                    count_kinds(lhs, between, inlist, regex);
                    count_kinds(rhs, between, inlist, regex);
                }
                Expr::Between { .. } => *between += 1,
                Expr::InList { .. } => *inlist += 1,
                Expr::Regexp { .. } => *regex += 1,
                _ => {}
            }
        }
        let (mut b, mut i, mut r) = (0, 0, 0);
        count_kinds(&w, &mut b, &mut i, &mut r);
        assert_eq!((b, i, r), (2, 1, 1));
    }

    #[test]
    fn or_binds_looser_than_and() {
        let Statement::Select(sel) = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        else {
            panic!()
        };
        match sel.where_clause.unwrap() {
            Expr::Binary { op: BinaryOp::Or, rhs, .. } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinaryOp::And, .. }));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn not_and_parens() {
        let Statement::Select(sel) =
            parse("SELECT * FROM t WHERE NOT (a = 1 OR b = 2) AND c != 3")
        else {
            panic!()
        };
        match sel.where_clause.unwrap() {
            Expr::Binary { op: BinaryOp::And, lhs, .. } => {
                assert!(matches!(*lhs, Expr::Not(_)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        let Statement::Update(u) = parse("UPDATE t SET score = 0.5, label = 'x' WHERE id = 7")
        else {
            panic!()
        };
        assert_eq!(u.table, "t");
        assert_eq!(u.assignments.len(), 2);
        assert_eq!(u.assignments[0], ("score".into(), Lit::Float(0.5)));
        assert!(u.where_clause.is_some());

        let Statement::Delete(d) = parse("DELETE FROM t") else { panic!() };
        assert_eq!(d.table, "t");
        assert!(d.where_clause.is_none());
    }

    #[test]
    fn distance_range_in_where() {
        let Statement::Select(sel) =
            parse("SELECT id FROM t WHERE L2Distance(emb, [1.0]) < 0.5 LIMIT 5")
        else {
            panic!()
        };
        match sel.where_clause.unwrap() {
            Expr::Binary { op: BinaryOp::Lt, lhs, .. } => {
                assert!(lhs.as_distance_call().is_some());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn select_star_and_desc() {
        let Statement::Select(sel) = parse("SELECT * FROM t ORDER BY score DESC LIMIT 3") else {
            panic!()
        };
        assert_eq!(sel.projection, vec![SelectItem::Star]);
        assert!(!sel.order_by[0].asc);
    }

    #[test]
    fn parse_errors_carry_position() {
        for bad in [
            "SELECT FROM t",
            "CREATE TABLE",
            "INSERT INTO t VALUES",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t LIMIT 'x'",
            "CREATE TABLE t (a UInt64) CLUSTER BY a INTO 0 BUCKETS",
            "DROP TABLE t",
            "SELECT * FROM t; extra",
        ] {
            let err = parse_statement(bad).unwrap_err();
            assert!(matches!(err, BhError::Parse(_)), "{bad} gave {err:?}");
        }
    }

    #[test]
    fn empty_array_literal() {
        let Statement::Insert(InsertStmt::Values { rows, .. }) =
            parse("INSERT INTO t VALUES ([])")
        else {
            panic!()
        };
        assert_eq!(rows[0][0], Lit::Array(vec![]));
    }

    #[test]
    fn explain_select() {
        let Statement::Explain(sel) = parse("EXPLAIN SELECT id FROM t LIMIT 3") else {
            panic!("not explain")
        };
        assert_eq!(sel.table, "t");
        assert_eq!(sel.limit, Some(3));
        assert!(parse_statement("EXPLAIN INSERT INTO t VALUES (1)").is_err());
    }

    #[test]
    fn explain_analyze_select() {
        let Statement::ExplainAnalyze(sel) =
            parse("EXPLAIN ANALYZE SELECT id FROM t ORDER BY id LIMIT 5")
        else {
            panic!("not explain analyze")
        };
        assert_eq!(sel.table, "t");
        assert_eq!(sel.limit, Some(5));
        // Case-insensitive, like every other keyword.
        assert!(matches!(
            parse("explain analyze select id from t"),
            Statement::ExplainAnalyze(_)
        ));
        assert!(parse_statement("EXPLAIN ANALYZE INSERT INTO t VALUES (1)").is_err());
    }

    #[test]
    fn system_metrics_statement() {
        assert!(matches!(parse("SYSTEM METRICS"), Statement::SystemMetrics));
        assert!(matches!(parse("system metrics;"), Statement::SystemMetrics));
        assert!(parse_statement("SYSTEM").is_err());
        assert!(parse_statement("SYSTEM FLUSH").is_err());
    }

    #[test]
    fn system_trace_export_statement() {
        assert!(matches!(parse("SYSTEM TRACE EXPORT"), Statement::SystemTraceExport));
        assert!(matches!(parse("system trace export;"), Statement::SystemTraceExport));
        assert!(parse_statement("SYSTEM TRACE").is_err());
        assert!(parse_statement("SYSTEM TRACE DUMP").is_err());
    }

    #[test]
    fn qualified_system_table_names_parse() {
        // The lexer treats `system.query_log` as one dotted identifier, so
        // system-table scans ride the ordinary SELECT grammar.
        let Statement::Select(sel) =
            parse("SELECT * FROM system.query_log ORDER BY duration_ns DESC LIMIT 5")
        else {
            panic!()
        };
        assert_eq!(sel.table, "system.query_log");
        assert_eq!(sel.limit, Some(5));
        assert_eq!(sel.order_by.len(), 1);
        assert!(!sel.order_by[0].asc);
    }

    #[test]
    fn count_star_parses_as_zero_arg_call() {
        let Statement::Select(sel) = parse("SELECT count(*) FROM system.metrics") else {
            panic!()
        };
        let SelectItem::Expr { expr: Expr::FuncCall { name, args }, alias: None } =
            &sel.projection[0]
        else {
            panic!("expected func call, got {:?}", sel.projection[0])
        };
        assert_eq!(name, "count");
        assert!(args.is_empty());
        // Star only folds away as a whole argument list, not mid-list.
        assert!(parse_statement("SELECT count(*, x) FROM t").is_err());
    }

    #[test]
    fn null_literals() {
        let Statement::Insert(InsertStmt::Values { rows, .. }) =
            parse("INSERT INTO t VALUES (NULL, null)")
        else {
            panic!()
        };
        assert_eq!(rows[0], vec![Lit::Null, Lit::Null]);
    }

    /// The parser reads tokens as it goes, yet reports what it reported
    /// when the text was tokenized whole first: a lexing error anywhere
    /// wins over a parse error before it, and parse errors keep their byte
    /// positions.
    #[test]
    fn lexing_errors_win_wherever_they_are() {
        for (sql, msg) in [
            ("SELEC x FROM t WHERE a ? 1", "unexpected character '?' at byte 23"),
            ("INSERT INTO t VALUES (1, [1.0]) garbage 'open", "unterminated string at byte 40"),
            ("SELECT * FROM t LIMIT 99999999999999999999", "bad integer 99999999999999999999"),
            ("INSERT INTO t VALUES (1, [1.0, x])", "array literal at byte 32 (near RBracket)"),
            ("SELECT * FROM t WHERE a NOT LIKE 1", "trailing input after statement at byte 24"),
            ("SELECT * FROM t;;  x", "trailing input after statement at byte 19 (near Ident"),
        ] {
            let err = parse_statement(sql).unwrap_err().to_string();
            assert!(err.contains(msg), "{sql}: {err}");
        }
    }

    proptest::proptest! {
        /// A vector written the way every generator in the tree writes one
        /// (`{:?}` of each `f32`) comes back with the same bits: numbers are
        /// parsed from the statement text by `str::parse`, nothing in between.
        #[test]
        fn vector_literals_round_trip_bit_for_bit(
            bits in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..48),
        ) {
            let v: Vec<f32> =
                bits.into_iter().map(f32::from_bits).filter(|x| x.is_finite()).collect();
            let text: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
            let sql = format!("INSERT INTO t VALUES (7, [{}])", text.join(", "));
            let Statement::Insert(InsertStmt::Values { rows, .. }) = parse(&sql) else { panic!() };
            let Lit::Array(back) = &rows[0][1] else { panic!("not an array: {:?}", rows[0][1]) };
            let back: Vec<u32> = back.iter().map(|&x| (x as f32).to_bits()).collect();
            let sent: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
            proptest::prop_assert_eq!(back, sent);
        }
    }
}
