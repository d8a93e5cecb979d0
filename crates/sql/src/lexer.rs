//! SQL tokenizer.
//!
//! Produces a token stream with byte positions for error messages. Keywords
//! are recognized case-insensitively at parse time (the lexer only emits
//! `Ident`), matching ClickHouse/ByteHouse behaviour where identifiers and
//! keywords share a namespace.

use bh_common::{BhError, Result};

/// One token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Byte offset in the source text (for error messages).
    pub pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // punctuation/operator variants are self-describing
pub enum TokenKind {
    /// Bare identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string, quotes stripped, `''` unescaped.
    Str(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Semicolon,
    Star,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Eof,
}

impl TokenKind {
    /// Keyword / identifier text, if this is an identifier token.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

/// Tokenize a statement. The text is scanned as bytes and never copied as a
/// whole: numbers are parsed from their slice of the input, and every
/// delimiter is ASCII, so multi-byte UTF-8 passes through strings (and
/// alphabetic identifiers) intact.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    // The character starting at byte `i` — only consulted off the ASCII
    // fast paths, where `i` is always on a character boundary.
    let char_at = |i: usize| input[i..].chars().next().unwrap_or('\0');
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let pos = i;
        let mut push = |kind: TokenKind, len: usize| {
            out.push(Token { kind, pos });
            pos + len
        };
        let next = bytes.get(i + 1).copied();
        i = match bytes[i] {
            b'-' if next == Some(b'-') => {
                // Line comment.
                bytes[i..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |n| i + n)
            }
            b'(' => push(TokenKind::LParen, 1),
            b')' => push(TokenKind::RParen, 1),
            b'[' => push(TokenKind::LBracket, 1),
            b']' => push(TokenKind::RBracket, 1),
            b',' => push(TokenKind::Comma, 1),
            b';' => push(TokenKind::Semicolon, 1),
            b'*' => push(TokenKind::Star, 1),
            b'=' => push(TokenKind::Eq, if next == Some(b'=') { 2 } else { 1 }),
            b'!' if next == Some(b'=') => push(TokenKind::Ne, 2),
            b'<' => match next {
                Some(b'=') => push(TokenKind::Le, 2),
                Some(b'>') => push(TokenKind::Ne, 2),
                _ => push(TokenKind::Lt, 1),
            },
            b'>' => match next {
                Some(b'=') => push(TokenKind::Ge, 2),
                _ => push(TokenKind::Gt, 1),
            },
            b'\'' => {
                // Copy the runs between quotes; `''` is an escaped quote.
                let mut s = String::new();
                let mut run = i + 1;
                loop {
                    let Some(n) = bytes[run..].iter().position(|&b| b == b'\'') else {
                        return Err(BhError::Parse(format!("unterminated string at byte {pos}")));
                    };
                    s.push_str(&input[run..run + n]);
                    run += n + 1;
                    if bytes.get(run) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    run += 1;
                }
                push(TokenKind::Str(s), run - pos)
            }
            c if c.is_ascii_digit() || (c == b'-' && next.is_some_and(|d| d.is_ascii_digit())) => {
                let mut end = i + 1;
                let mut is_float = false;
                while let Some(&b) = bytes.get(end) {
                    match b {
                        b'0'..=b'9' => {}
                        b'.' | b'e' | b'E' => is_float = true,
                        b'+' | b'-' if matches!(bytes[end - 1], b'e' | b'E') => {}
                        _ => break,
                    }
                    end += 1;
                }
                let text = &input[i..end];
                let kind = if is_float {
                    TokenKind::Float(match fast_float(text) {
                        Some(v) => v,
                        None => text
                            .parse::<f64>()
                            .map_err(|_| BhError::Parse(format!("bad float {text} at {pos}")))?,
                    })
                } else {
                    TokenKind::Int(
                        text.parse::<i64>()
                            .map_err(|_| BhError::Parse(format!("bad integer {text} at {pos}")))?,
                    )
                };
                push(kind, end - pos)
            }
            _ => {
                // Whitespace, an identifier, or a character with no meaning.
                let first = if bytes[i].is_ascii() { bytes[i] as char } else { char_at(i) };
                if first.is_whitespace() {
                    i + first.len_utf8()
                } else if first.is_alphabetic() || first == '_' {
                    let mut end = i + first.len_utf8();
                    while end < bytes.len() {
                        let c =
                            if bytes[end].is_ascii() { bytes[end] as char } else { char_at(end) };
                        if !(c.is_alphanumeric() || c == '_' || c == '.') {
                            break;
                        }
                        end += c.len_utf8();
                    }
                    push(TokenKind::Ident(input[i..end].to_string()), end - pos)
                } else {
                    return Err(BhError::Parse(format!(
                        "unexpected character '{first}' at byte {pos}"
                    )));
                }
            }
        };
    }
    out.push(Token { kind: TokenKind::Eof, pos: bytes.len() });
    Ok(out)
}

/// Clinger's fast path for a float token (`-`? digits `.` digits, then an
/// optional exponent): when the decimal mantissa is below 2^53 and the
/// power of ten is at most 22 in magnitude, both are exact `f64`s, so one
/// multiply or divide rounds once to the nearest `f64` of the exact value —
/// the value `str::parse::<f64>` returns, bit for bit. `None` for every
/// other token, which the caller hands to `str::parse`.
#[inline]
fn fast_float(text: &str) -> Option<f64> {
    const POW10: [f64; 23] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
        1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
    ];
    let b = text.as_bytes();
    let negative = b.first() == Some(&b'-');
    let mut i = usize::from(negative);
    let (mut mantissa, mut digits, mut frac_digits, mut dot) = (0u64, 0, 0i32, false);
    while let Some(&c) = b.get(i) {
        match c {
            b'0'..=b'9' => {
                // 19 digits cannot overflow a u64; more leave the fast path.
                mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
                digits += 1;
                frac_digits += i32::from(dot);
            }
            b'.' if !dot => dot = true,
            _ => break,
        }
        i += 1;
    }
    if digits == 0 || digits > 19 || mantissa >= 1 << 53 {
        return None;
    }
    let mut exp = 0i32;
    if let Some(&c) = b.get(i) {
        if !matches!(c, b'e' | b'E') {
            return None;
        }
        i += 1;
        let exp_negative = b.get(i) == Some(&b'-');
        i += usize::from(matches!(b.get(i), Some(b'-' | b'+')));
        let exp_digits = &b[i..];
        // Four digits are far outside the fast range: leave them to `parse`.
        if exp_digits.is_empty() || exp_digits.len() > 3 {
            return None;
        }
        for &c in exp_digits {
            if !c.is_ascii_digit() {
                return None;
            }
            exp = exp * 10 + i32::from(c - b'0');
        }
        if exp_negative {
            exp = -exp;
        }
    }
    let e = exp - frac_digits;
    let m = mantissa as f64;
    let v = if e >= 0 {
        m * POW10.get(e as usize)?
    } else {
        m / POW10.get(e.unsigned_abs() as usize)?
    };
    Some(if negative { -v } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("SELECT * FROM t;"),
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Star,
                TokenKind::Ident("FROM".into()),
                TokenKind::Ident("t".into()),
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("1 2.5 -3 1e3"),
            vec![
                TokenKind::Int(1),
                TokenKind::Float(2.5),
                TokenKind::Int(-3),
                TokenKind::Float(1000.0),
                TokenKind::Eof
            ]
        );
        assert_eq!(kinds("[-1.5, 2]")[1], TokenKind::Float(-1.5));
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds("'hello' 'it''s'"),
            vec![
                TokenKind::Str("hello".into()),
                TokenKind::Str("it's".into()),
                TokenKind::Eof
            ]
        );
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("a >= 1 AND b != 2 OR c <> 3 AND d <= 4"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ge,
                TokenKind::Int(1),
                TokenKind::Ident("AND".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ne,
                TokenKind::Int(2),
                TokenKind::Ident("OR".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Ne,
                TokenKind::Int(3),
                TokenKind::Ident("AND".into()),
                TokenKind::Ident("d".into()),
                TokenKind::Le,
                TokenKind::Int(4),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("SELECT -- a comment\n 1"),
            vec![TokenKind::Ident("SELECT".into()), TokenKind::Int(1), TokenKind::Eof]
        );
    }

    #[test]
    fn datetime_strings_pass_through() {
        let k = kinds("'2024-10-10 10:00:00'");
        assert_eq!(k[0], TokenKind::Str("2024-10-10 10:00:00".into()));
    }

    #[test]
    fn unexpected_char_errors_with_position() {
        let err = tokenize("a ? b").unwrap_err();
        assert!(err.to_string().contains("'?'"));
        assert!(err.to_string().contains("2"));
    }

    #[test]
    fn dotted_identifiers() {
        assert_eq!(kinds("db.table")[0], TokenKind::Ident("db.table".into()));
    }

    #[test]
    fn positions_are_byte_offsets_and_utf8_survives() {
        // 'é' and '…' are 2 and 3 bytes; NBSP and VT are whitespace.
        let sql = "'né…' ключ\u{a0}=\u{b}'it''s ü' ?";
        let err = tokenize(sql).unwrap_err().to_string();
        assert!(err.contains("'?'") && err.contains(&format!("byte {}", sql.len() - 1)), "{err}");
        let toks = tokenize(&sql[..sql.len() - 2]).unwrap();
        let got: Vec<(TokenKind, usize)> = toks.into_iter().map(|t| (t.kind, t.pos)).collect();
        assert_eq!(
            got,
            vec![
                (TokenKind::Str("né…".into()), 0),
                (TokenKind::Ident("ключ".into()), 9),
                (TokenKind::Eq, 19),
                (TokenKind::Str("it's ü".into()), 21),
                (TokenKind::Eof, 31),
            ]
        );
        assert!(tokenize("a € b").unwrap_err().to_string().contains("'€' at byte 2"));
    }

    #[test]
    fn number_errors_keep_their_text() {
        for (sql, msg) in [
            ("x = 99999999999999999999", "bad integer 99999999999999999999 at 4"),
            ("[1.2.3]", "bad float 1.2.3 at 1"),
            ("1e", "bad float 1e at 0"),
            ("-1e+", "bad float -1e+ at 0"),
        ] {
            assert!(tokenize(sql).unwrap_err().to_string().contains(msg), "{sql}");
        }
        assert_eq!(kinds("1e-3 -2E+2 7.")[..3], [
            TokenKind::Float(0.001),
            TokenKind::Float(-200.0),
            TokenKind::Float(7.0)
        ]);
        // A sign binds to a number only directly before a digit.
        assert!(tokenize("- 1").is_err());
        assert_eq!(kinds("1-2"), vec![TokenKind::Int(1), TokenKind::Int(-2), TokenKind::Eof]);
    }

    /// The bits `tokenize` gives a float token, beside `str::parse`'s.
    fn float_bits(text: &str) -> (u64, u64) {
        let want = text.parse::<f64>().unwrap().to_bits();
        match &kinds(text)[..] {
            [TokenKind::Float(v), TokenKind::Eof] => (v.to_bits(), want),
            other => panic!("{text}: {other:?}"),
        }
    }

    #[test]
    fn floats_at_the_edges_of_the_fast_path_match_str_parse() {
        for text in [
            "-0.0", "0.0", "0.1", "7.", "1e22", "1e23", "1e-22", "1e-23", "9007199254740991.0",
            "9007199254740992.0", "9007199254740993.0", "123456789012345678901.5", "4.9e-324",
            "2.2250738585072011e-308", "1e309", "-1e309", "1.7976931348623157e308", "0.000000001e0",
            "1E+022", "1e0022", "0.30000000000000004", "-123.456e-7",
        ] {
            let (got, want) = float_bits(text);
            assert_eq!(got, want, "{text}");
        }
    }

    proptest::proptest! {
        /// Every float token equals `str::parse::<f64>` bit for bit: 1–20
        /// digit mantissas (so both sides of 2^53), a dot anywhere, and
        /// exponents around ±22 / ±23 or reaching subnormals and overflow.
        #[test]
        fn prop_float_tokens_parse_like_std(
            mantissa in proptest::prelude::any::<u64>(),
            digits in 1usize..=20,
            dot in 0usize..=20,
            exp in proptest::prop_oneof![-25i32..=25, -345i32..=-290, 290i32..=320],
            with_exp in proptest::prelude::any::<bool>(),
            negative in proptest::prelude::any::<bool>(),
        ) {
            let all = format!("{mantissa:020}");
            let digits = &all[20 - digits..];
            let dot = dot.min(digits.len());
            let sign = if negative { "-" } else { "" };
            let mut text = format!("{sign}{}.{}", &digits[..dot], &digits[dot..]);
            if dot == 0 {
                text = format!("{sign}0{}", &text[sign.len()..]);
            }
            if with_exp {
                text.push_str(&format!("e{exp}"));
            }
            let (got, want) = float_bits(&text);
            proptest::prop_assert_eq!(got, want, "{}", text);
        }
    }
}
