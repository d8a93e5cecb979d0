//! SQL tokenizer.
//!
//! [`Lexer`] hands out tokens one at a time, with byte positions for error
//! messages, as the parser consumes them. Keywords are recognized
//! case-insensitively at parse time (the lexer only emits `Ident`),
//! matching ClickHouse/ByteHouse behaviour where identifiers and keywords
//! share a namespace.

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
    /// Integer literal: any `Int64` or `UInt64` value, so `i64::MIN ..=
    /// u64::MAX`.
    Int(i128),
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

/// A statement's tokens, one at a time, for a parser that holds only the
/// few it looks at. The text is scanned as bytes and never copied as a
/// whole: numbers are parsed from their slice of the input, and every
/// delimiter is ASCII, so multi-byte UTF-8 passes through strings (and
/// alphabetic identifiers) intact.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next character to scan.
    at: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Lexer<'a> {
        Lexer { input, at: 0 }
    }

    /// The next token: `Eof` at the end of the input, and again on every
    /// later call. An error leaves the lexer where it was.
    #[inline(always)]
    pub fn next_token(&mut self) -> Result<Token> {
        let (input, bytes) = (self.input, self.input.as_bytes());
        // The character starting at byte `i` — only consulted off the ASCII
        // fast paths, where `i` is always on a character boundary.
        let char_at = |i: usize| input[i..].chars().next().unwrap_or('\0');
        let mut i = self.at;
        while i < bytes.len() {
            let pos = i;
            let next = bytes.get(i + 1).copied();
            let digit = |d: u8| d.is_ascii_digit();
            let token = |kind: TokenKind, len: usize| (Token { kind, pos }, pos + len);
            let (token, end) = match bytes[i] {
                b'-' if next == Some(b'-') => {
                    // Line comment.
                    i = bytes[i..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |n| i + n);
                    continue;
                }
                b'(' => token(TokenKind::LParen, 1),
                b')' => token(TokenKind::RParen, 1),
                b'[' => token(TokenKind::LBracket, 1),
                b']' => token(TokenKind::RBracket, 1),
                b',' => token(TokenKind::Comma, 1),
                b';' => token(TokenKind::Semicolon, 1),
                b'*' => token(TokenKind::Star, 1),
                b'=' => token(TokenKind::Eq, if next == Some(b'=') { 2 } else { 1 }),
                b'!' if next == Some(b'=') => token(TokenKind::Ne, 2),
                b'<' => match next {
                    Some(b'=') => token(TokenKind::Le, 2),
                    Some(b'>') => token(TokenKind::Ne, 2),
                    _ => token(TokenKind::Lt, 1),
                },
                b'>' => match next {
                    Some(b'=') => token(TokenKind::Ge, 2),
                    _ => token(TokenKind::Gt, 1),
                },
                b'\'' => {
                    // Copy the runs between quotes; `''` is an escaped quote.
                    let mut s = String::new();
                    let mut run = i + 1;
                    loop {
                        let Some(n) = bytes[run..].iter().position(|&b| b == b'\'') else {
                            let msg = format!("unterminated string at byte {pos}");
                            return Err(BhError::Parse(msg));
                        };
                        s.push_str(&input[run..run + n]);
                        run += n + 1;
                        if bytes.get(run) != Some(&b'\'') {
                            break;
                        }
                        s.push('\'');
                        run += 1;
                    }
                    token(TokenKind::Str(s), run - pos)
                }
                c if c.is_ascii_digit() || (c == b'-' && next.is_some_and(digit)) => {
                    let (kind, end) = lex_number(input, i)?;
                    token(kind, end - pos)
                }
                b' ' | b'\t' | b'\n' | b'\r' => {
                    i += 1;
                    continue;
                }
                _ => {
                    // Whitespace, an identifier, or a character with no meaning.
                    let first = if bytes[i].is_ascii() { bytes[i] as char } else { char_at(i) };
                    if first.is_whitespace() {
                        i += first.len_utf8();
                        continue;
                    }
                    if !(first.is_alphabetic() || first == '_') {
                        return Err(BhError::Parse(format!(
                            "unexpected character '{first}' at byte {pos}"
                        )));
                    }
                    let mut end = i + first.len_utf8();
                    while end < bytes.len() {
                        let c =
                            if bytes[end].is_ascii() { bytes[end] as char } else { char_at(end) };
                        if !(c.is_alphanumeric() || c == '_' || c == '.') {
                            break;
                        }
                        end += c.len_utf8();
                    }
                    token(TokenKind::Ident(input[i..end].to_string()), end - pos)
                }
            };
            self.at = end;
            return Ok(token);
        }
        self.at = bytes.len();
        Ok(Token { kind: TokenKind::Eof, pos: bytes.len() })
    }
}

/// The number token starting at byte `start` and the byte after it. The
/// token runs over digits, `.`, `e` / `E` and a sign right after an
/// exponent mark; a `.` or an exponent makes it a float with the value
/// `str::parse::<f64>` gives its text, else an `i64`.
///
/// A number of the usual shape — digits, an optional dot and digits, an
/// optional exponent of one to three digits — is valued in the pass that
/// finds its end. The mantissa accumulates eight digits at a time where it
/// can ([`eight_digits`]), one at a time elsewhere. Then Clinger's fast
/// path: when the mantissa is below 2^53 and the power of ten is at most 22
/// in magnitude, both are exact `f64`s, so one multiply or divide rounds
/// once, to the value `str::parse::<f64>` returns, bit for bit. Every other
/// token — more significant digits, a larger exponent, a malformed one —
/// goes to `str::parse` on its text, so every error keeps its text.
#[inline]
fn lex_number(input: &str, start: usize) -> Result<(TokenKind, usize)> {
    const POW10: [f64; 23] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
        1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
    ];
    let b = input.as_bytes();
    let negative = b[start] == b'-';
    let mut end = start + usize::from(negative);
    let mut mantissa = 0u64;
    // Digits from `end` on, into the mantissa; it wraps past 19 digits, and
    // such a token leaves the fast path.
    let digits_into = |end: &mut usize, mantissa: &mut u64| {
        let from = *end;
        while let Some(eight) = b.get(*end..*end + 8).and_then(eight_digits) {
            *mantissa = mantissa.wrapping_mul(100_000_000).wrapping_add(eight);
            *end += 8;
        }
        while let Some(&c) = b.get(*end).filter(|c| c.is_ascii_digit()) {
            *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
            *end += 1;
        }
        *end - from
    };
    let mut digits = digits_into(&mut end, &mut mantissa);
    let mut float = false;
    let mut frac_digits = 0;
    if b.get(end) == Some(&b'.') {
        end += 1;
        float = true;
        frac_digits = digits_into(&mut end, &mut mantissa);
        digits += frac_digits;
    }
    let mut exp = Some(0i32);
    if matches!(b.get(end), Some(b'e' | b'E')) {
        end += 1;
        float = true;
        let exp_negative = b.get(end) == Some(&b'-');
        end += usize::from(matches!(b.get(end), Some(b'-' | b'+')));
        let mut value = 0u64;
        let len = digits_into(&mut end, &mut value);
        // Four digits are far outside the fast range: leave them to `parse`.
        exp = (1..=3).contains(&len).then(|| {
            let value = value as i32;
            if exp_negative {
                -value
            } else {
                value
            }
        });
    }
    // A second dot or exponent mark: the rest of the token by the general
    // rule, and its text to `str::parse`.
    if matches!(b.get(end), Some(b'.' | b'e' | b'E')) {
        exp = None;
        while let Some(&c) = b.get(end) {
            match c {
                b'0'..=b'9' | b'.' | b'e' | b'E' => {}
                b'+' | b'-' if matches!(b[end - 1], b'e' | b'E') => {}
                _ => break,
            }
            end += 1;
        }
    }
    let text = || &input[start..end];
    if !float {
        let text = text();
        let v = text
            .parse::<i128>()
            .ok()
            .filter(|v| (i128::from(i64::MIN)..=i128::from(u64::MAX)).contains(v))
            .ok_or_else(|| BhError::Parse(format!("bad integer {text} at {start}")))?;
        return Ok((TokenKind::Int(v), end));
    }
    let fast = exp.filter(|_| digits <= 19 && mantissa < 1 << 53).and_then(|exp| {
        let e = exp - frac_digits as i32;
        let m = mantissa as f64;
        let v = if e >= 0 {
            m * POW10.get(e as usize)?
        } else {
            m / POW10.get(e.unsigned_abs() as usize)?
        };
        Some(if negative { -v } else { v })
    });
    let v = match fast {
        Some(v) => v,
        None => {
            let text = text();
            text.parse::<f64>().map_err(|_| BhError::Parse(format!("bad float {text} at {start}")))?
        }
    };
    Ok((TokenKind::Float(v), end))
}

/// The value of eight ASCII digits, or `None` if any byte is not one: all
/// eight at once in a `u64` (SWAR), the same number a digit-by-digit
/// `10 * m + d` gives.
#[inline]
fn eight_digits(bytes: &[u8]) -> Option<u64> {
    let chunk = u64::from_le_bytes(bytes.try_into().ok()?);
    // Every byte in 0x30..=0x39: high nibble 3, and adding 6 keeps it 3.
    const HIGH: u64 = 0xF0F0_F0F0_F0F0_F0F0;
    let threes = 0x3030_3030_3030_3030;
    if chunk & HIGH != threes || chunk.wrapping_add(0x0606_0606_0606_0606) & HIGH != threes {
        return None;
    }
    // Pairs, then quads, then the whole: byte 0 is the most significant
    // digit.
    let d = chunk - threes;
    let pairs = (d * 10 + (d >> 8)) & 0x00FF_00FF_00FF_00FF;
    let quads = (pairs * 100 + (pairs >> 16)) & 0x0000_FFFF_0000_FFFF;
    Some((quads * 10_000 + (quads >> 32)) & 0xFFFF_FFFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `input`, `Eof` last.
    fn tokenize(input: &str) -> Result<Vec<Token>> {
        let mut lexer = Lexer::new(input);
        let mut out = Vec::new();
        loop {
            let token = lexer.next_token()?;
            let end = token.kind == TokenKind::Eof;
            out.push(token);
            if end {
                return Ok(out);
            }
        }
    }

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
        // Every UInt64 and Int64 value lexes; the column decides the fit.
        assert_eq!(kinds("18446744073709551615")[0], TokenKind::Int(u64::MAX.into()));
        assert_eq!(kinds("-9223372036854775808")[0], TokenKind::Int(i64::MIN.into()));
        assert!(tokenize("18446744073709551616").is_err());
        assert!(tokenize("-9223372036854775809").is_err());
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
    fn eight_digits_at_once_is_the_digit_loop() {
        for text in ["00000000", "12345678", "99999999", "90000001", "01020304"] {
            assert_eq!(eight_digits(text.as_bytes()), text.parse::<u64>().ok(), "{text}");
        }
        for text in ["1234567a", "/2345678", ":2345678", "1234 678", "1234.678"] {
            assert_eq!(eight_digits(text.as_bytes()), None, "{text}");
        }
        assert_eq!(eight_digits(b"1234567"), None);
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
