//! Offline stand-in for `serde_derive`, written against `proc_macro` alone
//! because `syn`/`quote` are not available without a registry.
//!
//! Supports what the BlendHouse library crates derive on: non-generic
//! structs (named, tuple, unit) and enums (unit, tuple and struct variants),
//! plus the `#[serde(default)]` field attribute. Anything else is a compile
//! error naming the unsupported construct, never a silently wrong impl.
//!
//! Generated code goes through the shim's `Content` tree and produces the
//! JSON shapes of real serde: structs as maps, newtype structs as their
//! inner value, enums externally tagged.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

struct Field {
    /// `None` for tuple fields.
    name: Option<String>,
    default: bool,
}

enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    Struct { name: String, shape: Shape },
    Enum { name: String, variants: Vec<Variant> },
}

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

/// Does this `#[...]` attribute body read `serde(default)`? Any other
/// `serde(...)` attribute is rejected rather than ignored.
fn attr_is_serde_default(g: &Group) -> Result<bool, String> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    match toks.as_slice() {
        [TokenTree::Ident(i), TokenTree::Group(args)] if i.to_string() == "serde" => {
            let inner = args.stream().to_string();
            if inner.trim() == "default" {
                Ok(true)
            } else {
                Err(format!("serde shim: unsupported attribute #[serde({inner})]"))
            }
        }
        _ => Ok(false),
    }
}

/// Consume leading attributes and a visibility; report `#[serde(default)]`.
fn skip_attrs_and_vis(toks: &[TokenTree], mut i: usize) -> Result<(usize, bool), String> {
    let mut default = false;
    loop {
        match toks.get(i) {
            Some(t) if is_punct(t, '#') => {
                if let Some(TokenTree::Group(g)) = toks.get(i + 1) {
                    default |= attr_is_serde_default(g)?;
                    i += 2;
                } else {
                    return Err("serde shim: malformed attribute".into());
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // pub(crate), pub(super), ...
                    }
                }
            }
            _ => return Ok((i, default)),
        }
    }
}

/// Advance past one type (or discriminant expression): up to the next comma
/// outside `<...>`. Bracketed groups are single tokens already.
fn skip_to_comma(toks: &[TokenTree], mut i: usize) -> usize {
    let mut depth = 0i32;
    while let Some(t) = toks.get(i) {
        if is_punct(t, '<') {
            depth += 1;
        } else if is_punct(t, '>') {
            depth -= 1;
        } else if is_punct(t, ',') && depth <= 0 {
            break;
        }
        i += 1;
    }
    i
}

fn parse_named(g: &Group) -> Result<Vec<Field>, String> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let (j, default) = skip_attrs_and_vis(&toks, i)?;
        i = j;
        let Some(TokenTree::Ident(name)) = toks.get(i) else {
            return Err("serde shim: expected a field name".into());
        };
        if !toks.get(i + 1).is_some_and(|t| is_punct(t, ':')) {
            return Err(format!("serde shim: expected ':' after field {name}"));
        }
        fields.push(Field { name: Some(name.to_string()), default });
        i = skip_to_comma(&toks, i + 2) + 1;
    }
    Ok(fields)
}

fn parse_tuple(g: &Group) -> Result<Vec<Field>, String> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let (j, default) = skip_attrs_and_vis(&toks, i)?;
        if j >= toks.len() {
            break;
        }
        fields.push(Field { name: None, default });
        i = skip_to_comma(&toks, j) + 1;
    }
    Ok(fields)
}

fn parse_variants(g: &Group) -> Result<Vec<Variant>, String> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let (j, _) = skip_attrs_and_vis(&toks, i)?;
        i = j;
        let Some(TokenTree::Ident(name)) = toks.get(i) else {
            return Err("serde shim: expected a variant name".into());
        };
        i += 1;
        let shape = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Shape::Tuple(parse_tuple(g)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Shape::Named(parse_named(g)?)
            }
            _ => Shape::Unit,
        };
        variants.push(Variant { name: name.to_string(), shape });
        i = skip_to_comma(&toks, i) + 1; // also skips `= discriminant`
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let (mut i, _) = skip_attrs_and_vis(&toks, 0)?;
    let kw = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("serde shim: expected `struct` or `enum`".into()),
    };
    i += 1;
    let Some(TokenTree::Ident(name)) = toks.get(i) else {
        return Err("serde shim: expected a type name".into());
    };
    let name = name.to_string();
    i += 1;
    if toks.get(i).is_some_and(|t| is_punct(t, '<')) {
        return Err(format!("serde shim: generic type {name} is not supported"));
    }
    match (kw.as_str(), toks.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok(Item::Struct { name, shape: Shape::Named(parse_named(g)?) })
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Item::Struct { name, shape: Shape::Tuple(parse_tuple(g)?) })
        }
        ("struct", Some(t)) if is_punct(t, ';') => Ok(Item::Struct { name, shape: Shape::Unit }),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok(Item::Enum { name, variants: parse_variants(g)? })
        }
        _ => Err(format!("serde shim: cannot derive for `{kw} {name}`")),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().expect("valid compile_error")
}

const TO: &str = "::serde::__private::to_content::<_, __S::Error>";
const FROM: &str = "::serde::__private::from_content";

/// `Content` expression for a named-field body; `access` maps a field name
/// to the expression holding a reference to it.
fn named_to_content(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut s = String::from("::serde::Content::Map(::std::vec![");
    for f in fields {
        let n = f.name.as_deref().expect("named");
        s += &format!("(::std::string::String::from({n:?}), {TO}({})?),", access(n));
    }
    s + "])"
}

/// Struct-literal body reading named fields out of the map binding `__m`.
fn named_from_map(fields: &[Field]) -> String {
    let mut s = String::new();
    for f in fields {
        let n = f.name.as_deref().expect("named");
        let take = if f.default { "take_field_or_default" } else { "take_field" };
        s += &format!("{n}: ::serde::__private::{take}::<_, __D::Error>(&mut __m, {n:?})?,");
    }
    s
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, shape } => {
            let body = match shape {
                Shape::Unit => "::serde::Content::Null".to_string(),
                Shape::Named(fs) => named_to_content(fs, |n| format!("&self.{n}")),
                Shape::Tuple(fs) if fs.len() == 1 => format!("{TO}(&self.0)?"),
                Shape::Tuple(fs) => {
                    let items: String =
                        (0..fs.len()).map(|i| format!("{TO}(&self.{i})?,")).collect();
                    format!("::serde::Content::Seq(::std::vec![{items}])")
                }
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let tag = format!("::std::string::String::from({vn:?})");
                match &v.shape {
                    Shape::Unit => {
                        arms += &format!("{name}::{vn} => ::serde::Content::Str({tag}),");
                    }
                    Shape::Tuple(fs) => {
                        let binds: Vec<String> = (0..fs.len()).map(|i| format!("__f{i}")).collect();
                        let payload = if fs.len() == 1 {
                            format!("{TO}(__f0)?")
                        } else {
                            let items: String =
                                binds.iter().map(|b| format!("{TO}({b})?,")).collect();
                            format!("::serde::Content::Seq(::std::vec![{items}])")
                        };
                        arms += &format!(
                            "{name}::{vn}({}) => ::serde::Content::Map(::std::vec![({tag}, {payload})]),",
                            binds.join(",")
                        );
                    }
                    Shape::Named(fs) => {
                        let names: Vec<&str> =
                            fs.iter().map(|f| f.name.as_deref().expect("named")).collect();
                        let payload = named_to_content(fs, |n| n.to_string());
                        arms += &format!(
                            "{name}::{vn} {{ {} }} => ::serde::Content::Map(::std::vec![({tag}, {payload})]),",
                            names.join(",")
                        );
                    }
                }
            }
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{
            fn serialize<__S: ::serde::Serializer>(&self, __s: __S)
                -> ::std::result::Result<__S::Ok, __S::Error> {{
                let __c: ::serde::Content = {body};
                __s.serialize_content(__c)
            }}
        }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, shape } => {
            let body = match shape {
                Shape::Unit => format!("let _ = __c; ::std::result::Result::Ok({name})"),
                Shape::Named(fs) => format!(
                    "let mut __m = ::serde::__private::expect_map::<__D::Error>(__c, {name:?})?;
                     ::std::result::Result::Ok({name} {{ {} }})",
                    named_from_map(fs)
                ),
                Shape::Tuple(fs) if fs.len() == 1 => {
                    format!("::std::result::Result::Ok({name}({FROM}::<_, __D::Error>(__c)?))")
                }
                Shape::Tuple(fs) => {
                    let items: String = (0..fs.len())
                        .map(|_| {
                            format!(
                                "{FROM}::<_, __D::Error>(__it.next().expect(\"len checked\"))?,"
                            )
                        })
                        .collect();
                    format!(
                        "let mut __it = ::serde::__private::expect_seq::<__D::Error>(__c, {name:?}, {})?.into_iter();
                         ::std::result::Result::Ok({name}({items}))",
                        fs.len()
                    )
                }
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let payload =
                    format!("::serde::__private::payload::<__D::Error>(__p, {name:?}, {vn:?})?");
                match &v.shape {
                    Shape::Unit => arms += &format!("{vn:?} => {name}::{vn},"),
                    Shape::Tuple(fs) if fs.len() == 1 => {
                        arms += &format!(
                            "{vn:?} => {name}::{vn}({FROM}::<_, __D::Error>({payload})?),"
                        );
                    }
                    Shape::Tuple(fs) => {
                        let items: String = (0..fs.len())
                            .map(|_| format!("{FROM}::<_, __D::Error>(__it.next().expect(\"len checked\"))?,"))
                            .collect();
                        arms += &format!(
                            "{vn:?} => {{
                                let mut __it = ::serde::__private::expect_seq::<__D::Error>({payload}, {name:?}, {})?.into_iter();
                                {name}::{vn}({items})
                            }}",
                            fs.len()
                        );
                    }
                    Shape::Named(fs) => {
                        arms += &format!(
                            "{vn:?} => {{
                                let mut __m = ::serde::__private::expect_map::<__D::Error>({payload}, {name:?})?;
                                {name}::{vn} {{ {} }}
                            }}",
                            named_from_map(fs)
                        );
                    }
                }
            }
            let body = format!(
                "let (__tag, __p) = ::serde::__private::enum_parts::<__D::Error>(__c, {name:?})?;
                 let _ = &__p;
                 ::std::result::Result::Ok(match __tag.as_str() {{
                     {arms}
                     __other => return ::std::result::Result::Err(
                         ::serde::__private::unknown_variant::<__D::Error>({name:?}, __other)),
                 }})"
            );
            (name, body)
        }
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{
            fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D)
                -> ::std::result::Result<Self, __D::Error> {{
                let __c: ::serde::Content = __d.into_content()?;
                {body}
            }}
        }}"
    )
}

fn derive(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen(&item).parse().unwrap_or_else(|e| {
            compile_error(&format!("serde shim: generated code did not parse: {e}"))
        }),
        Err(msg) => compile_error(&msg),
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    derive(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    derive(input, gen_deserialize)
}
