//! Offline stand-in for `serde`.
//!
//! The build container has no crate registry, so the benchmark redirects
//! `serde` here (`[patch.crates-io]` in `benchmark/Cargo.toml`). The shim
//! keeps the trait names and method signatures the BlendHouse library crates
//! write against — `Serialize`, `Deserialize<'de>`, `Serializer`,
//! `Deserializer<'de>`, `ser::SerializeStruct` and the two derives — but
//! replaces serde's visitor machinery with one intermediate tree,
//! [`Content`]: every value serializes *to* a tree and deserializes *from*
//! one. `serde_json` (also a shim) renders and parses that tree with the
//! same JSON shapes real serde produces (externally tagged enums, newtype
//! structs as their inner value, `Option` as `null`-or-value).

use std::collections::BTreeMap;
use std::marker::PhantomData;

pub use serde_derive::{Deserialize, Serialize};

/// The intermediate tree every value passes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    /// Kept apart from `F64` so an `f32` prints with its own shortest
    /// round-trip digits, as real serde_json does.
    F32(f32),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    /// Insertion-ordered, like serde_json's struct output.
    Map(Vec<(String, Content)>),
}

impl Content {
    /// Short name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::U64(_) | Content::I64(_) => "integer",
            Content::F32(_) | Content::F64(_) => "float",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

pub mod ser {
    //! Serialization half.
    use super::{Content, Serialize, Serializer};
    use std::fmt::Display;

    /// Error constructible from a message.
    pub trait Error: Sized + Display {
        fn custom<T: Display>(msg: T) -> Self;
    }

    /// Field-by-field struct serialization, as in real serde.
    pub trait SerializeStruct {
        type Ok;
        type Error: Error;
        fn serialize_field<T: ?Sized + Serialize>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    /// The one `SerializeStruct` implementation: collects fields into a
    /// [`Content::Map`] and hands it to the serializer on `end`.
    pub struct StructBuilder<S: Serializer> {
        pub(crate) ser: S,
        pub(crate) fields: Vec<(String, Content)>,
    }

    impl<S: Serializer> SerializeStruct for StructBuilder<S> {
        type Ok = S::Ok;
        type Error = S::Error;

        fn serialize_field<T: ?Sized + Serialize>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), S::Error> {
            self.fields.push((key.to_string(), super::__private::to_content(value)?));
            Ok(())
        }

        fn end(self) -> Result<S::Ok, S::Error> {
            self.ser.serialize_content(Content::Map(self.fields))
        }
    }
}

pub mod de {
    //! Deserialization half.
    use super::Deserialize;
    use std::fmt::Display;

    /// Error constructible from a message.
    pub trait Error: Sized + Display {
        fn custom<T: Display>(msg: T) -> Self;
    }

    /// A type deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}
}

/// A data format's output side: accepts one finished [`Content`] tree.
pub trait Serializer: Sized {
    type Ok;
    type Error: ser::Error;

    fn serialize_content(self, content: Content) -> Result<Self::Ok, Self::Error>;

    fn serialize_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<ser::StructBuilder<Self>, Self::Error> {
        Ok(ser::StructBuilder { ser: self, fields: Vec::with_capacity(len) })
    }
}

/// A value that can be written to any [`Serializer`].
pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A data format's input side: yields one [`Content`] tree.
pub trait Deserializer<'de>: Sized {
    type Error: de::Error;
    fn into_content(self) -> Result<Content, Self::Error>;
}

/// A value that can be read from any [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;

    /// Value for a struct field absent from the input (`Some(None)` for
    /// `Option`, otherwise an error at the caller) — real serde's
    /// `missing_field` behaviour.
    #[doc(hidden)]
    fn __missing() -> Option<Self> {
        None
    }
}

/// Serializer whose output is the tree itself.
pub struct ContentSerializer<E>(PhantomData<E>);

impl<E: ser::Error> Serializer for ContentSerializer<E> {
    type Ok = Content;
    type Error = E;
    fn serialize_content(self, content: Content) -> Result<Content, E> {
        Ok(content)
    }
}

/// Deserializer over an already-built tree.
pub struct ContentDeserializer<E>(Content, PhantomData<E>);

impl<E> ContentDeserializer<E> {
    pub fn new(content: Content) -> Self {
        ContentDeserializer(content, PhantomData)
    }
}

impl<'de, E: de::Error> Deserializer<'de> for ContentDeserializer<E> {
    type Error = E;
    fn into_content(self) -> Result<Content, E> {
        Ok(self.0)
    }
}

#[doc(hidden)]
pub mod __private {
    //! Helpers the derive output calls; not part of the imitated API.
    use super::*;

    pub fn to_content<T: ?Sized + Serialize, E: ser::Error>(value: &T) -> Result<Content, E> {
        value.serialize(ContentSerializer::<E>(PhantomData))
    }

    pub fn from_content<'de, T: Deserialize<'de>, E: de::Error>(c: Content) -> Result<T, E> {
        T::deserialize(ContentDeserializer::<E>::new(c))
    }

    pub fn expect_map<E: de::Error>(c: Content, ty: &str) -> Result<Vec<(String, Content)>, E> {
        match c {
            Content::Map(m) => Ok(m),
            other => Err(E::custom(format!("{ty}: expected a map, found {}", other.kind()))),
        }
    }

    pub fn expect_seq<E: de::Error>(c: Content, ty: &str, len: usize) -> Result<Vec<Content>, E> {
        match c {
            Content::Seq(s) if s.len() == len => Ok(s),
            Content::Seq(s) => {
                Err(E::custom(format!("{ty}: expected {len} elements, found {}", s.len())))
            }
            other => Err(E::custom(format!("{ty}: expected a sequence, found {}", other.kind()))),
        }
    }

    fn remove(m: &mut Vec<(String, Content)>, name: &str) -> Option<Content> {
        let at = m.iter().position(|(k, _)| k == name)?;
        Some(m.swap_remove(at).1)
    }

    /// A required struct field (absent `Option` fields read as `None`).
    pub fn take_field<'de, T: Deserialize<'de>, E: de::Error>(
        m: &mut Vec<(String, Content)>,
        name: &str,
    ) -> Result<T, E> {
        match remove(m, name) {
            Some(c) => from_content(c),
            None => T::__missing().ok_or_else(|| E::custom(format!("missing field `{name}`"))),
        }
    }

    /// A `#[serde(default)]` struct field.
    pub fn take_field_or_default<'de, T: Deserialize<'de> + Default, E: de::Error>(
        m: &mut Vec<(String, Content)>,
        name: &str,
    ) -> Result<T, E> {
        match remove(m, name) {
            Some(c) => from_content(c),
            None => Ok(T::default()),
        }
    }

    /// Split an externally tagged enum into `(variant, payload)`.
    pub fn enum_parts<E: de::Error>(c: Content, ty: &str) -> Result<(String, Option<Content>), E> {
        match c {
            Content::Str(s) => Ok((s, None)),
            Content::Map(mut m) if m.len() == 1 => {
                let (k, v) = m.pop().expect("len checked");
                Ok((k, Some(v)))
            }
            other => Err(E::custom(format!(
                "{ty}: expected a variant name or a one-entry map, found {}",
                other.kind()
            ))),
        }
    }

    pub fn payload<E: de::Error>(
        p: Option<Content>,
        ty: &str,
        variant: &str,
    ) -> Result<Content, E> {
        p.ok_or_else(|| E::custom(format!("{ty}::{variant}: variant carries data")))
    }

    pub fn unknown_variant<E: de::Error>(ty: &str, variant: &str) -> E {
        E::custom(format!("{ty}: unknown variant `{variant}`"))
    }
}

// ---------------------------------------------------------------- std impls

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_content(Content::U64(*self as u64))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                use de::Error;
                match d.into_content()? {
                    Content::U64(v) => <$t>::try_from(v)
                        .map_err(|_| D::Error::custom(format!("{v} out of range for {}", stringify!($t)))),
                    Content::I64(v) => <$t>::try_from(v)
                        .map_err(|_| D::Error::custom(format!("{v} out of range for {}", stringify!($t)))),
                    other => Err(D::Error::custom(format!(
                        "expected {}, found {}", stringify!($t), other.kind()))),
                }
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_content(Content::I64(*self as i64))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                use de::Error;
                match d.into_content()? {
                    Content::U64(v) => <$t>::try_from(v)
                        .map_err(|_| D::Error::custom(format!("{v} out of range for {}", stringify!($t)))),
                    Content::I64(v) => <$t>::try_from(v)
                        .map_err(|_| D::Error::custom(format!("{v} out of range for {}", stringify!($t)))),
                    other => Err(D::Error::custom(format!(
                        "expected {}, found {}", stringify!($t), other.kind()))),
                }
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

fn float_of<E: de::Error>(c: Content) -> Result<f64, E> {
    match c {
        Content::F64(v) => Ok(v),
        Content::F32(v) => Ok(f64::from(v)),
        Content::U64(v) => Ok(v as f64),
        Content::I64(v) => Ok(v as f64),
        other => Err(E::custom(format!("expected a number, found {}", other.kind()))),
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_content(Content::F32(*self))
    }
}
impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_content()? {
            Content::F32(v) => Ok(v),
            other => Ok(float_of::<D::Error>(other)? as f32),
        }
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_content(Content::F64(*self))
    }
}
impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        float_of(d.into_content()?)
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_content(Content::Bool(*self))
    }
}
impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        use de::Error;
        match d.into_content()? {
            Content::Bool(b) => Ok(b),
            other => Err(D::Error::custom(format!("expected bool, found {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_content(Content::Str(self.to_string()))
    }
}
impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_content(Content::Str(self.clone()))
    }
}
impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        use de::Error;
        match d.into_content()? {
            Content::Str(s) => Ok(s),
            other => Err(D::Error::custom(format!("expected string, found {}", other.kind()))),
        }
    }
}

impl<T: ?Sized + Serialize> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => v.serialize(s),
            None => s.serialize_content(Content::Null),
        }
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_content()? {
            Content::Null => Ok(None),
            other => __private::from_content(other).map(Some),
        }
    }
    fn __missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let items = self.iter().map(__private::to_content).collect::<Result<Vec<_>, S::Error>>()?;
        s.serialize_content(Content::Seq(items))
    }
}
impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        use de::Error;
        match d.into_content()? {
            Content::Seq(items) => items.into_iter().map(__private::from_content).collect(),
            other => Err(D::Error::custom(format!("expected sequence, found {}", other.kind()))),
        }
    }
}

fn map_to_content<'a, V: Serialize + 'a, E: ser::Error>(
    entries: impl Iterator<Item = (&'a String, &'a V)>,
) -> Result<Content, E> {
    let fields = entries
        .map(|(k, v)| Ok((k.clone(), __private::to_content(v)?)))
        .collect::<Result<Vec<_>, E>>()?;
    Ok(Content::Map(fields))
}

fn map_from_content<'de, V: Deserialize<'de>, E: de::Error>(
    c: Content,
) -> Result<impl Iterator<Item = Result<(String, V), E>>, E> {
    Ok(__private::expect_map::<E>(c, "map")?
        .into_iter()
        .map(|(k, v)| Ok((k, __private::from_content(v)?))))
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let c = map_to_content::<V, S::Error>(self.iter())?;
        s.serialize_content(c)
    }
}
impl<'de, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<String, V> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        map_from_content(d.into_content()?)?.collect()
    }
}
