//! Offline stand-in for `serde`.
//!
//! The build environment has no crate registry, so this workspace
//! vendors a miniature serde: data types convert to and from a JSON-like
//! [`Value`] tree via the [`Serialize`] / [`Deserialize`] traits, and
//! `#[derive(Serialize, Deserialize)]` is provided by the sibling
//! `serde_derive` shim. The representation matches serde's defaults for
//! the shapes this workspace uses: structs as objects, unit enum
//! variants as strings, data-carrying variants as externally tagged
//! single-entry objects, tuples as arrays, `None` as null.

#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A parsed or to-be-serialized data tree (the JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// Any number.
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// A JSON number, kept in its narrowest faithful representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Anything with a fractional part or exponent.
    F(f64),
}

impl Value {
    /// Borrow the entries when this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Look up a field of an object `Value` by name.
    pub fn field<'a>(entries: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
        entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// Error produced when a [`Value`] does not match the expected shape.
#[derive(Debug, Clone)]
pub struct DeError(String);

impl DeError {
    /// An error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the [`Value`] tree.
pub trait Serialize {
    /// Serialize `self` into a tree.
    fn serialize(&self) -> Value;
}

/// Conversion out of the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstruct `Self` from a tree.
    fn deserialize(v: &Value) -> Result<Self, DeError>;
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::new(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Num(Num::U(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let wide = match v {
                    Value::Num(Num::U(x)) => *x,
                    Value::Num(Num::I(x)) if *x >= 0 => *x as u64,
                    Value::Num(Num::F(x)) if x.fract() == 0.0 && *x >= 0.0 => *x as u64,
                    other => {
                        return Err(DeError::new(format!(
                            "expected unsigned integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::new(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                let x = *self as i64;
                if x >= 0 {
                    Value::Num(Num::U(x as u64))
                } else {
                    Value::Num(Num::I(x))
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let wide = match v {
                    Value::Num(Num::I(x)) => *x,
                    Value::Num(Num::U(x)) => i64::try_from(*x)
                        .map_err(|_| DeError::new(format!("{x} out of i64 range")))?,
                    Value::Num(Num::F(x)) if x.fract() == 0.0 => *x as i64,
                    other => {
                        return Err(DeError::new(format!(
                            "expected integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::new(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Num(Num::F(*self))
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Num(Num::F(x)) => Ok(*x),
            Value::Num(Num::U(x)) => Ok(*x as f64),
            Value::Num(Num::I(x)) => Ok(*x as f64),
            other => Err(DeError::new(format!("expected number, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Num(Num::F(f64::from(*self)))
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        f64::deserialize(v).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::new(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(Deserialize::deserialize).collect(),
            other => Err(DeError::new(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(inner) => inner.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize + ToOwned + ?Sized> Serialize for Cow<'_, T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

/// A parsed `Cow` is always owned.
impl<T: ToOwned + ?Sized> Deserialize for Cow<'_, T>
where
    T::Owned: Deserialize,
{
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        T::Owned::deserialize(v).map(Cow::Owned)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        T::deserialize(v).map(Arc::new)
    }
}

macro_rules! impl_serde_tuple {
    ($(($($t:ident . $idx:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self) -> Value {
                Value::Seq(vec![$(self.$idx.serialize()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                const LEN: usize = [$($idx),+].len();
                match v {
                    Value::Seq(items) if items.len() == LEN => {
                        Ok(($($t::deserialize(&items[$idx])?,)+))
                    }
                    other => Err(DeError::new(format!(
                        "expected {LEN}-element array, got {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_serde_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::deserialize(&42u64.serialize()).unwrap(), 42);
        assert_eq!(i64::deserialize(&(-7i64).serialize()).unwrap(), -7);
        assert_eq!(f64::deserialize(&1.5f64.serialize()).unwrap(), 1.5);
        assert!(bool::deserialize(&true.serialize()).unwrap());
        let s = String::from("hi");
        assert_eq!(String::deserialize(&s.serialize()).unwrap(), "hi");
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::deserialize(&v.serialize()).unwrap(), v);
        let o: Option<u32> = None;
        assert_eq!(Option::<u32>::deserialize(&o.serialize()).unwrap(), None);
        let t = (1.25f64, 8u64);
        assert_eq!(<(f64, u64)>::deserialize(&t.serialize()).unwrap(), t);
        let c: Cow<'static, str> = Cow::Borrowed("key");
        let back = Cow::<'static, str>::deserialize(&c.serialize()).unwrap();
        assert!(matches!(back, Cow::Owned(_)));
        assert_eq!(back, c);
        let a = Arc::new(3u8);
        assert_eq!(Arc::<u8>::deserialize(&a.serialize()).unwrap(), a);
    }

    #[test]
    fn narrowing_is_checked() {
        assert!(u8::deserialize(&300u64.serialize()).is_err());
        assert!(u64::deserialize(&(-1i64).serialize()).is_err());
    }
}
