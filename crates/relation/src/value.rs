//! Attribute values.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A typed attribute value.
///
/// The paper's workload uses small integer domains (a value range of 100
/// values per attribute), but queries may also contain string constants, so
/// the model supports both. Values are totally ordered (integers before
/// strings) so they can be used as keys in ordered collections.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Value {
    /// A 64-bit signed integer value.
    Int(i64),
    /// A string value.
    Str(String),
}

impl Value {
    /// Returns the integer payload if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// Returns the string payload if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }

    /// Canonical textual form used when building DHT index keys
    /// (`RelationName + AttributeName + Value` concatenation, Section 3 of
    /// the paper). Distinct values must map to distinct strings.
    pub fn key_fragment(&self) -> String {
        let mut out = String::new();
        self.write_key_fragment(&mut out);
        out
    }

    /// Whether `fragment` renders this value the way
    /// [`key_fragment`](Self::key_fragment) does, decided without rendering
    /// anything (any decimal spelling of an integer is accepted, not just
    /// the canonical one).
    pub fn is_key_fragment(&self, fragment: &str) -> bool {
        match self {
            Value::Int(v) => {
                fragment.strip_prefix("i:").is_some_and(|digits| digits.parse() == Ok(*v))
            }
            Value::Str(s) => fragment.strip_prefix("s:") == Some(s.as_str()),
        }
    }

    /// Appends the canonical key fragment to `out` — the allocation-free
    /// core of [`Value::key_fragment`] for callers that assemble full index
    /// keys into a reused buffer.
    pub fn write_key_fragment(&self, out: &mut String) {
        match self {
            Value::Int(v) => {
                // Decimal digits by hand: key strings are built for every
                // candidate of every dispatched query, and `fmt` costs more
                // than the rest of the key put together.
                let mut digits = [0u8; 20];
                let mut at = digits.len();
                let mut rest = v.unsigned_abs();
                loop {
                    at -= 1;
                    digits[at] = b'0' + (rest % 10) as u8;
                    rest /= 10;
                    if rest == 0 {
                        break;
                    }
                }
                out.push_str(if *v < 0 { "i:-" } else { "i:" });
                out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
            }
            Value::Str(s) => {
                out.push_str("s:");
                out.push_str(s);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_accessors() {
        let v = Value::from(42);
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(v.as_str(), None);
    }

    #[test]
    fn str_accessors() {
        let v = Value::from("hello");
        assert_eq!(v.as_int(), None);
        assert_eq!(v.as_str(), Some("hello"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::from(7).to_string(), "7");
        assert_eq!(Value::from("x").to_string(), "'x'");
    }

    #[test]
    fn key_fragments_distinguish_types() {
        // The integer 5 and the string "5" must not collide in index keys.
        assert_ne!(Value::from(5).key_fragment(), Value::from("5").key_fragment());
    }

    #[test]
    fn integer_key_fragments_are_plain_decimal() {
        for v in [0, 7, -7, 10, 1234567890123, i64::MAX, i64::MIN] {
            assert_eq!(Value::from(v).key_fragment(), format!("i:{v}"));
        }
    }

    #[test]
    fn key_fragments_are_recognised_without_rendering() {
        for value in [Value::from(5), Value::from(-17), Value::from("5"), Value::from("a+b")] {
            assert!(value.is_key_fragment(&value.key_fragment()));
        }
        assert!(!Value::from(5).is_key_fragment("s:5"));
        assert!(!Value::from("5").is_key_fragment("i:5"));
        assert!(!Value::from(5).is_key_fragment("i:50"));
        assert!(!Value::from("ab").is_key_fragment("s:a"));
    }

    #[test]
    fn ordering_is_total() {
        let mut values = vec![Value::from("b"), Value::from(3), Value::from("a"), Value::from(-1)];
        values.sort();
        assert_eq!(
            values,
            vec![Value::from(-1), Value::from(3), Value::from("a"), Value::from("b")]
        );
    }

    #[test]
    fn equality_is_type_sensitive() {
        assert_ne!(Value::from(1), Value::from("1"));
        assert_eq!(Value::from(1), Value::Int(1));
    }

    #[test]
    fn serde_round_trip() {
        let v = Value::from("abc");
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }
}
