//! Cheaply clonable identifier strings.
//!
//! Relation and attribute names travel on every hot path of the engine:
//! they sit inside every tuple, every query AST node and every stored
//! sub-join, and those structures are cloned per message hop, per rewrite
//! and per stored entry. Backing the names with `Arc<str>` makes each of
//! those clones a reference-count bump instead of a heap allocation plus a
//! memcpy — and, just as importantly, makes teardown (dropping an engine
//! full of stored queries) a refcount sweep rather than thousands of
//! `free` calls.

use serde::bin::{self, BinError};
use serde::json::{JsonError, JsonValue};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable name (relation or attribute identifier).
///
/// Behaves like a read-only `String`: derefs to `str`, compares against
/// `str`/`&str`/`String` directly, and serializes as a plain JSON string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Self {
        Name(Arc::from(s.as_str()))
    }
}

impl From<Arc<str>> for Name {
    fn from(s: Arc<str>) -> Self {
        Name(s)
    }
}

impl From<&Name> for Name {
    fn from(s: &Name) -> Self {
        s.clone()
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == &*other.0
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == &*other.0
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == &*other.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Serialize for Name {
    fn serialize_json(&self) -> JsonValue {
        self.0.serialize_json()
    }

    fn serialize_bin(&self, out: &mut Vec<u8>) {
        self.0.serialize_bin(out);
    }
}

impl Deserialize for Name {
    fn deserialize_json(v: &JsonValue) -> Result<Self, JsonError> {
        String::deserialize_json(v).map(Name::from)
    }

    fn deserialize_bin(input: &mut &[u8]) -> Result<Self, BinError> {
        bin::read_str(input).map(Name::intern)
    }
}

/// Upper bound on the per-thread table [`Name::intern`] keeps. The names of
/// a workload are its relations and attributes, a few dozen; the cap only
/// guards against a stream of distinct names, and clears the table when hit.
const INTERN_CAPACITY: usize = 1 << 12;

impl Name {
    /// `Name::from(text)` through a per-thread table: a reader decoding a
    /// frame sees the same few names over and over, and a repeat costs a
    /// probe and a reference count instead of an allocation (and, when the
    /// decoded message is dropped, a free).
    fn intern(text: &str) -> Self {
        use std::cell::RefCell;
        use std::collections::HashSet;
        thread_local! {
            static NAMES: RefCell<HashSet<Name>> = RefCell::new(HashSet::new());
        }
        NAMES.with(|names| {
            let mut names = names.borrow_mut();
            if let Some(known) = names.get(text) {
                return known.clone();
            }
            if names.len() >= INTERN_CAPACITY {
                names.clear();
            }
            let name = Name::from(text);
            names.insert(name.clone());
            name
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compares_like_a_string() {
        let n = Name::from("R");
        assert_eq!(n, *"R");
        assert_eq!(n, "R");
        assert_eq!(n, "R".to_string());
        assert_eq!("R", n);
        assert_ne!(n, "S");
        assert_eq!(n.as_str(), "R");
    }

    #[test]
    fn clones_share_the_backing_allocation() {
        let a = Name::from("Relation");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn serde_round_trip_is_a_plain_string() {
        let n = Name::from("R1");
        let v = n.serialize_json();
        assert_eq!(Name::deserialize_json(&v).unwrap(), n);
        assert_eq!(String::deserialize_json(&v).unwrap(), "R1");

        let bytes = bin::to_vec(&n);
        assert_eq!(bytes, bin::to_vec("R1"));
        assert_eq!(bin::from_slice::<Name>(&bytes), Ok(n));
    }
}
