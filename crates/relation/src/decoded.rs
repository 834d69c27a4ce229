//! Decoding once what arrives many times.
//!
//! A node receives the same values over and over inside different
//! messages: every `Eval` of a query's descendants carries the input query
//! and the tuples bound so far. A [`DecodedTable`] keeps, per rendering, the
//! value last decoded from it for as long as something else holds it, so a
//! repeat costs a digest and a comparison instead of a decode, and every
//! holder shares one copy. Equal renderings decode to equal values, so the
//! sharing is unobservable.

use serde::bin::{self, BinError};
use serde::Deserialize;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// One slot: the digest and bytes of a rendering, and its value.
type Slot<T> = Option<(u64, Box<[u8]>, Weak<T>)>;

/// A process-wide table of values decoded from their binary renderings,
/// direct-mapped by digest over `N` slots (fixed, so a decode allocates
/// nothing for the table; a colliding rendering takes the slot over).
pub struct DecodedTable<T, const N: usize>(Mutex<[Slot<T>; N]>);

impl<T: Deserialize, const N: usize> DecodedTable<T, N> {
    /// An empty table.
    pub const fn new() -> Self {
        DecodedTable(Mutex::new([const { None }; N]))
    }

    /// The value rendered as `bytes`: the one decoded from the same bytes
    /// before while it is still held, or a fresh decode.
    pub fn decode(&self, bytes: &[u8]) -> Result<Arc<T>, BinError> {
        let mut hasher = DefaultHasher::new();
        bytes.hash(&mut hasher);
        let digest = hasher.finish();
        let mut slots = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = &mut slots[digest as usize % N];
        if let Some((known, rendering, value)) = slot {
            if *known == digest && **rendering == *bytes {
                if let Some(value) = value.upgrade() {
                    return Ok(value);
                }
            }
        }
        let value = Arc::new(bin::from_slice::<T>(bytes)?);
        *slot = Some((digest, bytes.into(), Arc::downgrade(&value)));
        Ok(value)
    }

    /// Reads one length-prefixed rendering off `input` and decodes it.
    pub fn read(&self, input: &mut &[u8]) -> Result<Arc<T>, BinError> {
        let len = bin::read_len(input)?;
        self.decode(bin::take(input, len)?)
    }
}

impl<T: Deserialize, const N: usize> Default for DecodedTable<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

/// Appends `value`'s rendering length-prefixed, as [`DecodedTable::read`]
/// reads it.
pub fn write_prefixed<T: serde::Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) {
    use std::cell::RefCell;
    thread_local! {
        static RENDERING: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    RENDERING.with(|rendering| match rendering.try_borrow_mut() {
        Ok(mut bytes) => {
            bytes.clear();
            value.serialize_bin(&mut bytes);
            bin::write_len(out, bytes.len());
            out.extend_from_slice(&bytes);
        }
        // A rendering nested in another one renders into its own buffer.
        Err(_) => {
            let bytes = bin::to_vec(value);
            bin::write_len(out, bytes.len());
            out.extend_from_slice(&bytes);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tuple, Value};

    #[test]
    fn a_held_value_is_shared_and_a_dropped_one_decoded_again() {
        static TABLE: DecodedTable<Tuple, 8> = DecodedTable::new();
        let tuple = Tuple::new("R", vec![Value::from(1), Value::from("x")], 4);
        let mut out = Vec::new();
        write_prefixed(&mut out, &tuple);
        let first = TABLE.read(&mut &out[..]).unwrap();
        let second = TABLE.read(&mut &out[..]).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*first, tuple);
        let weak = Arc::downgrade(&first);
        drop((first, second));
        assert!(weak.upgrade().is_none(), "the table holds no value alive");
        assert_eq!(*TABLE.read(&mut &out[..]).unwrap(), tuple);
        assert!(TABLE.read(&mut &out[..out.len() - 1]).is_err(), "a cut rendering is refused");
    }
}
