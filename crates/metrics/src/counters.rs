//! Per-key load counters.

use serde::bin::BinError;
use serde::json::{JsonError, JsonValue};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// A counter map from keys (typically node identifiers) to accumulated load.
///
/// Used for query-processing load and storage load, which the simulation
/// increments as events are handled. The hasher is pluggable so that hot
/// maps keyed by already-uniform identifiers (e.g. DHT ring ids) can swap
/// SipHash for a cheaper mix without changing the call sites.
#[derive(Debug, Clone)]
pub struct LoadMap<K: Eq + Hash, S: BuildHasher + Default = RandomState> {
    counts: HashMap<K, u64, S>,
}

impl<K: Eq + Hash, S: BuildHasher + Default> Default for LoadMap<K, S> {
    fn default() -> Self {
        LoadMap { counts: HashMap::default() }
    }
}

// Serialized as the bare key→count pair list (the shape `HashMap` itself
// uses), hand-written because derives do not cover default type parameters.
impl<K: Eq + Hash + Serialize, S: BuildHasher + Default> Serialize for LoadMap<K, S> {
    fn serialize_json(&self) -> JsonValue {
        self.counts.serialize_json()
    }

    fn serialize_bin(&self, out: &mut Vec<u8>) {
        self.counts.serialize_bin(out);
    }
}

impl<K: Eq + Hash + Deserialize, S: BuildHasher + Default> Deserialize for LoadMap<K, S> {
    fn deserialize_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(LoadMap { counts: HashMap::deserialize_json(v)? })
    }

    fn deserialize_bin(input: &mut &[u8]) -> Result<Self, BinError> {
        Ok(LoadMap { counts: HashMap::deserialize_bin(input)? })
    }
}

impl<K: Eq + Hash + Clone, S: BuildHasher + Default> LoadMap<K, S> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` to `key`'s load.
    pub fn add(&mut self, key: K, amount: u64) {
        *self.counts.entry(key).or_insert(0) += amount;
    }

    /// Increments `key`'s load by one.
    pub fn incr(&mut self, key: K) {
        self.add(key, 1);
    }

    /// Subtracts `amount` from `key`'s load, saturating at zero. Used when
    /// stored state is garbage collected (e.g. window expiry shrinking the
    /// storage load).
    pub fn sub(&mut self, key: &K, amount: u64) {
        if let Some(v) = self.counts.get_mut(key) {
            *v = v.saturating_sub(amount);
        }
    }

    /// The load of `key` (zero if never touched).
    pub fn get(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Sum of all loads.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of keys with a non-zero load.
    pub fn active(&self) -> usize {
        self.counts.values().filter(|v| **v > 0).count()
    }

    /// All values (including zeros for keys that were touched then zeroed).
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.counts.values().copied()
    }

    /// Iterates over `(key, load)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, v)| (k, *v))
    }

    /// Clears every counter.
    pub fn reset(&mut self) {
        self.counts.clear();
    }

    /// Merges another map into this one (any hasher).
    pub fn merge<S2: BuildHasher + Default>(&mut self, other: &LoadMap<K, S2>) {
        for (k, v) in &other.counts {
            *self.counts.entry(k.clone()).or_insert(0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_total() {
        let mut m: LoadMap<u64> = LoadMap::new();
        m.incr(1);
        m.add(1, 4);
        m.add(2, 10);
        assert_eq!(m.get(&1), 5);
        assert_eq!(m.get(&2), 10);
        assert_eq!(m.get(&3), 0);
        assert_eq!(m.total(), 15);
        assert_eq!(m.active(), 2);
    }

    #[test]
    fn sub_saturates_at_zero() {
        let mut m: LoadMap<u64> = LoadMap::new();
        m.add(1, 3);
        m.sub(&1, 10);
        assert_eq!(m.get(&1), 0);
        m.sub(&99, 1); // unknown key: no-op
        assert_eq!(m.get(&99), 0);
    }

    #[test]
    fn merge_and_reset() {
        let mut a: LoadMap<&str> = LoadMap::new();
        a.add("x", 1);
        let mut b: LoadMap<&str> = LoadMap::new();
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        assert_eq!(a.get(&"x"), 3);
        assert_eq!(a.get(&"y"), 3);
        a.reset();
        assert_eq!(a.total(), 0);
    }

    #[test]
    fn serde_round_trips_counts_and_custom_hashers_interoperate() {
        let mut m: LoadMap<u64> = LoadMap::new();
        m.add(3, 7);
        m.add(9, 1);
        let v = m.serialize_json();
        let back: LoadMap<u64> = LoadMap::deserialize_json(&v).unwrap();
        assert_eq!(back.get(&3), 7);
        assert_eq!(back.get(&9), 1);
        assert_eq!(back.total(), 8);
        let back: LoadMap<u64> = serde::bin::from_slice(&serde::bin::to_vec(&m)).unwrap();
        assert_eq!((back.get(&3), back.get(&9), back.total()), (7, 1, 8));

        // A map with a different hasher merges into the default one.
        let mut custom: LoadMap<u64, std::hash::BuildHasherDefault<std::hash::DefaultHasher>> =
            LoadMap::new();
        custom.add(3, 2);
        m.merge(&custom);
        assert_eq!(m.get(&3), 9);
    }

    #[test]
    fn active_ignores_zeroed_keys() {
        let mut m: LoadMap<u64> = LoadMap::new();
        m.add(1, 1);
        m.add(2, 1);
        m.sub(&2, 1);
        assert_eq!(m.active(), 1);
    }
}
