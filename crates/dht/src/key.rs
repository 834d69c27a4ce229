//! Interned key identities: a canonical key string paired with its ring
//! identifier, hashed exactly once.
//!
//! The RJoin hot path used to re-derive the canonical string of an index key
//! and re-run SHA-1 over it at every layer (publication, placement, delivery,
//! per-node storage). A [`HashedKey`] computes the ring [`Id`] once at
//! construction and then travels through messages and node state as a cheap
//! `Arc<str>` clone, so every downstream consumer can key its maps by the
//! precomputed 64-bit ring identifier instead of the string.
//!
//! # Partitioned keys (hot-key splitting)
//!
//! A single hot key is a point mass on the identifier circle: no identifier
//! movement can divide it, because all of its load lands on whichever node
//! owns that one identifier. Share-based partitioning (Afrati, Ullman &
//! Vasilakopoulos) splits such a key into `s` deterministic **sub-keys**:
//! [`HashedKey::split_part`] derives partition `p` of `s` by salting the
//! partition coordinates into the base ring identifier, so the `s` sub-keys
//! scatter uniformly over the ring while all sharing the interned canonical
//! text. Tuples indexed under the hot key are routed to exactly one sub-key
//! and queries are registered at all `s` of them; the base identifier stays
//! recoverable via [`HashedKey::base_ring`] so telemetry can aggregate the
//! partitions back into one logical key.
//!
//! Ring identifiers are SHA-1 prefixes and therefore already uniformly
//! distributed, so maps keyed by them do not need SipHash on top: the
//! [`RingHasher`] build hasher passes the `u64` through (with a cheap
//! avalanche step for safety against accidental structure) and [`RingMap`] /
//! [`RingSet`] are the corresponding container aliases.

use crate::id::Id;
use serde::bin::{self, BinError};
use serde::json::{JsonError, JsonValue};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Upper bound on the per-thread intern table of [`HashedKey::intern`]. The
/// key universe of a workload is small (relations × attributes × observed
/// values), so the cap exists only as a backstop against adversarial key
/// churn; when it is hit the table is cleared and re-fills.
const INTERN_CAPACITY: usize = 1 << 16;

/// FNV-1a over the key bytes: the intern table's probe hashes the full key
/// string on every call, so the default SipHash (designed for DoS resistance
/// the table does not need — it is per-thread, capped and cleared on
/// overflow) would dominate the probe cost for the short canonical key
/// strings the hot path uses.
#[derive(Default)]
pub struct StrHasher(u64);

impl Hasher for StrHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut hash = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }

    fn write_u8(&mut self, b: u8) {
        // `str` hashing appends a length-prefix terminator byte; fold it in
        // like any other byte.
        self.write(&[b]);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

thread_local! {
    /// Per-thread memo of canonical key text → ring identifier, so repeated
    /// hashes of the same key skip both the SHA-1 digest and the `Arc<str>`
    /// allocation. Thread-local (rather than shared) keeps the lookup
    /// lock-free under the simulator's worker threads.
    static INTERN_TABLE: RefCell<HashMap<Arc<str>, HashedKey, BuildHasherDefault<StrHasher>>> =
        RefCell::new(HashMap::default());
}

/// A canonical index-key string together with its ring identifier.
///
/// Construction hashes the string once ([`Id::hash_key`]); cloning is an
/// `Arc` reference bump, and the handle is one pointer wide (stored queries
/// and messages each carry one). Equality compares the text (so distinct
/// keys are distinct even under a — cosmically unlikely — 64-bit digest
/// collision), while hashing uses the precomputed ring identifier, which is
/// consistent because equal texts always produce equal identifiers.
#[derive(Debug, Clone)]
pub struct HashedKey(Arc<KeyParts>);

/// What a [`HashedKey`] points at.
#[derive(Debug)]
struct KeyParts {
    text: Arc<str>,
    id: Id,
    /// Partition coordinates `(p, s)` for sub-keys of a split hot key
    /// (`p < s`, `s >= 2`); `None` for ordinary unsplit keys. The partition
    /// is salted into `id`, so two sub-keys of one base key have distinct
    /// ring identifiers and distinct storage buckets.
    partition: Option<(u32, u32)>,
}

/// Mixes a partition coordinate pair into a base ring identifier. One
/// splitmix-style avalanche round over the packed `(p, s)` word keeps the
/// sub-key identifiers uniform on the ring (partition 0 is *not* the base
/// identifier: the base key retires entirely once split).
fn salt_partition(base: u64, part: u32, parts: u32) -> u64 {
    let packed = ((parts as u64) << 32) | part as u64;
    mix64(base ^ packed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The splitmix64 finalizer: full 64-bit avalanche in three shifts and two
/// multiplies. The one mixing primitive shared by [`RingHasher`], the
/// partition salt and `rjoin-core`'s partition hashes.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl HashedKey {
    /// Interns `text`, hashing it onto the identifier ring exactly once.
    pub fn new(text: impl Into<Arc<str>>) -> Self {
        let text = text.into();
        let id = Id::hash_key(&text);
        HashedKey(Arc::new(KeyParts { text, id, partition: None }))
    }

    /// Like [`HashedKey::new`], but memoized through a per-thread intern
    /// table: repeated calls with the same text reuse both the cached ring
    /// identifier (skipping SHA-1) and the cached `Arc<str>` (skipping the
    /// allocation). The hot path derives the same handful of canonical key
    /// strings once per tuple per layer, so this turns the dominant digest
    /// cost into a hash-map probe.
    pub fn intern(text: &str) -> Self {
        INTERN_TABLE.with(|table| {
            let mut table = table.borrow_mut();
            if let Some(cached) = table.get(text) {
                return cached.clone();
            }
            if table.len() >= INTERN_CAPACITY {
                table.clear();
            }
            let key = HashedKey::new(text);
            table.insert(Arc::clone(&key.0.text), key.clone());
            key
        })
    }

    /// The canonical key string.
    pub fn as_str(&self) -> &str {
        &self.0.text
    }

    /// The interned string, shareable without copying.
    pub fn text(&self) -> &Arc<str> {
        &self.0.text
    }

    /// The precomputed ring identifier: `Hash(text)` for unsplit keys, the
    /// partition-salted identifier for sub-keys of a split hot key.
    pub fn id(&self) -> Id {
        self.0.id
    }

    /// The ring identifier as a raw `u64`, the map key used throughout the
    /// hot path.
    pub fn ring(&self) -> u64 {
        self.0.id.0
    }

    /// Sub-key `part` of `parts` of this key: same interned text, ring
    /// identifier salted with the partition coordinates. Splitting an
    /// already-split key re-partitions from the base identifier (partitions
    /// do not nest).
    ///
    /// # Panics
    /// Panics unless `parts >= 2` and `part < parts`.
    pub fn split_part(&self, part: u32, parts: u32) -> HashedKey {
        assert!(parts >= 2, "a split needs at least two partitions");
        assert!(part < parts, "partition index out of range");
        let base = self.base_ring();
        HashedKey(Arc::new(KeyParts {
            text: Arc::clone(&self.0.text),
            id: Id(salt_partition(base, part, parts)),
            partition: Some((part, parts)),
        }))
    }

    /// The partition coordinates `(p, s)` of a sub-key, `None` for unsplit
    /// keys.
    pub fn partition(&self) -> Option<(u32, u32)> {
        self.0.partition
    }

    /// The ring identifier of the *unsplit* base key — `ring()` for
    /// ordinary keys, the pre-salt identifier for sub-keys. This is the
    /// aggregation key that folds all partitions of one logical hot key
    /// back together (telemetry, split-map lookups).
    pub fn base_ring(&self) -> u64 {
        match self.0.partition {
            None => self.0.id.0,
            Some(_) => Id::hash_key(&self.0.text).0,
        }
    }
}

impl PartialEq for HashedKey {
    fn eq(&self, other: &Self) -> bool {
        // Fast path on the digest; fall back to the text (and the partition
        // coordinates) so behaviour is correct even under digest collisions.
        let (a, b) = (&*self.0, &*other.0);
        a.id == b.id && a.partition == b.partition && a.text == b.text
    }
}

impl Eq for HashedKey {}

impl std::hash::Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal texts imply equal ids, so hashing the id alone is consistent
        // with `Eq` — and free, because the id was computed at construction.
        state.write_u64(self.0.id.0);
    }
}

impl PartialOrd for HashedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HashedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (a, b) = (&*self.0, &*other.0);
        a.text.cmp(&b.text).then_with(|| a.partition.cmp(&b.partition))
    }
}

impl fmt::Display for HashedKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.text)?;
        if let Some((part, parts)) = self.0.partition {
            write!(f, "[{part}/{parts}]")?;
        }
        Ok(())
    }
}

impl From<&str> for HashedKey {
    fn from(s: &str) -> Self {
        HashedKey::new(s)
    }
}

impl From<String> for HashedKey {
    fn from(s: String) -> Self {
        HashedKey::new(s)
    }
}

/// ASCII unit separator: joins the canonical text and the partition suffix
/// in the serialized form. The canonical key grammar (`Rel+Attr[+value]`)
/// never produces control characters, so the split form is unambiguous.
const PARTITION_SEP: char = '\u{1f}';

// Serialized as the canonical text plus the partition coordinates — in JSON
// the bare string with a `\u{1f}p/s` suffix for sub-keys of a split hot key,
// in binary the string followed by an `Option<(p, s)>`. The ring identifier
// is re-derived on deserialization, so neither form carries redundancy.
impl Serialize for HashedKey {
    fn serialize_json(&self) -> JsonValue {
        match self.0.partition {
            None => JsonValue::Str(self.0.text.to_string()),
            Some((part, parts)) => {
                JsonValue::Str(format!("{}{PARTITION_SEP}{part}/{parts}", self.0.text))
            }
        }
    }

    fn serialize_bin(&self, out: &mut Vec<u8>) {
        bin::write_str(out, &self.0.text);
        self.0.partition.serialize_bin(out);
    }
}

impl Deserialize for HashedKey {
    fn deserialize_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v {
            JsonValue::Str(s) => match s.split_once(PARTITION_SEP) {
                None => Ok(HashedKey::new(s.as_str())),
                Some((text, coords)) => {
                    let parsed = coords
                        .split_once('/')
                        .and_then(|(p, n)| Some((p.parse().ok()?, n.parse().ok()?)))
                        .filter(|&(p, n): &(u32, u32)| n >= 2 && p < n);
                    match parsed {
                        Some((part, parts)) => Ok(HashedKey::new(text).split_part(part, parts)),
                        None => Err(JsonError::expected("key partition suffix", v)),
                    }
                }
            },
            other => Err(JsonError::expected("string", other)),
        }
    }

    fn deserialize_bin(input: &mut &[u8]) -> Result<Self, BinError> {
        // Interned: a reader thread sees the same keys over and over.
        let key = HashedKey::intern(bin::read_str(input)?);
        match Option::<(u32, u32)>::deserialize_bin(input)? {
            None => Ok(key),
            Some((part, parts)) if parts >= 2 && part < parts => Ok(key.split_part(part, parts)),
            Some(_) => Err(BinError::Invalid("key partition coordinates")),
        }
    }
}

/// A hasher for keys that are already uniformly distributed ring
/// identifiers (SHA-1 prefixes): instead of running SipHash over 8 bytes it
/// applies one cheap 64-bit avalanche round, which preserves the uniformity
/// of the digest while still decorrelating accidental arithmetic structure.
#[derive(Debug, Clone, Copy, Default)]
pub struct RingHasher {
    state: u64,
}

impl Hasher for RingHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (used e.g. when a tuple of keys is hashed): fold the
        // bytes in 8-byte chunks through the same mix.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, i: u64) {
        // splitmix64 finalizer: far cheaper than SipHash for a single word.
        self.state = mix64(self.state ^ i);
    }
}

/// `BuildHasher` for [`RingHasher`]-backed maps.
pub type RingBuildHasher = BuildHasherDefault<RingHasher>;

/// A hash map keyed by `u64` ring identifiers.
pub type RingMap<V> = HashMap<u64, V, RingBuildHasher>;

/// A hash set of `u64` ring identifiers.
pub type RingSet = HashSet<u64, RingBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn hashed_key_matches_hash_key() {
        let k = HashedKey::new("R+A+i:7");
        assert_eq!(k.id(), Id::hash_key("R+A+i:7"));
        assert_eq!(k.ring(), Id::hash_key("R+A+i:7").0);
        assert_eq!(k.as_str(), "R+A+i:7");
        assert_eq!(k.to_string(), "R+A+i:7");
    }

    #[test]
    fn clones_share_the_interned_text() {
        let k = HashedKey::new("R+A");
        let c = k.clone();
        assert!(Arc::ptr_eq(k.text(), c.text()));
        assert_eq!(k, c);
    }

    #[test]
    fn equality_and_std_hash_are_consistent() {
        let a = HashedKey::new("R+A");
        let b = HashedKey::from("R+A".to_string());
        let c = HashedKey::from("R+B");
        assert_eq!(a, b);
        assert_ne!(a, c);

        let hash = |k: &HashedKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn ordering_follows_the_text() {
        let mut keys = [HashedKey::new("S+B"), HashedKey::new("R+A")];
        keys.sort();
        assert_eq!(keys[0].as_str(), "R+A");
    }

    #[test]
    fn serde_round_trips_through_the_string_form() {
        let k = HashedKey::new("R+A+s:x");
        let v = k.serialize_json();
        let back = HashedKey::deserialize_json(&v).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.id(), k.id());
        assert!(HashedKey::deserialize_json(&JsonValue::Int(3)).is_err());

        let bytes = bin::to_vec(&k);
        assert_eq!(bytes.len(), 1 + "R+A+s:x".len() + 1, "text and a `None` marker, no ring id");
        let back: HashedKey = bin::from_slice(&bytes).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.id(), k.id());
    }

    #[test]
    fn split_parts_share_text_but_scatter_ring_ids() {
        let base = HashedKey::new("R+A");
        let parts: Vec<HashedKey> = (0..4).map(|p| base.split_part(p, 4)).collect();
        for (p, key) in parts.iter().enumerate() {
            assert!(Arc::ptr_eq(base.text(), key.text()), "sub-keys share the interned text");
            assert_eq!(key.partition(), Some((p as u32, 4)));
            assert_eq!(key.base_ring(), base.ring());
            assert_ne!(key.ring(), base.ring(), "partition salt must move the identifier");
            assert_ne!(*key, base);
        }
        // All sub-key identifiers are pairwise distinct.
        let mut rings: Vec<u64> = parts.iter().map(HashedKey::ring).collect();
        rings.sort_unstable();
        rings.dedup();
        assert_eq!(rings.len(), 4);
        // Deterministic: the same coordinates always give the same sub-key.
        assert_eq!(base.split_part(2, 4), parts[2]);
        // Different partition counts are different splits.
        assert_ne!(base.split_part(0, 2).ring(), base.split_part(0, 4).ring());
        // Re-splitting a sub-key re-partitions from the base, not the salt.
        assert_eq!(parts[1].split_part(3, 8), base.split_part(3, 8));
    }

    #[test]
    fn split_part_display_shows_coordinates() {
        let k = HashedKey::new("R+A").split_part(1, 3);
        assert_eq!(k.to_string(), "R+A[1/3]");
        assert_eq!(k.as_str(), "R+A");
    }

    #[test]
    #[should_panic(expected = "partition index out of range")]
    fn split_part_rejects_out_of_range_partitions() {
        let _ = HashedKey::new("R+A").split_part(3, 3);
    }

    #[test]
    fn serde_round_trips_partitioned_keys() {
        let k = HashedKey::new("R+A+i:7").split_part(2, 5);
        let v = k.serialize_json();
        let back = HashedKey::deserialize_json(&v).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.ring(), k.ring());
        assert_eq!(back.partition(), Some((2, 5)));
        // A malformed partition suffix is rejected, not silently dropped.
        let bad = JsonValue::Str(format!("R+A{}9/2", '\u{1f}'));
        assert!(HashedKey::deserialize_json(&bad).is_err());

        let back: HashedKey = bin::from_slice(&bin::to_vec(&k)).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.ring(), k.ring());
        assert_eq!(back.partition(), Some((2, 5)));
        // Out-of-range coordinates are an error, not a `split_part` panic.
        let bad = bin::to_vec(&("R+A", Some((9u32, 2u32))));
        assert_eq!(
            bin::from_slice::<HashedKey>(&bad),
            Err(BinError::Invalid("key partition coordinates"))
        );
    }

    #[test]
    fn ring_map_stores_and_finds_by_ring_id() {
        let mut m: RingMap<&str> = RingMap::default();
        let k = HashedKey::new("R+A");
        m.insert(k.ring(), "hello");
        assert_eq!(m.get(&k.ring()), Some(&"hello"));
        assert_eq!(m.get(&HashedKey::new("S+B").ring()), None);
    }

    #[test]
    fn ring_hasher_avalanches_single_words() {
        let b = RingBuildHasher::default();
        let h1 = b.hash_one(1u64);
        let h2 = b.hash_one(2u64);
        assert_ne!(h1, h2);
        // Deterministic across builders (no per-instance randomness).
        assert_eq!(h1, RingBuildHasher::default().hash_one(1u64));
    }
}
