//! A minimal generational slab: stable handles over a free-list arena.
//!
//! # Why a slab
//!
//! A node's stored queries are the one store whose entries leave one at a
//! time — a windowed query when its expiry deadline pops — while other
//! structures refer to them: the sub-join registry, the trigger index and
//! the node's deadline heap. Stored inline in per-ring `Vec` buckets, every removal
//! would be positional: `swap_remove` shuffles the positions of the
//! survivors, so anything that referred to an entry by position had to be
//! revalidated or rebuilt, and the cost of *one* removal scaled with
//! *total* stored state. (Tuples need none of this: they leave a ring all
//! at once or from the front, so `NodeState` keeps them in
//! publication-ordered lists without handles.)
//!
//! With a slab, entries live at a fixed index for their whole lifetime and
//! buckets hold copyable [`Handle`]s. Removing an entry is `O(1)` in the
//! slab, the bucket fix-up touches only that bucket, and every external
//! reference (registry slot, expiry deadline) can be kept as a handle
//! that is *checked*, not maintained: each slot carries a generation
//! counter bumped on removal, so a stale handle reliably resolves to
//! `None` instead of aliasing whatever reused the slot. Deferred
//! invalidation is what makes `O(active)` expiry possible — nothing ever
//! has to eagerly chase down every reference to a dying entry.
//!
//! Vendored-style: self-contained, no registry dependencies.

/// A stable reference to a slab entry: slot index plus the generation the
/// slot had when the entry was inserted. A handle outlives its entry
/// safely — after removal (or slot reuse) it simply stops resolving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle {
    index: u32,
    generation: u32,
}

/// Slots per chunk of the arena.
const CHUNK: usize = 16;

/// A generational arena with O(1) insert/remove and stable handles.
///
/// The arena grows a chunk of [`CHUNK`] slots at a time and never moves a
/// slot: entries are wide (a stored query is 72 bytes) and mostly written
/// once, so doubling one contiguous vector would copy every entry again
/// each time a node's store grew. Chunks are small, so a node leaves at
/// most a few slots unused. A slot is an `Option<T>` — no wider than `T`
/// when `T` has a niche, as a stored query does — and the slots'
/// generations sit in one array of their own, so a generation costs four
/// bytes, not a word of padding next to each entry.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    chunks: Vec<Vec<Option<T>>>,
    /// The generation of every slot ever handed out, by slot index.
    generations: Vec<u32>,
    free: Vec<u32>,
    len: usize,
    high_water: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            chunks: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            len: 0,
            high_water: 0,
        }
    }
}

impl<T> Slab<T> {
    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no live entries.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most entries that were ever live at once (capacity gauge).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The slot behind `handle`, if the handle is of its current generation.
    fn slot_mut(&mut self, handle: Handle) -> Option<&mut Option<T>> {
        if *self.generations.get(handle.index as usize)? != handle.generation {
            return None;
        }
        let index = handle.index as usize;
        self.chunks.get_mut(index / CHUNK)?.get_mut(index % CHUNK)
    }

    /// Inserts a value and returns its stable handle.
    pub fn insert(&mut self, value: T) -> Handle {
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        match self.free.pop() {
            Some(index) => {
                let i = index as usize;
                let slot = &mut self.chunks[i / CHUNK][i % CHUNK];
                debug_assert!(slot.is_none(), "free list points at an occupied slot");
                *slot = Some(value);
                Handle { index, generation: self.generations[i] }
            }
            None => {
                if self.chunks.last().is_none_or(|chunk| chunk.len() == CHUNK) {
                    self.chunks.push(Vec::with_capacity(CHUNK));
                }
                let index = u32::try_from(self.generations.len())
                    .expect("slab capacity exceeds u32 indices");
                self.chunks.last_mut().expect("pushed above").push(Some(value));
                self.generations.push(0);
                Handle { index, generation: 0 }
            }
        }
    }

    /// The entry behind `handle`, if it is still live.
    pub fn get(&self, handle: Handle) -> Option<&T> {
        if *self.generations.get(handle.index as usize)? != handle.generation {
            return None;
        }
        let index = handle.index as usize;
        self.chunks.get(index / CHUNK)?.get(index % CHUNK)?.as_ref()
    }

    /// Mutable access to the entry behind `handle`, if it is still live.
    pub fn get_mut(&mut self, handle: Handle) -> Option<&mut T> {
        self.slot_mut(handle)?.as_mut()
    }

    /// Whether `handle` still resolves to a live entry.
    #[cfg(test)]
    pub fn contains(&self, handle: Handle) -> bool {
        self.get(handle).is_some()
    }

    /// Removes and returns the entry behind `handle`. The slot's generation
    /// is bumped, so every outstanding copy of the handle goes stale
    /// atomically — including after the slot is reused.
    pub fn remove(&mut self, handle: Handle) -> Option<T> {
        let value = self.slot_mut(handle)?.take()?;
        let generation = &mut self.generations[handle.index as usize];
        *generation = generation.wrapping_add(1);
        self.free.push(handle.index);
        self.len -= 1;
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut slab = Slab::default();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get(b), Some(&"b"));
    }

    #[test]
    fn stale_handles_never_alias_reused_slots() {
        let mut slab = Slab::default();
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        // The slot is reused but the generation moved on.
        assert_eq!(slab.get(a), None);
        assert!(!slab.contains(a));
        assert_eq!(slab.remove(a), None, "double-remove must be a no-op");
        assert_eq!(slab.get(b), Some(&2));
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut slab = Slab::default();
        let h = slab.insert(vec![1]);
        slab.get_mut(h).unwrap().push(2);
        assert_eq!(slab.get(h), Some(&vec![1, 2]));
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut slab = Slab::default();
        let handles: Vec<_> = (0..5).map(|i| slab.insert(i)).collect();
        assert_eq!(slab.high_water(), 5);
        for h in &handles {
            slab.remove(*h);
        }
        assert_eq!(slab.len(), 0);
        assert!(slab.is_empty());
        assert_eq!(slab.high_water(), 5, "high water survives removals");
        slab.insert(9);
        assert_eq!(slab.high_water(), 5);
    }

    #[test]
    fn free_slots_are_reused() {
        let mut slab = Slab::default();
        let handles: Vec<_> = (0..100).map(|i| slab.insert(i)).collect();
        for h in handles {
            slab.remove(h);
        }
        for i in 0..100 {
            slab.insert(i);
        }
        assert_eq!(slab.len(), 100);
        assert_eq!(slab.high_water(), 100, "reuse must not grow the arena");
    }

    /// Handles stay valid — and entries stay put — while the arena grows
    /// chunk after chunk.
    #[test]
    fn growth_across_chunks_keeps_entries_in_place() {
        let mut slab = Slab::default();
        let handles: Vec<_> = (0..5 * CHUNK + 3).map(|i| slab.insert(i)).collect();
        let first: *const usize = slab.get(handles[0]).unwrap();
        for i in 0..10 * CHUNK {
            slab.insert(i);
        }
        assert!(std::ptr::eq(first, slab.get(handles[0]).unwrap()));
        for (i, handle) in handles.iter().enumerate() {
            assert_eq!(slab.get(*handle), Some(&i));
        }
        assert_eq!(slab.remove(handles[CHUNK]), Some(CHUNK));
        assert_eq!(slab.insert(7), Handle { index: CHUNK as u32, generation: 1 });
    }
}
