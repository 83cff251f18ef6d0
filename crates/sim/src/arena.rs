//! A generation-indexed arena: pool-allocated slots addressed by copyable
//! handles, with stale-handle detection.
//!
//! The network layer stores every in-flight packet here and threads
//! 8-byte [`ArenaRef`] handles through buffers and events instead of
//! moving near-cache-line packet structs around. Slots are recycled through
//! a free list, so after the arena reaches its high-water mark the
//! steady-state simulation path performs no heap allocation; each slot
//! carries a generation counter bumped on removal, so a handle kept past
//! its packet's lifetime is caught (`get` returns `None`, `remove`
//! panics) instead of silently aliasing a recycled slot.

/// A copyable handle into a [`GenArena`]. Valid until the entry it points
/// at is removed; stale handles are detected via the generation counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaRef {
    index: u32,
    generation: u32,
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A generational slot arena with free-list recycling and a high-water
/// mark.
///
/// # Example
///
/// ```
/// use mn_sim::GenArena;
///
/// let mut arena: GenArena<&'static str> = GenArena::new();
/// let a = arena.insert("alpha");
/// let b = arena.insert("beta");
/// assert_eq!(arena.get(a), Some(&"alpha"));
/// assert_eq!(arena.remove(b), "beta");
/// assert_eq!(arena.get(b), None); // stale handle detected
/// let c = arena.insert("gamma"); // recycles b's slot, no allocation
/// assert_eq!(arena.get(c), Some(&"gamma"));
/// assert_eq!(arena.high_water(), 2);
/// ```
#[derive(Debug, Default)]
pub struct GenArena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
    high_water: usize,
}

impl<T> GenArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        GenArena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            high_water: 0,
        }
    }

    /// Creates an empty arena with room for `capacity` entries before any
    /// slot allocation.
    pub fn with_capacity(capacity: usize) -> Self {
        GenArena {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            len: 0,
            high_water: 0,
        }
    }

    /// Stores `value`, returning a handle to it. Recycles a freed slot if
    /// one exists; otherwise grows the slot vector.
    pub fn insert(&mut self, value: T) -> ArenaRef {
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none());
            slot.value = Some(value);
            ArenaRef {
                index,
                generation: slot.generation,
            }
        } else {
            let index = u32::try_from(self.slots.len()).expect("arena overflow");
            self.slots.push(Slot {
                generation: 0,
                value: Some(value),
            });
            ArenaRef {
                index,
                generation: 0,
            }
        }
    }

    /// The entry behind `handle`, or `None` if it was removed (stale
    /// generation).
    pub fn get(&self, handle: ArenaRef) -> Option<&T> {
        let slot = self.slots.get(handle.index as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutable access to the entry behind `handle`, or `None` if stale.
    pub fn get_mut(&mut self, handle: ArenaRef) -> Option<&mut T> {
        let slot = self.slots.get_mut(handle.index as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// Removes and returns the entry behind `handle`, bumping the slot's
    /// generation so outstanding copies of the handle turn stale.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale or the slot is already empty — a
    /// double-free in the caller's lifetime logic.
    pub fn remove(&mut self, handle: ArenaRef) -> T {
        let slot = &mut self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "stale arena handle (slot recycled)"
        );
        let value = slot.value.take().expect("arena slot already empty");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index);
        self.len -= 1;
        value
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most entries ever live at once — the slot count the arena had
    /// to materialize. Post-warm-up inserts below this mark never
    /// allocate.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of materialized slots (live + recyclable).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena = GenArena::new();
        let a = arena.insert(10);
        let b = arena.insert(20);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), Some(&10));
        *arena.get_mut(b).unwrap() += 1;
        assert_eq!(arena.remove(b), 21);
        assert_eq!(arena.remove(a), 10);
        assert!(arena.is_empty());
    }

    #[test]
    fn stale_handles_are_detected() {
        let mut arena = GenArena::new();
        let a = arena.insert('x');
        arena.remove(a);
        assert_eq!(arena.get(a), None);
        let b = arena.insert('y'); // recycles the slot
        assert_eq!(b.index, a.index);
        assert_ne!(b.generation, a.generation);
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.get(b), Some(&'y'));
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn double_remove_panics() {
        let mut arena = GenArena::new();
        let a = arena.insert(1);
        arena.remove(a);
        arena.insert(2); // recycle
        arena.remove(a);
    }

    #[test]
    fn recycling_holds_slot_count_at_high_water() {
        let mut arena = GenArena::with_capacity(4);
        let mut live = Vec::new();
        for i in 0..4 {
            live.push(arena.insert(i));
        }
        assert_eq!(arena.high_water(), 4);
        for _ in 0..100 {
            let h = live.pop().unwrap();
            arena.remove(h);
            live.push(arena.insert(0));
        }
        assert_eq!(arena.capacity(), 4);
        assert_eq!(arena.high_water(), 4);
    }
}
