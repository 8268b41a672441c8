//! The engine-set buffer's line store: a chunk-indexed map that keeps
//! its entries in least-recently-used order.
//!
//! Entries live in a dense slab threaded by an intrusive doubly linked
//! list (oldest at the head), and a hash map points each chunk index at
//! its slot. Lookup, touch, insert and remove are all O(1), so a buffer
//! hit costs one hash lookup and a relink whatever the buffer's size.

use std::collections::HashMap;

/// "No slot" link marker.
const NIL: usize = usize::MAX;

struct Slot<V> {
    key: u32,
    value: V,
    prev: usize,
    next: usize,
}

/// A map from chunk index to `V` in least-recently-used order.
pub(crate) struct LruMap<V> {
    slots: Vec<Slot<V>>,
    index: HashMap<u32, usize>,
    /// Least recently used slot.
    head: usize,
    /// Most recently used slot.
    tail: usize,
}

impl<V> Default for LruMap<V> {
    fn default() -> Self {
        LruMap {
            slots: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<V> LruMap<V> {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The entry for `key` (does not change the order).
    pub(crate) fn get(&self, key: u32) -> Option<&V> {
        self.index.get(&key).map(|&i| &self.slots[i].value)
    }

    /// The entry for `key`, mutably (does not change the order).
    pub(crate) fn get_mut(&mut self, key: u32) -> Option<&mut V> {
        let i = *self.index.get(&key)?;
        Some(&mut self.slots[i].value)
    }

    /// Marks `key` most recently used and returns its entry.
    pub(crate) fn touch(&mut self, key: u32) -> Option<&mut V> {
        let i = *self.index.get(&key)?;
        if i != self.tail {
            self.unlink(i);
            self.link_back(i);
        }
        Some(&mut self.slots[i].value)
    }

    /// Inserts `key` as most recently used, replacing any resident entry.
    pub(crate) fn insert(&mut self, key: u32, value: V) {
        if let Some(slot) = self.touch(key) {
            *slot = value;
            return;
        }
        let i = self.slots.len();
        self.slots.push(Slot {
            key,
            value,
            prev: NIL,
            next: NIL,
        });
        self.index.insert(key, i);
        self.link_back(i);
    }

    /// Removes `key`, returning its entry.
    pub(crate) fn remove(&mut self, key: u32) -> Option<V> {
        let i = self.index.remove(&key)?;
        self.unlink(i);
        let last = self.slots.len() - 1;
        if i != last {
            // Move the last slot into the hole and repoint its links.
            self.slots.swap(i, last);
            let (moved, prev, next) = (self.slots[i].key, self.slots[i].prev, self.slots[i].next);
            self.index.insert(moved, i);
            match prev {
                NIL => self.head = i,
                p => self.slots[p].next = i,
            }
            match next {
                NIL => self.tail = i,
                n => self.slots[n].prev = i,
            }
        }
        self.slots.pop().map(|slot| slot.value)
    }

    /// The least recently used key.
    pub(crate) fn oldest(&self) -> Option<u32> {
        (self.head != NIL).then(|| self.slots[self.head].key)
    }

    /// Keys from least to most recently used.
    pub(crate) fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            let slot = self.slots.get(cur)?;
            cur = slot.next;
            Some(slot.key)
        })
    }

    /// Every entry, in no particular order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().map(|slot| &slot.value)
    }

    /// Drops every entry, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn link_back(&mut self, i: usize) {
        self.slots[i].prev = self.tail;
        self.slots[i].next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.slots[t].next = i,
        }
        self.tail = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Drives an `LruMap` and a reference `VecDeque` order (scan,
    /// remove, push back) through the same random operations and
    /// compares them after every step.
    #[test]
    fn matches_a_scan_and_shift_reference() {
        let mut map: LruMap<u64> = LruMap::default();
        let mut order: VecDeque<u32> = VecDeque::new();
        let mut values: HashMap<u32, u64> = HashMap::new();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = ((state >> 33) % 24) as u32;
            let touch = |order: &mut VecDeque<u32>| {
                if let Some(pos) = order.iter().position(|&k| k == key) {
                    order.remove(pos);
                }
                order.push_back(key);
            };
            match (state >> 60) % 4 {
                0 => {
                    map.insert(key, step);
                    values.insert(key, step);
                    touch(&mut order);
                }
                1 => {
                    let got = map.touch(key).map(|v| *v);
                    assert_eq!(got, values.get(&key).copied());
                    if got.is_some() {
                        touch(&mut order);
                    }
                }
                2 => {
                    assert_eq!(map.remove(key), values.remove(&key));
                    order.retain(|&k| k != key);
                }
                _ => {
                    if let Some(oldest) = map.oldest() {
                        assert_eq!(Some(oldest), order.front().copied());
                        assert_eq!(map.remove(oldest), values.remove(&oldest));
                        order.pop_front();
                    }
                }
            }
            assert_eq!(map.len(), order.len());
            assert!(map.keys().eq(order.iter().copied()));
            assert_eq!(map.get(key).copied(), values.get(&key).copied());
        }
        map.clear();
        assert_eq!(map.len(), 0);
        assert_eq!(map.oldest(), None);
        assert_eq!(map.keys().count(), 0);
    }
}
