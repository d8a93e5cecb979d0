//! Byte-weighted LRU cache with O(1) operations.
//!
//! Backing structure: a slot arena forming an intrusive doubly-linked list
//! (most-recent at head) plus a `HashMap` from key to slot index. Entries
//! carry a byte weight; inserting evicts from the tail until the configured
//! capacity holds. Used by both layers of the paper's hierarchical design —
//! the in-memory vector-index cache (§II-D) and a worker's decoded column
//! data, one instance for blocks and one for whole columns (§IV-C).

use bh_common::metrics::Counter;
use bh_common::{qctx, MetricsRegistry};
use bh_common::sync::{classes, Mutex};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

const NIL: usize = usize::MAX;

/// One cache's row of `system.caches`: `(name, used, capacity, entries,
/// hits, misses, evictions)`, weights in bytes.
pub type CacheRow = (&'static str, usize, usize, usize, u64, u64, u64);

struct Slot<K, V> {
    key: K,
    /// `None` once the slot is on the free list: a freed slot keeps nothing
    /// alive.
    value: Option<V>,
    weight: usize,
    prev: usize,
    next: usize,
}

struct Inner<K, V> {
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    map: HashMap<K, usize>,
    head: usize,
    tail: usize,
    used: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Thread-safe byte-weighted LRU.
pub struct LruCache<K: Eq + Hash + Clone, V: Clone> {
    inner: Mutex<Inner<K, V>>,
    /// Registry-backed `cache.<label>.{hit,miss}` counters, if attached.
    hit_ctr: Option<Arc<Counter>>,
    miss_ctr: Option<Arc<Counter>>,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// `capacity` is in weight units (bytes). Zero capacity caches nothing.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(&classes::LRU_INNER, Inner {
                slots: Vec::new(),
                free: Vec::new(),
                map: HashMap::new(),
                head: NIL,
                tail: NIL,
                used: 0,
                capacity,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            hit_ctr: None,
            miss_ctr: None,
        }
    }

    /// A cache that also reports hits/misses to the registry under the
    /// standardized `cache.<label>.{hit,miss}` counter names (DESIGN.md §9).
    pub fn with_metrics(capacity: usize, metrics: &MetricsRegistry, label: &str) -> Self {
        let mut c = Self::new(capacity);
        c.hit_ctr = Some(metrics.counter(&format!("cache.{label}.hit")));
        c.miss_ctr = Some(metrics.counter(&format!("cache.{label}.miss")));
        c
    }

    /// Look up and mark as most-recently used.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut g = self.inner.lock();
        match g.map.get(key).copied() {
            Some(idx) => {
                g.hits += 1;
                if let Some(c) = &self.hit_ctr {
                    qctx::cache_hit(c);
                }
                g.unlink(idx);
                g.push_front(idx);
                g.slots[idx].value.clone()
            }
            None => {
                g.misses += 1;
                if let Some(c) = &self.miss_ctr {
                    qctx::cache_miss(c);
                }
                None
            }
        }
    }

    /// Peek without touching recency or hit counters.
    pub fn contains(&self, key: &K) -> bool {
        self.inner.lock().map.contains_key(key)
    }

    /// Insert (or replace) an entry of the given weight, evicting LRU entries
    /// as needed. Entries heavier than the whole capacity are not cached.
    pub fn put(&self, key: K, value: V, weight: usize) {
        let mut g = self.inner.lock();
        if weight > g.capacity {
            // Too large to ever fit — drop, and drop any stale previous entry.
            if let Some(idx) = g.map.remove(&key) {
                g.release(idx);
            }
            return;
        }
        if let Some(idx) = g.map.get(&key).copied() {
            g.used = g.used - g.slots[idx].weight + weight;
            g.slots[idx].value = Some(value);
            g.slots[idx].weight = weight;
            g.unlink(idx);
            g.push_front(idx);
        } else {
            let idx = g.alloc(key.clone(), value, weight);
            g.map.insert(key, idx);
            g.push_front(idx);
            g.used += weight;
        }
        while g.used > g.capacity {
            g.evict_tail();
        }
    }

    /// Remove an entry.
    pub fn remove(&self, key: &K) -> Option<V> {
        let mut g = self.inner.lock();
        let idx = g.map.remove(key)?;
        g.release(idx)
    }

    /// Drop everything.
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.map.clear();
        g.slots.clear();
        g.free.clear();
        g.head = NIL;
        g.tail = NIL;
        g.used = 0;
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current total weight of cached entries.
    pub fn used_bytes(&self) -> usize {
        self.inner.lock().used
    }

    /// Configured capacity in weight units.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// This cache's `system.caches` row under `name`, read in one lock.
    pub fn cache_row(&self, name: &'static str) -> CacheRow {
        let g = self.inner.lock();
        (name, g.used, g.capacity, g.map.len(), g.hits, g.misses, g.evictions)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Inner<K, V> {
    fn alloc(&mut self, key: K, value: V, weight: usize) -> usize {
        let value = Some(value);
        if let Some(idx) = self.free.pop() {
            self.slots[idx] = Slot { key, value, weight, prev: NIL, next: NIL };
            idx
        } else {
            self.slots.push(Slot { key, value, weight, prev: NIL, next: NIL });
            self.slots.len() - 1
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    /// Free a slot already dropped from `map`: unlink it, return it to the
    /// free list and move its value out.
    fn release(&mut self, idx: usize) -> Option<V> {
        self.unlink(idx);
        self.used -= self.slots[idx].weight;
        self.free.push(idx);
        self.slots[idx].value.take()
    }

    fn evict_tail(&mut self) {
        let idx = self.tail;
        if idx == NIL {
            return;
        }
        self.map.remove(&self.slots[idx].key);
        self.release(idx);
        self.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_get_put() {
        let c = LruCache::new(100);
        assert!(c.get(&"a").is_none());
        c.put("a", 1, 10);
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.cache_row("t"), ("t", 10, 100, 1, 1, 1, 0));
    }

    #[test]
    fn eviction_is_lru_order() {
        let c = LruCache::new(30);
        c.put("a", 1, 10);
        c.put("b", 2, 10);
        c.put("c", 3, 10);
        // Touch "a" so "b" is now least recent.
        c.get(&"a");
        c.put("d", 4, 10);
        assert!(c.get(&"b").is_none(), "b should have been evicted");
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.get(&"d"), Some(4));
        let (.., evictions) = c.cache_row("t");
        assert_eq!(evictions, 1);
    }

    #[test]
    fn oversized_entry_not_cached() {
        let c = LruCache::new(10);
        c.put("big", 1, 100);
        assert!(c.get(&"big").is_none());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn replace_updates_weight() {
        let c = LruCache::new(100);
        c.put("a", 1, 40);
        c.put("a", 2, 10);
        assert_eq!(c.get(&"a"), Some(2));
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_and_clear() {
        let c = LruCache::new(100);
        c.put("a", 1, 5);
        c.put("b", 2, 5);
        assert_eq!(c.remove(&"a"), Some(1));
        assert!(c.get(&"a").is_none());
        assert_eq!(c.used_bytes(), 5);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    /// A freed slot must not keep its value alive until the slot is reused.
    #[test]
    fn evicted_and_removed_values_are_released() {
        let c = LruCache::new(10);
        let v = Arc::new(0u8);
        c.put("a", v.clone(), 10);
        c.put("b", Arc::new(1), 10); // evicts "a"
        assert_eq!(Arc::strong_count(&v), 1, "evicted value still held");
        c.put("a", v.clone(), 10); // evicts "b", reuses a freed slot
        assert_eq!(c.remove(&"a").map(|r| Arc::ptr_eq(&r, &v)), Some(true));
        assert_eq!(Arc::strong_count(&v), 1, "removed value still held");
        c.put("c", v.clone(), 5);
        c.put("c", Arc::new(2), 11); // too heavy: drops the stale "c" too
        assert_eq!(Arc::strong_count(&v), 1, "replaced value still held");
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let c = LruCache::new(0);
        c.put("a", 1, 1);
        assert!(c.get(&"a").is_none());
    }

    #[test]
    fn with_metrics_reports_standard_counters() {
        let m = MetricsRegistry::new();
        let c = LruCache::with_metrics(100, &m, "decoded");
        c.put("a", 1, 10);
        c.get(&"a");
        c.get(&"b");
        assert_eq!(m.counter_value("cache.decoded.hit"), 1);
        assert_eq!(m.counter_value("cache.decoded.miss"), 1);
        // Internal stats stay in lockstep with the registry counters.
        let (.., hits, misses, _) = c.cache_row("decoded");
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn heavy_churn_stays_within_capacity() {
        let c = LruCache::new(1000);
        for i in 0..10_000u32 {
            c.put(i, i, (i % 97) as usize + 1);
            assert!(c.used_bytes() <= 1000, "over capacity at {i}");
        }
        assert!(!c.is_empty());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = std::sync::Arc::new(LruCache::new(500));
        let mut handles = vec![];
        for t in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u32 {
                    let k = t * 1000 + i % 100;
                    c.put(k, k, 7);
                    c.get(&k);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.used_bytes() <= 500);
    }

    proptest! {
        #[test]
        fn prop_matches_reference_model(
            capacity in 1usize..200,
            ops in proptest::collection::vec((0u8..3, 0u32..20, 1usize..50), 0..200),
        ) {
            let cache = LruCache::new(capacity);
            // Reference: Vec of (key, weight) in MRU→LRU order.
            let mut model: Vec<(u32, usize)> = Vec::new();
            for (op, key, weight) in ops {
                match op {
                    0 => {
                        // put
                        model.retain(|&(k, _)| k != key);
                        if weight <= capacity {
                            model.insert(0, (key, weight));
                            while model.iter().map(|&(_, w)| w).sum::<usize>() > capacity {
                                model.pop();
                            }
                        }
                        cache.put(key, key, weight);
                    }
                    1 => {
                        // get
                        let got = cache.get(&key);
                        let pos = model.iter().position(|&(k, _)| k == key);
                        prop_assert_eq!(got.is_some(), pos.is_some());
                        if let Some(p) = pos {
                            let e = model.remove(p);
                            model.insert(0, e);
                        }
                    }
                    _ => {
                        // remove
                        let got = cache.remove(&key);
                        let pos = model.iter().position(|&(k, _)| k == key);
                        prop_assert_eq!(got.is_some(), pos.is_some());
                        if let Some(p) = pos {
                            model.remove(p);
                        }
                    }
                }
                prop_assert_eq!(
                    cache.used_bytes(),
                    model.iter().map(|&(_, w)| w).sum::<usize>()
                );
                prop_assert_eq!(cache.len(), model.len());
            }
        }
    }
}
