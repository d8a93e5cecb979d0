//! Compact fixed-capacity bitset.
//!
//! Used in two hot paths:
//!
//! * **Delete bitmaps** (§III-B "Realtime update"): one bit per row of a
//!   segment, set when the row is superseded by a newer version.
//! * **Pre-filter masks** (§III-B "Pre-filter strategy"): the structured scan
//!   produces a bitset of qualifying row offsets, which the ANN bitmap scan
//!   then tests per visited candidate.
//!
//! The representation is a `Vec<u64>` of words; `contains` is a single shift
//! and mask, which is what makes the pre-filter ANN scan's per-record bitmap
//! test (`c_p` in the paper's cost model, Table II) cheap.

use serde::{Deserialize, Serialize};

/// Fixed-capacity bitset over row offsets `0..len`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// An empty (all-zero) bitset with capacity for `len` bits.
    pub fn new(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// A bitset with every bit in `0..len` set.
    pub fn full(len: usize) -> Self {
        let mut b = Self::new(len);
        for w in &mut b.words {
            *w = u64::MAX;
        }
        b.trim_tail();
        b
    }

    /// Build from an iterator of set positions. Positions `>= len` panic.
    pub fn from_positions(len: usize, positions: impl IntoIterator<Item = usize>) -> Self {
        let mut b = Self::new(len);
        for p in positions {
            b.set(p);
        }
        b
    }

    /// Bit `i` is `test(&items[i])`, assembled 64 items per output word with
    /// no branch on the outcome: a mispredicted branch per row is what a
    /// filter pays at mid selectivities, and a predicate kernel is exactly
    /// this loop with a comparison for `test`.
    pub fn from_tests<T>(items: &[T], mut test: impl FnMut(&T) -> bool) -> Self {
        // Eight 0/1 bytes to the eight bits of one byte: every partial
        // product of the multiplication lands on a bit of its own, the one
        // of byte `i` that matters on bit `56 + i`.
        const PACK: u64 = 0x0102_0408_1020_4080;
        let words = items
            .chunks(64)
            .map(|chunk| {
                // Outcomes as bytes first, so that rows do not wait on each
                // other through a shift-and-or chain.
                let mut outcomes = [0u8; 64];
                for (outcome, x) in outcomes.iter_mut().zip(chunk) {
                    *outcome = u8::from(test(x));
                }
                outcomes.chunks_exact(8).enumerate().fold(0u64, |word, (byte, eight)| {
                    let eight = <[u8; 8]>::try_from(eight).map_or(0, u64::from_le_bytes);
                    word | (eight.wrapping_mul(PACK) >> 56) << (8 * byte)
                })
            })
            .collect();
        Self { words, len: items.len() }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset addresses zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`. Panics if out of range.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Test bit `i`. Out-of-range reads return `false` (tolerant reads let the
    /// ANN bitmap scan probe without bounds bookkeeping).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_all_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True when every bit in `0..len` is set.
    pub fn is_all_set(&self) -> bool {
        self.count() == self.len
    }

    /// In-place union. Panics on length mismatch.
    pub fn union_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection. Panics on length mismatch.
    pub fn intersect_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self &= !other`). Panics on length mismatch.
    pub fn subtract(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Flip every bit in `0..len`.
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.trim_tail();
    }

    /// Iterate over set positions in ascending order.
    pub fn iter(&self) -> BitsetIter<'_> {
        BitsetIter { bitset: self, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// Approximate heap footprint in bytes (for cache accounting).
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8 + std::mem::size_of::<Self>()
    }

    /// Zero any bits beyond `len` in the last word so `count` stays exact.
    fn trim_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Ascending iterator over set bit positions.
pub struct BitsetIter<'a> {
    bitset: &'a Bitset,
    word_idx: usize,
    current: u64,
}

impl Iterator for BitsetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitset.words.len() {
                return None;
            }
            self.current = self.bitset.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_clear_contains_roundtrip() {
        let mut b = Bitset::new(130);
        assert!(!b.contains(0));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.contains(0) && b.contains(63) && b.contains(64) && b.contains(129));
        assert_eq!(b.count(), 4);
        b.clear(64);
        assert!(!b.contains(64));
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let b = Bitset::new(10);
        assert!(!b.contains(10));
        assert!(!b.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        let mut b = Bitset::new(10);
        b.set(10);
    }

    #[test]
    fn full_and_negate() {
        let mut b = Bitset::full(70);
        assert_eq!(b.count(), 70);
        assert!(b.is_all_set());
        b.negate();
        assert_eq!(b.count(), 0);
        assert!(b.is_all_clear());
        b.negate();
        assert_eq!(b.count(), 70); // tail bits beyond 70 must stay clear
    }

    #[test]
    fn empty_bitset() {
        let b = Bitset::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count(), 0);
        assert_eq!(b.iter().count(), 0);
        assert!(Bitset::full(0).is_all_clear());
    }

    #[test]
    fn iter_yields_ascending_positions() {
        let b = Bitset::from_positions(200, [5, 0, 199, 64, 65]);
        let v: Vec<_> = b.iter().collect();
        assert_eq!(v, vec![0, 5, 64, 65, 199]);
    }

    #[test]
    fn set_ops() {
        let mut a = Bitset::from_positions(100, [1, 2, 3]);
        let b = Bitset::from_positions(100, [3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    /// Full case count natively; a handful under Miri (each case costs
    /// seconds there) and no failure-persistence file I/O.
    fn config() -> ProptestConfig {
        if cfg!(miri) {
            ProptestConfig { cases: 8, failure_persistence: None, ..ProptestConfig::default() }
        } else {
            ProptestConfig::default()
        }
    }

    proptest! {
        #![proptest_config(config())]

        #[test]
        fn prop_from_positions_matches_reference(
            len in 1usize..500,
            picks in proptest::collection::vec(0usize..500, 0..60),
        ) {
            let picks: Vec<usize> = picks.into_iter().filter(|&p| p < len).collect();
            let b = Bitset::from_positions(len, picks.iter().copied());
            let mut sorted: Vec<usize> = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(b.iter().collect::<Vec<_>>(), sorted.clone());
            prop_assert_eq!(b.count(), sorted.len());
            for i in 0..len {
                prop_assert_eq!(b.contains(i), sorted.binary_search(&i).is_ok());
            }
        }

        #[test]
        fn prop_from_tests_matches_from_positions(
            items in proptest::collection::vec(0u32..100, 0..200),
            below in 0u32..100,
        ) {
            let by_word = Bitset::from_tests(&items, |&x| x < below);
            let by_row = Bitset::from_positions(
                items.len(),
                (0..items.len()).filter(|&i| items[i] < below),
            );
            prop_assert_eq!(by_word, by_row);
        }

        #[test]
        fn prop_negate_is_involution(len in 1usize..300, picks in proptest::collection::vec(0usize..300, 0..40)) {
            let picks: Vec<usize> = picks.into_iter().filter(|&p| p < len).collect();
            let b = Bitset::from_positions(len, picks);
            let mut n = b.clone();
            n.negate();
            prop_assert_eq!(n.count(), len - b.count());
            n.negate();
            prop_assert_eq!(n, b);
        }

        #[test]
        fn prop_union_count_inclusion_exclusion(
            len in 1usize..300,
            a in proptest::collection::vec(0usize..300, 0..40),
            b in proptest::collection::vec(0usize..300, 0..40),
        ) {
            let a = Bitset::from_positions(len, a.into_iter().filter(|&p| p < len));
            let b2 = Bitset::from_positions(len, b.into_iter().filter(|&p| p < len));
            let mut u = a.clone();
            u.union_with(&b2);
            let mut i = a.clone();
            i.intersect_with(&b2);
            prop_assert_eq!(u.count() + i.count(), a.count() + b2.count());
        }
    }
}
