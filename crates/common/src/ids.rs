//! Strongly-typed identifiers.
//!
//! Segments, workers, tables and rows all have `u64`-backed newtype ids so the
//! compiler rejects cross-kind mixups (e.g. scheduling a `TableId` onto the
//! hash ring). `SegmentId` additionally carries a stable string form used as
//! the consistent-hashing key and the object-store blob name.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an immutable data segment (an LSM "part").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SegmentId(pub u64);

/// Identifier of a compute worker inside a virtual warehouse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WorkerId(pub u64);

/// Identifier of a virtual warehouse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VwId(pub u64);

/// Identifier of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TableId(pub u64);

/// A row address: segment-local row offset. Per-segment vector indexes store
/// row *offsets* rather than primary keys (§III-B), enabling direct
/// bi-directional mapping between vector and non-vector data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RowId {
    /// Segment containing the row.
    pub segment: SegmentId,
    /// Row offset inside the segment.
    pub offset: u32,
}

impl SegmentId {
    /// Raw numeric value.
    pub fn raw(self) -> u64 {
        self.0
    }
    /// Stable string key used for consistent hashing and blob naming.
    pub fn key(self) -> String {
        self.key_bytes().iter().map(|&b| b as char).collect()
    }
    /// The bytes of [`Self::key`] (`seg-` + 16 lowercase hex digits) without
    /// a heap allocation, for the hash ring's hot path.
    pub fn key_bytes(self) -> [u8; 20] {
        let mut key = *b"seg-0000000000000000";
        for (i, b) in key[4..].iter_mut().enumerate() {
            *b = b"0123456789abcdef"[(self.0 >> (60 - 4 * i)) as usize & 0xf];
        }
        key
    }
}

impl WorkerId {
    /// Raw numeric value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl VwId {
    /// Raw numeric value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl TableId {
    /// Raw numeric value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl RowId {
    /// Address a row by segment and offset.
    pub fn new(segment: SegmentId, offset: u32) -> Self {
        Self { segment, offset }
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker-{}", self.0)
    }
}

impl fmt::Display for VwId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vw-{}", self.0)
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table-{}", self.0)
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.segment, self.offset)
    }
}

/// Monotonic id generator, used by the catalog and the storage engine to mint
/// fresh segment / table ids. Thread-safe.
#[derive(Debug, Default)]
pub struct IdGenerator {
    next: std::sync::atomic::AtomicU64,
}

impl IdGenerator {
    /// A generator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start issuing ids from `start` (used when reloading a persisted
    /// catalog so new ids do not collide with existing ones).
    pub fn starting_at(start: u64) -> Self {
        Self { next: std::sync::atomic::AtomicU64::new(start) }
    }

    /// Never mint `id` or anything below it from now on (a reloaded
    /// catalog's largest id).
    pub fn skip_past(&self, id: u64) {
        self.next.fetch_max(id.saturating_add(1), std::sync::atomic::Ordering::Relaxed);
    }

    /// Mint the next raw id.
    pub fn next(&self) -> u64 {
        self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Mint a fresh segment id.
    pub fn next_segment(&self) -> SegmentId {
        SegmentId(self.next())
    }

    /// Mint a fresh worker id.
    pub fn next_worker(&self) -> WorkerId {
        WorkerId(self.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn segment_key_is_stable_and_unique() {
        let a = SegmentId(1).key();
        let b = SegmentId(1).key();
        let c = SegmentId(2).key();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with("seg-"));
    }

    #[test]
    fn segment_key_format_is_pinned() {
        // Blob names and ring positions both derive from this exact text.
        for id in [0, 1, 0xabc, 0x0123_4567_89ab_cdef, u64::MAX] {
            assert_eq!(SegmentId(id).key(), format!("seg-{id:016x}"));
            assert_eq!(SegmentId(id).key_bytes().as_slice(), SegmentId(id).key().as_bytes());
        }
    }

    #[test]
    fn row_id_ordering_is_segment_major() {
        let a = RowId::new(SegmentId(1), 100);
        let b = RowId::new(SegmentId(2), 0);
        assert!(a < b);
    }

    #[test]
    fn generator_is_monotonic_and_unique_across_threads() {
        let g = std::sync::Arc::new(IdGenerator::new());
        let mut handles = vec![];
        for _ in 0..4 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.next()).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for v in h.join().unwrap() {
                assert!(all.insert(v), "duplicate id {v}");
            }
        }
        assert_eq!(all.len(), 4000);
    }

    #[test]
    fn skip_past_only_moves_forward() {
        let g = IdGenerator::starting_at(10);
        g.skip_past(3);
        assert_eq!(g.next(), 10);
        g.skip_past(20);
        assert_eq!(g.next(), 21);
    }

    #[test]
    fn generator_starting_at_skips_reserved_range() {
        let g = IdGenerator::starting_at(100);
        assert_eq!(g.next(), 100);
        assert_eq!(g.next(), 101);
    }
}
