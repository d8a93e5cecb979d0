//! Delete bitmaps: the mutable half of the multi-version update design
//! (§III-B "Realtime update", Fig. 6).
//!
//! Segments are immutable; an UPDATE writes the new row versions into a fresh
//! segment and records the superseded offsets here. Queries intersect every
//! segment scan with the segment's *visibility* bitset (the complement of its
//! delete bitmap). Compaction materializes the surviving rows and clears the
//! bitmap.
//!
//! [`DeleteMarks`] is a plain value owned by one
//! [`TableVersion`](crate::table::TableVersion): it has no lock of its own.
//! Cloning it shares every bitmap; marking a cloned one copies only the
//! bitmap it changes, so an older version keeps its own marks.

use bh_common::{Bitset, SegmentId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-segment delete bitmaps; a segment with no deleted row has none.
#[derive(Debug, Default, Clone)]
pub struct DeleteMarks {
    bitmaps: BTreeMap<SegmentId, Arc<Bitset>>,
}

impl DeleteMarks {
    /// Mark row offsets of a segment of `rows` rows deleted.
    pub fn mark_deleted(
        &mut self,
        seg: SegmentId,
        rows: usize,
        offsets: impl IntoIterator<Item = u32>,
    ) {
        let bm =
            Arc::make_mut(self.bitmaps.entry(seg).or_insert_with(|| Arc::new(Bitset::new(rows))));
        for o in offsets {
            bm.set(o as usize);
        }
    }

    /// Is a specific row deleted?
    pub fn is_deleted(&self, seg: SegmentId, offset: u32) -> bool {
        self.bitmaps.get(&seg).is_some_and(|b| b.contains(offset as usize))
    }

    /// Number of deleted rows in a segment.
    pub fn deleted_count(&self, seg: SegmentId) -> usize {
        self.bitmaps.get(&seg).map_or(0, |b| b.count())
    }

    /// Total deleted rows across all segments (compaction pressure signal).
    pub fn total_deleted(&self) -> usize {
        self.bitmaps.values().map(|b| b.count()).sum()
    }

    /// The visibility bitset of a segment of `rows` rows: bit set ⇔ row is live.
    pub fn visibility(&self, seg: SegmentId, rows: usize) -> Bitset {
        match self.bitmaps.get(&seg) {
            Some(bm) => {
                let mut vis = Bitset::clone(bm);
                vis.negate();
                vis
            }
            None => Bitset::full(rows),
        }
    }

    /// Raw delete bitmap, if any deletions were recorded.
    pub fn bitmap(&self, seg: SegmentId) -> Option<&Arc<Bitset>> {
        self.bitmaps.get(&seg)
    }

    /// Forget a segment's bitmap (compaction removed the segment).
    pub fn clear(&mut self, seg: SegmentId) {
        self.bitmaps.remove(&seg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_query() {
        let mut dm = DeleteMarks::default();
        let seg = SegmentId(1);
        assert!(!dm.is_deleted(seg, 0));
        assert_eq!(dm.deleted_count(seg), 0);
        dm.mark_deleted(seg, 10, [2, 5]);
        assert!(dm.is_deleted(seg, 2));
        assert!(dm.is_deleted(seg, 5));
        assert!(!dm.is_deleted(seg, 3));
        assert_eq!(dm.deleted_count(seg), 2);
    }

    #[test]
    fn visibility_is_complement() {
        let mut dm = DeleteMarks::default();
        let seg = SegmentId(2);
        dm.mark_deleted(seg, 6, [0, 3]);
        let vis = dm.visibility(seg, 6);
        assert_eq!(vis.iter().collect::<Vec<_>>(), vec![1, 2, 4, 5]);
        // Untouched segment: everything visible.
        let all = dm.visibility(SegmentId(99), 4);
        assert!(all.is_all_set());
    }

    #[test]
    fn incremental_marks_accumulate() {
        let mut dm = DeleteMarks::default();
        let seg = SegmentId(3);
        dm.mark_deleted(seg, 8, [1]);
        let before = dm.clone();
        dm.mark_deleted(seg, 8, [2, 1]);
        assert_eq!(dm.deleted_count(seg), 2);
        assert_eq!(dm.total_deleted(), 2);
        assert_eq!(before.total_deleted(), 1, "a clone keeps its own marks");
    }

    #[test]
    fn clear_forgets() {
        let mut dm = DeleteMarks::default();
        let seg = SegmentId(4);
        dm.mark_deleted(seg, 4, [0, 1, 2, 3]);
        assert_eq!(dm.deleted_count(seg), 4);
        dm.clear(seg);
        assert_eq!(dm.deleted_count(seg), 0);
        assert!(dm.bitmap(seg).is_none());
        assert!(dm.visibility(seg, 4).is_all_set());
    }
}
