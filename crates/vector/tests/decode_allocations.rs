//! A graph blob decodes with a few allocations per level, not one or more
//! per node: a sealed HNSW index keeps each level's links in one flat array
//! (a node-id list, offsets and neighbours), read straight from the blob,
//! and a raw index takes its vector rows moved in. Counted by a
//! `#[global_allocator]` on the calling thread only, so the count repeats
//! exactly whatever else the machine is doing.

use bh_vector::{IndexKind, IndexRegistry, IndexSpec, Metric};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)`: this thread is counting and has allocated `n` times.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn note_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A 2,000-node graph at `M = 16` has a handful of levels, each read in
/// three allocations (12 for HNSW, 15 for HNSWSQ here); one allocation per
/// node would be at least 2,000.
const BUDGET: u64 = 24;

#[test]
fn a_graph_blob_decodes_with_a_few_allocations_per_level() {
    let (n, dim) = (2_000, 16);
    let data: Vec<f32> = (0..n * dim)
        .map(|j| (bh_common::rng::derive_seed(5, j as u64) >> 40) as f32 / (1u64 << 20) as f32)
        .collect();
    let ids: Vec<u64> = (0..n as u64).collect();
    for kind in [IndexKind::Hnsw, IndexKind::HnswSq] {
        let spec = IndexSpec::new(kind, dim, Metric::L2).with_param("ef_construction", 40);
        let mut builder = IndexRegistry.create_builder(&spec).unwrap();
        if builder.requires_training() {
            builder.train(&data).unwrap();
        }
        builder.add_with_ids(&data, &ids).unwrap();
        let blob = builder.finish().unwrap().save_bytes().unwrap();
        let rows = if kind.loads_column() { data.clone() } else { Vec::new() };
        ALLOCATIONS.with(|c| c.set(Some(0)));
        let loaded = IndexRegistry.load(kind, &blob, rows);
        let count = ALLOCATIONS.with(|c| c.replace(None)).unwrap_or(0);
        assert_eq!(loaded.unwrap().meta().len, n);
        println!("{kind:?}: {count} allocations to decode {} bytes", blob.len());
        assert!(count <= BUDGET, "{kind:?}: {count} allocations, budget {BUDGET}");
    }
}
