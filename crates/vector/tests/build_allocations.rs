//! Nothing a build helper allocates outlives the build. An HNSW link task
//! runs on a pool helper and writes its neighbour lists into buffers the
//! calling thread allocated before the fan-out; everything the task
//! allocates itself (its visited set, heaps, candidate lists) is freed
//! before it returns. A block a helper allocates and hands back to the
//! caller would be freed later on the caller's thread, where glibc recycles
//! it through the caller's cache while the helper's arena grows by it.
//!
//! A `#[global_allocator]` tags every block a helper thread allocates while
//! the build runs. The bytes of tagged blocks allocated, and the bytes of
//! tagged blocks freed on a helper thread, must be equal once the build
//! returns: every such block was freed, and by a helper.

use bh_common::FanoutPool;
use bh_vector::hnsw::HnswBuilder;
use bh_vector::{IndexBuilder, IndexKind, IndexSpec, Metric};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// This thread is a pool helper (marked by a task it ran).
    static HELPER: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread is a pool helper. `try_with`: the allocator also runs
/// while a thread's locals are torn down.
fn on_helper() -> bool {
    HELPER.try_with(Cell::get).unwrap_or(false)
}

/// Tag allocations made while set. `Relaxed`: the fan-out's hand-off to
/// the helper and its join order the flag's stores around every task.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Bytes of tagged blocks allocated, and of tagged blocks a helper freed.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

struct Tagging;

/// The block `System` hands out for `layout`, and where the caller's part
/// starts in it: a header of at least one word (the tag, right before the
/// caller's part) that keeps the caller's alignment.
fn padded(layout: Layout) -> (Layout, usize) {
    let off = layout.align().max(16);
    // The size cannot overflow for any layout a program can allocate.
    (Layout::from_size_align(layout.size() + off, off).unwrap_or(layout), off)
}

// SAFETY: every block comes from `System` with the padded layout and is
// returned to it with the same one; the caller's part starts `off` bytes in,
// a multiple of its alignment, and the tag word lies in the header before it.
unsafe impl GlobalAlloc for Tagging {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let (full, off) = padded(layout);
        // SAFETY: `full` has a non-zero size (`off` > 0).
        let base = unsafe { System.alloc(full) };
        if base.is_null() {
            return base;
        }
        let tagged = ARMED.load(Ordering::Relaxed) && on_helper();
        if tagged {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `off` ≥ 16, so the tag word lies inside the block, aligned.
        unsafe {
            let user = base.add(off);
            user.cast::<usize>().sub(1).write(usize::from(tagged));
            user
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let (full, off) = padded(layout);
        // SAFETY: `ptr` came from `alloc` above with `layout`, so the tag
        // word precedes it and the block starts `off` bytes before it.
        unsafe {
            if ptr.cast::<usize>().sub(1).read() == 1 && on_helper() {
                FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
            }
            System.dealloc(ptr.sub(off), full);
        }
    }
}

#[global_allocator]
static ALLOCATOR: Tagging = Tagging;

#[test]
fn nothing_a_helper_allocates_outlives_the_build() {
    let (n, dim) = (2_000, 16);
    let data: Vec<f32> = (0..n * dim)
        .map(|j| (bh_common::rng::derive_seed(7, j as u64) >> 40) as f32 / (1u64 << 24) as f32)
        .collect();
    let ids: Vec<u64> = (0..n as u64).collect();
    let pool = Arc::new(FanoutPool::new(1));
    // Start the helper and mark it: fan out until it has run a task.
    let me = std::thread::current().id();
    while pool
        .run(64, 2, |_| {
            if std::thread::current().id() != me {
                HELPER.with(|h| h.set(true));
            }
            std::hint::black_box((0..2_000u64).sum::<u64>());
            Ok(())
        })
        .helper_tasks
        == 0
    {}
    for kind in [IndexKind::Hnsw, IndexKind::HnswSq] {
        let spec = IndexSpec::new(kind, dim, Metric::L2);
        let mut builder = Box::new(HnswBuilder::with_pool(&spec, kind, Arc::clone(&pool)).unwrap());
        builder.train(&data).unwrap();
        let before = (ALLOCATED.load(Ordering::Relaxed), FREED.load(Ordering::Relaxed));
        ARMED.store(true, Ordering::Relaxed);
        builder.add_with_ids(&data, &ids).unwrap();
        ARMED.store(false, Ordering::Relaxed);
        let allocated = ALLOCATED.load(Ordering::Relaxed) - before.0;
        let freed = FREED.load(Ordering::Relaxed) - before.1;
        println!("{kind:?}: the helper allocated {allocated} B and freed {freed} B of it");
        assert!(allocated > 0, "{kind:?}: the helper ran no link task");
        assert_eq!(allocated, freed, "{kind:?}: helper blocks outlived the build");
        assert_eq!((builder as Box<dyn IndexBuilder>).finish().unwrap().meta().len, n);
    }
}
