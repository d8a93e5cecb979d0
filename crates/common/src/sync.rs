//! Ranked synchronization primitives with a lockdep-style runtime checker.
//!
//! Every lock in the workspace belongs to a [`LockClass`] — a *named rank*
//! registered in the one in-tree rank table below ([`classes`]). The rule is
//! simple and global: **a thread may only acquire locks in strictly
//! increasing rank order.** Because the relation is a total order, any
//! schedule that obeys it is deadlock-free by construction; any code path
//! that violates it is a latent ABBA deadlock even if today's interleavings
//! never trip it.
//!
//! Two layers enforce the rule:
//!
//! * **Runtime (this module).** [`Mutex`], [`RwLock`] and [`Condvar`] wrap
//!   their `std::sync` counterparts. Under `cfg(debug_assertions)` or
//!   `--cfg lockdep` each acquisition is checked against a thread-local
//!   held-lock stack and recorded in a global acquisition-order edge graph
//!   ([`lockgraph::EdgeGraph`]); a rank inversion or a first-seen cycle
//!   panics immediately with both class names and both acquisition sites —
//!   *before* blocking, so a would-be deadlock becomes a deterministic test
//!   failure instead of a hung build. In release builds the wrappers are
//!   plain newtypes over std with no bookkeeping on the lock/unlock paths.
//! * **Static (`cargo xtask lint`).** Rule 7 (`raw-sync`) forbids raw
//!   `std::sync`/`parking_lot` lock types outside this file, and rule 8
//!   (`lock-order`) rebuilds the class-level acquisition graph from nested
//!   guard scopes across the whole tree and fails on any rank inversion or
//!   cycle — catching orderings that no test happens to execute.
//!
//! Poisoning: the default accessors ([`Mutex::lock`], [`RwLock::read`],
//! [`RwLock::write`]) recover from poison *and clear it* (parking_lot
//! semantics — a panic while holding a lock does not doom every later
//! access), while the `_checked` variants surface poison as
//! [`BhError::LockPoisoned`] for call sites that want to fail the request
//! instead; a checked acquisition only errors in the window between the
//! poisoning panic and the next recovering access.

use crate::error::{BhError, Result};
use std::fmt;
use std::sync::PoisonError;
use std::time::Duration;

/// One row of the rank table: a named lock rank.
///
/// Classes are `static`s (one per *logical* lock, shared by all instances of
/// that lock — e.g. every `LruCache` shard uses `LRU_INNER`). The `id` is a
/// dense index into [`classes::ALL`], used by the edge graph.
#[derive(Debug)]
pub struct LockClass {
    /// Human-readable name, used in panic messages and lint output.
    pub name: &'static str,
    /// Acquisition rank; nested acquisitions must strictly increase.
    pub rank: u16,
    /// Dense index into [`classes::ALL`].
    pub id: u16,
}

/// Declares the workspace rank table: each entry becomes a
/// `pub static NAME: LockClass` in [`classes`] with a sequentially assigned
/// dense `id`, plus a `classes::ALL` slice in declaration order.
macro_rules! lock_rank_table {
    ($($(#[$doc:meta])* $name:ident = $rank:literal,)+) => {
        /// The workspace lock-rank table. **This is the only place ranks are
        /// declared**; `cargo xtask lint` (rule 8) parses this table, so new
        /// locks must be registered here with a rank consistent with every
        /// nesting they participate in.
        pub mod classes {
            use super::LockClass;
            lock_rank_table!(@items 0u16; $($(#[$doc])* $name = $rank,)+);
            /// Every class in declaration order, indexed by [`LockClass::id`].
            pub static ALL: &[&LockClass] = &[$(&$name),+];
        }
    };
    (@items $id:expr; $(#[$doc:meta])* $name:ident = $rank:literal, $($rest:tt)*) => {
        $(#[$doc])*
        pub static $name: LockClass = LockClass {
            name: stringify!($name),
            rank: $rank,
            id: $id,
        };
        lock_rank_table!(@items $id + 1; $($rest)*);
    };
    (@items $id:expr;) => {};
}

lock_rank_table! {
    /// `bh-bench` `CpuPool` slot accounting. Lowest rank: a benchmark
    /// workload may acquire anything while a slot is outstanding, and the
    /// slot's `Drop` re-locks the pool after workload guards are gone.
    BENCH_CPUPOOL = 50,
    /// `Database::tables` registry map; held (read) across whole-table
    /// operations that take every storage lock below.
    DB_TABLES = 100,
    /// `Database::vws` virtual-warehouse registry map.
    DB_VWS = 110,
    /// `VirtualWarehouse::workers` membership map.
    VW_WORKERS = 200,
    /// `VirtualWarehouse::ring` consistent-hash ring; held (read) while
    /// recording assignments in `previous_owner`.
    VW_RING = 210,
    /// `VirtualWarehouse::previous_owner` cache-affinity map; acquired
    /// under `VW_RING`.
    VW_PREV_OWNER = 220,
    /// `VirtualWarehouse::owners` segment→owner memo. Filled under read
    /// guards of `VW_WORKERS` + `VW_RING`, wiped under their write guards, so
    /// it ranks after both (and after `VW_PREV_OWNER`, which the same
    /// critical section updates first).
    VW_OWNER_MEMO = 230,
    /// `TableStore::writer` — held by every commit while it builds the next
    /// table version (segments, delete marks and the merged sketch) and
    /// swaps it in; DELETE, UPDATE, compaction and reload hold it for their
    /// whole run, across object-store I/O and index builds; INSERT only to
    /// publish.
    TABLE_WRITER = 300,
    /// `TableStore::version` pointer to the current table version; held
    /// only to clone the `Arc` or to swap in the next one, never across
    /// I/O.
    TABLE_VERSION = 310,
    /// `IndexedColumns` table → vector-column map a warehouse's index
    /// caches share; read before a transfer is entered, never held across
    /// one.
    IDXCACHE_COLUMNS = 400,
    /// `IndexCache::transfers` transfer table; held to look up, enter or
    /// remove a segment's transfer. Entering one starts its blob under it
    /// (`get_begin` returns at once, taking `OBJECTSTORE_BLOBS`); never held
    /// across a wait or a decode.
    IDXCACHE_PENDING = 410,
    /// `LruCache` internals (index cache, decoded blocks and columns).
    LRU_INNER = 450,
    /// `InMemoryObjectStore` blob map.
    OBJECTSTORE_BLOBS = 500,
    /// `FanoutPool` helper mailbox (job hand-off + thread handles). A leaf:
    /// held only to move a job in or out, never across a task, so it ranks
    /// above everything a statement may hold when it fans out.
    FANOUT_SLOT = 840,
    /// `MetricsRegistry` counter map. Metrics are leaf locks: counters are
    /// bumped from under nearly every other lock in the system.
    METRICS_COUNTERS = 850,
    /// `MetricsRegistry` gauge map.
    METRICS_GAUGES = 860,
    /// `MetricsRegistry` histogram map.
    METRICS_HISTOGRAMS = 870,
    /// `querylog::Ring` record slots. Near the top: the query log appends
    /// one record at query completion, potentially from under any lock the
    /// statement path still holds.
    QUERYLOG_SLOT = 880,
    /// `QueryLog` slow-query span store (retained traces + policy).
    QUERYLOG_SLOW = 890,
    /// `trace::SpanBuf::finished`, a traced statement's finished spans.
    /// Highest real rank: spans finish (and are recorded) while arbitrary
    /// locks are held.
    SPAN_BUF = 900,
    /// Test fixture: outer lock of the deliberate-deadlock tests.
    TEST_OUTER = 9000,
    /// Test fixture: inner lock of the deliberate-deadlock tests.
    TEST_INNER = 9010,
    /// Test fixture: spare class for condvar/poison tests.
    TEST_EXTRA = 9020,
}

/// True when the lockdep runtime is compiled in (debug builds or
/// `--cfg lockdep`; disabled under `--cfg loom`, whose model tests drive
/// the graph directly).
pub const fn lockdep_enabled() -> bool {
    cfg!(all(any(debug_assertions, lockdep), not(loom)))
}

/// First-sighting acquisition edges recorded by the lockdep runtime, as
/// `(held, acquired)` class pairs in rank-table order. Empty when the
/// runtime is compiled out (release builds without `--cfg lockdep`). Feeds
/// the `system.lock_classes` introspection table.
pub fn lockdep_edges() -> Vec<(&'static LockClass, &'static LockClass)> {
    #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
    {
        lockdep::edges()
    }
    #[cfg(not(all(any(debug_assertions, lockdep), not(loom))))]
    {
        Vec::new()
    }
}

/// Lock classes held by the current thread, innermost last. Empty when the
/// lockdep runtime is compiled out.
pub fn held_lock_names() -> Vec<&'static str> {
    #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
    {
        lockdep::held_names()
    }
    #[cfg(not(all(any(debug_assertions, lockdep), not(loom))))]
    {
        Vec::new()
    }
}

/// The acquisition-order edge graph: a dense atomic adjacency matrix over
/// lock-class ids. Always compiled (the loom model exercises the publish
/// path); the lockdep runtime feeds the global instance.
pub mod lockgraph {
    #[cfg(loom)]
    use crate::loom::sync::atomic::{AtomicU64, Ordering};
    #[cfg(not(loom))]
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Directed graph over `n` nodes; edge `a -> b` means "a was held while
    /// b was acquired". Rows are bitmask words so publication is a single
    /// `fetch_or` — lock-free, idempotent, and first-sighting-detecting
    /// (the publisher whose `fetch_or` flips the bit owns the new edge and
    /// runs the cycle backstop).
    pub struct EdgeGraph {
        n: usize,
        words_per_row: usize,
        bits: Box<[AtomicU64]>,
    }

    impl EdgeGraph {
        /// An empty graph over `n` nodes.
        pub fn new(n: usize) -> EdgeGraph {
            let words_per_row = n.div_ceil(64);
            let bits = (0..n * words_per_row).map(|_| AtomicU64::new(0)).collect();
            EdgeGraph { n, words_per_row, bits }
        }

        /// Number of nodes.
        pub fn node_count(&self) -> usize {
            self.n
        }

        /// Record `from -> to`; returns `true` iff this call is the first
        /// to publish the edge.
        pub fn add_edge(&self, from: usize, to: usize) -> bool {
            let word = &self.bits[from * self.words_per_row + to / 64];
            let bit = 1u64 << (to % 64);
            word.fetch_or(bit, Ordering::SeqCst) & bit == 0
        }

        /// Is `from -> to` present?
        pub fn has_edge(&self, from: usize, to: usize) -> bool {
            let word = &self.bits[from * self.words_per_row + to / 64];
            word.load(Ordering::SeqCst) & (1u64 << (to % 64)) != 0
        }

        /// A path `from -> ... -> to` (inclusive of both endpoints), if one
        /// exists. `from == to` requires a self-edge.
        pub fn find_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
            if from == to {
                return self.has_edge(from, to).then(|| vec![from, to]);
            }
            let mut parent = vec![usize::MAX; self.n];
            let mut visited = vec![false; self.n];
            visited[from] = true;
            let mut stack = vec![from];
            while let Some(u) = stack.pop() {
                for v in 0..self.n {
                    if !self.has_edge(u, v) || visited[v] {
                        continue;
                    }
                    parent[v] = u;
                    if v == to {
                        let mut path = vec![to];
                        let mut cur = u;
                        while cur != usize::MAX {
                            path.push(cur);
                            cur = parent[cur];
                        }
                        path.reverse();
                        return Some(path);
                    }
                    visited[v] = true;
                    stack.push(v);
                }
            }
            None
        }

        /// After publishing `from -> to`: the cycle it closes (as a node
        /// sequence starting and ending at `to`), if any.
        pub fn cycle_through(&self, from: usize, to: usize) -> Option<Vec<usize>> {
            let mut cycle = self.find_path(to, from)?;
            cycle.push(to);
            Some(cycle)
        }
    }

    impl core::fmt::Debug for EdgeGraph {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.debug_struct("EdgeGraph").field("nodes", &self.n).finish_non_exhaustive()
        }
    }
}

/// The lockdep runtime: thread-local held stack + the global edge graph.
/// Compiled only when checking is on; the wrappers call in before/after
/// every std lock operation.
#[cfg(all(any(debug_assertions, lockdep), not(loom)))]
mod lockdep {
    use super::lockgraph::EdgeGraph;
    use super::{classes, LockClass};
    use std::cell::RefCell;
    use std::panic::Location;
    use std::sync::OnceLock;

    struct Held {
        class: &'static LockClass,
        at: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    fn graph() -> &'static EdgeGraph {
        static GRAPH: OnceLock<EdgeGraph> = OnceLock::new();
        GRAPH.get_or_init(|| EdgeGraph::new(classes::ALL.len()))
    }

    /// Check + record an acquisition of `class` at `at`. Panics on rank
    /// inversion (including same-class nesting) *before* the caller blocks
    /// on the underlying lock, so ABBA deadlocks fail fast and by name.
    pub(super) fn acquire(class: &'static LockClass, at: &'static Location<'static>) {
        let mut violation: Option<String> = None;
        let mut edges: Vec<u16> = Vec::new();
        // try_with + deferred panic: never unwind while the RefCell borrow
        // is live — the unwind drops other guards, which re-enter release().
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            for h in held.iter() {
                if h.class.rank >= class.rank {
                    violation = Some(format!(
                        "lock-order violation: acquiring lock class '{}' (rank {}) at {} \
                         while holding '{}' (rank {}) acquired at {}; \
                         nested acquisitions must strictly increase in rank \
                         (see bh_common::sync rank table)",
                        class.name, class.rank, at, h.class.name, h.class.rank, h.at,
                    ));
                    return;
                }
                edges.push(h.class.id);
            }
            held.push(Held { class, at });
        });
        if let Some(msg) = violation {
            panic!("{msg}");
        }
        let g = graph();
        for from in edges {
            let (from, to) = (from as usize, class.id as usize);
            if g.add_edge(from, to) {
                // Backstop: the strict-rank check above makes cycles
                // unreachable through this path, but the graph is the
                // ground truth if ranks are ever relaxed.
                if let Some(cycle) = g.cycle_through(from, to) {
                    let names: Vec<&str> =
                        cycle.iter().map(|&i| classes::ALL[i].name).collect();
                    panic!(
                        "lock-order cycle detected: {} (closed by edge {} -> {})",
                        names.join(" -> "),
                        classes::ALL[from].name,
                        classes::ALL[to].name,
                    );
                }
            }
        }
    }

    /// Forget the innermost held entry of `class` (guard drop, condvar
    /// wait, failed checked acquisition).
    pub(super) fn release(class: &'static LockClass) {
        // try_with: guards may drop during thread teardown after the TLS
        // destructor has run.
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.class.id == class.id) {
                held.remove(pos);
            }
        });
    }

    pub(super) fn held_names() -> Vec<&'static str> {
        HELD.try_with(|held| held.borrow().iter().map(|h| h.class.name).collect())
            .unwrap_or_default()
    }

    pub(super) fn edges() -> Vec<(&'static LockClass, &'static LockClass)> {
        let g = graph();
        let mut out = Vec::new();
        for from in classes::ALL {
            for to in classes::ALL {
                if g.has_edge(from.id as usize, to.id as usize) {
                    out.push((*from, *to));
                }
            }
        }
        out
    }
}

/// A ranked mutex: `std::sync::Mutex` plus a [`LockClass`].
///
/// [`lock`](Mutex::lock) recovers from poison; [`lock_checked`](Mutex::lock_checked)
/// surfaces poison as [`BhError::LockPoisoned`].
pub struct Mutex<T: ?Sized> {
    class: &'static LockClass,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new mutex of the given class.
    pub fn new(class: &'static LockClass, value: T) -> Mutex<T> {
        Mutex { class, inner: std::sync::Mutex::new(value) }
    }

    /// Consume the mutex, recovering the value even if poisoned.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// This lock's class.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }

    /// Lock, recovering from poison. Panics (with both class names) on a
    /// rank inversion when lockdep is on.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
        lockdep::acquire(self.class, std::panic::Location::caller());
        let g = self.inner.lock().unwrap_or_else(|e| {
            self.inner.clear_poison();
            e.into_inner()
        });
        MutexGuard { class: self.class, inner: Some(g) }
    }

    /// Lock, surfacing poison as [`BhError::LockPoisoned`].
    #[track_caller]
    pub fn lock_checked(&self) -> Result<MutexGuard<'_, T>> {
        #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
        lockdep::acquire(self.class, std::panic::Location::caller());
        match self.inner.lock() {
            Ok(g) => Ok(MutexGuard { class: self.class, inner: Some(g) }),
            Err(_) => {
                #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
                lockdep::release(self.class);
                Err(BhError::LockPoisoned(self.class.name.to_string()))
            }
        }
    }

    /// Exclusive access without locking (the borrow checker proves
    /// uniqueness); recovers from poison.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").field("class", &self.class.name).finish_non_exhaustive()
    }
}

/// Guard for [`Mutex`]. Wraps the std guard in an `Option` so
/// [`Condvar::wait`] can hand the raw guard to std and re-install it.
pub struct MutexGuard<'a, T: ?Sized> {
    /// Read by the lockdep hooks only.
    #[cfg_attr(not(all(any(debug_assertions, lockdep), not(loom))), allow(dead_code))]
    class: &'static LockClass,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard invariant: lock held outside Condvar::wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard invariant: lock held outside Condvar::wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
            lockdep::release(self.class);
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A ranked reader-writer lock: `std::sync::RwLock` plus a [`LockClass`].
/// Read and write acquisitions both count for ordering (a read still
/// participates in ABBA deadlocks through a queued writer).
pub struct RwLock<T: ?Sized> {
    class: &'static LockClass,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// A new rwlock of the given class.
    pub fn new(class: &'static LockClass, value: T) -> RwLock<T> {
        RwLock { class, inner: std::sync::RwLock::new(value) }
    }

    /// Consume the lock, recovering the value even if poisoned.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// This lock's class.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }

    /// Shared lock, recovering from poison.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
        lockdep::acquire(self.class, std::panic::Location::caller());
        let g = self.inner.read().unwrap_or_else(|e| {
            self.inner.clear_poison();
            e.into_inner()
        });
        RwLockReadGuard { class: self.class, inner: g }
    }

    /// Exclusive lock, recovering from poison.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
        lockdep::acquire(self.class, std::panic::Location::caller());
        let g = self.inner.write().unwrap_or_else(|e| {
            self.inner.clear_poison();
            e.into_inner()
        });
        RwLockWriteGuard { class: self.class, inner: g }
    }

    /// Shared lock, surfacing poison as [`BhError::LockPoisoned`].
    #[track_caller]
    pub fn read_checked(&self) -> Result<RwLockReadGuard<'_, T>> {
        #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
        lockdep::acquire(self.class, std::panic::Location::caller());
        match self.inner.read() {
            Ok(g) => Ok(RwLockReadGuard { class: self.class, inner: g }),
            Err(_) => {
                #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
                lockdep::release(self.class);
                Err(BhError::LockPoisoned(self.class.name.to_string()))
            }
        }
    }

    /// Exclusive lock, surfacing poison as [`BhError::LockPoisoned`].
    #[track_caller]
    pub fn write_checked(&self) -> Result<RwLockWriteGuard<'_, T>> {
        #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
        lockdep::acquire(self.class, std::panic::Location::caller());
        match self.inner.write() {
            Ok(g) => Ok(RwLockWriteGuard { class: self.class, inner: g }),
            Err(_) => {
                #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
                lockdep::release(self.class);
                Err(BhError::LockPoisoned(self.class.name.to_string()))
            }
        }
    }

    /// Exclusive access without locking; recovers from poison.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").field("class", &self.class.name).finish_non_exhaustive()
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    /// Read by the lockdep hooks only.
    #[cfg_attr(not(all(any(debug_assertions, lockdep), not(loom))), allow(dead_code))]
    class: &'static LockClass,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
        lockdep::release(self.class);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    /// Read by the lockdep hooks only.
    #[cfg_attr(not(all(any(debug_assertions, lockdep), not(loom))), allow(dead_code))]
    class: &'static LockClass,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
        lockdep::release(self.class);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Condition variable paired with a ranked [`Mutex`]. Waiting releases the
/// mutex in the lockdep bookkeeping and re-checks ordering on wake-up
/// (against whatever else the thread still holds).
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub fn new() -> Condvar {
        Condvar { inner: std::sync::Condvar::new() }
    }

    /// Block until notified; the guard is released during the wait and
    /// re-held on return. Recovers from poison.
    #[track_caller]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let raw = guard.inner.take().expect("guard invariant: wait on a held guard");
        #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
        lockdep::release(guard.class);
        let raw = self.inner.wait(raw).unwrap_or_else(PoisonError::into_inner);
        #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
        lockdep::acquire(guard.class, std::panic::Location::caller());
        guard.inner = Some(raw);
    }

    /// [`wait`](Condvar::wait) with a timeout; returns `true` if the wait
    /// timed out.
    #[track_caller]
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, dur: Duration) -> bool {
        let raw = guard.inner.take().expect("guard invariant: wait on a held guard");
        #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
        lockdep::release(guard.class);
        let (raw, timeout) =
            self.inner.wait_timeout(raw, dur).unwrap_or_else(PoisonError::into_inner);
        #[cfg(all(any(debug_assertions, lockdep), not(loom)))]
        lockdep::acquire(guard.class, std::panic::Location::caller());
        guard.inner = Some(raw);
        timeout.timed_out()
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::lockgraph::EdgeGraph;
    use super::{classes, held_lock_names, lockdep_enabled, Condvar, Mutex, RwLock};
    use crate::error::BhError;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn rank_table_is_strictly_increasing_and_dense() {
        let all = classes::ALL;
        assert!(!all.is_empty());
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.id as usize, i, "{} has non-dense id", c.name);
        }
        for w in all.windows(2) {
            assert!(
                w[0].rank < w[1].rank,
                "rank table not strictly increasing: {} ({}) >= {} ({})",
                w[0].name,
                w[0].rank,
                w[1].name,
                w[1].rank
            );
        }
    }

    #[test]
    fn ordered_nesting_is_allowed() {
        let outer = Mutex::new(&classes::TEST_OUTER, 1);
        let inner = Mutex::new(&classes::TEST_INNER, 2);
        let a = outer.lock();
        let b = inner.lock();
        assert_eq!(*a + *b, 3);
        if lockdep_enabled() {
            assert_eq!(held_lock_names(), vec!["TEST_OUTER", "TEST_INNER"]);
        }
        drop(b);
        drop(a);
        assert!(held_lock_names().is_empty());
    }

    #[test]
    fn rank_inversion_panics_with_both_class_names() {
        if !lockdep_enabled() {
            return;
        }
        let inner = Arc::new(Mutex::new(&classes::TEST_INNER, ()));
        let outer = Arc::new(Mutex::new(&classes::TEST_OUTER, ()));
        let err = std::thread::spawn(move || {
            let _i = inner.lock();
            let _o = outer.lock(); // rank 9000 under rank 9010: inversion
        })
        .join()
        .expect_err("inversion must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("TEST_OUTER"), "panic names acquired class: {msg}");
        assert!(msg.contains("TEST_INNER"), "panic names held class: {msg}");
        assert!(msg.contains("lock-order violation"), "{msg}");
    }

    #[test]
    fn same_class_nesting_panics() {
        if !lockdep_enabled() {
            return;
        }
        let a = Arc::new(Mutex::new(&classes::TEST_EXTRA, ()));
        let b = Arc::new(Mutex::new(&classes::TEST_EXTRA, ()));
        let err = std::thread::spawn(move || {
            let _a = a.lock();
            let _b = b.lock();
        })
        .join()
        .expect_err("same-class nesting must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("TEST_EXTRA"), "{msg}");
    }

    #[test]
    fn rwlock_read_then_higher_write_is_allowed() {
        let outer = RwLock::new(&classes::TEST_OUTER, 7);
        let inner = RwLock::new(&classes::TEST_INNER, 0);
        let r = outer.read();
        *inner.write() = *r;
        drop(r);
        assert_eq!(*inner.read(), 7);
        assert!(held_lock_names().is_empty());
    }

    #[test]
    fn poisoned_lock_recovers_on_plain_lock() {
        let m = Arc::new(Mutex::new(&classes::TEST_EXTRA, 41));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 42;
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: the panic above does not doom later access.
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn poisoned_lock_checked_returns_bherror() {
        let m = Arc::new(Mutex::new(&classes::TEST_EXTRA, 0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        match m.lock_checked() {
            Err(BhError::LockPoisoned(name)) => assert_eq!(name, "TEST_EXTRA"),
            other => panic!("expected LockPoisoned, got {other:?}"),
        }
        // ...and the recovering accessor still works afterwards.
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn poisoned_rwlock_checked_returns_bherror() {
        let l = Arc::new(RwLock::new(&classes::TEST_EXTRA, 0));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        assert!(matches!(l.read_checked(), Err(BhError::LockPoisoned(_))));
        assert!(matches!(l.write_checked(), Err(BhError::LockPoisoned(_))));
        assert_eq!(*l.read(), 0);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(&classes::TEST_EXTRA, false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
            *g
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        assert!(waiter.join().unwrap());
        assert!(held_lock_names().is_empty());
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(&classes::TEST_EXTRA, ());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(1)));
        // The guard is usable (re-held) after the timed-out wait.
        drop(g);
        assert!(held_lock_names().is_empty());
    }

    #[test]
    fn edge_graph_add_and_first_sighting() {
        let g = EdgeGraph::new(70); // spans a word boundary
        assert!(!g.has_edge(1, 65));
        assert!(g.add_edge(1, 65), "first publish owns the edge");
        assert!(!g.add_edge(1, 65), "second publish does not");
        assert!(g.has_edge(1, 65));
        assert!(!g.has_edge(65, 1));
    }

    #[test]
    fn edge_graph_reachability_and_cycle() {
        let g = EdgeGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert_eq!(g.find_path(0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(g.find_path(3, 0), None);
        assert!(g.cycle_through(2, 3).is_none(), "no cycle yet");
        // Closing edge 3 -> 0 creates 0 -> 1 -> 2 -> 3 -> 0.
        g.add_edge(3, 0);
        let cycle = g.cycle_through(3, 0).expect("cycle now closed");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() >= 3);
    }

    #[test]
    fn edge_graph_self_loop() {
        let g = EdgeGraph::new(3);
        assert!(g.find_path(1, 1).is_none());
        g.add_edge(1, 1);
        assert_eq!(g.find_path(1, 1), Some(vec![1, 1]));
        assert_eq!(g.cycle_through(1, 1), Some(vec![1, 1, 1]));
    }

    #[test]
    fn guard_debug_forwards_to_value() {
        let m = Mutex::new(&classes::TEST_EXTRA, 5u32);
        assert_eq!(format!("{:?}", m.lock()), "5");
        assert!(format!("{m:?}").contains("TEST_EXTRA"));
    }
}
