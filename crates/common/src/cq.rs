//! Completion-queue reactor for overlapping simulated I/O.
//!
//! Every simulated transfer in the system charges a [`LatencyModel`] cost
//! against the [`SharedClock`]. Charged synchronously (`model.charge`),
//! concurrent transfers *sum* on a [`crate::clock::VirtualClock`] and
//! serialize on a [`crate::clock::RealClock`] — a cold multi-segment scan
//! pays N full blob latencies even though a real object store would stream
//! them in parallel.
//!
//! The reactor replaces the synchronous charge with a submit/complete
//! protocol:
//!
//! 1. [`Reactor::submit`] records an operation with an absolute completion
//!    deadline (`clock.now + cost`) and returns a [`Ticket`]. The caller's
//!    data is already in hand (the simulation reads bytes eagerly); only the
//!    *time* is deferred.
//! 2. [`Reactor::wait`] parks until the clock reaches the ticket's deadline.
//!    The first waiter becomes the **driver**: it pops the earliest pending
//!    deadline, advances the clock to it with [`Clock::advance_to`]
//!    (an idempotent `fetch_max` on the virtual clock), marks that operation
//!    complete, and wakes the other waiters. Deadlines established while the
//!    clock sat at `T` all complete by advancing to `max(deadlines)` — the
//!    transfers overlap instead of summing.
//! 3. [`Reactor::forget`] detaches a ticket nobody will wait on (abandoned
//!    prefetch); the driver reclaims its slot when the deadline passes.
//!
//! Multiple reactors over the same `SharedClock` compose: completion is
//! defined as "the shared clock reached the deadline", so a driver in one
//! reactor advancing the clock also ripens operations in another.
//!
//! A single thread that submits and immediately waits observes exactly the
//! synchronous cost (`advance_to(now + cost)` ≡ `advance(cost)`), which is
//! what keeps reactor-routed execution bit- and time-identical to the
//! blocking path when there is no concurrency to exploit.
//!
//! ## Structure
//!
//! The ticket state machine lives in [`OpTable`], a fixed array of
//! generation-tagged atomic slots (`EMPTY → SUBMITTED → COMPLETED → EMPTY'`)
//! with no locks — this is the part model-checked under `--cfg loom`
//! (exactly-once completion, no completion before submission). The
//! [`Reactor`] wraps it with a deadline min-heap and a Mutex/Condvar driver
//! handoff, which loom-lite cannot model and ordinary tests cover instead.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use crate::sync::{classes, Condvar, Mutex};

use crate::clock::{LatencyModel, SharedClock};

#[cfg(loom)]
use crate::loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};

/// Slot state: no operation; the slot can be claimed by `try_submit`.
const EMPTY: u64 = 0;
/// Slot state: operation submitted, deadline pending.
const SUBMITTED: u64 = 1;
/// Slot state: deadline reached; waiting for the owner to `reap`.
const COMPLETED: u64 = 2;
const STATE_MASK: u64 = 0b11;
const GEN_SHIFT: u32 = 2;

/// Handle to one submitted operation. `Copy` so callers can stash it in
/// pending-fetch maps; the generation tag makes stale handles harmless
/// (operations on a recycled slot simply fail the generation check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    slot: u32,
    gen: u64,
    /// Absolute clock nanos at which the operation is done; 0 outside a
    /// [`Reactor`] (a bare [`OpTable`] has no clock).
    deadline: u64,
}

impl Ticket {
    /// Sentinel for a zero-cost or overflow-fallback operation that was
    /// charged synchronously at submit time; `wait` returns immediately.
    const READY: Ticket = Ticket { slot: u32::MAX, gen: 0, deadline: 0 };

    fn is_ready_sentinel(&self) -> bool {
        self.slot == u32::MAX
    }

    /// Model-checking-only constructor: forge a handle to a slot and
    /// generation that may never have been submitted, so the loom models can
    /// race a completer against the submitter (`crates/common/tests/loom.rs`).
    #[cfg(loom)]
    pub fn forged(slot: u32, gen: u64) -> Ticket {
        Ticket { slot, gen, deadline: 0 }
    }
}

/// Lock-free table of generation-tagged operation slots.
///
/// Each slot packs `generation << 2 | state` into one `AtomicU64`. The
/// lifecycle for generation `g` is
/// `(g, EMPTY) → (g, SUBMITTED) → (g, COMPLETED) → (g+1, EMPTY)`,
/// every edge a CAS, so completion is exactly-once and a slot can never be
/// observed completed for a generation that was not submitted. This type is
/// the `--cfg loom` model target; it has no dependency on the clock or any
/// lock.
pub struct OpTable {
    slots: Box<[AtomicU64]>,
}

impl OpTable {
    /// A table with `capacity` slots, all empty at generation 0.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots: Vec<AtomicU64> = (0..capacity.max(1)).map(|_| AtomicU64::new(0)).collect();
        Self { slots: slots.into_boxed_slice() }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Claim `slot` if it is currently empty: `(g, EMPTY) → (g, SUBMITTED)`.
    /// Returns the ticket for generation `g` on success.
    pub fn try_submit(&self, slot: u32) -> Option<Ticket> {
        let a = &self.slots[slot as usize];
        let cur = a.load(Ordering::Acquire);
        if cur & STATE_MASK != EMPTY {
            return None;
        }
        let gen = cur >> GEN_SHIFT;
        let next = (gen << GEN_SHIFT) | SUBMITTED;
        match a.compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => Some(Ticket { slot, gen, deadline: 0 }),
            Err(_) => None,
        }
    }

    /// Deliver completion for `t`: `(g, SUBMITTED) → (g, COMPLETED)`.
    /// Returns `false` if the ticket was already completed (or never current),
    /// so completion is exactly-once per submission.
    pub fn try_complete(&self, t: Ticket) -> bool {
        let a = &self.slots[t.slot as usize];
        let expect = (t.gen << GEN_SHIFT) | SUBMITTED;
        let next = (t.gen << GEN_SHIFT) | COMPLETED;
        a.compare_exchange(expect, next, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Whether `t` has completed. A ticket whose slot has moved to a newer
    /// generation was completed and reaped, so it reports complete.
    pub fn is_complete(&self, t: Ticket) -> bool {
        let cur = self.slots[t.slot as usize].load(Ordering::Acquire);
        let gen = cur >> GEN_SHIFT;
        gen > t.gen || (gen == t.gen && cur & STATE_MASK == COMPLETED)
    }

    /// Release a completed ticket's slot for reuse:
    /// `(g, COMPLETED) → (g+1, EMPTY)`. Returns `false` if `t` was not the
    /// slot's current completed generation (already reaped).
    pub fn reap(&self, t: Ticket) -> bool {
        let a = &self.slots[t.slot as usize];
        let expect = (t.gen << GEN_SHIFT) | COMPLETED;
        let next = (t.gen + 1) << GEN_SHIFT; // state EMPTY
        a.compare_exchange(expect, next, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }
}

impl std::fmt::Debug for OpTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpTable").field("capacity", &self.slots.len()).finish()
    }
}

/// Deadline-ordered pending operations plus the driver-election flag,
/// guarded by the reactor mutex.
struct Inner {
    /// Min-heap of `(deadline_nanos, slot, gen)`.
    heap: BinaryHeap<Reverse<(u64, u32, u64)>>,
    /// Whether some thread is currently advancing the clock. Only one
    /// driver runs at a time; everyone else parks on the condvar.
    driving: bool,
    /// Rotating allocation cursor for slot claims.
    next_slot: u32,
    /// Tickets abandoned via `forget`; the driver reaps them on completion.
    forgotten: HashSet<(u32, u64)>,
}

/// Default number of in-flight operation slots.
const DEFAULT_CAPACITY: usize = 4096;

/// Completion-queue reactor over a [`SharedClock`]. See module docs.
pub struct Reactor {
    clock: SharedClock,
    ops: OpTable,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl Reactor {
    /// A reactor over `clock` with the default slot capacity.
    pub fn new(clock: SharedClock) -> Self {
        Self::with_capacity(clock, DEFAULT_CAPACITY)
    }

    /// A reactor over `clock` with `capacity` in-flight slots. Submissions
    /// beyond capacity degrade gracefully to synchronous charges.
    pub fn with_capacity(clock: SharedClock, capacity: usize) -> Self {
        Self {
            clock,
            ops: OpTable::with_capacity(capacity),
            inner: Mutex::new(&classes::CQ_INNER, Inner {
                heap: BinaryHeap::new(),
                driving: false,
                next_slot: 0,
                forgotten: HashSet::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// A shared reactor handle.
    pub fn shared(clock: SharedClock) -> Arc<Self> {
        Arc::new(Self::new(clock))
    }

    /// The clock this reactor advances.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Submit an operation costing `cost` of simulated time; its deadline is
    /// `now + cost`. Zero-cost operations return an already-complete ticket.
    /// If every slot is in flight, the cost is charged synchronously instead
    /// (overlap lost, semantics preserved).
    pub fn submit(&self, cost: Duration) -> Ticket {
        if cost.is_zero() {
            return Ticket::READY;
        }
        let mut g = self.inner.lock();
        let cap = self.ops.capacity() as u32;
        for probe in 0..cap {
            let slot = (g.next_slot.wrapping_add(probe)) % cap;
            if let Some(t) = self.ops.try_submit(slot) {
                g.next_slot = slot.wrapping_add(1) % cap;
                let deadline =
                    self.clock.now_nanos().saturating_add(cost.as_nanos().min(u64::MAX as u128) as u64);
                g.heap.push(Reverse((deadline, t.slot, t.gen)));
                return Ticket { deadline, ..t };
            }
        }
        drop(g);
        // Table full: fall back to a synchronous charge.
        self.clock.advance(cost);
        Ticket::READY
    }

    /// Submit a transfer of `bytes` priced by `model`.
    pub fn submit_transfer(&self, model: &LatencyModel, bytes: usize) -> Ticket {
        self.submit(model.cost(bytes))
    }

    /// Block until `t`'s deadline has been reached. The calling thread may
    /// be elected driver and advance the shared clock on behalf of everyone.
    pub fn wait(&self, t: Ticket) {
        if t.is_ready_sentinel() {
            return;
        }
        if self.ops.is_complete(t) {
            self.ops.reap(t);
            return;
        }
        let mut g = self.inner.lock();
        loop {
            if self.ops.is_complete(t) {
                drop(g);
                self.ops.reap(t);
                return;
            }
            if !g.driving {
                match g.heap.pop() {
                    Some(Reverse((deadline, slot, gen))) => {
                        g.driving = true;
                        drop(g);
                        self.clock.advance_to(deadline);
                        let done = Ticket { slot, gen, deadline };
                        self.ops.try_complete(done);
                        g = self.inner.lock();
                        if g.forgotten.remove(&(slot, gen)) {
                            self.ops.reap(done);
                        }
                        // The advance may have ripened later deadlines too
                        // (another reactor on the same clock, or a batch of
                        // same-instant submissions); complete them all.
                        let now = self.clock.now_nanos();
                        while let Some(&Reverse((dl, s, gn))) = g.heap.peek() {
                            if dl > now {
                                break;
                            }
                            g.heap.pop();
                            let ripe = Ticket { slot: s, gen: gn, deadline: dl };
                            self.ops.try_complete(ripe);
                            if g.forgotten.remove(&(s, gn)) {
                                self.ops.reap(ripe);
                            }
                        }
                        g.driving = false;
                        self.cv.notify_all();
                    }
                    None => {
                        // Pending op but empty heap: defensive — complete it
                        // rather than spin (can only happen with a forged
                        // ticket or after external clock advancement raced a
                        // drain).
                        self.ops.try_complete(t);
                    }
                }
            } else {
                // Bounded park: a driver on a RealClock may be sleeping, and
                // on spurious lost-wakeup we re-check rather than hang.
                self.cv.wait_for(&mut g, Duration::from_millis(5));
            }
        }
    }

    /// Detach `t`: nobody will wait on it. Its slot is reclaimed by whichever
    /// driver observes its deadline pass.
    pub fn forget(&self, t: Ticket) {
        if t.is_ready_sentinel() {
            return;
        }
        let mut g = self.inner.lock();
        if self.ops.is_complete(t) {
            drop(g);
            self.ops.reap(t);
        } else {
            g.forgotten.insert((t.slot, t.gen));
        }
    }

    /// Whether `t`'s deadline has already been reached (non-blocking). Read
    /// off the clock, not the slot: a slot only flips when some waiter drove
    /// the reactor past the deadline, and nobody may be waiting.
    pub fn is_complete(&self, t: Ticket) -> bool {
        self.clock.now_nanos() >= t.deadline
    }

    /// Synchronous convenience: submit + wait. Single-threaded callers
    /// observe exactly `model.charge(clock, bytes)`.
    pub fn charge(&self, model: &LatencyModel, bytes: usize) {
        let t = self.submit_transfer(model, bytes);
        self.wait(t);
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").field("capacity", &self.ops.capacity()).finish()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::clock::{LatencyModel, VirtualClock};

    fn reactor() -> (Arc<Reactor>, SharedClock) {
        let clock: SharedClock = VirtualClock::shared();
        (Reactor::shared(Arc::clone(&clock)), clock)
    }

    #[test]
    fn sequential_charge_matches_blocking_cost() {
        let (r, clock) = reactor();
        let m = LatencyModel::new(Duration::from_micros(100), Duration::from_nanos(1));
        r.charge(&m, 10_000); // 100_000 + 10_000
        r.charge(&m, 10_000);
        assert_eq!(clock.now_nanos(), 220_000);
    }

    #[test]
    fn zero_cost_is_free_and_ready() {
        let (r, clock) = reactor();
        let t = r.submit(Duration::ZERO);
        assert!(r.is_complete(t));
        r.wait(t);
        assert_eq!(clock.now_nanos(), 0);
    }

    #[test]
    fn same_instant_submissions_overlap() {
        let (r, clock) = reactor();
        // Three transfers submitted before any wait: deadlines all measured
        // from t=0, so total simulated time is the max, not the sum.
        let a = r.submit(Duration::from_micros(100));
        let b = r.submit(Duration::from_micros(250));
        let c = r.submit(Duration::from_micros(70));
        r.wait(a);
        r.wait(b);
        r.wait(c);
        assert_eq!(clock.now_nanos(), 250_000);
    }

    #[test]
    fn concurrent_waiters_overlap_across_threads() {
        let (r, clock) = reactor();
        let tickets: Vec<Ticket> =
            (0..8).map(|i| r.submit(Duration::from_micros(100 + i))).collect();
        std::thread::scope(|s| {
            for t in tickets {
                let r = Arc::clone(&r);
                s.spawn(move || r.wait(t));
            }
        });
        assert_eq!(clock.now_nanos(), 107_000);
    }

    #[test]
    fn forgotten_ticket_is_reaped_by_driver() {
        let (r, clock) = reactor();
        let orphan = r.submit(Duration::from_micros(10));
        r.forget(orphan);
        let t = r.submit(Duration::from_micros(50));
        r.wait(t);
        assert_eq!(clock.now_nanos(), 50_000);
        // The orphan's slot must be reusable: submit capacity+1 more ops.
        for _ in 0..=DEFAULT_CAPACITY {
            let t = r.submit(Duration::from_nanos(1));
            r.wait(t);
        }
    }

    #[test]
    fn forget_after_completion_reaps_immediately() {
        let (r, _clock) = reactor();
        let a = r.submit(Duration::from_micros(10));
        let b = r.submit(Duration::from_micros(5));
        r.wait(a); // drives past b's deadline too
        assert!(r.is_complete(b));
        r.forget(b);
        // Slot cycle sanity: everything reusable.
        for _ in 0..=DEFAULT_CAPACITY {
            let t = r.submit(Duration::from_nanos(1));
            r.wait(t);
        }
    }

    #[test]
    fn overflow_falls_back_to_synchronous_charge() {
        let clock: SharedClock = VirtualClock::shared();
        let r = Reactor::with_capacity(Arc::clone(&clock), 2);
        let a = r.submit(Duration::from_micros(1));
        let b = r.submit(Duration::from_micros(2));
        let c = r.submit(Duration::from_micros(3)); // table full: charged now
        assert!(r.is_complete(c));
        assert_eq!(clock.now_nanos(), 3_000);
        r.wait(a);
        r.wait(b);
        // a and b's deadlines (1µs, 2µs) already passed during c's charge.
        assert_eq!(clock.now_nanos(), 3_000);
    }

    #[test]
    fn two_reactors_share_one_clock() {
        let clock: SharedClock = VirtualClock::shared();
        let r1 = Reactor::shared(Arc::clone(&clock));
        let r2 = Reactor::shared(Arc::clone(&clock));
        let a = r1.submit(Duration::from_micros(100));
        let b = r2.submit(Duration::from_micros(60));
        r1.wait(a); // advances the shared clock past b's deadline
        r2.wait(b); // completes without further advancement
        assert_eq!(clock.now_nanos(), 100_000);
    }

    #[test]
    fn optable_lifecycle() {
        let t = OpTable::with_capacity(2);
        let a = t.try_submit(0).unwrap();
        assert!(!t.is_complete(a));
        assert!(t.try_submit(0).is_none(), "occupied slot must refuse");
        assert!(t.try_complete(a));
        assert!(!t.try_complete(a), "completion is exactly-once");
        assert!(t.is_complete(a));
        assert!(t.reap(a));
        assert!(!t.reap(a));
        let a2 = t.try_submit(0).unwrap();
        assert_ne!(a, a2, "generation must advance on reuse");
        assert!(t.is_complete(a), "stale ticket from reaped generation reads complete");
        assert!(!t.is_complete(a2));
    }
}
