//! Loom-lite models for the workspace's lock-free core.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p bh-common --test loom --release
//! ```
//!
//! Under `--cfg loom`, `SharedBound`, `StealingCursor` and `FanoutPool` swap
//! their std atomics (and the pool its threads and park/unpark) for the
//! `bh_common::loom` wrappers, and `loom::model` exhaustively explores every
//! sequentially-consistent interleaving of the model threads (see
//! `src/loom.rs` for fidelity limits).

#![cfg(loom)]

use bh_common::cq::{OpTable, Ticket};
use bh_common::loom::{self, sync::Arc, thread};
use bh_common::{BhError, FanoutPool, SharedBound, StealingCursor};
use std::sync::atomic::{AtomicUsize, Ordering};

/// DESIGN.md §7 publish rule: whatever interleaving the publishers race
/// through, the bound settles on the minimum of all published thresholds,
/// and an updater immediately observes a bound no worse than its own.
#[test]
fn shared_bound_settles_on_min_of_published() {
    loom::model(|| {
        let b = Arc::new(SharedBound::new());
        let b1 = Arc::clone(&b);
        let b2 = Arc::clone(&b);
        let t1 = thread::spawn(move || {
            b1.update(3.0);
            // Publish/prune contract: after publishing d, no reader (this
            // thread included) can see a bound looser than d.
            assert!(b1.get() <= 3.0);
        });
        let t2 = thread::spawn(move || {
            b2.update(1.0);
            assert!(b2.get() <= 1.0);
        });
        b.update(2.0);
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(b.get(), 1.0, "bound must settle on the min of {{3.0, 1.0, 2.0}}");
    });
}

/// IP/cosine distances are negative; the CAS-min loop compares as floats,
/// so racing negative publishes must still settle on the float minimum
/// (raw-bit ordering would invert it).
#[test]
fn shared_bound_min_is_float_ordered_for_negative_distances() {
    loom::model(|| {
        let b = Arc::new(SharedBound::new());
        let b1 = Arc::clone(&b);
        let t1 = thread::spawn(move || b1.update(-2.0));
        b.update(-0.5);
        t1.join().unwrap();
        assert_eq!(b.get(), -2.0);
    });
}

/// A pruning reader may race the publishers arbitrarily, but the bound it
/// observes only ever tightens: two successive reads are non-increasing.
/// (This is what makes `d > bound` pruning safe to evaluate at any time.)
#[test]
fn shared_bound_is_monotonic_under_concurrent_publish() {
    loom::model(|| {
        let b = Arc::new(SharedBound::new());
        let pb = Arc::clone(&b);
        let ob = Arc::clone(&b);
        let publisher = thread::spawn(move || {
            pb.update(4.0);
            pb.update(1.5);
        });
        let observer = thread::spawn(move || {
            let first = ob.get();
            let second = ob.get();
            assert!(
                second <= first,
                "bound loosened between reads: {first} -> {second}"
            );
        });
        publisher.join().unwrap();
        observer.join().unwrap();
        assert_eq!(b.get(), 1.5);
    });
}

/// The skip counter is observability-only, but its adds must not be lost.
#[test]
fn shared_bound_skip_counter_never_loses_updates() {
    loom::model(|| {
        let b = Arc::new(SharedBound::new());
        let b1 = Arc::clone(&b);
        let t1 = thread::spawn(move || b1.record_skips(2));
        b.record_skips(3);
        t1.join().unwrap();
        assert_eq!(b.skips(), 5);
    });
}

/// The work-stealing invariant behind segment fan-out and compaction: over
/// any interleaving, each index in `0..len` is claimed exactly once, and
/// once exhausted every worker sees `None`.
#[test]
fn stealing_cursor_claims_each_index_exactly_once() {
    loom::model(|| {
        const LEN: usize = 3;
        let c = Arc::new(StealingCursor::new());
        let c1 = Arc::clone(&c);
        let t1 = thread::spawn(move || {
            let mut mine = Vec::new();
            while let Some(i) = c1.claim(LEN) {
                mine.push(i);
            }
            mine
        });
        let mut mine = Vec::new();
        while let Some(i) = c.claim(LEN) {
            mine.push(i);
        }
        let theirs = t1.join().unwrap();
        // Exhaustion is sticky for every worker.
        assert_eq!(c.claim(LEN), None);

        let mut all = mine;
        all.extend(theirs);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "indices must partition 0..{LEN}");
    });
}

/// Completion-queue invariant #1 (DESIGN.md §11): however a driver and a
/// racing `is_complete`-then-reap waiter interleave, completion for one
/// submitted operation is delivered exactly once, and so is the reap that
/// recycles its slot.
#[test]
fn optable_completion_is_exactly_once() {
    loom::model(|| {
        let t = Arc::new(OpTable::with_capacity(1));
        let tk = t.try_submit(0).expect("empty slot must accept a submission");
        let t1 = Arc::clone(&t);
        let racer = thread::spawn(move || t1.try_complete(tk));
        let mine = t.try_complete(tk);
        let theirs = racer.join().unwrap();
        assert!(
            mine ^ theirs,
            "completion must be delivered exactly once (mine={mine}, theirs={theirs})"
        );
        assert!(t.is_complete(tk));
        assert!(t.reap(tk), "the completed slot must be reclaimable");
        assert!(!t.reap(tk), "reaping is exactly-once too");
    });
}

/// Completion-queue invariant #2: a slot can never be observed completed for
/// a generation that was not submitted. A completer racing the submitter with
/// a forged ticket either lands after the submission (and the completion is
/// then observable) or bounces off the still-empty slot.
#[test]
fn optable_never_completes_before_submission() {
    loom::model(|| {
        let t = Arc::new(OpTable::with_capacity(1));
        let forged = Ticket::forged(0, 0);
        let t1 = Arc::clone(&t);
        let completer = thread::spawn(move || t1.try_complete(forged));
        let submitted = t.try_submit(0);
        let completed = completer.join().unwrap();
        assert!(submitted.is_some(), "the only submitter must win the empty slot");
        if completed {
            assert!(t.is_complete(forged), "a delivered completion must be observable");
        } else {
            assert!(
                !t.is_complete(forged),
                "no completion may be visible before one is delivered"
            );
            assert!(t.try_complete(forged), "the submitted op must remain completable");
        }
    });
}

/// Completion-queue invariant #3: a full submit → complete → reap drain by
/// two concurrent workers over a shared table neither deadlocks nor leaks a
/// slot, and retired generations stay inert — stale tickets read complete
/// but can never re-complete a recycled slot (the ABA guard behind
/// [`bh_common::Reactor::forget`]).
#[test]
fn optable_drains_without_deadlock_or_slot_leak() {
    loom::model(|| {
        let t = Arc::new(OpTable::with_capacity(2));
        let t1 = Arc::clone(&t);
        let worker = thread::spawn(move || {
            let tk = (0..2)
                .find_map(|s| t1.try_submit(s))
                .expect("two slots, two workers: a free slot must exist");
            assert!(t1.try_complete(tk));
            assert!(t1.reap(tk));
            tk
        });
        let mine = (0..2)
            .find_map(|s| t.try_submit(s))
            .expect("two slots, two workers: a free slot must exist");
        assert!(t.try_complete(mine));
        assert!(t.reap(mine));
        let theirs = worker.join().unwrap();

        // Retired generations: stale handles read complete, cannot re-fire.
        for stale in [mine, theirs] {
            assert!(t.is_complete(stale), "reaped generation must read complete");
            assert!(!t.try_complete(stale), "stale ticket must not re-complete");
        }
        // No slot leaked: both are claimable again at a fresh generation.
        let a = t.try_submit(0).expect("slot 0 must be reusable after the drain");
        let b = t.try_submit(1).expect("slot 1 must be reusable after the drain");
        assert!(!t.is_complete(a) && !t.is_complete(b));
    });
}

/// Satellite carry-over from ROADMAP: the batched executor's segment-major
/// scheduler composed — workers steal segments through a `StealingCursor`
/// and publish per-segment best distances into one `SharedBound`. Over any
/// interleaving: the segment set partitions exactly (no segment scanned
/// twice or dropped), and the bound settles on the global minimum — i.e.
/// batched scheduling cannot lose the exactness of the per-query result.
#[test]
fn segment_major_scheduler_partitions_work_and_settles_min() {
    loom::model(|| {
        // "Best distance" each segment would contribute; min is segment 1.
        const SEG_BEST: [f32; 3] = [4.0, 1.0, 2.5];
        let cursor = Arc::new(StealingCursor::new());
        let bound = Arc::new(SharedBound::new());

        let c1 = Arc::clone(&cursor);
        let b1 = Arc::clone(&bound);
        let worker = thread::spawn(move || {
            let mut scanned = Vec::new();
            while let Some(seg) = c1.claim(SEG_BEST.len()) {
                // Segment-major inner loop: prune on the shared bound, then
                // publish this segment's best. Pruning may skip work but
                // never a segment claim.
                if SEG_BEST[seg] <= b1.get() {
                    b1.update(SEG_BEST[seg]);
                } else {
                    b1.record_skips(1);
                }
                scanned.push(seg);
            }
            scanned
        });

        let mut scanned = Vec::new();
        while let Some(seg) = cursor.claim(SEG_BEST.len()) {
            if SEG_BEST[seg] <= bound.get() {
                bound.update(SEG_BEST[seg]);
            } else {
                bound.record_skips(1);
            }
            scanned.push(seg);
        }
        let theirs = worker.join().unwrap();

        let mut all = scanned;
        all.extend(theirs);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "segments must partition exactly");
        // The minimum is always published: a bound that would prune segment
        // 1's best (1.0) can only exist if 1.0 was already published.
        assert_eq!(bound.get(), 1.0, "scheduler must settle on the global min");
    });
}

/// Lockdep edge-graph publish path (`bh_common::sync::lockgraph`): when two
/// threads race to publish the same acquisition-order edge, exactly one
/// `fetch_or` flips the bit (so exactly one runs the cycle backstop), and
/// the edge is visible to both afterwards; a disjoint edge is never lost.
#[test]
fn lockgraph_publish_is_first_sighting_exactly_once() {
    use bh_common::sync::lockgraph::EdgeGraph;
    loom::model(|| {
        let g = Arc::new(EdgeGraph::new(70)); // edge (1, 65) spans a word
        let g1 = Arc::clone(&g);
        let racer = thread::spawn(move || {
            let won_shared = g1.add_edge(1, 65);
            let won_mine = g1.add_edge(2, 65);
            (won_shared, won_mine)
        });
        let won_here = g.add_edge(1, 65);
        let (won_there, won_disjoint) = racer.join().unwrap();

        assert!(
            won_here ^ won_there,
            "exactly one publisher owns the first sighting of a shared edge"
        );
        assert!(won_disjoint, "a disjoint edge publish is never lost");
        assert!(g.has_edge(1, 65) && g.has_edge(2, 65));
        assert!(!g.has_edge(65, 1), "publication must not smear other bits");
    });
}

/// Fan-out primitive, invariant #1: whatever the caller and a helper race
/// through — helper spawned but never scheduled, helper claiming everything,
/// any split in between — every index runs exactly once, the results come
/// back in index order, and the two tallies add up to the list.
///
/// The same model shows that progress never depends on a helper waking: in
/// the schedules where the helper does not run until the caller has
/// returned, the caller finishes the whole list alone (`helper_tasks == 0`),
/// and the helper that wakes afterwards finds a closed cursor.
#[test]
fn fanout_runs_every_index_exactly_once() {
    let caller_alone = Arc::new(AtomicUsize::new(0));
    let helper_took_part = Arc::new(AtomicUsize::new(0));
    let (alone, shared) = (Arc::clone(&caller_alone), Arc::clone(&helper_took_part));
    loom::model(move || {
        const LEN: usize = 2;
        let pool = FanoutPool::new(1);
        let runs: [AtomicUsize; LEN] = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let out = pool.run(LEN, 2, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            Ok(i + 10)
        });
        for r in &runs {
            assert_eq!(r.load(Ordering::Relaxed), 1, "an index ran twice or not at all");
        }
        assert_eq!(out.caller_tasks + out.helper_tasks, LEN);
        assert_eq!(out.threads_started, 1);
        if out.helper_tasks == 0 {
            alone.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(out.into_results().unwrap(), vec![10, 11]);
        // Dropping the pool here joins the helper wherever it is: not yet
        // started, inside a stale job, or parked.
    });
    assert!(caller_alone.load(Ordering::Relaxed) > 0, "never saw the caller finish alone");
    assert!(helper_took_part.load(Ordering::Relaxed) > 0, "never saw the helper claim a task");
}

thread_local! {
    /// Set on the model's main thread so a task body can tell whether a
    /// helper is running it.
    static IS_CALLER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Fan-out primitive, invariant #2: a helper that claims an index and then
/// panics inside the task yields `Internal` for that fan-out, the caller
/// still returns (it waits for the claimed index to be *finished*, which the
/// panic path records too), and the next fan-out on the same pool — same
/// helper thread — works.
#[test]
fn fanout_helper_panic_is_internal_and_pool_survives() {
    let saw_panic = Arc::new(AtomicUsize::new(0));
    let saw = Arc::clone(&saw_panic);
    loom::model(move || {
        IS_CALLER.with(|c| c.set(true));
        let pool = FanoutPool::new(1);
        let out = pool.run(2, 2, |i| {
            if !IS_CALLER.with(|c| c.get()) {
                // resume_unwind: a panic without the hook's stderr noise.
                std::panic::resume_unwind(Box::new("helper task failed"));
            }
            Ok(i)
        });
        if out.panicked {
            saw.fetch_add(1, Ordering::Relaxed);
            assert!(out.helper_tasks >= 1, "only a helper's task panics in this model");
            assert!(matches!(out.into_results(), Err(BhError::Internal(_))));
        } else {
            assert_eq!(out.helper_tasks, 0);
            assert_eq!(out.into_results().unwrap(), vec![0, 1]);
        }
        let again = pool.run(2, 2, |i| Ok(i * 2));
        assert_eq!(again.threads_started, 0, "the helper thread survived the panic");
        assert!(!again.panicked);
        assert_eq!(again.caller_tasks + again.helper_tasks, 2);
        assert_eq!(again.into_results().unwrap(), vec![0, 2]);
        IS_CALLER.with(|c| c.set(false));
    });
    assert!(saw_panic.load(Ordering::Relaxed) > 0, "never saw the helper's task panic");
}

/// Fan-out primitive, invariant #3: dropping a pool whose helper is parked
/// between jobs (or has never been offered one) does not hang — loom-lite
/// reports a thread left parked forever as a deadlock.
#[test]
fn fanout_pool_drop_wakes_and_joins_parked_helper() {
    loom::model(|| {
        let pool = FanoutPool::new(1);
        let first = pool.run(2, 2, |i| Ok(i));
        assert_eq!(first.into_results().unwrap(), vec![0, 1]);
        drop(pool);
        // A pool that never fanned out has no thread to join.
        drop(FanoutPool::new(1));
    });
}
