//! Work-stealing task cursor and the persistent fan-out pool built on it.
//!
//! Intra-query fan-out (`query::exec`), compaction (`storage::table`) and
//! index builds (`vector::{ivf, quant::pq}`) hand a task list to several
//! threads. Rather than pre-partitioning (which straggles when task costs
//! are skewed), every participant claims the next unclaimed index from one
//! shared [`StealingCursor`] until the list is exhausted. The participants
//! run on a [`FanoutPool`]: the calling thread always claims tasks itself
//! and long-lived parked helpers join in when they wake, so a statement or a
//! build never creates a thread and never waits for one to start.
//!
//! The invariants the loom models (`crates/common/tests/loom.rs`) check: over
//! any interleaving, each index in `0..len` is claimed by **exactly one**
//! participant, after exhaustion every participant observes `None`, and a
//! fan-out returns only once every index a helper claimed has finished.

use crate::error::{BhError, Result};
use crate::sync::{classes, Mutex, MutexGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};

#[cfg(loom)]
use crate::loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(loom)]
use crate::loom::thread::{self, JoinHandle, Thread};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::thread::{self, JoinHandle, Thread};

/// Shared claim counter over a task list of known length.
///
/// `fetch_add` hands every caller a distinct ticket; tickets past the end of
/// the list report exhaustion. `Relaxed` suffices: claiming an index carries
/// no data dependency — task *contents* are published to the participants
/// before they start (scoped spawn, or the pool's job hand-off), not through
/// this counter.
#[derive(Debug, Default)]
pub struct StealingCursor {
    next: AtomicUsize,
}

impl StealingCursor {
    pub fn new() -> Self {
        Self { next: AtomicUsize::new(0) }
    }

    /// Claim the next unclaimed index in `0..len`, or `None` when all `len`
    /// tasks have been handed out.
    #[inline]
    pub fn claim(&self, len: usize) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < len).then_some(i)
    }

    /// Exhaust the cursor and return how many indices of `0..len` had been
    /// handed out. Claims and the close are read-modify-writes of one atomic,
    /// so they are totally ordered: every claim that returned an index is
    /// counted, and every later claim returns `None`.
    pub fn close(&self, len: usize) -> usize {
        self.next.fetch_add(len, Ordering::Relaxed).min(len)
    }
}

/// What one [`FanoutPool::run`] did.
#[derive(Debug)]
pub struct Fanout<T> {
    /// Per-index outputs in index order. `None` marks an index nobody ran:
    /// the first `Err` or panic raises an abort flag that is checked before
    /// every claim. Indices are claimed in order and a claimed task always
    /// runs, so every index before an `Err` holds a result.
    pub results: Vec<Option<Result<T>>>,
    /// A task panicked (on any thread); its slot is `None`.
    pub panicked: bool,
    /// Indices run by the calling thread.
    pub caller_tasks: usize,
    /// Indices run by pool helpers.
    pub helper_tasks: usize,
    /// Helper threads this call had to start (the pool grows lazily).
    pub threads_started: usize,
}

impl<T> Fanout<T> {
    /// Outputs in index order; the first `Err` in index order wins, and a
    /// panicked task becomes [`BhError::Internal`].
    pub fn into_results(self) -> Result<Vec<T>> {
        if self.panicked {
            return Err(BhError::Internal("fan-out task panicked".into()));
        }
        self.results
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(BhError::Internal("fan-out aborted by a peer failure".into()))
                })
            })
            .collect()
    }
}

/// One fan-out in flight. Lives in an `Arc` so a helper that wakes late still
/// finds valid memory; the borrowed task body is only reachable through a
/// successful claim.
struct Job {
    len: usize,
    cursor: StealingCursor,
    /// Indices helpers have finished. Incremented with `Release` after the
    /// task body returned; the caller's `Acquire` load makes the body's
    /// writes visible and proves the helper is done with borrowed data.
    helper_done: AtomicUsize,
    /// Stop claiming: some task failed or panicked. A hint, not part of the
    /// completion protocol, so it stays a plain atomic under loom.
    abort: AtomicBool,
    panicked: AtomicBool,
    /// Runs index `i`; `false` raises `abort`. Borrowed from the caller's
    /// stack with its lifetime erased — see [`FanoutPool::run_shared`].
    body: &'static (dyn Fn(usize) -> bool + Sync),
    caller: Thread,
}

impl Job {
    fn claim(&self) -> Option<usize> {
        if self.abort.load(Ordering::Relaxed) {
            return None;
        }
        self.cursor.claim(self.len)
    }

    fn run_one(&self, i: usize) {
        match catch_unwind(AssertUnwindSafe(|| (self.body)(i))) {
            Ok(true) => {}
            Ok(false) => self.abort.store(true, Ordering::Relaxed),
            Err(_) => {
                self.panicked.store(true, Ordering::Relaxed);
                self.abort.store(true, Ordering::Relaxed);
            }
        }
    }

    /// A helper's whole participation in this job.
    fn help(&self) {
        let mut ran = false;
        while let Some(i) = self.claim() {
            self.run_one(i);
            ran = true;
            self.helper_done.fetch_add(1, Ordering::Release);
        }
        if ran {
            self.caller.unpark();
        }
    }

    /// Stop further claims, then wait until every index a helper claimed has
    /// finished. Returns the number of helper-run indices.
    fn close_and_wait(&self, caller_tasks: usize) -> usize {
        let helper_claimed = self.cursor.close(self.len) - caller_tasks;
        while self.helper_done.load(Ordering::Acquire) != helper_claimed {
            thread::park();
        }
        helper_claimed
    }
}

/// Who ran what in one fan-out; becomes the public half of [`Fanout`].
#[derive(Default)]
struct Tally {
    caller_tasks: usize,
    helper_tasks: usize,
    threads_started: usize,
    panicked: bool,
}

/// Closes the job and waits out the helpers on every exit from the caller's
/// claim loop, unwinding included: the borrow behind `Job::body` must not
/// end while a helper can still call it.
struct Joiner<'a> {
    job: &'a Job,
    caller_tasks: usize,
}

impl Joiner<'_> {
    /// The normal exit: returns the number of helper-run indices.
    fn finish(self) -> usize {
        let helper_tasks = self.job.close_and_wait(self.caller_tasks);
        std::mem::forget(self);
        helper_tasks
    }
}

impl Drop for Joiner<'_> {
    fn drop(&mut self) {
        self.job.close_and_wait(self.caller_tasks);
    }
}

/// Where a helper slot stands; changes only under the slot's lock.
#[derive(Default, PartialEq)]
enum Phase {
    /// No thread yet; the first caller that wants this slot spawns one.
    #[default]
    Unstarted,
    /// Parked (or about to park) with an empty mailbox.
    Idle,
    /// A caller has put a job in the mailbox; the helper is waking up for
    /// it, running it, or on its way back to the mailbox.
    Busy,
}

/// One helper's mailbox.
#[derive(Default)]
struct Slot {
    phase: Phase,
    job: Option<Arc<Job>>,
    /// The helper's own handle, registered before it first goes `Idle`.
    thread: Option<Thread>,
    join: Option<JoinHandle<()>>,
    shutdown: bool,
}

type Slots = Arc<[Mutex<Slot>]>;

/// Lock a helper's mailbox. A scheduling point under loom, so the models
/// explore both orders of a caller's hand-off and the helper's own check.
fn lock_mailbox(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    #[cfg(loom)]
    thread::yield_now();
    slot.lock()
}

fn helper_main(slots: Slots, idx: usize) {
    let slot = &slots[idx];
    lock_mailbox(slot).thread = Some(thread::current());
    loop {
        let job = {
            let mut mailbox = lock_mailbox(slot);
            let job = mailbox.job.take();
            if job.is_none() {
                if mailbox.shutdown {
                    return;
                }
                mailbox.phase = Phase::Idle;
            }
            job
        };
        // Both outside the lock: a task must never run under it, and park
        // is a scheduling point under loom.
        match job {
            Some(job) => job.help(),
            None => thread::park(),
        }
    }
}

#[cfg(not(loom))]
fn spawn_helper(slots: Slots, idx: usize) -> Option<JoinHandle<()>> {
    thread::Builder::new()
        .name(format!("bh-fanout-{idx}"))
        .spawn(move || helper_main(slots, idx))
        .ok()
}

#[cfg(loom)]
fn spawn_helper(slots: Slots, idx: usize) -> Option<JoinHandle<()>> {
    Some(thread::spawn(move || helper_main(slots, idx)))
}

/// A pool of long-lived helper threads for caller-first fan-out.
///
/// Helpers are started lazily, the first time a fan-out finds no idle one,
/// up to the cap given at construction; between jobs they sit parked. A
/// fan-out never waits for a helper to *start* working: the caller claims
/// from the same cursor, and waits only for indices a helper has actually
/// claimed. If every helper is busy (or slow to wake) the caller simply runs
/// the whole list itself.
pub struct FanoutPool {
    slots: Slots,
}

impl FanoutPool {
    /// A pool that will start at most `max_helpers` threads.
    pub fn new(max_helpers: usize) -> FanoutPool {
        let slots =
            (0..max_helpers).map(|_| Mutex::new(&classes::FANOUT_SLOT, Slot::default())).collect();
        FanoutPool { slots }
    }

    /// A pool sized to the machine: one helper per core beyond the caller's.
    pub fn for_machine() -> FanoutPool {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        FanoutPool::new(cores - 1)
    }

    /// Run `task(i)` for every `i` in `0..len` on the calling thread plus up
    /// to `parallelism - 1` helpers. `parallelism <= 1` (or a one-task list,
    /// or a pool without helpers) runs entirely on the calling thread and
    /// never touches the pool.
    pub fn run<T, F>(&self, len: usize, parallelism: usize, task: F) -> Fanout<T>
    where
        T: Send + Sync,
        F: Fn(usize) -> Result<T> + Sync,
    {
        let results: Vec<OnceLock<Result<T>>> = (0..len).map(|_| OnceLock::new()).collect();
        let body = |i: usize| {
            let r = task(i);
            let ok = r.is_ok();
            // Each index is claimed once, so the slot is always empty here.
            let _ = results[i].set(r);
            ok
        };
        let helpers =
            parallelism.saturating_sub(1).min(len.saturating_sub(1)).min(self.slots.len());
        let tally = if helpers == 0 {
            let mut tally = Tally::default();
            for i in 0..len {
                tally.caller_tasks += 1;
                match catch_unwind(AssertUnwindSafe(|| body(i))) {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(_) => {
                        tally.panicked = true;
                        break;
                    }
                }
            }
            tally
        } else {
            self.run_shared(len, helpers, &body)
        };
        Fanout {
            results: results.into_iter().map(OnceLock::into_inner).collect(),
            panicked: tally.panicked,
            caller_tasks: tally.caller_tasks,
            helper_tasks: tally.helper_tasks,
            threads_started: tally.threads_started,
        }
    }

    /// The shared path: offer the job to helpers, claim alongside them, wait
    /// for what they claimed.
    fn run_shared(
        &self,
        len: usize,
        helpers: usize,
        body: &(dyn Fn(usize) -> bool + Sync),
    ) -> Tally {
        // SAFETY: only the reference's lifetime changes. `Job::body` is
        // called solely for an index obtained from `Job::claim`, and the
        // helper bumps `helper_done` (Release) only after that call returned.
        // This function does not return — normally or by unwinding, see
        // `Joiner` — before it has closed the cursor, which makes every later
        // claim fail, and observed (Acquire) `helper_done` equal to the
        // number of indices helpers had claimed. So no call through the
        // erased reference can start or still be running once `body`'s real
        // lifetime ends.
        let body: &'static (dyn Fn(usize) -> bool + Sync) = unsafe { std::mem::transmute(body) };
        let job = Arc::new(Job {
            len,
            cursor: StealingCursor::new(),
            helper_done: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            body,
            caller: thread::current(),
        });
        let threads_started = self.offer(&job, helpers);
        let mut joiner = Joiner { job: &job, caller_tasks: 0 };
        while let Some(i) = job.claim() {
            job.run_one(i);
            joiner.caller_tasks += 1;
        }
        let caller_tasks = joiner.caller_tasks;
        let helper_tasks = joiner.finish();
        Tally {
            caller_tasks,
            helper_tasks,
            threads_started,
            panicked: job.panicked.load(Ordering::Relaxed),
        }
    }

    /// Hand `job` to up to `want` helpers, idle or not yet started. Returns
    /// how many threads were started.
    fn offer(&self, job: &Arc<Job>, mut want: usize) -> usize {
        let mut started = 0;
        for (idx, slot) in self.slots.iter().enumerate() {
            if want == 0 {
                break;
            }
            let mut mailbox = lock_mailbox(slot);
            if mailbox.phase == Phase::Busy {
                continue;
            }
            let unstarted = mailbox.phase == Phase::Unstarted;
            mailbox.phase = Phase::Busy;
            mailbox.job = Some(Arc::clone(job));
            let helper = mailbox.thread.clone();
            drop(mailbox);
            if unstarted {
                match spawn_helper(Arc::clone(&self.slots), idx) {
                    Some(handle) => {
                        lock_mailbox(slot).join = Some(handle);
                        started += 1;
                    }
                    None => {
                        // The OS refused a thread: run without it.
                        let mut mailbox = lock_mailbox(slot);
                        mailbox.phase = Phase::Unstarted;
                        mailbox.job = None;
                        continue;
                    }
                }
            } else if let Some(helper) = helper {
                helper.unpark();
            }
            want -= 1;
        }
        started
    }
}

impl Drop for FanoutPool {
    fn drop(&mut self) {
        for slot in self.slots.iter() {
            let (helper, join) = {
                let mut mailbox = lock_mailbox(slot);
                mailbox.shutdown = true;
                (mailbox.thread.clone(), mailbox.join.take())
            };
            let Some(join) = join else { continue };
            // A helper that has not registered itself yet has not parked
            // either: it will read `shutdown` before it ever does.
            if let Some(helper) = helper {
                helper.unpark();
            }
            let _ = join.join();
        }
    }
}

impl std::fmt::Debug for FanoutPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutPool").field("max_helpers", &self.slots.len()).finish()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn hands_out_each_index_once_then_none() {
        let c = StealingCursor::new();
        assert_eq!(c.claim(3), Some(0));
        assert_eq!(c.claim(3), Some(1));
        assert_eq!(c.claim(3), Some(2));
        assert_eq!(c.claim(3), None);
        assert_eq!(c.claim(3), None);
    }

    #[test]
    fn empty_list_is_immediately_exhausted() {
        let c = StealingCursor::new();
        assert_eq!(c.claim(0), None);
    }

    #[test]
    fn close_counts_claims_and_exhausts() {
        let c = StealingCursor::new();
        assert_eq!(c.claim(5), Some(0));
        assert_eq!(c.claim(5), Some(1));
        assert_eq!(c.close(5), 2);
        assert_eq!(c.claim(5), None);
        assert_eq!(c.close(5), 5, "a closed cursor reports the whole list as handed out");
    }

    #[test]
    fn concurrent_claims_partition_the_range() {
        let n = 1000;
        let c = StealingCursor::new();
        let mut claimed: Vec<Vec<usize>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(i) = c.claim(n) {
                            mine.push(i);
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                claimed.push(h.join().expect("worker"));
            }
        });
        let mut all: Vec<usize> = claimed.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn fanout_runs_every_index_once_in_order() {
        let pool = FanoutPool::new(3);
        for parallelism in [1, 2, 4, 9] {
            let runs: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
            let out = pool.run(runs.len(), parallelism, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                Ok(i * 3)
            });
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
            assert_eq!(out.caller_tasks + out.helper_tasks, 200);
            if parallelism == 1 {
                assert_eq!((out.helper_tasks, out.threads_started), (0, 0));
            }
            let got = out.into_results().unwrap();
            assert_eq!(got, (0..200).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn helpers_are_started_once_and_reused() {
        let pool = FanoutPool::new(2);
        let first = pool.run(64, 8, Ok);
        assert_eq!(first.threads_started, 2, "capped by the pool, not by parallelism");
        for _ in 0..100 {
            let again = pool.run(64, 8, Ok);
            assert_eq!(again.threads_started, 0);
            assert_eq!(again.caller_tasks + again.helper_tasks, 64);
        }
    }

    #[test]
    fn first_error_in_index_order_wins_and_stops_the_rest() {
        let pool = FanoutPool::new(1);
        let ran = AtomicUsize::new(0);
        let out = pool.run(1000, 2, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 3 || i == 5 {
                Err(BhError::Internal(format!("task {i}")))
            } else {
                Ok(i)
            }
        });
        assert!(ran.load(Ordering::Relaxed) < 500, "abort flag stops further claims");
        assert!(out.results[..3].iter().all(|r| matches!(r, Some(Ok(_)))));
        match out.into_results() {
            Err(BhError::Internal(msg)) => assert_eq!(msg, "task 3"),
            other => panic!("expected task 3's error, got {other:?}"),
        }
    }

    #[test]
    fn panic_becomes_internal_and_pool_stays_usable() {
        let pool = FanoutPool::new(2);
        for parallelism in [1, 3] {
            let out = pool.run(50, parallelism, |i| {
                if i == 7 {
                    std::panic::resume_unwind(Box::new("boom"));
                }
                Ok(i)
            });
            assert!(out.panicked);
            assert!(matches!(out.into_results(), Err(BhError::Internal(_))));
            let ok = pool.run(50, parallelism, Ok).into_results().unwrap();
            assert_eq!(ok.len(), 50);
        }
    }

    #[test]
    fn busy_pool_degrades_to_the_caller() {
        // The outer fan-out has taken the only helper slot, so a fan-out
        // issued from inside its tasks finds nobody to offer the job to and
        // completes on its own caller.
        let pool = FanoutPool::new(1);
        let out = pool.run(2, 2, |_| {
            let inner = pool.run(16, 2, Ok);
            assert_eq!((inner.helper_tasks, inner.threads_started), (0, 0));
            assert_eq!(inner.caller_tasks, 16);
            inner.into_results().map(|v| v.len())
        });
        assert_eq!(out.into_results().unwrap(), vec![16, 16]);
    }

    #[test]
    fn dropping_a_pool_joins_parked_helpers() {
        let pool = FanoutPool::new(3);
        let _ = pool.run(32, 4, Ok);
        drop(pool);
        let never_used = FanoutPool::new(3);
        drop(never_used);
    }
}
