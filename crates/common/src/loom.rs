//! Loom-lite: an in-tree model checker for the workspace's lock-free paths.
//!
//! The real `loom` crate is the reference tool for this job, but this
//! workspace builds in offline containers with no registry access, so we
//! vendor the small subset we need: exhaustive exploration of all
//! **sequentially-consistent interleavings** of a handful of model threads,
//! with a context-switch point before every atomic operation.
//!
//! The API deliberately mirrors loom's so call sites read identically and a
//! future swap to the real crate is a one-line import change:
//!
//! ```ignore
//! use bh_common::loom;
//!
//! loom::model(|| {
//!     let b = loom::sync::Arc::new(SharedBound::new());
//!     let b2 = b.clone();
//!     let t = loom::thread::spawn(move || b2.update(3.0));
//!     b.update(5.0);
//!     t.join().unwrap();
//!     assert_eq!(b.get(), 3.0);
//! });
//! ```
//!
//! ## How it works
//!
//! Model threads are real OS threads run **cooperatively**: exactly one is
//! active at a time, gated by a mutex + condvar. Before every atomic
//! operation (and at spawn/join edges) the active thread reaches a *choice
//! point* where the scheduler picks which runnable thread goes next,
//! recording the chosen thread and the set of alternatives. [`model`] replays
//! the closure under depth-first search over those choices: after each run it
//! rewinds to the deepest choice point with an untried alternative and forces
//! that branch, until the tree is exhausted. Assertion failures, deadlocks
//! and panics on any interleaving are reported with the usual panic payload.
//!
//! ## Fidelity limits (vs. real loom)
//!
//! * All atomics execute `SeqCst` regardless of the ordering argument: the
//!   checker explores thread *interleavings*, not weak-memory *reorderings*.
//!   It therefore proves algorithmic (CAS-protocol) correctness, while the
//!   CI TSan lane covers ordering races.
//! * `compare_exchange_weak` is modeled as the strong variant (no spurious
//!   failures); every user loop must tolerate strong semantics anyway.
//! * Only atomics (and [`thread::park`]) yield. Model threads must share
//!   mutable state through the [`sync::atomic`] wrappers (plus `Arc`), which
//!   is all our lock-free code uses. A `std` lock is harmless as long as no
//!   yield point sits inside its critical section (the section is then atomic
//!   in the model); holding one across a yield wedges the scheduler.
//! * [`thread::park`] blocks at model level until [`thread::Thread::unpark`]
//!   (token semantics like std, no spurious wake-ups); a model that leaves a
//!   thread parked forever is reported as a deadlock.
//!
//! The module is always compiled (so it typechecks in ordinary builds), but
//! the workspace only switches its atomics to these wrappers under
//! `--cfg loom`; see `bound.rs` / `cursor.rs` and `crates/common/tests/loom.rs`.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
// lint: allow(raw-sync) - the model checker's own scheduler cannot run on
// the ranked wrappers it is used to verify (circular instrumentation).
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Iteration cap before the checker gives up. Overridable via the
/// `LOOMLITE_MAX_ITERS` environment variable.
const DEFAULT_MAX_ITERS: usize = 1_000_000;

/// One recorded scheduling decision: which thread ran, out of which
/// candidates (ascending thread ids; `chosen` is always a member).
#[derive(Debug, Clone)]
struct Choice {
    chosen: usize,
    candidates: Vec<usize>,
}

#[derive(Debug)]
struct State {
    /// Per-thread: eligible to be scheduled right now.
    runnable: Vec<bool>,
    /// Per-thread: closure has completed (or was abandoned on abort).
    finished: Vec<bool>,
    /// Per-thread: the thread id it is blocked joining on, if any.
    blocked_on: Vec<Option<usize>>,
    /// Per-thread: blocked in [`thread::park`] awaiting an unpark.
    parked: Vec<bool>,
    /// Per-thread: an unpark arrived while not parked (std's park token).
    unpark_token: Vec<bool>,
    /// The single thread currently allowed to run.
    active: usize,
    /// Decisions taken so far in this run.
    schedule: Vec<Choice>,
    /// Forced prefix of decisions (from the DFS driver).
    preset: Vec<usize>,
    /// Next decision index.
    cursor: usize,
    /// A thread panicked or the model deadlocked: unwind everyone.
    abort: bool,
    /// Every model thread has finished this run.
    all_done: bool,
    /// First panic payload observed (rethrown by [`model`]).
    payload: Option<Box<dyn Any + Send>>,
}

struct Sched {
    state: Mutex<State>,
    cv: Condvar,
}

#[derive(Clone)]
struct Ctx {
    sched: Arc<Sched>,
    tid: usize,
}

thread_local! {
    /// The scheduler this OS thread belongs to, when running inside a model.
    /// `None` outside [`model`] — atomics then behave as plain std atomics,
    /// so `--cfg loom` builds still run ordinary unit tests correctly.
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn current() -> Option<Ctx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Context-switch point: called before every atomic operation.
fn yield_point() {
    if let Some(ctx) = current() {
        ctx.sched.switch(ctx.tid);
    }
}

fn aborted() -> ! {
    panic!("loom-lite: model aborted by a failure on another thread");
}

impl Sched {
    fn new(preset: Vec<usize>) -> Self {
        Sched {
            state: Mutex::new(State {
                runnable: vec![true],
                finished: vec![false],
                blocked_on: vec![None],
                parked: vec![false],
                unpark_token: vec![false],
                active: 0,
                schedule: Vec::new(),
                preset,
                cursor: 0,
                abort: false,
                all_done: false,
                payload: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A panicking model thread never holds this lock, but be robust to
        // poisoning anyway: the state stays consistent.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pick and activate the next thread at a choice point. Sets `all_done`
    /// when every thread has finished, aborts on deadlock.
    fn pick_next(&self, st: &mut State) {
        if st.abort {
            self.cv.notify_all();
            return;
        }
        let candidates: Vec<usize> =
            (0..st.runnable.len()).filter(|&t| st.runnable[t]).collect();
        if candidates.is_empty() {
            if st.finished.iter().all(|&f| f) {
                st.all_done = true;
            } else {
                st.abort = true;
                if st.payload.is_none() {
                    st.payload = Some(Box::new(String::from(
                        "loom-lite: deadlock — threads are blocked on join or park \
                         but no thread is runnable",
                    )));
                }
            }
            self.cv.notify_all();
            return;
        }
        let mut chosen = candidates[0];
        if st.cursor < st.preset.len() {
            let want = st.preset[st.cursor];
            // A forced decision must replay identically; if the closure is
            // nondeterministic the candidate set can diverge — fall back to
            // the smallest runnable thread rather than wedge.
            if candidates.contains(&want) {
                chosen = want;
            }
        }
        st.schedule.push(Choice { chosen, candidates });
        st.cursor += 1;
        st.active = chosen;
        self.cv.notify_all();
    }

    /// Yield from thread `me` and block until it is scheduled again.
    fn switch(&self, me: usize) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            aborted();
        }
        self.pick_next(&mut st);
        while st.active != me && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.abort {
            drop(st);
            aborted();
        }
    }

    /// Register a new model thread; returns its tid. The child starts
    /// runnable but only executes once the scheduler activates it.
    fn register(&self) -> usize {
        let mut st = self.lock();
        let tid = st.runnable.len();
        st.runnable.push(true);
        st.finished.push(false);
        st.blocked_on.push(None);
        st.parked.push(false);
        st.unpark_token.push(false);
        tid
    }

    /// Child-thread entry: block until first scheduled. Returns `false` when
    /// the model aborted before this thread ever ran.
    fn wait_for_start(&self, me: usize) -> bool {
        let mut st = self.lock();
        while st.active != me && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        !st.abort
    }

    /// Block thread `me` until `target` finishes.
    fn join_model(&self, me: usize, target: usize) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            aborted();
        }
        if st.finished[target] {
            return;
        }
        st.runnable[me] = false;
        st.blocked_on[me] = Some(target);
        self.pick_next(&mut st);
        while st.active != me && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.abort {
            drop(st);
            aborted();
        }
    }

    /// Block thread `me` until unparked; a pending token is consumed instead
    /// (then this is a plain scheduling point).
    fn park(&self, me: usize) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            aborted();
        }
        if st.unpark_token[me] {
            st.unpark_token[me] = false;
        } else {
            st.runnable[me] = false;
            st.parked[me] = true;
        }
        self.pick_next(&mut st);
        while st.active != me && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.abort {
            drop(st);
            aborted();
        }
    }

    /// Make a parked `target` runnable, or leave it a token. Not itself a
    /// scheduling point: the state change is atomic and the caller's next
    /// atomic operation yields.
    fn unpark(&self, target: usize) {
        let mut st = self.lock();
        if st.parked[target] {
            st.parked[target] = false;
            st.runnable[target] = true;
        } else if !st.finished[target] {
            st.unpark_token[target] = true;
        }
    }

    /// Thread `tid` completed its closure: wake joiners, hand off.
    fn finish(&self, tid: usize) {
        let mut st = self.lock();
        st.finished[tid] = true;
        st.runnable[tid] = false;
        for t in 0..st.blocked_on.len() {
            if st.blocked_on[t] == Some(tid) {
                st.blocked_on[t] = None;
                st.runnable[t] = true;
            }
        }
        if st.abort {
            self.cv.notify_all();
            return;
        }
        self.pick_next(&mut st);
    }

    /// The root closure returned: drive any still-unfinished threads to
    /// completion so the run (and its schedule) is complete.
    fn finish_main(&self) {
        let mut st = self.lock();
        st.finished[0] = true;
        st.runnable[0] = false;
        if st.finished.iter().all(|&f| f) {
            st.all_done = true;
            self.cv.notify_all();
            return;
        }
        self.pick_next(&mut st);
        while !st.all_done && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Record a panic payload and unwind every model thread.
    fn abort_with(&self, payload: Box<dyn Any + Send>) {
        let mut st = self.lock();
        st.abort = true;
        if st.payload.is_none() {
            st.payload = Some(payload);
        }
        self.cv.notify_all();
    }
}

/// Exhaustively check `f` under every sequentially-consistent interleaving
/// of its model threads. Panics (with the original payload) if any
/// interleaving fails an assertion, panics, or deadlocks.
///
/// All cross-thread state must be created *inside* the closure and shared
/// via [`sync::Arc`] + [`sync::atomic`] wrappers, exactly as with loom.
pub fn model<F>(f: F)
where
    F: Fn(),
{
    let max_iters = std::env::var("LOOMLITE_MAX_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_MAX_ITERS);
    let mut preset: Vec<usize> = Vec::new();
    let mut iters = 0usize;
    loop {
        iters += 1;
        assert!(
            iters <= max_iters,
            "loom-lite: exceeded {max_iters} interleavings without exhausting the \
             schedule tree; shrink the model or raise LOOMLITE_MAX_ITERS"
        );
        let sched = Arc::new(Sched::new(preset.clone()));
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(Ctx { sched: Arc::clone(&sched), tid: 0 })
        });
        let outcome = catch_unwind(AssertUnwindSafe(&f));
        match outcome {
            Ok(()) => sched.finish_main(),
            Err(p) => sched.abort_with(p),
        }
        CURRENT.with(|c| *c.borrow_mut() = None);
        let (schedule, payload) = {
            let mut st = sched.lock();
            (std::mem::take(&mut st.schedule), st.payload.take())
        };
        if let Some(p) = payload {
            resume_unwind(p);
        }
        // Depth-first: rewind to the deepest choice with an untried (larger)
        // alternative and force it on the next run.
        let mut next_preset = None;
        for i in (0..schedule.len()).rev() {
            let c = &schedule[i];
            if let Some(&alt) = c.candidates.iter().find(|&&t| t > c.chosen) {
                let mut p: Vec<usize> =
                    schedule[..i].iter().map(|ch| ch.chosen).collect();
                p.push(alt);
                next_preset = Some(p);
                break;
            }
        }
        match next_preset {
            Some(p) => preset = p,
            None => break,
        }
    }
}

/// Mirror of `loom::thread`.
pub mod thread {
    use super::{catch_unwind, Arc, AssertUnwindSafe, Ctx, Mutex, CURRENT};

    /// A model thread's identity: the target of [`Thread::unpark`].
    #[derive(Debug, Clone)]
    pub struct Thread {
        tid: usize,
    }

    impl Thread {
        /// Wake the thread from [`park`], or make its next `park` return
        /// immediately (std's token semantics).
        pub fn unpark(&self) {
            let ctx =
                super::current().expect("loom-lite: Thread::unpark called outside model()");
            ctx.sched.unpark(self.tid);
        }
    }

    /// The calling model thread.
    pub fn current() -> Thread {
        let ctx = super::current().expect("loom-lite: thread::current called outside model()");
        Thread { tid: ctx.tid }
    }

    /// Block until another thread unparks this one (a scheduling point).
    pub fn park() {
        let ctx = super::current().expect("loom-lite: thread::park called outside model()");
        ctx.sched.park(ctx.tid);
    }

    /// Handle to a model thread; `join` blocks at model level (a scheduling
    /// point), then reaps the OS thread.
    pub struct JoinHandle<T> {
        thread: Thread,
        result: Arc<Mutex<Option<T>>>,
        os: Option<std::thread::JoinHandle<()>>,
    }

    impl<T> JoinHandle<T> {
        /// The spawned thread's identity.
        pub fn thread(&self) -> &Thread {
            &self.thread
        }

        /// Wait for the thread to finish and return its value. Mirrors
        /// `std::thread::JoinHandle::join`; a panicking child aborts the
        /// whole model, so by the time this returns `Err` is impossible —
        /// the `Result` exists for std/loom signature compatibility.
        pub fn join(mut self) -> std::thread::Result<T> {
            let ctx = super::current()
                .expect("loom-lite: JoinHandle::join called outside model()");
            ctx.sched.join_model(ctx.tid, self.thread.tid);
            if let Some(os) = self.os.take() {
                let _ = os.join();
            }
            let v = self
                .result
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("loom-lite: joined thread finished without a result");
            Ok(v)
        }
    }

    /// Spawn a model thread. Must be called inside [`super::model`].
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let ctx =
            super::current().expect("loom-lite: thread::spawn called outside model()");
        let sched = Arc::clone(&ctx.sched);
        let tid = sched.register();
        let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let result2 = Arc::clone(&result);
        let sched2 = Arc::clone(&sched);
        let os = std::thread::spawn(move || {
            CURRENT.with(|c| {
                *c.borrow_mut() =
                    Some(Ctx { sched: Arc::clone(&sched2), tid })
            });
            if sched2.wait_for_start(tid) {
                match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(v) => {
                        *result2.lock().unwrap_or_else(|e| e.into_inner()) =
                            Some(v);
                    }
                    Err(p) => sched2.abort_with(p),
                }
            }
            sched2.finish(tid);
        });
        // Spawning is itself a scheduling point: the child may run first.
        ctx.sched.switch(ctx.tid);
        JoinHandle { thread: Thread { tid }, result, os: Some(os) }
    }

    /// Explicit scheduling point (no-op outside a model).
    pub fn yield_now() {
        super::yield_point();
    }
}

/// Mirror of `loom::sync`.
pub mod sync {
    pub use std::sync::Arc;

    /// Atomic wrappers that insert a scheduling point before every
    /// operation. All operations execute `SeqCst` (see module docs).
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        macro_rules! atomic_wrapper {
            ($name:ident, $inner:ident, $t:ty) => {
                /// Model-checked stand-in for `std::sync::atomic::`
                #[doc = stringify!($inner)]
                /// — yields to the loom-lite scheduler before each op.
                #[derive(Debug, Default)]
                pub struct $name(std::sync::atomic::$inner);

                impl $name {
                    pub fn new(v: $t) -> Self {
                        Self(std::sync::atomic::$inner::new(v))
                    }

                    pub fn load(&self, _order: Ordering) -> $t {
                        super::super::yield_point();
                        self.0.load(Ordering::SeqCst)
                    }

                    pub fn store(&self, v: $t, _order: Ordering) {
                        super::super::yield_point();
                        self.0.store(v, Ordering::SeqCst)
                    }

                    pub fn swap(&self, v: $t, _order: Ordering) -> $t {
                        super::super::yield_point();
                        self.0.swap(v, Ordering::SeqCst)
                    }

                    pub fn fetch_add(&self, v: $t, _order: Ordering) -> $t {
                        super::super::yield_point();
                        self.0.fetch_add(v, Ordering::SeqCst)
                    }

                    pub fn fetch_sub(&self, v: $t, _order: Ordering) -> $t {
                        super::super::yield_point();
                        self.0.fetch_sub(v, Ordering::SeqCst)
                    }

                    pub fn fetch_or(&self, v: $t, _order: Ordering) -> $t {
                        super::super::yield_point();
                        self.0.fetch_or(v, Ordering::SeqCst)
                    }

                    pub fn compare_exchange(
                        &self,
                        current: $t,
                        new: $t,
                        _success: Ordering,
                        _failure: Ordering,
                    ) -> Result<$t, $t> {
                        super::super::yield_point();
                        self.0.compare_exchange(
                            current,
                            new,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                    }

                    /// Modeled as the strong variant: no spurious failures.
                    pub fn compare_exchange_weak(
                        &self,
                        current: $t,
                        new: $t,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$t, $t> {
                        self.compare_exchange(current, new, success, failure)
                    }
                }
            };
        }

        atomic_wrapper!(AtomicU32, AtomicU32, u32);
        atomic_wrapper!(AtomicU64, AtomicU64, u64);
        atomic_wrapper!(AtomicUsize, AtomicUsize, usize);
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::Arc;

    // These tests exercise the checker itself with plain std threads + the
    // wrapper atomics; they run in ordinary `cargo test` (no --cfg loom).

    #[test]
    fn wrappers_work_outside_model() {
        let a = AtomicUsize::new(1);
        assert_eq!(a.load(Ordering::Relaxed), 1);
        a.store(2, Ordering::Relaxed);
        assert_eq!(a.fetch_add(3, Ordering::Relaxed), 2);
        assert_eq!(a.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn model_runs_single_thread_closure_once_per_schedule() {
        let runs = Arc::new(AtomicUsize::new(0));
        let r = runs.clone();
        super::model(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        // One thread, choice points have a single candidate: exactly 1 run.
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn model_explores_both_orders_of_two_writers() {
        // Two threads race to store 1 and 2; across all interleavings both
        // final values must be observed.
        let saw_one = Arc::new(AtomicUsize::new(0));
        let saw_two = Arc::new(AtomicUsize::new(0));
        let (s1, s2) = (saw_one.clone(), saw_two.clone());
        super::model(move || {
            let cell = Arc::new(AtomicUsize::new(0));
            let c1 = cell.clone();
            let c2 = cell.clone();
            let t1 = super::thread::spawn(move || c1.store(1, Ordering::SeqCst));
            let t2 = super::thread::spawn(move || c2.store(2, Ordering::SeqCst));
            t1.join().ok();
            t2.join().ok();
            match cell.load(Ordering::SeqCst) {
                1 => s1.fetch_add(1, Ordering::Relaxed),
                2 => s2.fetch_add(1, Ordering::Relaxed),
                v => unreachable!("impossible final value {v}"),
            };
        });
        assert!(saw_one.load(Ordering::Relaxed) > 0, "never saw store order 2,1");
        assert!(saw_two.load(Ordering::Relaxed) > 0, "never saw store order 1,2");
    }

    #[test]
    fn model_finds_lost_update_bug() {
        // Classic non-atomic increment (load; add; store): with two threads
        // some interleaving loses an update. The checker must find it.
        let caught = std::panic::catch_unwind(|| {
            super::model(|| {
                let n = Arc::new(AtomicUsize::new(0));
                let h: Vec<_> = (0..2)
                    .map(|_| {
                        let n = n.clone();
                        super::thread::spawn(move || {
                            let v = n.load(Ordering::SeqCst);
                            n.store(v + 1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for t in h {
                    t.join().ok();
                }
                assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
            });
        });
        assert!(caught.is_err(), "checker failed to find the lost-update race");
    }

    #[test]
    fn model_propagates_child_panic() {
        let caught = std::panic::catch_unwind(|| {
            super::model(|| {
                let t = super::thread::spawn(|| panic!("child boom"));
                t.join().ok();
            });
        });
        let payload = caught.expect_err("child panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("child boom"), "unexpected payload: {msg}");
    }
}
