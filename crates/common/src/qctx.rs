//! The per-statement context: one statement, one tally, one trace.
//!
//! A [`QueryCtx`] is created once per statement — by `Database::execute_session`,
//! or by `QueryEngine::execute_batch` (one per statement) when a direct caller
//! installed none — and installed on whichever thread works for the statement,
//! the way [`crate::trace`]'s span stack is: the calling thread for bind, plan,
//! scalar execution and materialisation, each fan-out thread around that
//! statement's search of one segment. The site doing a piece of work writes its
//! number into the statement's [`Tally`] (through [`QueryCtx::with`] below the
//! executor: a no-op when no statement is installed) and nowhere else; the
//! engine folds the tally into the global counters ([`StatementCounters`]) when
//! its call ends, and the query log records the tally itself. Nothing is read
//! back from a process-wide counter, so concurrent statements cannot see each
//! other's work. DESIGN.md §13.1 lists which site writes which cell.
//!
//! A statement that is to be traced ([`QueryCtx::traced`]: `EXPLAIN ANALYZE`,
//! an armed slow-query policy, a harness that asks) also owns its spans. Sites
//! open them through the installed context ([`QueryCtx::span`], inert when
//! there is none or it is untraced); the timed stages open a [`Stage`], which
//! writes the tally cell and cuts the span from the same two clock reads.

use crate::clock::Stopwatch;
use crate::metrics::{Counter, MetricsRegistry};
use crate::trace::{Span, SpanBuf, SpanId, SpanRecord};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// Declares the work columns once: the plain [`StatementWork`] the query log
/// stores and the atomic [`Tally`] a running statement adds to.
macro_rules! work_columns {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// What one statement did: the work columns of `system.query_log`,
        /// in column order.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatementWork {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl StatementWork {
            /// `(column name, value)` in `system.query_log` order.
            pub fn columns(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }

        /// The running form of [`StatementWork`]: one cell per column, added
        /// to from every thread working for the statement.
        #[derive(Debug, Default)]
        pub struct Tally {
            $($(#[$doc])* pub $name: Counter,)*
        }

        impl Tally {
            /// The tally so far.
            pub fn snapshot(&self) -> StatementWork {
                StatementWork { $($name: self.$name.get(),)* }
            }
        }
    };
}

work_columns! {
    /// Time in the binder (folds into `query.bind_ns`).
    bind_ns,
    /// Time in the planner (folds into `query.plan_ns`).
    plan_ns,
    /// Wall time of the executor phase (folds into `query.exec_ns`). A batch
    /// has one executor phase; it is charged to the batch's first statement.
    exec_ns,
    /// Summed wall time of this statement's per-segment searches (folds into
    /// `query.segment_ns`); can exceed `exec_ns` when segments are searched
    /// in parallel.
    segment_ns,
    /// Summed service time of the serving RPCs made for this statement
    /// (folds into `worker.rpc_ns`).
    rpc_ns,
    /// Rows or graph nodes whose distance was evaluated, under every plan:
    /// the rows the exact scan scored (Plan A, FLAT, the refine pass), the
    /// nodes an HNSW beam or the Plan C iterator visited, the rows scored in
    /// the IVF cells probed. No global counter carries it.
    rows_scanned,
    /// Segments skipped by scalar pruning (folds into
    /// `query.segments_pruned`).
    segments_pruned,
    /// Candidates this statement's scans skipped against the shared top-k
    /// bound (folds into `query.bound_skips`).
    bound_skips,
    /// Cache hits of every tier (the `cache.*.hit` counters' bumps made for
    /// this statement).
    cache_hits,
    /// Cache misses of every tier (`cache.*.miss`).
    cache_misses,
}

/// One statement's identity, tally and (when traced) spans. Shared (`Arc`)
/// between the thread that runs the statement and the fan-out threads that
/// search segments for it.
#[derive(Debug, Default)]
pub struct QueryCtx {
    /// The query-log id (0 for a context the engine made for a direct call).
    pub query_id: u64,
    /// Statement kind — one of [`crate::querylog::STATEMENT_KINDS`].
    pub kind: &'static str,
    /// Tenant the statement runs as.
    pub tenant: String,
    /// Session / connection label.
    pub session: String,
    strategy: OnceLock<&'static str>,
    /// The statement's work so far.
    pub tally: Tally,
    /// The statement's spans; `None` for an untraced statement.
    trace: Option<Arc<SpanBuf>>,
}

thread_local! {
    /// The statement this thread is working for right now.
    static CURRENT: RefCell<Option<Arc<QueryCtx>>> = const { RefCell::new(None) };
}

impl QueryCtx {
    /// A context for one statement, untraced.
    pub fn new(query_id: u64, kind: &'static str, tenant: &str, session: &str) -> Arc<QueryCtx> {
        QueryCtx::build(query_id, kind, tenant, session, None)
    }

    /// A context whose statement is traced: spans opened for it are kept
    /// (the first [`crate::trace::MAX_SPANS`]), timestamped against `origin`.
    pub fn traced(
        query_id: u64,
        kind: &'static str,
        tenant: &str,
        session: &str,
        origin: Stopwatch,
    ) -> Arc<QueryCtx> {
        QueryCtx::build(query_id, kind, tenant, session, Some(SpanBuf::new(origin)))
    }

    fn build(
        query_id: u64,
        kind: &'static str,
        tenant: &str,
        session: &str,
        trace: Option<Arc<SpanBuf>>,
    ) -> Arc<QueryCtx> {
        Arc::new(QueryCtx {
            query_id,
            kind,
            tenant: tenant.to_string(),
            session: session.to_string(),
            trace,
            ..QueryCtx::default()
        })
    }

    /// Make this the statement the current thread works for until the guard
    /// drops (the statement installed before, if any, is restored then).
    pub fn install(self: &Arc<Self>) -> Installed {
        let prev = CURRENT.with(|c| c.replace(Some(self.clone())));
        Installed { prev, _this_thread: PhantomData }
    }

    /// The statement installed on this thread.
    pub fn current() -> Option<Arc<QueryCtx>> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Run `f` on the statement installed on this thread; work done for no
    /// statement (a direct call into a lower layer) is tallied nowhere.
    #[inline]
    pub fn with(f: impl FnOnce(&QueryCtx)) {
        CURRENT.with(|c| {
            if let Some(ctx) = c.borrow().as_deref() {
                f(ctx);
            }
        });
    }

    /// Open a span for the statement installed on this thread, parented to
    /// the innermost span open on it. Inert when no statement is installed or
    /// it is not traced.
    #[inline]
    pub fn span(name: &'static str) -> Span {
        CURRENT.with(|c| match c.borrow().as_deref() {
            Some(QueryCtx { trace: Some(buf), .. }) => buf.span(name),
            _ => Span::disabled(),
        })
    }

    /// Open a span for this statement under a span opened for it on another
    /// thread: how a fan-out helper parents its task to the span open on the
    /// scheduling thread, whose stack it cannot see.
    pub fn span_under(&self, parent: SpanId, name: &'static str) -> Span {
        self.trace.as_ref().map_or_else(Span::disabled, |buf| buf.span_under(parent, name))
    }

    /// Time a stage of this statement: when the guard drops, its wall time is
    /// added to `cell` and, if the statement is traced, recorded as the span
    /// `name` — start and duration from the same two clock reads.
    pub fn stage<'a>(&self, name: &'static str, cell: &'a Counter) -> Stage<'a> {
        let started = Stopwatch::start();
        let span =
            self.trace.as_ref().map_or_else(Span::disabled, |buf| buf.span_since(name, &started));
        Stage { cell, started, span }
    }

    /// The spans finished for this statement so far, oldest first, and how
    /// many more were dropped at the buffer's bound. Empty when untraced.
    pub fn spans(&self) -> (Vec<SpanRecord>, u64) {
        self.trace.as_ref().map_or_else(Default::default, |buf| buf.spans())
    }

    /// Move this statement's finished spans out (`None` when untraced).
    pub fn take_spans(&self) -> Option<Vec<SpanRecord>> {
        self.trace.as_ref().map(|buf| buf.take_spans())
    }

    /// Record the plan the planner chose (the first choice stands).
    pub fn set_strategy(&self, slug: &'static str) {
        let _ = self.strategy.set(slug);
    }

    /// The chosen plan's slug; empty when no plan was chosen.
    pub fn strategy(&self) -> &'static str {
        self.strategy.get().copied().unwrap_or("")
    }
}

/// Guard of [`QueryCtx::install`]; restores the previous statement on drop.
/// Not `Send`: it must drop on the thread that installed it.
pub struct Installed {
    prev: Option<Arc<QueryCtx>>,
    _this_thread: PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Guard of [`QueryCtx::stage`].
pub struct Stage<'a> {
    cell: &'a Counter,
    started: Stopwatch,
    /// The stage's span, for attributes (inert when the statement is
    /// untraced). It ends when the guard drops, not before.
    pub span: Span,
}

impl Drop for Stage<'_> {
    fn drop(&mut self) {
        let nanos = self.started.elapsed_nanos();
        self.cell.add(nanos);
        self.span.end_after(nanos);
    }
}

/// Reads one cell of a [`StatementWork`].
type WorkCell = fn(&StatementWork) -> u64;

/// The global counters a statement's tally folds into, resolved once by the
/// engine that folds it (`QueryEngine::execute_batch`, when the call ends).
/// `rows_scanned` has no global counter and the cache cells' are the caches'
/// own ([`cache_hit`], [`cache_miss`]).
pub struct StatementCounters {
    work: [(Arc<Counter>, WorkCell); 7],
    /// `query.plan.<slug>`, by slug.
    plans: [(&'static str, Arc<Counter>); 4],
}

impl StatementCounters {
    /// The handles, from the registry the statements' layers report to.
    pub fn resolve(m: &MetricsRegistry) -> StatementCounters {
        StatementCounters {
            work: [
                (m.counter("query.bind_ns"), |w| w.bind_ns),
                (m.counter("query.plan_ns"), |w| w.plan_ns),
                (m.counter("query.exec_ns"), |w| w.exec_ns),
                (m.counter("query.segment_ns"), |w| w.segment_ns),
                (m.counter("worker.rpc_ns"), |w| w.rpc_ns),
                (m.counter("query.segments_pruned"), |w| w.segments_pruned),
                (m.counter("query.bound_skips"), |w| w.bound_skips),
            ],
            plans: [
                ("brute_force", m.counter("query.plan.brute_force")),
                ("pre_filter", m.counter("query.plan.pre_filter")),
                ("post_filter", m.counter("query.plan.post_filter")),
                ("filtered_traversal", m.counter("query.plan.filtered_traversal")),
            ],
        }
    }

    /// Add one finished statement: its tally, and one bump of its plan.
    pub fn fold(&self, ctx: &QueryCtx) {
        let work = ctx.tally.snapshot();
        for (counter, cell) in &self.work {
            counter.add(cell(&work));
        }
        if let Some((_, chosen)) = self.plans.iter().find(|(slug, _)| *slug == ctx.strategy()) {
            chosen.inc();
        }
    }
}

/// A cache hit: the cache's own counter and the statement's tally.
#[inline]
pub fn cache_hit(own: &Counter) {
    own.inc();
    QueryCtx::with(|c| c.tally.cache_hits.inc());
}

/// A cache miss: the cache's own counter and the statement's tally.
#[inline]
pub fn cache_miss(own: &Counter) {
    own.inc();
    QueryCtx::with(|c| c.tally.cache_misses.inc());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_tallied_on_the_installed_statement_only() {
        QueryCtx::with(|_| panic!("nothing is installed"));
        let (a, b) = (QueryCtx::new(1, "select", "t", "s"), QueryCtx::new(2, "select", "t", "s"));
        {
            let _a = a.install();
            QueryCtx::with(|c| c.tally.rows_scanned.add(3));
            {
                let _b = b.install();
                QueryCtx::with(|c| c.tally.rows_scanned.add(5));
                assert_eq!(QueryCtx::current().map(|c| c.query_id), Some(2));
            }
            // The inner guard restored the outer statement.
            QueryCtx::with(|c| c.tally.rows_scanned.add(4));
        }
        assert!(QueryCtx::current().is_none());
        assert_eq!(a.tally.snapshot().rows_scanned, 7);
        assert_eq!(b.tally.snapshot().rows_scanned, 5);
    }

    #[test]
    fn helper_threads_tally_into_the_statement_they_install() {
        let ctx = QueryCtx::new(9, "select", "t", "s");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _in = ctx.install();
                    let own = Counter::default();
                    cache_hit(&own);
                    cache_miss(&own);
                    assert_eq!(own.get(), 2);
                });
            }
        });
        let work = ctx.tally.snapshot();
        assert_eq!((work.cache_hits, work.cache_misses), (4, 4));
    }

    #[test]
    fn columns_follow_the_query_log_order_and_the_first_strategy_stands() {
        let ctx = QueryCtx::new(1, "select", "t", "s");
        assert_eq!(ctx.strategy(), "");
        ctx.set_strategy("pre_filter");
        ctx.set_strategy("brute_force");
        assert_eq!(ctx.strategy(), "pre_filter");
        ctx.tally.bound_skips.add(2);
        let names: Vec<&str> = ctx.tally.snapshot().columns().iter().map(|c| c.0).collect();
        assert_eq!(
            names,
            [
                "bind_ns", "plan_ns", "exec_ns", "segment_ns", "rpc_ns", "rows_scanned",
                "segments_pruned", "bound_skips", "cache_hits", "cache_misses"
            ]
        );
        assert_eq!(ctx.tally.snapshot().columns()[7], ("bound_skips", 2));
    }
}
