//! The distributed hybrid-query executor (§II-C "Plan execution", §IV).
//!
//! Pipeline per SELECT:
//!
//! 1. **Bind** the AST against the schema (scalar predicate + vector query).
//! 2. **Plan** ([`QueryEngine::plan`], the one step EXPLAIN prints too): the
//!    cost model prices Plans A/B/C/D for every statement from its own
//!    selectivity, `k`, beam width and the table's current size, and the
//!    cheapest (or the forced one) runs; nothing is cached. A table with no
//!    index to plan over is not priced and runs Plan A. The paper's three
//!    rewrites hold by construction: every segment search takes `k` (`σ·k`
//!    on a quantized index), a distance range bounds the search and stops
//!    the iterator, and `BoundSelect::columns_read` never lists an
//!    unprojected vector column.
//! 3. **Schedule**: segment selection with scalar + semantic pruning and an
//!    adaptive reserve.
//! 4. **Execute** per segment on the owning worker: one task per segment
//!    resolves the owner and the index to search once (the VW decides:
//!    local, served by the previous owner, or none — and retries the task if
//!    the owner is dead), then runs each statement's plan on that, including
//!    the refine pass for quantized indexes; adaptive reserve expansion when
//!    filtered results come up short.
//! 5. **Merge** partial top-k results globally, then **materialize** the
//!    projection through block-granular cell reads.

use crate::bind::{bind_select, BoundSelect, ProjItem, VectorQuery};
use crate::cost::{CostInputs, CostParams, PlanEstimate, Strategy};
use crate::finish::finish_scalar;
use crate::result::ResultSet;
use bh_cluster::scheduler::{select_segments, PruneConfig, SegmentSelection};
use bh_cluster::vw::{SegmentIndex, VirtualWarehouse};
use bh_cluster::worker::Worker;
use bh_common::metrics::Counter;
use bh_common::{
    BhError, Bitset, FanoutPool, MetricsRegistry, QueryCtx, Result, SegmentId, SharedBound,
    SpanId, StatementCounters, TopK,
};
use bh_sql::ast::SelectStmt;
use bh_storage::predicate::Predicate;
use bh_storage::segment::SegmentMeta;
use bh_storage::table::{TableStore, TableVersion};
use bh_storage::value::Value;
use bh_vector::{search_with_range, IndexKind, Neighbor, SearchParams};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Segments pulled from the reserve per adaptive expansion (§IV-B).
const ADAPTIVE_BATCH: usize = 2;

/// Per-query execution knobs.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Index search knobs (ef_search / nprobe).
    pub search: SearchParams,
    /// Refine amplification σ (> 1): candidates re-ranked with exact
    /// distances when the index is quantized.
    pub sigma: usize,
    /// Bypass the cost-based optimizer with a specific strategy (tests,
    /// ablations, the paper's CBO-off baseline).
    pub forced_strategy: Option<Strategy>,
    /// Scheduling-time segment pruning configuration.
    pub prune: PruneConfig,
    /// Maximum threads searching segments of one query concurrently (the
    /// paper's intra-query fan-out, Fig. 9–12): the calling thread plus up
    /// to `intra_query_parallelism - 1` of the engine's parked helpers (of
    /// which there are at most `available_parallelism - 1`). `1` keeps the
    /// statement on the calling thread; the default is the machine's
    /// available parallelism.
    pub intra_query_parallelism: usize,
    /// Share a per-query atomic k-th-distance bound across the segments a
    /// statement searches, so segments searched later can skip candidates
    /// that cannot enter the final top-k. Exact (DESIGN.md §7); only applies
    /// to pure top-k queries (`k` set, no distance range).
    pub share_bound: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            search: SearchParams::default(),
            sigma: 2,
            forced_strategy: None,
            prune: PruneConfig::default(),
            intra_query_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            share_bound: true,
        }
    }
}

/// What one segment task resolved, once, for all of its statements
/// ([`QueryEngine::run_segment_task`]).
#[derive(Clone, Copy)]
struct SegCtx<'a> {
    /// The segment's owner: every read of the task goes to it.
    owner: &'a Arc<Worker>,
    /// The index the task's index plans search
    /// ([`VirtualWarehouse::segment_index`]); `None` when the task runs
    /// Plan A only or the segment has no index: the exact scan.
    index: Option<&'a SegmentIndex>,
    /// The segment's visible rows in the batch's table version.
    vis: &'a Bitset,
}

/// Per-statement progress of the vector statements of a batch
/// ([`QueryEngine::execute_batch`]).
struct StmtState<'q> {
    /// Position in the batch (where the result goes).
    qi: usize,
    sel: &'q BoundSelect,
    v: &'q VectorQuery,
    plan: &'q StmtPlan,
    /// The vector plan the statement runs (`plan.strategy`, resolved).
    strategy: Strategy,
    selection: SegmentSelection,
    /// Segments the current round searches for this statement; empty once
    /// the statement is finished.
    pending: Vec<Arc<SegmentMeta>>,
    /// Where each pending segment's hits land in the round's output:
    /// `(task, position in the task's statement list)`.
    slots: Vec<(usize, usize)>,
    global: TopK<(SegmentId, u32)>,
    k: usize,
    /// Shared across *identical* statements in the batch (same column, k,
    /// query vector, and predicate), so duplicate queries tighten one
    /// common bound instead of each rediscovering it.
    bound: Option<Arc<SharedBound>>,
}

/// One statement's plan ([`QueryEngine::plan`]), chosen anew for every
/// statement.
struct StmtPlan {
    /// The vector plan that runs; `None` for a scalar statement, which runs
    /// none.
    strategy: Option<Strategy>,
    /// Histogram-estimated pass fraction of the predicate of a filtered
    /// vector statement. Plan D sizes its hop budget with it.
    selectivity: Option<f32>,
    /// What the cost model was fed and its four estimates, cheapest first;
    /// `None` when nothing was priced (a scalar statement, or a table with
    /// no index to plan over).
    priced: Option<(CostInputs, [PlanEstimate; 4])>,
    /// The statement's context, installed around every piece of work done for it.
    ctx: Arc<QueryCtx>,
}

/// One round's unit of work: a segment and every statement that scheduled
/// it, in batch order.
struct SegTask {
    meta: Arc<SegmentMeta>,
    owner: Arc<Worker>,
    /// Indices into the batch's `StmtState`s.
    stmts: Vec<usize>,
    /// Some statement here runs a plan that reads the index (anything but
    /// Plan A, which scans the raw column only).
    wants_index: bool,
    /// The segment's visible rows in the batch's table version.
    vis: Bitset,
}

/// The index transfers one batch round started, by the worker they were
/// started on. Dropping it cancels those no segment task consumed, so a
/// round that errors out strands no blob bytes in `IndexCache::pending`; a
/// round that succeeds disarms it, because what is still pending then is
/// the warm of a segment a peer served meanwhile.
#[derive(Default)]
struct RoundPrefetches(Vec<(Arc<Worker>, SegmentId)>);

impl Drop for RoundPrefetches {
    fn drop(&mut self) {
        for (worker, seg) in &self.0 {
            worker.index_cache().cancel_prefetch(*seg);
        }
    }
}

/// Counters bumped once or more per segment per statement, resolved once at
/// construction instead of by name on the hot path.
struct HotCounters {
    parallel_segments: Arc<Counter>,
    fanout_batches: Arc<Counter>,
    fanout_caller_tasks: Arc<Counter>,
    fanout_helper_tasks: Arc<Counter>,
    fanout_threads_started: Arc<Counter>,
}

/// The query engine: the cost constants and the fan-out helper threads,
/// shared across queries of one database.
pub struct QueryEngine {
    cost: CostParams,
    metrics: MetricsRegistry,
    hot: HotCounters,
    /// The global counters each statement's tally folds into.
    folded: StatementCounters,
    /// Persistent helpers every statement's segment fan-out runs on.
    fanout: FanoutPool,
}

impl QueryEngine {
    /// An engine with default cost constants.
    pub fn new(metrics: MetricsRegistry) -> Self {
        // Record which distance-kernel tier runtime detection selected, once
        // per engine (`kernel.tier.avx2|neon|scalar` = 1).
        let tier = bh_vector::distance::KernelTier::current();
        metrics.gauge(&format!("kernel.tier.{}", tier.name())).set(1);
        let hot = HotCounters {
            parallel_segments: metrics.counter("query.parallel_segments"),
            fanout_batches: metrics.counter("query.fanout_batches"),
            fanout_caller_tasks: metrics.counter("query.fanout.caller_tasks"),
            fanout_helper_tasks: metrics.counter("query.fanout.helper_tasks"),
            fanout_threads_started: metrics.counter("query.fanout.threads_started"),
        };
        Self {
            cost: CostParams::default(),
            folded: StatementCounters::resolve(&metrics),
            metrics,
            hot,
            fanout: FanoutPool::for_machine(),
        }
    }

    /// Execute a parsed SELECT: a batch of one
    /// ([`Self::execute_select_batch`]).
    pub fn execute_select(
        &self,
        table: &TableStore,
        vw: &VirtualWarehouse,
        opts: &QueryOptions,
        stmt: &SelectStmt,
    ) -> Result<ResultSet> {
        only_result(self.execute_select_batch(table, vw, opts, std::slice::from_ref(stmt)))
    }

    /// Produce an EXPLAIN report for a SELECT from the plan step the executor
    /// runs ([`Self::plan`]): the strategy and the estimates that chose it,
    /// the search pushed into every segment, the filter, the columns read
    /// and the segments scheduled, all from one table version. The plan step
    /// runs on a context of its own, so the EXPLAIN statement records no
    /// strategy and moves no `query.plan.*` counter.
    pub fn explain_select(
        &self,
        table: &TableStore,
        opts: &QueryOptions,
        stmt: &SelectStmt,
    ) -> Result<String> {
        let bound = bind_select(table.schema(), stmt)?;
        let version = table.version();
        let plan = self.plan(table, &version, opts, &bound, Arc::default());
        let mut out = String::new();
        if let Some(strategy) = plan.strategy {
            out.push_str(&format!("strategy: {}\n", strategy.name()));
            if let Some((inputs, ranked)) = &plan.priced {
                let (runner_up, estimates) = estimates(strategy, ranked);
                out.push_str(&format!(
                    "estimates: n={} k={} ef={} selectivity={:.4} runner-up={}\n",
                    inputs.n,
                    inputs.k,
                    inputs.search.ef_search,
                    inputs.s,
                    runner_up.name()
                ));
                for (s, e) in estimates {
                    out.push_str(&format!("  {}: {e}\n", s.name()));
                }
            }
        }
        if let Some(v) = &bound.vector {
            out.push_str(&format!("search: {}", v.column));
            if let Some(k) = v.k {
                out.push_str(&format!(" k={k}"));
            }
            if let Some(r) = v.range {
                out.push_str(&format!(" range<={r}"));
            }
            out.push('\n');
        }
        out.push_str(&bound.explain_reads());
        // The selection `exec_scalar` and `exec_batch_inner` make.
        let segments = version.segments();
        let query = bound.vector.as_ref().map(|v| v.query.as_slice());
        let selection = select_segments(&segments, &bound.predicate, query, &opts.prune);
        out.push_str(&format!(
            "segments: {} of {} scheduled, {} scalar-pruned, {} in reserve\n",
            selection.scheduled.len(),
            segments.len(),
            selection.scalar_pruned,
            selection.reserve.len()
        ));
        Ok(out)
    }

    /// Execute an already-bound SELECT: a batch of one
    /// ([`Self::execute_batch`]).
    pub fn execute_bound(
        &self,
        table: &TableStore,
        vw: &VirtualWarehouse,
        opts: &QueryOptions,
        bound: &BoundSelect,
    ) -> Result<ResultSet> {
        only_result(self.execute_batch(table, vw, opts, std::slice::from_ref(bound)))
    }

    /// Convenience wrapper over [`Self::execute_batch`]: bind and run a
    /// batch of parsed SELECTs, returning results in statement order.
    pub fn execute_select_batch(
        &self,
        table: &TableStore,
        vw: &VirtualWarehouse,
        opts: &QueryOptions,
        stmts: &[SelectStmt],
    ) -> Result<Vec<ResultSet>> {
        // Binding happens before the engine has contexts of its own: the
        // time goes to the statement the caller is running (`Database`).
        let installed = QueryCtx::current();
        let bound: Result<Vec<BoundSelect>> = {
            let _bind = installed.as_deref().map(|c| c.stage("bind", &c.tally.bind_ns));
            stmts.iter().map(|s| bind_select(table.schema(), s)).collect()
        };
        // A failed bind ends the call here: its time folds here too.
        let batch = bound.inspect_err(|_| installed.iter().for_each(|c| self.folded.fold(c)))?;
        self.execute_batch(table, vw, opts, &batch)
    }

    /// Execute a batch of bound SELECTs as one scheduling unit (DESIGN.md
    /// §7) — the engine's one execution path; a single statement is a batch
    /// of one. Results come back in batch order and are bit-identical to
    /// running each statement as its own batch over the same residency.
    ///
    /// The table version is read once for the whole batch. Each round
    /// orders its tasks — one per distinct pending segment — resident-first,
    /// starts the index transfer of every cold segment some statement will
    /// search through its index, then fans the tasks out work-stealing. A
    /// task resolves its segment's owner and index once
    /// ([`Self::run_segment_task`]) and runs every query that scheduled the
    /// segment against that, *in batch order*. What a cold segment is
    /// answered from is one decision, `VirtualWarehouse::segment_index`
    /// (DESIGN.md §11.3), the same on every store: a live previous owner
    /// over the serving RPC while the owner's transfer is on its way, else
    /// the full index once the round's overlapped transfer has arrived. Pure
    /// top-k queries additionally carry a [`SharedBound`]: segments searched
    /// later skip candidates that provably cannot enter the final top-k.
    ///
    /// An attempt reads segments and visibility from one table version
    /// ([`TableStore::version`]); a compaction committed meanwhile can
    /// garbage-collect a segment's blobs mid-query. Per §II-E the system
    /// retries at the query level: the retry reads the current version,
    /// which the new merged segments serve.
    pub fn execute_batch(
        &self,
        table: &TableStore,
        vw: &VirtualWarehouse,
        opts: &QueryOptions,
        batch: &[BoundSelect],
    ) -> Result<Vec<ResultSet>> {
        // Each statement's context: the one installed on this thread (one
        // statement, one engine call: `Database`'s) or else the engine's own.
        let installed = QueryCtx::current();
        self.metrics.counter("query.batch_size").add(batch.len() as u64);
        let version = table.version();
        let plans: Vec<StmtPlan> = batch
            .iter()
            .map(|b| self.plan(table, &version, opts, b, installed.clone().unwrap_or_default()))
            .collect();
        // One executor phase per batch: its wall time goes to the first
        // statement, like a segment task's shared index resolution.
        let Some(first) = plans.first() else { return Ok(Vec::new()) };

        let mut exec_stage = first.ctx.stage("exec", &first.ctx.tally.exec_ns);
        exec_stage.span.attr("batch", batch.len());
        let mut attempts = 0;
        let out = loop {
            match self.exec_batch_inner(table, vw, opts, batch, &plans) {
                Err(e) if e.is_snapshot_race() && attempts < 3 => {
                    attempts += 1;
                    self.metrics.counter("query.snapshot_retries").inc();
                    continue;
                }
                other => break other,
            }
        };
        if attempts > 0 {
            exec_stage.span.attr("snapshot_retries", attempts as u64);
        }
        if let Ok(results) = &out {
            exec_stage.span.attr("rows", results.iter().map(|rs| rs.rows.len()).sum::<usize>());
        }
        drop(exec_stage);
        self.metrics.counter("query.executed").add(batch.len() as u64);
        // Each tally reaches the global counters here, once, whatever the outcome.
        match &installed {
            Some(ctx) => self.folded.fold(ctx),
            None => plans.iter().for_each(|p| self.folded.fold(&p.ctx)),
        }
        out
    }

    fn exec_batch_inner(
        &self,
        table: &TableStore,
        vw: &VirtualWarehouse,
        opts: &QueryOptions,
        batch: &[BoundSelect],
        plans: &[StmtPlan],
    ) -> Result<Vec<ResultSet>> {
        // Segments and visibility come from one version for the attempt.
        let version = table.version();
        let segments = version.segments();
        let total_rows: usize = segments.iter().map(|m| m.row_count).sum();

        let mut results: Vec<Option<ResultSet>> = (0..batch.len()).map(|_| None).collect();
        let mut states: Vec<StmtState<'_>> = Vec::with_capacity(batch.len());
        for (qi, (sel, plan)) in batch.iter().zip(plans).enumerate() {
            let (Some(v), Some(strategy)) = (&sel.vector, plan.strategy) else {
                // Scalar statements don't participate in the vector fan-out.
                let _in = plan.ctx.install();
                results[qi] = Some(self.exec_scalar(table, &version, vw, opts, sel)?);
                continue;
            };
            let selection =
                select_segments(&segments, &sel.predicate, Some(&v.query), &opts.prune);
            plan.ctx.tally.segments_pruned.add(selection.scalar_pruned as u64);
            let k = v.k.unwrap_or(total_rows.max(1));
            // The bound is exact only for pure top-k queries: a range query
            // must return everything within the range, and an unbounded k
            // never prunes anyway.
            let share = opts.share_bound && v.k.is_some() && v.range.is_none();
            // Cross-query bound dedup: identical pure top-k statements (same
            // column, k, query, predicate) share ONE bound. The predicate
            // must match too — an unfiltered query's kth distance would
            // unsoundly prune a filtered query's sparser candidate set.
            let bound = share.then(|| {
                states
                    .iter()
                    .filter(|p| {
                        p.k == k
                            && p.v.query == v.query
                            && p.v.column == v.column
                            && p.sel.predicate == sel.predicate
                    })
                    .find_map(|p| p.bound.clone())
                    .unwrap_or_else(|| Arc::new(SharedBound::new()))
            });
            states.push(StmtState {
                qi,
                sel,
                v,
                plan,
                strategy,
                pending: selection.scheduled.clone(),
                slots: Vec::new(),
                selection,
                global: TopK::new(k),
                k,
                bound,
            });
        }
        // A batch of scalar statements has no vector phase.
        if !states.is_empty() {
            self.search_rounds(table, &version, vw, opts, &mut states)?;
        }

        for st in states {
            let mut hits = st.global.into_sorted();
            if let Some(limit) = st.sel.limit {
                hits.truncate(limit);
            }
            let hit_list: Vec<(SegmentId, u32, f32)> =
                hits.into_iter().map(|s| (s.item.0, s.item.1, s.distance)).collect();
            let _in = st.plan.ctx.install();
            results[st.qi] = Some(self.materialize(table, &version, vw, st.sel, &hit_list)?);
        }
        results
            .into_iter()
            .collect::<Option<_>>()
            .ok_or_else(|| BhError::Internal("batch statement produced no result".into()))
    }

    /// The vector statements' select → fan-out → merge loop: every round
    /// searches each unfinished statement's pending segments, merges the hits
    /// per statement in its own pending order, then lets statements that
    /// came up short pull reserve segments (§IV-B) for the next round.
    fn search_rounds(
        &self,
        table: &TableStore,
        version: &TableVersion,
        vw: &VirtualWarehouse,
        opts: &QueryOptions,
        states: &mut [StmtState<'_>],
    ) -> Result<()> {
        let mut vec_span = QueryCtx::span("exec.vector");
        vec_span.attr("segments_total", version.segment_count() * states.len());
        vec_span.attr(
            "segments_scheduled",
            states.iter().map(|st| st.selection.scheduled.len()).sum::<usize>(),
        );
        vec_span
            .attr("segments_pruned", states.iter().map(|st| st.selection.scalar_pruned).sum::<usize>());
        let (mut expansions, mut visited, mut helper_tasks) = (0u64, 0u64, 0u64);
        // Helper threads cannot see this thread's span stack; every task
        // span attaches to the span open here explicitly.
        let trace_parent = vec_span.id();

        loop {
            // Distinct segments still pending for any unfinished statement,
            // each with the (batch-ordered) list of statements that
            // scheduled it and its owner, resolved once for the whole round.
            let widest = states.iter().map(|st| st.pending.len()).max().unwrap_or(0);
            let mut tasks: Vec<SegTask> = Vec::with_capacity(widest);
            let mut task_of: HashMap<SegmentId, usize> = HashMap::with_capacity(widest);
            for (si, st) in states.iter_mut().enumerate() {
                st.slots.clear();
                st.slots.reserve(st.pending.len());
                for meta in &st.pending {
                    let t = match task_of.entry(meta.id) {
                        Entry::Occupied(e) => *e.get(),
                        Entry::Vacant(e) => {
                            let (_, owner) = vw.owner_of(meta)?;
                            tasks.push(SegTask {
                                meta: meta.clone(),
                                owner,
                                stmts: Vec::new(),
                                wants_index: false,
                                vis: version.visibility(meta),
                            });
                            *e.insert(tasks.len() - 1)
                        }
                    };
                    tasks[t].wants_index |= st.strategy != Strategy::BruteForce;
                    st.slots.push((t, tasks[t].stmts.len()));
                    tasks[t].stmts.push(si);
                }
                visited += st.pending.len() as u64;
            }
            if tasks.is_empty() {
                break;
            }
            // Execution order, one residency probe per task:
            //
            // * Resident segments go first (stable within each group): with
            //   the cache smaller than the working set, a cold load would
            //   otherwise evict a resident index just before its own task
            //   runs. Results are unaffected — each query merges in its own
            //   pending order.
            // * Every cold segment whose index some statement will search
            //   starts its transfer now, before the fan-out, so the blob
            //   fetches run concurrently (N transfers cost max, not sum)
            //   while the resident segments are searched; each cold task
            //   then finds its transfer already in flight instead of
            //   paying the full remote latency serially. A task that only
            //   runs Plan A reads the raw column and fetches no index.
            //   `round_prefetches` cancels whatever no task consumed if
            //   the round fails.
            let mut round_prefetches = RoundPrefetches::default();
            let (mut order, mut cold) = (Vec::with_capacity(tasks.len()), Vec::new());
            for (t, task) in tasks.iter().enumerate() {
                if task.owner.index_resident(&task.meta) {
                    order.push(t);
                    continue;
                }
                if task.wants_index
                    && matches!(task.owner.index_cache().prefetch(&task.meta), Ok(true))
                {
                    round_prefetches.0.push((task.owner.clone(), task.meta.id));
                }
                cold.push(t);
            }
            order.append(&mut cold);
            if !round_prefetches.0.is_empty() {
                self.metrics.counter("query.index_prefetches").add(round_prefetches.0.len() as u64);
            }
            let (outs, by_helpers) = self.fan_out(opts, order.len(), |i| {
                self.run_segment_task(table, vw, opts, states, &tasks[order[i]], trace_parent)
            })?;
            round_prefetches.0.clear();
            helper_tasks += by_helpers as u64;

            // Task outputs, addressed by task instead of by execution order.
            let mut by_task: Vec<Vec<Vec<Neighbor>>> = vec![Vec::new(); tasks.len()];
            for (&t, out) in order.iter().zip(outs) {
                by_task[t] = out;
            }
            for st in states.iter_mut().filter(|st| !st.pending.is_empty()) {
                // Pushing in pending order keeps the merge bit-identical at
                // every fan-out width and batch composition.
                for (meta, &(t, pos)) in st.pending.iter().zip(&st.slots) {
                    for nb in std::mem::take(&mut by_task[t][pos]) {
                        st.global.push(nb.distance, (meta.id, nb.id as u32));
                    }
                }
                if st.global.len() >= st.k || st.selection.exhausted() {
                    st.pending.clear();
                    continue;
                }
                // Adaptive runtime adjustment (§IV-B), per query: semantic
                // pruning was too aggressive; pull reserve segments. The
                // barrier holds: expand only after the whole round merged.
                st.pending = st.selection.expand(ADAPTIVE_BATCH);
                if !st.pending.is_empty() {
                    expansions += 1;
                    self.metrics.counter("query.adaptive_expansions").inc();
                }
            }
        }
        vec_span.attr("segments_visited", visited);
        vec_span.attr("helper_tasks", helper_tasks);
        if expansions > 0 {
            vec_span.attr("adaptive_expansions", expansions);
        }
        vec_span.attr("candidates", states.iter().map(|st| st.global.len()).sum::<usize>());
        Ok(())
    }

    /// The one fan-out scaffold: run `task(i)` for `i` in `0..len` on the
    /// calling thread plus up to `intra_query_parallelism - 1` pool helpers
    /// (caller-first, work-stealing by atomic cursor — DESIGN.md §6).
    /// Returns the outputs in index order, so merges are bit-identical to
    /// parallelism 1, plus how many tasks helpers ran. The first `Err` in
    /// index order wins and stops further claims; a panicked task becomes
    /// `BhError::Internal`.
    fn fan_out<T: Send + Sync>(
        &self,
        opts: &QueryOptions,
        len: usize,
        task: impl Fn(usize) -> Result<T> + Sync,
    ) -> Result<(Vec<T>, usize)> {
        let par = opts.intra_query_parallelism.max(1).min(len);
        let out = self.fanout.run(len, par, task);
        if par > 1 {
            self.hot.fanout_batches.inc();
            self.hot.parallel_segments.add((out.caller_tasks + out.helper_tasks) as u64);
            self.hot.fanout_caller_tasks.add(out.caller_tasks as u64);
            self.hot.fanout_helper_tasks.add(out.helper_tasks as u64);
            self.hot.fanout_threads_started.add(out.threads_started as u64);
        }
        let helper_tasks = out.helper_tasks;
        Ok((out.into_results()?, helper_tasks))
    }

    /// One segment's task: resolve the segment's owner and, when some
    /// statement here runs an index plan, its index — once
    /// ([`VirtualWarehouse::segment_index`]: the owner's own, or a live
    /// previous owner's over the serving RPC while the transfer the round
    /// started is on its way) — then run
    /// every assigned statement against that, in batch order. The task fails
    /// as soon as one of its statements does; if the owner turns out dead the
    /// whole task is retried once on the new topology and resolves again
    /// there (§II-E: one `vw.query_retries` per task, not per read).
    ///
    /// Each statement's context is installed around its own search, so what
    /// the layers below tally lands on it; the shared resolution is work for
    /// the first statement that scheduled the segment. `segment_ns` sums wall
    /// time across a statement's searches: with fan-out it can exceed `exec_ns`.
    fn run_segment_task(
        &self,
        table: &TableStore,
        vw: &VirtualWarehouse,
        opts: &QueryOptions,
        states: &[StmtState<'_>],
        task: &SegTask,
        trace_parent: SpanId,
    ) -> Result<Vec<Vec<Neighbor>>> {
        let meta = &task.meta;
        let first = &states[task.stmts[0]].plan.ctx;
        let mut task_span = first.span_under(trace_parent, "segment.task");
        task_span.attr("segment", meta.id.raw());
        task_span.attr("queries", task.stmts.len());
        vw.with_segment_retry(meta, |owner| {
            let _first = task.wants_index.then(|| first.install());
            let index = if task.wants_index { vw.segment_index(&owner, meta)? } else { None };
            let ctx = SegCtx { owner: &owner, index: index.as_ref(), vis: &task.vis };
            task.stmts
                .iter()
                .map(|&si| {
                    let st = &states[si];
                    let _in = st.plan.ctx.install();
                    self.search_one_segment(table, vw, opts, st, meta, ctx)
                })
                .collect()
        })
    }

    // -------------------------------------------------------------- planning

    /// The plan step, on the statement's context `ctx`: the one both
    /// [`Self::execute_batch`] and [`Self::explain_select`] run. A vector
    /// statement on a table with an index to plan over is priced, once (four
    /// closed-form estimates), and runs the forced plan or else the cheapest;
    /// on a table with none it runs Plan A, whatever is forced, because every
    /// segment answers from the exact scan. A scalar statement runs no vector
    /// plan and records none. Nothing is cached, because every input is the
    /// statement's own — its `k`, beam width and pass fraction — or the
    /// table's size in `version`: `LIMIT 10` and `LIMIT 5000` of one shape,
    /// or one shape before and after the table grew, can run different
    /// plans. The pass fraction and the size come from that one version.
    fn plan(
        &self,
        table: &TableStore,
        version: &TableVersion,
        opts: &QueryOptions,
        bound: &BoundSelect,
        ctx: Arc<QueryCtx>,
    ) -> StmtPlan {
        let mut stage = ctx.stage("plan", &ctx.tally.plan_ns);
        let selectivity = filter_selectivity(version, bound);
        let priced = cost_inputs(table, version, opts, bound, selectivity)
            .map(|inputs| (inputs, self.cost.ranked(&inputs)));
        let strategy = bound.vector.as_ref().map(|_| match &priced {
            Some((_, ranked)) => opts.forced_strategy.unwrap_or(ranked[0].strategy),
            None => Strategy::BruteForce,
        });
        if let Some(strategy) = strategy {
            stage.span.attr("strategy", strategy.name());
            ctx.set_strategy(strategy.slug());
            // What the model believed, for a reader.
            if let Some((inputs, ranked)) = priced.as_ref().filter(|_| stage.span.is_recording()) {
                let (runner_up, estimates) = estimates(strategy, ranked);
                stage.span.attr("selectivity", inputs.s);
                stage.span.attr("runner_up", runner_up.name());
                for (s, e) in estimates {
                    stage.span.attr(s.slug(), e);
                }
            }
        }
        drop(stage);
        StmtPlan { strategy, selectivity: selectivity.map(|s| s as f32), priced, ctx }
    }

    // ------------------------------------------------------------ vector path

    /// One statement's search of one segment: its plan on the index the task
    /// resolved, or — Plan A, and every plan on a segment that has no index
    /// — the exact scan. Returned neighbor ids are segment row offsets;
    /// distances are exact (refine applied for quantized indexes).
    fn search_one_segment(
        &self,
        table: &TableStore,
        vw: &VirtualWarehouse,
        opts: &QueryOptions,
        st: &StmtState<'_>,
        meta: &Arc<SegmentMeta>,
        ctx: SegCtx<'_>,
    ) -> Result<Vec<Neighbor>> {
        // `segment.task` is open on this thread, so this parents to it.
        let sctx = &st.plan.ctx;
        let mut seg_stage = sctx.stage("segment.search", &sctx.tally.segment_ns);
        seg_stage.span.attr("segment", meta.id.raw());
        seg_stage.span.attr("strategy", st.strategy.name());
        seg_stage.span.attr("rows", meta.row_count);
        let mut hits = self.segment_plan(table, vw, opts, st, meta, ctx)?;
        // The one range cut: on exact distances, after refine or the exact scan.
        if let Some(r) = st.v.range {
            hits.retain(|nb| nb.distance <= r);
        }
        Ok(hits)
    }

    /// [`Self::search_one_segment`]'s plan: the exact scan, or the index
    /// search and its refine.
    fn segment_plan(
        &self,
        table: &TableStore,
        vw: &VirtualWarehouse,
        opts: &QueryOptions,
        st: &StmtState<'_>,
        meta: &Arc<SegmentMeta>,
        ctx: SegCtx<'_>,
    ) -> Result<Vec<Neighbor>> {
        let (bound, v, k, bnd) = (st.sel, st.v, st.k, st.bound.as_deref());
        let strategy = st.strategy;
        let vis = ctx.vis;
        let index = match ctx.index {
            Some(index) if strategy != Strategy::BruteForce => index,
            _ => return self.exact_scan(table, ctx.owner, meta, st, vis),
        };
        // What one serving RPC carries, should the index be a peer's.
        let request_bytes = v.query.len() * 4;
        // σ over-fetch exists to feed the exact-distance refine of quantized
        // indexes; raw-vector indexes return exact distances already, so
        // padding the demand only inflates the beam (for Plan D the
        // traversal wades ~1/s nodes per demanded result — σ there doubles
        // the whole walk).
        let fetch_k =
            if index_is_quantized(table) { k.saturating_mul(opts.sigma.max(1)) } else { k };
        // A range pull stops after this many consecutive rows beyond the
        // radius: the iterator's order is only approximately nearest-first.
        let slack = opts.search.ef_search.max(16);

        let hits = if strategy == Strategy::PostFilter {
            vw.search_index(ctx.owner, meta, index, request_bytes, |idx| {
                let has_pred = !matches!(bound.predicate, Predicate::True);
                if !has_pred && v.range.is_none() {
                    // Pure top-k: nothing can be filtered away, so the plain
                    // beam search (which honours ef_search) beats driving the
                    // incremental iterator.
                    let filter = if vis.is_all_set() { None } else { Some(vis) };
                    return idx.search_with_bound(&v.query, fetch_k, &opts.search, filter, bnd);
                }
                // Pull the iterator, keeping visible rows that pass, until
                // `σ·k` are kept, the index is exhausted or the range is passed.
                let pred_cols = bound.predicate.column_refs();
                let mut it = idx.search_iterator(&v.query, &opts.search)?;
                let want = k.saturating_mul(opts.sigma.max(1));
                let hits =
                    search_with_range(&mut *it, v.range, slack, want, k.clamp(16, 256), |rows| {
                        let visible: Vec<Neighbor> =
                            rows.into_iter().filter(|nb| vis.contains(nb.id as usize)).collect();
                        if !has_pred || visible.is_empty() {
                            return Ok(visible);
                        }
                        self.passing_rows(table, ctx.owner, meta, bound, &pred_cols, &visible)
                    })?;
                self.metrics.counter("query.iterator_visited").add(it.visited() as u64);
                Ok(hits)
            })?
        } else {
            // Plan B drives the widened bitmap scan; Plan D flips
            // `filter_traversal` on so graph indexes walk the predicate
            // natively (failing nodes steer, passing nodes score), with the
            // plan-time selectivity estimate sizing the beam and hop budget.
            // Non-graph indexes ignore the flag and degrade to the Plan-B
            // bitmap scan.
            let bits = self.filter_bits(table, ctx.owner, meta, bound, vis)?;
            if bits.is_all_clear() {
                return Ok(Vec::new());
            }
            let search = if strategy == Strategy::FilteredTraversal {
                let mut p = opts.search.with_filter_traversal(true);
                if p.filter_selectivity.is_none() {
                    p.filter_selectivity = st.plan.selectivity;
                }
                p
            } else {
                opts.search
            };
            vw.search_index(ctx.owner, meta, index, request_bytes, |idx| match v.range {
                // A range with no LIMIT: every passing row within it.
                Some(r) if v.k.is_none() => {
                    let mut it = idx.search_iterator(&v.query, &search)?;
                    search_with_range(&mut *it, Some(r), slack, usize::MAX, slack, |rows| {
                        Ok(rows.into_iter().filter(|nb| bits.contains(nb.id as usize)).collect())
                    })
                }
                _ => idx.search_with_bound(&v.query, fetch_k, &search, Some(&bits), bnd),
            })?
        };
        self.refine(table, opts, st, meta, ctx.owner, hits)
    }

    /// The exact scan of one segment — Plan A, and every plan's answer for a
    /// segment that has no index: exact distances over the raw vectors of
    /// the rows that are visible and pass the predicate.
    fn exact_scan(
        &self,
        table: &TableStore,
        worker: &Arc<Worker>,
        meta: &SegmentMeta,
        st: &StmtState<'_>,
        vis: &Bitset,
    ) -> Result<Vec<Neighbor>> {
        let bits = self.filter_bits(table, worker, meta, st.sel, vis)?;
        if bits.is_all_clear() {
            return Ok(Vec::new());
        }
        worker.brute_force_segment_bounded(
            table,
            meta,
            &st.v.query,
            st.k,
            Some(&bits),
            st.bound.as_deref(),
        )
    }

    /// The candidates whose rows pass the statement's predicate (order
    /// kept): the predicate columns' cells of just those rows are gathered,
    /// and the same word kernels that filter a whole segment answer for the
    /// batch with one mask.
    fn passing_rows(
        &self,
        table: &TableStore,
        worker: &Arc<Worker>,
        meta: &SegmentMeta,
        bound: &BoundSelect,
        pred_cols: &[&str],
        candidates: &[Neighbor],
    ) -> Result<Vec<Neighbor>> {
        let offsets: Vec<u32> = candidates.iter().map(|nb| nb.id as u32).collect();
        let cells = pred_cols
            .iter()
            .map(|c| worker.gather_cells(table, meta, c, &offsets))
            .collect::<Result<Vec<_>>>()?;
        let columns: Vec<_> = pred_cols.iter().copied().zip(&cells).collect();
        let mask = bound.predicate.eval_bitset(&columns, candidates.len())?;
        Ok(mask.iter().map(|i| candidates[i]).collect())
    }

    /// Predicate ∧ visibility bitset for one segment.
    fn filter_bits(
        &self,
        table: &TableStore,
        worker: &Arc<Worker>,
        meta: &SegmentMeta,
        bound: &BoundSelect,
        vis: &Bitset,
    ) -> Result<Bitset> {
        if matches!(bound.predicate, Predicate::True) {
            return Ok(vis.clone());
        }
        let mut bits = worker.eval_predicate(table, meta, &bound.predicate)?;
        bits.intersect_with(vis);
        Ok(bits)
    }

    /// Exact-distance re-rank of the top `σ·k` candidates of a quantized
    /// index (`σ·k·c_d`), on the segment's owner; at most `k` come back.
    /// Exact indexes only truncate.
    ///
    /// When the query carries a shared bound, a full refined top-k also
    /// *publishes*: the segment-local exact k-th distance is an upper
    /// bound on the global k-th, so CAS-min'ing it into the bound is sound
    /// and lets quantized sibling-segment scans prune against it even
    /// though their own (approximate) scans never publish.
    fn refine(
        &self,
        table: &TableStore,
        opts: &QueryOptions,
        st: &StmtState<'_>,
        meta: &SegmentMeta,
        owner: &Arc<Worker>,
        mut hits: Vec<Neighbor>,
    ) -> Result<Vec<Neighbor>> {
        let (v, k) = (st.v, st.k);
        if !index_is_quantized(table) || hits.is_empty() {
            hits.truncate(k);
            return Ok(hits);
        }
        hits.truncate(k.saturating_mul(opts.sigma.max(1)));
        let mut refined = owner.refine_distances(table, meta, &v.query, v.metric, &hits)?;
        refined.truncate(k);
        self.metrics.counter("query.refined").add(refined.len() as u64);
        if let (Some(b), Some(kth)) = (&st.bound, refined.get(k.wrapping_sub(1))) {
            b.update(kth.distance);
        }
        Ok(refined)
    }

    // ------------------------------------------------------------ scalar path

    /// A statement with no vector: the rows passing its filter, segment by
    /// segment, finished by [`finish_scalar`]. Without a sort or an
    /// aggregate, a LIMIT's rows are the first that pass in segment order,
    /// so the scan stops once it has them.
    fn exec_scalar(
        &self,
        table: &TableStore,
        version: &TableVersion,
        vw: &VirtualWarehouse,
        opts: &QueryOptions,
        bound: &BoundSelect,
    ) -> Result<ResultSet> {
        let segments = version.segments();
        let selection: SegmentSelection =
            select_segments(&segments, &bound.predicate, None, &opts.prune);
        QueryCtx::with(|c| c.tally.segments_pruned.add(selection.scalar_pruned as u64));
        let mut scalar_span = QueryCtx::span("exec.scalar");
        scalar_span.attr("segments_scheduled", selection.scheduled.len());
        scalar_span.attr("segments_pruned", selection.scalar_pruned);

        let needed = bound.finish_columns();
        let wanted = bound
            .limit
            .filter(|_| bound.scalar_order.is_empty() && !bound.is_aggregate())
            .unwrap_or(usize::MAX);
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for meta in &selection.scheduled {
            if rows.len() >= wanted {
                break;
            }
            let vis = version.visibility(meta);
            let rows_bits = with_segment_retry(vw, meta, |worker| {
                self.filter_bits(table, &worker, meta, bound, &vis)
            })?;
            let offsets: Vec<u32> =
                rows_bits.iter().take(wanted - rows.len()).map(|o| o as u32).collect();
            if offsets.is_empty() {
                continue;
            }
            let mut cells: Vec<Vec<Value>> = with_segment_retry(vw, meta, |worker| {
                needed.iter().map(|c| worker.read_cells(table, meta, c, &offsets)).collect()
            })?;
            for i in 0..offsets.len() {
                let row = cells.iter_mut().map(|c| std::mem::replace(&mut c[i], Value::Null));
                rows.push(row.collect());
            }
        }
        let out = finish_scalar(bound, rows)?;
        scalar_span.attr("rows", out.rows.len());
        Ok(out)
    }

    // ---------------------------------------------------------- materialize

    /// Fetch projection columns for the winning rows and assemble the result
    /// in ascending-distance order: one gather per (segment, projected
    /// column), the cells moved into their rows.
    fn materialize(
        &self,
        table: &TableStore,
        version: &TableVersion,
        vw: &VirtualWarehouse,
        bound: &BoundSelect,
        hits: &[(SegmentId, u32, f32)],
    ) -> Result<ResultSet> {
        let mut mat_span = QueryCtx::span("materialize");
        mat_span.attr("rows", hits.len());
        let mut out = ResultSet::new(
            bound.projection.iter().map(|p| p.name().to_string()).collect(),
        );
        if hits.is_empty() {
            return Ok(out);
        }
        // Group by segment for block-granular reads: where each segment's
        // hits sit in the result, and their row offsets.
        let mut by_segment: BTreeMap<SegmentId, (Vec<usize>, Vec<u32>)> = BTreeMap::new();
        for (pos, (seg, off, _)) in hits.iter().enumerate() {
            let (positions, offsets) = by_segment.entry(*seg).or_default();
            positions.push(pos);
            offsets.push(*off);
        }
        let proj_cols: Vec<&str> = bound
            .projection
            .iter()
            .filter_map(|p| match p {
                ProjItem::Column { column, .. } => Some(column.as_str()),
                _ => None,
            })
            .collect();
        let mut rows: Vec<Vec<Value>> =
            hits.iter().map(|_| Vec::with_capacity(bound.projection.len())).collect();
        for (seg, (positions, offsets)) in by_segment {
            let meta = version.segment(seg)?;
            // One cell list per projected column, in projection order.
            let cells: Vec<Vec<Value>> = with_segment_retry(vw, &meta, |worker| {
                proj_cols.iter().map(|c| worker.read_cells(table, &meta, c, &offsets)).collect()
            })?;
            let mut cells: Vec<_> = cells.into_iter().map(Vec::into_iter).collect();
            for pos in positions {
                let mut next_column = cells.iter_mut();
                for p in &bound.projection {
                    rows[pos].push(match p {
                        ProjItem::Column { .. } => next_column
                            .next()
                            .and_then(Iterator::next)
                            .ok_or_else(|| BhError::Internal("a gathered cell is missing".into()))?,
                        ProjItem::Distance(_) => Value::Float64(hits[pos].2 as f64),
                        ProjItem::Aggregate(_) => {
                            return Err(BhError::Internal("an aggregate in a vector search".into()))
                        }
                    });
                }
            }
        }
        out.rows = rows;
        Ok(out)
    }
}

/// The single result of a batch of one.
fn only_result(batch: Result<Vec<ResultSet>>) -> Result<ResultSet> {
    batch?.pop().ok_or_else(|| BhError::Internal("batch of one produced no result".into()))
}

/// Does the table's vector index hold quantized codes (searches then
/// over-fetch `σ·k` and refine on the raw vectors)?
fn index_is_quantized(table: &TableStore) -> bool {
    table.schema().indexes.first().is_some_and(|d| d.spec.kind.is_quantized())
}

/// Histogram estimate, on `version`'s sketch, of the fraction of rows
/// passing the predicate of a filtered vector statement; `None` without a
/// vector clause or a predicate.
fn filter_selectivity(version: &TableVersion, bound: &BoundSelect) -> Option<f64> {
    (bound.vector.is_some() && !matches!(bound.predicate, Predicate::True))
        .then(|| bound.predicate.estimate_selectivity(version.sketch()))
}

/// The cost model's inputs for a vector statement, from the statement's own
/// `k`, beam and pass fraction and the table's size in `version`; `None`
/// for a scalar statement and for a table with no index to plan over (no
/// index, or FLAT), whose statements all run Plan A.
fn cost_inputs(
    table: &TableStore,
    version: &TableVersion,
    opts: &QueryOptions,
    bound: &BoundSelect,
    selectivity: Option<f64>,
) -> Option<CostInputs> {
    let v = bound.vector.as_ref()?;
    let index = table.schema().indexes.first()?.spec.kind;
    (index != IndexKind::Flat).then(|| CostInputs {
        n: version.visible_rows().max(1),
        s: selectivity.unwrap_or(1.0),
        k: v.k.unwrap_or(100),
        sigma: opts.sigma,
        search: opts.search,
        index,
    })
}

/// A priced plan for a reader (the `plan` span, EXPLAIN): the cheapest plan
/// other than the one that runs, and each plan's work count and cost,
/// cheapest first.
fn estimates(chosen: Strategy, ranked: &[PlanEstimate; 4]) -> (Strategy, [(Strategy, String); 4]) {
    let runner_up = ranked.iter().map(|e| e.strategy).find(|s| *s != chosen).unwrap_or(chosen);
    (runner_up, ranked.map(|e| (e.strategy, format!("{:.0} visits, cost {:.1}", e.visits, e.cost))))
}

/// [`VirtualWarehouse::with_segment_retry`] under the name the benchmark
/// harness imports.
pub fn with_segment_retry<T>(
    vw: &VirtualWarehouse,
    meta: &Arc<SegmentMeta>,
    f: impl FnMut(Arc<Worker>) -> Result<T>,
) -> Result<T> {
    vw.with_segment_retry(meta, f)
}

impl QueryEngine {
    /// Kept only because the frozen `benchmark/` compiles against it
    /// (ROADMAP "Re-anchor the evidence"): the engine caches no plan.
    pub fn plan_cache(&self) -> NoPlanCache {
        NoPlanCache
    }
}

/// What [`QueryEngine::plan_cache`] returns: a cache that holds nothing.
#[derive(Debug)]
pub struct NoPlanCache;

impl NoPlanCache {
    /// `(hits, misses)`: always `(0, 0)`.
    pub fn stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Convenience used by tests and examples: run one statement string.
pub fn execute_sql_select(
    engine: &QueryEngine,
    table: &TableStore,
    vw: &VirtualWarehouse,
    opts: &QueryOptions,
    sql: &str,
) -> Result<ResultSet> {
    match bh_sql::parse_statement(sql)? {
        bh_sql::Statement::Select(sel) => engine.execute_select(table, vw, opts, &sel),
        other => Err(BhError::Plan(format!("expected SELECT, got {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_cluster::vw::VwConfig;
    use bh_common::ids::IdGenerator;
    use bh_common::{SharedClock, VirtualClock};
    use bh_storage::objectstore::InMemoryObjectStore;
    use bh_storage::schema::TableSchema;
    use bh_storage::table::{TableStoreConfig, TableStore};
    use bh_storage::value::ColumnType;
    use bh_vector::{IndexKind, Metric};

    /// Rows `ids` of the clustered table: row i has its embedding centered
    /// at (i%5)·6, label l{i%2}, score i/n.
    fn rows(ids: std::ops::Range<usize>, n: usize) -> Vec<Vec<Value>> {
        ids.map(|i| {
            // Tiny per-row jitter keeps distances distinct so every
            // strategy returns the same deterministic ordering.
            let c = (i % 5) as f32 * 6.0 + (i as f32) * 1e-4;
            vec![
                Value::UInt64(i as u64),
                Value::Str(format!("l{}", i % 2)),
                Value::Float64(i as f64 / n as f64),
                Value::Vector(vec![c, c + 0.1, c + 0.2, c - 0.1]),
            ]
        })
        .collect()
    }

    /// The clustered table of [`rows`] `0..n`.
    fn setup(
        n: usize,
        kind: IndexKind,
        seg_rows: usize,
    ) -> (Arc<TableStore>, VirtualWarehouse, QueryEngine) {
        setup_on(InMemoryObjectStore::for_tests(), n, kind, seg_rows, Metric::L2)
    }

    /// [`setup`] over a given store, the index built for `metric`.
    fn setup_on(
        store: Arc<InMemoryObjectStore>,
        n: usize,
        kind: IndexKind,
        seg_rows: usize,
        metric: Metric,
    ) -> (Arc<TableStore>, VirtualWarehouse, QueryEngine) {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("label", ColumnType::Str)
            .with_column("score", ColumnType::Float64)
            .with_column("emb", ColumnType::Vector(4))
            .with_vector_index("i", "emb", kind, 4, metric);
        let metrics = MetricsRegistry::new();
        let ts = TableStore::new(
            schema,
            store,
            TableStoreConfig { segment_max_rows: seg_rows, ..Default::default() },
            Arc::new(IdGenerator::new()),
            metrics.clone(),
        )
        .unwrap();
        ts.insert_rows(rows(0..n, n)).unwrap();
        let vw = warehouse(&ts, VwConfig::default());
        let engine = QueryEngine::new(metrics);
        (Arc::new(ts), vw, engine)
    }

    /// A two-worker warehouse over `ts`, on the table's metrics.
    fn warehouse(ts: &TableStore, cfg: VwConfig) -> VirtualWarehouse {
        warehouse_on(ts, cfg, VirtualClock::shared())
    }

    /// [`warehouse`] on a given clock.
    fn warehouse_on(ts: &TableStore, cfg: VwConfig, clock: SharedClock) -> VirtualWarehouse {
        let vw = VirtualWarehouse::new(
            bh_common::VwId(0),
            "q",
            cfg,
            ts.remote_store().clone(),
            clock,
            ts.metrics().clone(),
            Arc::new(IdGenerator::starting_at(1000)),
        );
        vw.scale_up(&[]);
        vw.scale_up(&[]);
        vw
    }

    fn parse_select(sql: &str) -> SelectStmt {
        match bh_sql::parse_statement(sql).unwrap() {
            bh_sql::Statement::Select(sel) => sel,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn rows_of(batch: &[ResultSet]) -> Vec<&Vec<Vec<Value>>> {
        batch.iter().map(|rs| &rs.rows).collect()
    }

    fn ids_of(rs: &ResultSet) -> Vec<u64> {
        rs.column_values("id")
            .unwrap()
            .into_iter()
            .map(|v| match v {
                Value::UInt64(x) => x,
                other => panic!("unexpected {other}"),
            })
            .collect()
    }

    #[test]
    fn pure_vector_topk_matches_ground_truth() {
        let (ts, vw, engine) = setup(500, IndexKind::Hnsw, 200);
        let opts = QueryOptions::default();
        // Query at cluster 0 center: nearest rows are those with i%5==0.
        let rs = execute_sql_select(
            &engine,
            &ts,
            &vw,
            &opts,
            "SELECT id, dist FROM t ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) AS dist LIMIT 10",
        )
        .unwrap();
        assert_eq!(rs.len(), 10);
        for id in ids_of(&rs) {
            assert_eq!(id % 5, 0, "row {id} not from cluster 0");
        }
        // Distances ascending.
        let d = rs.column_values("dist").unwrap();
        for w in d.windows(2) {
            assert!(w[0].as_f64().unwrap() <= w[1].as_f64().unwrap());
        }
    }

    /// Every forced plan returns Plan A's ids: for a filtered top-k, and for
    /// distance ranges — L2, and IP with its negative radius; with and
    /// without LIMIT and a predicate — on a graph and an IVF index.
    #[test]
    fn all_four_strategies_agree_on_results() {
        let under_each_plan =
            |ts: &TableStore, vw: &VirtualWarehouse, engine: &QueryEngine, sql: &str| {
                Strategy::ALL.map(|strategy| {
                    let opts = QueryOptions {
                        forced_strategy: Some(strategy),
                        search: SearchParams::default().with_ef(128).with_nprobe(64),
                        ..Default::default()
                    };
                    ids_of(&execute_sql_select(engine, ts, vw, &opts, sql).unwrap())
                })
            };

        let (ts, vw, engine) = setup(600, IndexKind::Hnsw, 300);
        let sql = "SELECT id FROM t WHERE label = 'l0' \
                   ORDER BY L2Distance(emb, [6.0, 6.1, 6.2, 5.9]) LIMIT 8";
        let results = under_each_plan(&ts, &vw, &engine, sql);
        for (strategy, ids) in Strategy::ALL.iter().zip(&results) {
            assert_eq!(ids.len(), 8, "{strategy:?}");
            for id in ids {
                assert_eq!(id % 2, 0, "{strategy:?} returned non-l0 row {id}");
                assert_eq!(id % 5, 1, "{strategy:?} returned row outside cluster 1: {id}");
            }
            // Brute force is exact; ANN strategies must match it here
            // (clusters are well separated).
            assert_eq!(*ids, results[0], "{strategy:?}");
        }

        // Each radius cuts a cluster in half: cluster 1's rows up to id 300
        // (L2), cluster 4's from id 301 (IP, distance = -c).
        let ranges = [
            (Metric::L2, "L2Distance(emb, [6.0, 6.1, 6.2, 5.9]) < 0.0036"),
            (Metric::InnerProduct, "IPDistance(emb, [1.0, 0.0, 0.0, 0.0]) < -24.03"),
        ];
        for kind in [IndexKind::Hnsw, IndexKind::IvfFlat] {
            for (metric, range) in ranges {
                let (ts, vw, engine) =
                    setup_on(InMemoryObjectStore::for_tests(), 600, kind, 300, metric);
                for (pred, limit, rows) in [
                    ("", "", 60),
                    ("label = 'l0' AND ", "", 30),
                    ("", " LIMIT 8", 8),
                    ("label = 'l0' AND ", " LIMIT 8", 8),
                ] {
                    let sql = format!("SELECT id FROM t WHERE {pred}{range}{limit}");
                    let results = under_each_plan(&ts, &vw, &engine, &sql);
                    assert_eq!(results[0].len(), rows, "{kind:?}: {sql}");
                    for (strategy, ids) in Strategy::ALL.iter().zip(&results) {
                        assert_eq!(*ids, results[0], "{kind:?} {strategy:?}: {sql}");
                    }
                }
            }
        }
    }

    #[test]
    fn hybrid_filter_is_respected_with_cbo() {
        let (ts, vw, engine) = setup(400, IndexKind::Hnsw, 200);
        let opts = QueryOptions::default();
        let rs = execute_sql_select(
            &engine,
            &ts,
            &vw,
            &opts,
            "SELECT id, label FROM t WHERE label = 'l1' AND id < 100 \
             ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 5",
        )
        .unwrap();
        assert!(!rs.is_empty());
        for row in &rs.rows {
            let Value::UInt64(id) = row[0] else { panic!() };
            assert!(id < 100);
            assert_eq!(row[1], Value::Str("l1".into()));
        }
    }

    #[test]
    fn distance_range_query() {
        let (ts, vw, engine) = setup(500, IndexKind::Hnsw, 250);
        let opts = QueryOptions::default();
        let rs = execute_sql_select(
            &engine,
            &ts,
            &vw,
            &opts,
            "SELECT id, dist FROM t WHERE L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) < 1.0 \
             ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) AS dist LIMIT 1000",
        )
        .unwrap();
        assert_eq!(rs.len(), 100, "exactly the cluster-0 rows fall within 1.0");
        for v in rs.column_values("dist").unwrap() {
            assert!(v.as_f64().unwrap() <= 1.0);
        }
    }

    #[test]
    fn quantized_index_is_refined_to_exact_distances() {
        let (ts, vw, engine) = setup(800, IndexKind::IvfPq, 800);
        let opts = QueryOptions {
            search: SearchParams::default().with_nprobe(32),
            ..Default::default()
        };
        let rs = execute_sql_select(
            &engine,
            &ts,
            &vw,
            &opts,
            "SELECT id, dist FROM t ORDER BY L2Distance(emb, [12.0, 12.1, 12.2, 11.9]) AS dist LIMIT 5",
        )
        .unwrap();
        assert_eq!(rs.len(), 5);
        // Exact distance of a cluster-2 row to its own center is tiny; the
        // refined output must carry exact (near-zero) distances, not ADC
        // approximations of arbitrary scale.
        let d0 = rs.column_values("dist").unwrap()[0].as_f64().unwrap();
        assert!(d0 < 0.1, "refined distance should be exact, got {d0}");
        assert!(engine.metrics.counter_value("query.refined") > 0);
        for id in ids_of(&rs) {
            assert_eq!(id % 5, 2);
        }
    }

    #[test]
    fn scalar_only_query_with_order_and_limit() {
        let (ts, vw, engine) = setup(100, IndexKind::Hnsw, 100);
        let opts = QueryOptions::default();
        let ids = |sql: &str| ids_of(&execute_sql_select(&engine, &ts, &vw, &opts, sql).unwrap());
        assert_eq!(
            ids("SELECT id, score FROM t WHERE id >= 90 ORDER BY score DESC LIMIT 3"),
            vec![99, 98, 97]
        );
        // Neither the sort key nor the filter column is projected: both
        // are still read.
        assert_eq!(
            ids("SELECT id FROM t WHERE label = 'l1' ORDER BY score DESC LIMIT 3"),
            vec![99, 97, 95]
        );
    }

    #[test]
    fn strategy_is_rechosen_per_statement() {
        let (ts, vw, engine) = setup(400, IndexKind::Hnsw, 400);
        let opts = QueryOptions::default();
        let topk = |limit: usize| {
            format!(
                "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT {limit}"
            )
        };
        let filtered = |limit: usize| {
            format!(
                "SELECT id FROM t WHERE id < 10800 \
                 ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT {limit}"
            )
        };
        // Which `query.plan.*` counter one statement bumps.
        let plan_of = |sql: String| {
            let count = |s: &Strategy| {
                engine.metrics.counter_value(&format!("query.plan.{}", s.slug()))
            };
            let before = Strategy::ALL.map(|s| count(&s));
            execute_sql_select(&engine, &ts, &vw, &opts, &sql).unwrap();
            let moved: Vec<Strategy> = Strategy::ALL
                .into_iter()
                .zip(before)
                .filter(|(s, b)| count(s) > *b)
                .map(|(s, _)| s)
                .collect();
            assert_eq!(moved.len(), 1, "one plan counter per statement: {moved:?}");
            moved[0]
        };
        // 400 rows: scanning them beats a 64-wide beam's ~260 hops.
        assert_eq!(plan_of(topk(10)), Strategy::BruteForce);
        // The table grows 30x; the same statement must not keep its scan.
        ts.insert_rows(rows(400..12_000, 12_000)).unwrap();
        assert_eq!(plan_of(topk(10)), Strategy::PostFilter);
        // `k` is the statement's own literal, and an input of the choice:
        // ten rows come from the index, five thousand from a scan.
        assert_ne!(plan_of(filtered(10)), Strategy::BruteForce);
        assert_eq!(plan_of(filtered(5000)), Strategy::BruteForce);
    }

    #[test]
    fn cbo_picks_brute_force_for_tiny_pass_fraction() {
        // 6,000 rows: large enough that a 64-wide beam (~310 hops at twelve
        // distances each) undercuts scanning every row.
        let (ts, vw, engine) = setup(6000, IndexKind::Hnsw, 2000);
        let opts = QueryOptions::default();
        // id < 5 passes 0.5% of rows → Plan A.
        execute_sql_select(
            &engine,
            &ts,
            &vw,
            &opts,
            "SELECT id FROM t WHERE id < 5 \
             ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 3",
        )
        .unwrap();
        assert_eq!(engine.metrics.counter_value("query.plan.brute_force"), 1);
        // No filter → post-filter (plain ANN).
        execute_sql_select(
            &engine,
            &ts,
            &vw,
            &opts,
            "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 3",
        )
        .unwrap();
        assert_eq!(engine.metrics.counter_value("query.plan.post_filter"), 1);
    }

    #[test]
    fn cbo_picked_traversal_is_the_plan_that_runs_and_honours_the_filter() {
        let (ts, vw, engine) = setup(12_000, IndexKind::Hnsw, 3000);
        let opts = QueryOptions::default();
        // Which plan the model prefers for a shape is the decision table's
        // business (`cost.rs`); this one — 90% of 12,000 rows passing, k
        // above the default ef — is priced to Plan D, and the point here is
        // that the executor then runs D and D returns passing rows only.
        let rs = execute_sql_select(
            &engine,
            &ts,
            &vw,
            &opts,
            "SELECT id FROM t WHERE id < 10800 \
             ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT 100",
        )
        .unwrap();
        assert_eq!(rs.len(), 100);
        for id in ids_of(&rs) {
            assert!(id < 10_800, "Plan D returned filtered-out row {id}");
        }
        assert_eq!(engine.metrics.counter_value("query.plan.filtered_traversal"), 1);
    }

    #[test]
    fn explain_lists_all_four_plan_costs() {
        let (ts, vw, engine) = setup(400, IndexKind::Hnsw, 400);
        let _ = &vw;
        let sql = "SELECT id FROM t WHERE label = 'l0' \
                   ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT 10";
        let stmt = parse_select(sql);
        let out = engine.explain_select(&ts, &QueryOptions::default(), &stmt).unwrap();
        for plan in ["Plan A", "Plan B", "Plan C", "Plan D"] {
            assert!(out.contains(plan), "EXPLAIN missing {plan}: {out}");
        }
        assert!(out.contains("strategy: "), "{out}");
    }

    #[test]
    fn explain_prices_the_statements_sigma() {
        let (ts, _vw, engine) = setup(800, IndexKind::IvfPq, 800);
        let stmt = parse_select(
            "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT 10",
        );
        let cost = |sigma: usize, plan: &str| -> f64 {
            let opts = QueryOptions { sigma, ..Default::default() };
            let out = engine.explain_select(&ts, &opts, &stmt).unwrap();
            let estimate = |l: &&str| l.starts_with("  ") && l.contains(plan);
            let line = out.lines().find(estimate).unwrap_or_else(|| panic!("{out}"));
            line.rsplit("cost ").next().unwrap().parse().unwrap()
        };
        // The refine term is σ·k exact distances (k = 10, c_d = 1); EXPLAIN
        // prints costs to one decimal.
        for plan in ["Plan B", "Plan C"] {
            let moved = cost(4, plan) - cost(2, plan);
            assert!((moved - 20.0).abs() < 0.1, "{plan}: {moved}");
        }
        assert_eq!(cost(4, "Plan A"), cost(2, "Plan A"));
    }

    #[test]
    fn deleted_rows_are_invisible_to_search() {
        let (ts, vw, engine) = setup(300, IndexKind::Hnsw, 300);
        ts.delete_where(&Predicate::eq("id", Value::UInt64(0))).unwrap();
        ts.delete_where(&Predicate::eq("id", Value::UInt64(5))).unwrap();
        let opts = QueryOptions::default();
        for strategy in [
            Strategy::BruteForce,
            Strategy::PreFilter,
            Strategy::PostFilter,
            Strategy::FilteredTraversal,
        ] {
            let o = QueryOptions { forced_strategy: Some(strategy), ..opts.clone() };
            let rs = execute_sql_select(
                &engine,
                &ts,
                &vw,
                &o,
                "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT 10",
            )
            .unwrap();
            let ids = ids_of(&rs);
            assert!(!ids.contains(&0), "{strategy:?} returned deleted row 0");
            assert!(!ids.contains(&5), "{strategy:?} returned deleted row 5");
        }
    }

    #[test]
    fn semantic_pruning_with_adaptive_expansion_still_finds_k() {
        let (ts, vw, engine) = setup(500, IndexKind::Hnsw, 50);
        // Aggressive pruning: schedule 20% of segments; ask for more rows
        // than one cluster bucket holds under the filter.
        let opts = QueryOptions {
            prune: PruneConfig::default().with_semantic(0.2),
            ..Default::default()
        };
        let rs = execute_sql_select(
            &engine,
            &ts,
            &vw,
            &opts,
            "SELECT id FROM t WHERE label = 'l0' \
             ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT 60",
        )
        .unwrap();
        assert_eq!(rs.len(), 60, "adaptive expansion must fill k");
        assert!(engine.metrics.counter_value("query.adaptive_expansions") > 0);
    }

    #[test]
    fn parallel_fanout_matches_sequential_results() {
        // 12 segments, deletes in two of them: the fan-out must return the
        // same ids AND bit-identical sorted distances as sequential search.
        let (ts, vw, engine) = setup(600, IndexKind::Hnsw, 50);
        ts.delete_where(&Predicate::eq("id", Value::UInt64(0))).unwrap();
        ts.delete_where(&Predicate::eq("id", Value::UInt64(45))).unwrap();
        let sql = "SELECT id, dist FROM t \
                   ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) AS dist LIMIT 25";
        let seq_opts = QueryOptions { intra_query_parallelism: 1, ..Default::default() };
        let seq = execute_sql_select(&engine, &ts, &vw, &seq_opts, sql).unwrap();
        assert_eq!(
            engine.metrics.counter_value("query.fanout_batches"),
            0,
            "parallelism 1 stays off the fan-out path"
        );
        let ds: Vec<f64> =
            seq.column_values("dist").unwrap().iter().map(|v| v.as_f64().unwrap()).collect();
        for parallelism in [2, 4, 8] {
            let par_opts =
                QueryOptions { intra_query_parallelism: parallelism, ..Default::default() };
            let par = execute_sql_select(&engine, &ts, &vw, &par_opts, sql).unwrap();
            assert_eq!(ids_of(&seq), ids_of(&par));
            assert!(!ids_of(&par).contains(&0));
            assert!(!ids_of(&par).contains(&45));
            let dp: Vec<f64> =
                par.column_values("dist").unwrap().iter().map(|v| v.as_f64().unwrap()).collect();
            assert_eq!(ds, dp, "parallel distances must be bit-identical to sequential");
            for w in dp.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
        let m = &engine.metrics;
        assert_eq!(m.counter_value("query.parallel_segments"), 3 * 12);
        assert_eq!(m.counter_value("query.fanout_batches"), 3);
        assert_eq!(
            m.counter_value("query.fanout.caller_tasks")
                + m.counter_value("query.fanout.helper_tasks"),
            m.counter_value("query.parallel_segments"),
            "every fanned-out segment ran on the caller or on a helper"
        );
        let spare_cores =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64 - 1;
        assert!(
            m.counter_value("query.fanout.threads_started") <= spare_cores.min(7),
            "helpers are capped by the machine and by intra_query_parallelism - 1"
        );
        // Exactly one kernel-tier gauge is set.
        let tiers = ["kernel.tier.avx2", "kernel.tier.neon", "kernel.tier.scalar"];
        let set: u64 = tiers.iter().map(|t| engine.metrics.gauge_value(t)).sum();
        assert_eq!(set, 1);
    }

    #[test]
    fn batched_execution_matches_sequential() {
        // 12 segments, deletes, a mix of filtered / unfiltered / scalar
        // statements: execute_batch must return, per statement, exactly what
        // a sequential execute loop returns — ids AND bit-identical
        // distances — with the shared bound on and off.
        let (ts, vw, engine) = setup(600, IndexKind::Hnsw, 50);
        ts.delete_where(&Predicate::eq("id", Value::UInt64(0))).unwrap();
        ts.delete_where(&Predicate::eq("id", Value::UInt64(45))).unwrap();
        let sqls = [
            "SELECT id, dist FROM t ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) AS dist LIMIT 25",
            "SELECT id FROM t WHERE label = 'l0' \
             ORDER BY L2Distance(emb, [6.0, 6.1, 6.2, 5.9]) LIMIT 8",
            "SELECT id, score FROM t WHERE id >= 90 ORDER BY score DESC LIMIT 3",
            "SELECT id, dist FROM t ORDER BY L2Distance(emb, [12.0, 12.1, 12.2, 11.9]) AS dist LIMIT 7",
        ];
        let stmts: Vec<SelectStmt> = sqls.iter().map(|s| parse_select(s)).collect();
        for share_bound in [true, false] {
            let opts = QueryOptions { share_bound, ..Default::default() };
            let seq: Vec<ResultSet> = stmts
                .iter()
                .map(|s| engine.execute_select(&ts, &vw, &opts, s).unwrap())
                .collect();
            let batched = engine.execute_select_batch(&ts, &vw, &opts, &stmts).unwrap();
            assert_eq!(batched.len(), stmts.len());
            for (i, (s, b)) in seq.iter().zip(&batched).enumerate() {
                assert_eq!(s.rows, b.rows, "statement {i} (share_bound={share_bound})");
            }
        }
        assert!(engine.metrics.counter_value("query.batch_size") >= 8);
    }

    #[test]
    fn batched_execution_single_statement_and_empty_batch() {
        let (ts, vw, engine) = setup(200, IndexKind::Hnsw, 100);
        let opts = QueryOptions::default();
        assert!(engine.execute_select_batch(&ts, &vw, &opts, &[]).unwrap().is_empty());
        let sql = "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT 5";
        let stmt = parse_select(sql);
        let one = engine.execute_select_batch(&ts, &vw, &opts, &[stmt]).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(ids_of(&one[0]).len(), 5);
    }

    #[test]
    fn shared_bound_prunes_across_segments() {
        // Pure top-k statements in a batch each carry a shared bound: once
        // a query's early segments publish their k-th distance, its scans
        // of later segments must record skipped candidates. BruteForce is
        // forced so every candidate row consults the bound.
        let (ts, vw, engine) = setup(500, IndexKind::Hnsw, 50);
        let sql = "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT 5";
        let stmt = parse_select(sql);
        let opts = QueryOptions {
            forced_strategy: Some(Strategy::BruteForce),
            intra_query_parallelism: 1,
            ..Default::default()
        };
        let stmts: Vec<SelectStmt> = (0..4).map(|_| stmt.clone()).collect();
        let rs = engine.execute_select_batch(&ts, &vw, &opts, &stmts).unwrap();
        for r in &rs {
            assert_eq!(ids_of(r), ids_of(&rs[0]));
        }
        assert!(
            engine.metrics.counter_value("query.bound_skips") > 0,
            "shared bound should have skipped candidates in later segments"
        );
    }

    #[test]
    fn quantized_batch_with_shared_bound_matches_sequential() {
        // Quantized indexes now participate in the shared bound (margin
        // pruning + refine publication) instead of opting out. Batches with
        // duplicate statements (which share ONE bound) and a filtered
        // variant (which must NOT share the unfiltered bound) must still be
        // bit-identical to sequential execution, with a nonzero skip rate.
        for kind in [IndexKind::IvfPqFs, IndexKind::IvfPq, IndexKind::HnswSq] {
            let (ts, vw, engine) = setup(600, kind, 50);
            let sqls = [
                "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT 5",
                "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT 5",
                "SELECT id FROM t WHERE label = 'l0' \
                 ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT 5",
                "SELECT id FROM t ORDER BY L2Distance(emb, [12.0, 12.1, 12.2, 11.9]) LIMIT 5",
            ];
            let stmts: Vec<SelectStmt> = sqls.iter().map(|s| parse_select(s)).collect();
            // Sequential segment order so the first segment's refined k-th
            // is published before later segments scan.
            let opts = QueryOptions { intra_query_parallelism: 1, ..Default::default() };
            let seq: Vec<ResultSet> = stmts
                .iter()
                .map(|s| engine.execute_select(&ts, &vw, &opts, s).unwrap())
                .collect();
            let batched = engine.execute_select_batch(&ts, &vw, &opts, &stmts).unwrap();
            for (i, (s, b)) in seq.iter().zip(&batched).enumerate() {
                assert_eq!(s.rows, b.rows, "statement {i} ({kind:?})");
            }
            assert!(
                engine.metrics.counter_value("query.bound_skips") > 0,
                "{kind:?}: quantized scans should have skipped far candidates"
            );
        }
    }

    #[test]
    fn failing_segment_stops_the_fan_out_early() {
        // 32 segments at parallelism 2, the first one unreadable. Every
        // segment search (the failing one included) costs 2 ms of simulated
        // worker compute on a real clock, so by the time the second thread
        // is back for its next claim the abort flag is up: all but a handful
        // of segments stay unsearched, and the statement still reports the
        // error of the first segment in pending order, not a peer's.
        let (ts, _, engine) = setup(32 * 20, IndexKind::Hnsw, 20);
        let metas = ts.segments();
        assert_eq!(metas.len(), 32);
        let vw = VirtualWarehouse::new(
            bh_common::VwId(0),
            "slow",
            VwConfig {
                worker: bh_cluster::worker::WorkerConfig {
                    compute_per_segment: bh_common::LatencyModel::fixed(
                        std::time::Duration::from_millis(2),
                    ),
                    ..Default::default()
                },
                ..Default::default()
            },
            ts.remote_store().clone(),
            bh_common::RealClock::shared(),
            engine.metrics.clone(),
            Arc::new(IdGenerator::starting_at(2000)),
        );
        vw.scale_up(&[]);
        ts.remote_store()
            .put(&metas[0].block_key("emb", 0), b"not a column block".to_vec().into())
            .unwrap();
        let opts = QueryOptions {
            forced_strategy: Some(Strategy::BruteForce),
            intra_query_parallelism: 2,
            ..Default::default()
        };
        let sql = "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT 5";
        let err = execute_sql_select(&engine, &ts, &vw, &opts, sql).unwrap_err();
        assert!(
            !matches!(err, BhError::Internal(_)),
            "segment 0's own error must surface, got {err:?}"
        );
        let m = &engine.metrics;
        let searched = m.counter_value("query.fanout.caller_tasks")
            + m.counter_value("query.fanout.helper_tasks");
        assert!(
            (1..=16).contains(&searched),
            "{searched} of 32 segments searched after the failure"
        );
        assert_eq!(m.counter_value("query.parallel_segments"), searched);
    }

    #[test]
    fn moved_segment_is_served_by_its_previous_owner_while_its_transfer_runs() {
        // Fig. 4 through the engine. A scale-up moved segments to a cold
        // worker; the round starts their transfers, and while those run each
        // task resolves its segment to the previous owner: every index plan
        // runs there — one serving RPC per (statement, moved segment) — and
        // the transfers stay pending, the new owner's warm. With serving off
        // the task waits its transfer out. Never brute force, and the
        // always-warm rows either way.
        let clock = VirtualClock::shared();
        // Bandwidth-bound: a label block read on the cold owner costs far
        // less than an index blob, so it ripens no transfer.
        let per_byte = std::time::Duration::from_micros(1);
        let store = InMemoryObjectStore::new(
            clock.clone(),
            bh_common::LatencyModel::new(std::time::Duration::ZERO, per_byte),
            MetricsRegistry::new(),
            "remote",
        );
        let (ts, _, engine) = setup_on(Arc::new(store), 400, IndexKind::Hnsw, 50, Metric::L2);
        let metas = ts.segments();
        let m = &engine.metrics;
        let count = |name: &str| m.counter_value(name);
        let topk = |filter: &str, c: f32| {
            parse_select(&format!(
                "SELECT id, dist FROM t {filter}ORDER BY \
                 L2Distance(emb, [{c}, {}, {}, {}]) AS dist LIMIT 12",
                c + 0.1,
                c + 0.2,
                c - 0.1
            ))
        };
        let (plain, filtered) = (topk("", 6.0), topk("WHERE label = 'l0' ", 6.0));
        let batches =
            [vec![plain.clone()], vec![filtered.clone()], vec![plain, filtered, topk("", 12.0)]];
        for serving_enabled in [true, false] {
            for plan in [Strategy::PreFilter, Strategy::PostFilter, Strategy::FilteredTraversal] {
                for stmts in &batches {
                    let case =
                        format!("{plan:?}, serving={serving_enabled}, {} stmts", stmts.len());
                    // The index path is the subject; on 400 rows the CBO would scan.
                    let opts = QueryOptions { forced_strategy: Some(plan), ..Default::default() };
                    let cfg = VwConfig { serving_enabled, ..Default::default() };
                    let vw = warehouse_on(&ts, cfg, clock.clone());
                    vw.preload(&metas).unwrap();
                    let baseline = engine.execute_select_batch(&ts, &vw, &opts, stmts).unwrap();
                    let owner = |meta: &Arc<SegmentMeta>| vw.owner_of(meta).unwrap().1;
                    let is_cold = |meta: &&Arc<SegmentMeta>| !owner(meta).index_resident(meta);
                    while !metas.iter().any(|meta| is_cold(&meta)) {
                        vw.scale_up(&metas);
                    }
                    let cold: Vec<_> = metas.iter().filter(is_cold).collect();
                    let moving = ["vw.serving_calls", "worker.rpc_ns", "query.index_prefetches"];
                    let (before, brute) = (moving.map(count), count("worker.brute_force"));
                    let moved = engine.execute_select_batch(&ts, &vw, &opts, stmts).unwrap();
                    assert_eq!(rows_of(&moved), rows_of(&baseline), "{case}");
                    assert_eq!(count("worker.brute_force"), brute, "{case}");
                    let after = moving.map(count);
                    let [served, rpc_ns, prefetched] = [0, 1, 2].map(|i| after[i] - before[i]);
                    assert_eq!(prefetched, cold.len() as u64, "{case}: the round starts the warm");
                    let pending = |meta: &Arc<SegmentMeta>| {
                        owner(meta).index_cache().in_flight(meta.id)
                    };
                    if serving_enabled {
                        assert_eq!(
                            served,
                            (stmts.len() * cold.len()) as u64,
                            "{case}: one RPC per (statement, moved segment)"
                        );
                        assert!(rpc_ns > 0, "{case}: serving time is folded");
                        assert!(cold.iter().all(|m| pending(m) && is_cold(m)), "{case}");
                    } else {
                        assert_eq!((served, rpc_ns), (0, 0), "{case}");
                        assert!(cold.iter().all(|m| !pending(m) && !is_cold(m)), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn worker_failure_mid_query_is_retried() {
        let (ts, vw, engine) = setup(400, IndexKind::Hnsw, 100);
        // Kill one worker; queries must still succeed via retry-eviction.
        let victim = vw.worker_ids()[0];
        vw.inject_failure(victim).unwrap();
        let opts = QueryOptions::default();
        let rs = execute_sql_select(
            &engine,
            &ts,
            &vw,
            &opts,
            "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 5",
        )
        .unwrap();
        assert_eq!(rs.len(), 5);
        assert_eq!(vw.worker_count(), 1);
    }

    #[test]
    fn a_retried_call_counts_one_retry_on_either_entry() {
        let (ts, vw, engine) = setup(400, IndexKind::Hnsw, 100);
        vw.scale_up(&[]); // three workers: two may die
        let metas = ts.segments();
        let retries = || engine.metrics.counter_value("vw.query_retries");
        let kill_owner = |meta: &Arc<SegmentMeta>| {
            let (owner, _) = vw.owner_of(meta).unwrap();
            vw.inject_failure(owner).unwrap();
        };
        let q = [0.0f32; 4];
        let scan = |meta: &Arc<SegmentMeta>| {
            with_segment_retry(&vw, meta, |w| {
                w.brute_force_segment_bounded(&ts, meta, &q, 3, None, None)
            })
        };
        // A live owner: no retry.
        assert_eq!(scan(&metas[0]).unwrap().len(), 3);
        assert_eq!(retries(), 0);
        // The executor's entry.
        kill_owner(&metas[0]);
        assert_eq!(scan(&metas[0]).unwrap().len(), 3);
        assert_eq!(retries(), 1);
        assert_eq!(vw.worker_count(), 2, "the dead owner was evicted");
        // The warehouse's own search.
        kill_owner(&metas[1]);
        let hits =
            vw.search_segment(&ts, &metas[1], &q, 3, &SearchParams::default(), None).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(retries(), 2);
        assert_eq!(vw.worker_count(), 1);
        // The engine's: a statement that reads the dead owner several times
        // (predicate, index, materialize) retries its segment task, once. On
        // one thread the eviction is over before the next task starts.
        vw.scale_up(&[]);
        kill_owner(&metas[2]);
        let opts = QueryOptions {
            forced_strategy: Some(Strategy::PreFilter),
            intra_query_parallelism: 1,
            ..Default::default()
        };
        let sql = "SELECT id, label FROM t WHERE label = 'l0' \
                   ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 5";
        assert_eq!(execute_sql_select(&engine, &ts, &vw, &opts, sql).unwrap().len(), 5);
        assert_eq!(retries(), 3);
        assert_eq!(vw.worker_count(), 1);
    }

    #[test]
    fn projection_with_vector_column() {
        // The store counts its gets on a registry of its own.
        let store_metrics = MetricsRegistry::new();
        let store = Arc::new(InMemoryObjectStore::new(
            VirtualClock::shared(),
            bh_common::clock::LatencyModel::ZERO,
            store_metrics.clone(),
            "s",
        ));
        let (ts, vw, engine) = setup_on(store.clone(), 100, IndexKind::Hnsw, 100, Metric::L2);
        // An index plan: 100 rows are cheaper to scan, and the scan reads `emb`.
        let opts =
            QueryOptions { forced_strategy: Some(Strategy::PostFilter), ..Default::default() };
        let gets = || store_metrics.counter_value("s.get");
        let run = |projection: &str| {
            let sql = format!(
                "SELECT {projection} FROM t ORDER BY L2Distance(emb, [0.0, 0.1, 0.2, -0.1]) LIMIT 1"
            );
            execute_sql_select(&engine, &ts, &vw, &opts, &sql).unwrap()
        };
        run("id");
        let warm = gets();
        run("id");
        assert_eq!(gets(), warm, "a warm statement fetches nothing");
        // Vector column pruning holds on the executor: neither statement
        // fetched an `emb` block, so the first that projects `emb` does.
        let rs = run("emb");
        let fetched = gets() - warm;
        let emb_blocks = store.list("tables/t/").iter().filter(|k| k.contains("/col/emb/")).count();
        assert!((1..=emb_blocks as u64).contains(&fetched), "{fetched} of {emb_blocks}");
        let Value::Vector(v) = &rs.rows[0][0] else { panic!("expected vector") };
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn empty_table_returns_empty() {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::UInt64)
            .with_column("emb", ColumnType::Vector(4))
            .with_vector_index("i", "emb", IndexKind::Hnsw, 4, Metric::L2);
        let metrics = MetricsRegistry::new();
        let ts = TableStore::new(
            schema,
            InMemoryObjectStore::for_tests(),
            TableStoreConfig::default(),
            Arc::new(IdGenerator::new()),
            metrics.clone(),
        )
        .unwrap();
        let vw = VirtualWarehouse::new(
            bh_common::VwId(0),
            "q",
            VwConfig::default(),
            ts.remote_store().clone(),
            VirtualClock::shared(),
            metrics.clone(),
            Arc::new(IdGenerator::starting_at(1000)),
        );
        vw.scale_up(&[]);
        let engine = QueryEngine::new(metrics);
        let rs = execute_sql_select(
            &engine,
            &ts,
            &vw,
            &QueryOptions::default(),
            "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.0, 0.0, 0.0]) LIMIT 5",
        )
        .unwrap();
        assert!(rs.is_empty());
    }
}
