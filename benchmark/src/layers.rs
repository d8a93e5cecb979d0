//! The traced run: per-layer metrics.
//!
//! End-to-end numbers are taken with tracing off (`e2e.rs`). This separate
//! run replays a sample of the workload's SELECTs *outside-in* through the
//! public functions of each crate — `core` → `sql` → `query` → `cluster` →
//! `storage` → `vector` — timing each boundary with a benchmark-side span.
//! A layer's self time is its boundary's time minus the boundaries one
//! level in, so the rows telescope back to the facade's wall time. Spans
//! are kept in memory and written to `out/trace-<workload>.json` at the end.
//!
//! The replay has to follow the plan the engine picked (the per-segment
//! calls differ by strategy), so it mirrors the four per-segment sequences
//! of `bh_query::exec`. To keep that mirror honest every replayed statement
//! is checked to return the same ids as `execute_bound`; the share that
//! does is reported as `trace.replay_match_ratio`.
//!
//! Count metrics come from before/after deltas of the registry's public
//! counters around one untimed-per-call pass at the workload's own options;
//! with one client they repeat exactly.

use crate::gen::create_table_sql;
use crate::report::{metric, Metric, Outcome};
use crate::shadow::recall;
use crate::stats::{mean, median};
use crate::workloads::{id_x, Stmt, Verdict, Workload, TABLE};
use crate::Args;
use bh_cluster::scheduler::select_segments;
use bh_cluster::VirtualWarehouse;
use bh_common::{BhError, Bitset};
use bh_query::bind::{bind_select, BoundSelect};
use bh_query::exec::with_segment_retry;
use bh_query::Strategy;
use bh_sql::{parse_statement, Statement};
use bh_storage::predicate::Predicate;
use bh_storage::segment::SegmentMeta;
use bh_storage::table::TableStore;
use bh_storage::value::Value;
use bh_vector::{IndexKind, Metric as Distance, Neighbor};
use blendhouse::{Database, QueryOptions};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

type Result<T> = std::result::Result<T, BhError>;

/// Statements replayed (spread evenly over the workload's list) and timing
/// repeats of each; every reported time is the median of the repeats.
const SAMPLE: usize = 128;
const REPEATS: usize = 5;
/// Statements of the plan-regret probe, and of one batch-speedup batch.
const REGRET_SAMPLE: usize = 24;
const BATCH: usize = 16;
/// Share of `--seconds` the replay, and the plan-regret probe, may take
/// before they stop sampling.
const REPLAY_SHARE: f64 = 0.4;
const PROBE_SHARE: f64 = 0.2;
/// Segments the cold-load probes visit.
const COLD_SEGMENTS: usize = 8;

const SCRATCH: &str = "bench_scratch";

// ------------------------------------------------------------------- spans

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// The span this one was measured to explain.
    parent: Option<usize>,
    /// Statement id shared by the spans of one replay.
    stmt: usize,
}

struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Time `f` as a span; returns its output and the span's id.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        stmt: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec { name, start_ns, end_ns, parent, stmt });
        (out, self.spans.len() - 1)
    }

    fn us(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e3
    }

    fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"stmt\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.stmt
            )
            .expect("string write");
        }
        out.push_str("]\n");
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

// ------------------------------------------------------------------ replay

/// The boundaries a statement's replay times. Per-segment boundaries are
/// summed over the statement's segments.
#[derive(Clone, Copy)]
enum B {
    Execute,
    Parse,
    Bind,
    ExecuteBound,
    SelectSegments,
    /// The cluster-level per-segment call sequence of the chosen plan.
    Segment,
    EvalPredicate,
    CacheGet,
    Search,
    /// Cell reads inside a segment's search: refine of quantized hits.
    Refine,
    /// Projection cells of the winning rows.
    Materialise,
}

const BOUNDARIES: usize = B::Materialise as usize + 1;

/// Microseconds per boundary of one statement's replay.
#[derive(Clone, Copy, Default)]
struct Cost([f64; BOUNDARIES]);

impl std::ops::Index<B> for Cost {
    type Output = f64;
    fn index(&self, b: B) -> &f64 {
        &self.0[b as usize]
    }
}

impl std::ops::IndexMut<B> for Cost {
    fn index_mut(&mut self, b: B) -> &mut f64 {
        &mut self.0[b as usize]
    }
}

impl Cost {
    /// Boundary-wise `reduce` (median of repeats, mean over statements).
    fn reduce(costs: &[Cost], reduce: fn(&[f64]) -> f64) -> Cost {
        let mut out = Cost::default();
        for (b, slot) in out.0.iter_mut().enumerate() {
            *slot = reduce(&costs.iter().map(|c| c.0[b]).collect::<Vec<_>>());
        }
        out
    }

    // Self times: a boundary minus the boundaries one level in.
    fn facade_self(&self) -> f64 {
        self[B::Execute] - self[B::Parse] - self[B::Bind] - self[B::ExecuteBound]
    }
    fn exec_self(&self) -> f64 {
        self[B::ExecuteBound] - self[B::SelectSegments] - self[B::Segment] - self[B::Materialise]
    }
    fn dispatch_self(&self) -> f64 {
        self[B::Segment]
            - self[B::EvalPredicate]
            - self[B::CacheGet]
            - self[B::Search]
            - self[B::Refine]
    }
}

/// Call counts of one statement's replay (the same on every repeat).
#[derive(Clone, Copy, Default)]
struct Calls {
    segments: usize,
    segments_seen: usize,
    segments_pruned: usize,
    eval_predicate: usize,
    cache_get: usize,
    search: usize,
    matched: bool,
    filtered: bool,
}

struct Replayer<'a> {
    db: &'a Database,
    table: Arc<TableStore>,
    vw: Arc<VirtualWarehouse>,
    /// The workload's options with intra-query parallelism 1, so that the
    /// boundary times add up instead of overlapping.
    opts: QueryOptions,
    needs_refine: bool,
    distance: Distance,
}

const PLAN_COUNTERS: [(&str, Strategy); 4] = [
    ("query.plan.brute_force", Strategy::BruteForce),
    ("query.plan.pre_filter", Strategy::PreFilter),
    ("query.plan.post_filter", Strategy::PostFilter),
    ("query.plan.filtered_traversal", Strategy::FilteredTraversal),
];

fn plan_counts(db: &Database) -> [u64; 4] {
    PLAN_COUNTERS.map(|(name, _)| db.metrics().counter_value(name))
}

fn internal(msg: &str) -> BhError {
    BhError::Internal(msg.to_string())
}

impl<'a> Replayer<'a> {
    fn new(db: &'a Database, opts: QueryOptions) -> Replayer<'a> {
        let table = db.table(TABLE).expect("bench table");
        let spec = &table.schema().indexes.first().expect("bench table is indexed").spec;
        let needs_refine =
            matches!(spec.kind, IndexKind::HnswSq | IndexKind::IvfPq | IndexKind::IvfPqFs);
        let distance = spec.metric;
        Replayer {
            db,
            vw: db.default_vw(),
            table,
            opts: QueryOptions { intra_query_parallelism: 1, ..opts },
            needs_refine,
            distance,
        }
    }

    /// Predicate ∧ visibility, as the executor composes it.
    fn filter_bits(
        &self,
        worker: &bh_cluster::Worker,
        meta: &SegmentMeta,
        predicate: &Predicate,
        vis: &Bitset,
    ) -> Result<Bitset> {
        if matches!(predicate, Predicate::True) {
            return Ok(vis.clone());
        }
        let mut bits = worker.eval_predicate(&self.table, meta, predicate)?;
        bits.intersect_with(vis);
        Ok(bits)
    }

    fn refine(
        &self,
        worker: &bh_cluster::Worker,
        meta: &SegmentMeta,
        query: &[f32],
        mut hits: Vec<Neighbor>,
        k: usize,
    ) -> Result<Vec<Neighbor>> {
        hits.truncate(k.saturating_mul(self.opts.sigma.max(1)));
        let mut refined =
            worker.refine_distances(&self.table, meta, query, self.distance, &hits)?;
        refined.truncate(k);
        Ok(refined)
    }

    /// Rows of one iterator batch that are visible, and of those the ones
    /// passing the predicate row by row (the post-filter plan's inner step).
    fn post_filter_rows(
        &self,
        worker: &bh_cluster::Worker,
        meta: &SegmentMeta,
        predicate: &Predicate,
        visible: &[Neighbor],
    ) -> Result<Vec<Neighbor>> {
        let cols = predicate.referenced_columns();
        let offsets: Vec<u32> = visible.iter().map(|nb| nb.id as u32).collect();
        let mut cells: BTreeMap<String, Vec<Value>> = BTreeMap::new();
        for c in &cols {
            cells.insert(c.clone(), worker.read_cells(&self.table, meta, c, &offsets)?);
        }
        let mut out = Vec::new();
        for (i, nb) in visible.iter().enumerate() {
            let row: BTreeMap<String, Value> =
                cols.iter().map(|c| (c.clone(), cells[c][i].clone())).collect();
            if predicate.eval(&row)? {
                out.push(*nb);
            }
        }
        Ok(out)
    }

    /// One segment of one statement: the cluster-level call sequence of the
    /// chosen plan as one span, then each inner public call on its own.
    #[allow(clippy::too_many_arguments)]
    fn segment(
        &self,
        tracer: &mut Tracer,
        parent: usize,
        stmt_id: usize,
        strategy: Strategy,
        bound: &BoundSelect,
        selectivity: Option<f32>,
        meta: &Arc<SegmentMeta>,
        cost: &mut Cost,
        calls: &mut Calls,
    ) -> Result<Vec<Neighbor>> {
        let v = bound
            .vector
            .as_ref()
            .ok_or_else(|| internal("sampled statement has no vector clause"))?;
        let k = v.k.ok_or_else(|| internal("sampled statement has no LIMIT"))?;
        let has_pred = !matches!(bound.predicate, Predicate::True);
        let vis = self.table.visibility(meta);
        let (_, owner) = self.vw.owner_of(meta)?;
        let sigma = self.opts.sigma.max(1);
        let search_params = if strategy == Strategy::FilteredTraversal {
            let mut p = self.opts.search.with_filter_traversal(true);
            if p.filter_selectivity.is_none() {
                p.filter_selectivity = selectivity;
            }
            p
        } else {
            self.opts.search
        };
        let plain_topk = strategy == Strategy::PostFilter && !has_pred;
        let iterator_batch = k.clamp(16, 256);
        // A segment whose index is not resident takes the miss path inside
        // the cluster call: a head-only or brute-force answer, then a
        // synchronous warm. The counters tell which fetches that made.
        let was_cold = meta.index_kind.is_some() && !owner.index_resident(meta);
        let cold_post_filter = strategy == Strategy::PostFilter && was_cold && owner.is_alive();
        let head_fetches = self.db.metrics().counter_value("cache.index.head.fetch");

        // ---- the boundary: what exec.rs does for this segment, in one span
        let mut batches: Vec<Vec<Neighbor>> = Vec::new();
        let this = self;
        let boundary = |batches: &mut Vec<Vec<Neighbor>>| -> Result<Vec<Neighbor>> {
            match strategy {
                Strategy::BruteForce => with_segment_retry(&this.vw, meta, |w| {
                    let bits = this.filter_bits(&w, meta, &bound.predicate, &vis)?;
                    if bits.is_all_clear() {
                        return Ok(Vec::new());
                    }
                    w.brute_force_segment_bounded(&this.table, meta, &v.query, k, Some(&bits), None)
                }),
                Strategy::PreFilter | Strategy::FilteredTraversal => {
                    let bits = with_segment_retry(&this.vw, meta, |w| {
                        this.filter_bits(&w, meta, &bound.predicate, &vis)
                    })?;
                    if bits.is_all_clear() {
                        return Ok(Vec::new());
                    }
                    let fetch_k = if this.needs_refine { k.saturating_mul(sigma) } else { k };
                    let hits = this.vw.search_segment_bounded(
                        &this.table,
                        meta,
                        &v.query,
                        fetch_k,
                        &search_params,
                        Some(&bits),
                        None,
                    )?;
                    if this.needs_refine && !hits.is_empty() {
                        with_segment_retry(&this.vw, meta, |w| {
                            this.refine(&w, meta, &v.query, hits.clone(), k)
                        })
                    } else {
                        let mut hits = hits;
                        hits.truncate(k.max(1));
                        Ok(hits)
                    }
                }
                Strategy::PostFilter if cold_post_filter => {
                    // Cold owner: one over-fetched top-k through the VW,
                    // the predicate applied to what comes back.
                    let fetch_k = k.saturating_mul(sigma).saturating_mul(2);
                    let hits = this.vw.search_segment(
                        &this.table,
                        meta,
                        &v.query,
                        fetch_k,
                        &this.opts.search,
                        None,
                    )?;
                    let visible: Vec<Neighbor> =
                        hits.into_iter().filter(|nb| vis.contains(nb.id as usize)).collect();
                    batches.clear();
                    batches.push(visible.clone());
                    let passing = if has_pred {
                        with_segment_retry(&this.vw, meta, |w| {
                            this.post_filter_rows(&w, meta, &bound.predicate, &visible)
                        })?
                    } else {
                        visible
                    };
                    let mut hits = if this.needs_refine && !passing.is_empty() {
                        with_segment_retry(&this.vw, meta, |w| {
                            this.refine(&w, meta, &v.query, passing.clone(), k)
                        })?
                    } else {
                        passing
                    };
                    hits.truncate(k);
                    Ok(hits)
                }
                Strategy::PostFilter => with_segment_retry(&this.vw, meta, |w| {
                    let index = w.index_handle(meta)?.ok_or_else(|| {
                        internal("segment has no index; replay covers indexed segments only")
                    })?;
                    if plain_topk {
                        let fetch = if index.needs_refine() { k.saturating_mul(sigma) } else { k };
                        let filter = if vis.is_all_set() { None } else { Some(&vis) };
                        let hits = index.search_with_bound(
                            &v.query,
                            fetch,
                            &this.opts.search,
                            filter,
                            None,
                        )?;
                        let mut hits = if index.needs_refine() && !hits.is_empty() {
                            this.refine(&w, meta, &v.query, hits, k)?
                        } else {
                            hits
                        };
                        hits.truncate(k);
                        return Ok(hits);
                    }
                    let mut it = index.search_iterator(&v.query, &this.opts.search)?;
                    let want = k.saturating_mul(sigma);
                    let mut collected: Vec<Neighbor> = Vec::with_capacity(want);
                    batches.clear();
                    while collected.len() < want {
                        let batch = it.next_batch(iterator_batch)?;
                        if batch.is_empty() {
                            break;
                        }
                        let visible: Vec<Neighbor> =
                            batch.into_iter().filter(|nb| vis.contains(nb.id as usize)).collect();
                        batches.push(visible.clone());
                        if visible.is_empty() {
                            continue;
                        }
                        collected.extend(this.post_filter_rows(
                            &w,
                            meta,
                            &bound.predicate,
                            &visible,
                        )?);
                    }
                    drop(it);
                    let mut hits = if index.needs_refine() && !collected.is_empty() {
                        this.refine(&w, meta, &v.query, collected, k)?
                    } else {
                        collected
                    };
                    hits.truncate(k);
                    Ok(hits)
                }),
            }
        };
        let (hits, seg) =
            tracer.span("cluster.search_segment", Some(parent), stmt_id, || boundary(&mut batches));
        let hits = hits?;
        cost[B::Segment] += tracer.us(seg);
        calls.segments += 1;

        // ---- one level in: each inner public call, timed on its own
        let mut child = |name: &'static str, f: &mut dyn FnMut() -> Result<()>| -> Result<f64> {
            let (out, id) = tracer.span(name, Some(seg), stmt_id, f);
            out?;
            Ok(tracer.us(id))
        };
        let mut inner = || -> Result<()> {
            // Bitset plans evaluate the predicate column-wise up front.
            let mut bits = vis.clone();
            if has_pred && strategy != Strategy::PostFilter {
                cost[B::EvalPredicate] += child("storage.eval_predicate", &mut || {
                    bits = this.filter_bits(&owner, meta, &bound.predicate, &vis)?;
                    Ok(())
                })?;
                calls.eval_predicate += 1;
                if bits.is_all_clear() {
                    return Ok(());
                }
            }
            if strategy == Strategy::BruteForce {
                // Plan A's scan is the distance kernels over the raw column.
                cost[B::Search] += child("vector.search", &mut || {
                    owner
                        .brute_force_segment_bounded(
                            &this.table,
                            meta,
                            &v.query,
                            k,
                            Some(&bits),
                            None,
                        )
                        .map(drop)
                })?;
                calls.search += 1;
                return Ok(());
            }
            let head_fetched =
                this.db.metrics().counter_value("cache.index.head.fetch") > head_fetches;
            let mut index = None;
            cost[B::CacheGet] += child("storage.index_cache.get", &mut || {
                if was_cold {
                    // Redo the miss: drop the index, fetch what was fetched.
                    owner.index_cache().invalidate(meta);
                    if head_fetched {
                        owner.index_cache().get_head(meta)?;
                    }
                }
                index = owner.index_handle(meta)?;
                Ok(())
            })?;
            calls.cache_get += 1;
            let index = index.ok_or_else(|| internal("segment has no index"))?;
            let mut found = Vec::new();
            if strategy != Strategy::PostFilter {
                let fetch_k = if this.needs_refine { k.saturating_mul(sigma) } else { k };
                cost[B::Search] += child("vector.search", &mut || {
                    found = index.search_with_bound(
                        &v.query,
                        fetch_k,
                        &search_params,
                        Some(&bits),
                        None,
                    )?;
                    Ok(())
                })?;
            } else if cold_post_filter {
                let fetch_k = k.saturating_mul(sigma).saturating_mul(2);
                cost[B::Search] += child("vector.search", &mut || {
                    index
                        .search_with_bound(&v.query, fetch_k, &this.opts.search, None, None)
                        .map(drop)
                })?;
                if has_pred {
                    cost[B::EvalPredicate] += child("storage.eval_predicate", &mut || {
                        found =
                            this.post_filter_rows(&owner, meta, &bound.predicate, &batches[0])?;
                        Ok(())
                    })?;
                    calls.eval_predicate += 1;
                }
            } else if plain_topk {
                let fetch = if index.needs_refine() { k.saturating_mul(sigma) } else { k };
                let filter = if vis.is_all_set() { None } else { Some(&vis) };
                cost[B::Search] += child("vector.search", &mut || {
                    found = index.search_with_bound(
                        &v.query,
                        fetch,
                        &this.opts.search,
                        filter,
                        None,
                    )?;
                    Ok(())
                })?;
            } else {
                cost[B::Search] += child("vector.search", &mut || {
                    let mut it = index.search_iterator(&v.query, &this.opts.search)?;
                    for _ in 0..batches.len() {
                        it.next_batch(iterator_batch)?;
                    }
                    Ok(())
                })?;
                // Plan C evaluates the predicate row by row on pulled rows.
                cost[B::EvalPredicate] += child("storage.eval_predicate", &mut || {
                    for visible in batches.iter().filter(|b| !b.is_empty()) {
                        found.extend(this.post_filter_rows(
                            &owner,
                            meta,
                            &bound.predicate,
                            visible,
                        )?);
                    }
                    Ok(())
                })?;
                calls.eval_predicate += 1;
            }
            calls.search += 1;
            if index.needs_refine() && !found.is_empty() {
                cost[B::Refine] += child("storage.read_cells", &mut || {
                    this.refine(&owner, meta, &v.query, found.clone(), k).map(drop)
                })?;
            }
            Ok(())
        };
        inner()?;
        Ok(hits)
    }

    /// Replay one statement once; returns its boundary times and call counts.
    fn statement(&self, tracer: &mut Tracer, stmt_id: usize, stmt: &Stmt) -> Result<(Cost, Calls)> {
        let mut cost = Cost::default();
        let mut calls = Calls { filtered: stmt.range.is_some(), ..Calls::default() };
        let db = self.db;
        let opts = self.opts.clone();

        let (out, root) =
            tracer.span("core.execute", None, stmt_id, || db.execute_with(&stmt.sql, &opts));
        out?;
        cost[B::Execute] = tracer.us(root);

        let (parsed, id) =
            tracer.span("sql.parse", Some(root), stmt_id, || parse_statement(&stmt.sql));
        cost[B::Parse] = tracer.us(id);
        let Statement::Select(sel) = parsed? else {
            return Err(internal("sampled statement is not a SELECT"));
        };

        let table = self.table.clone();
        let (bound, id) =
            tracer.span("query.bind", Some(root), stmt_id, || bind_select(table.schema(), &sel));
        cost[B::Bind] = tracer.us(id);
        let bound = bound?;

        let vw = self.vw.clone();
        let before = plan_counts(db);
        let (rs, eb) = tracer.span("query.execute_bound", Some(root), stmt_id, || {
            db.engine().execute_bound(&table, &vw, &opts, &bound)
        });
        let rs = rs?;
        cost[B::ExecuteBound] = tracer.us(eb);
        let after = plan_counts(db);
        let strategy = PLAN_COUNTERS
            .iter()
            .zip(before.iter().zip(&after))
            .find(|(_, (b, a))| a > b)
            .map(|((_, s), _)| *s)
            .ok_or_else(|| internal("no query.plan.* counter moved"))?;

        let v = bound
            .vector
            .as_ref()
            .ok_or_else(|| internal("sampled statement has no vector clause"))?;
        let segments = table.segments();
        let (selection, id) = tracer.span("cluster.select_segments", Some(eb), stmt_id, || {
            select_segments(&segments, &bound.predicate, Some(&v.query), &opts.prune)
        });
        cost[B::SelectSegments] = tracer.us(id);
        calls.segments_seen = segments.len();
        calls.segments_pruned = selection.scalar_pruned;

        // The plan-time selectivity estimate Plan D sizes its beam with.
        let selectivity = (!matches!(bound.predicate, Predicate::True))
            .then(|| bound.predicate.estimate_selectivity(&table.sketch()) as f32);
        let k = v.k.unwrap_or(1);
        let mut merged: Vec<(f32, Arc<SegmentMeta>, u32)> = Vec::new();
        for meta in &selection.scheduled {
            let hits = self.segment(
                tracer,
                eb,
                stmt_id,
                strategy,
                &bound,
                selectivity,
                meta,
                &mut cost,
                &mut calls,
            )?;
            merged.extend(hits.into_iter().map(|nb| (nb.distance, meta.clone(), nb.id as u32)));
        }
        merged.sort_by(|a, b| a.0.total_cmp(&b.0));
        merged.truncate(k);

        // Projection cells of the winners, grouped by segment like the
        // executor's materialise step.
        let mut by_segment: BTreeMap<u64, (Arc<SegmentMeta>, Vec<u32>)> = BTreeMap::new();
        for (_, meta, off) in &merged {
            by_segment
                .entry(meta.id.raw())
                .or_insert_with(|| (meta.clone(), Vec::new()))
                .1
                .push(*off);
        }
        let mut ids: Vec<u64> = Vec::with_capacity(merged.len());
        let (out, id) = tracer.span("storage.read_cells", Some(eb), stmt_id, || -> Result<()> {
            for (meta, offsets) in by_segment.values() {
                with_segment_retry(&vw, meta, |w| {
                    let id_cells = w.read_cells(&table, meta, "id", offsets)?;
                    w.read_cells(&table, meta, "x", offsets)?;
                    ids.extend(id_cells.iter().filter_map(|c| match c {
                        Value::UInt64(id) => Some(*id),
                        _ => None,
                    }));
                    Ok(())
                })?;
            }
            Ok(())
        });
        out?;
        cost[B::Materialise] = tracer.us(id);

        let mut engine_ids: Vec<u64> =
            rs.rows.iter().filter_map(|row| id_x(row).ok().map(|(id, _)| id)).collect();
        engine_ids.sort_unstable();
        ids.sort_unstable();
        calls.matched = engine_ids == ids;
        Ok((cost, calls))
    }
}

// ----------------------------------------------------------------- probes

/// Counter deltas of the counting pass.
struct Deltas {
    before: HashMap<String, u64>,
    after: HashMap<String, u64>,
}

impl Deltas {
    fn get(&self, name: &str) -> f64 {
        let a = self.after.get(name).copied().unwrap_or(0);
        let b = self.before.get(name).copied().unwrap_or(0);
        a.saturating_sub(b) as f64
    }
}

fn counters(db: &Database) -> HashMap<String, u64> {
    db.metrics().snapshot_counters().into_iter().collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Cold index loads: `IndexCache::get` right after `invalidate` (remote
/// fetch + decode + promote), and the decode alone on the same blob.
fn cold_probe(db: &Database) -> Result<(f64, f64)> {
    let table = db.table(TABLE)?;
    let vw = db.default_vw();
    let mut get_ms = Vec::new();
    let mut load_ms = Vec::new();
    for meta in table.segments().iter().take(COLD_SEGMENTS) {
        let Some(kind) = meta.index_kind else {
            continue;
        };
        let (_, owner) = vw.owner_of(meta)?;
        for _ in 0..3 {
            owner.index_cache().invalidate(meta);
            let (got, us) = time_us(|| owner.index_cache().get(meta));
            got?;
            get_ms.push(us / 1e3);
        }
        let blob = db.remote_store().get(&meta.index_key())?;
        for _ in 0..3 {
            let (loaded, us) = time_us(|| db.registry().load_blob(kind, &blob));
            loaded?;
            load_ms.push(us / 1e3);
        }
    }
    if get_ms.is_empty() {
        return Err(internal("no indexed segment to probe"));
    }
    // Leave every segment resident again for the phases that follow.
    vw.preload(&table.segments())?;
    Ok((median(&get_ms), median(&load_ms)))
}

struct WriteProbe {
    parse_us_per_row: f64,
    insert_rows_us_per_row: f64,
    insert_self_us_per_row: f64,
    build_us_per_row: f64,
    compact_ms: f64,
    merged: f64,
    dropped: f64,
    write_amp: f64,
}

/// The write path on a scratch table of the workload's schema: the same
/// INSERT batch through the facade, through `parse_statement` alone and
/// through `TableStore::insert_rows` alone; the index build alone; then a
/// DELETE and one compaction of what was inserted.
fn write_probe(w: &dyn Workload) -> Result<WriteProbe> {
    const ROUNDS: usize = 3;
    let db = &w.table().db;
    let (rows, from, to) = (&w.table().rows, 0, w.insert_batch_rows());
    let n = (to - from) as f64;
    let puts_before = db.metrics().counter_value("remote.put.bytes");
    db.execute(&create_table_sql(SCRATCH, &w.table().index))?;
    let scratch = db.table(SCRATCH)?;
    let sql = rows.insert_sql(SCRATCH, from, to);

    let (mut parse, mut execute, mut store, mut build) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (parsed, us) = time_us(|| parse_statement(&sql));
        parsed?;
        parse.push(us / n);
        let (out, us) = time_us(|| db.execute(&sql));
        out?;
        execute.push(us / n);
        let typed: Vec<Vec<Value>> = (from..to)
            .map(|i| {
                vec![
                    Value::UInt64(rows.ids[i]),
                    Value::Int64(rows.xs[i]),
                    Value::Vector(rows.emb(i).to_vec()),
                ]
            })
            .collect();
        let (out, us) = time_us(|| scratch.insert_rows(typed));
        out?;
        store.push(us / n);

        let spec =
            bh_vector::autoindex::apply_auto_index(&scratch.schema().indexes[0].spec, to - from);
        let vectors = &rows.embs[from * rows.dim..to * rows.dim];
        let ids: Vec<u64> = (0..(to - from) as u64).collect();
        let (out, us) = time_us(|| -> Result<()> {
            let mut builder = db.registry().create_builder(&spec)?;
            if builder.requires_training() {
                builder.train(vectors)?;
            }
            builder.add_with_ids(vectors, &ids)?;
            builder.finish().map(drop)
        });
        out?;
        build.push(us / n);
    }
    let user_bytes = (2 * ROUNDS) as f64 * n * (16 + rows.dim * 4) as f64;

    // Every batch carried the same ids, so this drops 2*ROUNDS copies each.
    let (lo, hi) = (rows.ids[from], rows.ids[from + (to - from) / 8]);
    db.execute(&format!("DELETE FROM {SCRATCH} WHERE id BETWEEN {lo} AND {hi}"))?;
    let (report, us) = time_us(|| db.compact(SCRATCH));
    let report = report?;
    let put_bytes = db.metrics().counter_value("remote.put.bytes") - puts_before;

    let (parse, execute, store) = (median(&parse), median(&execute), median(&store));
    Ok(WriteProbe {
        parse_us_per_row: parse,
        insert_rows_us_per_row: store,
        insert_self_us_per_row: execute - parse - store,
        build_us_per_row: median(&build),
        compact_ms: us / 1e3,
        merged: report.merged_segments as f64,
        dropped: report.rows_dropped as f64,
        write_amp: put_bytes as f64 / user_bytes,
    })
}

/// Nanoseconds per vector pair of the batched L2 kernel at this dimension.
fn kernel_probe(dim: usize) -> Result<f64> {
    const ROWS: usize = 1024;
    let block: Vec<f32> = (0..ROWS * dim).map(|i| (i % 97) as f32 * 0.01).collect();
    let query: Vec<f32> = (0..dim).map(|i| i as f32 * 0.02).collect();
    let mut out = vec![0.0f32; ROWS];
    let mut per_pair = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..64 {
            bh_vector::distance::distance_batch(
                Distance::L2,
                std::hint::black_box(&query),
                std::hint::black_box(&block),
                dim,
                &mut out,
            )?;
            std::hint::black_box(&out);
        }
        per_pair.push(t.elapsed().as_nanos() as f64 / (64 * ROWS) as f64);
    }
    Ok(median(&per_pair))
}

fn bind_sample(table: &TableStore, stmts: &[&Stmt]) -> Result<Vec<BoundSelect>> {
    stmts
        .iter()
        .map(|s| match parse_statement(&s.sql)? {
            Statement::Select(sel) => bind_select(table.schema(), &sel),
            _ => Err(internal("sampled statement is not a SELECT")),
        })
        .collect()
}

/// Sixteen `execute_bound` calls against one `execute_batch` of the same
/// sixteen, warm, at the workload's own options.
fn batch_speedup(w: &dyn Workload, sample: &[&Stmt]) -> Result<f64> {
    let db = &w.table().db;
    let table = db.table(TABLE)?;
    let vw = db.default_vw();
    let opts = w.options();
    let batch = bind_sample(&table, &sample[..sample.len().min(BATCH)])?;
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let (out, one_by_one) = time_us(|| -> Result<()> {
            for b in &batch {
                db.engine().execute_bound(&table, &vw, &opts, b)?;
            }
            Ok(())
        });
        out?;
        let (out, batched) = time_us(|| db.engine().execute_batch(&table, &vw, &opts, &batch));
        out?;
        ratios.push(one_by_one / batched);
    }
    Ok(median(&ratios))
}

const FORCED: [Strategy; 4] =
    [Strategy::BruteForce, Strategy::PreFilter, Strategy::PostFilter, Strategy::FilteredTraversal];

/// Per filter class: latency under the optimizer's pick over the fastest
/// forced plan that still reaches recall 0.9, and what each plan recalled.
fn plan_regret(
    w: &dyn Workload,
    sample: &[&Stmt],
    budget_s: f64,
    notes: &mut Vec<String>,
) -> Result<f64> {
    let db = &w.table().db;
    let table = db.table(TABLE)?;
    let vw = db.default_vw();
    let classes = w.classes();
    // The sample takes the classes in turn, so a prefix is balanced.
    let picked = &sample[..sample.len().min(REGRET_SAMPLE)];
    let bound = bind_sample(&table, picked)?;
    let run = |opts: &QueryOptions, i: usize| -> Result<(f64, f64)> {
        let stmt = picked[i];
        // Truth against the rows live now: a mutating workload's statements
        // carry truth from their place in the schedule instead.
        let truth =
            w.table().shadow.topk(&stmt.query, stmt.k, &[stmt.range]).pop().expect("one range");
        let mut us = Vec::new();
        let mut rec = 0.0;
        for _ in 0..3 {
            let (rs, t) = time_us(|| db.engine().execute_bound(&table, &vw, opts, &bound[i]));
            let rows: Vec<(u64, i64)> = rs?.rows.iter().filter_map(|r| id_x(r).ok()).collect();
            rec = recall(&truth, &rows);
            us.push(t);
        }
        Ok((median(&us), rec))
    };
    // Each statement runs under the optimizer's pick and the four forced
    // plans before the next one starts, so stopping early (the thrashing
    // workload) still leaves every plan measured on the same statements.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(budget_s);
    let mut class_regret = Vec::new();
    for (c, class) in classes.iter().enumerate() {
        // [cbo, A, B, C, D] → (sum of latency, sum of recall)
        let mut sums = [(0.0, 0.0); 5];
        let mut n = 0;
        for i in (0..picked.len()).filter(|&i| picked[i].class == c) {
            if n > 0 && Instant::now() > deadline {
                break;
            }
            for (slot, forced) in sums.iter_mut().zip(std::iter::once(None).chain(FORCED.map(Some)))
            {
                let opts = QueryOptions { forced_strategy: forced, ..w.options() };
                let (us, rec) = run(&opts, i)?;
                slot.0 += us;
                slot.1 += rec;
            }
            n += 1;
        }
        if n == 0 {
            continue;
        }
        let row = sums.map(|(us, rec)| (us / n as f64, rec / n as f64));
        let best = row[1..]
            .iter()
            .filter(|(_, rec)| *rec >= 0.9)
            .map(|(us, _)| *us)
            .fold(f64::INFINITY, f64::min);
        let regret = if best.is_finite() { row[0].0 / best } else { 1.0 };
        class_regret.push(regret);
        let cells: Vec<String> = ["cbo", "A", "B", "C", "D"]
            .iter()
            .zip(&row)
            .map(|(name, (us, rec))| format!("{name} {us:.0}us r={rec:.2}"))
            .collect();
        notes.push(format!(
            "  plans[{class}] over {n} statements: {} → regret {regret:.2}",
            cells.join(" | ")
        ));
    }
    Ok(mean(&class_regret))
}

/// `n` statements spread evenly over the list, the filter classes taking
/// turns, so that any prefix of the sample is balanced too.
fn spread_sample(all: &[Stmt], classes: usize, n: usize) -> Vec<&Stmt> {
    let per_class = n / classes;
    let picked: Vec<Vec<&Stmt>> = (0..classes)
        .map(|class| {
            let members: Vec<&Stmt> = all.iter().filter(|s| s.class == class).collect();
            let stride = (members.len() / per_class.max(1)).max(1);
            members.into_iter().step_by(stride).take(per_class).collect()
        })
        .collect();
    (0..per_class).flat_map(|i| picked.iter().filter_map(move |c| c.get(i).copied())).collect()
}

// -------------------------------------------------------------------- run

pub fn run(name: &str, args: &Args) -> Outcome {
    let (sample_n, repeats) = if args.quick { (12, 2) } else { (SAMPLE, REPEATS) };
    let mut w = crate::setup(name, args.seed, args.quick);
    w.pass(); // warm-up: a fixed count, so the counters below repeat exactly

    // ---- counts: one pass at the workload's own options
    let stats_before = w.table().db.engine().plan_cache().stats();
    let before = if w.fresh_db_per_pass() { HashMap::new() } else { counters(&w.table().db) };
    let pass = w.pass();
    let deltas = Deltas { before, after: counters(&w.table().db) };
    let stats_after = w.table().db.engine().plan_cache().stats();
    let (hits, misses) = if w.fresh_db_per_pass() {
        stats_after
    } else {
        (stats_after.0 - stats_before.0, stats_after.1 - stats_before.1)
    };
    let verdict: Verdict = w.verify(&pass);
    let selects = pass.results.len() as f64;

    let mut notes = Vec::new();
    let mut metrics: Vec<Metric> = Vec::new();
    let probes = (|| -> Result<()> {
        let w: &dyn Workload = w.as_ref();
        let db = &w.table().db;
        let sample = spread_sample(w.sample(), w.classes().len(), sample_n);

        // ---- the replay
        let replayer = Replayer::new(db, w.options());
        let mut tracer = Tracer::new();
        let mut costs = Vec::new();
        let mut calls = Vec::new();
        // A statement of the thrashing workload costs tens of milliseconds
        // per boundary; the replay stops early there rather than overrun.
        let deadline =
            Instant::now() + std::time::Duration::from_secs_f64(args.seconds * REPLAY_SHARE);
        for (stmt_id, stmt) in sample.iter().enumerate() {
            if stmt_id >= 2 * w.classes().len() && Instant::now() > deadline {
                break;
            }
            let mut runs = Vec::new();
            let mut counted = Calls::default();
            for _ in 0..repeats {
                let (cost, c) = replayer.statement(&mut tracer, stmt_id, stmt)?;
                runs.push(cost);
                counted = c;
            }
            costs.push(Cost::reduce(&runs, median));
            calls.push(counted);
        }
        // ---- the same statements untraced at parallelism 1: the tracing overhead
        let opts1 = QueryOptions { intra_query_parallelism: 1, ..w.options() };
        let mut plain = Vec::new();
        for stmt in sample.iter().take(costs.len()) {
            let mut us = Vec::new();
            for _ in 0..repeats {
                let (out, t) = time_us(|| db.execute_with(&stmt.sql, &opts1));
                out?;
                us.push(t);
            }
            plain.push(median(&us));
        }

        let trace_path = format!("{}/trace-{name}.json", args.out_dir);
        if let Err(e) = tracer.write_json(&trace_path) {
            notes.push(format!("  could not write {trace_path}: {e}"));
        } else {
            notes.push(format!("  {} spans written to {trace_path}", tracer.spans.len()));
        }

        let total = Cost::reduce(&costs, mean);
        let sum = |f: fn(&Calls) -> usize| calls.iter().map(f).sum::<usize>() as f64;
        let segs = sum(|c| c.segments);
        let per_stmt = costs.len() as f64;
        let split = |want_filtered: bool| -> f64 {
            let (us, n) = costs
                .iter()
                .zip(&calls)
                .filter(|(_, c)| c.filtered == want_filtered)
                .fold((0.0, 0usize), |acc, (cost, c)| (acc.0 + cost[B::Search], acc.1 + c.search));
            ratio(us, n as f64)
        };
        let positive = |v: f64| v.max(0.0);
        let accounted = positive(total.facade_self())
            + total[B::Parse]
            + total[B::Bind]
            + positive(total.exec_self())
            + total[B::SelectSegments]
            + positive(total.dispatch_self())
            + total[B::EvalPredicate]
            + total[B::CacheGet]
            + total[B::Search]
            + total[B::Refine]
            + total[B::Materialise];

        // ---- the other probes
        let (get_cold_ms, load_ms) = cold_probe(db)?;
        let speedup = batch_speedup(w, &sample)?;
        let regret = plan_regret(w, &sample, args.seconds * PROBE_SHARE, &mut notes)?;
        let kernel_ns = kernel_probe(w.table().shadow.dim())?;
        let write = write_probe(w)?;

        if pass.write_s > 0.0 {
            let build_s = write.build_us_per_row * pass.rows_written as f64 / 1e6;
            notes.push(format!(
                "  write time {:.3} s per pass: index build {:.1} % (build_us_per_row x rows) + compaction calls {:.1} %",
                pass.write_s,
                100.0 * build_s / pass.write_s,
                100.0 * pass.compact_s / pass.write_s,
            ));
        }
        let plans: f64 = PLAN_COUNTERS.iter().map(|(n, _)| deltas.get(n)).sum();
        let gets = deltas.get("cache.index.mem.hit") + deltas.get("cache.index.mem.miss");
        let disk = deltas.get("cache.index.disk.hit") + deltas.get("cache.index.disk.miss");
        let worst_recall = verdict
            .recall_by_class
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(s, n)| s / *n as f64)
            .fold(1.0, f64::min);

        metrics.extend([
            metric("core.execute_us", total[B::Execute], "us"),
            metric("core.facade_self_us", total.facade_self(), "us"),
            metric("core.insert_self_us_per_row", write.insert_self_us_per_row, "us"),
            metric("sql.parse_us", total[B::Parse], "us"),
            metric("sql.parse_insert_us_per_row", write.parse_us_per_row, "us"),
            metric("query.bind_us", total[B::Bind], "us"),
            metric("query.execute_bound_us", total[B::ExecuteBound], "us"),
            metric("query.plan_us", ratio(deltas.get("query.plan_ns"), selects) / 1e3, "us"),
            metric("query.exec_self_us", total.exec_self(), "us"),
            metric(
                "query.plan_cache_hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
                "ratio",
            ),
            metric(
                "query.plan_share.brute_force",
                ratio(deltas.get("query.plan.brute_force"), plans),
                "ratio",
            ),
            metric(
                "query.plan_share.pre_filter",
                ratio(deltas.get("query.plan.pre_filter"), plans),
                "ratio",
            ),
            metric(
                "query.plan_share.post_filter",
                ratio(deltas.get("query.plan.post_filter"), plans),
                "ratio",
            ),
            metric(
                "query.plan_share.filtered_traversal",
                ratio(deltas.get("query.plan.filtered_traversal"), plans),
                "ratio",
            ),
            metric("query.cbo_regret_ratio", regret, "ratio"),
            metric("query.recall_worst_class", worst_recall, "ratio"),
            metric("query.batch_speedup", speedup, "ratio"),
            metric(
                "query.bound_skips_per_stmt",
                ratio(deltas.get("query.bound_skips"), selects),
                "count",
            ),
            metric("query.refined_per_stmt", ratio(deltas.get("query.refined"), selects), "count"),
            metric("cluster.select_segments_us", total[B::SelectSegments], "us"),
            metric("cluster.search_segment_us", ratio(total[B::Segment] * per_stmt, segs), "us"),
            metric("cluster.dispatch_self_us", ratio(total.dispatch_self() * per_stmt, segs), "us"),
            metric("cluster.segments_per_stmt", segs / per_stmt, "count"),
            metric(
                "cluster.segments_pruned_share",
                ratio(sum(|c| c.segments_pruned), sum(|c| c.segments_seen)),
                "ratio",
            ),
            metric(
                "cluster.rpc_calls_per_stmt",
                ratio(deltas.get("worker.rpc_calls"), selects),
                "count",
            ),
            metric("cluster.serving_calls", deltas.get("vw.serving_calls"), "count"),
            metric(
                "cluster.retries",
                deltas.get("vw.query_retries") + deltas.get("query.snapshot_retries"),
                "count",
            ),
            metric(
                "storage.index_cache.get_hit_us",
                ratio(total[B::CacheGet] * per_stmt, sum(|c| c.cache_get)),
                "us",
            ),
            metric("storage.index_cache.get_cold_ms", get_cold_ms, "ms"),
            metric(
                "storage.index_cache.mem_hit_ratio",
                ratio(deltas.get("cache.index.mem.hit"), gets),
                "ratio",
            ),
            metric(
                "storage.index_cache.disk_hit_ratio",
                ratio(deltas.get("cache.index.disk.hit"), disk),
                "ratio",
            ),
            metric(
                "storage.index_cache.head_served_share",
                ratio(
                    deltas.get("worker.head_search"),
                    deltas.get("worker.head_search")
                        + deltas.get("worker.local_search")
                        + deltas.get("worker.brute_force"),
                ),
                "ratio",
            ),
            metric(
                "storage.remote.gets_per_stmt",
                ratio(deltas.get("remote.get"), selects),
                "count",
            ),
            metric(
                "storage.remote.get_bytes_per_stmt",
                ratio(deltas.get("remote.get.bytes"), selects),
                "B",
            ),
            metric(
                "storage.eval_predicate_us",
                ratio(total[B::EvalPredicate] * per_stmt, sum(|c| c.eval_predicate)),
                "us",
            ),
            metric("storage.read_cells_us", total[B::Materialise], "us"),
            metric("storage.insert_rows_us_per_row", write.insert_rows_us_per_row, "us"),
            metric(
                "storage.index_build_share",
                ratio(write.build_us_per_row, write.insert_rows_us_per_row),
                "ratio",
            ),
            metric("storage.compact_ms", write.compact_ms, "ms"),
            metric("storage.compact_segments_merged", write.merged, "count"),
            metric("storage.compact_rows_dropped", write.dropped, "count"),
            metric("storage.write_amp", write.write_amp, "ratio"),
            metric("storage.segments_live", db.table(TABLE)?.segment_count() as f64, "count"),
            metric("vector.search_us", split(false), "us"),
            metric("vector.search_filtered_us", split(true), "us"),
            metric("vector.load_ms", load_ms, "ms"),
            metric("vector.build_us_per_row", write.build_us_per_row, "us"),
            metric("vector.distance.l2_ns_per_pair", kernel_ns, "ns"),
            metric("trace.overhead_pct", 100.0 * (total[B::Execute] / mean(&plain) - 1.0), "%"),
            metric("trace.self_time_sum_ratio", accounted / total[B::Execute], "ratio"),
            metric("trace.replay_match_ratio", sum(|c| usize::from(c.matched)) / per_stmt, "ratio"),
        ]);

        // ---- the table a reader checks dominance on
        let share = |us: f64| 100.0 * us / total[B::Execute];
        notes.push(format!(
            "  layer shares of core.execute_us ({} statements x {repeats} repeats, parallelism 1):",
            costs.len()
        ));
        for (layer, us) in [
            ("core   facade self", total.facade_self()),
            ("sql    parse", total[B::Parse]),
            ("query  bind", total[B::Bind]),
            ("query  exec self (plan, fan-out, merge)", total.exec_self()),
            ("cluster select_segments", total[B::SelectSegments]),
            ("cluster dispatch self", total.dispatch_self()),
            ("storage index_cache.get", total[B::CacheGet]),
            ("storage eval_predicate", total[B::EvalPredicate]),
            ("storage read_cells (refine + materialise)", total[B::Refine] + total[B::Materialise]),
            ("vector search", total[B::Search]),
        ] {
            notes.push(format!("    {layer:<44} {us:>10.1} us  {:>5.1} %", share(us)));
        }
        let front = total.facade_self()
            + total[B::Parse]
            + total[B::Bind]
            + total.exec_self()
            + total[B::SelectSegments]
            + total.dispatch_self();
        notes.push(format!(
            "  dominance: core+sql+query+cluster self {:.1} % | vector.search+storage.eval_predicate {:.1} % | storage cache+cells {:.1} %",
            share(front),
            share(total[B::Search] + total[B::EvalPredicate]),
            share(total[B::CacheGet] + total[B::Refine] + total[B::Materialise]),
        ));
        Ok(())
    })();

    let mut correct = verdict.failed == 0;
    for fault in &verdict.faults {
        notes.push(format!("  FAULT: {fault}"));
    }
    if let Err(e) = probes {
        correct = false;
        notes.push(format!("  FAULT: traced run stopped: {e}"));
    }
    Outcome { attempted: verdict.attempted, failed: verdict.failed, correct, metrics, notes }
}
