//! The accuracy-aware cost model (§IV-A, Table II, Eqs. 1–3).
//!
//! Four physical plans compete for a filtered vector search. Each is priced
//! as *work units x a measured per-unit cost*; the work count is reported
//! next to the cost ([`PlanEstimate`]), so EXPLAIN shows what the optimizer
//! believed a plan would touch.
//!
//! * **Plan A — brute force**: structured scan, then exact distances on the
//!   `s·n` qualifying rows.           `cost_A = T0 + s·n·c_d`
//! * **Plan B — pre-filter**: structured scan to a bitset, then an ANN scan
//!   whose candidates are tested against it.
//! * **Plan C — post-filter**: ANN first, pulling rows nearest-first until
//!   `σ·k` of them pass the row-wise filter (`c_f` per pulled row).
//! * **Plan D — filtered traversal** (graph indexes only): the Plan-B
//!   bitset steers a predicate-aware graph walk.
//!
//! `T0 = t0_row · n` is the structured scan; a statement without a
//! predicate (`s = 1`) has none and pays none.
//!
//! **Graph indexes (HNSW, HNSWSQ)** are priced by the nodes they visit:
//! [`SearchParams::predicted_visits`] predicts the count for the beam each
//! plan drives (checked against the beam loops' own counters), and a visit
//! costs `c_g` — a random row fetch, a heap push and a distance, about
//! twelve sequential exact distances on this engine, whether the payload is
//! raw or SQ8. Plan B's beam is only as wide as its fixed widening factor, so
//! it is a candidate only while that factor covers the filter
//! (`widen · s ≥ 1`); below that its recall collapses and it is priced out.
//!
//! **IVF indexes (IVFFLAT, IVFPQ, IVFPQFS)** keep the paper's fractions:
//! a plain scan visits `β·n` records (`β = ef_search / n`, a placeholder —
//! ROADMAP), a bitmap scan `2β·n/s`, at `c_c` per quantized code or `c_d` per
//! raw vector, plus the `σ·k·c_d` refine. The IVF kinds have no resumable
//! traversal: Plan C's pull runs through the restart wrapper, which re-runs a
//! complete search with doubled `k` every round. One search is what every
//! index plan pays; each *further* round costs `c_r` — a fixed price, since a
//! quantized IVF search is mostly per-search set-up (lookup tables per probed
//! cell) whatever the row count. So on a small table Plan B's single search
//! behind one structured scan wins, and on a large one, where `T0` outgrows
//! the rounds, the pull does.
//!
//! **A FLAT table** (or one with no index) has no index to plan over: the
//! model never prices it, and every statement on it runs Plan A.
//!
//! Constants are relative to `c_d = 1` and fixed: the probe in
//! `crates/bench/benches/micro_criterion.rs` measures them (DESIGN.md §14
//! records its output), so plan choice is reproducible across runs.

use bh_vector::{GraphScan, IndexGroup, IndexKind, SearchParams};
use serde::{Deserialize, Serialize};

/// Physical execution strategy for a (filtered) vector search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Plan A: scalar filter, then exact distances.
    BruteForce,
    /// Plan B: scalar bitset, then ANN bitmap scan.
    PreFilter,
    /// Plan C: ANN iterator, then scalar filter.
    PostFilter,
    /// Plan D: predicate-aware graph traversal (graph indexes only).
    FilteredTraversal,
}

impl Strategy {
    /// Every strategy, in declaration (`as usize`) order.
    pub const ALL: [Strategy; 4] = [
        Strategy::BruteForce,
        Strategy::PreFilter,
        Strategy::PostFilter,
        Strategy::FilteredTraversal,
    ];

    /// Human-readable plan label.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::BruteForce => "brute-force (Plan A)",
            Strategy::PreFilter => "pre-filter (Plan B)",
            Strategy::PostFilter => "post-filter (Plan C)",
            Strategy::FilteredTraversal => "filtered-traversal (Plan D)",
        }
    }

    /// Stable lowercase slug used for metric names (`query.plan.<slug>`)
    /// and the `system.query_log` strategy column.
    pub fn slug(&self) -> &'static str {
        match self {
            Strategy::BruteForce => "brute_force",
            Strategy::PreFilter => "pre_filter",
            Strategy::PostFilter => "post_filter",
            Strategy::FilteredTraversal => "filtered_traversal",
        }
    }
}

/// Cost-model constants (Table II). Units are arbitrary but consistent —
/// only ratios matter for plan choice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Structured scan cost per row (builds `T0 = t0_row · n`).
    pub t0_row: f64,
    /// Bitmap test per visited record (`c_p`).
    pub c_p: f64,
    /// Fetch a vector sequentially + exact pairwise distance (`c_d`).
    pub c_d: f64,
    /// Fetch a code + ADC distance (`c_c`) — applies to quantized IVF scans.
    pub c_c: f64,
    /// Row-wise predicate evaluation on a pulled candidate (cell fetch +
    /// per-row filter), the post-filter iterator's per-row cost.
    pub c_f: f64,
    /// One graph hop (`c_g`): random row fetch, distance, heap push.
    pub c_g: f64,
    /// One complete search of an IVF index (`c_r`): what each further round
    /// of the post-filter restart wrapper costs.
    pub c_r: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        // Ratios to one sequential exact distance at d = 64 (8–9 ns), from
        // the `probe_cost_constants` bench (output in DESIGN.md §14): a graph
        // hop per predicted visit 90–120 ns; the columnar predicate 3 ns per
        // row in the kernel, 5 through `Worker::eval_predicate`; a complete
        // IVFPQFS search 28–42 µs at 512 and at 8,000 rows alike (IVFFLAT
        // 3–21 µs, IVFPQ 160–200 µs: one constant until IVF has a visit
        // model of its own). The predicate on a pulled row measured 10 when
        // it built a row map per candidate and measures 0.2 as a typed gather
        // plus one mask (PR 18; the kernel 0.06 per row, not 0.34) — neither
        // is what `c_f` holds: it stays at 40, a *two-segment fit*: the pull runs
        // in every segment while the model prices it once per table, and 40
        // is what matches forced Plan C on deep_hybrid's and filter_sweep's
        // two segments (the decision table pins both) — per-segment pricing
        // (ROADMAP) replaces it by a measured cost x segments. `c_c` and
        // `c_p` are left where the IVF decisions were tuned.
        Self { t0_row: 0.5, c_p: 0.005, c_d: 1.0, c_c: 0.25, c_f: 40.0, c_g: 12.0, c_r: 4_000.0 }
    }
}

/// Workload facts the optimizer feeds the model, per statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostInputs {
    /// Visible rows of the table (`n`).
    pub n: usize,
    /// Estimated fraction of rows passing the structured predicate (`s`);
    /// 1 when the statement has none.
    pub s: f64,
    /// Requested result count (`k`).
    pub k: usize,
    /// The statement's refine amplification (`σ`, `QueryOptions::sigma`):
    /// a quantized search and the post-filter pull want `σ·k` rows.
    pub sigma: usize,
    /// The statement's search knobs (beam width, widening hint).
    pub search: SearchParams,
    /// The table's vector index, never FLAT. The HNSW kinds are priced by
    /// predicted visits; a quantized payload (SQ/PQ) over-fetches `σ·k` and
    /// refines.
    pub index: IndexKind,
}

/// What the model expects one plan to touch and cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimate {
    /// The plan priced.
    pub strategy: Strategy,
    /// Rows scanned (Plan A) or index records / graph nodes visited.
    pub visits: f64,
    /// Total cost in `c_d` units; infinite when the plan is not applicable.
    pub cost: f64,
}

impl CostParams {
    /// Price one plan.
    pub fn estimate(&self, strategy: Strategy, i: &CostInputs) -> PlanEstimate {
        let n = i.n as f64;
        let s = i.s.clamp(1e-6, 1.0);
        let filtered = i.s < 1.0;
        let graph = i.index.group() == Some(IndexGroup::Graph);
        let quantized = i.index.is_quantized();
        let t0 = if filtered { self.t0_row * n } else { 0.0 };
        // Rows a search returns, and rows the post-filter pull surfaces.
        let want = i.k.saturating_mul(i.sigma.max(1)) as f64;
        let fetch_k = if quantized { want as usize } else { i.k };
        let pulled = (want / s).min(n);
        let refine = if quantized || !graph { want * self.c_d } else { 0.0 };
        let walk = |scan, k| i.search.predicted_visits(scan, i.n, k, s) as f64;
        let beta = (i.search.ef_search as f64 / n.max(1.0)).clamp(1e-6, 1.0);
        let c_scan = if quantized { self.c_c } else { self.c_d };
        let (visits, cost) = match (strategy, graph) {
            (Strategy::BruteForce, _) => (s * n, t0 + s * n * self.c_d),
            (Strategy::PreFilter, true) => {
                let v = walk(GraphScan::WidenedBeam, fetch_k);
                let holds_recall = i.search.filter_widen_factor() as f64 * s >= 1.0;
                (v, if holds_recall { t0 + v * self.c_g + refine } else { f64::INFINITY })
            }
            (Strategy::PostFilter, true) if filtered => {
                let v = walk(GraphScan::IteratorPull, want as usize);
                (v, v * self.c_g + pulled * self.c_f + refine)
            }
            (Strategy::PostFilter, true) => {
                let v = walk(GraphScan::Beam, fetch_k);
                (v, v * self.c_g + refine)
            }
            (Strategy::FilteredTraversal, true) => {
                let v = walk(GraphScan::FilteredTraversal, fetch_k);
                (v, t0 + v * (self.c_g + self.c_p) + refine)
            }
            (Strategy::PreFilter, false) => {
                let v = (2.0 * beta * n / s).min(n);
                (v, t0 + v * (self.c_p + s * c_scan) + refine)
            }
            (Strategy::PostFilter, false) => {
                let v = (beta * n / s).min(n);
                // The executor pulls `k` rows a batch (16..=256); the restart
                // wrapper starts there and doubles until it has `pulled`.
                let first = i.k.clamp(16, 256).next_power_of_two() as f64;
                let restarts = if filtered { (pulled / first).log2().max(0.0).ceil() } else { 0.0 };
                let pull = if filtered { pulled * self.c_f } else { 0.0 };
                (v, v * c_scan + restarts * self.c_r + pull + refine)
            }
            // Only a graph can walk the predicate.
            (Strategy::FilteredTraversal, false) => (0.0, f64::INFINITY),
        };
        PlanEstimate { strategy, visits, cost }
    }

    /// All four plans, cheapest first. Ties keep the simpler plan in front:
    /// A over everything, C over B and D, B over D.
    pub fn ranked(&self, i: &CostInputs) -> [PlanEstimate; 4] {
        let mut all = [
            Strategy::BruteForce,
            Strategy::PostFilter,
            Strategy::PreFilter,
            Strategy::FilteredTraversal,
        ]
        .map(|plan| self.estimate(plan, i));
        all.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        all
    }

    /// The minimal-cost strategy.
    pub fn choose(&self, i: &CostInputs) -> Strategy {
        self.ranked(i)[0].strategy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Strategy::{BruteForce as A, FilteredTraversal as D, PostFilter as C, PreFilter as B};

    fn inputs(n: usize, s: f64, k: usize, ef: usize) -> CostInputs {
        let search = SearchParams::default().with_ef(ef);
        CostInputs { n, s, k, sigma: 2, search, index: IndexKind::Hnsw }
    }

    /// No graph, quantized codes.
    fn ivf(n: usize, s: f64, k: usize, ef: usize) -> CostInputs {
        CostInputs { index: IndexKind::IvfPqFs, ..inputs(n, s, k, ef) }
    }

    /// filter_sweep's statements: 60,000 rows, k 200, ef 128, the true pass
    /// fraction handed to the search as its hint.
    fn sweep(s: f64) -> CostInputs {
        let mut i = inputs(60_000, s, 200, 128);
        i.search = i.search.with_selectivity(s as f32);
        i
    }

    #[test]
    fn benchmark_shapes_get_the_plan_that_measured_fastest() {
        let p = CostParams::default();
        let cases: &[(&str, CostInputs, &[Strategy])] = &[
            // deep_hybrid: the wide beam wades ~ef/s nodes at ten distances
            // each; from s = 0.3 down the sequential scan is cheaper.
            ("deep s=1", inputs(16_000, 1.0, 100, 256), &[C, D]),
            ("deep s=0.9", inputs(16_000, 0.9, 100, 256), &[C, D]),
            ("deep s=0.3", inputs(16_000, 0.3, 100, 256), &[A]),
            ("deep s=0.1", inputs(16_000, 0.1, 100, 256), &[A]),
            ("deep s=0.01", inputs(16_000, 0.01, 100, 256), &[A]),
            ("deep s=0.001", inputs(16_000, 0.001, 100, 256), &[A]),
            // cold_batch and point_topk: pure top-k stays on the index, and
            // so does cold_batch's half-passing filter.
            ("cold s=1", inputs(8_000, 1.0, 10, 64), &[C, D]),
            ("cold s=0.5", inputs(8_000, 0.5, 10, 64), &[C]),
            ("point s=1", inputs(4_096, 1.0, 10, 16), &[C, D]),
            ("point s=0.3", inputs(4_096, 0.3, 10, 16), &[A]),
            // k above ef: the traversal collects k passing rows where the
            // pull drags sigma*k/s through the row-wise filter (exec.rs runs it).
            ("12k s=0.9 k=100", inputs(12_000, 0.9, 100, 64), &[D]),
            // ingest_mixed, first and last INSERT: the plans it ran before,
            // when the cache froze the first statement's choice. Pulling
            // 67 rows 16 at a time is three restarts of the whole search.
            ("ivf 512 s=1", ivf(512, 1.0, 10, 64), &[C]),
            ("ivf 512 s=0.3", ivf(512, 0.3, 10, 64), &[B]),
            ("ivf 16k s=1", ivf(16_000, 1.0, 10, 64), &[C]),
            ("ivf 16k s=0.3", ivf(16_000, 0.3, 10, 64), &[B]),
            // A large IVF table: the structured scan every other plan needs
            // outweighs the restarts, however weak or strong the filter.
            ("ivf 1M s=0.99", ivf(1_000_000, 0.99, 10, 64), &[C]),
            ("ivf 1M s=0.3", ivf(1_000_000, 0.3, 10, 64), &[C]),
            // filter_sweep (crates/bench, forced plans, two segments): A
            // measured fastest up to s = 0.2; D at 0.3 by 1.1–1.2x over A,
            // which the model still prefers there; B, C and D within noise
            // of each other at 0.5 and C and D at 0.9; C at 0.99.
            ("sweep s=0.1", sweep(0.1), &[A]),
            ("sweep s=0.5", sweep(0.5), &[B, D]),
            ("sweep s=0.9", sweep(0.9), &[C, D]),
            ("sweep s=0.99", sweep(0.99), &[C]),
        ];
        for (name, i, allowed) in cases {
            assert!(allowed.contains(&p.choose(i)), "{name}: chose {:?}", p.ranked(i));
        }
    }

    /// `c_f` = 40 is fitted to tables of two segments (deep_hybrid,
    /// filter_sweep): the pull runs once per segment, the model prices it
    /// once per table. Where forced C and D measured level (filter_sweep at
    /// s = 0.9: 1215–1643 against 1376–1470 qps) the fit prices them level;
    /// the probe's per-row 10 alone would put C 1.8x ahead. Per-segment
    /// pricing (ROADMAP) takes the fit out and this test with it.
    #[test]
    fn pulled_row_cost_is_a_two_segment_fit() {
        let p = CostParams::default();
        let level = |p: &CostParams| p.estimate(D, &sweep(0.9)).cost / p.estimate(C, &sweep(0.9)).cost;
        assert!((0.9..1.2).contains(&level(&p)), "{}", level(&p));
        assert!(level(&CostParams { c_f: 10.0, ..p }) > 1.7);
    }

    #[test]
    fn graph_plans_cost_their_predicted_visits() {
        let p = CostParams::default();
        let i = inputs(16_000, 0.3, 100, 256);
        let d = p.estimate(D, &i);
        let visits = i.search.predicted_visits(GraphScan::FilteredTraversal, i.n, i.k, i.s) as f64;
        assert_eq!(d.visits, visits);
        assert_eq!(d.cost, p.t0_row * 16_000.0 + visits * (p.c_g + p.c_p));
        // Plan A's work count is the rows it scans.
        assert_eq!(p.estimate(A, &i).visits, 0.3 * 16_000.0);
        // k and ef are inputs: a deeper LIMIT widens every beam.
        assert!(p.estimate(D, &inputs(16_000, 0.3, 5_000, 256)).visits > 2.0 * visits);
        assert!(p.estimate(D, &inputs(16_000, 0.3, 100, 64)).visits < visits);
    }

    #[test]
    fn unfiltered_statements_pay_no_structured_scan() {
        let p = CostParams::default();
        for i in [inputs(10_000, 1.0, 10, 64), ivf(10_000, 1.0, 10, 64)] {
            assert_eq!(p.estimate(A, &i).cost, 10_000.0 * p.c_d);
            let almost = CostInputs { s: 0.999, ..i };
            assert!(p.estimate(A, &almost).cost > p.t0_row * 10_000.0);
        }
    }

    #[test]
    fn without_a_resumable_traversal_the_pull_pays_for_its_restarts() {
        let p = CostParams::default();
        assert_eq!(p.estimate(D, &ivf(100_000, 0.2, 100, 64)).cost, f64::INFINITY);
        // k = 10 pulls 16 rows a batch: 20/s rows need log2(20/s / 16)
        // further searches, rounded up.
        let c = |s: f64, index| p.estimate(C, &CostInputs { index, ..ivf(100_000, s, 10, 64) }).cost;
        let pull = |s: f64| 20.0 / s * p.c_f;
        let scan = |s: f64| 64.0 / s * p.c_c;
        assert_eq!(c(1.0, IndexKind::IvfPqFs), scan(1.0) + 20.0, "plain top-k: one search");
        assert_eq!(c(0.9, IndexKind::IvfPqFs), scan(0.9) + p.c_r + pull(0.9) + 20.0);
        assert_eq!(c(0.3, IndexKind::IvfPqFs), scan(0.3) + 3.0 * p.c_r + pull(0.3) + 20.0);
        // Raw cells pay an exact distance per vector and restart alike.
        let raw = 64.0 / 0.3 * p.c_d;
        assert_eq!(c(0.3, IndexKind::IvfFlat), raw + 3.0 * p.c_r + pull(0.3) + 20.0);
        // Large k on a large table: the pull's row-wise filter, not the
        // restarts, is what hands the middle of the range to the bitmap scan.
        assert_eq!(p.choose(&ivf(1_000_000, 0.1, 1_000, 64)), B);
    }

    #[test]
    fn plan_b_on_a_graph_is_priced_out_once_its_widening_cannot_cover_the_filter() {
        let p = CostParams::default();
        // Unhinted searches widen 2x: enough at s = 0.5, not at 0.3.
        assert!(p.estimate(B, &inputs(1_000_000, 0.5, 10, 64)).cost.is_finite());
        assert_eq!(p.estimate(B, &inputs(1_000_000, 0.3, 10, 64)).cost, f64::INFINITY);
        // A hinted search widens ~1/s (clamped at 16x).
        let mut hinted = inputs(1_000_000, 0.1, 10, 64);
        hinted.search = hinted.search.with_selectivity(0.1);
        assert!(p.estimate(B, &hinted).cost.is_finite());
        hinted.s = 0.01;
        hinted.search = hinted.search.with_selectivity(0.01);
        assert_eq!(p.estimate(B, &hinted).cost, f64::INFINITY);
    }

    #[test]
    fn each_plan_wins_one_contiguous_region_of_s() {
        let p = CostParams::default();
        let regions = |n: usize, k: usize, ef: usize| {
            let mut seen = Vec::new();
            for i in 1..=999 {
                let w = p.choose(&inputs(n, i as f64 / 1000.0, k, ef));
                if seen.last() != Some(&w) {
                    seen.push(w);
                }
            }
            seen
        };
        // deep_hybrid's shape: A up to s ~ 0.75, post-filter near 1, and
        // between them at most a sliver where the traversal's ef/s hops
        // cost less than pulling sigma*k/s rows through the row-wise filter.
        let deep = regions(16_000, 100, 256);
        assert!(deep == [A, C] || deep == [A, D, C], "{deep:?}");
        // A million rows: the structured scan alone (T0, paid by A, B and D)
        // outweighs any beam, so post-filter takes over from A directly.
        assert_eq!(regions(1_000_000, 100, 128), vec![A, C]);
    }

    #[test]
    fn ranked_is_sorted_and_ties_prefer_the_simpler_plan() {
        let p = CostParams::default();
        for i in [inputs(1_000, 0.5, 5, 64), ivf(1_000, 0.5, 5, 64), inputs(0, 0.5, 0, 64)] {
            let ranked = p.ranked(&i);
            assert!(ranked.windows(2).all(|w| w[0].cost <= w[1].cost), "{ranked:?}");
            assert!(ranked.iter().all(|e| e.cost >= 0.0 && e.visits >= 0.0), "{ranked:?}");
            assert_eq!(p.choose(&i), ranked[0].strategy);
        }
        // An empty table costs nothing under every applicable plan: A wins.
        assert_eq!(p.choose(&inputs(0, 1.0, 0, 64)), A);
    }

    #[test]
    fn quantized_ivf_discounts_scan_cost() {
        let p = CostParams::default();
        let q = ivf(100_000, 0.5, 10, 64);
        let raw = CostInputs { index: IndexKind::IvfFlat, ..q };
        assert!(p.estimate(B, &q).cost < p.estimate(B, &raw).cost, "ADC scan must be cheaper");
        let (q, raw) = (CostInputs { s: 1.0, ..q }, CostInputs { s: 1.0, ..raw });
        assert!(p.estimate(C, &q).cost < p.estimate(C, &raw).cost);
    }
}
