//! Distance metrics and their kernels, with runtime SIMD dispatch.
//!
//! Three kernel tiers back every metric:
//!
//! * **AVX2+FMA** (`x86_64`, selected at runtime via
//!   `is_x86_feature_detected!`) — 8-wide fused multiply-add loops, unrolled
//!   ×2 so two independent accumulators hide FMA latency.
//! * **NEON** (`aarch64`, baseline for the architecture) — 4-wide `vfmaq`
//!   loops, unrolled ×4 for `l2_sq`/`dot` (16 floats per iteration).
//! * **Scalar fallback** — chunked fixed-width-lane loops that LLVM
//!   auto-vectorizes to whatever the build target allows (SSE2 on stock
//!   `x86_64`), so even the fallback is not a naive element loop.
//!
//! The tier is detected once per process ([`KernelTier::current`]) and every
//! public kernel dispatches on it. [`distance_batch`] amortizes the dispatch
//! across a contiguous row-major block — the layout the FLAT scan, IVF
//! posting lists, k-means centroid tables and PQ codebooks all share.
//!
//! Cosine is computed in a **single fused pass** accumulating `a·b`, `‖a‖²`
//! and `‖b‖²` together (the former three-pass formulation paid for three
//! traversals of both vectors).
//!
//! Below the SIMD width none of that helps: at `dim` 4 (a PQ sub-quantizer)
//! a row kernel is a call, two zeroed accumulators, a horizontal sum and a
//! scalar tail. [`Codebook`] is the entry point for "one small vector
//! against `k` others": it stores them dimension-major so all `k` sit in
//! SIMD lanes, and returns the same bits the row kernels would.
//!
//! All distances are *smaller is more similar*: inner product and cosine are
//! returned negated / inverted accordingly so every index can treat search
//! uniformly as minimization.

use bh_common::{BhError, QueryCtx, Result};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::OnceLock;

/// Similarity metric for a vector column / index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Metric {
    /// Squared Euclidean distance (monotone in L2; avoids the sqrt).
    #[default]
    L2,
    /// Negative inner product (so that larger dot products sort first).
    InnerProduct,
    /// Cosine distance, `1 - cos(a, b)`.
    Cosine,
}

impl Metric {
    /// Parse the SQL-facing metric name.
    pub fn parse(s: &str) -> Result<Metric> {
        match s.to_ascii_uppercase().as_str() {
            "L2" | "L2DISTANCE" | "EUCLIDEAN" => Ok(Metric::L2),
            "IP" | "INNERPRODUCT" | "DOT" | "DOTPRODUCT" => Ok(Metric::InnerProduct),
            "COSINE" | "COSINEDISTANCE" | "COS" => Ok(Metric::Cosine),
            other => Err(BhError::InvalidArgument(format!("unknown metric: {other}"))),
        }
    }

    /// SQL distance-function name mapped to this metric.
    pub fn sql_function(&self) -> &'static str {
        match self {
            Metric::L2 => "L2Distance",
            Metric::InnerProduct => "IPDistance",
            Metric::Cosine => "CosineDistance",
        }
    }

    /// Compute the (minimization-oriented) distance between two vectors.
    ///
    /// # Panics
    /// Panics in debug builds if lengths differ; in release the shorter length
    /// wins. Callers that cannot guarantee matched dimensions must use
    /// [`Metric::distance_checked`] — every index search entry point validates
    /// through `check_query`/`check_batch` before reaching this.
    #[inline]
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch in distance kernel");
        match self {
            Metric::L2 => l2_sq(a, b),
            Metric::InnerProduct => -dot(a, b),
            Metric::Cosine => cosine_distance(a, b),
        }
    }

    /// [`Metric::distance`] with an explicit dimension check, for API
    /// boundaries where the two sides come from different sources (e.g.
    /// refining candidates against stored cells). Release builds of the
    /// unchecked kernels silently truncate to the shorter length, which can
    /// produce plausible-but-wrong distances — this returns an error instead.
    #[inline]
    pub fn distance_checked(&self, a: &[f32], b: &[f32]) -> Result<f32> {
        if a.len() != b.len() {
            return Err(BhError::InvalidArgument(format!(
                "distance kernel dimension mismatch: {} vs {}",
                a.len(),
                b.len()
            )));
        }
        Ok(self.distance(a, b))
    }
}

/// The SIMD tier the process dispatches distance kernels to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// AVX2 + FMA intrinsics (x86_64, runtime-detected).
    Avx2,
    /// NEON intrinsics (aarch64).
    Neon,
    /// Auto-vectorized scalar fallback.
    Scalar,
}

static TIER: OnceLock<KernelTier> = OnceLock::new();

#[cfg(test)]
thread_local! {
    /// The tier a test runs this thread's dispatch on, when not the
    /// detected one (see [`with_tier`]).
    static FORCED_TIER: std::cell::Cell<Option<KernelTier>> = const { std::cell::Cell::new(None) };
}

/// The tiers this machine can run, the detected one first.
#[cfg(test)]
pub(crate) fn runnable_tiers() -> Vec<KernelTier> {
    let mut tiers = vec![*TIER.get_or_init(KernelTier::detect)];
    if tiers[0] != KernelTier::Scalar {
        tiers.push(KernelTier::Scalar);
    }
    tiers
}

/// Run `f` with this thread's kernels dispatched to `tier`, one of
/// [`runnable_tiers`]. Work `f` hands to other threads keeps the detected
/// tier.
#[cfg(test)]
pub(crate) fn with_tier<T>(tier: KernelTier, f: impl FnOnce() -> T) -> T {
    assert!(runnable_tiers().contains(&tier), "{tier:?} does not run here");
    let before = FORCED_TIER.with(|t| t.replace(Some(tier)));
    let out = f();
    FORCED_TIER.with(|t| t.set(before));
    out
}

impl KernelTier {
    /// The tier selected for this process (detected once, then cached).
    #[inline]
    pub fn current() -> KernelTier {
        #[cfg(test)]
        if let Some(tier) = FORCED_TIER.with(|t| t.get()) {
            return tier;
        }
        *TIER.get_or_init(Self::detect)
    }

    fn detect() -> KernelTier {
        // Miri interprets MIR and cannot execute vendor intrinsics; force the
        // scalar kernels so `cargo miri test -p bh-vector` exercises the full
        // logic above the kernel layer.
        if cfg!(miri) {
            return KernelTier::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return KernelTier::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return KernelTier::Neon;
            }
        }
        KernelTier::Scalar
    }

    /// Lower-case tier name for metrics/logs.
    pub fn name(&self) -> &'static str {
        match self {
            KernelTier::Avx2 => "avx2",
            KernelTier::Neon => "neon",
            KernelTier::Scalar => "scalar",
        }
    }
}

// ---------------------------------------------------------------- dispatch

/// Squared Euclidean distance on a tier the caller resolved.
#[inline(always)]
fn l2_on(tier: KernelTier, a: &[f32], b: &[f32]) -> f32 {
    match tier {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => unsafe { avx2::l2_sq(a, b) }, // SAFETY: tier checked: detect() verified avx2+fma
        #[cfg(target_arch = "aarch64")]
        KernelTier::Neon => unsafe { neon::l2_sq(a, b) }, // SAFETY: tier checked: detect() verified neon
        _ => scalar::l2_sq(a, b),
    }
}

/// Inner product on a tier the caller resolved.
#[inline(always)]
fn dot_on(tier: KernelTier, a: &[f32], b: &[f32]) -> f32 {
    match tier {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => unsafe { avx2::dot(a, b) }, // SAFETY: tier checked: detect() verified avx2+fma
        #[cfg(target_arch = "aarch64")]
        KernelTier::Neon => unsafe { neon::dot(a, b) }, // SAFETY: tier checked: detect() verified neon
        _ => scalar::dot(a, b),
    }
}

/// Fused cosine terms on a tier the caller resolved.
#[inline(always)]
fn cosine_terms_on(tier: KernelTier, a: &[f32], b: &[f32]) -> (f32, f32, f32) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => unsafe { avx2::cosine_terms(a, b) }, // SAFETY: tier checked: detect() verified avx2+fma
        #[cfg(target_arch = "aarch64")]
        KernelTier::Neon => unsafe { neon::cosine_terms(a, b) }, // SAFETY: tier checked: detect() verified neon
        _ => scalar::cosine_terms(a, b),
    }
}

/// Squared Euclidean distance (runtime-dispatched).
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    l2_on(KernelTier::current(), a, b)
}

/// Inner (dot) product (runtime-dispatched).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_on(KernelTier::current(), a, b)
}

/// Fused cosine terms `(a·b, ‖a‖², ‖b‖²)` in one pass (runtime-dispatched).
#[inline]
pub fn cosine_terms(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
    cosine_terms_on(KernelTier::current(), a, b)
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine distance `1 - cos(a,b)`, computed in a single fused pass. Zero
/// vectors are treated as maximally distant (distance 1.0) rather than NaN.
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let (ab, na2, nb2) = cosine_terms(a, b);
    cosine_from(ab, na2.sqrt(), nb2)
}

/// Cosine distance from `a·b`, `‖a‖` and `‖b‖²`: the one formula every
/// cosine path ends in (`na == 0` exactly when `‖a‖² == 0`).
#[inline(always)]
fn cosine_from(ab: f32, na: f32, nb2: f32) -> f32 {
    if na == 0.0 || nb2 == 0.0 {
        1.0
    } else {
        1.0 - ab / (na * nb2.sqrt())
    }
}

/// Normalize a vector in place to unit length; zero vectors are left as-is.
pub fn normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

// ------------------------------------------------------------------- batch

/// Rows one kernel call scores on the AVX2 tier.
const ROW_GROUP: usize = 4;

/// Rows ahead of the group being scored whose cache lines the listed form
/// requests: the group after next.
const GATHER_PREFETCH_ROWS: usize = 2 * ROW_GROUP;

/// Request row `row` of a row-major block toward L1. No-op off `x86_64`.
#[inline]
fn prefetch_row(block: &[f32], dim: usize, row: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // `wrapping_add`: the address is only a hint, never dereferenced.
        let start = block.as_ptr().wrapping_add(row.wrapping_mul(dim)).cast::<i8>();
        for line in 0..(dim * 4).div_ceil(64) {
            // SAFETY: prefetch is a hint; it does not access memory
            // architecturally and cannot fault whatever the address.
            unsafe { _mm_prefetch(start.wrapping_add(line * 64), _MM_HINT_T0) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (block, dim, row);
    }
}

/// The one blocked loop behind [`distance_batch`] and [`distance_gather`]:
/// `out[i]` = the distance from `query` to `row(i)`, with `prefetch(i)`
/// called before the group starting at slot `i` is scored.
///
/// The tier and metric are resolved once per call; rows go to the kernel
/// [`ROW_GROUP`] at a time. On AVX2 one call scores all four
/// (`avx2::*_x4`), each row keeping the accumulator split, horizontal sum
/// and in-order tail of the one-row kernel, so every distance has the bits
/// `l2_sq` / `dot` / `cosine_terms` give it: the four rows only add
/// independent FMA chains. NEON and scalar call their one-row kernels four
/// times. Cosine ends in [`cosine_from`] with the caller's query norm `na`.
fn score_rows<'b>(
    tier: KernelTier,
    metric: Metric,
    query: &[f32],
    na: f32,
    row: impl Fn(usize) -> &'b [f32],
    prefetch: impl Fn(usize),
    out: &mut [f32],
) {
    match (tier, metric) {
        #[cfg(target_arch = "x86_64")]
        (KernelTier::Avx2, Metric::L2) => for_groups(out, &row, &prefetch, |rows| {
            // SAFETY: tier checked: detect() verified avx2+fma
            unsafe { avx2::l2_sq_x4(query, rows) }
        }),
        #[cfg(target_arch = "x86_64")]
        (KernelTier::Avx2, Metric::InnerProduct) => for_groups(out, &row, &prefetch, |rows| {
            // SAFETY: tier checked: detect() verified avx2+fma
            unsafe { avx2::dot_x4(query, rows) }.map(|d| -d)
        }),
        #[cfg(target_arch = "x86_64")]
        (KernelTier::Avx2, Metric::Cosine) => for_groups(out, &row, &prefetch, |rows| {
            // SAFETY: tier checked: detect() verified avx2+fma
            let (ab, nb2) = unsafe { avx2::cosine_terms_x4(query, rows) };
            std::array::from_fn(|j| cosine_from(ab[j], na, nb2[j]))
        }),
        (_, Metric::L2) => {
            for_groups(out, &row, &prefetch, |rows| rows.map(|r| l2_on(tier, query, r)))
        }
        (_, Metric::InnerProduct) => {
            for_groups(out, &row, &prefetch, |rows| rows.map(|r| -dot_on(tier, query, r)))
        }
        (_, Metric::Cosine) => for_groups(out, &row, &prefetch, |rows| {
            rows.map(|r| {
                let (ab, _, nb2) = cosine_terms_on(tier, query, r);
                cosine_from(ab, na, nb2)
            })
        }),
    }
}

/// `out`, [`ROW_GROUP`] slots at a time: `prefetch(first)`, then one
/// `kernel` call on the group's rows. A short last group repeats its last
/// row and drops the extra results.
#[inline(always)]
fn for_groups<'b>(
    out: &mut [f32],
    row: &impl Fn(usize) -> &'b [f32],
    prefetch: &impl Fn(usize),
    mut kernel: impl FnMut([&'b [f32]; ROW_GROUP]) -> [f32; ROW_GROUP],
) {
    let n = out.len();
    let whole = n - n % ROW_GROUP;
    let (groups, rest) = out.split_at_mut(whole);
    for (g, slots) in groups.chunks_exact_mut(ROW_GROUP).enumerate() {
        let first = g * ROW_GROUP;
        prefetch(first);
        slots.copy_from_slice(&kernel(std::array::from_fn(|j| row(first + j))));
    }
    if !rest.is_empty() {
        let d = kernel(std::array::from_fn(|j| row((whole + j).min(n - 1))));
        rest.copy_from_slice(&d[..rest.len()]);
    }
}

/// Distances from `query` to every row of a contiguous row-major `block`,
/// written into `out` (one slot per row).
///
/// This is the preferred shape for exhaustive scans: the tier dispatch
/// happens once per block instead of once per row, the query stays hot in
/// registers/L1, and the block is walked sequentially (prefetch-friendly).
/// Each distance has the bits of the tier's one-row kernel; for
/// [`Metric::Cosine`] the query norm is computed once for the whole block
/// (`dot(query, query)`, which may differ from the fused kernel's `‖a‖²` in
/// the last place).
///
/// Errors with [`BhError::InvalidArgument`] on any shape mismatch — no
/// silent truncation.
pub fn distance_batch(
    metric: Metric,
    query: &[f32],
    block: &[f32],
    dim: usize,
    out: &mut [f32],
) -> Result<()> {
    batch_on(KernelTier::current(), metric, query, block, dim, out)
}

fn batch_on(
    tier: KernelTier,
    metric: Metric,
    query: &[f32],
    block: &[f32],
    dim: usize,
    out: &mut [f32],
) -> Result<()> {
    if dim == 0 {
        return Err(BhError::InvalidArgument("distance_batch: dim must be > 0".into()));
    }
    if query.len() != dim {
        return Err(BhError::InvalidArgument(format!(
            "distance_batch: query len {} != dim {dim}",
            query.len()
        )));
    }
    // One multiply, not a division: callers as small as one k-means
    // assignment pay this per call.
    if out.len().checked_mul(dim) != Some(block.len()) {
        return Err(BhError::InvalidArgument(format!(
            "distance_batch: block len {} is not {} rows (out len) of dim {dim}",
            block.len(),
            out.len()
        )));
    }
    // Cosine's query norm once per block, not once per row.
    let na = if metric == Metric::Cosine { dot_on(tier, query, query).sqrt() } else { 0.0 };
    score_rows(tier, metric, query, na, |i| &block[i * dim..(i + 1) * dim], |_| {}, out);
    Ok(())
}

/// Distances from `query` to the rows of a row-major `block` listed in
/// `rows`, written into `out` in list order: the filtered form of
/// [`distance_batch`] (Plan A behind a selective predicate).
///
/// The same blocked loop, with the rows two groups ahead prefetched while
/// the current group is scored — selected rows are scattered, so without it
/// every group waits out a memory latency the sequential scan never sees.
/// Cosine takes the query's `‖a‖²` from the fused kernel, so every distance
/// is bit-equal to [`Metric::distance`]'s on every metric.
///
/// Errors with [`BhError::InvalidArgument`] on any shape mismatch, a listed
/// row beyond the block included.
pub fn distance_gather(
    metric: Metric,
    query: &[f32],
    block: &[f32],
    dim: usize,
    rows: &[u32],
    out: &mut [f32],
) -> Result<()> {
    gather_on(KernelTier::current(), metric, query, block, dim, rows, out)
}

fn gather_on(
    tier: KernelTier,
    metric: Metric,
    query: &[f32],
    block: &[f32],
    dim: usize,
    rows: &[u32],
    out: &mut [f32],
) -> Result<()> {
    if dim == 0 || query.len() != dim || out.len() != rows.len() {
        return Err(BhError::InvalidArgument(format!(
            "distance_gather: query len {} / dim {dim}, {} rows into {} slots",
            query.len(),
            rows.len(),
            out.len()
        )));
    }
    let in_block = block.len() / dim;
    if let Some(&r) = rows.iter().find(|&&r| r as usize >= in_block) {
        return Err(BhError::InvalidArgument(format!(
            "distance_gather: row {r} beyond a block of {in_block} rows"
        )));
    }
    // `‖query‖²` as the fused kernel computes it beside every row: it
    // depends on the query alone, so this is the per-row value exactly.
    let na = if metric == Metric::Cosine {
        cosine_terms_on(tier, query, query).1.sqrt()
    } else {
        0.0
    };
    let row = |i: usize| {
        let r = rows[i] as usize;
        &block[r * dim..(r + 1) * dim]
    };
    // Listed rows are scattered: request the group after next.
    let prefetch = |first: usize| {
        let ahead = rows.get(first + GATHER_PREFETCH_ROWS..).unwrap_or_default();
        for &r in ahead.iter().take(ROW_GROUP) {
            prefetch_row(block, dim, r as usize);
        }
    };
    score_rows(tier, metric, query, na, row, prefetch, out);
    Ok(())
}

/// Rows per kernel call of [`scan_distances`]: large enough to amortize the
/// tier dispatch, small enough that a block of distances stays in L1.
const SCAN_BLOCK_ROWS: usize = 256;

/// Exact distances from `query` to the rows of a row-major `block`, handed
/// to `visit(row, distance)` in order: every row when `rows` is `None`, else
/// the listed ones in list order. The one blocked loop behind FLAT, the
/// worker's raw-column scan and refine: [`distance_batch`] /
/// [`distance_gather`] over 256 rows at a time. The listed form returns
/// [`Metric::distance`]'s bits on every metric; the all-rows form hoists
/// cosine's query norm as `distance_batch` does and may differ from the
/// per-row form in the last place. The rows scored are tallied, once, as
/// `rows_scanned` of the statement the thread is working for.
pub fn scan_distances(
    metric: Metric,
    query: &[f32],
    block: &[f32],
    dim: usize,
    rows: Option<&[u32]>,
    mut visit: impl FnMut(usize, f32),
) -> Result<()> {
    if dim == 0 {
        return Err(BhError::InvalidArgument("scan_distances: dim must be > 0".into()));
    }
    let mut out = [0.0f32; SCAN_BLOCK_ROWS];
    match rows {
        None => {
            for (b, chunk) in block.chunks(SCAN_BLOCK_ROWS * dim).enumerate() {
                let out = &mut out[..chunk.len() / dim];
                distance_batch(metric, query, chunk, dim, out)?;
                for (r, &d) in out.iter().enumerate() {
                    visit(b * SCAN_BLOCK_ROWS + r, d);
                }
            }
        }
        Some(rows) => {
            for chunk in rows.chunks(SCAN_BLOCK_ROWS) {
                let out = &mut out[..chunk.len()];
                distance_gather(metric, query, block, dim, chunk, out)?;
                for (&row, &d) in chunk.iter().zip(out.iter()) {
                    visit(row as usize, d);
                }
            }
        }
    }
    let scored = rows.map_or(block.len() / dim, <[u32]>::len);
    QueryCtx::with(|c| c.tally.rows_scanned.add(scored as u64));
    Ok(())
}

// ---------------------------------------------------------------- codebook

/// Dimensionalities below this take [`Codebook`]'s dimension-major kernels:
/// it is the width of the narrowest vector step of a row kernel (AVX2 and
/// the scalar tier's lanes), so below it `l2_sq`/`dot` are a plain
/// in-order loop whose bits the column kernels reproduce.
const COLUMN_DIMS: usize = 8;

/// Columns are padded to a multiple of this many vectors, so every tier
/// loads whole registers.
const COLUMN_LANES: usize = 8;

/// `k` vectors of one dimensionality laid out to answer "one query against
/// all of them" and "each of them against a set of centroids": the k-means
/// seeding and Lloyd assignment of [`crate::kmeans::train_kmeans_on`], PQ
/// encoding and the per-query ADC table.
///
/// For `dim < 8` the vectors are copied **dimension-major** — `dim` columns
/// of `k` values, each padded to a multiple of eight — so the `k` vectors
/// occupy SIMD lanes and one dimension costs one broadcast, subtract,
/// multiply and add for eight of them. Each lane's sum runs in dimension
/// order from `+0.0` with separate multiply and add, which is exactly what
/// [`l2_sq`] and [`dot`] do below their vector width on the AVX2 and scalar
/// tiers: the results are bit-identical to the per-row calls (NEON's row
/// kernels take a 4-wide step from `dim` 4, so there the columns match
/// `scalar::*` and may differ from `neon::*` in the last ulp for dims 4–7).
/// For `dim >= 8` the block is borrowed as it is and [`distance_batch`]
/// serves it. Callers do not choose.
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook<'a> {
    dim: usize,
    k: usize,
    /// `dim < 8`: `dim` columns of [`Self::stride`] values, tails padded
    /// with `+inf`. Otherwise the caller's row-major `k × dim` block.
    data: Cow<'a, [f32]>,
}

impl<'a> Codebook<'a> {
    /// Lay out the `rows.len() / dim` row-major vectors of `rows`.
    pub fn new(rows: &'a [f32], dim: usize) -> Result<Codebook<'a>> {
        if dim == 0 || rows.is_empty() || !rows.len().is_multiple_of(dim) {
            return Err(BhError::InvalidArgument(format!(
                "codebook: {} values are not a non-empty block of dim {dim}",
                rows.len()
            )));
        }
        let k = rows.len() / dim;
        if dim >= COLUMN_DIMS {
            return Ok(Codebook { dim, k, data: Cow::Borrowed(rows) });
        }
        let stride = k.next_multiple_of(COLUMN_LANES);
        // `+inf` padding: a padded lane's L2 distance to a finite query is
        // `+inf`, which loses every tie against a real, lower-indexed lane.
        let mut cols = vec![f32::INFINITY; dim * stride];
        for (c, row) in rows.chunks_exact(dim).enumerate() {
            for (d, &x) in row.iter().enumerate() {
                cols[d * stride + c] = x;
            }
        }
        Ok(Codebook { dim, k, data: Cow::Owned(cols) })
    }

    /// Detach from the borrowed block (copies it when `dim >= 8`).
    pub fn into_owned(self) -> Codebook<'static> {
        Codebook { dim: self.dim, k: self.k, data: Cow::Owned(self.data.into_owned()) }
    }

    /// Number of vectors.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Bytes held (or borrowed) by the layout.
    pub fn memory_usage(&self) -> usize {
        self.data.len() * 4
    }

    /// Whether the vectors are laid out dimension-major (`dim < 8`).
    pub(crate) fn columnar(&self) -> bool {
        self.dim < COLUMN_DIMS
    }

    fn stride(&self) -> usize {
        self.k.next_multiple_of(COLUMN_LANES)
    }

    /// Append vector `c` to `out`.
    pub fn extend_row(&self, c: usize, out: &mut Vec<f32>) {
        if self.columnar() {
            let stride = self.stride();
            out.extend((0..self.dim).map(|d| self.data[d * stride + c]));
        } else {
            out.extend_from_slice(&self.data[c * self.dim..(c + 1) * self.dim]);
        }
    }

    /// Vectors `first..first + len` exist, and in the column layout they
    /// start a register: `first` is a multiple of eight.
    #[inline]
    fn check_range(&self, first: usize, len: usize) -> Result<()> {
        let fits = first.checked_add(len).is_some_and(|end| end <= self.k);
        if !fits || (self.columnar() && !first.is_multiple_of(COLUMN_LANES)) {
            return Err(BhError::InvalidArgument(format!(
                "codebook: vectors {first}..+{len} of {} (column layouts start at multiples of \
                 {COLUMN_LANES})",
                self.k
            )));
        }
        Ok(())
    }

    /// `out[i] = l2_sq(query, vector first + i)` for every slot of `out`;
    /// `first` must be a multiple of eight when `dim < 8`.
    #[inline]
    pub fn l2_to_range(&self, query: &[f32], first: usize, out: &mut [f32]) -> Result<()> {
        self.to_range::<false>(KernelTier::current(), query, first, out)
    }

    /// `out[c] = -dot(query, vector c)` for every vector — the
    /// [`Metric::InnerProduct`] form of [`distance_batch`].
    #[inline]
    pub fn neg_dot_to_all(&self, query: &[f32], out: &mut [f32]) -> Result<()> {
        if out.len() != self.k {
            return Err(BhError::InvalidArgument(format!(
                "codebook: out len {} for {} vectors",
                out.len(),
                self.k
            )));
        }
        self.to_range::<true>(KernelTier::current(), query, 0, out)
    }

    #[inline]
    fn to_range<const DOT: bool>(
        &self,
        tier: KernelTier,
        query: &[f32],
        first: usize,
        out: &mut [f32],
    ) -> Result<()> {
        self.check_range(first, out.len())?;
        if !self.columnar() {
            let metric = if DOT { Metric::InnerProduct } else { Metric::L2 };
            let rows = &self.data[first * self.dim..(first + out.len()) * self.dim];
            return batch_on(tier, metric, query, rows, self.dim, out);
        }
        if query.len() != self.dim {
            return Err(BhError::InvalidArgument(format!(
                "codebook: query len {} for vectors of dim {}",
                query.len(),
                self.dim
            )));
        }
        // Columns stay `stride` apart; lane 0 of the slice is vector `first`.
        let (cols, stride) = (&self.data[first..], self.stride());
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: tier checked: detect() verified avx2; `cols` holds
            // `dim` columns `stride` apart, each with the `out.len()`
            // values rounded up to eight that `first + out.len() <= k <=
            // stride` leaves after `first`, a multiple of eight.
            KernelTier::Avx2 => unsafe { avx2::columns_to_all::<DOT>(query, cols, stride, out) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: tier checked: detect() verified neon; the shapes as
            // for AVX2 above.
            KernelTier::Neon => unsafe { neon::columns_to_all::<DOT>(query, cols, stride, out) },
            _ => scalar::columns_to_all::<DOT>(query, cols, stride, out),
        }
        Ok(())
    }

    /// For vectors `first..first + out.len()` of this layout (the points),
    /// the index and squared-L2 distance of the nearest vector of
    /// `centroids`: the answer of a `d[c] < d[best]` scan from centroid 0
    /// over the distances `centroids` gives the point (its
    /// `l2_to_range(point, 0, ..)`), bit for bit, a NaN distance included.
    /// `first` is a multiple of eight when `dim < 8`.
    ///
    /// Below the SIMD width the points are the lanes: one AVX2 call scores
    /// eight of them against every centroid, broadcast one value at a time,
    /// in the column kernel's per-lane op order (`+0.0`, dimensions in
    /// order, point minus centroid, separate multiply and add), and keeps a
    /// per-lane running minimum with a strict `<`. The scalar and NEON
    /// tiers run the same loop one lane at a time. From `dim` 8 each point
    /// is one [`distance_batch`] over the centroid block and a first-lowest
    /// scan.
    pub fn nearest_in(
        &self,
        centroids: &Codebook<'_>,
        first: usize,
        out: &mut [(u32, f32)],
    ) -> Result<()> {
        self.nearest_in_on(KernelTier::current(), centroids, first, out)
    }

    fn nearest_in_on(
        &self,
        tier: KernelTier,
        centroids: &Codebook<'_>,
        first: usize,
        out: &mut [(u32, f32)],
    ) -> Result<()> {
        self.check_range(first, out.len())?;
        if centroids.dim != self.dim || centroids.k > i32::MAX as usize {
            return Err(BhError::InvalidArgument(format!(
                "codebook: {} centroids of dim {} for points of dim {}",
                centroids.k, centroids.dim, self.dim
            )));
        }
        let dim = self.dim;
        if !self.columnar() {
            let mut dists = vec![0.0f32; centroids.k];
            for (i, slot) in out.iter_mut().enumerate() {
                let p = &self.data[(first + i) * dim..(first + i + 1) * dim];
                batch_on(tier, Metric::L2, p, &centroids.data, dim, &mut dists)?;
                let (c, d) = first_lowest(&dists);
                *slot = (c as u32, d);
            }
            return Ok(());
        }
        let points = &self.data[first..];
        let (pstride, cstride) = (self.stride(), centroids.stride());
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: tier checked: detect() verified avx2; `points` holds
            // `dim` columns `pstride` apart with the `out.len()` values
            // rounded up to eight after `first` (a multiple of eight, as
            // `pstride` is), `centroids.data` `dim` columns `cstride` apart
            // of at least `centroids.k` values.
            KernelTier::Avx2 => unsafe {
                avx2::slab_nearest(dim, points, pstride, &centroids.data, cstride, centroids.k, out)
            },
            _ => {
                let (cents, k) = (&centroids.data[..], centroids.k);
                scalar::slab_nearest(dim, points, pstride, cents, cstride, k, out)
            }
        }
        Ok(())
    }
}

/// Index and value of the first lowest of `d`: the answer of a
/// `d[c] < d[best]` scan from index 0, NaN included. The running minimum
/// is kept in a register, so no step waits on the previous step's load.
///
/// # Panics
/// If `d` is empty.
#[inline]
pub(crate) fn first_lowest(d: &[f32]) -> (usize, f32) {
    let (mut best, mut best_d) = (0, d[0]);
    for (c, &x) in d.iter().enumerate().skip(1) {
        if x < best_d {
            (best, best_d) = (c, x);
        }
    }
    (best, best_d)
}

// ------------------------------------------------------------------ scalar

/// Auto-vectorized scalar reference kernels. Public so benchmarks and parity
/// tests can compare the dispatched tiers against this baseline.
pub mod scalar {
    const LANES: usize = 8;

    /// Squared Euclidean distance.
    #[inline]
    pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let chunks = n / LANES;
        let mut acc = [0.0f32; LANES];
        for c in 0..chunks {
            let base = c * LANES;
            for l in 0..LANES {
                let d = a[base + l] - b[base + l];
                acc[l] += d * d;
            }
        }
        let mut sum: f32 = acc.iter().sum();
        for i in chunks * LANES..n {
            let d = a[i] - b[i];
            sum += d * d;
        }
        sum
    }

    /// Inner (dot) product.
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let chunks = n / LANES;
        let mut acc = [0.0f32; LANES];
        for c in 0..chunks {
            let base = c * LANES;
            for l in 0..LANES {
                acc[l] += a[base + l] * b[base + l];
            }
        }
        let mut sum: f32 = acc.iter().sum();
        for i in chunks * LANES..n {
            sum += a[i] * b[i];
        }
        sum
    }

    /// One-pass `(a·b, ‖a‖², ‖b‖²)`.
    #[inline]
    pub fn cosine_terms(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let chunks = n / LANES;
        let mut acc_ab = [0.0f32; LANES];
        let mut acc_aa = [0.0f32; LANES];
        let mut acc_bb = [0.0f32; LANES];
        for c in 0..chunks {
            let base = c * LANES;
            for l in 0..LANES {
                let (x, y) = (a[base + l], b[base + l]);
                acc_ab[l] += x * y;
                acc_aa[l] += x * x;
                acc_bb[l] += y * y;
            }
        }
        let mut ab: f32 = acc_ab.iter().sum();
        let mut aa: f32 = acc_aa.iter().sum();
        let mut bb: f32 = acc_bb.iter().sum();
        for i in chunks * LANES..n {
            let (x, y) = (a[i], b[i]);
            ab += x * y;
            aa += x * x;
            bb += y * y;
        }
        (ab, aa, bb)
    }

    /// Column form of [`l2_sq`] (`DOT` = false) or negated [`dot`] for
    /// `query.len() < 8`: `out[c]` accumulates dimension by dimension, as
    /// the tail loops above do, over `query.len()` columns of `stride`
    /// values. Eight lanes at a time so the loop vectorizes.
    pub(super) fn columns_to_all<const DOT: bool>(
        query: &[f32],
        cols: &[f32],
        stride: usize,
        out: &mut [f32],
    ) {
        // Columns are padded to whole chunks of this width.
        const LANES: usize = super::COLUMN_LANES;
        for (j, chunk) in out.chunks_mut(LANES).enumerate() {
            let mut acc = [0.0f32; LANES];
            for (d, &q) in query.iter().enumerate() {
                let col = &cols[d * stride + j * LANES..][..LANES];
                for l in 0..LANES {
                    if DOT {
                        acc[l] += q * col[l];
                    } else {
                        let t = q - col[l];
                        acc[l] += t * t;
                    }
                }
            }
            for (slot, a) in chunk.iter_mut().zip(acc) {
                *slot = if DOT { -a } else { a };
            }
        }
    }

    /// [`super::Codebook::nearest_in`] below the SIMD width, one point at a
    /// time: point `i` is lane `i` of the `dim` columns of `points`
    /// (`pstride` apart), centroid `c` lane `c` of those of `cents`
    /// (`cstride` apart). Each distance takes the column kernel's op order;
    /// a strict `<` from centroid 0 keeps the first lowest.
    pub(super) fn slab_nearest(
        dim: usize,
        points: &[f32],
        pstride: usize,
        cents: &[f32],
        cstride: usize,
        k: usize,
        out: &mut [(u32, f32)],
    ) {
        for (i, slot) in out.iter_mut().enumerate() {
            let dist = |c: usize| {
                let mut acc = 0.0f32;
                for d in 0..dim {
                    let t = points[d * pstride + i] - cents[d * cstride + c];
                    acc += t * t;
                }
                acc
            };
            let (mut best, mut best_d) = (0, dist(0));
            for c in 1..k {
                let x = dist(c);
                if x < best_d {
                    (best, best_d) = (c, x);
                }
            }
            *slot = (best as u32, best_d);
        }
    }

    /// Three-pass cosine distance kept as the parity oracle for the fused
    /// kernels (tests only reference it).
    #[inline]
    pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
        let na = dot(a, a).sqrt();
        let nb = dot(b, b).sqrt();
        if na == 0.0 || nb == 0.0 {
            return 1.0;
        }
        1.0 - dot(a, b) / (na * nb)
    }
}

// ------------------------------------------------------------------- avx2

/// AVX2+FMA kernels. 8-wide, unrolled ×2 (two independent accumulators) so
/// back-to-back FMAs from different chains overlap.
///
/// # Safety
/// Callers must ensure the CPU supports AVX2 and FMA
/// ([`KernelTier::current`] gates every dispatch site).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Horizontal sum of all 8 lanes.
    ///
    /// # Safety
    /// Requires AVX2 (the enclosing kernels enable it).
    #[inline]
    unsafe fn hsum(v: __m256) -> f32 {
        // SAFETY: lane-shuffle/add intrinsics only touch the value `v`;
        // the fn contract guarantees AVX2 is available.
        unsafe {
            let lo = _mm256_castps256_ps128(v);
            let hi = _mm256_extractf128_ps(v, 1);
            let s = _mm_add_ps(lo, hi);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
            _mm_cvtss_f32(s)
        }
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA. Only the common prefix
    /// `min(a.len(), b.len())` is read, via unaligned loads.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: the fn contract guarantees the required CPU features;
        // every load/deref index is < n = min(a.len(), b.len()), and the
        // SIMD loads are the unaligned variants.
        unsafe {
            let n = a.len().min(b.len());
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 16 <= n {
                let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
                let d1 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i + 8)), _mm256_loadu_ps(pb.add(i + 8)));
                acc0 = _mm256_fmadd_ps(d0, d0, acc0);
                acc1 = _mm256_fmadd_ps(d1, d1, acc1);
                i += 16;
            }
            if i + 8 <= n {
                let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
                acc0 = _mm256_fmadd_ps(d, d, acc0);
                i += 8;
            }
            let mut sum = hsum(_mm256_add_ps(acc0, acc1));
            while i < n {
                let d = *pa.add(i) - *pb.add(i);
                sum += d * d;
                i += 1;
            }
            sum
        }
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA. Only the common prefix
    /// `min(a.len(), b.len())` is read, via unaligned loads.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: the fn contract guarantees the required CPU features;
        // every load/deref index is < n = min(a.len(), b.len()), and the
        // SIMD loads are the unaligned variants.
        unsafe {
            let n = a.len().min(b.len());
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 16 <= n {
                acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(pa.add(i + 8)),
                    _mm256_loadu_ps(pb.add(i + 8)),
                    acc1,
                );
                i += 16;
            }
            if i + 8 <= n {
                acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
                i += 8;
            }
            let mut sum = hsum(_mm256_add_ps(acc0, acc1));
            while i < n {
                sum += *pa.add(i) * *pb.add(i);
                i += 1;
            }
            sum
        }
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA. Only the common prefix
    /// `min(a.len(), b.len())` is read, via unaligned loads.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn cosine_terms(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
        // SAFETY: the fn contract guarantees the required CPU features;
        // every load/deref index is < n = min(a.len(), b.len()), and the
        // SIMD loads are the unaligned variants.
        unsafe {
            let n = a.len().min(b.len());
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc_ab = _mm256_setzero_ps();
            let mut acc_aa = _mm256_setzero_ps();
            let mut acc_bb = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 8 <= n {
                let va = _mm256_loadu_ps(pa.add(i));
                let vb = _mm256_loadu_ps(pb.add(i));
                acc_ab = _mm256_fmadd_ps(va, vb, acc_ab);
                acc_aa = _mm256_fmadd_ps(va, va, acc_aa);
                acc_bb = _mm256_fmadd_ps(vb, vb, acc_bb);
                i += 8;
            }
            let mut ab = hsum(acc_ab);
            let mut aa = hsum(acc_aa);
            let mut bb = hsum(acc_bb);
            while i < n {
                let (x, y) = (*pa.add(i), *pb.add(i));
                ab += x * y;
                aa += x * x;
                bb += y * y;
                i += 1;
            }
            (ab, aa, bb)
        }
    }

    /// [`hsum`] of four vectors at once: lane `r` of the result is
    /// `hsum(v[r])` bit for bit. `hsum` adds `s_i = v_i + v_{i+4}`, then
    /// `(s_0 + s_2) + (s_1 + s_3)`; this does the same adds on transposed
    /// operands, so each row's sum is rounded in the same order.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum4(v: [__m256; 4]) -> [f32; 4] {
        // SAFETY: lane-shuffle/add intrinsics only touch the values `v`; the
        // store is into a local array of four floats; the fn contract
        // guarantees AVX2 is available.
        unsafe {
            // [s(v0) | s(v1)] and [s(v2) | s(v3)].
            let s01 = _mm256_add_ps(
                _mm256_permute2f128_ps::<0x20>(v[0], v[1]),
                _mm256_permute2f128_ps::<0x31>(v[0], v[1]),
            );
            let s23 = _mm256_add_ps(
                _mm256_permute2f128_ps::<0x20>(v[2], v[3]),
                _mm256_permute2f128_ps::<0x31>(v[2], v[3]),
            );
            // Per half: [s0+s2, t0+t2, s1+s3, t1+t3] of (v0, v2) | (v1, v3).
            let t = _mm256_add_ps(_mm256_unpacklo_ps(s01, s23), _mm256_unpackhi_ps(s01, s23));
            // Lanes 0 and 1 of each half: (s0 + s2) + (s1 + s3).
            let u = _mm256_add_ps(t, _mm256_permute_ps::<0b01_00_11_10>(t));
            let (lo, hi) = (_mm256_castps256_ps128(u), _mm256_extractf128_ps::<1>(u));
            let mut out = [0.0f32; 4];
            _mm_storeu_ps(out.as_mut_ptr(), _mm_unpacklo_ps(lo, hi));
            out
        }
    }

    /// `n` for a four-row kernel: the prefix every row and the query share.
    #[inline(always)]
    fn common_len(q: &[f32], rows: &[&[f32]; 4]) -> usize {
        rows.iter().fold(q.len(), |n, r| n.min(r.len()))
    }

    /// [`l2_sq`] of `q` against four rows at once: eight independent FMA
    /// chains, each row's `acc0` / `acc1`, horizontal sum and tail exactly
    /// as the one-row kernel orders them, so each result has its bits.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA. Only the common prefix of `q` and
    /// all four rows is read, via unaligned loads.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_sq_x4(q: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
        // SAFETY: the fn contract guarantees the required CPU features;
        // every load/deref index is < n, the common prefix, and the SIMD
        // loads are the unaligned variants.
        unsafe {
            let n = common_len(q, &rows);
            let (pq, pr) = (q.as_ptr(), rows.map(<[f32]>::as_ptr));
            let mut acc0 = [_mm256_setzero_ps(); 4];
            let mut acc1 = [_mm256_setzero_ps(); 4];
            let mut i = 0usize;
            while i + 16 <= n {
                let (q0, q1) = (_mm256_loadu_ps(pq.add(i)), _mm256_loadu_ps(pq.add(i + 8)));
                for r in 0..4 {
                    let d0 = _mm256_sub_ps(q0, _mm256_loadu_ps(pr[r].add(i)));
                    let d1 = _mm256_sub_ps(q1, _mm256_loadu_ps(pr[r].add(i + 8)));
                    acc0[r] = _mm256_fmadd_ps(d0, d0, acc0[r]);
                    acc1[r] = _mm256_fmadd_ps(d1, d1, acc1[r]);
                }
                i += 16;
            }
            if i + 8 <= n {
                let q0 = _mm256_loadu_ps(pq.add(i));
                for r in 0..4 {
                    let d = _mm256_sub_ps(q0, _mm256_loadu_ps(pr[r].add(i)));
                    acc0[r] = _mm256_fmadd_ps(d, d, acc0[r]);
                }
                i += 8;
            }
            for (a0, a1) in acc0.iter_mut().zip(acc1) {
                *a0 = _mm256_add_ps(*a0, a1);
            }
            let mut out = hsum4(acc0);
            for (sum, p) in out.iter_mut().zip(pr) {
                for j in i..n {
                    let d = *pq.add(j) - *p.add(j);
                    *sum += d * d;
                }
            }
            out
        }
    }

    /// [`dot`] of `q` against four rows at once, each with the one-row
    /// kernel's bits (see [`l2_sq_x4`]).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA. Only the common prefix of `q` and
    /// all four rows is read, via unaligned loads.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_x4(q: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
        // SAFETY: the fn contract guarantees the required CPU features;
        // every load/deref index is < n, the common prefix, and the SIMD
        // loads are the unaligned variants.
        unsafe {
            let n = common_len(q, &rows);
            let (pq, pr) = (q.as_ptr(), rows.map(<[f32]>::as_ptr));
            let mut acc0 = [_mm256_setzero_ps(); 4];
            let mut acc1 = [_mm256_setzero_ps(); 4];
            let mut i = 0usize;
            while i + 16 <= n {
                let (q0, q1) = (_mm256_loadu_ps(pq.add(i)), _mm256_loadu_ps(pq.add(i + 8)));
                for r in 0..4 {
                    acc0[r] = _mm256_fmadd_ps(q0, _mm256_loadu_ps(pr[r].add(i)), acc0[r]);
                    acc1[r] = _mm256_fmadd_ps(q1, _mm256_loadu_ps(pr[r].add(i + 8)), acc1[r]);
                }
                i += 16;
            }
            if i + 8 <= n {
                let q0 = _mm256_loadu_ps(pq.add(i));
                for r in 0..4 {
                    acc0[r] = _mm256_fmadd_ps(q0, _mm256_loadu_ps(pr[r].add(i)), acc0[r]);
                }
                i += 8;
            }
            for (a0, a1) in acc0.iter_mut().zip(acc1) {
                *a0 = _mm256_add_ps(*a0, a1);
            }
            let mut out = hsum4(acc0);
            for (sum, p) in out.iter_mut().zip(pr) {
                for j in i..n {
                    *sum += *pq.add(j) * *p.add(j);
                }
            }
            out
        }
    }

    /// The `(a·b, ‖b‖²)` terms of [`cosine_terms`] for `q` against four
    /// rows at once, each with the one-row kernel's bits; `‖a‖²` depends on
    /// `q` alone and is the caller's.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA. Only the common prefix of `q` and
    /// all four rows is read, via unaligned loads.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn cosine_terms_x4(q: &[f32], rows: [&[f32]; 4]) -> ([f32; 4], [f32; 4]) {
        // SAFETY: the fn contract guarantees the required CPU features;
        // every load/deref index is < n, the common prefix, and the SIMD
        // loads are the unaligned variants.
        unsafe {
            let n = common_len(q, &rows);
            let (pq, pr) = (q.as_ptr(), rows.map(<[f32]>::as_ptr));
            let mut acc_ab = [_mm256_setzero_ps(); 4];
            let mut acc_bb = [_mm256_setzero_ps(); 4];
            let mut i = 0usize;
            while i + 8 <= n {
                let va = _mm256_loadu_ps(pq.add(i));
                for r in 0..4 {
                    let vb = _mm256_loadu_ps(pr[r].add(i));
                    acc_ab[r] = _mm256_fmadd_ps(va, vb, acc_ab[r]);
                    acc_bb[r] = _mm256_fmadd_ps(vb, vb, acc_bb[r]);
                }
                i += 8;
            }
            let (mut ab, mut bb) = (hsum4(acc_ab), hsum4(acc_bb));
            for r in 0..4 {
                for j in i..n {
                    let (x, y) = (*pq.add(j), *pr[r].add(j));
                    ab[r] += x * y;
                    bb[r] += y * y;
                }
            }
            (ab, bb)
        }
    }

    /// Eight lanes of the column kernel: `acc` starts at `+0.0` and takes
    /// one dimension per step with a separate multiply and add (no FMA, or
    /// the bits would differ from the row kernels' scalar tails). `DIM` is
    /// `query.len()`, a constant so the loop unrolls.
    ///
    /// # Safety
    /// The CPU must support AVX2, `query.len() == DIM`, and `cols` must be
    /// valid for reads of eight floats at `d * stride + j` for `d < DIM`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn column_lanes<const DIM: usize, const DOT: bool>(
        query: &[f32],
        cols: *const f32,
        stride: usize,
        j: usize,
    ) -> __m256 {
        // SAFETY: the fn contract guarantees AVX2, `DIM` readable query
        // values and that every load of eight floats at `d * stride + j`
        // is in bounds; loads are unaligned.
        unsafe {
            let mut acc = _mm256_setzero_ps();
            for d in 0..DIM {
                let q = _mm256_set1_ps(*query.get_unchecked(d));
                let c = _mm256_loadu_ps(cols.add(d * stride + j));
                let t = if DOT {
                    _mm256_mul_ps(q, c)
                } else {
                    let diff = _mm256_sub_ps(q, c);
                    _mm256_mul_ps(diff, diff)
                };
                acc = _mm256_add_ps(acc, t);
            }
            if DOT {
                _mm256_xor_ps(acc, _mm256_set1_ps(-0.0))
            } else {
                acc
            }
        }
    }

    /// # Safety
    /// The CPU must support AVX2; `query.len() == DIM` and `cols` must hold
    /// `DIM` columns `stride` apart, each with `out.len()` rounded up to
    /// eight readable values.
    #[target_feature(enable = "avx2")]
    unsafe fn to_all<const DIM: usize, const DOT: bool>(
        query: &[f32],
        cols: &[f32],
        stride: usize,
        out: &mut [f32],
    ) {
        // SAFETY: the fn contract guarantees AVX2 and the shapes: every
        // chunk start `j < out.len()` leaves eight readable values at
        // `d * stride + j`, so the column loads stay inside `cols`; full
        // chunks store inside `out`, the last partial one goes through a
        // stack buffer.
        unsafe {
            let k = out.len();
            let mut j = 0usize;
            while j + 8 <= k {
                let acc = column_lanes::<DIM, DOT>(query, cols.as_ptr(), stride, j);
                _mm256_storeu_ps(out.as_mut_ptr().add(j), acc);
                j += 8;
            }
            if j < k {
                let mut tail = [0.0f32; 8];
                let acc = column_lanes::<DIM, DOT>(query, cols.as_ptr(), stride, j);
                _mm256_storeu_ps(tail.as_mut_ptr(), acc);
                out[j..].copy_from_slice(&tail[..k - j]);
            }
        }
    }

    /// Squared L2 of the eight points `p` (one per lane, dimension `d` in
    /// `p[d]`) to centroid `c`, broadcast from `cents` one dimension at a
    /// time: the column kernel's op order with the point as the lane.
    ///
    /// # Safety
    /// The CPU must support AVX2 and `cents` must be valid for a read at
    /// `d * cstride + c` for every `d < DIM`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn slab_lanes<const DIM: usize>(
        p: &[__m256; DIM],
        cents: *const f32,
        cstride: usize,
        c: usize,
    ) -> __m256 {
        // SAFETY: the fn contract guarantees AVX2 and the reads.
        unsafe {
            let mut acc = _mm256_setzero_ps();
            for (d, &pd) in p.iter().enumerate() {
                let diff = _mm256_sub_ps(pd, _mm256_broadcast_ss(&*cents.add(d * cstride + c)));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
            }
            acc
        }
    }

    /// `G` registers of eight points starting at point `j`, each lane
    /// scored against centroid 0, 1, … in turn; the first `out.len()` of
    /// the `8 * G` lanes are written to `out`. Per lane the running minimum
    /// and the first centroid that had it: `min_ps(d, best)` is `d < best
    /// ? d : best`, the scan's step, NaN included. The groups share each
    /// broadcast and run independent minimum chains.
    ///
    /// # Safety
    /// The CPU must support AVX2; `points` must hold `DIM` columns
    /// `pstride` apart, each readable for `8 * G` values from `j`, and
    /// `cents` `DIM` columns `cstride` apart of at least `k` values;
    /// `0 < k <= i32::MAX` and `out.len() <= 8 * G`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn slab_groups<const DIM: usize, const G: usize>(
        points: &[f32],
        pstride: usize,
        j: usize,
        cents: &[f32],
        cstride: usize,
        k: usize,
        out: &mut [(u32, f32)],
    ) {
        // SAFETY: the fn contract guarantees AVX2 and the shapes: every
        // point load of eight floats at `d * pstride + j + 8 * g` and every
        // centroid read at `d * cstride + c`, `c < k`, is in bounds. The
        // rest is register arithmetic and stores to stack arrays.
        unsafe {
            let mut p = [[_mm256_setzero_ps(); DIM]; G];
            for (g, pg) in p.iter_mut().enumerate() {
                for (d, pd) in pg.iter_mut().enumerate() {
                    *pd = _mm256_loadu_ps(points.as_ptr().add(d * pstride + j + 8 * g));
                }
            }
            let mut best_d = [_mm256_setzero_ps(); G];
            for (bd, pg) in best_d.iter_mut().zip(&p) {
                *bd = slab_lanes::<DIM>(pg, cents.as_ptr(), cstride, 0);
            }
            let mut best_i = [_mm256_setzero_ps(); G];
            for c in 1..k {
                let idx = _mm256_castsi256_ps(_mm256_set1_epi32(c as i32));
                for g in 0..G {
                    let d = slab_lanes::<DIM>(&p[g], cents.as_ptr(), cstride, c);
                    let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(d, best_d[g]);
                    best_d[g] = _mm256_min_ps(d, best_d[g]);
                    best_i[g] = _mm256_blendv_ps(best_i[g], idx, lt);
                }
            }
            for g in 0..G {
                let (mut bd, mut bi) = ([0.0f32; 8], [0u32; 8]);
                _mm256_storeu_ps(bd.as_mut_ptr(), best_d[g]);
                _mm256_storeu_ps(bi.as_mut_ptr().cast(), best_i[g]);
                for (l, slot) in out.iter_mut().skip(8 * g).take(8).enumerate() {
                    *slot = (bi[l], bd[l]);
                }
            }
        }
    }

    /// # Safety
    /// The CPU must support AVX2; `points` must hold `DIM` columns
    /// `pstride` apart, each with `out.len()` rounded up to eight readable
    /// values, and `cents` `DIM` columns `cstride` apart of at least `k`
    /// values; `0 < k <= i32::MAX`.
    #[target_feature(enable = "avx2")]
    unsafe fn slab<const DIM: usize>(
        points: &[f32],
        pstride: usize,
        cents: &[f32],
        cstride: usize,
        k: usize,
        out: &mut [(u32, f32)],
    ) {
        // SAFETY: the fn contract is the callee's: sixteen points at a
        // time while sixteen remain, then eight (the last possibly short,
        // its loads inside the rounded-up columns).
        unsafe {
            let mut j = 0usize;
            while j + 16 <= out.len() {
                slab_groups::<DIM, 2>(points, pstride, j, cents, cstride, k, &mut out[j..j + 16]);
                j += 16;
            }
            while j < out.len() {
                let end = (j + 8).min(out.len());
                slab_groups::<DIM, 1>(points, pstride, j, cents, cstride, k, &mut out[j..end]);
                j += 8;
            }
        }
    }

    /// `out[c]` = squared L2 (`DOT` = false) or negated dot of `query` and
    /// column `c`, for `query.len() < 8`.
    ///
    /// # Safety
    /// The CPU must support AVX2; `cols` must hold `query.len()` columns
    /// `stride` apart, each with `out.len()` rounded up to eight readable
    /// values.
    #[inline]
    pub unsafe fn columns_to_all<const DOT: bool>(
        query: &[f32],
        cols: &[f32],
        stride: usize,
        out: &mut [f32],
    ) {
        debug_assert!(
            !query.is_empty()
                && cols.len() >= (query.len() - 1) * stride + out.len().next_multiple_of(8)
        );
        // SAFETY: the fn contract is the callees', with `DIM` matched to
        // `query.len()`.
        unsafe {
            match query.len() {
                1 => to_all::<1, DOT>(query, cols, stride, out),
                2 => to_all::<2, DOT>(query, cols, stride, out),
                3 => to_all::<3, DOT>(query, cols, stride, out),
                4 => to_all::<4, DOT>(query, cols, stride, out),
                5 => to_all::<5, DOT>(query, cols, stride, out),
                6 => to_all::<6, DOT>(query, cols, stride, out),
                7 => to_all::<7, DOT>(query, cols, stride, out),
                _ => debug_assert!(false, "column kernels serve dims 1..=7"),
            }
        }
    }

    /// Nearest of `k` centroids for each point, `query.len() < 8`: see
    /// [`slab`].
    ///
    /// # Safety
    /// The CPU must support AVX2; `points` must hold `dim` columns
    /// `pstride` apart, each with `out.len()` rounded up to eight readable
    /// values, and `cents` `dim` columns `cstride` apart of at least `k`
    /// values, `dim` in `1..=7`; `0 < k <= i32::MAX`.
    #[inline]
    pub unsafe fn slab_nearest(
        dim: usize,
        points: &[f32],
        pstride: usize,
        cents: &[f32],
        cstride: usize,
        k: usize,
        out: &mut [(u32, f32)],
    ) {
        debug_assert!(k > 0 && k <= cstride && cents.len() >= dim * cstride);
        // SAFETY: the fn contract is the callees', with `DIM` matched to
        // `dim`.
        unsafe {
            match dim {
                1 => slab::<1>(points, pstride, cents, cstride, k, out),
                2 => slab::<2>(points, pstride, cents, cstride, k, out),
                3 => slab::<3>(points, pstride, cents, cstride, k, out),
                4 => slab::<4>(points, pstride, cents, cstride, k, out),
                5 => slab::<5>(points, pstride, cents, cstride, k, out),
                6 => slab::<6>(points, pstride, cents, cstride, k, out),
                7 => slab::<7>(points, pstride, cents, cstride, k, out),
                _ => debug_assert!(false, "the slab kernel serves dims 1..=7"),
            }
        }
    }
}

// ------------------------------------------------------------------- neon

/// NEON kernels (aarch64 baseline). 4-wide `vfmaq`, unrolled ×4 for the hot
/// `l2_sq`/`dot` pair (16 floats per iteration, four independent accumulator
/// chains hide the 3-4 cycle FMA latency) with ×2/×1 step-down remainders;
/// the three-accumulator `cosine_terms` stays at its natural width.
///
/// # Safety
/// NEON is mandatory on aarch64, but dispatch still goes through
/// [`KernelTier::current`] for uniformity.
#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// # Safety
    /// The CPU must support NEON. Only the common prefix
    /// `min(a.len(), b.len())` is read.
    #[target_feature(enable = "neon")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: the fn contract guarantees the required CPU features;
        // every load/deref index is < n = min(a.len(), b.len()), and the
        // SIMD loads are the unaligned variants.
        unsafe {
            let n = a.len().min(b.len());
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc0 = vdupq_n_f32(0.0);
            let mut acc1 = vdupq_n_f32(0.0);
            let mut acc2 = vdupq_n_f32(0.0);
            let mut acc3 = vdupq_n_f32(0.0);
            let mut i = 0usize;
            while i + 16 <= n {
                let d0 = vsubq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
                let d1 = vsubq_f32(vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
                let d2 = vsubq_f32(vld1q_f32(pa.add(i + 8)), vld1q_f32(pb.add(i + 8)));
                let d3 = vsubq_f32(vld1q_f32(pa.add(i + 12)), vld1q_f32(pb.add(i + 12)));
                acc0 = vfmaq_f32(acc0, d0, d0);
                acc1 = vfmaq_f32(acc1, d1, d1);
                acc2 = vfmaq_f32(acc2, d2, d2);
                acc3 = vfmaq_f32(acc3, d3, d3);
                i += 16;
            }
            if i + 8 <= n {
                let d0 = vsubq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
                let d1 = vsubq_f32(vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
                acc0 = vfmaq_f32(acc0, d0, d0);
                acc1 = vfmaq_f32(acc1, d1, d1);
                i += 8;
            }
            if i + 4 <= n {
                let d = vsubq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
                acc0 = vfmaq_f32(acc0, d, d);
                i += 4;
            }
            let mut sum = vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)));
            while i < n {
                let d = *pa.add(i) - *pb.add(i);
                sum += d * d;
                i += 1;
            }
            sum
        }
    }

    /// # Safety
    /// The CPU must support NEON. Only the common prefix
    /// `min(a.len(), b.len())` is read.
    #[target_feature(enable = "neon")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: the fn contract guarantees the required CPU features;
        // every load/deref index is < n = min(a.len(), b.len()), and the
        // SIMD loads are the unaligned variants.
        unsafe {
            let n = a.len().min(b.len());
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc0 = vdupq_n_f32(0.0);
            let mut acc1 = vdupq_n_f32(0.0);
            let mut acc2 = vdupq_n_f32(0.0);
            let mut acc3 = vdupq_n_f32(0.0);
            let mut i = 0usize;
            while i + 16 <= n {
                acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
                acc1 = vfmaq_f32(acc1, vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
                acc2 = vfmaq_f32(acc2, vld1q_f32(pa.add(i + 8)), vld1q_f32(pb.add(i + 8)));
                acc3 = vfmaq_f32(acc3, vld1q_f32(pa.add(i + 12)), vld1q_f32(pb.add(i + 12)));
                i += 16;
            }
            if i + 8 <= n {
                acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
                acc1 = vfmaq_f32(acc1, vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
                i += 8;
            }
            if i + 4 <= n {
                acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
                i += 4;
            }
            let mut sum = vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)));
            while i < n {
                sum += *pa.add(i) * *pb.add(i);
                i += 1;
            }
            sum
        }
    }

    /// # Safety
    /// The CPU must support NEON. Only the common prefix
    /// `min(a.len(), b.len())` is read.
    #[target_feature(enable = "neon")]
    pub unsafe fn cosine_terms(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
        // SAFETY: the fn contract guarantees the required CPU features;
        // every load/deref index is < n = min(a.len(), b.len()), and the
        // SIMD loads are the unaligned variants.
        unsafe {
            let n = a.len().min(b.len());
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc_ab = vdupq_n_f32(0.0);
            let mut acc_aa = vdupq_n_f32(0.0);
            let mut acc_bb = vdupq_n_f32(0.0);
            let mut i = 0usize;
            while i + 4 <= n {
                let va = vld1q_f32(pa.add(i));
                let vb = vld1q_f32(pb.add(i));
                acc_ab = vfmaq_f32(acc_ab, va, vb);
                acc_aa = vfmaq_f32(acc_aa, va, va);
                acc_bb = vfmaq_f32(acc_bb, vb, vb);
                i += 4;
            }
            let mut ab = vaddvq_f32(acc_ab);
            let mut aa = vaddvq_f32(acc_aa);
            let mut bb = vaddvq_f32(acc_bb);
            while i < n {
                let (x, y) = (*pa.add(i), *pb.add(i));
                ab += x * y;
                aa += x * x;
                bb += y * y;
                i += 1;
            }
            (ab, aa, bb)
        }
    }

    /// Four lanes of the column kernel: `acc` starts at `+0.0` and takes
    /// one dimension per step with a separate multiply and add (no
    /// `vfmaq`, or the bits would differ from the scalar tier's).
    ///
    /// # Safety
    /// The CPU must support NEON, and `cols` must be valid for reads of
    /// four floats at `d * stride + j` for every `d < query.len()`.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn column_lanes<const DOT: bool>(
        query: &[f32],
        cols: *const f32,
        stride: usize,
        j: usize,
    ) -> float32x4_t {
        // SAFETY: the fn contract guarantees NEON and that every load of
        // four floats at `d * stride + j` is in bounds.
        unsafe {
            let mut acc = vdupq_n_f32(0.0);
            for (d, &q) in query.iter().enumerate() {
                let q = vdupq_n_f32(q);
                let c = vld1q_f32(cols.add(d * stride + j));
                let t = if DOT {
                    vmulq_f32(q, c)
                } else {
                    let diff = vsubq_f32(q, c);
                    vmulq_f32(diff, diff)
                };
                acc = vaddq_f32(acc, t);
            }
            if DOT {
                vnegq_f32(acc)
            } else {
                acc
            }
        }
    }

    /// # Safety
    /// The CPU must support NEON; `cols` must hold `query.len()` columns
    /// `stride` apart, each with `out.len()` rounded up to four readable
    /// values.
    #[target_feature(enable = "neon")]
    pub unsafe fn columns_to_all<const DOT: bool>(
        query: &[f32],
        cols: &[f32],
        stride: usize,
        out: &mut [f32],
    ) {
        debug_assert!(
            !query.is_empty()
                && cols.len() >= (query.len() - 1) * stride + out.len().next_multiple_of(4)
        );
        // SAFETY: the fn contract guarantees NEON and the shapes: every
        // chunk start `j < out.len()` leaves four readable values at
        // `d * stride + j`, so the column loads stay inside `cols`; full
        // chunks store inside `out`, the last partial one goes through a
        // stack buffer.
        unsafe {
            let k = out.len();
            let mut j = 0usize;
            while j + 4 <= k {
                let acc = column_lanes::<DOT>(query, cols.as_ptr(), stride, j);
                vst1q_f32(out.as_mut_ptr().add(j), acc);
                j += 4;
            }
            if j < k {
                let mut tail = [0.0f32; 4];
                vst1q_f32(tail.as_mut_ptr(), column_lanes::<DOT>(query, cols.as_ptr(), stride, j));
                out[j..].copy_from_slice(&tail[..k - j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn l2_basic() {
        assert_eq!(l2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l2_sq(&[], &[]), 0.0);
        let a = [1.0; 17]; // exercises the remainder loop
        let b = [2.0; 17];
        assert_eq!(l2_sq(&a, &b), 17.0);
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn cosine_handles_zero_vectors() {
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0);
        assert!((cosine_distance(&[1.0, 0.0], &[1.0, 0.0])).abs() < 1e-6);
        assert!((cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_distance(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn metric_parse_and_sql_names() {
        assert_eq!(Metric::parse("l2").unwrap(), Metric::L2);
        assert_eq!(Metric::parse("CoSiNe").unwrap(), Metric::Cosine);
        assert_eq!(Metric::parse("IP").unwrap(), Metric::InnerProduct);
        assert!(Metric::parse("hamming").is_err());
        assert_eq!(Metric::L2.sql_function(), "L2Distance");
    }

    #[test]
    fn inner_product_is_negated() {
        // Higher dot product must yield smaller distance.
        let q = [1.0, 0.0];
        let near = [1.0, 0.0];
        let far = [0.1, 0.0];
        assert!(Metric::InnerProduct.distance(&q, &near) < Metric::InnerProduct.distance(&q, &far));
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn distance_checked_rejects_mismatch() {
        assert!(Metric::L2.distance_checked(&[1.0, 2.0], &[1.0]).is_err());
        assert_eq!(Metric::L2.distance_checked(&[1.0], &[2.0]).unwrap(), 1.0);
    }

    #[test]
    fn tier_is_stable_and_named() {
        let t = KernelTier::current();
        assert_eq!(t, KernelTier::current());
        assert!(["avx2", "neon", "scalar"].contains(&t.name()));
    }

    /// Every remainder-lane shape from 1 to 257 (covers 8/16-wide main loops
    /// plus tails) must agree with the scalar reference on the dispatched
    /// tier within 1e-3 relative tolerance.
    #[test]
    fn dispatched_matches_scalar_all_remainder_dims() {
        for dim in 1usize..=257 {
            let a: Vec<f32> = (0..dim).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
            let b: Vec<f32> = (0..dim).map(|i| ((i as f32) * 0.53).cos() * 3.0 - 0.5).collect();
            let rel = |x: f32, y: f32| (x - y).abs() / (1.0 + y.abs());
            assert!(
                rel(l2_sq(&a, &b), scalar::l2_sq(&a, &b)) < 1e-3,
                "l2 mismatch at dim {dim}"
            );
            assert!(rel(dot(&a, &b), scalar::dot(&a, &b)) < 1e-3, "dot mismatch at dim {dim}");
            assert!(
                rel(cosine_distance(&a, &b), scalar::cosine_distance(&a, &b)) < 1e-3,
                "cosine mismatch at dim {dim}"
            );
        }
    }

    #[test]
    fn batch_matches_per_row() {
        let dim = 27; // deliberately awkward remainder
        let rows = 19;
        let query: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.11).sin()).collect();
        let block: Vec<f32> = (0..rows * dim).map(|i| (i as f32 * 0.07).cos()).collect();
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let mut out = vec![0.0f32; rows];
            distance_batch(metric, &query, &block, dim, &mut out).unwrap();
            for r in 0..rows {
                let d = metric.distance(&query, &block[r * dim..(r + 1) * dim]);
                assert!(
                    (out[r] - d).abs() < 1e-4 * (1.0 + d.abs()),
                    "{metric:?} row {r}: batch {} vs single {d}",
                    out[r]
                );
            }
        }
    }

    /// The gather kernel returns, on every tier this machine runs, the bits
    /// the per-row call returns — for any order of rows, repeats included.
    #[test]
    fn gather_is_bit_identical_to_per_row_distance() {
        for dim in [1usize, 7, 8, 27, 64, 100] {
            let n = 300;
            let cell = |seed: u64, j: usize| {
                (bh_common::rng::derive_seed(seed, j as u64) >> 40) as f32 / (1u64 << 23) as f32
                    - 1.0
            };
            let query: Vec<f32> = (0..dim).map(|j| cell(1, j)).collect();
            let mut block: Vec<f32> = (0..n * dim).map(|j| cell(2, j)).collect();
            block[..dim].fill(0.0); // a zero row: cosine's special case
            let rows: Vec<u32> = (0..n as u64)
                .map(|j| (bh_common::rng::derive_seed(3, j) % n as u64) as u32)
                .chain([0, 0, n as u32 - 1])
                .collect();
            for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                for tier in runnable_tiers() {
                    let mut out = vec![0.0f32; rows.len()];
                    gather_on(tier, metric, &query, &block, dim, &rows, &mut out).unwrap();
                    for (&r, d) in rows.iter().zip(&out) {
                        let row = &block[r as usize * dim..(r as usize + 1) * dim];
                        let want = if tier == KernelTier::current() {
                            metric.distance(&query, row)
                        } else {
                            match metric {
                                Metric::L2 => scalar::l2_sq(&query, row),
                                Metric::InnerProduct => -scalar::dot(&query, row),
                                // `cosine_distance` as the scalar tier computes it.
                                Metric::Cosine => match scalar::cosine_terms(&query, row) {
                                    (_, na2, nb2) if na2 == 0.0 || nb2 == 0.0 => 1.0,
                                    (ab, na2, nb2) => 1.0 - ab / (na2.sqrt() * nb2.sqrt()),
                                },
                            }
                        };
                        assert_eq!(d.to_bits(), want.to_bits(), "{tier:?} {metric:?} dim {dim}");
                    }
                }
            }
        }
    }

    /// The blocked scan visits every row (or every listed row, repeats and
    /// disorder included) once, in order, across block boundaries, with the
    /// bits of the kernel it is built on.
    #[test]
    fn scan_visits_rows_in_order_with_kernel_bits() {
        let (dim, n) = (7, 2 * SCAN_BLOCK_ROWS + 88);
        let cell = |seed: u64, j: usize| {
            (bh_common::rng::derive_seed(seed, j as u64) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        let query: Vec<f32> = (0..dim).map(|j| cell(4, j)).collect();
        let block: Vec<f32> = (0..n * dim).map(|j| cell(5, j)).collect();
        let listed: Vec<u32> = (0..n as u64 + 40)
            .map(|j| (bh_common::rng::derive_seed(6, j) % n as u64) as u32)
            .collect();
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let mut whole = vec![0.0f32; n];
            distance_batch(metric, &query, &block, dim, &mut whole).unwrap();
            let mut seen = Vec::new();
            scan_distances(metric, &query, &block, dim, None, |r, d| seen.push((r, d.to_bits())))
                .unwrap();
            let want: Vec<_> = whole.iter().map(|d| d.to_bits()).enumerate().collect();
            assert_eq!(seen, want, "{metric:?}, every row");

            seen.clear();
            scan_distances(metric, &query, &block, dim, Some(&listed), |r, d| {
                seen.push((r, d.to_bits()))
            })
            .unwrap();
            let want: Vec<_> = listed
                .iter()
                .map(|&r| {
                    let r = r as usize;
                    (r, metric.distance(&query, &block[r * dim..(r + 1) * dim]).to_bits())
                })
                .collect();
            assert_eq!(seen, want, "{metric:?}, listed rows");
        }
        assert!(scan_distances(Metric::L2, &query, &block, 0, None, |_, _| {}).is_err());
        assert!(scan_distances(Metric::L2, &query, &block[1..], dim, None, |_, _| {}).is_err());
        assert!(
            scan_distances(Metric::L2, &query, &block, dim, Some(&[n as u32]), |_, _| {}).is_err()
        );
    }

    #[test]
    fn gather_rejects_bad_shapes() {
        let (q, block) = ([0.0f32; 4], [0.0f32; 12]);
        let mut out = [0.0f32; 2];
        assert!(distance_gather(Metric::L2, &q, &block, 0, &[0, 1], &mut out).is_err());
        assert!(distance_gather(Metric::L2, &q[..3], &block, 4, &[0, 1], &mut out).is_err());
        assert!(distance_gather(Metric::L2, &q, &block, 4, &[0], &mut out).is_err());
        assert!(distance_gather(Metric::L2, &q, &block, 4, &[0, 3], &mut out).is_err());
        assert!(distance_gather(Metric::L2, &q, &block, 4, &[2, 0], &mut out).is_ok());
    }

    #[test]
    fn batch_rejects_bad_shapes() {
        let q = [0.0f32; 4];
        let block = [0.0f32; 12];
        let mut out = [0.0f32; 3];
        assert!(distance_batch(Metric::L2, &q, &block, 0, &mut out).is_err());
        assert!(distance_batch(Metric::L2, &q[..3], &block, 4, &mut out).is_err());
        assert!(distance_batch(Metric::L2, &q, &block[..11], 4, &mut out).is_err());
        assert!(distance_batch(Metric::L2, &q, &block, 4, &mut out[..2]).is_err());
        assert!(distance_batch(Metric::L2, &q, &block, 4, &mut out).is_ok());
    }

    /// The argmin contract of [`Codebook::nearest_in`] and [`first_lowest`]:
    /// a `d[c] < d[best]` scan from 0.
    fn first_lowest_scan(d: &[f32]) -> usize {
        (1..d.len()).fold(0, |best, c| if d[c] < d[best] { c } else { best })
    }

    /// What the per-row dispatch returned for (`query`, `row`) before the
    /// column kernels: on x86_64 the AVX2 row kernels where the CPU has
    /// them (checked equal to the scalar tier's as well), elsewhere the
    /// scalar tier's.
    fn row_l2_and_dot(query: &[f32], row: &[f32]) -> (f32, f32) {
        let (l2, dp) = (scalar::l2_sq(query, row), scalar::dot(query, row));
        #[cfg(target_arch = "x86_64")]
        if KernelTier::current() == KernelTier::Avx2 {
            // SAFETY: tier checked: detect() verified avx2+fma
            let (vl2, vdp) = unsafe { (avx2::l2_sq(query, row), avx2::dot(query, row)) };
            assert_eq!((vl2.to_bits(), vdp.to_bits()), (l2.to_bits(), dp.to_bits()));
        }
        (l2, dp)
    }

    fn assert_codebook_matches_rows(rows: &[f32], dim: usize, query: &[f32]) {
        let k = rows.len() / dim;
        let book = Codebook::new(rows, dim).unwrap();
        let (want_l2, want_dot): (Vec<f32>, Vec<f32>) =
            rows.chunks_exact(dim).map(|row| row_l2_and_dot(query, row)).unzip();
        let best = first_lowest_scan(&want_l2);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for tier in runnable_tiers() {
            let mut out = vec![0.0f32; k];
            book.to_range::<false>(tier, query, 0, &mut out).unwrap();
            assert_eq!(bits(&out), bits(&want_l2), "{tier:?} l2 dim {dim} k {k}");
            book.to_range::<true>(tier, query, 0, &mut out).unwrap();
            let neg: Vec<f32> = want_dot.iter().map(|x| -x).collect();
            assert_eq!(bits(&out), bits(&neg), "{tier:?} dot dim {dim} k {k}");
            let mut near = [(0u32, 0.0f32)];
            let point = Codebook::new(query, dim).unwrap();
            point.nearest_in_on(tier, &book, 0, &mut near).unwrap();
            let (i, d) = (near[0].0 as usize, near[0].1);
            let want = (best, want_l2[best].to_bits());
            assert_eq!((i, d.to_bits()), want, "{tier:?} dim {dim} k {k}");
        }
    }

    /// Every (dim, k) the column kernels serve, on a seven-point grid where
    /// distinct vectors tie exactly: all chunk counts, tail widths and
    /// padding shapes. (The proptest below draws shapes and magnitudes at
    /// random.)
    #[test]
    fn codebook_matches_row_kernels_at_every_small_shape() {
        let ks: Vec<usize> =
            if cfg!(miri) { vec![1, 7, 8, 9, 16, 17, 255, 256] } else { (1..=256).collect() };
        for dim in 1..COLUMN_DIMS {
            for &k in &ks {
                let seed = (dim * 1_000 + k) as u64;
                let cell = |j: usize| (bh_common::rng::derive_seed(seed, j as u64) % 7) as f32 - 3.0;
                let rows: Vec<f32> = (0..k * dim).map(cell).collect();
                let query: Vec<f32> = (0..dim).map(|d| cell(usize::MAX - d)).collect();
                assert_codebook_matches_rows(&rows, dim, &query);
            }
        }
    }

    #[test]
    fn codebook_orders_nan_and_infinite_distances_like_the_scan() {
        let dim = 3;
        let finite: Vec<f32> = (0..20 * dim).map(|i| (i as f32 * 0.61).sin() * 4.0).collect();
        let query = [0.3f32, -1.2, 2.5];
        // A NaN vector first, among the first eight, and past them; an
        // infinite one; a query that makes every distance NaN or infinite.
        for (poison, at) in [(f32::NAN, 0), (f32::NAN, 3), (f32::NAN, 11), (f32::INFINITY, 2)] {
            let mut rows = finite.clone();
            rows[at * dim + 1] = poison;
            assert_codebook_matches_rows(&rows, dim, &query);
        }
        assert_codebook_matches_rows(&finite, dim, &[f32::NAN, 0.0, 0.0]);
        assert_codebook_matches_rows(&finite, dim, &[f32::INFINITY, 0.0, 0.0]);
        assert_codebook_matches_rows(&finite[..5 * dim], dim, &[f32::MAX, f32::MAX, -f32::MAX]);
    }

    #[test]
    fn codebook_at_the_simd_width_is_the_batched_row_kernel() {
        let (dim, k) = (8, 37);
        let rows: Vec<f32> = (0..k * dim).map(|i| (i as f32 * 0.29).cos() * 2.0).collect();
        let query: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).sin()).collect();
        let book = Codebook::new(&rows, dim).unwrap();
        let mut want = vec![0.0f32; k];
        let mut got = vec![0.0f32; k];
        for (metric, dot) in [(Metric::L2, false), (Metric::InnerProduct, true)] {
            distance_batch(metric, &query, &rows, dim, &mut want).unwrap();
            if dot {
                book.neg_dot_to_all(&query, &mut got).unwrap();
            } else {
                book.l2_to_range(&query, 0, &mut got).unwrap();
            }
            assert_eq!(got, want);
        }
        let best = first_lowest_scan(&want_l2(&query, &rows, dim));
        let mut near = [(0u32, 0.0f32)];
        Codebook::new(&query, dim).unwrap().nearest_in(&book, 0, &mut near).unwrap();
        assert_eq!(near[0].0 as usize, best);
        let mut row = Vec::new();
        book.extend_row(5, &mut row);
        assert_eq!(row, rows[5 * dim..6 * dim]);
    }

    fn want_l2(query: &[f32], rows: &[f32], dim: usize) -> Vec<f32> {
        rows.chunks_exact(dim).map(|row| l2_sq(query, row)).collect()
    }

    #[test]
    fn codebook_rejects_bad_shapes() {
        assert!(Codebook::new(&[], 4).is_err());
        assert!(Codebook::new(&[0.0; 7], 4).is_err());
        assert!(Codebook::new(&[0.0; 8], 0).is_err());
        for dim in [4, 8] {
            let rows = vec![0.0f32; 3 * dim];
            let book = Codebook::new(&rows, dim).unwrap();
            let mut out = [0.0f32; 3];
            assert!(book.l2_to_range(&rows[..dim - 1], 0, &mut out).is_err());
            assert!(book.l2_to_range(&rows[..dim], 1, &mut out).is_err());
            assert!(book.l2_to_range(&rows[..dim], 0, &mut [0.0; 4]).is_err());
            assert!(book.neg_dot_to_all(&rows[..dim], &mut out[..2]).is_err());
            let other = Codebook::new(&rows[..dim + 1], dim + 1).unwrap();
            assert!(book.nearest_in(&other, 0, &mut [(0, 0.0); 3]).is_err());
            assert!(book.nearest_in(&book, 0, &mut [(0, 0.0); 4]).is_err());
            assert!(book.l2_to_range(&rows[..dim], 0, &mut out).is_ok());
        }
    }

    /// The scan the slab kernel replaces: point `i` of `points` against
    /// every centroid by the column kernel of `tier`, then the first lowest.
    fn scan_nearest(
        tier: KernelTier,
        points: &[f32],
        centroids: &[f32],
        dim: usize,
        i: usize,
    ) -> (u32, u32) {
        let book = Codebook::new(centroids, dim).unwrap();
        let mut d = vec![0.0f32; book.k()];
        book.to_range::<false>(tier, &points[i * dim..(i + 1) * dim], 0, &mut d).unwrap();
        let (c, x) = first_lowest(&d);
        (c as u32, x.to_bits())
    }

    proptest! {
        /// The slab kernel (points in lanes, centroids broadcast) returns
        /// the scan's index and distance bits for every point on every tier
        /// this machine runs: every `dim` 1..=7, `k` 1..=256, a range of
        /// points that is not a whole number of registers and starts at
        /// register 0, 1 or 2. Coordinates come from a seven-point grid
        /// (exact ties between centroids) or are random; a share of them is
        /// NaN, ±inf, ±0 or `f32::MAX`.
        #[test]
        fn prop_slab_is_the_scan_bit_for_bit(
            dim in 1usize..=7,
            k in 1usize..=256,
            n in 1usize..=29,
            first_group in 0usize..=2,
            seed in any::<u64>(),
            grid in any::<bool>(),
            special_one_in in prop_oneof![Just(0u64), Just(5u64), Just(40u64)],
        ) {
            const SPECIAL: [f32; 6] =
                [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, f32::MAX];
            let value = |j: u64| {
                let bits = bh_common::rng::derive_seed(seed, j);
                if special_one_in > 0 && (bits >> 3).is_multiple_of(special_one_in) {
                    SPECIAL[(bits >> 16) as usize % SPECIAL.len()]
                } else if grid {
                    (bits % 7) as f32 - 3.0
                } else {
                    (bits >> 40) as f32 / (1u64 << 22) as f32 - 2.0
                }
            };
            let first = first_group * COLUMN_LANES;
            let total = first + n;
            let points: Vec<f32> = (0..(total * dim) as u64).map(value).collect();
            let centroids: Vec<f32> = (0..(k * dim) as u64).map(|j| value(!j)).collect();
            let slab = Codebook::new(&points, dim).unwrap();
            let book = Codebook::new(&centroids, dim).unwrap();
            for tier in runnable_tiers() {
                let mut out = vec![(u32::MAX, 0.0f32); n];
                slab.nearest_in_on(tier, &book, first, &mut out).unwrap();
                for (i, &(c, d)) in out.iter().enumerate() {
                    let want = scan_nearest(tier, &points, &centroids, dim, first + i);
                    prop_assert_eq!((c, d.to_bits()), want, "{:?} point {}", tier, first + i);
                }
            }
        }

        /// Every (dim, k) below the SIMD width: the column kernels return
        /// the bits of the per-row `l2_sq` / `dot` they replace, on every
        /// tier this machine runs, and `nearest` is the first-lowest scan.
        /// Half the cases draw coordinates from a seven-point grid, where
        /// distinct vectors tie exactly and duplicates are common.
        #[test]
        fn prop_codebook_is_bit_identical_to_row_kernels(
            dim in 1usize..=7,
            k in 1usize..=256,
            seed in any::<u64>(),
            grid in any::<bool>(),
        ) {
            let value = |j: u64| {
                let bits = bh_common::rng::derive_seed(seed, j);
                if grid {
                    (bits % 7) as f32 - 3.0
                } else {
                    // Sign, 24 mantissa bits, and a binary exponent in -8..8.
                    let unit = (bits >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                    unit * f32::powi(2.0, (bits % 16) as i32 - 8)
                }
            };
            let rows: Vec<f32> = (0..(k * dim) as u64).map(value).collect();
            let query: Vec<f32> = (0..dim as u64).map(|d| value(u64::MAX - d)).collect();
            assert_codebook_matches_rows(&rows, dim, &query);
            let mut row = Vec::new();
            let book = Codebook::new(&rows, dim).unwrap();
            book.extend_row(k - 1, &mut row);
            prop_assert_eq!(&row[..], &rows[(k - 1) * dim..]);
        }

        /// The blocked loop returns the one-row kernels' bits on every tier
        /// this machine runs, for every remainder of four rows: contiguous
        /// rows as `distance_batch` defines them (cosine's query norm from
        /// `dot(q, q)`), listed rows — repeats and disorder included — as
        /// `Metric::distance` does.
        #[test]
        fn prop_blocked_loop_is_bit_identical_to_row_kernels(
            dim in 1usize..=257,
            n in 0usize..=9,
            seed in any::<u64>(),
        ) {
            let value = |j: u64| {
                (bh_common::rng::derive_seed(seed, j) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            };
            let query: Vec<f32> = (0..dim as u64).map(|d| value(u64::MAX - d)).collect();
            let mut block: Vec<f32> = (0..(n * dim) as u64).map(value).collect();
            if n > 1 {
                block[dim..2 * dim].fill(0.0); // a zero row: cosine's special case
            }
            let listed: Vec<u32> = (0..n as u64 * 2)
                .map(|j| (bh_common::rng::derive_seed(!seed, j) % n as u64) as u32)
                .collect();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for tier in runnable_tiers() {
                for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                    let per_row = |row: &[f32], hoisted: bool| match metric {
                        Metric::L2 => l2_on(tier, &query, row),
                        Metric::InnerProduct => -dot_on(tier, &query, row),
                        Metric::Cosine => {
                            let (ab, na2, nb2) = cosine_terms_on(tier, &query, row);
                            let na2 = if hoisted { dot_on(tier, &query, &query) } else { na2 };
                            if na2 == 0.0 || nb2 == 0.0 {
                                1.0
                            } else {
                                1.0 - ab / (na2.sqrt() * nb2.sqrt())
                            }
                        }
                    };
                    let mut out = vec![0.0f32; n];
                    batch_on(tier, metric, &query, &block, dim, &mut out).unwrap();
                    let want: Vec<f32> =
                        block.chunks_exact(dim).map(|r| per_row(r, true)).collect();
                    prop_assert_eq!(bits(&out), bits(&want), "{:?} {:?} contiguous", tier, metric);

                    let rows: Vec<&[f32]> =
                        listed.iter().map(|&r| &block[r as usize * dim..][..dim]).collect();
                    let mut out = vec![0.0f32; listed.len()];
                    gather_on(tier, metric, &query, &block, dim, &listed, &mut out).unwrap();
                    let want: Vec<f32> = rows.iter().map(|r| per_row(r, false)).collect();
                    prop_assert_eq!(bits(&out), bits(&want), "{:?} {:?} listed", tier, metric);
                    if tier == KernelTier::current() {
                        let want: Vec<f32> =
                            rows.iter().map(|r| metric.distance(&query, r)).collect();
                        prop_assert_eq!(bits(&out), bits(&want), "{:?} Metric::distance", metric);
                    }
                }
            }
        }

        #[test]
        fn prop_l2_matches_naive(
            v in proptest::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 0..64)
        ) {
            let a: Vec<f32> = v.iter().map(|p| p.0).collect();
            let b: Vec<f32> = v.iter().map(|p| p.1).collect();
            let fast = l2_sq(&a, &b);
            let slow = naive_l2(&a, &b);
            prop_assert!((fast - slow).abs() <= 1e-2 * (1.0 + slow.abs()));
        }

        #[test]
        fn prop_l2_identity_and_symmetry(
            a in proptest::collection::vec(-50.0f32..50.0, 1..40),
            b in proptest::collection::vec(-50.0f32..50.0, 1..40),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            prop_assert_eq!(l2_sq(a, a), 0.0);
            prop_assert!((l2_sq(a, b) - l2_sq(b, a)).abs() < 1e-3);
            prop_assert!(l2_sq(a, b) >= 0.0);
        }

        #[test]
        fn prop_cosine_in_range(
            a in proptest::collection::vec(-10.0f32..10.0, 2..32),
            b in proptest::collection::vec(-10.0f32..10.0, 2..32),
        ) {
            let n = a.len().min(b.len());
            let d = cosine_distance(&a[..n], &b[..n]);
            prop_assert!((-1e-4..=2.0 + 1e-4).contains(&d), "cosine distance {d} out of [0,2]");
        }

        #[test]
        fn prop_cosine_scale_invariant(
            a in proptest::collection::vec(0.1f32..10.0, 4..16),
            s in 0.5f32..4.0,
        ) {
            let scaled: Vec<f32> = a.iter().map(|x| x * s).collect();
            let d = cosine_distance(&a, &scaled);
            prop_assert!(d.abs() < 1e-3, "scaling changed cosine distance: {d}");
        }

        /// Satellite requirement: every tier available on this machine agrees
        /// with the scalar reference within 1e-3 relative tolerance across
        /// dims 1..=257 (all remainder lanes of the 4/8/16-wide loops).
        #[test]
        fn prop_kernel_tiers_match_scalar_reference(
            dim in 1usize..=257,
            seed in 0u32..1000,
        ) {
            let a: Vec<f32> = (0..dim)
                .map(|i| (((i as u32).wrapping_mul(2654435761).wrapping_add(seed)) as f32 / u32::MAX as f32 - 0.5) * 20.0)
                .collect();
            let b: Vec<f32> = (0..dim)
                .map(|i| (((i as u32).wrapping_mul(40503).wrapping_add(seed * 7)) as f32 / u32::MAX as f32 - 0.5) * 20.0)
                .collect();
            let rel = |x: f32, y: f32| (x - y).abs() / (1.0 + y.abs());
            prop_assert!(rel(l2_sq(&a, &b), scalar::l2_sq(&a, &b)) < 1e-3);
            prop_assert!(rel(dot(&a, &b), scalar::dot(&a, &b)) < 1e-3);
            let (ab, aa, bb) = cosine_terms(&a, &b);
            let (sab, saa, sbb) = scalar::cosine_terms(&a, &b);
            prop_assert!(rel(ab, sab) < 1e-3 && rel(aa, saa) < 1e-3 && rel(bb, sbb) < 1e-3);
        }
    }
}
