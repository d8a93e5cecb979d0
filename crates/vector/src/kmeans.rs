//! Lloyd's k-means with k-means++ seeding.
//!
//! Used in three places: IVF coarse quantizer training, product-quantizer
//! codebook training, and the storage layer's semantic (`CLUSTER BY`)
//! partitioning (§IV-B). Clustering always uses squared-L2 internally —
//! cosine-metric callers normalize their vectors first.

use crate::distance::{distance_batch, first_lowest, l2_sq, Codebook, Metric};
use crate::types::build_pool;
use bh_common::rng::derived_rng;
use bh_common::{BhError, FanoutPool, Result};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Training parameters.
#[derive(Debug, Clone, Copy)]
pub struct KMeansParams {
    /// Desired number of clusters; clamped to the number of points.
    pub k: usize,
    /// Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed for reproducible training.
    pub seed: u64,
    /// Train on at most this many points (uniformly sampled) — the standard
    /// faiss-style cap that keeps training cost bounded on large segments.
    pub sample_limit: usize,
}

impl Default for KMeansParams {
    fn default() -> Self {
        Self { k: 8, max_iters: 15, seed: 0, sample_limit: 16_384 }
    }
}

impl KMeansParams {
    /// Default training parameters for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self { k, ..Default::default() }
    }

    /// Set the training seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A trained codebook: `k` centroids of dimension `dim`, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    /// Dimensionality of each centroid.
    pub dim: usize,
    /// Number of centroids.
    pub k: usize,
    /// Row-major `k × dim` centroid matrix.
    pub centroids: Vec<f32>,
}

impl KMeans {
    /// The `i`-th centroid.
    pub fn centroid(&self, i: usize) -> &[f32] {
        &self.centroids[i * self.dim..(i + 1) * self.dim]
    }

    /// Index of the nearest centroid.
    pub fn assign(&self, v: &[f32]) -> Result<usize> {
        self.assign_into(v, &mut Vec::new())
    }

    /// As [`KMeans::assign`], reusing a caller-provided distance buffer so
    /// tight loops (Lloyd iterations, IVF `add_with_ids`) do not allocate per
    /// point. The batched kernel scans the whole `k × dim` centroid table;
    /// of several centroids at the same distance the lowest index wins.
    /// Errors when `v` is not `dim` long.
    pub fn assign_into(&self, v: &[f32], dists: &mut Vec<f32>) -> Result<usize> {
        if self.k == 0 {
            return Err(BhError::InvalidArgument("kmeans: no centroids to assign to".into()));
        }
        dists.resize(self.k, 0.0);
        distance_batch(Metric::L2, v, &self.centroids, self.dim, dists)?;
        Ok(first_lowest(dists).0)
    }

    /// The `m` nearest centroids with distances, ascending. Used for IVF
    /// probe selection and semantic segment pruning. Errors when `v` is not
    /// `dim` long.
    pub fn nearest_centroids(&self, v: &[f32], m: usize) -> Result<Vec<(usize, f32)>> {
        let mut dists = vec![0.0f32; self.k];
        distance_batch(Metric::L2, v, &self.centroids, self.dim, &mut dists)?;
        let mut all: Vec<(usize, f32)> = dists.into_iter().enumerate().collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1));
        all.truncate(m);
        Ok(all)
    }
}

/// Points per fan-out task of a Lloyd assignment or a seeding round: a
/// multiple of the column layout's eight lanes, large enough that claiming
/// a tile is noise next to scoring it.
const TILE_POINTS: usize = 512;

/// Work counters, process-wide and cumulative: what every k-means trained
/// so far has done. The counts follow from the input, the parameters and
/// the distance bits (which follow the kernel tier from `dim` 8), so a
/// deterministic workload reads the same numbers whatever the pool size or
/// the timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KMeansWork {
    /// Lloyd iterations run (an iteration that moves no point still counts).
    pub lloyd_iters: u64,
    /// k-means++ seeding rounds: one distance pass per chosen centroid.
    pub seed_rounds: u64,
    /// Point–centroid distances evaluated: seeding, Lloyd assignment and
    /// the farthest-point search of an empty-cluster reseed.
    pub evals: u64,
}

static LLOYD_ITERS: AtomicU64 = AtomicU64::new(0);
static SEED_ROUNDS: AtomicU64 = AtomicU64::new(0);
static EVALS: AtomicU64 = AtomicU64::new(0);

/// The work counters' current totals; subtract two readings for the work
/// of what ran between them.
pub fn work_done() -> KMeansWork {
    KMeansWork {
        lloyd_iters: LLOYD_ITERS.load(Ordering::Relaxed),
        seed_rounds: SEED_ROUNDS.load(Ordering::Relaxed),
        evals: EVALS.load(Ordering::Relaxed),
    }
}

impl std::ops::Sub for KMeansWork {
    type Output = KMeansWork;

    fn sub(self, rhs: KMeansWork) -> KMeansWork {
        KMeansWork {
            lloyd_iters: self.lloyd_iters - rhs.lloyd_iters,
            seed_rounds: self.seed_rounds - rhs.seed_rounds,
            evals: self.evals - rhs.evals,
        }
    }
}

/// [`train_kmeans_on`] on the process-wide [`build_pool`].
pub fn train_kmeans(data: &[f32], dim: usize, params: &KMeansParams) -> Result<KMeans> {
    train_kmeans_on(&build_pool(), data, dim, params)
}

/// Train k-means over `n = data.len() / dim` row-major points.
///
/// `k` is clamped to `n`. Empty clusters are reseeded to the point farthest
/// from its assigned centroid, so the returned codebook always has exactly
/// `min(k, n)` distinct, non-empty centroids for non-degenerate input.
///
/// The training points are laid out once as a [`Codebook`] (dimension-major
/// below `dim` 8, so eight points share a register). Each seeding round's
/// distance pass and each Lloyd assignment run in tiles of points on
/// `pool`; the minima, the seeding totals, the cluster counts and the `f64`
/// sums are folded afterwards, sequentially in point order. Every distance
/// has the bits of the per-point scan, so the result does not depend on the
/// pool's size.
pub fn train_kmeans_on(
    pool: &FanoutPool,
    data: &[f32],
    dim: usize,
    params: &KMeansParams,
) -> Result<KMeans> {
    if dim == 0 {
        return Err(BhError::InvalidArgument("kmeans: dim must be > 0".into()));
    }
    if !data.len().is_multiple_of(dim) {
        return Err(BhError::DimensionMismatch { expected: dim, got: data.len() % dim });
    }
    let n = data.len() / dim;
    if n == 0 {
        return Err(BhError::InvalidArgument("kmeans: no training points".into()));
    }
    if params.k == 0 {
        return Err(BhError::InvalidArgument("kmeans: k must be > 0".into()));
    }

    let mut rng = derived_rng(params.seed, 0x6b6d_6561_6e73);

    // Optional subsampling for large inputs; otherwise train on the caller's
    // block in place.
    let sampled: Vec<f32>;
    let train: &[f32] = if n > params.sample_limit {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        idx.truncate(params.sample_limit);
        sampled = idx.iter().flat_map(|&i| &data[i * dim..(i + 1) * dim]).copied().collect();
        &sampled
    } else {
        data
    };
    let n_train = train.len() / dim;

    let k = params.k.min(n_train);
    let point = |i: usize| &train[i * dim..(i + 1) * dim];
    let points = Codebook::new(train, dim)?;

    // k-means++ seeding. Every round is "one new centroid against all
    // points", folded into each point's distance to its nearest centroid
    // so far and the total of those, in point order.
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.gen_range(0..n_train);
    centroids.extend_from_slice(point(first));
    let mut min_d2 = vec![0.0f32; n_train];
    let mut total = seed_round(pool, &points, point(first), &mut min_d2, true)?;
    while centroids.len() / dim < k {
        let chosen = if total <= f64::EPSILON {
            // All points coincide with existing centroids; pick uniformly.
            rng.gen_range(0..n_train)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n_train - 1;
            for (i, &d) in min_d2.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centroids.extend_from_slice(point(chosen));
        total = seed_round(pool, &points, point(chosen), &mut min_d2, false)?;
    }

    let mut km = KMeans { dim, k, centroids };

    // Lloyd iterations: assign every point, then add each to its cluster's
    // sum in point order.
    let mut assignments = vec![0usize; n_train];
    for _ in 0..params.max_iters {
        let book = Codebook::new(&km.centroids, dim)?;
        let nearest = run_tiles(pool, n_train, |first, out| points.nearest_in(&book, first, out))?;
        LLOYD_ITERS.fetch_add(1, Ordering::Relaxed);
        EVALS.fetch_add((n_train * k) as u64, Ordering::Relaxed);
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        let fold = Fold {
            dim,
            train,
            nearest: &nearest,
            assignments: &mut assignments,
            sums: &mut sums,
            counts: &mut counts,
        };
        let moved = match dim {
            1 => fold.run::<1>(),
            2 => fold.run::<2>(),
            3 => fold.run::<3>(),
            4 => fold.run::<4>(),
            5 => fold.run::<5>(),
            6 => fold.run::<6>(),
            7 => fold.run::<7>(),
            _ => fold.run::<0>(),
        };
        reseed_empty_clusters(&mut sums, &mut counts, train, dim, &assignments, &km);
        for c in 0..k {
            if counts[c] > 0 {
                for d in 0..dim {
                    km.centroids[c * dim + d] = (sums[c * dim + d] / counts[c] as f64) as f32;
                }
            }
        }
        if !moved {
            break;
        }
    }
    Ok(km)
}

/// One Lloyd iteration's fold: every point, in point order, recorded as
/// assigned to its nearest centroid and added to that cluster's count and
/// `f64` sum.
struct Fold<'a> {
    dim: usize,
    train: &'a [f32],
    nearest: &'a [(u32, f32)],
    assignments: &'a mut [usize],
    sums: &'a mut [f64],
    counts: &'a mut [usize],
}

impl Fold<'_> {
    /// Run the fold; whether any assignment changed. `D` is `dim` when it
    /// is a column-layout width, so the per-point add has a fixed size the
    /// compiler keeps in registers (one `f64x4` add at 4); 0 otherwise.
    fn run<const D: usize>(self) -> bool {
        let dim = if D > 0 { D } else { self.dim };
        let mut moved = false;
        let points = self.train.chunks_exact(dim).zip(self.assignments.iter_mut());
        for ((p, assigned), &(c, _)) in points.zip(self.nearest) {
            let c = c as usize;
            moved |= c != *assigned;
            *assigned = c;
            self.counts[c] += 1;
            for (sum, &x) in self.sums[c * dim..][..dim].iter_mut().zip(p) {
                *sum += x as f64;
            }
        }
        moved
    }
}

/// `task(first, out)` over every tile of [`TILE_POINTS`] of `n` points,
/// side by side on `pool`, `out` the tile's slots; the `n` results in
/// point order.
fn run_tiles<T: Copy + Default + Send + Sync>(
    pool: &FanoutPool,
    n: usize,
    task: impl Fn(usize, &mut [T]) -> Result<()> + Sync,
) -> Result<Vec<T>> {
    let tiles = pool
        .run(n.div_ceil(TILE_POINTS), usize::MAX, |t| {
            let first = t * TILE_POINTS;
            let mut out = vec![T::default(); TILE_POINTS.min(n - first)];
            task(first, &mut out)?;
            Ok(out)
        })
        .into_results()?;
    Ok(tiles.concat())
}

/// Points per distance call of a seeding round on the column layout.
const SEED_CHUNK: usize = 64;

/// One seeding round: the distance from `centroid` to every point, folded
/// into `min_d2` (replaced on the `first` round, else by a `d < min` step)
/// in point order. Returns the `f64` total of the new minima, summed in
/// point order — the next round's sampling mass.
///
/// On the column layout a distance costs a fraction of its fold, so the
/// round is one pass, [`SEED_CHUNK`] points at a time through a stack
/// buffer. On the row layout the distances run in tiles on `pool` first.
fn seed_round(
    pool: &FanoutPool,
    points: &Codebook<'_>,
    centroid: &[f32],
    min_d2: &mut [f32],
    first: bool,
) -> Result<f64> {
    SEED_ROUNDS.fetch_add(1, Ordering::Relaxed);
    EVALS.fetch_add(min_d2.len() as u64, Ordering::Relaxed);
    // The running total is passed along, not captured, so it stays in a
    // register; the minimum is a select, not a branch the data decides.
    let fold = |mut total: f64, mins: &mut [f32], dists: &[f32]| {
        for (min, &d) in mins.iter_mut().zip(dists) {
            *min = if first || d < *min { d } else { *min };
            total += *min as f64;
        }
        total
    };
    let mut total = 0.0f64;
    if points.columnar() {
        let mut dists = [0.0f32; SEED_CHUNK];
        for (c, mins) in min_d2.chunks_mut(SEED_CHUNK).enumerate() {
            let dists = &mut dists[..mins.len()];
            points.l2_to_range(centroid, c * SEED_CHUNK, dists)?;
            total = fold(total, mins, dists);
        }
    } else {
        let dists = run_tiles(pool, min_d2.len(), |at, out| points.l2_to_range(centroid, at, out))?;
        total = fold(total, min_d2, &dists);
    }
    Ok(total)
}

/// Replace empty clusters' accumulators with the point currently farthest
/// from its own centroid (a single point, count 1).
fn reseed_empty_clusters(
    sums: &mut [f64],
    counts: &mut [usize],
    train: &[f32],
    dim: usize,
    assignments: &[usize],
    km: &KMeans,
) {
    let n = assignments.len();
    for c in 0..counts.len() {
        if counts[c] > 0 {
            continue;
        }
        EVALS.fetch_add(n as u64, Ordering::Relaxed);
        // Farthest point from its assigned centroid.
        let mut far_i = 0;
        let mut far_d = -1.0f32;
        for i in 0..n {
            let p = &train[i * dim..(i + 1) * dim];
            let d = l2_sq(p, km.centroid(assignments[i]));
            if d > far_d {
                far_d = d;
                far_i = i;
            }
        }
        counts[c] = 1;
        for d in 0..dim {
            sums[c * dim + d] = train[far_i * dim + d] as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_common::rng::rng as seeded;
    use rand::Rng;

    /// Three well-separated Gaussian blobs in `dim` dims.
    fn blobs(n_per: usize, dim: usize, seed: u64) -> (Vec<f32>, Vec<usize>) {
        let centers = [-10.0f32, 0.0, 10.0];
        let mut r = seeded(seed);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for (ci, &c) in centers.iter().enumerate() {
            for _ in 0..n_per {
                for _ in 0..dim {
                    data.push(c + r.gen::<f32>() - 0.5);
                }
                labels.push(ci);
            }
        }
        (data, labels)
    }

    #[test]
    fn separated_blobs_are_recovered() {
        let dim = 4;
        let (data, labels) = blobs(50, dim, 1);
        let km = train_kmeans(&data, dim, &KMeansParams::new(3).with_seed(7)).unwrap();
        assert_eq!(km.k, 3);
        // Every pair of same-label points must land in the same cluster and
        // different-label points in different clusters.
        let assignment: Vec<usize> =
            (0..150).map(|i| km.assign(&data[i * dim..(i + 1) * dim]).unwrap()).collect();
        for i in 0..150 {
            for j in 0..150 {
                assert_eq!(
                    labels[i] == labels[j],
                    assignment[i] == assignment[j],
                    "points {i},{j} clustered wrongly"
                );
            }
        }
    }

    #[test]
    fn k_clamped_to_point_count() {
        let data = vec![0.0, 0.0, 1.0, 1.0]; // two 2-d points
        let km = train_kmeans(&data, 2, &KMeansParams::new(10)).unwrap();
        assert_eq!(km.k, 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = blobs(30, 3, 2);
        let a = train_kmeans(&data, 3, &KMeansParams::new(4).with_seed(9)).unwrap();
        let b = train_kmeans(&data, 3, &KMeansParams::new(4).with_seed(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(train_kmeans(&[], 4, &KMeansParams::new(2)).is_err());
        assert!(train_kmeans(&[1.0, 2.0, 3.0], 2, &KMeansParams::new(2)).is_err()); // ragged
        assert!(train_kmeans(&[1.0, 2.0], 0, &KMeansParams::new(2)).is_err());
        assert!(train_kmeans(&[1.0, 2.0], 2, &KMeansParams::new(0)).is_err());
    }

    #[test]
    fn identical_points_do_not_crash() {
        let data = vec![5.0f32; 40]; // 10 identical 4-d points
        let km = train_kmeans(&data, 4, &KMeansParams::new(3)).unwrap();
        assert_eq!(km.assign(&[5.0; 4]).unwrap(), km.assign(&[5.0; 4]).unwrap());
    }

    #[test]
    fn nearest_centroids_sorted_ascending() {
        let (data, _) = blobs(40, 2, 3);
        let km = train_kmeans(&data, 2, &KMeansParams::new(3).with_seed(1)).unwrap();
        let q = vec![9.5, 9.5];
        let near = km.nearest_centroids(&q, 3).unwrap();
        assert_eq!(near.len(), 3);
        for w in near.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(near[0].0, km.assign(&q).unwrap());
    }

    #[test]
    fn wrong_dimension_is_an_error_not_a_truncated_scan() {
        let (data, _) = blobs(20, 4, 5);
        let km = train_kmeans(&data, 4, &KMeansParams::new(3).with_seed(2)).unwrap();
        for v in [&data[..3], &data[..5], &[][..]] {
            assert!(km.assign(v).is_err(), "{} dims", v.len());
            assert!(km.assign_into(v, &mut Vec::new()).is_err());
            assert!(km.nearest_centroids(v, 2).is_err());
        }
    }

    /// The coarse quantizer's shape (dim 64, `k` 23, a sample cap) trains
    /// to the same centroid bits on pools of 0, 1 and 3 helpers, and with
    /// the same work: the tiles only decide where distances are computed.
    #[test]
    fn training_at_dim_64_does_not_depend_on_the_pool() {
        let (data, _) = blobs(300, 64, 6);
        let params = KMeansParams { k: 23, max_iters: 6, seed: 3, sample_limit: 700 };
        let bits = |km: &KMeans| km.centroids.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want = train_kmeans_on(&FanoutPool::new(0), &data, 64, &params).unwrap();
        for helpers in [0, 1, 3] {
            let km = train_kmeans_on(&FanoutPool::new(helpers), &data, 64, &params).unwrap();
            assert_eq!(bits(&km), bits(&want), "{helpers} helpers");
        }
    }

    #[test]
    fn sampling_cap_still_produces_usable_codebook() {
        let (data, _) = blobs(200, 2, 4);
        let params = KMeansParams { k: 3, max_iters: 10, seed: 5, sample_limit: 60 };
        let km = train_kmeans(&data, 2, &params).unwrap();
        // All three blob centers should have a centroid within 2.0.
        for c in [-10.0f32, 0.0, 10.0] {
            let q = vec![c, c];
            let (_, d) = km.nearest_centroids(&q, 1).unwrap()[0];
            assert!(d < 4.0, "no centroid near blob at {c}: d={d}");
        }
    }
}
