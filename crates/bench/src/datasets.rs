//! Synthetic dataset generation.
//!
//! The paper evaluates on Cohere (1M×768), OpenAI (5M×1536), LAION
//! (1M×512) and a 30M-row production sample — none of which are available
//! offline. Real embedding collections are *clustered*: that geometry is
//! what recall/QPS trade-offs, semantic partitioning, and IVF cell pruning
//! all depend on. We therefore substitute Gaussian mixtures with per-cluster
//! anisotropy, scaled down (documented in EXPERIMENTS.md) but preserving the
//! cluster structure; the LAION stand-in adds caption strings and a
//! caption-image similarity column, and the production stand-in adds the
//! multi-column attributes its workload filters on.

use bh_common::rng::{derived_rng, rng, DetRng};
use rand::Rng;

/// Scale multiplier from the environment (`BH_BENCH_SCALE`, default 1.0).
pub fn env_scale() -> f64 {
    std::env::var("BH_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Specification of a synthetic dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset label used in printed tables.
    pub name: &'static str,
    /// Number of rows.
    pub n: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Gaussian-mixture component count.
    pub clusters: usize,
    /// Generation seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Stand-in for Cohere wikipedia-22-12 (paper: 1M × 768).
    pub fn cohere_sim() -> Self {
        let s = env_scale();
        Self { name: "cohere-sim", n: (20_000.0 * s) as usize, dim: 64, clusters: 32, seed: 11 }
    }

    /// Stand-in for OpenAI/C4 (paper: 5M × 1536) — kept ~2.5x cohere-sim in
    /// rows and 1.5x in dim so the relative gap between datasets survives.
    pub fn openai_sim() -> Self {
        let s = env_scale();
        Self { name: "openai-sim", n: (50_000.0 * s) as usize, dim: 96, clusters: 48, seed: 13 }
    }

    /// Stand-in for LAION-400M sample (paper: 1M × 512, captions + scores).
    pub fn laion_sim() -> Self {
        let s = env_scale();
        Self { name: "laion-sim", n: (16_000.0 * s) as usize, dim: 32, clusters: 24, seed: 17 }
    }

    /// Stand-in for the production image-search sample (paper: 30M rows).
    pub fn production_sim() -> Self {
        let s = env_scale();
        Self { name: "production-sim", n: (30_000.0 * s) as usize, dim: 48, clusters: 40, seed: 19 }
    }

    /// A small spec for tests.
    pub fn tiny() -> Self {
        Self { name: "tiny", n: 500, dim: 8, clusters: 4, seed: 1 }
    }

    /// Materialize the dataset.
    pub fn generate(&self) -> Dataset {
        Dataset::generate(self)
    }
}

/// A generated dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The generating specification.
    pub spec: DatasetSpec,
    /// Row-major embeddings, `n × dim`.
    pub vectors: Vec<f32>,
    /// Cluster id of each row (ground-truth structure).
    pub cluster_of: Vec<u32>,
    /// Uniform-random integer attribute in `[0, 1_000_000)` (VectorBench's
    /// "random int" column) — selectivity-controllable via ranges.
    pub rand_int: Vec<i64>,
    /// LAION-style caption (empty unless generated via `with_captions`).
    pub captions: Vec<String>,
    /// LAION-style caption-image similarity in `[0, 1)`.
    pub similarity: Vec<f64>,
}

impl Dataset {
    /// Materialize a dataset from its specification.
    pub fn generate(spec: &DatasetSpec) -> Dataset {
        let mut r = rng(spec.seed);
        // Cluster centers on a scaled hypercube lattice with jitter.
        let centers: Vec<Vec<f32>> = (0..spec.clusters)
            .map(|c| {
                let mut cr = derived_rng(spec.seed, 1000 + c as u64);
                (0..spec.dim).map(|_| (cr.gen::<f32>() * 2.0 - 1.0) * 10.0).collect()
            })
            .collect();
        let mut vectors = Vec::with_capacity(spec.n * spec.dim);
        let mut cluster_of = Vec::with_capacity(spec.n);
        let mut rand_int = Vec::with_capacity(spec.n);
        let mut similarity = Vec::with_capacity(spec.n);
        for _ in 0..spec.n {
            let c = r.gen_range(0..spec.clusters);
            cluster_of.push(c as u32);
            let center = &centers[c];
            for (d, &mid) in center.iter().enumerate() {
                // Anisotropic noise: later dimensions are tighter, like the
                // decaying spectrum of real embeddings.
                let sigma = 1.0 / (1.0 + d as f32 * 0.05);
                vectors.push(mid + (r.gen::<f32>() * 2.0 - 1.0) * sigma);
            }
            rand_int.push(r.gen_range(0..1_000_000usize) as i64);
            similarity.push(r.gen::<f64>());
        }
        Dataset {
            spec: spec.clone(),
            vectors,
            cluster_of,
            rand_int,
            captions: Vec::new(),
            similarity,
        }
    }

    /// Add LAION-style captions (needed only by the laion-sim experiments).
    pub fn with_captions(mut self) -> Dataset {
        let mut r = derived_rng(self.spec.seed, 0xCAFE);
        self.captions = (0..self.spec.n).map(|i| caption(&mut r, self.cluster_of[i])).collect();
        self
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.spec.n
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.spec.dim
    }

    /// Embedding of one row.
    pub fn vector(&self, row: usize) -> &[f32] {
        &self.vectors[row * self.spec.dim..(row + 1) * self.spec.dim]
    }

    /// Query vectors: perturbed copies of random data points (the standard
    /// benchmark recipe — queries share the data distribution).
    pub fn queries(&self, count: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut r = derived_rng(self.spec.seed, 0x9E37 ^ seed);
        (0..count)
            .map(|_| {
                let row = r.gen_range(0..self.spec.n);
                self.vector(row).iter().map(|&v| v + (r.gen::<f32>() - 0.5) * 0.1).collect()
            })
            .collect()
    }

    /// Hard query vectors for recall-frontier experiments: interpolations
    /// between two random data points, so the true top-k straddles regions
    /// and small search beams genuinely miss neighbors (a perturbed-copy
    /// query has one overwhelming nearest neighbor and saturates recall).
    pub fn hard_queries(&self, count: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut r = derived_rng(self.spec.seed, 0x4A2D ^ seed);
        (0..count)
            .map(|_| {
                let a = r.gen_range(0..self.spec.n);
                let b = r.gen_range(0..self.spec.n);
                let t = 0.35 + r.gen::<f32>() * 0.3;
                self.vector(a)
                    .iter()
                    .zip(self.vector(b))
                    .map(|(&x, &y)| x * (1.0 - t) + y * t + (r.gen::<f32>() - 0.5) * 0.2)
                    .collect()
            })
            .collect()
    }
}

const WORDS: &[&str] = &[
    "sunset", "mountain", "river", "portrait", "city", "night", "forest", "beach", "dog", "cat",
    "vintage", "abstract", "watercolor", "sketch", "aerial", "macro", "street", "bridge",
    "garden", "snow", "3d", "render", "oil", "painting", "photo",
];

fn caption(r: &mut DetRng, cluster: u32) -> String {
    let n_words = r.gen_range(3..8u32);
    let mut out = String::new();
    // Cluster-correlated leading word so regex filters correlate with
    // semantics, as image captions do.
    out.push_str(WORDS[cluster as usize % WORDS.len()]);
    for _ in 0..n_words {
        out.push(' ');
        out.push_str(WORDS[r.gen_range(0..WORDS.len())]);
    }
    if r.gen::<f64>() < 0.3 {
        out.push_str(&format!(" {}", r.gen_range(1900..2025u32)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_vector::distance::l2_sq;

    #[test]
    fn generation_is_deterministic() {
        let a = DatasetSpec::tiny().generate();
        let b = DatasetSpec::tiny().generate();
        assert_eq!(a.vectors, b.vectors);
        assert_eq!(a.rand_int, b.rand_int);
    }

    #[test]
    fn clusters_are_coherent() {
        let d = DatasetSpec::tiny().generate();
        // Same-cluster rows are closer on average than cross-cluster rows.
        let mut same = (0.0, 0usize);
        let mut cross = (0.0, 0usize);
        for i in 0..100 {
            for j in i + 1..100 {
                let dist = l2_sq(d.vector(i), d.vector(j)) as f64;
                if d.cluster_of[i] == d.cluster_of[j] {
                    same = (same.0 + dist, same.1 + 1);
                } else {
                    cross = (cross.0 + dist, cross.1 + 1);
                }
            }
        }
        let same_avg = same.0 / same.1.max(1) as f64;
        let cross_avg = cross.0 / cross.1.max(1) as f64;
        assert!(
            same_avg * 3.0 < cross_avg,
            "cluster structure too weak: same {same_avg:.2} vs cross {cross_avg:.2}"
        );
    }

    #[test]
    fn captions_and_attributes() {
        let d = DatasetSpec::tiny().generate().with_captions();
        assert_eq!(d.captions.len(), d.n());
        assert!(d.captions.iter().all(|c| !c.is_empty()));
        assert!(d.rand_int.iter().all(|&v| (0..1_000_000).contains(&v)));
        assert!(d.similarity.iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn queries_are_near_data() {
        let d = DatasetSpec::tiny().generate();
        let qs = d.queries(10, 0);
        assert_eq!(qs.len(), 10);
        for q in &qs {
            assert_eq!(q.len(), d.dim());
            // Each query should be very close to at least one data point.
            let min = (0..d.n())
                .map(|i| l2_sq(q, d.vector(i)))
                .fold(f32::INFINITY, f32::min);
            assert!(min < 1.0, "query too far from data: {min}");
        }
    }

    #[test]
    fn spec_presets_scale_sanely() {
        let c = DatasetSpec::cohere_sim();
        let o = DatasetSpec::openai_sim();
        assert!(o.n > c.n);
        assert!(o.dim > c.dim);
    }
}
