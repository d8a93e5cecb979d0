//! Benchmark-owned input generation.
//!
//! Every input — vectors, the filter column, query vectors, SQL text —
//! derives from `--seed` through the generator below, never from the
//! shimmed `rand`, so the same seed gives the same inputs whatever the
//! library crates draw internally.

use std::fmt::Write;

/// xoshiro256** seeded through SplitMix64.
pub struct Prng([u64; 4]);

impl Prng {
    pub fn new(seed: u64) -> Prng {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Prng([next(), next(), next(), next()])
    }

    /// An independent stream for a labelled purpose under the same seed.
    pub fn stream(seed: u64, label: u64) -> Prng {
        Prng::new(seed ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2^-40 for the sizes used.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Roughly normal, unit variance (sum of four uniforms).
    pub fn noise(&mut self) -> f32 {
        (self.unit() + self.unit() + self.unit() + self.unit() - 2.0) * 1.732
    }
}

/// Upper end (exclusive) of the uniform integer filter column `x`.
pub const X_RANGE: i64 = 1_000_000;

/// Clustered embeddings: a point is a cluster centre plus noise, the shape
/// on which graph and IVF indexes behave as they do on real embeddings.
pub struct Space {
    pub dim: usize,
    centres: Vec<f32>,
}

const CLUSTERS: usize = 32;
const SPREAD: f32 = 0.35;

impl Space {
    pub fn new(seed: u64, dim: usize) -> Space {
        let mut r = Prng::stream(seed, 1);
        Space { dim, centres: (0..CLUSTERS * dim).map(|_| r.unit() * 2.0 - 1.0).collect() }
    }

    /// Append one point to `out`.
    pub fn point(&self, r: &mut Prng, out: &mut Vec<f32>) {
        let c = r.below(CLUSTERS as u64) as usize;
        let centre = &self.centres[c * self.dim..(c + 1) * self.dim];
        out.extend(centre.iter().map(|m| m + SPREAD * r.noise()));
    }
}

/// Rows of the benchmark table `(id, x, emb)`, column-wise.
pub struct Rows {
    pub dim: usize,
    pub ids: Vec<u64>,
    pub xs: Vec<i64>,
    /// Row-major embeddings, `ids.len() * dim` floats.
    pub embs: Vec<f32>,
}

impl Rows {
    pub fn generate(space: &Space, r: &mut Prng, first_id: u64, n: usize) -> Rows {
        let mut embs = Vec::with_capacity(n * space.dim);
        let mut xs = Vec::with_capacity(n);
        for _ in 0..n {
            space.point(r, &mut embs);
            xs.push(r.below(X_RANGE as u64) as i64);
        }
        Rows { dim: space.dim, ids: (first_id..first_id + n as u64).collect(), xs, embs }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn emb(&self, i: usize) -> &[f32] {
        &self.embs[i * self.dim..(i + 1) * self.dim]
    }

    /// Bytes a user would say they stored: id + x + embedding per row.
    pub fn user_bytes(&self) -> u64 {
        (self.len() * (8 + 8 + self.dim * 4)) as u64
    }

    /// `INSERT INTO bench VALUES …` for rows `[from, to)`.
    pub fn insert_sql(&self, table: &str, from: usize, to: usize) -> String {
        let mut sql = String::with_capacity((to - from) * (self.dim * 11 + 32) + 32);
        write!(sql, "INSERT INTO {table} VALUES ").expect("string write");
        for i in from..to {
            if i > from {
                sql.push_str(", ");
            }
            write!(sql, "({}, {}, ", self.ids[i], self.xs[i]).expect("string write");
            push_vector(&mut sql, self.emb(i));
            sql.push(')');
        }
        sql
    }
}

/// `[v0, v1, …]` with enough digits to round-trip an `f32`.
pub fn push_vector(sql: &mut String, v: &[f32]) {
    sql.push('[');
    for (j, x) in v.iter().enumerate() {
        if j > 0 {
            sql.push_str(", ");
        }
        write!(sql, "{x:?}").expect("string write");
    }
    sql.push(']');
}

/// `CREATE TABLE` for the benchmark schema with the given index clause,
/// e.g. `HNSW('DIM=32', 'M=16')`.
pub fn create_table_sql(table: &str, index: &str) -> String {
    format!(
        "CREATE TABLE {table} (id UInt64, x Int64, emb Array(Float32), \
         INDEX ann emb TYPE {index}) ORDER BY id"
    )
}

/// A top-`k` SELECT, filtered to `lo <= x <= hi` when a range is given.
pub fn select_sql(table: &str, query: &[f32], k: usize, range: Option<(i64, i64)>) -> String {
    let mut sql = String::with_capacity(query.len() * 11 + 128);
    write!(sql, "SELECT id, x FROM {table} ").expect("string write");
    if let Some((lo, hi)) = range {
        write!(sql, "WHERE x BETWEEN {lo} AND {hi} ").expect("string write");
    }
    sql.push_str("ORDER BY L2Distance(emb, ");
    push_vector(&mut sql, query);
    write!(sql, ") LIMIT {k}").expect("string write");
    sql
}

/// An inclusive `x` range passing about `share` of uniform rows, placed at
/// a random offset so repeated classes do not hit one hot range.
pub fn range_for_share(r: &mut Prng, share: f64) -> (i64, i64) {
    let width = ((X_RANGE as f64 * share).round() as i64).max(1);
    let lo = r.below((X_RANGE - width + 1) as u64) as i64;
    (lo, lo + width - 1)
}
