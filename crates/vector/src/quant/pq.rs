//! Product quantization with asymmetric distance computation (ADC).
//!
//! A vector is split into `m` contiguous subspaces; each subspace is encoded
//! as the id of its nearest codebook centroid (codebooks trained with
//! k-means). At query time a lookup table of query-subvector-to-centroid
//! distances is built once per (query, codebook); the approximate distance of
//! any code is then `m` table lookups — this is the `c_c` ("fetch a code and
//! run ADC") term of the paper's cost model.
//!
//! Two code widths are supported:
//!
//! * **8-bit** (`ks = 256`), the classic IVFPQ configuration.
//! * **4-bit** (`ks = 16`), two codes packed per byte — the layout used by
//!   faiss' fast-scan (`PQx4fs`) indexes. We reproduce the algorithmic
//!   memory/recall trade-off; the SIMD register-shuffle kernel is substituted
//!   by the same LUT arithmetic (documented in DESIGN.md).

use crate::codec::{Reader, Writer};
use crate::distance::{dot, Codebook};
use crate::kmeans::{train_kmeans_on, KMeans, KMeansParams};
use crate::quant::fastscan::QuantizedLut;
use crate::types::build_pool;
use crate::Metric;
use bh_common::rng::derive_seed;
use bh_common::{BhError, FanoutPool, Result};

/// Code width of a PQ codebook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeBits {
    /// 256 centroids per subspace, one byte per code.
    B8,
    /// 16 centroids per subspace, two codes per byte ("fast-scan" layout).
    B4,
}

impl CodeBits {
    /// Centroids per subspace for this code width.
    pub fn ks(self) -> usize {
        match self {
            CodeBits::B8 => 256,
            CodeBits::B4 => 16,
        }
    }
}

/// Training parameters.
#[derive(Debug, Clone, Copy)]
pub struct PqParams {
    /// Number of subspaces; must divide `dim`.
    pub m: usize,
    /// Code width (8-bit classic or 4-bit fast-scan).
    pub bits: CodeBits,
    /// Codebook-training seed.
    pub seed: u64,
    /// Lloyd iterations per subspace codebook.
    pub kmeans_iters: usize,
}

impl PqParams {
    /// Defaults for `m` subspaces at the given code width.
    pub fn new(m: usize, bits: CodeBits) -> Self {
        Self { m, bits, seed: 0, kmeans_iters: 12 }
    }
}

/// A trained product quantizer.
#[derive(Debug, Clone, PartialEq)]
pub struct Pq {
    dim: usize,
    m: usize,
    bits: CodeBits,
    dsub: usize,
    /// One codebook per subspace: `ks` centroids of `dsub` dims, in the
    /// layout [`Codebook`] picks for that width.
    books: Vec<Codebook<'static>>,
    /// Squared centroid norms (`m * ks`), hoisted out of the per-query ADC
    /// table build: the L2 entry expands to `‖q‖² + ‖c‖² - 2⟨q,c⟩`, so with
    /// these precomputed only the dot products are evaluated per query.
    cent_norms: Vec<f32>,
    metric: Metric,
}

impl Pq {
    /// Assemble a quantizer from its serialized form: `m * ks * dsub`
    /// floats, subspace-major, each subspace's centroids row-major.
    fn from_codebooks(
        codebooks: &[f32],
        dim: usize,
        m: usize,
        bits: CodeBits,
        metric: Metric,
    ) -> Result<Pq> {
        let dsub = dim / m;
        let books = codebooks
            .chunks_exact(bits.ks() * dsub)
            .map(|slab| Codebook::new(slab, dsub).map(Codebook::into_owned))
            .collect::<Result<Vec<_>>>()?;
        // Norms are derived state: recomputed on load, never serialized.
        let cent_norms = codebooks.chunks_exact(dsub).map(|c| dot(c, c)).collect();
        Ok(Pq { dim, m, bits, dsub, books, cent_norms, metric })
    }

    /// Train codebooks on a row-major sample. For [`Metric::Cosine`] the
    /// caller is expected to have normalized the sample (IVF index does).
    /// The sub-quantizers train side by side on the process-wide
    /// [`build_pool`].
    pub fn train(sample: &[f32], dim: usize, metric: Metric, params: &PqParams) -> Result<Pq> {
        Self::train_on(&build_pool(), sample, dim, metric, params)
    }

    /// [`Self::train`] on a given pool. Each sub-quantizer sees only its own
    /// subspace and draws from its own seed (`derive_seed(seed, sub)`), so
    /// the result does not depend on the pool's size or on which thread
    /// trained what.
    pub fn train_on(
        pool: &FanoutPool,
        sample: &[f32],
        dim: usize,
        metric: Metric,
        params: &PqParams,
    ) -> Result<Pq> {
        let ks = params.bits.ks();
        Self::train_with(pool, sample, dim, metric, params, |sub, subdata, dsub| {
            train_kmeans_on(
                pool,
                subdata,
                dsub,
                &KMeansParams {
                    k: ks,
                    max_iters: params.kmeans_iters,
                    seed: derive_seed(params.seed, sub as u64),
                    sample_limit: 16_384,
                },
            )
        })
    }

    /// The fan-out behind [`Self::train_on`], with the per-subspace trainer
    /// `(sub, subvectors, dsub)` as a parameter so tests can fail one.
    fn train_with(
        pool: &FanoutPool,
        sample: &[f32],
        dim: usize,
        metric: Metric,
        params: &PqParams,
        train_sub: impl Fn(usize, &[f32], usize) -> Result<KMeans> + Sync,
    ) -> Result<Pq> {
        if dim == 0 || params.m == 0 || !dim.is_multiple_of(params.m) {
            return Err(BhError::InvalidArgument(format!(
                "pq: m={} must divide dim={dim}",
                params.m
            )));
        }
        if sample.is_empty() || !sample.len().is_multiple_of(dim) {
            return Err(BhError::InvalidArgument("pq: bad sample shape".into()));
        }
        let dsub = dim / params.m;
        let ks = params.bits.ks();
        let slabs = pool
            .run(params.m, params.m, |sub| {
                // Gather the subvectors of this subspace.
                let mut subdata = Vec::with_capacity(sample.len() / params.m);
                for row in sample.chunks_exact(dim) {
                    subdata.extend_from_slice(&row[sub * dsub..(sub + 1) * dsub]);
                }
                let km = train_sub(sub, &subdata, dsub)?;
                // km.k may be < ks when the sample is small; replicate the
                // last centroid so every code id stays decodable.
                let mut slab = Vec::with_capacity(ks * dsub);
                for c in 0..ks {
                    slab.extend_from_slice(km.centroid(c.min(km.k - 1)));
                }
                Ok(slab)
            })
            .into_results()?;
        Self::from_codebooks(&slabs.concat(), dim, params.m, params.bits, metric)
    }

    /// Vector dimensionality the quantizer was trained for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of subspaces.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Code width.
    pub fn bits(&self) -> CodeBits {
        self.bits
    }

    /// Bytes per encoded vector.
    pub fn code_size(&self) -> usize {
        match self.bits {
            CodeBits::B8 => self.m,
            CodeBits::B4 => self.m.div_ceil(2),
        }
    }

    /// Encode one vector into `code_size()` bytes.
    pub fn encode(&self, v: &[f32]) -> Result<Vec<u8>> {
        if v.len() != self.dim {
            return Err(BhError::DimensionMismatch { expected: self.dim, got: v.len() });
        }
        let mut code = vec![0u8; self.code_size()];
        self.encode_into(v, &mut code, &mut vec![0.0; self.m])?;
        Ok(code)
    }

    /// Encode the `rows.len() / dim` row-major vectors of `rows` into
    /// `codes`, `code_size()` bytes each, and raise each of the `m` slots of
    /// `max_sq_err` to the largest squared reconstruction error (distance
    /// to the chosen centroid) of its subspace among them. IVF aggregates
    /// these into the per-subspace worst-case margins that make quantized
    /// pruning against an exact bound sound. Per subspace the rows'
    /// subvectors are laid out once and all of them are assigned in one
    /// [`Codebook::nearest_in`] call.
    pub fn encode_into(
        &self,
        rows: &[f32],
        codes: &mut [u8],
        max_sq_err: &mut [f32],
    ) -> Result<()> {
        let ragged = rows.len() % self.dim;
        if ragged != 0 {
            return Err(BhError::DimensionMismatch { expected: self.dim, got: ragged });
        }
        let (n, cs) = (rows.len() / self.dim, self.code_size());
        if codes.len() != n * cs || max_sq_err.len() != self.m {
            return Err(BhError::InvalidArgument("pq: encode buffers of the wrong size".into()));
        }
        if n == 0 {
            return Ok(());
        }
        codes.fill(0);
        let dsub = self.dsub;
        let mut subvectors = Vec::with_capacity(n * dsub);
        let mut nearest = vec![(0u32, 0.0f32); n];
        for (sub, (book, max_err)) in self.books.iter().zip(max_sq_err.iter_mut()).enumerate() {
            subvectors.clear();
            for v in rows.chunks_exact(self.dim) {
                subvectors.extend_from_slice(&v[sub * dsub..(sub + 1) * dsub]);
            }
            Codebook::new(&subvectors, dsub)?.nearest_in(book, 0, &mut nearest)?;
            for (code, &(id, d)) in codes.chunks_exact_mut(cs).zip(&nearest) {
                *max_err = max_err.max(d.max(0.0));
                match self.bits {
                    CodeBits::B8 => code[sub] = id as u8,
                    CodeBits::B4 => code[sub / 2] |= (id as u8 & 0x0F) << ((sub % 2) * 4),
                }
            }
        }
        Ok(())
    }

    /// Decode a code to its reconstruction.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dim);
        for (sub, book) in self.books.iter().enumerate() {
            book.extend_row(self.code_id(code, sub), &mut out);
        }
        out
    }

    #[inline]
    fn code_id(&self, code: &[u8], sub: usize) -> usize {
        match self.bits {
            CodeBits::B8 => code[sub] as usize,
            CodeBits::B4 => ((code[sub / 2] >> ((sub % 2) * 4)) & 0x0F) as usize,
        }
    }

    /// Build the ADC lookup table for `query`: `m * ks` partial distances.
    pub fn adc_table(&self, query: &[f32]) -> Result<AdcTable> {
        let mut table = AdcTable::default();
        self.adc_table_into(query, &mut table)?;
        Ok(table)
    }

    /// [`Self::adc_table`] into a table the caller reuses — an IVF search
    /// builds one per probed cell.
    pub fn adc_table_into(&self, query: &[f32], out: &mut AdcTable) -> Result<()> {
        if query.len() != self.dim {
            return Err(BhError::DimensionMismatch { expected: self.dim, got: query.len() });
        }
        let ks = self.bits.ks();
        // Cosine rides the L2 form (IVF searches normalized space); the
        // inner-product form is the negated dot itself. L2 entries use the
        // expansion `‖q-c‖² = ‖q‖² + ‖c‖² - 2⟨q,c⟩` with the centroid norms
        // hoisted into the trained model, so each query pays one dot-product
        // pass per subspace instead of a full subtract-square pass.
        out.table.clear();
        out.table.resize(self.m * ks, 0.0);
        (out.ks, out.m, out.bits) = (ks, self.m, self.bits);
        for (sub, book) in self.books.iter().enumerate() {
            let qv = &query[sub * self.dsub..(sub + 1) * self.dsub];
            let slots = &mut out.table[sub * ks..(sub + 1) * ks];
            book.neg_dot_to_all(qv, slots)?;
            if !matches!(self.metric, Metric::InnerProduct) {
                let qn = dot(qv, qv);
                for (c, slot) in slots.iter_mut().enumerate() {
                    // `*slot` holds -⟨q,c⟩; the true L2 value is >= 0, so
                    // clamp the float cancellation residue away.
                    *slot = (qn + self.cent_norms[sub * ks + c] + 2.0 * *slot).max(0.0);
                }
            }
        }
        Ok(())
    }

    /// Resident codebook size in bytes.
    pub fn memory_usage(&self) -> usize {
        self.books.iter().map(Codebook::memory_usage).sum::<usize>() + std::mem::size_of::<Self>()
    }

    /// The codebooks as serialized: subspace-major, centroids row-major.
    fn codebooks(&self) -> Vec<f32> {
        let mut flat = Vec::with_capacity(self.dim * self.bits.ks());
        for book in &self.books {
            for c in 0..book.k() {
                book.extend_row(c, &mut flat);
            }
        }
        flat
    }

    /// Serialize the quantizer into a codec writer.
    pub fn save(&self, w: &mut Writer) {
        w.put_u64(self.dim as u64);
        w.put_u64(self.m as u64);
        w.put_u8(match self.bits {
            CodeBits::B8 => 8,
            CodeBits::B4 => 4,
        });
        w.put_u8(match self.metric {
            Metric::L2 => 0,
            Metric::InnerProduct => 1,
            Metric::Cosine => 2,
        });
        w.put_f32_slice(&self.codebooks());
    }

    /// Deserialize a quantizer written by [`Self::save`].
    pub fn load(r: &mut Reader<'_>) -> Result<Pq> {
        let dim = r.get_u64()? as usize;
        let m = r.get_u64()? as usize;
        let bits = match r.get_u8()? {
            8 => CodeBits::B8,
            4 => CodeBits::B4,
            b => return Err(BhError::Serde(format!("pq: bad bits {b}"))),
        };
        let metric = match r.get_u8()? {
            0 => Metric::L2,
            1 => Metric::InnerProduct,
            2 => Metric::Cosine,
            x => return Err(BhError::Serde(format!("pq: bad metric {x}"))),
        };
        let codebooks = r.get_f32_vec()?;
        if m == 0 || dim == 0 || !dim.is_multiple_of(m) {
            return Err(BhError::Serde("pq: corrupt geometry".into()));
        }
        if codebooks.len() != m * bits.ks() * (dim / m) {
            return Err(BhError::Serde("pq: corrupt codebook size".into()));
        }
        Pq::from_codebooks(&codebooks, dim, m, bits, metric)
    }
}

/// Per-query ADC lookup table. The default is an empty table for
/// [`Pq::adc_table_into`] to fill.
pub struct AdcTable {
    table: Vec<f32>,
    ks: usize,
    m: usize,
    bits: CodeBits,
}

impl Default for AdcTable {
    fn default() -> Self {
        AdcTable { table: Vec::new(), ks: 0, m: 0, bits: CodeBits::B8 }
    }
}

impl AdcTable {
    /// Approximate distance of one code: `m` lookups.
    #[inline]
    pub fn distance(&self, code: &[u8]) -> f32 {
        let mut sum = 0.0;
        match self.bits {
            CodeBits::B8 => {
                for (sub, &c) in code[..self.m].iter().enumerate() {
                    sum += self.table[sub * self.ks + c as usize];
                }
            }
            CodeBits::B4 => {
                for sub in 0..self.m {
                    let id = ((code[sub / 2] >> ((sub % 2) * 4)) & 0x0F) as usize;
                    sum += self.table[sub * self.ks + id];
                }
            }
        }
        sum
    }

    /// Quantize this table for the in-register fast-scan kernel. `None` for
    /// 8-bit tables (they do not fit a shuffle register) and for tables the
    /// `u8` quantization cannot soundly represent — callers fall back to the
    /// scalar [`Self::distance`] path.
    pub fn quantized(&self) -> Option<QuantizedLut> {
        match self.bits {
            CodeBits::B4 => QuantizedLut::build(&self.table, self.m),
            CodeBits::B8 => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{dot, l2_sq};
    use crate::kmeans::train_kmeans;
    use bh_common::rng::rng;
    use rand::Rng;

    fn sample(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut r = rng(seed);
        (0..n * dim).map(|_| r.gen::<f32>() * 2.0 - 1.0).collect()
    }

    #[test]
    fn adc_matches_decode_then_distance_l2() {
        let dim = 16;
        let data = sample(300, dim, 1);
        let pq = Pq::train(&data, dim, Metric::L2, &PqParams::new(4, CodeBits::B8)).unwrap();
        let q = &data[0..dim];
        let t = pq.adc_table(q).unwrap();
        for i in 1..20 {
            let v = &data[i * dim..(i + 1) * dim];
            let code = pq.encode(v).unwrap();
            let adc = t.distance(&code);
            let exact = l2_sq(q, &pq.decode(&code));
            assert!((adc - exact).abs() < 1e-2 * (1.0 + exact), "adc {adc} vs exact {exact}");
        }
    }

    #[test]
    fn four_bit_packs_two_codes_per_byte() {
        let dim = 8;
        let data = sample(200, dim, 2);
        let pq = Pq::train(&data, dim, Metric::L2, &PqParams::new(4, CodeBits::B4)).unwrap();
        assert_eq!(pq.code_size(), 2);
        let code = pq.encode(&data[0..dim]).unwrap();
        assert_eq!(code.len(), 2);
        // decode/ADC agree with 8-bit-style decoding
        let q = &data[dim..2 * dim];
        let t = pq.adc_table(q).unwrap();
        let adc = t.distance(&code);
        let exact = l2_sq(q, &pq.decode(&code));
        assert!((adc - exact).abs() < 1e-2 * (1.0 + exact));
    }

    #[test]
    fn reconstruction_reduces_distance_error_vs_random() {
        // PQ reconstruction of v should be much closer to v than a random
        // other vector is — a coarse sanity bound on codebook quality.
        let dim = 16;
        let data = sample(500, dim, 3);
        let pq = Pq::train(&data, dim, Metric::L2, &PqParams::new(8, CodeBits::B8)).unwrap();
        let mut err_sum = 0.0;
        let mut rand_sum = 0.0;
        for i in 0..50 {
            let v = &data[i * dim..(i + 1) * dim];
            let rec = pq.decode(&pq.encode(v).unwrap());
            err_sum += l2_sq(v, &rec);
            let other = &data[(i + 100) * dim..(i + 101) * dim];
            rand_sum += l2_sq(v, other);
        }
        assert!(err_sum < rand_sum * 0.5, "err {err_sum} vs random {rand_sum}");
    }

    #[test]
    fn inner_product_adc_is_negated_dot() {
        let dim = 8;
        let data = sample(200, dim, 4);
        let pq =
            Pq::train(&data, dim, Metric::InnerProduct, &PqParams::new(4, CodeBits::B8)).unwrap();
        let q = &data[0..dim];
        let t = pq.adc_table(q).unwrap();
        let v = &data[dim..2 * dim];
        let code = pq.encode(v).unwrap();
        let adc = t.distance(&code);
        let exact = -dot(q, &pq.decode(&code));
        assert!((adc - exact).abs() < 1e-2 * (1.0 + exact.abs()));
    }

    #[test]
    fn rejects_bad_geometry() {
        let data = sample(10, 6, 5);
        assert!(Pq::train(&data, 6, Metric::L2, &PqParams::new(4, CodeBits::B8)).is_err()); // 4∤6
        assert!(Pq::train(&data, 0, Metric::L2, &PqParams::new(1, CodeBits::B8)).is_err());
        assert!(Pq::train(&[], 6, Metric::L2, &PqParams::new(2, CodeBits::B8)).is_err());
        let pq = Pq::train(&data, 6, Metric::L2, &PqParams::new(2, CodeBits::B8)).unwrap();
        assert!(pq.encode(&[0.0; 5]).is_err());
        assert!(pq.adc_table(&[0.0; 5]).is_err());
    }

    #[test]
    fn small_sample_replicates_centroids() {
        // Fewer points than ks: every code id must still decode.
        let data = sample(5, 4, 6);
        let pq = Pq::train(&data, 4, Metric::L2, &PqParams::new(2, CodeBits::B8)).unwrap();
        let code = vec![255u8, 255u8];
        let dec = pq.decode(&code);
        assert_eq!(dec.len(), 4);
        assert!(dec.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn serialization_roundtrip() {
        let data = sample(100, 8, 7);
        let pq = Pq::train(&data, 8, Metric::Cosine, &PqParams::new(4, CodeBits::B4)).unwrap();
        let mut w = Writer::new();
        pq.save(&mut w);
        let blob = w.finish();
        let mut r = Reader::new(&blob);
        let pq2 = Pq::load(&mut r).unwrap();
        assert_eq!(pq, pq2);
    }

    fn saved(pq: &Pq) -> Vec<u8> {
        let mut w = Writer::new();
        pq.save(&mut w);
        w.finish().to_vec()
    }

    /// The same codebook bytes on pools of 0, 1 and 3 helpers and on every
    /// kernel tier this machine runs: below `dsub` 8 every distance comes
    /// from the column layouts, whose bits do not depend on the tier, and
    /// the sums are folded in point order wherever the tiles ran. `dsub`
    /// 4 and 3, 700 rows (not a multiple of eight), both code widths.
    #[test]
    fn training_does_not_depend_on_the_pool() {
        for (dim, m) in [(32, 8), (12, 4)] {
            let data = sample(700, dim, 9);
            for bits in [CodeBits::B4, CodeBits::B8] {
                let params = PqParams { m, bits, seed: 5, kmeans_iters: 6 };
                let want = saved(&Pq::train(&data, dim, Metric::L2, &params).unwrap());
                for helpers in [0, 1, 3] {
                    let pool = FanoutPool::new(helpers);
                    let pq = Pq::train_on(&pool, &data, dim, Metric::L2, &params).unwrap();
                    assert!(saved(&pq) == want, "dim {dim} {bits:?}: {helpers} helpers");
                }
                for tier in crate::distance::runnable_tiers() {
                    let pq = crate::distance::with_tier(tier, || {
                        Pq::train_on(&FanoutPool::new(0), &data, dim, Metric::L2, &params).unwrap()
                    });
                    assert!(saved(&pq) == want, "dim {dim} {bits:?}: {tier:?}");
                }
            }
        }
    }

    #[test]
    fn a_failing_sub_quantizer_fails_the_training() {
        let dim = 32;
        let data = sample(200, dim, 10);
        let params = PqParams { m: 8, bits: CodeBits::B4, seed: 1, kmeans_iters: 4 };
        let real = |sub: usize, subdata: &[f32], dsub: usize| {
            train_kmeans(subdata, dsub, &KMeansParams::new(16).with_seed(sub as u64))
        };
        for helpers in [0, 2] {
            let pool = FanoutPool::new(helpers);
            let failing = |sub: usize, subdata: &[f32], dsub: usize| {
                if sub == 3 {
                    return Err(BhError::Index("sub-quantizer 3".into()));
                }
                real(sub, subdata, dsub)
            };
            let failed = Pq::train_with(&pool, &data, dim, Metric::L2, &params, failing);
            assert!(matches!(failed, Err(BhError::Index(_))), "helpers {helpers}");
            let panicking = |sub: usize, subdata: &[f32], dsub: usize| {
                if sub == 5 {
                    std::panic::resume_unwind(Box::new("sub-quantizer 5"));
                }
                real(sub, subdata, dsub)
            };
            let panicked = Pq::train_with(&pool, &data, dim, Metric::L2, &params, panicking);
            assert!(matches!(panicked, Err(BhError::Internal(_))), "helpers {helpers}");
            // Neither left the pool unusable.
            assert!(Pq::train_on(&pool, &data, dim, Metric::L2, &params).is_ok());
        }
    }

    #[test]
    fn reused_buffers_give_the_fresh_answers() {
        let dim = 16;
        let data = sample(300, dim, 11);
        for (m, bits) in [(4, CodeBits::B4), (4, CodeBits::B8), (2, CodeBits::B8)] {
            let pq = Pq::train(&data, dim, Metric::L2, &PqParams::new(m, bits)).unwrap();
            let mut table = AdcTable::default();
            let mut code = vec![0xFFu8; pq.code_size()];
            let mut errs = vec![0.0f32; m];
            let rows = &data[..40 * dim];
            let mut want_max = vec![0.0f32; m];
            for v in rows.chunks_exact(dim) {
                pq.adc_table_into(v, &mut table).unwrap();
                assert_eq!(table.table, pq.adc_table(v).unwrap().table);
                errs.fill(0.0);
                pq.encode_into(v, &mut code, &mut errs).unwrap();
                assert_eq!(code, pq.encode(v).unwrap());
                // Each error is the distance to the chosen centroid.
                let rec = pq.decode(&code);
                for (sub, &e) in errs.iter().enumerate() {
                    let at = sub * dim / m..(sub + 1) * dim / m;
                    assert_eq!(e, l2_sq(&v[at.clone()], &rec[at]));
                    want_max[sub] = want_max[sub].max(e);
                }
            }
            // Many rows in one call: each row's code, the largest errors.
            let mut codes = vec![0xFFu8; 40 * pq.code_size()];
            let mut max_err = vec![0.0f32; m];
            pq.encode_into(rows, &mut codes, &mut max_err).unwrap();
            let one_by_one: Vec<u8> =
                rows.chunks_exact(dim).flat_map(|v| pq.encode(v).unwrap()).collect();
            assert_eq!(codes, one_by_one);
            assert_eq!(max_err, want_max);
            assert!(pq.encode_into(&data[..dim], &mut code[1..], &mut errs).is_err());
            assert!(pq.encode_into(&data[..dim + 1], &mut code, &mut errs).is_err());
        }
    }

    #[test]
    fn memory_scales_with_bits() {
        let data = sample(300, 16, 8);
        let p8 = Pq::train(&data, 16, Metric::L2, &PqParams::new(4, CodeBits::B8)).unwrap();
        let p4 = Pq::train(&data, 16, Metric::L2, &PqParams::new(4, CodeBits::B4)).unwrap();
        assert!(p4.memory_usage() < p8.memory_usage());
        assert_eq!(p8.code_size(), 4);
        assert_eq!(p4.code_size(), 2);
    }
}
