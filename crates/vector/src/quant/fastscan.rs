//! SIMD PQ fast-scan: in-register shuffle-LUT ADC over 4-bit codes.
//!
//! Classic ADC walks one code at a time and gathers `m` table entries from
//! L1 — the gather is the bottleneck, not the adds. Fast-scan (faiss'
//! `PQx4fs`) removes the gather entirely for 4-bit codes: the 16-entry
//! per-subspace lookup table is quantized to `u8` and held *in a SIMD
//! register*, and a byte-shuffle instruction (`vpshufb` on AVX2,
//! `vqtbl1q_u8` on NEON) performs 16–32 table lookups per cycle.
//!
//! Two layout transforms make this work:
//!
//! 1. **Blocked codes** ([`FastScanCodes`]): vectors are grouped into blocks
//!    of 32; within a block the packed code bytes are transposed so byte
//!    `g` of all 32 vectors is contiguous. One 32-byte load then feeds the
//!    shuffle with the code ids of 32 *different* vectors for subspace pair
//!    `(2g, 2g+1)` (low/high nibble).
//! 2. **`u8` LUT quantization** ([`QuantizedLut`]): per-subspace f32 table
//!    entries `t[i][c]` are mapped to `q[i][c] = round((t[i][c] - min_i) /
//!    delta)` with one global `delta = max_i(max_c t[i][c] - min_i) / 255`.
//!    The integer sums accumulate in saturating `u16`; the f32 distance is
//!    reconstructed as `bias + delta * qsum` with `bias = sum_i min_i`.
//!
//! The quantization error is bounded: each entry is off by at most
//! `delta / 2`, so `|d - d̂| <= m * delta / 2` ([`QuantizedLut::error_bound`]).
//! That bound is what lets IVFPQ prune against a [`bh_common::SharedBound`]
//! without ever dropping a true top-k result (see `DESIGN.md` §10).
//!
//! All three kernel tiers compute the *same* saturating-`u16` integer sums
//! in the same order, so the scalar fallback is bit-identical to the SIMD
//! paths — parity tests compare exactly, not within a tolerance.

use crate::distance::KernelTier;
use bh_common::{BhError, Result};

/// Vectors per fast-scan block (two 16-lane shuffles on NEON, one 32-lane
/// pass on AVX2).
pub const BLOCK: usize = 32;

/// 4-bit PQ codes in blocked (transposed) layout.
///
/// Stores the same bytes as the packed per-vector layout — `groups =
/// ceil(m/2)` bytes per vector — but transposed within each 32-vector block:
/// `blocks[block * groups * 32 + g * 32 + lane]` is packed byte `g` of
/// vector `block * 32 + lane`. Incomplete tail blocks are zero-padded so
/// kernels can always issue full 32-byte loads.
#[derive(Debug, Clone, PartialEq)]
pub struct FastScanCodes {
    groups: usize,
    len: usize,
    blocks: Vec<u8>,
}

impl FastScanCodes {
    /// Empty code store for vectors of `groups` packed bytes each
    /// (`groups = ceil(m / 2)` for `m` subspaces).
    pub fn new(groups: usize) -> FastScanCodes {
        FastScanCodes { groups, len: 0, blocks: Vec::new() }
    }

    /// Packed bytes per vector.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Number of vectors stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no vectors are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one vector's packed code (`groups` bytes, two 4-bit ids per
    /// byte) — transposed into its block in place.
    pub fn push(&mut self, packed: &[u8]) -> Result<()> {
        if packed.len() != self.groups {
            return Err(BhError::InvalidArgument(format!(
                "fastscan: packed code len {} != groups {}",
                packed.len(),
                self.groups
            )));
        }
        let lane = self.len % BLOCK;
        if lane == 0 {
            // Start a new zero-padded block.
            self.blocks.resize(self.blocks.len() + self.groups * BLOCK, 0);
        }
        let base = (self.len / BLOCK) * self.groups * BLOCK;
        for (g, &b) in packed.iter().enumerate() {
            self.blocks[base + g * BLOCK + lane] = b;
        }
        self.len += 1;
        Ok(())
    }

    /// Reconstruct the packed per-vector code bytes of vector `i` — the
    /// inverse of the [`Self::push`] transpose, used for serialization
    /// (blobs keep the v1 packed layout) and scalar re-ranking.
    pub fn code_bytes(&self, i: usize) -> Vec<u8> {
        debug_assert!(i < self.len, "fastscan: code index out of range");
        let base = (i / BLOCK) * self.groups * BLOCK;
        let lane = i % BLOCK;
        (0..self.groups).map(|g| self.blocks[base + g * BLOCK + lane]).collect()
    }

    /// Resident size in bytes.
    pub fn memory_usage(&self) -> usize {
        self.blocks.len() + std::mem::size_of::<Self>()
    }
}

/// A `u8`-quantized ADC table laid out for register shuffles.
///
/// Built from a per-query f32 ADC table (`m * 16` entries). `None` when the
/// table cannot be soundly quantized: non-finite entries, or `m > 257`
/// (the `u16` accumulator fits at most `257 * 255`).
#[derive(Debug, Clone)]
pub struct QuantizedLut {
    /// `ceil(m/2) * 32` bytes: group `g` holds 16 entries for subspace `2g`
    /// (low nibble) then 16 for `2g + 1` (high nibble, zeros when `m` odd).
    luts: Vec<u8>,
    groups: usize,
    m: usize,
    /// `sum_i min_i` — added back after integer accumulation.
    bias: f32,
    /// Global quantization step shared by all subspaces.
    delta: f32,
    /// Conservative bound on `|exact ADC - reconstructed|`.
    err: f32,
}

impl QuantizedLut {
    /// Quantize an `m * 16` f32 ADC table (4-bit codes only).
    pub fn build(table: &[f32], m: usize) -> Option<QuantizedLut> {
        const KS: usize = 16;
        // qsum <= m * 255 must fit the u16 accumulator: m <= 257.
        if m == 0 || m > 257 || table.len() != m * KS {
            return None;
        }
        if table.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut mins = vec![0.0f32; m];
        let mut spread = 0.0f32;
        for sub in 0..m {
            let t = &table[sub * KS..(sub + 1) * KS];
            let mn = t.iter().copied().fold(f32::INFINITY, f32::min);
            let mx = t.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            mins[sub] = mn;
            spread = spread.max(mx - mn);
        }
        // spread == 0 means every entry equals its subspace min: all codes
        // quantize to 0 and the reconstruction `bias` is exact.
        let delta = if spread > 0.0 { spread / 255.0 } else { 1.0 };
        let bias: f32 = mins.iter().sum();
        let groups = m.div_ceil(2);
        let mut luts = vec![0u8; groups * 2 * KS];
        for sub in 0..m {
            let half = (sub / 2) * 2 * KS + (sub % 2) * KS;
            for c in 0..KS {
                let q = ((table[sub * KS + c] - mins[sub]) / delta).round();
                luts[half + c] = q.clamp(0.0, 255.0) as u8;
            }
        }
        // Rounding error is delta/2 per subspace; the extra relative slack
        // absorbs the f32 arithmetic of `bias + delta * qsum` vs the exact
        // f32 table sum so the bound stays a true upper bound.
        let err = 0.5 * delta * m as f32 * 1.001 + 1e-5 * (1.0 + bias.abs());
        Some(QuantizedLut { luts, groups, m, bias, delta, err })
    }

    /// Number of subspaces.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Conservative bound on `|exact f32 ADC - reconstructed distance|`,
    /// valid for every code. Callers subtract this before comparing a
    /// quantized distance against an exact pruning threshold.
    pub fn error_bound(&self) -> f32 {
        self.err
    }

    /// Reconstructed approximate distances of every stored code, written to
    /// `out` (one slot per vector), dispatched to the current kernel tier.
    ///
    /// Every tier performs the same saturating-`u16` integer sums in the
    /// same per-lane order, so results are bit-identical across tiers.
    pub fn scan(&self, codes: &FastScanCodes, out: &mut [f32]) -> Result<()> {
        if codes.groups != self.groups {
            return Err(BhError::InvalidArgument(format!(
                "fastscan: code groups {} != lut groups {}",
                codes.groups, self.groups
            )));
        }
        if out.len() != codes.len {
            return Err(BhError::InvalidArgument(format!(
                "fastscan: out len {} != code count {}",
                out.len(),
                codes.len
            )));
        }
        if codes.len == 0 {
            return Ok(());
        }
        match KernelTier::current() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: tier checked: detect() verified avx2; slice shapes
            // validated above and by FastScanCodes/QuantizedLut invariants.
            KernelTier::Avx2 => unsafe {
                avx2::scan(&self.luts, &codes.blocks, self.groups, codes.len, self.bias, self.delta, out)
            },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: tier checked: detect() verified neon; slice shapes
            // validated above and by FastScanCodes/QuantizedLut invariants.
            KernelTier::Neon => unsafe {
                neon::scan(&self.luts, &codes.blocks, self.groups, codes.len, self.bias, self.delta, out)
            },
            _ => self.scan_scalar(codes, out),
        }
        Ok(())
    }

    /// Scalar reference kernel on the blocked layout — public so parity
    /// tests and benchmarks can compare the dispatched tiers against it.
    /// Performs the identical saturating-`u16` arithmetic as the SIMD paths.
    pub fn scan_scalar(&self, codes: &FastScanCodes, out: &mut [f32]) {
        let stride = self.groups * BLOCK;
        for (v, o) in out[..codes.len].iter_mut().enumerate() {
            let base = (v / BLOCK) * stride;
            let lane = v % BLOCK;
            let mut qsum = 0u16;
            for g in 0..self.groups {
                let byte = codes.blocks[base + g * BLOCK + lane];
                let lo = self.luts[g * 32 + (byte & 0x0F) as usize];
                let hi = self.luts[g * 32 + 16 + (byte >> 4) as usize];
                qsum = qsum.saturating_add(lo as u16).saturating_add(hi as u16);
            }
            *o = self.bias + self.delta * qsum as f32;
        }
    }
}

// ------------------------------------------------------------------- avx2

/// AVX2 fast-scan kernel: one `vpshufb` per subspace pair resolves the LUT
/// entries of 32 vectors at once; sums accumulate in saturating `u16`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BLOCK;
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support AVX2. `luts.len() == groups * 32` and
    /// `blocks.len() == ceil(n / 32) * groups * 32` (zero-padded tail), and
    /// `out.len() >= n` — guaranteed by the [`super::QuantizedLut::scan`]
    /// dispatch site via the container invariants.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scan(
        luts: &[u8],
        blocks: &[u8],
        groups: usize,
        n: usize,
        bias: f32,
        delta: f32,
        out: &mut [f32],
    ) {
        // SAFETY: fn contract (see `# Safety`): AVX2 is available and every
        // pointer offset below stays inside the stated slice shapes; all
        // SIMD loads/stores are the unaligned variants.
        unsafe {
            let stride = groups * BLOCK;
            let mask = _mm256_set1_epi8(0x0F);
            let zero = _mm256_setzero_si256();
            let mut acc_lo_arr = [0u16; 16];
            let mut acc_hi_arr = [0u16; 16];
            for b in 0..n.div_ceil(BLOCK) {
                let base = b * stride;
                // Two u16x16 accumulators; the epi8 unpack interleaves
                // within 128-bit halves, so acc_lo carries lanes
                // [0,8)∪[16,24) and acc_hi lanes [8,16)∪[24,32).
                let mut acc_lo = zero;
                let mut acc_hi = zero;
                for g in 0..groups {
                    let lut_lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                        luts.as_ptr().add(g * 32) as *const __m128i,
                    ));
                    let lut_hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                        luts.as_ptr().add(g * 32 + 16) as *const __m128i,
                    ));
                    let cv = _mm256_loadu_si256(blocks.as_ptr().add(base + g * BLOCK) as *const __m256i);
                    let lo_ids = _mm256_and_si256(cv, mask);
                    // epi16 shift drags bits across byte boundaries; the
                    // mask clears them.
                    let hi_ids = _mm256_and_si256(_mm256_srli_epi16(cv, 4), mask);
                    let vlo = _mm256_shuffle_epi8(lut_lo, lo_ids);
                    let vhi = _mm256_shuffle_epi8(lut_hi, hi_ids);
                    acc_lo = _mm256_adds_epu16(acc_lo, _mm256_unpacklo_epi8(vlo, zero));
                    acc_hi = _mm256_adds_epu16(acc_hi, _mm256_unpackhi_epi8(vlo, zero));
                    acc_lo = _mm256_adds_epu16(acc_lo, _mm256_unpacklo_epi8(vhi, zero));
                    acc_hi = _mm256_adds_epu16(acc_hi, _mm256_unpackhi_epi8(vhi, zero));
                }
                _mm256_storeu_si256(acc_lo_arr.as_mut_ptr() as *mut __m256i, acc_lo);
                _mm256_storeu_si256(acc_hi_arr.as_mut_ptr() as *mut __m256i, acc_hi);
                let limit = (n - b * BLOCK).min(BLOCK);
                for v in 0..limit {
                    // Undo the unpack interleave (see accumulator comment).
                    let qsum = match v {
                        0..=7 => acc_lo_arr[v],
                        8..=15 => acc_hi_arr[v - 8],
                        16..=23 => acc_lo_arr[v - 8],
                        _ => acc_hi_arr[v - 16],
                    };
                    out[b * BLOCK + v] = bias + delta * qsum as f32;
                }
            }
        }
    }
}

// ------------------------------------------------------------------- neon

/// NEON fast-scan kernel: `vqtbl1q_u8` resolves 16 LUT entries per shuffle;
/// each 32-vector block is two 16-lane halves.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::BLOCK;
    use std::arch::aarch64::*;

    /// # Safety
    /// The CPU must support NEON. `luts.len() == groups * 32` and
    /// `blocks.len() == ceil(n / 32) * groups * 32` (zero-padded tail), and
    /// `out.len() >= n` — guaranteed by the [`super::QuantizedLut::scan`]
    /// dispatch site via the container invariants.
    #[target_feature(enable = "neon")]
    pub unsafe fn scan(
        luts: &[u8],
        blocks: &[u8],
        groups: usize,
        n: usize,
        bias: f32,
        delta: f32,
        out: &mut [f32],
    ) {
        // SAFETY: fn contract (see `# Safety`): NEON is available and every
        // pointer offset below stays inside the stated slice shapes.
        unsafe {
            let stride = groups * BLOCK;
            let mask = vdupq_n_u8(0x0F);
            let mut qs = [0u16; BLOCK];
            for b in 0..n.div_ceil(BLOCK) {
                let base = b * stride;
                // Four u16x8 accumulators: lanes [0,8), [8,16), [16,24), [24,32).
                let mut acc = [vdupq_n_u16(0); 4];
                for g in 0..groups {
                    let lut_lo = vld1q_u8(luts.as_ptr().add(g * 32));
                    let lut_hi = vld1q_u8(luts.as_ptr().add(g * 32 + 16));
                    for half in 0..2 {
                        let cv = vld1q_u8(blocks.as_ptr().add(base + g * BLOCK + half * 16));
                        let lo_ids = vandq_u8(cv, mask);
                        let hi_ids = vshrq_n_u8(cv, 4);
                        let vlo = vqtbl1q_u8(lut_lo, lo_ids);
                        let vhi = vqtbl1q_u8(lut_hi, hi_ids);
                        acc[half * 2] = vqaddq_u16(acc[half * 2], vmovl_u8(vget_low_u8(vlo)));
                        acc[half * 2 + 1] = vqaddq_u16(acc[half * 2 + 1], vmovl_u8(vget_high_u8(vlo)));
                        acc[half * 2] = vqaddq_u16(acc[half * 2], vmovl_u8(vget_low_u8(vhi)));
                        acc[half * 2 + 1] = vqaddq_u16(acc[half * 2 + 1], vmovl_u8(vget_high_u8(vhi)));
                    }
                }
                for (q, a) in acc.iter().enumerate() {
                    vst1q_u16(qs.as_mut_ptr().add(q * 8), *a);
                }
                let limit = (n - b * BLOCK).min(BLOCK);
                for v in 0..limit {
                    out[b * BLOCK + v] = bias + delta * qs[v] as f32;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::pq::{CodeBits, Pq, PqParams};
    use crate::Metric;
    use bh_common::rng::rng;
    use proptest::prelude::*;
    use rand::Rng;

    fn sample(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut r = rng(seed);
        (0..n * dim).map(|_| r.gen::<f32>() * 2.0 - 1.0).collect()
    }

    /// Build a trained B4 quantizer, its codes in both layouts and a query
    /// LUT for exercising the kernels end to end.
    fn fixture(n: usize, dim: usize, m: usize, seed: u64) -> (Pq, Vec<Vec<u8>>, FastScanCodes, Vec<f32>) {
        let data = sample(n + 1, dim, seed);
        let pq = Pq::train(&data[dim..], dim, Metric::L2, &PqParams::new(m, CodeBits::B4)).unwrap();
        let mut packed = Vec::with_capacity(n);
        let mut blocked = FastScanCodes::new(pq.code_size());
        for i in 1..=n {
            let code = pq.encode(&data[i * dim..(i + 1) * dim]).unwrap();
            blocked.push(&code).unwrap();
            packed.push(code);
        }
        (pq, packed, blocked, data[..dim].to_vec())
    }

    #[test]
    fn blocked_layout_roundtrips_packed_codes() {
        let (_, packed, blocked, _) = fixture(77, 16, 8, 1);
        assert_eq!(blocked.len(), 77);
        for (i, code) in packed.iter().enumerate() {
            assert_eq!(&blocked.code_bytes(i), code, "vector {i}");
        }
    }

    #[test]
    fn push_rejects_wrong_width() {
        let mut c = FastScanCodes::new(4);
        assert!(c.push(&[0u8; 3]).is_err());
        assert!(c.push(&[0u8; 4]).is_ok());
    }

    #[test]
    fn scan_matches_exact_adc_within_error_bound() {
        let (pq, packed, blocked, q) = fixture(100, 32, 8, 2);
        let table = pq.adc_table(&q).unwrap();
        let lut = table.quantized().expect("B4 table must quantize");
        let mut out = vec![0.0f32; blocked.len()];
        lut.scan(&blocked, &mut out).unwrap();
        for (i, code) in packed.iter().enumerate() {
            let exact = table.distance(code);
            assert!(
                (out[i] - exact).abs() <= lut.error_bound(),
                "vector {i}: fast {} vs exact {exact}, bound {}",
                out[i],
                lut.error_bound()
            );
        }
    }

    #[test]
    fn dispatched_scan_is_bit_identical_to_scalar() {
        // Odd m (zero-padded high nibble in the last group) and a ragged
        // tail block both covered.
        for (n, m) in [(1usize, 2usize), (31, 2), (32, 4), (33, 4), (100, 5), (64, 16)] {
            let dim = m * 4;
            let (pq, _, blocked, q) = fixture(n, dim, m, (n * 31 + m) as u64);
            let lut = pq.adc_table(&q).unwrap().quantized().unwrap();
            let mut fast = vec![0.0f32; n];
            let mut reference = vec![0.0f32; n];
            lut.scan(&blocked, &mut fast).unwrap();
            lut.scan_scalar(&blocked, &mut reference);
            assert_eq!(fast, reference, "n={n} m={m}");
        }
    }

    #[test]
    fn scan_rejects_shape_mismatch() {
        let (pq, _, blocked, q) = fixture(10, 16, 4, 3);
        let lut = pq.adc_table(&q).unwrap().quantized().unwrap();
        let mut short = vec![0.0f32; 9];
        assert!(lut.scan(&blocked, &mut short).is_err());
        let other = FastScanCodes::new(blocked.groups() + 1);
        assert!(lut.scan(&other, &mut []).is_err());
    }

    #[test]
    fn build_rejects_unquantizable_tables() {
        assert!(QuantizedLut::build(&[], 0).is_none());
        assert!(QuantizedLut::build(&[0.0; 16], 2).is_none()); // wrong len
        assert!(QuantizedLut::build(&[f32::NAN; 16], 1).is_none());
        // m > 257 overflows the u16 accumulator budget.
        assert!(QuantizedLut::build(&vec![0.0; 258 * 16], 258).is_none());
        assert!(QuantizedLut::build(&[1.0; 16], 1).is_some());
    }

    #[test]
    fn constant_table_reconstructs_exactly() {
        // spread == 0: every code maps to the bias with zero error.
        let table = vec![3.5f32; 2 * 16];
        let lut = QuantizedLut::build(&table, 2).unwrap();
        let mut codes = FastScanCodes::new(1);
        codes.push(&[0x31]).unwrap();
        let mut out = vec![0.0f32; 1];
        lut.scan(&codes, &mut out).unwrap();
        assert_eq!(out[0], 7.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Satellite 4: the fast-scan kernel agrees with the exact scalar
        /// f32 ADC within the documented quantization tolerance, and the
        /// dispatched tier agrees with the blocked scalar path exactly.
        #[test]
        fn prop_fastscan_matches_scalar_adc(
            n in 1usize..96,
            msel in 0usize..4,
            seed in 0u64..30,
        ) {
            let m = [2usize, 4, 7, 8][msel];
            let dim = m * 3;
            let (pq, packed, blocked, q) = fixture(n, dim, m, seed);
            let table = pq.adc_table(&q).unwrap();
            let lut = table.quantized().unwrap();
            let mut fast = vec![0.0f32; n];
            let mut reference = vec![0.0f32; n];
            lut.scan(&blocked, &mut fast).unwrap();
            lut.scan_scalar(&blocked, &mut reference);
            prop_assert_eq!(&fast, &reference);
            for (i, code) in packed.iter().enumerate() {
                let exact = table.distance(code);
                prop_assert!(
                    (fast[i] - exact).abs() <= lut.error_bound(),
                    "vector {}: fast {} exact {} bound {}",
                    i, fast[i], exact, lut.error_bound()
                );
            }
        }
    }
}
