//! 8-bit scalar quantization.
//!
//! Each dimension is affinely mapped onto `0..=255` using per-dimension
//! `[min, max]` ranges fitted on a training sample. Distances are computed
//! *asymmetrically*: the query stays in f32 and codes are decoded on the fly,
//! which keeps the recall loss well below symmetric code-to-code distances.

use crate::codec::{Reader, Writer};
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use crate::distance::KernelTier;
use bh_common::{BhError, Result};
use bytes::Bytes;

/// A trained per-dimension affine quantizer.
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8 {
    dim: usize,
    /// Per-dimension lower bound.
    min: Vec<f32>,
    /// Per-dimension step `(max - min) / 255`; zero for constant dimensions.
    step: Vec<f32>,
}

impl Sq8 {
    /// Fit ranges on a row-major training sample.
    pub fn train(sample: &[f32], dim: usize) -> Result<Sq8> {
        if dim == 0 {
            return Err(BhError::InvalidArgument("sq8: dim must be > 0".into()));
        }
        if sample.is_empty() || !sample.len().is_multiple_of(dim) {
            return Err(BhError::InvalidArgument(format!(
                "sq8: sample len {} is not a positive multiple of dim {dim}",
                sample.len()
            )));
        }
        let n = sample.len() / dim;
        let mut min = vec![f32::INFINITY; dim];
        let mut max = vec![f32::NEG_INFINITY; dim];
        for i in 0..n {
            for d in 0..dim {
                let v = sample[i * dim + d];
                min[d] = min[d].min(v);
                max[d] = max[d].max(v);
            }
        }
        let step = min
            .iter()
            .zip(&max)
            .map(|(lo, hi)| {
                let s = (hi - lo) / 255.0;
                if s.is_finite() {
                    s
                } else {
                    0.0
                }
            })
            .collect();
        Ok(Sq8 { dim, min, step })
    }

    /// Vector dimensionality the quantizer was trained for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Encode one vector into `dim` bytes. Out-of-range values clamp, so the
    /// quantizer degrades gracefully on data drift beyond the training range.
    pub fn encode(&self, v: &[f32]) -> Result<Vec<u8>> {
        if v.len() != self.dim {
            return Err(BhError::DimensionMismatch { expected: self.dim, got: v.len() });
        }
        Ok(v.iter()
            .enumerate()
            .map(|(d, &x)| {
                if self.step[d] == 0.0 {
                    0u8
                } else {
                    (((x - self.min[d]) / self.step[d]).round()).clamp(0.0, 255.0) as u8
                }
            })
            .collect())
    }

    /// Decode a code back to an approximate vector.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        code.iter()
            .enumerate()
            .map(|(d, &c)| self.min[d] + c as f32 * self.step[d])
            .collect()
    }

    /// Asymmetric squared-L2 distance between an f32 query and a code.
    ///
    /// On x86_64 with AVX2+FMA the codes are widened u8→f32 in-register
    /// (`cvtepu8` + `cvtepi32_ps`) and decoded with one FMA against the
    /// per-dimension `min`/`step` tables; on aarch64 the NEON path widens
    /// via `vmovl_u8`/`vmovl_u16` + `vcvtq_f32_u32` and decodes with
    /// `vfmaq_f32`; other tiers decode scalar-wise.
    #[inline]
    pub fn asym_l2(&self, query: &[f32], code: &[u8]) -> f32 {
        #[cfg(target_arch = "x86_64")]
        if matches!(KernelTier::current(), KernelTier::Avx2)
            && query.len() >= self.dim
            && code.len() >= self.dim
        {
            // SAFETY: the guard above verified AVX2+FMA and that both slices
            // hold at least `dim` elements.
            return unsafe { self.asym_l2_avx2(query, code) };
        }
        #[cfg(target_arch = "aarch64")]
        if matches!(KernelTier::current(), KernelTier::Neon)
            && query.len() >= self.dim
            && code.len() >= self.dim
        {
            // SAFETY: the guard above verified NEON and that both slices
            // hold at least `dim` elements.
            return unsafe { self.asym_l2_neon(query, code) };
        }
        let mut sum = 0.0;
        for d in 0..self.dim {
            let x = self.min[d] + code[d] as f32 * self.step[d];
            let diff = query[d] - x;
            sum += diff * diff;
        }
        sum
    }

    /// Asymmetric negative inner product.
    #[inline]
    pub fn asym_neg_ip(&self, query: &[f32], code: &[u8]) -> f32 {
        #[cfg(target_arch = "x86_64")]
        if matches!(KernelTier::current(), KernelTier::Avx2)
            && query.len() >= self.dim
            && code.len() >= self.dim
        {
            // SAFETY: the guard above verified AVX2+FMA and that both slices
            // hold at least `dim` elements.
            return unsafe { self.asym_neg_ip_avx2(query, code) };
        }
        #[cfg(target_arch = "aarch64")]
        if matches!(KernelTier::current(), KernelTier::Neon)
            && query.len() >= self.dim
            && code.len() >= self.dim
        {
            // SAFETY: the guard above verified NEON and that both slices
            // hold at least `dim` elements.
            return unsafe { self.asym_neg_ip_neon(query, code) };
        }
        let mut sum = 0.0;
        for d in 0..self.dim {
            let x = self.min[d] + code[d] as f32 * self.step[d];
            sum += query[d] * x;
        }
        -sum
    }

    /// # Safety
    /// Requires AVX2+FMA and `query.len() >= dim && code.len() >= dim`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn asym_l2_avx2(&self, query: &[f32], code: &[u8]) -> f32 {
        use std::arch::x86_64::*;
        // SAFETY: fn contract (see `# Safety`): the required CPU features are
        // enabled and both slices hold at least `dim` elements, so every
        // load and index below stays in bounds.
        unsafe {
            let n = self.dim;
            let mut acc = _mm256_setzero_ps();
            let mut d = 0;
            while d + 8 <= n {
                let cf = load_u8x8_as_f32(code.as_ptr().add(d));
                let x = _mm256_fmadd_ps(
                    cf,
                    _mm256_loadu_ps(self.step.as_ptr().add(d)),
                    _mm256_loadu_ps(self.min.as_ptr().add(d)),
                );
                let diff = _mm256_sub_ps(_mm256_loadu_ps(query.as_ptr().add(d)), x);
                acc = _mm256_fmadd_ps(diff, diff, acc);
                d += 8;
            }
            let mut sum = hsum256(acc);
            while d < n {
                let x = self.min[d] + code[d] as f32 * self.step[d];
                let diff = query[d] - x;
                sum += diff * diff;
                d += 1;
            }
            sum
        }
    }

    /// # Safety
    /// Requires AVX2+FMA and `query.len() >= dim && code.len() >= dim`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn asym_neg_ip_avx2(&self, query: &[f32], code: &[u8]) -> f32 {
        use std::arch::x86_64::*;
        // SAFETY: fn contract (see `# Safety`): the required CPU features are
        // enabled and both slices hold at least `dim` elements, so every
        // load and index below stays in bounds.
        unsafe {
            let n = self.dim;
            let mut acc = _mm256_setzero_ps();
            let mut d = 0;
            while d + 8 <= n {
                let cf = load_u8x8_as_f32(code.as_ptr().add(d));
                let x = _mm256_fmadd_ps(
                    cf,
                    _mm256_loadu_ps(self.step.as_ptr().add(d)),
                    _mm256_loadu_ps(self.min.as_ptr().add(d)),
                );
                acc = _mm256_fmadd_ps(_mm256_loadu_ps(query.as_ptr().add(d)), x, acc);
                d += 8;
            }
            let mut sum = hsum256(acc);
            while d < n {
                let x = self.min[d] + code[d] as f32 * self.step[d];
                sum += query[d] * x;
                d += 1;
            }
            -sum
        }
    }

    /// # Safety
    /// Requires NEON and `query.len() >= dim && code.len() >= dim`.
    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn asym_l2_neon(&self, query: &[f32], code: &[u8]) -> f32 {
        use std::arch::aarch64::*;
        // SAFETY: fn contract (see `# Safety`): the required CPU features are
        // enabled and both slices hold at least `dim` elements, so every
        // load and index below stays in bounds.
        unsafe {
            let n = self.dim;
            let (pq, pc) = (query.as_ptr(), code.as_ptr());
            let (pmin, pstep) = (self.min.as_ptr(), self.step.as_ptr());
            let mut acc0 = vdupq_n_f32(0.0);
            let mut acc1 = vdupq_n_f32(0.0);
            let mut d = 0usize;
            while d + 8 <= n {
                let (c0, c1) = load_u8x8_as_f32x2(pc.add(d));
                let x0 = vfmaq_f32(vld1q_f32(pmin.add(d)), c0, vld1q_f32(pstep.add(d)));
                let x1 = vfmaq_f32(vld1q_f32(pmin.add(d + 4)), c1, vld1q_f32(pstep.add(d + 4)));
                let d0 = vsubq_f32(vld1q_f32(pq.add(d)), x0);
                let d1 = vsubq_f32(vld1q_f32(pq.add(d + 4)), x1);
                acc0 = vfmaq_f32(acc0, d0, d0);
                acc1 = vfmaq_f32(acc1, d1, d1);
                d += 8;
            }
            let mut sum = vaddvq_f32(vaddq_f32(acc0, acc1));
            while d < n {
                let x = self.min[d] + code[d] as f32 * self.step[d];
                let diff = query[d] - x;
                sum += diff * diff;
                d += 1;
            }
            sum
        }
    }

    /// # Safety
    /// Requires NEON and `query.len() >= dim && code.len() >= dim`.
    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    unsafe fn asym_neg_ip_neon(&self, query: &[f32], code: &[u8]) -> f32 {
        use std::arch::aarch64::*;
        // SAFETY: fn contract (see `# Safety`): the required CPU features are
        // enabled and both slices hold at least `dim` elements, so every
        // load and index below stays in bounds.
        unsafe {
            let n = self.dim;
            let (pq, pc) = (query.as_ptr(), code.as_ptr());
            let (pmin, pstep) = (self.min.as_ptr(), self.step.as_ptr());
            let mut acc0 = vdupq_n_f32(0.0);
            let mut acc1 = vdupq_n_f32(0.0);
            let mut d = 0usize;
            while d + 8 <= n {
                let (c0, c1) = load_u8x8_as_f32x2(pc.add(d));
                let x0 = vfmaq_f32(vld1q_f32(pmin.add(d)), c0, vld1q_f32(pstep.add(d)));
                let x1 = vfmaq_f32(vld1q_f32(pmin.add(d + 4)), c1, vld1q_f32(pstep.add(d + 4)));
                acc0 = vfmaq_f32(acc0, vld1q_f32(pq.add(d)), x0);
                acc1 = vfmaq_f32(acc1, vld1q_f32(pq.add(d + 4)), x1);
                d += 8;
            }
            let mut sum = vaddvq_f32(vaddq_f32(acc0, acc1));
            while d < n {
                let x = self.min[d] + code[d] as f32 * self.step[d];
                sum += query[d] * x;
                d += 1;
            }
            -sum
        }
    }

    /// Worst-case per-dimension reconstruction error (half a step).
    pub fn max_abs_error(&self, d: usize) -> f32 {
        self.step[d] * 0.5
    }

    /// Serialized + resident size in bytes.
    pub fn memory_usage(&self) -> usize {
        self.dim * 8 + std::mem::size_of::<Self>()
    }

    /// Serialize into a codec writer.
    pub fn save(&self, w: &mut Writer) {
        w.put_u64(self.dim as u64);
        w.put_f32_slice(&self.min);
        w.put_f32_slice(&self.step);
    }

    /// Deserialize a quantizer written by [`Self::save`].
    pub fn load(r: &mut Reader<'_>) -> Result<Sq8> {
        let dim = r.get_u64()? as usize;
        let min = r.get_f32_vec()?;
        let step = r.get_f32_vec()?;
        if min.len() != dim || step.len() != dim {
            return Err(BhError::Serde("sq8: corrupt dimension data".into()));
        }
        Ok(Sq8 { dim, min, step })
    }

    /// Standalone blob round-trip helpers used in tests.
    pub fn to_bytes(&self) -> Bytes {
        let mut w = Writer::new();
        self.save(&mut w);
        w.finish()
    }

    /// Deserialize a standalone blob written by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Sq8> {
        let mut r = Reader::new(bytes);
        Self::load(&mut r)
    }
}

/// Load 8 `u8` codes and widen to a `f32x8` register.
///
/// # Safety
/// Requires AVX2 and 8 readable bytes at `p`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn load_u8x8_as_f32(p: *const u8) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    // SAFETY: fn contract: 8 readable bytes at `p`; the widening
    // conversions are value-only.
    unsafe {
        let raw = _mm_loadl_epi64(p as *const __m128i);
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(raw))
    }
}

/// Load 8 `u8` codes and widen to two `f32x4` registers (low, high).
///
/// # Safety
/// Requires NEON and 8 readable bytes at `p`.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn load_u8x8_as_f32x2(
    p: *const u8,
) -> (std::arch::aarch64::float32x4_t, std::arch::aarch64::float32x4_t) {
    use std::arch::aarch64::*;
    // SAFETY: fn contract: 8 readable bytes at `p`; the widening
    // conversions are value-only.
    unsafe {
        let raw = vmovl_u8(vld1_u8(p));
        let lo = vcvtq_f32_u32(vmovl_u16(vget_low_u16(raw)));
        let hi = vcvtq_f32_u32(vmovl_u16(vget_high_u16(raw)));
        (lo, hi)
    }
}

/// Horizontal sum of a `f32x8` register.
///
/// # Safety
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum256(v: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    // Value-only lane shuffles: safe to call inside this `#[target_feature]`
    // fn, so no inner `unsafe` block is needed.
    let hi = _mm256_extractf128_ps(v, 1);
    let lo = _mm256_castps256_ps128(v);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    _mm_cvtss_f32(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::l2_sq;
    use bh_common::rng::rng;
    use proptest::prelude::*;
    use rand::Rng;

    fn sample(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut r = rng(seed);
        (0..n * dim).map(|_| r.gen::<f32>() * 6.0 - 3.0).collect()
    }

    #[test]
    fn encode_decode_error_bounded_by_half_step() {
        let dim = 16;
        let data = sample(100, dim, 1);
        let sq = Sq8::train(&data, dim).unwrap();
        for i in 0..100 {
            let v = &data[i * dim..(i + 1) * dim];
            let code = sq.encode(v).unwrap();
            let dec = sq.decode(&code);
            for d in 0..dim {
                let err = (v[d] - dec[d]).abs();
                assert!(
                    err <= sq.max_abs_error(d) + 1e-5,
                    "dim {d}: err {err} > bound {}",
                    sq.max_abs_error(d)
                );
            }
        }
    }

    #[test]
    fn asym_l2_matches_decode_then_l2() {
        let dim = 8;
        let data = sample(50, dim, 2);
        let sq = Sq8::train(&data, dim).unwrap();
        let q = &data[0..dim];
        let code = sq.encode(&data[dim..2 * dim]).unwrap();
        let fast = sq.asym_l2(q, &code);
        let slow = l2_sq(q, &sq.decode(&code));
        assert!((fast - slow).abs() < 1e-3 * (1.0 + slow));
    }

    #[test]
    fn asym_kernels_match_scalar_decode_path() {
        // Exercises the dispatched u8→f32 kernels on every remainder shape.
        for dim in [1usize, 7, 8, 9, 16, 31, 64, 100] {
            let data = sample(30, dim, dim as u64);
            let sq = Sq8::train(&data, dim).unwrap();
            let q = &data[0..dim];
            for i in 1..10 {
                let code = sq.encode(&data[i * dim..(i + 1) * dim]).unwrap();
                let dec = sq.decode(&code);
                let l2_ref = l2_sq(q, &dec);
                assert!((sq.asym_l2(q, &code) - l2_ref).abs() < 1e-3 * (1.0 + l2_ref));
                let ip_ref = -crate::distance::dot(q, &dec);
                assert!((sq.asym_neg_ip(q, &code) - ip_ref).abs() < 1e-3 * (1.0 + ip_ref.abs()));
            }
        }
    }

    #[test]
    fn constant_dimension_is_stable() {
        // Second dimension constant → step 0 → decodes exactly.
        let data = vec![1.0, 5.0, 2.0, 5.0, 3.0, 5.0];
        let sq = Sq8::train(&data, 2).unwrap();
        let code = sq.encode(&[2.0, 5.0]).unwrap();
        let dec = sq.decode(&code);
        assert_eq!(dec[1], 5.0);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let data = vec![0.0, 1.0]; // 1-d, range [0,1]
        let sq = Sq8::train(&data, 1).unwrap();
        let lo = sq.encode(&[-100.0]).unwrap();
        let hi = sq.encode(&[100.0]).unwrap();
        assert_eq!(lo[0], 0);
        assert_eq!(hi[0], 255);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Sq8::train(&[], 4).is_err());
        assert!(Sq8::train(&[1.0, 2.0, 3.0], 2).is_err());
        let sq = Sq8::train(&[0.0, 1.0], 1).unwrap();
        assert!(sq.encode(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn serialization_roundtrip() {
        let data = sample(20, 6, 3);
        let sq = Sq8::train(&data, 6).unwrap();
        let b = sq.to_bytes();
        let sq2 = Sq8::from_bytes(&b).unwrap();
        assert_eq!(sq, sq2);
    }

    #[test]
    fn corrupt_blob_rejected() {
        let data = sample(5, 4, 4);
        let sq = Sq8::train(&data, 4).unwrap();
        let b = sq.to_bytes();
        assert!(Sq8::from_bytes(&b[..b.len() / 2]).is_err());
    }

    proptest! {
        #[test]
        fn prop_reconstruction_within_bound(
            n in 2usize..30,
            dim in 1usize..12,
            seed in 0u64..100,
        ) {
            let data = sample(n, dim, seed);
            let sq = Sq8::train(&data, dim).unwrap();
            for i in 0..n {
                let v = &data[i * dim..(i + 1) * dim];
                let dec = sq.decode(&sq.encode(v).unwrap());
                for d in 0..dim {
                    prop_assert!((v[d] - dec[d]).abs() <= sq.max_abs_error(d) + 1e-4);
                }
            }
        }

        #[test]
        fn prop_neg_ip_matches_decode(
            dim in 1usize..10,
            seed in 0u64..50,
        ) {
            let data = sample(10, dim, seed);
            let sq = Sq8::train(&data, dim).unwrap();
            let q = &data[0..dim];
            let code = sq.encode(&data[dim..2 * dim]).unwrap();
            let fast = sq.asym_neg_ip(q, &code);
            let slow = -crate::distance::dot(q, &sq.decode(&code));
            prop_assert!((fast - slow).abs() < 1e-3 * (1.0 + slow.abs()));
        }
    }
}
