//! Shared top-k pruning bound for batched / fanned-out query execution.
//!
//! Every worker scanning a segment on behalf of the same query holds a
//! reference to one [`SharedBound`]: the smallest *exact* k-th distance any
//! worker has proven so far. A candidate (or a whole distance batch / posting
//! list) whose best possible distance is strictly greater than the bound can
//! never enter the final global top-k, so scans may skip it without changing
//! results.
//!
//! Correctness contract (see DESIGN.md §7):
//!
//! * **Publish only exact thresholds.** A worker may lower the bound only to
//!   a value `t` such that at least `k` rows with *exact* distance `<= t` are
//!   known to exist (e.g. a full local [`crate::TopK`] over exact distances).
//!   Quantized (ADC/SQ) distances are approximations and must never be
//!   published.
//! * **Prune strictly.** Skip a candidate only when `d > bound`. Candidates
//!   with `d == bound` are kept, so among distinct distances the merged
//!   global top-k is unchanged. (With exactly tied distances beyond position
//!   k, which id survives was already heap-order dependent before pruning.)
//!
//! The bound is an `AtomicU32` holding the `f32` bit pattern, updated with a
//! CAS-min loop that compares **as floats** — IP/cosine distances are
//! negative, and negative floats do not order correctly as raw bits.

use crate::qctx::QueryCtx;
#[cfg(loom)]
use crate::loom::sync::atomic::{AtomicU32, AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Monotonically decreasing upper bound on one query's k-th nearest distance,
/// shared across fan-out workers. Starts at `+inf` (no pruning).
#[derive(Debug)]
pub struct SharedBound {
    /// `f32` bit pattern of the current bound.
    bits: AtomicU32,
    /// How many candidates were skipped thanks to this bound (observability).
    skips: AtomicU64,
}

impl Default for SharedBound {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedBound {
    pub fn new() -> Self {
        Self { bits: AtomicU32::new(f32::INFINITY.to_bits()), skips: AtomicU64::new(0) }
    }

    /// Current bound. `+inf` until the first publish.
    #[inline]
    pub fn get(&self) -> f32 {
        f32::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Lower the bound to `d` if `d` is smaller than the current value.
    /// `d` must be an exact (non-approximate) k-th distance; NaN is ignored.
    #[inline]
    pub fn update(&self, d: f32) {
        if d.is_nan() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            if d >= f32::from_bits(cur) {
                return;
            }
            match self.bits.compare_exchange_weak(
                cur,
                d.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record `n` candidates skipped because they could not beat the bound,
    /// here and on the statement whose scan skipped them.
    #[inline]
    pub fn record_skips(&self, n: u64) {
        if n > 0 {
            self.skips.fetch_add(n, Ordering::Relaxed);
            QueryCtx::with(|c| c.tally.bound_skips.add(n));
        }
    }

    /// Total candidates skipped so far.
    pub fn skips(&self) -> u64 {
        self.skips.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_unbounded() {
        let b = SharedBound::new();
        assert_eq!(b.get(), f32::INFINITY);
        assert_eq!(b.skips(), 0);
    }

    #[test]
    fn update_is_monotonic_min() {
        let b = SharedBound::new();
        b.update(5.0);
        assert_eq!(b.get(), 5.0);
        b.update(7.0); // larger: ignored
        assert_eq!(b.get(), 5.0);
        b.update(2.5);
        assert_eq!(b.get(), 2.5);
        b.update(2.5); // equal: no-op
        assert_eq!(b.get(), 2.5);
    }

    #[test]
    fn handles_negative_distances() {
        // Inner-product distances are negated dots, so bounds go negative.
        // Raw-bit comparison would order -1.0 (0xBF80_0000) above 1.0.
        let b = SharedBound::new();
        b.update(1.0);
        b.update(-1.0);
        assert_eq!(b.get(), -1.0);
        b.update(-0.5); // worse than -1.0 for a min
        assert_eq!(b.get(), -1.0);
        b.update(-2.0);
        assert_eq!(b.get(), -2.0);
    }

    #[test]
    fn nan_is_ignored() {
        let b = SharedBound::new();
        b.update(f32::NAN);
        assert_eq!(b.get(), f32::INFINITY);
        b.update(3.0);
        b.update(f32::NAN);
        assert_eq!(b.get(), 3.0);
    }

    #[test]
    fn skip_counter_accumulates() {
        let b = SharedBound::new();
        b.record_skips(0);
        assert_eq!(b.skips(), 0);
        b.record_skips(3);
        b.record_skips(4);
        assert_eq!(b.skips(), 7);
    }

    #[test]
    fn concurrent_updates_settle_on_min() {
        let b = Arc::new(SharedBound::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for i in 0..1000 {
                        b.update((t * 1000 + i) as f32 * 0.01 + 1.0);
                    }
                });
            }
        });
        assert_eq!(b.get(), 1.0);
    }
}
