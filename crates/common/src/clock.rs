//! Clocks and latency models for the disaggregated-architecture simulation.
//!
//! The paper's environment (remote shared storage, worker-to-worker RPC,
//! Kubernetes scaling) is simulated in-process. Every simulated I/O or RPC
//! charges a latency through a [`LatencyModel`] against a [`Clock`]:
//!
//! * [`RealClock`] actually sleeps, so wall-clock benchmark measurements
//!   (QPS, latency percentiles) reflect the injected costs — this is what the
//!   benchmark harness uses.
//! * [`VirtualClock`] advances an atomic counter without sleeping, so unit
//!   and integration tests are deterministic and fast while still being able
//!   to assert on *accumulated simulated time*.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of elapsed time that can also "spend" simulated latency.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds elapsed since the clock was created.
    fn now_nanos(&self) -> u64;

    /// Charge `d` of simulated latency (sleep or advance).
    fn advance(&self, d: Duration);

    /// Move the clock forward to an absolute `deadline_nanos` (no-op if the
    /// clock is already past it). Unlike `advance`, concurrent `advance_to`
    /// calls targeting overlapping deadlines cost `max(deadlines)`, not the
    /// sum — this is the primitive the [`crate::cq`] reactor uses to make
    /// simultaneous transfers overlap instead of serializing.
    ///
    /// The default implementation loops `advance` over the remaining gap;
    /// [`VirtualClock`] overrides it with an atomic `fetch_max` and
    /// [`RealClock`] sleeps only the remainder, so neither over-advances
    /// under contention.
    fn advance_to(&self, deadline_nanos: u64) {
        loop {
            let now = self.now_nanos();
            if now >= deadline_nanos {
                return;
            }
            self.advance(Duration::from_nanos(deadline_nanos - now));
        }
    }
}

/// Shared, dynamically-dispatched clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// Wall-clock implementation: `advance` really sleeps.
#[derive(Debug)]
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// A wall clock anchored at "now".
    pub fn new() -> Self {
        Self { origin: Instant::now() }
    }

    /// A shared wall clock handle.
    pub fn shared() -> SharedClock {
        Arc::new(Self::new())
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn advance(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }

    fn advance_to(&self, deadline_nanos: u64) {
        // Sleep only the remainder: concurrent sleepers targeting the same
        // deadline all wake around it instead of stacking their sleeps.
        let now = self.now_nanos();
        if now < deadline_nanos {
            std::thread::sleep(Duration::from_nanos(deadline_nanos - now));
        }
    }
}

/// Wall-clock stopwatch for self-instrumentation (metrics timers, CBO
/// micro-calibration probes).
///
/// This is the **only** sanctioned access to `Instant::now()` outside this
/// module — `xtask lint`'s wall-clock rule (DESIGN.md §8) rejects direct
/// calls elsewhere. Routing measurement through one named type keeps the
/// ambient-time surface greppable and lets the simulation distinguish
/// "measuring ourselves" (fine) from "observing wall time in query logic"
/// (breaks virtual-clock determinism).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Nanoseconds since [`Stopwatch::start`], saturating at `u64::MAX`.
    pub fn elapsed_nanos(&self) -> u64 {
        let n = self.start.elapsed().as_nanos();
        u64::try_from(n).unwrap_or(u64::MAX)
    }

    /// Elapsed time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Nanoseconds from `origin`'s start to this stopwatch's (0 if this one
    /// started first): places a timed interval on `origin`'s timeline
    /// without another clock read.
    pub fn nanos_since(&self, origin: &Stopwatch) -> u64 {
        let n = self.start.saturating_duration_since(origin.start).as_nanos();
        u64::try_from(n).unwrap_or(u64::MAX)
    }
}

/// Deterministic test clock: `advance` bumps a counter, never sleeps.
///
/// Note: with concurrent threads the accumulated time is the *sum* of all
/// charged latencies, which models fully-serialized resources; tests that
/// care about overlap should assert per-operation charges instead.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared virtual clock handle.
    pub fn shared() -> SharedClock {
        Arc::new(Self::new())
    }
}

impl Clock for VirtualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    fn advance_to(&self, deadline_nanos: u64) {
        // Monotonic jump: racing callers cost max(deadlines), never the sum.
        self.nanos.fetch_max(deadline_nanos, Ordering::Relaxed);
    }
}

/// A fixed-cost + per-byte latency model, the standard shape for both object
/// storage (`base` = request latency, `per_byte` = 1/bandwidth) and RPC
/// (`base` = round-trip, `per_byte` = serialization + wire cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed cost per operation.
    pub base: Duration,
    /// Additional cost per byte transferred.
    pub per_byte: Duration,
}

impl LatencyModel {
    /// A model that charges nothing — used where a layer should be free
    /// (e.g. in-memory cache hits) or in tests isolating other effects.
    pub const ZERO: LatencyModel =
        LatencyModel { base: Duration::ZERO, per_byte: Duration::ZERO };

    /// A model with a fixed and a per-byte component.
    pub fn new(base: Duration, per_byte: Duration) -> Self {
        Self { base, per_byte }
    }

    /// Fixed-only model.
    pub fn fixed(base: Duration) -> Self {
        Self { base, per_byte: Duration::ZERO }
    }

    /// Convenience constructor from microseconds base and bytes/µs bandwidth.
    /// `bandwidth_bytes_per_us == 0` means infinite bandwidth.
    pub fn from_micros(base_us: u64, bandwidth_bytes_per_us: u64) -> Self {
        let per_byte = if bandwidth_bytes_per_us == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(1_000 / bandwidth_bytes_per_us.max(1))
        };
        Self { base: Duration::from_micros(base_us), per_byte }
    }

    /// Total simulated cost for transferring `bytes`.
    pub fn cost(&self, bytes: usize) -> Duration {
        self.base + self.per_byte.saturating_mul(bytes as u32)
    }

    /// Charge the cost of transferring `bytes` against `clock`.
    pub fn charge(&self, clock: &dyn Clock, bytes: usize) {
        let c = self.cost(bytes);
        if !c.is_zero() {
            clock.advance(c);
        }
    }
}

/// The latency profile of a simulated disaggregated deployment, bundling the
/// three layers the paper distinguishes: remote shared storage, local disk,
/// and worker-to-worker RPC. Defaults approximate the *relative* costs of an
/// S3-like store, NVMe, and intra-cluster RPC, scaled down so benchmarks run
/// in seconds (documented in EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentLatencies {
    /// Shared remote object store (S3-like).
    pub remote_store: LatencyModel,
    /// Worker-local disk cache tier.
    pub local_disk: LatencyModel,
    /// Worker-to-worker RPC.
    pub rpc: LatencyModel,
}

impl DeploymentLatencies {
    /// All-zero profile for logic-only unit tests.
    pub fn zero() -> Self {
        Self {
            remote_store: LatencyModel::ZERO,
            local_disk: LatencyModel::ZERO,
            rpc: LatencyModel::ZERO,
        }
    }

    /// Scaled-down cloud profile used by the benchmark harness:
    /// remote store 2 ms + ~1 GB/s, local disk 80 µs + ~4 GB/s, RPC 200 µs.
    pub fn cloud_scaled() -> Self {
        Self {
            remote_store: LatencyModel::new(
                Duration::from_micros(2_000),
                Duration::from_nanos(1),
            ),
            local_disk: LatencyModel::new(
                Duration::from_micros(80),
                Duration::from_nanos(0),
            ),
            rpc: LatencyModel::fixed(Duration::from_micros(200)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_accumulates() {
        let c = VirtualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(Duration::from_micros(5));
        c.advance(Duration::from_micros(7));
        assert_eq!(c.now_nanos(), 12_000);
    }

    #[test]
    fn advance_to_is_max_not_sum() {
        let c = VirtualClock::new();
        c.advance_to(50_000);
        assert_eq!(c.now_nanos(), 50_000);
        // Earlier deadline: no-op, never rewinds.
        c.advance_to(20_000);
        assert_eq!(c.now_nanos(), 50_000);
        // Racing threads targeting the same window cost max, not sum.
        let c = std::sync::Arc::new(VirtualClock::new());
        let hs: Vec<_> = (1..=8u64)
            .map(|i| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || c.advance_to(i * 10_000))
            })
            .collect();
        for h in hs {
            let _ = h.join();
        }
        assert_eq!(c.now_nanos(), 80_000);
    }

    #[test]
    fn real_clock_advance_to_sleeps_remainder() {
        let c = RealClock::new();
        let target = c.now_nanos() + 2_000_000;
        c.advance_to(target);
        assert!(c.now_nanos() >= target);
        // Past deadlines return immediately.
        let before = c.now_nanos();
        c.advance_to(before.saturating_sub(1_000_000));
        assert!(c.now_nanos() < before + 1_000_000_000);
    }

    #[test]
    fn real_clock_moves_forward() {
        let c = RealClock::new();
        let a = c.now_nanos();
        c.advance(Duration::from_millis(2));
        let b = c.now_nanos();
        assert!(b >= a + 1_000_000, "expected at least 1ms progress, got {}", b - a);
    }

    #[test]
    fn stopwatch_measures_forward() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed_nanos() >= 1_000_000);
        assert!(sw.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn latency_model_cost_is_linear_in_bytes() {
        let m = LatencyModel::new(Duration::from_micros(100), Duration::from_nanos(2));
        assert_eq!(m.cost(0), Duration::from_micros(100));
        assert_eq!(m.cost(1000), Duration::from_micros(102));
    }

    #[test]
    fn zero_model_charges_nothing() {
        let c = VirtualClock::new();
        LatencyModel::ZERO.charge(&c, 1 << 20);
        assert_eq!(c.now_nanos(), 0);
    }

    #[test]
    fn charge_advances_clock() {
        let c = VirtualClock::new();
        let m = LatencyModel::fixed(Duration::from_micros(10));
        m.charge(&c, 123);
        assert_eq!(c.now_nanos(), 10_000);
    }

    #[test]
    fn deployment_profiles() {
        let z = DeploymentLatencies::zero();
        assert_eq!(z.remote_store.cost(100), Duration::ZERO);
        let s = DeploymentLatencies::cloud_scaled();
        assert!(s.remote_store.cost(0) > s.local_disk.cost(0));
        assert!(s.local_disk.cost(0) < s.rpc.cost(0));
    }
}
