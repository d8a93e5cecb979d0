//! Measurement utilities shared by all experiment benches.

use bh_common::sync::{classes, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Wall-clock timer.
pub struct Timer(Instant);

impl Timer {
    /// Start timing now.
    pub fn start() -> Timer {
        Timer(Instant::now())
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Elapsed seconds since start.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

impl Default for Timer {
    fn default() -> Self {
        Self::start()
    }
}

/// Run `f` once per iteration for at least `min_iters` iterations and at
/// least `min_time`; returns queries per second.
pub fn measure_qps(min_iters: usize, min_time: Duration, mut f: impl FnMut()) -> f64 {
    // Warm-up round.
    f();
    let start = Instant::now();
    let mut iters = 0usize;
    while iters < min_iters || start.elapsed() < min_time {
        f();
        iters += 1;
        if iters > 5_000_000 {
            break;
        }
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// Mean latency of `f` over `iters` runs.
pub fn measure_latency(iters: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters.max(1) {
        f();
    }
    start.elapsed() / iters.max(1) as u32
}

/// The median of `samples` (the upper middle one of an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Print an aligned table with a title (the per-figure/table output format).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths.get(i).copied().unwrap_or(8)));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// A counted capacity pool modelling a VW's compute slots. Readers and
/// writers that share one pool contend (the mixed-workload configuration);
/// separate pools are isolated VWs. This turns the interference experiment
/// into a deterministic capacity argument instead of an OS-scheduler race.
pub struct CpuPool {
    state: Mutex<usize>,
    cv: Condvar,
    capacity: usize,
}

impl CpuPool {
    /// A pool with the given number of slots.
    pub fn new(slots: usize) -> CpuPool {
        CpuPool { state: Mutex::new(&classes::BENCH_CPUPOOL, slots), cv: Condvar::new(), capacity: slots }
    }

    /// Configured slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Acquire one slot, blocking until available.
    pub fn acquire(&self) -> CpuSlot<'_> {
        let mut free = self.state.lock();
        while *free == 0 {
            self.cv.wait(&mut free);
        }
        *free -= 1;
        CpuSlot { pool: self }
    }
}

/// RAII guard for one pool slot.
pub struct CpuSlot<'a> {
    pool: &'a CpuPool,
}

impl Drop for CpuSlot<'_> {
    fn drop(&mut self) {
        let mut free = self.pool.state.lock();
        *free += 1;
        self.pool.cv.notify_one();
    }
}

/// Write a fresh benchmark JSON file to `<workspace>/target/bench-fresh/`,
/// where `cargo xtask bench-diff` picks it up and compares it against the
/// committed copy at the workspace root. `name` is the full file name, e.g.
/// `"BENCH_pq.json"`. Failures are reported but never panic: emitting the
/// file is a side product of the printed results, not the benchmark itself.
pub fn write_fresh_json(name: &str, json: &str) {
    // Anchor at the workspace root (bench binaries run with the package
    // directory as cwd).
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap_or_else(|| std::path::Path::new("."))
        .join("target")
        .join("bench-fresh");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(name);
        match std::fs::write(&path, json) {
            Ok(()) => println!("[bench] wrote {}", path.display()),
            Err(e) => eprintln!("[bench] could not write {}: {e}", path.display()),
        }
    }
}

/// Format a `Duration` in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1_000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{:.2}s", us / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn qps_measures_something_positive() {
        let qps = measure_qps(10, Duration::from_millis(1), || {
            std::hint::black_box(1 + 1);
        });
        assert!(qps > 0.0);
    }

    #[test]
    fn latency_is_positive() {
        let lat = measure_latency(5, || {
            std::thread::sleep(Duration::from_micros(100));
        });
        assert!(lat >= Duration::from_micros(80));
    }

    #[test]
    fn pool_limits_concurrency() {
        let pool = Arc::new(CpuPool::new(2));
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for _ in 0..8 {
            let pool = pool.clone();
            let active = active.clone();
            let peak = peak.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    let _slot = pool.acquire();
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(200));
                    active.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "pool over-admitted");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500.0µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "test",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
