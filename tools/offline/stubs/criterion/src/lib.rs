//! Offline stand-in for `criterion` 0.5, covering what `crates/bench` uses:
//! groups, `bench_function` / `bench_with_input`, `Bencher::iter`,
//! `BenchmarkId`, `Throughput`, and both forms of `criterion_group!`.
//!
//! Each benchmark is warmed up, then run for the configured measurement
//! time; the mean is printed as `ns/iter`. No outlier analysis, no reports.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

#[derive(Debug, Clone)]
pub struct Criterion {
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { measurement_time: Duration::from_secs(1), warm_up_time: Duration::from_millis(300) }
    }
}

impl Criterion {
    /// Accepted and ignored: one mean per benchmark is reported.
    pub fn sample_size(self, _n: usize) -> Self {
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), throughput: None }
    }

    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        self.run(id, None, f);
        self
    }

    fn run(&self, id: &str, throughput: Option<&Throughput>, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher { criterion: self, ns_per_iter: 0.0 };
        f(&mut b);
        let rate = match throughput {
            Some(Throughput::Elements(n)) if b.ns_per_iter > 0.0 => {
                format!("  {:.0} elem/s", *n as f64 * 1e9 / b.ns_per_iter)
            }
            Some(Throughput::Bytes(n)) if b.ns_per_iter > 0.0 => {
                format!("  {:.0} B/s", *n as f64 * 1e9 / b.ns_per_iter)
            }
            _ => String::new(),
        };
        println!("{id:<48} {:>14.1} ns/iter{rate}", b.ns_per_iter);
    }
}

pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into().0);
        self.criterion.run(&id, self.throughput.as_ref(), f);
        self
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    pub fn finish(self) {}
}

pub struct Bencher<'a> {
    criterion: &'a Criterion,
    ns_per_iter: f64,
}

impl Bencher<'_> {
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let warm = Instant::now();
        while warm.elapsed() < self.criterion.warm_up_time {
            black_box(routine());
        }
        let (start, mut iters) = (Instant::now(), 0u64);
        while iters == 0 || start.elapsed() < self.criterion.measurement_time {
            black_box(routine());
            iters += 1;
        }
        self.ns_per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
    }
}

#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        Self(format!("{}/{parameter}", function.into()))
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        Self(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self(s)
    }
}

#[derive(Debug, Clone)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
