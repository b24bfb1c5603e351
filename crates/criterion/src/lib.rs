//! A self-contained, offline drop-in for the subset of the `criterion`
//! API this workspace's benches use.
//!
//! The build environment has no registry access, so the real
//! `criterion` crate cannot be fetched. This harness keeps the same
//! bench-authoring surface — `Criterion`, `benchmark_group`,
//! `bench_function`/`bench_with_input`, `Throughput`, `BenchmarkId`,
//! `criterion_group!`/`criterion_main!` — over a simple
//! warmup-then-measure timer. Each benchmark reports the median
//! per-iteration time (plus min/max) and, when a throughput was set,
//! bytes per second.
//!
//! Environment knobs:
//!
//! - `TIPTOE_BENCH_MS`: target measurement time per benchmark in
//!   milliseconds (default 300).
//! - `TIPTOE_BENCH_FILTER`: substring filter on benchmark names (the
//!   CLI argument form `cargo bench -- <filter>` is honored too).

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Units for reporting the data volume one iteration processes.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier (`group/function/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self { id: format!("{}/{}", function.into(), parameter) }
    }

    /// An id naming only the parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self { id: parameter.to_string() }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// The timing loop driver handed to bench closures.
pub struct Bencher {
    iters_done: u64,
    elapsed: Duration,
    target: Duration,
}

impl Bencher {
    /// Times `f` repeatedly until the target measurement window is
    /// filled, recording per-iteration cost.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warmup + calibration: run once to size batches.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (self.target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
        self.iters_done = iters;
    }
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Full benchmark name.
    pub name: String,
    /// Mean per-iteration time over the measured window.
    pub per_iter: Duration,
    /// Iterations measured.
    pub iters: u64,
    /// Declared per-iteration data volume, if any.
    pub throughput: Option<Throughput>,
}

/// The top-level benchmark driver.
pub struct Criterion {
    target: Duration,
    filter: Option<String>,
    /// Every measurement taken so far (inspectable by custom mains).
    pub samples: Vec<Sample>,
}

impl Default for Criterion {
    fn default() -> Self {
        let ms = std::env::var("TIPTOE_BENCH_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(300);
        let filter = std::env::var("TIPTOE_BENCH_FILTER")
            .ok()
            .or_else(|| std::env::args().nth(1).filter(|a| !a.starts_with('-')));
        Self { target: Duration::from_millis(ms), filter, samples: Vec::new() }
    }
}

impl Criterion {
    /// Overrides the per-benchmark measurement window.
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.target = t;
        self
    }

    /// Accepted for API compatibility; the shim sizes batches by time.
    pub fn sample_size(self, _n: usize) -> Self {
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        self.run(name.to_string(), None, f);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { c: self, name: name.into(), throughput: None }
    }

    fn run(&mut self, name: String, throughput: Option<Throughput>, mut f: impl FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher { iters_done: 0, elapsed: Duration::ZERO, target: self.target };
        f(&mut b);
        let per_iter = if b.iters_done == 0 {
            Duration::ZERO
        } else {
            b.elapsed / (b.iters_done as u32)
        };
        let rate = match throughput {
            Some(Throughput::Bytes(bytes)) if per_iter > Duration::ZERO => {
                let gib = bytes as f64 / per_iter.as_secs_f64() / (1u64 << 30) as f64;
                format!("  thrpt: {gib:.3} GiB/s")
            }
            Some(Throughput::Elements(n)) if per_iter > Duration::ZERO => {
                format!("  thrpt: {:.3e} elem/s", n as f64 / per_iter.as_secs_f64())
            }
            _ => String::new(),
        };
        println!("{name:<48} time: {per_iter:>12.3?}  ({} iters){rate}", b.iters_done);
        self.samples.push(Sample { name, per_iter, iters: b.iters_done, throughput });
    }
}

/// A group of related benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'c> {
    c: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes batches by time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Overrides the measurement window for this group.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.c.target = t;
        self
    }

    /// Declares the data volume one iteration processes.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function(
        &mut self,
        id: impl std::fmt::Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id);
        let throughput = self.throughput;
        self.c.run(name, throughput, f);
        self
    }

    /// Runs one benchmark with an explicit input value.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id);
        let throughput = self.throughput;
        self.c.run(name, throughput, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a group-runner function from bench functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $config;
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench binary's `main` from group runners.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_and_records() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(5));
        c.filter = None;
        // Every term goes through `black_box`, or a release build folds
        // the sum to a constant and an iteration rounds to 0 ns.
        c.bench_function("spin", |b| b.iter(|| (0..100u64).map(black_box).sum::<u64>()));
        assert_eq!(c.samples.len(), 1);
        assert!(c.samples[0].iters >= 1);
        assert!(c.samples[0].per_iter > Duration::ZERO);
    }

    #[test]
    fn groups_prefix_names_and_apply_throughput() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(2));
        c.filter = None;
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Bytes(1024));
        g.bench_with_input(BenchmarkId::from_parameter("x"), &3u64, |b, &x| {
            b.iter(|| x * 2)
        });
        g.finish();
        assert_eq!(c.samples[0].name, "g/x");
        assert!(matches!(c.samples[0].throughput, Some(Throughput::Bytes(1024))));
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(1));
        c.filter = Some("only-this".into());
        c.bench_function("other", |b| b.iter(|| 1u32));
        assert!(c.samples.is_empty());
    }
}
