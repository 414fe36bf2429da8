//! Vendored, dependency-free micro-benchmark harness exposing the subset
//! of the `criterion` API this workspace's benches use.
//!
//! The build environment has no registry access, so the real `criterion`
//! cannot be fetched. This harness keeps the bench sources unchanged:
//! `Criterion`, `benchmark_group`, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, and the `criterion_group!`/`criterion_main!` macros all
//! work, but the statistics are deliberately simple — per benchmark it
//! runs a calibration pass to size iteration batches, collects a fixed
//! number of samples, and reports the median with min/max.
//!
//! Filtering works like upstream: `cargo bench -- <substring>` runs only
//! benchmarks whose id contains the substring.

use std::time::{Duration, Instant};

/// Target wall-clock budget per benchmark (calibration + sampling).
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(400);

/// A benchmark identifier, `group/function[/parameter]`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter, `name/param`.
    pub fn new(name: impl Into<String>, param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{param}", name.into()),
        }
    }

    /// An id carrying only a parameter.
    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Drives timed iteration batches inside a benchmark closure.
pub struct Bencher {
    samples: Vec<f64>,
    sample_count: usize,
}

impl Bencher {
    /// Times `f`, amortizing per-call overhead over calibrated batches.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // calibrate: how many calls fit in a slice of the time budget?
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < TARGET_SAMPLE_TIME / 4 {
            std::hint::black_box(f());
            calls += 1;
            if calls >= 1_000_000 {
                break;
            }
        }
        let per_sample = (calls / self.sample_count as u64).max(1);
        self.samples.clear();
        for _ in 0..self.sample_count {
            let t = Instant::now();
            for _ in 0..per_sample {
                std::hint::black_box(f());
            }
            self.samples
                .push(t.elapsed().as_secs_f64() / per_sample as f64);
        }
    }
}

/// Top-level harness state: the benchmark filter plus output formatting.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "--bench");
        Criterion { filter }
    }
}

impl Criterion {
    /// Runs one benchmark.
    pub fn bench_function(&mut self, id: impl Into<BenchmarkId>, f: impl FnMut(&mut Bencher)) {
        run_one(&self.filter, None, &id.into().id, 50, f);
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_count: 50,
        }
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_count: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_count = n.max(2);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        run_one(&self.criterion.filter, None, &full, self.sample_count, f);
        self
    }

    /// Runs one benchmark parameterized by an input value.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        run_one(
            &self.criterion.filter,
            None,
            &full,
            self.sample_count,
            |b| f(b, input),
        );
        self
    }

    /// Ends the group (upstream flushes reports here; we print eagerly).
    pub fn finish(&mut self) {}
}

fn run_one(
    filter: &Option<String>,
    _baseline: Option<()>,
    id: &str,
    sample_count: usize,
    mut f: impl FnMut(&mut Bencher),
) {
    if let Some(pat) = filter {
        if !id.contains(pat.as_str()) {
            return;
        }
    }
    let mut bencher = Bencher {
        samples: Vec::new(),
        sample_count,
    };
    f(&mut bencher);
    if bencher.samples.is_empty() {
        println!("{id:<44} (no samples)");
        return;
    }
    bencher
        .samples
        .sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let median = bencher.samples[bencher.samples.len() / 2];
    let min = bencher.samples[0];
    let max = bencher.samples[bencher.samples.len() - 1];
    println!(
        "{id:<44} time: [{} {} {}]",
        format_time(min),
        format_time(median),
        format_time(max)
    );
}

fn format_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion { filter: None };
        // a cheap closure exercises calibration and sampling quickly
        c.bench_function("self_test", |b| b.iter(|| 2u64 + 2));
        let mut group = c.benchmark_group("grouped");
        group.sample_size(5);
        group.bench_with_input(BenchmarkId::new("add", 3), &3u64, |b, &x| b.iter(|| x * 2));
        group.finish();
    }

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("naive", 4).id, "naive/4");
        assert_eq!(BenchmarkId::from_parameter("PS").id, "PS");
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion {
            filter: Some("zzz_never".into()),
        };
        let mut ran = false;
        c.bench_function("something_else", |b| {
            ran = true;
            b.iter(|| ());
        });
        assert!(!ran, "filtered benchmark must not run");
    }
}
