//! # criterion (workspace shim)
//!
//! A small Criterion-compatible benchmark harness so `cargo bench` works
//! without crates.io access. It implements the API surface the workspace's
//! benches use — `criterion_group!` / `criterion_main!`, `Criterion`,
//! benchmark groups, `bench_function` / `bench_with_input`, `BenchmarkId`,
//! `Bencher::iter` — with a simple but honest measurement loop: per sample,
//! run the closure in a timed batch sized to the warm-up estimate, then
//! report the median and min/max across samples in ns/iter.

#![warn(missing_docs)]

use std::fmt::Display;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Positional CLI arguments (everything not starting with `-`), parsed
/// once. Like real Criterion, they act as substring filters over benchmark
/// ids: `cargo bench --bench bench_runtime -- runtime/cost` runs
/// only the matching benchmarks. Flags (including the `--bench` cargo
/// appends) are ignored.
fn filters() -> &'static [String] {
    static FILTERS: OnceLock<Vec<String>> = OnceLock::new();
    FILTERS.get_or_init(|| std::env::args().skip(1).filter(|a| !a.starts_with('-')).collect())
}

/// Whether `name` (a benchmark or group id) matches the CLI filter. True
/// when no filter was given. Bench functions with expensive setup or
/// direct-timing sections outside [`Bencher::iter`] should gate on this so
/// a filtered run (CI smoke mode) skips their work entirely.
pub fn filter_allows(name: &str) -> bool {
    let fs = filters();
    fs.is_empty() || fs.iter().any(|f| name.contains(f.as_str()) || f.contains(name))
}

/// Identifier for a parameterized benchmark, rendered as `name/param`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new<S: Into<String>, P: Display>(name: S, parameter: P) -> Self {
        Self { id: format!("{}/{}", name.into(), parameter) }
    }

    /// Just the parameter as the id.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        Self { id: parameter.to_string() }
    }
}

/// Anything usable as a benchmark id: `&str`, `String`, or [`BenchmarkId`].
pub trait IntoBenchmarkId {
    /// Renders the id.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Runs and times one benchmark body.
#[derive(Debug, Default)]
pub struct Bencher {
    samples: usize,
    /// Per-sample mean ns/iter, filled by [`Bencher::iter`].
    results_ns: Vec<f64>,
}

impl Bencher {
    /// Times `f`, storing per-sample ns/iter estimates.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: estimate the per-call cost for ~50ms.
        let warmup = Duration::from_millis(50);
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < warmup {
            std::hint::black_box(f());
            calls += 1;
        }
        let per_call = start.elapsed().as_secs_f64() / calls as f64;
        // Size batches to ~20ms, at least one call.
        let batch = ((0.02 / per_call.max(1e-9)) as u64).max(1);
        self.results_ns.clear();
        for _ in 0..self.samples.max(3) {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            self.results_ns.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn run_one(full_id: &str, samples: usize, f: &mut dyn FnMut(&mut Bencher)) {
    if !filter_allows(full_id) {
        return;
    }
    let mut b = Bencher { samples, results_ns: Vec::new() };
    f(&mut b);
    if b.results_ns.is_empty() {
        println!("{full_id:<48} (no measurement)");
        return;
    }
    b.results_ns.sort_by(|a, c| a.total_cmp(c));
    let median = b.results_ns[b.results_ns.len() / 2];
    let min = b.results_ns[0];
    let max = b.results_ns[b.results_ns.len() - 1];
    println!("{full_id:<48} time: [{} {} {}]", fmt_ns(min), fmt_ns(median), fmt_ns(max));
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup {
    name: String,
    samples: usize,
}

impl BenchmarkGroup {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n;
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<I: IntoBenchmarkId, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into_id());
        run_one(&full, self.samples, &mut f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I: IntoBenchmarkId, T: ?Sized, F: FnMut(&mut Bencher, &T)>(
        &mut self,
        id: I,
        input: &T,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into_id());
        run_one(&full, self.samples, &mut |b| f(b, input));
        self
    }

    /// Ends the group (separator line, for parity with real Criterion).
    pub fn finish(&mut self) {
        println!();
    }
}

/// The benchmark driver handed to every `criterion_group!` function.
#[derive(Debug)]
pub struct Criterion {
    samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { samples: 10 }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup {
        BenchmarkGroup { name: name.into(), samples: self.samples }
    }

    /// Runs a stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(id, self.samples, &mut f);
        self
    }
}

/// Re-export so benches may use `criterion::black_box`.
pub use std::hint::black_box;

/// Declares a group of benchmark functions, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
