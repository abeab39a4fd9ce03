//! Per-layer instrumentation for the traced run, all of it outside the
//! runtime: delegating timers around the three extension points the
//! runtime calls into (`DmProblem`, `QuboSolver`, `Journal`) and a trace
//! sink that keeps every `JobTrace`. Each timer delegates every trait
//! method and keeps `name()`, `kind()` and `max_vars()` unchanged, so the
//! runtime routes, caches and journals exactly as it does unwrapped.

use qdm_core::problem::{Decoded, DmProblem};
use qdm_core::solver::{full_registry, QuboSolver, SolverKind};
use qdm_qubo::compiled::CompiledQubo;
use qdm_qubo::model::QuboModel;
use qdm_qubo::probe::StageProbe;
use qdm_qubo::solve::SolveResult;
use qdm_runtime::journal::{Journal, JournalEvent};
use qdm_runtime::registry::SolverRegistry;
use qdm_runtime::service::SharedProblem;
use qdm_runtime::trace::{JobTrace, TraceConfig, TraceSink};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const POISONED: &str = "a worker panicked while recording a timing";

/// Call durations, in nanoseconds.
#[derive(Default)]
struct Durations(Mutex<Vec<u64>>);

impl Durations {
    fn record(&self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.0.lock().expect(POISONED).push(ns);
    }

    fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.0.lock().expect(POISONED))
    }
}

/// Calls into one backend and the time spent inside them.
#[derive(Default)]
struct KernelTime {
    calls: AtomicU64,
    ns: AtomicU64,
}

#[derive(Default)]
struct LayerStats {
    encode: Durations,
    decode: Durations,
    journal_append: Durations,
    kernels: Mutex<Vec<(String, Arc<KernelTime>)>>,
}

/// What the timers recorded since the last snapshot.
pub struct LayerSnapshot {
    pub encode_ns: Vec<u64>,
    pub decode_ns: Vec<u64>,
    pub journal_append_ns: Vec<u64>,
    /// Per registered backend (one entry per shard): name, calls, and
    /// nanoseconds inside the solver.
    pub kernels: Vec<(String, u64, u64)>,
}

/// The traced run's instruments: the layer timers and the trace sink.
#[derive(Clone, Default)]
pub struct Tracing {
    stats: Arc<LayerStats>,
    sink: Arc<CollectSink>,
}

impl Tracing {
    pub fn trace_config(&self) -> TraceConfig {
        TraceConfig::Custom(Arc::clone(&self.sink) as Arc<dyn TraceSink>)
    }

    /// The standard registry with every backend behind a timer, in the
    /// standard order, so backend indices — and routing — are unchanged.
    pub fn registry(&self) -> SolverRegistry {
        let mut registry = SolverRegistry::new();
        let mut kernels = self.stats.kernels.lock().expect(POISONED);
        for inner in full_registry() {
            let time = Arc::new(KernelTime::default());
            kernels.push((inner.name().to_string(), Arc::clone(&time)));
            registry.register(Box::new(TimedSolver { inner, time }));
        }
        registry
    }

    pub fn journal(&self, inner: Arc<dyn Journal>) -> Arc<dyn Journal> {
        Arc::new(TimedJournal { inner, stats: Arc::clone(&self.stats) })
    }

    pub fn problem(&self, inner: SharedProblem) -> SharedProblem {
        Arc::new(TimedProblem { inner, stats: Arc::clone(&self.stats) })
    }

    /// Takes everything recorded so far: the layer timings and the traces.
    pub fn take(&self) -> (LayerSnapshot, Vec<JobTrace>) {
        let stats = &self.stats;
        let kernels = stats
            .kernels
            .lock()
            .expect(POISONED)
            .iter()
            .map(|(name, time)| {
                let calls = time.calls.swap(0, Ordering::Relaxed);
                (name.clone(), calls, time.ns.swap(0, Ordering::Relaxed))
            })
            .collect();
        let snapshot = LayerSnapshot {
            encode_ns: stats.encode.take(),
            decode_ns: stats.decode.take(),
            journal_append_ns: stats.journal_append.take(),
            kernels,
        };
        let traces = std::mem::take(&mut *self.sink.0.lock().expect(POISONED));
        (snapshot, traces)
    }
}

/// Times `to_qubo` (encode) and `decode`.
struct TimedProblem {
    inner: SharedProblem,
    stats: Arc<LayerStats>,
}

impl DmProblem for TimedProblem {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn n_vars(&self) -> usize {
        self.inner.n_vars()
    }

    fn to_qubo(&self) -> QuboModel {
        let start = Instant::now();
        let model = self.inner.to_qubo();
        self.stats.encode.record(start);
        model
    }

    fn decode(&self, bits: &[bool]) -> Decoded {
        let start = Instant::now();
        let decoded = self.inner.decode(bits);
        self.stats.decode.record(start);
        decoded
    }

    fn repair(&self, bits: &[bool]) -> Vec<bool> {
        self.inner.repair(bits)
    }
}

/// Times every solve entry point of one backend.
struct TimedSolver {
    inner: Box<dyn QuboSolver + Send + Sync>,
    time: Arc<KernelTime>,
}

impl TimedSolver {
    fn timed(&self, solve: impl FnOnce() -> SolveResult) -> SolveResult {
        let start = Instant::now();
        let result = solve();
        self.time.calls.fetch_add(1, Ordering::Relaxed);
        self.time.ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

impl QuboSolver for TimedSolver {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> SolverKind {
        self.inner.kind()
    }

    fn max_vars(&self) -> usize {
        self.inner.max_vars()
    }

    fn solve_compiled(&self, c: &CompiledQubo, rng: &mut StdRng) -> SolveResult {
        self.timed(|| self.inner.solve_compiled(c, rng))
    }

    fn solve(&self, q: &QuboModel, rng: &mut StdRng) -> SolveResult {
        self.timed(|| self.inner.solve(q, rng))
    }

    fn solve_observed(
        &self,
        c: &CompiledQubo,
        rng: &mut StdRng,
        probe: &dyn StageProbe,
    ) -> SolveResult {
        self.timed(|| self.inner.solve_observed(c, rng, probe))
    }
}

/// Times `append`.
struct TimedJournal {
    inner: Arc<dyn Journal>,
    stats: Arc<LayerStats>,
}

impl Journal for TimedJournal {
    fn append(&self, event: JournalEvent) {
        let start = Instant::now();
        self.inner.append(event);
        self.stats.journal_append.record(start);
    }

    fn events(&self) -> Vec<JournalEvent> {
        self.inner.events()
    }
}

/// Keeps every trace it is handed.
#[derive(Default)]
struct CollectSink(Mutex<Vec<JobTrace>>);

impl TraceSink for CollectSink {
    fn record(&self, trace: JobTrace) {
        self.0.lock().expect(POISONED).push(trace);
    }
}
