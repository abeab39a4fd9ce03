//! The runtime's CI gates: three measurements of the serving tier, each
//! asserted by this bench so a regression fails `cargo bench`.
//!
//! The `runtime/observability` group measures what the default-on tracing
//! substrate costs: the same cache-miss batch through two otherwise
//! identical services, one with the ring-buffer `TraceSink` and stage
//! probes active (`TraceConfig::Ring`) and one with
//! `TraceConfig::Disabled`. Samples alternate between the two services so
//! machine drift hits both equally; the printed `runtime/observability`
//! line reports the median overhead, gated below 5%.
//!
//! The `runtime/cost` group scores the calibrated cost model: the
//! predicted-vs-actual error factor across one backend per estimator
//! family and a sweep of sizes (two warm-up solves calibrate, three
//! measured solves score; the median is gated < 2×).
//!
//! The `runtime/recovery` group prices solver checkpoint emission on the
//! solve path, gated < 5% — resumability must stay close to free — and
//! checks that every probed job emits a checkpoint.
//!
//! Each group that ran adds its block to `BENCH_runtime.json` at the
//! workspace root. CI runs all three via `cargo bench --bench
//! bench_runtime -- runtime/observability runtime/cost runtime/recovery`
//! (the criterion shim treats positional args as id filters).

use criterion::{criterion_group, criterion_main, Criterion};
use qdm_anneal::sa::SaParams;
use qdm_anneal::sqa::SqaParams;
use qdm_anneal::tabu::TabuParams;
use qdm_core::pipeline::PipelineOptions;
use qdm_core::problem::{Decoded, DmProblem};
use qdm_core::solver::{SaParallelSolver, SaSolver, SqaSolver, TabuSolver};
use qdm_problems::mqo::{MqoInstance, MqoProblem};
use qdm_qubo::model::QuboModel;
use qdm_qubo::probe::{SolverCheckpoint, StageProbe};
use qdm_runtime::cost::CostModel;
use qdm_runtime::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const N_JOBS: usize = 16;

fn workload() -> Vec<Arc<MqoProblem>> {
    (0..N_JOBS as u64)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            Arc::new(MqoProblem::new(MqoInstance::generate(8, 3, 0.35, &mut rng)))
        })
        .collect()
}

fn opts() -> PipelineOptions {
    PipelineOptions { repair: true, ..Default::default() }
}

/// Monotone seed source so every measured iteration is a cache miss.
static SEED: AtomicU64 = AtomicU64::new(1_000_000);

/// The `BENCH_runtime.json` block of every group that ran, in run order;
/// [`write_baseline`] writes them out after the last group.
static BLOCKS: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// A single fast-SA backend so each job costs tens of microseconds and a
/// batch measures the serving path, not solver effort.
fn fast_sa_registry() -> SolverRegistry {
    let mut reg = SolverRegistry::new();
    reg.register(Box::new(SaSolver {
        params: Some(SaParams { sweeps: 30, restarts: 1, ..SaParams::default() }),
    }));
    reg
}

/// Jobs per measured batch in the observability-overhead comparison.
const OBS_JOBS: usize = 8;

/// A service over the 4-backend dense registry with the given trace
/// configuration; everything else identical between the two under test.
fn obs_service(q: &QuboModel, tracing: TraceConfig) -> SolverService {
    SolverService::with_registry(
        dense_registry(q),
        ServiceConfig { workers: 2, cache_capacity: 8, tracing, ..Default::default() },
    )
}

/// One cache-miss batch (fresh seeds) of millisecond-scale solves; the
/// per-job work dwarfs the clock reads so the measured delta is the
/// tracing substrate itself, not timer noise.
fn obs_batch(service: &SolverService, problem: &SharedProblem) -> f64 {
    let batch: Vec<JobSpec> = (0..OBS_JOBS)
        .map(|_| {
            JobSpec::new(Arc::clone(problem), SEED.fetch_add(1, Ordering::Relaxed))
                .on_backend("simulated-annealing")
        })
        .collect();
    let t0 = Instant::now();
    let outcomes = service.run_batch(batch);
    assert!(outcomes.iter().all(|o| o.is_ok()));
    t0.elapsed().as_secs_f64()
}

fn bench_observability(c: &mut Criterion) {
    if !criterion::filter_allows("runtime/observability") {
        return;
    }
    let q = qdm_bench::exp_meta::dense_acceptance_instance();
    let problem: SharedProblem = Arc::new(DenseProblem { qubo: q.clone() });
    let traced = obs_service(&q, TraceConfig::Ring);
    let disabled = obs_service(&q, TraceConfig::Disabled);

    let mut group = c.benchmark_group("runtime/observability");
    group.sample_size(10);
    group.bench_function("traced_batch", |b| b.iter(|| obs_batch(&traced, &problem)));
    group.bench_function("disabled_batch", |b| b.iter(|| obs_batch(&disabled, &problem)));
    group.finish();

    // Headline overhead: alternating reps so drift hits both services
    // equally, medians so a single descheduled batch cannot tip the gate.
    obs_batch(&traced, &problem);
    obs_batch(&disabled, &problem);
    let reps = 9;
    let mut traced_samples = Vec::with_capacity(reps);
    let mut disabled_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        traced_samples.push(obs_batch(&traced, &problem));
        disabled_samples.push(obs_batch(&disabled, &problem));
    }
    let traced_seconds = median(traced_samples);
    let disabled_seconds = median(disabled_samples);
    let overhead_pct = (traced_seconds - disabled_seconds) / disabled_seconds * 100.0;
    println!(
        "runtime/observability: {overhead_pct:+.2}% tracing overhead ({OBS_JOBS} jobs/batch, \
         traced {:.3} ms vs disabled {:.3} ms medians over {reps} alternating reps)",
        traced_seconds * 1e3,
        disabled_seconds * 1e3,
    );
    assert!(
        overhead_pct < 5.0,
        "tracing overhead gate: {overhead_pct:.2}% >= 5% (traced {traced_seconds:.6}s vs \
         disabled {disabled_seconds:.6}s)"
    );
    BLOCKS.lock().unwrap().push(format!(
        "  \"observability\": {{\"jobs_per_batch\": {OBS_JOBS}, \"batch_seconds\": {{\"traced\": \
         {traced_seconds:.6}, \"disabled\": {disabled_seconds:.6}}}, \"overhead_pct\": \
         {overhead_pct:.2}, \"gate_pct\": 5.0}}"
    ));
}

/// The dense instance wrapped as a service-submittable problem.
struct DenseProblem {
    qubo: QuboModel,
}

impl DmProblem for DenseProblem {
    fn name(&self) -> String {
        "bench-dense-256".into()
    }
    fn n_vars(&self) -> usize {
        self.qubo.n_vars()
    }
    fn to_qubo(&self) -> QuboModel {
        self.qubo.clone()
    }
    fn decode(&self, bits: &[bool]) -> Decoded {
        let ones = bits.iter().filter(|&&b| b).count();
        Decoded { feasible: true, objective: 0.0, summary: format!("{ones} set") }
    }
}

/// A 4-backend registry with effort trimmed so a batch of the dense
/// instance finishes in smoke-test time.
fn dense_registry(q: &QuboModel) -> SolverRegistry {
    let sa = SaParams { sweeps: 60, restarts: 2, ..SaParams::scaled_to(q) };
    let sqa = SqaParams { replicas: 6, sweeps: 40, ..SqaParams::scaled_to(q) };
    let mut reg = SolverRegistry::new();
    reg.register(Box::new(SaSolver { params: Some(sa) }));
    reg.register(Box::new(SaParallelSolver { params: Some(sa), threads: None }));
    reg.register(Box::new(TabuSolver {
        params: Some(TabuParams { iterations: 400, restarts: 1, tenure: 10 }),
    }));
    reg.register(Box::new(SqaSolver { params: Some(sqa) }));
    reg
}

/// Minimal pick-one problem sized for the cost-model sweep.
struct PickOne {
    costs: Vec<f64>,
}

impl DmProblem for PickOne {
    fn name(&self) -> String {
        format!("bench-pick-{}", self.costs.len())
    }
    fn n_vars(&self) -> usize {
        self.costs.len()
    }
    fn to_qubo(&self) -> QuboModel {
        let mut q = QuboModel::new(self.costs.len());
        for (i, &c) in self.costs.iter().enumerate() {
            q.add_linear(i, c);
        }
        let vars: Vec<usize> = (0..self.costs.len()).collect();
        let weight = qdm_qubo::penalty::penalty_weight(&q);
        qdm_qubo::penalty::exactly_one(&mut q, &vars, weight);
        q
    }
    fn decode(&self, bits: &[bool]) -> Decoded {
        let ones = bits.iter().filter(|&&b| b).count();
        Decoded { feasible: ones == 1, objective: 0.0, summary: format!("{ones} set") }
    }
}

fn pick(n: usize) -> SharedProblem {
    Arc::new(PickOne { costs: (0..n).map(|i| ((i * 5) % 11) as f64 + 0.5).collect() })
}

/// Problem sizes in the cost-model prediction sweep: n ≥ 10 so per-state
/// solver work dominates the fixed dispatch overhead the estimators also
/// model.
const COST_SIZES: [usize; 3] = [10, 12, 14];
/// One backend per estimator family: exhaustive enumeration, sweep-based
/// annealing, and gate-model evolution.
const COST_BACKENDS: [&str; 3] = ["exact", "simulated-annealing", "adiabatic-evolution"];

fn bench_cost(_c: &mut Criterion) {
    if !criterion::filter_allows("runtime/cost") {
        return;
    }
    let registry = SolverRegistry::standard();
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 256, ..Default::default() });

    // Predicted-vs-actual error across estimator families and sizes. Two
    // warm-up solves calibrate each backend's ratio EWMA, then three
    // measured solves score the prediction that was in force before each
    // observation updated it. The gate is the *median* error factor, < 2x:
    // the analytic curves plus a short calibration must land within a
    // factor of two of reality, while a single descheduled solve cannot
    // tip the gate.
    let model = CostModel::new(registry.len());
    let mut errors: Vec<f64> = Vec::new();
    for name in COST_BACKENDS {
        let idx = registry.find(name).expect("standard-registry backend");
        for n in COST_SIZES {
            let shape = CostShape::from_n_vars(n);
            let analytic = analytic_seconds(&registry.get(idx).spec, shape);
            for rep in 0..5 {
                let spec =
                    JobSpec::new(pick(n), SEED.fetch_add(1, Ordering::Relaxed)).on_backend(name);
                let actual = service.run(spec).expect("cost sweep job solves").report.seconds;
                if rep >= 2 {
                    let predicted = model.predict_seconds(idx, analytic);
                    errors.push((predicted / actual.max(1e-9)).max(actual / predicted));
                }
                model.observe(idx, analytic, actual);
            }
        }
    }
    errors.sort_by(|a, b| a.total_cmp(b));
    let prediction_solves = errors.len();
    let median_error = errors[prediction_solves / 2];
    let max_error = *errors.last().expect("sweep produced measurements");
    println!(
        "runtime/cost prediction: median {median_error:.2}x / max {max_error:.2}x error over \
         {prediction_solves} measured solves ({} families x {COST_SIZES:?} vars, 2 warm-up + 3 \
         measured each)",
        COST_BACKENDS.len(),
    );
    assert!(
        median_error < 2.0,
        "cost-model prediction gate: median error {median_error:.2}x >= 2x over \
         {prediction_solves} solves"
    );

    BLOCKS.lock().unwrap().push(format!(
        "  \"cost\": {{\"prediction\": {{\"solves\": {prediction_solves}, \
         \"median_error_factor\": {median_error:.2}, \"max_error_factor\": {max_error:.2}, \
         \"gate_error_factor\": 2.0}}}}"
    ));
}

/// Jobs per measured batch in the checkpoint-overhead comparison.
const RECOVERY_JOBS: usize = 16;

/// Checkpoint-subscribed probe that only counts emissions: what it prices
/// is the emission machinery itself (the best-assignment clone per restart
/// boundary), not any consumer.
struct CountCheckpoints(AtomicU64);

impl StageProbe for CountCheckpoints {
    fn wants_checkpoints(&self) -> bool {
        true
    }
    fn on_checkpoint(&self, _checkpoint: &SolverCheckpoint) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// One cache-miss batch with an optional per-job probe, seconds per batch.
fn probed_batch(
    service: &SolverService,
    problems: &[Arc<MqoProblem>],
    probe: Option<Arc<dyn StageProbe>>,
) -> f64 {
    let mut options = opts();
    options.probe = probe;
    let batch: Vec<JobSpec> = (0..RECOVERY_JOBS)
        .map(|i| {
            JobSpec::new(
                Arc::clone(&problems[i % problems.len()]) as SharedProblem,
                SEED.fetch_add(1, Ordering::Relaxed),
            )
            .with_options(options.clone())
            .on_backend("simulated-annealing")
        })
        .collect();
    let t0 = Instant::now();
    let outcomes = service.run_batch(batch);
    assert!(outcomes.iter().all(|o| o.is_ok()));
    t0.elapsed().as_secs_f64()
}

fn bench_recovery(_c: &mut Criterion) {
    if !criterion::filter_allows("runtime/recovery") {
        return;
    }
    let problems = workload();
    let plain = SolverService::with_registry(
        fast_sa_registry(),
        ServiceConfig { workers: 1, cache_capacity: 8, ..Default::default() },
    );

    // Checkpoint emission overhead on the solve path, gated <5% —
    // resumability must stay close to free. Alternating reps so drift hits
    // both modes equally, medians so one descheduled batch cannot tip the
    // gate (same discipline as the observability gate).
    let counter = Arc::new(CountCheckpoints(AtomicU64::new(0)));
    probed_batch(&plain, &problems, None);
    probed_batch(&plain, &problems, Some(Arc::clone(&counter) as _));
    let cp_reps = 9;
    let mut plain_samples = Vec::with_capacity(cp_reps);
    let mut checkpoint_samples = Vec::with_capacity(cp_reps);
    for _ in 0..cp_reps {
        plain_samples.push(probed_batch(&plain, &problems, None));
        checkpoint_samples.push(probed_batch(&plain, &problems, Some(Arc::clone(&counter) as _)));
    }
    let plain_per_job = median(plain_samples) / RECOVERY_JOBS as f64;
    let checkpoint_per_job = median(checkpoint_samples) / RECOVERY_JOBS as f64;
    let checkpoint_overhead_pct =
        (checkpoint_per_job - plain_per_job) / plain_per_job.max(1e-12) * 100.0;
    let checkpoints_emitted = counter.0.load(Ordering::Relaxed);
    assert!(
        checkpoints_emitted >= (cp_reps * RECOVERY_JOBS) as u64,
        "every probed job must emit at least one checkpoint"
    );
    println!(
        "runtime/recovery checkpoint: {checkpoint_overhead_pct:+.1}% per-job overhead with \
         checkpoints on ({checkpoints_emitted} emitted; {:.1} µs/job vs {:.1} µs/job medians \
         over {cp_reps} alternating reps)",
        plain_per_job * 1e6,
        checkpoint_per_job * 1e6,
    );
    assert!(
        checkpoint_overhead_pct < 5.0,
        "checkpoint overhead gate: {checkpoint_overhead_pct:.2}% >= 5% \
         (plain {plain_per_job:.9}s/job vs checkpointed {checkpoint_per_job:.9}s/job)"
    );

    BLOCKS.lock().unwrap().push(format!(
        "  \"recovery\": {{\"jobs_per_batch\": {RECOVERY_JOBS}, \"checkpoint\": {{\"emitted\": \
         {checkpoints_emitted}, \"plain_per_job_seconds\": {plain_per_job:.6}, \
         \"checkpoint_per_job_seconds\": {checkpoint_per_job:.6}, \"overhead_pct\": \
         {checkpoint_overhead_pct:.2}, \"gate_pct\": 5.0}}}}"
    ));
}

/// Writes the blocks of the groups that ran to `BENCH_runtime.json` at the
/// workspace root, next to `BENCH_solvers.json`; hand-rolled because the
/// serde shim has no serializer. Writes nothing when the filter ran no
/// group.
fn write_baseline(_c: &mut Criterion) {
    let blocks = BLOCKS.lock().unwrap();
    if blocks.is_empty() {
        return;
    }
    let json = format!("{{\n  \"bench\": \"runtime\",\n{}\n}}\n", blocks.join(",\n"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("runtime/baseline written to BENCH_runtime.json"),
        Err(e) => println!("runtime/baseline NOT written ({e})"),
    }
}

criterion_group!(benches, bench_observability, bench_cost, bench_recovery, write_baseline);
criterion_main!(benches);
