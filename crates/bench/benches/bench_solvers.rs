//! E2/E7 — solver benchmarks: every Fig. 2 route timed on the same QUBO,
//! annealing scaling with problem size, and the compiled-CSR vs.
//! model-coupling-scan comparison (`solvers/*`; the `model` keys time
//! the `QuboModel` path) whose headline ratio is printed
//! as `solvers/compiled_speedup` and recorded in `BENCH_solvers.json` at
//! the workspace root so future PRs have a perf trajectory to diff against.
//! The same alternating rounds time the library annealing kernel
//! (`simulated_annealing_compiled`, as the `simulated-annealing` backend
//! runs it) on seeded 128–256-variable MQO and join-order models and
//! record its `anneal_ns_per_proposal`, the per-kernel yardstick for
//! changes to the Metropolis test and the field loops.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdm_anneal::sa::{
    simulated_annealing, simulated_annealing_compiled, simulated_annealing_parallel, SaParams,
};
use qdm_anneal::sqa::{simulated_quantum_annealing, SqaParams};
use qdm_anneal::tabu::{tabu_search, TabuParams};
use qdm_bench::exp_meta::random_qubo;
use qdm_core::problem::DmProblem;
use qdm_core::solver::full_registry;
use qdm_db::query::{GraphShape, QueryGraph};
use qdm_problems::joinorder::JoinOrderProblem;
use qdm_problems::mqo::{MqoInstance, MqoProblem};
use qdm_qubo::compiled::CompiledQubo;
use qdm_qubo::model::QuboModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn bench_fig2_routes(c: &mut Criterion) {
    let q = random_qubo(10, 7);
    let mut group = c.benchmark_group("fig2/route");
    group.sample_size(10);
    for solver in full_registry() {
        group.bench_function(solver.name(), |b| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| black_box(solver.solve(&q, &mut rng)));
        });
    }
    group.finish();
}

fn bench_annealer_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("anneal/scaling");
    group.sample_size(10);
    for n in [16usize, 32, 64, 128] {
        let q = random_qubo(n, n as u64);
        group.bench_with_input(BenchmarkId::new("sa", n), &q, |b, q| {
            let mut rng = StdRng::seed_from_u64(4);
            let params = SaParams { restarts: 1, sweeps: 100, ..SaParams::scaled_to(q) };
            b.iter(|| black_box(simulated_annealing(q, &params, &mut rng)));
        });
        group.bench_with_input(BenchmarkId::new("sqa", n), &q, |b, q| {
            let mut rng = StdRng::seed_from_u64(5);
            let params = SqaParams { replicas: 8, sweeps: 50, ..SqaParams::scaled_to(q) };
            b.iter(|| black_box(simulated_quantum_annealing(q, &params, &mut rng)));
        });
        group.bench_with_input(BenchmarkId::new("tabu", n), &q, |b, q| {
            let mut rng = StdRng::seed_from_u64(6);
            let params = TabuParams { iterations: 500, restarts: 1, ..Default::default() };
            b.iter(|| black_box(tabu_search(q, &params, &mut rng)));
        });
    }
    group.finish();
}

/// The acceptance-criteria instance: 256 variables at 5% coupling density,
/// shared with `bench_runtime` so both baselines measure the same model.
fn dense_instance() -> QuboModel {
    qdm_bench::exp_meta::dense_acceptance_instance()
}

/// Seeded MQO and join-order models at the sizes `bench_e2e`'s
/// `cold-large` stream draws (MQO with about eight sharing partners per
/// plan; left-deep join ordering over a star, `relations²` variables), each
/// named `family-n_vars`.
fn anneal_instances() -> Vec<(String, CompiledQubo)> {
    let mut rng = StdRng::seed_from_u64(2029);
    let mut models = Vec::new();
    for queries in [32usize, 64] {
        let sharing = (8.0 / (queries * 4) as f64).min(0.3);
        let q = MqoProblem::new(MqoInstance::generate(queries, 4, sharing, &mut rng)).to_qubo();
        models.push(("mqo", q));
    }
    for relations in [12usize, 16] {
        let graph = QueryGraph::generate(GraphShape::Star, relations, &mut rng);
        models.push(("join-order", JoinOrderProblem::left_deep(graph).to_qubo()));
    }
    models
        .into_iter()
        .map(|(family, q)| (format!("{family}-{}", q.n_vars()), q.compile()))
        .collect()
}

fn random_assignment(n: usize, rng: &mut StdRng) -> Vec<bool> {
    (0..n).map(|_| rng.random::<bool>()).collect()
}

/// One Metropolis sweep on the seed path: every flip delta re-derived from
/// the model's couplings via `QuboModel::flip_delta` (O(m) per proposal).
fn sa_sweep_model(q: &QuboModel, x: &mut [bool], t: f64, rng: &mut StdRng) -> f64 {
    let mut moved = 0.0;
    for i in 0..q.n_vars() {
        let delta = q.flip_delta(x, i);
        if delta <= 0.0 || rng.random::<f64>() < (-delta / t).exp() {
            x[i] = !x[i];
            moved += delta;
        }
    }
    moved
}

/// The same sweep the way the seed solvers actually ran it: incremental
/// local fields over `neighbor_lists()` Vec-of-Vec adjacency (O(deg) per
/// accepted flip, but pointer-chasing per-row heap allocations). This is
/// the honest "what did the CSR layout itself buy" baseline, as opposed to
/// the O(m)-per-proposal coupling-scan path above.
fn sa_sweep_neighbor_lists(
    adj: &[Vec<(usize, f64)>],
    x: &mut [bool],
    fields: &mut [f64],
    t: f64,
    rng: &mut StdRng,
) -> f64 {
    let mut moved = 0.0;
    for i in 0..x.len() {
        let delta = if x[i] { -fields[i] } else { fields[i] };
        if delta <= 0.0 || rng.random::<f64>() < (-delta / t).exp() {
            let sign = if x[i] { -1.0 } else { 1.0 };
            x[i] = !x[i];
            moved += delta;
            for &(nb, w) in &adj[i] {
                fields[nb] += sign * w;
            }
        }
    }
    moved
}

/// The same sweep on the compiled CSR form with incremental local fields
/// (O(deg) per accepted flip, O(1) per rejection).
fn sa_sweep_compiled(
    c: &qdm_qubo::compiled::CompiledQubo,
    x: &mut [bool],
    fields: &mut [f64],
    t: f64,
    rng: &mut StdRng,
) -> f64 {
    let mut moved = 0.0;
    for i in 0..c.n_vars() {
        let delta = if x[i] { -fields[i] } else { fields[i] };
        if delta <= 0.0 || rng.random::<f64>() < (-delta / t).exp() {
            moved += c.apply_flip(x, fields, i);
        }
    }
    moved
}

fn bench_compiled_vs_model(c: &mut Criterion) {
    let q = dense_instance();
    let compiled = q.compile();
    let n = q.n_vars();
    let mut rng = StdRng::seed_from_u64(99);
    let x = random_assignment(n, &mut rng);

    let mut group = c.benchmark_group("solvers/energy");
    group.sample_size(10);
    group.bench_function("model", |b| b.iter(|| black_box(q.energy(&x))));
    group.bench_function("compiled", |b| b.iter(|| black_box(compiled.energy(&x))));
    group.finish();

    let mut group = c.benchmark_group("solvers/flip");
    group.sample_size(10);
    group.bench_function("model", |b| b.iter(|| (0..n).map(|i| q.flip_delta(&x, i)).sum::<f64>()));
    group.bench_function("compiled", |b| {
        b.iter(|| (0..n).map(|i| compiled.flip_delta(&x, i)).sum::<f64>())
    });
    group.finish();

    let t = q.max_abs_coefficient();
    let mut group = c.benchmark_group("solvers/sa_sweep");
    group.sample_size(10);
    group.bench_function("model", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut x = random_assignment(n, &mut rng);
        b.iter(|| black_box(sa_sweep_model(&q, &mut x, t, &mut rng)));
    });
    group.bench_function("neighbor_lists", |b| {
        let adj = q.neighbor_lists();
        let mut rng = StdRng::seed_from_u64(7);
        let mut x = random_assignment(n, &mut rng);
        let mut fields = compiled.local_fields(&x);
        b.iter(|| black_box(sa_sweep_neighbor_lists(&adj, &mut x, &mut fields, t, &mut rng)));
    });
    group.bench_function("compiled", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut x = random_assignment(n, &mut rng);
        let mut fields = compiled.local_fields(&x);
        b.iter(|| black_box(sa_sweep_compiled(&compiled, &mut x, &mut fields, t, &mut rng)));
    });
    group.finish();

    // Headline numbers: identical sweep trajectories timed directly on both
    // paths, plus energy/flip timings for the JSON baseline. Every path is
    // timed once per round and the rounds alternate the paths, so machine
    // drift hits each of them alike; the baseline reports per-path medians
    // over the rounds, so one descheduled batch cannot move the speedup.
    const ROUNDS: usize = 9;
    let time_per = |f: &mut dyn FnMut(), reps: usize| -> f64 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e9 / reps as f64
    };
    let median = |mut samples: Vec<f64>| -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let mut rng_a = StdRng::seed_from_u64(13);
    let mut x_a = random_assignment(n, &mut rng_a);
    let mut rng_b = StdRng::seed_from_u64(13);
    let mut x_b = random_assignment(n, &mut rng_b);
    let mut fields_b = compiled.local_fields(&x_b);
    // The seed-style incremental sweep over Vec-of-Vec adjacency: the
    // honest measure of what the CSR layout itself bought, since the seed
    // annealers never paid the O(m) coupling scan per proposal.
    let adj = q.neighbor_lists();
    let mut rng_c = StdRng::seed_from_u64(13);
    let mut x_c = random_assignment(n, &mut rng_c);
    let mut fields_c = compiled.local_fields(&x_c);
    // The library kernel: one full default-parameter solve per model and
    // round, timed per Metropolis proposal (restarts × sweeps × variables).
    let anneal = anneal_instances();
    let mut anneal_samples: Vec<Vec<f64>> = vec![Vec::new(); anneal.len()];
    // Per path, one sample per round: SA sweep on the model, the neighbor
    // lists and the compiled form; energy on the model and the compiled
    // form; a flip of every variable on the model and the compiled form.
    let mut samples: [Vec<f64>; 7] = Default::default();
    for round in 0..ROUNDS {
        for ((_, c), path) in anneal.iter().zip(&mut anneal_samples) {
            let params = SaParams::scaled_to_compiled(c);
            let proposals = (params.restarts * params.sweeps * c.n_vars()) as f64;
            let mut rng = StdRng::seed_from_u64(round as u64);
            let ns = time_per(
                &mut || {
                    black_box(simulated_annealing_compiled(c, &params, &mut rng));
                },
                3,
            );
            path.push(ns / proposals);
        }
        let round = [
            time_per(
                &mut || {
                    black_box(sa_sweep_model(&q, &mut x_a, t, &mut rng_a));
                },
                20,
            ),
            time_per(
                &mut || {
                    black_box(sa_sweep_neighbor_lists(
                        &adj,
                        &mut x_c,
                        &mut fields_c,
                        t,
                        &mut rng_c,
                    ));
                },
                2000,
            ),
            time_per(
                &mut || {
                    black_box(sa_sweep_compiled(&compiled, &mut x_b, &mut fields_b, t, &mut rng_b));
                },
                2000,
            ),
            time_per(
                &mut || {
                    black_box(q.energy(&x));
                },
                200,
            ),
            time_per(
                &mut || {
                    black_box(compiled.energy(&x));
                },
                200,
            ),
            time_per(
                &mut || {
                    black_box((0..n).map(|i| q.flip_delta(&x, i)).sum::<f64>());
                },
                50,
            ),
            time_per(
                &mut || {
                    black_box((0..n).map(|i| compiled.flip_delta(&x, i)).sum::<f64>());
                },
                50,
            ),
        ];
        for (path, sample) in samples.iter_mut().zip(round) {
            path.push(sample);
        }
    }
    let [model_ns, adjacency_ns, compiled_ns, energy_model_ns, energy_compiled_ns, flip_model_ns, flip_compiled_ns] =
        samples.map(median);
    // The paths start identically seeded and virtually always walk the
    // same trajectory, but low-bit float differences between incremental
    // local fields and fresh O(m) recomputation can in principle tip an
    // accept decision, so trajectory equality is not asserted here — value
    // equivalence is proven by `crates/qubo/tests/compiled_matches_model.rs`.
    let speedup = model_ns / compiled_ns;
    let layout_speedup = adjacency_ns / compiled_ns;
    println!(
        "solvers/compiled_speedup: {speedup:.2}x vs coupling-scan path, {layout_speedup:.2}x vs seed \
         adjacency lists ({n} vars, {} couplings, SA sweep {:.1} µs model / {:.2} µs \
         neighbor-lists / {:.2} µs compiled; medians of {ROUNDS} alternating rounds)",
        q.n_interactions(),
        model_ns / 1e3,
        adjacency_ns / 1e3,
        compiled_ns / 1e3,
    );

    let anneal_ns: Vec<String> = anneal
        .iter()
        .zip(anneal_samples)
        .map(|((name, _), samples)| format!("\"{name}\": {:.2}", median(samples)))
        .collect();
    let anneal_ns = anneal_ns.join(", ");
    println!("solvers/anneal_ns_per_proposal: {anneal_ns} (medians of {ROUNDS} rounds)");

    // Machine-readable baseline at the workspace root; hand-rolled JSON
    // because the serde shim has no serializer.
    let json = format!(
        "{{\n  \"bench\": \"solvers\",\n  \"instance\": {{\"n_vars\": {n}, \"density\": 0.05, \
         \"n_interactions\": {m}}},\n  \"sa_sweep_ns\": {{\"model\": {model_ns:.0}, \
         \"neighbor_lists\": {adjacency_ns:.0}, \"compiled\": {compiled_ns:.0}}},\n  \
         \"energy_ns\": {{\"model\": {energy_model_ns:.0}, \
         \"compiled\": {energy_compiled_ns:.0}}},\n  \"flip_all_vars_ns\": \
         {{\"model\": {flip_model_ns:.0}, \"compiled\": {flip_compiled_ns:.0}}},\n  \
         \"anneal_ns_per_proposal\": {{{anneal_ns}}},\n  \
         \"compiled_speedup\": {speedup:.2},\n  \"layout_speedup\": {layout_speedup:.2}\n}}\n",
        m = q.n_interactions(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solvers.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("solvers/baseline written to BENCH_solvers.json"),
        Err(e) => println!("solvers/baseline NOT written ({e})"),
    }
}

fn bench_parallel_restarts(c: &mut Criterion) {
    let q = random_qubo(96, 21);
    let params = SaParams { restarts: 8, sweeps: 60, ..SaParams::scaled_to(&q) };
    let threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let mut group = c.benchmark_group("solvers/parallel_sa");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| black_box(simulated_annealing_parallel(&q, &params, 5, 1)));
    });
    group.bench_function(format!("threads-{threads}"), |b| {
        b.iter(|| black_box(simulated_annealing_parallel(&q, &params, 5, threads)));
    });
    group.finish();
    // The wall-clock ratio here only exceeds 1 on a multi-core runner;
    // results are bit-identical either way.
}

criterion_group!(
    benches,
    bench_fig2_routes,
    bench_annealer_scaling,
    bench_compiled_vs_model,
    bench_parallel_restarts
);
criterion_main!(benches);
