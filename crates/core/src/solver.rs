//! The [`QuboSolver`] trait and the full Fig. 2 solver registry.
//!
//! The paper's Fig. 2 shows QUBO flowing either to quantum annealers or,
//! via QAOA / VQE / QPE / Grover, to gate-based machines. Each path is a
//! `QuboSolver` here; the classical baselines (exact, tabu, random) share
//! the interface so every experiment can compare like-for-like.

use crate::cores;
use qdm_algos::grover::durr_hoyer_minimum;
use qdm_algos::qaoa::{qaoa_optimize, EnergyTable, QaoaParams};
use qdm_algos::vqe::{vqe_optimize, VqeParams};
use qdm_anneal::sa::{
    simulated_annealing_colored_probed, simulated_annealing_compiled,
    simulated_annealing_parallel_probed, simulated_annealing_probed, SaParams,
    COLORED_SWEEP_MIN_VARS,
};
use qdm_anneal::sqa::{
    simulated_quantum_annealing_compiled, simulated_quantum_annealing_probed, SqaParams,
};
use qdm_anneal::tabu::{tabu_search_compiled, tabu_search_probed, TabuParams};
use qdm_qubo::compiled::CompiledQubo;
use qdm_qubo::model::{bits_from_index, QuboModel};
use qdm_qubo::probe::{NoProbe, StageProbe};
use qdm_qubo::solve::{
    solve_exact, solve_exact_compiled, solve_random_compiled, SolveResult, MAX_EXACT_VARS,
};
use rand::rngs::StdRng;
use rand::RngCore;
use std::time::Instant;

/// Which branch of Fig. 2 a solver belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Quantum-annealing path (simulated here, per DESIGN.md).
    Annealing,
    /// Gate-based path (QAOA, VQE, Grover on the state-vector simulator).
    GateBased,
    /// Classical baseline.
    Classical,
}

/// A solver over QUBO models.
///
/// Solvers must be [`Send`] + [`Sync`]: the `qdm-runtime` worker pool shares
/// one registered instance across worker threads. Every solver here is a
/// small parameter struct with no interior mutability (all run state lives in
/// the caller-provided RNG), so the bound is free.
///
/// [`QuboSolver::solve_compiled`] is the **primary** entry point: it accepts
/// an existing [`CompiledQubo`], which is what lets the runtime compile each
/// job exactly once and dispatch the same shared compilation to many
/// backends (a portfolio race solves one `Arc<CompiledQubo>` k ways).
/// [`QuboSolver::solve`] is a convenience wrapper that compiles and
/// delegates, so `solve(q, rng)` and `solve_compiled(&q.compile(), rng)` are
/// bit-identical by construction.
pub trait QuboSolver: Send + Sync {
    /// Display name.
    fn name(&self) -> &str;
    /// Which Fig. 2 branch this is.
    fn kind(&self) -> SolverKind;
    /// Largest variable count the solver accepts.
    fn max_vars(&self) -> usize;
    /// Solves an existing compilation without recompiling — the hot path.
    fn solve_compiled(&self, c: &CompiledQubo, rng: &mut StdRng) -> SolveResult;
    /// Solves the model: compiles once and delegates to
    /// [`Self::solve_compiled`].
    fn solve(&self, q: &QuboModel, rng: &mut StdRng) -> SolveResult {
        self.solve_compiled(&q.compile(), rng)
    }
    /// [`Self::solve_compiled`] reporting solver-internal progress (restart
    /// counters, acceptance rates) to `probe`. The default ignores the probe
    /// and delegates, so solvers without internal instrumentation still
    /// satisfy the interface; instrumented solvers override this with a
    /// probed run that is bit-identical to the unprobed one.
    fn solve_observed(
        &self,
        c: &CompiledQubo,
        rng: &mut StdRng,
        probe: &dyn StageProbe,
    ) -> SolveResult {
        let _ = probe;
        self.solve_compiled(c, rng)
    }
}

/// Certified exact enumeration (classical).
#[derive(Debug, Default, Clone, Copy)]
pub struct ExactSolver;

impl QuboSolver for ExactSolver {
    fn name(&self) -> &str {
        "exact"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Classical
    }
    fn max_vars(&self) -> usize {
        MAX_EXACT_VARS
    }
    fn solve_compiled(&self, c: &CompiledQubo, _rng: &mut StdRng) -> SolveResult {
        solve_exact_compiled(c)
    }
}

/// Classical simulated annealing.
#[derive(Debug, Default, Clone, Copy)]
pub struct SaSolver {
    /// Optional fixed parameters; auto-scaled to the model when `None`.
    pub params: Option<SaParams>,
}

impl QuboSolver for SaSolver {
    fn name(&self) -> &str {
        "simulated-annealing"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Annealing
    }
    fn max_vars(&self) -> usize {
        100_000
    }
    fn solve_compiled(&self, c: &CompiledQubo, rng: &mut StdRng) -> SolveResult {
        let params = self.params.unwrap_or_else(|| SaParams::scaled_to_compiled(c));
        simulated_annealing_compiled(c, &params, rng)
    }
    fn solve_observed(
        &self,
        c: &CompiledQubo,
        rng: &mut StdRng,
        probe: &dyn StageProbe,
    ) -> SolveResult {
        let params = self.params.unwrap_or_else(|| SaParams::scaled_to_compiled(c));
        simulated_annealing_probed(c, &params, rng, probe)
    }
}

/// Classical simulated annealing with two parallelism axes, chosen by
/// instance size:
///
/// - below [`COLORED_SWEEP_MIN_VARS`]: restarts fan out across scoped
///   threads (`qdm_anneal::sa::simulated_annealing_parallel`);
/// - at/above it: graph-colored sweep parallelism *inside* each restart
///   (`qdm_anneal::sa::simulated_annealing_colored`) — one huge restart
///   parallelizes even when there are few restarts to fan out.
///
/// Both paths are bit-identical at any thread count: restart seeds are
/// SplitMix64-derived by index, color-class decisions are pure per-proposal
/// functions, and every best-pick runs in index order. The job's RNG
/// contributes exactly one `u64` (the base seed), so the runtime's
/// fixed-seed reproducibility contract holds here too — and the thread
/// count, which follows machine load when [`Self::threads`] is `None`,
/// never shows in a result.
#[derive(Debug, Default, Clone, Copy)]
pub struct SaParallelSolver {
    /// Optional fixed parameters; auto-scaled to the model when `None`.
    pub params: Option<SaParams>,
    /// Threads for the fan-out. `Some(n)` runs exactly `n` (restart fan-out
    /// caps it at the restart count). `None` runs the calling thread plus
    /// the *idle* cores the process-wide [`crate::cores`] budget grants —
    /// up to one per restart (per hardware thread for colored sweeps) on an
    /// idle machine, none when every core already runs job work.
    pub threads: Option<usize>,
}

impl QuboSolver for SaParallelSolver {
    fn name(&self) -> &str {
        "simulated-annealing-parallel"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Annealing
    }
    fn max_vars(&self) -> usize {
        100_000
    }
    fn solve_compiled(&self, c: &CompiledQubo, rng: &mut StdRng) -> SolveResult {
        self.solve_observed(c, rng, &NoProbe)
    }
    fn solve_observed(
        &self,
        c: &CompiledQubo,
        rng: &mut StdRng,
        probe: &dyn StageProbe,
    ) -> SolveResult {
        let params = self.params.unwrap_or_else(|| SaParams::scaled_to_compiled(c));
        let colored = c.n_vars() >= COLORED_SWEEP_MIN_VARS;
        let seed = rng.next_u64();
        // Both guards live for the whole solve and release on unwind too.
        let budget = self.threads.is_none().then(|| {
            let held = cores::occupy();
            let hw = cores::hardware_threads();
            let wanted = if colored { hw } else { params.restarts.max(1).min(hw) };
            (held, cores::grant(wanted - 1))
        });
        let threads = self
            .threads
            .unwrap_or_else(|| 1 + budget.as_ref().map_or(0, |(_, grant)| grant.extra()));
        if colored {
            simulated_annealing_colored_probed(c, &params, seed, threads, probe)
        } else {
            simulated_annealing_parallel_probed(c, &params, seed, threads, probe)
        }
    }
}

/// Simulated *quantum* annealing (path-integral transverse-field Monte
/// Carlo) — the annealing-hardware stand-in.
#[derive(Debug, Default, Clone, Copy)]
pub struct SqaSolver {
    /// Optional fixed parameters; auto-scaled when `None`.
    pub params: Option<SqaParams>,
}

impl QuboSolver for SqaSolver {
    fn name(&self) -> &str {
        "simulated-quantum-annealing"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Annealing
    }
    fn max_vars(&self) -> usize {
        10_000
    }
    fn solve_compiled(&self, c: &CompiledQubo, rng: &mut StdRng) -> SolveResult {
        let params = self.params.unwrap_or_else(|| SqaParams::scaled_to_compiled(c));
        simulated_quantum_annealing_compiled(c, &params, rng)
    }
    fn solve_observed(
        &self,
        c: &CompiledQubo,
        rng: &mut StdRng,
        probe: &dyn StageProbe,
    ) -> SolveResult {
        let params = self.params.unwrap_or_else(|| SqaParams::scaled_to_compiled(c));
        simulated_quantum_annealing_probed(c, &params, rng, probe)
    }
}

/// Tabu search (classical metaheuristic baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct TabuSolver {
    /// Optional fixed parameters.
    pub params: Option<TabuParams>,
}

impl QuboSolver for TabuSolver {
    fn name(&self) -> &str {
        "tabu"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Classical
    }
    fn max_vars(&self) -> usize {
        100_000
    }
    fn solve_compiled(&self, c: &CompiledQubo, rng: &mut StdRng) -> SolveResult {
        tabu_search_compiled(c, &self.params.unwrap_or_default(), rng)
    }
    fn solve_observed(
        &self,
        c: &CompiledQubo,
        rng: &mut StdRng,
        probe: &dyn StageProbe,
    ) -> SolveResult {
        tabu_search_probed(c, &self.params.unwrap_or_default(), rng, probe)
    }
}

/// Uniform random sampling baseline.
#[derive(Debug, Clone, Copy)]
pub struct RandomSolver {
    /// Number of random assignments to draw.
    pub samples: u64,
}

impl Default for RandomSolver {
    fn default() -> Self {
        Self { samples: 1000 }
    }
}

impl QuboSolver for RandomSolver {
    fn name(&self) -> &str {
        "random"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Classical
    }
    fn max_vars(&self) -> usize {
        1_000_000
    }
    fn solve_compiled(&self, c: &CompiledQubo, rng: &mut StdRng) -> SolveResult {
        solve_random_compiled(c, self.samples, rng)
    }
}

/// QAOA on the gate-model simulator.
#[derive(Debug, Default, Clone, Copy)]
pub struct QaoaSolver {
    /// Optional fixed hyperparameters.
    pub params: Option<QaoaParams>,
}

impl QuboSolver for QaoaSolver {
    fn name(&self) -> &str {
        "qaoa"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::GateBased
    }
    fn max_vars(&self) -> usize {
        20
    }
    fn solve_compiled(&self, c: &CompiledQubo, rng: &mut StdRng) -> SolveResult {
        // Gate-based routes build state-vector Hamiltonians from the model
        // form; compilation is lossless, so decompiling reproduces it
        // exactly (and these routes cap at ~20 variables, so the rebuild is
        // noise next to the exponential simulation).
        self.solve(&c.to_model(), rng)
    }
    fn solve(&self, q: &QuboModel, rng: &mut StdRng) -> SolveResult {
        qaoa_optimize(q, &self.params.unwrap_or_default(), rng).solve
    }
}

/// VQE on the gate-model simulator.
#[derive(Debug, Default, Clone, Copy)]
pub struct VqeSolver {
    /// Optional fixed hyperparameters.
    pub params: Option<VqeParams>,
}

impl QuboSolver for VqeSolver {
    fn name(&self) -> &str {
        "vqe"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::GateBased
    }
    fn max_vars(&self) -> usize {
        16
    }
    fn solve_compiled(&self, c: &CompiledQubo, rng: &mut StdRng) -> SolveResult {
        // See `QaoaSolver::solve_compiled`: lossless decompile for the
        // model-form Hamiltonian construction.
        self.solve(&c.to_model(), rng)
    }
    fn solve(&self, q: &QuboModel, rng: &mut StdRng) -> SolveResult {
        vqe_optimize(q, &self.params.unwrap_or_default(), rng).solve
    }
}

/// Grover-based optimization: Dürr–Høyer minimum finding over the QUBO
/// energy landscape (the route of Groppe & Groppe \[31\]).
#[derive(Debug, Default, Clone, Copy)]
pub struct GroverMinSolver;

impl QuboSolver for GroverMinSolver {
    fn name(&self) -> &str {
        "grover-minimum"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::GateBased
    }
    fn max_vars(&self) -> usize {
        16
    }
    fn solve_compiled(&self, c: &CompiledQubo, rng: &mut StdRng) -> SolveResult {
        // See `QaoaSolver::solve_compiled`: lossless decompile for the
        // model-form energy table.
        self.solve(&c.to_model(), rng)
    }
    fn solve(&self, q: &QuboModel, rng: &mut StdRng) -> SolveResult {
        let start = Instant::now();
        let n = q.n_vars();
        if n == 0 {
            return solve_exact(q);
        }
        let table = EnergyTable::new(q);
        let res = durr_hoyer_minimum(n, |x| table.energies[x], rng);
        SolveResult {
            bits: bits_from_index(res.index, n),
            energy: res.key,
            evaluations: res.quantum_queries + res.classical_queries,
            seconds: start.elapsed().as_secs_f64(),
            certified_optimal: false,
        }
    }
}

/// Trotterized adiabatic evolution on the gate simulator — the unitary
/// dynamics a quantum annealer physically implements.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdiabaticSolver {
    /// Optional fixed parameters.
    pub params: Option<qdm_algos::adiabatic::AdiabaticParams>,
}

impl QuboSolver for AdiabaticSolver {
    fn name(&self) -> &str {
        "adiabatic-evolution"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Annealing
    }
    fn max_vars(&self) -> usize {
        16
    }
    fn solve_compiled(&self, c: &CompiledQubo, rng: &mut StdRng) -> SolveResult {
        // See `QaoaSolver::solve_compiled`: lossless decompile for the
        // model-form Hamiltonian construction.
        self.solve(&c.to_model(), rng)
    }
    fn solve(&self, q: &QuboModel, rng: &mut StdRng) -> SolveResult {
        qdm_algos::adiabatic::adiabatic_evolve(q, &self.params.unwrap_or_default(), rng).solve
    }
}

/// Every Fig. 2 path plus the classical baselines, boxed for iteration.
pub fn full_registry() -> Vec<Box<dyn QuboSolver + Send + Sync>> {
    vec![
        Box::new(ExactSolver),
        Box::new(SaSolver::default()),
        Box::new(SaParallelSolver::default()),
        Box::new(SqaSolver::default()),
        Box::new(AdiabaticSolver::default()),
        Box::new(TabuSolver::default()),
        Box::new(RandomSolver::default()),
        Box::new(QaoaSolver::default()),
        Box::new(VqeSolver::default()),
        Box::new(GroverMinSolver),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn model(seed: u64) -> QuboModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = QuboModel::new(8);
        for i in 0..8 {
            q.add_linear(i, rng.random_range(-2.0..2.0));
            for j in (i + 1)..8 {
                if rng.random::<f64>() < 0.4 {
                    q.add_quadratic(i, j, rng.random_range(-2.0..2.0));
                }
            }
        }
        q
    }

    #[test]
    fn every_registry_solver_finds_a_consistent_solution() {
        let q = model(1);
        let exact = solve_exact(&q);
        for solver in full_registry() {
            let mut rng = StdRng::seed_from_u64(99);
            let res = solver.solve(&q, &mut rng);
            assert!(
                (q.energy(&res.bits) - res.energy).abs() < 1e-9,
                "{} reports inconsistent energy",
                solver.name()
            );
            assert!(
                res.energy >= exact.energy - 1e-9,
                "{} beat the certified optimum?!",
                solver.name()
            );
        }
    }

    #[test]
    fn strong_solvers_match_exact_on_small_model() {
        let q = model(2);
        let exact = solve_exact(&q);
        for solver in [
            Box::new(SaSolver::default()) as Box<dyn QuboSolver>,
            Box::new(SaParallelSolver::default()),
            Box::new(SqaSolver::default()),
            Box::new(TabuSolver::default()),
            Box::new(GroverMinSolver),
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let res = solver.solve(&q, &mut rng);
            assert!(
                (res.energy - exact.energy).abs() < 1e-9,
                "{}: {} vs exact {}",
                solver.name(),
                res.energy,
                exact.energy
            );
        }
    }

    #[test]
    fn registry_covers_all_kinds() {
        let kinds: std::collections::HashSet<_> =
            full_registry().iter().map(|s| s.kind()).collect();
        assert!(kinds.contains(&SolverKind::Annealing));
        assert!(kinds.contains(&SolverKind::GateBased));
        assert!(kinds.contains(&SolverKind::Classical));
    }
}
