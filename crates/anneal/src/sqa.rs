//! Simulated quantum annealing (SQA) via path-integral Monte Carlo.
//!
//! This is the software stand-in for the D-Wave hardware used by the
//! annealing rows of Table I (see DESIGN.md substitution table). The
//! transverse-field Ising Hamiltonian
//! `H = H_classical - Gamma(t) * sum_i X_i`
//! is simulated with the Suzuki–Trotter decomposition: `P` coupled replicas
//! of the classical system, with ferromagnetic inter-replica coupling
//! `J_perp = -(P*T/2) * ln tanh(Gamma / (P*T))` that strengthens as the
//! transverse field `Gamma` anneals towards zero.

use crate::sa::metropolis;
use qdm_qubo::compiled::CompiledQubo;
use qdm_qubo::model::QuboModel;
use qdm_qubo::probe::{NoProbe, RestartStats, StageProbe};
use qdm_qubo::solve::SolveResult;
use rand::Rng;
use std::time::Instant;

/// Parameters for [`simulated_quantum_annealing`].
#[derive(Debug, Clone, Copy)]
pub struct SqaParams {
    /// Number of Trotter replicas `P`.
    pub replicas: usize,
    /// Monte-Carlo sweeps over all (replica, spin) pairs.
    pub sweeps: usize,
    /// Initial transverse field `Gamma_0`.
    pub gamma_start: f64,
    /// Final transverse field (close to 0).
    pub gamma_end: f64,
    /// Simulation temperature `T` (in energy units of the Hamiltonian).
    pub temperature: f64,
}

impl Default for SqaParams {
    fn default() -> Self {
        Self { replicas: 16, sweeps: 300, gamma_start: 3.0, gamma_end: 1e-3, temperature: 0.05 }
    }
}

impl SqaParams {
    /// Scales the temperature and field to the coefficient magnitude of the
    /// model.
    pub fn scaled_to(q: &QuboModel) -> Self {
        let scale = q.max_abs_coefficient().max(1e-9);
        Self {
            gamma_start: 3.0 * scale,
            gamma_end: 1e-3 * scale,
            temperature: 0.05 * scale,
            ..Self::default()
        }
    }

    /// [`Self::scaled_to`] from an existing compilation (same scale value).
    pub fn scaled_to_compiled(c: &CompiledQubo) -> Self {
        let scale = c.max_abs_coefficient().max(1e-9);
        Self {
            gamma_start: 3.0 * scale,
            gamma_end: 1e-3 * scale,
            temperature: 0.05 * scale,
            ..Self::default()
        }
    }
}

/// Runs path-integral simulated quantum annealing on a QUBO and returns the
/// best classical configuration seen in any replica.
pub fn simulated_quantum_annealing(
    q: &QuboModel,
    params: &SqaParams,
    rng: &mut impl Rng,
) -> SolveResult {
    simulated_quantum_annealing_compiled(&q.compile(), params, rng)
}

/// [`simulated_quantum_annealing`] on an existing compilation — the primary
/// entry point for compile-once callers.
///
/// The transverse-field Ising form is derived *directly from the shared
/// [`CompiledQubo`]*: the Ising coupling graph has exactly the QUBO's
/// sparsity with `J_ij = w_ij / 4` (an exact power-of-two scale), so the
/// compiled CSR adjacency is reused as-is with a rescaled weight array
/// instead of re-deriving a second flat CSR from an intermediate
/// `IsingModel`. Field and constant accumulations visit terms in the same
/// order `IsingModel::from_qubo` does, so the dynamics (and the RNG stream)
/// are bit-identical to the historical model-based path.
pub fn simulated_quantum_annealing_compiled(
    c: &CompiledQubo,
    params: &SqaParams,
    rng: &mut impl Rng,
) -> SolveResult {
    simulated_quantum_annealing_probed(c, params, rng, &NoProbe)
}

/// [`simulated_quantum_annealing_compiled`] reporting aggregate Monte-Carlo
/// counters to `probe` (SQA has no restarts, so the whole run reports as one
/// `RestartStats` with the executed sweep count). The
/// [`StageProbe::should_stop`] checkpoint is polled at each sweep boundary
/// and consumes no randomness: probes that never stop leave the RNG stream
/// and result bit-identical to the unprobed entry point, and a probe that
/// stops early gets the best classical configuration seen so far.
pub fn simulated_quantum_annealing_probed(
    c: &CompiledQubo,
    params: &SqaParams,
    rng: &mut impl Rng,
    probe: &dyn StageProbe,
) -> SolveResult {
    let start = Instant::now();
    let n = c.n_vars();
    let p = params.replicas.max(2);
    let pt = p as f64 * params.temperature;

    if n == 0 {
        return SolveResult {
            bits: Vec::new(),
            energy: c.offset(),
            evaluations: 1,
            seconds: start.elapsed().as_secs_f64(),
            certified_optimal: false,
        };
    }

    // QUBO → Ising under x = (1 - s)/2, accumulated term-by-term in the
    // same order as `IsingModel::from_qubo` (linear terms by index, then
    // couplings by sorted key) so every float matches that path bit-for-bit.
    let mut constant = c.offset();
    let mut fields = vec![0.0f64; n];
    for (i, field) in fields.iter_mut().enumerate() {
        let a = c.linear(i);
        constant += a / 2.0;
        *field -= a / 2.0;
    }
    for ((i, j), w) in c.couplings_iter() {
        constant += w / 4.0;
        fields[i] -= w / 4.0;
        fields[j] -= w / 4.0;
    }
    // The Ising coupling CSR is the QUBO CSR with weights divided by 4:
    // same row offsets, same ascending neighbor order, exactly scaled
    // weights — no second CSR derivation.
    let j_weights: Vec<f64> = c.weights().iter().map(|&w| w / 4.0).collect();
    let row_offsets = c.row_offsets();
    let row = |i: usize| {
        let span = row_offsets[i]..row_offsets[i + 1];
        (&c.neighbors()[span.clone()], &j_weights[span])
    };

    // spins[r][i] in {-1.0, +1.0}, replicated random init.
    let mut spins: Vec<Vec<f64>> = (0..p)
        .map(|_| (0..n).map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 }).collect())
        .collect();

    let classical_energy = |s: &[f64]| -> f64 {
        let mut e = constant;
        for (&hi, &si) in fields.iter().zip(s) {
            e += hi * si;
        }
        // Upper-triangular half only: each pair counted once, ascending
        // (i, j) order as in the model's own energy sum.
        for (i, &si) in s.iter().enumerate() {
            let (nbrs, ws) = row(i);
            for (&j, &w) in nbrs.iter().zip(ws) {
                let j = j as usize;
                if j > i {
                    e += w * si * s[j];
                }
            }
        }
        e
    };

    let mut best_bits = vec![false; n];
    let mut best = f64::INFINITY;
    let mut evals: u64 = 0;
    let record_best = |s: &[f64], best: &mut f64, best_bits: &mut Vec<bool>, e: f64| {
        if e < *best {
            *best = e;
            for (b, &si) in best_bits.iter_mut().zip(s) {
                *b = si < 0.0; // spin -1 encodes x = 1
            }
        }
    };

    for (r, s) in spins.iter().enumerate() {
        let e = classical_energy(s);
        evals += 1;
        let _ = r;
        record_best(s, &mut best, &mut best_bits, e);
    }

    let sweeps = params.sweeps.max(1);
    let t = params.temperature.max(1e-12);
    let mut sweeps_done: u64 = 0;
    let mut proposals: u64 = 0;
    let mut accepted: u64 = 0;
    for sweep in 0..sweeps {
        if probe.should_stop() {
            break;
        }
        let frac = sweep as f64 / sweeps as f64;
        // Linear annealing of the transverse field.
        let gamma = params.gamma_start + (params.gamma_end - params.gamma_start) * frac;
        // Trotter inter-replica coupling (ferromagnetic, negative).
        let x = (gamma / pt).tanh().max(1e-300);
        let j_perp = -0.5 * pt * x.ln(); // positive magnitude
        for r in 0..p {
            let up = (r + 1) % p;
            let down = (r + p - 1) % p;
            for i in 0..n {
                let si = spins[r][i];
                // Local classical field (per-replica weight 1/P).
                let mut h_local = fields[i];
                let (nbrs, ws) = row(i);
                for (&nb, &w) in nbrs.iter().zip(ws) {
                    h_local += w * spins[r][nb as usize];
                }
                let classical_delta = -2.0 * si * h_local / p as f64;
                // Inter-replica ferromagnetic term: -j_perp * s_{r,i} * (s_{up,i} + s_{down,i}).
                let quantum_delta = 2.0 * j_perp * si * (spins[up][i] + spins[down][i]);
                let delta = classical_delta + quantum_delta;
                evals += 1;
                proposals += 1;
                if metropolis(delta, t, || rng.random::<f64>()) {
                    spins[r][i] = -si;
                    accepted += 1;
                }
            }
            // Track the best classical configuration of this replica.
            let e = classical_energy(&spins[r]);
            evals += 1;
            record_best(&spins[r], &mut best, &mut best_bits, e);
        }
        sweeps_done += 1;
    }
    probe.on_restart(&RestartStats {
        solver: "sqa",
        restart: 0,
        sweeps: sweeps_done,
        proposals,
        accepted,
    });

    SolveResult {
        bits: best_bits,
        energy: best,
        evaluations: evals,
        seconds: start.elapsed().as_secs_f64(),
        certified_optimal: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdm_qubo::solve::solve_exact;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_model(seed: u64, n: usize) -> QuboModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = QuboModel::new(n);
        for i in 0..n {
            q.add_linear(i, rng.random_range(-2.0..2.0));
            for j in (i + 1)..n {
                if rng.random::<f64>() < 0.5 {
                    q.add_quadratic(i, j, rng.random_range(-2.0..2.0));
                }
            }
        }
        q
    }

    #[test]
    fn sqa_solves_small_instances_optimally() {
        let mut hit = 0;
        for seed in 0..4 {
            let q = random_model(seed, 10);
            let exact = solve_exact(&q);
            let mut rng = StdRng::seed_from_u64(seed + 50);
            let res = simulated_quantum_annealing(&q, &SqaParams::scaled_to(&q), &mut rng);
            assert!((q.energy(&res.bits) - res.energy).abs() < 1e-9);
            if (res.energy - exact.energy).abs() < 1e-9 {
                hit += 1;
            }
        }
        assert!(hit >= 3, "SQA found optimum on only {hit}/4 instances");
    }

    #[test]
    fn sqa_handles_empty_model() {
        let q = QuboModel::new(0);
        let mut rng = StdRng::seed_from_u64(0);
        let res = simulated_quantum_annealing(&q, &SqaParams::default(), &mut rng);
        assert_eq!(res.energy, 0.0);
    }

    #[test]
    fn reported_energy_matches_bits() {
        let q = random_model(11, 16);
        let mut rng = StdRng::seed_from_u64(12);
        let res = simulated_quantum_annealing(&q, &SqaParams::scaled_to(&q), &mut rng);
        assert!((q.energy(&res.bits) - res.energy).abs() < 1e-9);
    }
}
