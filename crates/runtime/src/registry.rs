//! The solver registry: every backend the service can dispatch to, with the
//! capability metadata the portfolio scheduler routes on.
//!
//! A backend is any [`QuboSolver`] from the Fig. 2 registry in `qdm-core` —
//! annealing stand-ins, gate-based routes on the state-vector simulator, or
//! classical baselines. The registry snapshots each backend's capabilities
//! ([`SolverSpec`]) at registration so routing decisions never need to touch
//! the trait object.

use qdm_core::solver::{full_registry, QuboSolver, SolverKind};
use qdm_qubo::model::QuboModel;
use qdm_qubo::solve::SolveResult;
use rand::rngs::StdRng;

/// Capability metadata for one registered backend.
#[derive(Debug, Clone)]
pub struct SolverSpec {
    /// Backend name (the solver's [`QuboSolver::name`]).
    pub name: String,
    /// Which Fig. 2 branch the backend belongs to.
    pub kind: SolverKind,
    /// Largest variable count the backend accepts.
    pub max_vars: usize,
}

/// One backend: its capability snapshot plus the shared solver instance.
pub struct RegisteredSolver {
    /// Capability metadata used for routing.
    pub spec: SolverSpec,
    solver: Box<dyn QuboSolver + Send + Sync>,
}

impl RegisteredSolver {
    /// Solves `q` on this backend.
    pub fn solve(&self, q: &QuboModel, rng: &mut StdRng) -> SolveResult {
        self.solver.solve(q, rng)
    }

    /// The underlying solver (for handing to `run_pipeline`).
    pub fn solver(&self) -> &(dyn QuboSolver + Send + Sync) {
        self.solver.as_ref()
    }
}

/// The set of backends a [`crate::service::SolverService`] dispatches over.
#[derive(Default)]
pub struct SolverRegistry {
    backends: Vec<RegisteredSolver>,
}

impl SolverRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a backend, snapshotting its capabilities. Returns the
    /// backend's index for direct routing.
    pub fn register(&mut self, solver: Box<dyn QuboSolver + Send + Sync>) -> usize {
        let name = solver.name().to_string();
        let spec = SolverSpec { name, kind: solver.kind(), max_vars: solver.max_vars() };
        self.backends.push(RegisteredSolver { spec, solver });
        self.backends.len() - 1
    }

    /// The full Fig. 2 portfolio from `qdm-core`: every annealing, gate-based
    /// and classical route.
    pub fn standard() -> Self {
        let mut reg = Self::new();
        for solver in full_registry() {
            reg.register(solver);
        }
        reg
    }

    /// Number of registered backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Backend at `index`.
    pub fn get(&self, index: usize) -> &RegisteredSolver {
        &self.backends[index]
    }

    /// Looks a backend up by name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.backends.iter().position(|b| b.spec.name == name)
    }

    /// Indices of backends whose `max_vars` admits an `n_vars`-variable
    /// model, in registration order.
    pub fn eligible(&self, n_vars: usize) -> Vec<usize> {
        (0..self.backends.len()).filter(|&i| self.backends[i].spec.max_vars >= n_vars).collect()
    }

    /// Iterates over backends in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &RegisteredSolver> {
        self.backends.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_all_kinds() {
        let reg = SolverRegistry::standard();
        assert!(reg.len() >= 3);
        let kinds: std::collections::HashSet<_> = reg.iter().map(|b| b.spec.kind).collect();
        assert!(kinds.contains(&SolverKind::Annealing));
        assert!(kinds.contains(&SolverKind::GateBased));
        assert!(kinds.contains(&SolverKind::Classical));
    }

    #[test]
    fn eligibility_respects_max_vars() {
        let reg = SolverRegistry::standard();
        // 30 variables rules out every 16/20-qubit gate-based route and the
        // exact enumerator (cap 26).
        for &i in &reg.eligible(30) {
            assert!(reg.get(i).spec.max_vars >= 30);
        }
        assert!(!reg.eligible(30).is_empty());
        // Tiny models are accepted everywhere.
        assert_eq!(reg.eligible(4).len(), reg.len());
    }

    #[test]
    fn find_by_name_matches_spec() {
        let reg = SolverRegistry::standard();
        let idx = reg.find("simulated-annealing").expect("SA is registered");
        assert_eq!(reg.get(idx).spec.name, "simulated-annealing");
        assert!(reg.find("no-such-backend").is_none());
    }

    #[test]
    fn parallel_sa_is_registered() {
        let reg = SolverRegistry::standard();
        let par = reg.find("simulated-annealing-parallel").expect("parallel SA registered");
        assert_eq!(reg.get(par).spec.kind, SolverKind::Annealing);
    }
}
