//! The compile-once invariant, asserted via the process-wide compilation
//! counter (`qdm_qubo::compiled::compilation_count`): a job on the service
//! path compiles its QUBO **exactly once**, no matter how many stages and
//! backends consume the compilation — presolve, the solver hot loop, and
//! all k participants of a portfolio race share one `Arc<CompiledQubo>` —
//! and a cache hit does not compile at all.
//!
//! Everything runs inside a single `#[test]` because the counter is global
//! to the process: this file is its own test binary, and one test body is
//! the only way to keep unrelated compilations out of the measured deltas.

use qdm::prelude::*;
use qdm::qubo::compiled::compilation_count;
use qdm::qubo::model::QuboModel;
use qdm::qubo::penalty;
use std::sync::Arc;

/// Pick-one-of-n with per-option costs (same shape as the service tests).
struct PickOne {
    costs: Vec<f64>,
}

impl DmProblem for PickOne {
    fn name(&self) -> String {
        format!("compile-once-pick-{}", self.costs.len())
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
        let weight = penalty::penalty_weight(&q);
        penalty::exactly_one(&mut q, &vars, weight);
        q
    }
    fn decode(&self, bits: &[bool]) -> Decoded {
        let chosen: Vec<usize> =
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        Decoded {
            feasible: chosen.len() == 1,
            objective: chosen.iter().map(|&i| self.costs[i]).sum(),
            summary: format!("chose {chosen:?}"),
        }
    }
}

fn pick(n: usize) -> SharedProblem {
    Arc::new(PickOne { costs: (0..n).map(|i| ((i * 3) % 7) as f64 + 0.5).collect() })
}

#[test]
fn service_path_compiles_each_job_exactly_once() {
    let service =
        SolverService::new(ServiceConfig { workers: 2, cache_capacity: 64, ..Default::default() });

    // Cache miss, pinned single backend: one compile, for the SA hot loop.
    let before = compilation_count();
    let first =
        service.run(JobSpec::new(pick(10), 7).on_backend("simulated-annealing")).expect("solvable");
    assert!(!first.from_cache);
    assert_eq!(
        compilation_count() - before,
        1,
        "a pinned cache-miss job must compile exactly once"
    );
    // Its one compile had one consumer, so nothing was shared or saved.
    assert_eq!(
        service.report().compile_seconds_saved,
        0.0,
        "a single-backend job saves no compile time"
    );

    // Cache miss, 4-backend race: still one compile — all participants
    // solve the same shared compilation.
    let before = compilation_count();
    let raced = service.run(JobSpec::new(pick(11), 8).racing(4)).expect("solvable");
    assert!(!raced.from_cache);
    assert_eq!(
        compilation_count() - before,
        1,
        "a 4-backend race must share one compilation, not compile per backend"
    );

    // Cache hit: the canonical fingerprint comes from the uncompiled
    // model, so nothing compiles.
    let before = compilation_count();
    let again =
        service.run(JobSpec::new(pick(10), 7).on_backend("simulated-annealing")).expect("solvable");
    assert!(again.from_cache);
    assert_eq!(compilation_count() - before, 0, "a cache hit must not compile");
    assert_eq!(again.report.bits, first.report.bits);

    // The shared compilation shows up in the ledger as compile time saved:
    // the race amortized one compile across 4 consumers (its 4 backends).
    let report = service.report();
    assert!(report.compile_seconds_saved > 0.0, "sharing must be accounted: {report}");
    assert_eq!(report.race_jobs, 1);
}
