//! # qdm-core — the reformulation roadmap
//!
//! The primary contribution of *"Quantum Data Management: From Theory to
//! Opportunities"* (ICDE 2024) is a methodology, crystallized in its Fig. 2:
//! **reformulate a data-management problem as a QUBO, then route it either
//! to a quantum annealer or — via QAOA, VQE, QPE or Grover — to a gate-based
//! machine**, with classical pre/post-processing around the quantum call
//! (Sec. III-C.2) under real device constraints (Sec. III-C.3).
//!
//! This crate is that methodology as a library:
//!
//! - [`problem`] — the [`problem::DmProblem`] contract (problem → QUBO →
//!   decode) implemented by every Table I encoding in `qdm-problems`;
//! - [`solver`] — the [`solver::QuboSolver`] trait and the full Fig. 2
//!   registry: simulated (quantum) annealing, QAOA, VQE, Grover minimum
//!   finding, plus classical baselines;
//! - [`pipeline`] — problem → presolve → decompose → solve → repair →
//!   decode, with telemetry;
//! - [`cores`] — the process-wide core budget that sizes every fan-out
//!   (parallel annealing restarts) to the idle cores;
//! - [`device`] — device profiles (D-Wave 2X, the Fig. 1b 5-qubit chip, …)
//!   and fit/embedding checks;
//! - [`roadmap`] — Table I and Fig. 2 as data, enforced by tests.

#![warn(missing_docs)]

pub mod cores;
pub mod device;
pub mod pipeline;
pub mod problem;
pub mod roadmap;
pub mod solver;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::device::{Connectivity, Device, DeviceKind, Fit};
    pub use crate::pipeline::{
        prepare_pipeline, run_pipeline, run_pipeline_compiled, run_pipeline_on_chimera,
        run_pipeline_with_qubo, run_prepared, EmbeddedPipelineReport, JobPriority, PipelineOptions,
        PipelineReport, PreparedPipeline,
    };
    pub use crate::problem::{Decoded, DmProblem};
    pub use crate::roadmap::{
        roadmap_paths, table_one, Algorithm, DbProblem, Formulation, Machine, RoadmapPath,
        SubProblem, TableOneRow,
    };
    pub use crate::solver::{
        full_registry, AdiabaticSolver, ExactSolver, GroverMinSolver, QaoaSolver, QuboSolver,
        RandomSolver, SaParallelSolver, SaSolver, SolverKind, SqaSolver, TabuSolver, VqeSolver,
    };
}

pub use prelude::*;
