//! The end-to-end reformulation pipeline of Fig. 2: problem → QUBO →
//! (presolve / decomposition) → solver → decode → validate.
//!
//! The optional classical stages implement Sec. III-C.2's hybrid
//! methodology: [`PipelineOptions::presolve`] fixes dominated variables and
//! [`PipelineOptions::decompose`] solves independent connected components
//! separately — precisely the query-clustering preprocessing Trummer & Koch
//! used to "significantly reduce the required number of qubits".

use crate::problem::{Decoded, DmProblem};
use crate::solver::QuboSolver;
use qdm_qubo::compiled::CompiledQubo;
use qdm_qubo::model::QuboModel;
use qdm_qubo::presolve::presolve_probed;
use qdm_qubo::probe::{NoProbe, StageProbe};
use rand::rngs::StdRng;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Scheduling priority of a job carrying these options.
///
/// Priority is a *scheduling* hint only: the `qdm-runtime` job queue serves
/// higher-priority jobs first (FIFO within a level), but a job's result is
/// identical at every level — priority is therefore excluded from result
/// identity (cache keys).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobPriority {
    /// Served after everything else: bulk/backfill work.
    Low,
    /// The default lane.
    #[default]
    Normal,
    /// Jumps every queued `Normal`/`Low` job: interactive traffic.
    High,
}

/// Pipeline configuration.
#[derive(Clone, Default)]
pub struct PipelineOptions {
    /// Fix dominated variables classically before solving.
    pub presolve: bool,
    /// Split the QUBO into connected components and solve each separately.
    pub decompose: bool,
    /// Apply the problem's repair hook to the decoded assignment.
    pub repair: bool,
    /// Queue priority (scheduling only; never affects the computed result).
    pub priority: JobPriority,
    /// Optional stage profiling probe: presolve fixpoint rounds and solver
    /// restart counters are reported through it when set. Observation only
    /// — results are bit-identical with or without a probe — so, like
    /// `priority`, it is excluded from result identity (cache keys).
    pub probe: Option<Arc<dyn StageProbe>>,
}

impl std::fmt::Debug for PipelineOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineOptions")
            .field("presolve", &self.presolve)
            .field("decompose", &self.decompose)
            .field("repair", &self.repair)
            .field("priority", &self.priority)
            .field("probe", &self.probe.as_ref().map(|_| "<probe>"))
            .finish()
    }
}

/// Telemetry and results from one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Problem name.
    pub problem: String,
    /// Solver name.
    pub solver: String,
    /// Logical variable count of the full encoding.
    pub n_vars: usize,
    /// Largest sub-QUBO actually handed to the solver (== `n_vars` without
    /// decomposition/presolve).
    pub max_subproblem_vars: usize,
    /// Number of connected components solved.
    pub components: usize,
    /// Variables fixed by presolve.
    pub presolve_fixed: usize,
    /// Final assignment.
    pub bits: Vec<bool>,
    /// QUBO energy of the final assignment.
    pub energy: f64,
    /// Decoded, problem-level view.
    pub decoded: Decoded,
    /// Total solver evaluations.
    pub evaluations: u64,
    /// End-to-end wall time in seconds.
    pub seconds: f64,
}

/// Runs a problem through a solver with the given options.
pub fn run_pipeline(
    problem: &dyn DmProblem,
    solver: &dyn QuboSolver,
    options: &PipelineOptions,
    rng: &mut StdRng,
) -> PipelineReport {
    run_pipeline_with_qubo(problem, problem.to_qubo(), solver, options, rng)
}

/// [`run_pipeline`] with the problem's QUBO already built. Callers that need
/// the encoding for their own bookkeeping hand it in instead of paying
/// [`DmProblem::to_qubo`] twice; `qubo` must be exactly `problem.to_qubo()`.
/// Compiles once and delegates to [`run_pipeline_compiled`].
pub fn run_pipeline_with_qubo(
    problem: &dyn DmProblem,
    qubo: QuboModel,
    solver: &dyn QuboSolver,
    options: &PipelineOptions,
    rng: &mut StdRng,
) -> PipelineReport {
    let compiled = qubo.compile();
    run_pipeline_compiled(problem, &qubo, &compiled, solver, options, rng)
}

/// The compile-once pipeline: every stage — presolve's first fixpoint
/// round, connected-component discovery, the solver's hot loop, and the
/// final energy check — runs on the *same* `compiled` form, so a job
/// compiles exactly once on the fast path (no presolve/decompose). This is
/// the entry point `qdm-runtime` drives: it compiles each cache-miss job
/// into one `Arc<CompiledQubo>`, fingerprints it, and hands the same
/// compilation to every backend (including all participants of a portfolio
/// race).
///
/// `compiled` must be the compilation of exactly `qubo`, which must be
/// exactly `problem.to_qubo()`. Results are bit-identical to the historical
/// model-driven pipeline.
pub fn run_pipeline_compiled(
    problem: &dyn DmProblem,
    qubo: &QuboModel,
    compiled: &CompiledQubo,
    solver: &dyn QuboSolver,
    options: &PipelineOptions,
    rng: &mut StdRng,
) -> PipelineReport {
    let prepared = prepare_pipeline(qubo, compiled, options);
    run_prepared(problem, &prepared, solver, options, rng)
}

/// The deterministic, seed-independent front half of the compiled pipeline
/// — presolve and connected-component decomposition — computed **once per
/// job** and shared by every backend that solves it. A portfolio race hands
/// the same `PreparedPipeline` to all k participants, so the fixpoint
/// rounds, component extraction, and the reduced/component compilations are
/// paid once instead of k times; a single-backend job goes through the same
/// type via [`run_pipeline_compiled`].
pub struct PreparedPipeline<'a> {
    /// The full-model compilation (final energies are evaluated on it).
    compiled: &'a CompiledQubo,
    n_vars: usize,
    /// Assignment template with presolve-fixed variables already set.
    base_bits: Vec<bool>,
    presolve_fixed: usize,
    /// `free_map[local] = global` over the working model's variables.
    free_map: Vec<usize>,
    /// Working compilation the solver runs on when not decomposing.
    work_compiled: Cow<'a, CompiledQubo>,
    /// Pre-extracted, pre-compiled components (with their local→working
    /// variable maps) when decomposing.
    comps: Option<Vec<(CompiledQubo, Vec<usize>)>>,
    max_sub: usize,
    components: usize,
    /// Wall time the preparation itself took, folded into every
    /// participant's reported `seconds`.
    prepare_seconds: f64,
}

/// Builds the shared front half of the pipeline: presolve (reusing the
/// job's compilation for its first round) and component
/// discovery/compilation. `compiled` must be the compilation of exactly
/// `qubo`. Deterministic — no RNG is consumed — so the result is
/// participant-independent by construction.
pub fn prepare_pipeline<'a>(
    qubo: &'a QuboModel,
    compiled: &'a CompiledQubo,
    options: &PipelineOptions,
) -> PreparedPipeline<'a> {
    let start = Instant::now();
    let n = qubo.n_vars();
    let mut base_bits = vec![false; n];

    // Stage 1: presolve. Without it the working model *is* the input —
    // borrow it, no clone, no recompile.
    let (work_qubo, work_compiled, free_map, presolve_fixed): (
        Cow<QuboModel>,
        Cow<CompiledQubo>,
        Vec<usize>,
        usize,
    ) = if options.presolve {
        let probe: &dyn StageProbe = options.probe.as_deref().unwrap_or(&NoProbe);
        let p = presolve_probed(qubo, compiled, probe);
        for &(g, v) in &p.fixed {
            base_bits[g] = v;
        }
        let reduced_compiled = p.reduced.compile();
        (Cow::Owned(p.reduced), Cow::Owned(reduced_compiled), p.free_vars, p.fixed.len())
    } else {
        (Cow::Borrowed(qubo), Cow::Borrowed(compiled), (0..n).collect(), 0)
    };

    // Stage 2a: decomposition. Component models are fresh extractions;
    // each compiles once here and every participant solves the shared
    // compilation.
    let (comps, max_sub, components) = if options.decompose {
        let comps: Vec<(CompiledQubo, Vec<usize>)> = work_qubo
            .connected_components_with(&work_compiled)
            .into_iter()
            .map(|(sub, local_map)| (sub.compile(), local_map))
            .collect();
        let max_sub = comps.iter().map(|(c, _)| c.n_vars()).max().unwrap_or(0);
        let n_comps = comps.len();
        (Some(comps), max_sub, n_comps)
    } else {
        (None, work_compiled.n_vars(), 1)
    };

    PreparedPipeline {
        compiled,
        n_vars: n,
        base_bits,
        presolve_fixed,
        free_map,
        work_compiled,
        comps,
        max_sub,
        components,
        prepare_seconds: start.elapsed().as_secs_f64(),
    }
}

/// The per-participant back half: solve (the only stage that consumes the
/// RNG), repair, decode. `options` must be the same options the
/// preparation was built with. Results are bit-identical to the historical
/// single-pass pipeline — component solves run on compilations of exactly
/// the models the solver used to compile itself.
///
/// The calling thread holds a [`crate::cores`] occupancy for the run, so a
/// parallel solver fans out only onto cores no other caller is using.
pub fn run_prepared(
    problem: &dyn DmProblem,
    prepared: &PreparedPipeline<'_>,
    solver: &dyn QuboSolver,
    options: &PipelineOptions,
    rng: &mut StdRng,
) -> PipelineReport {
    let _held = crate::cores::occupy();
    let start = Instant::now();
    let mut bits = prepared.base_bits.clone();
    let mut evaluations = 0u64;

    // Stage 2b: solve. With a probe attached the solver's observed entry
    // point reports restart counters through it; without one the plain
    // compiled path runs — both produce bit-identical results.
    let probe: Option<&dyn StageProbe> = options.probe.as_deref();
    let solve = |c: &CompiledQubo, rng: &mut StdRng| match probe {
        Some(p) => solver.solve_observed(c, rng, p),
        None => solver.solve_compiled(c, rng),
    };
    if let Some(comps) = &prepared.comps {
        for (sub_compiled, local_map) in comps {
            let res = solve(sub_compiled, rng);
            evaluations += res.evaluations;
            for (local, &within_work) in local_map.iter().enumerate() {
                bits[prepared.free_map[within_work]] = res.bits[local];
            }
        }
    } else {
        let res = solve(&prepared.work_compiled, rng);
        evaluations += res.evaluations;
        for (local, &global) in prepared.free_map.iter().enumerate() {
            bits[global] = res.bits[local];
        }
    }

    // Stage 3: repair + decode.
    if options.repair {
        bits = problem.repair(&bits);
    }
    let energy = prepared.compiled.energy(&bits);
    let decoded = problem.decode(&bits);
    PipelineReport {
        problem: problem.name(),
        solver: solver.name().to_string(),
        n_vars: prepared.n_vars,
        max_subproblem_vars: prepared.max_sub,
        components: prepared.components,
        presolve_fixed: prepared.presolve_fixed,
        bits,
        energy,
        decoded,
        evaluations,
        seconds: prepared.prepare_seconds + start.elapsed().as_secs_f64(),
    }
}

/// Report from the full *physical* pipeline of Trummer & Koch \[20\]:
/// logical QUBO → minor embedding onto the annealer topology → physical
/// Ising solve → majority-vote unembedding → decode.
#[derive(Debug, Clone)]
pub struct EmbeddedPipelineReport {
    /// The standard pipeline telemetry and decoded solution.
    pub report: PipelineReport,
    /// Physical qubits consumed by chains.
    pub physical_qubits: usize,
    /// Longest chain.
    pub max_chain: usize,
    /// Fraction of chains broken in the returned sample.
    pub chain_break_rate: f64,
}

/// Runs a problem at the *physical* level: embeds its QUBO onto a Chimera
/// graph, solves the embedded Ising with simulated annealing, unembeds by
/// majority vote, optionally repairs, and decodes.
///
/// Returns `Err` if the problem does not embed into the given topology.
pub fn run_pipeline_on_chimera(
    problem: &dyn DmProblem,
    graph: &qdm_anneal::embedding::ChimeraGraph,
    options: &PipelineOptions,
    rng: &mut StdRng,
) -> Result<EmbeddedPipelineReport, qdm_anneal::embedding::EmbedError> {
    use qdm_anneal::embedding::{chain_strength, embed_ising, find_embedding_auto, unembed};
    use qdm_anneal::sa::{simulated_annealing, SaParams};
    use qdm_qubo::ising::IsingModel;

    let start = std::time::Instant::now();
    let qubo = problem.to_qubo();
    let logical = IsingModel::from_qubo(&qubo);
    let mut adjacency = vec![Vec::new(); qubo.n_vars()];
    for ((i, j), _) in qubo.quadratic_iter() {
        adjacency[i].push(j);
        adjacency[j].push(i);
    }
    let embedding = find_embedding_auto(&adjacency, graph)?;
    let strength = chain_strength(&logical);
    let physical = embed_ising(&logical, &embedding, graph, strength);
    let physical_qubo = physical.to_qubo();
    // Chain couplings flatten the landscape; give the physical anneal more
    // effort than a logical solve would need.
    let params = SaParams { sweeps: 600, restarts: 8, ..SaParams::scaled_to(&physical_qubo) };
    let res = simulated_annealing(&physical_qubo, &params, rng);
    let physical_spins: Vec<bool> = res.bits.iter().map(|&b| !b).collect();
    let (logical_spins, stats) = unembed(&physical_spins, &embedding);
    let mut bits = IsingModel::bits_from_spins(&logical_spins);
    if options.repair {
        bits = problem.repair(&bits);
    }
    let energy = qubo.energy(&bits);
    let decoded = problem.decode(&bits);
    Ok(EmbeddedPipelineReport {
        report: PipelineReport {
            problem: problem.name(),
            solver: "chimera-embedded-annealer".to_string(),
            n_vars: qubo.n_vars(),
            max_subproblem_vars: physical_qubo.n_vars(),
            components: 1,
            presolve_fixed: 0,
            bits,
            energy,
            decoded,
            evaluations: res.evaluations,
            seconds: start.elapsed().as_secs_f64(),
        },
        physical_qubits: embedding.physical_qubits(),
        max_chain: embedding.max_chain_length(),
        chain_break_rate: stats.break_rate(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Decoded;
    use crate::solver::{ExactSolver, SaSolver};
    use qdm_qubo::penalty;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two independent pick-one groups — decomposable by construction.
    struct TwoGroups;

    impl DmProblem for TwoGroups {
        fn name(&self) -> String {
            "TwoGroups".into()
        }
        fn n_vars(&self) -> usize {
            6
        }
        fn to_qubo(&self) -> QuboModel {
            let mut q = QuboModel::new(6);
            for (i, c) in [3.0, 1.0, 2.0, 5.0, 4.0, 0.5].iter().enumerate() {
                q.add_linear(i, *c);
            }
            penalty::exactly_one(&mut q, &[0, 1, 2], 50.0);
            penalty::exactly_one(&mut q, &[3, 4, 5], 50.0);
            q
        }
        fn decode(&self, bits: &[bool]) -> Decoded {
            let g1: Vec<usize> = (0..3).filter(|&i| bits[i]).collect();
            let g2: Vec<usize> = (3..6).filter(|&i| bits[i]).collect();
            Decoded {
                feasible: g1.len() == 1 && g2.len() == 1,
                objective: 0.0,
                summary: format!("{g1:?} {g2:?}"),
            }
        }
    }

    #[test]
    fn plain_pipeline_solves() {
        let mut rng = StdRng::seed_from_u64(1);
        let report = run_pipeline(&TwoGroups, &ExactSolver, &PipelineOptions::default(), &mut rng);
        assert!(report.decoded.feasible);
        assert_eq!(report.bits, vec![false, true, false, false, false, true]);
        assert_eq!(report.components, 1);
    }

    #[test]
    fn decomposition_splits_groups_and_preserves_optimum() {
        let mut rng = StdRng::seed_from_u64(2);
        let report = run_pipeline(
            &TwoGroups,
            &ExactSolver,
            &PipelineOptions { decompose: true, ..Default::default() },
            &mut rng,
        );
        assert_eq!(report.components, 2);
        assert!(report.max_subproblem_vars <= 3);
        assert!(report.decoded.feasible);
        assert_eq!(report.bits, vec![false, true, false, false, false, true]);
    }

    #[test]
    fn pipeline_with_all_stages_and_heuristic_solver() {
        let mut rng = StdRng::seed_from_u64(3);
        let report = run_pipeline(
            &TwoGroups,
            &SaSolver::default(),
            &PipelineOptions {
                decompose: true,
                presolve: true,
                repair: true,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(report.decoded.feasible, "report: {report:?}");
    }

    #[test]
    fn embedded_pipeline_reaches_the_same_optimum() {
        let mut rng = StdRng::seed_from_u64(4);
        let graph = qdm_anneal::embedding::ChimeraGraph::new(3);
        let embedded = run_pipeline_on_chimera(
            &TwoGroups,
            &graph,
            &PipelineOptions { repair: true, ..Default::default() },
            &mut rng,
        )
        .expect("6 variables embed into C_3");
        assert!(embedded.report.decoded.feasible);
        assert_eq!(
            embedded.report.bits,
            vec![false, true, false, false, false, true],
            "physical pipeline should still find the optimum"
        );
        assert!(embedded.physical_qubits >= 6);
        assert!(embedded.max_chain >= 1);
    }
}
