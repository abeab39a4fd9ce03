//! Stage profiling hooks: a lightweight callback surface solver hot paths
//! report progress through.
//!
//! A [`StageProbe`] is threaded from the runtime's `PipelineOptions` down
//! into the presolve fixpoint and each annealer's restart loop, so traces
//! can carry backend-internal progress — sweep counts, acceptance rates,
//! restarts, presolve rounds — not just wall time. The hooks fire at
//! *per-round* / *per-restart* granularity: hot inner loops accumulate
//! plain local counters and report once per restart, so an attached probe
//! costs a handful of calls per solve and a disabled one costs nothing.
//!
//! Implementations must be cheap and non-blocking; they may be called from
//! several threads at once (the restart-parallel and colored annealers
//! report from their scoped worker threads).

use std::sync::Arc;

/// Per-restart statistics reported by an annealing/search backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartStats {
    /// Static name of the reporting solver loop (e.g. `"sa"`, `"tabu"`).
    pub solver: &'static str,
    /// Zero-based restart index within this solve.
    pub restart: u64,
    /// Sweeps (full passes / iterations) this restart executed.
    pub sweeps: u64,
    /// Move proposals evaluated (typically `sweeps * n_vars`).
    pub proposals: u64,
    /// Proposals accepted (applied flips).
    pub accepted: u64,
}

/// A resumable solver checkpoint, emitted at restart boundaries through
/// [`StageProbe::on_checkpoint`].
///
/// Carries everything a crashed solve needs to continue bit-identically:
/// the next restart index, the best assignment/energy found so far, the
/// evaluation count consumed, and — for solvers that thread one caller RNG
/// through all restarts (`sa`, `tabu`) — the generator's captured state.
/// Solvers that derive an independent per-restart seed (`sa-parallel`,
/// `sa-colored`) leave `rng_state` as `None`: the restart index alone
/// determines their streams.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverCheckpoint {
    /// Static name of the emitting solver loop (e.g. `"sa"`, `"tabu"`).
    pub solver: &'static str,
    /// Restarts completed so far; a resume starts at this index.
    pub next_restart: u64,
    /// Solver evaluations consumed so far (including the baseline).
    pub evaluations: u64,
    /// Best assignment found across the completed restarts.
    pub best_bits: Vec<bool>,
    /// Energy of `best_bits`.
    pub best_energy: f64,
    /// Caller-RNG state captured at the restart boundary (xoshiro256++
    /// words, see `rand::rngs::StdRng::state`); `None` when restart streams
    /// are derived from the restart index instead.
    pub rng_state: Option<[u64; 4]>,
}

/// Observer for solver-internal progress events.
///
/// All methods have empty defaults so implementors opt into exactly the
/// events they care about. Probes are shared with a solver's scoped worker
/// threads, hence `Send + Sync`.
pub trait StageProbe: Send + Sync {
    /// One presolve fixpoint round finished, fixing `fixed_in_round`
    /// variables (the final, converged round reports 0).
    fn on_presolve_round(&self, round: u64, fixed_in_round: u64) {
        let _ = (round, fixed_in_round);
    }

    /// One solver restart finished with the given counters.
    fn on_restart(&self, stats: &RestartStats) {
        let _ = stats;
    }

    /// Whether this probe wants [`StageProbe::on_checkpoint`] payloads.
    /// Building a [`SolverCheckpoint`] clones the best-so-far assignment,
    /// so solver loops ask first and skip the construction entirely for
    /// probes that leave this `false` — the default — keeping unobserved
    /// runs exactly as cheap as before the hook existed.
    fn wants_checkpoints(&self) -> bool {
        false
    }

    /// A resumable checkpoint at a restart boundary, emitted only when
    /// [`StageProbe::wants_checkpoints`] answered `true`. Observation only:
    /// capturing the state consumes no randomness, so checkpointed runs
    /// stay bit-identical to unobserved ones.
    fn on_checkpoint(&self, checkpoint: &SolverCheckpoint) {
        let _ = checkpoint;
    }

    /// Cooperative stop checkpoint, polled by solver loops at restart and
    /// sweep boundaries. Returning `true` asks the solver to stop early and
    /// return its best-so-far result; the default never stops, and the
    /// poll consumes no randomness, so probes that leave this alone keep
    /// solver output bit-identical to an unprobed run. The runtime's
    /// per-job deadline enforcement is built on this hook.
    fn should_stop(&self) -> bool {
        false
    }
}

/// The no-op probe: every hook compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl StageProbe for NoProbe {}

/// Fans every event out to two probes — used by the runtime to combine its
/// own trace collection with a caller-supplied probe.
pub struct TeeProbe(pub Arc<dyn StageProbe>, pub Arc<dyn StageProbe>);

impl StageProbe for TeeProbe {
    fn on_presolve_round(&self, round: u64, fixed_in_round: u64) {
        self.0.on_presolve_round(round, fixed_in_round);
        self.1.on_presolve_round(round, fixed_in_round);
    }

    fn on_restart(&self, stats: &RestartStats) {
        self.0.on_restart(stats);
        self.1.on_restart(stats);
    }

    fn wants_checkpoints(&self) -> bool {
        self.0.wants_checkpoints() || self.1.wants_checkpoints()
    }

    fn on_checkpoint(&self, checkpoint: &SolverCheckpoint) {
        self.0.on_checkpoint(checkpoint);
        self.1.on_checkpoint(checkpoint);
    }

    fn should_stop(&self) -> bool {
        self.0.should_stop() || self.1.should_stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Counting {
        rounds: AtomicU64,
        restarts: AtomicU64,
    }

    impl StageProbe for Counting {
        fn on_presolve_round(&self, _round: u64, _fixed: u64) {
            self.rounds.fetch_add(1, Ordering::Relaxed);
        }
        fn on_restart(&self, _stats: &RestartStats) {
            self.restarts.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn tee_fans_out_to_both_probes() {
        let a = Arc::new(Counting::default());
        let b = Arc::new(Counting::default());
        let tee = TeeProbe(a.clone(), b.clone());
        tee.on_presolve_round(0, 3);
        tee.on_restart(&RestartStats { solver: "sa", ..Default::default() });
        for probe in [&a, &b] {
            assert_eq!(probe.rounds.load(Ordering::Relaxed), 1);
            assert_eq!(probe.restarts.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn no_probe_ignores_everything() {
        NoProbe.on_presolve_round(0, 0);
        NoProbe.on_restart(&RestartStats::default());
    }
}
