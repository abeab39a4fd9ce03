//! The adaptive portfolio scheduler: decides which registered backend gets
//! each job.
//!
//! Routing is priced in **expected seconds** by the calibrated cost model
//! ([`crate::cost::CostModel`], owned here): each eligible backend's
//! analytic estimate ([`crate::cost::analytic_seconds`]) is scaled by its
//! observed calibration ratio, divided by its observed success rate and
//! its circuit-breaker capacity, then blended with an
//! exponentially-weighted moving average of energy quality (how far above
//! the model's naive lower bound the returned assignment landed, plus a
//! penalty for infeasible decodes). Backends that answer fast, reliably,
//! and well pull traffic; backends that stall, fail, or return poor
//! assignments shed it. This is the serving-tier half of the hybrid
//! orchestration the Zajac & Störl architecture calls for: classical
//! control choosing among quantum(-like) backends per request.

use crate::cost::{analytic_seconds, CostModel, CostShape};
use crate::registry::SolverRegistry;
use crate::sync::LockExt;
use std::sync::Mutex;

/// Live routing statistics for one backend.
#[derive(Debug, Clone, Default)]
pub struct BackendStats {
    /// Jobs routed here so far.
    pub observations: u64,
    /// EWMA of solve latency in seconds. Telemetry only: routing prices
    /// latency through the calibrated cost model, which extrapolates to
    /// the job's size instead of reusing a raw latency.
    pub ewma_latency: f64,
    /// EWMA of energy quality (0 = at the naive lower bound; higher is
    /// worse; infeasible decodes add a fixed penalty).
    pub ewma_quality: f64,
    /// Portfolio races this backend participated in.
    pub race_entries: u64,
    /// Races this backend won (best energy, ties to the higher-ranked
    /// participant).
    pub race_wins: u64,
}

/// EWMA smoothing factor: each new observation carries 20% weight.
const ALPHA: f64 = 0.2;

/// Extra quality penalty for an infeasible decoded assignment.
const INFEASIBLE_PENALTY: f64 = 4.0;

/// Weight of the quality term relative to expected cost when scoring.
const QUALITY_WEIGHT: f64 = 0.5;

/// The adaptive router.
pub struct PortfolioScheduler {
    stats: Mutex<Vec<BackendStats>>,
    cost: CostModel,
}

impl PortfolioScheduler {
    /// A scheduler tracking `n_backends` backends.
    pub fn new(n_backends: usize) -> Self {
        Self {
            stats: Mutex::new(vec![BackendStats::default(); n_backends]),
            cost: CostModel::new(n_backends),
        }
    }

    /// The calibrated cost model routing is priced on. Shared with the
    /// admission/scheduling layers so every decision quotes the same
    /// predicted seconds.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Reliability-priced expected seconds for `backend` on a
    /// `shape`-shaped job: calibrated prediction ÷ success rate ÷
    /// `capacity` (the breaker-state discount; 1.0 when breakers are
    /// off). This is the *quote* channel (admission, DRR, shed hints);
    /// route/race comparisons use the quantized routing channel instead
    /// ([`crate::cost::CostModel::expected_routing_seconds`]).
    pub fn expected_seconds(
        &self,
        registry: &SolverRegistry,
        backend: usize,
        shape: CostShape,
        capacity: f64,
    ) -> f64 {
        self.cost.expected_seconds(
            backend,
            analytic_seconds(&registry.get(backend).spec, shape),
            capacity,
        )
    }

    /// Ranks every eligible backend for an `n_vars`-variable job, best
    /// first; empty when no registered backend admits the model. Score =
    /// expected seconds (calibrated analytic estimate, priced for
    /// reliability) × a quality multiplier; ascending score, ties broken by
    /// registration order, so `rank(..).first()` is the routed backend. The
    /// prefix of this ranking is what a [`crate::service::BackendChoice::Race`]
    /// job's participants are drawn from, so the order is deterministic for
    /// a given telemetry state.
    pub fn rank(&self, registry: &SolverRegistry, n_vars: usize) -> Vec<usize> {
        self.rank_costed(registry, CostShape::from_n_vars(n_vars), |_| false, |_| 1.0)
    }

    /// The full-information ranking: a measured [`CostShape`] (the
    /// compiled model's real average degree), per-candidate exclusion, and
    /// a per-candidate capacity discount (open/half-open breakers price a
    /// backend up instead of merely dropping out of one ranking). `exclude`
    /// is consulted per candidate (open circuit breakers, backends that
    /// already failed this job's earlier attempts). Never degrades to zero —
    /// when every eligible backend is excluded, the best-ranked one stays
    /// in, so a fully tripped portfolio still serves (its next answer is
    /// also the half-open probe that can re-close a breaker).
    pub fn rank_costed(
        &self,
        registry: &SolverRegistry,
        shape: CostShape,
        exclude: impl Fn(usize) -> bool,
        capacity: impl Fn(usize) -> f64,
    ) -> Vec<usize> {
        let eligible = registry.eligible(shape.n_vars);
        let stats = self.stats.lock_unpoisoned();
        let mut scored: Vec<(usize, f64)> = eligible
            .into_iter()
            .map(|i| {
                // Routing-channel pricing (quantized calibration): see
                // [`CostModel::expected_routing_seconds`] for why ranking
                // must not consume the raw jittery ratio.
                let expected = self.cost.expected_routing_seconds(
                    i,
                    analytic_seconds(&registry.get(i).spec, shape),
                    capacity(i),
                );
                (i, expected * (1.0 + QUALITY_WEIGHT * stats[i].ewma_quality))
            })
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let ranked: Vec<usize> = scored.into_iter().map(|(i, _)| i).collect();
        let filtered: Vec<usize> = ranked.iter().copied().filter(|&i| !exclude(i)).collect();
        if filtered.is_empty() && !ranked.is_empty() {
            return vec![ranked[0]];
        }
        filtered
    }

    /// Feeds one completed solve back into the router: the quality EWMA
    /// for scoring, the latency EWMA for telemetry, and the cost model's
    /// calibration ratio for the same backend (observed seconds against
    /// the analytic estimate for this job's `shape`).
    ///
    /// `quality` should be the normalized energy gap produced by
    /// [`energy_quality`]; `feasible` is the decoded assignment's
    /// feasibility.
    pub fn record(
        &self,
        registry: &SolverRegistry,
        backend: usize,
        shape: CostShape,
        latency_seconds: f64,
        quality: f64,
        feasible: bool,
    ) {
        {
            let mut stats = self.stats.lock_unpoisoned();
            let s = &mut stats[backend];
            let q = quality + if feasible { 0.0 } else { INFEASIBLE_PENALTY };
            if s.observations == 0 {
                s.ewma_latency = latency_seconds;
                s.ewma_quality = q;
            } else {
                s.ewma_latency = (1.0 - ALPHA) * s.ewma_latency + ALPHA * latency_seconds;
                s.ewma_quality = (1.0 - ALPHA) * s.ewma_quality + ALPHA * q;
            }
            s.observations += 1;
        }
        self.cost.observe(
            backend,
            analytic_seconds(&registry.get(backend).spec, shape),
            latency_seconds,
        );
    }

    /// Records a failure attributed to `backend`: prices its expected cost
    /// up via the success rate without touching latency calibration.
    pub fn record_failure(&self, backend: usize) {
        self.cost.observe_failure(backend);
    }

    /// Records one backend's participation in a portfolio race and whether
    /// it produced the winning result. Solve telemetry (latency/quality) is
    /// fed separately through [`Self::record`] for every participant, so a
    /// race teaches the router about k backends at once — the
    /// compile-once/race-many feedback loop.
    pub fn record_race_outcome(&self, backend: usize, won: bool) {
        let mut stats = self.stats.lock_unpoisoned();
        let s = &mut stats[backend];
        s.race_entries += 1;
        if won {
            s.race_wins += 1;
        }
    }

    /// Snapshot of per-backend statistics, indexed like the registry.
    pub fn stats(&self) -> Vec<BackendStats> {
        self.stats.lock_unpoisoned().clone()
    }
}

/// Normalized energy quality of a solve: how far `energy` sits above the
/// model's naive lower bound, scaled by the bound's magnitude. 0 is ideal;
/// the scale-free form keeps 5-variable and 500-variable jobs comparable.
pub fn energy_quality(energy: f64, naive_lower_bound: f64) -> f64 {
    (energy - naive_lower_bound).max(0.0) / (naive_lower_bound.abs() + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SolverRegistry;

    fn record_simple(sched: &PortfolioScheduler, reg: &SolverRegistry, backend: usize, secs: f64) {
        sched.record(reg, backend, CostShape::from_n_vars(6), secs, 0.0, true);
    }

    #[test]
    fn routing_respects_max_vars() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        // 30 variables: only large-capacity heuristics are eligible.
        let chosen = sched.rank(&reg, 30).first().copied().expect("someone can take 30 vars");
        assert!(reg.get(chosen).spec.max_vars >= 30);
        // Beyond every backend's cap: unroutable.
        assert!(sched.rank(&reg, 2_000_000).first().copied().is_none());
    }

    #[test]
    fn small_jobs_route_to_exact() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        let chosen = sched.rank(&reg, 6).first().copied().expect("routable");
        assert_eq!(reg.get(chosen).spec.name, "exact");
    }

    #[test]
    fn telemetry_shifts_routing() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        let exact = reg.find("exact").unwrap();
        let first = sched.rank(&reg, 6).first().copied().unwrap();
        assert_eq!(first, exact);
        // Exact turns out to be slow and SA answers instantly and optimally:
        // traffic must move off exact.
        let sa = reg.find("simulated-annealing").unwrap();
        for _ in 0..5 {
            record_simple(&sched, &reg, exact, 10.0);
            record_simple(&sched, &reg, sa, 1e-6);
        }
        let rerouted = sched.rank(&reg, 6).first().copied().unwrap();
        assert_eq!(rerouted, sa);
    }

    #[test]
    fn fast_tiny_exact_solves_do_not_route_a_large_job_to_exact() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        let exact = reg.find("exact").unwrap();
        // Six fast 4-variable enumerations: a raw latency of 5 µs says
        // nothing about 2^14 states. The cost model extrapolates along
        // the analytic curve, so exact stays out of a 14-variable job's
        // top two (a k=2 race would burn its ~1 ms of wasted work).
        for _ in 0..6 {
            sched.record(&reg, exact, CostShape::from_n_vars(4), 5e-6, 0.0, true);
        }
        let ranked = sched.rank_costed(&reg, CostShape::from_n_vars(14), |_| false, |_| 1.0);
        assert!(!ranked[..2].contains(&exact), "exact ranked in the top two: {ranked:?}");
    }

    #[test]
    fn failures_shift_routing_without_a_latency_signal() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        let exact = reg.find("exact").unwrap();
        assert_eq!(sched.rank(&reg, 6).first().copied(), Some(exact));
        // Exact answers when it answers — but fails 39 times out of 40.
        // Its expected cost is latency ÷ success rate, which prices it
        // far above the (slower but reliable) heuristics at this size.
        record_simple(&sched, &reg, exact, 1e-5);
        for _ in 0..39 {
            sched.record_failure(exact);
        }
        let rerouted = sched.rank(&reg, 6).first().copied().unwrap();
        assert_ne!(rerouted, exact, "an unreliable backend loses its route");
    }

    #[test]
    fn capacity_discount_reprices_a_backend() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        let exact = reg.find("exact").unwrap();
        let shape = CostShape::from_n_vars(6);
        let full = sched.rank_costed(&reg, shape, |_| false, |_| 1.0);
        assert_eq!(full[0], exact);
        // A breaker-discounted exact (capacity 0.25 = open) is priced 4×
        // but still cheap enough to lead at 6 vars; at a harsher discount
        // the field passes it.
        let discounted =
            sched.rank_costed(&reg, shape, |_| false, |i| if i == exact { 1e-3 } else { 1.0 });
        assert!(
            sched.expected_seconds(&reg, exact, shape, 1e-3)
                > sched.expected_seconds(&reg, exact, shape, 1.0)
        );
        // Deterministic: repeated calls agree.
        assert_eq!(
            discounted,
            sched.rank_costed(&reg, shape, |_| false, |i| if i == exact { 1e-3 } else { 1.0 })
        );
    }

    #[test]
    fn rank_is_deterministic_and_route_is_its_head() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        for n_vars in [4usize, 6, 30] {
            let ranked = sched.rank(&reg, n_vars);
            assert!(!ranked.is_empty());
            assert_eq!(sched.rank(&reg, n_vars).first().copied(), Some(ranked[0]));
            for &i in &ranked {
                assert!(reg.get(i).spec.max_vars >= n_vars);
            }
            assert_eq!(ranked, sched.rank(&reg, n_vars), "ranking must be stable");
        }
        assert!(sched.rank(&reg, 2_000_000).is_empty());
    }

    #[test]
    fn race_outcomes_accumulate_per_backend() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        sched.record_race_outcome(0, true);
        sched.record_race_outcome(0, false);
        sched.record_race_outcome(1, false);
        let stats = sched.stats();
        assert_eq!((stats[0].race_entries, stats[0].race_wins), (2, 1));
        assert_eq!((stats[1].race_entries, stats[1].race_wins), (1, 0));
    }

    #[test]
    fn infeasible_results_penalize_a_backend() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        let a = 0;
        sched.record(&reg, a, CostShape::from_n_vars(6), 0.001, 0.0, false);
        let stats = sched.stats();
        assert!(stats[a].ewma_quality >= INFEASIBLE_PENALTY);
    }

    #[test]
    fn recording_calibrates_the_cost_model() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        let sa = reg.find("simulated-annealing").unwrap();
        let shape = CostShape::from_n_vars(64);
        let analytic = crate::cost::analytic_seconds(&reg.get(sa).spec, shape);
        // Observed 3× the analytic estimate: predictions follow.
        sched.record(&reg, sa, shape, analytic * 3.0, 0.0, true);
        let predicted = sched.cost_model().predict_seconds(sa, analytic);
        assert!((predicted - analytic * 3.0).abs() < 1e-12);
    }

    #[test]
    fn energy_quality_is_normalized() {
        assert_eq!(energy_quality(-10.0, -10.0), 0.0);
        assert!(energy_quality(-5.0, -10.0) > 0.0);
        // Better-than-bound (impossible, but numerically) clamps to 0.
        assert_eq!(energy_quality(-11.0, -10.0), 0.0);
    }
}
