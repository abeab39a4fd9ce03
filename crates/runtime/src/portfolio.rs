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

use crate::breaker::CircuitBreakers;
use crate::cost::{analytic_seconds, CostModel, CostShape};
use crate::metrics::Metrics;
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
    /// routing compares backends on the quantized routing channel instead
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

    /// Ranks every eligible backend for a `shape`-shaped job, best first;
    /// the routed backend is the head, and the ranking is empty when no
    /// registered backend admits the model. Score = expected seconds
    /// (calibrated analytic estimate, priced for reliability and for the
    /// backend's circuit-breaker capacity) × a quality multiplier;
    /// ascending score, ties broken by registration order, so the order is
    /// deterministic for a given telemetry state.
    ///
    /// The routing path passes the compiled model's measured [`CostShape`],
    /// the backends this job's earlier attempts failed on (`excluded`), and
    /// the service's circuit breakers with the metrics their transitions
    /// count into. Excluded backends and backends whose breaker is open drop
    /// out — checking an open breaker whose cooldown elapsed half-opens it —
    /// but the ranking never degrades to zero: when every eligible backend
    /// drops out, the best-ranked one stays in, so a fully tripped portfolio
    /// still serves. Half-open backends then move to the front (stable
    /// within each group): their failures price them far down, and left to
    /// expected seconds alone the probe a half-open breaker asks for would
    /// never dispatch.
    pub(crate) fn rank(
        &self,
        registry: &SolverRegistry,
        shape: CostShape,
        excluded: &[usize],
        breakers: Option<(&CircuitBreakers, &Metrics)>,
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
                    breakers.map_or(1.0, |(b, _)| b.capacity(i)),
                );
                (i, expected * (1.0 + QUALITY_WEIGHT * stats[i].ewma_quality))
            })
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let ranked: Vec<usize> = scored.into_iter().map(|(i, _)| i).collect();
        let mut filtered: Vec<usize> = ranked
            .iter()
            .copied()
            .filter(|i| !excluded.contains(i) && !breakers.is_some_and(|(b, m)| b.is_open(*i, m)))
            .collect();
        if filtered.is_empty() && !ranked.is_empty() {
            return vec![ranked[0]];
        }
        if let Some((b, _)) = breakers {
            filtered.sort_by_key(|&i| !b.is_half_open(i));
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
    use crate::breaker::BreakerConfig;
    use crate::cluster::ManualClock;
    use crate::registry::SolverRegistry;
    use std::sync::Arc;
    use std::time::Duration;

    fn record_simple(sched: &PortfolioScheduler, reg: &SolverRegistry, backend: usize, secs: f64) {
        sched.record(reg, backend, CostShape::from_n_vars(6), secs, 0.0, true);
    }

    /// The ranking of an `n_vars`-variable job with nothing excluded and
    /// no breakers.
    fn rank(sched: &PortfolioScheduler, reg: &SolverRegistry, n_vars: usize) -> Vec<usize> {
        sched.rank(reg, CostShape::from_n_vars(n_vars), &[], None)
    }

    #[test]
    fn routing_respects_max_vars() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        // 30 variables: only large-capacity heuristics are eligible.
        let chosen = rank(&sched, &reg, 30).first().copied().expect("someone can take 30 vars");
        assert!(reg.get(chosen).spec.max_vars >= 30);
        // Beyond every backend's cap: unroutable.
        assert!(rank(&sched, &reg, 2_000_000).first().copied().is_none());
    }

    #[test]
    fn small_jobs_route_to_exact() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        let chosen = rank(&sched, &reg, 6).first().copied().expect("routable");
        assert_eq!(reg.get(chosen).spec.name, "exact");
    }

    #[test]
    fn telemetry_shifts_routing() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        let exact = reg.find("exact").unwrap();
        let first = rank(&sched, &reg, 6).first().copied().unwrap();
        assert_eq!(first, exact);
        // Exact turns out to be slow and SA answers instantly and optimally:
        // traffic must move off exact.
        let sa = reg.find("simulated-annealing").unwrap();
        for _ in 0..5 {
            record_simple(&sched, &reg, exact, 10.0);
            record_simple(&sched, &reg, sa, 1e-6);
        }
        let rerouted = rank(&sched, &reg, 6).first().copied().unwrap();
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
        // top two: its route, and its route after a failed attempt.
        for _ in 0..6 {
            sched.record(&reg, exact, CostShape::from_n_vars(4), 5e-6, 0.0, true);
        }
        let ranked = rank(&sched, &reg, 14);
        assert!(!ranked[..2].contains(&exact), "exact ranked in the top two: {ranked:?}");
    }

    #[test]
    fn failures_shift_routing_without_a_latency_signal() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        let exact = reg.find("exact").unwrap();
        assert_eq!(rank(&sched, &reg, 6).first().copied(), Some(exact));
        // Exact answers when it answers — but fails 39 times out of 40.
        // Its expected cost is latency ÷ success rate, which prices it
        // far above the (slower but reliable) heuristics at this size.
        record_simple(&sched, &reg, exact, 1e-5);
        for _ in 0..39 {
            sched.record_failure(exact);
        }
        let rerouted = rank(&sched, &reg, 6).first().copied().unwrap();
        assert_ne!(rerouted, exact, "an unreliable backend loses its route");
    }

    #[test]
    fn breakers_drop_price_and_promote_backends() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        let (exact, sa) = (reg.find("exact").unwrap(), reg.find("simulated-annealing").unwrap());
        let shape = CostShape::from_n_vars(6);
        let clock = Arc::new(ManualClock::new(0));
        let config = BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(1),
            clock: Some(Arc::clone(&clock) as Arc<dyn crate::cluster::Clock>),
        };
        let breakers = CircuitBreakers::new(&config, reg.len());
        let metrics = Metrics::new();
        let ranked = || sched.rank(&reg, shape, &[], Some((&breakers, &metrics)));
        assert_eq!(ranked()[0], exact);
        assert_ne!(ranked()[0], sa);
        // An open breaker drops its backend out of the ranking.
        breakers.on_failure(sa, &metrics);
        assert!(!ranked().contains(&sa));
        // Once the cooldown elapses, the ranking half-opens the breaker and
        // puts the probe first, although its capacity discount prices it up.
        clock.advance(1_000_000);
        assert_eq!(ranked()[0], sa);
        assert_eq!(metrics.report().breaker_half_opened, 1);
        assert!(
            sched.expected_seconds(&reg, sa, shape, breakers.capacity(sa))
                > sched.expected_seconds(&reg, sa, shape, 1.0)
        );
        // With every eligible backend excluded, the best-ranked one stays.
        assert_eq!(sched.rank(&reg, shape, &reg.eligible(6), None), vec![exact]);
    }

    #[test]
    fn rank_is_deterministic_and_route_is_its_head() {
        let reg = SolverRegistry::standard();
        let sched = PortfolioScheduler::new(reg.len());
        for n_vars in [4usize, 6, 30] {
            let ranked = rank(&sched, &reg, n_vars);
            assert!(!ranked.is_empty());
            assert_eq!(rank(&sched, &reg, n_vars).first().copied(), Some(ranked[0]));
            for &i in &ranked {
                assert!(reg.get(i).spec.max_vars >= n_vars);
            }
            assert_eq!(ranked, rank(&sched, &reg, n_vars), "ranking must be stable");
        }
        assert!(rank(&sched, &reg, 2_000_000).is_empty());
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
