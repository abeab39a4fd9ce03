//! The calibrated cost model: one predicted-seconds estimate shared by
//! every layer of the runtime's decision plane.
//!
//! Four layers used to invent their own notion of "cost": the portfolio
//! ranked on raw EWMA latency seeded from hand-tuned static priors, the
//! fair scheduler's deficit-round-robin charged `n_vars`, the cluster's
//! token buckets drained 1.0 per job, and shedding looked at queue
//! *length*. This module replaces all four currencies with one:
//! **predicted seconds of backend time**, produced by per-backend analytic
//! estimators ([`analytic_seconds`]) and corrected online by the latency
//! telemetry the runtime already collects — the trace-then-estimate
//! architecture of the QDK resource estimator applied to our own
//! telemetry.
//!
//! The estimate flows in three refinements:
//!
//! 1. **Analytic** ([`analytic_seconds`]) — a cold-start curve per backend
//!    family with documented units (seconds): exhaustive enumeration and
//!    the gate-based simulator routes pay an exponential state-space
//!    factor, annealing/tabu metaheuristics pay
//!    `sweeps × n_vars × avg_degree` coupling evaluations, and random
//!    sampling is the cheapest per evaluation. These replace the old
//!    `SolverSpec::prior_cost` unit-free constants.
//! 2. **Predicted** ([`CostModel::predict_seconds`]) — the analytic value
//!    times a per-backend calibration ratio, an EWMA of
//!    `observed / analytic` seeded by the first observation. Calibration
//!    absorbs everything the analytic shape cannot know (host speed,
//!    cache effects, constant factors) while the shape keeps extrapolation
//!    sane across problem sizes the backend has never seen.
//! 3. **Expected** ([`CostModel::expected_seconds`]) — reliability-priced:
//!    predicted latency ÷ observed success rate ÷ breaker capacity. An
//!    unreliable backend's expected cost is its latency divided by its
//!    success rate, not its raw EWMA; an open or half-open circuit breaker
//!    discounts the backend's capacity (see
//!    [`crate::breaker`]) rather than merely excluding it from one
//!    ranking.
//! 4. **Routing** ([`CostModel::expected_routing_seconds`]) — the variant
//!    backends are *compared* on when a route or race lineup is chosen.
//!    Calibration enters as the backend's quantized deviation from the
//!    fleet-wide common-mode ratio instead of the raw EWMA, so uniform
//!    environment slowness and measurement jitter cannot flip a routing
//!    decision — identical job streams route identically, which the
//!    crash-safe runtime's deterministic recovery depends on.
//!
//! Consumers: [`crate::portfolio::PortfolioScheduler`] routes and picks
//! race participants by expected seconds; the DRR scheduler
//! ([`crate::scheduler`]) charges predicted microseconds per job; the
//! cluster's [`crate::cluster::AdmissionConfig`] token buckets drain by
//! predicted seconds; watermark shedding and `retry_after_hint` derive
//! from estimated backlog seconds. None of this changes what a backend
//! computes — the model changes *which* backend runs and *when*, never the
//! bits of a result.

use crate::registry::SolverSpec;
use crate::sync::LockExt;
use qdm_core::cores;
use qdm_core::solver::SolverKind;
use std::sync::Mutex;

/// Sweep budget the annealing-family analytic curves assume. Matches the
/// default schedule length of the SA/tabu stand-ins; calibration absorbs
/// deviations.
pub const DEFAULT_SWEEPS: f64 = 800.0;

/// Seconds per coupling evaluation in an annealing/tabu sweep (one
/// neighbor read + multiply-accumulate on the compiled CSR).
const COUPLING_EVAL_SECONDS: f64 = 1.5e-9;

/// Seconds per enumerated state for exhaustive enumeration. Measured on
/// the reference container (release build, `examples/cost_calibration`):
/// actual ÷ 2^n settles at 7–9e-8 s/state for n = 14..22.
const EXACT_STATE_SECONDS: f64 = 7e-8;

/// Seconds per 2^n state-vector slot for one gate-based route (circuit
/// depth × per-amplitude gate cost folded into one constant — the dense
/// simulator touches the whole vector per layer). Measured like
/// [`EXACT_STATE_SECONDS`]: the adiabatic/gate simulators run 4–5e-6
/// s/slot on the reference container.
const GATE_STATE_SECONDS: f64 = 4e-6;

/// Fixed per-job cost added to every analytic estimate: queue handoff,
/// compile-cache lookup, decode, and channel completion. Without this
/// floor a microsecond-scale job's calibration ratio would measure the
/// *runtime's* overhead, not the backend's speed, and poison
/// extrapolation to larger shapes.
const DISPATCH_OVERHEAD_SECONDS: f64 = 1e-6;

/// Tabu search pays a longer schedule than plain SA per restart.
const TABU_SWEEPS: f64 = 1200.0;

/// Random sampling re-evaluates full energies per draw; ~10× SA's
/// per-variable work for the same budget.
const RANDOM_SWEEPS: f64 = 8000.0;

/// Floor for any predicted value: keeps expected-cost arithmetic (ratios,
/// divisions, DRR integer conversion) away from zero.
pub const MIN_PREDICTED_SECONDS: f64 = 1e-9;

/// Ceiling for any predicted value: keeps a runaway ratio or a zero
/// success rate from producing unusable infinities (also the cap on
/// backlog-derived retry hints).
pub const MAX_PREDICTED_SECONDS: f64 = 3600.0;

/// A backend is never priced as succeeding less often than this — a
/// consistently failing backend gets expensive (20×), not infinitely so,
/// matching the "never degrade to zero" routing rule.
const MIN_SUCCESS_RATE: f64 = 0.05;

/// EWMA smoothing factor for calibration: each new observation carries
/// 20% weight (matches the portfolio's latency EWMA).
const ALPHA: f64 = 0.2;

/// EWMA smoothing factor for the *routing* calibration channel: slower
/// than [`ALPHA`] so a burst of contended measurements cannot swing a
/// routing decision that a steady signal would not.
const ROUTING_ALPHA: f64 = 0.1;

/// Quantization base for the routing multiplier: per-backend calibration
/// enters routing as `16^k` for integer `k`, so only a sustained ≥4×
/// *relative* deviation (half a base-16 decade) from the fleet-wide
/// common mode changes a route.
const ROUTING_QUANT_BASE: f64 = 16.0;

/// Exponent clamp for the routing multiplier: at most `16^±2` (256× in
/// either direction), enough for a grossly mispredicted backend to lose
/// every route it should lose, bounded so a runaway ratio cannot price a
/// backend into (or out of) infinity.
const ROUTING_EXP_CLAMP: i32 = 2;

/// Clamps a predicted/expected value into the representable band,
/// mapping NaN (0/0 arithmetic on pathological inputs) to the ceiling.
fn clamp_seconds(x: f64) -> f64 {
    if x.is_nan() {
        MAX_PREDICTED_SECONDS
    } else {
        x.clamp(MIN_PREDICTED_SECONDS, MAX_PREDICTED_SECONDS)
    }
}

/// The problem-shape inputs the analytic estimators consume.
///
/// Routing decisions that happen before compilation (admission, DRR
/// charging) only know the variable count and use
/// [`CostShape::from_n_vars`], which assumes the bounded coupling degree
/// the presolve typically leaves behind. Decisions made after compilation
/// (racing inside a worker) pass the compiled model's real
/// [`qdm_qubo::compiled::CompiledQubo::avg_degree`] via
/// [`CostShape::with_degree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostShape {
    /// Number of decision variables.
    pub n_vars: usize,
    /// Mean coupling degree per variable (neighbors touched per flip).
    pub avg_degree: f64,
}

impl CostShape {
    /// Shape from a variable count alone, with the default degree
    /// assumption `min(n_vars - 1, 8)` — dense for tiny models, bounded
    /// for large ones.
    pub fn from_n_vars(n_vars: usize) -> Self {
        Self { n_vars, avg_degree: (n_vars.saturating_sub(1)).min(8) as f64 }
    }

    /// Shape with a measured average coupling degree (from the compiled
    /// CSR).
    pub fn with_degree(n_vars: usize, avg_degree: f64) -> Self {
        Self { n_vars, avg_degree: avg_degree.max(0.0) }
    }
}

/// Cold-start analytic estimate, in **seconds**, of solving a
/// `shape`-shaped model on `spec`'s backend. This is the estimate online
/// calibration corrects; see the module docs for the family shapes.
///
/// The parallel-restart SA divides by the host's hardware threads
/// (restarts fan out across the machine; on a single-core host it
/// degrades to the serial curve and ties break by registration order,
/// which lists serial SA first). The quote assumes every hardware thread
/// even though the solver fans out only onto the cores the
/// [`qdm_core::cores`] budget finds idle, so on a saturated service it
/// underprices the parallel backend; pricing that contention into routing
/// is open work.
pub fn analytic_seconds(spec: &SolverSpec, shape: CostShape) -> f64 {
    let n = shape.n_vars as f64;
    // Degree enters as "work per sweep position"; at least 1 so an empty
    // coupling matrix still costs the linear pass.
    let degree = shape.avg_degree.max(1.0);
    let sweep_work = n * degree * COUPLING_EVAL_SECONDS;
    let estimate = match spec.kind {
        SolverKind::GateBased => (n.min(30.0)).exp2() * GATE_STATE_SECONDS,
        SolverKind::Annealing if spec.name.contains("adiabatic") => {
            (n.min(30.0)).exp2() * GATE_STATE_SECONDS
        }
        SolverKind::Annealing if spec.name.ends_with("-parallel") => {
            DEFAULT_SWEEPS * sweep_work / cores::hardware_threads() as f64
        }
        SolverKind::Annealing => DEFAULT_SWEEPS * sweep_work,
        SolverKind::Classical if spec.name == "exact" => (n.min(40.0)).exp2() * EXACT_STATE_SECONDS,
        SolverKind::Classical if spec.name == "random" => RANDOM_SWEEPS * sweep_work,
        SolverKind::Classical => TABU_SWEEPS * sweep_work,
    };
    clamp_seconds(DISPATCH_OVERHEAD_SECONDS + estimate)
}

/// Per-backend calibration state, snapshot via [`CostModel::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CalibrationStats {
    /// Completed solves observed (successes).
    pub observations: u64,
    /// EWMA of `observed_seconds / analytic_seconds`; meaningless until
    /// the first observation — read it through
    /// [`CalibrationStats::ratio`].
    pub ewma_ratio: f64,
    /// Completed solves (the numerator of the success rate).
    pub successes: u64,
    /// Failures attributed to this backend (panics, injected faults,
    /// exhausted retries).
    pub failures: u64,
    /// EWMA of the prediction in force when each observation arrived.
    pub ewma_predicted_seconds: f64,
    /// EWMA of observed solve seconds (the calibration target).
    pub ewma_actual_seconds: f64,
    /// EWMA of the symmetric error factor
    /// `max(predicted/actual, actual/predicted)`; 1.0 is a perfect
    /// estimator, 2.0 means predictions are off by 2× in either
    /// direction.
    pub ewma_error_factor: f64,
}

impl CalibrationStats {
    /// The calibration ratio to multiply an analytic estimate by: 1.0
    /// (trust the analytic curve) until the first observation.
    pub fn ratio(&self) -> f64 {
        if self.observations == 0 {
            1.0
        } else {
            self.ewma_ratio
        }
    }

    /// Observed success rate, clamped to `MIN_SUCCESS_RATE`; 1.0 when
    /// nothing has been observed (no evidence of unreliability yet).
    pub fn success_rate(&self) -> f64 {
        let total = self.successes + self.failures;
        if total == 0 {
            1.0
        } else {
            (self.successes as f64 / total as f64).max(MIN_SUCCESS_RATE)
        }
    }
}

/// Interior state of the [`CostModel`]: the public per-backend
/// [`CalibrationStats`] plus the routing channel's log-space EWMAs.
struct ModelState {
    slots: Vec<CalibrationStats>,
    /// Per-backend EWMA of `log16(observed / analytic)`; `None` until the
    /// backend's first observation.
    routing_log_ratio: Vec<Option<f64>>,
    /// Fleet-wide EWMA of the same quantity over *every* observation —
    /// the environment's common-mode factor (a slow host, a debug build,
    /// a contended core slow every backend roughly equally).
    global_log_ratio: Option<f64>,
}

/// The online-calibrated cost model: one [`CalibrationStats`] slot per
/// registered backend, indexed like the registry. Owned by the
/// [`crate::portfolio::PortfolioScheduler`] so routing feedback
/// ([`crate::portfolio::PortfolioScheduler::record`]) calibrates
/// predictions in the same breath as it updates latency telemetry.
///
/// The model exposes two read channels with different noise tolerances:
///
/// - **Quotes** ([`CostModel::predict_seconds`],
///   [`CostModel::expected_seconds`]) scale the analytic estimate by the
///   raw calibration ratio. Consumers — admission buckets, DRR charges,
///   shed hints, metrics — meter *aggregate* work, where measurement
///   jitter averages out harmlessly.
/// - **Routing** ([`CostModel::expected_routing_seconds`]) compares
///   backends against each other, where jitter is poison: a single
///   contended measurement must not flip which backend wins a route, or
///   identical job streams replay differently (breaking the crash-safe
///   runtime's deterministic-recovery guarantee). Routing therefore reads
///   calibration as each backend's deviation from the fleet-wide
///   common-mode ratio, quantized to powers of `ROUTING_QUANT_BASE`:
///   uniform slowness cancels out entirely, and only a sustained ≥4×
///   relative miscalibration moves a backend across a quantization
///   boundary and changes a route.
pub struct CostModel {
    state: Mutex<ModelState>,
}

impl CostModel {
    /// A model tracking `n_backends` backends, all uncalibrated.
    pub fn new(n_backends: usize) -> Self {
        Self {
            state: Mutex::new(ModelState {
                slots: vec![CalibrationStats::default(); n_backends],
                routing_log_ratio: vec![None; n_backends],
                global_log_ratio: None,
            }),
        }
    }

    /// Calibrated latency prediction: the analytic estimate scaled by the
    /// backend's observed ratio. Clamped to
    /// [`MIN_PREDICTED_SECONDS`]..=[`MAX_PREDICTED_SECONDS`].
    pub fn predict_seconds(&self, backend: usize, analytic_seconds: f64) -> f64 {
        let state = self.state.lock_unpoisoned();
        clamp_seconds(analytic_seconds * state.slots[backend].ratio())
    }

    /// Reliability-priced expected cost: predicted seconds ÷ success rate
    /// ÷ `capacity`. `capacity` is the breaker-state discount in (0, 1]
    /// (see [`crate::breaker`]); pass 1.0 when breakers are disabled.
    pub fn expected_seconds(&self, backend: usize, analytic_seconds: f64, capacity: f64) -> f64 {
        let state = self.state.lock_unpoisoned();
        let s = &state.slots[backend];
        let predicted = analytic_seconds * s.ratio();
        clamp_seconds(predicted / s.success_rate() / capacity.clamp(1e-3, 1.0))
    }

    /// The routing channel's calibration multiplier for `backend`:
    /// `16^k` where `k` is the backend's log-ratio deviation from the
    /// fleet common mode, rounded to the nearest integer and clamped to
    /// ±`ROUTING_EXP_CLAMP`. 1.0 while the backend (or the fleet) is
    /// unobserved, and *exactly* 1.0 whenever only one backend has been
    /// observed — a backend cannot deviate from a common mode it defines
    /// alone.
    pub fn routing_multiplier(&self, backend: usize) -> f64 {
        let state = self.state.lock_unpoisoned();
        Self::routing_multiplier_locked(&state, backend)
    }

    fn routing_multiplier_locked(state: &ModelState, backend: usize) -> f64 {
        match (state.routing_log_ratio[backend], state.global_log_ratio) {
            (Some(own), Some(fleet)) => {
                let exp = (own - fleet).round() as i32;
                ROUTING_QUANT_BASE.powi(exp.clamp(-ROUTING_EXP_CLAMP, ROUTING_EXP_CLAMP))
            }
            _ => 1.0,
        }
    }

    /// Routing-priced expected cost: analytic seconds ×
    /// [`CostModel::routing_multiplier`] ÷ success rate ÷ `capacity`.
    /// This is the value backends are *compared* on — quantized so that
    /// measurement jitter (and uniform environment slowness) can never
    /// flip a route, keeping routing deterministic for a given job/outcome
    /// sequence. Success rate and breaker capacity are themselves
    /// deterministic functions of that sequence, so they enter raw.
    pub fn expected_routing_seconds(
        &self,
        backend: usize,
        analytic_seconds: f64,
        capacity: f64,
    ) -> f64 {
        let state = self.state.lock_unpoisoned();
        let predicted = analytic_seconds * Self::routing_multiplier_locked(&state, backend);
        let s = &state.slots[backend];
        clamp_seconds(predicted / s.success_rate() / capacity.clamp(1e-3, 1.0))
    }

    /// Feeds one completed solve back: `analytic_seconds` is the estimate
    /// for the job's shape, `actual_seconds` the observed solve time. The
    /// first observation seeds every EWMA; the error factor is measured
    /// against the prediction that was *in force before* this observation
    /// updated the ratio.
    pub fn observe(&self, backend: usize, analytic_seconds: f64, actual_seconds: f64) {
        let analytic = analytic_seconds.max(MIN_PREDICTED_SECONDS);
        let actual = actual_seconds.max(MIN_PREDICTED_SECONDS);
        let mut state = self.state.lock_unpoisoned();
        let s = &mut state.slots[backend];
        let predicted = clamp_seconds(analytic * s.ratio());
        let ratio = actual / analytic;
        let error = (predicted / actual).max(actual / predicted);
        if s.observations == 0 {
            s.ewma_ratio = ratio;
            s.ewma_predicted_seconds = predicted;
            s.ewma_actual_seconds = actual;
            s.ewma_error_factor = error;
        } else {
            s.ewma_ratio = (1.0 - ALPHA) * s.ewma_ratio + ALPHA * ratio;
            s.ewma_predicted_seconds = (1.0 - ALPHA) * s.ewma_predicted_seconds + ALPHA * predicted;
            s.ewma_actual_seconds = (1.0 - ALPHA) * s.ewma_actual_seconds + ALPHA * actual;
            s.ewma_error_factor = (1.0 - ALPHA) * s.ewma_error_factor + ALPHA * error;
        }
        s.observations += 1;
        s.successes += 1;
        // Routing channel: the same observation in log16 space, folded
        // into both the backend's own EWMA and the fleet common mode.
        let log_ratio = ratio.log2() / ROUTING_QUANT_BASE.log2();
        let own = &mut state.routing_log_ratio[backend];
        *own = Some(match *own {
            None => log_ratio,
            Some(prev) => (1.0 - ROUTING_ALPHA) * prev + ROUTING_ALPHA * log_ratio,
        });
        state.global_log_ratio = Some(match state.global_log_ratio {
            None => log_ratio,
            Some(prev) => (1.0 - ROUTING_ALPHA) * prev + ROUTING_ALPHA * log_ratio,
        });
    }

    /// Records a failure attributed to `backend`: lowers its success rate
    /// so its expected cost rises, without touching latency calibration
    /// (a failed attempt's duration says nothing about a successful
    /// one's).
    pub fn observe_failure(&self, backend: usize) {
        let mut state = self.state.lock_unpoisoned();
        state.slots[backend].failures += 1;
    }

    /// Snapshot of per-backend calibration state, indexed like the
    /// registry.
    pub fn stats(&self) -> Vec<CalibrationStats> {
        self.state.lock_unpoisoned().slots.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SolverRegistry;

    fn spec_of(reg: &SolverRegistry, name: &str) -> SolverSpec {
        reg.get(reg.find(name).expect("registered")).spec.clone()
    }

    #[test]
    fn parallel_sa_estimate_is_competitive_with_serial() {
        let reg = SolverRegistry::standard();
        let par = spec_of(&reg, "simulated-annealing-parallel");
        let sa = spec_of(&reg, "simulated-annealing");
        // Never costlier than serial SA; strictly cheaper on multi-core.
        for n in [32usize, 128, 1024] {
            let shape = CostShape::from_n_vars(n);
            assert!(analytic_seconds(&par, shape) <= analytic_seconds(&sa, shape));
        }
    }

    #[test]
    fn estimates_prefer_heuristics_at_scale() {
        let reg = SolverRegistry::standard();
        let sa = spec_of(&reg, "simulated-annealing");
        let exact = spec_of(&reg, "exact");
        // Small models: exact enumeration is cheap enough to win.
        assert!(
            analytic_seconds(&exact, CostShape::from_n_vars(6))
                < analytic_seconds(&sa, CostShape::from_n_vars(6))
        );
        // Large models: exponential enumeration must lose.
        assert!(
            analytic_seconds(&exact, CostShape::from_n_vars(25))
                > analytic_seconds(&sa, CostShape::from_n_vars(25))
        );
    }

    #[test]
    fn degree_scales_annealing_but_not_enumeration() {
        let reg = SolverRegistry::standard();
        let sa = spec_of(&reg, "simulated-annealing");
        let exact = spec_of(&reg, "exact");
        let sparse = CostShape::with_degree(64, 2.0);
        let dense = CostShape::with_degree(64, 32.0);
        assert!(analytic_seconds(&sa, sparse) < analytic_seconds(&sa, dense));
        assert_eq!(analytic_seconds(&exact, sparse), analytic_seconds(&exact, dense));
    }

    #[test]
    fn calibration_ratio_seeds_then_tracks() {
        let model = CostModel::new(2);
        // Uncalibrated: the analytic estimate passes through.
        assert_eq!(model.predict_seconds(0, 0.5), 0.5);
        // One observation: the backend ran 4× slower than the curve says.
        model.observe(0, 0.5, 2.0);
        assert!((model.predict_seconds(0, 0.5) - 2.0).abs() < 1e-12);
        // Predictions extrapolate by shape: a 2×-analytic job predicts 2×.
        assert!((model.predict_seconds(0, 1.0) - 4.0).abs() < 1e-12);
        // The other backend is untouched.
        assert_eq!(model.predict_seconds(1, 0.5), 0.5);
    }

    #[test]
    fn failures_raise_expected_cost_without_touching_latency() {
        let model = CostModel::new(1);
        model.observe(0, 1.0, 1.0);
        let healthy = model.expected_seconds(0, 1.0, 1.0);
        model.observe_failure(0);
        let flaky = model.expected_seconds(0, 1.0, 1.0);
        // 1 success, 1 failure → success rate 0.5 → cost doubles.
        assert!((flaky - healthy * 2.0).abs() < 1e-9);
        // Latency prediction itself is unchanged.
        assert!((model.predict_seconds(0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn success_rate_and_capacity_floors_keep_costs_finite() {
        let model = CostModel::new(1);
        model.observe(0, 1.0, 1.0);
        for _ in 0..10_000 {
            model.observe_failure(0);
        }
        let cost = model.expected_seconds(0, 1.0, 0.0);
        assert!(cost.is_finite());
        assert!(cost <= MAX_PREDICTED_SECONDS);
        // And the clamp floor holds on the other end.
        assert!(model.expected_seconds(0, 0.0, 1.0) >= MIN_PREDICTED_SECONDS);
    }

    #[test]
    fn routing_multiplier_is_unity_for_a_lone_observed_backend() {
        let model = CostModel::new(2);
        assert_eq!(model.routing_multiplier(0), 1.0, "cold fleet");
        // However badly the analytic curve misses, one backend *is* the
        // common mode: its deviation is identically zero, so routing
        // stays purely analytic (and deterministic).
        for _ in 0..20 {
            model.observe(0, 1e-6, 1e-3);
        }
        assert_eq!(model.routing_multiplier(0), 1.0);
        assert_eq!(model.routing_multiplier(1), 1.0, "unobserved peer");
        // The quote channel, by contrast, tracks the raw 1000× ratio.
        assert!(model.predict_seconds(0, 1e-6) > 1e-4);
    }

    #[test]
    fn routing_multiplier_cancels_common_mode_slowness() {
        let model = CostModel::new(2);
        // Both backends run 20× over their analytic curves (a debug build,
        // a slow host): that is environment, not miscalibration, and must
        // not reprice either backend relative to the other.
        for _ in 0..20 {
            model.observe(0, 1e-6, 2e-5);
            model.observe(1, 1e-3, 2e-2);
        }
        assert_eq!(model.routing_multiplier(0), 1.0);
        assert_eq!(model.routing_multiplier(1), 1.0);
    }

    #[test]
    fn routing_multiplier_quantizes_sustained_relative_deviation() {
        let model = CostModel::new(2);
        // Backend 0 runs 256× over its curve, backend 1 on-curve: a
        // genuine relative miscalibration. The deviation is ±half the
        // log-distance (the common mode sits between them), quantized to
        // the nearest power of 16: 16 and 1/16.
        for _ in 0..50 {
            model.observe(0, 1e-6, 2.56e-4);
            model.observe(1, 1e-3, 1e-3);
        }
        assert_eq!(model.routing_multiplier(0), 16.0);
        assert_eq!(model.routing_multiplier(1), 1.0 / 16.0);
        // And the multiplier is clamped: an astronomically mispredicted
        // backend is priced up at most 256×.
        let extreme = CostModel::new(2);
        for _ in 0..50 {
            extreme.observe(0, 1e-9, 1e3);
            extreme.observe(1, 1e-3, 1e-3);
        }
        assert_eq!(extreme.routing_multiplier(0), 256.0);
        assert_eq!(extreme.routing_multiplier(1), 1.0 / 256.0);
    }

    #[test]
    fn error_factor_is_symmetric_and_seeded() {
        let model = CostModel::new(1);
        // First observation: prediction in force was the analytic 1.0,
        // actual 4.0 → error factor 4.
        model.observe(0, 1.0, 4.0);
        let s = &model.stats()[0];
        assert!((s.ewma_error_factor - 4.0).abs() < 1e-9);
        assert!((s.ewma_predicted_seconds - 1.0).abs() < 1e-12);
        assert!((s.ewma_actual_seconds - 4.0).abs() < 1e-12);
        // Now calibrated at ratio 4: a matching observation has error 1,
        // and the EWMA moves toward it.
        model.observe(0, 1.0, 4.0);
        let s = &model.stats()[0];
        assert!(s.ewma_error_factor < 4.0);
        assert!(s.ewma_error_factor >= 1.0);
    }
}
