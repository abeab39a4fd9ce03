//! Deterministic fault injection and the retry policy it exercises.
//!
//! NISQ-era backends fail by default — the orchestrator, not the backend,
//! is the reliability layer. Proving that the runtime actually survives
//! panics, stalls, and typed errors requires *injecting* them on demand,
//! at exact points, with no races or sleeps: the same injectable-seam
//! style as [`crate::cluster::Clock`] and
//! [`crate::cluster::DepthProbe`].
//!
//! A [`FaultInjector`] hangs off [`crate::service::ServiceConfig`]
//! (default: [`NoFaults`]) and is consulted at four named seams of job
//! processing ([`FaultSite`]). The scriptable [`FaultPlan`] implementation
//! arms rules like "panic at the 2nd compile" or "error every solve on
//! backend `tabu` from the 3rd on"; each rule keeps its own occurrence
//! counter, so with a single worker the firing schedule is fully
//! deterministic. What fires is a [`FaultAction`]: a panic (exercising the
//! `catch_unwind` + retry path), an artificial delay (exercising deadlines
//! and backoff), or a typed [`crate::service::JobError::Injected`] error.
//!
//! [`RetryPolicy`] bounds the worker's recovery loop for retryable
//! failures (panics and injected errors): exponential backoff from
//! [`RetryPolicy::backoff_base`], capped at [`RetryPolicy::backoff_cap`],
//! plus deterministic jitter derived from the job seed — two runs of the
//! same workload back off identically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A named seam in job processing where a [`FaultInjector`] is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Before the leader compiles the QUBO.
    Compile,
    /// Before presolve/decomposition prepares the pipeline.
    Presolve,
    /// Before the routed backend starts solving. The injector receives
    /// the backend's name, so a plan can target one backend.
    Solve,
    /// After the backend solved, before the result is cached and served.
    Serve,
}

impl FaultSite {
    /// Lowercase site name, as used in panic messages and injected errors.
    pub fn name(&self) -> &'static str {
        match self {
            FaultSite::Compile => "compile",
            FaultSite::Presolve => "presolve",
            FaultSite::Solve => "solve",
            FaultSite::Serve => "serve",
        }
    }
}

/// What an armed fault does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with this message — exercises the `catch_unwind`, abandoned
    /// single-flight followers, and retry paths exactly like a real bug.
    Panic(String),
    /// Sleep this long, then proceed normally — exercises deadlines and
    /// slow-backend behavior without a slow backend.
    Delay(Duration),
    /// Fail the job with [`crate::service::JobError::Injected`] carrying
    /// this message — a typed, retryable backend error.
    Error(String),
}

/// Injection hook consulted at every [`FaultSite`]. The default
/// implementation used by the service is [`NoFaults`]: the seams cost one
/// virtual call and nothing else.
pub trait FaultInjector: Send + Sync {
    /// Called when execution passes `site`; `backend` carries the backend
    /// name at [`FaultSite::Solve`]. Returning `Some` forces that action.
    fn inject(&self, site: FaultSite, backend: Option<&str>) -> Option<FaultAction>;
}

/// The no-op injector: never fires.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn inject(&self, _site: FaultSite, _backend: Option<&str>) -> Option<FaultAction> {
        None
    }
}

/// Which matching occurrences of a rule's site fire, counted per rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultWhen {
    /// Every matching occurrence.
    Always,
    /// Only the `n`th matching occurrence (1-based).
    Nth(u64),
    /// The `n`th and every later matching occurrence (1-based).
    FromNth(u64),
}

impl FaultWhen {
    fn fires(&self, occurrence: u64) -> bool {
        match self {
            FaultWhen::Always => true,
            FaultWhen::Nth(n) => occurrence == *n,
            FaultWhen::FromNth(n) => occurrence >= *n,
        }
    }
}

/// One armed rule of a [`FaultPlan`].
#[derive(Debug)]
struct FaultRule {
    site: FaultSite,
    backend: Option<String>,
    when: FaultWhen,
    action: FaultAction,
    /// Matching occurrences seen so far (including ones that did not fire).
    seen: AtomicU64,
    /// Times this rule actually fired.
    fired: AtomicU64,
}

/// A scriptable, deterministic [`FaultInjector`].
///
/// Rules are consulted in the order they were added. Every rule matching
/// the event's `(site, backend)` counts the occurrence; the first rule
/// whose [`FaultWhen`] fires supplies the action and stops the scan.
/// Counters are per-rule and advance only on matching events, so "the 3rd
/// solve on `tabu`" means exactly that regardless of traffic elsewhere.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (fires nothing until rules are added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `action` at `site` for the occurrences selected by `when`.
    pub fn fail_at(mut self, site: FaultSite, when: FaultWhen, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            site,
            backend: None,
            when,
            action,
            seen: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        });
        self
    }

    /// Arms `action` at [`FaultSite::Solve`] for occurrences on `backend`
    /// only — other backends' solves neither fire nor count.
    pub fn fail_backend(mut self, backend: &str, when: FaultWhen, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            site: FaultSite::Solve,
            backend: Some(backend.to_string()),
            when,
            action,
            seen: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        });
        self
    }

    /// Total times any rule fired — a test convenience for asserting a
    /// scripted fault actually happened.
    pub fn fired(&self) -> u64 {
        self.rules.iter().map(|r| r.fired.load(Ordering::Relaxed)).sum()
    }
}

impl FaultInjector for FaultPlan {
    fn inject(&self, site: FaultSite, backend: Option<&str>) -> Option<FaultAction> {
        for rule in &self.rules {
            if rule.site != site {
                continue;
            }
            if let Some(wanted) = &rule.backend {
                match backend {
                    Some(name) if name == wanted => {}
                    _ => continue,
                }
            }
            let occurrence = rule.seen.fetch_add(1, Ordering::Relaxed) + 1;
            if rule.when.fires(occurrence) {
                rule.fired.fetch_add(1, Ordering::Relaxed);
                return Some(rule.action.clone());
            }
        }
        None
    }
}

/// Bounds the worker's retry loop for retryable failures (panics and
/// [`crate::service::JobError::Injected`] errors). The default policy
/// disables retry entirely, preserving pre-existing single-attempt
/// behavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts after the first try; `0` disables retry.
    pub max_retries: u32,
    /// Backoff before the first retry; attempt `k` (1-based) backs off
    /// `backoff_base · 2^(k-1)` plus jitter in `[0, backoff_base)`. A zero
    /// base means no sleeping at all — the deterministic-test setting.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff, jitter included.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 0,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(100),
        }
    }
}

/// SplitMix64 — the same deterministic mixer the annealers derive restart
/// seeds with; here it turns (job seed, attempt) into jitter.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The backoff before retry attempt `attempt` (1-based) of the job
    /// seeded with `seed`: exponential in the attempt, jittered by a
    /// deterministic hash of `(seed, attempt)` so a thundering herd of
    /// retries decorrelates — yet identically-seeded runs back off
    /// identically, keeping failure tests reproducible.
    pub fn backoff(&self, seed: u64, attempt: u32) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.backoff_base.saturating_mul(1u32 << (attempt.saturating_sub(1)).min(20));
        let jitter_nanos =
            mix64(seed ^ u64::from(attempt)) % self.backoff_base.as_nanos().max(1) as u64;
        exp.saturating_add(Duration::from_nanos(jitter_nanos)).min(self.backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_never_fires() {
        for site in [FaultSite::Compile, FaultSite::Presolve, FaultSite::Solve, FaultSite::Serve] {
            assert_eq!(NoFaults.inject(site, None), None);
            assert_eq!(NoFaults.inject(site, Some("tabu")), None);
        }
    }

    #[test]
    fn nth_rule_fires_exactly_once_at_the_nth_occurrence() {
        let plan = FaultPlan::new().fail_at(
            FaultSite::Compile,
            FaultWhen::Nth(3),
            FaultAction::Panic("boom".into()),
        );
        assert_eq!(plan.inject(FaultSite::Compile, None), None);
        assert_eq!(plan.inject(FaultSite::Compile, None), None);
        assert_eq!(plan.inject(FaultSite::Compile, None), Some(FaultAction::Panic("boom".into())));
        assert_eq!(plan.inject(FaultSite::Compile, None), None, "Nth is one-shot");
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn from_nth_fires_from_the_nth_occurrence_onwards() {
        let plan = FaultPlan::new().fail_at(
            FaultSite::Serve,
            FaultWhen::FromNth(2),
            FaultAction::Error("down".into()),
        );
        assert_eq!(plan.inject(FaultSite::Serve, None), None);
        for _ in 0..3 {
            assert_eq!(
                plan.inject(FaultSite::Serve, None),
                Some(FaultAction::Error("down".into()))
            );
        }
        assert_eq!(plan.fired(), 3);
    }

    #[test]
    fn backend_rules_only_count_their_backend() {
        let plan = FaultPlan::new().fail_backend(
            "tabu",
            FaultWhen::Nth(2),
            FaultAction::Error("tabu down".into()),
        );
        // Other backends and other sites neither fire nor advance the count.
        assert_eq!(plan.inject(FaultSite::Solve, Some("exact")), None);
        assert_eq!(plan.inject(FaultSite::Compile, Some("tabu")), None);
        assert_eq!(plan.inject(FaultSite::Solve, Some("tabu")), None, "1st tabu solve");
        assert_eq!(
            plan.inject(FaultSite::Solve, Some("tabu")),
            Some(FaultAction::Error("tabu down".into())),
            "2nd tabu solve fires"
        );
    }

    #[test]
    fn rules_are_consulted_in_order_and_all_matching_rules_count() {
        let plan = FaultPlan::new()
            .fail_at(FaultSite::Solve, FaultWhen::Nth(2), FaultAction::Error("first".into()))
            .fail_at(FaultSite::Solve, FaultWhen::Nth(1), FaultAction::Error("second".into()));
        // Occurrence 1: rule 1 counts but does not fire; rule 2 fires.
        assert_eq!(plan.inject(FaultSite::Solve, None), Some(FaultAction::Error("second".into())));
        // Occurrence 2: rule 1 fires before rule 2 is consulted.
        assert_eq!(plan.inject(FaultSite::Solve, None), Some(FaultAction::Error("first".into())));
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy {
            max_retries: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
        };
        let a1 = policy.backoff(7, 1);
        let a2 = policy.backoff(7, 2);
        let a3 = policy.backoff(7, 3);
        assert_eq!(a1, policy.backoff(7, 1), "same (seed, attempt) → same backoff");
        assert!(a1 >= Duration::from_millis(10) && a1 < Duration::from_millis(20), "{a1:?}");
        assert!(a2 >= Duration::from_millis(20) && a2 < Duration::from_millis(30), "{a2:?}");
        // Uncapped the 3rd attempt is 40ms + jitter ≥ 40ms, so the 40ms
        // cap always binds regardless of the jitter draw.
        assert_eq!(a3, Duration::from_millis(40), "cap binds the 3rd attempt (40ms + jitter)");
        assert_ne!(
            policy.backoff(7, 1),
            policy.backoff(8, 1),
            "different seeds jitter differently"
        );
        // A zero base never sleeps — the deterministic-test setting.
        let instant = RetryPolicy { backoff_base: Duration::ZERO, ..policy };
        assert_eq!(instant.backoff(7, 1), Duration::ZERO);
        assert_eq!(instant.backoff(7, 4), Duration::ZERO);
    }

    #[test]
    fn default_policy_disables_retry() {
        assert_eq!(RetryPolicy::default().max_retries, 0);
    }
}
