//! Per-backend circuit breakers: graceful degradation when a backend
//! keeps failing.
//!
//! Every registered backend carries a three-state breaker. `Closed` is
//! normal service. [`BreakerConfig::failure_threshold`] *consecutive*
//! failures (panics or injected errors attributed to the backend) trip it
//! to `Open`: the portfolio ranking excludes the backend, so traffic
//! degrades to the remaining portfolio instead of burning retries on a
//! dead executor — never to zero, though: when every eligible backend is
//! open, the best-ranked one stays eligible (see
//! [`crate::portfolio::PortfolioScheduler::rank_costed`]). After
//! [`BreakerConfig::cooldown`] on the injectable [`Clock`], the next
//! ranking moves the breaker to `HalfOpen`: probe traffic is allowed
//! through, one success re-closes the breaker, one failure re-opens it
//! for another cooldown.
//!
//! State transitions are counted into [`crate::metrics::Metrics`]
//! (`breaker_opened` / `breaker_half_opened` / `breaker_closed`) and
//! rendered by
//! [`crate::metrics::RuntimeReport::render_prometheus`]. The clock is
//! injectable for the same reason the cluster's admission clock is: a
//! test drives cooldown expiry with a
//! [`crate::cluster::ManualClock`] and never sleeps. This state is also
//! priced by the cost model ([`crate::cost`]): beyond the hard ranking
//! exclusion, `CircuitBreakers::capacity` discounts an open or
//! half-open backend's predicted capacity, so every predicted-seconds
//! consumer (DRR charging, admission buckets, backlog estimates) sees a
//! degraded backend as *more expensive* rather than invisible.

use crate::cluster::{Clock, MonotonicClock};
use crate::metrics::{Counter, Metrics};
use crate::sync::LockExt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Circuit-breaker policy, set on
/// [`crate::service::ServiceConfig::breaker`]. `None` there disables
/// breakers entirely (the default).
#[derive(Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a backend's breaker open (at least 1).
    pub failure_threshold: u32,
    /// How long an open breaker blocks traffic before the next ranking
    /// half-opens it for a probe.
    pub cooldown: Duration,
    /// Clock the cooldown is measured on; `None` uses the monotonic wall
    /// clock. Tests inject a [`crate::cluster::ManualClock`] and advance it
    /// instead of sleeping.
    pub clock: Option<Arc<dyn Clock>>,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { failure_threshold: 5, cooldown: Duration::from_secs(1), clock: None }
    }
}

impl std::fmt::Debug for BreakerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BreakerConfig")
            .field("failure_threshold", &self.failure_threshold)
            .field("cooldown", &self.cooldown)
            .field("clock", &self.clock.as_ref().map(|_| "<clock>"))
            .finish()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { since_micros: u64 },
    HalfOpen,
}

struct BackendBreaker {
    consecutive_failures: u32,
    state: BreakerState,
}

/// One breaker per registered backend, indexed like the registry.
pub(crate) struct CircuitBreakers {
    threshold: u32,
    cooldown_micros: u64,
    clock: Arc<dyn Clock>,
    states: Vec<Mutex<BackendBreaker>>,
}

impl CircuitBreakers {
    pub(crate) fn new(config: &BreakerConfig, n_backends: usize) -> Self {
        Self {
            threshold: config.failure_threshold.max(1),
            cooldown_micros: config.cooldown.as_micros().min(u128::from(u64::MAX)) as u64,
            clock: config.clock.clone().unwrap_or_else(|| Arc::new(MonotonicClock::default())),
            states: (0..n_backends)
                .map(|_| {
                    Mutex::new(BackendBreaker {
                        consecutive_failures: 0,
                        state: BreakerState::Closed,
                    })
                })
                .collect(),
        }
    }

    /// Records a failure attributed to `backend`. The threshold counts
    /// consecutive failures from `Closed`; a failed `HalfOpen` probe
    /// re-opens immediately (the backend already proved unhealthy once).
    pub(crate) fn on_failure(&self, backend: usize, metrics: &Metrics) {
        let mut b = self.states[backend].lock_unpoisoned();
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        let trip = match b.state {
            BreakerState::Closed => b.consecutive_failures >= self.threshold,
            BreakerState::HalfOpen => true,
            BreakerState::Open { .. } => false,
        };
        if trip {
            b.state = BreakerState::Open { since_micros: self.clock.now_micros() };
            metrics.inc(Counter::BreakerOpened);
        }
    }

    /// Records a success on `backend`: resets the consecutive-failure
    /// count and re-closes a half-open (or open — a straggler attempt that
    /// started before the trip may succeed after it) breaker.
    pub(crate) fn on_success(&self, backend: usize, metrics: &Metrics) {
        let mut b = self.states[backend].lock_unpoisoned();
        b.consecutive_failures = 0;
        if b.state != BreakerState::Closed {
            b.state = BreakerState::Closed;
            metrics.inc(Counter::BreakerClosed);
        }
    }

    /// The cost-model capacity discount for `backend`'s current breaker
    /// state: 1.0 closed, 0.5 half-open (probe traffic only — price it up
    /// so races prefer proven backends), 0.25 open (an open breaker that
    /// has cooled down reads as half-open). Side-effect free: no state
    /// transition, no metrics — pricing must be able to quote a backend
    /// without acting as its half-open probe.
    pub(crate) fn capacity(&self, backend: usize) -> f64 {
        let b = self.states[backend].lock_unpoisoned();
        match b.state {
            BreakerState::Closed => 1.0,
            BreakerState::HalfOpen => 0.5,
            BreakerState::Open { since_micros } => {
                if self.clock.now_micros().saturating_sub(since_micros) >= self.cooldown_micros {
                    0.5
                } else {
                    0.25
                }
            }
        }
    }

    /// Whether `backend` is currently in the half-open probe state.
    /// Side-effect free, like [`CircuitBreakers::capacity`]: no transition,
    /// no metrics — callers use this to *promote* an already-half-opened
    /// backend to the front of a ranking so the probe actually dispatches.
    pub(crate) fn is_half_open(&self, backend: usize) -> bool {
        let b = self.states[backend].lock_unpoisoned();
        matches!(b.state, BreakerState::HalfOpen)
    }

    /// Whether `backend` is currently excluded from ranking. An open
    /// breaker whose cooldown has elapsed transitions to `HalfOpen` here —
    /// the caller's ranking is the probe that re-admits it.
    pub(crate) fn is_open(&self, backend: usize, metrics: &Metrics) -> bool {
        let mut b = self.states[backend].lock_unpoisoned();
        match b.state {
            BreakerState::Closed | BreakerState::HalfOpen => false,
            BreakerState::Open { since_micros } => {
                if self.clock.now_micros().saturating_sub(since_micros) >= self.cooldown_micros {
                    b.state = BreakerState::HalfOpen;
                    metrics.inc(Counter::BreakerHalfOpened);
                    false
                } else {
                    true
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ManualClock;

    fn breakers(threshold: u32, cooldown: Duration, clock: Arc<ManualClock>) -> CircuitBreakers {
        CircuitBreakers::new(
            &BreakerConfig { failure_threshold: threshold, cooldown, clock: Some(clock) },
            2,
        )
    }

    #[test]
    fn consecutive_failures_trip_and_a_success_resets_the_count() {
        let clock = Arc::new(ManualClock::new(0));
        let b = breakers(3, Duration::from_secs(1), clock);
        let m = Metrics::new();
        b.on_failure(0, &m);
        b.on_failure(0, &m);
        assert!(!b.is_open(0, &m), "two of three failures: still closed");
        b.on_success(0, &m);
        b.on_failure(0, &m);
        b.on_failure(0, &m);
        assert!(!b.is_open(0, &m), "the success reset the consecutive count");
        b.on_failure(0, &m);
        assert!(b.is_open(0, &m), "third consecutive failure trips");
        assert!(!b.is_open(1, &m), "breakers are per-backend");
        assert_eq!(m.report().breaker_opened, 1);
        assert_eq!(m.report().breaker_closed, 0, "closed counts transitions, not successes");
    }

    #[test]
    fn cooldown_half_opens_then_success_closes_or_failure_reopens() {
        let clock = Arc::new(ManualClock::new(0));
        let b = breakers(1, Duration::from_millis(500), Arc::clone(&clock));
        let m = Metrics::new();
        b.on_failure(0, &m);
        assert!(b.is_open(0, &m));
        clock.advance(499_999);
        assert!(b.is_open(0, &m), "cooldown not yet elapsed");
        clock.advance(1);
        assert!(!b.is_open(0, &m), "cooldown elapsed: half-open admits a probe");
        assert_eq!(m.report().breaker_half_opened, 1);
        // A failed probe re-opens immediately for another cooldown.
        b.on_failure(0, &m);
        assert!(b.is_open(0, &m));
        assert_eq!(m.report().breaker_opened, 2);
        // Cooldown again, and this time the probe succeeds: closed.
        clock.advance(500_000);
        assert!(!b.is_open(0, &m));
        b.on_success(0, &m);
        assert!(!b.is_open(0, &m));
        let r = m.report();
        assert_eq!((r.breaker_opened, r.breaker_half_opened, r.breaker_closed), (2, 2, 1));
    }

    #[test]
    fn capacity_discounts_by_state_without_transitions() {
        let clock = Arc::new(ManualClock::new(0));
        let b = breakers(1, Duration::from_millis(500), Arc::clone(&clock));
        let m = Metrics::new();
        assert_eq!(b.capacity(0), 1.0);
        b.on_failure(0, &m);
        assert_eq!(b.capacity(0), 0.25, "open: quarter capacity");
        clock.advance(500_000);
        assert_eq!(b.capacity(0), 0.5, "cooled down: prices as half-open");
        // Quoting capacity is not the probe: the breaker is still Open
        // and no half-open transition was counted.
        assert_eq!(m.report().breaker_half_opened, 0);
        assert!(!b.is_open(0, &m), "ranking is the probe");
        assert_eq!(m.report().breaker_half_opened, 1);
        assert_eq!(b.capacity(0), 0.5, "half-open: half capacity");
        b.on_success(0, &m);
        assert_eq!(b.capacity(0), 1.0);
    }
}
