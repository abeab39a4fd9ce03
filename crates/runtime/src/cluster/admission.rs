//! Per-tenant token-bucket admission control and shard depth probing.
//!
//! Every cluster submission passes through an `AdmissionController`
//! before it may occupy a queue slot. Each tenant draws from its own
//! token bucket denominated in **predicted seconds of backend time**
//! (the [`crate::cost`] model's quote for the job): `capacity` seconds
//! of burst, refilled continuously at `refill_per_second`. A submission
//! drains its predicted cost from the bucket, so a tenant sending three
//! expensive jobs exhausts the same budget as one sending three hundred
//! cheap ones — admission meters *work*, not job count. When the bucket
//! cannot cover the charge the job is shed with a retry hint computed
//! from the refill rate — the caller learns exactly how long until the
//! bucket holds enough seconds for this job.
//!
//! Refill arithmetic depends only on the [`super::Clock`] reading passed
//! in by the cluster, so tests drive admission with a
//! [`super::ManualClock`] and never sleep.

use crate::sync::LockExt;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// Cap on the retry hint so a zero-refill bucket still yields a finite,
/// `Duration`-safe backoff.
const MAX_RETRY_HINT: Duration = Duration::from_secs(3600);

/// One tenant's token bucket: `capacity` predicted seconds of burst,
/// refilled continuously at `refill_per_second`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucketConfig {
    /// Maximum predicted seconds the bucket holds (burst size). Buckets
    /// start full. A job predicted to cost more than the whole capacity
    /// is *not* unadmittable: its charge is clamped to `capacity`, so it
    /// is admitted exactly when the bucket is full and drains it
    /// completely.
    pub capacity: f64,
    /// Predicted seconds credited back per second of elapsed
    /// [`super::Clock`] time. A rate of zero means the bucket never
    /// refills: after the initial burst the tenant is shed with the
    /// maximum retry hint.
    pub refill_per_second: f64,
}

/// Cluster-wide admission policy: named per-tenant buckets plus an
/// optional default for everyone else.
#[derive(Debug, Clone, Default)]
pub struct AdmissionConfig {
    /// Bucket applied to tenants without an explicit entry in
    /// [`AdmissionConfig::tenants`]. `None` means unknown tenants are
    /// admitted without limit.
    pub default_bucket: Option<TokenBucketConfig>,
    /// Explicit per-tenant buckets, looked up by exact tenant name.
    pub tenants: Vec<(String, TokenBucketConfig)>,
}

impl AdmissionConfig {
    /// Adds (or replaces) an explicit bucket for `tenant`.
    pub fn with_tenant(mut self, tenant: &str, bucket: TokenBucketConfig) -> Self {
        self.tenants.retain(|(name, _)| name != tenant);
        self.tenants.push((tenant.to_string(), bucket));
        self
    }

    /// Sets the bucket applied to tenants without an explicit entry.
    pub fn with_default_bucket(mut self, bucket: TokenBucketConfig) -> Self {
        self.default_bucket = Some(bucket);
        self
    }

    fn bucket_for(&self, tenant: &str) -> Option<TokenBucketConfig> {
        self.tenants
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, bucket)| *bucket)
            .or(self.default_bucket)
    }
}

/// Queue-depth source for load-shedding decisions. The default probe
/// reads each shard's live `queue_depth` gauge: the queued jobs that shard
/// owns in the cluster's one run queue. Tests inject a fixed-depth probe
/// to exercise watermark logic without having to construct real backlogs.
pub trait DepthProbe: Send + Sync {
    /// Queued jobs `shard` owns.
    fn queue_depth(&self, shard: usize) -> usize;

    /// Predicted seconds of backend work queued for `shard`'s jobs, if the probe
    /// knows. `None` (the default) tells the cluster to fall back to the
    /// shard's live predicted-seconds backlog gauge; injected test probes
    /// may override to script a backlog.
    fn backlog_seconds(&self, shard: usize) -> Option<f64> {
        let _ = shard;
        None
    }
}

/// Mutable bucket state: predicted seconds available as of `last_micros`.
struct BucketState {
    tokens: f64,
    last_micros: u64,
}

/// Runtime admission state: one lazily created [`BucketState`] per tenant
/// that has a configured bucket.
pub(crate) struct AdmissionController {
    config: AdmissionConfig,
    buckets: Mutex<HashMap<String, BucketState>>,
}

impl AdmissionController {
    pub(crate) fn new(config: AdmissionConfig) -> Self {
        Self { config, buckets: Mutex::new(HashMap::new()) }
    }

    /// Charges `cost_seconds` (the job's predicted backend seconds,
    /// clamped to the bucket's capacity so an oversized job stays
    /// admittable) to `tenant`'s bucket at clock reading `now_micros`. On
    /// success the seconds are consumed; on refusal nothing is consumed
    /// and the error carries how long until the bucket refills enough for
    /// *this* job (capped at one hour for zero-refill buckets).
    pub(crate) fn try_admit(
        &self,
        tenant: &str,
        now_micros: u64,
        cost_seconds: f64,
    ) -> Result<(), Duration> {
        let Some(bucket) = self.config.bucket_for(tenant) else {
            return Ok(());
        };
        let charge = cost_seconds.max(0.0).min(bucket.capacity);
        let mut buckets = self.buckets.lock_unpoisoned();
        let state = buckets
            .entry(tenant.to_string())
            .or_insert(BucketState { tokens: bucket.capacity, last_micros: now_micros });
        // Refill for the elapsed interval; saturating_sub tolerates a clock
        // that reports the same instant to two racing submitters.
        let elapsed_secs = now_micros.saturating_sub(state.last_micros) as f64 / 1e6;
        state.tokens =
            (state.tokens + elapsed_secs * bucket.refill_per_second).min(bucket.capacity);
        state.last_micros = now_micros;
        if state.tokens >= charge {
            state.tokens -= charge;
            return Ok(());
        }
        let deficit = charge - state.tokens;
        let hint = if bucket.refill_per_second > 0.0 {
            Duration::from_secs_f64(
                (deficit / bucket.refill_per_second).min(MAX_RETRY_HINT.as_secs_f64()),
            )
        } else {
            MAX_RETRY_HINT
        };
        Err(hint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limited(capacity: f64, refill: f64) -> AdmissionController {
        AdmissionController::new(
            AdmissionConfig::default()
                .with_tenant("metered", TokenBucketConfig { capacity, refill_per_second: refill }),
        )
    }

    #[test]
    fn unknown_tenant_without_default_is_unlimited() {
        let ctl = limited(1.0, 1.0);
        for _ in 0..1000 {
            assert!(ctl.try_admit("anonymous", 0, 1.0).is_ok());
        }
    }

    #[test]
    fn bucket_starts_full_and_empties_burst_first() {
        let ctl = limited(3.0, 1.0);
        for _ in 0..3 {
            assert!(ctl.try_admit("metered", 0, 1.0).is_ok());
        }
        let hint = ctl.try_admit("metered", 0, 1.0).unwrap_err();
        // Empty bucket, 1 second/s refill: exactly one second to cover a
        // one-second job.
        assert_eq!(hint, Duration::from_secs(1));
    }

    #[test]
    fn refill_restores_tokens_proportionally_to_elapsed_time() {
        let ctl = limited(1.0, 2.0);
        assert!(ctl.try_admit("metered", 0, 1.0).is_ok());
        assert!(ctl.try_admit("metered", 0, 1.0).is_err(), "burst spent");
        // 2 seconds/s: after 500ms the bucket holds exactly one second.
        assert!(ctl.try_admit("metered", 500_000, 1.0).is_ok());
        // Refill is capped at capacity: a long idle stretch does not bank
        // more than one second.
        assert!(ctl.try_admit("metered", 100_000_000, 1.0).is_ok());
        assert!(ctl.try_admit("metered", 100_000_000, 1.0).is_err());
    }

    #[test]
    fn denied_admission_consumes_nothing() {
        let ctl = limited(1.0, 1.0);
        assert!(ctl.try_admit("metered", 0, 1.0).is_ok());
        // Repeated refusals at the same instant report the same deficit:
        // the failed attempts are free.
        let first = ctl.try_admit("metered", 0, 1.0).unwrap_err();
        let second = ctl.try_admit("metered", 0, 1.0).unwrap_err();
        assert_eq!(first, second);
    }

    #[test]
    fn zero_refill_bucket_hints_the_cap_instead_of_panicking() {
        let ctl = limited(1.0, 0.0);
        assert!(ctl.try_admit("metered", 0, 1.0).is_ok());
        assert_eq!(ctl.try_admit("metered", u64::MAX, 1.0).unwrap_err(), MAX_RETRY_HINT);
    }

    #[test]
    fn default_bucket_applies_to_unnamed_tenants_only_as_fallback() {
        let ctl = AdmissionController::new(
            AdmissionConfig::default()
                .with_default_bucket(TokenBucketConfig { capacity: 1.0, refill_per_second: 0.0 })
                .with_tenant("vip", TokenBucketConfig { capacity: 2.0, refill_per_second: 0.0 }),
        );
        assert!(ctl.try_admit("vip", 0, 1.0).is_ok());
        assert!(ctl.try_admit("vip", 0, 1.0).is_ok(), "explicit bucket overrides default");
        assert!(ctl.try_admit("vip", 0, 1.0).is_err());
        assert!(ctl.try_admit("guest", 0, 1.0).is_ok());
        assert!(ctl.try_admit("guest", 0, 1.0).is_err(), "fallback bucket limits unnamed tenants");
        // Buckets are independent: guest's exhaustion does not affect
        // another unnamed tenant.
        assert!(ctl.try_admit("other", 0, 1.0).is_ok());
    }

    #[test]
    fn buckets_meter_seconds_not_jobs() {
        // A tenant with a handful of expensive jobs and one with a flood
        // of cheap jobs are throttled to the same *work* budget: 2.0
        // predicted seconds of burst each.
        let ctl = AdmissionController::new(
            AdmissionConfig::default()
                .with_default_bucket(TokenBucketConfig { capacity: 2.0, refill_per_second: 0.5 }),
        );
        // Heavy tenant: 1.0s jobs. Two fit the burst; the third is shed
        // needing 1.0 more second at 0.5 s/s = a 2s hint.
        assert!(ctl.try_admit("heavy", 0, 1.0).is_ok());
        assert!(ctl.try_admit("heavy", 0, 1.0).is_ok());
        assert_eq!(ctl.try_admit("heavy", 0, 1.0).unwrap_err(), Duration::from_secs(2));
        // Bulk tenant: 1/64-second jobs (binary-exact, so repeated
        // draining accumulates no float error). Exactly 128 fit the same
        // burst — the job *count* differs 64×, the admitted work does not.
        let cheap = 1.0 / 64.0;
        for i in 0..128 {
            assert!(ctl.try_admit("bulk", 0, cheap).is_ok(), "cheap job {i} fits the burst");
        }
        let hint = ctl.try_admit("bulk", 0, cheap).unwrap_err();
        // Deficit 1/64 s at 0.5 s/s: a 31.25ms hint, proportional to the
        // job that was refused, not to some whole-token unit.
        assert_eq!(hint, Duration::from_secs_f64(cheap / 0.5), "hint {hint:?}");
    }

    #[test]
    fn oversized_jobs_clamp_to_capacity_instead_of_starving() {
        let ctl = limited(2.0, 1.0);
        // Predicted 10s against a 2s bucket: charge clamps to 2.0, so the
        // full bucket admits it and is drained to zero.
        assert!(ctl.try_admit("metered", 0, 10.0).is_ok());
        // The next oversized job waits for a *full* bucket (2s at 1 s/s),
        // not an impossible 10s deficit.
        assert_eq!(ctl.try_admit("metered", 0, 10.0).unwrap_err(), Duration::from_secs(2));
        assert!(ctl.try_admit("metered", 2_000_000, 10.0).is_ok());
    }
}
