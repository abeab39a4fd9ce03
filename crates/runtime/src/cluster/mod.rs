//! Sharded multi-service front-end: admission control, load shedding, and
//! cache-affine routing over N independent [`SolverService`] shards.
//!
//! A [`ClusterService`] owns a fixed set of solver shards and fronts them
//! with the same session/handle API as a single service. Three mechanisms
//! sit between a submission and a shard queue:
//!
//! - **Cache-affine routing** — every spec is encoded once at the front
//!   door, its canonical (labeling-independent) fingerprint computed
//!   *without compiling* ([`qdm_qubo::model::QuboModel::canonical_form`]),
//!   and the job routed by consistent-hashing that fingerprint. Duplicates
//!   of a hot QUBO — and relabeled ones the canonical labeling recognizes
//!   — always land on the shard that already has it cached and
//!   single-flight there, so a burst of such duplicates compiles **once
//!   cluster-wide**. The worker runs the job from this route as built.
//! - **Admission control** — each tenant draws from a token bucket
//!   ([`AdmissionConfig`]) denominated in **predicted seconds** of
//!   backend time (the [`crate::cost`] model's quote for the routed
//!   shard), refilled on an injectable [`Clock`]; an uncovered charge
//!   sheds the job with [`SubmitError::Overloaded`] carrying a retry
//!   hint derived from the refill rate and this job's own cost.
//! - **Load shedding & migration** — a shard whose queue depth crosses
//!   [`ClusterConfig::shed_watermark`], or whose predicted-seconds
//!   backlog crosses [`ClusterConfig::shed_watermark_seconds`], sheds
//!   new arrivals with a retry hint sized to the estimated backlog
//!   *drain time* (never below [`ClusterConfig::shed_retry_hint`]); when
//!   depths diverge beyond [`ClusterConfig::migration_threshold`],
//!   queued jobs migrate from the deepest to the shallowest shard in
//!   deterministic order. A migrating job carries its precomputed route,
//!   so *where* it runs never changes *what* it computes: per-job seeded
//!   RNGs keep results bit-identical to a single-shard run.
//! - **Work conservation** — a shard worker that finds its own queue
//!   empty runs the next job of the deepest peer queue instead of
//!   sleeping, and a job landing on a shard whose workers are all busy
//!   wakes an idle peer worker. Shards thus share their workers without
//!   any polling, and no worker idles while a peer holds queued work.
//! - **Shard failover** — an injectable [`HealthProbe`] marks shards
//!   healthy or dead. New submissions whose ring owner is dead re-route
//!   to the next healthy shard clockwise (each dead arc re-routes to one
//!   deterministic successor, preserving cache affinity), and
//!   [`ClusterService::failover_drain`] moves queued-but-unclaimed jobs
//!   off dead shards through the same accounting path as migration.
//!   Because a failed-over job travels with its precomputed route and
//!   seed, results stay bit-identical to a healthy cluster's.
//!
//! **Ownership never moves.** A job belongs to the shard that admitted it.
//! The idle pull, migration, and failover lend only a worker: wherever the
//! job runs, its owner's cache, single-flight table, portfolio, breakers,
//! journal, trace ring, and ledger serve it. So a moved job's result is
//! cached where its resubmissions route, its `Completed` record lands in
//! the journal that holds its `Submitted` record (a cluster rebuilt over
//! those journals replays nothing already delivered), and each shard's
//! own ledger balances. Only the queue-depth gauge follows the job's
//! physical queue, and the executing shard counts the job in
//! [`RuntimeReport::jobs_run_for_peers`].
//!
//! Observability spans shards: [`ClusterService::report`] merges per-shard
//! [`RuntimeReport`]s ([`RuntimeReport::merge`]) with shard-tagged queue
//! depth gauges, and every trace carries its owner's shard id.

pub mod admission;
pub mod clock;
mod ring;

pub use admission::{AdmissionConfig, DepthProbe, TokenBucketConfig};
pub use clock::{Clock, ManualClock, MonotonicClock};

use crate::handle::{Completion, JobHandle};
use crate::metrics::RuntimeReport;
use crate::registry::SolverRegistry;
use crate::service::{JobSpec, RouteInfo, ServiceConfig, Shared, SolverService};
use crate::submit::{enqueue_reserved, Completions, SessionConfig, SessionCore, SubmitError};
use crate::sync::LockExt;
use crate::trace::JobTrace;
use admission::AdmissionController;
use ring::HashRing;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Base for cluster-issued job and session ids. Shard-local ids start at
/// zero, so offsetting cluster ids keeps the two ranges disjoint — a
/// cluster job never collides with a job submitted directly to a shard.
const CLUSTER_ID_BASE: u64 = 1 << 32;

/// Virtual nodes per shard on the consistent-hash ring.
const RING_REPLICAS: usize = 64;

/// Injectable shard-health source driving failover.
///
/// The cluster consults the probe at routing time (a dead ring owner's
/// range re-routes clockwise to the next healthy shard) and during
/// [`ClusterService::failover_drain`] (queued jobs leave dead shards).
/// Health is polled, never cached, so flipping a probe's answer takes
/// effect on the very next submission. Production deployments would back
/// this with heartbeats; tests flip an `AtomicBool` to kill a shard
/// mid-run deterministically — the same injectable-seam pattern as
/// [`Clock`] and [`DepthProbe`].
pub trait HealthProbe: Send + Sync {
    /// Whether `shard` can currently accept and run work.
    fn is_healthy(&self, shard: usize) -> bool;
}

/// Cluster configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of solver shards (at least 1). Ignored by
    /// [`ClusterService::with_registries`], where the registry list fixes
    /// the shard count.
    pub shards: usize,
    /// Template for each shard's [`ServiceConfig`]. `shard` and `epoch`
    /// are overridden per shard: every shard gets its own id and all
    /// shards share one epoch so queue-wait timestamps stay valid when a
    /// job migrates.
    pub service: ServiceConfig,
    /// Per-tenant token-bucket admission policy.
    pub admission: AdmissionConfig,
    /// Queue depth at which a shard sheds new arrivals with
    /// [`SubmitError::Overloaded`]; `None` disables depth-watermark
    /// shedding.
    pub shed_watermark: Option<usize>,
    /// Predicted-seconds backlog at which a shard sheds new arrivals:
    /// when the estimated seconds of backend work queued on the routed
    /// shard (from the [`DepthProbe`]'s
    /// [`DepthProbe::backlog_seconds`] if it answers, else the shard's
    /// live predicted-seconds backlog gauge) reach this value, the job is
    /// shed. `None` disables backlog-watermark shedding. Unlike
    /// [`ClusterConfig::shed_watermark`], this sheds on queued *work*,
    /// not queued job count: ten 26-variable exact jobs trip it long
    /// before a hundred 4-variable anneals.
    pub shed_watermark_seconds: Option<f64>,
    /// Floor for the retry hint handed back with watermark sheds. The
    /// actual hint is the routed shard's estimated backlog drain time
    /// (its predicted-seconds backlog, capped at one hour) or this
    /// floor, whichever is larger.
    pub shed_retry_hint: Duration,
    /// Maximum tolerated queue-depth spread between the deepest and
    /// shallowest shard before queued jobs migrate; `None` disables
    /// migration.
    pub migration_threshold: Option<usize>,
    /// Time source for admission control; `None` uses a
    /// [`MonotonicClock`]. Tests inject a [`ManualClock`] so token-bucket
    /// behavior needs no sleeps.
    pub clock: Option<Arc<dyn Clock>>,
    /// Queue-depth source for shedding and migration; `None` reads each
    /// shard's live queue-depth gauge. Tests inject fixed depths to
    /// exercise watermark/migration logic without real backlogs.
    pub depth_probe: Option<Arc<dyn DepthProbe>>,
    /// Shard-health source for failover; `None` treats every shard as
    /// permanently healthy (no routing change, no drains).
    pub health_probe: Option<Arc<dyn HealthProbe>>,
    /// One durable [`Journal`](crate::journal::Journal) per shard (the list
    /// length must match the shard count). Each shard journals its own
    /// submissions and completions; after a crash, a cluster reconstructed
    /// over the *same* journal list replays every unfinished job on its
    /// original shard via [`ClusterService::recover`] — the ring is a pure
    /// function of the shard count, so affinity is preserved. `None` — the
    /// default — disables journaling (any journal set on
    /// [`ClusterConfig::service`] would be shared by all shards; prefer
    /// this per-shard list for clusters).
    pub journals: Option<Vec<Arc<dyn crate::journal::Journal>>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            service: ServiceConfig { workers: 1, ..ServiceConfig::default() },
            admission: AdmissionConfig::default(),
            shed_watermark: None,
            shed_watermark_seconds: None,
            shed_retry_hint: Duration::from_millis(50),
            migration_threshold: None,
            clock: None,
            depth_probe: None,
            health_probe: None,
            journals: None,
        }
    }
}

/// A sharded front-end over N independent [`SolverService`]s.
///
/// Dropping the cluster drops every shard, which drains and joins their
/// worker pools — same teardown contract as a standalone service.
pub struct ClusterService {
    shards: Vec<SolverService>,
    ring: HashRing,
    admission: AdmissionController,
    clock: Arc<dyn Clock>,
    depth_probe: Option<Arc<dyn DepthProbe>>,
    health_probe: Option<Arc<dyn HealthProbe>>,
    shed_watermark: Option<usize>,
    shed_watermark_seconds: Option<f64>,
    shed_retry_hint: Duration,
    migration_threshold: Option<usize>,
    next_job_id: AtomicU64,
    next_session_id: AtomicU64,
}

impl ClusterService {
    /// Starts a cluster of [`ClusterConfig::shards`] shards, each over the
    /// standard backend portfolio.
    pub fn new(config: ClusterConfig) -> Self {
        let registries = (0..config.shards.max(1)).map(|_| SolverRegistry::standard()).collect();
        Self::with_registries(registries, config)
    }

    /// Starts a cluster with one custom registry per shard (the registry
    /// list fixes the shard count; [`ClusterConfig::shards`] is ignored).
    pub fn with_registries(registries: Vec<SolverRegistry>, config: ClusterConfig) -> Self {
        assert!(!registries.is_empty(), "a cluster needs at least one shard");
        if let Some(journals) = &config.journals {
            assert_eq!(
                journals.len(),
                registries.len(),
                "one journal per shard: journal list length must match the shard count"
            );
        }
        let epoch = config.service.epoch.unwrap_or_else(Instant::now);
        let shared: Vec<Arc<Shared>> = registries
            .into_iter()
            .enumerate()
            .map(|(i, registry)| {
                let journal = match &config.journals {
                    Some(journals) => Some(Arc::clone(&journals[i])),
                    None => config.service.journal.clone(),
                };
                SolverService::build(
                    registry,
                    ServiceConfig {
                        shard: Some(i as u64),
                        epoch: Some(epoch),
                        journal,
                        ..config.service.clone()
                    },
                )
            })
            .collect();
        // Wire every shard to its peers before any worker starts, so an
        // idle worker's first wait already counts it idle to its peers.
        if shared.len() > 1 {
            let all: Vec<Weak<Shared>> = shared.iter().map(Arc::downgrade).collect();
            for (i, shard) in shared.iter().enumerate() {
                let mut peers = all.clone();
                peers.remove(i);
                assert!(shard.peers.set(peers).is_ok(), "a fresh shard has no peers yet");
            }
        }
        let shards: Vec<SolverService> = shared
            .into_iter()
            .map(|shard| SolverService::start(shard, config.service.workers))
            .collect();
        let ring = HashRing::new(shards.len(), RING_REPLICAS);
        Self {
            ring,
            admission: AdmissionController::new(config.admission),
            clock: config.clock.unwrap_or_else(|| Arc::new(MonotonicClock::new())),
            depth_probe: config.depth_probe,
            health_probe: config.health_probe,
            shed_watermark: config.shed_watermark,
            shed_watermark_seconds: config.shed_watermark_seconds,
            shed_retry_hint: config.shed_retry_hint,
            migration_threshold: config.migration_threshold,
            next_job_id: AtomicU64::new(CLUSTER_ID_BASE),
            next_session_id: AtomicU64::new(CLUSTER_ID_BASE),
            shards,
        }
    }

    /// Number of shards in the cluster.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a canonical fingerprint routes to when every shard is
    /// healthy. Pure function of the shard count — every duplicate of a
    /// QUBO (however relabeled) routes here, which is what makes the
    /// shard's cache and single-flight table effective cluster-wide.
    pub fn shard_for_fingerprint(&self, fingerprint: u64) -> usize {
        self.ring.shard_for(fingerprint)
    }

    /// Whether `shard` is currently healthy. No probe means always yes.
    fn healthy(&self, shard: usize) -> bool {
        match &self.health_probe {
            Some(probe) => probe.is_healthy(shard),
            None => true,
        }
    }

    /// The shard `fingerprint` actually routes to right now: the
    /// health-blind ring owner when healthy, otherwise the first healthy
    /// shard clockwise (counted as a failover on the recipient's ledger).
    /// When no shard is healthy the dead owner is returned unchanged —
    /// jobs queue there and survive until the shard recovers or a drain
    /// finds somewhere better.
    fn route_shard(&self, fingerprint: u64) -> usize {
        let primary = self.ring.shard_for(fingerprint);
        if self.healthy(primary) {
            return primary;
        }
        let shard = self.ring.shard_for_healthy(fingerprint, |s| self.healthy(s));
        if shard != primary {
            self.shards[shard].shared.metrics.on_failover();
        }
        shard
    }

    /// Evacuates queued-but-unclaimed jobs from unhealthy shards.
    ///
    /// Runs automatically after every cluster submission and may be called
    /// directly when a probe flips with no traffic to piggyback on. Each
    /// drained job re-routes by its precomputed canonical fingerprint to
    /// the next healthy shard clockwise and moves through the same
    /// pop/push accounting as load-balancing migration (donor counts the
    /// dequeue + migration, recipient counts the enqueue + failover). The
    /// job still belongs to the shard that admitted it, so every shard's
    /// ledger stays balanced and no job is lost or duplicated. Idle peer
    /// workers may already have pulled some of the queue by the time this
    /// runs; the drain moves whatever is left.
    /// Jobs a dead shard's worker already claimed are out of reach —
    /// "dead" here means the shard stopped making progress, and the retry
    /// layer inside each shard handles in-flight failures. A no-op
    /// without a [`HealthProbe`] or when no healthy shard exists.
    pub fn failover_drain(&self) {
        let Some(probe) = &self.health_probe else { return };
        if !(0..self.shards.len()).any(|s| probe.is_healthy(s)) {
            return;
        }
        for donor in 0..self.shards.len() {
            if probe.is_healthy(donor) {
                continue;
            }
            loop {
                let popped = {
                    let mut queue = self.shards[donor].shared.queue.lock_unpoisoned();
                    queue.pop()
                };
                let Some(job) = popped else { break };
                let recipient = match job.route.as_ref() {
                    Some(route) => {
                        self.ring.shard_for_healthy(route.canonical_fp, |s| probe.is_healthy(s))
                    }
                    // Jobs enqueued directly on the shard carry no route:
                    // send them to the lowest-indexed healthy shard.
                    None => (0..self.shards.len())
                        .find(|&s| probe.is_healthy(s))
                        .expect("a healthy shard exists — checked above"),
                };
                let from = &self.shards[donor].shared;
                let to = &self.shards[recipient].shared;
                from.metrics.on_dequeue();
                from.metrics.on_migrated();
                to.metrics.on_enqueue();
                to.metrics.on_failover();
                to.push(job);
            }
        }
    }

    /// Opens a submission session for `tenant` with the same bounded-queue
    /// semantics as [`SolverService::session`]. The tenant name selects
    /// the admission token bucket; jobs fan out across shards by content,
    /// while handles and the completion stream behave exactly as on a
    /// single service.
    pub fn session(&self, tenant: impl Into<String>, config: SessionConfig) -> ClusterSession<'_> {
        let id = self.next_session_id.fetch_add(1, Ordering::Relaxed);
        ClusterSession {
            cluster: self,
            tenant: tenant.into(),
            core: Arc::new(SessionCore::new(id, config.queue_capacity, config.completion_buffer)),
        }
    }

    /// The merged cluster-wide ledger: every per-shard
    /// [`RuntimeReport`] summed via [`RuntimeReport::merge`], with
    /// shard-tagged queue depth gauges. Each shard's own ledger balances
    /// too: a job is counted submitted and resolved on the shard that
    /// admitted it, wherever it ran.
    pub fn report(&self) -> RuntimeReport {
        let reports = self.shard_reports();
        RuntimeReport::merge(&reports)
    }

    /// Per-shard reports, indexed by shard id (each tagged with
    /// [`RuntimeReport::shard`]).
    pub fn shard_reports(&self) -> Vec<RuntimeReport> {
        self.shards.iter().map(SolverService::report).collect()
    }

    /// Every shard's retained traces (each tagged with its shard id),
    /// ordered by job id for a stable cross-shard view.
    pub fn traces(&self) -> Vec<JobTrace> {
        let mut traces: Vec<JobTrace> =
            self.shards.iter().flat_map(SolverService::traces).collect();
        traces.sort_by_key(|t| t.job_id);
        traces
    }

    /// Current queue depth of `shard`, from the injected probe or the
    /// shard's live gauge.
    fn depth(&self, shard: usize) -> usize {
        match &self.depth_probe {
            Some(probe) => probe.queue_depth(shard),
            None => self.shards[shard].shared.metrics.queue_depth() as usize,
        }
    }

    /// Predicted seconds of backend work queued on `shard`: the injected
    /// probe's answer when it has one, else the shard's live
    /// predicted-seconds backlog gauge (the sum of every queued job's
    /// cost-model quote).
    fn backlog_seconds(&self, shard: usize) -> f64 {
        self.depth_probe.as_ref().and_then(|probe| probe.backlog_seconds(shard)).unwrap_or_else(
            || self.shards[shard].shared.queue.lock_unpoisoned().backlog_micros() as f64 / 1e6,
        )
    }

    /// Retry hint for a watermark shed on `shard`: the estimated time for
    /// the shard's predicted-seconds backlog to drain (capped at one
    /// hour), floored at the configured [`ClusterConfig::shed_retry_hint`]
    /// so a shard shedding on depth with an unknown backlog still hands
    /// back a useful backoff.
    fn shed_hint(&self, shard: usize) -> Duration {
        let drain = Duration::from_secs_f64(self.backlog_seconds(shard).clamp(0.0, 3600.0));
        self.shed_retry_hint.max(drain)
    }

    /// Migrates queued jobs from the deepest to the shallowest shard while
    /// the spread exceeds the threshold *and* moving a job strictly
    /// shrinks it (a spread of 1 would only oscillate). Donor and
    /// recipient selection break ties toward the lowest shard index and
    /// each shard's scheduler pops in its deterministic order, so the
    /// migration sequence is reproducible. The job moves with its
    /// precomputed route, owner, and untouched completion slot/session —
    /// nothing about its eventual result or its accounting changes, only
    /// which worker pool runs it.
    fn maybe_migrate(&self) {
        let Some(threshold) = self.migration_threshold else { return };
        if self.shards.len() < 2 {
            return;
        }
        loop {
            let depths: Vec<usize> = (0..self.shards.len()).map(|s| self.depth(s)).collect();
            let mut donor = 0;
            let mut recipient = 0;
            for (i, &d) in depths.iter().enumerate() {
                if d > depths[donor] {
                    donor = i;
                }
                if d < depths[recipient] {
                    recipient = i;
                }
            }
            let spread = depths[donor] - depths[recipient];
            if spread <= threshold || spread < 2 {
                return;
            }
            // One queue lock at a time: pop from the donor, then push to
            // the recipient. The job is invisible to cancel() in between,
            // which is fine — cancel of a missing id degrades to the
            // running-job path.
            let popped = {
                let mut queue = self.shards[donor].shared.queue.lock_unpoisoned();
                queue.pop()
            };
            let Some(job) = popped else { return };
            let from = &self.shards[donor].shared;
            let to = &self.shards[recipient].shared;
            from.metrics.on_dequeue();
            from.metrics.on_migrated();
            to.metrics.on_enqueue();
            to.push(job);
        }
    }

    /// Replays every unfinished job from each shard's configured journal
    /// (see [`ClusterConfig::journals`]) on that same shard, returning the
    /// replay handles across all shards in shard order. Because each shard
    /// keeps its own journal and the hash ring is a pure function of the
    /// shard count, a reconstructed cluster of the same size replays every
    /// lost job exactly where the original cluster would have run it —
    /// cache affinity and bit-identical results included. The cluster's id
    /// counter is bumped past every replayed id, so post-recovery traffic
    /// never collides with replays. Shards without a journal contribute
    /// nothing.
    pub fn recover(&self) -> Vec<JobHandle> {
        let mut handles = Vec::new();
        for shard in &self.shards {
            let Some(journal) = shard.shared.journal.clone() else { continue };
            handles.extend(shard.recover(journal.as_ref()));
        }
        for handle in &handles {
            let next = handle.id().saturating_add(1);
            self.next_job_id.fetch_max(next, Ordering::Relaxed);
        }
        handles
    }

    /// Exports every shard's result cache as one snapshot per shard, in
    /// shard order (see [`SolverService::save_snapshot`]). Load the list
    /// into a same-sized reconstructed cluster with
    /// [`ClusterService::load_snapshots`]: ring routing is a pure function
    /// of the shard count, so each snapshot lands exactly where its
    /// fingerprints route.
    pub fn save_snapshots(&self) -> Vec<crate::journal::SolutionSnapshot> {
        self.shards.iter().map(SolverService::save_snapshot).collect()
    }

    /// Seeds each shard's result cache from the matching snapshot (paired
    /// by index; extra entries on either side are ignored). After a warm
    /// restart, resubmissions of snapshotted work are served straight from
    /// the shard caches — bit-identical, with no compile and no solve.
    pub fn load_snapshots(&self, snapshots: &[crate::journal::SolutionSnapshot]) {
        for (shard, snapshot) in self.shards.iter().zip(snapshots) {
            shard.load_snapshot(snapshot);
        }
    }

    /// Crashes every shard at once (see
    /// [`SolverService::simulate_crash`]): queued and parked jobs vanish
    /// without resolving, workers finish only what they already claimed.
    /// Test-support API for whole-cluster crash-recovery drills; rebuild
    /// the cluster over the same [`ClusterConfig::journals`] and call
    /// [`ClusterService::recover`] to replay the lost work.
    pub fn simulate_crash(self) {
        for shard in self.shards {
            shard.simulate_crash();
        }
    }
}

/// An asynchronous submission session over a [`ClusterService`].
///
/// Same contract as [`crate::submit::Session`] — bounded queue, per-job
/// [`JobHandle`]s, a finish-order completion stream, drain/shutdown — plus
/// the cluster's admission checks: [`ClusterSession::submit`] can return
/// [`SubmitError::Overloaded`] when the tenant's bucket is empty or the
/// routed shard is past its shedding watermark. One session's jobs may
/// execute on different shards; the handles and completion stream hide
/// that entirely.
pub struct ClusterSession<'a> {
    cluster: &'a ClusterService,
    tenant: String,
    core: Arc<SessionCore>,
}

impl ClusterSession<'_> {
    /// The tenant this session draws admission tokens for.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Encodes the spec once and picks its shard by canonical fingerprint,
    /// skipping past shards the health probe reports dead.
    fn route(&self, spec: &JobSpec) -> (usize, RouteInfo) {
        let route = RouteInfo::encode(&*spec.problem);
        (self.cluster.route_shard(route.canonical_fp), route)
    }

    /// Admission checks for an already-reserved slot: token bucket first
    /// (charged the routed shard's predicted seconds for this spec —
    /// calibration and breaker state included), then the shard's shedding
    /// watermarks (queue depth and predicted-seconds backlog). On refusal
    /// the reservation is unwound, the shed is counted against the routed
    /// shard, and the spec is handed back inside the error with a hint
    /// derived from either the bucket's refill deficit or the shard's
    /// estimated backlog drain time.
    fn admit_reserved(&self, shard: usize, spec: JobSpec) -> Result<JobSpec, SubmitError> {
        let shard_shared = &self.cluster.shards[shard].shared;
        let metrics = &shard_shared.metrics;
        let cost_seconds = shard_shared.predicted_seconds(&spec);
        if let Err(retry_after_hint) = self.cluster.admission.try_admit(
            &self.tenant,
            self.cluster.clock.now_micros(),
            cost_seconds,
        ) {
            self.core.unreserve();
            metrics.on_shed();
            return Err(SubmitError::Overloaded { retry_after_hint, spec });
        }
        let over_depth = self
            .cluster
            .shed_watermark
            .is_some_and(|watermark| self.cluster.depth(shard) >= watermark);
        let over_backlog = self
            .cluster
            .shed_watermark_seconds
            .is_some_and(|watermark| self.cluster.backlog_seconds(shard) >= watermark);
        if over_depth || over_backlog {
            self.core.unreserve();
            metrics.on_shed();
            return Err(SubmitError::Overloaded {
                retry_after_hint: self.cluster.shed_hint(shard),
                spec,
            });
        }
        metrics.on_admitted();
        Ok(spec)
    }

    /// Submits a job, blocking while the session queue is full, then
    /// applying admission control. Sheds return the spec with a backoff
    /// hint; admitted jobs are enqueued on their fingerprint's shard and
    /// may trigger queue rebalancing.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let (shard, route) = self.route(&spec);
        let shared = &self.cluster.shards[shard].shared;
        self.core.reserve_blocking(&shared.metrics);
        let spec = self.admit_reserved(shard, spec)?;
        let id = self.cluster.next_job_id.fetch_add(1, Ordering::Relaxed);
        let handle =
            enqueue_reserved(shared, &self.core, id, spec, Some(route), Some(&self.tenant), false);
        self.cluster.failover_drain();
        self.cluster.maybe_migrate();
        Ok(handle)
    }

    /// Non-blocking submit: a full session queue returns
    /// [`SubmitError::QueueFull`] (no admission token consumed); otherwise
    /// identical to [`ClusterSession::submit`].
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let (shard, route) = self.route(&spec);
        let shared = &self.cluster.shards[shard].shared;
        if !self.core.try_reserve() {
            shared.metrics.on_backpressure_rejection();
            return Err(SubmitError::QueueFull(spec));
        }
        let spec = self.admit_reserved(shard, spec)?;
        let id = self.cluster.next_job_id.fetch_add(1, Ordering::Relaxed);
        let handle =
            enqueue_reserved(shared, &self.core, id, spec, Some(route), Some(&self.tenant), false);
        self.cluster.failover_drain();
        self.cluster.maybe_migrate();
        Ok(handle)
    }

    /// Streams finished jobs in finish order, across all shards. Same
    /// fused-iterator contract as [`crate::submit::Session::completions`].
    pub fn completions(&self) -> Completions<'_> {
        Completions::new(&self.core)
    }

    /// Jobs submitted through this session that have not resolved yet.
    pub fn in_flight(&self) -> usize {
        self.core.unresolved()
    }

    /// Completions evicted because the stream buffer overflowed
    /// ([`SessionConfig::completion_buffer`]).
    pub fn completions_dropped(&self) -> usize {
        self.core.dropped()
    }

    /// Blocks until every job submitted through this session has resolved,
    /// wherever it migrated.
    pub fn drain(&self) {
        self.core.drain_wait();
    }

    /// Graceful teardown: drains and returns unconsumed completions in
    /// finish order.
    pub fn shutdown(self) -> Vec<Completion> {
        self.core.drain_wait();
        self.core.take_completions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::cost::{analytic_seconds, CostShape};
    use crate::service::SharedProblem;
    use qdm_core::problem::{Decoded, DmProblem};
    use qdm_qubo::model::QuboModel;
    use qdm_qubo::penalty;
    use std::sync::{Condvar, Mutex};

    struct PickOne {
        costs: Vec<f64>,
    }

    impl DmProblem for PickOne {
        fn name(&self) -> String {
            format!("cluster-pick-{}", self.costs.len())
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

    /// A [`PickOne`] whose decode blocks until the shared gate opens.
    /// While a job is wedged in decode, no solve observation reaches the
    /// cost model — every submission made before the gate opens is quoted
    /// against the *frozen* cold calibration, which is what makes
    /// admission charges exactly predictable in a test.
    struct GatedPick {
        inner: PickOne,
        gate: Arc<(Mutex<bool>, Condvar)>,
    }

    impl DmProblem for GatedPick {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn n_vars(&self) -> usize {
            self.inner.n_vars()
        }
        fn to_qubo(&self) -> QuboModel {
            self.inner.to_qubo()
        }
        fn decode(&self, bits: &[bool]) -> Decoded {
            let (lock, cv) = &*self.gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            self.inner.decode(bits)
        }
    }

    fn gated(n: usize, gate: &Arc<(Mutex<bool>, Condvar)>) -> SharedProblem {
        Arc::new(GatedPick {
            inner: PickOne { costs: (0..n).map(|i| ((i * 3) % 7) as f64 + 0.5).collect() },
            gate: Arc::clone(gate),
        })
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (lock, cv) = &**gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    fn small_cluster(shards: usize) -> ClusterService {
        ClusterService::new(ClusterConfig {
            shards,
            service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
            ..Default::default()
        })
    }

    #[test]
    fn routed_job_treats_a_colliding_entry_of_another_size_as_a_miss() {
        // A 3-variable result stored under the 4-variable model's key: what
        // a 64-bit fingerprint collision across model sizes would leave.
        // Served, its short assignment would panic the translation.
        let donor = small_cluster(1);
        let donor_session = donor.session("t", SessionConfig::default());
        donor_session.submit(JobSpec::new(pick(3), 3)).unwrap().wait().expect("solvable");
        let mut snapshots = donor.save_snapshots();
        let (_, wrong_size) = snapshots[0].entries.remove(0);
        let spec = JobSpec::new(pick(4), 3);
        let fingerprint = spec.problem.to_qubo().canonical_fingerprint();
        let key = CacheKey::new(spec.problem.name(), fingerprint, &spec.options, 3, None);
        snapshots[0].entries = vec![(key, wrong_size)];
        let cluster = small_cluster(1);
        cluster.load_snapshots(&snapshots);

        let session = cluster.session("t", SessionConfig::default());
        let result = session.submit(spec).expect("admitted").wait().expect("solves, no panic");
        assert!(!result.from_cache);
        assert_eq!(result.report.bits.len(), 4);
        assert!(result.report.decoded.feasible);
    }

    #[test]
    fn cluster_jobs_run_and_ids_stay_disjoint_from_shard_ids() {
        let cluster = small_cluster(2);
        let session = cluster.session("t", SessionConfig::default());
        let handle = session.submit(JobSpec::new(pick(4), 7)).expect("admitted");
        assert!(handle.id() >= CLUSTER_ID_BASE, "cluster ids live above the shard-local range");
        let result = handle.wait().expect("solvable");
        assert!(result.report.decoded.feasible);
        session.drain();
        let report = cluster.report();
        assert_eq!(report.jobs_submitted, 1);
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.jobs_admitted, 1);
    }

    #[test]
    fn token_bucket_sheds_and_manual_refill_readmits() {
        // The bucket is denominated in predicted seconds, so its capacity
        // and refill are expressed in units of one job's cold cost-model
        // quote — read off the same public estimator the cluster charges
        // with, never hardcoded. The gate keeps the first job wedged in
        // decode so no observation recalibrates the quote mid-test.
        let reg = SolverRegistry::standard();
        let sa = reg.find("simulated-annealing").expect("SA registered");
        let unit = analytic_seconds(&reg.get(sa).spec, CostShape::from_n_vars(4));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let clock = Arc::new(ManualClock::new(0));
        let cluster = ClusterService::new(ClusterConfig {
            shards: 2,
            service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
            admission: AdmissionConfig::default().with_tenant(
                "metered",
                TokenBucketConfig { capacity: 1.5 * unit, refill_per_second: unit },
            ),
            clock: Some(clock.clone()),
            ..Default::default()
        });
        let session = cluster.session("metered", SessionConfig::default());
        let spec = |seed| JobSpec::new(gated(4, &gate), seed).on_backend("simulated-annealing");
        let first = session.submit(spec(1)).expect("burst covers one job");
        // 0.5 units left cannot cover a 1-unit job: shed, with a hint of
        // exactly the 0.5 units of refill this job still needs.
        let err = session.submit(spec(2)).unwrap_err();
        let hint = err.retry_after_hint().expect("overloaded carries a hint");
        assert_eq!(hint, Duration::from_millis(500));
        // Advance the injected clock instead of sleeping: the bucket
        // refills and the recovered spec resubmits cleanly.
        clock.advance(500_000);
        let retried = session.submit(err.into_spec()).expect("refilled");
        open_gate(&gate);
        assert!(first.wait().is_ok());
        assert!(retried.wait().is_ok());
        session.drain();
        let report = cluster.report();
        assert_eq!(report.jobs_shed, 1);
        assert_eq!(report.jobs_admitted, 2);
        assert_eq!(report.jobs_submitted, 2, "shed jobs never reach a queue");
    }

    #[test]
    fn watermark_sheds_via_injected_depth_probe() {
        struct Flooded;
        impl DepthProbe for Flooded {
            fn queue_depth(&self, _shard: usize) -> usize {
                1000
            }
        }
        let cluster = ClusterService::new(ClusterConfig {
            shards: 2,
            service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
            shed_watermark: Some(8),
            shed_retry_hint: Duration::from_millis(250),
            depth_probe: Some(Arc::new(Flooded)),
            ..Default::default()
        });
        let session = cluster.session("t", SessionConfig::default());
        let err = session.submit(JobSpec::new(pick(4), 1)).unwrap_err();
        // The probe scripts a depth but no backlog, and nothing is queued
        // live, so the hint falls back to the configured floor.
        assert_eq!(err.retry_after_hint(), Some(Duration::from_millis(250)));
        drop(session);
        let report = cluster.report();
        assert_eq!(report.jobs_shed, 1);
        assert_eq!(report.jobs_submitted, 0);
    }

    #[test]
    fn seconds_watermark_sheds_on_estimated_backlog_with_drain_time_hint() {
        // Zero queued *jobs* as far as depth is concerned — the probe
        // reports backlog purely in predicted seconds, and that alone
        // trips the seconds watermark. The hint is the drain time, not
        // the floor.
        struct DeepWork;
        impl DepthProbe for DeepWork {
            fn queue_depth(&self, _shard: usize) -> usize {
                0
            }
            fn backlog_seconds(&self, _shard: usize) -> Option<f64> {
                Some(12.5)
            }
        }
        let cluster = ClusterService::new(ClusterConfig {
            shards: 2,
            service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
            shed_watermark: Some(1000),
            shed_watermark_seconds: Some(10.0),
            shed_retry_hint: Duration::from_millis(250),
            depth_probe: Some(Arc::new(DeepWork)),
            ..Default::default()
        });
        let session = cluster.session("t", SessionConfig::default());
        let err = session.submit(JobSpec::new(pick(4), 1)).unwrap_err();
        assert_eq!(
            err.retry_after_hint(),
            Some(Duration::from_secs_f64(12.5)),
            "hint is the estimated backlog drain time, not the floor"
        );
        drop(session);
        let report = cluster.report();
        assert_eq!(report.jobs_shed, 1);
        assert_eq!(report.jobs_submitted, 0);
    }

    #[test]
    fn shed_submissions_release_their_queue_slot() {
        struct Flooded;
        impl DepthProbe for Flooded {
            fn queue_depth(&self, _shard: usize) -> usize {
                usize::MAX
            }
        }
        let cluster = ClusterService::new(ClusterConfig {
            shards: 1,
            service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
            shed_watermark: Some(1),
            depth_probe: Some(Arc::new(Flooded)),
            ..Default::default()
        });
        // Capacity 1: if sheds leaked their reservation, the second submit
        // would deadlock in reserve_blocking.
        let session =
            cluster.session("t", SessionConfig { queue_capacity: 1, completion_buffer: 4 });
        for seed in 0..4 {
            let err = session.submit(JobSpec::new(pick(4), seed)).unwrap_err();
            assert!(matches!(err, SubmitError::Overloaded { .. }));
        }
        assert_eq!(session.in_flight(), 0);
    }

    #[test]
    fn duplicate_fingerprints_route_to_one_shard() {
        let cluster = small_cluster(4);
        let qubo = pick(6).to_qubo();
        let (fp, _) = qubo.canonical_form();
        let home = cluster.shard_for_fingerprint(fp);
        let session = cluster.session("t", SessionConfig::default());
        for seed in 0..6 {
            session.submit(JobSpec::new(pick(6), seed)).expect("admitted");
        }
        session.drain();
        let reports = cluster.shard_reports();
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.shard, Some(i as u64));
            let expected = if i == home { 6 } else { 0 };
            assert_eq!(
                report.jobs_submitted, expected,
                "all duplicates of one fingerprint belong to shard {home}"
            );
        }
    }

    #[test]
    fn single_shard_cluster_never_migrates() {
        let cluster = ClusterService::new(ClusterConfig {
            shards: 1,
            service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
            migration_threshold: Some(0),
            ..Default::default()
        });
        let session = cluster.session("t", SessionConfig::default());
        for seed in 0..8 {
            session.submit(JobSpec::new(pick(4), seed)).expect("admitted");
        }
        session.drain();
        let report = cluster.report();
        assert_eq!(report.migrations, 0);
        assert_eq!(report.jobs_completed, 8);
    }
}
