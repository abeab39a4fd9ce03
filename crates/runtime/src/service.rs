//! The concurrent solver service: a fair-scheduled job queue feeding a pool
//! of worker threads, each running the Fig. 2 pipeline end to end — cache
//! lookup, portfolio routing, `run_pipeline`, telemetry — for every
//! submitted data-management problem.
//!
//! Concurrency model: plain `std::thread` workers draining a shared
//! `Mutex`-guarded `JobScheduler` under a condvar — the run queue, which a
//! cluster's shards share (no external dependencies). The scheduler serves priority lanes with
//! deterministic pop-counted aging (no lane starves) and per-session
//! deficit-round-robin subqueues (no session monopolizes the pool). Every
//! job resolves through its own `CompletionSlot` (see [`crate::handle`]) rather
//! than a per-batch channel, which is what lets the [`crate::submit`] layer
//! hand out independent [`crate::handle::JobHandle`]s, cancel queued jobs,
//! and stream completions. Every job carries its own RNG seed, so results
//! are reproducible regardless of which worker picks the job up or in what
//! order anything executes.
//!
//! Ahead of the result cache sits the single-flight table
//! (`FlightTable`): concurrent submissions of the same work
//! identity coalesce onto one leader instead of both missing the cache and
//! both solving (the thundering-herd re-solve). Followers park on the
//! leader's completion and are served its result through the same
//! canonical-bit translation a cache hit uses; cancelling a follower never
//! cancels the leader, and a leader that panics wakes its followers to
//! retry rather than stranding them. A parked follower does occupy its
//! worker thread for the leader's remaining solve time — the deliberate
//! simple design (followers need their own post-translation decode and
//! slot resolution anyway); progress is always guaranteed because a leader
//! is by construction actively solving on another worker, and the parked
//! time is bounded by that one solve.

use crate::breaker::{BreakerConfig, CircuitBreakers};
use crate::cache::{
    CacheKey, CachedResult, FlightResolution, FlightRole, FlightTable, ResultCache,
};
use crate::cluster::{Clock, MonotonicClock};
use crate::cost::{analytic_seconds, CostShape, MIN_PREDICTED_SECONDS};
use crate::fault::{FaultAction, FaultInjector, FaultSite, RetryPolicy};
use crate::handle::{Completion, CompletionSlot, JobHandle};
use crate::journal::{unfinished, Journal, JournalEvent, SolutionSnapshot, SubmittedRecord};
use crate::metrics::{BackendTelemetry, Counter, Metrics, RuntimeReport};
use crate::portfolio::{energy_quality, PortfolioScheduler};
use crate::registry::SolverRegistry;
use crate::scheduler::{JobScheduler, RunQueue};
use crate::submit::SessionCore;
use crate::sync::{CondvarExt, LockExt};
use crate::trace::{
    JobTrace, Span, Stage, StageProfile, TraceConfig, TraceOutcome, TraceRing, TraceSink,
    DEFAULT_TRACE_CAPACITY,
};
use qdm_core::cores;
use qdm_core::pipeline::{
    prepare_pipeline, run_prepared, JobPriority, PipelineOptions, PipelineReport, PreparedPipeline,
};
use qdm_core::problem::DmProblem;
use qdm_qubo::compiled::CompiledQubo;
use qdm_qubo::model::QuboModel;
use qdm_qubo::probe::{StageProbe, TeeProbe};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A shareable data-management problem: the trait object the service queues.
pub type SharedProblem = Arc<dyn DmProblem + Send + Sync>;

/// How a job picks its backend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Let the adaptive portfolio scheduler route the job.
    #[default]
    Auto,
    /// Pin the job to a named backend (e.g. `"simulated-annealing"`).
    Named(String),
}

/// One unit of work for the service.
#[derive(Clone)]
pub struct JobSpec {
    /// The problem to encode and solve.
    pub problem: SharedProblem,
    /// Pipeline stages to apply around the solver call.
    pub options: PipelineOptions,
    /// Seed for the job's private RNG; fixes the full solve trajectory.
    pub seed: u64,
    /// Backend selection policy.
    pub backend: BackendChoice,
    /// Optional deadline, measured from enqueue. `None` — the default —
    /// never expires. See [`Self::deadline`].
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// An auto-routed job with default pipeline options.
    pub fn new(problem: SharedProblem, seed: u64) -> Self {
        Self {
            problem,
            options: PipelineOptions::default(),
            seed,
            backend: BackendChoice::Auto,
            deadline: None,
        }
    }

    /// Sets the pipeline options.
    pub fn with_options(mut self, options: PipelineOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the queue priority (scheduling only; the result is identical at
    /// every priority level and cache entries are shared across levels).
    pub fn with_priority(mut self, priority: JobPriority) -> Self {
        self.options.priority = priority;
        self
    }

    /// Pins the job to a named backend.
    pub fn on_backend(mut self, name: &str) -> Self {
        self.backend = BackendChoice::Named(name.to_string());
        self
    }

    /// Bounds how long the job may take, measured from enqueue. An expired
    /// job fails with [`JobError::DeadlineExceeded`]: either fail-fast at
    /// worker pickup (it expired while queued) or cooperatively — a
    /// [`qdm_qubo::probe::StageProbe::should_stop`] checkpoint polled at
    /// the solvers' restart/sweep boundaries stops the solve early, and the
    /// best solution found so far is carried out as
    /// [`PartialSolution`]. The deadline is scheduling-only state: it is
    /// excluded from cache and single-flight identity, and jobs without one
    /// run bit-identical to a runtime without deadline support.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Submission-order id within the service (monotonically increasing).
    pub job_id: u64,
    /// Full pipeline telemetry and decoded solution.
    pub report: PipelineReport,
    /// The backend that produced (or originally produced, for cache hits
    /// and coalesced jobs) the result.
    pub backend: String,
    /// Whether the result was served from the result cache.
    pub from_cache: bool,
    /// Whether the result was served by coalescing onto a concurrent
    /// in-flight duplicate (single-flight) instead of solving or hitting
    /// the cache.
    pub coalesced: bool,
}

/// The best solution a deadline-expired job had found when it was stopped,
/// carried in [`JobError::DeadlineExceeded`]. Bits are in the job's own
/// variable labeling; the energy is exact for those bits — "partial" means
/// the *search* was cut short, not that the assignment is incomplete.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialSolution {
    /// Best assignment found before the deadline checkpoint stopped the
    /// solve.
    pub bits: Vec<bool>,
    /// Energy of `bits` under the job's QUBO.
    pub energy: f64,
}

/// Why a job could not be answered.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The requested backend name is not registered.
    UnknownBackend(String),
    /// The pinned backend cannot take a model this large.
    BackendTooSmall {
        /// Requested backend.
        backend: String,
        /// The backend's capacity.
        max_vars: usize,
        /// The model's variable count.
        n_vars: usize,
    },
    /// No registered backend admits a model this large.
    NoEligibleBackend {
        /// The model's variable count.
        n_vars: usize,
    },
    /// The job was cancelled through its [`crate::handle::JobHandle`]: either
    /// removed from the queue before a worker picked it up, or cancelled
    /// mid-run (the solve completed and was cached, but waiters see this).
    Cancelled,
    /// The job panicked inside encoding, solving, or decoding. The worker
    /// survives; the panic payload (if it was a string) is carried here.
    Panicked(String),
    /// A [`crate::fault::FaultInjector`] forced a typed failure
    /// ([`crate::fault::FaultAction::Error`]) at one of the processing
    /// seams. Retryable, like [`Self::Panicked`].
    Injected(String),
    /// The job's [`JobSpec::deadline`] expired: while queued (`partial` is
    /// `None` — nothing ran) or mid-solve (`partial` carries the best
    /// solution found before the cooperative checkpoint stopped the
    /// search).
    DeadlineExceeded {
        /// Best-so-far solution at the moment the solve was stopped.
        partial: Option<PartialSolution>,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::UnknownBackend(name) => write!(f, "unknown backend {name:?}"),
            JobError::BackendTooSmall { backend, max_vars, n_vars } => {
                write!(f, "backend {backend:?} caps at {max_vars} vars but the model has {n_vars}")
            }
            JobError::NoEligibleBackend { n_vars } => {
                write!(f, "no registered backend admits {n_vars} variables")
            }
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::Injected(msg) => write!(f, "injected fault: {msg}"),
            JobError::DeadlineExceeded { partial: Some(p) } => {
                write!(f, "deadline exceeded (best-so-far energy {})", p.energy)
            }
            JobError::DeadlineExceeded { partial: None } => {
                write!(f, "deadline exceeded while queued")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Result of one job: completed or failed routing.
pub type JobOutcome = Result<JobResult, JobError>;

/// A job's encoding and canonical identity — the only form in which a
/// worker sees a job. Built exactly once per job by [`RouteInfo::encode`],
/// compile-free: the QUBO is built, canonically fingerprinted via
/// [`qdm_qubo::model::QuboModel::canonical_form`], and carried to whichever
/// shard's worker ends up running the job, so where a job runs never
/// changes what executes.
///
/// It is built wherever the model is encoded anyway: the cluster
/// front-end builds it to pick the shard, a journaled submission builds it
/// to write the `Submitted` record, and every other job (unjournaled direct
/// submissions, recovery replays) builds it on the worker at its first
/// attempt, inside the panic guard, so a panicking `to_qubo` fails the job
/// and never the caller.
pub(crate) struct RouteInfo {
    /// The encoded model; nothing calls `to_qubo` for this job again.
    pub(crate) qubo: Arc<QuboModel>,
    /// Canonical (labeling-independent) fingerprint of `qubo`.
    pub(crate) canonical_fp: u64,
    /// This labeling's canonical permutation (`perm[original] = canonical`).
    pub(crate) perm: Arc<Vec<usize>>,
}

impl RouteInfo {
    /// Encodes `problem` and canonicalizes the model.
    pub(crate) fn encode(problem: &dyn DmProblem) -> Self {
        let qubo = problem.to_qubo();
        let (canonical_fp, perm) = qubo.canonical_form();
        Self { qubo: Arc::new(qubo), canonical_fp, perm: Arc::new(perm) }
    }
}

/// A job sitting in the service queue, waiting for a worker.
pub(crate) struct QueuedJob {
    pub(crate) id: u64,
    /// The shard that admitted the job. It serves the job on whichever
    /// shard's worker pops it from the cluster's one run queue — cache,
    /// single-flight, portfolio, breakers, journal, trace, and ledger — and
    /// counts it in its queue-depth and backlog gauges while it waits.
    pub(crate) owner: Arc<Shared>,
    /// Deficit-round-robin cost: the job's predicted microseconds of
    /// backend time (≥ 1), spent from the owning session's per-lane
    /// scheduling credit when served.
    pub(crate) cost: u64,
    /// Enqueue timestamp, nanoseconds since the service epoch: the start of
    /// the job's `queued` trace span and of its caller-observed serve
    /// latency.
    pub(crate) queued_ns: u64,
    pub(crate) spec: JobSpec,
    pub(crate) slot: Arc<CompletionSlot>,
    pub(crate) session: Arc<SessionCore>,
    /// The job's route. Cluster and journaled submissions queue with it
    /// built; every other job gets it from its worker's first attempt, and
    /// it stays here so retries and parked backoffs reuse it.
    pub(crate) route: Option<RouteInfo>,
    /// Mid-retry state carried across a backoff park (see [`RetryState`]);
    /// `None` for a job that has not been parked.
    pub(crate) retry: Option<Box<RetryState>>,
    /// `true` for jobs re-enqueued by [`SolverService::recover`]: they keep
    /// their journaled id, skip re-journaling their own `Submitted` record,
    /// and open their trace with a [`Stage::Recover`] span.
    pub(crate) recovered: bool,
}

impl QueuedJob {
    /// The job's trace as of leaving the queue: its identity and the
    /// queue-wait span, ending now.
    pub(crate) fn queued_trace(&self, shared: &Shared, outcome: TraceOutcome) -> JobTrace {
        JobTrace {
            job_id: self.id,
            session: self.session.id(),
            problem: self.spec.problem.name(),
            lane: self.spec.options.priority,
            fingerprint: 0,
            seed: self.spec.seed,
            outcome,
            backend: None,
            shard: shared.shard,
            spans: vec![Span::new(Stage::Queued, self.queued_ns, shared.now_ns())],
        }
    }
}

/// Everything a parked retry needs to resume exactly where it left off.
///
/// When a retryable failure earns a non-zero backoff, the worker does not
/// sleep through it: the job is parked in [`Shared::delayed`] with this
/// state boxed onto it and the worker moves on to other queued work. The
/// worker that picks the job back up (once its `not_before` passes on the
/// service clock) restores the attempt counter, the accumulated
/// [`AttemptCtx`] — including the backend-exclusion memory and the
/// satellite compile caches — and the partially built trace, then re-enters
/// the retry loop as if it had slept in place.
pub(crate) struct RetryState {
    /// The attempt number the resumed run is about to execute (1-based).
    attempt: u32,
    /// Cross-attempt context: exclusions, attribution, compile reuse.
    ctx: AttemptCtx,
    /// The trace built so far; the resume pushes the `Retry` span covering
    /// the park.
    trace: Option<JobTrace>,
    /// When the backoff began (trace timebase), for the `Retry` span.
    backoff_start_ns: u64,
}

/// A job parked until its retry backoff elapses on the service clock.
pub(crate) struct DelayedJob {
    /// Earliest pickup time, in [`Clock::now_micros`] units.
    not_before_micros: u64,
    job: QueuedJob,
}

/// Service internals shared between the owner, sessions, handles, and
/// workers.
pub(crate) struct Shared {
    pub(crate) registry: SolverRegistry,
    pub(crate) cache: ResultCache,
    pub(crate) inflight: FlightTable,
    pub(crate) portfolio: PortfolioScheduler,
    pub(crate) metrics: Metrics,
    /// The run queue this service's workers pop: its own when standalone,
    /// the cluster's one queue inside a [`crate::cluster::ClusterService`].
    pub(crate) queue: Arc<RunQueue>,
    /// Predicted microseconds of backend time queued for jobs this service
    /// owns (the sum of their [`QueuedJob::cost`]), wherever they queue:
    /// the backlog that load shedding and `retry_after_hint` read.
    backlog_micros: AtomicU64,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) next_job_id: AtomicU64,
    pub(crate) next_session_id: AtomicU64,
    /// The service's private monotonic epoch; every trace timestamp is
    /// nanoseconds since this instant.
    pub(crate) epoch: Instant,
    /// Where finished job traces go; `None` disables tracing entirely.
    pub(crate) sink: Option<Arc<dyn TraceSink>>,
    /// The in-service ring behind [`TraceConfig::Ring`] — kept alongside
    /// `sink` so snapshots/exports can read it back; `None` for disabled or
    /// custom-sink configurations.
    pub(crate) ring: Option<Arc<TraceRing>>,
    /// This service's shard id inside a [`crate::cluster::ClusterService`];
    /// `None` for a standalone service. Tags traces and reports.
    pub(crate) shard: Option<u64>,
    /// Fault-injection hook consulted at each processing seam; `None` (the
    /// production default) skips even the virtual call.
    pub(crate) injector: Option<Arc<dyn FaultInjector>>,
    /// Bounds the worker retry loop for retryable failures.
    pub(crate) retry: RetryPolicy,
    /// Per-backend circuit breakers; `None` disables breaking entirely.
    pub(crate) breakers: Option<CircuitBreakers>,
    /// Time source for retry backoff and injected delays. The default
    /// monotonic clock gives production behavior; tests inject a
    /// [`crate::cluster::ManualClock`] so no robustness test ever sleeps
    /// wall-clock time waiting for a backoff.
    pub(crate) clock: Arc<dyn Clock>,
    /// Durable job journal recording `Submitted`/`Completed`/`Cancelled`
    /// at the submit and resolve seams; `None` — the production default
    /// without durability — skips journaling entirely.
    pub(crate) journal: Option<Arc<dyn Journal>>,
    /// Jobs parked mid-retry until their backoff elapses on `clock`; kept
    /// off the scheduler queue so they cost no scheduling credit and the
    /// workers stay free for runnable work.
    pub(crate) delayed: Mutex<Vec<DelayedJob>>,
}

impl Shared {
    /// Raises [`Self::shutting_down`]. Takes the queue guard so the store
    /// happens under the queue lock: a worker in `next_job` reads the flag
    /// and then waits on the queue's condvar without releasing that lock in
    /// between, so the caller's following `notify_all` cannot fall into
    /// the gap and leave the worker (and the `join` in `drop`) asleep
    /// forever.
    pub(crate) fn begin_shutdown(&self, _queue: &MutexGuard<'_, JobScheduler>) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Queues `job`, owned by this service, on the run queue and wakes one
    /// worker for it. The job counts in this service's depth and backlog
    /// gauges before any worker can see it, so a pop never undercounts.
    pub(crate) fn push(&self, job: QueuedJob) {
        self.metrics.on_enqueue();
        self.backlog_micros.fetch_add(job.cost, Ordering::Relaxed);
        self.queue.jobs.lock_unpoisoned().push(job);
        self.queue.ready.notify_one();
    }

    /// Takes a job this service owns off its queue gauges: a worker popped
    /// it, or a cancel removed it.
    pub(crate) fn on_dequeue(&self, job: &QueuedJob) {
        self.metrics.dec(Counter::QueueDepth);
        self.backlog_micros.fetch_sub(job.cost, Ordering::Relaxed);
    }

    /// Predicted seconds of backend work queued for this service's jobs.
    pub(crate) fn backlog_seconds(&self) -> f64 {
        self.backlog_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Nanoseconds since the service epoch (monotonic).
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Predicted seconds of backend time `spec` will consume, quoted by
    /// the calibrated cost model *before* the job is queued (so before
    /// compilation — the estimate uses the default degree assumption of
    /// [`CostShape::from_n_vars`]). This is the common currency the
    /// decision plane meters: the DRR scheduler charges it as the job's
    /// cost, the cluster's admission buckets drain by it, and queue
    /// backlogs sum it.
    ///
    /// Pinned jobs quote their named backend; `Auto` quotes the cheapest
    /// eligible backend (what routing will pick, modulo the quality
    /// term). Unroutable specs quote the floor and are rejected at routing
    /// instead.
    pub(crate) fn predicted_seconds(&self, spec: &JobSpec) -> f64 {
        let n_vars = spec.problem.n_vars();
        let shape = CostShape::from_n_vars(n_vars);
        let expected = |idx: usize| {
            let capacity = self.breakers.as_ref().map_or(1.0, |b| b.capacity(idx));
            self.portfolio.expected_seconds(&self.registry, idx, shape, capacity)
        };
        match &spec.backend {
            BackendChoice::Named(name) => match self.registry.find(name) {
                Some(idx) => expected(idx),
                None => MIN_PREDICTED_SECONDS,
            },
            BackendChoice::Auto => self
                .registry
                .eligible(n_vars)
                .into_iter()
                .map(expected)
                .min_by(f64::total_cmp)
                .unwrap_or(MIN_PREDICTED_SECONDS),
        }
    }
}

/// Service configuration.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads in the pool; the default is one per hardware thread
    /// ([`qdm_core::cores::hardware_threads`]).
    pub workers: usize,
    /// Result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Job tracing (default: a bounded in-service ring of
    /// [`DEFAULT_TRACE_CAPACITY`] traces; see [`crate::trace`]).
    pub tracing: TraceConfig,
    /// Shard id this service runs as inside a
    /// [`crate::cluster::ClusterService`] (tags traces, reports, and
    /// Prometheus series); `None` — the default — for a standalone service.
    pub shard: Option<u64>,
    /// Trace/latency epoch override. A cluster passes one shared epoch to
    /// every shard, so a job's queue-wait timestamps, taken by its owner,
    /// stay valid on whichever shard's worker pops it; `None` — the
    /// default — uses the service's own start instant.
    pub epoch: Option<Instant>,
    /// Fault-injection hook consulted at the [`crate::fault::FaultSite`]
    /// seams of every job; `None` — the default — injects nothing. Tests
    /// arm a [`crate::fault::FaultPlan`] here.
    pub injector: Option<Arc<dyn FaultInjector>>,
    /// Retry policy for retryable failures (panics and injected errors).
    /// The default disables retry, preserving single-attempt behavior.
    pub retry: RetryPolicy,
    /// Per-backend circuit-breaker policy; `None` — the default — disables
    /// breakers.
    pub breaker: Option<BreakerConfig>,
    /// Time source for retry backoff and injected delays; `None` — the
    /// default — uses a monotonic wall clock. Tests inject a
    /// [`crate::cluster::ManualClock`] to drive backoffs without sleeping.
    pub clock: Option<Arc<dyn Clock>>,
    /// Durable job journal. When set, every accepted job appends a
    /// `Submitted` record at enqueue and a `Completed`/`Cancelled` record
    /// when its slot resolves; jobs with no terminal record are replayed by
    /// [`SolverService::recover`]. `None` — the default — disables
    /// journaling.
    pub journal: Option<Arc<dyn Journal>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: cores::hardware_threads(),
            cache_capacity: 4096,
            tracing: TraceConfig::default(),
            shard: None,
            epoch: None,
            injector: None,
            retry: RetryPolicy::default(),
            breaker: None,
            clock: None,
            journal: None,
        }
    }
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("workers", &self.workers)
            .field("cache_capacity", &self.cache_capacity)
            .field("tracing", &self.tracing)
            .field("shard", &self.shard)
            .field("epoch", &self.epoch)
            .field("injector", &self.injector.as_ref().map(|_| "<injector>"))
            .field("retry", &self.retry)
            .field("breaker", &self.breaker)
            .field("clock", &self.clock.as_ref().map(|_| "<clock>"))
            .field("journal", &self.journal.as_ref().map(|_| "<journal>"))
            .finish()
    }
}

/// The concurrent solver service.
///
/// The synchronous entry points below ([`Self::run_batch`], [`Self::run`])
/// are thin wrappers over the handle-based asynchronous API — see
/// [`SolverService::session`] for submission with backpressure, per-job
/// [`crate::handle::JobHandle`]s, cancellation, and streaming completions.
///
/// ```
/// use qdm_runtime::prelude::*;
/// use qdm_core::prelude::*;
/// use qdm_qubo::penalty;
/// use qdm_qubo::model::QuboModel;
/// use std::sync::Arc;
///
/// // Any DmProblem works; a 3-way pick-one as a stand-in.
/// struct PickOne;
/// impl DmProblem for PickOne {
///     fn name(&self) -> String { "pick-one".into() }
///     fn n_vars(&self) -> usize { 3 }
///     fn to_qubo(&self) -> QuboModel {
///         let mut q = QuboModel::new(3);
///         q.add_linear(0, 3.0).add_linear(1, 1.0).add_linear(2, 2.0);
///         penalty::exactly_one(&mut q, &[0, 1, 2], 10.0);
///         q
///     }
///     fn decode(&self, bits: &[bool]) -> Decoded {
///         let n = bits.iter().filter(|&&b| b).count();
///         Decoded { feasible: n == 1, objective: 0.0, summary: format!("{bits:?}") }
///     }
/// }
///
/// let service =
///     SolverService::new(ServiceConfig { workers: 2, cache_capacity: 64, ..Default::default() });
/// let job = JobSpec::new(Arc::new(PickOne), 7);
///
/// // Asynchronous path: submit, keep working, then wait the handle.
/// let session = service.session(SessionConfig::default());
/// let handle = session.submit(job.clone());
/// let first = handle.wait().unwrap();
/// assert!(first.report.decoded.feasible);
///
/// // Synchronous wrapper: same work resubmitted is a bit-identical cache hit.
/// let again = service.run(job).unwrap();
/// assert!(again.from_cache);
/// assert_eq!(again.report.bits, first.report.bits);
/// assert_eq!(service.report().cache_hits, 1);
/// ```
pub struct SolverService {
    pub(crate) shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl SolverService {
    /// Starts a service over the standard Fig. 2 backend portfolio.
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_registry(SolverRegistry::standard(), config)
    }

    /// Starts a service over a custom registry.
    pub fn with_registry(registry: SolverRegistry, config: ServiceConfig) -> Self {
        let workers = config.workers;
        Self::start(Self::build(registry, config, RunQueue::new()), workers)
    }

    /// Builds a service's shared state over `queue` without starting its
    /// workers. A cluster passes every shard the same queue.
    pub(crate) fn build(
        registry: SolverRegistry,
        config: ServiceConfig,
        queue: Arc<RunQueue>,
    ) -> Arc<Shared> {
        let n_backends = registry.len();
        let (sink, ring): (Option<Arc<dyn TraceSink>>, Option<Arc<TraceRing>>) =
            match config.tracing {
                TraceConfig::Disabled => (None, None),
                TraceConfig::Ring => {
                    let ring = Arc::new(TraceRing::new(DEFAULT_TRACE_CAPACITY));
                    (Some(Arc::clone(&ring) as Arc<dyn TraceSink>), Some(ring))
                }
                TraceConfig::RingWithCapacity(capacity) => {
                    let ring = Arc::new(TraceRing::new(capacity));
                    (Some(Arc::clone(&ring) as Arc<dyn TraceSink>), Some(ring))
                }
                TraceConfig::Custom(sink) => (Some(sink), None),
            };
        Arc::new(Shared {
            registry,
            cache: ResultCache::new(config.cache_capacity),
            inflight: FlightTable::new(),
            portfolio: PortfolioScheduler::new(n_backends),
            metrics: Metrics::new(),
            queue,
            backlog_micros: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            next_job_id: AtomicU64::new(0),
            next_session_id: AtomicU64::new(0),
            epoch: config.epoch.unwrap_or_else(Instant::now),
            sink,
            ring,
            shard: config.shard,
            injector: config.injector,
            retry: config.retry,
            breakers: config.breaker.as_ref().map(|b| CircuitBreakers::new(b, n_backends)),
            clock: config.clock.unwrap_or_else(|| Arc::new(MonotonicClock::new())),
            journal: config.journal,
            delayed: Mutex::new(Vec::new()),
        })
    }

    /// Starts `workers` (at least one) worker threads over `shared`.
    pub(crate) fn start(shared: Arc<Shared>, workers: usize) -> Self {
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qdm-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Submits a batch and blocks until every job is answered, returning
    /// outcomes in submission order. A compatibility wrapper over the
    /// session API: one session sized to the batch, every spec submitted,
    /// every handle waited in order.
    pub fn run_batch(&self, specs: Vec<JobSpec>) -> Vec<JobOutcome> {
        crate::submit::run_batch_via_session(self, specs)
    }

    /// Submits one job and blocks for its outcome.
    pub fn run(&self, spec: JobSpec) -> JobOutcome {
        self.run_batch(vec![spec]).pop().expect("one outcome for one job")
    }

    /// Snapshot of runtime counters, cache behavior, and backend usage,
    /// including the portfolio's per-backend EWMA latency/quality telemetry
    /// (name-sorted, observed backends only), the cost model's
    /// predicted-seconds and estimation-error gauges, the predicted-seconds
    /// queue backlog, and trace-ring counters.
    pub fn report(&self) -> RuntimeReport {
        let mut report = self.shared.metrics.report();
        let calibration = self.shared.portfolio.cost_model().stats();
        let mut telemetry: Vec<BackendTelemetry> = self
            .shared
            .portfolio
            .stats()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.observations > 0)
            .map(|(idx, s)| BackendTelemetry {
                backend: self.shared.registry.get(idx).spec.name.clone(),
                observations: s.observations,
                ewma_latency_seconds: s.ewma_latency,
                ewma_quality: s.ewma_quality,
                predicted_seconds: calibration[idx].ewma_predicted_seconds,
                estimation_error_factor: calibration[idx].ewma_error_factor,
            })
            .collect();
        telemetry.sort_by(|a, b| a.backend.cmp(&b.backend));
        report.backend_telemetry = telemetry;
        report.queue_backlog_seconds = self.shared.backlog_seconds();
        if let Some(ring) = &self.shared.ring {
            report.traces_recorded = ring.recorded();
            report.traces_dropped = ring.dropped();
        }
        report.shard = self.shared.shard;
        report
    }

    /// Snapshot of the retained job traces in completion order. Empty when
    /// tracing is disabled or routed to a custom sink.
    pub fn traces(&self) -> Vec<JobTrace> {
        self.shared.ring.as_ref().map(|ring| ring.snapshot()).unwrap_or_default()
    }

    /// Traces lost to ring wraparound or slot contention.
    pub fn trace_drops(&self) -> u64 {
        self.shared.ring.as_ref().map(|ring| ring.dropped()).unwrap_or(0)
    }

    /// Exports the retained job traces as Chrome `trace_event` JSON — load
    /// the string (saved as a `.json` file) in `about:tracing` or
    /// [Perfetto](https://ui.perfetto.dev) to see per-job span timelines:
    /// queue wait, the single compile, presolve, the backend's solve, and
    /// serve. Each job renders as its own thread lane (`tid = job_id`).
    pub fn export_traces(&self) -> String {
        render_chrome_trace(&self.traces())
    }

    /// The backend registry the service dispatches over.
    pub fn registry(&self) -> &SolverRegistry {
        &self.shared.registry
    }

    /// Live result-cache size (entries, summed over shards).
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Replays every unfinished job recorded in `journal` — submitted but
    /// neither completed nor cancelled, i.e. lost to a crash — through the
    /// normal pipeline, returning one [`JobHandle`] per replayed job in the
    /// original submission order.
    ///
    /// Replayed jobs keep their journaled ids (the service's id counter is
    /// bumped past them), reuse their journaled seed, options, and backend
    /// choice, and run the exact QUBO the journal captured, so with the
    /// crash's fault condition gone the replay is bit-identical to what the
    /// lost run would have produced. They do not re-append `Submitted`
    /// records; their eventual `Completed`/`Cancelled` records converge the
    /// journal, making recovery idempotent — a second recovery from the
    /// same journal after the replays finish finds nothing to do.
    ///
    /// The replayed problems are [`crate::journal::JournaledProblem`]s
    /// rebuilt from the captured QUBO: solver-visible behavior (encoding,
    /// energies, bits) is exact, while `decode` reports a generic
    /// journal-replay summary. Callers who need the original domain decode
    /// can resupply their problem objects via [`Self::recover_with`].
    pub fn recover(&self, journal: &dyn Journal) -> Vec<JobHandle> {
        self.recover_with(journal, |_| None)
    }

    /// [`Self::recover`], with a resolver that can map a journaled record
    /// back to the caller's own [`DmProblem`] (returning `None` falls back
    /// to the journal's captured QUBO). Use this to restore full decode
    /// fidelity when the problem objects are reconstructible after restart.
    pub fn recover_with(
        &self,
        journal: &dyn Journal,
        mut resolver: impl FnMut(&SubmittedRecord) -> Option<SharedProblem>,
    ) -> Vec<JobHandle> {
        let open = unfinished(&journal.events());
        if open.is_empty() {
            return Vec::new();
        }
        // Recovered jobs run under a private session sized to the backlog;
        // the handles hold the session core alive, so the caller can wait
        // them (or ignore them) like any other submission.
        let session_id = self.shared.next_session_id.fetch_add(1, Ordering::Relaxed);
        let core = Arc::new(SessionCore::new(session_id, open.len(), open.len()));
        let mut handles = Vec::with_capacity(open.len());
        for record in open {
            // Keep the id space monotone past every journaled id so new
            // submissions never collide with a replayed one.
            self.shared.next_job_id.fetch_max(record.job_id.saturating_add(1), Ordering::Relaxed);
            let problem = resolver(&record).unwrap_or_else(|| record.fallback_problem());
            let spec = record.to_spec(problem);
            assert!(core.try_reserve(), "recovery session is sized to the backlog");
            self.shared.metrics.inc(Counter::JobsRecovered);
            handles.push(crate::submit::enqueue_reserved(
                &self.shared,
                &core,
                record.job_id,
                spec,
                None,
                record.tenant.as_deref(),
                true,
            ));
        }
        handles
    }

    /// Exports the live result cache as a [`SolutionSnapshot`] (and counts
    /// the exported entries in `snapshot_saved_entries_total`). Persist it
    /// with [`SolutionSnapshot::write_to`]; a restarted service that loads
    /// it serves previously solved work from the cache without recompiling.
    pub fn save_snapshot(&self) -> SolutionSnapshot {
        let entries = self.shared.cache.entries();
        self.shared.metrics.add(Counter::SnapshotSaved, entries.len() as u64);
        SolutionSnapshot { entries }
    }

    /// Seeds the result cache from a snapshot taken by
    /// [`Self::save_snapshot`] (typically before any traffic, right after
    /// restart). Resubmissions of snapshotted work are served as ordinary
    /// cache hits — bit-identical, with no compile and no solve.
    pub fn load_snapshot(&self, snapshot: &SolutionSnapshot) {
        for (key, value) in &snapshot.entries {
            self.shared.cache.insert(key.clone(), value.clone());
        }
        self.shared.metrics.add(Counter::SnapshotLoaded, snapshot.entries.len() as u64);
    }

    /// Tears the service down the way a crash would: every queued or parked
    /// job is discarded *without resolving its completion slot* — exactly
    /// what happens to in-memory state when a process dies — while workers
    /// finish only the job they already claimed. Outstanding handles never
    /// resolve (as after a real crash); a journal configured on the service
    /// still holds the lost jobs' `Submitted` records, which is what
    /// [`Self::recover`] replays on the replacement service. Test-support
    /// API for crash-recovery drills; production teardown is `drop`, which
    /// drains gracefully.
    pub fn simulate_crash(self) {
        {
            let mut queue = self.shared.queue.jobs.lock_unpoisoned();
            self.shared.begin_shutdown(&queue);
            while queue.pop().is_some() {}
        }
        self.shared.delayed.lock_unpoisoned().clear();
        self.shared.queue.ready.notify_all();
        // `drop(self)` joins the workers.
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        self.shared.begin_shutdown(&self.shared.queue.jobs.lock_unpoisoned());
        self.shared.queue.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = next_job(shared) {
        // The worker's core counts as busy while it runs a job, so a
        // backend's fan-out takes only the cores no other worker holds.
        let _held = cores::occupy();
        run_job(shared, job);
    }
}

/// Claims the next runnable job. A parked retry whose backoff has elapsed
/// on the service clock takes precedence (it was dequeued long ago and owes
/// the caller a resolution), then the run queue — inside a cluster, the one
/// queue every shard's workers pop, so no worker sleeps while any shard's
/// job waits. Blocks under the condvar when both are empty; while
/// not-yet-due parked jobs exist the wait is sliced so their due times are
/// re-checked without busy-spinning. Returns `None` at shutdown — after
/// handing out any still-parked jobs, backoff forfeited, so graceful
/// teardown resolves them instead of stranding their handles.
fn next_job(shared: &Shared) -> Option<QueuedJob> {
    loop {
        let now_micros = shared.clock.now_micros();
        {
            let mut delayed = shared.delayed.lock_unpoisoned();
            if let Some(pos) = delayed.iter().position(|d| d.not_before_micros <= now_micros) {
                return Some(delayed.remove(pos).job);
            }
        }
        let mut queue = shared.queue.jobs.lock_unpoisoned();
        if let Some(job) = queue.pop() {
            job.owner.on_dequeue(&job);
            return Some(job);
        }
        if shared.shutting_down.load(Ordering::SeqCst) {
            drop(queue);
            return shared.delayed.lock_unpoisoned().pop().map(|d| d.job);
        }
        let woken = if shared.delayed.lock_unpoisoned().is_empty() {
            shared.queue.ready.wait_unpoisoned(queue)
        } else {
            // A parked job may come due before anything is enqueued;
            // wake on a bounded slice and re-check its clock.
            shared
                .queue
                .ready
                .wait_timeout(queue, Duration::from_millis(1))
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0
        };
        drop(woken);
    }
}

/// Runs one claimed job on `host`'s worker to resolution — or parks it
/// into the host's [`Shared::delayed`] when a retryable failure earns a
/// non-zero backoff. Everything else is the job's owner's: the shard that
/// admitted the job serves it here, whichever shard's worker this is.
fn run_job(host: &Shared, mut job: QueuedJob) {
    let owner = Arc::clone(&job.owner);
    let shared = &*owner;
    let resumed = job.retry.take();
    if resumed.is_none() {
        // The job left the queue: free its session's backpressure slot so
        // blocked submitters make progress while this worker solves. (A
        // resumed park already freed it at its first pickup.)
        job.session.on_dequeue();
        if !std::ptr::eq(shared, host) {
            host.metrics.inc(Counter::JobsRunForPeers);
        }
    }
    // The trace is assembled worker-locally — the shared sink is only
    // touched once, at the end — so tracing costs the solve path
    // nothing but a few clock reads. A resumed park restores the trace,
    // attempt counter, and cross-attempt context it was parked with.
    let (mut trace, mut ctx, mut attempt) = match resumed {
        Some(state) => {
            let RetryState { attempt, ctx, mut trace, backoff_start_ns } = *state;
            if let Some(t) = trace.as_mut() {
                t.spans.push(Span::new(Stage::Retry, backoff_start_ns, shared.now_ns()));
            }
            (trace, ctx, attempt)
        }
        None => {
            let mut trace =
                shared.sink.as_ref().map(|_| job.queued_trace(shared, TraceOutcome::Failed));
            if job.recovered {
                if let Some(t) = trace.as_mut() {
                    t.spans.push(Span::new(Stage::Recover, job.queued_ns, job.queued_ns));
                }
            }
            let ctx = AttemptCtx {
                deadline_at_ns: job.spec.deadline.map(|d| {
                    job.queued_ns.saturating_add(d.as_nanos().min(u128::from(u64::MAX)) as u64)
                }),
                ..AttemptCtx::default()
            };
            (trace, ctx, 0u32)
        }
    };
    // The retry loop around job processing. A panicking job
    // (user-supplied to_qubo/decode/repair, a solver bug, or an injected
    // fault) must neither kill the worker nor leave a handle waiting on
    // a slot that never resolves; retryable failures (panics, injected
    // errors) are retried up to the policy's budget with deterministic
    // backoff, each new attempt excluding the backends that failed the
    // previous ones.
    let outcome = loop {
        // Fail-fast: a job whose deadline expired while queued (or
        // while backing off between attempts) never starts an attempt.
        if let Some(deadline_at_ns) = ctx.deadline_at_ns {
            if shared.now_ns() >= deadline_at_ns {
                break Err(JobError::DeadlineExceeded { partial: None });
            }
        }
        ctx.dispatched = None;
        ctx.accounted = false;
        let attempt_outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // A job queued without a route encodes here, inside the guard:
            // a panicking `to_qubo` fails the job, not the worker.
            let route = job.route.get_or_insert_with(|| RouteInfo::encode(&*job.spec.problem));
            process(shared, &job.spec, route, &mut trace, &mut ctx)
        }))
        .unwrap_or_else(|payload| Err(JobError::Panicked(panic_message(payload.as_ref()))));
        let err = match attempt_outcome {
            Ok(result) => break Ok(result),
            Err(err) => err,
        };
        let retryable = matches!(err, JobError::Panicked(_) | JobError::Injected(_));
        if retryable {
            // Breaker attribution for the panic path: `lead` accounts the
            // backend's success or failure itself and marks the context
            // accounted; an unwound attempt never got there, so the
            // backend it dispatched is charged here.
            if let Some(idx) = ctx.dispatched.filter(|_| !ctx.accounted) {
                if let Some(breakers) = &shared.breakers {
                    breakers.on_failure(idx, &shared.metrics);
                }
                // The cost model prices unreliability the same way: the
                // backend gets a failure against its success rate.
                shared.portfolio.record_failure(idx);
            }
            // The next attempt routes around the backend this one tried.
            ctx.excluded.extend(ctx.dispatched.take());
        }
        if retryable && attempt < shared.retry.max_retries {
            attempt += 1;
            shared.metrics.inc(Counter::JobsRetried);
            let backoff_start_ns = if trace.is_some() { shared.now_ns() } else { 0 };
            let backoff = shared.retry.backoff(job.spec.seed, attempt);
            if backoff.is_zero() {
                // Instant retry stays in-loop on this worker.
                if let Some(t) = trace.as_mut() {
                    t.spans.push(Span::new(Stage::Retry, backoff_start_ns, shared.now_ns()));
                }
                continue;
            }
            // A real backoff parks the job instead of sleeping through
            // it: the job rejoins the host's workers once the backoff
            // elapses on the service clock, and this worker is
            // immediately free for other queued work. The Retry span is
            // pushed at resume, covering the whole park.
            let not_before_micros = host
                .clock
                .now_micros()
                .saturating_add(backoff.as_micros().min(u128::from(u64::MAX)) as u64);
            job.retry = Some(Box::new(RetryState { attempt, ctx, trace, backoff_start_ns }));
            host.delayed.lock_unpoisoned().push(DelayedJob { not_before_micros, job });
            // Move indefinitely-blocked waiters into the sliced wait
            // that re-checks parked due times.
            host.queue.ready.notify_all();
            return;
        }
        if retryable && shared.retry.max_retries > 0 {
            shared.metrics.inc(Counter::RetriesExhausted);
        }
        break Err(err);
    }
    .map(|mut result| {
        result.job_id = job.id;
        result
    });
    // Terminal failure accounting. Routing errors were counted where
    // they were decided (they are deterministic and get published to
    // followers); retryable failures and deadline expiries are only
    // terminal here, after the retry loop gave up.
    match &outcome {
        Err(JobError::Panicked(_)) | Err(JobError::Injected(_)) => {
            shared.metrics.inc(Counter::JobsFailed)
        }
        Err(JobError::DeadlineExceeded { .. }) => {
            shared.metrics.inc(Counter::DeadlinesExceeded);
            shared.metrics.inc(Counter::JobsFailed);
        }
        _ => {}
    }
    if outcome.is_ok() {
        // What the caller waited end to end — enqueue to delivery —
        // regardless of whether the job solved, hit the cache, or
        // coalesced. The solve histogram only sees backend time, so
        // without this series cache hits would be invisible to p99.
        let waited = shared.now_ns().saturating_sub(job.queued_ns);
        shared.metrics.on_served(waited as f64 / 1e9);
    }
    // Telemetry is recorded *before* the slot resolves: `wait()` returns
    // the instant the slot does, and a caller snapshotting metrics or
    // traces right after must see this job. The one consequence: a
    // cancel that races a finished run is traced by what the runtime
    // did (solved), while the slot still delivers `Cancelled`.
    if let (Some(sink), Some(mut trace)) = (shared.sink.as_ref(), trace) {
        trace.outcome = match &outcome {
            Ok(result) if result.from_cache => TraceOutcome::CacheHit,
            Ok(result) if result.coalesced => TraceOutcome::Coalesced,
            Ok(_) => TraceOutcome::Solved,
            Err(JobError::Cancelled) => TraceOutcome::Cancelled,
            Err(_) => TraceOutcome::Failed,
        };
        if let Ok(result) = &outcome {
            trace.backend = Some(result.backend.clone());
        }
        sink.record(trace);
    }
    // Resolve the handle's slot (so `wait()` never lags the stream; the
    // slot also reconciles the completed/cancelled ledger if the cancel
    // raced the run), then feed the session's completion stream the
    // exact outcome the slot delivered.
    let delivered = job.slot.resolve(outcome, &shared.metrics);
    // Journal the terminal record *after* the slot resolved, matching
    // what the caller observed: a delivered result is `Completed`, a
    // delivered cancellation is `Cancelled`, and a terminal failure
    // writes nothing — the job stays unfinished in the journal, which
    // is exactly what makes [`SolverService::recover`] replay it.
    if let Some(journal) = &shared.journal {
        match &delivered {
            Ok(_) => {
                let fingerprint = job.route.as_ref().map_or(0, |route| route.canonical_fp);
                journal.append(JournalEvent::Completed { job_id: job.id, fingerprint });
            }
            Err(JobError::Cancelled) => {
                journal.append(JournalEvent::Cancelled { job_id: job.id });
            }
            Err(_) => {}
        }
    }
    job.session.on_complete(Completion { id: job.id, outcome: delivered });
}

/// Per-attempt state threaded from the worker's retry loop through
/// [`process`] into [`lead`], connecting failure attribution (which
/// backends does a panic charge?) and routing memory (which backends must
/// the next attempt avoid?) across the `catch_unwind` boundary.
#[derive(Default)]
struct AttemptCtx {
    /// Backends that failed earlier attempts of this job; routing for the
    /// current attempt excludes them.
    excluded: Vec<usize>,
    /// The backend the current attempt dispatched, recorded right after
    /// routing so a panic mid-solve can still be attributed.
    dispatched: Option<usize>,
    /// Set by [`lead`] once it has fed the backend's outcome to the
    /// circuit breakers, so the worker's panic path does not double-charge.
    accounted: bool,
    /// Absolute deadline (nanoseconds since the service epoch), from
    /// [`JobSpec::deadline`] and the job's enqueue time.
    deadline_at_ns: Option<u64>,
    /// The shared compilation, kept across attempts: a retry after a
    /// mid-solve failure reuses it instead of recompiling, which is where
    /// most of the per-retry overhead used to go.
    compiled: Option<Arc<CompiledQubo>>,
}

/// Extracts a human-readable message from a panic payload: the common
/// `&str` / `String` payloads verbatim, a placeholder otherwise. Shared by
/// the worker's `catch_unwind` handler and anything else that reports
/// panics as [`JobError::Panicked`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Consults the service's fault injector at `site` and applies whatever it
/// forces: `Delay` sleeps and proceeds, `Error` returns
/// [`JobError::Injected`], `Panic` unwinds (caught by the worker's
/// `catch_unwind` exactly like a real bug). A service without an injector
/// pays only the `None` check.
fn apply_fault(shared: &Shared, site: FaultSite, backend: Option<&str>) -> Result<(), JobError> {
    let Some(injector) = &shared.injector else {
        return Ok(());
    };
    match injector.inject(site, backend) {
        None => Ok(()),
        Some(FaultAction::Delay(d)) => {
            wait_on_clock(shared, d);
            Ok(())
        }
        Some(FaultAction::Error(msg)) => Err(JobError::Injected(msg)),
        Some(FaultAction::Panic(msg)) => panic!("{msg}"),
    }
}

/// Waits until `duration` has elapsed on the service clock. Against the
/// default monotonic clock this is an ordinary bounded wait; against an
/// injected [`crate::cluster::ManualClock`] it returns as soon as the test
/// advances the clock past the due time, polling in millisecond slices of
/// real time — so a test can inject a ten-second delay fault and discharge
/// it instantly. Shutdown cuts the wait short.
fn wait_on_clock(shared: &Shared, duration: Duration) {
    let due = shared
        .clock
        .now_micros()
        .saturating_add(duration.as_micros().min(u128::from(u64::MAX)) as u64);
    loop {
        let now = shared.clock.now_micros();
        if now >= due || shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let remaining = Duration::from_micros(due - now);
        std::thread::sleep(remaining.min(Duration::from_millis(1)));
    }
}

/// The cooperative deadline checkpoint: a [`StageProbe`] tee'd into the
/// solve's pipeline options when the job has a deadline. Solver loops
/// poll [`StageProbe::should_stop`] at restart/sweep boundaries; once the
/// clock passes the absolute deadline the probe answers `true` (and
/// remembers that it fired), the solvers return their best-so-far, and
/// [`lead`] converts the truncated run into
/// [`JobError::DeadlineExceeded`] with a [`PartialSolution`]. Jobs without
/// a deadline never construct one, so the unprobed paths stay bit-identical.
struct DeadlineProbe {
    epoch: Instant,
    deadline_at_ns: u64,
    fired: AtomicBool,
}

impl DeadlineProbe {
    fn new(epoch: Instant, deadline_at_ns: u64) -> Self {
        Self { epoch, deadline_at_ns, fired: AtomicBool::new(false) }
    }

    fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }
}

impl StageProbe for DeadlineProbe {
    fn should_stop(&self) -> bool {
        if self.epoch.elapsed().as_nanos() as u64 >= self.deadline_at_ns {
            self.fired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// Runs one attempt of a job from its route. A cache hit on the canonical
/// key is served straight away; otherwise the job takes the canonical
/// single-flight, where permuted-but-identical encodings coalesce too. A
/// hit or a follower translates the canonical assignment through *this*
/// job's own permutation and scores bits with its own (uncompiled) model
/// — [`qdm_qubo::model::QuboModel::energy`] is bit-identical to the
/// compiled evaluation — so serving never costs a compilation. Only a
/// flight leader compiles, inside [`lead`].
fn process(
    shared: &Shared,
    spec: &JobSpec,
    route: &RouteInfo,
    trace: &mut Option<JobTrace>,
    ctx: &mut AttemptCtx,
) -> JobOutcome {
    let n_vars = route.qubo.n_vars();
    // The cache/flight "requested backend" discriminator: the pinned name,
    // or `None` for auto-routing.
    let requested = match &spec.backend {
        BackendChoice::Auto => None,
        BackendChoice::Named(name) => Some(name.as_str()),
    };
    if let Some(t) = trace.as_mut() {
        t.fingerprint = route.canonical_fp;
    }
    let key =
        CacheKey::new(spec.problem.name(), route.canonical_fp, &spec.options, spec.seed, requested);
    let cached = || shared.cache.get(&key).filter(|cached| cached.fits(n_vars));
    if let Some(cached) = cached() {
        return Ok(serve_hit(shared, spec, route, cached, trace));
    }
    loop {
        match shared.inflight.join_or_lead(key.clone()) {
            FlightRole::Leader(lease) => {
                // A leader inserts into the cache before it deregisters its
                // flight, so a flight that closed since the probe above
                // left its answer here.
                if let Some(cached) = cached() {
                    let result = serve_hit(shared, spec, route, cached.clone(), trace);
                    lease.publish(Ok(cached));
                    return Ok(result);
                }
                return lead(shared, spec, route, key, lease, trace, ctx);
            }
            FlightRole::Follower(flight) => {
                shared.metrics.inc(Counter::JobsCoalesced);
                let park_start_ns = if trace.is_some() { shared.now_ns() } else { 0 };
                match flight.wait() {
                    FlightResolution::Served(cached) if cached.fits(n_vars) => {
                        // Served from the leader's published result: neither
                        // a cache hit nor a miss, the cache was never asked.
                        shared.metrics.inc(Counter::JobsCompleted);
                        let result = serve(spec, route, cached, true);
                        push_serve_span(shared, trace, park_start_ns, &result);
                        return Ok(result);
                    }
                    FlightResolution::Failed(err) => {
                        // The leader failed routing deterministically; an
                        // identical spec fails identically.
                        shared.metrics.inc(Counter::JobsFailed);
                        return Err(err);
                    }
                    // The leader panicked without publishing, or published
                    // a colliding key's result of another size: retry from
                    // the top — this job may become the new leader. The
                    // park suppressed nothing, so net it back out.
                    FlightResolution::Served(_) | FlightResolution::Abandoned => {
                        shared.metrics.dec(Counter::JobsCoalesced);
                        continue;
                    }
                }
            }
        }
    }
}

/// Serves a cache hit for `route` and records it.
fn serve_hit(
    shared: &Shared,
    spec: &JobSpec,
    route: &RouteInfo,
    cached: CachedResult,
    trace: &mut Option<JobTrace>,
) -> JobResult {
    shared.metrics.on_cache_hit();
    let serve_start_ns = if trace.is_some() { shared.now_ns() } else { 0 };
    let result = serve(spec, route, cached, false);
    push_serve_span(shared, trace, serve_start_ns, &result);
    result
}

/// Closes a traced job's `Serve` span, attributed to the serving backend.
fn push_serve_span(
    shared: &Shared,
    trace: &mut Option<JobTrace>,
    start_ns: u64,
    result: &JobResult,
) {
    if let Some(t) = trace.as_mut() {
        let span = Span::new(Stage::Serve, start_ns, shared.now_ns());
        t.spans.push(span.with_backend(result.backend.clone()));
    }
}

/// Runs a job that leads its single-flight: compile once, route, then
/// solve on this worker — and publish whatever happened to any parked
/// followers.
fn lead(
    shared: &Shared,
    spec: &JobSpec,
    route: &RouteInfo,
    key: CacheKey,
    lease: crate::cache::FlightLease<'_>,
    trace: &mut Option<JobTrace>,
    ctx: &mut AttemptCtx,
) -> JobOutcome {
    let tracing = trace.is_some();
    let qubo = &*route.qubo;
    let n_vars = qubo.n_vars();
    // Injected compile/presolve/serve faults return through `?`, dropping
    // the lease unpublished: followers see `Abandoned` and retry from the
    // top rather than being served an occurrence-dependent error as if it
    // were deterministic.
    apply_fault(shared, FaultSite::Compile, None)?;
    // THE compile of this job: presolve and the dispatched backend share
    // this one `Arc<CompiledQubo>`. No other stage on the service path
    // compiles. A retry after a mid-solve failure reuses the attempt
    // context's compilation; recompiling the bit-identical artifact on
    // every attempt was the bulk of the per-retry overhead.
    let compile_start_ns = if tracing { shared.now_ns() } else { 0 };
    let compiled = Arc::clone(ctx.compiled.get_or_insert_with(|| Arc::new(qubo.compile())));
    if let Some(t) = trace.as_mut() {
        t.spans.push(Span::new(Stage::Compile, compile_start_ns, shared.now_ns()));
    }

    // Degraded routing: the ranking skips backends that failed earlier
    // attempts of this job and backends whose circuit breaker is open, and
    // puts a half-open breaker's probe first. Pinned jobs keep their
    // backend — a pin is an instruction, not a preference. Ranking is
    // priced on the compiled model's *measured* coupling degree: this is
    // the one decision point that runs after compilation, so it gets the
    // real shape instead of the default degree assumption.
    let shape = CostShape::with_degree(n_vars, compiled.avg_degree());
    let routed = match &spec.backend {
        BackendChoice::Named(name) => match shared.registry.find(name) {
            None => Err(JobError::UnknownBackend(name.clone())),
            Some(idx) => {
                let max_vars = shared.registry.get(idx).spec.max_vars;
                if max_vars < n_vars {
                    Err(JobError::BackendTooSmall { backend: name.clone(), max_vars, n_vars })
                } else {
                    Ok(idx)
                }
            }
        },
        BackendChoice::Auto => {
            let breakers = shared.breakers.as_ref().map(|b| (b, &shared.metrics));
            let ranked = shared.portfolio.rank(&shared.registry, shape, &ctx.excluded, breakers);
            ranked.first().copied().ok_or(JobError::NoEligibleBackend { n_vars })
        }
    };
    let idx = match routed {
        Ok(idx) => idx,
        Err(err) => {
            // Routing errors are deterministic functions of the spec, so
            // publishing the error serves parked duplicates the exact
            // outcome they would have computed.
            shared.metrics.inc(Counter::JobsFailed);
            lease.publish(Err(err.clone()));
            return Err(err);
        }
    };
    // Record the dispatch *before* solving: a panic inside the solve
    // unwinds straight past this function, and the worker loop charges
    // exactly this index to the circuit breakers.
    ctx.dispatched = Some(idx);
    // Quote the backend *now*, before it runs: the trace records the
    // prediction the router actually acted on, not one recomputed after
    // this very job's observation moved the calibration.
    let analytic = analytic_seconds(&shared.registry.get(idx).spec, shape);
    let predicted = shared.portfolio.cost_model().predict_seconds(idx, analytic);

    let naive_lower_bound = compiled.naive_lower_bound();
    apply_fault(shared, FaultSite::Presolve, None)?;
    // Prepare the seed-independent pipeline front half — presolve and
    // component extraction/compilation. Traced jobs run it under a
    // [`StageProfile`] so the presolve span carries fixpoint round counts;
    // probing never perturbs the result.
    let prepared = if tracing {
        let (opts, profile) = profiled_options(&spec.options);
        let presolve_start_ns = shared.now_ns();
        let prepared = prepare_pipeline(qubo, &compiled, &opts);
        if let Some(t) = trace.as_mut() {
            let span = Span::new(Stage::Presolve, presolve_start_ns, shared.now_ns());
            t.spans.push(span.with_stats(profile.snapshot()));
        }
        prepared
    } else {
        prepare_pipeline(qubo, &compiled, &spec.options)
    };
    // The cooperative deadline checkpoint; constructed only when the job
    // has a deadline, so deadline-free jobs keep the exact pre-existing
    // probe wiring.
    let deadline_probe =
        ctx.deadline_at_ns.map(|at| Arc::new(DeadlineProbe::new(shared.epoch, at)));
    let solved = solve(shared, spec, &prepared, idx, tracing, deadline_probe.as_ref());

    // A deadline that fired during the solve (or elapsed around it) turns
    // the truncated best-so-far into a typed failure. The lease drops
    // unpublished and nothing reaches the cache or the portfolio
    // telemetry: a truncated result must never be served as the real
    // answer, and its artificially short latency must not teach the router.
    if let Some(deadline_at_ns) = ctx.deadline_at_ns {
        if deadline_probe.as_ref().is_some_and(|p| p.fired()) || shared.now_ns() >= deadline_at_ns {
            let partial = solved.ok().map(|solved| PartialSolution {
                bits: solved.report.bits,
                energy: solved.report.energy,
            });
            return Err(JobError::DeadlineExceeded { partial });
        }
    }
    ctx.accounted = true;
    let Solved { report, seconds: elapsed, span } = match solved {
        Ok(solved) => solved,
        Err(err) => {
            // An injected backend failure is attributed here, where the
            // backend is known; the panic path attributes in the worker
            // loop instead (see `AttemptCtx::accounted`). The cost model
            // learns the failure too, so an unreliable backend's *expected*
            // seconds rise even while its latency EWMA has no new sample.
            // The lease drops unpublished: injected failures are
            // occurrence-dependent, so a parked follower retrying from the
            // top may well succeed where this attempt did not.
            if let Some(breakers) = &shared.breakers {
                breakers.on_failure(idx, &shared.metrics);
            }
            shared.portfolio.record_failure(idx);
            return Err(err);
        }
    };
    if let Some(breakers) = &shared.breakers {
        breakers.on_success(idx, &shared.metrics);
    }
    shared.portfolio.record(
        &shared.registry,
        idx,
        shape,
        elapsed,
        energy_quality(report.energy, naive_lower_bound),
        report.decoded.feasible,
    );
    if let (Some(t), Some(span)) = (trace.as_mut(), span) {
        t.spans.push(span.predicted(predicted));
    }
    let backend_name = shared.registry.get(idx).spec.name.clone();
    apply_fault(shared, FaultSite::Serve, Some(&backend_name))?;
    shared.metrics.on_solved(&backend_name, elapsed);

    let mut canonical_bits = vec![false; report.bits.len()];
    for (i, &bit) in report.bits.iter().enumerate() {
        canonical_bits[route.perm[i]] = bit;
    }
    let cached =
        CachedResult { report: report.clone(), canonical_bits, backend: backend_name.clone() };
    // Insert into the cache *before* publishing/deregistering the flight:
    // a duplicate arriving after the flight closes must find the entry.
    shared.cache.insert(key, cached.clone());
    lease.publish(Ok(cached));
    Ok(JobResult {
        job_id: 0, // stamped with the queue id by the worker loop
        report,
        backend: backend_name,
        from_cache: false,
        coalesced: false,
    })
}

/// Clones the job's options with a fresh [`StageProfile`] tee'd in front of
/// any user-supplied probe, so traced runs collect per-stage counters
/// without the user's hooks seeing anything different. Probes observe only
/// — the probed solver paths are bit-identical to the unprobed ones — so
/// injection never changes a result.
fn profiled_options(options: &PipelineOptions) -> (PipelineOptions, Arc<StageProfile>) {
    let profile = Arc::new(StageProfile::new());
    let mut opts = options.clone();
    opts.probe = Some(match &options.probe {
        Some(user) => {
            Arc::new(TeeProbe(Arc::clone(user), Arc::clone(&profile) as Arc<dyn StageProbe>))
                as Arc<dyn StageProbe>
        }
        None => Arc::clone(&profile) as Arc<dyn StageProbe>,
    });
    (opts, profile)
}

/// One backend's solve of a job: the pipeline report, its wall time, and —
/// when the job is traced — its solve span, attributed to the backend and
/// carrying the solver-internal counters collected during it.
struct Solved {
    report: PipelineReport,
    seconds: f64,
    span: Option<Span>,
}

/// Runs one backend over the job's pipeline preparation under an RNG
/// seeded from the job seed, so the result does not depend on scheduling —
/// traced or not. The [`FaultSite::Solve`] seam fires here with the
/// backend's name; a `deadline` probe, when present, is tee'd behind any
/// tracing/user probes so solvers poll it at restart/sweep boundaries.
fn solve(
    shared: &Shared,
    spec: &JobSpec,
    prepared: &PreparedPipeline<'_>,
    backend_idx: usize,
    tracing: bool,
    deadline: Option<&Arc<DeadlineProbe>>,
) -> Result<Solved, JobError> {
    let backend = shared.registry.get(backend_idx);
    apply_fault(shared, FaultSite::Solve, Some(&backend.spec.name))?;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let profiled = tracing.then(|| profiled_options(&spec.options));
    let profile = profiled.as_ref().map(|(_, profile)| Arc::clone(profile));
    let mut owned = profiled.map(|(opts, _)| opts);
    if let Some(probe) = deadline {
        let mut opts = owned.take().unwrap_or_else(|| spec.options.clone());
        let deadline_probe = Arc::clone(probe) as Arc<dyn StageProbe>;
        opts.probe = Some(match opts.probe.take() {
            Some(existing) => Arc::new(TeeProbe(existing, deadline_probe)) as Arc<dyn StageProbe>,
            None => deadline_probe,
        });
        owned = Some(opts);
    }
    let options = owned.as_ref().unwrap_or(&spec.options);
    let start_ns = if tracing { shared.now_ns() } else { 0 };
    let start = Instant::now();
    let report = run_prepared(&*spec.problem, prepared, backend.solver(), options, &mut rng);
    let seconds = start.elapsed().as_secs_f64();
    let span = profile.map(|profile| {
        Span::new(Stage::Solve, start_ns, shared.now_ns())
            .with_backend(backend.spec.name.clone())
            .with_stats(profile.snapshot())
    });
    Ok(Solved { report, seconds, span })
}

/// Renders job traces as Chrome `trace_event` JSON (the "JSON Array
/// Format" with a `traceEvents` wrapper): one complete (`"ph":"X"`) event
/// per span, timestamps in fractional microseconds since the service
/// epoch. Every job gets its own thread lane (`tid = job_id`); a job's
/// spans never overlap. Hand-rolled because the workspace's
/// serde shim has no serializer; the JSON-validity test in
/// `tests/observability.rs` keeps it honest.
fn render_chrome_trace(traces: &[JobTrace]) -> String {
    fn escape(s: &str, out: &mut String) {
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
    }
    let mut out = String::with_capacity(1024 + traces.len() * 512);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for trace in traces {
        for span in &trace.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"");
            escape(span.stage.name(), &mut out);
            out.push_str("\",\"cat\":\"qdm\",\"ph\":\"X\",\"ts\":");
            out.push_str(&format!("{:.3}", span.start_ns as f64 / 1e3));
            out.push_str(",\"dur\":");
            out.push_str(&format!("{:.3}", span.duration_ns() as f64 / 1e3));
            out.push_str(&format!(",\"pid\":1,\"tid\":{},\"args\":{{", trace.job_id));
            out.push_str(&format!("\"job\":{},\"session\":{}", trace.job_id, trace.session));
            if let Some(shard) = trace.shard {
                out.push_str(&format!(",\"shard\":{shard}"));
            }
            out.push_str(",\"problem\":\"");
            escape(&trace.problem, &mut out);
            out.push_str(&format!(
                "\",\"lane\":\"{:?}\",\"seed\":{},\"fingerprint\":\"{:016x}\",\"outcome\":\"{}\"",
                trace.lane,
                trace.seed,
                trace.fingerprint,
                trace.outcome.name()
            ));
            if let Some(backend) = &span.backend {
                out.push_str(",\"backend\":\"");
                escape(backend, &mut out);
                out.push('"');
            }
            if !span.stats.is_empty() {
                let s = &span.stats;
                out.push_str(&format!(
                    ",\"presolve_rounds\":{},\"presolve_fixed\":{},\"restarts\":{},\
                     \"sweeps\":{},\"proposals\":{},\"accepted\":{}",
                    s.presolve_rounds,
                    s.presolve_fixed,
                    s.restarts,
                    s.sweeps,
                    s.proposals,
                    s.accepted
                ));
            }
            out.push_str("}}");
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Serves a stored result to the job behind `route`: a cache hit, or a
/// follower of the flight that produced it (`coalesced`). The common case
/// — the requester's encoding is labeled exactly like the original
/// submitter's — returns the stored report bit-identically. A
/// permuted-but-identical encoding instead gets the canonical assignment
/// translated into its own variable order, with the label-dependent fields
/// (bits, energy, decode) re-derived from its own model; energy and
/// feasibility are preserved by construction.
fn serve(spec: &JobSpec, route: &RouteInfo, cached: CachedResult, coalesced: bool) -> JobResult {
    let bits: Vec<bool> =
        route.perm.iter().map(|&canonical| cached.canonical_bits[canonical]).collect();
    let report = if bits == cached.report.bits {
        cached.report
    } else {
        let energy = route.qubo.energy(&bits);
        let decoded = spec.problem.decode(&bits);
        PipelineReport { bits, energy, decoded, ..cached.report }
    };
    JobResult {
        job_id: 0, // stamped with the queue id by the worker loop
        report,
        backend: cached.backend,
        from_cache: !coalesced,
        coalesced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdm_core::problem::Decoded;
    use qdm_qubo::model::QuboModel;
    use qdm_qubo::penalty;

    /// Pick-one-of-n with per-option costs; n scales to test routing.
    struct PickOne {
        costs: Vec<f64>,
    }

    impl DmProblem for PickOne {
        fn name(&self) -> String {
            format!("pick-one-of-{}", self.costs.len())
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
        Arc::new(PickOne { costs: (0..n).map(|i| ((i * 7) % 5) as f64 + 1.0).collect() })
    }

    #[test]
    fn single_job_solves_and_decodes() {
        let service = SolverService::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            ..Default::default()
        });
        let result = service.run(JobSpec::new(pick(4), 1)).expect("solvable");
        assert!(result.report.decoded.feasible);
        assert!(!result.from_cache);
        assert_eq!(service.report().jobs_completed, 1);
    }

    #[test]
    fn repeat_submission_hits_cache_with_identical_result() {
        let service = SolverService::new(ServiceConfig {
            workers: 3,
            cache_capacity: 16,
            ..Default::default()
        });
        let first = service.run(JobSpec::new(pick(5), 9)).expect("ok");
        let second = service.run(JobSpec::new(pick(5), 9)).expect("ok");
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(first.report.bits, second.report.bits);
        assert_eq!(first.report.energy, second.report.energy);
        assert_eq!(first.backend, second.backend);
        let report = service.report();
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.cache_misses, 1);
        assert!(report.cache_hit_rate() > 0.0);
    }

    #[test]
    fn colliding_cache_entry_of_another_size_is_a_miss() {
        // A 3-variable result stored under the 4-variable model's key: what
        // a 64-bit fingerprint collision across model sizes would leave.
        // Served, its short assignment would panic the translation.
        let donor = SolverService::new(ServiceConfig { workers: 1, ..Default::default() });
        donor.run(JobSpec::new(pick(3), 3)).expect("solvable");
        let (_, wrong_size) = donor.save_snapshot().entries.remove(0);
        let spec = JobSpec::new(pick(4), 3);
        let fingerprint = spec.problem.to_qubo().canonical_fingerprint();
        let key = CacheKey::new(spec.problem.name(), fingerprint, &spec.options, 3, None);
        let service = SolverService::new(ServiceConfig { workers: 1, ..Default::default() });
        service.load_snapshot(&SolutionSnapshot { entries: vec![(key, wrong_size)] });

        let result = service.run(spec).expect("the job solves instead of panicking");
        assert!(!result.from_cache);
        assert_eq!(result.report.bits.len(), 4);
        assert!(result.report.decoded.feasible);
        assert_eq!(service.report().cache_hits, 0);
    }

    #[test]
    fn coalesced_result_of_another_size_is_not_served() {
        // A 3-variable result published to the flight a 4-variable job
        // parked on: what a same-key collision across model sizes would
        // hand a follower. Served, its short assignment would panic the
        // translation; the follower must solve instead.
        let donor = SolverService::new(ServiceConfig { workers: 1, ..Default::default() });
        donor.run(JobSpec::new(pick(3), 3)).expect("solvable");
        let (_, wrong_size) = donor.save_snapshot().entries.remove(0);
        let spec = JobSpec::new(pick(4), 3);
        let fingerprint = spec.problem.to_qubo().canonical_fingerprint();
        let key = CacheKey::new(spec.problem.name(), fingerprint, &spec.options, 3, None);
        let service = SolverService::new(ServiceConfig { workers: 1, ..Default::default() });
        let FlightRole::Leader(lease) = service.shared.inflight.join_or_lead(key) else {
            panic!("the flight table starts empty");
        };
        let session = service.session(crate::submit::SessionConfig::default());
        let handle = session.submit(spec);
        while service.report().jobs_coalesced < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        lease.publish(Ok(wrong_size));

        let result = handle.wait().expect("the job solves instead of panicking");
        assert!(!result.coalesced);
        assert_eq!(result.report.bits.len(), 4);
        assert!(result.report.decoded.feasible);
    }

    #[test]
    fn different_seeds_do_not_share_cache_entries() {
        let service = SolverService::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            ..Default::default()
        });
        let a = service.run(JobSpec::new(pick(4), 1)).expect("ok");
        let b = service.run(JobSpec::new(pick(4), 2)).expect("ok");
        assert!(!a.from_cache);
        assert!(!b.from_cache);
        assert_eq!(service.cache_len(), 2);
    }

    #[test]
    fn batch_outcomes_preserve_submission_order() {
        let service = SolverService::new(ServiceConfig {
            workers: 4,
            cache_capacity: 64,
            ..Default::default()
        });
        let batch: Vec<JobSpec> =
            (0..12).map(|i| JobSpec::new(pick(3 + (i % 4)), i as u64)).collect();
        let sizes: Vec<usize> = batch.iter().map(|j| j.problem.n_vars()).collect();
        let outcomes = service.run_batch(batch);
        assert_eq!(outcomes.len(), 12);
        for (outcome, want_n) in outcomes.iter().zip(sizes) {
            let result = outcome.as_ref().expect("solvable");
            assert_eq!(result.report.n_vars, want_n, "order preserved by problem size");
            assert!(result.report.decoded.feasible);
        }
    }

    #[test]
    fn pinned_backend_is_honored() {
        let service = SolverService::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            ..Default::default()
        });
        let result =
            service.run(JobSpec::new(pick(4), 3).on_backend("tabu")).expect("tabu handles 4");
        assert_eq!(result.backend, "tabu");
        assert_eq!(result.report.solver, "tabu");
    }

    #[test]
    fn pinned_backend_too_small_fails_cleanly() {
        let service = SolverService::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            ..Default::default()
        });
        // QAOA caps at 20 variables.
        let err = service.run(JobSpec::new(pick(24), 3).on_backend("qaoa")).unwrap_err();
        match err {
            JobError::BackendTooSmall { backend, max_vars, n_vars } => {
                assert_eq!(backend, "qaoa");
                assert!(max_vars < n_vars);
            }
            other => panic!("unexpected error {other:?}"),
        }
        let err = service.run(JobSpec::new(pick(4), 3).on_backend("warp-drive")).unwrap_err();
        assert_eq!(err, JobError::UnknownBackend("warp-drive".into()));
    }

    #[test]
    fn auto_routing_respects_capacity() {
        let service = SolverService::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            ..Default::default()
        });
        // 30 variables exceeds exact (26) and every gate-based route (<= 20).
        let result = service.run(JobSpec::new(pick(30), 5)).expect("heuristics take it");
        let idx = service.registry().find(&result.backend).expect("known backend");
        assert!(service.registry().get(idx).spec.max_vars >= 30);
    }

    /// Same QUBO as `PickOne` but a different problem type with its own
    /// decode — must not share `PickOne`'s cache entries.
    struct PickOneRelabeled {
        inner: PickOne,
    }

    impl DmProblem for PickOneRelabeled {
        fn name(&self) -> String {
            "pick-one-relabeled".into()
        }
        fn n_vars(&self) -> usize {
            self.inner.n_vars()
        }
        fn to_qubo(&self) -> QuboModel {
            self.inner.to_qubo()
        }
        fn decode(&self, bits: &[bool]) -> Decoded {
            let mut d = self.inner.decode(bits);
            d.summary = format!("relabeled: {}", d.summary);
            d
        }
    }

    #[test]
    fn identical_qubos_from_different_problem_types_do_not_share_cache() {
        let service = SolverService::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            ..Default::default()
        });
        let a = service.run(JobSpec::new(pick(4), 5)).expect("ok");
        let costs = (0..4).map(|i| ((i * 7) % 5) as f64 + 1.0).collect();
        let relabeled = Arc::new(PickOneRelabeled { inner: PickOne { costs } });
        let b = service.run(JobSpec::new(relabeled, 5)).expect("ok");
        assert!(!b.from_cache, "coefficient-identical QUBO of another type must re-solve");
        assert_eq!(b.report.problem, "pick-one-relabeled");
        assert!(b.report.decoded.summary.starts_with("relabeled:"));
        assert_ne!(a.report.decoded.summary, b.report.decoded.summary);
    }

    /// A problem whose encoding panics, for worker-survival tests.
    struct Explosive;

    impl DmProblem for Explosive {
        fn name(&self) -> String {
            "explosive".into()
        }
        fn n_vars(&self) -> usize {
            2
        }
        fn to_qubo(&self) -> QuboModel {
            panic!("boom: bad encoding");
        }
        fn decode(&self, _bits: &[bool]) -> Decoded {
            unreachable!()
        }
    }

    #[test]
    fn panicking_job_fails_cleanly_and_pool_survives() {
        let service = SolverService::new(ServiceConfig {
            workers: 1,
            cache_capacity: 16,
            ..Default::default()
        });
        // With a single worker, the pool only survives the panic if the
        // worker caught it.
        let err = service.run(JobSpec::new(Arc::new(Explosive), 1)).unwrap_err();
        match err {
            JobError::Panicked(msg) => assert!(msg.contains("boom"), "payload: {msg}"),
            other => panic!("unexpected error {other:?}"),
        }
        // The same worker must still answer normal jobs afterwards.
        let ok = service.run(JobSpec::new(pick(4), 2)).expect("pool survived the panic");
        assert!(ok.report.decoded.feasible);
        let report = service.report();
        assert_eq!(report.jobs_failed, 1);
        assert_eq!(report.jobs_completed, 1);
    }

    #[test]
    fn failed_routing_is_counted_in_the_ledger() {
        let service = SolverService::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            ..Default::default()
        });
        let _ = service.run(JobSpec::new(pick(4), 3).on_backend("warp-drive")).unwrap_err();
        let _ = service.run(JobSpec::new(pick(24), 3).on_backend("qaoa")).unwrap_err();
        let report = service.report();
        assert_eq!(report.jobs_submitted, 2);
        assert_eq!(report.jobs_failed, 2, "unknown + undersized backends both count");
        assert_eq!(report.jobs_completed, 0);
    }

    #[test]
    fn service_shuts_down_cleanly_with_queued_work_done() {
        let service = SolverService::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            ..Default::default()
        });
        let outcomes = service.run_batch((0..6).map(|i| JobSpec::new(pick(4), i)).collect());
        assert_eq!(outcomes.len(), 6);
        drop(service); // must not hang or panic
    }

    #[test]
    fn queue_depth_metrics_track_batch_traffic() {
        let service = SolverService::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            ..Default::default()
        });
        let _ = service.run_batch((0..4).map(|i| JobSpec::new(pick(4), i)).collect());
        let report = service.report();
        assert_eq!(report.queue_depth, 0, "all jobs drained");
        assert!(report.queue_depth_peak >= 1);
        assert_eq!(report.jobs_cancelled, 0);
    }
}
