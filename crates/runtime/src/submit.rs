//! Asynchronous job submission: [`Session`]s over the
//! [`crate::service::SolverService`] worker pool.
//!
//! A session is a client-side view of the service with its own **bounded**
//! admission queue — the broker layer the hybrid architectures of Zajac &
//! Störl (2024) and Liu & Jiang (2023) put between classical clients and
//! quantum resources. Submission has two backpressure modes:
//!
//! - [`Session::try_submit`] never blocks: a full queue returns
//!   [`SubmitError::QueueFull`] carrying the spec back to the caller;
//! - [`Session::submit`] blocks under a condvar until a worker drains
//!   enough of this session's queued jobs to make space.
//!
//! Each accepted job yields a [`crate::handle::JobHandle`] (poll / block /
//! cancel per job), [`Session::completions`] streams finished jobs in
//! finish order so decode work pipelines with solving, and
//! [`Session::drain`] / [`Session::shutdown`] give graceful teardown with
//! every in-flight handle resolved. The bound covers *queued* jobs of this
//! session only: once a worker picks a job up, its slot frees, and other
//! sessions on the same service are never throttled by this one.

use crate::handle::{Completion, CompletionSlot, JobHandle};
use crate::journal::{JournalEvent, SubmittedRecord};
use crate::metrics::Metrics;
use crate::service::{JobSpec, QueuedJob, RouteInfo, Shared, SolverService};
use crate::sync::{CondvarExt, LockExt};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Maximum number of this session's jobs waiting in the service queue
    /// (at least 1). Jobs a worker has picked up no longer count.
    pub queue_capacity: usize,
    /// Maximum finished jobs buffered for [`Session::completions`] (at
    /// least 1). A caller that only uses [`crate::handle::JobHandle`]s and
    /// never consumes the stream would otherwise accumulate completions
    /// without bound on a long-lived session; past this limit the *oldest*
    /// unconsumed completion is dropped from the stream (handles still
    /// resolve normally) and [`Session::completions_dropped`] counts it.
    pub completion_buffer: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self { queue_capacity: 64, completion_buffer: 4096 }
    }
}

/// Why a submission was not accepted.
pub enum SubmitError {
    /// The session's bounded queue is full; the spec is handed back so the
    /// caller can retry, reroute, or shed the work.
    QueueFull(JobSpec),
    /// The cluster shed the job: the tenant's token bucket lacked the
    /// predicted seconds the job would consume, or the target shard's
    /// queue crossed the shedding watermark
    /// ([`crate::cluster::ClusterSession::submit`]). The spec is handed
    /// back, with a hint for how long to back off before retrying — how
    /// long until the bucket refills enough seconds for this job, or how
    /// long the shard's estimated backlog (in predicted seconds of queued
    /// work, floored at the configured drain-retry interval) needs to
    /// drain.
    Overloaded {
        /// Suggested backoff before resubmitting.
        retry_after_hint: Duration,
        /// The rejected spec, handed back for the retry.
        spec: JobSpec,
    },
}

impl SubmitError {
    /// Recovers the job spec for a retry.
    pub fn into_spec(self) -> JobSpec {
        match self {
            SubmitError::QueueFull(spec) => spec,
            SubmitError::Overloaded { spec, .. } => spec,
        }
    }

    /// The backoff hint for [`SubmitError::Overloaded`]; `None` for
    /// [`SubmitError::QueueFull`] (space frees as soon as a worker picks a
    /// job up — block on [`Session::submit`] instead of sleeping).
    pub fn retry_after_hint(&self) -> Option<Duration> {
        match self {
            SubmitError::QueueFull(_) => None,
            SubmitError::Overloaded { retry_after_hint, .. } => Some(*retry_after_hint),
        }
    }
}

impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(_) => write!(f, "QueueFull(..)"),
            SubmitError::Overloaded { retry_after_hint, .. } => f
                .debug_struct("Overloaded")
                .field("retry_after_hint", retry_after_hint)
                .finish_non_exhaustive(),
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(_) => write!(f, "session queue is full"),
            SubmitError::Overloaded { retry_after_hint, .. } => {
                write!(f, "cluster overloaded; retry after {retry_after_hint:?}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Default)]
struct SessionInner {
    /// This session's jobs currently sitting in the service queue.
    queued: usize,
    /// Submitted jobs whose slot has not resolved yet (queued + running).
    unresolved: usize,
    /// Finished jobs not yet consumed by the completion stream.
    completions: VecDeque<Completion>,
    /// Completions evicted because the buffer was full.
    dropped: usize,
}

/// Shared bookkeeping between a [`Session`], its handles, and the workers.
pub(crate) struct SessionCore {
    /// Service-wide session id: the identity the fair scheduler keys its
    /// per-session subqueues on ([`crate::scheduler`]).
    id: u64,
    capacity: usize,
    completion_buffer: usize,
    inner: Mutex<SessionInner>,
    changed: Condvar,
}

impl SessionCore {
    pub(crate) fn new(id: u64, capacity: usize, completion_buffer: usize) -> Self {
        Self {
            id,
            capacity: capacity.max(1),
            completion_buffer: completion_buffer.max(1),
            inner: Mutex::new(SessionInner::default()),
            changed: Condvar::new(),
        }
    }

    /// The scheduler identity of this session.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Reserves a queue slot without blocking; `false` when full.
    pub(crate) fn try_reserve(&self) -> bool {
        let mut inner = self.inner.lock_unpoisoned();
        if inner.queued >= self.capacity {
            return false;
        }
        inner.queued += 1;
        inner.unresolved += 1;
        true
    }

    /// Reserves a queue slot, waiting under the condvar while the queue is
    /// full; counts one backpressure wait if it had to sleep.
    pub(crate) fn reserve_blocking(&self, metrics: &Metrics) {
        let mut inner = self.inner.lock_unpoisoned();
        let mut waited = false;
        while inner.queued >= self.capacity {
            if !waited {
                metrics.on_backpressure_wait();
                waited = true;
            }
            inner = self.changed.wait_unpoisoned(inner);
        }
        inner.queued += 1;
        inner.unresolved += 1;
    }

    /// Releases a slot that was reserved but never enqueued — the cluster
    /// front-end reserves before its admission checks so a blocking reserve
    /// can count backpressure against the routed shard, then unwinds here
    /// when the job is shed. Undoes one [`SessionCore::try_reserve`] /
    /// [`SessionCore::reserve_blocking`].
    pub(crate) fn unreserve(&self) {
        let mut inner = self.inner.lock_unpoisoned();
        inner.queued -= 1;
        inner.unresolved -= 1;
        self.changed.notify_all();
    }

    /// A queued job of this session left the queue (picked up or cancelled).
    pub(crate) fn on_dequeue(&self) {
        let mut inner = self.inner.lock_unpoisoned();
        inner.queued -= 1;
        self.changed.notify_all();
    }

    /// A job of this session resolved; feeds the completion stream,
    /// evicting the oldest unconsumed completion when the buffer is full so
    /// handle-only callers never accumulate an unbounded backlog.
    pub(crate) fn on_complete(&self, completion: Completion) {
        let mut inner = self.inner.lock_unpoisoned();
        if inner.completions.len() >= self.completion_buffer {
            inner.completions.pop_front();
            inner.dropped += 1;
        }
        inner.completions.push_back(completion);
        inner.unresolved -= 1;
        self.changed.notify_all();
    }

    pub(crate) fn drain_wait(&self) {
        let mut inner = self.inner.lock_unpoisoned();
        while inner.unresolved > 0 {
            inner = self.changed.wait_unpoisoned(inner);
        }
    }

    pub(crate) fn next_completion(&self) -> Option<Completion> {
        let mut inner = self.inner.lock_unpoisoned();
        loop {
            if let Some(completion) = inner.completions.pop_front() {
                return Some(completion);
            }
            if inner.unresolved == 0 {
                return None;
            }
            inner = self.changed.wait_unpoisoned(inner);
        }
    }

    pub(crate) fn unresolved(&self) -> usize {
        self.inner.lock_unpoisoned().unresolved
    }

    pub(crate) fn take_completions(&self) -> Vec<Completion> {
        self.inner.lock_unpoisoned().completions.drain(..).collect()
    }

    pub(crate) fn dropped(&self) -> usize {
        self.inner.lock_unpoisoned().dropped
    }
}

/// An asynchronous submission session over a [`SolverService`].
///
/// Created by [`SolverService::session`]; borrows the service, so sessions
/// (and therefore submissions) cannot outlive the worker pool. Multiple
/// sessions can run concurrently over one service, each with its own bound,
/// handles, and completion stream. `&Session` is `Sync`: scoped threads can
/// share one session to submit and consume completions concurrently.
pub struct Session<'a> {
    service: &'a SolverService,
    core: Arc<SessionCore>,
}

impl SolverService {
    /// Opens an asynchronous submission session with its own bounded queue.
    /// Each session gets its own subqueue in the fair scheduler, so one
    /// session's backlog cannot monopolize the worker pool
    /// ([`crate::scheduler`]).
    pub fn session(&self, config: SessionConfig) -> Session<'_> {
        let id = self.shared.next_session_id.fetch_add(1, Ordering::Relaxed);
        Session {
            service: self,
            core: Arc::new(SessionCore::new(id, config.queue_capacity, config.completion_buffer)),
        }
    }
}

impl Session<'_> {
    /// Submits a job, blocking under a condvar while the session queue is
    /// full, and returns its handle.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        self.core.reserve_blocking(&self.service.shared.metrics);
        self.enqueue(spec)
    }

    /// Submits a job without blocking: a full session queue returns
    /// [`SubmitError::QueueFull`] with the spec handed back.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        if !self.core.try_reserve() {
            self.service.shared.metrics.on_backpressure_rejection();
            return Err(SubmitError::QueueFull(spec));
        }
        Ok(self.enqueue(spec))
    }

    /// Enqueues a job whose slot has already been reserved.
    fn enqueue(&self, spec: JobSpec) -> JobHandle {
        let shared = &self.service.shared;
        let id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
        enqueue_reserved(shared, &self.core, id, spec, None, None, false)
    }

    /// Streams finished jobs in finish order. The iterator blocks while work
    /// is in flight and ends (`None`) once every job submitted so far has
    /// been consumed — callers can pipeline decode work against it while
    /// other threads keep submitting. The end state is **latched** (the
    /// iterator is fused): once it has returned `None` it stays exhausted
    /// even if more jobs are submitted afterwards — call
    /// [`Session::completions`] again for a fresh stream over the new work.
    /// If the buffer overflowed before the stream was consumed
    /// ([`SessionConfig::completion_buffer`]), the oldest completions are
    /// missing from it; see [`Session::completions_dropped`].
    pub fn completions(&self) -> Completions<'_> {
        Completions { core: &self.core, finished: false }
    }

    /// Jobs submitted through this session that have not resolved yet.
    pub fn in_flight(&self) -> usize {
        self.core.unresolved()
    }

    /// Completions evicted from the stream because the buffer overflowed
    /// ([`SessionConfig::completion_buffer`]); their handles still resolved
    /// normally.
    pub fn completions_dropped(&self) -> usize {
        self.core.dropped()
    }

    /// Blocks until every job submitted through this session has resolved
    /// (completed, failed, or been cancelled). Completions stay available to
    /// [`Session::completions`] afterwards.
    pub fn drain(&self) {
        self.core.drain_wait();
    }

    /// Graceful teardown: drains the session and returns any completions the
    /// stream has not consumed, in finish order. Consuming `self` makes
    /// submit-after-shutdown unrepresentable.
    pub fn shutdown(self) -> Vec<Completion> {
        self.core.drain_wait();
        self.core.take_completions()
    }
}

/// Enqueues a job on `shared`'s queue under an already-reserved session
/// slot, with a caller-chosen job id and optional precomputed route. The
/// shared submission path for [`Session::enqueue`] (shard-local ids, no
/// route), the cluster front-end (cluster-wide ids, route built before
/// shard selection, the tenant name for the journal), and crash recovery
/// (journaled ids, `recovered` set so the replay does not re-append its
/// own `Submitted` record). A journaled submission without a route builds
/// it here, because the journal needs the encoded model anyway; the job
/// queues with it so the worker never encodes again.
pub(crate) fn enqueue_reserved(
    shared: &Arc<Shared>,
    core: &Arc<SessionCore>,
    id: u64,
    spec: JobSpec,
    mut route: Option<RouteInfo>,
    tenant: Option<&str>,
    recovered: bool,
) -> JobHandle {
    shared.metrics.on_submit(1);
    shared.metrics.on_enqueue();
    // Journal the submission *before* the job becomes runnable: once a
    // worker can pick it up, a crash at any later point finds either this
    // record alone (→ recovery replays the job) or this record plus a
    // terminal one (→ nothing to do). Jobs without a precomputed route
    // encode here, on the submitter thread — the journal must capture the
    // exact QUBO so the replay is bit-identical even if the original
    // problem object is gone after the crash.
    if !recovered {
        if let Some(journal) = &shared.journal {
            let route = route.get_or_insert_with(|| RouteInfo::encode(&*spec.problem));
            journal.append(JournalEvent::Submitted(SubmittedRecord {
                job_id: id,
                problem: spec.problem.name(),
                qubo: (*route.qubo).clone(),
                options_bits: crate::cache::pack_options(&spec.options),
                priority: spec.options.priority,
                seed: spec.seed,
                backend: spec.backend.clone(),
                tenant: tenant.map(str::to_string),
                shard: shared.shard,
            }));
        }
    }
    let slot = Arc::new(CompletionSlot::new());
    // The job's deficit-round-robin cost: the cost model's prediction of
    // how many *microseconds of backend time* it will consume, so a
    // session submitting expensive models spends its scheduling credit
    // faster than one submitting cheap ones — fairness is metered in
    // seconds, not jobs or variable counts. Floored at one microsecond so
    // even a trivially cheap job charges something.
    let cost = (shared.predicted_seconds(&spec) * 1e6).clamp(1.0, u64::MAX as f64) as u64;
    shared.push(QueuedJob {
        id,
        owner: Arc::clone(shared),
        cost,
        queued_ns: shared.now_ns(),
        spec,
        slot: Arc::clone(&slot),
        session: Arc::clone(core),
        route,
        retry: None,
        recovered,
    });
    JobHandle::new(id, slot, Arc::clone(shared), Arc::clone(core))
}

/// Blocking iterator over a session's finished jobs, in finish order.
/// Created by [`Session::completions`].
///
/// The iterator is **fused**: after it first returns `None` (all work
/// submitted so far consumed), it latches the end state and never yields
/// again, even if the session submits more jobs — per the [`Iterator`]
/// convention that `next()` keeps returning `None` after exhaustion. Take a
/// fresh iterator from [`Session::completions`] to stream later work.
pub struct Completions<'s> {
    core: &'s SessionCore,
    finished: bool,
}

impl<'s> Completions<'s> {
    pub(crate) fn new(core: &'s SessionCore) -> Self {
        Self { core, finished: false }
    }
}

impl Iterator for Completions<'_> {
    type Item = Completion;

    fn next(&mut self) -> Option<Completion> {
        if self.finished {
            return None;
        }
        let next = self.core.next_completion();
        if next.is_none() {
            self.finished = true;
        }
        next
    }
}

impl std::iter::FusedIterator for Completions<'_> {}

/// Convenience: a one-shot session sized for `specs`, submitted and waited
/// in order — the building block [`SolverService::run_batch`] wraps.
pub(crate) fn run_batch_via_session(
    service: &SolverService,
    specs: Vec<JobSpec>,
) -> Vec<crate::service::JobOutcome> {
    if specs.is_empty() {
        return Vec::new();
    }
    let session = service
        .session(SessionConfig { queue_capacity: specs.len(), completion_buffer: specs.len() });
    let handles: Vec<JobHandle> = specs
        .into_iter()
        .map(|spec| {
            session.try_submit(spec).unwrap_or_else(|_| {
                unreachable!("session capacity equals batch size; the queue cannot fill")
            })
        })
        .collect();
    handles.iter().map(JobHandle::wait).collect()
}
