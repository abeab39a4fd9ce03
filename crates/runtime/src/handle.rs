//! Per-job completion handles: the asynchronous half of the submission API.
//!
//! Every submitted job gets a private `CompletionSlot` — a mutex-guarded
//! outcome cell with its own condvar — instead of a shared batch channel.
//! The [`JobHandle`] returned by [`crate::submit::Session::submit`] wraps
//! that slot: callers can poll ([`JobHandle::try_result`]), block
//! ([`JobHandle::wait`]), or abandon the job ([`JobHandle::cancel`]) without
//! affecting any other in-flight work. Finished jobs are also streamed, in
//! finish order, through the session's [`crate::submit::Session::completions`]
//! iterator as [`Completion`] records.

use crate::metrics::{Counter, Metrics};
use crate::service::{JobError, JobOutcome, Shared};
use crate::submit::SessionCore;
use crate::sync::{CondvarExt, LockExt};
use crate::trace::TraceOutcome;
use std::sync::{Arc, Condvar, Mutex};

/// One finished job as streamed by
/// [`crate::submit::Session::completions`]: jobs appear in the order they
/// finish, not the order they were submitted.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The job's service-wide id ([`JobHandle::id`] of its handle).
    pub id: u64,
    /// The job's outcome, identical to what [`JobHandle::wait`] returns.
    pub outcome: JobOutcome,
}

/// What [`JobHandle::cancel`] achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelStatus {
    /// The job was still queued and has been removed before any worker
    /// picked it up; its handle resolves to [`JobError::Cancelled`].
    Cancelled,
    /// A worker is already running the job (or a racing `cancel` on the
    /// same handle is concurrently removing it). It completes (and still
    /// populates the result cache), but the handle and the completion
    /// stream report [`JobError::Cancelled`] to late waiters.
    Running,
    /// The job had already finished; the cancel had no effect and the
    /// real outcome remains observable.
    Finished,
}

struct SlotInner {
    cancelled: bool,
    outcome: Option<JobOutcome>,
}

/// Outcome of trying to mark a slot cancelled.
enum MarkCancelled {
    /// This call set the flag: the cancellation took effect (count it).
    Marked,
    /// A previous cancel already set the flag: no new effect.
    AlreadyMarked,
    /// The job already resolved: too late to cancel.
    Resolved,
}

/// The per-job completion cell shared by the worker (producer) and the
/// handle + completion stream (consumers).
pub(crate) struct CompletionSlot {
    inner: Mutex<SlotInner>,
    done: Condvar,
}

impl CompletionSlot {
    pub(crate) fn new() -> Self {
        Self {
            inner: Mutex::new(SlotInner { cancelled: false, outcome: None }),
            done: Condvar::new(),
        }
    }

    /// Stores the job's outcome (converting it to [`JobError::Cancelled`] if
    /// the job was cancelled while running), wakes every waiter, and returns
    /// the outcome as delivered — the same value the completion stream must
    /// carry so `wait()` and `completions()` always agree.
    ///
    /// When the conversion downgrades an outcome that `process` already
    /// counted — completed for `Ok`, failed for any error other than
    /// `Cancelled` itself — the ledger is reconciled here, under the slot
    /// lock and **before** any waiter can observe the outcome: the cancel
    /// call counted the job cancelled, so without taking the completed or
    /// failed count back one job would occupy two ledger buckets.
    pub(crate) fn resolve(&self, outcome: JobOutcome, metrics: &Metrics) -> JobOutcome {
        let solved = outcome.is_ok();
        // Every non-`Cancelled` error reaching a slot was counted in
        // `jobs_failed` (routing, panic, or coalesced-failure path); a
        // queued-job cancel resolves with `Err(Cancelled)` and was never
        // counted failed.
        let counted_failed = matches!(&outcome, Err(err) if *err != JobError::Cancelled);
        let mut inner = self.inner.lock_unpoisoned();
        let delivered = if inner.cancelled { Err(JobError::Cancelled) } else { outcome };
        if inner.cancelled {
            if solved {
                metrics.dec(Counter::JobsCompleted);
            } else if counted_failed {
                metrics.dec(Counter::JobsFailed);
            }
        }
        inner.outcome = Some(delivered.clone());
        self.done.notify_all();
        delivered
    }

    /// Marks a still-running job as cancelled so [`Self::resolve`] delivers
    /// [`JobError::Cancelled`].
    fn mark_cancelled_if_pending(&self) -> MarkCancelled {
        let mut inner = self.inner.lock_unpoisoned();
        if inner.outcome.is_some() {
            MarkCancelled::Resolved
        } else if inner.cancelled {
            MarkCancelled::AlreadyMarked
        } else {
            inner.cancelled = true;
            MarkCancelled::Marked
        }
    }

    fn try_result(&self) -> Option<JobOutcome> {
        self.inner.lock_unpoisoned().outcome.clone()
    }

    fn wait(&self) -> JobOutcome {
        let mut inner = self.inner.lock_unpoisoned();
        loop {
            if let Some(outcome) = &inner.outcome {
                return outcome.clone();
            }
            inner = self.done.wait_unpoisoned(inner);
        }
    }
}

/// A handle to one asynchronously submitted job.
///
/// Handles are independent of the [`crate::submit::Session`] that created
/// them: they can be moved to other threads, waited on in any order, and
/// dropped without consequence (the job still runs and its completion still
/// streams). The result is a [`JobOutcome`] clone, so `wait`/`try_result`
/// can be called repeatedly and concurrently with the completion stream.
pub struct JobHandle {
    id: u64,
    slot: Arc<CompletionSlot>,
    shared: Arc<Shared>,
    session: Arc<SessionCore>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("finished", &self.is_finished())
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    pub(crate) fn new(
        id: u64,
        slot: Arc<CompletionSlot>,
        shared: Arc<Shared>,
        session: Arc<SessionCore>,
    ) -> Self {
        Self { id, slot, shared, session }
    }

    /// The job's service-wide id (monotonic submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Non-blocking poll: `Some` once the job resolved, `None` while it is
    /// still queued or running.
    pub fn try_result(&self) -> Option<JobOutcome> {
        self.slot.try_result()
    }

    /// Whether the job has resolved (completed, failed, or been cancelled).
    pub fn is_finished(&self) -> bool {
        self.slot.try_result().is_some()
    }

    /// Blocks until the job resolves and returns its outcome. Results are
    /// bit-identical to a synchronous [`crate::service::SolverService::run`]
    /// of the same spec: per-job seeded RNGs make the outcome independent of
    /// scheduling.
    pub fn wait(&self) -> JobOutcome {
        self.slot.wait()
    }

    /// Cancels the job.
    ///
    /// - Still queued → the job is removed before any worker picks it up and
    ///   the handle resolves to [`JobError::Cancelled`]
    ///   ([`CancelStatus::Cancelled`]).
    /// - Already running → the job completes (and still populates the result
    ///   cache), but the handle and the completion stream report
    ///   [`JobError::Cancelled`] ([`CancelStatus::Running`]). In the ledger
    ///   the job counts as cancelled, **not** completed — one job, one
    ///   bucket.
    /// - Already resolved → no effect ([`CancelStatus::Finished`]).
    ///
    /// Cancellation is strictly per-handle. If this job coalesced onto a
    /// concurrent in-flight duplicate (single-flight), cancelling it never
    /// cancels the leader it parked on; conversely a cancelled leader still
    /// finishes its solve and serves any followers — only its own handle
    /// reports [`JobError::Cancelled`].
    pub fn cancel(&self) -> CancelStatus {
        // Inside a cluster the queue is the one every shard shares; the
        // owner's gauges count the job out.
        let removed = self.shared.queue.jobs.lock_unpoisoned().remove(self.id);
        if let Some(job) = removed {
            self.shared.on_dequeue(&job);
            // Claim the slot's cancel flag before resolving: racing cancels
            // on the same handle each see `Marked` at most once in total, so
            // `jobs_cancelled` counts one effective cancellation per job no
            // matter how many threads race here.
            if matches!(job.slot.mark_cancelled_if_pending(), MarkCancelled::Marked) {
                self.shared.metrics.inc(Counter::JobsCancelled);
            }
            self.session.on_dequeue();
            // A queue-removed job never reaches a worker, so its trace is
            // recorded here: just the queue-wait span, outcome `cancelled`.
            if let Some(sink) = self.shared.sink.as_ref() {
                sink.record(job.queued_trace(&self.shared, TraceOutcome::Cancelled));
            }
            let delivered = job.slot.resolve(Err(JobError::Cancelled), &self.shared.metrics);
            // A queue-removed job resolves here, never on a worker, so its
            // terminal journal record is appended here too — without it the
            // cancelled job would look unfinished and recovery would
            // resurrect it.
            if let Some(journal) = &self.shared.journal {
                journal.append(crate::journal::JournalEvent::Cancelled { job_id: self.id });
            }
            self.session.on_complete(Completion { id: self.id, outcome: delivered });
            return CancelStatus::Cancelled;
        }
        match self.slot.mark_cancelled_if_pending() {
            MarkCancelled::Marked => {
                self.shared.metrics.inc(Counter::JobsCancelled);
                CancelStatus::Running
            }
            MarkCancelled::AlreadyMarked => CancelStatus::Running,
            MarkCancelled::Resolved => CancelStatus::Finished,
        }
    }
}
