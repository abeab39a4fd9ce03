//! Structured per-job tracing: span timelines, the [`TraceSink`] consumer
//! interface, and the bounded lock-free(-ish) [`TraceRing`] the service
//! stores recent traces in.
//!
//! Every traced job produces one [`JobTrace`]: a span per runtime stage —
//! queue wait, compile, presolve/decompose preparation, one
//! solve span per race participant (winner marked), serve — each stamped
//! with monotonic nanosecond timestamps from the service's private epoch
//! and carrying lane/session/fingerprint attribution plus the
//! backend-internal [`StageStats`] collected through
//! [`qdm_qubo::probe::StageProbe`] hooks. Workers assemble the trace
//! locally while running the job (no shared state on the hot path) and hand
//! the finished record to the sink once, so steady-state overhead is one
//! ring push — a ticket `fetch_add` plus an uncontended `try_lock` — per
//! job. A full or contended slot **drops** the trace and counts it; writers
//! never block on readers.
//!
//! Export formats live next to the service:
//! [`crate::service::SolverService::export_traces`] renders the ring as
//! Chrome `trace_event` JSON (loadable in `about:tracing` / Perfetto) and
//! [`crate::metrics::RuntimeReport::render_prometheus`] exposes the
//! counters.

use qdm_core::pipeline::JobPriority;
use qdm_qubo::probe::{RestartStats, StageProbe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default [`TraceConfig::Ring`] capacity (traces retained).
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// Which runtime stage a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Sitting in the service queue (enqueue → worker pickup).
    Queued,
    /// The job's single QUBO compile (flight leaders only).
    Compile,
    /// Pipeline preparation: presolve fixpoint + component extraction.
    Presolve,
    /// One backend solving (one span per race participant).
    Solve,
    /// Serving a result that was not solved here: cache hit or coalesced.
    Serve,
    /// A retry of a failed attempt: the span covers the backoff sleep and
    /// ends when the next attempt starts.
    Retry,
    /// The job was replayed from a durable journal after a crash; the span
    /// marks the moment recovery re-enqueued it.
    Recover,
}

impl Stage {
    /// Stable lowercase name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Queued => "queued",
            Stage::Compile => "compile",
            Stage::Presolve => "presolve",
            Stage::Solve => "solve",
            Stage::Serve => "serve",
            Stage::Retry => "retry",
            Stage::Recover => "recover",
        }
    }
}

/// Backend-internal progress counters accumulated over a span, fed by the
/// [`StageProbe`] hooks threaded through presolve and the solver restart
/// loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Presolve fixpoint rounds run (including the final converged round).
    pub presolve_rounds: u64,
    /// Variables fixed across all presolve rounds.
    pub presolve_fixed: u64,
    /// Solver restarts finished.
    pub restarts: u64,
    /// Sweeps/iterations summed over restarts.
    pub sweeps: u64,
    /// Move proposals evaluated.
    pub proposals: u64,
    /// Proposals accepted.
    pub accepted: u64,
}

impl StageStats {
    /// Whether nothing was recorded (spans without solver activity).
    pub fn is_empty(&self) -> bool {
        *self == StageStats::default()
    }

    /// Acceptance rate over proposals, or 0 when nothing was proposed.
    pub fn accept_rate(&self) -> f64 {
        if self.proposals == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposals as f64
        }
    }
}

/// One timed stage of a job's lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The stage this span covers.
    pub stage: Stage,
    /// Backend attribution for [`Stage::Solve`] spans.
    pub backend: Option<String>,
    /// Whether this solve span produced the job's returned result (the race
    /// winner; trivially true for a single-backend solve).
    pub winner: bool,
    /// Span start, nanoseconds since the service epoch (monotonic).
    pub start_ns: u64,
    /// Span end, nanoseconds since the service epoch.
    pub end_ns: u64,
    /// Backend-internal counters collected during the span.
    pub stats: StageStats,
    /// The cost model's latency prediction for this span, in seconds, as
    /// quoted when the router dispatched the attempt — `Some` only on
    /// [`Stage::Solve`] spans. Comparing it against the span's measured
    /// duration is how calibration error is audited per job.
    pub predicted_seconds: Option<f64>,
}

impl Span {
    /// A bare span of `stage` over `[start_ns, end_ns]`: no backend, no
    /// counters, no prediction, not a winner.
    pub(crate) fn new(stage: Stage, start_ns: u64, end_ns: u64) -> Self {
        Self {
            stage,
            backend: None,
            winner: false,
            start_ns,
            end_ns,
            stats: StageStats::default(),
            predicted_seconds: None,
        }
    }

    /// Attributes the span to `backend`.
    pub(crate) fn with_backend(mut self, backend: String) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Attaches the counters collected during the span.
    pub(crate) fn with_stats(mut self, stats: StageStats) -> Self {
        self.stats = stats;
        self
    }

    /// Marks a solve span with the router's latency quote and whether it
    /// produced the job's result.
    pub(crate) fn predicted(mut self, seconds: f64, winner: bool) -> Self {
        self.predicted_seconds = Some(seconds);
        self.winner = winner;
        self
    }

    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// How a traced job ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Missed the cache and was solved by a backend.
    Solved,
    /// Served from the result cache.
    CacheHit,
    /// Coalesced onto a concurrent in-flight duplicate.
    Coalesced,
    /// Delivered as cancelled.
    Cancelled,
    /// Failed (routing error or panic).
    Failed,
}

impl TraceOutcome {
    /// Stable lowercase name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            TraceOutcome::Solved => "solved",
            TraceOutcome::CacheHit => "cache-hit",
            TraceOutcome::Coalesced => "coalesced",
            TraceOutcome::Cancelled => "cancelled",
            TraceOutcome::Failed => "failed",
        }
    }
}

/// The complete span timeline of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// Service-wide job id (submission order).
    pub job_id: u64,
    /// Owning session id.
    pub session: u64,
    /// Problem name.
    pub problem: String,
    /// Scheduling lane the job ran in.
    pub lane: JobPriority,
    /// Canonical QUBO fingerprint (0 when the job never got as far as its
    /// encoded route — cancelled while queued, or its `to_qubo` panicked).
    pub fingerprint: u64,
    /// The job's RNG seed.
    pub seed: u64,
    /// How the job resolved.
    pub outcome: TraceOutcome,
    /// Backend that produced (or originally produced) the result, when any.
    pub backend: Option<String>,
    /// The shard that ran the job inside a
    /// [`crate::cluster::ClusterService`]; `None` on standalone services.
    pub shard: Option<u64>,
    /// Stage spans in chronological order.
    pub spans: Vec<Span>,
}

impl JobTrace {
    /// The first span of a given stage, if present.
    pub fn span(&self, stage: Stage) -> Option<&Span> {
        self.spans.iter().find(|s| s.stage == stage)
    }
}

/// Consumer of finished job traces. Implementations must be cheap and
/// non-blocking: `record` runs on worker threads once per job.
pub trait TraceSink: Send + Sync {
    /// Accepts one finished trace (ownership transfers; drop to discard).
    fn record(&self, trace: JobTrace);
}

/// A sink that discards everything — tracing disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct DisabledSink;

impl TraceSink for DisabledSink {
    fn record(&self, _trace: JobTrace) {}
}

/// One ring slot: the retained trace tagged with its admission ticket.
type TicketedSlot = Mutex<Option<(u64, JobTrace)>>;

/// A bounded ring of recent job traces with drop counting.
///
/// Writers take a ticket with one `fetch_add` and claim the target slot
/// with `try_lock` — an uncontended claim is a single CAS; a contended one
/// (another writer or a snapshot holding the slot) **drops** the trace and
/// counts it rather than blocking. When the ring wraps, the displaced
/// older trace counts as dropped too, so
/// `recorded() == len() + dropped()` always balances. Snapshots sort by
/// ticket, so readers see surviving traces in completion order.
pub struct TraceRing {
    slots: Box<[TicketedSlot]>,
    head: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring retaining up to `capacity` traces (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Stores `trace`, overwriting the oldest retained trace once the ring
    /// is full. Never blocks: slot contention drops the trace instead.
    pub fn push(&self, trace: JobTrace) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut guard) => {
                if guard.replace((ticket, trace)).is_some() {
                    // Wrapped: the displaced older trace is gone.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                // Someone else holds the slot; dropping beats blocking a
                // worker thread on telemetry.
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Traces pushed over the ring's lifetime (retained or dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Traces lost to wraparound or slot contention.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the retained traces in completion (ticket) order.
    pub fn snapshot(&self) -> Vec<JobTrace> {
        let mut entries: Vec<(u64, JobTrace)> = self
            .slots
            .iter()
            .filter_map(|slot| slot.try_lock().ok().and_then(|guard| guard.clone()))
            .collect();
        entries.sort_by_key(|(ticket, _)| *ticket);
        entries.into_iter().map(|(_, trace)| trace).collect()
    }
}

impl TraceSink for TraceRing {
    fn record(&self, trace: JobTrace) {
        self.push(trace);
    }
}

/// Service-level tracing configuration
/// ([`crate::service::ServiceConfig::tracing`]).
#[derive(Clone, Default)]
pub enum TraceConfig {
    /// No tracing: jobs pay zero tracing cost (no clock reads, no sink).
    Disabled,
    /// Trace into a bounded in-service [`TraceRing`], exported through
    /// [`crate::service::SolverService::export_traces`] /
    /// [`crate::service::SolverService::traces`]. This is the default, at
    /// [`DEFAULT_TRACE_CAPACITY`].
    #[default]
    Ring,
    /// Trace into a bounded ring of the given capacity.
    RingWithCapacity(usize),
    /// Trace into a caller-supplied sink (ownership of each trace passes to
    /// it; `SolverService::traces` sees nothing).
    Custom(Arc<dyn TraceSink>),
}

impl std::fmt::Debug for TraceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceConfig::Disabled => write!(f, "Disabled"),
            TraceConfig::Ring => write!(f, "Ring({DEFAULT_TRACE_CAPACITY})"),
            TraceConfig::RingWithCapacity(n) => write!(f, "Ring({n})"),
            TraceConfig::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// A [`StageProbe`] accumulating [`StageStats`] atomically — the bridge
/// between solver-internal hooks (which may fire from several racing
/// threads) and the per-span stats a worker snapshots when the span closes.
#[derive(Debug, Default)]
pub struct StageProfile {
    presolve_rounds: AtomicU64,
    presolve_fixed: AtomicU64,
    restarts: AtomicU64,
    sweeps: AtomicU64,
    proposals: AtomicU64,
    accepted: AtomicU64,
}

impl StageProfile {
    /// A fresh all-zero profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the accumulated counters.
    pub fn snapshot(&self) -> StageStats {
        StageStats {
            presolve_rounds: self.presolve_rounds.load(Ordering::Relaxed),
            presolve_fixed: self.presolve_fixed.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
            proposals: self.proposals.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
        }
    }
}

impl StageProbe for StageProfile {
    fn on_presolve_round(&self, _round: u64, fixed_in_round: u64) {
        self.presolve_rounds.fetch_add(1, Ordering::Relaxed);
        self.presolve_fixed.fetch_add(fixed_in_round, Ordering::Relaxed);
    }

    fn on_restart(&self, stats: &RestartStats) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
        self.sweeps.fetch_add(stats.sweeps, Ordering::Relaxed);
        self.proposals.fetch_add(stats.proposals, Ordering::Relaxed);
        self.accepted.fetch_add(stats.accepted, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(job_id: u64) -> JobTrace {
        JobTrace {
            job_id,
            session: 0,
            problem: format!("p{job_id}"),
            lane: JobPriority::Normal,
            fingerprint: 42,
            seed: 7,
            outcome: TraceOutcome::Solved,
            backend: Some("tabu".into()),
            shard: None,
            spans: vec![Span {
                winner: true,
                ..Span::new(Stage::Solve, job_id * 10, job_id * 10 + 5).with_backend("tabu".into())
            }],
        }
    }

    #[test]
    fn ring_retains_in_order_below_capacity() {
        let ring = TraceRing::new(8);
        for id in 0..5 {
            ring.push(trace(id));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 5);
        assert_eq!(got.iter().map(|t| t.job_id).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_wraparound_keeps_newest_and_counts_drops() {
        let ring = TraceRing::new(4);
        for id in 0..6 {
            ring.push(trace(id));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 4, "capacity bounds retention");
        assert_eq!(
            got.iter().map(|t| t.job_id).collect::<Vec<_>>(),
            vec![2, 3, 4, 5],
            "oldest traces are displaced first; survivors stay in completion order"
        );
        assert_eq!(ring.recorded(), 6);
        assert_eq!(ring.dropped(), 2, "each wrap displaces exactly one older trace");
        assert_eq!(ring.recorded(), got.len() as u64 + ring.dropped(), "ledger balances");
    }

    #[test]
    fn contended_slot_drops_instead_of_blocking() {
        let ring = TraceRing::new(2);
        ring.push(trace(0));
        // Hold slot 1's lock to simulate contention, then push the trace
        // that targets it.
        let guard = ring.slots[1].lock().unwrap();
        ring.push(trace(1));
        drop(guard);
        assert_eq!(ring.dropped(), 1, "the contended push was dropped, not blocked");
        assert_eq!(ring.recorded(), 2);
        let got = ring.snapshot();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].job_id, 0);
    }

    #[test]
    fn stage_profile_accumulates_probe_events() {
        let profile = StageProfile::new();
        profile.on_presolve_round(0, 3);
        profile.on_presolve_round(1, 0);
        profile.on_restart(&RestartStats {
            solver: "sa",
            restart: 0,
            sweeps: 200,
            proposals: 1000,
            accepted: 400,
        });
        profile.on_restart(&RestartStats {
            solver: "sa",
            restart: 1,
            sweeps: 200,
            proposals: 1000,
            accepted: 100,
        });
        let stats = profile.snapshot();
        assert_eq!(stats.presolve_rounds, 2);
        assert_eq!(stats.presolve_fixed, 3);
        assert_eq!(stats.restarts, 2);
        assert_eq!(stats.sweeps, 400);
        assert_eq!(stats.proposals, 2000);
        assert_eq!(stats.accepted, 500);
        assert!((stats.accept_rate() - 0.25).abs() < 1e-12);
        assert!(!stats.is_empty());
        assert!(StageStats::default().is_empty());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = TraceRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(trace(0));
        ring.push(trace(1));
        assert_eq!(ring.snapshot().len(), 1);
        assert_eq!(ring.dropped(), 1);
    }
}
