//! # qdm-runtime — the concurrent solver service
//!
//! The paper's Fig. 2 roadmap ends at a single reformulate-solve-decode
//! pass; this crate is what a *system* wraps around that pass, following the
//! hybrid serving architecture of Zajac & Störl ("Hybrid Data Management
//! Architecture for Present Quantum Computing", 2024) and the quantum-data-
//! center framing of Liu & Jiang (2023): classical orchestration in front of
//! a portfolio of (simulated) quantum and classical backends.
//!
//! - [`registry`] — every [`qdm_core::solver::QuboSolver`] backend with its
//!   capability snapshot ([`registry::SolverSpec`]): `max_vars` and Fig. 2
//!   branch;
//! - [`cost`] — the calibrated cost model ([`cost::CostModel`]): per-family
//!   analytic latency estimators in *seconds*
//!   ([`cost::analytic_seconds`]), calibrated online against observed
//!   latencies and priced for reliability (expected seconds = predicted ÷
//!   success rate ÷ breaker capacity). Predicted seconds are the common
//!   currency for routing, DRR charging, admission draining, and backlog
//!   estimation;
//! - [`service`] — the worker pool and fair-scheduled job queue
//!   ([`service::SolverService`]): each cache-miss job compiles its QUBO
//!   **exactly once** into a shared `Arc<CompiledQubo>` — presolve and
//!   the dispatched backend run on that one compilation
//!   via [`qdm_core::pipeline::run_pipeline_compiled`] — and each job runs
//!   on the one backend routing picks, under its own seeded RNG, so
//!   results are reproducible regardless of scheduling. Concurrent
//!   duplicates of the same work
//!   identity **single-flight**: one leader solves, parked followers are
//!   served its result through the cache-hit translation (counted as
//!   `jobs_coalesced`, never as a second solve);
//! - [`scheduler`] — the deterministic fair scheduler behind the queue:
//!   priority lanes with pop-counted aging (sustained High traffic can no
//!   longer starve Low — a bypassed lane is served after
//!   [`scheduler::AGE_AFTER_POPS`] pops), per-session subqueues with
//!   deficit-round-robin pickup inside each lane (a deep session cannot
//!   monopolize the pool);
//! - [`submit`] — the asynchronous client API ([`submit::Session`]):
//!   `submit(JobSpec) -> JobHandle` against a **bounded** per-session queue
//!   with two backpressure modes ([`submit::Session::try_submit`] returns
//!   [`submit::SubmitError::QueueFull`]; [`submit::Session::submit`] blocks
//!   under a condvar), a finish-order completion stream
//!   ([`submit::Session::completions`]), and graceful teardown
//!   ([`submit::Session::drain`] / [`submit::Session::shutdown`]);
//! - [`handle`] — per-job completion slots ([`handle::JobHandle`]):
//!   non-blocking [`handle::JobHandle::try_result`], blocking
//!   [`handle::JobHandle::wait`], and [`handle::JobHandle::cancel`] (a
//!   queued job is removed before any worker picks it up; a running job
//!   completes but reports [`service::JobError::Cancelled`] to late
//!   waiters);
//! - [`cache`] — the fingerprint-sharded result cache keyed by the
//!   canonical QUBO fingerprint + options + seed, serving repeated
//!   instances bit-identically — and the permuted re-encodings the
//!   canonical labeling recognizes via canonical-assignment translation —
//!   without re-solving;
//!   per-shard eviction is second-chance (CLOCK), so hot fingerprints
//!   survive churn plain FIFO would evict them under;
//! - [`portfolio`] — the adaptive scheduler routing each job by size and
//!   observed latency/energy-quality telemetry;
//! - [`metrics`] — counters (including queue depth, backpressure, and
//!   cancellations),
//!   log-scale latency histograms (solve time and caller-observed serve
//!   time) with quantile estimation, and the [`metrics::RuntimeReport`]
//!   snapshot with Prometheus text exposition
//!   ([`metrics::RuntimeReport::render_prometheus`]);
//! - [`cluster`] — the sharded front-end ([`cluster::ClusterService`]):
//!   N shards behind one session API whose workers all pop one fair run
//!   queue, jobs owned by the shard chosen by
//!   consistent-hashing the canonical fingerprint (duplicates of a hot
//!   QUBO — and relabeled ones the canonical labeling recognizes — belong
//!   to the shard that has it cached and single-flight there, compiling
//!   once cluster-wide), per-tenant
//!   token-bucket admission control on an injectable [`cluster::Clock`],
//!   watermark load shedding ([`submit::SubmitError::Overloaded`] with a
//!   retry hint), and ring failover past dead shards — results stay
//!   bit-identical to a single-shard run under fixed seeds;
//! - [`trace`] — structured per-job span timelines
//!   (`queued → compiled → presolved → backend solve → served`) recorded
//!   into a bounded
//!   drop-counting ring ([`trace::TraceRing`]) and exported as Chrome
//!   `trace_event` JSON via [`service::SolverService::export_traces`];
//!   solver-internal stage counters flow in through
//!   [`qdm_qubo::probe::StageProbe`] hooks.
//!
//! The synchronous [`service::SolverService::run_batch`] /
//! [`service::SolverService::run`] survive as thin compatibility wrappers
//! implemented on top of the session API (one session sized to the batch,
//! every handle waited in submission order), so existing callers see no
//! behavior change. Determinism is preserved across entry points: per-job
//! seeded RNGs make a job's result bit-identical whether obtained via
//! `run_batch`, `JobHandle::wait`, or a cache hit.
//!
//! See `examples/solver_service.rs` at the workspace root for the
//! end-to-end tour: a mixed MQO / join-ordering / transaction-scheduling
//! batch fanned out across backends, an async session streaming
//! completions, then resubmission showing cache hits.

#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod cluster;
pub mod cost;
pub mod fault;
pub mod handle;
pub mod journal;
pub mod metrics;
pub mod portfolio;
pub mod registry;
pub mod scheduler;
pub mod service;
pub mod submit;
mod sync;
pub mod trace;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::breaker::BreakerConfig;
    pub use crate::cache::{CacheKey, CachedResult, ResultCache};
    pub use crate::cluster::{
        AdmissionConfig, Clock, ClusterConfig, ClusterService, ClusterSession, DepthProbe,
        HealthProbe, ManualClock, MonotonicClock, TokenBucketConfig,
    };
    // `cost::CostModel` stays out of the prelude: the `qdm` facade merges
    // this prelude with `qdm_db`'s, whose join-ordering `CostModel` would
    // collide. Reach it via [`crate::cost::CostModel`] or
    // [`crate::portfolio::PortfolioScheduler::cost_model`].
    pub use crate::cost::{analytic_seconds, CalibrationStats, CostShape};
    pub use crate::fault::{
        FaultAction, FaultInjector, FaultPlan, FaultSite, FaultWhen, NoFaults, RetryPolicy,
    };
    pub use crate::handle::{CancelStatus, Completion, JobHandle};
    pub use crate::journal::{
        unfinished, FileJournal, Journal, JournalEvent, JournaledProblem, MemoryJournal,
        SolutionSnapshot, SubmittedRecord,
    };
    pub use crate::metrics::{Counter, Metrics, RuntimeReport};
    pub use crate::portfolio::{BackendStats, PortfolioScheduler};
    pub use crate::registry::{RegisteredSolver, SolverRegistry, SolverSpec};
    pub use crate::scheduler::{AGE_AFTER_POPS, DRR_QUANTUM};
    pub use crate::service::{
        BackendChoice, JobError, JobOutcome, JobResult, JobSpec, PartialSolution, ServiceConfig,
        SharedProblem, SolverService,
    };
    pub use crate::submit::{Completions, Session, SessionConfig, SubmitError};
    pub use crate::trace::{
        JobTrace, Span, Stage, StageProfile, StageStats, TraceConfig, TraceOutcome, TraceRing,
        TraceSink, DEFAULT_TRACE_CAPACITY,
    };
}

pub use prelude::*;
