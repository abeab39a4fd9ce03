//! Runtime telemetry: lock-free counters, log-scale latency histograms
//! (backend solve time and caller-observed serve time), quantile
//! estimation, and the [`RuntimeReport`] snapshot the service surfaces —
//! renderable as Prometheus text exposition via
//! [`RuntimeReport::render_prometheus`].

use crate::sync::LockExt;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of power-of-two latency buckets: bucket `i` counts solves whose
/// wall time fell in `[2^i, 2^(i+1))` microseconds; the last bucket is
/// open-ended.
pub const LATENCY_BUCKETS: usize = 24;

fn latency_bucket(seconds: f64) -> (u64, usize) {
    let micros = (seconds * 1e6).max(0.0) as u64;
    let bucket = (64 - micros.max(1).leading_zeros() as usize - 1).min(LATENCY_BUCKETS - 1);
    (micros, bucket)
}

/// Estimates quantile `q` (in `[0, 1]`) from a log-scale latency histogram,
/// in **seconds**. Returns the conservative upper bound `2^(i+1)` µs of the
/// bucket holding the rank-`⌈q·n⌉` observation; the open-ended last bucket
/// reports its lower bound `2^i` µs (there is no finite upper bound).
/// `None` when the histogram is empty.
pub fn histogram_quantile(histogram: &[u64; LATENCY_BUCKETS], q: f64) -> Option<f64> {
    let total: u64 = histogram.iter().sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &count) in histogram.iter().enumerate() {
        seen += count;
        if seen >= rank {
            let micros = if i == LATENCY_BUCKETS - 1 {
                1u64 << i // open-ended: lower bound is all we can say
            } else {
                1u64 << (i + 1)
            };
            return Some(micros as f64 / 1e6);
        }
    }
    unreachable!("rank <= total, so the scan always lands in a bucket")
}

/// Thread-safe runtime counters, updated by workers as jobs complete.
#[derive(Default)]
pub struct Metrics {
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_coalesced: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
    backpressure_rejections: AtomicU64,
    backpressure_waits: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
    served_latency: [AtomicU64; LATENCY_BUCKETS],
    solve_seconds_total_micros: AtomicU64,
    served_seconds_total_micros: AtomicU64,
    compile_saved_nanos: AtomicU64,
    race_jobs: AtomicU64,
    jobs_admitted: AtomicU64,
    jobs_shed: AtomicU64,
    migrations: AtomicU64,
    jobs_run_for_peers: AtomicU64,
    jobs_retried: AtomicU64,
    retries_exhausted: AtomicU64,
    deadlines_exceeded: AtomicU64,
    breaker_opened: AtomicU64,
    breaker_half_opened: AtomicU64,
    breaker_closed: AtomicU64,
    failovers: AtomicU64,
    jobs_recovered: AtomicU64,
    snapshot_saved: AtomicU64,
    snapshot_loaded: AtomicU64,
    per_backend: Mutex<BTreeMap<String, u64>>,
    race_wins: Mutex<BTreeMap<String, u64>>,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` newly submitted jobs.
    pub fn on_submit(&self, n: u64) {
        self.jobs_submitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a job served from the result cache.
    pub fn on_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job that missed the cache and was solved on `backend` in
    /// `seconds` of wall time.
    pub fn on_solved(&self, backend: &str, seconds: f64) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        let (micros, bucket) = latency_bucket(seconds);
        self.solve_seconds_total_micros.fetch_add(micros, Ordering::Relaxed);
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
        *self.per_backend.lock_unpoisoned().entry(backend.to_string()).or_insert(0) += 1;
    }

    /// Records the end-to-end latency a *caller* observed for one delivered
    /// job: enqueue → result, regardless of how it resolved (solved, cache
    /// hit, or coalesced). The solve histogram only sees cache misses, so
    /// its quantiles describe backend cost; this series describes what
    /// callers actually wait.
    pub fn on_served(&self, seconds: f64) {
        let (micros, bucket) = latency_bucket(seconds);
        self.served_seconds_total_micros.fetch_add(micros, Ordering::Relaxed);
        self.served_latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job that could not be placed on any backend.
    pub fn on_failed(&self) {
        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job entering the service queue, tracking the depth peak.
    pub fn on_enqueue(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records a job leaving the service queue (picked up or cancelled).
    pub fn on_dequeue(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a `try_submit` rejected by a full session queue.
    pub fn on_backpressure_rejection(&self) {
        self.backpressure_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a blocking `submit` that had to wait for queue space.
    pub fn on_backpressure_wait(&self) {
        self.backpressure_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cancellation that took effect (queued job removed, or a
    /// running job marked to report `Cancelled`).
    pub fn on_cancelled(&self) {
        self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Reconciles the ledger for a job whose solve finished but whose
    /// delivered outcome was converted to `Cancelled` (the cancel raced the
    /// run). The work happened — cache, backend, and latency counters stand
    /// — but the job already counts in `jobs_cancelled`, so leaving it in
    /// `jobs_completed` too would double-count it: one submitted job must
    /// land in exactly one of completed / failed / cancelled.
    pub fn on_completion_converted_to_cancel(&self) {
        self.jobs_completed.fetch_sub(1, Ordering::Relaxed);
    }

    /// The failure-side twin of
    /// [`Self::on_completion_converted_to_cancel`]: the job's run *failed*
    /// (routing error or panic, already counted by [`Self::on_failed`]) but
    /// the delivered outcome was converted to `Cancelled` — it must count
    /// cancelled, not failed.
    pub fn on_failure_converted_to_cancel(&self) {
        self.jobs_failed.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a job that parked on another in-flight job with the same
    /// work identity (single-flight duplicate suppression) instead of
    /// solving or missing the cache itself. Counted at park time (tests use
    /// it as the "the duplicate has coalesced" signal) and netted back out
    /// by [`Self::on_coalesce_abandoned`] if the leader vanished and the
    /// park produced nothing.
    pub fn on_coalesced(&self) {
        self.jobs_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Reverses one [`Self::on_coalesced`]: the parked job's leader
    /// panicked without publishing, so the job retries (possibly solving
    /// itself) and its park suppressed no duplicate work after all.
    pub fn on_coalesce_abandoned(&self) {
        self.jobs_coalesced.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a coalesced job served from its leader's published result
    /// (neither a cache hit nor a miss: the cache was never consulted).
    pub fn on_coalesced_served(&self) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records compile time the compile-once pipeline avoided: a job whose
    /// single compilation (taking `compile_seconds`) served `consumers`
    /// dispatched backends would have compiled once per backend, so
    /// `(consumers - 1) × compile_seconds` was saved — nothing for a
    /// single-backend job. (The cache key never needs a compilation: it is
    /// the uncompiled model's canonical fingerprint.)
    pub fn on_compile_shared(&self, compile_seconds: f64, consumers: u64) {
        let saved = compile_seconds * consumers.saturating_sub(1) as f64;
        self.compile_saved_nanos.fetch_add((saved * 1e9).max(0.0) as u64, Ordering::Relaxed);
    }

    /// Records backend wall time burned by a race's *non-winning*
    /// participants (the winner's time arrives via [`Self::on_solved`]), so
    /// [`RuntimeReport::solve_seconds_total`] stays an honest sum of all
    /// backend work instead of under-reporting races k-fold.
    pub fn on_race_participant_time(&self, seconds: f64) {
        let micros = (seconds * 1e6).max(0.0) as u64;
        self.solve_seconds_total_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Records a completed portfolio race and its winning backend.
    pub fn on_race(&self, winner: &str) {
        self.race_jobs.fetch_add(1, Ordering::Relaxed);
        *self.race_wins.lock_unpoisoned().entry(winner.to_string()).or_insert(0) += 1;
    }

    /// Records a job that passed cluster admission control (token bucket
    /// and load-shedding watermark) and was enqueued on this shard.
    pub fn on_admitted(&self) {
        self.jobs_admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job shed before enqueue — its tenant's token bucket was
    /// empty or this shard's queue depth crossed the shedding watermark.
    /// Shed jobs never enter the queue, so they appear in no other ledger
    /// bucket.
    pub fn on_shed(&self) {
        self.jobs_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a queued job migrated between shards to rebalance queue
    /// depths. Counted on the **donor** shard (the job left its queue).
    pub fn on_migrated(&self) {
        self.migrations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job this shard's worker ran for the peer shard that
    /// admitted it (pulled from the peer's queue, or moved here by
    /// migration or failover). Counted on the **executing** shard; every
    /// other counter of the job lands on its owner.
    pub fn on_run_for_peer(&self) {
        self.jobs_run_for_peers.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retry attempt: a job whose try failed retryably (panic
    /// or injected error) and was put back through processing under the
    /// service's [`crate::fault::RetryPolicy`].
    pub fn on_retried(&self) {
        self.jobs_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job that failed retryably *after* exhausting its retry
    /// budget — the failure the policy could not absorb.
    pub fn on_retries_exhausted(&self) {
        self.retries_exhausted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job that failed with
    /// [`crate::service::JobError::DeadlineExceeded`].
    pub fn on_deadline_exceeded(&self) {
        self.deadlines_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a backend circuit breaker tripping open (consecutive
    /// failures reached the threshold, or a half-open probe failed).
    pub fn on_breaker_opened(&self) {
        self.breaker_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an open breaker moving to half-open after its cooldown:
    /// probe traffic is admitted again.
    pub fn on_breaker_half_opened(&self) {
        self.breaker_half_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a tripped breaker re-closing on a success.
    pub fn on_breaker_closed(&self) {
        self.breaker_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job routed (or drained) away from an unhealthy shard to
    /// this shard. Counted on the **recipient** shard.
    pub fn on_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job replayed from a durable journal during crash recovery.
    pub fn on_recovered(&self) {
        self.jobs_recovered.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `entries` cache entries exported into a solution snapshot.
    pub fn on_snapshot_saved(&self, entries: u64) {
        self.snapshot_saved.fetch_add(entries, Ordering::Relaxed);
    }

    /// Records `entries` cache entries restored from a solution snapshot.
    pub fn on_snapshot_loaded(&self, entries: u64) {
        self.snapshot_loaded.fetch_add(entries, Ordering::Relaxed);
    }

    /// Current queue depth, as tracked by [`Self::on_enqueue`] /
    /// [`Self::on_dequeue`]. The cluster's default depth probe reads this
    /// for watermark and migration decisions.
    pub(crate) fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Snapshots every counter into an immutable report. Map-like fields
    /// come out sorted by backend name, so equal states always produce
    /// equal reports. The portfolio-telemetry and trace fields are empty
    /// here — [`crate::service::SolverService::report`] fills them in.
    pub fn report(&self) -> RuntimeReport {
        let per_backend: Vec<(String, u64)> = self
            .per_backend
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(name, &count)| (name.clone(), count))
            .collect();
        let race_wins: Vec<(String, u64)> = self
            .race_wins
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(name, &count)| (name.clone(), count))
            .collect();
        RuntimeReport {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            jobs_coalesced: self.jobs_coalesced.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            backpressure_rejections: self.backpressure_rejections.load(Ordering::Relaxed),
            backpressure_waits: self.backpressure_waits.load(Ordering::Relaxed),
            solve_seconds_total: self.solve_seconds_total_micros.load(Ordering::Relaxed) as f64
                / 1e6,
            served_seconds_total: self.served_seconds_total_micros.load(Ordering::Relaxed) as f64
                / 1e6,
            compile_seconds_saved: self.compile_saved_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            race_jobs: self.race_jobs.load(Ordering::Relaxed),
            jobs_admitted: self.jobs_admitted.load(Ordering::Relaxed),
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            migrations: self.migrations.load(Ordering::Relaxed),
            jobs_run_for_peers: self.jobs_run_for_peers.load(Ordering::Relaxed),
            jobs_retried: self.jobs_retried.load(Ordering::Relaxed),
            retries_exhausted: self.retries_exhausted.load(Ordering::Relaxed),
            deadlines_exceeded: self.deadlines_exceeded.load(Ordering::Relaxed),
            breaker_opened: self.breaker_opened.load(Ordering::Relaxed),
            breaker_half_opened: self.breaker_half_opened.load(Ordering::Relaxed),
            breaker_closed: self.breaker_closed.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            jobs_recovered: self.jobs_recovered.load(Ordering::Relaxed),
            snapshot_saved: self.snapshot_saved.load(Ordering::Relaxed),
            snapshot_loaded: self.snapshot_loaded.load(Ordering::Relaxed),
            latency_histogram: std::array::from_fn(|i| self.latency[i].load(Ordering::Relaxed)),
            served_latency_histogram: std::array::from_fn(|i| {
                self.served_latency[i].load(Ordering::Relaxed)
            }),
            per_backend,
            race_wins,
            backend_telemetry: Vec::new(),
            traces_recorded: 0,
            traces_dropped: 0,
            queue_backlog_seconds: 0.0,
            shard: None,
            shard_queue_depths: Vec::new(),
        }
    }
}

/// Per-backend portfolio telemetry as exposed in [`RuntimeReport`]: the
/// EWMA latency/quality estimates the adaptive router actually routes on.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendTelemetry {
    /// Backend name.
    pub backend: String,
    /// Solve observations folded into the EWMAs.
    pub observations: u64,
    /// Exponentially-weighted moving average solve latency, seconds.
    pub ewma_latency_seconds: f64,
    /// Exponentially-weighted moving average solution quality (lower is
    /// better; infeasible results are penalized).
    pub ewma_quality: f64,
    /// Races this backend was entered into.
    pub race_entries: u64,
    /// Races this backend won.
    pub race_wins: u64,
    /// EWMA of the cost model's predicted latency for this backend's
    /// recent jobs, seconds. Zero until the first calibrated observation.
    pub predicted_seconds: f64,
    /// EWMA of the symmetric prediction error factor
    /// (`max(predicted/actual, actual/predicted)`, so 1.0 is a perfect
    /// prediction and 2.0 is off by 2× in either direction). Zero until
    /// the first calibrated observation.
    pub estimation_error_factor: f64,
}

/// An immutable snapshot of the service's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs answered (solved or served from cache).
    pub jobs_completed: u64,
    /// Jobs that failed routing (no eligible backend).
    pub jobs_failed: u64,
    /// Cancellations that took effect (queued jobs removed before a worker
    /// picked them up, plus running jobs marked to report `Cancelled`).
    /// A job cancelled mid-run counts here and **not** in `jobs_completed`,
    /// even though its solve finished and populated the cache.
    pub jobs_cancelled: u64,
    /// Jobs that coalesced onto a concurrent in-flight duplicate
    /// (single-flight): served from the leader's result without compiling,
    /// solving, or touching the hit/miss counters.
    pub jobs_coalesced: u64,
    /// Jobs served from the result cache.
    pub cache_hits: u64,
    /// Jobs that had to be solved.
    pub cache_misses: u64,
    /// Jobs sitting in the service queue right now.
    pub queue_depth: u64,
    /// Deepest the queue has ever been.
    pub queue_depth_peak: u64,
    /// `Session::try_submit` calls rejected with `QueueFull`.
    pub backpressure_rejections: u64,
    /// Blocking `Session::submit` calls that had to wait for queue space.
    pub backpressure_waits: u64,
    /// Total backend wall time spent solving (cache hits cost none; race
    /// jobs include every participant's time, not just the winner's).
    pub solve_seconds_total: f64,
    /// Total caller-observed enqueue→result time across delivered jobs
    /// (cache hits and coalesced followers included).
    pub served_seconds_total: f64,
    /// Compile time avoided by sharing one compilation per job across every
    /// dispatched backend: a race of k saves k − 1 compiles, a
    /// single-backend job saves none. See [`Metrics::on_compile_shared`].
    pub compile_seconds_saved: f64,
    /// Portfolio-race jobs completed ([`crate::service::BackendChoice::Race`]).
    pub race_jobs: u64,
    /// Jobs that passed cluster admission control and were enqueued here.
    /// Zero outside a [`crate::cluster::ClusterService`].
    pub jobs_admitted: u64,
    /// Jobs shed before enqueue (empty tenant token bucket or queue depth
    /// over the shedding watermark). Shed jobs were never submitted, so
    /// they are in no other ledger bucket.
    pub jobs_shed: u64,
    /// Queued jobs migrated away from this shard to rebalance queue depths
    /// (counted on the donor).
    pub migrations: u64,
    /// Jobs this shard's workers ran for the peer shard that admitted them
    /// (counted on the executing shard). Those jobs' own counters — the
    /// ledger, cache, and latency series — stay on their owner.
    pub jobs_run_for_peers: u64,
    /// Retry attempts: tries re-run after a retryable failure (panic or
    /// injected error) under the service's [`crate::fault::RetryPolicy`].
    pub jobs_retried: u64,
    /// Jobs that still failed retryably after exhausting the retry budget.
    pub retries_exhausted: u64,
    /// Jobs that failed with
    /// [`crate::service::JobError::DeadlineExceeded`].
    pub deadlines_exceeded: u64,
    /// Backend circuit breakers tripped open (threshold reached or a
    /// half-open probe failed). Breaker state and the retry counters above
    /// are the failure-cost telemetry the ROADMAP's cost-aware routing
    /// (item 4) will fold into its per-backend cost model.
    pub breaker_opened: u64,
    /// Open breakers moved to half-open after their cooldown elapsed.
    pub breaker_half_opened: u64,
    /// Tripped breakers re-closed by a success.
    pub breaker_closed: u64,
    /// Jobs routed or drained to this shard because their home shard was
    /// unhealthy (counted on the recipient).
    pub failovers: u64,
    /// Jobs replayed from a durable journal during crash recovery.
    pub jobs_recovered: u64,
    /// Cache entries exported into solution snapshots.
    pub snapshot_saved: u64,
    /// Cache entries restored from solution snapshots.
    pub snapshot_loaded: u64,
    /// Solve-latency histogram; bucket `i` counts solves in
    /// `[2^i, 2^(i+1))` µs. Cache hits and coalesced followers are *not* in
    /// here — see [`Self::served_latency_histogram`].
    pub latency_histogram: [u64; LATENCY_BUCKETS],
    /// Caller-observed serve-latency histogram (same bucketing): one entry
    /// per delivered job — solved, cache hit, or coalesced — measuring
    /// enqueue→result, so its p99 reflects what callers actually wait.
    pub served_latency_histogram: [u64; LATENCY_BUCKETS],
    /// `(backend, jobs solved)` sorted by backend name.
    pub per_backend: Vec<(String, u64)>,
    /// `(backend, races won)` sorted by backend name.
    pub race_wins: Vec<(String, u64)>,
    /// Per-backend EWMA latency/quality telemetry from the portfolio
    /// router, sorted by backend name; backends with zero observations are
    /// omitted. Empty on bare [`Metrics::report`] snapshots — populated by
    /// [`crate::service::SolverService::report`].
    pub backend_telemetry: Vec<BackendTelemetry>,
    /// Job traces recorded over the service's lifetime (retained or
    /// dropped). Zero on bare [`Metrics::report`] snapshots.
    pub traces_recorded: u64,
    /// Job traces lost to ring wraparound or slot contention.
    pub traces_dropped: u64,
    /// Predicted seconds of backend work sitting in the service queue
    /// right now — the sum of every queued job's cost-model prediction.
    /// This, not `queue_depth`, is what watermark shedding and
    /// `retry_after_hint` reason about: ten queued 26-variable exact jobs
    /// are a deeper backlog than a hundred 4-variable anneals. Zero on
    /// bare [`Metrics::report`] snapshots — populated by
    /// [`crate::service::SolverService::report`]; merged reports sum it.
    pub queue_backlog_seconds: f64,
    /// The shard this report describes: `Some(id)` for a shard inside a
    /// [`crate::cluster::ClusterService`], `None` for a standalone service
    /// or a merged cluster report.
    pub shard: Option<u64>,
    /// Per-shard `(shard id, current queue depth)` breakdown, sorted by
    /// shard id. Empty except on reports produced by
    /// [`RuntimeReport::merge`] over shard-tagged inputs.
    pub shard_queue_depths: Vec<(u64, u64)>,
}

impl RuntimeReport {
    /// Merges per-shard reports into one aggregate: counters and seconds
    /// totals sum, histograms sum **bucket-wise** (so the quantile readers
    /// keep working on the merged report), per-backend tables merge by
    /// backend name (staying name-sorted), and EWMA telemetry merges as an
    /// observation-weighted average. `queue_depth` sums; `queue_depth_peak`
    /// also sums, which makes it an upper bound — the shards need not have
    /// peaked simultaneously. The merged report carries `shard: None` and a
    /// per-shard `(shard, queue_depth)` breakdown collected from every
    /// input that was shard-tagged (nested breakdowns from already-merged
    /// inputs are carried through).
    pub fn merge<'a>(reports: impl IntoIterator<Item = &'a RuntimeReport>) -> RuntimeReport {
        let mut merged = RuntimeReport {
            jobs_submitted: 0,
            jobs_completed: 0,
            jobs_failed: 0,
            jobs_cancelled: 0,
            jobs_coalesced: 0,
            cache_hits: 0,
            cache_misses: 0,
            queue_depth: 0,
            queue_depth_peak: 0,
            backpressure_rejections: 0,
            backpressure_waits: 0,
            solve_seconds_total: 0.0,
            served_seconds_total: 0.0,
            compile_seconds_saved: 0.0,
            race_jobs: 0,
            jobs_admitted: 0,
            jobs_shed: 0,
            migrations: 0,
            jobs_run_for_peers: 0,
            jobs_retried: 0,
            retries_exhausted: 0,
            deadlines_exceeded: 0,
            breaker_opened: 0,
            breaker_half_opened: 0,
            breaker_closed: 0,
            failovers: 0,
            jobs_recovered: 0,
            snapshot_saved: 0,
            snapshot_loaded: 0,
            latency_histogram: [0; LATENCY_BUCKETS],
            served_latency_histogram: [0; LATENCY_BUCKETS],
            per_backend: Vec::new(),
            race_wins: Vec::new(),
            backend_telemetry: Vec::new(),
            traces_recorded: 0,
            traces_dropped: 0,
            queue_backlog_seconds: 0.0,
            shard: None,
            shard_queue_depths: Vec::new(),
        };
        let mut per_backend: BTreeMap<String, u64> = BTreeMap::new();
        let mut race_wins: BTreeMap<String, u64> = BTreeMap::new();
        let mut telemetry: BTreeMap<String, BackendTelemetry> = BTreeMap::new();
        for r in reports {
            merged.jobs_submitted += r.jobs_submitted;
            merged.jobs_completed += r.jobs_completed;
            merged.jobs_failed += r.jobs_failed;
            merged.jobs_cancelled += r.jobs_cancelled;
            merged.jobs_coalesced += r.jobs_coalesced;
            merged.cache_hits += r.cache_hits;
            merged.cache_misses += r.cache_misses;
            merged.queue_depth += r.queue_depth;
            merged.queue_depth_peak += r.queue_depth_peak;
            merged.backpressure_rejections += r.backpressure_rejections;
            merged.backpressure_waits += r.backpressure_waits;
            merged.solve_seconds_total += r.solve_seconds_total;
            merged.served_seconds_total += r.served_seconds_total;
            merged.compile_seconds_saved += r.compile_seconds_saved;
            merged.race_jobs += r.race_jobs;
            merged.jobs_admitted += r.jobs_admitted;
            merged.jobs_shed += r.jobs_shed;
            merged.migrations += r.migrations;
            merged.jobs_run_for_peers += r.jobs_run_for_peers;
            merged.jobs_retried += r.jobs_retried;
            merged.retries_exhausted += r.retries_exhausted;
            merged.deadlines_exceeded += r.deadlines_exceeded;
            merged.breaker_opened += r.breaker_opened;
            merged.breaker_half_opened += r.breaker_half_opened;
            merged.breaker_closed += r.breaker_closed;
            merged.failovers += r.failovers;
            merged.jobs_recovered += r.jobs_recovered;
            merged.snapshot_saved += r.snapshot_saved;
            merged.snapshot_loaded += r.snapshot_loaded;
            merged.traces_recorded += r.traces_recorded;
            merged.traces_dropped += r.traces_dropped;
            merged.queue_backlog_seconds += r.queue_backlog_seconds;
            for i in 0..LATENCY_BUCKETS {
                merged.latency_histogram[i] += r.latency_histogram[i];
                merged.served_latency_histogram[i] += r.served_latency_histogram[i];
            }
            for (name, count) in &r.per_backend {
                *per_backend.entry(name.clone()).or_insert(0) += count;
            }
            for (name, count) in &r.race_wins {
                *race_wins.entry(name.clone()).or_insert(0) += count;
            }
            for t in &r.backend_telemetry {
                telemetry
                    .entry(t.backend.clone())
                    .and_modify(|acc| {
                        let (a, b) = (acc.observations as f64, t.observations as f64);
                        if a + b > 0.0 {
                            acc.ewma_latency_seconds = (acc.ewma_latency_seconds * a
                                + t.ewma_latency_seconds * b)
                                / (a + b);
                            acc.ewma_quality =
                                (acc.ewma_quality * a + t.ewma_quality * b) / (a + b);
                            acc.predicted_seconds =
                                (acc.predicted_seconds * a + t.predicted_seconds * b) / (a + b);
                            acc.estimation_error_factor = (acc.estimation_error_factor * a
                                + t.estimation_error_factor * b)
                                / (a + b);
                        }
                        acc.observations += t.observations;
                        acc.race_entries += t.race_entries;
                        acc.race_wins += t.race_wins;
                    })
                    .or_insert_with(|| t.clone());
            }
            if let Some(shard) = r.shard {
                merged.shard_queue_depths.push((shard, r.queue_depth));
            }
            merged.shard_queue_depths.extend(r.shard_queue_depths.iter().copied());
        }
        merged.per_backend = per_backend.into_iter().collect();
        merged.race_wins = race_wins.into_iter().collect();
        merged.backend_telemetry = telemetry.into_values().collect();
        merged.shard_queue_depths.sort_unstable();
        merged
    }

    /// Fraction of answered jobs served from cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let answered = self.cache_hits + self.cache_misses;
        if answered == 0 {
            0.0
        } else {
            self.cache_hits as f64 / answered as f64
        }
    }

    /// Estimated solve-latency quantile in seconds (e.g. `0.5` → p50,
    /// `0.99` → p99) from [`Self::latency_histogram`]; `None` when nothing
    /// has been solved. See [`histogram_quantile`] for bound semantics.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        histogram_quantile(&self.latency_histogram, q)
    }

    /// Estimated caller-observed serve-latency quantile in seconds from
    /// [`Self::served_latency_histogram`]; `None` when nothing has been
    /// delivered.
    pub fn served_latency_quantile(&self, q: f64) -> Option<f64> {
        histogram_quantile(&self.served_latency_histogram, q)
    }

    /// Renders the report in Prometheus text exposition format (version
    /// 0.0.4): every counter as a `qdm_`-prefixed series with `# HELP` /
    /// `# TYPE` headers, both latency histograms as native cumulative
    /// `_bucket{le="..."}` series in seconds, per-backend job/win counters
    /// as labelled series, and the portfolio's per-backend EWMA
    /// latency/quality gauges.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut counter = |name: &str, help: &str, value: f64| {
            out.push_str(&format!(
                "# HELP qdm_{name} {help}\n# TYPE qdm_{name} counter\nqdm_{name} {value}\n"
            ));
        };
        counter(
            "jobs_submitted_total",
            "Jobs accepted into the queue.",
            self.jobs_submitted as f64,
        );
        counter(
            "jobs_completed_total",
            "Jobs answered (solved or served from cache).",
            self.jobs_completed as f64,
        );
        counter(
            "jobs_failed_total",
            "Jobs that failed routing (no eligible backend).",
            self.jobs_failed as f64,
        );
        counter(
            "jobs_cancelled_total",
            "Cancellations that took effect.",
            self.jobs_cancelled as f64,
        );
        counter(
            "jobs_coalesced_total",
            "Jobs coalesced onto a concurrent in-flight duplicate.",
            self.jobs_coalesced as f64,
        );
        counter("cache_hits_total", "Jobs served from the result cache.", self.cache_hits as f64);
        counter("cache_misses_total", "Jobs that had to be solved.", self.cache_misses as f64);
        counter(
            "backpressure_rejections_total",
            "try_submit calls rejected by a full session queue.",
            self.backpressure_rejections as f64,
        );
        counter(
            "backpressure_waits_total",
            "Blocking submit calls that waited for queue space.",
            self.backpressure_waits as f64,
        );
        counter("race_jobs_total", "Portfolio-race jobs completed.", self.race_jobs as f64);
        counter(
            "jobs_retried_total",
            "Retry attempts after retryable failures (panics, injected errors).",
            self.jobs_retried as f64,
        );
        counter(
            "retries_exhausted_total",
            "Jobs that failed retryably after exhausting the retry budget.",
            self.retries_exhausted as f64,
        );
        counter(
            "deadlines_exceeded_total",
            "Jobs that missed their per-job deadline.",
            self.deadlines_exceeded as f64,
        );
        counter(
            "breaker_opened_total",
            "Backend circuit breakers tripped open.",
            self.breaker_opened as f64,
        );
        counter(
            "breaker_half_opened_total",
            "Open breakers moved to half-open after cooldown.",
            self.breaker_half_opened as f64,
        );
        counter(
            "breaker_closed_total",
            "Tripped breakers re-closed by a success.",
            self.breaker_closed as f64,
        );
        counter(
            "compile_seconds_saved_total",
            "Compile time avoided by compile-once sharing.",
            self.compile_seconds_saved,
        );
        counter(
            "traces_recorded_total",
            "Job traces recorded (retained or dropped).",
            self.traces_recorded as f64,
        );
        counter(
            "traces_dropped_total",
            "Job traces lost to ring wraparound or slot contention.",
            self.traces_dropped as f64,
        );
        let mut gauge = |name: &str, help: &str, value: f64| {
            out.push_str(&format!(
                "# HELP qdm_{name} {help}\n# TYPE qdm_{name} gauge\nqdm_{name} {value}\n"
            ));
        };
        gauge(
            "queue_depth",
            "Jobs sitting in the service queue right now.",
            self.queue_depth as f64,
        );
        gauge("queue_depth_peak", "Deepest the queue has ever been.", self.queue_depth_peak as f64);
        gauge(
            "queue_backlog_seconds",
            "Predicted seconds of backend work sitting in the queue right now.",
            self.queue_backlog_seconds,
        );

        // Cluster admission/shedding counters carry the shard id as a label
        // when this report describes one shard of a cluster.
        let shard_label = self.shard.map(|s| format!("{{shard=\"{s}\"}}")).unwrap_or_default();
        for (name, help, value) in [
            (
                "jobs_admitted_total",
                "Jobs that passed cluster admission control and were enqueued.",
                self.jobs_admitted as f64,
            ),
            (
                "jobs_shed_total",
                "Jobs shed before enqueue (token bucket empty or queue over watermark).",
                self.jobs_shed as f64,
            ),
            (
                "migrations_total",
                "Queued jobs migrated between shards to rebalance depth.",
                self.migrations as f64,
            ),
            (
                "jobs_run_for_peers_total",
                "Jobs this shard's workers ran for the peer shard that admitted them.",
                self.jobs_run_for_peers as f64,
            ),
            (
                "failovers_total",
                "Jobs routed or drained here because their home shard was unhealthy.",
                self.failovers as f64,
            ),
            (
                "jobs_recovered_total",
                "Jobs replayed from a durable journal during crash recovery.",
                self.jobs_recovered as f64,
            ),
            (
                "snapshot_saved_entries_total",
                "Cache entries exported into solution snapshots.",
                self.snapshot_saved as f64,
            ),
            (
                "snapshot_loaded_entries_total",
                "Cache entries restored from solution snapshots.",
                self.snapshot_loaded as f64,
            ),
        ] {
            out.push_str(&format!(
                "# HELP qdm_{name} {help}\n# TYPE qdm_{name} counter\nqdm_{name}{shard_label} {value}\n"
            ));
        }
        if !self.shard_queue_depths.is_empty() {
            out.push_str("# HELP qdm_shard_queue_depth Jobs queued on the shard right now.\n");
            out.push_str("# TYPE qdm_shard_queue_depth gauge\n");
            for (shard, depth) in &self.shard_queue_depths {
                out.push_str(&format!("qdm_shard_queue_depth{{shard=\"{shard}\"}} {depth}\n"));
            }
        }

        render_prom_histogram(
            &mut out,
            "solve_latency_seconds",
            "Backend solve wall time per cache-missing job.",
            &self.latency_histogram,
            self.solve_seconds_total,
        );
        render_prom_histogram(
            &mut out,
            "served_latency_seconds",
            "Caller-observed enqueue-to-result time per delivered job.",
            &self.served_latency_histogram,
            self.served_seconds_total,
        );

        out.push_str("# HELP qdm_backend_jobs_total Jobs solved per backend.\n");
        out.push_str("# TYPE qdm_backend_jobs_total counter\n");
        for (name, count) in &self.per_backend {
            out.push_str(&format!("qdm_backend_jobs_total{{backend=\"{name}\"}} {count}\n"));
        }
        out.push_str("# HELP qdm_race_wins_total Races won per backend.\n");
        out.push_str("# TYPE qdm_race_wins_total counter\n");
        for (name, count) in &self.race_wins {
            out.push_str(&format!("qdm_race_wins_total{{backend=\"{name}\"}} {count}\n"));
        }

        let telemetry = [
            (
                "backend_observations_total",
                "counter",
                "Solve observations folded into the backend's EWMAs.",
            ),
            (
                "backend_ewma_latency_seconds",
                "gauge",
                "EWMA solve latency the portfolio router routes on.",
            ),
            (
                "backend_ewma_quality",
                "gauge",
                "EWMA solution quality (lower is better) the router routes on.",
            ),
            ("backend_race_entries_total", "counter", "Races the backend was entered into."),
            (
                "backend_predicted_seconds",
                "gauge",
                "EWMA of the cost model's predicted latency for the backend's recent jobs.",
            ),
            (
                "backend_estimation_error_factor",
                "gauge",
                "EWMA symmetric predicted-vs-actual error factor (1.0 = perfect).",
            ),
        ];
        for (name, kind, help) in telemetry {
            out.push_str(&format!("# HELP qdm_{name} {help}\n# TYPE qdm_{name} {kind}\n"));
            for t in &self.backend_telemetry {
                let value = match name {
                    "backend_observations_total" => t.observations as f64,
                    "backend_ewma_latency_seconds" => t.ewma_latency_seconds,
                    "backend_ewma_quality" => t.ewma_quality,
                    "backend_predicted_seconds" => t.predicted_seconds,
                    "backend_estimation_error_factor" => t.estimation_error_factor,
                    _ => t.race_entries as f64,
                };
                out.push_str(&format!("qdm_{name}{{backend=\"{}\"}} {value}\n", t.backend));
            }
        }
        out
    }
}

fn render_prom_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    histogram: &[u64; LATENCY_BUCKETS],
    sum_seconds: f64,
) {
    out.push_str(&format!("# HELP qdm_{name} {help}\n# TYPE qdm_{name} histogram\n"));
    let mut cumulative = 0u64;
    for (i, &count) in histogram.iter().enumerate().take(LATENCY_BUCKETS - 1) {
        cumulative += count;
        let le = (1u64 << (i + 1)) as f64 / 1e6;
        out.push_str(&format!("qdm_{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    let total = cumulative + histogram[LATENCY_BUCKETS - 1];
    out.push_str(&format!("qdm_{name}_bucket{{le=\"+Inf\"}} {total}\n"));
    out.push_str(&format!("qdm_{name}_sum {sum_seconds}\n"));
    out.push_str(&format!("qdm_{name}_count {total}\n"));
}

impl std::fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "runtime: {} submitted, {} completed, {} failed",
            self.jobs_submitted, self.jobs_completed, self.jobs_failed
        )?;
        writeln!(
            f,
            "cache:   {} hits / {} misses (hit rate {:.1}%), {} coalesced in flight",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_rate(),
            self.jobs_coalesced
        )?;
        writeln!(
            f,
            "queue:   depth {} (peak {}), {} rejected, {} waited, {} cancelled",
            self.queue_depth,
            self.queue_depth_peak,
            self.backpressure_rejections,
            self.backpressure_waits,
            self.jobs_cancelled
        )?;
        if self.jobs_admitted > 0
            || self.jobs_shed > 0
            || self.migrations > 0
            || self.jobs_run_for_peers > 0
        {
            writeln!(
                f,
                "cluster: {} admitted, {} shed, {} migrations, {} run for peers",
                self.jobs_admitted, self.jobs_shed, self.migrations, self.jobs_run_for_peers
            )?;
        }
        if self.jobs_retried > 0 || self.retries_exhausted > 0 || self.deadlines_exceeded > 0 {
            writeln!(
                f,
                "faults:  {} retries, {} exhausted, {} deadline-exceeded",
                self.jobs_retried, self.retries_exhausted, self.deadlines_exceeded
            )?;
        }
        if self.breaker_opened > 0 || self.failovers > 0 {
            writeln!(
                f,
                "degrade: {} breaker opens, {} half-opens, {} closes, {} failovers",
                self.breaker_opened, self.breaker_half_opened, self.breaker_closed, self.failovers
            )?;
        }
        if !self.shard_queue_depths.is_empty() {
            write!(f, "shards: ")?;
            for (shard, depth) in &self.shard_queue_depths {
                write!(f, " [{shard}: depth {depth}]")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "solve:   {:.3}s total backend time", self.solve_seconds_total)?;
        writeln!(f, "compile: {:.6}s saved by compile-once sharing", self.compile_seconds_saved)?;
        if self.traces_recorded > 0 {
            writeln!(
                f,
                "traces:  {} recorded, {} dropped",
                self.traces_recorded, self.traces_dropped
            )?;
        }
        if self.race_jobs > 0 {
            write!(f, "races:   {} jobs; wins:", self.race_jobs)?;
            for (name, wins) in &self.race_wins {
                write!(f, " {name} x{wins}")?;
            }
            writeln!(f)?;
        }
        for (name, count) in &self.per_backend {
            writeln!(f, "backend: {name:<28} {count} jobs")?;
        }
        for t in &self.backend_telemetry {
            writeln!(
                f,
                "ewma:    {:<28} latency {:.6}s quality {:.4} ({} obs)",
                t.backend, t.ewma_latency_seconds, t.ewma_quality, t.observations
            )?;
        }
        let total: u64 = self.latency_histogram.iter().sum();
        if total > 0 {
            write!(f, "latency:")?;
            for (i, &count) in self.latency_histogram.iter().enumerate() {
                if count > 0 {
                    let lo = 1u64 << i;
                    let unit = if lo >= 1_000_000 {
                        format!("{}s", lo / 1_000_000)
                    } else if lo >= 1_000 {
                        format!("{}ms", lo / 1_000)
                    } else {
                        format!("{lo}µs")
                    };
                    write!(f, " [≥{unit}: {count}]")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.on_submit(3);
        m.on_cache_hit();
        m.on_solved("tabu", 0.001);
        m.on_solved("tabu", 0.002);
        let r = m.report();
        assert_eq!(r.jobs_submitted, 3);
        assert_eq!(r.jobs_completed, 3);
        assert_eq!(r.cache_hits, 1);
        assert_eq!(r.cache_misses, 2);
        assert_eq!(r.per_backend, vec![("tabu".to_string(), 2)]);
        assert!((r.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.latency_histogram.iter().sum::<u64>(), 2);
    }

    #[test]
    fn latency_buckets_are_log_scale() {
        let m = Metrics::new();
        m.on_solved("a", 3e-6); // ~3µs → bucket 1 ([2,4)µs)
        m.on_solved("a", 1.0); // 1s = 1e6µs → bucket 19 ([524288, ...)µs)
        let r = m.report();
        assert_eq!(r.latency_histogram[1], 1);
        assert_eq!(r.latency_histogram[19], 1);
    }

    #[test]
    fn served_latency_tracks_every_delivery_separately_from_solves() {
        let m = Metrics::new();
        // One real solve, one cache hit, one coalesced follower — but all
        // three were *delivered*, so all three land in the served series.
        m.on_solved("tabu", 0.004);
        m.on_served(0.004);
        m.on_cache_hit();
        m.on_served(3e-6);
        m.on_coalesced();
        m.on_coalesced_served();
        m.on_served(5e-6);
        let r = m.report();
        assert_eq!(r.latency_histogram.iter().sum::<u64>(), 1, "only the miss hit a backend");
        assert_eq!(r.served_latency_histogram.iter().sum::<u64>(), 3);
        assert_eq!(r.served_latency_histogram[1], 1); // 3µs cache hit
        assert_eq!(r.served_latency_histogram[2], 1); // 5µs coalesced
        assert_eq!(r.served_latency_histogram[11], 1); // 4ms solve
        assert!((r.served_seconds_total - 0.004008).abs() < 1e-6);
    }

    #[test]
    fn quantiles_pin_bucket_boundary_math() {
        // A single 1µs observation: micros=1 → bucket 0 ([1,2)µs); every
        // quantile reports the bucket's upper bound 2µs.
        let m = Metrics::new();
        m.on_solved("a", 1e-6);
        let r = m.report();
        assert_eq!(r.latency_quantile(0.5), Some(2e-6));
        assert_eq!(r.latency_quantile(0.99), Some(2e-6));

        // Exact powers of two land in the bucket they open: 2^11 µs = 2048µs
        // → bucket 11 ([2048, 4096)µs) → upper bound 4096µs.
        let m = Metrics::new();
        m.on_solved("a", 2048e-6);
        assert_eq!(m.report().latency_quantile(0.5), Some(4096e-6));

        // The open-ended last bucket reports its *lower* bound: anything
        // ≥ 2^23 µs (= 8.388608s) has no finite upper bound.
        let m = Metrics::new();
        m.on_solved("a", 3600.0);
        assert_eq!(m.report().latency_quantile(0.99), Some((1u64 << 23) as f64 / 1e6));

        // Rank math across buckets: 9 fast (bucket 0) + 1 slow (bucket 11).
        // p50 rank = ceil(0.5*10) = 5 → bucket 0; p99 rank = 10 → bucket 11.
        let m = Metrics::new();
        for _ in 0..9 {
            m.on_solved("a", 1e-6);
        }
        m.on_solved("a", 3000e-6);
        let r = m.report();
        assert_eq!(r.latency_quantile(0.5), Some(2e-6));
        assert_eq!(r.latency_quantile(0.90), Some(2e-6), "rank 9 is still the fast bucket");
        assert_eq!(r.latency_quantile(0.99), Some(4096e-6));

        // Degenerate q values clamp instead of panicking.
        assert_eq!(r.latency_quantile(-1.0), Some(2e-6), "q<0 clamps to min rank");
        assert_eq!(r.latency_quantile(2.0), Some(4096e-6), "q>1 clamps to max rank");

        // Empty histograms have no quantiles.
        assert_eq!(Metrics::new().report().latency_quantile(0.5), None);
        assert_eq!(Metrics::new().report().served_latency_quantile(0.5), None);
    }

    #[test]
    fn queue_and_backpressure_counters_accumulate() {
        let m = Metrics::new();
        m.on_enqueue();
        m.on_enqueue();
        m.on_dequeue();
        m.on_backpressure_rejection();
        m.on_backpressure_wait();
        m.on_cancelled();
        let r = m.report();
        assert_eq!(r.queue_depth, 1);
        assert_eq!(r.queue_depth_peak, 2);
        assert_eq!(r.backpressure_rejections, 1);
        assert_eq!(r.backpressure_waits, 1);
        assert_eq!(r.jobs_cancelled, 1);
        assert!(r.to_string().contains("depth 1 (peak 2)"));
    }

    #[test]
    fn compile_and_race_counters_accumulate() {
        let m = Metrics::new();
        m.on_compile_shared(0.001, 5); // one compile served 5 consumers: 4ms saved
        m.on_compile_shared(0.002, 1); // sole consumer: nothing saved
        m.on_race("tabu");
        m.on_race("tabu");
        m.on_race("simulated-annealing");
        m.on_race_participant_time(0.25); // a losing participant's solve time
        let r = m.report();
        assert!((r.compile_seconds_saved - 0.004).abs() < 1e-6, "{}", r.compile_seconds_saved);
        assert!((r.solve_seconds_total - 0.25).abs() < 1e-6, "{}", r.solve_seconds_total);
        assert_eq!(r.race_jobs, 3);
        // Name-sorted snapshot: "simulated-annealing" < "tabu".
        assert_eq!(r.race_wins[0], ("simulated-annealing".to_string(), 1));
        assert_eq!(r.race_wins[1], ("tabu".to_string(), 2));
        let text = r.to_string();
        assert!(text.contains("races:   3 jobs"), "{text}");
        assert!(text.contains("compile:"), "{text}");
    }

    #[test]
    fn snapshots_are_deterministically_name_sorted() {
        let m = Metrics::new();
        for backend in ["zeta", "alpha", "mid", "alpha"] {
            m.on_solved(backend, 1e-3);
            m.on_race(backend);
        }
        let r = m.report();
        let names: Vec<&str> = r.per_backend.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(r.per_backend[0].1, 2);
        let win_names: Vec<&str> = r.race_wins.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(win_names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(m.report(), r, "repeated snapshots of the same state are identical");
    }

    #[test]
    fn coalesced_and_cancel_conversion_keep_the_ledger_consistent() {
        let m = Metrics::new();
        m.on_submit(3);
        // Job 1: solved normally. Job 2: coalesced onto job 1. Job 3:
        // solved, but its cancel raced the run and won.
        m.on_solved("tabu", 0.001);
        m.on_coalesced();
        m.on_coalesced_served();
        m.on_solved("tabu", 0.002);
        m.on_cancelled();
        m.on_completion_converted_to_cancel();
        let r = m.report();
        assert_eq!(r.jobs_submitted, 3);
        assert_eq!(r.jobs_completed, 2, "the cancelled job must not stay counted completed");
        assert_eq!(r.jobs_cancelled, 1);
        assert_eq!(r.jobs_coalesced, 1);
        assert_eq!(r.cache_misses, 2, "coalescing never consults the cache");
        assert_eq!(r.cache_hits, 0);
        assert_eq!(
            r.jobs_completed + r.jobs_failed + r.jobs_cancelled,
            r.jobs_submitted,
            "every job lands in exactly one ledger bucket"
        );
        assert!(r.to_string().contains("1 coalesced in flight"), "{r}");
    }

    #[test]
    fn admission_counters_accumulate_and_render() {
        let m = Metrics::new();
        m.on_admitted();
        m.on_admitted();
        m.on_shed();
        m.on_migrated();
        m.on_run_for_peer();
        let mut r = m.report();
        assert_eq!(r.jobs_admitted, 2);
        assert_eq!(r.jobs_shed, 1);
        assert_eq!(r.migrations, 1);
        assert_eq!(r.jobs_run_for_peers, 1);
        assert_eq!(r.shard, None);
        let text = r.render_prometheus();
        assert!(text.contains("qdm_jobs_admitted_total 2\n"), "{text}");
        assert!(text.contains("qdm_jobs_shed_total 1\n"), "{text}");
        assert!(text.contains("qdm_migrations_total 1\n"), "{text}");
        assert!(text.contains("qdm_jobs_run_for_peers_total 1\n"), "{text}");
        assert!(
            r.to_string().contains("cluster: 2 admitted, 1 shed, 1 migrations, 1 run for peers"),
            "{r}"
        );

        // Shard-tagged reports label the cluster counters.
        r.shard = Some(3);
        let text = r.render_prometheus();
        assert!(text.contains("qdm_jobs_admitted_total{shard=\"3\"} 2\n"), "{text}");
        assert!(text.contains("qdm_jobs_shed_total{shard=\"3\"} 1\n"), "{text}");
        assert!(text.contains("qdm_migrations_total{shard=\"3\"} 1\n"), "{text}");
        assert!(text.contains("qdm_jobs_run_for_peers_total{shard=\"3\"} 1\n"), "{text}");
    }

    #[test]
    fn merge_sums_counters_histograms_and_tables() {
        let a = Metrics::new();
        a.on_submit(2);
        a.on_solved("tabu", 1e-6); // bucket 0
        a.on_served(1e-6);
        a.on_cache_hit();
        a.on_served(3e-6);
        a.on_enqueue();
        a.on_admitted();
        a.on_admitted();
        a.on_shed();
        let b = Metrics::new();
        b.on_submit(1);
        b.on_solved("tabu", 3000e-6); // bucket 11
        b.on_solved("simulated-annealing", 1e-6);
        b.on_served(3000e-6);
        b.on_migrated();
        a.on_run_for_peer();
        b.on_run_for_peer();
        let mut ra = a.report();
        ra.shard = Some(0);
        let mut rb = b.report();
        rb.shard = Some(1);

        let merged = RuntimeReport::merge([&ra, &rb]);
        assert_eq!(merged.jobs_submitted, 3);
        assert_eq!(merged.jobs_completed, 4);
        assert_eq!(merged.cache_hits, 1);
        assert_eq!(merged.cache_misses, 3);
        assert_eq!(merged.jobs_admitted, 2);
        assert_eq!(merged.jobs_shed, 1);
        assert_eq!(merged.migrations, 1);
        assert_eq!(merged.jobs_run_for_peers, 2);
        assert_eq!(merged.queue_depth, 1);
        assert_eq!(merged.shard, None);
        assert_eq!(merged.shard_queue_depths, vec![(0, 1), (1, 0)]);
        // Per-backend tables merge by name and stay name-sorted.
        assert_eq!(
            merged.per_backend,
            vec![("simulated-annealing".to_string(), 1), ("tabu".to_string(), 2)]
        );
        // Histograms summed bucket-wise: the quantile readers keep working.
        assert_eq!(merged.latency_histogram.iter().sum::<u64>(), 3);
        assert_eq!(merged.latency_histogram[0], 2);
        assert_eq!(merged.latency_histogram[11], 1);
        // p50 rank = ceil(0.5*3) = 2 → bucket 0 (upper bound 2µs); p99 rank
        // = 3 → bucket 11 (upper bound 4096µs). Neither shard alone has
        // this shape, so these quantiles only come out of a correct merge.
        assert_eq!(merged.latency_quantile(0.5), Some(2e-6));
        assert_eq!(merged.latency_quantile(0.99), Some(4096e-6));
        assert_eq!(merged.served_latency_histogram.iter().sum::<u64>(), 3);
        assert_eq!(merged.served_latency_quantile(0.99), Some(4096e-6));

        // A merged report can be merged again; the shard breakdown nests.
        let rc = Metrics::new().report();
        let twice = RuntimeReport::merge([&merged, &rc]);
        assert_eq!(twice.jobs_submitted, 3);
        assert_eq!(twice.shard_queue_depths, vec![(0, 1), (1, 0)]);

        // Empty merge is the all-zero report.
        assert_eq!(RuntimeReport::merge([]).jobs_submitted, 0);
        assert_eq!(RuntimeReport::merge([]).latency_quantile(0.5), None);
    }

    #[test]
    fn merge_averages_telemetry_by_observations() {
        let mut ra = Metrics::new().report();
        ra.backend_telemetry = vec![BackendTelemetry {
            backend: "tabu".to_string(),
            observations: 3,
            ewma_latency_seconds: 0.001,
            ewma_quality: 1.0,
            race_entries: 2,
            race_wins: 1,
            predicted_seconds: 0.002,
            estimation_error_factor: 2.0,
        }];
        ra.queue_backlog_seconds = 1.5;
        let mut rb = Metrics::new().report();
        rb.backend_telemetry = vec![
            BackendTelemetry {
                backend: "simulated-annealing".to_string(),
                observations: 5,
                ewma_latency_seconds: 0.004,
                ewma_quality: 2.0,
                race_entries: 0,
                race_wins: 0,
                predicted_seconds: 0.004,
                estimation_error_factor: 1.0,
            },
            BackendTelemetry {
                backend: "tabu".to_string(),
                observations: 1,
                ewma_latency_seconds: 0.005,
                ewma_quality: 3.0,
                race_entries: 1,
                race_wins: 1,
                predicted_seconds: 0.006,
                estimation_error_factor: 6.0,
            },
        ];
        rb.queue_backlog_seconds = 0.25;
        let merged = RuntimeReport::merge([&ra, &rb]);
        assert_eq!(merged.backend_telemetry.len(), 2);
        let names: Vec<&str> =
            merged.backend_telemetry.iter().map(|t| t.backend.as_str()).collect();
        assert_eq!(names, vec!["simulated-annealing", "tabu"], "telemetry stays name-sorted");
        let tabu = &merged.backend_telemetry[1];
        assert_eq!(tabu.observations, 4);
        assert_eq!(tabu.race_entries, 3);
        assert_eq!(tabu.race_wins, 2);
        // Observation-weighted: (0.001*3 + 0.005*1) / 4 = 0.002.
        assert!((tabu.ewma_latency_seconds - 0.002).abs() < 1e-12);
        assert!((tabu.ewma_quality - 1.5).abs() < 1e-12);
        // The cost-model gauges fold with the same observation weights:
        // predicted (0.002*3 + 0.006*1) / 4 = 0.003, error (2*3 + 6*1) / 4
        // = 3. A shard with few observations cannot drag the aggregate.
        assert!((tabu.predicted_seconds - 0.003).abs() < 1e-12);
        assert!((tabu.estimation_error_factor - 3.0).abs() < 1e-12);
        let sa = &merged.backend_telemetry[0];
        assert!((sa.predicted_seconds - 0.004).abs() < 1e-12, "singleton folds unchanged");
        assert!((sa.estimation_error_factor - 1.0).abs() < 1e-12);
        // Backlog is additive across shards: queued work is queued work.
        assert!((merged.queue_backlog_seconds - 1.75).abs() < 1e-12);
    }

    #[test]
    fn merged_reports_render_shard_depth_gauges() {
        let a = Metrics::new();
        a.on_enqueue();
        a.on_enqueue();
        let mut ra = a.report();
        ra.shard = Some(0);
        let mut rb = Metrics::new().report();
        rb.shard = Some(1);
        let merged = RuntimeReport::merge([&ra, &rb]);
        let text = merged.render_prometheus();
        assert!(text.contains("qdm_shard_queue_depth{shard=\"0\"} 2\n"), "{text}");
        assert!(text.contains("qdm_shard_queue_depth{shard=\"1\"} 0\n"), "{text}");
        // The merged report's own cluster counters are unlabeled.
        assert!(text.contains("qdm_jobs_shed_total 0\n"), "{text}");
    }

    #[test]
    fn prometheus_rendering_parses_line_by_line() {
        let m = Metrics::new();
        m.on_submit(4);
        m.on_cache_hit();
        m.on_served(1e-6);
        m.on_solved("tabu", 0.004);
        m.on_served(0.004);
        m.on_race("tabu");
        let mut r = m.report();
        r.backend_telemetry = vec![BackendTelemetry {
            backend: "tabu".to_string(),
            observations: 1,
            ewma_latency_seconds: 0.004,
            ewma_quality: 0.25,
            race_entries: 1,
            race_wins: 1,
            predicted_seconds: 0.005,
            estimation_error_factor: 1.25,
        }];
        r.traces_recorded = 2;
        let text = r.render_prometheus();

        let mut samples = 0usize;
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines in exposition");
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP qdm_") || rest.starts_with("TYPE qdm_"),
                    "bad comment line: {line}"
                );
                if let Some(type_line) = rest.strip_prefix("TYPE qdm_") {
                    let kind = type_line.split_whitespace().nth(1).unwrap();
                    assert!(
                        ["counter", "gauge", "histogram"].contains(&kind),
                        "bad metric type: {line}"
                    );
                }
                continue;
            }
            // Sample line: name[{labels}] value
            let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
            value.parse::<f64>().unwrap_or_else(|_| panic!("unparsable value in: {line}"));
            let name = name_part.split('{').next().unwrap();
            assert!(name.starts_with("qdm_"), "unprefixed metric: {line}");
            if let Some(labels) = name_part.strip_prefix(name) {
                if !labels.is_empty() {
                    assert!(labels.starts_with('{') && labels.ends_with('}'), "bad labels: {line}");
                }
            }
            samples += 1;
        }
        assert!(samples > 40, "expected a full exposition, got {samples} samples");

        // The specific series the scrape must carry.
        assert!(text.contains("qdm_jobs_submitted_total 4\n"), "{text}");
        assert!(text.contains("qdm_cache_hits_total 1\n"), "{text}");
        assert!(text.contains("qdm_backend_jobs_total{backend=\"tabu\"} 1\n"), "{text}");
        assert!(text.contains("qdm_race_wins_total{backend=\"tabu\"} 1\n"), "{text}");
        assert!(text.contains("qdm_backend_ewma_latency_seconds{backend=\"tabu\"} 0.004\n"));
        assert!(text.contains("qdm_backend_ewma_quality{backend=\"tabu\"} 0.25\n"));
        assert!(text.contains("qdm_backend_predicted_seconds{backend=\"tabu\"} 0.005\n"));
        assert!(text.contains("qdm_backend_estimation_error_factor{backend=\"tabu\"} 1.25\n"));
        assert!(text.contains("qdm_queue_backlog_seconds 0\n"));
        assert!(text.contains("qdm_traces_recorded_total 2\n"));

        // Histogram shape: cumulative buckets ending in +Inf == _count.
        let inf_solve: u64 = text
            .lines()
            .find(|l| l.starts_with("qdm_solve_latency_seconds_bucket{le=\"+Inf\"}"))
            .and_then(|l| l.rsplit_once(' '))
            .map(|(_, v)| v.parse().unwrap())
            .unwrap();
        assert_eq!(inf_solve, 1);
        assert!(text.contains("qdm_solve_latency_seconds_count 1\n"));
        assert!(text.contains("qdm_served_latency_seconds_count 2\n"));
        // 4ms solve: cumulative count reaches 1 by the le="0.008192" bucket.
        assert!(text.contains("qdm_solve_latency_seconds_bucket{le=\"0.008192\"} 1\n"), "{text}");
        // Buckets are cumulative: the le="0.000002" served bucket already
        // holds the 1µs cache hit.
        assert!(text.contains("qdm_served_latency_seconds_bucket{le=\"0.000002\"} 1\n"), "{text}");
    }
}
