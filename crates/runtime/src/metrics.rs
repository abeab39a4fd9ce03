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

/// Maps a counter-table row's kind column to its Prometheus `# TYPE`.
macro_rules! series_type {
    (counter) => {
        "counter"
    };
    (gauge) => {
        "gauge"
    };
}

/// Maps a counter-table row's optional label column to whether the series
/// carries the `shard` label on a shard-tagged report.
macro_rules! shard_labelled {
    () => {
        false
    };
    (shard) => {
        true
    };
}

/// Declares the scalar counter table and the [`RuntimeReport`] around it.
/// Each row reads
///
/// ```text
/// /// rustdoc, shared by the enum variant and the report field
/// Variant field: kind [label], "prometheus_name", "HELP text";
/// ```
///
/// where `kind` is `counter` or `gauge` and the optional `[shard]` label
/// marks series that carry the shard id. From the rows come the [`Counter`]
/// enum, the leading `u64` fields of [`RuntimeReport`] (the hand-written
/// fields follow them), and the exposition columns
/// [`RuntimeReport::render_prometheus`] iterates, in row order.
macro_rules! counter_table {
    (
        counters {
            $(
                $(#[doc = $doc:literal])*
                $variant:ident $field:ident: $kind:ident $([$label:ident])?, $name:literal,
                    $help:literal;
            )*
        }
        $(#[$report_attr:meta])*
        pub struct RuntimeReport { $($report_fields:tt)* }
    ) => {
        /// A scalar runtime counter: bumped through [`Metrics::inc`] /
        /// [`Metrics::add`], read back as the [`RuntimeReport`] field of the
        /// same name.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])* $variant,)*
        }

        const COUNTERS: usize = [$(Counter::$variant),*].len();

        /// Each [`Counter`]'s exposition columns, indexed by the counter.
        const ROWS: [Row; COUNTERS] = [$(Row {
            name: $name,
            help: $help,
            kind: series_type!($kind),
            sharded: shard_labelled!($($label)?),
        }),*];

        $(#[$report_attr])*
        pub struct RuntimeReport {
            $($(#[doc = $doc])* pub $field: u64,)*
            $($report_fields)*
        }

        impl RuntimeReport {
            /// Every table counter's value, indexed by [`Counter`].
            fn counters(&self) -> [u64; COUNTERS] {
                [$(self.$field),*]
            }

            /// Every table counter's field, indexed by [`Counter`].
            fn counters_mut(&mut self) -> [&mut u64; COUNTERS] {
                [$(&mut self.$field),*]
            }
        }
    };
}

/// One counter-table row's exposition columns: the Prometheus name (the
/// `qdm_` prefix is added on render), its HELP text, its `# TYPE`, and
/// whether a shard-tagged report labels it with the shard id.
struct Row {
    name: &'static str,
    help: &'static str,
    kind: &'static str,
    sharded: bool,
}

/// Thread-safe runtime counters, updated by workers as jobs complete.
#[derive(Default)]
pub struct Metrics {
    counters: [AtomicU64; COUNTERS],
    latency: [AtomicU64; LATENCY_BUCKETS],
    served_latency: [AtomicU64; LATENCY_BUCKETS],
    solve_seconds_total_micros: AtomicU64,
    served_seconds_total_micros: AtomicU64,
    per_backend: Mutex<BTreeMap<String, u64>>,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one to `counter`.
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Takes one back from `counter`: a job leaving the queue
    /// ([`Counter::QueueDepth`]), or a ledger entry the job turned out not
    /// to belong in after all.
    pub fn dec(&self, counter: Counter) {
        self.counters[counter as usize].fetch_sub(1, Ordering::Relaxed);
    }

    /// The current value of `counter`. The cluster's default depth probe
    /// reads [`Counter::QueueDepth`] for watermark shedding.
    pub(crate) fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Records a job served from the result cache.
    pub fn on_cache_hit(&self) {
        self.inc(Counter::CacheHits);
        self.inc(Counter::JobsCompleted);
    }

    /// Records a job that missed the cache and was solved on `backend` in
    /// `seconds` of wall time.
    pub fn on_solved(&self, backend: &str, seconds: f64) {
        self.inc(Counter::CacheMisses);
        self.inc(Counter::JobsCompleted);
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

    /// Records a job entering the service queue, tracking the depth peak.
    pub fn on_enqueue(&self) {
        let depth = self.counters[Counter::QueueDepth as usize].fetch_add(1, Ordering::Relaxed) + 1;
        self.counters[Counter::QueueDepthPeak as usize].fetch_max(depth, Ordering::Relaxed);
    }

    /// Snapshots every counter into an immutable report. The per-backend
    /// table comes out sorted by backend name, so equal states always
    /// produce equal reports. The portfolio-telemetry and trace fields are
    /// empty here — [`crate::service::SolverService::report`] fills them in.
    pub fn report(&self) -> RuntimeReport {
        let per_backend = self.per_backend.lock_unpoisoned();
        let mut report = RuntimeReport {
            solve_seconds_total: self.solve_seconds_total_micros.load(Ordering::Relaxed) as f64
                / 1e6,
            served_seconds_total: self.served_seconds_total_micros.load(Ordering::Relaxed) as f64
                / 1e6,
            latency_histogram: std::array::from_fn(|i| self.latency[i].load(Ordering::Relaxed)),
            served_latency_histogram: std::array::from_fn(|i| {
                self.served_latency[i].load(Ordering::Relaxed)
            }),
            per_backend: per_backend.iter().map(|(name, &count)| (name.clone(), count)).collect(),
            ..RuntimeReport::default()
        };
        for (field, counter) in report.counters_mut().into_iter().zip(&self.counters) {
            *field = counter.load(Ordering::Relaxed);
        }
        report
    }
}

/// Per-backend portfolio telemetry as exposed in [`RuntimeReport`]: the
/// router's latency and quality EWMAs (it routes on the quality EWMA and
/// prices latency through the calibrated cost model).
#[derive(Debug, Clone, PartialEq)]
pub struct BackendTelemetry {
    /// Backend name.
    pub backend: String,
    /// Solve observations folded into the EWMAs.
    pub observations: u64,
    /// Exponentially-weighted moving average solve latency, seconds.
    /// Telemetry only: routing prices latency through the calibrated cost
    /// model ([`BackendTelemetry::predicted_seconds`]).
    pub ewma_latency_seconds: f64,
    /// Exponentially-weighted moving average solution quality (lower is
    /// better; infeasible results are penalized).
    pub ewma_quality: f64,
    /// EWMA of the cost model's predicted latency for this backend's
    /// recent jobs, seconds. Zero until the first calibrated observation.
    pub predicted_seconds: f64,
    /// EWMA of the symmetric prediction error factor
    /// (`max(predicted/actual, actual/predicted)`, so 1.0 is a perfect
    /// prediction and 2.0 is off by 2× in either direction). Zero until
    /// the first calibrated observation.
    pub estimation_error_factor: f64,
}

counter_table! {
    counters {
        /// Jobs accepted into the queue.
        JobsSubmitted jobs_submitted: counter, "jobs_submitted_total",
            "Jobs accepted into the queue.";
        /// Jobs answered (solved or served from cache).
        JobsCompleted jobs_completed: counter, "jobs_completed_total",
            "Jobs answered (solved or served from cache).";
        /// Jobs that failed: no eligible backend, a panic or injected error
        /// the retry policy could not absorb, or a missed deadline.
        JobsFailed jobs_failed: counter, "jobs_failed_total",
            "Jobs that failed routing (no eligible backend).";
        /// Cancellations that took effect (queued jobs removed before a worker
        /// picked them up, plus running jobs marked to report `Cancelled`).
        /// A job cancelled mid-run counts here and **not** in `jobs_completed`,
        /// even though its solve finished and populated the cache.
        JobsCancelled jobs_cancelled: counter, "jobs_cancelled_total",
            "Cancellations that took effect.";
        /// Jobs that coalesced onto a concurrent in-flight duplicate
        /// (single-flight): served from the leader's result without compiling,
        /// solving, or touching the hit/miss counters. Counted at park time
        /// and taken back if the leader vanished without publishing.
        JobsCoalesced jobs_coalesced: counter, "jobs_coalesced_total",
            "Jobs coalesced onto a concurrent in-flight duplicate.";
        /// Jobs served from the result cache.
        CacheHits cache_hits: counter, "cache_hits_total", "Jobs served from the result cache.";
        /// Jobs that had to be solved.
        CacheMisses cache_misses: counter, "cache_misses_total", "Jobs that had to be solved.";
        /// `Session::try_submit` calls rejected with `QueueFull`.
        BackpressureRejections backpressure_rejections: counter, "backpressure_rejections_total",
            "try_submit calls rejected by a full session queue.";
        /// Blocking `Session::submit` calls that had to wait for queue space.
        BackpressureWaits backpressure_waits: counter, "backpressure_waits_total",
            "Blocking submit calls that waited for queue space.";
        /// Retry attempts: tries re-run after a retryable failure (panic or
        /// injected error) under the service's [`crate::fault::RetryPolicy`].
        JobsRetried jobs_retried: counter, "jobs_retried_total",
            "Retry attempts after retryable failures (panics, injected errors).";
        /// Jobs that still failed retryably after exhausting the retry budget.
        RetriesExhausted retries_exhausted: counter, "retries_exhausted_total",
            "Jobs that failed retryably after exhausting the retry budget.";
        /// Jobs that failed with
        /// [`crate::service::JobError::DeadlineExceeded`].
        DeadlinesExceeded deadlines_exceeded: counter, "deadlines_exceeded_total",
            "Jobs that missed their per-job deadline.";
        /// Backend circuit breakers tripped open (threshold reached or a
        /// half-open probe failed). Cost-aware routing already prices this
        /// state in: the portfolio's ranking discounts an open or half-open
        /// backend's capacity.
        BreakerOpened breaker_opened: counter, "breaker_opened_total",
            "Backend circuit breakers tripped open.";
        /// Open breakers moved to half-open after their cooldown elapsed.
        BreakerHalfOpened breaker_half_opened: counter, "breaker_half_opened_total",
            "Open breakers moved to half-open after cooldown.";
        /// Tripped breakers re-closed by a success.
        BreakerClosed breaker_closed: counter, "breaker_closed_total",
            "Tripped breakers re-closed by a success.";
        /// Jobs sitting in the service queue right now.
        QueueDepth queue_depth: gauge, "queue_depth", "Jobs sitting in the service queue right now.";
        /// Deepest the queue has ever been.
        QueueDepthPeak queue_depth_peak: gauge, "queue_depth_peak",
            "Deepest the queue has ever been.";
        /// Jobs that passed cluster admission control and were enqueued here.
        /// Zero outside a [`crate::cluster::ClusterService`].
        JobsAdmitted jobs_admitted: counter [shard], "jobs_admitted_total",
            "Jobs that passed cluster admission control and were enqueued.";
        /// Jobs shed before enqueue (empty tenant token bucket or queue depth
        /// over the shedding watermark). Shed jobs were never submitted, so
        /// they are in no other ledger bucket.
        JobsShed jobs_shed: counter [shard], "jobs_shed_total",
            "Jobs shed before enqueue (token bucket empty or queue over watermark).";
        /// Always 0: a cluster's shards share one run queue, so no queued
        /// job moves between them. The row stays for readers of the series
        /// and goes with
        /// [`crate::cluster::ClusterConfig::migration_threshold`].
        Migrations migrations: counter [shard], "migrations_total",
            "Always 0: shards share one run queue, so no queued job migrates.";
        /// Jobs this shard's workers ran for the peer shard that admitted them
        /// (counted on the executing shard). Those jobs' own counters — the
        /// ledger, cache, and latency series — stay on their owner.
        JobsRunForPeers jobs_run_for_peers: counter [shard], "jobs_run_for_peers_total",
            "Jobs this shard's workers ran for the peer shard that admitted them.";
        /// Submissions routed to this shard because their ring owner was
        /// unhealthy (counted on the recipient). Routing is the only
        /// failover: jobs already queued stay with their owner.
        Failovers failovers: counter [shard], "failovers_total",
            "Submissions routed here because their ring owner was unhealthy.";
        /// Jobs replayed from a durable journal during crash recovery.
        JobsRecovered jobs_recovered: counter [shard], "jobs_recovered_total",
            "Jobs replayed from a durable journal during crash recovery.";
        /// Cache entries exported into solution snapshots.
        SnapshotSaved snapshot_saved: counter [shard], "snapshot_saved_entries_total",
            "Cache entries exported into solution snapshots.";
        /// Cache entries restored from solution snapshots.
        SnapshotLoaded snapshot_loaded: counter [shard], "snapshot_loaded_entries_total",
            "Cache entries restored from solution snapshots.";
    }

    /// An immutable snapshot of the service's counters: the counter table's
    /// fields above, then the seconds totals, histograms, per-backend tables
    /// and the fields the service fills in.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct RuntimeReport {
        /// Total backend wall time spent solving (cache hits cost none).
        pub solve_seconds_total: f64,
        /// Total caller-observed enqueue→result time across delivered jobs
        /// (cache hits and coalesced followers included).
        pub served_seconds_total: f64,
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
        let mut merged = RuntimeReport::default();
        let mut per_backend: BTreeMap<String, u64> = BTreeMap::new();
        let mut telemetry: BTreeMap<String, BackendTelemetry> = BTreeMap::new();
        for r in reports {
            for (sum, value) in merged.counters_mut().into_iter().zip(r.counters()) {
                *sum += value;
            }
            merged.solve_seconds_total += r.solve_seconds_total;
            merged.served_seconds_total += r.served_seconds_total;
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
            for t in &r.backend_telemetry {
                telemetry
                    .entry(t.backend.clone())
                    .and_modify(|acc| {
                        let (a, b) = (acc.observations as f64, t.observations as f64);
                        if a + b > 0.0 {
                            let avg = |x: f64, y: f64| (x * a + y * b) / (a + b);
                            acc.ewma_latency_seconds =
                                avg(acc.ewma_latency_seconds, t.ewma_latency_seconds);
                            acc.ewma_quality = avg(acc.ewma_quality, t.ewma_quality);
                            acc.predicted_seconds = avg(acc.predicted_seconds, t.predicted_seconds);
                            acc.estimation_error_factor =
                                avg(acc.estimation_error_factor, t.estimation_error_factor);
                        }
                        acc.observations += t.observations;
                    })
                    .or_insert_with(|| t.clone());
            }
            if let Some(shard) = r.shard {
                merged.shard_queue_depths.push((shard, r.queue_depth));
            }
            merged.shard_queue_depths.extend(r.shard_queue_depths.iter().copied());
        }
        merged.per_backend = per_backend.into_iter().collect();
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
    /// `_bucket{le="..."}` series in seconds, per-backend job counters
    /// as labelled series, and the portfolio's per-backend EWMA
    /// latency/quality gauges.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let hand_filled = [
            (
                "counter",
                "traces_recorded_total",
                "Job traces recorded (retained or dropped).",
                self.traces_recorded as f64,
            ),
            (
                "counter",
                "traces_dropped_total",
                "Job traces lost to ring wraparound or slot contention.",
                self.traces_dropped as f64,
            ),
            (
                "gauge",
                "queue_backlog_seconds",
                "Predicted seconds of backend work sitting in the queue right now.",
                self.queue_backlog_seconds,
            ),
        ];
        let mut series: Vec<_> = ROWS
            .iter()
            .zip(self.counters())
            .map(|(row, value)| (row.kind, row.sharded, row.name, row.help, value as f64))
            .chain(hand_filled.map(|(kind, name, help, value)| (kind, false, name, help, value)))
            .collect();
        // Unlabelled counters, then gauges, then the counters that carry
        // the shard id on a shard-tagged report. The sort is stable: table
        // rows keep their order, and the hand-filled series close a group.
        series.sort_by_key(|&(kind, sharded, ..)| (sharded, kind == "gauge"));
        let shard_label = self.shard.map(|s| format!("{{shard=\"{s}\"}}")).unwrap_or_default();
        for (kind, sharded, name, help, value) in series {
            let labels = if sharded { shard_label.as_str() } else { "" };
            out.push_str(&format!(
                "# HELP qdm_{name} {help}\n# TYPE qdm_{name} {kind}\nqdm_{name}{labels} {value}\n"
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

        type Gauge = fn(&BackendTelemetry) -> f64;
        let telemetry: [(&str, &str, &str, Gauge); 5] = [
            (
                "backend_observations_total",
                "counter",
                "Solve observations folded into the backend's EWMAs.",
                |t| t.observations as f64,
            ),
            (
                "backend_ewma_latency_seconds",
                "gauge",
                "EWMA solve latency (telemetry; routing prices the cost model).",
                |t| t.ewma_latency_seconds,
            ),
            (
                "backend_ewma_quality",
                "gauge",
                "EWMA solution quality (lower is better) the router routes on.",
                |t| t.ewma_quality,
            ),
            (
                "backend_predicted_seconds",
                "gauge",
                "EWMA of the cost model's predicted latency for the backend's recent jobs.",
                |t| t.predicted_seconds,
            ),
            (
                "backend_estimation_error_factor",
                "gauge",
                "EWMA symmetric predicted-vs-actual error factor (1.0 = perfect).",
                |t| t.estimation_error_factor,
            ),
        ];
        for (name, kind, help, value) in telemetry {
            out.push_str(&format!("# HELP qdm_{name} {help}\n# TYPE qdm_{name} {kind}\n"));
            for t in &self.backend_telemetry {
                out.push_str(&format!("qdm_{name}{{backend=\"{}\"}} {}\n", t.backend, value(t)));
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
        if self.traces_recorded > 0 {
            writeln!(
                f,
                "traces:  {} recorded, {} dropped",
                self.traces_recorded, self.traces_dropped
            )?;
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
        m.add(Counter::JobsSubmitted, 3);
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
        m.inc(Counter::JobsCoalesced);
        m.inc(Counter::JobsCompleted);
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
        m.dec(Counter::QueueDepth);
        m.inc(Counter::BackpressureRejections);
        m.inc(Counter::BackpressureWaits);
        m.inc(Counter::JobsCancelled);
        let r = m.report();
        assert_eq!(r.queue_depth, 1);
        assert_eq!(r.queue_depth_peak, 2);
        assert_eq!(r.backpressure_rejections, 1);
        assert_eq!(r.backpressure_waits, 1);
        assert_eq!(r.jobs_cancelled, 1);
        assert!(r.to_string().contains("depth 1 (peak 2)"));
    }

    #[test]
    fn snapshots_are_deterministically_name_sorted() {
        let m = Metrics::new();
        for backend in ["zeta", "alpha", "mid", "alpha"] {
            m.on_solved(backend, 1e-3);
        }
        let r = m.report();
        let names: Vec<&str> = r.per_backend.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(r.per_backend[0].1, 2);
        assert_eq!(m.report(), r, "repeated snapshots of the same state are identical");
    }

    #[test]
    fn coalesced_and_cancel_conversion_keep_the_ledger_consistent() {
        let m = Metrics::new();
        m.add(Counter::JobsSubmitted, 3);
        // Job 1: solved normally. Job 2: coalesced onto job 1. Job 3:
        // solved, but its cancel raced the run and won.
        m.on_solved("tabu", 0.001);
        m.inc(Counter::JobsCoalesced);
        m.inc(Counter::JobsCompleted);
        m.on_solved("tabu", 0.002);
        m.inc(Counter::JobsCancelled);
        m.dec(Counter::JobsCompleted);
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
        m.inc(Counter::JobsAdmitted);
        m.inc(Counter::JobsAdmitted);
        m.inc(Counter::JobsShed);
        m.inc(Counter::Migrations);
        m.inc(Counter::JobsRunForPeers);
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
        a.add(Counter::JobsSubmitted, 2);
        a.on_solved("tabu", 1e-6); // bucket 0
        a.on_served(1e-6);
        a.on_cache_hit();
        a.on_served(3e-6);
        a.on_enqueue();
        a.inc(Counter::JobsAdmitted);
        a.inc(Counter::JobsAdmitted);
        a.inc(Counter::JobsShed);
        let b = Metrics::new();
        b.add(Counter::JobsSubmitted, 1);
        b.on_solved("tabu", 3000e-6); // bucket 11
        b.on_solved("simulated-annealing", 1e-6);
        b.on_served(3000e-6);
        b.inc(Counter::Migrations);
        a.inc(Counter::JobsRunForPeers);
        b.inc(Counter::JobsRunForPeers);
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
                predicted_seconds: 0.004,
                estimation_error_factor: 1.0,
            },
            BackendTelemetry {
                backend: "tabu".to_string(),
                observations: 1,
                ewma_latency_seconds: 0.005,
                ewma_quality: 3.0,
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
        m.add(Counter::JobsSubmitted, 4);
        m.on_cache_hit();
        m.on_served(1e-6);
        m.on_solved("tabu", 0.004);
        m.on_served(0.004);
        let mut r = m.report();
        r.backend_telemetry = vec![BackendTelemetry {
            backend: "tabu".to_string(),
            observations: 1,
            ewma_latency_seconds: 0.004,
            ewma_quality: 0.25,
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

    /// A metrics state in which every scalar counter holds a distinct
    /// non-zero value, plus a filled-in telemetry row and service fields.
    fn golden_report() -> RuntimeReport {
        let m = Metrics::new();
        let times = |n: u64, f: &dyn Fn()| (0..n).for_each(|_| f());
        m.add(Counter::JobsSubmitted, 101);
        times(3, &|| m.on_cache_hit());
        for (backend, seconds) in
            [("tabu", 0.004), ("tabu", 0.5), ("simulated-annealing", 2e-6), ("tabu", 20.25)]
        {
            m.on_solved(backend, seconds);
        }
        for seconds in [3e-6, 0.004, 0.02] {
            m.on_served(seconds);
        }
        m.add(Counter::JobsCompleted, 10);
        times(2, &|| m.dec(Counter::JobsCompleted));
        m.add(Counter::JobsFailed, 8);
        m.dec(Counter::JobsFailed);
        m.add(Counter::JobsCancelled, 9);
        m.add(Counter::JobsCoalesced, 13);
        times(2, &|| m.dec(Counter::JobsCoalesced));
        times(22, &|| m.on_enqueue());
        times(17, &|| m.dec(Counter::QueueDepth));
        m.add(Counter::BackpressureRejections, 6);
        m.add(Counter::BackpressureWaits, 12);
        for (counter, n) in [
            (Counter::JobsAdmitted, 16),
            (Counter::JobsShed, 17),
            (Counter::Migrations, 18),
            (Counter::JobsRunForPeers, 19),
            (Counter::JobsRetried, 20),
            (Counter::RetriesExhausted, 21),
            (Counter::DeadlinesExceeded, 23),
            (Counter::BreakerOpened, 24),
            (Counter::BreakerHalfOpened, 25),
            (Counter::BreakerClosed, 26),
            (Counter::Failovers, 27),
            (Counter::JobsRecovered, 28),
            (Counter::SnapshotSaved, 29),
            (Counter::SnapshotLoaded, 30),
        ] {
            m.add(counter, n);
        }
        let mut r = m.report();
        r.backend_telemetry = vec![BackendTelemetry {
            backend: "tabu".to_string(),
            observations: 7,
            ewma_latency_seconds: 0.003,
            ewma_quality: 0.5,
            predicted_seconds: 0.002,
            estimation_error_factor: 1.5,
        }];
        r.traces_recorded = 31;
        r.traces_dropped = 32;
        r.queue_backlog_seconds = 1.25;
        r
    }

    /// Byte-for-byte exposition and `Display` captures of a standalone,
    /// a shard-tagged and a merged report. The table-driven renderer must
    /// reproduce them exactly: a swapped row, a wrong kind or a wrong label
    /// changes the text.
    #[test]
    fn exposition_and_display_match_the_golden_captures() {
        let plain = golden_report();
        let mut tagged = plain.clone();
        tagged.shard = Some(2);
        let other = Metrics::new();
        other.add(Counter::JobsSubmitted, 1000);
        other.on_enqueue();
        other.inc(Counter::JobsShed);
        other.inc(Counter::Failovers);
        let mut other = other.report();
        other.shard = Some(5);
        let merged = RuntimeReport::merge([&tagged, &other]);
        let captures = [
            (
                &plain,
                include_str!("../tests/golden/report_plain.prom"),
                include_str!("../tests/golden/report_plain.txt"),
            ),
            (
                &tagged,
                include_str!("../tests/golden/report_tagged.prom"),
                include_str!("../tests/golden/report_tagged.txt"),
            ),
            (
                &merged,
                include_str!("../tests/golden/report_merged.prom"),
                include_str!("../tests/golden/report_merged.txt"),
            ),
        ];
        for (report, prometheus, display) in captures {
            assert_eq!(report.render_prometheus(), prometheus);
            assert_eq!(report.to_string(), display);
        }
    }
}
