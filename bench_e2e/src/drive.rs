//! Drives a workload's stream through the public `qdm_runtime` API from one
//! client thread: builds the service or cluster (journals and warm-up
//! included) and times that set-up, runs the measured phase as a closed
//! loop, and gathers what the checks and metrics read.

use crate::layers::{LayerSnapshot, Tracing};
use crate::stream::{tenant_name, Composition, Generator, Job};
use crate::workload::{Config, Shape};
use qdm_core::pipeline::PipelineOptions;
use qdm_qubo::compiled::compilation_count;
use qdm_runtime::cluster::{AdmissionConfig, ClusterConfig, ClusterService, TokenBucketConfig};
use qdm_runtime::handle::JobHandle;
use qdm_runtime::journal::{FileJournal, Journal};
use qdm_runtime::metrics::RuntimeReport;
use qdm_runtime::registry::SolverRegistry;
use qdm_runtime::service::{JobOutcome, JobSpec, ServiceConfig, SolverService};
use qdm_runtime::submit::SessionConfig;
use qdm_runtime::trace::{JobTrace, TraceConfig};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the fixed warm-up set, the same for every run.
const WARMUP_SEED: u64 = 0x5eed_cafe;
/// Flipped into every warm-up job's seed, so a stream drawn from the same
/// seed still never hits a warm-up result in the cache.
const WARMUP_SALT: u64 = 0xa5a5_a5a5_a5a5_a5a5;
/// Each tenant may burst 60 predicted seconds and refills 30 per second:
/// fifteen times the two backend-seconds per second the cluster can run,
/// so a stream the cost model prices correctly is never shed.
const TENANT_BUCKET: TokenBucketConfig =
    TokenBucketConfig { capacity: 60.0, refill_per_second: 30.0 };
/// Queued jobs migrate once two shards' queue depths differ by more.
const MIGRATION_THRESHOLD: usize = 4;
/// How often the cluster loop polls its outstanding handles; served latency
/// there is known to about this plus the sleep's overshoot.
const POLL: Duration = Duration::from_micros(100);
/// Linux reports process CPU time in ticks of 1/100 s (`USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;
/// The measured phase is cut into windows this long, and throughput and CPU
/// per job are medians over them: interference from outside the process
/// then moves a few windows, not the result.
const WINDOW: Duration = Duration::from_millis(500);

/// Nanoseconds since the run's epoch: the epoch the runtime stamps its
/// trace spans with, so client timestamps and spans share one clock.
#[derive(Clone, Copy)]
struct Clock(Instant);

impl Clock {
    fn now_ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A delivered result, as the client received it.
pub struct Delivered {
    pub energy: f64,
    pub feasible: bool,
    pub bits: Vec<bool>,
    pub from_cache: bool,
    pub coalesced: bool,
    pub backend: String,
}

impl Delivered {
    /// Served from the cache or a concurrent duplicate rather than solved.
    pub fn served(&self) -> bool {
        self.from_cache || self.coalesced
    }
}

pub enum Outcome {
    Pending,
    Delivered(Delivered),
    Error(String),
    Shed,
}

impl From<JobOutcome> for Outcome {
    fn from(outcome: JobOutcome) -> Self {
        match outcome {
            Ok(result) => Outcome::Delivered(Delivered {
                energy: result.report.energy,
                feasible: result.report.decoded.feasible,
                bits: result.report.bits,
                from_cache: result.from_cache,
                coalesced: result.coalesced,
                backend: result.backend,
            }),
            Err(err) => Outcome::Error(err.to_string()),
        }
    }
}

/// One stream job's timeline, in nanoseconds since the run's epoch.
pub struct Record {
    pub handle_id: Option<u64>,
    pub submit_start_ns: u64,
    pub submit_end_ns: u64,
    /// When the client saw the result.
    pub done_ns: u64,
    pub outcome: Outcome,
}

impl Record {
    fn submitting(start_ns: u64) -> Self {
        Self {
            handle_id: None,
            submit_start_ns: start_ns,
            submit_end_ns: start_ns,
            done_ns: start_ns,
            outcome: Outcome::Pending,
        }
    }
}

/// One window of the measured phase, while load was offered.
pub struct Window {
    pub seconds: f64,
    /// Results received in the window.
    pub jobs: usize,
    /// Process CPU seconds in the window.
    pub cpu_s: f64,
}

/// Process CPU time sampled at window boundaries, as `(ns, cpu seconds)`.
struct Sampler {
    next_ns: u64,
    marks: Vec<(u64, f64)>,
    done: bool,
}

impl Sampler {
    fn start(clock: Clock) -> Result<Self, String> {
        let now = clock.now_ns();
        let marks = vec![(now, cpu_seconds()?)];
        Ok(Self { next_ns: now + WINDOW.as_nanos() as u64, marks, done: false })
    }

    /// Samples once the current window is over.
    fn tick(&mut self, now_ns: u64) {
        if !self.done && now_ns >= self.next_ns {
            self.mark(now_ns);
            self.next_ns = now_ns + WINDOW.as_nanos() as u64;
        }
    }

    /// Closes the last window: load is no longer offered.
    fn finish(&mut self, now_ns: u64) {
        if !self.done {
            self.mark(now_ns);
            self.done = true;
        }
    }

    fn mark(&mut self, now_ns: u64) {
        if let Ok(cpu) = cpu_seconds() {
            self.marks.push((now_ns, cpu));
        }
    }

    fn windows(&self, records: &[Record]) -> Vec<Window> {
        self.marks
            .windows(2)
            .map(|pair| {
                let ((from, cpu_from), (to, cpu_to)) = (pair[0], pair[1]);
                let jobs = records
                    .iter()
                    .filter(|r| matches!(r.outcome, Outcome::Delivered(_)))
                    .filter(|r| (from..to).contains(&r.done_ns))
                    .count();
                Window { seconds: (to - from) as f64 / 1e9, jobs, cpu_s: cpu_to - cpu_from }
            })
            .collect()
    }
}

/// Everything one run measured.
pub struct Run {
    /// The stream's jobs in submission order, `records` alongside.
    pub jobs: Vec<Job>,
    pub records: Vec<Record>,
    pub composition: Composition,
    /// Seconds from the start of construction to the end of warm-up, per
    /// set-up.
    pub setup_s: Vec<f64>,
    /// First submission to last result.
    pub wall_s: f64,
    pub windows: Vec<Window>,
    /// Process CPU seconds over the measured phase.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Per shard (one entry for a direct service), before and after the
    /// measured phase.
    pub reports_before: Vec<RuntimeReport>,
    pub reports_after: Vec<RuntimeReport>,
    /// QUBO compilations in the process over the measured phase.
    pub compiles: u64,
    /// Journal growth over the measured phase.
    pub journal_bytes: u64,
    /// The traced run's traces and layer timings.
    pub traces: Vec<JobTrace>,
    pub layers: Option<LayerSnapshot>,
}

impl Run {
    pub fn delivered(&self) -> impl Iterator<Item = (&Job, &Record, &Delivered)> {
        self.jobs.iter().zip(&self.records).filter_map(|(job, record)| match &record.outcome {
            Outcome::Delivered(result) => Some((job, record, result)),
            _ => None,
        })
    }
}

enum System {
    Direct(SolverService),
    Cluster(Box<ClusterService>),
}

impl System {
    fn reports(&self) -> Vec<RuntimeReport> {
        match self {
            System::Direct(service) => vec![service.report()],
            System::Cluster(cluster) => cluster.shard_reports(),
        }
    }
}

/// Every job runs with repair on, so answers decode feasible, and with
/// presolve and decomposition off, so a cache miss compiles exactly once and
/// the compile counter splits cleanly into per-miss and per-hit costs. It is
/// auto-routed unless the workload pins a backend.
fn spec(job: &Job, backend: Option<&str>) -> JobSpec {
    let options = PipelineOptions { repair: true, ..PipelineOptions::default() };
    let spec = JobSpec::new(Arc::clone(&job.problem), job.seed)
        .with_options(options)
        .with_priority(job.priority);
    match backend {
        Some(name) => spec.on_backend(name),
        None => spec,
    }
}

/// Runs `config`'s stream for `seed` over `seconds`, after `setup_reps`
/// timed set-ups of which the last is kept. With `tracing`, the system
/// traces into it and runs behind its timers.
pub fn run(
    config: &Config,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    tracing: Option<&Tracing>,
) -> Result<Run, String> {
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch").join(format!(
        "{}-{}",
        std::process::id(),
        if tracing.is_some() { "traced" } else { "plain" }
    ));
    let clock = Clock(Instant::now());
    let mut generator = Generator::new(seed, config.stream, tracing.cloned());
    let (system, journals, setup_s) = set_up(config, tracing, clock, &scratch, setup_reps)?;
    if let Some(tracing) = tracing {
        // Drop what the warm-up recorded.
        tracing.take();
    }
    let reports_before = system.reports();
    let journal_before = total_size(&journals);
    let compiles_before = compilation_count();
    let cpu_before = cpu_seconds()?;
    let mut sampler = Sampler::start(clock)?;
    let pace = Pace { seconds, clock, window: config.window, backend: config.backend };
    let (jobs, records) = match &system {
        System::Direct(service) => closed_loop(service, &mut generator, pace, &mut sampler),
        System::Cluster(cluster) => {
            cluster_loop(cluster, &mut generator, config.stream.tenants, pace, &mut sampler)
        }
    };
    let cpu_s = cpu_seconds()? - cpu_before;
    let compiles = compilation_count() - compiles_before;
    let journal_bytes = total_size(&journals).saturating_sub(journal_before);
    let reports_after = system.reports();
    let (layers, traces) = match tracing {
        Some(tracing) => {
            let (layers, traces) = tracing.take();
            (Some(layers), traces)
        }
        None => (None, Vec::new()),
    };
    drop(system);
    let peak_rss_mb = peak_rss_mb()?;
    fs::remove_dir_all(&scratch).map_err(|e| format!("remove {}: {e}", scratch.display()))?;
    if let Some(parent) = scratch.parent() {
        // Succeeds only once no other run uses the directory.
        let _ = fs::remove_dir(parent);
    }
    let first = records.iter().map(|r| r.submit_start_ns).min().unwrap_or(0);
    let windows = sampler.windows(&records);
    let last = records.iter().map(|r| r.done_ns).max().unwrap_or(first);
    Ok(Run {
        jobs,
        records,
        composition: generator.into_composition(),
        setup_s,
        wall_s: last.saturating_sub(first) as f64 / 1e9,
        windows,
        cpu_s,
        peak_rss_mb,
        reports_before,
        reports_after,
        compiles,
        journal_bytes,
        traces,
        layers,
    })
}

/// Builds and warms the system `reps` times and keeps the last; returns it,
/// its journal files, and each set-up's seconds.
fn set_up(
    config: &Config,
    tracing: Option<&Tracing>,
    clock: Clock,
    scratch: &Path,
    reps: usize,
) -> Result<(System, Vec<PathBuf>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..reps.max(1) {
        // The previous repetition is torn down before this one is timed.
        drop(kept.take());
        let dir = scratch.join(format!("setup-{rep}"));
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let start = Instant::now();
        let built = build(config, tracing, clock, &dir)?;
        warm_up(&built.0, config)?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(built);
    }
    let (system, journals) = kept.expect("at least one set-up ran");
    Ok((system, journals, times))
}

fn build(
    config: &Config,
    tracing: Option<&Tracing>,
    clock: Clock,
    dir: &Path,
) -> Result<(System, Vec<PathBuf>), String> {
    let registry = || tracing.map_or_else(SolverRegistry::standard, Tracing::registry);
    let mut paths = Vec::new();
    let mut journals = |count: usize| -> Result<Option<Vec<Arc<dyn Journal>>>, String> {
        if !config.journal {
            return Ok(None);
        }
        let mut journals = Vec::with_capacity(count);
        for shard in 0..count {
            let path = dir.join(format!("shard-{shard}.wal"));
            let journal: Arc<dyn Journal> = Arc::new(
                FileJournal::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?,
            );
            paths.push(path);
            journals.push(match tracing {
                Some(tracing) => tracing.journal(journal),
                None => journal,
            });
        }
        Ok(Some(journals))
    };
    let service = |workers: usize| ServiceConfig {
        workers,
        cache_capacity: config.cache_capacity,
        tracing: tracing.map_or(TraceConfig::Disabled, Tracing::trace_config),
        epoch: Some(clock.0),
        ..ServiceConfig::default()
    };
    let system = match config.shape {
        Shape::Direct { workers } => {
            let journal = journals(1)?.and_then(|mut journals| journals.pop());
            let config = ServiceConfig { journal, ..service(workers) };
            System::Direct(SolverService::with_registry(registry(), config))
        }
        Shape::Cluster { shards } => {
            let admission = (0..config.stream.tenants).fold(AdmissionConfig::default(), |a, t| {
                a.with_tenant(&tenant_name(t), TENANT_BUCKET)
            });
            let cluster = ClusterConfig {
                shards,
                service: service(1),
                admission,
                migration_threshold: Some(MIGRATION_THRESHOLD),
                journals: journals(shards)?,
                ..ClusterConfig::default()
            };
            let registries = (0..shards).map(|_| registry()).collect();
            System::Cluster(Box::new(ClusterService::with_registries(registries, cluster)))
        }
    };
    Ok((system, paths))
}

/// Solves a fixed set of jobs, so lazy set-up has finished and the router's
/// cost model is calibrated before anything is measured.
fn warm_up(system: &System, config: &Config) -> Result<(), String> {
    let mut generator = Generator::new(WARMUP_SEED, config.stream.originals_only(), None);
    let specs: Vec<JobSpec> = (0..config.warmup_jobs)
        .map(|_| {
            let mut job = generator.next_job();
            job.seed ^= WARMUP_SALT;
            spec(&job, config.backend)
        })
        .collect();
    let session_config = SessionConfig { queue_capacity: specs.len().max(1), completion_buffer: 1 };
    let handles: Vec<JobHandle> = match system {
        System::Direct(service) => {
            let session = service.session(session_config);
            specs.into_iter().map(|spec| session.submit(spec)).collect()
        }
        System::Cluster(cluster) => {
            // A tenant without a bucket: the warm-up is never shed.
            let session = cluster.session("warm-up", session_config);
            specs
                .into_iter()
                .map(|spec| session.submit(spec).map_err(|e| format!("warm-up job shed: {e}")))
                .collect::<Result<_, _>>()?
        }
    };
    for handle in handles {
        handle.wait().map_err(|e| format!("warm-up job failed: {e}"))?;
    }
    Ok(())
}

/// What both loops share: how long to offer load, the clock, how many jobs
/// stay in flight, and the workload's pinned backend, if any.
struct Pace<'a> {
    seconds: f64,
    clock: Clock,
    window: usize,
    backend: Option<&'a str>,
}

/// Keeps `pace.window` jobs in flight until `pace.seconds` have passed, then
/// drains.
fn closed_loop(
    service: &SolverService,
    generator: &mut Generator,
    pace: Pace<'_>,
    sampler: &mut Sampler,
) -> (Vec<Job>, Vec<Record>) {
    let clock = pace.clock;
    let window = pace.window;
    let session =
        service.session(SessionConfig { queue_capacity: window, completion_buffer: window });
    let stop_ns = clock.now_ns() + (pace.seconds * 1e9) as u64;
    let mut jobs = Vec::new();
    let mut records = Vec::new();
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    let mut in_flight = 0;
    loop {
        while in_flight < window && clock.now_ns() < stop_ns {
            let job = generator.next_job();
            let spec = spec(&job, pace.backend);
            let mut record = Record::submitting(clock.now_ns());
            let handle = session.submit(spec);
            record.submit_end_ns = clock.now_ns();
            record.handle_id = Some(handle.id());
            index_of.insert(handle.id(), records.len());
            records.push(record);
            jobs.push(job);
            in_flight += 1;
        }
        if in_flight == 0 {
            return (jobs, records);
        }
        let completion = session.completions().next().expect("a job is in flight");
        let record = &mut records[index_of[&completion.id]];
        record.done_ns = clock.now_ns();
        record.outcome = completion.outcome.into();
        in_flight -= 1;
        if record.done_ns < stop_ns {
            sampler.tick(record.done_ns);
        } else {
            sampler.finish(record.done_ns);
        }
    }
}

/// The closed loop against a cluster: each job goes through its tenant's
/// session, and the outstanding handles are polled, since completions
/// arrive on three sessions at once.
fn cluster_loop(
    cluster: &ClusterService,
    generator: &mut Generator,
    tenants: usize,
    pace: Pace<'_>,
    sampler: &mut Sampler,
) -> (Vec<Job>, Vec<Record>) {
    let clock = pace.clock;
    let session_config = SessionConfig { queue_capacity: pace.window, completion_buffer: 1 };
    let sessions: Vec<_> =
        (0..tenants).map(|t| cluster.session(tenant_name(t), session_config.clone())).collect();
    let stop_ns = clock.now_ns() + (pace.seconds * 1e9) as u64;
    let mut jobs = Vec::new();
    let mut records = Vec::new();
    let mut outstanding: Vec<(usize, JobHandle)> = Vec::new();
    loop {
        while outstanding.len() < pace.window && clock.now_ns() < stop_ns {
            let job = generator.next_job();
            let spec = spec(&job, pace.backend);
            let mut record = Record::submitting(clock.now_ns());
            let submitted = sessions[job.tenant].submit(spec);
            record.submit_end_ns = clock.now_ns();
            match submitted {
                Ok(handle) => {
                    record.handle_id = Some(handle.id());
                    outstanding.push((records.len(), handle));
                }
                Err(_) => {
                    record.outcome = Outcome::Shed;
                    record.done_ns = record.submit_end_ns;
                }
            }
            records.push(record);
            jobs.push(job);
        }
        let now = clock.now_ns();
        outstanding.retain(|(index, handle)| match handle.try_result() {
            Some(outcome) => {
                records[*index].done_ns = now;
                records[*index].outcome = outcome.into();
                false
            }
            None => true,
        });
        if now < stop_ns {
            sampler.tick(now);
        } else {
            sampler.finish(now);
            if outstanding.is_empty() {
                return (jobs, records);
            }
        }
        if outstanding.len() == pace.window || now >= stop_ns {
            std::thread::sleep(POLL);
        }
    }
}

fn total_size(paths: &[PathBuf]) -> u64 {
    paths.iter().filter_map(|p| fs::metadata(p).ok()).map(|m| m.len()).sum()
}

/// User plus system CPU seconds of this process, all threads included.
fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3; utime
    // and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').ok_or("malformed /proc/self/stat")? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SECOND)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
