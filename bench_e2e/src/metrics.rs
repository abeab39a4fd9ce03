//! Metric definitions: the end-to-end metrics of an untraced run, the
//! per-layer metrics of a traced one, the verdicts on the hypotheses, and
//! the result line. `README.md` beside this crate lists each metric with
//! its source and the end-to-end metric it should move.

use crate::check::Checks;
use crate::drive::{Outcome, Run};
use crate::stream::Origin;
use crate::workload::Workload;
use qdm_core::solver::full_registry;
use qdm_runtime::metrics::RuntimeReport;
use qdm_runtime::trace::{JobTrace, Span, Stage, TraceOutcome};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// At most this many distinct models are replayed through `compile` and
/// `canonical_form`, evenly spaced along the stream.
const REPLAY_MODELS: usize = 300;

pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// How many samples the value summarises, where it summarises samples.
    samples: Option<usize>,
}

impl Metric {
    fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) -> Self {
        // JSON has no NaN or infinity; a ratio with nothing to divide reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        Self { name: name.into(), value, unit, samples }
    }

    pub fn print(&self) {
        let samples = self.samples.map(|n| format!("n={n}")).unwrap_or_default();
        println!("{:<44} {:>16.6} {:<6} {samples}", self.name, self.value, self.unit);
    }
}

/// The result line: the last line of output.
pub fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let entries: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        entries.join(", ")
    );
}

/// Nearest-rank quantile; 0 without samples.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn p50(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Results per second: the median over the measured phase's windows, or
/// over the whole phase when it is shorter than one window.
fn throughput(run: &Run) -> f64 {
    let rates: Vec<f64> = run.windows.iter().map(|w| ratio(w.jobs as f64, w.seconds)).collect();
    if rates.is_empty() {
        return ratio(run.delivered().count() as f64, run.wall_s);
    }
    p50(&rates)
}

/// Process CPU per result, taken like [`throughput`].
fn cpu_ms_per_job(run: &Run) -> f64 {
    let costs: Vec<f64> =
        run.windows.iter().filter(|w| w.jobs > 0).map(|w| w.cpu_s * 1e3 / w.jobs as f64).collect();
    if costs.is_empty() {
        return ratio(run.cpu_s * 1e3, run.delivered().count() as f64);
    }
    p50(&costs)
}

pub fn end_to_end(run: &Run, checks: &Checks) -> Vec<Metric> {
    let served: Vec<f64> = run
        .delivered()
        .map(|(_, record, _)| record.done_ns.saturating_sub(record.submit_start_ns) as f64 / 1e6)
        .collect();
    let n = served.len();
    let attempted = checks.attempted;
    let ok = attempted.saturating_sub(checks.failed) as f64;
    vec![
        Metric::new("throughput_jobs_s", throughput(run), "1/s", Some(run.windows.len())),
        Metric::new("served_p50_ms", p50(&served), "ms", Some(n)),
        Metric::new("served_p99_ms", quantile(&served, 0.99), "ms", Some(n)),
        Metric::new("cpu_ms_per_job", cpu_ms_per_job(run), "ms", Some(run.windows.len())),
        Metric::new("ok_ratio", ratio(ok, attempted as f64), "ratio", Some(attempted)),
        Metric::new("feasible_ratio", ratio(checks.feasible as f64, n as f64), "ratio", Some(n)),
        Metric::new("setup_s", p50(&run.setup_s), "s", Some(run.setup_s.len())),
        Metric::new("peak_rss_mb", run.peak_rss_mb, "MiB", None),
    ]
}

/// The per-layer metrics of `traced`, with `plain` — the untraced run of the
/// same stream — for the tracing overhead.
pub fn per_layer(plain: &Run, traced: &Run) -> Vec<Metric> {
    let layers = traced.layers.as_ref().expect("a traced run records its layers");
    let delivered: Vec<_> = traced.delivered().map(|(_, _, result)| result).collect();
    let n = delivered.len();
    let jobs = n as f64;
    let hits = delivered.iter().filter(|d| d.from_cache).count();
    let coalesced = delivered.iter().filter(|d| d.coalesced).count();
    let misses = n - hits - coalesced;
    let spans: Vec<&Span> = traced.traces.iter().flat_map(|t| &t.spans).collect();
    let stage = |stage: Stage| spans.iter().copied().filter(move |s| s.stage == stage);
    let span_us =
        |s: Stage| -> Vec<f64> { stage(s).map(|s| s.duration_ns() as f64 / 1e3).collect() };
    let us = |ns: &[u64]| -> Vec<f64> { ns.iter().map(|&v| v as f64 / 1e3).collect() };
    let mut metrics = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, samples: usize| {
        metrics.push(Metric::new(name, value, unit, Some(samples)));
    };

    let encode = us(&layers.encode_ns);
    let decode = us(&layers.decode_ns);
    push("problems.encode_us_p50", p50(&encode), "us", encode.len());
    push("problems.encode_calls_per_job", ratio(encode.len() as f64, jobs), "count", n);
    push("problems.decode_us_p50", p50(&decode), "us", decode.len());

    let replay = Replay::of(traced);
    let (canonicalize, compile) = (&replay.canonicalize_us, &replay.compile_us);
    push("qubo.canonicalize_us_p50", p50(canonicalize), "us", canonicalize.len());
    push("qubo.compile_us_p50", p50(compile), "us", compile.len());
    push("qubo.compiles_per_job", ratio(traced.compiles as f64, jobs), "count", n);
    // A miss compiles once, and so does a permuted duplicate before it finds
    // the flight it coalesces onto (its trace shows the compile span); every
    // other compile is a hit's.
    let coalesced_compiles = traced
        .traces
        .iter()
        .filter(|t| t.outcome == TraceOutcome::Coalesced && t.span(Stage::Compile).is_some())
        .count();
    let hit_compiles = traced.compiles as f64 - (misses + coalesced_compiles) as f64;
    push("qubo.compiles_per_hit", ratio(hit_compiles, hits as f64), "count", hits);

    let presolve = span_us(Stage::Presolve);
    push("core.presolve_us_p50", p50(&presolve), "us", presolve.len());
    let solve_ms: Vec<f64> = span_us(Stage::Solve).iter().map(|us| us / 1e3).collect();
    push("core.solve_ms_p50", p50(&solve_ms), "ms", solve_ms.len());
    push("core.solve_ms_p99", quantile(&solve_ms, 0.99), "ms", solve_ms.len());
    for backend in full_registry() {
        let ms: Vec<f64> = stage(Stage::Solve)
            .filter(|s| s.backend.as_deref() == Some(backend.name()))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        push(&format!("core.solve_ms_p50.{}", backend.name()), p50(&ms), "ms", ms.len());
    }

    // Time inside the solvers per proposal, over the backends whose solves
    // report proposals.
    let mut counted: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for span in stage(Stage::Solve) {
        if let Some(backend) = &span.backend {
            let entry = counted.entry(backend.as_str()).or_default();
            entry.0 += span.stats.proposals;
            entry.1 += span.stats.accepted;
        }
    }
    let (mut proposals, mut accepted, mut kernel_ns) = (0u64, 0u64, 0u64);
    for (&backend, &(p, a)) in counted.iter().filter(|(_, c)| c.0 > 0) {
        proposals += p;
        accepted += a;
        kernel_ns += layers
            .kernels
            .iter()
            .filter(|(name, ..)| name.as_str() == backend)
            .map(|&(_, _, ns)| ns)
            .sum::<u64>();
    }
    let proposed = proposals as usize;
    push("anneal.ns_per_proposal", ratio(kernel_ns as f64, proposals as f64), "ns", proposed);
    push("anneal.accept_ratio", ratio(accepted as f64, proposals as f64), "ratio", proposed);

    let submit_us: Vec<f64> = traced
        .records
        .iter()
        .map(|r| r.submit_end_ns.saturating_sub(r.submit_start_ns) as f64 / 1e3)
        .collect();
    push("runtime.submit_us_p50", p50(&submit_us), "us", submit_us.len());
    push("runtime.submit_us_p99", quantile(&submit_us, 0.99), "us", submit_us.len());
    let queued_ms: Vec<f64> = span_us(Stage::Queued).iter().map(|us| us / 1e3).collect();
    push("runtime.scheduler.queue_wait_ms_p50", p50(&queued_ms), "ms", queued_ms.len());
    push("runtime.scheduler.queue_wait_ms_p99", quantile(&queued_ms, 0.99), "ms", queued_ms.len());
    push("runtime.cache.reuse_ratio", ratio((hits + coalesced) as f64, jobs), "ratio", n);
    push("runtime.cache.hit_ratio", ratio(hits as f64, jobs), "ratio", n);
    push("runtime.cache.coalesced_ratio", ratio(coalesced as f64, jobs), "ratio", n);
    // Relabeled repeats are served only when canonicalization maps them to
    // their original's fingerprint.
    let permuted: Vec<bool> = traced
        .delivered()
        .filter(|(job, ..)| matches!(job.origin, Origin::Permuted { .. }))
        .map(|(.., result)| result.served())
        .collect();
    let permuted_served = permuted.iter().filter(|&&served| served).count() as f64;
    let permuted_reuse = ratio(permuted_served, permuted.len() as f64);
    push("runtime.cache.permuted_reuse_ratio", permuted_reuse, "ratio", permuted.len());
    let serve_us: Vec<f64> = traced
        .traces
        .iter()
        .filter(|t| t.outcome == TraceOutcome::CacheHit)
        .filter_map(|t| t.span(Stage::Serve))
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    push("runtime.cache.serve_us_p50", p50(&serve_us), "us", serve_us.len());
    let compile_span = span_us(Stage::Compile);
    push("runtime.compile_span_us_p50", p50(&compile_span), "us", compile_span.len());
    let replayed = p50(compile) + p50(canonicalize);
    let over_replay = ratio(p50(&compile_span), replayed);
    push("runtime.compile_span_over_replay", over_replay, "ratio", compile_span.len());
    let appends = us(&layers.journal_append_ns);
    push("runtime.journal.append_us_p50", p50(&appends), "us", appends.len());
    push("runtime.journal.appends_per_job", ratio(appends.len() as f64, jobs), "count", n);
    push("runtime.journal.bytes_per_job", ratio(traced.journal_bytes as f64, jobs), "B", n);
    let solves = stage(Stage::Solve).count();
    push("runtime.portfolio.solves_per_job", ratio(solves as f64, jobs), "count", n);
    let error: Vec<f64> = stage(Stage::Solve)
        .filter_map(|s| {
            let predicted = s.predicted_seconds?;
            let actual = s.duration_ns() as f64 / 1e9;
            (predicted > 0.0 && actual > 0.0).then(|| (actual / predicted).max(predicted / actual))
        })
        .collect();
    push("runtime.cost.error_factor_p50", p50(&error), "ratio", error.len());

    let attempted = traced.records.len();
    let sheds = traced.records.iter().filter(|r| matches!(r.outcome, Outcome::Shed)).count();
    push("runtime.cluster.shed_ratio", ratio(sheds as f64, attempted as f64), "ratio", attempted);
    let shard_delta = |field: fn(&RuntimeReport) -> f64| -> Vec<f64> {
        traced
            .reports_before
            .iter()
            .zip(&traced.reports_after)
            .map(|(b, a)| field(a) - field(b))
            .collect()
    };
    let migrations: f64 = shard_delta(|r| r.migrations as f64).iter().sum();
    push("runtime.cluster.migrations_per_job", ratio(migrations, jobs), "count", n);
    // Load is backend busy time: the solve seconds each shard spent.
    let load = shard_delta(|r| r.solve_seconds_total);
    let mean = ratio(load.iter().sum(), load.len() as f64);
    let max = load.iter().copied().fold(0.0, f64::max);
    push("runtime.cluster.shard_load_max_over_mean", ratio(max, mean), "ratio", load.len());

    let overhead = ratio(throughput(plain), throughput(traced)) - 1.0;
    push("runtime.trace.overhead_pct", 100.0 * overhead, "%", n);
    push("runtime.unaccounted_pct", unaccounted_pct(traced), "%", n);
    metrics
}

/// Share of served latency — submit call to result — that neither the
/// submit call nor any of the job's own spans covers: the worker's encode
/// before its first span, flight bookkeeping, slot resolution, the
/// completion wake, and the client's own polling.
fn unaccounted_pct(run: &Run) -> f64 {
    let traces: HashMap<u64, &JobTrace> = run.traces.iter().map(|t| (t.job_id, t)).collect();
    let (mut served, mut uncovered) = (0u64, 0u64);
    for (_, record, _) in run.delivered() {
        let Some(trace) = record.handle_id.and_then(|id| traces.get(&id)) else { continue };
        let (from, to) = (record.submit_start_ns, record.done_ns.max(record.submit_start_ns));
        let mut intervals: Vec<(u64, u64)> = std::iter::once((from, record.submit_end_ns))
            .chain(trace.spans.iter().map(|s| (s.start_ns, s.end_ns)))
            .map(|(start, end)| (start.clamp(from, to), end.clamp(from, to)))
            .collect();
        intervals.sort_unstable();
        let (mut covered, mut reach) = (0, from);
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        served += to - from;
        uncovered += to - from - covered;
    }
    100.0 * ratio(uncovered as f64, served as f64)
}

/// `QuboModel::compile` and `QuboModel::canonical_form` timed on a run's
/// distinct models, outside the runtime.
struct Replay {
    compile_us: Vec<f64>,
    canonicalize_us: Vec<f64>,
}

impl Replay {
    fn of(run: &Run) -> Self {
        let distinct: Vec<_> =
            run.jobs.iter().filter(|j| !matches!(j.origin, Origin::Exact { .. })).collect();
        let step = distinct.len().div_ceil(REPLAY_MODELS).max(1);
        let mut replay = Self { compile_us: Vec::new(), canonicalize_us: Vec::new() };
        for job in distinct.into_iter().step_by(step) {
            let model = job.problem.to_qubo();
            let start = Instant::now();
            let compiled = black_box(model.compile());
            replay.compile_us.push(start.elapsed().as_secs_f64() * 1e6);
            drop(compiled);
            let start = Instant::now();
            let canonical = black_box(model.canonical_form());
            replay.canonicalize_us.push(start.elapsed().as_secs_f64() * 1e6);
            drop(canonical);
        }
        replay
    }
}

/// The verdicts on the three hypotheses the benchmark was built to test,
/// reported as counts and measured times.
pub fn print_hypotheses(workload: Workload, metrics: &[Metric]) {
    let metric = |name: &str| metrics.iter().find(|m| m.name == name).expect("metric is reported");
    let verdict = |holds: bool| if holds { "confirmed" } else { "killed" };
    let per_hit = metric("qubo.compiles_per_hit");
    let hits = per_hit.samples.unwrap_or(0);
    let a = match workload {
        Workload::HotResubmit if hits > 0 => verdict((per_hit.value - 1.0).abs() <= 0.2),
        Workload::TenantMix if hits > 0 => verdict(per_hit.value <= 0.2),
        _ => "not tested on this workload",
    };
    println!(
        "hypothesis (a) a direct cache hit compiles, a routed one does not: \
         qubo.compiles_per_hit = {:.3} over {hits} hits \
         (expected ~1 on hot-resubmit, ~0 on tenant-mix): {a}",
        per_hit.value
    );
    let calls = metric("problems.encode_calls_per_job").value;
    let b = match workload {
        Workload::HotResubmit => verdict((calls - 2.0).abs() <= 0.2),
        _ => "not tested on this workload",
    };
    println!(
        "hypothesis (b) a journaled direct job encodes twice: \
         problems.encode_calls_per_job = {calls:.3} (expected ~2 on hot-resubmit): {b}"
    );
    let span = metric("runtime.compile_span_us_p50").value;
    let compile = metric("qubo.compile_us_p50").value;
    let canonicalize = metric("qubo.canonicalize_us_p50").value;
    let c = match workload {
        Workload::TenantMix => verdict(span >= compile + 0.5 * canonicalize),
        _ => "not tested on this workload",
    };
    println!(
        "hypothesis (c) a routed flight leader canonicalizes again inside its compile span: \
         runtime.compile_span_us_p50 = {span:.1} vs qubo.compile_us_p50 {compile:.1} + \
         qubo.canonicalize_us_p50 {canonicalize:.1} (tested on tenant-mix): {c}"
    );
}
