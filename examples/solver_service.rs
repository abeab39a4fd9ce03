//! The concurrent solver service end to end: a mixed batch of Table I
//! problems — MQO, join ordering, transaction scheduling — fanned out over
//! several Fig. 2 backends by the worker pool, resubmitted to show the
//! result cache serving repeats bit-identically, then driven through the
//! asynchronous session API (bounded-queue submission, per-job handles,
//! streaming completions in finish order). A later pass reads the
//! always-on tracing substrate back out: a per-stage time breakdown
//! aggregated from the span timelines, latency quantiles from the report
//! histograms, a `trace.json` Chrome trace-event export, and a sample of
//! the Prometheus text exposition.
//!
//! The final chaos pass arms a scripted `FaultPlan` — the `exact` backend
//! down for good, a presolve panic, an already-expired deadline — plus a
//! health probe reporting one cluster shard dead, and shows the runtime
//! absorbing all of it: retries with jittered backoff fall back to the
//! next-ranked backend, the circuit breaker stops re-probing the dead
//! one, the dead shard's keys fail over to healthy ring successors, and
//! the merged report prints the retry/breaker/failover counters.
//!
//! Run with: `cargo run --release --example solver_service`

use qdm::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// Health probe reporting one shard permanently dead.
struct DeadShard(usize);

impl HealthProbe for DeadShard {
    fn is_healthy(&self, shard: usize) -> bool {
        shard != self.0
    }
}

fn main() {
    let service = SolverService::new(ServiceConfig {
        workers: 4,
        cache_capacity: 1024,
        ..Default::default()
    });
    println!("solver service up: {} workers over {} backends\n", 4, service.registry().len());

    // --- Build the mixed workload: three problem families, seeded. -------
    let mut problems: Vec<(String, SharedProblem)> = Vec::new();
    for seed in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = MqoInstance::generate(3, 2, 0.3, &mut rng);
        problems.push((format!("mqo-{seed}"), Arc::new(MqoProblem::new(inst))));

        let mut rng = StdRng::seed_from_u64(100 + seed);
        let graph = QueryGraph::generate_random(4, 0.3, &mut rng);
        problems.push((format!("join-{seed}"), Arc::new(JoinOrderProblem::left_deep(graph))));

        let mut rng = StdRng::seed_from_u64(200 + seed);
        let txns = random_workload(4, 3, 2, 0.5, &mut rng);
        let horizon = txns.iter().map(|t| t.duration).sum();
        problems.push((format!("txn-{seed}"), Arc::new(TxnScheduleProblem::new(txns, horizon))));
    }

    // Fan each problem out across three annealing/classical backends, plus
    // one auto-routed job that lets the portfolio scheduler decide.
    let backends = ["simulated-annealing", "simulated-quantum-annealing", "tabu"];
    let options = PipelineOptions { repair: true, ..Default::default() };
    let mut batch: Vec<JobSpec> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for (i, (label, problem)) in problems.iter().enumerate() {
        for backend in backends {
            batch.push(
                JobSpec::new(Arc::clone(problem), 1000 + i as u64)
                    .with_options(options.clone())
                    .on_backend(backend),
            );
            labels.push(label.clone());
        }
        batch
            .push(JobSpec::new(Arc::clone(problem), 1000 + i as u64).with_options(options.clone()));
        labels.push(format!("{label} (auto)"));
    }

    // --- First pass: everything is a cache miss and actually solves. -----
    println!(
        "submitting {} jobs ({} problems x {} routes)...",
        batch.len(),
        problems.len(),
        backends.len() + 1
    );
    let first = service.run_batch(batch.clone());
    println!("{:<14} {:<28} {:>9} {:>10}  summary", "job", "backend", "energy", "feasible");
    for (label, outcome) in labels.iter().zip(&first) {
        let r = outcome.as_ref().expect("every job routes");
        let summary: String = r.report.decoded.summary.chars().take(34).collect();
        println!(
            "{:<14} {:<28} {:>9.3} {:>10}  {}",
            label, r.backend, r.report.energy, r.report.decoded.feasible, summary
        );
        assert!(!r.from_cache, "first pass must solve, not hit the cache");
    }

    // --- Second pass: the identical batch is served from the cache. ------
    println!("\nresubmitting the same batch...");
    let second = service.run_batch(batch);
    let mut hits = 0;
    for (a, b) in first.iter().zip(&second) {
        let a = a.as_ref().unwrap();
        let b = b.as_ref().unwrap();
        assert!(b.from_cache, "repeat submission must be a cache hit");
        assert_eq!(a.report.bits, b.report.bits, "cached result must be bit-identical");
        assert_eq!(a.report.energy, b.report.energy);
        hits += 1;
    }
    println!("{hits}/{} repeats served from cache, all bit-identical", second.len());

    // --- Third pass: the asynchronous session API. ------------------------
    // A bounded session queue (4 slots): `submit` blocks under backpressure
    // instead of buffering without limit, each job returns a handle, and
    // `completions()` streams results in finish order so decode work can
    // pipeline with solving.
    println!("\nasync session: resubmitting {} auto-routed jobs...", problems.len());
    let session = service.session(SessionConfig { queue_capacity: 4, ..Default::default() });
    let mut handles = Vec::new();
    for (i, (label, problem)) in problems.iter().enumerate() {
        let spec = JobSpec::new(Arc::clone(problem), 1000 + i as u64).with_options(options.clone());
        handles.push((label.clone(), session.submit(spec)));
    }
    let mut streamed = 0;
    for completion in session.completions() {
        let r = completion.outcome.expect("every job routes");
        streamed += 1;
        println!(
            "  finished #{streamed}: job {:>2} on {:<28} energy {:>9.3} (cache hit: {})",
            completion.id, r.backend, r.report.energy, r.from_cache
        );
    }
    assert_eq!(streamed, problems.len(), "the stream covers every submitted job");
    for (label, handle) in &handles {
        let r = handle.wait().expect("solvable");
        assert!(r.from_cache, "{label}: auto-routed resubmission must hit the cache");
    }

    // --- Fourth pass: thundering-herd suppression. ------------------------
    // Four copies of one brand-new job submitted at once: all four miss the
    // cache, but the single-flight table guarantees exactly one actually
    // compiles and solves — the duplicates either coalesce onto the leader
    // in flight or (if they arrive after it finished) hit the fresh cache
    // entry. Either way: one solve, four bit-identical answers.
    println!("\nsubmitting 4 concurrent copies of one new job...");
    let misses_before = service.report().cache_misses;
    let herd_problem = Arc::clone(&problems[0].1);
    let herd = service.session(SessionConfig { queue_capacity: 4, ..Default::default() });
    let herd_handles: Vec<_> = (0..4)
        .map(|_| {
            herd.submit(JobSpec::new(Arc::clone(&herd_problem), 9000).with_options(options.clone()))
        })
        .collect();
    let herd_results: Vec<_> =
        herd_handles.iter().map(|h| h.wait().expect("every copy resolves")).collect();
    for pair in herd_results.windows(2) {
        assert_eq!(pair[0].report.bits, pair[1].report.bits, "herd answers must be bit-identical");
    }
    let solves = service.report().cache_misses - misses_before;
    assert_eq!(solves, 1, "4 concurrent identical submissions, exactly 1 solve");
    println!(
        "  4 copies -> {} solve, {} coalesced in flight, {} served from cache, all bit-identical",
        solves,
        herd_results.iter().filter(|r| r.coalesced).count(),
        herd_results.iter().filter(|r| r.from_cache).count(),
    );

    // --- Telemetry. ------------------------------------------------------
    let report = service.report();
    println!("\n{report}");
    assert!(report.cache_hit_rate() > 0.0, "repeat batch must produce cache hits");
    assert!(report.per_backend.len() >= 3, "work must have been spread across at least 3 backends");
    assert_eq!(report.queue_depth, 0, "graceful teardown leaves no queued work");

    // --- Observability: stage breakdown, quantiles, trace export. ---------
    // Tracing is on by default: every job above left a span timeline in the
    // service's ring buffer. Aggregate them into a per-stage time breakdown,
    // pull tail latencies straight from the report's histograms, and export
    // the whole timeline as Chrome trace-event JSON for about:tracing or
    // https://ui.perfetto.dev.
    let traces = service.traces();
    assert!(!traces.is_empty(), "default tracing must have recorded the jobs above");
    assert_eq!(report.traces_dropped, 0, "the default ring holds this workload without drops");
    let mut stage_ns: Vec<(&str, u64, u64)> = Vec::new();
    for trace in &traces {
        for span in &trace.spans {
            match stage_ns.iter_mut().find(|(name, ..)| *name == span.stage.name()) {
                Some((_, total, count)) => {
                    *total += span.duration_ns();
                    *count += 1;
                }
                None => stage_ns.push((span.stage.name(), span.duration_ns(), 1)),
            }
        }
    }
    println!("per-stage time across {} traced jobs:", traces.len());
    println!("  {:<10} {:>6} {:>12} {:>12}", "stage", "spans", "total ms", "mean µs");
    for (name, total, count) in &stage_ns {
        println!(
            "  {:<10} {:>6} {:>12.3} {:>12.1}",
            name,
            count,
            *total as f64 / 1e6,
            *total as f64 / 1e3 / *count as f64
        );
    }
    if let (Some(p50), Some(p99)) = (report.latency_quantile(0.5), report.latency_quantile(0.99)) {
        println!("solve latency: p50 <= {:.1} µs, p99 <= {:.1} µs", p50 * 1e6, p99 * 1e6);
    }
    if let Some(p99) = report.served_latency_quantile(0.99) {
        println!("served latency (incl. cache hits): p99 <= {:.1} µs", p99 * 1e6);
    }

    let trace_json = service.export_traces();
    // Build products belong under target/, not the repo root.
    let trace_path = std::path::Path::new("target").join("trace.json");
    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write(&trace_path, &trace_json).expect("write trace.json");
    println!(
        "wrote {} ({} events, {} bytes) - load it in about:tracing or ui.perfetto.dev",
        trace_path.display(),
        trace_json.matches("\"ph\":\"X\"").count(),
        trace_json.len()
    );

    let exposition = service.report().render_prometheus();
    let series = exposition.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).count();
    println!("prometheus exposition: {series} samples, e.g.:");
    for line in exposition.lines().filter(|l| l.starts_with("qdm_jobs_")).take(3) {
        println!("  {line}");
    }

    // --- Cluster pass: sharded front-end with admission control. ----------
    // Four single-worker shards behind one session API. Jobs route by their
    // canonical QUBO fingerprint (duplicates stay cache-affine to one
    // shard), tenant "burst" is throttled by a token bucket while tenant
    // "steady" runs unlimited, and the merged report sums every shard's
    // ledger.
    // Admission buckets are denominated in *predicted seconds* of backend
    // time (the cost model's quote per job), not jobs: budget the 'burst'
    // tenant well below what its 12-job burst will be charged, quoting
    // the jobs the same way admission will (cheapest eligible backend's
    // analytic estimate — the cold-calibration quote).
    let quote_registry = SolverRegistry::standard();
    let quote = |p: &SharedProblem| {
        let n = p.n_vars();
        quote_registry
            .eligible(n)
            .into_iter()
            .map(|i| analytic_seconds(&quote_registry.get(i).spec, CostShape::from_n_vars(n)))
            .fold(f64::INFINITY, f64::min)
    };
    let burst_budget = problems.iter().cycle().take(12).map(|(_, p)| quote(p)).sum::<f64>() / 8.0;
    println!(
        "\ncluster: 4 shards, tenant 'burst' capped at {:.1} µs of predicted backend time...",
        burst_budget * 1e6
    );
    let cluster = ClusterService::new(ClusterConfig {
        shards: 4,
        service: ServiceConfig { workers: 1, cache_capacity: 256, ..Default::default() },
        admission: AdmissionConfig::default().with_tenant(
            "burst",
            TokenBucketConfig { capacity: burst_budget, refill_per_second: burst_budget / 8.0 },
        ),
        ..Default::default()
    });

    let steady =
        cluster.session("steady", SessionConfig { queue_capacity: 32, ..Default::default() });
    let mut steady_handles = Vec::new();
    for (i, (_, problem)) in problems.iter().enumerate() {
        let spec = JobSpec::new(Arc::clone(problem), 3000 + i as u64).with_options(options.clone());
        steady_handles.push(steady.submit(spec).expect("unlimited tenant is always admitted"));
    }

    let burst =
        cluster.session("burst", SessionConfig { queue_capacity: 32, ..Default::default() });
    let mut admitted = 0usize;
    let mut shed = 0usize;
    let mut first_hint = None;
    for (i, (_, problem)) in problems.iter().cycle().take(12).enumerate() {
        let spec = JobSpec::new(Arc::clone(problem), 4000 + i as u64).with_options(options.clone());
        match burst.submit(spec) {
            Ok(_) => admitted += 1,
            Err(err) => {
                shed += 1;
                first_hint.get_or_insert(err.retry_after_hint().expect("sheds carry a hint"));
            }
        }
    }
    println!(
        "  tenant 'burst': {admitted} admitted, {shed} shed (first retry hint: {:?})",
        first_hint.expect("a 12-job burst against a fractional-burst budget must shed")
    );
    // An oversized first job clamps its charge to the bucket capacity, so
    // at least one job is always admitted; the budget is an eighth of the
    // burst's total quote, so even a 4x-miscalibrated-cheap fleet still
    // overdraws it.
    assert!(admitted >= 1, "a full bucket always admits its first job");
    assert!(shed >= 1, "a 12-job burst against an eighth of its predicted cost must shed");

    for handle in &steady_handles {
        assert!(handle.wait().is_ok(), "throttling one tenant never fails another's jobs");
    }
    steady.drain();
    burst.drain();

    let merged = cluster.report();
    println!("\nmerged cluster report:\n{merged}");
    assert_eq!(merged.jobs_shed as usize, shed, "every shed is counted exactly once");
    assert_eq!(
        merged.jobs_completed as usize,
        problems.len() + admitted,
        "both tenants' admitted jobs all complete"
    );
    println!("  per-shard breakdown:");
    for report in cluster.shard_reports() {
        println!(
            "    shard {}: {} submitted, {} completed, {} admitted, {} shed",
            report.shard.expect("shard reports are tagged"),
            report.jobs_submitted,
            report.jobs_completed,
            report.jobs_admitted,
            report.jobs_shed
        );
    }
    let cluster_series = merged.render_prometheus();
    for line in cluster_series
        .lines()
        .filter(|l| l.starts_with("qdm_jobs_shed") || l.starts_with("qdm_jobs_admitted"))
    {
        println!("  {line}");
    }

    // --- Chaos pass: faults, retries, breakers, deadlines, failover. ------
    // A scripted fault plan kills the `exact` backend for good and panics
    // one presolve; retries with jittered backoff re-route every job to the
    // next-ranked backend and the circuit breaker stops re-probing the dead
    // one after its first failure. (The cost model already prices the
    // failure in — expected cost is divided by the observed success rate —
    // so routing stops *choosing* the dead backend after one failure; a
    // threshold-1 breaker turns that soft demotion into a hard exclusion.)
    // Every job still resolves.
    println!("\nchaos: 'exact' backend down, one presolve panic, retries + breaker armed...");
    let plan: Arc<dyn FaultInjector> = Arc::new(
        FaultPlan::new()
            .fail_backend(
                "exact",
                FaultWhen::Always,
                FaultAction::Error("chaos: exact down".into()),
            )
            .fail_at(
                FaultSite::Presolve,
                FaultWhen::Nth(2),
                FaultAction::Panic("chaos: presolve panic".into()),
            ),
    );
    let chaotic = SolverService::new(ServiceConfig {
        workers: 2,
        cache_capacity: 256,
        injector: Some(plan),
        retry: RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(2),
        },
        breaker: Some(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(60),
            ..Default::default()
        }),
        ..Default::default()
    });
    for (i, (label, problem)) in problems.iter().enumerate() {
        let r = chaotic
            .run(JobSpec::new(Arc::clone(problem), 5000 + i as u64).with_options(options.clone()))
            .expect("every job survives the chaos via retry and fallback");
        println!("  {label:<10} served by {:<28} energy {:>9.3}", r.backend, r.report.energy);
        assert_ne!(r.backend, "exact", "the dead backend can never serve a job");
    }
    let hopeless = chaotic.run(
        JobSpec::new(Arc::clone(&problems[0].1), 6000)
            .with_options(options.clone())
            .deadline(Duration::ZERO),
    );
    assert!(
        matches!(hopeless, Err(JobError::DeadlineExceeded { .. })),
        "an already-expired deadline fails fast instead of solving"
    );
    let chaos_report = chaotic.report();
    assert!(chaos_report.jobs_retried >= 1, "the dead backend must have cost at least one retry");
    assert!(chaos_report.breaker_opened >= 1, "the first failure must trip the breaker");
    assert_eq!(chaos_report.deadlines_exceeded, 1, "exactly one deadline miss was provoked");
    println!(
        "  survived: {} completed, {} retries paid ({} exhausted), breaker opened {}x, \
         {} deadline miss",
        chaos_report.jobs_completed,
        chaos_report.jobs_retried,
        chaos_report.retries_exhausted,
        chaos_report.breaker_opened,
        chaos_report.deadlines_exceeded,
    );
    for line in chaos_report.render_prometheus().lines().filter(|l| {
        l.starts_with("qdm_jobs_retried")
            || l.starts_with("qdm_breaker")
            || l.starts_with("qdm_deadlines")
    }) {
        println!("  {line}");
    }

    // Failover: kill the home shard of the first problem and push the whole
    // workload through the degraded cluster — its keys re-route to the next
    // healthy ring successor and nothing is lost.
    let (fp, _) = problems[0].1.to_qubo().canonical_form();
    let probe = ClusterService::new(ClusterConfig {
        shards: 4,
        service: ServiceConfig { workers: 1, cache_capacity: 64, ..Default::default() },
        ..Default::default()
    });
    let dead_shard = probe.shard_for_fingerprint(fp);
    drop(probe);
    println!("\nchaos: shard {dead_shard} reported dead, resubmitting the workload...");
    let degraded = ClusterService::new(ClusterConfig {
        shards: 4,
        service: ServiceConfig { workers: 1, cache_capacity: 64, ..Default::default() },
        health_probe: Some(Arc::new(DeadShard(dead_shard))),
        ..Default::default()
    });
    let chaos_session =
        degraded.session("chaos", SessionConfig { queue_capacity: 32, ..Default::default() });
    let chaos_handles: Vec<_> = problems
        .iter()
        .enumerate()
        .map(|(i, (_, problem))| {
            let spec =
                JobSpec::new(Arc::clone(problem), 7000 + i as u64).with_options(options.clone());
            chaos_session.submit(spec).expect("health routing never rejects a job")
        })
        .collect();
    for handle in &chaos_handles {
        assert!(handle.wait().is_ok(), "a dead shard loses no jobs");
    }
    chaos_session.drain();
    let degraded_report = degraded.report();
    assert_eq!(degraded_report.jobs_completed as usize, problems.len());
    assert!(degraded_report.failovers >= 1, "the dead shard's keys must have re-routed");
    println!(
        "  shard {dead_shard} dead: {}/{} jobs completed, {} submissions failed over, 0 lost",
        degraded_report.jobs_completed,
        problems.len(),
        degraded_report.failovers
    );
}
