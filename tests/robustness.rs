//! Fault-tolerance integration tests: deterministic fault injection at
//! every processing seam, retry with backend fallback, per-job deadlines,
//! circuit-breaker state transitions on a manual clock, and cluster shard
//! failover — all without a single nondeterministic sleep-and-hope.
//!
//! The through-line of every test is the ledger: whatever is injected —
//! panics, typed errors, delays, a dead shard — every submitted job
//! resolves exactly once and `submitted == completed + failed + cancelled`
//! on the (merged) report.

use qdm::prelude::*;
use qdm::qubo::model::QuboModel;
use qdm::qubo::penalty;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Minimal pick-one problem: `n` binary choices, exactly one must be set.
struct PickOne {
    costs: Vec<f64>,
}

impl DmProblem for PickOne {
    fn name(&self) -> String {
        format!("robust-pick-{}", self.costs.len())
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
    Arc::new(PickOne { costs: (0..n).map(|i| ((i * 5) % 11) as f64 + 0.5).collect() })
}

/// Zero-sleep retry policy: deterministic tests never wait on backoff.
fn instant_retries(max_retries: u32) -> RetryPolicy {
    RetryPolicy { max_retries, backoff_base: Duration::ZERO, backoff_cap: Duration::ZERO }
}

fn faulted_service(plan: Arc<FaultPlan>, retries: u32) -> SolverService {
    SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        injector: Some(plan),
        retry: instant_retries(retries),
        ..Default::default()
    })
}

/// The ledger must balance no matter what was injected.
fn assert_balanced(report: &RuntimeReport) {
    assert_eq!(
        report.jobs_submitted,
        report.jobs_completed + report.jobs_failed + report.jobs_cancelled,
        "ledger out of balance: {report}"
    );
    assert_eq!(report.queue_depth, 0, "no job may be left behind in a queue: {report}");
}

// ---------------------------------------------------------------------------
// Fault matrix: every action at every seam, with retry enabled — every job
// must still resolve successfully.
// ---------------------------------------------------------------------------

#[test]
fn fault_matrix_every_site_and_action_resolves_with_retry() {
    let sites = [FaultSite::Compile, FaultSite::Presolve, FaultSite::Solve, FaultSite::Serve];
    let actions = [
        FaultAction::Panic("matrix panic".into()),
        FaultAction::Error("matrix error".into()),
        FaultAction::Delay(Duration::from_millis(2)),
    ];
    for site in sites {
        for action in &actions {
            let plan = Arc::new(FaultPlan::new().fail_at(site, FaultWhen::Nth(1), action.clone()));
            let service = faulted_service(Arc::clone(&plan), 2);
            let label = format!("site={} action={action:?}", site.name());
            let outcome = service.run(JobSpec::new(pick(5), 11));
            assert!(outcome.is_ok(), "{label}: job must survive the fault: {outcome:?}");
            assert_eq!(plan.fired(), 1, "{label}: the armed fault must actually fire");
            let report = service.report();
            assert_eq!(report.jobs_completed, 1, "{label}");
            assert_eq!(report.jobs_failed, 0, "{label}");
            assert_balanced(&report);
        }
    }
}

// ---------------------------------------------------------------------------
// Retry, fallback, and exhaustion.
// ---------------------------------------------------------------------------

#[test]
fn injected_backend_failure_falls_back_to_the_next_ranked_backend() {
    // "exact" has the cheapest prior for a 5-variable model, so the first
    // attempt always dispatches there; the plan kills it permanently.
    let plan = Arc::new(FaultPlan::new().fail_backend(
        "exact",
        FaultWhen::Always,
        FaultAction::Error("exact is down".into()),
    ));
    let service = faulted_service(Arc::clone(&plan), 2);
    let result = service.run(JobSpec::new(pick(5), 3)).expect("fallback serves the job");
    assert_ne!(result.backend, "exact", "the failed backend cannot have produced the result");
    let report = service.report();
    assert_eq!(report.jobs_retried, 1, "one retry: the fallback succeeded first try");
    assert_eq!(report.retries_exhausted, 0);
    assert_eq!(report.jobs_failed, 0);
    assert_balanced(&report);
    // The retry is visible in the trace as its own span.
    let traces = service.traces();
    assert!(
        traces.iter().any(|t| t.spans.iter().any(|s| s.stage == Stage::Retry)),
        "the retry must appear as a child span in the job trace"
    );
}

#[test]
fn retries_exhaust_and_surface_the_injected_error() {
    // Every solve on every backend fails: the retry budget must run out
    // and the job must fail with the injected error, counted exactly once.
    let plan = Arc::new(FaultPlan::new().fail_at(
        FaultSite::Solve,
        FaultWhen::Always,
        FaultAction::Error("all backends down".into()),
    ));
    let service = faulted_service(plan, 2);
    let err = service.run(JobSpec::new(pick(5), 4)).unwrap_err();
    assert_eq!(err, JobError::Injected("all backends down".into()));
    let report = service.report();
    assert_eq!(report.jobs_retried, 2, "the full retry budget was spent");
    assert_eq!(report.retries_exhausted, 1);
    assert_eq!(report.jobs_failed, 1);
    assert_eq!(report.jobs_completed, 0);
    assert_balanced(&report);
}

#[test]
fn panic_payloads_survive_into_the_job_error() {
    // No retries: the catch_unwind path must surface the panic message.
    let plan = Arc::new(FaultPlan::new().fail_at(
        FaultSite::Solve,
        FaultWhen::Nth(1),
        FaultAction::Panic("kaboom at the solve seam".into()),
    ));
    let service = faulted_service(plan, 0);
    let err = service.run(JobSpec::new(pick(5), 5)).unwrap_err();
    match err {
        JobError::Panicked(msg) => {
            assert!(msg.contains("kaboom at the solve seam"), "payload lost: {msg:?}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let report = service.report();
    assert_eq!(report.jobs_failed, 1);
    assert_eq!(report.jobs_retried, 0, "a zero-retry policy never retries");
    assert_balanced(&report);
}

#[test]
fn faulted_portfolio_result_is_bit_identical_to_pinning_the_fallback() {
    // Acceptance criterion: with one backend permanently failing, the
    // degraded portfolio's answer must be exactly what a run that never
    // ranks the failed backend produces. Fresh services per job keep
    // telemetry out of the comparison.
    for seed in [1u64, 2, 3] {
        let plan = Arc::new(FaultPlan::new().fail_backend(
            "exact",
            FaultWhen::Always,
            FaultAction::Error("permanently dark".into()),
        ));
        let degraded = faulted_service(plan, 2);
        let a = degraded.run(JobSpec::new(pick(6), seed)).expect("fallback serves");
        assert_ne!(a.backend, "exact");

        let clean = SolverService::new(ServiceConfig {
            workers: 1,
            cache_capacity: 16,
            ..Default::default()
        });
        let b = clean
            .run(JobSpec::new(pick(6), seed).on_backend(&a.backend))
            .expect("the fallback backend solves directly");
        assert_eq!(a.report.bits, b.report.bits, "degraded result must be bit-identical");
        assert_eq!(a.report.energy.to_bits(), b.report.energy.to_bits());
        assert_eq!(a.backend, b.backend);
    }
}

// ---------------------------------------------------------------------------
// Deadlines.
// ---------------------------------------------------------------------------

#[test]
fn zero_deadline_fails_fast_with_no_partial_solution() {
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() });
    let err = service.run(JobSpec::new(pick(5), 6).deadline(Duration::ZERO)).unwrap_err();
    assert_eq!(
        err,
        JobError::DeadlineExceeded { partial: None },
        "an already-expired deadline fails at pickup, before anything ran"
    );
    let report = service.report();
    assert_eq!(report.deadlines_exceeded, 1);
    assert_eq!(report.jobs_failed, 1);
    assert_balanced(&report);
}

#[test]
fn mid_solve_deadline_stops_the_search_and_carries_the_partial_best() {
    // A 500ms injected stall at the presolve seam burns the job's 250ms
    // budget before the solver starts; the cooperative checkpoint stops
    // the annealer at its first restart boundary and the best-so-far
    // assignment rides out in the error.
    let plan = Arc::new(FaultPlan::new().fail_at(
        FaultSite::Presolve,
        FaultWhen::Nth(1),
        FaultAction::Delay(Duration::from_millis(500)),
    ));
    let service = faulted_service(plan, 0);
    let spec = JobSpec::new(pick(6), 7)
        .on_backend("simulated-annealing")
        .deadline(Duration::from_millis(250));
    let err = service.run(spec).unwrap_err();
    match err {
        JobError::DeadlineExceeded { partial: Some(partial) } => {
            assert_eq!(partial.bits.len(), 6, "the partial covers every variable");
            assert!(partial.energy.is_finite());
        }
        other => panic!("expected a mid-solve deadline with a partial, got {other:?}"),
    }
    let report = service.report();
    assert_eq!(report.deadlines_exceeded, 1);
    assert_balanced(&report);
}

#[test]
fn generous_deadline_is_bit_identical_to_no_deadline() {
    // The deadline checkpoint consumes no randomness, so a deadline that
    // never fires must not perturb the result in any way.
    let run = |deadline: Option<Duration>| {
        let service = SolverService::new(ServiceConfig {
            workers: 1,
            cache_capacity: 16,
            ..Default::default()
        });
        let mut spec = JobSpec::new(pick(6), 8).on_backend("simulated-annealing");
        if let Some(d) = deadline {
            spec = spec.deadline(d);
        }
        service.run(spec).expect("solvable")
    };
    let plain = run(None);
    let guarded = run(Some(Duration::from_secs(3600)));
    assert_eq!(plain.report.bits, guarded.report.bits);
    assert_eq!(plain.report.energy.to_bits(), guarded.report.energy.to_bits());
    assert_eq!(plain.backend, guarded.backend);
}

// ---------------------------------------------------------------------------
// Circuit breakers.
// ---------------------------------------------------------------------------

#[test]
fn breaker_opens_excludes_the_backend_half_opens_and_recloses() {
    let clock = Arc::new(ManualClock::new(0));
    // "exact" fails its first two solve attempts only: a firing rule stops
    // the scan before later rules count, so the second one-shot rule sees
    // (and kills) exactly the next occurrence after the first rule fired.
    let plan = Arc::new(
        FaultPlan::new()
            .fail_backend("exact", FaultWhen::Nth(1), FaultAction::Error("flaky".into()))
            .fail_backend("exact", FaultWhen::Nth(1), FaultAction::Error("flaky".into())),
    );
    let cooldown = Duration::from_secs(5);
    let service = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        injector: Some(Arc::clone(&plan) as Arc<dyn FaultInjector>),
        retry: instant_retries(2),
        breaker: Some(BreakerConfig { failure_threshold: 1, cooldown, clock: Some(clock.clone()) }),
        ..Default::default()
    });

    // Job 1: exact fails, trips the breaker open, the retry falls back.
    let first = service.run(JobSpec::new(pick(5), 10)).expect("fallback serves");
    assert_ne!(first.backend, "exact");
    assert_eq!(service.report().breaker_opened, 1);

    // Job 2: the open breaker excludes exact at routing time — no fault
    // fires, no retry happens, the fallback serves directly.
    let retried_before = service.report().jobs_retried;
    let second = service.run(JobSpec::new(pick(5), 11)).expect("routed around the breaker");
    assert_ne!(second.backend, "exact");
    assert_eq!(service.report().jobs_retried, retried_before, "an open breaker avoids retries");

    // Cooldown elapses on the manual clock: the next ranking half-opens
    // the breaker, the probe attempt fails again, and it re-opens.
    clock.advance(cooldown.as_micros() as u64);
    let third = service.run(JobSpec::new(pick(5), 12)).expect("probe failure falls back");
    assert_ne!(third.backend, "exact");
    let report = service.report();
    assert_eq!(report.breaker_half_opened, 1);
    assert_eq!(report.breaker_opened, 2, "the failed half-open probe re-opened the breaker");

    // Second cooldown: this probe succeeds (the plan is exhausted) and the
    // breaker re-closes — exact is back in service.
    clock.advance(cooldown.as_micros() as u64);
    let fourth = service.run(JobSpec::new(pick(5), 13)).expect("recovered backend serves");
    assert_eq!(fourth.backend, "exact", "a successful probe restores the backend");
    let report = service.report();
    assert_eq!(report.breaker_half_opened, 2);
    assert_eq!(report.breaker_closed, 1);
    assert_eq!(report.jobs_failed, 0, "every job was served despite the flaky backend");
    assert_balanced(&report);

    // The transitions are visible on the metrics endpoint.
    let prom = report.render_prometheus();
    for line in [
        "qdm_breaker_opened_total 2",
        "qdm_breaker_half_opened_total 2",
        "qdm_breaker_closed_total 1",
    ] {
        assert!(prom.contains(line), "missing {line:?} in:\n{prom}");
    }
}

// ---------------------------------------------------------------------------
// Single-flight under injected leader failure.
// ---------------------------------------------------------------------------

/// Blocks the first `expected` callers until all have arrived; later
/// callers (retry attempts) pass straight through.
struct Rendezvous {
    expected: usize,
    arrived: Mutex<usize>,
    all_here: Condvar,
}

impl Rendezvous {
    fn new(expected: usize) -> Self {
        Self { expected, arrived: Mutex::new(0), all_here: Condvar::new() }
    }

    fn wait(&self) {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        if *arrived >= self.expected {
            self.all_here.notify_all();
        }
        while *arrived < self.expected {
            arrived = self.all_here.wait(arrived).unwrap();
        }
    }
}

/// A latch opened once by the test; stays open forever after.
#[derive(Default)]
struct Release {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Release {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn wait_open(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }
}

/// Opens its latch when dropped. Declared after the cluster, it drops
/// first, so a failed assertion unwinds through the cluster's teardown
/// instead of hanging on a worker still parked in the latch.
struct OpenOnDrop(Arc<Release>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// Pick-one problem with a rendezvous in `to_qubo` (forces overlap) and a
/// release latch in `decode` (keeps the leader from finishing early).
struct GatedPick {
    costs: Vec<f64>,
    rendezvous: Arc<Rendezvous>,
    release: Arc<Release>,
}

impl DmProblem for GatedPick {
    fn name(&self) -> String {
        "robust-gated-pick".into()
    }
    fn n_vars(&self) -> usize {
        self.costs.len()
    }
    fn to_qubo(&self) -> QuboModel {
        self.rendezvous.wait();
        let mut q = QuboModel::new(self.costs.len());
        for (i, &c) in self.costs.iter().enumerate() {
            q.add_linear(i, c);
        }
        let vars: Vec<usize> = (0..self.costs.len()).collect();
        penalty::exactly_one(&mut q, &vars, 50.0);
        q
    }
    fn decode(&self, bits: &[bool]) -> Decoded {
        self.release.wait_open();
        let chosen: Vec<usize> =
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        Decoded {
            feasible: chosen.len() == 1,
            objective: chosen.iter().map(|&i| self.costs[i]).sum(),
            summary: format!("chose {chosen:?}"),
        }
    }
}

#[test]
fn leader_panic_abandons_the_flight_and_parked_permuted_followers_recover() {
    // Three concurrent submissions of the same canonical QUBO — one of
    // them relabeled — coalesce into one flight. The plan panics the first
    // serve, i.e. *after* the leader solved and decoded: the lease drops
    // unpublished, the parked followers are abandoned, and between the
    // leader's retry and the re-led flight every handle must still
    // resolve with consistent bits.
    let plan = Arc::new(FaultPlan::new().fail_at(
        FaultSite::Serve,
        FaultWhen::Nth(1),
        FaultAction::Panic("serve seam panic".into()),
    ));
    let service = SolverService::new(ServiceConfig {
        workers: 3,
        cache_capacity: 16,
        injector: Some(Arc::clone(&plan) as Arc<dyn FaultInjector>),
        retry: instant_retries(2),
        ..Default::default()
    });
    let session = service.session(SessionConfig { queue_capacity: 8, ..Default::default() });
    let rendezvous = Arc::new(Rendezvous::new(3));
    let release = Arc::new(Release::default());
    let _unwedge = OpenOnDrop(Arc::clone(&release));
    let costs = vec![5.0, 1.0, 3.0, 4.0];
    let reversed: Vec<f64> = costs.iter().rev().copied().collect();
    let make = |costs: Vec<f64>| -> SharedProblem {
        Arc::new(GatedPick {
            costs,
            rendezvous: Arc::clone(&rendezvous),
            release: Arc::clone(&release),
        })
    };

    let lead = session.submit(JobSpec::new(make(costs.clone()), 21).on_backend("tabu"));
    let twin = session.submit(JobSpec::new(make(costs), 21).on_backend("tabu"));
    let permuted = session.submit(JobSpec::new(make(reversed), 21).on_backend("tabu"));
    // Both duplicates must be parked on the leader's flight before the
    // leader is allowed to reach the panicking serve seam.
    while service.report().jobs_coalesced < 2 {
        std::thread::yield_now();
    }
    release.open();

    let a = lead.wait().expect("leader or re-led follower, the job resolves");
    let b = twin.wait().expect("abandoned follower retries and resolves");
    let c = permuted.wait().expect("permuted follower resolves through its own permutation");
    assert_eq!(plan.fired(), 1, "the serve panic fired exactly once");
    assert_eq!(a.report.bits, b.report.bits, "duplicates agree bit-for-bit");
    let mut mirrored = a.report.bits.clone();
    mirrored.reverse();
    assert_eq!(c.report.bits, mirrored, "the permuted follower sees the translated assignment");
    session.drain();
    let report = service.report();
    assert_eq!(report.jobs_completed, 3);
    assert_eq!(report.jobs_failed, 0);
    assert!(report.jobs_retried >= 1, "the panicked leader retried: {report}");
    assert_balanced(&report);
}

// ---------------------------------------------------------------------------
// Cluster shard failover.
// ---------------------------------------------------------------------------

/// Flip-a-switch health probe: one `AtomicBool` per shard.
struct HealthFlags(Vec<AtomicBool>);

impl HealthFlags {
    fn all_healthy(n: usize) -> Arc<Self> {
        Arc::new(Self((0..n).map(|_| AtomicBool::new(true)).collect()))
    }

    fn kill(&self, shard: usize) {
        self.0[shard].store(false, Ordering::SeqCst);
    }
}

impl HealthProbe for HealthFlags {
    fn is_healthy(&self, shard: usize) -> bool {
        self.0[shard].load(Ordering::SeqCst)
    }
}

/// Pick-one problem whose `decode` parks the worker until the latch opens
/// and reports each arrival — the deterministic way to wedge a shard's
/// only worker and build a queue behind it.
struct ParkedPick {
    costs: Vec<f64>,
    release: Arc<Release>,
    arrivals: Arc<AtomicUsize>,
}

impl DmProblem for ParkedPick {
    fn name(&self) -> String {
        "robust-parked-pick".into()
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
        penalty::exactly_one(&mut q, &vars, 50.0);
        q
    }
    fn decode(&self, bits: &[bool]) -> Decoded {
        self.arrivals.fetch_add(1, Ordering::SeqCst);
        self.release.wait_open();
        let chosen: Vec<usize> =
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        Decoded {
            feasible: chosen.len() == 1,
            objective: chosen.iter().map(|&i| self.costs[i]).sum(),
            summary: format!("chose {chosen:?}"),
        }
    }
}

#[test]
fn killing_a_shard_mid_run_drains_its_queue_and_loses_no_job() {
    const SHARDS: usize = 4;
    let flags = HealthFlags::all_healthy(SHARDS);
    let journals: Vec<Arc<MemoryJournal>> =
        (0..SHARDS).map(|_| Arc::new(MemoryJournal::new())).collect();
    let cluster = ClusterService::new(ClusterConfig {
        shards: SHARDS,
        service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
        health_probe: Some(Arc::clone(&flags) as Arc<dyn HealthProbe>),
        journals: Some(journals.iter().map(|j| Arc::clone(j) as Arc<dyn Journal>).collect()),
        ..Default::default()
    });
    let release = Arc::new(Release::default());
    let _unwedge = OpenOnDrop(Arc::clone(&release));
    let arrivals = Arc::new(AtomicUsize::new(0));
    let job = |seed: u64| {
        let problem: SharedProblem = Arc::new(ParkedPick {
            costs: vec![2.5, 0.5, 1.5, 3.5],
            release: Arc::clone(&release),
            arrivals: Arc::clone(&arrivals),
        });
        JobSpec::new(problem, seed)
    };
    // Every job shares one fingerprint, so all route to one home shard.
    let home = {
        let (fp, _) = job(0).problem.to_qubo().canonical_form();
        cluster.shard_for_fingerprint(fp)
    };
    let session = cluster.session("t", SessionConfig { queue_capacity: 16, ..Default::default() });

    // Jobs 0..=3 wedge every worker in decode — the home shard's own and,
    // through the idle pull, each peer's — so jobs 4..=8 pile up in the
    // home queue with nobody free to run them.
    let mut handles: Vec<JobHandle> =
        (0..SHARDS as u64).map(|seed| session.submit(job(seed)).expect("admitted")).collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while arrivals.load(Ordering::SeqCst) < SHARDS {
        assert!(std::time::Instant::now() < deadline, "an idle worker never ran a job");
        std::thread::yield_now();
    }
    for seed in 4..=8 {
        handles.push(session.submit(job(seed)).expect("admitted"));
    }

    // Kill the home shard mid-run and drain: the queued-not-claimed jobs
    // must move to a healthy shard through the migration accounting path.
    flags.kill(home);
    cluster.failover_drain();
    // A fresh submission while the home shard is dead re-routes on the
    // ring and counts a failover on its recipient.
    handles.push(session.submit(job(9)).expect("rerouted"));

    release.open();
    for handle in &handles {
        assert!(handle.wait().is_ok(), "no job may be lost to the dead shard");
    }
    session.drain();
    let ids: HashSet<u64> = session.completions().map(|c| c.id).collect();
    assert_eq!(ids.len(), handles.len(), "every job completed exactly once");

    let merged = cluster.report();
    assert_eq!(merged.jobs_submitted, handles.len() as u64);
    assert_eq!(merged.jobs_completed, handles.len() as u64);
    assert_eq!(merged.jobs_failed, 0);
    assert!(merged.failovers >= 6, "5 drained + 1 rerouted: {merged}");
    assert!(merged.migrations >= 5, "drained jobs ride the migration ledger: {merged}");
    assert_balanced(&merged);
    // Draining moved where the jobs ran, not who owns them: the home shard
    // admitted jobs 0..=8 and counts all of them, each shard's ledger and
    // journal balance, and the three jobs that wedged the peers ran there
    // for the home shard.
    let per_shard = cluster.shard_reports();
    assert_eq!(per_shard[home].jobs_submitted, 9, "{per_shard:?}");
    assert_eq!(per_shard[home].jobs_completed, 9, "{per_shard:?}");
    for report in &per_shard {
        assert_balanced(report);
    }
    let lent: u64 = per_shard.iter().map(|r| r.jobs_run_for_peers).sum();
    assert!(lent >= 3, "the wedged peers ran jobs for the home shard: {per_shard:?}");
    for journal in &journals {
        assert!(unfinished(&journal.events()).is_empty(), "each shard's journal is complete");
    }
}

#[test]
fn results_with_a_dead_shard_are_bit_identical_to_a_healthy_cluster() {
    const SHARDS: usize = 4;
    // Distinct sizes give distinct fingerprints spread across the ring;
    // pinned backends keep shard-local portfolio telemetry out of play.
    let specs = || -> Vec<JobSpec> {
        (0..6u64)
            .map(|i| {
                JobSpec::new(pick(4 + i as usize), 40 + i)
                    .on_backend(["simulated-annealing", "tabu"][i as usize % 2])
            })
            .collect()
    };
    let run = |probe: Option<Arc<dyn HealthProbe>>| -> (Vec<JobOutcome>, RuntimeReport) {
        let cluster = ClusterService::new(ClusterConfig {
            shards: SHARDS,
            service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
            health_probe: probe,
            ..Default::default()
        });
        let session = cluster.session("t", SessionConfig::default());
        let handles: Vec<JobHandle> =
            specs().into_iter().map(|s| session.submit(s).expect("admitted")).collect();
        let outcomes = handles.iter().map(JobHandle::wait).collect();
        session.drain();
        (outcomes, cluster.report())
    };

    let (healthy, _) = run(None);

    // Kill the home shard of the first spec from the start.
    let probe_cluster = ClusterService::new(ClusterConfig {
        shards: SHARDS,
        service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
        ..Default::default()
    });
    let (fp, _) = pick(4).to_qubo().canonical_form();
    let dead = probe_cluster.shard_for_fingerprint(fp);
    drop(probe_cluster);
    let flags = HealthFlags::all_healthy(SHARDS);
    flags.kill(dead);
    let (degraded, report) = run(Some(flags as Arc<dyn HealthProbe>));

    for (h, d) in healthy.iter().zip(&degraded) {
        let h = h.as_ref().expect("solvable");
        let d = d.as_ref().expect("solvable despite the dead shard");
        assert_eq!(h.report.bits, d.report.bits, "failover must not change the answer");
        assert_eq!(h.report.energy.to_bits(), d.report.energy.to_bits());
        assert_eq!(h.backend, d.backend);
    }
    assert!(report.failovers >= 1, "at least the first spec re-routed: {report}");
    assert_eq!(report.jobs_failed, 0);
    assert_balanced(&report);
}

// ---------------------------------------------------------------------------
// Teardown: dropping a service must never hang on its workers.
// ---------------------------------------------------------------------------

/// Runs `cycle(0..cycles)` on its own thread, failing the test if any one
/// cycle takes more than ten seconds — a hung teardown `join` fails
/// instead of stalling the suite.
fn cycles_never_hang(cycles: u64, cycle: impl Fn(u64) + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let cycler = std::thread::spawn(move || {
        for i in 0..cycles {
            cycle(i);
            if tx.send(i).is_err() {
                return;
            }
        }
    });
    for i in 0..cycles {
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(done) => assert_eq!(done, i),
            // The cycling thread panicked; joining it below re-raises that.
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                panic!("cycle {i}: teardown did not finish within 10 s")
            }
        }
    }
    cycler.join().expect("every create/submit/drop cycle succeeds");
}

#[test]
fn create_submit_drop_cycles_never_hang_teardown() {
    // Each cycle drops a two-worker service right after its only job
    // resolves, while the solving worker is on its way back into the
    // queue wait — the window a shutdown notify can slip through if the
    // flag is raised outside the queue lock.
    cycles_never_hang(2_000, |cycle| {
        let service = SolverService::new(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let outcome = service.run(JobSpec::new(pick(3), cycle).on_backend("exact"));
        assert!(outcome.is_ok(), "cycle {cycle}: {outcome:?}");
    });
}

#[test]
fn cluster_create_submit_drop_cycles_never_hang_teardown() {
    // The same window across shards: each shard's worker may be scanning
    // or pulling from its peer's queue when the cluster drops, and every
    // shard must still join.
    cycles_never_hang(2_000, |cycle| {
        let cluster = ClusterService::new(ClusterConfig {
            shards: 2,
            service: ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() },
            ..Default::default()
        });
        let session = cluster.session("t", SessionConfig::default());
        let handle = session.submit(JobSpec::new(pick(3), cycle).on_backend("exact"));
        let outcome = handle.expect("admitted").wait();
        assert!(outcome.is_ok(), "cycle {cycle}: {outcome:?}");
    });
}
